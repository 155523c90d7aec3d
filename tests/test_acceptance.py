"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The expensive synthetic recovery runs (criteria 1 and 2) are shared with the
per-iterate bound checks (criterion 6) through module-scoped fixtures. Run
with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import json
import math

import numpy as np
import pytest

import polygrain as pg
from polygrain import fileio
from polygrain.cli import main
from polygrain.objective import evaluate_objective
from conftest import random_apd, random_labels_map, random_pd, random_theta
from reference import cost_matrix, hessian_block


def criterion(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def pd_recovery():
    rng = np.random.default_rng(11)
    pd = random_pd(rng, 20)
    gm = pg.generate_pd(pd, pg.make_grid(50))
    rep = pg.fit(gm, pg.FitConfig(degree=1, basis_kind=pg.LEGENDRE, eps=1e-2,
                                  max_iters=2000, init="zero", record_every=1))
    return gm, rep


@pytest.fixture(scope="module")
def apd_recovery():
    rng = np.random.default_rng(23)
    apd = random_apd(rng, 20, level=0.3)
    gm = pg.generate_apd(apd, pg.make_grid(50))
    rep_zero = pg.fit(gm, pg.FitConfig(degree=2, basis_kind=pg.LEGENDRE, eps=1e-2,
                                       max_iters=2000, init="zero", record_every=1))
    rep_heur = pg.fit(gm, pg.FitConfig(degree=2, basis_kind=pg.LEGENDRE, eps=1e-2,
                                       max_iters=10, init="heuristic", record_every=1))
    return gm, rep_zero, rep_heur


def test_criterion_1_synthetic_pd_recovery(pd_recovery):
    _, rep = pd_recovery
    ok = rep.err_final <= 0.005 and rep.phi_final >= -0.05
    criterion(1, ok,
              f"PD N=20 M=50 d=1 eps=1e-2 zero-init 2000 iters: "
              f"err={rep.err_final:.6f} (<=0.005), phi={rep.phi_final:.6f} (>=-0.05), "
              f"wall={rep.wall_clock_s:.1f}s")


def test_criterion_2_synthetic_apd_recovery(apd_recovery):
    _, rep_zero, rep_heur = apd_recovery
    ok_err = rep_zero.err_final <= 0.01
    ok_init = rep_heur.err_traj[0] < rep_zero.err_traj[0]
    criterion(2, ok_err and ok_init,
              f"APD N=20 M=50 d=2: err={rep_zero.err_final:.6f} (<=0.01); "
              f"heuristic err@0={rep_heur.err_traj[0]:.4f} < "
              f"zero err@0={rep_zero.err_traj[0]:.4f}")


def test_criterion_3_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    eps, h = 0.5, 1e-6
    worst = 0.0
    configs = 0
    for degree in (1, 2, 3):
        for n_grains in (2, 5):
            for m in (2, 5):
                for kind in (pg.MONOMIAL, pg.LEGENDRE):
                    grid = pg.make_grid(m)
                    labels = rng.integers(1, n_grains + 1, size=len(grid))
                    labels[0], labels[1] = 1, 2
                    gm = pg.GrainMap(grid=grid, labels=labels, n_grains=n_grains)
                    basis = pg.DesignBasis.make(kind, degree)
                    design = pg.assemble_design_matrix(basis, grid)
                    theta = pg.ParamMatrix(
                        rng.normal(0.0, 1.0, (basis.dimension, n_grains)), basis)
                    grad = pg.gradient(theta, design, gm, eps)
                    for r in range(basis.dimension):
                        for c in range(n_grains):
                            vp = theta.values.copy()
                            vp[r, c] += h
                            vm = theta.values.copy()
                            vm[r, c] -= h
                            fd = (pg.objective(theta.with_values(vp), design, gm, eps)
                                  - pg.objective(theta.with_values(vm), design, gm, eps)) / (2 * h)
                            a = grad[r, c]
                            err = abs(a - fd) if abs(a) < 1e-8 else abs(a - fd) / abs(a)
                            worst = max(worst, err)
                    configs += 1
    ok = configs >= 20 and worst <= 1e-6
    criterion(3, ok, f"gradient vs central differences over {configs} configs: "
                     f"worst entry error {worst:.3e} (<=1e-6)")


def test_criterion_4_concavity_and_gauge():
    rng = np.random.default_rng(42)
    gm = random_labels_map(rng, 4, 3)
    basis = pg.DesignBasis.make(pg.LEGENDRE, 1)
    design = pg.assemble_design_matrix(basis, gm.grid)
    eps = 0.4
    n_grains, k = 3, basis.dimension
    theta = random_theta(rng, 1, n_grains)
    blocks = [[hessian_block(theta, design, gm, eps, i, j)
               for j in range(1, n_grains + 1)] for i in range(1, n_grains + 1)]

    worst_q = -np.inf
    for _ in range(100):
        v = rng.normal(size=(n_grains, k))
        q = sum(v[i] @ blocks[i][j] @ v[j] for i in range(n_grains) for j in range(n_grains))
        worst_q = max(worst_q, q)
    ok_neg = worst_q <= 1e-10

    worst_gauge_q = 0.0
    for _ in range(20):
        c = rng.normal(size=k)
        q = sum(c @ blocks[i][j] @ c for i in range(n_grains) for j in range(n_grains))
        worst_gauge_q = max(worst_gauge_q, abs(q))
    ok_gauge_null = worst_gauge_q <= 1e-12

    worst_shift = 0.0
    for _ in range(20):
        t = random_theta(rng, 1, n_grains)
        c = rng.normal(size=k)
        a = pg.objective(t, design, gm, eps)
        b = pg.objective(t.with_values(t.values + c[:, None]), design, gm, eps)
        worst_shift = max(worst_shift, abs(a - b) / (1 + abs(a)))
    ok_shift = worst_shift <= 1e-12

    lam = np.linspace(0.0, 1.0, 11)
    worst_gap = np.inf
    for _ in range(100):
        ta = random_theta(rng, 1, n_grains, scale=rng.uniform(0.2, 2.0))
        tb = random_theta(rng, 1, n_grains, scale=rng.uniform(0.2, 2.0))
        fa = pg.objective(ta, design, gm, eps)
        fb = pg.objective(tb, design, gm, eps)
        for t in lam:
            mid = pg.objective(ta.with_values(t * ta.values + (1 - t) * tb.values),
                               design, gm, eps)
            worst_gap = min(worst_gap, mid - (t * fa + (1 - t) * fb))
    ok_segments = worst_gap >= -1e-10

    ok = ok_neg and ok_gauge_null and ok_shift and ok_segments
    criterion(4, ok,
              f"quadratic form max {worst_q:.2e} (<=1e-10); gauge-direction form "
              f"{worst_gauge_q:.2e} (<=1e-12); gauge shift drift {worst_shift:.2e} "
              f"(<=1e-12); worst segment gap {worst_gap:.2e} (>=-1e-10)")


def test_criterion_5_eps_scaling_identities():
    rng = np.random.default_rng(77)
    gm = random_labels_map(rng, 5, 4)
    basis = pg.DesignBasis.make(pg.LEGENDRE, 2)
    design = pg.assemble_design_matrix(basis, gm.grid)

    worst_phi = 0.0
    assign_exact = True
    for _ in range(20):
        theta = random_theta(rng, 2, 4, scale=rng.uniform(0.3, 3.0))
        eps = float(rng.uniform(1e-3, 0.9))
        a = pg.objective(theta, design, gm, eps)
        b = pg.objective(theta.with_values(theta.values / eps), design, gm, 1.0)
        worst_phi = max(worst_phi, abs(a - b) / (1 + abs(a)))
        la = pg.argmin_labels(cost_matrix(theta, design))
        lb = pg.argmin_labels(cost_matrix(theta.with_values(eps * theta.values), design))
        assign_exact = assign_exact and np.array_equal(la, lb)
    ok_ident = worst_phi <= 1e-12

    eps = 1e-2
    rng_traj = np.random.default_rng(3)
    gm_traj = pg.generate_pd(random_pd(rng_traj, 6), pg.make_grid(8))
    theta0 = pg.heuristic_theta(gm_traj, 1, pg.LEGENDRE)
    scaled0 = pg.ParamMatrix(theta0.values / eps, theta0.basis, gauge=theta0.gauge)
    ra = pg.fit(gm_traj, pg.FitConfig(degree=1, eps=eps, max_iters=50, init=theta0))
    rb = pg.fit(gm_traj, pg.FitConfig(degree=1, eps=1.0, max_iters=50, init=scaled0))
    pa, pb = np.array(ra.phi_traj), np.array(rb.phi_traj)
    same_len = ra.iters == rb.iters
    worst_traj = float(np.max(np.abs(pa - pb) / (1 + np.abs(pa)))) if same_len else np.inf
    ok_traj = same_len and worst_traj <= 1e-10

    ok = ok_ident and assign_exact and ok_traj
    criterion(5, ok,
              f"phi identity drift {worst_phi:.2e} (<=1e-12); hard labels exact: "
              f"{assign_exact}; trajectory equivalence over 50 iters "
              f"{worst_traj:.2e} (<=1e-10)")


def _bounds_on_trajectory(rep):
    log2 = math.log(2.0)
    log_n = math.log(rep.n_grains)
    worst_mis = -np.inf
    worst_low, worst_high = -np.inf, -np.inf
    for phi, err, e0 in zip(rep.phi_traj, rep.err_traj, rep.e0_traj):
        gap = -rep.eps * phi - e0
        worst_mis = max(worst_mis, phi - (-log2 * err))
        worst_low = max(worst_low, -gap)
        worst_high = max(worst_high, gap - rep.eps * log_n)
    return worst_mis, worst_low, worst_high


def test_criterion_6_bounds_on_recorded_iterates(pd_recovery, apd_recovery):
    _, rep_pd = pd_recovery
    _, rep_apd, rep_heur = apd_recovery
    worsts = [_bounds_on_trajectory(r) for r in (rep_pd, rep_apd, rep_heur)]
    worst_mis = max(w[0] for w in worsts)
    worst_low = max(w[1] for w in worsts)
    worst_high = max(w[2] for w in worsts)
    # saturation at the fully ambiguous start (iterate 0 of the zero-init runs)
    sat = max(abs(-r.eps * r.phi_traj[0] - r.e0_traj[0] - r.eps * math.log(r.n_grains))
              for r in (rep_pd, rep_apd))
    ok = (worst_mis <= 1e-12 and worst_low <= 1e-12 and worst_high <= 1e-12
          and sat <= 1e-12)
    criterion(6, ok,
              f"misassignment bound excess {worst_mis:.2e}, energy sandwich "
              f"violations {worst_low:.2e}/{worst_high:.2e} (<=1e-12 over "
              f"{sum(len(r.phi_traj) for r in (rep_pd, rep_apd, rep_heur))} iterates); "
              f"saturation at zero init {sat:.2e} (<=1e-12)")


def test_criterion_7_compression_table():
    expected = {
        (245, 63252): [0.39, 0.77, 1.29, 1.94, 2.71, 3.62, 4.65, 5.81],
        (4686, 1033376): [0.45, 0.91, 1.51, 2.27, 3.17, 4.23, 5.44, 6.80],
    }
    got = {shape: [round(100.0 * pg.compression(d, *shape), 2) for d in range(1, 9)]
           for shape in expected}
    ok = got == expected
    criterion(7, ok, f"16 printed compression percentages reproduced: {got}")


def test_criterion_8_conversion_round_trips():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(10):
        pd = random_pd(rng, 6)
        back = pg.theta_to_pd(pg.pd_to_theta(pd))
        worst = max(worst, float(np.abs(back.seeds - pd.seeds).max()),
                    float(np.abs(back.weights - pd.weights).max()))
        apd = random_apd(rng, 6, level=0.5)
        rec = pg.theta_to_apd(pg.apd_to_theta(apd))
        worst = max(worst, float(np.abs(rec.seeds - apd.seeds).max()),
                    float(np.abs(rec.weights - apd.weights).max()),
                    float(np.abs(rec.anisotropy - apd.anisotropy).max()))
    for degree in (1, 2, 5):
        theta = random_theta(rng, degree, 4, kind=pg.MONOMIAL)
        back = pg.coeffs_to_basis(pg.coeffs_to_basis(theta, pg.LEGENDRE), pg.MONOMIAL)
        worst = max(worst, float(np.abs(back.values - theta.values).max()))
    ok_round = worst <= 1e-12

    grid = pg.make_grid(8)
    repair_identical = True
    worst_floor = np.inf
    for _ in range(20):
        gm = random_labels_map(rng, 8, 4)
        rep = pg.fit(gm, pg.FitConfig(degree=2, eps=0.1, max_iters=25))
        margin = float(rng.uniform(0.05, 1.0))
        repaired = pg.psd_repair(rep.theta, margin=margin)
        same = np.array_equal(pg.hard_assign(rep.theta, grid),
                              pg.hard_assign(repaired, grid))
        repair_identical = repair_identical and same
        mono = pg.coeffs_to_basis(repaired, pg.MONOMIAL)
        lam = pg.sym2x2_eigvals(pg.theta_to_apd(mono).anisotropy)[:, 0]
        worst_floor = min(worst_floor, float(lam.min() - (margin - 1e-12)))
    ok_repair = repair_identical and worst_floor >= 0.0

    ok = ok_round and ok_repair
    criterion(8, ok,
              f"round-trip deviation {worst:.2e} (<=1e-12); psd repair labels "
              f"identical on 20 fits: {repair_identical}; eigenvalue floor margin "
              f"{worst_floor:.2e} (>=0)")


def test_criterion_9_degree_monotonicity():
    rng = np.random.default_rng(5)
    apd = random_apd(rng, 10, level=0.3)
    gm = pg.generate_apd(apd, pg.make_grid(25))
    cfg = pg.FitConfig(degree=1, eps=1e-2, max_iters=500)
    rows, reports = pg.degree_sweep(gm, [1, 2, 3, 4, 5], cfg)

    worst_pad = 0.0
    for rep, next_degree in zip(reports[:-1], (2, 3, 4, 5)):
        theta = rep.theta
        design_here = pg.assemble_design_matrix(theta.basis, gm.grid)
        basis_next = pg.DesignBasis.make(theta.basis.kind, next_degree)
        design_next = pg.assemble_design_matrix(basis_next, gm.grid)
        a = pg.objective(theta, design_here, gm, 1e-2)
        b = pg.objective(pg.zero_pad(theta, next_degree), design_next, gm, 1e-2)
        worst_pad = max(worst_pad, abs(a - b) / (1 + abs(a)))
    ok_pad = worst_pad <= 1e-12

    phis = [row.phi_final for row in rows]
    worst_drop = min(b - a for a, b in zip(phis, phis[1:]))
    ok_mono = worst_drop >= -1e-6

    ok = ok_pad and ok_mono
    criterion(9, ok,
              f"zero-pad identity drift {worst_pad:.2e} (<=1e-12); fitted phi by "
              f"degree {['%.3e' % p for p in phis]}, worst drop {worst_drop:.2e} "
              f"(>=-1e-6)")


def test_criterion_10_determinism(tmp_path, pd_recovery):
    gen = tmp_path / "gen"
    assert main(["generate", "--kind", "pd", "--n", "6", "--m", "12", "--seed", "13",
                 "--out-dir", str(gen)]) == 0
    dumps = []
    for sub in ("run1", "run2"):
        outdir = tmp_path / sub
        assert main(["fit", "--input", str(gen / "grain_map.csv"), "--degree", "1",
                     "--iters", "80", "--threads", "1", "--out-dir", str(outdir)]) == 0
        data = json.loads((outdir / "report.json").read_text())
        data.pop("timing")
        dumps.append(fileio.dumps_json(data))
    ok_bytes = dumps[0] == dumps[1]

    gm, rep = pd_recovery
    rng = np.random.default_rng(3)
    worst = 0.0
    thetas = [rep.theta.values] + [
        rng.normal(0.0, s, rep.theta.values.shape) for s in (0.3, 1.0, 3.0, 10.0, 30.0)
    ]
    design = pg.assemble_design_matrix(rep.theta.basis, gm.grid)
    for values in thetas:
        seq = evaluate_objective(values, design.values, gm.labels - 1, rep.eps,
                                 want_grad=False, threads=1, chunk_size=1024)
        par = evaluate_objective(values, design.values, gm.labels - 1, rep.eps,
                                 want_grad=False, threads=4, chunk_size=1024)
        worst = max(worst, abs(seq.phi - par.phi) / (1 + abs(seq.phi)))
    ok_parallel = worst == 0.0

    ok = ok_bytes and ok_parallel
    criterion(10, ok,
              f"byte-identical reports (timing excluded): {ok_bytes}; parallel vs "
              f"sequential phi drift {worst:.2e} (==0, bit-identical)")
