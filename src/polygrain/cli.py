"""Command-line interface: generate, fit, render, convert, metrics.

Every command is deterministic given its flags (and seed). Exit codes:
0 success, 2 input error, 3 numerical failure, 4 I/O error, 5 resource error
(an allocation failed; the message carries the byte estimate). A JSON config
file may supply any flag of the command; explicit flags win, and a key that
names no flag is an input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .basis import LEGENDRE, MONOMIAL, assemble_design_matrix, feature_count
from .conversions import (coeffs_to_basis, generate_apd, generate_pd, pd_to_theta, apd_to_theta,
                          psd_repair, theta_to_apd, theta_to_pd)
from .errors import InputFormatError, NumericalError, ResourceError
from .geometry import PhysicalAPD, PhysicalPD, make_grid
from .metrics import compression
from .objective import hard_assign
from .optimizer import FitConfig, fit
from . import fileio


def _random_physical(kind: str, n: int, seed: int, anisotropy: float):
    rng = np.random.default_rng(seed)
    seeds = rng.uniform(-1.0, 1.0, size=(n, 2))
    weights = rng.uniform(0.0, 0.1, size=n)
    if kind == "pd":
        return PhysicalPD(seeds=seeds, weights=weights)
    angles = rng.uniform(0.0, np.pi, size=n)
    strengths = rng.uniform(0.5, 1.5, size=n)
    if anisotropy == 0.0:
        mats = np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
    else:
        e1 = np.exp(anisotropy * strengths)
        e2 = np.exp(-anisotropy * strengths)
        c, s = np.cos(angles), np.sin(angles)
        mats = np.empty((n, 2, 2))
        mats[:, 0, 0] = c * c * e1 + s * s * e2
        mats[:, 0, 1] = c * s * (e1 - e2)
        mats[:, 1, 0] = mats[:, 0, 1]
        mats[:, 1, 1] = s * s * e1 + c * c * e2
    return PhysicalAPD(seeds=seeds, weights=weights, anisotropy=mats)


def cmd_generate(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = _random_physical(args.kind, args.n, args.seed, args.anisotropy)
    grid = make_grid(args.m)
    if args.kind == "pd":
        grain_map = generate_pd(params, grid)
        theta = pd_to_theta(params)
    else:
        grain_map = generate_apd(params, grid)
        theta = apd_to_theta(params)
    fileio.write_grain_map_csv(out / "grain_map.csv", grain_map)
    fileio.write_physical_json(out / "ground_truth_physical.json", params)
    fileio.write_theta_csv(out / "ground_truth_theta.csv", theta)
    print(f"wrote {out / 'grain_map.csv'} ({len(grain_map)} pixels, "
          f"{grain_map.n_grains} grains)")
    return 0


def cmd_fit(args) -> int:
    grain_map = fileio.read_grain_map_csv(args.input)
    init: str | object = args.init
    if init not in ("zero", "heuristic"):
        theta0 = fileio.read_theta_csv(init)
        init = coeffs_to_basis(theta0, args.basis)
    config = FitConfig(degree=args.degree, basis_kind=args.basis, eps=args.eps,
                       max_iters=args.iters, memory=args.memory, init=init,
                       record_every=args.record_every, threads=args.threads)
    report = fit(grain_map, config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_theta_csv(out / "theta.csv", report.theta)
    fileio.write_report_json(out / "report.json", report, theta_path="theta.csv")
    design = assemble_design_matrix(report.theta.basis, grain_map.grid)
    labels_fit = hard_assign(report.theta, grain_map.grid, design)
    fileio.write_labels_csv(out / "labels_fit.csv", grain_map.grid, labels_fit)
    fileio.write_misassignment_csv(out / "misassignment.csv", grain_map.grid,
                                   grain_map.labels, labels_fit)
    print(f"fit degree={args.degree} basis={args.basis}: "
          f"phi={report.phi_final:.6g} err={report.err_final:.6g} "
          f"({report.iterations_run} iterations, {report.stop_reason})")
    return 0


def cmd_render(args) -> int:
    if args.mode == "labels":
        grain_map = fileio.read_grain_map_csv(args.input)
        image = fileio.labels_image(grain_map.grid.points, grain_map.labels)
    else:
        points, true_labels, fitted = fileio.read_misassignment_csv(args.input)
        image = fileio.misassignment_image(points, true_labels, fitted)
    fileio.write_ppm(args.out, image)
    print(f"wrote {args.out} ({image.shape[1]}x{image.shape[0]})")
    return 0


def cmd_convert(args) -> int:
    theta = fileio.read_theta_csv(args.input)
    if args.direction == "to-monomial":
        fileio.write_theta_csv(args.out, coeffs_to_basis(theta, MONOMIAL))
    elif args.direction == "to-legendre":
        fileio.write_theta_csv(args.out, coeffs_to_basis(theta, LEGENDRE))
    elif args.direction == "to-physical":
        mono = coeffs_to_basis(theta, MONOMIAL)
        if mono.degree == 1:
            fileio.write_physical_json(args.out, theta_to_pd(mono))
        elif mono.degree == 2:
            fileio.write_physical_json(args.out, theta_to_apd(mono))
        else:
            raise InputFormatError(
                f"physical parameters exist only for degrees 1 and 2, got {mono.degree}"
            )
    else:  # psd-repair
        repaired = psd_repair(theta, margin=args.margin)
        probe = make_grid(32)
        before = hard_assign(theta, probe)
        after = hard_assign(repaired, probe)
        if not np.array_equal(before, after):
            raise NumericalError("psd repair changed the induced diagram on the probe grid")
        fileio.write_theta_csv(args.out, repaired)
    print(f"wrote {args.out}")
    return 0


def cmd_metrics(args) -> int:
    lines = ["d,K_d,phi_final,acc_final,err_final,compr"]
    for path in args.inputs:
        data = json.loads(Path(path).read_text())
        try:
            degree = int(data["theta"]["degree"])
            final = [data["final"][key] for key in ("phi", "acc", "err")]
            ratio = compression(degree, int(data["n_grains"]), int(data["n_pixels"]))
        except (KeyError, TypeError) as exc:
            raise InputFormatError(
                f"{path}: not a fit report ({type(exc).__name__}: {exc})") from None
        lines.append(",".join([str(degree), str(feature_count(degree)),
                               *map(repr, [*final, ratio])]))
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return 0


def _add_generate(sub):
    p = sub.add_parser("generate", help="synthesise a grain map from a random diagram")
    p.add_argument("--kind", choices=["pd", "apd"], default=None)
    p.add_argument("--n", type=int, default=None, help="number of grains")
    p.add_argument("--m", type=int, default=None, help="grid resolution (gives (2M)^2 pixels)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--anisotropy", type=float, default=None,
                   help="anisotropy level; 0 reproduces the pd output")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_generate,
                   defaults={"kind": "pd", "n": 50, "m": 70, "seed": 0,
                             "anisotropy": 0.5, "out_dir": "."})


def _add_fit(sub):
    p = sub.add_parser("fit", help="fit a polynomial diagram to a grain map")
    p.add_argument("--input", default=None, help="grain map CSV")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--basis", choices=[MONOMIAL, LEGENDRE], default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--memory", type=int, default=None)
    p.add_argument("--init", default=None,
                   help="'zero', 'heuristic', or a coefficient CSV path")
    p.add_argument("--record-every", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="threads over pixel chunks; every count gives the same bits")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_fit,
                   defaults={"input": "grain_map.csv", "degree": 1, "basis": LEGENDRE,
                             "eps": 1e-2, "iters": 1000, "memory": 10, "init": "zero",
                             "record_every": 1, "threads": 1, "out_dir": "."})


def _add_render(sub):
    p = sub.add_parser("render", help="render labels or misassignment to a PPM image")
    p.add_argument("--input", default=None)
    p.add_argument("--mode", choices=["labels", "misassignment"], default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_render,
                   defaults={"input": "grain_map.csv", "mode": "labels",
                             "out": "out.ppm"})


def _add_convert(sub):
    p = sub.add_parser("convert", help="coefficient/basis/physical conversions")
    p.add_argument("--input", default=None, help="coefficient CSV")
    p.add_argument("--direction",
                   choices=["to-physical", "to-monomial", "to-legendre", "psd-repair"],
                   default=None)
    p.add_argument("--margin", type=float, default=None,
                   help="eigenvalue floor for psd-repair (default: scale-based)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_convert,
                   defaults={"input": "theta.csv", "direction": "to-physical",
                             "margin": None, "out": "converted.out"})


def _add_metrics(sub):
    p = sub.add_parser("metrics", help="tabulate fit reports with compression ratios")
    p.add_argument("--inputs", nargs="+", default=None, help="report JSON paths")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_metrics,
                   defaults={"inputs": ["report.json"], "out": "metrics.csv"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polygrain",
        description="fit polynomial minimisation diagrams to labelled grain maps",
    )
    parser.add_argument("--config", default=None,
                        help="JSON file supplying flag values; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_generate, _add_fit, _add_render, _add_convert, _add_metrics):
        add(sub)
    for p in sub.choices.values():
        p.set_defaults(actions={a.dest: a for a in p._actions})
    return parser


def _config_value(path, key, value, action, item=False):
    """A config file's ``value`` for ``key``, converted and checked as argparse does the flag."""
    if action.nargs == "+" and not item:
        items = value if isinstance(value, list) and value else [value]
        return [_config_value(path, key, v, action, item=True) for v in items]
    kind = action.type or str
    accepted = (str, int, float) if kind is float else (str, kind)
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise InputFormatError(f"{path}: {key!r} must be {kind.__name__}, got {value!r}")
    try:
        value = kind(value)
    except (ValueError, OverflowError):
        raise InputFormatError(f"{path}: {key!r}: invalid {kind.__name__}: {value!r}") from None
    if action.choices is not None and value not in action.choices:
        raise InputFormatError(f"{path}: {key!r}: {value!r} is not one of {action.choices}")
    return value


def _apply_config(args) -> None:
    file_values = {}
    if args.config:
        try:
            file_values = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{args.config}: invalid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise InputFormatError(f"{args.config}: config must be a JSON object")
        names = {name for key in args.defaults for name in (key, key.replace("_", "-"))}
        unknown = sorted(set(file_values) - names)
        if unknown:
            raise InputFormatError(f"{args.config}: {unknown[0]!r} names no flag of "
                                   f"{args.command!r}")
    for key, fallback in args.defaults.items():
        if getattr(args, key, None) is None:
            name = next((k for k in (key.replace("_", "-"), key) if k in file_values), None)
            setattr(args, key, fallback if name is None else
                    _config_value(args.config, name, file_values[name], args.actions[key]))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except (InputFormatError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
