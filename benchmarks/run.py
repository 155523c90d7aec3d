"""Benchmark of `polygrain fit`: wall time, time to an accuracy target and memory.

Run from the repository root; the package is used from ``src`` as it is, with
nothing installed:

    python3 benchmarks/run.py --workload pd-recovery --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 10 --trace 1

Every program step is a separate ``python -m polygrain.cli`` process, as a user
runs it. Set-up generates the workload's grain map. The measured loop then
repeats, until ``--seconds`` have passed, one full-budget fit and re-runs of
the same fit stopped at ``--iters k``, where k is the first recorded iteration
whose error meets the workload's target. Set-up is timed again before every
fit, so that ``setup_s`` and ``setup_rss_mb`` are medians over launches spread
across the run. Every repetition is checked; a failed one counts in
``failed`` and its timings are left out of the medians.

``--trace 1`` instead runs set-up and the fit once each under
``benchmarks/traced.py``, which wraps the package's layer functions in spans,
and prints the per-layer metrics listed in ``BENCHMARK.json``.

The grain map of a workload is fixed by its map seed. The fit is sensitive to
rounding: four label-permuted and rotated copies of the pd-recovery map reach
the target at iterations 462 to 580 and end with errors 1e-4 to 1e-3, so a
map drawn from ``--seed`` would make the time-to-target and accuracy figures
differ from seed to seed by more than any useful bound. ``--seed`` therefore
only orders the fits of the second and later repetitions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full result set,
with the environment it was measured in, goes to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"

# A run must exit within 180 s; processes still running at this point are killed.
RUN_DEADLINE_S = 170.0
# Set-up launches before each fit. The host's speed changes in phases of
# 10-30 s; launches of 0.2 s taken in one burst would all land in one phase.
SETUP_PER_FIT = 2
IMPORT_REPEATS = 3
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    grains: int
    m: int
    anisotropy: float
    map_seed: int
    degree: int
    init: str
    iters: int
    threads: int
    target: float
    # Re-runs to target per repetition. On the 10^4-pixel maps a re-run costs a
    # fifth of the full fit, so three of them steady time_to_target_s cheaply;
    # on many-grains it costs half, and one is all a run has time for.
    reruns: int


WORKLOADS = {w.name: w for w in [
    Workload("pd-recovery", "pd", 20, 50, 0.0, 11, 1, "zero", 2000, 1, 0.005, 3),
    Workload("apd-heuristic", "apd", 20, 50, 0.3, 23, 2, "heuristic", 2000, 1, 0.01, 3),
    Workload("many-grains", "apd", 200, 200, 0.3, 5, 2, "heuristic", 20, 2, 0.05, 1),
]}

# Exact for a given map and program, but moved by any change that reorders a
# floating-point sum (see the module docstring), so they carry no bound:
# reported with the end-to-end metrics and again as per-layer metrics.
OUTCOME = {
    "iters_to_target": "count",
    "err_final": "fraction",
    "phi_final": "nats/pixel",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed set-up)."""


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    log: Path


@dataclass
class Runner:
    """Launches program processes one at a time and enforces the run deadline."""

    work: Path
    deadline: float
    launched: int = 0

    def run(self, argv: list[str], label: str) -> Proc:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError(f"run deadline reached before {label}")
        self.launched += 1
        log = self.work / f"{self.launched:03d}-{label}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                    stderr=subprocess.STDOUT)
            try:
                code, usage = _wait(proc, remaining)
            except BaseException:
                # Interrupted (SIGINT, or SIGTERM via main): leave no child behind.
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                raise
            wall = time.perf_counter() - start
        # ru_maxrss of this child alone (KiB on Linux); RUSAGE_CHILDREN would
        # report the largest child so far, i.e. generate's peak for every fit.
        return Proc(code, wall, usage.ru_maxrss / 1024.0, log)

    def cli(self, args: list[str], label: str) -> Proc:
        return self.run([sys.executable, "-m", "polygrain.cli", *args], label)


def _wait(proc: subprocess.Popen, timeout: float):
    """Wait for the child and return its exit code and rusage; kill it at the timeout.

    The child is waited for with WNOWAIT first, so the timer can never signal a
    pid that was already reaped and reused.
    """
    lock = threading.Lock()
    exited = False

    def kill():
        with lock:
            if not exited:
                proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            exited = True
    finally:
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def generate_args(w: Workload, out_dir: Path) -> list[str]:
    return ["generate", "--kind", w.kind, "--n", str(w.grains), "--m", str(w.m),
            "--seed", str(w.map_seed), "--anisotropy", repr(w.anisotropy),
            "--out-dir", str(out_dir)]


def fit_args(w: Workload, grain_csv: Path, iters: int, out_dir: Path) -> list[str]:
    return ["fit", "--input", str(grain_csv), "--degree", str(w.degree),
            "--basis", "legendre", "--eps", "0.01", "--iters", str(iters),
            "--init", w.init, "--threads", str(w.threads), "--out-dir", str(out_dir)]


def read_labels(csv_path: Path) -> list[int]:
    """The label column of a grain-map CSV (header ``x1,x2,label``)."""
    with open(csv_path) as fh:
        next(fh)
        return [int(line.split(",")[2]) for line in fh if line.strip()]


def first_at_target(report: dict, target: float) -> int | None:
    traj = report["trajectory"]
    return next((it for it, err in zip(traj["iteration"], traj["err"]) if err <= target),
                None)


def check_fit(proc: Proc, out_dir: Path, true_labels: list[int],
              target: float) -> tuple[dict | None, list[str]]:
    """Output checks of one fit process; returns its report and the failures."""
    if proc.code != 0:
        return None, [f"exit code {proc.code}: {proc.log.read_text()[-500:]!r}"]
    problems = []
    report = json.loads((out_dir / "report.json").read_text())
    checks = report["checks"]
    if not checks["misassignment_bound_ok"]:
        problems.append("checks.misassignment_bound_ok is false")
    if not checks["energy_bound_ok"]:
        problems.append("checks.energy_bound_ok is false")
    if checks["gauge_residual"] != 0:
        problems.append(f"gauge_residual {checks['gauge_residual']} != 0")
    fitted = read_labels(out_dir / "labels_fit.csv")
    if len(fitted) != len(true_labels):
        problems.append(f"labels_fit.csv has {len(fitted)} rows, input has {len(true_labels)}")
    else:
        mismatch = sum(a != b for a, b in zip(fitted, true_labels)) / len(true_labels)
        # final.err is 1 - correct/n, which may round differently from mismatches/n.
        if abs(mismatch - report["final"]["err"]) > 1e-12:
            problems.append(f"labels_fit.csv mismatch rate {mismatch!r} != final.err "
                            f"{report['final']['err']!r}")
    if first_at_target(report, target) is None:
        problems.append(f"error target {target} not reached")
    return report, problems


def check_prefix(full: dict, short: dict, k: int) -> list[str]:
    """The re-run stopped at k must repeat the full run's trajectory exactly."""
    problems = []
    for key, values in short["trajectory"].items():
        if values != full["trajectory"][key][: k + 1]:
            problems.append(f"trajectory.{key} of the --iters {k} re-run differs from "
                            f"the full run's first {k + 1} entries")
    return problems


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    units: dict[str, str] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)


def _generated(proc: Proc, out_dir: Path) -> Path:
    if proc.code != 0:
        raise BenchError(f"polygrain generate failed with exit code {proc.code}: "
                         f"{proc.log.read_text()[-2000:]}")
    return out_dir / "grain_map.csv"


def setup(runner: Runner, w: Workload, outcome: Outcome) -> Path:
    """Generate the workload's grain map and record the launch's time and peak RSS.

    The first launch writes the map the fits read. A later one only times
    set-up again, and must write the same bytes.
    """
    times = outcome.samples.setdefault("setup_s", [])
    gen_dir = runner.work / f"gen{len(times)}"
    proc = runner.cli(generate_args(w, gen_dir), "generate")
    grain_csv, first = _generated(proc, gen_dir), runner.work / "gen0" / "grain_map.csv"
    if grain_csv != first:
        if grain_csv.read_bytes() != first.read_bytes():
            raise BenchError("polygrain generate wrote different maps for the same seed")
        shutil.rmtree(gen_dir)
    times.append(proc.wall_s)
    outcome.samples.setdefault("setup_rss_mb", []).append(proc.rss_mb)
    return first


def measure(runner: Runner, w: Workload, grain_csv: Path, seconds: float,
            seed: int, outcome: Outcome) -> None:
    """Repeat (full fit, re-runs to target) until ``seconds`` have been spent."""
    true_labels = read_labels(grain_csv)
    order = random.Random(seed)
    samples = {"fit_s": [], "peak_rss_mb": [], "time_to_target_s": []}
    reference = None
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        outcome.attempted += 1
        rep = outcome.attempted
        problems: list[str] = []
        full, shorts = None, []
        # The first repetition must run the full fit first to learn k.
        steps = ["full"] + ["short"] * w.reruns
        if reference is not None:
            order.shuffle(steps)
        for i, step in enumerate(steps):
            for _ in range(SETUP_PER_FIT):
                setup(runner, w, outcome)
            out_dir = runner.work / f"fit{rep}-{i}"
            if step == "full":
                full = runner.cli(fit_args(w, grain_csv, w.iters, out_dir), f"fit{rep}-{i}")
                full_report, found = check_fit(full, out_dir, true_labels, w.target)
                problems += found
                if found:
                    break
                if reference is None:
                    reference = full_report
                elif full_report["trajectory"] != reference["trajectory"]:
                    problems.append("full-budget trajectory differs between repetitions")
            else:
                k = first_at_target(reference, w.target)
                # --iters must be positive; a start that already meets the target
                # is timed as a one-iteration fit.
                shorts.append(runner.cli(fit_args(w, grain_csv, max(k, 1), out_dir),
                                         f"ttt{rep}-{i}"))
                short_report, found = check_fit(shorts[-1], out_dir, true_labels, w.target)
                problems += found
                if not found:
                    problems += check_prefix(reference, short_report, max(k, 1))
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            outcome.failed += 1
            outcome.problems += [f"repetition {rep}: {p}" for p in problems]
        else:
            samples["fit_s"].append(full.wall_s)
            samples["time_to_target_s"] += [p.wall_s for p in shorts]
            # Every fit samples the same peak: with --threads 2 it varies by 20%
            # from run to run, with how the thread pool's freed buffers land.
            samples["peak_rss_mb"] += [p.rss_mb for p in [full, *shorts]]
        now = time.perf_counter()
        if now - start >= seconds or now + (now - rep_start) > runner.deadline:
            break
    outcome.samples.update(samples)
    if reference is not None:
        outcome.metrics.update({
            "iters_to_target": first_at_target(reference, w.target),
            "err_final": reference["final"]["err"],
            "phi_final": reference["final"]["phi"],
        })


def run_untraced(runner: Runner, w: Workload, seconds: float, seed: int,
                 end_to_end: dict[str, str]) -> Outcome:
    outcome = Outcome()
    grain_csv = setup(runner, w, outcome)
    measure(runner, w, grain_csv, seconds, seed, outcome)
    for name, values in outcome.samples.items():
        if values:
            outcome.metrics[name] = statistics.median(values)
    outcome.units = {**end_to_end, **OUTCOME}
    return outcome


def declared_metrics(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def required_wrappers(w: Workload, calls: dict[str, int]) -> list[str]:
    skip = {"polygrain.cli.generate_apd" if w.kind == "pd" else "polygrain.cli.generate_pd"}
    if w.init != "heuristic":
        skip.add("polygrain.heuristics.heuristic_theta")
    return [key for key in calls if key not in skip]


def run_traced(runner: Runner, w: Workload, per_layer: dict[str, str]) -> Outcome:
    outcome = Outcome(attempted=1)

    def traced(command: str, args: list[str]) -> Proc:
        return runner.run([sys.executable, str(BENCH_DIR / "traced.py"), "--out",
                           str(runner.work / f"{command}-spans.json"), "--", *args],
                          f"{command}-traced")

    gen_dir, fit_dir = runner.work / "gen0", runner.work / "fit-traced"
    grain_csv = _generated(traced("generate", generate_args(w, gen_dir)), gen_dir)
    true_labels = read_labels(grain_csv)
    fit = traced("fit", fit_args(w, grain_csv, w.iters, fit_dir))
    report, problems = check_fit(fit, fit_dir, true_labels, w.target)

    metrics: dict[str, float] = {}
    for command in ("generate", "fit"):
        path = runner.work / f"{command}-spans.json"
        if not path.exists():
            problems.append(f"{path.name} was not written")
            continue
        spans = json.loads(path.read_text())
        metrics.update(spans["metrics"])
        calls = spans["calls"]
        for key in required_wrappers(w, calls):
            if calls[key] == 0:
                problems.append(f"wrapper {key} recorded no calls in {path.name}")

    imports = [runner.run([sys.executable, "-c", "import polygrain.cli"], "import")
               for _ in range(IMPORT_REPEATS)]
    if any(p.code != 0 for p in imports):
        problems.append("python -c 'import polygrain.cli' failed")
    metrics["cli.import_s"] = statistics.median(p.wall_s for p in imports)
    if report is not None:
        metrics["optimizer.iters_to_target"] = first_at_target(report, w.target)
        metrics["optimizer.err_final"] = report["final"]["err"]
        metrics["optimizer.phi_final"] = report["final"]["phi"]

    missing = [name for name in per_layer if metrics.get(name) is None]
    if missing and not problems:
        problems.append(f"per-layer metrics missing: {', '.join(missing)}")
    if problems:
        outcome.failed = 1
        outcome.problems = problems
    outcome.metrics = {name: metrics[name] for name in per_layer if name in metrics}
    outcome.units = per_layer
    return outcome


def _sha256_tree(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    # Exported checkouts carry no .git; never report an enclosing repository's HEAD.
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "src_sha256": _sha256_tree(SRC),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "workload": w.name,
        "seed": seed,
        "map_seed": w.map_seed,
        "seconds": seconds,
        "trace": int(trace),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 declared: dict[str, str]) -> dict:
    env = environment(w, seed, seconds, trace)
    work = WORK_ROOT / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work=work, deadline=time.perf_counter() + RUN_DEADLINE_S)
    try:
        if trace:
            outcome = run_traced(runner, w, declared)
        else:
            outcome = run_untraced(runner, w, seconds, seed, declared)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    print(f"{w.name}: {'traced' if trace else 'untraced'} run, seed {seed}, map seed {w.map_seed}")
    print(f"  environment {json.dumps(env, sort_keys=True)}")
    for name, unit in outcome.units.items():
        if name in outcome.metrics:
            print(f"  {name:32s} {_fmt(outcome.metrics[name]):>14s} {unit}")
    print(f"  {'fail_rate':32s} {_fmt(outcome.failed / outcome.attempted):>14s} "
          f"failed/attempted ({outcome.failed}/{outcome.attempted})")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")

    result = {
        "correct": outcome.failed == 0 and all(n in outcome.metrics for n in declared),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in declared.items() if name in outcome.metrics},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {**result, "environment": env, "problems": outcome.problems,
              "samples": outcome.samples,
              "all_metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                              for name, unit in outcome.units.items()
                              if name in outcome.metrics}}
    path = RESULTS_DIR / f"{w.name}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of `polygrain fit`")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the timed launches; recorded with the results")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure repetitions until this much time has passed")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "polygrain" / "cli.py").is_file():
        print(f"error: {SRC / 'polygrain'} not found; run from a polygrain checkout",
              file=sys.stderr)
        return 2
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            results.append(run_workload(WORKLOADS[name], args.seed, args.seconds,
                                        bool(args.trace), declared))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
