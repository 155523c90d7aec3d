"""Run one polygrain CLI command with its layer boundaries wrapped in timing spans.

Usage (from the repository root, with ``src`` first on PYTHONPATH):

    python3 benchmarks/traced.py --out spans.json -- fit --input map.csv ...

The wrappers sit on the names the callers look up, because the package uses
``from ... import`` throughout: ``polygrain.optimizer.evaluate_objective`` is
the name ``fit`` calls, not ``polygrain.objective.evaluate_objective``. A
renamed function makes the install step raise, and ``calls`` in the output
lets the caller fail a run whose wrappers were never hit. Nothing in ``src``
is modified.

After a fit, ``evaluate_objective`` is timed at the fitted parameters with the
wrappers removed, and the wrappers' own cost is estimated from a wrapped no-op.
The output JSON holds the exit code of the command, the call count of every
installed wrapper and the per-layer metrics derived from the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time
import types

# (module, attribute, span name) per command. Module names resolve through
# sys.modules: ``import polygrain.objective`` would bind the function that the
# package namespace re-exports over the module.
GENERATE_WRAPS = [
    ("polygrain.cli", "generate_pd", "geometry.generate"),
    ("polygrain.cli", "generate_apd", "geometry.generate"),
]
FIT_WRAPS = [
    ("polygrain.cli", "fit", "optimizer.fit"),
    ("polygrain.optimizer", "line_search", "optimizer.line_search"),
    ("polygrain.optimizer", "evaluate_objective", "objective.evaluate"),
    ("polygrain.objective", "argmin_labels", "geometry.argmin_labels"),
    ("polygrain.optimizer", "assemble_design_matrix", "basis.assemble"),
    ("polygrain.cli", "assemble_design_matrix", "basis.assemble"),
    ("polygrain.cli", "hard_assign", "objective.hard_assign"),
    ("polygrain.heuristics", "heuristic_theta", "heuristics.theta"),
    ("polygrain.fileio", "read_grain_map_csv", "fileio.read"),
    ("polygrain.fileio", "write_theta_csv", "fileio.write"),
    ("polygrain.fileio", "write_report_json", "fileio.write"),
    ("polygrain.fileio", "write_labels_csv", "fileio.write"),
    ("polygrain.fileio", "write_misassignment_csv", "fileio.write"),
]


class Span:
    __slots__ = ("name", "key", "parent", "start", "end", "info")

    def __init__(self, name, key, parent):
        self.name = name
        self.key = key
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Keeps every span in memory; a span opened on a worker thread gets the
    innermost span open on the main thread as its parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self.keys: list[str] = []
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        self.fit_call = None

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, module, attr, span_name, hook=None):
        original = getattr(module, attr)
        key = f"{module.__name__}.{attr}"
        self.keys.append(key)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span = Span(span_name, key, parent)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(span, args, result)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def calls(self) -> dict[str, int]:
        """Calls per installed wrapper, counted from the spans (list.append is
        atomic, a shared counter incremented from worker threads is not)."""
        counts = dict.fromkeys(self.keys, 0)
        for span in self.spans:
            counts[span.key] += 1
        return counts

    def restore(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def _file_size(span, args, result):
    span.info = os.path.getsize(args[0])


def _line_search_failed(span, args, result):
    span.info = result[1] is None


def install(tracer: Tracer, command: str) -> None:
    if command == "generate":
        wraps = GENERATE_WRAPS
    elif command == "fit":
        wraps = FIT_WRAPS
    else:
        raise SystemExit(f"traced.py: unsupported command {command!r}")

    def keep_fit(span, args, result):
        tracer.fit_call = (args[0], args[1], result)

    hooks = {"fileio.read": _file_size, "fileio.write": _file_size,
             "optimizer.line_search": _line_search_failed, "optimizer.fit": keep_fit}
    for module_name, attr, span_name in wraps:
        tracer.wrap(sys.modules[module_name], attr, span_name, hooks.get(span_name))


def _union_length(intervals, lo, hi):
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _children(spans):
    kids: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(id(span.parent), []).append(span)
    return kids


def _self_time(span, kids):
    """Duration minus the part covered by the nearest descendants of other layers."""
    foreign, todo = [], list(kids.get(id(span), []))
    while todo:
        child = todo.pop()
        if child.layer == span.layer:
            todo.extend(kids.get(id(child), []))
        else:
            foreign.append((child.start, child.end))
    return span.duration - _union_length(foreign, span.start, span.end)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    kids = _children(tracer.spans)

    def total(name):
        return sum(s.duration for s in by_name.get(name, []))

    if tracer.fit_call is None:
        return {"geometry.generate_s": total("geometry.generate")}

    _, _, report = tracer.fit_call
    evals = by_name.get("objective.evaluate", [])
    eval_total = total("objective.evaluate")
    searches = by_name.get("optimizer.line_search", [])
    writes = [s for s in by_name.get("fileio.write", [])
              if s.parent is None or s.parent.layer != s.layer]
    return {
        "geometry.argmin_labels_s": total("geometry.argmin_labels"),
        "geometry.argmin_labels_calls": len(by_name.get("geometry.argmin_labels", [])),
        "basis.assemble_s": total("basis.assemble"),
        "basis.assemble_calls": len(by_name.get("basis.assemble", [])),
        "objective.evaluate_s": sum(_self_time(s, kids) for s in evals),
        "objective.evaluate_calls": len(evals),
        "objective.evaluate_ms_p50": 1e3 * statistics.median(s.duration for s in evals),
        "objective.pixel_grains_per_s":
            len(evals) * report.n_pixels * report.n_grains / eval_total,
        "objective.hard_assign_s": total("objective.hard_assign"),
        "optimizer.self_s": sum(_self_time(s, kids) for s in by_name["optimizer.fit"]),
        "optimizer.iterations": report.iterations_run,
        "optimizer.evals_per_iter": len(evals) / max(report.iterations_run, 1),
        "optimizer.line_search_calls": len(searches),
        "optimizer.line_search_failures": sum(1 for s in searches if s.info),
        "heuristics.theta_s": total("heuristics.theta"),
        "heuristics.phi0": report.phi_traj[0],
        "heuristics.err0": report.err_traj[0],
        "fileio.read_s": total("fileio.read"),
        "fileio.bytes_read": sum(s.info for s in by_name.get("fileio.read", [])),
        "fileio.write_s": sum(s.duration for s in writes),
        "fileio.bytes_written": sum(s.info for s in writes),
    }


def _median_ms(call, min_seconds=0.25, min_reps=3, max_reps=25):
    times = []
    spent = 0.0
    while len(times) < min_reps or (spent < min_seconds and len(times) < max_reps):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return 1e3 * statistics.median(times)


def probe_metrics(tracer: Tracer) -> dict[str, float]:
    """Time one objective evaluation at the fitted parameters, outside the fit."""
    objective = sys.modules["polygrain.objective"]
    basis = sys.modules["polygrain.basis"]
    grain_map, config, report = tracer.fit_call
    design = basis.assemble_design_matrix(report.theta.basis, grain_map.grid).values
    theta = report.theta.values
    labels0 = grain_map.labels - 1

    def probe(**kwargs):
        return _median_ms(lambda: objective.evaluate_objective(
            theta, design, labels0, config.eps, **kwargs))

    full = probe(want_grad=True, want_assign=True, threads=1)
    full_t2 = probe(want_grad=True, want_assign=True, threads=2)
    return {
        "objective.probe_phi_ms": probe(want_grad=False, threads=1),
        "objective.probe_grad_ms": probe(want_grad=True, threads=1),
        "objective.probe_full_ms": full,
        "objective.probe_full_t2_ms": full_t2,
        "objective.thread_speedup": full / full_t2,
    }


def _noop():
    pass


def wrapper_overhead_s(spans: int, calls: int = 10000, reps: int = 5) -> float:
    """Estimated time the wrappers added to the command: what a wrapped no-op
    costs over a plain one, per call, times the number of spans recorded."""
    module = types.ModuleType("noop")
    module.noop = _noop
    Tracer().wrap(module, "noop", "trace.noop")

    def per_call(fn):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append((time.perf_counter() - start) / calls)
        return statistics.median(times)

    return spans * (per_call(module.noop) - per_call(_noop))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the span summary JSON")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    if not cli_args:
        parser.error("no polygrain command given")

    import polygrain.cli  # noqa: F401  (loads every module the wrappers name)

    tracer = Tracer()
    install(tracer, cli_args[0])
    code = sys.modules["polygrain.cli"].main(cli_args)
    tracer.restore()
    out = {"code": code, "calls": tracer.calls(), "metrics": {}}
    if code == 0:
        out["metrics"] = layer_metrics(tracer)
        if tracer.fit_call is not None:
            out["metrics"].update(probe_metrics(tracer))
            out["metrics"]["trace.overhead_s"] = wrapper_overhead_s(len(tracer.spans))
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
