"""Command-line interface: generate, fit, render, convert, metrics.

Every command is deterministic given its flags (and seed). Exit codes:
0 success, 2 input error, 3 numerical failure, 4 I/O error, 5 resource error
(an allocation failed; the message carries the byte estimate). A JSON config
file may supply any flag of the command; explicit flags win, and a key that
names no flag is an input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys
from pathlib import Path

import numpy as np

from .basis import LEGENDRE, MONOMIAL, assemble_design_matrix, feature_count
from .conversions import (coeffs_to_basis, generate_apd, generate_pd, pd_to_theta, apd_to_theta,
                          psd_repair, theta_to_apd, theta_to_pd)
from .errors import InputFormatError, NumericalError, ResourceError
from .geometry import PhysicalAPD, PhysicalPD, make_grid, sym2x2
from .metrics import compression
from .objective import hard_assign
from .optimizer import INIT_NAMES, FitConfig, fit
from . import fileio


def _random_physical(kind: str, n: int, rng: np.random.Generator, anisotropy: float):
    """Random "pd" or "apd" parameters, drawn in the order seeds, weights, angles, strengths."""
    seeds = rng.uniform(-1.0, 1.0, size=(n, 2))
    weights = rng.uniform(0.0, 0.1, size=n)
    if kind == "pd":
        return PhysicalPD(seeds=seeds, weights=weights)
    angles = rng.uniform(0.0, np.pi, size=n)
    strengths = rng.uniform(0.5, 1.5, size=n)
    if anisotropy == 0.0:
        mats = np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
    else:
        c, s = np.cos(angles), np.sin(angles)
        with np.errstate(over="ignore", invalid="ignore"):  # PhysicalAPD rejects non-finite
            e1 = np.exp(anisotropy * strengths)
            e2 = np.exp(-anisotropy * strengths)
            mats = sym2x2(c * c * e1 + s * s * e2, c * s * (e1 - e2), s * s * e1 + c * c * e2)
    return PhysicalAPD(seeds=seeds, weights=weights, anisotropy=mats)


def cmd_generate(args) -> int:
    grid = make_grid(args.m)  # an unallocatable grid fails before any file is made
    params = _random_physical(args.kind, args.n, np.random.default_rng(args.seed),
                              args.anisotropy)
    if args.kind == "pd":
        grain_map = generate_pd(params, grid)
        theta = pd_to_theta(params)
    else:
        grain_map = generate_apd(params, grid)
        theta = apd_to_theta(params)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_grain_map_csv(out / "grain_map.csv", grain_map)
    fileio.write_physical_json(out / "ground_truth_physical.json", params)
    fileio.write_theta_csv(out / "ground_truth_theta.csv", theta)
    print(f"wrote {out / 'grain_map.csv'} ({len(grain_map)} pixels, "
          f"{grain_map.n_grains} grains)")
    return 0


def cmd_fit(args) -> int:
    grain_map = fileio.read_grain_map_csv(args.input)
    init: str | object = args.init
    if init not in INIT_NAMES:
        init = fileio.checked(init, coeffs_to_basis, fileio.read_theta_csv(init), args.basis)
    if args.threads < 1:
        raise ValueError(f"threads must be >= 1, got {args.threads}")
    config = FitConfig(degree=args.degree, basis_kind=args.basis, eps=args.eps,
                       max_iters=args.iters, init=init)
    report = fit(grain_map, config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_theta_csv(out / "theta.csv", report.theta)
    fileio.write_report_json(out / "report.json", report, theta_path="theta.csv")
    design = assemble_design_matrix(report.theta.basis, grain_map.grid)
    labels_fit = hard_assign(report.theta, grain_map.grid, design)
    del design  # the CSV writers' buffers need not wait on it
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
    convert = functools.partial(fileio.checked, args.input)  # errors name the input file
    if args.direction == "to-monomial":
        fileio.write_theta_csv(args.out, convert(coeffs_to_basis, theta, MONOMIAL))
    elif args.direction == "to-legendre":
        fileio.write_theta_csv(args.out, convert(coeffs_to_basis, theta, LEGENDRE))
    elif args.direction == "to-physical":
        mono = convert(coeffs_to_basis, theta, MONOMIAL)
        if mono.degree == 1:
            fileio.write_physical_json(args.out, theta_to_pd(mono))
        elif mono.degree == 2:
            fileio.write_physical_json(args.out, theta_to_apd(mono))
        else:
            raise InputFormatError(
                f"physical parameters exist only for degrees 1 and 2, got {mono.degree}"
            )
    else:  # psd-repair
        repaired = convert(psd_repair, theta, margin=args.margin)
        probe = make_grid(32)
        before = hard_assign(theta, probe)
        after = hard_assign(repaired, probe)
        if not np.array_equal(before, after):
            raise NumericalError("psd repair changed the induced diagram on the probe grid")
        fileio.write_theta_csv(args.out, repaired)
    print(f"wrote {args.out}")
    return 0


def _report_value(path, data, key: str):
    """Report ``data``'s value at the dotted ``key``: a finite JSON number under "final",
    else a JSON integer within 2^31 of zero, so that K_d fits an int64."""
    value = functools.reduce(operator.getitem, key.split("."), data)
    kind, bound = (float, sys.float_info.max) if key.startswith("final.") else (int, 2**31)
    if type(value) in (int, kind) and abs(value) <= bound:  # a bool is neither
        return kind(value)
    rule = "a finite JSON number" if kind is float else "a JSON integer within 2^31 of zero"
    raise InputFormatError(f"{path}: {key!r} must be {rule}, got {value!r}")


def cmd_metrics(args) -> int:
    rows = []
    for path in args.inputs:
        data = fileio.checked(path, json.loads, Path(path).read_text())
        try:
            degree, n_grains, n_pixels, *final = [_report_value(path, data, key) for key in (
                "theta.degree", "n_grains", "n_pixels", "final.phi", "final.acc", "final.err")]
        except (KeyError, TypeError) as exc:
            raise InputFormatError(
                f"{path}: not a fit report ({type(exc).__name__}: {exc})") from None
        ratio = fileio.checked(path, compression, degree, n_grains, n_pixels)
        rows.append([degree, feature_count(degree), *final, ratio])
    fileio.write_metrics_csv(args.out, rows)
    print(f"wrote {args.out}")
    return 0


def _add_generate(sub):
    p = sub.add_parser("generate", help="synthesise a grain map from a random diagram")
    p.add_argument("--kind", choices=["pd", "apd"], default="pd")
    p.add_argument("--n", type=int, default=50, help="number of grains")
    p.add_argument("--m", type=int, default=70, help="grid resolution (gives (2M)^2 pixels)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--anisotropy", type=float, default=0.5,
                   help="anisotropy level; 0 reproduces the pd output")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_generate)


def _add_fit(sub):
    p = sub.add_parser("fit", help="fit a polynomial diagram to a grain map")
    p.add_argument("--input", default="grain_map.csv", help="grain map CSV")
    p.add_argument("--degree", type=int, default=FitConfig.degree)
    p.add_argument("--basis", choices=[MONOMIAL, LEGENDRE], default=FitConfig.basis_kind)
    p.add_argument("--eps", type=float, default=FitConfig.eps)
    p.add_argument("--iters", type=int, default=FitConfig.max_iters)
    p.add_argument("--init", default=FitConfig.init,
                   help="'zero', 'heuristic', or a coefficient CSV path")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: the kernel is serial (must be >= 1)")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_fit)


def _add_render(sub):
    p = sub.add_parser("render", help="render labels or misassignment to a PPM image")
    p.add_argument("--input", default="grain_map.csv")
    p.add_argument("--mode", choices=["labels", "misassignment"], default="labels")
    p.add_argument("--out", default="out.ppm")
    p.set_defaults(func=cmd_render)


def _add_convert(sub):
    p = sub.add_parser("convert", help="coefficient/basis/physical conversions")
    p.add_argument("--input", default="theta.csv", help="coefficient CSV")
    p.add_argument("--direction",
                   choices=["to-physical", "to-monomial", "to-legendre", "psd-repair"],
                   default="to-physical")
    p.add_argument("--margin", type=float, default=None,
                   help="eigenvalue floor for psd-repair (default: scale-based)")
    p.add_argument("--out", default="converted.out")
    p.set_defaults(func=cmd_convert)


def _add_metrics(sub):
    p = sub.add_parser("metrics", help="tabulate fit reports with compression ratios")
    p.add_argument("--inputs", nargs="+", default=["report.json"], help="report JSON paths")
    p.add_argument("--out", default="metrics.csv")
    p.set_defaults(func=cmd_metrics)


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


def _apply_config(parser: argparse.ArgumentParser, args) -> None:
    """Make the values of config file ``args.config`` the defaults of the command's
    flags, keyed by flag name with dashes or underscores, so that explicit flags
    win when ``parser`` parses again."""
    try:
        file_values = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{args.config}: invalid JSON: {exc}") from exc
    if not isinstance(file_values, dict):
        raise InputFormatError(f"{args.config}: config must be a JSON object")
    sub = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    names = {name for key in actions for name in (key, key.replace("_", "-"))}
    unknown = sorted(set(file_values) - names)
    if unknown:
        raise InputFormatError(f"{args.config}: {unknown[0]!r} names no flag of "
                               f"{args.command!r}")
    for key, action in actions.items():
        name = next((k for k in (key.replace("_", "-"), key) if k in file_values), None)
        if name is not None:
            action.default = _config_value(args.config, name, file_values[name], action)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(parser, args)
            args = parser.parse_args(argv)
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
