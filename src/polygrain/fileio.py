"""File formats: grain-map CSV, coefficient CSV, report JSON, physical JSON, PPM.

All text outputs are deterministic: floats are written with ``repr`` (shortest
round-trip form) and JSON keys are sorted, so identical runs produce
byte-identical files. Timing information lives under a separate "timing" key
in report JSON so consumers can exclude it when comparing runs.

Every CSV table has one writer, which formats each column at once, and one
reader, which parses the body with one ``np.loadtxt`` call (no quoting; blank
lines skipped). A malformed table raises ``InputFormatError`` naming the file
line ("row") and the column of the first bad field; labels are int64, >= 1.
The readers leave every other rule to the type they build, whose ValueError
becomes an ``InputFormatError`` naming the file.

Grain-map CSV:      header ``x1,x2,label``; one row per pixel. Fitted labels
                    and ``x1,x2,label_true,label_fit`` misassignment tables
                    are written the same way.
Coefficient CSV:    one ``# key=value`` metadata line (basis, degree, ordering,
                    gauge), then header ``alpha1,alpha2,theta_1..theta_N``.
Metrics CSV:        header ``d,K_d,phi_final,acc_final,err_final,compr``, a row a report.
Physical JSON:      seeds/weights (and row-major 2x2 anisotropy for degree 2).
Images:             binary PPM (P6).
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from colorsys import hsv_to_rgb
from pathlib import Path

import numpy as np

from .basis import DesignBasis, GAUGE_FREE, ORDERING_CONVENTION, ParamMatrix
from .conversions import APDRecovery
from .errors import InputFormatError
from .geometry import GrainMap, PhysicalAPD, PhysicalPD, PixelGrid
from .optimizer import FitReport

MISASSIGN_CORRECT = (250, 218, 221)
MISASSIGN_WRONG = (40, 40, 40)

# Column kinds, by the dtype they parse to; a label must also be >= 1.
_DTYPES = {"number": np.float64, "integer": np.int64, "label": np.int64}
_GRAIN_MAP = {"x1": "number", "x2": "number", "label": "label"}
_MISASSIGNMENT = {"x1": "number", "x2": "number", "label_true": "label", "label_fit": "label"}
_METRICS = {"d": "integer", "K_d": "integer", "phi_final": "number", "acc_final": "number",
            "err_final": "number", "compr": "number"}
_ROWS_PER_WRITE = 1 << 14  # bounds the Python strings alive at once


def _theta_columns(n_grains: int) -> dict[str, str]:
    return {"alpha1": "integer", "alpha2": "integer",
            **{f"theta_{i}": "number" for i in range(1, n_grains + 1)}}


def _write_table(path, columns: dict[str, str], values, preamble=()) -> None:
    """Write the header and one row per entry of ``values`` (one array per column)."""
    arrays = [np.asarray(v, dtype=_DTYPES[kind]) for v, kind in zip(values, columns.values())]
    with open(path, "w") as fh:
        fh.write("\n".join([*preamble, ",".join(columns)]) + "\n")
        for lo in range(0, len(arrays[0]), _ROWS_PER_WRITE):
            texts = [_texts(a[lo:lo + _ROWS_PER_WRITE], kind)
                     for kind, a in zip(columns.values(), arrays)]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def _texts(block: np.ndarray, kind: str) -> list[str]:
    """The text of each entry; a value repeated in the block is formatted once.

    Values are told apart by their int64 bit pattern: ``np.unique`` of the
    floats would merge -0.0 into 0.0.
    """
    fmt = repr if kind == "number" else str
    distinct, inverse = np.unique(block.view(np.int64), return_inverse=True)
    texts = np.array(list(map(fmt, distinct.view(block.dtype).tolist())), dtype=object)
    return texts[inverse].tolist()


def _read_table(path, columns: dict[str, str], skip: int = 0) -> np.ndarray:
    """The rows after the header as a structured array, one field per column.

    ``skip`` lines precede the header. The lines are scanned one by one only
    when ``np.loadtxt`` fails or a label is below 1, to name the bad field.
    """
    with open(path) as fh:
        header = next(itertools.islice(fh, skip, None), "")
        if [h.strip() for h in header.split(",")] != list(columns):
            raise InputFormatError(
                f"{path}: expected header {','.join(columns)!r}, got {header.strip()!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a header without rows
                warnings.simplefilter("error", DeprecationWarning)  # NumPy < 2 reads 2.5 as 2
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=1,
                                   dtype=[(name, _DTYPES[kind]) for name, kind in columns.items()])
        except (ValueError, DeprecationWarning) as exc:
            raise _first_bad_field(path, columns, skip + 2) from exc
    if any(np.any(table[name] < 1) for name, kind in columns.items() if kind == "label"):
        raise _first_bad_field(path, columns, skip + 2)
    return table


def _first_bad_field(path, columns: dict[str, str], first_line: int) -> InputFormatError:
    with open(path) as fh:
        for i, line in enumerate(itertools.islice(fh, first_line - 1, None), start=first_line):
            fields = line.rstrip("\n").split(",")
            if fields == [""]:
                continue
            if len(fields) != len(columns):
                return InputFormatError(
                    f"{path}: row {i}: expected {len(columns)} fields, got {len(fields)}")
            for text, (name, kind) in zip(fields, columns.items()):
                try:
                    if not text.isascii() or "_" in text:  # np.loadtxt rejects these
                        raise ValueError(text)
                    value = float(text) if kind == "number" else int(text)
                    ok = kind == "number" or (-2**63 <= value < 2**63
                                              and (kind == "integer" or value >= 1))
                except ValueError:
                    ok = False
                if not ok:
                    return InputFormatError(
                        f"{path}: row {i}, column {name!r}: not a valid {kind}: {text!r}")
    return InputFormatError(f"{path}: malformed table")  # only if numpy rejects what Python parses


def checked(path, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, its ValueError an ``InputFormatError`` naming ``path``."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


def write_grain_map_csv(path, grain_map: GrainMap) -> None:
    write_labels_csv(path, grain_map.grid, grain_map.labels)


def write_labels_csv(path, grid: PixelGrid, labels: np.ndarray) -> None:
    _write_table(path, _GRAIN_MAP, [grid.points[:, 0], grid.points[:, 1], labels])


def write_misassignment_csv(path, grid: PixelGrid, true_labels: np.ndarray,
                            fitted_labels: np.ndarray) -> None:
    _write_table(path, _MISASSIGNMENT,
                 [grid.points[:, 0], grid.points[:, 1], true_labels, fitted_labels])


def write_metrics_csv(path, rows) -> None:
    _write_table(path, _METRICS, list(zip(*rows)))


def read_grain_map_csv(path) -> GrainMap:
    """Read a grain map; the grain count is the largest label present."""
    table = _read_table(path, _GRAIN_MAP)
    if len(table) < 2:
        raise InputFormatError(f"{path}: need at least two pixels")
    grid = checked(path, PixelGrid, points=np.column_stack([table["x1"], table["x2"]]))
    return checked(path, GrainMap, grid=grid, labels=table["label"],
                   n_grains=int(table["label"].max()))


def read_misassignment_csv(path):
    table = _read_table(path, _MISASSIGNMENT)
    return np.column_stack([table["x1"], table["x2"]]), table["label_true"], table["label_fit"]


def write_theta_csv(path, theta: ParamMatrix) -> None:
    meta = (f"# basis={theta.basis.kind},degree={theta.degree},"
            f"ordering={ORDERING_CONVENTION},gauge={theta.gauge}")
    alphas = np.array(theta.basis.indices).T
    _write_table(path, _theta_columns(theta.n_grains), [*alphas, *theta.values.T],
                 preamble=[meta])


def read_theta_csv(path) -> ParamMatrix:
    with open(path) as fh:
        first, header = fh.readline(), fh.readline()
    if not first.startswith("#"):
        raise InputFormatError(f"{path}: missing '# basis=...' metadata line")
    items = [item.split("=", 1) for item in first[1:].strip().split(",")]
    if any(len(item) != 2 for item in items):
        raise InputFormatError(f"{path}: malformed metadata line {first.strip()!r}")
    meta = {key.strip(): value.strip() for key, value in items}
    try:
        degree = int(meta.get("degree", ""))
    except ValueError:
        raise InputFormatError(f"{path}: bad degree {meta.get('degree')!r}") from None
    if meta.get("ordering") != ORDERING_CONVENTION:
        raise InputFormatError(f"{path}: ordering {meta.get('ordering')!r} not supported "
                               f"(expected {ORDERING_CONVENTION!r})")
    basis = checked(path, DesignBasis, meta.get("basis"), degree)
    n = header.count(",") - 1
    table = _read_table(path, _theta_columns(n), skip=1)
    alphas = list(zip(table["alpha1"].tolist(), table["alpha2"].tolist()))
    # The row count goes first: enumerating the indices of a huge degree exhausts memory.
    if len(alphas) != basis.dimension or sorted(alphas) != sorted(basis.indices):
        raise InputFormatError(
            f"{path}: expected one row per multi-index of degree {degree}, got {alphas}")
    values = np.empty((basis.dimension, n))
    rows = [basis.position(a) for a in alphas]
    for j in range(n):
        values[rows, j] = table[f"theta_{j + 1}"]
    return checked(path, ParamMatrix, values=values, basis=basis,
                   gauge=meta.get("gauge", GAUGE_FREE))


def report_to_dict(report: FitReport, theta_path: str | None = None) -> dict:
    """JSON-ready report; wall clock lives under 'timing' so runs stay comparable."""
    return {
        "epsilon": float(report.eps),
        "n_grains": int(report.n_grains),
        "n_empty_grains": int(report.n_empty_grains),
        "n_pixels": int(report.n_pixels),
        "final": {
            "phi": float(report.phi_final),
            "acc": float(report.acc_final),
            "err": float(report.err_final),
            "iterations_run": int(report.iterations_run),
            "stop_reason": report.stop_reason,
        },
        "trajectory": {
            "iteration": [int(i) for i in report.iters],
            "phi": [float(v) for v in report.phi_traj],
            "err": [float(v) for v in report.err_traj],
            "energy_zero": [float(v) for v in report.e0_traj],
        },
        "checks": {
            "gauge_residual": float(report.gauge_residual),
            "design_spans": bool(report.design_spans),
            "misassignment_bound_ok": bool(report.bound_phi_err_ok),
            "energy_bound_ok": bool(report.bound_energy_ok),
        },
        "kernel": {
            "evaluations": int(report.evaluations),
            "pairs": int(report.kernel_pairs),
            "curvature_passes": int(report.curvature_passes),
            "dense_pairs": int(report.evaluations) * int(report.n_pixels)
            * (int(report.n_grains) - int(report.n_empty_grains)),
        },
        "theta": {
            "basis": report.theta.basis.kind,
            "degree": int(report.theta.degree),
            "gauge": report.theta.gauge,
            "path": theta_path,
        },
        "timing": {"wall_clock_s": float(report.wall_clock_s)},
    }


def write_report_json(path, report: FitReport, theta_path: str | None = None) -> None:
    Path(path).write_text(dumps_json(report_to_dict(report, theta_path)))


def dumps_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def physical_to_dict(params: PhysicalPD | PhysicalAPD | APDRecovery) -> dict:
    """JSON-ready parameters; a non-finite seed or weight (an unrecoverable grain) is None."""
    rec = {"seeds": [[float(a), float(b)] if np.isfinite(a) and np.isfinite(b) else None
                     for a, b in params.seeds],
           "weights": [float(w) if np.isfinite(w) else None for w in params.weights]}
    if isinstance(params, PhysicalPD):
        return {"kind": "pd", **rec}
    recoverable = getattr(params, "recoverable", np.ones(params.n_grains, dtype=bool))
    rec["kind"] = "apd"
    rec["recoverable"] = [bool(r) for r in recoverable]
    rec["anisotropy"] = [[[float(m[0, 0]), float(m[0, 1])],
                          [float(m[1, 0]), float(m[1, 1])]] for m in params.anisotropy]
    return rec


def write_physical_json(path, params) -> None:
    Path(path).write_text(dumps_json(physical_to_dict(params)))


def read_physical_json(path):
    data = json.loads(Path(path).read_text())
    kind = data.get("kind")
    if kind == "pd":
        return checked(path, PhysicalPD, seeds=np.asarray(data["seeds"], dtype=float),
                       weights=np.asarray(data["weights"], dtype=float))
    if kind == "apd":
        if any(s is None for s in data["seeds"]):
            raise InputFormatError(f"{path}: contains unrecoverable grains")
        return checked(path, PhysicalAPD, seeds=np.asarray(data["seeds"], dtype=float),
                       weights=np.asarray(data["weights"], dtype=float),
                       anisotropy=np.asarray(data["anisotropy"], dtype=float))
    raise InputFormatError(f"{path}: unknown physical parameter kind {kind!r}")


def grid_indices(points: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(M, k1, k2) pixel indices of a regular grid, in any row order.

    Raises ValueError for unstructured point sets; rendering needs a grid.
    """
    n = points.shape[0]
    side = math.isqrt(n)
    if side * side != n or side % 2 != 0:
        raise ValueError("not a regular grid: pixel count is not an even square")
    m = side // 2
    k1 = np.rint((points[:, 0] + 1.0) * m + 0.5).astype(int)
    k2 = np.rint((points[:, 1] + 1.0) * m + 0.5).astype(int)
    expected1 = -1.0 + (k1 - 0.5) / m
    expected2 = -1.0 + (k2 - 0.5) / m
    ok = (
        (k1 >= 1) & (k1 <= side) & (k2 >= 1) & (k2 <= side)
        & (np.abs(points[:, 0] - expected1) <= 1e-9)
        & (np.abs(points[:, 1] - expected2) <= 1e-9)
    )
    if not ok.all():
        raise ValueError("not a regular grid: coordinates do not sit on pixel centres")
    flat = (k1 - 1) * side + (k2 - 1)
    if np.unique(flat).size != n:
        raise ValueError("not a regular grid: duplicate pixels")
    return m, k1, k2


def label_color(label: int) -> tuple[int, int, int]:
    """Deterministic colour for a grain label (golden-angle hue stepping)."""
    hue = (label * 0.6180339887498949) % 1.0
    sat = 0.55 + 0.25 * ((label * 7) % 3) / 2.0
    val = 0.95 - 0.25 * ((label * 13) % 4) / 3.0
    r, g, b = hsv_to_rgb(hue, sat, val)
    return int(round(255 * r)), int(round(255 * g)), int(round(255 * b))


def _grid_image(points: np.ndarray, colours: np.ndarray) -> np.ndarray:
    """(2M, 2M, 3) uint8 image of a regular grid, pixel i painted ``colours[i]``;
    x2 increases upwards."""
    m, k1, k2 = grid_indices(points)
    img = np.zeros((2 * m, 2 * m, 3), dtype=np.uint8)
    img[2 * m - k2, k1 - 1] = colours
    return img


def labels_image(points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each pixel in its grain's ``label_color``, computed once per distinct label."""
    distinct, inverse = np.unique(labels, return_inverse=True)
    colours = np.array([label_color(lab) for lab in distinct.tolist()], dtype=np.uint8)
    return _grid_image(points, colours[inverse])


def misassignment_image(points: np.ndarray, true_labels: np.ndarray,
                        fitted_labels: np.ndarray) -> np.ndarray:
    """Correctly assigned pixels in MISASSIGN_CORRECT, the others in MISASSIGN_WRONG."""
    correct = (true_labels == fitted_labels)[:, None]
    return _grid_image(points, np.where(correct, np.array(MISASSIGN_CORRECT, dtype=np.uint8),
                                        np.array(MISASSIGN_WRONG, dtype=np.uint8)))


def write_ppm(path, image: np.ndarray) -> None:
    """Binary PPM (P6) writer for (H, W, 3) uint8 images."""
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError("image must be (H, W, 3) uint8")
    h, w = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())
