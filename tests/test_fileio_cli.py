import json
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import polygrain as pg
from polygrain import fileio, optimizer
from polygrain.cli import main
from conftest import random_pd, random_theta


# The per-row f-string writers that the column writer replaced. The codec's
# output must stay byte-identical to them.
def _fmt(x) -> str:
    return repr(float(x))


def reference_grain_map_text(points, labels) -> str:
    lines = ["x1,x2,label"]
    for (x1, x2), lab in zip(points, labels):
        lines.append(f"{_fmt(x1)},{_fmt(x2)},{int(lab)}")
    return "\n".join(lines) + "\n"


def reference_misassignment_text(points, true_labels, fitted_labels) -> str:
    lines = ["x1,x2,label_true,label_fit"]
    for (x1, x2), t, f in zip(points, true_labels, fitted_labels):
        lines.append(f"{_fmt(x1)},{_fmt(x2)},{int(t)},{int(f)}")
    return "\n".join(lines) + "\n"


def reference_theta_text(theta) -> str:
    n = theta.n_grains
    meta = (f"# basis={theta.basis.kind},degree={theta.degree},"
            f"ordering={pg.ORDERING_CONVENTION},gauge={theta.gauge}")
    header = "alpha1,alpha2," + ",".join(f"theta_{i}" for i in range(1, n + 1))
    lines = [meta, header]
    for row, (a1, a2) in enumerate(theta.basis.indices):
        vals = ",".join(_fmt(v) for v in theta.values[row])
        lines.append(f"{a1},{a2},{vals}")
    return "\n".join(lines) + "\n"


def with_blank_lines(path, after, first):
    """Insert an empty line after each listed line number >= first (1-based)."""
    lines = path.read_text().splitlines(keepends=True)
    for i in sorted({min(max(a, first), len(lines)) for a in after}, reverse=True):
        lines.insert(i, "\n")
    path.write_text("".join(lines))


coords = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True, allow_nan=False)


@st.composite
def pixel_tables(draw):
    """Points strictly inside (-1,1)^2 and two label columns in 1..N, N <= 2^31."""
    n = draw(st.integers(2, 30))
    n_grains = draw(st.integers(2, 2 ** 31))
    points = np.array(draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n)))
    label_lists = st.lists(st.integers(1, n_grains), min_size=n, max_size=n)
    labels, fitted = np.array(draw(label_lists)), np.array(draw(label_lists))
    assume(labels.max() >= 2)
    return points, labels, fitted


@st.composite
def coefficient_tables(draw):
    basis = pg.DesignBasis(draw(st.sampled_from([pg.MONOMIAL, pg.LEGENDRE])),
                           draw(st.integers(0, 3)))
    n = draw(st.integers(2, 5))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = np.array(draw(st.lists(finite, min_size=basis.dimension * n,
                                    max_size=basis.dimension * n))).reshape(basis.dimension, n)
    gauge = draw(st.sampled_from([pg.GAUGE_FREE, pg.GAUGE_LAST_ZERO]))
    if gauge == pg.GAUGE_LAST_ZERO:
        values[:, -1] = 0.0
    return pg.ParamMatrix(values=values, basis=basis, gauge=gauge)


blank_lines = st.lists(st.integers(0, 40), max_size=4)


def edit_theta_file(src, dst, edit):
    """Copy coefficient file ``src`` to ``dst`` with one rule broken: the first
    coefficient set to ``edit`` ("nan", "inf"), the basis or gauge value unknown,
    or only one coefficient column ("columns")."""
    lines = src.read_text().splitlines()
    if edit in ("nan", "inf"):
        fields = lines[2].split(",")
        fields[2] = edit
        lines[2] = ",".join(fields)
    elif edit == "columns":
        lines[1:] = [",".join(line.split(",")[:3]) for line in lines[1:]]
    else:
        lines[0] = re.sub(f"{edit}=[^,]*", f"{edit}=bogus", lines[0])
    dst.write_text("\n".join(lines) + "\n")


class TestGrainMapCsv:
    def test_round_trip_regular_grid(self, rng, tmp_path):
        gm = pg.generate_pd(random_pd(rng, 4), pg.make_grid(5))
        path = tmp_path / "map.csv"
        fileio.write_grain_map_csv(path, gm)
        back = fileio.read_grain_map_csv(path)
        assert np.array_equal(back.labels, gm.labels)
        assert np.array_equal(back.grid.points, gm.grid.points)

    def test_round_trip_unstructured(self, rng, tmp_path):
        grid = pg.PixelGrid(points=rng.uniform(-0.9, 0.9, (11, 2)))
        gm = pg.GrainMap(grid=grid, labels=rng.integers(1, 3, 11), n_grains=2)
        path = tmp_path / "map.csv"
        fileio.write_grain_map_csv(path, gm)
        back = fileio.read_grain_map_csv(path)
        assert np.array_equal(back.grid.points, grid.points)

    def test_malformed_value_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,label\n0.1,0.2,1\n0.3,oops,2\n")
        with pytest.raises(pg.InputFormatError, match=r"row 3.*x2"):
            fileio.read_grain_map_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0.1,0.2,1\n")
        with pytest.raises(pg.InputFormatError, match="header"):
            fileio.read_grain_map_csv(path)

    @pytest.mark.parametrize("body,where", [
        ("0.1,0.2,1\n\n0.3,oops,2\n", r"row 4, column 'x2'"),
        ("0.1,0.2,1\n0.3,0.4,99999999999999999999999\n", r"row 3, column 'label'"),
        ("0.1,0.2,1\n\n0.3,0.4,0\n", r"row 4, column 'label'"),
        ("0.1,0.2,1\n\n\n0.3,0.4\n", r"row 5: expected 3 fields"),
        ("0.1,0.2,1\n0.3,0.4,2.5\n", r"row 3, column 'label'"),
        ("0.1,0.2,1\n\n0.3,0.4,1e3\n", r"row 4, column 'label'"),
        # Python's int()/float() accept these, np.loadtxt does not.
        ("0.1,0.2,1\n\n0.3,0.4,1_000\n", r"row 4, column 'label'"),
        ("0.1,0.2,1\n1_0.5,0.4,2\n", r"row 3, column 'x1'"),
        ("0.1,0.2,1\n0.3,0.4,\u0661\n", r"row 3, column 'label'"),
    ])
    def test_malformed_body_names_file_line(self, body, where, tmp_path):
        # Blank lines count: the error names the line of the file, not the
        # index of the data row.
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,label\n" + body)
        with pytest.raises(pg.InputFormatError, match=where):
            fileio.read_grain_map_csv(path)

    def test_integer_read_via_float_is_rejected(self, tmp_path, monkeypatch):
        # NumPy < 2 parses "2.5" in an int64 column as a float, stores 2 and
        # only emits a DeprecationWarning. Simulate that parser.
        real_loadtxt = np.loadtxt

        def truncating_loadtxt(fh, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            return real_loadtxt(["0.1,0.2,1", "0.3,0.4,2"], **kwargs)

        monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,label\n0.1,0.2,1\n0.3,0.4,2.5\n")
        with pytest.raises(pg.InputFormatError, match=r"row 3, column 'label'"):
            fileio.read_grain_map_csv(path)

    @pytest.mark.parametrize("body,message", [
        ("-0.5,-0.5,1\n1.5,0.5,2\n", "strictly inside"),
        ("-0.5,-0.5,1\n0.5,0.5,1\n", "at least two grains")], ids=["outside", "one-grain"])
    def test_broken_type_rule_names_the_file(self, body, message, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("x1,x2,label\n" + body)
        with pytest.raises(pg.InputFormatError, match=message) as info:
            fileio.read_grain_map_csv(path)
        assert str(info.value).startswith(f"{path}: ")


class TestThetaCsv:
    @pytest.mark.parametrize("kind,gauge", [(pg.MONOMIAL, pg.GAUGE_FREE),
                                            (pg.LEGENDRE, pg.GAUGE_LAST_ZERO)])
    def test_round_trip(self, kind, gauge, rng, tmp_path):
        theta = random_theta(rng, 3, 4, kind=kind, gauge=gauge)
        path = tmp_path / "theta.csv"
        fileio.write_theta_csv(path, theta)
        back = fileio.read_theta_csv(path)
        assert back.basis == theta.basis
        assert back.gauge == theta.gauge
        assert np.array_equal(back.values, theta.values)

    def test_metadata_line_is_self_describing(self, rng, tmp_path):
        theta = random_theta(rng, 2, 3)
        path = tmp_path / "theta.csv"
        fileio.write_theta_csv(path, theta)
        first = path.read_text().splitlines()[0]
        assert first.startswith("#")
        assert "ordering=graded-lex-a1-desc" in first
        assert "basis=legendre" in first
        assert "degree=2" in first

    def test_unknown_ordering_rejected(self, rng, tmp_path):
        theta = random_theta(rng, 1, 3)
        path = tmp_path / "theta.csv"
        fileio.write_theta_csv(path, theta)
        text = path.read_text().replace("graded-lex-a1-desc", "rowwise")
        path.write_text(text)
        with pytest.raises(pg.InputFormatError, match="ordering"):
            fileio.read_theta_csv(path)

    def test_repeated_multi_index_rejected(self, rng, tmp_path):
        theta = random_theta(rng, 1, 3)
        path = tmp_path / "theta.csv"
        fileio.write_theta_csv(path, theta)
        lines = path.read_text().splitlines()
        lines[3] = "0,1" + lines[3][3:]  # (1, 0) becomes a second (0, 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(pg.InputFormatError, match="multi-index"):
            fileio.read_theta_csv(path)

    def test_non_integer_exponent_rejected(self, rng, tmp_path):
        theta = random_theta(rng, 1, 3)
        path = tmp_path / "theta.csv"
        fileio.write_theta_csv(path, theta)
        lines = path.read_text().splitlines()
        lines[3] = "1.0" + lines[3][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(pg.InputFormatError, match=r"row 4, column 'alpha1'"):
            fileio.read_theta_csv(path)

    @pytest.mark.parametrize("edit,message", [
        ("nan", "parameter matrix contains non-finite entries"),
        ("inf", "parameter matrix contains non-finite entries"),
        ("basis", "unknown basis kind 'bogus'"),
        ("gauge", "unknown gauge 'bogus'"),
        ("columns", "at least two")])
    def test_broken_type_rule_names_the_file(self, edit, message, rng, tmp_path):
        src, path = tmp_path / "theta.csv", tmp_path / "edited.csv"
        fileio.write_theta_csv(src, random_theta(rng, 1, 3))
        edit_theta_file(src, path, edit)
        with pytest.raises(pg.InputFormatError, match=message) as info:
            fileio.read_theta_csv(path)
        assert str(info.value).startswith(f"{path}: ")


class TestCodecProperties:
    @settings(max_examples=60, deadline=None)
    @given(table=pixel_tables(), blanks=blank_lines)
    def test_grain_map_and_labels(self, table, blanks, tmp_path_factory):
        points, labels, _ = table
        grid = pg.PixelGrid(points=points)
        path = tmp_path_factory.mktemp("codec") / "map.csv"
        grain_map = pg.GrainMap(grid=grid, labels=labels, n_grains=labels.max())
        for write in (lambda: fileio.write_grain_map_csv(path, grain_map),
                      lambda: fileio.write_labels_csv(path, grid, labels)):
            write()
            assert path.read_text() == reference_grain_map_text(points, labels)
            with_blank_lines(path, blanks, first=1)
            back = fileio.read_grain_map_csv(path)
            assert back.grid.points.tobytes() == points.tobytes()
            assert np.array_equal(back.labels, labels)
            assert back.n_grains == labels.max()

    @settings(max_examples=60, deadline=None)
    @given(table=pixel_tables(), blanks=blank_lines)
    def test_misassignment(self, table, blanks, tmp_path_factory):
        points, labels, fitted = table
        path = tmp_path_factory.mktemp("codec") / "mis.csv"
        fileio.write_misassignment_csv(path, pg.PixelGrid(points=points), labels, fitted)
        assert path.read_text() == reference_misassignment_text(points, labels, fitted)
        with_blank_lines(path, blanks, first=1)
        back_points, back_true, back_fit = fileio.read_misassignment_csv(path)
        assert back_points.tobytes() == points.tobytes()
        assert np.array_equal(back_true, labels)
        assert np.array_equal(back_fit, fitted)

    @settings(max_examples=60, deadline=None)
    @given(theta=coefficient_tables(), blanks=blank_lines)
    def test_coefficients(self, theta, blanks, tmp_path_factory):
        path = tmp_path_factory.mktemp("codec") / "theta.csv"
        fileio.write_theta_csv(path, theta)
        assert path.read_text() == reference_theta_text(theta)
        with_blank_lines(path, blanks, first=2)
        back = fileio.read_theta_csv(path)
        assert back.basis == theta.basis
        assert back.gauge == theta.gauge
        assert back.values.tobytes() == theta.values.tobytes()


class TestPhysicalJson:
    def test_pd_round_trip(self, rng, tmp_path):
        pd = random_pd(rng, 5)
        path = tmp_path / "pd.json"
        fileio.write_physical_json(path, pd)
        back = fileio.read_physical_json(path)
        assert np.array_equal(back.seeds, pd.seeds)
        assert np.array_equal(back.weights, pd.weights)

    def test_apd_record_with_unrecoverable_grain(self, rng, tmp_path):
        theta = random_theta(rng, 2, 3, kind=pg.MONOMIAL, gauge=pg.GAUGE_LAST_ZERO)
        rec = pg.theta_to_apd(theta)
        path = tmp_path / "apd.json"
        fileio.write_physical_json(path, rec)
        data = json.loads(path.read_text())
        assert data["recoverable"] == [True, True, False]
        assert data["seeds"][2] is None
        assert data["anisotropy"][2] == [[0.0, 0.0], [0.0, 0.0]]

    def test_broken_type_rule_names_the_file(self, tmp_path):
        path = tmp_path / "pd.json"
        path.write_text(json.dumps({"kind": "pd", "seeds": [[0.0, 0.0]], "weights": [0.0]}))
        with pytest.raises(pg.InputFormatError, match="at least two grains") as info:
            fileio.read_physical_json(path)
        assert str(info.value).startswith(f"{path}: ")


class TestImages:
    def test_label_image_dimensions(self, rng):
        gm = pg.generate_pd(random_pd(rng, 3), pg.make_grid(4))
        img = fileio.labels_image(gm.grid.points, gm.labels)
        assert img.shape == (8, 8, 3)

    def test_misassignment_colors(self, rng):
        gm = pg.generate_pd(random_pd(rng, 3), pg.make_grid(4))
        fitted = gm.labels.copy()
        fitted[0] = fitted[0] % 3 + 1  # corrupt one pixel
        img = fileio.misassignment_image(gm.grid.points, gm.labels, fitted)
        flat = img.reshape(-1, 3)
        pink = np.all(flat == np.array(fileio.MISASSIGN_CORRECT), axis=1)
        dark = np.all(flat == np.array(fileio.MISASSIGN_WRONG), axis=1)
        assert pink.sum() == len(gm) - 1
        assert dark.sum() == 1

    def test_all_correct_uniform_pink(self, rng):
        gm = pg.generate_pd(random_pd(rng, 3), pg.make_grid(3))
        img = fileio.misassignment_image(gm.grid.points, gm.labels, gm.labels)
        assert np.all(img.reshape(-1, 3) == np.array(fileio.MISASSIGN_CORRECT))

    def test_rejects_unstructured_points(self, rng):
        pts = rng.uniform(-0.9, 0.9, (9, 2))
        with pytest.raises(ValueError, match="regular grid"):
            fileio.labels_image(pts, np.ones(9, dtype=int))

    def test_label_colour_computed_once_per_distinct_label(self, monkeypatch):
        real = fileio.label_color
        calls = []
        monkeypatch.setattr(fileio, "label_color", lambda lab: calls.append(lab) or real(lab))
        points = pg.make_grid(1).points
        labels = np.array([1, 2, 1000, 2])
        img = fileio.labels_image(points, labels)
        assert sorted(calls) == [1, 2, 1000]
        expected = np.array([real(lab) for lab in labels], dtype=np.uint8)
        assert np.array_equal(img, fileio._grid_image(points, expected))

    def test_ppm_bytes(self, tmp_path):
        img = np.zeros((2, 3, 3), dtype=np.uint8)
        img[0, 0] = (1, 2, 3)
        path = tmp_path / "img.ppm"
        fileio.write_ppm(path, img)
        data = path.read_bytes()
        assert data.startswith(b"P6\n3 2\n255\n")
        assert data[11:14] == bytes([1, 2, 3])


class TestCli:
    def test_generate_fit_render_convert_metrics(self, tmp_path):
        gen = tmp_path / "gen"
        assert main(["generate", "--kind", "pd", "--n", "6", "--m", "10",
                     "--seed", "3", "--out-dir", str(gen)]) == 0
        assert (gen / "grain_map.csv").exists()
        assert (gen / "ground_truth_physical.json").exists()
        assert (gen / "ground_truth_theta.csv").exists()

        fitdir = tmp_path / "fit"
        assert main(["fit", "--input", str(gen / "grain_map.csv"), "--degree", "1",
                     "--basis", "legendre", "--eps", "0.01", "--iters", "60",
                     "--init", "zero", "--out-dir", str(fitdir)]) == 0
        report = json.loads((fitdir / "report.json").read_text())
        assert report["final"]["err"] <= 0.2
        # every pixel's true grain has p_g0 > 1/2 before the near-optimal stop
        assert report["final"]["separated_at"] < report["final"]["iterations_run"]
        assert report["checks"]["misassignment_bound_ok"]
        kernel = report["kernel"]
        assert kernel["evaluations"] > report["final"]["iterations_run"]
        n_fitted = report["n_grains"] - report["n_empty_grains"]
        assert kernel["dense_pairs"] == kernel["evaluations"] * 400 * n_fitted
        assert 0 < kernel["pairs"] <= kernel["dense_pairs"]
        # H0 is built when the memory first holds a pair and then every
        # CURVATURE_EVERY iterations: at iterations 2, 22, 42, ...
        builds = -(-(report["final"]["iterations_run"] - 1) // optimizer.CURVATURE_EVERY)
        assert 0 < kernel["curvature_passes"] <= builds
        assert 0 <= kernel["scale_steps"] <= kernel["curvature_passes"]
        assert kernel["skipped_trials"] >= 0

        img = tmp_path / "labels.ppm"
        assert main(["render", "--input", str(gen / "grain_map.csv"),
                     "--mode", "labels", "--out", str(img)]) == 0
        assert img.read_bytes().startswith(b"P6\n20 20\n255\n")

        mis = tmp_path / "mis.ppm"
        assert main(["render", "--input", str(fitdir / "misassignment.csv"),
                     "--mode", "misassignment", "--out", str(mis)]) == 0

        phys = tmp_path / "phys.json"
        assert main(["convert", "--input", str(fitdir / "theta.csv"),
                     "--direction", "to-physical", "--out", str(phys)]) == 0
        assert json.loads(phys.read_text())["kind"] == "pd"

        table = tmp_path / "metrics.csv"
        assert main(["metrics", "--inputs", str(fitdir / "report.json"),
                     "--out", str(table)]) == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "d,K_d,phi_final,acc_final,err_final,compr"
        assert lines[1].startswith("1,3,")

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["generate", "--kind", "apd", "--n", "4", "--m", "6",
                         "--seed", "9", "--anisotropy", "0.4",
                         "--out-dir", str(out)]) == 0
        for name in ("grain_map.csv", "ground_truth_physical.json",
                     "ground_truth_theta.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_apd_level_zero_matches_pd(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--kind", "pd", "--n", "5", "--m", "8",
                     "--seed", "4", "--out-dir", str(a)]) == 0
        assert main(["generate", "--kind", "apd", "--n", "5", "--m", "8",
                     "--seed", "4", "--anisotropy", "0.0", "--out-dir", str(b)]) == 0
        assert (a / "grain_map.csv").read_bytes() == (b / "grain_map.csv").read_bytes()

    def test_fit_reports_byte_identical(self, tmp_path):
        gen = tmp_path / "gen"
        main(["generate", "--kind", "pd", "--n", "4", "--m", "8", "--seed", "1",
              "--out-dir", str(gen)])
        outs = []
        for sub in ("f1", "f2"):
            outdir = tmp_path / sub
            assert main(["fit", "--input", str(gen / "grain_map.csv"),
                         "--degree", "1", "--iters", "40", "--threads", "1",
                         "--out-dir", str(outdir)]) == 0
            data = json.loads((outdir / "report.json").read_text())
            data.pop("timing")
            outs.append(fileio.dumps_json(data))
        assert outs[0] == outs[1]

    def test_threads_flag_changes_no_byte(self, tmp_path):
        gen = tmp_path / "gen"
        assert main(["generate", "--kind", "apd", "--n", "6", "--m", "16", "--seed", "3",
                     "--out-dir", str(gen)]) == 0
        for sub, flags in (("plain", []), ("t2", ["--threads", "2"])):
            assert main(["fit", "--input", str(gen / "grain_map.csv"), "--degree", "2",
                         "--iters", "10", *flags, "--out-dir", str(tmp_path / sub)]) == 0
        for name in ("theta.csv", "labels_fit.csv", "misassignment.csv"):
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()
        reports = [json.loads((tmp_path / sub / "report.json").read_text())
                   for sub in ("plain", "t2")]
        for report in reports:
            report.pop("timing")
        assert reports[0] == reports[1]

    def test_missing_input_gives_io_exit_code(self, tmp_path):
        assert main(["fit", "--input", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path)]) == 4

    def test_bad_csv_gives_input_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,label\n0.0,0.0,zero\n")
        assert main(["fit", "--input", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_label_beyond_int64_gives_input_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,label\n0.1,0.2,1\n0.3,0.4,99999999999999999999999\n")
        assert main(["fit", "--input", str(bad), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("data,key", [({"theta": {}}, "'degree'"), ([], "not a fit report")])
    def test_report_without_key_gives_input_exit_code(self, data, key, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(data))
        assert main(["metrics", "--inputs", str(report),
                     "--out", str(tmp_path / "metrics.csv")]) == 2
        err = capsys.readouterr().err
        assert "report.json" in err and key in err

    @staticmethod
    def fit_reports(tmp_path):
        """Two reports that ``fit`` wrote: degree 1 and degree 2 on one map."""
        gen = tmp_path / "gen"
        assert main(["generate", "--kind", "apd", "--n", "5", "--m", "6", "--seed", "2",
                     "--out-dir", str(gen)]) == 0
        paths = []
        for degree in ("1", "2"):
            out = tmp_path / f"fit{degree}"
            assert main(["fit", "--input", str(gen / "grain_map.csv"), "--degree", degree,
                         "--iters", "8", "--out-dir", str(out)]) == 0
            paths.append(out / "report.json")
        return paths

    def test_metrics_table_bytes(self, tmp_path):
        # The per-row writer that the column writer replaced.
        lines = ["d,K_d,phi_final,acc_final,err_final,compr"]
        paths = self.fit_reports(tmp_path)
        for path in paths:
            data = json.loads(path.read_text())
            degree = data["theta"]["degree"]
            ratio = pg.compression(degree, data["n_grains"], data["n_pixels"])
            lines.append(",".join([str(degree), str(pg.feature_count(degree)),
                                   *(repr(data["final"][k]) for k in ("phi", "acc", "err")),
                                   repr(ratio)]))
        table = tmp_path / "metrics.csv"
        assert main(["metrics", "--inputs", *map(str, paths), "--out", str(table)]) == 0
        assert table.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("key,value", [
        ("final.phi", "abc"), ("final.phi", None), ("final.acc", True), ("final.err", [0.1]),
        ("final.err", 1e400), ("theta.degree", 2.5), ("theta.degree", True),
        ("theta.degree", 2**40), ("n_grains", 20.7), ("n_pixels", "10000"),
    ])
    def test_malformed_report_value_gives_input_exit_code(self, key, value, tmp_path, capsys):
        good, _ = self.fit_reports(tmp_path)
        data = json.loads(good.read_text())
        *outer, last = key.split(".")
        target = data[outer[0]] if outer else data
        target[last] = value
        bad = tmp_path / "bad_report.json"
        bad.write_text(json.dumps(data))
        table = tmp_path / "metrics.csv"
        assert main(["metrics", "--inputs", str(good), str(bad), "--out", str(table)]) == 2
        err = capsys.readouterr().err
        assert "bad_report.json" in err and repr(key) in err
        assert not table.exists()

    @pytest.mark.parametrize("n_pixels,tail", [(0, ""), (400, "}")], ids=["zero-pixels", "bad-json"])
    def test_report_error_names_the_report(self, n_pixels, tail, tmp_path, capsys):
        # Zero pixels fail the compression ratio's check; a trailing "}" is not JSON.
        good, _ = self.fit_reports(tmp_path)
        data = json.loads(good.read_text())
        data["n_pixels"] = n_pixels
        bad = tmp_path / "bad_report.json"
        bad.write_text(json.dumps(data) + tail)
        table = tmp_path / "metrics.csv"
        assert main(["metrics", "--inputs", str(bad), "--out", str(table)]) == 2
        assert "bad_report.json" in capsys.readouterr().err
        assert not table.exists()

    def test_design_allocation_failure_gives_resource_exit_code(self, tmp_path, capsys,
                                                                monkeypatch):
        gen = tmp_path / "gen"
        assert main(["generate", "--kind", "pd", "--n", "4", "--m", "5", "--seed", "1",
                     "--out-dir", str(gen)]) == 0

        def fail(self, points):
            raise MemoryError

        monkeypatch.setattr(pg.DesignBasis, "evaluate", fail)
        assert main(["fit", "--input", str(gen / "grain_map.csv"),
                     "--out-dir", str(tmp_path / "fit")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("resource error:") and "bytes" in err

    def test_unallocatable_grid_gives_resource_exit_code(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert main(["generate", "--m", str(10 ** 8), "--out-dir", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("resource error:") and "640000000000000000 bytes" in err
        assert not out.exists()  # nothing written, not even the directory

    def test_overflowing_anisotropy_is_one_input_error_line(self, tmp_path, capsys):
        # exp(1e3 * strength) overflows; PhysicalAPD rejects it without a numpy warning.
        # At 300 to 470 the matrices are finite, but their squared entries are not;
        # their eigenvalues square none, and generate_apd rejects them without one.
        singular = "anisotropy matrices must be positive definite; offending grains: [1, 2, 3, 4]"
        for level, message in [("1e3", "anisotropy must be finite"), ("300", singular),
                               ("400", singular), ("470", singular)]:
            out = tmp_path / f"gen{level}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["generate", "--kind", "apd", "--anisotropy", level, "--n", "4",
                             "--m", "5", "--out-dir", str(out)]) == 2
            assert [str(w.message) for w in caught] == []
            assert capsys.readouterr().err == f"input error: {message}\n"
            assert not out.exists()

    def test_render_unstructured_rejected(self, tmp_path, rng):
        grid = pg.PixelGrid(points=rng.uniform(-0.9, 0.9, (7, 2)))
        gm = pg.GrainMap(grid=grid, labels=np.ones(7, dtype=int) + np.arange(7) % 2,
                         n_grains=2)
        path = tmp_path / "unstructured.csv"
        fileio.write_grain_map_csv(path, gm)
        assert main(["render", "--input", str(path), "--mode", "labels",
                     "--out", str(tmp_path / "x.ppm")]) == 2

    def test_config_file_supplies_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "pd", "n": 4, "m": 5, "seed": 2,
                                   "out-dir": str(tmp_path / "out")}))
        assert main(["--config", str(cfg), "generate"]) == 0
        assert (tmp_path / "out" / "grain_map.csv").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "pd", "n": 4, "m": 5, "seed": 2,
                                   "out-dir": str(tmp_path / "ignored")}))
        used = tmp_path / "used"
        assert main(["--config", str(cfg), "generate", "--out-dir", str(used)]) == 0
        assert (used / "grain_map.csv").exists()
        assert not (tmp_path / "ignored").exists()

    @pytest.mark.parametrize("eps", ["nan", "inf", "5e-324"])
    def test_non_finite_eps_gives_input_exit_code(self, eps, tmp_path, capsys):
        gen = tmp_path / "gen"
        assert main(["generate", "--kind", "pd", "--n", "4", "--m", "5", "--seed", "1",
                     "--out-dir", str(gen)]) == 0
        assert main(["fit", "--input", str(gen / "grain_map.csv"), "--iters", "5",
                     "--eps", eps, "--out-dir", str(tmp_path / "fit")]) == 2
        assert "eps must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_huge_degree_in_coefficient_file_exits_quickly(self, tmp_path, capsys):
        path = tmp_path / "theta.csv"
        path.write_text("# basis=legendre,degree=1000000000,ordering=graded-lex-a1-desc,"
                        "gauge=free\nalpha1,alpha2,theta_1,theta_2\n0,0,1.0,2.0\n")
        start = time.perf_counter()
        assert main(["convert", "--input", str(path), "--direction", "to-monomial",
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert time.perf_counter() - start < 1.0
        assert "multi-index of degree 1000000000" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_init_file_gives_input_exit_code(self, value, tmp_path, capsys):
        gen, init = tmp_path / "gen", tmp_path / "init.csv"
        assert main(["generate", "--kind", "pd", "--n", "4", "--m", "5", "--seed", "1",
                     "--out-dir", str(gen)]) == 0
        edit_theta_file(gen / "ground_truth_theta.csv", init, value)
        assert main(["fit", "--input", str(gen / "grain_map.csv"), "--iters", "5",
                     "--init", str(init), "--out-dir", str(tmp_path / "fit")]) == 2
        assert f"{init}: parameter matrix contains non-finite entries" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("direction",
                             ["to-monomial", "to-legendre", "to-physical", "psd-repair"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_coefficient_file_gives_input_exit_code(self, value, direction, rng,
                                                               tmp_path, capsys):
        src, path, out = tmp_path / "theta.csv", tmp_path / "bad.csv", tmp_path / "out"
        fileio.write_theta_csv(src, random_theta(rng, 2, 3, kind=pg.MONOMIAL))
        edit_theta_file(src, path, value)
        assert main(["convert", "--input", str(path), "--direction", direction,
                     "--out", str(out)]) == 2
        assert f"{path}: parameter matrix contains non-finite entries" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def overflowing_monomial_file(path):
        """A degree-2 monomial file, finite, whose first grain's entries are all 1.5e308:
        its Legendre coefficients and anisotropy eigenvalues overflow."""
        values = np.zeros((6, 2))
        values[:, 0] = 1.5e308
        fileio.write_theta_csv(path, pg.ParamMatrix(values, pg.DesignBasis(pg.MONOMIAL, 2)))
        return path

    def test_overflowing_basis_change_names_the_file_and_bases(self, tmp_path, capsys):
        path, out = self.overflowing_monomial_file(tmp_path / "big.csv"), tmp_path / "out"
        assert main(["convert", "--input", str(path), "--direction", "to-legendre",
                     "--out", str(out)]) == 2
        assert f"{path}: basis change monomial -> legendre overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_init_file_names_the_file_and_bases(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        assert main(["generate", "--kind", "pd", "--n", "4", "--m", "5", "--seed", "1",
                     "--out-dir", str(gen)]) == 0
        init = self.overflowing_monomial_file(tmp_path / "big.csv")
        assert main(["fit", "--input", str(gen / "grain_map.csv"), "--degree", "2",
                     "--iters", "5", "--init", str(init), "--out-dir", str(tmp_path / "fit")]) == 2
        assert f"{init}: basis change monomial -> legendre overflows" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_init_file_of_another_degree_gives_input_exit_code(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        assert main(["generate", "--kind", "apd", "--n", "4", "--m", "5", "--seed", "1",
                     "--out-dir", str(gen)]) == 0
        assert main(["fit", "--input", str(gen / "grain_map.csv"), "--degree", "1",
                     "--iters", "5", "--init", str(gen / "ground_truth_theta.csv"),
                     "--out-dir", str(tmp_path / "fit")]) == 2
        assert capsys.readouterr().err == ("input error: parameter basis (legendre, d=2) does "
                                           "not match design basis (legendre, d=1)\n")
        assert not (tmp_path / "fit").exists()

    def test_overflowing_eigenvalues_are_named_by_psd_repair(self, tmp_path, capsys):
        path, out = self.overflowing_monomial_file(tmp_path / "big.csv"), tmp_path / "out"
        assert main(["convert", "--input", str(path), "--direction", "psd-repair",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: anisotropy eigenvalues of grains [1] overflow" in err
        assert "margin" not in err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_gives_input_exit_code(self, threads, tmp_path, capsys):
        gen = tmp_path / "gen"
        assert main(["generate", "--kind", "pd", "--n", "4", "--m", "5", "--seed", "1",
                     "--out-dir", str(gen)]) == 0
        assert main(["fit", "--input", str(gen / "grain_map.csv"), "--iters", "5",
                     "--threads", threads, "--out-dir", str(tmp_path / "fit")]) == 2
        assert "threads" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("values", [{"degree": "x"}, {"degree": 2.5}, {"degree": True},
                                        {"basis": "foo"}, {"eps": "small"}, {"eps": [0.1]},
                                        {"init": 3}])
    def test_bad_config_value_gives_input_exit_code(self, values, tmp_path, capsys):
        gen = tmp_path / "gen"
        assert main(["generate", "--kind", "pd", "--n", "4", "--m", "5", "--seed", "1",
                     "--out-dir", str(gen)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": str(gen / "grain_map.csv"), "iters": 5,
                                   "out-dir": str(tmp_path / "fit"), **values}))
        assert main(["--config", str(cfg), "fit"]) == 2
        err = capsys.readouterr().err
        assert "cfg.json" in err and repr(next(iter(values))) in err
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("key", ["degre", "threads_", "config", "kind"])
    def test_unknown_config_key_gives_input_exit_code(self, key, tmp_path, capsys):
        gen = tmp_path / "gen"
        assert main(["generate", "--kind", "pd", "--n", "4", "--m", "5", "--seed", "1",
                     "--out-dir", str(gen)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": str(gen / "grain_map.csv"), "iters": 3,
                                   "out-dir": str(tmp_path / "fit"), key: 3}))
        assert main(["--config", str(cfg), "fit"]) == 2
        err = capsys.readouterr().err
        assert "cfg.json" in err and repr(key) in err
        assert not (tmp_path / "fit").exists()

    def test_config_values_convert_as_flags_do(self, tmp_path):
        gen = tmp_path / "gen"
        assert main(["generate", "--kind", "pd", "--n", "4", "--m", "5", "--seed", "1",
                     "--out-dir", str(gen)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": str(gen / "grain_map.csv"), "degree": "2",
                                   "eps": 1, "iters": "5", "out_dir": str(tmp_path / "fit")}))
        assert main(["--config", str(cfg), "fit"]) == 0
        report = json.loads((tmp_path / "fit" / "report.json").read_text())
        assert report["theta"]["degree"] == 2 and report["epsilon"] == 1.0
        assert report["trajectory"]["iteration"] == [0, 1, 2, 3, 4, 5]
        for inputs in ([str(tmp_path / "fit" / "report.json")],
                       str(tmp_path / "fit" / "report.json")):
            cfg.write_text(json.dumps({"inputs": inputs, "out": str(tmp_path / "m.csv")}))
            assert main(["--config", str(cfg), "metrics"]) == 0
            assert (tmp_path / "m.csv").read_text().splitlines()[1].startswith("2,6,")

    def test_psd_repair_command(self, tmp_path, rng):
        theta = random_theta(rng, 2, 4, kind=pg.LEGENDRE, gauge=pg.GAUGE_LAST_ZERO)
        src = tmp_path / "theta.csv"
        fileio.write_theta_csv(src, theta)
        out = tmp_path / "repaired.csv"
        assert main(["convert", "--input", str(src), "--direction", "psd-repair",
                     "--margin", "0.5", "--out", str(out)]) == 0
        repaired = fileio.read_theta_csv(out)
        mono = pg.coeffs_to_basis(repaired, pg.MONOMIAL)
        lam = pg.sym2x2_eigvals(pg.theta_to_apd(mono).anisotropy)[:, 0]
        assert np.all(lam >= 0.5 - 1e-12)

    def test_generate_full_size_row_count(self, tmp_path):
        out = tmp_path / "big"
        assert main(["generate", "--kind", "pd", "--n", "50", "--m", "70",
                     "--seed", "7", "--out-dir", str(out)]) == 0
        lines = (out / "grain_map.csv").read_text().splitlines()
        assert len(lines) == 19600 + 1  # header + one row per pixel

    def test_warm_restart_not_worse(self, tmp_path):
        gen = tmp_path / "gen"
        main(["generate", "--kind", "pd", "--n", "4", "--m", "8", "--seed", "5",
              "--out-dir", str(gen)])
        first = tmp_path / "first"
        assert main(["fit", "--input", str(gen / "grain_map.csv"), "--degree", "1",
                     "--iters", "30", "--out-dir", str(first)]) == 0
        second = tmp_path / "second"
        assert main(["fit", "--input", str(gen / "grain_map.csv"), "--degree", "1",
                     "--iters", "30", "--init", str(first / "theta.csv"),
                     "--out-dir", str(second)]) == 0
        phi_first = json.loads((first / "report.json").read_text())["final"]["phi"]
        traj = json.loads((second / "report.json").read_text())["trajectory"]["phi"]
        assert traj[0] == pytest.approx(phi_first, rel=1e-12)
        assert all(b >= a for a, b in zip(traj, traj[1:]))

    def test_round_trip_fit_physical_regenerate(self, tmp_path):
        # generated diagram -> fit -> physical params -> regenerate matches the
        # fitted labels exactly
        gen = tmp_path / "gen"
        main(["generate", "--kind", "pd", "--n", "5", "--m", "10", "--seed", "8",
              "--out-dir", str(gen)])
        fitdir = tmp_path / "fit"
        assert main(["fit", "--input", str(gen / "grain_map.csv"), "--degree", "1",
                     "--iters", "300", "--out-dir", str(fitdir)]) == 0
        phys = tmp_path / "phys.json"
        assert main(["convert", "--input", str(fitdir / "theta.csv"),
                     "--direction", "to-physical", "--out", str(phys)]) == 0
        pd_back = fileio.read_physical_json(phys)
        gm = fileio.read_grain_map_csv(gen / "grain_map.csv")
        regen = pg.generate_pd(pd_back, gm.grid)
        fit_labels = fileio.read_grain_map_csv(fitdir / "labels_fit.csv")
        assert np.array_equal(regen.labels, fit_labels.labels)
