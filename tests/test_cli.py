import json
import math
import os
import stat

import numpy as np
import pytest

import ktmix.joint
import ktmix.partition
from ktmix.cli import main
from ktmix.data import ColumnSchema, build_schema, parse_dataset
from ktmix.estimator import MixtureEstimator
from ktmix.joint import analyze_pair
from ktmix.partition import HistogramSequence


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def dataset(tmp_path, capsys):
    path = str(tmp_path / "fixture.csv")
    code, _, err = run_cli(
        capsys, "simulate",
        "--columns", "x=gaussian,u=uniform,b=bernoulli,m=mixed,y=copy:x",
        "--rows", "200", "--seed", "11", "--output", path,
    )
    assert code == 0, err
    return path


class TestSimulate:
    def test_same_seed_same_bytes(self, tmp_path, capsys):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["simulate", "--columns", "x=gaussian,y=copy:x", "--rows", "50", "--seed", "7"]
        code1, out1, _ = run_cli(capsys, *args, "--output", p1)
        code2, out2, _ = run_cli(capsys, *args, "--output", p2)
        assert code1 == code2 == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert out1.replace(p1, "") == out2.replace(p2, "")

    def test_copy_column_is_identical(self, tmp_path, capsys):
        path = str(tmp_path / "c.csv")
        run_cli(capsys, "simulate", "--columns", "x=gaussian,y=copy:x",
                "--rows", "30", "--seed", "1", "--output", path)
        _, cols = parse_dataset(path)
        assert np.array_equal(cols[0], cols[1])

    def test_copy_before_declaration_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "simulate", "--columns", "y=copy:x,x=gaussian",
                               "--rows", "10", "--seed", "1",
                               "--output", str(tmp_path / "x.csv"))
        assert code == 1
        assert "declared earlier" in err

    def test_mixed_generator_has_unit_atoms(self, tmp_path, capsys):
        path = str(tmp_path / "m.csv")
        run_cli(capsys, "simulate", "--columns", "m=mixed", "--rows", "400",
                "--seed", "3", "--output", path)
        _, cols = parse_dataset(path)
        share = np.mean(cols[0] == 1.0)
        assert 0.35 < share < 0.65


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("codelength", "--levels", "8"),
        ("density", "u", "--levels", "8", "--grid-points", "21"),
        ("indep", "x", "y", "--levels", "8", "--joint-levels", "4"),
        ("forest", "--levels", "8", "--joint-levels", "4"),
    ])
    def test_repeated_runs_byte_identical(self, dataset, capsys, argv):
        cmd = [argv[0], dataset, *argv[1:]]
        code1, out1, _ = run_cli(capsys, *cmd)
        code2, out2, _ = run_cli(capsys, *cmd)
        assert code1 == code2 == 0
        assert out1 == out2
        json.loads(out1)

    def test_output_file_matches_stdout(self, dataset, tmp_path, capsys):
        out_path = str(tmp_path / "report.json")
        code, stdout, _ = run_cli(capsys, "codelength", dataset, "--levels", "8")
        code2, _, _ = run_cli(capsys, "codelength", dataset, "--levels", "8",
                              "--output", out_path)
        assert code == code2 == 0
        assert open(out_path).read() == stdout

    def test_output_files_honour_the_umask(self, tmp_path, capsys):
        data_path, report_path = tmp_path / "s.csv", tmp_path / "report.json"
        old = os.umask(0o022)
        try:
            code, _, err = run_cli(capsys, "simulate", "--columns", "x=gaussian", "--rows", "20",
                                   "--output", str(data_path))
            assert code == 0, err
            code, _, err = run_cli(capsys, "codelength", str(data_path),
                                   "--output", str(report_path))
            assert code == 0, err
        finally:
            os.umask(old)
        for path in (data_path, report_path):
            assert stat.S_IMODE(path.stat().st_mode) == 0o644
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []


class TestCodelength:
    def test_matches_library_computation(self, dataset, capsys):
        code, out, _ = run_cli(capsys, "codelength", dataset, "--levels", "10")
        assert code == 0
        report = json.loads(out)
        names, columns = parse_dataset(dataset)
        for name, column in zip(names, columns):
            schema = build_schema(name, column)
            est = MixtureEstimator(
                HistogramSequence(schema.center, schema.scale,
                                  support=schema.measure, max_level=10),
                schema.measure,
            )
            est.observe_many(column)
            assert report["columns"][name]["codelength_bits"] == pytest.approx(
                est.codelength_bits(), abs=1e-9
            )

    def test_discrete_column_is_nonnegative(self, dataset, capsys):
        _, out, _ = run_cli(capsys, "codelength", dataset, "--levels", "10")
        report = json.loads(out)
        assert report["columns"]["b"]["codelength_bits"] >= 0


class TestSchemaRoundTrip:
    def test_schema_reuse_reproduces_report(self, dataset, tmp_path, capsys):
        code, out1, _ = run_cli(capsys, "codelength", dataset, "--levels", "8")
        assert code == 0
        schema_path = str(tmp_path / "schema.json")
        with open(schema_path, "w") as fh:
            json.dump({"columns": json.loads(out1)["schema"]}, fh)
        code2, out2, _ = run_cli(capsys, "codelength", dataset, "--levels", "8",
                                 "--schema", schema_path)
        assert code2 == 0
        assert out2 == out1

    def test_mu_sigma_overrides_land_in_schema(self, dataset, capsys):
        code, out, _ = run_cli(capsys, "codelength", dataset, "--levels", "6",
                               "--mu", "x=0.25", "--sigma", "x=2.0")
        assert code == 0
        entry = next(s for s in json.loads(out)["schema"] if s["name"] == "x")
        assert entry["center"] == 0.25
        assert entry["scale"] == 2.0

    def test_byte_order_mark_is_not_part_of_a_column_name(self, tmp_path, capsys):
        path = tmp_path / "exported.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1.5,2\n-3,4\n0.5,7\n")
        code, out, err = run_cli(capsys, "codelength", str(path), "--mu", "a=0")
        assert code == 0, err
        assert [s["name"] for s in json.loads(out)["schema"]] == ["a", "b"]


class TestIndepAndForest:
    def test_duplicated_column_decided_dependent(self, dataset, capsys):
        code, out, _ = run_cli(capsys, "indep", dataset, "x", "y",
                               "--levels", "10", "--joint-levels", "5")
        assert code == 0
        report = json.loads(out)["report"]
        assert report["decision"] == "dependent"
        assert report["log_bayes_factor"] < 0

    def test_forest_recovers_single_edge(self, dataset, capsys):
        code, out, _ = run_cli(capsys, "forest", dataset,
                               "--levels", "10", "--joint-levels", "5")
        assert code == 0
        report = json.loads(out)
        assert [e["columns"] for e in report["edges"]] == [["x", "y"]]
        by_pair = {tuple(p["columns"]): p["decision"] for p in report["pairs"]}
        assert by_pair[("x", "y")] == "dependent"
        assert by_pair[("u", "x")] == "independent"

    @pytest.mark.parametrize("depths", [(), ("--levels", "6", "--joint-levels", "8")])
    def test_forest_pairs_equal_the_library(self, dataset, capsys, depths):
        code, out, err = run_cli(capsys, "forest", dataset, *depths)
        assert code == 0, err
        report = json.loads(out)
        # the defaults, or a joint grid deeper than the marginals
        levels = {"levels": 6, "joint_levels": 8} if depths else {"levels": 16, "joint_levels": 8}
        names, columns = parse_dataset(dataset)
        data = dict(zip(names, columns))
        schemas = {s["name"]: ColumnSchema.from_config(s) for s in report["schema"]}
        assert {s.kind for s in schemas.values()} == {"discrete", "continuous", "mixed"}
        assert len(report["pairs"]) == len(names) * (len(names) - 1) // 2
        for entry in report["pairs"]:
            a, b = sorted(entry["columns"], key=names.index)  # x and y in file order
            sa, sb = schemas[a], schemas[b]
            want = analyze_pair(data[a], data[b], measure_x=sa.measure, measure_y=sb.measure,
                                center_x=sa.center, scale_x=sa.scale,
                                center_y=sb.center, scale_y=sb.scale, **levels).to_dict()
            assert entry["decision"] == want.pop("decision")
            for key, value in want.items():
                assert entry[key] == pytest.approx(value, rel=0, abs=1e-12), (a, b, key)

    def test_prior_flag_is_honored(self, dataset, capsys):
        _, out, _ = run_cli(capsys, "indep", dataset, "x", "u",
                            "--levels", "8", "--joint-levels", "4", "--prior-p", "0.25")
        assert json.loads(out)["report"]["prior_p"] == 0.25


class TestDensity:
    def test_density_report_contents(self, dataset, capsys):
        code, out, _ = run_cli(capsys, "density", dataset, "u",
                               "--levels", "8", "--grid-min", "0.1",
                               "--grid-max", "0.9", "--grid-points", "9")
        assert code == 0
        report = json.loads(out)
        assert report["grid"][0] == 0.1 and report["grid"][-1] == 0.9
        assert len(report["density"]) == 9
        assert all(d is None or d >= 0 for d in report["density"])
        assert report["state"]["n"] == 200

    def test_discrete_grid_marks_off_support_points(self, dataset, capsys):
        _, out, _ = run_cli(capsys, "density", dataset, "b",
                            "--levels", "8", "--grid-min", "0", "--grid-max", "1",
                            "--grid-points", "3")
        report = json.loads(out)
        assert report["density"][1] is None          # 0.5 is not an integer
        assert report["density"][0] is not None


    @pytest.mark.parametrize("flags, message", [
        (("--grid-min", "inf"), "--grid-min must be finite"),
        (("--grid-min=-inf",), "--grid-min must be finite"),
        (("--grid-max", "nan"), "--grid-max must be finite"),
        (("--grid-points", "-3"), "--grid-points must be at least 1"),
        (("--grid-points", "0"), "--grid-points must be at least 1"),
    ])
    def test_unusable_grid_flag_is_named(self, dataset, capsys, flags, message):
        code, out, err = run_cli(capsys, "density", dataset, "u", "--levels", "4", *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.filterwarnings("error")        # np.linspace warns when hi - lo overflows
    @pytest.mark.parametrize("rows, flags", [
        ("1\n3\n5\n", ("--grid-min=-1.7e308", "--grid-max=1.7e308")),
        ("-1.7e308\n0\n1.7e308\n", ("--sigma", "a=1")),     # the ends are the column's
    ], ids=["flags", "column-ends"])
    def test_grid_wider_than_the_largest_float_is_named(self, tmp_path, capsys, rows, flags):
        path = tmp_path / "wide.csv"
        path.write_text("a\n" + rows)
        code, out, err = run_cli(capsys, "density", str(path), "a", "--grid-points", "5", *flags)
        assert (code, out) == (1, "")
        assert err == ("error: column 'a': density grid from -1.7e+308 to 1.7e+308 is wider than "
                       "the largest float; give nearer ends with --grid-min/--grid-max\n")


class TestCustomPartition:
    def test_dyadic_partition_flag(self, dataset, tmp_path, capsys):
        levels = []
        for j in range(1, 7):
            step = 2.0 ** -j
            levels.append([i * step for i in range(1, 2**j)])
        part_path = str(tmp_path / "cuts.json")
        with open(part_path, "w") as fh:
            json.dump(levels, fh)
        # the dyadic splits belong with a [0, 1) support
        schema_path = str(tmp_path / "schema.json")
        with open(schema_path, "w") as fh:
            json.dump({"columns": [{
                "name": "u", "kind": "continuous", "center": 0.5, "scale": 0.3,
                "measure": {"variant": "lebesgue",
                            "support": {"lower": 0.0, "upper": 1.0,
                                        "lower_closed": True, "upper_closed": False}},
            }]}, fh)
        code, out, _ = run_cli(capsys, "codelength", dataset,
                               "--schema", schema_path, "--partition", f"u={part_path}")
        assert code == 0
        bits = json.loads(out)["columns"]["u"]["codelength_bits"]
        assert math.isfinite(bits)
        # uniform data against dyadic cells: codelength per sample stays small
        assert abs(bits) / 200 < 0.5

    @pytest.mark.parametrize("argv", [("forest",), ("indep", "x", "u")])
    def test_pair_commands_take_no_partition(self, dataset, tmp_path, capsys, argv):
        part_path = str(tmp_path / "bad.json")
        with open(part_path, "w") as fh:
            json.dump([[0.5], [0.25, 0.75]], fh)
        with pytest.raises(SystemExit) as info:
            main([argv[0], dataset, *argv[1:], "--partition", f"u={part_path}"])
        assert info.value.code == 2
        assert "--partition" in capsys.readouterr().err

    def test_broken_partition_rejected(self, dataset, tmp_path, capsys):
        part_path = str(tmp_path / "bad.json")
        with open(part_path, "w") as fh:
            json.dump([[0.5], [0.25, 0.75]], fh)  # level 2 drops the 0.5 cut
        code, _, err = run_cli(capsys, "codelength", dataset,
                               "--partition", f"u={part_path}")
        assert code == 1
        assert "refinement" in err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestStrictJson:
    @pytest.mark.parametrize("argv", [
        ("codelength", "--levels", "8"),
        ("codelength", "--levels", "1"),  # both levels of x have cells of infinite mass
        ("density", "b", "--levels", "8", "--grid-points", "5"),  # level 0 of a counting column dies
        ("indep", "x", "y", "--levels", "8", "--joint-levels", "4"),
        ("forest", "--levels", "8", "--joint-levels", "4"),
    ])
    def test_reports_parse_strictly(self, dataset, capsys, argv):
        code, out, err = run_cli(capsys, argv[0], dataset, *argv[1:])
        assert code == 0, err
        json.loads(out, parse_constant=_reject_constant)

    def test_simulate_summary_parses_strictly(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "simulate", "--columns", "x=gaussian", "--rows", "5",
                                 "--seed", "2", "--output", str(tmp_path / "s.csv"))
        assert code == 0, err
        json.loads(out, parse_constant=_reject_constant)

    def test_dead_values_are_null_and_flagged(self, dataset, capsys):
        _, out, _ = run_cli(capsys, "codelength", dataset, "--levels", "1")
        column = json.loads(out)["columns"]["x"]
        assert column == {"codelength_bits": None, "bits_per_sample": None, "dead": True}
        _, out, _ = run_cli(capsys, "density", dataset, "b", "--levels", "8", "--grid-points", "5")
        levels = json.loads(out)["state"]["levels"]
        dead = [level for level in levels if level.get("dead")]
        assert dead and all(level["log_density"] is None for level in dead)
        live = [level for level in levels if "dead" not in level]
        assert live and all(math.isfinite(level["log_density"]) for level in live)


def _assert_cut_error_names_column_and_flags(tmp_path, capsys, rows, flags, reason, command):
    """Run command on the rows of columns t,u (default: jittered timestamps in t) and check
    that the histogram cut-point error names column t and the flags that mend it."""
    if rows is None:
        rng = np.random.default_rng(0)
        t, u = 1.7e9 + rng.normal(0.0, 1e-3, 50), rng.standard_normal(50)
        rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), u.tolist()))
    path = tmp_path / "ts.csv"
    path.write_text("t,u\n" + rows)
    columns = {"density": ("t",), "indep": ("t", "u")}.get(command, ())
    code, _, err = run_cli(capsys, command, str(path), *columns, *flags)
    levels = "--levels/--joint-levels" if command in ("indep", "forest") else "--levels"
    assert code == 1
    assert err == (f"error: column 't': histogram cut points {reason}; give another scale "
                   f"with --sigma t=VALUE or fewer levels with {levels}\n")


def _out_of_memory(*args, **kwargs):
    raise MemoryError


class TestErrors:
    def test_unknown_column(self, dataset, capsys):
        code, _, err = run_cli(capsys, "indep", dataset, "x", "nope")
        assert code == 1
        assert "nope" in err

    def test_unknown_override_column(self, dataset, capsys):
        code, _, err = run_cli(capsys, "codelength", dataset, "--mu", "nope=3")
        assert code == 1
        assert "nope" in err

    def test_bad_flag_value(self, dataset, capsys):
        code, _, err = run_cli(capsys, "codelength", dataset, "--mu", "x")
        assert code == 1
        assert "COL=VALUE" in err

    def test_invalid_prior(self, dataset, capsys):
        code, _, err = run_cli(capsys, "indep", dataset, "x", "y", "--prior-p", "1.5")
        assert code == 1
        assert "prior-p" in err

    def test_seed_is_a_simulate_flag_only(self, dataset, capsys):
        with pytest.raises(SystemExit):
            main(["codelength", dataset, "--seed", "1"])

    @pytest.mark.parametrize("argv", [
        ("codelength",), ("forest",), ("indep", "x", "u"), ("density", "u"),
    ])
    def test_value_outside_the_schema_support_names_row_and_column(
            self, dataset, tmp_path, capsys, argv):
        schema_path = str(tmp_path / "schema.json")
        with open(schema_path, "w") as fh:
            json.dump({"columns": [{
                "name": "u", "kind": "continuous", "center": 0.25, "scale": 0.1,
                "measure": {"variant": "lebesgue",
                            "support": {"lower": 0.0, "upper": 0.5,
                                        "lower_closed": True, "upper_closed": False}},
            }]}, fh)
        _, columns = parse_dataset(dataset)
        u = columns[1]
        first = int(np.flatnonzero(u >= 0.5)[0])
        code, _, err = run_cli(capsys, argv[0], dataset, *argv[1:], "--schema", schema_path)
        assert code == 1
        assert err == (f"error: {dataset}: value {float(u[first])!r} lies outside the support "
                       f"at row {first + 2}, column 'u'\n")

    @pytest.mark.parametrize("text, where", [
        ('[{"name": "u"}]', "column entry 0: missing key 'kind'"),
        ('{"cols": []}', "expected a list of column entries"),
        ('{"columns": 5}', "expected a list of column entries"),
        ('[{"name": "u", "kind": "continuous", "center": 0.5, "scale": 0.3, '
         '"measure": {"variant": "sum"}}]', "column entry 0: missing key 'parts'"),
        ('[{"name": "u", "kind": "continuous", "center": null, "scale": 0.3, '
         '"measure": {"variant": "lebesgue"}}]', "column entry 0: float() argument"),
        ('[5]', "column entry 0: "),
        ('[{"name": "u", "kind": "continuous", "center": 0.5, "scale": 0.3, "measure": 5}]',
         "column entry 0: 'int' object has no attribute 'get'"),
        ('[{"name": "u", "kind": "continuous", "center": 1' + "0" * 400 + ', "scale": 0.3, '
         '"measure": {"variant": "lebesgue"}}]', "column entry 0: int too large"),
    ], ids=["no-kind", "no-columns-key", "columns-not-a-list", "sum-without-parts",
            "null-center", "entry-not-an-object", "measure-not-an-object", "center-overflows"])
    def test_malformed_schema_file_names_file_and_entry(self, dataset, tmp_path, capsys,
                                                        text, where):
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(text)
        code, _, err = run_cli(capsys, "codelength", dataset, "--schema", str(schema_path))
        assert code == 1
        assert err.startswith(f"error: --schema {schema_path}: {where}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", ['{"columns": [', "", "[1, 2,]"])
    def test_schema_file_that_is_not_json_names_flag_and_file(self, dataset, tmp_path, capsys,
                                                               text):
        schema_path = tmp_path / "bad.json"
        schema_path.write_text(text)
        code, _, err = run_cli(capsys, "codelength", dataset, "--schema", str(schema_path))
        assert code == 1
        assert err.startswith(f"error: --schema {schema_path}: not valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", ["5", "null", "[[0.5], {}]", "[[0.5"])
    def test_malformed_partition_file_names_its_column(self, dataset, tmp_path, capsys, text):
        part_path = tmp_path / "cuts.json"
        part_path.write_text(text)
        code, _, err = run_cli(capsys, "codelength", dataset, "--partition", f"u={part_path}")
        assert code == 1
        assert err.startswith("error: custom partition for 'u': ")
        assert err.count("\n") == 1

    def test_schema_file_that_is_not_utf8_names_flag_and_file(self, dataset, tmp_path, capsys):
        schema_path = tmp_path / "bad.json"
        schema_path.write_bytes(b"\xff\xfe{}")
        code, _, err = run_cli(capsys, "codelength", dataset, "--schema", str(schema_path))
        assert code == 1
        assert err == (f"error: --schema {schema_path}: not valid JSON: 'utf-8' codec can't "
                       "decode byte 0xff in position 0: invalid start byte\n")

    def test_partition_file_that_is_not_utf8_names_flag_and_file(self, dataset, tmp_path,
                                                                 capsys):
        part_path = tmp_path / "badp.json"
        part_path.write_bytes(b"\xff[[0.5]]")
        code, _, err = run_cli(capsys, "codelength", dataset, "--partition", f"u={part_path}")
        assert code == 1
        assert err == (f"error: --partition u={part_path}: not valid JSON: 'utf-8' codec can't "
                       "decode byte 0xff in position 0: invalid start byte\n")

    @pytest.mark.filterwarnings("error")        # numpy warns when a cut overflows
    @pytest.mark.parametrize("rows, flags, reason", [
        # t = 1.7e9 s with millisecond jitter: by level 14 the cuts are closer
        # than float64 spacing there.
        (None, (), "at level 14 must be strictly increasing"),
        # A center of 1e308: the cuts collapse first, or the midpoints overflow.
        ("1,2\n3,4\n5,1\n", ("--mu", "t=1e308", "--sigma", "t=1"),
         "at level 2 must be strictly increasing"),
        ("1,2\n3,4\n5,1\n", ("--mu", "t=1e308", "--sigma", "t=1e300"), "must be finite"),
    ], ids=["timestamps", "overflow", "overflow-to-inf"])
    @pytest.mark.parametrize("command", ["codelength", "density", "indep", "forest"])
    def test_histogram_cuts_that_collapse_or_overflow_name_column_and_flags(
            self, tmp_path, capsys, rows, flags, reason, command):
        _assert_cut_error_names_column_and_flags(tmp_path, capsys, rows, flags, reason, command)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["indep", "forest"])
    def test_joint_depth_cuts_that_collapse_name_column_and_flags(self, tmp_path, capsys,
                                                                  command):
        # The marginal depth 4 is fine; the joint-depth partition of the
        # timestamp column collapses at level 14, while the column is fitted
        # and before any pair is scored.
        _assert_cut_error_names_column_and_flags(
            tmp_path, capsys, None, ("--levels", "4", "--joint-levels", "20"),
            "at level 14 must be strictly increasing", command)

    @pytest.mark.parametrize("command", ["codelength", "density", "indep", "forest"])
    def test_levels_that_exhaust_memory_name_column_and_flags(
            self, dataset, capsys, monkeypatch, command):
        # Stands in for a depth like --levels 40, whose cut arrays cannot be
        # allocated; nothing that large is allocated here.
        monkeypatch.setattr(ktmix.partition, "_universal_cuts", _out_of_memory)
        columns = {"density": ("x",), "indep": ("x", "u")}.get(command, ())
        code, _, err = run_cli(capsys, command, dataset, *columns)
        levels = "--levels/--joint-levels" if command in ("indep", "forest") else "--levels"
        assert code == 1
        assert err == (f"error: column 'x': the histogram levels do not fit in memory; "
                       f"give fewer levels with {levels}\n")

    @pytest.mark.parametrize("argv", [("forest",), ("indep", "x", "u")])
    def test_joint_grid_that_exhausts_memory_names_pair_and_flag(
            self, dataset, capsys, monkeypatch, argv):
        monkeypatch.setattr(ktmix.joint, "JointEstimator", _out_of_memory)
        code, _, err = run_cli(capsys, argv[0], dataset, *argv[1:])
        assert code == 1
        assert err == ("error: columns 'x' and 'u': the joint grid does not fit in memory; "
                       "give fewer levels with --joint-levels\n")

    @pytest.mark.parametrize("text, flags, message", [
        ("a,b\n1e300,2\n-1e300,3\n4,1\n", (),
         "column 'a': histogram scale inf is not positive and finite; "
         "give one with --sigma a=VALUE"),
        ("a,b\n1.7e308,2\n1.7e308,3\n", (),
         "column 'a': histogram center inf is not finite; give one with --mu a=VALUE"),
        ("a,b\n1,2\n3,4\n", ("--mu", "a=inf"),
         "column 'a': histogram center inf is not finite; give one with --mu a=VALUE"),
        ("a,b\n1,2\n3,4\n", ("--sigma", "b=0"),
         "column 'b': histogram scale 0.0 is not positive and finite; "
         "give one with --sigma b=VALUE"),
    ])
    @pytest.mark.parametrize("command", ["codelength", "forest"])
    def test_unusable_center_or_scale_names_column_and_flag(
            self, tmp_path, capsys, text, flags, message, command):
        path = tmp_path / "wide.csv"
        path.write_text(text)
        code, _, err = run_cli(capsys, command, str(path), *flags)
        assert code == 1
        assert err == f"error: {message}\n"

    def test_a_given_scale_mends_an_overflowing_one(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("a,b\n1e300,2\n-1e300,3\n4,1\n")
        code, _, err = run_cli(capsys, "codelength", str(path), "--sigma", "a=1")
        assert code == 0, err

    def test_missing_cell_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.csv"
        path.write_text("a,b\n1.0,\n")
        code, _, err = run_cli(capsys, "codelength", str(path))
        assert code == 1
        assert "row 2, column 'b'" in err

    def test_invalid_utf8_names_its_row(self, tmp_path, capsys):
        path = tmp_path / "broken.csv"
        path.write_bytes(b"a,b\n1.0,2.0\n\xff1,3\n")
        code, _, err = run_cli(capsys, "codelength", str(path))
        assert code == 1
        assert err == f"error: {path}: row 3 is not valid UTF-8\n"

    @pytest.mark.parametrize("argv", [("forest",), ("indep", "a", "b")])
    def test_collapsed_joint_names_its_pair(self, tmp_path, capsys, argv):
        # b = a^2 reaches 10.3 scale units from its mean, past the bounded
        # cells of the default joint depth 8 (center +- 7 scale).
        a = np.random.default_rng(0).standard_normal(4096)
        path = tmp_path / "square.csv"
        path.write_text("a,b\n" + "".join(f"{float(v)!r},{float(v * v)!r}\n" for v in a))
        code, _, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 1
        assert err.startswith("error: columns 'a' and 'b': the joint estimator collapsed "
                              "to zero density on this data: ")
        assert "center ± (joint_levels - 1)·scale" in err
        assert "--joint-levels" in err
        code, _, err = run_cli(capsys, argv[0], str(path), *argv[1:], "--joint-levels", "12")
        assert code == 0, err
