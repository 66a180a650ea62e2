import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ktmix import data as data_module
from ktmix.data import (
    ColumnSchema,
    DatasetError,
    _parse_cells,
    _parse_table,
    build_schema,
    parse_dataset,
)
from ktmix.measure import CountingMeasure, LebesgueMeasure, SumMeasure


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseDataset:
    def test_two_float_columns(self, tmp_path):
        path = write(tmp_path, "a,b\n1.5,2.0\n-0.25,3e-1\n")
        names, cols = parse_dataset(path)
        assert names == ["a", "b"]
        assert np.allclose(cols[0], [1.5, -0.25])
        assert np.allclose(cols[1], [2.0, 0.3])

    def test_blank_cell_names_the_location(self, tmp_path):
        path = write(tmp_path, "a,b\n1.0,2.0\n3.0,\n")
        with pytest.raises(DatasetError, match=r"row 3, column 'b'"):
            parse_dataset(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "a\n1.0\noops\n")
        with pytest.raises(DatasetError, match=r"'oops' at row 3, column 'a'"):
            parse_dataset(path)

    def test_non_finite_cell(self, tmp_path):
        path = write(tmp_path, "a\nnan\n")
        with pytest.raises(DatasetError, match="non-finite"):
            parse_dataset(path)

    def test_duplicate_column_names(self, tmp_path):
        path = write(tmp_path, "a,a\n1,2\n")
        with pytest.raises(DatasetError, match="duplicate column name 'a'"):
            parse_dataset(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DatasetError, match="empty file"):
            parse_dataset(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "a,b\n")
        with pytest.raises(DatasetError, match="no data rows"):
            parse_dataset(path)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(DatasetError, match="row 3 has 1 cells"):
            parse_dataset(path)


class TestVectorizedReader:
    def test_well_formed_file_is_read_in_one_pass(self, tmp_path):
        rng = np.random.default_rng(3)
        values = np.column_stack([rng.standard_normal(500), rng.integers(0, 3, 500),
                                  np.full(500, -0.0), rng.random(500) * 1e-310])
        lines = [",".join(repr(float(v)) for v in row) for row in values]
        lines[7] = " 1.5 ,\t2, -0 ,3e-1"          # padded cells parse as float() does
        path = write(tmp_path, "a,b,c,d\n" + "\n".join(lines))   # no final newline
        fast = _parse_table(path)
        assert fast is not None
        names, columns = _parse_cells(path)
        assert fast[0] == names == ["a", "b", "c", "d"]
        for got, want in zip(fast[1], columns):
            assert got.dtype == want.dtype and got.flags.c_contiguous
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("text, error", [
        ("a,b\r\n1,2\r\n3,4\r\n", None),
        (b"a,b\n1.0,2.0\n\xff1,3\n", r"row 3 is not valid UTF-8"),
        ("a\n1\n\n2\n", r"missing value at row 3, column 'a'"),
        ("a,b\n\n", r"row 2 has 1 cells, expected 2"),
        ("a\n1\x0c\n", r"missing value at row 3, column 'a'"),
        ("a\n1\u2028\n", r"missing value at row 3, column 'a'"),
        ("a\n1_000\n", None),
        ("a,b\n1,inf\n", r"non-finite value 'inf' at row 2, column 'b'"),
        ("a,b\n1,2,\n", r"row 2 has 3 cells, expected 2"),
    ])
    @pytest.mark.filterwarnings("error")        # loadtxt warns on a file of blank lines
    def test_other_files_go_to_the_cell_reader(self, tmp_path, text, error):
        path = tmp_path / "data.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        assert _parse_table(str(path)) is None
        if error is None:
            names, columns = parse_dataset(str(path))
            want = _parse_cells(str(path))
            assert names == want[0]
            assert [c.tolist() for c in columns] == [c.tolist() for c in want[1]]
        else:
            with pytest.raises(DatasetError, match=error):
                parse_dataset(str(path))

    @pytest.mark.parametrize("block_bytes", [1, 2, 3, 5, 8, 13, 64])
    @pytest.mark.filterwarnings("error")        # loadtxt warns on a block of blank lines
    def test_every_block_boundary(self, tmp_path, monkeypatch, block_bytes):
        # Tiny blocks put a block boundary at every position of these files.
        monkeypatch.setattr(data_module, "_BLOCK_BYTES", block_bytes)
        good = "a,b\n1.5,2\n-3,4e-1\n 5 ,6\n7,8"
        path = write(tmp_path, good)
        names, columns = _parse_table(path)
        want = _parse_cells(path)
        assert names == want[0]
        assert [c.tolist() for c in columns] == [c.tolist() for c in want[1]]
        for bad in ("a,b\n1,2\n\n3,4\n", "a,b\n1,2\n3,4\n\n", "a,b\n1,2\n3,4\r\n",
                    "a,b\n1,2\n3\u2028,4\n", "a,b\n1,2\n3\n", "a,b\n1,2\n3,x\n"):
            path = tmp_path / "bad.csv"
            path.write_bytes(bad.encode("utf-8"))
            assert _parse_table(str(path)) is None, bad

    @pytest.mark.filterwarnings("error")
    def test_ascii_blocks_still_catch_the_ascii_line_breaks(self, tmp_path, monkeypatch):
        # A non-ASCII header makes the first block non-ASCII and, with small
        # blocks, the data blocks after it ASCII.
        path = tmp_path / "data.csv"
        for block_bytes in (8, 1 << 18):
            monkeypatch.setattr(data_module, "_BLOCK_BYTES", block_bytes)
            path.write_bytes("µ,b\n1.5,2\n-3,4e-1\n5,6\n".encode("utf-8"))
            names, columns = _parse_table(str(path))
            want = _parse_cells(str(path))
            assert names == want[0] == ["µ", "b"]
            assert [c.tolist() for c in columns] == [c.tolist() for c in want[1]]
        monkeypatch.setattr(data_module, "_BLOCK_BYTES", 8)
        for rest in ("1,2\n3,4\x0c\n", "1,2\n3,4\r\n", "1,2\n3\u2028,4\n"):
            path.write_bytes(("µ,b\n" + rest).encode("utf-8"))
            assert _parse_table(str(path)) is None, rest

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        path = write(tmp_path, "\ufeffa,b\n1.5,2\n-3,4e-1\n")
        names, columns = _parse_table(path)
        want = _parse_cells(path)
        assert names == want[0] == ["a", "b"]
        assert [c.tolist() for c in columns] == [c.tolist() for c in want[1]] == [[1.5, -3], [2, 0.4]]

    def test_peak_memory_is_the_columns_plus_one_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_module, "_BLOCK_BYTES", 1 << 14)
        rows = 100_000
        values = np.random.default_rng(5).standard_normal((rows, 2))
        path = write(tmp_path, "a,b\n" + "\n".join(f"{x!r},{y!r}" for x, y in values.tolist()))
        tracemalloc.start()
        try:
            names, columns = parse_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(np.column_stack(columns), values)
        # A whole-file table plus column copies would need twice the columns.
        assert peak < 8 * values.size + 32 * (1 << 14)


class TestInferColumnKind:
    def test_binary_values_are_discrete(self):
        assert build_schema("c", [0.0, 1.0, 1.0, 0.0]).kind == "discrete"

    def test_small_integer_alphabet_is_discrete(self):
        rng = np.random.default_rng(0)
        assert build_schema("c", rng.integers(0, 3, 500).astype(float)).kind == "discrete"

    def test_gaussian_floats_are_continuous(self):
        rng = np.random.default_rng(1)
        assert build_schema("c", rng.standard_normal(500)).kind == "continuous"

    def test_wide_integer_range_is_continuous(self):
        # all integers, but far too many distinct values for a discrete alphabet
        rng = np.random.default_rng(2)
        values = rng.integers(0, 100_000, 400).astype(float)
        assert build_schema("c", values).kind == "continuous"

    def test_zero_inflated_floats_are_mixed(self):
        rng = np.random.default_rng(3)
        body = rng.random(200) + 0.001
        values = np.concatenate([np.zeros(200), body])
        schema = build_schema("z", values)
        assert schema.kind == "mixed"
        assert schema.measure.parts[1].atoms == (0.0,)

    def test_repeating_integer_among_integers_is_not_mixed(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 100_000, 400).astype(float)
        values[:100] = 7.0
        assert build_schema("c", values).kind == "continuous"

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError):
            build_schema("c", [])


class TestBuildSchema:
    def test_discrete_gets_unit_integer_counting(self):
        schema = build_schema("c", [0.0, 1.0, 1.0])
        assert schema.kind == "discrete"
        assert isinstance(schema.measure, CountingMeasure)
        assert schema.measure.rule == "unit"
        assert schema.measure.domain == "integers"

    def test_continuous_gets_lebesgue(self):
        rng = np.random.default_rng(5)
        schema = build_schema("c", rng.standard_normal(100))
        assert schema.kind == "continuous"
        assert isinstance(schema.measure, LebesgueMeasure)

    def test_mixed_gets_sum_measure_with_atoms(self):
        rng = np.random.default_rng(6)
        values = np.concatenate([np.full(100, 0.0), rng.random(100) + 0.01])
        schema = build_schema("c", values)
        assert schema.kind == "mixed"
        assert isinstance(schema.measure, SumMeasure)
        counting = [p for p in schema.measure.parts if isinstance(p, CountingMeasure)]
        assert counting and counting[0].atoms == (0.0,)

    def test_center_and_scale_default_to_moments(self):
        values = np.array([1.0, 3.0, 5.0, 7.0])
        schema = build_schema("c", values)
        assert schema.center == pytest.approx(values.mean())
        assert schema.scale == pytest.approx(values.std())

    def test_constant_column_gets_unit_scale(self):
        schema = build_schema("c", [4.0, 4.0, 4.0])
        assert schema.scale == 1.0

    def test_overflowing_moments_come_out_non_finite_unwarned(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build_schema("c", [1e300, -1e300, 4.0]).scale == math.inf
            assert build_schema("c", [1.7e308, 1.7e308]).center == math.inf

    def test_unknown_kind_rejected(self):
        config = build_schema("c", [0.0, 1.0]).to_config()
        config["kind"] = "categorical"
        with pytest.raises(DatasetError):
            ColumnSchema.from_config(config)

    def test_config_round_trip(self):
        rng = np.random.default_rng(8)
        values = np.concatenate([np.full(50, 2.5), rng.random(50)])
        schema = build_schema("c", values)
        clone = ColumnSchema.from_config(schema.to_config())
        assert clone.name == schema.name
        assert clone.kind == schema.kind
        assert clone.center == schema.center
        assert clone.scale == schema.scale
        assert clone.measure.to_config() == schema.measure.to_config()
