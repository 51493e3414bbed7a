"""Tests for the sweep runners and the deterministic CSV emission."""

import dataclasses
import math
import os
import stat
import struct
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfvel import ArrayGeometry, MonteCarloReport, crossover_distance, experiments
from nfvel.experiments import (
    CsvTable,
    ScenarioConfig,
    format_cell,
    run_carrier_comparison,
    run_montecarlo,
    run_planar_map,
    run_radial_vs_distance,
    run_single,
    run_sweep,
    run_transverse_vs_distance,
)
from nfvel.geometry import _row_blocks
from nfvel.table import _RENDER_CELLS

BASE_APERTURE_28GHZ = 100 * 299792458.0 / (2 * 28e9)  # 101-element half-wave array


# Every kind of cell a table can hold: the printf-formatted float, and the
# kinds that format_cell renders one by one, bools and ints among them.
_CELLS = st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.none(),
    st.floats(allow_nan=False).map(np.float64),
    st.sampled_from([math.inf, -math.inf, 0.0, -0.0, np.int64(-7), np.True_, "text", "", "é"]),
)


def _nudged(value: float, ulps: int) -> float:
    """``value`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


# Float64 cells the render kernel must either prove or hand to format_cell: any bit
# pattern, subnormals, signed zeros and infinities, values near 1e+-22 (the largest
# exact power of ten), and near-ties at the thirteenth digit.
_FLOAT64 = st.one_of(
    st.floats(allow_nan=False),
    st.integers(0, 2**64 - 1)
    .map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
    .filter(lambda v: not math.isnan(v)),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -sys.float_info.min / 3]),
    st.builds(_nudged, st.sampled_from([1e22, 1e23, 1e-22, 1e-23, -1e22]), st.integers(-3, 3)),
    st.builds(
        lambda digits, exponent, ulps: _nudged(float(f"{digits}.5e{exponent}"), ulps),
        st.integers(10**12, 10**13 - 1),
        st.integers(-40, 30),
        st.integers(-2, 2),
    ),
)

# Float64 cells the render kernel hands to format_cell: zeros, infinities, subnormals,
# negatives of each, and near-ties at the thirteenth digit.
_FALLBACK = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, -sys.float_info.min / 3]),
    st.builds(
        lambda digits, exponent, sign: sign * float(f"{digits}.5e{exponent}"),
        st.integers(10**12, 10**13 - 1),
        st.integers(-40, 30),
        st.sampled_from([1.0, -1.0]),
    ),
)

# One column of each kind a table holds, as (kind, drawn values): float64 and bool
# arrays, lists of Python floats, and object lists of None, ints and other cells.
_COLUMN = st.one_of(
    st.tuples(st.just("float64"), st.lists(_FLOAT64, min_size=1, max_size=12)),
    st.tuples(st.just("bool"), st.lists(st.booleans(), min_size=1, max_size=12)),
    st.tuples(st.just("floats"), st.lists(st.floats(allow_nan=False), min_size=1, max_size=12)),
    st.tuples(st.just("cells"), st.lists(_CELLS, min_size=1, max_size=12)),
)


def _tiled(kind: str, values: list, count: int):
    """``values`` repeated to ``count`` cells, as the column kind ``kind``."""
    cells = (values * (count // len(values) + 1))[:count]
    if kind in ("float64", "bool"):
        return np.array(cells, dtype=np.float64 if kind == "float64" else bool)
    return cells


def _column(table: CsvTable, name: str) -> list:
    index = table.columns.index(name)
    return [row[index] for row in table.rows]


def _from_rows(name: str, columns: tuple, rows, meta=None) -> CsvTable:
    """A table given row by row, held as one list per column."""
    data = tuple(map(list, zip(*rows))) or ((),) * len(columns)
    return CsvTable(name=name, columns=columns, data=data, meta=meta or {})


class TestCsvTable:
    def _demo(self):
        return _from_rows(
            "demo",
            ("count", "value", "flag"),
            ((3, 2.5, True), (4, math.inf, False)),
            {"zeta": 1, "alpha": 2.0, "mid": "text"},
        )

    def test_render_layout(self):
        text = self._demo().render()
        lines = text.splitlines()
        assert lines[0] == "# nfvel demo"
        assert lines[1] == "# alpha = 2.0"
        assert lines[2] == "# mid = text"
        assert lines[3] == "# zeta = 1"
        assert lines[4] == "count,value,flag"
        assert lines[5] == "3,2.500000000000e+00,1"
        assert lines[6] == "4,inf,0"
        assert text.endswith("\n")

    def test_floats_carry_twelve_decimals(self):
        text = self._demo().render()
        assert "2.500000000000e+00" in text

    def test_nan_cell_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            format_cell(float("nan"))

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(_CELLS, _CELLS, _CELLS), max_size=30))
    def test_render_matches_format_cell(self, rows):
        table = _from_rows("mixed", ("a", "b", "c"), rows)
        body = table.render().splitlines()[2:]
        assert body == [",".join(map(format_cell, row)) for row in rows]

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(0, 2**64 - 1)
                .map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
                .filter(math.isfinite),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_float_column_renders_as_printf(self, values):
        table = _from_rows("floats", ("v",), [(v,) for v in values])
        assert table.render().splitlines()[2:] == ["%.12e" % v for v in values]

    @pytest.mark.parametrize(
        "value",
        [
            0.0,
            5e-324,
            sys.float_info.min,
            sys.float_info.max,
            1e22,
            1e23,
            1e-10,
            1e-11,
            math.nextafter(1e6, 0.0),
            math.nextafter(1e6, math.inf),
            math.nextafter(1e-6, 0.0),
            math.nextafter(1e-6, math.inf),
            999999.99999996,  # rounds up to 1.000000000000e+06
            0.5,
            1234567890123.5,  # a tie at the thirteenth digit
            136876171.54255,  # scaled to a tie, but below it exactly
            1148748.7197565,  # scaled to a tie, but above it exactly
        ],
    )
    def test_float_edge_values_render_as_printf(self, value):
        rows = ((value,), (-value,), (1.0,))
        table = _from_rows("floats", ("v",), rows)
        assert table.render().splitlines()[2:] == ["%.12e" % v for (v,) in rows]

    def test_mixed_table_across_blocks_matches_format_cell(self):
        # Two full blocks of rows and one more; the last column mixes kinds.
        count = 2 * (_RENDER_CELLS // 4) + 1
        rng = np.random.default_rng(3)
        floats = (rng.standard_normal(count) * 10.0 ** rng.integers(-30, 30, count)).tolist()
        floats[::97] = [math.inf] * len(floats[::97])
        floats[1::89] = [0.0] * len(floats[1::89])
        others = [None, np.float64(2.5), np.int64(-7), "text", "", "é", -math.inf, 1.5, True]
        rows = tuple(
            (x, i % 3 == 0, (-1) ** i * i**3, others[i % len(others)])
            for i, x in enumerate(floats)
        )
        table = _from_rows("mixed", ("a", "b", "c", "d"), rows)
        assert table.render().splitlines()[2:] == [",".join(map(format_cell, row)) for row in rows]

    @pytest.mark.parametrize("nan", [float("nan"), np.float64("nan")])
    @pytest.mark.parametrize("positions", [(1,), (0, 1), (0, 2)])
    def test_nan_in_any_row_raises(self, nan, positions):
        # One NaN object, in one cell or twice in the row, after a finite row.
        finite = (1.0, 2.0, True)
        row = tuple(nan if i in positions else value for i, value in enumerate(finite))
        table = _from_rows("demo", ("a", "b", "c"), (finite, row))
        with pytest.raises(ValueError, match="NaN"):
            table.render()

    def test_row_width_mismatch_raises(self):
        # One column of cells for two names, three for two, and two of unequal lengths.
        for data in [((1,),), ((1,), (2,), (3,)), ((1,), (2, 3)), (np.ones(2), [1.0])]:
            bad = CsvTable(name="demo", columns=("a", "b"), data=data, meta={})
            with pytest.raises(ValueError, match="columns of lengths"):
                bad.render()

    @settings(max_examples=60, deadline=None)
    @given(columns=st.lists(_COLUMN, min_size=1, max_size=6), data=st.data())
    def test_columnwise_render_matches_format_cell_per_row(self, columns, data):
        # Row counts include tables that end on, and just past, a block boundary.
        step = _RENDER_CELLS // len(columns)
        count = data.draw(st.one_of(st.integers(0, 20), st.sampled_from([step, step + 1])), label="rows")
        table = CsvTable("columns", tuple("abcdef"[: len(columns)]), tuple(_tiled(*c, count) for c in columns), {})
        expected = [",".join(map(format_cell, row)) for row in table.rows]
        assert len(expected) == count
        assert table.render().splitlines()[2:] == expected

    @settings(max_examples=20, deadline=None)
    @given(values=st.lists(_FLOAT64, min_size=1, max_size=12), data=st.data())
    def test_nan_in_a_float64_array_raises(self, values, data):
        count = data.draw(st.sampled_from([1, 5, _RENDER_CELLS // 2 + 1]), label="rows")
        column = _tiled("float64", values, count)
        column[data.draw(st.integers(0, count - 1), label="nan at")] = math.nan
        table = CsvTable("nan", ("a", "b"), (column, np.ones(count, bool)), {})
        with pytest.raises(ValueError, match="NaN reached an output cell"):
            table.render()

    @settings(max_examples=40, deadline=None)
    @given(
        fallbacks=st.lists(st.lists(_FALLBACK, min_size=1, max_size=4), min_size=1, max_size=6),
        texts=st.lists(st.sampled_from(["", "a", "abcdef", "é"]), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_reused_block_buffers_carry_nothing_between_blocks(self, fallbacks, texts, data):
        # Blocks of four rows of three float columns, a bool column and a text column whose
        # width moves from block to block; every other block holds fallback cells among
        # plain ones, at positions that the next block fills with plain cells.
        plain = [1.25, -3.5e7, 6.02214076e23, -1.602176634e-19]
        floats = []
        for cells in fallbacks:
            block = plain * 3
            for cell in cells:
                block[data.draw(st.integers(0, len(block) - 1), label="at")] = cell
            floats += block + plain[::-1] * 3
        columns = np.array(floats).reshape(-1, 3).T
        count = columns.shape[1]
        flags = np.arange(count) % 3 == 0
        words = (texts * count)[:count]
        csv = CsvTable("blocks", ("a", "b", "c", "flag", "text"), (*columns, flags, words), {})
        expected = [",".join(map(format_cell, row)) for row in csv.rows]
        with mock.patch("nfvel.table._RENDER_CELLS", 20):
            assert csv.render().splitlines()[2:] == expected

    def test_numpy_bool_cell_is_one_or_zero(self):
        assert (format_cell(np.True_), format_cell(np.False_)) == ("1", "0")
        table = CsvTable("t", ("a", "b"), ((1.5,), (np.True_,)), {})
        assert table.render().splitlines()[-1] == "1.500000000000e+00,1"

    def test_rows_hold_python_floats_and_bools(self):
        table = CsvTable("t", ("a", "b", "c"), (np.array([1.5]), np.array([True]), [None]), {})
        assert table.rows == ((1.5, True, None),)
        assert [type(cell) for cell in table.rows[0]] == [float, bool, type(None)]

    def test_write_is_byte_identical_across_runs(self, tmp_path):
        table = self._demo()
        first = table.write(tmp_path / "first.csv").read_bytes()
        second = table.write(tmp_path / "second.csv").read_bytes()
        assert first == second
        assert first == table.render().encode("utf-8")


def _write_peak(table: CsvTable, path) -> int:
    """The peak memory ``table.write(path)`` allocates above what is held when it starts."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        table.write(path)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


class TestStreamedWrite:
    def _blocks_table(self, count: int) -> CsvTable:
        """A float, a bool and a non-ASCII text column; fallback cells sit on both sides of each block boundary."""
        step = _RENDER_CELLS // 3
        floats = np.linspace(-3.0, 7.0, count)
        floats[step - 1 :: step] = 0.0
        floats[step::step] = math.inf
        texts = [("é", "ascii", "日本")[i % 3] for i in range(count)]
        return CsvTable("blocks", ("v", "flag", "text"), (floats, floats > 0.0, texts), {"note": "ü"})

    def test_write_bytes_equal_render_across_blocks(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_bytes(b"an older file")
        for count in (_RENDER_CELLS // 3, 2 * (_RENDER_CELLS // 3) + 5):
            table = self._blocks_table(count)
            assert table.write(path).read_bytes() == table.render().encode()
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    @pytest.mark.parametrize("existing", [None, b"an older file"])
    def test_nan_in_the_last_block_leaves_the_path_as_it_was(self, tmp_path, existing):
        path = tmp_path / "table.csv"
        if existing is not None:
            path.write_bytes(existing)
        table = self._blocks_table(3 * (_RENDER_CELLS // 3) + 2)
        table.data[0][-1] = math.nan
        with pytest.raises(ValueError, match="NaN reached an output cell"):
            table.write(path)
        assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["table.csv"])
        assert existing is None or path.read_bytes() == existing

    def test_write_error_names_the_target_and_leaves_no_file(self, tmp_path):
        table = self._blocks_table(3)
        missing = tmp_path / "missing" / "table.csv"
        with pytest.raises(FileNotFoundError) as raised:
            table.write(missing)
        assert raised.value.filename == str(missing)
        (tmp_path / "dir").mkdir()
        with pytest.raises(IsADirectoryError) as raised:
            table.write(tmp_path / "dir")
        assert raised.value.filename == str(tmp_path / "dir")
        assert [p.name for p in tmp_path.iterdir()] == ["dir"]

    def test_write_through_a_symlink_keeps_the_link(self, tmp_path):
        (tmp_path / "data").mkdir()
        link = tmp_path / "table.csv"
        link.symlink_to(tmp_path / "data" / "table.csv")
        table = self._blocks_table(3)
        assert table.write(link) == link
        assert link.is_symlink() and link.read_bytes() == table.render().encode()
        assert [p.name for p in (tmp_path / "data").iterdir()] == ["table.csv"]

    def test_write_keeps_a_file_a_killed_write_left(self, tmp_path):
        path = tmp_path / "table.csv"
        left = tmp_path / f".table.csv.{os.getpid()}.tmp"
        left.write_bytes(b"partial")
        table = self._blocks_table(3)
        assert table.write(path).read_bytes() == table.render().encode()
        assert left.read_bytes() == b"partial"
        assert sorted(p.name for p in tmp_path.iterdir()) == [left.name, "table.csv"]

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_bytes(b"an older file")
        path.chmod(0o640)
        self._blocks_table(3).write(path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    @pytest.mark.parametrize("pipe", ["named", "/dev/fd"])
    def test_write_streams_every_block_to_a_pipe(self, tmp_path, pipe):
        # Two blocks of "1"/"0" lines, well inside a pipe's 64 KiB buffer, so that
        # the write never waits for the reader, opened first so that it can open.
        table = CsvTable("flags", ("flag",), (np.arange(_RENDER_CELLS + 5) % 3 == 0,), {})
        if pipe == "named":
            path = tmp_path / "pipe"
            os.mkfifo(path)
            reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        else:
            # The real path of /dev/fd/N on a pipe names no file.
            if not os.path.isdir("/dev/fd"):
                pytest.skip("no /dev/fd")
            reader, writer = os.pipe()
            path = Path(f"/dev/fd/{writer}")
        try:
            assert table.write(path) == path
            if pipe != "named":
                os.close(writer)
            received = b"".join(iter(lambda: os.read(reader, 1 << 16), b""))
        finally:
            os.close(reader)
        assert received == table.render().encode()
        assert pipe != "named" or stat.S_ISFIFO(path.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == (["pipe"] if pipe == "named" else [])

    def test_write_to_a_device_leaves_it_a_device(self, monkeypatch):
        # Should the device be taken for a file, the refused rename keeps it in place.
        def refuse(*paths):
            raise PermissionError(1, "replace refused", str(paths[0]))

        monkeypatch.setattr(os, "replace", refuse)
        assert self._blocks_table(3).write(os.devnull) == Path(os.devnull)
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_write_peak_does_not_grow_with_the_rows(self, tmp_path):
        # A fig4-like table of six float columns and a bool column.
        def table(count):
            columns = [np.linspace(-25.0, 25.0, count) * (i + 1.5) for i in range(6)]
            return CsvTable("map", tuple("abcdefg"), (*columns, columns[0] > 0.0), {})

        block = _write_peak(table(_RENDER_CELLS // 7), tmp_path / "block.csv")
        small = _write_peak(table(20_000), tmp_path / "small.csv")
        large = _write_peak(table(80_000), tmp_path / "large.csv")
        assert large <= small + block

    def test_planar_map_peak_per_row(self, tmp_path):
        # 401 x 201 points.  The map keeps five float columns and the bound and flag
        # columns, 49 bytes per row, while the kernel and the render each hold one
        # block of work: 57.2 bytes per row in all when measured.
        run_planar_map(ScenarioConfig(), x_points=3, y_points=2)  # caches the element positions
        tracemalloc.start()
        try:
            run_planar_map(ScenarioConfig(), x_points=401, y_points=201).write(tmp_path / "map.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 401 * 201


class TestScenarioConfig:
    def test_spacing_defaults_to_half_wavelength(self):
        geometry = ScenarioConfig().geometry()
        assert geometry.spacing == pytest.approx(299792458.0 / (2 * 28e9), rel=1e-15)
        assert geometry.num_elements == 101

    def test_aperture_sets_spacing(self):
        geometry = ScenarioConfig(num_elements=11, aperture=1.0).geometry()
        assert geometry.spacing == pytest.approx(0.1, rel=1e-15)
        assert geometry.aperture == pytest.approx(1.0, rel=1e-15)

    def test_spacing_and_aperture_conflict(self):
        with pytest.raises(ValueError, match="^give spacing or aperture, not both$"):
            ScenarioConfig(spacing=0.01, aperture=1.0)


class TestRunSingle:
    def test_reference_scenario_values(self):
        out = run_single(ScenarioConfig())
        assert not out["singular"]
        assert out["crlb_vr"] > 0.0
        assert out["crlb_vt"] > out["crlb_vr"]  # transverse is the harder axis at 10 m
        assert out["root_crlb_vr"] == pytest.approx(math.sqrt(out["crlb_vr"]), rel=1e-15)
        assert out["angle_deg"] == 0.0
        assert out["crossover_distance"] == pytest.approx(0.07727020371755339, rel=1e-12)
        assert out["resolved_aperture"] == pytest.approx(BASE_APERTURE_28GHZ, rel=1e-12)

    def test_end_fire_scenario_is_singular(self):
        out = run_single(ScenarioConfig(angle=math.pi / 2))
        assert out["singular"]
        assert math.isinf(out["crlb_vt"])
        assert math.isinf(out["root_crlb_vt"])
        assert math.isfinite(out["crlb_vr"])


class TestRadialVsDistance:
    def setup_method(self):
        aperture = BASE_APERTURE_28GHZ
        self.table = run_radial_vs_distance(
            ScenarioConfig(),
            apertures=[aperture],
            d_min=aperture / 5.0,
            d_max=100.0 * aperture,
            points=7,
        )

    def test_exact_equals_inverse_info_at_boresight(self):
        exact = _column(self.table, "root_crlb_vr_exact")
        approx = _column(self.table, "root_jrr_inv_approx")
        for a, b in zip(exact, approx):
            assert a == pytest.approx(b, rel=1e-10)

    def test_far_field_limit_reached_at_large_distance(self):
        exact = _column(self.table, "root_crlb_vr_exact")
        far = _column(self.table, "root_crlb_vr_far_field")
        assert exact[-1] == pytest.approx(far[-1], rel=1e-3)

    def test_near_field_deviation_below_aperture(self):
        exact = _column(self.table, "root_crlb_vr_exact")
        far = _column(self.table, "root_crlb_vr_far_field")
        assert exact[0] / far[0] > 1.001

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("runner", [run_radial_vs_distance, run_transverse_vs_distance])
    def test_infinite_d_max_is_rejected_before_the_grid(self, runner):
        with pytest.raises(ValueError, match="d_max must be finite, got inf"):
            runner(ScenarioConfig(), d_max=math.inf)

    def test_bound_decreases_with_distance(self):
        exact = _column(self.table, "root_crlb_vr_exact")
        assert all(a >= b * (1 - 1e-12) for a, b in zip(exact, exact[1:]))


class TestTransverseVsDistance:
    def setup_method(self):
        self.aperture = BASE_APERTURE_28GHZ
        self.table = run_transverse_vs_distance(
            ScenarioConfig(),
            apertures=[self.aperture, 2.0 * self.aperture],
            angles=(0.0, 45.0),
            d_min=self.aperture,
            d_max=100.0 * self.aperture,
            points=6,
        )

    def _rows(self, aperture, angle):
        return [
            row
            for row in self.table.rows
            if row[2] == aperture and row[1] == angle
        ]

    def test_oblique_angle_is_always_worse(self):
        for aperture in (self.aperture, 2.0 * self.aperture):
            head_on = self._rows(aperture, 0.0)
            oblique = self._rows(aperture, 45.0)
            for a, b in zip(head_on, oblique):
                assert b[3] > a[3]

    def test_larger_aperture_is_always_better(self):
        small = self._rows(self.aperture, 0.0)
        large = self._rows(2.0 * self.aperture, 0.0)
        for a, b in zip(small, large):
            assert b[3] < a[3]

    def test_far_slope_is_linear_in_distance(self):
        rows = self._rows(self.aperture, 0.0)
        tail = [(row[0], row[3]) for row in rows if row[0] >= 10.0 * self.aperture]
        assert len(tail) >= 3
        logs = np.log([d for d, _ in tail]), np.log([v for _, v in tail])
        slope = np.polyfit(logs[0], logs[1], 1)[0]
        assert slope == pytest.approx(1.0, abs=0.02)


class TestCarrierComparison:
    def setup_method(self):
        self.table = run_carrier_comparison(ScenarioConfig(), points=25)
        self.low = [row for row in self.table.rows if row[1] == 6e9]
        self.high = [row for row in self.table.rows if row[1] == 28e9]

    def test_halfwave_transverse_column_is_carrier_free(self):
        for a, b in zip(self.low, self.high):
            assert a[0] == b[0]  # shared distance grid
            assert a[5] == b[5]  # bitwise equal carrier-free bound

    def test_radial_bound_scales_inversely_with_carrier(self):
        assert self.low[-1][3] / self.high[-1][3] == pytest.approx(28.0 / 6.0, rel=1e-3)

    def test_curves_cross_at_predicted_distance(self):
        geometry = ArrayGeometry.half_wavelength(101, 28e9)
        predicted = crossover_distance(geometry)
        gaps = [(row[0], row[6] - row[5]) for row in self.high]
        brackets = [
            (d0, d1)
            for (d0, g0), (d1, g1) in zip(gaps, gaps[1:])
            if g0 == 0.0 or (g0 < 0.0) != (g1 < 0.0)
        ]
        assert any(d0 <= predicted <= d1 for d0, d1 in brackets)


class TestPlanarMap:
    def test_boresight_cut_grows_with_cubed_distance(self):
        table = run_planar_map(
            ScenarioConfig(),
            x_min=0.0,
            x_max=0.0,
            x_points=1,
            y_min=0.0,
            y_max=10.0,
            y_points=5,
        )
        roots = _column(table, "root_crlb_vt")
        dists = _column(table, "distance_m")
        assert all(b > a for a, b in zip(roots, roots[1:]))
        slope = math.log(roots[-1] / roots[-2]) / math.log(dists[-1] / dists[-2])
        assert slope == pytest.approx(3.0, abs=0.1)

    def test_snr_column_follows_link_budget(self):
        table = run_planar_map(
            ScenarioConfig(),
            x_min=0.0,
            x_max=0.0,
            x_points=1,
            y_min=0.0,
            y_max=40.0,
            y_points=2,
        )
        snr_db = _column(table, "snr_db")
        # doubling the distance costs 40*log10(2) ~ 12.04 dB
        assert snr_db[0] - snr_db[1] == pytest.approx(40.0 * math.log10(2.0), abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_array_line_rows_are_degenerate_not_nan(self):
        for x_max in (1.0, -0.0):
            table = run_planar_map(
                ScenarioConfig(),
                x_min=-1.0,
                x_max=x_max,
                x_points=3,
                y_min=-1.0,
                y_max=0.0,
                y_points=1,
            )
            assert all(row[6] for row in table.rows)
            assert all(math.isinf(row[5]) for row in table.rows)
            text = table.render()
            assert "nan" not in text.lower()
            assert ",inf," in text or text.rstrip().endswith("inf,1")
            # The array centre goes to the link budget and the kernel with the rest of the grid,
            # and reads angle 0 where atan2(-0.0, 0.0) gives -0.0.
            (centre,) = [dict(zip(table.columns, row)) for row in table.rows if row[2] == 0.0]
            assert math.copysign(1.0, centre["angle_deg"]) == 1.0 and centre["angle_deg"] == 0.0
            assert (centre["snr_db"], centre["root_crlb_vt"], centre["degenerate"]) == (math.inf, math.inf, True)

    def test_bytes_do_not_depend_on_the_kernel_block_split(self, monkeypatch):
        # The first y row, at 0, runs along the array line and through the centre, so its
        # 101 degenerate rows fall in three blocks of 37 points; 707 points end mid-block.
        def run():
            return run_planar_map(
                ScenarioConfig(), x_min=-1.0, x_max=1.0, x_points=101, y_min=-0.25, y_max=1.5, y_points=7
            )

        default = run()
        monkeypatch.setattr(experiments, "_row_blocks", lambda count: _row_blocks(count, 37))
        split = run()
        flagged = np.flatnonzero([row[6] for row in split.rows])
        assert len(flagged) >= 101 and len(set(flagged // 37)) >= 3
        assert split.render() == default.render()

    def test_nan_bound_reaches_format_cell(self, monkeypatch):
        # The CSV contract never carries NaN: a NaN bound must not print as inf.
        bounds = experiments.closed_form_bounds

        def nan_transverse(*args, **kwargs):
            rows = bounds(*args, **kwargs)
            nan = np.full_like(rows.transverse, math.nan)
            return dataclasses.replace(rows, transverse=nan, root_transverse=nan)

        monkeypatch.setattr(experiments, "closed_form_bounds", nan_transverse)
        table = run_planar_map(ScenarioConfig(), x_points=3, y_points=2)
        with pytest.raises(ValueError, match="NaN reached an output cell"):
            table.render()


class TestMonteCarloRunner:
    def _config(self):
        return ScenarioConfig(
            carrier=6e9,
            num_elements=9,
            spacing=0.02,
            num_symbols=8,
            symbol_time=2e-4,
            distance=0.8,
            radial_velocity=2.0,
            transverse_velocity=-3.0,
        )

    def test_row_shape_and_determinism(self):
        config = self._config()
        table = run_montecarlo(
            config, snr_list=(20.0,), trials=100, seed=7, vr_window=2.0, vt_window=6.0
        )
        assert table.columns[:4] == ("snr_db", "trials", "mse_vr", "mse_vt")
        (row,) = table.rows
        assert row[0] == 20.0
        assert row[1] == 100
        assert row[2] > 0.0 and row[3] > 0.0
        assert row[6] > 0.0 and row[7] > 0.0
        again = run_montecarlo(
            config, snr_list=(20.0,), trials=100, seed=7, vr_window=2.0, vt_window=6.0
        )
        assert again.render() == table.render()

    def test_columns_are_the_report_fields_in_order(self):
        # After snr_db, one column per MonteCarloReport field, _radial and _transverse as _vr and _vt.
        table = run_montecarlo(self._config(), snr_list=(20.0,), trials=100, seed=7, vr_window=2.0, vt_window=6.0)
        names = [field.name for field in dataclasses.fields(MonteCarloReport)]
        assert table.columns == ("snr_db", *(n.replace("_radial", "_vr").replace("_transverse", "_vt") for n in names))
        assert table.columns[-1] == "degenerate_trials"

    @pytest.mark.parametrize("entry", [10**400, -(10**400)])
    def test_int_entry_past_the_float_range_names_snr_list(self, entry):
        # An int entry no float holds is named like a float one whose linear SNR overflows.
        with pytest.raises(ValueError, match=r"^snr_list entry -?\d+ dB is outside the float range"):
            run_montecarlo(self._config(), snr_list=(entry,), trials=100)

    def test_strained_waveform_warns_once(self):
        # The trials' unit-power copy of the waveform does not repeat its warning.
        config = dataclasses.replace(self._config(), carrier=1e6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_montecarlo(config, snr_list=(20.0,), trials=100, seed=7, vr_window=2.0, vt_window=6.0)
        assert [str(w.message).split(" ")[0] for w in caught] == ["bandwidth"]


class TestRunSweep:
    def test_distance_sweep_grows_transverse_bound(self):
        table = run_sweep(
            ScenarioConfig(), variable="distance", start=1.0, stop=100.0, points=5, log=True
        )
        assert table.columns[0] == "distance"
        roots = _column(table, "root_crlb_vt")
        assert all(b > a for a, b in zip(roots, roots[1:]))

    def test_angle_sweep_flags_end_fire(self):
        table = run_sweep(ScenarioConfig(), variable="angle", start=-90.0, stop=90.0, points=5)
        angles = _column(table, "angle")
        singular = _column(table, "singular")
        roots = _column(table, "root_crlb_vt")
        assert angles == [-90.0, -45.0, 0.0, 45.0, 90.0]
        assert singular[0] and singular[-1]
        assert math.isinf(roots[0]) and math.isinf(roots[-1])
        assert not any(singular[1:4])
        assert roots[1] == pytest.approx(roots[3], rel=1e-11)

    def test_carrier_sweep_keeps_physical_array(self):
        table = run_sweep(
            ScenarioConfig(), variable="carrier", start=14e9, stop=56e9, points=3, log=True
        )
        roots_vt = _column(table, "root_crlb_vt")
        roots_vr = _column(table, "root_crlb_vr")
        # fixed geometry: both bounds scale as 1/f_c
        assert roots_vt[0] == pytest.approx(2.0 * roots_vt[1], rel=1e-12)
        assert roots_vr[1] == pytest.approx(2.0 * roots_vr[2], rel=1e-12)

    def test_aperture_sweep_shrinks_transverse_bound(self):
        table = run_sweep(ScenarioConfig(), variable="aperture", start=0.5, stop=2.0, points=3)
        roots = _column(table, "root_crlb_vt")
        assert all(b < a for a, b in zip(roots, roots[1:]))

    def test_spec_validation(self):
        config = ScenarioConfig()
        with pytest.raises(ValueError, match="variable must be one of"):
            run_sweep(config, variable="bogus", start=1.0, stop=2.0, points=3)
        with pytest.raises(ValueError, match="stop must exceed start"):
            run_sweep(config, variable="distance", start=2.0, stop=1.0, points=3)
        with pytest.raises(ValueError, match="log grids need a positive start"):
            run_sweep(config, variable="distance", start=-1.0, stop=2.0, points=3, log=True)

    def test_grid_forms(self):
        config = ScenarioConfig()
        lin = run_sweep(config, variable="distance", start=1.0, stop=3.0, points=3)
        assert np.allclose(_column(lin, "distance"), [1.0, 2.0, 3.0])
        log = run_sweep(config, variable="distance", start=1.0, stop=100.0, points=3, log=True)
        assert np.allclose(_column(log, "distance"), [1.0, 10.0, 100.0])
