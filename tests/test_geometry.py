"""Geometry: symmetric grids, element distances and projection coefficients."""

import ast
import math
import os
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfvel import (
    ArrayGeometry,
    ChannelNoise,
    DegenerateGeometryError,
    MlSearchConfig,
    TargetState,
    closed_form_bounds,
    distance_to_element,
    element_distances,
    fisher_info_closed_form,
    fisher_info_numeric,
    radial_crlb_far_field,
    radial_info_boresight,
    radial_projection_coeff,
    radial_projection_coeffs,
    snr_from_link_budget,
    symmetric_index_grid,
    transverse_info_boresight,
    transverse_info_boresight_approx,
    transverse_info_half_wavelength,
    transverse_projection_coeff,
    transverse_projection_coeffs,
)
from nfvel import cli
from nfvel.bounds import _CHUNK_ELEMENTS, _boresight_weight, _row_chunks
from nfvel.estimator import Scenario, monte_carlo_reports
from nfvel.experiments import ScenarioConfig, run_planar_map, run_sweep, run_transverse_vs_distance
from nfvel.geometry import _COINCIDENCE_RTOL, _cos_angle, _trig

from conftest import array_line_rows, cartesian_los_speeds, make_waveform, run_without_avx512

# The whole message of a target on an element or at the array centre.
_ON_ELEMENT = f"^{re.escape(str(DegenerateGeometryError()))}$"

# Independently computed reference values.
APERTURE_101_HALFWAVE_28GHZ = 0.535343675
SQRT_101 = 10.04987562112089
INV_SQRT_2 = 0.7071067811865475


class TestSymmetricGrid:
    def test_odd_count_gives_integers(self):
        assert symmetric_index_grid(5).tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_even_count_gives_half_integers(self):
        assert symmetric_index_grid(4).tolist() == [-1.5, -0.5, 0.5, 1.5]

    def test_single_point(self):
        assert symmetric_index_grid(1).tolist() == [0.0]

    def test_sum_is_exactly_zero(self):
        for count in (1, 2, 3, 14, 15, 101):
            assert math.fsum(symmetric_index_grid(count)) == 0.0

    def test_second_moment_closed_form(self):
        # sum(k^2) == L*(L^2-1)/12 for both parities
        for count in (1, 2, 3, 4, 14, 15, 100, 101):
            grid = symmetric_index_grid(count)
            expected = count * (count**2 - 1) / 12.0
            assert math.fsum(grid**2) == pytest.approx(expected, rel=1e-14)


class TestArrayGeometry:
    def test_half_wavelength_aperture_frozen_value(self):
        geom = ArrayGeometry.half_wavelength(101, 28e9)
        assert geom.aperture == pytest.approx(APERTURE_101_HALFWAVE_28GHZ, rel=1e-12)
        assert geom.spacing == pytest.approx(APERTURE_101_HALFWAVE_28GHZ / 100.0, rel=1e-12)

    def test_positions_symmetric_and_spaced(self):
        geom = ArrayGeometry(num_elements=5, spacing=0.25)
        assert geom.element_x_positions.tolist() == [-0.5, -0.25, 0.0, 0.25, 0.5]

    def test_even_count_positions(self):
        geom = ArrayGeometry(num_elements=4, spacing=2.0)
        assert geom.element_x_positions.tolist() == [-3.0, -1.0, 1.0, 3.0]

    def test_single_element_has_zero_aperture(self):
        geom = ArrayGeometry(num_elements=1, spacing=0.1)
        assert geom.aperture == 0.0
        assert geom.element_x_positions.tolist() == [0.0]


class TestTargetState:
    def test_angle_range(self):
        with pytest.raises(ValueError, match=r"^angle must lie in \[-pi/2, pi/2\], got 1.5707973267948965$"):
            TargetState(distance=1.0, angle=math.pi / 2 + 1e-6)
        # end-fire itself is allowed
        TargetState(distance=1.0, angle=math.pi / 2)
        TargetState(distance=1.0, angle=-math.pi / 2)

    def test_cartesian_round_trip(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            d = float(rng.uniform(0.1, 100.0))
            theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
            state = TargetState(distance=d, angle=theta, radial_velocity=1.5)
            x, y = state.position_xy
            back = TargetState.from_xy(x, y, radial_velocity=1.5)
            assert back.distance == pytest.approx(d, rel=1e-12)
            assert back.angle == pytest.approx(theta, abs=1e-12)

    def test_from_xy_rejects_negative_y_and_origin(self):
        with pytest.raises(ValueError, match=r"^target must sit on the \+y side of the array, got y=-0.5$"):
            TargetState.from_xy(1.0, -0.5)
        with pytest.raises(ValueError, match="^distance must be positive, got 0.0"):
            TargetState.from_xy(0.0, 0.0)

    def test_end_fire_position_lands_on_axis(self):
        state = TargetState(distance=3.0, angle=math.pi / 2)
        x, y = state.position_xy
        assert x == pytest.approx(3.0, rel=1e-15)
        assert y == 0.0  # exactly, by the cos evaluation convention

    def test_velocity_convention_at_boresight(self):
        # at boresight: radial points to -y, transverse to +x
        state = TargetState(distance=5.0, angle=0.0, radial_velocity=2.0, transverse_velocity=3.0)
        vx, vy = state.velocity_xy
        assert vx == pytest.approx(3.0, rel=1e-15)
        assert vy == pytest.approx(-2.0, rel=1e-15)


class TestElementDistances:
    def test_unit_offset_reference_value(self):
        # d=10, theta=0, element at x=1: sqrt(100 + 1)
        geom = ArrayGeometry(num_elements=3, spacing=1.0)
        target = TargetState(distance=10.0, angle=0.0)
        assert distance_to_element(target, geom, 1.0) == pytest.approx(SQRT_101, rel=1e-14)

    def test_centre_element_sees_exact_range(self):
        geom = ArrayGeometry(num_elements=7, spacing=0.3)
        target = TargetState(distance=4.2, angle=0.7)
        assert distance_to_element(target, geom, 0.0) == pytest.approx(4.2, rel=1e-15)

    def test_scalar_matches_vector(self):
        geom = ArrayGeometry(num_elements=6, spacing=0.4)
        target = TargetState(distance=2.5, angle=-0.4)
        vector = element_distances(target, geom)
        grid = symmetric_index_grid(geom.num_elements)
        for idx, k in enumerate(grid):
            assert distance_to_element(target, geom, float(k)) == pytest.approx(
                vector[idx], rel=1e-14
            )

    def test_target_on_element_is_an_error(self):
        # end-fire target exactly on the element at x = 10
        geom = ArrayGeometry(num_elements=21, spacing=1.0)
        target = TargetState(distance=10.0, angle=math.pi / 2)
        with pytest.raises(DegenerateGeometryError, match=_ON_ELEMENT):
            element_distances(target, geom)
        with pytest.raises(DegenerateGeometryError, match=_ON_ELEMENT):
            distance_to_element(target, geom, 10.0)

    def test_coincidence_floor_flags_a_row_at_it_and_not_one_ulp_beyond(self):
        # 1e-12 * aperture is exactly 2**-40, and so is the distance from an end-fire
        # target 2**-40 past the end element to that element: the row sits on the floor
        # 1e-12 * max(d, aperture), which flags it; one ulp farther out it is above.
        aperture = 0.9094947017729282
        assert _COINCIDENCE_RTOL * aperture == 2.0**-40
        geom = ArrayGeometry(3, aperture / 2)
        end = float(geom.element_x_positions[-1])
        at_floor = end + 2.0**-40
        beyond = math.nextafter(at_floor, math.inf)
        distances, degenerate = element_distances(([at_floor, beyond], [math.pi / 2] * 2), geom)
        assert degenerate.tolist() == [True, False]
        assert distances[1, -1] == beyond - end > 2.0**-40
        with pytest.raises(DegenerateGeometryError, match=_ON_ELEMENT):
            element_distances(TargetState(at_floor, math.pi / 2), geom)
        assert element_distances(TargetState(beyond, math.pi / 2), geom)[-1] == beyond - end
        rows = closed_form_bounds([at_floor, beyond], [math.pi / 2] * 2, geom, make_waveform(), 1.0)
        assert rows.degenerate.tolist() == [True, False]

    def test_triangle_inequality_and_positivity(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            geom = ArrayGeometry(int(rng.integers(1, 40)), float(rng.uniform(0.01, 1.0)))
            target = TargetState(
                distance=float(rng.uniform(0.05, 50.0)),
                angle=float(rng.uniform(-math.pi / 2, math.pi / 2)),
            )
            try:
                dists = element_distances(target, geom)
            except DegenerateGeometryError:
                continue
            assert np.all(dists > 0.0)
            x = geom.element_x_positions
            lower = np.abs(target.distance - np.abs(x))
            upper = target.distance + np.abs(x)
            assert np.all(dists <= upper * (1 + 1e-12))
            assert np.all(dists >= lower * (1 - 1e-12))


class TestProjectionCoefficients:
    def test_diagonal_reference_value(self):
        # d=1, theta=0, element at x=1: both projections are 1/sqrt(2)
        geom = ArrayGeometry(num_elements=3, spacing=1.0)
        target = TargetState(distance=1.0, angle=0.0)
        assert radial_projection_coeff(target, geom, 1.0) == pytest.approx(INV_SQRT_2, rel=1e-14)
        assert transverse_projection_coeff(target, geom, 1.0) == pytest.approx(
            INV_SQRT_2, rel=1e-14
        )

    def test_centre_element_values_are_exact(self):
        geom = ArrayGeometry(num_elements=5, spacing=0.7)
        target = TargetState(distance=3.0, angle=0.5)
        assert radial_projection_coeff(target, geom, 0.0) == 1.0
        assert transverse_projection_coeff(target, geom, 0.0) == 0.0

    def test_end_fire_transverse_projection_is_exactly_zero(self):
        geom = ArrayGeometry(num_elements=9, spacing=0.05)
        for sign in (1.0, -1.0):
            target = TargetState(distance=7.0, angle=sign * math.pi / 2)
            assert np.all(transverse_projection_coeffs(target, geom) == 0.0)

    def test_bounded_and_unit_norm(self):
        # q^2 + p^2 == 1: the two coefficients are projections of orthonormal
        # directions onto a unit line-of-sight vector
        rng = np.random.default_rng(11)
        for _ in range(500):
            geom = ArrayGeometry(int(rng.integers(1, 30)), float(rng.uniform(0.01, 2.0)))
            target = TargetState(
                distance=float(rng.uniform(0.1, 100.0)),
                angle=float(rng.uniform(-math.pi / 2, math.pi / 2)),
            )
            try:
                q = radial_projection_coeffs(target, geom)
                p = transverse_projection_coeffs(target, geom)
            except DegenerateGeometryError:
                continue
            assert np.all(np.abs(q) <= 1.0 + 1e-12)
            assert np.all(np.abs(p) <= 1.0 + 1e-12)
            assert np.allclose(q**2 + p**2, 1.0, atol=1e-12)

    def test_matches_cartesian_dot_product_oracle(self):
        # Independent construction: unit vector from target to element dotted
        # with the Cartesian velocity must equal q*v_r + p*v_t.
        rng = np.random.default_rng(29)
        for _ in range(1000):
            d = float(rng.uniform(0.2, 60.0))
            theta = float(rng.uniform(-1.5, 1.5))
            v_r = float(rng.uniform(-30.0, 30.0))
            v_t = float(rng.uniform(-30.0, 30.0))
            geom = ArrayGeometry(int(rng.integers(2, 25)), float(rng.uniform(0.02, 1.5)))
            target = TargetState(d, theta, v_r, v_t)

            q = radial_projection_coeffs(target, geom)
            p = transverse_projection_coeffs(target, geom)
            for idx, los_speed in enumerate(cartesian_los_speeds(target, geom)):
                assert q[idx] * v_r + p[idx] * v_t == pytest.approx(
                    los_speed, rel=1e-10, abs=1e-10
                )

    def test_mirror_symmetry_in_angle(self):
        geom = ArrayGeometry(num_elements=11, spacing=0.2)
        plus = TargetState(distance=4.0, angle=0.6)
        minus = TargetState(distance=4.0, angle=-0.6)
        assert np.allclose(
            radial_projection_coeffs(plus, geom),
            radial_projection_coeffs(minus, geom)[::-1],
            rtol=1e-13,
        )
        assert np.allclose(
            transverse_projection_coeffs(plus, geom),
            -transverse_projection_coeffs(minus, geom)[::-1],
            rtol=1e-13,
        )

    def test_far_field_limit(self):
        # q -> 1 monotonically and p -> 0 as the target recedes at boresight
        geom = ArrayGeometry(num_elements=21, spacing=0.5)
        previous_q = -np.inf
        for d in (1.0, 10.0, 100.0, 1000.0, 10000.0):
            target = TargetState(distance=d, angle=0.0)
            q_min = radial_projection_coeffs(target, geom).min()
            p_max = np.abs(transverse_projection_coeffs(target, geom)).max()
            assert q_min > previous_q
            previous_q = q_min
        assert q_min == pytest.approx(1.0, abs=1e-6)
        assert p_max == pytest.approx(0.0, abs=1e-3)


def _one_target_distances(distance, angle, geometry):
    """Reference: one target's element distances, computed as the formula reads.

    Lengths are taken in units of the power of two just above ``max(d, aperture)``,
    which changes no bit where metres neither overflow nor underflow.
    """
    if distance <= _COINCIDENCE_RTOL * geometry.aperture:
        raise DegenerateGeometryError()
    unit = math.ldexp(1.0, math.frexp(max(distance, geometry.aperture))[1])
    d, x = distance / unit, geometry.element_x_positions / unit
    across = d * _cos_angle(angle)
    distances = np.sqrt((x - d * math.sin(angle)) ** 2 + across * across) * unit
    if np.any(distances <= _COINCIDENCE_RTOL * max(distance, geometry.aperture)):
        raise DegenerateGeometryError()
    return distances


@st.composite
def _block_rows(draw):
    """A geometry and (distance, angle) rows: regular, end-fire, on or next to an element, at or near the centre,
    and past 2**400 m, whose lengths are scaled."""
    k = draw(st.sampled_from([1, 2, 101, 2048, 16385]), label="K")
    geometry = ArrayGeometry(k, draw(st.floats(0.002, 0.08), label="spacing"))
    # Up to two bound-kernel chunks and one row, so that batches at K=2048
    # (eight rows a chunk) and K=16385 (one row a chunk) cross chunk boundaries.
    count = draw(st.integers(1, min(2 * max(_CHUNK_ELEMENTS // k, 1) + 1, 40)), label="P")
    x = geometry.element_x_positions
    row = st.one_of(
        st.tuples(st.floats(1e-3, 500.0), st.floats(-math.pi / 2, math.pi / 2)),
        st.tuples(st.floats(1e-3, 500.0), st.sampled_from([-math.pi / 2, math.pi / 2])),
        # An end-fire target on an element (a single element sits at the centre).
        st.sampled_from(x[x != 0.0].tolist() or [1.0]).map(
            lambda x_k: (abs(x_k), math.copysign(math.pi / 2, x_k))
        ),
        # At the centre, and within 1e-12 aperture of it.
        st.sampled_from([0.0, 1e-300, 1e-14 * geometry.aperture or 1e-300]).map(lambda d: (d, 0.3)),
        array_line_rows(geometry),
        st.tuples(st.floats(1e121, 1e300), st.floats(-math.pi / 2, math.pi / 2)),
    )
    rows = draw(st.lists(row, min_size=count, max_size=count), label="rows")
    return geometry, [d for d, _ in rows], [a for _, a in rows]


class TestDistanceBlock:
    @settings(max_examples=60, deadline=None)
    @given(case=_block_rows())
    def test_block_rows_equal_one_target_calls(self, case):
        geometry, distances, angles = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block, degenerate = element_distances((distances, angles), geometry)
            bounds = closed_form_bounds(distances, angles, geometry, make_waveform(), 1.0)
        assert block.shape == (len(distances), geometry.num_elements)
        assert np.array_equal(bounds.degenerate, degenerate)
        for i, (d, angle) in enumerate(zip(distances, angles)):
            if degenerate[i]:
                assert np.all(block[i] == 1.0)
                assert bounds.singular[i] and bounds.radial[i] == bounds.transverse[i] == math.inf
                if d == 0.0:
                    # The array centre: a batch flags it, and no one target sits there.
                    with pytest.raises(ValueError, match="^distance must be positive"):
                        TargetState(d, angle)
                    continue
                with pytest.raises(DegenerateGeometryError, match=_ON_ELEMENT):
                    element_distances(TargetState(d, angle), geometry)
                with pytest.raises(DegenerateGeometryError, match=_ON_ELEMENT):
                    _one_target_distances(d, angle, geometry)
                continue
            target = TargetState(d, angle)
            assert np.array_equal(block[i], element_distances(target, geometry))
            assert np.array_equal(block[i], _one_target_distances(d, angle, geometry))
        # The bound kernel's chunks see the same rows as one whole block.
        for rows in _row_chunks(len(distances), geometry.num_elements):
            chunk = (distances[rows], angles[rows])
            chunk_block, chunk_degenerate = element_distances(chunk, geometry)
            assert np.array_equal(chunk_block, block[rows])
            assert np.array_equal(chunk_degenerate, degenerate[rows])

    @pytest.mark.parametrize("scale", [2.0**-600, 2.0**600], ids=["2**-600", "2**600"])
    def test_lengths_whose_squares_leave_the_float_range_scale_exactly(self, scale):
        # Every length times a power of two, far enough that its square in metres
        # underflows or overflows: the block scales by that power and the bounds,
        # which are free of units, do not change, bit for bit.
        distances, angles = [3.0, 0.25, 0.5, 40.0], [0.3, math.pi / 2 - 1e-3, -1.2, math.pi / 2]
        block, degenerate = element_distances((distances, angles), ArrayGeometry(101, 0.01))
        scaled_geometry = ArrayGeometry(101, 0.01 * scale)
        scaled_distances = [d * scale for d in distances]
        scaled_block, scaled_degenerate = element_distances((scaled_distances, angles), scaled_geometry)
        assert np.array_equal(scaled_block, block * scale) and not degenerate.any()
        assert np.array_equal(scaled_degenerate, degenerate)
        bounds = closed_form_bounds(distances, angles, ArrayGeometry(101, 0.01), make_waveform(), 1.0)
        scaled_bounds = closed_form_bounds(scaled_distances, angles, scaled_geometry, make_waveform(), 1.0)
        for name in ("j_rr", "j_tt", "j_rt", "radial", "transverse"):
            assert np.array_equal(getattr(scaled_bounds, name), getattr(bounds, name)), name

    @settings(max_examples=60, deadline=None)
    @given(
        bad=st.sampled_from(
            [
                (-1.0, 0.0),
                (0.0, 0.2),
                (-0.0, 0.2),
                (0.0, 2.0),
                (0.0, math.nan),
                (math.nan, 0.0),
                (1e-300, 0.0),
                (math.inf, 0.0),
                (2.0, math.pi / 2 + 1e-9),
                (2.0, -2.0),
                (2.0, math.nan),
                (2.0, math.inf),
            ]
        ),
        good=st.lists(st.floats(0.5, 50.0), max_size=20),
        position=st.integers(0, 20),
    )
    def test_bad_row_raises_the_one_target_error(self, bad, good, position):
        geometry = ArrayGeometry(11, 0.05)
        rows = [(d, 0.1) for d in good]
        rows.insert(position, bad)
        distances, angles = [d for d, _ in rows], [a for _, a in rows]
        # A batch takes the array centre, distance 0, as it takes a distance within 1e-12 aperture
        # of it: its row is checked as the one target 1e-300 m away, and only its angle can fail.
        stand_in = (bad[0] or 1e-300, bad[1])
        try:
            TargetState(*stand_in)
        except ValueError as exc:
            message = re.escape(str(exc))
        else:
            message = None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if message is None:
                # A degenerate row: the batch flags it, and only the one-target call raises.
                with pytest.raises(DegenerateGeometryError, match="array element or the array centre"):
                    element_distances(TargetState(*stand_in), geometry)
                flagged = [i == min(position, len(good)) for i in range(len(rows))]
                assert element_distances((distances, angles), geometry)[1].tolist() == flagged
                bounds = closed_form_bounds(distances, angles, geometry, make_waveform(), 1.0)
                assert bounds.degenerate.tolist() == flagged
            else:
                # A row TargetState rejects raises its error from a batch too.
                with pytest.raises(ValueError, match=message):
                    element_distances((distances, angles), geometry)
                with pytest.raises(ValueError, match=message):
                    closed_form_bounds(distances, angles, geometry, make_waveform(), 1.0)


def _sine_mismatches() -> list[float]:
    """Angles of ``[-pi/2, pi/2]`` whose ``_trig`` sine or cosine differs in any bit from per-point ``math.sin``'s."""
    tiny = np.finfo(float).tiny
    special = [0.0, 5e-324, 1e-320, tiny / 2, tiny, 1e-300, 1e-8, math.pi / 4, math.pi / 2 - 1e-9, math.pi / 2]
    random = np.random.default_rng(0).uniform(-math.pi / 2, math.pi / 2, 200_000)
    angles = np.concatenate((special, np.negative(special), random))
    expected = [[math.sin(a) for a in angles.tolist()], [_cos_angle(a) for a in angles.tolist()]]
    differs = (_trig(angles).view(np.int64) != np.array(expected).view(np.int64)).any(axis=0)
    return angles[differs].tolist()


class TestSines:
    def test_trig_takes_the_math_sine_in_process(self):
        assert _sine_mismatches() == []

    def test_trig_takes_the_math_sine_without_avx512(self):
        code = "from test_geometry import _sine_mismatches\nprint(_sine_mismatches())\n"
        assert run_without_avx512(code) == "[]\n"


_ARRAY = ArrayGeometry(4, 0.1)
_TARGET = TargetState(10.0, 0.0)

# Public entry points that take a positive quantity: id -> (key named, call with a value for it).
POSITIVE_INPUTS = {
    "ArrayGeometry": ("spacing", lambda v: ArrayGeometry(4, v)),
    "ArrayGeometry.half_wavelength": ("carrier", lambda v: ArrayGeometry.half_wavelength(4, v)),
    "TargetState": ("distance", lambda v: TargetState(v, 0.0)),
    "ChannelNoise-gain": ("gain", lambda v: ChannelNoise(v, 1.0)),
    "ChannelNoise-noise_variance": ("noise_variance", lambda v: ChannelNoise(1.0, v)),
    "ChannelNoise.from_snr": ("snr", lambda v: ChannelNoise.from_snr(make_waveform(), v)),
    "ChannelNoise.from_noise_figure-subcarrier_spacing": (
        "subcarrier_spacing",
        lambda v: ChannelNoise.from_noise_figure(2.0, v),
    ),
    "ChannelNoise.from_noise_figure-temperature": (
        "temperature",
        lambda v: ChannelNoise.from_noise_figure(2.0, 1e5, temperature=v),
    ),
    "MlSearchConfig": ("tolerance", lambda v: MlSearchConfig((0.0, 1.0), (0.0, 1.0), tolerance=v)),
    "closed_form_bounds": ("snr", lambda v: closed_form_bounds([1.0], [0.0], _ARRAY, make_waveform(), v)),
    "fisher_info_closed_form": ("snr", lambda v: fisher_info_closed_form(_TARGET, _ARRAY, make_waveform(), v)),
    "fisher_info_numeric": ("snr", lambda v: fisher_info_numeric(_TARGET, _ARRAY, make_waveform(), v)),
    "radial_crlb_far_field": ("snr", lambda v: radial_crlb_far_field(make_waveform(), 4, v)),
    "transverse_info_half_wavelength-distance": (
        "distance",
        lambda v: transverse_info_half_wavelength(v, 4, make_waveform(), 1.0),
    ),
    "transverse_info_half_wavelength-snr": (
        "snr",
        lambda v: transverse_info_half_wavelength(1.0, 4, make_waveform(), v),
    ),
}
for _key in ("carrier", "subcarrier_spacing", "symbol_time", "total_power"):
    POSITIVE_INPUTS[f"WaveformConfig-{_key}"] = (_key, lambda v, key=_key: make_waveform(**{key: v}))
for _key in ("radar_cross_section", "tx_gain", "rx_gain"):
    POSITIVE_INPUTS[f"snr_from_link_budget-{_key}"] = (
        _key,
        lambda v, key=_key: snr_from_link_budget(**{"distance": 1.0, "config": make_waveform(), key: v}),
    )
for _form in (radial_info_boresight, transverse_info_boresight, transverse_info_boresight_approx):
    POSITIVE_INPUTS[f"{_form.__name__}-distance"] = (
        "distance",
        lambda v, form=_form: form(v, _ARRAY, make_waveform(), 1.0),
    )
    POSITIVE_INPUTS[f"{_form.__name__}-snr"] = (
        "snr",
        lambda v, form=_form: form(1.0, _ARRAY, make_waveform(), v),
    )


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("entry", sorted(POSITIVE_INPUTS))
def test_non_positive_input_names_its_key(entry, value):
    key, call = POSITIVE_INPUTS[entry]
    with pytest.raises(ValueError, match=rf"^{key} must be positive, got "):
        call(value)


def _dispatch_with_seed(seed):
    # The command line parses the seed as an int, so a non-integer reaches the check only past the parser.
    args = cli.build_parser().parse_args(["sweep", "--out", os.devnull])
    sweep = {"variable": "distance", "start": 1.0, "stop": 2.0, "points": 2}
    with mock.patch.object(cli, "_parse_settings", return_value=({}, {"seed": seed, **sweep})):
        return cli._dispatch(args)


_MC_SCENARIO = Scenario(_TARGET, _ARRAY, make_waveform(), MlSearchConfig((0.0, 1.0), (0.0, 1.0)))

# Entry points that take a count: id -> (key named, floor, call with a value for it).
COUNT_INPUTS = {
    "ArrayGeometry": ("num_elements", 1, lambda v: ArrayGeometry(v, 0.1)),
    "symmetric_index_grid": ("count", 1, symmetric_index_grid),
    "WaveformConfig-num_subcarriers": ("num_subcarriers", 1, lambda v: make_waveform(num_subcarriers=v)),
    "WaveformConfig-num_symbols": ("num_symbols", 1, lambda v: make_waveform(num_symbols=v)),
    "radial_crlb_far_field": ("num_elements", 1, lambda v: radial_crlb_far_field(make_waveform(), v, 1.0)),
    "transverse_info_half_wavelength": (
        "num_elements",
        1,
        lambda v: transverse_info_half_wavelength(1.0, v, make_waveform(), 1.0),
    ),
    "MlSearchConfig": ("grid_points", 3, lambda v: MlSearchConfig((0.0, 1.0), (0.0, 1.0), grid_points=v)),
    "monte_carlo_reports-trials": ("trials", 100, lambda v: monte_carlo_reports(_MC_SCENARIO, [], v, 0)),
    "monte_carlo_reports-seed": ("seed", 0, lambda v: monte_carlo_reports(_MC_SCENARIO, [], 100, v)),
    "run_transverse_vs_distance": ("points", 1, lambda v: run_transverse_vs_distance(ScenarioConfig(), points=v)),
    "run_planar_map-x_points": ("x_points", 1, lambda v: run_planar_map(ScenarioConfig(), x_points=v, y_points=1)),
    "run_planar_map-y_points": ("y_points", 1, lambda v: run_planar_map(ScenarioConfig(), x_points=1, y_points=v)),
    "ScenarioConfig-aperture": (
        "num_elements",
        2,
        lambda v: ScenarioConfig(num_elements=v, aperture=0.5).geometry(),
    ),
    "run_sweep": ("points", 2, lambda v: run_sweep(ScenarioConfig(), "distance", 1.0, 2.0, points=v)),
    "cli._dispatch": ("seed", 0, _dispatch_with_seed),
}


@pytest.mark.parametrize(
    "bad", [lambda floor: floor - 1, lambda floor: floor + 0.5, float], ids=["below", "between", "float"]
)
@pytest.mark.parametrize("entry", sorted(COUNT_INPUTS))
def test_count_off_the_integers_at_its_floor_names_its_key(entry, bad):
    key, floor, call = COUNT_INPUTS[entry]
    with pytest.raises(ValueError, match=rf"^{key} must be an integer >= {floor}, got "):
        call(bad(floor))


@pytest.mark.parametrize("entry", sorted(COUNT_INPUTS))
def test_numpy_integer_count_at_its_floor_is_accepted(entry):
    _, floor, call = COUNT_INPUTS[entry]
    call(np.int64(floor))


# Past 2**53 a count no longer converts to float exactly; a seed never enters float arithmetic.
@pytest.mark.parametrize("value", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
@pytest.mark.parametrize("entry", sorted(entry for entry, (key, _, _) in COUNT_INPUTS.items() if key != "seed"))
def test_count_past_its_ceiling_names_its_key(entry, value):
    key, _, call = COUNT_INPUTS[entry]
    with pytest.raises(ValueError, match=rf"^{key} must be at most 9007199254740992, got {value}$"):
        call(value)


@pytest.mark.parametrize("entry", sorted(entry for entry, (key, _, _) in COUNT_INPUTS.items() if key == "seed"))
def test_seed_past_the_count_ceiling_is_accepted(entry):
    COUNT_INPUTS[entry][2](10**400)


def test_every_error_check_asserts_its_message():
    # A check of any exception class with neither match= nor an ``as`` target passes on a
    # numpy error or the wrong key.
    bare = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        items = [node for node in ast.walk(tree) if isinstance(node, ast.withitem)]
        bound = {id(item.context_expr) for item in items if item.optional_vars}
        bare += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "pytest.raises"
            and len(node.args) == 1
            and "match" not in {keyword.arg for keyword in node.keywords}
            and id(node) not in bound
        ]
    assert bare == []


# Positive inputs whose quotient leaves the float range: id -> (key named, call).  The
# noise floor P/snr overflows or underflows to 0; a boresight form's distance-squared
# denominator, 72 d**2 for half-wavelength spacing, 12 d**2 for the approximation and
# d**2 exactly, overflows.  Near the centre d**2 falls below the normal floats, or to 0 at
# 1e-200 m, and at 1.6e-154 m the 1/d**2 forms' quotient overflows.
FLOAT_RANGE_INPUTS = {
    "ChannelNoise.from_snr-floor-inf": (
        "snr",
        lambda: ChannelNoise.from_snr(make_waveform(total_power=1e300), 1e-10),
    ),
    "ChannelNoise.from_snr-floor-0": (
        "snr",
        lambda: ChannelNoise.from_snr(make_waveform(total_power=1e-300), 1e300),
    ),
}
# A 1/d**2 form takes a Python int or a numpy scalar as it takes a float: at 1e200 m the
# square overflows in Python's power, with no RuntimeWarning from numpy's.
for _d in (5e153, 2e154, 1.6e-154, 1e-160, 1e-200, 1e200):
    FLOAT_RANGE_INPUTS[f"transverse_info_half_wavelength-array-{_d:g}"] = (
        "distance",
        lambda d=_d: transverse_info_half_wavelength(np.array([1.0, d]), 101, make_waveform(), 1.0),
    )
    _kinds = {"": _d, "float64-": np.float64(_d)}
    if _d > 1.0:  # below 1 m an int is 0, which names distance as not positive
        _kinds["int-"] = int(_d)
    for _kind, _value in _kinds.items():
        FLOAT_RANGE_INPUTS[f"transverse_info_half_wavelength-{_kind}{_d:g}"] = (
            "distance",
            lambda d=_value: transverse_info_half_wavelength(d, 101, make_waveform(), 1.0),
        )
        for _aperture_form in (False, True):
            FLOAT_RANGE_INPUTS[f"transverse_info_boresight_approx-{_aperture_form}-{_kind}{_d:g}"] = (
                "distance",
                lambda d=_value, a=_aperture_form: transverse_info_boresight_approx(
                    d, _ARRAY, make_waveform(), 1.0, aperture_form=a
                ),
            )
FLOAT_RANGE_INPUTS["transverse_info_boresight-2e+154"] = (
    "distance",
    lambda: transverse_info_boresight(2e154, _ARRAY, make_waveform(), 1.0),
)
# A search span with an infinite end, or whose width overflows, would reach the grid's arithmetic;
# an int end past the float range has no float at all.
for _span in ("radial_span", "transverse_span"):
    for _name, _bad in (
        ("inf", (0.0, math.inf)),
        ("1e+308", (-1e308, 1e308)),
        ("10**400", (0, 10**400)),
        ("-10**400", (-(10**400), 0)),
    ):
        FLOAT_RANGE_INPUTS[f"MlSearchConfig-{_span}-{_name}"] = (
            _span,
            lambda key=_span, bad=_bad: MlSearchConfig(
                **{"radial_span": (0.0, 1.0), "transverse_span": (0.0, 1.0), key: bad}
            ),
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", sorted(FLOAT_RANGE_INPUTS))
def test_quotient_past_the_float_range_names_its_key(entry):
    key, call = FLOAT_RANGE_INPUTS[entry]
    with pytest.raises(ValueError, match=rf"^{key} .* the float range"):
        call()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exact_boresight_form_is_finite_where_its_square_is():
    # At 5e153 m the square 2.5e307 is finite: the exact form keeps its square law,
    # while the two forms whose denominators scale the square past the float range raise.
    far, nearer = (transverse_info_boresight(d, _ARRAY, make_waveform(), 1.0) for d in (5e153, 5e152))
    assert 0.0 < far < math.inf
    assert far * 100.0 == pytest.approx(nearer, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("distance", [1e-100, 2e-154, 1.5e-154, 1e-160, 1e-200, 5e-324])
@pytest.mark.parametrize("num_elements", [4, 5])
def test_exact_boresight_forms_tend_to_their_limit_near_the_centre(distance, num_elements):
    # Each off-centre element's transverse share tends to the weight w, and its radial
    # share (1 + 1/sqrt(1 + (k delta/d)**2))**2 to w as well; the centre element's are 0 and 4 w.
    geometry, wf = ArrayGeometry(num_elements, 0.1), make_waveform()
    weight = _boresight_weight(wf, 1.0)
    radial = (4.0 + 4.0 * (num_elements % 2)) * weight
    assert transverse_info_boresight(distance, geometry, wf, 1.0) == pytest.approx(4.0 * weight, rel=1e-12)
    assert radial_info_boresight(distance, geometry, wf, 1.0) == pytest.approx(radial, rel=1e-12)
    batch = radial_info_boresight(np.array([1.0, distance]), geometry, wf, 1.0)
    assert batch[1] == radial_info_boresight(distance, geometry, wf, 1.0)


def test_exact_transverse_form_takes_one_distance():
    with pytest.raises(ValueError, match=r"^distance must be one float, got array\("):
        transverse_info_boresight(np.array([1.0, 2.0]), _ARRAY, make_waveform(), 1.0)
