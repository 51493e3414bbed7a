"""Tests for the Fisher information routes and the velocity variance bounds."""

import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nfvel import (
    ArrayGeometry,
    CrlbResult,
    DegenerateGeometryError,
    FisherInfo,
    MlSearchConfig,
    Scenario,
    TargetState,
    closed_form_bounds,
    crlb_from_fisher,
    crossover_distance,
    fisher_info_closed_form,
    fisher_info_numeric,
    monte_carlo_mse,
    monte_carlo_reports,
    radial_crlb_far_field,
    radial_info_boresight,
    transverse_info_boresight,
    transverse_info_boresight_approx,
    transverse_info_half_wavelength,
)
from nfvel.bounds import _CHUNK_ELEMENTS, _SINGULAR_RTOL, _crlb
from nfvel.constants import SPEED_OF_LIGHT
from nfvel.geometry import _COINCIDENCE_RTOL, _POINT_BLOCK, _cos_angle
from nfvel.waveform import subcarrier_frequencies

from conftest import array_line_rows, make_waveform

# The whole message of a target on an element or at the array centre.
_ON_ELEMENT = f"^{re.escape(str(DegenerateGeometryError()))}$"

# Frozen reference values, recomputed independently from the defining formulas
# before being pinned here.
FAR_FIELD_CRLB_REFERENCE = 5.732666385693405e-08  # 28 GHz, M=14, N=1, K=101, snr=1, T=16.6 ms
CROSSOVER_101_HALFWAVE_28GHZ = 0.07727020371755339


def _random_scene(rng):
    geom = ArrayGeometry(
        num_elements=int(rng.integers(2, 12)),
        spacing=float(rng.uniform(0.002, 0.08)),
    )
    wf = make_waveform(
        carrier=float(rng.uniform(2e9, 40e9)),
        num_subcarriers=int(rng.integers(1, 5)),
        num_symbols=int(rng.integers(2, 9)),
        symbol_time=float(rng.uniform(1e-4, 5e-3)),
    )
    target = TargetState(
        distance=float(rng.uniform(0.5, 200.0)),
        angle=float(rng.uniform(-1.4, 1.4)),
        radial_velocity=float(rng.uniform(-30, 30)),
        transverse_velocity=float(rng.uniform(-30, 30)),
    )
    snr = float(rng.uniform(0.05, 500.0))
    return target, geom, wf, snr


_ANGLES = st.one_of(
    st.sampled_from([-math.pi / 2, 0.0, math.pi / 2]),
    st.floats(-math.pi / 2, math.pi / 2),
)


@st.composite
def _scenes(draw, min_elements=1):
    """(geometry, waveform, snr, distance) for a target off every element."""
    num_elements = draw(st.integers(min_elements, 64), label="K")
    spacing = draw(st.floats(0.002, 0.08), label="spacing")
    geom = ArrayGeometry(num_elements, spacing)
    wf = make_waveform(
        carrier=draw(st.floats(2e9, 40e9), label="carrier"),
        num_subcarriers=draw(st.integers(1, 4), label="N"),
        num_symbols=draw(st.integers(2, 8), label="M"),
    )
    snr = draw(st.floats(0.01, 1e4), label="snr")
    distance = draw(st.floats(0.5 * spacing, 500.0), label="distance")
    # An end-fire target must stay off the elements, which sit a whole or a
    # half number of spacings from the centre.
    offset = distance / spacing + (num_elements - 1) / 2.0
    assume(abs(offset - round(offset)) > 1e-6)
    return geom, wf, snr, distance


class TestRouteAgreement:
    def test_numeric_matches_closed_form_randomized(self):
        rng = np.random.default_rng(20240817)
        for _ in range(25):
            target, geom, wf, snr = _random_scene(rng)
            numeric = fisher_info_numeric(target, geom, wf, snr)
            closed = fisher_info_closed_form(target, geom, wf, snr)
            assert numeric.j_rr == pytest.approx(closed.j_rr, rel=1e-10)
            assert numeric.j_tt == pytest.approx(closed.j_tt, rel=1e-10, abs=1e-20)
            assert numeric.j_rt == pytest.approx(closed.j_rt, rel=1e-10, abs=1e-20)

    def test_numeric_ignores_target_velocity(self):
        rng = np.random.default_rng(3)
        geom = ArrayGeometry(num_elements=7, spacing=0.01)
        wf = make_waveform(num_symbols=5)
        for _ in range(5):
            base = TargetState(8.0, 0.4, 0.0, 0.0)
            moving = TargetState(
                8.0,
                0.4,
                radial_velocity=float(rng.uniform(-50, 50)),
                transverse_velocity=float(rng.uniform(-50, 50)),
            )
            a = fisher_info_numeric(base, geom, wf, 2.0)
            b = fisher_info_numeric(moving, geom, wf, 2.0)
            assert b.j_rr == pytest.approx(a.j_rr, rel=1e-12)
            assert b.j_tt == pytest.approx(a.j_tt, rel=1e-12)
            assert b.j_rt == pytest.approx(a.j_rt, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(scene=_scenes(), angle=_ANGLES)
    def test_information_is_positive_semidefinite(self, scene, angle):
        geom, wf, snr, distance = scene
        info = fisher_info_closed_form(TargetState(distance, angle), geom, wf, snr)
        matrix = np.array([[info.j_rr, info.j_rt], [info.j_rt, info.j_tt]])
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert eigenvalues[0] >= -1e-12 * eigenvalues[1]
        assert info.j_rr >= 0.0
        assert info.j_tt >= 0.0
        cauchy = math.sqrt(info.j_rr * info.j_tt)
        assert abs(info.j_rt) <= cauchy * (1.0 + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(scene=_scenes(), angle=_ANGLES)
    def test_mirrored_angle_flips_only_the_coupling(self, scene, angle):
        # The array is symmetric about its centre, so theta -> -theta only
        # reverses the element order.
        geom, wf, snr, distance = scene
        info = fisher_info_closed_form(TargetState(distance, angle), geom, wf, snr)
        mirror = fisher_info_closed_form(TargetState(distance, -angle), geom, wf, snr)
        assert mirror.j_rr == pytest.approx(info.j_rr, rel=1e-12, abs=0.0)
        assert mirror.j_tt == pytest.approx(info.j_tt, rel=1e-12, abs=0.0)
        assert abs(mirror.j_rt + info.j_rt) <= 1e-12 * math.sqrt(info.j_rr * info.j_tt)

    @settings(max_examples=60, deadline=None)
    @given(scene=_scenes(min_elements=2), factor=st.floats(1.0 + 1e-6, 100.0))
    def test_boresight_transverse_information_falls_with_distance(self, scene, factor):
        geom, wf, snr, distance = scene
        near = fisher_info_closed_form(TargetState(distance, 0.0), geom, wf, snr)
        far = fisher_info_closed_form(TargetState(distance * factor, 0.0), geom, wf, snr)
        assert far.j_tt < near.j_tt

    def test_information_scales_linearly_with_snr(self):
        geom = ArrayGeometry(num_elements=9, spacing=0.02)
        wf = make_waveform(num_symbols=6)
        target = TargetState(5.0, 0.7)
        lo = fisher_info_closed_form(target, geom, wf, 1.0)
        hi = fisher_info_closed_form(target, geom, wf, 8.0)
        assert hi.j_rr == pytest.approx(8.0 * lo.j_rr, rel=1e-14)
        assert hi.j_tt == pytest.approx(8.0 * lo.j_tt, rel=1e-14)
        assert hi.j_rt == pytest.approx(8.0 * lo.j_rt, rel=1e-14)


def _normal_or_zero(product, *factors):
    """Whether ``product`` of ``factors`` rounds as a normal float: nonzero, or zero exactly."""
    return sys.float_info.min <= abs(product) < math.inf or 0.0 in factors


def _one_row_crlb(row):
    """The variance bounds and singular flag :func:`_crlb` gives one row."""
    (radial, transverse), _, singular = _crlb(*np.array(row, dtype=float).reshape(3, 1))
    return radial.item(), transverse.item(), singular.item()


def _scalar_crlb(j_rr, j_tt, j_rt):
    """Oracle: ``(radial, transverse, singular, rel)`` of one matrix, from the textbook inverse.

    The matrix is singular when its determinant is at most 1e-12 of the diagonal
    product, and negative definite below -1e-9 of it.  Where ``j_rr * j_tt`` and
    ``j_rt * j_rt`` round as normal floats, the bounds are ``j_tt / det`` and
    ``j_rr / det``, which the kernel must equal bit for bit (``rel`` 0); ``j_rt`` is
    squared by multiplication, since ``j_rt**2`` on a Python float calls C ``pow``,
    which rounds differently for about one double in 1200.  Elsewhere the tests
    read ``1 - rho**2`` with ``rho**2 = j_rt**2 / (j_rr * j_tt)``, the bounds are
    ``1 / (j_rr * (1 - rho**2))`` and ``1 / (j_tt * (1 - rho**2))``, and ``rel``
    allows 1e-12 of the diagonal product on the determinant.
    """
    row = (j_rr, j_tt, j_rt)
    if j_rr < 0.0 or j_tt < 0.0:
        raise ValueError(f"information diagonal must be nonnegative, got {row}")
    exact = _normal_or_zero(j_rr * j_tt, j_rr, j_tt) and _normal_or_zero(j_rt * j_rt, j_rt)
    if exact:
        diag_product = j_rr * j_tt
        det = diag_product - j_rt * j_rt
        negative, singular = det < -1e-9 * diag_product, det <= 1e-12 * diag_product
    else:
        # The determinant over the diagonal product.
        det = 1.0 - (j_rt / math.sqrt(j_rr) / math.sqrt(j_tt)) ** 2
        negative, singular = det < -1e-9, det <= 1e-12
    if negative:
        raise ValueError(f"information matrix is negative definite: {row}")
    if singular:
        radial = 1.0 / j_rr if j_rr > 0.0 else math.inf
        transverse = 1.0 / j_tt if (j_tt > 0.0 and j_rr == 0.0) else math.inf
        return radial, transverse, True, 0.0
    if exact:
        return j_tt / det, j_rr / det, False, 0.0
    return 1.0 / (j_rr * det), 1.0 / (j_tt * det), False, 1e-12 / det


# Positive entries across the float range: a product of two can under- or overflow.
_ENTRY = st.floats(1e-300, 1e300)


@st.composite
def _information_rows(draw, bad=False):
    """(j_rr, j_tt, j_rt) rows: generic, a zero diagonal entry, or a determinant near -1e-9*diag.

    With ``bad`` the rows are ones the inverse rejects: a negative diagonal
    entry, or a determinant further below -1e-9 times the diagonal product.
    Every kind is drawn at any scale.
    """
    j_rr, j_tt = draw(_ENTRY), draw(_ENTRY)
    # sqrt(j_rr * j_tt) without the product, which can leave the float range.
    root = math.sqrt(j_rr) * math.sqrt(j_tt)
    if bad:
        if draw(st.booleans()):
            negative = -draw(_ENTRY)
            return draw(st.sampled_from([(negative, j_tt, 0.0), (j_rr, negative, 1.0)]))
        return j_rr, j_tt, root * math.sqrt(1.0 + draw(st.floats(1.1e-9, 1e-3)))
    kind = draw(st.sampled_from(["generic", "zero_rr", "zero_tt", "inside"]))
    if kind == "generic":
        return j_rr, j_tt, draw(st.floats(-1.0, 1.0)) * root
    if kind == "zero_rr":
        return 0.0, draw(st.sampled_from([0.0, j_tt])), 0.0
    if kind == "zero_tt":
        return j_rr, 0.0, 0.0
    # A determinant just inside the -1e-9*diag rounding allowance: singular.
    return j_rr, j_tt, root * math.sqrt(1.0 + draw(st.floats(0.0, 0.9e-9)))


def _quarter_shifts(entry, bound):
    """The i in [-400, 400] for which ``entry * 4**i`` and ``bound / 4**i`` stay normal.

    Zero and infinite values hold at any i.
    """
    low, high = -400, 400
    for value, sign in ((entry, 1), (bound, -1)):
        if 0.0 < value < math.inf:
            # value * 2**k is normal for k in [-1021 - e, 1024 - e].
            e = math.frexp(value)[1]
            k_low, k_high = (-1021 - e, 1024 - e) if sign > 0 else (e - 1024, e + 1021)
            low, high = max(low, -(-k_low // 2)), min(high, k_high // 2)
    return low, high


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestArrayInverse:
    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(_information_rows(), max_size=30))
    @example(rows=[(0.0, 4.0, 0.0), (5.0, 0.0, 0.0), (2.0, 3.0, math.sqrt(6.0 * (1.0 + 0.5e-9)))])
    # The default scene at -1700 dB, whose diagonal product underflows, and at +2000 dB,
    # whose diagonal product overflows.
    @example(
        rows=[
            (1.7441765793971365e-163, 1.0618844658247012e-167, -1.4980358880668507e-182),
            (1.744176579397137e207, 1.0618844658247013e203, -1.4980358880668508e188),
        ]
    )
    def test_rows_equal_the_scalar_inverse(self, rows):
        (radial, transverse), _, singular = _crlb(*np.array(rows, dtype=float).reshape(-1, 3).T)
        expected = [_scalar_crlb(*row) for row in rows]
        assert singular.tolist() == [s for _, _, s, _ in expected]
        for got, (*want, _, rel) in zip(zip(radial.tolist(), transverse.tolist()), expected):
            if rel:
                assert list(got) == pytest.approx(want, rel=rel, abs=0.0)
            else:
                assert _bits(got) == _bits(want)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(_information_rows(), max_size=10),
        bad_rows=st.lists(_information_rows(bad=True), min_size=1, max_size=3),
        position=st.integers(0, 10),
    )
    @example(rows=[(1.0, 1.0, 0.0)], bad_rows=[(2.0, 3.0, math.sqrt(6.0 * (1.0 + 2e-9)))], position=1)
    def test_first_bad_row_raises_the_scalar_error(self, rows, bad_rows, position):
        rows = rows[:position] + bad_rows + rows[position:]
        with pytest.raises(ValueError) as expected:
            for row in rows:
                _scalar_crlb(*row)
        with pytest.raises(ValueError) as raised:
            _crlb(*np.array(rows, dtype=float).T)
        assert str(raised.value) == str(expected.value)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_power_of_two_scaling_scales_the_bounds_exactly(self, data):
        row = data.draw(_information_rows())
        radial, transverse, singular = _one_row_crlb(row)
        # A bound that overflowed has no exact scaled value to compare with.
        assume(singular or (math.isfinite(radial) and math.isfinite(transverse)))
        i = data.draw(st.integers(*_quarter_shifts(row[0], radial)))
        j_low, j_high = _quarter_shifts(row[1], transverse)
        if row[2]:
            # j_rt * 2**(i + j) is normal for i + j in [-1021 - e, 1024 - e].
            e = math.frexp(row[2])[1]
            j_low, j_high = max(j_low, -1021 - e - i), min(j_high, 1024 - e - i)
        assume(j_low <= j_high)
        j = data.draw(st.integers(j_low, j_high))
        scaled = (math.ldexp(row[0], 2 * i), math.ldexp(row[1], 2 * j), math.ldexp(row[2], i + j))
        got = _one_row_crlb(scaled)
        assert got[2] == singular
        assert _bits(got[:2]) == _bits([math.ldexp(radial, -2 * i), math.ldexp(transverse, -2 * j)])

    def test_large_diagonal_inverts(self):
        result = crlb_from_fisher(FisherInfo(1e200, 1e200, 0.0))
        assert not result.singular
        assert result.radial == result.transverse == pytest.approx(1e-200, rel=1e-15)

    @pytest.mark.parametrize(
        "info",
        [
            # A coupling 1e400 times the root of the diagonal product.
            FisherInfo(1e-200, 1e-200, 1e200),
            FisherInfo(1.0, 1.0, 1e200),
            FisherInfo(math.inf, 1.0, 0.0),
            FisherInfo(math.nan, 1.0, 0.0),
        ],
    )
    def test_matrix_without_a_finite_determinant_raises(self, info):
        # Finite entries whose coupling squares past the float range are indefinite;
        # only an entry that is not finite overflows.
        finite = all(map(math.isfinite, (info.j_rr, info.j_tt, info.j_rt)))
        with pytest.raises(ValueError, match="negative definite" if finite else "overflows; reduce carrier"):
            crlb_from_fisher(info)


class TestCrlbFromFisher:
    def test_identity_matrix(self):
        result = crlb_from_fisher(FisherInfo(1.0, 1.0, 0.0))
        assert result == CrlbResult(radial=1.0, transverse=1.0, singular=False)

    def test_diagonal_matrix(self):
        result = crlb_from_fisher(FisherInfo(4.0, 0.25, 0.0))
        assert result.radial == pytest.approx(0.25)
        assert result.transverse == pytest.approx(4.0)
        assert not result.singular

    def test_matches_matrix_inverse_on_random_spd(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            b = rng.standard_normal((2, 2))
            mat = b @ b.T + 0.05 * np.eye(2)
            info = FisherInfo(j_rr=mat[0, 0], j_tt=mat[1, 1], j_rt=mat[0, 1])
            inverse = np.linalg.inv(mat)
            result = crlb_from_fisher(info)
            assert not result.singular
            assert result.radial == pytest.approx(inverse[0, 0], rel=1e-10)
            assert result.transverse == pytest.approx(inverse[1, 1], rel=1e-10)

    def test_negative_diagonal_raises(self):
        for row in ((-1.0, 1.0, 0.0), (1.0, -1.0, 0.0)):
            message = f"^information diagonal must be nonnegative, got {re.escape(str(row))}$"
            with pytest.raises(ValueError, match=message):
                crlb_from_fisher(FisherInfo(*row))

    def test_indefinite_matrix_raises(self):
        with pytest.raises(ValueError, match=r"^information matrix is negative definite: \(1.0, 1.0, 2.0\)$"):
            crlb_from_fisher(FisherInfo(1.0, 1.0, 2.0))

    def test_null_matrix_is_fully_unidentifiable(self):
        result = crlb_from_fisher(FisherInfo(0.0, 0.0, 0.0))
        assert result.singular
        assert math.isinf(result.radial)
        assert math.isinf(result.transverse)

    def test_transverse_only_singularity_keeps_radial(self):
        result = crlb_from_fisher(FisherInfo(5.0, 0.0, 0.0))
        assert result.singular
        assert result.radial == pytest.approx(0.2)
        assert math.isinf(result.transverse)

    def test_radial_only_singularity_keeps_transverse(self):
        result = crlb_from_fisher(FisherInfo(0.0, 4.0, 0.0))
        assert result.singular
        assert math.isinf(result.radial)
        assert result.transverse == pytest.approx(0.25)

    def test_rank_one_matrix_is_singular(self):
        # outer product of a single direction: one linear combination is
        # observable, neither component alone is
        a, b = 1.3, -0.7
        info = FisherInfo(j_rr=a * a, j_tt=b * b, j_rt=a * b)
        result = crlb_from_fisher(info)
        assert result.singular
        assert result.radial == pytest.approx(1.0 / (a * a))
        assert math.isinf(result.transverse)

    def test_bounds_are_the_diagonal_of_the_matrix_inverse(self):
        matrix = np.array([[3.0, 1.0], [1.0, 2.0]])
        assert np.linalg.det(matrix) == pytest.approx(5.0)
        result = crlb_from_fisher(FisherInfo(j_rr=3.0, j_tt=2.0, j_rt=1.0))
        assert not result.singular
        inverse = np.linalg.inv(matrix)
        assert result.radial == pytest.approx(inverse[0, 0])
        assert result.transverse == pytest.approx(inverse[1, 1])


class TestFarField:
    def test_reference_value(self):
        wf = make_waveform()
        assert radial_crlb_far_field(wf, 101, 1.0) == pytest.approx(
            FAR_FIELD_CRLB_REFERENCE, rel=1e-12
        )

    def test_single_symbol_is_unidentifiable(self):
        wf = make_waveform(num_symbols=1)
        assert math.isinf(radial_crlb_far_field(wf, 101, 1.0))

    def test_scaling_laws(self):
        wf = make_waveform()
        base = radial_crlb_far_field(wf, 64, 1.0)
        assert radial_crlb_far_field(wf, 64, 2.0) == pytest.approx(base / 2, rel=1e-14)
        assert radial_crlb_far_field(wf, 128, 1.0) == pytest.approx(base / 2, rel=1e-14)
        doubled_t = make_waveform(symbol_time=2 * 16.6e-3)
        assert radial_crlb_far_field(doubled_t, 64, 1.0) == pytest.approx(base / 4, rel=1e-14)
        doubled_f = make_waveform(carrier=2 * 28e9)
        assert radial_crlb_far_field(doubled_f, 64, 1.0) == pytest.approx(base / 4, rel=1e-14)

    def test_matches_distant_numeric_bound(self):
        # at extreme range the full bound must collapse onto the far-field form
        geom = ArrayGeometry.half_wavelength(31, 28e9)
        wf = make_waveform(num_symbols=8)
        target = TargetState(distance=1e6, angle=0.3)
        info = fisher_info_closed_form(target, geom, wf, 2.0)
        bound = crlb_from_fisher(info)
        far = radial_crlb_far_field(wf, 31, 2.0)
        assert bound.radial == pytest.approx(far, rel=1e-3)


class TestBoresightForms:
    def test_radial_matches_generic_closed_form(self):
        wf = make_waveform()  # single subcarrier: both routes see the same frequency
        geom = ArrayGeometry.half_wavelength(51, 28e9)
        for d in (0.05, 0.5, 5.0, 500.0):
            target = TargetState(distance=d, angle=0.0)
            expected = fisher_info_closed_form(target, geom, wf, 3.0).j_rr
            assert radial_info_boresight(d, geom, wf, 3.0) == pytest.approx(expected, rel=1e-12)

    def test_transverse_matches_generic_closed_form(self):
        wf = make_waveform()
        geom = ArrayGeometry.half_wavelength(51, 28e9)
        for d in (0.05, 0.5, 5.0, 500.0):
            target = TargetState(distance=d, angle=0.0)
            expected = fisher_info_closed_form(target, geom, wf, 3.0).j_tt
            assert transverse_info_boresight(d, geom, wf, 3.0) == pytest.approx(
                expected, rel=1e-12
            )

    def test_single_element_radial_info(self):
        # one element on boresight sees q = 1 exactly, so j_rr is 4x the
        # far-field per-element value, i.e. 1/j_rr equals the K=1 far bound
        wf = make_waveform()
        geom = ArrayGeometry(num_elements=1, spacing=0.005)
        j_rr = radial_info_boresight(10.0, geom, wf, 1.0)
        assert 1.0 / j_rr == pytest.approx(radial_crlb_far_field(wf, 1, 1.0), rel=1e-14)

    def test_single_element_has_no_transverse_info(self):
        wf = make_waveform()
        geom = ArrayGeometry(num_elements=1, spacing=0.005)
        assert transverse_info_boresight(10.0, geom, wf, 1.0) == 0.0

    def test_radial_info_approaches_far_field_limit(self):
        wf = make_waveform()
        geom = ArrayGeometry.half_wavelength(101, 28e9)
        d = 100.0 * geom.aperture
        j_rr = radial_info_boresight(d, geom, wf, 1.0)
        assert 1.0 / j_rr == pytest.approx(radial_crlb_far_field(wf, 101, 1.0), rel=1e-4)

    def test_approx_transverse_close_at_moderate_range(self):
        wf = make_waveform()
        geom = ArrayGeometry.half_wavelength(101, 28e9)
        d = 10.0 * geom.aperture
        exact = transverse_info_boresight(d, geom, wf, 1.0)
        approx = transverse_info_boresight_approx(d, geom, wf, 1.0)
        assert approx == pytest.approx(exact, rel=1e-2)
        assert approx >= exact  # dropping the denominator only increases the sum

    def test_aperture_form_ratio(self):
        # the aperture-based variant replaces (K^2-1)*delta^2 by ((K-1)*delta)^2
        wf = make_waveform()
        geom = ArrayGeometry(num_elements=21, spacing=0.004)
        spacing_form = transverse_info_boresight_approx(3.0, geom, wf, 1.0)
        aperture_form = transverse_info_boresight_approx(3.0, geom, wf, 1.0, aperture_form=True)
        assert aperture_form == pytest.approx(spacing_form * 20.0 / 22.0, rel=1e-13)

    def test_multicarrier_narrowband_tolerance(self):
        # boresight helpers fold all subcarriers at the carrier frequency;
        # with a 1.44 MHz span on a 28 GHz carrier the gap is ~1e-10 relative
        wf = make_waveform(num_subcarriers=12)
        geom = ArrayGeometry.half_wavelength(31, 28e9)
        target = TargetState(distance=4.0, angle=0.0)
        generic = fisher_info_closed_form(target, geom, wf, 1.0)
        assert radial_info_boresight(4.0, geom, wf, 1.0) == pytest.approx(
            generic.j_rr, rel=1e-8
        )
        assert transverse_info_boresight(4.0, geom, wf, 1.0) == pytest.approx(
            generic.j_tt, rel=1e-8
        )


class TestHalfWavelength:
    def test_carrier_drops_out(self):
        low = make_waveform(carrier=6e9)
        high = make_waveform(carrier=28e9)
        a = transverse_info_half_wavelength(2.0, 101, low, 1.0)
        b = transverse_info_half_wavelength(2.0, 101, high, 1.0)
        assert a == b  # bitwise: the formula never reads the carrier

    def test_consistent_with_spacing_form(self):
        # substituting delta = c/(2 f_c) into the generic approximation must
        # land on the carrier-free expression
        for carrier in (6e9, 28e9, 77e9):
            wf = make_waveform(carrier=carrier)
            geom = ArrayGeometry.half_wavelength(41, carrier)
            direct = transverse_info_half_wavelength(7.0, 41, wf, 2.0)
            generic = transverse_info_boresight_approx(7.0, geom, wf, 2.0)
            assert direct == pytest.approx(generic, rel=1e-12)

    def test_inverse_square_distance(self):
        wf = make_waveform()
        near = transverse_info_half_wavelength(1.0, 65, wf, 1.0)
        far = transverse_info_half_wavelength(10.0, 65, wf, 1.0)
        assert near == pytest.approx(100.0 * far, rel=1e-14)


class TestCrossover:
    def test_reference_value(self):
        geom = ArrayGeometry.half_wavelength(101, 28e9)
        assert crossover_distance(geom) == pytest.approx(
            CROSSOVER_101_HALFWAVE_28GHZ, rel=1e-12
        )

    def test_bounds_coincide_at_crossover(self):
        # at the crossover range the far-field radial bound equals the
        # reciprocal of the aperture-form transverse information
        wf = make_waveform()
        geom = ArrayGeometry.half_wavelength(101, 28e9)
        d = crossover_distance(geom)
        radial = radial_crlb_far_field(wf, 101, 1.0)
        transverse = 1.0 / transverse_info_boresight_approx(
            d, geom, wf, 1.0, aperture_form=True
        )
        assert transverse == pytest.approx(radial, rel=1e-9)

    def test_ordering_flips_around_crossover(self):
        wf = make_waveform()
        geom = ArrayGeometry.half_wavelength(101, 28e9)
        d = crossover_distance(geom)
        radial = radial_crlb_far_field(wf, 101, 1.0)

        def transverse_bound(dist):
            return 1.0 / transverse_info_boresight_approx(
                dist, geom, wf, 1.0, aperture_form=True
            )

        assert transverse_bound(0.5 * d) < radial
        assert transverse_bound(2.0 * d) > radial

    def test_scales_with_aperture(self):
        small = ArrayGeometry(num_elements=11, spacing=0.01)
        large = ArrayGeometry(num_elements=11, spacing=0.03)
        assert crossover_distance(large) == pytest.approx(
            3.0 * crossover_distance(small), rel=1e-14
        )


def _summed_weight(config, snr):
    """The kernel's per-point weight, summed over the subcarriers in its operation order."""
    m_count = config.num_symbols
    head = 2.0 * math.pi**2 * subcarrier_frequencies(config) ** 2 * m_count
    weights = head * snr * (m_count**2 - 1) * config.symbol_time**2
    return np.sum(weights / (3.0 * SPEED_OF_LIGHT**2))


def _reference_entries(distance, angle, geometry, config, snr):
    """``(j_rr, j_tt, j_rt)`` of one point, one operation at a time; None if degenerate.

    The element distances are ``sqrt((x - d*sin)**2 + (d*cos)**2)``, and the
    entries come from four moments of ``u = 1/d_k``: with ``q = (d - x*sin)*u``,
    ``p = x*cos*u`` and ``q**2 + p**2 = 1``, the sums of ``(1 + q)**2``, ``p**2``
    and ``p*(1 + q)`` are ``2K + 2*(d*sum(u) - sin*sum(x*u)) - sum(p**2)``,
    ``cos**2 * sum(x*x*u*u)`` and ``cos*(sum(x*u) + d*sum(x*u*u) - sin*sum(x*x*u*u))``.
    The distances are taken in units of the power of two just above ``max(d, aperture)``,
    which changes no bit where metres neither overflow nor underflow.
    """
    if distance <= _COINCIDENCE_RTOL * geometry.aperture:
        return None
    x = geometry.element_x_positions
    sin_angle, cos_angle = math.sin(angle), _cos_angle(angle)
    unit = math.ldexp(1.0, math.frexp(max(distance, geometry.aperture))[1])
    across = distance / unit * cos_angle
    d_k = np.sqrt((x / unit - distance / unit * sin_angle) ** 2 + across * across) * unit
    if np.any(d_k <= _COINCIDENCE_RTOL * max(distance, geometry.aperture)):
        return None
    weight = _summed_weight(config, snr)
    u = 1.0 / d_k
    x_u = x * u
    x_u2 = x_u * u
    x2_u2 = x * x_u2
    sum_p2 = cos_angle * cos_angle * np.sum(x2_u2)
    return [
        weight * (2.0 * geometry.num_elements + 2.0 * (distance * np.sum(u) - sin_angle * np.sum(x_u)) - sum_p2),
        weight * sum_p2,
        weight * (cos_angle * (np.sum(x_u) + distance * np.sum(x_u2) - sin_angle * np.sum(x2_u2))),
    ]


def _long_double_bounds(distance, angle, geometry, weight):
    """``(j_rr, j_tt, j_rt, radial, transverse)`` of one point in ``np.longdouble``.

    The sums of ``(1 + q)**2``, ``p**2`` and ``p*(1 + q)`` are taken as defined, from the
    float inputs the kernel sees: the distance, ``math``'s sine and cosine, the element
    positions and the summed weight.  A singular matrix has an infinite transverse bound.
    """
    x = geometry.element_x_positions.astype(np.longdouble)
    d, sin, cos = (np.longdouble(v) for v in (distance, math.sin(angle), _cos_angle(angle)))
    d_k = np.sqrt((x - d * sin) ** 2 + (d * cos) ** 2)
    one_plus_q, p = 1 + (d - x * sin) / d_k, x * cos / d_k
    j_rr, j_tt, j_rt = (np.longdouble(weight) * np.sum(v) for v in (one_plus_q**2, p * p, p * one_plus_q))
    det = j_rr * j_tt - j_rt * j_rt
    if det <= _SINGULAR_RTOL * j_rr * j_tt:
        return j_rr, j_tt, j_rt, 1 / j_rr, np.longdouble(math.inf)
    return j_rr, j_tt, j_rt, j_tt / det, j_rr / det


class TestBatchKernel:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_entries_equal_a_one_operation_at_a_time_reference(self, data):
        k = data.draw(st.sampled_from([1, 2, 5, 101, 2048, 16385]), label="K")
        geom = ArrayGeometry(k, data.draw(st.floats(0.002, 0.08), label="spacing"))
        wf = make_waveform(
            carrier=data.draw(st.floats(2e9, 40e9), label="carrier"),
            num_subcarriers=data.draw(st.integers(1, 3), label="N"),
            num_symbols=data.draw(st.integers(2, 6), label="M"),
        )
        chunk_rows = max(_CHUNK_ELEMENTS // k, 1)
        count = data.draw(st.integers(1, min(2 * chunk_rows + 1, 24)), label="P")
        x = geom.element_x_positions
        row = st.one_of(
            st.tuples(st.floats(0.05, 200.0), _ANGLES),
            array_line_rows(geom),
            # On an element at end-fire, and at the array centre.
            st.sampled_from(x.tolist()).map(lambda x_k: (abs(x_k) or 1e-300, math.pi / 2)),
        )
        rows = data.draw(st.lists(row, min_size=count, max_size=count), label="rows")
        snrs = data.draw(st.lists(st.floats(0.01, 1e4), min_size=count, max_size=count))
        distances, angles = [d for d, _ in rows], [a for _, a in rows]

        batch = closed_form_bounds(distances, angles, geom, wf, snrs)
        for i, (d, angle, snr) in enumerate(zip(distances, angles, snrs)):
            expected = _reference_entries(d, angle, geom, wf, snr)
            got = [batch.j_rr[i], batch.j_tt[i], batch.j_rt[i]]
            assert batch.degenerate[i] == (expected is None)
            assert np.array_equal(got, [0.0, 0.0, 0.0] if expected is None else expected)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="longdouble is float64")
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_entries_and_bounds_match_a_long_double_reference(self, data):
        # Near an element the radicand form d*sqrt(1 + r**2 - 2*r*sin) cancelled: 1e-4
        # spacings above one, it put crlb_vt at K=16385 off by up to 0.3 relative.
        k = data.draw(st.sampled_from([5, 101, 2048, 16385]), label="K")
        geom = ArrayGeometry(k, data.draw(st.floats(0.002, 0.08), label="spacing"))
        wf = make_waveform(carrier=data.draw(st.floats(2e9, 40e9), label="carrier"))
        x = geom.element_x_positions
        row = st.one_of(
            # 1e-4 to 0.1 spacings above an element.
            st.tuples(st.sampled_from(x.tolist()), st.floats(1e-4, 0.1)).map(
                lambda t: (math.hypot(t[0], t[1] * geom.spacing), math.atan2(t[0], t[1] * geom.spacing))
            ),
            # End-fire, on the array line between or past the elements.
            st.tuples(st.floats(0.05, 200.0), st.sampled_from([-math.pi / 2, math.pi / 2])),
            # The far field, 1e3 to 1e6 apertures away.
            st.tuples(st.floats(1e3, 1e6).map(lambda f: f * geom.aperture), _ANGLES),
        )
        rows = data.draw(st.lists(row, min_size=1, max_size=4), label="rows")
        distances, angles = [d for d, _ in rows], [a for _, a in rows]

        batch = closed_form_bounds(distances, angles, geom, wf, 1.0)
        weight = _summed_weight(wf, 1.0)
        for i, (d, angle) in enumerate(zip(distances, angles)):
            if batch.degenerate[i]:
                assert _reference_entries(d, angle, geom, wf, 1.0) is None
                continue
            j_rr, j_tt, j_rt, radial, transverse = _long_double_bounds(d, angle, geom, weight)
            assert batch.j_rr[i] == pytest.approx(j_rr, rel=1e-9)
            assert batch.j_tt[i] == pytest.approx(j_tt, rel=1e-9)
            assert abs(batch.j_rt[i] - j_rt) <= 1e-9 * np.sqrt(j_rr * j_tt)
            assert batch.radial[i] == pytest.approx(radial, rel=1e-9)
            assert batch.transverse[i] == pytest.approx(transverse, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_match_one_point_calls_and_numeric_route(self, data):
        # Element counts include K=1, even K and counts whose chunks hold
        # only a few rows, so that the drawn batches cross chunk boundaries.
        k = data.draw(st.sampled_from([1, 2, 5, 8, 101, 700, 2048]), label="K")
        geom = ArrayGeometry(k, data.draw(st.floats(0.002, 0.08), label="spacing"))
        wf = make_waveform(
            carrier=data.draw(st.floats(2e9, 40e9), label="carrier"),
            num_subcarriers=data.draw(st.integers(1, 3), label="N"),
            num_symbols=data.draw(st.integers(2, 6), label="M"),
        )
        chunk_rows = _CHUNK_ELEMENTS // max(k, wf.num_subcarriers)
        count = data.draw(st.integers(1, min(2 * chunk_rows + 1, 40)), label="P")
        distances = data.draw(st.lists(st.floats(0.05, 200.0), min_size=count, max_size=count))
        angles = data.draw(st.lists(_ANGLES, min_size=count, max_size=count))
        snrs = data.draw(st.lists(st.floats(0.01, 1e4), min_size=count, max_size=count))

        rows = closed_form_bounds(distances, angles, geom, wf, snrs)
        for i, (d, angle, snr) in enumerate(zip(distances, angles, snrs)):
            target = TargetState(d, angle)
            if rows.degenerate[i]:
                with pytest.raises(DegenerateGeometryError, match=_ON_ELEMENT):
                    fisher_info_closed_form(target, geom, wf, snr)
                continue
            one = fisher_info_closed_form(target, geom, wf, snr)
            assert (rows.j_rr[i], rows.j_tt[i], rows.j_rt[i]) == (one.j_rr, one.j_tt, one.j_rt)
            crlb = crlb_from_fisher(one)
            assert (rows.radial[i], rows.transverse[i], rows.singular[i]) == (
                crlb.radial,
                crlb.transverse,
                crlb.singular,
            )
            numeric = fisher_info_numeric(target, geom, wf, snr)
            scale = max(abs(one.j_rr), abs(one.j_tt), abs(one.j_rt))
            assert abs(numeric.j_rr - one.j_rr) <= 1e-10 * scale
            assert abs(numeric.j_tt - one.j_tt) <= 1e-10 * scale
            assert abs(numeric.j_rt - one.j_rt) <= 1e-10 * scale

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_batches_spanning_chunks_match_one_point_calls(self, data):
        k = data.draw(st.sampled_from([101, 4099, 16384]), label="K")
        geom = ArrayGeometry(k, data.draw(st.floats(0.002, 0.02), label="spacing"))
        wf = make_waveform(num_subcarriers=data.draw(st.integers(1, 3), label="N"))
        chunk_rows = _CHUNK_ELEMENTS // k
        count = data.draw(st.integers(chunk_rows + 1, 3 * chunk_rows + 1), label="P")
        x = geom.element_x_positions
        row = st.one_of(
            st.tuples(st.floats(0.05, 200.0), _ANGLES),
            # At the array centre, and on an element at end-fire.
            st.tuples(st.sampled_from([1e-300, 1e-14 * geom.aperture]), _ANGLES),
            st.sampled_from(x[x != 0.0].tolist()).map(
                lambda x_k: (abs(x_k), math.copysign(math.pi / 2, x_k))
            ),
            # Past 2**400 m, where the lengths are scaled, in the chunks and blocks of unscaled rows.
            st.tuples(st.floats(1e121, 1e300), _ANGLES),
        )
        rows = data.draw(st.lists(row, min_size=count, max_size=count), label="rows")
        snrs = data.draw(st.lists(st.floats(0.01, 1e4), min_size=count, max_size=count))
        distances, angles = [d for d, _ in rows], [a for _, a in rows]
        self._assert_rows_match_one_point_calls(distances, angles, geom, wf, snrs)

    def test_batch_across_point_blocks_matches_one_point_calls(self):
        # Four rows past one point block at K=101 (162 rows a chunk): regular, far (scaled),
        # centre and on-element rows take turns, so that each kind sits on both sides of the
        # block boundary and in the short chunks at each block's end.
        geom, wf = ArrayGeometry(101, 0.01), make_waveform(num_subcarriers=2)
        count = _POINT_BLOCK + 4
        rng = np.random.default_rng(32)
        kinds = np.arange(count) % 4
        distances = np.select(
            [kinds == 0, kinds == 1, kinds == 2],
            [rng.uniform(0.05, 200.0, count), 10.0 ** rng.uniform(121.0, 300.0, count), 1e-300],
            geom.element_x_positions[-1],
        )
        angles = np.where(kinds == 3, math.pi / 2, rng.uniform(-math.pi / 2, math.pi / 2, count))
        snrs = rng.uniform(0.01, 1e4, count)
        rows = distances.tolist(), angles.tolist(), geom, wf, snrs.tolist()
        batch = self._assert_rows_match_one_point_calls(*rows)
        assert batch.degenerate.tolist() == (kinds >= 2).tolist()

    @staticmethod
    def _assert_rows_match_one_point_calls(distances, angles, geom, wf, snrs):
        batch = closed_form_bounds(distances, angles, geom, wf, snrs)
        for i, (d, angle, snr) in enumerate(zip(distances, angles, snrs)):
            got = [batch.j_rr[i], batch.j_tt[i], batch.j_rt[i], batch.radial[i], batch.transverse[i]]
            if batch.degenerate[i]:
                with pytest.raises(DegenerateGeometryError, match=_ON_ELEMENT):
                    fisher_info_closed_form(TargetState(d, angle), geom, wf, snr)
                assert got == [0.0, 0.0, 0.0, math.inf, math.inf] and batch.singular[i]
                continue
            one = fisher_info_closed_form(TargetState(d, angle), geom, wf, snr)
            crlb = crlb_from_fisher(one)
            assert _bits(got) == _bits([one.j_rr, one.j_tt, one.j_rt, crlb.radial, crlb.transverse])
            assert batch.singular[i] == crlb.singular
        return batch

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.sampled_from([1, 2, 5, 101]),
        spacing=st.floats(0.002, 0.08),
        rows=st.lists(st.tuples(st.floats(0.05, 1e4), _ANGLES), min_size=1, max_size=12),
        snr_exponent=st.integers(-308, 4),
    )
    @example(k=101, spacing=SPEED_OF_LIGHT / 12e9, rows=[(1000.0, 0.0)], snr_exponent=-308)
    def test_root_bounds_are_the_variance_roots_and_finite_past_them(self, k, spacing, rows, snr_exponent):
        geom, wf = ArrayGeometry(k, spacing), make_waveform(carrier=6e9)
        distances, angles = [d for d, _ in rows], [a for _, a in rows]
        batch = closed_form_bounds(distances, angles, geom, wf, 10.0**snr_exponent)
        for variance, root in ((batch.radial, batch.root_radial), (batch.transverse, batch.root_transverse)):
            normal = (variance >= sys.float_info.min) & ~np.isinf(variance)
            assert _bits(root[normal]) == _bits(np.sqrt(variance[normal]))
        # Against the exact inverse of the float entries: each root squared is its variance
        # within the rounding of the determinant, however far past the float range that lies.
        for i in np.flatnonzero(~batch.singular).tolist():
            j_rr, j_tt, j_rt = (Fraction(float(column[i])) for column in (batch.j_rr, batch.j_tt, batch.j_rt))
            det = j_rr * j_tt - j_rt * j_rt
            rounding = Fraction(1, 10**15) * j_rr * j_tt / det
            for root, diagonal in ((batch.root_radial[i], j_tt), (batch.root_transverse[i], j_rr)):
                assert math.isfinite(root)
                assert abs(Fraction(float(root)) ** 2 * det / diagonal - 1) <= rounding

    def test_root_bound_at_the_noise_floor_is_finite(self):
        # fig3's 6 GHz half-wave array at 1000 m and -3080 dB, where the half-wave closed
        # form reads 3.068076549424e+154 m/s: the transverse variance overflows.
        geom, wf = ArrayGeometry.half_wavelength(101, 6e9), make_waveform(carrier=6e9)
        batch = closed_form_bounds([1000.0], [0.0], geom, wf, 1e-308)
        assert math.isinf(batch.transverse[0]) and not batch.singular[0]
        assert batch.root_transverse[0] == pytest.approx(3.068e154, rel=1e-3)

    @staticmethod
    def _peak_bytes(num_elements, points):
        """The ``tracemalloc`` peak of one kernel call on ``points`` rows at 0.3 rad, 0.5-50 m."""
        geom = ArrayGeometry(num_elements, 0.005)
        wf = make_waveform()
        distances, angles = np.geomspace(0.5, 50.0, points).tolist(), [0.3] * points
        closed_form_bounds(distances, angles, geom, wf, 1.0)  # caches the element positions
        tracemalloc.start()
        try:
            closed_form_bounds(distances, angles, geom, wf, 1.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_stays_a_few_chunks(self):
        # 64 rows at K=16384 are 64 one-row chunks, so the peak is a few (1, K)
        # temporaries, about 0.9 MiB, however many rows a batch has.
        assert self._peak_bytes(16384, 64) <= 1 << 20

    @pytest.mark.parametrize(
        "num_elements, points, before",
        [(16384, 64, 272_832), (2048, 4097, 754_582)],
        ids=["one-row-chunks", "two-point-blocks"],
    )
    def test_peak_memory_stays_within_16_kib_of_one_call_per_chunk(self, num_elements, points, before):
        # ``before`` is this peak when each chunk made its own (rows, K) arrays and
        # prepared its rows inside its element_distances call.  Each block's terms,
        # spare row and two reused buffers may add 16 KiB to it; taking a block's sines
        # and cosines while its buffers are live reads 824 753 B on two point blocks.
        assert self._peak_bytes(num_elements, points) <= before + 16 * 1024

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_degenerate_rows_raise_or_are_flagged(self):
        # A batch flags a degenerate row; the one-point call on it raises.
        geom = ArrayGeometry(num_elements=5, spacing=0.25)
        wf = make_waveform()
        # On the element at x = 0.5, next to and on the array centre, and a regular point.
        # The centre row keeps its infinite bounds at an infinite SNR, as fig4's link budget gives it.
        distances, angles = [0.5, 1e-300, 0.0, 3.0], [math.pi / 2, 0.0, 0.3, 0.2]
        rows = closed_form_bounds(distances, angles, geom, wf, [1.0, 1.0, math.inf, 1.0])
        assert rows.degenerate.tolist() == [True, True, True, False]
        assert rows.singular[:3].tolist() == [True, True, True]
        assert rows.radial[:3].tolist() == rows.transverse[:3].tolist() == [math.inf] * 3
        assert (rows.j_rr[2], rows.j_tt[2], rows.j_rt[2]) == (0.0, 0.0, 0.0)
        assert math.isfinite(rows.transverse[3])
        for d, angle in zip(distances[:2], angles[:2]):
            with pytest.raises(DegenerateGeometryError, match="check distance"):
                fisher_info_closed_form(TargetState(d, angle), geom, wf, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("num_elements", [2, 5])
    def test_on_element_row_is_flagged_and_its_one_point_call_raises(self, num_elements):
        geom = ArrayGeometry(num_elements, spacing=0.25)
        wf = make_waveform()
        x = geom.element_x_positions
        for x_k in x[x != 0.0].tolist():
            target = TargetState(abs(x_k), math.copysign(math.pi / 2, x_k))
            rows = closed_form_bounds([target.distance], [target.angle], geom, wf, 1.0)
            assert rows.degenerate.tolist() == rows.singular.tolist() == [True]
            assert (rows.radial.item(), rows.transverse.item()) == (math.inf, math.inf)
            assert (rows.j_rr.item(), rows.j_tt.item(), rows.j_rt.item()) == (0.0, 0.0, 0.0)
            with pytest.raises(DegenerateGeometryError, match="check distance"):
                fisher_info_closed_form(target, geom, wf, 1.0)
            scenario = Scenario(target, geom, wf, MlSearchConfig((-1.0, 1.0), (-1.0, 1.0)))
            default = f"^{re.escape(str(DegenerateGeometryError()))}$"
            with pytest.raises(DegenerateGeometryError, match=default):
                monte_carlo_mse(scenario, 1.0, trials=100, seed=0)
            with pytest.raises(DegenerateGeometryError, match=default):
                monte_carlo_reports(scenario, [1.0, 10.0], trials=100, seed=0)

    def test_empty_batch(self):
        rows = closed_form_bounds([], [], ArrayGeometry(3, 0.1), make_waveform(), 1.0)
        assert rows.j_rr.shape == rows.radial.shape == rows.degenerate.shape == (0,)
        assert rows.degenerate.dtype == bool

    def test_rejects_invalid_points(self):
        geom = ArrayGeometry(3, 0.1)
        wf = make_waveform()
        with pytest.raises(ValueError, match="distance"):
            closed_form_bounds([1.0, -1.0], [0.0, 0.0], geom, wf, 1.0)
        with pytest.raises(ValueError, match="angle"):
            closed_form_bounds([1.0], [2.0], geom, wf, 1.0)
        with pytest.raises(ValueError, match="snr"):
            closed_form_bounds([1.0, 2.0], [0.0, 0.0], geom, wf, [1.0, 0.0])

    def test_array_closed_forms_match_scalar_calls(self):
        geom = ArrayGeometry(num_elements=700, spacing=0.004)
        wf = make_waveform()
        distances = np.geomspace(0.01, 500.0, 60)
        radial = radial_info_boresight(distances, geom, wf, 2.0)
        halfwave = transverse_info_half_wavelength(distances, 700, wf, 2.0)
        for i, d in enumerate(distances.tolist()):
            assert radial[i] == radial_info_boresight(d, geom, wf, 2.0)
            assert halfwave[i] == transverse_info_half_wavelength(d, 700, wf, 2.0)
