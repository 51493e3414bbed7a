"""Tests for the matched-filter ML estimator and its Monte Carlo harness."""

import dataclasses
import functools
import math
import re
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfvel import (
    ArrayGeometry,
    ChannelNoise,
    MatchedFilter,
    MlSearchConfig,
    MonteCarloReport,
    ObservationCube,
    SPEED_OF_LIGHT,
    Scenario,
    TargetState,
    add_noise,
    closed_form_bounds,
    crlb_from_fisher,
    fisher_info_closed_form,
    ml_estimate,
    monte_carlo_mse,
    monte_carlo_reports,
    radial_projection_coeffs,
    subcarrier_frequencies,
    symmetric_index_grid,
    synthesize_noise_free,
    transverse_projection_coeffs,
)

from nfvel import estimator, waveform
from nfvel.experiments import ScenarioConfig

from conftest import make_waveform


def _clean_cube(target, geom, wf, snr=100.0):
    noise = ChannelNoise.from_snr(wf, snr)
    return synthesize_noise_free(target, geom, wf, noise)


def _search(radial=(-10.0, 10.0), transverse=(-10.0, 10.0), **overrides):
    params = dict(
        radial_span=radial,
        transverse_span=transverse,
        grid_points=41,
        tolerance=1e-3,
    )
    params.update(overrides)
    return MlSearchConfig(**params)


class TestSearchConfig:
    def test_rejects_bad_spans(self):
        with pytest.raises(ValueError, match=r"^radial_span must be increasing, got \(5.0, 5.0\)$"):
            _search(radial=(5.0, 5.0))
        with pytest.raises(ValueError, match=r"^transverse_span must be increasing, got \(2.0, -2.0\)$"):
            _search(transverse=(2.0, -2.0))


class TestNoiseFree:
    def test_recovers_truth_on_randomized_scenarios(self):
        # spans stay well inside the slow-time ambiguity interval
        # c / (f * (1+q) * T_sym) ~ 27 m/s at the strongest settings drawn here
        rng = np.random.default_rng(20240818)
        worst = 0.0
        for _ in range(100):
            geom = ArrayGeometry(
                num_elements=int(rng.integers(16, 34)),
                spacing=float(rng.uniform(0.03, 0.06)),
            )
            wf = make_waveform(
                carrier=float(rng.uniform(6e9, 14e9)),
                num_subcarriers=int(rng.integers(1, 3)),
                num_symbols=int(rng.integers(8, 15)),
                symbol_time=float(rng.uniform(2e-4, 4e-4)),
            )
            target = TargetState(
                distance=float(geom.aperture * 10 ** rng.uniform(0.0, 2.0)),
                angle=float(rng.uniform(-math.pi / 3, math.pi / 3)),
                radial_velocity=float(rng.uniform(-7.0, 7.0)),
                transverse_velocity=float(rng.uniform(-7.0, 7.0)),
            )
            cube = _clean_cube(target, geom, wf)
            est = ml_estimate(cube, target.distance, target.angle, _search())
            assert est.radial_identifiable and est.transverse_identifiable
            err_r = abs(est.radial - target.radial_velocity)
            err_t = abs(est.transverse - target.transverse_velocity)
            worst = max(worst, err_r, err_t)
            assert err_r <= 1e-3, f"radial error {err_r:.2e} at {target!r}"
            assert err_t <= 1e-3, f"transverse error {err_t:.2e} at {target!r}"
        # refinement should do far better than the coarse half-metre step
        assert worst < 1e-3

    @settings(max_examples=25, deadline=None)
    @given(
        gain=st.complex_numbers(
            min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
        )
    )
    def test_gain_rotation_leaves_estimate_unchanged(self, gain):
        geom = ArrayGeometry(num_elements=17, spacing=0.04)
        wf = make_waveform(carrier=8e9, num_symbols=10, symbol_time=3e-4)
        target = TargetState(4.0, 0.3, radial_velocity=2.5, transverse_velocity=-1.5)
        cube = _clean_cube(target, geom, wf)
        noisy = add_noise(cube, 77)
        rotated = ObservationCube(
            samples=noisy.samples * gain,
            config=noisy.config,
            geometry=noisy.geometry,
            noise=noisy.noise,
        )
        search = _search()
        a = ml_estimate(noisy, target.distance, target.angle, search)
        b = ml_estimate(rotated, target.distance, target.angle, search)
        assert b.radial == pytest.approx(a.radial, abs=1e-9)
        assert b.transverse == pytest.approx(a.transverse, abs=1e-9)
        assert (b.radial_identifiable, b.transverse_identifiable) == (
            a.radial_identifiable,
            a.transverse_identifiable,
        )

    @pytest.mark.parametrize("tx_power", [1e-200, 1e150, 1e300])
    def test_absolute_power_leaves_estimate_unchanged(self, tx_power):
        # At such powers Newton's Python-float products would underflow or overflow unscaled.
        search = MlSearchConfig((2.9, 3.1), (0.0, 2.0))

        def estimate(config):
            wf, geom, target = config.waveform(), config.geometry(), config.target()
            cube = add_noise(_clean_cube(target, geom, wf, snr=10.0), 3)
            return ml_estimate(cube, target.distance, target.angle, search)

        def reports(config):
            scenario = Scenario(config.target(), config.geometry(), config.waveform(), search)
            return monte_carlo_reports(scenario, _linear((-20.0, 10.0)), trials=100, seed=3)

        default = ScenarioConfig()
        assert estimate(ScenarioConfig(tx_power=tx_power)) == estimate(default)
        # Monte Carlo runs in units of the noise, so its rows at SNRs given keep their bits.
        assert reports(ScenarioConfig(tx_power=tx_power)) == reports(default)

    @pytest.mark.parametrize("gain", [1e-310, 5e-324])
    def test_subnormal_sample_peak_is_estimated_inside_the_window(self, gain):
        # Taking a subnormal peak into [0.5, 1) needs a power of two past the float range.
        search = MlSearchConfig((2.9, 3.1), (0.0, 2.0))
        config = ScenarioConfig()
        wf, geom, target = config.waveform(), config.geometry(), config.target()
        cube = add_noise(_clean_cube(target, geom, wf, snr=10.0), 3)
        faint = dataclasses.replace(cube, samples=cube.samples * gain)
        est = ml_estimate(faint, target.distance, target.angle, search)
        assert est.radial_identifiable and est.transverse_identifiable
        assert 2.9 <= est.radial <= 3.1 and 0.0 <= est.transverse <= 2.0

    @settings(max_examples=25, deadline=None)
    @given(
        angle=st.sampled_from([-0.4, math.pi / 4]),
        seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    def test_refined_estimate_does_not_snap_to_grid(self, angle, seed):
        # Noise-free (seed None) and noisy cubes, including 45 degrees in the
        # near field, where the radial/transverse coupling is strong.
        geom = ArrayGeometry(num_elements=21, spacing=0.04)
        wf = make_waveform(carrier=8e9, num_symbols=12, symbol_time=3e-4)
        target = TargetState(3.0, angle, radial_velocity=1.37, transverse_velocity=-2.61)
        cube = _clean_cube(target, geom, wf)
        if seed is not None:
            cube = add_noise(cube, seed)
        search = _search()
        coarse = ml_estimate(cube, target.distance, target.angle, search)
        dense = ml_estimate(
            cube, target.distance, target.angle, _search(grid_points=81)
        )
        assert dense.radial == pytest.approx(coarse.radial, abs=1e-3)
        assert dense.transverse == pytest.approx(coarse.transverse, abs=1e-3)

        # The estimate is a local maximum of the matched-filter statistic: no
        # probe one tolerance away, along an axis or a diagonal, scores higher.
        def statistic(radial, transverse):
            moving = TargetState(target.distance, angle, radial, transverse)
            model = synthesize_noise_free(moving, geom, wf, cube.noise).samples
            return abs(np.vdot(model, cube.samples)) ** 2

        peak = statistic(coarse.radial, coarse.transverse)
        tol = search.tolerance
        for dr, dt in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)):
            assert statistic(coarse.radial + dr * tol, coarse.transverse + dt * tol) <= peak

    def test_end_fire_flags_transverse_axis(self):
        geom = ArrayGeometry(num_elements=15, spacing=0.02)
        wf = make_waveform(carrier=8e9, num_symbols=10, symbol_time=3e-4)
        target = TargetState(5.0, math.pi / 2, radial_velocity=3.0, transverse_velocity=0.0)
        cube = _clean_cube(target, geom, wf)
        est = ml_estimate(cube, target.distance, target.angle, _search())
        assert est.radial_identifiable
        assert not est.transverse_identifiable
        assert math.isnan(est.transverse)
        assert est.radial == pytest.approx(3.0, abs=1e-3)


_MC_SNR = 50.0


def _mc_scenario(angle=0.0, transverse_truth=-3.0):
    geom = ArrayGeometry(num_elements=9, spacing=0.02)
    wf = make_waveform(carrier=6e9, num_symbols=8, symbol_time=2e-4)
    target = TargetState(
        distance=0.8,
        angle=angle,
        radial_velocity=2.0,
        transverse_velocity=transverse_truth,
    )
    return Scenario(
        target=target,
        geometry=geom,
        waveform=wf,
        search=_search(radial=(-5.0, 5.0), transverse=(-8.0, 8.0)),
    )


def _bounds(scenario, snrs):
    """The bound rows :func:`monte_carlo_reports` reports at ``snrs``."""
    target, count = scenario.target, len(snrs)
    distances, angles = [target.distance] * count, [target.angle] * count
    return closed_form_bounds(distances, angles, scenario.geometry, scenario.waveform, snrs)


class TestMonteCarlo:
    def test_same_seed_reproduces_report(self):
        scenario = _mc_scenario()
        a = monte_carlo_mse(scenario, _MC_SNR, trials=100, seed=42)
        b = monte_carlo_mse(scenario, _MC_SNR, trials=100, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        scenario = _mc_scenario()
        a = monte_carlo_mse(scenario, _MC_SNR, trials=100, seed=1)
        b = monte_carlo_mse(scenario, _MC_SNR, trials=100, seed=2)
        assert a.mse_radial != b.mse_radial

    def test_report_carries_matching_bound(self):
        scenario = _mc_scenario()
        report = monte_carlo_mse(scenario, _MC_SNR, trials=100, seed=5)
        expected = crlb_from_fisher(
            fisher_info_closed_form(scenario.target, scenario.geometry, scenario.waveform, _MC_SNR)
        )
        assert report.crlb_radial == pytest.approx(expected.radial, rel=1e-12)
        assert report.crlb_transverse == pytest.approx(expected.transverse, rel=1e-12)
        assert report.ratio_radial == pytest.approx(report.mse_radial / expected.radial)
        assert report.trials == 100
        assert report.seed == 5

    def test_report_bound_is_the_bound_at_the_snr_given(self):
        # On the default scene the noise floor's round trip P/(P/snr) misses -28.3 dB in the
        # last bit, and the bound at the round-tripped SNR differs from the bound at -28.3 dB.
        config, snr = ScenarioConfig(), 10.0 ** (-28.3 / 10.0)
        target, geom, wf = config.target(), config.geometry(), config.waveform()
        assert ChannelNoise.from_snr(wf, snr).snr(wf) != snr
        scenario = Scenario(target, geom, wf, _search(radial=(2.9, 3.1), transverse=(0.0, 2.0)))
        (report,) = monte_carlo_reports(scenario, [snr], trials=100, seed=0)
        expected = crlb_from_fisher(fisher_info_closed_form(target, geom, wf, snr))
        assert (report.crlb_radial, report.crlb_transverse) == (expected.radial, expected.transverse)
        assert type(report.crlb_radial) is type(report.crlb_transverse) is float

    def test_rejects_truth_outside_span(self):
        spans = {
            "radial": _search(radial=(3.0, 5.0), transverse=(-8.0, 8.0)),
            "transverse": _search(radial=(-5.0, 5.0), transverse=(-2.0, 8.0)),
        }
        for axis, search in spans.items():
            bad = dataclasses.replace(_mc_scenario(), search=search)
            with pytest.raises(ValueError, match=f"^{axis} search span does not contain"):
                monte_carlo_mse(bad, _MC_SNR, trials=100, seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_snr_gives_finite_bounds_and_ratios(self):
        reports = monte_carlo_reports(_mc_scenario(), [1e-200, 1e-300], trials=100, seed=3)
        for report in reports:
            assert math.isfinite(report.crlb_transverse)
            assert not [value for value in astuple(report) if math.isnan(value)]

    def test_end_fire_marks_every_trial_degenerate(self):
        scenario = _mc_scenario(angle=math.pi / 2, transverse_truth=0.0)
        report = monte_carlo_mse(scenario, 1e4, trials=100, seed=9)
        assert report.degenerate_trials == 100
        assert report.mse_transverse is None
        assert report.ratio_transverse is None
        assert math.isinf(report.crlb_transverse)
        assert math.isfinite(report.mse_radial)

    def test_partly_identified_axis_averages_the_trials_that_found_it(self):
        # Every third trial misses the transverse axis.  Its MSE is the mean over the other
        # trials, which rounds otherwise than a sum with zeros in place of the misses.
        scenario = _mc_scenario()
        truth = (scenario.target.radial_velocity, scenario.target.transverse_velocity)
        estimates = _library_trials(scenario, [_MC_SNR], trials=100, seed=4)
        estimates[0, 1, ::3] = math.nan
        (report,) = estimator._reports(estimates, truth, _bounds(scenario, [_MC_SNR]), seed=4)
        found = np.array([(v - truth[1]) ** 2 for v in estimates[0, 1].tolist() if not math.isnan(v)])
        assert (report.degenerate_trials, found.size) == (34, 66)
        assert report.mse_transverse == float(np.mean(found))
        assert report.ratio_transverse == report.mse_transverse / report.crlb_transverse

    def test_identified_axis_with_an_infinite_bound_has_no_ratio(self):
        # The MSE stands, and the ratio is None, as where no trial identified the axis: no field is NaN.
        scenario = _mc_scenario()
        truth = (scenario.target.radial_velocity, scenario.target.transverse_velocity)
        estimates = _library_trials(scenario, [_MC_SNR], trials=100, seed=4)
        bounds = dataclasses.replace(_bounds(scenario, [_MC_SNR]), transverse=np.array([math.inf]))
        (report,) = estimator._reports(estimates, truth, bounds, seed=4)
        assert report.degenerate_trials == 0 and math.isfinite(report.mse_transverse)
        assert (report.crlb_transverse, report.ratio_transverse) == (math.inf, None)
        assert report.ratio_radial == report.mse_radial / report.crlb_radial

    def test_squared_errors_are_python_float_squares(self):
        # With glibc 2.36, Python's ** (libm's pow) squares this error to 1.6819895542397528e-06, and
        # numpy's square, the product, to ...526e-06: the trials square their errors with **.
        # The truth is (0, 0), so each estimate is its error.
        error = 0.001296915399800524
        estimates = np.full((1, 2, 100), math.nan)
        estimates[0, 0] = error  # every trial, so the MSE is a mean of 100 squares
        estimates[0, 1, 0] = error  # one trial, so the MSE is its square
        (report,) = estimator._reports(estimates, (0.0, 0.0), _bounds(_mc_scenario(), [_MC_SNR]), seed=0)
        assert report.mse_radial == float(np.mean([error**2] * 100))
        assert report.mse_transverse == error**2

    def test_estimator_is_unbiased_at_high_snr(self):
        # the empirical mean error must be statistically indistinguishable
        # from zero: within 10% of the root bound at a few hundred trials
        carrier = 28e9
        geom = ArrayGeometry.half_wavelength(21, carrier)
        wf = make_waveform(carrier=carrier)
        target = TargetState(
            distance=5.0 * geom.aperture,
            angle=0.0,
            radial_velocity=0.05,
            transverse_velocity=0.3,
        )
        snr = 100.0
        noise = ChannelNoise.from_snr(wf, snr)
        search = MlSearchConfig(
            radial_span=(target.radial_velocity - 0.08, target.radial_velocity + 0.08),
            transverse_span=(target.transverse_velocity - 1.2, target.transverse_velocity + 1.2),
            tolerance=1e-6,
        )
        clean = synthesize_noise_free(target, geom, wf, noise)
        finder = MatchedFilter(geom, wf, target.distance, target.angle, search)
        seeds = (np.random.SeedSequence([314, trial]) for trial in range(400))
        estimates = finder.estimate(np.stack([add_noise(clean, np.random.default_rng(s)).samples for s in seeds]))
        assert all(est.radial_identifiable and est.transverse_identifiable for est in estimates)
        errors = [
            (est.radial - target.radial_velocity, est.transverse - target.transverse_velocity) for est in estimates
        ]
        bound = crlb_from_fisher(fisher_info_closed_form(target, geom, wf, snr))
        bias_r, bias_t = np.mean(errors, axis=0)
        assert abs(bias_r) < 0.1 * math.sqrt(bound.radial)
        assert abs(bias_t) < 0.1 * math.sqrt(bound.transverse)


def _small_scene(angle=0.0, transverse=-3.0):
    geom = ArrayGeometry(num_elements=9, spacing=0.02)
    wf = make_waveform(carrier=6e9, num_symbols=8, symbol_time=2e-4)
    target = TargetState(0.8, angle, radial_velocity=2.0, transverse_velocity=transverse)
    return geom, wf, target


class TestMatchedFilter:
    @pytest.mark.parametrize(
        ("angle", "transverse", "transverse_span"),
        [
            (0.3, -3.0, (-8.0, 8.0)),  # noisy cubes, both axes refined
            (math.pi / 2, 0.0, (-8.0, 8.0)),  # end-fire: transverse unidentifiable
            (0.0, -3.0, (-3.0, 1.0)),  # truth on the window edge
        ],
    )
    def test_reused_filter_matches_ml_estimate(self, angle, transverse, transverse_span):
        geom, wf, target = _small_scene(angle, transverse)
        search = _search(radial=(-1.0, 5.0), transverse=transverse_span, tolerance=1e-6)
        clean = _clean_cube(target, geom, wf, snr=3.0)
        finder = MatchedFilter(geom, wf, target.distance, target.angle, search)
        for seed in range(6):
            cube = add_noise(clean, seed)
            single = ml_estimate(cube, target.distance, target.angle, search)
            # assert_equal treats NaN (an unidentifiable axis) as equal to NaN.
            np.testing.assert_equal(astuple(finder.estimate(cube.samples)), astuple(single))
        if angle == math.pi / 2:
            assert not single.transverse_identifiable

    def test_list_spans_are_stored_as_tuples(self):
        # A frozen config hashes, so lists are coerced to tuples.
        search = MlSearchConfig(radial_span=[-1.0, 1.0], transverse_span=[-2, 2])
        same = MlSearchConfig(radial_span=(-1.0, 1.0), transverse_span=(-2, 2))
        assert search == same and hash(search) == hash(same)


def _shared_scenario(
    angle=0.4,
    transverse=-3.0,
    num_elements=9,
    num_symbols=8,
    num_subcarriers=1,
    transverse_span=(-8.0, 8.0),
):
    """The scenario the shared-noise tests run at several SNRs."""
    geom = ArrayGeometry(num_elements=num_elements, spacing=0.02)
    wf = make_waveform(
        carrier=6e9, num_subcarriers=num_subcarriers, num_symbols=num_symbols, symbol_time=2e-4
    )
    target = TargetState(0.8, angle, radial_velocity=2.0, transverse_velocity=transverse)
    search = _search(radial=(-1.0, 5.0), transverse=transverse_span, tolerance=1e-6)
    return Scenario(target, geom, wf, search)


def _linear(snrs_db):
    return [10.0 ** (snr_db / 10.0) for snr_db in snrs_db]


_SHARED_SCENES = {
    "end-fire": dict(angle=math.pi / 2, transverse=0.0),
    "odd M and K": dict(num_symbols=7, num_elements=9),
    "even M and K": dict(num_symbols=8, num_elements=10, angle=-0.3),
    "three subcarriers": dict(num_subcarriers=3, angle=0.0),
    "truth on the window edge": dict(transverse_span=(-3.0, 1.0)),
}


class TestStackedEstimate:
    @settings(max_examples=40, deadline=None)
    @given(
        scene=st.sampled_from(sorted(_SHARED_SCENES)),
        leading=st.one_of(
            st.integers(1, 5).map(lambda count: (count,)),
            st.just((estimator._TRIAL_BLOCK + 1,)),
            st.just((2, 3)),
        ),
        snr_db=st.sampled_from([-20.0, 0.0, 20.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_estimate_of_a_stack_equals_its_one_cube_call(self, scene, leading, snr_db, seed):
        scenario = _shared_scenario(**_SHARED_SCENES[scene])
        target, geom, wf = scenario.target, scenario.geometry, scenario.waveform
        clean = _clean_cube(target, geom, wf, snr=10.0 ** (snr_db / 10.0))
        sigma = math.sqrt(clean.noise.noise_variance / 2.0)
        stack = clean.samples + sigma * waveform._unit_noise(leading + clean.samples.shape, seed)
        finder = MatchedFilter(geom, wf, target.distance, target.angle, scenario.search)
        estimates = finder.estimate(stack)
        assert len(estimates) == math.prod(leading)
        for index, est in zip(np.ndindex(leading), estimates):
            # assert_equal treats NaN (an unidentifiable axis) as equal to NaN.
            np.testing.assert_equal(astuple(est), astuple(finder.estimate(stack[index])))

    @pytest.mark.parametrize("shape", [(16, 1, 9), (8, 1, 9, 1), (8, 9), ()])
    def test_samples_of_another_shape_are_rejected(self, shape):
        geom, wf, target = _small_scene()
        finder = MatchedFilter(geom, wf, target.distance, target.angle, _search())
        with pytest.raises(
            ValueError,
            match=rf"^samples must have shape \(\.\.\., M, N, K\) with \(M, N, K\) = \(8, 1, 9\), got {re.escape(str(shape))}$",
        ):
            finder.estimate(np.zeros(shape, complex))

    def test_empty_stack_gives_no_estimates(self):
        geom, wf, target = _small_scene()
        finder = MatchedFilter(geom, wf, target.distance, target.angle, _search())
        assert finder.estimate(np.zeros((0, 8, 1, 9), complex)) == []
        assert finder.estimate(np.zeros((2, 0, 8, 1, 9), complex)) == []


class TestSharedNoise:
    @pytest.mark.parametrize("scene", sorted(_SHARED_SCENES))
    def test_shared_grid_estimates_equal_estimate_on_the_noisy_cube(self, scene):
        scenario = _shared_scenario(**_SHARED_SCENES[scene])
        target, geom, wf = scenario.target, scenario.geometry, scenario.waveform
        noises = [ChannelNoise.from_snr(wf, snr) for snr in _linear(range(-30, 21, 10))]
        finder = MatchedFilter(geom, wf, target.distance, target.angle, scenario.search)
        clean = synthesize_noise_free(target, geom, wf, noises[0])
        clean_statistic = finder._statistic(clean.samples)
        # Each level at its own power of two: the search's own scale takes it out.
        scales = [2.0 ** (60 * row - 150) for row in range(len(noises))]
        flags = set()
        for trial in range(30):
            seeds = np.random.SeedSequence([11, trial])
            unit = waveform._unit_noise(clean.samples.shape, np.random.default_rng(seeds))
            unit_statistic = finder._statistic(unit)
            for noise, scale in zip(noises, scales):
                sigma = math.sqrt(noise.noise_variance / 2.0) * scale
                # The coarse grid by linearity, from one product for the clean cube and one for the draw.
                est = finder._search(
                    clean.samples * scale + sigma * unit, clean_statistic * scale + sigma * unit_statistic
                )
                cube = synthesize_noise_free(target, geom, wf, noise)
                noisy = add_noise(cube, np.random.SeedSequence([11, trial]))
                direct = finder.estimate(noisy.samples)
                # assert_equal treats NaN (an unidentifiable axis) as equal to NaN.
                np.testing.assert_equal(astuple(est), astuple(direct))
                flags.add((est.radial_identifiable, est.transverse_identifiable))
        assert flags == ({(True, False)} if scene == "end-fire" else {(True, True)})

    @pytest.mark.parametrize("scene", ["end-fire", "odd M and K"])
    def test_reports_equal_one_scenario_calls(self, scene):
        scenario = _shared_scenario(**_SHARED_SCENES[scene])
        snrs = _linear((-20.0, 0.0, 20.0))
        reports = monte_carlo_reports(scenario, snrs, trials=100, seed=4)
        assert len(reports) == len(snrs)
        for snr, report in zip(snrs, reports):
            alone = monte_carlo_mse(scenario, snr, trials=100, seed=4)
            np.testing.assert_equal(astuple(report), astuple(alone))

    def test_no_scenarios_give_no_reports(self):
        # An empty SNR list still has its trials and seed checked.
        scenario = _shared_scenario()
        assert monte_carlo_reports(scenario, [], trials=100, seed=0) == []
        with pytest.raises(ValueError, match="trials must be an integer >= 100"):
            monte_carlo_reports(scenario, [], trials=99, seed=0)
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            monte_carlo_reports(scenario, [], trials=100, seed=-1)

    @pytest.mark.parametrize("block", [None, 1, 118], ids=["default block", "block of 1", "block past trials"])
    @pytest.mark.parametrize(
        ("scene", "snrs_db", "trials", "seed"),
        [
            ("end-fire", (-20.0, 10.0), 117, 6),
            ("odd M and K", (-20.0, 10.0), 117, 6),
            # The golden Monte Carlo files' scenes, SNRs and seeds.
            ("default", (0.0, 10.0), 100, 3),
            ("golden-offboresight", (-30.0, 0.0, 20.0), 100, 5),
            ("golden-endfire", (-10.0, 20.0), 100, 2),
        ],
        ids=["end-fire", "odd M and K", "default", "golden-offboresight", "golden-endfire"],
    )
    def test_blocked_trials_equal_estimates_of_each_noisy_cube(self, monkeypatch, scene, snrs_db, trials, seed, block):
        # Neither 117 nor 100 trials are a multiple of the default block, so the last block is short.
        if block is not None:
            monkeypatch.setattr(estimator, "_TRIAL_BLOCK", block)
        scenario = _shared_scenario(**_SHARED_SCENES[scene]) if scene in _SHARED_SCENES else _golden_scenario(scene)
        snrs = _linear(snrs_db)
        reports = monte_carlo_reports(scenario, snrs, trials, seed)
        for snr, estimates, report in zip(snrs, _library_trials(scenario, snrs, trials, seed), reports):
            one_report, one_estimates = _one_cube_at_a_time(scenario, snr, trials, seed)
            # assert_equal treats NaN (an unidentified axis) as equal to NaN.
            np.testing.assert_equal(estimates, one_estimates)
            np.testing.assert_equal(astuple(report), astuple(one_report))


def _library_trials(scenario, snrs, trials, seed):
    """The per-trial estimates ``(rows, 2, trials)`` of :func:`monte_carlo_reports`: its trial loop on
    the unit-magnitude clean cube at each floor ``1/snr``."""
    wf = scenario.waveform
    unit = dataclasses.replace(scenario, waveform=dataclasses.replace(wf, total_power=float(wf.num_subcarriers)))
    return estimator._trial_estimates(unit, [ChannelNoise.from_snr(unit.waveform, snr) for snr in snrs], trials, seed)


def _one_cube_at_a_time(scenario, snr, trials, seed):
    """:func:`monte_carlo_mse`'s report and the trials' estimates ``(2, trials)``, from
    ``MatchedFilter.estimate`` on each trial's :func:`add_noise` cube."""
    target, geom, wf = scenario.target, scenario.geometry, scenario.waveform
    unit = dataclasses.replace(wf, total_power=float(wf.num_subcarriers))  # a unit-magnitude clean cube
    clean = _clean_cube(target, geom, unit, snr)
    finder = MatchedFilter(geom, wf, target.distance, target.angle, scenario.search)
    truth = (target.radial_velocity, target.transverse_velocity)
    estimates = np.empty((2, trials))
    for trial in range(trials):
        est = finder.estimate(add_noise(clean, np.random.SeedSequence([seed, trial])).samples)
        estimates[:, trial] = est.radial, est.transverse
    errors = np.array([[(v - t) ** 2 for v in axis] for axis, t in zip(estimates.tolist(), truth)])
    found = ~np.isnan(errors)
    mse = [float(np.mean(e[f])) if f.any() else None for e, f in zip(errors, found)]
    bound = crlb_from_fisher(fisher_info_closed_form(target, geom, wf, snr))
    crlb = [bound.radial, bound.transverse]
    ratio = [m / c if m is not None and math.isfinite(c) and c > 0.0 else None for m, c in zip(mse, crlb)]
    degenerate = int((~found).any(axis=0).sum())
    return MonteCarloReport(trials, *mse, *crlb, *ratio, seed, degenerate), estimates


class TestNewtonStep:
    """``MatchedFilter._step`` on given derivatives, from the centre of spans
    (-1, 1) and (-8, 8), whose grid cells are about 0.05 and 0.4 m/s."""

    geom, wf, _ = _small_scene()
    finder = MatchedFilter(geom, wf, 0.8, 0.0, _search(radial=(-1.0, 1.0), transverse=(-8.0, 8.0)))
    cell = finder._cell

    @settings(max_examples=200, deadline=None)
    @given(
        scale=st.floats(-8.0, 8.0),
        diagonal=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
        rho=st.floats(-0.9, 0.9),
        skew=st.floats(-1e-3, 1e-3),
        target=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    )
    def test_explicit_solve_matches_linalg(self, scale, diagonal, rho, skew, target):
        # A negative-definite Hessian, not exactly symmetric (the step takes all
        # four entries, though _derivatives' are), and a gradient whose Newton
        # step stays inside one cell.
        h_rr, h_tt = (-(10.0**scale) * d for d in diagonal)
        h_rt = rho * math.sqrt(h_rr * h_tt)
        hess = np.array([[h_rr, h_rt], [h_rt * (1.0 + skew), h_tt]])
        grad = -hess @ (np.array(target) * self.cell)
        step = np.array(self.finder._step(0.0, 0.0, tuple(grad.tolist()), tuple(hess.ravel().tolist()), (True, True)))
        expected = np.linalg.solve(hess, -grad)
        assert np.linalg.norm(step - expected) <= 1e-12 * np.linalg.norm(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        case=st.sampled_from(["transverse not free", "transverse at its upper edge",
                              "radial not free", "radial at its lower edge"]),
        g=st.floats(-1e3, 1e3),
        h=st.floats(-1e3, -1e-3),
        other=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    )
    def test_held_axis_stays_and_the_other_moves_by_minus_g_over_h(self, case, g, h, other):
        # The held axis gets arbitrary derivatives, coupling included, which
        # may make the full Hessian indefinite; none of it may leak into the step.
        g_held, h_held, coupling = other
        free, velocity = [True, True], [0.0, 0.0]
        if case.startswith("transverse"):
            moving, held = 0, 1
            grad, hess = [g, g_held], [[h, coupling], [coupling, h_held]]
            if case.endswith("edge"):
                velocity[1], grad[1] = 8.0, abs(g_held) + 1.0  # pressed against +8
        else:
            moving, held = 1, 0
            grad, hess = [g_held, g], [[h_held, coupling], [coupling, h]]
            if case.endswith("edge"):
                velocity[0], grad[0] = -1.0, -abs(g_held) - 1.0  # pressed against -1
        if case.endswith("not free"):
            free[held] = False
        moved = self.finder._step(*velocity, tuple(grad), (*hess[0], *hess[1]), tuple(free))
        assert moved[held] == velocity[held]
        cell = self.cell[moving]
        assert moved[moving] == min(max(-g / h, -cell), cell)


def _full_phase(geometry, config, position):
    """The phase per unit radial and transverse velocity of every cube sample, ``(2, M*N*K)``."""
    freqs = subcarrier_frequencies(config)
    q = radial_projection_coeffs(position, geometry)
    p = transverse_projection_coeffs(position, geometry)
    m_grid = symmetric_index_grid(config.num_symbols)
    scale = 2.0 * math.pi * config.symbol_time / SPEED_OF_LIGHT
    sens = scale * m_grid[:, None, None] * freqs[None, :, None]
    return np.stack([sens * (1.0 + q), sens * p]).reshape(2, -1)


def _full_phase_derivatives(geometry, config, position, rows, velocity):
    """``S``, gradient and Hessian from the full phase: one ``exp`` per cube sample.

    This is the refinement's derivative pass before the separable form, kept
    as the oracle for :meth:`MatchedFilter._derivatives`.  The last item
    bounds each result's terms in size: ``S`` by ``a_0 = sum(|E|)``, the first
    and second phase sums by ``a_1 = max_a sum(|phase_a * E|)`` and
    ``a_2 = max_a sum(phase_a**2 * |E|)``, so the gradient by ``2 a_0 a_1``
    and the Hessian by ``2 max(a_1**2, a_0 a_2)``.
    """
    phase = _full_phase(geometry, config, position)
    e = rows.ravel() * np.exp(-1j * (np.array(velocity) @ phase))
    s = complex(e.sum())
    weighted = phase * e
    first = weighted.sum(axis=1)
    second = weighted @ phase.T.astype(complex)
    grad = 2.0 * (s.conjugate() * first).imag
    hess = 2.0 * (np.outer(first.conj(), first) - s.conjugate() * second).real
    size = np.abs(e)
    a_0, a_1, a_2 = size.sum(), (np.abs(phase) @ size).max(), (phase**2 @ size).max()
    return s, grad, hess, (a_0, 2.0 * a_0 * a_1, 2.0 * max(a_1**2, a_0 * a_2))


def _scene_filter(config: ScenarioConfig):
    """The default Monte Carlo search (0.2 and 2 m/s windows) on ``config``'s scene."""
    geom, wf, target = config.geometry(), config.waveform(), config.target()
    search = _search(
        radial=(target.radial_velocity - 0.1, target.radial_velocity + 0.1),
        transverse=(target.transverse_velocity - 1.0, target.transverse_velocity + 1.0),
        tolerance=1e-5,
    )
    return geom, wf, target, MatchedFilter(geom, wf, target.distance, target.angle, search)


# The Monte Carlo golden cases' scenes.
_GOLDEN_SCENES = {
    "default": dict(),
    "golden-offboresight": dict(num_symbols=15, num_subcarriers=2, num_elements=31, angle=math.radians(40.0)),
    "golden-endfire": dict(angle=math.radians(90.0)),
}


def _golden_scenario(scene):
    """The Monte Carlo scenario of the golden scene ``scene``, with the default search."""
    geom, wf, target, finder = _scene_filter(ScenarioConfig(**_GOLDEN_SCENES[scene]))
    return Scenario(target, geom, wf, finder.search)


class TestDerivatives:
    """``MatchedFilter._derivatives``: the separable phase against the full one."""

    @settings(max_examples=60, deadline=None)
    @given(
        num_symbols=st.sampled_from([1, 2, 3, 14, 15, 64]),
        num_subcarriers=st.integers(1, 3),
        angle=st.one_of(
            st.just(math.pi / 2),  # end-fire
            st.floats(-1.4, -0.1),
            st.floats(0.1, 1.4),
        ),
        where=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_separable_form_matches_the_full_phase(
        self, num_symbols, num_subcarriers, angle, where, seed
    ):
        config = ScenarioConfig(
            num_symbols=num_symbols, num_subcarriers=num_subcarriers, angle=angle
        )
        geom, wf, target, finder = _scene_filter(config)
        cube = add_noise(_clean_cube(target, geom, wf, snr=1.0), seed)
        rows = finder._compensate(cube.samples).reshape(num_symbols, -1)
        spans = (finder.search.radial_span, finder.search.transverse_span)
        velocity = [low + u * (high - low) for u, (low, high) in zip(where, spans)]
        s, grad, hess = finder._derivatives(rows, *velocity)
        got = s, grad, np.reshape(hess, (2, 2))
        *expected, terms = _full_phase_derivatives(geom, wf, target, rows, velocity)
        # Each result is held to the size of its terms, not to its largest
        # entry: both routes round a phase of up to |m| * theta ~ 2e3 rad to
        # ~2e-13 rad, and the sums cancel to 1 % of their terms or less away
        # from the peak, as the two Hessian terms do near it.
        for name, new, old, term in zip(("S", "gradient", "Hessian"), got, expected, terms):
            new, old = np.asarray(new), np.asarray(old)
            assert new.shape == old.shape
            assert np.abs(new - old).max() <= 1e-12 * term, name

    @pytest.mark.parametrize(
        "scene",
        [
            dict(distance=10.0, angle=0.0),
            dict(distance=0.05, angle=0.0),
            dict(distance=0.3, angle=math.radians(60.0)),
            dict(num_elements=64, distance=2.0),
            dict(distance=10.0, angle=math.radians(80.0)),
            _GOLDEN_SCENES["golden-offboresight"],
        ],
        ids=["10m-0deg", "5cm-0deg", "30cm-60deg", "K64-2m", "10m-80deg", "golden-offboresight"],
    )
    def test_hessian_at_the_truth_is_minus_x_sigma2_times_the_fisher(self, scene):
        # On the clean compensated cube every E sample is the amplitude A at the
        # truth, and sum(phase) = 0 over the symmetric symbol grid, so the Hessian
        # of |S|^2 is -2 A^2 X sum(phase_a * phase_b) = -X * sigma^2 * J.
        geom, wf, target, finder = _scene_filter(ScenarioConfig(**scene))
        noise = ChannelNoise.from_snr(wf, 1.0)
        clean = synthesize_noise_free(target, geom, wf, noise).samples
        rows = finder._compensate(clean).reshape(wf.num_symbols, -1)
        truth = [target.radial_velocity, target.transverse_velocity]
        _, _, hess = finder._derivatives(rows, *truth)
        info = fisher_info_closed_form(target, geom, wf, noise.snr(wf))
        expected = -rows.size * noise.noise_variance * np.array(
            [[info.j_rr, info.j_rt], [info.j_rt, info.j_tt]]
        )
        error = np.abs(np.reshape(hess, (2, 2)) - expected).max()
        assert error <= 1e-14 * np.abs(np.diag(expected)).max()


_SPAN = st.tuples(st.floats(-10.0, 10.0), st.floats(0.01, 10.0)).map(lambda low_width: (low_width[0], sum(low_width)))


_COARSE_CASES = dict(
    # Forced per axis: on these scenes the mainlobes would give 3 points on most axes.
    counts=st.tuples(st.integers(3, 42), st.integers(3, 42)),
    num_symbols=st.sampled_from([1, 2, 7, 14]),
    num_subcarriers=st.integers(1, 3),
    num_elements=st.integers(1, 12),
    angle=st.one_of(st.just(math.pi / 2), st.just(-math.pi / 2), st.floats(-1.4, 1.4)),
    spans=st.one_of(st.just(((-1.0, 5.0), (-8.0, 3.0))), st.tuples(_SPAN, _SPAN)),
    seed=st.integers(0, 2**32 - 1),
)


def _forced_filter(geom, wf, distance, angle, search, counts):
    """A filter whose coarse grid has ``counts`` points per axis, whatever its mainlobes."""
    with mock.patch.object(estimator, "_axis_points", side_effect=counts):
        finder = MatchedFilter(geom, wf, distance, angle, search)
    assert (finder._radial_grid.size, finder._transverse_grid.size) == counts
    return finder


def _coarse_case(counts, num_symbols, num_subcarriers, num_elements, angle, spans):
    """A filter at 0.8 m and ``angle`` with ``counts`` grid points, its cube shape, and the full
    2-D phase kernel of its grid, ``(G_r, G_t, X)``."""
    geom = ArrayGeometry(num_elements=num_elements, spacing=0.02)
    wf = make_waveform(
        carrier=6e9, num_subcarriers=num_subcarriers, num_symbols=num_symbols, symbol_time=2e-4
    )
    finder = _forced_filter(geom, wf, 0.8, angle, _search(*spans), counts)
    phase = _full_phase(geom, wf, TargetState(0.8, angle))
    radial, transverse = finder._radial_grid, finder._transverse_grid
    kernel = np.exp(-1j * (radial[:, None, None] * phase[0] + transverse[None, :, None] * phase[1]))
    return finder, (num_symbols, num_subcarriers, num_elements), kernel


class TestCoarseStatistic:
    """``MatchedFilter._statistic``, folded by the mirror symmetry of the grid and of the symbol
    index, against the full 2-D phase: one ``exp`` per grid cell and cube sample."""

    @settings(max_examples=80, deadline=None)
    @given(**_COARSE_CASES)
    def test_folded_grid_matches_the_full_phase(
        self, counts, num_symbols, num_subcarriers, num_elements, angle, spans, seed
    ):
        finder, shape, kernel = _coarse_case(
            counts, num_symbols, num_subcarriers, num_elements, angle, spans
        )
        samples = waveform._unit_noise(shape, np.random.default_rng(seed))
        got = finder._statistic(samples)
        expected = np.sum(kernel * finder._compensate(samples).ravel(), axis=-1)

        assert got.shape == expected.shape == counts
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.argmax(np.abs(got)) == np.argmax(np.abs(expected))
        if abs(angle) == math.pi / 2:
            # End-fire: no transverse phase, so no transverse curvature for the search to see.
            assert np.array_equal(got, np.repeat(got[:, :1], got.shape[1], axis=1))

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(1, 5), **_COARSE_CASES)
    def test_each_cube_of_a_stack_matches_its_one_cube_call(
        self, count, counts, num_symbols, num_subcarriers, num_elements, angle, spans, seed
    ):
        finder, shape, kernel = _coarse_case(
            counts, num_symbols, num_subcarriers, num_elements, angle, spans
        )
        stack = waveform._unit_noise((count,) + shape, np.random.default_rng(seed))
        got = finder._statistic(stack)

        assert got.shape == (count,) + counts
        for samples, grid in zip(stack, got):
            data = finder._compensate(samples).ravel()
            for expected in (finder._statistic(samples), np.sum(kernel * data, axis=-1)):
                assert np.abs(grid - expected).max() <= 1e-12 * np.abs(expected).max()
                assert np.argmax(np.abs(grid)) == np.argmax(np.abs(expected))
            if abs(angle) == math.pi / 2:
                assert np.array_equal(grid, np.repeat(grid[:, :1], grid.shape[1], axis=1))

    @pytest.mark.parametrize(
        ("scene", "grid_points", "counts"),
        [
            (_GOLDEN_SCENES["default"], 41, (41, 5)),
            (_GOLDEN_SCENES["golden-offboresight"], 41, (41, 3)),
            (_GOLDEN_SCENES["golden-endfire"], 41, (41, 3)),
            (dict(num_elements=64, distance=2.0), 41, (41, 13)),
            (dict(distance=0.05), 41, (35, 41)),
            (dict(num_symbols=1), 41, (3, 3)),  # one symbol: no Doppler phase on either axis
            (dict(), 21, (21, 5)),
            (dict(), 20, (19, 5)),  # an even cap takes the odd count below it
            (dict(), 4, (3, 3)),
        ],
        ids=["default", "golden-offboresight", "golden-endfire", "K64-2m", "5cm", "one-symbol", "cap-21", "cap-20", "cap-4"],
    )
    def test_each_axis_takes_its_count_from_its_mainlobe(self, scene, grid_points, counts):
        # A step of half the half-power half-width, odd, from 3 up to grid_points or the odd count below it.
        geom, wf, target, default = _scene_filter(ScenarioConfig(**scene))
        search = dataclasses.replace(default.search, grid_points=grid_points)
        finder = MatchedFilter(geom, wf, target.distance, target.angle, search)
        assert (finder._radial_grid.size, finder._transverse_grid.size) == counts


# A reference grid forced dense on both axes: its radial step is 4x finer than the 41-point cap's, and its
# transverse step 10x finer than the default scene's own (20x the golden off-boresight and end-fire scenes').
_REFERENCE_COUNTS = (161, 41)


@functools.lru_cache(maxsize=None)
def _trial_estimates(scene, snr_db, counts=None, trials=300, seed=0):
    """Estimates ``(trials, 2)`` of Monte Carlo trials ``0 .. trials - 1`` on a golden scene at ``snr_db``,
    and each axis's mainlobe half-power half-width.

    The estimates are those of the library's trial loop, whose coarse grid has the filter's own counts
    or ``counts`` points per axis.
    """
    geom, wf, target, finder = _scene_filter(ScenarioConfig(**_GOLDEN_SCENES[scene]))
    scenario, snr = Scenario(target, geom, wf, finder.search), 10.0 ** (snr_db / 10.0)
    # Forced counts stand in for the mainlobe rule's two calls while the trial loop builds its filter.
    with mock.patch.object(estimator, "_axis_points", side_effect=counts or estimator._axis_points):
        (estimates,) = _library_trials(scenario, [snr], trials, seed)
    # |S|^2 of the clean cube falls to half its peak at sqrt(X / (2 sum((m psi_a)^2))) from the truth.
    m_grid, size = symmetric_index_grid(wf.num_symbols), math.prod(finder._shape)
    half_widths = [
        math.sqrt(size / (2.0 * np.sum((m_grid[:, None] * rates) ** 2))) if rates.any() else math.inf
        for rates in finder._psi
    ]
    return estimates.T, np.array(half_widths)


def _search_failures(scene, snr_db, counts=None):
    """Trials whose estimate lies more than a tenth of a half-width from the reference grid's on an axis,
    or identifies an axis that the reference's does not, or the other way round."""
    estimates, half_widths = _trial_estimates(scene, snr_db, counts)
    reference, _ = _trial_estimates(scene, snr_db, _REFERENCE_COUNTS)
    apart = np.abs(estimates - reference) > half_widths / 10.0
    return int((apart | (np.isnan(estimates) != np.isnan(reference))).any(axis=1).sum())


class TestSearchCheck:
    """The coarse grid only has to start Newton in the basin of the statistic's global peak.  Each
    trial is rerun, with the same Newton, from a reference grid dense on both axes; a trial whose
    estimate differs is a search failure, not an ML outlier.  A denser grid is a stronger check,
    not a proof that the global peak was found."""

    @pytest.mark.parametrize("snr_db", [-20.0, -15.0])
    @pytest.mark.parametrize("scene", sorted(_GOLDEN_SCENES))
    def test_mainlobe_grid_finds_the_reference_peak(self, scene, snr_db):
        assert _search_failures(scene, snr_db) == 0

    @pytest.mark.parametrize("scene", sorted(_GOLDEN_SCENES))
    def test_mainlobe_grid_fails_no_more_often_than_the_square_grid_deep_in_the_threshold(self, scene):
        assert _search_failures(scene, -30.0) <= _search_failures(scene, -30.0, (41, 41))

    def test_a_grid_too_coarse_for_the_radial_mainlobe_fails(self):
        # The check can fail: 15 radial points step 1.6 radial half-widths, where the rule steps 0.5.
        assert _search_failures("default", -20.0, (15, 5)) >= 1

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0])
    @pytest.mark.parametrize(("scene", "seed"), [("default", 3), ("golden-offboresight", 5)])
    def test_golden_trials_equal_the_square_grids_above_the_threshold(self, scene, seed, snr_db):
        # The golden runs' draws: 100 trials at their seeds.
        estimates, _ = _trial_estimates(scene, snr_db, trials=100, seed=seed)
        square, _ = _trial_estimates(scene, snr_db, (41, 41), trials=100, seed=seed)
        np.testing.assert_allclose(estimates, square, rtol=0.0, atol=1e-9)


class TestStepCap:
    """Newton stops after 30 steps (``_MAX_NEWTON_STEPS``) even if it is still moving.  On the golden
    off-boresight run (100 trials, seed 5) two searches at -30 dB reach that cap, and no search at
    0 or 20 dB takes more than 3 steps."""

    def test_step_counts_of_the_golden_offboresight_run(self):
        steps = []  # one count per search, in the trial loop's order: each trial's SNRs in turn
        search, step = MatchedFilter._search, MatchedFilter._step

        def counted_search(finder, *args):
            steps.append(0)
            return search(finder, *args)

        def counted_step(finder, *args):
            steps[-1] += 1
            return step(finder, *args)

        scenario = _golden_scenario("golden-offboresight")
        with mock.patch.object(MatchedFilter, "_search", counted_search), \
                mock.patch.object(MatchedFilter, "_step", counted_step):
            _library_trials(scenario, _linear([-30.0, 0.0, 20.0]), 100, 5)
        per_snr = np.array(steps).reshape(100, 3).T
        assert np.flatnonzero(per_snr[0] == 30).tolist() == [14, 45]
        assert [per_snr[1].max(), per_snr[2].max()] == [3, 2]
