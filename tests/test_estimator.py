"""Tests for the matched-filter ML estimator and its Monte Carlo harness."""

import dataclasses
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfvel import (
    ArrayGeometry,
    ChannelNoise,
    MatchedFilter,
    MlSearchConfig,
    ObservationCube,
    SPEED_OF_LIGHT,
    Scenario,
    TargetState,
    WaveformConfig,
    add_noise,
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

from nfvel import waveform
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
        with pytest.raises(ValueError):
            _search(radial=(5.0, 5.0))
        with pytest.raises(ValueError):
            _search(transverse=(2.0, -2.0))

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError, match="grid_points must be >= 3"):
            _search(grid_points=2)
        with pytest.raises(ValueError, match="grid_points must be >= 3"):
            _search(grid_points=1)

    def test_rejects_bad_refinement(self):
        with pytest.raises(ValueError):
            _search(tolerance=0.0)


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

    def test_rejects_thin_trial_count_and_bad_seed(self):
        scenario = _mc_scenario()
        with pytest.raises(ValueError):
            monte_carlo_mse(scenario, _MC_SNR, trials=99, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_mse(scenario, _MC_SNR, trials=100, seed=-1)

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
        assert math.isnan(report.mse_transverse)
        assert math.isnan(report.ratio_transverse)
        assert math.isinf(report.crlb_transverse)
        assert math.isfinite(report.mse_radial)

    def test_partly_identified_axis_averages_the_trials_that_found_it(self, monkeypatch):
        # Every third trial misses the transverse axis.  Its MSE is the mean over the other
        # trials, which rounds otherwise than a sum with zeros in place of the misses.
        scenario, errors = _mc_scenario(), []
        search = MatchedFilter._search

        def miss_every_third(finder, data, statistic):
            estimate = search(finder, data, statistic)
            if len(errors) % 3 == 0:
                estimate = dataclasses.replace(estimate, transverse=math.nan, transverse_identifiable=False)
            errors.append((estimate.transverse - scenario.target.transverse_velocity) ** 2)
            return estimate

        monkeypatch.setattr(MatchedFilter, "_search", miss_every_third)
        report = monte_carlo_mse(scenario, _MC_SNR, trials=100, seed=4)
        found = np.array([error for error in errors if not math.isnan(error)])
        assert (report.degenerate_trials, found.size) == (34, 66)
        assert report.mse_transverse == float(np.mean(found))
        assert report.ratio_transverse == report.mse_transverse / report.crlb_transverse

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
        trials = 400
        errors = np.empty((trials, 2))
        for trial in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence([314, trial]))
            est = finder.estimate(add_noise(clean, rng).samples)
            assert est.radial_identifiable and est.transverse_identifiable
            errors[trial] = (
                est.radial - target.radial_velocity,
                est.transverse - target.transverse_velocity,
            )
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


class TestSharedNoise:
    @pytest.mark.parametrize("scene", sorted(_SHARED_SCENES))
    def test_shared_grid_estimates_equal_estimate_on_the_noisy_cube(self, scene):
        scenario = _shared_scenario(**_SHARED_SCENES[scene])
        target, geom, wf = scenario.target, scenario.geometry, scenario.waveform
        noises = [ChannelNoise.from_snr(wf, snr) for snr in _linear(range(-30, 21, 10))]
        finder = MatchedFilter(geom, wf, target.distance, target.angle, scenario.search)
        clean = synthesize_noise_free(target, geom, wf, noises[0])
        clean_statistic = finder._statistic(finder._compensate(clean.samples))
        # Each level at its own power of two: the search's own scale takes it out.
        scales = [2.0 ** (60 * row - 150) for row in range(len(noises))]
        flags = set()
        for trial in range(30):
            seeds = np.random.SeedSequence([11, trial])
            unit = waveform._unit_noise(clean.samples.shape, np.random.default_rng(seeds))
            unit_statistic = finder._statistic(finder._compensate(unit))
            for noise, scale in zip(noises, scales):
                sigma = math.sqrt(noise.noise_variance / 2.0) * scale
                # The coarse grid by linearity, from one product for the clean cube and one for the draw.
                est = finder._search(
                    finder._compensate(clean.samples * scale + sigma * unit),
                    clean_statistic * scale + sigma * unit_statistic,
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
        with pytest.raises(ValueError, match="trials must be >= 100"):
            monte_carlo_reports(scenario, [], trials=99, seed=0)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            monte_carlo_reports(scenario, [], trials=100, seed=-1)


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
        # A negative-definite Hessian, not exactly symmetric (as the computed
        # one is not), and a gradient whose Newton step stays inside one cell.
        h_rr, h_tt = (-(10.0**scale) * d for d in diagonal)
        h_rt = rho * math.sqrt(h_rr * h_tt)
        hess = np.array([[h_rr, h_rt], [h_rt * (1.0 + skew), h_tt]])
        grad = -hess @ (np.array(target) * self.cell)
        step = np.array(self.finder._step([0.0, 0.0], grad.tolist(), hess.tolist(), [True, True]))
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
        moved = self.finder._step(velocity, grad, hess, free)
        assert moved[held] == velocity[held]
        cell = self.cell[moving]
        assert moved[moving] == min(max(-g / h, -cell), cell)


def _full_phase_derivatives(geometry, config, position, rows, velocity):
    """``S``, gradient and Hessian from the full phase: one ``exp`` per cube sample.

    This is the refinement's derivative pass before the separable form, kept
    as the oracle for :meth:`MatchedFilter._derivatives`.  The last item
    bounds each result's terms in size: ``S`` by ``a_0 = sum(|E|)``, the first
    and second phase sums by ``a_1 = max_a sum(|phase_a * E|)`` and
    ``a_2 = max_a sum(phase_a**2 * |E|)``, so the gradient by ``2 a_0 a_1``
    and the Hessian by ``2 max(a_1**2, a_0 a_2)``.
    """
    freqs = subcarrier_frequencies(config)
    q = radial_projection_coeffs(position, geometry)
    p = transverse_projection_coeffs(position, geometry)
    m_grid = symmetric_index_grid(config.num_symbols)
    scale = 2.0 * math.pi * config.symbol_time / SPEED_OF_LIGHT
    sens = scale * m_grid[:, None, None] * freqs[None, :, None]
    phase = np.stack([sens * (1.0 + q), sens * p]).reshape(2, -1)
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
        got = finder._derivatives(rows, velocity)
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
            # The off-boresight golden case.
            dict(num_symbols=15, num_subcarriers=2, num_elements=31, angle=math.radians(40.0)),
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
        _, _, hess = finder._derivatives(rows, truth)
        info = fisher_info_closed_form(target, geom, wf, noise.snr(wf))
        expected = -rows.size * noise.noise_variance * np.array(
            [[info.j_rr, info.j_rt], [info.j_rt, info.j_tt]]
        )
        error = np.abs(np.array(hess) - expected).max()
        assert error <= 1e-14 * np.abs(np.diag(expected)).max()
