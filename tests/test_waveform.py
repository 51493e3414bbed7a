"""Signal model: subcarriers, Doppler, synthesis, noise and the link budget."""

import dataclasses
import math
import re

import numpy as np
import pytest

from nfvel import (
    ArrayGeometry,
    BOLTZMANN_CONSTANT,
    ChannelNoise,
    SPEED_OF_LIGHT,
    TargetState,
    add_noise,
    doppler_shifts,
    element_distances,
    round_trip_delays,
    snr_from_link_budget,
    subcarrier_frequencies,
    synthesize_noise_free,
    waveform,
)
from conftest import cartesian_los_speeds, make_waveform

# Independently computed reference values.
DOPPLER_CENTRE_28GHZ_10MPS = 1867.9589331096513
LINK_BUDGET_SNR_AT_10M = 302.0182762169147


class TestWaveformConfig:
    def test_cyclic_prefix_from_defaults(self):
        wf = make_waveform()
        assert wf.cyclic_prefix == pytest.approx(16.6e-3 - 1.0 / 120e3, rel=1e-12)
        assert wf.cyclic_prefix >= 0.0

    def test_rejects_negative_cyclic_prefix(self):
        message = r"^symbol_time implies a negative cyclic prefix: T_sym=1e-06 < 1/spacing=8.333333333333334e-06$"
        with pytest.raises(ValueError, match=message):
            make_waveform(symbol_time=1e-6, subcarrier_spacing=120e3)

    def test_zero_cyclic_prefix_is_allowed(self):
        wf = make_waveform(symbol_time=1.0 / 120e3)
        assert wf.cyclic_prefix == 0.0

    def test_subcarrier_power_split(self):
        wf = make_waveform(num_subcarriers=8, total_power=2.0)
        assert wf.subcarrier_power == 0.25
        assert wf.bandwidth == 8 * 120e3

    def test_wideband_warning(self):
        with pytest.warns(UserWarning):
            make_waveform(carrier=1e9, num_subcarriers=1000, subcarrier_spacing=1e6,
                          symbol_time=1e-5)


class TestSubcarrierFrequencies:
    def test_scalar_form(self):
        # f_n = carrier + n * spacing at grid indices n = -2..2 and -1.5..1.5
        odd = subcarrier_frequencies(make_waveform(num_subcarriers=5))
        assert odd[2] == 28e9
        assert odd[4] == 28e9 + 240e3
        even = subcarrier_frequencies(make_waveform(num_subcarriers=4))
        assert even[1] == 28e9 - 60e3

    def test_grid_is_symmetric_about_carrier(self):
        wf = make_waveform(num_subcarriers=12)
        freqs = subcarrier_frequencies(wf)
        assert freqs.shape == (12,)
        assert np.mean(freqs) == pytest.approx(28e9, rel=1e-15)
        assert np.all(np.diff(freqs) == pytest.approx(120e3, rel=1e-12))

    def test_single_subcarrier_sits_on_carrier(self):
        wf = make_waveform(num_subcarriers=1)
        assert subcarrier_frequencies(wf).tolist() == [28e9]


class TestDopplerShift:
    def test_centre_element_reference_value(self):
        # k=0 at 28 GHz with v_r = 10: two-way shift 2*(f/c)*v ~ 1868 Hz
        wf = make_waveform()
        geom = ArrayGeometry.half_wavelength(101, 28e9)
        target = TargetState(distance=10.0, angle=0.3, radial_velocity=10.0)
        shift = doppler_shifts(target, geom, wf)[0, 50]
        assert shift == pytest.approx(DOPPLER_CENTRE_28GHZ_10MPS, rel=1e-12)
        assert shift == pytest.approx(1868.0, abs=0.1)

    def test_pure_transverse_velocity_gives_no_centre_shift(self):
        wf = make_waveform()
        geom = ArrayGeometry.half_wavelength(11, 28e9)
        target = TargetState(distance=5.0, angle=0.0, transverse_velocity=25.0)
        assert doppler_shifts(target, geom, wf)[0, 5] == 0.0

    def test_vectorized_matches_scalar(self):
        # Every (n, k) entry equals (f_n / c) * (v_r + line-of-sight speed),
        # with the line-of-sight speed from the Cartesian dot-product oracle.
        wf = make_waveform(num_subcarriers=4)
        geom = ArrayGeometry(num_elements=5, spacing=0.01)
        target = TargetState(2.0, 0.4, radial_velocity=7.0, transverse_velocity=-3.0)
        table = doppler_shifts(target, geom, wf)
        assert table.shape == (4, 5)
        los = cartesian_los_speeds(target, geom)
        for i, f_n in enumerate(subcarrier_frequencies(wf)):
            for j in range(geom.num_elements):
                expected = f_n / SPEED_OF_LIGHT * (target.radial_velocity + los[j])
                assert table[i, j] == pytest.approx(expected, rel=1e-12)

    def test_scales_linearly_with_velocity(self):
        wf = make_waveform()
        geom = ArrayGeometry.half_wavelength(21, 28e9)
        slow = TargetState(3.0, 0.2, radial_velocity=1.0, transverse_velocity=0.5)
        fast = TargetState(3.0, 0.2, radial_velocity=4.0, transverse_velocity=2.0)
        assert np.allclose(
            doppler_shifts(fast, geom, wf), 4.0 * doppler_shifts(slow, geom, wf), rtol=1e-12
        )


class TestSynthesis:
    def test_shape_and_constant_magnitude(self):
        wf = make_waveform(num_subcarriers=3, num_symbols=6, total_power=4.0)
        geom = ArrayGeometry(num_elements=9, spacing=0.005)
        noise = ChannelNoise(gain=0.5, noise_variance=1e-9)
        target = TargetState(1.5, -0.2, radial_velocity=5.0, transverse_velocity=2.0)
        cube = synthesize_noise_free(target, geom, wf, noise)
        assert cube.samples.shape == (6, 3, 9)
        expected = math.sqrt(4.0 / 3.0) * 0.5
        assert np.allclose(np.abs(cube.samples), expected, rtol=1e-13)
        # A cube holds (M, N, K) samples, in that order.
        with pytest.raises(ValueError, match=re.escape("samples shape (9, 3, 6) != expected (6, 3, 9)")):
            dataclasses.replace(cube, samples=cube.samples.T)

    def test_slow_time_ratio_equals_doppler_increment(self):
        # consecutive symbols differ by exactly exp(j*2*pi*nu*T_sym)
        rng = np.random.default_rng(17)
        for _ in range(20):
            wf = make_waveform(
                num_subcarriers=int(rng.integers(1, 5)),
                num_symbols=int(rng.integers(2, 10)),
            )
            geom = ArrayGeometry(int(rng.integers(1, 12)), float(rng.uniform(0.003, 0.05)))
            target = TargetState(
                float(rng.uniform(0.5, 30.0)),
                float(rng.uniform(-1.2, 1.2)),
                radial_velocity=float(rng.uniform(-20, 20)),
                transverse_velocity=float(rng.uniform(-20, 20)),
            )
            noise = ChannelNoise(gain=1.0, noise_variance=1.0)
            cube = synthesize_noise_free(target, geom, wf, noise)
            ratio = cube.samples[1:] / cube.samples[:-1]
            expected = np.exp(2j * np.pi * doppler_shifts(target, geom, wf) * wf.symbol_time)
            assert np.allclose(ratio, expected[None, :, :], rtol=1e-11, atol=1e-11)

    def test_delay_phase_on_static_target(self):
        # no motion: sample is sqrt(P/N)*gain*exp(-j*2*pi*f_n*tau_k) for every symbol
        wf = make_waveform(num_subcarriers=2, num_symbols=3)
        geom = ArrayGeometry(num_elements=4, spacing=0.01)
        target = TargetState(2.0, 0.1)
        noise = ChannelNoise(gain=2.0, noise_variance=1.0)
        cube = synthesize_noise_free(target, geom, wf, noise)
        delays = round_trip_delays(target, geom)
        freqs = subcarrier_frequencies(wf)
        amplitude = math.sqrt(wf.subcarrier_power) * 2.0
        expected = amplitude * np.exp(-2j * np.pi * freqs[:, None] * delays[None, :])
        for m in range(3):
            assert np.allclose(cube.samples[m], expected, rtol=1e-12)

    def test_round_trip_delay_bracketed_by_path_lengths(self):
        # the echo travels centre->target->element: total path is between the
        # target range alone and twice the range plus the full aperture
        geom = ArrayGeometry(num_elements=15, spacing=0.1)
        target = TargetState(3.0, 0.8)
        delays = round_trip_delays(target, geom)
        paths = delays * SPEED_OF_LIGHT
        assert np.all(paths > 3.0)
        assert np.all(paths <= 2 * 3.0 + geom.aperture)
        dists = element_distances(target, geom)
        assert np.allclose(paths, 3.0 + dists, rtol=1e-14)


class TestNoise:
    def test_same_seed_bit_identical(self):
        wf = make_waveform(num_symbols=4)
        geom = ArrayGeometry(num_elements=6, spacing=0.005)
        noise = ChannelNoise(gain=1.0, noise_variance=1e-3)
        cube = synthesize_noise_free(TargetState(2.0, 0.0), geom, wf, noise)
        a = add_noise(cube, 1234)
        b = add_noise(cube, 1234)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seed_differs(self):
        wf = make_waveform(num_symbols=4)
        geom = ArrayGeometry(num_elements=6, spacing=0.005)
        noise = ChannelNoise(gain=1.0, noise_variance=1e-3)
        cube = synthesize_noise_free(TargetState(2.0, 0.0), geom, wf, noise)
        assert not np.array_equal(add_noise(cube, 1).samples, add_noise(cube, 2).samples)

    def test_sample_variance_matches_nominal(self):
        # complex variance within 5% on a 32*2*101 cube for a handful of seeds
        wf = make_waveform(num_symbols=32, num_subcarriers=2)
        geom = ArrayGeometry(num_elements=101, spacing=0.005)
        variance = 2.5e-4
        noise = ChannelNoise(gain=1.0, noise_variance=variance)
        cube = synthesize_noise_free(TargetState(5.0, 0.0), geom, wf, noise)
        for seed in (0, 1, 2, 3):
            drawn = add_noise(cube, seed).samples - cube.samples
            measured = float(np.mean(np.abs(drawn) ** 2))
            assert measured == pytest.approx(variance, rel=0.05)
            assert abs(np.mean(drawn)) < 5 * math.sqrt(variance / drawn.size)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (14, 1, 101), (3, 2, 5)])
    def test_unit_noise_is_the_bits_of_the_two_draws_summed(self, shape):
        # The draws go into one complex array through .real and .imag; the
        # bytes are those of the real draw plus 1j times the second draw.
        for seed in range(4):
            old = np.random.default_rng(seed)
            expected = old.standard_normal(shape) + 1j * old.standard_normal(shape)
            drawn = waveform._unit_noise(shape, seed)
            assert drawn.dtype == expected.dtype and drawn.shape == shape
            assert drawn.tobytes() == expected.tobytes()

    def test_from_snr_round_trip(self):
        wf = make_waveform(total_power=0.5, num_subcarriers=5)
        noise = ChannelNoise.from_snr(wf, 37.5)
        assert noise.gain == 1.0
        assert noise.snr(wf) == pytest.approx(37.5, rel=1e-14)

    def test_from_noise_figure_thermal_floor(self):
        spacing = 120e3
        figure = 10.0**0.9
        noise = ChannelNoise.from_noise_figure(figure, spacing)
        expected = BOLTZMANN_CONSTANT * 290.0 * figure * spacing
        assert noise.noise_variance == pytest.approx(expected, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError, match="^linear noise figure must be >= 1, got 0.5$"):
            ChannelNoise.from_noise_figure(0.5, 120e3)

        # A floor k_B*T*F*spacing that underflows or overflows names its three factors.
        for figure, spacing, temperature in ((2.0, 120e3, 1e-320), (1e300, 1e300, 290.0)):
            message = r"^temperature .+, noise_figure .+ and subcarrier_spacing .+ outside the float range$"
            with pytest.raises(ValueError, match=message):
                ChannelNoise.from_noise_figure(figure, spacing, temperature=temperature)


class TestLinkBudget:
    def test_reference_value(self):
        # 23 dBm, 9 dB noise figure, unit gains and RCS, 28 GHz, 120 kHz, d=10
        wf = make_waveform(total_power=10.0**2.3 * 1e-3)
        snr = snr_from_link_budget(
            10.0, wf, radar_cross_section=1.0, tx_gain=1.0, rx_gain=1.0,
            noise_figure=10.0**0.9, temperature=290.0,
        )
        assert snr == pytest.approx(LINK_BUDGET_SNR_AT_10M, rel=1e-12)

    def test_inverse_fourth_power_range_law(self):
        wf = make_waveform()
        near = snr_from_link_budget(10.0, wf, noise_figure=2.0)
        far = snr_from_link_budget(20.0, wf, noise_figure=2.0)
        assert near / far == pytest.approx(16.0, rel=1e-12)

    def test_scales_with_power_and_rcs(self):
        wf1 = make_waveform(total_power=1.0)
        wf2 = make_waveform(total_power=3.0)
        assert snr_from_link_budget(5.0, wf2) == pytest.approx(
            3.0 * snr_from_link_budget(5.0, wf1), rel=1e-12
        )
        assert snr_from_link_budget(5.0, wf1, radar_cross_section=2.5) == pytest.approx(
            2.5 * snr_from_link_budget(5.0, wf1), rel=1e-12
        )

    def test_distance_array_matches_scalar_calls(self):
        wf = make_waveform()
        distances = np.random.default_rng(5).uniform(0.01, 300.0, size=(40, 5))
        batch = snr_from_link_budget(distances, wf, noise_figure=3.0)
        assert batch.shape == (40, 5)
        for d, snr in zip(distances.ravel().tolist(), batch.ravel().tolist()):
            assert snr == snr_from_link_budget(d, wf, noise_figure=3.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_distance_past_the_float_range_gives_inf_or_0_for_scalar_and_array(self):
        # At the centre, within ~1e-81 m of it where distance**4 underflows to 0, and
        # below ~1e-75 m where the SNR's quotient overflows, the SNR is inf; past ~1e77 m,
        # where distance**4 overflows, it is 0.
        wf = make_waveform()
        for distance, expected in ((1e-100, math.inf), (1e-78, math.inf), (0.0, math.inf), (1e80, 0.0)):
            scalar = snr_from_link_budget(distance, wf)
            assert type(scalar) is float and scalar == expected
            assert snr_from_link_budget(np.array([distance]), wf).tolist() == [expected]
        assert snr_from_link_budget(np.array([1.0, 1e80]), wf)[1] == 0.0
        # A list entry no float holds gives 0 as the same int alone does.
        assert snr_from_link_budget([1.0, 10**400], wf).tolist() == [snr_from_link_budget(1.0, wf), 0.0]
        assert type(snr_from_link_budget(5.0, wf)) is float

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float_power_gives_inf_past_the_float_range(self):
        # An int no float holds, a numpy scalar and a float, alone or in an array.
        for value in (10**400, np.float64(1e200), 1e200):
            assert waveform._float_power(value, 2) == math.inf
        assert waveform._float_power(np.array([3.0, 1e200]), 2).tolist() == [9.0, math.inf]
        assert waveform._float_power(10.0, 400 / 10.0) == 1e40
        assert waveform._float_power(10.0, 4000 / 10.0) == math.inf

    def test_validation(self):
        wf = make_waveform()
        # Distance 0, the array centre, gives inf; a negative or NaN distance is named.
        for bad in (-1.0, math.nan, np.array([1.0, 0.0, -1.0]), np.array([0.0, math.nan])):
            with pytest.raises(ValueError, match="^distance must be nonnegative, got "):
                snr_from_link_budget(bad, wf)
        with pytest.raises(ValueError, match="noise figure"):
            snr_from_link_budget(1.0, wf, noise_figure=0.9)
        with pytest.raises(ValueError, match="temperature"):
            snr_from_link_budget(1.0, wf, temperature=0.0)
