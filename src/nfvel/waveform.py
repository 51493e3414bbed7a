"""OFDM observation model for the monostatic array radar.

A burst of ``M`` symbols on ``N`` subcarriers is received on ``K`` elements.
Sample ``(m, n, k)`` of the noise-free cube is

    sqrt(P) * gain * exp(-j*2*pi*f_n*tau_k) * exp(j*2*pi*nu_nk*m*T_sym)

with per-subcarrier power ``P``, subcarrier frequency ``f_n``, round-trip
delay ``tau_k`` and per-element Doppler ``nu_nk``.  Slow-time and subcarrier
indices ``m`` and ``n`` use the same symmetric unit-step grids as the element
index ``k``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN_CONSTANT, REFERENCE_TEMPERATURE, SPEED_OF_LIGHT
from .geometry import (
    ArrayGeometry,
    TargetState,
    _per_point,
    _require_count,
    _require_positive,
    element_distances,
    radial_projection_coeffs,
    symmetric_index_grid,
    transverse_projection_coeffs,
)

__all__ = [
    "ChannelNoise",
    "ObservationCube",
    "WaveformConfig",
    "add_noise",
    "doppler_shifts",
    "round_trip_delays",
    "snr_from_link_budget",
    "subcarrier_frequencies",
    "synthesize_noise_free",
]

# Fractional bandwidth beyond which the narrowband array model starts to bend.
_NARROWBAND_LIMIT = 0.1


@dataclass(frozen=True)
class WaveformConfig:
    """OFDM burst parameters.

    Args:
        carrier: Centre frequency f_c in Hz.
        num_subcarriers: Subcarrier count N >= 1.
        subcarrier_spacing: Spacing between subcarriers in Hz.
        num_symbols: Slow-time symbol count M >= 1.
        symbol_time: Full symbol duration T_sym in seconds, including the
            cyclic prefix, so ``symbol_time >= 1/subcarrier_spacing``.
        total_power: Transmit power in watts, split evenly across subcarriers.
    """

    carrier: float
    num_subcarriers: int
    subcarrier_spacing: float
    num_symbols: int
    symbol_time: float
    total_power: float = 1.0

    def __post_init__(self) -> None:
        _require_positive(carrier=self.carrier)
        _require_count(1, num_subcarriers=self.num_subcarriers)
        _require_positive(subcarrier_spacing=self.subcarrier_spacing)
        _require_count(1, num_symbols=self.num_symbols)
        _require_positive(symbol_time=self.symbol_time, total_power=self.total_power)
        # The bounds and the link budget square these: name a square past the float range.
        squared = {"carrier": (self.carrier, self.wavelength), "symbol_time": (self.symbol_time,)}
        for name, values in squared.items():
            if not all(0.0 < v * v < math.inf for v in values):
                raise ValueError(f"{name} {getattr(self, name)!r} squares past the float range")
        # Allow a hair of rounding slack when T_sym is specified as exactly
        # the reciprocal spacing.
        if self.symbol_time * self.subcarrier_spacing < 1.0 - 1e-12:
            raise ValueError(
                "symbol_time implies a negative cyclic prefix: "
                f"T_sym={self.symbol_time!r} < 1/spacing={1.0 / self.subcarrier_spacing!r}"
            )
        if self.bandwidth > _NARROWBAND_LIMIT * self.carrier:
            warnings.warn(
                f"bandwidth {self.bandwidth:.3e} Hz exceeds {_NARROWBAND_LIMIT:.0%} of the "
                f"carrier {self.carrier:.3e} Hz; the narrowband model is strained",
                stacklevel=2,
            )

    @property
    def bandwidth(self) -> float:
        """Occupied bandwidth ``N * subcarrier_spacing`` in Hz."""
        return self.num_subcarriers * self.subcarrier_spacing

    @property
    def cyclic_prefix(self) -> float:
        """Cyclic prefix duration in seconds (never negative)."""
        return max(self.symbol_time - 1.0 / self.subcarrier_spacing, 0.0)

    @property
    def subcarrier_power(self) -> float:
        """Per-subcarrier transmit power ``total_power / N`` in watts."""
        return self.total_power / self.num_subcarriers

    @property
    def wavelength(self) -> float:
        """Carrier wavelength in metres."""
        return SPEED_OF_LIGHT / self.carrier


@dataclass(frozen=True)
class ChannelNoise:
    """Round-trip channel gain and receiver noise level.

    Args:
        gain: Real amplitude gain of the two-way channel.
        noise_variance: Complex noise variance per sample in watts.
    """

    gain: float
    noise_variance: float

    def __post_init__(self) -> None:
        _require_positive(gain=self.gain, noise_variance=self.noise_variance)

    def snr(self, config: WaveformConfig) -> float:
        """Per-sample SNR ``P * gain**2 / noise_variance`` (linear)."""
        return config.subcarrier_power * self.gain**2 / self.noise_variance

    @classmethod
    def from_snr(cls, config: WaveformConfig, snr: float) -> "ChannelNoise":
        """Unit-gain channel whose noise floor realises the requested linear SNR."""
        _require_positive(snr=snr)
        variance = config.subcarrier_power / snr
        if not 0.0 < variance < math.inf:
            raise ValueError(f"snr {snr!r} puts the noise floor P/snr = {variance!r} outside the float range")
        return cls(gain=1.0, noise_variance=variance)

    @classmethod
    def from_noise_figure(
        cls,
        noise_figure: float,
        subcarrier_spacing: float,
        gain: float = 1.0,
        temperature: float = REFERENCE_TEMPERATURE,
    ) -> "ChannelNoise":
        """Thermal noise floor ``k_B * T * F * subcarrier_spacing`` (all linear units)."""
        if not noise_figure >= 1.0:
            raise ValueError(f"linear noise figure must be >= 1, got {noise_figure!r}")
        _require_positive(subcarrier_spacing=subcarrier_spacing, temperature=temperature)
        variance = BOLTZMANN_CONSTANT * temperature * noise_figure * subcarrier_spacing
        if not 0.0 < variance < math.inf:
            raise ValueError(
                f"temperature {temperature!r}, noise_figure {noise_figure!r} and subcarrier_spacing "
                f"{subcarrier_spacing!r} put the noise floor k_B*T*F*subcarrier_spacing = {variance!r} "
                "outside the float range"
            )
        return cls(gain=gain, noise_variance=variance)


@dataclass(frozen=True)
class ObservationCube:
    """Received samples of one burst, shaped ``(M, N, K)``, plus their provenance."""

    samples: np.ndarray
    config: WaveformConfig
    geometry: ArrayGeometry
    noise: ChannelNoise

    def __post_init__(self) -> None:
        expected = (
            self.config.num_symbols,
            self.config.num_subcarriers,
            self.geometry.num_elements,
        )
        if self.samples.shape != expected:
            raise ValueError(f"samples shape {self.samples.shape} != expected {expected}")


def subcarrier_frequencies(config: WaveformConfig) -> np.ndarray:
    """All subcarrier frequencies on the symmetric grid, Hz."""
    return config.carrier + symmetric_index_grid(config.num_subcarriers) * config.subcarrier_spacing


def round_trip_delays(target: TargetState, geometry: ArrayGeometry) -> np.ndarray:
    """Two-way delay ``(d + d_k)/c`` seen by each element, seconds.

    A ``ValueError`` names a distance whose longest round trip ``d + d_k`` leaves the float range.
    """
    distances = element_distances(target, geometry)
    if not float(target.distance) + float(distances.max()) < math.inf:  # Python floats overflow without a warning
        raise ValueError(f"distance {target.distance!r} puts the round trip d + d_k past the float range")
    return (target.distance + distances) / SPEED_OF_LIGHT


def doppler_shifts(
    target: TargetState, geometry: ArrayGeometry, config: WaveformConfig
) -> np.ndarray:
    """Doppler shift for every ``(n, k)`` pair, shaped ``(N, K)``."""
    freqs = subcarrier_frequencies(config)
    q = radial_projection_coeffs(target, geometry)
    p = transverse_projection_coeffs(target, geometry)
    v_seen = target.radial_velocity * (1.0 + q) + target.transverse_velocity * p
    return freqs[:, None] / SPEED_OF_LIGHT * v_seen[None, :]


def _phase_rates(target: TargetState, geometry: ArrayGeometry, config: WaveformConfig) -> np.ndarray:
    """Phase per symbol and unit velocity, psi, shaped ``(2, N, K)``: radial, then transverse.

    ``2*pi*T_sym*f_n/c`` times ``1 + q_k``, then ``p_k``: symbol ``m`` turns by ``m * (v_r psi[0] + v_t psi[1])``.
    """
    freqs = subcarrier_frequencies(config)
    q = radial_projection_coeffs(target, geometry)
    p = transverse_projection_coeffs(target, geometry)
    scale = 2.0 * math.pi * config.symbol_time / SPEED_OF_LIGHT
    return scale * freqs[:, None] * np.stack([1.0 + q, p])[:, None, :]


def synthesize_noise_free(
    target: TargetState,
    geometry: ArrayGeometry,
    config: WaveformConfig,
    noise: ChannelNoise,
) -> ObservationCube:
    """Build the noise-free observation cube for one target.

    Returns:
        ObservationCube with samples of constant magnitude
        ``sqrt(subcarrier_power) * gain``; the delay term uses the exact
        per-subcarrier frequency.
    """
    m_grid = symmetric_index_grid(config.num_symbols)
    freqs = subcarrier_frequencies(config)
    delays = round_trip_delays(target, geometry)

    delay_phase = np.exp(-2j * math.pi * freqs[:, None] * delays[None, :])  # (N, K)
    doppler = doppler_shifts(target, geometry, config)  # (N, K)
    doppler_phase = np.exp(
        2j * math.pi * config.symbol_time * m_grid[:, None, None] * doppler[None, :, :]
    )  # (M, N, K)

    amplitude = math.sqrt(config.subcarrier_power) * noise.gain
    samples = amplitude * delay_phase[None, :, :] * doppler_phase
    return ObservationCube(samples=samples, config=config, geometry=geometry, noise=noise)


def add_noise(
    cube: ObservationCube, rng: int | np.random.Generator
) -> ObservationCube:
    """Return a copy of ``cube`` with circular complex Gaussian noise added.

    Args:
        cube: Observation to perturb.
        rng: Seed or generator; a fresh generator is derived per call, so the
            same seed always yields the same noise draw.
    """
    sigma = math.sqrt(cube.noise.noise_variance / 2.0)
    return ObservationCube(
        samples=cube.samples + sigma * _unit_noise(cube.samples.shape, rng),
        config=cube.config,
        geometry=cube.geometry,
        noise=cube.noise,
    )


def _unit_noise(shape: tuple[int, ...], rng: int | np.random.Generator) -> np.ndarray:
    """The draw :func:`add_noise` scales: unit-variance real and imaginary parts."""
    gen = np.random.default_rng(rng)
    noise = np.empty(shape, complex)
    noise.real, noise.imag = gen.standard_normal(shape), gen.standard_normal(shape)
    return noise


def _float_power(value, exponent):
    """``float(value) ** exponent`` by Python's power, ``inf`` where that overflows; an array goes element by element.

    numpy's vectorised power can round differently in the last bit, and its scalar power warns at overflow.
    """

    def power(v) -> float:
        try:
            return float(v) ** exponent
        except OverflowError:
            return math.inf

    return power(value) if np.ndim(value) == 0 else _per_point(power, value)


def snr_from_link_budget(
    distance,
    config: WaveformConfig,
    *,
    radar_cross_section: float = 1.0,
    tx_gain: float = 1.0,
    rx_gain: float = 1.0,
    noise_figure: float = 1.0,
    temperature: float = REFERENCE_TEMPERATURE,
) -> float:
    """Per-subcarrier SNR of a point scatterer from the two-way radar equation.

    Args:
        distance: One-way range in metres, ``>= 0``; an array gives an array
            of the same shape.
        config: Burst parameters; supplies per-subcarrier power, wavelength
            and the noise bandwidth (one subcarrier spacing).
        radar_cross_section: Target RCS in m^2.
        tx_gain: Transmit antenna gain, linear.
        rx_gain: Per-element receive gain, linear.
        noise_figure: Receiver noise figure, linear (>= 1).
        temperature: Noise reference temperature in kelvin.

    Returns:
        Linear SNR; scales as ``distance**-4``: ``inf`` at 0 and 0 past about 1e77 m.
    """
    if not np.all(np.asarray(distance) >= 0.0):
        raise ValueError(f"distance must be nonnegative, got {distance!r}")
    _require_positive(radar_cross_section=radar_cross_section, tx_gain=tx_gain, rx_gain=rx_gain)
    noise_power = ChannelNoise.from_noise_figure(
        noise_figure, config.subcarrier_spacing, temperature=temperature
    ).noise_variance

    wavelength = config.wavelength
    # The SNR is inf at the centre and near it, where distance**4 underflows or the quotient overflows, and 0 far out.
    with np.errstate(divide="ignore", over="ignore"):
        received = (
            config.subcarrier_power
            * tx_gain
            * rx_gain
            * wavelength**2
            * radar_cross_section
            / ((4.0 * math.pi) ** 3 * np.asarray(_float_power(distance, 4)))
        )
        snr = received / noise_power
    return float(snr) if np.ndim(distance) == 0 else snr
