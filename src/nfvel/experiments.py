"""Reference sweeps over the bounds.

Every runner returns a :class:`~nfvel.table.CsvTable` that holds one sequence
per column, a numpy array in the bound sweeps; writing the table twice with the
same configuration produces byte-identical files.  Floats are written as ``'%.12e' % v``; non-finite
bounds are written as ``inf``, an MSE that no trial could estimate as
``none``, and never NaN.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .bounds import (
    closed_form_bounds,
    crlb_from_fisher,
    crossover_distance,
    fisher_info_closed_form,
    radial_crlb_far_field,
    radial_info_boresight,
    transverse_info_half_wavelength,
)
from .constants import REFERENCE_TEMPERATURE, SPEED_OF_LIGHT
from .estimator import MlSearchConfig, Scenario, monte_carlo_reports
from .geometry import ArrayGeometry, DegenerateGeometryError, TargetState, _require_positive
from .table import CsvTable, format_cell
from .waveform import WaveformConfig, snr_from_link_budget

__all__ = [
    "CsvTable",
    "ScenarioConfig",
    "format_cell",
    "run_montecarlo",
    "run_planar_map",
    "run_radial_vs_distance",
    "run_single",
    "run_carrier_comparison",
    "run_sweep",
    "run_transverse_vs_distance",
]

_SWEEP_VARIABLES = ("distance", "angle", "carrier", "aperture")


@dataclass(frozen=True)
class ScenarioConfig:
    """Resolved scenario parameters shared by all experiment runners.

    Angles are radians and every physical quantity is in base SI units;
    ``snr``, gains and the noise figure are linear ratios.  ``spacing`` and
    ``aperture`` are mutually exclusive ways to size the array; with neither
    given the spacing defaults to half the carrier wavelength.
    """

    carrier: float = 28e9
    num_elements: int = 101
    spacing: float | None = None
    aperture: float | None = None
    num_subcarriers: int = 1
    subcarrier_spacing: float = 120e3
    num_symbols: int = 14
    symbol_time: float = 16.6e-3
    snr: float = 1.0
    distance: float = 10.0
    angle: float = 0.0
    radial_velocity: float = 3.0
    transverse_velocity: float = 1.0
    tx_power: float = 10.0**2.3 * 1e-3
    noise_figure: float = 10.0**0.9
    radar_cross_section: float = 1.0
    tx_gain: float = 1.0
    rx_gain: float = 1.0
    temperature: float = REFERENCE_TEMPERATURE

    def __post_init__(self) -> None:
        if self.spacing is not None and self.aperture is not None:
            raise ValueError("give spacing or aperture, not both")

    def geometry(self) -> ArrayGeometry:
        if self.aperture is not None:
            return _aperture_geometry(self.num_elements, self.aperture)
        if self.spacing is None:
            return ArrayGeometry.half_wavelength(self.num_elements, self.carrier)
        return ArrayGeometry(num_elements=self.num_elements, spacing=self.spacing)

    def waveform(self) -> WaveformConfig:
        return WaveformConfig(
            carrier=self.carrier,
            num_subcarriers=self.num_subcarriers,
            subcarrier_spacing=self.subcarrier_spacing,
            num_symbols=self.num_symbols,
            symbol_time=self.symbol_time,
            total_power=self.tx_power,
        )

    def target(self) -> TargetState:
        return TargetState(
            distance=self.distance,
            angle=self.angle,
            radial_velocity=self.radial_velocity,
            transverse_velocity=self.transverse_velocity,
        )


def _root_inverse(info: np.ndarray) -> np.ndarray:
    """1/sqrt(info) per entry, with an infinite result for a null information value.

    The root comes first: ``1/info`` overflows below about 5.6e-309, where the bound is finite.
    """
    with np.errstate(divide="ignore"):
        return 1.0 / np.sqrt(info)


def _aperture_geometry(num_elements: int, aperture: float) -> ArrayGeometry:
    if num_elements < 2:
        raise ValueError(f"num_elements must be >= 2 to size by aperture, got {num_elements}")
    return ArrayGeometry(num_elements, aperture / (num_elements - 1))


def _scenario_meta(config: ScenarioConfig) -> dict:
    meta = asdict(config)
    geometry = config.geometry()
    meta["resolved_spacing"] = geometry.spacing
    meta["resolved_aperture"] = geometry.aperture
    return meta


def _table(
    name: str, config: ScenarioConfig, columns: tuple[str, ...], data, **parameters
) -> CsvTable:
    """A table of one sequence per column, or of no rows when ``data`` is empty.

    Its header echoes the resolved scenario and the runner's parameters.
    """
    return CsvTable(
        name=name,
        columns=columns,
        data=tuple(data) or ((),) * len(columns),
        meta={**_scenario_meta(config), **parameters},
    )


def _stacked(groups: list[tuple]) -> list[np.ndarray]:
    """One array per column from groups of rows, each with a sequence or a repeated scalar per column."""
    return [np.concatenate(parts) for parts in zip(*(np.broadcast_arrays(*group) for group in groups))]


def _check_grid_sizes(**sizes: int) -> None:
    for key, size in sizes.items():
        if size < 1:
            raise ValueError(f"{key} must be >= 1, got {size!r}")


def _check_increasing(points: int, **bounds: float) -> None:
    """Reject a grid whose upper bound (second key) is not above its lower bound (first key).

    Equal bounds are allowed only for a one-point grid, such as a single boresight column.
    """
    (low_key, low), (high_key, high) = bounds.items()
    if not (high > low or (high == low and points == 1)):
        raise ValueError(f"{high_key} must exceed {low_key}, got {low!r} and {high!r}")


def _check_angles(**values) -> None:
    """Reject an angle in degrees, or a list entry, outside ``[-90, 90]``."""
    for key, value in values.items():
        if not all(abs(v) <= 90.0 for v in np.atleast_1d(value)):
            raise ValueError(f"{key} must lie in [-90, 90] degrees, got {value!r}")


def _aperture_defaults(
    config: ScenarioConfig,
    apertures: Sequence[float] | None,
    d_min: float | None,
    d_max: float | None,
) -> tuple[Sequence[float], list[ArrayGeometry], float, float]:
    """Apertures, their arrays and the distance span of fig1 and fig2.

    By default the apertures are those of one, two and four half-wavelength
    arrays, and distances run from a twentieth of the smallest aperture to
    100 times the largest.  The caller has checked the carrier already.
    """
    if apertures is None:
        base = (config.num_elements - 1) * SPEED_OF_LIGHT / (2.0 * config.carrier)
        apertures = [base, 2.0 * base, 4.0 * base]
    geometries = [_aperture_geometry(config.num_elements, aperture) for aperture in apertures]
    if d_min is None:
        d_min = min(apertures) / 20.0
    if d_max is None:
        d_max = 100.0 * max(apertures)
    return apertures, geometries, d_min, d_max


def run_single(config: ScenarioConfig) -> dict:
    """Bounds for one scenario, as an ordered key/value mapping."""
    geometry = config.geometry()
    wf = config.waveform()
    target = config.target()
    info = fisher_info_closed_form(target, geometry, wf, config.snr)
    crlb = crlb_from_fisher(info)

    out = _scenario_meta(config)
    out["angle_deg"] = math.degrees(config.angle)
    out["j_rr"] = info.j_rr
    out["j_tt"] = info.j_tt
    out["j_rt"] = info.j_rt
    out["singular"] = crlb.singular
    out["crlb_vr"] = crlb.radial
    out["crlb_vt"] = crlb.transverse
    out["root_crlb_vr"] = math.sqrt(crlb.radial)
    out["root_crlb_vt"] = math.sqrt(crlb.transverse)
    out["crlb_vr_far_field"] = radial_crlb_far_field(wf, config.num_elements, config.snr)
    out["crossover_distance"] = crossover_distance(geometry)
    return out


def run_radial_vs_distance(
    config: ScenarioConfig,
    apertures: Sequence[float] | None = None,
    d_min: float | None = None,
    d_max: float | None = None,
    points: int = 200,
) -> CsvTable:
    """Radial bound against distance at boresight, one row group per aperture.

    Columns hold the exact bound, the reciprocal of the boresight closed
    form, and the far-field floor it approaches.
    """
    _check_grid_sizes(points=points)
    given = {"apertures": apertures, "d_min": d_min, "d_max": d_max}
    _require_positive(**{key: value for key, value in given.items() if value is not None})
    wf = config.waveform()
    apertures, geometries, d_min, d_max = _aperture_defaults(config, apertures, d_min, d_max)
    _check_increasing(points, d_min=d_min, d_max=d_max)
    distances = np.geomspace(d_min, d_max, points)
    root_far_field = math.sqrt(radial_crlb_far_field(wf, config.num_elements, config.snr))

    groups = []
    for aperture, geometry in zip(apertures, geometries):
        bounds = closed_form_bounds(distances, np.zeros(points), geometry, wf, config.snr)
        approx = radial_info_boresight(distances, geometry, wf, config.snr)
        groups.append((distances, aperture, np.sqrt(bounds.radial), _root_inverse(approx), root_far_field))

    return _table(
        "radial-vs-distance",
        config,
        (
            "distance_m",
            "aperture_m",
            "root_crlb_vr_exact",
            "root_jrr_inv_approx",
            "root_crlb_vr_far_field",
        ),
        _stacked(groups),
        apertures=list(apertures),
        d_min=d_min,
        d_max=d_max,
        points=points,
    )


def run_transverse_vs_distance(
    config: ScenarioConfig,
    apertures: Sequence[float] | None = None,
    angles: Sequence[float] = (0.0, 45.0),
    d_min: float | None = None,
    d_max: float | None = None,
    points: int = 200,
) -> CsvTable:
    """Transverse bound against distance for several angles (degrees) and apertures."""
    _check_grid_sizes(points=points)
    given = {"apertures": apertures, "d_min": d_min, "d_max": d_max}
    _require_positive(**{key: value for key, value in given.items() if value is not None})
    _check_angles(angles=angles)
    wf = config.waveform()
    apertures, geometries, d_min, d_max = _aperture_defaults(config, apertures, d_min, d_max)
    _check_increasing(points, d_min=d_min, d_max=d_max)
    distances = np.geomspace(d_min, d_max, points)

    groups = []
    for aperture, geometry in zip(apertures, geometries):
        for angle_deg in angles:
            angle = angle_deg / 180.0 * math.pi
            bounds = closed_form_bounds(distances, np.full(points, angle), geometry, wf, config.snr)
            root_vt, root_jtt = np.sqrt(bounds.transverse), _root_inverse(bounds.j_tt)
            groups.append((distances, angle_deg, aperture, root_vt, root_jtt))

    return _table(
        "transverse-vs-distance",
        config,
        ("distance_m", "angle_deg", "aperture_m", "root_crlb_vt_exact", "root_jtt_inv"),
        _stacked(groups),
        apertures=list(apertures),
        angles_deg=list(angles),
        d_min=d_min,
        d_max=d_max,
        points=points,
    )


def run_carrier_comparison(
    config: ScenarioConfig,
    carriers: Sequence[float] = (6e9, 28e9),
    d_min: float = 0.01,
    d_max: float = 1000.0,
    points: int = 200,
) -> CsvTable:
    """Both bounds against distance for half-wavelength arrays at several carriers.

    The transverse bound is also emitted through the carrier-free
    half-wavelength closed form, which is identical across carriers by
    construction; the radial bound scales with the carrier.
    """
    _check_grid_sizes(points=points)
    _require_positive(d_min=d_min, d_max=d_max)
    _check_increasing(points, d_min=d_min, d_max=d_max)
    # The half-wavelength form divides by 72 * distance**2.
    if not 72.0 * d_max * d_max < math.inf:
        raise ValueError(f"d_max {d_max!r} squares past the float range")
    base_wf = config.waveform()
    try:
        waveforms = [replace(base_wf, carrier=carrier) for carrier in carriers]
    except ValueError as error:
        raise ValueError(f"carriers: {error}") from None
    distances = np.geomspace(d_min, d_max, points)

    groups = []
    for carrier, wf in zip(carriers, waveforms):
        geometry = ArrayGeometry.half_wavelength(config.num_elements, carrier)
        bounds = closed_form_bounds(distances, np.zeros(points), geometry, wf, config.snr)
        halfwave = transverse_info_half_wavelength(distances, config.num_elements, wf, config.snr)
        far = math.sqrt(radial_crlb_far_field(wf, config.num_elements, config.snr))
        roots = np.sqrt(bounds.radial), np.sqrt(bounds.transverse), _root_inverse(halfwave)
        groups.append((distances, carrier, geometry.aperture, *roots, far))

    return _table(
        "carrier-comparison",
        config,
        (
            "distance_m",
            "carrier_hz",
            "aperture_m",
            "root_crlb_vr_exact",
            "root_crlb_vt_exact",
            "root_crlb_vt_halfwave",
            "root_crlb_vr_far_field",
        ),
        _stacked(groups),
        carriers=list(carriers),
        d_min=d_min,
        d_max=d_max,
        points=points,
    )


def run_planar_map(
    config: ScenarioConfig,
    x_min: float = -25.0,
    x_max: float = 25.0,
    x_points: int = 201,
    y_min: float = 0.0,
    y_max: float = 50.0,
    y_points: int = 101,
) -> CsvTable:
    """Transverse bound over a planar grid with a link-budget SNR per point.

    The y grid is half-open ``(y_min, y_max]`` so the default map never lands
    on the array line; a custom grid that does (or that hits an element)
    yields a row flagged degenerate with an ``inf`` bound, never NaN.
    """
    _check_grid_sizes(x_points=x_points, y_points=y_points)
    _check_increasing(x_points, x_min=x_min, x_max=x_max)
    _check_increasing(y_points, y_min=y_min, y_max=y_max)
    geometry = config.geometry()
    wf = config.waveform()
    x = np.tile(np.linspace(x_min, x_max, x_points), y_points)
    y = np.repeat(y_min + (y_max - y_min) * np.arange(1, y_points + 1) / y_points, x_points)

    # Per-point hypot, atan2 and log10 use ``math``, whose rounding the published maps pin.
    x_list, y_list = x.tolist(), y.tolist()
    distance = np.fromiter(map(math.hypot, x_list, y_list), float, x.size)
    angle = np.fromiter(map(math.atan2, x_list, y_list), float, x.size)
    # The array centre has no bound: its row reads angle 0 and infinite SNR and bound.
    off = distance > 0.0
    angle_deg = np.where(off, np.degrees(angle), 0.0)
    try:
        snr = snr_from_link_budget(
            distance[off],
            wf,
            radar_cross_section=config.radar_cross_section,
            tx_gain=config.tx_gain,
            rx_gain=config.rx_gain,
            noise_figure=config.noise_figure,
            temperature=config.temperature,
        )
        reached = snr.all()
    except OverflowError:  # distance**4 past the float range
        reached = False
    if not reached:
        raise ValueError(
            f"the link-budget snr underflows to 0 on a map reaching {float(distance.max())!r} m: narrow it "
            "(x_min, x_max, y_min, y_max) or check tx_power, radar_cross_section, tx_gain, rx_gain, "
            "noise_figure and temperature"
        )
    # Degenerate rows come back singular with infinite bounds.
    bounds = closed_form_bounds(distance[off], angle[off], geometry, wf, snr, flag_degenerate=True)
    snr_db, root_vt = np.full((2, x.size), math.inf)
    snr_db[off] = 10.0 * np.fromiter(map(math.log10, snr.tolist()), float, snr.size)
    root_vt[off] = np.sqrt(bounds.transverse)
    degenerate = ~off
    degenerate[off] = bounds.singular

    return _table(
        "planar-map",
        config,
        ("x_m", "y_m", "distance_m", "angle_deg", "snr_db", "root_crlb_vt", "degenerate"),
        (x, y, distance, angle_deg, snr_db, root_vt, degenerate),
        x_min=x_min, x_max=x_max, x_points=x_points,
        y_min=y_min, y_max=y_max, y_points=y_points,
    )


def run_montecarlo(
    config: ScenarioConfig,
    snr_list: Sequence[float] = (0.0, 5.0, 10.0, 15.0, 20.0),
    trials: int = 1000,
    seed: int = 0,
    vr_window: float = 0.2,
    vt_window: float = 2.0,
    grid_points: int = 41,
    refine_tolerance: float = 1e-5,
) -> CsvTable:
    """Estimator MSE against the bounds for a list of SNR operating points.

    Trials draw independent substreams of the base seed, so the whole table
    is reproducible from the configuration.  Every row shares each trial's
    noise draw, scaled to its SNR, so the rows are correlated: they are not
    independent samples of the estimator.
    """
    _require_positive(vr_window=vr_window, vt_window=vt_window, refine_tolerance=refine_tolerance)
    geometry = config.geometry()
    wf = config.waveform()
    target = config.target()
    spans = []
    for key, window, truth in (
        ("vr_window", vr_window, target.radial_velocity),
        ("vt_window", vt_window, target.transverse_velocity),
    ):
        # The trials square their errors, and a span that rounds to one point has no grid.
        span = (truth - window / 2.0, truth + window / 2.0)
        if not window * window < math.inf:
            raise ValueError(f"{key} {window!r} squares past the float range")
        if not span[1] > span[0]:
            raise ValueError(f"{key} {window!r} rounds to an empty span around {truth!r} m/s")
        spans.append(span)
    search = MlSearchConfig(*spans, grid_points=grid_points, tolerance=refine_tolerance)

    snrs = []
    for snr_db in snr_list:
        try:
            snr = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            snr = math.inf
        if not 0.0 < snr < math.inf:
            raise ValueError(f"snr_list entry {snr_db!r} dB is outside the float range as a linear SNR")
        if not 0.0 < wf.subcarrier_power / snr < math.inf:
            raise ValueError(
                f"snr_list entry {snr_db!r} dB puts the noise floor P/snr outside the float range"
            )
        try:
            crlb_from_fisher(fisher_info_closed_form(target, geometry, wf, snr))
        except DegenerateGeometryError:
            raise
        except ValueError as error:
            raise ValueError(f"snr_list entry {snr_db!r} dB: {error}") from None
        snrs.append(snr)
    reports = monte_carlo_reports(Scenario(target, geometry, wf, search), snrs, trials, seed)

    def _identified(mse: float, value: float) -> float | None:
        # An axis that no trial identified (end-fire transverse) has no MSE and no ratio.
        return None if math.isnan(mse) else value

    columns = (
        list(snr_list),
        [r.trials for r in reports],
        [_identified(r.mse_radial, r.mse_radial) for r in reports],
        [_identified(r.mse_transverse, r.mse_transverse) for r in reports],
        [r.crlb_radial for r in reports],
        [r.crlb_transverse for r in reports],
        [_identified(r.mse_radial, r.ratio_radial) for r in reports],
        [_identified(r.mse_transverse, r.ratio_transverse) for r in reports],
        [r.seed for r in reports],
        [r.degenerate_trials for r in reports],
    )

    return _table(
        "montecarlo",
        config,
        (
            "snr_db",
            "trials",
            "mse_vr",
            "mse_vt",
            "crlb_vr",
            "crlb_vt",
            "ratio_vr",
            "ratio_vt",
            "seed",
            "degenerate_trials",
        ),
        columns,
        snr_db_list=list(snr_list),
        trials=trials,
        seed=seed,
        vr_window=vr_window,
        vt_window=vt_window,
        grid_points=grid_points,
        refine_tolerance=refine_tolerance,
    )


def run_sweep(
    config: ScenarioConfig,
    variable: str,
    start: float,
    stop: float,
    points: int = 200,
    log: bool = False,
) -> CsvTable:
    """Generic one-dimensional sweep of both bounds over a scenario variable.

    ``variable`` is one of ``distance`` (m), ``angle`` (degrees), ``carrier``
    (Hz) or ``aperture`` (m), swept over ``points`` values from ``start`` to
    ``stop``, log-spaced with ``log``.  Planar two-dimensional maps are
    produced by :func:`run_planar_map` instead.
    """
    if variable not in _SWEEP_VARIABLES:
        raise ValueError(f"variable must be one of {_SWEEP_VARIABLES}, got {variable!r}")
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points!r}")
    _check_increasing(points, start=start, stop=stop)
    if log and not start > 0.0:
        raise ValueError("log grids need a positive start")
    if variable == "angle":
        _check_angles(start=start, stop=stop)
    else:
        _require_positive(start=start)
    base_spacing = config.geometry().spacing

    def _configure(value: float) -> ScenarioConfig:
        if variable == "distance":
            return replace(config, distance=value)
        if variable == "angle":
            return replace(config, angle=value / 180.0 * math.pi)
        if variable == "carrier":
            # The physical array stays fixed while the carrier moves.
            return replace(config, carrier=value, spacing=base_spacing, aperture=None)
        return replace(config, aperture=value, spacing=None)

    grid = np.geomspace if log else np.linspace
    values = grid(start, stop, points).tolist()
    # A distance or angle sweep moves only the target, so its grid is one
    # batch; each carrier or aperture value changes the waveform or the array.
    batches = [values] if variable in ("distance", "angle") else [[v] for v in values]

    groups = []
    for batch in batches:
        subs = [_configure(value) for value in batch]
        wf, geometry, snr = subs[0].waveform(), subs[0].geometry(), subs[0].snr
        distances, angles = [s.distance for s in subs], [s.angle for s in subs]
        bounds = closed_form_bounds(distances, angles, geometry, wf, snr)
        root_far_field = math.sqrt(radial_crlb_far_field(wf, geometry.num_elements, snr))
        roots = np.sqrt(bounds.radial), np.sqrt(bounds.transverse), root_far_field
        groups.append((batch, *roots, bounds.singular))

    return _table(
        f"sweep-{variable}",
        config,
        (variable, "root_crlb_vr", "root_crlb_vt", "root_crlb_vr_far_field", "singular"),
        _stacked(groups),
        variable=variable,
        start=start,
        stop=stop,
        points=points,
        log=log,
    )
