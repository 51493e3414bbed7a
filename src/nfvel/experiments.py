"""Reference sweeps over the bounds.

Every runner returns a :class:`~nfvel.table.CsvTable` that holds one sequence
per column, a numpy array in the bound sweeps; writing the table twice with the
same configuration produces byte-identical files.  Floats are written as ``'%.12e' % v``; non-finite
bounds are written as ``inf``, a Monte Carlo report's absent MSE or ratio
(None) as ``none``, and never NaN.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
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
from .estimator import MlSearchConfig, MonteCarloReport, Scenario, monte_carlo_reports
from .geometry import (
    _COINCIDENCE_RTOL, ArrayGeometry, DegenerateGeometryError, TargetState, _check_angles, _per_point, _require_count,
    _require_positive, _row_blocks,
)
from .table import CsvTable, format_cell
from .waveform import WaveformConfig, _float_power, snr_from_link_budget

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
        _require_positive(tx_power=self.tx_power)  # named here: the waveform calls it total_power
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
    _require_count(2, num_elements=num_elements)  # an aperture spans at least two elements
    _require_positive(aperture=aperture)  # named here: the array sees only its spacing
    spacing = aperture / (num_elements - 1)
    if not spacing > 0.0:
        raise ValueError(f"aperture {aperture!r} m over {num_elements - 1} gaps underflows to a zero spacing")
    return ArrayGeometry(num_elements, spacing)


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


def _check_increasing(points: int, **bounds: float) -> None:
    """Reject a grid whose upper bound (second key) is not above its lower bound (first key).

    Equal bounds are allowed only for a one-point grid, such as a single boresight column.
    """
    (low_key, low), (high_key, high) = bounds.items()
    if not (high > low or (high == low and points == 1)):
        raise ValueError(f"{high_key} must exceed {low_key}, got {low!r} and {high!r}")


def _distance_grid(points: int, d_min: float, d_max: float) -> np.ndarray:
    """The ``points`` log-spaced distances from ``d_min`` to ``d_max`` of fig1, fig2 and fig3."""
    _require_count(1, points=points)
    _require_positive(d_min=d_min, d_max=d_max)
    if d_max == math.inf:
        raise ValueError(f"d_max must be finite, got {d_max!r}")
    _check_increasing(points, d_min=d_min, d_max=d_max)
    return np.geomspace(d_min, d_max, points)


def _grid_bounds(keys: str, distances: np.ndarray, *args):
    """:func:`closed_form_bounds` of a grid placed by ``keys``; a degenerate row raises, naming its distance."""
    bounds = closed_form_bounds(distances, *args)
    if bounds.degenerate.any():
        distance = float(distances[np.argmax(bounds.degenerate)])
        raise DegenerateGeometryError(
            f"target sits on an array element or the array centre at distance {distance!r}; check {keys}"
        )
    return bounds


def _aperture_defaults(
    config: ScenarioConfig,
    apertures: Sequence[float] | None,
    d_min: float | None,
    d_max: float | None,
) -> tuple[Sequence[float], list[ArrayGeometry], float, float]:
    """Apertures, their arrays and the distance span of fig1 and fig2, from the positive values given.

    By default the apertures are those of one, two and four half-wavelength
    arrays, and distances run from a twentieth of the smallest aperture to
    100 times the largest.  The caller has checked the carrier already.
    """
    given = {"apertures": apertures, "d_min": d_min, "d_max": d_max}
    _require_positive(**{key: value for key, value in given.items() if value is not None})
    if apertures is None:
        base = (config.num_elements - 1) * SPEED_OF_LIGHT / (2.0 * config.carrier)
        apertures = [base, 2.0 * base, 4.0 * base]
    _require_count(2, num_elements=config.num_elements)  # before the loop, whose errors are the apertures'
    try:
        geometries = [_aperture_geometry(config.num_elements, aperture) for aperture in apertures]
    except ValueError as error:  # a spacing that underflows
        raise ValueError(f"apertures: {error}") from None
    if d_min is None:
        d_min = min(apertures) / 20.0
    if d_max is None:
        d_max = 100.0 * max(apertures)
        if d_max == math.inf:
            raise ValueError(f"apertures: the default d_max, 100 times {max(apertures)!r} m, overflows")
    return apertures, geometries, d_min, d_max


def run_single(config: ScenarioConfig) -> dict:
    """Bounds for one scenario, as an ordered key/value mapping."""
    geometry = config.geometry()
    wf = config.waveform()
    target = config.target()
    bounds = closed_form_bounds([target.distance], [target.angle], geometry, wf, config.snr)
    if bounds.degenerate[0]:
        raise DegenerateGeometryError()

    out = _scenario_meta(config)
    out["angle_deg"] = math.degrees(config.angle)
    out["j_rr"] = bounds.j_rr.item()
    out["j_tt"] = bounds.j_tt.item()
    out["j_rt"] = bounds.j_rt.item()
    out["singular"] = bounds.singular.item()
    out["crlb_vr"] = bounds.radial.item()
    out["crlb_vt"] = bounds.transverse.item()
    out["root_crlb_vr"] = bounds.root_radial.item()
    out["root_crlb_vt"] = bounds.root_transverse.item()
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
    wf = config.waveform()
    apertures, geometries, d_min, d_max = _aperture_defaults(config, apertures, d_min, d_max)
    distances = _distance_grid(points, d_min, d_max)
    root_far_field = math.sqrt(radial_crlb_far_field(wf, config.num_elements, config.snr))

    groups = []
    for aperture, geometry in zip(apertures, geometries):
        bounds = _grid_bounds("d_min and d_max", distances, np.zeros(points), geometry, wf, config.snr)
        approx = radial_info_boresight(distances, geometry, wf, config.snr)
        # A copy: the row view would keep all of the kernel's bound rows for the whole table.
        groups.append((distances, aperture, bounds.root_radial.copy(), _root_inverse(approx), root_far_field))

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
    _check_angles(angles=angles)
    wf = config.waveform()
    apertures, geometries, d_min, d_max = _aperture_defaults(config, apertures, d_min, d_max)
    distances = _distance_grid(points, d_min, d_max)

    groups = []
    for aperture, geometry in zip(apertures, geometries):
        for angle_deg in angles:
            angle = np.full(points, angle_deg / 180.0 * math.pi)
            bounds = _grid_bounds("d_min and d_max", distances, angle, geometry, wf, config.snr)
            root_jtt = _root_inverse(bounds.j_tt)
            # A copy, as in fig1.
            groups.append((distances, angle_deg, aperture, bounds.root_transverse.copy(), root_jtt))

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
    # The half-wavelength form divides by 72 * distance**2; the grid names a d_max that is not positive.
    if d_max > 0.0 and not 72.0 * d_max * d_max < math.inf:
        raise ValueError(f"d_max {d_max!r} squares past the float range")
    distances = _distance_grid(points, d_min, d_max)
    base_wf = config.waveform()
    try:
        waveforms = [replace(base_wf, carrier=carrier) for carrier in carriers]
    except ValueError as error:
        raise ValueError(f"carriers: {error}") from None

    groups = []
    for carrier, wf in zip(carriers, waveforms):
        geometry = ArrayGeometry.half_wavelength(config.num_elements, carrier)
        bounds = _grid_bounds("d_min and d_max", distances, np.zeros(points), geometry, wf, config.snr)
        halfwave = transverse_info_half_wavelength(distances, config.num_elements, wf, config.snr)
        far = math.sqrt(radial_crlb_far_field(wf, config.num_elements, config.snr))
        roots = bounds.root_radial, bounds.root_transverse, _root_inverse(halfwave)
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
    yields a row flagged degenerate with an ``inf`` bound, never NaN.  The
    array centre is one such row, with an ``inf`` SNR, and reads angle 0.
    """
    _require_count(1, x_points=x_points, y_points=y_points)
    _check_increasing(x_points, x_min=x_min, x_max=x_max)
    _check_increasing(y_points, y_min=y_min, y_max=y_max)
    # np.linspace takes x_max - x_min, and the y grid (y_max - y_min) times up to y_points.
    for axis, low, high, reach in (("x", x_min, x_max, x_max - x_min), ("y", y_min, y_max, (y_max - y_min) * y_points)):
        if not reach < math.inf:
            raise ValueError(f"{axis}_min and {axis}_max span the map past the float range, got {low!r} and {high!r}")
    geometry = config.geometry()
    wf = config.waveform()
    x = np.tile(np.linspace(x_min, x_max, x_points), y_points)
    y = np.repeat(y_min + (y_max - y_min) * np.arange(1, y_points + 1) / y_points, x_points)
    if y[0] < 0.0:
        raise ValueError(f"y_min {y_min!r} puts map rows behind the array, at y {float(y[0])!r} < 0")

    # Per-point hypot, atan2 and log10 use ``math``, whose rounding the published maps pin.
    distance = _per_point(math.hypot, x, y)
    angle = _per_point(math.atan2, x, y)
    snr = snr_from_link_budget(
        distance,
        wf,
        radar_cross_section=config.radar_cross_section,
        tx_gain=config.tx_gain,
        rx_gain=config.rx_gain,
        noise_figure=config.noise_figure,
        temperature=config.temperature,
    )
    budget = "tx_power, radar_cross_section, tx_gain, rx_gain, noise_figure and temperature"
    if not snr.all():
        raise ValueError(
            f"the link-budget snr underflows to 0 on a map reaching {float(distance.max())!r} m: narrow it "
            f"(x_min, x_max, y_min, y_max) or check {budget}"
        )
    # One kernel call per point block, so that the map holds whole only the two bound columns
    # it keeps.  Degenerate rows, the array centre among them, come back singular with infinite bounds.
    root_vt, degenerate = np.empty(distance.size), np.empty(distance.size, bool)
    try:
        for rows in _row_blocks(distance.size):
            bounds = closed_form_bounds(distance[rows], angle[rows], geometry, wf, snr[rows])
            root_vt[rows], degenerate[rows] = bounds.root_transverse, bounds.singular
            del bounds  # the block's other rows, before the next block's
    except ValueError:  # the rows lie in front of the array: only the information can fail
        # Off the centre, where distance**4 underflows, the snr is inf by the extent's fault, not the budget's.
        off_centre = distance > _COINCIDENCE_RTOL * geometry.aperture
        near = distance[off_centre & (_float_power(distance, 4) < np.finfo(float).tiny)]
        if near.size:
            raise ValueError(
                f"the map comes within {float(near.min())!r} m of the array centre, where the link-budget snr "
                "takes the information matrix past the float range: move it away (x_min, x_max, y_min, y_max)"
            ) from None
        peak = max(snr[snr < math.inf].tolist(), default=math.inf)  # the centre's snr is inf
        raise ValueError(
            f"the link-budget snr, up to {peak!r} on this map, takes the information matrix "
            f"past the float range: check {budget}"
        ) from None
    snr_db = _per_point(math.log10, snr, out=snr)
    snr_db *= 10.0
    angle_deg = np.degrees(angle, out=angle)
    angle_deg[distance == 0.0] = 0.0  # the centre reads angle 0, also where x is -0.0

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
    # The trials round the model phase m*v*psi in floats, so no estimate resolves a radial velocity
    # finer than one ulp of the span's largest |v|; below that an MSE measures the rounding.
    resolution = math.ulp(max(map(abs, spans[0])))

    snrs = []
    for snr_db in snr_list:
        snr = _float_power(10.0, _float_power(snr_db, 1) / 10.0)  # an int entry may exceed every float
        # The trials run in units of the noise, at the floor 1/snr.
        if not (0.0 < snr < math.inf and 1.0 / snr < math.inf):
            raise ValueError(
                f"snr_list entry {snr_db!r} dB is outside the float range as a linear SNR or floor 1/snr"
            )
        try:
            root_vr = math.sqrt(crlb_from_fisher(fisher_info_closed_form(target, geometry, wf, snr)).radial)
        except DegenerateGeometryError:
            raise
        except ValueError as error:
            raise ValueError(f"snr_list entry {snr_db!r} dB: {error}") from None
        if root_vr < resolution:
            raise ValueError(
                f"snr_list entry {snr_db!r} dB puts the radial root-CRLB {root_vr!r} m/s below the "
                f"float resolution {resolution!r} m/s of the radial span"
            )
        snrs.append(snr)
    reports = monte_carlo_reports(Scenario(target, geometry, wf, search), snrs, trials, seed)

    names = [field.name for field in fields(MonteCarloReport)]
    return _table(
        "montecarlo",
        config,
        ("snr_db", *(name.replace("_radial", "_vr").replace("_transverse", "_vt") for name in names)),
        [list(snr_list), *([getattr(report, name) for report in reports] for name in names)],
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
    _require_count(2, points=points)
    _check_increasing(points, start=start, stop=stop)
    if log and not start > 0.0:
        raise ValueError("log grids need a positive start")
    if variable == "angle":
        _check_angles(start=start, stop=stop)
    else:
        _require_positive(start=start)
    values = (np.geomspace if log else np.linspace)(start, stop, points)
    distances = values if variable == "distance" else np.full(points, config.distance)
    angles = values / 180.0 * math.pi if variable == "angle" else np.full(points, config.angle)
    # A distance or angle sweep moves only the target, so its grid is one batch; each carrier
    # or aperture value changes the waveform or the array.  A carrier sweep keeps the array.
    batches = [(values, config, distances, angles)]
    if variable in ("carrier", "aperture"):
        spacing = {"carrier": config.geometry().spacing, "aperture": None}[variable]
        subs = [replace(config, **{"spacing": spacing, "aperture": None, variable: v}) for v in values.tolist()]
        batches = [([v], sub, distances[:1], angles[:1]) for v, sub in zip(values.tolist(), subs)]

    keys = "start and stop" if variable == "distance" else "distance"
    groups = []
    for batch, sub, *target in batches:
        wf, geometry = sub.waveform(), sub.geometry()
        bounds = _grid_bounds(keys, *target, geometry, wf, sub.snr)
        root_far_field = math.sqrt(radial_crlb_far_field(wf, geometry.num_elements, sub.snr))
        groups.append((batch, bounds.root_radial, bounds.root_transverse, root_far_field, bounds.singular))

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
