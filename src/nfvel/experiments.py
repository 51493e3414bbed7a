"""Reference sweeps over the bounds plus deterministic CSV emission.

Every runner returns a :class:`CsvTable` whose rows are plain Python tuples;
writing the table twice with the same configuration produces byte-identical
files.  Values carry 12 significant digits; non-finite bounds are written as
``inf``, an MSE that no trial could estimate as ``none``, and never NaN.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
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
from .geometry import ArrayGeometry, TargetState
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
# printf format of each cell type that format_cell prints the same way.
_CELL_FORMATS = {bool: "%d", int: "%d", float: "%.12e"}


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


@dataclass(frozen=True)
class CsvTable:
    """Column names, row tuples and the metadata echoed into the file header."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    meta: dict

    def render(self) -> str:
        lines = [f"# nfvel {self.name}"]
        for key in sorted(self.meta):
            lines.append(f"# {key} = {_meta_str(self.meta[key])}")
        lines.append(",".join(self.columns))
        # One printf format per tuple of cell types.  A row with another type
        # (None, numpy scalars) or a non-finite float, which %e prints as inf
        # or nan (the only output holding an "n"), goes through format_cell.
        formats: dict[tuple, str | None] = {}
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(f"row width {len(row)} != {len(self.columns)} columns")
            # From a list: tuple() of an iterator resizes its result, which
            # leaves up to 2000 spare tuples on CPython's free list.
            kinds = tuple([type(value) for value in row])
            if kinds not in formats:
                cells = [_CELL_FORMATS.get(kind) for kind in kinds]
                formats[kinds] = None if None in cells else ",".join(cells)
            fmt = formats[kinds]
            line = None if fmt is None else fmt % tuple(row)
            if line is None or "n" in line:
                line = ",".join(map(format_cell, row))
            lines.append(line)
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.render(), encoding="utf-8", newline="\n")
        return path


def format_cell(value) -> str:
    """One CSV cell or ``crlb`` value: 12 significant digits, ``inf``, ``1``/``0``, ``none``; NaN raises."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isfinite(v):
            return f"{v:.12e}"
        # The file contract never carries NaN; anything non-finite means an
        # unbounded or unidentifiable quantity.
        if math.isnan(v):
            raise ValueError("NaN reached an output cell")
        return "inf"
    return str(value)


def _meta_str(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(_meta_str(v) for v in value)
    return str(value)


def _root_inverse(info: float) -> float:
    """sqrt(1/info) with an infinite result for a null information value."""
    return math.sqrt(1.0 / info) if info > 0.0 else math.inf


def _root(value: float) -> float:
    return math.sqrt(value) if math.isfinite(value) else math.inf


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
    name: str, config: ScenarioConfig, columns: tuple[str, ...], rows, **parameters
) -> CsvTable:
    """A table whose header echoes the resolved scenario and the runner's parameters."""
    return CsvTable(
        name=name,
        columns=columns,
        rows=tuple(rows),
        meta={**_scenario_meta(config), **parameters},
    )


def _check_grid_sizes(**sizes: int) -> None:
    for key, size in sizes.items():
        if size < 1:
            raise ValueError(f"{key} must be >= 1, got {size!r}")


def _check_positive(**values) -> None:
    """Reject a value, or a list entry, that is not positive; ``None`` keeps a default."""
    for key, value in values.items():
        if value is not None and not all(v > 0.0 for v in np.atleast_1d(value)):
            raise ValueError(f"{key} must be positive, got {value!r}")


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
    out["root_crlb_vr"] = _root(crlb.radial)
    out["root_crlb_vt"] = _root(crlb.transverse)
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
    _check_positive(apertures=apertures, d_min=d_min, d_max=d_max)
    wf = config.waveform()
    apertures, geometries, d_min, d_max = _aperture_defaults(config, apertures, d_min, d_max)
    _check_increasing(points, d_min=d_min, d_max=d_max)
    distances = np.geomspace(d_min, d_max, points)
    distance_list = distances.tolist()
    root_far_field = _root(radial_crlb_far_field(wf, config.num_elements, config.snr))

    rows = []
    for aperture, geometry in zip(apertures, geometries):
        bounds = closed_form_bounds(distance_list, [0.0] * points, geometry, wf, config.snr)
        approx = radial_info_boresight(distances, geometry, wf, config.snr).tolist()
        rows += [
            (d, aperture, _root(radial), _root_inverse(info), root_far_field)
            for d, radial, info in zip(distance_list, bounds.radial, approx)
        ]

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
        rows,
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
    _check_positive(apertures=apertures, d_min=d_min, d_max=d_max)
    _check_angles(angles=angles)
    wf = config.waveform()
    apertures, geometries, d_min, d_max = _aperture_defaults(config, apertures, d_min, d_max)
    _check_increasing(points, d_min=d_min, d_max=d_max)
    distances = np.geomspace(d_min, d_max, points).tolist()

    rows = []
    for aperture, geometry in zip(apertures, geometries):
        for angle_deg in angles:
            angle = angle_deg / 180.0 * math.pi
            bounds = closed_form_bounds(distances, [angle] * points, geometry, wf, config.snr)
            rows += [
                (d, angle_deg, aperture, _root(transverse), _root_inverse(j_tt))
                for d, transverse, j_tt in zip(distances, bounds.transverse, bounds.j_tt)
            ]

    return _table(
        "transverse-vs-distance",
        config,
        ("distance_m", "angle_deg", "aperture_m", "root_crlb_vt_exact", "root_jtt_inv"),
        rows,
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
    _check_positive(d_min=d_min, d_max=d_max)
    _check_increasing(points, d_min=d_min, d_max=d_max)
    base_wf = config.waveform()
    distances = np.geomspace(d_min, d_max, points)
    distance_list = distances.tolist()

    rows = []
    for carrier in carriers:
        wf = replace(base_wf, carrier=carrier)
        geometry = ArrayGeometry.half_wavelength(config.num_elements, carrier)
        bounds = closed_form_bounds(distance_list, [0.0] * points, geometry, wf, config.snr)
        halfwave = transverse_info_half_wavelength(
            distances, config.num_elements, wf, config.snr
        ).tolist()
        far = _root(radial_crlb_far_field(wf, config.num_elements, config.snr))
        rows += [
            (d, carrier, geometry.aperture, _root(vr), _root(vt), _root_inverse(info), far)
            for d, vr, vt, info in zip(distance_list, bounds.radial, bounds.transverse, halfwave)
        ]

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
        rows,
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
    xs = np.linspace(x_min, x_max, x_points).tolist()
    ys = (y_min + (y_max - y_min) * np.arange(1, y_points + 1) / y_points).tolist()

    # Per-point scalars use ``math``, whose rounding the published maps pin.
    cells = [(x, y, math.hypot(x, y)) for y in ys for x in xs]
    off_centre = [(x, y, distance) for x, y, distance in cells if distance > 0.0]
    distances = [distance for _, _, distance in off_centre]
    angles = [math.atan2(x, y) for x, y, _ in off_centre]
    snrs = snr_from_link_budget(
        np.array(distances),
        wf,
        radar_cross_section=config.radar_cross_section,
        tx_gain=config.tx_gain,
        rx_gain=config.rx_gain,
        noise_figure=config.noise_figure,
        temperature=config.temperature,
    ).tolist()
    # Degenerate rows come back singular with infinite bounds.
    bounds = closed_form_bounds(distances, angles, geometry, wf, snrs, flag_degenerate=True)
    evaluated = iter(zip(angles, snrs, bounds.transverse, bounds.singular))

    rows = []
    for x, y, distance in cells:
        if distance == 0.0:
            rows.append((x, y, 0.0, 0.0, math.inf, math.inf, True))
            continue
        angle, snr, vt, singular = next(evaluated)
        snr_db = 10.0 * math.log10(snr)
        rows.append((x, y, distance, math.degrees(angle), snr_db, _root(vt), singular))

    return _table(
        "planar-map",
        config,
        ("x_m", "y_m", "distance_m", "angle_deg", "snr_db", "root_crlb_vt", "degenerate"),
        rows,
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
    _check_positive(vr_window=vr_window, vt_window=vt_window, refine_tolerance=refine_tolerance)
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
            snrs.append(10.0 ** (snr_db / 10.0))
        except OverflowError:
            snrs.append(math.inf)
        if not 0.0 < snrs[-1] < math.inf:
            raise ValueError(f"snr_list entry {snr_db!r} dB is outside the float range as a linear SNR")
    reports = monte_carlo_reports(Scenario(target, geometry, wf, search), snrs, trials, seed)

    def _row(snr_db: float, report: MonteCarloReport) -> tuple:
        # An axis that no trial identified (end-fire transverse) has no MSE and no ratio.
        return (
            snr_db,
            report.trials,
            None if math.isnan(report.mse_radial) else report.mse_radial,
            None if math.isnan(report.mse_transverse) else report.mse_transverse,
            report.crlb_radial,
            report.crlb_transverse,
            None if math.isnan(report.mse_radial) else report.ratio_radial,
            None if math.isnan(report.mse_transverse) else report.ratio_transverse,
            report.seed,
            report.degenerate_trials,
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
        [_row(snr_db, report) for snr_db, report in zip(snr_list, reports)],
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
    if not stop > start:
        raise ValueError(f"stop must exceed start, got [{start!r}, {stop!r}]")
    if log and not start > 0.0:
        raise ValueError("log grids need a positive start")
    if variable == "angle":
        _check_angles(start=start, stop=stop)
    else:
        _check_positive(start=start)
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
    groups = [values] if variable in ("distance", "angle") else [[v] for v in values]

    rows = []
    for group in groups:
        subs = [_configure(value) for value in group]
        wf, geometry, snr = subs[0].waveform(), subs[0].geometry(), subs[0].snr
        distances, angles = [s.distance for s in subs], [s.angle for s in subs]
        bounds = closed_form_bounds(distances, angles, geometry, wf, snr)
        root_far_field = _root(radial_crlb_far_field(wf, geometry.num_elements, snr))
        rows += [
            (value, _root(vr), _root(vt), root_far_field, singular)
            for value, vr, vt, singular in zip(
                group, bounds.radial, bounds.transverse, bounds.singular
            )
        ]

    return _table(
        f"sweep-{variable}",
        config,
        (variable, "root_crlb_vr", "root_crlb_vt", "root_crlb_vr_far_field", "singular"),
        rows,
        variable=variable,
        start=start,
        stop=stop,
        points=points,
        log=log,
    )
