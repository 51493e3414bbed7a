"""The benchmark's workloads: seeded CLI inputs and an output oracle for each.

A workload turns the benchmark seed into the argument list of one ``nfvel``
CLI job, so the program sees only the generated inputs.  The seed changes
input values, never sizes.  Each oracle re-derives the job's CSV by routes
independent of the one the CLI takes and returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from nfvel.bounds import crlb_from_fisher, fisher_info_closed_form, fisher_info_numeric
from nfvel.constants import SPEED_OF_LIGHT
from nfvel.experiments import ScenarioConfig
from nfvel.geometry import ArrayGeometry, TargetState
from nfvel.waveform import ChannelNoise, snr_from_link_budget

DEFAULT_SEED = 1
# Kept out of tuning: confirm a claimed gain on this seed as well.
HELD_OUT_SEED = 7

RTOL = 1e-9
ORACLE_SAMPLE = 48  # rows re-derived through the numeric Fisher route per output

MAP_X_POINTS = 201
MAP_Y_POINTS = 101
XL_ELEMENTS = 16384
XL_APERTURES = 3
XL_POINTS = 200
MC_TRIALS = 100
MC_SNR_DB = (-20.0, 10.0)
# Monte Carlo sigma of an MSE/CRLB ratio is about sqrt(2/trials) for an
# efficient estimator; the asymptotic row must sit within five of them.
MC_RATIO_SIGMAS = 5.0

MAP_COLUMNS = ("x_m", "y_m", "distance_m", "angle_deg", "snr_db", "root_crlb_vt", "degenerate")
XL_COLUMNS = ("distance_m", "angle_deg", "aperture_m", "root_crlb_vt_exact", "root_jtt_inv")
MC_COLUMNS = (
    "snr_db", "trials", "mse_vr", "mse_vt", "crlb_vr", "crlb_vt",
    "ratio_vr", "ratio_vt", "seed", "degenerate_trials",
)


@dataclass(frozen=True)
class Workload:
    """One batch job type: its CLI input per seed and the oracle for its output."""

    name: str
    item: str  # what one unit of ``items_per_s`` is
    items: int  # units of work in one job
    gauge: str  # the reference computation that tracks this job's speed
    argv: Callable[[int], list[str]]
    check: Callable[[str, int], list[str]]


def close(actual: float, expected: float, rtol: float = RTOL, floor: float = 0.0) -> bool:
    """Relative agreement, with ``floor`` as the smallest scale compared against."""
    if math.isinf(actual) or math.isinf(expected):
        return actual == expected
    return abs(actual - expected) <= rtol * max(abs(actual), abs(expected), floor)


def parse_csv(text: str) -> tuple[tuple[str, ...], list[list[float]]]:
    """Column names and numeric rows of an nfvel CSV file (``#`` header lines skipped)."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines:
        raise ValueError("no column header")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return tuple(lines[0].split(",")), rows


def _table_problems(columns, rows, expected_columns, expected_rows) -> list[str]:
    problems = []
    if columns != expected_columns:
        problems.append(f"columns {columns} != {expected_columns}")
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows != {expected_rows}")
    if any(len(row) != len(expected_columns) for row in rows):
        problems.append("a row has the wrong width")
    if any(math.isnan(value) for row in rows for value in row):
        problems.append("a cell is NaN")
    return problems


def _sample(rows: list, seed: int, salt: str) -> list:
    rng = random.Random(f"oracle:{salt}:{seed}")
    return rng.sample(rows, min(ORACLE_SAMPLE, len(rows)))


# --- bounds-map: fig4 at its default grid, extent offset by the seed --------


def map_extent(seed: int) -> dict[str, float]:
    rng = random.Random(f"bounds-map:{seed}")
    dx = round(rng.uniform(-5.0, 5.0), 6)
    dy = round(rng.uniform(0.0, 5.0), 6)
    return {"x_min": -25.0 + dx, "x_max": 25.0 + dx, "y_min": dy, "y_max": 50.0 + dy}


def map_argv(seed: int) -> list[str]:
    argv = ["fig4"]
    for key, value in map_extent(seed).items():
        argv += ["--set", f"{key}={value!r}"]
    return argv


def check_map(text: str, seed: int) -> list[str]:
    columns, rows = parse_csv(text)
    problems = _table_problems(columns, rows, MAP_COLUMNS, MAP_X_POINTS * MAP_Y_POINTS)
    if problems:
        return problems
    extent = map_extent(seed)
    xs = [row[0] for row in rows]
    ys = [row[1] for row in rows]
    y_first = extent["y_min"] + (extent["y_max"] - extent["y_min"]) / MAP_Y_POINTS
    for label, got, want in (
        ("x_min", min(xs), extent["x_min"]),
        ("x_max", max(xs), extent["x_max"]),
        ("first y", min(ys), y_first),
        ("y_max", max(ys), extent["y_max"]),
    ):
        if not close(got, want, floor=1.0):
            problems.append(f"grid {label} {got!r} != requested {want!r}")

    for x, y, distance, angle_deg, snr_db, root_vt, degenerate in rows:
        if any(math.isinf(v) for v in (distance, angle_deg, snr_db, root_vt)) and degenerate != 1:
            problems.append(f"inf on an unflagged row at x={x!r} y={y!r}")
        if not close(distance, math.hypot(x, y), floor=1e-12):
            problems.append(f"distance {distance!r} != hypot at x={x!r} y={y!r}")
        if not close(angle_deg, math.degrees(math.atan2(x, y)), floor=1.0):
            problems.append(f"angle {angle_deg!r} != atan2 at x={x!r} y={y!r}")
        if len(problems) > 10:
            return problems

    config = ScenarioConfig()
    geometry = config.geometry()
    wf = config.waveform()
    for x, y, _, _, snr_db, root_vt, degenerate in _sample(rows, seed, "bounds-map"):
        distance = math.hypot(x, y)
        snr = snr_from_link_budget(
            distance,
            wf,
            radar_cross_section=config.radar_cross_section,
            tx_gain=config.tx_gain,
            rx_gain=config.rx_gain,
            noise_figure=config.noise_figure,
            temperature=config.temperature,
        )
        if not close(snr_db, 10.0 * math.log10(snr), floor=1.0):
            problems.append(f"snr_db {snr_db!r} != link budget at x={x!r} y={y!r}")
        target = TargetState(distance=distance, angle=math.atan2(x, y))
        crlb = crlb_from_fisher(fisher_info_numeric(target, geometry, wf, snr))
        if not close(root_vt, math.sqrt(crlb.transverse)):
            problems.append(f"root_crlb_vt {root_vt!r} != numeric route at x={x!r} y={y!r}")
        if degenerate != float(crlb.singular):
            problems.append(f"degenerate flag {degenerate!r} wrong at x={x!r} y={y!r}")
    return problems


# --- bounds-xl: fig2 with a 16384-element array, angles drawn by the seed ---


def xl_angles(seed: int) -> tuple[float, float]:
    rng = random.Random(f"bounds-xl:{seed}")
    return round(rng.uniform(0.0, 30.0), 3), round(rng.uniform(30.0, 70.0), 3)


def xl_argv(seed: int) -> list[str]:
    first, second = xl_angles(seed)
    return ["fig2", "--set", f"num_elements={XL_ELEMENTS}", "--set", f"angles={first!r},{second!r}"]


def check_xl(text: str, seed: int) -> list[str]:
    columns, rows = parse_csv(text)
    problems = _table_problems(columns, rows, XL_COLUMNS, XL_APERTURES * 2 * XL_POINTS)
    if problems:
        return problems
    if any(math.isinf(value) for row in rows for value in row):
        problems.append("inf in a table with no singular point")
    angles = sorted({row[1] for row in rows})
    if angles != sorted(xl_angles(seed)):
        problems.append(f"angles {angles} != requested {xl_angles(seed)}")
    config = ScenarioConfig(num_elements=XL_ELEMENTS)
    base = (XL_ELEMENTS - 1) * SPEED_OF_LIGHT / (2.0 * config.carrier)
    apertures = sorted({row[2] for row in rows})
    wanted = [base, 2.0 * base, 4.0 * base]
    if len(apertures) != 3 or not all(close(a, b) for a, b in zip(apertures, wanted)):
        problems.append(f"apertures {apertures} != {wanted}")

    wf = config.waveform()
    for distance, angle_deg, aperture, root_vt, root_jtt_inv in _sample(rows, seed, "bounds-xl"):
        geometry = ArrayGeometry(XL_ELEMENTS, aperture / (XL_ELEMENTS - 1))
        target = TargetState(distance=distance, angle=angle_deg / 180.0 * math.pi)
        info = fisher_info_numeric(target, geometry, wf, config.snr)
        crlb = crlb_from_fisher(info)
        if not close(root_vt, math.sqrt(crlb.transverse)):
            problems.append(f"root_crlb_vt_exact {root_vt!r} != numeric route at d={distance!r}")
        if not close(root_jtt_inv, math.sqrt(1.0 / info.j_tt)):
            problems.append(f"root_jtt_inv {root_jtt_inv!r} != numeric route at d={distance!r}")
    return problems


# --- montecarlo: default scenario at a threshold and an asymptotic SNR -------


def mc_seed(seed: int) -> int:
    return seed % 2**31  # the CLI takes nonnegative seeds


def mc_argv(seed: int) -> list[str]:
    snrs = ",".join(f"{snr:g}" for snr in MC_SNR_DB)
    return ["montecarlo", "--trials", str(MC_TRIALS), f"--snr-list={snrs}", "--seed", str(mc_seed(seed))]


def check_mc(text: str, seed: int) -> list[str]:
    columns, rows = parse_csv(text)
    problems = _table_problems(columns, rows, MC_COLUMNS, len(MC_SNR_DB))
    if problems:
        return problems
    config = ScenarioConfig()
    wf = config.waveform()
    target = config.target()
    geometry = config.geometry()
    band = MC_RATIO_SIGMAS * math.sqrt(2.0 / MC_TRIALS)
    for row, snr_db in zip(rows, MC_SNR_DB):
        got_snr, trials, mse_vr, mse_vt, crlb_vr, crlb_vt, ratio_vr, ratio_vt, row_seed, degenerate = row
        if got_snr != snr_db or trials != MC_TRIALS or row_seed != mc_seed(seed):
            problems.append(f"row {row[:2]} / seed {row_seed!r} does not match the request")
            continue
        if any(math.isinf(value) for value in row):
            problems.append(f"inf in the {snr_db:g} dB row")
            continue
        if not 0 <= degenerate < trials:
            problems.append(f"{degenerate!r} degenerate trials at {snr_db:g} dB")
        snr = ChannelNoise.from_snr(wf, 10.0 ** (snr_db / 10.0)).snr(wf)
        crlb = crlb_from_fisher(fisher_info_closed_form(target, geometry, wf, snr))
        if not (close(crlb_vr, crlb.radial) and close(crlb_vt, crlb.transverse)):
            problems.append(f"crlb columns at {snr_db:g} dB != closed form")
        if not (mse_vr > 0.0 and mse_vt > 0.0):
            problems.append(f"non-positive MSE at {snr_db:g} dB")
        if not (close(ratio_vr, mse_vr / crlb_vr) and close(ratio_vt, mse_vt / crlb_vt)):
            problems.append(f"ratio columns at {snr_db:g} dB != mse / crlb")
        if snr_db >= 10.0 and not (abs(ratio_vr - 1.0) <= band and abs(ratio_vt - 1.0) <= band):
            problems.append(
                f"ratios ({ratio_vr:.3f}, {ratio_vt:.3f}) at {snr_db:g} dB outside 1 +/- {band:.3f}"
            )
    return problems


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="bounds-map",
            item="rows",
            items=MAP_X_POINTS * MAP_Y_POINTS,
            gauge="interpreter",
            argv=map_argv,
            check=check_map,
        ),
        Workload(
            name="bounds-xl",
            item="rows",
            items=XL_APERTURES * 2 * XL_POINTS,
            gauge="mixed",
            argv=xl_argv,
            check=check_xl,
        ),
        Workload(
            name="montecarlo",
            item="trials",
            items=MC_TRIALS * len(MC_SNR_DB),
            gauge="mixed",
            argv=mc_argv,
            check=check_mc,
        ),
    )
}
