"""End-to-end tests of the command-line front end via its ``main`` entry."""

import csv
import functools
import inspect
import math
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from nfvel.bounds import closed_form_bounds
from nfvel.cli import (
    _EXPERIMENT_KEYS,
    _SCENARIO_KEYS,
    _UNITS,
    ConfigError,
    _commands,
    _key_parsers,
    main,
    read_config_file,
)
from nfvel.experiments import CsvTable, ScenarioConfig

SMALL_SCENARIO = [
    "--set", "carrier=6 GHz",
    "--set", "num_elements=9",
    "--set", "spacing=0.02",
    "--set", "num_symbols=8",
    "--set", "symbol_time=0.2 ms",
    "--set", "distance=0.8",
    "--set", "radial_velocity=2",
    "--set", "transverse_velocity=-3",
]

# Arguments a subcommand needs besides the configuration.
COMMAND_ARGS = {"sweep": ["--var", "distance", "--min", "1", "--max", "2", "--points", "2"]}

# One valid value for every experiment key.
EXPERIMENT_VALUES = {
    "apertures": "0.25,0.5",
    "angles": "10",
    "carriers": "6 GHz",
    "d_min": "0.1",
    "d_max": "10",
    "points": "4",
    "x_min": "-1",
    "x_max": "1",
    "x_points": "3",
    "y_min": "0",
    "y_max": "2",
    "y_points": "2",
    "snr_list": "10",
    "trials": "100",
    "vr_window": "0.1",
    "vt_window": "1",
    "grid_points": "5",
    "refine_tolerance": "1e-4",
    "seed": "1",
    "variable": "distance",
    "start": "1",
    "stop": "2",
    "log": "true",
}


def _float_keys():
    """Keys whose value is a float or a list of floats."""
    keys = []
    for key, parse in {**_SCENARIO_KEYS, **_EXPERIMENT_KEYS}.items():
        try:
            value = parse("1", key)
        except ConfigError:
            continue
        if isinstance(value, float) or (isinstance(value, list) and isinstance(value[0], float)):
            keys.append(key)
    return keys


FLOAT_KEYS = _float_keys()


def _root_radial(snr_db):
    """``repr`` of the default scene's radial root-CRLB, m/s, at ``snr_db``."""
    config = ScenarioConfig()
    target = config.target()
    rows = closed_form_bounds(
        [target.distance], [target.angle], config.geometry(), config.waveform(), 10.0 ** (snr_db / 10.0)
    )
    return repr(float(rows.root_radial[0]))


# A setting out of its range, and the start of the error that names it: a value that is
# non-finite, not positive or below its floor, or that leaves the float range once converted
# from dB or squared; a grid that is empty or reversed; a target on an element. A case is
# named by its arguments: each ``key=value`` word, after a space, becomes a ``--set`` pair,
# and each ``--flag value`` word is passed as it is. A case that names no subcommand runs
# montecarlo, which gets ``--trials 100`` unless the case gives its own.
OUT_OF_RANGE_SETTINGS = [
    ("snr=4000 dB", "snr: expected a finite number"),
    ("noise_figure=4000dB", "noise_figure: expected a finite number"),
    ("tx_power=5000 dBm", "tx_power: expected a finite number"),
    ("snr_list=0,nan", "snr_list: expected a finite number"),
    ("fig1 d_min=abc", "d_min: cannot parse 'abc' as a number"),
    ("crlb carrier=1.2.3", "carrier: cannot parse '1.2.3' as a number"),
    ("crlb snr=. dB", "snr: cannot parse '. dB' as a number"),
    ("fig3 carriers=6 GHz,1.2.3", "carriers: cannot parse '1.2.3' as a number"),
    ("fig2 angles=,", "angles: empty list"),
    # Finite in dB, but 10**400 overflows and 10**-400 underflows to 0.
    ("snr_list=4000", "snr_list entry 4000.0 dB is outside the float range"),
    ("snr_list=10,-4000", "snr_list entry -4000.0 dB is outside the float range"),
    # Linear SNRs in range whose noise floor 1/snr or information matrix is not.
    ("snr_list=-3100", "snr_list entry -3100.0 dB is outside the float range as a linear SNR or floor 1/snr"),
    ("snr_list=3080", "snr_list entry 3080.0 dB: information matrix"),
    (
        "--snr-list=3000",
        "snr_list entry 3000.0 dB: information matrix (inf, inf, inf) overflows; reduce carrier or snr",
    ),
    # A carrier or symbol time whose square overflows.
    ("crlb carrier=1e300", "carrier 1e+300 squares past the float range"),
    ("sweep --var carrier --min 1e9 --max 1e300 --points 3", "carrier 5e+299 squares past the float range"),
    ("fig1 carrier=1e300", "carrier 1e+300 squares past the float range"),
    # The wavelength squared underflows in the link budget.
    ("fig4 carrier=1e300 x_points=3 y_points=2", "carrier 1e+300 squares past the float range"),
    ("crlb symbol_time=1e200", "symbol_time 1e+200 squares past the float range"),
    # A distance whose round trip d + d_k overflows, and a far-field information that underflows to 0.
    ("snr_list=10 distance=1.7e308", "distance 1.7e+308 puts the round trip d + d_k past the float range"),
    (
        "sweep variable=distance start=1 stop=10 points=4 carrier=1e-12 snr=1e-310 num_elements=1",
        "snr 1e-310 and carrier 1e-12 take the far-field radial bound past the float range",
    ),
    # A count below its floor: an empty grid, a sweep of one point, too few trials for an MSE,
    # too coarse a search grid, one element where the figure varies the aperture.
    ("fig1 points=0", "points must be an integer >= 1, got 0"),
    ("fig1 points=-1", "points must be an integer >= 1, got -1"),
    ("fig2 points=0", "points must be an integer >= 1, got 0"),
    ("fig3 points=-1", "points must be an integer >= 1, got -1"),
    ("fig4 x_points=0", "x_points must be an integer >= 1, got 0"),
    ("fig4 y_points=-2", "y_points must be an integer >= 1, got -2"),
    ("sweep --var distance --min 1 --max 2 --points 1", "points must be an integer >= 2, got 1"),
    ("--trials 99", "trials must be an integer >= 100, got 99"),
    ("grid_points=1", "grid_points must be an integer >= 3, got 1"),
    ("fig1 num_elements=1", "num_elements must be an integer >= 2, got 1"),
    ("fig2 num_elements=1", "num_elements must be an integer >= 2, got 1"),
    # A count past 2**53, which no float holds exactly, and one below it whose arrays ask for
    # more bytes than the address space holds, so the allocation fails at once.
    ("crlb num_elements=9007199254740993", "num_elements must be at most 9007199254740992, got 9007199254740993"),
    # The out-of-memory message names the counts in effect, largest first.
    (
        "crlb num_elements=1000000000000000",
        "out of memory with num_elements=1000000000000000, num_symbols=14, num_subcarriers=1: "
        "Unable to allocate 7.11 PiB for an array with shape (1000000000000000,)",
    ),
    (
        "fig4 x_points=1000000000000000",
        "out of memory with x_points=1000000000000000, num_elements=101, y_points=101, num_symbols=14, "
        "num_subcarriers=1: Unable to allocate 7.11 PiB for an array with shape (1000000000000000,)",
    ),
    (
        "--trials 1000000000000000 --snr-list 10",
        "out of memory with trials=1000000000000000, num_elements=101, grid_points=41, num_symbols=14, "
        "num_subcarriers=1: Unable to allocate 14.2 PiB for an array with shape (1, 2, ",
    ),
    # A value that must be positive.
    ("fig1 d_min=0", "d_min must be positive, got 0.0"),
    ("fig2 d_min=-0.5", "d_min must be positive, got -0.5"),
    ("fig3 d_min=0", "d_min must be positive, got 0.0"),
    ("fig1 d_max=0", "d_max must be positive, got 0.0"),
    ("fig2 d_max=-10", "d_max must be positive, got -10.0"),
    ("fig3 d_max=0", "d_max must be positive, got 0.0"),
    ("fig1 apertures=0.5,-1", "apertures must be positive, got [0.5, -1.0]"),
    ("fig2 apertures=0", "apertures must be positive, got [0.0]"),
    ("vr_window=0", "vr_window must be positive, got 0.0"),
    ("vt_window=0", "vt_window must be positive, got 0.0"),
    ("vt_window=-1", "vt_window must be positive, got -1.0"),
    ("refine_tolerance=0", "refine_tolerance must be positive, got 0.0"),
    # Scenario keys that reach the model under other names are named as typed.
    ("tx_power=0", "tx_power must be positive, got 0.0"),
    ("tx_power=-1", "tx_power must be positive, got -1.0"),
    ("crlb tx_power=-4000 dBm", "tx_power must be positive, got 0.0"),
    ("crlb aperture=0", "aperture must be positive, got 0.0"),
    ("crlb aperture=-1", "aperture must be positive, got -1.0"),
    # A positive aperture whose spacing over the elements underflows is named as the aperture.
    ("crlb aperture=1e-322", "aperture 1e-322 m over 100 gaps underflows to a zero spacing"),
    ("fig1 apertures=1e-322", "apertures: aperture 1e-322 m over 100 gaps underflows to a zero spacing"),
    (
        "sweep --var aperture --min 1e-322 --max 1e-321 --points 2",
        "aperture 1e-322 m over 100 gaps underflows to a zero spacing",
    ),
    # The snr is quoted as given, not as its broadcast copy.
    ("crlb snr=0", "snr must be positive, got 0.0"),
    ("crlb snr=-1", "snr must be positive, got -1.0"),
    ("crlb snr=-4000 dB", "snr must be positive, got 0.0"),
    ("sweep --var distance --min 0 --max 1 --points 3", "start must be positive, got 0.0"),
    ("sweep --var distance --min -2 --max 1 --points 3", "start must be positive, got -2.0"),
    ("sweep --var carrier --min 0 --max 6e9 --points 3", "start must be positive, got 0.0"),
    ("sweep --var aperture --min 0 --max 1 --points 3", "start must be positive, got 0.0"),
    # Angles are checked in degrees.
    ("sweep --var angle --min -100 --max 0 --points 3", "start must lie in [-90, 90] degrees, got -100.0"),
    ("sweep --var angle --min 0 --max 90.5 --points 3", "stop must lie in [-90, 90] degrees, got 90.5"),
    ("fig2 angles=120", "angles must lie in [-90, 90] degrees, got [120.0]"),
    ("fig2 angles=0,-90.5", "angles must lie in [-90, 90] degrees, got [0.0, -90.5]"),
    # A search window that is ambiguous, that rounds away next to its centre, or whose square
    # the trials take past the float range. c / (2 f_c T_sym) is about 0.32 m/s by default,
    # and half of 1e-16 vanishes next to the default radial velocity of 3 m/s.
    (
        "vr_window=2",
        "the radial search window (vr_window) must be narrower than the Doppler ambiguity interval "
        "c/(2*f_c*T_sym) = 0.322496 m/s",
    ),
    ("vr_window=1e-16", "vr_window 1e-16 rounds to an empty span around 3.0 m/s"),
    ("vt_window=1e-300", "vt_window 1e-300 rounds to an empty span around 1.0 m/s"),
    ("vt_window=1e300", "vt_window 1e+300 squares past the float range"),
    # A reversed grid names both of its keys; d_max defaults to 100 apertures (about 214 m for
    # fig1's largest).
    ("fig1 d_min=10 d_max=1", "d_max must exceed d_min, got 10.0 and 1.0"),
    ("fig2 d_min=5 d_max=5", "d_max must exceed d_min, got 5.0 and 5.0"),
    ("fig3 d_min=2 d_max=0.5", "d_max must exceed d_min, got 2.0 and 0.5"),
    ("fig1 d_min=1000", "d_max must exceed d_min, got 1000.0 and 214.13747"),
    ("fig4 x_min=1 x_max=0", "x_max must exceed x_min, got 1.0 and 0.0"),
    ("fig4 y_min=50 y_max=10", "y_max must exceed y_min, got 50.0 and 10.0"),
    ("fig4 x_min=3 x_max=3", "x_max must exceed x_min, got 3.0 and 3.0"),
    # A target on an element is the scene's fault, not the entry's: the error names no entry.
    (
        "num_elements=5 spacing=0.25 distance=0.5 angle=90",
        "target sits on an array element or the array centre; check distance",
    ),
    (
        "crlb num_elements=5 spacing=0.25 distance=0.5 angle=90",
        "target sits on an array element or the array centre; check distance",
    ),
    ("crlb distance=1e-300", "target sits on an array element or the array centre; check distance"),
    # Each carrier of fig3 builds its own waveform.
    ("fig3 carriers=0", "carriers: carrier must be positive, got 0.0"),
    ("fig3 carriers=-1", "carriers: carrier must be positive, got -1.0"),
    ("fig3 carriers=nan", "carriers: cannot parse 'nan'"),
    ("fig3 carriers=1e300", "carriers: carrier 1e+300 squares past the float range"),
    ("fig3 carriers=6e9,1e300", "carriers: carrier 1e+300 squares past the float range"),
    # The half-wavelength form divides by 72 * distance**2.
    ("fig3 d_max=1.3e154", "d_max 1.3e+154 squares past the float range"),
    ("fig3 d_max=1e200", "d_max 1e+200 squares past the float range"),
    (
        "fig4 tx_power=1e-310 x_points=3 y_points=2",
        "the link-budget snr underflows to 0 on a map reaching 55.90169943749474 m",
    ),
    (
        "fig4 x_max=1e80 x_points=3 y_points=2",
        "the link-budget snr underflows to 0 on a map reaching 1e+80 m: narrow it (x_min, x_max, y_min, "
        "y_max) or check tx_power, radar_cross_section, tx_gain, rx_gain, noise_figure and temperature",
    ),
    # A thermal noise floor k_B T F spacing that underflows names its three factors.
    (
        "fig4 temperature=1e-320 x_points=2 y_points=2",
        "temperature 1e-320, noise_figure 7.943282347242816 and subcarrier_spacing 120000.0 put the noise "
        "floor k_B*T*F*subcarrier_spacing = 0.0 outside the float range",
    ),
    (
        "fig4 tx_power=1e300 x_points=3 y_points=2",
        "the link-budget snr, up to 3.8750132316680444e+301 on this map, takes the information matrix "
        "past the float range: check tx_power, radar_cross_section, tx_gain, rx_gain, noise_figure "
        "and temperature",
    ),
    # With the array centre on the map, the message quotes the largest finite snr.
    (
        "fig4 tx_power=1e300 x_min=-1 x_max=1 x_points=3 y_min=-1 y_max=0 y_points=1",
        "the link-budget snr, up to 1.5136770436203297e+307 on this map, takes the information matrix "
        "past the float range",
    ),
    # Rows that come within ~1e-77 m of a tiny array's centre, off it, have an inf snr
    # because distance**4 underflows: the extent is at fault, not the budget.
    (
        "fig4 num_elements=5 spacing=1e-80 x_min=-1e-78 x_max=1e-78 x_points=3 y_min=0 y_max=1e-78 y_points=1",
        "the map comes within 1e-78 m of the array centre, where the link-budget snr takes the information "
        "matrix past the float range: move it away (x_min, x_max, y_min, y_max)",
    ),
    # An extent whose span, or y span times y_points, overflows has no grid.
    (
        "fig4 x_min=-1e308 x_max=1e308 x_points=3 y_points=2",
        "x_min and x_max span the map past the float range, got -1e+308 and 1e+308",
    ),
    (
        "fig4 y_max=1.7e308 x_points=3 y_points=2",
        "y_min and y_max span the map past the float range, got 0.0 and 1.7e+308",
    ),
    # A map behind the array is no angle the model takes; the y grid is at fault.
    ("fig4 y_min=-50 y_max=-10 y_points=2", "y_min -50.0 puts map rows behind the array, at y -30.0 < 0"),
    # A grid point that puts the target on the array is named, with the keys that place the grid.
    (
        "fig1 d_min=1e-200",
        "target sits on an array element or the array centre at distance 1e-200; check d_min and d_max",
    ),
    (
        "sweep variable=distance start=1e-200 stop=1",
        "target sits on an array element or the array centre at distance 1e-200; check start and stop",
    ),
    (
        "fig1 apertures=1 d_min=1e-13 d_max=1 points=3",
        "target sits on an array element or the array centre at distance 1e-13; check d_min and d_max",
    ),
    # End-fire on the end element: the last grid point is at fault, not the first.
    (
        "fig2 num_elements=5 apertures=1 angles=90 d_min=0.1 d_max=0.5 points=5",
        "target sits on an array element or the array centre at distance 0.5; check d_min and d_max",
    ),
    (
        "fig3 d_min=1e-12",
        "target sits on an array element or the array centre at distance 1e-12; check d_min and d_max",
    ),
    (
        "sweep variable=distance num_elements=5 spacing=0.25 angle=90 start=0.1 stop=0.5 points=5",
        "target sits on an array element or the array centre at distance 0.5; check start and stop",
    ),
    # In the other sweeps the scene's distance places every row.
    (
        "sweep variable=angle num_elements=5 spacing=0.25 distance=0.5 start=0 stop=90 points=3",
        "target sits on an array element or the array centre at distance 0.5; check distance",
    ),
    # 100 times the largest aperture, the default d_max, overflows.
    ("fig1 apertures=1e307", "apertures: the default d_max, 100 times 1e+307 m, overflows"),
    ("fig2 apertures=1e307", "apertures: the default d_max, 100 times 1e+307 m, overflows"),
    # Past one ulp of the radial span the Monte Carlo MSE measures float rounding.
    (
        "snr_list=250",
        f"snr_list entry 250.0 dB puts the radial root-CRLB {_root_radial(250.0)} m/s below the float "
        "resolution 4.440892098500626e-16 m/s of the radial span",
    ),
]

# Every unit of cli._UNITS as (key of its kind, text, the conversion written out).
UNIT_CASES = [
    ("carrier", "2.5", 2.5),
    ("carrier", "2.5 Hz", 2.5),
    ("carrier", "2.5 kHz", 2.5 * 1e3),
    ("carrier", "2.5MHz", 2.5 * 1e6),
    ("carrier", "2.5 GHz", 2.5 * 1e9),
    ("symbol_time", "16.6", 16.6),
    ("symbol_time", "16.6 s", 16.6),
    ("symbol_time", "16.6 ms", 16.6 * 1e-3),
    ("symbol_time", "16.6 us", 16.6 * 1e-6),
    ("tx_power", "0.2", 0.2),
    ("tx_power", "0.2 W", 0.2),
    ("tx_power", "200 mW", 200.0 * 1e-3),
    ("tx_power", "23 dBm", 10.0 ** (23.0 / 10.0) * 1e-3),
    ("snr", "9", 9.0),
    ("snr", "9 dB", 10.0 ** (9.0 / 10.0)),
    ("snr", "-3 dBi", 10.0 ** (-3.0 / 10.0)),
]
UNIT_KINDS = {"carrier": "frequency", "symbol_time": "time", "tx_power": "power", "snr": "ratio"}

KEYS = {**_SCENARIO_KEYS, **_EXPERIMENT_KEYS}

# The keys whose values carry a unit, each with one value and its conversion written out.
UNIT_KEY_CASES = {
    "carrier": ("28 GHz", 28.0 * 1e9),
    "subcarrier_spacing": ("120 kHz", 120.0 * 1e3),
    "carriers": ("6 GHz,28 GHz", [6.0 * 1e9, 28.0 * 1e9]),
    "symbol_time": ("16.6 ms", 16.6 * 1e-3),
    "tx_power": ("23 dBm", 10.0 ** (23.0 / 10.0) * 1e-3),
    "snr": ("-3 dB", 10.0 ** (-3.0 / 10.0)),
    "noise_figure": ("9 dB", 10.0 ** (9.0 / 10.0)),
    "tx_gain": ("3 dBi", 10.0 ** (3.0 / 10.0)),
    "rx_gain": ("0.5 dB", 10.0 ** (0.5 / 10.0)),
    "angle": ("45", 45.0 / 180.0 * math.pi),
}


def _number_keys():
    """Keys without a unit whose value is a number or a list of numbers."""
    keys = []
    for key, parse in KEYS.items():
        try:
            value = parse("1", key)
        except ConfigError:
            continue
        if key not in UNIT_KEY_CASES and not isinstance(value, str):
            keys.append(key)
    return keys


def _taken_keys(command):
    """Experiment keys that are parameters of the subcommand's runner."""
    return set(_EXPERIMENT_KEYS) & set(inspect.signature(_commands()[command][1]).parameters)


def _crlb_output(capsys, *args):
    code = main(["crlb", *args])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    out = {}
    for line in captured.out.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


class TestUnitParsing:
    def test_frequency_and_ratio_suffixes(self, capsys):
        out = _crlb_output(
            capsys,
            "--set", "carrier=28 GHz",
            "--set", "subcarrier_spacing=120 kHz",
            "--set", "snr=20 dB",
            "--set", "rx_gain=3 dBi",
        )
        assert float(out["carrier"]) == pytest.approx(28e9)
        assert float(out["subcarrier_spacing"]) == pytest.approx(120e3)
        assert float(out["snr"]) == pytest.approx(100.0)
        assert float(out["rx_gain"]) == pytest.approx(10.0 ** 0.3)

    def test_power_suffixes_agree(self, capsys):
        dbm = _crlb_output(capsys, "--set", "tx_power=23 dBm")
        milliwatt = _crlb_output(capsys, "--set", "tx_power=199.52623149688787 mW")
        watt = _crlb_output(capsys, "--set", "tx_power=0.19952623149688787 W")
        assert float(dbm["tx_power"]) == pytest.approx(0.19952623149688787, rel=1e-12)
        assert milliwatt["tx_power"] == watt["tx_power"]

    def test_time_suffixes(self, capsys):
        ms = _crlb_output(capsys, "--set", "symbol_time=16.6 ms")
        us = _crlb_output(capsys, "--set", "symbol_time=16600 us")
        assert float(ms["symbol_time"]) == pytest.approx(16.6e-3)
        assert ms["symbol_time"] == us["symbol_time"]

    @pytest.mark.parametrize(("key", "text", "expected"), UNIT_CASES, ids=[t for _, t, _ in UNIT_CASES])
    def test_every_unit_converts_bit_for_bit(self, key, text, expected):
        assert _SCENARIO_KEYS[key](text, key).hex() == expected.hex()

    @pytest.mark.parametrize(("key", "case"), UNIT_KEY_CASES.items(), ids=list(UNIT_KEY_CASES))
    def test_every_unit_key_converts_bit_for_bit(self, key, case):
        text, expected = case
        # repr round-trips a float, so equal reprs are equal bits.
        assert repr(KEYS[key](text, key)) == repr(expected)

    @pytest.mark.parametrize("key", _number_keys())
    def test_other_number_keys_reject_a_unit(self, key):
        with pytest.raises(ConfigError, match=rf"^{key}: cannot parse '1 GHz'"):
            KEYS[key]("1 GHz", key)

    def test_key_of_several_runners_has_one_type(self):
        """d_min is float in fig3 and float | None in fig1 and fig2; one parser reads a float for all three."""
        kinds = {}
        for _, runner, _ in _commands().values():
            for key, parameter in list(inspect.signature(runner).parameters.items())[1:]:
                kinds.setdefault(key, []).append(parameter.annotation.removesuffix(" | None"))
        shared = {key: set(found) for key, found in kinds.items() if len(found) > 1}
        assert set(shared) == {"apertures", "d_min", "d_max", "points"}
        types = {"float": float, "int": int, "Sequence[float]": list}
        for key, (kind,) in shared.items():
            assert type(_EXPERIMENT_KEYS[key]("2", key)) is types[kind]

    def test_unit_cases_cover_every_unit(self):
        covered = {(UNIT_KINDS[key], re.sub(r"[-0-9. ]", "", text).lower()) for key, text, _ in UNIT_CASES}
        assert covered == {(kind, unit) for kind, units in _UNITS.items() for unit in units}

    @pytest.mark.parametrize(("key", "kind"), UNIT_KINDS.items())
    def test_unknown_unit_names_its_kind(self, key, kind, capsys):
        assert main(["crlb", "--set", f"{key}=3 parsec"]) == 1
        assert capsys.readouterr().err == f"nfvel: invalid configuration: {key}: unknown {kind} unit 'parsec'\n"

    def test_angle_in_degrees(self, capsys):
        out = _crlb_output(capsys, "--set", "angle=45")
        assert float(out["angle_deg"]) == pytest.approx(45.0)
        assert float(out["angle"]) == pytest.approx(math.pi / 4)

    def test_end_fire_degrees_reports_singular(self, capsys):
        out = _crlb_output(capsys, "--set", "angle=90")
        assert out["singular"] == "1"
        assert out["crlb_vt"] == "inf"
        assert out["root_crlb_vt"] == "inf"
        assert out["crlb_vr"] != "inf"


class TestConfigHandling:
    def test_config_file_with_comments(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "# reference scenario\n"
            "\n"
            "distance = 5  # metres\n"
            "snr = 0 dB\n"
            "angle = 30\n"
        )
        out = _crlb_output(capsys, "--config", str(cfg))
        assert float(out["distance"]) == pytest.approx(5.0)
        assert float(out["snr"]) == pytest.approx(1.0)
        assert float(out["angle_deg"]) == pytest.approx(30.0)

    def test_set_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("distance = 5\nsnr = 10 dB\n")
        out = _crlb_output(capsys, "--config", str(cfg), "--set", "distance=7")
        assert float(out["distance"]) == pytest.approx(7.0)
        assert float(out["snr"]) == pytest.approx(10.0)

    def test_duplicate_keys_last_wins(self, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("distance = 5\ndistance = 9\n")
        assert read_config_file(cfg) == {"distance": "9"}

    def test_malformed_config_line_raises(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("distance 5\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(cfg))}:1: expected 'key = value', got 'distance 5'$"):
            read_config_file(cfg)


class TestExitCodes:
    def test_unknown_key_is_config_error(self, capsys):
        assert main(["crlb", "--set", "bogus=1"]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_unparseable_value_is_config_error(self, capsys):
        for argv, message in (
            (["--set", "carrier=abc"], "carrier: cannot parse 'abc' as a number"),
            (["--set", "symbol_time=5 parsec"], "symbol_time: unknown time unit 'parsec'"),
            (["--set", "distance"], "--set expects key=value, got 'distance'"),
        ):
            assert main(["crlb", *argv]) == 1
            assert capsys.readouterr().err == f"nfvel: invalid configuration: {message}\n"

    def test_invalid_scenario_is_config_error(self, capsys):
        for argv, message in (
            (["--set", "distance=-1"], "distance must be positive, got -1.0"),
            (["--set", "spacing=0.1", "--set", "aperture=1"], "give spacing or aperture, not both"),
        ):
            assert main(["crlb", *argv]) == 1
            assert capsys.readouterr().err == f"nfvel: invalid configuration: {message}\n"

    def test_missing_config_file_is_io_error(self, capsys):
        assert main(["crlb", "--config", "/nonexistent/scenario.cfg"]) == 2
        assert "i/o" in capsys.readouterr().err

    def test_float_overflow_is_config_error(self, capsys, monkeypatch):
        # The last resort for Python float arithmetic that no check ahead of it names.
        def overflow(scenario):
            raise OverflowError("(34, 'Numerical result out of range')")

        monkeypatch.setattr("nfvel.cli.run_single", overflow)
        assert main(["crlb"]) == 1
        assert capsys.readouterr().err == "nfvel: invalid configuration: a value overflows the float range\n"

    def test_bad_seed_or_threads(self, capsys):
        assert main(["crlb", "--seed", "-1"]) == 1
        # There is no --threads flag and no threads key.
        assert main(["crlb", "--threads", "2"]) == 1
        capsys.readouterr()
        assert main(["crlb", "--set", "threads=2"]) == 1
        assert "'threads'" in capsys.readouterr().err

    @pytest.mark.parametrize(("key", "value"), [("seed", "1.5"), ("trials", "1e3")])
    def test_integer_flags_parse_like_their_keys(self, key, value, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        errors = []
        for spelling in ([f"--{key}", value], ["--set", f"{key}={value}"]):
            assert main(["montecarlo", *spelling, "--out", str(out)]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert f"{key}: cannot parse {value!r} as an integer" in errors[0]
        assert not out.exists()

    def test_extreme_distances_end_without_a_traceback(self, tmp_path, capsys):
        # distance**4 underflows to 0 on every row: degenerate rows, SNR inf.
        out = tmp_path / "out.csv"
        settings = ["x_min=-1e-100", "x_max=1e-100", "y_min=0", "y_max=1e-100", "x_points=3", "y_points=2"]
        argv = ["fig4", *(arg for setting in settings for arg in ("--set", setting))]
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        header, *rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        snr_db = header.split(",").index("snr_db")
        assert [row.split(",")[snr_db] for row in rows] == ["inf"] * 6
        assert all(row.endswith(",1") for row in rows)

    @pytest.mark.parametrize("carrier", ["0", "-6 GHz"])
    @pytest.mark.parametrize("command", list(_commands()))
    def test_non_positive_carrier_names_carrier(self, command, carrier, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = [command, *COMMAND_ARGS.get(command, []), "--set", f"carrier={carrier}"]
        assert main([*argv, "--out", str(out)]) == 1
        assert "carrier" in capsys.readouterr().err
        assert not out.exists()

    def test_crlb_seed_flag_is_an_error(self, capsys):
        assert main(["crlb", "--seed", "5"]) == 1
        assert "crlb does not take the key 'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("angle", ["120", "-90.5", "90.000001"])
    @pytest.mark.parametrize("command", ["crlb", "montecarlo", "fig4"])
    def test_scenario_angle_is_checked_in_degrees(self, command, angle, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([command, "--set", f"angle={angle}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"angle must lie in [-90, 90] degrees, got {float(angle)!r}" in err
        assert "pi" not in err
        assert not out.exists()

    def test_one_point_grid_may_have_equal_bounds(self, tmp_path, capsys):
        out = tmp_path / "cut.csv"
        settings = ["x_min=0", "x_max=0", "x_points=1", "y_min=5", "y_max=5", "y_points=1"]
        argv = ["fig4", *(arg for setting in settings for arg in ("--set", setting))]
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1].startswith("0.000000000000e+00,5.0")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_names_its_key(self, key, text, capsys):
        assert main(["crlb", "--set", f"{key}={text}"]) == 1
        err = capsys.readouterr().err
        # Unit-bearing keys cannot parse nan or inf at all; 1e400 overflows to inf.
        assert f"{key}: expected a finite number" in err or f"{key}: cannot parse" in err
        if text == "1e400":
            assert f"{key}: expected a finite number, got '1e400'" in err

    @pytest.mark.parametrize(
        ("setting", "message"), OUT_OF_RANGE_SETTINGS, ids=[s for s, _ in OUT_OF_RANGE_SETTINGS]
    )
    def test_out_of_range_setting_names_its_key(self, setting, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        words = re.split(r" (?=--|\w+=)", setting)
        command = words.pop(0) if words[0] in _commands() else "montecarlo"
        argv = [arg for word in words for arg in (word.split(" ") if word[0] == "-" else ("--set", word))]
        if command == "montecarlo" and "--trials" not in argv:
            argv += ["--trials", "100"]
        assert main([command, *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"nfvel: invalid configuration: {message}")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_snr_list_entry_just_above_the_noise_floor_runs(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        # The trials run in units of the noise, so the transmit power moves no floor.
        for snr_list, settings in (("-3070", []), ("-3080", []), ("-100", ["--set", "tx_power=1e300"])):
            args = ["montecarlo", "--trials", "100", f"--snr-list={snr_list}", *settings, "--out", str(out)]
            assert main(args) == 0, capsys.readouterr().err
            header, row = [line for line in out.read_text().splitlines() if not line.startswith("#")]
            cells = dict(zip(header.split(","), row.split(",")))
            for key in ("crlb_vr", "crlb_vt", "ratio_vr", "ratio_vt"):
                assert math.isfinite(float(cells[key])), (snr_list, key)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_snr_list_entry_above_the_resolution_floor_runs(self, tmp_path, capsys):
        # Root-CRLB_vr is 5.4 ulp of the radial span's 3.1 m/s at 220 dB on the default scene.
        out = tmp_path / "out.csv"
        assert main(["montecarlo", "--trials", "100", "--snr-list", "220", "--out", str(out)]) == 0
        header, row = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        cells = dict(zip(header.split(","), row.split(",")))
        for key in ("ratio_vr", "ratio_vt"):
            assert 0.5 < float(cells[key]) < 1.5, key

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_snr_bounds_are_finite(self, capsys):
        low = _crlb_output(capsys, "--set", "snr=-1700 dB")
        assert low["singular"] == "0"
        assert math.isfinite(float(low["root_crlb_vt"]))
        high = _crlb_output(capsys, "--set", "snr=2000 dB")
        assert high["singular"] == "0"
        assert float(high["root_crlb_vt"]) > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fig2_at_minus_1700_db_has_no_inf_cell(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        assert main(["fig2", "--set", "snr=-1700 dB", "--out", str(out)]) == 0
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
        assert len(rows) > 1000
        assert not [row for row in rows if "inf" in row.split(",")]

    def test_fig3_at_minus_3080_db_has_finite_exact_root_bounds(self, tmp_path, capsys):
        # A variance past the float range still has a finite root.
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--set", "snr=-3080 dB", "--set", "points=5", "--out", str(out)]) == 0
        rows = list(csv.DictReader(line for line in out.read_text().splitlines() if not line.startswith("#")))
        assert rows
        assert [row for row in rows if row["root_crlb_vt_exact"] == "inf"] == []

    def test_usage_errors_exit_one(self, capsys):
        assert main(["bogus"]) == 1
        assert main([]) == 1
        assert main(["sweep", "--var", "distance"]) == 1  # missing --min/--max

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "montecarlo" in capsys.readouterr().out


class TestCsvCommands:
    def test_sweep_writes_table(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--var", "distance", "--min", "1", "--max", "100",
            "--points", "5", "--log", "--out", str(out),
        ])
        assert code == 0
        assert str(out) in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "# nfvel sweep-distance"
        assert "# seed = 0" in lines
        header_at = lines.index("distance,root_crlb_vr,root_crlb_vt,root_crlb_vr_far_field,singular")
        assert len(lines) - header_at - 1 == 5

    def test_sweep_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["sweep", "--var", "angle", "--min", "-60", "--max", "60", "--points", "3"])
        assert code == 0
        assert (tmp_path / "sweep_angle.csv").exists()

    @pytest.mark.parametrize("log", [[], ["--log"]])
    def test_sweep_settings_from_flags_set_or_config_agree(self, log, tmp_path, capsys):
        grid = ["--var", "distance", "--min", "0.5", "--max", "40", *log]
        flags, keys, config = (tmp_path / name for name in ("flags.csv", "keys.csv", "config.csv"))
        assert main(["sweep", *grid, "--points", "50", "--out", str(flags)]) == 0
        assert main(["sweep", *grid, "--set", "points=50", "--out", str(keys)]) == 0
        # The five sweep settings, read back from the header of the first file.
        lines = flags.read_text().splitlines()
        names = ("variable", "start", "stop", "points", "log")
        settings = [line[2:] for line in lines if line[2:].split(" = ")[0] in names]
        assert len(settings) == 5
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("\n".join(settings) + "\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(config)]) == 0

        assert flags.read_bytes() == keys.read_bytes() == config.read_bytes()
        assert len(lines) - lines.index(
            "distance,root_crlb_vr,root_crlb_vt,root_crlb_vr_far_field,singular"
        ) - 1 == 50

        capsys.readouterr()
        no_start = tmp_path / "no_start.csv"
        assert main(["sweep", "--var", "distance", "--max", "40", "--out", str(no_start)]) == 1
        assert "sweep needs the key 'start'" in capsys.readouterr().err
        assert not no_start.exists()

    @pytest.mark.parametrize("text", ["TRUE", "False", "true"])
    def test_log_reads_true_or_false_in_any_case(self, text, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--var", "distance", "--min", "1", "--max", "100", "--points", "3"]
        assert main([*argv, "--set", f"log={text}", "--out", str(out)]) == 0
        assert f"# log = {text.lower() == 'true'}" in out.read_text().splitlines()

    def test_log_rejects_other_words(self, capsys):
        argv = ["sweep", "--var", "distance", "--min", "1", "--max", "100", "--set", "log=yes"]
        assert main(argv) == 1
        assert "log" in capsys.readouterr().err

    def test_fig1_with_experiment_keys(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code = main([
            "fig1",
            "--set", "apertures=0.25,0.5",
            "--set", "d_min=0.1",
            "--set", "d_max=10",
            "--set", "points=4",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# nfvel radial-vs-distance"
        data = [line for line in lines if not line.startswith("#")]
        assert data[0].startswith("distance_m,")
        assert len(data) - 1 == 8  # two apertures x four points

    def test_fig4_small_map(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        code = main([
            "fig4",
            "--set", "x_min=-2", "--set", "x_max=2", "--set", "x_points=3",
            "--set", "y_min=0", "--set", "y_max=8", "--set", "y_points=2",
            "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "snr_db" in text
        assert "nan" not in text.lower()

    def test_montecarlo_rerun_is_byte_identical(self, tmp_path, capsys):
        args = [
            "montecarlo",
            *SMALL_SCENARIO,
            "--set", "vr_window=2",
            "--set", "vt_window=6",
            "--trials", "100",
            "--snr-list", "20",
            "--seed", "11",
        ]
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main([*args, "--out", str(first)]) == 0
        assert main([*args, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert "# seed = 11" in lines
        assert any(line.startswith("snr_db,") for line in lines)

    def test_montecarlo_rows_do_not_depend_on_tx_power(self, tmp_path, capsys):
        # The SNRs are given and the trials run in units of the noise, so the transmit power
        # never reaches them. Seed 3 at -20 dB once differed in the last printed digit at 1e150.
        def data_rows(*args):
            out = tmp_path / "mc.csv"
            code = main(["montecarlo", "--trials", "100", *args, "--out", str(out)])
            assert code == 0, capsys.readouterr().err
            # The header echoes tx_power.
            return [line for line in out.read_text().splitlines() if not line.startswith("#")]

        runs = {
            ("--snr-list=-20,10",): ("1e-200", "1e146", "1e300"),
            ("--snr-list=-20", "--seed", "3"): ("1e150",),
        }
        for run, powers in runs.items():
            default = data_rows(*run)
            for tx_power in powers:
                assert data_rows(*run, "--set", f"tx_power={tx_power}") == default, (run, tx_power)

    @pytest.mark.parametrize("num_symbols", [1, 64])
    def test_montecarlo_from_one_symbol_to_64(self, num_symbols, tmp_path, capsys):
        # One symbol carries no Doppler: no axis is identified, and every MSE and ratio cell
        # reads none. 64 symbols is the largest M the derivative oracle test draws.
        out = tmp_path / "mc.csv"
        args = ["montecarlo", "--trials", "100", "--snr-list=-20,10", "--set", f"num_symbols={num_symbols}"]
        assert main([*args, "--out", str(out)]) == 0, capsys.readouterr().err
        rows = list(csv.DictReader(line for line in out.read_text().splitlines() if not line.startswith("#")))
        cells = [row[key] for row in rows for key in ("mse_vr", "mse_vt", "ratio_vr", "ratio_vt")]
        assert len(cells) == 8
        if num_symbols == 1:
            assert cells == ["none"] * 8
        else:
            assert all(math.isfinite(float(cell)) for cell in cells)

    def test_montecarlo_end_fire_writes_none_for_the_unidentified_axis(self, tmp_path, capsys):
        out = tmp_path / "endfire.csv"
        code = main([
            "montecarlo",
            *SMALL_SCENARIO,
            "--set", "angle=90",
            "--set", "transverse_velocity=0",
            "--set", "vr_window=2",
            "--set", "vt_window=6",
            "--trials", "100",
            "--snr-list", "20",
            "--out", str(out),
        ])
        assert code == 0
        header, values = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        row = dict(zip(header.split(","), values.split(",")))
        assert row["mse_vt"] == "none" and row["ratio_vt"] == "none"
        assert row["crlb_vt"] == "inf"
        assert float(row["mse_vr"]) > 0.0 and float(row["ratio_vr"]) > 0.0


class TestSubcommandKeys:
    def test_scenario_keys_are_the_scenario_fields(self):
        assert set(_SCENARIO_KEYS) == {field.name for field in fields(ScenarioConfig)}

    def test_every_experiment_key_belongs_to_a_subcommand(self):
        assert set(EXPERIMENT_VALUES) == set(_EXPERIMENT_KEYS)
        assert set().union(*map(_taken_keys, _commands())) == set(_EXPERIMENT_KEYS)

    @pytest.mark.parametrize("command", list(_commands()))
    def test_runner_parameters_are_the_accepted_keys(self, command, tmp_path, capsys, monkeypatch):
        _, runner, default_name = _commands()[command]
        calls = []

        @functools.wraps(runner)
        def recording(config, **kwargs):
            calls.append(kwargs)
            return {} if default_name is None else CsvTable("stub", (), (), {})

        monkeypatch.setattr(f"nfvel.cli.{runner.__name__}", recording)
        taken = _taken_keys(command)
        for key, value in EXPERIMENT_VALUES.items():
            calls.clear()
            argv = [command, *COMMAND_ARGS.get(command, []), "--set", f"{key}={value}"]
            code = main([*argv, "--out", str(tmp_path / "out.csv")])
            err = capsys.readouterr().err
            if key in taken:
                assert code == 0, err
                assert key in calls[0]
            elif key == "seed" and default_name is not None:
                # Every file header records the seed, so every subcommand
                # that writes a file accepts it.
                assert code == 0, err
                assert len(calls) == 1
            else:
                assert code == 1
                assert repr(key) in err and command in err
                assert calls == []

    def test_annotation_no_parser_reads_fails(self):
        # A runner parameter added later becomes a key, or stops the import with this error.
        with pytest.raises(TypeError, match=r"^no command-line parser for grid: Sequence\[int\]$"):
            _key_parsers([("grid", "Sequence[int]")])
        with pytest.raises(TypeError, match=r"^d_min is annotated both float and int$"):
            _key_parsers([("d_min", "float | None"), ("d_min", "float"), ("d_min", "int")])

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--var", "distance", "--min", "1", "--max", "100", "--set", "x_points=3"],
            ["crlb", "--set", "points=3"],
            ["fig1", "--set", "vr_window=0.1"],
            ["fig3", "--set", "apertures=1"],
            ["montecarlo", "--set", "x_points=3"],
            # crlb prints no header, so the seed would be dropped.
            ["crlb", "--set", "seed=5"],
        ],
    )
    def test_key_of_another_subcommand_is_an_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 1
        key = argv[-1].split("=")[0]
        assert f"{argv[0]} does not take the key {key!r}" in capsys.readouterr().err
        assert not out.exists()


README = Path(__file__).parents[1] / "README.md"
WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"


def test_ci_smoke_step_runs_every_subcommand(tmp_path):
    """CI's installed-script step runs ``nfvel --help`` and each subcommand once, on one line each,
    fig2 once more at the paper's 16384 elements, one row per kernel chunk, fig4 once more
    on a map whose first row, along the array line and through its centre, reads degenerate,
    and montecarlo at the benchmark's threshold and asymptotic SNRs."""
    step = WORKFLOW.read_text(encoding="utf-8").split("- name: Installed nfvel script\n", 1)[1]
    lines = step.split("- name: ", 1)[0].splitlines()
    runs = [line.split()[1:] for line in lines if line.lstrip().startswith("nfvel ")]
    assert sorted(argv[0] for argv in runs) == sorted(["--help", "fig2", "fig4", *_commands()])
    assert sum("num_elements=16384" in argv for argv in runs if argv[0] == "fig2") == 1
    assert [argv for argv in runs if argv[0] == "montecarlo" and "--snr-list=-20,10" in argv]
    (line,) = [argv for argv in runs if argv[0] == "fig4" and "y_min=-0.1" in argv]
    out = tmp_path / "fig4_line.csv"
    assert main([*line[: line.index("--out")], "--out", str(out)]) == 0
    with out.open(encoding="utf-8") as handle:
        rows = list(csv.DictReader(text for text in handle if not text.startswith("#")))
    assert [float(row["y_m"]) for row in rows if row["degenerate"] != "0"] == [0.0] * 21


def test_readme_examples_run(tmp_path, capsys, monkeypatch):
    """The ``nfvel ...`` lines of README's "Examples" block run, writing into ``tmp_path``."""
    block = README.read_text(encoding="utf-8").split("Examples:", 1)[1].split("```", 2)[1]
    examples = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("nfvel ")]
    assert {argv[0] for argv in examples} >= {"crlb", "sweep", "montecarlo"}
    # A real montecarlo example takes seconds; record the call instead.
    calls = []
    runner = _commands()["montecarlo"][1]

    @functools.wraps(runner)
    def recording(config, **kwargs):
        calls.append(kwargs)
        return CsvTable("stub", (), (), {})

    monkeypatch.setattr(f"nfvel.cli.{runner.__name__}", recording)
    for argv in examples:
        out = None
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = out = str(tmp_path / argv[at])
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        assert out is None or Path(out).exists()
    assert len(calls) == sum(argv[0] == "montecarlo" for argv in examples)


def test_readme_library_quickstart_runs(capsys):
    """README's python blocks run in order as one script, the filter loop included."""
    blocks = README.read_text(encoding="utf-8").split("```python\n")[1:]
    exec("".join(block.split("```", 1)[0] for block in blocks), {})
    out = capsys.readouterr().out
    assert out.count("root-CRLB") == 2
    assert out.count("v_r ") == 3
    assert out.count("MSE/CRLB") == 2


def test_readme_sweep_config_file_runs(tmp_path, capsys):
    cfg = tmp_path / "distance.cfg"
    cfg.write_text(README.read_text(encoding="utf-8").split("```ini", 1)[1].split("```", 1)[0])
    out = tmp_path / "distance.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    flags = tmp_path / "flags.csv"
    argv = ["--var", "distance", "--min", "0.05", "--max", "100", "--points", "200", "--log"]
    assert main(["sweep", *argv, "--out", str(flags)]) == 0
    assert out.read_bytes() == flags.read_bytes()
