"""End-to-end tests of the command-line front end via its ``main`` entry."""

import functools
import inspect
import math
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from nfvel.cli import (
    _EXPERIMENT_KEYS,
    _SCENARIO_KEYS,
    _UNITS,
    ConfigError,
    _commands,
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

# A setting whose value is non-finite or leaves the float range once converted from dB or
# squared, or that puts the target on an element, and the start of the error that names it.
# Each case is named by its setting; a case of several settings separates them by a space
# before each key. A case runs montecarlo unless it starts with another subcommand.
OUT_OF_RANGE_SETTINGS = [
    ("snr=4000 dB", "snr: expected a finite number"),
    ("noise_figure=4000dB", "noise_figure: expected a finite number"),
    ("tx_power=5000 dBm", "tx_power: expected a finite number"),
    ("snr_list=0,nan", "snr_list: expected a finite number"),
    ("fig1 d_min=abc", "d_min: cannot parse 'abc' as a number"),
    ("fig2 angles=,", "angles: empty list"),
    # Finite in dB, but 10**400 overflows and 10**-400 underflows to 0.
    ("snr_list=4000", "snr_list entry 4000.0 dB is outside the float range"),
    ("snr_list=10,-4000", "snr_list entry -4000.0 dB is outside the float range"),
    # Linear SNRs in range whose noise floor 1/snr or information matrix is not.
    ("snr_list=-3100", "snr_list entry -3100.0 dB is outside the float range as a linear SNR or floor 1/snr"),
    ("snr_list=3080", "snr_list entry 3080.0 dB: information matrix"),
    # A target on an element is the scene's fault, not the entry's: the error names no entry.
    (
        "num_elements=5 spacing=0.25 distance=0.5 angle=90",
        "target sits on an array element or the array centre; check distance",
    ),
    (
        "crlb num_elements=5 spacing=0.25 distance=0.5 angle=90",
        "target sits on an array element or the array centre; check distance",
    ),
    # Each carrier of fig3 builds its own waveform.
    ("fig3 carriers=0", "carriers: carrier must be positive, got 0.0"),
    ("fig3 carriers=-1", "carriers: carrier must be positive, got -1.0"),
    ("fig3 carriers=nan", "carriers: cannot parse 'nan'"),
    ("fig3 carriers=1e300", "carriers: carrier 1e+300 squares past the float range"),
    ("fig3 carriers=6e9,1e300", "carriers: carrier 1e+300 squares past the float range"),
    # The half-wavelength form divides by 72 * distance**2.
    ("fig3 d_max=1.3e154", "d_max 1.3e+154 squares past the float range"),
    (
        "fig4 tx_power=1e-310 x_points=3 y_points=2",
        "the link-budget snr underflows to 0 on a map reaching 55.90169943749474 m",
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
        "snr_list entry 250.0 dB puts the radial root-CRLB 7.571898343849762e-17 m/s below the float "
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
        with pytest.raises(ConfigError):
            read_config_file(cfg)


class TestExitCodes:
    def test_unknown_key_is_config_error(self, capsys):
        assert main(["crlb", "--set", "bogus=1"]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_unparseable_value_is_config_error(self, capsys):
        assert main(["crlb", "--set", "carrier=abc"]) == 1
        assert main(["crlb", "--set", "symbol_time=5 parsec"]) == 1
        assert main(["crlb", "--set", "distance"]) == 1

    def test_invalid_scenario_is_config_error(self, capsys):
        assert main(["crlb", "--set", "distance=-1"]) == 1
        assert main(["crlb", "--set", "spacing=0.1", "--set", "aperture=1"]) == 1

    def test_missing_config_file_is_io_error(self, capsys):
        assert main(["crlb", "--config", "/nonexistent/scenario.cfg"]) == 2
        assert "i/o" in capsys.readouterr().err

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

    def test_ambiguous_radial_window_names_vr_window(self, tmp_path, capsys):
        # c / (2 f_c T_sym) is about 0.32 m/s for the default scenario.
        out = tmp_path / "mc.csv"
        assert main(["montecarlo", "--set", "vr_window=2", "--trials", "100", "--out", str(out)]) == 1
        assert "vr_window" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["fig1", "fig2"])
    def test_aperture_figures_reject_a_single_element(self, command, tmp_path, capsys):
        out = tmp_path / "single.csv"
        assert main([command, "--set", "num_elements=1", "--out", str(out)]) == 1
        assert "num_elements" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_distance_on_the_array_centre_names_distance(self, capsys):
        assert main(["crlb", "--set", "distance=1e-300"]) == 1
        assert "distance" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        ("argv", "code"),
        [
            (["fig3", "--set", "d_max=1e200"], 1),
            (["fig4", "--set", "x_max=1e80", "--set", "x_points=3", "--set", "y_points=2"], 1),
            # distance**4 underflows to 0 on every row: degenerate rows, SNR inf.
            (
                [
                    "fig4", "--set", "x_min=-1e-100", "--set", "x_max=1e-100",
                    "--set", "y_min=0", "--set", "y_max=1e-100",
                    "--set", "x_points=3", "--set", "y_points=2",
                ],
                0,
            ),
            # The link-budget SNR underflows to 0.
            (["fig4", "--set", "tx_power=1e-310", "--set", "x_points=3", "--set", "y_points=2"], 1),
        ],
    )
    def test_extreme_distances_end_without_a_traceback(self, argv, code, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            # The error names the key set first.
            assert err.startswith("nfvel: invalid configuration: ")
            assert argv[2].partition("=")[0] in err
            assert not out.exists()
            return
        assert err == ""
        header, *rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        snr_db = header.split(",").index("snr_db")
        assert [row.split(",")[snr_db] for row in rows] == ["inf"] * 6
        assert all(row.endswith(",1") for row in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["crlb", "--set", "carrier=1e300"],
            ["sweep", "--var", "carrier", "--min", "1e9", "--max", "1e300", "--points", "3"],
            ["fig1", "--set", "carrier=1e300"],
            # The wavelength squared underflows in the link budget.
            ["fig4", "--set", "carrier=1e300", "--set", "x_points=3", "--set", "y_points=2"],
        ],
    )
    def test_overflowing_carrier_names_carrier(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("nfvel: invalid configuration: carrier ")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_symbol_time_names_symbol_time(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["crlb", "--set", "symbol_time=1e200", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("nfvel: invalid configuration: symbol_time ")
        assert not out.exists()

    @pytest.mark.parametrize("carrier", ["0", "-6 GHz"])
    @pytest.mark.parametrize("command", list(_commands()))
    def test_non_positive_carrier_names_carrier(self, command, carrier, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = [command, *COMMAND_ARGS.get(command, []), "--set", f"carrier={carrier}"]
        assert main([*argv, "--out", str(out)]) == 1
        assert "carrier" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("command", "key", "value"),
        [
            ("fig1", "points", "0"),
            ("fig1", "points", "-1"),
            ("fig2", "points", "0"),
            ("fig3", "points", "-1"),
            ("fig4", "x_points", "0"),
            ("fig4", "y_points", "-2"),
        ],
    )
    def test_empty_grid_names_its_key(self, command, key, value, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([command, "--set", f"{key}={value}", "--out", str(out)]) == 1
        assert f"{key} must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        ("command", "key", "value"),
        [
            ("fig1", "d_min", "0"),
            ("fig2", "d_min", "-0.5"),
            ("fig3", "d_min", "0"),
            ("fig1", "d_max", "0"),
            ("fig2", "d_max", "-10"),
            ("fig3", "d_max", "0"),
            ("fig1", "apertures", "0.5,-1"),
            ("fig2", "apertures", "0"),
            ("montecarlo", "vr_window", "0"),
            ("montecarlo", "vt_window", "0"),
            ("montecarlo", "vt_window", "-1"),
            ("montecarlo", "refine_tolerance", "0"),
        ],
    )
    def test_non_positive_value_names_its_key(self, command, key, value, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([command, "--set", f"{key}={value}", "--out", str(out)]) == 1
        assert f"{key} must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [
            # Half of 1e-16 vanishes next to the default radial velocity of 3 m/s.
            ("vr_window", "1e-16", "rounds to an empty span around 3.0 m/s"),
            ("vt_window", "1e-300", "rounds to an empty span around"),
            # The trials square each transverse error.
            ("vt_window", "1e300", "squares past the float range"),
        ],
    )
    def test_unusable_search_window_names_its_key(self, key, value, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = ["montecarlo", "--trials", "100", "--set", f"{key}={value}", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"nfvel: invalid configuration: {key} {float(value)!r} {message}")
        assert not out.exists()

    def test_crlb_seed_flag_is_an_error(self, capsys):
        assert main(["crlb", "--seed", "5"]) == 1
        assert "crlb does not take the key 'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("variable", "start", "stop", "message"),
        [
            ("distance", "0", "1", "start must be positive, got 0.0"),
            ("distance", "-2", "1", "start must be positive, got -2.0"),
            ("carrier", "0", "6e9", "start must be positive, got 0.0"),
            ("aperture", "0", "1", "start must be positive, got 0.0"),
            ("angle", "-100", "0", "start must lie in [-90, 90] degrees, got -100.0"),
            ("angle", "0", "90.5", "stop must lie in [-90, 90] degrees, got 90.5"),
        ],
    )
    def test_swept_range_names_start_or_stop(
        self, variable, start, stop, message, tmp_path, capsys
    ):
        out = tmp_path / "out.csv"
        argv = ["sweep", "--var", variable, "--min", start, "--max", stop, "--points", "3"]
        assert main([*argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("angles", ["120", "0,-90.5"])
    def test_fig2_angles_are_checked_in_degrees(self, angles, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["fig2", "--set", f"angles={angles}", "--out", str(out)]) == 1
        assert "angles must lie in [-90, 90] degrees" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("angle", ["120", "-90.5", "90.000001"])
    @pytest.mark.parametrize("command", ["crlb", "montecarlo", "fig4"])
    def test_scenario_angle_is_checked_in_degrees(self, command, angle, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([command, "--set", f"angle={angle}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"angle must lie in [-90, 90] degrees, got {float(angle)!r}" in err
        assert "pi" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("command", "settings", "message"),
        [
            ("fig1", ["d_min=10", "d_max=1"], "d_max must exceed d_min, got 10.0 and 1.0"),
            ("fig2", ["d_min=5", "d_max=5"], "d_max must exceed d_min, got 5.0 and 5.0"),
            ("fig3", ["d_min=2", "d_max=0.5"], "d_max must exceed d_min, got 2.0 and 0.5"),
            # d_max defaults to 100 apertures (about 214 m for fig1's largest).
            ("fig1", ["d_min=1000"], "d_max must exceed d_min, got 1000.0 and "),
            ("fig4", ["x_min=1", "x_max=0"], "x_max must exceed x_min, got 1.0 and 0.0"),
            ("fig4", ["y_min=50", "y_max=10"], "y_max must exceed y_min, got 50.0 and 10.0"),
            ("fig4", ["x_min=3", "x_max=3"], "x_max must exceed x_min, got 3.0 and 3.0"),
        ],
    )
    def test_reversed_grid_names_its_keys(self, command, settings, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = [command, *(arg for setting in settings for arg in ("--set", setting))]
        assert main([*argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
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
    def test_overflowing_or_nan_value_names_its_key(self, setting, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        words = re.split(r" (?=\w+=)", setting)
        command = words.pop(0) if words[0] in _commands() else "montecarlo"
        settings = [arg for key in words for arg in ("--set", key)]
        trials = ["--trials", "100"] if command == "montecarlo" else []
        assert main([command, *trials, *settings, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"nfvel: invalid configuration: {message}")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_snr_list_entry_just_above_the_noise_floor_runs(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        # The trials run in units of the noise, so the transmit power moves no floor.
        for snr_list, settings in (("-3070", []), ("-100", ["--set", "tx_power=1e300"])):
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

    def test_coarse_grid_names_grid_points(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["montecarlo", "--set", "grid_points=1", "--out", str(out)]) == 1
        assert "grid_points must be >= 3" in capsys.readouterr().err
        assert not out.exists()

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
        # The SNRs are given, so the transmit power only sets the samples' absolute scale.
        def data_rows(*settings):
            out = tmp_path / "mc.csv"
            args = ["montecarlo", "--trials", "100", "--snr-list=-20,10", "--out", str(out)]
            assert main([*args, *settings]) == 0, capsys.readouterr().err
            # The header echoes tx_power.
            return [line for line in out.read_text().splitlines() if not line.startswith("#")]

        default = data_rows()
        for tx_power in ("1e-200", "1e146", "1e300"):
            assert data_rows("--set", f"tx_power={tx_power}") == default, tx_power

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


def test_readme_sweep_config_file_runs(tmp_path, capsys):
    cfg = tmp_path / "distance.cfg"
    cfg.write_text(README.read_text(encoding="utf-8").split("```ini", 1)[1].split("```", 1)[0])
    out = tmp_path / "distance.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    flags = tmp_path / "flags.csv"
    argv = ["--var", "distance", "--min", "0.05", "--max", "100", "--points", "200", "--log"]
    assert main(["sweep", *argv, "--out", str(flags)]) == 0
    assert out.read_bytes() == flags.read_bytes()
