"""Command-line front end for the bounds toolkit.

Each subcommand (``crlb``, ``sweep``, ``fig1``-``fig4``, ``montecarlo``) runs
one runner of :mod:`nfvel.experiments`; ``_commands`` holds the table.
Configuration comes from an optional ``key = value`` file (``--config``),
overridden by repeatable ``--set key=value`` flags and the dedicated flags
(``--seed``, ``montecarlo``'s ``--trials``/``--snr-list``, ``sweep``'s
``--var``/``--min``/``--max``/``--points``/``--log``), which set keys of their
own, and ``--out``.  Scenario keys apply to every subcommand; any other key
must be a parameter of its runner.
Frequencies accept ``GHz``, ``MHz``, ``kHz`` and ``Hz`` suffixes; powers
accept ``dBm`` or watts; ratio quantities (snr, gains, noise figure) accept
``dB``/``dBi`` or a bare linear value; durations accept ``s``, ``ms``, ``us``.  Angles are always degrees on
the way in and out.  Exit codes: 0 success, 1 invalid configuration, 2 I/O
failure.
"""

from __future__ import annotations

import argparse
import inspect
import math
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

from .experiments import (
    ScenarioConfig,
    format_cell,
    run_carrier_comparison,
    run_montecarlo,
    run_planar_map,
    run_radial_vs_distance,
    run_single,
    run_sweep,
    run_transverse_vs_distance,
)
from .geometry import _check_angles, _require_count
from .waveform import _float_power

__all__ = ["ConfigError", "main"]


class ConfigError(ValueError):
    """A configuration key, value or combination the toolkit cannot accept."""


_NUMBER_WITH_UNIT = re.compile(r"^\s*([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*([a-zA-Z]*)\s*$")

# Unit suffixes per kind, in lower case: unit -> (scale, decibel).  A value x
# with a decibel unit reads 10**(x/10) * scale, any other x * scale.
_UNITS = {
    "frequency": {
        "": (1.0, False), "hz": (1.0, False), "khz": (1e3, False), "mhz": (1e6, False), "ghz": (1e9, False)
    },
    "time": {"": (1.0, False), "s": (1.0, False), "ms": (1e-3, False), "us": (1e-6, False)},
    "power": {"": (1.0, False), "w": (1.0, False), "mw": (1e-3, False), "dbm": (1e-3, True)},
    "ratio": {"": (1.0, False), "db": (1.0, True), "dbi": (1.0, True)},
}


def _unit_parser(kind: str) -> Callable[[str, str], float]:
    """Parser of a number with an optional ``kind`` unit suffix, in base SI units or linear."""
    units = _UNITS[kind]

    def parse(text: str, key: str) -> float:
        match = _NUMBER_WITH_UNIT.match(text)
        if not match:
            raise ConfigError(f"{key}: cannot parse {text!r} as a number")
        value, unit = float(match.group(1)), match.group(2).lower()
        if unit not in units:
            raise ConfigError(f"{key}: unknown {kind} unit {unit!r}")
        scale, decibel = units[unit]
        return (_float_power(10.0, value / 10.0) if decibel else value) * scale

    return parse


_parse_frequency, _parse_time, _parse_power, _parse_ratio = map(_unit_parser, ("frequency", "time", "power", "ratio"))


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {text!r} as a number") from exc


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {text!r} as an integer") from exc


def _parse_bool(text: str, key: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ConfigError(f"{key}: expected true or false, got {text!r}")
    return text.lower() == "true"


def _parse_degrees(text: str, key: str) -> float:
    degrees = _parse_float(text, key)
    if math.isfinite(degrees):  # a non-finite value is left to the finite check of _parse_settings
        _check_angles(**{key: degrees})
    # deg/180*pi so that 90 degrees maps to the exact float pi/2.
    return degrees / 180.0 * math.pi


def _parse_list(text: str, key: str, item: Callable[[str, str], float]) -> list[float]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ConfigError(f"{key}: empty list")
    return [item(part, key) for part in parts]


# Scenario keys feed ScenarioConfig; experiment keys are arguments of the
# subcommand's runner (see _dispatch).
_SCENARIO_KEYS: dict[str, Callable[[str, str], object]] = {
    "carrier": _parse_frequency,
    "num_elements": _parse_int,
    "spacing": _parse_float,
    "aperture": _parse_float,
    "num_subcarriers": _parse_int,
    "subcarrier_spacing": _parse_frequency,
    "num_symbols": _parse_int,
    "symbol_time": _parse_time,
    "snr": _parse_ratio,
    "distance": _parse_float,
    "angle": _parse_degrees,
    "radial_velocity": _parse_float,
    "transverse_velocity": _parse_float,
    "tx_power": _parse_power,
    "noise_figure": _parse_ratio,
    "radar_cross_section": _parse_float,
    "tx_gain": _parse_ratio,
    "rx_gain": _parse_ratio,
    "temperature": _parse_float,
}

_EXPERIMENT_KEYS: dict[str, Callable[[str, str], object]] = {
    "apertures": lambda text, key: _parse_list(text, key, _parse_float),
    "angles": lambda text, key: _parse_list(text, key, _parse_float),
    "carriers": lambda text, key: _parse_list(text, key, _parse_frequency),
    "d_min": _parse_float,
    "d_max": _parse_float,
    "points": _parse_int,
    "x_min": _parse_float,
    "x_max": _parse_float,
    "x_points": _parse_int,
    "y_min": _parse_float,
    "y_max": _parse_float,
    "y_points": _parse_int,
    "snr_list": lambda text, key: _parse_list(text, key, _parse_float),
    "trials": _parse_int,
    "vr_window": _parse_float,
    "vt_window": _parse_float,
    "grid_points": _parse_int,
    "refine_tolerance": _parse_float,
    "seed": _parse_int,
    "variable": lambda text, key: text,
    "start": _parse_float,
    "stop": _parse_float,
    "log": _parse_bool,
}

# Keys that size the run's arrays: every integer key but the seed.
_COUNT_KEYS = {
    key for key, parse in {**_SCENARIO_KEYS, **_EXPERIMENT_KEYS}.items() if parse is _parse_int and key != "seed"
}

# Dedicated flags, each stored under the key it sets; they win over the file
# and over --set.
_FLAG_KEYS = ("seed", "trials", "snr_list", "variable", "start", "stop", "points", "log")


def _normalize_key(key: str) -> str:
    return key.strip().lower().replace("-", "_")


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a ``key = value`` file; later duplicates win, ``#`` comments allowed."""
    raw: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = stripped.split("=", 1)
        raw[_normalize_key(key)] = value.strip()
    return raw


def _parse_settings(raw: dict[str, str]) -> tuple[dict, dict]:
    scenario: dict = {}
    experiment: dict = {}
    for key, text in raw.items():
        settings = scenario if key in _SCENARIO_KEYS else experiment
        parse = _SCENARIO_KEYS.get(key) or _EXPERIMENT_KEYS.get(key)
        if parse is None:
            raise ConfigError(f"unknown configuration key {key!r}")
        value = parse(text, key)
        values = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ConfigError(f"{key}: expected a finite number, got {text!r}")
        settings[key] = value
    return scenario, experiment


def _collect_raw(args: argparse.Namespace) -> dict[str, str]:
    raw: dict[str, str] = {}
    if args.config:
        raw.update(read_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[_normalize_key(key)] = value.strip()
    for key in _FLAG_KEYS:
        if getattr(args, key, None) is not None:
            raw[key] = str(getattr(args, key))
    return raw


def _commands() -> dict[str, tuple[str, Callable, str | None]]:
    """Subcommand -> (help text, runner, default output file or None for stdout).

    The file name is formatted with the runner's keyword arguments.  Built
    per call, so a wrapper rebound on a runner's name here is honoured.
    """
    return {
        "crlb": ("bounds for a single scenario", run_single, None),
        "sweep": ("sweep one variable to CSV", run_sweep, "sweep_{variable}.csv"),
        "fig1": (
            "radial bound vs distance per aperture",
            run_radial_vs_distance,
            "fig1_radial_vs_distance.csv",
        ),
        "fig2": (
            "transverse bound vs distance per angle and aperture",
            run_transverse_vs_distance,
            "fig2_transverse_vs_distance.csv",
        ),
        "fig3": (
            "carrier comparison with half-wavelength arrays",
            run_carrier_comparison,
            "fig3_carrier_comparison.csv",
        ),
        "fig4": ("planar map of the transverse bound", run_planar_map, "fig4_planar_map.csv"),
        "montecarlo": ("estimator MSE vs the bounds", run_montecarlo, "montecarlo.csv"),
    }


class _Parser(argparse.ArgumentParser):
    # The contract reserves exit code 2 for I/O failures, so usage errors
    # (invalid configuration) exit 1 instead of argparse's default 2.
    def error(self, message: str):  # noqa: D102
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")
    common.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )
    common.add_argument("--seed", help="base RNG seed")
    common.add_argument("--out", default=None, help="output CSV path")

    parser = _Parser(prog="nfvel", description="velocity estimation bounds toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        name: sub.add_parser(name, parents=[common], help=text)
        for name, (text, _, _) in _commands().items()
    }

    sweep = commands["sweep"]
    sweep.add_argument(
        "--var",
        dest="variable",
        help="swept variable: distance, angle (degrees), carrier or aperture",
    )
    sweep.add_argument("--min", dest="start", help="first grid value")
    sweep.add_argument("--max", dest="stop", help="last grid value")
    sweep.add_argument("--points", help="number of grid values")
    sweep.add_argument("--log", action="store_const", const="true", help="log-spaced grid")

    mc = commands["montecarlo"]
    mc.add_argument("--trials", help="Monte Carlo trials per SNR")
    mc.add_argument("--snr-list", help="comma-separated SNRs in dB")

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    scenario_kwargs, experiment = _parse_settings(_collect_raw(args))
    scenario = ScenarioConfig(**scenario_kwargs)

    seed = experiment.get("seed", 0)
    _require_count(0, None, seed=seed)

    _, runner, default_name = _commands()[args.command]
    # The runner's parameters are the experiment keys the subcommand takes.
    # Every file header records the seed, so every subcommand that writes a
    # file accepts it; crlb prints no header and would drop it.
    parameters = inspect.signature(runner).parameters
    kwargs = {}
    for key, value in experiment.items():
        if key in parameters:
            kwargs[key] = value
        elif key != "seed" or default_name is None:
            raise ConfigError(f"{args.command} does not take the key {key!r}")
    for name in list(parameters)[1:]:
        if parameters[name].default is inspect.Parameter.empty and name not in kwargs:
            raise ConfigError(f"{args.command} needs the key {name!r}")

    try:
        if default_name is None:
            for key, value in runner(scenario, **kwargs).items():
                print(f"{key} = {format_cell(value)}")
            return 0
        table = runner(scenario, **kwargs)
        # Every emitted file records the seed alongside the resolved scenario so
        # a rerun from the header alone reproduces it byte for byte.
        path = replace(table, meta={**table.meta, "seed": seed}).write(
            args.out or default_name.format(**kwargs)
        )
    except MemoryError as exc:  # name the counts in effect, largest first
        counts = {key: getattr(scenario, key) for key in _SCENARIO_KEYS if key in _COUNT_KEYS}
        counts.update((key, kwargs.get(key, parameters[key].default)) for key in parameters if key in _COUNT_KEYS)
        named = ", ".join(f"{key}={value}" for key, value in sorted(counts.items(), key=lambda item: -item[1]))
        raise MemoryError(f"out of memory with {named}: {exc}") from exc
    print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return _dispatch(args)
    except ValueError as exc:  # ConfigError included
        print(f"nfvel: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except OverflowError:  # Python float arithmetic past the float range
        print("nfvel: invalid configuration: a value overflows the float range", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a count the machine cannot hold
        print(f"nfvel: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"nfvel: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
