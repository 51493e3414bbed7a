"""Acceptance gate: one test per release criterion, one verdict line each.

Every test prints ``criterion N (<name>): PASS/FAIL — <measurement>`` straight
to the terminal (bypassing capture) so the verdicts survive into redirected
logs, then asserts.  Tolerances are pinned here and must not be loosened to
make a failing build pass.
"""

import math
import time

import numpy as np
import pytest

from nfvel import (
    ArrayGeometry,
    MlSearchConfig,
    Scenario,
    TargetState,
    WaveformConfig,
    crlb_from_fisher,
    crossover_distance,
    fisher_info_closed_form,
    fisher_info_numeric,
    monte_carlo_mse,
    radial_crlb_far_field,
    radial_info_boresight,
    transverse_info_boresight_approx,
    transverse_info_half_wavelength,
)
from nfvel.cli import main


def _reference_waveform(carrier: float = 28e9) -> WaveformConfig:
    return WaveformConfig(
        carrier=carrier,
        num_subcarriers=1,
        subcarrier_spacing=120e3,
        num_symbols=14,
        symbol_time=16.6e-3,
    )


def _verdict(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {number} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_information_route_equivalence(capsys):
    # both Fisher information routes agree to 1e-10 relative on 500 random
    # scenarios, in under 10 seconds
    rng = np.random.default_rng(1234)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        geom = ArrayGeometry(
            num_elements=int(rng.integers(2, 12)),
            spacing=float(rng.uniform(0.002, 0.08)),
        )
        wf = WaveformConfig(
            carrier=float(rng.uniform(2e9, 40e9)),
            num_subcarriers=int(rng.integers(1, 5)),
            subcarrier_spacing=120e3,
            num_symbols=int(rng.integers(2, 9)),
            symbol_time=float(rng.uniform(1e-4, 5e-3)),
        )
        target = TargetState(
            distance=float(rng.uniform(0.5, 200.0)),
            angle=float(rng.uniform(-1.4, 1.4)),
            radial_velocity=float(rng.uniform(-30, 30)),
            transverse_velocity=float(rng.uniform(-30, 30)),
        )
        snr = float(rng.uniform(0.05, 500.0))
        numeric = fisher_info_numeric(target, geom, wf, snr)
        closed = fisher_info_closed_form(target, geom, wf, snr)
        scale = max(abs(closed.j_rr), abs(closed.j_tt), abs(closed.j_rt))
        dev = max(
            abs(numeric.j_rr - closed.j_rr),
            abs(numeric.j_tt - closed.j_tt),
            abs(numeric.j_rt - closed.j_rt),
        ) / scale
        worst = max(worst, dev)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 10.0
    _verdict(
        capsys, 1, "information route equivalence", ok,
        f"max relative deviation {worst:.3e} over 500 scenarios in {elapsed:.2f} s "
        f"(limits 1e-10, 10 s)",
    )


def test_criterion_2_far_field_limit(capsys):
    wf = _reference_waveform()
    geom = ArrayGeometry.half_wavelength(101, 28e9)
    distance = 100.0 * geom.aperture
    inverse_info = 1.0 / radial_info_boresight(distance, geom, wf, 1.0)
    far_field = radial_crlb_far_field(wf, 101, 1.0)
    dev = abs(inverse_info / far_field - 1.0)
    ok = dev < 1e-3
    _verdict(
        capsys, 2, "far-field radial limit", ok,
        f"relative gap {dev:.3e} at d = 100 apertures (limit 1e-3)",
    )


def test_criterion_3_transverse_square_law(capsys):
    wf = _reference_waveform()
    geom = ArrayGeometry.half_wavelength(101, 28e9)
    distances = np.geomspace(10.0 * geom.aperture, 1000.0 * geom.aperture, 20)
    bounds = [
        crlb_from_fisher(
            fisher_info_closed_form(TargetState(float(d), 0.0), geom, wf, 1.0)
        ).transverse
        for d in distances
    ]
    slope = float(np.polyfit(np.log(distances), np.log(bounds), 1)[0])
    ok = abs(slope - 2.0) <= 0.02
    _verdict(
        capsys, 3, "transverse distance-squared law", ok,
        f"log-log slope {slope:.4f} over [10, 1000] apertures (target 2.00 +/- 0.02)",
    )


def test_criterion_4_carrier_independence(capsys):
    low = _reference_waveform(carrier=6e9)
    high = _reference_waveform(carrier=28e9)
    distances = (0.05, 0.5, 5.0, 50.0)
    identical = all(
        transverse_info_half_wavelength(d, 101, low, 1.0)
        == transverse_info_half_wavelength(d, 101, high, 1.0)
        for d in distances
    )
    _verdict(
        capsys, 4, "half-wavelength carrier independence", identical,
        f"bitwise equality at 6 and 28 GHz across {len(distances)} distances",
    )


def test_criterion_5_crossover_identity(capsys):
    wf = _reference_waveform()
    geom = ArrayGeometry.half_wavelength(101, 28e9)
    d = crossover_distance(geom)
    product = radial_crlb_far_field(wf, 101, 1.0) * transverse_info_boresight_approx(
        d, geom, wf, 1.0, aperture_form=True
    )
    dev = abs(product - 1.0)
    ok = dev < 1e-9
    _verdict(
        capsys, 5, "bound crossover identity", ok,
        f"|product - 1| = {dev:.3e} at d = {d:.6f} m (limit 1e-9)",
    )


def test_criterion_6_end_fire_singularity(capsys):
    wf = _reference_waveform()
    geom = ArrayGeometry.half_wavelength(101, 28e9)
    ok = True
    detail = []
    for angle in (math.pi / 2, -math.pi / 2):
        info = fisher_info_closed_form(TargetState(10.0, angle), geom, wf, 1.0)
        crlb = crlb_from_fisher(info)
        ok = ok and info.j_tt == 0.0 and info.j_rt == 0.0
        ok = ok and crlb.singular and math.isinf(crlb.transverse)
        ok = ok and math.isfinite(crlb.radial) and crlb.radial > 0.0
        detail.append(f"j_tt={info.j_tt!r} radial={crlb.radial:.3e}")
    _verdict(
        capsys, 6, "end-fire transverse singularity", ok,
        f"+90deg: {detail[0]}; -90deg: {detail[1]}",
    )


def test_criterion_7_diagonal_approximation_regime(capsys):
    wf = _reference_waveform()
    geom = ArrayGeometry.half_wavelength(101, 28e9)
    target = TargetState(distance=10.0, angle=45.0 / 180.0 * math.pi)
    info = fisher_info_closed_form(target, geom, wf, 1.0)
    exact = crlb_from_fisher(info).radial
    dev = abs(exact * info.j_rr - 1.0)
    ok = dev < 1e-3
    _verdict(
        capsys, 7, "diagonal-dominance approximation", ok,
        f"|crlb_vr * j_rr - 1| = {dev:.3e} at 10 m, 45 deg (limit 1e-3)",
    )


def test_criterion_8_monte_carlo_tightness(capsys):
    carrier = 28e9
    geom = ArrayGeometry.half_wavelength(21, carrier)
    wf = _reference_waveform(carrier)
    target = TargetState(
        distance=5.0 * geom.aperture,
        angle=0.0,
        radial_velocity=3.0,
        transverse_velocity=1.0,
    )
    snr = 100.0  # 20 dB
    scenario = Scenario(
        target=target,
        geometry=geom,
        waveform=wf,
        search=MlSearchConfig(
            radial_span=(target.radial_velocity - 0.1, target.radial_velocity + 0.1),
            transverse_span=(
                target.transverse_velocity - 1.0,
                target.transverse_velocity + 1.0,
            ),
            tolerance=1e-5,
        ),
    )
    started = time.perf_counter()
    report = monte_carlo_mse(scenario, snr, trials=1000, seed=0)
    elapsed = time.perf_counter() - started
    ok = (
        0.8 <= report.ratio_radial <= 1.5
        and 0.8 <= report.ratio_transverse <= 1.5
        and report.degenerate_trials == 0
        and elapsed < 300.0
    )
    _verdict(
        capsys, 8, "Monte Carlo bound tightness", ok,
        f"MSE/CRLB radial {report.ratio_radial:.3f}, transverse "
        f"{report.ratio_transverse:.3f} over 1000 trials in {elapsed:.1f} s "
        f"(window [0.8, 1.5], limit 300 s)",
    )


def test_criterion_9_cli_determinism(capsys, tmp_path):
    runs = {
        "montecarlo": [
            "montecarlo",
            "--set", "carrier=6 GHz",
            "--set", "num_elements=9",
            "--set", "spacing=0.02",
            "--set", "num_symbols=8",
            "--set", "symbol_time=0.2 ms",
            "--set", "distance=0.8",
            "--set", "radial_velocity=2",
            "--set", "transverse_velocity=-3",
            "--set", "vr_window=2",
            "--set", "vt_window=6",
            "--trials", "100",
            "--snr-list", "15,20",
            "--seed", "3",
        ],
        "fig3": ["fig3", "--set", "points=50", "--seed", "3"],
    }
    ok = True
    details = []
    for name, args in runs.items():
        first = tmp_path / f"{name}_a.csv"
        second = tmp_path / f"{name}_b.csv"
        code_a = main([*args, "--out", str(first)])
        code_b = main([*args, "--out", str(second)])
        same = first.read_bytes() == second.read_bytes()
        ok = ok and code_a == 0 and code_b == 0 and same
        details.append(f"{name}: exit {code_a}/{code_b}, bytes {'equal' if same else 'DIFFER'}")
    _verdict(capsys, 9, "deterministic command-line output", ok, "; ".join(details))
