"""Shared builders for the test suite."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from nfvel import ArrayGeometry, TargetState, WaveformConfig


@pytest.fixture
def default_waveform():
    """Reference burst: 28 GHz, single subcarrier, 14 symbols of 16.6 ms."""
    return WaveformConfig(
        carrier=28e9,
        num_subcarriers=1,
        subcarrier_spacing=120e3,
        num_symbols=14,
        symbol_time=16.6e-3,
    )


@pytest.fixture
def default_geometry():
    """101 elements at half-wavelength spacing for the 28 GHz carrier."""
    return ArrayGeometry.half_wavelength(101, 28e9)


@pytest.fixture
def boresight_target():
    return TargetState(distance=10.0, angle=0.0, radial_velocity=3.0, transverse_velocity=1.0)


def make_waveform(**overrides) -> WaveformConfig:
    params = dict(
        carrier=28e9,
        num_subcarriers=1,
        subcarrier_spacing=120e3,
        num_symbols=14,
        symbol_time=16.6e-3,
    )
    params.update(overrides)
    return WaveformConfig(**params)


def cartesian_los_speeds(target: TargetState, geometry: ArrayGeometry) -> list[float]:
    """Oracle: the target velocity projected onto each target-to-element unit vector.

    Built from Cartesian positions alone, independent of the projection
    coefficients, so ``q_k*v_r + p_k*v_t`` must equal entry ``k``.
    """
    sin_t, cos_t = math.sin(target.angle), math.cos(target.angle)
    tx, ty = target.distance * sin_t, target.distance * cos_t
    v_r, v_t = target.radial_velocity, target.transverse_velocity
    vx = -v_r * sin_t + v_t * cos_t
    vy = -v_r * cos_t - v_t * sin_t
    speeds = []
    for x_k in geometry.element_x_positions:
        ex, ey = x_k - tx, -ty
        speeds.append((vx * ex + vy * ey) / math.hypot(ex, ey))
    return speeds


def array_line_rows(geometry: ArrayGeometry):
    """(distance, angle) rows on the array line within a few ulps of an element.

    The nearest element distance there is a few ulps or a few 1e-8 of the
    distance, where a radicand ``1 + r**2 - 2*r*sin`` would cancel.  The angle
    is end-fire or the nearest angles whose sines round below 1.
    """
    x = geometry.element_x_positions
    return st.tuples(
        st.sampled_from(x[x != 0.0].tolist() or [1.0]),
        st.integers(-4, 4),
        st.sampled_from([0.0, 1.5e-8, 2e-8]),
    ).map(
        lambda t: (abs(t[0]) * (1.0 + t[1] * 2.0**-52), math.copysign(math.pi / 2 - t[2], t[0]))
    )


def avx512_targets() -> list[str]:
    """numpy's AVX-512 dispatch targets that the running CPU supports, as ``NPY_DISABLE_CPU_FEATURES`` names them.

    The names come from ``__cpu_dispatch__``, because numpy refuses a name it does not know.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return []
    return [
        name
        for name in umath.__cpu_dispatch__
        if (name.startswith("AVX512") or name == "X86_V4") and umath.__cpu_features__.get(name)
    ]


def run_without_avx512(code: str) -> str:
    """Standard output of Python ``code`` run in a child process whose numpy leaves out its AVX-512 targets.

    It stands in for a host without AVX-512.  The child imports ``nfvel`` and these test
    modules from this checkout, and checks first that every target is off.  The calling
    test skips, and says why, where numpy dispatches to no AVX-512 target.
    """
    targets = avx512_targets()
    if not targets:
        pytest.skip("numpy here dispatches to no AVX-512 target (or has no numpy._core), so none can be turned off")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets), "PYTHONPATH": path}
    check = (
        "from numpy._core import _multiarray_umath as umath\n"
        f"if any(umath.__cpu_features__[name] for name in {targets!r}):\n"
        "    raise SystemExit('numpy kept an AVX-512 target on')\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", check + code], env=env, capture_output=True, text=True, timeout=300, check=False
    )
    assert child.returncode == 0, child.stderr
    return child.stdout
