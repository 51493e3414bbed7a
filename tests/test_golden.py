"""Golden outputs: reduced-size CLI runs compared byte for byte with committed files.

Criterion 9 compares a run with a rerun of the same build; these files pin
the numbers across versions.  A golden file may change only together with a
CHANGES.md entry giving the largest relative change per column.

Regenerate every file from the current build with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from nfvel.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# File name -> CLI arguments.  ``.csv`` cases write a table; ``.txt`` cases
# capture stdout.
CASES = {
    "fig1.csv": ["fig1", "--set", "points=12"],
    "fig2.csv": ["fig2", "--set", "points=12"],
    # Even K puts the elements on half-integer indices; +/-90 degrees is end-fire.
    "fig2_even_endfire.csv": [
        "fig2",
        "--set", "num_elements=8",
        "--set", "angles=-90,-30,0,90",
        "--set", "points=11",
    ],
    # K > 2**14: every kernel chunk holds a single row.
    "fig2_large_k.csv": [
        "fig2",
        "--set", "num_elements=16385",
        "--set", "angles=12.5,63",
        "--set", "points=6",
    ],
    "fig3.csv": ["fig3", "--set", "points=12"],
    # 41 x 26 = 1066 points at K=101: several kernel chunks.
    "fig4.csv": ["fig4", "--set", "x_points=41", "--set", "y_points=26"],
    # The first y row lies on the array line and crosses the array centre
    # and every element: distance-zero, coincident and end-fire rows.
    "fig4_array_line.csv": [
        "fig4",
        "--set", "num_elements=5",
        "--set", "spacing=0.25",
        "--set", "x_min=-1", "--set", "x_max=1", "--set", "x_points=9",
        "--set", "y_min=-1", "--set", "y_max=3", "--set", "y_points=4",
    ],
    # Several subcarriers with a different SNR on every row.
    "fig4_multicarrier.csv": [
        "fig4",
        "--set", "num_subcarriers=12",
        "--set", "x_points=21", "--set", "y_points=10",
    ],
    "sweep_distance.csv": [
        "sweep", "--var", "distance", "--min", "0.05", "--max", "500", "--points", "15", "--log",
    ],
    "sweep_angle.csv": ["sweep", "--var", "angle", "--min", "-90", "--max", "90", "--points", "13"],
    "sweep_carrier.csv": [
        "sweep", "--var", "carrier", "--min", "6e9", "--max", "60e9", "--points", "10",
    ],
    "sweep_aperture.csv": [
        "sweep", "--var", "aperture", "--min", "0.1", "--max", "5", "--points", "10",
    ],
    "montecarlo.csv": ["montecarlo", "--trials", "100", "--snr-list", "0,10", "--seed", "3"],
    # Odd M and K, two subcarriers, off boresight, three SNRs from the
    # threshold region to the asymptotic one.
    "montecarlo_offboresight.csv": [
        "montecarlo", "--trials", "100", "--snr-list=-30,0,20", "--seed", "5",
        "--set", "num_symbols=15",
        "--set", "num_subcarriers=2",
        "--set", "num_elements=31",
        "--set", "angle=40",
    ],
    # End-fire: the transverse axis is never identified, so its cells read none.
    "montecarlo_endfire.csv": [
        "montecarlo", "--trials", "100", "--snr-list=-10,20", "--seed", "2", "--set", "angle=90",
    ],
    "crlb_boresight.txt": ["crlb"],
    "crlb_endfire.txt": ["crlb", "--set", "angle=90"],
}


def render(name: str, workdir: Path) -> bytes:
    """Run the case ``name`` and return the bytes it produces."""
    argv = CASES[name]
    if name.endswith(".txt"):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        assert code == 0
        return buffer.getvalue().encode("utf-8")
    out = workdir / name
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    assert code == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden_file(name, tmp_path):
    expected = (GOLDEN_DIR / name).read_bytes()
    assert render(name, tmp_path) == expected, f"{name} differs from tests/golden/{name}"


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN_DIR / case).write_bytes(render(case, Path(tmp)))
            print(f"wrote tests/golden/{case}", file=sys.stderr)
