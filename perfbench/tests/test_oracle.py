"""Each workload's oracle accepts the CLI's output and rejects a corrupted copy."""

import pytest

import nfvel.cli
from workloads import DEFAULT_SEED, WORKLOADS


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The CLI's output for each workload at the default seed, made once."""
    cache = {}

    def output(name: str) -> str:
        if name not in cache:
            out = tmp_path_factory.mktemp(name) / "out.csv"
            assert nfvel.cli.main([*WORKLOADS[name].argv(DEFAULT_SEED), "--out", str(out)]) == 0
            cache[name] = out.read_text(encoding="utf-8")
        return cache[name]

    return output


def _edit_column(text: str, column: str, edit) -> str:
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    index = lines[header].split(",").index(column)
    for i in range(header + 1, len(lines)):
        cells = lines[i].split(",")
        cells[index] = edit(float(cells[index]))
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _nudge(value: float) -> str:
    return f"{value * (1.0 + 1e-7):.12e}"


@pytest.mark.parametrize(
    ("name", "column", "edit"),
    [
        ("bounds-map", "root_crlb_vt", _nudge),
        ("bounds-map", "snr_db", _nudge),
        ("bounds-map", "root_crlb_vt", lambda value: "inf"),
        ("bounds-xl", "root_jtt_inv", _nudge),
        ("bounds-xl", "angle_deg", lambda value: f"{value + 1.0:.12e}"),
        ("montecarlo", "crlb_vt", _nudge),
        ("montecarlo", "ratio_vr", lambda value: f"{3.0 * value:.12e}"),
    ],
)
def test_oracle_rejects_corruption(outputs, name, column, edit):
    text = outputs(name)
    assert WORKLOADS[name].check(text, DEFAULT_SEED) == []
    assert WORKLOADS[name].check(_edit_column(text, column, edit), DEFAULT_SEED) != []

