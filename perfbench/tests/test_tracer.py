"""Self-tests of the benchmark's tracer and of the metric names it emits."""

import json
import sys
from pathlib import Path

import pytest

import nfvel
import nfvel.cli
import run
import tracer
from tracer import Span, Tracer, install_nfvel, layer_metrics, self_times
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_self_time_is_span_minus_union_of_children():
    spans = {
        0: Span("root", 0.0, 10.0, -1),
        1: Span("a", 1.0, 3.0, 0),
        2: Span("b", 2.0, 5.0, 0),  # overlaps its sibling, as a span on another thread can
        3: Span("c", 9.0, 12.0, 0),  # ends after its parent: only 9..10 is covered
        4: Span("d", 1.5, 2.5, 1),  # a grandchild counts against its own parent only
    }
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert got[1] == pytest.approx(2.0 - 1.0)
    assert got[2] == pytest.approx(3.0)
    assert got[3] == pytest.approx(3.0)
    assert got[4] == pytest.approx(1.0)


def test_nested_self_times_add_up_to_the_root_span():
    t = Tracer()
    inner = t.wrap("inner", lambda: sum(range(20000)))
    outer = t.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    summary = t.summary()
    (root,) = [span for span in t.spans.values() if span.parent == -1]
    assert summary["inner"]["calls"] == 3
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["span_s"] - summary["inner"]["span_s"], rel=1e-9
    )
    total_self = sum(entry["self_s"] for entry in summary.values())
    assert total_self == pytest.approx(root.end - root.start, rel=1e-9)


def _nfvel_bindings() -> dict:
    bindings = {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name == "nfvel" or name.startswith("nfvel.")
        for key, value in vars(module).items()
    }
    bindings.update(
        (("CsvTable", key), value) for key, value in vars(nfvel.experiments.CsvTable).items()
    )
    return bindings


def test_wrappers_reach_every_importer_and_are_restored():
    before = _nfvel_bindings()
    t = Tracer()
    install_nfvel(t)
    try:
        assert nfvel.cli.run_planar_map is not before[("nfvel.experiments", "run_planar_map")]
        assert nfvel.experiments.fisher_info_closed_form is not before[
            ("nfvel.bounds", "fisher_info_closed_form")
        ]
        assert nfvel.estimator.add_noise is not before[("nfvel.waveform", "add_noise")]
        assert nfvel.add_noise is not before[("nfvel.waveform", "add_noise")]
        assert vars(nfvel.experiments.CsvTable)["render"] is not before[("CsvTable", "render")]
    finally:
        t.restore()
    after = _nfvel_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["fig4", "--set", "x_points=5", "--set", "y_points=4"],
        ["montecarlo", "--trials", "100", "--snr-list=10", "--set", "num_elements=11"],
    ],
)
def test_traced_job_emits_every_layer_metric(tmp_path, argv):
    t = Tracer()
    install_nfvel(t)
    try:
        code = nfvel.cli.main([*argv, "--out", str(tmp_path / "out.csv")])
    finally:
        t.restore()
    assert code == 0
    metrics = layer_metrics(t.summary(), t.counts)
    assert list(metrics) == list(tracer.LAYER_METRIC_UNITS)
    assert metrics["experiments.rows"] > 0
    assert metrics["cli.self_s"] > 0.0
    assert metrics["geometry.element_distances.calls"] > 0


def test_run_emits_every_per_layer_metric():
    layers = dict.fromkeys(tracer.LAYER_METRIC_UNITS, 1.0)
    nominal = 2.0 * run.reference.NOMINAL_S[WORKLOADS["montecarlo"].gauge]
    plain = {
        "mode": "plain",
        "wall_s": 2.0 + nominal,
        "report": {"import_s": 0.2, "main_s": 1.5, "gauge_s": nominal, "script_s": 1.9 + nominal},
    }
    traced = {
        "mode": "trace",
        "wall_s": 2.6 + nominal,
        # A machine running at half speed: every time doubles, the gauge too.
        "report": {
            "import_s": 0.4,
            "main_s": 3.6,
            "gauge_s": 2.0 * nominal,
            "post_s": 0.3,
            "self_sum_s": 3.6,
            "layers": layers,
        },
    }
    traced["wall_s"] = 2.0 * 2.3 + 2.0 * nominal + 0.3
    traced["report"]["script_s"] = traced["wall_s"] - 0.1
    metrics = run.per_layer([plain, traced], WORKLOADS["montecarlo"], 1, tracer.PER_LAYER_UNITS)
    assert metrics.keys() == tracer.PER_LAYER_UNITS.keys()
    assert metrics["trace.overhead_frac"] == pytest.approx(0.15)
    assert metrics["cli.self_s"] == pytest.approx(0.5)
    assert metrics["experiments.rows"] == 1.0
    assert metrics["estimator.coarse_only_ms"] > 0.0


def test_benchmark_json_matches_the_emitted_metrics():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.PER_LAYER_UNITS
