"""Span tracer that times calls into each nfvel layer from outside the package.

``Tracer.patch_function`` replaces a function's name in every loaded ``nfvel`` module
that holds it (the defining module and each module that imported it by name)
with a timing wrapper; ``Tracer.restore`` puts every original back.  Nothing
inside the package changes.

Each call records a span: name, start, end and the enclosing span on the same
thread.  Spans stay in memory; ``self_times`` derives each span's self time as
its duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

# Span name -> (defining module, public functions timed under that name).
LAYER_FUNCTIONS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cli": ("nfvel.cli", ("main",)),
    "experiments.runner": (
        "nfvel.experiments",
        (
            "run_single",
            "run_radial_vs_distance",
            "run_transverse_vs_distance",
            "run_carrier_comparison",
            "run_planar_map",
            "run_montecarlo",
            "run_sweep",
        ),
    ),
    "bounds.fisher": ("nfvel.bounds", ("fisher_info_closed_form", "fisher_info_numeric")),
    "bounds.crlb": ("nfvel.bounds", ("crlb_from_fisher",)),
    "bounds.closed_forms": (
        "nfvel.bounds",
        (
            "radial_crlb_far_field",
            "radial_info_boresight",
            "transverse_info_boresight",
            "transverse_info_boresight_approx",
            "transverse_info_half_wavelength",
            "crossover_distance",
        ),
    ),
    "geometry.projection": (
        "nfvel.geometry",
        (
            "radial_projection_coeffs",
            "transverse_projection_coeffs",
            "radial_projection_coeff",
            "transverse_projection_coeff",
        ),
    ),
    "geometry.element_distances": (
        "nfvel.geometry",
        ("element_distances", "distance_to_element"),
    ),
    "waveform.link_budget": ("nfvel.waveform", ("snr_from_link_budget",)),
    "waveform.synthesize": ("nfvel.waveform", ("synthesize_noise_free",)),
    "waveform.add_noise": ("nfvel.waveform", ("add_noise",)),
    "estimator.mc": ("nfvel.estimator", ("monte_carlo_mse",)),
}

# Span name -> CsvTable methods timed under that name.  ``write`` calls
# ``render``, so the self times of the two add up to the whole file output.
LAYER_METHODS = {"experiments.render": ("nfvel.experiments", "CsvTable", ("render", "write"))}

# Per-layer metrics derived from one traced job, with their units.
LAYER_METRIC_UNITS = {
    "cli.self_s": "s",
    "experiments.runner.self_s": "s",
    "experiments.render_s": "s",
    "experiments.csv_bytes": "B",
    "experiments.rows": "count",
    "bounds.fisher.calls": "count",
    "bounds.fisher.self_s": "s",
    "bounds.crlb.calls": "count",
    "bounds.crlb.self_s": "s",
    "bounds.closed_forms.calls": "count",
    "bounds.closed_forms.self_s": "s",
    "bounds.singular_rows": "count",
    "geometry.projection.calls": "count",
    "geometry.projection.self_s": "s",
    "geometry.element_distances.calls": "count",
    "geometry.element_distances.self_s": "s",
    "geometry.element_evals": "count",
    "geometry.useful_ratio": "ratio",
    "waveform.link_budget.calls": "count",
    "waveform.link_budget.self_s": "s",
    "waveform.synthesize.self_s": "s",
    "waveform.add_noise.calls": "count",
    "waveform.add_noise.self_s": "s",
    "estimator.mc.self_s": "s",
    "estimator.self_ms_per_trial": "ms",
    "estimator.trials": "count",
    "estimator.degenerate_trials": "count",
}

# Every per-layer metric of a traced run: the above, plus the estimator probe
# and the tracing overhead, which the benchmark measures outside the jobs.
PER_LAYER_UNITS = {
    **LAYER_METRIC_UNITS,
    "estimator.ml_estimate_ms": "ms",
    "estimator.coarse_only_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # id of the enclosing span on the same thread, -1 for a root


class Tracer:
    """In-memory spans and counters for wrapped calls."""

    def __init__(self) -> None:
        self.spans: dict[int, Span] = {}
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped to record a span named ``name`` per call.

        ``on_result(counts, args, kwargs, result)`` runs after a call that
        returned, to add work counts measured at this boundary.
        """
        spans = self.spans
        local = self._local
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[span_id] = Span(name, start, end, parent)
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return traced

    def patch_function(
        self, module: str, attr: str, name: str, on_result: Callable | None = None
    ) -> None:
        """Trace ``module.attr`` under every name a loaded nfvel module binds it to."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.wrap(name, original, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nfvel" or mod_name.startswith("nfvel.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(
        self, owner: type, attr: str, name: str, on_result: Callable | None = None
    ) -> None:
        """Trace a method defined on the class ``owner``."""
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def restore(self) -> None:
        """Put back every original that ``patch_*`` replaced, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total self time and total span time, by span name."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "span_s": 0.0}
        )
        for span_id, self_s in self_times(self.spans).items():
            span = self.spans[span_id]
            entry = out[span.name]
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["span_s"] += span.end - span.start
        return dict(out)


def self_times(spans: dict[int, Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals within it."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans.values():
        if span.parent >= 0:
            children[span.parent].append(span)
    out = {}
    for span_id, span in spans.items():
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span_id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span_id] = (span.end - span.start) - covered
    return out


def _count_rows(counts, args, kwargs, result) -> None:
    rows = getattr(result, "rows", None)
    if rows is not None:
        counts["rows"] += len(rows)


def _count_bytes(counts, args, kwargs, result) -> None:
    if isinstance(result, str):
        counts["csv_bytes"] += len(result.encode("utf-8"))


def _count_singular(counts, args, kwargs, result) -> None:
    counts["singular_rows"] += bool(result.singular)


def _count_elements(counts, args, kwargs, result) -> None:
    geometry = args[1] if len(args) > 1 else kwargs["geometry"]
    counts["element_evals"] += geometry.num_elements


def _count_one_element(counts, args, kwargs, result) -> None:
    counts["element_evals"] += 1


def _count_trials(counts, args, kwargs, result) -> None:
    counts["trials"] += result.trials
    counts["degenerate_trials"] += result.degenerate_trials


_COUNTERS = {
    "render": _count_bytes,
    "crlb_from_fisher": _count_singular,
    "element_distances": _count_elements,
    "distance_to_element": _count_one_element,
    "monte_carlo_mse": _count_trials,
}


def install_nfvel(tracer: Tracer) -> None:
    """Wrap every layer function and method named in ``LAYER_FUNCTIONS``/``LAYER_METHODS``."""
    for name, (module, attrs) in LAYER_FUNCTIONS.items():
        for attr in attrs:
            counter = _count_rows if name == "experiments.runner" else _COUNTERS.get(attr)
            tracer.patch_function(module, attr, name, counter)
    for name, (module, cls, attrs) in LAYER_METHODS.items():
        owner = getattr(importlib.import_module(module), cls)
        for attr in attrs:
            tracer.patch_method(owner, attr, name, _COUNTERS.get(attr))


def layer_metrics(summary: dict[str, dict[str, float]], counts: Counter) -> dict[str, float]:
    """The per-layer metrics of ``LAYER_METRIC_UNITS`` from one traced job."""

    def calls(name: str) -> int:
        return int(summary.get(name, {}).get("calls", 0))

    def self_s(name: str) -> float:
        return float(summary.get(name, {}).get("self_s", 0.0))

    trials = counts["trials"]
    distance_calls = calls("geometry.element_distances")
    metrics: dict[str, float] = {
        "cli.self_s": self_s("cli"),
        "experiments.runner.self_s": self_s("experiments.runner"),
        "experiments.render_s": self_s("experiments.render"),
        "experiments.csv_bytes": counts["csv_bytes"],
        "experiments.rows": counts["rows"],
        "bounds.singular_rows": counts["singular_rows"],
        "geometry.element_evals": counts["element_evals"],
        # Rows emitted per element-distance evaluation; each bound point
        # recomputes the distances once per projection.
        "geometry.useful_ratio": counts["rows"] / distance_calls if distance_calls else 0.0,
        "waveform.synthesize.self_s": self_s("waveform.synthesize"),
        "estimator.mc.self_s": self_s("estimator.mc"),
        "estimator.self_ms_per_trial": 1e3 * self_s("estimator.mc") / trials if trials else 0.0,
        "estimator.trials": trials,
        "estimator.degenerate_trials": counts["degenerate_trials"],
    }
    for name in (
        "bounds.fisher",
        "bounds.crlb",
        "bounds.closed_forms",
        "geometry.projection",
        "geometry.element_distances",
        "waveform.link_budget",
        "waveform.add_noise",
    ):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    return {key: metrics[key] for key in LAYER_METRIC_UNITS}
