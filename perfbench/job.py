"""Run one nfvel CLI job in this process and write a JSON report about it.

Usage::

    python3 job.py REPORT.json {plain,trace,memory} GAUGE -- NFVEL_ARGS...

The report holds the CLI exit code, the time to import ``nfvel.cli``, the
wall time of ``nfvel.cli.main``, the time this script ran, and this
process's ``ru_maxrss``.  A ``plain`` or ``trace`` job also runs the
reference computation ``GAUGE`` (see ``reference.py``) right before and
right after the CLI call and reports the sum, which gauges the machine's
speed during the job.  A ``trace`` job adds the per-layer metrics of
``tracer.layer_metrics``.  A ``memory`` job adds the peak of memory
allocated through Python's allocators (Python objects and numpy arrays) from
before the import to the end of the job, measured by ``tracemalloc``, which
slows the job several times over.  An exception from the CLI propagates, so
the process exits non-zero with a traceback.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import tracemalloc

USAGE = "usage: job.py REPORT.json {plain,trace,memory} GAUGE -- NFVEL_ARGS..."


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--" or argv[1] not in ("plain", "trace", "memory"):
        print(USAGE, file=sys.stderr)
        return 64
    report_path, mode, gauge_name = argv[:3]
    cli_args = argv[4:]

    script_start = time.perf_counter()
    if mode == "memory":
        tracemalloc.start()
    import nfvel.cli

    import_s = time.perf_counter() - script_start
    if mode != "memory":
        from reference import gauge_s

        gauge_total_s = gauge_s(gauge_name)

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install_nfvel(tracer)
    start = time.perf_counter()
    try:
        code = nfvel.cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    if mode != "memory":
        gauge_total_s += gauge_s(gauge_name)

    post_start = time.perf_counter()
    report = {
        "code": code,
        "import_s": import_s,
        "main_s": main_s,
        "gauge_s": None if mode == "memory" else gauge_total_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "nfvel_file": nfvel.cli.__file__,
    }
    if mode == "memory":
        report["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    if tracer is not None:
        summary = tracer.summary()
        report["layers"] = tracing.layer_metrics(summary, tracer.counts)
        report["self_sum_s"] = sum(entry["self_s"] for entry in summary.values())
        report["post_s"] = time.perf_counter() - post_start
    report["script_s"] = time.perf_counter() - script_start
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
