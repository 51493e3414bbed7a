"""nfvel benchmark: batch CLI jobs, one at a time, each in a fresh process.

Run from the repository root::

    python3 perfbench/run.py --workload bounds-map --seed 1 --seconds 30 --trace 0

A run starts ``nfvel.cli.main`` jobs for the workload back to back for
``--seconds`` seconds: a closed loop with one client.  Every job gets the
same seeded input, so every output must be byte identical; the first one also
goes through the workload's oracle.  A job fails on a non-zero exit, an
exception, a changed output or a failed oracle.

The host's speed drifts from minute to minute, so each timed job also runs
its workload's fixed reference computation (``reference.py``) just before and
after the CLI call, and every reported time is scaled by the nominal over the
measured reference time: seconds at a fixed machine speed.  The raw medians
are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics of the traced
ones plus the tracing overhead.  Human-readable lines come first; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# Every child gets single-threaded BLAS (the plain baseline), and so does
# this process, which runs the oracle and the estimator probe; numpy reads
# these when it loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

JOB_TIMEOUT_S = 150
PROBE_REPEATS = 40

END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "items_per_s": "1/s", "peak_alloc_mb": "MB"}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return str(getter())
    return "unknown"


def _git_sha() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(numpy) -> dict[str, str]:
    """What the figures depend on besides the code: machine, interpreter, BLAS."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": str(os.cpu_count()),
        "affinity": str(len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else "?",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "git": _git_sha(),
    }


def run_job(argv: list[str], mode: str, gauge: str, env: dict[str, str], work: Path) -> dict:
    """One CLI job in a fresh child; its wall time, report and output digest.

    ``mode`` is ``plain`` (timed), ``trace`` (per-layer spans) or ``memory``
    (peak allocation under tracemalloc).
    """
    report_path = work / "report.json"
    out_path = work / "out.csv"
    for path in (report_path, out_path):
        path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "job.py"), str(report_path), mode, gauge]
    command += ["--", *argv, "--out", str(out_path)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=work, env=env, capture_output=True, text=True,
            timeout=JOB_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"timed out after {JOB_TIMEOUT_S} s"}
    wall_s = time.perf_counter() - start
    job = {"mode": mode, "wall_s": wall_s}
    if proc.returncode != 0:
        job["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-1500:]}"
        return job
    try:
        job["report"] = json.loads(report_path.read_text(encoding="utf-8"))
        text = out_path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        job["error"] = f"missing job output: {exc}"
        return job
    job["digest"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    job["text"] = text
    return job


def judge(jobs: list[dict], workload, seed: int) -> list[str]:
    """Mark each job ok or failed; return the oracle's problems with the output."""
    first = next((job for job in jobs if "digest" in job), None)
    problems = workload.check(first["text"], seed) if first else []
    for job in jobs:
        job.pop("text", None)
        if "error" in job:
            continue
        if job["digest"] != first["digest"]:
            job["error"] = "output differs from the first job's output for the same input"
        elif problems:
            job["error"] = "oracle: " + "; ".join(problems[:3])
        elif not job["report"]["nfvel_file"].startswith(str(SRC)):
            job["error"] = f"ran nfvel from {job['report']['nfvel_file']}, not {SRC}"
    return problems


def succeeded(jobs: list[dict], mode: str) -> list[dict]:
    return [job for job in jobs if job["mode"] == mode and "error" not in job]


def speed(job: dict, gauge: str) -> float:
    """Factor that scales this job's times to the nominal machine speed."""
    return 2.0 * reference.NOMINAL_S[gauge] / job["report"]["gauge_s"]


def phases(job: dict, gauge: str) -> dict[str, float]:
    """Phases of one plain or traced job, in seconds at the nominal speed.

    ``setup`` is process start, interpreter start-up, ``import nfvel.cli``
    and exit.  ``job`` is the whole job without the gauge runs (and, for a
    traced job, without summarising the spans afterwards).  ``main`` is the
    CLI call alone.
    """
    report = job["report"]
    raw = {
        "setup": job["wall_s"] - report["script_s"] + report["import_s"],
        "job": job["wall_s"] - report["gauge_s"] - report.get("post_s", 0.0),
        "main": report["main_s"],
    }
    factor = speed(job, gauge)
    return {key: value * factor for key, value in raw.items()}


def estimator_probe(seed: int, gauge: str) -> dict[str, float]:
    """Median time of the public ``ml_estimate`` on one montecarlo cube, in ms.

    Once with the workload's tolerance and once with a tolerance above both
    grid steps, which skips refinement; the difference is the refinement
    cost.  Scaled to the nominal machine speed like the jobs.
    """
    from dataclasses import replace

    import numpy as np
    from nfvel.estimator import MlSearchConfig, ml_estimate
    from nfvel.experiments import ScenarioConfig
    from nfvel.waveform import ChannelNoise, add_noise, synthesize_noise_free
    from workloads import MC_SNR_DB, mc_seed

    config = ScenarioConfig()
    target = config.target()
    wf = config.waveform()
    noise = ChannelNoise.from_snr(wf, 10.0 ** (MC_SNR_DB[0] / 10.0))
    clean = synthesize_noise_free(target, config.geometry(), wf, noise)
    cube = add_noise(clean, np.random.default_rng(np.random.SeedSequence([mc_seed(seed), 0])))
    # The CLI's default montecarlo search window.
    search = MlSearchConfig(
        radial_span=(target.radial_velocity - 0.1, target.radial_velocity + 0.1),
        transverse_span=(target.transverse_velocity - 1.0, target.transverse_velocity + 1.0),
    )
    variants = {
        "estimator.ml_estimate_ms": search,
        "estimator.coarse_only_ms": replace(search, tolerance=10.0),
    }
    samples: dict[str, list[float]] = {key: [] for key in variants}
    gauge_total_s = reference.gauge_s(gauge)
    # Alternate the two variants so both see the same stretch of machine time.
    for _ in range(PROBE_REPEATS):
        for key, cfg in variants.items():
            start = time.perf_counter()
            ml_estimate(cube, target.distance, target.angle, cfg)
            samples[key].append(time.perf_counter() - start)
    gauge_total_s += reference.gauge_s(gauge)
    scale = 1e3 * 2.0 * reference.NOMINAL_S[gauge] / gauge_total_s
    return {key: statistics.median(values) * scale for key, values in samples.items()}


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n {len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g} median {q2:.4g} q3 {q3:.4g} n {len(values)}"


def end_to_end(jobs: list[dict], workload) -> dict[str, float]:
    plain = [phases(job, workload.gauge) for job in succeeded(jobs, "plain")]
    (memory,) = succeeded(jobs, "memory")
    return {
        "setup_s": statistics.median(p["setup"] for p in plain),
        "job_s": statistics.median(p["job"] for p in plain),
        "items_per_s": statistics.median(workload.items / p["main"] for p in plain),
        "peak_alloc_mb": memory["report"]["peak_alloc_bytes"] / 2**20,
    }


def per_layer(jobs: list[dict], workload, seed: int, units: dict[str, str]) -> dict[str, float]:
    plain = [phases(job, workload.gauge) for job in succeeded(jobs, "plain")]
    traced = succeeded(jobs, "trace")
    metrics = {}
    for key in traced[0]["report"]["layers"]:
        # Times are scaled to the nominal speed; counts are taken as they are.
        timed = units[key] in ("s", "ms")
        metrics[key] = statistics.median(
            job["report"]["layers"][key] * (speed(job, workload.gauge) if timed else 1.0)
            for job in traced
        )
    if workload.name == "montecarlo":
        metrics.update(estimator_probe(seed, workload.gauge))
    else:
        metrics.update({"estimator.ml_estimate_ms": 0.0, "estimator.coarse_only_ms": 0.0})
    plain_job = statistics.median(p["job"] for p in plain)
    traced_job = statistics.median(phases(job, workload.gauge)["job"] for job in traced)
    metrics["trace.overhead_frac"] = traced_job / plain_job - 1.0

    outside_main = statistics.median(p["job"] - p["main"] for p in plain)
    self_sum = statistics.median(
        job["report"]["self_sum_s"] * speed(job, workload.gauge) for job in traced
    )
    print(
        f"trace accounting: summed self times {self_sum:.4f} s + untraced time outside "
        f"main() {outside_main:.4f} s = {self_sum + outside_main:.4f} s against untraced "
        f"job_s {plain_job:.4f} s: {(self_sum + outside_main) / plain_job - 1.0:+.4f} "
        f"(trace.overhead_frac {metrics['trace.overhead_frac']:+.4f})"
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nfvel" / "cli.py").is_file():
        return _fail(f"no nfvel sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    try:
        import numpy
        import nfvel
        import tracer
        import workloads
    except ImportError as exc:
        return _fail(f"cannot import the benchmark's dependencies: {exc}")
    if not Path(nfvel.__file__).resolve().is_relative_to(SRC):
        return _fail(f"imported nfvel from {nfvel.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    trace = bool(args.trace)

    env = _child_env()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    job_argv = workload.argv(seed)
    # An untraced run starts with the one memory job, which also warms the
    # bytecode cache, and then times plain jobs for --seconds; a traced run
    # alternates plain and traced jobs.
    modes = itertools.cycle(["plain", "trace"] if trace else ["plain"])
    jobs: list[dict] = []
    try:
        if not trace:
            jobs.append(run_job(job_argv, "memory", workload.gauge, env, work))
        start = time.perf_counter()
        while len(jobs) < 2 or time.perf_counter() - start < args.seconds:
            jobs.append(run_job(job_argv, next(modes), workload.gauge, env, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    problems = judge(jobs, workload, seed)
    failed = [job for job in jobs if "error" in job]
    for message in sorted({job["error"] for job in failed})[:5]:
        print(f"perfbench: job failed: {message}", file=sys.stderr)
    for problem in problems[:10]:
        print(f"perfbench: oracle: {problem}", file=sys.stderr)
    plain = succeeded(jobs, "plain")
    if not plain or not succeeded(jobs, "trace" if trace else "memory"):
        return _fail(f"jobs of {args.workload} failed ({len(failed)} of {len(jobs)})")

    env_record = environment(numpy)
    print("env " + " ".join(f"{key}={value}" for key, value in env_record.items()))
    print(f"workload {workload.name} seed {seed} argv {' '.join(job_argv)}")
    print(f"jobs {len(jobs)} failed {len(failed)} fail_frac {len(failed) / len(jobs):.4g}")
    factors = [speed(job, workload.gauge) for job in plain]
    for phase in ("setup", "job", "main"):
        raw = [phases(job, workload.gauge)[phase] / f for job, f in zip(plain, factors)]
        print(f"raw {phase} wall time, untraced: {_quartiles(raw)} s")
    print(f"speed factor to nominal ({workload.gauge} gauge): {_quartiles(factors)}")
    rss = statistics.median(job["report"]["maxrss_kb"] / 1024.0 for job in plain)
    print(f"ru_maxrss, untraced: median {rss:.4g} MB (counts resident library code)")

    if trace:
        units = tracer.PER_LAYER_UNITS
        metrics = per_layer(jobs, workload, seed, units)
    else:
        units = END_TO_END_UNITS
        metrics = end_to_end(jobs, workload)
        print(f"{workload.item}_per_s (items_per_s): {workload.items} {workload.item} per job")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    result = {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
