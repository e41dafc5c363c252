"""One benchmark process: set up a workload, say READY, then run it.

Started by ``run.py`` from the root of a checkout; it imports the package
from ``src/``.  Modes:

* ``setup``   - build the inputs, print READY and exit (a set-up sample);
* ``measure`` - then run whole passes over the job list, one job at a time,
  until ``--seconds`` have gone by, and print the per-job results as JSON;
* ``trace``   - measure untraced as above for half of ``--seconds``, then
  build the inputs again and
  run one pass with every public function wrapped (see ``spans.py``) and
  one more with tracemalloc on; print per-layer figures and whether the
  verdicts of the traced passes agree with the untraced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import workloads  # noqa: E402

# Seconds between two probes of the reference kernel.
PROBE_EVERY_S = 0.02


def run_job(job: workloads.Job, clock=time.perf_counter) -> tuple[float, bool, object]:
    """(seconds in the call by ``clock``, verdict matches the known answer, verdict).

    A job that raises is a failed job with the exception as its verdict.
    """
    start = clock()
    try:
        verdict = job.run()
    except Exception as exc:  # a failed job is counted, not fatal
        return clock() - start, False, {"raised": f"{type(exc).__name__}: {exc}"}
    elapsed = clock() - start
    try:
        ok = bool(job.check(verdict))
    except Exception:  # a malformed verdict fails its check
        ok = False
    return elapsed, ok, verdict


def digest(verdict: object) -> str:
    text = json.dumps(verdict, sort_keys=True, default=repr)
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def run_pass(jobs, tracer=None, deadline=None) -> dict:
    """Run the jobs in order; stop early once time.perf_counter() passes ``deadline``.

    An untraced pass probes the reference kernel every PROBE_EVERY_S seconds
    (reference.Sampler) and leaves the probes out of the job times.  Each
    job's ``probe`` is the mean of the probes taken while it ran and of the
    last one before and the first one after it.
    """
    times, digests, failures, report_bytes, bounds = [], [], [], 0, []
    sampler = reference.Sampler(PROBE_EVERY_S) if tracer is None else None
    with sampler or contextlib.nullcontext():
        for i, job in enumerate(jobs):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.job = i
            first = len(sampler.samples) if sampler else 0
            elapsed, ok, verdict = run_job(job, sampler.clock if sampler else time.perf_counter)
            bounds.append((first, len(sampler.samples) if sampler else 0))
            times.append(elapsed)
            digests.append(digest(verdict))
            if isinstance(verdict, dict) and "report" in verdict:
                report_bytes += len(verdict["report"].encode())
            if not ok:
                failures.append((i, f"{job.label}: {json.dumps(verdict, default=repr)[:200]}"))
    probe = [statistics.mean(sampler.samples[a - 1:b + 1]) for a, b in bounds] if sampler else []
    return {"times": times, "probe": probe, "digests": digests, "failures": failures,
            "report_bytes": report_bytes}


def run_passes(jobs, seconds: float) -> list[dict]:
    """One whole pass, then more until ``seconds`` are up; the last may be cut short."""
    deadline = time.perf_counter() + seconds
    passes = [run_pass(jobs)]
    while time.perf_counter() < deadline:
        passes.append(run_pass(jobs, deadline=deadline))
    return passes


def per_job(passes, key: str) -> list[list]:
    """For each job of the list, its values of ``key`` over the passes that ran it."""
    return [[p[key][j] for p in passes if j < len(p[key])] for j in range(len(passes[0][key]))]


def distinct_failures(passes) -> list:
    """[job index, message] once for each job that failed in any of the passes."""
    return sorted(dict(f for p in reversed(passes) for f in p["failures"]).items())


def versions() -> dict:
    import numpy
    import sympy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "sympy": sympy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--smoke", action="store_true", help="one pass of the first job only")
    args = parser.parse_args(argv)

    build = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        jobs = build(args.seed, workdir)
        if args.smoke:
            jobs = jobs[:1]
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        # A traced run splits its time between untraced and traced passes.
        seconds = 0 if args.smoke else args.seconds / (2 if args.mode == "trace" else 1)
        passes = run_passes(jobs, seconds)
        result = {
            "jobs_per_pass": len(jobs),
            "passes": len(passes),
            "pass_times": [p["times"] for p in passes],
            "pass_probe": [p["probe"] for p in passes],
            "unstable": sum(len(set(d)) > 1 for d in per_job(passes, "digests")),
            "failures": distinct_failures(passes),
            "versions": versions(),
        }
        if args.mode == "trace":
            result.update(traced_pass(args, build, passes))
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_pass(args, build, passes) -> dict:
    """One pass with spans on, then one with tracemalloc on for peak allocations.

    Tracemalloc slows every allocation several-fold, so self times come from
    the first pass and only the peaks from the second.  Each pass builds its
    inputs again, so set-up calls (make_field, to_table_group) are traced too.
    """
    import spans

    # Module-level caches outlive the rebuilt inputs, so the traced pass runs
    # warm; compare it with each job's median untraced time.
    untraced_wall = sum(statistics.median(t) for t in per_job(passes, "times"))
    tracer = spans.Tracer()
    traced = _pass_under(tracer, args, build)
    memory = spans.Tracer(only=spans.PEAK_SPANS)
    tracemalloc.start()
    try:
        in_memory_pass = _pass_under(memory, args, build)
    finally:
        tracemalloc.stop()
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    mismatches = sum(
        a != b
        for other in (traced, in_memory_pass)
        for a, b in zip(passes[0]["digests"], other["digests"])
    )
    return {
        "traced_failures": distinct_failures([traced, in_memory_pass]),
        "traced_jobs": len(traced["times"]) + len(in_memory_pass["times"]),
        "verdict_mismatches": mismatches,
        "spans": tracer.summary(),
        "peaks": {name: agg["peak_bytes"] for name, agg in memory.summary().items()},
        "counts": tracer.counts,
        "traced_wall": sum(traced["times"]),
        "untraced_wall": untraced_wall,
        "report_bytes": traced["report_bytes"],
    }


def _pass_under(tracer, args, build) -> dict:
    tracer.install()
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-traced-", dir=OUT)
    try:
        tracer.job = "setup"
        jobs = build(args.seed, workdir)
        return run_pass(jobs[:1] if args.smoke else jobs, tracer)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
