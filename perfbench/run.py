"""Benchmark of abelcentral: time verdicts on one workload and check each one.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ffrak_sweep --seed 1 --seconds 20 --trace 0

The workloads are listed in perfbench/README.md.  Each run is a closed loop:
one client in one process runs the seeded job list back to back, whole
passes, until --seconds have gone by (the last pass may be cut short).  With
--trace 0 it reports the end-to-end metrics, with --trace 1 the per-layer
metrics of a separate traced pass.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; ``attempted``
and ``failed`` count the distinct jobs of the list, so they depend on the
code and the seed only, not on how many passes fitted in the run.

Set-up is sampled in SETUP_SAMPLES fresh processes (time from spawning the
process to the worker's READY line) and reported as the median.  Every time
is normalised by a reference kernel probed alongside it (reference.py).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("ffrak_sweep", "relation_families", "group_machinery", "modring_moduli")
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170.0
# Numeric libraries run single-threaded, like the single client they serve.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# name -> (unit, computed by the wrapper rather than timed or counted)
PER_LAYER = {
    "tables.phi.calls": ("count", False),
    "tables.phi.self_s": ("s", False),
    "tables.psi.calls": ("count", False),
    "tables.ffrak_generate.self_s": ("s", False),
    "tables.ffrak_generate.useful_ratio": ("ratio", True),
    "finfield.make_field.calls": ("count", False),
    "finfield.make_field.self_s": ("s", False),
    "finfield.dlog_entries": ("count", True),
    "modring.howell_form.calls": ("count", False),
    "modring.howell_form.self_s": ("s", False),
    "modring.structure.self_s": ("s", False),
    "modring.membership.self_s": ("s", False),
    "modring.solve_linear.self_s": ("s", False),
    "modring.nullspace.self_s": ("s", False),
    "modring.system_cells": ("count", True),
    "modring.solve_linear.none_ratio": ("ratio", True),
    "groups.TableGroup.init.self_s": ("s", False),
    "groups.central_series.self_s": ("s", False),
    "groups.abelian_decomposition.self_s": ("s", False),
    "groups.layer_maps.calls": ("count", False),
    "cohomology.verify_thm23_and_omegaR.self_s": ("s", False),
    "cohomology.kernel_of_inflation.self_s": ("s", False),
    "cohomology.solve_coboundary.calls": ("count", False),
    "cohomology.solve_coboundary.self_s": ("s", False),
    "cohomology.Cocycle2.init.calls": ("count", False),
    "cohomology.Cocycle2.init.self_s": ("s", False),
    "cohomology.special_elements.self_s": ("s", False),
    "cohomology.kernel_of_inflation.peak_alloc_mb": ("MB", False),
    "cohomology.solve_coboundary.peak_alloc_mb": ("MB", False),
    "heisenberg.enumerate_homs_check.self_s": ("s", False),
    "heisenberg.pointwise_embedding_check.self_s": ("s", False),
    "heisenberg.images_enumerated": ("count", True),
    "heisenberg.to_table_group.self_s": ("s", False),
    "relations.relation_check.calls": ("count", False),
    "relations.relation_check.self_s": ("s", False),
    "relations.relation_check.peak_alloc_mb": ("MB", False),
    "relations.cond6_cells": ("count", True),
    "cli.main.calls": ("count", False),
    "cli.main.self_s": ("s", False),
    "cli.report_bytes": ("bytes", True),
    "trace.overhead_ratio": ("ratio", False),
}


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: int, mode: str, smoke: bool,
          deadline: float) -> tuple[float, dict | None]:
    """Run one worker process; (seconds until it said READY, its result or None).

    The worker is killed if it is still running at ``deadline`` (time.monotonic).
    """
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode] + (["--smoke"] if smoke else [])
    env = dict(os.environ, **THREAD_ENV)
    start = time.perf_counter()
    # Unbuffered, so that readline() takes only the READY line and leaves the
    # rest of the output to communicate().
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, bufsize=0)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - start
        if line.strip() != b"READY":
            raise BenchError(f"{workload} worker did not finish set-up")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past the {RUN_TIMEOUT_S:.0f} s limit of a run") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return setup_s, (json.loads(out.decode().splitlines()[-1]) if mode != "setup" else None)


def setup_sample(workload: str, seed: int, deadline: float, smoke: bool) -> tuple[float, float]:
    """(seconds a fresh process takes to set up, the mean of two probes of the
    reference kernel, one before it starts and one after it has ended)."""
    before = reference.probe()
    setup_s, _ = spawn(workload, seed, 0, "setup", smoke, deadline)
    return setup_s, (before + reference.probe()) / 2


def environment(versions: dict, workload: str, seed: int, result: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # The ceiling keeps git from finding a repository above the checkout.
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
                                timeout=10).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git not available)"
    return {
        **versions,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "workload": workload,
        "seed": seed,
        "jobs_per_pass": result["jobs_per_pass"],
        "passes": result["passes"],
        "jobs_timed": sum(len(times) for times in result["pass_times"]),
    }


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def end_to_end(setups: list[tuple[float, float]], result: dict) -> tuple[dict, list[str]]:
    """The end-to-end metrics and one printed line for each.

    Every time is normalised by the reference kernel probed while it was
    taken (reference.py), so that a host that slows everything down moves the
    figures far less than it moves wall times.  Each job's time is the median of its normalised times over the
    run's passes, and the timing metrics are taken over those per-job
    medians.  The same figures from raw wall times are printed too.
    """
    raw, probes = result["pass_times"], result["pass_probe"]
    norm = [[reference.normalise(t, p) for t, p in zip(ts, ps)] for ts, ps in zip(raw, probes)]
    n, k = len(norm[0]), len(norm)
    per_job = [statistics.median(p[j] for p in norm if j < len(p)) for j in range(n)]
    per_job_raw = [statistics.median(p[j] for p in raw if j < len(p)) for j in range(n)]
    attempted, failed = result["jobs_per_pass"], len(result["failures"])
    metrics = {
        "setup_s": statistics.median(reference.normalise(t, p) for t, p in setups),
        "jobs_per_s": n / sum(per_job),
        "job_p50_ms": quantile(per_job, 50) * 1e3,
        "job_p90_ms": quantile(per_job, 90) * 1e3,
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    timed = sum(len(p) for p in norm)
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes; raw wall {statistics.median(t for t, _ in setups):.6g}",
        "jobs_per_s": f"{n} jobs, each the median over {k} passes; "
                      f"raw wall {n / sum(per_job_raw):.6g}",
        "job_p50_ms": f"{n} per-job medians of {timed} timed jobs; raw wall {quantile(per_job_raw, 50) * 1e3:.6g}",
        "job_p90_ms": f"{n} per-job medians, {n - int(0.9 * n)} beyond; raw wall {quantile(per_job_raw, 90) * 1e3:.6g}",
        "peak_rss_mb": "maximum RSS of the measuring process",
        "ok_ratio": f"{attempted - failed} of {attempted} jobs give the known answer "
                    f"(failed_ratio {failed / attempted:.4f})",
    }
    lines = [f"{name:<14} {value:>14.6g} {END_TO_END[name]:<6} ({notes[name]})" for name, value in metrics.items()]
    return metrics, lines


def per_layer(result: dict) -> dict:
    """The per-layer metrics from the traced passes' span summary and counts."""
    spans, peaks, counts = result["spans"], result["peaks"], result["counts"]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    derived = {
        "tables.ffrak_generate.useful_ratio": ratio(counts.get("tables.ffrak_generate.kept", 0),
                                                    counts.get("tables.ffrak_generate.built", 0)),
        "modring.solve_linear.none_ratio": ratio(counts.get("modring.solve_linear.none", 0),
                                                 spans.get("modring.solve_linear", {}).get("calls", 0)),
        "cli.report_bytes": result["report_bytes"],
        "trace.overhead_ratio": result["traced_wall"] / result["untraced_wall"],
    }
    out = {}
    for metric in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif stat in ("calls", "self_s"):
            out[metric] = spans.get(span, {}).get(stat, 0)
        elif stat == "peak_alloc_mb":
            out[metric] = peaks.get(span, 0) / 2**20
        else:
            out[metric] = counts.get(metric, 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="abelcentral benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="one job, one set-up sample")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "abelcentral", "__init__.py")):
        print(f"perfbench: no abelcentral sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        if args.trace:
            _, result = spawn(args.workload, args.seed, args.seconds, "trace", args.smoke, deadline)
            setups = []
        else:
            samples = 1 if args.smoke else SETUP_SAMPLES
            setups = [setup_sample(args.workload, args.seed, deadline, args.smoke) for _ in range(samples)]
            _, result = spawn(args.workload, args.seed, args.seconds, "measure", args.smoke, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = environment(result["versions"], args.workload, args.seed, result)
    print("environment: " + json.dumps(env, sort_keys=True))
    # [job index, message]; a job counts once however many passes it failed in.
    failures = sorted(dict(result["failures"] + result.get("traced_failures", [])).items())
    for index, message in failures[:10]:
        print(f"failed job #{index}: {message}")
    print(f"jobs whose verdict changed between passes: {result['unstable']}")
    if args.trace:
        metrics = per_layer(result)
        mismatches = result["verdict_mismatches"]
        print(f"traced pass: {result['traced_jobs']} jobs, {mismatches} verdicts differ from the untraced run")
        for name, (unit, computed) in PER_LAYER.items():
            print(f"{name:<46} {metrics[name]:>14.6g} {unit:<6}{' (computed)' if computed else ''}")
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        correct = mismatches == 0 and result["unstable"] == 0
    else:
        metrics, lines = end_to_end(setups, result)
        print("\n".join(lines))
        units = END_TO_END
        correct = result["unstable"] == 0
    doc = {
        "correct": correct,
        "attempted": result["jobs_per_pass"],
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"environment": env, "failures": failures, "pass_times": result["pass_times"],
                   "pass_probe": result.get("pass_probe"), "setups": setups, **doc}, fh, sort_keys=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
