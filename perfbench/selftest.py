"""Checks of the benchmark itself.

    python3 perfbench/selftest.py

* every oracle accepts the program's verdict on a few jobs of each workload
  and rejects a deliberately corrupted copy of it;
* the oracles agree with brute force on small random matrices;
* a one-job smoke run of each workload finishes in seconds, in both trace
  modes, and the traced passes give the same verdicts as the untraced one;
* the solve_linear systems mod 2^31-1 of modring_moduli, where the seed's
  overflow shows, are the same on every seed, and so are their verdicts;
* the metrics run.py reports are the ones BENCHMARK.json names.
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import run_job  # noqa: E402

SMOKE_LIMIT_S = 60.0


def _corrupt_report(verdict: dict, edit) -> dict:
    bad = copy.deepcopy(verdict)
    doc = json.loads(bad["report"])
    edit(doc)
    bad["report"] = json.dumps(doc)
    return bad


def corruptions(workload: str, verdict) -> list:
    """Certainly wrong verdicts derived from a right one."""
    if workload == "ffrak_sweep":
        return [
            _corrupt_report(verdict, lambda d: d.update(invariant_factors=d["invariant_factors"] * 2)),
            _corrupt_report(verdict, lambda d: d.update(invariant_factors=[])),
            dict(verdict, exit=1),
        ]
    if workload == "relation_families":
        return [
            dict(verdict, **{"4": False}),
            dict(verdict, witnesses_a=[w + [0] for w in verdict["witnesses_a"]] or [[0]]),
            dict(verdict, first_failing_point=2),
        ]
    return [
        _corrupt_report(verdict, lambda d: d.update(kernel_size=d["kernel_size"] + 1)),
        _corrupt_report(verdict, lambda d: d.update(ok=False)),
        dict(verdict, exit=1),
    ]


def modring_cases(n: int, tiny: bool) -> list:
    """(job, corrupted verdicts) on a matrix with a unit in the corner and
    fewer rows than columns, so that every corruption below is wrong."""
    rng = random.Random(n)
    cols = 3 if tiny else 6
    a = [[rng.randrange(n) for _ in range(cols)] for _ in range(cols - 1)]
    a[0][0] = 1
    unit_row = [1] + [0] * (cols - 1)
    cases = []
    for op in workloads.OPS:
        job = workloads._modring_job(op, n, a, rng, tiny)
        _, ok, verdict = run_job(job)
        if not ok:
            continue  # a known defect leaves nothing right to corrupt
        bad = {
            "canonicalize": lambda v: [[]],
            "structure": lambda v: [v + [n], v[1:]],
            "membership": lambda v: [not v],
            "solve_linear": lambda v: [None, [v[0] + 1] + v[1:]],
            "nullspace": lambda v: [v + [unit_row], []],
        }[op](verdict)
        cases.append((job, bad))
    return cases


def check_oracles_reject_corruption() -> None:
    for name, build in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as workdir:
            if name == "modring_moduli":
                cases = [case for n in workloads.MODULI for case in modring_cases(n, n in workloads.TINY_MODULI)]
            else:
                cases = []
                for job in build(3, workdir)[:4]:
                    _, ok, verdict = run_job(job)
                    assert ok, f"{name}: {job.label} failed"
                    cases.append((job, corruptions(name, verdict)))
            rejected = 0
            for job, bad_verdicts in cases:
                for bad in bad_verdicts:
                    assert not job.check(bad), f"{name}: oracle accepted a corrupted verdict for {job.label}"
                    rejected += 1
            assert rejected, f"{name}: no verdict was corrupted"
            print(f"ok  {name}: {rejected} corrupted verdicts rejected")


def check_oracles_against_brute_force() -> None:
    rng = random.Random(0)
    for _ in range(200):
        n = rng.choice((2, 4, 6, 8, 9, 12))
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        a = [[rng.randrange(n) for _ in range(cols)] for _ in range(rows)]
        span = oracles.closure(a, n, cols)
        assert len(span) == oracles.span_order(a, n)
        assert oracles.closure_factors(span, n) == oracles.invariant_factors(a, n)
        assert len(oracles.closure_kernel(a, n, cols)) == oracles.kernel_order(a, n, cols)
        v = [rng.randrange(n) for _ in range(cols)]
        assert (tuple(v) in span) == oracles.in_span(a, v, n)
    print("ok  oracles agree with brute-force closure on 200 random matrices")


def check_overflow_draw_fixed() -> None:
    op, n = workloads.OVERFLOW_CELL
    outcomes = []
    for seed in (1, 2):
        jobs = [job for job in workloads.modring_moduli(seed, "") if job.label.startswith(f"{op} n={n} ")]
        outcomes.append(sorted((job.label, run_job(job)[1:]) for job in jobs))
    assert outcomes[0] == outcomes[1], "the overflow cell depends on the seed"
    failed = sum(not ok for _, (ok, _) in outcomes[0])
    print(f"ok  {op} mod {n}: the same {len(outcomes[0])} systems on every seed, {failed} failed")


def check_smoke_runs() -> None:
    for name in run.WORKLOADS:
        for trace in (0, 1):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "5",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            elapsed = time.perf_counter() - start
            assert proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            doc = json.loads(proc.stdout.splitlines()[-1])
            assert set(doc) == {"correct", "attempted", "failed", "metrics"}
            assert doc["correct"], f"{name}: traced verdicts differ from untraced ones"
            want = run.PER_LAYER if trace else run.END_TO_END
            assert set(doc["metrics"]) == set(want), f"{name} trace={trace}: metric names differ"
            assert elapsed < SMOKE_LIMIT_S, f"{name} trace={trace}: smoke run took {elapsed:.1f} s"
            print(f"ok  {name} trace={trace}: smoke run in {elapsed:.1f} s")


def check_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (u, _) in run.PER_LAYER.items()}
    print("ok  BENCHMARK.json names the metrics run.py reports")


if __name__ == "__main__":
    check_benchmark_json()
    check_oracles_against_brute_force()
    check_oracles_reject_corruption()
    check_overflow_draw_fixed()
    check_smoke_runs()
    print("selftest passed")
