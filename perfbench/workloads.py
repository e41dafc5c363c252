"""The benchmark's workloads: seeded job lists, each job with its known answer.

A workload function takes the seed and a scratch directory, builds its
inputs (this is the set-up the benchmark times) and returns the job list of
one pass.  A job's ``run`` makes exactly the call a user would make and
returns a JSON-able verdict; its ``check`` compares that verdict with an
answer that does not come from the code under test.

Every draw is stratified: the kinds of job and how many of each are fixed,
and the seed draws the inputs inside each kind (characters, roots of unity,
matrix entries, lift seeds) and the order of the jobs.  That keeps the work
in a pass nearly the same from seed to seed, so that different seeds measure
the same thing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import oracles


@dataclass(frozen=True)
class Job:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def run_cli(argv: list[str]) -> dict:
    """``abelcentral.cli.main(argv)`` in-process, with its output captured."""
    from abelcentral import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "report": out.getvalue(), "stderr": err.getvalue()}


def _report(verdict: dict) -> dict:
    return json.loads(verdict["report"])


def _units(n: int) -> list[int]:
    return [i for i in range(1, n) if math.gcd(i, n) == 1] or [1]


# --- ffrak_sweep -------------------------------------------------------------

# Degree-2 fields (p, n) with n | p^2 - 1, on top of the prime-field matrix.
FFRAK_DEGREE2 = ((3, 4), (5, 8), (7, 16), (11, 12), (13, 7))
# Jobs with n below this are light and all of them are run.  The heavy tail
# is taken every FFRAK_HEAVY_STEP-th job, because a handful of jobs there
# carry most of a pass's time.  The (p, n) list is the same on every seed:
# the cost of a job depends mostly on p and n, so the seed draws only the
# root of unity and the order, and different seeds do the same work.
FFRAK_LIGHT_N = 20
FFRAK_HEAVY_STEP = 8


def criterion_matrix() -> list[tuple[int, int]]:
    """(p, n) for every prime 2 < p < 200 and every 2 <= n < p with n | p - 1."""
    primes = [p for p in range(3, 200) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    return [(p, n) for p in primes for n in range(2, p) if (p - 1) % n == 0]


def _ffrak_job(p: int, k: int, n: int, index: int) -> Job:
    argv = ["verify", "--suite", "ffrak", "--p", str(p), "--k", str(k), "--n", str(n),
            "--omega-index", str(index)]

    def check(v: dict) -> bool:
        return v["exit"] == 0 and _report(v)["invariant_factors"] == [n]

    return Job(f"ffrak p={p} k={k} n={n} omega={index}", lambda: run_cli(argv), check)


def ffrak_sweep(seed: int, workdir: str) -> list[Job]:
    import abelcentral  # noqa: F401  (import time belongs to set-up)

    rng = random.Random(seed)
    matrix = sorted(criterion_matrix(), key=lambda pn: (pn[1], pn[0]))
    light = [pn for pn in matrix if pn[1] < FFRAK_LIGHT_N]
    heavy = [pn for pn in matrix if pn[1] >= FFRAK_LIGHT_N]
    chosen = light + heavy[::FFRAK_HEAVY_STEP]
    jobs = [_ffrak_job(p, 1, n, rng.choice(_units(n))) for p, n in chosen]
    jobs += [_ffrak_job(p, 2, n, rng.choice(_units(n))) for p, n in FFRAK_DEGREE2]
    rng.shuffle(jobs)
    return jobs


# --- relation_families -------------------------------------------------------

# (p, n, families per pair count 0..3).  n <= 10 runs the Heisenberg
# enumeration of conditions 5 and 7; (61, 15) skips it; F_2003 makes the
# (q-1)^2 scan of condition 6 the largest allocation.  The sixteen one-pair
# families over F_41 (~9 ms each) hold the median job, ranks 52-67 of 122,
# so that it sits inside a block of one cost rather than on a step.
RELATION_FIELDS = (
    (13, 3, (2, 3, 3, 3)),
    (17, 4, (2, 3, 3, 3)),
    (29, 7, (2, 5, 5, 5)),
    (37, 9, (2, 4, 4, 4)),
    (41, 10, (2, 16, 8, 8)),
    (61, 10, (2, 6, 6, 6)),
    (61, 15, (2, 3, 3, 3)),
    (2003, 11, (1, 1, 1, 1)),
)


def _relation_job(field, w, index: int, coeffs: list[tuple[int, int]]) -> Job:
    from abelcentral import relations
    from abelcentral.finfield import KummerCharacter

    n, q = field.n, field.q
    pairs = [(KummerCharacter(field, n, s), KummerCharacter(field, n, t)) for s, t in coeffs]
    dlog_w = index * (q - 1) // n  # omega = generator^(index (q-1)/n)
    want_a = [oracles.halves(s * dlog_w % n, n) for s, _ in coeffs]
    want_b = [oracles.halves(t * dlog_w % n, n) for _, t in coeffs]
    want_flags = {"1", "2", "3", "4", "6"} | ({"5", "7"} if n <= 10 else set())

    def check(v: dict) -> bool:
        flags = {k for k in v if k.isdigit()}
        return (
            want_flags <= flags
            and all(v[k] is True for k in flags)
            and "first_failing_point" not in v
            and v["witnesses_a"] == want_a
            and v["witnesses_b"] == want_b
            and all(want_a) and all(want_b)
        )

    return Job(
        f"relations q={q} n={n} pairs={coeffs}",
        lambda: relations.relation_check(pairs, w).as_dict(),
        check,
    )


def relation_families(seed: int, workdir: str) -> list[Job]:
    from abelcentral import finfield

    rng = random.Random(seed)
    jobs = []
    for p, n, per_count in RELATION_FIELDS:
        field = finfield.make_field(p, n=n)
        index = rng.choice(_units(n))
        w = finfield.omega(field, n, index=index)
        for npairs, count in enumerate(per_count):
            for _ in range(count):
                coeffs = [(rng.randrange(n), rng.randrange(n)) for _ in range(npairs)]
                jobs.append(_relation_job(field, w, index, coeffs))
    rng.shuffle(jobs)
    return jobs


# --- group_machinery ---------------------------------------------------------

# (kind, n, rank or table order, jobs per pass, expected kernel size).  Six
# groups of 0.1-1 s run once a pass.  The counts of the others put each
# percentile in the middle of a block of jobs of one cost, away from any edge
# where two costs meet, so that noise in a few jobs cannot move it across a
# step: the median job is a Heisenberg n=2 run (~10 ms, 30 jobs, ranks 37-66
# from the bottom) and the 90th percentile lies among eight ~35 ms runs
# (Heisenberg n=3 and (Z/2)^4, ranks 7-14 from the top).  (Z/2)^7 (about
# 4 s a job) is left out so that a pass stays near 4 s and every job is timed
# several times in a run.
GROUP_JOBS = (
    ("heis", 2, 8, 30, 1),
    ("heis", 3, 27, 4, 1),
    ("heis", 4, 64, 1, 1),
    ("heis", 5, 125, 1, 1),
    ("cyclic", 2, 4, 12, 1),
    ("cyclic", 3, 9, 12, 1),
    ("elem", 2, 2, 12, 0),
    ("elem", 2, 3, 20, 0),
    ("elem", 2, 4, 4, 0),
    ("elem", 2, 5, 1, 0),
    ("elem", 2, 6, 1, 0),
    ("elem", 3, 3, 1, 0),
    ("elem", 3, 4, 1, 0),
)


def _machinery_job(kind: str, n: int, size: int, kernel: int, argv: list[str]) -> Job:
    order = n**size if kind == "elem" else size

    def check(v: dict) -> bool:
        if v["exit"] != 0:
            return False
        rep = _report(v)
        return rep["ok"] is True and rep["kernel_size"] == kernel and rep["group_order"] == order

    return Job(f"{kind} n={n} size={size} {' '.join(argv[-2:])}", lambda: run_cli(argv), check)


def group_machinery(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for kind, n, size, count, kernel in GROUP_JOBS:
        path = os.path.join(workdir, f"{kind}{n}_{size}.json")
        if kind == "heis":
            run_cli(["heisenberg", "--n", str(n), "--output", path])
            argv = ["groupcoh", "--input", path, "--n", str(n)]
        elif kind == "cyclic":
            with open(path, "w") as fh:
                json.dump({"table": [[(i + j) % size for j in range(size)] for i in range(size)]}, fh)
            argv = ["verify", "--suite", "machinery", "--input", path, "--n", str(n)]
        else:
            argv = ["verify", "--suite", "machinery", "--n", str(n), "--rank", str(size)]
        for _ in range(count):
            jobs.append(_machinery_job(kind, n, size, kernel, argv + ["--seed", str(rng.randrange(2**31))]))
    rng.shuffle(jobs)
    return jobs


# --- modring_moduli ----------------------------------------------------------

MODULI = (6, 12, 2**16, 65537, 2**31 - 1)
SHAPES = ((2, 2), (3, 4), (4, 3), (6, 6), (8, 5), (5, 8), (10, 10), (12, 12))
# Small enough for brute-force closure over (Z/n)^cols.
TINY_MODULI = (6, 12)
TINY_SHAPES = ((2, 2), (2, 3), (3, 3))
OPS = ("canonicalize", "structure", "membership", "solve_linear", "nullspace")


def _modring_job(op: str, n: int, a: list[list[int]], rng: random.Random, tiny: bool) -> Job:
    import numpy as np
    from abelcentral import modring

    rows, cols = len(a), len(a[0])
    mat = modring.ModMatrix(n, np.array(a, dtype=np.int64))
    label = f"{op} n={n} {rows}x{cols}"
    if op == "canonicalize":
        def run():
            return modring.canonicalize(mat).canonical.entries.tolist()

        def check(v):
            if tiny:
                return oracles.closure(v, n, cols) == oracles.closure(a, n, cols)
            return oracles.same_span(a, v, n)
    elif op == "structure":
        def run():
            return list(modring.structure(modring.canonicalize(mat)).invariant_factors)

        def check(v):
            if tiny:
                return tuple(v) == oracles.closure_factors(oracles.closure(a, n, cols), n)
            return tuple(v) == oracles.invariant_factors(a, n)
    elif op == "membership":
        if rng.random() < 0.5:
            coeffs = [rng.randrange(n) for _ in range(rows)]
            vec = [sum(c * r[j] for c, r in zip(coeffs, a)) % n for j in range(cols)]
        else:
            vec = [rng.randrange(n) for _ in range(cols)]

        def run():
            return modring.membership(modring.canonicalize(mat), vec)

        def check(v):
            if tiny:
                return v == (tuple(vec) in oracles.closure(a, n, cols))
            return v == oracles.in_span(a, vec, n)
    elif op == "solve_linear":
        x0 = [rng.randrange(n) for _ in range(cols)]
        b = oracles.mat_vec(a, x0, n)

        def run():
            x = modring.solve_linear(mat, b)
            return None if x is None else x.tolist()

        def check(v):
            return v is not None and len(v) == cols and oracles.mat_vec(a, v, n) == b
    else:
        def run():
            return modring.nullspace(mat).entries.tolist()

        def check(v):
            if any(any(oracles.mat_vec(a, r, n)) for r in v):
                return False
            if tiny:
                return oracles.closure(v, n, cols) == oracles.closure_kernel(a, n, cols)
            return oracles.span_order(v, n) == oracles.kernel_order(a, n, cols)
    return Job(label, run, check)


# solve_linear mod 2^31-1 is where the int64 overflow of the seed shows: it
# returns None for some solvable systems, and which ones depends on the
# entries.  Those systems are drawn from this fixed seed, whatever --seed is,
# so that the number of failed jobs is a property of the code alone and a fix
# (or a partial one) shows as an exact drop in the result line's ``failed``.
OVERFLOW_CELL = ("solve_linear", 2**31 - 1)
OVERFLOW_SEED = 0


def modring_moduli(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    fixed = random.Random(OVERFLOW_SEED)
    cells = [(n, shape, False) for n in MODULI for shape in SHAPES]
    cells += [(n, shape, True) for n in TINY_MODULI for shape in TINY_SHAPES]
    jobs = []
    for op in OPS:
        for n, (rows, cols), tiny in cells:
            draw = fixed if (op, n) == OVERFLOW_CELL else rng
            a = [[draw.randrange(n) for _ in range(cols)] for _ in range(rows)]
            jobs.append(_modring_job(op, n, a, draw, tiny))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "ffrak_sweep": ffrak_sweep,
    "relation_families": relation_families,
    "group_machinery": group_machinery,
    "modring_moduli": modring_moduli,
}
