"""Acceptance gate: eight end-to-end criteria, one printed line each."""

import itertools
import random

import numpy as np
import sympy

from abelcentral import modring, relations, tables
from abelcentral.cohomology import (
    H2Class,
    kernel_of_inflation,
    make_U_B,
    solve_coboundary,
    verify_propA1,
    verify_thm23_and_omegaR,
    zero_cocycle,
    Cocycle2,
)
from abelcentral.finfield import KummerCharacter, characters, make_field, omega
from abelcentral.groups import central_series, cyclic_group, elementary_group
from abelcentral.heisenberg import to_table_group, verify_laws
from abelcentral.modring import ModMatrix
from abelcentral.tables import CommTerm, FormalWord, PowTerm
from heisenberg_oracle import HeisElem, heis_comm_pow


def report(num, ok, capsys):
    # Escape pytest capture so each criterion line always reaches the log.
    with capsys.disabled():
        print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} failed"


def criterion_matrix():
    out = []
    for p in sympy.primerange(3, 201):
        for n in range(2, p):
            if (p - 1) % n == 0:
                out.append((int(p), n))
    return out


def test_criterion_1_structure_law(capsys):
    ok = True
    for p, n in criterion_matrix():
        k = make_field(p, n=n)
        g = tables.ffrak_generate(k, omega(k, n))
        if g.structure.invariant_factors != (n,):
            ok = False
            break
    report(1, ok, capsys)


def test_criterion_2_explicit_cocycle_identities(capsys):
    ok = all(verify_propA1(1, n) == 0 for n in range(2, 9))
    ok = ok and all(verify_propA1(2, n) == 0 for n in (2, 3, 4))
    report(2, ok, capsys)


def test_criterion_3_heisenberg_laws(capsys):
    ok = True
    for n in (2, 3, 4, 5):
        # heis_comm_pow raises on any closed-form/table disagreement.
        for t1 in itertools.product(range(n), repeat=3):
            for t2 in itertools.product(range(n), repeat=3):
                heis_comm_pow(HeisElem(n, *t1), HeisElem(n, *t2))
        cs = central_series(to_table_group(n), n)
        ok = ok and cs.sizes[:3] == (n ** 3, n, 1)
        # The library's own check, on coordinate arrays, must agree.
        ok = ok and verify_laws(n)["ok"]
    # Extension cocycle via the standard section equals the coordinate cup.
    for n in (2, 3):
        g = to_table_group(n)
        vals = np.zeros((n * n, n * n), dtype=np.int64)
        for a, b in itertools.product(range(n), repeat=2):
            for a2, b2 in itertools.product(range(n), repeat=2):
                vals[a * n + b, a2 * n + b2] = g.mul((a * n + b) * n, (a2 * n + b2) * n) % n
        cup, _ = make_U_B(2, n, [1, 0], [0, 1])
        ok = ok and bool(np.array_equal(vals % n, cup.values))
    report(3, ok, capsys)


def test_criterion_4_machinery_on_explicit_groups(capsys):
    matrix = [
        (to_table_group(2), 2),
        (to_table_group(3), 3),
        (cyclic_group(4), 2),
        (cyclic_group(9), 3),
        (elementary_group(2, 2), 2),
    ]
    ok = True
    for g, n in matrix:
        rep = verify_thm23_and_omegaR(g, n, seed=0)
        ok = ok and rep.ok and rep.identity_violations == 0
    for n in (2, 3):
        ker = kernel_of_inflation(central_series(to_table_group(n), n))
        ok = ok and len(ker) == 1
        ok = ok and ker[0].cup.tolist() == [[0, 1], [0, 0]] and not ker[0].bockstein.any()
    report(4, ok, capsys)


def test_criterion_5_kernel_classes_span(capsys):
    ok = True
    for p, n in criterion_matrix():
        k = make_field(p, n=n)
        w = omega(k, n)
        span = tables.kernel_class_span(k, w)
        if span.canonical.entries.tolist() != [[1]]:
            ok = False
            break
        # Cross-check through the cohomology-class normal form: the two
        # kernel classes, written in the k=1 basis, generate Z/n.
        rows = []
        for x in k.table_points:
            dx = k.dlog(x) % n
            dy = k.dlog(k.one_minus(x)) % n
            dw = k.dlog(w.element) % n
            c1 = H2Class(k=1, n=n, cup=np.array([[dx * dy]]), bockstein=np.array([0]))
            c2 = H2Class(k=1, n=n, cup=np.array([[dx * dw]]), bockstein=np.array([dx]))
            rows.append(c1.coeff_vector())
            rows.append(c2.coeff_vector())
        st = modring.structure(modring.canonicalize(ModMatrix(n, np.stack(rows))))
        if st.invariant_factors != (n,):
            ok = False
            break
    report(5, ok, capsys)


def test_criterion_6_relation_conditions_consistent(capsys):
    ok = True
    for p, n in [(13, 3), (17, 4), (13, 6), (29, 7)]:
        k = make_field(p, n=n)
        w = omega(k, n)
        rng = random.Random(97 * p + n)
        for _ in range(1000):
            fam = [
                (KummerCharacter(k, n, rng.randrange(n)), KummerCharacter(k, n, rng.randrange(n)))
                for _ in range(rng.randrange(0, 4))
            ]
            # relation_check raises if the computed conditions ever disagree.
            rep = relations.relation_check(fam, w)
            for sols in rep.witnesses_a + rep.witnesses_b:
                ok = ok and len(sols) > 0
            if n <= 4:
                ok = ok and rep.cond5 == rep.cond1
    report(6, ok, capsys)


def test_criterion_7_restriction_functoriality(capsys):
    ok = True
    for p, n in [(7, 3), (5, 2), (13, 4)]:
        sub = make_field(p, n=n)
        sup = make_field(p, k=2, n=n)
        w = omega(sup, n)
        chars = characters(sup)
        words = [FormalWord((PowTerm(f),)) for f in chars]
        words += [FormalWord((CommTerm(f, g),)) for f in chars for g in chars]
        ok = ok and tables.restriction_check(sup, sub, words, w)
    report(7, ok, capsys)


def _closure(rows, n, width):
    seen = {(0,) * width}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for r in rows:
            w = tuple((a + b) % n for a, b in zip(v, r))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def test_criterion_8_oracle_equivalences(capsys):
    ok = True
    rng = random.Random(8)
    # Linear algebra vs brute-force closure.
    for _ in range(150):
        n = rng.choice([2, 3, 4, 5, 6])
        width = rng.randrange(1, 5)
        rows = [[rng.randrange(n) for _ in range(width)] for _ in range(rng.randrange(1, 4))]
        sub = modring.canonicalize(ModMatrix.from_rows(rows, n, cols=width))
        span = _closure(rows, n, width)
        ok = ok and modring.structure(sub).order == len(span)
        for _ in range(8):
            v = tuple(rng.randrange(n) for _ in range(width))
            ok = ok and modring.membership(sub, v) == (v in span)
    # Coboundary solver vs exhaustive cochain search.
    groups = [cyclic_group(4), elementary_group(2, 2), to_table_group(2), cyclic_group(8), cyclic_group(16)]
    for g in groups:
        cases = [zero_cocycle(g, 2).values]
        for _ in range(2):
            u = np.array([rng.randrange(2) for _ in range(g.order)])
            cases.append((u[:, None] + u[None, :] - u[g.table]) % 2)
        for vals in cases:
            got = solve_coboundary(Cocycle2(g, 2, vals))
            brute = None
            for bits in itertools.product(range(2), repeat=g.order):
                u = np.array(bits)
                if not ((u[:, None] + u[None, :] - u[g.table] - vals) % 2).any():
                    brute = u
                    break
            ok = ok and (got is None) == (brute is None)
    report(8, ok, capsys)
