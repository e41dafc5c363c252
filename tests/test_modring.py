"""Linear algebra over Z/n, validated against brute-force closure oracles."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abelcentral import modring
from abelcentral.errors import DimensionError, ModulusError, TheoremViolationError
from abelcentral.modring import ModMatrix, binom2


def closure_of(rows, n, width=None):
    """Oracle: all Z/n-combinations of the rows, as a frozenset of tuples."""
    rows = [tuple(int(v) % n for v in r) for r in rows]
    if width is None:
        width = len(rows[0]) if rows else 0
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


def rank_mod_p(rows, p):
    """Oracle: the rank of a matrix over F_p, by elimination in Python integers."""
    m = [[v % p for v in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] * inv % p
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("n,expected", [(2, 1), (3, 0), (4, 2), (5, 0), (6, 3), (7, 0), (8, 4)])
def test_binom2(n, expected):
    assert binom2(n) == expected


def test_binom2_bad_modulus():
    with pytest.raises(ModulusError):
        binom2(1)


class TestHowell:
    def test_idempotent(self):
        rng = random.Random(0)
        for _ in range(100):
            n = rng.choice([2, 3, 4, 5, 6, 8])
            k = rng.randrange(1, 5)
            rows = [[rng.randrange(n) for _ in range(k)] for _ in range(rng.randrange(1, 4))]
            m = ModMatrix.from_rows(rows, n, cols=k)
            h = modring.howell_form(m)
            assert modring.howell_form(h) == h

    def test_span_preserved(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.choice([2, 3, 4, 6])
            k = rng.randrange(1, 4)
            rows = [[rng.randrange(n) for _ in range(k)] for _ in range(rng.randrange(1, 4))]
            h = modring.howell_form(ModMatrix.from_rows(rows, n, cols=k))
            assert closure_of(rows, n) == closure_of(h.entries.tolist(), n, width=k)

    def test_canonical_for_equal_spans(self):
        # Two generating sets of the same subgroup must canonicalize equally.
        a = modring.howell_form(ModMatrix.from_rows([[2, 0], [0, 2]], 4))
        b = modring.howell_form(ModMatrix.from_rows([[2, 2], [0, 2]], 4))
        assert a == b


class TestMembership:
    def test_against_closure(self):
        rng = random.Random(2)
        for _ in range(150):
            n = rng.choice([2, 3, 4, 5, 6])
            k = rng.randrange(1, 5)
            rows = [[rng.randrange(n) for _ in range(k)] for _ in range(rng.randrange(1, 4))]
            sub = modring.canonicalize(ModMatrix.from_rows(rows, n, cols=k))
            span = closure_of(rows, n)
            for _ in range(10):
                v = tuple(rng.randrange(n) for _ in range(k))
                assert modring.membership(sub, v) == (v in span)

    def test_dimension_check(self):
        sub = modring.canonicalize(ModMatrix.from_rows([[1, 0]], 4))
        with pytest.raises(DimensionError):
            modring.membership(sub, [1, 0, 0])


class TestStructure:
    def test_order_against_closure(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.choice([2, 3, 4, 6, 8])
            k = rng.randrange(1, 4)
            rows = [[rng.randrange(n) for _ in range(k)] for _ in range(rng.randrange(1, 4))]
            sub = modring.canonicalize(ModMatrix.from_rows(rows, n, cols=k))
            st = modring.structure(sub)
            assert st.order == len(closure_of(rows, n))
            for a, b in zip(st.invariant_factors, st.invariant_factors[1:]):
                assert b % a == 0

    def test_known_cases(self):
        n = 4
        sub = modring.canonicalize(ModMatrix.from_rows([[1, 0], [0, 2]], n))
        assert modring.structure(sub).invariant_factors == (2, 4)
        sub2 = modring.canonicalize(ModMatrix.from_rows([[2, 2]], n))
        assert modring.structure(sub2).invariant_factors == (2,)

    def test_zero_subgroup(self):
        sub = modring.canonicalize(ModMatrix.from_rows([[0, 0]], 6))
        assert modring.structure(sub).invariant_factors == ()
        assert modring.structure(sub).order == 1


class TestNullspace:
    def test_kernel_property(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.choice([2, 3, 4, 6])
            r, c = rng.randrange(1, 4), rng.randrange(1, 4)
            m = ModMatrix(n, np.array([[rng.randrange(n) for _ in range(c)] for _ in range(r)]))
            ker = modring.nullspace(m)
            for row in ker.entries:
                assert not ((m.entries @ row) % n).any()

    def test_kernel_complete(self):
        # Every brute-force kernel vector must lie in the returned span.
        rng = random.Random(5)
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            r, c = rng.randrange(1, 3), rng.randrange(1, 4)
            m = ModMatrix(n, np.array([[rng.randrange(n) for _ in range(c)] for _ in range(r)]))
            ker = modring.canonicalize(modring.nullspace(m))
            for v in itertools.product(range(n), repeat=c):
                vec = np.array(v)
                if not ((m.entries @ vec) % n).any():
                    assert modring.membership(ker, vec)


class TestSolveLinear:
    def test_against_enumeration(self):
        rng = random.Random(6)
        for _ in range(200):
            n = rng.choice([2, 3, 4, 6])
            r, c = rng.randrange(1, 4), rng.randrange(1, 4)
            a = ModMatrix(n, np.array([[rng.randrange(n) for _ in range(c)] for _ in range(r)]))
            b = np.array([rng.randrange(n) for _ in range(r)])
            x = modring.solve_linear(a, b)
            brute = any(
                not ((a.entries @ np.array(v) - b) % n).any()
                for v in itertools.product(range(n), repeat=c)
            )
            assert (x is not None) == brute
            if x is not None:
                assert not ((a.entries @ x - b) % n).any()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_large_moduli_against_python_ints(self, data):
        # Oracle: the system is made solvable from a known x0 and every
        # product is taken in Python integers, which cannot overflow.
        n = data.draw(st.sampled_from([2**31 - 1, 65537, 2**16]), label="n")
        rows = data.draw(st.integers(1, 12), label="rows")
        cols = data.draw(st.integers(1, 12), label="cols")
        # Uniform entries from a drawn seed: hypothesis's own integers favour
        # small values, whose products never come near 2^63.
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        a = [[rng.randrange(n) for _ in range(cols)] for _ in range(rows)]
        x0 = [rng.randrange(n) for _ in range(cols)]

        def apply(x):
            return [sum(ai * int(xi) for ai, xi in zip(row, x)) % n for row in a]

        b = apply(x0)
        x = modring.solve_linear(ModMatrix(n, np.array(a, dtype=np.int64)), b)
        assert x is not None
        assert apply(x) == b

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_large_moduli_forms_against_python_ints(self, data):
        # Howell form, membership, nullspace and structure at moduli where
        # sums of products overflow int64; the oracle takes every product in
        # Python integers.  a = B C has drawn rank at most k, and its last column is
        # chosen so that the planted x0 (last entry a unit) is a kernel vector.
        n = data.draw(st.sampled_from([2**31 - 1, 65537, 2**16]), label="n")
        rows = data.draw(st.integers(1, 8), label="rows")
        cols = data.draw(st.integers(1, 8), label="cols")
        k = data.draw(st.integers(1, max(rows, cols)), label="k")
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        left = [[rng.randrange(n) for _ in range(k)] for _ in range(rows)]
        right = [[rng.randrange(n) for _ in range(cols)] for _ in range(k)]
        a = [[sum(x * y for x, y in zip(row, col)) % n for col in zip(*right)] for row in left]
        x0 = [rng.randrange(n) for _ in range(cols - 1)]
        unit = 2 * rng.randrange(n // 2) + 1  # odd, so a unit mod 2^16 and mod the odd primes
        for row in a:
            row[-1] = -sum(x * y for x, y in zip(row, x0)) * pow(unit, -1, n) % n
        x0.append(unit)

        def apply(x):
            return [sum(ai * int(xi) for ai, xi in zip(row, x)) % n for row in a]

        mat = ModMatrix(n, np.array(a, dtype=np.int64))
        h = modring.howell_form(mat)
        assert modring.howell_form(h) == h
        sub = modring.canonicalize(mat)
        assert all(modring.membership(sub, row) for row in a)
        coeffs = [rng.randrange(n) for _ in range(rows)]
        assert modring.membership(sub, [sum(c * row[j] for c, row in zip(coeffs, a)) % n for j in range(cols)])

        ker = modring.nullspace(mat)
        assert all(apply(row) == [0] * rows for row in ker.entries)
        assert apply(x0) == [0] * rows
        assert modring.membership(modring.canonicalize(ker), x0)

        if n != 2**16:  # the prime moduli: Z/n is a field
            assert modring.structure(sub).invariant_factors == (n,) * rank_mod_p(a, n)

    def test_failed_substitution_raises(self, monkeypatch):
        # A solution that fails its own re-verification is a fault, not "no solution".
        a = ModMatrix(5, np.array([[1, 2], [0, 3]]))
        b = [4, 1]
        assert modring.solve_linear(a, b) is not None
        monkeypatch.setattr(modring, "_matvec", lambda mat, x, n: (mat @ x + 1) % n)
        with pytest.raises(TheoremViolationError, match="fails substitution"):
            modring.solve_linear(a, b)
