"""Linear algebra over Z/n, validated against brute-force closure oracles."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abelcentral import modring
from abelcentral.errors import DimensionError, ModulusError, TheoremViolationError
from abelcentral.modring import ModMatrix, Residue, binom2


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


class TestResidue:
    def test_reduction(self):
        assert Residue(7, 5).value == 2
        assert Residue(-1, 5).value == 4

    def test_arithmetic(self):
        a, b = Residue(3, 7), Residue(5, 7)
        assert (a + b).value == 1
        assert (a - b).value == 5
        assert (a * b).value == 1
        assert (-a).value == 4
        assert int(a + 4) == 0

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ModulusError):
            Residue(1, 5) + Residue(1, 7)

    def test_bad_modulus(self):
        with pytest.raises(ModulusError):
            Residue(0, 1)


@pytest.mark.parametrize("n,expected", [(2, 1), (3, 0), (4, 2), (5, 0), (6, 3), (7, 0), (8, 4)])
def test_binom2(n, expected):
    assert binom2(n).value == expected


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

    def test_failed_substitution_raises(self, monkeypatch):
        # A solution that fails its own re-verification is a fault, not "no solution".
        a = ModMatrix(5, np.array([[1, 2], [0, 3]]))
        b = [4, 1]
        assert modring.solve_linear(a, b) is not None
        monkeypatch.setattr(modring, "_matvec", lambda mat, x, n: (mat @ x + 1) % n)
        with pytest.raises(TheoremViolationError, match="fails substitution"):
            modring.solve_linear(a, b)
