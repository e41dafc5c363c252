"""Finite field arithmetic, discrete logs, characters, and embeddings."""

import itertools
import math
import random
import time
from typing import Sequence

import numpy as np
import pytest
import sympy

from abelcentral import finfield
from abelcentral.errors import DomainError, HypothesisError, ModulusError, TheoremViolationError
from abelcentral.finfield import (
    FieldEmbedding,
    KummerCharacter,
    char_eval,
    characters,
    embed_field,
    is_irreducible,
    make_field,
    omega,
    restrict_character,
)

import sympy_oracle


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod_poly: Sequence[int], p: int) -> list[int]:
    k = len(mod_poly) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce modulo the monic mod_poly
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * mod_poly[j]) % p
    return prod[:k] + [0] * max(0, k - len(prod))


def oracle_mul(field, a, b):
    """Oracle: a * b by the schoolbook product of coefficient lists, reduced by the defining polynomial."""
    p, k = field.p, field.k
    digits = [[x // p**i % p for i in range(k)] for x in (a, b)]
    # A prime field multiplies constants, which no monic linear modulus reduces.
    coeffs = _poly_mulmod(*digits, list(field.poly) if field.poly else [0, 1], p)
    return sum(c * p**i for i, c in enumerate(coeffs))


def oracle_add(field, a, b, sign=1):
    """Oracle: a + sign * b, coefficient by coefficient in Python integers."""
    p = field.p
    return sum((a // p**i + sign * (b // p**i)) % p * p**i for i in range(field.k))


def oracle_order(field, x):
    """Oracle: the multiplicative order of the unit x, by repeated oracle products."""
    acc, order = x, 1
    while acc != 1:
        acc, order = oracle_mul(field, acc, x), order + 1
    return order


def extension_degrees(bound):
    """(p, k) for every extension field F_{p^k}, k >= 2, of order at most bound."""
    return [(int(p), k) for p in sympy.primerange(2, math.isqrt(bound) + 1) for k in range(2, bound.bit_length()) if p**k <= bound]


def fields_up_to(bound):
    """F_q for every prime power 3 <= q <= bound, with n the least prime factor of q - 1."""
    out = []
    for p in sympy.primerange(2, bound + 1):
        q, deg = p, 1
        while q <= bound:
            if q >= 3:
                out.append(make_field(int(p), k=deg, n=min(sympy.primefactors(q - 1))))
            q, deg = q * p, deg + 1
    return out


class TestIrreducibility:
    @pytest.mark.parametrize("poly,p,expected", [
        ((1, 1), 2, True),        # x + 1
        ((1, 1, 1), 2, True),     # x^2 + x + 1
        ((1, 0, 1), 2, False),    # x^2 + 1 = (x+1)^2 over F_2
        ((2, 0, 1), 5, True),     # x^2 + 2 over F_5
        ((1, 0, 1), 7, True),     # x^2 + 1 over F_7
        ((6, 0, 1), 7, False),    # x^2 - 1
        ((1, 2), 5, False),       # 2x + 1 is not monic
        ((1,), 5, False),         # constants are not irreducible
    ])
    def test_known(self, poly, p, expected):
        assert is_irreducible(poly, p) == expected

    @pytest.mark.parametrize("p,d", [(2, d) for d in range(1, 9)] + [
        (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2),
    ])
    def test_gauss_count(self, p, d):
        # Monic irreducibles of degree d over F_p: (1/d) sum_{e | d} mu(e) p^(d/e).
        def mobius(e):
            out, m, r = 1, e, 2
            while r * r <= m:
                if m % r == 0:
                    m //= r
                    if m % r == 0:
                        return 0
                    out = -out
                r += 1
            return -out if m > 1 else out

        expected = sum(mobius(e) * p ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
        found = sum(is_irreducible(list(low) + [1], p) for low in itertools.product(range(p), repeat=d))
        assert found == expected

    def test_against_the_sympy_oracle(self):
        # 32 seeded monic candidates for each of the 93 extension fields of
        # order at most 2^16, and the first irreducible of each degree.
        rng = random.Random(16)
        degrees = extension_degrees(2**16)
        assert len(degrees) == 93
        for p, k in degrees:
            for _ in range(32):
                cand = [rng.randrange(p) for _ in range(k)] + [1]
                assert is_irreducible(cand, p) == sympy_oracle.is_irreducible(cand, p), (cand, p)

    def test_characteristic_at_the_int64_bound(self):
        # Products of residues mod 2^31 - 1 overflow int64 once k of them are
        # summed; above 2^31 - 1 the Howell rank test cannot reduce at all.
        p = 2**31 - 1
        for cand in [(1, 0, 1), (p - 1, 0, 1), (7, 0, 0, 1), (p - 8, 0, 0, 1), (2, 5, 0, 1), (1, 1, 0, 0, 1)]:
            assert is_irreducible(cand, p) == sympy_oracle.is_irreducible(cand, p), cand
        assert is_irreducible((5, 1), 2**31 + 11)
        with pytest.raises(ModulusError):
            is_irreducible((1, 0, 1), 2**31 + 11)


def oracle_primes():
    """Every prime below 5000 and a fixed sample of 300 primes up to 2^20 (sympy's sieve)."""
    large = list(sympy.primerange(5000, 2**20 + 1))
    return [int(p) for p in sympy.primerange(2, 5000)] + sorted(random.Random(20).sample(large, 300))


def reads_as_prime(p):
    """Whether make_field accepts p as a characteristic; n = max(p, 2) stops it before any table."""
    try:
        make_field(p, n=max(p, 2))
    except HypothesisError:
        return True
    except DomainError as exc:
        if "is not prime" in str(exc):
            return False
        raise
    raise AssertionError("n = p must fail the Kummer hypothesis")


class TestPrimeField:
    def test_generator_is_sympys_primitive_root(self):
        # sympy is the oracle only; the library finds the generator with pow.
        for p in oracle_primes():
            assert finfield._generator(p, 1, None) == sympy.primitive_root(p), p

    def test_primality_agrees_with_sympy(self):
        for p in itertools.chain(range(-5, 10**4 + 1), range(2**20 - 500, 2**20 + 1)):
            assert reads_as_prime(p) == sympy.isprime(p), p

    @pytest.mark.parametrize("p", [-3, 0, 1, 4, 91, 2**20 - 1, 2**20])
    def test_not_prime(self, p):
        with pytest.raises(DomainError, match="is not prime"):
            make_field(p, n=3)

    @pytest.mark.parametrize("p,k", [(2, 10**9), (10**18 + 9, 1), (2**21, 1), (2, 21), (1048573, 2)])
    def test_bounds_before_any_arithmetic(self, p, k):
        # p and k are bounded before p**k is formed or p is factored.
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(DomainError, match="exceeds the supported bound"):
                make_field(p, k=k, n=3)
            best = min(best, time.perf_counter() - start)
        assert best < 0.01

    def test_generator_and_dlogs(self):
        k = make_field(7, n=3)
        assert k.generator == 3
        assert k.dlog(3) == 1
        assert k.dlog(1) == 0
        assert k.dlog(6) == 3

    def test_field_axioms_exhaustive(self):
        k = make_field(11, n=2)
        for a in range(11):
            for b in range(11):
                assert k.add(a, b) == (a + b) % 11
                assert k.mul(a, b) == (a * b) % 11
        for a in range(1, 11):
            assert k.mul(a, k.inv(a)) == 1

    def test_mu_n_hypothesis(self):
        with pytest.raises(HypothesisError):
            make_field(7, n=4)

    def test_dlog_of_zero(self):
        k = make_field(5, n=2)
        with pytest.raises(DomainError):
            k.dlog(0)


class TestExtensionField:
    def test_canonical_poly(self):
        k = make_field(5, k=2, n=2)
        assert k.poly == (2, 0, 1)

    def test_descriptors_against_the_sympy_oracle(self):
        # Every extension field of order at most 2^16: its polynomial is the
        # first irreducible and its generator the first of order q - 1.
        for p, k in extension_degrees(2**16):
            field = make_field(p, k=k, n=min(sympy.primefactors(p**k - 1)))
            poly = sympy_oracle.first_irreducible(p, k)
            assert (field.poly, field.generator) == (poly, sympy_oracle.generator(p, k, poly)), (p, k)

    def test_dlog_homomorphism(self):
        k = make_field(5, k=2, n=2)
        q = k.q
        for a in k.units():
            for b in k.units():
                assert (k.dlog(a) + k.dlog(b)) % (q - 1) == k.dlog(oracle_mul(k, a, b))

    def test_exp_dlog_roundtrip(self):
        k = make_field(3, k=3, n=2)
        for x in k.units():
            assert k.exp(k.dlog(x)) == x

    def test_one_minus(self):
        k = make_field(7, k=2, n=3)
        for x in k.elements():
            assert k.add(k.one_minus(x), x) == 1

    def test_table_arithmetic_against_the_oracle(self):
        k = make_field(5, k=2, n=2)
        for a in k.elements():
            for b in k.elements():
                assert k.mul(a, b) == oracle_mul(k, a, b)
            acc = 1
            for e in range(6):
                assert k.pow(a, e) == acc  # pow(0, 0) == 1
                acc = oracle_mul(k, acc, a)
            if a:
                assert oracle_mul(k, k.inv(a), a) == 1
                assert k.pow(a, -2) == k.inv(oracle_mul(k, a, a))
        for bad in (lambda: k.inv(0), lambda: k.pow(0, -1)):
            with pytest.raises(DomainError):
                bad()

    def test_additive_law(self):
        k = make_field(7, k=2, n=3)
        for a in k.elements():
            assert k.one_minus(a) == oracle_add(k, 1, a, -1)
            assert k.neg(a) == oracle_add(k, 0, a, -1)
            for b in k.elements():
                assert k.add(a, b) == oracle_add(k, a, b)
                assert k.sub(a, b) == oracle_add(k, a, b, -1)


class TestAdditiveRange:
    """add, sub, neg and one_minus refuse operands outside [0, q), as mul does."""

    @pytest.mark.parametrize("q_args,call", [
        ((13, 1), lambda k: k.neg(99)),
        ((13, 1), lambda k: k.add(-1, 1)),
        ((13, 1), lambda k: k.sub(5, 13)),
        ((13, 1), lambda k: k.one_minus(13)),
        ((13, 1), lambda k: k.add(2**70, 1)),
        ((13, 1), lambda k: k.one_minus(np.array([2, 12, -3]))),
        ((13, 1), lambda k: k.add(np.arange(14), 0)),
        ((2, 2), lambda k: k.add(4, 1)),
        ((2, 2), lambda k: k.add(99, 1)),
        ((2, 2), lambda k: k.neg(np.array([[0, 1], [5, 2]]))),
    ])
    def test_outside_raises(self, q_args, call):
        # F_13 used to give neg(99) = 5 and F_4 add(4, 1) = 1.  2**70 is
        # refused as beyond int64.
        p, deg = q_args
        with pytest.raises(DomainError, match=r"field elements(: -?\d+ outside \[0, \d+\)| must be integers of at most 64 bits)"):
            call(make_field(p, k=deg, n=3))

    @pytest.mark.parametrize("call", [
        lambda k: k.add(1.5, 1),
        lambda k: k.add([1, 2], [3, 1.5]),
        lambda k: k.sub(np.array([2.0]), 1),
        lambda k: k.neg(np.float32(3)),
        lambda k: k.one_minus(True),
        lambda k: k.add([2**70, 1.5], 0),
        lambda k: k.add(None, 1),
    ])
    def test_not_an_integer_raises(self, call):
        # The int64 cast used to truncate: add(1.5, 1) gave 2 and
        # add([1, 2], [3, 1.5]) gave [4, 3] on F_13.
        with pytest.raises(DomainError, match="field elements must be integers"):
            call(make_field(13, n=3))

    @pytest.mark.parametrize("call,message", [
        (lambda k: k.mul(2.5, 3), "field element must be an integer, got 2.5"),
        (lambda k: k.mul(0.0, 3), "field element must be an integer, got 0.0"),
        (lambda k: k.mul(True, 3), "field element must be an integer, got True"),
        (lambda k: k.mul(3, None), "field element must be an integer, got None"),
        (lambda k: k.dlog(2.0), "field element must be an integer, got 2.0"),
        (lambda k: k.dlog(True), "field element must be an integer, got True"),
        (lambda k: k.dlog(np.float64(3)), "field element must be an integer, got np.float64\\(3.0\\)"),
        (lambda k: k.pow(2, 1.5), "exponent must be an integer, got 1.5"),
        (lambda k: k.pow(0, 1.5), "exponent must be an integer, got 1.5"),
        (lambda k: k.pow(2.0, 3), "field element must be an integer, got 2.0"),
        (lambda k: k.exp(1.5), "exponent must be an integer, got 1.5"),
        (lambda k: k.exp(False), "exponent must be an integer, got False"),
        (lambda k: k.inv(2.0), "field element must be an integer, got 2.0"),
    ])
    def test_multiplicative_operand_not_an_integer(self, call, message):
        # The first operand reached the exp/dlog tables as given: 2.5 and 2.0
        # raised numpy's bare IndexError, True a TypeError (read as a mask),
        # and mul(0.0, 3) returned 0.
        with pytest.raises(DomainError, match=message):
            call(make_field(13, n=3))

    @pytest.mark.parametrize("call", [
        lambda k: k.mul(0, 99),
        lambda k: k.mul(99, 0),
        lambda k: k.mul(0, -1),
        lambda k: k.mul(-1, 0),
        lambda k: k.mul(0, 13),
    ])
    def test_zero_operand_does_not_skip_the_range_check(self, call):
        # A 0 operand returned 0 before the other was checked: on F_13
        # mul(0, 99) and mul(99, 0) gave 0 where mul(2, 99) raised.
        with pytest.raises(DomainError, match=r"field element: -?\d+ outside \[0, 13\)"):
            call(make_field(13, n=3))

    def test_zero_operand_in_range(self):
        k = make_field(13, n=3)
        assert k.mul(0, 5) == k.mul(5, 0) == k.mul(0, 0) == k.mul(0, 12) == 0

    def test_multiplicative_numpy_integers_pass(self):
        k = make_field(13, n=3)
        assert k.mul(np.int64(2), np.uint8(3)) == 6 and k.dlog(np.int32(1)) == 0
        assert k.pow(np.int16(2), np.int64(-1)) == 7 == k.inv(np.int64(2))
        assert k.exp(np.uint64(12)) == 1

    @pytest.mark.parametrize("p,deg", [(13, 1), (2, 2)])
    def test_edges_pass(self, p, deg):
        k = make_field(p, k=deg, n=3)
        x = np.arange(k.q)
        assert k.add(x, 0).tolist() == x.tolist()
        assert k.sub(k.q - 1, k.q - 1) == 0 and k.neg(0) == 0
        assert k.one_minus(np.array(1)) == 0


class TestPointDlogs:
    @pytest.mark.parametrize("p,deg,n", [(13, 1, 3), (101, 1, 4), (7, 2, 3), (5, 2, 4), (3, 3, 2), (5, 3, 4)])
    def test_table_lookup_matches_loop(self, p, deg, n):
        k = make_field(p, k=deg, n=n)
        dx, dy = k.point_dlogs
        assert dx.tolist() == [k.dlog(x) for x in k.table_points]
        assert dy.tolist() == [k.dlog(oracle_add(k, 1, x, -1)) for x in k.table_points]

    def test_read_only(self):
        for dl in make_field(5, k=2, n=4).point_dlogs:
            assert not dl.flags.writeable
            with pytest.raises(ValueError):
                dl[0] = 0


def point_types_oracle(k):
    """(classes, first, types) of the table points by a scan in table order,
    with scalar dlogs and the digit-loop 1 - x."""
    pairs = [(k.dlog(x) % k.n, k.dlog(oracle_add(k, 1, x, -1)) % k.n) for x in k.table_points]
    classes = sorted(set(pairs))
    first = {}
    for i, pair in enumerate(pairs):
        first.setdefault(pair, i)
    return classes, [first[c] for c in classes], [classes.index(pair) for pair in pairs]


class TestPointTypes:
    # Prime fields in integer order, and F_49 with n = 24 and F_81 with
    # n = 40, whose points are in dlog order and n is close to q.
    @pytest.mark.parametrize("p,deg,n", [
        (13, 1, 3), (13, 1, 12), (41, 1, 10), (61, 1, 15), (101, 1, 4), (7, 2, 24), (3, 4, 40), (3, 4, 8),
    ])
    def test_matches_scan(self, p, deg, n):
        k = make_field(p, k=deg, n=n)
        classes, first, types = k.point_types
        want_classes, want_first, want_types = point_types_oracle(k)
        assert classes.shape == (len(want_classes), 2)
        assert [tuple(c) for c in classes.tolist()] == want_classes
        assert first.tolist() == want_first
        assert types.tolist() == want_types

    def test_read_only_and_cached(self):
        k = make_field(7, k=2, n=24)
        assert k.point_types is k.point_types
        for arr in k.point_types:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0


class TestDlogTable:
    @pytest.mark.parametrize("p,deg,n", [
        (101, 1, 4), (7, 2, 3), (13, 2, 4), (3, 5, 2), (2, 8, 3), (2, 12, 3), (3, 7, 2),
    ])
    def test_against_the_scalar_law(self, p, deg, n):
        k = make_field(p, k=deg, n=n)
        exp, dlog = k._tables
        g = k.generator
        for i in range(k.q - 2):
            assert exp[i + 1] == oracle_mul(k, int(exp[i]), g)
        assert oracle_mul(k, int(exp[-1]), g) == 1
        for i, x in enumerate(exp.tolist()):
            assert dlog[x] == i
        # Oracle: the definition of the point order, all x outside {0, 1}
        # ascending, re-sorted by discrete log in an extension field.
        pts = [x for x in k.elements() if x not in (0, 1)]
        if deg > 1:
            pts.sort(key=k.dlog)
        assert k.table_points == tuple(pts)

    def test_generator_is_the_least_element_of_full_order(self):
        for k in fields_up_to(1024):
            full = next(x for x in k.units() if oracle_order(k, x) == k.q - 1)
            assert k.generator == full, (k.p, k.k)

    def test_two_to_the_twenty(self):
        k = make_field(2, k=20, n=3)
        exp, _ = k._tables
        for i in random.Random(20).sample(range(k.q - 1), 1000):
            assert k.dlog(k.exp(i)) == i
            assert k.exp(i + 1) == oracle_mul(k, int(exp[i]), k.generator)

    @pytest.mark.parametrize("p,deg", [(13, 1), (5, 2), (2, 8)])
    def test_non_generator_fails_the_table_check(self, p, deg, monkeypatch):
        # 4 has order below q - 1 in each field: a square in F_13, -1 in F_25,
        # and X^2 in F_256, where X has order 51.
        monkeypatch.setattr(finfield, "_generator", lambda p, k, poly: 4)
        with pytest.raises(TheoremViolationError, match="generator order verification failed"):
            make_field(p, k=deg, n=3 if p != 5 else 2)

    def test_order_above_the_bound(self):
        # 1048583 is the least prime above 2^20 = FIELD_MAX.
        assert finfield.FIELD_MAX == 2**20
        with pytest.raises(DomainError, match="exceeds the supported bound"):
            make_field(1048583, n=2)

    def test_largest_prime_below_the_bound(self):
        k = make_field(1048573, n=2)
        assert k.dlog(k.exp(12345)) == 12345


class TestOmega:
    @pytest.mark.parametrize("p,n,expected", [(7, 3, 2), (13, 4, 8), (7, 6, 3)])
    def test_values(self, p, n, expected):
        k = make_field(p, n=n)
        assert omega(k, n).element == expected

    def test_primitivity(self):
        k = make_field(13, n=6)
        w = omega(k, 6)
        orders = {pow(w.element, i, 13) for i in range(1, 6)}
        assert 1 not in orders
        assert pow(w.element, 6, 13) == 1

    def test_index_must_be_unit(self):
        k = make_field(13, n=4)
        with pytest.raises(DomainError):
            omega(k, 4, index=2)

    @pytest.mark.parametrize("n,index,message", [
        (3, 2.5, "omega index must be an integer, got 2.5"),
        (3, True, "omega index must be an integer, got True"),
        (3.0, 1, "modulus must be an integer, got 3.0"),
    ])
    def test_not_an_integer(self, n, index, message):
        # math.gcd raised a bare TypeError.
        with pytest.raises(DomainError, match=message):
            omega(make_field(13, n=3), n, index=index)

    @pytest.mark.parametrize("n", [0, -3])
    def test_modulus_below_two(self, n):
        # 0 used to die with ZeroDivisionError, -3 to give a root of order -3.
        k = make_field(13, n=3)
        with pytest.raises(ModulusError):
            omega(k, n)


class TestCharacters:
    def test_character_space_size(self):
        k = make_field(7, n=3)
        assert len(characters(k)) == 3

    def test_homomorphism_exhaustive(self):
        k = make_field(13, n=4)
        for f in characters(k):
            for a in k.units():
                for b in k.units():
                    assert (f(a) + f(b)) % 4 == f(a * b % 13)

    def test_zero_rejected(self):
        k = make_field(5, n=2)
        with pytest.raises(DomainError):
            char_eval(KummerCharacter(k, 2, 1), 0)

    @pytest.mark.parametrize("n,index,message", [
        (3, 2.5, "omega index must be an integer, got 2.5"),
        (3, True, "omega index must be an integer, got True"),
        (3.0, 1, "modulus must be an integer, got 3.0"),
    ])
    def test_not_an_integer(self, n, index, message):
        # math.gcd raised a bare TypeError.
        with pytest.raises(DomainError, match=message):
            omega(make_field(13, n=3), n, index=index)

    @pytest.mark.parametrize("n", [0, -3])
    def test_modulus_below_two(self, n):
        # 0 used to die with ZeroDivisionError, -3 to give c = -2 and chi(2) = -2.
        k = make_field(13, n=3)
        with pytest.raises(ModulusError):
            KummerCharacter(k, n, 1)

    @pytest.mark.parametrize("c", [2.5, 2.0, "1", None])
    def test_value_not_an_integer(self, c):
        # 2.5 used to be kept: chi(2) = 2.5 and chi(4) = 2.0 on F_13 mod 3.
        k = make_field(13, n=3)
        with pytest.raises(DomainError, match="integer"):
            KummerCharacter(k, 3, c)

    @pytest.mark.parametrize("a", [2.5, 2.0, "2", None])
    def test_scale_not_an_integer(self, a):
        # scale(2.5) used to give c = 2.5 (and 0.25 from c = 1.5), scale(None)
        # a bare TypeError.
        k = make_field(13, n=3)
        with pytest.raises(DomainError, match="integer"):
            KummerCharacter(k, 3, 1).scale(a)

    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_bool_is_not_an_integer(self, value):
        # True used to run as 1, so the CLI read "sigma": true as 1.
        k = make_field(13, n=3)
        with pytest.raises(DomainError, match="must be an integer"):
            KummerCharacter(k, 3, value)
        with pytest.raises(DomainError, match="must be an integer"):
            KummerCharacter(k, 3, 1).scale(value)

    def test_one_family_check(self):
        # Every site that takes a family of characters refuses one from
        # another field or modulus with the same error.
        from abelcentral import heisenberg, relations, tables

        k, other = make_field(13, n=3), make_field(19, n=3)
        w = omega(k, 3)
        f, far, wide = KummerCharacter(k, 3, 1), KummerCharacter(other, 3, 1), KummerCharacter(k, 6, 1)
        calls = [
            lambda g: f + g,
            lambda g: tables.phi(f, g, w),
            lambda g: tables.psi(g, w),
            lambda g: tables.FormalWord((tables.CommTerm(f, f), tables.PowTerm(g))),
            lambda g: relations.relation_check([(f, g)], w),
            lambda g: heisenberg.enumerate_homs_check([(g, f)], k),
        ]
        for call, g in itertools.product(calls, (far, wide)):
            with pytest.raises(ModulusError, match="characters must share the field F_13 and the modulus 3"):
                call(g)

    def test_numpy_integer_values(self):
        k = make_field(13, n=3)
        f = KummerCharacter(k, 3, np.int64(5))
        assert f.c == 2 and type(f.c) is int
        assert f.scale(np.int32(2)).c == 1 and f == KummerCharacter(k, 3, 2)

    def test_linearity(self):
        k = make_field(7, n=6)
        f = KummerCharacter(k, 6, 2)
        g = KummerCharacter(k, 6, 5)
        for x in k.units():
            assert (f + g)(x) == (f(x) + g(x)) % 6
            assert f.scale(4)(x) == (4 * f(x)) % 6


def oracle_embed_exponent(sub, sup):
    """Oracle: the exponent of the smallest unit u whose map is additive on all q_K^2 pairs."""
    e = (sup.q - 1) // (sub.q - 1)
    for u in range(1, sub.q):
        if math.gcd(u, sub.q - 1) != 1:
            continue
        emb = FieldEmbedding(sub=sub, sup=sup, exponent=e * u)
        if all(emb(sub.add(a, b)) == sup.add(emb(a), emb(b)) for a in sub.elements() for b in sub.elements()):
            return e * u
    raise AssertionError("no additive embedding")


class TestEmbedding:
    @pytest.mark.parametrize("p,k_sub,k_sup,n", [
        (5, 1, 2, 2), (7, 1, 2, 3), (13, 1, 2, 4), (101, 1, 2, 2), (3, 1, 6, 2),
        (2, 2, 4, 3), (2, 2, 6, 3), (2, 3, 6, 7), (3, 2, 4, 2), (5, 2, 4, 2),
    ])
    def test_exponent_against_pairwise_oracle(self, p, k_sub, k_sup, n):
        sub, sup = make_field(p, k=k_sub, n=n), make_field(p, k=k_sup, n=n)
        assert embed_field(sub, sup).exponent == oracle_embed_exponent(sub, sup)

    @pytest.mark.parametrize("p,n", [(7, 3), (5, 2), (13, 4)])
    def test_additive_and_multiplicative(self, p, n):
        sub = make_field(p, n=n)
        sup = make_field(p, k=2, n=n)
        emb = embed_field(sub, sup)
        for a in range(p):
            for b in range(p):
                assert emb(sub.add(a, b)) == sup.add(emb(a), emb(b))
                assert emb(oracle_mul(sub, a, b)) == oracle_mul(sup, emb(a), emb(b))

    def test_fixes_prime_subfield(self):
        sub = make_field(7, n=3)
        sup = make_field(7, k=2, n=3)
        emb = embed_field(sub, sup)
        for a in range(7):
            assert emb(a) == a

    def test_preimage_roundtrip(self):
        sub = make_field(5, n=2)
        sup = make_field(5, k=2, n=2)
        emb = embed_field(sub, sup)
        for x in sub.units():
            assert emb.preimage(emb(x)) == x

    def test_restrict_character_property(self):
        # The defining property: restricted(x) = f(embed(x)) for all x.
        sub = make_field(7, n=3)
        sup = make_field(7, k=2, n=3)
        emb = embed_field(sub, sup)
        for f in characters(sup):
            r = restrict_character(emb, f)
            for x in sub.units():
                assert r(x) == f(emb(x))
