"""The pair/power function tables and the subgroup they generate."""

import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import tables_oracle

from abelcentral import cli, modring, tables
from abelcentral.errors import DomainError, HypothesisError, ModulusError
from abelcentral.finfield import KummerCharacter, characters, make_field, omega
from abelcentral.modring import ModMatrix
from abelcentral.tables import CommTerm, FormalWord, PowTerm


def field_and_omega(p, n, k=1, index=1):
    f = make_field(p, k=k, n=n)
    return f, omega(f, n, index)


def ffrak_oracle(field, w):
    """Oracle: all n^2 pair tables and n power tables, one call each.

    Returns the distinct non-zero tables in first-appearance order and the
    invariant factors of their span.
    """
    chars = characters(field)
    distinct = {}
    for f in chars:
        for g in chars:
            t = tables.phi(f, g, w)
            distinct.setdefault(t.values.tobytes(), t)
    for f in chars:
        t = tables.psi(f, w)
        distinct.setdefault(t.values.tobytes(), t)
    gens = [t.values.tolist() for t in distinct.values() if not t.is_zero()]
    gens = gens or [[[0, 0]] * (field.q - 2)]
    sub = modring.canonicalize(ModMatrix(w.order, np.array(gens).reshape(len(gens), -1)))
    return gens, list(modring.structure(sub).invariant_factors)


def oracle_cases(bound=50):
    """(p, k, n, omega index): every n | p - 1 for primes p < bound, every
    unit index for n <= 12, and the five degree-2 fields of the benchmark."""
    primes = [p for p in range(3, bound) if all(p % d for d in range(2, p))]
    cases = []
    for p in primes:
        for n in range(2, p):
            if (p - 1) % n:
                continue
            units = [i for i in range(1, n) if math.gcd(i, n) == 1] if n <= 12 else [1]
            cases += [(p, 1, n, i) for i in units]
    cases += [(p, 2, n, 1) for p, n in [(3, 4), (5, 8), (7, 16), (11, 12), (13, 7)]]
    return cases


class TestPointOrder:
    def test_prime_field_ascending(self):
        k, _ = field_and_omega(7, 3)
        assert k.table_points == (2, 3, 4, 5, 6)

    def test_extension_dlog_order(self):
        k, _ = field_and_omega(5, 2, k=2)
        pts = k.table_points
        dlogs = [k.dlog(x) for x in pts]
        assert dlogs == sorted(dlogs)
        assert len(pts) == k.q - 2


class TestPhi:
    def test_alternating(self):
        k, w = field_and_omega(7, 3)
        for f in characters(k):
            assert tables.phi(f, f, w).is_zero()
            for c in range(3):
                assert tables.phi(f, f.scale(c), w).is_zero()

    def test_pointwise_formula(self):
        # Oracle: direct substitution into the defining formula at each point.
        k, w = field_and_omega(13, 4)
        f = KummerCharacter(k, 4, 3)
        g = KummerCharacter(k, 4, 1)
        t = tables.phi(f, g, w)
        for i, x in enumerate(t.points):
            y = k.one_minus(x)
            expected = (
                (f(x) * g(y) - f(y) * g(x)) % 4,
                (f(x) * g(w.element) - f(w.element) * g(x)) % 4,
            )
            assert tuple(t.values[i]) == expected

    def test_bilinear_antisymmetric_exhaustive(self):
        for p, n in [(5, 2), (7, 3), (13, 4), (13, 6), (29, 7), (41, 8)]:
            k, w = field_and_omega(p, n)
            chars = characters(k)
            for f in chars:
                for g in chars:
                    assert tables.phi(f, g, w) == tables.phi(g, f, w).scale(-1)
                    for f2 in chars:
                        lhs = tables.phi(f + f2, g, w)
                        assert lhs == tables.phi(f, g, w) + tables.phi(f2, g, w)

    def test_field_mismatch(self):
        k1, w1 = field_and_omega(7, 3)
        k2, _ = field_and_omega(13, 3)
        f = KummerCharacter(k2, 3, 1)
        with pytest.raises(ModulusError):
            tables.phi(f, f, w1)


class TestPsi:
    def test_zero_character(self):
        k, w = field_and_omega(7, 3)
        assert tables.psi(KummerCharacter(k, 3, 0), w).is_zero()

    def test_value_at_point(self):
        k, w = field_and_omega(7, 3)
        f = KummerCharacter(k, 3, 1)
        t = tables.psi(f, w)
        assert tuple(t.values[t.points.index(3)]) == (0, 1)

    def test_full_table_f5(self):
        k, w = field_and_omega(5, 2)
        t = tables.psi(KummerCharacter(k, 2, 1), w)
        assert t.points == (2, 3, 4)
        assert t.values.tolist() == [[0, 1], [1, 1], [0, 0]]

    def test_pointwise_formula(self):
        k, w = field_and_omega(17, 4)
        b2 = modring.binom2(4)
        f = KummerCharacter(k, 4, 3)
        t = tables.psi(f, w)
        for i, x in enumerate(t.points):
            y = k.one_minus(x)
            expected = (
                (b2 * f(x) * f(y)) % 4,
                (b2 * f(x) * f(w.element) + f(x)) % 4,
            )
            assert tuple(t.values[i]) == expected


class TestBatchKernels:
    @pytest.mark.parametrize("p,k,n", [(13, 1, 3), (13, 1, 12), (41, 1, 10), (7, 2, 8), (3, 4, 40)])
    def test_rows_equal_scalar_tables(self, p, k, n):
        # Row c of the psi batch is psi(c chi), row (c, d) of the phi batch
        # phi(c chi, d chi), for every c, d in Z/n.
        field, w = field_and_omega(p, n, k)
        dlogs = tables._omega_dlogs(w)
        c = np.arange(n)
        powers = tables._psi_values(c[:, None], *dlogs, n) % n
        pairs = tables._phi_values(c[:, None, None], c[None, :, None], *dlogs, n) % n
        assert powers.shape == (n, field.q - 2, 2) and pairs.shape == (n, n, field.q - 2, 2)
        for a in range(n):
            f = KummerCharacter(field, n, a)
            assert np.array_equal(powers[a], tables.psi(f, w).values)
            for b in range(n):
                assert np.array_equal(pairs[a, b], tables.phi(f, KummerCharacter(field, n, b), w).values)

    def test_unreduced_rows_on_any_dlogs(self):
        # On arbitrary dlog arrays the unreduced batch rows equal the scalar
        # kernel calls and the formulas in Python ints.
        n, dw = 40, 7
        dx, dy = np.random.default_rng(5).integers(0, n, size=(2, 50))
        c = np.arange(n)
        powers = tables._psi_values(c[:, None], dx, dy, dw, n)
        pairs = tables._phi_values(c[:, None, None], c[None, :, None], dx, dy, dw, n)
        b2 = n * (n - 1) // 2
        for a in range(n):
            assert np.array_equal(powers[a], tables._psi_values(a, dx, dy, dw, n))
            fx, fy, fw = (a * dx % n).tolist(), (a * dy % n).tolist(), a * dw % n
            assert powers[a].tolist() == [[b2 * x % n * y, b2 * x % n * fw + x] for x, y in zip(fx, fy)]
            for b in range(n):
                assert np.array_equal(pairs[a, b], tables._phi_values(a, b, dx, dy, dw, n))
            gx, gy, gw = (7 * dx % n).tolist(), (7 * dy % n).tolist(), 7 * dw % n
            assert pairs[a, 7].tolist() == [[x * v - y * u, x * gw - fw * u] for x, y, u, v in zip(fx, fy, gx, gy)]


class TestFfrak:
    @pytest.mark.parametrize("p,n", [(7, 3), (5, 2), (13, 4)])
    def test_invariant_factors(self, p, n):
        k, w = field_and_omega(p, n)
        g = tables.ffrak_generate(k, w)
        assert g.structure.invariant_factors == (n,)

    def test_brute_force_span_f7(self):
        # Oracle: enumerate the generated subgroup by closure and compare.
        k, w = field_and_omega(7, 3)
        g = tables.ffrak_generate(k, w)
        vecs = [tuple(t.flatten().tolist()) for t in g.generators]
        width = len(vecs[0])
        seen = {(0,) * width}
        frontier = list(seen)
        while frontier:
            v = frontier.pop()
            for r in vecs:
                nx = tuple((a + b) % 3 for a, b in zip(v, r))
                if nx not in seen:
                    seen.add(nx)
                    frontier.append(nx)
        assert len(seen) == g.structure.order == 3

    def test_parallelogram_membership(self):
        # psi(f+g) - psi(f) - psi(g) stays inside the generated subgroup.
        for p, n in [(5, 2), (7, 3), (13, 4)]:
            k, w = field_and_omega(p, n)
            grp = tables.ffrak_generate(k, w)
            for f in characters(k):
                for g in characters(k):
                    diff = tables.psi(f + g, w) - tables.psi(f, w) - tables.psi(g, w)
                    assert modring.membership(grp.subgroup, diff.flatten())

    def test_hypothesis_error(self):
        k = make_field(7, n=3)
        w = omega(k, 3)
        bad = make_field(13, n=3)
        with pytest.raises(ModulusError):
            tables.ffrak_generate(bad, w)

    def test_matches_all_pairs_oracle(self, capsys):
        for p, k, n, index in oracle_cases():
            field, w = field_and_omega(p, n, k=k, index=index)
            g = tables.ffrak_generate(field, w)
            gens, factors = ffrak_oracle(field, w)
            assert [t.values.tolist() for t in g.generators] == gens, (p, k, n, index)
            assert list(g.structure.invariant_factors) == factors, (p, k, n, index)
            argv = ["ffrak", "--p", str(p), "--k", str(k), "--n", str(n), "--omega-index", str(index)]
            assert cli.main(argv) == cli.EXIT_OK
            doc = {"p": p, "k": k, "n": n, "omega": w.element, "generators": gens, "invariant_factors": factors}
            assert capsys.readouterr().out == json.dumps(doc, sort_keys=True, indent=2) + "\n", argv

    def test_matches_array_oracle(self):
        # The span of psi(chi) against the route that built every multiple of
        # phi(chi, chi) and all n power tables: all criterion pairs (p < 200).
        for p, k, n, index in oracle_cases(200):
            field, w = field_and_omega(p, n, k=k, index=index)
            g = tables.ffrak_generate(field, w)
            assert "generators" not in vars(g)
            gens, sub, structure = tables_oracle.ffrak_arrays(field, w)
            case = (p, k, n, index)
            assert np.array_equal(g.subgroup.canonical.entries, sub.canonical.entries), case
            assert g.structure == structure, case
            assert [t.values.tolist() for t in g.generators] == [t.values.tolist() for t in gens], case

    @pytest.mark.parametrize("n", [256, 65536])
    def test_peak_memory_f65537(self, n):
        # The route over all n power tables held n x 2(q-2) int64 cells:
        # 1.5 GiB at n = 256, and 64 GiB at n = 65536.
        field, w = field_and_omega(65537, n)
        tracemalloc.start()
        try:
            g = tables.ffrak_generate(field, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.structure.invariant_factors == (n,)
        assert peak <= 32 * 2**20

    def test_generator_list_bound(self):
        # 65535 tables of 131070 cells: refused before any of them is built.
        field, w = field_and_omega(65537, 65536)
        g = tables.ffrak_generate(field, w)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="cells of the 65535 generator tables: 8589672450 exceeds"):
                g.generators
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_modulus_mismatch(self):
        # The characters have the field's modulus, which must be omega's order.
        k = make_field(13, n=4)
        with pytest.raises(ModulusError):
            tables.ffrak_generate(k, omega(k, 2))

    def test_field_is_not_kept_alive(self):
        k, w = field_and_omega(13, 4)
        tables.ffrak_generate(k, w)
        assert len(k.table_points) == k.q - 2
        tables.psi(KummerCharacter(k, 4, 1), w)
        ref = weakref.ref(k)
        del k, w
        gc.collect()
        assert ref() is None


class TestOmegaEval:
    def test_trivial_words(self):
        k, w = field_and_omega(13, 4)
        s = KummerCharacter(k, 4, 1)
        t = KummerCharacter(k, 4, 3)
        assert tables.omega_eval(FormalWord((CommTerm(s, s),)), w).is_zero()
        word = FormalWord((CommTerm(s, t), CommTerm(t, s)))
        assert tables.omega_eval(word, w).is_zero()

    def test_scaling(self):
        k, w = field_and_omega(7, 3)
        s = KummerCharacter(k, 3, 1)
        doubled = tables.omega_eval(FormalWord((PowTerm(s, 2),)), w)
        t = tables.psi(s, w)
        assert doubled == t + t
        assert tuple(doubled.values[doubled.points.index(3)]) == (0, 2)

    def test_mixed_moduli_rejected(self):
        k1, _ = field_and_omega(7, 3)
        k2, _ = field_and_omega(13, 3)
        with pytest.raises(ModulusError):
            FormalWord((CommTerm(KummerCharacter(k1, 3, 1), KummerCharacter(k2, 3, 1)),))


class TestRestriction:
    @pytest.mark.parametrize("p,n", [(7, 3), (5, 2), (13, 4)])
    def test_all_generator_words(self, p, n):
        sub = make_field(p, n=n)
        sup = make_field(p, k=2, n=n)
        w = omega(sup, n)
        chars = characters(sup)
        words = [FormalWord((PowTerm(f),)) for f in chars]
        words += [FormalWord((CommTerm(f, g),)) for f in chars for g in chars]
        assert tables.restriction_check(sup, sub, words, w)

    def test_incompatible_omega_rejected(self):
        sub = make_field(7, n=3)
        sup = make_field(7, k=2, n=3)
        w_l = omega(sup, 3)
        w_bad = omega(sub, 3, index=1)
        from abelcentral.finfield import embed_field

        emb = embed_field(sub, sup)
        derived = tables.compatible_omega(emb, w_l)
        if w_bad.element == derived.element:
            w_bad = omega(sub, 3, index=2)
        with pytest.raises(HypothesisError):
            tables.restriction_check(sup, sub, [], w_l, omega_k=w_bad)


class TestKernelClassSpan:
    @pytest.mark.parametrize("p,n", [(7, 3), (5, 2), (13, 4), (13, 6)])
    def test_full_span(self, p, n):
        k, w = field_and_omega(p, n)
        span = tables.kernel_class_span(k, w)
        assert span.canonical.entries.tolist() == [[1]]
