"""The mod-n Heisenberg group: law, closed forms, relation checks, all against
the literal one-element-at-a-time law of ``heisenberg_oracle``."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from abelcentral import heisenberg
from abelcentral.errors import DomainError, ModulusError, TheoremViolationError
from abelcentral.finfield import KummerCharacter, make_field
from abelcentral.heisenberg import (
    enumerate_homs_check,
    heis_pow_arrays,
    pointwise_embedding_check,
    to_table_group,
    verify_laws,
)
from heisenberg_oracle import (
    EmbeddingProblem,
    HeisElem,
    commutator_sum,
    heis_comm_pow,
    heis_mul,
    identity,
    order_of,
    solve_embedding_cyclic,
)


class TestGroupLaw:
    def test_displayed_law(self):
        assert heis_mul(HeisElem(3, 1, 0, 0), HeisElem(3, 0, 1, 0)) == HeisElem(3, 1, 1, 1)
        assert heis_mul(HeisElem(3, 0, 1, 0), HeisElem(3, 1, 0, 0)) == HeisElem(3, 1, 1, 0)
        assert heisenberg._mul(3, (1, 0, 0), (0, 1, 0)) == (1, 1, 1)
        assert heisenberg._mul(3, (0, 1, 0), (1, 0, 0)) == (1, 1, 0)

    def test_identity_and_inverse(self):
        for n in (2, 3, 4, 5):
            e = identity(n)
            for a, b, c in itertools.product(range(n), repeat=3):
                u = HeisElem(n, a, b, c)
                assert heis_mul(u, e) == u
                assert heis_mul(e, u) == u
                assert heis_mul(u, u.inv()).is_identity()
                assert heisenberg._inv(n, (a, b, c)) == (u.inv().a, u.inv().b, u.inv().c)

    def test_associativity_exhaustive_small(self):
        for n in (2, 3):
            elems = [HeisElem(n, *t) for t in itertools.product(range(n), repeat=3)]
            for u in elems:
                for v in elems:
                    uv = heis_mul(u, v)
                    for w in elems:
                        assert heis_mul(uv, w) == heis_mul(u, heis_mul(v, w))

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusError):
            heis_mul(HeisElem(2, 0, 0, 0), HeisElem(3, 0, 0, 0))


class TestClosedForms:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_all_pairs(self, n):
        # heis_comm_pow cross-checks against the literal law internally and
        # raises on any disagreement; this exercises every pair, and the
        # library's closed forms must give the same central coordinates.
        elems = list(itertools.product(range(n), repeat=3))
        oracle = [[heis_comm_pow(HeisElem(n, *t1), HeisElem(n, *t2)) for t2 in elems] for t1 in elems]
        u = tuple(np.array(elems).T[:, :, None])
        v = tuple(np.array(elems).T[:, None, :])
        assert heisenberg._comm(n, u, v).tolist() == [[c for c, _ in row] for row in oracle]
        powers = heis_pow_arrays(n, *u, n)[2][:, 0].tolist()
        assert powers == [row[0][1] for row in oracle]
        assert verify_laws(n)["pairs_checked"] == len(elems) ** 2

    def test_known_values(self):
        assert heis_comm_pow(HeisElem(3, 1, 0, 0), HeisElem(3, 0, 1, 0)) == (1, 0)
        assert heis_comm_pow(HeisElem(2, 1, 1, 0), HeisElem(2, 0, 0, 0))[1] == 1
        assert heis_comm_pow(HeisElem(3, 1, 1, 0), HeisElem(3, 0, 0, 0))[1] == 0
        assert heisenberg._comm(3, (1, 0, 0), (0, 1, 0)) == 1
        assert heis_pow_arrays(2, 1, 1, 0, 2)[2] == 1
        assert heis_pow_arrays(3, 1, 1, 0, 3)[2] == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exponent_divides_n_squared(self, n):
        assert heisenberg.exponent_divides_n2(n)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_exponent_check_sees_a_wrong_law(self, monkeypatch, n):
        # The central coordinate taken mod n + 1: h(0, 0; 1)^(n^2) = h(0, 0; 1).
        def wrong_mul(n, u, v):
            (a, b, c), (a2, b2, c2) = u, v
            return (a + a2) % n, (b + b2) % n, (c + c2 + a * b2) % (n + 1)

        monkeypatch.setattr(heisenberg, "_mul", wrong_mul)
        assert heisenberg.exponent_divides_n2.__wrapped__(n) is False

    def test_order_four_element(self):
        assert order_of(HeisElem(2, 1, 1, 0)) == 4
        assert to_table_group(2).order_of((1 * 2 + 1) * 2) == 4


def flipped_comm(n, u, v):
    """The closed-form commutator with the wrong sign, a'*b - a*b'."""
    return (v[0] * u[1] - u[0] * v[1]) % n


def halving_dropped_pow(n, a, b, c, m):
    """The closed-form power with m*(m - 1) in place of C(m, 2)."""
    return (m * a) % n, (m * b) % n, (m * c + m * (m - 1) * a * b) % n


class TestVerifyLaws:
    def test_report(self):
        assert verify_laws(3) == {
            "n": 3,
            "pairs_checked": 729,
            "series_sizes_ok": True,
            "extension_cocycle_ok": True,
            "ok": True,
        }

    def test_sign_flipped_commutator_raises(self, monkeypatch):
        monkeypatch.setattr(heisenberg, "_comm", flipped_comm)
        with pytest.raises(TheoremViolationError, match="commutator"):
            verify_laws(3)

    def test_wrong_power_coefficient_raises(self, monkeypatch):
        # C(4, 2) = 6 and 4 * 3 = 12 differ mod 4.
        monkeypatch.setattr(heisenberg, "heis_pow_arrays", halving_dropped_pow)
        with pytest.raises(TheoremViolationError, match="n-th power"):
            verify_laws(4)

    @pytest.mark.parametrize("n,error", [(1, ModulusError), (0, ModulusError), (-2, ModulusError), (22, DomainError)])
    def test_typed_errors_before_any_work(self, monkeypatch, n, error):
        def no_work(n):
            raise AssertionError("verify_laws enumerated elements before checking n")

        monkeypatch.setattr(heisenberg, "_elements", no_work)
        with pytest.raises(error):
            verify_laws(n)


class TestTableExport:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_table_matches_law(self, n):
        g = to_table_group(n)
        assert g.order == n ** 3
        elems = [HeisElem(n, *t) for t in itertools.product(range(n), repeat=3)]
        for i, u in enumerate(elems):
            for j, v in enumerate(elems):
                w = heis_mul(u, v)
                assert g.table[i, j] == (w.a * n + w.b) * n + w.c
        assert g.labels == tuple(f"h({u.a},{u.b};{u.c})" for u in elems)

    def test_exponent_three_for_n3(self):
        assert to_table_group(3).exponent() == 3

    def test_table_memory_n12(self):
        # Filled one (a, b) block at a time, with the group checks in row
        # blocks: the peak stays near the 22.8 MiB table.
        tracemalloc.start()
        try:
            g = to_table_group(12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * g.table.nbytes

    @pytest.mark.parametrize("n", [1, 0, -2])
    def test_modulus_below_two(self, n):
        with pytest.raises(ModulusError):
            to_table_group(n)

    def test_size_bound(self):
        # 22^3 = 10648 exceeds groups.TABLE_MAX.
        with pytest.raises(DomainError):
            to_table_group(22)

    def test_labels(self):
        g = to_table_group(2)
        assert g.labels[0] == "h(0,0;0)"
        assert g.labels[(1 * 2 + 1) * 2 + 0] == "h(1,1;0)"


class TestEmbeddingProblems:
    def test_nonzero_required(self):
        k = make_field(7, n=3)
        with pytest.raises(DomainError):
            EmbeddingProblem(k, 0, 1)

    def test_trivial_characters(self):
        k = make_field(7, n=3)
        sols = solve_embedding_cyclic(EmbeddingProblem(k, 1, 1))
        assert [s for s in sols if s.a == 0 and s.b == 0] == sols

    def test_generator_solution(self):
        k = make_field(7, n=3)
        sols = solve_embedding_cyclic(EmbeddingProblem(k, 3, 1))
        assert all(s.a == 1 and s.b == 0 for s in sols)
        assert order_of(sols[0]) == 3

    def test_all_central_coordinates(self):
        k = make_field(7, n=3)
        sols = solve_embedding_cyclic(EmbeddingProblem(k, 3, 3))
        assert sorted(s.c for s in sols) == [0, 1, 2]


class TestHomEnumeration:
    def test_empty_family(self):
        k = make_field(13, n=3)
        assert enumerate_homs_check([], k)

    def test_single_diagonal_pair(self):
        k = make_field(13, n=3)
        s = KummerCharacter(k, 3, 1)
        assert enumerate_homs_check([(s, s)], k)

    def test_agrees_with_pointwise_check(self):
        k = make_field(13, n=3)
        chars = [KummerCharacter(k, 3, c) for c in range(3)]
        for s in chars:
            for t in chars:
                fam = [(s, t)]
                flag = enumerate_homs_check(fam, k)
                ptw, _ = pointwise_embedding_check(fam, k)
                assert flag == ptw

    def test_commutator_sum_central_only(self):
        k = make_field(17, n=4)
        s = KummerCharacter(k, 4, 1)
        t = KummerCharacter(k, 4, 3)
        img = HeisElem(4, 1, 2, 3)
        # Images of powers of one generator always commute.
        assert commutator_sum([(s, t), (t, s)], img) == 0
        assert heisenberg._comm_sums(heisenberg._pair_coeffs([(s, t), (t, s)]), 1, 2, 3, 4) == 0


# --- the scalar loops behind the array checks, kept here as oracles --------


def enumerate_homs_oracle(pairs, field):
    """One HeisElem per generator image, cross-checked like the library check."""
    n = field.n
    ok = True
    for a, b, c in itertools.product(range(n), repeat=3):
        total = commutator_sum(pairs, HeisElem(n, a, b, c))
        bilinear = sum((s.c * a) * (t.c * b) - (s.c * b) * (t.c * a) for s, t in pairs) % n
        if total != bilinear:
            raise TheoremViolationError("commutator sum disagrees with the bilinear criterion")
        if total != 0:
            ok = False
    return ok


def pointwise_oracle(pairs, field):
    """Every x in integer order, one embedding problem and its n solutions each."""
    for x in field.elements():
        if x in (0, 1):
            continue
        sols = solve_embedding_cyclic(EmbeddingProblem(field, x, field.one_minus(x)))
        sums = {commutator_sum(pairs, s) for s in sols}
        if len(sums) != 1:
            raise TheoremViolationError("commutator sum depends on the central coordinate")
        if sums.pop() != 0:
            return False, x
    return True, None


def assert_matches_oracles(fam, k):
    assert enumerate_homs_check(fam, k) == enumerate_homs_oracle(fam, k)
    assert pointwise_embedding_check(fam, k) == pointwise_oracle(fam, k)


def seeded_families(k, seed, count=25):
    rng = random.Random(seed)
    n = k.n
    return [
        [(KummerCharacter(k, n, rng.randrange(n)), KummerCharacter(k, n, rng.randrange(n)))
         for _ in range(rng.randrange(0, 4))]
        for _ in range(count)
    ]


def skewed_pow(n, a, b, c, m):
    """A wrong power law whose images of one generator no longer commute:
    the commutator of the m = s and m = t images is a*s*t*(t - s)."""
    return (m * a) % n, (m * b + m * m) % n, c


def central_pow(n, a, b, c, m):
    """A wrong power law whose commutators depend on the central coordinate."""
    return (m * a + c) % n, (m * b) % n, c


def use_power_law(monkeypatch, law):
    # The relation conditions read the planar coordinates of the law only.
    monkeypatch.setattr(heisenberg, "heis_pow_arrays", law)
    monkeypatch.setattr(heisenberg, "heis_pow_planar", lambda n, a, b, c, m: law(n, a, b, c, m)[:2])
    monkeypatch.setattr(HeisElem, "__pow__", lambda x, m: HeisElem(x.n, *law(x.n, x.a, x.b, x.c, m)))


class TestArrayChecksAgainstOracles:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_power_helper_matches_repeated_product(self, n):
        elems = [HeisElem(n, *t) for t in itertools.product(range(n), repeat=3)]
        a, b, c = np.array([(x.a, x.b, x.c) for x in elems]).T
        powers = [identity(n)] * len(elems)
        for m in range(2 * n):
            got = np.stack(heis_pow_arrays(n, a, b, c, m), axis=1)
            assert got.tolist() == [[x.a, x.b, x.c] for x in powers]
            powers = [heis_mul(x, g) for x, g in zip(powers, elems)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_planar_power_is_the_literal_planar_part(self, n):
        a, b, c = heisenberg._elements(n)
        for m in range(2 * n):
            got = heisenberg.heis_pow_planar(n, a, b, c, m)
            want = heisenberg._literal_pow(n, (a, b, c), m)[:2]  # scalars at m = 0
            assert all(np.array_equal(x, np.broadcast_to(y, a.shape)) for x, y in zip(got, want))

    @pytest.mark.parametrize("p,n", [(13, 3), (17, 4)])
    def test_every_small_family(self, p, n):
        # Every multiset of at most 3 pairs: the sums do not depend on order.
        k = make_field(p, n=n)
        chars = [KummerCharacter(k, n, c) for c in range(n)]
        pairs = list(itertools.product(chars, repeat=2))
        for size in range(4):
            for fam in itertools.combinations_with_replacement(pairs, size):
                assert_matches_oracles(list(fam), k)

    @pytest.mark.parametrize("p,deg,n", [(29, 1, 7), (41, 1, 10), (7, 2, 8)])
    def test_seeded_families(self, p, deg, n):
        k = make_field(p, k=deg, n=n)
        for fam in seeded_families(k, 31 * p + n):
            assert_matches_oracles(fam, k)

    @pytest.mark.parametrize("p,deg,n", [(13, 1, 3), (7, 2, 8)])
    def test_failing_point_under_a_wrong_power_law(self, monkeypatch, p, deg, n):
        # With the power law broken in both implementations, the array check
        # must still report the oracle's smallest failing x (integer order,
        # also where table_points are in dlog order), and the bilinear
        # cross-check must catch the broken enumeration.
        k = make_field(p, k=deg, n=n)
        use_power_law(monkeypatch, skewed_pow)
        fam = [(KummerCharacter(k, n, 1), KummerCharacter(k, n, 2))]
        flag, x = pointwise_embedding_check(fam, k)
        assert (flag, x) == pointwise_oracle(fam, k)
        assert flag is False
        if deg > 1:  # the first failing point in dlog order is another one
            assert x != k.table_points[0] and k.dlog(k.table_points[0]) % n not in (0, n // 2)
        with pytest.raises(TheoremViolationError, match="bilinear"):
            enumerate_homs_check(fam, k)
        with pytest.raises(TheoremViolationError, match="bilinear"):
            enumerate_homs_oracle(fam, k)

    @pytest.mark.parametrize("law", [None, skewed_pow, central_pow])
    @pytest.mark.parametrize("p,deg,n", [(13, 1, 3), (41, 1, 10), (7, 2, 8)])
    def test_image_grid_is_the_full_enumeration(self, monkeypatch, law, p, deg, n):
        # The broadcast grid must hold the commutator sums of all n^3 images
        # in itertools.product order, also under a law whose sums read c.
        k = make_field(p, k=deg, n=n)
        if law is not None:
            use_power_law(monkeypatch, law)
        elements = heisenberg._elements(n)
        reads_c = 0
        for fam in seeded_families(k, 5 * p + n):
            st = heisenberg._pair_coeffs(fam)
            grid = heisenberg._image_sums(st, n)
            assert np.array_equal(grid, heisenberg._comm_sums(st, *elements, n).reshape(n, n, n))
            reads_c += bool((grid != grid[..., :1]).any())
        assert (reads_c > 0) == (law is central_pow)

    def test_central_coordinate_dependence_raises(self, monkeypatch):
        k = make_field(13, n=3)
        use_power_law(monkeypatch, central_pow)
        fam = [(KummerCharacter(k, 3, 1), KummerCharacter(k, 3, 2))]
        with pytest.raises(TheoremViolationError, match="central coordinate"):
            pointwise_embedding_check(fam, k)
        with pytest.raises(TheoremViolationError, match="central coordinate"):
            pointwise_oracle(fam, k)
        # The sums vanish on the plane c = 0, so only images with c != 0
        # show the bilinear cross-check a disagreement.
        with pytest.raises(TheoremViolationError, match="bilinear"):
            enumerate_homs_check(fam, k)
        with pytest.raises(TheoremViolationError, match="bilinear"):
            enumerate_homs_oracle(fam, k)

    def test_pointwise_memory_f65537(self):
        # The grid holds n^3 sums and each point one type code, about
        # 1 MiB.  Evaluating the (points x n) solutions across the pairs axis
        # instead takes 81.5 MiB on these inputs (field tables filled
        # beforehand).
        k = make_field(65537, n=8)
        fam = [(KummerCharacter(k, 8, 3), KummerCharacter(k, 8, 5)), (KummerCharacter(k, 8, 7), KummerCharacter(k, 8, 1))]
        k.point_dlogs
        tracemalloc.start()
        try:
            result = pointwise_embedding_check(fam, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (True, None)
        assert peak <= 8 * 2**20
