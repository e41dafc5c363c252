"""The relation-condition detector: all computed conditions must agree."""

import gc
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from abelcentral import relations
from abelcentral.errors import HypothesisError, TheoremViolationError
from abelcentral.finfield import KummerCharacter, make_field, omega
from abelcentral.relations import RelationReport, relation_check


def field_and_omega(p, n):
    f = make_field(p, n=n)
    return f, omega(f, n)


class TestBasics:
    def test_diagonal_pair_holds(self):
        k, w = field_and_omega(13, 3)
        s = KummerCharacter(k, 3, 1)
        rep = relation_check([(s, s)], w)
        assert rep.holds
        assert rep.cond1 and rep.cond2 and rep.cond3 and rep.cond4 and rep.cond6
        assert rep.cond5 is True and rep.cond7 is True
        assert rep.first_failing_point is None

    def test_empty_family(self):
        k, w = field_and_omega(13, 3)
        rep = relation_check([], w)
        assert rep.holds
        assert rep.witnesses_a == ()

    def test_witness_value(self):
        # s(omega) = 1 over Z/3 halves to a = 2 (2*2 = 4 = 1 mod 3).
        k, w = field_and_omega(13, 3)
        s = KummerCharacter(k, 3, 1)
        rep = relation_check([(s, s)], w)
        assert s(w.element) == 1
        assert rep.witnesses_a == ((2,),)

    def test_even_n_all_witnesses(self):
        # For even n each solvable halving has exactly two solutions.
        k, w = field_and_omega(17, 4)
        s = KummerCharacter(k, 4, 2)
        t = KummerCharacter(k, 4, 2)
        rep = relation_check([(s, t)], w)
        for sols in rep.witnesses_a + rep.witnesses_b:
            assert len(sols) == 2
            assert (sols[1] - sols[0]) % 4 == 2

    def test_every_family_holds_on_cyclic_characters(self):
        # All Kummer characters of a finite field are multiples of one
        # discrete log, so the alternating sum is identically zero and the
        # equivalent conditions must all come out true.
        k, w = field_and_omega(13, 3)
        for cs in range(3):
            for ct in range(3):
                rep = relation_check([(KummerCharacter(k, 3, cs), KummerCharacter(k, 3, ct))], w)
                assert rep.holds
                assert rep.first_failing_point is None


class TestHypotheses:
    def test_mu_2n_required(self):
        # 2n = 8 does not divide 13 - 1 = 12.
        k = make_field(13, n=4)
        with pytest.raises(HypothesisError):
            relation_check([], omega(k, 4))

    def test_as_dict_keys(self):
        k, w = field_and_omega(13, 3)
        s = KummerCharacter(k, 3, 1)
        d = relation_check([(s, s)], w).as_dict()
        assert set("12345") <= set(d) and "6" in d and "7" in d
        assert "witnesses_a" in d and "witnesses_b" in d


class TestConsistency:
    @pytest.mark.parametrize("p,n", [(13, 3), (17, 4), (13, 6), (29, 7)])
    def test_seeded_random_families(self, p, n):
        # Every computed condition must agree on every family; any
        # disagreement raises TheoremViolationError inside the report.
        k, w = field_and_omega(p, n)
        rng = random.Random(1000 * p + n)
        for _ in range(60):
            fam = [
                (KummerCharacter(k, n, rng.randrange(n)), KummerCharacter(k, n, rng.randrange(n)))
                for _ in range(rng.randrange(0, 4))
            ]
            rep = relation_check(fam, w)
            # Cyclic character space: every family satisfies the relation.
            assert rep.holds

    def test_family_power_tables_computed_once(self, monkeypatch):
        # Conditions (2) and (3) share one psi table per character of the
        # family.  The first call fills the cached span of all power tables.
        k, w = field_and_omega(13, 3)
        fam = [(KummerCharacter(k, 3, a), KummerCharacter(k, 3, b)) for a, b in [(1, 2), (2, 2), (0, 1)]]
        relation_check(fam, w)
        calls = []
        psi = relations.tables.psi

        def counting_psi(f, om):
            calls.append(f)
            return psi(f, om)

        monkeypatch.setattr(relations.tables, "psi", counting_psi)
        relation_check(fam, w)
        assert len(calls) == 2 * len(fam)

    def test_power_span_freed_with_field(self):
        # The span of all doubled power tables is cached on the root of
        # unity, not in a process-wide dict, so it dies with the root and
        # its field.
        k, w = field_and_omega(13, 3)
        s = KummerCharacter(k, 3, 1)
        relation_check([(s, s)], w)
        span = w.doubled_power_span
        relation_check([(s, s)], w)
        assert w.doubled_power_span is span
        refs = [weakref.ref(x) for x in (k, w, span)]
        del k, w, s, span
        gc.collect()
        assert [r() for r in refs] == [None, None, None]

    def test_power_span_memory_f65537(self):
        # The 16 x 131070 int64 matrix takes 16 MB; once as the reduced
        # ModMatrix and once as the Howell working copy is the floor.  Its
        # per-character rows, kept alive across the Howell form, and a
        # row-wise Howell form peaked at 53.5 MB here.
        k, w = field_and_omega(65537, 16)
        tracemalloc.start()
        try:
            span = w.doubled_power_span
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert span.canonical.rows >= 1
        assert peak <= 40 * 2**20

    def test_single_pair_cond3_equals_cond4(self):
        # On a single pair the family span sits inside the full span, and the
        # detector must still report equal flags.
        k, w = field_and_omega(13, 3)
        for cs in range(3):
            for ct in range(3):
                rep = relation_check([(KummerCharacter(k, 3, cs), KummerCharacter(k, 3, ct))], w)
                assert rep.cond3 == rep.cond4

    def test_report_rejects_disagreement(self):
        with pytest.raises(TheoremViolationError):
            RelationReport(
                cond1=True,
                cond2=False,
                cond3=True,
                cond4=True,
                cond6=True,
                cond5=None,
                cond7=None,
                witnesses_a=(),
                witnesses_b=(),
                first_failing_point=None,
            )


def cond6_oracle(pairs, field, n):
    """The full (q-1)^2 table of the alternating sum over pairs of units."""
    dl_units = np.array([field.dlog(x) for x in field.units()], dtype=object)
    m = np.zeros((dl_units.size, dl_units.size), dtype=object)
    for s, t in pairs:
        sv, tv = s.c * dl_units, t.c * dl_units
        m += np.outer(sv, tv) - np.outer(tv, sv)
    return not (m % n).any()


class TestCondition6Scan:
    # F_211 with n = 105 and 35 and F_81 with n = 40 put n close to q, where
    # each class of K^x/K^xn holds only two to six units.
    CASES = [(13, 1, 3), (29, 1, 7), (7, 2, 8), (211, 1, 105), (211, 1, 35), (3, 4, 40)]

    @pytest.mark.parametrize("p,deg,n", CASES)
    def test_matches_full_table(self, monkeypatch, p, deg, n):
        # Chunks of 7 rows force the row loop, with a short last chunk
        # whenever 7 does not divide n.
        k = make_field(p, k=deg, n=n)
        rng = random.Random(7 * p + n)
        fams = [
            [(KummerCharacter(k, n, rng.randrange(n)), KummerCharacter(k, n, rng.randrange(n)))
             for _ in range(size)]
            for size in (0, 1, 2, 3, 5)
        ]
        for small in (False, True):
            if small:
                monkeypatch.setattr(relations, "COND6_CHUNK_CELLS", 7 * n)
            for fam in fams:
                assert relations._unit_pairs_vanish(fam, k, n) == cond6_oracle(fam, k, n)

    @pytest.mark.parametrize("p,deg,n", CASES)
    def test_unit_dlogs_hit_every_class(self, p, deg, n):
        # The premise of the class grid: K^x -> Z/n, x -> dlog x mod n, is onto.
        k = make_field(p, k=deg, n=n)
        assert {k.dlog(x) % n for x in k.units()} == set(range(n))

    @pytest.mark.parametrize("row,col", [(-1, -1), (0, -1), (-1, 0), (12, 5)])
    def test_planted_cell_fails(self, monkeypatch, row, col):
        # Every family over a finite field sums to 0, so no real input reaches
        # the False branch.  Add one term to the values of a 3-pair family
        # that is nonzero at a single cell; a scan that skips a row chunk or a
        # column misses it.  n = 40 in chunks of 7 rows ends on a chunk of 5.
        k, n = make_field(3, k=4, n=40), 40
        monkeypatch.setattr(relations, "COND6_CHUNK_CELLS", 7 * n)
        fam = [(KummerCharacter(k, n, s), KummerCharacter(k, n, t)) for s, t in ((1, 2), (3, 5), (7, 39))]
        grid, seen = relations._grid_vanishes, []
        monkeypatch.setattr(relations, "_grid_vanishes", lambda *a: seen.append(a[:2]) or grid(*a))
        assert relations._unit_pairs_vanish(fam, k, n)
        (left, right), = seen
        assert left.shape == right.shape == (6, n)
        e_row, e_col = np.zeros((2, n), dtype=np.int64)
        e_row[row], e_col[col] = 1, n - 1
        assert not grid(np.vstack((left, e_row)), np.vstack((right, e_col)), n)

    def test_peak_memory_on_f2003(self):
        # Condition 6 over F_2003 covers (q-1)^2 = 4 M unit pairs through the
        # 11 x 11 grid of classes, so no step holds a (q-1)^2 array.
        k, w = field_and_omega(2003, 11)
        fam = [(KummerCharacter(k, 11, s), KummerCharacter(k, 11, t)) for s, t in ((1, 2), (3, 5), (7, 10))]
        tracemalloc.start()
        try:
            rep = relation_check(fam, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.cond6 and rep.holds
        assert peak <= 4 * 2**20

    def test_f65537(self):
        # (q-1)^2 = 4.3e9 unit pairs, out of reach of a scan over units; the
        # grid of classes is 16 x 16.
        k, w = field_and_omega(65537, 16)
        rng = random.Random(65537)
        fam = [(KummerCharacter(k, 16, rng.randrange(16)), KummerCharacter(k, 16, rng.randrange(16)))
               for _ in range(3)]
        rep = relation_check(fam, w)
        assert rep.cond1 and rep.cond2 and rep.cond3 and rep.cond4 and rep.cond6
        assert rep.cond5 is None and rep.cond7 is None
