"""The relation-condition detector: all computed conditions must agree."""

import gc
import inspect
import random
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import relations_oracle
from test_heisenberg import central_pow, enumerate_homs_oracle, pointwise_oracle, skewed_pow, use_power_law

from abelcentral import heisenberg, modring, relations, tables
from abelcentral.errors import DomainError, HypothesisError, ModulusError, TheoremViolationError
from abelcentral.finfield import KummerCharacter, make_field, omega
from abelcentral.heisenberg import enumerate_homs_check, pointwise_embedding_check
from abelcentral.modring import ModMatrix
from abelcentral.relations import RelationReport, relation_check


def field_and_omega(p, n):
    f = make_field(p, n=n)
    return f, omega(f, n)


# (p, degree, n) with 2n | q - 1: F_13, F_17, F_41, F_61, F_2003, F_25 and
# F_49, with n <= 10 (the Heisenberg conditions run) and n > 10.
ORACLE_FIELDS = [
    (13, 1, 3), (13, 1, 6), (17, 1, 4), (17, 1, 8), (41, 1, 10), (41, 1, 20), (61, 1, 10),
    (61, 1, 15), (2003, 1, 11), (2003, 1, 7), (5, 2, 4), (5, 2, 12), (7, 2, 8), (7, 2, 24),
]


# Every field of the tests in this module, for the span of all doubled power tables.
SPAN_FIELDS = ORACLE_FIELDS + [(13, 1, 4), (29, 1, 7), (65537, 1, 16), (211, 1, 105), (211, 1, 35), (3, 4, 40)]


def seeded_families(k, n, seed, per_size=2):
    """``per_size`` families of each size 0..6 with random coefficients."""
    rng = random.Random(seed)
    return [
        [(KummerCharacter(k, n, rng.randrange(n)), KummerCharacter(k, n, rng.randrange(n))) for _ in range(size)]
        for size in range(7)
        for _ in range(per_size)
    ]


def spy_tables(monkeypatch):
    """Record the family tables each relation_check builds, by helper name."""
    seen = {}
    for name in ("_alternating_sum", "_commutator_sum", "_power_rows", "_witness_combination"):
        helper = getattr(relations, name)
        monkeypatch.setattr(relations, name, lambda *a, name=name, helper=helper: seen.setdefault(name, helper(*a)))
    canonicalize = relations.modring.canonicalize

    def first_span(gens):
        """Record the first span only, and hand every caller its own."""
        span = canonicalize(gens)
        seen.setdefault("span", span)
        return span

    monkeypatch.setattr(relations.modring, "canonicalize", first_span)
    return seen


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

    @pytest.mark.parametrize("chars_n", [None, 3, 6])
    def test_omega_order_must_be_the_field_modulus(self, monkeypatch, chars_n):
        # The field's types are keyed by its n = 3.  A root of order 6 is
        # refused before any table is built, with the ModulusError that (4)'s
        # span raises for it, which is where the check used to stop.
        k = make_field(61, n=3)
        w = omega(k, 6)
        fam = [] if chars_n is None else [(KummerCharacter(k, chars_n, 1), KummerCharacter(k, chars_n, 2))]
        built = spy_tables(monkeypatch)
        with pytest.raises(ModulusError) as info:
            relation_check(fam, w)
        assert str(info.value) == "characters must share the field F_61 and the modulus 6"
        assert built == {}
        monkeypatch.undo()
        with pytest.raises(ModulusError) as span_error:
            w.doubled_power_span
        assert str(span_error.value) == str(info.value)

    def test_as_dict_keys(self):
        k, w = field_and_omega(13, 3)
        s = KummerCharacter(k, 3, 1)
        d = relation_check([(s, s)], w).as_dict()
        assert set("12345") <= set(d) and "6" in d and "7" in d
        assert "witnesses_a" in d and "witnesses_b" in d


class TestWitnesses:
    def test_closed_form_matches_the_search(self):
        # Every n in 2..64 and every w in [0, n), against the search over Z/n,
        # with the search's error for odd w and even n.
        raised = 0
        for n in range(2, 65):
            for w in range(n):
                try:
                    want = relations_oracle.halves(w, n)
                except TheoremViolationError as exc:
                    raised += 1
                    with pytest.raises(TheoremViolationError) as info:
                        relations._halves(w, n)
                    assert str(info.value) == str(exc)
                else:
                    assert relations._halves(w, n) == want
        assert raised == sum(n // 2 for n in range(2, 65, 2))

    @pytest.mark.parametrize("p,deg,n", [(13, 1, 6), (41, 1, 10), (2003, 1, 11), (7, 2, 8), (7, 2, 24)])
    def test_family_read_once(self, monkeypatch, p, deg, n):
        # The witnesses come from st * dlog(omega), not from 2m character
        # calls, and every condition reads the one coefficient array st.
        k = make_field(p, k=deg, n=n)
        w = omega(k, n)
        w.doubled_power_span
        calls = {"__call__": 0, "_pair_coeffs": 0}
        char_call, pair_coeffs = KummerCharacter.__call__, heisenberg._pair_coeffs

        def counting_call(f, x):
            calls["__call__"] += 1
            return char_call(f, x)

        def counting_coeffs(pairs):
            calls["_pair_coeffs"] += 1
            return pair_coeffs(pairs)

        monkeypatch.setattr(KummerCharacter, "__call__", counting_call)
        monkeypatch.setattr(heisenberg, "_pair_coeffs", counting_coeffs)
        for fam in seeded_families(k, n, p + n):
            calls.update({"__call__": 0, "_pair_coeffs": 0})
            rep = relation_check(fam, w)
            assert calls == {"__call__": 0, "_pair_coeffs": 1}
            assert rep.witnesses_a == tuple(relations_oracle.halves(char_call(s, w.element), n) for s, _ in fam)
            assert rep.witnesses_b == tuple(relations_oracle.halves(char_call(t, w.element), n) for _, t in fam)

    @pytest.mark.parametrize("p,deg,n", [(41, 1, 10), (61, 1, 15), (7, 2, 8), (3, 4, 40)])
    def test_first_failing_point_is_the_first_point_of_a_failing_type(self, monkeypatch, p, deg, n):
        # Every family over a finite field satisfies (1), so plant a nonzero
        # alternating sum on a few types.  The report, refused for the
        # disagreement, names the first failing point in table order, which a
        # scan of the points by their own dlogs finds.
        k = make_field(p, k=deg, n=n)
        w = omega(k, n)
        classes = k.point_types[0]
        dx, dy = k.point_dlogs
        fam = [(KummerCharacter(k, n, 1), KummerCharacter(k, n, 2))]
        rng = random.Random(p + n)
        for _ in range(6):
            failing = rng.sample(range(len(classes)), rng.randint(1, 3))
            planted = np.zeros(len(classes), dtype=np.int64)
            planted[failing] = rng.randrange(1, n)
            monkeypatch.setattr(relations, "_alternating_sum", lambda *a, planted=planted: planted)
            bad = {tuple(classes[j].tolist()) for j in failing}
            want = next(x for x, i, j in zip(k.table_points, (dx % n).tolist(), (dy % n).tolist()) if (i, j) in bad)
            with pytest.raises(TheoremViolationError, match=re.escape(f"'first_failing_point': {want}}}")):
                relation_check(fam, w)

    def test_types_are_derived_in_the_field_only(self):
        # relations and heisenberg read FqField.point_types; neither derives
        # classes or types from the point dlogs.
        for module in (relations, heisenberg):
            assert "point_dlogs" not in inspect.getsource(module)


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
        # Conditions (2) and (3) read one batch of power tables, psi(s_1), ...,
        # psi(s_m), psi(t_1), ..., psi(t_m): a single _psi_values call of 2m
        # rows, one cell pair per type.  The first call fills the cached span
        # of all power tables.
        k, w = field_and_omega(13, 3)
        fam = [(KummerCharacter(k, 3, a), KummerCharacter(k, 3, b)) for a, b in [(1, 2), (2, 2), (0, 1)]]
        relation_check(fam, w)
        calls, spans = [], []
        kernel, canonicalize = relations.tables._psi_values, relations.modring.canonicalize

        def counting_kernel(fc, *args):
            out = kernel(fc, *args)
            calls.append((np.array(fc), out % 3))
            return out

        monkeypatch.setattr(relations.tables, "_psi_values", counting_kernel)
        monkeypatch.setattr(relations.modring, "canonicalize", lambda gens: spans.append(gens) or canonicalize(gens))
        relation_check(fam, w)
        (coeffs, rows), = calls
        assert coeffs.ravel().tolist() == [s.c for s, _ in fam] + [t.c for _, t in fam]
        assert rows.shape == (2 * len(fam), len(k.point_types[0]), 2)
        # (3) spans the doubled rows of the batch ...
        (gens,) = spans
        assert np.array_equal(gens.entries, (2 * rows).reshape(2 * len(fam), -1) % 3)
        # ... and (2) reads the same batch: shifting it breaks (2) alone, and
        # the detector refuses the disagreement.
        monkeypatch.setattr(relations.tables, "_psi_values", lambda *a: kernel(*a) + 1)
        with pytest.raises(TheoremViolationError, match="disagree"):
            relation_check(fam, w)

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

    def test_peak_memory_f65537_eight_pairs(self):
        # The 16 power tables of the family have 256 types, not 65535 points:
        # what is left is (4)'s one gathered row of 131070 cells and the
        # field's type table.  The power tables on the points peaked at
        # 53.9 MiB here, and the per-pair loops before them at 71.9 MiB
        # (span filled beforehand).
        k, w = field_and_omega(65537, 16)
        w.doubled_power_span
        rng = random.Random(8)
        fam = [(KummerCharacter(k, 16, rng.randrange(16)), KummerCharacter(k, 16, rng.randrange(16)))
               for _ in range(8)]
        tracemalloc.start()
        try:
            rep = relation_check(fam, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.holds
        assert peak <= 8 * 2**20

    def test_memory_bound(self, monkeypatch):
        # 4 pairs on F_41 with n = 10, whose 39 points have 36 types: 8 power
        # tables of 2 * 36 int64 cells, held three times, and (4)'s gathered
        # row of 2 * 39 cells, 3 * 8 * 8 * 72 + 8 * 78 = 14448 bytes.  Above
        # the bound no table is built.
        k, w = field_and_omega(41, 10)
        assert len(k.point_types[0]) == 36
        fam = [(KummerCharacter(k, 10, c), KummerCharacter(k, 10, 3 * c)) for c in range(4)]
        monkeypatch.setattr(relations, "RELATION_BYTES_MAX", 14448 - 1)
        built = spy_tables(monkeypatch)
        with pytest.raises(DomainError, match="4 pairs over F_41: 14448 exceeds"):
            relation_check(fam, w)
        assert built == {}
        monkeypatch.setattr(relations, "RELATION_BYTES_MAX", 14448)
        assert relation_check(fam, w).holds
        assert set(built) == {"_alternating_sum", "_commutator_sum", "_power_rows", "_witness_combination", "span"}

    @pytest.mark.parametrize("p,n", [(13, 3), (17, 4), (29, 7), (37, 9), (41, 10), (61, 10)])
    def test_peak_within_the_estimate(self, p, n):
        # The bound is enforced on the estimate 3 * 8 * 2m * 2|T| + 8 * 2(q - 2)
        # bytes, so the check must not peak far above it, (5) and (7) included.
        # Building the central coordinate of every power on the (2, m, n, n, n)
        # grid peaked at 1.7-9.7 times the estimate here (128 MiB on F_41).
        k, w = field_and_omega(p, n)
        w.doubled_power_span
        rng = random.Random(p)
        fam = [(KummerCharacter(k, n, rng.randrange(n)), KummerCharacter(k, n, rng.randrange(n))) for _ in range(4000)]
        estimate = 3 * 8 * 2 * len(fam) * 2 * len(k.point_types[0]) + 8 * 2 * (p - 2)
        tracemalloc.start()
        try:
            rep = relation_check(fam, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.holds and rep.cond5 is rep.cond7 is True
        assert peak <= 1.5 * estimate

    @pytest.mark.parametrize("p,deg,n", SPAN_FIELDS)
    def test_power_span_matches_all_characters(self, p, deg, n):
        # The span of the one row 2 psi(chi) against the rows of all n characters.
        k = make_field(p, k=deg, n=n)
        w = omega(k, n)
        want = relations_oracle.doubled_power_span(w).canonical.entries
        assert np.array_equal(w.doubled_power_span.canonical.entries, want)

    def test_power_span_memory_n32768(self):
        # n = 32768 is the largest n with mu_2n in F_65537.  One table per
        # character would stack 32768 x 131070 cells (32 GiB as int64).
        k, w = field_and_omega(65537, 32768)
        tracemalloc.start()
        try:
            span = w.doubled_power_span
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert span.canonical.rows >= 1
        assert peak <= 32 * 2**20

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


class TestBatchAgainstOracles:
    """The pairs-axis batches against the per-pair loops they replaced."""

    @pytest.mark.parametrize("p,deg,n", ORACLE_FIELDS)
    def test_reports_and_tables(self, monkeypatch, p, deg, n):
        # The detector's tables live on the types; pulled back along the type
        # of each point they must be the point-wise tables of the loops.
        k = make_field(p, k=deg, n=n)
        w = omega(k, n)
        span = w.doubled_power_span  # filled before the spy goes in
        classes, _, types = k.point_types

        def pullback(flat):
            """A flattened table on the types as the flattened table on the points."""
            lead = flat.shape[:-1]
            return flat.reshape(lead + (len(classes), 2))[..., types, :].reshape(lead + (2 * types.size,))

        for fam in seeded_families(k, n, 100 * p + n):
            with monkeypatch.context() as mp:
                seen = spy_tables(mp)
                rep = relation_check(fam, w)
            assert rep.as_dict() == relations_oracle.relation_report(fam, w)
            if not fam:
                assert not seen
                continue
            assert np.array_equal(seen["_alternating_sum"][types], relations_oracle.alternating_sum(fam, k, n))
            assert np.array_equal(pullback(seen["_commutator_sum"]), relations_oracle.commutator_sum(fam, w).flatten())
            powers = relations_oracle.power_tables(fam, w)
            want_rows = [s.values for s, _ in powers] + [t.values for _, t in powers]
            assert np.array_equal(seen["_power_rows"][:, types], np.stack(want_rows))
            rhs = relations_oracle.witness_combination(fam, w, rep.witnesses_a, rep.witnesses_b)
            assert np.array_equal(pullback(seen["_witness_combination"]), rhs.flatten())
            # Equal spans have equal Howell forms, once on the same columns.
            got_span = modring.canonicalize(ModMatrix(n, pullback(seen["span"].canonical.entries)))
            want_span = relations_oracle.family_span(fam, w)
            assert np.array_equal(got_span.canonical.entries, want_span.canonical.entries)
        assert w.doubled_power_span is span

    @pytest.mark.parametrize("p,deg,n", [(41, 1, 10), (2003, 1, 11), (7, 2, 24)])
    def test_witness_combination_with_any_witnesses(self, p, deg, n):
        # The family tables of (1) and of the commutator sum vanish for every
        # family of multiples of one character; a combination of power tables
        # with arbitrary coefficients does not, and must equal its loop entry
        # for entry, also for coefficients near n.
        k = make_field(p, k=deg, n=n)
        w = omega(k, n)
        dlogs = tables._omega_dlogs(w)
        rng = random.Random(p)
        nonzero = 0
        for size in range(1, 7):
            coeffs = [(rng.randrange(n), rng.randrange(n)) for _ in range(size - 1)] + [(n - 1, n - 2)]
            fam = [(KummerCharacter(k, n, a), KummerCharacter(k, n, b)) for a, b in coeffs]
            st = np.array(coeffs, dtype=np.int64).T
            wit_a = [(rng.randrange(-n, n),) for _ in fam]
            wit_b = [(n - 1,)] * size
            rows = relations._power_rows(st.reshape(-1, 1), dlogs, n)
            rhs = relations_oracle.witness_combination(fam, w, wit_a, wit_b).flatten()
            nonzero += bool(rhs.any())
            assert np.array_equal(relations._witness_combination(rows, wit_a, wit_b, n), rhs)
            assert np.array_equal(relations._alternating_sum(st, *dlogs[:2], n),
                                  relations_oracle.alternating_sum(fam, k, n))
            assert np.array_equal(relations._commutator_sum(st, dlogs, n),
                                  relations_oracle.commutator_sum(fam, w).flatten())
        assert nonzero >= 4

    @pytest.mark.parametrize("n", [3, 4, 7, 10])
    def test_heisenberg_sums_under_a_wrong_law(self, monkeypatch, n):
        # Under the true law both sums vanish on every image; under a law whose
        # powers of one element stop commuting they do not.
        k = make_field({3: 13, 4: 17, 7: 29, 10: 41}[n], n=n)
        use_power_law(monkeypatch, skewed_pow)
        a, b, c = heisenberg._elements(n)
        nonzero = 0
        for fam in seeded_families(k, n, 7 * n):
            st = heisenberg._pair_coeffs(fam)
            want = relations_oracle.comm_sums(fam, a, b, c, n)
            nonzero += bool(want.any())
            assert np.array_equal(heisenberg._comm_sums(st, a, b, c, n), want)
            assert np.array_equal(heisenberg._bilinear_sums(st, a, b, n), relations_oracle.bilinear_sums(fam, a, b, n))
        assert nonzero >= 3


# The n <= 10 fields of the relation_families benchmark workload, and F_49
# with n = 8, whose table_points are in dlog order.
HEISENBERG_FIELDS = [(13, 1, 3), (17, 1, 4), (29, 1, 7), (37, 1, 9), (41, 1, 10), (61, 1, 10), (7, 2, 8)]


class TestHeisenbergGrid:
    """Conditions (5) and (7) read off one grid of commutator sums per check."""

    @pytest.mark.parametrize("p,deg,n", HEISENBERG_FIELDS)
    def test_conditions_match_standalone_checks_and_oracles(self, p, deg, n):
        k = make_field(p, k=deg, n=n)
        w = omega(k, n)
        for fam in seeded_families(k, n, 10 * p + n):
            rep = relation_check(fam, w)
            assert rep.cond5 == enumerate_homs_check(fam, k) == enumerate_homs_oracle(fam, k)
            pointwise = pointwise_embedding_check(fam, k)
            assert pointwise == pointwise_oracle(fam, k)
            assert rep.cond7 == pointwise[0]

    def test_one_grid_and_one_power_batch(self, monkeypatch):
        # Conditions (5) and (7) receive the same grid, the commutator sums at
        # every image; its powers come from one heis_pow_planar call, none for
        # an empty family.
        k, w = field_and_omega(41, 10)
        elements = heisenberg._elements(10)
        powers, grids = [], []
        pow_planar = heisenberg.heis_pow_planar
        monkeypatch.setattr(heisenberg, "heis_pow_planar", lambda *a: powers.append(a) or pow_planar(*a))
        homs_vanish, failing_types = heisenberg._homs_vanish, heisenberg._failing_types
        monkeypatch.setattr(heisenberg, "_homs_vanish", lambda st, grid, n: grids.append(grid) or homs_vanish(st, grid, n))
        monkeypatch.setattr(heisenberg, "_failing_types", lambda grid, f: grids.append(grid) or failing_types(grid, f))
        for fam in seeded_families(k, 10, 41):
            powers.clear()
            grids.clear()
            relation_check(fam, w)
            assert len(powers) == (1 if fam else 0)
            assert len(grids) == 2 and grids[0] is grids[1]
            want = relations_oracle.comm_sums(fam, *elements, 10).reshape(10, 10, 10)
            assert np.array_equal(grids[0], want)

    @pytest.mark.parametrize("law", [skewed_pow, central_pow])
    @pytest.mark.parametrize("p,deg,n", [(13, 1, 3), (41, 1, 10), (7, 2, 8)])
    def test_wrong_law_raises_the_standalone_message(self, monkeypatch, law, p, deg, n):
        # relation_check runs (5) before (7), so it must raise what the
        # standalone checks raise in that order, message for message.
        k = make_field(p, k=deg, n=n)
        w = omega(k, n)
        use_power_law(monkeypatch, law)
        raised = 0
        for fam in seeded_families(k, n, 3 * p + n):
            try:
                enumerate_homs_check(fam, k)
                pointwise_embedding_check(fam, k)
            except TheoremViolationError as exc:
                raised += 1
                with pytest.raises(TheoremViolationError) as info:
                    relation_check(fam, w)
                assert str(info.value) == str(exc)
            else:
                assert relation_check(fam, w).holds
        assert raised >= 3

    def test_peak_memory_f65537_n8(self):
        # (7) reads each point's type off the n^3 grid, and the check peaks
        # at about 17 MiB on these inputs, in the tables of the other
        # conditions.  Evaluating the (points x n) solutions across the
        # pairs axis instead takes 90.0 MiB (span filled beforehand).
        k, w = field_and_omega(65537, 8)
        w.doubled_power_span
        fam = [(KummerCharacter(k, 8, 3), KummerCharacter(k, 8, 5)), (KummerCharacter(k, 8, 7), KummerCharacter(k, 8, 1))]
        tracemalloc.start()
        try:
            rep = relation_check(fam, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.holds and rep.cond7 is True
        assert peak <= 32 * 2**20


def cond6_oracle(pairs, field, n):
    """The full (q-1)^2 table of the alternating sum over pairs of units."""
    dl_units = np.array([field.dlog(x) for x in field.units()], dtype=object)
    m = np.zeros((dl_units.size, dl_units.size), dtype=object)
    for s, t in pairs:
        sv, tv = s.c * dl_units, t.c * dl_units
        m += np.outer(sv, tv) - np.outer(tv, sv)
    return not (m % n).any()


def python_int_grid_vanishes(left, right, n):
    """Whether sum_k left[k, x] right[k, y] = 0 mod n at every cell, in Python ints."""
    rows, cols = left.T.tolist(), right.T.tolist()
    return all(sum(a * b for a, b in zip(x, y)) % n == 0 for x in rows for y in cols)


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
                assert relations._unit_pairs_vanish(heisenberg._pair_coeffs(fam), n) == cond6_oracle(fam, k, n)

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
        assert relations._unit_pairs_vanish(heisenberg._pair_coeffs(fam), n)
        (left, right), = seen
        assert left.shape == right.shape == (6, n)
        e_row, e_col = np.zeros((2, n), dtype=np.int64)
        e_row[row], e_col[col] = 1, n - 1
        assert not grid(np.vstack((left, e_row)), np.vstack((right, e_col)), n)

    def test_exact_near_n_on_f65537(self, monkeypatch):
        # n = 32768 on F_65537 with coefficients near n, so the operands lie
        # near n and their products near 2^30.  The 2^30-cell grid is out of
        # reach of a Python-int oracle, so the operands of _unit_pairs_vanish
        # are taken on 64 classes, in blocks of 3 terms and chunks of 5 rows.
        k, n = make_field(65537, n=32768), 32768
        fam = [(KummerCharacter(k, n, n - 1 - i), KummerCharacter(k, n, n - 3 - 2 * i)) for i in range(4)]
        seen = []
        monkeypatch.setattr(relations, "_grid_vanishes", lambda *a: seen.append(a[:2]) or True)
        relations._unit_pairs_vanish(heisenberg._pair_coeffs(fam), n)
        monkeypatch.undo()
        (left, right), = seen
        assert left.shape == right.shape == (8, n)
        # Class 1 carries the coefficients themselves.
        cols = np.concatenate(([1], np.random.default_rng(0).choice(np.arange(2, n), size=63, replace=False)))
        left, right = left[:, cols], right[:, cols]
        assert left[:4, 0].tolist() == [n - 1, n - 2, n - 3, n - 4]
        monkeypatch.setattr(relations, "COND6_TERMS_MAX", 3)
        monkeypatch.setattr(relations, "COND6_CHUNK_CELLS", 5 * 64)
        # A cancelling pair of terms, u v + (n - u) v = n v, and one term that
        # is (n - 1)^2 = 1 at the single cell (12, 40).
        u, v = np.full(64, n - 5), np.full(64, n - 7)
        e_row, e_col = np.zeros((2, 64), dtype=np.int64)
        e_row[12], e_col[40] = n - 1, n - 1
        cases = [
            (left, right),
            (np.vstack((left, u, n - u)), np.vstack((right, v, v))),
            (np.vstack((left, u, n - u, e_row)), np.vstack((right, v, v, e_col))),
        ]
        got = [relations._grid_vanishes(lhs, rhs, n) for lhs, rhs in cases]
        assert got == [python_int_grid_vanishes(lhs, rhs, n) for lhs, rhs in cases] == [True, True, False]

    @pytest.mark.parametrize("cells,terms", [(1, 1), (5 * 16, 3), (None, None)])
    def test_grid_in_blocks_matches_python_ints(self, cells, terms, monkeypatch):
        # The cell loop and the term loop in blocks of one row and one term,
        # of 80 cells (three to five rows) and three terms, with short last
        # blocks, and of the default sizes, on seeded operands, half of them made to vanish by a
        # cancelling copy of their terms.
        if cells is not None:
            monkeypatch.setattr(relations, "COND6_CHUNK_CELLS", cells)
            monkeypatch.setattr(relations, "COND6_TERMS_MAX", terms)
        rng = np.random.default_rng(8)
        verdicts = []
        for _ in range(40):
            n = int(rng.choice([2, 7, 40, 2**19 + 1]))
            k, rows, cols = (int(v) for v in rng.integers(0, 8, 3) + (0, 1, 16))
            left, right = rng.integers(0, n, (k, rows)), rng.integers(0, n, (k, cols))
            if rng.random() < 0.5:
                left, right = np.vstack((left, (n - left) % n)), np.vstack((right, right))
            verdicts.append(relations._grid_vanishes(left, right, n))
            assert verdicts[-1] == python_int_grid_vanishes(left, right, n)
        assert set(verdicts) == {True, False}

    def test_term_blocks_keep_int64_exact(self, monkeypatch):
        # Past the field bound, at n = 2^31 - 1, a product reaches 2^62 and
        # the int64 sum of three of them wraps; blocks of one term keep the
        # running sum below 2^62 + n.  Column 0 sums to 3n v = 0, column 1 to
        # 3n v + v.
        n = 2**31 - 1
        v = n - 5
        left = np.array([[n - 2, n - 2], [n - 3, n - 3], [n - 4, n - 4], [9, 10]], dtype=np.int64)
        right = np.full((4, 1), v, dtype=np.int64)
        monkeypatch.setattr(relations, "COND6_TERMS_MAX", 1)
        for cols, vanishes in ((slice(0, 1), True), (slice(0, 2), False)):
            assert python_int_grid_vanishes(left[:, cols], right, n) is vanishes
            assert relations._grid_vanishes(left[:, cols], right, n) is vanishes

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
