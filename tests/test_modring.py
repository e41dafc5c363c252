"""Linear algebra over Z/n, validated against brute-force closure oracles."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abelcentral import modring
from abelcentral.groups import elementary_group
from abelcentral.heisenberg import to_table_group
from abelcentral.errors import DimensionError, DomainError, ModulusError, TheoremViolationError
from abelcentral.modring import ModMatrix, SubgroupZnk, binom2

import sympy_oracle


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


def _ref_gcdex(a, b):
    """Oracle helper: extended Euclid over Z."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _ref_unit_scale(a, n):
    """Oracle helper: (d, u) with d = gcd(a, n) and u a unit with u*a = d mod n."""
    a %= n
    d = math.gcd(a, n)
    if a == d:
        return d, 1
    e, f = a // d, n // d
    u0 = pow(e, -1, f)
    u = u0
    while math.gcd(u, n) != 1:
        u += f
    return d, u % n


def _ref_first_nonzero(v):
    nz = np.flatnonzero(v)
    return int(nz[0]) if nz.size else -1


def _ref_howell_basis(rows, n):
    """Oracle: the row-wise Howell basis, one row against one pivot at a time."""
    basis = {}
    stack = [np.asarray(r, dtype=np.int64) % n for r in rows]
    stack = [r for r in stack if r.any()]

    def push_annihilator(row, j):
        a = n // math.gcd(int(row[j]), n)
        if a % n:
            ann = (a * row) % n
            if ann.any():
                stack.append(ann)

    while stack:
        v = stack.pop()
        while True:
            j = _ref_first_nonzero(v)
            if j < 0:
                break
            if j not in basis:
                basis[j] = v
                push_annihilator(v, j)
                break
            w = basis[j]
            a, b = int(w[j]), int(v[j])
            g, s, t = _ref_gcdex(a, b)
            u, vv = -(b // g), a // g
            new_w = (s * w + t * v) % n
            new_v = (u * w + vv * v) % n
            if int(new_w[j]) != a:
                # Pivot ideal grew; its annihilator row may be new.
                push_annihilator(new_w, j)
            basis[j] = new_w
            v = new_v
    return basis


def ref_howell(entries, n):
    """Oracle: the row-wise Howell basis, unit-scaled, reduced above each pivot, sorted."""
    basis = _ref_howell_basis(entries, n)
    pivots = sorted(basis)
    h = np.zeros((len(pivots), entries.shape[1]), dtype=np.int64)
    for i, j in enumerate(pivots):
        _, u = _ref_unit_scale(int(basis[j][j]), n)
        h[i] = (u * basis[j]) % n
    for i, j in enumerate(pivots):
        h[:i] = (h[:i] - (h[:i, j] // h[i, j])[:, None] * h[i]) % n
    return h


def assert_same_howell(entries, n):
    """modring._howell against the row-wise oracle, byte for byte."""
    got, want = modring._howell(entries, n), ref_howell(entries, n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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


class TestHowellOracle:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_row_wise_oracle(self, data):
        n = data.draw(st.sampled_from([2, 4, 6, 12, 16, 30, 360, 65537, 2**16, 2**31 - 1]), label="n")
        rows = data.draw(st.integers(0, 12), label="rows")
        cols = data.draw(st.integers(0, 12), label="cols")
        kind = data.draw(st.sampled_from(["uniform", "sparse", "low rank"]), label="kind")
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if kind == "uniform":
            a = [[rng.randrange(n) for _ in range(cols)] for _ in range(rows)]
        elif kind == "sparse":
            a = [[rng.randrange(n) if rng.random() < 0.2 else 0 for _ in range(cols)] for _ in range(rows)]
        else:  # a = B C of rank at most k, products in Python integers
            k = rng.randrange(1, 4)
            left = [[rng.randrange(n) for _ in range(k)] for _ in range(rows)]
            right = [[rng.randrange(n) for _ in range(cols)] for _ in range(k)]
            a = [[sum(x * y for x, y in zip(row, col)) % n for col in zip(*right)] for row in left]
        assert_same_howell(np.array(a, dtype=np.int64).reshape(rows, cols), n)

    def test_chunked_subtraction(self, monkeypatch):
        # One row per block of the elimination, as on very wide matrices.
        monkeypatch.setattr(modring, "HOWELL_CHUNK_CELLS", 1)
        rng = random.Random(7)
        for _ in range(200):
            n = rng.choice([4, 6, 12, 360, 2**31 - 1])
            r, c = rng.randrange(0, 9), rng.randrange(0, 9)
            assert_same_howell(np.array([[rng.randrange(n) for _ in range(c)] for _ in range(r)]).reshape(r, c), n)

    @pytest.mark.parametrize("chunk", [1, 3, None])
    def test_wide_sparse_rows(self, chunk, monkeypatch):
        # [M | I] for sparse M with many more columns than rows, as
        # _left_kernel builds them for nullspace (M = A^T) and solve_linear
        # (M = [-b^T; A^T]): most steps change under a quarter of the rows,
        # which are then gathered (in chunks of one or three rows when the
        # chunk bound is lowered).
        if chunk is not None:
            monkeypatch.setattr(modring, "HOWELL_CHUNK_CELLS", chunk * 200)
        rng = random.Random(11 if chunk is None else chunk)
        for _ in range(60):
            n = rng.choice([2, 3, 4, 6, 12, 2**16, 2**31 - 1])
            r, c = rng.randrange(4, 12), rng.randrange(60, 120)
            a = np.array([[rng.randrange(n) if rng.random() < 0.05 else 0 for _ in range(r)] for _ in range(c)])
            assert_same_howell(np.hstack([a.T, np.eye(r, dtype=np.int64)]), n)

    def test_ffrak_generators_f191(self):
        from abelcentral import finfield, tables

        k = finfield.make_field(191, n=190)
        g = tables.ffrak_generate(k, finfield.omega(k, 190))
        flat = np.stack([t.flatten() for t in g.generators])
        assert flat.shape == (189, 378)
        assert_same_howell(flat, 190)

    @pytest.mark.parametrize("build,n", [
        (lambda: elementary_group(2, 4), 2),
        (lambda: to_table_group(3), 3),
    ], ids=["(Z/2)^4", "heis3"])
    def test_coboundary_systems(self, build, n, monkeypatch):
        # Every coboundary system of the machinery, and every matrix whose
        # Howell form it takes on the way.
        from abelcentral import cohomology

        systems, inputs = [], []
        system, howell = cohomology._coboundary_system, modring._howell
        monkeypatch.setattr(cohomology, "_coboundary_system", lambda *a: systems.append(system(*a)) or systems[-1])
        monkeypatch.setattr(modring, "_howell", lambda e, m: inputs.append((e, m)) or howell(e, m))
        assert cohomology.verify_thm23_and_omegaR(build(), n).ok
        monkeypatch.undo()
        assert systems and inputs
        for rows, _ in systems:
            assert_same_howell(rows, n)
        for entries, m in inputs:
            assert_same_howell(entries, m)

    def test_forms_wrap_the_working_array(self):
        # howell_form and canonicalize return _howell's own reduced array: on
        # 8 x 2(q-2) over F_65537 the peak is that working copy plus pivot-row
        # temporaries, where reducing it again into a new ModMatrix took a
        # second copy (two copies, 16 MiB).
        n = 65537
        mat = ModMatrix(n, np.random.default_rng(3).integers(0, n, (8, 2 * (n - 2))))
        want = ref_howell(mat.entries, n)
        for op in (modring.howell_form, lambda m: modring.canonicalize(m).canonical):
            tracemalloc.start()
            try:
                h = op(mat)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert h.entries.tobytes() == want.tobytes() and h.entries.shape == want.shape
            assert peak < 1.5 * mat.entries.nbytes
        # A form of few rows does not keep a tall working array alive.
        tall = ModMatrix(6, np.random.default_rng(4).integers(0, 6, (20000, 3)))
        tracemalloc.start()
        try:
            h = modring.howell_form(tall)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert h.entries.tobytes() == ref_howell(tall.entries, 6).tobytes()
        assert held < tall.entries.nbytes / 10
        # The public constructor still reduces its input.
        assert ModMatrix(5, np.array([[7, -1]])).entries.tolist() == [[2, 4]]

    def test_doubled_powers_f65537(self):
        from abelcentral import finfield, tables

        k = finfield.make_field(65537, n=16)
        w = finfield.omega(k, 16)
        mat = np.stack([tables.psi(f, w).scale(2).flatten() for f in finfield.characters(k)])
        assert mat.shape == (16, 131070)
        assert_same_howell(mat, 16)


class TestRowBlocks:
    @pytest.mark.parametrize("width,cells", [(1, 1), (3, 1), (1, 7), (3, 7), (5, 20), (40, 7), (4, 2**14)])
    def test_covers_each_row_once_in_order(self, width, cells):
        # width > cells and cells = 1 give one row per block.
        step = max(1, cells // width)
        for count in range(0, 30):
            blocks = modring.row_blocks(count, width, cells)
            assert [i for b in blocks for i in range(count)[b]] == list(range(count))
            assert all(0 < b.stop - b.start <= step for b in blocks)
            assert len(blocks) == -(-count // step)

    def test_count_zero(self):
        assert modring.row_blocks(0, 5, 100) == []

    @pytest.mark.parametrize("cells", [1, 200, None])
    def test_howell_in_blocks_matches_the_oracle(self, cells, monkeypatch):
        # Both subtraction loops of _howell (all rows, and the gathered rows
        # of a wide sparse matrix) in blocks of one row, of 200 cells and of
        # the default size, against the row-wise oracle.
        if cells is not None:
            monkeypatch.setattr(modring, "HOWELL_CHUNK_CELLS", cells)
        rng = random.Random(27)
        for _ in range(40):
            n = rng.choice([2, 4, 6, 12, 360, 2**16, 2**31 - 1])
            r, c = rng.randrange(0, 10), rng.randrange(0, 40)
            assert_same_howell(np.array([[rng.randrange(n) for _ in range(c)] for _ in range(r)]).reshape(r, c), n)
            r, c = rng.randrange(4, 12), rng.randrange(60, 120)
            a = np.array([[rng.randrange(n) if rng.random() < 0.05 else 0 for _ in range(r)] for _ in range(c)])
            assert_same_howell(np.hstack([a.T, np.eye(r, dtype=np.int64)]), n)


class TestEmptyShapes:
    # verify_thm23_and_omegaR compares Howell forms of (L, 0) and (m, 0)
    # matrices on every elementary group, where the kernel is empty.
    @pytest.mark.parametrize("shape", [(3, 0), (0, 4), (0, 0)])
    @pytest.mark.parametrize("n", [6, 2**31 - 1])
    def test_every_operation(self, shape, n):
        rows, cols = shape
        mat = ModMatrix(n, np.zeros(shape, dtype=np.int64))
        assert modring.howell_form(mat).entries.shape == (0, cols)
        sub = modring.canonicalize(mat)
        assert modring.structure(sub).invariant_factors == ()
        assert modring.membership(sub, [0] * cols)
        assert modring.membership(sub, [1] * cols) == (cols == 0)
        assert modring.nullspace(mat).entries.tolist() == np.eye(cols, dtype=np.int64).tolist()
        assert modring.solve_linear(mat, [0] * rows).tolist() == [0] * cols
        x = modring.solve_linear(mat, [1] * rows)
        assert (x is None) == (rows > 0)
        for k in (0, 2):
            x = modring.solve_linear(mat, np.zeros((rows, k), dtype=np.int64))
            assert x.shape == (cols, k) and not x.any()
            x = modring.solve_linear(mat, np.ones((rows, k), dtype=np.int64))
            assert (x is None) == (rows > 0 and k > 0)


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

    def test_against_the_sympy_oracle(self):
        # About 2000 subgroups, up to 10 x 10 and with more rows than columns
        # as often as not; half of them are built from divisors of n, which
        # gives pivots that are not units.
        rng = random.Random(16)
        for _ in range(2000):
            n = rng.choice([2, 6, 12, 36, 60, 720, 2**16, 65537, 2**31 - 1])
            rows, cols = rng.randrange(11), rng.randrange(1, 11)
            divisors = [d for d in (1, 2, 3, 4, 5, 6, 8, 9, 12, 2**8, 2**15) if n % d == 0]
            scale = rng.choice(divisors) if rng.random() < 0.5 else 1
            entries = np.array(
                [[scale * rng.randrange(n) % n for _ in range(cols)] for _ in range(rows)], dtype=np.int64
            ).reshape(rows, cols)
            sub = modring.canonicalize(ModMatrix(n, entries))
            assert modring.structure(sub).invariant_factors == sympy_oracle.structure(sub), (n, entries.tolist())

    def test_against_the_full_width_rounds(self):
        # The pivot block against the rounds on the whole canonical form:
        # narrow subgroups at composite and prime moduli, most of them rank
        # deficient (rows are combinations of fewer base rows, scaled by a
        # divisor of n for pivots that are not units), then wide forms of
        # 1-3 rows up to 131070 columns.
        rng = np.random.default_rng(25)
        moduli = [4, 6, 12, 36, 60, 720, 2**16, 65537, 2**31 - 1]

        def rows_of(n, rows, cols, rank):
            divisors = [d for d in (1, 2, 3, 4, 6, 8, 12, 2**8) if n % d == 0 and d < n]
            base = rng.integers(0, n, (rank, cols)) * int(rng.choice(divisors)) % n
            return rng.integers(1, 4, (rows, rank)) @ base % n

        cases = []
        for _ in range(600):
            n, cols = int(rng.choice(moduli)), int(rng.integers(1, 9))
            cases.append((n, rows_of(n, int(rng.integers(0, 9)), cols, int(rng.integers(1, 5)))))
        for cols in (2, 3, 1000, 65535, 131070):
            for n in (12, 720, 2**16):
                rows = int(rng.integers(1, 4))
                cases.append((n, rows_of(n, rows, cols, int(rng.integers(1, rows + 1)))))
        wide = 0
        for n, entries in cases:
            sub = modring.canonicalize(ModMatrix(n, entries))
            wide += sub.canonical.cols >= 1000 and 1 <= sub.canonical.rows <= 3
            got, want = modring.structure(sub), sympy_oracle.full_width_structure(sub)
            assert got == want, (n, entries.shape)
        assert wide >= 8

    def test_pivot_block_bounds_f65537(self, monkeypatch):
        # The table group of F_65537 at n = 65536 has two Howell rows of
        # 131070 columns, which the full-width rounds transposed into a
        # 131070 x 2 matrix (about 37 ms and a 10.8 MiB tracemalloc peak).
        from abelcentral import finfield, tables

        k = finfield.make_field(65537, n=65536)
        sub = tables.ffrak_generate(k, finfield.omega(k, 65536)).subgroup
        r = sub.canonical.rows
        assert (r, sub.canonical.cols) == (2, 131070)
        cells, howell = [], modring._howell
        monkeypatch.setattr(modring, "_howell", lambda a, n: cells.append(a.size) or howell(a, n))
        assert modring.structure(sub).invariant_factors == (65536,)
        assert cells and max(cells) <= r * r
        tracemalloc.start()
        try:
            modring.structure(sub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_three_rounds(self, monkeypatch):
        # Howell rows [[4, 2], [0, 3]] mod 60, order 15 * 20: the columns,
        # the rows and the columns again before each line has one entry.
        rounds = []
        howell = modring._howell
        monkeypatch.setattr(modring, "_howell", lambda a, n: rounds.append(a.shape) or howell(a, n))
        sub = SubgroupZnk(60, 2, ModMatrix.from_rows([[4, 2], [0, 3]], 60))
        assert modring.structure(sub).invariant_factors == (5, 60)
        assert len(rounds) == 3
        assert sympy_oracle.structure(sub) == (5, 60)

    def test_wrong_order_raises(self, monkeypatch):
        # A round that returns Z/60 + Z/15 for the subgroup Z/5 + Z/60.
        monkeypatch.setattr(modring, "_howell", lambda a, n: np.array([[1, 0], [0, 4]]))
        sub = SubgroupZnk(60, 2, ModMatrix.from_rows([[4, 2], [0, 3]], 60))
        with pytest.raises(TheoremViolationError, match="multiply to the order"):
            modring.structure(sub)

    def test_chain_violations_are_domain_errors(self):
        for facs in [(4, 6), (1, 2)]:
            with pytest.raises(DomainError):
                modring.AbelianStructure(facs)


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

    def test_projected_kernel(self):
        # The last keep entries of the kernel vectors, read off one Howell
        # form, are the Howell form of those of the full kernel basis.
        rng = random.Random(8)
        for _ in range(300):
            n = rng.choice([2, 4, 6, 12, 2**16, 2**31 - 1])
            r, c = rng.randrange(0, 7), rng.randrange(0, 7)
            keep = rng.randrange(0, r + 1)
            sparse = rng.random() < 0.5
            mat = np.array(
                [[rng.randrange(n) if not sparse or rng.random() < 0.3 else 0 for _ in range(c)] for _ in range(r)],
                dtype=np.int64,
            ).reshape(r, c)
            want = ref_howell(modring._left_kernel(mat, n)[:, r - keep :], n)
            got = modring._left_kernel(mat, n, keep)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

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
        for rhs in (b, np.array([b, b]).T):
            with pytest.raises(TheoremViolationError, match="fails substitution"):
                modring.solve_linear(a, rhs)

    @staticmethod
    def columns_case(rng, n, rows, cols, k):
        """(a, b): a of random rank, b with k columns a @ x0 of planted x0, one
        of them replaced by a random column half the time (products in Python
        integers)."""
        inner = rng.randrange(1, max(rows, cols) + 1)
        left = [[rng.randrange(n) for _ in range(inner)] for _ in range(rows)]
        right = [[rng.randrange(n) for _ in range(cols)] for _ in range(inner)]
        a = [[sum(x * y for x, y in zip(row, col)) % n for col in zip(*right)] for row in left]
        x0 = [[rng.randrange(n) for _ in range(k)] for _ in range(cols)]
        b = [[sum(a[i][j] * x0[j][c] for j in range(cols)) % n for c in range(k)] for i in range(rows)]
        if k and rng.random() < 0.5:
            c = rng.randrange(k)
            for row in b:
                row[c] = rng.randrange(n)
        return a, b

    def assert_columns_match(self, n, a, b, k):
        """solve_linear with k columns against k one-column solves; True when solved."""
        mat, rhs = ModMatrix(n, np.array(a, dtype=np.int64)), np.array(b, dtype=np.int64).reshape(len(a), k)
        x = modring.solve_linear(mat, rhs)
        singles = [modring.solve_linear(mat, rhs[:, c]) for c in range(k)]
        if any(s is None for s in singles):
            assert x is None
            return False
        assert x.shape == (mat.cols, k)
        for c in range(k):
            assert x[:, c].tolist() == singles[c].tolist()
            got = [sum(ai * int(xi) for ai, xi in zip(row, x[:, c])) % n for row in a]
            assert got == [row[c] for row in b]
        return True

    def test_columns_against_single_solves(self):
        # k right-hand sides at once: None exactly when some column alone has
        # no solution, else column by column the one-column answer.
        rng = random.Random(12)
        outcomes = set()
        for _ in range(300):
            n = rng.choice([2, 4, 6, 12, 2**16, 65537, 2**31 - 1])
            rows, cols, k = rng.randrange(1, 9), rng.randrange(1, 9), rng.randrange(0, 5)
            outcomes.add(self.assert_columns_match(n, *self.columns_case(rng, n, rows, cols, k), k))
        assert outcomes == {True, False}

    def test_canonical_solution(self):
        # x is reduced against the Howell rows of ker a, so reordering the
        # equations (rows of a with b) gives the same x.
        rng = random.Random(14)
        solved = 0
        for _ in range(400):
            n = rng.choice([6, 12, 2**16, 65537, 2**31 - 1])
            rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
            a, b = (np.array(m, dtype=np.int64) for m in self.columns_case(rng, n, rows, cols, 1))
            x = modring.solve_linear(ModMatrix(n, a), b[:, 0])
            perm = rng.sample(range(rows), rows)
            y = modring.solve_linear(ModMatrix(n, a[perm]), b[perm, 0])
            assert (x is None) == (y is None)
            if x is not None:
                solved += 1
                assert y.tolist() == x.tolist()
                assert modring._reduce_against(modring.nullspace(ModMatrix(n, a)).entries, x, n).tolist() == x.tolist()
        assert solved > 200

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_columns_at_large_moduli(self, data):
        n = data.draw(st.sampled_from([2**31 - 1, 65537, 2**16]), label="n")
        rows = data.draw(st.integers(1, 12), label="rows")
        cols = data.draw(st.integers(1, 12), label="cols")
        k = data.draw(st.integers(0, 4), label="k")
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        self.assert_columns_match(n, *self.columns_case(rng, n, rows, cols, k), k)

    def test_matvec_columns_without_overflow(self):
        # At 2^31 - 1 a plain int64 matmul of 9 columns overflows; the
        # column-by-column branch takes a vector or a matrix x.
        rng = random.Random(13)
        for n in (2**31 - 1, 65537, 2**16):
            mat = [[rng.randrange(n - 4, n) for _ in range(9)] for _ in range(7)]
            x = [[rng.randrange(n - 4, n) for _ in range(3)] for _ in range(9)]
            want = [[sum(mat[i][j] * x[j][c] for j in range(9)) % n for c in range(3)] for i in range(7)]
            got = modring._matvec(np.array(mat, dtype=np.int64), np.array(x, dtype=np.int64), n)
            assert got.tolist() == want
            col = modring._matvec(np.array(mat, dtype=np.int64), np.array(x, dtype=np.int64)[:, 1], n)
            assert col.tolist() == [row[1] for row in want]

    @pytest.mark.parametrize("shape", [(3,), (1, 2), (2, 2, 1), ()])
    def test_rhs_shape_checked(self, shape):
        with pytest.raises(DimensionError):
            modring.solve_linear(ModMatrix(5, np.eye(2, dtype=np.int64)), np.zeros(shape, dtype=np.int64))
