"""Multiplication-table groups, central series, and layer maps."""

import collections
import dataclasses
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from abelcentral import groups
from abelcentral.cohomology import verify_thm23_and_omegaR
from abelcentral.errors import DimensionError, DomainError, ModulusError, TheoremViolationError
from abelcentral.groups import (
    TableGroup,
    _coords_map,
    _generated_group,
    abelian_decomposition,
    central_series,
    cyclic_group,
    elementary_group,
    layer_maps,
)
from abelcentral.heisenberg import to_table_group


def direct_product(a, b):
    na, nb = a.order, b.order
    t = np.zeros((na * nb, na * nb), dtype=np.int64)
    for i in range(na * nb):
        ai, bi = divmod(i, nb)
        for j in range(na * nb):
            aj, bj = divmod(j, nb)
            t[i, j] = a.mul(ai, aj) * nb + b.mul(bi, bj)
    return TableGroup(table=t)


def is_group_oracle(t):
    """Oracle: identity, inverses and associativity over every triple."""
    n = t.shape[0]
    idx = np.arange(n)
    ids = [e for e in range(n) if np.array_equal(t[e], idx) and np.array_equal(t[:, e], idx)]
    if not ids:
        return False
    if not ((t == ids[0]).any(axis=1).all() and (t == ids[0]).any(axis=0).all()):
        return False
    a, b, c = np.meshgrid(idx, idx, idx, indexing="ij")
    return bool((t[t[a, b], c] == t[a, t[b, c]]).all())


def twisted_products(k):
    """Z/3 x (Z/3)^k with (x,a)(y,b) = (x + y + phi(a,b), ab), for phi pulled
    back from Z/3 along each coordinate in turn: phi is not a cocycle, so no
    table is associative.  Index x * 3^k + a."""
    base = elementary_group(3, k)
    m = base.order
    x, a = np.arange(3 * m) // m, np.arange(3 * m) % m
    for coord in range(k):
        c = (np.arange(m) // 3 ** (k - 1 - coord)) % 3
        phi = ((c[:, None] == 1) & (c[None, :] == 1)).astype(np.int64)
        yield ((x[:, None] + x[None, :] + phi[a[:, None], a[None, :]]) % 3) * m + base.table[a[:, None], a[None, :]]


GENERATOR_GROUPS = [
    ("trivial", lambda: elementary_group(2, 0)),
    ("C12", lambda: cyclic_group(12)),
    ("C600", lambda: cyclic_group(600)),
    ("(Z/2)^5", lambda: elementary_group(2, 5)),
    ("(Z/3)^3", lambda: elementary_group(3, 3)),
    ("C4xC6", lambda: direct_product(cyclic_group(4), cyclic_group(6))),
    *[(f"heis{n}", lambda n=n: to_table_group(n)) for n in (2, 3, 5)],
]


class TestConstruction:
    def test_rejects_non_associative(self):
        bad = np.array([[0, 1], [1, 1]])
        with pytest.raises(DomainError):
            TableGroup(table=bad)

    @pytest.mark.parametrize("order", [200, 600])
    def test_rejects_single_bad_product_at_any_order(self, order):
        # Above 512 the seed checked only a random sample of triples and
        # accepted this table; Light's test is exact for every order.
        t = cyclic_group(order).table.copy()
        t[5, 7] = 13
        with pytest.raises(DomainError):
            TableGroup(table=t)

    @pytest.mark.parametrize("build", [lambda: cyclic_group(6), lambda: to_table_group(2), lambda: elementary_group(2, 3)])
    def test_axioms_match_exhaustive_oracle(self, build):
        # Every single-entry change of a group table: the constructor
        # accepts exactly the tables the triple-by-triple oracle accepts.
        base = build().table
        n = base.shape[0]
        assert is_group_oracle(base)
        for a, b in itertools.product(range(n), repeat=2):
            for v in range(n):
                if v == base[a, b]:
                    continue
                t = base.copy()
                t[a, b] = v
                try:
                    TableGroup(table=t)
                    accepted = True
                except DomainError:
                    accepted = False
                assert accepted == is_group_oracle(t)

    @pytest.mark.parametrize("k", [2, 3])
    def test_rejects_twisted_products(self, k):
        # Not associative, though every product with the other coordinates
        # in the middle associates.
        for t in twisted_products(k):
            assert not is_group_oracle(t)
            with pytest.raises(DomainError):
                TableGroup(table=t)

    def test_rejects_twisted_products_in_row_blocks(self, monkeypatch):
        # Light's test with one row per block still finds them.
        monkeypatch.setattr(groups, "CHECK_CHUNK_CELLS", 1)
        for t in twisted_products(2):
            with pytest.raises(DomainError, match="not associative"):
                TableGroup(table=t)

    @pytest.mark.parametrize("name,build", GENERATOR_GROUPS, ids=[g[0] for g in GENERATOR_GROUPS])
    def test_generators(self, name, build):
        g = build()
        gens = g.generators
        assert len(gens) <= math.log2(g.order)
        assert g.subgroup_closure(gens).tolist() == list(range(g.order))
        for s in gens:  # irredundant
            assert len(g.subgroup_closure([x for x in gens if x != s])) < g.order

    def test_trivial_elementary_group(self):
        g = elementary_group(3, 0)
        assert g.order == 1 and g.generators == ()
        with pytest.raises(DomainError):
            elementary_group(2, -1)

    def test_rejects_no_identity(self):
        bad = np.array([[1, 1], [1, 1]])
        with pytest.raises(DomainError):
            TableGroup(table=bad)

    @pytest.mark.parametrize("table,message", [
        (np.array([[0, 1.7], [1.2, 0]]), "got dtype float64"),
        (np.array([[False, True], [True, False]]), "got dtype bool"),
        (np.array([[10**30]]), "got dtype object"),
        ([["0", "1"], ["1", "0"]], "got dtype <U1"),
    ])
    def test_table_not_of_integers(self, table, message):
        # The int64 cast used to truncate the float table to [[0, 1], [1, 0]]
        # and read the bools as 0 and 1; 10**30 died in its OverflowError.
        with pytest.raises(DomainError, match=f"table entries must be integers of at most 64 bits, {message}"):
            TableGroup(table=table)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint64])
    def test_any_integer_dtype_is_stored_as_int64(self, dtype):
        g = TableGroup(table=np.array([[0, 1], [1, 0]], dtype=dtype))
        assert g.table.dtype == np.int64 and g.table.tolist() == [[0, 1], [1, 0]]

    def test_uint64_beyond_int64_out_of_range(self):
        with pytest.raises(DomainError, match=r"table entries: 9223372036854775808 outside \[0, 2\)"):
            TableGroup(table=np.array([[0, 2**63], [2**63, 0]], dtype=np.uint64))

    @pytest.mark.parametrize("table,error", [
        (np.zeros((3, 2 * 10**6), dtype=np.int8), DimensionError),
        (np.broadcast_to(np.int8(0), (groups.TABLE_MAX + 1,) * 2), DomainError),
    ])
    def test_refused_table_is_not_copied(self, table, error):
        # The int64 cast ran before the shape and order checks: the 3 x 2*10^6
        # int8 table (5.7 MiB) peaked at 45.8 MiB before it was refused, and
        # the 10001 x 10001 view would have been copied into 763 MiB.
        tracemalloc.start()
        try:
            with pytest.raises(error):
                TableGroup(table=table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_cyclic_basics(self):
        g = cyclic_group(6)
        assert g.identity == 0
        assert g.inv(2) == 4
        assert g.order_of(2) == 3
        assert g.exponent() == 6

    @pytest.mark.parametrize("m", [10**6, groups.TABLE_MAX + 1, 0, -3])
    def test_cyclic_order_bound(self, m):
        # The order is checked before the m x m table is formed.
        if m > 0:
            message = f"group order: {m} exceeds the supported bound {groups.TABLE_MAX}"
        else:
            message = f"group order must be in \\[1, {groups.TABLE_MAX}\\]"
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=message):
                cyclic_group(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("n,k", [(3, 10**7), (3, 10**8), (2, 14), (10**5, 1), (22, 3), (1, 33), (1, 1)])
    def test_elementary_order_bound(self, n, k):
        # n^k is bounded before it is formed: 3^(10^7) alone took 4.5 s, and
        # (Z/1)^33 died in numpy's bare ValueError on its 66-axis grid.
        message = "needs n >= 2" if n == 1 else "group order: .* exceeds the supported bound"
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(DomainError, match=message):
                elementary_group(n, k)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 2**20

    def test_elementary_order_at_the_bound(self):
        assert elementary_group(10**4, 1).order == groups.TABLE_MAX
        assert elementary_group(1, 0).order == 1

    @pytest.mark.parametrize("cells", [1, 24, None])
    def test_light_test_in_row_blocks_matches_the_oracle(self, cells, monkeypatch):
        # Blocks of one row, of 24 cells (short last blocks) and of the
        # default size: every single-entry change of three tables, and the
        # twisted products, get the triple-by-triple oracle's verdict.
        if cells is not None:
            monkeypatch.setattr(groups, "CHECK_CHUNK_CELLS", cells)
        tables = list(twisted_products(2))
        for base in (cyclic_group(5).table, to_table_group(2).table, elementary_group(2, 3).table):
            tables.append(base)
            for a, b in itertools.product(range(base.shape[0]), repeat=2):
                t = base.copy()
                t[a, b] = (t[a, b] + 1) % base.shape[0]
                tables.append(t)
        for t in tables:
            try:
                TableGroup(table=t)
                accepted = True
            except DomainError:
                accepted = False
            assert accepted == is_group_oracle(t)

    def test_elementary_indexing(self):
        g = elementary_group(3, 2)
        # index = 3*c0 + c1; (1,2)*(2,2) = (0,1)
        assert g.mul(1 * 3 + 2, 2 * 3 + 2) == 1

    def test_power_and_commutator(self):
        h = to_table_group(3)
        for a in range(h.order):
            assert h.power(a, h.order_of(a)) == h.identity
        g = elementary_group(2, 2)
        for a in range(4):
            for b in range(4):
                assert g.commutator(a, b) == g.identity

    @pytest.mark.parametrize("build", [lambda: cyclic_group(7), lambda: to_table_group(3)], ids=["C7", "heis3"])
    def test_power_matches_the_loop(self, build):
        # a^m as m (or -m) literal products, for every a and |m| <= 2N.
        g = build()
        for a in range(g.order):
            acc, inv_acc = g.identity, g.identity
            for m in range(2 * g.order + 1):
                assert (g.power(a, m), g.power(a, -m)) == (acc, inv_acc), (a, m)
                acc, inv_acc = int(g.table[acc, a]), int(g.table[inv_acc, g.inv(a)])

    def test_power_of_a_huge_exponent(self):
        # By repeated squaring: 10^18 literal products would never finish.
        g = to_table_group(3)
        start = time.perf_counter()
        got = [g.power(a, 10**18) for a in range(g.order)]
        assert time.perf_counter() - start < 0.5
        assert got == [g.power(a, 10**18 % g.order_of(a)) for a in range(g.order)]
        assert cyclic_group(7).power(1, 10**18) == 10**18 % 7


class TestSuppliedGenerators:
    @pytest.mark.parametrize("name,build", GENERATOR_GROUPS, ids=[g[0] for g in GENERATOR_GROUPS])
    def test_standard_generators_match_the_greedy_search(self, name, build):
        g = build()
        assert g.generators == TableGroup(table=g.table).generators

    def test_non_generating_set_raises(self):
        g = elementary_group(2, 3)
        with pytest.raises(TheoremViolationError, match="do not generate"):
            _generated_group(g.table, None, [1, 2, 3])
        with pytest.raises(TheoremViolationError, match="do not generate"):
            _generated_group(to_table_group(3).table, None, [1, 3])  # the centre and h(0,1;0)

    @pytest.mark.parametrize("build,gens", [
        (lambda: cyclic_group(6), [1]),
        (lambda: to_table_group(2), [2, 4]),
        (lambda: elementary_group(2, 3), [1, 2, 4]),
    ], ids=["C6", "heis2", "(Z/2)^3"])
    def test_every_single_entry_change_raises(self, build, gens):
        # No table one entry away from a group table is a group; with the
        # standard generators supplied each one must still be refused.
        base = build().table
        n = base.shape[0]
        for a, b in itertools.product(range(n), repeat=2):
            for v in range(n):
                if v == base[a, b]:
                    continue
                t = base.copy()
                t[a, b] = v
                assert not is_group_oracle(t)
                with pytest.raises((DomainError, TheoremViolationError)):
                    _generated_group(t, None, gens)

    @pytest.mark.parametrize("k", [2, 3])
    def test_non_associative_table_raises(self, k):
        # The twisted products, with the generators of the twisted
        # coordinate and of (Z/3)^k supplied.
        m = 3 ** k
        for t in twisted_products(k):
            with pytest.raises(DomainError, match="not associative"):
                _generated_group(t, None, [m, *(3 ** np.arange(k))])


class TestCayleyTree:
    @pytest.mark.parametrize("name,build", GENERATOR_GROUPS, ids=[g[0] for g in GENERATOR_GROUPS])
    def test_breadth_first_spanning_tree(self, name, build):
        # Oracle: the same search one element at a time, edges of T[1] first.
        g = build()
        T = [g.identity, *g.generators]
        letters, levels = g._cayley_tree
        parent, step, frontier = {x: None for x in T}, {}, list(dict.fromkeys(T))
        want = []
        while frontier:
            level = []
            for j in range(1, len(T)):
                for x in frontier:
                    y = g.mul(x, T[j])
                    if y not in parent:
                        parent[y], step[y] = x, j
                        level.append((x, y, j))
            if level:
                want.append(level)
            frontier = [y for _, y, _ in level]
        assert [list(zip(*(part.tolist() for part in level))) for level in levels] == want
        for y in range(g.order):
            count, x = np.zeros(len(T), dtype=np.int64), y
            while parent[x] is not None:
                count[step[x]] += 1
                x = parent[x]
            count[T.index(x)] += 1
            assert letters[y].tolist() == count.tolist()
        assert not letters.flags.writeable
        assert all(not part.flags.writeable for level in levels for part in level)

    def test_built_once(self):
        g = to_table_group(3)
        assert g._cayley_tree is g._cayley_tree


class TestSubgroupsQuotients:
    def test_closure(self):
        g = cyclic_group(12)
        assert g.subgroup_closure([4]).tolist() == [0, 4, 8]
        assert g.subgroup_closure([3, 4]).tolist() == list(range(12))

    def test_quotient_sizes(self):
        g = cyclic_group(12)
        q, proj = g.quotient([0, 4, 8])
        assert q.order == 4
        for a in range(12):
            for b in range(12):
                assert proj[g.mul(a, b)] == q.mul(int(proj[a]), int(proj[b]))

    def test_quotient_requires_normal(self):
        g = cyclic_group(6)
        with pytest.raises(DomainError):
            g.quotient([0, 2])  # not closed

    def test_subgroup_table(self):
        g = cyclic_group(8)
        sub, to_old = g.subgroup_table([0, 2, 4, 6])
        assert sub.order == 4
        assert to_old.tolist() == [0, 2, 4, 6]
        assert sub.exponent() == 4


class TestDecomposition:
    @pytest.mark.parametrize("parts,expected", [
        ((4,), (4,)),
        ((4, 2), (4, 2)),
        ((2, 2, 2), (2, 2, 2)),
        ((8, 4, 2), (8, 4, 2)),
        ((9, 3), (9, 3)),
        ((6, 2), (6, 2)),
        ((12, 2), (12, 2)),
    ])
    def test_products(self, parts, expected):
        g = cyclic_group(parts[0])
        for m in parts[1:]:
            g = direct_product(g, cyclic_group(m))
        dec = abelian_decomposition(g)
        assert dec.orders == expected
        assert len(dec.coords_of) == g.order

    def test_coords_roundtrip(self):
        # Oracle: the product of the generator powers, one multiplication at a time.
        g = direct_product(cyclic_group(4), cyclic_group(2))
        dec = abelian_decomposition(g)
        for e, cs in enumerate(dec.coords_of):
            x = g.identity
            for gen, c in zip(dec.gens, cs):
                for _ in range(c):
                    x = g.mul(x, gen)
            assert x == e

    def test_nonabelian_rejected(self):
        with pytest.raises(DomainError):
            abelian_decomposition(to_table_group(2))


class TestWorkPerVerification:
    @pytest.mark.parametrize("build,closures", [
        (lambda: to_table_group(2), 7),
        (lambda: elementary_group(2, 6), 10),
    ], ids=["heis2", "(Z/2)^6"])
    def test_derived_groups_built_once(self, monkeypatch, build, closures):
        # One Light's test per layer group: the decompositions and G^(2)
        # build no verified group of their own.
        g, counts = build(), collections.Counter()
        for name in ("_verify", "_closure_mask"):
            method = getattr(TableGroup, name)
            monkeypatch.setattr(
                TableGroup, name, lambda self, *a, name=name, method=method: counts.update([name]) or method(self, *a)
            )
        assert verify_thm23_and_omegaR(g, 2).ok
        assert counts["_verify"] == 2
        assert counts["_closure_mask"] <= closures


class TestCentralSeries:
    @pytest.mark.parametrize("build,n,sizes", [
        (lambda: cyclic_group(4), 2, (4, 2, 1)),
        (lambda: elementary_group(2, 2), 2, (4, 1, 1)),
        (lambda: to_table_group(2), 2, (8, 2, 1)),
        (lambda: to_table_group(3), 3, (27, 3, 1)),
        (lambda: cyclic_group(9), 3, (9, 3, 1)),
    ])
    def test_sizes(self, build, n, sizes):
        cs = central_series(build(), n)
        assert cs.sizes[:3] == sizes

    def test_layer_structure(self):
        cs = central_series(to_table_group(3), 3)
        assert cs.layer1.decomposition.orders == (3, 3)
        assert cs.layer2.decomposition.orders == (3,)


class TestLayerMaps:
    def test_heis3_commutator(self):
        h = to_table_group(3)
        cs = central_series(h, 3)
        s = cs.layer1.project[h.labels.index("h(1,0;0)")]
        t = cs.layer1.project[h.labels.index("h(0,1;0)")]
        comm, _ = layer_maps(cs, random.Random(0))
        assert cs.layer2.project[comm[s, t]] == cs.layer2.project[h.labels.index("h(0,0;1)")]

    def test_heis2_power(self):
        h = to_table_group(2)
        cs = central_series(h, 2)
        s = cs.layer1.project[h.labels.index("h(1,1;0)")]
        _, powr = layer_maps(cs)
        assert cs.layer2.project[powr[s]] == cs.layer2.project[h.labels.index("h(0,0;1)")]

    def test_diagonal_commutator_trivial(self):
        cs = central_series(to_table_group(3), 3)
        comm, _ = layer_maps(cs)
        for s in range(cs.layer1.group.order):
            assert cs.layer2.project[comm[s, s]] == cs.layer2.group.identity

    def test_lift_index(self):
        # Oracle: a scan of the projection for each class, in table order.
        cs = central_series(to_table_group(3), 3)
        for layer in (cs.layer1, cs.layer2):
            for cls in range(layer.group.order):
                assert layer.lifts[cls].tolist() == [x for x, c in enumerate(layer.project) if c == cls]

    def test_lift_independence(self):
        # Random second lifts across several seeds must agree (checked
        # internally; disagreement raises).
        cs = central_series(to_table_group(3), 3)
        for seed in range(5):
            layer_maps(cs, random.Random(seed))

    def test_mixed_lifts_rejected(self):
        # Swap the last lifts of two classes: the rows of ``lifts`` then mix
        # classes with different commutators, which the random lifts find.
        cs = central_series(to_table_group(3), 3)
        l1 = cs.layer1
        x, y = l1.lifts[1, -1], l1.lifts[2, -1]
        project = l1.project.copy()
        project[[x, y]] = project[[y, x]]
        mixed = dataclasses.replace(cs, layer1=dataclasses.replace(l1, project=project))
        assert y in mixed.layer1.lifts[1] and x in mixed.layer1.lifts[2]
        for seed in range(5):
            with pytest.raises(TheoremViolationError, match="choice of lifts"):
                layer_maps(mixed, random.Random(seed))

    def test_memory_elementary_rank_10(self):
        # L = 1024 layer-1 elements: (L, L) int64 arrays of 8 MB each.
        cs = central_series(elementary_group(2, 10), 2)
        tracemalloc.start()
        try:
            comm, powr = layer_maps(cs, random.Random(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert comm.shape == (1024, 1024) and powr.shape == (1024,)
        assert peak <= 64 * 2**20

    def test_modulus_below_two(self):
        for n in (1, 0, -3):
            with pytest.raises(ModulusError, match="modulus must be >= 2"):
                central_series(to_table_group(3), n)

    def test_memory_bound(self, monkeypatch):
        # L = 64 layer-1 elements: six 64 x 64 int64 arrays with random
        # lifts, three without.  Above the bound nothing is allocated.
        cs = central_series(elementary_group(2, 6), 2)
        monkeypatch.setattr(groups, "LAYER_MAPS_BYTES_MAX", 6 * 8 * 64 * 64 - 1)
        with pytest.raises(DomainError, match=f"bytes of layer maps on 64 layer-1 elements: {6 * 8 * 64 * 64} exceeds"):
            layer_maps(cs, random.Random(0))
        assert layer_maps(cs)[0].shape == (64, 64)
        monkeypatch.setattr(groups, "LAYER_MAPS_BYTES_MAX", 3 * 8 * 64 * 64 - 1)
        with pytest.raises(DomainError, match=f": {3 * 8 * 64 * 64} exceeds"):
            layer_maps(cs)


# --- oracles: the scalar loops the array code replaced ---------------------


def oracle_closure(g, gens):
    """Products of ``gens`` until nothing new appears, as a sorted tuple."""
    seen = {g.identity}
    frontier = [g.identity]
    while frontier:
        new = {g.mul(x, s) for x in frontier for s in gens} - seen
        seen |= new
        frontier = list(new)
    return tuple(sorted(seen))


def oracle_is_subgroup(g, elems):
    s = set(elems)
    return g.identity in s and all(g.mul(a, b) in s for a in s for b in s)


def oracle_is_normal(g, elems):
    s = set(elems)
    return all(g.mul(g.mul(x, h), g.inv(x)) in s for x in range(g.order) for h in s)


def oracle_quotient(g, normal):
    proj = np.full(g.order, -1, dtype=np.int64)
    reps = []
    for x in range(g.order):
        if proj[x] >= 0:
            continue
        idx = len(reps)
        reps.append(x)
        for h in normal:
            proj[g.mul(x, h)] = idx
    m = len(reps)
    qt = np.zeros((m, m), dtype=np.int64)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            qt[i, j] = proj[g.mul(a, b)]
    labels = tuple(g.labels[r] for r in reps) if g.labels else None
    return TableGroup(table=qt, labels=labels), proj


def oracle_subgroup_table(g, elems):
    elems = tuple(sorted(set(elems)))
    pos = {x: i for i, x in enumerate(elems)}
    m = len(elems)
    t = np.zeros((m, m), dtype=np.int64)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            t[i, j] = pos[g.mul(a, b)]
    labels = tuple(g.labels[x] for x in elems) if g.labels else None
    return TableGroup(table=t, labels=labels), elems


def oracle_next_term(g, current, n):
    gens = set()
    for s in current:
        gens.add(g.power(s, n))
        for a in range(g.order):
            gens.add(g.commutator(a, s))
    return oracle_closure(g, sorted(gens))


def oracle_order_of(g, a):
    acc, m = a, 1
    while acc != g.identity:
        acc = g.mul(acc, a)
        m += 1
    return m


def oracle_coords_map(a, gens, orders):
    coords_of = {}
    for cs in itertools.product(*(range(d) for d in orders)):
        x = a.identity
        for gen, c in zip(gens, cs):
            x = a.mul(x, a.power(gen, c))
        if x in coords_of:
            return None
        coords_of[x] = cs
    return coords_of if len(coords_of) == a.order else None


def oracle_decomposition(a):
    """(gens, orders, coords dict) by the loops of the scalar implementation."""
    if a.order == 1:
        return (), (), {a.identity: ()}
    orders_all = [oracle_order_of(a, x) for x in range(a.order)]
    exp = math.lcm(*orders_all)
    g1 = orders_all.index(exp)
    q, proj = oracle_quotient(a, oracle_closure(a, [g1]))
    if q.order == 1:
        return (g1,), (exp,), oracle_coords_map(a, (g1,), (exp,))
    qgens, qorders, _ = oracle_decomposition(q)
    orders = (exp, *qorders)
    candidates = [
        [h for h in range(a.order) if proj[h] == qgen and orders_all[h] == qord]
        for qgen, qord in zip(qgens, qorders)
    ]
    for lifts in itertools.product(*candidates):
        coords = oracle_coords_map(a, (g1, *lifts), orders)
        if coords is not None:
            return (g1, *lifts), orders, coords
    raise AssertionError("no direct system of generators found")


def relabelled(g, seed):
    """The group ``g`` with its elements renumbered by a seeded random permutation."""
    new = np.random.default_rng(seed).permutation(g.order)  # old index -> new index
    t = np.empty_like(g.table)
    t[new[:, None], new[None, :]] = new[g.table]
    return TableGroup(table=t)


def oracle_central_series(g, n, depth=3):
    chain = [tuple(range(g.order))]
    for _ in range(depth):
        chain.append(oracle_next_term(g, chain[-1], n))
    layers = []
    for upper, lower in zip(chain[:2], chain[1:3]):
        sub, to_old = oracle_subgroup_table(g, upper)
        pos = {old: new for new, old in enumerate(to_old)}
        quot, proj = oracle_quotient(sub, [pos[x] for x in lower])
        project = {old: int(proj[new]) for new, old in enumerate(to_old)}
        layers.append((to_old, project, quot, oracle_decomposition(quot)))
    return chain, layers


def perm_group(gens):
    """The permutation group generated by ``gens``, elements sorted, (pq)(i) = p[q[i]]."""
    ident = tuple(range(len(gens[0])))
    elems = {ident}
    frontier = [ident]
    while frontier:
        new = {tuple(p[i] for i in s) for p in frontier for s in gens} - elems
        elems |= new
        frontier = list(new)
    elems = sorted(elems)
    pos = {p: i for i, p in enumerate(elems)}
    t = np.array([[pos[tuple(p[i] for i in q)] for q in elems] for p in elems])
    return TableGroup(table=t)


S3 = lambda: perm_group([(1, 0, 2), (1, 2, 0)])  # noqa: E731
D4 = lambda: perm_group([(1, 2, 3, 0), (0, 3, 2, 1)])  # noqa: E731
S4 = lambda: perm_group([(1, 0, 2, 3), (1, 2, 3, 0)])  # noqa: E731

ORACLE_GROUPS = [
    *[(f"heis{n}", lambda n=n: to_table_group(n), n) for n in range(2, 8)],
    ("C4", lambda: cyclic_group(4), 2),
    ("C8", lambda: cyclic_group(8), 2),
    ("C9", lambda: cyclic_group(9), 3),
    ("C27", lambda: cyclic_group(27), 3),
    ("C12", lambda: cyclic_group(12), 2),
    ("C36", lambda: cyclic_group(36), 6),
    *[(f"(Z/2)^{k}", lambda k=k: elementary_group(2, k), 2) for k in range(1, 8)],
    ("(Z/3)^3", lambda: elementary_group(3, 3), 3),
    ("(Z/4)^2,n=2", lambda: elementary_group(4, 2), 2),
    ("(Z/4)^2,n=4", lambda: elementary_group(4, 2), 4),
    ("S3,n=2", S3, 2),
    ("S3,n=3", S3, 3),
    ("D4,n=2", D4, 2),
    ("S4,n=2", S4, 2),
    ("S4,n=6", S4, 6),
]

RELABELLED_ABELIAN = [
    ("C4xC2xC6", lambda: direct_product(direct_product(cyclic_group(4), cyclic_group(2)), cyclic_group(6))),
    ("C3xC9", lambda: direct_product(cyclic_group(3), cyclic_group(9))),
    ("C2xC2xC4", lambda: direct_product(elementary_group(2, 2), cyclic_group(4))),
    ("C6xC10", lambda: direct_product(cyclic_group(6), cyclic_group(10))),
    ("C36", lambda: cyclic_group(36)),
]

SMALL_ORACLE_GROUPS = [c for c in ORACLE_GROUPS if c[0] not in {"heis5", "heis6", "heis7", "(Z/2)^7"}]  # order <= 64


class TestAgainstOracles:
    @pytest.mark.parametrize("name,build,n", ORACLE_GROUPS, ids=[c[0] for c in ORACLE_GROUPS])
    def test_central_series(self, name, build, n):
        g = build()
        cs = central_series(g, n)
        chain, layers = oracle_central_series(g, n, depth=2)
        assert [s.tolist() for s in cs.subgroups] == [list(c) for c in chain]
        for layer, (to_old, project, quot, (gens, orders, coords)) in zip((cs.layer1, cs.layer2), layers):
            assert layer.members.tolist() == list(to_old)
            expected = np.full(g.order, -1)
            expected[list(project)] = list(project.values())
            assert layer.project.tolist() == expected.tolist()
            assert np.array_equal(layer.group.table, quot.table)
            assert layer.group.labels == quot.labels
            dec = layer.decomposition
            assert (dec.gens, dec.orders) == (gens, orders)
            assert {e: tuple(c) for e, c in enumerate(dec.coords_of.tolist())} == coords

    @pytest.mark.parametrize("name,build", RELABELLED_ABELIAN, ids=[c[0] for c in RELABELLED_ABELIAN])
    def test_decomposition_of_relabelled_groups(self, name, build):
        # Away from the standard numbering the identity and <g_1> are not the
        # first indices, so the cosets of each quotient are numbered afresh.
        for seed in range(3):
            a = relabelled(build(), seed)
            dec = abelian_decomposition(a)
            gens, orders, coords = oracle_decomposition(a)
            assert (dec.gens, dec.orders) == (gens, orders)
            assert {e: tuple(c) for e, c in enumerate(dec.coords_of.tolist())} == coords

    @pytest.mark.parametrize("name,build,n", SMALL_ORACLE_GROUPS, ids=[c[0] for c in SMALL_ORACLE_GROUPS])
    def test_subsets(self, name, build, n):
        # Every cyclic subgroup (closed, and normal or not) and seeded random
        # subsets (mostly not closed).
        g = build()
        rng = random.Random(g.order)
        subsets = [oracle_closure(g, [x]) for x in range(g.order)]
        subsets += [rng.sample(range(g.order), rng.randint(1, g.order)) for _ in range(20)]
        for elems in subsets:
            closed = oracle_is_subgroup(g, elems)
            normal = oracle_is_normal(g, elems)
            assert g.is_subgroup(elems) == closed
            assert g.is_normal(elems) == normal
            if closed:
                sub, to_old = g.subgroup_table(elems)
                osub, oto_old = oracle_subgroup_table(g, elems)
                assert to_old.tolist() == list(oto_old)
                assert np.array_equal(sub.table, osub.table)
            else:
                with pytest.raises(DomainError, match="not closed"):
                    g.subgroup_table(elems)
            if closed and normal:
                q, proj = g.quotient(elems)
                oq, oproj = oracle_quotient(g, elems)
                assert proj.tolist() == oproj.tolist()
                assert np.array_equal(q.table, oq.table)
                assert q.labels == oq.labels
            else:
                with pytest.raises(DomainError):
                    g.quotient(elems)

    @pytest.mark.parametrize("name,build,n", SMALL_ORACLE_GROUPS, ids=[c[0] for c in SMALL_ORACLE_GROUPS])
    def test_quotient_keeps_images_of_the_parent_generators(self, name, build, n):
        # Each kept image lies outside the closure of those before it, and
        # together they generate the quotient.
        g = build()
        for normal in central_series(g, n).subgroups[1:]:
            q, proj = g.quotient(normal)
            kept = list(q.generators)
            assert set(kept) <= set(proj[list(g.generators)].tolist())
            for i, s in enumerate(kept):
                assert s not in oracle_closure(q, kept[:i])
            assert oracle_closure(q, kept) == tuple(range(q.order))

    @pytest.mark.parametrize("build", [
        lambda: direct_product(cyclic_group(4), cyclic_group(2)),
        lambda: elementary_group(4, 2),
        lambda: cyclic_group(12),
        lambda: elementary_group(2, 3),
    ])
    def test_coords_map(self, build):
        a = build()
        for x, y in itertools.product(range(a.order), repeat=2):
            orders = (a.order_of(x), a.order_of(y))
            got = _coords_map(a.table, a.identity, (x, y), orders)
            expected = oracle_coords_map(a, (x, y), orders)
            if expected is None:
                assert got is None
            else:
                assert {e: tuple(c) for e, c in enumerate(got.tolist())} == expected

    @pytest.mark.parametrize("name,build,n", SMALL_ORACLE_GROUPS, ids=[c[0] for c in SMALL_ORACLE_GROUPS])
    def test_layer_maps(self, name, build, n):
        # Oracle: the scalar commutator and power of the first lifts, pair by pair.
        g = build()
        cs = central_series(g, n)
        comm, powr = layer_maps(cs, random.Random(g.order))
        first = cs.layer1.lifts[:, 0].tolist()
        assert comm.tolist() == [[g.commutator(s, t) for t in first] for s in first]
        assert powr.tolist() == [g.power(s, n) for s in first]

    @pytest.mark.parametrize("name,build,n", ORACLE_GROUPS[:12], ids=[c[0] for c in ORACLE_GROUPS[:12]])
    def test_orders(self, name, build, n):
        g = build()
        assert g.orders.tolist() == [oracle_order_of(g, a) for a in range(g.order)]
        assert g.exponent() == math.lcm(*g.orders.tolist())

    def test_orders_cyclic_3000(self):
        # 3000 has 32 divisors: one power per divisor, not one per exponent.
        m = 3000
        orders = cyclic_group(m).orders
        assert orders.tolist() == [m // math.gcd(a, m) for a in range(m)]
        assert not orders.flags.writeable


class TestIndexValidation:
    @pytest.mark.parametrize("bad", [-1, 4])
    @pytest.mark.parametrize("call", [
        lambda g, x: g.subgroup_closure([x]),
        lambda g, x: g.is_subgroup([0, 2, x]),
        lambda g, x: g.is_normal([0, 2, x]),
        lambda g, x: g.quotient([0, 2, x]),
        lambda g, x: g.subgroup_table([0, x]),
        lambda g, x: g.mul(x, 0),
        lambda g, x: g.mul(0, x),
        lambda g, x: g.inv(x),
        lambda g, x: g.power(x, 3),
        lambda g, x: g.power(x, -3),
        lambda g, x: g.powers(x, 3),
        lambda g, x: g.commutator(0, x),
        lambda g, x: g.order_of(x),
    ], ids=["subgroup_closure", "is_subgroup", "is_normal", "quotient", "subgroup_table", "mul_left", "mul_right",
            "inv", "power", "power_negative", "powers", "commutator", "order_of"])
    def test_out_of_range(self, call, bad):
        # Negative indices used to wrap around: is_subgroup([0, 2, -2]) on C4
        # was True, subgroup_closure([-1]) all of C4 and mul(-1, 0) 3; mul(4, 0)
        # raised a bare IndexError.
        with pytest.raises(DomainError):
            call(cyclic_group(4), bad)

    @pytest.mark.parametrize("call,message", [
        (lambda g: elementary_group(2.5, 2), "modulus must be an integer, got 2.5"),
        (lambda g: elementary_group(2, 1.5), "rank must be an integer, got 1.5"),
        (lambda g: central_series(g, 2.5), "modulus must be an integer, got 2.5"),
        (lambda g: central_series(g, True), "modulus must be an integer, got True"),
        (lambda g: g.power(1, 1.5), "exponent must be an integer, got 1.5"),
        (lambda g: g.powers(1, 2.5), "power count must be an integer, got 2.5"),
        (lambda g: g.mul(1.0, 2), "element index must be an integer, got 1.0"),
        (lambda g: g.order_of(np.float64(2)), "element index must be an integer"),
    ])
    def test_not_an_integer(self, call, message):
        # Each raised a bare TypeError (or numpy's IndexError).
        with pytest.raises(DomainError, match=message):
            call(cyclic_group(4))

    def test_numpy_integers_pass(self):
        g = cyclic_group(4)
        assert g.power(np.int64(1), np.uint8(3)) == 3 == g.mul(np.int32(1), 2)
        assert central_series(g, np.int64(2)).sizes == central_series(g, 2).sizes
        assert elementary_group(np.int64(2), np.int16(2)).order == 4

    def test_negative_power_count(self):
        # powers(1, -3) on C7 used to return an empty array, as if there were no powers.
        g = cyclic_group(7)
        with pytest.raises(DomainError, match="power count"):
            g.powers(1, -3)
        assert g.powers(1, 0).tolist() == []
        assert g.powers(1, 3).tolist() == [0, 1, 2]

    def test_closed_but_not_normal(self):
        h = to_table_group(3)
        sub = [h.labels.index(f"h({a},0;0)") for a in range(3)]
        assert sub == [0, 9, 18]
        assert h.subgroup_closure([9]).tolist() == sub
        assert h.is_subgroup(sub)
        assert not h.is_normal(sub)
        with pytest.raises(DomainError):
            h.quotient(sub)
