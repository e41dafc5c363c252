"""Multiplication-table groups, central series, and layer maps."""

import itertools
import math
import random

import numpy as np
import pytest

from abelcentral.errors import DomainError
from abelcentral.groups import (
    TableGroup,
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
        # Z/3 x (Z/3)^k with (x,a)(y,b) = (x + y + phi(a,b), ab), for phi
        # pulled back from Z/3 along each coordinate: not associative, since
        # phi is not a cocycle, though every product with the other
        # coordinates in the middle associates.
        base = elementary_group(3, k)
        m = base.order
        for coord in range(k):
            c = (np.arange(m) // 3 ** (k - 1 - coord)) % 3
            phi = ((c[:, None] == 1) & (c[None, :] == 1)).astype(np.int64)
            x = np.arange(3 * m) // m
            a = np.arange(3 * m) % m
            t = ((x[:, None] + x[None, :] + phi[a[:, None], a[None, :]]) % 3) * m + base.table[a[:, None], a[None, :]]
            assert not is_group_oracle(t)
            with pytest.raises(DomainError):
                TableGroup(table=t)

    @pytest.mark.parametrize("name,build", GENERATOR_GROUPS, ids=[g[0] for g in GENERATOR_GROUPS])
    def test_generators(self, name, build):
        g = build()
        gens = g.generators
        assert len(gens) <= math.log2(g.order)
        assert g.subgroup_closure(gens) == tuple(range(g.order))
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

    def test_cyclic_basics(self):
        g = cyclic_group(6)
        assert g.identity == 0
        assert g.inv(2) == 4
        assert g.order_of(2) == 3
        assert g.exponent() == 6

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


class TestSubgroupsQuotients:
    def test_closure(self):
        g = cyclic_group(12)
        assert g.subgroup_closure([4]) == (0, 4, 8)
        assert g.subgroup_closure([3, 4]) == tuple(range(12))

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
        assert to_old == (0, 2, 4, 6)
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
        g = direct_product(cyclic_group(4), cyclic_group(2))
        dec = abelian_decomposition(g)
        for e, cs in dec.coords_of.items():
            assert dec.element(cs) == e

    def test_nonabelian_rejected(self):
        with pytest.raises(DomainError):
            abelian_decomposition(to_table_group(2))


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

    def test_depth_validation(self):
        with pytest.raises(DomainError):
            central_series(cyclic_group(4), 2, depth=1)

    def test_layer_structure(self):
        cs = central_series(to_table_group(3), 3)
        assert cs.layer1.decomposition.orders == (3, 3)
        assert cs.layer2.decomposition.orders == (3,)


class TestLayerMaps:
    def test_heis3_commutator(self):
        h = to_table_group(3)
        cs = central_series(h, 3)
        rng = random.Random(0)
        s = cs.layer1.project[h.labels.index("h(1,0;0)")]
        t = cs.layer1.project[h.labels.index("h(0,1;0)")]
        comm, _ = layer_maps(cs, s, t, rng)
        assert comm == cs.layer2.project[h.labels.index("h(0,0;1)")]

    def test_heis2_power(self):
        h = to_table_group(2)
        cs = central_series(h, 2)
        s = cs.layer1.project[h.labels.index("h(1,1;0)")]
        _, powr = layer_maps(cs, s, s)
        assert powr == cs.layer2.project[h.labels.index("h(0,0;1)")]

    def test_diagonal_commutator_trivial(self):
        cs = central_series(to_table_group(3), 3)
        for s in range(cs.layer1.group.order):
            comm, _ = layer_maps(cs, s, s)
            assert comm == cs.layer2.group.identity

    def test_lift_index(self):
        # Oracle: a scan of the projection for each class, in table order.
        cs = central_series(to_table_group(3), 3)
        for layer in (cs.layer1, cs.layer2):
            for cls in range(layer.group.order):
                assert layer.lifts[cls] == [x for x, c in layer.project.items() if c == cls]

    def test_lift_independence(self):
        # Random second lifts across several seeds must agree (checked
        # internally; disagreement raises).
        cs = central_series(to_table_group(3), 3)
        for seed in range(5):
            rng = random.Random(seed)
            for s in range(cs.layer1.group.order):
                for t in range(cs.layer1.group.order):
                    layer_maps(cs, s, t, rng)
