"""Finite groups as multiplication tables, central series, and layer maps.

A TableGroup is an order-N multiplication table of element indices.  The
group axioms are verified at construction, exactly for every order:
identity, inverses, and associativity by Light's test over a generating set.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, DomainError, TheoremViolationError

TABLE_MAX = 10**4


@dataclass(frozen=True)
class TableGroup:
    """A finite group given by its full multiplication table."""

    table: np.ndarray  # shape (N, N), entries in [0, N)
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise DimensionError("multiplication table must be square")
        n = t.shape[0]
        if n == 0 or n > TABLE_MAX:
            raise DomainError(f"group order must be in [1, {TABLE_MAX}]")
        if t.min() < 0 or t.max() >= n:
            raise DomainError("table entries out of range")
        object.__setattr__(self, "table", t)
        if self.labels is not None and len(self.labels) != n:
            raise DimensionError("label count differs from group order")
        self._verify()

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @cached_property
    def identity(self) -> int:
        t = self.table
        idx = np.arange(self.order)
        for e in range(self.order):
            if np.array_equal(t[e], idx) and np.array_equal(t[:, e], idx):
                return e
        raise DomainError("table has no identity element")

    def _closure_mask(self, gens: Sequence[int]) -> np.ndarray:
        """Boolean mask of the products e*s1*...*sj (left-bracketed) of ``gens``."""
        t = self.table
        seen = np.zeros(self.order, dtype=bool)
        seen[self.identity] = True
        frontier = np.array([self.identity], dtype=np.int64)
        gens = np.asarray(gens, dtype=np.int64)
        while frontier.size:
            new = np.zeros(self.order, dtype=bool)
            new[t[frontier[:, None], gens]] = True
            new &= ~seen
            seen |= new
            frontier = np.flatnonzero(new)
        return seen

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set, chosen greedily by closure and then made irredundant.

        Each element added lies outside the subgroup generated so far, so the
        subgroup at least doubles: at most log2(N) generators.
        """
        gens: list[int] = []
        seen = self._closure_mask(gens)
        while not seen.all():
            gens.append(int(np.argmin(seen)))
            seen = self._closure_mask(gens)
        for s in gens[:-1]:  # the last one lies outside the closure of the others
            rest = [g for g in gens if g != s]
            if self._closure_mask(rest).all():
                gens = rest
        return tuple(gens)

    def _verify(self) -> None:
        t = self.table
        e = self.identity
        # Inverses: every row and every column must hit the identity.
        if not ((t == e).any(axis=1).all() and (t == e).any(axis=0).all()):
            raise DomainError("table is missing inverses")
        # Light's test.  The set T of b with (ab)c = a(bc) for all a, c holds
        # the identity and is closed under products: for b, b' in T,
        # (a(bb'))c = ((ab)b')c = (ab)(b'c) = a(b(b'c)) = a((bb')c).  Every
        # element is a product of generators, so T is everything once it
        # holds the generators.
        for s in self.generators:
            if not np.array_equal(t[t[:, s]], t[:, t[s]]):
                raise DomainError("table is not associative")

    # -- element arithmetic --

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    @cached_property
    def _inverses(self) -> np.ndarray:
        inv = np.argmax(self.table == self.identity, axis=1)
        return inv.astype(np.int64)

    def inv(self, a: int) -> int:
        return int(self._inverses[a])

    def power(self, a: int, m: int) -> int:
        if m < 0:
            return self.power(self.inv(a), -m)
        acc = self.identity
        for _ in range(m):
            acc = self.mul(acc, a)
        return acc

    def commutator(self, a: int, b: int) -> int:
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def order_of(self, a: int) -> int:
        acc, m = a, 1
        while acc != self.identity:
            acc = self.mul(acc, a)
            m += 1
        return m

    def exponent(self) -> int:
        return math.lcm(*(self.order_of(a) for a in range(self.order)))

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels else str(a)

    # -- subgroups and quotients --

    def subgroup_closure(self, gens: Sequence[int]) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self._closure_mask(gens)).tolist())

    def is_subgroup(self, elems: Sequence[int]) -> bool:
        s = set(elems)
        return self.identity in s and all(self.mul(a, b) in s for a in s for b in s)

    def is_normal(self, elems: Sequence[int]) -> bool:
        s = set(elems)
        return all(
            self.mul(self.mul(g, h), self.inv(g)) in s
            for g in range(self.order)
            for h in s
        )

    def quotient(self, normal: Sequence[int]) -> tuple["TableGroup", np.ndarray]:
        """(G/N, projection array of length N mapping element -> coset index)."""
        if not self.is_subgroup(normal) or not self.is_normal(normal):
            raise DomainError("quotient requires a normal subgroup")
        proj = np.full(self.order, -1, dtype=np.int64)
        reps = []
        for g in range(self.order):
            if proj[g] >= 0:
                continue
            idx = len(reps)
            reps.append(g)
            for h in normal:
                proj[self.mul(g, h)] = idx
        m = len(reps)
        qt = np.zeros((m, m), dtype=np.int64)
        for i, a in enumerate(reps):
            for j, b in enumerate(reps):
                qt[i, j] = proj[self.mul(a, b)]
        q_labels = tuple(self.label(r) for r in reps) if self.labels else None
        return TableGroup(table=qt, labels=q_labels), proj

    def subgroup_table(self, elems: Sequence[int]) -> tuple["TableGroup", tuple[int, ...]]:
        """(the subgroup as its own TableGroup, tuple mapping new -> old index)."""
        elems = tuple(sorted(set(elems)))
        if not self.is_subgroup(elems):
            raise DomainError("element set is not closed")
        pos = {g: i for i, g in enumerate(elems)}
        m = len(elems)
        t = np.zeros((m, m), dtype=np.int64)
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                t[i, j] = pos[self.mul(a, b)]
        labels = tuple(self.label(g) for g in elems) if self.labels else None
        return TableGroup(table=t, labels=labels), elems

    def as_dict(self) -> dict:
        out = {"order": self.order, "table": self.table.tolist()}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out


def cyclic_group(m: int) -> TableGroup:
    idx = np.arange(m)
    table = (idx[:, None] + idx[None, :]) % m
    return TableGroup(table=table, labels=tuple(str(i) for i in range(m)))


def _elementary_weights(n: int, k: int) -> np.ndarray:
    """Index weights n^(k-1-l): coordinates c of (Z/n)^k sit at index c @ weights."""
    return n ** np.arange(k - 1, -1, -1, dtype=np.int64)


def elementary_coords(n: int, k: int) -> np.ndarray:
    """(n^k, k) coordinates of the elements of ``elementary_group(n, k)``, in index order."""
    return (np.arange(n ** k, dtype=np.int64)[:, None] // _elementary_weights(n, k)) % n


def elementary_group(n: int, k: int) -> TableGroup:
    """(Z/n)^k with index sum(c_l * n^(k-1-l)) for coordinates (c_0..c_{k-1}).

    k = 0 gives the trivial group.
    """
    if n < 1 or k < 0:
        raise DomainError("elementary group needs n >= 1 and k >= 0")
    size = n ** k
    if size > TABLE_MAX:
        raise DomainError("group too large")
    coords = elementary_coords(n, k)
    table = np.zeros((size, size), dtype=np.int64)
    weights = _elementary_weights(n, k)
    for i in range(size):
        table[i] = ((coords[i] + coords) % n) @ weights
    labels = tuple("(" + ",".join(map(str, c)) + ")" for c in coords)
    return TableGroup(table=table, labels=labels)


# --- abelian decomposition -------------------------------------------------


@dataclass(frozen=True)
class CyclicDecomposition:
    """A direct decomposition of an abelian TableGroup into cyclic factors."""

    group: TableGroup
    gens: tuple[int, ...]  # generator of each cyclic factor
    orders: tuple[int, ...]  # descending, each dividing the previous
    coords_of: dict  # element index -> coordinate tuple

    def element(self, coords: Sequence[int]) -> int:
        g = self.group.identity
        for gen, c, d in zip(self.gens, coords, self.orders):
            g = self.group.mul(g, self.group.power(gen, c % d))
        return g


def _coords_map(a: TableGroup, gens: Sequence[int], orders: Sequence[int]) -> Optional[dict]:
    """Element -> coordinates, or None when the factors are not direct."""
    import itertools

    coords_of: dict[int, tuple[int, ...]] = {}
    if not gens:
        coords_of[a.identity] = ()
    for cs in itertools.product(*(range(d) for d in orders)):
        g = a.identity
        for gen, c in zip(gens, cs):
            g = a.mul(g, a.power(gen, c))
        if g in coords_of:
            return None
        coords_of[g] = cs
    if len(coords_of) != a.order:
        return None
    return coords_of


def abelian_decomposition(a: TableGroup) -> CyclicDecomposition:
    """Decompose an abelian group into cyclic factors of descending order."""
    import itertools

    if not np.array_equal(a.table, a.table.T):
        raise DomainError("decomposition requires an abelian group")
    if a.order == 1:
        return CyclicDecomposition(group=a, gens=(), orders=(), coords_of={a.identity: ()})
    exp = a.exponent()
    g1 = next(i for i in range(a.order) if a.order_of(i) == exp)
    sub = a.subgroup_closure([g1])
    q, proj = a.quotient(sub)
    if q.order == 1:
        coords = _coords_map(a, (g1,), (exp,))
        return CyclicDecomposition(group=a, gens=(g1,), orders=(exp,), coords_of=coords)
    qdec = abelian_decomposition(q)
    orders = (exp, *qdec.orders)
    # Lifts of the quotient generators keeping their orders; the directness
    # check below selects a combination that splits the extension.
    candidates = [
        [h for h in range(a.order) if proj[h] == qgen and a.order_of(h) == qord]
        for qgen, qord in zip(qdec.gens, qdec.orders)
    ]
    for lifts in itertools.product(*candidates):
        coords = _coords_map(a, (g1, *lifts), orders)
        if coords is not None:
            return CyclicDecomposition(group=a, gens=(g1, *lifts), orders=orders, coords_of=coords)
    raise TheoremViolationError("no direct system of generators found")


# --- central series --------------------------------------------------------


@dataclass(frozen=True)
class LayerData:
    """One layer G^(i)/G^(i+1) of the series, as a group with projections."""

    group: TableGroup  # the quotient layer
    members: tuple[int, ...]  # elements of G^(i) (indices in G)
    project: dict  # G^(i) element index in G -> layer element index
    decomposition: CyclicDecomposition

    @cached_property
    def lifts(self) -> dict[int, list[int]]:
        """Layer element -> its preimages in G, in table order."""
        out: dict[int, list[int]] = {}
        for x, cls in self.project.items():
            out.setdefault(cls, []).append(x)
        return out


@dataclass(frozen=True)
class CentralSeriesData:
    """The descending chain G = G^(1) >= G^(2) >= ... with its first layers."""

    group: TableGroup
    n: int
    subgroups: tuple[tuple[int, ...], ...]  # element-index sets, G^(1) first
    layer1: LayerData  # G^(1)/G^(2)
    layer2: LayerData  # G^(2)/G^(3)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.subgroups)


def _next_term(g: TableGroup, current: Sequence[int], n: int) -> tuple[int, ...]:
    gens = set()
    for s in current:
        gens.add(g.power(s, n))
        for a in range(g.order):
            gens.add(g.commutator(a, s))
    return g.subgroup_closure(sorted(gens))


def _layer(g: TableGroup, upper: Sequence[int], lower: Sequence[int]) -> LayerData:
    sub, to_old = g.subgroup_table(upper)
    pos = {old: new for new, old in enumerate(to_old)}
    lower_in_sub = [pos[x] for x in lower]
    quot, proj = sub.quotient(lower_in_sub)
    project = {old: int(proj[new]) for new, old in enumerate(to_old)}
    return LayerData(
        group=quot,
        members=tuple(to_old),
        project=project,
        decomposition=abelian_decomposition(quot),
    )


def central_series(g: TableGroup, n: int, depth: int = 3) -> CentralSeriesData:
    """Compute G^(1) >= ... >= G^(depth+1) and the first two layer quotients."""
    if depth < 2:
        raise DomainError("depth must be at least 2")
    chain = [tuple(range(g.order))]
    for _ in range(depth):
        chain.append(_next_term(g, chain[-1], n))
    for upper, lower in zip(chain, chain[1:]):
        if not set(lower) <= set(upper):
            raise TheoremViolationError("series is not descending")
        if not g.is_normal(lower):
            raise TheoremViolationError("series term is not normal")
    return CentralSeriesData(
        group=g,
        n=n,
        subgroups=tuple(chain),
        layer1=_layer(g, chain[0], chain[1]),
        layer2=_layer(g, chain[1], chain[2]),
    )


def layer_maps(cs: CentralSeriesData, s: int, t: int, rng: Optional[random.Random] = None) -> tuple[int, int]:
    """([s,t], s^(power map)) in the second layer, for s, t in the first layer.

    Inputs and outputs are layer element indices.  Lifts are the first table
    preimages; when ``rng`` is supplied the computation is repeated with
    random lifts and any disagreement is a hard failure.
    """
    g = cs.group
    l2 = cs.layer2

    def compute(ls: int, lt: int) -> tuple[int, int]:
        comm = g.commutator(ls, lt)
        powr = g.power(ls, cs.n)
        return l2.project[comm], l2.project[powr]

    ls_all, lt_all = cs.layer1.lifts[s], cs.layer1.lifts[t]
    result = compute(ls_all[0], lt_all[0])
    if rng is not None:
        alt = compute(rng.choice(ls_all), rng.choice(lt_all))
        if alt != result:
            raise TheoremViolationError("layer maps depend on the choice of lifts")
    return result
