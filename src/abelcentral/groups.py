"""Finite groups as multiplication tables, central series, and layer maps.

A TableGroup is an order-N multiplication table of element indices.  The
group axioms are verified at construction: identity and inverses always,
associativity exhaustively up to ASSOC_EXHAUSTIVE_MAX and on a seeded random
sample of triples above that.
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
ASSOC_EXHAUSTIVE_MAX = 512
ASSOC_SAMPLE = 20000
ASSOC_SEED = 0


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

    def _verify(self) -> None:
        t = self.table
        n = self.order
        e = self.identity
        # Inverses: every row must hit the identity.
        if not all((t[i] == e).any() and (t[:, i] == e).any() for i in range(n)):
            raise DomainError("table is missing inverses")
        if n <= ASSOC_EXHAUSTIVE_MAX:
            # Full associativity, one row of 'a' at a time to bound memory.
            for a in range(n):
                if not np.array_equal(t[t[a]], t[a][t]):
                    raise DomainError("table is not associative")
        else:
            rng = random.Random(ASSOC_SEED)
            for _ in range(ASSOC_SAMPLE):
                a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                if t[t[a, b], c] != t[a, t[b, c]]:
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
        seen = {self.identity}
        frontier = [self.identity]
        gens = list(gens)
        while frontier:
            g = frontier.pop()
            for s in gens:
                h = self.mul(g, s)
                if h not in seen:
                    seen.add(h)
                    frontier.append(h)
        return tuple(sorted(seen))

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


def elementary_group(n: int, k: int) -> TableGroup:
    """(Z/n)^k with index sum(c_l * n^(k-1-l)) for coordinates (c_0..c_{k-1})."""
    size = n ** k
    if size > TABLE_MAX:
        raise DomainError("group too large")
    coords = np.array(np.unravel_index(np.arange(size), (n,) * k)).T  # (size, k)
    table = np.zeros((size, size), dtype=np.int64)
    weights = np.array([n ** (k - 1 - l) for l in range(k)], dtype=np.int64)
    for i in range(size):
        summed = (coords[i] + coords) % n
        table[i] = summed @ weights
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
    l1, l2 = cs.layer1, cs.layer2

    def lifts_of(layer_elem: int) -> list[int]:
        return [x for x, cls in l1.project.items() if cls == layer_elem]

    def compute(ls: int, lt: int) -> tuple[int, int]:
        comm = g.commutator(ls, lt)
        powr = g.power(ls, cs.n)
        return l2.project[comm], l2.project[powr]

    ls_all, lt_all = lifts_of(s), lifts_of(t)
    result = compute(ls_all[0], lt_all[0])
    if rng is not None:
        alt = compute(rng.choice(ls_all), rng.choice(lt_all))
        if alt != result:
            raise TheoremViolationError("layer maps depend on the choice of lifts")
    return result
