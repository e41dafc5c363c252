"""Finite groups as multiplication tables, central series, and layer maps.

A TableGroup is an order-N multiplication table of element indices.  The
group axioms are verified at construction, exactly for every order:
identity, inverses, and associativity by Light's test over a generating set.

A subset of a TableGroup is an array of element indices; the public methods
refuse a boolean array, and length-N boolean masks are internal.  A map on
its elements is a length-N int64 array, -1 outside its domain.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, DomainError, TheoremViolationError
from .errors import check_bound, check_integer, check_integers
from .modring import check_modulus, row_blocks

TABLE_MAX = 10**4
CHECK_CHUNK_CELLS = 1 << 18  # cells per row block of Light's test
LAYER_MAPS_BYTES_MAX = 1 << 28  # largest working set layer_maps may allocate


@dataclass(frozen=True)
class TableGroup:
    """A finite group given by its full multiplication table."""

    table: np.ndarray  # shape (N, N), entries in [0, N)
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        self._check_table()
        self._verify()

    def _check_table(self) -> None:
        """Store the table as int64 after checking its shape, order, entries
        and labels (one string per element).

        An array's shape and order are checked before its entries, so a
        refused table is never copied; a nested list is read as an array first.
        """
        t = self.table if isinstance(self.table, np.ndarray) else check_integers(self.table, "table entries")
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise DimensionError("multiplication table must be square")
        n = _check_order(t.shape[0])
        object.__setattr__(self, "table", check_integers(t, "table entries", n))
        if self.labels is not None:
            if len(self.labels) != n:
                raise DimensionError("label count differs from group order")
            if not all(isinstance(label, str) for label in self.labels):
                raise DomainError("group labels must be strings")

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @cached_property
    def identity(self) -> int:
        t = self.table
        idx = np.arange(self.order)
        # Only an e with e*0 = 0 can be the identity: one candidate in a group.
        for e in np.flatnonzero(t[:, 0] == 0).tolist():
            if np.array_equal(t[e], idx) and np.array_equal(t[:, e], idx):
                return e
        raise DomainError("table has no identity element")

    def _mask(self, elems: Sequence[int]) -> np.ndarray:
        """Boolean mask of the element indices ``elems``; DomainError outside [0, N)."""
        mask = np.zeros(self.order, dtype=bool)
        mask[check_integers(elems, "element indices", self.order)] = True
        return mask

    def _closure_mask(self, gens: Sequence[int], start: Optional[np.ndarray] = None) -> np.ndarray:
        """Boolean mask of the products e*s1*...*sj (left-bracketed) of ``gens``.

        ``start``, the mask of such products of some of ``gens``, saves the
        rounds that reach it again: the search grows from all of it.
        """
        t = self.table
        if start is None:
            seen = np.zeros(self.order, dtype=bool)
            seen[self.identity] = True
        else:
            seen = start.copy()
        frontier = np.flatnonzero(seen)
        gens = np.asarray(gens, dtype=np.int64)
        while frontier.size and gens.size:
            new = np.zeros(self.order, dtype=bool)
            new[t[frontier[:, None], gens]] = True
            new &= ~seen
            seen |= new
            frontier = np.flatnonzero(new)
        return seen

    def _kept_generators(self, candidates: Sequence[int]) -> tuple[list[int], np.ndarray]:
        """(kept, mask of their closure): each of the index array ``candidates``,
        in order, outside the closure of those kept before it.  The subgroup at
        least doubles with each one kept: at most log2(N) of them."""
        cand = np.asarray(candidates, dtype=np.int64)
        kept: list[int] = []
        seen = self._closure_mask(kept)
        while not (inside := seen[cand]).all():
            kept.append(int(cand[np.argmin(inside)]))
            seen = self._closure_mask(kept, seen)
        return kept, seen

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set: the kept candidates of every element in index
        order (each the smallest element outside the subgroup generated so
        far), then made irredundant."""
        gens, _ = self._kept_generators(np.arange(self.order))
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
        # holds the generators.  Compared in row blocks of a, so that no
        # N x N temporary is formed.
        blocks = row_blocks(self.order, self.order, CHECK_CHUNK_CELLS)
        for s in self.generators:
            for a in blocks:
                if not np.array_equal(t[t[a, s]], t[a, t[s]]):
                    raise DomainError("table is not associative")

    @cached_property
    def _cayley_tree(self) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]]:
        """(letters, levels), read-only: ``_spanning_tree`` from the roots
        T = (e, *S), S the generators, along T (the identity's edges reach
        nothing new, so the steps are 1 <= j < |T|).  ``letters[g, j]``
        counts T[j] on the tree path to g: its root and its edges labelled T[j].
        """
        T = [self.identity, *self.generators]
        r = len(T)
        letters = np.zeros((self.order, r), dtype=np.int64)
        letters[T, np.arange(r)] = 1
        levels = _spanning_tree(self.table, T, T)
        for parents, children, steps in levels:
            letters[children] = letters[parents]
            letters[children, steps] += 1
            for part in (parents, children, steps):
                part.flags.writeable = False
        letters.flags.writeable = False
        return letters, levels

    # -- element arithmetic --

    def mul(self, a: int, b: int) -> int:
        a, b = (check_integer(x, "element index", self.order) for x in (a, b))
        return int(self.table[a, b])

    @cached_property
    def _inverses(self) -> np.ndarray:
        inv = np.argmax(self.table == self.identity, axis=1)
        return inv.astype(np.int64)

    def inv(self, a: int) -> int:
        return int(self._inverses[check_integer(a, "element index", self.order)])

    def power(self, a: int, m: int) -> int:
        a, m = check_integer(a, "element index", self.order), check_integer(m, "exponent")
        if m < 0:
            a, m = self.inv(a), -m
        return int(_nth_powers(self.table, self.identity, np.array([a]), m)[0])

    def powers(self, a: int, m: int) -> np.ndarray:
        """The array (a^0, a^1, ..., a^(m-1)); DomainError for a negative m."""
        m = check_integer(m, "power count")
        if m < 0:
            raise DomainError(f"power count must be >= 0, got {m}")
        return _powers(self.table, self.identity, check_integer(a, "element index", self.order), m)

    def commutator(self, a: int, b: int) -> int:
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    @cached_property
    def orders(self) -> np.ndarray:
        """The order of every element, read-only."""
        out = _orders(self.table, self.identity)
        out.flags.writeable = False
        return out

    def order_of(self, a: int) -> int:
        return int(self.orders[check_integer(a, "element index", self.order)])

    def exponent(self) -> int:
        return int(np.lcm.reduce(self.orders))

    # -- subgroups and quotients --

    def subgroup_closure(self, gens: Sequence[int]) -> np.ndarray:
        """Sorted index array of the subgroup generated by ``gens``."""
        return np.flatnonzero(self._closure_mask(np.flatnonzero(self._mask(gens))))

    def is_subgroup(self, elems: Sequence[int]) -> bool:
        mask = self._mask(elems)
        idx = np.flatnonzero(mask)
        return bool(mask[self.identity] and mask[self.table[idx[:, None], idx]].all())

    def is_normal(self, elems: Sequence[int]) -> bool:
        """Whether g H g^-1 lies in H for every g.  Checked for the generators
        only: conjugation by each maps the finite set H onto H, so every
        product of generators does too."""
        mask = self._mask(elems)
        s, t = np.asarray(self.generators, dtype=np.int64)[:, None], self.table
        return bool(mask[t[t[s, np.flatnonzero(mask)], self._inverses[s]]].all())

    def quotient(self, normal: Sequence[int]) -> tuple["TableGroup", np.ndarray]:
        """(G/N, projection array of length N mapping element -> coset index);
        cosets are numbered by their smallest elements, in ascending order."""
        if not self.is_subgroup(normal) or not self.is_normal(normal):
            raise DomainError("quotient requires a normal subgroup")
        reps, proj, table = _cosets(self.table, np.arange(self.order), np.flatnonzero(self._mask(normal)))
        q_labels = tuple(self.labels[r] for r in reps.tolist()) if self.labels else None
        return _generated_group(table, q_labels, proj[list(self.generators)]), proj

    def subgroup_table(self, elems: Sequence[int]) -> tuple["TableGroup", np.ndarray]:
        """(the subgroup as its own TableGroup, sorted index array mapping new -> old index)."""
        mask = self._mask(elems)
        to_old = np.flatnonzero(mask)
        pos = np.full(self.order, -1, dtype=np.int64)
        pos[to_old] = np.arange(to_old.size)
        t = pos[self.table[to_old[:, None], to_old]]
        if not mask[self.identity] or (t < 0).any():
            raise DomainError("element set is not closed")
        labels = tuple(self.labels[g] for g in to_old.tolist()) if self.labels else None
        return TableGroup(table=t, labels=labels), to_old

    def as_dict(self) -> dict:
        out = {"order": self.order, "table": self.table.tolist()}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out


def _generated_group(table: np.ndarray, labels: Optional[tuple[str, ...]], candidates: Sequence[int]) -> TableGroup:
    """The TableGroup of ``table``, with generators drawn from ``candidates``.

    For constructions that know a generating set: the standard generators
    of a cyclic, elementary or Heisenberg group, or the images of a parent
    group's generators in a quotient.  The candidates it keeps
    (``TableGroup._kept_generators``) must generate the table, else
    ``TheoremViolationError``.  Unlike ``TableGroup.generators`` it makes no
    irredundancy pass; the range, identity, inverse and Light's tests run
    as in the public constructor, on the kept set.
    """
    g = object.__new__(TableGroup)
    object.__setattr__(g, "table", table)
    object.__setattr__(g, "labels", labels)
    g._check_table()
    kept, seen = g._kept_generators(candidates)
    if not seen.all():
        raise TheoremViolationError("the supplied elements do not generate the table")
    g.__dict__["generators"] = tuple(kept)
    g._verify()
    return g


def _spanning_tree(
    t: np.ndarray, roots: Sequence[int], gens: Sequence[int]
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The breadth-first spanning tree of the Cayley graph of the group table
    ``t`` from the index array ``roots`` along x -> x * gens[j]: one
    (parents, children, steps) triple per round, steps the j.  An element
    first reached in a round hangs from its first edge, in order of j, then
    of x; one gather per round serves every generator.
    """
    gens = np.asarray(gens, dtype=np.int64)
    frontier = np.asarray(roots, dtype=np.int64)
    done = np.zeros(t.shape[0], dtype=bool)
    done[frontier] = True
    levels = []
    while frontier.size:
        heads = t[frontier, gens[:, None]].ravel()  # entry j * |frontier| + i is frontier[i] * gens[j]
        fresh = np.flatnonzero(~done[heads])
        _, first = np.unique(heads[fresh], return_index=True)
        edges = fresh[np.sort(first)]
        levels.append((frontier[edges % frontier.size], heads[edges], edges // frontier.size))
        frontier = levels[-1][1]
        done[frontier] = True
    return tuple(levels[:-1])  # the last round reaches nothing


def _powers(t: np.ndarray, e: int, a: int, m: int) -> np.ndarray:
    """(a^0, a^1, ..., a^(m-1)) in the group table ``t`` with identity ``e``;
    each gather doubles the length."""
    out = np.array([e], dtype=np.int64)
    while out.size < m:
        out = np.concatenate([out, t[out, t[out[-1], a]]])
    return out[:m]


def _nth_powers(t: np.ndarray, e: int, elems: np.ndarray, m: int) -> np.ndarray:
    """The m-th power of each entry of the index array ``elems`` (m >= 0) in the
    group table ``t`` with identity ``e``, by repeated squaring."""
    acc = np.full_like(elems, e)
    while m:
        if m & 1:
            acc = t[acc, elems]
        elems, m = t[elems, elems], m >> 1
    return acc


def _orders(t: np.ndarray, e: int) -> np.ndarray:
    """The order of every element of the group table ``t`` with identity ``e``.

    By Lagrange the order of a is the least divisor d of N with a^d = e: one
    power per divisor, ascending, until every order is set.
    """
    N = t.shape[0]
    idx, out = np.arange(N), np.zeros(N, dtype=np.int64)
    for d in np.flatnonzero(N % np.arange(1, N + 1) == 0) + 1:
        out[(out == 0) & (_nth_powers(t, e, idx, int(d)) == e)] = d
        if out.all():
            break
    return out


def _cosets(t: np.ndarray, members: np.ndarray, normal: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cosets x K, x in H, of a normal subgroup K of H in the group table ``t``.

    ``members`` is the sorted index array of H and ``normal`` holds the
    elements of K.  Returns (reps, project, table): the cosets are numbered
    by their smallest elements ``reps``, ascending, ``project`` (length N,
    -1 outside H) maps each member to its coset, and ``table`` is the
    multiplication table of H/K on these numbers.
    """
    smallest = t[members[:, None], normal].min(axis=1)
    reps = members[smallest == members]
    project = np.full(t.shape[0], -1, dtype=np.int64)
    project[members] = np.searchsorted(reps, smallest)
    return reps, project, project[t[reps[:, None], reps]]


def _check_order(m) -> int:
    """``m`` as a Python int, or DomainError unless 1 <= m <= ``TABLE_MAX``."""
    m = check_integer(m, "group order")
    if m < 1:
        raise DomainError(f"group order must be in [1, {TABLE_MAX}]")
    return check_bound(m, TABLE_MAX, "group order")


def cyclic_group(m: int) -> TableGroup:
    m = _check_order(m)
    idx = np.arange(m)
    table = (idx[:, None] + idx[None, :]) % m
    return _generated_group(table, tuple(str(i) for i in range(m)), [1] if m > 1 else [])


def elementary_coords(n: int, k: int) -> np.ndarray:
    """(n^k, k) coordinates of the elements of ``elementary_group(n, k)``, in index order."""
    n, k = check_modulus(n), check_integer(k, "rank")
    if k < 0:
        raise DomainError(f"rank must be >= 0, got {k}")
    size = check_bound((n, k), TABLE_MAX, "group order")
    return (np.arange(size, dtype=np.int64)[:, None] // n ** np.arange(k - 1, -1, -1)) % n


def elementary_group(n: int, k: int) -> TableGroup:
    """(Z/n)^k with index sum(c_l * n^(k-1-l)) for coordinates (c_0..c_{k-1}).

    k = 0 gives the trivial group.  The table is a sum on a grid with one
    axis per coordinate of each factor.
    """
    coords = elementary_coords(n, k)
    n, (size, k) = check_integer(n, "modulus"), coords.shape
    axes = np.ix_(*[np.arange(n)] * (2 * k))
    table = np.zeros((1,) * (2 * k), dtype=np.int64)
    for l in range(k):
        table = table + (axes[l] + axes[k + l]) % n * n ** (k - 1 - l)
    labels = tuple("(" + ",".join(map(str, c)) + ")" for c in coords.tolist())
    return _generated_group(table.reshape(size, size), labels, n ** np.arange(k) % size)


# --- abelian decomposition -------------------------------------------------


@dataclass(frozen=True)
class CyclicDecomposition:
    """A direct decomposition of an abelian TableGroup into cyclic factors."""

    gens: tuple[int, ...]  # generator of each cyclic factor
    orders: tuple[int, ...]  # descending, each dividing the previous
    coords_of: np.ndarray  # (N, k): row e holds the coordinates of element e


def _coords_map(t: np.ndarray, e: int, gens: Sequence[int], orders: Sequence[int]) -> Optional[np.ndarray]:
    """(N, k) element coordinates in the group table ``t`` with identity ``e``,
    or None when the factors are not direct.

    The products g_1^c_1 ... g_k^c_k are formed for every c, in
    ``itertools.product`` order, with one gather per cyclic factor.
    """
    N = t.shape[0]
    elems = np.array([e], dtype=np.int64)
    for gen, d in zip(gens, orders):
        elems = t[elems[:, None], _powers(t, e, gen, d)].ravel()
    if elems.size != N or not np.bincount(elems, minlength=N).all():
        return None
    coords = np.empty((N, len(orders)), dtype=np.int64)
    coords[elems] = np.indices(orders).reshape(len(orders), -1).T
    return coords


def _decompose_table(t: np.ndarray, e: int) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
    """(gens, orders, coords) of the abelian group table ``t`` with identity ``e``.

    g_1 is the first element of maximal order; the rest lift the
    decomposition of the quotient by <g_1>, its cosets numbered by their
    smallest elements as ``TableGroup.quotient`` numbers them.  The quotients
    stay raw tables: their group laws follow from that of ``t``, and the
    ``_coords_map`` bijection check at the top level certifies the answer.
    """
    if t.shape[0] == 1:
        return (), (), np.zeros((1, 0), dtype=np.int64)
    orders = _orders(t, e)
    exp = int(np.lcm.reduce(orders))
    g1 = int(np.argmax(orders == exp))
    _, proj, qt = _cosets(t, np.arange(t.shape[0]), _powers(t, e, g1, exp))
    qgens, qorders, _ = _decompose_table(qt, int(proj[e]))
    all_orders = (exp, *qorders)
    # Lifts of the quotient generators keeping their orders; the directness
    # check below selects a combination that splits the extension.
    candidates = [
        np.flatnonzero((proj == qgen) & (orders == qord)).tolist()
        for qgen, qord in zip(qgens, qorders)
    ]
    for lifts in itertools.product(*candidates):
        coords = _coords_map(t, e, (g1, *lifts), all_orders)
        if coords is not None:
            return (g1, *lifts), all_orders, coords
    raise TheoremViolationError("no direct system of generators found")


def abelian_decomposition(a: TableGroup) -> CyclicDecomposition:
    """Decompose an abelian group into cyclic factors of descending order.

    The coordinates are checked to be a bijection onto the verified table of
    ``a``: the products g_1^c_1 ... g_k^c_k, c_i < ord(g_i), are distinct.
    """
    if not np.array_equal(a.table, a.table.T):
        raise DomainError("decomposition requires an abelian group")
    gens, orders, coords = _decompose_table(a.table, a.identity)
    return CyclicDecomposition(gens=gens, orders=orders, coords_of=coords)


# --- central series --------------------------------------------------------


@dataclass(frozen=True)
class LayerData:
    """One layer G^(i)/G^(i+1) of the series, as a group with projections."""

    group: TableGroup  # the quotient layer
    members: np.ndarray  # sorted indices in G of the elements of G^(i)
    project: np.ndarray  # length N: element of G^(i) -> layer element, -1 outside G^(i)

    @cached_property
    def decomposition(self) -> CyclicDecomposition:
        """The cyclic decomposition of the layer group, computed on first use."""
        return abelian_decomposition(self.group)

    @cached_property
    def lifts(self) -> np.ndarray:
        """(layer order, |G^(i+1)|) array: row c holds the preimages in G of
        layer element c, ascending."""
        order = np.argsort(self.project[self.members], kind="stable")
        return self.members[order].reshape(self.group.order, -1)


@dataclass(frozen=True)
class CentralSeriesData:
    """The descending chain G = G^(1) >= G^(2) >= G^(3) with its two layers."""

    group: TableGroup
    n: int
    subgroups: tuple[np.ndarray, ...]  # sorted element-index arrays, G^(1) first
    layer1: LayerData  # G^(1)/G^(2)
    layer2: LayerData  # G^(2)/G^(3)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.subgroups)

    @cached_property
    def layer1_coords(self) -> np.ndarray:
        """(N, k) read-only: row g holds pi(g) in (Z/n)^k, the coordinates of
        g's layer-1 class; ``DomainError`` unless layer 1 is elementary of
        exponent n.  pi is checked to be a homomorphism on the N |S| pairs
        (g, s), s a generator, else ``TheoremViolationError``: by induction on
        the word length of w, pi(g w) = pi(g) + pi(w).  So a cocycle on
        (Z/n)^k pulled back along pi is a cocycle on G.
        """
        dec = self.layer1.decomposition
        if any(d != self.n for d in dec.orders):
            raise DomainError("first layer is not elementary of exponent n")
        G, coords = self.group, dec.coords_of[self.layer1.project]
        S = np.asarray(G.generators, dtype=np.int64)
        if ((coords[G.table[:, S]] - coords[:, None, :] - coords[S]) % self.n).any():
            raise TheoremViolationError("layer-1 coordinates are not a homomorphism")
        coords.flags.writeable = False
        return coords


def _next_term(g: TableGroup, cur: np.ndarray, n: int) -> np.ndarray:
    """G^(i+1) = <[G^(i), G], (G^(i))^n>, from the sorted index array ``cur`` of G^(i).

    Computed as the subgroup K generated by [s, a] and s^n for s in G^(i) and
    a in the generators of G, the lower exponent-p central series step of the
    p-quotient algorithm.  G^(i) is normal, so K lies in G^(i+1), which lies
    in G^(i).  For x in K and a generator a, a^-1 x a = x [x, a] lies in K, so
    K is normal.  Modulo K every s in G^(i) commutes with every generator, so
    it is central.  So [G^(i), G] and (G^(i))^n lie in K, and K = G^(i+1).
    """
    t, inv = g.table, g._inverses
    a = np.asarray(g.generators, dtype=np.int64)
    comms = t[t[inv[cur][:, None], inv[a]], t[cur[:, None], a]]
    return g.subgroup_closure(np.concatenate([comms.ravel(), _nth_powers(t, g.identity, cur, n)]))


def _coset_layer(g: TableGroup, members: np.ndarray, lower: np.ndarray, candidates: np.ndarray) -> LayerData:
    """G^(i)/G^(i+1) as the cosets of the sorted ``lower`` in the sorted
    ``members`` of G^(i), inside G's table, with generators drawn from the
    images of the G-index array ``candidates``.  The caller has checked that
    G^(i+1) is a normal subgroup of G inside G^(i)."""
    reps, project, table = _cosets(g.table, members, lower)
    labels = tuple(g.labels[r] for r in reps.tolist()) if g.labels else None
    return LayerData(_generated_group(table, labels, project[candidates]), members, project)


def central_series(g: TableGroup, n: int) -> CentralSeriesData:
    """Compute G^(1) >= G^(2) >= G^(3) and the two layer quotients between them."""
    n = check_modulus(n)
    chain = [np.arange(g.order)]
    for _ in range(2):
        chain.append(_next_term(g, chain[-1], n))
    for upper, lower in zip(chain, chain[1:]):
        if not g._mask(upper)[lower].all():
            raise TheoremViolationError("series is not descending")
        if not g.is_normal(lower):
            raise TheoremViolationError("series term is not normal")
    layers = (
        _coset_layer(g, chain[0], chain[1], np.asarray(g.generators, dtype=np.int64)),
        _coset_layer(g, chain[1], chain[2], chain[1]),
    )
    return CentralSeriesData(g, n, tuple(chain), *layers)


def layer_maps(cs: CentralSeriesData, rng: Optional[random.Random] = None) -> tuple[np.ndarray, np.ndarray]:
    """(comm, powr): G-index arrays of [ls, lt] and ls^n for the first lifts ls, lt
    of every pair of layer-1 elements s, t; their layer-2 projections are the
    classes of [s, t] and s^n.  With ``rng``, both are formed again from one
    random lift of each element for every pair and every power, and any
    disagreement in layer 2 is a hard failure.

    For L layer-1 elements the work holds up to six L x L int64 arrays at
    once with ``rng`` and three without; an estimate above
    ``LAYER_MAPS_BYTES_MAX`` raises ``DomainError`` before any is allocated.
    """
    L = cs.layer1.group.order
    need = (6 if rng is not None else 3) * 8 * L * L
    check_bound(need, LAYER_MAPS_BYTES_MAX, f"bytes of layer maps on {L} layer-1 elements")
    g, lifts, project = cs.group, cs.layer1.lifts, cs.layer2.project
    t, inv = g.table, g._inverses

    def compute(ls: np.ndarray, lt: np.ndarray, lp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return t[t[inv[ls], inv[lt]], t[ls, lt]], _nth_powers(t, g.identity, lp, cs.n)

    first = lifts[:, 0]
    comm, powr = compute(first[:, None], first[None, :], first)
    if rng is not None:
        (L, m), cls = lifts.shape, np.arange(len(lifts))

        def draw(rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
            """A random lift of each class in ``rows``, uniform up to a bias below m / 2^64."""
            bits = np.frombuffer(rng.randbytes(8 * int(np.prod(shape))), dtype=np.uint64).reshape(shape)
            return lifts[rows, bits % m]

        alt = compute(draw(cls[:, None], (L, L)), draw(cls, (L, L)), draw(cls, (L,)))
        if not all(np.array_equal(project[a], project[b]) for a, b in zip(alt, (comm, powr))):
            raise TheoremViolationError("layer maps depend on the choice of lifts")
    return comm, powr
