"""Degree-2 cohomology machinery for finite groups with elementary first layer.

Everything is phrased over the first central-series layer g1 = (Z/n)^k:
explicit cocycles U and B representing cup products and Bocksteins, the
presentation of H^2(g1) by strictly-upper cup coefficients plus Bockstein
coefficients, the pairing against the space S of compatible (bilinear,
linear) pairs, kernel-of-inflation computation, and the verification of the
two cochain-evaluation identities and of the induced isomorphism from the
second layer onto the restricted image of S.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import groups, modring
from .errors import DimensionError, DomainError, ModulusError, TheoremViolationError, check_integer, check_integers
from .groups import (
    CentralSeriesData,
    TableGroup,
    central_series,
    elementary_coords,
    elementary_group,
    layer_maps,
)
from .modring import ModMatrix, binom2, check_modulus


# --- cocycles --------------------------------------------------------------


@dataclass(frozen=True)
class Cocycle2:
    """A 2-cocycle on a TableGroup with values in Z/n (trivial action).

    The identity xi(a,b) + xi(ab,c) = xi(b,c) + xi(a,bc) is checked exactly,
    in O(N^2 |S|) for the generating set S of the group, by Light's test on
    the extension E = Z/n x G with (x,a)(y,b) = (x + y + xi(a,b), ab): E is
    associative exactly when xi is a cocycle.  The elements m of E with
    (pm)q = p(mq) for all p, q are closed under products, so E is
    associative once they contain a set that generates E.  The check is
    that (0, s) is among them for each s in S, which is the identity with
    b = s for all a, c.  Taking a = e, then c = e, in it shows that
    xi(e, .) and xi(., e) are the constant xi(e, e), so every (x, e) is
    among them too.  These elements generate E: left-bracketed products of
    the (0, s) reach some (z, g) for every g, and
    (x, e)(z, g) = (x + z + xi(e, e), g) reaches every x.  (With S empty, G
    is trivial and every xi is a cocycle.)  ``values`` is the constructor's
    own reduced copy and is read-only once the test has passed, so xi stays
    the cocycle that was checked, as ``solve_coboundary``'s N |T| check
    needs.  The machinery never builds its inflated tables: it reads their
    values on the pairs (g, s), s in (e, *S), off the layer-1 coordinates
    (``_inflated_values``).
    """

    group: TableGroup
    n: int
    values: np.ndarray  # shape (N, N)

    def __post_init__(self):
        object.__setattr__(self, "n", check_modulus(self.n))
        v = check_integers(self.values, "cocycle values") % self.n
        N = self.group.order
        if v.shape != (N, N):
            raise DimensionError("cocycle table shape does not match the group")
        object.__setattr__(self, "values", v)
        # Compared in row blocks of a, so that no N x N temporary is formed
        # besides the reduced copy.
        t, blocks = self.group.table, modring.row_blocks(N, N, groups.CHECK_CHUNK_CELLS)
        for s in self.group.generators:
            for a in blocks:
                d = v[t[a, s]]  # a fresh block, changed in place
                d -= v[a][:, t[s]]
                d += v[a, s, None] - v[s]
                if (d % self.n).any():
                    raise DomainError("cocycle identity fails")
        v.flags.writeable = False

    def __add__(self, other: "Cocycle2") -> "Cocycle2":
        if other.n != self.n or not np.array_equal(other.group.table, self.group.table):
            raise ModulusError("cocycles on different groups/moduli")
        return Cocycle2(self.group, self.n, self.values + other.values)


def zero_cocycle(group: TableGroup, n: int) -> Cocycle2:
    return Cocycle2(group, n, np.zeros((group.order, group.order), dtype=np.int64))


def _elementary_cocycle(g: TableGroup, coords: np.ndarray, n: int, P: np.ndarray, zs: Sequence[np.ndarray]) -> Cocycle2:
    """The cocycle x^T P y plus the carries B_z on ``g`` = (Z/n)^k with
    coordinate rows ``coords``, checked by Light's test: U_{x,y} is
    P = x y^T with no z, and B_x is P = 0 with the one z = x."""
    return Cocycle2(g, n, _inflated_values(coords, coords, n, P, zs))


def make_U_B(k: int, n: int, x: Sequence[int], y: Sequence[int]) -> tuple[Cocycle2, Cocycle2]:
    """(the cup cocycle U_{x,y}, the Bockstein cocycle B_x) on (Z/n)^k.

    U_{x,y}(s, t) = s(x) t(y), and B_x(s, t) is 1 exactly when
    s(x) + t(x) >= n.  Both come from the one formula of
    ``_elementary_cocycle`` on one ``elementary_group(n, k)``.
    """
    xv, yv = (check_integers(v, "basis vector entries") % n for v in (x, y))
    if xv.shape != (k,) or yv.shape != (k,):
        raise DimensionError("basis vectors must have length k")
    g, coords, zero = elementary_group(n, k), elementary_coords(n, k), np.zeros((k, k), dtype=np.int64)
    return _elementary_cocycle(g, coords, n, np.outer(xv, yv), []), _elementary_cocycle(g, coords, n, zero, [xv])


def verify_propA1(k: int, n: int) -> int:
    """Count of violations of the four cocycle identities; zero on success.

    Checked over all pairs of group elements and all pairs of basis vectors:
      (1) U(s,t) + U(t^-1, st) - U(t^-1, t) = s(x)t(y) - s(y)t(x)
      (2) sum over i of U(s^i, s) = C(n,2) s(x)s(y)
      (3) B(s,t) + B(t^-1, st) - B(t^-1, t) = 0
      (4) sum over i of B(s^i, s) = s(x)

    One ``elementary_group(n, k)`` carries every table, and each comes
    from the one formula of ``_elementary_cocycle`` and passes Light's
    test: B_x once for each basis vector x and U_{x,y} once for each pair,
    k + k^2 tables.  (3) and (4) are counted for every pair (x, y), as for
    the U and B of ``make_U_B(k, n, x, y)``.  Each identity is compared for
    a row block of s at once, of at most ``groups.CHECK_CHUNK_CELLS``
    cells, so that no N x N temporary is formed beyond the U and B tables.
    """
    g, coords, eye = elementary_group(n, k), elementary_coords(n, k), np.eye(k, dtype=np.int64)
    t, inv, every = g.table, g._inverses, np.arange(g.order)
    b2, blocks = binom2(n), modring.row_blocks(g.order, g.order, groups.CHECK_CHUNK_CELLS)
    bad = 0
    for x in eye:
        bv, sx = _elementary_cocycle(g, coords, n, np.zeros_like(eye), [x]).values, (coords @ x) % n
        for y in eye:
            uv, sy = _elementary_cocycle(g, coords, n, np.outer(x, y), []).values, (coords @ y) % n
            for rows in blocks:
                s = every[rows]
                st, power, u_sum, b_sum = t[s], np.full_like(s, g.identity), 0, 0
                for _ in range(n):
                    u_sum, b_sum, power = u_sum + uv[power, s], b_sum + bv[power, s], t[power, s]
                bad += np.count_nonzero((u_sum - b2 * sx[s] * sy[s]) % n) + np.count_nonzero((b_sum - sx[s]) % n)
                lhs = uv[s] + uv[inv, st] - uv[inv, every]
                bad += np.count_nonzero((lhs - (sx[s, None] * sy - sy[s, None] * sx)) % n)
                bad += np.count_nonzero((bv[s] + bv[inv, st] - bv[inv, every]) % n)
    return int(bad)


def _coboundary_system(G: TableGroup, xi_on: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The equations du = sum_i c_i xi_i on (e, e) and on the pairs (g, s), s in S.

    S is the generating set of G and T = (e, *S).  ``xi_on[g, j, i]`` is
    xi_i(g, T[j]) for m cocycles xi_i.  The unknowns are x = (u(e), u(s) for
    s in S, c_1..c_m).  Returns (rows, cochain), both reduced mod n:
    ``cochain[g] @ x`` is u(g), propagated along the group's BFS tree of the
    Cayley graph (``TableGroup._cayley_tree``) by u(gs) = u(g) + u(s) -
    xi(g, s).  Its u-columns are the tree's letter counts, shared by every
    call on G; only the xi-columns are built here, one gather per level.
    The rows are u(e) - xi(e, e) and, for every g and s in S,
    u(g) + u(s) - u(gs) - xi(g, s).

    Exact: the first row gives du(e, e) = xi(e, e).  The b with
    du(a, b) = xi(a, b) for all a are closed under products, since
    du(a, bb') = du(ab, b') + du(a, b) - du(b, b') and xi satisfies the same
    identity; the rows put S among them, so du = xi on all of G x G.  Every
    solution u restricts to one x.
    """
    t, T = G.table, [G.identity, *G.generators]
    N, r, m = G.order, len(T), xi_on.shape[2]
    letters, levels = G._cayley_tree
    along = np.zeros((N, m), dtype=np.int64)
    for parents, children, steps in levels:
        along[children] = (along[parents] - xi_on[parents, steps]) % n
    cochain = np.hstack([letters % n, along])
    rows = cochain[:, None, :] - cochain[t[:, T]]
    rows[:, np.arange(r), np.arange(r)] += 1
    rows[:, :, r:] -= xi_on
    rows = np.vstack([rows[G.identity, 0], rows[:, 1:].reshape(N * (r - 1), r + m)])
    return rows % n, cochain


def _solve_coboundaries(G: TableGroup, xi_on: np.ndarray, n: int) -> Optional[np.ndarray]:
    """Cochains u_i with du_i = xi_i for each of the m cocycles xi_i, as the
    columns of an (N, m) array, or None.

    One system and one Howell form of its u-block serve all m cocycles:
    ``modring.solve_linear`` takes their m right-hand sides at once, and
    None means that some xi_i is not a coboundary.  The u_i are returned
    only once ``_check_coboundary`` has compared them with ``xi_on``, which
    is exact because every caller's xi_i is a cocycle.
    """
    r, m = 1 + len(G.generators), xi_on.shape[2]
    rows, cochain = _coboundary_system(G, xi_on, n)
    y = modring.solve_linear(ModMatrix(n, rows[:, :r]), -rows[:, r:])
    if y is None:
        return None
    U = modring._matvec(cochain, np.vstack([y, np.eye(m, dtype=np.int64)]), n)
    _check_coboundary(G, U, xi_on, n)
    return U


def _check_coboundary(G: TableGroup, U: np.ndarray, xi_on: np.ndarray, n: int) -> None:
    """Raise ``TheoremViolationError`` unless U[g] + U[s] - U[gs] = xi_on[g, j]
    mod n on the N |T| pairs (g, s = T[j]), T = (e, *S), for all m columns
    of U at once.

    Exact when each xi_i is a cocycle: then so is zeta = xi_i - du_i.  The
    cocycle identity at b = c = e gives zeta(g, e) = zeta(e, e), and the
    pairs (g, e) check that.  At (g, s, w) it gives
    zeta(g, s w) = zeta(g s, w) + zeta(g, s) - zeta(s, w), so by induction
    on the word length of w in S, zeta vanishes on all of G x G.  Both
    callers pass cocycles: a ``Cocycle2`` is one by Light's test and keeps
    its checked values read-only, and an inflated table is one on the
    checked coordinates ``cs.layer1_coords`` (``_inflated_values``).
    """
    T = [G.identity, *G.generators]
    if ((U[:, None] + U[T] - U[G.table[:, T]] - xi_on) % n).any():
        raise TheoremViolationError("coboundary solution fails substitution")


def solve_coboundary(xi: Cocycle2) -> Optional[np.ndarray]:
    """A cochain u with u(st) = u(s) + u(t) - xi(s, t), or None.

    None certifies that the class of xi is nontrivial.  For a normalized
    cocycle (xi(1,1) = 0) any solution has u(identity) = 0.  The one-table
    case of the machinery's solve (``_solve_coboundaries``): u is solved on
    the generating set and checked on the N |T| pairs (g, s) with s in
    T = (e, *S), which is exact because xi is a cocycle.
    """
    G = xi.group
    U = _solve_coboundaries(G, xi.values[:, [G.identity, *G.generators], None], xi.n)
    return None if U is None else U[:, 0]


# --- H^2 presentation and the pairing with S -------------------------------


def _upper_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) index arrays of the pairs i < j < k in row order, as
    ``np.triu_indices(k, 1)`` gives them."""
    ij = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(k), 2)), dtype=np.int64)
    return ij[0::2], ij[1::2]


@dataclass(frozen=True)
class H2Class:
    """Element of H^2((Z/n)^k) in the cup/Bockstein normal form.

    Basis: x_i cup x_j for i < j, plus the Bocksteins beta x_j.  The stored
    cup matrix is strictly upper triangular; lower entries are folded by
    anticommutativity and diagonal entries by x cup x = C(n,2) beta x.
    """

    k: int
    n: int
    cup: np.ndarray  # (k, k), strictly upper after normalization
    bockstein: np.ndarray  # (k,)

    def __post_init__(self):
        object.__setattr__(self, "k", check_integer(self.k, "rank"))
        object.__setattr__(self, "n", check_modulus(self.n))
        cup = check_integers(self.cup, "cup coefficients") % self.n
        bock = check_integers(self.bockstein, "Bockstein coefficients") % self.n
        if cup.shape != (self.k, self.k) or bock.shape != (self.k,):
            raise DimensionError("coefficient shapes do not match the rank")
        b2 = binom2(self.n)
        bock = (bock + b2 * np.diag(cup)) % self.n
        folded = (np.triu(cup, 1) - np.tril(cup, -1).T) % self.n
        object.__setattr__(self, "cup", folded)
        object.__setattr__(self, "bockstein", bock)

    def coeff_vector(self) -> np.ndarray:
        """Concatenated (cups for i<j in row order, bocksteins)."""
        return np.concatenate([self.cup[_upper_pairs(self.k)], self.bockstein])

    @classmethod
    def from_coeff_vector(cls, k: int, n: int, v: Sequence[int]) -> "H2Class":
        k, v = check_integer(k, "rank"), check_integers(v, "coefficients")
        if k < 0 or v.shape != (k * (k + 1) // 2,):
            raise DimensionError(f"a class of rank {k} has k(k+1)/2 coefficients, got shape {v.shape}")
        m = k * (k - 1) // 2
        cup = np.zeros((k, k), dtype=np.int64)
        cup[_upper_pairs(k)] = v[:m]
        return cls(k=k, n=n, cup=cup, bockstein=v[m:])

    def decomposition(self) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[np.ndarray]]:
        """One sum-of-cups-plus-Bocksteins decomposition (pairs, z vectors)."""
        eye = np.eye(self.k, dtype=np.int64)
        pairs = [
            ((int(self.cup[i, j]) * eye[i]) % self.n, eye[j])
            for i in range(self.k)
            for j in range(i + 1, self.k)
            if self.cup[i, j]
        ]
        zs = [(int(self.bockstein[j]) * eye[j]) % self.n for j in range(self.k) if self.bockstein[j]]
        return pairs, zs


@dataclass(frozen=True)
class SElement:
    """A pair (F, g): bilinear plus linear form subject to the diagonal law.

    Membership law: F[i][i] = C(n,2) g[i] and F[i][j] + F[j][i] = 0 for
    i != j (the polarized form of F(x,x) = C(n,2) g(x) for all x).
    """

    k: int
    n: int
    F: np.ndarray  # (k, k)
    g: np.ndarray  # (k,)

    def __post_init__(self):
        object.__setattr__(self, "k", check_integer(self.k, "rank"))
        object.__setattr__(self, "n", check_modulus(self.n))
        F = check_integers(self.F, "bilinear form entries") % self.n
        g = check_integers(self.g, "linear form entries") % self.n
        if F.shape != (self.k, self.k) or g.shape != (self.k,):
            raise DimensionError("form shapes do not match the rank")
        b2 = binom2(self.n)
        if ((np.diag(F) - b2 * g) % self.n).any():
            raise DomainError("diagonal law F[i][i] = C(n,2) g[i] fails")
        if ((F + F.T - 2 * np.diag(np.diag(F))) % self.n).any():
            raise DomainError("off-diagonal antisymmetry fails")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "g", g)


def special_elements(s: Sequence[int], t: Sequence[int], n: int) -> tuple[SElement, SElement]:
    """The commutator element (s⊗t - t⊗s, 0) and power element (C(n,2)s⊗s, s)."""
    n = check_modulus(n)
    sv = check_integers(s, "coordinates") % n
    tv = check_integers(t, "coordinates") % n
    if sv.shape != tv.shape or sv.ndim != 1:
        raise DimensionError("mismatched coordinate vectors")
    k = sv.size
    comm = SElement(k, n, np.outer(sv, tv) - np.outer(tv, sv), np.zeros(k, dtype=np.int64))
    powr = SElement(k, n, binom2(n) * np.outer(sv, sv), sv)
    return comm, powr


def pairing_S(s: SElement, c: H2Class) -> int:
    """((F,g), class) = sum of cup[i][j] F[i][j] (i<j) plus bockstein . g."""
    if s.k != c.k or s.n != c.n:
        raise DimensionError("rank or modulus mismatch")
    iu = _upper_pairs(s.k)
    return int((c.cup[iu] * s.F[iu]).sum() + (c.bockstein * s.g).sum()) % s.n


# --- layer-1 identification and kernel of inflation ------------------------


def _inflated_values(left: np.ndarray, right: np.ndarray, n: int, P: np.ndarray, zs: Sequence[np.ndarray]) -> np.ndarray:
    """xi(a, b) = a^T P b + sum of the carries B_z(a, b), mod n, for the
    (Z/n)^k coordinate rows ``left`` of the a and ``right`` of the b.

    On the coordinates pi of ``CentralSeriesData.layer1_coords``, checked to
    be a homomorphism, these are the values of a cocycle on G: (x, y) -> x^T P y
    is bilinear, B_z is the carry of x(z) + y(z) past n, whose cocycle
    identity says that both ways of adding three values in [0, n) carry the
    same total, sums of cocycles are cocycles, and so is a cocycle pulled
    back along a homomorphism.
    """
    values = left @ P @ right.T
    for z in zs:
        values += (left @ z % n)[:, None] + right @ z % n >= n
    return values % n


def kernel_of_inflation(cs: CentralSeriesData) -> list[H2Class]:
    """Generators (canonical form) of the classes on layer 1 dying in G.

    Solved as one linear system over Z/n in the unknowns (u on e and the
    generators of G, class coefficients c): A_u y + X c = 0, the equations
    du = (inflation of the class with coefficients c) of
    ``_coboundary_system``; the projection of its solution module onto the
    c-coordinates is the kernel.  Its Howell form is read off one Howell
    form, of the rows (A_u^T | 0) and (X^T | I) (``modring._left_kernel``
    keeping the c-coordinates): the rows that vanish on the left block.
    The basis U_{e_i, e_j} (i < j) and B_{e_j} enters through its values on
    the pairs (g, s), s in T, read off ``cs.layer1_coords``, which are checked
    to be a homomorphism, so every inflated table is a cocycle.
    """
    G, n, coords = cs.group, cs.n, cs.layer1_coords
    k = coords.shape[1]
    T = [G.identity, *G.generators]
    cg, ct = coords[:, None, :], coords[T][None, :, :]
    iu, ju = _upper_pairs(k)
    xi_on = np.concatenate([cg[:, :, iu] * ct[:, :, ju] % n, (cg + ct >= n).astype(np.int64)], axis=2)
    m = k * (k + 1) // 2

    rows, _ = _coboundary_system(G, xi_on, n)
    return [H2Class.from_coeff_vector(k, n, row) for row in modring._left_kernel(rows.T, n, m)]


# --- the main verification -------------------------------------------------


@dataclass(frozen=True)
class MachineryReport:
    """Outcome of the cochain-identity and layer-isomorphism verification."""

    group_order: int
    n: int
    rank: int
    kernel_size: int
    identity_violations: int
    alternative_decomposition_violations: int
    omega_well_defined: bool
    omega_total: bool
    omega_injective: bool
    omega_image_matches: bool
    seed: int

    @property
    def ok(self) -> bool:
        return (
            self.identity_violations == 0
            and self.alternative_decomposition_violations == 0
            and self.omega_well_defined
            and self.omega_total
            and self.omega_injective
            and self.omega_image_matches
        )

    def as_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def _evaluations(
    C: np.ndarray, n: int, P: np.ndarray, zs: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(on_comm, on_pow): the values the evaluation identities give [s, t] and s^n.

    ``C`` holds the (Z/n)^k coordinates of the L layer-1 elements, ``P`` is
    sum x y^T over the cup pairs (x, y) of a decomposition and ``zs`` its
    Bockstein vectors.  With X = C P C^T, mod n,
    -u([s, t]) = sum s(x)t(y) - s(y)t(x) = (X - X^T)[s, t] (on_comm, L x L) and
    -u(s^n) = C(n,2) sum s(x)s(y) + sum s(z) = C(n,2) X[s, s] + (C sum z)[s]
    (on_pow, L).
    """
    X = C @ (P % n) @ C.T % n
    z = sum(zs, np.zeros(C.shape[1], dtype=np.int64))
    return (X - X.T) % n, (binom2(n) * np.diag(X) + C @ z) % n


def _additive_extension(
    group: TableGroup, gens: np.ndarray, gen_values: np.ndarray, n: int
) -> tuple[bool, np.ndarray, np.ndarray]:
    """(additive, reached, values): extend gens -> gen_values additively over ``group``.

    v is read off the breadth-first spanning tree of the Cayley graph from
    the identity (value 0) along the generators (``groups._spanning_tree``):
    v(x*g) = v(x) + v(g) mod n on each tree edge.  Then every edge x -> x*g
    from a reached x is checked against it.  ``reached`` is the span of the
    generators, ``values`` holds v on it.  Exact: if every edge is additive,
    induction on the length of a word w in the generators gives
    v(x*w) = v(x) + v(w), so v is a homomorphism on the span extending the
    assignment; a homomorphism extending it is additive on every edge.
    """
    values = np.zeros((group.order, gen_values.shape[1]), dtype=np.int64)
    reached = np.arange(group.order) == group.identity
    for parents, children, steps in groups._spanning_tree(group.table, [group.identity], gens):
        values[children] = (values[parents] + gen_values[steps]) % n
        reached[children] = True
    x = np.flatnonzero(reached)
    additive = np.array_equal(values[group.table[x[:, None], gens]], (values[x, None] + gen_values) % n)
    return additive, reached, values


def _distinct_rows(a: np.ndarray) -> bool:
    """True when no two rows of the 2-D array ``a`` are equal: after one
    lexicographic sort equal rows are neighbours."""
    if not a.shape[1]:
        return len(a) <= 1
    s = a[np.lexsort(a.T)]
    return not (s[1:] == s[:-1]).all(axis=1).any()


def verify_thm23_and_omegaR(G: TableGroup, n: int, seed: int = 0) -> MachineryReport:
    """Verify the cochain identities and the layer-2 isomorphism for G.

    For every kernel generator: inflate a cup/Bockstein representative of a
    chosen decomposition, solve for the cochain u, and check the commutator
    and power evaluation identities for all pairs of layer-1 elements; repeat
    with an alternative decomposition differing by the relation class.  Then
    read the map from layer 2 to functions on the kernel generators off the
    values the identities give, and verify it is a bijection onto the
    restricted image of the compatible-pair space.

    Omega is well defined when each layer-2 class of a commutator or n-th
    power gets one value vector and these extend additively from identity 0;
    on a group satisfying the theorem it always is.  ``omega_total`` says the
    classes generate layer 2, ``omega_injective`` that its elements get
    distinct values, ``omega_image_matches`` that the values span the
    restricted image; the last two are False when Omega is not well defined.
    """
    cs = central_series(G, n)
    R = kernel_of_inflation(cs)
    coords, C, l2 = cs.layer1_coords, cs.layer1.decomposition.coords_of, cs.layer2
    k = coords.shape[1]
    comm, powr = layer_maps(cs, random.Random(seed))

    variants = []  # (P, zs) of eta's decomposition, then of the alternative, for each eta
    for eta in R:
        pairs, zs = eta.decomposition()
        P = sum((np.outer(x, y) for x, y in pairs), np.zeros((k, k), dtype=np.int64))
        # The alternative is the same class, shifted by the relation x cup x = C(n,2) beta x.
        e0 = np.eye(k, dtype=np.int64)[0]
        variants += [(P, zs), (P + np.outer(e0, e0), zs + [(-binom2(n) * e0) % n])]
    if variants:
        # One system, one Howell form and one check for all 2|R| inflated
        # cocycles, from their values on the pairs (g, T).
        on_T = coords[[G.identity, *G.generators]]
        xi_on = np.stack([_inflated_values(coords, on_T, n, vP, vz) for vP, vz in variants], axis=2)
        U = _solve_coboundaries(G, xi_on, n)
        if U is None:
            raise TheoremViolationError("kernel class fails to die after inflation")

    bad = [0, 0]  # identity violations, alternative-decomposition violations
    columns = []  # Omega's value vector of each commutator and power, one per eta
    for i, (vP, vz) in enumerate(variants):
        u, variant = U[:, i], i % 2
        on_comm, on_pow = _evaluations(C, n, vP, vz)
        bad[variant] += int(np.count_nonzero((u[comm] + on_comm) % n))
        bad[variant] += int(np.count_nonzero((u[powr] + on_pow) % n))
        if variant == 0:
            columns.append(np.concatenate([on_comm.ravel(), on_pow]))

    # The induced map: layer-2 element -> its function on R.  For eta in
    # normal form the commutator element of (s, t) pairs to
    # sum_{i<j} cup_ij (s_i t_j - s_j t_i) = (C cup C^T - C cup^T C^T)[s, t],
    # and the power element of s to C(n,2) sum_{i<j} cup_ij s_i s_j +
    # sum_i bock_i s_i: the values on_comm and on_pow of eta's own
    # decomposition, which the identities above pin to -u.
    keys = np.concatenate([l2.project[comm].ravel(), l2.project[powr]])
    vecs = np.array(columns, dtype=np.int64).reshape(len(R), len(keys)).T
    gens, first, where = np.unique(keys, return_index=True, return_inverse=True)
    additive, reached, values = _additive_extension(l2.group, gens, vecs[first], n)
    well_defined = bool(additive and np.array_equal(vecs, vecs[first][where]))
    omega = values[reached]
    total = bool(reached.all())
    injective = well_defined and _distinct_rows(omega)

    # Image of the compatible-pair space under restriction to R: spanned by
    # the pairings of the power elements of the e_i and the commutator
    # elements of (e_i, e_j), i < j, which are eta's Bockstein and cup
    # coefficients.  The values of Omega form a subgroup, and two subgroups
    # of (Z/n)^r are equal exactly when their Howell forms are (with R empty
    # both forms have no rows).
    m = k * (k + 1) // 2
    sr_gens = np.array([eta.coeff_vector() for eta in R], dtype=np.int64).reshape(len(R), m).T
    image_matches = well_defined and modring.howell_form(ModMatrix(n, omega)) == modring.howell_form(
        ModMatrix(n, sr_gens)
    )

    return MachineryReport(
        group_order=G.order,
        n=n,
        rank=k,
        kernel_size=len(R),
        identity_violations=bad[0],
        alternative_decomposition_violations=bad[1],
        omega_well_defined=well_defined,
        omega_total=total,
        omega_injective=injective,
        omega_image_matches=image_matches,
        seed=seed,
    )


# --- central extensions and embedding problems -----------------------------


@dataclass(frozen=True)
class CentralExtension:
    """A surjection total -> base with central cyclic kernel."""

    total: TableGroup
    base: TableGroup
    proj: np.ndarray  # total element -> base element

    def __post_init__(self):
        p = check_integers(self.proj, "projection values")
        if p.shape != (self.total.order,):
            raise DimensionError("projection length differs from total order")
        object.__setattr__(self, "proj", p)
        t = self.total.table
        if not np.array_equal(np.unique(p), np.arange(self.base.order)):
            raise DomainError("projection is not surjective")
        if not np.array_equal(p[t], self.base.table[p[:, None], p[None, :]]):
            raise DomainError("projection is not a homomorphism")
        kernel = np.flatnonzero(p == self.base.identity)
        if not np.array_equal(t[kernel], t[:, kernel].T):
            raise DomainError("kernel is not central")
        object.__setattr__(self, "_kernel", kernel)

    @property
    def kernel(self) -> np.ndarray:
        """Sorted index array of the kernel in ``total``."""
        return self._kernel

    def kernel_cyclic(self):
        from .groups import abelian_decomposition

        sub, to_old = self.total.subgroup_table(self.kernel)
        dec = abelian_decomposition(sub)
        if len(dec.orders) > 1:
            raise DomainError("kernel is not cyclic")
        return sub, to_old, dec

    def classifying_cocycle(self) -> tuple[Cocycle2, np.ndarray, int]:
        """(cocycle on the base with values in Z/m, section array, m).

        The section picks the smallest preimage of each base element, and
        the total identity over the base identity.
        """
        sub, to_old, dec = self.kernel_cyclic()
        m = dec.orders[0] if dec.orders else 1
        if m == 1:
            raise DomainError("trivial kernel carries no extension data")
        coord_of = np.full(self.total.order, -1, dtype=np.int64)
        coord_of[to_old] = dec.coords_of[:, 0]
        _, section = np.unique(self.proj, return_index=True)
        section[self.base.identity] = self.total.identity
        t, inv = self.total.table, self.total._inverses
        defect = t[t[section[:, None], section[None, :]], inv[section[self.base.table]]]
        return Cocycle2(self.base, m, coord_of[defect]), section, m


def embedding_solvable(
    G: TableGroup, ext: CentralExtension, phi: Sequence[int]
) -> tuple[bool, Optional[np.ndarray]]:
    """Whether phi : G -> base lifts through the extension; the lift if so.

    Decided by pulling the classifying cocycle back along phi and testing it
    for being a coboundary; a solving cochain assembles the lift, which is
    verified to be a homomorphism.
    """
    p = check_integers(phi, "phi values", ext.base.order)
    if p.shape != (G.order,):
        raise DimensionError("phi length differs from group order")
    if not np.array_equal(p[G.table], ext.base.table[p[:, None], p[None, :]]):
        raise DomainError("phi is not a homomorphism")
    xi, section, m = ext.classifying_cocycle()
    pulled = Cocycle2(G, m, xi.values[p[:, None], p[None, :]])
    u = solve_coboundary(pulled)
    if u is None:
        return False, None
    sub, to_old, dec = ext.kernel_cyclic()
    t = ext.total.table
    lift = t[section[p], ext.total.powers(int(to_old[dec.gens[0]]), m)[(-u) % m]]
    if not np.array_equal(lift[G.table], t[lift[:, None], lift[None, :]]):
        raise TheoremViolationError("assembled lift is not a homomorphism")
    return True, lift
