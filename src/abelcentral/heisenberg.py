"""The mod-n Heisenberg group and embedding problems into it.

Elements are upper unitriangular 3x3 matrices over Z/n, written h(a, b; c)
with a, b the superdiagonal entries and c the corner.  The group law is

    h(a, b; c) * h(a', b'; c') = h(a+a', b+b'; c+c'+a*b').

Central elements h(0, 0; c) are identified with c throughout, so commutator
and power images land in Z/n.  Closed forms used (re-verified in tests
against the literal law):

    commutator of h(a,b;.) and h(a',b';.)  = h(0, 0; a*b' - a'*b)
    h(a,b;c)^m                             = h(m*a, m*b; m*c + C(m,2)*a*b)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ModulusError, TheoremViolationError
from .finfield import FqField
from .groups import TABLE_MAX, TableGroup
from .modring import binom2


@dataclass(frozen=True)
class HeisElem:
    """h(a, b; c) over Z/n."""

    n: int
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.n < 2:
            raise ModulusError(f"modulus must be >= 2, got {self.n}")
        object.__setattr__(self, "a", self.a % self.n)
        object.__setattr__(self, "b", self.b % self.n)
        object.__setattr__(self, "c", self.c % self.n)

    def _check(self, other: "HeisElem") -> None:
        if self.n != other.n:
            raise ModulusError("mixed moduli")

    def __mul__(self, other: "HeisElem") -> "HeisElem":
        return heis_mul(self, other)

    def inv(self) -> "HeisElem":
        return HeisElem(self.n, -self.a, -self.b, self.a * self.b - self.c)

    def __pow__(self, m: int) -> "HeisElem":
        binom = m * (m - 1) // 2
        return HeisElem(self.n, m * self.a, m * self.b, m * self.c + binom * self.a * self.b)

    def is_identity(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0


def identity(n: int) -> HeisElem:
    return HeisElem(n, 0, 0, 0)


def heis_mul(u: HeisElem, v: HeisElem) -> HeisElem:
    u._check(v)
    return HeisElem(u.n, u.a + v.a, u.b + v.b, u.c + v.c + u.a * v.b)


def heis_comm_pow(u: HeisElem, v: HeisElem) -> tuple[int, int]:
    """(central coordinate of the commutator of u and v, of u's n-th power).

    Closed forms a*b' - a'*b and C(n,2)*a*b, cross-checked against the
    literal computations u^-1 v^-1 u v and u^n via the group law.
    """
    u._check(v)
    n = u.n
    comm = (u.a * v.b - v.a * u.b) % n
    powr = (binom2(n) * u.a * u.b) % n
    literal_comm = heis_mul(heis_mul(u.inv(), v.inv()), heis_mul(u, v))
    literal_pow = identity(n)
    for _ in range(n):
        literal_pow = heis_mul(literal_pow, u)
    if (literal_comm.a, literal_comm.b, literal_comm.c) != (0, 0, comm):
        raise TheoremViolationError("closed-form commutator disagrees with the group law")
    if (literal_pow.a, literal_pow.b, literal_pow.c) != (0, 0, powr):
        raise TheoremViolationError("closed-form n-th power disagrees with the group law")
    return comm, powr


def order_of(x: HeisElem) -> int:
    """Multiplicative order; always divides n^2."""
    acc = x
    for m in range(1, x.n * x.n + 1):
        if acc.is_identity():
            return m
        acc = heis_mul(acc, x)
    raise TheoremViolationError("element order exceeds n^2")


@lru_cache(maxsize=None)
def exponent_divides_n2(n: int) -> bool:
    """Check by enumeration that every element's order divides n^2."""
    return all(
        (HeisElem(n, a, b, c) ** (n * n)).is_identity()
        and (n * n) % order_of(HeisElem(n, a, b, c)) == 0
        for a, b, c in itertools.product(range(n), repeat=3)
    )


def to_table_group(n: int) -> TableGroup:
    """The order-n^3 Heisenberg group as a multiplication-table group.

    Index of h(a, b; c) is (a*n + b)*n + c; labels are "h(a,b;c)".  The
    table is the group law on coordinate arrays, one axis per coordinate of
    each factor.
    """
    if n < 2:
        raise ModulusError(f"modulus must be >= 2, got {n}")
    size = n ** 3
    if size > TABLE_MAX:
        raise DomainError(f"table of order {size} exceeds the bound {TABLE_MAX}")
    a1, b1, c1, a2, b2, c2 = np.ix_(*[np.arange(n)] * 6)
    table = ((a1 + a2) % n * n + (b1 + b2) % n) * n + (c1 + c2 + a1 * b2) % n
    labels = tuple(f"h({a},{b};{c})" for a, b, c in itertools.product(range(n), repeat=3))
    return TableGroup(table=table.reshape(size, size), labels=labels)


# --- embedding problems ----------------------------------------------------


@dataclass(frozen=True)
class EmbeddingProblem:
    """Lift the pair of Kummer classes of x and y through the Heisenberg group.

    Over a finite field the Galois-side source is the cyclic group of order
    n^2 with fixed generator s0; a solution is determined by the image of s0,
    which must project to (x-class(s0), y-class(s0)) under the two coordinate
    maps on the abelianization.
    """

    field: FqField
    x: int
    y: int

    def __post_init__(self):
        if self.x == 0 or self.y == 0:
            raise DomainError("embedding problems require nonzero field elements")

    @property
    def n(self) -> int:
        return self.field.n

    def target(self) -> tuple[int, int]:
        """(x-class(s0), y-class(s0)) = the dlogs of x and y mod n."""
        n = self.n
        return self.field.dlog(self.x) % n, self.field.dlog(self.y) % n


@lru_cache(maxsize=None)
def _verified_solutions(n: int, dx: int, dy: int) -> tuple[HeisElem, ...]:
    sols = tuple(HeisElem(n, dx, dy, t) for t in range(n))
    for s in sols:
        if (n * n) % order_of(s) != 0:
            raise TheoremViolationError("generator image order does not divide n^2")
        if (s.a, s.b) != (dx, dy):
            raise TheoremViolationError("generator image does not recover the target pair")
    return sols


def solve_embedding_cyclic(prob: EmbeddingProblem) -> list[HeisElem]:
    """All generator images solving the problem (one per central coordinate).

    Over a finite field a solution always exists; the central coordinate t is
    unconstrained, so exactly n solutions h(dx, dy; t) are returned.  Each is
    verified to have order dividing n^2 and to recover the target pair.
    """
    dx, dy = prob.target()
    return list(_verified_solutions(prob.n, dx, dy))


# --- hom enumeration behind the relation conditions ------------------------


def _char_pairs_check(pairs, field: FqField) -> int:
    n = field.n
    for s, t in pairs:
        if s.field is not field or t.field is not field:
            raise ModulusError("characters live on a different field")
        if s.n != n or t.n != n:
            raise ModulusError("character modulus differs from the field's")
    return n


def commutator_sum(pairs, gen_image: HeisElem) -> int:
    """Central coordinate of the sum over pairs of commutators of images.

    The i-th pair of characters has images gen_image^{c_i} and gen_image^{d_i}
    under the homomorphism sending the fixed generator to gen_image; the sum
    of commutator coordinates is returned as an element of Z/n.
    """
    n = gen_image.n
    total = 0
    for s, t in pairs:
        u = gen_image ** s.c
        v = gen_image ** t.c
        total += u.a * v.b - v.a * u.b
    return total % n


def heis_pow_arrays(n: int, a, b, c, m: int):
    """Coordinates of h(a, b; c)^m = h(m*a, m*b; m*c + C(m,2)*a*b) mod n.

    ``a``, ``b``, ``c`` are integer arrays of equal shape (one element per
    position); every product is reduced mod n before the next one.
    """
    binom = (m * (m - 1) // 2) % n
    return (m * a) % n, (m * b) % n, (m * c + binom * ((a * b) % n)) % n


def _commutator_sums(pairs, a, b, c, n: int) -> np.ndarray:
    """``commutator_sum`` for every generator image h(a, b; c) of the arrays."""
    total = np.zeros(np.shape(a), dtype=np.int64)
    for s, t in pairs:
        ua, ub, _ = heis_pow_arrays(n, a, b, c, s.c)
        va, vb, _ = heis_pow_arrays(n, a, b, c, t.c)
        total += (ua * vb - va * ub) % n
    return total % n


def enumerate_homs_check(pairs, field: FqField) -> bool:
    """Whether the commutator sum vanishes for every homomorphism.

    Enumerates all n^3 generator images h(a, b; c) as coordinate arrays, in
    ``itertools.product`` order (every Heisenberg element has order dividing
    n^2, verified by enumeration rather than assumed, so every image defines
    a homomorphism from the cyclic order-n^2 source).  The images of the
    characters' values are the closed-form powers ``heis_pow_arrays``, and
    their commutator coordinates are summed over the pairs.  That sum is
    cross-checked, image by image, against the bilinear criterion
    sum(s_i(x) t_i(y) - s_i(y) t_i(x)) for the induced pair of coordinate
    functionals, computed without the power formula; any disagreement
    raises ``TheoremViolationError``.
    """
    n = _char_pairs_check(pairs, field)
    if not exponent_divides_n2(n):
        raise TheoremViolationError("Heisenberg exponent does not divide n^2")
    a, b, c = np.indices((n, n, n), dtype=np.int64).reshape(3, -1)
    total = _commutator_sums(pairs, a, b, c, n)
    # Bilinear criterion: s_i(x) = c_i * a, s_i(y) = c_i * b, etc.
    bilinear = np.zeros_like(a)
    for s, t in pairs:
        sx, sy, tx, ty = (s.c * a) % n, (s.c * b) % n, (t.c * a) % n, (t.c * b) % n
        bilinear += (sx * ty - sy * tx) % n
    if not np.array_equal(total, bilinear % n):
        raise TheoremViolationError("commutator sum disagrees with the bilinear criterion")
    return not total.any()


POINT_CHUNK_CELLS = 2**20  # (points x n) cells evaluated at once


def pointwise_embedding_check(pairs, field: FqField) -> tuple[bool, int | None]:
    """For each x in K minus {0,1}: some solution of the (x, 1-x) problem kills
    the commutator sum.

    The problem of x has target (dlog(x), dlog(1-x)) mod n and the n
    solutions h(dx, dy; t) of ``_verified_solutions``, which is called once
    per distinct target and checks their orders and targets.  The solutions
    are laid out as a full (points x n) array, t running over every central
    coordinate, and the commutator sum is computed at every cell.  The sum
    is independent of t, so one solution works iff all do; a row where it
    is not constant raises ``TheoremViolationError``.  Returns (flag,
    smallest failing x).
    """
    n = _char_pairs_check(pairs, field)
    dx, dy = (d % n for d in field.point_dlogs)
    for g in np.unique(dx * n + dy):
        _verified_solutions(n, *divmod(int(g), n))
    central = np.arange(n, dtype=np.int64)
    sums = np.zeros(dx.size, dtype=np.int64)
    step = max(1, POINT_CHUNK_CELLS // n)
    for lo in range(0, dx.size, step):
        rows = slice(lo, lo + step)
        a, b, c = np.broadcast_arrays(dx[rows, None], dy[rows, None], central)
        block = _commutator_sums(pairs, a, b, c, n)
        if (block != block[:, :1]).any():
            raise TheoremViolationError("commutator sum depends on the central coordinate")
        sums[rows] = block[:, 0]
    fail = np.flatnonzero(sums)
    if fail.size:
        return False, min(field.table_points[i] for i in fail)
    return True, None
