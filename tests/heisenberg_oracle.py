"""The literal mod-n Heisenberg group law, one element at a time: the oracle
for the array law, the closed forms and the relation checks in
``abelcentral.heisenberg``.

Elements are h(a, b; c) over Z/n with the law

    h(a, b; c) * h(a', b'; c') = h(a+a', b+b'; c+c'+a*b').
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from abelcentral.errors import DomainError, ModulusError, TheoremViolationError
from abelcentral.finfield import FqField
from abelcentral.modring import binom2


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
