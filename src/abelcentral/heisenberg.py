"""The mod-n Heisenberg group and the relation checks that map into it.

Elements are upper unitriangular 3x3 matrices over Z/n, written h(a, b; c)
with a, b the superdiagonal entries and c the corner.  The group law is

    h(a, b; c) * h(a', b'; c') = h(a+a', b+b'; c+c'+a*b'),

written once, as ``_mul`` on coordinate arrays.  Central elements
h(0, 0; c) are identified with c throughout, so commutator and power images
land in Z/n.  Closed forms used (checked against the literal law by
``verify_laws`` on all n^6 pairs):

    commutator of h(a,b;.) and h(a',b';.)  = h(0, 0; a*b' - a'*b)
    h(a,b;c)^m                             = h(m*a, m*b; m*c + C(m,2)*a*b)
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .cohomology import make_U_B
from .errors import DomainError, ModulusError, TheoremViolationError
from .finfield import FqField
from .groups import TABLE_MAX, TableGroup, central_series


def _mul(n: int, u, v):
    """h(a, b; c) * h(a', b'; c') = h(a+a', b+b'; c+c'+a*b') mod n.

    ``u`` and ``v`` are (a, b, c) triples of ints or broadcastable integer
    arrays; this is the one group law every other function reads.
    """
    (a, b, c), (a2, b2, c2) = u, v
    return (a + a2) % n, (b + b2) % n, (c + c2 + a * b2) % n


def _inv(n: int, u):
    """h(a, b; c)^-1 = h(-a, -b; a*b - c) mod n, on triples like ``_mul``."""
    a, b, c = u
    return -a % n, -b % n, (a * b - c) % n


def _literal_pow(n: int, u, m: int):
    """u^m as m literal ``_mul`` steps from the identity."""
    power = (0, 0, 0)
    for _ in range(m):
        power = _mul(n, power, u)
    return power


def _comm(n: int, u, v):
    """Closed-form central coordinate a*b' - a'*b of the commutator of u and v."""
    return (u[0] * v[1] - v[0] * u[1]) % n


def heis_pow_arrays(n: int, a, b, c, m: int):
    """Coordinates of h(a, b; c)^m = h(m*a, m*b; m*c + C(m,2)*a*b) mod n.

    ``a``, ``b``, ``c`` are integer arrays of equal shape (one element per
    position); every product is reduced mod n before the next one.
    """
    binom = (m * (m - 1) // 2) % n
    return (m * a) % n, (m * b) % n, (m * c + binom * ((a * b) % n)) % n


def _order(n: int) -> int:
    """The group order n^3, after checking 2 <= n and n^3 <= ``TABLE_MAX``."""
    if n < 2:
        raise ModulusError(f"modulus must be >= 2, got {n}")
    size = n ** 3
    if size > TABLE_MAX:
        raise DomainError(f"table of order {size} exceeds the bound {TABLE_MAX}")
    return size


def _elements(n: int):
    """Every h(a, b; c) as a triple of int64 arrays, in ``itertools.product`` order."""
    return tuple(np.indices((n, n, n), dtype=np.int64).reshape(3, -1))


@lru_cache(maxsize=None)
def exponent_divides_n2(n: int) -> bool:
    """Check by enumeration that every element's order divides n^2.

    Multiplies out x^(n^2) for all n^3 elements x at once with
    ``_literal_pow`` and compares with the identity.
    """
    return not any(np.any(coord) for coord in _literal_pow(n, _elements(n), n * n))


def to_table_group(n: int) -> TableGroup:
    """The order-n^3 Heisenberg group as a multiplication-table group.

    Index of h(a, b; c) is (a*n + b)*n + c; labels are "h(a,b;c)".  The
    table is ``_mul`` on coordinate arrays, one axis per coordinate of each
    factor.
    """
    size = _order(n)
    grid = np.ix_(*[np.arange(n)] * 6)
    a, b, c = _mul(n, grid[:3], grid[3:])
    table = (a * n + b) * n + c
    labels = tuple(f"h({a},{b};{c})" for a, b, c in itertools.product(range(n), repeat=3))
    return TableGroup(table=table.reshape(size, size), labels=labels)


def verify_laws(n: int) -> dict:
    """Check the closed forms and the table of the mod-n Heisenberg group.

    On all n^6 pairs (u, v), the literal u^-1 v^-1 u v must be
    h(0, 0; ``_comm``(u, v)) and the literal u^n (``_literal_pow``) must be
    the closed form ``heis_pow_arrays`` at m = n, h(0, 0; C(n,2)*a*b); any
    disagreement raises ``TheoremViolationError``.  The pairs are taken in
    n^2 blocks, one per (a, b) of u, each against all n^3 elements v.  The
    table must then have central series sizes n^3, n, 1, and the extension
    cocycle read through the section h(a, b; 0) must be the cup cocycle of
    the two coordinate functionals.  Raises ``ModulusError`` for n < 2 and
    ``DomainError`` when n^3 exceeds ``TABLE_MAX``, before any work.
    """
    _order(n)
    v = _elements(n)
    v_inv = _inv(n, v)
    checked = 0
    for a, b in itertools.product(range(n), repeat=2):
        u = (a, b, np.arange(n, dtype=np.int64)[:, None])
        literal = _mul(n, _mul(n, _inv(n, u), v_inv), _mul(n, u, v))
        closed = (0, 0, _comm(n, u, v))
        if any(np.any(x != y) for x, y in zip(literal, closed)):
            raise TheoremViolationError("closed-form commutator disagrees with the group law")
        if any(np.any(x != y) for x, y in zip(_literal_pow(n, u, n), heis_pow_arrays(n, *u, n))):
            raise TheoremViolationError("closed-form n-th power disagrees with the group law")
        checked += literal[2].size
    g = to_table_group(n)
    sizes_ok = central_series(g, n).sizes[:3] == (n ** 3, n, 1)
    section = np.arange(n * n) * n
    cup, _ = make_U_B(2, n, [1, 0], [0, 1])
    cocycle_ok = bool(np.array_equal(g.table[np.ix_(section, section)] % n, cup.values))
    return {
        "n": n,
        "pairs_checked": checked,
        "series_sizes_ok": sizes_ok,
        "extension_cocycle_ok": cocycle_ok,
        "ok": sizes_ok and cocycle_ok,
    }


# --- hom enumeration behind the relation conditions ------------------------


def _char_pairs_check(pairs, field: FqField) -> int:
    """The field's n, once the pairs live on the field and mod n, and every
    element of the mod-n Heisenberg group has order dividing n^2 (so every
    generator image defines a homomorphism from the cyclic order-n^2 source)."""
    n = field.n
    for s, t in pairs:
        if s.field is not field or t.field is not field:
            raise ModulusError("characters live on a different field")
        if s.n != n or t.n != n:
            raise ModulusError("character modulus differs from the field's")
    if not exponent_divides_n2(n):
        raise TheoremViolationError("Heisenberg exponent does not divide n^2")
    return n


def _comm_sums(pairs, a, b, c, n: int) -> np.ndarray:
    """Sum over the pairs (s_i, t_i) of the commutator coordinates of the
    images g^{c(s_i)} and g^{c(t_i)}, for every generator image g = h(a, b; c)
    of the arrays."""
    total = np.zeros(np.shape(a), dtype=np.int64)
    for s, t in pairs:
        total += _comm(n, heis_pow_arrays(n, a, b, c, s.c), heis_pow_arrays(n, a, b, c, t.c))
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
    a, b, c = _elements(n)
    total = _comm_sums(pairs, a, b, c, n)
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
    solutions h(dx, dy; t), which recover the target by construction; each
    is a homomorphism's generator image because ``exponent_divides_n2``
    holds (checked in ``_char_pairs_check``).  The solutions are laid out
    as a full (points x n) array, t running over every central coordinate,
    and the commutator sum is computed at every cell.  The sum is
    independent of t, so one solution works iff all do; a row where it is
    not constant raises ``TheoremViolationError``.  Returns (flag, smallest
    failing x).
    """
    n = _char_pairs_check(pairs, field)
    dx, dy = (d % n for d in field.point_dlogs)
    central = np.arange(n, dtype=np.int64)
    sums = np.zeros(dx.size, dtype=np.int64)
    step = max(1, POINT_CHUNK_CELLS // n)
    for lo in range(0, dx.size, step):
        rows = slice(lo, lo + step)
        a, b, c = np.broadcast_arrays(dx[rows, None], dy[rows, None], central)
        block = _comm_sums(pairs, a, b, c, n)
        if (block != block[:, :1]).any():
            raise TheoremViolationError("commutator sum depends on the central coordinate")
        sums[rows] = block[:, 0]
    fail = np.flatnonzero(sums)
    if fail.size:
        return False, min(field.table_points[i] for i in fail)
    return True, None
