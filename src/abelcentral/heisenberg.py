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

The power law is ``heis_pow_arrays``, whose planar coordinates (m*a, m*b)
are ``heis_pow_planar``.  ``verify_laws`` checks all three coordinates; the
relation conditions (5) and (7) read only the planar ones, since a
commutator (``_comm``) reads no central coordinate, and the bilinear
cross-check of (5) (``_bilinear_sums``) reads no power law at all.

Only the table group and its checks (``_order``, ``to_table_group``,
``verify_laws``) import ``groups`` and ``cohomology``, inside those
functions, so the relation checks load neither.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import TheoremViolationError, check_bound
from .finfield import FqField, check_characters
from .modring import check_modulus

if TYPE_CHECKING:
    from .groups import TableGroup


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


def heis_pow_planar(n: int, a, b, c, m: int):
    """The planar coordinates (m*a, m*b) mod n of h(a, b; c)^m, the first two
    of ``heis_pow_arrays``.

    The arguments broadcast together; the true law reads no c, so the result
    has the broadcast shape of a, b and m alone.
    """
    return (m * a) % n, (m * b) % n


def heis_pow_arrays(n: int, a, b, c, m: int):
    """Coordinates of h(a, b; c)^m = h(m*a, m*b; m*c + C(m,2)*a*b) mod n.

    ``a``, ``b``, ``c`` are integer arrays of equal shape (one element per
    position); every product is reduced mod n before the next one.  The
    planar coordinates come from ``heis_pow_planar``, so the law is written
    once.
    """
    binom = (m * (m - 1) // 2) % n
    return (*heis_pow_planar(n, a, b, c, m), (m * c + binom * ((a * b) % n)) % n)


def _order(n: int) -> tuple[int, int]:
    """(n as a Python int, the group order n^3), after checking n with
    ``modring.check_modulus`` and n^3 <= ``groups.TABLE_MAX``."""
    from .groups import TABLE_MAX

    n = check_modulus(n)
    return n, check_bound(n**3, TABLE_MAX, "group order")


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
    table is ``_mul`` on coordinate arrays, filled one (a, b) block of n
    rows at a time, so the temporaries hold n^4 cells beside the table.
    The group is generated by h(0, 1; 0) and h(1, 0; 0), whose commutator
    is h(0, 0; 1).
    """
    from .groups import _generated_group

    n, size = _order(n)
    v = _elements(n)
    table = np.empty((size, size), dtype=np.int64)
    for a, b in itertools.product(range(n), repeat=2):
        pa, pb, pc = _mul(n, (a, b, np.arange(n, dtype=np.int64)[:, None]), v)
        table[(a * n + b) * n : (a * n + b + 1) * n] = (pa * n + pb) * n + pc
    labels = tuple(f"h({a},{b};{c})" for a, b, c in itertools.product(range(n), repeat=3))
    return _generated_group(table, labels, [n, n * n])


def verify_laws(n: int) -> dict:
    """Check the closed forms and the table of the mod-n Heisenberg group.

    On all n^6 pairs (u, v), the literal u^-1 v^-1 u v must be
    h(0, 0; ``_comm``(u, v)) and the literal u^n (``_literal_pow``) must be
    the closed form ``heis_pow_arrays`` at m = n, h(0, 0; C(n,2)*a*b); any
    disagreement raises ``TheoremViolationError``.  The pairs are taken in
    n^2 blocks, one per (a, b) of u, each against all n^3 elements v.  The
    table must then have central series sizes n^3, n, 1, and the extension
    cocycle read through the section h(a, b; 0) must be the cup cocycle of
    the two coordinate functionals.  Raises ``ModulusError`` for n outside
    [2, 2^31 - 1] and ``DomainError`` when n^3 exceeds ``TABLE_MAX``, before
    any work.
    """
    from .cohomology import make_U_B
    from .groups import central_series

    n, _ = _order(n)
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


def _char_pairs_check(pairs, field: FqField) -> np.ndarray:
    """The coefficients of the pairs (``_pair_coeffs``), once they live on the
    field and mod its n."""
    check_characters([f for pair in pairs for f in pair], field, field.n)
    return _pair_coeffs(pairs)


def _pair_coeffs(pairs) -> np.ndarray:
    """The coefficients of the pairs as an int64 array of shape (2, m),
    c(s_i) at [0, i] and c(t_i) at [1, i]; each reader adds the trailing axes
    it broadcasts over."""
    return np.array([[s.c for s, _ in pairs], [t.c for _, t in pairs]], dtype=np.int64)


def _comm_sums(st: np.ndarray, a, b, c, n: int) -> np.ndarray:
    """Sum over the pairs (s_i, t_i) of the commutator coordinates of the
    images g^{c(s_i)} and g^{c(t_i)}, for every generator image g = h(a, b; c)
    of the arrays, from the coefficients ``st`` of ``_pair_coeffs``.  A
    commutator reads only the planar coordinates (``_comm``), so all the
    powers come from one ``heis_pow_planar`` call over the (2, pairs) axes of
    ``st``, and no central coordinate is formed.  The result has the
    broadcast shape of the planar powers without the leading axes: under the
    true law that of a and b alone, while a law whose planar part reads c
    carries the c axis into it.  Each commutator coordinate is reduced mod n
    before the sum over the pairs.  An empty family builds no terms (the power
    law reads every image whatever the number of pairs)."""
    if not st.size:
        return np.zeros(np.shape(a), dtype=np.int64)
    coeffs = st.reshape(st.shape + (1,) * np.ndim(a))
    (sa, ta), (sb, tb) = heis_pow_planar(n, a, b, c, coeffs)
    return _comm(n, (sa, sb), (ta, tb)).sum(axis=0) % n


def _bilinear_sums(st: np.ndarray, a, b, n: int) -> np.ndarray:
    """Sum over the pairs of s_i(x) t_i(y) - s_i(y) t_i(x) for the coordinate
    functionals x, y of the generator images h(a, b; .): s_i(x) = c(s_i) * a,
    s_i(y) = c(s_i) * b, etc., without the power formula."""
    coeffs = st.reshape(st.shape + (1,) * np.ndim(a))
    (sx, tx), (sy, ty) = (coeffs * a) % n, (coeffs * b) % n
    return ((sx * ty - sy * tx) % n).sum(axis=0) % n


def _image_axes(n: int):
    """The coordinates a, b and c of the generator images h(a, b; c), as int64
    axes of shapes (n, 1, 1), (1, n, 1) and (1, 1, n)."""
    return tuple(np.arange(n, dtype=np.int64).reshape(shape) for shape in ((n, 1, 1), (1, n, 1), (1, 1, n)))


def _image_sums(st: np.ndarray, n: int) -> np.ndarray:
    """The commutator sum at every generator image h(a, b; c), as a read-only
    (n, n, n) grid indexed [a, b, c], for the coefficients ``st``.

    Every image defines a homomorphism from the cyclic order-n^2 source,
    since every element of the mod-n Heisenberg group has order dividing n^2
    (``exponent_divides_n2``, checked here by enumeration rather than assumed).
    The axes of ``_image_axes`` go into ``_comm_sums``, and the result is
    broadcast to (n, n, n).  This gives exactly the values of the full enumeration over
    ``_elements(n)`` at every image, under any power law: ``_comm_sums`` is
    elementwise in the image coordinates (``heis_pow_planar``, ``_comm`` and
    the reductions mod n act cell by cell) and sums only along the leading
    pairs axis, so its value at an image depends on that image's (a, b, c)
    alone, and numpy broadcasting evaluates the same elementwise expression
    at every cell of the broadcast shape.  The sums read only the planar
    coordinates of the powers.  Under the true law those do not read c, so
    the sums come out with shape (n, n, 1) and the broadcast repeats them
    along c; a law whose planar part reads c carries the c axis by itself,
    into the constancy check of ``_failing_types``.
    """
    if not exponent_divides_n2(n):
        raise TheoremViolationError("Heisenberg exponent does not divide n^2")
    return np.broadcast_to(_comm_sums(st, *_image_axes(n), n), (n, n, n))


def _homs_vanish(st: np.ndarray, image_sums: np.ndarray, n: int) -> bool:
    """Condition (5) on the image grid of ``st``: whether it vanishes, after
    the cross-check of every image against the bilinear criterion, computed
    without the power formula on the (n, n, 1) plane of (a, b), since it
    reads no c; any disagreement raises ``TheoremViolationError``."""
    a, b, _ = _image_axes(n)
    if (image_sums != _bilinear_sums(st, a, b, n)).any():
        raise TheoremViolationError("commutator sum disagrees with the bilinear criterion")
    return not image_sums.any()


def _failing_types(image_sums: np.ndarray, field: FqField) -> np.ndarray:
    """Condition (7) on the field's types: whether each type's embedding
    problem has solutions that leave the commutator sum nonzero.

    The problem of a point x of type (i, j) = (dlog x, dlog(1 - x)) mod n has
    the n solutions h(i, j; t), which recover the target by construction, and
    their commutator sums are row (i, j) of the image grid.  So a point fails
    exactly when its type does (``FqField.point_types``).  The sum is
    independent of t, so one solution works iff all do; a row of a type that
    occurs where it is not constant raises ``TheoremViolationError``.
    """
    classes = field.point_types[0]
    rows = image_sums[classes[:, 0], classes[:, 1]]
    if (rows != rows[:, :1]).any():
        raise TheoremViolationError("commutator sum depends on the central coordinate")
    return rows[:, 0] != 0


def enumerate_homs_check(pairs, field: FqField) -> bool:
    """Whether the commutator sum vanishes for every homomorphism.

    Every one of the n^3 generator images h(a, b; c) defines a homomorphism
    from the cyclic order-n^2 source.  The commutator sums of the images of
    the characters' values, taken with the planar coordinates of the
    closed-form powers (``heis_pow_planar``) and summed over the pairs, are
    the grid
    ``_image_sums``, which ``_homs_vanish`` cross-checks image by image
    against the bilinear criterion sum(s_i(x) t_i(y) - s_i(y) t_i(x)) for the
    induced pair of coordinate functionals.
    """
    st = _char_pairs_check(pairs, field)
    return _homs_vanish(st, _image_sums(st, field.n), field.n)


def pointwise_embedding_check(pairs, field: FqField) -> tuple[bool, int | None]:
    """For each x in K minus {0,1}: some solution of the (x, 1-x) problem kills
    the commutator sum.

    Decided per type by ``_failing_types`` on the image grid ``_image_sums``,
    and pulled back to the points along their types.  Returns (flag, smallest
    failing x).
    """
    st = _char_pairs_check(pairs, field)
    failing = _failing_types(_image_sums(st, field.n), field)
    if failing.any():
        fail = np.flatnonzero(failing[field.point_types[2]])
        return False, min(field.table_points[i] for i in fail)
    return True, None
