"""Deciding the seven equivalent relation conditions for character families.

Given a finite family of pairs of Kummer characters over a finite field, the
conditions below are provably equivalent; the detector computes each one
through an independent code path and raises if they ever disagree.

    (1) the alternating sum vanishes at every x in K minus {0, 1};
    (2) the commutator-sum table equals a specific combination of doubled
        power tables built from witnesses a_i, b_i with 2a_i = s_i(omega),
        2b_i = t_i(omega);
    (3) the commutator-sum table lies in the span of the family's own
        doubled power tables;
    (4) the commutator-sum table lies in the span of all doubled power
        tables;
    (5) the commutator sum dies under every homomorphism to the Heisenberg
        group;
    (6) the alternating sum vanishes at every pair of units;
    (7) for every x some Heisenberg lift through the (x, 1-x) embedding
        problem kills the commutator sum.

Every table of the conditions reads a point x only through its type, the
pair of classes (dlog x, dlog(1 - x)) mod n in K^x/K^xn, so (1)-(4) are
decided on the field's |T| <= n^2 types (``FqField.point_types``) rather
than on its q - 2 points: each table is the pullback of its table on T along
the surjection of the points onto T, and a pullback along a surjection is
injective.

Conditions (5) and (7) are decided by finite enumeration and are only
computed when n is within the enumeration bound.  Both are read off one grid
of commutator sums over the n^3 generator images h(a, b; c), built once per
check by broadcasting: (5) compares it with the bilinear criterion at every
image, and (7) reads the n solutions of each type's embedding problem off
its row (i, j).

Over a finite field every family satisfies all seven conditions.  K^x/K^xn
is cyclic, so every character is a multiple a * chi of one character chi,
and with s_i = a_i chi, t_i = b_i chi the alternating sum
sum s_i(x) t_i(y) - t_i(x) s_i(y) = sum (a_i b_i - b_i a_i) chi(x) chi(y)
is identically 0.  So the seven-way agreement cannot catch a condition that
is stuck at True.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import heisenberg, modring, tables
from .errors import TheoremViolationError, check_bound
from .finfield import KummerCharacter, RootOfUnity, check_characters, check_omega, check_roots
from .modring import ModMatrix

ENUM_BOUND_N = 10  # n^3 generator images must stay enumerable
RELATION_BYTES_MAX = 1 << 28  # largest int64 working set relation_check may allocate


@dataclass(frozen=True)
class RelationReport:
    """Outcome of the relation check; all computed flags are equal."""

    cond1: bool
    cond2: bool
    cond3: bool
    cond4: bool
    cond6: bool
    cond5: Optional[bool]
    cond7: Optional[bool]
    witnesses_a: tuple[tuple[int, ...], ...]  # all solutions of 2a = s_i(omega), per i
    witnesses_b: tuple[tuple[int, ...], ...]
    first_failing_point: Optional[int]

    def __post_init__(self):
        flags = {self.cond1, self.cond2, self.cond3, self.cond4, self.cond6}
        flags |= {f for f in (self.cond5, self.cond7) if f is not None}
        if len(flags) > 1:
            raise TheoremViolationError(f"equivalent conditions disagree: {self.as_dict()}")

    @property
    def holds(self) -> bool:
        return self.cond1

    def as_dict(self) -> dict:
        out = {
            "1": self.cond1,
            "2": self.cond2,
            "3": self.cond3,
            "4": self.cond4,
            "6": self.cond6,
            "witnesses_a": [list(w) for w in self.witnesses_a],
            "witnesses_b": [list(w) for w in self.witnesses_b],
        }
        if self.cond5 is not None:
            out["5"] = self.cond5
        if self.cond7 is not None:
            out["7"] = self.cond7
        if self.first_failing_point is not None:
            out["first_failing_point"] = self.first_failing_point
        return out


def _halves(w: int, n: int) -> tuple[int, ...]:
    """All a in Z/n with 2a = w, for w in [0, n), ascending; nonempty under the
    mu_2n hypothesis.

    For odd n, 2 is a unit with inverse (n + 1)/2, so w (n + 1)/2 is the one
    solution.  For even n, 2a = w mod n forces w to be even, and then it holds
    iff a = w/2 mod n/2: the solutions are w/2 and w/2 + n/2.
    """
    if n % 2:
        return (w * (n + 1) // 2 % n,)
    if w % 2:
        raise TheoremViolationError(f"2a = {w} has no solution mod {n} despite mu_2n in K")
    return (w // 2, w // 2 + n // 2)


COND6_CHUNK_CELLS = 2**20  # grid cells evaluated at once by condition (6)
COND6_TERMS_MAX = 2**22  # terms of condition (6) contracted at once


def _unit_pairs_vanish(st: np.ndarray, n: int) -> bool:
    """Whether sum_i s_i(x) t_i(y) - t_i(x) s_i(y) = 0 mod n for all units x, y,
    for the coefficients ``st`` of shape (2, m).

    s(x) = c dlog(x) mod n = c (dlog(x) mod n) mod n, so the sum at (x, y) depends
    only on dlog x and dlog y mod n, the classes of x and y in K^x/K^xn.  dlog is a
    bijection from the units onto [0, q-1) and n | q-1, so every class in [0, n)
    is hit, and the grid of the n classes decides exactly the statement about all
    pairs of units.
    """
    classes = np.arange(n, dtype=np.int64)
    # -t(x) s(y) is written (-t)(x) s(y), so every operand lies in [0, n).
    left = np.concatenate((st[0], -st[1]))[:, None] * classes % n
    right = np.concatenate((st[1], st[0]))[:, None] * classes % n
    return _grid_vanishes(left, right, n)


def _grid_vanishes(left: np.ndarray, right: np.ndarray, n: int) -> bool:
    """Whether sum_k left[k, x] right[k, y] = 0 mod n at every cell (x, y); True for no terms.

    Contracts row chunks of about ``COND6_CHUNK_CELLS`` cells, left[k, chunk].T @ right[k],
    over blocks k of at most ``COND6_TERMS_MAX`` terms, reducing after each block.  int64
    matmul is exact integer arithmetic (no float, no BLAS).  The operands lie in [0, n)
    and n < 2^20 (q <= FIELD_MAX), so a product is below 2^40, the sum of a block below
    2^62, and the running sum below 2^62 + n < 2^63.
    """
    terms, cols = right.shape
    term_blocks = modring.row_blocks(terms, 1, COND6_TERMS_MAX)
    for x in modring.row_blocks(left.shape[1], cols, COND6_CHUNK_CELLS):
        block = np.zeros((x.stop - x.start, cols), dtype=np.int64)
        for k in term_blocks:
            block += left[k, x].T @ right[k]
            block %= n
        if block.any():
            return False
    return True


def _pair_sum(terms: np.ndarray, n: int) -> np.ndarray:
    """The sum of ``terms`` along the leading pairs axis mod n, reducing ``terms`` in place.

    Each term is reduced before the sum, so the sum stays below 2^63 for fewer
    than 2^43 terms (n < 2^20).
    """
    terms %= n
    return terms.sum(axis=0) % n


def _alternating_sum(st: np.ndarray, dl_pts: np.ndarray, dl_1m: np.ndarray, n: int) -> np.ndarray:
    """sum_i s_i(x) t_i(1-x) - s_i(1-x) t_i(x) mod n at every point x of the dlogs
    ``dl_pts`` and ``dl_1m``, for the coefficients ``st`` of shape (2, m)."""
    st = st[..., None]
    (sx, tx), (sy, ty) = st * dl_pts % n, st * dl_1m % n
    return _pair_sum(sx * ty - sy * tx, n)


def _commutator_sum(st: np.ndarray, dlogs, n: int) -> np.ndarray:
    """sum_i phi(s_i, t_i) mod n, flattened (a_0, b_0, a_1, ...), at the points of
    ``dlogs``, from one batch of the coefficients ``st`` of shape (2, m)."""
    return _pair_sum(tables._phi_values(*st[..., None], *dlogs, n), n).reshape(-1)


def _power_rows(coeffs: np.ndarray, dlogs, n: int) -> np.ndarray:
    """The tables psi(f), shape (rows, points, 2), at the points of ``dlogs``, of the
    characters f with coefficients ``coeffs`` (rows, 1)."""
    rows = tables._psi_values(coeffs, *dlogs, n)
    rows %= n
    return rows


def _witness_combination(fam_psi: np.ndarray, wit_a, wit_b, n: int) -> np.ndarray:
    """sum_i 2b_i psi(s_i) - 2a_i psi(t_i) mod n, flattened, with the first witnesses
    a_i, b_i and the rows psi(s_1), ..., psi(s_m), psi(t_1), ..., psi(t_m) of ``fam_psi``."""
    weights = np.array([2 * b[0] for b in wit_b] + [-2 * a[0] for a in wit_a], dtype=np.int64)
    return _pair_sum(weights[:, None, None] * fam_psi, n).reshape(-1)


def relation_check(
    pairs: Sequence[tuple[KummerCharacter, KummerCharacter]],
    omega: RootOfUnity,
) -> RelationReport:
    """Evaluate every decidable condition for the finite family ``pairs``.

    The family is read once, into its (2, m) coefficient array, and every sum
    over it runs along that pairs axis: one broadcast and one reduction per
    condition.  Conditions (1)-(4) run on the |T| types of
    ``FqField.point_types``, which are keyed by the field's n, so ``omega``
    must have that order (``check_omega`` raises ``ModulusError`` otherwise,
    before the characters are read).  Each of their tables is the pullback
    of its table on T along the surjection ``types`` of the points onto T,
    and a pullback along a surjection is injective: vanishing (1), equality
    (2) and span membership (3), (4) are the same on T as on the points.  A
    point fails (1) exactly when its type does, so the first failing point in
    table order is the least of the failing types' first points.

    For m pairs the work holds the 2m power tables of 2|T| int64 cells three
    times at once (the power batch, its doubled copy and the Howell working
    copy of (3)'s span); an estimate above ``RELATION_BYTES_MAX`` raises
    ``DomainError`` before any is allocated.
    """
    field = omega.field
    check_roots(field.q, 2 * omega.order)
    n = check_omega(omega)
    check_characters([f for pair in pairs for f in pair], field, n)
    classes, first = field.point_types[:2]
    need = 3 * 8 * 2 * len(pairs) * 2 * len(classes)
    check_bound(need, RELATION_BYTES_MAX, f"bytes of the relation check on {len(pairs)} pairs over F_{field.q}")

    # s_i = st[0, i] chi and t_i = st[1, i] chi for the generating character chi.
    st = heisenberg._pair_coeffs(pairs)
    dw = field.dlog(omega.element) % n
    dlogs = (classes[:, 0], classes[:, 1], dw)

    # Witnesses: 2a_i = s_i(omega) = st[0, i] dlog(omega), 2b_i = t_i(omega).
    wit_a, wit_b = (tuple(_halves(w, n) for w in row) for row in (st * dw % n).tolist())

    # The family's tables on the types, each a sum along its pairs axis.  An
    # empty family builds no terms: its sums are zero and it spans the zero
    # subgroup.
    alt, comm_sum = np.zeros(len(classes), dtype=np.int64), np.zeros(2 * len(classes), dtype=np.int64)
    rhs, fam_span = comm_sum, None
    if pairs:
        # (1): alternating sum at every type.
        alt = _alternating_sum(st, *dlogs[:2], n)
        # Commutator-sum table of (2), (3), (4).
        comm_sum = _commutator_sum(st, dlogs, n)
        # The power tables psi(s_1), ..., psi(s_m), psi(t_1), ..., psi(t_m),
        # read by (2)'s witness combination and (3)'s span.
        fam_psi = _power_rows(st.reshape(-1, 1), dlogs, n)
        rhs = _witness_combination(fam_psi, wit_a, wit_b, n)
        fam_span = modring.canonicalize(ModMatrix(n, (2 * fam_psi).reshape(len(fam_psi), -1)))

    # (1): the alternating sum vanishes at every type.
    fail = np.flatnonzero(alt)
    cond1 = fail.size == 0
    first_failing_point = int(field.table_points[first[fail].min()]) if fail.size else None

    # (2): equality with the witness combination; the choice of half does not
    # matter since the halves differ by n/2 and n * psi(f) = 0.
    cond2 = bool(np.array_equal(comm_sum, rhs))

    # (3): membership in the span of the family's own doubled power tables.
    cond3 = modring.membership(fam_span, comm_sum) if fam_span is not None else not comm_sum.any()

    # (4): membership in the span of all doubled power tables.
    cond4 = modring.membership(omega.doubled_power_span, comm_sum)

    # (6): alternating sum over all pairs of units (every cup product of unit
    # classes dies in the relevant cohomology, so the scan is unrestricted).
    cond6 = _unit_pairs_vanish(st, n)

    cond5 = cond7 = None
    if n <= ENUM_BOUND_N:
        image_sums = heisenberg._image_sums(st, n)
        cond5 = heisenberg._homs_vanish(st, image_sums, n)
        cond7 = not heisenberg._failing_types(image_sums, field).any()

    return RelationReport(
        cond1=cond1,
        cond2=cond2,
        cond3=cond3,
        cond4=cond4,
        cond6=cond6,
        cond5=cond5,
        cond7=cond7,
        witnesses_a=wit_a,
        witnesses_b=wit_b,
        first_failing_point=first_failing_point,
    )
