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

Conditions (5) and (7) are decided by finite enumeration and are only
computed when n is within the enumeration bound.  Both are read off one grid
of commutator sums over the n^3 generator images h(a, b; c), built once per
check by broadcasting: (5) compares it with the bilinear criterion at every
image, and (7) reads the n solutions of each point's embedding problem off
its row (dlog x, dlog(1 - x)) mod n.

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
from .errors import DomainError, HypothesisError, ModulusError, TheoremViolationError
from .finfield import FqField, KummerCharacter, RootOfUnity
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
    """All a in Z/n with 2a = w; nonempty under the mu_2n hypothesis."""
    sols = tuple(a for a in range(n) if (2 * a - w) % n == 0)
    if not sols:
        raise TheoremViolationError(f"2a = {w} has no solution mod {n} despite mu_2n in K")
    return sols


COND6_CHUNK_CELLS = 2**20  # grid cells evaluated at once by condition (6)
COND6_TERMS_MAX = 2**22  # terms of condition (6) contracted at once


def _unit_pairs_vanish(pairs, field: FqField, n: int) -> bool:
    """Whether sum_i s_i(x) t_i(y) - t_i(x) s_i(y) = 0 mod n for all units x, y.

    s(x) = c dlog(x) mod n = c (dlog(x) mod n) mod n, so the sum at (x, y) depends
    only on dlog x and dlog y mod n, the classes of x and y in K^x/K^xn.  dlog is a
    bijection from the units onto [0, q-1) and n | q-1, so every class is hit, and
    the grid of classes decides exactly the statement about all pairs of units.
    """
    classes = np.flatnonzero(np.bincount(np.concatenate(([0], field.point_dlogs[0])) % n))  # dlog(1) = 0
    # -t(x) s(y) is written (-t)(x) s(y), so every operand lies in [0, n).
    left = np.array([s.c for s, _ in pairs] + [-t.c for _, t in pairs], dtype=np.int64)[:, None] * classes % n
    right = np.array([t.c for _, t in pairs] + [s.c for s, _ in pairs], dtype=np.int64)[:, None] * classes % n
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
    step = max(1, COND6_CHUNK_CELLS // cols)
    for lo in range(0, left.shape[1], step):
        block = np.zeros((min(step, left.shape[1] - lo), cols), dtype=np.int64)
        for k in range(0, terms, COND6_TERMS_MAX):
            block += left[k:k + COND6_TERMS_MAX, lo:lo + step].T @ right[k:k + COND6_TERMS_MAX]
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
    """sum_i s_i(x) t_i(1-x) - s_i(1-x) t_i(x) mod n at every point x, for the
    coefficients ``st`` of shape (2, m, 1)."""
    (sx, tx), (sy, ty) = st * dl_pts % n, st * dl_1m % n
    return _pair_sum(sx * ty - sy * tx, n)


def _commutator_sum(st: np.ndarray, dlogs, n: int) -> np.ndarray:
    """sum_i phi(s_i, t_i) mod n, flattened (a_0, b_0, a_1, ...), from one batch of the
    coefficients ``st`` of shape (2, m, 1)."""
    return _pair_sum(tables._phi_values(*st, *dlogs, n), n).reshape(-1)


def _power_rows(coeffs: np.ndarray, dlogs, n: int) -> np.ndarray:
    """The tables psi(f), shape (rows, q-2, 2), of the characters f with coefficients ``coeffs`` (rows, 1)."""
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

    Every sum over the family runs along a leading pairs axis: one broadcast
    and one reduction per condition.

    For m pairs over F_q the work holds the 2m power tables of 2(q - 2) int64
    cells three times at once (the power batch, its doubled copy and the
    Howell working copy of (3)'s span); an estimate above
    ``RELATION_BYTES_MAX`` raises ``DomainError`` before any is allocated.
    """
    field, n = omega.field, omega.order
    if (field.q - 1) % (2 * n) != 0:
        raise HypothesisError(f"mu_{2 * n} not contained in F_{field.q}")
    for s, t in pairs:
        if s.field is not field or t.field is not field:
            raise ModulusError("characters live on a different field")
        if s.n != n or t.n != n:
            raise ModulusError("character modulus differs from omega's order")
    need = 3 * 8 * 2 * len(pairs) * 2 * (field.q - 2)
    if need > RELATION_BYTES_MAX:
        raise DomainError(
            f"relation check on {len(pairs)} pairs over F_{field.q} needs about {need} bytes, "
            f"above the bound {RELATION_BYTES_MAX}"
        )

    # s_i = st[0, i] chi and t_i = st[1, i] chi for the generating character chi.
    st = heisenberg._pair_coeffs(pairs, 1)
    dlogs = tables._omega_dlogs(omega)
    dl_pts, dl_1m, _ = dlogs

    # Witnesses: 2a_i = s_i(omega), 2b_i = t_i(omega).
    w_elt = omega.element
    wit_a = tuple(_halves(s(w_elt), n) for s, _ in pairs)
    wit_b = tuple(_halves(t(w_elt), n) for _, t in pairs)

    # The family's tables, each a sum along its pairs axis.  An empty family
    # builds no terms: its sums are zero and it spans the zero subgroup.
    alt, comm_sum = np.zeros(dl_pts.size, dtype=np.int64), np.zeros(2 * dl_pts.size, dtype=np.int64)
    rhs, fam_span = comm_sum, None
    if pairs:
        # (1): pointwise alternating sum over K minus {0, 1}.
        alt = _alternating_sum(st, dl_pts, dl_1m, n)
        # Commutator-sum table of (2), (3), (4).
        comm_sum = _commutator_sum(st, dlogs, n)
        # The power tables psi(s_1), ..., psi(s_m), psi(t_1), ..., psi(t_m),
        # read by (2)'s witness combination and (3)'s span.
        fam_psi = _power_rows(st.reshape(-1, 1), dlogs, n)
        rhs = _witness_combination(fam_psi, wit_a, wit_b, n)
        fam_span = modring.canonicalize(ModMatrix(n, (2 * fam_psi).reshape(len(fam_psi), -1)))

    # (1): the alternating sum vanishes at every point.
    fail = np.flatnonzero(alt)
    cond1 = fail.size == 0
    first_failing_point = int(field.table_points[fail[0]]) if fail.size else None

    # (2): equality with the witness combination; the choice of half does not
    # matter since the halves differ by n/2 and n * psi(f) = 0.
    cond2 = bool(np.array_equal(comm_sum, rhs))

    # (3): membership in the span of the family's own doubled power tables.
    cond3 = modring.membership(fam_span, comm_sum) if fam_span is not None else not comm_sum.any()

    # (4): membership in the span of all doubled power tables.
    cond4 = modring.membership(omega.doubled_power_span, comm_sum)

    # (6): alternating sum over all pairs of units (every cup product of unit
    # classes dies in the relevant cohomology, so the scan is unrestricted).
    cond6 = _unit_pairs_vanish(pairs, field, n)

    cond5 = cond7 = None
    if n <= ENUM_BOUND_N:
        image_sums = heisenberg._image_sums(pairs, n)
        cond5 = heisenberg.enumerate_homs_check(list(pairs), field, image_sums=image_sums)
        cond7, _ = heisenberg.pointwise_embedding_check(list(pairs), field, image_sums=image_sums)

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
