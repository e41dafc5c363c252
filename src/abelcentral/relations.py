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
computed when n is within the enumeration bound.

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
from .errors import HypothesisError, ModulusError, TheoremViolationError
from .finfield import FqField, KummerCharacter, RootOfUnity
from .modring import ModMatrix

ENUM_BOUND_N = 10  # n^3 generator images must stay enumerable


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


def _unit_pairs_vanish(pairs, field: FqField, n: int) -> bool:
    """Whether sum_i s_i(x) t_i(y) - t_i(x) s_i(y) = 0 mod n for all units x, y.

    s(x) = c dlog(x) mod n = c (dlog(x) mod n) mod n, so the sum at (x, y) depends
    only on dlog x and dlog y mod n, the classes of x and y in K^x/K^xn.  dlog is a
    bijection from the units onto [0, q-1) and n | q-1, so every class is hit, and
    the grid of classes decides exactly the statement about all pairs of units.
    """
    classes = np.unique(np.concatenate(([0], field.point_dlogs[0])) % n)  # dlog(1) = 0
    # -t(x) s(y) is written (-t)(x) s(y), so every operand lies in [0, n).
    left = np.array([s.c for s, _ in pairs] + [-t.c for _, t in pairs], dtype=np.int64)[:, None] * classes % n
    right = np.array([t.c for _, t in pairs] + [s.c for s, _ in pairs], dtype=np.int64)[:, None] * classes % n
    return _grid_vanishes(left, right, n)


def _grid_vanishes(left: np.ndarray, right: np.ndarray, n: int) -> bool:
    """Whether sum_k left[k, x] right[k, y] = 0 mod n at every cell (x, y); True for no terms.

    Scans row chunks of about ``COND6_CHUNK_CELLS`` cells.  The operands lie in [0, n)
    and n < 2^20 (q <= FIELD_MAX), so reducing after every term keeps int64 exact.
    """
    step = max(1, COND6_CHUNK_CELLS // right.shape[1])
    for lo in range(0, left.shape[1], step):
        block = np.zeros((min(step, left.shape[1] - lo), right.shape[1]), dtype=np.int64)
        for lv, rv in zip(left[:, lo:lo + step], right):
            block += lv[:, None] * rv
            block %= n
        if block.any():
            return False
    return True


def relation_check(
    pairs: Sequence[tuple[KummerCharacter, KummerCharacter]],
    omega: RootOfUnity,
) -> RelationReport:
    """Evaluate every decidable condition for the finite family ``pairs``."""
    field, n = omega.field, omega.order
    if (field.q - 1) % (2 * n) != 0:
        raise HypothesisError(f"mu_{2 * n} not contained in F_{field.q}")
    for s, t in pairs:
        if s.field is not field or t.field is not field:
            raise ModulusError("characters live on a different field")
        if s.n != n or t.n != n:
            raise ModulusError("character modulus differs from omega's order")

    pts = field.table_points
    dl_pts, dl_1m = (d % n for d in field.point_dlogs)

    # (1): pointwise alternating sum over K minus {0, 1}.
    alt = np.zeros(len(pts), dtype=np.int64)
    for s, t in pairs:
        sx, sy, tx, ty = (s.c * dl_pts) % n, (s.c * dl_1m) % n, (t.c * dl_pts) % n, (t.c * dl_1m) % n
        alt += (sx * ty - sy * tx) % n
    alt %= n
    fail = np.flatnonzero(alt)
    cond1 = fail.size == 0
    first_failing_point = int(pts[fail[0]]) if fail.size else None

    # Witnesses: 2a_i = s_i(omega), 2b_i = t_i(omega).
    w_elt = omega.element
    wit_a = tuple(_halves(s(w_elt), n) for s, _ in pairs)
    wit_b = tuple(_halves(t(w_elt), n) for _, t in pairs)

    # Commutator-sum table, shared by (2), (3), (4).
    comm_sum = tables.zero_table(field, n)
    for s, t in pairs:
        comm_sum = comm_sum + tables.phi(s, t, omega)

    # Power tables of the family, shared by (2) and (3).
    fam_psi = [(tables.psi(s, omega), tables.psi(t, omega)) for s, t in pairs]

    # (2): equality with the witness combination; the choice of half does not
    # matter since the halves differ by n/2 and n * psi(f) = 0.
    rhs = tables.zero_table(field, n)
    for (psi_s, psi_t), a_sols, b_sols in zip(fam_psi, wit_a, wit_b):
        a, b = a_sols[0], b_sols[0]
        rhs = rhs + psi_s.scale(2 * b) - psi_t.scale(2 * a)
    cond2 = comm_sum == rhs

    # (3): membership in the span of the family's own doubled power tables.
    fam_rows = [p.scale(2).flatten() for pair in fam_psi for p in pair]
    if fam_rows:
        fam_span = modring.canonicalize(ModMatrix(n, np.stack(fam_rows)))
        cond3 = modring.membership(fam_span, comm_sum.flatten())
    else:
        cond3 = comm_sum.is_zero()

    # (4): membership in the span of all doubled power tables.
    cond4 = modring.membership(omega.doubled_power_span, comm_sum.flatten())

    # (6): alternating sum over all pairs of units (every cup product of unit
    # classes dies in the relevant cohomology, so the scan is unrestricted).
    cond6 = _unit_pairs_vanish(pairs, field, n)

    cond5 = cond7 = None
    if n <= ENUM_BOUND_N:
        cond5 = heisenberg.enumerate_homs_check(list(pairs), field)
        cond7, _ = heisenberg.pointwise_embedding_check(list(pairs), field)

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
