"""The per-pair loops that the relation detector once ran, kept as test-side
oracles for its pairs-axis batches: one pass of a Python loop per pair of the
family for condition (1), the commutator-sum table, the witness combination
of (2) with its witnesses found by search, the family span of (3), the
commutator sums and bilinear criterion behind (5) and (7), the term loop of
(6), and the span of the doubled power tables of every character.  Every
loop runs on the table points, not on their types.  ``relation_report``
assembles them into the detector's report."""

from __future__ import annotations

import numpy as np

from abelcentral import heisenberg, modring, tables
from abelcentral.errors import TheoremViolationError
from abelcentral.finfield import FqField, RootOfUnity, characters
from abelcentral.modring import ModMatrix, SubgroupZnk
from abelcentral.relations import ENUM_BOUND_N


def halves(w: int, n: int) -> tuple[int, ...]:
    """All a in Z/n with 2a = w, by a search over Z/n; nonempty under the mu_2n hypothesis."""
    sols = tuple(a for a in range(n) if (2 * a - w) % n == 0)
    if not sols:
        raise TheoremViolationError(f"2a = {w} has no solution mod {n} despite mu_2n in K")
    return sols


def alternating_sum(pairs, field: FqField, n: int) -> np.ndarray:
    """(1): sum_i s_i(x) t_i(1-x) - s_i(1-x) t_i(x) mod n at every table point."""
    dl_pts, dl_1m = (d % n for d in field.point_dlogs)
    alt = np.zeros(len(field.table_points), dtype=np.int64)
    for s, t in pairs:
        sx, sy, tx, ty = (s.c * dl_pts) % n, (s.c * dl_1m) % n, (t.c * dl_pts) % n, (t.c * dl_1m) % n
        alt += (sx * ty - sy * tx) % n
    return alt % n


def commutator_sum(pairs, omega: RootOfUnity) -> tables.FnTable:
    """sum_i phi(s_i, t_i), one ``tables.phi`` call per pair."""
    comm_sum = tables.zero_table(omega.field, omega.order)
    for s, t in pairs:
        comm_sum = comm_sum + tables.phi(s, t, omega)
    return comm_sum


def power_tables(pairs, omega: RootOfUnity) -> list[tuple[tables.FnTable, tables.FnTable]]:
    """(psi(s_i), psi(t_i)) for each pair, one ``tables.psi`` call per character."""
    return [(tables.psi(s, omega), tables.psi(t, omega)) for s, t in pairs]


def witness_combination(pairs, omega: RootOfUnity, wit_a, wit_b) -> tables.FnTable:
    """(2)'s sum_i 2b_i psi(s_i) - 2a_i psi(t_i) with the first witnesses."""
    rhs = tables.zero_table(omega.field, omega.order)
    for (psi_s, psi_t), a_sols, b_sols in zip(power_tables(pairs, omega), wit_a, wit_b):
        a, b = a_sols[0], b_sols[0]
        rhs = rhs + psi_s.scale(2 * b) - psi_t.scale(2 * a)
    return rhs


def family_span(pairs, omega: RootOfUnity) -> SubgroupZnk | None:
    """(3)'s span of the doubled power tables of the family; None for no pairs."""
    rows = [p.scale(2).flatten() for pair in power_tables(pairs, omega) for p in pair]
    return modring.canonicalize(ModMatrix(omega.order, np.stack(rows))) if rows else None


def doubled_power_span(omega: RootOfUnity) -> SubgroupZnk:
    """(4)'s span of the tables 2 psi(f), one row for every character f."""
    rows = [tables.psi(f, omega).scale(2).flatten() for f in characters(omega.field)]
    return modring.canonicalize(ModMatrix(omega.field.n, np.stack(rows)))


def grid_vanishes(left: np.ndarray, right: np.ndarray, n: int) -> bool:
    """(6)'s sum_k left[k, x] right[k, y] = 0 mod n at every cell, one term at a time."""
    block = np.zeros((left.shape[1], right.shape[1]), dtype=np.int64)
    for lv, rv in zip(left, right):
        block += lv[:, None] * rv
        block %= n
    return not block.any()


def unit_pairs_vanish(pairs, field: FqField, n: int) -> bool:
    """(6) on the grid of classes of K^x/K^xn, with ``grid_vanishes``."""
    classes = np.unique(np.concatenate(([0], field.point_dlogs[0])) % n)
    left = np.array([s.c for s, _ in pairs] + [-t.c for _, t in pairs], dtype=np.int64)[:, None] * classes % n
    right = np.array([t.c for _, t in pairs] + [s.c for s, _ in pairs], dtype=np.int64)[:, None] * classes % n
    return grid_vanishes(left, right, n)


def comm_sums(pairs, a, b, c, n: int) -> np.ndarray:
    """Sum over the pairs of the commutator coordinates of the images
    g^{c(s_i)} and g^{c(t_i)} of every g = h(a, b; c), two powers per pair.
    The law is read from the module, so a patched law reaches the oracle too."""
    law = heisenberg.heis_pow_arrays
    total = np.zeros(np.shape(a), dtype=np.int64)
    for s, t in pairs:
        total += heisenberg._comm(n, law(n, a, b, c, s.c), law(n, a, b, c, t.c))
    return total % n


def bilinear_sums(pairs, a, b, n: int) -> np.ndarray:
    """sum_i s_i(x) t_i(y) - s_i(y) t_i(x) for the coordinate functionals of h(a, b; .)."""
    bilinear = np.zeros(np.shape(a), dtype=np.int64)
    for s, t in pairs:
        sx, sy, tx, ty = (s.c * a) % n, (s.c * b) % n, (t.c * a) % n, (t.c * b) % n
        bilinear += (sx * ty - sy * tx) % n
    return bilinear % n


def char_pairs_check(pairs, field: FqField) -> int:
    """The field's n, once the pairs live on the field mod n and every
    Heisenberg element has order dividing n^2."""
    heisenberg._char_pairs_check(pairs, field)
    if not heisenberg.exponent_divides_n2(field.n):
        raise TheoremViolationError("Heisenberg exponent does not divide n^2")
    return field.n


def enumerate_homs(pairs, field: FqField) -> bool:
    """(5) over all n^3 generator images, cross-checked with the bilinear criterion."""
    n = char_pairs_check(pairs, field)
    a, b, c = heisenberg._elements(n)
    total = comm_sums(pairs, a, b, c, n)
    if not np.array_equal(total, bilinear_sums(pairs, a, b, n)):
        raise TheoremViolationError("commutator sum disagrees with the bilinear criterion")
    return not total.any()


def pointwise_embedding(pairs, field: FqField) -> tuple[bool, int | None]:
    """(7) on the full (points x n) array of solutions h(dlog x, dlog(1-x); t)."""
    n = char_pairs_check(pairs, field)
    dx, dy = (d % n for d in field.point_dlogs)
    a, b, c = np.broadcast_arrays(dx[:, None], dy[:, None], np.arange(n, dtype=np.int64))
    sums = comm_sums(pairs, a, b, c, n)
    if (sums != sums[:, :1]).any():
        raise TheoremViolationError("commutator sum depends on the central coordinate")
    fail = np.flatnonzero(sums[:, 0])
    if fail.size:
        return False, min(field.table_points[i] for i in fail)
    return True, None


def relation_report(pairs, omega: RootOfUnity) -> dict:
    """The detector's ``as_dict`` report, every condition from the loops above."""
    field, n = omega.field, omega.order
    alt = alternating_sum(pairs, field, n)
    wit_a = [list(halves(s(omega.element), n)) for s, _ in pairs]
    wit_b = [list(halves(t(omega.element), n)) for _, t in pairs]
    comm = commutator_sum(pairs, omega)
    span = family_span(pairs, omega)
    out = {
        "1": not alt.any(),
        "2": comm == witness_combination(pairs, omega, wit_a, wit_b),
        "3": modring.membership(span, comm.flatten()) if span is not None else comm.is_zero(),
        "4": modring.membership(doubled_power_span(omega), comm.flatten()),
        "6": unit_pairs_vanish(pairs, field, n),
        "witnesses_a": wit_a,
        "witnesses_b": wit_b,
    }
    if n <= ENUM_BOUND_N:
        out["5"] = enumerate_homs(list(pairs), field)
        out["7"] = pointwise_embedding(list(pairs), field)[0]
    if alt.any():
        out["first_failing_point"] = int(field.table_points[np.flatnonzero(alt)[0]])
    return out
