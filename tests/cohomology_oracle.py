"""Cohomology helpers that the library does not call, kept as test-side
oracles: the cup and carry tables by their own formulas (``_evaluate``,
``_U_values`` and ``_B_values``, which the library once built ``make_U_B``
from and now reads off ``_inflated_values``), inflation along a
projection, the canonical cocycle of an H^2 class in the cup/Bockstein
normal form, and the paths the machinery once ran
itself: the kernel of inflation from ``nullspace`` of the whole coboundary
system and a second ``canonicalize`` of its class columns, one solve and one
all-pairs check per cocycle table, and the verification assembled from
them, with Omega's injectivity decided by ``np.unique``; and the count of
Proposition A.1's violations by one Python loop over the pairs (s, t)."""

from __future__ import annotations

import random
from typing import Optional, Sequence

import numpy as np

from abelcentral import modring
from abelcentral.cohomology import (
    Cocycle2,
    H2Class,
    MachineryReport,
    _additive_extension,
    _coboundary_system,
    _evaluations,
    _inflated_values,
    _upper_pairs,
    make_U_B,
)
from abelcentral.errors import DimensionError, TheoremViolationError
from abelcentral.groups import CentralSeriesData, TableGroup, central_series, elementary_coords, elementary_group, layer_maps
from abelcentral.modring import ModMatrix, binom2


def _evaluate(coords: np.ndarray, n: int, x: Sequence[int]) -> np.ndarray:
    """s(x) in [0, n) for each element s with the given (Z/n)^k coordinates.

    Rows of ``coords`` may repeat, which gives the inflated value tables
    below.
    """
    xv = np.asarray(x, dtype=np.int64) % n
    if xv.shape != (coords.shape[1],):
        raise DimensionError("basis vectors must have length k")
    return (coords @ xv) % n


def _U_values(coords: np.ndarray, n: int, x: Sequence[int], y: Sequence[int]) -> np.ndarray:
    """The value table of U_{x,y}: U_{x,y}(s, t) = s(x) * t(y)."""
    return np.outer(_evaluate(coords, n, x), _evaluate(coords, n, y))


def _B_values(coords: np.ndarray, n: int, x: Sequence[int]) -> np.ndarray:
    """The value table of B_x: 1 exactly when s(x) + t(x) >= n (the carry cocycle)."""
    fx = _evaluate(coords, n, x)
    return (fx[:, None] + fx[None, :] >= n).astype(np.int64)


def inflate(xi: Cocycle2, proj: Sequence[int], group: TableGroup) -> Cocycle2:
    """Pull a cocycle on a quotient back to ``group`` along the projection."""
    p = np.asarray(proj, dtype=np.int64)
    if p.shape != (group.order,):
        raise DimensionError("projection length differs from group order")
    return Cocycle2(group, xi.n, xi.values[p[:, None], p[None, :]])


def representative(eta: H2Class) -> Cocycle2:
    """The canonical cocycle: the matching combination of U's and B's."""
    coords = elementary_coords(eta.n, eta.k)
    acc = np.zeros((eta.n ** eta.k,) * 2, dtype=np.int64)
    eye = np.eye(eta.k, dtype=np.int64)
    for i in range(eta.k):
        for j in range(i + 1, eta.k):
            acc += int(eta.cup[i, j]) * _U_values(coords, eta.n, eye[i], eye[j])
        acc += int(eta.bockstein[i]) * _B_values(coords, eta.n, eye[i])
    return Cocycle2(elementary_group(eta.n, eta.k), eta.n, acc)


def kernel_by_nullspace(cs: CentralSeriesData) -> list[H2Class]:
    """The kernel of inflation: ``nullspace`` of the whole coboundary system,
    then ``canonicalize`` of the class columns of its solutions."""
    G, n, coords = cs.group, cs.n, cs.layer1_coords
    k = coords.shape[1]
    T = [G.identity, *G.generators]
    cg, ct = coords[:, None, :], coords[T][None, :, :]
    iu, ju = _upper_pairs(k)
    xi_on = np.concatenate([cg[:, :, iu] * ct[:, :, ju] % n, (cg + ct >= n).astype(np.int64)], axis=2)
    m = k * (k + 1) // 2

    rows, _ = _coboundary_system(G, xi_on, n)
    sols = modring.nullspace(ModMatrix(n, rows))  # rows of sols solve rows @ x = 0
    tails = sols.entries[:, len(T):]
    span = modring.canonicalize(ModMatrix(n, tails if tails.size else tails.reshape(0, m)))
    return [
        H2Class.from_coeff_vector(k, n, row)
        for row in span.canonical.entries
        if row.any()
    ]


def solve_one_table(xi: Cocycle2) -> Optional[np.ndarray]:
    """A cochain u with du = xi, or None: one coboundary system and one
    one-column solve for this table, and u checked on all N^2 pairs at once."""
    G, n = xi.group, xi.n
    T = [G.identity, *G.generators]
    rows, cochain = _coboundary_system(G, xi.values[:, T, None], n)
    y = modring.solve_linear(ModMatrix(n, rows[:, :-1]), -rows[:, -1])
    if y is None:
        return None
    u = modring._matvec(cochain, np.append(y, 1), n)
    if ((u[:, None] + u[None, :] - u[G.table] - xi.values) % n).any():
        raise TheoremViolationError("coboundary solution fails substitution")
    return u


def verify_per_table(G: TableGroup, n: int, seed: int = 0) -> MachineryReport:
    """``verify_thm23_and_omegaR`` from ``kernel_by_nullspace``, one
    ``solve_one_table`` per inflated cocycle, and ``np.unique`` for Omega's
    injectivity."""
    cs = central_series(G, n)
    coords, C, l2 = cs.layer1_coords, cs.layer1.decomposition.coords_of, cs.layer2
    k = coords.shape[1]
    R = kernel_by_nullspace(cs)
    comm, powr = layer_maps(cs, random.Random(seed))

    bad = [0, 0]
    columns = []
    for eta in R:
        pairs, zs = eta.decomposition()
        P = sum((np.outer(x, y) for x, y in pairs), np.zeros((k, k), dtype=np.int64))
        e0 = np.eye(k, dtype=np.int64)[0]
        variants = [(P, zs), (P + np.outer(e0, e0), zs + [(-binom2(n) * e0) % n])]
        for variant, (vP, vz) in enumerate(variants):
            u = solve_one_table(Cocycle2(G, n, _inflated_values(coords, coords, n, vP, vz)))
            if u is None:
                raise TheoremViolationError("kernel class fails to die after inflation")
            on_comm, on_pow = _evaluations(C, n, vP, vz)
            bad[variant] += int(np.count_nonzero((u[comm] + on_comm) % n))
            bad[variant] += int(np.count_nonzero((u[powr] + on_pow) % n))
            if variant == 0:
                columns.append(np.concatenate([on_comm.ravel(), on_pow]))

    keys = np.concatenate([l2.project[comm].ravel(), l2.project[powr]])
    vecs = np.array(columns, dtype=np.int64).reshape(len(R), len(keys)).T
    gens, first, where = np.unique(keys, return_index=True, return_inverse=True)
    additive, reached, values = _additive_extension(l2.group, gens, vecs[first], n)
    well_defined = bool(additive and np.array_equal(vecs, vecs[first][where]))
    omega = values[reached]
    total = bool(reached.all())
    injective = well_defined and len(np.unique(omega, axis=0)) == len(omega)

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


def verify_propA1_loop(k: int, n: int) -> int:
    """``verify_propA1`` by the literal loop: each identity at each s and
    each pair (s, t), one pair of basis vectors at a time."""
    g = elementary_group(n, k)
    coords = elementary_coords(n, k)
    b2 = binom2(n)
    bad = 0
    for xi in range(k):
        x = np.eye(k, dtype=np.int64)[xi]
        for yi in range(k):
            y = np.eye(k, dtype=np.int64)[yi]
            u, b = make_U_B(k, n, x, y)
            uv, bv = u.values, b.values
            sx, sy = (coords @ x) % n, (coords @ y) % n
            for s in range(g.order):
                powers = [g.power(s, i) for i in range(n)]
                if (sum(int(uv[p, s]) for p in powers) - b2 * sx[s] * sy[s]) % n:
                    bad += 1
                if (sum(int(bv[p, s]) for p in powers) - sx[s]) % n:
                    bad += 1
                for t in range(g.order):
                    ti = g.inv(t)
                    st = g.mul(s, t)
                    lhs = uv[s, t] + uv[ti, st] - uv[ti, t]
                    if (lhs - (sx[s] * sy[t] - sy[s] * sx[t])) % n:
                        bad += 1
                    if (bv[s, t] + bv[ti, st] - bv[ti, t]) % n:
                        bad += 1
    return bad
