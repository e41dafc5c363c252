"""Cohomology helpers that the library does not call, kept as test-side
oracles: inflation along a projection, and the canonical cocycle of an
H^2 class in the cup/Bockstein normal form."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from abelcentral.cohomology import Cocycle2, H2Class, _B_values, _U_values
from abelcentral.errors import DimensionError
from abelcentral.groups import TableGroup, elementary_coords, elementary_group


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
