"""The table-array span of the table group that the library once computed
itself, kept as a test-side oracle: every multiple k phi(chi, chi) and all n
power tables c^2 A + c B as one array, deduplicated by their bytes, and the
Howell form and structure of all of them."""

from __future__ import annotations

import math

import numpy as np

from abelcentral import modring
from abelcentral.finfield import FqField, KummerCharacter, RootOfUnity
from abelcentral.modring import AbelianStructure, ModMatrix, SubgroupZnk, binom2
from abelcentral.tables import FnTable, _reduced_dlogs, phi, zero_table


def ffrak_arrays(field: FqField, omega: RootOfUnity) -> tuple[tuple[FnTable, ...], SubgroupZnk, AbelianStructure]:
    """The distinct non-zero pair and power tables in all-pairs loop order,
    their span and its structure.

    The characters mod n are the multiples c chi of the generating character
    chi; phi is bilinear, phi(a chi, b chi) = ab phi(chi, chi), and psi
    quadratic, psi(c chi) = c^2 A + c B with
    A(x) = (C(n,2) chi(x) chi(1-x), C(n,2) chi(x) chi(omega)) and
    B(x) = (0, chi(x)).  The rows f = 0 and f = chi of the all-pairs loop meet
    every pair table as k phi(chi, chi) for k = 0, 1, ..., n-1, distinct below
    the additive order of phi(chi, chi); the power tables follow for
    c = 0, 1, ..., n-1, and each first occurrence is kept.
    """
    n = omega.order
    chi = KummerCharacter(field, field.n, 1)
    pair = phi(chi, chi, omega).values
    order = n // math.gcd(n, int(np.gcd.reduce(pair.ravel())))
    multiples = (np.arange(order)[:, None, None] * pair) % n

    b2 = binom2(n)
    dx, dy = _reduced_dlogs(field, n)
    dw = field.dlog(omega.element) % n
    bdx = (b2 * dx) % n
    quad = np.stack([(bdx * dy) % n, (bdx * dw) % n], axis=1)
    c = np.arange(n)[:, None]
    powers = ((c * c) % n)[..., None] * quad
    powers[..., 1] += c * dx
    powers %= n

    distinct: dict[bytes, np.ndarray] = {}
    for t in (*multiples, *powers):
        distinct.setdefault(t.tobytes(), t)
    gens = tuple(FnTable(field, n, t) for t in distinct.values() if t.any()) or (zero_table(field, n),)
    flat = np.stack([t.flatten() for t in gens])
    sub = modring.canonicalize(ModMatrix(n, flat))
    return gens, sub, modring.structure(sub)
