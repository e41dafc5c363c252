"""The computations the library once made itself, kept as test-side
oracles: irreducibility by ``gf_irreducible_p``, the generator search by
``gf_pow_mod`` on galoistools lists, invariant factors from the Smith form of
a subgroup's relation lattice, and the Howell transpose rounds run on the
full width of the canonical rows."""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

import numpy as np
from sympy import ZZ, primefactors
from sympy.polys.galoistools import gf_irreducible_p, gf_pow_mod, gf_strip
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from abelcentral import modring
from abelcentral.errors import TheoremViolationError
from abelcentral.modring import AbelianStructure, SubgroupZnk, _left_kernel


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Whether a monic polynomial over F_p (constant term first) is irreducible."""
    return len(poly) > 1 and poly[-1] == 1 and gf_irreducible_p([c % p for c in reversed(poly)], p, ZZ)


def first_irreducible(p: int, k: int) -> tuple[int, ...]:
    """The monic irreducible of degree k whose low coefficients, read in base p, are least."""
    for code in range(p**k):
        cand = [code // p**i % p for i in range(k)] + [1]
        if is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError(f"no irreducible polynomial of degree {k} over F_{p}")


def generator(p: int, k: int, poly: Optional[tuple[int, ...]]) -> int:
    """The smallest element of F_{p^k}, k >= 2, of order q - 1, by powers mod poly."""
    q = p**k
    factors = primefactors(q - 1)
    modulus = list(reversed(poly))  # galoistools lists run from the top coefficient
    for g in range(2, q):
        g_poly = gf_strip([g // p**i % p for i in reversed(range(k))])
        if all(gf_pow_mod(g_poly, (q - 1) // r, modulus, p, ZZ) != [1] for r in factors):
            return g
    raise AssertionError("no multiplicative generator found")


def structure(s: SubgroupZnk) -> tuple[int, ...]:
    """Invariant factors of the subgroup: the Smith form (over Z) of the
    relation lattice of its canonical generators, which contains n*Z^r."""
    basis = s.canonical.entries
    rel = np.vstack([_left_kernel(basis, s.modulus), s.modulus * np.eye(basis.shape[0], dtype=np.int64)])
    factors = invariant_factors(DomainMatrix.from_list(rel.tolist(), ZZ))
    return tuple(int(d) for d in factors if d > 1)


def full_width_structure(s: SubgroupZnk) -> AbelianStructure:
    """Invariant factors by Howell rounds on the whole canonical form, as
    ``modring.structure`` computed them before it cut the form down to its
    pivot columns: the rows, then their transpose (2(q-2) x r on the table
    group), and so on until every row and column has one nonzero entry."""
    n, a = s.modulus, s.canonical.entries
    order = math.prod(n // int(row[row != 0][0]) for row in a)
    nonzero = a != 0
    while (nonzero.sum(axis=0) > 1).any() or (nonzero.sum(axis=1) > 1).any():
        a = modring._howell(a.T, n)
        nonzero = a != 0
    factors = sorted(n // math.gcd(int(d), n) for d in a[nonzero])
    for i, j in itertools.combinations(range(len(factors)), 2):
        g = math.gcd(factors[i], factors[j])
        factors[i], factors[j] = g, factors[i] * factors[j] // g
    if math.prod(factors) != order:
        raise TheoremViolationError(f"invariant factors {factors} do not multiply to the order {order}")
    return AbelianStructure(tuple(d for d in factors if d > 1))
