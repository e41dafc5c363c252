"""Linear algebra over Z/n.

The canonical form used throughout is the Howell row form, which (unlike
plain echelon form over a non-field ring) supports exact span membership:
every element of the row module whose leading nonzero entry sits in column
>= j lies in the span of the canonical rows with pivot column >= j.

Conventions making canonical forms byte-comparable:

* pivot entries are the minimal positive generator of the pivot ideal,
  i.e. a divisor of n;
* entries above a pivot d are reduced into [0, d);
* rows are sorted by pivot column ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from .errors import DimensionError, ModulusError, TheoremViolationError

MAX_MODULUS = 2**31 - 1


def binom2(n: int) -> int:
    """n*(n-1)/2 reduced mod n (the coefficient in the power formulas)."""
    if n < 2:
        raise ModulusError(f"modulus must be >= 2, got {n}")
    return n * (n - 1) // 2 % n


@dataclass(frozen=True)
class ModMatrix:
    """Dense matrix over Z/n; entries stored reduced in a numpy array."""

    modulus: int
    entries: np.ndarray  # shape (rows, cols), dtype int64

    def __post_init__(self):
        if self.modulus < 2 or self.modulus > MAX_MODULUS:
            raise ModulusError(f"modulus must be in [2, 2^31-1], got {self.modulus}")
        arr = np.asarray(self.entries, dtype=np.int64) % self.modulus
        if arr.ndim != 2:
            raise DimensionError("matrix entries must be 2-dimensional")
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], modulus: int, cols: Optional[int] = None) -> "ModMatrix":
        if len(rows) == 0:
            if cols is None:
                raise DimensionError("column count required for an empty matrix")
            return cls(modulus, np.zeros((0, cols), dtype=np.int64))
        return cls(modulus, np.array(rows, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, ModMatrix)
            and self.modulus == other.modulus
            and self.entries.shape == other.entries.shape
            and bool(np.array_equal(self.entries, other.entries))
        )


@dataclass(frozen=True)
class SubgroupZnk:
    """A subgroup of (Z/n)^k given by its Howell canonical form."""

    modulus: int
    ambient_rank: int
    canonical: ModMatrix


@dataclass(frozen=True)
class AbelianStructure:
    """Invariant factors d_1 | d_2 | ... | d_r of a finite abelian group."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        facs = tuple(int(d) for d in self.invariant_factors)
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must form a divisibility chain: {facs}")
        if any(d < 2 for d in facs):
            raise ValueError(f"invariant factors must be >= 2: {facs}")
        object.__setattr__(self, "invariant_factors", facs)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors) if self.invariant_factors else 1


def _gcdex(a: int, b: int) -> tuple[int, int, int]:
    """g, s, t with s*a + t*b = g = gcd(a, b), computed over Z."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _unit_scale(a: int, n: int) -> tuple[int, int]:
    """(d, u) with d = gcd(a, n) and u a unit mod n such that u*a = d mod n."""
    a %= n
    d = math.gcd(a, n)
    if a == d:
        return d, 1
    e, f = a // d, n // d
    # gcd(e, f) = 1, so e is invertible mod f; lift the inverse to a unit mod n.
    u0 = pow(e, -1, f)
    u = u0
    while math.gcd(u, n) != 1:
        u += f
    return d, u % n


def _first_nonzero(v: np.ndarray) -> int:
    nz = np.flatnonzero(v)
    return int(nz[0]) if nz.size else -1


def _howell_basis(rows, n: int) -> dict[int, np.ndarray]:
    """Howell basis as a map pivot column -> row, not yet normalized."""
    basis: dict[int, np.ndarray] = {}
    stack = [np.asarray(r, dtype=np.int64) % n for r in rows]
    stack = [r for r in stack if r.any()]

    def push_annihilator(row: np.ndarray, j: int) -> None:
        a = n // math.gcd(int(row[j]), n)
        if a % n:
            ann = (a * row) % n
            if ann.any():
                stack.append(ann)

    while stack:
        v = stack.pop()
        while True:
            j = _first_nonzero(v)
            if j < 0:
                break
            if j not in basis:
                basis[j] = v
                push_annihilator(v, j)
                break
            w = basis[j]
            a, b = int(w[j]), int(v[j])
            g, s, t = _gcdex(a, b)
            u, vv = -(b // g), a // g
            new_w = (s * w + t * v) % n
            new_v = (u * w + vv * v) % n
            if int(new_w[j]) != a:
                # Pivot ideal grew; its annihilator row may be new.
                push_annihilator(new_w, j)
            basis[j] = new_w
            v = new_v
    return basis


def _howell(entries: np.ndarray, n: int) -> np.ndarray:
    """The normalized Howell rows of ``entries`` mod n as one (r, cols) array.

    Each row is scaled by a unit so that its pivot divides n, the entries
    above each pivot d are reduced into [0, d), and rows are sorted by pivot
    column.
    """
    basis = _howell_basis(entries, n)
    pivots = sorted(basis)
    h = np.zeros((len(pivots), entries.shape[1]), dtype=np.int64)
    for i, j in enumerate(pivots):
        _, u = _unit_scale(int(basis[j][j]), n)
        h[i] = (u * basis[j]) % n
    for i, j in enumerate(pivots):
        h[:i] = (h[:i] - (h[:i, j] // h[i, j])[:, None] * h[i]) % n
    return h


def howell_form(mat: ModMatrix) -> ModMatrix:
    """Canonical Howell row form spanning the same row module as ``mat``."""
    return ModMatrix(mat.modulus, _howell(mat.entries, mat.modulus))


def canonicalize(gens: ModMatrix) -> SubgroupZnk:
    """Subgroup of (Z/n)^k spanned by the rows of ``gens``."""
    return SubgroupZnk(modulus=gens.modulus, ambient_rank=gens.cols, canonical=howell_form(gens))


def _reduce_against(canonical: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The remainder of v reduced by canonical Howell rows; zero iff v is in their span."""
    v = v % n
    for row in canonical:
        j = _first_nonzero(row)
        d, val = int(row[j]), int(v[j])
        if val % d:
            return v
        if val:
            v = (v - (val // d) * row) % n
    return v


def membership(s: SubgroupZnk, v: Sequence[int]) -> bool:
    """True iff v lies in the span of the subgroup's generators mod n."""
    vec = np.asarray(v, dtype=np.int64)
    if vec.shape != (s.ambient_rank,):
        raise DimensionError(f"vector length {vec.shape} != ambient rank {s.ambient_rank}")
    return not _reduce_against(s.canonical.entries, vec, s.modulus).any()


def _left_kernel(mat: np.ndarray, n: int) -> np.ndarray:
    """Rows x with x @ mat = 0 mod n, as a Howell basis (shape (*, mat.rows))."""
    h = _howell(np.hstack([mat, np.eye(mat.shape[0], dtype=np.int64)]), n)
    return h[~h[:, : mat.shape[1]].any(axis=1), mat.shape[1]:]


def nullspace(mat: ModMatrix) -> ModMatrix:
    """Howell basis of {x : mat @ x = 0 mod n} (rows are kernel vectors)."""
    return ModMatrix(mat.modulus, _left_kernel(mat.entries.T, mat.modulus))


def structure(s: SubgroupZnk) -> AbelianStructure:
    """Invariant factors of the subgroup as a finite abelian group.

    Computed from the Smith normal form (over Z) of the relation lattice of
    the canonical generators, which contains n*Z^r.
    """
    basis = s.canonical.entries
    rel = np.vstack([_left_kernel(basis, s.modulus), s.modulus * np.eye(basis.shape[0], dtype=np.int64)])
    factors = invariant_factors(DomainMatrix.from_list(rel.tolist(), ZZ))
    return AbelianStructure(tuple(d for d in factors if d > 1))


def solve_linear(a: ModMatrix, b: Sequence[int]) -> Optional[np.ndarray]:
    """Some x with a @ x = b mod n, or None when no solution exists.

    Any returned solution is re-verified by substitution; a solution that
    fails it raises ``TheoremViolationError`` rather than reading as None.
    """
    vec = np.asarray(b, dtype=np.int64) % a.modulus
    if vec.shape != (a.rows,):
        raise DimensionError(f"rhs length {vec.shape} != row count {a.rows}")
    n, r = a.modulus, a.rows
    # b is in the column span of a iff b^T is in the row span of a^T; the
    # right block of the augmented Howell form tracks the combination, so
    # reducing (b, 0) by the rows that reach the left block leaves (0, -x).
    h = _howell(np.hstack([a.entries.T, np.eye(a.cols, dtype=np.int64)]), n)
    v = _reduce_against(h[h[:, :r].any(axis=1)], np.concatenate([vec, np.zeros(a.cols, dtype=np.int64)]), n)
    if v[:r].any():
        return None
    x = (-v[r:]) % n
    if not np.array_equal(_matvec(a.entries, x, n), vec):
        raise TheoremViolationError("solution fails substitution")
    return x


def _matvec(mat: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """mat @ x mod n for entries in [0, n), without int64 overflow.

    One matmul while its sums of products stay below 2^63; above that, one
    column at a time, reduced after each step (each step stays below n^2 + n).
    """
    if (n - 1) ** 2 * mat.shape[1] < 2**63:
        return (mat @ x) % n
    acc = np.zeros(mat.shape[0], dtype=np.int64)
    for j in range(mat.shape[1]):
        acc = (acc + mat[:, j] * x[j]) % n
    return acc
