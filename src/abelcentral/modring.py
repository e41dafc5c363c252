"""Linear algebra over Z/n.

The canonical form used throughout is the Howell row form, which (unlike
plain echelon form over a non-field ring) supports exact span membership:
every element of the row module whose leading nonzero entry sits in column
>= j lies in the span of the canonical rows with pivot column >= j.  It is
computed a column at a time (Howell 1986; Storjohann and Mulders 1998).

Conventions making canonical forms byte-comparable:

* pivot entries are the minimal positive generator of the pivot ideal,
  i.e. a divisor of n;
* entries above a pivot d are reduced into [0, d);
* rows are sorted by pivot column ascending.

Everything is numpy on int64 entries and rests on the one Howell routine;
``structure`` too reads its invariant factors off Howell forms, of the rows
and the columns of the pivot block in turn.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, DomainError, ModulusError, TheoremViolationError, check_integer, check_integers

MAX_MODULUS = 2**31 - 1
HOWELL_CHUNK_CELLS = 1 << 14  # cells per block of a Howell step's one subtraction


def check_modulus(n) -> int:
    """``n`` as a Python int (through ``check_integer``), or ModulusError
    unless 2 <= n <= ``MAX_MODULUS``, so that a reduction mod n stays in
    int64 and never divides by zero."""
    n = check_integer(n, "modulus")
    if not 2 <= n <= MAX_MODULUS:
        raise ModulusError(f"modulus must be >= 2 and <= 2^31-1, got {n}")
    return n


def binom2(n: int) -> int:
    """n*(n-1)/2 reduced mod n (the coefficient in the power formulas)."""
    n = check_modulus(n)
    return n * (n - 1) // 2 % n


@dataclass(frozen=True)
class ModMatrix:
    """Dense matrix over Z/n; entries stored reduced in a numpy array."""

    modulus: int
    entries: np.ndarray  # shape (rows, cols), dtype int64

    def __post_init__(self):
        modulus = check_modulus(self.modulus)
        object.__setattr__(self, "modulus", modulus)
        arr = check_integers(self.entries, "matrix entries") % modulus
        if arr.ndim != 2:
            raise DimensionError("matrix entries must be 2-dimensional")
        object.__setattr__(self, "entries", arr)

    @classmethod
    def _wrap(cls, modulus: int, entries: np.ndarray) -> "ModMatrix":
        """A ModMatrix holding ``entries`` as they are: a fresh 2-D int64 array
        already reduced into [0, modulus), such as ``_howell`` returns.  The
        public constructor would reduce it into a second copy."""
        mat = object.__new__(cls)
        object.__setattr__(mat, "modulus", modulus)
        object.__setattr__(mat, "entries", entries)
        return mat

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], modulus: int, cols: Optional[int] = None) -> "ModMatrix":
        """The matrix of ``rows``; with no rows, of ``cols`` columns, in
        [0, 2^60), the most numpy gives an int64 array (else DomainError)."""
        if len(rows) == 0:
            if cols is None:
                raise DimensionError("column count required for an empty matrix")
            cols = check_integer(cols, "column count", 2**60)
            return cls(modulus, np.zeros((0, cols), dtype=np.int64))
        return cls(modulus, rows)

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
        facs = tuple(check_integer(d, "invariant factor") for d in self.invariant_factors)
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise DomainError(f"invariant factors must form a divisibility chain: {facs}")
        if any(d < 2 for d in facs):
            raise DomainError(f"invariant factors must be >= 2: {facs}")
        object.__setattr__(self, "invariant_factors", facs)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors) if self.invariant_factors else 1


def row_blocks(count: int, width: int, cells: int) -> list[slice]:
    """Consecutive slices covering range(count) once, in order, each of at
    most max(1, cells // width) rows: the row blocks of at most ``cells``
    cells (or of one row) in which a count x width pass is computed."""
    step = cells // width or 1
    if 0 < count <= step:  # the common case, without the comprehension's call
        return [slice(0, count)]
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _gcdex(a: int, b: int) -> tuple[int, int, int]:
    """g, s, t with s*a + t*b = g = gcd(a, b), for positive a and b."""
    g = math.gcd(a, b)
    s = pow(a // g, -1, b // g)
    return g, s, (g - s * a) // b


def _unit_scale(a: int, n: int) -> int:
    """A unit u mod n with u*a = gcd(a, n) mod n, for a in [1, n)."""
    d = math.gcd(a, n)
    # a/d is invertible mod n/d; lift its inverse to a unit mod n.
    u = pow(a // d, -1, n // d)
    while math.gcd(u, n) != 1:
        u += n // d
    return u % n


def _howell(entries: np.ndarray, n: int) -> np.ndarray:
    """The normalized Howell rows of ``entries`` mod n, sorted by pivot column.

    Rows [0, top) are done.  Each step takes the leftmost column j nonzero
    below them and d = gcd(column j, n).  A row whose entry c has
    gcd(c, n) = d, else unimodular gcd steps along rows until the gcd reaches
    d, and a unit give a pivot row p with p[j] = d, moved to row top.  Every
    other row x loses (x[j] // d) * p mod n: column j becomes zero below p
    and falls into [0, d) above it.  If d > 1, (n/d) * p joins the rows below.
    The subtraction runs over row blocks of about ``HOWELL_CHUNK_CELLS``
    cells.  On a wide matrix, with more than four times as many columns left
    as rows, where under a quarter of the rows have x[j] // d nonzero (the
    [mat | I] of ``_left_kernel``, mat = A^T for ``nullspace`` and
    [-b^T; A^T] for ``solve_linear``), it gathers just those.

    Exactness: the rows still span the module M.  An x in M that is zero in
    column j is k*p plus a combination of the rows below, with k*d = 0 mod n,
    so k*p is a multiple of (n/d) * p.  The rows below p therefore span the
    x in M that are zero up to column j, which is the Howell property; with
    pivots dividing n and the entries above them reduced, the form is unique.
    """
    a = np.asarray(entries, dtype=np.int64) % n
    (end, cols), top, j = a.shape, 0, 0
    while top < end and j < cols:
        vals = a[top:end, j].tolist()
        if not any(vals):
            live = np.flatnonzero(a[top:end, j:].any(axis=0))
            if not live.size:
                break
            j += int(live[0])
            vals = a[top:end, j].tolist()
        d, ideals = math.gcd(n, *vals), [math.gcd(c, n) for c in vals]
        src = top + ideals.index(min(ideals))
        c, pivot = vals[src - top], a[src, j:]
        for i, b in enumerate(vals, top):
            if math.gcd(c, n) == d:
                break
            if math.gcd(c, b, n) < math.gcd(c, n):
                g, s, t = _gcdex(c, b)
                row = a[i, j:]
                pivot[:], row[:] = (s % n * pivot + t % n * row) % n, ((c // g) * row - (b // g) * pivot) % n
                c = g
        if (u := _unit_scale(c, n)) != 1:
            pivot *= u
            pivot %= n
        if src != top:
            a[top, j:], a[src, j:] = pivot, a[top, j:].copy()
        pivot = a[top, j:]
        q = a[:end, j].copy() if d == 1 else a[:end, j] // d
        q[top] = 0
        if cols - j > 4 * end and 4 * np.count_nonzero(q) < end:
            changed = np.flatnonzero(q)
            for block in row_blocks(changed.size, cols - j, HOWELL_CHUNK_CELLS):
                rows = changed[block]
                a[rows, j:] = (a[rows, j:] - q[rows, None] * pivot) % n
        else:
            blocks = row_blocks(end, cols - j, HOWELL_CHUNK_CELLS)
            for rows in blocks:
                if len(blocks) == 1 or q[rows].any():
                    block = a[rows, j:]
                    block -= q[rows, None] * pivot
                    block %= n
        if d > 1:
            ann = pivot * (n // d)
            ann %= n
            if ann.any():
                if end == a.shape[0]:
                    a, end = _free_row(a, top + 1, end, j)
                a[end, j:] = ann
                end += 1
        top, j = top + 1, j + 1
    return a[:top]


def _free_row(a: np.ndarray, lo: int, end: int, j: int) -> tuple[np.ndarray, int]:
    """Room for a row at ``end``: the zero rows of a[lo:end] give way, else a grows by half."""
    live = a[lo:end, j + 1 :].any(axis=1)
    keep = lo + int(live.sum())
    if keep == end:
        grown = np.zeros((end + end // 2 + 1, a.shape[1]), dtype=np.int64)
        grown[:end] = a
        return grown, end
    a[np.flatnonzero(~live[: keep - lo]) + lo] = a[np.flatnonzero(live[keep - lo :]) + keep]
    a[keep:end] = 0
    return a, keep


def howell_form(mat: ModMatrix) -> ModMatrix:
    """Canonical Howell row form spanning the same row module as ``mat``."""
    h = _howell(mat.entries, mat.modulus)
    if h.base is not None and h.base.size > h.size:
        h = h.copy()  # the rows of the form, without the rest of the working array
    return ModMatrix._wrap(mat.modulus, h)


def canonicalize(gens: ModMatrix) -> SubgroupZnk:
    """Subgroup of (Z/n)^k spanned by the rows of ``gens``."""
    return SubgroupZnk(modulus=gens.modulus, ambient_rank=gens.cols, canonical=howell_form(gens))


def _pivot_columns(canonical: np.ndarray) -> np.ndarray:
    """The column of each canonical Howell row's pivot, its first nonzero entry."""
    if not canonical.size:  # argmax has no answer on zero columns
        return np.zeros(canonical.shape[0], dtype=np.intp)
    return (canonical != 0).argmax(axis=1)


def _reduce_against(canonical: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The remainder of v reduced by canonical Howell rows; zero iff v is in their span."""
    v = v % n
    for row, j in zip(canonical, _pivot_columns(canonical).tolist()):
        d, val = int(row[j]), int(v[j])
        if val % d:
            return v
        if val:
            v = (v - (val // d) * row) % n
    return v


def membership(s: SubgroupZnk, v: Sequence[int]) -> bool:
    """True iff v lies in the span of the subgroup's generators mod n."""
    vec = check_integers(v, "vector entries")
    if vec.shape != (s.ambient_rank,):
        raise DimensionError(f"vector length {vec.shape} != ambient rank {s.ambient_rank}")
    return not _reduce_against(s.canonical.entries, vec, s.modulus).any()


def _left_kernel(mat: np.ndarray, n: int, keep: Optional[int] = None) -> np.ndarray:
    """The last ``keep`` entries (default: all) of the rows x with x @ mat = 0
    mod n, as a Howell basis of shape (*, keep).

    It is read off the Howell form of [mat | J], J the last ``keep`` columns
    of the identity.  Its row module is {(x @ mat, x_tail)}; by the Howell
    property the form's rows that vanish on the left block span the elements
    that do, {0} x {x_tail : x @ mat = 0}, and being sorted, reduced above
    their pivots and with the Howell property themselves, they are the
    unique Howell form of that projection.
    """
    r = mat.shape[0]
    keep = r if keep is None else keep
    h = _howell(np.hstack([mat, np.eye(r, keep, keep - r, dtype=np.int64)]), n)
    return h[~h[:, : mat.shape[1]].any(axis=1), mat.shape[1]:]


def nullspace(mat: ModMatrix) -> ModMatrix:
    """Howell basis of {x : mat @ x = 0 mod n} (rows are kernel vectors)."""
    return ModMatrix._wrap(mat.modulus, _left_kernel(mat.entries.T, mat.modulus))


def structure(s: SubgroupZnk) -> AbelianStructure:
    """Invariant factors of the subgroup as a finite abelian group.

    The r canonical rows H are first cut down to their pivot columns, an
    r x r upper triangular block B with the pivots on its diagonal; the
    order of the subgroup is the product of n / pivot.  B keeps the group,
    since projecting onto the pivot columns is injective on the row module M
    of a Howell form.  Suppose x in M is nonzero and vanishes on every pivot
    column, and let j be its first nonzero column.  Then j is not a pivot
    column, and by the Howell property x lies in the span of the rows whose
    pivot column is > j.  All of those rows are 0 at column j, so x[j] = 0, a
    contradiction.  So M is isomorphic to the row module of B.

    The rows of B are then replaced by the Howell rows of their transpose
    until every row and every column has at most one nonzero entry d; each
    such row spans a cyclic factor of order n / gcd(d, n).  Exactness: a
    Howell step keeps the row module, and the row and column modules of a
    matrix over Z/n are isomorphic (both are those of its Smith form).  Ending:
    the first pivot d of a Howell form is the only nonzero entry of its
    column, so the transposed form's first pivot is the gcd of d's row.  Either
    that ideal is larger, or d divides its row, which is then cleared along
    with d's column, and the rounds go on in the rows and columns after it.
    Z/n has finitely many ideals, so the rounds end.  The factors are then
    put into a divisibility chain by pairwise gcd/lcm, and their product
    must be the order of the subgroup.
    """
    n, h = s.modulus, s.canonical.entries
    a = h[:, _pivot_columns(h)]
    order = math.prod(n // d for d in np.diagonal(a).tolist())
    nonzero = a != 0
    while (nonzero.sum(axis=0) > 1).any() or (nonzero.sum(axis=1) > 1).any():
        a = _howell(a.T, n)
        nonzero = a != 0
    factors = sorted(n // math.gcd(int(d), n) for d in a[nonzero])
    for i, j in itertools.combinations(range(len(factors)), 2):
        g = math.gcd(factors[i], factors[j])
        factors[i], factors[j] = g, factors[i] * factors[j] // g
    if math.prod(factors) != order:
        raise TheoremViolationError(f"invariant factors {factors} do not multiply to the order {order}")
    return AbelianStructure(tuple(d for d in factors if d > 1))


def solve_linear(a: ModMatrix, b: Sequence[int]) -> Optional[np.ndarray]:
    """The canonical x with a @ x = b mod n, or None when no solution exists.

    ``b`` is a vector of ``a.rows`` entries, or an (a.rows, k) array of k
    right-hand sides; then x is (a.cols, k), column i solving column i of b,
    and None means that some column has no solution.  A vector is the case
    k = 1.  The pairs (c, x) with a @ x = b @ c are the left kernel of
    [-b^T; a^T] (``_left_kernel``), and every column is solvable iff that
    kernel's Howell form starts with k rows [I_k | X]: the c-coordinates
    then reach each e_i, so by the Howell property each of the first k
    columns has pivot 1.  Row i of X solves column i.  It is reduced against
    the rows after those k, the Howell rows of ker a, so x does not depend
    on the order of the equations or on the other columns.  Any returned
    solution is re-verified by substitution; a solution that fails it raises
    ``TheoremViolationError`` rather than reading as None.
    """
    rhs = check_integers(b, "right-hand side entries") % a.modulus
    if rhs.ndim not in (1, 2) or rhs.shape[0] != a.rows:
        raise DimensionError(f"rhs shape {rhs.shape} does not start with the row count {a.rows}")
    k = rhs.shape[1] if rhs.ndim == 2 else 1
    h = _left_kernel(np.vstack([-rhs.reshape(a.rows, k).T, a.entries.T]), a.modulus)
    if not np.array_equal(h[:k, :k], np.eye(k, dtype=np.int64)):
        return None
    x = h[:k, k:].T.reshape((a.cols,) + rhs.shape[1:])
    if not np.array_equal(_matvec(a.entries, x, a.modulus), rhs):
        raise TheoremViolationError("solution fails substitution")
    return x


def _matvec(mat: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """mat @ x mod n for entries in [0, n), without int64 overflow; x is a
    vector or a matrix.

    One matmul while its sums of products stay below 2^63; above that, one
    column of mat at a time, reduced after each step (each step stays below
    n^2 + n).
    """
    if (n - 1) ** 2 * mat.shape[1] < 2**63:
        return (mat @ x) % n
    cols = mat.reshape(mat.shape + (1,) * (x.ndim - 1))  # column j times row j of a matrix x
    acc = np.zeros(mat.shape[:1] + x.shape[1:], dtype=np.int64)
    for j in range(mat.shape[1]):
        acc = (acc + cols[:, j] * x[j]) % n
    return acc
