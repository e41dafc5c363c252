"""Function tables on K \\ {0,1} and the subgroup they generate.

This is the computational heart of the package: the two table-valued maps
attached to a pair of Kummer characters resp. a single character, the
subgroup of Fun(K \\ {0,1}, (Z/n)^2) they generate, and evaluation of formal
commutator/power words into that subgroup.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import modring
from .errors import DimensionError, HypothesisError, ModulusError, check_bound, check_integers
from .finfield import (
    FieldEmbedding,
    FqField,
    KummerCharacter,
    RootOfUnity,
    _factor,
    check_characters,
    embed_field,
    restrict_character,
)
from .modring import AbelianStructure, ModMatrix, SubgroupZnk, binom2


GENERATOR_CELLS_MAX = 2**24  # cells of FfrakGroup.generators (128 MiB as int64)


@dataclass(frozen=True, eq=False)
class FnTable:
    """An element of Fun(K \\ {0,1}, (Z/n)^2) as a dense table."""

    field: FqField
    n: int
    values: np.ndarray  # shape (q-2, 2)

    def __post_init__(self):
        object.__setattr__(self, "n", modring.check_modulus(self.n))
        vals = check_integers(self.values, "table values") % self.n
        if vals.shape != (self.field.q - 2, 2):
            raise DimensionError(f"table shape {vals.shape} does not match field of order {self.field.q}")
        object.__setattr__(self, "values", vals)

    @property
    def points(self) -> tuple[int, ...]:
        return self.field.table_points

    def __add__(self, other: "FnTable") -> "FnTable":
        self._check(other)
        return FnTable(self.field, self.n, self.values + other.values)

    def __sub__(self, other: "FnTable") -> "FnTable":
        self._check(other)
        return FnTable(self.field, self.n, self.values - other.values)

    def scale(self, a: int) -> "FnTable":
        return FnTable(self.field, self.n, a * self.values)

    def is_zero(self) -> bool:
        return not self.values.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FnTable)
            and self.field is other.field
            and self.n == other.n
            and bool(np.array_equal(self.values, other.values))
        )

    def flatten(self) -> np.ndarray:
        """Row-major flattening (a_0, b_0, a_1, b_1, ...) of length 2(q-2)."""
        return self.values.reshape(-1)

    def _check(self, other: "FnTable") -> None:
        if self.field is not other.field or self.n != other.n:
            raise ModulusError("tables live on different fields/moduli")


def zero_table(field: FqField, n: int) -> FnTable:
    return FnTable(field, n, np.zeros((field.q - 2, 2), dtype=np.int64))


def _reduced_dlogs(field: FqField, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The field's point dlogs (x and 1 - x) reduced mod n."""
    dx, dy = field.point_dlogs
    return dx % n, dy % n


def _omega_dlogs(omega: RootOfUnity) -> tuple[np.ndarray, np.ndarray, int]:
    """dlog x and dlog(1 - x) over the table points, and dlog omega, reduced mod n."""
    field, n = omega.field, omega.order
    return (*_reduced_dlogs(field, n), field.dlog(omega.element) % n)


def _columns(col1: np.ndarray, col2: np.ndarray) -> np.ndarray:
    """The two columns side by side, shape (*col1.shape, 2)."""
    out = np.empty(col1.shape + (2,), dtype=np.int64)
    out[..., 0], out[..., 1] = col1, col2
    return out


def _phi_values(fc, gc, dx, dy, dw: int, n: int) -> np.ndarray:
    """The values of phi for the characters with coefficients ``fc``, ``gc``, unreduced.

    ``fc`` and ``gc`` are ints or integer arrays that broadcast against the
    point axis of ``dx``, ``dy`` (shape (m, 1) gives m tables at once); ``dx``,
    ``dy``, ``dw`` are as ``_omega_dlogs`` returns them.  The result has shape
    (..., q-2, 2), one column per component.  Every character value is reduced
    mod n before the products, so the entries lie in (-n^2, n^2).
    """
    fx, fy, fw = fc * dx % n, fc * dy % n, fc * dw % n
    gx, gy, gw = gc * dx % n, gc * dy % n, gc * dw % n
    return _columns(fx * gy - fy * gx, fx * gw - fw * gx)


def _psi_values(fc, dx, dy, dw: int, n: int) -> np.ndarray:
    """The values of psi for the characters with coefficients ``fc``, unreduced.

    Arguments and shape as for ``_phi_values``; the entries lie in [0, n^2).
    """
    fx = fc * dx % n
    bfx = binom2(n) * fx % n
    return _columns(bfx * (fc * dy % n), bfx * (fc * dw % n) + fx)


def phi(f: KummerCharacter, g: KummerCharacter, omega: RootOfUnity) -> FnTable:
    """The table x -> (f(x)g(1-x) - f(1-x)g(x), f(x)g(omega) - f(omega)g(x))."""
    check_characters((f, g), omega.field, omega.order)
    return FnTable(omega.field, omega.order, _phi_values(f.c, g.c, *_omega_dlogs(omega), omega.order))


def psi(f: KummerCharacter, omega: RootOfUnity) -> FnTable:
    """The table x -> (C(n,2) f(x)f(1-x), C(n,2) f(x)f(omega) + f(x))."""
    check_characters((f,), omega.field, omega.order)
    return FnTable(omega.field, omega.order, _psi_values(f.c, *_omega_dlogs(omega), omega.order))


@dataclass(frozen=True)
class FfrakGroup:
    """The subgroup generated by all pair tables and power tables.

    ``power`` is psi(chi, omega) for the generating character chi, which
    spans the group (see ``ffrak_generate``).  A group spanned by one element
    v is cyclic of v's additive order m, the least m >= 1 with m v = 0: the
    map Z -> <v>, c -> c v, is onto, and its kernel is the subgroup of Z
    generated by m.  So ``structure`` is (m,), or () when m = 1, and it
    needs no Howell form; ``subgroup`` builds that form on first read.
    """

    field: FqField
    omega: RootOfUnity
    power: FnTable
    structure: AbelianStructure

    @functools.cached_property
    def subgroup(self) -> SubgroupZnk:
        """The Howell form of the one flattened row psi(chi), of ambient rank 2(q-2)."""
        return modring.canonicalize(ModMatrix(self.omega.order, self.power.flatten()[None, :]))

    @functools.cached_property
    def generators(self) -> tuple[FnTable, ...]:
        """The distinct non-zero tables of the all-pairs loop, in the order it meets them.

        These are c psi(chi) for c = 1, ..., ord - 1, where ord, the order of
        the cyclic group, is the additive order of psi(chi), or the zero table
        alone when ord = 1.  Raises ``DomainError`` before allocating when the
        list would hold more than ``GENERATOR_CELLS_MAX`` cells.
        """
        order = self.structure.order
        cells = (order - 1) * self.power.values.size
        check_bound(cells, GENERATOR_CELLS_MAX, f"cells of the {order - 1} generator tables")
        return tuple(self.power.scale(c) for c in range(1, order)) or (self.power,)


def ffrak_generate(field: FqField, omega: RootOfUnity) -> FfrakGroup:
    """Span of the n^2 pair tables and n power tables over all characters.

    The characters of K^x mod n are the multiples c chi of the generating
    character chi (value 1 on the field's generator), and the span is that of
    the one table psi(chi):

    * phi is bilinear and alternating, so phi(a chi, b chi) = ab phi(chi, chi)
      = 0: every pair table vanishes over a finite field;
    * psi is quadratic, psi(c chi) = c^2 A + c B = c psi(chi) + (c^2 - c) A with
      A(x) = (C(n,2) chi(x) chi(1-x), C(n,2) chi(x) chi(omega)) and
      B(x) = (0, chi(x));
    * c^2 - c is even, and 2A = 0 because n divides 2 C(n,2) = n(n-1).

    So every table is a multiple of psi(chi), and the subgroup is the cyclic
    group it spans, of the additive order ord of v = psi(chi) (see
    ``FfrakGroup``).  The m >= 1 with m v = 0 are the multiples of ord, and
    n is one, so ord divides n.  The descent of ``_additive_order`` keeps m
    a multiple of ord that divides n, starting from m = n, and divides m by
    a prime r of n while (m / r) v is still 0.  It leaves r once m and ord
    have the same power of r, and dividing by the primes after r keeps that
    power.  So at the end the powers agree for every prime of n and m = ord,
    the least such divisor: the exit test, m v = 0 and (m / r) v != 0 for
    every prime r | m, is the defining property of the additive order, and
    no Howell form is needed to check it.

    The all-pairs loop (phi(f, g) for f, g = 0, chi, ..., (n-1) chi, then
    psi(f) for f = 0, chi, ..., (n-1) chi) meets the distinct non-zero
    tables c psi(chi) for c = 1, ..., ord - 1 in this order;
    ``FfrakGroup.generators`` builds that list, and ``FfrakGroup.subgroup``
    the Howell form of the row, on first read.
    """
    if omega.field is not field:
        raise ModulusError("root of unity belongs to a different field")
    power = psi(KummerCharacter(field, field.n, 1), omega)
    m = _additive_order(power.values, omega.order)
    return FfrakGroup(field=field, omega=omega, power=power, structure=AbelianStructure((m,) if m > 1 else ()))


def _additive_order(v: np.ndarray, n: int) -> int:
    """The least m >= 1 with m v = 0 mod n, for entries in [0, n), by the
    descent from m = n over the primes of n that ``ffrak_generate`` proves."""
    m = n
    for r in _factor(n):
        while m % r == 0 and not (m // r * v % n).any():
            m //= r
    return m


# --- formal words ----------------------------------------------------------


@dataclass(frozen=True)
class CommTerm:
    """coeff * (commutator of the pair of characters)."""

    sigma: KummerCharacter
    tau: KummerCharacter
    coeff: int = 1


@dataclass(frozen=True)
class PowTerm:
    """coeff * (n-th power image of the character)."""

    sigma: KummerCharacter
    coeff: int = 1


Term = Union[CommTerm, PowTerm]


@dataclass(frozen=True)
class FormalWord:
    """A formal Z-combination of commutator and power generators."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        chars = [t.sigma for t in self.terms] + [t.tau for t in self.terms if isinstance(t, CommTerm)]
        if chars:
            check_characters(chars, chars[0].field, chars[0].n)

    def restrict(self, emb: FieldEmbedding) -> "FormalWord":
        out: list[Term] = []
        for t in self.terms:
            if isinstance(t, CommTerm):
                out.append(CommTerm(restrict_character(emb, t.sigma), restrict_character(emb, t.tau), t.coeff))
            else:
                out.append(PowTerm(restrict_character(emb, t.sigma), t.coeff))
        return FormalWord(tuple(out))


def omega_eval(word: FormalWord, omega: RootOfUnity) -> FnTable:
    """Evaluate a formal word to its function table."""
    acc = zero_table(omega.field, omega.order)
    for t in word.terms:
        if isinstance(t, CommTerm):
            acc = acc + phi(t.sigma, t.tau, omega).scale(t.coeff)
        else:
            acc = acc + psi(t.sigma, omega).scale(t.coeff)
    return acc


# --- functoriality ---------------------------------------------------------


def compatible_omega(emb: FieldEmbedding, omega_l: RootOfUnity) -> RootOfUnity:
    """The root of unity of the subfield matching omega_l under the embedding."""
    elt = emb.preimage(omega_l.element)
    return RootOfUnity(field=emb.sub, element=elt, order=omega_l.order)


def restriction_check(
    sup: FqField,
    sub: FqField,
    words: Sequence[FormalWord],
    omega_l: RootOfUnity,
    omega_k: RootOfUnity | None = None,
) -> bool:
    """Check that table restriction commutes with character restriction.

    For each word: evaluating over the big field and restricting the table to
    the points of the subfield must agree with evaluating the character-wise
    restricted word over the subfield.  The two roots of unity must correspond
    under the embedding; ``omega_k`` defaults to the preimage of ``omega_l``.
    """
    if omega_l.field is not sup:
        raise ModulusError("omega_l must live in the big field")
    emb = embed_field(sub, sup)
    derived = compatible_omega(emb, omega_l)
    if omega_k is None:
        omega_k = derived
    elif omega_k.element != derived.element or omega_k.order != derived.order:
        raise HypothesisError("omega of the subfield is not the preimage of omega of the big field")

    # The row of the big table at the image of each subfield point.
    index_l = {x: i for i, x in enumerate(sup.table_points)}
    rows = np.array([index_l[emb(x)] for x in sub.table_points], dtype=np.intp)
    for word in words:
        big = omega_eval(word, omega_l)
        small = omega_eval(word.restrict(emb), omega_k)
        if not np.array_equal(big.values[rows], small.values):
            return False
    return True


# --- span of the standard kernel classes (rank-1 field case) ---------------


def kernel_class_span(field: FqField, omega: RootOfUnity) -> SubgroupZnk:
    """Span in H^2 of the rank-1 character lattice of the standard classes.

    For a finite field the character group of K^x mod n is cyclic, so H^2 of
    it is cyclic of order n with the Bockstein of the dual generator as basis.
    The two class families attached to each x in K \\ {0,1} reduce, in that
    basis, to the two columns of psi(chi, omega) for the generating character
    chi: C(n,2) chi(x) chi(1-x) for the x-class cup the (1-x)-class, and
    C(n,2) chi(x) chi(omega) + chi(x) for the x-class cup the omega-class plus
    the Bockstein of the x-class.  The span should be everything.
    """
    n = omega.order
    coeffs = np.unique(psi(KummerCharacter(field, n, 1), omega).values)
    return modring.canonicalize(ModMatrix(n, coeffs[:, None]))
