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
from .errors import DomainError, HypothesisError, ModulusError
from .finfield import (
    FieldEmbedding,
    FqField,
    KummerCharacter,
    RootOfUnity,
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
        vals = np.asarray(self.values, dtype=np.int64) % self.n
        if vals.shape != (self.field.q - 2, 2):
            raise ModulusError(f"table shape {vals.shape} does not match field of order {self.field.q}")
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


def _check_inputs(omega: RootOfUnity, *chars: KummerCharacter) -> None:
    field = omega.field
    for f in chars:
        if f.field is not field:
            raise ModulusError("character defined over a different field")
        if f.n != omega.order:
            raise ModulusError("character modulus differs from the root-of-unity order")


def _reduced_dlogs(field: FqField, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The field's point dlogs (x and 1 - x) reduced mod n."""
    dx, dy = field.point_dlogs
    return dx % n, dy % n


def phi(f: KummerCharacter, g: KummerCharacter, omega: RootOfUnity) -> FnTable:
    """The table x -> (f(x)g(1-x) - f(1-x)g(x), f(x)g(omega) - f(omega)g(x))."""
    _check_inputs(omega, f, g)
    field, n = omega.field, omega.order
    dx, dy = _reduced_dlogs(field, n)
    dw = field.dlog(omega.element) % n
    fx, fy, fw = (f.c * dx) % n, (f.c * dy) % n, (f.c * dw) % n
    gx, gy, gw = (g.c * dx) % n, (g.c * dy) % n, (g.c * dw) % n
    col1 = fx * gy - fy * gx
    col2 = fx * gw - fw * gx
    return FnTable(field, n, np.stack([col1, col2], axis=1))


def psi(f: KummerCharacter, omega: RootOfUnity) -> FnTable:
    """The table x -> (C(n,2) f(x)f(1-x), C(n,2) f(x)f(omega) + f(x))."""
    _check_inputs(omega, f)
    field, n = omega.field, omega.order
    b2 = binom2(n)
    dx, dy = _reduced_dlogs(field, n)
    fx, fy = (f.c * dx) % n, (f.c * dy) % n
    fw = (f.c * (field.dlog(omega.element) % n)) % n
    bfx = (b2 * fx) % n
    col1 = bfx * fy
    col2 = bfx * fw + fx
    return FnTable(field, n, np.stack([col1, col2], axis=1))


@dataclass(frozen=True)
class FfrakGroup:
    """The subgroup generated by all pair tables and power tables.

    ``power`` is psi(chi, omega) for the generating character chi, which
    spans the group (see ``ffrak_generate``).
    """

    field: FqField
    omega: RootOfUnity
    power: FnTable
    subgroup: SubgroupZnk  # flattened, ambient rank 2(q-2)
    structure: AbelianStructure

    @functools.cached_property
    def generators(self) -> tuple[FnTable, ...]:
        """The distinct non-zero tables of the all-pairs loop, in the order it meets them.

        These are c psi(chi) for c = 1, ..., ord - 1, where ord, the order of
        the cyclic group, is the additive order n / gcd(n, entries) of
        psi(chi), or the zero table alone when ord = 1.  Raises
        ``DomainError`` before allocating when the list would hold more than
        ``GENERATOR_CELLS_MAX`` cells.
        """
        order = self.structure.order
        cells = (order - 1) * self.power.values.size
        if cells > GENERATOR_CELLS_MAX:
            raise DomainError(
                f"the {order - 1} generator tables hold {cells} cells ({8 * cells} bytes as int64), "
                f"above the bound GENERATOR_CELLS_MAX = {GENERATOR_CELLS_MAX}"
            )
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

    So every table is a multiple of psi(chi), and the subgroup is the Howell
    form of its one flattened row.  The all-pairs loop (phi(f, g) for f, g =
    0, chi, ..., (n-1) chi, then psi(f) for f = 0, chi, ..., (n-1) chi) meets
    the distinct non-zero tables c psi(chi) for c = 1, ..., ord - 1 in this
    order, where ord = n / gcd(n, entries of psi(chi)) is the additive order;
    ``FfrakGroup.generators`` builds that list on first read.
    """
    if omega.field is not field:
        raise ModulusError("root of unity belongs to a different field")
    n = omega.order
    if (field.q - 1) % n != 0:
        raise HypothesisError(f"mu_{n} not contained in F_{field.q}")
    power = psi(KummerCharacter(field, field.n, 1), omega)
    sub = modring.canonicalize(ModMatrix(n, power.flatten()[None, :]))
    return FfrakGroup(field=field, omega=omega, power=power, subgroup=sub, structure=modring.structure(sub))


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
        mods = {t.sigma.n for t in self.terms}
        fields = {id(t.sigma.field) for t in self.terms}
        for t in self.terms:
            if isinstance(t, CommTerm):
                mods.add(t.tau.n)
                fields.add(id(t.tau.field))
        if len(mods) > 1 or len(fields) > 1:
            raise ModulusError("all characters in a word must share field and modulus")

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

    pts_l = sup.table_points
    index_l = {x: i for i, x in enumerate(pts_l)}
    pts_k = sub.table_points
    for word in words:
        big = omega_eval(word, omega_l)
        small = omega_eval(word.restrict(emb), omega_k)
        restricted = np.stack([big.values[index_l[emb(x)]] for x in pts_k])
        if not np.array_equal(restricted, small.values):
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
