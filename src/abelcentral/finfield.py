"""Finite fields F_q with discrete logs, roots of unity and Kummer characters.

Elements of F_{p^k} are encoded as integers in [0, q): the encoding of
sum c_i X^i is sum c_i p^i, so prime-field elements are just themselves.
Every field holds full exp/dlog tables, so a product, a power, an inverse
and a discrete log are each a lookup; sums are formed digit by digit.
Prime fields need nothing but Python ints: p is tested by trial division and
the generator by ``pow``.  Extension fields compute on the k x k "times a"
matrices over F_p that also build the tables: Rabin's irreducibility test on
the Frobenius matrix, and generator orders by matrix powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from . import modring
from .errors import DomainError, HypothesisError, ModulusError, TheoremViolationError
from .errors import check_bound, check_integer, check_integers

FIELD_MAX = 2**20  # every field holds its full exp/dlog tables

Elements = int | np.ndarray  # one field element or an array of them


def _factor(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _times(a: np.ndarray, poly: Optional[Sequence[int]], p: int) -> np.ndarray:
    """The matrices of "times a" on coefficient rows: row j of the (..., k, k)
    result is X^j a mod poly, for a batch a of (..., k) coefficient rows.

    The entries have the smallest signed type that holds k (p-1)^2, the
    largest sum a product of two such matrices forms before it is reduced.
    """
    k = a.shape[-1]
    out = np.zeros(a.shape[:-1] + (k, k), dtype=np.min_scalar_type(-k * (p - 1) ** 2 - 1))
    out[..., 0, :] = a
    for j in range(1, k):  # X times the row above, with X^k = -(poly without X^k)
        out[..., j, 1:] = out[..., j - 1, :-1]
        out[..., j, :] = (out[..., j, :] - out[..., j - 1, -1:] * np.array(poly[:-1])) % p
    return out


def _mat_pow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    """m^e mod p for a batch m of (..., k, k) matrices, by square and multiply."""
    out = np.broadcast_to(np.eye(m.shape[-1], dtype=m.dtype), m.shape).copy()
    while e:
        if e & 1:
            out = out @ m % p
        m, e = m @ m % p, e >> 1
    return out


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Whether a monic polynomial f over F_p (constant term first) is irreducible.

    Rabin's test for f of degree k on the Frobenius matrix, the matrix of
    a -> a^p on F_p[X]/(f), whose row j is X^(jp): f is irreducible iff
    X^(p^k) = X mod f and, for each prime r dividing k, X^(p^(k/r)) - X is a
    unit mod f, i.e. its "times" matrix has full rank over the field F_p.
    """
    if len(poly) < 2 or poly[-1] != 1:
        return False
    k, poly = len(poly) - 1, [c % p for c in poly]
    if k == 1:
        return True
    if p > modring.MAX_MODULUS:  # the rank test reduces mod p in int64
        raise ModulusError(f"characteristic {p} exceeds {modring.MAX_MODULUS}")
    x = np.eye(k, dtype=np.int64)[1]
    times_xp = _times(_mat_pow(_times(x, poly, p), p, p)[0], poly, p)  # row 0 of (times X)^p is X^p
    frob = np.eye(k, dtype=times_xp.dtype)
    for j in range(1, k):
        frob[j] = frob[j - 1] @ times_xp % p
    powers = [x]  # X^(p^i) for i = 0..k
    for _ in range(k):
        powers.append(powers[-1] @ frob % p)
    return np.array_equal(powers[k], x) and all(
        len(modring._howell(_times((powers[k // r] - x) % p, poly, p), p)) == k for r in _factor(k)
    )


@dataclass(frozen=True, eq=False)
class FqField:
    """The field F_{p^k}, with a verified multiplicative generator."""

    p: int
    k: int
    n: int
    poly: Optional[tuple[int, ...]]  # monic defining polynomial, None for k == 1
    generator: int

    @property
    def q(self) -> int:
        return self.p**self.k

    # --- element arithmetic -------------------------------------------------

    @cached_property
    def _place(self) -> np.ndarray:
        return self.p ** np.arange(self.k, dtype=np.int64)

    def _digitwise(self, a: Elements, b: Elements, sign: int) -> Elements:
        """a + sign * b, digit by digit in base p, for field elements a and b: ints or integer arrays."""
        place = self._place
        da, db = (check_integers(x, "field elements", self.q)[..., None] // place for x in (a, b))
        out = ((da + sign * db) % self.p) @ place
        return int(out) if np.ndim(out) == 0 else out

    def add(self, a: Elements, b: Elements) -> Elements:
        return self._digitwise(a, b, 1)

    def neg(self, a: Elements) -> Elements:
        return self._digitwise(0, a, -1)

    def sub(self, a: Elements, b: Elements) -> Elements:
        return self._digitwise(a, b, -1)

    def one_minus(self, x: Elements) -> Elements:
        return self._digitwise(1, x, -1)

    def mul(self, a: int, b: int) -> int:
        a, b = check_integer(a, "field element", self.q), check_integer(b, "field element", self.q)
        if a == 0 or b == 0:
            return 0
        return self.exp(self.dlog(a) + self.dlog(b))

    def pow(self, a: int, e: int) -> int:
        a, e = check_integer(a, "field element", self.q), check_integer(e, "exponent")
        if a == 0:
            if e < 0:
                raise DomainError("0 is not invertible")
            return 0 if e else 1
        return self.exp(self.dlog(a) * e)

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    # --- discrete logarithms ------------------------------------------------

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """exp[i] = generator**i and its inverse dlog, with dlog[0] = -1.

        Built by doubling, exp[m:2m] = exp[0:m] * g^m, on coefficient rows.
        The k rows after exp[0:m] hold the matrix M of "times g^m" (row j is
        X^j g^m), so one product per round, [exp[0:m]; M] @ M, writes
        exp[m:2m] and M^2 right after it (numpy gives overlapping operands
        the result of separate ones).  The rows have the type of ``_times``
        and their number is rounded up to a power of two.  The table must be
        a bijection onto the units, i.e. g has order q - 1.
        """
        p, q, k = self.p, self.q, self.k
        times_g = _times(self.generator // self._place % p, self.poly, p)
        buf = np.zeros(((1 << (q - 2).bit_length()) + k, k), dtype=times_g.dtype)
        buf[0, 0] = 1
        buf[1 : k + 1] = times_g
        m = 1
        while m < q - 1:
            out = buf[m : 2 * m + k]
            np.matmul(buf[: m + k], buf[m : m + k], out=out)
            out %= p
            m *= 2
        exp = buf[: q - 1, k - 1].astype(np.int64)
        for c in range(k - 2, -1, -1):  # the rows in base p, by Horner's rule
            exp *= p
            exp += buf[: q - 1, c]
        dlog = np.full(q, -1, dtype=np.int64)
        dlog[exp] = np.arange(q - 1)
        if np.count_nonzero(dlog < 0) != 1:  # exp missed a unit, not just 0
            raise TheoremViolationError("generator order verification failed")
        return exp, dlog

    def exp(self, i: int) -> int:
        """generator**i."""
        return int(self._tables[0][check_integer(i, "exponent") % (self.q - 1)])

    def dlog(self, x: int) -> int:
        """i in [0, q-1) with generator**i == x; x must be nonzero."""
        x = check_integer(x, "field element", self.q)
        if x == 0:
            raise DomainError("dlog of 0 is undefined")
        return int(self._tables[1][x])

    # --- the points of function tables ---------------------------------------

    @cached_property
    def table_points(self) -> tuple[int, ...]:
        """The elements of K \\ {0,1} in canonical order.

        Prime fields use ascending integer order; extension fields ascending
        discrete-log order (the integer encodings of extension elements carry
        no arithmetic meaning).
        """
        if self.k == 1:
            return tuple(range(2, self.q))
        return tuple(self._tables[0][1:].tolist())  # exp[0] = 1; dlog order

    @cached_property
    def point_dlogs(self) -> tuple[np.ndarray, np.ndarray]:
        """dlog(x) and dlog(1 - x) for x in ``table_points``, unreduced and read-only.

        Read from the dlog table.
        """
        x = np.array(self.table_points, dtype=np.int64)
        dlog = self._tables[1]
        dx, dy = dlog[x], dlog[self.one_minus(x)]
        dx.flags.writeable = dy.flags.writeable = False
        return dx, dy

    @cached_property
    def point_types(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The types of the table points, read-only: (classes, first, types).

        The type of x is its pair of classes (dlog x mod n, dlog(1 - x) mod n)
        in K^x/K^xn, on which every value of phi and psi at x depends.
        ``classes`` holds the |T| types that occur, shape (|T|, 2), ascending;
        ``first[j]`` is the position in ``table_points`` of the first point of
        type j, and ``types[i]`` the type of point i, so ``classes[types]`` is
        the reduced ``point_dlogs``.  A table that reads x only through its
        type is the pullback, along the surjection ``types`` of the points
        onto T, of its table on T: a pullback along a surjection is injective,
        so vanishing, equality and span membership are the same on T as on
        the points.  The library derives types here only.
        """
        n = self.n
        codes = self.point_dlogs[0] % n * n + self.point_dlogs[1] % n
        uniq, first, types = np.unique(codes, return_index=True, return_inverse=True)
        classes = np.stack(np.divmod(uniq, n), axis=1)
        for arr in (classes, first, types):
            arr.flags.writeable = False
        return classes, first, types

    # --- misc ---------------------------------------------------------------

    def descriptor(self) -> dict:
        poly = list(self.poly) if self.poly is not None else [(-1) % self.p, 1]
        return {"p": self.p, "k": self.k, "poly": poly, "n": self.n, "generator": self.generator}


def _generator(p: int, k: int, poly: Optional[tuple[int, ...]]) -> int:
    """The smallest element of order q - 1: no g^((q-1)/r) is 1, r a prime factor of q - 1.

    An extension field tests a chunk of candidates at a time, on their
    "times g" matrices; the chunk starts at one candidate and doubles.
    """
    q = p**k
    factors = _factor(q - 1)
    if k == 1:
        return next(g for g in range(1, q) if all(pow(g, (q - 1) // r, q) != 1 for r in factors))
    one, lo, size = np.eye(k, dtype=np.int64)[0], 2, 1
    while lo < q:
        g = np.arange(lo, min(lo + size, q))
        times_g = _times(g[:, None] // p ** np.arange(k) % p, poly, p)
        full = np.ones(len(g), dtype=bool)
        for r in factors:
            full &= (_mat_pow(times_g, (q - 1) // r, p)[:, 0] != one).any(axis=1)
        if full.any():
            return int(g[full.argmax()])
        lo, size = lo + size, 2 * size
    raise TheoremViolationError("no multiplicative generator found")


def make_field(p: int, k: int = 1, poly: Optional[Sequence[int]] = None, n: int = 2) -> FqField:
    """Construct F_{p^k} with a verified generator and Kummer hypothesis n | q-1."""
    p, k, n = check_integer(p, "characteristic"), check_integer(k, "degree"), check_integer(n, "modulus")
    if n < 2:
        raise ModulusError(f"modulus must be >= 2, got {n}")
    if p < 2 or (p <= FIELD_MAX and _factor(p) != {p: 1}):
        raise DomainError(f"{p} is not prime")
    if k < 1:
        raise DomainError("degree must be >= 1")
    q = check_bound((p, k), FIELD_MAX, "field order")
    if n % p == 0:
        raise HypothesisError(f"n = {n} is not prime to the characteristic {p}")
    if (q - 1) % n != 0:
        raise HypothesisError(f"mu_{n} not contained in F_{q}: {n} does not divide {q - 1}")

    if k == 1:
        poly_t: Optional[tuple[int, ...]] = None
    else:
        if poly is not None:
            coeffs = check_integers(poly, "polynomial coefficients") % p
            if coeffs.shape != (k + 1,) or coeffs[-1] != 1:
                raise DomainError("defining polynomial must be monic of degree k")
            poly_t = tuple(coeffs.tolist())
            if not is_irreducible(list(poly_t), p):
                raise DomainError(f"polynomial {list(poly_t)} is reducible over F_{p}")
        else:
            poly_t = None
            for code in range(p**k):
                cand = []
                c = code
                for _ in range(k):
                    cand.append(c % p)
                    c //= p
                cand.append(1)
                if is_irreducible(cand, p):
                    poly_t = tuple(cand)
                    break
            if poly_t is None:
                raise TheoremViolationError("no irreducible polynomial found")

    gen = _generator(p, k, poly_t)
    field = FqField(p=p, k=k, n=n, poly=poly_t, generator=gen)
    field._tables  # build and verify the dlog table eagerly
    return field


@dataclass(frozen=True)
class RootOfUnity:
    """A verified primitive n-th root of unity in K."""

    field: FqField
    element: int
    order: int

    @cached_property
    def doubled_power_span(self):
        """The span of the tables 2 * psi(f) over the character space, canonical.

        The characters mod n are the multiples c chi of the generating
        character chi, and psi(c chi) = c^2 A + c B with 2A = 0 (see
        ``tables.ffrak_generate``), so 2 psi(c chi) = 2c B = c * 2 psi(chi):
        the span is that of the one row 2 psi(chi).  Cached on the root, so it
        is freed with the root and its field.
        """
        from . import tables  # tables imports this module

        chi = KummerCharacter(self.field, self.field.n, 1)
        row = tables.psi(chi, self).scale(2).flatten()
        return modring.canonicalize(modring.ModMatrix(self.field.n, row[None, :]))


def omega(field: FqField, n: int, index: int = 1) -> RootOfUnity:
    """The primitive n-th root generator**(index*(q-1)/n); index must be a unit mod n."""
    q, n, index = field.q, check_integer(n, "modulus"), check_integer(index, "omega index")
    if n < 2:
        raise ModulusError(f"modulus must be >= 2, got {n}")
    if (q - 1) % n != 0:
        raise HypothesisError(f"mu_{n} not contained in F_{q}")
    if math.gcd(index, n) != 1:
        raise DomainError(f"index {index} is not a unit mod {n}")
    elt = field.exp((index * (q - 1) // n) % (q - 1))
    for r in _factor(n):
        if field.pow(elt, n // r) == 1:
            raise TheoremViolationError("root of unity is not primitive")
    if field.pow(elt, n) != 1:
        raise TheoremViolationError("root of unity has wrong order")
    return RootOfUnity(field=field, element=elt, order=n)


@dataclass(frozen=True)
class KummerCharacter:
    """Homomorphism K^x -> Z/n determined by its value c on the fixed generator."""

    field: FqField
    n: int
    c: int

    def __post_init__(self):
        object.__setattr__(self, "n", check_integer(self.n, "modulus"))
        if self.n < 2:
            raise ModulusError(f"modulus must be >= 2, got {self.n}")
        if (self.field.q - 1) % self.n != 0:
            raise HypothesisError("character modulus must divide q-1")
        object.__setattr__(self, "c", check_integer(self.c, "character value") % self.n)

    def __call__(self, x: int) -> int:
        return char_eval(self, x)

    def __add__(self, other: "KummerCharacter") -> "KummerCharacter":
        check_characters([other], self.field, self.n)
        return KummerCharacter(self.field, self.n, self.c + other.c)

    def scale(self, a: int) -> "KummerCharacter":
        return KummerCharacter(self.field, self.n, check_integer(a, "scale factor") * self.c)


def check_characters(chars: Iterable[KummerCharacter], field: FqField, n: int) -> None:
    """ModulusError unless every character of ``chars`` lives on ``field`` (the same object) mod n."""
    for f in chars:
        if f.field is not field or f.n != n:
            raise ModulusError(f"characters must share the field F_{field.q} and the modulus {n}")


def char_eval(f: KummerCharacter, x: int) -> int:
    """f(x) = c * dlog(x) mod n; x must be a unit."""
    if x == 0:
        raise DomainError("characters are defined on K^x only")
    return (f.c * f.field.dlog(x)) % f.n


def characters(field: FqField) -> list[KummerCharacter]:
    """All n characters of K^x with values in Z/n (the finite character space)."""
    return [KummerCharacter(field, field.n, c) for c in range(field.n)]


@dataclass(frozen=True)
class FieldEmbedding:
    """The embedding K -> L sending g_K to g_L^((q_L-1)/(q_K-1))."""

    sub: FqField
    sup: FqField
    exponent: int

    def __call__(self, x: int) -> int:
        if x == 0:
            return 0
        return self.sup.exp(self.exponent * self.sub.dlog(x))

    def preimage(self, y: int) -> int:
        """The x in K with embed(x) == y; raises when y is outside the image."""
        if y == 0:
            return 0
        qs, ql = self.sub.q, self.sup.q
        target = self.sup.dlog(y)
        g = math.gcd(self.exponent, ql - 1)
        if target % g:
            raise DomainError("element is not in the embedded subfield")
        d = (target // g) * pow(self.exponent // g, -1, (ql - 1) // g) % ((ql - 1) // g)
        x = self.sub.exp(d % (qs - 1))
        if self(x) != y:
            raise DomainError("element is not in the embedded subfield")
        return x


def embed_field(sub: FqField, sup: FqField) -> FieldEmbedding:
    """Construct and verify a field embedding of ``sub`` into ``sup``.

    The generator g_K must map to an element of order q_K - 1, i.e. to
    g_L^(u * (q_L-1)/(q_K-1)) for a unit u mod q_K - 1; among those
    multiplicative maps, exactly the field embeddings are additive.  The
    smallest working u is chosen, which makes the embedding deterministic.

    A multiplicative f with f(0) = 0 is additive iff f(1 + x) = 1 + f(x) for
    every x in K: for a != 0, f(a + b) = f(a) f(1 + b/a) = f(a) (1 + f(b/a))
    = f(a) + f(b), where a + b = 0 is the case x = -1.  So each candidate is
    checked on the q_K points x as one comparison on the exp/dlog tables,
    with 1 + x formed by adding 1 to the constant base-p digit.
    """
    if sub.p != sup.p or sup.k % sub.k != 0:
        raise DomainError(f"F_{sub.q} does not embed into F_{sup.q}")
    e = (sup.q - 1) // (sub.q - 1)
    order = sub.q - 1

    x = np.arange(sub.q, dtype=np.int64)
    dlog_x, (exp_l, _) = sub._tables[1][1:], sup._tables
    for u in range(1, order + 1):
        if math.gcd(u, order) != 1:
            continue
        f = np.zeros(sub.q, dtype=np.int64)
        f[1:] = exp_l[(e * u * dlog_x) % (sup.q - 1)]
        if np.array_equal(f[sub.add(x, 1)], sup.add(f, 1)):
            return FieldEmbedding(sub=sub, sup=sup, exponent=e * u)
    raise TheoremViolationError("no additive embedding found; field construction is broken")


def restrict_character(emb: FieldEmbedding, f: KummerCharacter) -> KummerCharacter:
    """The character of K^x obtained by composing f with the embedding K -> L."""
    if f.field is not emb.sup:
        raise DomainError("character does not live on the target field of the embedding")
    # f(embed(x)) = c * e * dlog_K(x), so the restriction has value c*e on g_K.
    return KummerCharacter(emb.sub, f.n, f.c * emb.exponent)
