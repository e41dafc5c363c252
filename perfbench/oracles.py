"""Known answers for the benchmark's verdicts, computed without abelcentral.

Everything here uses Python integers only, so an int64 overflow or a wrong
Howell step inside ``abelcentral.modring`` cannot leak into the answer the
benchmark compares against.

Linear algebra over Z/n goes through the Chinese remainder theorem: over
each prime-power factor Z/p^e the ring is local, so elimination with a pivot
of minimal p-adic valuation gives the Smith valuations v_i directly.  From
those:

* the row module of a matrix is isomorphic to the sum of Z/p^(e - v_i);
* the column kernel {x : A x = 0} has p^(sum v_i + e * (cols - pivots))
  elements.
"""

from __future__ import annotations

import itertools
from typing import Sequence


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def local_smith(rows: Sequence[Sequence[int]], p: int, e: int) -> list[int]:
    """Smith valuations (each < e) of the matrix over Z/p^e."""
    m = p**e
    a = [[int(x) % m for x in r] for r in rows]
    vals = []
    while a:
        best = None
        for i, r in enumerate(a):
            for j, x in enumerate(r):
                if x:
                    v = _valuation(x, p)
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            break
        v, i, j = best
        piv = a.pop(i)
        pv = p**v
        inv_u = pow(piv[j] // pv, -1, p ** (e - v)) if e > v else 0
        rest = []
        for r in a:
            c = (r[j] // pv) * inv_u
            r = [(x - c * y) % m for x, y in zip(r, piv)]
            rest.append(r[:j] + r[j + 1:])
        a = [r for r in rest if any(r)]
        vals.append(v)
    return vals


def _prime_powers(n: int) -> list[tuple[int, int]]:
    return sorted(factorize(n).items())


def _combine(per_prime: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors, ascending, from the cyclic prime-power parts of each prime."""
    per_prime = [sorted(powers, reverse=True) for powers in per_prime]
    width = max((len(x) for x in per_prime), default=0)
    factors = []
    for i in range(width):
        d = 1
        for powers in per_prime:
            if i < len(powers):
                d *= powers[i]
        factors.append(d)
    return tuple(sorted(factors))


def span_order(rows: Sequence[Sequence[int]], n: int) -> int:
    """Number of elements of the row span of ``rows`` in (Z/n)^width."""
    order = 1
    for p, e in _prime_powers(n):
        order *= p ** sum(e - v for v in local_smith(rows, p, e))
    return order


def kernel_order(rows: Sequence[Sequence[int]], n: int, cols: int) -> int:
    """Number of x in (Z/n)^cols with rows @ x = 0 mod n."""
    order = 1
    for p, e in _prime_powers(n):
        vals = local_smith(rows, p, e)
        order *= p ** (sum(vals) + e * (cols - len(vals)))
    return order


def invariant_factors(rows: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of the row span, ascending."""
    return _combine([[p ** (e - v) for v in local_smith(rows, p, e)] for p, e in _prime_powers(n)])


def in_span(rows: Sequence[Sequence[int]], v: Sequence[int], n: int) -> bool:
    return span_order(list(rows) + [list(v)], n) == span_order(rows, n)


def same_span(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], n: int) -> bool:
    both = span_order(list(a) + list(b), n)
    return both == span_order(a, n) == span_order(b, n)


def mat_vec(a: Sequence[Sequence[int]], x: Sequence[int], n: int) -> list[int]:
    """a @ x mod n in Python integers."""
    return [sum(int(c) * int(y) for c, y in zip(row, x)) % n for row in a]


def closure(rows: Sequence[Sequence[int]], n: int, width: int) -> frozenset:
    """Every Z/n-combination of ``rows``, by brute-force breadth-first search."""
    zero = (0,) * width
    seen = {zero}
    frontier = [zero]
    gens = [tuple(int(x) % n for x in r) for r in rows]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = tuple((a + b) % n for a, b in zip(v, g))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def closure_kernel(rows: Sequence[Sequence[int]], n: int, cols: int) -> frozenset:
    """Every x in (Z/n)^cols with rows @ x = 0, by enumeration."""
    return frozenset(
        x for x in itertools.product(range(n), repeat=cols) if not any(mat_vec(rows, x, n))
    )


def closure_factors(elements: frozenset, n: int) -> tuple[int, ...]:
    """Invariant factors of a finite subgroup of (Z/n)^k given as its element set.

    For each divisor d of n the count of elements killed by d is the product
    of gcd(d, f) over the invariant factors f; the factors are recovered from
    those counts one prime at a time.
    """
    per_prime = []
    for p, e in _prime_powers(n):
        # r_j = number of cyclic p-parts of order >= p^j, from |G[p^j]| / |G[p^(j-1)]|.
        killed = [sum(1 for x in elements if not any((p**j * c) % n for c in x)) for j in range(e + 1)]
        ranks = [_valuation(killed[j] // killed[j - 1], p) for j in range(1, e + 1)]
        powers = []
        for j in range(e, 0, -1):
            exact = ranks[j - 1] - (ranks[j] if j < e else 0)
            powers += [p**j] * exact
        per_prime.append(powers)
    return _combine(per_prime)


def halves(w: int, n: int) -> list[int]:
    """Every a in Z/n with 2a = w mod n."""
    return [a for a in range(n) if (2 * a - w) % n == 0]
