"""Exact integer arithmetic: factorization, valuations, the Jacobi symbol,
square roots and quadratic roots modulo an odd prime.

Everything here is pure and deterministic.  Factoring uses trial division
to sqrt(n), by one cached prime list per power of 2 up to a fixed bound z.
A cofactor left below z^2 has no prime factor below z, so it is prime with
no test; that covers every n < 10^10.  A larger cofactor gets
strong-pseudoprime testing with a proven witness set and Brent's
cycle-finding variant of Pollard rho with an incrementing polynomial
constant, so repeated runs (and concurrent callers) always see identical
output.  The roots of a quadratic mod p (`quadratic_roots`, from one modular
square root) count Tate's I0* components and give the descent's structural
solver its roots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
__all__ = [
    "FactoredInteger",
    "factor",
    "jacobi",
    "squarefree_part",
    "signed_squarefree_divisors",
    "is_prime",
    "primes_below",
    "sqrt_mod_p",
    "quadratic_roots",
    "is_square",
]

_SIEVE_LIMIT = 100_000
_MAGNITUDE_LIMIT = 1 << 127

# Largest bound for which the 12-prime Miller-Rabin witness set is proven
# deterministic (Sorenson & Webster).
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def primes_below(n: int) -> list[int]:
    """All primes < n by a byte sieve."""
    if n <= 2:
        return []
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n, p)))
    return list(itertools.compress(range(n), sieve))


@lru_cache(maxsize=None)
def _odd_primes_below(z: int) -> tuple[int, ...]:
    return tuple(p for p in primes_below(z) if p != 2)


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**127."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= _MR_PROVEN_BOUND:
        # Beyond the proven witness range; defer to a mature implementation.
        import sympy

        return bool(sympy.isprime(n))
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, c: int) -> int:
    # Brent's variant; returns a nontrivial factor or n on failure.
    if n % 2 == 0:
        return 2
    y, m, g, r, q = 2, 128, 1, 1, 1
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        r <<= 1
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g


def _factor_positive(m: int, out: dict[int, int]) -> None:
    e = (m & -m).bit_length() - 1  # the power of 2, then the odd primes up to isqrt(m)
    if e:
        out[2] = out.get(2, 0) + e
        m >>= e
    z = min(1 << math.isqrt(m).bit_length(), _SIEVE_LIMIT)
    for p in _odd_primes_below(z):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out[p] = out.get(p, 0) + e
    if m == 1:
        return
    if m < z * z or is_prime(m):  # no prime below z divides m, so m < z^2 is prime
        out[m] = out.get(m, 0) + 1
        return
    # Composite with no factor below the sieve bound: split with rho,
    # restarting with the next increment constant until it cooperates.
    c = 1
    d = _pollard_brent(m, c)
    while d == m or d == 1:
        c += 1
        d = _pollard_brent(m, c)
    _factor_positive(d, out)
    _factor_positive(m // d, out)


@dataclass(frozen=True)
class FactoredInteger:
    """Sign and sorted prime factorization of a nonzero integer."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError("factors must have strictly increasing primes and exponents >= 1")
            last = p

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factor(n: int) -> FactoredInteger:
    """Exact factorization of a nonzero integer n with |n| < 2**127.

    >>> factor(18)
    FactoredInteger(sign=1, factors=((2, 1), (3, 2)))
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    if abs(n) >= _MAGNITUDE_LIMIT:
        raise ValueError("operand magnitude out of supported range (< 2**127)")
    sign = -1 if n < 0 else 1
    out: dict[int, int] = {}
    if abs(n) > 1:
        _factor_positive(abs(n), out)
    return FactoredInteger(sign, tuple(sorted(out.items())))


def _vp(n: int, p: int) -> int:
    """Largest k with p**k dividing n (p >= 2, unchecked); 0 gets a huge
    sentinel, so that an exact zero passes every depth test (the residue
    scan's Hensel test at a root of f)."""
    if n == 0:
        return 1 << 30
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by quadratic-reciprocity reduction."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol needs odd n > 0")
    a %= n
    t = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def squarefree_part(n: int) -> int:
    """The unique squarefree d (same sign as n) with n/d a positive square."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    f = factor(n)
    d = f.sign
    for p, e in f.factors:
        if e % 2:
            d *= p
    return d


def signed_squarefree_divisors(n: int) -> set[int]:
    """All +-(product of a subset of the distinct primes of n); 2**(omega+1) values."""
    if n == 0:
        raise ValueError("0 has no divisors of this kind")
    divs = [1]
    for p in factor(n).primes:
        divs += [d * p for d in divs]
    return {s * d for d in divs for s in (1, -1)}


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def sqrt_mod_p(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime p, or None if a is a non-residue.

    Tonelli-Shanks with a deterministic non-residue sweep.
    """
    a %= p
    if a == 0:
        return 0
    if jacobi(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


def quadratic_roots(c0, c1, c2, p):
    """Roots in F_p, ascending, of c2 x^2 + c1 x + c0 (p odd, c2 a unit mod p)."""
    disc = (c1 * c1 - 4 * c2 * c0) % p
    r = sqrt_mod_p(disc, p)
    if r is None:
        return []
    inv = pow(2 * c2, -1, p)
    return sorted({(-c1 + r) * inv % p, (-c1 - r) * inv % p})


@lru_cache(maxsize=4096)
def _root_classes(p: int, b: int) -> tuple[int, ...]:
    """The residues r mod p, ascending, with r^2 = 4b (mod p), for an odd
    prime p and b = B mod p.

    So p divides A^2 - 4B exactly when A is congruent to one of them: at
    most two roots, just r = 0 when p | B.  They are r = +-2 sqrt(b), one
    modular square root each, so no table of size p is built (over every
    prime below 10^4 such tables would hold about 360 MB).
    """
    s = sqrt_mod_p(b, p)
    if s is None:
        return ()
    r = 2 * s % p
    return (r,) if r == 0 else tuple(sorted((r, p - r)))
