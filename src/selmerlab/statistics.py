"""Additive divisor statistics over the family and their exact probabilistic model.

g1 counts distinct odd primes below a cut z dividing A^2-4B, g2 the same for
B.  The model replaces the two divisibility indicator families by coupled
Bernoulli pairs: for each odd prime p both indicators fire with probability
rho(p) = (p^5-1)/(p^6-1), and they fire jointly with probability
(p^4-1)/(p^6-1).  Centered mixed moments of the model are computed exactly:
each prime's joint cumulants in integers, their sums over the primes as
rationals, and the moments from those sums once.  Empirical moments use
exact integer power sums so the result does not depend on summation order
or partitioning.

`family_scan` gets the whole window's power sums without forming any
A^2-4B: in column B the odd primes p < z dividing A^2-4B are read off the
root classes A = +-2 sqrt(B) (mod p), one strided update per root.  Every
count it takes is even in A, so it scans A in [0, X] only:
O(sqrt(X) * X * sum over p < z of 1/p) work in all.

Curves whose A^2-4B is a nonzero perfect square are excluded from all
empirical statistics (their count is reported); they carry extra rational
two-torsion and sit outside the generic model.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .core_arith import _odd_primes_below, _root_classes, factor
from .curve_family import _column_rule, density_rho, window_columns

__all__ = [
    "PrimeModel",
    "MomentReport",
    "g1",
    "g2",
    "model_mixed_moment",
    "empirical_mixed_moment",
    "cdf_distance",
    "rho_sum",
    "family_scan",
    "normal_cdf",
]


def _count_odd_prime_divisors(n: int, z) -> int:
    if z == math.inf:
        return sum(1 for p in factor(n).primes if p != 2)
    return sum(1 for p in _odd_primes_below(int(z)) if n % p == 0)


def g1(A: int, B: int, z=math.inf) -> int:
    """Number of distinct odd primes p < z dividing A^2 - 4B."""
    d = A * A - 4 * B
    if d == 0:
        raise ValueError("singular input")
    return _count_odd_prime_divisors(d, z)


def g2(A: int, B: int, z=math.inf) -> int:
    """Number of distinct odd primes p < z dividing B."""
    if B == 0:
        raise ValueError("B = 0")
    return _count_odd_prime_divisors(B, z)


@lru_cache(maxsize=None)
def rho_sum(z: int) -> Fraction:
    """Sum of rho(p) over odd primes p < z (the exact centering)."""
    return sum((density_rho(p) for p in _odd_primes_below(z)), Fraction(0))


@dataclass(frozen=True)
class PrimeModel:
    """Joint per-prime divisibility model up to the cut z.

    perPrime holds one row (p, both, only1, only2, neither) per odd prime
    p < z: the probabilities that p divides both of A^2-4B and B, only one
    of them (rho(p) - both each), or neither.
    """

    z: int
    perPrime: tuple[tuple[int, Fraction, Fraction, Fraction, Fraction], ...] = field(init=False)

    def __post_init__(self):
        rows = []
        for p in _odd_primes_below(self.z):
            rho = density_rho(p)
            both = Fraction(p**4 - 1, p**6 - 1)
            only = rho - both
            rows.append((p, both, only, only, 1 - 2 * rho + both))
        object.__setattr__(self, "perPrime", tuple(rows))


@dataclass(frozen=True)
class MomentReport:
    X: int
    z: int
    k1: int
    k2: int
    empirical: float
    model: float
    sampleSize: int
    centering: float

    def __post_init__(self):
        if self.sampleSize <= 0:
            raise ValueError("empty sample")
        if not (math.isfinite(self.empirical) and math.isfinite(self.model)):
            raise ValueError("non-finite moment")


def _recursion_term(i: int, j: int, kappa: dict, m: dict):
    """sum C(i-1, r) C(j, s) kappa[r+1, s] m[i-1-r, j-s] over r < i, s <= j
    (for i = 0: sum C(j-1, s) kappa[0, s+1] m[0, j-1-s] over s < j).

    This is m[i, j], the bivariate moment-cumulant recursion (the derivative
    of M = exp(K) is M times that of K); its one term in kappa[i, j] is
    kappa[i, j] m[0, 0], so with kappa[i, j] still 0 it gives m[i, j] less
    kappa[i, j].  Entries are read at lower total degree only.
    """
    if i:
        return sum(
            math.comb(i - 1, r) * math.comb(j, s) * kappa[(r + 1, s)] * m[(i - 1 - r, j - s)]
            for r in range(i)
            for s in range(j + 1)
        )
    return sum(math.comb(j - 1, s) * kappa[(0, s + 1)] * m[(0, j - 1 - s)] for s in range(j))


def _degrees(kmax: int) -> list[tuple[int, int]]:
    # (i, j) with i + j <= kmax, by ascending total degree
    return [(i, n - i) for n in range(kmax + 1) for i in range(n + 1)]


def _scaled_cumulants(row, kmax: int) -> tuple[int, dict]:
    """(d, kappa) for one PrimeModel row: d = p^6 - 1 and the joint
    cumulants kappa[i, j] of (d I, d J) up to total degree kmax, integers.

    Every raw moment of (d I, d J) is an integer (each probability is an
    integer over d, each nonconstant monomial a multiple of d), and the
    recursion from raw moments to cumulants multiplies and subtracts only.
    """
    p, both, o1, o2, neither = row
    d = p**6 - 1
    weights = [(int(q * d), x, y) for q, x, y in ((neither, 0, 0), (o1, d, 0), (o2, 0, d), (both, d, d))]
    degrees = _degrees(kmax)
    raw = {(r, s): sum(w * x**r * y**s for w, x, y in weights) // d for r, s in degrees}
    kappa = dict.fromkeys(degrees, 0)
    for i, j in degrees[1:]:
        kappa[(i, j)] = raw[(i, j)] - _recursion_term(i, j, kappa, raw)
    return d, kappa


@lru_cache(maxsize=None)
def _model_centered_table(z: int, kmax: int) -> dict:
    """Exact centered mixed moments of the model pair up to total degree kmax.

    The pair is a sum of independent per-prime indicator pairs (I, J) (I for
    p | A^2-4B, J for p | B), so its joint cumulants of degree >= 2 are the
    sums of theirs; those of degree 1 vanish, as the pair is centered.  A
    prime's cumulants come from its raw moments in integers: the values are
    scaled by d = p^6 - 1, so every raw moment of (dI, dJ) is an integer,
    and the cumulant of degree n of (dI, dJ) is d^n times that of (I, J).
    The summed cumulants give the moments once, by the same recursion.  An
    entry is made from entries of lower degree only, so it does not depend
    on kmax; callers ask for degree 4 or 6 and read lower entries.
    """
    degrees = _degrees(kmax)
    total = dict.fromkeys(degrees, Fraction(0))
    for row in PrimeModel(z).perPrime:
        d, kappa = _scaled_cumulants(row, kmax)
        for (i, j), k in kappa.items():
            if i + j >= 2:
                total[(i, j)] += Fraction(k, d ** (i + j))
    table = {(0, 0): Fraction(1)}
    for i, j in degrees[1:]:
        table[(i, j)] = _recursion_term(i, j, total, table)
    return table


def model_mixed_moment_exact(k1: int, k2: int, z: int) -> Fraction:
    if k1 < 0 or k2 < 0 or k1 + k2 > 6:
        raise ValueError("supported degrees: k1 + k2 <= 6")
    if z < 3:
        raise ValueError("z must be at least 3")
    return _model_centered_table(z, 4 if k1 + k2 <= 4 else 6)[(k1, k2)]


def model_mixed_moment(k1: int, k2: int, z: int) -> float:
    """Exact centered mixed moment of the model pair, as a float."""
    return float(model_mixed_moment_exact(k1, k2, z))


def empirical_mixed_moment(curves, k1: int, k2: int, z: int, xmax: int = 0) -> MomentReport:
    """Centered empirical mixed moment of (g1, g2) over a curve stream.

    Accumulates exact integer power sums, so the value is independent of the
    stream's partitioning; centering is the model's rho-sum below z.
    """
    sums = {(i, j): 0 for i in range(k1 + 1) for j in range(k2 + 1)}
    for c in curves:
        if c.twoTorsionFull:
            continue
        a, b = g1(c.A, c.B, z), g2(c.A, c.B, z)
        for (i, j) in sums:
            sums[(i, j)] += a**i * b**j
    n = sums[(0, 0)]
    if n == 0:
        raise ValueError("empty curve stream")
    return _moment_report_from_sums(sums, n, k1, k2, z, xmax)


def _centered_from_power_sums(sums, n: int, k1: int, k2: int, mu: Fraction) -> Fraction:
    acc = Fraction(0)
    for i in range(k1 + 1):
        for j in range(k2 + 1):
            acc += (
                math.comb(k1, i)
                * math.comb(k2, j)
                * (-mu) ** (k1 - i + k2 - j)
                * sums[(i, j)]
            )
    return acc / n


def _moment_report_from_sums(sums, n, k1, k2, z, xmax) -> MomentReport:
    mu = rho_sum(z)
    emp = _centered_from_power_sums(sums, n, k1, k2, mu)
    return MomentReport(
        X=xmax,
        z=z,
        k1=k1,
        k2=k2,
        empirical=float(emp),
        model=model_mixed_moment(k1, k2, z),
        sampleSize=n,
        centering=float(mu),
    )


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def cdf_distance(values, X: int) -> float:
    """Sup distance between the empirical CDF of t / sqrt(2 log log X) and
    the standard normal CDF, from the counts of `values` (an iterable or a
    Counter).  i/n - Phi is monotone in i over a tie block, so its largest
    |i/n - Phi| is at below/n or above/n: bit for bit the sorted-list sup."""
    if X < 16:
        raise ValueError("X must be at least 16 so that log log X is positive")
    counts = Counter(values)
    if not counts:
        raise ValueError("no values")
    scale = math.sqrt(2.0 * math.log(math.log(X)))
    n = counts.total()
    dist = 0.0
    below = 0
    for v in sorted(counts):
        phi = normal_cdf(v / scale)
        above = below + counts[v]
        dist = max(dist, abs(above / n - phi), abs(below / n - phi))
        below = above
    return dist


# ---------------------------------------------------------------------------
# vectorized whole-family scan (one pass per B column)
# ---------------------------------------------------------------------------


# the odd primes whose residue densities family_scan counts, and the highest
# power of g1 and of g2 in its power sums
_DENSITY_PRIMES = (3, 5, 7, 11, 13)
_KMAX = 4


def family_scan(X: int, z: int = 100) -> dict:
    """Exact divisor statistics of the full window in one vectorized pass.

    Returns the member count, the count of square-discriminant members, the
    density counts {p: (#p|B, #p|A^2-4B, #both)} over all members for the
    odd primes p in _DENSITY_PRIMES, and exact integer power sums
    g1^i g2^j (i, j <= _KMAX) with cut z over the non-square members.

    No discriminant is formed.  In column B, an odd prime p divides A^2 - 4B
    exactly when A lies in one of the (at most two) root classes
    A = +-2 sqrt(B) (mod p), so each g1 row is built by adding 1 along every
    p-th entry from each root, and each density count sums the member mask
    over the same slices.  The mask and the square-discriminant A's come
    from the column rule of `curve_family`.

    Every count is the same at A and -A: the root classes are closed under
    negation (p | A^2 - 4B is even in A), and so are the moduli p^2 | A, the
    singular A = +-2 sqrt(B) and the square discriminants A^2 - 4B = s^2.
    So each row holds A in [0, X] only, and every entry counts twice but
    A = 0, which counts once.  The cost is
    O(sqrt(X) * X * sum over p < z of 1/p) strided updates; the power sums
    are exact Python integers read off a histogram of each row, so they
    match the streaming path bit for bit.
    """
    import numpy as np

    zprimes = _odd_primes_below(z)
    sums = {(i, j): 0 for i in range(_KMAX + 1) for j in range(_KMAX + 1)}
    density = {p: [0, 0, 0] for p in _DENSITY_PRIMES}
    n_total = 0
    n_square = 0
    for B in window_columns(X):
        moduli, singular, square = _column_rule(B, X)
        for skip in (singular, square):
            assert skip == [-A for A in reversed(skip)], f"column rule not symmetric at B={B}"
        mask = np.ones(X + 1, dtype=bool)  # entry A stands for A and -A
        for m in moduli:
            mask[::m] = False
        mask[[A for A in singular if A >= 0]] = False
        zero = int(mask[0])  # A = 0 is its own mirror, so counts once
        nb = 2 * int(np.count_nonzero(mask)) - zero
        n_total += nb
        n_square += len(square)
        for p in _DENSITY_PRIMES:
            cD = 2 * sum(int(np.count_nonzero(mask[r::p])) for r in _root_classes(p, B % p)) - zero * (B % p == 0)
            density[p][1] += cD
            if B % p == 0:
                density[p][0] += nb
                density[p][2] += cD
        mask[[A for A in square if A >= 0]] = False
        zero = int(mask[0])
        # a member's count is at most omega(|A^2 - 4B|) < 16 while
        # |A^2 - 4B| < 2^63, so int8 holds it; only the singular entries
        # (divisible by every p) can wrap, and the mask drops them
        g1row = np.zeros(X + 1, dtype=np.int8)
        for p in zprimes:
            for r in _root_classes(p, B % p):
                g1row[r::p] += 1
        hist = np.bincount(g1row[mask]).tolist()
        g0 = int(g1row[0])
        g2val = sum(1 for p in zprimes if B % p == 0)
        rowpow = [2 * sum(c * g**i for g, c in enumerate(hist)) - zero * g0**i for i in range(_KMAX + 1)]
        for i in range(_KMAX + 1):
            for j in range(_KMAX + 1):
                sums[(i, j)] += rowpow[i] * g2val**j
    return {
        "X": X,
        "z": z,
        "n_total": n_total,
        "n_square_disc": n_square,
        "n_stats": n_total - n_square,
        "density_counts": {p: tuple(v) for p, v in density.items()},
        "power_sums": sums,
    }


def moment_report_from_scan(scan: dict, k1: int, k2: int) -> MomentReport:
    """MomentReport for (k1, k2) out of a family_scan result."""
    sums = scan["power_sums"]
    return _moment_report_from_sums(sums, scan["n_stats"], k1, k2, scan["z"], scan["X"])
