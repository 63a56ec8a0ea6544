"""Additive divisor statistics over the family and their exact probabilistic model.

g1 counts distinct odd primes below a cut z dividing A^2-4B, g2 the same for
B.  The model replaces the two divisibility indicator families by coupled
Bernoulli pairs: for each odd prime p both indicators fire with probability
rho(p) = (p^5-1)/(p^6-1), and they fire jointly with probability
(p^4-1)/(p^6-1).  Centered mixed moments of the model are computed exactly
(rational arithmetic, convolution across primes); empirical moments use
exact integer power sums so the result does not depend on summation order
or partitioning.

`family_scan` gets the whole window's power sums without forming any
A^2-4B: in column B the odd primes p < z dividing A^2-4B are read off the
root classes A = +-2 sqrt(B) (mod p), one strided update per root, which is
O(sqrt(X) * X * sum over p < z of 2/p) work in all.

Curves whose A^2-4B is a nonzero perfect square are excluded from all
empirical statistics (their count is reported); they carry extra rational
two-torsion and sit outside the generic model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core_arith import factor, primes_below
from .curve_family import _column_rule, _fourth_power_primes, density_rho, window_columns

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


@lru_cache(maxsize=None)
def _odd_primes_below(z: int) -> tuple[int, ...]:
    return tuple(p for p in primes_below(z) if p != 2)


def _count_odd_prime_divisors(n: int, z) -> int:
    if z == math.inf or z is None:
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
    """Joint per-prime divisibility model up to the cut z."""

    z: int
    perPrime: tuple[tuple[int, Fraction, Fraction, Fraction, Fraction], ...]

    @classmethod
    def build(cls, z: int) -> "PrimeModel":
        rows = []
        for p in _odd_primes_below(z):
            rho = density_rho(p)
            both = Fraction(p**4 - 1, p**6 - 1)
            only = rho - both
            neither = 1 - 2 * rho + both
            rows.append((p, both, only, only, neither))
        return cls(z, tuple(rows))

    def __post_init__(self):
        for p, both, o1, o2, neither in self.perPrime:
            rho = density_rho(p)
            if both != Fraction(p**4 - 1, p**6 - 1) or both + o1 != rho or both + o2 != rho:
                raise ValueError(f"inconsistent row at p={p}")
            if both + o1 + o2 + neither != 1:
                raise ValueError(f"probabilities at p={p} do not sum to 1")
            if not all(0 <= q <= 1 for q in (both, o1, o2, neither)):
                raise ValueError(f"probability out of range at p={p}")


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


@lru_cache(maxsize=None)
def _model_centered_table(z: int, kmax: int) -> dict:
    """Exact centered mixed moments of the model pair up to total degree kmax."""
    table = {(0, 0): Fraction(1)}
    for i in range(kmax + 1):
        for j in range(kmax + 1 - i):
            table.setdefault((i, j), Fraction(0))
    for p, both, o1, o2, neither in PrimeModel.build(z).perPrime:
        rho = both + o1
        outcomes = (
            (neither, -rho, -rho),
            (o1, 1 - rho, -rho),
            (o2, -rho, 1 - rho),
            (both, 1 - rho, 1 - rho),
        )
        step = {}
        for r in range(kmax + 1):
            for s in range(kmax + 1 - r):
                step[(r, s)] = sum(pr * x**r * y**s for pr, x, y in outcomes)
        new = {}
        for i in range(kmax + 1):
            for j in range(kmax + 1 - i):
                acc = Fraction(0)
                for r in range(i + 1):
                    for s in range(j + 1):
                        acc += math.comb(i, r) * math.comb(j, s) * table[(i - r, j - s)] * step[(r, s)]
                new[(i, j)] = acc
        table = new
    return table


def model_mixed_moment_exact(k1: int, k2: int, z: int) -> Fraction:
    if k1 < 0 or k2 < 0 or k1 + k2 > 6:
        raise ValueError("supported degrees: k1 + k2 <= 6")
    if z < 3:
        raise ValueError("z must be at least 3")
    return _model_centered_table(z, k1 + k2)[(k1, k2)]


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
    the standard normal CDF."""
    if X < 16:
        raise ValueError("X must be at least 16 so that log log X is positive")
    if not values:
        raise ValueError("no values")
    scale = math.sqrt(2.0 * math.log(math.log(X)))
    xs = sorted(v / scale for v in values)
    n = len(xs)
    dist = 0.0
    for i, x in enumerate(xs, start=1):
        phi = normal_cdf(x)
        dist = max(dist, abs(i / n - phi), abs((i - 1) / n - phi))
    return dist


# ---------------------------------------------------------------------------
# vectorized whole-family scan (one pass per B column)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _root_classes(p: int) -> tuple[tuple[int, ...], ...]:
    """Indexed by B mod p: the residues r mod p with r^2 = 4B (mod p).

    So the odd prime p divides A^2 - 4B exactly when A is congruent to one
    of them: at most two roots, just r = 0 when p | B.
    """
    inv4 = pow(4, -1, p)
    table = [[] for _ in range(p)]
    for r in range(p):
        table[r * r * inv4 % p].append(r)
    return tuple(tuple(roots) for roots in table)


def family_scan(X: int, z: int = 100, density_primes=(3, 5, 7, 11, 13), kmax: int = 4) -> dict:
    """Exact divisor statistics of the full window in one vectorized pass.

    Returns the member count, the count of square-discriminant members, the
    density counts {p: (#p|B, #p|A^2-4B, #both)} over all members for the
    odd primes p in `density_primes`, and exact integer power sums of
    (g1, g2) with cut z over the non-square members.

    No discriminant is formed.  In column B, an odd prime p divides A^2 - 4B
    exactly when A lies in one of the (at most two) root classes
    A = +-2 sqrt(B) (mod p), so each g1 row is built by adding 1 along every
    p-th entry from each root, and each density count sums the member mask
    over the same slices.  The mask and the square-discriminant A's come
    from the column rule of `curve_family`.  The cost is
    O(sqrt(X) * X * sum over p < z of 2/p) strided updates; the power sums
    are exact Python integers read off a histogram of each row, so they
    match the streaming path bit for bit.
    """
    import numpy as np

    zprimes = _odd_primes_below(z)
    width = 2 * X + 1  # entry i holds A = i - X
    sums = {(i, j): 0 for i in range(kmax + 1) for j in range(kmax + 1)}
    density = {p: [0, 0, 0] for p in density_primes}
    n_total = 0
    n_square = 0
    for B in window_columns(X):
        mask = np.ones(width, dtype=bool)
        for p in _fourth_power_primes(B):
            mask[X % (p * p) :: p * p] = False
        singular = _column_rule(B, X, True)[1]
        square = set(_column_rule(B, X, False)[1]).difference(singular)
        mask[[A + X for A in singular]] = False
        nb = int(np.count_nonzero(mask))
        n_total += nb
        n_square += len(square)
        for p in density_primes:
            cD = sum(int(np.count_nonzero(mask[(r + X) % p :: p])) for r in _root_classes(p)[B % p])
            density[p][1] += cD
            if B % p == 0:
                density[p][0] += nb
                density[p][2] += cD
        mask[[A + X for A in square]] = False
        # a member's count is at most omega(|A^2 - 4B|) < 16 while
        # |A^2 - 4B| < 2^63, so int8 holds it; only the singular entries
        # (divisible by every p) can wrap, and the mask drops them
        g1row = np.zeros(width, dtype=np.int8)
        for p in zprimes:
            for r in _root_classes(p)[B % p]:
                g1row[(r + X) % p :: p] += 1
        hist = np.bincount(g1row[mask]).tolist()
        g2val = sum(1 for p in zprimes if B % p == 0)
        rowpow = [sum(c * g**i for g, c in enumerate(hist)) for i in range(kmax + 1)]
        for i in range(kmax + 1):
            for j in range(kmax + 1):
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
