"""The height-ordered family of curves y^2 = x^3 + A x^2 + B x.

Membership in the window of height X means |A| <= X, B^2 <= X, the cubic is
nonsingular (B and A^2-4B both nonzero), and the model is reduced: no prime
p has p^2 | A and p^4 | B simultaneously (A = 0 counts as divisible by every
p^2).  Enumeration is lexicographic in (B, A) and deterministic.

The column filter is written once, in `_column_rule`; `_column_mask` marks
its members over [-X, X], which `column_members` iterates and
`local_analysis.column_ledger` selects its whole-column lists with,
`column_count` and `column_unrank` count it in closed form, and
`statistics.family_scan` masks it.  `is_member` tests a single pair, and
`enumerate_window(X)` walks the columns of `window_columns(X)` in order.

`CurvePair(A, B)` takes only A and B: the companion's coefficients and
whether the two-torsion is all rational are worked out from them.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .core_arith import factor, is_prime, is_square

__all__ = [
    "CurvePair",
    "is_member",
    "enumerate_window",
    "count_window",
    "window_columns",
    "column_members",
    "column_count",
    "column_unrank",
    "density_delta",
    "density_rho",
    "ZETA6",
]

ZETA6 = math.pi**6 / 945.0


@dataclass(frozen=True)
class CurvePair:
    """A family member (A, B) with its isogeny-dual data.

    dualA, dualB are the coefficients of the companion curve
    y^2 = x^3 - 2A x^2 + (A^2-4B) x, and twoTorsionFull says that A^2-4B
    is a nonzero square; all three are derived from A and B.
    """

    A: int
    B: int
    dualA: int = field(init=False)
    dualB: int = field(init=False)
    twoTorsionFull: bool = field(init=False)

    def __post_init__(self):
        A, B = self.A, self.B
        d = A * A - 4 * B
        if B == 0 or d == 0:
            raise ValueError(f"singular pair (A, B) = ({A}, {B})")
        if not _is_reduced_model(A, B):
            raise ValueError(f"non-reduced pair (A, B) = ({A}, {B})")
        object.__setattr__(self, "dualA", -2 * A)
        object.__setattr__(self, "dualB", d)
        object.__setattr__(self, "twoTorsionFull", d > 0 and is_square(d))


def _fourth_power_primes(B: int) -> list[int]:
    """Primes p with p^4 | B."""
    out = []
    b = abs(B)
    p = 2
    while p**4 <= b:
        if b % p**4 == 0:
            out.append(p)
        while b % p == 0:  # divide p out, so that no composite p divides b later
            b //= p
        p += 1 if p == 2 else 2
    return out


def _is_reduced_model(A: int, B: int) -> bool:
    for p in _fourth_power_primes(B):
        if A == 0 or A % (p * p) == 0:
            return False
    return True


def is_member(A: int, B: int, X: int) -> bool:
    """Window membership test (see module docstring)."""
    if abs(A) > X or B == 0 or B * B > X:
        return False
    if A * A - 4 * B == 0:
        return False
    return _is_reduced_model(A, B)


def enumerate_window(X: int, include_square_disc: bool = True) -> Iterator[CurvePair]:
    """Yield each member of the window of height X exactly once, ordered
    lexicographically by (B, A); X must be nonnegative."""
    if X < 0:
        raise ValueError("window height must be nonnegative")
    for B in window_columns(X):
        for A in column_members(B, X, include_square_disc):
            yield CurvePair(A, B)


def count_window(X: int) -> tuple[int, float]:
    """Exact member count and the asymptotic prediction 4 X^1.5 / zeta(6).

    The count is closed-form per B column (see `column_count`), so this is
    O(sqrt(X)) and exact.
    """
    count = sum(column_count(B, X) for B in window_columns(X))
    predicted = 4.0 * X**1.5 / ZETA6
    return count, predicted


def window_columns(X: int) -> list[int]:
    """The B columns of the window, ascending: 0 < |B| <= sqrt(X)."""
    bmax = math.isqrt(X)
    return [B for B in range(-bmax, bmax + 1) if B]


def column_members(B: int, X: int, include_square_disc: bool = True) -> Iterator[int]:
    """An iterator over the A of the members (A, B) of column B, ascending.

    The A in [-X, X] that no reduction modulus divides, less the non-members
    among them (see `_column_rule`).  The height bound B^2 <= X is the
    caller's, as in `column_count`.
    """
    rule = _column_rule(B, X, not include_square_disc)
    return itertools.compress(range(-X, X + 1), _column_mask(X, include_square_disc, rule))


def _column_mask(X: int, include_square_disc: bool, rule: tuple) -> bytearray:
    """1 at index A + X for each member A of the column whose `_column_rule`
    is rule, 0 at every other A in [-X, X]: the multiples of its moduli by
    slice, its singular A's (and its square-discriminant A's, unless
    included) one by one.  `column_members` iterates it, and
    `local_analysis.column_ledger` selects its whole-column lists with it."""
    moduli, singular, square = rule
    mask = bytearray(b"\x01") * (2 * X + 1)
    for m in moduli:
        mask[X % m :: m] = bytes(len(range(X % m, 2 * X + 1, m)))  # index i is A = i - X
    for A in singular if include_square_disc else singular + square:
        mask[A + X] = 0
    return mask


def column_count(B: int, X: int, include_square_disc: bool = True, upto: int | None = None) -> int:
    """The number of members (A, B) of column B with A <= upto (default X).

    Inclusion-exclusion over the reduction moduli p^2 (p^4 | B) counts the
    A in [-X, min(upto, X)] that no modulus divides, less the few of them
    that are still not members (see `_column_rule`).  The height bound
    B^2 <= X is the caller's: a B beyond it is counted as a column of
    A-range [-X, X].  O(2^k) per call for k moduli.
    """
    if B == 0:
        return 0
    return _count_upto(*_column_counter(B, X, include_square_disc), X, X if upto is None else upto)


def column_unrank(B: int, X: int, include_square_disc: bool, ranks: list[int]) -> list[int]:
    """The A's of the members of column B at the given ranks (from 0, by
    ascending A); `ranks` must be ascending.

    One column rule serves every rank.  From the previous answer a, with
    c = column_count(upto=a), the walk steps a += r + 1 - c until c > r:
    the count rises by at most 1 per A, so no step passes the answer.
    """
    terms, extra = _column_counter(B, X, include_square_disc)
    if ranks and (B == 0 or ranks[0] < 0 or ranks[-1] >= _count_upto(terms, extra, X, X)):
        raise IndexError(f"rank outside column B={B} at X={X}")
    out = []
    a, c = -X - 1, 0
    for r in ranks:
        while c <= r:
            a += r + 1 - c
            c = _count_upto(terms, extra, X, a)
        out.append(a)
    return out


def _column_rule(B: int, X: int, list_square: bool = True) -> tuple[list[int], list[int], list[int]]:
    """The membership rule of column B: its reduction moduli p^2 (p^4 | B),
    and the sorted A in [-X, X] that no modulus divides yet are singular or
    have a square discriminant (a trial division of B, so [] unless list_square).

    The singular A are the roots A = +-2 sqrt(B).  A^2 - 4B = s^2 with s > 0
    means (A - s)(A + s) = 4B with both factors even, so A = u + B/u for the
    divisors u of B with B/u > u.  Every other A in [-X, X] that no modulus
    divides is a member (A = 0 is a multiple of every modulus).
    """
    moduli = [p * p for p in _fourth_power_primes(B)]

    def kept(A):
        return abs(A) <= X and not any(A % m == 0 for m in moduli)

    r = math.isqrt(B) if B > 0 else 0
    singular = [A for A in (-2 * r, 2 * r) if r * r == B and kept(A)]
    square = set()
    for d in range(1, math.isqrt(abs(B)) + 1) if list_square else ():
        if B % d == 0:
            for u in (d, -d, B // d, -(B // d)):
                if B // u > u and kept(u + B // u):
                    square.add(u + B // u)
    return moduli, singular, sorted(square)


def _column_counter(B: int, X: int, include_square_disc: bool) -> tuple[list[tuple[int, int]], list[int]]:
    # signed inclusion-exclusion terms (product, +-1) over every subset of the
    # moduli (distinct prime squares, so lcm = product; the empty subset is
    # (1, +1)), and the sorted non-members to subtract
    moduli, singular, square = _column_rule(B, X, not include_square_disc)
    terms = [(1, 1)]
    for m in moduli:
        terms += [(l * m, -sign) for l, sign in terms]
    return terms, (singular if include_square_disc else sorted(singular + square))


def _count_upto(terms: list[tuple[int, int]], extra: list[int], X: int, a: int) -> int:
    # the A in [-X, a] that no modulus divides, minus the non-members among them
    a = min(a, X)
    if a < -X:
        return 0
    n = sum(sign * (a // l - (-X - 1) // l) for l, sign in terms)
    return n - bisect.bisect_right(extra, a)


def density_delta(q: int, a: int, b: int) -> Fraction:
    """Product over p | q of the local residue-class density of (a, b) mod p.

    Per prime: p^4/(p^6-1) unless p divides both a and b, in which case
    (p^4-1)/(p^6-1).  q must be squarefree and positive.
    """
    if q < 1:
        raise ValueError("q must be a positive squarefree integer")
    out = Fraction(1)
    for p, e in factor(q).factors:
        if e > 1:
            raise ValueError(f"{q} is not squarefree")
        if a % p == 0 and b % p == 0:
            out *= Fraction(p**4 - 1, p**6 - 1)
        else:
            out *= Fraction(p**4, p**6 - 1)
    return out


def density_rho(p: int) -> Fraction:
    """Probability (p^5-1)/(p^6-1) that a fixed odd prime divides B
    (equivalently A^2-4B) over the family."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return Fraction(p**5 - 1, p**6 - 1)
