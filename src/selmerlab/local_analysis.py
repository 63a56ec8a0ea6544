"""Reduction classification, the local factors, and the assembly of the
Tamagawa-ratio exponent from them.

At an odd prime exactly one of three things happens to y^2 = x^3+Ax^2+Bx:
good reduction (p divides neither B nor A^2-4B), multiplicative reduction
(p divides exactly one of them), or additive reduction (p divides both).
For multiplicative primes the local factor has a closed form; for additive
primes it is 2 c'_p / c_p from the Tamagawa numbers of the two isogenous
curves, which on the family's reduced models also has a closed form,
`additive_factor`, read off the branches of Tate's algorithm: a few
valuations and Legendre symbols.  Tate's algorithm itself (odd p only;
`tate_local_data`, which rescales if it ever meets a non-minimal model) is
the reference both closed forms are checked against, by `verify`'s
factor-table suite and by the tests.  Since a6 = 0 at each of its root
steps, every cubic it factors is T (T^2 + a T + b), whose multiple root is
0 if p | b, else -a/2 if p | a^2 - 4b, else none.  The real place has a
closed form.

Place 2 is read from Tate's algorithm at 2 (`tate_at_two`, every exit, on
general integral models), run on both curves of the isogeny.  Schaefer
(Class groups and Selmer groups, J. Number Theory 56, 1996, Lemma 3.8)
gives the size of the phi image from Tamagawa numbers alone:
|E'(Q_2)/phi E(Q_2)| = |E(Q_2)[phi]| c_2(E') / c_2(E) |alpha|_2^-1, where
alpha is the leading coefficient of phi on the formal groups of minimal
models.  On the family's models phi pulls the invariant differential of
E' back to -1 times that of E, so with m and m' the rescalings to minimal
models, size = 2 c_2(E') / c_2(E) 2^(m' - m) (`_size_at_two`).  The descent finds
its images at 2 by certified torsor scans (descent._dual_images), so
`--with-descent` and verify compare two independent computations there.
Every branch of Tate's algorithm reads a few 2-adic digits of the current
model, and in a B column the models' coefficients are linear in A, so a run
also names N, the digits of A that fix every branch: one run settles the
whole class A mod 2^N of its column.

Every local size is |H^1| of the local condition group at its place, a power
of 2 at most its class count (descent._class_count); the ledger reads each
size's exponent log2(size) - 1, so good places contribute 0 and the total,
the sum of the exponents, is the Tamagawa-ratio exponent.

`tamagawa_exponent` builds one curve's ledger from the factorization of
B (A^2-4B).  `column_ledger` gives the same totals for a whole B column
(the members of curve_family's `column_members`), as whole-column lists,
by sieving its odd places over the residue classes of A (Pomerance, The
quadratic sieve factoring algorithm, 1984: values of a polynomial are
sieved by its roots mod p) and place 2 over the 2-adic classes of A that
Tate's algorithm at 2 certifies.  Both read each rule from the one function that states it:
`mult_factor` or `classify_reduction`, `additive_factor` (so neither runs
Tate at odd p), `_size_at_two` and `factor_at_infinity`.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import compress
from math import isqrt
from operator import add
from typing import NamedTuple

from .core_arith import _odd_primes_below, _root_classes, _vp, is_prime, jacobi, quadratic_roots
from .curve_family import CurvePair, _column_mask, _column_rule
from .descent import INF_PLACE, _class_count, relevant_places

__all__ = [
    "ReductionType",
    "LedgerEntry",
    "LocalFactorLedger",
    "classify_reduction",
    "mult_factor",
    "additive_factor",
    "tamagawa_number",
    "tate_local_data",
    "tate_at_two",
    "factor_at_infinity",
    "factor_at_two",
    "tamagawa_exponent",
    "ColumnLedger",
    "column_ledger",
    "decompose_total",
]


class ReductionType(enum.Enum):
    GOOD = "Good"
    ADDITIVE = "Additive"
    MULT_SPLIT = "MultiplicativeSplit"
    MULT_NONSPLIT = "MultiplicativeNonsplit"

    @property
    def is_multiplicative(self) -> bool:
        return self in (ReductionType.MULT_SPLIT, ReductionType.MULT_NONSPLIT)


def _check_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")


def classify_reduction(A: int, B: int, p: int) -> ReductionType:
    """Reduction type of y^2 = x^3+Ax^2+Bx at an odd prime.

    Multiplicative reduction is split iff the tangent slopes at the node are
    rational: for p | A^2-4B that is (-2AB/p) = 1, and for p | B the node at
    the origin has tangent cone y^2 = A x^2, so the criterion is (A/p) = 1.
    """
    _check_odd_prime(p)
    d = A * A - 4 * B
    if B * d == 0:
        raise ValueError("singular curve")
    db, dd = B % p == 0, d % p == 0
    if not db and not dd:
        return ReductionType.GOOD
    if db and dd:
        return ReductionType.ADDITIVE
    split = jacobi((-2 * A * B) % p, p) == 1 if dd else jacobi(A % p, p) == 1
    return ReductionType.MULT_SPLIT if split else ReductionType.MULT_NONSPLIT


def mult_factor(A: int, B: int, p: int) -> int:
    """Local condition size in {1, 2, 4} at an odd multiplicative prime.

    p | A^2-4B: 4 if v_p(A^2-4B) is odd or the reduction is split, else 2.
    p | B:      1 if v_p(B) is odd or the reduction is split, else 2.
    """
    kind = classify_reduction(A, B, p)
    if not kind.is_multiplicative:
        raise ValueError(f"reduction at {p} is not multiplicative")
    split = kind is ReductionType.MULT_SPLIT
    if (A * A - 4 * B) % p == 0:
        return 4 if (_vp(A * A - 4 * B, p) % 2 == 1 or split) else 2
    return 1 if (_vp(B, p) % 2 == 1 or split) else 2


# ---------------------------------------------------------------------------
# Tate's algorithm at odd p for y^2 = x^3 + a2 x^2 + a4 x + a6
# ---------------------------------------------------------------------------


def _translate(a2: int, a4: int, a6: int, t: int) -> tuple[int, int, int]:
    # coefficients of f(x + t) for f = x^3 + a2 x^2 + a4 x + a6
    return (a2 + 3 * t, 3 * t * t + 2 * a2 * t + a4, ((t + a2) * t + a4) * t + a6)


def _multiple_root(a: int, b: int, p: int) -> int | None:
    """Multiple root in F_p of T (T^2 + a T + b), or None if separable:
    0 if p | b (then T^2 divides it), else the double root -a/2 of the
    quadratic factor if p | a^2 - 4b, else none."""
    if b % p == 0:
        return 0
    if (a * a - 4 * b) % p == 0:
        return -a * pow(2, -1, p) % p
    return None


def tate_local_data(A: int, B: int, p: int) -> tuple[str, int, int]:
    """(Kodaira symbol, Tamagawa number, v_p of the minimal discriminant)
    for y^2 = x^3 + A x^2 + B x at an odd prime p.

    Only the exits this family reaches are written: I0, I_n, III, I0*, I_n*
    and III*.  a6 = 0 at every root step: the model starts with a6 = 0; at
    an additive fibre the cubic is x^3 mod p, so the translation is by 0;
    the scaled cubic T (T^2 + (a2/p) T + a4/p^2) has a triple root only at
    0; and rescaling keeps a6 = 0.  So each cubic the algorithm factors is
    T (T^2 + a T + b), whose multiple root `_multiple_root` reads off
    exactly, and at I0* c_p = 1 + #roots = 2 + #roots of T^2 + a T + b.
    Nor does v(a6) ever end the search, so II, IV, IV* and II* (Silverman,
    Advanced Topics, IV.9, steps 3, 5, 8 and 10) cannot occur.  Likewise
    c_p is even at an additive fibre, while those four types have c_p = 1
    or 3: E_0(Q_p), an extension of the additive group F_p by the pro-p
    group E_1(Q_p), has no point of order 2, so the 2-torsion point (0, 0)
    lies outside it.  At p = 2 these fibres do occur, so this is odd p
    only; `tate_at_two` has every exit."""
    _check_odd_prime(p)
    a2, a4, a6 = A, B, 0
    while True:
        assert a6 == 0
        delta = 16 * a4 * a4 * (a2 * a2 - 4 * a4)  # -b2^2 b8 - 8 b4^3 at a6 = 0
        if delta == 0:
            raise ValueError("singular curve")
        n = _vp(delta, p)
        if n == 0:
            return "I0", 1, 0
        x0 = _multiple_root(a2, a4, p)
        assert x0 is not None, "p divides the discriminant but the cubic is separable mod p"
        a2, a4, a6 = _translate(a2, a4, a6, x0)
        if a2 % p:
            split = jacobi(a2 % p, p) == 1
            return f"I{n}", (n if split else (2 if n % 2 == 0 else 1)), n
        if _vp(4 * a2 * a6 - a4 * a4, p) < 3:
            return "III", 2, n
        # now v(a2) >= 1, v(a4) >= 2, a6 = 0
        al, be = a2 // p, a4 // p**2
        t0 = _multiple_root(al, be, p)
        if t0 is None:
            return "I0*", 2 + len(quadratic_roots(be, al, 1, p)), n
        third = (-al - 2 * t0) % p
        a2, a4, a6 = _translate(a2, a4, a6, p * t0)
        if third != t0 % p:
            # double root of the scaled cubic: fiber I_m* for some m >= 1
            m = 1
            while True:
                if m % 2:
                    assert a6 % p ** (m + 3) == 0
                    q = a6 // p ** (m + 3)
                    if q % p:
                        return f"I{m}*", (4 if jacobi(q % p, p) == 1 else 2), n
                else:
                    assert a4 % p ** (m // 2 + 2) == 0 and a6 % p ** (m + 3) == 0
                    alpha, beta = a2 // p, a4 // p ** (m // 2 + 2)
                    gamma = a6 // p ** (m + 3)
                    disc = beta * beta - 4 * alpha * gamma
                    if disc % p:
                        return f"I{m}*", (4 if jacobi(disc % p, p) == 1 else 2), n
                    t = -beta * pow(2 * alpha, -1, p) % p
                    a2, a4, a6 = _translate(a2, a4, a6, t * p ** (m // 2 + 1))
                m += 1
                if m > n:
                    raise RuntimeError("runaway fiber subloop; non-integral input?")
        else:
            # triple root, at t0 = 0, so a6 = 0 still
            if _vp(a4, p) == 3:
                return "III*", 2, n
            # non-minimal at p: rescale (x, y) -> (p^2 x, p^3 y) and restart
            assert a2 % p**2 == 0 and a4 % p**4 == 0 and a6 == 0
            a2, a4, a6 = a2 // p**2, a4 // p**4, a6 // p**6


def tamagawa_number(A: int, B: int, p: int) -> int:
    """Local component index c_p of y^2 = x^3+Ax^2+Bx at an odd prime."""
    return tate_local_data(A, B, p)[1]


# ---------------------------------------------------------------------------
# Tate's algorithm at 2 for y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6
# ---------------------------------------------------------------------------


def _rst(a: tuple, r: int, s: int, t: int) -> tuple:
    """(a1, a2, a3, a4, a6) after x = x' + r, y = y' + s x' + t (Silverman,
    The Arithmetic of Elliptic Curves, III.1, u = 1)."""
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r * r * r - t * a3 - t * t - r * t * a1,
    )


def _slide(d2: int, d4: int, d6: int, r: int) -> tuple[int, int, int]:
    """The slopes of (a2, a4, a6) after x = x' + r: d2 x^2 + d4 x + d6 at x + r."""
    return d2, d4 + 2 * r * d2, d6 + r * (d4 + r * d2)


def _digits(x: int, k: int) -> int:
    """The 2-adic digits of x that fix min(v_2(x), k)."""
    return k if x & ((1 << k) - 1) == 0 else (x & -x).bit_length()


def tate_at_two(a: tuple, da: tuple) -> tuple[str, int, int, int]:
    """(Kodaira symbol, c_2, m, N) for the integral model a = (a1, a2, a3,
    a4, a6) at 2, whose a2, a4 and a6 are linear in A with slopes da = (da2,
    da4, da6) while a1 and a3 do not depend on A: m is the number of
    rescalings to a minimal model, and every A' = A (mod 2^N) runs the same
    branches to the same symbol, c_2 and m.

    Tate's algorithm (Silverman, Advanced Topics, IV.9.4) with every exit:
    I0, I_n, II, III, IV, I0*, I_n*, IV*, III*, II*, and the rescale a_i ->
    a_i / 2^i of a non-minimal model.  At 2 the cubic's roots mod 2 are
    read off its coefficients, and a quadratic y^2 + y + q has a root iff q
    is even.  Each move (_rst) is by integers r, s, t read off a few digits.
    It is affine in the a_i with constant coefficients, and a1 and a3 move
    only by constants, so the slopes of a1 and a3 stay 0 and those of a2,
    a4, a6 change only with x = x' + r (_slide); after m rescalings they are
    da_i / 2^(i m), kept as integers scaled by 2^(6m).  A test that reads j
    digits of a_i, or of b6, b8 or the discriminant (polynomials in the
    a_i), is fixed by A mod 2^K as soon as the slope of each a_i it involves
    has valuation at least j - K; N is the largest such K.  v_2 of the
    discriminant is read in full only at the I_n exit.
    """
    m = N = sh = 0  # sh = 6m: the slopes are da_i / 2^sh
    d2, d4, d6 = da
    while True:
        a1, a2, a3, a4, a6 = a
        b2, b4 = a1 * a1 + 4 * a2, a1 * a3 + 2 * a4
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        delta = 9 * b2 * b4 * b6 - b2 * b2 * b8 - 8 * b4 * b4 * b4 - 27 * b6 * b6
        if delta == 0:
            raise ValueError("singular curve")
        # a read of j digits of a coefficient of slope d needs j + sh - v_2(d)
        # digits of A; an OR of slopes has the least valuation among them, and
        # _slide's integer combinations keep it
        every = sh - _vp(d2 | d4 | d6, 2)
        N = max(N, 1 + every)
        if delta & 1:
            return "I0", 1, m, N
        # move the singular point of the reduction to (0, 0)
        r, t = (a3 & 1, (a3 + a4) & 1) if a1 & 1 else (a4 & 1, (a4 & 1) * (1 + a2 + a4) + a6 & 1)
        a1, a2, a3, a4, a6 = a = _rst(a, r, 0, t)
        d2, d4, d6 = _slide(d2, d4, d6, r)
        if a1 & 1:  # b2 is a unit: multiplicative, split iff y^2 + a1 xy - a2 x^2 factors
            n = _vp(delta, 2)
            N = max(N, n + 1 + every)
            return f"I{n}", n if a2 & 1 == 0 else 2 - (n & 1), m, N
        v6 = sh - _vp(d6, 2)
        N = max(N, _digits(a6, 2) + v6)
        if a6 & 3:
            return "II", 1, m, N
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        N = max(N, _digits(b8, 3) + every)
        if b8 & 7:
            return "III", 2, m, N
        b6 = a3 * a3 + 4 * a6
        N = max(N, _digits(b6, 3) + v6, 3 + v6)
        if b6 & 7:  # y^2 + (a3/2) y - a6/4 with a3/2 odd
            return "IV", 1 if a6 >> 2 & 1 else 3, m, N
        a1, a2, a3, a4, a6 = a = _rst(a, 0, a2 & 1, 2 * (a6 >> 2 & 1))
        # the cubic T^3 + b T^2 + c T + d mod 2, with (b, c, d) = (a2/2, a4/4, a6/8)
        N = max(N, 2 + sh - _vp(d2, 2), 3 + sh - _vp(d4, 2), 4 + v6)
        b, c, d = a2 >> 1 & 1, a4 >> 2 & 1, a6 >> 3 & 1
        if (d + b * c) & 1:  # its discriminant is (d + bc)^2 mod 2: three distinct roots
            return "I0*", 1 + (d == 0) + ((1 + b + c + d) & 1 == 0), m, N
        if (b + c) & 1:  # a double root, at c: I_k*
            a = _rst(a, 2 * c, 0, 0)
            d2, d4, d6 = _slide(d2, d4, d6, 2 * c)
            k = 1
            while True:
                # at odd k the quadratic is y^2 + (a3/2^e) y - a6/2^(k+3), at even k
                # (a2/2) x^2 + (a4/2^e) x + a6/2^(k+3); a2/2 is odd
                q = a[4] >> k + 3 & 1
                N = max(N, k + 4 + sh - _vp(d6, 2))
                if k & 1:
                    e = (k + 3) >> 1
                    if a[2] >> e & 1:
                        return f"I{k}*", 2 if q else 4, m, N
                    a = _rst(a, 0, 0, q << e)
                else:
                    e = k // 2 + 2
                    N = max(N, e + 1 + sh - _vp(d4, 2))
                    if a[3] >> e & 1:
                        return f"I{k}*", 2 if q else 4, m, N
                    a = _rst(a, q << e - 1, 0, 0)
                    d2, d4, d6 = _slide(d2, d4, d6, q << e - 1)
                k += 1
        # a triple root, at b
        a = _rst(a, 2 * b, 0, 0)
        d2, d4, d6 = _slide(d2, d4, d6, 2 * b)
        v6 = sh - _vp(d6, 2)
        q = a[4] >> 4 & 1
        N = max(N, 5 + v6)
        if a[2] >> 2 & 1:  # y^2 + (a3/4) y - a6/16 with a3/4 odd
            return "IV*", 1 if q else 3, m, N
        a1, a2, a3, a4, a6 = a = _rst(a, 0, 0, -4 * q)
        N = max(N, _digits(a4, 4) + sh - _vp(d4, 2))
        if a4 & 15:
            return "III*", 2, m, N
        N = max(N, _digits(a6, 6) + v6)
        if a6 & 63:
            return "II*", 1, m, N
        # non-minimal at 2: rescale (x, y) -> (4x, 8y) and restart
        a = (a1 >> 1, a2 >> 2, a3 >> 3, a4 >> 4, a6 >> 6)
        d2, d4 = d2 << 4, d4 << 2
        m += 1
        sh += 6


# ---------------------------------------------------------------------------
# places 2 and infinity, and the ledger
# ---------------------------------------------------------------------------


def factor_at_infinity(A: int, B: int) -> int:
    """Real local condition size: 2 iff B > 0 and (A < 0 or A^2 < 4B), else 1.

    (Equivalently: the class -1 survives at the real place iff the quartic
    u^4 - 2A u^2 v^2 + (A^2-4B) v^4 takes a nonpositive value.)
    """
    if B * (A * A - 4 * B) == 0:
        raise ValueError("singular curve")
    return 2 if (B > 0 and (A < 0 or A * A < 4 * B)) else 1


def _size_at_two(A: int, B: int) -> tuple[int, int]:
    """(size, N): the size of the phi image at 2, 2 c_2(E') / c_2(E)
    2^(m' - m) from Tate's algorithm at 2 on E and E' (module docstring),
    and the digits N of A that fix it in a B column.  E is (0, A, 0, B, 0)
    and E' is taken as y^2 = (x + A)(x^2 - 4B), the translate x -> x + A of
    y^2 = x^3 - 2A x^2 + (A^2-4B) x, whose coefficients are linear in A too.
    A size that is not a power of 2 up to 8 raises AssertionError."""
    _, c, m, n = tate_at_two((0, A, 0, B, 0), (1, 0, 0))
    _, c2, m2, n2 = tate_at_two((0, A, 0, -4 * B, -4 * A * B), (1, 0, -4 * B))
    num, den = 2 * c2 << m2, c << m
    size = num // den
    if size * den != num or size & (size - 1) or not 0 < size <= 8:
        raise AssertionError(f"size 2 * {c2} 2^{m2} / ({c} 2^{m}) at 2 for ({A}, {B}) is not a power of 2 up to 8")
    return size, max(n, n2)


def factor_at_two(A: int, B: int) -> int:
    """2-adic local condition size: the size of the phi image, from Tate's
    algorithm at 2 on both curves (_size_at_two).  The descent's duality
    loop (descent._dual_images) and the exhaustive image local_image(A, B,
    2, "phi") find it by torsor scans instead."""
    return _size_at_two(A, B)[0]


@dataclass(frozen=True)
class LedgerEntry:
    place: object  # an odd prime, 2, or "inf"
    size: int
    additive: bool = False  # additive reduction at an odd prime

    @property
    def exponent(self) -> int:
        """log2(size) - 1, so that a place of size 2 contributes 0."""
        return self.size.bit_length() - 2


@dataclass(frozen=True)
class LocalFactorLedger:
    """Per-place local condition sizes and their base-2 exponents.

    Entries are the places of descent.relevant_places in its order, read by
    position: inf, 2, then the odd bad primes ascending, each sized a power
    of 2 at most its class count.  One pass checks both and sums total.
    """

    entries: tuple[LedgerEntry, ...]
    total: int = field(init=False)

    def __post_init__(self):
        if len(self.entries) < 2 or self.entries[1].place != 2:
            raise ValueError("a ledger starts with the places inf and 2")
        prev, total = 1, 0  # inf comes only before the int places, which ascend from 2
        for e in self.entries:
            v, size = e.place, e.size
            if type(v) is int and v > prev:
                prev = v
            elif v != INF_PLACE or prev > 1:
                raise ValueError(f"place {v!r} out of order: want inf, 2, then odd places ascending")
            if size & (size - 1) or not 0 < size <= _class_count(v):
                raise ValueError(f"size {size} not allowed at place {v}")
            total += e.exponent
        object.__setattr__(self, "total", total)


def additive_factor(A: int, B: int, p: int) -> int:
    """Local condition size 2 c'_p / c_p at an odd prime p dividing A and B,
    in closed form; at any other p, or on a singular or non-reduced model
    (p^2 | A with p^4 | B), ValueError.  Both ledgers read it; Tate's
    algorithm on both curves (`tamagawa_number`) gives the same size and is
    its reference in the tests.

    Since x^3 + A x^2 + B x = x^3 (mod p), Tate's algorithm (Silverman,
    Advanced Topics, IV.9) starts with t = 0 and a6 = 0.  Write b = v_p(B),
    d = v_p(D) for D = A^2 - 4B, and (n) for the Legendre symbol of the unit
    part n / p^v_p(n).  The companion (-2A, D) has A'^2 - 4B' = 16 B, so it
    swaps b and d.  Reducedness leaves five branches:
    - b = 1 (so d = 1): v_p(b8) = v_p(B^2) = 2, type III on both sides:
      c = c' = 2.
    - b = d = 3 (so v_p(A) >= 2): the scaled cubic is T^3 and v_p(a4) = 3,
      type III* on both sides: c = c' = 2.
    - b = d = 2: the scaled cubic T (T^2 + (A/p) T + B/p^2) is separable,
      type I0*, and c = 1 + #roots = 3 + (D); likewise c' = 3 + (B).
    - b = 2 < d (so v_p(A) = 1): the cubic has a double root, E is I_{d-2}*
      and E' is I_{2d-4}*.  At an I_m* fibre Tate's last step tests whether
      the far components are defined over F_p; for odd p they make up
      E(Q_p)[2^inf], as E_0(Q_p) is pro-p.  So c' = 4, since 16 B is a
      square ((A/p)^2 = 4 B/p^2 mod p).  For even d, c = 4 iff D is a
      square, iff (D) = 1; for odd d, iff (0, 0) is in 2E(Q_p): B = s^2 and
      one of A +- 2s is a square.  One of those two has valuation d - 1 and
      unit part D_u / (2 A/p) mod p, so the test is (2 (A/p) D) = 1.
    - d = 2 < b (so v_p(A) = 1): the companion of the branch above, so
      size = 4 / (its size): c = 4, and c' = 4 iff (B) = 1 for even b, or
      iff (-(A/p) B) = 1 for odd b (its 2 A'/p = -4 A/p and its D' = 16 B).
    """
    if p == 2 or A % p or B % p or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime dividing A and B")
    vb = _vp(B, p)
    if vb == 1:
        return 2
    D = A * A - 4 * B
    if B * D == 0:
        raise ValueError("singular curve")
    vd = _vp(D, p)

    def unit(n, v):
        return (n // p**v) % p

    if vb == 2 and vd == 2:
        return 2 * (3 + jacobi(unit(B, 2), p)) // (3 + jacobi(unit(D, 2), p))
    if vb == 2:
        s = unit(D, vd) * (2 * A // p if vd & 1 else 1)
        return 2 if jacobi(s, p) == 1 else 4
    if vd == 2:
        s = unit(B, vb) * (-A // p if vb & 1 else 1)
        return 2 if jacobi(s, p) == 1 else 1
    if vb == vd == 3:
        return 2
    raise ValueError(f"non-reduced pair (A, B) = ({A}, {B})")


def tamagawa_exponent(c: CurvePair) -> LocalFactorLedger:
    """Ledger of local factors whose exponents sum to the ratio exponent t(A, B).

    Its entries are the places of descent.relevant_places, in that order:
    the real place with its closed form, place 2 from factor_at_two (Tate's
    algorithm at 2 on both curves), then the odd places ascending.  An odd
    place that divides both B and A^2-4B is additive and reads 2 c'_p / c_p
    from `additive_factor`, as `column_ledger` does; the others are
    multiplicative and use the closed-form table.  The descent finds its
    images at 2 by torsor scans, so `--with-descent` checks this ledger's
    size there against an independent computation.
    """
    A, B, D = c.A, c.B, c.dualB
    entries = [LedgerEntry(INF_PLACE, factor_at_infinity(A, B)), LedgerEntry(2, factor_at_two(A, B))]
    for p in relevant_places(A, B)[2:]:  # the odd primes of B (A^2 - 4B), ascending
        additive = B % p == 0 and D % p == 0
        size = additive_factor(A, B, p) if additive else mult_factor(A, B, p)
        entries.append(LedgerEntry(p, size, additive))
    return LocalFactorLedger(tuple(entries))


def _place_two_sieve(B: int, lo: int, todo: bytearray) -> tuple[list[int], dict]:
    """(exponents, errors): the exponent log2(size) - 1 of the size at 2 of
    (A, B) at index A - lo of a list as long as todo, settled at every index
    that todo marks 1, and the ValueError or RuntimeError of each A whose run
    raised.  The first index left open runs _size_at_two(A, B), whose N
    digits of A fix every branch of Tate's algorithm at 2 on both curves in
    this column, and its exponent fills every later A' = A (mod 2^N) in one
    slice assignment, which also closes them in todo; so the loop runs once
    per 2-adic class, not per member.  A run that raised settles nothing.
    todo is consumed."""
    width = len(todo)
    exps = [0] * width
    errors = {}
    i = todo.find(1)
    while i >= 0:
        try:
            size, n = _size_at_two(lo + i, B)
        except (ValueError, RuntimeError) as exc:
            errors[lo + i] = exc
            todo[i] = 0
        else:
            step = 1 << n
            k = len(range(i, width, step))
            exps[i::step] = [size.bit_length() - 2] * k
            todo[i::step] = bytes(k)
        i = todo.find(1, i + 1)
    return exps, errors


class ColumnLedger(NamedTuple):
    """The ledger rows of one B column as whole-column lists, one entry per
    member in As (ascending A) whose ledger did not raise."""

    As: list[int]
    t: list[int]  # t_total
    g1: list[int]  # odd primes of A^2 - 4B
    g2: int  # odd primes of B, the same for the whole column
    n_additive: list[int]  # odd primes of both
    square: list[bool]  # A^2 - 4B is a square
    errors: dict  # A -> the ValueError or RuntimeError its ledger raised


def column_ledger(B: int, X: int, include_square_disc: bool = True) -> ColumnLedger:
    """The ledger of every member (A, B) of column B at height X, the members
    of curve_family.column_members, as whole-column lists (ColumnLedger),
    with the odd places found by one sieve instead of by factoring each
    curve, and place 2 by one run per 2-adic class of A.

    Each list is filled over every A in [-X, X] by whole-column passes and
    then cut to the members by the column's membership mask (one read of
    curve_family._column_rule, whose square-discriminant A's give the square
    flags), so no Python loop runs per member.  A curve whose ledger raised
    a ValueError or RuntimeError is left out of the lists and kept in errors
    with that exception.  g1 and g2 count the odd primes of A^2-4B and of B,
    n_additive those of both.  The sieve finds which A share a place, and
    each rule is read from the function that states it.  With D = A^2 - 4B,
    over the A's:
    - odd p | B (read off the sieve's prime list): p divides D exactly when
      p | A.  Those A are additive at p and read `additive_factor`, as
      sparse corrections at their indices; every other residue class a mod
      p reads `mult_factor(a, B, p)` once.
    - odd p not dividing B, up to isqrt(max |D|): p divides D exactly on the
      root classes A = r with r^2 = 4B (mod p) (core_arith._root_classes).
      Each hit divides p out of its running |D|; it gets +1 if v_p(D) is odd
      or `classify_reduction` calls the class split.
    - the cofactor: what is left of |D| once its 2s are gone has no prime
      factor up to isqrt(max |D|), so it is 1 or one prime q with q || D
      (q does not divide B), which adds +1 to t and to g1; one comprehension.
    - place 2 by one run of Tate's algorithm at 2 on both curves per 2-adic
      class of A (_place_two_sieve).
    - the real place: `factor_at_infinity` is 2 below one A and 1 from there
      on (1 throughout when B < 0), so a bisection over the members finds
      that A, and the column's exponents are 0 then -1.
    """
    rule = _column_rule(B, X)
    mask = _column_mask(X, include_square_disc, rule)
    lo, width = -X, 2 * X + 1
    rem = [abs(A * A - 4 * B) or 1 for A in range(lo, lo + width)]  # 1 at a singular A
    top = isqrt(max(rem, default=1))
    ps = _odd_primes_below(1 << max(top, abs(B)).bit_length())  # one cached list per power of 2
    t = [0] * width  # exponents of the odd places found by the sieve
    g1 = [0] * width
    n_add = [0] * width
    errors = {}
    bprimes = [p for p in ps if B % p == 0]
    for p in bprimes:
        for a in range(1, p):  # a nonsingular representative, multiplicative at p
            if mult_factor(a, B, p) == 1:
                for i in range((a - lo) % p, width, p):
                    t[i] -= 1
        for i in range(-lo % p, width, p):
            g1[i] += 1
            n_add[i] += 1
            n = rem[i]
            while n % p == 0:
                n //= p
            rem[i] = n
            if mask[i]:
                try:
                    t[i] += additive_factor(lo + i, B, p).bit_length() - 2
                except (ValueError, RuntimeError) as exc:
                    errors.setdefault(lo + i, exc)
    for p in ps[: bisect_right(ps, top)]:
        b = B % p
        if b == 0:
            continue
        for r in _root_classes(p, b):
            a = r if r * r != 4 * B else r + p  # at most one of r, r + p is singular
            split = classify_reduction(a, B, p) is ReductionType.MULT_SPLIT
            for i in range((r - lo) % p, width, p):
                n, v = rem[i], 0
                while n % p == 0:
                    n //= p
                    v += 1
                rem[i] = n
                g1[i] += 1
                if v & 1 or split:
                    t[i] += 1
    e2, failed = _place_two_sieve(B, lo, bytearray(mask))
    for A, exc in failed.items():
        errors.setdefault(A, exc)
    for A in errors:
        mask[A - lo] = 0
    cof = [(n & n - 1) > 0 for n in rem]  # the rest is not a power of 2: its odd part is > 1
    As = list(compress(range(lo, lo + width), mask))
    # members As[:k] have real size 2, the rest size 1
    k = bisect_left(As, -1, key=lambda A: -factor_at_infinity(A, B))
    einf = [0] * (As[k] - lo if k < len(As) else width)
    einf += [-1] * (width - len(einf))
    square = [False] * len(As)
    for A in rule[2] if include_square_disc else ():
        j = bisect_left(As, A)
        if j < len(As) and As[j] == A:  # not a member whose ledger raised
            square[j] = True
    return ColumnLedger(
        As,
        list(compress(map(add, map(add, t, cof), map(add, e2, einf)), mask)),
        list(compress(map(add, g1, cof), mask)),
        len(bprimes),
        list(compress(n_add, mask)),
        square,
        {A: errors[A] for A in sorted(errors)},
    )


def decompose_total(ledger: LocalFactorLedger) -> dict:
    """Split the ledger total into multiplicative, additive, 2-adic and real
    parts, by the reduction kinds the ledger recorded."""
    odd = ledger.entries[2:]  # after inf and 2
    return {
        "t_mult": sum(e.exponent for e in odd if not e.additive),
        "t_add": sum(e.exponent for e in odd if e.additive),
        "e2": ledger.entries[1].exponent,
        "einf": ledger.entries[0].exponent,
    }
