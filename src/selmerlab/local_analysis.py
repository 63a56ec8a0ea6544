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
0 if p | b, else -a/2 if p | a^2 - 4b, else none.  The place 2 is handled
by 2-adic local images from the descent machinery, never by Tate at 2, and
the real place has a closed form.

At 2 the two images are found together, by descent._dual_images, the one
duality loop that also gives the descent its local images at every finite
place.  By local Tate duality the phi image W and the dual image W^ in
Q_2*/Q_2*^2 = F_2^3 are exact orthogonal complements under the Hilbert
symbol (Schaefer, Class groups and Selmer groups, J. Number Theory 56,
1996), so |W| |W^| = 8 and a class confirmed on one side bounds the other:
only classes orthogonal to it remain candidates there.  Torsors are still
probed by certified scans; duality only chooses which probes are needed.
The loop also names N, the 2-adic digits of A that fixed every branch it
took once B is fixed, so inside a B column one run settles the whole class
A mod 2^N (see the descent module).

Every local size is |H^1| of the local condition group at its place, a power
of 2 at most its class count (descent._class_count); the ledger reads each
size's exponent log2(size) - 1, so good places contribute 0 and the total,
the sum of the exponents, is the Tamagawa-ratio exponent.

`tamagawa_exponent` builds one curve's ledger from the factorization of
B (A^2-4B).  `column_ledger` walks a whole B column (curve_family's
`column_members`) and gives the same totals by sieving its odd places
over the residue classes of A (Pomerance, The quadratic sieve factoring
algorithm, 1984: values of a polynomial are sieved by its roots mod p)
and place 2 over the 2-adic classes of A that the duality loop
certifies.  Both read each rule from the one function that states it:
`mult_factor` or `classify_reduction`, `additive_factor` (so neither runs
Tate) and `factor_at_infinity`.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from math import isqrt

from .core_arith import _odd_primes_below, _root_classes, _vp, is_prime, jacobi, quadratic_roots
from .curve_family import CurvePair, column_members
from .descent import INF_PLACE, _class_count, _dual_images, relevant_places

__all__ = [
    "ReductionType",
    "LedgerEntry",
    "LocalFactorLedger",
    "classify_reduction",
    "mult_factor",
    "additive_factor",
    "tamagawa_number",
    "tate_local_data",
    "factor_at_infinity",
    "factor_at_two",
    "tamagawa_exponent",
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
    only."""
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


def factor_at_two(A: int, B: int) -> int:
    """2-adic local condition size: the size of the phi image, from one run
    of the duality loop (descent._dual_images).  The exhaustive image is
    local_image(A, B, 2, "phi")."""
    return _dual_images(A, B, 2)[0].bit_count()


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
    the real place with its closed form, place 2 from factor_at_two, then
    the odd places ascending.  An odd place that divides both B and A^2-4B
    is additive and reads 2 c'_p / c_p from `additive_factor`, as
    `column_ledger` does; the others are multiplicative and use the
    closed-form table.  The descent finds its own images at 2, so
    `--with-descent` checks this ledger's.
    """
    A, B, D = c.A, c.B, c.dualB
    entries = [LedgerEntry(INF_PLACE, factor_at_infinity(A, B)), LedgerEntry(2, factor_at_two(A, B))]
    for p in relevant_places(A, B)[2:]:  # the odd primes of B (A^2 - 4B), ascending
        additive = B % p == 0 and D % p == 0
        size = additive_factor(A, B, p) if additive else mult_factor(A, B, p)
        entries.append(LedgerEntry(p, size, additive))
    return LocalFactorLedger(tuple(entries))


def _place_two_sieve(B: int, lo: int, width: int):
    """The phi image at 2 of (A, B) for lo <= A < lo + width, as a function
    called for ascending A's: the first A of a class that no run has settled
    runs _dual_images(A, B, 2), whose N digits of A fix its every branch in
    this column, and its image fills every later A' = A (mod 2^N) in one
    slice assignment.  A run that raised settles nothing."""
    images = [0] * width  # 0: not settled (an image always holds class 1)

    def image_at_two(A: int) -> int:
        i = A - lo
        w = images[i]
        if not w:
            w, _, n = _dual_images(A, B, 2)
            step = 1 << n
            images[i::step] = [w] * len(range(i, width, step))
        return w

    return image_at_two


def column_ledger(B: int, X: int, include_square_disc: bool = True) -> list:
    """(A, (t_total, g1, g2, n_additive)) of each member (A, B) of column B
    at height X, in the order of curve_family.column_members, with the odd
    places found by one sieve instead of by factoring each curve, and place
    2 by one run per 2-adic class of A.

    A curve whose ledger raised a ValueError or RuntimeError gets (A, that
    exception) instead.  g1 and g2 count the odd primes of A^2-4B and of B,
    n_additive those of both.  The sieve finds which A share a place, and
    each rule is read from the function that states it.  With D = A^2 - 4B,
    over the A's:
    - odd p | B (read off the sieve's prime list): p divides D exactly when
      p | A.  Those A are additive at p and read `additive_factor`; every
      other residue class a mod p reads `mult_factor(a, B, p)` once.
    - odd p not dividing B, up to isqrt(max |D|): p divides D exactly on the
      root classes A = r with r^2 = 4B (mod p) (core_arith._root_classes).
      Each hit divides p out of its running |D|; it gets +1 if v_p(D) is odd
      or `classify_reduction` calls the class split.
    - the cofactor: what is left of |D| once its 2s are gone has no prime
      factor up to isqrt(max |D|), so it is 1 or one prime q with q || D
      (q does not divide B), which adds +1 to t and to g1.
    - place 2 by 2-adic classes of A (_place_two_sieve); the real place from
      `factor_at_infinity`.
    """
    As = list(column_members(B, X, include_square_disc))
    if not As:
        return []
    lo = As[0]
    width = As[-1] - lo + 1
    rem = [abs(A * A - 4 * B) or 1 for A in range(lo, lo + width)]  # 1 at a singular A
    top = isqrt(max(rem))
    ps = _odd_primes_below(1 << max(top, abs(B)).bit_length())  # one cached list per power of 2
    t = [0] * width  # exponents of the odd places found by the sieve
    g1 = [0] * width
    additive = {}  # index -> the odd primes of gcd(A, B), ascending
    bprimes = [p for p in ps if B % p == 0]
    for p in bprimes:
        for a in range(1, p):  # a nonsingular representative, multiplicative at p
            if mult_factor(a, B, p) == 1:
                for i in range((a - lo) % p, width, p):
                    t[i] -= 1
        for i in range(-lo % p, width, p):
            g1[i] += 1
            additive.setdefault(i, []).append(p)
            n = rem[i]
            while n % p == 0:
                n //= p
            rem[i] = n
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
    g2 = len(bprimes)
    image_at_two = _place_two_sieve(B, lo, width)
    out = []
    for A in As:
        i = A - lo
        n = rem[i]
        cofactor = (n >> (n & -n).bit_length() - 1) > 1  # odd part of the rest
        adds = additive.get(i, ())
        try:
            total = t[i] + cofactor + sum(additive_factor(A, B, p).bit_length() - 2 for p in adds)
            total += image_at_two(A).bit_count().bit_length() - 2
        except (ValueError, RuntimeError) as exc:
            out.append((A, exc))
            continue
        total += factor_at_infinity(A, B).bit_length() - 2
        out.append((A, (total, g1[i] + cofactor, g2, len(adds))))
    return out


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
