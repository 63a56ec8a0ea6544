"""Selmer groups of the two-isogeny pair via local solvability of quartic torsors.

A square class d (a squarefree integer) belongs to the group attached to the
isogeny out of y^2 = x^3 + A x^2 + B x exactly when the homogeneous space

    d w^2 = d^2 u^4 + a d u^2 v^2 + b v^4,   (u, v) != (0, 0),

has points over R and over Q_p at every relevant place.  On the forward side
the coefficients are (a, b) = (-2A, A^2-4B) and candidate classes are
supported on the primes of A^2-4B; on the dual side they are (A, B) with
support in the primes of B.

Local solvability over Q_p is decided chart by chart: a projective point can
be scaled so that u or v is a unit, which turns the torsor into
y^2 = (integral quartic in one variable) with x, y in Z_p.  Once the chart
v = 1 has failed, the chart u = 1 is needed only on x in pZ_p, since a point
with both coordinates units lies on the first chart.  At odd p that part has
a closed form: f(x) = d^3 (mod p^2) there for a unit d, and v_p(f) = 3 when
p | d, so it has a point iff d is a nonzero square mod p.  At p = 2 the chart
u = 1 is searched as f(2t) over all of Z_2, the one domain every scan covers.
Small p (and always p = 2) use an exhaustive residue search with exact
Hensel certificates.  A residue class x = x0 (mod p^k) fixes f(x) modulo
p^P with P = min(k + v_p(f'(x0)), 2k), by the Taylor expansion of the
integral polynomial f about x0, so the search drops a class as soon as the
valuation and the unit class of f are pinned at that precision, not only at
p^k.  Larger odd p use the same recursion driven by the mod-p shape of the
quartic: when the reduction is not a constant times a square the incomplete
character sum already forces a square value (complete for p >= 17), so only
multiple roots are descended into, and the search runs in polylog(p).  The
quartics it meets are even (no x or x^3 term) or have degree <= 2 mod p
after dividing out their content, so each root it needs is a root of a
quadratic in x or in x^2, in closed form (`_roots_mod_p`).  The two
deciders agree by construction and are cross-checked in the test suite.
Precision exhaustion raises; it never silently guesses.  Valuations come
from core_arith._vp, the one valuation loop.  The scan also names how many
p-adic digits of the chart's coefficients its decisions read, so every chart
that agrees with it to that many digits runs the same search, gets the same
verdict and names the same count.  That count keys the chart memo
(`_CHART_MEMO`, per process): a chart is normalized to g = (c0, 0, c2, 0,
c4), and g is scanned once.  Its verdict is stored under (p, v_p(c0)), then
n, then (c0, c2, c4) mod p^n, and every later chart whose g agrees mod p^n
replays it, whoever asks: the duality loop's probes at 2 and at odd p <= 13,
and the exhaustive images.  A hit returns exactly what a fresh scan would,
so the memo is a cache that no caller can observe.  The structural decider
above 13 is not memoized.

Square classes have one encoding, used by every module.  Q_v*/(Q_v*)^2 is
F_2^n, of size `_class_count(v)`; a class is an int index (`_class_index`): at
the real place bit 0 is the sign; at odd p bit 0 is a non-residue unit and bit
1 is p; at 2 the bits are the classes of -1, 5 and 2.  `_class_reps(v)[i]`
represents index i, products of classes XOR their indices, and a set of
classes, such as a local image, is a mask with bit i for class i.  A curve's
local conditions are one dict {v: (phi mask, phihat mask)} at inf, 2 and the
odd primes of B (A^2-4B) (`local_masks`), read by both sides; inf is an
ordinary place, since real solvability of a class depends only on its sign.

At a finite place the two masks are found together by one duality loop
(`_dual_images`, over the Hilbert pairing tables `_ORTH` and `_ORTH_ODD`),
which serves compute's `--with-descent` and the descent (`_selmer` given no
masks).  The ledgers find their size at 2 from Tate's algorithm at 2
instead (local_analysis), so at 2 the descent checks an independent
computation.  Testing every class on each side (`_local_image_tags`,
`_exhaustive_masks`) is the reference that `local_image` reads and that
verify and the tests pass explicitly, so duality is checked, not assumed.

A Selmer group is the kernel of an F_2-linear map from the span of -1 and
the kernel's primes to the product of Q_v*/(Q_v*)^2 modulo the images
(Schaefer 1996; Silverman X.4).  `_selmer` reads each generator's index once
per place with a proper image m and packs its syndromes, the values of a
basis of the functionals vanishing on m (`_syndrome_table`), into one int:
products XOR them, and the group is the products of syndrome 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal

from .core_arith import (
    _vp,
    factor,
    is_prime,
    jacobi,
    quadratic_roots,
    signed_squarefree_divisors,
    sqrt_mod_p,
    squarefree_part,
)

__all__ = [
    "TorsorQuartic",
    "SelmerSet",
    "SolverPrecisionError",
    "solvable_real",
    "solvable_padic",
    "local_image",
    "selmer_phi",
    "selmer_phihat",
    "descent_exponent",
    "sel2_lower_bound",
    "relevant_places",
    "local_masks",
    "INF_PLACE",
]

Side = Literal["phi", "phihat"]
INF_PLACE = "inf"

# Residue scan is used below this prime bound (and always at p = 2); the
# structural decider requires p >= 17 for its character-sum step.
_SCAN_MAX_P = 13


class SolverPrecisionError(RuntimeError):
    """A local solvability search exhausted its precision budget."""


@dataclass(frozen=True)
class TorsorQuartic:
    """Homogeneous space d w^2 = d^2 u^4 + a d u^2 v^2 + b v^4."""

    d: int
    a: int
    b: int

    def __post_init__(self):
        if self.b == 0:
            raise ValueError("torsor needs b != 0")
        if self.d == 0 or squarefree_part(self.d) != self.d:
            raise ValueError(f"torsor class {self.d} is not squarefree")
        bad = set(factor(self.d).primes) - set(factor(self.b).primes)
        if bad:
            raise ValueError(f"class support {sorted(bad)} outside the primes of b = {self.b}")


@dataclass(frozen=True)
class SelmerSet:
    """A finite subgroup of square classes with its F_2-dimension.

    The classes must hold 1 and be closed under multiplication mod squares,
    checked in O(#classes) by growing their span one new class at a time; so
    they form an F_2-space, of size a power of 2, and dim = log2(len(classes)).
    """

    side: Side
    classes: frozenset[int]
    dim: int = field(init=False)

    def __post_init__(self):
        # classes are squarefree, so the class of x*y is x*y / gcd(x, y)^2
        cl = self.classes
        if 1 not in cl:
            raise ValueError("identity class missing")
        span = {1}
        for x in cl:
            if x not in span:
                span |= {x * y // math.gcd(x, y) ** 2 for y in span}
                if len(span) > len(cl):
                    raise ValueError("classes not closed under multiplication mod squares")
        object.__setattr__(self, "dim", len(cl).bit_length() - 1)


# ---------------------------------------------------------------------------
# real place
# ---------------------------------------------------------------------------


def solvable_real(t: TorsorQuartic) -> bool:
    """Real solvability of the torsor, in closed form.

    For d > 0 the point (u, v, w) = (1, 0, sqrt(d)) always works.  For d < 0
    divide by v^4: the upward parabola q(s) = d^2 s^2 + a d s + b must take a
    value <= 0 at some s = (u/v)^2 >= 0, i.e. b <= 0, or the vertex lies at
    s > 0 with nonpositive minimum (a*d < 0 and a^2 >= 4b).
    """
    return _real_solvable(t.d, t.a, t.b)


def _real_solvable(d: int, a: int, b: int) -> bool:
    if d > 0:
        return True
    return b <= 0 or (a * d < 0 and a * a >= 4 * b)


# ---------------------------------------------------------------------------
# p-adic solvability of y^2 = f(x) with x, y in Z_p
# (integer coefficient tuples, ascending degree)
# ---------------------------------------------------------------------------


def _poly_eval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _poly_deriv(f):
    return tuple(i * c for i, c in enumerate(f) if i)


def _shift_scale(f, r: int, p: int):
    """Coefficients of g(t) = f(r + p t), computed exactly."""
    work = list(f)
    taylor = []
    while work:  # repeated synthetic division by (x - r)
        rem = work[-1]
        quot = [0] * (len(work) - 1)
        for i in range(len(work) - 2, -1, -1):
            quot[i] = rem
            rem = work[i] + rem * r
        taylor.append(rem)
        work = quot
    return tuple(c * p**k for k, c in enumerate(taylor))


def _zp_scan(f, p: int, kmax: int) -> tuple[bool, int]:
    """Exhaustive certified search for a Z_p point of y^2 = f(x), and the
    number n of p-adic digits of f's coefficients it read.

    Residue classes x = x0 (mod p^k) are refined until a Hensel certificate
    for a root of f fires (a point with y = 0), a value f(x0) is a p-adic
    square (a point with that literal x0), or the class is provably empty.
    Exceeding kmax raises.

    A class is empty once the valuation v and the unit class of f are the
    same at every point of it.  Since f has integer coefficients, Taylor
    expansion gives f(x0 + p^k t) = f(x0) + p^k t f'(x0) + sum_{j >= 2}
    p^{jk} t^j f^(j)(x0)/j! with integral f^(j)(x0)/j!, so f(x) = f(x0)
    (mod p^P) on the class with P = min(k + v_p(f'(x0)), 2k).  The class is
    dropped when v < P and either v is odd or the unit part is pinned to a
    non-square, which takes P - v >= 1 digits at odd p and >= 3 at p = 2.

    Each node takes v = v_p(f(x0)) and w = v_p(f'(x0)) (v infinite at an
    exact root, w finite there since f is separable) and tests, in this
    order, Hensel (v >= 2w + 1), then the square exit, then the drop.  Each
    decision reads f(x0) and f'(x0) to a precision it can name, and x0 is a
    fixed integer, so f's coefficients mod p^n fix them.  Hensel reads 2w +
    1 digits, which fix w and v >= 2w + 1.  Otherwise v <= 2w, and the node
    reads v + 3 digits at even v (v + 1 at odd p) and v + 1 at odd v: they
    fix v and the square test, and the v + 1 digits of f'(x0) keep w >=
    v/2, so Hensel stays off.  P needs w + 1 digits of f'(x0) when w < k
    and k otherwise, and the node has read k already: at k = 1 trivially,
    and deeper its parent class (P', v') was kept, either with v' >= P' >=
    k - 1, so that v >= k - 1 and the node read v + 1 or more, or at p = 2
    with an even v' < P' <= v' + 2, so that v = v' >= k - 3 and the node
    read v + 3.  Every node's read depends only on what it fixes, so every f
    that agrees with this one mod p^n, n the most any visited node read,
    runs the same search, leaves it at the same node by the same exit and
    names the same n.
    """
    while len(f) < 5:
        f = tuple(f) + (0,)
    c0, c1, c2, c3, c4 = f
    d0, d1, d2, d3 = c1, 2 * c2, 3 * c3, 4 * c4
    need = 3 if p == 2 else 1
    n = 0
    stack = [(x0, 1, p) for x0 in reversed(range(p))]
    while stack:
        x0, k, q = stack.pop()  # q = p**k
        c = (((c4 * x0 + c3) * x0 + c2) * x0 + c1) * x0 + c0
        v = _vp(c, p)
        w = _vp(((d3 * x0 + d2) * x0 + d1) * x0 + d0, p)
        if v >= 2 * w + 1:
            return True, max(n, 2 * w + 1)  # Hensel: a root of f within p^(v - w) of x0, so y = 0
        if not v & 1 and ((c >> v) & 7 == 1 if p == 2 else jacobi(c // p**v % p, p) == 1):
            return True, max(n, v + need)
        read = v + 1 if v & 1 else v + need  # digits of f(x0), and of f'(x0) to k
        if read > n:
            n = read
        prec = k + w if w < k else 2 * k  # f(x) = f(x0) mod p^prec on the class
        if v < prec and (v & 1 or prec - v >= need):
            continue  # valuation and unit class pinned: no solution here
        if k >= kmax:
            raise SolverPrecisionError(
                f"residue search at p={p} exhausted modulus p^{kmax} without a certificate"
            )
        k += 1
        stack.extend([(x0 + j * q, k, q * p) for j in range(p)])
    return False, n


def _trim(f, p):
    """f mod p as a list without zero leading coefficients."""
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _roots_mod_p(h, p):
    """The distinct roots in F_p, ascending, of an integer polynomial h that
    is linear or quadratic mod p or an even quartic mod p, the only shapes
    _zp_solvable_structural meets: a quartic's are +-sqrt of the roots of a
    quadratic in x^2."""
    h = _trim(h, p)
    if len(h) == 2:
        return [-h[0] * pow(h[1], -1, p) % p]
    if len(h) == 3:
        return quadratic_roots(h[0], h[1], h[2], p)
    assert len(h) == 5 and h[1] == h[3] == 0, f"no closed-form roots for {h} mod {p}"
    roots = set()
    for y in quadratic_roots(h[0], h[2], h[4], p):
        r = sqrt_mod_p(y, p)
        if r is not None:
            roots |= {r, -r % p}
    return sorted(roots)


def _as_const_times_square(fb, p):
    """Write a nonzero polynomial over F_p (trimmed, degree <= 2 or an even
    quartic) as c * h(x)^2 with h monic, or None."""
    deg = len(fb) - 1
    if deg == 0:
        return fb[0], [1]
    if deg % 2:
        return None
    c = fb[-1]
    inv = pow(2 * c, -1, p)
    if deg == 2:
        s = fb[1] * inv % p
        return (c, [s, 1]) if fb[0] == c * s * s % p else None
    assert fb[1] == fb[3] == 0, f"odd quartic {fb} mod {p}"
    t = fb[2] * inv % p  # c (x^2 + t)^2
    return (c, [t, 0, 1]) if fb[0] == c * t * t % p else None


def _zp_solvable_structural(f, p: int, budget: int) -> bool:
    """Z_p solvability of y^2 = f(x) for odd p >= 17 via mod-p shapes.

    If f mod p is not a constant times a perfect square, incomplete character
    sums force a nonzero square value (so a point exists).  Otherwise only
    roots of the square part can carry solutions and the search recurses into
    x = r + p t; y = 0 points at irrational p-adic roots are caught by
    simple-root lifting.

    Only two shapes need roots.  Write v for the least valuation of f's
    coefficients f_k, and call f even when f_1 = f_3 = 0.  Every f met here
    is even or has v(f_3) >= v + 1 and v(f_4) >= v + 2, so f / p^v mod p,
    whose roots the v = 1 step takes and whose shape the v = 0 step reads,
    is an even quartic or has degree <= 2, and `_roots_mod_p` solves both in
    closed form.  Proof: a chart (c0, 0, c2, 0, c4) is even, and dividing
    by p^(2 floor(v/2)) shifts every valuation alike.  The shifts take a
    multiple root r of f / p^v mod p, v = 0 or 1, to g(t) = f(r + p t), with
    g_k = p^k f^(k)(r) / k!.  At r = 0, g_k = p^k f_k, so an even f stays
    even.  Otherwise r is a root of multiplicity exactly 2: an even f / p^v
    with a nonzero multiple root r has one at -r != r too, so it is
    c (x^2 - r^2)^2 (mod p) with c a unit, and the other kind has degree
    <= 2 mod p and is not 0.  So v(g_2) = v + 2, hence v(g) <= v + 2, while
    g_3 = p^3 (f_3 + 4 r f_4) and g_4 = p^4 f_4 have v(g_3) >= v + 3 and
    v(g_4) >= v + 4: g keeps the bounds.
    """
    if budget < 0:
        raise SolverPrecisionError(f"structural solver at p={p} exceeded its recursion budget")
    v = min(_vp(c, p) for c in f if c)
    if v >= 2:
        e = v // 2 * 2
        return _zp_solvable_structural(tuple(c // p**e for c in f), p, budget - 1)
    if v == 1:
        h = tuple(c // p for c in f)
        if len(_trim(h, p)) <= 1:
            return False  # f(x) has odd valuation 1 for every x
        hprime = _poly_deriv(h)
        for r in _roots_mod_p(h, p):
            if _poly_eval(hprime, r) % p != 0:
                return True  # simple root of h lifts to an exact zero of f
            if _zp_solvable_structural(_shift_scale(f, r, p), p, budget - 1):
                return True
        return False
    decomp = _as_const_times_square(_trim(f, p), p)
    if decomp is None:
        return True  # some residue already gives a nonzero square value
    c, h = decomp
    if jacobi(c, p) == 1:
        return True  # any x off the roots of h works
    if len(h) == 1:
        return False  # constant non-square: value class pinned everywhere
    return any(_zp_solvable_structural(_shift_scale(f, r, p), p, budget - 1) for r in _roots_mod_p(h, p))


def _chart_solvable(f, p: int) -> bool:
    """Z_p solvability of y^2 = f(x) for one (biquadratic) torsor chart: the
    scan up to _SCAN_MAX_P, the structural decider above it."""
    if p <= _SCAN_MAX_P:
        return _chart_scan(f, p)
    _, f = _normal_chart(f, p)
    return _zp_solvable_structural(f, p, _disc_vp(f, p) + 10)


def _normal_chart(f, p: int):
    """(e, f / p^(2 floor(e/2))) for a biquadratic chart f: e is the least
    valuation of its coefficients, and the dividing out of p^2s is a
    y-rescaling.  disc = 16 c4 c0 (c2^2 - 4 c4 c0)^2 must not vanish."""
    c0, _, c2, _, c4 = f
    if not (c0 and c4 and c2 * c2 != 4 * c4 * c0):
        raise ValueError("degenerate chart quartic")
    e = _vp(c0 | c2 | c4, 2) if p == 2 else _vp(math.gcd(c0, c2, c4), p)
    s = e // 2 * 2
    if s:
        c0, c2, c4 = c0 // p**s, c2 // p**s, c4 // p**s
    return e, (c0, 0, c2, 0, c4)


def _disc_vp(g, p: int) -> int:
    """v_p(disc) of a biquadratic chart, disc = 16 c4 c0 (c2^2 - 4 c4 c0)^2."""
    c0, _, c2, _, c4 = g
    return _vp(16 * c4 * c0, p) + 2 * _vp(c2 * c2 - 4 * c4 * c0, p)


# (p, v_p(c0)) -> {n: {(c0, c2, c4) mod p^n: found}} for the normal charts
# (c0, 0, c2, 0, c4) that _zp_scan searched, per process
_CHART_MEMO: dict = {}


def _chart_scan(f, p: int) -> bool:
    """The scan's verdict on a biquadratic chart (see _zp_scan).  The budget
    kmax = v_p(disc) + 6 needs no more: a node expanded at depth K read at
    least K digits, and those keep v_p(disc) >= K - 5.

    The normal chart g = f / p^s (_normal_chart) is scanned once per
    process: every chart whose g agrees with it mod p^n, for the n digits
    its scan read, runs the same search and names the same n, so the verdict
    is looked up in _CHART_MEMO and a hit returns what a fresh scan would.
    The first node, x0 = 0, reads more than v_p(c0) digits, so n > v_p(c0)
    and v_p(c0) picks the bucket; a lookup tries the few n's stored there.
    A scan that raised stores nothing."""
    _, g = _normal_chart(f, p)
    c0, _, c2, _, c4 = g
    key = (p, _vp(c0, p))
    bucket = _CHART_MEMO.get(key)
    if bucket:
        for n, table in bucket.items():
            q = p**n
            found = table.get((c0 % q, c2 % q, c4 % q))
            if found is not None:
                return found
    found, n = _zp_scan(g, p, _disc_vp(g, p) + 6)
    q = p**n
    _CHART_MEMO.setdefault(key, {}).setdefault(n, {})[c0 % q, c2 % q, c4 % q] = found
    return found


def _torsor_solvable_at(d: int, a: int, b: int, p: int) -> bool:
    """Q_p solvability of the torsor with class d and coefficients (a, b)."""
    if d == 1:
        return True  # (u, v, w) = (1, 0, 1)
    # chart v = 1 (v a unit, u = x), then chart u = 1 (v = x); y = d*w absorbs
    # the class.  A point with u and v both units is (u/v, 1) in the first
    # chart, so once that chart has failed the second needs only x in pZ_p.
    # At odd p, f = d^3 (mod p^2) there for a unit d and v_p(f) = 3 when p | d;
    # at 2 it is searched as f(2t) = (d^3, 0, 4 a d^2, 0, 16 b d) over Z_2.
    if _chart_solvable((b * d, 0, a * d * d, 0, d**3), p):
        return True
    if p != 2:
        return jacobi(d % p, p) == 1
    return _chart_solvable((d**3, 0, 4 * a * d * d, 0, 16 * b * d), 2)


def solvable_padic(t: TorsorQuartic, p: int) -> bool:
    """Whether the torsor has a Q_p point."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _torsor_solvable_at(t.d, t.a, t.b, p)


# ---------------------------------------------------------------------------
# local images and Selmer sets
# ---------------------------------------------------------------------------


_UNIT_BITS = {1: 0, 7: 1, 5: 2, 3: 3}  # unit u mod 8 -> the bits of -1 and 5 in its class at 2


def _class_index(d: int, v) -> int:
    """Index of the class of a nonzero integer in Q_v*/(Q_v*)^2 (see the module docstring)."""
    if v == INF_PLACE:
        return int(d < 0)
    e = _vp(d, v)
    if v == 2:
        return _UNIT_BITS[(d >> e) & 7] | (e & 1) << 2
    return (jacobi((d // v**e) % v, v) == -1) | (e & 1) << 1


def _class_count(v) -> int:
    """|Q_v*/(Q_v*)^2|: 2 at inf, 8 at 2, 4 at an odd prime."""
    return 2 if v == INF_PLACE else 8 if v == 2 else 4


@lru_cache(maxsize=1 << 16)
def _class_reps(v) -> tuple[int, ...]:
    """The representatives of the classes at v, by index, once per place."""
    if v == INF_PLACE:
        return (1, -1)
    if v == 2:
        return (1, -1, 5, -5, 2, -2, 10, -10)
    n = 2
    while jacobi(n, v) != -1:
        n += 1
    return (1, n, v, n * v)


def _by_lowest_bit(n: int, empty: int, step) -> tuple:
    """t[m] for every mask m of n bits: t[0] = empty, and t[m] = step(t[m'], y)
    where y is the lowest set bit of m and m' is m without it."""
    t = [empty]
    for m in range(1, 1 << n):
        low = m & -m
        t.append(step(t[m ^ low], low.bit_length() - 1))
    return tuple(t)


# _TIMES[x][m]: the mask x*m (products are XORs; no place has over 8 classes)
_TIMES = tuple(_by_lowest_bit(8, 0, lambda t, y, x=x: t | 1 << (x ^ y)) for x in range(8))


def _mul_sets(s: int, m: int) -> int:
    """The mask {x*y : x in s, y in m}."""
    out = 0
    for x in range(8):
        if s >> x & 1:
            out |= _TIMES[x][m]
    return out


def _hilbert2(x: int, y: int) -> int:
    """0 if the Hilbert symbol (x, y)_2 of two class indices is 1, else 1.

    For x = 2^a u and y = 2^b w, (x, y)_2 = (-1)^(e(u)e(w) + a o(w) + b o(u))
    with e(u) = (u-1)/2 and o(u) = (u^2-1)/8 mod 2, i.e. the bits of -1 and 5.
    """
    return ((x & y) ^ (x >> 2 & y >> 1) ^ (x >> 1 & y >> 2)) & 1


def _hilbert_odd(x: int, y: int, eps: int) -> int:
    """0 if the Hilbert symbol (x, y)_p of two class indices at odd p is 1, else 1.

    For x = p^a u and y = p^b w, (x, y)_p = (-1)^(eps a b) (u/p)^b (w/p)^a
    with eps = (p-1)/2 mod 2 (Serre, A Course in Arithmetic, III.1.2); bit 0
    of an index is (u/p) = -1 and bit 1 is a.
    """
    return ((x & y >> 1) ^ (x >> 1 & y) ^ (eps & x >> 1 & y >> 1)) & 1


def _orth_table(pair, n: int) -> tuple:
    """t[m]: the classes (of n) pairing trivially with all of the mask m."""
    single = [sum(1 << y for y in range(n) if not pair(x, y)) for x in range(n)]
    return _by_lowest_bit(n, (1 << n) - 1, lambda t, x: t & single[x])


# the orthogonal complements under the Hilbert symbol: _ORTH at 2, and
# _ORTH_ODD[p >> 1 & 1] at odd p (p = 1, 3 mod 4)
_ORTH = _orth_table(_hilbert2, 8)
_ORTH_ODD = tuple(_orth_table(lambda x, y, e=eps: _hilbert_odd(x, y, e), 4) for eps in (0, 1))


def _dual_images(A: int, B: int, v: int) -> tuple[int, int]:
    """(W, W^) at a finite place v: the phi image W (torsor coefficients
    (-2A, A^2-4B)) and the dual image W^ (coefficients (A, B)) as masks.

    W and W^ are exact orthogonal complements under the Hilbert symbol
    (local Tate duality; Schaefer, Class groups and Selmer groups, J. Number
    Theory 56, 1996), so |W| |W^| = 8 at 2 and 4 at odd p.  Each starts as
    the span of 1 and its free class ([A^2-4B] in W, [B] in W^, the points
    with u = 0), and a side only probes classes orthogonal to everything the
    other side has confirmed.  A failed probe of t rules out the coset t W.
    Probing stops once the confirmed sizes multiply to the full size; if the
    candidates run out first, AssertionError is raised.
    """
    D = A * A - 4 * B
    if B * D == 0:
        raise ValueError("singular curve")
    orth, full = _ORTH if v == 2 else _ORTH_ODD[v >> 1 & 1], _class_count(v)
    sides = ((-2 * A, D), (A, B))
    got = [1 | 1 << _class_index(D, v), 1 | 1 << _class_index(B, v)]  # confirmed subgroups
    out = [0, 0]  # the cosets of got confirmed outside each image
    if got[0] & ~orth[got[1]]:
        raise AssertionError(f"free classes at {v} are not orthogonal at ({A}, {B})")
    reps = _class_reps(v)
    while got[0].bit_count() * got[1].bit_count() < full:
        for i in (1, 0):  # the dual side first: smaller coefficients
            open_ = orth[got[1 - i]] & ~got[i] & ~out[i]
            if open_:
                break
        else:
            raise AssertionError(f"images at {v} for ({A}, {B}) ran out of candidates before |W| |W^| = {full}")
        t = (open_ & -open_).bit_length() - 1
        if _torsor_solvable_at(reps[t], *sides[i], v):
            got[i] |= _TIMES[t][got[i]]
            out[i] = _mul_sets(out[i], got[i])
        else:
            out[i] |= _TIMES[t][got[i]]
    return got[0], got[1]


def _local_image_tags(a: int, b: int, v) -> int:
    """Mask of the classes whose torsor (with coefficients a, b) is Q_v-solvable.

    Every class is tested, and the result is asserted to be a subgroup (the
    image of a homomorphism).
    """
    if v == INF_PLACE:
        return 1 | _real_solvable(-1, a, b) << 1
    m = sum(1 << i for i, r in enumerate(_class_reps(v)) if _torsor_solvable_at(r, a, b, v))
    if _mul_sets(m, m) != m:
        raise AssertionError(f"local image at v={v} for (a, b)=({a}, {b}) is not a subgroup")
    return m


def local_image(A: int, B: int, v, side: Side) -> set[int]:
    """Subgroup of Q_v*/(Q_v*)^2 cut out by solvable torsors, as canonical reps.

    v is a prime or the string "inf".  Representatives are {1, -1} at the
    real place, {1, n, p, n p} with n the least positive non-residue at odd
    p, and {+-1, +-2, +-5, +-10} at 2.
    """
    if B * (A * A - 4 * B) == 0:
        raise ValueError("singular curve")
    m = _local_image_tags(*_side_coefficients(A, B, side), v)
    return {r for i, r in enumerate(_class_reps(v)) if m >> i & 1}


def _side_coefficients(A: int, B: int, side: Side) -> tuple[int, int]:
    if side == "phi":
        return (-2 * A, A * A - 4 * B)
    if side == "phihat":
        return (A, B)
    raise ValueError(f"unknown side {side!r}")


def relevant_places(A: int, B: int) -> list:
    """Places where a torsor over this curve can fail: inf, 2, odd p | B (A^2-4B)."""
    return [INF_PLACE, 2, *(p for p in factor(B * (A * A - 4 * B)).primes if p != 2)]  # primes ascend


def local_masks(A: int, B: int, places) -> dict:
    """{v: (phi mask, phihat mask)}: both sides' local images at each place,
    from the real solvability of each side's class -1 at inf and from
    _dual_images at every finite place, 2 included."""
    out = {}
    for v in places:
        if v == INF_PLACE:
            out[v] = 1 | _real_solvable(-1, -2 * A, A * A - 4 * B) << 1, 1 | _real_solvable(-1, A, B) << 1
        else:
            out[v] = _dual_images(A, B, v)
    return out


def _exhaustive_masks(A: int, B: int, places) -> dict:
    """local_masks with every class tested on each side (_local_image_tags),
    so that duality is checked, not assumed: the reference verify reads."""
    sides = [_side_coefficients(A, B, side) for side in ("phi", "phihat")]
    return {v: tuple(_local_image_tags(a, b, v) for a, b in sides) for v in places}


@lru_cache(maxsize=None)
def _syndrome_table(n: int, m: int) -> tuple[tuple[int, ...], int]:
    """(t, w) for a subgroup mask m of n classes: t[i] packs the values at i of
    a basis of the w functionals vanishing on m, so t is XOR-linear and 0 on m only."""
    basis, span = [], {0}
    for y in range(1, n):
        if y not in span and not any(m >> x & 1 and (x & y).bit_count() & 1 for x in range(n)):
            basis.append(y)
            span |= {s ^ y for s in span}
    return tuple(sum(((i & y).bit_count() & 1) << j for j, y in enumerate(basis)) for i in range(n)), len(basis)


def _selmer(A: int, B: int, side: Side, masks: dict | None = None) -> SelmerSet:
    """The side's group, the kernel of its syndrome map (module docstring),
    from a mask dict as `local_masks` gives, by default its own at
    relevant_places(A, B).  The forced class (the image of the kernel point)
    is the sign times the primes of odd valuation."""
    kernel = _side_coefficients(A, B, side)[1]  # A^2-4B or B
    masks = local_masks(A, B, relevant_places(A, B)) if masks is None else masks
    images = {v: m[int(side == "phihat")] for v, m in masks.items()}
    gens = [-1, *(v for v in images if v != INF_PLACE and kernel % v == 0)]
    syndromes = [0] * len(gens)
    shift = 0
    for v, m in images.items():
        n = _class_count(v)
        if m != (1 << n) - 1:  # a full image imposes no condition
            table, width = _syndrome_table(n, m)
            for i, g in enumerate(gens):
                syndromes[i] |= table[_class_index(g, v)] << shift
            shift += width
    cands = [(1, 0)]
    for g, s in zip(gens, syndromes):
        cands += [(d * g, t ^ s) for d, t in cands]
    if {d for d, _ in cands} != signed_squarefree_divisors(kernel):
        raise AssertionError(f"places {list(images)} miss a prime of the side {side} kernel {kernel}")
    classes = frozenset(d for d, s in cands if not s)
    forced = math.prod((q for q in gens[1:] if _vp(kernel, q) & 1), start=1 if kernel > 0 else -1)
    if forced not in classes:
        raise AssertionError(f"forced class {forced} missing from side {side} at ({A}, {B})")
    return SelmerSet(side, classes)


def selmer_phi(A: int, B: int, masks: dict | None = None) -> SelmerSet:
    """Everywhere-locally-solvable classes supported on A^2-4B, for torsor
    coefficients (-2A, A^2-4B); `masks` as from `local_masks`."""
    return _selmer(A, B, "phi", masks)


def selmer_phihat(A: int, B: int, masks: dict | None = None) -> SelmerSet:
    """Everywhere-locally-solvable classes supported on B, for torsor
    coefficients (A, B); `masks` as from `local_masks`."""
    return _selmer(A, B, "phihat", masks)


def descent_exponent(A: int, B: int) -> int:
    """dim of the forward Selmer group minus dim of the dual one."""
    masks = local_masks(A, B, relevant_places(A, B))
    return selmer_phi(A, B, masks).dim - selmer_phihat(A, B, masks).dim


def sel2_lower_bound(A: int, B: int) -> int:
    """Certified lower bound for the F_2-dimension of the full 2-Selmer group.

    The forward group maps onto a subgroup of the 2-Selmer group with kernel
    of dimension at most 1, so dim - 1 (clamped at 0) is always safe.
    """
    return max(0, selmer_phi(A, B).dim - 1)
