"""Small-degree polynomial arithmetic over F_p (internal).

Polynomials are coefficient lists in ascending degree.  Everything here is
deterministic: the equal-degree split sweeps shifts in a fixed order.
"""

from __future__ import annotations

from .core_arith import sqrt_mod_p

__all__ = [
    "pmod_trim",
    "pmod_rem",
    "pmod_gcd",
    "pmod_powmod",
    "quadratic_roots",
    "roots_mod_p",
]


def pmod_trim(f, p):
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def pmod_rem(a, b, p):
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    while len(a) - 1 >= db:
        if a[-1] == 0:
            a.pop()
            continue
        coef = a[-1] * inv % p
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * c) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def pmod_gcd(a, b, p):
    a, b = pmod_trim(a, p), pmod_trim(b, p)
    while b:
        a, b = b, pmod_rem(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _pmod_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return pmod_rem(out, mod, p)


def pmod_powmod(base, e, mod, p):
    result = [1]
    base = pmod_rem(list(base), mod, p)
    while e:
        if e & 1:
            result = _pmod_mulmod(result, base, mod, p)
        e >>= 1
        if e:
            base = _pmod_mulmod(base, base, mod, p)
    return result


def _pmod_div_exact(a, b, p):
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    for shift in range(len(out) - 1, -1, -1):
        coef = a[shift + len(b) - 1] * inv % p
        out[shift] = coef
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * c) % p
    return out


def quadratic_roots(c0, c1, c2, p):
    """Roots in F_p of c2 x^2 + c1 x + c0 (p odd, c2 a unit mod p)."""
    disc = (c1 * c1 - 4 * c2 * c0) % p
    r = sqrt_mod_p(disc, p)
    if r is None:
        return []
    inv = pow(2 * c2, -1, p)
    return sorted({(-c1 + r) * inv % p, (-c1 - r) * inv % p})


def _split_linear_product(g, p):
    # g: monic product of distinct linear factors; returns the roots.
    if len(g) <= 1:
        return []
    if len(g) == 2:
        return [(-g[0]) % p]
    if len(g) == 3:
        return quadratic_roots(g[0], g[1], g[2], p)
    half = (p - 1) // 2
    for delta in range(p):
        h = pmod_powmod([delta, 1], half, g, p)
        h = list(h) if h else [0]
        h[0] = (h[0] - 1) % p
        h = pmod_trim(h, p)
        if not h:
            continue
        d = pmod_gcd(g, h, p)
        if 0 < len(d) - 1 < len(g) - 1:
            rest = _pmod_div_exact(g, d, p)
            return sorted(set(_split_linear_product(d, p)) | set(_split_linear_product(pmod_trim(rest, p), p)))
    raise RuntimeError(f"failed to split linear product mod {p}")


def roots_mod_p(f, p):
    """Distinct roots in F_p of an integer polynomial not vanishing mod p."""
    fb = pmod_trim(f, p)
    if len(fb) <= 1:
        return []
    if len(fb) == 2:
        return [(-fb[0] * pow(fb[1], -1, p)) % p]
    if len(fb) == 3:
        return quadratic_roots(fb[0], fb[1], fb[2], p)
    xp = pmod_powmod([0, 1], p, fb, p)
    xp = list(xp) + [0] * max(0, 2 - len(xp))
    xp[1] = (xp[1] - 1) % p
    xp = pmod_trim(xp, p)
    if not xp:
        g = fb
    else:
        g = pmod_gcd(fb, xp, p)
    return _split_linear_product(g, p)
