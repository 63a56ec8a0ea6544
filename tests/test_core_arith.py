import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from selmerlab import core_arith
from selmerlab.core_arith import (
    FactoredInteger,
    _SIEVE_LIMIT,
    _odd_primes_below,
    _vp,
    factor,
    is_prime,
    is_square,
    jacobi,
    primes_below,
    signed_squarefree_divisors,
    sqrt_mod_p,
    squarefree_part,
)

nonzero = st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0)


def trial_division(n):
    out = {}
    n = abs(n)
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(sorted(out.items()))


def test_factor_examples():
    assert factor(18) == FactoredInteger(1, ((2, 1), (3, 2)))
    assert factor(-12) == FactoredInteger(-1, ((2, 2), (3, 1)))
    assert factor(1) == FactoredInteger(1, ())


def test_factor_rejects_zero_and_huge():
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(ValueError):
        factor(1 << 127)


@settings(max_examples=300, deadline=None)
@given(nonzero)
def test_factor_roundtrip_and_oracle(n):
    f = factor(n)
    assert f.sign * math.prod(p**e for p, e in f.factors) == n
    assert f.factors == trial_division(n)


def test_factor_large_semiprime():
    p, q = 1_000_003, 999_983
    f = factor(p * q)
    assert f.factors == ((q, 1), (p, 1))


def test_factor_defers_to_sympy_past_the_proven_bound(monkeypatch):
    # 2^89 - 1 is a prime above 3.3 * 10^24, the bound to which the 12
    # Miller-Rabin witnesses are proven, so is_prime asks sympy, once: the
    # one line of the program that reads that dependency
    import sympy

    assert 2**89 - 1 > core_arith._MR_PROVEN_BOUND
    calls = []
    honest = sympy.isprime

    def counted(n):
        calls.append(n)
        return honest(n)

    monkeypatch.setattr(sympy, "isprime", counted)
    is_prime.cache_clear()
    assert factor(3 * (2**89 - 1)).factors == ((3, 1), (2**89 - 1, 1))
    assert calls == [2**89 - 1]


def _factor_by_the_full_list(n):
    """factor's trial division as it was when every call walked the odd
    primes below the sieve bound, whatever the size of n; sympy factors a
    cofactor with no prime below the bound."""
    import sympy

    out, m = {}, abs(n)
    e = (m & -m).bit_length() - 1
    if e:
        out[2], m = e, m >> e
    for p in _odd_primes_below(_SIEVE_LIMIT):
        if p * p > m:
            break
        while m % p == 0:
            out[p], m = out.get(p, 0) + 1, m // p
    for p, e in sympy.factorint(m).items():
        out[p] = out.get(p, 0) + e
    return tuple(sorted(out.items()))


def _near_the_bounds():
    # primes around the sieve bound 10^5 and around the powers of 2 that
    # bound the lazy prime lists (65521 < 2^16 < 65537, 1021 < 2^10 < 1031)
    near = [99989, 99991, 100003, 100019, 65521, 65537, 1021, 1031, 2]
    out = []
    for i, p in enumerate(near):
        for q in near[i:]:
            out += [p * q, 3 * p * q, p * q * 99991, p * q * 1021 * 65537]
    return out


def test_lazy_prime_list_matches_the_full_list():
    rng = random.Random(29)
    cases = [rng.randrange(2, 10**20) for _ in range(300)] + [rng.randrange(2, 10**8) for _ in range(300)]
    cases += _near_the_bounds()
    for n in cases:
        assert factor(n).factors == _factor_by_the_full_list(n), n


def test_factor_sieves_only_to_the_power_of_two_above_the_root(monkeypatch):
    bounds = []
    sieve = core_arith.primes_below
    monkeypatch.setattr(core_arith, "primes_below", lambda z: bounds.append(z) or sieve(z))
    _odd_primes_below.cache_clear()
    try:
        factor(3 * 1009 * 1013)  # isqrt = 1751 < 2^11
        factor(99991 * 100003)  # isqrt > 2^16, capped at the sieve bound
    finally:
        _odd_primes_below.cache_clear()
    assert bounds == [2048, _SIEVE_LIMIT]


def test_factor_tests_no_cofactor_below_the_square_of_the_trial_bound(monkeypatch):
    # trial division to z = 2048 leaves 1013 < z^2, which no prime below z
    # divides, so it is prime with no test; 100003 * 100019 > 10^10 has no
    # prime factor below the capped bound 10^5 and is still tested
    calls = []
    monkeypatch.setattr(core_arith, "is_prime", lambda n: calls.append(n) or is_prime(n))
    assert factor(3 * 1009 * 1013).factors == ((3, 1), (1009, 1), (1013, 1))
    assert calls == []
    assert factor(100003 * 100019).factors == ((100003, 1), (100019, 1))
    assert calls[0] == 100003 * 100019 > _SIEVE_LIMIT**2


def test_ord_p():
    # the valuation _vp: p = 2 reads the low bits, and 0 gets a sentinel
    # deeper than any bound a caller tests
    assert _vp(18, 3) == 2
    assert _vp(18, 5) == 0
    assert _vp(48, 2) == 4
    assert _vp(-48, 2) == 4
    assert _vp(-250, 5) == 3
    assert _vp(0, 3) > 1000


def test_legendre_examples():
    # at an odd prime the Jacobi symbol is the Legendre symbol
    squares_mod7 = {x * x % 7 for x in range(1, 7)}
    assert squares_mod7 == {1, 2, 4}
    assert jacobi(1, 7) == 1
    assert jacobi(3, 7) == -1
    assert jacobi(2, 7) == 1
    assert jacobi(14, 7) == 0
    assert jacobi(-3, 7) == 1
    with pytest.raises(ValueError):
        jacobi(3, 2)
    # at a composite it is no residue test: 2 is no square mod 15
    assert jacobi(2, 15) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 500), st.integers(1, 500), st.sampled_from([3, 7, 11, 13, 97]))
def test_legendre_multiplicative(a, b, p):
    if a % p and b % p:
        assert jacobi(a, p) * jacobi(b, p) == jacobi(a * b, p)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([3, 5, 13, 17, 101, 10007]), st.integers(1, 10**6))
def test_legendre_matches_euler_criterion(p, a):
    euler = pow(a, (p - 1) // 2, p)
    want = 0 if a % p == 0 else (1 if euler == 1 else -1)
    assert jacobi(a, p) == want


def test_squarefree_part():
    assert squarefree_part(18) == 2
    assert squarefree_part(-4) == -1
    assert squarefree_part(-50) == -2
    with pytest.raises(ValueError):
        squarefree_part(0)


@settings(max_examples=200, deadline=None)
@given(nonzero, st.integers(min_value=-300, max_value=300).filter(lambda m: m != 0))
def test_squarefree_part_square_invariant(n, m):
    assert squarefree_part(n * m * m) == squarefree_part(n)
    d = squarefree_part(n)
    assert n % d == 0 and is_square(n // d)


def test_signed_squarefree_divisors():
    assert signed_squarefree_divisors(3) == {1, -1, 3, -3}
    assert signed_squarefree_divisors(1) == {1, -1}
    assert signed_squarefree_divisors(-4) == {1, -1, 2, -2}
    with pytest.raises(ValueError):
        signed_squarefree_divisors(0)


@settings(max_examples=120, deadline=None)
@given(nonzero)
def test_signed_squarefree_divisor_count(n):
    omega = len(factor(n).primes)
    divs = signed_squarefree_divisors(n)
    assert len(divs) == 2 ** (omega + 1)
    assert all(squarefree_part(d) == d for d in divs)


def test_is_prime_against_sieve():
    small = set(primes_below(2000))
    for n in range(2000):
        assert is_prime(n) == (n in small)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**31 + 11))
    for n in range(40):
        assert primes_below(n) == [p for p in range(n) if is_prime(p)], n


def test_sqrt_mod_p():
    for p in (3, 5, 13, 17, 97, 10009):
        for a in range(0, min(p, 60)):
            r = sqrt_mod_p(a, p)
            if jacobi(a % p, p) == -1:
                assert r is None
            else:
                assert r is not None and r * r % p == a % p
