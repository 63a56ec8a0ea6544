import math
import sys
from fractions import Fraction

import pytest

from selmerlab import curve_family
from selmerlab.core_arith import is_square, primes_below
from selmerlab.curve_family import (
    CurvePair,
    column_count,
    column_members,
    column_unrank,
    count_window,
    density_delta,
    density_rho,
    enumerate_window,
    is_member,
)


def test_membership_examples():
    assert not is_member(4, 16, 100)  # 2^2 | 4 with 2^4 | 16
    assert not is_member(0, 16, 100)  # A = 0 counts as divisible by every p^2
    assert not is_member(2, 1, 100)  # A^2 - 4B = 0
    assert is_member(1, 3, 100)
    assert not is_member(1, 3, 2)  # B^2 > X
    assert not is_member(0, -1, 0)


def test_enumerate_counts():
    assert len(list(enumerate_window(4))) == 34
    assert len(list(enumerate_window(1))) == 6
    assert list(enumerate_window(0)) == []
    with pytest.raises(ValueError):
        list(enumerate_window(-1))


def test_constructors_take_only_their_inputs():
    # a derived field is worked out by its class; passing one is a TypeError
    from selmerlab.descent import SelmerSet
    from selmerlab.local_analysis import LedgerEntry, LocalFactorLedger
    from selmerlab.statistics import PrimeModel

    for make in (
        lambda: CurvePair(1, 3, dualA=-2),
        lambda: CurvePair(1, 3, dualB=5),
        lambda: CurvePair(1, 3, disc=7),
        lambda: CurvePair(1, 3, twoTorsionFull=True),
        lambda: LedgerEntry(3, 4, exponent=1),
        lambda: LocalFactorLedger((LedgerEntry(3, 4),), total=1),
        lambda: SelmerSet("phi", frozenset({1}), dim=0),
        lambda: PrimeModel(20, perPrime=()),
        lambda: enumerate_window(4, includeSquareDisc=False),
    ):
        with pytest.raises(TypeError):
            make()


def test_enumerate_order_and_uniqueness():
    curves = list(enumerate_window(30))
    keys = [(c.B, c.A) for c in curves]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for c in curves:
        assert is_member(c.A, c.B, 30)


def test_enumerate_matches_membership_bruteforce():
    X = 30
    brute = {(A, B) for B in range(-X, X + 1) for A in range(-X, X + 1) if is_member(A, B, X)}
    got = {(c.A, c.B) for c in enumerate_window(X)}
    assert got == brute


@pytest.mark.parametrize("X", [1, 4, 17, 60, 121, 300])
def test_count_window_matches_enumeration(X):
    count, predicted = count_window(X)
    assert count == len(list(enumerate_window(X)))
    assert predicted == pytest.approx(4 * X**1.5 / (math.pi**6 / 945))


def _column_members(B, X, include_square_disc):
    # brute force: every A of the column in [-X, X]; the B-height bound is
    # lifted so that columns with several fourth-power moduli fit a small X
    members = []
    for A in range(-X, X + 1):
        if not is_member(A, B, max(X, B * B)):
            continue
        d = A * A - 4 * B
        if not include_square_disc and d > 0 and is_square(d):
            continue
        members.append(A)
    return members


@pytest.mark.parametrize("B", [16, -16, 48, -48, 81, -81, 1296, -1296, 6561, -6561, 13122, 50625, 4, 9, 36, -1, -4, 3])
@pytest.mark.parametrize("include", [True, False])
def test_column_count_and_unrank_match_bruteforce(B, include):
    for X in (0, 1, 5, 40, 300):
        members = _column_members(B, X, include)
        assert list(column_members(B, X, include)) == members
        assert column_count(B, X, include) == len(members)
        for a in range(-X - 2, X + 3):
            assert column_count(B, X, include, upto=a) == sum(1 for A in members if A <= a)
        assert column_unrank(B, X, include, list(range(len(members)))) == members
        for r in (-1, len(members)):
            with pytest.raises(IndexError):
                column_unrank(B, X, include, [r])


def test_column_exclusions_are_exercised():
    # the brute-force columns above meet every kind of non-member the
    # closed form subtracts: moduli multiples, singular roots, square discs
    assert 0 not in _column_members(16, 40, True)  # A = 0 under a modulus
    assert 8 not in _column_members(16, 40, True)  # A^2 = 4B
    assert 10 in _column_members(16, 40, True) and 10 not in _column_members(16, 40, False)
    assert 0 in _column_members(-1, 5, True) and 0 not in _column_members(-1, 5, False)
    assert column_count(0, 10) == 0


def test_square_discs_are_listed_only_for_callers_that_drop_them():
    # with include_square_disc=True the counter, the unranker and the member
    # iterator read no square-discriminant A's, so the rule skips the trial
    # division that lists them (the column ledger lists them for its flags).
    # The spy counts the calls of the rule's `kept` closure through its
    # code object.
    kept = next(c for c in curve_family._column_rule.__code__.co_consts if getattr(c, "co_name", "") == "kept")
    B, X = 720, 1000  # 15 divisors up to isqrt(B), 2 A's each; not a square, so no singular A

    def kept_calls(run):
        seen = []

        def spy(frame, event, arg):
            if frame.f_code is kept:
                seen.append(frame.f_locals["A"])

        before = sys.gettrace()
        sys.settrace(spy)
        try:
            run()
        finally:
            sys.settrace(before)
        return len(seen)

    for include, want in ((True, 0), (False, 30)):
        assert kept_calls(lambda: column_count(B, X, include)) == want
        assert kept_calls(lambda: column_unrank(B, X, include, [0, 7, 100])) == want
        assert kept_calls(lambda: list(column_members(B, X, include))) == want
    assert len(curve_family._column_rule(B, X)[2]) == 24  # 12 A > 0 not under the modulus 4, and their negatives


def test_curvepair_derived_fields():
    c = CurvePair(1, 3)
    assert (c.dualA, c.dualB) == (-2, -11)
    assert not c.twoTorsionFull
    assert CurvePair(0, -1).twoTorsionFull  # A^2 - 4B = 4
    with pytest.raises(ValueError):
        CurvePair(2, 1)
    with pytest.raises(ValueError):
        CurvePair(4, 16)


def test_dual_coefficients():
    c = CurvePair(0, 1)
    assert (c.dualA, c.dualB) == (0, -4)
    c = CurvePair(1, 3)
    assert (c.dualA, c.dualB) == (-2, -11)
    with pytest.raises(ValueError):
        CurvePair(2, 1)


def test_dual_applied_twice_is_scaling():
    for A, B in [(0, 1), (1, 3), (-2, 5), (7, -9)]:
        c = CurvePair(A, B)
        # the companion's companion, (-2A', A'^2 - 4B'); (4, -16) for (-2, 5)
        # is no reduced pair, so it is worked out by hand
        A2, B2 = -2 * c.dualA, c.dualA**2 - 4 * c.dualB
        assert (A2, B2) == (4 * A, 16 * B)
        # the scaling (x, y) -> (4x, 8y) carries one model onto the other
        for x in range(-5, 6):
            lhs = (4 * x) ** 3 + A2 * (4 * x) ** 2 + B2 * (4 * x)
            rhs = 64 * (x**3 + A * x**2 + B * x)
            assert lhs == rhs


def test_density_delta_values():
    assert density_delta(3, 1, 0) == Fraction(81, 728)
    assert density_delta(3, 0, 0) == Fraction(80, 728)
    assert density_delta(1, 5, 7) == 1
    assert density_delta(15, 0, 0) == density_delta(3, 0, 0) * density_delta(5, 0, 0)
    with pytest.raises(ValueError):
        density_delta(12, 1, 1)
    with pytest.raises(ValueError):
        density_delta(0, 1, 1)


def test_density_rho_values():
    assert density_rho(3) == Fraction(242, 728)
    assert density_rho(5) == Fraction(3124, 15624)
    assert density_rho(7) == Fraction(16806, 117648)
    with pytest.raises(ValueError):
        density_rho(2)
    with pytest.raises(ValueError):
        density_rho(9)


@pytest.mark.parametrize("p", [p for p in primes_below(98) if p != 2])
def test_density_classes_sum_to_one(p):
    total = sum(density_delta(p, a, b) for a in range(p) for b in range(p))
    assert total == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 31])
def test_density_marginals_equal_rho(p):
    # both divisibility events have exact probability rho(p)
    pB = sum(density_delta(p, a, 0) for a in range(p))
    pD = sum(density_delta(p, a, b) for a in range(p) for b in range(p) if (a * a - 4 * b) % p == 0)
    assert pB == density_rho(p)
    assert pD == density_rho(p)
    # joint event: p | B and p | A^2-4B forces p | A
    assert density_delta(p, 0, 0) == Fraction(p**4 - 1, p**6 - 1)
