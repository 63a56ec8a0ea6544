import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from selmerlab.cli import histogram_lines
from selmerlab.curve_family import density_rho, enumerate_window
from selmerlab.local_analysis import tamagawa_exponent
from selmerlab.statistics import (
    _DENSITY_PRIMES,
    MomentReport,
    PrimeModel,
    cdf_distance,
    empirical_mixed_moment,
    family_scan,
    g1,
    g2,
    model_mixed_moment,
    model_mixed_moment_exact,
    moment_report_from_scan,
    normal_cdf,
    rho_sum,
)


def test_g1_examples():
    assert g1(1, 3) == 1  # A^2-4B = -11
    assert g1(1, 3, 10) == 0
    assert g1(1, 18) == 1  # -71 is prime
    assert g1(1, 18, 72) == 1
    with pytest.raises(ValueError):
        g1(2, 1)


def test_g2_examples():
    assert g2(1, 3) == 1
    assert g2(1, 18) == 1  # odd primes of 18: just 3
    assert g2(1, -2) == 0
    assert g2(0, 45, 5) == 1  # only 3 < 5
    with pytest.raises(ValueError):
        g2(1, 0)


def test_model_first_moments_vanish():
    for z in (4, 10, 50):
        assert model_mixed_moment_exact(1, 0, z) == 0
        assert model_mixed_moment_exact(0, 1, z) == 0
        assert model_mixed_moment_exact(0, 0, z) == 1


def test_model_single_prime_values():
    rho = density_rho(3)
    assert model_mixed_moment_exact(2, 0, 4) == rho * (1 - rho)
    assert model_mixed_moment_exact(1, 1, 4) == Fraction(80, 728) - rho * rho
    assert model_mixed_moment(2, 0, 4) == pytest.approx(0.22192, abs=2e-5)
    assert model_mixed_moment(1, 1, 4) == pytest.approx(-0.00061, abs=2e-5)


def test_model_table_entries_do_not_depend_on_degree():
    # every entry is convolved from lower-degree entries, so a moment read
    # off the shared degree-4 or degree-6 table equals its own-degree table
    from selmerlab.statistics import _model_centered_table

    for z in (4, 30, 100):
        for k in range(7):
            own = _model_centered_table(z, k)
            for k1 in range(k + 1):
                assert model_mixed_moment_exact(k1, k - k1, z) == own[(k1, k - k1)]


def _convolved_model_table(z, kmax):
    # reference: the centered moments convolved prime by prime in Fractions
    table = {(i, j): Fraction(int(i == j == 0)) for i in range(kmax + 1) for j in range(kmax + 1 - i)}
    for p, both, o1, o2, neither in PrimeModel(z).perPrime:
        rho = both + o1
        outcomes = ((neither, -rho, -rho), (o1, 1 - rho, -rho), (o2, -rho, 1 - rho), (both, 1 - rho, 1 - rho))
        step = {(r, s): sum(q * x**r * y**s for q, x, y in outcomes) for (r, s) in table}
        table = {
            (i, j): sum(
                math.comb(i, r) * math.comb(j, s) * table[(i - r, j - s)] * step[(r, s)]
                for r in range(i + 1)
                for s in range(j + 1)
            )
            for (i, j) in table
        }
    return table


@pytest.mark.parametrize("z, kmax", [(z, k) for z in (3, 4, 10, 30, 100) for k in (4, 6)] + [(1000, 4)])
def test_model_table_from_cumulants_matches_convolution(z, kmax):
    from selmerlab.statistics import _model_centered_table

    assert _model_centered_table(z, kmax) == _convolved_model_table(z, kmax)


def test_single_prime_low_cumulants_are_its_centered_moments():
    # kappa_2 and kappa_3 of one prime's pair equal its centered moments;
    # kappa_1 is its mean, and (d I, d J) scales degree n by d^n
    from selmerlab.statistics import _scaled_cumulants

    for row in PrimeModel(60).perPrime:
        p, both, o1, o2, neither = row
        rho = both + o1
        outcomes = ((neither, 0, 0), (o1, 1, 0), (o2, 0, 1), (both, 1, 1))
        d, kappa = _scaled_cumulants(row, 3)
        assert d == p**6 - 1
        assert kappa[(1, 0)] == kappa[(0, 1)] == rho * d
        for (r, s), k in kappa.items():
            if r + s >= 2:
                centered = sum(q * (x - rho) ** r * (y - rho) ** s for q, x, y in outcomes)
                assert Fraction(k, d ** (r + s)) == centered, (p, r, s)


def test_model_exchangeable():
    for (k1, k2) in [(2, 1), (3, 0), (2, 2), (4, 1)]:
        for z in (10, 30):
            assert model_mixed_moment_exact(k1, k2, z) == model_mixed_moment_exact(k2, k1, z)


def test_model_difference_variance_identity():
    # Var(D - D') = sum over p of [2 rho (1-rho) - 2 (pBoth - rho^2)]
    for z in (10, 30, 50):
        lhs = (
            model_mixed_moment_exact(2, 0, z)
            + model_mixed_moment_exact(0, 2, z)
            - 2 * model_mixed_moment_exact(1, 1, z)
        )
        rhs = Fraction(0)
        for p, both, o1, o2, neither in PrimeModel(z).perPrime:
            rho = both + o1
            rhs += 2 * rho * (1 - rho) - 2 * (both - rho * rho)
        assert lhs == rhs


def test_model_degree_limit():
    with pytest.raises(ValueError):
        model_mixed_moment(4, 3, 10)
    with pytest.raises(ValueError):
        model_mixed_moment(1, 0, 2)


def test_prime_model_rows_validate():
    m = PrimeModel(20)
    assert [row[0] for row in m.perPrime] == [3, 5, 7, 11, 13, 17, 19]
    for p, both, o1, o2, neither in m.perPrime:
        assert both == Fraction(p**4 - 1, p**6 - 1) and both + o1 == both + o2 == density_rho(p)
        assert both + o1 + o2 + neither == 1 and all(0 <= q <= 1 for q in (both, o1, o2, neither))


def test_empirical_matches_scan_exactly():
    X, z = 200, 30
    curves = list(enumerate_window(X))
    scan = family_scan(X, z)
    assert scan["n_total"] == len(curves)
    assert scan["n_square_disc"] == sum(1 for c in curves if c.twoTorsionFull)
    for (k1, k2) in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (2, 2)]:
        stream = empirical_mixed_moment(iter(curves), k1, k2, z, xmax=X)
        grid = moment_report_from_scan(scan, k1, k2)
        assert stream.empirical == grid.empirical
        assert stream.sampleSize == grid.sampleSize == scan["n_stats"]


def _reference_family_scan(X, z):
    # the former scan: form D = A^2 - 4B and test D % p for every (A, p);
    # power sums up to degree 4
    import numpy as np

    kmax = 4
    zprimes = [p for p in range(3, z) if all(p % q for q in range(2, p))]
    bmax = math.isqrt(X)
    A = np.arange(-X, X + 1, dtype=np.int64)
    sums = {(i, j): 0 for i in range(kmax + 1) for j in range(kmax + 1)}
    density = {p: [0, 0, 0] for p in _DENSITY_PRIMES}
    n_total = n_square = 0
    for B in range(-bmax, bmax + 1):
        if B == 0:
            continue
        mask = np.ones(A.shape, dtype=bool)
        for q in range(2, abs(B) + 1):  # composite q with q^4 | B exclude nothing new
            if B % q**4 == 0:
                mask &= A % (q * q) != 0
        D = A * A - 4 * B
        mask &= D != 0
        nb = int(mask.sum())
        n_total += nb
        r = np.rint(np.sqrt(D.clip(min=0).astype(np.float64))).astype(np.int64)
        perfect = (r * r == D) & (D > 0)
        n_square += int((mask & perfect).sum())
        for p in _DENSITY_PRIMES:
            cD = int((mask & (D % p == 0)).sum())
            density[p][1] += cD
            if B % p == 0:
                density[p][0] += nb
                density[p][2] += cD
        smask = mask & ~perfect
        g1row = np.zeros(A.shape, dtype=np.int64)
        for p in zprimes:
            g1row += D % p == 0
        g1row = g1row[smask]
        g2val = sum(1 for p in zprimes if B % p == 0)
        rowpow = [int((g1row**i).sum()) if i else int(smask.sum()) for i in range(kmax + 1)]
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


# 256 and 6561 bring in the columns B = +-16 and B = +-81 (a modulus p^2);
# with z = 10 the density primes 11 and 13 lie above the cut
# X = 2 and 4 bring in B = -1 (A = 0 has the square discriminant 4) and
# B = 1 (A = +-2 singular); at X = 1000 the columns B = +-16 exclude A = 0.
@pytest.mark.parametrize("X", [0, 1, 2, 4, 16, 255, 256, 300, 1000, 1296, 6561])
def test_family_scan_matches_discriminant_scan(X):
    # the reference counts the scan's density primes, in order, and the scan
    # is compared whole
    for z in (3, 4, 10, 30, 100):
        scan = family_scan(X, z)
        assert tuple(scan["density_counts"]) == _DENSITY_PRIMES
        assert scan == _reference_family_scan(X, z)


def test_empirical_zero_degree_is_one():
    curves = enumerate_window(20)
    rep = empirical_mixed_moment(curves, 0, 0, 10, xmax=20)
    assert rep.empirical == 1.0


def test_empirical_rejects_empty():
    with pytest.raises(ValueError):
        empirical_mixed_moment(iter(()), 1, 0, 10)


def test_moment_report_validation():
    with pytest.raises(ValueError):
        MomentReport(10, 10, 1, 0, 0.0, 0.0, 0, 1.0)


def test_rho_sum_monotone():
    assert rho_sum(4) == density_rho(3)
    assert rho_sum(100) > rho_sum(50) > rho_sum(10)


def test_cdf_distance_degenerate():
    assert cdf_distance([0] * 500, 100) == pytest.approx(0.5)
    assert cdf_distance(Counter({0: 500}), 100) == cdf_distance([0] * 500, 100)
    with pytest.raises(ValueError):
        cdf_distance([1, 2], 15)
    with pytest.raises(ValueError):
        cdf_distance([], 100)
    with pytest.raises(ValueError):
        cdf_distance(iter([]), 100)


def _synthetic_normal(X):
    rng = random.Random(12)
    sigma = math.sqrt(2 * math.log(math.log(X)))
    return [rng.gauss(0, sigma) for _ in range(40000)]


def test_cdf_distance_on_synthetic_normal():
    X = 10**4
    assert cdf_distance(_synthetic_normal(X), X) < 0.02


def _sorted_list_cdf_distance(values, X):
    # reference: one float per value, sorted, every index visited
    scale = math.sqrt(2.0 * math.log(math.log(X)))
    xs = sorted(v / scale for v in values)
    n = len(xs)
    dist = 0.0
    for i, x in enumerate(xs, start=1):
        phi = normal_cdf(x)
        dist = max(dist, abs(i / n - phi), abs((i - 1) / n - phi))
    return dist


def _assert_counted_matches_sorted_list(values, X):
    assert cdf_distance(values, X) == _sorted_list_cdf_distance(values, X)
    assert cdf_distance(Counter(values), X) == _sorted_list_cdf_distance(values, X)
    assert histogram_lines(Counter(values), X) == histogram_lines(values, X)


def test_counted_cdf_matches_sorted_list_on_a_full_window(e60):
    _assert_counted_matches_sorted_list([tamagawa_exponent(c).total for c in e60], 60)


@given(st.lists(st.integers(-4, 6), min_size=1, max_size=300), st.sampled_from([16, 100, 10**4, 10**8]))
def test_counted_cdf_matches_sorted_list_on_ties(values, X):
    _assert_counted_matches_sorted_list(values, X)


def test_counted_cdf_matches_sorted_list_on_floats():
    X = 10**4
    _assert_counted_matches_sorted_list(_synthetic_normal(X), X)


def test_normal_cdf_reference_values():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-9)
    assert normal_cdf(-2.0) == pytest.approx(0.02275013194817921, abs=1e-9)


def test_root_classes_are_the_roots_of_r2_minus_4b():
    # every residue b mod every odd prime below 200, against a full sweep of r
    from selmerlab.core_arith import _root_classes, primes_below

    for p in primes_below(200)[1:]:
        for b in range(p):
            assert _root_classes(p, b) == tuple(r for r in range(p) if (r * r - 4 * b) % p == 0), (p, b)
