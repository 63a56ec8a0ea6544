import math
import random
from fractions import Fraction

import pytest

from selmerlab.curve_family import FamilyWindow, _fourth_power_primes, density_rho, enumerate_window
from selmerlab.statistics import (
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
        for p, both, o1, o2, neither in PrimeModel.build(z).perPrime:
            rho = both + o1
            rhs += 2 * rho * (1 - rho) - 2 * (both - rho * rho)
        assert lhs == rhs


def test_model_degree_limit():
    with pytest.raises(ValueError):
        model_mixed_moment(4, 3, 10)
    with pytest.raises(ValueError):
        model_mixed_moment(1, 0, 2)


def test_prime_model_rows_validate():
    m = PrimeModel.build(20)
    assert [row[0] for row in m.perPrime] == [3, 5, 7, 11, 13, 17, 19]


def test_empirical_matches_scan_exactly():
    X, z = 200, 30
    curves = list(enumerate_window(FamilyWindow(X)))
    scan = family_scan(X, z)
    assert scan["n_total"] == len(curves)
    assert scan["n_square_disc"] == sum(1 for c in curves if c.twoTorsionFull)
    for (k1, k2) in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (2, 2)]:
        stream = empirical_mixed_moment(iter(curves), k1, k2, z, xmax=X)
        grid = moment_report_from_scan(scan, k1, k2)
        assert stream.empirical == grid.empirical
        assert stream.sampleSize == grid.sampleSize == scan["n_stats"]


def _reference_family_scan(X, z, density_primes):
    # the former scan: form D = A^2 - 4B and test D % p for every (A, p);
    # power sums up to degree 4
    import numpy as np

    kmax = 4
    zprimes = [p for p in range(3, z) if all(p % q for q in range(2, p))]
    bmax = math.isqrt(X)
    A = np.arange(-X, X + 1, dtype=np.int64)
    sums = {(i, j): 0 for i in range(kmax + 1) for j in range(kmax + 1)}
    density = {p: [0, 0, 0] for p in density_primes}
    n_total = n_square = 0
    for B in range(-bmax, bmax + 1):
        if B == 0:
            continue
        mask = np.ones(A.shape, dtype=bool)
        for p in _fourth_power_primes(B):
            mask &= A % (p * p) != 0
        D = A * A - 4 * B
        mask &= D != 0
        nb = int(mask.sum())
        n_total += nb
        r = np.rint(np.sqrt(D.clip(min=0).astype(np.float64))).astype(np.int64)
        perfect = (r * r == D) & (D > 0)
        n_square += int((mask & perfect).sum())
        for p in density_primes:
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
@pytest.mark.parametrize("X", [0, 1, 16, 255, 256, 300, 1296, 6561])
@pytest.mark.parametrize("density_primes", [(3, 5, 7, 11, 13), (3, 11, 13)])
def test_family_scan_matches_discriminant_scan(X, density_primes):
    for z in (3, 4, 10, 30, 100):
        ref = _reference_family_scan(X, z, density_primes)
        for kmax in (0, 2, 4):
            # a power sum does not depend on kmax; the reference runs once at 4
            sums = {(i, j): v for (i, j), v in ref["power_sums"].items() if i <= kmax and j <= kmax}
            assert family_scan(X, z, density_primes, kmax) == {**ref, "power_sums": sums}


def test_empirical_zero_degree_is_one():
    curves = enumerate_window(FamilyWindow(20))
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
    with pytest.raises(ValueError):
        cdf_distance([1, 2], 15)
    with pytest.raises(ValueError):
        cdf_distance([], 100)


def test_cdf_distance_on_synthetic_normal():
    rng = random.Random(12)
    X = 10**4
    sigma = math.sqrt(2 * math.log(math.log(X)))
    values = [rng.gauss(0, sigma) for _ in range(40000)]
    assert cdf_distance(values, X) < 0.02


def test_normal_cdf_reference_values():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-9)
    assert normal_cdf(-2.0) == pytest.approx(0.02275013194817921, abs=1e-9)
