import functools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from selmerlab import descent, local_analysis
from selmerlab.cli import RECORD_FIELDS, curve_record
from selmerlab.core_arith import _vp, factor, is_square, jacobi, quadratic_roots
from selmerlab.curve_family import CurvePair, column_members, enumerate_window, window_columns
from selmerlab.descent import INF_PLACE, descent_exponent, local_image, relevant_places
from selmerlab.local_analysis import (
    LedgerEntry,
    LocalFactorLedger,
    ReductionType,
    classify_reduction,
    decompose_total,
    factor_at_infinity,
    factor_at_two,
    mult_factor,
    tamagawa_exponent,
    tamagawa_number,
    tate_local_data,
)


def test_classification_examples():
    assert classify_reduction(1, 3, 5) is ReductionType.GOOD
    assert classify_reduction(3, 3, 3) is ReductionType.ADDITIVE
    assert classify_reduction(1, 3, 3) is ReductionType.MULT_SPLIT
    assert classify_reduction(2, 3, 3) is ReductionType.MULT_NONSPLIT
    with pytest.raises(ValueError):
        classify_reduction(1, 3, 2)


def test_split_criterion_matches_point_counts():
    # multiplicative reduction is split iff the reduced curve has p - 1
    # nonsingular points over F_p
    rng = random.Random(4)
    checked = 0
    for _ in range(300):
        A, B, p = rng.randint(-30, 30), rng.randint(-30, 30), rng.choice([3, 5, 7, 11, 13])
        if B == 0 or A * A == 4 * B or B * (A * A - 4 * B) % (p * p) == 0:
            continue
        kind = classify_reduction(A, B, p)
        if not kind.is_multiplicative:
            continue
        count = 1  # point at infinity
        dbl = None
        for x in range(p):
            fx = (x**3 + A * x**2 + B * x) % p
            dfx = (3 * x * x + 2 * A * x + B) % p
            if fx == 0 and dfx == 0:
                dbl = x
                continue
            count += sum(1 for y in range(p) if y * y % p == fx)
        assert dbl is not None
        checked += 1
        assert (count == p - 1) == (kind is ReductionType.MULT_SPLIT), (A, B, p)
    assert checked > 60


def test_kodaira_indices():
    # the multiplicative pair at p is I_n / I_n' with n = v(D) + 2 v(B) and
    # n' = 2 v(D) + v(B), D = A^2 - 4B
    for A, B, p, n, ndual in ((1, 3, 3, 2, 1), (1, 3, 11, 1, 2), (1, 18, 3, 4, 2)):
        assert tate_local_data(A, B, p)[0] == f"I{n}"
        assert tate_local_data(-2 * A, A * A - 4 * B, p)[0] == f"I{ndual}"
    assert tate_local_data(1, 3, 5)[0] == "I0"


def test_mult_factor_values():
    assert mult_factor(1, 3, 11) == 4
    assert mult_factor(1, 3, 3) == 1
    # split I_4 / I_2 pair: c = 4, c' = 2, so the size is 2*2/4 = 1
    assert tate_local_data(1, 18, 3) == ("I4", 4, 4)
    assert tate_local_data(-2, -71, 3) == ("I2", 2, 2)
    assert mult_factor(1, 18, 3) == 1
    # even order, nonsplit: size 2
    assert mult_factor(2, 10, 3) == 2


def test_tamagawa_number_examples():
    assert tamagawa_number(1, 3, 5) == 1
    assert tamagawa_number(1, 3, 3) == 2
    assert tamagawa_number(1, 3, 11) == 1
    with pytest.raises(ValueError):
        tamagawa_number(2, 1, 3)


def test_tate_symbols_match_index_formulas(e60_sample):
    for c in e60_sample[:60]:
        for p in relevant_places(c.A, c.B)[2:]:
            if not classify_reduction(c.A, c.B, p).is_multiplicative:
                continue
            vdisc, vb = _vp(c.dualB, p), _vp(c.B, p)
            n, ndual = vdisc + 2 * vb, 2 * vdisc + vb
            sym, _, vdelta = tate_local_data(c.A, c.B, p)
            assert sym == f"I{n}" and vdelta == n
            symd, _, vd = tate_local_data(c.dualA, c.dualB, p)
            assert symd == f"I{ndual}" and vd == ndual


def test_tate_detects_nonminimal_model():
    # (4A, 16B) is non-minimal at 2 only; at odd p it can be forced by scaling
    sym, c, v = tate_local_data(9 * 1, 81 * 3, 3)  # y^2 = x^3 + 9x^2 + 243x, v3(disc) >= 12
    sym0, c0, v0 = tate_local_data(1, 3, 3)
    assert (sym, c, v) == (sym0, c0, v0)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_multiple_root_step_against_brute_force(p):
    # Tate's root steps meet only f = T (T^2 + a T + b): its multiple root is
    # the r with f(r) = f'(r) = 0, and on separable f (an I0* fibre) the
    # count c_p = 1 + #roots of f is 2 + #roots of the quadratic factor
    for a in range(p):
        for b in range(p):
            roots = [r for r in range(p) if (r**3 + a * r * r + b * r) % p == 0]
            double = [r for r in roots if (3 * r * r + 2 * a * r + b) % p == 0]
            assert len(double) <= 1
            got = local_analysis._multiple_root(a, b, p)
            assert got == (double[0] if double else None), (a, b, p)
            if got is None:
                assert 2 + len(quadratic_roots(b, a, 1, p)) == 1 + len(roots), (a, b, p)


_FIBER_COMPONENTS = {"II": 1, "III": 2, "IV": 3, "I0*": 5, "IV*": 7, "III*": 8, "II*": 9}


def test_ogg_formula_at_additive_fibers():
    # Ogg's formula v(Delta_min) = f + m - 1, with conductor exponent f = 2
    # for every additive fiber at p >= 5 and m its number of components
    # (Silverman, Advanced Topics, IV.11; I_n* has n + 5).  Family curves
    # with p^k | A and p^k | B give I0*, III, I_n* and III*.  They never
    # give II, IV, IV* or II*: the 2-torsion point (0, 0) maps into the
    # component group, of order 1 or 3 there, with E_0(Q_p) 2-torsion-free.
    rng = random.Random(1511)
    seen = set()
    checked = 0
    for p in (5, 7, 11, 13, 17, 19, 23):
        for _ in range(1200):
            k = rng.randint(1, 4)
            A = p ** rng.randint(k, 6) * rng.randint(-20, 20)
            B = rng.choice((1, -1)) * p ** rng.randint(k, k + 4) * rng.randint(1, 20)
            try:
                sym, _, v = tate_local_data(A, B, p)
            except ValueError:  # singular
                continue
            if sym[1:].isdigit():
                continue  # I0 or I_n: the minimal model has good or multiplicative reduction
            m = _FIBER_COMPONENTS.get(sym) or int(sym[1:-1]) + 5
            assert v == 2 + m - 1, (A, B, p, sym, v)
            seen.add(sym if sym in _FIBER_COMPONENTS else "In*")
            checked += 1
    assert checked > 5000, checked  # 6,072
    assert seen == {"I0*", "III", "In*", "III*"}, seen


def test_mult_factor_equals_tate_ratio(e60_sample):
    for c in e60_sample:
        for p in relevant_places(c.A, c.B)[2:]:
            if classify_reduction(c.A, c.B, p).is_multiplicative:
                cp = tamagawa_number(c.A, c.B, p)
                cpd = tamagawa_number(c.dualA, c.dualB, p)
                assert mult_factor(c.A, c.B, p) * cp == 2 * cpd, (c.A, c.B, p)


def test_factor_at_infinity():
    assert factor_at_infinity(0, 1) == 2
    assert factor_at_infinity(0, -1) == 1
    assert factor_at_infinity(5, 1) == 1
    assert factor_at_infinity(-3, 1) == 2


def test_factor_at_infinity_matches_real_image(e60_sample):
    for c in e60_sample[:60]:
        assert factor_at_infinity(c.A, c.B) == len(local_image(c.A, c.B, INF_PLACE, "phi"))


def _loop_size(A, B):
    """The size of the phi image at 2 from the duality loop, which reads no
    memo of its own."""
    return descent._dual_images(A, B, 2)[0].bit_count()


def _assert_factor_at_two_exact(pairs):
    """factor_at_two against the exhaustively tested image on every pair;
    the number of pairs.  The caller uses scan_oracle, so every chart is a
    fresh scan."""
    n = 0
    for A, B in pairs:
        assert factor_at_two(A, B) == len(local_image(A, B, 2, "phi")), (A, B)
        n += 1
    return n


def _assert_sieve_exact(B, As, image=False):
    """The column ledger's sieve of sizes at 2 (Tate's algorithm at 2, one
    run per class) against a run of the duality loop on each curve, and
    against the exhaustively tested image if image is True; the number of
    curves."""
    size_at_two = local_analysis._place_two_sieve(B, As[0], As[-1] - As[0] + 1)
    n = 0
    for A in As:
        size = size_at_two(A)
        assert size == _loop_size(A, B), (A, B)
        if image:
            assert size == len(local_image(A, B, 2, "phi")), (A, B)
        n += 1
    return n


def test_factor_at_two_matches_full_image(scan_oracle):
    # the two-sided size must agree with the exhaustively tested image on
    # every curve of E(300)
    assert factor_at_two(0, 1) == 8
    pairs = ((c.A, c.B) for c in enumerate_window(300))
    assert _assert_factor_at_two_exact(pairs) == 20126


def test_factor_at_two_exact_at_high_valuations(scan_oracle):
    # seeded curves with v2(A) up to 12, v2(B) up to 16 and |A| up to 10^6
    rng = random.Random(20261018)
    pairs = []
    while len(pairs) < 1500:
        k = rng.randint(0, 12)
        A = rng.randint(-(10**6 >> k), 10**6 >> k) << k
        B = rng.choice((1, -1)) * (rng.randint(1, 10**4) | 1) << rng.randint(0, 16)
        if A * A != 4 * B:
            pairs.append((A, B))
    assert max(_vp(A, 2) for A, _ in pairs if A) >= 12
    _assert_factor_at_two_exact(pairs)


@pytest.mark.parametrize("B", [16, -16, 48, -48, 64, -64, 96, -96])
def test_factor_at_two_exact_on_deep_columns(B, scan_oracle):
    # whole columns at X = 10^4, every 2-adic class of A to 2^14: the sieve
    # against the per-curve loop and the exhaustive image
    assert _assert_sieve_exact(B, list(column_members(B, 10**4)), image=True) == 15000


def test_sieve_replays_the_scan_on_the_x1000_window(scan_oracle, monkeypatch):
    # every curve of E(10^3); 936 runs of Tate's algorithm at 2 settle all
    # 123,052, each size equal to the loop's
    runs = []
    tate = local_analysis._size_at_two

    def counted(A, B):
        runs.append(A)
        return tate(A, B)

    monkeypatch.setattr(local_analysis, "_size_at_two", counted)
    n = sum(_assert_sieve_exact(B, list(column_members(B, 1000))) for B in window_columns(1000))
    assert n == 123052 and len(runs) < n // 12


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.integers(1, 10**4), st.integers(0, 14), st.sampled_from((1, -1)), st.integers(-(10**12), 10**12),
    st.integers(1, 256),
)
def test_sieve_matches_the_loop_on_hypothesis_runs(scan_oracle, b, kb, sign, lo, width):
    # a run of width consecutive A from lo in the column B = +-b 2^kb; the
    # fixture only keeps the chart memo empty, so it holds across examples
    B = sign * b << kb
    size_at_two = local_analysis._place_two_sieve(B, lo, width)
    for A in range(lo, lo + width):
        if A * A != 4 * B:
            assert size_at_two(A) == _loop_size(A, B), (A, B)


def _ledger_models(A, B):
    """E and E' as _size_at_two runs them: (model, slopes in A of a2, a4, a6)."""
    return ((0, A, 0, B, 0), (1, 0, 0)), ((0, A, 0, -4 * B, -4 * A * B), (1, 0, -4 * B))


def _models_at_two(A, B):
    """E and E' at 2 as tate_at_two takes them, with zero slopes: E' in its
    textbook model y^2 = x^3 - 2A x^2 + (A^2-4B) x, not the translate the
    ledger runs."""
    zero = (0, 0, 0)
    return ((0, A, 0, B, 0), zero), ((0, -2 * A, 0, A * A - 4 * B, 0), zero)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.integers(0, 8).flatmap(lambda k: st.integers(-(10**12 >> k), 10**12 >> k).map(lambda u: (u | 1) << k)),
    st.integers(0, 14).flatmap(lambda k: st.integers(1, 10**6).map(lambda u: (u | 1) << k)),
    st.sampled_from((1, -1)),
    st.integers(-(2**20), 2**20),
)
def test_tate_at_two_matches_the_loop_on_hypothesis_pairs(scan_oracle, A, b, sign, move):
    # v_2(A) <= 8, v_2(B) <= 14 and |A| <= 10^12: Tate's size at 2 against
    # the loop's, at (A, B) and at a move of A by a multiple of 2^N
    B = sign * b
    assume(A * A != 4 * B)
    size, n = local_analysis._size_at_two(A, B)
    assert size == factor_at_two(A, B) == _loop_size(A, B), (A, B)
    A2 = A + (move << n)
    if A2 * A2 != 4 * B:
        assert local_analysis._size_at_two(A2, B)[0] == _loop_size(A2, B) == size, (A, B, A2, n)


def test_tate_at_two_meets_every_kodaira_type():
    # over E(300) the two curves of a pair leave Tate's algorithm at 2 by
    # every exit, and both rescale a non-minimal model; each exit is that
    # of the model the ledger runs, and the textbook model of E' agrees
    seen = [set(), set()]
    rescaled = [0, 0]
    for c in enumerate_window(300):
        A, B = c.A, c.B
        for side, (model, ledger_model) in enumerate(zip(_models_at_two(A, B), _ledger_models(A, B))):
            sym, cp, m, _ = local_analysis.tate_at_two(*model)
            assert local_analysis.tate_at_two(*ledger_model)[:3] == (sym, cp, m), (A, B, side)
            seen[side].add(re.sub(r"^I[1-9][0-9]*", "In", sym))
            rescaled[side] += m > 0
    every = {"I0", "In", "II", "III", "IV", "I0*", "In*", "IV*", "III*", "II*"}
    assert seen[0] | seen[1] == every, seen
    assert rescaled[0] and rescaled[1], rescaled


def test_tate_digits_fix_every_branch():
    # on either curve, every A' = A (mod 2^N) of the column runs Tate's
    # algorithm at 2 to the same symbol, c_2 and m (0 of about 16,000 moves
    # change them), and moves by an odd multiple of 2^(N-1) change them on
    # some curves, so N is not a digit too generous everywhere; curves of
    # E(300) and seeded pairs with v_2(A) <= 8 and v_2(B) <= 14
    rng = random.Random(20261021)
    pairs = rng.sample([(c.A, c.B) for c in enumerate_window(300)], 1000)
    while len(pairs) < 2000:
        k = rng.randint(0, 8)
        A = (rng.randint(-(10**9 >> k), 10**9 >> k) | 1) << k
        B = rng.choice((1, -1)) * (rng.randint(1, 10**5) | 1) << rng.randint(0, 14)
        if A * A != 4 * B:
            pairs.append((A, B))
    changed = 0
    for A, B in pairs:
        for side, (model, slopes) in enumerate(_ledger_models(A, B)):
            sym, cp, m, n = local_analysis.tate_at_two(model, slopes)
            for _ in range(4):
                A2 = A + (rng.randint(-8, 8) << n)
                if A2 * A2 != 4 * B:
                    got = local_analysis.tate_at_two(*_ledger_models(A2, B)[side])[:3]
                    assert got == (sym, cp, m), (A, B, side, A2, n)
            A2 = A + (rng.choice((-1, 1)) << n - 1)
            if A2 * A2 != 4 * B:
                changed += local_analysis.tate_at_two(*_ledger_models(A2, B)[side])[:3] != (sym, cp, m)
    assert changed > 500, changed


def _general_model(rng):
    """A model linear in A with a1 and a3 fixed: a random one, or a family
    model scaled by 2^i in each a_i (non-minimal), both then moved by a
    random (r, s, t); as a function of A with the slopes of a2, a4, a6."""
    if rng.random() < 0.5:
        a1, a3 = rng.randint(0, 3), rng.randint(0, 7)
        const = [rng.randint(-(2**12), 2**12) << rng.randint(0, 8) for _ in range(3)]
        slope = [rng.choice((1, -1, 3)) << rng.randint(0, 6) for _ in range(3)]

        def base(A):
            return (a1, const[0] + slope[0] * A, a3, const[1] + slope[1] * A, const[2] + slope[2] * A)

    else:
        B = rng.choice((1, -1)) * (rng.randint(1, 10**4) | 1) << rng.randint(0, 10)
        side = rng.randrange(2)

        def base(A):
            return tuple(x << i for x, i in zip(_ledger_models(A, B)[side][0], (1, 2, 3, 4, 6)))

    r, s, t = (rng.randint(-20, 20) for _ in range(3))

    def at(A):
        a, b = local_analysis._rst(base(A), r, s, t), local_analysis._rst(base(A + 1), r, s, t)
        assert (a[0], a[2]) == (b[0], b[2])
        return a, (b[1] - a[1], b[3] - a[3], b[4] - a[4])

    return at


def test_tate_digits_fix_every_branch_on_general_models():
    # the digit count on models with a1 and a3 set, non-minimal ones and
    # multiplicative ones: every A' = A (mod 2^N) gives the same symbol,
    # c_2 and m, and every exit is met
    rng = random.Random(1996)
    seen = set()
    tested = 0
    while tested < 3000:
        at = _general_model(rng)
        A = rng.randint(-(2**20), 2**20)
        try:
            sym, cp, m, n = local_analysis.tate_at_two(*at(A))
        except ValueError:
            continue  # singular at A
        seen.add(re.sub(r"^I[1-9][0-9]*", "In", sym))
        for _ in range(4):
            A2 = A + (rng.randint(-8, 8) << n)
            try:
                got = local_analysis.tate_at_two(*at(A2))[:3]
            except ValueError:
                continue
            assert got == (sym, cp, m), (A, A2, n)
        tested += 1
    assert seen == {"I0", "In", "II", "III", "IV", "I0*", "In*", "IV*", "III*", "II*"}, seen


def test_tate_at_two_reads_the_curve_not_the_model():
    # an integral change x = x' + r, y = y' + s x' + t keeps the symbol, c_2
    # and m; scaling a_i by 2^i (x, y) -> (x/4, y/8) adds one rescaling
    rng = random.Random(31)
    for c in rng.sample(list(enumerate_window(300)), 400):
        for model, zero in _models_at_two(c.A, c.B):
            sym, cp, m, _ = local_analysis.tate_at_two(model, zero)
            r, s, t = (rng.randint(-50, 50) for _ in range(3))
            moved = local_analysis._rst(model, r, s, t)
            assert local_analysis.tate_at_two(moved, zero)[:3] == (sym, cp, m), (c, model, r, s, t)
            scaled = tuple(x << i for x, i in zip(moved, (1, 2, 3, 4, 6)))
            assert local_analysis.tate_at_two(scaled, zero)[:3] == (sym, cp, m + 1), (c, model, r, s, t)


def test_hilbert_symbol_table():
    # the bit form of (x, y)_2 against the classical formula on representatives
    def classical(x, y):
        a, u = _vp(x, 2), x >> _vp(x, 2)
        b, w = _vp(y, 2), y >> _vp(y, 2)
        e = (u - 1) // 2 * ((w - 1) // 2) + a * (w * w - 1) // 8 + b * (u * u - 1) // 8
        return e % 2

    reps = descent._class_reps(2)
    assert [descent._class_index(r, 2) for r in reps] == list(range(8))
    assert [descent._class_index(r * 4 * 9, 2) for r in reps] == list(range(8))
    for x in range(8):
        for y in range(8):
            assert descent._hilbert2(x, y) == classical(reps[x], reps[y])
    # nondegenerate: every subgroup's complement has the complementary size
    subgroups = [m for m in range(256) if m & 1 and descent._mul_sets(m, m) == m]
    assert len(subgroups) == 16
    for m in subgroups:
        orth = descent._ORTH[m]
        assert orth.bit_count() * m.bit_count() == 8 and descent._ORTH[orth] == m


def test_lying_probe_raises_not_a_wrong_size(e60_sample, monkeypatch, scan_oracle):
    # a probe that denies one solvable class leaves the confirmed images short
    # of |W| |W^| = 8, so the candidates run out: never a wrong size
    honest = descent._torsor_solvable_at
    for c in [CurvePair(0, 1)] + e60_sample[:20]:
        lied = []

        def probe(d, a, b, p):
            ok = honest(d, a, b, p)
            if ok and d != 1 and not lied:
                lied.append(d)
                return False
            return ok

        monkeypatch.setattr(descent, "_torsor_solvable_at", probe)
        with pytest.raises(AssertionError):
            descent._dual_images(c.A, c.B, 2)
        assert lied
    monkeypatch.setattr(descent, "_torsor_solvable_at", lambda d, a, b, p: d == 1)
    with pytest.raises(AssertionError):
        descent._dual_images(3, 2, 2)


def test_certificate_digits_fix_the_size(scan_oracle):
    # inside a column, moves of A by multiples of 2^N, the digits Tate's
    # algorithm at 2 names, keep the size the loop finds (0 of 9,000
    # change); moves by an odd multiple of 2^(N-1) change it on some curves
    # (1,008 of 3,000), so N is not a digit too generous everywhere, and a
    # count one digit short fails here
    rng = random.Random(20261018)
    curves = rng.sample([(c.A, c.B) for c in enumerate_window(300)], 3000)
    changed = 0
    for A, B in curves:
        size, n = local_analysis._size_at_two(A, B)
        for _ in range(3):
            A2 = A + (rng.randint(-4, 4) << n)
            if A2 * A2 != 4 * B:
                assert _loop_size(A2, B) == size, (A, B, A2, n)
        A2 = A + (rng.choice((-1, 1)) << n - 1)
        if A2 * A2 != 4 * B:
            changed += _loop_size(A2, B) != size
    assert changed > 50, changed


def _scaled_sizes(A, B):
    # (A, B) -> (u^2 A, u^4 B) is the isomorphism (x, y) -> (u^2 x, u^3 y)
    return {f(u * u * A, u**4 * B) for u in (1, 2, 3) for f in (factor_at_two, _loop_size)}


def test_size_at_two_invariant_under_scaling():
    rng = random.Random(5)
    n = 0
    while n < 300:
        A = rng.randint(-500, 500) << rng.randint(0, 6)
        B = rng.choice((1, -1)) * (rng.randint(1, 500) | 1) << rng.randint(0, 12)
        if A * A != 4 * B:
            assert len(_scaled_sizes(A, B)) == 1, (A, B)
            n += 1


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-100, 100), st.integers(0, 6), st.integers(-100, 100), st.integers(0, 12), st.sampled_from((1, -1))
)
def test_size_at_two_invariant_under_scaling_hypothesis(a, ka, b, kb, sign):
    A, B = (2 * a + 1) << ka, sign * (2 * b + 1) << kb  # v2(A) = ka, v2(B) = kb
    assume(A * A != 4 * B)
    assert len(_scaled_sizes(A, B)) == 1, (A, B)


def test_perfbench_tracer_hooks_resolve():
    # the benchmark's tracer wraps module-level functions by name
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import tracer; "
        "t = tracer.Tracer(); tracer.install(t); assert t.missing == [], t.missing"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_every_export_resolves():
    # a fresh `import selmerlab` succeeds, and each module's __all__ names
    # only what the module defines
    root = Path(__file__).resolve().parents[1]
    code = (
        "import importlib, pkgutil, selmerlab\n"
        "for m in pkgutil.iter_modules(selmerlab.__path__):\n"
        "    mod = importlib.import_module('selmerlab.' + m.name)\n"
        "    stale = [n for n in getattr(mod, '__all__', ()) if not hasattr(mod, n)]\n"
        "    assert not stale, (m.name, stale)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_ledger_structure():
    led = tamagawa_exponent(CurvePair(1, 3))
    places = [e.place for e in led.entries]
    assert places == [INF_PLACE, 2, 3, 11]
    by_place = {e.place: e for e in led.entries}
    assert by_place[3].size == 1 and by_place[3].exponent == -1
    assert by_place[11].size == 4 and by_place[11].exponent == 1
    assert by_place[INF_PLACE].size == 2 and by_place[INF_PLACE].exponent == 0
    assert led.total == sum(e.exponent for e in led.entries)
    # well-ordered ledgers, each failing on one size
    with pytest.raises(ValueError, match="size 8 not allowed at place 3"):
        LocalFactorLedger((LedgerEntry(INF_PLACE, 2), LedgerEntry(2, 1), LedgerEntry(3, 8)))
    with pytest.raises(ValueError, match="size 4 not allowed at place inf"):
        LocalFactorLedger((LedgerEntry(INF_PLACE, 4), LedgerEntry(2, 1)))
    with pytest.raises(ValueError, match="size 3 not allowed at place 2"):
        LocalFactorLedger((LedgerEntry(INF_PLACE, 2), LedgerEntry(2, 3)))


@pytest.mark.parametrize(
    "places",
    [
        (2, INF_PLACE, 3),  # inf is not first
        (INF_PLACE, 3, 2),  # 2 is not second
        (INF_PLACE, 3),  # 2 is missing
        (INF_PLACE,),  # too short to hold inf and 2
        (INF_PLACE, 2, 7, 5),  # odd places descend
        (INF_PLACE, 2, 5, 5),  # an odd place repeats
        (INF_PLACE, 2, 3, INF_PLACE),  # inf again after the odd places
    ],
)
def test_ledger_rejects_a_misordered_place_list(places):
    with pytest.raises(ValueError, match="out of order|starts with"):
        LocalFactorLedger(tuple(LedgerEntry(v, 1) for v in places))


def test_exponent_ranges(e60_sample):
    for c in e60_sample:
        led = tamagawa_exponent(c)
        for e in led.entries:
            if e.place in (2, INF_PLACE):
                continue
            if classify_reduction(c.A, c.B, e.place).is_multiplicative:
                if (c.A**2 - 4 * c.B) % e.place == 0:
                    assert e.exponent in (0, 1)
                else:
                    assert e.exponent in (-1, 0)


def test_spot_total_examples():
    assert tamagawa_exponent(CurvePair(0, 1)).total == 2
    led = tamagawa_exponent(CurvePair(1, 3))
    assert led.total == descent_exponent(1, 3)


def test_ledger_records_reduction_kind(e60_sample):
    for c in e60_sample:
        led = tamagawa_exponent(c)
        kinds = [
            not classify_reduction(c.A, c.B, e.place).is_multiplicative
            for e in led.entries
            if e.place not in (2, INF_PLACE)
        ]
        assert [e.additive for e in led.entries] == [False, False] + kinds
        assert dict(zip(RECORD_FIELDS, curve_record(c)))["n_additive"] == sum(kinds)


def test_decompose_total_and_bound(e60_sample):
    from selmerlab.cli import _odd_place_counts
    from selmerlab.statistics import g1, g2

    for c in e60_sample[:60]:
        led = tamagawa_exponent(c)
        parts = decompose_total(led)
        assert parts["t_mult"] + parts["t_add"] + parts["e2"] + parts["einf"] == led.total
        lhs = abs(led.total - (g1(c.A, c.B) - g2(c.A, c.B)) - parts["t_add"] - parts["e2"] - parts["einf"])
        assert lhs <= _odd_place_counts(c, led.entries[2:])[2], (c.A, c.B)


def test_additive_ratio_is_power_of_two(e60_sample):
    seen = 0
    for c in e60_sample:
        for e in tamagawa_exponent(c).entries:
            if e.place in (2, INF_PLACE):
                continue
            if not classify_reduction(c.A, c.B, e.place).is_multiplicative:
                seen += 1
                assert e.size in (1, 2, 4)
    assert seen > 3


def test_curve_record_reads_g1_g2_off_the_ledger(e60_sample):
    # verify's decomposition bound reads all three counts off the same places
    from selmerlab.cli import _odd_place_counts
    from selmerlab.statistics import g1, g2

    for c in e60_sample:
        rec = dict(zip(RECORD_FIELDS, curve_record(c)))
        assert (rec["g1"], rec["g2"]) == (g1(c.A, c.B), g2(c.A, c.B)), (c.A, c.B)
        counts = _odd_place_counts(c, tamagawa_exponent(c).entries[2:])
        # the odd primes that divide B or A^2-4B twice, from their factorizations
        repeated = {p for n in (c.B, c.dualB) for p, e in factor(n).factors if p != 2 and e >= 2}
        assert counts == (rec["g1"], rec["g2"], len(repeated)), (c.A, c.B)


def _ledger_rows(B, As):
    # the per-curve route: (t_total, g1, g2, n_additive) of curve_record, whose
    # odd places come from factoring B (A^2-4B), not from the sieve, and
    # place 2 from one run of the loop per curve, not per class
    recs = (dict(zip(RECORD_FIELDS, curve_record(CurvePair(A, B)))) for A in As)
    return [(r["t_total"], r["g1"], r["g2"], r["n_additive"]) for r in recs]


@functools.lru_cache(maxsize=None)
def _window_rows(X):
    return {(c.A, c.B): _ledger_rows(c.B, [c.A])[0] for c in enumerate_window(X)}


@pytest.mark.parametrize("X", [1, 2, 3, 4, 5, 16, 100, 300])
@pytest.mark.parametrize("include", [True, False])
def test_column_ledger_matches_curve_record(X, include):
    # every curve of E(X); at tiny X the sieve bound isqrt(max |A^2-4B|) is
    # below the primes of A^2-4B, so the cofactor carries them
    want = _window_rows(X)
    n = 0
    for B in window_columns(X):
        As = list(column_members(B, X, include))
        got = local_analysis.column_ledger(B, X, include)
        assert got == [(A, want[A, B]) for A in As], B
        n += len(As)
    assert n == sum(1 for A, B in want if include or not is_square(A * A - 4 * B))


@pytest.mark.parametrize("B", [16, -16, 48, -48, 64, -64, 81, -81, 96, -96])
def test_column_ledger_on_deep_columns(B):
    # the whole column at X = 10^4, read at a seeded subset of it and at every
    # A with p^2 | A for a p | B (the deepest additive places the column has)
    rows = dict(local_analysis.column_ledger(B, 10**4))
    members = list(rows)
    ps = [p for p in (2, 3) if B % p == 0]  # every B here is +-2^a 3^b
    deep = {A for A in members if any(A % (p * p) == 0 for p in ps)}
    As = sorted(deep | set(random.Random(B).sample(members, 300)))
    assert [rows[A] for A in As] == _ledger_rows(B, As)


def test_column_ledger_errors_stay_with_their_curve(monkeypatch):
    # an exception in one curve's place 2 stands in for its row and leaves
    # every other curve of the column as it was
    honest = local_analysis._size_at_two
    ran = []

    def spy(A, B):
        ran.append(A)
        return honest(A, B)

    monkeypatch.setattr(local_analysis, "_size_at_two", spy)
    rows = local_analysis.column_ledger(1, 16)
    bad = ran[1]  # a later A whose 2-adic class no earlier run settled, so the sieve runs Tate there

    def flaky(A, B):
        if A == bad:
            raise descent.SolverPrecisionError("injected")
        return honest(A, B)

    monkeypatch.setattr(local_analysis, "_size_at_two", flaky)
    again = local_analysis.column_ledger(1, 16)
    assert [A for A, _ in again] == [A for A, _ in rows]
    assert [(A, str(r)) for A, r in again if isinstance(r, Exception)] == [(bad, "injected")]
    assert [r for r in again if r[0] != bad] == [r for r in rows if r[0] != bad]


def test_column_ledger_walks_column_members():
    # the ledger walks its own column: p^2 | A with p^4 | B is no family
    # member, so (9, 81) and (4, 16) get no row; B = +-1296 = +-2^4 3^4
    # carries both moduli 4 and 9, and (72, 1296) is singular as well
    X = 100
    for include in (True, False):
        for B, A in ((81, 9), (-81, 0), (16, 4), (1, 2), (1296, 4), (1296, 18), (1296, 72), (-1296, 54)):
            rows = local_analysis.column_ledger(B, X, include)
            As = [a for a, _ in rows]
            assert As == list(column_members(B, X, include)) and A not in As, (A, B, include)
            assert [row for _, row in rows] == _ledger_rows(B, As), (B, include)


def test_column_ledger_reads_the_column_rule_once(capsys):
    # compute's full window reads each column's membership rule once, in
    # column_members, and the ledger reuses that walk.  The spy watches the
    # rule's code object, so it sees a call through any name bound to it.
    from selmerlab import curve_family
    from selmerlab.cli import main

    rule, seen = curve_family._column_rule.__code__, []

    def spy(frame, event, arg):
        if frame.f_code is rule:
            seen.append(frame.f_locals["B"])

    before = sys.gettrace()
    sys.settrace(spy)
    try:
        assert main(["compute", "--xmax", "100", "--threads", "1"]) == 0
    finally:
        sys.settrace(before)
    capsys.readouterr()
    assert seen == window_columns(100)


# ---------------------------------------------------------------------------
# the closed-form additive size against Tate's algorithm
# ---------------------------------------------------------------------------

_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _branch(A, B, p):
    # the branch of additive_factor's docstring that a reduced (A, B) falls in
    b, d = _vp(B, p), _vp(A * A - 4 * B, p)
    if b == 1:
        return "III"
    if b == d:
        return {2: "I0*", 3: "III*"}[b]
    if b == 2:
        return "I_(d-2)*, d " + ("odd" if d % 2 else "even")
    return "I_(2b-4)*, b " + ("odd" if b % 2 else "even")


# each branch with every size it can take
_OUTCOMES = {
    ("III", 2),
    ("III*", 2),
    ("I0*", 1),
    ("I0*", 2),
    ("I0*", 4),
    ("I_(d-2)*, d even", 2),
    ("I_(d-2)*, d even", 4),
    ("I_(d-2)*, d odd", 2),
    ("I_(d-2)*, d odd", 4),
    ("I_(2b-4)*, b even", 1),
    ("I_(2b-4)*, b even", 2),
    ("I_(2b-4)*, b odd", 1),
    ("I_(2b-4)*, b odd", 2),
}


def _tate_size(A, B, p):
    # 2 c'_p / c_p from Tate's algorithm on the curve and on its companion;
    # the ratio is asserted, not assumed, to be 1, 2 or 4
    cp, cpd = tamagawa_number(A, B, p), tamagawa_number(-2 * A, A * A - 4 * B, p)
    assert 2 * cpd % cp == 0, f"additive ratio 2*{cpd}/{cp} at p={p} is not integral"
    size = 2 * cpd // cp
    assert size in (1, 2, 4), f"additive local size {size} at p={p} out of range"
    return size


def _checked_outcomes(pairs):
    # additive_factor against Tate's algorithm on each (A, B, p) and on its
    # companion (-2A, A^2-4B, p); the (branch, size) outcomes seen
    seen = set()
    for A, B, p in pairs:
        for a, b in ((A, B), (-2 * A, A * A - 4 * B)):
            size = local_analysis.additive_factor(a, b, p)
            assert size == _tate_size(a, b, p), (a, b, p)
            seen.add((_branch(a, b, p), size))
    return seen


def _in_star_fibres(n, seed):
    # reduced (A, B) with v_p(A) = 1, v_p(B) = 2 and v_p(A^2-4B) = d in 3..10:
    # A = p a, B = p^2 u with a^2 - 4u = p^(d-2) w for units a, w
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        p, d = rng.choice(_ODD_PRIMES), rng.randint(3, 10)
        a, w = rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6)
        num = a * a - p ** (d - 2) * w
        if a % p and w % p and num % 4 == 0:
            out.append((p * a, p * p * (num // 4), p))
    return out


def test_additive_factor_on_every_additive_pair_of_the_x1000_window():
    pairs = [
        (A, B, p)
        for B in window_columns(1000)
        for p in _ODD_PRIMES
        if B % p == 0
        for A in column_members(B, 1000)
        if A % p == 0
    ]
    assert len(pairs) == 22_650
    seen = _checked_outcomes(pairs)
    assert ("III", 2) in seen and ("III*", 2) in seen


def test_additive_factor_on_generated_fibres():
    # I_n* fibres (their companions have v_p(B) = d >= 3 and v_p(A^2-4B) = 2),
    # and the random reduced models with p | A and p | B; together they reach
    # every branch with every size it can take
    rng = random.Random(19)
    pairs = _in_star_fibres(3000, 1)
    for _ in range(3000):
        p = rng.choice(_ODD_PRIMES)
        a = rng.choice((1, 1, 2, 3))
        b = rng.choice((1, 2, 3) if a > 1 else (1, 2, 3, 4, 5, 6))  # reduced: no p^2 | A with p^4 | B
        A = p**a * rng.choice([u for u in range(-50, 51) if u % p])
        B = p**b * rng.choice([u for u in range(-50, 51) if u % p])
        if A * A != 4 * B:
            pairs.append((A, B, p))
    assert _checked_outcomes(pairs) == _OUTCOMES


@pytest.mark.parametrize(
    "vas, b", [((1,), 4), ((1,), 5), ((1,), 6), ((2, 3, 4), 3)], ids=["I4*-I2*", "I6*-I3*", "I8*-I4*", "III*-III*"]
)
def test_additive_factor_on_the_deep_fibres(vas, b):
    # (v_p(A), v_p(B), v_p(A^2-4B)) = (1, >= 4, 2), types I_(2b-4)* / I_(b-2)*,
    # and (>= 2, 3, 3), type III* on both sides
    rng = random.Random(b)
    pairs = []
    for _ in range(400):
        p = rng.choice(_ODD_PRIMES)
        A = p ** rng.choice(vas) * rng.choice([u for u in range(-99, 100) if u % p])
        B = p**b * rng.choice([u for u in range(-99, 100) if u % p])
        pairs.append((A, B, p))
    if vas == (1,):
        want = {(f"I_(2b-4)*, b {'odd' if b % 2 else 'even'}", size) for size in (1, 2)}
    else:
        want = {("III*", 2)}
    assert want <= _checked_outcomes(pairs)


def _naive_key(A, B, p, modulus):
    # p mod `modulus`, min(v_p(A), 2), v_p(B), whether v_p(D) = 2, v_p(D) mod 2,
    # and the Legendre symbols of the unit parts of A, B and D = A^2 - 4B
    D = A * A - 4 * B
    vs = [_vp(n, p) for n in (A, B, D)]
    units = tuple(jacobi(n // p**v, p) for n, v in zip((A, B, D), vs))
    return (p % modulus, min(vs[0], 2), vs[1], vs[2] == 2, vs[2] % 2) + units


def test_a_key_without_two_over_p_fails_on_in_star_fibres():
    # the I_n* test reads (2 (A/p) D_u / p) for odd v_p(D): a table keyed on
    # p mod 4 (so blind to (2/p)) clashes, and the same key on p mod 8 fits
    fibres = _in_star_fibres(2000, 2)
    for modulus, clash in ((8, False), (4, True)):
        table = {}
        for A, B, p in fibres:
            table.setdefault(_naive_key(A, B, p, modulus), set()).add(_tate_size(A, B, p))
        assert any(len(sizes) > 1 for sizes in table.values()) == clash, modulus


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_ODD_PRIMES + (97, 101, 1009)),
    st.integers(1, 4),
    st.integers(1, 7),
    st.integers(-(10**12), 10**12),
    st.integers(-(10**12), 10**12),
)
def test_additive_factor_matches_tate_hypothesis(p, a, b, u, w):
    # reduced (A, B) with p^a | A, p^b | B and |A| up to 10^12
    A, B = u // p**a * p**a, p**b * (w or 1)
    assume(not (A % (p * p) == 0 and B % p**4 == 0) and A * A != 4 * B)
    _checked_outcomes([(A, B, p)])


def test_additive_factor_rejects_non_reduced_models():
    with pytest.raises(ValueError, match="non-reduced"):
        local_analysis.additive_factor(9, 81, 3)
    with pytest.raises(ValueError, match="non-reduced"):
        local_analysis.additive_factor(0, 5 * 625, 5)


@pytest.mark.parametrize(
    "A, B, p",
    [
        (1, 3, 3),  # split multiplicative at 3, of size 1 (mult_factor)
        (3, 1, 3),  # good at 3
        (2, 2, 2),  # p = 2
        (9, 18, 9),  # not prime
    ],
)
def test_additive_factor_rejects_places_that_are_not_additive(A, B, p):
    with pytest.raises(ValueError, match="not an odd prime dividing A and B"):
        local_analysis.additive_factor(A, B, p)


def test_additive_factor_rejects_singular_models():
    # B = 0 is singular even when D = A^2 is not 0; the check must come
    # before B's unit part, which would read p^v_p(0)
    for A in (3, 6):
        with pytest.raises(ValueError, match="singular curve"):
            local_analysis.additive_factor(A, 0, 3)
