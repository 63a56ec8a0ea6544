import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from selmerlab import descent
from selmerlab.cli import _column_records, curve_record, sample_keys
from selmerlab.core_arith import _vp, is_prime, jacobi, primes_below, signed_squarefree_divisors, squarefree_part
from selmerlab.curve_family import CurvePair, column_members, enumerate_window, window_columns
from selmerlab.descent import (
    INF_PLACE,
    SelmerSet,
    SolverPrecisionError,
    TorsorQuartic,
    _chart_scan,
    _chart_solvable,
    _class_count,
    _class_index,
    _class_reps,
    _disc_vp,
    _exhaustive_masks,
    _local_image_tags,
    _normal_chart,
    _poly_eval,
    _real_solvable,
    _roots_mod_p,
    _selmer,
    _shift_scale,
    _side_coefficients,
    _torsor_solvable_at,
    _zp_scan,
    _zp_solvable_structural,
    descent_exponent,
    local_image,
    local_masks,
    relevant_places,
    sel2_lower_bound,
    selmer_phi,
    selmer_phihat,
    solvable_padic,
    solvable_real,
)


def test_torsor_validation():
    TorsorQuartic(-2, 0, -4)
    with pytest.raises(ValueError):
        TorsorQuartic(4, 0, -4)  # not squarefree
    with pytest.raises(ValueError):
        TorsorQuartic(3, 0, -4)  # support outside b
    with pytest.raises(ValueError):
        TorsorQuartic(1, 0, 0)


def test_solvable_real():
    assert solvable_real(TorsorQuartic(1, 5, 7))
    assert not solvable_real(TorsorQuartic(-1, 0, 1))
    assert solvable_real(TorsorQuartic(-1, 0, -4))
    # vertex cases for d < 0: need a*d < 0 and a^2 >= 4b when b > 0
    assert solvable_real(TorsorQuartic(-1, 4, 4))
    assert not solvable_real(TorsorQuartic(-1, -4, 4))


def _real_solutions_grid(d, a, b):
    # coarse numeric sweep used only as a one-sided oracle
    for u in [x / 8 for x in range(-40, 41)]:
        for v in [x / 8 for x in range(-40, 41)]:
            if u == 0 and v == 0:
                continue
            rhs = d * d * u**4 + a * d * u**2 * v**2 + b * v**4
            if d * rhs >= 0:
                return True
    return False


def test_solvable_real_against_grid():
    rng = random.Random(5)
    for _ in range(300):
        d = rng.choice([1, -1, 2, -2, 3, -3, 5, -5])
        a, b = rng.randint(-9, 9), rng.choice([i for i in range(-9, 10) if i])
        try:
            t = TorsorQuartic(d, a, b)
        except ValueError:
            continue
        if _real_solutions_grid(d, a, b):
            assert solvable_real(t), (d, a, b)


def test_solvable_padic_examples():
    assert solvable_padic(TorsorQuartic(1, 12345, 77), 7)
    assert solvable_padic(TorsorQuartic(-1, 0, 1), 3)  # w^2 = -2 in Q_3
    assert solvable_padic(TorsorQuartic(2, 0, -4), 5)  # global point (1, 1, 0)
    with pytest.raises(ValueError):
        solvable_padic(TorsorQuartic(1, 0, 1), 6)


def test_structural_matches_scan_on_random_charts(scan_oracle):
    rng = random.Random(42)
    ps = [p for p in primes_below(60) if p >= 17]
    n = 0
    for _ in range(250):
        p = rng.choice(ps)
        d = rng.choice([-1, 2, -2, 3, p, -p, 2 * p])
        a = rng.randint(-40, 40)
        b = rng.choice(
            [rng.randint(1, 200), -rng.randint(1, 200), p * rng.randint(1, 20), -p * p * rng.randint(1, 8)]
        )
        if b == 0 or a * a == 4 * b:
            continue
        for f in [(b * d, 0, a * d * d, 0, d**3), (d**3, 0, a * d * d, 0, b * d)]:
            if 16 * f[4] * f[0] * (f[2] ** 2 - 4 * f[4] * f[0]) ** 2 == 0:
                continue
            n += 1
            _, g = _normal_chart(f, p)  # the normalization and budget of _chart_solvable
            assert _zp_solvable_structural(g, p, _disc_vp(g, p) + 10) == _chart_scan(f, p), (f, p)
    assert n > 300


def test_roots_mod_p_matches_brute_force():
    # the structural solver's two shapes, degree <= 2 and even quartics mod p,
    # with integer lifts and x^3, x^4 terms that vanish mod p, against every
    # residue; the pinned quartic's roots were once read as [68, 99, 133, 209]
    assert _roots_mod_p((115, 0, 45, 0, 77), 277) == [68, 99, 178, 209]
    rng = random.Random(27)
    ps = [p for p in primes_below(62) if p >= 17]
    for _ in range(4000):
        p = rng.choice(ps)
        shape = rng.randrange(4)
        if shape == 0:
            h = (rng.randrange(p), rng.randrange(1, p))
        elif shape == 1:
            h = (rng.randrange(p), rng.randrange(p), rng.randrange(1, p), p * rng.randint(-3, 3), p * rng.randint(-3, 3))
        elif shape == 2:
            h = (rng.randrange(p), 0, rng.randrange(1, p))
        else:
            h = (rng.randrange(p), 0, rng.randrange(p), 0, rng.randrange(1, p))
        h = tuple(c + p * rng.randint(-5, 5) for c in h)
        assert _roots_mod_p(h, p) == [x for x in range(p) if _poly_eval(h, x) % p == 0], (h, p)
    with pytest.raises(AssertionError):
        _roots_mod_p((1, 1, 0, 1), 17)  # a cubic: no closed form here
    with pytest.raises(AssertionError):
        _roots_mod_p((1, 0, 0, 1, 1), 17)  # a quartic with an x^3 term


@pytest.mark.parametrize("p", [10009, 10007])
def test_roots_mod_p_on_built_roots(p):
    # c (x^2 - a^2)(x^2 - b^2) and c (x - a)(x - b) at a large p, where a
    # sweep of F_p would be slow: p = 1 (mod 8) runs Tonelli-Shanks' loop,
    # p = 3 (mod 4) its closed-form square root; a quartic factor x^2 - n
    # with n a non-residue adds no root
    rng = random.Random(p)
    n = next(n for n in range(2, p) if jacobi(n, p) == -1)
    for _ in range(300):
        a, b = rng.sample(range(1, (p + 1) // 2), 2)
        c = rng.randrange(1, p)
        quartic = (c * a * a * b * b, 0, -c * (a * a + b * b), 0, c)
        assert _roots_mod_p(quartic, p) == sorted({a, p - a, b, p - b}), (a, b, c)
        assert _roots_mod_p((-c * n * b * b, 0, c * (n + b * b), 0, -c), p) == sorted({b, p - b}), (b, c)
        assert _roots_mod_p((c * a * b, -c * (a + b), c), p) == sorted({a, b}), (a, b, c)


@pytest.mark.parametrize(
    "A, B, p, masks", [(323, 83521, 17, (5, 5)), (-4675, 14161, 17, (15, 1)), (-24288, 529, 23, (15, 1))]
)
def test_structural_shifted_roots_match_the_scan(A, B, p, masks, monkeypatch, scan_oracle):
    # these curves' charts at p ask _roots_mod_p for all three shapes the
    # structural solver meets: even quartics, even quadratics and, in a chart
    # shifted to a nonzero root, a quadratic with an x term.  The scan at p
    # (_SCAN_MAX_P raised past it) is the reference for both sides' images,
    # from the duality loop and from testing every class; a root finder that
    # drops the last shape's roots fails at (323, 83521, 17)
    shapes = set()
    honest = descent._roots_mod_p

    def spy(h, q):
        t = descent._trim(h, q)
        shapes.add((len(t) - 1, not any(t[1::2])))
        return honest(h, q)

    monkeypatch.setattr(descent, "_roots_mod_p", spy)
    structural = local_masks(A, B, [p]), _exhaustive_masks(A, B, [p])
    assert {(4, True), (2, True), (2, False)} <= shapes, shapes
    monkeypatch.setattr(descent, "_SCAN_MAX_P", 40)
    shapes.clear()
    scanned = local_masks(A, B, [p]), _exhaustive_masks(A, B, [p])
    assert not shapes
    assert structural == scanned == ({p: masks}, {p: masks})


def _reference_scan(f, p, kmax, max_nodes=None):
    """The residue scan at precision k: a class x0 mod p^k is dropped only when
    v_p(f(x0)) < k, i.e. f(x0) is trusted mod p^k alone.  Past max_nodes
    visited classes it gives up like a precision exhaustion."""
    c0, c1, c2, c3, c4 = f
    d0, d1, d2, d3 = c1, 2 * c2, 3 * c3, 4 * c4
    need = 3 if p == 2 else 1
    stack = [(x0, 1, p) for x0 in range(p - 1, -1, -1)]
    nodes = 0
    while stack:
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise SolverPrecisionError(f"reference scan at p={p} passed {max_nodes} classes")
        x0, k, q = stack.pop()
        c = (((c4 * x0 + c3) * x0 + c2) * x0 + c1) * x0 + c0
        if c == 0:
            return True
        v = _vp(c, p)
        u = c // p**v
        if not v & 1 and (u % 8 == 1 if p == 2 else jacobi(u % p, p) == 1):
            return True
        if v and v >= 2 * _vp(((d3 * x0 + d2) * x0 + d1) * x0 + d0, p) + 1:
            return True
        if v < k and (v & 1 or k - v >= need):
            continue
        if k >= kmax:
            raise SolverPrecisionError(f"reference scan at p={p} exhausted p^{kmax}")
        stack.extend((x0 + j * q, k + 1, q * p) for j in range(p))
    return False


def _scan_input(f, p):
    # the normalization and precision budget of _chart_solvable
    e = min(_vp(c, p) for c in f if c)
    f = tuple(c // p ** (e // 2 * 2) for c in f)
    c0, _, c2, _, c4 = f
    return f, _vp(16 * c4 * c0 * (c2 * c2 - 4 * c4 * c0) ** 2, p) + 6


def _random_torsor(rng, p, high):
    """(d, a, b) of a seeded torsor over a curve with ordinary or high
    valuations at p, or None for a singular curve."""

    def unit(bound):
        while True:
            n = rng.randint(-bound, bound)
            if n % p:
                return n

    if high:
        A = p ** rng.randint(2, 5) * unit(50)
        B = p ** rng.randint(3, 7) * unit(50)
    else:
        A, B = rng.randint(-3000, 3000), unit(100) * p ** rng.randint(0, 2)
    if A * A == 4 * B:
        return None
    a, b = _side_coefficients(A, B, rng.choice(("phi", "phihat")))
    return rng.choice(_class_reps(p)[1:]), a, b


def _charts(d, a, b):
    """The torsor's charts v = 1 and u = 1."""
    return (b * d, 0, a * d * d, 0, d**3), (d**3, 0, a * d * d, 0, b * d)


def _random_chart(rng, p, high):
    torsor = _random_torsor(rng, p, high)
    return None if torsor is None else rng.choice(_charts(*torsor))


def _assert_scan_matches_reference(f, p, max_nodes=None):
    f, kmax = _scan_input(f, p)
    try:
        want = _reference_scan(f, p, kmax, max_nodes)
    except SolverPrecisionError:
        return None  # the pruned scan may answer where the reference cannot
    assert _zp_scan(f, p, kmax)[0] == want, (f, p)
    return want


def test_pruned_scan_matches_precision_k_reference():
    rng = random.Random(2024)
    answers = {}
    for p, n in ((2, 400), (3, 200), (5, 100), (7, 60), (11, 40), (13, 40)):
        for high in (False, True):
            for _ in range(n):
                f = _random_chart(rng, p, high)
                if f is not None:
                    # the node budget bounds the reference's p^depth trees;
                    # the deep charts below run it without one
                    got = _assert_scan_matches_reference(f, p, max_nodes=20000)
                    answers[p, high, got] = answers.get((p, high, got), 0) + 1
    for p in (2, 3, 5, 7, 11, 13):
        for high in (False, True):
            # both answers occur in every regime, so neither branch is vacuous
            assert answers.get((p, high, True)) and answers.get((p, high, False)), (p, high, answers)


def _pzp_chart_solvable(f, p):
    """Whether y^2 = f(x) has a point with x in pZ_p: the chart f(p t) over Z_p."""
    return _chart_solvable(_shift_scale(f, 0, p), p)


def test_second_chart_needs_only_pzp_after_first_fails(scan_oracle):
    # a point of chart u = 1 with x a unit is (1/x, 1) in chart v = 1, so once
    # that chart fails, searching x = 0 (mod p) decides the second chart
    rng = random.Random(1018)
    answers = {}
    for p, n in ((2, 400), (3, 200), (5, 100), (7, 60), (11, 40), (13, 40), (17, 40), (23, 40)):
        for high in (False, True):
            for _ in range(n):
                torsor = _random_torsor(rng, p, high)
                if torsor is None:
                    continue
                fv, fu = _charts(*torsor)
                try:
                    first = _chart_solvable(fv, p)
                    want = first or _chart_solvable(fu, p)
                except SolverPrecisionError:
                    continue  # the full search gave no answer to compare with
                assert _torsor_solvable_at(*torsor, p) == want, (torsor, p)
                if p != 2:
                    # the closed form _torsor_solvable_at uses at odd p: on pZ_p,
                    # f(x) = d^3 (mod p^2) for a unit d, and v(f) = 3 when p | d.
                    # Checked for every class rep d at p with the torsor's a, b;
                    # d = 1 is among them, so both answers occur.
                    for d in _class_reps(p):
                        fd = _charts(d, *torsor[1:])[1]
                        assert _pzp_chart_solvable(fd, p) == (jacobi(d % p, p) == 1), (d, torsor, p)
                if first:
                    continue
                assert _pzp_chart_solvable(fu, p) == want, (fu, p)
                answers[p, want] = answers.get((p, want), 0) + 1
    # At odd p that pZ_p search is always empty for d != 1: a unit d would
    # need d w^2 = d^2 u^4 (mod p), so d is a square, and p | d gives f(x)
    # valuation 3.  At 2 both answers occur, so neither branch is vacuous.
    assert answers.get((2, True)) and answers.get((2, False)), answers
    assert all(answers.get((p, False)) and not answers.get((p, True)) for p in (3, 5, 7, 11, 13, 17, 23))


@pytest.mark.parametrize(
    "f, p",
    [
        ((-865471690721, 0, 1816694, 0, -1), 11),
        ((4141402122, 0, 210270280467, 0, 2197), 13),
    ],
)
def test_pruned_scan_on_deep_charts(f, p):
    # deep trees: the reference runs here without a node budget
    assert _assert_scan_matches_reference(f, p) is False


def _moved(rng, f, shift, odd=False):
    """f with each even-degree coefficient moved by a multiple of 2^shift
    (an odd multiple for at least one coefficient when odd is set)."""
    moves = [rng.randint(-4, 4) for _ in range(3)]
    if odd:
        moves[rng.randrange(3)] = rng.choice((-1, 1))
    c0, _, c2, _, c4 = f
    return (c0 + (moves[0] << shift), 0, c2 + (moves[1] << shift), 0, c4 + (moves[2] << shift))


def _normal_scan(f, p):
    """(g, (found, n)): the normal chart g of f and _zp_scan's verdict and
    digit count on it, at _chart_scan's budget."""
    _, g = _normal_chart(f, p)
    return g, _zp_scan(g, p, _disc_vp(g, p) + 6)


def test_chart_digit_count_is_a_certificate():
    # every normal chart that agrees with g mod 2^n, for the n digits
    # _zp_scan names at 2, gets g's verdict and names the same n; with one
    # digit fewer some verdicts change.  g is the normal chart of a torsor
    # chart or of its scaling f(2t), the chart u = 1 searched on 2Z_2.
    rng = random.Random(1406)
    tested = changed = 0
    while tested < 1500:
        f = _random_chart(rng, 2, rng.random() < 0.5)
        if f is None:
            continue
        if rng.random() < 0.5:
            f = _shift_scale(f, 0, 2)
        g, (found, n) = _normal_scan(f, 2)
        for _ in range(3):
            h = _moved(rng, g, n)
            if h[0] and h[4] and h[2] ** 2 != 4 * h[0] * h[4]:
                assert _normal_scan(h, 2) == (h, (found, n)), (g, h, n)
        h = _moved(rng, g, n - 1, odd=True)
        if h[0] and h[4] and h[2] ** 2 != 4 * h[0] * h[4]:
            try:
                changed += _normal_scan(h, 2)[1][0] != found
            except SolverPrecisionError:
                changed += 1
        tested += 1
    assert changed > 300, changed  # 427 of the 1,500


def _rooted_chart(rng, p):
    """A chart with the root x0 in 1..6, at which v_p(f'(x0)) is about w, or
    half the time a p-adic root near x0: c0 = -(c2 x0^2 + c4 x0^4), then
    moved by a multiple of p^m."""
    x0, w = rng.randint(1, 6), rng.randint(0, 3)
    c4 = rng.choice((1, -1)) * rng.randint(1, 60)
    c2 = -2 * c4 * x0 * x0 + rng.choice((1, -1, 2)) * p**w * rng.choice((1, 1, p))
    c0 = -(c2 * x0 * x0 + c4 * x0**4)
    if rng.random() < 0.5:
        c0 += rng.choice((1, -1, 2, 3)) * p ** rng.randint(2, 9)
    return (c0, 0, c2, 0, c4) if c0 and c2 * c2 != 4 * c0 * c4 else None


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_root_exit_digit_count_is_a_certificate(p):
    # the scan's Hensel exit at a root x0 of f (exact or nearby) reads 2w + 1
    # digits of f(x0), w = v_p(f'(x0)); random torsor charts rarely reach
    # it.  Moving c0 moves f(x0) and nothing else: by multiples of p^n the
    # verdict and n stay, by multiples of p^(n-1) the verdict changes on
    # some charts.  With the exit cut to 2w, moves by p^n change the verdict
    # at odd p; with the square exit tested before Hensel, they change n.
    # g is the normal chart of a chart or of its scaling f(p t), as the
    # chart u = 1 is searched.
    rng = random.Random(p)
    tested = changed = 0
    while tested < 600:
        f = _rooted_chart(rng, p)
        if f is None:
            continue
        if rng.random() < 0.5:
            f = _shift_scale(f, 0, p)
        g, (found, n) = _normal_scan(f, p)
        c0, _, c2, _, c4 = g
        for j in (1, -1, 2, 3):
            for shift in (n, n - 1):
                h = (c0 + j * p**shift, 0, c2, 0, c4)
                if h[0] and c2 * c2 != 4 * h[0] * c4:
                    if shift == n:
                        assert _normal_scan(h, p) == (h, (found, n)), (g, h, n)
                    else:
                        changed += _normal_scan(h, p)[1][0] != found
        tested += 1
    assert changed > 300, changed  # 404 to 722 of about 2,400 moves by p^(n-1)


def _memo_hit(g, p):
    """(n, found) of the entry that _chart_scan's lookup finds for the
    normal chart g in the chart memo as it stands, or None."""
    c0, _, c2, _, c4 = g
    for n, table in descent._CHART_MEMO.get((p, _vp(c0, p)), {}).items():
        q = p**n
        found = table.get((c0 % q, c2 % q, c4 % q))
        if found is not None:
            return n, found
    return None


def _charts_met(monkeypatch):
    """Every (f, p, verdict, hit) of a _chart_scan call, in order, from an
    empty chart memo, with hit the memo entry (n, found) that its lookup
    finds (_memo_hit), or None for a fresh scan: the duality loop at 2 on
    every curve of E(300), then both sides' exhaustive local images
    (_local_image_tags on each side) at every place of a 400-curve sample at
    X = 10^3, whose odd p <= 13 are scanned."""
    monkeypatch.setattr(descent, "_CHART_MEMO", {})
    calls = []
    scan = descent._chart_scan

    def recording(f, p):
        hit = _memo_hit(_normal_chart(f, p)[1], p)
        got = scan(f, p)
        calls.append((f, p, got, hit))
        return got

    monkeypatch.setattr(descent, "_chart_scan", recording)
    for c in enumerate_window(300):
        descent._dual_images(c.A, c.B, 2)
    for B, As in sample_keys(1000, True, 400, 13).items():
        for A in As:
            _exhaustive_masks(A, B, relevant_places(A, B))
    return calls


def test_chart_memo_replays_a_fresh_scan(monkeypatch):
    # the memo's verdict, and the digit count of the entry a hit reads, on
    # every chart the duality loop at 2 and the exhaustive images meet equal
    # a fresh _zp_scan's of its normal chart; a memo keyed on one digit
    # fewer than the scan read answers some chart wrongly
    calls = _charts_met(monkeypatch)
    fresh = {}
    short = {}  # (p, v_p(c0)) -> {n - 1: {(c0, c2, c4) mod p^(n-1): found}}
    wrong = 0
    for f, p, got, memo in calls:
        _, g = _normal_chart(f, p)
        if (g, p) not in fresh:
            fresh[g, p] = _zp_scan(g, p, _disc_vp(g, p) + 6)
        want, n = fresh[g, p]
        assert got == want and memo in (None, (n, want)), (f, p, got, memo)
        c0, _, c2, _, c4 = g  # the memo's lookup, with each count cut by one
        bucket = short.setdefault((p, _vp(c0, p)), {})
        for m, table in bucket.items():
            q = p**m
            hit = table.get((c0 % q, c2 % q, c4 % q))
            if hit is not None:
                wrong += hit != want
                break
        else:
            q = p ** (n - 1)
            bucket.setdefault(n - 1, {})[c0 % q, c2 % q, c4 % q] = want
    scanned = sum(len(table) for bucket in descent._CHART_MEMO.values() for table in bucket.values())
    odd = sum(p != 2 for _, p, _, _ in calls)
    assert len(calls) > 5 * scanned and odd > 1000, (len(calls), scanned, odd)
    assert wrong, wrong


def test_spot_curve_selmer_groups():
    sphi = selmer_phi(0, 1)
    assert sphi.classes == frozenset({1, -1, 2, -2}) and sphi.dim == 2
    sphh = selmer_phihat(0, 1)
    assert sphh.classes == frozenset({1}) and sphh.dim == 0
    assert descent_exponent(0, 1) == 2
    assert sel2_lower_bound(0, 1) == 1


def test_selmerset_validation():
    with pytest.raises(ValueError):
        SelmerSet("phi", frozenset({1, 2, 3}))  # not closed
    with pytest.raises(ValueError):
        SelmerSet("phi", frozenset({2, -2}))  # no identity
    with pytest.raises(ValueError):
        SelmerSet("phi", frozenset({1, 2, 3, 5}))  # a power of 2 in size, not closed
    assert SelmerSet("phi", frozenset({1, -1, 2, -2})).dim == 2


def test_local_images_at_infinity():
    assert local_image(0, 1, INF_PLACE, "phi") == {1, -1}
    assert local_image(0, 1, INF_PLACE, "phihat") == {1}
    assert local_image(0, 1, 2, "phi") == {1, -1, 5, -5, 2, -2, 10, -10}


def test_forced_classes_and_subgroup(e60_sample):
    for c in e60_sample[:40]:
        sphi, sphh = selmer_phi(c.A, c.B), selmer_phihat(c.A, c.B)
        assert 1 in sphi.classes and 1 in sphh.classes
        assert squarefree_part(c.A * c.A - 4 * c.B) in sphi.classes
        assert squarefree_part(c.B) in sphh.classes
        for s in (sphi, sphh):
            for x in s.classes:
                for y in s.classes:
                    assert squarefree_part(x * y) in s.classes


def test_local_duality_small_sample(e60_sample):
    want = {INF_PLACE: 2, 2: 8}
    for c in e60_sample[:25]:
        for v in relevant_places(c.A, c.B):
            na = len(local_image(c.A, c.B, v, "phi"))
            nb = len(local_image(c.A, c.B, v, "phihat"))
            assert na * nb == want.get(v, 4), (c.A, c.B, v)


def test_product_formula_small_sample(e60_sample):
    from selmerlab.local_analysis import tamagawa_exponent

    for c in e60_sample[:40]:
        assert tamagawa_exponent(c).total == descent_exponent(c.A, c.B), (c.A, c.B)


def test_image_invariant_under_model_rescaling(e60_sample):
    # (A, B) -> (4A, 16B) is an isomorphic model; local conditions agree
    for c in e60_sample[:8]:
        for v in relevant_places(c.A, c.B):
            for side in ("phi", "phihat"):
                a1 = local_image(c.A, c.B, v, side)
                a2 = local_image(4 * c.A, 16 * c.B, v, side)
                assert a1 == a2, (c.A, c.B, v, side)


def _search_global_point(d, a, b, bound=18):
    for u in range(0, bound + 1):
        for v in range(0, bound + 1):
            if u == v == 0:
                continue
            rhs = d * d * u**4 + a * d * u**2 * v**2 + b * v**4
            if rhs % d == 0 and rhs // d >= 0 and math.isqrt(rhs // d) ** 2 == rhs // d:
                return (u, v)
    return None


def test_real_place_is_an_ordinary_mask(e60_sample):
    # a class's bit in the real image is its closed-form real solvability, so
    # the assembly reads inf off its mask like any other place
    for c in e60_sample:
        for side in ("phi", "phihat"):
            a, b = _side_coefficients(c.A, c.B, side)  # b is the side's kernel
            mask = _local_image_tags(a, b, INF_PLACE)
            for d in signed_squarefree_divisors(b):
                got = bool(mask >> _class_index(d, INF_PLACE) & 1)
                assert got == _real_solvable(d, a, b), (c.A, c.B, side, d)


def test_shared_masks_give_each_sides_own_group(e60_sample):
    for c in e60_sample[:40]:
        places = relevant_places(c.A, c.B)
        masks, exhaustive = local_masks(c.A, c.B, places), _exhaustive_masks(c.A, c.B, places)
        assert selmer_phi(c.A, c.B, masks) == selmer_phi(c.A, c.B, exhaustive)
        assert selmer_phihat(c.A, c.B, masks) == selmer_phihat(c.A, c.B, exhaustive)


def test_groups_without_masks_equal_the_exhaustive_groups(e60_sample):
    # given no masks, the public groups read local_masks at relevant_places;
    # the reference tests every class on each side
    for c in e60_sample:
        exhaustive = _exhaustive_masks(c.A, c.B, relevant_places(c.A, c.B))
        assert selmer_phi(c.A, c.B) == selmer_phi(c.A, c.B, exhaustive), (c.A, c.B)
        assert selmer_phihat(c.A, c.B) == selmer_phihat(c.A, c.B, exhaustive), (c.A, c.B)


def test_class_count_is_the_number_of_class_representatives():
    for v in (INF_PLACE, 2, 3, 5, 13, 17, 101):
        assert _class_count(v) == len(_class_reps(v)), v


def _per_divisor_selmer(A, B, side, masks):
    """The assembly as a class test per divisor, the reference for the
    syndrome map: every signed squarefree divisor of the side's kernel is
    kept when its index lies in the image at every place."""
    kernel = _side_coefficients(A, B, side)[1]
    images = {v: m[int(side == "phihat")] for v, m in masks.items()}
    return frozenset(
        d for d in signed_squarefree_divisors(kernel) if all(m >> _class_index(d, v) & 1 for v, m in images.items())
    )


def _assembly_mismatches(cases, masks_of):
    """The (A, B, side) whose syndrome-map group differs from the per-divisor
    reference, or whose assembly raised, with the same masks on both."""
    bad = []
    for A, B in cases:
        masks = masks_of(A, B)
        for side in ("phi", "phihat"):
            try:
                got = _selmer(A, B, side, masks).classes
            except (AssertionError, ValueError) as exc:
                got = exc
            if got != _per_divisor_selmer(A, B, side, masks):
                bad.append((A, B, side))
    return bad


def _ledger_masks(A, B):
    return local_masks(A, B, relevant_places(A, B))


def test_syndrome_assembly_matches_the_per_divisor_loop_on_e300():
    cases = [(c.A, c.B) for c in enumerate_window(300)]
    assert len(cases) > 20000
    assert _assembly_mismatches(cases, _ledger_masks) == []


def test_syndrome_assembly_matches_the_per_divisor_loop_on_e60(e60_sample):
    cases = [(c.A, c.B) for c in e60_sample]
    assert _assembly_mismatches(cases, _ledger_masks) == []
    assert _assembly_mismatches(cases, lambda A, B: _exhaustive_masks(A, B, relevant_places(A, B))) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(-(10**9), 10**9), st.integers(-(10**6), 10**6))
def test_syndrome_assembly_matches_the_per_divisor_loop_on_large_a(A, B):
    assume(B * (A * A - 4 * B) != 0)
    assert _assembly_mismatches([(A, B)], _ledger_masks) == []


def test_a_mask_dict_missing_a_kernel_prime_raises(e60_sample):
    # the candidates are the span of -1 and the kernel's primes among the
    # places; checked against the kernel's own divisors, a dropped prime raises
    dropped = 0
    for c in e60_sample[:40]:
        masks = _ledger_masks(c.A, c.B)
        for side in ("phi", "phihat"):
            kernel = _side_coefficients(c.A, c.B, side)[1]
            for v in [v for v in masks if v != INF_PLACE and kernel % v == 0]:
                with pytest.raises(AssertionError, match="miss a prime"):
                    _selmer(c.A, c.B, side, {w: m for w, m in masks.items() if w != v})
                dropped += 1
    assert dropped > 40


def test_a_flipped_syndrome_bit_fails_the_differential_check(e60_sample, monkeypatch):
    # one bit of each syndrome table flipped (bit 0 of the entry of index 1)
    # must show in the comparison with the per-divisor loop
    table = descent._syndrome_table

    def flipped(n, m):
        t, width = table(n, m)
        return (t[0], t[1] ^ 1, *t[2:]), width

    monkeypatch.setattr(descent, "_syndrome_table", flipped)
    assert _assembly_mismatches([(c.A, c.B) for c in e60_sample], _ledger_masks)


def test_syndrome_tables_are_linear_and_vanish_on_the_image():
    # every subgroup mask of every place size: t[i] == 0 exactly on the mask,
    # t[i ^ j] == t[i] ^ t[j], and the width is the codimension
    for n in (2, 4, 8):
        for m in range(1, 1 << n):
            if descent._mul_sets(m, m) != m:
                continue  # not a subgroup
            t, width = descent._syndrome_table(n, m)
            assert [t[i] == 0 for i in range(n)] == [bool(m >> i & 1) for i in range(n)], (n, m)
            assert all(t[i ^ j] == t[i] ^ t[j] for i in range(n) for j in range(n)), (n, m)
            assert 1 << width == n // m.bit_count() and max(t) < 1 << width, (n, m)


def test_selmer_reads_each_generator_index_once_per_place(e60_sample, monkeypatch):
    # at most (#generators x #places) _class_index calls per group, against
    # (#divisors x #places) for a class test per divisor
    calls = [0]
    index = descent._class_index

    def counted(d, v):
        calls[0] += 1
        return index(d, v)

    cases = [(c.A, c.B, _ledger_masks(c.A, c.B)) for c in e60_sample]
    monkeypatch.setattr(descent, "_class_index", counted)
    for A, B, masks in cases:
        for side in ("phi", "phihat"):
            kernel = _side_coefficients(A, B, side)[1]
            gens = 1 + sum(1 for v in masks if v != INF_PLACE and kernel % v == 0)
            calls[0] = 0
            _selmer(A, B, side, masks)
            assert calls[0] <= gens * len(masks), (A, B, side)


def test_odd_hilbert_table():
    # the bit form of (x, y)_p against Serre's formula (A Course in
    # Arithmetic, III.1.2) for p = 1 and 3 mod 4, on representatives and on
    # random integers, and the complements it gives are exact
    def serre(x, y, p):
        a, b = _vp(x, p), _vp(y, p)
        u, w = x // p**a, y // p**b
        e = a * b * (p - 1) // 2 + b * (jacobi(u % p, p) == -1) + a * (jacobi(w % p, p) == -1)
        return e % 2

    rng = random.Random(3)
    subgroups = [m for m in range(16) if m & 1 and descent._mul_sets(m, m) == m]
    assert len(subgroups) == 5
    for p in primes_below(32)[1:]:
        eps = p >> 1 & 1
        reps = _class_reps(p)
        orth = descent._ORTH_ODD[eps]
        for x in range(4):
            for y in range(4):
                assert descent._hilbert_odd(x, y, eps) == serre(reps[x], reps[y], p), (p, x, y)
                assert orth[1 << x] >> y & 1 == 1 - serre(reps[x], reps[y], p), (p, x, y)
        for _ in range(100):
            x, y = (rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(2))
            assert descent._hilbert_odd(_class_index(x, p), _class_index(y, p), eps) == serre(x, y, p)
        for m in subgroups:
            assert orth[m].bit_count() * m.bit_count() == 4 and orth[orth[m]] == m, (p, m)


def test_class_tables_match_their_pairwise_definitions():
    # _TIMES, _ORTH and _ORTH_ODD are built entry from entry by the lowest
    # set bit; each entry against its definition over every pair of classes
    for x in range(8):
        for m in range(256):
            assert descent._TIMES[x][m] == sum(1 << (x ^ y) for y in range(8) if m >> y & 1), (x, m)
    tables = [(descent._ORTH, descent._hilbert2, 8)]
    tables += [(descent._ORTH_ODD[eps], lambda x, y, e=eps: descent._hilbert_odd(x, y, e), 4) for eps in (0, 1)]
    for orth, pair, n in tables:
        assert len(orth) == 1 << n
        for m in range(1 << n):
            want = sum(1 << y for y in range(n) if not any(m >> x & 1 and pair(x, y) for x in range(n)))
            assert orth[m] == want, (n, m)


def _masks_cases(e60_sample):
    """Curves for the duality loop: the e60 sample, a 400-curve sample at
    X = 10^3, p^k | A and p^k | B at p = 3..23, and the deep 2-adic columns
    B = +-16, +-48, +-64, +-96."""
    rng = random.Random(14)
    cases = [(c.A, c.B) for c in e60_sample]
    cases += [(A, B) for B, As in sample_keys(1000, True, 400, 14).items() for A in As]
    for p in primes_below(24)[1:]:
        for k in (1, 2, 3):
            cases += [(p**k * rng.randint(-9, 9), p**k * rng.choice((-1, 1)) * rng.randint(1, 9)) for _ in range(6)]
    cases += [(A, s * B) for B in (16, 48, 64, 96) for s in (1, -1) for A in range(-40, 41)]
    return [(A, B) for A, B in cases if B * (A * A - 4 * B)]


def test_duality_masks_equal_exhaustive_masks(e60_sample):
    # the duality loop's images equal each side's own exhaustive search at
    # every place: local Tate duality, checked, not assumed
    cases = _masks_cases(e60_sample)
    assert len(cases) > 1200
    for A, B in cases:
        places = relevant_places(A, B)
        assert local_masks(A, B, places) == _exhaustive_masks(A, B, places), (A, B)


def test_descent_runs_its_own_place_two(monkeypatch, request):
    # with the descent, a sampled curve runs the duality loop at 2 once, for
    # the descent (the ledger's factor_at_two runs Tate's algorithm at 2),
    # and a full-window column runs it never for the ledger (its sieve runs
    # Tate's algorithm once per 2-adic class) and once per member for the
    # descent; the descent's masks are each side's exhaustive images.  A
    # chart-memo hit returns what a fresh scan returns, so a column's
    # records are the same from an empty memo, a warm one and one that
    # never stores.
    runs = []
    loop = descent._dual_images

    def recording(A, B, v):
        runs.append(v)
        return loop(A, B, v)

    monkeypatch.setattr(descent, "_dual_images", recording)
    n = 0
    for B, As in sample_keys(1000, True, 400, 15).items():
        for A in As:
            runs.clear()
            curve_record(CurvePair(A, B), with_descent=True)
            assert runs.count(2) == 1, (A, B)
            places = relevant_places(A, B)
            assert local_masks(A, B, places) == _exhaustive_masks(A, B, places), (A, B)
            n += 1
    assert n == 400
    for B in (-7, 16, 24):
        counts = []
        for with_descent in (False, True):
            runs.clear()
            _column_records(100, with_descent, True, (B, None))
            counts.append(runs.count(2))
        members = len(list(column_members(B, 100)))
        assert counts[0] == 0 and counts[1] == members, (B, counts)
    runs.clear()
    for B in window_columns(100):  # all of compute --xmax 100
        _column_records(100, False, True, (B, None))
    assert runs == []
    monkeypatch.setattr(descent, "_CHART_MEMO", {})
    passes = []
    for memo in ("empty", "warm", "never stores"):
        if memo == "never stores":
            request.getfixturevalue("scan_oracle")
        passes.append([_column_records(100, True, True, (B, None)) for B in (-7, 16, 24)])
    assert passes[0] == passes[1] == passes[2]


def test_duality_loop_probes_only_open_classes(e60_sample, monkeypatch):
    # each side starts from 1 and its free class (the class of its kernel b),
    # so neither is ever probed; and a probe that denies one solvable class
    # at an odd place leaves the images short of |W| |W^| = 4, so the
    # candidates run out: AssertionError, never a wrong mask
    probes = []
    honest = descent._torsor_solvable_at

    def probe(d, a, b, p):
        probes.append((d, b, p))
        return honest(d, a, b, p)

    monkeypatch.setattr(descent, "_torsor_solvable_at", probe)
    cases = _masks_cases(e60_sample)
    for A, B in cases:  # the loop itself at every finite place, past the memo at 2
        for v in relevant_places(A, B)[1:]:
            descent._dual_images(A, B, v)
    assert len(probes) < 10 * len(cases)
    for d, b, v in probes:
        assert _class_index(d, v) not in (0, _class_index(b, v)), (d, b, v)

    lies = 0
    for A, B in cases[:200]:
        for p in relevant_places(A, B)[2:]:
            lied = []

            def lying(d, a, b, v):
                ok = honest(d, a, b, v)
                if ok and not lied:
                    lied.append(d)
                    return False
                return ok

            monkeypatch.setattr(descent, "_torsor_solvable_at", lying)
            try:
                descent._dual_images(A, B, p)
            except AssertionError:
                lies += 1
            else:
                assert not lied, (A, B, p, lied)
    assert lies > 50, lies


def test_rational_point_soundness(e60_sample):
    # a torsor with a global point must be solvable at every tested place
    from selmerlab.core_arith import signed_squarefree_divisors

    hits = 0
    for c in e60_sample:
        a, b = _side_coefficients(c.A, c.B, "phi")
        for d in sorted(signed_squarefree_divisors(b)):
            if _search_global_point(d, a, b) is not None:
                hits += 1
                assert solvable_real(TorsorQuartic(d, a, b))
                for p in relevant_places(c.A, c.B)[1:]:  # the primes of d are among them
                    assert _torsor_solvable_at(d, a, b, p), (c.A, c.B, d, p)
        if hits > 25:
            break
    assert hits > 10


def test_good_primes_are_automatically_solvable(e60_sample):
    rng = random.Random(17)
    checked = 0
    for c in e60_sample[:10]:
        a, b = _side_coefficients(c.A, c.B, "phi")
        bad = set(relevant_places(c.A, c.B)[1:])
        for p in rng.sample([p for p in primes_below(200) if p > 2], 8):
            if p in bad:
                continue
            for d in (1, -1):
                assert _torsor_solvable_at(d, a, b, p)
                checked += 1
    assert checked > 50


def test_square_class_tags():
    # indices: bit 0 the sign at inf; at odd p bit 0 a non-residue unit and
    # bit 1 p; at 2 the bits of -1, 5 and 2
    assert _class_index(-4, 2) == 1
    assert _class_index(-90, 2) == 7
    assert _class_index(36, 3) == 0
    assert _class_index(12, 3) == 2
    assert _class_index(6, 3) == 3
    assert _class_index(-1, INF_PLACE) == 1


_NONZERO = st.integers(-(10**12), 10**12).filter(bool)


@given(_NONZERO, _NONZERO, _NONZERO, st.sampled_from([INF_PLACE, 2, 3, 5, 13, 17, 101]))
def test_class_index_is_a_homomorphism(d, e, k, v):
    # one encoding for every place: products are XORs, squares are trivial,
    # and _class_reps(v)[i] has index i
    assert _class_index(d * e, v) == _class_index(d, v) ^ _class_index(e, v)
    assert _class_index(d * k * k, v) == _class_index(d, v)
    assert [_class_index(r, v) for r in _class_reps(v)] == list(range(len(_class_reps(v))))
