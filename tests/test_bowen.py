import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import pressurelab as pl
from pressurelab._engine import CoverProgram, _TreeProgram, _window_gains, cover_min_log, leaf_sum_logs
from pressurelab.bowen import _bisect_critical, enlargement_cylinder
from pressurelab.capacity import log_partition_function
from pressurelab.subsets import TargetAutomaton, WordLayers, count_target_words
from pressurelab.symbolic import is_strongly_connected
from brute import (
    UnprunedWordLayers,
    admissible_words,
    all_words,
    brute_min_cover,
    cover_fold_walk,
    grow_band_loop,
    inf_birkhoff,
    interval_min_cover,
    last_symbol_tree,
    leaf_sum_walk,
    lp_weighted_cover,
    oracle_costs,
    random_sub_relation,
    spectral_log_radius,
    sup_birkhoff,
    transfer_weights,
)

FULL2 = pl.full_shift(2)
GM = pl.golden_mean_shift()
F0 = pl.zero_potential(FULL2)
F10 = pl.potential_from_table(FULL2, 1, {(0,): 1.0, (1,): 0.0})
LOG_PHI = math.log((1 + math.sqrt(5)) / 2)
LOG_FLOAT_MAX = math.log(sys.float_info.max)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# explicit cover pricing


def test_cover_value_unit_balls_arithmetic():
    balls = [pl.Ball(w, 2, pl.Scale(1)) for w in [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]]
    got = pl.cover_value(FULL2, pl.unweighted_cover(balls), F0, math.log(2))
    assert got == pytest.approx(1.0, rel=1e-12)


def test_cover_value_single_ball_sup_over_cylinder():
    ball = pl.Ball((0, 0, 0), 2, pl.Scale(1))
    got = pl.cover_value(FULL2, pl.unweighted_cover([ball]), F10, 0.0)
    oracle = math.exp(sup_birkhoff(FULL2.allowed, {(0,): 1.0, (1,): 0.0}, 1, (0, 0, 0), 2))
    assert got == pytest.approx(math.e ** 2, rel=1e-12)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_cover_value_centered_at_most_sup():
    ball = pl.Ball((0, 1, 0), 2, pl.Scale(1))
    centered = pl.cover_value(FULL2, pl.unweighted_cover([ball]), F10, 0.0, centered=True)
    sup = pl.cover_value(FULL2, pl.unweighted_cover([ball]), F10, 0.0)
    assert centered == pytest.approx(math.e, rel=1e-12)
    assert centered <= sup + 1e-12
    # a ball's cylinder fixes n + m symbols, which determines the whole
    # n-step sum whenever the potential depth is at most m + 1, so here the
    # two variants agree exactly; the inequality direction is what matters
    assert centered == pytest.approx(sup, rel=1e-12)
    table = {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 1.0}
    f2 = pl.potential_from_table(FULL2, 2, table)
    for w in itertools.product(range(2), repeat=3):
        ball2 = pl.Ball(w, 2, pl.Scale(1))
        c2 = pl.cover_value(FULL2, pl.unweighted_cover([ball2]), f2, 0.0, centered=True)
        s2 = pl.cover_value(FULL2, pl.unweighted_cover([ball2]), f2, 0.0)
        assert c2 <= s2 + 1e-12


def test_cover_values_past_the_float_range_read_inf():
    # the all-0 depth-12 ball at f(0) = 100 has sup f_11 = 1100, past the
    # float range; the explicit cover and the optimal one both read inf
    f = pl.potential_from_table(FULL2, 1, {(0,): 100.0, (1,): 0.0})
    ball = pl.Ball((0,) * 12, 11, pl.Scale(1))
    assert pl.cover_value(FULL2, pl.unweighted_cover([ball]), f, 0.0) == math.inf
    assert pl.min_cover_value(FULL2, pl.whole(), f, 0.0, 11, pl.Scale(1), 12) == math.inf


def test_ball_validates_word_length():
    with pytest.raises(ValueError):
        pl.Ball((0, 0), 2, pl.Scale(1))


# ---------------------------------------------------------------------------
# minimal cover value against exhaustive search


def test_interval_oracle_matches_blind_search_tiny():
    rng = np.random.default_rng(17)
    for _ in range(10):
        table = {(a,): float(rng.uniform(-1, 1)) for a in range(2)}
        s = float(rng.uniform(0.0, 1.0))
        leaves = admissible_words(FULL2.allowed, 3)
        cost = oracle_costs(FULL2.allowed, table, 1, leaves, s, 1, 3)
        a = brute_min_cover(leaves, cost, 1, 3)
        b = interval_min_cover(leaves, cost, 1, 3)
        assert a == pytest.approx(b, rel=1e-12)


def test_min_cover_full_shift_threshold_value():
    got = pl.min_cover_value(FULL2, pl.whole(), F0, math.log(2), 2, pl.Scale(1), 8)
    assert got == pytest.approx(1.0, rel=1e-12)
    leaves = admissible_words(FULL2.allowed, 8)
    cost = oracle_costs(FULL2.allowed, {(0,): 0.0, (1,): 0.0}, 1, leaves, math.log(2), 3, 8)
    assert got == pytest.approx(interval_min_cover(leaves, cost, 3, 8), rel=1e-12)


def test_min_cover_matches_oracle_on_golden_mean():
    table = {(0,): 0.4, (1,): -0.2}
    f = pl.potential_from_table(GM, 1, table)
    for s in (0.1, 0.5, 0.9):
        got = pl.min_cover_value(GM, pl.whole(), f, s, 2, pl.Scale(1), 7)
        leaves = admissible_words(GM.allowed, 7)
        cost = oracle_costs(GM.allowed, table, 1, leaves, s, 3, 7)
        assert got == pytest.approx(interval_min_cover(leaves, cost, 3, 7), rel=1e-12)


def test_min_cover_matches_oracle_on_sub_target():
    gm_inside = pl.sub_sft(((True, True), (True, False)))
    table = {(0,): 1.0, (1,): 0.0}
    for s in (0.3, 0.8):
        got = pl.min_cover_value(FULL2, gm_inside, F10, s, 2, pl.Scale(1), 7)
        leaves = admissible_words(GM.allowed, 7)
        cost = oracle_costs(FULL2.allowed, table, 1, leaves, s, 3, 7)
        assert got == pytest.approx(interval_min_cover(leaves, cost, 3, 7), rel=1e-12)


def test_min_cover_matches_oracle_on_union_target():
    a = pl.sub_sft(((True, True), (True, False)))
    b = pl.sub_sft(((False, False), (False, True)))
    union = pl.finite_union(a, b)
    leaves = sorted(set(admissible_words(GM.allowed, 6)) | {(1,) * 6})
    got = pl.min_cover_value(FULL2, union, F0, 0.5, 2, pl.Scale(1), 6)
    cost = oracle_costs(FULL2.allowed, {(0,): 0.0, (1,): 0.0}, 1, leaves, 0.5, 3, 6)
    assert got == pytest.approx(interval_min_cover(leaves, cost, 3, 6), rel=1e-12)


def test_min_cover_matches_oracle_on_frequency_target():
    spec = pl.frequency_level(0, 0.5, 0.1)
    leaves = [w for w in all_words(2, 6) if abs(w.count(0) / 6 - 0.5) <= 0.1 + 1e-12]
    got = pl.min_cover_value(FULL2, spec, F0, 0.4, 2, pl.Scale(1), 6)
    cost = oracle_costs(FULL2.allowed, {(0,): 0.0, (1,): 0.0}, 1, leaves, 0.4, 3, 6)
    assert got == pytest.approx(interval_min_cover(leaves, cost, 3, 6), rel=1e-12)


def test_min_cover_window_behavior():
    # shrinking the window from below can only raise the minimum
    s = math.log(2) + 0.2
    vals = [
        pl.min_cover_value(FULL2, pl.whole(), F0, s, N, pl.Scale(1), 10)
        for N in range(2, 7)
    ]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-15
    # above the crossing the value decays to zero as the depth budget grows
    deep = [
        pl.min_cover_value(FULL2, pl.whole(), F0, s, 2, pl.Scale(1), L)
        for L in (8, 16, 32, 64)
    ]
    for a, b in zip(deep, deep[1:]):
        assert b <= a + 1e-15
    assert deep[-1] < 1e-5


def test_min_cover_is_exactly_nonincreasing_in_depth():
    # whole and sub-SFT targets are prefix-closed: the depth-L prefixes of
    # the depth-L' target words are depth-L target words, and the window
    # [N + m, L] sits inside [N + m, L'], so a depth-L cover is a depth-L'
    # cover for every L' >= L; the minimum can only fall, not even by a bit
    gm_inside = pl.sub_sft(((True, True), (True, False)))
    cases = [(gm_inside, F0), (pl.whole(), F10)]
    for Z, f in cases:
        for s in (0.2, 0.45, math.log(2), 1.0, 1.4):
            for N, m in ((2, 1), (1, 2), (3, 0)):
                vals = [
                    pl.min_cover_value(FULL2, Z, f, s, N, pl.Scale(m), L)
                    for L in range(N + m, 19)
                ]
                for L, (a, b) in enumerate(zip(vals, vals[1:]), start=N + m):
                    assert b <= a, (Z, s, N, m, L, a, b)


def test_min_cover_decays_for_large_exponent():
    got = pl.min_cover_value(FULL2, pl.whole(), F0, 50.0, 2, pl.Scale(1), 8)
    assert got < 1e-60


def test_min_cover_depth_errors():
    with pytest.raises(pl.DepthTooShallow):
        pl.min_cover_value(FULL2, pl.whole(), F0, 0.5, 4, pl.Scale(2), 5)
    with pytest.raises(pl.EmptyTarget):
        pl.min_cover_value(FULL2, pl.frequency_level(0, 0.9, 0.01), F0, 0.5, 2, pl.Scale(1), 8)


# ---------------------------------------------------------------------------
# bisection


def test_bowen_pressure_full_shift_near_exact():
    ce = pl.bowen_pressure(FULL2, pl.whole(), F0, pl.Scale(1), 4, 16, tol=1e-3)
    assert abs(ce.midpoint - math.log(2)) <= 2e-3
    assert ce.width <= 1e-3
    assert ce.value_at_low >= 1.0 >= ce.value_at_high


def test_bowen_pressure_golden_mean_near_spectral():
    ce = pl.bowen_pressure(GM, pl.whole(), pl.zero_potential(GM), pl.Scale(1), 4, 18, tol=1e-3)
    assert abs(ce.midpoint - LOG_PHI) <= 5e-3


def test_bowen_pressure_weighted_potential():
    ce = pl.bowen_pressure(FULL2, pl.whole(), F10, pl.Scale(1), 2, 18, tol=1e-4)
    assert abs(ce.midpoint - math.log(math.e + 1)) <= 2e-4


# ---------------------------------------------------------------------------
# weighted (fractional) covers


def test_weighted_cover_never_exceeds_min_cover():
    rng = np.random.default_rng(23)
    for _ in range(12):
        table = {
            (a, b): float(rng.uniform(-0.6, 0.6))
            for a in range(2)
            for b in range(2)
            if GM.allowed[a][b]
        }
        f = pl.potential_from_table(GM, 2, table)
        s = float(rng.uniform(0.0, 1.0))
        w = pl.weighted_cover_value(GM, pl.whole(), f, s, 2, pl.Scale(1), 8)
        v = pl.min_cover_value(GM, pl.whole(), f, s, 2, pl.Scale(1), 8)
        assert w <= v * (1 + 1e-7) + 1e-9


def test_weighted_cover_integral_case_equals_min():
    w = pl.weighted_cover_value(FULL2, pl.whole(), F0, math.log(2), 2, pl.Scale(1), 6)
    v = pl.min_cover_value(FULL2, pl.whole(), F0, math.log(2), 2, pl.Scale(1), 6)
    assert w == pytest.approx(v, rel=1e-7)
    assert w == pytest.approx(1.0, rel=1e-7)


def test_weighted_cover_below_crossing_stays_above_one():
    w = pl.weighted_cover_value(GM, pl.whole(), pl.zero_potential(GM), 0.4, 2, pl.Scale(1), 10)
    v = pl.min_cover_value(GM, pl.whole(), pl.zero_potential(GM), 0.4, 2, pl.Scale(1), 10)
    assert w >= 1.0 - 1e-9
    assert w <= v * (1 + 1e-7)


def test_weighted_cover_far_above_crossing_is_small():
    w = pl.weighted_cover_value(FULL2, pl.whole(), F0, math.log(2) + 2.0, 2, pl.Scale(1), 8)
    assert w < 1.0


def _random_sub_sft(rng, host, L):
    rel = random_sub_relation(rng, host.allowed)
    return pl.sub_sft(rel), admissible_words(rel, L)


def _random_frequency(rng, host, L, words):
    symbol = int(rng.integers(0, host.alphabet_size))
    # centered on a realized frequency, so the target is never empty
    target = words[int(rng.integers(0, len(words)))].count(symbol) / L
    window = float(rng.uniform(0.05, 0.2))
    spec = pl.frequency_level(symbol, target, window)
    return spec, [w for w in words if abs(w.count(symbol) / L - target) <= window]


def _random_target(rng, host, L, kinds=range(3)):
    """A random target on host with its depth-L words, enumerated literally.

    The kind is drawn from ``kinds``: 0-2 are whole, sub-SFT and frequency
    targets, 3 a union of two sub-SFTs, and 4 a frequency part beside a
    nested union of two sub-SFTs. A union accepts a word when any part does.
    """
    words = admissible_words(host.allowed, L)
    kind = kinds[int(rng.integers(0, len(kinds)))]
    if kind == 0:
        return pl.whole(), words
    if kind == 1:
        return _random_sub_sft(rng, host, L)
    if kind == 2:
        return _random_frequency(rng, host, L, words)
    (a, words_a), (b, words_b) = _random_sub_sft(rng, host, L), _random_sub_sft(rng, host, L)
    if kind == 3:
        return pl.finite_union(a, b), sorted(set(words_a) | set(words_b))
    freq, words_f = _random_frequency(rng, host, L, words)
    spec = pl.finite_union(freq, pl.finite_union(a, b))
    return spec, sorted(set(words_f) | set(words_a) | set(words_b))


def test_weighted_cover_matches_dp_on_random_cases():
    # the covering constraint matrix has interval structure, so the LP
    # optimum is integral: an independently solved LP must coincide with
    # the library's weighted value and with the exhaustive cover minimum
    rng = np.random.default_rng(31)
    hosts = ((FULL2, 7), (GM, 8), (pl.full_shift(3), 5))
    for _ in range(8):
        for host, L in hosts:
            depth = int(rng.integers(1, 3))
            table = {
                w: float(rng.uniform(-1, 1)) for w in admissible_words(host.allowed, depth)
            }
            f = pl.potential_from_table(host, depth, table)
            spec, leaves = _random_target(rng, host, L)
            N, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            s = float(rng.uniform(0.2, 1.0))
            w = pl.weighted_cover_value(host, spec, f, s, N, pl.Scale(m), L)
            cost = oracle_costs(host.allowed, table, depth, leaves, s, N + m, L)
            lp = lp_weighted_cover(leaves, cost, N + m, L)
            assert abs(lp - w) <= 1e-9 * max(1.0, w)
            assert w == pytest.approx(interval_min_cover(leaves, cost, N + m, L), rel=1e-7)


def test_string_and_centered_covers_match_oracle_on_random_cases():
    # string covers (q = 2, 3) price a depth-d cylinder at horizon d - q + 1,
    # so the engine subtracts trailing windows or extends the tail; centered
    # covers price by the cylinder infimum. Both against the interval oracle.
    rng = np.random.default_rng(47)
    hosts = ((FULL2, 7), (GM, 8), (pl.full_shift(3), 5))
    for _ in range(6):
        for host, L in hosts:
            depth = int(rng.integers(1, 4))
            table = {
                w: float(rng.uniform(-1, 1)) for w in admissible_words(host.allowed, depth)
            }
            f = pl.potential_from_table(host, depth, table)
            spec, leaves = _random_target(rng, host, L, kinds=range(4))
            s = float(rng.uniform(0.2, 1.0))

            q = int(rng.integers(2, 4))
            N = int(rng.integers(1, 3))
            d_min = N + q - 1
            got = pl.string_cover_value(host, spec, f, s, N, q, L)
            cost = oracle_costs(host.allowed, table, depth, leaves, s, d_min, L, sigma=q - 1)
            assert got == pytest.approx(interval_min_cover(leaves, cost, d_min, L), rel=1e-9)

            d_min = int(rng.integers(1, 4))
            got = math.exp(cover_min_log(host, spec, f, s, 0, d_min, L, centered=True))
            cost = oracle_costs(host.allowed, table, depth, leaves, s, d_min, L, pick=inf_birkhoff)
            assert got == pytest.approx(interval_min_cover(leaves, cost, d_min, L), rel=1e-9)


def test_word_walks_run_at_depth_5000():
    # every word walk folds iteratively built layers, so depth is bounded by
    # time and memory, not by the interpreter's recursion limit
    depth = 5000
    table = {(0, 0): 0.3, (0, 1): -0.2, (1, 0): 0.1, (1, 1): 0.5}
    f = pl.potential_from_table(FULL2, 2, table)
    ce = pl.bowen_pressure(FULL2, pl.whole(), f, pl.Scale(1), 2, depth, tol=1e-4)
    spectral = spectral_log_radius(transfer_weights(FULL2.allowed, table, 2))
    assert abs(ce.midpoint - spectral) <= 1e-2

    M = np.array([[table[(a, b)] for b in range(2)] for a in range(2)])
    # log P_n at m = 1: a depth-n word fixes n - 1 windows and the last one
    # is maximized over the next symbol (log-sum-exp transfer recurrence)
    v = M.max(axis=1)
    for _ in range(depth - 1):
        v = np.logaddexp.reduce(M + v[None, :], axis=1)
    got = log_partition_function(FULL2, pl.whole(), f, depth, pl.Scale(1))
    assert got == pytest.approx(np.logaddexp.reduce(v), rel=1e-10)

    # sup of f_n over [0]: max-plus recurrence over the n free symbols
    v = np.zeros(2)
    for _ in range(depth):
        v = (M + v[None, :]).max(axis=1)
    assert pl.sup_birkhoff_on_cylinder(FULL2, f, (0,), depth) == pytest.approx(v[0], rel=1e-12)

    fixed_points = pl.finite_union(
        pl.sub_sft(((True, False), (False, False))), pl.sub_sft(((False, False), (False, True)))
    )
    assert pl.count_target_words(FULL2, fixed_points, depth) == 2
    assert pl.iter_target_words(FULL2, fixed_points, depth) == ((0,) * depth, (1,) * depth)


def _sequential_bisection(log_value, tol):
    """Reference walk: expand from 0, then bisect, one exponent per evaluation."""
    walk = []

    def probe(s):
        v = log_value(s)
        walk.append((s, v))
        return v

    lo = hi = 0.0
    step = 1.0
    if probe(0.0) >= 0.0:
        while True:
            hi = lo + step
            if probe(hi) < 0.0:
                break
            lo = hi
            step *= 2.0
            if step > 2 ** 40:
                raise RuntimeError("no upper bracket")
    else:
        while True:
            lo = hi - step
            if probe(lo) >= 0.0:
                break
            hi = lo
            step *= 2.0
            if step > 2 ** 40:
                raise RuntimeError("no lower bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if probe(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi, walk


def _assert_batched_bisection_replays(log_value, tol, batches=None):
    """The batched bisection walks exactly the reference's probes, in fewer
    evaluations, and returns its bracket; returns the number of batches and
    appends each batch's size to ``batches``."""
    batches = [] if batches is None else batches

    def log_values(points):
        batches.append(len(points))
        return [log_value(s) for s in points]

    lo, hi, walk = _sequential_bisection(log_value, tol)
    ce = _bisect_critical(log_values, tol, 1, 1, pl.Scale(1))
    assert (ce.s_low, ce.s_high) == (lo, hi)
    assert [s for s, _ in ce.history] == [s for s, _ in walk]
    for (_, got), (_, v) in zip(ce.history, walk):
        assert got == pytest.approx(math.exp(v) if v <= LOG_FLOAT_MAX else math.inf, rel=1e-12)
    assert ce.value_at_low == dict(ce.history)[ce.s_low]
    return len(batches)


def test_batched_bisection_replays_sequential_walk_on_synthetic_maps():
    cases = [
        (lambda s: 0.61 - s, 1e-4),  # one upward expansion
        (lambda s: 37.2 - s, 1e-4),  # upward expansion beyond one batch
        (lambda s: -20.7 - s, 1e-4),  # downward expansion
        (lambda s: 0.625 - s, 1e-4),  # a probe lands exactly on the crossing
        (lambda s: 3.0 if s < 0.3 else -2.0, 1e-3),  # a jump, not a crossing
        (lambda s: 2.5 - 3.0 * (s + 0.37), 1e-7),  # a shifted map, a finer tolerance
        (lambda s: math.log(2) - (s - 4.0) ** 3, 1e-5),  # a shifted cubic, upward
        (lambda s: math.log(2) - (s + 4.0) ** 3, 1e-5),  # a shifted cubic, downward
        (lambda s: 700.5 - 1000.0 * s, 1e-6),  # finite values above exp(700)
        (lambda s: 750.5 - 1000.0 * s, 1e-6),  # values past exp's range
        (lambda s: 705.0 if s < 0.3 else -2.0, 1e-3),  # s_low's value above exp(700)
    ]
    for log_value, tol in cases:
        batches = _assert_batched_bisection_replays(log_value, tol)
        probes = len(_sequential_bisection(log_value, tol)[2])
        assert batches <= 1 + probes // 3
    for log_value, side in ((lambda s: 1.0, "upper"), (lambda s: -1.0, "lower")):
        with pytest.raises(RuntimeError, match=f"no {side} bracket"):
            _sequential_bisection(log_value, 1e-4)
        with pytest.raises(RuntimeError, match=f"no {side} bracket"):
            _bisect_critical(lambda ss: [log_value(s) for s in ss], 1e-4, 1, 1, pl.Scale(1))


def test_look_ahead_batch_counts_on_synthetic_maps():
    # a bisection batch adds the walk's path toward the zero of the line
    # through known points above the bracket: on a line that path is the
    # walk itself, except where a probe lands exactly on the crossing; with
    # such a guess the batch keeps 2 grid levels, without one 4; comments:
    # batches without the look-ahead, points with a 4-level grid and a guess
    cases = [
        (lambda s: 0.61 - s, 1e-4, 2, 24),  # 5; 34
        (lambda s: 700.5 - 1000.0 * s, 1e-6, 2, 30),  # 6; 40
        (lambda s: 0.625 - s, 1e-4, 3, 36),  # 5; 55
        (lambda s: 37.2 - s, 1e-4, 3, 33),  # 7; 43
        (lambda s: -20.7 - s, 1e-4, 3, 32),  # 7; 42
        (lambda s: 2.5 - 3.0 * (s + 0.37), 1e-7, 2, 34),  # 7; 44
        (lambda s: 3.0 if s < 0.3 else -2.0, 1e-3, 4, 50),  # 4: no line predicts a jump; 50
        (lambda s: 705.0 if s < 0.3 else -2.0, 1e-3, 4, 50),  # 4; 50
    ]
    for log_value, tol, batches, points in cases:
        sizes = []
        assert _assert_batched_bisection_replays(log_value, tol, sizes) == batches
        assert sum(sizes) == points


def test_bisection_ends_at_float_resolution(monkeypatch):
    # once lo and hi are adjacent floats their midpoint is an endpoint, so a
    # tolerance below float resolution must stop there, not probe forever
    import pressurelab.bowen as bowen

    probes = []
    real = bowen._value_from_log

    def counted(v):  # called once per walked probe
        probes.append(v)
        if len(probes) > 5000:
            raise RuntimeError("the bisection does not end")
        return real(v)

    monkeypatch.setattr(bowen, "_value_from_log", counted)
    ce = pl.bowen_pressure(FULL2, pl.whole(), pl.zero_potential(FULL2), pl.Scale(1), 2, 8, tol=1e-300)
    assert ce.s_high == math.nextafter(ce.s_low, math.inf)
    assert len(probes) < 100
    walk = _bisect_critical(lambda ss: [0.3 - s for s in ss], 1e-300, 1, 1, pl.Scale(1))
    assert walk.s_low <= 0.3 < walk.s_high == math.nextafter(walk.s_low, math.inf)


def test_batched_bisection_replays_sequential_walk_on_cover_programs():
    rng = np.random.default_rng(59)
    kinds = set()
    for host, L in ((FULL2, 9), (GM, 10), (pl.full_shift(3), 6)):
        for _ in range(4):
            depth = int(rng.integers(1, 3))
            table = {
                w: float(rng.uniform(-1, 1)) for w in admissible_words(host.allowed, depth)
            }
            f = pl.potential_from_table(host, depth, table)
            spec, _ = _random_target(rng, host, L, kinds=range(4))
            program = CoverProgram(_TreeProgram(host, spec, f, 0, L), 3)
            if program.empty:
                continue
            kinds.add(spec.kind)
            _assert_batched_bisection_replays(program.at, 1e-6)
            ce = pl.bowen_pressure(host, spec, f, pl.Scale(1), 2, L, tol=1e-6)
            lo, hi, _ = _sequential_bisection(program.at, 1e-6)
            assert (ce.s_low, ce.s_high) == (lo, hi)
    assert kinds == {"whole", "sub_sft", "frequency_level", "finite_union"}


def test_cover_min_log_matches_batched_columns():
    rng = np.random.default_rng(53)
    for host, L in ((FULL2, 8), (GM, 9), (pl.full_shift(3), 5)):
        for _ in range(4):
            depth = int(rng.integers(1, 4))
            table = {
                w: float(rng.uniform(-1, 1)) for w in admissible_words(host.allowed, depth)
            }
            f = pl.potential_from_table(host, depth, table)
            spec, _ = _random_target(rng, host, L, kinds=range(4))
            sigma = int(rng.integers(0, 3))
            d_min = sigma + int(rng.integers(1, 3))
            centered = bool(rng.integers(0, 2))
            exponents = rng.uniform(-1.0, 2.0, size=9).tolist()
            batch = CoverProgram(_TreeProgram(host, spec, f, sigma, L), d_min, centered)(exponents)
            assert batch.shape == (9,)
            for s, v in zip(exponents, batch):
                one = cover_min_log(host, spec, f, s, sigma, d_min, L, centered)
                assert one == pytest.approx(float(v), rel=1e-12)


def test_nested_unions_with_a_frequency_part_match_oracles():
    # finite_union(frequency, finite_union(sub-SFT, sub-SFT)) flattens to three
    # parts; the oracles accept a word when any part accepts it
    rng = np.random.default_rng(67)
    for host, L in ((FULL2, 7), (GM, 8), (pl.full_shift(3), 5)):
        for _ in range(8):
            depth = int(rng.integers(1, 4))
            table = {
                w: float(rng.uniform(-1, 1)) for w in admissible_words(host.allowed, depth)
            }
            f = pl.potential_from_table(host, depth, table)
            spec, leaves = _random_target(rng, host, L, kinds=(4,))
            assert count_target_words(host, spec, L) == len(leaves)
            assert list(pl.iter_target_words(host, spec, L)) == leaves
            s = float(rng.uniform(0.2, 1.0))
            N, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            got = pl.min_cover_value(host, spec, f, s, N, pl.Scale(m), L)
            cost = oracle_costs(host.allowed, table, depth, leaves, s, N + m, L)
            assert got == pytest.approx(interval_min_cover(leaves, cost, N + m, L), rel=1e-9)

            q = int(rng.integers(2, 4))
            got = pl.string_cover_value(host, spec, f, s, 1, q, L)
            cost = oracle_costs(host.allowed, table, depth, leaves, s, q, L, sigma=q - 1)
            assert got == pytest.approx(interval_min_cover(leaves, cost, q, L), rel=1e-9)

            got = math.exp(cover_min_log(host, spec, f, s, 0, 2, L, centered=True))
            cost = oracle_costs(host.allowed, table, depth, leaves, s, 2, L, pick=inf_birkhoff)
            assert got == pytest.approx(interval_min_cover(leaves, cost, 2, L), rel=1e-9)

            program = CoverProgram(_TreeProgram(host, spec, f, 0, L), 3)
            _assert_batched_bisection_replays(program.at, 1e-6)


def test_recurring_layers_are_built_once():
    # whole and sub-SFT targets repeat their layers after a few depths, some
    # with period 2; every repeat maps onto the layer of its first occurrence
    tree = _TreeProgram(FULL2, pl.whole(), F0, 0, 1100)
    assert tree.depth == 1100 and len(tree.layers.at) == 1101
    assert len(tree.layers.kids) == len(set(tree.layers.at[:-1])) <= 3
    flip = pl.sub_sft(((False, True), (True, False)))
    tree = _TreeProgram(FULL2, flip, F0, 0, 301)
    layers = tree.layers
    last = [[layers.words[i] for i in layers.suffix[layers.at[d]]] for d in (1, 2, 3)]
    assert last == [[(0,), (1,)], [(1,), (0,)], [(0,), (1,)]]
    assert layers.at[:6] == [0, 1, 2, 1, 2, 1]
    assert len(layers.kids) == len(layers.suffix) == 3
    # the tag count of a frequency target grows, so no layer repeats
    band = _TreeProgram(FULL2, pl.frequency_level(0, 0.3, 0.02), F0, 0, 40)
    assert band.layers.at == list(range(41))
    assert len(band.layers.kids) == 40


def test_tree_tables_are_kept_once_per_distinct_layer():
    # the full 2-shift's tree to depth 1100 has at most 3 distinct layers:
    # the gains, like the children, are one array per distinct layer; only
    # the depth index ``at`` and a cover program's reversed walk of it run
    # per depth, and no tree keeps its arcs' symbols twice
    tree = _TreeProgram(FULL2, pl.whole(), F0, 0, 1100)
    layers = tree.layers
    assert len(tree.gains) == len(layers.kids) == len(set(layers.at[:-1])) <= 3
    program = CoverProgram(tree, 40)
    per_depth = [  # over 1,000 entries; the per-block tables hold 34
        (type(owner).__name__, name)
        for owner in (layers, tree, program)
        for name, value in vars(owner).items()
        if isinstance(value, (list, tuple)) and len(value) > 1000
    ]
    assert per_depth == [("WordLayers", "at"), ("CoverProgram", "_at")]
    assert layers.arcs is None and not hasattr(layers, "syms")
    band = WordLayers(TargetAutomaton(FULL2, pl.frequency_level(0, 0.3, 0.02)), 0, 40)
    assert not hasattr(band, "syms") and band.arcs.shape == (2, sum(map(len, band.suffix[:-1])))


def test_work_stays_per_distinct_layer(monkeypatch):
    # a period-2 sub-SFT: a capacity window over depths 40-180 checks
    # acceptance once per distinct layer among its depths, and the gains and
    # ball columns are one array per distinct layer, read through ``at``; a
    # cover fold makes the ball thresholds of each block of depths with one
    # add per column that some of them share: 2 on this tree, 1 on a band's
    # r = 0 tree and none on its r = 1 tree, whose depths share no column
    flip = pl.sub_sft(((False, True), (True, False)))
    f = pl.potential_from_table(FULL2, 2, {(a, b): 0.1 * (2 * a + b) for a in (0, 1) for b in (0, 1)})
    depths = list(range(40, 181))
    calls = []
    accepts = TargetAutomaton.accepts
    monkeypatch.setattr(TargetAutomaton, "accepts", lambda *a: calls.append(a[2]) or accepts(*a))
    sums = leaf_sum_logs(FULL2, flip, f, 1, depths)
    tree = last_symbol_tree(FULL2, flip, f, 1, 180)
    at = tree.layers.at
    assert len(calls) == len(set(at[40:181])) == 2
    assert all(v is not None for v in sums)
    tree = _TreeProgram(FULL2, flip, f, 0, 180)
    at = tree.layers.at
    assert len({id(g) for g in tree.gains}) == len(tree.gains) == len(set(at[:-1])) == len(tree.layers.kids)
    program = CoverProgram(tree, 40)
    columns = [column for *_, column in program._layers]
    assert len({id(columns[i]) for i in at[40:]}) == len(set(at[40:])) == 2
    assert program._deepest is columns[at[180]]
    assert [len(block) for block in program._blocks] == [2] * 5  # depths 40-179
    band = pl.frequency_level(0, 0.3, 0.02)
    assert [len(block) for block in CoverProgram(_TreeProgram(FULL2, band, F0, 0, 180), 40)._blocks] == [1] * 5
    assert CoverProgram(_TreeProgram(FULL2, band, f, 0, 180), 40)._blocks == [[]] * 5


def test_tree_program_releases_the_arc_symbols(monkeypatch):
    # only the gains read ``layers.arcs``: on the r = 0 band at L=1600 a
    # program retains at least 9 MB less than one whose arc symbols stay
    # held, and both hold the same children and gains and fold to the same
    # values
    import tracemalloc

    band = pl.frequency_level(0, 0.3, 0.02)

    def retained():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            prog = _TreeProgram(FULL2, band, F0, 0, 1600)
            return prog, tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    released, light = retained()
    held_arcs = []
    init = WordLayers.__init__
    monkeypatch.setattr(WordLayers, "__init__", lambda tree, *a: init(tree, *a) or held_arcs.append(tree.arcs))
    held, heavy = retained()
    assert released.layers.arcs is None and len(held_arcs) == 1
    assert heavy - light >= 9_000_000
    for tables in (lambda p: p.layers.kids, lambda p: p.gains):
        assert [a.tobytes() for a in tables(released)] == [a.tobytes() for a in tables(held)]
    exponents = [0.55, 0.6, 0.62, 0.7]
    assert CoverProgram(released, 400)(exponents).tobytes() == CoverProgram(held, 400)(exponents).tobytes()


def test_band_layers_keep_only_states_that_can_reach_the_window():
    # symbol 0 in 0.3 +- 0.02 on the full 2-shift: a state's count must stay
    # at most 0.32 L and still be able to climb to 0.28 L by depth L (the
    # last-symbol tree, which keeps each state's last symbol; the tree every
    # program builds keeps one state per count)
    band = pl.frequency_level(0, 0.3, 0.02)
    for L, states, counts in ((160, 11_855, 6_011), (400, 73_873, 37_145)):
        tree = last_symbol_tree(FULL2, band, F0, 0, L)
        assert _tree_states(tree) == states  # 25,761 and 160,401 unpruned
        assert _tree_states(_TreeProgram(FULL2, band, F0, 0, L)) == counts


def _tree_states(tree):
    """The number of states over every depth of the tree."""
    return sum(len(tree.layers.suffix[i]) for i in tree.layers.at)


def _layers(tree, name):
    """The named per-layer arrays of a ``WordLayers`` tree; "syms" reads each
    built layer's arc symbols, ``arcs[:w, s:e]`` for (w, s, e) in ``cuts``."""
    return [tree.arcs[:w, s:e] for w, s, e in tree.cuts] if name == "syms" else getattr(tree, name)


def _layer_arrays(tree, names=("suffix", "state", "kids", "syms")):
    """The tables and the named layers of a ``WordLayers`` tree, with dtypes and shapes."""
    return tree.words, tree.at, [
        [(a.dtype, a.shape, a.tolist()) for a in arrays]
        for arrays in ([tree.next], *(_layers(tree, name) for name in names))
    ]


def _counting_band_builds(monkeypatch):
    """A list that gains each depth ``WordLayers`` builds a tree to by count arithmetic."""
    built = []
    grow = WordLayers._grow_band
    monkeypatch.setattr(WordLayers, "_grow_band", lambda *a: built.append(a[-1]) or grow(*a))
    return built


def test_band_count_layers_equal_the_sort_merge(monkeypatch):
    # one frequency part on a full shift with r = 0 has one interval of
    # counts per layer, built by arithmetic; every array, and every bracket
    # and probe history read from them, must equal the sort-merge's
    import pressurelab.subsets as subsets

    windows = ((0.3, 0.02), (0.0, 0.02), (1.0, 0.02), (0.5, 0.7), (0.3, 1e-300), (0.3, 1e308))
    depths = (1, 2, 3, 4, 5, 7, 10, 13, 29, 50, 101, 200)
    built = _counting_band_builds(monkeypatch)
    targets = empty = 0
    for k in (1, 2, 3):
        host = pl.full_shift(k)
        f = pl.potential_from_table(host, 1, {(a,): 0.3 * a - 0.2 for a in range(k)})
        for symbol, (alpha, eta) in itertools.product(range(k), windows):
            spec = pl.frequency_level(symbol, alpha, eta)
            tracker = TargetAutomaton(host, spec)

            def readings():
                out = [_layer_arrays(WordLayers(tracker, 0, L)) for L in depths]
                for L in (20, 97):
                    try:
                        got = pl.bowen_pressure(host, spec, f, pl.Scale(1), 3, L, tol=1e-6)
                        out.append((got.s_low, got.s_high, got.history))
                    except pl.EmptyTarget as error:
                        out.append(str(error))
                return out

            got = readings()
            with monkeypatch.context() as m:
                m.setattr(subsets, "_one_band", lambda target, r: False)
                assert readings() == got, (k, symbol, alpha, eta)
            targets += 1
            empty += sum(isinstance(v, str) for v in got)
    assert len(built) == targets * (len(depths) + 2) and targets == 36
    assert empty == 11  # 1e-300 at L=97, and the 1-shift's bands that miss frequency 1


def test_band_bounds_match_the_scalar_loop(monkeypatch):
    # the band builder finds every depth's interval, slot width and rank
    # offset from whole-depth arrays; every array must equal the scalar
    # loop's, with its dtype and shape: full shifts k = 1-3 (k = 1 tags every
    # symbol, so each step raises the count), every tagged symbol, bands that
    # empty mid-tree and windows from 1e-300 to 1e308
    windows = ((0.3, 0.02), (0.0, 0.02), (1.0, 0.02), (0.5, 0.7), (0.3, 1e-300), (0.3, 1e308))
    depths = (*range(1, 61), 97, 160, 400, 1600)
    emptied = 0
    for k in (1, 2, 3):
        for symbol, (alpha, eta) in itertools.product(range(k), windows):
            tracker = TargetAutomaton(pl.full_shift(k), pl.frequency_level(symbol, alpha, eta))
            for L in depths:
                got = WordLayers(tracker, 0, L)
                with monkeypatch.context() as m:
                    m.setattr(WordLayers, "_grow_band", grow_band_loop)
                    want = WordLayers(tracker, 0, L)
                assert got.at == want.at
                for name in ("suffix", "state", "kids", "syms"):
                    pairs = list(itertools.zip_longest(_layers(got, name), _layers(want, name)))
                    assert all(
                        a.dtype == b.dtype and np.array_equal(a, b) for a, b in pairs
                    ), (k, symbol, alpha, eta, L, name)
                sizes = [len(u) for u in got.suffix]
                emptied += 0 in sizes[:-1]
    assert emptied == 189  # trees with an empty layer above depth L


def test_band_build_work_does_not_grow_with_depth():
    # a band cover tree takes its intervals, arcs and gains from whole-tree
    # arrays: building it makes as many calls into C at L=400 as at L=40
    band = pl.frequency_level(0, 0.3, 0.02)

    def c_calls(L):
        calls = []
        sys.setprofile(lambda frame, event, arg: event == "c_call" and calls.append(arg))
        try:
            _TreeProgram(FULL2, band, F0, 0, L)
        finally:
            sys.setprofile(None)
        return len(calls)

    assert c_calls(40) == c_calls(400)


def test_gains_are_the_per_layer_lookups(monkeypatch):
    # one lookup over the arcs of every layer gives each layer's gains; each
    # depth's must equal the per-layer lookup on the tree's symbols before
    # the program releases them: band trees (r = 0, count path), whole and
    # sub-SFT targets with depth-1 to 3 potentials, a band on the golden
    # mean (sort-merge, no layer repeats) and unions
    rng = np.random.default_rng(83)
    held = []
    init = WordLayers.__init__
    monkeypatch.setattr(WordLayers, "__init__", lambda tree, *a: init(tree, *a) or held.append(_layers(tree, "syms")))

    def potential(host, depth):
        table = {w: float(rng.uniform(-1, 1)) for w in admissible_words(host.allowed, depth)}
        return pl.potential_from_table(host, depth, table)

    flip = pl.sub_sft(((False, True), (True, False)))
    cases = [(pl.full_shift(k), pl.frequency_level(k - 1, 0.3, 0.05), 1, 0) for k in (1, 2, 3)]
    cases += [(pl.full_shift(1), pl.frequency_level(0, 0.0, 0.02), 1, 0)]  # empty from depth 1
    cases += [(host, spec, depth, sigma) for host, spec in (
        (FULL2, pl.whole()), (pl.full_shift(3), pl.whole()), (GM, pl.whole()), (FULL2, flip),
        (GM, pl.frequency_level(1, 0.3, 0.05)),
        (FULL2, pl.finite_union(pl.frequency_level(0, 0.3, 0.05), flip)),
        (GM, pl.finite_union(pl.frequency_level(0, 0.7, 0.1), pl.frequency_level(1, 0.2, 0.1))),
    ) for depth in (1, 2, 3) for sigma in (0, 2)]
    shared = 0
    for (host, spec, depth, sigma), build in itertools.product(cases, (_TreeProgram, last_symbol_tree)):
        f = potential(host, depth)
        prog = build(host, spec, f, sigma, 40)
        tree, syms = prog.layers, held.pop()
        assert tree.arcs is None and not held
        gain = _window_gains(tree.words, tree.next >= 0, f)
        want = [
            np.where(s >= 0, gain[suffix, s], -math.inf)[:, :, None] for suffix, s in zip(tree.suffix, syms)
        ]
        assert prog.depth == 40 and len({id(g) for g in prog.gains}) == len(prog.gains) == len(syms)
        for d in range(40):
            g, w = prog.gains[tree.at[d]], want[tree.at[d]]
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        shared += len(syms) < 40
    assert shared == 48  # whole and sub-SFT trees repeat their layers


def test_band_trees_take_the_count_path_only_where_layers_are_intervals(monkeypatch, tmp_path):
    # the shipped band configs build every cover tree by count arithmetic;
    # a host with a forbidden move, a depth-2 potential (r = 1) and a union
    # keep the sort-merge, and a capacity tree on the full shift builds the
    # cover tree, by count arithmetic
    from pressurelab.cli import main

    built = _counting_band_builds(monkeypatch)
    trees = []
    init = _TreeProgram.__init__
    monkeypatch.setattr(_TreeProgram, "__init__", lambda *a, **kw: trees.append(1) or init(*a, **kw))
    for name, command in itertools.product(
        ("frequency_band.json", "frequency_band_deep.json"), ("pressure bowen", "verify variational")
    ):
        before = len(trees)
        argv = [*command.split(), "--config", str(CONFIGS / name), "--out", str(tmp_path)]
        assert main(argv) == 0
        assert len(built) == len(trees) > before, (name, command)
    built.clear()
    band = pl.frequency_level(0, 0.3, 0.05)
    gm_band = pl.frequency_level(1, 0.3, 0.05)
    f2 = pl.potential_from_table(FULL2, 2, {w: 0.1 * sum(w) for w in all_words(2, 2)})
    pl.bowen_pressure(GM, gm_band, pl.zero_potential(GM), pl.Scale(1), 3, 30)
    pl.bowen_pressure(FULL2, band, f2, pl.Scale(1), 3, 30)
    union = pl.finite_union(band, pl.frequency_level(1, 0.9, 0.05))
    pl.bowen_pressure(FULL2, union, F0, pl.Scale(1), 3, 30)
    assert built == []
    leaf_sum_logs(FULL2, band, F0, 0, list(range(10, 31)))
    assert built == [30]


def test_short_suffix_cover_trees_match_the_last_symbol_trees():
    # a cover tree keeps a state's last symbol only where some part's moves
    # read it; on full shifts with a depth-1 potential and sigma = 0 the
    # suffix is empty, and the merged states must give every cover value,
    # bracket and probe history of the trees with r = max(1, k - 1, sigma)
    rng = np.random.default_rng(79)
    shorter = 0
    for host in (FULL2, pl.full_shift(3)):
        k = host.alphabet_size
        specs = (
            pl.whole(),
            pl.frequency_level(0, 0.3, 0.1),
            pl.finite_union(pl.frequency_level(0, 0.2, 0.05), pl.frequency_level(k - 1, 0.6, 0.1)),
        )
        for spec, depth, sigma in itertools.product(specs, (1, 2, 3), (0, 1, 2)):
            table = {w: float(rng.uniform(-1, 1)) for w in all_words(k, depth)}
            f = pl.potential_from_table(host, depth, table)
            L = int(rng.integers(8, 25 if k == 2 else 13))
            d_min = int(rng.integers(sigma + 1, L + 1))
            exponents = rng.uniform(-1, 2, size=7)
            short = _TreeProgram(host, spec, f, sigma, L)
            long = last_symbol_tree(host, spec, f, sigma, L)
            for centered in (False, True):
                got = CoverProgram(short, d_min, centered)(exponents)
                assert got.tobytes() == CoverProgram(long, d_min, centered)(exponents).tobytes()
            shorter += _tree_states(short) < _tree_states(long)
            if sigma:
                continue
            N, m = int(rng.integers(1, 3)), int(rng.integers(0, 3))
            got = pl.bowen_pressure(host, spec, f, pl.Scale(m), N, L, tol=1e-6)
            program = CoverProgram(last_symbol_tree(host, spec, f, 0, L), N + m)
            want = _bisect_critical(program, 1e-6, L, N, pl.Scale(m))
            assert (got.s_low, got.s_high, got.history) == (want.s_low, want.s_high, want.history)
    assert shorter == 6  # depth 1, sigma 0: three targets on each host
    # the band of the cover-deep benchmark halves: one state per count
    band = pl.frequency_level(0, 0.3, 0.02)
    assert _tree_states(_TreeProgram(FULL2, band, F0, 0, 160)) == 6_011  # 11,855 with it


def test_capacity_cover_and_word_counts_build_one_tree(monkeypatch):
    # for one target, depth-1 potential, sigma = 0 and depth, the capacity
    # fit, the cover bisection and the word count build equal trees, so the
    # leaf sums and the cover values are read from one tree: full 2- and
    # 3-shifts (r = 0) with whole, band and union targets, and a golden-mean
    # sub-SFT (r = 1)
    built = []
    init = WordLayers.__init__
    monkeypatch.setattr(WordLayers, "__init__", lambda tree, *a: init(tree, *a) or built.append(tree))
    rng = np.random.default_rng(89)
    cases = [(FULL2, pl.sub_sft(GM.allowed))]
    for host in (FULL2, pl.full_shift(3)):
        k = host.alphabet_size
        cases += [(host, spec) for spec in (
            pl.whole(),
            pl.frequency_level(0, 0.3, 0.1),
            pl.finite_union(pl.frequency_level(0, 0.2, 0.05), pl.frequency_level(k - 1, 0.6, 0.1)),
        )]
    L = 24
    for host, spec in cases:
        f = pl.potential_from_table(host, 1, {(a,): float(rng.uniform(-1, 1)) for a in range(host.alphabet_size)})
        pl.capacity_pressure(host, spec, f, pl.Scale(1), (L - 8, L))
        pl.bowen_pressure(host, spec, f, pl.Scale(1), 2, L)
        pl.count_target_words(host, spec, L)
        assert len(built) == 3
        # a program releases ``arcs`` once its gains are made
        want, *got = [_layer_arrays(tree, ("suffix", "state", "kids")) for tree in built]
        assert got == [want, want], (host, spec)
        built.clear()
    assert [len(_TreeProgram(host, spec, F0, 0, L).layers.words) for host, spec in cases[:2]] == [3, 1]


def _random_irreducible_host(rng):
    while True:
        k = int(rng.integers(2, 4))
        allowed = rng.random((k, k)) < 0.7
        if is_strongly_connected(allowed):
            return pl.Subshift(k, tuple(tuple(bool(x) for x in row) for row in allowed))


def test_pruned_layers_match_the_unpruned_oracle(monkeypatch):
    # capacity reads the leaves of every depth of its window from one tree,
    # so the prune may drop no state that some depth up to L accepts: counts,
    # leaf sums and cover values (plain and centered) must equal those read
    # from the unpruned trees bit for bit; the same target on the full shift
    # with a depth-1 potential adds a cover tree with suffix length 0 where
    # the target has no sub-SFT part
    import pressurelab._engine as engine
    import pressurelab.subsets as subsets

    rng = np.random.default_rng(70)
    full_rng = np.random.default_rng(71)

    def frequency(host):
        symbol = int(rng.integers(0, host.alphabet_size))
        return pl.frequency_level(symbol, float(rng.uniform(0, 1)), float(rng.uniform(0.01, 0.2)))

    pruned = 0
    for case in range(60):
        host = _random_irreducible_host(rng)
        L = int(rng.integers(4, 41))
        depth = int(rng.integers(1, 3))
        table = {w: float(rng.uniform(-1, 1)) for w in admissible_words(host.allowed, depth)}
        f = pl.potential_from_table(host, depth, table)
        sub = pl.sub_sft(random_sub_relation(rng, host.allowed))
        spec = [
            frequency(host),
            pl.finite_union(frequency(host), frequency(host)),
            pl.finite_union(frequency(host), pl.finite_union(sub)),
        ][case % 3]
        sigma = int(rng.integers(0, 2))
        depths = list(range(sigma + 1, L + 1))  # every depth a capacity window can read
        d_min = int(rng.integers(1, L + 1))
        exponents = rng.uniform(-1, 2, size=5).tolist()
        full = pl.full_shift(host.alphabet_size)
        f1 = pl.potential_from_table(
            full, 1, {(a,): float(full_rng.uniform(-1, 1)) for a in range(full.alphabet_size)}
        )

        def readings():
            tree = _TreeProgram(host, spec, f, 0, L)
            covers = [CoverProgram(tree, d_min, c)(exponents).tolist() for c in (False, True)]
            short = _TreeProgram(full, spec, f1, 0, L)
            covers.append(CoverProgram(short, d_min)(exponents).tolist())
            sums = engine.leaf_sum_logs(host, spec, f, sigma, depths)
            states = _tree_states(tree)
            return count_target_words(host, spec, L), sums, covers, states

        *got, states = readings()
        with monkeypatch.context() as m:
            m.setattr(subsets, "WordLayers", UnprunedWordLayers)
            m.setattr(engine, "WordLayers", UnprunedWordLayers)
            *want, all_states = readings()
        assert got == want
        pruned += states < all_states
    assert pruned >= 30


def _random_part(rng, host, kind):
    def sub():
        return pl.sub_sft(random_sub_relation(rng, host.allowed))

    def frequency():
        symbol = int(rng.integers(0, host.alphabet_size))
        return pl.frequency_level(symbol, float(rng.uniform(0, 1)), float(rng.uniform(0.01, 0.2)))

    if kind == "whole":
        return pl.whole()
    if kind == "sub_sft":
        return sub()
    if kind == "finite_union":
        return pl.finite_union(sub(), sub())
    if kind == "frequency_level":
        return frequency()
    return pl.finite_union(frequency(), pl.finite_union(sub(), sub()))


def _assert_folds_match_oracles(host, spec, f, sigma, L, d_min, exponents, depths):
    tree = _TreeProgram(host, spec, f, sigma, L)
    for centered in (False, True):
        got = CoverProgram(tree, d_min, centered)(exponents)
        assert got.tobytes() == cover_fold_walk(tree, d_min, centered, exponents).tobytes()
    got = leaf_sum_logs(host, spec, f, sigma, depths)
    want = leaf_sum_walk(tree, depths)
    assert [v is None for v in got] == [v is None for v in want]
    assert np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()
    return tree


def test_folds_match_the_per_depth_oracles():
    # the cover fold gathers each layer once and shares its ball prices, and
    # the capacity window shares its masks and tails, across the depths that
    # repeat a layer; every value must equal the per-depth fold bit for bit
    rng = np.random.default_rng(73)
    kinds = ("whole", "sub_sft", "finite_union", "frequency_level", "nested")
    for case in range(80):
        host = (FULL2, GM, pl.full_shift(3), _random_irreducible_host(rng))[case % 4]
        kind = kinds[case % 5]
        L = int(rng.integers(2, 61 if kind in kinds[:3] else 25))
        depth = int(rng.integers(1, 4))
        table = {w: float(rng.uniform(-1, 1)) for w in admissible_words(host.allowed, depth)}
        f = pl.potential_from_table(host, depth, table)
        sigma = int(rng.integers(0, min(3, L)))
        d_min = (sigma + 1, L, int(rng.integers(sigma + 1, L + 1)))[case % 3]
        K = (1, int(rng.integers(40, 60)), int(rng.integers(2, 10)))[case // 3 % 3]
        exponents = rng.uniform(-1, 2, size=K)
        depths = sorted({L, *rng.integers(sigma + 1, L + 1, size=4).tolist()})
        spec = _random_part(rng, host, kind)
        _assert_folds_match_oracles(host, spec, f, sigma, L, d_min, exponents, depths)
    # pruned band layers repeat by value from depth 9 on, but acceptance
    # still moves with the depth
    band = pl.frequency_level(0, 0.1, 0.1)
    tree = _assert_folds_match_oracles(
        FULL2, band, F0, 1, 40, 2, np.linspace(0, 1, 7), list(range(2, 41))
    )
    assert [len(tree.layers.suffix[i]) for i in tree.layers.at[9:12]] == [17, 17, 17]
    # no depth-1 node of the golden mean has a child that can still reach
    # the window, so layer 1 is childless and every later layer empty
    tree = _assert_folds_match_oracles(
        GM, pl.frequency_level(1, 1.0, 0.01), pl.zero_potential(GM), 0, 12, 1, [0.5], [1, 2, 12]
    )
    assert tree.layers.kids[tree.layers.at[1]].shape == (0, 1)
    # with a depth-1 potential and sigma = 0 a full shift's band and union
    # trees keep no suffix (r = 0), and both folds read them
    for host in (FULL2, pl.full_shift(3)):
        k = host.alphabet_size
        f = pl.potential_from_table(host, 1, {(a,): float(rng.uniform(-1, 1)) for a in range(k)})
        for spec in (
            pl.frequency_level(k - 1, 0.4, 0.1),
            pl.finite_union(pl.frequency_level(0, 0.2, 0.05), pl.frequency_level(k - 1, 0.6, 0.1)),
        ):
            tree = _assert_folds_match_oracles(
                host, spec, f, 0, 40, 5, rng.uniform(-1, 2, size=6), list(range(1, 41))
            )
            assert tree.layers.words == [()]
    # every node of a full 1-shift has one child and of a full 4-shift four;
    # symbol 0 at frequency 0 on the 1-shift leaves even the root childless
    for host, K in itertools.product((pl.full_shift(1), pl.full_shift(4)), (1, 9)):
        k = host.alphabet_size
        specs = (pl.whole(), pl.frequency_level(0, 0.8, 0.3), pl.frequency_level(0, 0.0, 0.01))
        for spec, depth, d_min in itertools.product(specs, (1, 2), (1, 3)):
            table = {w: float(rng.uniform(-1, 1)) for w in all_words(k, depth)}
            f = pl.potential_from_table(host, depth, table)
            exponents = rng.uniform(-1, 2, size=K)
            tree = _assert_folds_match_oracles(host, spec, f, 0, 9, d_min, exponents, [1, 5, 9])
            assert {len(tree.layers.kids[i]) for i in tree.layers.at[:-1]} <= {0, k}
    # d_max - d_min across the edges of the 32-depth blocks of ball thresholds
    flip = pl.sub_sft(((False, True), (True, False)))
    band = pl.frequency_level(0, 0.3, 0.1)
    for span, spec, depth in itertools.product((31, 32, 33, 64), (pl.whole(), flip, band), (1, 2)):
        table = {w: float(rng.uniform(-1, 1)) for w in all_words(2, depth)}
        f = pl.potential_from_table(FULL2, depth, table)
        L = span + int(rng.integers(1, 4))
        _assert_folds_match_oracles(FULL2, spec, f, 0, L, L - span, rng.uniform(-1, 2, size=7), [L])


@pytest.mark.parametrize("L", (129, 200, 300))
def test_cover_fold_blocks_match_the_per_depth_oracle(L):
    # trees of four blocks of depths or more, whose ball thresholds the fold
    # makes per block and per shared column: layers repeating with periods
    # 1, 2 and 3, an r = 0 and an r = 1 band and a union with a frequency part
    rng = np.random.default_rng(L)
    full3 = pl.full_shift(3)

    def potential(host, depth):
        table = {w: float(rng.uniform(-1, 1)) for w in admissible_words(host.allowed, depth)}
        return pl.potential_from_table(host, depth, table)

    band = pl.frequency_level(0, 0.3, 0.02)
    cycle = tuple(tuple(b == (a + 1) % 3 for b in range(3)) for a in range(3))
    cases = [
        (FULL2, pl.whole(), potential(FULL2, 2), 1),
        (FULL2, pl.sub_sft(((False, True), (True, False))), potential(FULL2, 2), 2),
        (full3, pl.sub_sft(cycle), potential(full3, 2), 3),
        (FULL2, band, potential(FULL2, 1), None),
        (FULL2, band, potential(FULL2, 2), None),
        (FULL2, pl.finite_union(band, pl.sub_sft(GM.allowed)), potential(FULL2, 2), None),
    ]
    for host, spec, f, period in cases:
        tree = _TreeProgram(host, spec, f, 0, L)
        at = tree.layers.at
        assert at == list(range(L + 1)) if period is None else len(set(at[-6:])) == period
        for centered, K in itertools.product((False, True), (1, int(rng.integers(40, 60)))):
            d_min = int(rng.integers(1, L - 127))  # four blocks or more
            exponents = rng.uniform(-1, 2, size=K)
            got = CoverProgram(tree, d_min, centered)(exponents)
            assert got.tobytes() == cover_fold_walk(tree, d_min, centered, exponents).tobytes()


_NON_FINITE_CALLS = {
    "cover_value": lambda s, delta: pl.cover_value(
        FULL2, pl.unweighted_cover([pl.Ball((0, 0, 0), 2, pl.Scale(1))]), F0, s),
    "min_cover_value": lambda s, delta: pl.min_cover_value(FULL2, pl.whole(), F0, s, 2, pl.Scale(1), 8),
    "string_cover_value": lambda s, delta: pl.string_cover_value(FULL2, pl.whole(), F0, s, 2, 2, 8),
    "check_chain": lambda s, delta: pl.check_chain(FULL2, pl.whole(), F0, s, delta, 6, pl.Scale(4), 14),
}


@pytest.mark.parametrize("entry", sorted(_NON_FINITE_CALLS))
def test_cover_values_refuse_a_non_finite_exponent(entry):
    # a NaN log once read as a value past the float range: the cover values
    # were inf at s = nan, check_chain passed there and died on a NaN delta
    call = _NON_FINITE_CALLS[entry]
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^s must be a finite number$"):
            call(bad, 0.5)
        if entry == "check_chain":
            with pytest.raises(ValueError, match="^delta must be a finite number$"):
                call(math.log(2), bad)
    assert call(math.log(2), 0.5)  # a finite exponent still has its value


def test_cover_folds_match_the_per_depth_oracle_at_the_float_range_edges():
    # potentials near 1e308 make window sums and ball prices reach +-inf, and
    # a pad's -inf gain on a +inf child reads NaN: the widened gains of the
    # repeated layers must still add bit for bit as the per-row oracle does
    rng = np.random.default_rng(308)
    full3 = pl.full_shift(3)
    cycle = tuple(tuple(b == (a + 1) % 3 for b in range(3)) for a in range(3))
    band = pl.frequency_level(0, 0.3, 0.1)
    cases = [
        (FULL2, pl.whole(), 1), (FULL2, pl.whole(), 2),
        (FULL2, pl.sub_sft(((False, True), (True, False))), 2), (full3, pl.sub_sft(cycle), 2),
        (FULL2, band, 1), (FULL2, pl.finite_union(band, pl.sub_sft(GM.allowed)), 2),
    ]
    seen = set()
    for (host, spec, depth), L in itertools.product(cases, (9, 40)):
        table = {w: float(rng.uniform(-1, 1)) * 1e308 for w in admissible_words(host.allowed, depth)}
        with np.errstate(over="ignore", invalid="ignore"):
            tree = _TreeProgram(host, spec, pl.potential_from_table(host, depth, table), 0, L)
        for centered, K in itertools.product((False, True), (1, 47)):
            d_min = int(rng.integers(1, L))
            exponents = rng.uniform(-1, 2, size=K)
            got = CoverProgram(tree, d_min, centered)(exponents)
            with np.errstate(over="ignore", invalid="ignore"):
                want = cover_fold_walk(tree, d_min, centered, exponents)
            assert got.tobytes() == want.tobytes()
            seen |= {"nan"} if np.isnan(got).any() else set()
            seen |= {"inf"} if np.isinf(got).any() else set()
    assert seen == {"nan", "inf"}


def test_a_call_widens_each_repeated_layer_once(monkeypatch):
    # the program's tables are per distinct layer, and a call widens the
    # gains of each layer that several depths repeat to its K exponents with
    # one np.repeat, which all the depths of that layer then add; a band
    # repeats no layer and widens none
    flip = pl.sub_sft(((False, True), (True, False)))
    f = pl.potential_from_table(FULL2, 2, {(a, b): 0.1 * (2 * a + b) for a in (0, 1) for b in (0, 1)})
    band = pl.frequency_level(0, 0.3, 0.02)
    widened, repeat = [], np.repeat
    monkeypatch.setattr(np, "repeat", lambda *a, **k: widened.append(repeat(*a, **k)) or widened[-1])
    exponents = [0.3, 0.5, 0.7, 0.9]
    for spec, g in ((flip, f), (pl.whole(), f), (pl.whole(), F0), (band, f)):
        tree = _TreeProgram(FULL2, spec, g, 0, 180)
        program = CoverProgram(tree, 40)
        at, kids = tree.layers.at[:-1], tree.layers.kids
        repeated = [i for i in range(len(kids)) if at.count(i) > 1]
        assert len(program._layers) == len(kids)  # one table entry per distinct layer
        del widened[:]
        got = program(exponents)
        assert [w.shape for w in widened] == [(*kids[i].shape, 4) for i in repeated]
        assert len(widened) == (0 if spec is band else len(set(at[-6:])))
        assert got.tobytes() == cover_fold_walk(tree, 40, False, exponents).tobytes()


def test_many_counted_parts_count_exactly():
    # eight frequency parts make the joint (suffix, state) code pass 2**62 at
    # depth 300, so the layer builder compresses it while merging states
    L = 300
    parts = [pl.frequency_level(p % 2, 0.1 + 0.1 * (p // 2), 0.01) for p in range(8)]

    def accepted(zeros):
        counts = (zeros, L - zeros)
        return any(abs(counts[p.symbol] - p.target * L) <= p.window * L + 1e-9 for p in parts)

    want = sum(math.comb(L, zeros) for zeros in range(L + 1) if accepted(zeros))
    assert count_target_words(FULL2, pl.finite_union(*parts), L) == want


def test_ball_price_extends_words_shorter_than_the_potential():
    # a depth-1 ball under a depth-3 potential fixes no window: its price
    # maximizes f_1 over both missing symbols of the first window
    f3 = pl.full_shift(3)
    rng = np.random.default_rng(61)
    table = {w: float(rng.uniform(-1, 1)) for w in all_words(3, 3)}
    f = pl.potential_from_table(f3, 3, table)
    for s in (0.0, 0.7):
        want = sum(math.exp(-s + sup_birkhoff(f3.allowed, table, 3, (a,), 1)) for a in range(3))
        got = math.exp(cover_min_log(f3, pl.whole(), f, s, 0, 1, 1))
        assert got == pytest.approx(want, rel=1e-12)


def test_empty_target_is_read_from_the_cover_program():
    # no depth-8 word has a symbol-0 frequency within 0.01 of 0.9
    empty = pl.frequency_level(0, 0.9, 0.01)
    assert count_target_words(FULL2, empty, 8) == 0
    message = "target has no admissible words at depth 8"
    m4 = pl.Scale(4)
    for call in (
        lambda: pl.bowen_pressure(FULL2, empty, F0, pl.Scale(1), 2, 8),
        lambda: pl.weighted_pressure(FULL2, empty, F0, pl.Scale(1), 2, 8),
        lambda: pl.min_cover_value(FULL2, empty, F0, 0.5, 2, pl.Scale(1), 8),
        lambda: pl.string_cover_value(FULL2, empty, F0, 0.5, 2, 2, 8),
        lambda: pl.check_chain(FULL2, empty, F0, 0.5, 0.5, 2, m4, 8),
    ):
        with pytest.raises(pl.EmptyTarget, match=message):
            call()
    # depth 10 holds words with nine 0s, so the same target is not empty there
    assert pl.min_cover_value(FULL2, empty, F0, 0.5, 2, pl.Scale(1), 10) > 0


def test_weighted_pressure_full_shift():
    ce = pl.weighted_pressure(FULL2, pl.whole(), F0, pl.Scale(1), 2, 12, tol=1e-3)
    assert abs(ce.midpoint - math.log(2)) <= 2e-3


# ---------------------------------------------------------------------------
# string covers over a cylinder partition


def test_string_cover_depth_one_partition_matches_ball_covers():
    for s in (0.3, math.log(2), 1.1):
        a = pl.string_cover_value(FULL2, pl.whole(), F0, s, 3, 1, 8)
        b = pl.min_cover_value(FULL2, pl.whole(), F0, s, 2, pl.Scale(1), 8)
        assert a == pytest.approx(b, rel=1e-12)


def test_string_cover_threshold_identity():
    got = pl.string_cover_value(FULL2, pl.whole(), F0, math.log(2), 2, 1, 8)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_string_cover_prices_by_string_length():
    s = 0.9
    got = pl.string_cover_value(FULL2, pl.whole(), F10, s, 2, 2, 6)
    leaves = admissible_words(FULL2.allowed, 6)
    cost = {}
    for leaf in leaves:
        for d in range(3, 7):
            w = leaf[:d]
            n = d - 1
            cost[w] = math.exp(-s * n + sum(1.0 if c == 0 else 0.0 for c in w[:n]))
    assert got == pytest.approx(interval_min_cover(leaves, cost, 3, 6), rel=1e-12)


def test_string_cover_skips_inadmissible_strings():
    # on the golden-mean shift the depth-2 string partition has no cell
    # containing the forbidden block, so values match an oracle built from
    # admissible words only; a string of length n is priced by n while its
    # cell is the cylinder of depth n + 1
    f = pl.zero_potential(GM)
    got = pl.string_cover_value(GM, pl.whole(), f, 0.5, 2, 2, 7)
    leaves = admissible_words(GM.allowed, 7)
    cost = {}
    for leaf in leaves:
        for d in range(3, 8):
            w = leaf[:d]
            cost[w] = math.exp(-0.5 * (d - 1))
    assert got == pytest.approx(interval_min_cover(leaves, cost, 3, 7), rel=1e-12)


# ---------------------------------------------------------------------------
# greedy disjoint selection


def test_vitali_identical_balls_collapse():
    b = pl.Ball((0, 0, 0, 0), 1, pl.Scale(3))
    assert pl.vitali_select([b, b, b]) == [0]


def test_vitali_disjoint_family_kept_whole():
    balls = [pl.Ball(w, 1, pl.Scale(3)) for w in itertools.product(range(2), repeat=4)]
    assert pl.vitali_select(balls) == list(range(16))


def test_vitali_nested_family_keeps_maximal():
    outer = pl.Ball((0, 0, 0, 0, 0), 2, pl.Scale(3))
    inner = pl.Ball((0, 0, 0, 0, 0, 1), 3, pl.Scale(3))
    other = pl.Ball((0, 0, 0, 1, 0), 2, pl.Scale(3))
    kept = pl.vitali_select([inner, outer, other])
    assert kept == [1, 2]


def test_vitali_random_families_disjoint_and_covering():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(3, 5))
        count = int(rng.integers(2, 12))
        balls = []
        for _ in range(count):
            w = tuple(int(x) for x in rng.integers(0, 2, size=n + m))
            balls.append(pl.Ball(w, n, pl.Scale(m)))
        kept = pl.vitali_select(balls)
        words = [balls[i].center_word for i in kept]
        # pairwise disjoint: no word is a prefix of another
        for i, a in enumerate(words):
            for b in words[i + 1 :]:
                shorter, longer = sorted((a, b), key=len)
                assert longer[: len(shorter)] != shorter
        # enlargement covering: every input cylinder sits inside some
        # kept ball's enlargement cylinder
        for ball in balls:
            covered = False
            for i in kept:
                e = enlargement_cylinder(balls[i])
                if ball.center_word[: len(e)] == e:
                    covered = True
                    break
            assert covered


def test_vitali_requires_fine_scale():
    with pytest.raises(pl.ScaleTooCoarse):
        pl.vitali_select([pl.Ball((0, 0, 0), 1, pl.Scale(2))])


# ---------------------------------------------------------------------------
# the centered/weighted/unweighted inequality chain


def test_chain_full_shift_parameters():
    r = pl.check_chain(FULL2, pl.whole(), F0, s=math.log(2), delta=0.5, N=6, scale=pl.Scale(4), L=14)
    assert r["left_inequality_ok"] and r["right_inequality_ok"] and r["passed"]
    assert r["centered_value"] <= r["weighted_value"] * (1 + 1e-9) + 1e-12
    assert r["weighted_value"] <= r["unweighted_value"] * (1 + 1e-9) + 1e-12


def test_chain_golden_mean_parameters():
    f = pl.zero_potential(GM)
    r = pl.check_chain(GM, pl.whole(), f, s=0.45, delta=0.4, N=8, scale=pl.Scale(4), L=16)
    assert r["passed"]


def test_chain_degenerate_point_shift():
    sft = pl.Subshift(1, ((True,),), label="point")
    f = pl.constant_potential(sft, 0.2)
    r = pl.check_chain(sft, pl.whole(), f, s=0.4, delta=0.3, N=4, scale=pl.Scale(4), L=12)
    assert r["passed"]


def test_chain_requires_fine_scale():
    with pytest.raises(pl.ScaleTooCoarse):
        pl.check_chain(FULL2, pl.whole(), F0, s=0.5, delta=0.5, N=4, scale=pl.Scale(2), L=10)


def test_chain_precondition_fails_at_a_delta_whose_peak_leaves_the_float_range():
    # n^2 exp(-n delta) peaks at n = 2/delta; at delta = 1e-320 that is past
    # the float range, and the chain still runs and reports the precondition
    # false, as it does at a delta whose peak is a finite huge n
    for delta in (1e-320, 1e-300, 1e-20):
        r = pl.check_chain(FULL2, pl.whole(), F0, s=math.log(2), delta=delta, N=6, scale=pl.Scale(4), L=14)
        assert r["passed"] and r["precondition_ok"] is False and r["params"]["delta"] == delta
    # at N = 6 the peak 2/delta lies below N from delta = 1/3 on, and the
    # value at N, 36 exp(-6 delta), reaches 1 at delta = log(6) / 3
    ok = {d: pl.check_chain(FULL2, pl.whole(), F0, math.log(2), d, 6, pl.Scale(4), 14)["precondition_ok"]
          for d in (0.5, 0.597, 0.598, 1.0)}
    assert ok == {0.5: False, 0.597: False, 0.598: True, 1.0: True}


def test_bisection_rejects_a_nan_tolerance():
    # NaN compares false with everything, so `tol <= 0` let it through and
    # the bisection stopped at once on the bracket [0, 1]
    with pytest.raises(ValueError, match="tol"):
        pl.bowen_pressure(FULL2, pl.whole(), pl.zero_potential(FULL2), pl.Scale(1), 2, 8, tol=math.nan)
