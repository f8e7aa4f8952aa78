import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

import pressurelab as pl
from brute import (
    admissible_words,
    all_words,
    fold_forward_walk,
    last_symbol_tree,
    leaf_sum_walk,
    partition_function,
    random_sub_relation,
    sup_birkhoff,
)
from pressurelab._engine import _TreeProgram, leaf_sum_log
from pressurelab.capacity import log_partition_function

FULL2 = pl.full_shift(2)
GM = pl.golden_mean_shift()
F0 = pl.zero_potential(FULL2)
F10 = pl.potential_from_table(FULL2, 1, {(0,): 1.0, (1,): 0.0})
LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


def brute_partition(allowed, table, depth, spec_words, n, m):
    """Sum of exp(best n-step sum) over separated representatives."""
    total = 0.0
    for w in spec_words:
        total += math.exp(sup_birkhoff(allowed, table, depth, w, n))
    return total


def test_partition_function_counts_separated_words():
    got = pl.partition_function(FULL2, pl.whole(), F0, 2, pl.Scale(1))
    assert got == pytest.approx(4.0, abs=1e-12)


def test_partition_function_weighted_literal():
    got = pl.partition_function(FULL2, pl.whole(), F10, 2, pl.Scale(1))
    e = math.e
    assert got == pytest.approx(e * e + 2 * e + 1, rel=1e-12)
    words = admissible_words(FULL2.allowed, 2)
    oracle = brute_partition(FULL2.allowed, {(0,): 1.0, (1,): 0.0}, 1, words, 2, 1)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_partition_function_golden_mean_count():
    got = pl.partition_function(GM, pl.whole(), pl.zero_potential(GM), 3, pl.Scale(1))
    assert got == pytest.approx(5.0, abs=1e-12)


def test_partition_function_random_against_brute():
    rng = np.random.default_rng(9)
    for _ in range(15):
        table = {
            (a, b): float(rng.uniform(-0.8, 0.8))
            for a in range(2)
            for b in range(2)
            if GM.allowed[a][b]
        }
        f = pl.potential_from_table(GM, 2, table)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        words = admissible_words(GM.allowed, n + m - 1)
        oracle = brute_partition(GM.allowed, table, 2, words, n, m)
        got = pl.partition_function(GM, pl.whole(), f, n, pl.Scale(m))
        assert got == pytest.approx(oracle, rel=1e-10)


def test_partition_function_sub_target_restricts_representatives():
    gm_inside = pl.sub_sft(((True, True), (True, False)))
    got = pl.partition_function(FULL2, gm_inside, F0, 3, pl.Scale(1))
    assert got == pytest.approx(len(admissible_words(GM.allowed, 3)), abs=1e-12)


def test_capacity_slope_full_shift_exact():
    est = pl.capacity_pressure(FULL2, pl.whole(), F0, pl.Scale(1), (4, 20))
    assert est.slope == pytest.approx(math.log(2), abs=1e-12)


def test_capacity_slope_golden_mean_near_spectral():
    est = pl.capacity_pressure(GM, pl.whole(), pl.zero_potential(GM), pl.Scale(1), (4, 24))
    assert est.slope == pytest.approx(LOG_PHI, abs=1e-3)


def test_capacity_slope_fixed_point_constant_potential():
    sft = pl.Subshift(1, ((True,),), label="point")
    f = pl.constant_potential(sft, 0.37)
    est = pl.capacity_pressure(sft, pl.whole(), f, pl.Scale(1), (4, 12))
    assert est.slope == pytest.approx(0.37, abs=1e-12)


def test_partition_function_past_the_float_range_reads_inf():
    # the all-0 word of length 10 weighs e^1000 at f(0) = 100, past the float
    # range: P_n reads inf, as its log reads past log(max float)
    f = pl.potential_from_table(FULL2, 1, {(0,): 100.0, (1,): 0.0})
    assert log_partition_function(FULL2, pl.whole(), f, 10, pl.Scale(1)) > math.log(sys.float_info.max)
    assert pl.partition_function(FULL2, pl.whole(), f, 10, pl.Scale(1)) == math.inf


def test_capacity_rejects_scale_zero():
    with pytest.raises(pl.ScaleTooCoarse):
        pl.partition_function(FULL2, pl.whole(), F0, 3, pl.Scale(0))


def test_capacity_window_needs_enough_points():
    with pytest.raises(ValueError):
        pl.capacity_pressure(FULL2, pl.whole(), F0, pl.Scale(1), (5, 7))


def test_partition_function_monotone_in_scale():
    for n in (3, 5):
        coarse = pl.partition_function(GM, pl.whole(), pl.zero_potential(GM), n, pl.Scale(1))
        fine = pl.partition_function(GM, pl.whole(), pl.zero_potential(GM), n, pl.Scale(3))
        assert coarse <= fine + 1e-12


def test_capacity_estimate_reports_window_values():
    est = pl.capacity_pressure(FULL2, pl.whole(), F0, pl.Scale(1), (4, 12))
    ns = [n for n, _ in est.p_n]
    assert ns == list(range(4, 13))
    # at m=1 the separated representatives are the length-n words, so the
    # raw log partition value is exactly n log 2 on the full 2-shift
    for n, v in est.p_n:
        assert v == pytest.approx(n * math.log(2), rel=1e-12)


def _admissible(w, rel):
    return all(rel[a][b] for a, b in zip(w, w[1:]))


def _window_target(rng, host, kind):
    """A target of the given kind (whole, sub-SFT, frequency, union, or a
    frequency part beside a nested union) and the relations each word's
    continuations may follow inside it."""
    if kind == 0:
        return pl.whole(), lambda w: [host.allowed]
    if kind == 1:
        rel = random_sub_relation(rng, host.allowed)
        return pl.sub_sft(rel), lambda w: [rel] if _admissible(w, rel) else []
    if kind == 2:
        symbol = int(rng.integers(0, host.alphabet_size))
        target, window = float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.1, 0.3))
        spec = pl.frequency_level(symbol, target, window)
        return spec, lambda w: (
            [host.allowed] if abs(w.count(symbol) - target * len(w)) <= window * len(w) else []
        )
    if kind == 3:
        a, b = random_sub_relation(rng, host.allowed), random_sub_relation(rng, host.allowed)
        spec = pl.finite_union(pl.sub_sft(a), pl.sub_sft(b))
        return spec, lambda w: [rel for rel in (a, b) if _admissible(w, rel)]
    # a word is accepted when any part accepts it; its tails then run over
    # every part it has not left, and the frequency part never leaves
    freq, freq_tails = _window_target(rng, host, 2)
    union, union_tails = _window_target(rng, host, 3)
    return pl.finite_union(freq, union), lambda w: (
        [host.allowed] + union_tails(w) if freq_tails(w) or union_tails(w) else []
    )


def _check_window_against_brute(rng, host, n_hi, kind, m):
    ns = range(1, n_hi + 1)
    depth = int(rng.integers(1, 4))
    table = {w: float(rng.uniform(-1, 1)) for w in admissible_words(host.allowed, depth)}
    f = pl.potential_from_table(host, depth, table)
    spec, tails = _window_target(rng, host, kind)
    oracle = {
        n: partition_function(admissible_words(host.allowed, n + m - 1), tails, table, depth, n)
        for n in ns
    }
    if sum(v > 0 for v in oracle.values()) < 2:
        with pytest.raises(pl.EmptyTarget):
            pl.capacity_pressure(host, spec, f, pl.Scale(m), (1, n_hi))
        return
    est = pl.capacity_pressure(host, spec, f, pl.Scale(m), (1, n_hi))
    assert est.empty_n == tuple(n for n in ns if oracle[n] == 0)
    assert [n for n, _ in est.p_n] == [n for n in ns if oracle[n] > 0]
    for n, v in est.p_n:
        assert math.exp(v) == pytest.approx(oracle[n], rel=1e-10)


def test_capacity_window_matches_brute_partition_functions():
    # one forward pass yields every P_n of the window; each must match the
    # literal sum over the target's separated representatives
    rng = np.random.default_rng(23)
    for host, n_hi in ((FULL2, 6), (GM, 7), (pl.full_shift(3), 5)):
        for kind in range(4):
            for m in (1, 2, 3):  # sigma = m - 1 runs from 0 to 2
                _check_window_against_brute(rng, host, n_hi, kind, m)


def test_capacity_window_on_nested_unions_with_a_frequency_part():
    rng = np.random.default_rng(29)
    for host, n_hi in ((FULL2, 6), (GM, 7), (pl.full_shift(3), 5)):
        for m in (1, 2, 3, 1, 2, 3):
            _check_window_against_brute(rng, host, n_hi, 4, m)


@pytest.mark.parametrize("c, m", [(1e308, 1), (-1e308, 3)])
def test_capacity_past_the_float_range_names_the_first_horizon(c, m):
    # log P_n reads +inf (c = 1e308), or -inf + inf = NaN where the deeper
    # scale subtracts windows (c = -1e308, m = 3): no slope is fitted
    f = pl.constant_potential(FULL2, c)
    with pytest.raises(RuntimeError, match="float range at n = 4;"):
        pl.capacity_pressure(FULL2, pl.whole(), f, pl.Scale(m), (4, 24))


def test_capacity_window_sums_the_depths_of_a_layer_in_one_block():
    # leaf_sum_log sums the depths that share a layer in one 2-D block and
    # fold_forward ravels each distinct layer once; both must equal the
    # per-depth loops bit for bit, where layers repeat (a periodic sub-SFT,
    # the whole shift), where acceptance moves with the depth (bands), where
    # a layer is empty and where sums leave the float range
    rng = np.random.default_rng(41)
    flip = pl.sub_sft(((False, True), (True, False)))
    band = pl.frequency_level(0, 0.3, 0.1)
    cases = [
        (FULL2, flip, 2, 1, 60),
        (FULL2, flip, 2, 3, 60),
        (FULL2, pl.whole(), 2, 2, 50),
        (FULL2, band, 1, 1, 60),
        (FULL2, band, 2, 2, 40),
        (FULL2, pl.finite_union(flip, band), 2, 1, 40),
        (pl.full_shift(3), pl.finite_union(pl.sub_sft(((True, True, False),) * 3), band), 1, 2, 30),
        (GM, pl.frequency_level(1, 1.0, 0.01), 1, 1, 12),  # layer 1 is childless
    ]
    for host, spec, depth, m, L in cases:
        for scale in (1.0, 1e308):  # 1e308: terms of +-inf, and NaN where they meet
            table = {w: scale * float(rng.uniform(-1, 1)) for w in admissible_words(host.allowed, depth)}
            f = pl.potential_from_table(host, depth, table)
            depths = list(range(m, L + 1))
            tree = _TreeProgram(host, spec, f, m - 1, L)
            with np.errstate(over="ignore", invalid="ignore"):  # as leaf_sum_log runs them
                prefix, want = fold_forward_walk(tree), leaf_sum_walk(tree, depths)
                folded = tree.fold_forward()
            for got, walked in zip(folded, prefix, strict=True):
                assert got.tobytes() == walked.tobytes()
            got = leaf_sum_log(host, spec, f, m - 1, depths)
            assert [v is None for v in got] == [v is None for v in want]
            assert np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()
    # every leaf sum -inf: each window is -1e308, so two of them leave the range
    f = pl.potential_from_table(FULL2, 2, {w: -1e308 for w in all_words(2, 2)})
    tree = _TreeProgram(FULL2, flip, f, 0, 30)
    got = leaf_sum_log(FULL2, flip, f, 0, list(range(1, 31)))
    assert got[3:] == [-math.inf] * 27
    with np.errstate(over="ignore", invalid="ignore"):
        want = leaf_sum_walk(tree, range(1, 31))
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_merged_capacity_trees_are_accurate():
    # on a full k-shift with a depth-1 potential f the whole space's leaf sum
    # at depth d is exactly d log sum_a e^f(a); its tree keeps no suffix
    # (r = 0, one state per depth), and its leaf sums, like the last-symbol
    # tree's, lie within 2 d eps (d B) of the exact value, where d B, with
    # B = max |f| + log k, bounds every log prefix sum the forward fold
    # rounds: each depth adds a few roundings of at most that size
    rng = np.random.default_rng(97)
    eps = sys.float_info.epsilon
    depths = sorted({1, 2, 3, 400, *rng.integers(4, 400, size=40).tolist()})
    for k in (1, 2, 3):
        host = pl.full_shift(k)
        for size in (1e-3, 1.0, 30.0):
            values = rng.uniform(-size, size, size=k).tolist()
            f = pl.potential_from_table(host, 1, {(a,): v for a, v in enumerate(values)})
            with localcontext() as exact:
                exact.prec = 40
                rate = sum(Decimal(v).exp() for v in values).ln()
                B = max(map(abs, values)) + math.log(k)
                assert _TreeProgram(host, pl.whole(), f, 0, 400).layers.words == [()]
                last = leaf_sum_walk(last_symbol_tree(host, pl.whole(), f, 0, 400), depths)
                for sums in (leaf_sum_log(host, pl.whole(), f, 0, depths), last):
                    for d, got in zip(depths, sums):
                        error = float(abs(Decimal(got) - d * rate))
                        assert error <= 2 * d * eps * d * B, (k, values, d)
