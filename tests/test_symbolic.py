import time
import tracemalloc

import numpy as np
import pytest

import pressurelab as pl
from brute import (
    admissible_words,
    all_words,
    ball_agreement_length,
    birkhoff,
    extreme_tail_walk,
    max_separated_set_size,
    metric,
    missing_word_descent,
    orbit_metric,
    sup_birkhoff,
    tarjan_components,
    trim_forward_loop,
    validate_spec_recursive,
)
from pressurelab._engine import extreme_tails
from pressurelab.subsets import _word_dag, trim_forward
from pressurelab.symbolic import is_strongly_connected, strongly_connected_components

FULL2 = pl.full_shift(2)
GM = pl.golden_mean_shift()


def test_word_counts_full_shift():
    assert pl.count_words(FULL2, 3) == 8


def test_word_counts_golden_mean_against_filter():
    for n in (4, 10):
        expected = len(admissible_words(GM.allowed, n))
        assert pl.count_words(GM, n) == expected
    assert pl.count_words(GM, 4) == 8
    assert pl.count_words(GM, 10) == 144


def test_negative_word_length_is_rejected():
    # the tracker fold first: a walker that loops on a negative depth would
    # hang here instead of failing
    with pytest.raises(ValueError, match="nonnegative"):
        pl.count_target_words(FULL2, pl.whole(), -1)
    with pytest.raises(ValueError, match="nonnegative"):
        pl.iter_target_words(FULL2, pl.whole(), -1)
    with pytest.raises(ValueError, match="nonnegative"):
        pl.count_words(GM, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        pl.enumerate_words(GM, -2)


def test_zero_length_words_are_the_empty_word():
    assert pl.count_words(GM, 0) == 1
    assert pl.enumerate_words(GM, 0) == ((),)


def test_enumerate_words_matches_filter_oracle():
    for n in range(1, 7):
        assert sorted(pl.enumerate_words(GM, n)) == sorted(
            admissible_words(GM.allowed, n)
        )


def _random_hosts(rng, k, count):
    """The full k-shift, then ``count`` random hosts that forbid some arc."""
    hosts = [pl.full_shift(k)]
    while len(hosts) <= count:
        host = _random_host(rng, k)
        if not all(map(all, host.allowed)):
            hosts.append(host)
    return hosts


def test_host_word_counts_and_lists_match_the_target_tree_and_the_filter():
    # the path recurrence and the row expansion against the whole-space word
    # tree they replaced and against filtering every k^n word
    rng = np.random.default_rng(25)
    for k in range(1, 6):
        for host in _random_hosts(rng, k, 2 if k > 1 else 0):
            for n in range(9):
                words = pl.enumerate_words(host, n)
                count = pl.count_words(host, n)
                assert type(count) is int and count == len(words)
                assert count == pl.count_target_words(host, pl.whole(), n)
                assert words == pl.iter_target_words(host, pl.whole(), n)
                assert words == tuple(admissible_words(host.allowed, n))


def test_potential_table_misses_what_the_word_dag_descent_finds():
    # the missing count and first missing word, from path counts, against
    # the descent over the whole-space word DAG; every table lacks some word
    rng = np.random.default_rng(2025)
    for trial in range(600):
        k, depth = int(rng.integers(1, 5)), int(rng.integers(0, 5))
        host = _random_host(rng, k) if trial % 2 else pl.full_shift(k)
        words = pl.enumerate_words(host, depth)
        keep = rng.random(len(words)) < rng.uniform(0.0, 1.0)
        keep[rng.integers(len(words))] = False
        table = {w: 0.5 for w, ok in zip(words, keep) if ok}
        missing, example = missing_word_descent(*_word_dag(host, pl.whole(), depth), table)
        assert missing > 0
        with pytest.raises(ValueError) as error:
            pl.potential_from_table(host, depth, table)
        assert str(error.value) == (
            f"potential table is missing {missing} admissible words, e.g. {example!r}"
        )


def test_ball_word_length_small_cases_by_enumeration():
    assert pl.bowen_ball_word_length(3, pl.Scale(2)) == ball_agreement_length(
        3, 2, probe_len=7
    )
    assert pl.bowen_ball_word_length(1, pl.Scale(0)) == ball_agreement_length(
        1, 0, probe_len=4
    )
    assert pl.bowen_ball_word_length(3, pl.Scale(2)) == 5
    assert pl.bowen_ball_word_length(1, pl.Scale(0)) == 1


def test_ball_word_length_deep_case_by_witness_pairs():
    # For each candidate first-difference index j, build the literal pair
    # and evaluate the orbit metric directly; the ball membership threshold
    # must flip exactly at the claimed agreement length.
    n, m = 10, 3
    claimed = pl.bowen_ball_word_length(n, pl.Scale(m))
    assert claimed == 13
    for j in range(20):
        x = (0,) * 24
        y = (0,) * j + (1,) + (0,) * (23 - j)
        inside = orbit_metric(x, y, n) < 2.0 ** (-m)
        assert inside == (j >= claimed)


def test_separated_word_length_small_cases():
    assert pl.separated_word_length(2, pl.Scale(1)) == 2
    assert pl.separated_word_length(1, pl.Scale(1)) == 1
    assert pl.separated_word_length(5, pl.Scale(2)) == 6
    # pairs with distinct prefixes of that length are strictly separated
    n, m = 5, 2
    q = pl.separated_word_length(n, pl.Scale(m))
    for j in range(10):
        x = (0,) * 16
        y = (0,) * j + (1,) + (0,) * (15 - j)
        separated = orbit_metric(x, y, n) > 2.0 ** (-m)
        assert separated == (j < q)


def test_max_separated_family_full_shift():
    assert max_separated_set_size(2, n=2, m=1, probe_len=4) == 4


def test_separated_scale_zero_rejected():
    with pytest.raises(pl.ScaleTooCoarse):
        pl.separated_word_length(3, pl.Scale(0))


def test_metric_is_literal_power_of_two():
    assert metric((0, 1, 1), (0, 1, 0)) == 0.25
    assert metric((1, 1), (1, 1)) == 0.0
    assert orbit_metric((0, 0, 1, 0), (0, 0, 0, 0), 2) == 0.5


def test_birkhoff_sum_zero_potential():
    f = pl.zero_potential(FULL2)
    assert pl.birkhoff_sum(f, (0, 1, 0, 1, 1, 0, 1, 0), 7) == 0.0


def test_birkhoff_sum_depth_one_literal():
    f = pl.potential_from_table(FULL2, 1, {(0,): 1.0, (1,): 0.0})
    w = (0, 0, 1, 1, 0)
    assert pl.birkhoff_sum(f, w, 4) == pytest.approx(
        birkhoff({(0,): 1.0, (1,): 0.0}, 1, w, 4)
    )
    assert pl.birkhoff_sum(f, w, 4) == 2.0


def test_birkhoff_sum_depth_two_literal():
    table = {
        (0, 0): 0.0,
        (0, 1): 1.0,
        (1, 0): 0.0,
    }
    f = pl.potential_from_table(GM, 2, table)
    w = (0, 1, 0, 1, 0)
    assert pl.birkhoff_sum(f, w, 4) == 2.0


def test_birkhoff_sum_adds_left_to_right():
    # the suite compares values bit for bit, so the summation order is part
    # of the result: 1e16 + 1.0 rounds back to 1e16, and a compensated sum
    # (builtin sum() of floats from Python 3.12) would give 1.0 instead
    f = pl.potential_from_table(pl.full_shift(3), 1, {(0,): 1e16, (1,): 1.0, (2,): -1e16})
    assert pl.birkhoff_sum(f, (0, 1, 2)) == 0.0


def test_sup_birkhoff_zero_potential_is_zero():
    f = pl.zero_potential(FULL2)
    assert pl.sup_birkhoff_on_cylinder(FULL2, f, (0, 1), 5) == 0.0


def test_sup_birkhoff_full_shift_favors_zeros():
    table = {(0,): 1.0, (1,): 0.0}
    f = pl.potential_from_table(FULL2, 1, table)
    got = pl.sup_birkhoff_on_cylinder(FULL2, f, (0,), 3)
    assert got == sup_birkhoff(FULL2.allowed, table, 1, (0,), 3)
    assert got == 3.0


def test_sup_birkhoff_respects_forbidden_transitions():
    table = {(0,): 1.0, (1,): 0.0}
    f = pl.potential_from_table(GM, 1, table)
    got = pl.sup_birkhoff_on_cylinder(GM, f, (1,), 2)
    assert got == sup_birkhoff(GM.allowed, table, 1, (1,), 2)
    assert got == 1.0
    # the tail after a depth-1 word still follows the transition relation:
    # 1 -> 0 -> 1 is the best admissible run, not 1 -> 1 -> 1
    g = pl.potential_from_table(GM, 1, {(0,): 0.0, (1,): 1.0})
    assert pl.sup_birkhoff_on_cylinder(GM, g, (1,), 3) == 2.0
    assert pl.inf_birkhoff_on_cylinder(GM, f, (1,), 3) == 1.0


def test_sup_and_inf_birkhoff_bracket_random_cases():
    rng = np.random.default_rng(42)
    for _ in range(25):
        table = {
            (a, b): float(rng.uniform(-1, 1))
            for a in range(2)
            for b in range(2)
            if GM.allowed[a][b]
        }
        f = pl.potential_from_table(GM, 2, table)
        n = int(rng.integers(1, 5))
        for w in pl.enumerate_words(GM, int(rng.integers(1, 4))):
            hi = pl.sup_birkhoff_on_cylinder(GM, f, w, n)
            lo = pl.inf_birkhoff_on_cylinder(GM, f, w, n)
            assert lo <= hi + 1e-12
            assert hi == pytest.approx(
                sup_birkhoff(GM.allowed, table, 2, w, n), abs=1e-12
            )


def test_potential_table_rejects_forbidden_word():
    with pytest.raises(pl.InadmissibleWord):
        pl.potential_from_table(
            GM, 2, {(0, 0): 0.1, (0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.4}
        )


def test_potential_table_requires_full_coverage():
    with pytest.raises(ValueError):
        pl.potential_from_table(FULL2, 1, {(0,): 1.0})
    # the example is the first missing word in lexicographic order
    table = {w: 0.0 for w in pl.enumerate_words(GM, 3) if w not in ((0, 1, 0), (1, 0, 1))}
    with pytest.raises(ValueError, match=r"missing 2 admissible words, e\.g\. \(0, 1, 0\)"):
        pl.potential_from_table(GM, 3, table)
    with pytest.raises(ValueError, match="has length 2 != depth 3"):
        pl.potential_from_table(GM, 3, {**table, (0, 1): 0.0})


def test_enumeration_budget_refuses_before_materializing():
    # 2**27 words exceed the 2**26 budget: the count alone decides, so the
    # refusal comes at once and allocates next to nothing
    import tracemalloc

    for enumerate_words in (
        lambda: pl.enumerate_words(FULL2, 27),
        lambda: pl.iter_target_words(FULL2, pl.whole(), 27),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(pl.EnumerationBudgetExceeded) as exc:
                enumerate_words()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.count, exc.value.budget) == (2 ** 27, 2 ** 26)
        assert str(exc.value) == f"enumeration of {2 ** 27} words exceeds the budget of {2 ** 26}"
        assert peak < 2 ** 20


def test_suffix_tables_keep_to_the_enumeration_budget(monkeypatch):
    # a suffix table counts its suffixes by path counts before it builds
    # any: one exactly at the budget builds and one past it raises; on the
    # full 2-shift the suffixes of at most r symbols number 2^(r+1) - 1, and
    # on the chain 0 -> 1 -> 2 -> 2 from the first symbol 0 the r-symbol
    # suffixes start at every symbol a word reaches; at one cell a suffix
    # the budget in cells is a budget in suffixes
    import pressurelab.subsets as subsets
    import pressurelab.symbolic as symbolic

    monkeypatch.setattr(subsets, "_suffix_cells", lambda k, r: 1)
    full = [[True, True]] * 3
    chain = [[False, True, False], [False, False, True], [False, False, True], [True, False, False]]
    for reach, r, size, over in ((full, 8, 2 ** 9 - 1, 2 ** 10 - 1), (chain, 2, 5, 6)):
        monkeypatch.setattr(symbolic, "DEFAULT_ENUMERATION_BUDGET", size)
        assert len(subsets.suffix_table(reach, r)[0]) == size
        with pytest.raises(pl.EnumerationBudgetExceeded) as exc:
            subsets.suffix_table(reach, r + 1)
        assert (exc.value.count, exc.value.budget) == (over, size)


def test_suffix_tables_stop_counting_at_the_first_length_past_the_budget():
    # on the full 2-shift the suffixes of at most j symbols number
    # 2^(j+1) - 1, which first passes the budget 2^26 at j = 26; a table of
    # far longer suffixes raises with that count, not with its own
    import pressurelab.subsets as subsets

    with pytest.raises(pl.EnumerationBudgetExceeded) as exc:
        subsets.suffix_table([[True, True]] * 3, 20000)
    assert (exc.value.count, exc.value.budget) == (2 ** 27 - 1, 2 ** 26)


def test_suffix_tables_are_charged_at_least_their_build_peak():
    # the cells charged per suffix cover the build's tracemalloc peak on a
    # small, a middle and a large alphabet
    import pressurelab.subsets as subsets

    for k, r in ((2, 12), (3, 8), (16, 3)):
        tracemalloc.start()
        try:
            words, _ = subsets.suffix_table([[True] * k] * (k + 1), r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= len(words) * subsets._suffix_cells(k, r) * 8, (k, r)


def test_large_alphabet_suffix_tables_are_refused_by_their_bytes():
    # the full 16-shift's suffixes of at most 5 symbols number
    # (16^6 - 1) / 15 = 1,118,481, far inside the budget of 2^26, but at
    # 29 + 5 + 2 * 16 = 66 cells each (528 B) their build would peak past
    # 2^26 cells (512 MiB); the table is refused before any suffix is made
    import pressurelab.subsets as subsets

    full16 = [[True] * 16] * 17
    start = time.perf_counter()
    with pytest.raises(pl.EnumerationBudgetExceeded) as exc:
        subsets.suffix_table(full16, 5)
    assert time.perf_counter() - start < 1.0
    assert (exc.value.count, exc.value.budget) == (1118481 * 66, 2 ** 26)
    assert str(exc.value).endswith(" 8-byte cells of suffix table exceeds the budget of 67108864")


def test_subshift_from_pairs_roundtrip():
    sft = pl.subshift_from_pairs(2, [(0, 0), (0, 1), (1, 0)])
    assert sft.allowed == GM.allowed


def test_subset_validation():
    gm_inside = pl.sub_sft(((True, True), (True, False)))
    pl.validate_spec(gm_inside, FULL2)
    not_sub = pl.sub_sft(((True, True), (True, True)))
    with pytest.raises(ValueError):
        pl.validate_spec(not_sub, GM)
    with pytest.raises(ValueError):
        pl.frequency_level(0, 1.5, 0.1)
    with pytest.raises(ValueError):
        pl.frequency_level(0, 0.5, -0.1)


def test_target_words_of_sub_sft():
    gm_inside = pl.sub_sft(((True, True), (True, False)))
    for n in range(1, 8):
        words = pl.iter_target_words(FULL2, gm_inside, n)
        assert sorted(words) == sorted(admissible_words(GM.allowed, n))
        assert pl.count_target_words(FULL2, gm_inside, n) == len(words)


def test_target_words_of_finite_union_is_set_union():
    a = pl.sub_sft(((True, False), (False, False)))
    b = pl.sub_sft(((False, False), (False, True)))
    u = pl.finite_union(a, b)
    words = pl.iter_target_words(FULL2, u, 5)
    assert sorted(words) == [(0,) * 5, (1,) * 5]


def test_frequency_level_words_by_filter():
    spec = pl.frequency_level(0, 0.5, 0.1)
    got = sorted(pl.iter_target_words(FULL2, spec, 6))
    expected = sorted(
        w for w in all_words(2, 6) if abs(w.count(0) / 6 - 0.5) <= 0.1 + 1e-12
    )
    assert got == expected


def test_frequency_level_rejects_a_nan_window():
    # NaN <= 0 is False, so a NaN half-width used to pass and make every
    # word miss the window
    with pytest.raises(ValueError, match="window must be positive"):
        pl.frequency_level(0, 0.3, float("nan"))


def test_scale_rejects_a_non_integer_exponent():
    # a float m is no slice bound and no range() argument; numpy ints are
    with pytest.raises(ValueError, match="nonnegative integer"):
        pl.Scale(1.5)
    assert pl.Scale(np.int64(2)).coarsen(1) == pl.Scale(1)


def test_subshift_from_pairs_rejects_non_integer_symbols():
    # a float symbol used to fail as a list index, and True built the arc 0 -> 1
    for pair in ((0, 1.0), (0, True), (np.bool_(False), 1)):
        with pytest.raises(ValueError, match="outside alphabet"):
            pl.subshift_from_pairs(2, [pair, (1, 0), (0, 0)])
    sft = pl.subshift_from_pairs(2, [(np.int64(0), np.int32(1)), (1, 0), (0, 0)])
    assert sft.allowed == GM.allowed


def test_frequency_level_rejects_a_non_integer_symbol():
    # 1.5 tagged no symbol, so a band search ended without a lower bracket;
    # 0.0 and True ran as symbols 0 and 1
    for symbol in (1.5, 0.0, True):
        with pytest.raises(ValueError, match="symbol must be an integer"):
            pl.frequency_level(symbol, 0.3, 0.05)
    assert pl.frequency_level(np.int64(1), 0.3, 0.05).symbol == 1


def test_scale_rejects_a_bool_exponent():
    # True is a numbers.Integral, and a report wrote it as "m": true
    for m in (True, False):
        with pytest.raises(ValueError, match="nonnegative integer"):
            pl.Scale(m)


def test_sub_sft_rejects_a_ragged_relation():
    # the host check counted rows only and then indexed past a short row
    with pytest.raises(ValueError, match="must be square"):
        pl.sub_sft([[1, 1], [1]])
    with pytest.raises(ValueError, match="must be square"):
        pl.sub_sft([[1, 1, 0], [1, 0, 1]])


def test_trim_forward_matches_the_alive_flag_loop():
    rng = np.random.default_rng(2303)
    trimmed = 0
    for _ in range(10_000):
        k = int(rng.integers(1, 7))
        rel = tuple(map(tuple, (rng.random((k, k)) < rng.uniform(0.05, 0.6)).tolist()))
        got = trim_forward(rel)
        assert got == trim_forward_loop(rel)
        trimmed += got != rel
    assert trimmed > 2_000  # the draws reach relations the trim changes, not only fixpoints


def _random_spec(rng: np.random.Generator, k: int, depth: int = 0) -> pl.SubsetSpec:
    """A nested spec for a k-symbol host, often one that does not fit it: a
    sub-relation of another size or with arcs the host forbids, or a
    frequency symbol outside the alphabet."""
    kind = int(rng.integers(4 if depth < 3 else 3))
    if kind == 0:
        return pl.whole()
    if kind == 1:
        n = k if rng.random() < 0.85 else int(rng.integers(1, k + 2))
        return pl.sub_sft((rng.random((n, n)) < rng.uniform(0.2, 0.9)).tolist())
    if kind == 2:
        return pl.frequency_level(int(rng.integers(-1, k + 1)), 0.5, 0.1)
    return pl.finite_union(*(_random_spec(rng, k, depth + 1) for _ in range(rng.integers(1, 4))))


def _first_error(check, spec, host):
    try:
        check(spec, host)
    except ValueError as e:
        return str(e)
    return None


def test_validate_spec_matches_the_recursive_check():
    # the first error, message and all, or none, on nested specs over full
    # shifts, the golden mean and a 3-symbol host with forbidden arcs
    rng = np.random.default_rng(2304)
    hosts = (FULL2, GM, pl.full_shift(3), pl.subshift_from_pairs(3, [(0, 1), (1, 2), (2, 0), (2, 2)]))
    outcomes = []
    for trial in range(3_000):
        host = hosts[trial % len(hosts)]
        spec = _random_spec(rng, host.alphabet_size)
        want = _first_error(validate_spec_recursive, spec, host)
        assert _first_error(pl.validate_spec, spec, host) == want
        outcomes.append(want)
    assert min(outcomes.count(None), len(outcomes) - outcomes.count(None)) > 500
    assert {msg.split()[1] for msg in outcomes if msg} == {"size", "allows", "symbol"}


def _random_host(rng: np.random.Generator, k: int) -> pl.Subshift:
    while True:
        rel = rng.random((k, k)) < 0.6
        if rel.any(axis=0).all() and rel.any(axis=1).all():
            return pl.Subshift(k, tuple(map(tuple, rel.tolist())))


def test_extreme_tails_match_the_per_context_walk():
    # the suffix-table fold against the retired walker, which grew a merged
    # tree from each context alone: every context, exactly
    rng = np.random.default_rng(2024)
    for trial in range(80):
        k = int(rng.integers(2, 4))
        host = _random_host(rng, k) if trial % 3 else (FULL2 if k == 2 else GM)
        depth = int(rng.integers(1, 5))
        f = pl.potential_from_table(
            host, depth, {w: float(rng.normal()) for w in pl.enumerate_words(host, depth)}
        )
        sub = tuple(
            tuple(bool(ok and rng.random() < 0.6) for ok in row) for row in host.allowed
        )
        contexts = {
            w for n in range(max(depth - 1, 1) + 1) for w in admissible_words(host.allowed, n)
        }
        for rel in (host.allowed, trim_forward(sub)):
            successors = [[b for b, ok in enumerate(row) if ok] for row in rel]
            for steps in range(7):
                for want_max in (True, False):
                    tails = extreme_tails(host, f, rel, steps, want_max)
                    assert set(tails) == contexts
                    for ctx, got in tails.items():
                        assert got == extreme_tail_walk(successors, f, ctx, steps, want_max)


def test_strongly_connected_components_match_tarjan():
    rng = np.random.default_rng(7)
    graphs = [[], [[False]], [[True]]] + [
        (rng.random((n, n)) < rng.uniform(0.05, 0.6)).tolist()
        for n in rng.integers(0, 8, size=300)
    ]
    for adjacency in graphs:
        expected = tarjan_components(adjacency)
        assert strongly_connected_components(adjacency) == expected
        assert is_strongly_connected(adjacency) == (len(expected) == 1)
