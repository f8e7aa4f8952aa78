import json
import math

import numpy as np
import pytest

import pressurelab as pl
from pressurelab.measure import _invariant_pressures
from pressurelab.symbolic import is_strongly_connected
from brute import (
    all_words,
    invariant_pressure_stack,
    json_ready,
    local_pressure_symbolwise,
    markov_entropy,
    sample_orbit_symbolwise,
)

FULL2 = pl.full_shift(2)
GM = pl.golden_mean_shift()
F0 = pl.zero_potential(FULL2)
F10 = pl.potential_from_table(FULL2, 1, {(0,): 1.0, (1,): 0.0})
LOG_PHI = math.log((1 + math.sqrt(5)) / 2)
LOG2 = math.log(2)


def test_cylinder_measure_uniform():
    mu = pl.bernoulli_measure([0.5, 0.5])
    assert pl.cylinder_measure(mu, (0, 1, 1)) == pytest.approx(0.125, abs=1e-15)


def test_cylinder_measure_bernoulli_literal_product():
    mu = pl.bernoulli_measure([0.3, 0.7])
    assert pl.cylinder_measure(mu, (0, 0, 1)) == pytest.approx(0.063, abs=1e-15)


def test_cylinder_measure_forbidden_word_is_zero():
    mu = pl.equilibrium_measure(GM, pl.zero_potential(GM))
    assert pl.cylinder_measure(mu, (1, 1)) == 0.0


def test_cylinder_measure_empty_word_is_one():
    mu = pl.bernoulli_measure([0.4, 0.6])
    assert pl.cylinder_measure(mu, ()) == 1.0


def test_cylinder_measure_markov_literal_chain_rule():
    mu = pl.markov_measure([[0.9, 0.1], [0.4, 0.6]])
    w = (0, 1, 1, 0)
    pi = mu.initial
    expected = pi[0] * 0.1 * 0.6 * 0.4
    assert pl.cylinder_measure(mu, w) == pytest.approx(expected, rel=1e-12)


def test_local_pressure_uniform_closed_form():
    mu = pl.bernoulli_measure([0.5, 0.5])
    x = tuple(int(b) for b in np.random.default_rng(0).integers(0, 2, size=120))
    tr = pl.local_pressure(mu, F0, x, pl.Scale(2), [10])
    assert tr.values[0][1] == pytest.approx(1.2 * LOG2, rel=1e-12)
    tr100 = pl.local_pressure(mu, F0, x, pl.Scale(2), [100])
    assert tr100.values[0][1] == pytest.approx(1.02 * LOG2, rel=1e-12)


def test_local_pressure_constant_shift():
    mu = pl.bernoulli_measure([0.5, 0.5])
    x = tuple(int(b) for b in np.random.default_rng(1).integers(0, 2, size=64))
    base = pl.local_pressure(mu, F0, x, pl.Scale(2), [5, 10, 20])
    fc = pl.constant_potential(FULL2, 0.31)
    shifted = pl.local_pressure(mu, fc, x, pl.Scale(2), [5, 10, 20])
    for (n1, v1), (n2, v2) in zip(base.values, shifted.values):
        assert n1 == n2
        assert v2 == pytest.approx(v1 + 0.31, rel=1e-12)


def test_local_pressure_needs_enough_symbols():
    mu = pl.bernoulli_measure([0.5, 0.5])
    with pytest.raises(pl.InsufficientDepth):
        pl.local_pressure(mu, F0, (0, 1, 0), pl.Scale(2), [10])


def test_local_pressure_zero_measure_ball_flagged():
    mu = pl.equilibrium_measure(GM, pl.zero_potential(GM))
    # a word with the forbidden block has measure zero under the Parry
    # measure, so its trace rows carry an infinite estimate and are flagged
    x = (1, 1) + (0,) * 30
    tr = pl.local_pressure(mu, pl.zero_potential(GM), x, pl.Scale(1), [4, 8])
    assert tr.zero_measure_n == (4, 5, 6, 7, 8)
    assert all(math.isinf(v) for _, v in tr.values)


def test_sample_orbit_deterministic_and_admissible():
    mu = pl.equilibrium_measure(GM, pl.zero_potential(GM))
    a = pl.sample_orbit(mu, 50, pl.Scale(2), seed=9)
    b = pl.sample_orbit(mu, 50, pl.Scale(2), seed=9)
    assert a.word == b.word
    assert len(a.word) >= 50
    for u, v in zip(a.word, a.word[1:]):
        assert GM.allowed[u][v]


def test_sample_orbit_matches_marginals():
    mu = pl.bernoulli_measure([0.2, 0.8])
    counts = np.zeros(2)
    for seed in range(40):
        w = pl.sample_orbit(mu, 200, pl.Scale(1), seed=seed).word
        for c in w:
            counts[c] += 1
    freq = counts / counts.sum()
    assert abs(freq[0] - 0.2) < 0.02


def _random_markov(rng, k):
    """A Markov measure with some zero transition and initial entries."""
    P = rng.uniform(0.0, 1.0, size=(k, k)) * (rng.random((k, k)) > 0.3)
    P[np.arange(k), rng.integers(0, k, size=k)] += 0.05
    pi = rng.uniform(0.0, 1.0, size=k) * (rng.random(k) > 0.3)
    pi[rng.integers(0, k)] += 0.05
    return pl.MarkovMeasure(P / P.sum(axis=1, keepdims=True), pi / pi.sum())


def _random_horizons(rng):
    """An explicit horizon list, a [lo, hi] window, or a two-point list."""
    lo = int(rng.integers(1, 40))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return sorted(int(n) for n in rng.choice(np.arange(1, 80), size=6, replace=False))
    if kind == 1:
        return [lo, lo + int(rng.integers(4, 60))]
    return [lo, lo + int(rng.integers(1, 4))]


def _oracle_trace(mu, f, word, m, n_range):
    ns = list(range(n_range[0], n_range[1] + 1)) if (
        len(n_range) == 2 and n_range[1] - n_range[0] >= 4
    ) else list(n_range)
    values, liminf, flagged = local_pressure_symbolwise(
        mu.initial, mu.transition, f.table, f.depth, word, m, ns
    )
    return pl.LocalPressureTrace(values, liminf, flagged)


def test_orbits_and_traces_match_symbolwise_oracles():
    rng = np.random.default_rng(20261018)
    zero_balls = 0
    for _ in range(120):
        k = int(rng.integers(2, 5))
        mu = _random_markov(rng, k)
        depth = int(rng.integers(1, 4))
        m = int(rng.integers(0, 4))
        f = pl.LocallyConstantPotential(
            depth, {w: float(rng.normal()) for w in all_words(k, depth)}
        )
        n_range = _random_horizons(rng)
        # long enough for the potential's last window at every scale
        n_max = n_range[-1] + max(0, depth - 1 - m)
        seed = int(rng.integers(0, 2**63))
        orbit = pl.sample_orbit(mu, n_max, pl.Scale(m), seed)
        assert orbit.word == sample_orbit_symbolwise(
            mu.initial, mu.transition, n_max + m, seed
        )
        got = pl.local_pressure(mu, f, orbit, pl.Scale(m), n_range)
        assert got == _oracle_trace(mu, f, orbit.word, m, n_range)
        # a word mu need not charge: its deep balls have measure zero
        word = tuple(int(b) for b in rng.integers(0, k, size=n_max + m))
        got = pl.local_pressure(mu, f, word, pl.Scale(m), n_range)
        assert got == _oracle_trace(mu, f, word, m, n_range)
        zero_balls += bool(got.zero_measure_n)
    assert zero_balls > 20


class _FixedDraws:
    """Stands in for a numpy Generator whose random() returns given draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)

    def random(self, size):
        assert size == len(self.draws)
        return self.draws.copy()


def test_sample_orbit_refuses_an_orbit_past_the_budget_before_the_draw():
    # n_max + m symbols past the 2^26 budget: the length alone decides, so
    # the refusal comes before the draw and allocates next to nothing
    import tracemalloc

    mu = pl.bernoulli_measure([0.5, 0.5])
    tracemalloc.start()
    try:
        with pytest.raises(pl.EnumerationBudgetExceeded) as exc:
            pl.sample_orbit(mu, 2 ** 26, pl.Scale(2), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.count, exc.value.budget, exc.value.unit) == (2 ** 26 + 2, 2 ** 26, "orbit symbols")
    assert peak < 2 ** 20


def test_sample_orbit_clamps_a_final_draw_tying_the_last_cdf_value(monkeypatch):
    # cumsum of ten 0.1 entries ends at 0.9999999999999999, not 1.0; a draw
    # equal to it lands one past the last symbol and is clamped to k - 1
    P = np.full((10, 10), 0.1)
    mu = pl.MarkovMeasure(P, np.full(10, 0.1))
    top = float(np.cumsum(mu.initial)[-1])
    assert top < 1.0
    for draws in ([top], [0.1, 0.5, top], [0.0, 0.1, 0.35, top]):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedDraws(draws))
        got = pl.sample_orbit(mu, len(draws), pl.Scale(0), seed=0).word
        assert got == sample_orbit_symbolwise(mu.initial, mu.transition, len(draws), 0)
        assert got[-1] == 9
        assert got[1:-1] == tuple(int(10 * d + 1e-9) for d in draws[1:-1])


def test_sample_orbit_clamps_a_tie_before_the_last_symbol(monkeypatch):
    # the symbol-by-symbol walk indexed past the table here; the next-symbol
    # table clamps every draw, so the orbit continues from k - 1 (a draw
    # equal to an inner CDF value picks the next symbol up)
    mu = pl.MarkovMeasure(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.5, 0.5]))
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedDraws([0.5, 1.0, 0.2, 0.5]))
    assert pl.sample_orbit(mu, 4, pl.Scale(0), seed=0).word == (1, 1, 0, 1)


def test_local_pressure_raises_for_a_missing_window_under_a_charged_ball():
    mu = pl.bernoulli_measure([0.5, 0.5])
    f = pl.potential_from_table(GM, 2, {(0, 0): 0.1, (0, 1): 0.2, (1, 0): 0.3})
    # the ball at n = 10 is charged and its Birkhoff sum reads (1, 1)
    x = (0, 0, 0, 1, 1) + (0,) * 20
    with pytest.raises(pl.InadmissibleWord):
        pl.local_pressure(mu, f, x, pl.Scale(1), [2, 10, 12])
    # at m = 0 the last window of horizon 4 reaches one symbol past the ball
    with pytest.raises(pl.InadmissibleWord):
        pl.local_pressure(mu, f, x, pl.Scale(0), [2, 4])
    assert pl.local_pressure(mu, f, x, pl.Scale(0), [2, 3]).zero_measure_n == ()
    # of two missing windows, the error names the first along the orbit
    table = {w: 0.0 for w in all_words(3, 2) if w not in ((1, 2), (2, 0))}
    f3 = pl.LocallyConstantPotential(2, table)
    x = (0, 0, 2, 0, 1, 2) + (0,) * 10
    with pytest.raises(pl.InadmissibleWord, match=r"\(2, 0\)"):
        pl.local_pressure(pl.bernoulli_measure([0.2, 0.3, 0.5]), f3, x, pl.Scale(1), [8])


def test_local_pressure_reads_no_window_past_the_last_charged_ball():
    parry = pl.equilibrium_measure(GM, pl.zero_potential(GM))
    f = pl.potential_from_table(GM, 2, {(0, 0): 0.1, (0, 1): 0.2, (1, 0): 0.3})
    # (1, 1) at positions 20-21 kills every ball from n = 20 on at m = 1;
    # the windows reading it lie past the last charged horizon, n = 10
    x = (0,) * 20 + (1, 1) + (0,) * 20
    got = pl.local_pressure(parry, f, x, pl.Scale(1), [5, 10, 30, 35])
    assert got.zero_measure_n == (30, 35)
    assert [n for n, v in got.values if math.isfinite(v)] == [5, 10]
    assert got.values[2][1] == got.values[3][1] == math.inf
    assert got == _oracle_trace(parry, f, x, 1, [5, 10, 30, 35])


def test_exact_invariant_pressure_uniform():
    mu = pl.bernoulli_measure([0.5, 0.5])
    assert pl.exact_invariant_pressure(mu, F0) == pytest.approx(LOG2, abs=1e-14)


def test_exact_invariant_pressure_weighted_equilibrium():
    p = math.e / (math.e + 1)
    mu = pl.bernoulli_measure([p, 1 - p])
    got = pl.exact_invariant_pressure(mu, F10)
    assert got == pytest.approx(math.log(math.e + 1), abs=1e-14)


def test_exact_invariant_pressure_parry():
    mu = pl.equilibrium_measure(GM, pl.zero_potential(GM))
    got = pl.exact_invariant_pressure(mu, pl.zero_potential(GM))
    assert got == pytest.approx(LOG_PHI, abs=1e-12)


def test_exact_invariant_pressure_is_entropy_plus_integral():
    rng = np.random.default_rng(12)
    for _ in range(10):
        P = rng.uniform(0.05, 1.0, size=(3, 3))
        P /= P.sum(axis=1, keepdims=True)
        pi = pl.stationary_distribution(P)
        mu = pl.MarkovMeasure(P, pi)
        table = {}
        host = pl.full_shift(3)
        for a in range(3):
            for b in range(3):
                table[(a, b)] = float(rng.uniform(-1, 1))
        f = pl.potential_from_table(host, 2, table)
        got = pl.exact_invariant_pressure(mu, f)
        integral = sum(
            pi[a] * P[a, b] * table[(a, b)] for a in range(3) for b in range(3)
        )
        expected = markov_entropy(P, pi) + integral
        assert got == pytest.approx(expected, rel=1e-10)


def _ergodic_support(rng, k):
    """A random nonempty charged set of k symbols and a strongly connected
    arc pattern on it (every row nonempty), or None."""
    charged = np.flatnonzero(rng.random(k) < 0.7)
    arcs = rng.random((len(charged),) * 2) < 0.6
    if not len(charged) or not arcs.any(axis=1).all() or not is_strongly_connected(arcs):
        return None
    return charged, arcs


def _ergodic_chain(rng, k, charged, arcs):
    """(pi, P): random weights on exactly the arcs inside the charged set,
    arbitrary rows outside it, and the stationary row on the charged set."""
    P = rng.uniform(0.0, 1.0, size=(k, k))
    P[charged] = 0.0
    P[np.ix_(charged, charged)] = rng.uniform(0.05, 1.0, size=arcs.shape) * arcs
    P /= P.sum(axis=1, keepdims=True)
    pi = np.zeros(k)
    pi[charged] = pl.stationary_distribution(P[np.ix_(charged, charged)])
    return pi, P


def _random_table_potential(rng, k, depth):
    return pl.LocallyConstantPotential(
        depth, {w: float(rng.uniform(-1, 1)) for w in all_words(k, depth)}
    )


def test_exact_invariant_pressure_equals_the_stack_walk():
    # ergodic chains charging 1..k of k = 2..4 symbols, zero transition
    # entries inside the charged set, zero initial entries and arbitrary
    # rows outside it, potentials of depth 1-3 on the full shift
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 80:
        k = int(rng.integers(2, 5))
        charged = np.flatnonzero(rng.random(k) < 0.7)
        if not len(charged):
            continue
        c = len(charged)
        Q = rng.uniform(0.05, 1.0, size=(c, c)) * (rng.random((c, c)) < 0.6)
        if not (Q.sum(axis=1) > 0).all() or not is_strongly_connected(Q > 0):
            continue
        P = rng.uniform(0.0, 1.0, size=(k, k))
        P[charged] = 0.0
        P[np.ix_(charged, charged)] = Q
        P /= P.sum(axis=1, keepdims=True)
        pi = np.zeros(k)
        pi[charged] = pl.stationary_distribution(P[np.ix_(charged, charged)])
        mu = pl.MarkovMeasure(P, pi)
        depth = int(rng.integers(1, 4))
        f = pl.LocallyConstantPotential(
            depth, {w: float(rng.uniform(-1, 1)) for w in all_words(k, depth)}
        )
        assert pl.exact_invariant_pressure(mu, f) == invariant_pressure_stack(pi, P, f)
        checked += 1


def test_invariant_pressures_of_mixed_stacks_equal_the_walk():
    # stacks mixing up to three supports, several chains on each, so both
    # shared and distinct (charged set, arc support) groups occur
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 40:
        k = int(rng.integers(2, 5))
        supports = [s for s in (_ergodic_support(rng, k) for _ in range(3)) if s is not None]
        if not supports:
            continue
        picks = rng.integers(len(supports), size=int(rng.integers(1, 10)))
        chains = [_ergodic_chain(rng, k, *supports[i]) for i in picks]
        pi, P = np.array([c[0] for c in chains]), np.array([c[1] for c in chains])
        f = _random_table_potential(rng, k, int(rng.integers(1, 4)))
        got = _invariant_pressures(pi, P, f).tolist()
        assert got == [invariant_pressure_stack(a, b, f) for a, b in chains]
        checked += 1


def test_invariant_pressure_of_a_zero_sum_is_positive_zero():
    # entropy and integral both sum to zero; a left-to-right loop from 0.0
    # returns +0.0 there, never -0.0
    mu = pl.MarkovMeasure(np.eye(2), np.array([1.0, 0.0]))
    f = pl.LocallyConstantPotential(1, {(0,): -0.0, (1,): 0.0})
    assert math.copysign(1.0, pl.exact_invariant_pressure(mu, f)) == 1.0


def test_invariant_pressure_of_a_cyclic_shift_with_a_depth_10_potential():
    # 10 charged words; a dense (10,)^10 table of word masses would not fit
    k = 10
    P = np.roll(np.eye(k), 1, axis=1)
    pi = np.full(k, 0.1)
    f = pl.LocallyConstantPotential(
        k, {tuple((a + i) % k for i in range(k)): 0.1 * a for a in range(k)}
    )
    got = pl.exact_invariant_pressure(pl.MarkovMeasure(P, pi), f)
    assert got == invariant_pressure_stack(pi, P, f)
    assert got == pytest.approx(0.45, abs=1e-14)


# three good chains on 3 symbols, none charging the block (2, 2); the bad
# member breaks invariance, ergodicity, or charges (2, 2), which f lacks
_GOOD = [
    (np.array([0.5, 0.5, 0.0]), np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])),
    (np.array([0.4, 0.4, 0.2]), np.array([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0]])),
    (np.array([1.0, 0.0, 0.0]), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])),
]
_BAD = {
    pl.NonInvariantMeasure: (np.array([0.6, 0.2, 0.2]), np.full((3, 3), 1 / 3)),
    pl.ReducibleSystem: (np.array([0.5, 0.5, 0.0]), np.eye(3)),
    pl.InadmissibleWord: (np.full(3, 1 / 3), np.full((3, 3), 1 / 3)),
}


@pytest.mark.parametrize("error", list(_BAD), ids=lambda e: e.__name__)
@pytest.mark.parametrize("position", [0, 1, 3])
def test_one_bad_member_raises_what_the_single_measure_raises(error, position):
    f = pl.LocallyConstantPotential(2, {w: 0.1 * sum(w) for w in all_words(3, 2) if w != (2, 2)})
    bad_pi, bad_P = _BAD[error]
    with pytest.raises(error) as single:
        pl.exact_invariant_pressure(pl.MarkovMeasure(bad_P, bad_pi), f)
    chains = _GOOD[:position] + [(bad_pi, bad_P)] + _GOOD[position:]
    with pytest.raises(error) as stacked:
        _invariant_pressures(np.array([c[0] for c in chains]), np.array([c[1] for c in chains]), f)
    assert str(stacked.value) == str(single.value)
    good = _invariant_pressures(np.array([c[0] for c in _GOOD]), np.array([c[1] for c in _GOOD]), f)
    assert good.tolist() == [invariant_pressure_stack(a, b, f) for a, b in _GOOD]


def test_markov_checks_run_once_per_measure_and_once_per_stack(monkeypatch):
    # a MarkovMeasure is checked when it is made, so pricing it checks nothing
    # again; a stack is checked once as a whole
    import pressurelab.measure as measure
    import pressurelab.transfer as transfer

    calls, check = [], transfer._check_markov

    def counted(P, pi, ndim):
        calls.append(ndim)
        check(P, pi, ndim)

    monkeypatch.setattr(transfer, "_check_markov", counted)
    monkeypatch.setattr(measure, "_check_markov", counted)
    mu = pl.bernoulli_measure([0.3, 0.7])
    assert calls == [2]
    entropy = -0.3 * math.log(0.3) - 0.7 * math.log(0.7)
    assert pl.exact_invariant_pressure(mu, F0) == pytest.approx(entropy)
    assert calls == [2]
    _invariant_pressures(np.stack([mu.initial] * 3), np.stack([mu.transition] * 3), F0)
    assert calls == [2, 3]


def test_exact_invariant_pressure_rejects_non_invariant():
    mu = pl.MarkovMeasure(
        np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.9, 0.1])
    )
    with pytest.raises(pl.NonInvariantMeasure):
        pl.exact_invariant_pressure(mu, F0)


def test_exact_invariant_pressure_rejects_reducible_support():
    # two absorbing states: invariant but not ergodic on its support
    mu = pl.MarkovMeasure(np.eye(2), np.array([0.5, 0.5]))
    with pytest.raises(pl.ReducibleSystem):
        pl.exact_invariant_pressure(mu, F0)


def test_point_mass_local_pressure_is_exactly_potential():
    mu = pl.MarkovMeasure(np.eye(2), np.array([1.0, 0.0]))
    fc = pl.potential_from_table(FULL2, 1, {(0,): 0.41, (1,): 0.0})
    x = (0,) * 64
    tr = pl.local_pressure(mu, fc, x, pl.Scale(2), [4, 16, 32])
    for _, v in tr.values:
        assert v == pytest.approx(0.41, abs=1e-12)


def test_mc_estimate_uniform_tight():
    mu = pl.bernoulli_measure([0.5, 0.5])
    est = pl.measure_pressure_mc(mu, F0, pl.Scale(2), (400, 500), samples=20, seed=3)
    assert est.excluded == 0
    assert abs(est.mean - LOG2) < 5e-3
    assert est.samples == 20


def test_mc_estimate_deterministic_and_keeps_the_first_trace():
    mu = pl.equilibrium_measure(GM, pl.zero_potential(GM))
    f = pl.zero_potential(GM)
    a = pl.measure_pressure_mc(mu, f, pl.Scale(2), (300, 400), samples=16, seed=7)
    b = pl.measure_pressure_mc(mu, f, pl.Scale(2), (300, 400), samples=16, seed=7)
    assert a.per_orbit == b.per_orbit
    assert a.mean == b.mean
    first = np.random.SeedSequence(7).generate_state(16, dtype=np.uint64).tolist()[0]
    x = pl.sample_orbit(mu, 400, pl.Scale(2), first)
    assert a.trace == pl.local_pressure(mu, f, x, pl.Scale(2), (300, 400))
    assert a.trace.liminf_estimate == a.per_orbit[0]
    # the trace goes to the CLI's CSV, never into the report
    assert set(json_ready(a)) == {"mean", "stderr", "samples", "excluded", "seed", "per_orbit"}


@pytest.mark.parametrize("mu", [
    pl.bernoulli_measure([0.3, 0.7]), pl.equilibrium_measure(GM, pl.zero_potential(GM)),
], ids=["bernoulli", "equilibrium"])
def test_json_ready_writes_a_measure_as_its_label_and_rows(mu):
    # what the serializer's former MarkovMeasure branch wrote
    written = {
        "label": mu.label,
        "initial": [float(x) for x in mu.initial],
        "transition": [[float(x) for x in row] for row in mu.transition],
    }
    assert json.dumps(json_ready(mu), sort_keys=True) == json.dumps(written, sort_keys=True)


def test_mc_estimate_seed_changes_orbits():
    mu = pl.bernoulli_measure([0.3, 0.7])
    a = pl.measure_pressure_mc(mu, F0, pl.Scale(2), (300, 400), samples=8, seed=1)
    b = pl.measure_pressure_mc(mu, F0, pl.Scale(2), (300, 400), samples=8, seed=2)
    assert a.per_orbit != b.per_orbit


def test_mc_estimate_draws_the_windows_of_a_deep_potential():
    # a depth-3 potential at m = 1 reads n_max + 2 symbols, one past the
    # ball, so each orbit is drawn that long; the longer draw extends the
    # n_max + m symbols a shallower potential sees
    mu = pl.bernoulli_measure([0.5, 0.5])
    f = pl.potential_from_table(FULL2, 3, {w: 0.1 * sum(w) - 0.2 * w[0] for w in all_words(2, 3)})
    est = pl.measure_pressure_mc(mu, f, pl.Scale(1), (50, 60), 3, 0)
    seeds = np.random.SeedSequence(0).generate_state(3, dtype=np.uint64).tolist()
    orbits = [pl.sample_orbit(mu, 61, pl.Scale(1), s) for s in seeds]
    assert est.excluded == 0
    assert est.per_orbit == tuple(
        pl.local_pressure(mu, f, x, pl.Scale(1), (50, 60)).liminf_estimate for x in orbits
    )
    for s, x in zip(seeds, orbits):
        assert x.word[:61] == pl.sample_orbit(mu, 60, pl.Scale(1), s).word


def test_a_window_and_its_explicit_horizons_give_equal_traces():
    # a window is expanded without the pairwise check that an explicit list
    # gets; both spellings must trace alike, and a list that does not
    # strictly increase must still be refused
    mu = pl.markov_measure([[0.3, 0.7], [0.6, 0.4]])
    f = pl.potential_from_table(FULL2, 2, {w: 0.2 * w[0] - 0.1 * w[1] for w in all_words(2, 2)})
    window, horizons = (40, 90), tuple(range(40, 91))
    x = pl.sample_orbit(mu, 90, pl.Scale(2), 5)
    assert pl.local_pressure(mu, f, x, pl.Scale(2), window) == pl.local_pressure(
        mu, f, x, pl.Scale(2), horizons
    )
    assert pl.measure_pressure_mc(mu, f, pl.Scale(1), window, 4, 3) == pl.measure_pressure_mc(
        mu, f, pl.Scale(1), list(horizons), 4, 3
    )
    for bad in ((5, 5), (40, 60, 59, 70), (3, 2, 1)):
        with pytest.raises(ValueError, match="strictly increasing"):
            pl.local_pressure(mu, f, x, pl.Scale(2), bad)
        with pytest.raises(ValueError, match="strictly increasing"):
            pl.measure_pressure_mc(mu, f, pl.Scale(1), bad, 2, 0)
    with pytest.raises(ValueError, match="strictly increasing"):
        pl.capacity_pressure(FULL2, pl.whole(), f, pl.Scale(1), (4, 5, 5, 6))


@pytest.mark.parametrize("c", [1e308, -1e308])
def test_mc_names_birkhoff_sums_past_the_float_range(c):
    # every ball has positive measure; f_n leaves the float range at n = 2
    mu = pl.bernoulli_measure([0.5, 0.5])
    with pytest.raises(RuntimeError, match="f_n leaves the float range"):
        pl.measure_pressure_mc(mu, pl.constant_potential(FULL2, c), pl.Scale(1), (20, 40), 3, seed=0)
