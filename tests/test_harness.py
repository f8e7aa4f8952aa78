import math
from dataclasses import replace

import numpy as np
import pytest

import pressurelab as pl
import pressurelab.harness as harness
import pressurelab.symbolic as symbolic
from brute import (
    dirichlet_chain,
    dirichlet_grid_walk,
    frequency_family_walk,
    random_sub_relation,
    tarjan_components,
    trim_forward_loop,
    worst_log_ratio,
    worst_log_ratios_walk,
)
from pressurelab.harness import (
    _STACK,
    _dirichlet_markov,
    _embed_measure,
    _invariant_core,
    _worst_log_ratios,
)
from pressurelab.symbolic import is_strongly_connected
from pressurelab.transfer import MarkovMeasure, _solve

FULL2 = pl.full_shift(2)
GM = pl.golden_mean_shift()
F0 = pl.zero_potential(FULL2)
F10 = pl.potential_from_table(FULL2, 1, {(0,): 1.0, (1,): 0.0})
F00 = pl.potential_from_table(FULL2, 2, {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0})
LOG_PHI = math.log((1 + math.sqrt(5)) / 2)

GM_INSIDE = pl.sub_sft(((True, True), (True, False)))
FIXED0 = pl.sub_sft(((True, False), (False, False)))
FIXED1 = pl.sub_sft(((False, False), (False, True)))
REDUCIBLE_HOST = pl.Subshift(2, ((True, True), (False, True)))  # 0 -> 1, never back


def H(p):
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def test_variational_whole_space_weighted_potential():
    rep = pl.verify_variational(FULL2, pl.whole(), F10, pl.Scale(1), 3, 16, tol=5e-3, seed=11)
    assert rep.passed
    assert abs(rep.gap) <= 5e-3
    assert rep.argmax_is_equilibrium
    assert rep.p_bowen.midpoint == pytest.approx(math.log(math.e + 1), abs=5e-3)
    assert rep.measure_sup == pytest.approx(math.log(math.e + 1), abs=1e-9)
    assert rep.grid_size >= 200


def test_variational_sub_shift_target():
    rep = pl.verify_variational(FULL2, GM_INSIDE, F0, pl.Scale(1), 3, 18, tol=1e-2, seed=11)
    assert rep.passed
    assert rep.measure_sup == pytest.approx(LOG_PHI, abs=1e-9)
    assert abs(rep.gap) <= 1e-2
    assert rep.argmax_is_equilibrium


def test_variational_fixed_point_exact():
    fc = pl.potential_from_table(FULL2, 1, {(0,): 0.3, (1,): 0.0})
    rep = pl.verify_variational(FULL2, FIXED0, fc, pl.Scale(1), 3, 20, tol=1e-4, seed=11)
    assert rep.passed
    assert rep.measure_sup == pytest.approx(0.3, abs=1e-12)
    assert abs(rep.gap) <= 1e-4
    assert rep.argmax_is_equilibrium


def test_variational_lower_bound_flag():
    rep = pl.verify_variational(FULL2, pl.whole(), F0, pl.Scale(1), 3, 16, tol=5e-3, seed=2)
    assert rep.lower_bound_ok
    assert rep.measure_sup <= rep.p_bowen.s_high + 5e-3


def test_variational_frequency_band_compares_only():
    # measure_grid and seed drive the compact grid only: the band's reference
    # is the band entropy maximum H(0.32), whatever they are
    spec = pl.frequency_level(0, 0.3, 0.02)
    reps = [pl.verify_variational(FULL2, spec, F0, pl.Scale(1), 3, 20, tol=5e-2, measure_grid=g, seed=s)
            for g, s in ((60, 4), (2, 9))]
    for rep in reps:
        assert rep.mode == "compare_only"
        assert rep.passed
        assert rep.measure_sup == pytest.approx(H(0.32), abs=1e-12)
    assert reps[0].witness == reps[1].witness


def test_variational_rejects_union_targets():
    with pytest.raises(ValueError):
        pl.verify_variational(FULL2, pl.finite_union(FIXED0, FIXED1), F0, pl.Scale(1), 3, 12, tol=1e-3)


def test_unions_disjoint_fixed_points():
    rep = pl.verify_unions(FULL2, (FIXED0, FIXED1), F0, pl.Scale(1), 3, 120, tol=5e-3)
    assert rep.passed
    assert max(p.midpoint for p in rep.component_pressures) == pytest.approx(0.0, abs=5e-3)
    assert abs(rep.gap) <= 1e-2


def test_unions_golden_mean_dominates_fixed_point():
    rep = pl.verify_unions(FULL2, (GM_INSIDE, FIXED1), F0, pl.Scale(1), 3, 16, tol=1e-3)
    assert rep.passed
    assert rep.union_pressure.midpoint == pytest.approx(LOG_PHI, abs=5e-3)


def test_unions_nested_components_gap_zero():
    full_rel = pl.sub_sft(((True, True), (True, True)))
    rep = pl.verify_unions(FULL2, (GM_INSIDE, full_rel), F0, pl.Scale(1), 3, 16, tol=1e-3)
    assert rep.passed
    assert rep.gap == 0.0
    assert rep.union_pressure.midpoint == pytest.approx(math.log(2), abs=5e-3)


def test_unions_reject_duplicate_components():
    with pytest.raises(ValueError):
        pl.verify_unions(FULL2, (FIXED0, FIXED0), F0, pl.Scale(1), 3, 12)


def test_unions_reject_components_that_differ_only_by_label():
    with pytest.raises(ValueError, match="distinct"):
        pl.verify_unions(FULL2, (FIXED0, replace(FIXED0, label="again")), F0, pl.Scale(1), 3, 12)


def test_unions_equal_pressure_finite_depth_offset():
    # components with identical pressure double the union's cover cost, so
    # the union crossing sits about log(2)/L above the component crossing;
    # at shallow depth that exceeds a tight tolerance and the check reports
    # failure honestly
    mirror = pl.sub_sft(((False, True), (True, True)))
    rep = pl.verify_unions(FULL2, (GM_INSIDE, mirror), F0, pl.Scale(1), 3, 16, tol=1e-3)
    assert not rep.passed
    assert rep.gap > 2e-3
    assert rep.gap == pytest.approx(math.log(2) / 16, abs=2e-2)


def test_gibbs_bound_full_shift():
    rep = pl.verify_gibbs_bound(FULL2, pl.whole(), F0, pl.Scale(1), 3, 24)
    assert rep.passed
    assert not rep.control["bounded"]
    for row in rep.rows:
        assert row["bounded"]
        assert row["s"] < rep.pressure.midpoint


def test_gibbs_bound_weighted_potential():
    rep = pl.verify_gibbs_bound(FULL2, pl.whole(), F10, pl.Scale(1), 3, 24)
    assert rep.passed


def test_gibbs_bound_golden_mean():
    rep = pl.verify_gibbs_bound(GM, pl.whole(), pl.zero_potential(GM), pl.Scale(1), 3, 24)
    assert rep.passed
    # the beta = 0.1 row sits near exponent 0.38
    ss = sorted(row["s"] for row in rep.rows)
    assert ss[0] == pytest.approx(LOG_PHI - 0.1, abs=5e-3)


def test_gibbs_ratio_pass_matches_brute_force_every_horizon():
    # random irreducible sub-SFTs, depth-1/2 potentials, m = 1..3; the
    # equilibrium measure, or a chain started from symbol 0 alone so that
    # some cylinders have measure zero
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 30:
        k = int(rng.integers(2, 4))
        rel = random_sub_relation(rng, pl.full_shift(k).allowed)
        if not is_strongly_connected(rel):
            continue
        sub = pl.Subshift(k, rel)
        depth = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        table = {w: float(rng.uniform(-0.6, 0.6)) for w in pl.enumerate_words(sub, depth)}
        f = pl.potential_from_table(sub, depth, table)
        mu = pl.equilibrium_measure(sub, f)
        if checked % 2:
            mu = MarkovMeasure(mu.transition, np.eye(k)[0])
        ns = list(range(1, 9 - m))
        got = _worst_log_ratios(sub, mu, f, ns, pl.Scale(m))
        assert len(got) == len(ns)
        for n, value in zip(ns, got):
            want = worst_log_ratio(rel, mu.initial, mu.transition, table, depth, n, m)
            assert value == pytest.approx(want, rel=1e-12, abs=1e-12)
        checked += 1


def _random_host(rng, k):
    """A random subshift on k symbols, often reducible."""
    while True:
        rel = rng.random((k, k)) < 0.5
        try:
            return pl.Subshift(k, tuple(tuple(bool(x) for x in row) for row in rel))
        except ValueError:
            continue


def _sparse_stochastic(rng, k, zeros):
    """A random row-stochastic k x k matrix with entries zeroed where
    ``zeros`` holds, every row keeping at least one positive entry."""
    P = rng.uniform(0.05, 1.0, size=(k, k)) * ~zeros
    for a in np.flatnonzero(P.sum(axis=1) == 0):
        P[a, rng.integers(k)] = 1.0
    return P / P.sum(axis=1, keepdims=True)


def test_gibbs_ratio_pass_equals_the_pair_walk():
    # k = 2..4, reducible hosts, depth 1-2, m up to 3, zero transition
    # entries on and off the arcs and zero initial entries: the array pass
    # must equal the retired symbol-by-symbol walk exactly
    rng = np.random.default_rng(41)
    for trial in range(120):
        k = int(rng.integers(2, 5))
        sub = _random_host(rng, k)
        depth = int(rng.integers(1, 3))
        m = int(rng.integers(depth - 1, 4))
        table = {w: float(rng.uniform(-0.8, 0.8)) for w in pl.enumerate_words(sub, depth)}
        f = pl.potential_from_table(sub, depth, table)
        P = _sparse_stochastic(rng, k, rng.random((k, k)) < 0.3)
        pi = rng.uniform(0.0, 1.0, size=k) * (rng.random(k) < 0.7)
        pi = np.eye(k)[trial % k] if pi.sum() == 0 else pi / pi.sum()
        mu = MarkovMeasure(P, pi)
        ns = list(range(int(rng.integers(1, 4)), int(rng.integers(5, 12))))
        got = _worst_log_ratios(sub, mu, f, ns, pl.Scale(m))
        assert got == worst_log_ratios_walk(sub.successors, pi, P, f, ns, m)


def _untrimmed_core(relation, f):
    """(symbols, pressure, equilibrium) of the top recurrent component of a
    relation as it stands, its transient symbols kept, components by Tarjan."""
    best = None
    for comp in tarjan_components(relation):
        if len(comp) == 1 and not relation[comp[0]][comp[0]]:
            continue
        sub = pl.Subshift(len(comp), tuple(tuple(relation[a][b] for b in comp) for a in comp))
        table = {w: f.value(tuple(comp[i] for i in w)) for w in pl.enumerate_words(sub, f.depth)}
        pressure, equilibrium = _solve(sub, pl.potential_from_table(sub, f.depth, table))
        if best is None or pressure.value > best[1].value:
            best = (comp, pressure, equilibrium)
    return best


def test_invariant_core_is_blind_to_transient_symbols():
    # the core is read from the compiled (trimmed) sub-relation; on relations
    # the trim changes, the untrimmed relation gives the same core symbols,
    # pressure and equilibrium rows, bit for bit
    rng = np.random.default_rng(2306)
    checked = 0
    while checked < 60:
        k = int(rng.integers(2, 6))
        host = _random_host(rng, k)
        rel = tuple(tuple(bool(ok and rng.random() < 0.5) for ok in row) for row in host.allowed)
        f = harness._random_potential(host, rng, depth_cap=2, amplitude=0.8)
        want = _untrimmed_core(rel, f)
        if trim_forward_loop(rel) == rel or want is None:
            continue
        _, symbols, _, spectral, equilibrium = _invariant_core(host, pl.sub_sft(rel), f)
        assert (symbols, spectral.value) == (want[0], want[1].value)
        mu, nu = equilibrium(), want[2]()
        assert (mu.transition.tobytes(), mu.initial.tobytes()) == (
            nu.transition.tobytes(), nu.initial.tobytes())
        checked += 1


def test_core_measure_pressure_equals_its_host_embedding():
    # the core relabels host symbols in increasing order, so a core measure
    # sums the same terms in the same order as its embedding on the host
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 60:
        k = int(rng.integers(2, 5))
        host = _random_host(rng, k)
        depth = int(rng.integers(1, 3))
        table = {w: float(rng.uniform(-0.8, 0.8)) for w in pl.enumerate_words(host, depth)}
        f = pl.potential_from_table(host, depth, table)
        spec = pl.whole() if checked % 2 else pl.sub_sft(random_sub_relation(rng, host.allowed))
        try:
            sub, symbols, f_sub, _, _ = _invariant_core(host, spec, f)
        except pl.EmptyTarget:
            continue
        grid = pl.markov_measure(_dirichlet_markov(sub, rng, 1)[0])
        for mu in (pl.equilibrium_measure(sub, f_sub), grid):
            on_host = pl.exact_invariant_pressure(_embed_measure(mu, symbols, k), f)
            assert pl.exact_invariant_pressure(mu, f_sub) == on_host
        checked += 1


GRID_SIZES = (2, 7, _STACK - 1, _STACK + 1, 3 * _STACK + 1)


def test_variational_grid_equals_the_per_measure_walk(monkeypatch):
    # random cores (k = 2..4, depth 1-2), one seed each, every grid size:
    # the stacks verify_variational prices hold the values of the retired
    # one-measure-at-a-time walk, in draw order
    priced, price = [], harness._invariant_pressures

    def recording(pi, P, f):
        values = price(pi, P, f)
        priced.extend(values.tolist())
        return values

    monkeypatch.setattr(harness, "_invariant_pressures", recording)
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 2 * len(GRID_SIZES):
        k = int(rng.integers(2, 5))
        host = _random_host(rng, k)
        depth = int(rng.integers(1, 3))
        table = {w: float(rng.uniform(-0.8, 0.8)) for w in pl.enumerate_words(host, depth)}
        f = pl.potential_from_table(host, depth, table)
        spec = pl.whole() if checked % 2 else pl.sub_sft(random_sub_relation(rng, host.allowed))
        try:
            sub, _, f_sub, _, _ = _invariant_core(host, spec, f)
        except pl.EmptyTarget:
            continue
        grid, seed = GRID_SIZES[checked % len(GRID_SIZES)], int(rng.integers(2 ** 32))
        priced.clear()
        rep = pl.verify_variational(
            host, spec, f, pl.Scale(1), 1, 4, tol=1.0, measure_grid=grid, seed=seed
        )
        want = dirichlet_grid_walk(sub.successors, np.random.default_rng(seed), f_sub, grid)
        assert priced == want
        assert rep.grid_size == grid
        assert rep.argmax_is_equilibrium == (rep.equilibrium_value >= max(want) - 1e-9)
        checked += 1


def _stack_cases():
    """Irreducible relations: the 1-shift, a 3-cycle (every row of degree
    1), the full 10-shift and random relations on 2..6 and 9..10 symbols.
    Rows of 9 or more entries are where numpy's pairwise summation leaves
    the left-to-right order."""
    rng = np.random.default_rng(59)
    cases = [pl.full_shift(1), pl.full_shift(10),
             pl.Subshift(3, tuple(tuple(b == (a + 1) % 3 for b in range(3)) for a in range(3)))]
    while len(cases) < 16:
        k = int(rng.choice([2, 3, 4, 5, 6, 9, 10]))
        rel = random_sub_relation(rng, pl.full_shift(k).allowed)
        if is_strongly_connected(rel):
            cases.append(pl.Subshift(k, rel))
    return cases


def test_grid_stack_equals_the_per_row_dirichlet_draws():
    # one exponential draw per stack, rows scaled by the reciprocal of their
    # left-to-right sum: the same bits as one dirichlet call per row, and the
    # generator ends where the per-row calls leave it
    cases = _stack_cases()
    degrees = {len(succ) for sub in cases for succ in sub.successors}
    assert 1 in degrees and max(degrees) >= 9
    for trial, sub in enumerate(cases):
        runs = [(count,) for count in (1, 2, 255, 256)] + [(3, 255, 2)]
        for counts in runs:
            seed = 1000 * trial + sum(counts)
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for count in counts:
                got = _dirichlet_markov(sub, got_rng, count)
                want = np.array([dirichlet_chain(sub.successors, want_rng)[1]
                                 for _ in range(count)])
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (sub.allowed, counts)
            assert got_rng.random() == want_rng.random()


def test_one_word_walk_per_core(monkeypatch):
    # verify variational and verify gibbs walk the core's words once: the
    # restricted potential is built from that walk's table, and the ratio
    # pass reads its windows from the potential
    f = pl.potential_from_table(GM, 2, {(0, 0): 0.3, (0, 1): -0.2, (1, 0): 0.1})
    walks = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            walks.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "enumerate_words", counted("enumerate_words", harness.enumerate_words))
    monkeypatch.setattr(symbolic, "enumerate_words", counted("enumerate_words", symbolic.enumerate_words))
    monkeypatch.setattr(symbolic, "potential_from_table",
                        counted("potential_from_table", symbolic.potential_from_table))
    rep = pl.verify_variational(GM, pl.whole(), f, pl.Scale(1), 1, 6, tol=1.0, measure_grid=5)
    assert rep.passed and walks == ["enumerate_words"]
    walks.clear()
    pl.verify_gibbs_bound(GM, pl.whole(), f, pl.Scale(1), 1, 12)
    assert walks == ["enumerate_words"]


def test_core_potential_equals_the_checked_table():
    # the unchecked potentials of the core and of the random suites hold
    # what potential_from_table builds from the same words
    rng = np.random.default_rng(61)
    checked = 0
    while checked < 40:
        k = int(rng.integers(1, 5))
        host = _random_host(rng, k)
        f = harness._random_potential(host, rng, depth_cap=2, amplitude=0.8)
        want = pl.potential_from_table(host, f.depth, f.table, label=f.label)
        assert list(f.table.items()) == list(want.table.items())
        spec = pl.whole() if checked % 2 else pl.sub_sft(random_sub_relation(rng, host.allowed))
        try:
            sub, symbols, f_sub, _, _ = _invariant_core(host, spec, f)
        except pl.EmptyTarget:
            continue
        table = {w: f.value(tuple(symbols[i] for i in w)) for w in pl.enumerate_words(sub, f.depth)}
        want = pl.potential_from_table(sub, f.depth, table, label=f.label)
        assert (f_sub.depth, list(f_sub.table.items()), f_sub.label) == (
            want.depth, list(want.table.items()), want.label)
        checked += 1


def _irreducible_host(rng, k):
    """A random strongly connected subshift on k symbols, never the full shift."""
    while True:
        rel = random_sub_relation(rng, pl.full_shift(k).allowed)
        if is_strongly_connected(rel) and not all(all(row) for row in rel):
            return pl.Subshift(k, rel)


def _tilted(host, f, symbol, t):
    table = {w: v + t * (w[0] == symbol) for w, v in f.table.items()}
    return pl.potential_from_table(host, f.depth, table)


def test_band_reference_tops_the_frequency_family_oracle():
    # brute.frequency_family_walk (a Bernoulli sweep on full shifts, rejection
    # sampled Dirichlet chains elsewhere) on random irreducible hosts
    # (k = 2..4, depth 1-2): the reference is at least every family value,
    # its witness's frequency is alpha0 (t = 0) or the band edge nearest it,
    # it equals the Legendre transform P(f + t 1_a) - t freq there, and it is
    # EmptyTarget only where the family is empty
    rng = np.random.default_rng(53)
    outcomes = set()
    for trial in range(48):
        k = int(rng.integers(2, 5))
        host = pl.full_shift(k) if trial % 2 == 0 else _irreducible_host(rng, k)
        depth = int(rng.integers(1, 3))
        table = {w: float(rng.uniform(-0.8, 0.8)) for w in pl.enumerate_words(host, depth)}
        f = pl.potential_from_table(host, depth, table)
        symbol, target = int(rng.integers(k)), float(rng.uniform(0.0, 1.0))
        window = float(rng.choice([0.002, 0.02, 0.3]))
        lo, hi = target - window, target + window
        family, _ = frequency_family_walk(
            host.allowed, symbol, target, window, f, 40, np.random.default_rng(trial)
        )
        try:
            value, witness = harness._band_reference(host, pl.frequency_level(symbol, target, window), f)
        except pl.EmptyTarget:
            assert not family
            outcomes.add("empty")
            continue
        assert value >= max(family, default=-math.inf) - 1e-12
        t, freq = witness["tilt"], witness["initial"][symbol]
        alpha0 = pl.equilibrium_measure(host, f).initial[symbol]
        if t == 0.0:
            assert lo <= alpha0 <= hi
            assert value == pytest.approx(pl.spectral_pressure(pl.build_transfer_matrix(host, f)).value, abs=1e-12)
        else:
            assert freq == pytest.approx(lo if alpha0 < lo else hi, abs=1e-9)
            assert (t > 0) == (alpha0 < lo)
        pressure = pl.spectral_pressure(pl.build_transfer_matrix(host, _tilted(host, f, symbol, t))).value
        assert value == pytest.approx(pressure - t * freq, abs=1e-9)
        outcomes.add("inside" if t == 0.0 else "edge")
    assert outcomes == {"inside", "edge", "empty"}


@pytest.mark.parametrize("host, f, symbol, want, within", [
    (FULL2, F0, 0, H(0.32), 1e-12),
    (FULL2, F00, 0, 0.753587, 5e-7),  # to the six digits printed
    (GM, pl.zero_potential(GM), 1, 0.481139, 5e-7),
])
def test_band_reference_rows(host, f, symbol, want, within):
    # band 0.3 +- 0.02, N = 3, m = 1: the limit Lambda at the band edge
    # nearest the equilibrium frequency (0.32 on the full shift, 0.28 on the
    # golden mean), which the cover pressure approaches from below
    rep = pl.verify_variational(host, pl.frequency_level(symbol, 0.3, 0.02), f, pl.Scale(1), 3, 20, tol=5e-2)
    assert (rep.mode, rep.passed, rep.grid_size) == ("compare_only", True, 0)
    assert abs(rep.measure_sup - want) <= within
    assert rep.p_bowen.s_high <= rep.measure_sup


def test_band_reference_inside_the_band_and_at_the_extreme():
    # a band holding alpha0 = 0.5 is P(f) = log 2 itself; on the golden mean
    # the edge 0.5 is the extreme frequency of 1, met only as t -> infinity,
    # and the search still ends, at Lambda(0.5) = 0 (the orbit of 01)
    inside = pl.verify_variational(FULL2, pl.frequency_level(0, 0.5, 0.02), F0, pl.Scale(1), 3, 12, tol=5e-2)
    assert inside.measure_sup == pytest.approx(math.log(2), abs=1e-12)
    assert inside.witness["tilt"] == 0.0
    gm = pl.zero_potential(GM)
    edge = pl.verify_variational(GM, pl.frequency_level(1, 0.55, 0.05), gm, pl.Scale(1), 3, 12, tol=5e-2)
    assert edge.measure_sup == pytest.approx(0.0, abs=1e-12)
    assert edge.witness["tilt"] > 0 and edge.witness["initial"] == [0.5, 0.5]


def test_band_reference_out_of_reach_and_unsupported_inputs():
    # past the host's extreme frequency (1/2 for symbol 1 on the golden mean)
    # is EmptyTarget here and through verify_variational, as on the 1-shift,
    # whose only frequency is 1; a reducible host has no Perron solve, and a
    # depth-3 potential no transfer matrix
    gm = pl.zero_potential(GM)
    for band in (pl.frequency_level(1, 0.65, 0.05), pl.frequency_level(1, 0.8, 0.1)):
        with pytest.raises(pl.EmptyTarget):
            harness._band_reference(GM, band, gm)
    with pytest.raises(pl.EmptyTarget):
        pl.verify_variational(GM, pl.frequency_level(1, 0.8, 0.1), gm, pl.Scale(1), 3, 20, tol=5e-2)
    one = pl.full_shift(1)
    with pytest.raises(pl.EmptyTarget):
        harness._band_reference(one, pl.frequency_level(0, 0.5, 0.1), pl.zero_potential(one))
    with pytest.raises(pl.EmptyTarget):
        pl.verify_variational(one, pl.frequency_level(0, 0.5, 0.1), pl.zero_potential(one), pl.Scale(1), 3, 20, tol=5e-2)
    with pytest.raises(pl.ReducibleSystem):
        pl.verify_variational(REDUCIBLE_HOST, pl.frequency_level(0, 0.5, 0.5),
                              pl.zero_potential(REDUCIBLE_HOST), pl.Scale(1), 3, 12, tol=5e-2)
    f3 = pl.potential_from_table(FULL2, 3, {w: 0.0 for w in pl.enumerate_words(FULL2, 3)})
    with pytest.raises(ValueError, match="depth <= 2"):
        pl.verify_variational(FULL2, pl.frequency_level(0, 0.3, 0.02), f3, pl.Scale(2), 3, 20, tol=5e-2)


def test_gibbs_ratio_pass_rejects_undetermined_sums():
    f2 = pl.potential_from_table(FULL2, 2, {w: 0.0 for w in pl.enumerate_words(FULL2, 2)})
    mu = pl.equilibrium_measure(FULL2, f2)
    with pytest.raises(ValueError, match="exceeds m"):
        _worst_log_ratios(FULL2, mu, f2, [1, 2], pl.Scale(0))


def test_property_suite_random_trials_green():
    rep = pl.property_suite(seed=2, trials=40)
    assert rep.passed
    assert rep.trials == 40
    assert all(not v for v in rep.failures.values())


def test_property_suite_reports_exactly_its_six_checks():
    rep = pl.property_suite(seed=3, trials=1)
    assert set(rep.failures) == {
        "partition_monotone", "scale_monotone", "cover_monotone",
        "union_partition_bounds", "union_bracket", "bowen_below_capacity",
    }


def test_property_suite_deterministic():
    a = pl.property_suite(seed=8, trials=10)
    b = pl.property_suite(seed=8, trials=10)
    assert a.failures == b.failures


def test_random_invariant_agreement_small_run():
    rep = pl.random_invariant_agreement(seed=1, trials=6)
    assert rep.passed
    assert rep.max_abs_gap <= 2e-2
    assert len(rep.rows) == 6
