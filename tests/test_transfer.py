import math
import time

import numpy as np
import pytest

import pressurelab as pl
from brute import (
    gibbs_ratio_bounds,
    markov_entropy,
    perron_power_iteration,
    spectral_log_radius,
    transfer_weights,
)
from pressurelab.cli import run
from pressurelab.symbolic import is_strongly_connected
from pressurelab.transfer import _SUM_TOL

FULL2 = pl.full_shift(2)
GM = pl.golden_mean_shift()
F0 = pl.zero_potential(FULL2)
F10 = pl.potential_from_table(FULL2, 1, {(0,): 1.0, (1,): 0.0})
LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


def test_transfer_matrix_zero_potential_is_adjacency():
    assert np.allclose(pl.build_transfer_matrix(FULL2, F0).entries, np.ones((2, 2)))
    assert np.allclose(
        pl.build_transfer_matrix(GM, pl.zero_potential(GM)).entries,
        np.array([[1.0, 1.0], [1.0, 0.0]]),
    )


def test_transfer_matrix_weights_rows_by_source_symbol():
    e = math.e
    assert np.allclose(
        pl.build_transfer_matrix(FULL2, F10).entries,
        np.array([[e, e], [1.0, 1.0]]),
    )


def test_spectral_pressure_full_shift():
    got = pl.spectral_pressure(pl.build_transfer_matrix(FULL2, F0))
    assert got.value == pytest.approx(math.log(2), abs=1e-12)


def test_spectral_pressure_golden_mean_against_eigensolver():
    tm = pl.build_transfer_matrix(GM, pl.zero_potential(GM))
    got = pl.spectral_pressure(tm)
    assert got.value == pytest.approx(spectral_log_radius(tm.entries), abs=1e-10)
    assert got.value == pytest.approx(LOG_PHI, abs=1e-12)


def test_spectral_pressure_weighted_full_shift():
    got = pl.spectral_pressure(pl.build_transfer_matrix(FULL2, F10))
    assert got.value == pytest.approx(math.log(math.e + 1), abs=1e-12)
    # growth-rate cross-check: total weight of depth-n words is (e+1)^n
    for n in range(1, 9):
        total = sum(
            math.exp(pl.birkhoff_sum(F10, w, n))
            for w in pl.enumerate_words(FULL2, n)
        )
        assert total == pytest.approx((math.e + 1) ** n, rel=1e-12)


def test_spectral_pressure_random_matrices_against_eigensolver():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        M = rng.uniform(0.2, 2.0, size=(k, k))
        tm = pl.TransferMatrix(entries=M, label="random")
        got = pl.spectral_pressure(tm, tol=1e-10)
        assert got.value == pytest.approx(spectral_log_radius(M), abs=1e-9)


def test_equilibrium_measure_zero_potential_is_uniform():
    mu = pl.equilibrium_measure(FULL2, F0)
    assert np.allclose(mu.transition, 0.5 * np.ones((2, 2)), atol=1e-12)
    assert np.allclose(mu.initial, [0.5, 0.5], atol=1e-12)


def test_equilibrium_measure_weighted_full_shift_is_bernoulli():
    mu = pl.equilibrium_measure(FULL2, F10)
    p = math.e / (math.e + 1)
    assert np.allclose(mu.transition, [[p, 1 - p], [p, 1 - p]], atol=1e-10)
    assert np.allclose(mu.initial, [p, 1 - p], atol=1e-10)
    # independent check: p maximizes h(p) + p over a fine grid
    grid = np.linspace(0.01, 0.99, 981)
    vals = -grid * np.log(grid) - (1 - grid) * np.log(1 - grid) + grid
    assert abs(grid[np.argmax(vals)] - p) < 2e-3
    assert np.max(vals) <= math.log(math.e + 1) + 1e-12


def test_equilibrium_measure_golden_mean_entropy():
    mu = pl.equilibrium_measure(GM, pl.zero_potential(GM))
    assert mu.invariance_defect() <= 1e-12
    h = markov_entropy(mu.transition, mu.initial)
    assert h == pytest.approx(LOG_PHI, abs=1e-10)
    # support matches the transition structure
    assert mu.transition[1, 1] == 0.0


def test_stationary_distribution_against_eigensolver():
    rng = np.random.default_rng(3)
    for _ in range(10):
        P = rng.uniform(0.1, 1.0, size=(3, 3))
        P /= P.sum(axis=1, keepdims=True)
        pi = pl.stationary_distribution(P)
        assert np.allclose(pi @ P, pi, atol=1e-10)
        vals, vecs = np.linalg.eig(P.T)
        lead = np.real(vecs[:, np.argmax(np.real(vals))])
        lead = lead / lead.sum()
        assert np.allclose(pi, lead, atol=1e-8)


def _ratio_bounds(mu, sft, f, P, max_len):
    return gibbs_ratio_bounds(
        sft.allowed, mu.initial, mu.transition, f.table, f.depth, P.value, max_len
    )


def test_gibbs_ratios_uniform_measure_are_one():
    P = pl.spectral_pressure(pl.build_transfer_matrix(FULL2, F0))
    lo, hi = _ratio_bounds(pl.equilibrium_measure(FULL2, F0), FULL2, F0, P, 8)
    assert lo == pytest.approx(1.0, abs=1e-10)
    assert hi == pytest.approx(1.0, abs=1e-10)


def test_gibbs_ratios_weighted_equilibrium_constant():
    P = pl.spectral_pressure(pl.build_transfer_matrix(FULL2, F10))
    mu = pl.equilibrium_measure(FULL2, F10)
    lo, hi = _ratio_bounds(mu, FULL2, F10, P, 12)
    assert hi - lo <= 1e-10
    assert lo > 0


def test_gibbs_ratios_golden_mean_stable_bounds():
    f = pl.zero_potential(GM)
    P = pl.spectral_pressure(pl.build_transfer_matrix(GM, f))
    mu = pl.equilibrium_measure(GM, f)
    lo8, hi8 = _ratio_bounds(mu, GM, f, P, 8)
    lo12, hi12 = _ratio_bounds(mu, GM, f, P, 12)
    assert 0 < lo12 <= hi12 < math.inf
    # widening the word range can only widen the bounds, and not by much
    assert lo12 <= lo8 + 1e-12
    assert hi12 >= hi8 - 1e-12
    assert hi12 - lo12 <= (hi8 - lo8) + 0.1


def test_transfer_weights_oracle_agrees_with_library():
    rng = np.random.default_rng(11)
    for _ in range(10):
        table = {
            (a, b): float(rng.uniform(-1, 1))
            for a in range(2)
            for b in range(2)
            if GM.allowed[a][b]
        }
        f = pl.potential_from_table(GM, 2, table)
        tm = pl.build_transfer_matrix(GM, f)
        assert np.allclose(tm.entries, transfer_weights(GM.allowed, table, 2))
        got = pl.spectral_pressure(tm, tol=1e-10)
        assert got.value == pytest.approx(
            spectral_log_radius(tm.entries), abs=1e-9
        )


def test_bernoulli_and_markov_constructors_validate():
    with pytest.raises(ValueError):
        pl.markov_measure([[0.5, 0.6], [0.5, 0.5]])
    mu = pl.markov_measure([[0.9, 0.1], [0.4, 0.6]])
    assert mu.invariance_defect() <= 1e-12
    ber = pl.bernoulli_measure([0.3, 0.7])
    assert np.allclose(ber.transition, [[0.3, 0.7], [0.3, 0.7]])


def test_bernoulli_label_names_plain_floats():
    # numpy 2 would spell each rounded numpy float as np.float64(...)
    assert pl.bernoulli_measure([0.5, 0.5]).label == "bernoulli(0.5, 0.5)"
    assert pl.bernoulli_measure([1 / 3, 2 / 3]).label == "bernoulli(0.333333, 0.666667)"
    assert pl.bernoulli_measure(np.array([1.0])).label == "bernoulli(1.0,)"
    assert pl.bernoulli_measure([0.5, 0.5], label="fair").label == "fair"


def test_markov_measure_rejects_nan_probabilities():
    # NaN fails every < and > check, so it needs its own
    with pytest.raises(ValueError, match="finite"):
        pl.MarkovMeasure(np.array([[math.nan, math.nan], [0.5, 0.5]]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="finite"):
        pl.MarkovMeasure(np.full((2, 2), 0.5), np.array([math.nan, 1.0]))


# ---------------------------------------------------------------------------
# the log-space Perron solve at tilts where exp(f) is extreme


def _golden_tilt(t):
    """Golden mean with f(0) = 0, f(1) = t, and its closed-form pressure
    log((1 + sqrt(1 + 4 e^t)) / 2), written so no term overflows."""
    f = pl.potential_from_table(GM, 1, {(0,): 0.0, (1,): float(t)})
    if t < 0:
        return f, math.log((1 + math.sqrt(1 + 4 * math.exp(t))) / 2)
    return f, t / 2 + math.log((math.exp(-t / 2) + math.sqrt(math.exp(-t) + 4)) / 2)


@pytest.mark.parametrize("t", [21, 30, 100, 710, 800, -800])
def test_pressure_exact_large_tilts_match_closed_form(t):
    _, exact = _golden_tilt(t)
    cfg = pl.parse_config({"system": {"alphabet_size": 2, "allowed": [[0, 0], [0, 1], [1, 0]]},
                           "potential": {"depth": 1, "table": {"0": 0.0, "1": t}}})
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        report, _, _ = run("pressure exact", cfg)
        best = min(best, time.perf_counter() - started)
    assert report["results"]["pressure"].value == pytest.approx(exact, abs=1e-12)
    assert best < 0.01


def test_build_transfer_matrix_overflow_is_a_value_error():
    f, _ = _golden_tilt(710)
    with pytest.raises(ValueError, match="entries must be finite"):
        pl.build_transfer_matrix(GM, f)


@pytest.mark.parametrize("t", [21, 30, 100, 710])
def test_equilibrium_measure_large_tilts_is_stationary(t):
    mu = pl.equilibrium_measure(GM, _golden_tilt(t)[0])
    assert np.max(np.abs(mu.transition.sum(axis=1) - 1.0)) <= _SUM_TOL
    assert mu.invariance_defect() <= _SUM_TOL


def test_perron_solve_matches_power_iteration_oracle():
    rng = np.random.default_rng(2026)
    tol = 1e-10
    cases = 0
    while cases < 40:
        k = int(rng.integers(2, 6))
        allowed = rng.random((k, k)) < 0.6
        if not is_strongly_connected(allowed):
            continue
        cases += 1
        sft = pl.Subshift(k, tuple(tuple(bool(x) for x in row) for row in allowed))
        depth = int(rng.integers(1, 3))
        table = {w: float(rng.uniform(-3, 3)) for w in pl.enumerate_words(sft, depth)}
        f = pl.potential_from_table(sft, depth, table)
        L = pl.build_transfer_matrix(sft, f).entries
        lo, hi, _ = perron_power_iteration(L, log_gap=2.0 * tol * 0.99)
        got = pl.spectral_pressure(pl.TransferMatrix(L), tol=tol)
        assert got.value == pytest.approx(0.5 * (math.log(lo) + math.log(hi)), abs=tol)
        # the old equilibrium measure: the oracle's vector at log-gap 1e-13
        _, _, r = perron_power_iteration(L, log_gap=1e-13)
        weighted = L * r[np.newaxis, :]
        P = weighted / weighted.sum(axis=1, keepdims=True)
        assert np.max(np.abs(pl.equilibrium_measure(sft, f).transition - P)) <= 1e-10
