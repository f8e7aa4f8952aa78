"""Measure-theoretic pressure: cylinder measures of dynamical balls, local
pressure traces along sampled orbits, Monte Carlo integration over orbits,
and the exact closed form for invariant ergodic Markov measures.

Nothing in the local computation assumes invariance; the closed form does,
and checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .capacity import _normalize_range
from .errors import InsufficientDepth, NonInvariantMeasure, ReducibleSystem
from .symbolic import (
    LocallyConstantPotential,
    Scale,
    Word,
    bowen_ball_word_length,
    check_budget,
    is_strongly_connected,
)
from .transfer import MarkovMeasure, _check_markov

_SUPPORT_EPS = 1e-15
_INVARIANCE_TOL = 1e-9  # how far pi P may sit from pi for an invariant measure


@dataclass(frozen=True)
class OrbitSample:
    """A finite orbit prefix drawn from a Markov measure.

    Reproducible: sample_orbit(source, n_max, scale, seed) with the stored
    seed regenerates the word exactly. symbols is the same word as the int64
    array local_pressure reads; equality and repr leave it out.
    """

    word: Word
    source: MarkovMeasure
    seed: int
    symbols: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class LocalPressureTrace:
    """Per-horizon local pressure values along one orbit.

    values holds (n, (f_n(x) - log mu(B_n(x, eps))) / n); the liminf is
    estimated as the minimum over the tail half of the horizon window.
    Horizons whose ball has measure zero carry value +inf and are listed in
    zero_measure_n.
    """

    values: Tuple[Tuple[int, float], ...]
    liminf_estimate: float
    zero_measure_n: Tuple[int, ...] = ()


@dataclass(frozen=True)
class MCPressureEstimate:
    """Monte Carlo mean of per-orbit liminf estimates, with standard error.

    excluded counts orbits dropped for a non-finite estimate (possible only
    when the measure is not fully supported along the sampled subshift).
    trace is the whole local pressure trace of the first orbit, the CLI's
    CSV; reports leave it out.
    """

    mean: float
    stderr: float
    samples: int
    excluded: int
    seed: int
    per_orbit: Tuple[float, ...] = ()
    trace: Optional[LocalPressureTrace] = field(repr=False, default=None)


def _orbit_cells(k: int) -> int:
    """8-byte cells an orbit of k symbols peaks at per symbol, from its draw
    through its trace: one a state for the next-symbol table and for its
    walked rows, and 14 for the rest (the tracemalloc peak took at most
    2k + 9.7 on chains of k = 2-64 symbols, 2^17 to 2^20 long)."""
    return 14 + 2 * k


def sample_orbit(
    mu: MarkovMeasure, n_max: int, scale: Scale, seed: int
) -> OrbitSample:
    """Draw the first n_max + m symbols of a mu-random point.

    One ``rng.random(n_max + m)`` draw from ``default_rng(seed)`` feeds the
    orbit by inverse CDF: draw 0 picks from the initial row, draw t from the
    transition row of symbol t - 1. One searchsorted per row turns the draws
    into a (state x draw) next-symbol table. A draw is forced when it picks
    the same symbol after every state (draw 0 always is); the orbit reads
    row 0 there, and the chain walks the table only over the free draws and
    the draw before each, so every stretch of the walk starts on a forced
    draw. These are the comparisons a symbol-by-symbol walk makes, so the
    orbits match it bit for bit. A draw that ties a row's last cumulative
    value within rounding lands one past the end and is clamped to k - 1.
    An orbit past the enumeration budget, in symbols or in the 8-byte cells
    its draw and trace peak at, is refused before the draw.
    """
    length = bowen_ball_word_length(n_max, scale)
    check_budget(length, "orbit symbols")
    check_budget(length * _orbit_cells(mu.n_states), "8-byte cells of orbit")
    draws = np.random.default_rng(seed).random(length)
    nxt = np.empty((mu.n_states, length), dtype=np.int64)  # nxt[a, t]: draw t's pick after a
    nxt[:, 0] = np.searchsorted(np.cumsum(mu.initial), draws[0], side="right")
    for row, cdf in zip(nxt, np.cumsum(mu.transition, axis=1)):
        row[1:] = np.searchsorted(cdf, draws[1:], side="right")
    np.minimum(nxt, mu.n_states - 1, out=nxt)
    walk = (nxt != nxt[0]).any(axis=0)
    walk[:-1] |= walk[1:]  # a free draw and the one before it
    walk = np.flatnonzero(walk)
    s, picks = 0, []
    for step in zip(*[row.take(walk).tolist() for row in nxt]):  # a stretch's first step is forced
        s = step[s]
        picks.append(s)
    symbols = nxt[0].copy()
    symbols[walk] = picks
    return OrbitSample(word=tuple(symbols.tolist()), source=mu, seed=seed, symbols=symbols)


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


def _birkhoff_sums(f: LocallyConstantPotential, w: np.ndarray, n: int) -> np.ndarray:
    """f_1(w), ..., f_n(w), summed left to right like birkhoff_sum.

    Each window gets a base-span code, one symbol column at a time; once the
    code space passes the n windows, the codes are relabelled densely before
    the next column, so no code table passes n * span entries. Each distinct
    window is looked up once, in order of first occurrence, so a window
    outside the table raises InadmissibleWord at the same window as a
    left-to-right walk.
    """
    low = int(w.min())
    span = int(w.max()) - low + 1  # code * span + symbol - low is one-to-one
    codes, size = w[:n] - low, span
    for j in range(1, f.depth):
        if size > n:
            codes, starts = _first_seen(codes, size)
            size = len(starts)
        codes, size = codes * span + (w[j : j + n] - low), size * span
    codes, starts = _first_seen(codes, size)
    values = np.array([f.value(tuple(w[t : t + f.depth].tolist())) for t in starts.tolist()], dtype=float)
    with np.errstate(over="ignore"):  # f_n past the float range reads +-inf
        return np.cumsum(values[codes])


def _first_seen(codes: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """(labels, starts): codes below size relabelled 0, 1, ... in order of
    first occurrence, and the position where each label first occurs."""
    at = np.full(size, len(codes))
    np.minimum.at(at, codes, np.arange(len(codes)))  # unbuffered, so repeats keep their minimum
    starts = np.flatnonzero(at[codes] == np.arange(len(codes)))
    at[codes[starts]] = np.arange(len(starts))
    return at[codes], starts


def local_pressure(
    mu: MarkovMeasure,
    f: LocallyConstantPotential,
    x: Union[OrbitSample, Word],
    scale: Scale,
    n_range,
) -> LocalPressureTrace:
    """Per-horizon values (f_n(x) - log mu(B_n(x, eps))) / n along x.

    The ball at horizon n and scale 2^-m is the cylinder of the first n + m
    symbols of x, read from x.symbols for an OrbitSample. Works for any
    Markov measure; invariance plays no role. Ball logs and Birkhoff sums are prefix sums over the word, accumulated
    left to right. f is evaluated only up to the last horizon whose ball has
    positive measure: windows past it are never looked up.
    """
    w = x.symbols if isinstance(x, OrbitSample) else tuple(x)
    ns = _normalize_range(n_range, minimum_points=1)
    n_max = ns[-1]
    need = max(bowen_ball_word_length(n_max, scale), n_max + f.depth - 1)
    if len(w) < need:
        raise InsufficientDepth(
            f"orbit of length {len(w)} is too short for horizon {n_max} "
            f"at scale m={scale.m} (needs {need})"
        )
    w = np.asarray(w[:need], dtype=np.int64)
    ball = w[: n_max + scale.m]
    # log mu([ball[:d]]) for every d, one math.log per matrix entry, summed left
    # to right; a null step stays -inf, so the charged horizons come first
    steps = np.empty(len(ball))
    steps[0] = _log(float(mu.initial[ball[0]]))
    logs = np.array([[_log(p) for p in row] for row in mu.transition.tolist()])
    steps[1:] = logs[ball[:-1], ball[1:]]
    horizons = np.array(ns)
    log_ball = np.cumsum(steps)[horizons + scale.m - 1]
    charged = int(np.count_nonzero(log_ball != -math.inf))
    values = np.full(len(ns), math.inf)
    if charged:
        f_n = _birkhoff_sums(f, w, ns[charged - 1])
        head = horizons[:charged]
        values[:charged] = (f_n[head - 1] - log_ball[:charged]) / head
    values = values.tolist()
    return LocalPressureTrace(
        values=tuple(zip(ns, values)),
        liminf_estimate=min(values[len(ns) // 2 :]),
        zero_measure_n=ns[charged:],
    )


def measure_pressure_mc(
    mu: MarkovMeasure,
    f: LocallyConstantPotential,
    scale: Scale,
    n_range,
    samples: int,
    seed: int,
) -> MCPressureEstimate:
    """Monte Carlo estimate of the integrated local pressure.

    Orbit i is drawn from mu with seed i of
    ``SeedSequence(seed).generate_state(samples, np.uint64)``, so the result
    depends only on (inputs, seed). The orbits run one after another, each
    drawn once by sample_orbit and traced once by local_pressure; the first
    orbit's trace is kept whole in ``trace``. A run whose samples times orbit
    length passes the enumeration budget is refused before any seed is made.
    """
    if samples < 1:
        raise ValueError("need at least one sample orbit")
    ns = _normalize_range(n_range, minimum_points=1)
    # local_pressure reads max(n_max + m, n_max + depth - 1) symbols; a longer
    # draw only extends the orbit, so shallower potentials see the same one
    n_draw = ns[-1] + max(0, f.depth - 1 - scale.m)
    # one orbit's symbols, then the run's, are charged before any seed is made
    length = bowen_ball_word_length(n_draw, scale)
    check_budget(length, "orbit symbols")
    check_budget(samples * length, "orbit symbols")
    seeds = np.random.SeedSequence(seed).generate_state(samples, dtype=np.uint64)
    traces = (
        local_pressure(mu, f, sample_orbit(mu, n_draw, scale, child), scale, n_range)
        for child in seeds.tolist()
    )
    first = next(traces)
    estimates = [first.liminf_estimate] + [t.liminf_estimate for t in traces]
    kept = [v for v in estimates if math.isfinite(v)]
    if not kept:
        raise RuntimeError(
            "every sampled orbit hit a zero-measure ball; the measure does not charge the sampled words"
            if first.zero_measure_n else
            "f_n leaves the float range on every sampled orbit; the potential is too large"
        )
    stderr = float(np.std(kept, ddof=1) / math.sqrt(len(kept))) if len(kept) > 1 else 0.0
    return MCPressureEstimate(
        mean=float(np.mean(kept)), stderr=stderr, samples=samples,
        excluded=samples - len(kept), seed=seed, per_orbit=tuple(estimates),
        trace=first,
    )


def exact_invariant_pressure(mu: MarkovMeasure, f: LocallyConstantPotential) -> float:
    """h(mu) + integral of f dmu for an invariant ergodic Markov measure.

    Entropy comes from the standard chain formula; the integral is the
    finite sum of mu([w]) f(w) over the depth-k cylinders charged by mu.
    Requires pi P = pi within _INVARIANCE_TOL and an irreducible charged
    support (the a.e. orbit interpretation needs ergodicity; integrals of
    non-ergodic mixtures are out of scope here and rejected rather than
    misreported).
    This is ``_checked_pressures`` on a stack of one: ``mu`` was checked when made.
    """
    return float(_checked_pressures(mu.initial[None], mu.transition[None], f)[0])


def _invariant_pressures(pi: np.ndarray, P: np.ndarray, f: LocallyConstantPotential) -> np.ndarray:
    """exact_invariant_pressure of each (pi[g], P[g]), checked once as a stack."""
    _check_markov(P, pi, ndim=3)
    return _checked_pressures(pi, P, f)


def _checked_pressures(pi: np.ndarray, P: np.ndarray, f: LocallyConstantPotential) -> np.ndarray:
    """``_invariant_pressures`` of a stack that passed MarkovMeasure's checks.

    The support test runs once per distinct (charged set, arc support), and
    so does the walk of the charged depth-k words, layer by layer in
    lexicographic order. Entropy takes one math.log per transition entry.
    Both sums run left to right, as the single-measure loop added them.
    """
    defect = np.abs(np.matmul(pi[:, None], P)[:, 0] - pi).max(axis=1)
    drift = defect[defect > _INVARIANCE_TOL]
    if drift.size:
        raise NonInvariantMeasure(f"pi P deviates from pi by {drift[0]:.3e} (tolerance {_INVARIANCE_TOL:.1e})")
    charged, arcs = pi > _SUPPORT_EPS, P > 0.0
    logP = np.array([math.log(p) if p > 0.0 else 0.0 for p in P.ravel().tolist()])
    # zero terms (uncharged rows, null arcs) change no left-to-right sum
    terms = np.where(charged, pi, 0.0)[:, :, None] * P * logP.reshape(P.shape)
    entropy = np.cumsum(-terms.reshape(len(P), P.shape[-1] ** 2), axis=1)[:, -1]
    integral = np.empty(len(P))
    groups: Dict[bytes, List[int]] = {}
    for g in range(len(P)):
        groups.setdefault(charged[g].tobytes() + arcs[g].tobytes(), []).append(g)
    for members in groups.values():
        symbols, support = np.flatnonzero(charged[members[0]]), arcs[members[0]]
        if not is_strongly_connected(support[symbols][:, symbols]):
            raise ReducibleSystem("charged support is not irreducible; the measure is not ergodic")
        # words: one row per charged word; mass: one column per word, row per member
        words, mass, Pg = symbols[:, None], pi[members][:, symbols], P[members]
        for _ in range(f.depth - 1):
            parent, b = np.nonzero(support[words[:, -1]])
            check_budget(len(b), "words")
            mass = mass[:, parent] * Pg[:, words[parent, -1], b]
            words = np.column_stack([words[parent], b])
        values = np.array([f.value(tuple(w)) for w in words.tolist()])
        integral[members] = np.cumsum(mass * values, axis=1)[:, -1]
    # cumsum leaves -0.0 where a loop from 0.0 leaves 0.0; + 0.0 mends only that
    return entropy + integral + 0.0
