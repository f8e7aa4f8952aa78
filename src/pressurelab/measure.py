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
    seed regenerates the word exactly.
    """

    word: Word
    source: MarkovMeasure
    seed: int


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


def cylinder_measure(mu: MarkovMeasure, w: Word) -> float:
    """mu of the cylinder [w]: pi_{w_0} * prod P_{w_i w_{i+1}}, exact.

    Words stepping outside the support have measure 0; the empty word has
    measure 1.
    """
    if not w:
        return 1.0
    p = float(mu.initial[w[0]])
    for a, b in zip(w, w[1:]):
        if p == 0.0:
            return 0.0
        p *= float(mu.transition[a, b])
    return p


def sample_orbit(
    mu: MarkovMeasure, n_max: int, scale: Scale, seed: int
) -> OrbitSample:
    """Draw the first n_max + m symbols of a mu-random point.

    One ``rng.random(n_max + m)`` draw from ``default_rng(seed)`` feeds the
    orbit by inverse CDF: draw 0 picks from the initial row, draw t from the
    transition row of symbol t - 1. One searchsorted per row turns the draws
    into a (draw x state) next-symbol table, and the chain walks that table.
    These are the comparisons a symbol-by-symbol walk makes, so the orbits
    match it bit for bit. A draw that ties a row's last cumulative value
    within rounding lands one past the end and is clamped to k - 1. An
    orbit longer than the enumeration budget is refused before the draw.
    """
    length = bowen_ball_word_length(n_max, scale)
    check_budget(length, "orbit symbols")
    draws = np.random.default_rng(seed).random(length)
    last = mu.n_states - 1
    s = min(int(np.searchsorted(np.cumsum(mu.initial), draws[0], side="right")), last)
    columns = [
        np.minimum(np.searchsorted(row, draws[1:], side="right"), last).tolist()
        for row in np.cumsum(mu.transition, axis=1)
    ]
    word = [s]
    for nxt in zip(*columns):  # nxt[a]: the symbol this draw picks after a
        s = nxt[s]
        word.append(s)
    return OrbitSample(word=tuple(word), source=mu, seed=seed)


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


def _birkhoff_sums(f: LocallyConstantPotential, w: np.ndarray, n: int) -> np.ndarray:
    """f_1(w), ..., f_n(w), summed left to right like birkhoff_sum.

    Windows get integer labels, one symbol column at a time (relabelled
    densely after each, so no label overflows). Each distinct window is
    looked up once, in order of first occurrence, so a window outside the
    table raises InadmissibleWord at the same window as a left-to-right walk.
    """
    span = int(w.max() - w.min()) + 1  # label * span + symbol is one-to-one
    labels = w[:n]
    for j in range(1, f.depth):
        labels = np.unique(labels, return_inverse=True)[1] * span + w[j : j + n]
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    values = np.empty(len(first))
    # stable reuses np.unique's merge sort; quicksort pages in another kernel
    for i in np.argsort(first, kind="stable").tolist():
        values[i] = f.value(tuple(w[first[i] : first[i] + f.depth].tolist()))
    with np.errstate(over="ignore"):  # f_n past the float range reads +-inf
        return np.cumsum(values[inverse])


def local_pressure(
    mu: MarkovMeasure,
    f: LocallyConstantPotential,
    x: Union[OrbitSample, Word],
    scale: Scale,
    n_range,
) -> LocalPressureTrace:
    """Per-horizon values (f_n(x) - log mu(B_n(x, eps))) / n along x.

    The ball at horizon n and scale 2^-m is the cylinder of the first n + m
    symbols of x. Works for any Markov measure; invariance plays no role.
    Ball logs and Birkhoff sums are prefix sums over the word, accumulated
    left to right. f is evaluated only up to the last horizon whose ball has
    positive measure: windows past it are never looked up.
    """
    word = x.word if isinstance(x, OrbitSample) else tuple(x)
    ns = _normalize_range(n_range, minimum_points=1)
    n_max = ns[-1]
    need = max(bowen_ball_word_length(n_max, scale), n_max + f.depth - 1)
    if len(word) < need:
        raise InsufficientDepth(
            f"orbit of length {len(word)} is too short for horizon {n_max} "
            f"at scale m={scale.m} (needs {need})"
        )
    w = np.array(word[:need], dtype=np.int64)
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
    orbit's trace is kept whole in ``trace``.
    """
    if samples < 1:
        raise ValueError("need at least one sample orbit")
    ns = _normalize_range(n_range, minimum_points=1)
    seeds = np.random.SeedSequence(seed).generate_state(samples, dtype=np.uint64)
    # local_pressure reads max(n_max + m, n_max + depth - 1) symbols; a longer
    # draw only extends the orbit, so shallower potentials see the same one
    n_draw = ns[-1] + max(0, f.depth - 1 - scale.m)
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
