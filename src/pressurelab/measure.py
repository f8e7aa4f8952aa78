"""Measure-theoretic pressure: cylinder measures of dynamical balls, local
pressure traces along sampled orbits, Monte Carlo integration over orbits,
and the exact closed form for invariant ergodic Markov measures.

Nothing in the local computation assumes invariance; the closed form does,
and checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import List, Optional, Tuple, Union

import numpy as np

from .capacity import _normalize_range
from .errors import (
    EnumerationBudgetExceeded,
    InsufficientDepth,
    NonInvariantMeasure,
    ReducibleSystem,
)
from .symbolic import (
    DEFAULT_ENUMERATION_BUDGET,
    LocallyConstantPotential,
    Scale,
    Word,
    bowen_ball_word_length,
    is_strongly_connected,
)
from .transfer import MarkovMeasure

_SUPPORT_EPS = 1e-15


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
    """

    mean: float
    stderr: float
    samples: int
    excluded: int
    seed: int
    per_orbit: Tuple[float, ...] = ()


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


def log_cylinder_prefix_measures(mu: MarkovMeasure, w: Word) -> List[float]:
    """log mu([w[:d]]) for d = 1..len(w), computed incrementally.

    Zero-measure prefixes (and everything deeper) report -inf.
    """
    out: List[float] = []
    acc = 0.0
    prev: Optional[int] = None
    for b in w:
        if acc != -math.inf:
            step = float(mu.initial[b]) if prev is None else float(
                mu.transition[prev, b]
            )
            acc = acc + math.log(step) if step > 0.0 else -math.inf
        out.append(acc)
        prev = b
    return out


def sample_orbit(
    mu: MarkovMeasure, n_max: int, scale: Scale, seed: int
) -> OrbitSample:
    """Draw the first n_max + m symbols of a mu-random point."""
    length = bowen_ball_word_length(n_max, scale)
    rng = np.random.default_rng(seed)
    init_cdf = np.cumsum(mu.initial)
    trans_cdf = np.cumsum(mu.transition, axis=1)
    draws = rng.random(length)
    symbols = [int(np.searchsorted(init_cdf, draws[0], side="right"))]
    for t in range(1, length):
        row = trans_cdf[symbols[-1]]
        symbols.append(int(np.searchsorted(row, draws[t], side="right")))
    # guard against searchsorted landing one past the end when a draw ties
    # the final cumulative value to within float rounding
    k = mu.n_states
    word = tuple(min(s, k - 1) for s in symbols)
    return OrbitSample(word=word, source=mu, seed=seed)


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
    prefix_logs = log_cylinder_prefix_measures(mu, word)
    # f_1(x), f_2(x), ... summed left to right like birkhoff_sum, on demand
    k = f.depth
    running = accumulate(f.value(word[i : i + k]) for i in range(n_max))
    f_n: List[float] = []
    values: List[Tuple[int, float]] = []
    flagged: List[int] = []
    for n in ns:
        log_ball = prefix_logs[bowen_ball_word_length(n, scale) - 1]
        if log_ball == -math.inf:
            values.append((n, math.inf))
            flagged.append(n)
            continue
        f_n.extend(islice(running, n - len(f_n)))
        values.append((n, (f_n[-1] - log_ball) / n))
    tail_from = ns[len(ns) // 2]
    liminf = min(v for n, v in values if n >= tail_from)
    return LocalPressureTrace(
        values=tuple(values),
        liminf_estimate=liminf,
        zero_measure_n=tuple(flagged),
    )


def measure_pressure_mc(
    mu: MarkovMeasure,
    f: LocallyConstantPotential,
    scale: Scale,
    n_range,
    samples: int,
    seed: int,
    threads: int = 1,
) -> MCPressureEstimate:
    """Monte Carlo estimate of the integrated local pressure.

    Orbits are drawn from mu with per-orbit seeds derived deterministically
    from the master seed, so the result depends only on (inputs, seed).
    ``threads`` is accepted for compatibility and has no effect: the orbits
    run one after another (a thread pool measured slower under the GIL).
    """
    if samples < 1:
        raise ValueError("need at least one sample orbit")
    ns = _normalize_range(n_range, minimum_points=1)
    n_max = ns[-1]
    child_seeds = np.random.SeedSequence(seed).generate_state(
        samples, dtype=np.uint64
    )

    estimates = []
    for child in child_seeds:
        orbit = sample_orbit(mu, n_max, scale, int(child))
        estimates.append(local_pressure(mu, f, orbit, scale, ns).liminf_estimate)

    kept = [v for v in estimates if math.isfinite(v)]
    excluded = samples - len(kept)
    if not kept:
        raise RuntimeError(
            "every sampled orbit hit a zero-measure ball; the measure does "
            "not charge the sampled words"
        )
    mean = float(np.mean(kept))
    stderr = float(np.std(kept, ddof=1) / math.sqrt(len(kept))) if len(kept) > 1 else 0.0
    return MCPressureEstimate(
        mean=mean,
        stderr=stderr,
        samples=samples,
        excluded=excluded,
        seed=seed,
        per_orbit=tuple(estimates),
    )


def exact_invariant_pressure(
    mu: MarkovMeasure, f: LocallyConstantPotential, tol: float = 1e-9
) -> float:
    """h(mu) + integral of f dmu for an invariant ergodic Markov measure.

    Entropy comes from the standard chain formula; the integral is the
    finite sum of mu([w]) f(w) over the depth-k cylinders charged by mu.
    Requires pi P = pi within tol and an irreducible charged support (the
    a.e. orbit interpretation needs ergodicity; integrals of non-ergodic
    mixtures are out of scope here and rejected rather than misreported).
    """
    defect = mu.invariance_defect()
    if defect > tol:
        raise NonInvariantMeasure(
            f"pi P deviates from pi by {defect:.3e} (tolerance {tol:.1e})"
        )
    pi = np.asarray(mu.initial, dtype=float)
    P = np.asarray(mu.transition, dtype=float)
    charged = [a for a in range(mu.n_states) if pi[a] > _SUPPORT_EPS]
    sub = [[P[a, b] > 0.0 for b in charged] for a in charged]
    if not is_strongly_connected(sub):
        raise ReducibleSystem(
            "charged support is not irreducible; the measure is not ergodic"
        )

    entropy = 0.0
    for a in charged:
        for b in range(mu.n_states):
            p = P[a, b]
            if p > 0.0:
                entropy -= pi[a] * p * math.log(p)

    k = f.depth
    integral = 0.0
    count = 0
    # the charged depth-k words in lexicographic order, which fixes the
    # order the integral is summed in
    stack = [((a,), float(pi[a])) for a in reversed(charged)]
    while stack:
        w, mass = stack.pop()
        if len(w) == k:
            count += 1
            if count > DEFAULT_ENUMERATION_BUDGET:
                raise EnumerationBudgetExceeded(count, DEFAULT_ENUMERATION_BUDGET)
            integral += mass * f.value(w)
            continue
        for b in reversed(range(mu.n_states)):
            step = P[w[-1], b]
            if step > 0.0:
                stack.append((w + (b,), mass * step))
    return entropy + integral
