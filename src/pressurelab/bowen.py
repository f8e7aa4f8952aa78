"""Bowen-ball covers, weighted (fractional) covers, the centered-term
chain check, Vitali selection, and critical-exponent search.

Cover pricing convention
------------------------

A ball of horizon n at scale 2^-m is the cylinder of its first n + m
symbols. ``cover_value`` prices an explicit ball literally, as
exp(-s * n + sup f_n); the optimizing quantities (``min_cover_value``,
``weighted_cover_value``, ``bowen_pressure``, ``weighted_pressure``) price a
covering cylinder of depth d at its full depth, exp(-s * d + sup f_d over
the cylinder), i.e. they optimize over scale-0 balls whose horizons run
through the window [N + m, L]. The scale enters through that window (and
through the preconditions), not through the exponent. The two conventions
differ per ball by a factor bounded by exp(m * (s + sup|f|)), which is
constant along the N -> infinity limit defining the critical exponent; the
depth-priced form is the one whose finite-depth value crosses the threshold
exactly at the transfer-operator pressure on Markov-exact systems, which is
what makes the bisection a faithful estimator at desk scale.

The critical exponent itself stands in for an 0/infinity dichotomy that is
undecidable at finite depth: the finite-depth cover value is bisected
against threshold 1, and the returned bracket width is always reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Sequence, Tuple

from ._engine import CoverProgram, _TreeProgram, _value_from_log
from .errors import DepthTooShallow, EmptyTarget, ScaleTooCoarse
from .subsets import SubsetSpec
from .symbolic import (
    LocallyConstantPotential,
    Scale,
    Subshift,
    Word,
    bowen_ball_word_length,
    inf_birkhoff_on_cylinder,
    sup_birkhoff_on_cylinder,
)


@dataclass(frozen=True)
class Ball:
    """A Bowen ball, stored as its center word of length exactly n + m."""

    center_word: Word
    n: int
    scale: Scale

    def __post_init__(self):
        expect = bowen_ball_word_length(self.n, self.scale)
        if len(self.center_word) != expect:
            raise ValueError(
                f"center word has length {len(self.center_word)}, ball wants {expect}"
            )


@dataclass(frozen=True)
class CriticalExponent:
    """A bisection bracket for the s-value where a cover value crosses 1.

    The invariant value_at_low >= threshold_value >= value_at_high holds at
    construction; ``midpoint`` is the reported estimate and ``width`` the
    bracket size. ``history`` records every (s, value) the bisection saw.
    """

    s_low: float
    s_high: float
    threshold_value: float
    depth: int
    N: int
    scale: Scale
    value_at_low: float
    value_at_high: float
    method: str
    history: Tuple[Tuple[float, float], ...] = field(repr=False, default=())

    def __post_init__(self):
        if not self.s_low < self.s_high:
            raise ValueError("bracket must have s_low < s_high")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.s_low + self.s_high)

    @property
    def width(self) -> float:
        return self.s_high - self.s_low


# ---------------------------------------------------------------------------
# explicit covers


def cover_value(
    sft: Subshift,
    balls: Sequence[Ball],
    f: LocallyConstantPotential,
    s: float,
    centered: bool = False,
) -> float:
    """Sum over the cover's ``balls`` of exp(-s n_i + S_i), priced literally.

    S_i is the supremum of f_(n_i) over the ball's cylinder; with
    ``centered`` it is instead the value of f_(n_i) at a point of the ball
    realizing the cylinder infimum (for potentials no deeper than m + 1 the
    center word determines the sum and the two centered readings coincide).
    A sum past the float range reads inf, as ``min_cover_value``'s does.
    """
    _require_finite(s=s)
    if not balls:
        raise ValueError("cover must contain at least one ball")
    total = 0.0
    for ball in balls:
        if centered:
            S = inf_birkhoff_on_cylinder(sft, f, ball.center_word, ball.n)
        else:
            S = sup_birkhoff_on_cylinder(sft, f, ball.center_word, ball.n)
        total += _value_from_log(-s * ball.n + S)
    return total


# ---------------------------------------------------------------------------
# optimal covers on the cylinder tree


def _check_window(N: int, scale: Scale, L: int) -> int:
    d_min = bowen_ball_word_length(N, scale)
    if L < d_min:
        raise DepthTooShallow(f"depth L={L} is below the minimum ball depth {d_min}")
    return d_min


def _nonempty_program(tree: _TreeProgram, d_min: int, centered: bool = False) -> CoverProgram:
    """The cover program on ``tree``; EmptyTarget when no leaf is accepted."""
    program = CoverProgram(tree, d_min, centered)
    if program.empty:
        raise EmptyTarget(f"target has no admissible words at depth {tree.depth}")
    return program


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):  # a NaN exponent would read as a value past the float range
            raise ValueError(f"{name} must be a finite number")


def min_cover_value(
    sft: Subshift,
    Z: SubsetSpec,
    f: LocallyConstantPotential,
    s: float,
    N: int,
    scale: Scale,
    L: int,
) -> float:
    """Exact minimum of the depth-priced cover value over all covers.

    Covers consist of cylinders with depths in [N + m, L] covering every
    depth-L word of the target; the minimum over that finite family is
    computed by dynamic programming on the cylinder tree (a node is either
    covered by one ball or delegated to its children), which is exhaustive
    because distinct cylinders are nested or disjoint.

    Nonincreasing in s, nondecreasing in N, nonincreasing under shrinking Z;
    the tests check all three exactly.
    """
    _require_finite(s=s)
    d_min = _check_window(N, scale, L)
    return _value_from_log(_nonempty_program(_TreeProgram(sft, Z, f, 0, L), d_min).at(s))


def bowen_pressure(
    sft: Subshift,
    Z: SubsetSpec,
    f: LocallyConstantPotential,
    scale: Scale,
    N: int,
    L: int,
    tol: float = 1e-4,
) -> CriticalExponent:
    """Critical exponent of min_cover_value against threshold 1."""
    d_min = _check_window(N, scale, L)
    program = _nonempty_program(_TreeProgram(sft, Z, f, 0, L), d_min)
    return _bisect_critical(program, tol, depth=L, N=N, scale=scale)


def weighted_cover_value(
    sft: Subshift,
    K: SubsetSpec,
    f: LocallyConstantPotential,
    s: float,
    N: int,
    scale: Scale,
    L: int,
) -> float:
    """Optimal fractional (covering-LP) cover value; equals min_cover_value.

    Each cylinder covers a contiguous block of the sorted depth-L target
    words, so the covering matrix is an interval matrix, totally unimodular,
    and the LP optimum is integral: the tree-DP minimum. The tests solve the
    LP independently and check the equality.
    """
    return min_cover_value(sft, K, f, s, N, scale, L)


def weighted_pressure(
    sft: Subshift,
    K: SubsetSpec,
    f: LocallyConstantPotential,
    scale: Scale,
    N: int,
    L: int,
    tol: float = 1e-4,
) -> CriticalExponent:
    """Critical exponent of weighted_cover_value, i.e. ``bowen_pressure``'s."""
    return replace(bowen_pressure(sft, K, f, scale, N, L, tol), method="weighted")


# ---------------------------------------------------------------------------
# Vitali selection


def vitali_select(balls: Sequence[Ball]) -> List[int]:
    """Greedy disjoint subfamily whose enlargements cover the input union.

    Processes balls from largest cylinder to smallest (stable for equal
    sizes, so families sharing one horizon are processed in input order) and
    keeps a ball when its cylinder is disjoint from everything kept so far.
    The kept cylinders are pairwise disjoint, and every input ball lies
    inside the scale-(m-3) enlargement of some kept ball: a dyadic stand-in
    for the 5-times enlargement, with 8 * epsilon >= 5 * epsilon, whence the
    m >= 3 requirement.
    """
    if not balls:
        return []
    m = balls[0].scale.m
    if any(b.scale.m != m for b in balls):
        raise ValueError("all balls must share one scale")
    if m < 3:
        raise ScaleTooCoarse("enlargement needs m >= 3")
    order = sorted(range(len(balls)), key=lambda i: (len(balls[i].center_word), i))
    kept: List[int] = []
    for i in order:
        w = balls[i].center_word
        disjoint = True
        for j in kept:
            v = balls[j].center_word
            t = min(len(w), len(v))
            if w[:t] == v[:t]:  # cylinders intersect iff one prefixes the other
                disjoint = False
                break
        if disjoint:
            kept.append(i)
    return sorted(kept)


def enlargement_cylinder(ball: Ball) -> Word:
    """The cylinder of the ball enlarged to scale m - 3 (same horizon)."""
    coarse = ball.scale.coarsen(3)
    return ball.center_word[: ball.n + coarse.m]


# ---------------------------------------------------------------------------
# chain check: centered value vs weighted vs unweighted


def check_chain(
    sft: Subshift,
    K: SubsetSpec,
    f: LocallyConstantPotential,
    s: float,
    delta: float,
    N: int,
    scale: Scale,
    L: int,
) -> Dict[str, object]:
    """Compute the three matched-depth cover quantities and test the chain.

    centered value at exponent s + delta and coarse scale m - 3
        <= weighted value at exponent s, scale m
        <= unweighted minimal value at exponent s, scale m.

    The centered value prices a ball by a point realization of the Birkhoff
    sum (the cylinder infimum, attained by an admissible extension of the
    center). The coarse side uses scale m - 3 (radius 8 * epsilon >= 6 *
    epsilon), which only enlarges the cover family on the small side of the
    chain and therefore only strengthens what a pass means. The stated
    precondition n^2 exp(-n delta) <= 1 for all n >= N is evaluated and
    reported as a flag rather than enforced, so parameter sets that fail it
    still produce the three values.
    """
    _require_finite(s=s, delta=delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    coarse = scale.coarsen(3)
    d_min_fine = _check_window(N, scale, L)
    d_min_coarse = bowen_ball_word_length(N, coarse)

    # one word tree serves both sides; only the ball prices differ
    tree = _TreeProgram(sft, K, f, 0, L)
    centered_log = _nonempty_program(tree, d_min_coarse, centered=True).at(s + delta)
    unweighted = _value_from_log(_nonempty_program(tree, d_min_fine).at(s))
    # the weighted (fractional) optimum equals the minimal cover value: the
    # covering matrix is an interval matrix, hence totally unimodular
    weighted = unweighted
    centered = _value_from_log(centered_log)

    slack = 1e-9
    left_ok = centered <= weighted * (1 + slack) + slack
    right_ok = weighted <= unweighted * (1 + slack) + slack

    # n^2 exp(-n delta) rises up to n = 2/delta and falls after it, so over
    # n >= N it is largest at N or at an integer next to 2/delta; a peak past
    # 2^53 (or at float infinity) fails already at n = 2^53
    peak = min(2.0 / delta, 2.0 ** 53)
    precondition_ok = all(
        n * n * math.exp(-n * delta) <= 1.0 + 1e-12
        for n in {N, max(N, math.floor(peak)), max(N, math.ceil(peak))}
    )

    return {
        "centered_value": centered,
        "weighted_value": weighted,
        "unweighted_value": unweighted,
        "left_inequality_ok": bool(left_ok),
        "right_inequality_ok": bool(right_ok),
        "passed": bool(left_ok and right_ok),
        "precondition_ok": bool(precondition_ok),
        "params": {
            "s": s,
            "delta": delta,
            "N": N,
            "m": scale.m,
            "coarse_m": coarse.m,
            "L": L,
        },
    }


# ---------------------------------------------------------------------------
# bisection driver

#: Bisection levels one batched evaluation looks ahead: 2**J - 1 midpoints.
_LEVELS_PER_PASS = 4
#: The grid levels a bisection batch keeps when a predicted crossing steers it.
_LEVELS_WITH_AIM = 2


def _expansion(s: float, step: float, sign: float) -> List[float]:
    """The next bracket-expansion probes from s, doubling the step each time."""
    points = []
    for _ in range(_LEVELS_PER_PASS):
        s += sign * step
        points.append(s)
        step *= 2.0
    return points


def _midpoints(lo: float, hi: float, tol: float, aim: float) -> List[float]:
    """Every midpoint the next levels of bisecting [lo, hi] down to tol can
    probe, then the rest of the one path below them that heads for ``aim``
    (a guess at the crossing; NaN heads for lo). The grid is 4 levels deep
    without a guess and 2 with one, where the path is usually the walk."""
    levels = _LEVELS_PER_PASS if math.isnan(aim) else _LEVELS_WITH_AIM
    points: List[float] = []
    brackets = [(lo, hi)]
    for _ in range(levels):
        deeper = []
        for a, b in brackets:
            mid = 0.5 * (a + b)
            if b - a > tol and a < mid < b:  # adjacent floats: no midpoint left
                points.append(mid)
                deeper += [(a, mid), (mid, b)]
        brackets = deeper
    path, mid = [], 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:
        path.append(mid)
        lo, hi = (mid, hi) if mid < aim else (lo, mid)
        mid = 0.5 * (lo + hi)
    return points + path[levels:]


def _predicted_crossing(known: Dict[float, float], lo: float, hi: float) -> float:
    """The zero of the line through the two known points nearest above the
    bracket (at or above hi), else the two nearest below it (at or below lo),
    else lo and hi; NaN when that line is flat."""
    above = sorted(s for s in known if s >= hi)[:2]
    below = sorted(s for s in known if s <= lo)[-2:]
    s1, s2 = above if len(above) == 2 else below if len(below) == 2 else (lo, hi)
    v1, v2 = known[s1], known[s2]
    return s1 - v1 * (s2 - s1) / (v2 - v1) if v1 != v2 else math.nan


def _bisect_critical(
    log_values: Callable[[Sequence[float]], Sequence[float]],
    tol: float,
    depth: int,
    N: int,
    scale: Scale,
) -> CriticalExponent:
    """Bracket and bisect the s where the log value crosses 0 (value crosses 1).

    ``log_values`` maps a batch of exponents to their log values and must be
    nonincreasing in s, which every cover value is (each term decays in s).
    The bracket is expanded geometrically from 0 first, upward while the
    value is at least 1 and downward otherwise, so no prior estimate of the
    pressure is needed. The walk is the sequential one, probe by probe; a
    probe whose value is not known yet evaluates, in one batch, every point
    the walk can reach in the next few steps (the same floats, generated by
    the same recursion), and ``history`` holds the walked probes only. A
    bisection batch also holds the walk's path toward a predicted crossing
    below that; log cover values are nearly linear just above the crossing,
    so that path is often the rest of the walk.
    """
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    history: List[Tuple[float, float]] = []
    known: Dict[float, float] = {}

    def probe(s: float, batch: Callable[[], List[float]]) -> float:
        if s not in known:
            points = batch()
            known.update(zip(points, map(float, log_values(points))))
        v = known[s]
        history.append((s, _value_from_log(v)))
        return v

    edge, step = 0.0, 1.0
    v = probe(edge, lambda: [edge] + _expansion(edge, step, 1.0) + _expansion(edge, step, -1.0))
    sign = 1.0 if v >= 0.0 else -1.0
    while True:
        far = edge + sign * step
        v_far = probe(far, lambda: _expansion(edge, step, sign))
        if (v_far >= 0.0) != (v >= 0.0):
            break
        edge, v = far, v_far
        step *= 2.0
        if step > 2 ** 40:
            side = "upper" if sign > 0 else "lower"
            raise RuntimeError(f"no {side} bracket for the critical exponent")
    lo, v_lo, hi, v_hi = (edge, v, far, v_far) if sign > 0 else (far, v_far, edge, v)

    mid = 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:
        v_mid = probe(mid, lambda: _midpoints(lo, hi, tol, _predicted_crossing(known, lo, hi)))
        if v_mid >= 0.0:
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
        mid = 0.5 * (lo + hi)

    return CriticalExponent(
        s_low=lo,
        s_high=hi,
        threshold_value=1.0,
        depth=depth,
        N=N,
        scale=scale,
        value_at_low=_value_from_log(v_lo),
        value_at_high=_value_from_log(v_hi),
        method="bowen",
        history=tuple(history),
    )
