"""Upper-capacity pressure via separated-set partition functions.

At scale 2^-m a maximal (n, 2^-m)-separated subset of the target picks one
representative per admissible word of length n + m - 1 meeting the target,
so the partition function is a weighted word count, not an optimization.
The n -> infinity growth rate is summarized by a least-squares slope over
the requested window, with the running tail maximum of (1/n) log P_n kept
as a diagnostic; neither is claimed to converge beyond the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ._engine import NEG_INF, leaf_sum_log, leaf_sum_logs
from .errors import EmptyTarget
from .subsets import SubsetSpec, validate_spec
from .symbolic import LocallyConstantPotential, Scale, Subshift, separated_word_length


@dataclass(frozen=True)
class CapacityEstimate:
    """Partition-function trace plus its fitted growth rate.

    ``slope`` is the least-squares slope of log P_n against n over the
    window; ``tail_max`` is the largest (1/n) log P_n over the deeper half,
    reported as a second finite-data summary of the same limsup. ``empty_n``
    lists horizons whose depth-(n+m-1) approximation of the target was empty
    (possible for frequency sets at small n); they are excluded from the fit.
    """

    p_n: Tuple[Tuple[int, float], ...]
    slope: float
    scale: Scale
    window: Tuple[int, int]
    tail_max: float
    empty_n: Tuple[int, ...] = ()


def partition_function(
    sft: Subshift,
    Z: SubsetSpec,
    f: LocallyConstantPotential,
    n: int,
    scale: Scale,
) -> float:
    """Exact P_n: sum over depth-(n+m-1) words meeting Z of exp(sup f_n).

    The supremum of f_n runs over the points of Z inside each cylinder
    (undetermined tail windows extremize over continuations that stay in the
    target). Returns 0.0 when the approximation of Z at this depth is empty.
    """
    value = log_partition_function(sft, Z, f, n, scale)
    return 0.0 if value == NEG_INF else math.exp(value)


def log_partition_function(
    sft: Subshift,
    Z: SubsetSpec,
    f: LocallyConstantPotential,
    n: int,
    scale: Scale,
) -> float:
    if n < 1:
        raise ValueError("time horizon n must be at least 1")
    validate_spec(Z, sft)
    depth = separated_word_length(n, scale)  # raises ScaleTooCoarse for m = 0
    return leaf_sum_log(sft, Z, f, sigma=scale.m - 1, depth=depth)


def capacity_pressure(
    sft: Subshift,
    Z: SubsetSpec,
    f: LocallyConstantPotential,
    scale: Scale,
    n_range: Sequence[int] | Tuple[int, int],
) -> CapacityEstimate:
    """Fit the exponential growth rate of P_n over a window of horizons.

    ``n_range`` is either (n_lo, n_hi) (inclusive) or an explicit increasing
    sequence with at least 4 entries, so a pair is always the window. One
    forward pass over one tree yields P_n for every horizon of the window.
    """
    ns = _normalize_range(n_range)
    validate_spec(Z, sft)
    depths = [separated_word_length(n, scale) for n in ns]
    logs = leaf_sum_logs(sft, Z, f, sigma=scale.m - 1, depths=depths)
    lost = [n for n, v in zip(ns, logs) if not v < math.inf]  # +inf or NaN
    if lost:
        raise RuntimeError(f"log P_n leaves the float range at n = {lost[0]}; the potential is too large")

    pairs = [(n, v) for n, v in zip(ns, logs) if v != NEG_INF]
    empty = tuple(n for n, v in zip(ns, logs) if v == NEG_INF)
    if len(pairs) < 2:
        raise EmptyTarget(
            "target meets fewer than two horizons in the window; nothing to fit"
        )
    xs = np.array([n for n, _ in pairs], dtype=float)
    ys = np.array([v for _, v in pairs], dtype=float)
    slope = float(np.polyfit(xs, ys, 1)[0])
    tail = [(n, v) for n, v in pairs if n >= pairs[len(pairs) // 2][0]]
    tail_max = max(v / n for n, v in tail)
    return CapacityEstimate(
        p_n=tuple(pairs),
        slope=slope,
        scale=scale,
        window=(ns[0], ns[-1]),
        tail_max=tail_max,
        empty_n=empty,
    )


def _normalize_range(
    n_range: Sequence[int] | Tuple[int, int], minimum_points: int = 4
) -> Tuple[int, ...]:
    # a pair is the window [lo, hi] unless it can stand as two explicit horizons
    seq = list(n_range)
    if len(seq) == 2 and (seq[1] - seq[0] >= 4 or minimum_points > 2):
        ns = tuple(range(seq[0], seq[1] + 1))
    else:
        ns = tuple(seq)
    if len(ns) < minimum_points:
        raise ValueError(f"horizon window needs at least {minimum_points} entries")
    if any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise ValueError("horizons must be strictly increasing and positive")
    return ns
