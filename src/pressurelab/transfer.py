"""Transfer-operator pressure oracle and equilibrium Markov measures.

For a compact invariant subshift with a locally constant potential of depth
at most 2, the pressure on the whole space is the log of the Perron root of
the matrix L_ab = A_ab * exp(f(ab)) (or exp(f(a)) at depth 1). That value is
the reference every other estimator in the package is compared against, and
the conjugated row-normalization of the Perron right eigenvector gives the
equilibrium Markov measure, whose cylinder masses track exp(-nP + f_n) with
uniformly bounded ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import math

import numpy as np

from .errors import ReducibleSystem
from .symbolic import (
    LocallyConstantPotential,
    Subshift,
    enumerate_words,
    is_strongly_connected,
    sup_birkhoff_on_cylinder,
)

_POWER_ITERATION_CAP = 2_000_000
_SUM_TOL = 1e-12  # how far a probability vector's sum may sit from 1


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Nonnegative matrix with L_ab > 0 exactly on allowed transitions."""

    entries: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("transfer matrix must be square")
        if not np.all(np.isfinite(self.entries)) or np.any(self.entries < 0):
            raise ValueError("transfer matrix entries must be finite and nonnegative")


@dataclass(frozen=True)
class PressureValue:
    value: float
    method: str
    tolerance: float

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True, eq=False)
class MarkovMeasure:
    """A Markov measure: row-stochastic transitions plus an initial row.

    ``initial`` need not be stationary; a measure is shift-invariant exactly
    when initial @ transition == initial, and the operations that require
    invariance check it themselves. Entries of ``transition`` may be positive
    only on transitions the underlying system allows; that is the caller's
    contract, checked where a Subshift is in scope.
    """

    transition: np.ndarray
    initial: np.ndarray
    label: str = ""

    def __post_init__(self):
        P = self.transition
        pi = self.initial
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("transition matrix must be square")
        if pi.shape != (P.shape[0],):
            raise ValueError("initial row has wrong length")
        if np.any(P < -1e-15) or np.any(pi < -1e-15):
            raise ValueError("probabilities must be nonnegative")
        # a NaN entry makes its sum NaN, which fails every <=
        if not np.max(np.abs(P.sum(axis=1) - 1.0)) <= _SUM_TOL:
            raise ValueError(f"transition rows must be finite and sum to 1 within {_SUM_TOL}")
        if not abs(pi.sum() - 1.0) <= _SUM_TOL:
            raise ValueError(f"initial row must be finite and sum to 1 within {_SUM_TOL}")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    def invariance_defect(self) -> float:
        return float(np.max(np.abs(self.initial @ self.transition - self.initial)))


def bernoulli_measure(p: Sequence[float], label: str = "") -> MarkovMeasure:
    p = np.asarray(p, dtype=float)
    P = np.tile(p, (len(p), 1))
    return MarkovMeasure(P, p.copy(), label or f"bernoulli{tuple(round(x, 6) for x in p)}")


def markov_measure(
    transition: Sequence[Sequence[float]],
    initial: Optional[Sequence[float]] = None,
    label: str = "",
) -> MarkovMeasure:
    """Markov measure from a stochastic matrix; stationary row by default.

    With ``initial`` omitted the unique stationary distribution is solved
    for, which requires the support of P restricted to its recurrent part to
    determine one (irreducible support). Passing an explicit non-stationary
    row is allowed and produces a non-invariant measure.
    """
    P = np.asarray(transition, dtype=float)
    if initial is None:
        pi = stationary_distribution(P)
    else:
        pi = np.asarray(initial, dtype=float)
    return MarkovMeasure(P, pi, label or "markov")


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 exactly (linear system, no iteration)."""
    if not is_strongly_connected(P > 0.0):
        raise ReducibleSystem("stationary distribution needs irreducible support")
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


def build_transfer_matrix(
    sft: Subshift, f: LocallyConstantPotential
) -> TransferMatrix:
    """L_ab = A_ab exp(f(ab)) for depth-2 f, A_ab exp(f(a)) for depth 1."""
    if f.depth > 2:
        raise ValueError(
            "transfer matrices take potentials of depth <= 2; recode deeper ones"
        )
    k = sft.alphabet_size
    L = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            if not sft.allowed[a][b]:
                continue
            L[a, b] = math.exp(f.value((a,)) if f.depth == 1 else f.value((a, b)))
    return TransferMatrix(L, label=sft.label)


def _require_irreducible(L: np.ndarray) -> None:
    if not is_strongly_connected(L > 0.0):
        raise ReducibleSystem(
            "transfer matrix is reducible; restrict to an irreducible component"
        )


def _perron_brackets(L: np.ndarray, log_gap: float) -> Tuple[float, float, np.ndarray]:
    """Power iteration on L + I with two-sided Perron-root brackets.

    For an irreducible nonnegative L the shift by the identity makes the
    matrix primitive without moving the Perron root (it shifts by exactly 1),
    and for any positive vector v the quotients (Mv)_i / v_i bracket the
    root of L + I from both sides. Iterates until the bracket [lo-1, hi-1]
    around the root of L itself has log-width at most ``log_gap``, which is
    the quantity the pressure midpoint needs.
    """
    n = L.shape[0]
    M = L + np.eye(n)
    v = np.full(n, 1.0 / n)
    for _ in range(_POWER_ITERATION_CAP):
        w = M @ v
        quot = w / v
        lo, hi = float(np.min(quot)), float(np.max(quot))
        v = w / w.sum()
        if lo > 1.0 and math.log(hi - 1.0) - math.log(lo - 1.0) <= log_gap:
            return lo - 1.0, hi - 1.0, v
    raise RuntimeError(
        f"power iteration did not reach log-bracket width {log_gap} "
        f"within {_POWER_ITERATION_CAP} steps"
    )


def spectral_pressure(L: TransferMatrix, tol: float = 1e-12) -> PressureValue:
    """log of the Perron root of L, with absolute error at most tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    _require_irreducible(L.entries)
    lo, hi, _ = _perron_brackets(L.entries, log_gap=2.0 * tol * 0.99)
    value = 0.5 * (math.log(lo) + math.log(hi))
    return PressureValue(value=value, method="spectral", tolerance=tol)


def equilibrium_measure(
    sft: Subshift, f: LocallyConstantPotential, tol: float = 1e-12
) -> MarkovMeasure:
    """The Gibbs/equilibrium Markov measure of (sft, f).

    Conjugates the transfer matrix by its Perron right eigenvector:
    P_ab = L_ab r_b / (lambda r_a), realized with an explicit row
    normalization so P is stochastic to machine precision, and the
    stationary row is solved exactly for that P.
    """
    L = build_transfer_matrix(sft, f)
    _require_irreducible(L.entries)
    _, _, r = _perron_brackets(L.entries, log_gap=min(tol, 1e-13))
    weighted = L.entries * r[np.newaxis, :]
    P = weighted / weighted.sum(axis=1, keepdims=True)
    pi = stationary_distribution(P)
    return MarkovMeasure(P, pi, label=f"equilibrium({sft.label or 'sft'}, {f.label or 'f'})")


def gibbs_ratio_bounds(
    mu: MarkovMeasure,
    sft: Subshift,
    f: LocallyConstantPotential,
    P: PressureValue | float,
    max_len: int,
) -> Tuple[float, float]:
    """Extremes over words up to max_len of mu([w]) / exp(-|w| P + f_|w|(w)).

    The Birkhoff term is the supremum of f_|w| over the cylinder [w] (for
    depth-1 potentials that is the literal sum; deeper potentials leave the
    trailing windows undetermined and the supremum realizes them). For an
    equilibrium measure both extremes stay inside a fixed positive interval
    independent of word length.
    """
    if max_len < f.depth:
        raise ValueError("max_len must be at least the potential depth")
    p_value = P.value if isinstance(P, PressureValue) else float(P)
    from .measure import cylinder_measure  # local import to avoid a cycle

    rmin, rmax = math.inf, -math.inf
    for length in range(1, max_len + 1):
        for w in enumerate_words(sft, length):
            s = sup_birkhoff_on_cylinder(sft, f, w, length)
            ratio = cylinder_measure(mu, w) / math.exp(-length * p_value + s)
            rmin = min(rmin, ratio)
            rmax = max(rmax, ratio)
    return rmin, rmax
