"""Transfer-operator pressure oracle and equilibrium Markov measures.

For a compact invariant subshift with a locally constant potential of depth
at most 2, the pressure on the whole space is the log of the Perron root of
the matrix L_ab = A_ab * exp(f(ab)) (or exp(f(a)) at depth 1). That value is
the reference every other estimator in the package is compared against, and
the conjugated row-normalization of the Perron right eigenvector gives the
equilibrium Markov measure, whose cylinder masses track exp(-nP + f_n) with
uniformly bounded ratios. Both come from one log-space solve (``_perron``):
an eigensolver guess certified by a Collatz-Wielandt bracket, so no weight
exp(f) has to fit in a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ReducibleSystem
from .symbolic import LocallyConstantPotential, Subshift, is_strongly_connected

_PERRON_STEP_CAP = 10_000  # power steps after the eig guess before giving up
_SUM_TOL = 1e-12  # how far a probability vector's sum may sit from 1
_PERRON_TOL = 1e-12  # absolute pressure tolerance of the Perron solves


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
        _check_markov(self.transition, self.initial, ndim=2)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    def invariance_defect(self) -> float:
        return float(np.max(np.abs(self.initial @ self.transition - self.initial)))


def bernoulli_measure(p: Sequence[float], label: str = "") -> MarkovMeasure:
    p = np.asarray(p, dtype=float)
    P = np.tile(p, (len(p), 1))
    return MarkovMeasure(P, p.copy(), label or f"bernoulli{tuple(round(x, 6) for x in p.tolist())}")


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


def _check_markov(P: np.ndarray, pi: np.ndarray, ndim: int) -> None:
    """MarkovMeasure's checks on one (P, pi) (ndim 2) or a stack (ndim 3)."""
    if P.ndim != ndim or P.shape[-1] != P.shape[-2]:
        raise ValueError("transition matrix must be square")
    if pi.shape != P.shape[:-1]:
        raise ValueError("initial row has wrong length")
    if (P < -1e-15).any() or (pi < -1e-15).any():
        raise ValueError("probabilities must be nonnegative")
    # a NaN entry makes its sum NaN, which fails every <=
    if not (np.abs(P.sum(axis=-1) - 1.0) <= _SUM_TOL).all():
        raise ValueError(f"transition rows must be finite and sum to 1 within {_SUM_TOL}")
    if not (np.abs(pi.sum(axis=-1) - 1.0) <= _SUM_TOL).all():
        raise ValueError(f"initial row must be finite and sum to 1 within {_SUM_TOL}")


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 exactly (linear system, no iteration)
    for one (n, n) P or a stack (..., n, n), each of irreducible support.

    A stack is one batched np.linalg.solve, equal to single solves bit for bit.
    """
    n = P.shape[-1]
    supports = {s.tobytes(): s for s in (P > 0.0).reshape(-1, n, n)}
    if not all(map(is_strongly_connected, supports.values())):
        raise ReducibleSystem("stationary distribution needs irreducible support")
    A = np.swapaxes(P, -1, -2) - np.eye(n)
    A[..., -1, :] = 1.0
    pi = np.maximum(np.linalg.solve(A, np.eye(n)[:, -1:])[..., 0], 0.0)
    return pi / pi.sum(axis=-1, keepdims=True)


def _log_weights(sft: Subshift, f: LocallyConstantPotential) -> np.ndarray:
    """log L: f(ab) (depth 2) or f(a) (depth 1) on allowed arcs, -inf elsewhere."""
    if f.depth > 2:
        raise ValueError("transfer matrices take potentials of depth <= 2; recode deeper ones")
    logw = np.full((sft.alphabet_size,) * 2, -math.inf)
    for a, succ in enumerate(sft.successors):
        for b in succ:
            logw[a, b] = f.value((a, b)[: f.depth])
    return logw


def build_transfer_matrix(sft: Subshift, f: LocallyConstantPotential) -> TransferMatrix:
    """L = exp(log weights); ValueError when an entry overflows a float
    (f above about 709.78), which the log-space solvers never need."""
    with np.errstate(over="ignore"):
        return TransferMatrix(np.exp(_log_weights(sft, f)), label=sft.label)


# v past the float range reads +-inf, or NaN for inf - inf; no bracket certifies it: RuntimeError
@np.errstate(over="ignore", invalid="ignore")
def _perron(logw: np.ndarray, tol: float) -> Tuple[PressureValue, np.ndarray]:
    """log rho(L), L = exp(logw), within tol (or the rounding floor), as the
    midpoint of a bracket at most 1.98 tol wide, and a log Perron vector v.

    The support (finite logw) must be strongly connected. np.linalg.eig of
    exp(logw - max logw) proposes the Perron pair. For any positive vector
    the Collatz-Wielandt quotients log (L e^v)_i - v_i bracket log rho(L)
    from both sides, so one log-space evaluation certifies the guess. Only
    while the bracket is too wide, or v has entries that are not finite, do
    power steps on L + cI refine v, with c the eig root estimate, then the
    last bracket's midpoint (eig's root underflows when every cycle of
    exp(logw - max logw) does); c near rho damps an eigenvalue near -rho (a
    near-periodic L), which stalls steps on L + I. Rounding the quotients
    sets a floor of 4 eps (max |logw| + max |v|) on the width; where that
    floor exceeds 1.98 tol the bracket stops at it and the reported
    tolerance widens to the floor.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    support = np.isfinite(logw)
    if not is_strongly_connected(support):
        raise ReducibleSystem("transfer matrix is reducible; restrict to an irreducible component")
    top = float(logw[support].max())
    vals, vecs = np.linalg.eig(np.exp(logw - top))
    i = int(np.argmax(vals.real))
    r = vecs[:, i].real * math.copysign(1.0, vecs[:, i].real.sum())
    log_c = math.log(max(vals[i].real, np.finfo(float).tiny)) + top
    with np.errstate(divide="ignore"):
        v = np.log(np.maximum(r, 0.0))
    for _ in range(_PERRON_STEP_CAP + 1):
        Lv = np.logaddexp.reduce(logw + v, axis=1)
        if np.all(np.isfinite(v)):
            lo, hi = float(np.min(Lv - v)), float(np.max(Lv - v))
            floor = 4 * np.finfo(float).eps * float(np.abs(logw[support]).max() + np.abs(v).max())
            if hi - lo <= max(1.98 * tol, floor):
                reported = tol if hi - lo <= 1.98 * tol else floor
                return PressureValue(0.5 * (lo + hi), "spectral", reported), v
            log_c = 0.5 * (lo + hi)
        v = np.logaddexp(Lv, log_c + v)
        v -= v.max()
    raise RuntimeError(f"Perron bracket wider than {1.98 * tol} after {_PERRON_STEP_CAP} power steps")


def spectral_pressure(L: TransferMatrix, tol: float = _PERRON_TOL) -> PressureValue:
    """log of the Perron root of L, with absolute error at most tol (or the
    rounding floor ``_perron`` reports)."""
    with np.errstate(divide="ignore"):
        return _perron(np.log(L.entries), tol)[0]


def _solve(sft: Subshift, f: LocallyConstantPotential):
    """(pressure, builder of the equilibrium measure) of (sft, f) from one
    Perron solve.

    The measure conjugates L by the Perron vector r, P_ab = L_ab r_b /
    (lambda r_a), as a max-shifted row normalization in log space, and
    solves the stationary row exactly. It is built on demand: a transition
    mass below the float range drops an arc (ReducibleSystem) where the
    pressure is still exact.
    """
    logw = _log_weights(sft, f)
    pressure, v = _perron(logw, _PERRON_TOL)

    def measure() -> MarkovMeasure:
        W = np.exp(logw + v - np.max(logw + v, axis=1, keepdims=True))
        P = W / W.sum(axis=1, keepdims=True)
        label = f"equilibrium({sft.label or 'sft'}, {f.label or 'f'})"
        return MarkovMeasure(P, stationary_distribution(P), label=label)

    return pressure, measure


def equilibrium_measure(sft: Subshift, f: LocallyConstantPotential) -> MarkovMeasure:
    """The Gibbs/equilibrium Markov measure of (sft, f); see ``_solve``."""
    return _solve(sft, f)[1]()
