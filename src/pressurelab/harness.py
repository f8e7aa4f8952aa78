"""Cross-validation harness: variational comparison (cover pressure vs the
measure-pressure supremum, or a frequency band's conditional variational
limit), finite unions, the Gibbs-type ball bound with its negative control,
randomized structural property checks and the Bowen-capacity sub-SFT sweep.

Every report is a deterministic function of (inputs, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bowen import CriticalExponent, bowen_pressure, min_cover_value
from .capacity import capacity_pressure, log_partition_function
from .errors import EmptyTarget
from .measure import _invariant_pressures, exact_invariant_pressure
from .subsets import SubsetSpec, build_tracker, finite_union, sub_sft
from .symbolic import (
    LocallyConstantPotential,
    Scale,
    Subshift,
    enumerate_words,
    full_shift,
    is_strongly_connected,
    strongly_connected_components,
)
from .transfer import MarkovMeasure, PressureValue, _solve, equilibrium_measure, stationary_distribution

_GRID_EPS = 1e-6
_STACK = 256  # most measures one stack holds, so memory is flat in measure_grid
_CONTROL_OFFSET = 0.1  # verify_gibbs_bound's control exponent sits this far above the pressure
_GIBBS_BETAS = (0.05, 0.1)  # verify_gibbs_bound's default offsets below the pressure
_MASS_FLOOR = 1e-150  # doubling the tilt about squares the least transition mass


@dataclass(frozen=True)
class VariationalReport:
    """Two sides of the variational comparison on one target set.

    gap = p_bowen.midpoint - measure_sup. In "compact" mode passed requires
    |gap| within tolerance, the equilibrium measure to top the measure grid,
    and every grid value to respect the cover upper bracket. In
    "compare_only" mode (non-compact targets) the numbers are reported
    without an equality claim and passed records only that the computation
    ran to completion.
    """

    p_bowen: CriticalExponent
    measure_sup: float
    witness: Dict[str, object]
    gap: float
    params: Dict[str, object]
    mode: str
    equilibrium_value: Optional[float]
    spectral_value: Optional[float]
    grid_size: int
    argmax_is_equilibrium: Optional[bool]
    lower_bound_ok: bool
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class UnionReport:
    union_pressure: CriticalExponent
    component_pressures: Tuple[CriticalExponent, ...]
    gap: float
    tolerance: float
    passed: bool
    params: Dict[str, object]


@dataclass(frozen=True)
class GibbsReport:
    """Ball-measure bound sweep: bounded below the pressure, growing above.

    Each row holds the exponent s, the fitted growth slope of the log of
    the worst ratio mu(ball) / exp(-n s + sup f_n), and the largest ratio
    seen. passed requires every below-pressure row bounded and the control
    row (s above the pressure) unbounded.
    """

    pressure: CriticalExponent
    rows: Tuple[Dict[str, float], ...]
    control: Dict[str, float]
    passed: bool
    params: Dict[str, object]
    trace: Tuple[Tuple[int, float], ...] = field(repr=False, default=())


@dataclass(frozen=True)
class PropertyReport:
    trials: int
    seed: int
    failures: Dict[str, Tuple[int, ...]]
    passed: bool


@dataclass(frozen=True)
class AgreementReport:
    """Bowen vs capacity pressure on random irreducible sub-SFTs."""

    trials: int
    seed: int
    rows: Tuple[Dict[str, float], ...]
    max_abs_gap: float
    passed: bool


# ---------------------------------------------------------------------------
# invariant core extraction


def _invariant_core(
    sft: Subshift, spec: SubsetSpec, f: LocallyConstantPotential
) -> Tuple[Subshift, Tuple[int, ...], LocallyConstantPotential, PressureValue,
           Callable[[], MarkovMeasure]]:
    """Restrict a whole-space or sub-SFT target to its top irreducible component.

    Invariant measures on the target live on the strongly connected
    components of the relation its compile follows (the host's or the
    trimmed sub-relation); the variational supremum is attained on the
    component of largest pressure, returned as a standalone subshift
    (symbols relabeled 0..c-1) with its host symbols, the restricted
    potential, its pressure and its equilibrium builder, one Perron solve each.
    """
    if spec.kind not in ("whole", "sub_sft"):
        raise ValueError("invariant-core extraction applies to whole-space or sub-SFT targets")
    (relation,) = build_tracker(spec, sft).relations
    comps = [c for c in strongly_connected_components(relation) if len(c) > 1 or relation[c[0]][c[0]]]
    if not comps:
        raise EmptyTarget("target relation has no recurrent component")

    def core(symbols: Tuple[int, ...]):
        allowed = tuple(tuple(relation[a][b] for b in symbols) for a in symbols)
        sub = Subshift(len(symbols), allowed, label=f"core{list(symbols)}")
        # sub's own words, so the table needs no admissibility check
        table = {w: float(f.value(tuple(symbols[i] for i in w))) for w in enumerate_words(sub, f.depth)}
        f_sub = LocallyConstantPotential(f.depth, table, label=f.label)
        return (sub, tuple(symbols), f_sub, *_solve(sub, f_sub))

    return max(map(core, comps), key=lambda c: c[3].value)


def _embed_measure(
    mu: MarkovMeasure, symbols: Tuple[int, ...], alphabet_size: int
) -> MarkovMeasure:
    """Express a component measure on the host alphabet (zero mass outside).

    Rows of uncharged symbols get a self-loop to stay row-stochastic; they
    carry no mass and never influence pressure values.
    """
    P = np.eye(alphabet_size)
    pi = np.zeros(alphabet_size)
    pi[list(symbols)] = mu.initial
    P[np.ix_(symbols, symbols)] = mu.transition  # overwrites the core's self-loops
    return MarkovMeasure(P, pi, label=mu.label)


def _dirichlet_markov(sub: Subshift, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` random row-stochastic matrices supported exactly on sub's
    arcs, as a (count, c, c) stack: one exponential draw laid on the arcs in
    row-major order, each row times 1 / its left-to-right sum (off-arc zeros
    add exactly 0.0). That is numpy's all-ones ``dirichlet``, row by row, bit
    for bit, and it leaves the generator where the per-row calls would."""
    arcs = np.array(sub.allowed, dtype=bool)
    P = np.zeros((count,) + arcs.shape)
    P[:, arcs] = rng.standard_exponential((count, int(arcs.sum())))
    P *= 1.0 / np.cumsum(P, axis=2)[:, :, -1:]
    degree = arcs.sum(axis=1, keepdims=True)
    return np.where(arcs, (P + _GRID_EPS) / (1.0 + degree * _GRID_EPS), 0.0)


def _measure_description(mu: MarkovMeasure) -> Dict[str, object]:
    def rounded(xs):
        return [round(float(x), 12) for x in xs]
    return {"label": mu.label, "initial": rounded(mu.initial), "transition": list(map(rounded, mu.transition))}


# ---------------------------------------------------------------------------
# variational comparison


def verify_variational(
    sft: Subshift,
    K: SubsetSpec,
    f: LocallyConstantPotential,
    scale: Scale,
    N: int,
    L: int,
    tol: float,
    measure_grid: int = 200,
    seed: int = 0,
) -> VariationalReport:
    """Compare the cover pressure of K with the measure-pressure supremum.

    Compact invariant targets (whole space or sub-SFT): the supremum runs
    over the equilibrium measure of the target's top irreducible component
    and ``measure_grid`` Dirichlet chains on it, priced in stacks of at most
    _STACK (one stationary solve, one pressure call each); passing requires
    agreement within tol, the equilibrium measure on top of the grid, and
    every grid value below the cover value's upper bracket.

    Frequency targets are not compact or invariant, so no equality is
    asserted (mode "compare_only"): measure_sup is the limit of the band's
    cover pressure by the conditional variational principle, with the tilted
    equilibrium measure that attains it as witness (``_band_reference``).
    """
    if K.kind == "finite_union":
        raise ValueError("variational comparison takes a single target; check unions with verify_unions")
    bisect_tol = min(tol / 4.0, 1e-3)
    p_bowen = bowen_pressure(sft, K, f, scale, N, L, tol=bisect_tol)
    params: Dict[str, object] = {
        "N": N,
        "L": L,
        "m": scale.m,
        "tol": tol,
        "measure_grid": measure_grid,
        "seed": seed,
        "target": K.label,
    }
    values: List[float] = []  # grid values; a frequency band has none
    if K.kind == "frequency_level":
        measure_sup, witness = _band_reference(sft, K, f)
        mode, eq_value, spectral_value, argmax_ok = "compare_only", None, None, None
    else:
        rng = np.random.default_rng(seed)
        # on the core: its symbols keep their host order, so every sum runs
        # over the same terms in the same order as on the host embedding
        sub, symbols, f_sub, spectral, equilibrium = _invariant_core(sft, K, f)
        eq_sub = equilibrium()
        eq_value = exact_invariant_pressure(eq_sub, f_sub)
        for i in range(0, measure_grid, _STACK):
            P = _dirichlet_markov(sub, rng, min(_STACK, measure_grid - i))
            values += _invariant_pressures(stationary_distribution(P), P, f_sub).tolist()
        measure_sup = max([eq_value] + values)
        argmax_ok = bool(eq_value >= max(values, default=-math.inf) - 1e-9)
        witness = _measure_description(_embed_measure(eq_sub, symbols, sft.alphabet_size))
        mode, spectral_value = "compact", spectral.value
    lower_ok = measure_sup <= p_bowen.s_high + tol
    gap = p_bowen.midpoint - measure_sup
    return VariationalReport(
        p_bowen=p_bowen,
        measure_sup=measure_sup,
        witness=witness,
        gap=gap,
        params=params,
        mode=mode,
        equilibrium_value=eq_value,
        spectral_value=spectral_value,
        grid_size=len(values),
        argmax_is_equilibrium=argmax_ok,
        lower_bound_ok=bool(lower_ok),
        tolerance=tol,
        # compare_only reports the numbers without an equality claim
        passed=mode == "compare_only" or bool(abs(gap) <= tol and argmax_ok and lower_ok),
    )


def _band_reference(
    sft: Subshift, K: SubsetSpec, f: LocallyConstantPotential
) -> Tuple[float, Dict[str, object]]:
    """The band's pressure limit, max over alpha in the band of Lambda(alpha)
    = inf_t [P(f + t 1_a) - t alpha] (conditional variational principle), and
    its witness. Lambda is concave with top P(f) at f's equilibrium frequency
    alpha0 of a, so the max is h(mu_t) + int f dmu_t with mu_t the equilibrium
    measure of f + t 1_a: t = 0 if the band holds alpha0, else the t whose
    frequency of a is the band edge nearest alpha0. That frequency increases
    with t, so |t| doubles from 1 until it reaches the edge, then bisects to
    adjacent floats. Doubling stops once a transition mass is below
    _MASS_FLOOR: an edge at the host's extreme frequency ends there. A band
    past that extreme (Karp's cycle mean) is EmptyTarget. Needs depth <= 2
    and an irreducible host, as ``equilibrium_measure`` does."""
    a, lo, hi, n = K.symbol, K.target - K.window, K.target + K.window, sft.alphabet_size
    arcs = np.array(sft.allowed, dtype=bool)

    def tilted(t: float) -> MarkovMeasure:
        table = {w: v + t * (w[0] == a) for w, v in f.table.items()}
        return equilibrium_measure(sft, LocallyConstantPotential(f.depth, table, f"{f.label} {t:+}*1[{a}]"))

    mu = tilted(0.0)
    sign = int(mu.initial[a] < lo) - int(mu.initial[a] > hi)  # the side the band lies on
    t_short, t, edge = 0.0, float(sign), lo if sign > 0 else hi
    if sign:
        gain = np.where(arcs, sign * (np.arange(n) == a)[:, None], -math.inf)
        walks = [np.zeros(n)]  # Karp: walks[j][v] is the largest gain of a j-step walk into v
        for _ in range(n):
            walks.append((walks[-1][:, None] + gain).max(axis=0))
        if sign * edge > ((walks[n] - np.array(walks[:n])) / np.arange(n, 0, -1)[:, None]).min(axis=0).max():
            raise EmptyTarget(f"no invariant measure has a frequency of symbol {a} in [{lo}, {hi}]")
        mu = tilted(t)
        for _ in range(64):  # a bound: a huge potential can absorb the tilt
            if sign * (mu.initial[a] - edge) >= 0 or mu.transition[arcs].min() < _MASS_FLOOR:
                break
            t_short, t = t, 2.0 * t
            mu = tilted(t)
    # past the edge (not on it): bisect down to adjacent floats
    while sign * (mu.initial[a] - edge) > 0 and (mid := 0.5 * (t_short + t)) not in (t_short, t):
        nu = tilted(mid)
        if sign * (nu.initial[a] - edge) < 0:
            t_short = mid
        else:
            t, mu = mid, nu
    return exact_invariant_pressure(mu, f), {**_measure_description(mu), "tilt": t}


# ---------------------------------------------------------------------------
# finite unions


def _union_brackets_ok(
    union: CriticalExponent, parts: Sequence[CriticalExponent], N: int, scale: Scale
) -> bool:
    """The union's upper bracket is at least every part's lower bracket
    (covers of the union cover each part), and its lower bracket is at most
    the largest part upper bracket plus log(r)/(N+m) for r parts
    (subadditivity of cover values under unions)."""
    slack = math.log(len(parts)) / (N + scale.m)
    return union.s_high >= max(p.s_low for p in parts) - 1e-12 and (
        union.s_low <= max(p.s_high for p in parts) + slack + 1e-12
    )


def verify_unions(
    sft: Subshift,
    components: Sequence[SubsetSpec],
    f: LocallyConstantPotential,
    scale: Scale,
    N: int,
    L: int,
    tol: float = 1e-3,
) -> UnionReport:
    """Cover pressure of a finite union against the max over components.

    Passing requires |union - max| <= 2 tol plus the two bracket-level facts
    of ``_union_brackets_ok``, which hold exactly at finite depth.
    """
    if len(components) < 2:
        raise ValueError("need at least two components")
    if len({replace(c, label="") for c in components}) < len(components):
        raise ValueError("components must be pairwise distinct")
    union_spec = finite_union(*components)
    b_union = bowen_pressure(sft, union_spec, f, scale, N, L, tol=tol)
    parts = tuple(
        bowen_pressure(sft, c, f, scale, N, L, tol=tol) for c in components
    )
    best = max(p.midpoint for p in parts)
    gap = b_union.midpoint - best
    passed = abs(gap) <= 2 * tol and _union_brackets_ok(b_union, parts, N, scale)
    return UnionReport(
        union_pressure=b_union,
        component_pressures=parts,
        gap=gap,
        tolerance=tol,
        passed=bool(passed),
        params={"N": N, "L": L, "m": scale.m, "tol": tol, "parts": len(parts)},
    )


# ---------------------------------------------------------------------------
# ball-measure bound with negative control


def verify_gibbs_bound(
    sft: Subshift,
    K: SubsetSpec,
    f: LocallyConstantPotential,
    scale: Scale,
    N: int,
    L: int,
    betas: Sequence[float] = _GIBBS_BETAS,
) -> GibbsReport:
    """Check mu(B_n) <= C exp(-n s + sup f_n) below the pressure.

    mu is the equilibrium measure of the target's top component. For each
    horizon n the worst-case log ratio over all admissible center words is
    computed exactly by dynamic programming; the bound holds with one finite
    constant exactly when the ratio stops growing, so the decidable check is
    a growth-slope fit over the deeper half of the horizon window. Exponents
    s = pressure - beta must come out bounded; the control at
    s = pressure + _CONTROL_OFFSET must not.
    """
    if any(b <= 0 for b in betas):
        raise ValueError("betas must be positive")
    n_lo = max(1, N)
    n_hi = L - scale.m
    if n_hi - n_lo < 7:
        raise ValueError("need at least 8 horizons: increase L or decrease N")
    p_est = bowen_pressure(sft, K, f, scale, N, L, tol=1e-3)
    sub, _, f_sub, _, equilibrium = _invariant_core(sft, K, f)
    mu = equilibrium()

    ns = np.arange(n_lo, n_hi + 1)
    base = np.array(_worst_log_ratios(sub, mu, f_sub, ns, scale))
    tail = slice(len(ns) // 2, None)  # the deeper half of the window
    xs = ns[tail].astype(float)

    def row_for(s: float) -> Dict[str, float]:
        shifted = base + ns * s
        slope = float(np.polyfit(xs, shifted[tail], 1)[0])
        return {
            "s": s,
            "slope": slope,
            "max_log_ratio": max(shifted.tolist()),  # a list's max, which a NaN need not win
            "bounded": bool(slope <= 0.01),
        }

    rows = tuple(row_for(p_est.midpoint - b) for b in betas)
    control = row_for(p_est.midpoint + _CONTROL_OFFSET)
    passed = all(r["bounded"] for r in rows) and not control["bounded"]
    trace = tuple(zip(ns.tolist(), (base + ns * rows[0]["s"]).tolist()))
    return GibbsReport(
        pressure=p_est,
        rows=rows,
        control=control,
        passed=bool(passed),
        params={
            "N": N,
            "L": L,
            "m": scale.m,
            "betas": tuple(betas),
            "control_offset": _CONTROL_OFFSET,
            "target": K.label,
        },
        trace=trace,
    )


def _worst_log_ratios(
    sub: Subshift,
    mu: MarkovMeasure,
    f: LocallyConstantPotential,
    ns: Sequence[int],
    scale: Scale,
) -> List[float]:
    """For each horizon n of the increasing ``ns``, the max over center
    words w of length n+m of log mu([w]) - sup_[w] f_n.

    One max-plus forward pass weighs every window up to horizon max(ns);
    each horizon continues from its step by the m - k + 1 remaining
    transitions of log P alone, blocks of horizons in one stack. A step is
    V'[b] = max_a V[a] + G[a, b] for a gain matrix G built once, -inf off
    the arcs of ``sub``. Needs f.depth <= m + 1 so the word determines its
    own n-term sum.
    """
    k = f.depth
    if k > scale.m + 1:
        raise ValueError("potential depth exceeds m + 1; sup f_n not word-determined")
    arcs = np.array(sub.allowed, dtype=bool)
    with np.errstate(divide="ignore"):
        logP = np.where(mu.transition > 0, np.log(mu.transition), -math.inf)
        logpi = np.where(mu.initial > 0, np.log(mu.initial), -math.inf)
    # fw[a] (k = 1) or fw[a, b] (k = 2): f on the windows of sub, its table's keys
    fw = np.zeros(arcs.shape[:k])
    fw[tuple(np.array(list(f.table)).T)] = list(f.table.values())
    weigh = np.where(arcs, logP - (fw if k == 2 else fw[None, :]), -math.inf)
    plain = np.where(arcs, logP, -math.inf)

    # weighed[t] has taken t steps and holds the first t + 2 - k windows
    weighed = np.empty((ns[-1] + k - 1, len(logpi)))
    weighed[0] = logpi - fw if k == 1 else logpi
    for t in range(1, len(weighed)):
        weighed[t] = (weighed[t - 1][:, None] + weigh).max(axis=0)
    V = weighed[np.add(ns, k - 2)]  # (horizons x states)
    block = max(1, 2 ** 13 // plain.size)  # horizons per step: a temporary of at most 64 kB, or one horizon
    for i in range(0, len(V), block):
        for _ in range(scale.m - k + 1):
            V[i : i + block] = (V[i : i + block, :, None] + plain).max(axis=1)
    return V.max(axis=1).tolist()


# ---------------------------------------------------------------------------
# randomized structural properties


def property_suite(seed: int, trials: int) -> PropertyReport:
    """Randomized structural checks on nested and united random targets.

    Per trial: monotonicity of the partition function and of the cover
    value under target inclusion, scale monotonicity of the partition
    function, union bounds for the partition function (max below, sum
    above), bracket-level union behavior of the critical exponent, and the
    cover-vs-capacity inequality on the larger target. All comparisons are
    exact up to float slack except the last, which carries an explicit
    finite-depth tolerance.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    failures: Dict[str, List[int]] = {
        "partition_monotone": [],
        "scale_monotone": [],
        "cover_monotone": [],
        "union_partition_bounds": [],
        "union_bracket": [],
        "bowen_below_capacity": [],
    }
    for t in range(trials):
        k = int(rng.integers(2, 4))
        host = full_shift(k)
        r2 = _random_relation_with_loop(k, rng)
        r1 = _thin_relation(r2, rng)
        z1, z2 = sub_sft(r1), sub_sft(r2)
        f = _random_potential(host, rng, depth_cap=2, amplitude=0.5)
        s = float(rng.uniform(0.0, 1.2))
        m1 = Scale(1)

        lp1 = log_partition_function(host, z1, f, 6, m1)
        lp2 = log_partition_function(host, z2, f, 6, m1)
        if lp1 > lp2 + 1e-9:
            failures["partition_monotone"].append(t)

        lp2_fine = log_partition_function(host, z2, f, 6, Scale(2))
        if lp2 > lp2_fine + 1e-9:
            failures["scale_monotone"].append(t)

        v1 = min_cover_value(host, z1, f, s, 2, m1, 8)
        v2 = min_cover_value(host, z2, f, s, 2, m1, 8)
        if v1 > v2 * (1 + 1e-9):
            failures["cover_monotone"].append(t)

        union = finite_union(z1, z2)
        lpu = log_partition_function(host, union, f, 6, m1)
        if lpu > np.logaddexp(lp1, lp2) + 1e-9 or lpu < max(lp1, lp2) - 1e-9:
            failures["union_partition_bounds"].append(t)

        bt = 2e-3
        b1 = bowen_pressure(host, z1, f, m1, 2, 12, tol=bt)
        b2 = bowen_pressure(host, z2, f, m1, 2, 12, tol=bt)
        bu = bowen_pressure(host, union, f, m1, 2, 12, tol=bt)
        if not _union_brackets_ok(bu, (b1, b2), 2, m1):
            failures["union_bracket"].append(t)

        # Reducible targets carry an O(1) log-prefactor c in their partition
        # function, and the finite-depth crossing sits near slope + c/L, so
        # the depth budget here has to be generous for a 5e-2 slack to hold.
        cap = capacity_pressure(host, z2, f, m1, (20, 44))
        bow = bowen_pressure(host, z2, f, m1, 3, 80, tol=1e-3)
        if bow.midpoint > cap.slope + 5e-2:
            failures["bowen_below_capacity"].append(t)

    frozen = {k2: tuple(v) for k2, v in failures.items()}
    return PropertyReport(
        trials=trials,
        seed=seed,
        failures=frozen,
        passed=all(not v for v in frozen.values()),
    )


def random_invariant_agreement(seed: int, trials: int = 20) -> AgreementReport:
    """Bowen vs capacity pressure on random irreducible sub-SFTs.

    Each trial draws a strongly connected sub-relation of a full shift on 2
    or 3 symbols and a random potential of depth <= 2 with amplitude <= 0.3,
    then requires |bowen - capacity| <= 2e-2 with the Bowen side not above
    the capacity side beyond the same tolerance.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    rows: List[Dict[str, float]] = []
    for t in range(trials):
        k = int(rng.integers(2, 4))
        host = full_shift(k)
        rel = _random_irreducible_relation(k, rng)
        spec = sub_sft(rel)
        f = _random_potential(host, rng, depth_cap=2, amplitude=0.3)
        cap = capacity_pressure(host, spec, f, Scale(1), (24, 48))
        bow = bowen_pressure(host, spec, f, Scale(1), 4, 100, tol=1e-4)
        gap = bow.midpoint - cap.slope
        ok = abs(gap) <= 2e-2 and gap <= 2e-2
        rows.append(
            {
                "trial": t,
                "alphabet": k,
                "bowen": bow.midpoint,
                "capacity": cap.slope,
                "gap": gap,
                "ok": bool(ok),
            }
        )
    return AgreementReport(
        trials=trials,
        seed=seed,
        rows=tuple(rows),
        max_abs_gap=max(abs(r["gap"]) for r in rows),
        passed=all(r["ok"] for r in rows),
    )


# ---------------------------------------------------------------------------
# random generators shared by the suites


def _random_relation_with_loop(k: int, rng: np.random.Generator):
    rel = rng.random((k, k)) < 0.75
    a0 = int(rng.integers(k))
    rel[a0, a0] = True
    return tuple(tuple(bool(x) for x in row) for row in rel)


def _thin_relation(rel, rng: np.random.Generator):
    k = len(rel)
    keep = [a for a in range(k) if rel[a][a]]
    a0 = keep[int(rng.integers(len(keep)))]
    out = [list(row) for row in rel]
    for a in range(k):
        for b in range(k):
            if out[a][b] and not (a == a0 and b == a0) and rng.random() < 0.3:
                out[a][b] = False
    return tuple(tuple(row) for row in out)


def _random_irreducible_relation(k: int, rng: np.random.Generator):
    for _ in range(200):
        rel = rng.random((k, k)) < 0.7
        as_tuple = tuple(tuple(bool(x) for x in row) for row in rel)
        if is_strongly_connected(as_tuple):
            return as_tuple
    return full_shift(k).allowed


def _random_potential(
    sft: Subshift,
    rng: np.random.Generator,
    depth_cap: int,
    amplitude: float,
) -> LocallyConstantPotential:
    depth = int(rng.integers(1, depth_cap + 1))
    table = {w: float(rng.uniform(-amplitude, amplitude)) for w in enumerate_words(sft, depth)}
    return LocallyConstantPotential(depth, table, label=f"random-depth-{depth}")
