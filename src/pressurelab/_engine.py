"""Cylinder-tree dynamic programs shared by the capacity and cover modules.

Both the separated-set partition function and the optimal-cover value are
functionals over the tree of admissible words, filtered by a subset tracker.
Naively they need one node per word; here the tree is merged through the
observation that a subtree's value depends on the word only through

- the depth d,
- the tracker state z,
- the last r symbols u, with r = max(1, k - 1, sigma),

once the common factor exp(S) is pulled out, where S is the sum of the
potential windows completed inside the word so far. ``symbolic.layers``
builds the distinct (z, u) of every depth once, and each value is a fold
from the deepest layer to the root, so the whole computation costs
O(L * |states| * A) instead of O(A^L) and needs no recursion. Everything runs
in log space so horizons of thousands of symbols neither overflow nor
underflow.

Conventions used throughout:

- A node at depth d carries the horizon h = d - sigma. Cover terms weigh a
  node as exp(-s * h + extreme of f_h over the node's cylinder); partition
  leaves weigh as exp(extreme of f_h). ``sigma`` is 0 for ball covers (the
  ball of horizon n at scale m is the depth n + m cylinder, priced at its
  full depth), q - 1 for string covers over a depth-q partition, and m - 1
  for (n, 2^-m)-separated sums.
- With t = k - 1 - sigma, a depth-d node determines all but t of the h
  windows: t > 0 tail windows are extremized over admissible continuations,
  and t < 0 means the word determines more windows than the horizon needs,
  so the trailing ones are subtracted from the running sum.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

from .subsets import SubsetSpec, build_tracker, target_steps
from .symbolic import NEG_INF, LocallyConstantPotential, Subshift, Word, extreme_tail, layers

Relation = Tuple[Tuple[bool, ...], ...]


def _logsumexp(values: List[float]) -> float:
    top = max(values)
    if top == NEG_INF:
        return NEG_INF
    return top + math.log(sum(math.exp(v - top) for v in values))


class _TreeProgram:
    """The tracked word tree to ``depth``, merged on (tracker state, last r symbols).

    ``states[d]`` lists the distinct (z, u) of depth d and ``arcs[d][i]``
    holds one (window gain, child index) pair per child of ``states[d][i]``,
    in symbol order; the gain is the potential window the child's symbol
    completes, if any (as r >= k - 1, u holds that window's other symbols).
    """

    def __init__(
        self,
        sft: Subshift,
        spec: SubsetSpec,
        f: LocallyConstantPotential,
        sigma: int,
        want_max: bool,
        depth: int,
    ):
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        self.f = f
        self.sigma = sigma
        self.want_max = want_max
        self.tracker = tracker = build_tracker(spec, sft)
        k = f.depth
        r = max(1, k - 1, sigma)

        def step(state):
            z, u = state
            children = target_steps(sft, tracker, z, u[-1] if u else None)
            return [
                ((f.value(w[-k:]) if len(w) >= k else 0.0), (z2, w[-r:]))
                for w, z2 in [(u + (b,), z2) for b, z2 in children]
            ]

        self.states, self.arcs = layers((tracker.initial(), ()), step, depth)
        self._tails: Dict[Tuple[Tuple[Tuple[int, ...], ...], Word, int], float] = {}

    def term_adjust(self, d: int, u: Word, rels: Sequence[Relation]) -> float:
        """Correction turning the in-word window sum into extreme f_(d - sigma).

        Positive-step case extends over continuations; negative case removes
        trailing windows the horizon does not use; returns -inf if no
        admissible continuation exists in any offered relation.
        """
        k = self.f.depth
        h = d - self.sigma
        if h < 1:
            raise ValueError(f"depth {d} gives nonpositive horizon with sigma {self.sigma}")
        in_word = max(0, d - k + 1)
        steps = h - in_word
        if steps > 0:
            ctx = u[-max(k - 1, 1):]
            vals = []
            for rel in rels:
                succ = tuple(tuple(b for b, ok in enumerate(row) if ok) for row in rel)
                key = (succ, ctx, steps)
                if key not in self._tails:
                    self._tails[key] = extreme_tail(succ, self.f, ctx, steps, self.want_max)
                vals.append(self._tails[key])
            return max(vals) if self.want_max else min(vals)
        if steps < 0:
            # subtract the last (-steps) windows, all determined by u
            total = 0.0
            L = len(u)
            for j in range(-steps):
                total += self.f.value(u[L - k - j : L - j])
            return -total
        return 0.0

    def fold(self, depth: int, values: List[float], clamp=None) -> float:
        """Log-sum-exp layer ``depth``'s values up to the root; ``clamp(d,
        values)``, if given, may lower each layer's values once summed."""
        for d in range(depth - 1, -1, -1):
            values = [
                _logsumexp([g + values[j] for g, j in row]) if row else NEG_INF
                for row in self.arcs[d]
            ]
            if clamp is not None:
                values = clamp(d, values)
        return values[0]


def leaf_sum_program(
    sft: Subshift,
    spec: SubsetSpec,
    f: LocallyConstantPotential,
    sigma: int,
    depth: int,
    want_max: bool = True,
) -> Callable[[int], float]:
    """The map d -> ``leaf_sum_log(sft, spec, f, sigma, d, want_max)`` for
    sigma < d <= ``depth``: the tree is built once, each call folds it."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth - sigma < 1:
        raise ValueError("depth must exceed sigma")
    prog = _TreeProgram(sft, spec, f, sigma, want_max, depth)
    tracker = prog.tracker

    def log_sum(d: int) -> float:
        return prog.fold(d, [
            prog.term_adjust(d, u, tracker.extension_relations(z))
            if tracker.accepts(z, d) else NEG_INF
            for z, u in prog.states[d]
        ])

    return log_sum


def leaf_sum_log(
    sft: Subshift,
    spec: SubsetSpec,
    f: LocallyConstantPotential,
    sigma: int,
    depth: int,
    want_max: bool = True,
) -> float:
    """log of the sum over accepted depth-``depth`` words of exp(extreme f_h).

    h = depth - sigma. Tail windows beyond the word are extremized over
    continuations inside the target (per the tracker), so for a sub-SFT the
    value is the supremum of f_h over the points of the target in each
    cylinder. Returns -inf when no word is accepted.
    """
    return leaf_sum_program(sft, spec, f, sigma, depth, want_max)(depth)


def cover_program(
    sft: Subshift,
    spec: SubsetSpec,
    f: LocallyConstantPotential,
    sigma: int,
    d_min: int,
    d_max: int,
    centered: bool = False,
) -> Callable[[float], float]:
    """The map s -> log of the minimal cover value over the cylinder tree.

    A cover may place a ball at any node of depth d in [d_min, d_max]; the
    ball costs exp(-s * (d - sigma) + F) with F the supremum (infimum when
    ``centered``) of f_(d - sigma) over the node's full cylinder, and it
    covers every accepted leaf at depth d_max below the node. Leaves that the
    tracker rejects need no covering. The value is -inf when nothing is
    accepted (the empty cover costs zero); callers that consider that an
    error should check emptiness beforehand.

    The tree and every ball's F are computed here, once; each call of the
    returned map is one fold over the layers.
    """
    if d_min < 1 or d_min > d_max:
        raise ValueError("need 1 <= d_min <= d_max")
    if d_min - sigma < 1:
        raise ValueError("d_min must exceed sigma")
    prog = _TreeProgram(sft, spec, f, sigma, not centered, d_max)
    host_rels = (sft.allowed,)
    ball = {
        d: [prog.term_adjust(d, u, host_rels) for _, u in prog.states[d]]
        for d in range(d_min, d_max + 1)
    }
    # an accepted leaf must take its ball, a rejected one needs none
    leaves = [
        math.inf if prog.tracker.accepts(z, d_max) else NEG_INF
        for z, _ in prog.states[d_max]
    ]

    def log_value(s: float) -> float:
        def cover_by_ball(d: int, values: List[float]) -> List[float]:
            if d < d_min:
                return values
            price = -s * (d - sigma)
            # exact ties resolve toward the shallower ball; the value is the
            # same either way, this just pins down which cover the DP means
            return [min(price + F, v) for v, F in zip(values, ball[d])]

        return prog.fold(d_max, cover_by_ball(d_max, leaves), cover_by_ball)

    return log_value


def cover_min_log(
    sft: Subshift,
    spec: SubsetSpec,
    f: LocallyConstantPotential,
    s: float,
    sigma: int,
    d_min: int,
    d_max: int,
    centered: bool = False,
) -> float:
    """log of the minimal cover value at one exponent (see ``cover_program``)."""
    return cover_program(sft, spec, f, sigma, d_min, d_max, centered)(s)
