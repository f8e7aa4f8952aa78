"""Cylinder-tree dynamic programs shared by the capacity and cover modules.

Both the separated-set partition function and the optimal-cover value are
functionals over the tree of admissible words, filtered by a subset tracker.
Naively they need one node per word; here the tree is merged through the
observation that a subtree's value depends on the word only through

- the depth d,
- the tracker state z,
- the last r symbols u, with r = max(1, k - 1, sigma),

once the common factor exp(S) is pulled out, where S is the sum of the
potential windows completed inside the word so far. ``subsets.WordLayers``
builds the distinct (u, z) of every depth once, without recursion, so the
whole computation costs O(L * |states| * A) instead of O(A^L). Everything
runs in log space so horizons of thousands of symbols neither overflow nor
underflow.

Each depth's arcs are two numpy arrays of shape (max arity, states): the
child index into the next layer and the window gain, read from one (suffix
x symbol) table. A state with fewer children pads its column with gain
-inf (child 0), which adds nothing to any log-sum-exp. Ball prices and
capacity tail corrections depend on a node only through u (see below), so
they are per-suffix tables too. One fold runs over these arrays in two
directions:

- Backward, for the minimal cover value. Values carry a trailing axis of K
  exponents. Each layer gathers its children's values in one block, adds
  the gains, log-sum-exps over the arity axis and takes the minimum with
  its ball prices, so one pass from the leaves to the root prices K exponents.
- Forward, for the partition functions. Each layer scatters its log prefix
  sums, plus the arc gains, into its children, so one pass from the root
  yields the leaf sum of every depth of a capacity window.

Gains, ball prices, acceptance masks and tail corrections are made once per
distinct layer; depths that repeat one share it. That saves work, no value moves.

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
  so the trailing ones are subtracted from the running sum. t is fixed per
  program, and both corrections read only the last r symbols.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .subsets import SubsetSpec, WordLayers, build_tracker, whole
from .symbolic import NEG_INF, LocallyConstantPotential, Subshift, Word

Relation = Tuple[Tuple[bool, ...], ...]


def _window_gains(
    words: Sequence[Word], live: np.ndarray, f: LocallyConstantPotential
) -> np.ndarray:
    """Per arc (i, b) marked in ``live``, the potential window that appending
    symbol b to ``words[i]`` completes (0 while the word is shorter than a
    window); -inf off the arcs."""
    k = f.depth
    gain = np.full(live.shape, NEG_INF)
    for i, b in np.argwhere(live).tolist():
        gain[i, b] = f.value((words[i] + (b,))[-k:]) if len(words[i]) >= k - 1 else 0.0
    return gain


def extreme_tails(
    sft: Subshift, f: LocallyConstantPotential, rel: Relation, steps: int, want_max: bool
) -> Dict[Word, float]:
    """Per context, the max (min when not ``want_max``) over its
    ``steps``-symbol continuations that follow ``rel`` of the sum of the
    potential windows those symbols complete; -inf where none exists.

    The contexts are the suffix table of the host's word layers with
    r = max(k - 1, 1) (see ``subsets.WordLayers``): every admissible word of
    at most r symbols, the empty one included, which may start with any
    symbol that has a successor in ``rel``. One backward fold of ``steps``
    layers over that table, masked to the arcs of ``rel``, prices every
    context at once, so no recursion bounds ``steps``.
    """
    table = WordLayers(build_tracker(whole(), sft), max(f.depth - 1, 1), 0)
    moves = np.vstack([rel, np.any(rel, axis=1)])  # last row: the empty context
    live = (table.next >= 0) & moves[[u[-1] if u else len(rel) for u in table.words]]
    gain, ends = _window_gains(table.words, live, f), live.any(axis=1)
    pick, pad = (np.max, NEG_INF) if want_max else (np.min, math.inf)
    values = np.zeros(len(table.words))
    for _ in range(steps):  # off the arcs, index -1 reads a value the mask drops
        arcs = np.where(live, gain + values[table.next], pad)
        values = np.where(ends, pick(arcs, axis=1), NEG_INF)
    return dict(zip(table.words, values.tolist()))


class _TreeProgram:
    """The tracked word tree to ``depth``, merged on (last r symbols, tracker state).

    ``layers`` holds the tree (see ``subsets.WordLayers``), with
    r = max(1, k - 1, sigma). ``gains[d]`` (with a length-1 axis for K exponents)
    lines up with ``kids[d]``: the potential window each arc's symbol completes,
    if any (as r >= k - 1, the suffix holds its other symbols), -inf on pads.
    """

    def __init__(
        self,
        sft: Subshift,
        spec: SubsetSpec,
        f: LocallyConstantPotential,
        sigma: int,
        depth: int,
    ):
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        self.host = sft
        self.f = f
        self.sigma = sigma
        self.tracker = build_tracker(spec, sft)
        k = f.depth
        self.layers = tree = WordLayers(self.tracker, max(1, k - 1, sigma), depth)
        gain = _window_gains(tree.words, tree.next >= 0, f)
        self.kids = tree.kids
        self.gains = tree.per_layer(
            lambda suffix, _, syms: np.where(syms >= 0, gain[suffix, syms], NEG_INF)[:, :, None]
        )
        self._prices: Dict[Tuple[Relation, bool], np.ndarray] = {}

    def accepted(self, d: int) -> np.ndarray:
        """Mask of the depth-``d`` states the tracker accepts at depth d."""
        return self.tracker.accepts(self.layers.state[d], d)

    def prices(self, rel: Relation, want_max: bool) -> np.ndarray:
        """Per suffix, the correction turning the in-word window sum of a
        node ending in it into the max (min when not ``want_max``) of
        f_(d - sigma) over continuations that follow ``rel``.

        With steps = k - 1 - sigma > 0 the missing windows are extremized
        over continuations (-inf when none exists); with steps < 0 the
        trailing windows the horizon does not use are subtracted (NaN for
        suffixes too short to be priced, which only depths d <= sigma have).
        """
        key = (rel, want_max)
        if key not in self._prices:
            f, words = self.f, self.layers.words
            k, steps = f.depth, f.depth - 1 - self.sigma
            if steps > 0:  # then r = k - 1, so every suffix is a tail context
                tails = extreme_tails(self.host, f, rel, steps, want_max)
                prices = [tails[u] for u in words]
            elif steps < 0:
                prices = [
                    -sum(f.value(u[len(u) - k - j : len(u) - j]) for j in range(-steps))
                    if len(u) >= self.sigma else math.nan
                    for u in words
                ]
            else:
                prices = [0.0] * len(words)
            self._prices[key] = np.array(prices)
        return self._prices[key]

    @np.errstate(over="ignore")  # a log-space sum past the float range saturates at +-inf
    def fold_forward(self) -> List[np.ndarray]:
        """Per layer, the log of the summed exp(window gains) over the paths
        from the root to each state."""
        prefix = [np.zeros(1)]
        for d in range(len(self.kids)):
            nxt = np.full(len(self.layers.suffix[d + 1]), NEG_INF)
            np.logaddexp.at(nxt, self.kids[d].ravel(), (self.gains[d] + prefix[-1][:, None]).ravel())
            prefix.append(nxt)
        return prefix


@np.errstate(invalid="ignore")  # inf - inf past the float range reads NaN; capacity_pressure rejects it
def leaf_sum_logs(
    sft: Subshift,
    spec: SubsetSpec,
    f: LocallyConstantPotential,
    sigma: int,
    depths: Sequence[int],
) -> List[float]:
    """``leaf_sum_log(sft, spec, f, sigma, d)`` for each d in the increasing
    ``depths``, all read from one forward pass over one tree."""
    if depths[0] < 1:
        raise ValueError("depth must be at least 1")
    if depths[0] - sigma < 1:
        raise ValueError("depth must exceed sigma")
    prog = _TreeProgram(sft, spec, f, sigma, depths[-1])
    prefix = prog.fold_forward()
    prices = np.array([prog.prices(rel, True) for rel in prog.tracker.relations])
    # a tree shares layers only when no part counts a symbol: acceptance ignores d
    made: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    out = []
    for d in depths:
        suffix, state = prog.layers.suffix[d], prog.layers.state[d]
        if id(state) not in made:
            keep = prog.accepted(d)
            # the tail runs over every part the word has not left
            tails = np.where(state[keep] >= 0, prices[:, suffix[keep]].T, NEG_INF).max(axis=1)
            made[id(state)] = keep, tails
        keep, tails = made[id(state)]
        terms = prefix[d][keep] + tails
        out.append(float(np.logaddexp.reduce(terms)) if terms.size else NEG_INF)
    return out


def leaf_sum_log(
    sft: Subshift,
    spec: SubsetSpec,
    f: LocallyConstantPotential,
    sigma: int,
    depth: int,
) -> float:
    """log of the sum over accepted depth-``depth`` words of exp(sup f_h).

    h = depth - sigma. Tail windows beyond the word are extremized over
    continuations inside the target (per the tracker), so for a sub-SFT the
    value is the supremum of f_h over the points of the target in each
    cylinder. Returns -inf when no word is accepted.
    """
    return leaf_sum_logs(sft, spec, f, sigma, (depth,))[0]


class CoverProgram:
    """The map from exponents (s_1, ..., s_K) to the K log minimal cover
    values over the cylinder tree.

    A cover may place a ball at any node of depth d in [d_min, d_max]; the
    ball costs exp(-s * (d - sigma) + F) with F the supremum (infimum when
    ``centered``) of f_(d - sigma) over the node's full cylinder, and it
    covers every accepted leaf at depth d_max below the node. Leaves that the
    tracker rejects need no covering. The value is -inf when nothing is
    accepted (the empty cover costs zero); ``empty`` tells callers that
    consider that an error.

    The program prices the balls of a tree built to d_max once, at
    construction; programs with other windows or pricing can share the
    tree. Each call is one backward fold over the layers for all its
    exponents.
    """

    def __init__(self, tree: _TreeProgram, d_min: int, centered: bool = False):
        d_max, sigma = len(tree.kids), tree.sigma
        if d_min < 1 or d_min > d_max:
            raise ValueError("need 1 <= d_min <= d_max")
        if d_min - sigma < 1:
            raise ValueError("d_min must exceed sigma")
        self._tree = tree
        self._sigma, self._d_min = sigma, d_min
        price = tree.prices(tree.host.allowed, not centered)
        suffix = tree.layers.suffix[d_min:]  # repeated layers share one ball column
        balls = {id(u): price[u][:, None] for u in {id(u): u for u in suffix}.values()}
        self._ball = [balls[id(u)] for u in suffix]
        # an accepted leaf must take its ball, a rejected one needs none
        accepted = tree.accepted(d_max)
        self.empty = not accepted.any()
        self._leaves = np.where(accepted, math.inf, NEG_INF)[:, None]

    @np.errstate(over="ignore", invalid="ignore")  # as fold_forward; a pad on a +inf child reads NaN
    def __call__(self, exponents: Sequence[float]) -> np.ndarray:
        """One backward fold for all ``exponents``: per layer one gather into an
        (arity, states, K) block, one in-place add of the gains, binary log-sum-exps
        over the arity rows in reduce order and one in-place minimum with the balls,
        made once per distinct layer; values equal a per-row fold's bit for bit."""
        neg_s = -np.asarray(exponents, dtype=float)
        kids, gains, ball, d_min = self._tree.kids, self._tree.gains, self._ball, self._d_min
        decay = np.multiply.outer(np.arange(d_min, len(kids) + 1) - self._sigma, neg_s)
        values = np.minimum(decay[-1] + ball[-1], self._leaves)
        for d in range(len(kids) - 1, -1, -1):
            arcs = values[kids[d]]
            arcs += gains[d]
            values = arcs[0] if len(arcs) else np.full(arcs.shape[1:], NEG_INF)  # childless
            for i in range(1, len(arcs)):
                np.logaddexp(values, arcs[i], out=values)
            if d >= d_min:
                # a node takes its ball where that is cheaper than covering its
                # children; exact ties resolve toward the shallower ball, which
                # pins down which cover the DP means
                np.minimum(decay[d - d_min] + ball[d - d_min], values, out=values)
        return values[0]

    def at(self, s: float) -> float:
        """The log minimal cover value at the one exponent s."""
        return float(self([s])[0])


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
    """log of the minimal cover value at one exponent (see ``CoverProgram``)."""
    return CoverProgram(_TreeProgram(sft, spec, f, sigma, d_max), d_min, centered).at(s)
