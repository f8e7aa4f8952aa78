"""Cylinder-tree dynamic programs shared by the capacity and cover modules.

Both the separated-set partition function and the optimal-cover value are
functionals over the tree of admissible words, filtered by a subset tracker.
Naively they need one node per word; here the tree is merged through the
observation that a subtree's value depends on the word only through

- the depth d,
- the tracker state z,
- the last r symbols u,

once the common factor exp(S) is pulled out, where S is the sum of the
potential windows completed inside the word so far. The suffix must hold
the other k - 1 symbols of the next window, the sigma symbols the prices
read (see below) and, when some part's moves depend on it, the last
symbol: r = max(k - 1, sigma, 1 if so else 0). On a full shift with a
depth-1 potential and sigma = 0 that is r = 0, and a node is its tracker
state alone; a band's layer is then an interval of counts, made without a
sort. The capacity and cover folds of a target read this one tree.
``subsets.WordLayers`` builds the distinct (u, z) of every depth once,
without recursion, so the whole computation costs O(L * |states| * A)
instead of O(A^L). Everything runs in log space so horizons of thousands of
symbols neither overflow nor underflow.

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
  its ball thresholds, so one pass from the leaves to the root prices K
  exponents. A pass widens the gains of each layer that several depths
  repeat to its K exponents once, so their depths add same-shape arrays,
  and makes the thresholds per block of at most 32 depths, with one add
  for all the depths of the block that share a ball column.
- Forward, for the partition functions. Each layer scatters its log prefix
  sums, plus the arc gains, into its children, so one pass from the root
  yields the leaf sum of every depth of a capacity window.

Gains, arity rows, ball prices, acceptance masks and tail corrections are
made once per distinct layer and read through ``WordLayers.at``; the gains
of all layers come from one lookup over the tree's arcs, each layer's a view
of that array. That saves work, no value moves.

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
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .subsets import SubsetSpec, WordLayers, build_tracker, suffix_table
from .symbolic import NEG_INF, LocallyConstantPotential, Subshift, Word

Relation = Tuple[Tuple[bool, ...], ...]

_BLOCK = 32  # most depths whose ball thresholds a cover fold holds at once
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _value_from_log(value: float) -> float:
    """A cover or partition value from its log, the one way out of log
    space: 0.0 at -inf, inf past the float range."""
    return math.exp(value) if value <= _LOG_FLOAT_MAX else math.inf


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

    The contexts are the host's suffix table (``subsets.suffix_table``) with
    r = max(k - 1, 1), read off the host relation alone: every admissible
    word of at most r symbols, the empty one included, which may start with
    any symbol that has a successor in ``rel``. One backward fold of
    ``steps`` layers over that table, masked to the arcs of ``rel``, prices
    every context at once, so no recursion bounds ``steps``.
    """
    words, nxt = suffix_table((*sft.allowed, tuple(map(any, sft.allowed))), max(f.depth - 1, 1))
    moves = np.vstack([rel, np.any(rel, axis=1)])  # last row: the empty context
    live = (nxt >= 0) & moves[[u[-1] if u else len(rel) for u in words]]
    gain, ends = _window_gains(words, live, f), live.any(axis=1)
    pick, pad = (np.max, NEG_INF) if want_max else (np.min, math.inf)
    values = np.zeros(len(words))
    for _ in range(steps):  # off the arcs, index -1 reads a value the mask drops
        arcs = np.where(live, gain + values[nxt], pad)
        values = np.where(ends, pick(arcs, axis=1), NEG_INF)
    return dict(zip(words, values.tolist()))


class _TreeProgram:
    """The tracked word tree to ``depth``, merged on (last r symbols, tracker state).

    ``layers`` holds the tree (see ``subsets.WordLayers``) less its ``arcs``,
    which only the gains read, with r = max(k - 1, sigma, 1 if some part's
    moves depend on the last symbol else 0); capacity and cover build one tree.
    ``gains[i]`` (with a length-1 axis for K exponents) lines up with
    ``layers.kids[i]``, and depth d reads ``gains[at[d]]``: the potential
    window each arc's symbol completes, if any (as r >= k - 1, the suffix
    holds its other symbols), -inf on pads. One lookup of the (suffix x
    symbol) gain table over ``layers.arcs`` makes them all, each layer's a
    view of that array.
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
        r = max(int(self.tracker.reads_last), f.depth - 1, sigma)
        self.layers = tree = WordLayers(self.tracker, r, depth)
        self.depth = depth
        # one lookup over every layer's arcs: a pad's symbol -1 reads column k, and
        # an arc its parent's suffix row, with one suffix (r = 0) row 0
        gain = _window_gains(tree.words, tree.next >= 0, f)
        gain = np.hstack([gain, np.full((len(gain), 1), NEG_INF)])
        parents = np.concatenate([tree.suffix[0][:0], *tree.suffix[: len(tree.cuts)]]) if len(gain) > 1 else 0
        arcs = gain[parents, tree.arcs][:, :, None]
        self.gains = [arcs[:w, s:e] for w, s, e in tree.cuts]
        tree.arcs = None  # 9.4 MB of the L=1600 band tree that nothing reads again

    def accepted(self, d: int) -> np.ndarray:
        """Mask of the depth-``d`` states the tracker accepts at depth d."""
        return self.tracker.accepts(self.layers.state[self.layers.at[d]], d)

    def prices(self, rel: Relation, want_max: bool) -> np.ndarray:
        """Per suffix, the correction turning the in-word window sum of a
        node ending in it into the max (min when not ``want_max``) of
        f_(d - sigma) over continuations that follow ``rel``.

        With steps = k - 1 - sigma > 0 the missing windows are extremized
        over continuations (-inf when none exists); with steps < 0 the
        trailing windows the horizon does not use are subtracted (NaN for
        suffixes too short to be priced, which only depths d <= sigma have).
        """
        f, words = self.f, self.layers.words
        k, steps = f.depth, f.depth - 1 - self.sigma
        if steps > 0:  # then r = k - 1, so every suffix is a tail context
            tails = extreme_tails(self.host, f, rel, steps, want_max)
            return np.array([tails[u] for u in words])
        if steps < 0:
            return np.array([-sum(f.value(u[len(u) - k - j : len(u) - j]) for j in range(-steps))
                             if len(u) >= self.sigma else math.nan for u in words])
        return np.zeros(len(words))

    @np.errstate(over="ignore")  # a log-space sum past the float range saturates at +-inf
    def fold_forward(self) -> List[np.ndarray]:
        """Per layer, the log of the summed exp(window gains) over the paths
        from the root to each state. Per pass each distinct layer ravels its
        kids and gains and makes the -inf row its depths copy and scatter into."""
        at, suffix = self.layers.at, self.layers.suffix
        flat = [  # layer i, as built, is depth i's
            (kids.ravel(), gains[:, :, 0], np.full(len(suffix[at[i + 1]]), NEG_INF))
            for i, (kids, gains) in enumerate(zip(self.layers.kids, self.gains))
        ]
        prefix = [np.zeros(1)]
        for i in at[:-1]:
            kids, gains, row = flat[i]
            nxt = row.copy()
            np.logaddexp.at(nxt, kids, (gains + prefix[-1]).ravel())
            prefix.append(nxt)
        return prefix


# past the float range a sum reads +-inf, or NaN for inf - inf; capacity_pressure rejects both
@np.errstate(over="ignore", invalid="ignore")
def leaf_sum_logs(
    sft: Subshift,
    spec: SubsetSpec,
    f: LocallyConstantPotential,
    sigma: int,
    depths: Sequence[int],
) -> List[Optional[float]]:
    """``leaf_sum_log(sft, spec, f, sigma, d)`` for each d in the increasing
    ``depths``, all read from one forward pass over one tree; None where no
    word is accepted, so that -inf means a sum below the float range."""
    if depths[0] < 1:
        raise ValueError("depth must be at least 1")
    if depths[0] - sigma < 1:
        raise ValueError("depth must exceed sigma")
    prog = _TreeProgram(sft, spec, f, sigma, depths[-1])
    prefix = prog.fold_forward()
    priced = {rel: prog.prices(rel, True) for rel in set(prog.tracker.relations)}  # parts may share one
    prices = np.array([priced[rel] for rel in prog.tracker.relations])
    # the depths that share a layer are summed in one block; a tree repeats
    # layers only when no part counts a symbol, so acceptance ignores d
    groups: Dict[int, List[int]] = {}
    for d in depths:
        groups.setdefault(prog.layers.at[d], []).append(d)
    out: Dict[int, Optional[float]] = {}
    for i, ds in groups.items():
        suffix, state, keep = prog.layers.suffix[i], prog.layers.state[i], prog.accepted(ds[0])
        # the tail runs over every part the word has not left
        tails = np.where(state[keep] >= 0, prices[:, suffix[keep]].T, NEG_INF).max(axis=1)
        terms = np.array([prefix[d][keep] for d in ds]) + tails
        sums = np.logaddexp.reduce(terms, axis=1).tolist() if tails.size else [None] * len(ds)
        out.update(zip(ds, sums))
    return [out[d] for d in depths]


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
    value = leaf_sum_logs(sft, spec, f, sigma, (depth,))[0]
    return NEG_INF if value is None else value


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
    construction, and makes its tables per distinct layer and per block of
    depths; programs with other windows or pricing can share the tree. Each
    call is one backward fold over the layers for all its exponents.
    """

    def __init__(self, tree: _TreeProgram, d_min: int, centered: bool = False):
        d_max, sigma = tree.depth, tree.sigma
        if d_min < 1 or d_min > d_max:
            raise ValueError("need 1 <= d_min <= d_max")
        if d_min - sigma < 1:
            raise ValueError("d_min must exceed sigma")
        self._sigma, self._d_min, self._d_max = sigma, d_min, d_max
        at, suffix = tree.layers.at, tree.layers.suffix
        price = tree.prices(tree.host.allowed, not centered)
        # per layer its ball column: with one suffix (r = 0) the root's (1, 1)
        one = len(price) == 1
        columns = [price[:, None]] * len(suffix) if one else [price[u][:, None] for u in suffix]
        self._deepest = columns[at[d_max]]
        # per layer (layer i, as built, is depth i's) its children, gains, rows
        # past the first and ball column, read through ``at`` deepest first
        self._layers = [(kid, gain, range(1, len(kid)), column)
                        for kid, gain, column in zip(tree.layers.kids, tree.gains, columns)]
        self._at = at[d_max - 1::-1]
        self._repeated = np.flatnonzero(np.bincount(at[:-1]) > 1).tolist()
        # per block of depths, per column several share: their depths, a
        # slice as a tree repeats with one period, and that column; every
        # other depth adds its own column at its turn
        keys = [0] * (d_max - d_min) if one else at[d_min:-1]
        self._blocks = []
        for lo in range(0, len(keys), _BLOCK):
            ks = keys[lo : lo + _BLOCK]
            firsts = [(key, ks.index(key)) for key in dict.fromkeys(ks) if ks.count(key) > 1]
            self._blocks.append([(slice(lo + j, lo + len(ks), ks.index(key, j + 1) - j), columns[key])
                                 for key, j in firsts])
        # an accepted leaf must take its ball, a rejected one needs none; a
        # program without one folds nothing, so every layer it folds has a child
        accepted = tree.accepted(d_max)
        self.empty = not accepted.any()
        self._leaves = np.where(accepted, math.inf, NEG_INF)[:, None]

    @np.errstate(over="ignore", invalid="ignore")  # as fold_forward; a pad on a +inf child reads NaN
    def __call__(self, exponents: Sequence[float]) -> np.ndarray:
        """One backward fold for all ``exponents``: per layer that several depths
        repeat one widening of its gains to the K exponents, per block of depths
        one add per ball column that its depths share, then per depth one gather
        into an (arity, states, K) block, one in-place add of the gains, binary
        log-sum-exps over the arity rows in reduce order and one in-place minimum
        with the ball thresholds; values equal a per-row fold's bit for bit."""
        neg_s = -np.asarray(exponents, dtype=float)
        if self.empty:  # nothing to cover: the empty cover costs zero
            return np.full(len(neg_s), NEG_INF)
        n, d_min = self._d_max - self._d_min, self._d_min
        decay = np.multiply.outer(np.arange(d_min, n + d_min + 1) - self._sigma, neg_s)
        layers = self._layers.copy()
        for i in self._repeated:  # a same-shape add beats a broadcast one
            kid, gain, rows, column = layers[i]
            layers[i] = kid, np.repeat(gain, len(neg_s), axis=2), rows, column
        logaddexp, minimum = np.logaddexp, np.minimum
        values = minimum(decay[-1] + self._deepest, self._leaves)
        blocks, top, made = reversed(self._blocks), n - 1, {}
        for j, i in zip(range(n - 1, -d_min - 1, -1), self._at):
            kid, gain, rows, column = layers[i]
            arcs = values.take(kid, 0)  # as values[kid], by a faster path
            arcs += gain
            values = arcs[0]
            for r in rows:
                logaddexp(values, arcs[r], out=values)
            if j < 0:  # no ball sits shallower than d_min
                continue
            if j == top:  # the deepest depth of a block: the thresholds its depths share
                for js, col in next(blocks):
                    made.update(zip(range(n)[js], decay[js, None, :] + col))
                top = j - j % _BLOCK - 1
            # a node takes its ball where that is cheaper than covering its
            # children; exact ties resolve toward the shallower ball, which
            # pins down which cover the DP means
            shared = made.pop(j, None)
            minimum(decay[j] + column if shared is None else shared, values, out=values)
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
