"""Finite descriptions of target subsets Z of a subshift.

A SubsetSpec names a subset of the host shift space; at working depth L it is
realized as the set of admissible length-L words consistent with it (an outer
approximation). Four kinds are supported:

- ``whole``: the entire host space, tracked as the sub-SFT of the host
  relation itself.
- ``sub_sft``: points whose transitions stay inside a sub-relation forever.
  The compile trims it (``trim_forward``) to the arcs between symbols with
  an infinite forward path, since no other symbol occurs in any point.
- ``finite_union``: a finite union of other specs.
- ``frequency_level``: points whose empirical frequency of one symbol sits in
  a window [target - tol, target + tol]; realized at depth L by counting
  occurrences in the length-L word. Not compact and not invariant, which is
  exactly why it is here.

``build_tracker`` checks a spec against its host and compiles it to one
``TargetAutomaton``: nested unions flatten to a list of parts, and each
part is a relation with an optional tagged symbol whose frequency must end
in a window. A tracker state holds one integer per part: -1 once the word
has left the part, otherwise the count of its tagged symbol (0 for a part
that tags none). A word that has left every part leads to no accepted
leaf, and its branch is pruned. ``WordLayers`` grows the target's word
tree over the higher-block presentation of the host (Lind & Marcus, *An
Introduction to Symbolic Dynamics and Coding*, 1995, 2.3): a node is the
index of its last r symbols plus its tracker state. With r = 0, one
frequency part and a full shift, each layer is one interval of counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .symbolic import Subshift, Word, _is_int, check_budget

FREQUENCY_GUARD = 1e-9  # absorbs float noise in |count - alpha*L| <= eta*L


@dataclass(frozen=True)
class SubsetSpec:
    kind: str
    allowed: Optional[Tuple[Tuple[bool, ...], ...]] = None
    parts: Optional[Tuple["SubsetSpec", ...]] = None
    symbol: Optional[int] = None
    target: Optional[float] = None
    window: Optional[float] = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("whole", "sub_sft", "finite_union", "frequency_level"):
            raise ValueError(f"unknown subset kind {self.kind!r}")
        if self.kind == "sub_sft" and self.allowed is None:
            raise ValueError("sub_sft spec needs a transition sub-relation")
        if self.kind == "sub_sft" and any(len(row) != len(self.allowed) for row in self.allowed):
            raise ValueError("sub-relation must be square")
        if self.kind == "finite_union" and not self.parts:
            raise ValueError("finite_union spec needs at least one part")
        if self.kind == "frequency_level":
            if self.symbol is None or self.target is None or self.window is None:
                raise ValueError("frequency_level spec needs symbol, target, window")
            if not _is_int(self.symbol):
                raise ValueError("frequency symbol must be an integer")
            if not 0.0 <= self.target <= 1.0:
                raise ValueError("frequency target must lie in [0, 1]")
            if not self.window > 0.0:
                raise ValueError("frequency window must be positive")


def whole() -> SubsetSpec:
    return SubsetSpec("whole", label="whole space")


def sub_sft(relation: Sequence[Sequence[bool]], label: str = "") -> SubsetSpec:
    """A sub-SFT spec from a boolean matrix: ``relation[a][b]`` allows a -> b."""
    matrix = tuple(tuple(bool(x) for x in row) for row in relation)
    return SubsetSpec("sub_sft", allowed=matrix, label=label or "sub-SFT")


def finite_union(*parts: SubsetSpec, label: str = "") -> SubsetSpec:
    return SubsetSpec("finite_union", parts=tuple(parts), label=label or "union")


def frequency_level(
    symbol: int, target: float, window: float, label: str = ""
) -> SubsetSpec:
    return SubsetSpec(
        "frequency_level",
        symbol=symbol,
        target=target,
        window=window,
        label=label or f"freq({symbol}) in {target}+-{window}",
    )


def validate_spec(spec: SubsetSpec, sft: Subshift) -> None:
    """Check the spec's parts against the host in union order; raises
    ValueError at the first misfit (for a sub-relation: its size, then its
    first arc in row-major order that the host forbids)."""
    k = sft.alphabet_size
    for p in _parts(spec):
        if p.kind == "sub_sft":
            if len(p.allowed) != k:
                raise ValueError("sub-relation size differs from host alphabet")
            for a in range(k):
                for b in range(k):
                    if p.allowed[a][b] and not sft.allowed[a][b]:
                        raise ValueError(f"sub-relation allows {a}->{b} which the host forbids")
        elif p.kind == "frequency_level" and not 0 <= p.symbol < k:
            raise ValueError(f"frequency symbol {p.symbol} outside alphabet")


def trim_forward(relation: Tuple[Tuple[bool, ...], ...]) -> Tuple[Tuple[bool, ...], ...]:
    """Drop every arc into a symbol with no successor, until none is left.

    The arcs that stay join symbols with an infinite forward path (Lind &
    Marcus 1995, 2.2); an all-False result means the sub-SFT is empty."""
    rel = tuple(map(tuple, relation))
    while True:
        dead = {b for b, row in enumerate(rel) if not any(row)}
        trimmed = tuple(tuple(ok and b not in dead for b, ok in enumerate(row)) for row in rel)
        if trimmed == rel:
            return rel
        rel = trimmed


def _parts(spec: SubsetSpec) -> List[SubsetSpec]:
    """The spec's non-union parts, nested unions flattened in order."""
    if spec.kind == "finite_union":
        return [q for p in spec.parts for q in _parts(p)]
    return [spec]


class TargetAutomaton:
    """A spec compiled to parts that each follow one relation.

    ``relations[p]`` is part p's relation: the host's for ``whole`` and
    ``frequency_level``, the trimmed sub-relation for ``sub_sft``. It is
    also the relation that continuations of a word inside the part follow.
    ``windows[p]`` is (target, window) for a frequency part, else None.
    ``moves[p, a, b]`` is True when part p admits symbol b after a; row
    ``a = k`` (k the alphabet size) holds the symbols a word may start
    with, and ``reads_last`` is True when some rows differ. ``tags[p, b]``
    is 1 when part p counts symbol b. All three are made on their first read.
    """

    def __init__(self, sft: Subshift, spec: SubsetSpec):
        self._k = sft.alphabet_size
        parts = _parts(spec)
        self.relations = tuple(
            trim_forward(p.allowed) if p.kind == "sub_sft" else sft.allowed for p in parts
        )
        self.windows = tuple(
            (p.target, p.window) if p.kind == "frequency_level" else None for p in parts
        )
        self._tagged = [p.symbol if p.kind == "frequency_level" else -1 for p in parts]

    @cached_property
    def moves(self) -> np.ndarray:
        rel = np.array(self.relations, dtype=bool).reshape(len(self.relations), self._k, self._k)
        return np.concatenate([rel, rel.any(axis=2)[:, None, :]], axis=1)

    @cached_property
    def tags(self) -> np.ndarray:
        return (np.arange(self._k) == np.array(self._tagged)[:, None]).astype(np.int64)

    @cached_property
    def reads_last(self) -> bool:
        return not (self.moves == self.moves[:, -1:]).all()

    def accepts(self, states: np.ndarray, depth: int) -> np.ndarray:
        """Mask of the tracker states (one row each) accepted at ``depth``."""
        ok = states >= 0
        for p, window in enumerate(self.windows):
            if window is not None:
                alpha, eta = window
                ok[:, p] &= np.abs(states[:, p] - alpha * depth) <= eta * depth + FREQUENCY_GUARD
        return ok.any(axis=1)


def build_tracker(spec: SubsetSpec, sft: Subshift) -> TargetAutomaton:
    validate_spec(spec, sft)
    return TargetAutomaton(sft, spec)


class WordLayers:
    """The target's words to ``depth``, merged per depth on (suffix, tracker state).

    A node's suffix is its last r symbols (the whole word while it is
    shorter; the empty word when r = 0). ``words`` lists every suffix the
    target's words can have, and ``next[i, b]`` is the suffix after
    appending b to ``words[i]``, or -1 where no part admits b there. The
    layer at depth d is layer ``at[d]``: ``suffix[i]`` and ``state[i]`` give
    the suffix index and the tracker state (one row) of each node of layer
    i, in order of first discovery: parents in order, each parent's children
    in symbol order. Column j of ``kids[i]`` and of ``arcs[:w, s:e]``, for
    (w, s, e) = ``cuts[i]``, holds the child index (into the next depth's
    layer) and the symbol of each child of node j, in symbol order, padded
    with child 0 and symbol -1 (see below for dropped children): ``arcs``
    holds the layers' symbols side by side, one column per node of a built
    layer, so one lookup reads every arc.

    A child is dropped when every part has been left or is a frequency part
    whose count z cannot end in its window at ``depth`` (z > (alpha + eta)
    depth or z + depth - d < (alpha - eta) depth at the child's depth d, with
    twice the acceptance guard as slack). Its subtree has no leaf accepted
    at any depth up to ``depth``, so no value read from the tree changes; a
    dropped child leaves a pad in its slot.

    Each layer takes one gather for the children's suffixes, one step of
    every part, one ``np.unique`` to merge equal children, one sort that
    ranks the merged nodes by the index of their first child, which is
    their discovery order, and one scatter to pack the arcs. When the
    nodes of depth d equal those of an earlier depth e, every later layer
    repeats with period d - e, so ``at[t]`` is e + (t - e) % (d - e) for
    t >= d and no layer past depth d - 1 is built; else ``at`` is
    range(depth + 1), as always in trees with frequency parts, whose
    pruned layers can match while the bounds ahead differ. A tree whose
    built layers pass the enumeration budget in nodes raises
    EnumerationBudgetExceeded before it stores the layer that passes it.

    With r = 0, one frequency part and a full shift, a node is its count
    and no sort is needed: the children of the interval [lo, hi] of depth d
    are [lo + min tag, hi + 1], cut by the prune's bounds. Each parent lists
    z + 1 first when the tagged symbol is 0 and z first otherwise, so the
    discovery order is descending or ascending counts, a child's rank is
    its distance from the end it starts at, and its slot is its symbol.
    The intervals, slot widths and rank offsets of all depths come from
    whole-depth arrays (the lower bounds are a cumulative max), and the arcs
    of all layers from one pass over every parent; ``kids[i]`` are views too.
    The budget is checked on the layer sizes, before any per-node array.
    """

    def __init__(self, target: TargetAutomaton, r: int, depth: int):
        parts, _, k = target.moves.shape
        self.words, self.next = suffix_table(target.moves.any(axis=0).tolist(), r)
        check_budget(depth + 1, "depths")  # a tree holds a node per depth at least
        words = self.words
        moves = target.moves[:, [u[-1] if u else k for u in words]].transpose(1, 0, 2)
        self.suffix = [np.zeros(1, dtype=np.intp)]
        self.state = [np.zeros((1, parts), dtype=np.int64)]
        self.kids: List[np.ndarray] = []
        self.cuts: List[Tuple[int, int, int]] = []
        # per part, the counts that can still end in its window at ``depth``
        slack = 2 * FREQUENCY_GUARD  # so that rounding can only keep extra states
        low, high = np.array([(-np.inf, np.inf) if w is None else (
            (w[0] - w[1]) * depth - slack, (w[0] + w[1]) * depth + slack
        ) for w in target.windows]).T[:, :, None]
        self.at = list(range(depth + 1))
        if _one_band(target, r):
            self._grow_band(target.tags[0], low.item(), high.item(), depth)
            return
        periodic = not np.isfinite(high).any()
        seen: Dict[bytes, int] = {}
        layers, columns = [], 0  # each built layer's symbols, packed into ``arcs`` at the end
        for d in range(depth):
            suffix, state = self.suffix[d], self.state[d]
            if periodic:
                key = suffix.tobytes() + state.tobytes()
                if key in seen:  # every later layer repeats with period d - e
                    e = seen[key]
                    del self.suffix[d], self.state[d]
                    self.at[d:] = [e + (t - e) % (d - e) for t in range(d, depth + 1)]
                    break
                seen[key] = d
            allowed = moves[suffix] & (state >= 0)[:, :, None]
            stepped = np.where(allowed, state[:, :, None] + target.tags, -1)
            # a child lives while some part it has not left can still accept it
            rest = depth - d - 1
            live = ((stepped >= 0) & (stepped <= high) & (stepped + rest >= low)).any(axis=1)
            parent, symbol = np.nonzero(live)
            child_suffix = self.next[suffix[parent], symbol]
            child_state = stepped[parent, :, symbol]
            # one integer per distinct (suffix, state), kept below 2**62
            code, size = child_suffix, len(words)
            for column in child_state.T + 1:
                span = int(column.max(initial=0)) + 1
                if size * span >= 2 ** 62:
                    code, size = np.unique(code, return_inverse=True)[1], len(code)
                code, size = code * span + column, size * span
            # one node per code, ranked by its first child: discovery order
            _, first, group = np.unique(code, return_index=True, return_inverse=True)
            check_budget(columns + len(suffix) + len(first), "tree nodes")  # layers 0 to d + 1
            order = np.argsort(first, kind="stable")  # quicksort would page in another kernel
            rank = np.empty(len(first), dtype=np.intp)
            rank[order] = np.arange(len(first))
            # pads in dropped slots keep the order of the arcs into each child
            slot = (np.cumsum(allowed.any(axis=1), axis=1) - 1)[parent, symbol]
            width = int(slot.max(initial=-1)) + 1
            kids = np.zeros((width, len(suffix)), dtype=np.intp)
            kids[slot, parent] = rank[group]
            syms = np.full((width, len(suffix)), -1, dtype=np.intp)
            syms[slot, parent] = symbol
            self.kids.append(kids)
            layers.append(syms)
            self.cuts.append((width, columns, columns + len(suffix)))
            columns += len(suffix)
            self.suffix.append(child_suffix[first[order]])
            self.state.append(child_state[first[order]])
        self.arcs = np.full((max((w for w, _, _ in self.cuts), default=0), columns), -1, dtype=np.intp)
        for (w, s, e), syms in zip(self.cuts, layers):
            self.arcs[:w, s:e] = syms

    def _grow_band(self, tags: np.ndarray, low: float, high: float, depth: int) -> None:
        """The layers of a band on a full shift with r = 0 (see the class docstring)."""
        k, a, step = len(tags), int(tags.argmax()), int(tags.min())
        down = a == 0  # discovery order: each parent's count z + 1 comes first
        counts = np.arange(depth + 1, dtype=np.int64)[::-1 if down else 1, None]
        # the prune's test on a child's count c, with bounds clipped to [-1, depth]
        top = math.floor(high) if high < depth else depth  # c <= high
        bottom = math.ceil(low) if low > -1 else -1  # c + rest >= low
        # per depth d, the kept counts [lo, hi]: hi = min(hi + 1, top) from hi = 0
        # is min(d, top), and lo = max(lo + step, bottom - (depth - d)) from lo = 0
        # is a cumulative max; every layer after an empty one is empty
        d = np.arange(depth + 1)
        lo = step * d + np.maximum.accumulate(np.maximum(bottom - depth + d, 0) - step * d)
        hi = np.minimum(d, top)
        empty = np.logical_or.accumulate(lo > hi)
        lo, hi = np.where(empty, depth + 1, lo), np.where(empty, -1, hi)
        sizes = np.maximum(hi - lo + 1, 0)
        check_budget(int(sizes.sum()), "tree nodes")  # no layer repeats, so each is stored
        # per child layer: the last slot holds the highest symbol some node keeps
        tagged = np.maximum(lo[:-1] + 1, lo[1:]) <= np.minimum(hi[:-1] + 1, hi[1:])
        plain = (np.maximum(lo[:-1], lo[1:]) <= np.minimum(hi[:-1], hi[1:])) & (k > 1)
        widths = np.maximum(tagged * (a + 1), plain * (k - (a == k - 1)))
        zeros = np.zeros(depth + 1, dtype=np.intp)
        self.suffix += [zeros[:n] for n in sizes[1:].tolist()]
        first, stop = (depth - hi, depth - lo + 1) if down else (lo, hi + 1)
        self.state += [counts[i:j] for i, j in zip(first[1:].tolist(), stop[1:].tolist())]
        # one pass over the parents of all depths; counts become ranks in place:
        # a child's rank is hi - c (down) or c - lo, kept where 0 <= rank <= hi - lo
        sizes = sizes[:-1]
        kids = np.concatenate([counts[:0], *self.state[:-1]])[:, 0] + tags[:, None]  # a row per symbol
        kids *= -1 if down else 1
        kids += np.repeat(hi[1:] if down else -lo[1:], sizes)
        ok = (kids >= 0) & (kids <= np.repeat(hi[1:] - lo[1:], sizes))
        kids *= ok
        self.arcs = np.where(ok, np.arange(k)[:, None], -1)
        ends = np.cumsum(sizes)
        self.cuts = list(zip(widths.tolist(), (ends - sizes).tolist(), ends.tolist()))
        self.kids = [kids[:w, s:e] for w, s, e in self.cuts]


def suffix_table(reach: Sequence[Sequence[bool]], r: int) -> Tuple[List[Word], np.ndarray]:
    """(words, next): every suffix of at most r symbols that a word whose
    moves follow ``reach`` can end in, the empty one first, in order of
    discovery; ``next[i, b]`` is the index of the suffix after appending b
    to ``words[i]``, or -1 where ``reach`` forbids b there. ``reach[a][b]``
    allows b after a, and its last row (index k) holds the first symbols.
    Raises EnumerationBudgetExceeded before building a table past the budget,
    with the count up to the first length that passes it."""
    k = len(reach[-1])
    # count first: (), j < r symbols from a first symbol, r from any reached one
    heads, paths, size = list(reach[-1]), [1] * k, 1
    for _ in range(k):
        heads = [h or any(heads[a] and reach[a][b] for a in range(k)) for b, h in enumerate(heads)]
    for j in range(1, r + 1):
        size += sum(p for p, ok in zip(paths, heads if j == r else reach[-1]) if ok)
        check_budget(size, "suffixes")
        paths = [sum(p for p, ok in zip(paths, row) if ok) for row in reach[:k]]
    words: List[Word] = [()]
    index = {(): 0}
    nxt = []
    for u in words:  # grows while it is read
        row = [-1] * k
        for b in range(k):
            if reach[u[-1] if u else k][b]:
                w = (u + (b,))[-r:] if r else ()
                if w not in index:
                    index[w] = len(words)
                    words.append(w)
                row[b] = index[w]
        nxt.append(row)
    return words, np.array(nxt, dtype=np.intp).reshape(len(words), k)


def _one_band(target: TargetAutomaton, r: int) -> bool:
    """Whether ``WordLayers`` builds the tree by count arithmetic: one
    frequency part, a full shift and r = 0."""
    windows = target.windows
    return r == 0 and len(windows) == 1 and windows[0] is not None and bool(target.moves.all())


def _word_dag(sft: Subshift, spec: SubsetSpec, depth: int):
    """(edges, counts): edges[d][i] lists one (symbol, child index) pair per
    child of node i of the spec's depth-d word layer (the cover tree at sigma
    0 and potential depth 1); counts[d][i] is the exact number of accepted
    depth-``depth`` words through that node."""
    if depth < 0:
        raise ValueError("word length must be nonnegative")
    target = build_tracker(spec, sft)
    tree = WordLayers(target, int(target.reads_last), depth)
    layers = [[
        [(b, j) for b, j in zip(s, c) if b >= 0] for s, c in zip(syms.T.tolist(), kids.T.tolist())
    ] for kids, syms in zip(tree.kids, (tree.arcs[:w, s:e] for w, s, e in tree.cuts))]
    edges = [layers[i] for i in tree.at[:-1]]
    counts = [target.accepts(tree.state[tree.at[depth]], depth).astype(int).tolist()]
    for rows in reversed(edges):
        counts.append([sum(counts[-1][j] for _, j in row) for row in rows])
    return edges, counts[::-1]


def count_target_words(sft: Subshift, spec: SubsetSpec, depth: int) -> int:
    """Exact count of admissible depth-``depth`` words consistent with the spec."""
    return _word_dag(sft, spec, depth)[1][0][0]


def iter_target_words(sft: Subshift, spec: SubsetSpec, depth: int) -> Tuple[Word, ...]:
    """All depth-``depth`` words consistent with the spec, lexicographically.

    Counts first over the word DAG and raises EnumerationBudgetExceeded
    before materializing anything too large. The words then grow one layer
    at a time, in order, along the branches that reach an accepted word.
    """
    edges, counts = _word_dag(sft, spec, depth)
    total = counts[0][0]
    check_budget(total, "words")
    level = [((), 0)] if total else []
    for d in range(depth):
        level = [(w + (b,), j) for w, i in level for b, j in edges[d][i] if counts[d + 1][j]]
    return tuple(w for w, _ in level)
