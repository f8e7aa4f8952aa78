"""Finite descriptions of target subsets Z of a subshift.

A SubsetSpec names a subset of the host shift space; at working depth L it is
realized as the set of admissible length-L words consistent with it (an outer
approximation). Four kinds are supported:

- ``whole``: the entire host space, tracked as the sub-SFT of the host
  relation itself.
- ``sub_sft``: points whose transitions stay inside a sub-relation forever.
  The sub-relation is trimmed to its forward-alive part at build time, since
  symbols without infinite continuations cannot occur in any point.
- ``finite_union``: a finite union of other specs.
- ``frequency_level``: points whose empirical frequency of one symbol sits in
  a window [target - tol, target + tol]; realized at depth L by counting
  occurrences in the length-L word. Not compact and not invariant, which is
  exactly why it is here.

Each spec compiles to a small tracker automaton that the cover/partition
engines drive one symbol at a time. A ``None`` tracker state means the word
can no longer lead to any accepted leaf and the branch may be pruned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .errors import EnumerationBudgetExceeded
from .symbolic import DEFAULT_ENUMERATION_BUDGET, Subshift, Word, layers

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
        if self.kind == "finite_union" and not self.parts:
            raise ValueError("finite_union spec needs at least one part")
        if self.kind == "frequency_level":
            if self.symbol is None or self.target is None or self.window is None:
                raise ValueError("frequency_level spec needs symbol, target, window")
            if not 0.0 <= self.target <= 1.0:
                raise ValueError("frequency target must lie in [0, 1]")
            if self.window <= 0.0:
                raise ValueError("frequency window must be positive")


def whole() -> SubsetSpec:
    return SubsetSpec("whole", label="whole space")


def sub_sft(
    relation: Sequence[Sequence[bool]] | Iterable[Tuple[int, int]],
    alphabet_size: Optional[int] = None,
    label: str = "",
) -> SubsetSpec:
    """A sub-SFT spec from a boolean matrix or a list of allowed pairs."""
    rel = list(relation)
    if rel and isinstance(rel[0], (tuple, list)) and len(rel[0]) == 2 and all(
        isinstance(x, int) for x in rel[0]
    ) and alphabet_size is not None:
        rows = [[False] * alphabet_size for _ in range(alphabet_size)]
        for a, b in rel:
            rows[a][b] = True
        matrix = tuple(tuple(r) for r in rows)
    else:
        matrix = tuple(tuple(bool(x) for x in row) for row in rel)
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
    """Check a spec against its host; raises ValueError on mismatch."""
    if spec.kind == "sub_sft":
        k = sft.alphabet_size
        if len(spec.allowed) != k:
            raise ValueError("sub-relation size differs from host alphabet")
        for a in range(k):
            for b in range(k):
                if spec.allowed[a][b] and not sft.allowed[a][b]:
                    raise ValueError(
                        f"sub-relation allows {a}->{b} which the host forbids"
                    )
    elif spec.kind == "finite_union":
        for p in spec.parts:
            validate_spec(p, sft)
    elif spec.kind == "frequency_level":
        if not 0 <= spec.symbol < sft.alphabet_size:
            raise ValueError(f"frequency symbol {spec.symbol} outside alphabet")


def trim_forward(relation: Tuple[Tuple[bool, ...], ...]) -> Tuple[Tuple[bool, ...], ...]:
    """Restrict a relation to symbols with admissible infinite continuations.

    Iteratively removes symbols without successors; arcs into removed symbols
    go with them. The result may be all-False, meaning the sub-SFT is empty.
    """
    k = len(relation)
    alive = [any(row) for row in relation]
    changed = True
    rel = [list(row) for row in relation]
    while changed:
        changed = False
        for a in range(k):
            if not alive[a]:
                continue
            for b in range(k):
                if rel[a][b] and not alive[b]:
                    rel[a][b] = False
                    changed = True
            if not any(rel[a]):
                alive[a] = False
                changed = True
    return tuple(tuple(row) for row in rel)


class Tracker:
    """Base tracker: feeds one symbol at a time, accepts at leaf depth."""

    def initial(self):
        raise NotImplementedError

    def step(self, state, prev: Optional[int], symbol: int):
        """Next state, or None when no accepted leaf is reachable any more."""
        raise NotImplementedError

    def accepts(self, state, depth: int) -> bool:
        raise NotImplementedError

    def extension_relations(self, state) -> Tuple[Tuple[Tuple[bool, ...], ...], ...]:
        """Relations to use when extremizing Birkhoff tails beyond a word.

        The supremum of f_n over the part of the target inside a cylinder
        extremizes undetermined tail windows over continuations that stay in
        the target; for a sub-SFT that is its own (trimmed) relation, while
        the whole space and frequency sets put no constraint on the tail.
        A union contributes one relation per still-alive part and the engine
        takes the outer extreme across them.
        """
        raise NotImplementedError


class _SubSftTracker(Tracker):
    def __init__(self, sft: Subshift, spec: SubsetSpec):
        self._rel = trim_forward(spec.allowed)
        self._alive = tuple(any(row) for row in self._rel)

    def initial(self):
        return 0

    def step(self, state, prev, symbol):
        if prev is None:
            return 0 if self._alive[symbol] else None
        if self._rel[prev][symbol]:
            return 0
        return None

    def accepts(self, state, depth):
        return True

    def extension_relations(self, state):
        return (self._rel,)


class _FrequencyTracker(Tracker):
    def __init__(self, sft: Subshift, spec: SubsetSpec):
        self._symbol = spec.symbol
        self._target = spec.target
        self._window = spec.window
        self._rel = sft.allowed

    def initial(self):
        return 0

    def step(self, state, prev, symbol):
        return state + (1 if symbol == self._symbol else 0)

    def accepts(self, state, depth):
        return abs(state - self._target * depth) <= self._window * depth + FREQUENCY_GUARD

    def extension_relations(self, state):
        return (self._rel,)


class _UnionTracker(Tracker):
    def __init__(self, sft: Subshift, spec: SubsetSpec):
        self._parts = tuple(build_tracker(p, sft) for p in spec.parts)

    def initial(self):
        return tuple(t.initial() for t in self._parts)

    def step(self, state, prev, symbol):
        nxt = tuple(
            None if s is None else t.step(s, prev, symbol)
            for t, s in zip(self._parts, state)
        )
        if all(s is None for s in nxt):
            return None
        return nxt

    def accepts(self, state, depth):
        return any(
            s is not None and t.accepts(s, depth)
            for t, s in zip(self._parts, state)
        )

    def extension_relations(self, state):
        rels = []
        for t, s in zip(self._parts, state):
            if s is not None:
                rels.extend(t.extension_relations(s))
        return tuple(rels)


def build_tracker(spec: SubsetSpec, sft: Subshift) -> Tracker:
    validate_spec(spec, sft)
    if spec.kind == "whole":
        # the host itself as a sub-SFT: its relation strands no symbol, so
        # trimming leaves it unchanged
        return _SubSftTracker(sft, SubsetSpec("sub_sft", allowed=sft.allowed))
    if spec.kind == "sub_sft":
        return _SubSftTracker(sft, spec)
    if spec.kind == "frequency_level":
        return _FrequencyTracker(sft, spec)
    return _UnionTracker(sft, spec)


def target_steps(sft: Subshift, tracker: Tracker, z, prev: Optional[int]):
    """(symbol, next tracker state) per admissible symbol after ``prev``.

    ``prev`` is None at the root. Symbols come in increasing order, and
    those after which no accepted leaf is reachable any more are skipped.
    """
    symbols = range(sft.alphabet_size) if prev is None else sft.successors[prev]
    return [(b, z2) for b in symbols if (z2 := tracker.step(z, prev, b)) is not None]


def _word_dag(sft: Subshift, spec: SubsetSpec, depth: int):
    """The spec's words to ``depth`` as a layered DAG, with counts.

    Returns (edges, counts): edges[d][i] lists one (symbol, index into layer
    d + 1) pair per child of state i at depth d, where a state is a (tracker
    state, last symbol) pair; counts[d][i] is the number of accepted
    depth-``depth`` words through that state.
    """
    if depth < 0:
        raise ValueError("word length must be nonnegative")
    tracker = build_tracker(spec, sft)
    states, edges = layers(
        (tracker.initial(), None),
        lambda state: [(b, (z2, b)) for b, z2 in target_steps(sft, tracker, *state)],
        depth,
    )
    counts = [[int(tracker.accepts(z, depth)) for z, _ in states[depth]]]
    for rows in reversed(edges):
        counts.append([sum(counts[-1][j] for _, j in row) for row in rows])
    return edges, counts[::-1]


def count_target_words(sft: Subshift, spec: SubsetSpec, depth: int) -> int:
    """Exact count of admissible depth-``depth`` words consistent with the spec."""
    return _word_dag(sft, spec, depth)[1][0][0]


def iter_target_words(
    sft: Subshift,
    spec: SubsetSpec,
    depth: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Tuple[Word, ...]:
    """All depth-``depth`` words consistent with the spec, lexicographically.

    Counts first over the word DAG and raises EnumerationBudgetExceeded
    before materializing anything too large. The words then grow one layer
    at a time, in order, along the branches that reach an accepted word.
    """
    edges, counts = _word_dag(sft, spec, depth)
    total = counts[0][0]
    if total > budget:
        raise EnumerationBudgetExceeded(total, budget)
    level = [((), 0)] if total else []
    for d in range(depth):
        level = [(w + (b,), j) for w, i in level for b, j in edges[d][i] if counts[d + 1][j]]
    return tuple(w for w, _ in level)
