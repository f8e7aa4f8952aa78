"""Subshifts of finite type, words, scales, and locally constant potentials.

Everything downstream works on one-sided shift spaces with the metric
d(x, y) = 2^-min{i : x_i != y_i}. Under that convention the dynamical ball
B_n(x, 2^-m) is exactly the cylinder of the first n + m symbols of x, and an
(n, 2^-m)-separated set picks one point per admissible word of length
n + m - 1. Those two bridges are what make every quantity in this package a
finite combinatorial object; they are exercised exhaustively in the tests.

Words are plain tuples of symbol indices. Higher-order constraints are out of
scope; the transition relation is always order 1, while potentials may look
at blocks of any fixed depth.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import EnumerationBudgetExceeded, InadmissibleWord, InsufficientDepth, ScaleTooCoarse

Word = Tuple[int, ...]

NEG_INF = float("-inf")

#: Hard cap on the items any enumeration may materialize; read by ``check_budget`` alone.
DEFAULT_ENUMERATION_BUDGET = 2 ** 26


def check_budget(count: int, unit: str) -> None:
    """Raise EnumerationBudgetExceeded when ``count`` items, which ``unit``
    names ("words", "tree nodes", ...), pass the enumeration budget."""
    if count > DEFAULT_ENUMERATION_BUDGET:
        raise EnumerationBudgetExceeded(count, DEFAULT_ENUMERATION_BUDGET, unit)


def _is_int(v) -> bool:
    """True for an integer, numpy's included, but not a bool (True would pass as 1)."""
    # the type test spares plain ints the ABC check, about 0.6 us each
    return type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool))


@dataclass(frozen=True)
class Subshift:
    """A one-sided subshift of finite type given by an order-1 relation.

    ``allowed[a][b]`` is True when the transition a -> b is admissible.
    Construction rejects stranded symbols (no successor or no predecessor),
    since such symbols cannot occur in any point of the space.
    """

    alphabet_size: int
    allowed: Tuple[Tuple[bool, ...], ...]
    label: str = ""

    def __post_init__(self):
        k = self.alphabet_size
        if k < 1:
            raise ValueError("alphabet_size must be at least 1")
        if len(self.allowed) != k or any(len(row) != k for row in self.allowed):
            raise ValueError("allowed relation must be alphabet_size x alphabet_size")
        for a in range(k):
            if not any(self.allowed[a]):
                raise ValueError(f"symbol {a} has no allowed successor")
            if not any(self.allowed[b][a] for b in range(k)):
                raise ValueError(f"symbol {a} has no allowed predecessor")

    @cached_property
    def successors(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(
            tuple(b for b in range(self.alphabet_size) if row[b])
            for row in self.allowed
        )

    def is_admissible(self, word: Sequence[int]) -> bool:
        if any(not (0 <= a < self.alphabet_size) for a in word):
            return False
        return all(self.allowed[a][b] for a, b in zip(word, word[1:]))


def full_shift(alphabet_size: int, label: str = "") -> Subshift:
    """The full shift on ``alphabet_size`` symbols (every transition allowed)."""
    row = tuple(True for _ in range(alphabet_size))
    return Subshift(
        alphabet_size,
        tuple(row for _ in range(alphabet_size)),
        label or f"full-{alphabet_size}-shift",
    )


def golden_mean_shift(label: str = "golden-mean") -> Subshift:
    """The binary shift forbidding the block 11."""
    return Subshift(2, ((True, True), (True, False)), label)


def subshift_from_pairs(
    alphabet_size: int, pairs: Iterable[Tuple[int, int]], label: str = ""
) -> Subshift:
    rows = [[False] * alphabet_size for _ in range(alphabet_size)]
    for a, b in pairs:
        if not (_is_int(a) and _is_int(b) and 0 <= a < alphabet_size and 0 <= b < alphabet_size):
            raise ValueError(f"pair [{a}, {b}] outside alphabet")
        rows[a][b] = True
    return Subshift(alphabet_size, tuple(tuple(r) for r in rows), label)


@dataclass(frozen=True)
class Scale:
    """A dyadic scale epsilon = 2^-m."""

    m: int

    def __post_init__(self):
        if not _is_int(self.m) or self.m < 0:
            raise ValueError("scale exponent m must be a nonnegative integer")

    def coarsen(self, steps: int) -> "Scale":
        """The scale 2^-(m - steps); raises if that would leave m negative."""
        if self.m - steps < 0:
            raise ScaleTooCoarse(
                f"cannot coarsen m={self.m} by {steps} steps"
            )
        return Scale(self.m - steps)


@dataclass(frozen=True, eq=False)
class LocallyConstantPotential:
    """A potential that depends on the first ``depth`` symbols only.

    ``table`` maps every admissible word of length ``depth`` to a finite
    value. Lookups on words outside the table raise InadmissibleWord, which
    doubles as the admissibility check in hot loops.
    """

    depth: int
    table: Mapping[Word, float]
    label: str = ""

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("potential depth must be at least 1")
        for w, v in self.table.items():
            if len(w) != self.depth:
                raise ValueError(f"table key {w!r} has length {len(w)} != depth {self.depth}")
            v = float(v)
            if v != v or v in (float("inf"), float("-inf")):
                raise ValueError(f"table value for {w!r} is not finite")

    def value(self, window: Word) -> float:
        try:
            return self.table[window]
        except KeyError:
            raise InadmissibleWord(
                f"window {window!r} is outside the potential's domain"
            ) from None


def zero_potential(sft: Subshift) -> LocallyConstantPotential:
    return constant_potential(sft, 0.0)


def constant_potential(sft: Subshift, c: float) -> LocallyConstantPotential:
    table = {(a,): float(c) for a in range(sft.alphabet_size)}
    return LocallyConstantPotential(1, table, label=f"constant {c}")


def potential_from_table(
    sft: Subshift, depth: int, table: Mapping[Sequence[int], float], label: str = ""
) -> LocallyConstantPotential:
    """Build a potential, checking the table covers exactly the admissible words.

    Distinct admissible keys of length ``depth`` cover every admissible word
    when they are as many as ``count_words`` counts, so no word is
    materialized. Otherwise the first missing word in lexicographic order is
    found from the same path counts: it lies below the first symbol whose
    keys fall short of the words that continue through it.
    """
    fixed: Dict[Word, float] = {}
    for w, v in table.items():
        w = tuple(w)
        if not sft.is_admissible(w):
            raise InadmissibleWord(f"potential key {w!r} is not admissible")
        if len(w) != depth:
            raise ValueError(f"table key {w!r} has length {len(w)} != depth {depth}")
        fixed[w] = float(v)
    missing = count_words(sft, depth) - len(fixed)
    if missing:
        paths = _path_counts(sft, depth)
        example, keys, options = (), list(fixed), range(sft.alphabet_size)
        for d in range(depth):
            for b in options:
                below = [w for w in keys if w[d] == b]
                if len(below) < paths[depth - d - 1][b]:
                    example, keys, options = example + (b,), below, sft.successors[b]
                    break
        raise ValueError(
            f"potential table is missing {missing} admissible words, e.g. {example!r}"
        )
    return LocallyConstantPotential(depth, fixed, label=label)


# ---------------------------------------------------------------------------
# word enumeration


def _path_counts(sft: Subshift, n: int) -> List[List[int]]:
    """``paths[j][a]``, for j < n: the exact number of admissible words of
    j + 1 symbols that start with a, that is row a of A^j 1 for the host's
    0-1 matrix A (Lind & Marcus 1995, Prop. 2.2.12)."""
    if n < 0:
        raise ValueError("word length must be nonnegative")
    paths = [[1] * sft.alphabet_size] if n else []
    for _ in range(n - 1):
        paths.append([sum(paths[-1][b] for b in row) for row in sft.successors])
    return paths


def count_words(sft: Subshift, n: int) -> int:
    """Exact number of admissible words of length n, 1^T A^(n-1) 1 for the
    host's 0-1 matrix A: a Python integer, the sum of the per-first-symbol
    path counts (see ``_path_counts``); 1 for n = 0."""
    paths = _path_counts(sft, n)
    return sum(paths[-1]) if paths else 1


def enumerate_words(sft: Subshift, n: int) -> Tuple[Word, ...]:
    """All admissible words of length n, lexicographically.

    Counts first (``count_words``) and refuses to materialize more than the
    enumeration budget. The words then grow one symbol at a time: each word
    gains, in order, the symbols of its last symbol's row of the host
    relation, which keeps the list sorted. Length 0 yields the empty-word
    singleton.
    """
    check_budget(count_words(sft, n), "words")
    words = [(a,) for a in range(sft.alphabet_size)] if n else [()]
    for _ in range(n - 1):
        words = [w + (b,) for w in words for b in sft.successors[w[-1]]]
    return tuple(words)


# ---------------------------------------------------------------------------
# metric bridges


def bowen_ball_word_length(n: int, scale: Scale) -> int:
    """Cylinder depth of the ball B_n(x, 2^-m): n + m.

    A point y satisfies d_n(x, y) < 2^-m exactly when it agrees with x on
    the first n + m coordinates, so the ball is that cylinder.
    """
    if n < 1:
        raise ValueError("time horizon n must be at least 1")
    return n + scale.m


def separated_word_length(n: int, scale: Scale) -> int:
    """Prefix depth that characterizes (n, 2^-m)-separation: n + m - 1.

    Two points are more than 2^-m apart in d_n exactly when their first
    n + m - 1 symbols differ. m = 0 is rejected: at radius 1 no pair of
    points is ever separated, so the notion degenerates.
    """
    if n < 1:
        raise ValueError("time horizon n must be at least 1")
    if scale.m < 1:
        raise ScaleTooCoarse("separation requires m >= 1")
    return n + scale.m - 1


# ---------------------------------------------------------------------------
# Birkhoff sums


def birkhoff_sum(
    f: LocallyConstantPotential, w: Word, n: Optional[int] = None
) -> float:
    """The exact n-term sum of f along the orbit of any point in [w].

    Requires len(w) >= n + depth - 1 so that every summand is determined by
    the word itself. ``n`` defaults to the largest determined horizon.
    """
    k = f.depth
    if n is None:
        n = len(w) - k + 1
    if n < 1:
        raise InsufficientDepth(
            f"word of length {len(w)} determines no length-{k} window"
        )
    if len(w) < n + k - 1:
        raise InsufficientDepth(
            f"word of length {len(w)} cannot determine {n} summands of a depth-{k} potential"
        )
    return reduce(add, (f.value(w[i : i + k]) for i in range(n)), 0.0)  # not sum(): compensated from 3.12


def _extreme_birkhoff(
    sft: Subshift, f: LocallyConstantPotential, w: Word, n: int, want_max: bool
) -> float:
    if not sft.is_admissible(w):
        raise InadmissibleWord(f"word {w!r} is not admissible in {sft.label or 'this subshift'}")
    if n < 1:
        raise ValueError("number of summands must be at least 1")
    k = f.depth
    need = n + k - 1
    if len(w) >= need:
        return birkhoff_sum(f, w[:need], n)
    from ._engine import extreme_tails  # local import to avoid a cycle

    base = birkhoff_sum(f, w, len(w) - k + 1) if len(w) >= k else 0.0
    tails = extreme_tails(sft, f, sft.allowed, need - len(w), want_max)
    return base + tails[w[-max(k - 1, 1):]]


def sup_birkhoff_on_cylinder(
    sft: Subshift, f: LocallyConstantPotential, w: Word, n: int
) -> float:
    """Exact supremum of the n-term Birkhoff sum over the cylinder [w].

    When the word already determines all n summands this is the literal sum;
    otherwise the undetermined tail windows are maximized over the finitely
    many admissible extensions.
    """
    return _extreme_birkhoff(sft, f, w, n, want_max=True)


def inf_birkhoff_on_cylinder(
    sft: Subshift, f: LocallyConstantPotential, w: Word, n: int
) -> float:
    """Exact infimum of the n-term Birkhoff sum over [w] (see sup variant)."""
    return _extreme_birkhoff(sft, f, w, n, want_max=False)


# ---------------------------------------------------------------------------
# graph utilities shared by transfer and harness code


def strongly_connected_components(
    adjacency: Sequence[Sequence[bool]],
) -> Tuple[Tuple[int, ...], ...]:
    """The strongly connected components of a boolean adjacency matrix.

    a and b share a component when each reaches the other, read off the
    reflexive reachability closure (Warshall, JACM 1962). Components come
    out sorted by smallest member for determinism.
    """
    n = len(adjacency)
    reach = [{b for b in range(n) if a == b or adjacency[a][b]} for a in range(n)]
    for c in range(n):  # every symbol that reaches c reaches what c reaches
        for a in range(n):
            if c in reach[a]:
                reach[a] |= reach[c]
    return tuple(sorted({tuple(sorted(b for b in reach[a] if a in reach[b])) for a in range(n)}))


def is_strongly_connected(adjacency: Sequence[Sequence[bool]]) -> bool:
    comps = strongly_connected_components(adjacency)
    return len(comps) == 1
