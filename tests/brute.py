"""Independent brute-force oracles used by the test suite.

Everything here recomputes quantities from first principles with the
dumbest viable algorithm (full enumeration, literal metric evaluation,
dense eigenvalue solves, a general-purpose LP solver) so library results
can be compared against code that shares no logic with the implementation
under test.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

Word = Tuple[int, ...]
Relation = Tuple[Tuple[bool, ...], ...]


# ---------------------------------------------------------------------------
# words and metric, evaluated literally


def all_words(alphabet: int, n: int) -> List[Word]:
    return [tuple(w) for w in itertools.product(range(alphabet), repeat=n)]


def admissible_words(allowed: Sequence[Sequence[bool]], n: int) -> List[Word]:
    k = len(allowed)
    out = []
    for w in all_words(k, n):
        if all(allowed[w[i]][w[i + 1]] for i in range(n - 1)):
            out.append(w)
    return out


def metric(x: Sequence[int], y: Sequence[int]) -> float:
    """d(x, y) = 2^-(first differing index), on equal-length truncations."""
    for i, (a, b) in enumerate(zip(x, y)):
        if a != b:
            return 2.0 ** (-i)
    return 0.0


def orbit_metric(x: Sequence[int], y: Sequence[int], n: int) -> float:
    """d_n(x, y) = max of d over the first n shifts."""
    return max(metric(x[t:], y[t:]) for t in range(n))


def ball_agreement_length(n: int, m: int, probe_len: int) -> int:
    """Shortest shared prefix that forces d_n < 2^-m, found by enumeration.

    Scans binary representative pairs of length probe_len and returns the
    smallest j such that agreement on the first j symbols implies
    d_n(x, y) < 2^-m and disagreement anywhere earlier allows d_n >= 2^-m.
    """
    for j in range(probe_len + 1):
        ok = True
        for x in all_words(2, probe_len):
            for y in all_words(2, probe_len):
                agree = x[:j] == y[:j]
                close = orbit_metric(x, y, n) < 2.0 ** (-m)
                if agree and not close:
                    ok = False
                    break
                # a pair differing only beyond probe_len stays undecided,
                # so only the forward implication is testable here
            if not ok:
                break
        if ok:
            return j
    raise AssertionError("no agreement length found; widen probe_len")


def max_separated_set_size(
    alphabet: int, n: int, m: int, probe_len: int
) -> int:
    """Greedy-complete search for a maximal (n, 2^-m)-separated family.

    Representatives are all words of probe_len symbols (padded periodically
    to keep shifts defined); exact maximum by branch and bound over the
    pairwise-distance graph, fine at the tiny sizes the tests use.
    """
    reps = [w * ((n + m) // probe_len + 2) for w in all_words(alphabet, probe_len)]
    sep = [
        [orbit_metric(x, y, n) > 2.0 ** (-m) for y in reps] for x in reps
    ]
    best = 0
    order = range(len(reps))

    def grow(chosen: List[int], rest: List[int]):
        nonlocal best
        best = max(best, len(chosen))
        for idx, r in enumerate(rest):
            if len(chosen) + len(rest) - idx <= best:
                return
            if all(sep[r][c] for c in chosen):
                grow(chosen + [r], rest[idx + 1 :])

    grow([], list(order))
    return best


def random_sub_relation(rng: np.random.Generator, allowed: Sequence[Sequence[bool]]) -> Relation:
    """A random sub-relation of ``allowed`` (each arc kept with probability
    0.7) in which every symbol keeps a successor, so none is trimmed."""
    k = len(allowed)
    rel = [[allowed[a][b] and rng.random() < 0.7 for b in range(k)] for a in range(k)]
    for a in range(k):
        if not any(rel[a]):
            rel[a][int(rng.choice(np.flatnonzero(allowed[a])))] = True
    return tuple(tuple(row) for row in rel)


# ---------------------------------------------------------------------------
# potentials and Birkhoff sums by literal evaluation


def birkhoff(table: Dict[Word, float], depth: int, w: Word, n: int) -> float:
    return sum(table[tuple(w[t : t + depth])] for t in range(n))


def sup_birkhoff(
    allowed: Sequence[Sequence[bool]],
    table: Dict[Word, float],
    depth: int,
    w: Word,
    n: int,
) -> float:
    """Max Birkhoff n-sum over all admissible extensions of w, brute force."""
    need = n + depth - 1
    best = -math.inf
    if len(w) >= need:
        return birkhoff(table, depth, w, n)
    k = len(allowed)
    for tail in all_words(k, need - len(w)):
        full = w + tail
        if all(allowed[full[i]][full[i + 1]] for i in range(len(full) - 1)):
            best = max(best, birkhoff(table, depth, full, n))
    return best


def inf_birkhoff(
    allowed: Sequence[Sequence[bool]],
    table: Dict[Word, float],
    depth: int,
    w: Word,
    n: int,
) -> float:
    """Min Birkhoff n-sum over all admissible extensions of w, brute force."""
    negated = {v: -x for v, x in table.items()}
    return -sup_birkhoff(allowed, negated, depth, w, n)


# ---------------------------------------------------------------------------
# the retired per-context tail walker and Tarjan's SCCs, kept as oracles


def merged_layers(start, step: Callable, depth: int):
    """The tree that ``step`` unfolds from ``start``, merged by state per depth.

    ``step(state)`` lists one (label, child state) pair per child, in order.
    Returns (states, edges): states[d] lists the distinct states d steps from
    the start, in order of discovery, and edges[d][i] holds one (label,
    index into states[d + 1]) pair per child of states[d][i].
    """
    states: List[list] = [[start]]
    edges: List[List[List[Tuple[object, int]]]] = []
    for _ in range(depth):
        index: Dict[object, int] = {}
        rows = []
        for state in states[-1]:
            row = []
            for label, child in step(state):
                j = index.get(child)
                if j is None:
                    j = index[child] = len(index)
                row.append((label, j))
            rows.append(row)
        edges.append(rows)
        states.append(list(index))
    return states, edges


class UnprunedWordLayers:
    """The target's words to ``depth``, merged per depth on (suffix, tracker state).

    The library's layer builder before it pruned frequency states that can
    no longer reach their window at ``depth``, kept verbatim (renamed) as a
    differential oracle: it keeps every state, and its period detector runs
    on every tree.

    A node's suffix is its last r symbols (the whole word while it is
    shorter): ``words`` lists every suffix the target's words can have, and
    ``next[i, b]`` is the suffix after appending b to ``words[i]``, or -1
    where no part admits b there. ``suffix[d]`` and ``state[d]`` give the
    suffix index and the tracker state (one row) of each depth-d node, in
    order of first discovery: parents in order, each parent's children in
    symbol order. Column i of ``kids[d]`` and ``syms[d]`` holds the child
    index and the symbol of each child of node i, in symbol order, padded
    with child 0 and symbol -1.

    Each layer takes one gather for the children's suffixes, one step of
    every part, one ``np.unique`` to merge equal children and one scatter
    to pack the arcs. When a depth's nodes equal an earlier depth's, every
    later layer repeats with that period, and the layers are reused (the
    same array objects) instead of built again.
    """

    def __init__(self, target: TargetAutomaton, r: int, depth: int):
        parts, _, k = target.moves.shape
        reach = target.moves.any(axis=0).tolist()
        words: List[Word] = [()]
        index = {(): 0}
        nxt = []
        for u in words:  # grows while it is read
            row = [-1] * k
            for b in range(k):
                if reach[u[-1] if u else k][b]:
                    w = (u + (b,))[-r:]
                    if w not in index:
                        index[w] = len(words)
                        words.append(w)
                    row[b] = index[w]
            nxt.append(row)
        self.words, self.next = words, np.array(nxt, dtype=np.intp).reshape(len(words), k)
        moves = target.moves[:, [u[-1] if u else k for u in words]].transpose(1, 0, 2)
        self.suffix = [np.zeros(1, dtype=np.intp)]
        self.state = [np.zeros((1, parts), dtype=np.int64)]
        self.kids: List[np.ndarray] = []
        self.syms: List[np.ndarray] = []
        seen: Dict[bytes, int] = {}
        for d in range(depth):
            suffix, state = self.suffix[d], self.state[d]
            key = suffix.tobytes() + state.tobytes()
            if key in seen:  # every later layer repeats with period d - e
                e = seen[key]
                for seq, shift in (self.kids, 0), (self.syms, 0), (self.suffix, 1), (self.state, 1):
                    seq.extend([seq[e + shift + (t - e) % (d - e)] for t in range(d, depth)])
                break
            seen[key] = d
            allowed = moves[suffix] & (state >= 0)[:, :, None]
            stepped = np.where(allowed, state[:, :, None] + target.tags, -1)
            live = allowed.any(axis=1)
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
            _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
            order = np.argsort(first)
            rank = np.argsort(order)
            slot = (np.cumsum(live, axis=1) - 1)[parent, symbol]
            width = int(live.sum(axis=1).max(initial=0))
            kids = np.zeros((width, len(suffix)), dtype=np.intp)
            kids[slot, parent] = rank[inverse]
            syms = np.full((width, len(suffix)), -1, dtype=np.intp)
            syms[slot, parent] = symbol
            self.kids.append(kids)
            self.syms.append(syms)
            self.suffix.append(child_suffix[first[order]])
            self.state.append(child_state[first[order]])

    def per_layer(self, build: Callable[[np.ndarray, np.ndarray, np.ndarray], object]) -> list:
        """``build(suffix, kids, syms)`` for every depth, called once per
        distinct layer and shared by the depths that repeat it."""
        made: Dict[int, object] = {}
        for suffix, kids, syms in zip(self.suffix, self.kids, self.syms):
            if id(kids) not in made:
                made[id(kids)] = build(suffix, kids, syms)
        return [made[id(kids)] for kids in self.kids]


# the engine's folds before they shared per-layer work, kept as oracles: they
# read a library tree (``_engine._TreeProgram``) and redo everything per depth


def cover_fold_walk(tree, d_min: int, centered: bool, exponents: Sequence[float]) -> np.ndarray:
    """``CoverProgram(tree, d_min, centered)(exponents)`` as the fold ran
    before: one ball gather per depth, and per layer one gather and one add
    per arity row, chained by binary log-sum-exps."""
    NEG_INF = -math.inf
    price = tree.prices(tree.host.allowed, not centered)
    suffix = tree.layers.suffix
    ball = {d: price[suffix[d]][:, None] for d in range(d_min, len(tree.kids) + 1)}
    leaves = np.where(tree.accepted(len(tree.kids)), math.inf, NEG_INF)[:, None]
    neg_s = -np.asarray(exponents, dtype=float)
    kids, gains = tree.kids, [g[:, :, 0] for g in tree.gains]
    decay = np.multiply.outer(np.arange(d_min, len(kids) + 1) - tree.sigma, neg_s)
    values = leaves
    for d in range(len(kids), -1, -1):
        if d < len(kids):
            below, values = values, None
            for kid, gain in zip(kids[d], gains[d]):
                arc = gain[:, None] + below[kid]
                values = arc if values is None else np.logaddexp(values, arc, out=values)
            if values is None:  # no state of this layer has a child
                values = np.full((kids[d].shape[1], len(neg_s)), NEG_INF)
        if d >= d_min:
            values = np.minimum(decay[d - d_min] + ball[d], values)
    return values[0]


def leaf_sum_walk(prog, depths: Sequence[int]) -> List[float]:
    """``_engine.leaf_sum_logs`` on the tree ``prog`` as it ran before: the
    acceptance mask and the tail corrections made again at every depth."""
    NEG_INF = -math.inf
    prefix = [np.zeros(1)]
    for d in range(len(prog.kids)):
        nxt = np.full(len(prog.layers.suffix[d + 1]), NEG_INF)
        arcs = prog.gains[d][:, :, 0] + prefix[-1]
        np.logaddexp.at(nxt, prog.kids[d].ravel(), arcs.ravel())
        prefix.append(nxt)
    prices = np.array([prog.prices(rel, True) for rel in prog.tracker.relations])
    out = []
    for d in depths:
        keep = prog.accepted(d)
        suffix, state = prog.layers.suffix[d][keep], prog.layers.state[d][keep]
        # the tail runs over every part the word has not left
        tails = np.where(state >= 0, prices[:, suffix].T, NEG_INF).max(axis=1)
        terms = prefix[d][keep] + tails
        out.append(float(np.logaddexp.reduce(terms)) if terms.size else NEG_INF)
    return out


def extreme_tail_walk(
    successors: Sequence[Sequence[int]], f, ctx: Word, steps: int, want_max: bool
) -> float:
    """Max (min) over the ``steps``-symbol continuations of ``ctx`` allowed by
    ``successors`` of the sum of the potential windows those symbols complete,
    by a fold over the layers ``merged_layers`` grows from ``ctx`` alone.

    An empty ``ctx`` may start with any symbol that has a successor; -inf
    when no continuation of that length exists.
    """
    k = f.depth
    keep = max(k - 1, 1)

    def step(c: Word):
        symbols = successors[c[-1]] if c else [a for a, nxt in enumerate(successors) if nxt]
        return [
            ((f.value(w[-k:]) if len(w) >= k else 0.0), w[-keep:])
            for w in [c + (b,) for b in symbols]
        ]

    states, edges = merged_layers(ctx, step, steps)
    pick = max if want_max else min
    values = [0.0] * len(states[-1])
    for rows in reversed(edges):
        values = [pick([g + values[j] for g, j in row]) if row else -math.inf for row in rows]
    return values[0]


def tarjan_components(adjacency: Sequence[Sequence[bool]]) -> Tuple[Tuple[int, ...], ...]:
    """Tarjan's SCC algorithm, iterative, components sorted by smallest member."""
    n = len(adjacency)
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list = []
    components = []
    counter = [0]

    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, iter([b for b in range(n) if adjacency[root][b]]))]
        index_of[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for b in it:
                if index_of[b] == -1:
                    index_of[b] = low[b] = counter[0]
                    counter[0] += 1
                    stack.append(b)
                    on_stack[b] = True
                    work.append((b, iter([c for c in range(n) if adjacency[b][c]])))
                    advanced = True
                    break
                elif on_stack[b]:
                    low[v] = min(low[v], index_of[b])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index_of[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                components.append(tuple(sorted(comp)))
    return tuple(sorted(components))


# ---------------------------------------------------------------------------
# orbit sampling and local pressure, one symbol at a time


def sample_orbit_symbolwise(
    initial: np.ndarray, transition: np.ndarray, length: int, seed: int
) -> Word:
    """A Markov orbit drawn by inverse CDF, one searchsorted per symbol.

    One ``rng.random(length)`` draw: draw 0 picks from the initial row,
    draw t from the transition row of symbol t - 1; a final symbol that
    lands one past the end (a draw tying the last CDF value) is clamped.
    """
    rng = np.random.default_rng(seed)
    init_cdf = np.cumsum(initial)
    trans_cdf = np.cumsum(transition, axis=1)
    draws = rng.random(length)
    symbols = [int(np.searchsorted(init_cdf, draws[0], side="right"))]
    for t in range(1, length):
        row = trans_cdf[symbols[-1]]
        symbols.append(int(np.searchsorted(row, draws[t], side="right")))
    k = len(initial)
    return tuple(min(s, k - 1) for s in symbols)


def local_pressure_symbolwise(
    initial: np.ndarray,
    transition: np.ndarray,
    table: Dict[Word, float],
    depth: int,
    word: Word,
    m: int,
    ns: Sequence[int],
) -> Tuple[Tuple[Tuple[int, float], ...], float, Tuple[int, ...]]:
    """(values, liminf, zero-measure horizons) of the local pressure trace.

    Cylinder logs and Birkhoff sums are accumulated left to right in Python
    floats; the Birkhoff sum is extended only up to horizons whose ball has
    positive measure, so windows beyond them are never looked up (a missing
    window raises KeyError).
    """
    prefix_logs = []
    acc = 0.0
    prev = None
    for b in word:
        if acc != -math.inf:
            step = float(initial[b]) if prev is None else float(transition[prev, b])
            acc = acc + math.log(step) if step > 0.0 else -math.inf
        prefix_logs.append(acc)
        prev = b
    running = itertools.accumulate(
        table[tuple(word[i : i + depth])] for i in range(ns[-1])
    )
    f_n: List[float] = []
    values = []
    flagged = []
    for n in ns:
        log_ball = prefix_logs[n + m - 1]
        if log_ball == -math.inf:
            values.append((n, math.inf))
            flagged.append(n)
            continue
        f_n.extend(itertools.islice(running, n - len(f_n)))
        values.append((n, (f_n[-1] - log_ball) / n))
    tail_from = ns[len(ns) // 2]
    liminf = min(v for n, v in values if n >= tail_from)
    return tuple(values), liminf, tuple(flagged)


def partition_function(
    words: Sequence[Word],
    tails: Callable[[Word], Sequence[Relation]],
    table: Dict[Word, float],
    depth: int,
    n: int,
) -> float:
    """P_n by literal evaluation: the sum over the words of exp(sup f_n).

    ``tails(w)`` lists the relations w's continuations may follow (none when
    w is outside the target); the supremum runs over every admissible
    continuation in any of them.
    """
    total = 0.0
    for w in words:
        rels = tails(w)
        if rels:
            total += math.exp(max(sup_birkhoff(rel, table, depth, w, n) for rel in rels))
    return total


def worst_log_ratio(
    allowed: Sequence[Sequence[bool]],
    initial: Sequence[float],
    transition: np.ndarray,
    table: Dict[Word, float],
    depth: int,
    n: int,
    m: int,
) -> float:
    """max over admissible words w of length n + m of log mu([w]) - f_n(w),
    by enumeration (mu the Markov measure, f_n read off w itself)."""
    best = -math.inf
    for w in admissible_words(allowed, n + m):
        mass = initial[w[0]] * math.prod(transition[a][b] for a, b in zip(w, w[1:]))
        if mass > 0:
            best = max(best, math.log(mass) - birkhoff(table, depth, w, n))
    return best


def gibbs_ratio_bounds(
    allowed: Sequence[Sequence[bool]],
    initial: Sequence[float],
    transition: np.ndarray,
    table: Dict[Word, float],
    depth: int,
    pressure: float,
    max_len: int,
) -> Tuple[float, float]:
    """Extremes over admissible words w up to max_len of
    mu([w]) / exp(-|w| P + sup f_|w| on [w]), by enumeration (mu the Markov
    measure; the supremum realizes the windows w leaves undetermined)."""
    rmin, rmax = math.inf, -math.inf
    for length in range(1, max_len + 1):
        for w in admissible_words(allowed, length):
            mass = math.prod((transition[a][b] for a, b in zip(w, w[1:])), start=initial[w[0]])
            s = sup_birkhoff(allowed, table, depth, w, length)
            ratio = mass / math.exp(-length * pressure + s)
            rmin, rmax = min(rmin, ratio), max(rmax, ratio)
    return rmin, rmax


# ---------------------------------------------------------------------------
# the retired symbol-by-symbol Gibbs pass and stack-walk exact pressure,
# kept as oracles


def worst_log_ratios_walk(
    successors: Sequence[Sequence[int]],
    initial: np.ndarray,
    transition: np.ndarray,
    f,
    ns: Sequence[int],
    m: int,
) -> List[float]:
    """For each horizon n of the increasing ``ns``, the max over words w of
    length n + m of log mu([w]) - f_n(w), by a max-plus walk over one
    (symbol, successor) pair at a time; f.depth <= m + 1."""
    k = f.depth
    c = len(successors)
    with np.errstate(divide="ignore"):
        logP = np.where(transition > 0, np.log(transition), -math.inf)
        logpi = np.where(initial > 0, np.log(initial), -math.inf)

    def step(V: List[float], weigh: bool) -> List[float]:
        nxt = [-math.inf] * c
        for a in range(c):
            if V[a] == -math.inf:
                continue
            for b in successors[a]:
                gain = logP[a, b]
                if weigh:
                    gain -= f.value((a, b) if k == 2 else (b,))
                cand = V[a] + gain
                if cand > nxt[b]:
                    nxt[b] = cand
        return nxt

    weighed = [[logpi[a] - (f.value((a,)) if k == 1 else 0.0) for a in range(c)]]
    for _ in range(ns[-1] + k - 2):
        weighed.append(step(weighed[-1], True))
    out = []
    for n in ns:
        V = weighed[n + k - 2]
        for _ in range(m - k + 1):
            V = step(V, False)
        out.append(max(V))
    return out


def invariant_pressure_stack(
    initial: np.ndarray, transition: np.ndarray, f, support_eps: float = 1e-15
) -> float:
    """h(mu) + sum of mu([w]) f(w) over the charged depth-k words, the words
    walked depth first off an explicit stack in lexicographic order."""
    pi, P = initial, transition
    n = len(pi)
    charged = [a for a in range(n) if pi[a] > support_eps]
    entropy = 0.0
    for a in charged:
        for b in range(n):
            p = P[a, b]
            if p > 0.0:
                entropy -= pi[a] * p * math.log(p)
    integral = 0.0
    stack = [((a,), float(pi[a])) for a in reversed(charged)]
    while stack:
        w, mass = stack.pop()
        if len(w) == f.depth:
            integral += mass * f.value(w)
            continue
        for b in reversed(range(n)):
            step = P[w[-1], b]
            if step > 0.0:
                stack.append((w + (b,), mass * step))
    return entropy + integral


# ---------------------------------------------------------------------------
# the variational measure families, one measure at a time


def stationary_row(P: np.ndarray) -> np.ndarray:
    """pi P = pi, sum(pi) = 1 for one matrix of irreducible support, solved
    as its own linear system; ArithmeticError on a reducible support."""
    n = len(P)
    if len(tarjan_components(P > 0.0)) != 1:
        raise ArithmeticError("stationary row needs irreducible support")
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.maximum(np.linalg.solve(A, b), 0.0)
    return pi / pi.sum()


def dirichlet_chain(successors, rng: np.random.Generator, eps: float = 1e-6):
    """(pi, P) of one random chain on exactly the given arcs: each row a
    Dirichlet draw lifted off zero by eps and renormalized, drawn in row
    order, and its stationary row."""
    c = len(successors)
    P = np.zeros((c, c))
    for i, succ in enumerate(successors):
        row = rng.dirichlet(np.ones(len(succ)))
        P[i, list(succ)] = (row + eps) / (1.0 + len(succ) * eps)
    return stationary_row(P), P


def dirichlet_grid_walk(successors, rng: np.random.Generator, f, count: int) -> List[float]:
    """The variational grid: count Dirichlet chains drawn one after another,
    each priced by invariant_pressure_stack."""
    return [invariant_pressure_stack(*dirichlet_chain(successors, rng), f) for _ in range(count)]


def frequency_family_walk(
    allowed, symbol: int, target: float, window: float, f, count: int,
    rng: np.random.Generator, eps: float = 1e-6,
) -> Tuple[List[float], List[str]]:
    """Values and labels of a family of invariant measures whose frequency
    of symbol lies in the band, one measure at a time: on a full shift
    (k >= 2) max(2, count) Bernoulli measures with p[symbol] swept evenly
    across the band, elsewhere the first count Dirichlet chains whose
    stationary frequency of symbol lies in the band, out of at most 40 count
    draws (possibly fewer, possibly none). Every value is a lower bound for
    the band's conditional variational limit."""
    lo, hi = max(eps, target - window), min(1.0 - eps, target + window)
    k = len(allowed)
    values: List[float] = []
    labels: List[str] = []
    if k >= 2 and all(all(row) for row in allowed):
        for p_s in np.linspace(lo, hi, max(2, count)):
            p = np.full(k, (1.0 - p_s) / (k - 1))
            p[symbol] = p_s
            values.append(invariant_pressure_stack(p, np.tile(p, (k, 1)), f))
            labels.append(f"bernoulli p[{symbol}]={p_s:.6f}")
        return values, labels
    successors = [[b for b in range(k) if allowed[a][b]] for a in range(k)]
    attempts = 0
    while len(values) < count and attempts < 40 * count:
        attempts += 1
        pi, P = dirichlet_chain(successors, rng, eps)
        freq = float(pi[symbol])
        if lo <= freq <= hi:
            values.append(invariant_pressure_stack(pi, P, f))
            labels.append(f"markov freq[{symbol}]={freq:.6f}")
    return values, labels


# ---------------------------------------------------------------------------
# exhaustive cover search


def oracle_costs(
    allowed: Sequence[Sequence[bool]],
    table: Dict[Word, float],
    depth: int,
    leaves: Sequence[Word],
    s: float,
    d_min: int,
    d_max: int,
    sigma: int = 0,
    pick=sup_birkhoff,
) -> Dict[Word, float]:
    """Ball costs for every prefix of the given leaves.

    A depth-d prefix is priced exp(-s * h + pick(f_h over its cylinder))
    with horizon h = d - sigma: sigma = 0 prices balls at their full depth,
    q - 1 prices strings over a depth-q partition, and ``inf_birkhoff``
    gives the centered (infimum) pricing.
    """
    cost = {}
    for leaf in leaves:
        for d in range(d_min, min(d_max, len(leaf)) + 1):
            w = leaf[:d]
            if w not in cost:
                h = d - sigma
                cost[w] = math.exp(-s * h + pick(allowed, table, depth, w, h))
    return cost


def brute_min_cover(
    leaves: Sequence[Word],
    cost: Dict[Word, float],
    d_min: int,
    d_max: int,
) -> float:
    """Exact minimum total cost of a prefix cover of `leaves`.

    Candidate covering words are the depth-d prefixes of the leaves for
    d in [d_min, d_max]; a choice of one candidate per leaf covers it, and
    shared ancestors are paid once. Exhaustive over all assignments, so
    keep the leaf count tiny.
    """
    options = []
    for leaf in leaves:
        opts = []
        for d in range(d_min, min(d_max, len(leaf)) + 1):
            opts.append(leaf[:d])
        options.append(opts)
    best = math.inf
    for pick in itertools.product(*options):
        chosen = set(pick)
        total = sum(cost[w] for w in chosen)
        best = min(best, total)
    return best


def interval_min_cover(
    leaves: Sequence[Word],
    cost: Dict[Word, float],
    d_min: int,
    d_max: int,
) -> float:
    """Same minimum via interval dynamic programming over sorted leaves.

    Sorted leaves covered by a common prefix form a contiguous block, so
    the optimum decomposes over intervals: cover the first block with one
    ancestor (any depth) and recurse on the rest. Independent of both the
    library DP and the exhaustive search above.
    """
    leaves = sorted(leaves)

    cache: Dict[Tuple[int, int], float] = {}

    def solve(lo: int, hi: int) -> float:
        if lo >= hi:
            return 0.0
        key = (lo, hi)
        if key in cache:
            return cache[key]
        best = math.inf
        leaf = leaves[lo]
        for d in range(d_min, min(d_max, len(leaf)) + 1):
            w = leaf[:d]
            end = lo
            while end < hi and leaves[end][: len(w)] == w:
                end += 1
            best = min(best, cost[w] + solve(end, hi))
        cache[key] = best
        return best

    return solve(0, len(leaves))


def lp_weighted_cover(
    leaves: Sequence[Word],
    cost: Dict[Word, float],
    d_min: int,
    d_max: int,
) -> float:
    """Optimal fractional cover of `leaves`, solved as a covering LP.

    One nonnegative weight per candidate (every depth-d prefix of a leaf,
    d in [d_min, d_max]); each leaf must collect weight >= 1 from its
    prefixes. Solved by scipy's HiGHS with tight tolerances, sharing no
    logic with the cover DPs, so agreement with them checks that the
    fractional optimum is integral rather than assuming it.
    """
    pool = sorted({leaf[:d] for leaf in leaves
                   for d in range(d_min, min(d_max, len(leaf)) + 1)})
    index = {w: j for j, w in enumerate(pool)}
    rows, cols = [], []
    for i, leaf in enumerate(leaves):
        for d in range(d_min, min(d_max, len(leaf)) + 1):
            rows.append(i)
            cols.append(index[leaf[:d]])
    A = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(leaves), len(pool)))
    result = linprog(
        c=np.array([cost[w] for w in pool]),
        A_ub=-A,
        b_ub=-np.ones(len(leaves)),
        bounds=(0, None),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
            "ipm_optimality_tolerance": 1e-12,
        },
    )
    assert result.success, f"covering LP failed: {result.message}"
    return float(result.fun)


# ---------------------------------------------------------------------------
# dense spectral oracle


def spectral_log_radius(weights: np.ndarray) -> float:
    """log of the spectral radius by numpy's dense eigenvalue solver."""
    return float(np.log(np.max(np.abs(np.linalg.eigvals(weights)))))


_POWER_ITERATION_CAP = 2_000_000


def perron_power_iteration(L: np.ndarray, log_gap: float) -> Tuple[float, float, np.ndarray]:
    """Power iteration on L + I with two-sided Perron-root brackets.

    For an irreducible nonnegative L the shift by the identity makes the
    matrix primitive without moving the Perron root (it shifts by exactly 1),
    and for any positive vector v the quotients (Mv)_i / v_i bracket the
    root of L + I from both sides. Iterates until the bracket [lo-1, hi-1]
    around the root of L itself has log-width at most ``log_gap``, which is
    the quantity the pressure midpoint needs.

    The library's solver before the log-space Collatz-Wielandt certificate,
    kept verbatim as a differential oracle; it stalls on near-periodic L.
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


def transfer_weights(
    allowed: Sequence[Sequence[bool]], table: Dict[Word, float], depth: int
) -> np.ndarray:
    """Depth-1-collapsed transfer matrix weights for depth <= 2 tables."""
    k = len(allowed)
    M = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            if not allowed[a][b]:
                continue
            if depth == 1:
                M[a, b] = math.exp(table[(a,)])
            else:
                M[a, b] = math.exp(table[(a, b)])
    return M


def markov_entropy(P: np.ndarray, pi: np.ndarray) -> float:
    h = 0.0
    for a in range(len(pi)):
        for b in range(len(pi)):
            if P[a, b] > 0 and pi[a] > 0:
                h -= pi[a] * P[a, b] * math.log(P[a, b])
    return h


# ---------------------------------------------------------------------------
# exhaustive pairwise first-difference table


def first_diff_table(word_len: int) -> np.ndarray:
    """J[i, j] = first index where binary words i and j differ, else word_len.

    Computed literally from the symbol arrays for every one of the
    2^word_len x 2^word_len pairs, in chunks to bound memory.
    """
    count = 1 << word_len
    bits = (
        (np.arange(count)[:, None] >> np.arange(word_len - 1, -1, -1)) & 1
    ).astype(np.uint8)
    J = np.empty((count, count), dtype=np.int8)
    chunk = max(1, (1 << 22) // (count * word_len))
    for lo in range(0, count, chunk):
        hi = min(count, lo + chunk)
        diff = bits[lo:hi, None, :] != bits[None, :, :]
        any_diff = diff.any(axis=2)
        first = diff.argmax(axis=2)
        first[~any_diff] = word_len
        J[lo:hi] = first
    return J
