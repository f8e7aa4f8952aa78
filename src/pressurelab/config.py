"""Config schema, JSON/CSV/SVG emission, and report serialization.

The config is a JSON object; the full field-by-field schema is documented
in the README. parse_config collects every violation it can find and raises
one SchemaError listing all of them; a config whose only fault is an
inadmissible potential key raises InadmissibleWord instead (the word is the
error, not the schema).
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field, is_dataclass
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bowen import CriticalExponent
from .capacity import CapacityEstimate
from .errors import InadmissibleWord, ScaleTooCoarse, SchemaError
from .harness import _GIBBS_BETAS
from .subsets import SubsetSpec, finite_union, frequency_level, sub_sft, validate_spec, whole
from .symbolic import (
    LocallyConstantPotential,
    Scale,
    Subshift,
    Word,
    _is_int,
    constant_potential,
    full_shift,
    potential_from_table,
    subshift_from_pairs,
)
from .transfer import _SUM_TOL

_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "pressure exact": ("system", "potential"),
    "pressure capacity": ("system", "potential", "scales", "n_range"),
    "pressure bowen": ("system", "potential", "scales", "N", "L"),
    "pressure weighted": ("system", "potential", "scales", "N", "L"),
    "pressure measure": ("system", "potential", "scales", "n_range", "measure"),
    "verify chain": ("system", "potential", "subset", "scales", "s", "delta", "N", "L"),
    "verify variational": ("system", "potential", "subset", "scales", "N", "L"),
    "verify unions": ("system", "potential", "subset", "scales", "N", "L"),
    "verify gibbs": ("system", "potential", "scales", "N", "L"),
    "verify properties": (),
}

COMMANDS = tuple(_REQUIRED)

# name -> (type, bound, default) of each scalar field, in the order its problems
# are reported; an int must be >= its bound, a float with bound 0 must be > 0
SCALARS: Dict[str, Tuple[type, Optional[int], object]] = {
    "N": (int, 1, None),
    "L": (int, 1, None),
    "tol": (float, 0, 1e-4),
    "seed": (int, 0, 0),
    "s": (float, None, None),
    "delta": (float, 0, None),
    "samples": (int, 1, 100),
    "measure_grid": (int, 2, 200),
    "trials": (int, 1, 100),
}

# every top-level key a config may have
FIELDS = frozenset(
    {"system", "potential", "subset", "scales", "n_range", "measure", "betas", "label", *SCALARS}
)


@dataclass
class ExperimentConfig:
    system: Optional[Subshift]
    potential: Optional[LocallyConstantPotential]
    subset: SubsetSpec
    scales: Tuple[Scale, ...]
    n_range: Optional[Tuple[int, ...]]
    N: Optional[int]
    L: Optional[int]
    tol: float
    seed: int
    s: Optional[float]
    delta: Optional[float]
    samples: int
    measure_spec: Optional[Dict[str, object]]
    measure_grid: int
    trials: int
    betas: Tuple[float, ...]
    raw: Dict[str, object] = field(repr=False, default_factory=dict)


def parse_config(
    text: Union[str, Dict[str, object]], command: Optional[str] = None
) -> ExperimentConfig:
    """Parse and validate a JSON config, optionally against one command.

    Raises SchemaError carrying every (field path, message) pair found, else
    InadmissibleWord when a potential table key names a forbidden word.
    With ``command`` given, command-specific required fields and scale
    preconditions are enforced here rather than at run time.
    """
    if command is not None and command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    if isinstance(text, str):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise SchemaError([("", f"config is not valid JSON: {e}")])
    else:
        data = text
    if not isinstance(data, dict):
        raise SchemaError([("", "config must be a JSON object")])

    problems: List[Tuple[str, str]] = []
    for key in data:
        if key not in FIELDS:
            problems.append((key, "unknown field"))
        elif data[key] is None:
            problems.append((key, "must not be null"))

    system = _parse_system(data.get("system"), problems)
    forbidden: List[str] = []
    potential = _parse_potential(data.get("potential"), system, problems, forbidden)
    subset = _parse_subset(data.get("subset"), system, problems)
    scales = _parse_scales(data.get("scales"), problems)
    n_range = _parse_n_range(data.get("n_range"), problems)

    scalars = {name: parse_scalar(name, data.get(name), problems) for name in SCALARS}
    betas = _parse_betas(data.get("betas"), problems)
    measure_spec = _parse_measure(data.get("measure"), system, problems)

    if command is not None:
        # a present field that fails to parse is reported at its own path only
        for name in _REQUIRED[command]:
            if name not in data:
                problems.append((name, f"required for `{command}`"))
        if command == "verify unions" and subset is not None and subset.kind != "finite_union":
            problems.append(("subset", "must be a finite_union of the components"))
        equilibrium = command == "pressure measure" and (measure_spec or {}).get("kind") == "equilibrium"
        invariant = equilibrium or command in ("pressure exact", "verify gibbs")
        if invariant and subset is not None and subset.kind not in ("whole", "sub_sft"):
            user = "an equilibrium measure" if equilibrium else f"`{command}`"
            problems.append(("subset", f"{user} needs an invariant target (whole or sub_sft)"))
        if command == "verify variational" and subset is not None and subset.kind == "finite_union":
            problems.append(("subset", "`verify variational` takes a single target; unions go to `verify unions`"))

    if problems:
        raise SchemaError(problems)
    # after the schema, so a config with schema problems reports all of them
    if forbidden:
        raise InadmissibleWord(
            f"potential key {forbidden[0]!r} names a forbidden word of the system"
        )
    if scales is not None and command == "pressure capacity" and any(sc.m < 1 for sc in scales):
        raise ScaleTooCoarse(
            "separated-set counting is degenerate at m=0; `pressure capacity` needs every scale m >= 1"
        )
    if scales is not None and command == "verify chain" and any(sc.m < 3 for sc in scales):
        raise ScaleTooCoarse("`verify chain` coarsens by 3 dyadic steps; needs m >= 3")
    return ExperimentConfig(
        system=system,
        potential=potential,
        subset=subset if subset is not None else whole(),
        scales=scales if scales is not None else (Scale(1),),
        n_range=n_range,
        measure_spec=measure_spec,
        betas=betas,
        **scalars,
        raw=data,
    )


# ---------------------------------------------------------------------------
# field parsers


def _parse_system(node, problems) -> Optional[Subshift]:
    if node is None:
        return None
    if not isinstance(node, dict):
        problems.append(("system", "must be an object"))
        return None
    _reject_unknown(node, "system", ("alphabet_size", "allowed", "label"), problems)
    k = node.get("alphabet_size")
    if not _is_int(k) or k < 1:
        problems.append(("system.alphabet_size", "must be a positive integer"))
        return None
    allowed = node.get("allowed", "full")
    label = node.get("label", "")
    if allowed == "full":
        return full_shift(k, label)
    if not isinstance(allowed, list) or any(not isinstance(p, list) or len(p) != 2 for p in allowed):
        problems.append(("system.allowed", 'must be "full" or a list of [from, to] pairs'))
        return None
    try:
        return subshift_from_pairs(k, allowed, label)
    except ValueError as e:  # a pair outside the alphabet, a symbol with no successor or predecessor
        problems.append(("system.allowed", str(e)))
        return None


def _word_from_key(key: str, alphabet_size: int, depth: int) -> Word:
    # without a comma a key is one digit per symbol, or at depth 1 one decimal symbol
    parts = key.split(",") if "," in key or (depth == 1 and key) else list(key)
    try:
        word = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"key {key!r} is not a word (digits or comma-separated)")
    if not word:
        raise ValueError(f"key {key!r} is empty")
    if any(not 0 <= a < alphabet_size for a in word):
        raise ValueError(f"key {key!r} uses symbols outside the alphabet")
    return word


def _parse_potential(node, system, problems, forbidden) -> Optional[LocallyConstantPotential]:
    """The potential, or None; appends the table keys that name forbidden
    words to ``forbidden`` and skips them."""
    if node is None:
        return None
    if not isinstance(node, dict):
        problems.append(("potential", "must be an object"))
        return None
    form = ("constant",) if "constant" in node else ("depth", "table", "label")
    _reject_unknown(node, "potential", form, problems)
    if system is None:
        problems.append(("potential", "needs a system to validate against"))
        return None
    if "constant" in node:
        c = node["constant"]
        if not _is_finite(c):
            problems.append(("potential.constant", "must be a finite number"))
            return None
        return constant_potential(system, float(c))
    depth = node.get("depth")
    table_node = node.get("table")
    if not _is_int(depth) or depth < 1:
        problems.append(("potential.depth", "must be a positive integer"))
        return None
    if not isinstance(table_node, dict):
        problems.append(("potential.table", "must be an object of word -> value"))
        return None
    table: Dict[Word, float] = {}
    seen: Dict[Word, str] = {}
    for key, value in table_node.items():
        try:
            word = _word_from_key(key, system.alphabet_size, depth)
        except ValueError as e:
            problems.append((f"potential.table.{key}", str(e)))
            continue
        if len(word) != depth:
            problems.append(
                (f"potential.table.{key}", f"word length {len(word)} != depth {depth}")
            )
            continue
        if word in seen:
            problems.append((f"potential.table.{key}", f"names the word of key {seen[word]!r} again"))
            continue
        seen[word] = key
        if not system.is_admissible(word):
            forbidden.append(key)
            continue
        if not _is_finite(value):
            problems.append((f"potential.table.{key}", "value must be a finite number"))
            continue
        table[word] = float(value)
    try:
        return potential_from_table(system, depth, table, label=node.get("label", ""))
    except ValueError as e:
        problems.append(("potential.table", str(e)))
        return None


def _parse_subset(node, system, problems) -> Optional[SubsetSpec]:
    if node is None:
        return None
    spec = _subset_from_node(node, problems, path="subset")
    if spec is not None and system is not None:
        try:
            validate_spec(spec, system)
        except ValueError as e:
            problems.append(("subset", str(e)))
            return None
    return spec


def _subset_from_node(node, problems, path) -> Optional[SubsetSpec]:
    if not isinstance(node, dict):
        problems.append((path, "must be an object"))
        return None
    kind = node.get("kind")
    label = node.get("label", "")
    if kind == "whole":
        _reject_unknown(node, path, ("kind",), problems)
        return whole()
    if kind == "sub_sft":
        _reject_unknown(node, path, ("kind", "label", "allowed"), problems)
        allowed = node.get("allowed")
        if not isinstance(allowed, list) or not allowed or any(
            not isinstance(row, list) or any(x not in (0, 1) for x in row) for row in allowed
        ):
            problems.append((f"{path}.allowed", "must be a boolean matrix (0/1 rows)"))
            return None
        matrix = tuple(tuple(bool(x) for x in row) for row in allowed)
        if any(len(row) != len(matrix) for row in matrix):
            problems.append((f"{path}.allowed", "must be square"))
            return None
        return sub_sft(matrix, label=label)
    if kind == "finite_union":
        _reject_unknown(node, path, ("kind", "label", "parts"), problems)
        parts_node = node.get("parts")
        if not isinstance(parts_node, list) or len(parts_node) < 2:
            problems.append((f"{path}.parts", "must list at least two subsets"))
            return None
        parts = []
        for i, p in enumerate(parts_node):
            spec = _subset_from_node(p, problems, path=f"{path}.parts[{i}]")
            if spec is None:
                return None
            parts.append(spec)
        return finite_union(*parts, label=label)
    if kind == "frequency_level":
        _reject_unknown(node, path, ("kind", "label", "symbol", "target", "window"), problems)
        symbol = node.get("symbol")
        target = node.get("target")
        window = node.get("window")
        if not _is_int(symbol):
            problems.append((f"{path}.symbol", "must be an integer symbol"))
            return None
        if not _is_finite(target) or not 0 <= target <= 1:
            problems.append((f"{path}.target", "must be a frequency in [0, 1]"))
            return None
        if not _is_finite(window) or window <= 0:
            problems.append((f"{path}.window", "must be a positive half-width"))
            return None
        return frequency_level(symbol, float(target), float(window), label=label)
    problems.append((f"{path}.kind", f"unknown subset kind {kind!r}"))
    return None


def _parse_scales(node, problems) -> Optional[Tuple[Scale, ...]]:
    if node is None:
        return None
    if _is_int(node):
        node = [node]
    if not isinstance(node, list) or not node:
        problems.append(("scales", "must be an integer m or a nonempty list of m"))
        return None
    out = []
    for m in node:
        if not _is_int(m) or m < 0:
            problems.append(("scales", f"scale m={m!r} must be an integer >= 0"))
            return None
        if Scale(m) in out:
            problems.append(("scales", f"scale m={m} is listed twice"))
            return None
        out.append(Scale(m))
    return tuple(out)


def _parse_n_range(node, problems) -> Optional[Tuple[int, ...]]:
    if node is None:
        return None
    if (
        not isinstance(node, list)
        or len(node) < 2
        or any(not _is_int(x) for x in node)
    ):
        problems.append(("n_range", "must be [lo, hi] or an increasing integer list"))
        return None
    return tuple(node)


def _parse_betas(node, problems) -> Tuple[float, ...]:
    if node is None:
        return _GIBBS_BETAS
    if not isinstance(node, list) or not node or any(
        not _is_finite(b) or b <= 0 for b in node
    ):
        problems.append(("betas", "must be a nonempty list of positive finite numbers"))
        return _GIBBS_BETAS
    return tuple(float(b) for b in node)


def _parse_measure(node, system, problems) -> Optional[Dict[str, object]]:
    if node is None:
        return None
    if not isinstance(node, dict):
        problems.append(("measure", "must be an object"))
        return None
    kind = node.get("kind")
    if kind == "equilibrium":
        _reject_unknown(node, "measure", ("kind",), problems)
        return {"kind": "equilibrium"}
    if kind == "bernoulli":
        _reject_unknown(node, "measure", ("kind", "p"), problems)
        p = node.get("p")
        if not _is_distribution(p):
            problems.append(("measure.p", "entries must be finite, >= 0 and sum to 1"))
            return None
        if system is not None and len(p) != system.alphabet_size:
            problems.append(("measure.p", "length must equal alphabet_size"))
            return None
        charged = [a for a, x in enumerate(p) if x > 0]
        if system is not None and not all(system.allowed[a][b] for a in charged for b in charged):
            problems.append(("measure.p", "charges a block the system forbids"))
            return None
        return {"kind": "bernoulli", "p": [float(x) for x in p]}
    if kind == "markov":
        _reject_unknown(node, "measure", ("kind", "transition", "initial"), problems)
        T = node.get("transition")
        if not isinstance(T, list) or any(not isinstance(r, list) for r in T):
            problems.append(("measure.transition", "must be a row-stochastic matrix"))
            return None
        k = len(T)
        if any(len(r) != k for r in T) or (
            system is not None and k != system.alphabet_size
        ):
            problems.append(("measure.transition", "must be alphabet_size x alphabet_size"))
            return None
        for i, r in enumerate(T):
            if not _is_distribution(r):
                problems.append((f"measure.transition[{i}]", "row must be >= 0 and sum to 1"))
                return None
            if system is not None and any(x > 0 and not ok for x, ok in zip(r, system.allowed[i])):
                problems.append((f"measure.transition[{i}]", "charges an arc the system forbids"))
                return None
        out: Dict[str, object] = {
            "kind": "markov",
            "transition": [[float(x) for x in r] for r in T],
        }
        init = node.get("initial")
        if init is not None:
            if not _is_distribution(init) or len(init) != k:
                problems.append(("measure.initial", "must be a probability vector"))
                return None
            out["initial"] = [float(x) for x in init]
        return out
    problems.append(("measure.kind", 'must be "bernoulli", "markov", or "equilibrium"'))
    return None


def _reject_unknown(node, path, known, problems) -> None:
    """Report each key of the object ``node`` outside ``known`` at its own path."""
    problems.extend((f"{path}.{key}", "unknown field") for key in node if key not in known)


def _is_finite(v) -> bool:
    """True for a JSON number a float holds (json accepts NaN and Infinity)."""
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    return number and abs(v) <= sys.float_info.max


def _is_distribution(v) -> bool:
    """True for a list of finite numbers >= 0 whose sum is 1 within the
    tolerance MarkovMeasure applies, summed the way it sums."""
    entries = isinstance(v, list) and all(_is_finite(x) and x >= 0 for x in v)
    return entries and abs(np.sum(np.asarray(v, dtype=float)) - 1.0) <= _SUM_TOL


def parse_scalar(name: str, value, problems, path: Optional[str] = None):
    """``value`` as config field ``name`` of SCALARS, or the field's default
    when it is None (absent, or a null reported as such) or fails its check,
    the problem then appended at ``path`` (default ``name``)."""
    kind, bound, default = SCALARS[name]
    if value is None:
        return default
    if kind is int and not _is_int(value):
        problem = "must be an integer"
    elif kind is int and value < bound:
        problem = f"must be >= {bound}"
    elif kind is float and not _is_finite(value):
        problem = "must be a finite number"
    elif kind is float and bound is not None and value <= bound:
        problem = "must be positive"
    else:
        return kind(value)
    problems.append((path or name, problem))
    return default


# ---------------------------------------------------------------------------
# report serialization


def _number(x) -> str:
    """A float as reports and CSV traces write it: its repr when finite, else
    inf, -inf or nan (a report quotes these, so it stays strict JSON)."""
    x = float(x)
    if math.isfinite(x):
        return float.__repr__(x)
    return "nan" if x != x else "inf" if x > 0 else "-inf"


_JSON_SCALARS = {  # type -> its JSON text
    float: lambda x: float.__repr__(x) if math.isfinite(x) else f'"{_number(x)}"',
    int: int.__repr__, str: encode_basestring_ascii,
    bool: lambda b: "true" if b else "false", type(None): lambda _: "null",
}
_CRITICAL = "midpoint s_low s_high width value_at_low value_at_high threshold_value depth N method"


def _plain(obj):
    """What a report writes for a numpy array or scalar (its ``tolist()``) or
    a result dataclass (its fields); bisection histories and traces go to the
    CSV trace instead."""
    if isinstance(obj, CriticalExponent):
        fields = {name: getattr(obj, name) for name in _CRITICAL.split()}
        return {**fields, "m": obj.scale.m, "probes": len(obj.history)}
    if isinstance(obj, CapacityEstimate):
        return {"slope": obj.slope, "tail_max": obj.tail_max, "window": obj.window,
                "m": obj.scale.m, "p_n": obj.p_n, "empty_n": obj.empty_n}
    if isinstance(obj, (np.ndarray, np.generic)):  # arrays and the other numpy scalars
        return obj.tolist()
    if is_dataclass(obj):
        names = obj.__dataclass_fields__
        return {name: getattr(obj, name) for name in names if name not in ("history", "trace", "raw")}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _numbers(values) -> bool:
    """True when every value is an int or a float of at most the largest
    finite magnitude (so no bool, NaN, inf, numpy scalar or list), which a
    report writes as its repr; the compare is exact for ints of any size."""
    return set(map(type, values)) <= {int, float} and all(map(sys.float_info.max.__ge__, map(abs, values)))


def _emit(obj, ind: str) -> str:
    """``obj`` as JSON indented by 2, its first line at ``ind`` (a newline and
    the indent): dict keys are written as strings, sorted, and keys equal as
    strings keep the last value; a list of numbers is one join, and a list of
    non-empty lists or tuples of numbers one join per row."""
    kind = type(obj)
    if kind in _JSON_SCALARS:
        return _JSON_SCALARS[kind](obj)
    inner = ind + "  "
    if kind is list or kind is tuple:
        if _numbers(obj):
            items = map(repr, obj)
        elif set(map(type, obj)) <= {list, tuple} and all(obj) and _numbers([x for row in obj for x in row]):
            row = f",{inner}  "
            items = [f"[{inner}  {row.join(map(repr, values))}{inner}]" for values in obj]
        else:
            items = [_emit(v, inner) for v in obj]
        return f"[{inner}{f',{inner}'.join(items)}{ind}]" if obj else "[]"
    if kind is dict:
        named = {str(k): v for k, v in obj.items()}
        items = [f"{encode_basestring_ascii(k)}: {_emit(named[k], inner)}" for k in sorted(named)]
        return f"{{{inner}{f',{inner}'.join(items)}{ind}}}" if obj else "{}"
    return _emit(_plain(obj), ind)


# ---------------------------------------------------------------------------
# atomic file emission


def write_atomic(path: str, text: str) -> None:
    """Write ``path.tmp``, then replace ``path`` by it; the tmp file goes if either step fails."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json(path: str, obj: Dict[str, object]) -> None:
    write_atomic(path, _emit(obj, "\n") + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return _number(v)  # the report's own number rule
    return str(v.tolist() if isinstance(v, np.generic) else v)


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    write_atomic(path, "\n".join(lines) + "\n")


def svg_line_plot(
    rows: Sequence[Sequence[float]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """A minimal static polyline plot; finite points only."""
    pts = [(float(x), float(y)) for x, y in rows if math.isfinite(float(y))]
    W, H, ML, MB, MT, MR = 640, 400, 70, 50, 40, 20
    if len(pts) < 2:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">'
            f'<text x="20" y="40">{title}: fewer than two finite points</text></svg>'
        )
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return ML + (x - x0) / (x1 - x0) * (W - ML - MR)

    def sy(y):
        return H - MB - (y - y0) / (y1 - y0) * (H - MB - MT)

    path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    ticks = []
    for i in range(5):
        tx = x0 + (x1 - x0) * i / 4
        ty = y0 + (y1 - y0) * i / 4
        ticks.append(
            f'<text x="{sx(tx):.1f}" y="{H - MB + 18}" font-size="11" '
            f'text-anchor="middle">{tx:.4g}</text>'
        )
        ticks.append(
            f'<text x="{ML - 8}" y="{sy(ty) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{ty:.4g}</text>'
        )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'font-family="sans-serif">'
        f'<rect width="{W}" height="{H}" fill="white"/>'
        f'<text x="{W // 2}" y="24" text-anchor="middle" font-size="14">{title}</text>'
        f'<line x1="{ML}" y1="{H - MB}" x2="{W - MR}" y2="{H - MB}" stroke="black"/>'
        f'<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{H - MB}" stroke="black"/>'
        f'<text x="{(ML + W - MR) // 2}" y="{H - 12}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>'
        f'<text x="16" y="{(MT + H - MB) // 2}" font-size="12" '
        f'transform="rotate(-90 16 {(MT + H - MB) // 2})" '
        f'text-anchor="middle">{ylabel}</text>'
        + "".join(ticks)
        + f'<polyline points="{path}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
        f"</svg>\n"
    )
