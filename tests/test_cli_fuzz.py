"""Fuzz the CLI contract: a config either runs or fails with one JSON line.

Small random configs for `pressure bowen|capacity|weighted|exact|measure`
and `verify chain|variational|gibbs` go through ``cli.main``. Every
outcome must be exit 0 or 2 with a parseable report, or exit 1 with
exactly one JSON error record on stderr; an exception escaping ``main``
(a traceback) fails the test, and so does a numpy RuntimeWarning, which
pyproject.toml turns into an error. One test draws the command with the rest of
the config; the others fuzz one command each, so every command gets
examples of its own.
"""

import contextlib
import io
import itertools
import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from pressurelab.cli import main

COMMANDS = ("pressure bowen", "pressure capacity", "pressure weighted", "verify chain")
# fuzzed one command at a time: a shared draw gives late entries few examples
MEASURE_COMMANDS = ("verify variational", "pressure exact", "pressure measure", "verify gibbs")
COVER_COMMANDS = ("pressure bowen", "pressure weighted", "verify chain")


def _words(k, pairs, depth):
    allowed = set(pairs)
    return [
        w for w in itertools.product(range(k), repeat=depth)
        if all((a, b) in allowed for a, b in zip(w, w[1:]))
    ]


@st.composite
def _matrices(draw, k):
    return [[int(draw(st.booleans())) for _ in range(k)] for _ in range(k)]


@st.composite
def _subsets(draw, k, kind):
    if kind == "whole":
        return {"kind": "whole"}
    if kind == "sub_sft":
        return {"kind": "sub_sft", "allowed": draw(_matrices(k))}
    if kind == "finite_union":
        parts = draw(st.lists(st.sampled_from(["whole", "sub_sft"]), min_size=2, max_size=3))
        return {"kind": "finite_union", "parts": [draw(_subsets(k, p)) for p in parts]}
    return {
        "kind": "frequency_level",
        "symbol": draw(st.integers(0, k - 1)),
        "target": draw(st.floats(0.0, 1.0)),
        "window": draw(st.floats(0.01, 0.5)),
    }


@st.composite
def _distribution(draw, cells):
    """A probability vector over len(cells) entries, positive only where
    cells is true (or on entry 0 when no draw lands on a true cell)."""
    weights = [draw(st.integers(0, 3)) if ok else 0 for ok in cells]
    total = sum(weights)
    return [w / total for w in weights] if total else [1.0] + [0.0] * (len(cells) - 1)


@st.composite
def _measures(draw, k, pairs):
    kind = draw(st.sampled_from(["bernoulli", "markov", "equilibrium"]))
    if kind == "bernoulli":
        return {"kind": "bernoulli", "p": draw(_distribution([True] * k))}
    if kind == "equilibrium":
        return {"kind": "equilibrium"}
    rows = [draw(_distribution([(a, b) in pairs for b in range(k)])) for a in range(k)]
    spec = {"kind": "markov", "transition": rows}
    if draw(st.booleans()):
        spec["initial"] = draw(_distribution([True] * k))
    return spec


@st.composite
def _configs(draw, command=None):
    # verify chain fuzzed on its own draws m from 2-5, so most examples run
    # the chain and m = 2 keeps its ScaleTooCoarse error reachable; the
    # shared draw keeps 0-4, so its examples stay as they were
    scales = st.integers(2, 5) if command == "verify chain" else st.integers(0, 4)
    command = command or draw(st.sampled_from(COMMANDS))
    k = draw(st.integers(1, 3))
    cells = list(itertools.product(range(k), repeat=2))
    pairs = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True))
    # mostly valid relations (a cycle through every symbol keeps each one
    # reachable); the rest may strand a symbol, which the schema must reject
    if draw(st.integers(0, 3)):
        pairs = sorted(set(pairs) | {(a, (a + 1) % k) for a in range(k)})
    if draw(st.booleans()):
        # +-1e308 puts every Birkhoff sum past the float range
        potential = {"constant": draw(st.floats(-1.0, 1.0) | st.sampled_from([-1e308, 1e308]))}
    else:
        depth = draw(st.integers(1, 2))
        table = {
            "".join(map(str, w)): draw(st.floats(-1.0, 1.0))
            for w in _words(k, pairs, depth)
        }
        potential = {"depth": depth, "table": table}
    kind = draw(st.sampled_from(["whole", "sub_sft", "finite_union", "frequency_level"]))
    m = draw(scales)
    cfg = {
        "system": {"alphabet_size": k, "allowed": [list(p) for p in pairs]},
        "potential": potential,
        "subset": draw(_subsets(k, kind)),
        "scales": [m],
        "tol": 1e-3,
    }
    if kind == "sub_sft" and command in MEASURE_COMMANDS and draw(st.booleans()):
        # cut to the host's arcs half the time, so the measure side gets to run
        rel = cfg["subset"]["allowed"]
        cfg["subset"]["allowed"] = [[int(rel[a][b] and (a, b) in pairs) for b in range(k)]
                                    for a in range(k)]
    if command in ("pressure capacity", "pressure measure"):
        lo = draw(st.integers(1, 30))
        cfg["n_range"] = [lo, lo + draw(st.integers(0, 30))]
    else:
        N = draw(st.integers(1, 6))
        # L below N + m is a clean DepthTooShallow error, so it stays possible
        deep = kind != "frequency_level" and command != "verify gibbs"
        L = N + m + draw(st.integers(-2, 3000 if deep else 40))
        cfg.update({"N": N, "L": max(1, L)})
    if command == "pressure measure":
        cfg["measure"] = draw(_measures(k, set(pairs)))
        cfg["samples"] = draw(st.integers(1, 3))
    if command == "verify variational":
        cfg["measure_grid"] = draw(st.integers(2, 20))
    if command == "verify chain":
        cfg["s"] = draw(st.floats(-2.0, 2.0))
        cfg["delta"] = draw(st.floats(0.05, 1.0))
    return command, cfg


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_configs())
def test_cli_contract_on_random_configs(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command.split(), "--config", path, "--out", tmp])
        if code in (0, 2):
            stem = command.replace(" ", "_")
            with open(os.path.join(tmp, f"{stem}_report.json"), encoding="utf-8") as fh:
                assert isinstance(json.load(fh), dict)
        else:
            assert code == 1
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, err.getvalue()
            assert "error" in json.loads(lines[0])


@pytest.mark.parametrize("command", MEASURE_COMMANDS)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_contract_on_random_measure_configs(command, data):
    test_cli_contract_on_random_configs.hypothesis.inner_test(data.draw(_configs(command)))


@pytest.mark.parametrize("command", COVER_COMMANDS)
@settings(max_examples=35, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_contract_on_random_cover_configs(command, data):
    test_cli_contract_on_random_configs.hypothesis.inner_test(data.draw(_configs(command)))
