"""The report writer against the serializer it replaced.

``config._emit`` writes a report in one pass. Its text must equal, byte for
byte, what ``json.dumps(json_ready(obj), indent=2, sort_keys=True,
allow_nan=False)`` wrote (``brute.report_text``), and CSV cells must follow
the same number rule (``brute.csv_cell``).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import pressurelab as pl
from pressurelab import config
from pressurelab.cli import run
from brute import csv_cell, report_text

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
INF, NAN = math.inf, math.nan


def _text(obj) -> str:
    return config._emit(obj, "\n") + "\n"


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, INF, -INF, NAN, 0.1, 1e16, 1e-7]),
)
_INTS = st.one_of(st.integers(), st.sampled_from([0, -1, 2**63, -(2**64), 10**30, -(10**40)]))
_STRINGS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "é", "ü☃", '"quoted"', "back\\slash", "\x00\x1f\x7f", "tab\tnew\nline", "\U0001f600"]),
)
_NUMPY_SCALARS = st.one_of(
    _FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.floats(width=32).map(np.float32),
)
_ARRAYS = st.one_of(
    st.lists(_FLOATS, max_size=6).map(lambda xs: np.array(xs, dtype=float)),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6).map(lambda xs: np.array(xs, dtype=np.int64)),
    st.lists(st.booleans(), max_size=6).map(lambda xs: np.array(xs, dtype=bool)),
    st.lists(_FLOATS, min_size=4, max_size=4).map(lambda xs: np.array(xs).reshape(2, 2)),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), _INTS, _FLOATS, _STRINGS, _NUMPY_SCALARS, _ARRAYS,
)
# int, str, bool, None and float keys, several equal as strings (1, "1", True, "True")
_KEYS = st.one_of(
    st.text(max_size=4), st.integers(-3, 3), st.sampled_from([1, "1", True, "True", None, 1.5, "1.5"]),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_KEYS, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_VALUES)
@example({1: "int", "1": "str"})
@example({"1": "str", 1: "int", True: [], "True": {}})
@example([[], {}, (), np.array([]), np.zeros((0, 3))])
@example([1, 2.5, -0.0, 1e308, INF, -INF, NAN, 10**30, True, None])
@example({"x": (np.float64(NAN), np.int64(-7), np.bool_(False), np.array([[1.5, -INF], [0.0, 2.0]]))})
def test_emitter_writes_what_json_dumps_of_json_ready_wrote(obj):
    assert _text(obj) == report_text(obj)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _STRINGS, _NUMPY_SCALARS))
def test_csv_cells_follow_the_report_number_rule(v):
    assert config._csv_cell(v) == csv_cell(v)


def test_emitter_raises_for_objects_a_report_cannot_hold():
    with pytest.raises(TypeError, match="cannot serialize set"):
        _text({"a": [1, {2}]})
    with pytest.raises(TypeError, match="cannot serialize object"):
        _text(object())


@pytest.mark.parametrize("command, name", [
    ("pressure exact", "exact_golden_mean"),
    ("pressure capacity", "capacity_full2"),
    ("pressure bowen", "bowen_full2"),
    ("verify chain", "chain_golden"),
    ("verify unions", "unions_fixed_points"),
])
def test_emitter_writes_shipped_reports_as_the_old_serializer(command, name):
    # result dataclasses, CriticalExponent and CapacityEstimate go through
    # their field maps; histories and traces stay out of the report
    cfg = config.parse_config((CONFIGS / f"{name}.json").read_text(), command)
    report, _, _ = run(command, cfg)
    text = _text(report)
    assert text == report_text(report)
    assert json.loads(text)["command"] == command


def test_emitter_writes_a_measure_and_an_estimate_as_the_old_serializer():
    mu = pl.bernoulli_measure([0.3, 0.7])
    f = pl.zero_potential(pl.full_shift(2))
    est = pl.measure_pressure_mc(mu, f, pl.Scale(2), (30, 40), samples=4, seed=3)
    assert _text({"measure": mu, "m=2": est}) == report_text({"measure": mu, "m=2": est})
