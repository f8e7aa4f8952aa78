import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pressurelab
import pressurelab.harness as harness
from pressurelab import config
from pressurelab.cli import main, run
from pressurelab.config import parse_config
from pressurelab.errors import InadmissibleWord, ScaleTooCoarse, SchemaError
from pressurelab.subsets import build_tracker

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

GM_SYSTEM = {"alphabet_size": 2, "allowed": [[0, 0], [0, 1], [1, 0]]}


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _strip_timing(text: str) -> str:
    return re.sub(r'^\s*"wall_time_s": .*$', "", text, flags=re.M)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_collects_every_problem():
    bad = {
        "system": {"alphabet_size": 0},
        "scales": [],
        "tol": -2,
        "bogus": 1,
        "subset": {"kind": "frequency_level", "symbol": 0, "target": 0.3, "window": 0},
    }
    with pytest.raises(SchemaError) as exc:
        parse_config(bad, "pressure capacity")
    fields = {path for path, _ in exc.value.problems}
    assert "subset.window" in fields
    assert "system.alphabet_size" in fields
    assert "scales" in fields
    assert "tol" in fields
    assert "bogus" in fields
    assert "potential" in fields
    assert "n_range" in fields


def test_parse_config_inadmissible_potential_key():
    cfg = {
        "system": GM_SYSTEM,
        "potential": {"depth": 2, "table": {"00": 0.5, "01": 0.0, "10": 0.0, "11": 1.0}},
    }
    with pytest.raises(InadmissibleWord):
        parse_config(cfg, "pressure exact")
    # the forbidden key raises only once the schema is clean, so an unknown
    # field beside it is reported, not lost
    with pytest.raises(SchemaError) as exc:
        parse_config({**cfg, "bogus": 1}, "pressure exact")
    assert exc.value.problems == [("bogus", "unknown field")]


def test_parse_config_rejects_two_keys_for_one_word():
    # "01" and "0,1" spell one word; neither may silently overwrite the other
    table = {"00": 0, "01": 1, "0,1": 5, "10": 0, "11": 0}
    cfg = {"system": {"alphabet_size": 2}, "potential": {"depth": 2, "table": table}}
    with pytest.raises(SchemaError) as exc:
        parse_config(cfg, "pressure exact")
    assert exc.value.problems == [("potential.table.0,1", "names the word of key '01' again")]
    depth1 = {"system": {"alphabet_size": 2}, "potential": {"depth": 1, "table": {"0": 0, "1": 1, "01": 2}}}
    with pytest.raises(SchemaError) as exc:
        parse_config(depth1, "pressure exact")
    assert [path for path, _ in exc.value.problems] == ["potential.table.01"]


def test_parse_config_reads_a_depth_one_key_as_one_symbol():
    # symbols from 10 up need a depth-1 key of two digits
    table = {str(a): 0.5 * a for a in range(12)}
    cfg = {"system": {"alphabet_size": 12}, "potential": {"depth": 1, "table": table}}
    f = parse_config(cfg, "pressure exact").potential
    assert [f.value((a,)) for a in range(12)] == [0.5 * a for a in range(12)]
    small = {"system": {"alphabet_size": 2}, "potential": {"depth": 1, "table": {"0": 0, "1": 1, "10": 2}}}
    with pytest.raises(SchemaError) as exc:
        parse_config(small, "pressure exact")
    assert exc.value.problems == [("potential.table.10", "key '10' uses symbols outside the alphabet")]


def test_parse_config_rejects_a_repeated_scale():
    # a repeated m would run every per-scale computation twice for one report entry
    cfg = {"system": {"alphabet_size": 2}, "potential": {"constant": 0.0}, "scales": [1, 2, 1],
           "n_range": [2, 6]}
    with pytest.raises(SchemaError) as exc:
        parse_config(cfg, "pressure capacity")
    assert exc.value.problems == [("scales", "scale m=1 is listed twice")]


def test_parse_config_scale_preconditions():
    cap = {
        "system": {"alphabet_size": 2},
        "potential": {"constant": 0.0},
        "scales": [0],
        "n_range": [2, 6],
    }
    with pytest.raises(ScaleTooCoarse):
        parse_config(cap, "pressure capacity")
    chain = {
        "system": {"alphabet_size": 2},
        "potential": {"constant": 0.0},
        "subset": {"kind": "whole"},
        "scales": [2],
        "s": 0.5,
        "delta": 0.5,
        "N": 4,
        "L": 10,
    }
    with pytest.raises(ScaleTooCoarse):
        parse_config(chain, "verify chain")
    chain["scales"] = [3]
    assert parse_config(chain, "verify chain").scales[0].m == 3


def test_parse_config_reports_schema_problems_before_scale_preconditions():
    # a config with an unknown field and an unusable scale names the field
    base = {"system": {"alphabet_size": 2}, "potential": {"constant": 0.0}, "bogus": 1}
    cap = {**base, "scales": [0], "n_range": [2, 6]}
    chain = {**base, "subset": {"kind": "whole"}, "scales": [2], "s": 0.5, "delta": 0.5,
             "N": 4, "L": 10}
    for command, cfg in (("pressure capacity", cap), ("verify chain", chain)):
        with pytest.raises(SchemaError) as exc:
            parse_config(cfg, command)
        assert exc.value.problems == [("bogus", "unknown field")], command


def test_parse_config_checks_a_deep_table_without_enumerating_it():
    # the coverage check counts the 2**18 words an empty table misses and
    # materializes none of them
    import tracemalloc

    cfg = {"system": {"alphabet_size": 2}, "potential": {"depth": 18, "table": {}}}
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match=r"missing 262144 admissible words, e\.g\. \(0, 0, "):
            parse_config(cfg, "pressure exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def test_parse_config_unions_needs_union_subset():
    cfg = {
        "system": {"alphabet_size": 2},
        "potential": {"constant": 0.0},
        "subset": {"kind": "whole"},
        "scales": [1],
        "N": 3,
        "L": 10,
    }
    with pytest.raises(SchemaError) as exc:
        parse_config(cfg, "verify unions")
    assert any(path == "subset" for path, _ in exc.value.problems)


def test_verify_variational_refuses_a_union_at_subset(tmp_path, capsys):
    # the shipped union config used to pass the schema and end in a
    # ValueError record that named no field
    code, out, err = _run(["verify", "variational", "--config", str(CONFIGS / "unions_fixed_points.json"),
                           "--out", str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    record = json.loads(err.strip())
    assert record["error"] == "SchemaError"
    assert [path for path, _ in record["problems"]] == ["subset"]


def test_parse_config_defaults():
    cfg = parse_config({"system": {"alphabet_size": 3}, "potential": {"constant": 1.0}})
    assert cfg.subset.kind == "whole"
    assert len(cfg.scales) == 1 and cfg.scales[0].m == 1
    assert cfg.seed == 0
    assert cfg.betas == (0.05, 0.1)


def test_parse_config_rejects_bad_measure():
    cfg = {
        "system": {"alphabet_size": 2},
        "potential": {"constant": 0.0},
        "scales": [2],
        "n_range": [10, 20],
        "measure": {"kind": "bernoulli", "p": [0.9, 0.2]},
    }
    with pytest.raises(SchemaError) as exc:
        parse_config(cfg, "pressure measure")
    assert any(path == "measure.p" for path, _ in exc.value.problems)


NAN, INF = float("nan"), float("inf")
_BOWEN = {"system": {"alphabet_size": 2}, "potential": {"constant": 0.0}, "scales": [1], "N": 2, "L": 8}
_MEASURE = dict(_BOWEN, n_range=[10, 20], measure={"kind": "bernoulli", "p": [0.5, 0.5]})


@pytest.mark.parametrize(
    "command, cfg, path",
    [
        ("pressure bowen", dict(_BOWEN, tol=NAN), "tol"),
        ("pressure bowen", dict(_BOWEN, tol=INF), "tol"),
        ("pressure bowen", dict(_BOWEN, tol=10 ** 400), "tol"),  # no float holds it
        ("verify chain", dict(_BOWEN, scales=[3], subset={"kind": "whole"}, s=NAN, delta=0.5), "s"),
        ("verify chain", dict(_BOWEN, scales=[3], subset={"kind": "whole"}, s=0.5, delta=INF), "delta"),
        ("verify gibbs", dict(_BOWEN, betas=[0.05, NAN]), "betas"),
        ("pressure bowen", dict(_BOWEN, potential={"constant": NAN}), "potential.constant"),
        ("pressure bowen", dict(_BOWEN, potential={"depth": 1, "table": {"0": 0.0, "1": -INF}}),
         "potential.table.1"),
        ("pressure bowen", dict(_BOWEN, subset={"kind": "frequency_level", "symbol": 0,
                                                "target": 0.5, "window": NAN}), "subset.window"),
        ("pressure measure", dict(_MEASURE, measure={"kind": "bernoulli", "p": [NAN, 1.0]}),
         "measure.p"),
        ("pressure measure", dict(_MEASURE, measure={"kind": "markov",
                                                     "transition": [[0.5, 0.5], [NAN, NAN]]}),
         "measure.transition[1]"),
        ("pressure measure", dict(_MEASURE, measure={"kind": "markov",
                                                     "transition": [["a", 1], [0.5, 0.5]]}),
         "measure.transition[0]"),
        ("pressure measure", dict(_MEASURE, measure={"kind": "markov", "transition": [[0.5, 0.5], [0.5, 0.5]],
                                                     "initial": [NAN, 1.0]}), "measure.initial"),
        ("pressure bowen", dict(_BOWEN, subset={"kind": "sub_sft", "allowed": [1, 2]}), "subset.allowed"),
        ("pressure bowen", dict(_BOWEN, subset={"kind": "sub_sft", "allowed": [["a", 0], [0, 1]]}),
         "subset.allowed"),
        ("pressure bowen", dict(_BOWEN, subset={"kind": "finite_union", "parts": [1, 2]}),
         "subset.parts[0]"),
    ],
)
def test_parse_config_rejects_non_finite_numbers(command, cfg, path):
    # json reads NaN, Infinity and integers no float holds; no check may let
    # them through, and none may crash on a string or a misshapen subset
    with pytest.raises(SchemaError) as exc:
        parse_config(json.dumps(cfg), command)
    assert path in [p for p, _ in exc.value.problems]


@pytest.mark.parametrize(
    "command, cfg, path",
    [
        ("pressure bowen", dict(_BOWEN, scales=[True]), "scales"),
        ("pressure bowen", dict(_BOWEN, scales=True), "scales"),
        ("pressure capacity", dict(_BOWEN, n_range=[True, 5]), "n_range"),
        ("pressure bowen", dict(_BOWEN, system={"alphabet_size": True}), "system.alphabet_size"),
        ("pressure bowen", dict(_BOWEN, potential={"depth": True, "table": {"0": 0.0, "1": 1.0}}),
         "potential.depth"),
        ("pressure bowen", dict(_BOWEN, subset={"kind": "frequency_level", "symbol": True,
                                                "target": 0.5, "window": 0.1}), "subset.symbol"),
    ],
)
def test_parse_config_rejects_booleans_as_integers(command, cfg, path):
    # json reads true as a bool, which Python counts as the integer 1
    with pytest.raises(SchemaError) as exc:
        parse_config(json.dumps(cfg), command)
    assert path in [p for p, _ in exc.value.problems]


_GM_MEASURE = dict(_MEASURE, system=GM_SYSTEM)


@pytest.mark.parametrize(
    "command, cfg, problems",
    [
        ("pressure measure", dict(_GM_MEASURE, measure={"kind": "bernoulli", "p": [0.5, 0.5]}),
         [("measure.p", "charges a block the system forbids")]),
        ("pressure bowen", dict(_BOWEN, scales=-1),
         [("scales", "scale m=-1 must be an integer >= 0")]),
        ("pressure bowen", dict(_BOWEN, N=None), [("N", "must not be null")]),
        ("pressure bowen", dict(_BOWEN, system=None),
         [("system", "must not be null"), ("potential", "needs a system to validate against")]),
    ],
)
def test_parse_config_reports_a_present_field_once(command, cfg, problems):
    with pytest.raises(SchemaError) as exc:
        parse_config(json.dumps(cfg), command)
    assert exc.value.problems == problems


_MARKOV = {"kind": "markov", "transition": [[0.5, 0.5], [0.5, 0.5]]}
_FIXED = [{"kind": "sub_sft", "allowed": [[1, 0], [0, 0]]}, {"kind": "sub_sft", "allowed": [[0, 0], [0, 1]]}]


@pytest.mark.parametrize(
    "command, cfg, path",
    [
        ("pressure exact", dict(_BOWEN, system=dict(GM_SYSTEM, allowd=GM_SYSTEM["allowed"])),
         "system.allowd"),
        ("pressure bowen", dict(_BOWEN, potential={"constant": 0.0, "depth": 1}), "potential.depth"),
        ("pressure bowen", dict(_BOWEN, potential={"depth": 1, "table": {"0": 0, "1": 1}, "tabel": {}}),
         "potential.tabel"),
        ("pressure bowen", dict(_BOWEN, subset={"kind": "whole", "allowed": [[1, 1], [1, 1]]}),
         "subset.allowed"),
        ("pressure bowen", dict(_BOWEN, subset={"kind": "whole", "label": "all"}), "subset.label"),
        ("pressure bowen", dict(_BOWEN, subset={"kind": "sub_sft", "allowed": [[1, 1], [1, 0]],
                                                "symbol": 0}), "subset.symbol"),
        ("pressure bowen", dict(_BOWEN, subset={"kind": "frequency_level", "symbol": 0,
                                                "target": 0.5, "window": 0.1, "windw": 0.2}),
         "subset.windw"),
        ("verify unions", dict(_BOWEN, subset={"kind": "finite_union", "parts": _FIXED, "part": []}),
         "subset.part"),
        ("verify unions", dict(_BOWEN, subset={"kind": "finite_union", "parts": [
            _FIXED[0], dict(_FIXED[1], allowd=[[1, 1], [1, 1]])]}), "subset.parts[1].allowd"),
        ("pressure measure", dict(_MEASURE, measure=dict(_MARKOV, intial=[1.0, 0.0])),
         "measure.intial"),
        ("pressure measure", dict(_MEASURE, measure={"kind": "bernoulli", "p": [0.5, 0.5], "q": 1}),
         "measure.q"),
        ("pressure measure", dict(_MEASURE, measure={"kind": "equilibrium", "p": [0.5, 0.5]}),
         "measure.p"),
    ],
)
def test_parse_config_rejects_unknown_keys_in_nested_objects(command, cfg, path):
    # a misspelt key must not fall back to a default: "allowd" would run
    # the full shift, "intial" the stationary row
    with pytest.raises(SchemaError) as exc:
        parse_config(json.dumps(cfg), command)
    assert exc.value.problems == [(path, "unknown field")]


@pytest.mark.parametrize("subset", [
    {"kind": "frequency_level", "symbol": 0, "target": 0.5, "window": 0.1},
    {"kind": "finite_union", "parts": _FIXED},
])
def test_equilibrium_measure_refuses_a_non_invariant_subset(subset):
    # the equilibrium measure lives on the target's invariant core, which only
    # whole and sub_sft targets have; other measures ignore the subset
    cfg = dict(_MEASURE, subset=subset)
    parse_config(json.dumps(cfg), "pressure measure")
    with pytest.raises(SchemaError) as exc:
        parse_config(json.dumps(dict(cfg, measure={"kind": "equilibrium"})), "pressure measure")
    assert [path for path, _ in exc.value.problems] == ["subset"]


def test_parse_config_takes_labels_where_it_reads_them():
    cfg = parse_config(json.dumps(dict(
        _BOWEN,
        system=dict(GM_SYSTEM, label="gm"),
        potential={"depth": 1, "table": {"0": 0.0, "1": 1.0}, "label": "f"},
        subset={"kind": "finite_union", "label": "u", "parts": [
            dict(_FIXED[0], label="s"),
            {"kind": "frequency_level", "symbol": 0, "target": 0.5, "window": 0.1, "label": "b"},
        ]},
    )), "pressure bowen")
    assert (cfg.system.label, cfg.potential.label, cfg.subset.label) == ("gm", "f", "u")
    assert [p.label for p in cfg.subset.parts] == ["s", "b"]


_ABSENT = object()
# the scalar fields as the schema has them: an int's default and least value,
# a float's default and whether it must be positive
_INTS = {"N": (None, 1), "L": (None, 1), "seed": (0, 0), "samples": (100, 1),
         "measure_grid": (200, 2), "trials": (100, 1)}
_FLOATS = {"tol": (1e-4, True), "s": (None, False), "delta": (None, True)}


def _scalar_cases():
    """(field, value or _ABSENT, the problems, the parsed value when none)."""
    for name, (default, least) in _INTS.items():
        yield name, _ABSENT, [], default
        yield name, None, [(name, "must not be null")], None
        for value in (True, "1", 1.5, 2.0):
            yield name, value, [(name, "must be an integer")], None
        yield name, least - 1, [(name, f"must be >= {least}")], None
        yield name, least, [], least
    for name, (default, positive) in _FLOATS.items():
        yield name, _ABSENT, [], default
        yield name, None, [(name, "must not be null")], None
        for value in (True, "1", NAN, INF, -INF, 10 ** 400):
            yield name, value, [(name, "must be a finite number")], None
        for value in (0, -1.5):
            yield name, value, [(name, "must be positive")] if positive else [], float(value)
        yield name, 2, [], 2.0


@pytest.mark.parametrize("name, value, problems, parsed", list(_scalar_cases()))
def test_parse_config_checks_each_scalar_field(name, value, problems, parsed):
    cfg = {"system": {"alphabet_size": 2}, "potential": {"constant": 0.0}}
    if value is not _ABSENT:
        cfg[name] = value
    if problems:
        with pytest.raises(SchemaError) as exc:
            parse_config(cfg)
        assert exc.value.problems == problems
    else:
        got = getattr(parse_config(cfg), name)
        assert got == parsed and type(got) is type(parsed)


def test_parse_config_reports_scalar_problems_in_schema_order():
    # the config lists the scalars backwards; their problems keep the
    # schema's order, after n_range's and before betas'
    names = ["N", "L", "tol", "seed", "s", "delta", "samples", "measure_grid", "trials"]
    cfg = {"system": {"alphabet_size": 2}, "potential": {"constant": 0.0}, "betas": [],
           **{name: "x" for name in reversed(names)}, "n_range": [1], "bogus": 0}
    with pytest.raises(SchemaError) as exc:
        parse_config(cfg)
    assert exc.value.problems == [
        ("bogus", "unknown field"),
        ("n_range", "must be [lo, hi] or an increasing integer list"),
        *[(name, "must be a finite number" if name in _FLOATS else "must be an integer")
          for name in names],
        ("betas", "must be a nonempty list of positive finite numbers"),
    ]


@pytest.mark.parametrize(
    "system, problems",
    [
        ({"alphabet_size": 2, "allowed": [[0, 1], [1, 2]]},
         [("system.allowed", "pair [1, 2] outside alphabet")]),
        ({"alphabet_size": 2, "allowed": [[0, "1"]]}, [("system.allowed", "pair [0, 1] outside alphabet")]),
        ({"alphabet_size": 2, "allowed": [[-1, 0]]}, [("system.allowed", "pair [-1, 0] outside alphabet")]),
        ({"alphabet_size": 2, "allowed": "golden"},
         [("system.allowed", 'must be "full" or a list of [from, to] pairs')]),
        ({"alphabet_size": 2, "allowed": [[0, 1, 1]]},
         [("system.allowed", 'must be "full" or a list of [from, to] pairs')]),
        ({"alphabet_size": 2, "allowed": [[0, 1]]},
         [("system.allowed", "symbol 0 has no allowed predecessor")]),
        ({"alphabet_size": 0}, [("system.alphabet_size", "must be a positive integer")]),
    ],
)
def test_parse_config_checks_the_system_relation(system, problems):
    with pytest.raises(SchemaError) as exc:
        parse_config({"system": system})
    assert exc.value.problems == problems


@pytest.mark.parametrize(
    "system, expected",
    [
        ({"alphabet_size": 3}, pressurelab.full_shift(3)),
        ({"alphabet_size": 2, "allowed": "full", "label": "two"}, pressurelab.full_shift(2, "two")),
        (GM_SYSTEM, pressurelab.Subshift(2, ((True, True), (True, False)), "")),
        (dict(GM_SYSTEM, label="gm"), pressurelab.golden_mean_shift("gm")),
    ],
)
def test_parse_config_builds_the_system_with_its_label(system, expected):
    assert parse_config({"system": system}).system == expected  # the label included


def test_cli_misspelt_system_key_exits_1(tmp_path, capsys):
    path = tmp_path / "allowd.json"
    path.write_text(json.dumps({
        "system": {"alphabet_size": 2, "allowd": [[0, 0], [0, 1], [1, 0]]},
        "potential": {"constant": 0},
    }))
    code, out, err = _run(["pressure", "exact", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err)["problems"] == [["system.allowd", "unknown field"]]


@pytest.mark.parametrize(
    "cfg, path",
    [
        # within the schema's old 1e-9, outside MarkovMeasure's 1e-12
        (dict(_MEASURE, measure={"kind": "bernoulli", "p": [0.5, 0.5000000005]}), "measure.p"),
        (dict(_MEASURE, measure={"kind": "markov", "transition": [[0.5, 0.5], [0.5, 0.5]],
                                 "initial": [0.5, 0.5000000005]}), "measure.initial"),
        # golden mean forbids 1 -> 1
        (dict(_GM_MEASURE, measure={"kind": "bernoulli", "p": [0.5, 0.5]}), "measure.p"),
        (dict(_GM_MEASURE, measure={"kind": "markov", "transition": [[0.5, 0.5], [0.5, 0.5]]}),
         "measure.transition[1]"),
    ],
)
def test_parse_config_rejects_measures_the_run_would_refuse(cfg, path):
    with pytest.raises(SchemaError) as exc:
        parse_config(json.dumps(cfg), "pressure measure")
    assert path in [p for p, _ in exc.value.problems]


def test_parse_config_accepts_measures_on_allowed_blocks():
    for measure in (
        {"kind": "markov", "transition": [[0.5, 0.5], [1.0, 0.0]]},
        {"kind": "bernoulli", "p": [1.0, 0.0]},
    ):
        cfg = parse_config(json.dumps(dict(_GM_MEASURE, measure=measure)), "pressure measure")
        assert cfg.measure_spec == measure


def test_cli_measure_charging_a_forbidden_block_exits_1(tmp_path, capsys):
    path = tmp_path / "gm_bernoulli.json"
    path.write_text(json.dumps(dict(_GM_MEASURE, scales=[2], n_range=[50, 60], samples=3)))
    argv = ["pressure", "measure", "--config", str(path), "--out", str(tmp_path)]
    code, out, err = _run(argv, capsys)
    assert code == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "SchemaError"
    assert record["problems"] == [["measure.p", "charges a block the system forbids"]]
    assert not (tmp_path / "pressure_measure_report.json").exists()


def test_cli_nan_tolerance_exits_1(tmp_path, capsys):
    path = tmp_path / "nan_tol.json"
    path.write_text(json.dumps(dict(_BOWEN, tol=NAN)))
    code, _, err = _run(["pressure", "bowen", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert code == 1
    assert json.loads(err)["problems"] == [["tol", "must be a finite number"]]
    assert not (tmp_path / "pressure_bowen_report.json").exists()


def test_cli_capacity_tail_past_the_float_range_exits_1_without_a_warning(tmp_path, capsys):
    # a finite log prefix sum plus a finite tail correction can overflow; the
    # sum reads +inf, capacity_pressure names it, and no RuntimeWarning (an
    # error under this suite's filters) reaches stderr
    table = {"00": -1e308, "01": 9e307, "10": 9e307, "11": -1e308}
    path = tmp_path / "tail.json"
    path.write_text(json.dumps({"system": {"alphabet_size": 2}, "potential": {"depth": 2, "table": table},
                                "scales": [1], "n_range": [2, 24]}))
    code, _, err = _run(["pressure", "capacity", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert code == 1
    assert json.loads(err) == {"error": "RuntimeError",
                               "message": "log P_n leaves the float range at n = 2; the potential is too large"}


def test_cli_failed_report_write_exits_1_and_leaves_no_tmp_file(tmp_path, capsys, monkeypatch):
    # the tmp file goes when the write or the replace that follows it fails
    def refuse(*args, **kwargs):
        raise OSError("replace refused")

    out = tmp_path / "out"
    argv = ["pressure", "exact", "--config", str(CONFIGS / "exact_golden_mean.json"), "--out", str(out)]
    with monkeypatch.context() as m:
        m.setattr(os, "replace", refuse)
        code, stdout, err = _run(argv, capsys)
    assert code == 1 and stdout == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "OSError", "message": "replace refused"}
    assert list(out.iterdir()) == []
    with monkeypatch.context() as m:
        m.setattr(config, "open", _FailingFile, raising=False)
        code, _, err = _run(argv, capsys)
    assert code == 1 and json.loads(err) == {"error": "OSError", "message": "disk full"}
    assert list(out.iterdir()) == []


class _FailingFile:
    """A file opened for writing whose write fails once the file exists."""

    def __init__(self, path, mode):
        self._fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        raise OSError("disk full")


# ---------------------------------------------------------------------------
# CLI end to end


def test_cli_exact_golden_mean(tmp_path, capsys):
    code, out, err = _run(
        ["pressure", "exact", "--config", str(CONFIGS / "exact_golden_mean.json"),
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert out.startswith("pressure exact: passed=True files=")
    report = json.loads((tmp_path / "pressure_exact_report.json").read_text())
    assert report["results"]["pressure"]["value"] == pytest.approx(0.4812118, abs=1e-6)
    assert not (tmp_path / "pressure_exact_trace.csv").exists()


def test_cli_exact_never_builds_the_move_tables(tmp_path, capsys, monkeypatch):
    # the invariant core reads only the relations of its compile, never the
    # moves and tags arrays that the word trees step through
    trackers = []
    monkeypatch.setattr(harness, "build_tracker", lambda *a: trackers.append(build_tracker(*a)) or trackers[-1])
    cfg = dict(system=GM_SYSTEM, potential={"constant": 0.0},
               subset={"kind": "sub_sft", "allowed": [[True, True], [True, False]]})
    code, report, _ = _run_config(tmp_path, capsys, "pressure exact", cfg, "core")
    assert code == 0 and report["results"]["core_size"] == 2 and len(trackers) == 1
    assert not {"moves", "tags"} & set(vars(trackers[0]))


def test_host_words_build_no_word_tree(tmp_path, capsys, monkeypatch):
    # table checks, the invariant core and equilibrium measures count and
    # list host words from the host relation alone: parsing every shipped
    # config, an exact pressure and an equilibrium measure build no word tree
    import pressurelab.subsets as subsets

    built = []
    init = subsets.WordLayers.__init__
    monkeypatch.setattr(subsets.WordLayers, "__init__", lambda *a: built.append(a[2:]) or init(*a))
    for path in sorted(CONFIGS.glob("*.json")):
        parse_config(path.read_text())
    table = {"00": 0.3, "01": -0.2, "10": 0.1}
    cfg = dict(system=GM_SYSTEM, potential={"depth": 2, "table": table})
    code, report, _ = _run_config(tmp_path, capsys, "pressure exact", cfg, "exact")
    assert code == 0 and report["results"]["core_size"] == 2
    cfg.update(scales=[1], n_range=[20, 40], samples=3, seed=0, measure={"kind": "equilibrium"})
    code, report, trace = _run_config(tmp_path, capsys, "pressure measure", cfg, "measure")
    assert code == 0 and "value" in report["results"]["exact"] and trace
    assert built == []


def _golden_tilt_config(t, **extra):
    return dict(system=GM_SYSTEM, potential={"depth": 1, "table": {"0": 0.0, "1": t}}, **extra)


def test_cli_exact_large_tilt(tmp_path, capsys):
    # L's second eigenvalue sits near -rho here, which stalled the old power iteration
    code, report, _ = _run_config(tmp_path, capsys, "pressure exact", _golden_tilt_config(30), "t30")
    assert code == 0
    assert report["results"]["pressure"]["value"] == pytest.approx(15.000000152951161, abs=1e-12)


def test_cli_exact_below_the_rounding_floor_widens_its_tolerance(tmp_path, capsys):
    # |f| near 5000 puts the rounding floor of the Perron quotients above the
    # requested 1.98e-12 bracket width; the solve stops at the floor and
    # reports it as the tolerance instead of giving up
    mpmath = pytest.importorskip("mpmath")
    f = (-4951.005850114244, -1770.7919633602164, 4907.447182412219)
    arcs = [[0, 1], [1, 0], [1, 1], [1, 2], [2, 0], [2, 2]]
    cfg = {"system": {"alphabet_size": 3, "allowed": arcs},
           "potential": {"depth": 1, "table": {str(a): t for a, t in enumerate(f)}}}
    code, report, _ = _run_config(tmp_path, capsys, "pressure exact", cfg, "floor")
    assert code == 0
    pressure = report["results"]["pressure"]
    assert pressure["tolerance"] > 1e-12
    mpmath.mp.dps = 50
    weights = mpmath.matrix(3, 3)
    for a, b in arcs:
        weights[a, b] = mpmath.exp(mpmath.mpf(f[a]))
    log_rho = mpmath.log(max(abs(e) for e in mpmath.eig(weights)[0]))
    value, tol = mpmath.mpf(pressure["value"]), mpmath.mpf(pressure["tolerance"])
    assert value - tol <= log_rho <= value + tol


def test_cli_equilibrium_measure_below_float_range_exits_1(tmp_path, capsys):
    cfg = _golden_tilt_config(-800, scales=[1], n_range=[10, 20], samples=2,
                              measure={"kind": "equilibrium"})
    path = tmp_path / "t-800.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(["pressure", "measure", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "ReducibleSystem"


def test_each_core_is_perron_solved_once(tmp_path, capsys, monkeypatch):
    import pressurelab.transfer as transfer

    calls = []
    real = transfer._perron

    def counted(logw, tol):
        calls.append(logw.shape)
        return real(logw, tol)

    monkeypatch.setattr(transfer, "_perron", counted)
    # two recurrent components: {0} (a self-loop) and {1, 2}
    cfg = {
        "system": {"alphabet_size": 3},
        "potential": {"depth": 1, "table": {"0": 0.2, "1": 0.0, "2": -0.3}},
        "subset": {"kind": "sub_sft", "allowed": [[1, 1, 0], [0, 1, 1], [0, 1, 1]]},
        "scales": [1], "N": 2, "L": 12, "n_range": [10, 20], "samples": 2,
        "measure": {"kind": "equilibrium"}, "measure_grid": 5,
    }
    for command in ("pressure exact", "pressure measure", "verify variational", "verify gibbs"):
        calls.clear()
        code, _, _ = _run_config(tmp_path, capsys, command, cfg, command.replace(" ", "_"))
        assert code in (0, 2)
        assert sorted(calls) == [(1, 1), (2, 2)], command


def test_cli_capacity_trace_has_one_row_per_n(tmp_path, capsys):
    code, out, _ = _run(
        ["pressure", "capacity", "--config", str(CONFIGS / "capacity_full2.json"),
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "pressure_capacity_trace.csv").read_text().strip().splitlines()
    assert lines[0] == "n,log_partition_function"
    ns = [int(row.split(",")[0]) for row in lines[1:]]
    assert ns == list(range(4, 25))
    for row in lines[1:]:
        float(row.split(",")[1])


def test_cli_capacity_names_the_float_range_at_either_sign(tmp_path, capsys):
    # at constant -1e308 every log P_n lies below the float range: the
    # horizons hold words, so the cause is the float range, as at +1e308
    for c in (1e308, -1e308):
        path = tmp_path / f"{c:+g}.json"
        path.write_text(json.dumps({"system": {"alphabet_size": 2}, "potential": {"constant": c},
                                    "scales": [1], "n_range": [4, 20]}))
        code, out, err = _run(["pressure", "capacity", "--config", str(path),
                               "--out", str(tmp_path)], capsys)
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "RuntimeError",
            "message": "log P_n leaves the float range at n = 4; the potential is too large",
        }, c


def test_cli_capacity_refuses_a_suffix_table_past_the_budget(tmp_path, capsys, monkeypatch):
    # a capacity tree at scale m keeps the last m - 1 symbols; its suffix
    # table is counted before it is built, so a table past the budget is
    # the JSON error record and exit 1, not an allocation without bound
    import pressurelab.symbolic as symbolic

    monkeypatch.setattr(symbolic, "DEFAULT_ENUMERATION_BUDGET", 2 ** 10)
    path = tmp_path / "m12.json"
    path.write_text(json.dumps(dict(json.loads((CONFIGS / "capacity_full2.json").read_text()), scales=[12])))
    code, out, err = _run(["pressure", "capacity", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "EnumerationBudgetExceeded",
        "message": f"enumeration of {2 ** 11 - 1} suffixes exceeds the budget of {2 ** 10}",
    }
    # the count stops at the first suffix length past the budget, so a scale
    # far past it is the same record, not a count too long to print
    path.write_text(json.dumps(dict(json.loads(path.read_text()), scales=[20000])))
    code, out, err = _run(["pressure", "capacity", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["message"] == f"enumeration of {2 ** 11 - 1} suffixes exceeds the budget of {2 ** 10}"


def test_cli_chain_reports_a_failed_precondition_at_a_tiny_delta(tmp_path, capsys):
    # 2/delta is past the float range at delta = 1e-320: the precondition
    # is false, and the chain values are still reported
    cfg = dict(json.loads((CONFIGS / "chain_full2.json").read_text()), delta=1e-320)
    code, report, _ = _run_config(tmp_path, capsys, "verify chain", cfg, "tiny")
    assert code == 0
    (result,) = report["results"].values()
    assert result["passed"] and result["precondition_ok"] is False


def _run_memory_limited(tmp_path, command, cfg):
    """(exit code, stdout, stderr) of the CLI on ``cfg`` in a subprocess whose
    address space is limited to 1.5 GB."""
    path = tmp_path / "limited.json"
    path.write_text(json.dumps(cfg))
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000)); "
    code = limit + "import sys; from pressurelab.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", code, *command.split(), "--config", str(path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=dict(_src_env(), OPENBLAS_NUM_THREADS="1"),
    )
    return proc.returncode, proc.stdout, proc.stderr


_DEEP = {"system": {"alphabet_size": 2, "allowed": "full"}, "potential": {"constant": 0.0}, "scales": [1]}


def test_cli_out_of_memory_is_the_json_error_record(tmp_path):
    # a depth the schema and the enumeration budget accept can need more
    # memory than the process may take (the depth index of 60 million depths
    # alone takes about 2.2 GB); under an address-space limit that ends in
    # the one-line record
    code, out, err = _run_memory_limited(tmp_path, "pressure bowen", dict(_DEEP, N=2, L=60_000_000))
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "MemoryError"


@pytest.mark.parametrize("command, fields", [
    ("pressure bowen", {"N": 2, "L": 300_000_000}),
    ("pressure capacity", {"n_range": [40, 300_000_000]}),
])
def test_cli_refuses_depths_past_the_enumeration_budget_up_front(tmp_path, command, fields):
    # a tree holds a node per depth and a capacity window a horizon per entry,
    # so 300 million of either is past the budget before anything is allocated
    count = {"pressure bowen": "300000001 depths", "pressure capacity": "299999961 horizons"}[command]
    code, out, err = _run_memory_limited(tmp_path, command, dict(_DEEP, **fields))
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "EnumerationBudgetExceeded",
        "message": f"enumeration of {count} exceeds the budget of {2 ** 26}",
    }


def test_cli_refuses_an_orbit_past_the_enumeration_budget_up_front(tmp_path):
    # explicit horizons are few, but the last one sets the orbit length: a
    # horizon of 10^8 at scale 2 draws 100,000,002 symbols, past the budget,
    # and is refused before the draw rather than allocating 800 MB of draws
    cfg = dict(json.loads((CONFIGS / "measure_uniform.json").read_text()), n_range=[1, 2, 3, 100_000_000])
    start = time.perf_counter()
    code, out, err = _run_memory_limited(tmp_path, "pressure measure", cfg)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "EnumerationBudgetExceeded",
        "message": f"enumeration of 100000002 orbit symbols exceeds the budget of {2 ** 26}",
    }


def test_cli_refuses_a_monte_carlo_run_past_the_enumeration_budget_up_front(tmp_path):
    # each orbit is 2,002 symbols, but 10^9 of them are 2.002 * 10^12: the
    # run is refused before its seeds, which alone would take 7.45 GiB
    cfg = dict(json.loads((CONFIGS / "measure_uniform.json").read_text()), samples=10 ** 9)
    start = time.perf_counter()
    code, out, err = _run_memory_limited(tmp_path, "pressure measure", cfg)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "EnumerationBudgetExceeded",
        "message": f"enumeration of {2002 * 10 ** 9} orbit symbols exceeds the budget of {2 ** 26}",
    }


def test_cli_refuses_a_band_tree_past_the_node_budget_up_front(tmp_path):
    # a band tree's layer sizes are known before any per-node array is made:
    # symbol 0 in 0.3 +- 0.02 at L = 20000 holds 91,860,401 nodes, past the
    # budget of 2^26, and is refused at once rather than allocating 1.4 GB
    band = {"kind": "frequency_level", "symbol": 0, "target": 0.3, "window": 0.02}
    start = time.perf_counter()
    code, out, err = _run_memory_limited(tmp_path, "pressure bowen", dict(_DEEP, subset=band, N=3, L=20000))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "EnumerationBudgetExceeded",
        "message": f"enumeration of 91860401 tree nodes exceeds the budget of {2 ** 26}",
    }


def test_cli_refuses_a_suffix_table_past_the_bytes_budget_up_front(tmp_path):
    # a capacity tree at scale 24 keeps the last 23 symbols: on the full
    # 2-shift 2^24 - 1 suffixes, inside the count budget, but charged
    # 29 + 23 + 2 * 2 = 56 cells of 8 bytes each, past 2^26 cells (512 MiB;
    # its build would peak near 6.4 GB); it is refused before it is built
    start = time.perf_counter()
    code, out, err = _run_memory_limited(tmp_path, "pressure capacity", dict(_DEEP, scales=[24], n_range=[30, 40]))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "EnumerationBudgetExceeded",
        "message": f"enumeration of {(2 ** 24 - 1) * 56} 8-byte cells of suffix table exceeds the budget of {2 ** 26}",
    }


def test_cli_refuses_a_sorted_tree_past_the_node_budget(tmp_path, capsys, monkeypatch):
    # a tree built by sort-merge counts its nodes layer by layer and stops at
    # the first layer that passes the budget: a band on the golden mean (no
    # layer repeats) holds 683 nodes at L = 40 and 1,495 at L = 60, where
    # the running total passes 2^10 at 1,032
    import pressurelab.symbolic as symbolic

    monkeypatch.setattr(symbolic, "DEFAULT_ENUMERATION_BUDGET", 2 ** 10)
    band = {"kind": "frequency_level", "symbol": 1, "target": 0.3, "window": 0.05}
    cfg = {"system": GM_SYSTEM, "potential": {"constant": 0.0}, "subset": band, "scales": [1], "N": 3}
    code, _, _ = _run_config(tmp_path, capsys, "pressure bowen", dict(cfg, L=40), "inside")
    assert code == 0
    path = tmp_path / "past.json"
    path.write_text(json.dumps(dict(cfg, L=60)))
    code, out, err = _run(["pressure", "bowen", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "EnumerationBudgetExceeded",
        "message": f"enumeration of 1032 tree nodes exceeds the budget of {2 ** 10}",
    }


def test_cli_exact_past_the_float_range_prints_only_the_record(tmp_path):
    # a depth-1 table of +-1e308 puts the log Perron vector's span past the
    # float range, so no bracket is certified; the solve's overflow stays
    # silent, and stderr holds the one record (a fresh interpreter that
    # prints every RuntimeWarning, which pytest's capture would hide)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"system": {"alphabet_size": 2, "allowed": "full"},
                                "potential": {"depth": 1, "table": {"0": 1e308, "1": -1e308}}}))
    proc = subprocess.run(
        [sys.executable, "-W", "always::RuntimeWarning", "-c",
         "import sys; from pressurelab.cli import main; sys.exit(main())",
         "pressure", "exact", "--config", str(path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=_src_env(),
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr) == {
        "error": "RuntimeError",
        "message": "Perron bracket wider than 1.98e-12 after 10000 power steps",
    }


def test_cli_capacity_reads_a_pair_as_its_window(tmp_path, capsys):
    # capacity cannot take two explicit horizons, so a short pair is still
    # the window: [40, 43] fits four horizons, [40, 42] is the error record
    cfg = json.loads((CONFIGS / "capacity_full2.json").read_text())
    code, _, trace = _run_config(tmp_path, capsys, "pressure capacity",
                                 dict(cfg, n_range=[40, 43]), "four")
    assert code == 0
    assert [int(row.split(b",")[0]) for row in trace.splitlines()[1:]] == [40, 41, 42, 43]
    path = tmp_path / "three.json"
    path.write_text(json.dumps(dict(cfg, n_range=[40, 42])))
    code, out, err = _run(["pressure", "capacity", "--config", str(path),
                           "--out", str(tmp_path / "three")], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ValueError",
                               "message": "horizon window needs at least 4 entries"}


def test_cli_bowen_trace_and_svg(tmp_path, capsys):
    code, out, _ = _run(
        ["pressure", "bowen", "--config", str(CONFIGS / "bowen_full2.json"),
         "--out", str(tmp_path), "--svg"],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "pressure_bowen_trace.csv").read_text().strip().splitlines()
    assert lines[0] == "s,cover_value"
    svg = (tmp_path / "pressure_bowen_trace.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg
    report = json.loads((tmp_path / "pressure_bowen_report.json").read_text())
    ce = report["results"]["m=1"]
    assert ce["midpoint"] == pytest.approx(1.3132616875182228, abs=1e-3)


def test_cli_gibbs_trace_floats_are_clean(tmp_path, capsys):
    code, _, _ = _run(
        ["verify", "gibbs", "--config", str(CONFIGS / "gibbs_full2.json"),
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    text = (tmp_path / "verify_gibbs_trace.csv").read_text()
    assert text.splitlines()[0] == "n,log_max_ratio"
    assert "np.float" not in text
    assert "(" not in text


def test_cli_chain_passes(tmp_path, capsys):
    code, out, _ = _run(
        ["verify", "chain", "--config", str(CONFIGS / "chain_full2.json"),
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    report = json.loads((tmp_path / "verify_chain_report.json").read_text())
    assert report["passed"] is True
    assert report["results"]["m=4"]["passed"] is True


def test_cli_variational_passes(tmp_path, capsys):
    code, out, _ = _run(
        ["verify", "variational", "--config", str(CONFIGS / "variational_golden_sub.json"),
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    report = json.loads((tmp_path / "verify_variational_report.json").read_text())
    assert report["results"]["m=1"]["argmax_is_equilibrium"] is True


def test_cli_unions_passes(tmp_path, capsys):
    code, out, _ = _run(
        ["verify", "unions", "--config", str(CONFIGS / "unions_fixed_points.json"),
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0


def test_cli_failing_verification_exits_2(tmp_path, capsys):
    cfg = {
        "system": {"alphabet_size": 2},
        "potential": {"constant": 0.0},
        "subset": {
            "kind": "finite_union",
            "parts": [
                {"kind": "sub_sft", "allowed": [[1, 1], [1, 0]]},
                {"kind": "sub_sft", "allowed": [[0, 1], [1, 1]]},
            ],
        },
        "scales": [1],
        "N": 3,
        "L": 16,
        "tol": 0.001,
    }
    path = tmp_path / "equal_pressure_union.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(
        ["verify", "unions", "--config", str(path), "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "passed=False" in out
    report = json.loads((tmp_path / "verify_unions_report.json").read_text())
    assert report["passed"] is False


def test_cli_schema_error_exits_1_with_json_record(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"system": {"alphabet_size": 2}}))
    code, out, err = _run(
        ["pressure", "bowen", "--config", str(path), "--out", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert out == ""
    record = json.loads(err.strip())
    assert record["error"] == "SchemaError"
    fields = {p for p, _ in record["problems"]}
    assert {"potential", "scales", "N", "L"} <= fields


def test_cli_missing_config_file_exits_1(tmp_path, capsys):
    code, _, err = _run(
        ["pressure", "exact", "--config", str(tmp_path / "absent.json")],
        capsys,
    )
    assert code == 1
    record = json.loads(err.strip())
    assert "message" in record


def test_cli_inadmissible_potential_exits_1(tmp_path, capsys):
    path = tmp_path / "inadmissible.json"
    path.write_text(json.dumps({
        "system": GM_SYSTEM,
        "potential": {"depth": 2, "table": {"00": 0.0, "01": 0.0, "10": 0.0, "11": 3.0}},
    }))
    code, _, err = _run(
        ["pressure", "exact", "--config", str(path), "--out", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert json.loads(err.strip())["error"] == "InadmissibleWord"


def test_cli_seed_override_and_unknown_flag_validated(tmp_path, capsys):
    cfgpath = CONFIGS / "bowen_full2.json"
    code, _, err = _run(
        ["pressure", "bowen", "--config", str(cfgpath), "--out", str(tmp_path),
         "--seed", "-3"],
        capsys,
    )
    assert code == 1
    assert json.loads(err.strip())["error"] == "SchemaError"
    code, _, err = _run(
        ["pressure", "bowen", "--config", str(cfgpath), "--out", str(tmp_path),
         "--threads", "0"],
        capsys,
    )
    assert code == 1
    assert json.loads(err.strip())["problems"] == [["argv", "unrecognized arguments: --threads 0"]]


def test_cli_seed_override_takes_every_seed_the_config_takes(tmp_path, capsys):
    # numpy's SeedSequence takes any nonnegative int, and --seed is checked
    # by the config's own rule for seed
    cfg = json.loads((CONFIGS / "measure_uniform.json").read_text())
    del cfg["seed"]
    cfg.update(n_range=[40, 60], samples=4)
    reports = []
    for tag, extra in (("flag", ["--seed", str(10 ** 23)]), ("config", [])):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(dict(cfg, seed=10 ** 23) if tag == "config" else cfg))
        out = tmp_path / tag
        code, _, err = _run(["pressure", "measure", "--config", str(path), "--out", str(out)] + extra,
                            capsys)
        assert (code, err) == (0, "")
        reports.append(json.loads((out / "pressure_measure_report.json").read_text()))
    flag, config = reports
    assert flag["results"] == config["results"]
    assert flag["effective"] == config["effective"] == {"seed": 10 ** 23}
    code, _, err = _run(["pressure", "measure", "--config", str(tmp_path / "flag.json"),
                         "--out", str(tmp_path / "neg"), "--seed", "-1"], capsys)
    assert code == 1
    assert json.loads(err)["problems"] == [["--seed", "must be >= 0"]]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "chain", "--config", str(CONFIGS / "chain_full2.json"), "--seed", "abc"],
         "argument --seed: invalid int value: 'abc'"),
        (["verify", "chain"], "the following arguments are required: --config"),
        (["pressure", "bowen", "--config", str(CONFIGS / "bowen_full2.json"), "--threads", "2"],
         "unrecognized arguments: --threads 2"),
    ],
)
def test_cli_usage_errors_exit_1_with_the_json_record(tmp_path, capsys, argv, message):
    code, out, err = _run(argv + ["--out", str(tmp_path)], capsys)
    assert code == 1
    assert out == ""
    record = json.loads(err.strip())
    assert record["error"] == "SchemaError"
    assert record["problems"] == [["argv", message]]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_cli_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_cli_reports_are_deterministic(tmp_path, capsys):
    for sub, cfg in (("bowen", "bowen_full2.json"), ("capacity", "capacity_full2.json")):
        outs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / f"{sub}_{tag}"
            code, _, _ = _run(
                ["pressure", sub, "--config", str(CONFIGS / cfg),
                 "--out", str(out_dir), "--seed", "7"],
                capsys,
            )
            assert code == 0
            outs.append(out_dir)
        a, b = outs
        ra = _strip_timing((a / f"pressure_{sub}_report.json").read_text())
        rb = _strip_timing((b / f"pressure_{sub}_report.json").read_text())
        assert ra == rb
        ca = (a / f"pressure_{sub}_trace.csv").read_bytes()
        cb = (b / f"pressure_{sub}_trace.csv").read_bytes()
        assert ca == cb


def _run_config(tmp_path, capsys, command, cfg, tag):
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / tag
    code, _, _ = _run(command.split() + ["--config", str(path), "--out", str(out_dir)], capsys)
    stem = command.replace(" ", "_")
    report = json.loads((out_dir / f"{stem}_report.json").read_text())
    trace = out_dir / f"{stem}_trace.csv"
    return code, report, trace.read_bytes() if trace.exists() else None


def test_cli_runs_every_scale_in_config_order(tmp_path, capsys):
    # scales listed out of order: one results entry per scale, in config
    # order after the scale-free results (the report file sorts its keys),
    # each equal to that scale run alone; the trace is the first scale's
    capacity = json.loads((CONFIGS / "capacity_full2.json").read_text())
    measure = {
        "system": {"alphabet_size": 2},
        "potential": {"depth": 2, "table": {"00": 0.1, "01": -0.2, "10": 0.3, "11": 0.0}},
        "n_range": [20, 40],
        "samples": 3,
        "measure": {"kind": "bernoulli", "p": [0.3, 0.7]},
    }
    for command, cfg, head in (
        ("pressure capacity", capacity, []),
        ("pressure measure", measure, ["measure", "exact"]),
    ):
        in_process = run(command, parse_config(dict(cfg, scales=[3, 1]), command))[0]
        assert list(in_process["results"]) == head + ["m=3", "m=1"]
        code, both, trace = _run_config(tmp_path, capsys, command, dict(cfg, scales=[3, 1]), "both")
        assert code == 0 and both["passed"] is True
        singles = {}
        for m in (3, 1):
            _, alone, singles[m] = _run_config(tmp_path, capsys, command, dict(cfg, scales=[m]), f"m{m}")
            assert both["results"][f"m={m}"] == alone["results"][f"m={m}"]
            for key in head:
                assert both["results"][key] == alone["results"][key]
        assert trace == singles[3] != singles[1]


def test_cli_verify_fails_when_any_scale_fails(tmp_path, capsys, monkeypatch):
    # no shipped verification changes its outcome between small scales, so
    # the verifier is wrapped to fail at m = 2 only
    import dataclasses

    import pressurelab.cli as cli

    real = cli.verify_unions

    def fails_at_m2(sft, parts, f, scale, *args, **kwargs):
        rep = real(sft, parts, f, scale, *args, **kwargs)
        return dataclasses.replace(rep, passed=scale.m != 2)

    monkeypatch.setattr(cli, "verify_unions", fails_at_m2)
    cfg = json.loads((CONFIGS / "unions_fixed_points.json").read_text())
    for scales, passed in (([1, 3], True), ([1, 2], False), ([2, 1], False)):
        code, report, _ = _run_config(tmp_path, capsys, "verify unions", dict(cfg, scales=scales), "u")
        assert code == (0 if passed else 2)
        assert report["passed"] is passed
        assert {key: rep["passed"] for key, rep in report["results"].items()} == {
            f"m={m}": m != 2 for m in scales
        }


def test_cli_config_setting_threads_is_an_unknown_field(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "measure_uniform.json").read_text())
    path = tmp_path / "measure_threads.json"
    path.write_text(json.dumps(dict(cfg, threads=1)))
    code, _, err = _run(
        ["pressure", "measure", "--config", str(path), "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == 1
    record = json.loads(err.strip())
    assert record["error"] == "SchemaError"
    assert record["problems"] == [["threads", "unknown field"]]
    assert not (tmp_path / "out").exists()


def test_cli_frequency_band_runs(tmp_path, capsys):
    code, out, _ = _run(
        ["pressure", "bowen", "--config", str(CONFIGS / "frequency_band.json"),
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    report = json.loads((tmp_path / "pressure_bowen_report.json").read_text())
    assert 0.4 < report["results"]["m=1"]["midpoint"] < 0.7


def test_cli_band_window_past_the_float_range_runs(tmp_path, capsys):
    # "window": 1e308 passes the schema; the prune's bounds overflow to
    # +-inf and keep every count, so the band covers like the whole 2-shift
    cfg = json.loads((CONFIGS / "frequency_band.json").read_text())
    cfg["subset"]["window"] = 1e308
    code, report, _ = _run_config(tmp_path, capsys, "pressure bowen", cfg, "wide")
    assert code == 0
    assert report["results"]["m=1"]["midpoint"] == 0.69287109375


def test_cli_chain_overflowing_cover_values_report_inf(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "chain_full2.json").read_text())
    cfg["s"] = -80  # cover values near exp(14 * 80), past the float range
    path = tmp_path / "chain_overflow.json"
    path.write_text(json.dumps(cfg))
    code, _, err = _run(
        ["verify", "chain", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code in (0, 2)
    assert err == ""
    report = json.loads((tmp_path / "verify_chain_report.json").read_text())
    assert report["results"]["m=4"]["unweighted_value"] == "inf"


@pytest.mark.parametrize("system, band", [
    (GM_SYSTEM, {"symbol": 1, "target": 0.8, "window": 0.1}),
    ({"alphabet_size": 1, "allowed": "full"}, {"symbol": 0, "target": 0.5, "window": 0.1}),
])
def test_cli_unreachable_band_exits_1_with_empty_target(tmp_path, capsys, system, band):
    # symbol 1 of the golden mean has frequencies up to 1/2; the 1-shift's
    # only frequency is 1
    cfg = {"system": system, "potential": {"constant": 0.0}, "scales": [1], "N": 3, "L": 20,
           "subset": {"kind": "frequency_level", **band}}
    path = tmp_path / "band.json"
    path.write_text(json.dumps(cfg))
    code, _, err = _run(["verify", "variational", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "EmptyTarget" and len(err.splitlines()) == 1


# every command that reads a potential: (command, shipped config, overrides)
_FLOAT_RANGE_CASES = [
    ("pressure exact", "exact_golden_mean.json", {}),
    ("pressure capacity", "capacity_full2.json", {}),
    ("pressure capacity", "capacity_full2.json", {"scales": [3]}),
    ("pressure bowen", "bowen_full2.json", {}),
    ("pressure weighted", "weighted_full2.json", {}),
    ("pressure measure", "measure_uniform.json", {"n_range": [20, 40], "samples": 3}),
    ("verify chain", "chain_full2.json", {}),
    ("verify variational", "variational_golden_sub.json", {}),
    ("verify variational", "frequency_band.json", {}),
    ("verify unions", "unions_fixed_points.json", {}),
    ("verify gibbs", "gibbs_full2.json", {}),
]

_RUN_EACH_ARGV = """
import contextlib, io, json, sys
from pressurelab.cli import main
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(json.dumps([code, err.getvalue()]))
"""


def test_cli_potentials_at_the_float_range_leave_stderr_to_the_record(tmp_path):
    # constant +-1e308 puts every Birkhoff sum past the float range: a command
    # exits 0 or 2 with nothing on stderr, or 1 with the one JSON record. A
    # RuntimeWarning would print first; pytest's capture hides those, so the
    # commands run in a fresh interpreter that prints every one (-W always)
    runs = []
    for i, (command, name, extra) in enumerate(_FLOAT_RANGE_CASES):
        for c in (1e308, -1e308):
            path = tmp_path / f"{i}_{c:+g}.json"
            cfg = json.loads((CONFIGS / name).read_text())
            path.write_text(json.dumps({**cfg, **extra, "potential": {"constant": c}}))
            runs.append([*command.split(), "--config", str(path), "--out", str(tmp_path / "out")])
    proc = subprocess.run(
        [sys.executable, "-W", "always::RuntimeWarning", "-c", _RUN_EACH_ARGV, json.dumps(runs)],
        capture_output=True, text=True, timeout=300, env=_src_env(),
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    outcomes = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(outcomes) == len(runs)
    for argv, (code, err) in zip(runs, outcomes):
        if code in (0, 2):
            assert err == "", (argv, err)
        else:
            assert code == 1 and len(err.splitlines()) == 1, (argv, err)
            assert "error" in json.loads(err), (argv, err)


def _src_env() -> dict:
    """This process's environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_import_loads_no_scipy():
    # scipy is a test-only dependency, and no code path runs a thread pool;
    # importing the package must load neither
    code = (
        "import pressurelab, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m == 'concurrent.futures' or m.startswith('concurrent.futures.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _perfbench_module(monkeypatch, name: str):
    """``perfbench/<name>.py`` loaded from its file under a private name."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve(monkeypatch):
    # the benchmark's tracer wraps these functions by name, so deleting or
    # renaming one breaks `perfbench/run.py --trace 1` and no library test
    import importlib

    tracing = _perfbench_module(monkeypatch, "tracing")
    assert tracing.TRACED
    for module, func in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"pressurelab.{module}"), func, None)), (
            module, func,
        )


def test_traced_layers_run_through_the_tracer_hooks(tmp_path, monkeypatch):
    # the benchmark's tracer wraps every TRACED function by name, and its
    # hooks read the arguments and results of some; a rename, a signature or
    # a result shape that breaks `perfbench/run.py --trace 1` fails here.
    # Every tiny op runs as the benchmark runs it, through module attributes
    # that the tracer patches.
    from pressurelab import cli, config

    tracing = _perfbench_module(monkeypatch, "tracing")
    workloads = _perfbench_module(monkeypatch, "workloads")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for workload in workloads.WORKLOADS:
            for op in workloads.generate(workload, 7, tiny=True):
                cfg = config.parse_config(json.dumps(op.config), op.command)
                report, _, _ = cli.run(op.command, cfg)
                config.write_json(str(tmp_path / f"{op.name}.json"), report)
        # no op prices a weighted cover itself; this call fires the LP-size hook
        full2 = pressurelab.full_shift(2)
        pressurelab.weighted_cover_value(
            full2, pressurelab.whole(), pressurelab.zero_potential(full2), 0.7, 2,
            pressurelab.Scale(1), 8,
        )
        metrics = tracer.summary(1)
    finally:
        tracer.uninstall()
    assert list(metrics) == [name for name, _ in tracing.layer_metric_units()]
    assert all(math.isfinite(v) for v in metrics.values())
    hooked = ("probes", "lp_leaves", "lp_candidates", "horizons", "orbits", "symbols", "report_bytes")
    assert all(tracer.counts[name] > 0 for name in hooked), tracer.counts
    # the cover and forward folds run through the names the tracer times
    assert metrics["engine.cover_min_log.calls"] > 0
    assert metrics["engine.leaf_sum_log.calls"] > 0
    # and each orbit is drawn and traced through the public names it times
    assert metrics["measure.sample_orbit.calls"] > 0
    assert metrics["measure.local_pressure.calls"] > 0
    assert not hasattr(cli.run, "__wrapped__")  # uninstalled


def _declared_entry_point(name: str) -> str:
    """The ``module:attr`` target of ``[project.scripts][name]`` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_console_script_version():
    script = shutil.which("pressurelab")
    if script is not None:
        proc = subprocess.run(
            [script, "--version"], capture_output=True, text=True, timeout=60
        )
    else:
        # Not installed (e.g. a source checkout run with PYTHONPATH=src): call
        # the declared entry point in a fresh interpreter, as pip's script does.
        module, attr = _declared_entry_point("pressurelab").split(":")
        code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        proc = subprocess.run(
            [sys.executable, "-c", code, "--version"],
            capture_output=True, text=True, timeout=60, env=_src_env(),
        )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == pressurelab.__version__
