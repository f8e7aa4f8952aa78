import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pressurelab
from pressurelab.cli import main, run
from pressurelab.config import parse_config
from pressurelab.errors import InadmissibleWord, ScaleTooCoarse, SchemaError

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


def test_traced_layers_resolve():
    # the benchmark's tracer wraps these functions by name, so deleting or
    # renaming one breaks `perfbench/run.py --trace 1` and no library test
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, func in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"pressurelab.{module}"), func, None)), (
            module, func,
        )


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
