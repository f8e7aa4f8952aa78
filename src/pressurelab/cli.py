"""Command-line surface: one command per invocation, JSON report out,
CSV trace where one exists, optional SVG rendering of the trace.

Exit codes: 0 on success (and verification pass), 2 when a verify command
completes but the verification fails, 1 on any error, usage errors
included. Errors print one machine-readable JSON object to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ._version import __version__
from .bowen import bowen_pressure, check_chain, weighted_pressure
from .capacity import capacity_pressure
from .config import (
    COMMANDS,
    ExperimentConfig,
    parse_config,
    parse_scalar,
    svg_line_plot,
    write_atomic,
    write_csv,
    write_json,
)
from .errors import PressureLabError, SchemaError
from .harness import (
    _embed_measure,
    _invariant_core,
    property_suite,
    verify_gibbs_bound,
    verify_unions,
    verify_variational,
)
from .measure import exact_invariant_pressure, measure_pressure_mc
from .symbolic import Scale
from .transfer import MarkovMeasure, bernoulli_measure, markov_measure

Trace = Optional[Tuple[Tuple[str, str], List[Sequence]]]


def run(command: str, cfg: ExperimentConfig) -> Tuple[Dict[str, object], Trace, bool]:
    """Execute one command; returns (report dict, optional trace, passed).

    The report is fully serializable; the trace is (header, rows) for the
    CSV emitter, read off the first scale. ``passed`` is the verification
    outcome for verify commands (False when any scale fails) and True for
    plain computations that complete.
    """
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    started = time.perf_counter()
    results, at_scale, header = _HANDLERS[command](cfg)
    trace = None
    for scale in cfg.scales if at_scale else ():
        results[f"m={scale.m}"], rows = at_scale(cfg, scale)
        if trace is None and header is not None:
            trace = (header, rows)
    # verification reports carry their outcome; computed values count as passed
    passed = all(
        rep.get("passed", True) if isinstance(rep, dict) else getattr(rep, "passed", True)
        for rep in results.values()
    )
    report = {
        "command": command,
        "version": __version__,
        "inputs": cfg.raw,
        "effective": {"seed": cfg.seed},
        "results": results,
        "passed": passed,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    return report, trace, passed


# A handler maps a config to (the results that do not depend on the scale,
# the call made at each scale or None, the trace header or None). The call
# returns (the scale's report, its trace rows).


def _per_scale(call, header: Optional[Tuple[str, str]] = None):
    """The handler whose results are only the per-scale reports of ``call``."""
    return lambda cfg: ({}, call, header)


def _cmd_exact(cfg: ExperimentConfig):
    sub, symbols, _, spectral, _ = _invariant_core(cfg.system, cfg.subset, cfg.potential)
    results = {
        "pressure": spectral,
        "core_symbols": list(symbols),
        "core_size": sub.alphabet_size,
    }
    return results, None, None


def _cmd_capacity(cfg: ExperimentConfig, scale: Scale):
    est = capacity_pressure(cfg.system, cfg.subset, cfg.potential, scale, cfg.n_range)
    filled = {**dict(est.p_n), **dict.fromkeys(est.empty_n, float("-inf"))}
    return est, sorted(filled.items())


def _cmd_bowen(cfg: ExperimentConfig, scale: Scale):
    ce = bowen_pressure(cfg.system, cfg.subset, cfg.potential, scale, cfg.N, cfg.L, tol=cfg.tol)
    return ce, sorted(ce.history)


def _cmd_weighted(cfg: ExperimentConfig, scale: Scale):
    ce = weighted_pressure(cfg.system, cfg.subset, cfg.potential, scale, cfg.N, cfg.L, tol=cfg.tol)
    return ce, sorted(ce.history)


def _build_measure(cfg: ExperimentConfig) -> MarkovMeasure:
    spec = cfg.measure_spec
    if spec["kind"] == "bernoulli":
        return bernoulli_measure(spec["p"])
    if spec["kind"] == "markov":
        return markov_measure(spec["transition"], spec.get("initial"))
    _, symbols, _, _, equilibrium = _invariant_core(cfg.system, cfg.subset, cfg.potential)
    return _embed_measure(equilibrium(), symbols, cfg.system.alphabet_size)


def _cmd_measure(cfg: ExperimentConfig):
    mu = _build_measure(cfg)
    results: Dict[str, object] = {"measure": mu}
    try:
        results["exact"] = {"value": exact_invariant_pressure(mu, cfg.potential)}
    except PressureLabError as e:
        results["exact"] = {"unavailable": type(e).__name__}

    def at_scale(cfg: ExperimentConfig, scale: Scale):
        mc = measure_pressure_mc(mu, cfg.potential, scale, cfg.n_range, cfg.samples, cfg.seed)
        return mc, list(mc.trace.values)

    return results, at_scale, ("n", "local_pressure")


def _cmd_chain(cfg: ExperimentConfig, scale: Scale):
    return check_chain(
        cfg.system, cfg.subset, cfg.potential, cfg.s, cfg.delta, cfg.N, scale, cfg.L,
    ), None


def _cmd_variational(cfg: ExperimentConfig, scale: Scale):
    return verify_variational(
        cfg.system, cfg.subset, cfg.potential, scale, cfg.N, cfg.L,
        cfg.tol, measure_grid=cfg.measure_grid, seed=cfg.seed,
    ), None


def _cmd_unions(cfg: ExperimentConfig, scale: Scale):
    return verify_unions(
        cfg.system, list(cfg.subset.parts), cfg.potential, scale,
        cfg.N, cfg.L, tol=cfg.tol,
    ), None


def _cmd_gibbs(cfg: ExperimentConfig, scale: Scale):
    rep = verify_gibbs_bound(
        cfg.system, cfg.subset, cfg.potential, scale, cfg.N, cfg.L, betas=cfg.betas,
    )
    return rep, list(rep.trace)


def _cmd_properties(cfg: ExperimentConfig):
    return {"properties": property_suite(cfg.seed, cfg.trials)}, None, None


_HANDLERS = {
    "pressure exact": _cmd_exact,
    "pressure capacity": _per_scale(_cmd_capacity, ("n", "log_partition_function")),
    "pressure bowen": _per_scale(_cmd_bowen, ("s", "cover_value")),
    "pressure weighted": _per_scale(_cmd_weighted, ("s", "cover_value")),
    "pressure measure": _cmd_measure,
    "verify chain": _per_scale(_cmd_chain),
    "verify variational": _per_scale(_cmd_variational),
    "verify unions": _per_scale(_cmd_unions),
    "verify gibbs": _per_scale(_cmd_gibbs, ("n", "log_max_ratio")),
    "verify properties": _cmd_properties,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise SchemaError, so they end in the JSON record and exit 1."""

    def error(self, message: str):
        raise SchemaError([("argv", message)])


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pressurelab",
        description="Pressure computations and cross-validations on subshifts",
    )
    parser.add_argument("--version", action="version", version=__version__)
    groups = parser.add_subparsers(dest="group", required=True)
    helps = {"pressure": "compute one pressure notion", "verify": "run one verification"}
    for group, about in helps.items():
        sub = groups.add_parser(group, help=about)
        names = [c.split(" ")[1] for c in COMMANDS if c.startswith(group + " ")]
        sub.add_argument("subcommand", choices=names)
        sub.add_argument("--config", required=True, help="path to a JSON config")
        sub.add_argument("--out", default=".", help="output directory")
        sub.add_argument("--seed", type=int, default=None, help="override config seed")
        sub.add_argument(
            "--svg", action="store_true", help="also render the trace as an SVG plot"
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        command = f"{args.group} {args.subcommand}"
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        cfg = parse_config(text, command)
        if args.seed is not None:
            problems: List[Tuple[str, str]] = []
            cfg.seed = parse_scalar("seed", args.seed, problems, path="--seed")
            if problems:
                raise SchemaError(problems)
        report, trace, passed = run(command, cfg)
        os.makedirs(args.out, exist_ok=True)
        stem = command.replace(" ", "_")
        report_path = os.path.join(args.out, f"{stem}_report.json")
        write_json(report_path, report)
        emitted = [report_path]
        if trace is not None:
            header, rows = trace
            csv_path = os.path.join(args.out, f"{stem}_trace.csv")
            write_csv(csv_path, header, rows)
            emitted.append(csv_path)
            if args.svg:
                svg_path = os.path.join(args.out, f"{stem}_trace.svg")
                write_atomic(
                    svg_path,
                    svg_line_plot(rows, title=command, xlabel=header[0], ylabel=header[1]),
                )
                emitted.append(svg_path)
        print(f"{command}: passed={passed} files={','.join(emitted)}")
        if command.startswith("verify") and not passed:
            return 2
        return 0
    except SchemaError as e:
        _emit_error(e, extra={"problems": [[p, m] for p, m in e.problems]})
        return 1
    except (PressureLabError, ValueError, OSError, RuntimeError, MemoryError) as e:
        _emit_error(e)
        return 1


def _emit_error(e: Exception, extra: Optional[Dict[str, object]] = None) -> None:
    record: Dict[str, object] = {"error": type(e).__name__, "message": str(e)}
    if extra:
        record.update(extra)
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
