"""pressurelab benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a pressurelab checkout:

    python3 perfbench/run.py --workload {cover-deep,orbits,cross-check} \\
        --seed N --seconds S --trace {0,1} [--tiny]

--tiny shrinks every op; perfbench/selftest.py uses it.

The seed goes to the generator in workloads.py, which writes the
workload's JSON configs under .perfbench_out/; the program sees only those
files. Each op runs the way a user runs it, config.parse_config, then
cli.run, then config.write_json, in one process on one thread. Every report
is read back and checked against its reference; a failing op is counted and
never aborts the run.

--trace 0 reports the end-to-end metrics:

- setup_s: a fresh interpreter imports pressurelab and parses the
  workload's configs (median of several cold starts);
- wall_s: one warm in-process pass over every timed op, report writes
  included (median over the passes that fit in --seconds, after one
  untimed warm-up pass);
- peak_rss_mb: peak resident memory of this process after those passes.

wall_s is scaled to a reference host speed (see hostspeed.py): the
calibration kernel runs after each op, and each pass counts as its wall
time times REFERENCE_S over the pass's mean kernel time. The result file
keeps the unscaled samples. setup_s is not scaled: the cold start runs in
another process, which may run on another CPU than the kernel.

--trace 1 reports the per-layer metrics: import times from fresh
interpreters run with -X importtime, then untraced and traced warm passes
in one process (see tracing.py); trace.overhead_s is the traced median pass
minus the untraced one, both scaled; wall.unscaled_s is the untraced median
pass unscaled and host.kernel_s the median calibration kernel time.
check.max_err and check.failed_frac summarize the reference checks over the
workload's distinct ops, the known-defect op included.

Both print a table of every metric with its unit and sample count, then, as
the last line, one JSON object with the keys correct, attempted, failed and
metrics. attempted and failed count op runs in this process, without the
known-defect op (see workloads.py). A result file with the machine record
and the input digest, and the traced run's spans, go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
COLDSTART = Path(__file__).resolve().parent / "coldstart.py"

COLD_RUNS = 5
IMPORTTIME_RUNS = 3
MIN_PASSES = 3
MIN_TRACE_PASSES = 2

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    (("import.pressurelab_s", "s"), ("import.scipy_s", "s"), ("trace.overhead_s", "s"),
     ("wall.unscaled_s", "s"), ("host.kernel_s", "s"))
    + tuple(tracing.layer_metric_units())
    + (("check.max_err", "nat"), ("check.failed_frac", "ratio"))
)

# Why each workload exists, as layer shares of the traced run: the layers
# of each group hold its self time; the first layer's inclusive time, as a
# share of cli.run's, is the group's share of the traced time.
REASONS = {
    "cover-deep": {"cover DP": ("engine.cover_min_log",)},
    "orbits": {"local pressure": ("measure.local_pressure", "symbolic.birkhoff_sum")},
    "cross-check": {
        "LP": ("bowen.weighted_cover_value", "symbolic.sup_birkhoff_on_cylinder",
               "symbolic.birkhoff_sum"),
        "capacity": ("capacity.capacity_pressure", "engine.leaf_sum_log"),
    },
}

Metric = Tuple[float, str, int]  # value, unit, sample count


# ---------------------------------------------------------------------------
# reference checks


class Tally:
    """Outcome of every op run: failures, and the largest reference error.

    ``attempted``/``failed`` count runs of timed ops; ``failed_ops`` names
    every distinct op (timed or not) that failed at least once.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failed_ops: Dict[str, str] = {}
        self.max_err = 0.0
        self.closed_ops: set = set()

    def record(self, op: workloads.Op, ok: bool, reason: str, err: Optional[float]) -> None:
        if op.timed:
            self.attempted += 1
            self.failed += not ok
        if not ok:
            self.failed_ops.setdefault(op.name, reason)
        if err is not None:
            self.closed_ops.add(op.name)
            self.max_err = max(self.max_err, err)


def check_report(op: workloads.Op, report: dict, band_prev: Optional[float]
                 ) -> Tuple[bool, str, Optional[float], Optional[float]]:
    """Check one report; returns (ok, reason, closed-form error, band value)."""
    results = report.get("results", {})
    if op.check == "passed":
        return report.get("passed") is True, "verification did not pass", None, None
    values = [_number(v.get(op.value_key)) for k, v in sorted(results.items())
              if k.startswith("m=")]
    if not values:
        return False, "no per-scale result", None, None
    if op.check == "band":
        v = values[0]
        ok = v <= op.reference + op.tol and (band_prev is None or v >= band_prev - op.tol)
        return ok, f"band value {v} out of bounds", None, v
    err = max(abs(v - op.reference) for v in values)
    return err <= op.tol, f"|result - reference| = {err:.3g} > {op.tol}", err, None


def _number(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


# ---------------------------------------------------------------------------
# running ops


class Bench:
    def __init__(self, paths: Dict[str, Tuple[Path, Path]]):
        from pressurelab import cli, config

        self.cli, self.config = cli, config
        self.paths = paths
        self.tally = Tally()

    def run_op(self, op: workloads.Op) -> Tuple[float, Optional[str]]:
        """Run one op through the public surface; (seconds, error name or None)."""
        config_path, report_path = self.paths[op.name]
        started = time.perf_counter()
        try:
            text = config_path.read_text(encoding="utf-8")
            cfg = self.config.parse_config(text, op.command)
            report, _trace, _passed = self.cli.run(op.command, cfg)
            self.config.write_json(str(report_path), report)
        except Exception as e:  # a failing op is counted; the run goes on
            return time.perf_counter() - started, type(e).__name__
        return time.perf_counter() - started, None

    def run_pass(self, ops: List[workloads.Op]) -> Tuple[float, float]:
        """Run and check every op once, the calibration kernel after each.

        Returns the summed op time and the mean kernel time.
        """
        wall = kernel = 0.0
        band_prev = None
        for op in ops:
            seconds, error = self.run_op(op)
            wall += seconds
            kernel += hostspeed.kernel_s()
            if error is not None:
                self.tally.record(op, False, error, None)
                continue
            report = json.loads(self.paths[op.name][1].read_text(encoding="utf-8"))
            ok, reason, err, band = check_report(op, report, band_prev)
            band_prev = band if band is not None else band_prev
            self.tally.record(op, ok, reason, err)
        return wall, kernel / max(len(ops), 1)

    def passes_until(self, ops: List[workloads.Op], deadline: float, minimum: int
                     ) -> List[Tuple[float, float]]:
        """Timed passes, as run_pass returns them, until the next one would
        end after ``deadline``."""
        passes: List[Tuple[float, float]] = []
        took: List[float] = []
        while len(passes) < minimum or time.perf_counter() + statistics.median(took) <= deadline:
            started = time.perf_counter()
            passes.append(self.run_pass(ops))
            took.append(time.perf_counter() - started)
        return passes


def scaled_passes(passes: List[Tuple[float, float]]) -> List[float]:
    """Each pass's op time at the reference host speed (see hostspeed.py)."""
    return [hostspeed.scaled(wall, kernel) for wall, kernel in passes]


# ---------------------------------------------------------------------------
# fresh-interpreter set-up


def cold_starts(manifest: Path, runs: int, importtime: bool) -> List[Dict[str, float]]:
    """Run coldstart.py ``runs`` times after one discarded cache-warming run."""
    flags = ["-X", "importtime"] if importtime else []
    samples = []
    for i in range(runs + 1):
        spawned = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *flags, str(COLDSTART), str(SRC), str(manifest)],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-2000:]}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        sample["setup_s"] = sample["ready"] - spawned
        if importtime:
            sample.update(parse_importtime(proc.stderr))
        if i:
            samples.append(sample)
    return samples


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Cumulative import seconds of pressurelab and of scipy from -X importtime.

    The output lists each module after the modules it imported, indented
    one level deeper; scipy's cost is the sum over scipy modules with no
    scipy ancestor.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), int(cumulative), name.strip()))
    pressurelab = scipy = 0
    stack: List[Tuple[int, bool]] = []  # (indent, inside scipy)
    for indent, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy += cumulative
        if name == "pressurelab":
            pressurelab = cumulative
        stack.append((indent, inside or is_scipy))
    return {"import.pressurelab_s": pressurelab / 1e6, "import.scipy_s": scipy / 1e6}


# ---------------------------------------------------------------------------
# inputs and records


def write_inputs(ops: List[workloads.Op], work: Path) -> Tuple[Dict[str, Tuple[Path, Path]], Path, str]:
    """Write each op's config; returns the paths, the manifest and a digest."""
    (work / "reports").mkdir(parents=True, exist_ok=True)
    paths: Dict[str, Tuple[Path, Path]] = {}
    manifest = []
    digest = hashlib.sha256()
    for i, op in enumerate(ops):
        stem = f"{i:02d}-{op.name}"
        config_path = work / f"{stem}.json"
        text = json.dumps(op.config, indent=2, sort_keys=True) + "\n"
        config_path.write_text(text, encoding="utf-8")
        paths[op.name] = (config_path, work / "reports" / f"{stem}_report.json")
        manifest.append({"path": str(config_path), "command": op.command})
        digest.update(f"{stem}\0{op.command}\0{text}\0".encode())
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return paths, manifest_path, "sha256:" + digest.hexdigest()


def machine_record() -> Dict[str, object]:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = []
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "loadavg": " ".join(loadavg),
    }


def print_table(metrics: Dict[str, Metric], notes: Dict[str, str]) -> None:
    print(f"{'metric':<44} {'value':>14} {'unit':<6} {'n':>3}")
    for name, (value, unit, n) in metrics.items():
        note = f"  {notes[name]}" if name in notes else ""
        print(f"{name:<44} {value:>14.6g} {unit:<6} {n:>3}{note}")


def _spread(samples: List[float]) -> str:
    return f"min {min(samples):.4g}, max {max(samples):.4g}"


# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every op (for the self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pressurelab" / "__init__.py").is_file():
        print(f"perfbench: no pressurelab sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    machine = machine_record()
    ops = workloads.generate(args.workload, args.seed, tiny=args.tiny)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    paths, manifest, digest = write_inputs(ops, OUT / tag)
    print(f"# workload {args.workload}: {workloads.WORKLOADS[args.workload]}")
    print(f"# seed {args.seed}, {len(ops)} ops, inputs {digest}")
    print("# machine " + ", ".join(f"{k}={v}" for k, v in machine.items()))

    metrics: Dict[str, Metric] = {}
    notes: Dict[str, str] = {}
    samples: Dict[str, List[float]] = {}
    cold = cold_starts(manifest, IMPORTTIME_RUNS if args.trace else COLD_RUNS, bool(args.trace))
    keys = ("import.pressurelab_s", "import.scipy_s") if args.trace else ("setup_s",)
    for key in keys:
        samples[key] = [c[key] for c in cold]
        metrics[key] = (statistics.median(samples[key]), "s", len(samples[key]))
        notes[key] = _spread(samples[key])

    sys.path.insert(0, str(SRC))
    bench = Bench(paths)
    timed = [op for op in ops if op.timed]
    deadline = time.perf_counter() + args.seconds
    bench.run_pass(timed)  # warm-up: import and first-call set-up finish
    bench.run_pass([op for op in ops if not op.timed])

    tracer = None
    if not args.trace:
        passes = bench.passes_until(timed, deadline, MIN_PASSES)
        walls = samples["wall_s"] = scaled_passes(passes)
        samples["unscaled_wall_s"], samples["kernel_s"] = map(list, zip(*passes))
        metrics["wall_s"] = (statistics.median(walls), "s", len(walls))
        notes["wall_s"] = (f"{_spread(walls)}; unscaled median "
                           f"{statistics.median(samples['unscaled_wall_s']):.4g} s")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (peak, "MB", 1)
    else:
        midway = time.perf_counter() + (deadline - time.perf_counter()) / 2
        plain = bench.passes_until(timed, midway, MIN_TRACE_PASSES)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = bench.passes_until(timed, deadline, MIN_TRACE_PASSES)
        finally:
            tracer.uninstall()
        samples.update({"plain_pass_s": plain, "traced_pass_s": traced})
        plain_s, traced_s = (statistics.median(scaled_passes(p)) for p in (plain, traced))
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s", len(traced) + len(plain))
        notes["trace.overhead_s"] = f"traced {traced_s:.4g} s, plain {plain_s:.4g} s (scaled)"
        metrics["wall.unscaled_s"] = (statistics.median(w for w, _k in plain), "s", len(plain))
        kernels = [k for _w, k in plain + traced]
        metrics["host.kernel_s"] = (statistics.median(kernels), "s", len(kernels))
        notes["host.kernel_s"] = f"reference {hostspeed.REFERENCE_S} s"
        units = dict(PER_LAYER)
        for name, value in tracer.summary(len(traced)).items():
            metrics[name] = (value, units[name], len(traced))

    tally = bench.tally
    closed = len(tally.closed_ops)
    metrics["check.max_err"] = (tally.max_err, "nat", closed)
    notes["check.max_err"] = f"over {closed} ops with a closed-form reference"
    metrics["check.failed_frac"] = (len(tally.failed_ops) / len(ops), "ratio", len(ops))
    notes["check.failed_frac"] = "; ".join(f"{k}: {v}" for k, v in tally.failed_ops.items()) or "none failed"

    print_table(metrics, notes)
    record = {"workload": args.workload, "seed": args.seed, "inputs": digest,
              "machine": machine, "metrics": {k: list(v) for k, v in metrics.items()},
              "samples": samples, "failed_ops": tally.failed_ops}
    if tracer is not None:
        shares = tracer.self_shares()
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:6]
        print("# self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
        traced_s = metrics["cli.run.total_s"][0]
        for label, layers in REASONS[args.workload].items():
            self_share = sum(shares.get(layer, 0.0) for layer in layers)
            total_share = metrics[f"{layers[0]}.total_s"][0] / traced_s
            print(f"# {label}: {self_share:.1%} of self time, {total_share:.1%} of traced time")
        record["self_shares"] = shares
        tracer.dump(str(OUT / f"spans-{tag}.npz"))
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    wanted = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
