"""Span tracing of pressurelab's layers, from outside the library.

``Tracer.install`` replaces each traced function with a wrapper at every
name a pressurelab module binds it under, so callers inside the library go
through the wrapper; ``uninstall`` puts the originals back. Only the traced
process is patched. Each call becomes a span (name, start, end, parent)
kept in flat arrays and written out with ``dump``. Nothing in the library
waits on a queue or a lock, so spans carry no wait times.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: (module, function) pairs traced; each yields .total_s, .self_s, .calls.
TRACED = (
    ("cli", "run"),
    ("config", "parse_config"),
    ("config", "write_json"),
    ("bowen", "bowen_pressure"),
    ("bowen", "weighted_pressure"),
    ("bowen", "weighted_cover_value"),
    ("bowen", "check_chain"),
    ("_engine", "cover_min_log"),
    ("_engine", "leaf_sum_log"),
    ("subsets", "build_tracker"),
    ("subsets", "count_target_words"),
    ("subsets", "iter_target_words"),
    ("capacity", "capacity_pressure"),
    ("symbolic", "sup_birkhoff_on_cylinder"),
    ("symbolic", "birkhoff_sum"),
    ("measure", "sample_orbit"),
    ("measure", "local_pressure"),
    ("measure", "measure_pressure_mc"),
    ("transfer", "spectral_pressure"),
    ("transfer", "equilibrium_measure"),
    ("harness", "verify_variational"),
    ("harness", "verify_gibbs_bound"),
)

#: Counters and ratios derived from the spans, with their units.
DERIVED = (
    ("bowen.probes", "count"),
    ("bowen.s_per_probe", "s"),
    ("bowen.lp_leaves", "count"),
    ("bowen.lp_candidates", "count"),
    ("capacity.horizons", "count"),
    ("capacity.s_per_horizon", "s"),
    ("measure.orbits", "count"),
    ("measure.excluded", "count"),
    ("measure.symbols_per_s", "1/s"),
    ("config.report_bytes", "bytes"),
)

# span name recorded around the counting hooks, so their cost is charged
# to no layer
_COUNTING = "trace.counting"


def layer_name(module: str, func: str) -> str:
    """Metric prefix of a traced function; metric names may not start with "_"."""
    return f"{module.lstrip('_')}.{func}"


def layer_metric_units() -> List[Tuple[str, str]]:
    """Every metric ``Tracer.summary`` reports, in order, with its unit."""
    out: List[Tuple[str, str]] = []
    for module, func in TRACED:
        name = layer_name(module, func)
        out += [(f"{name}.total_s", "s"), (f"{name}.self_s", "s"), (f"{name}.calls", "count")]
    return out + list(DERIVED)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.outermost = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._active: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.counts: Dict[str, float] = dict.fromkeys(
            ("probes", "lp_leaves", "lp_candidates", "horizons", "orbits",
             "excluded", "symbols", "report_bytes"), 0.0)
        self._lp_sizes: Dict[str, Tuple[int, int]] = {}
        self._iter_target_words: Optional[Callable] = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "bowen.bowen_pressure": self._count_probes,
            "bowen.weighted_cover_value": self._count_lp,
            "capacity.capacity_pressure": self._count_horizons,
            "measure.measure_pressure_mc": self._count_orbits,
            "measure.sample_orbit": self._count_symbols,
            "config.write_json": self._count_report_bytes,
        }
        package = [m for n, m in sys.modules.items()
                   if n == "pressurelab" or n.startswith("pressurelab.")]
        self._iter_target_words = sys.modules["pressurelab.subsets"].iter_target_words
        for module, func in TRACED:
            name = layer_name(module, func)
            orig = getattr(sys.modules[f"pressurelab.{module}"], func)
            wrapper = self._wrap(orig, self._id(name), hooks.get(name))
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(self._active[nid] == 0)
        self._active[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[nid] -= 1

    def _wrap(self, orig: Callable, nid: int, hook: Optional[Callable]) -> Callable:
        counting = self._id(_COUNTING)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx, nid)
            if hook is not None:
                idx = self._open(counting)
                try:
                    hook(result, *args, **kwargs)
                finally:
                    self._close(idx, counting)
            return result

        return wrapper

    # -- counting hooks ----------------------------------------------------

    def _count_probes(self, result, *args, **kwargs) -> None:
        self.counts["probes"] += len(result.history)

    def _count_lp(self, result, sft, K, f, s, N, scale, L, candidate_pool=None) -> None:
        """LP size counted from outside: target leaves and candidate cylinders."""
        key = repr((sft.alphabet_size, sft.allowed, K, N, scale.m, L))
        if key not in self._lp_sizes:
            leaves = self._iter_target_words(sft, K, L)
            d_min = N + scale.m
            pool = {w[:d] for w in leaves for d in range(d_min, L + 1)}
            self._lp_sizes[key] = (len(leaves), len(pool))
        leaves, candidates = self._lp_sizes[key]
        self.counts["lp_leaves"] += leaves
        self.counts["lp_candidates"] += candidates

    def _count_horizons(self, result, *args, **kwargs) -> None:
        self.counts["horizons"] += len(result.p_n) + len(result.empty_n)

    def _count_orbits(self, result, *args, **kwargs) -> None:
        self.counts["orbits"] += result.samples
        self.counts["excluded"] += result.excluded

    def _count_symbols(self, result, *args, **kwargs) -> None:
        self.counts["symbols"] += len(result.word)

    def _count_report_bytes(self, result, path, *args, **kwargs) -> None:
        self.counts["report_bytes"] += os.path.getsize(path)

    # -- results -----------------------------------------------------------

    def _per_name(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(total, self, calls) per span name, over every recorded span.

        total sums a name's outermost spans; self subtracts from each span
        the time its direct child spans cover.
        """
        n, k = len(self.start), len(self.names)
        names = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        outer = np.array(self.outermost, dtype=bool)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        own = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)
        return (
            np.bincount(names[outer], weights=dur[outer], minlength=k),
            np.bincount(names, weights=own, minlength=k),
            np.bincount(names, minlength=k),
        )

    def summary(self, passes: int) -> Dict[str, float]:
        """Per-pass layer metrics over ``passes`` traced passes."""
        total, selft, calls = self._per_name()
        out: Dict[str, float] = {}
        for module, func in TRACED:
            name = layer_name(module, func)
            i = self._ids[name]
            out[f"{name}.total_s"] = float(total[i]) / passes
            out[f"{name}.self_s"] = float(selft[i]) / passes
            out[f"{name}.calls"] = float(calls[i]) / passes
        c = {key: value / passes for key, value in self.counts.items()}
        measure_s = out["measure.sample_orbit.total_s"] + out["measure.local_pressure.total_s"]
        out.update({
            "bowen.probes": c["probes"],
            "bowen.s_per_probe": _ratio(out["bowen.bowen_pressure.total_s"], c["probes"]),
            "bowen.lp_leaves": c["lp_leaves"],
            "bowen.lp_candidates": c["lp_candidates"],
            "capacity.horizons": c["horizons"],
            "capacity.s_per_horizon": _ratio(out["capacity.capacity_pressure.total_s"], c["horizons"]),
            "measure.orbits": c["orbits"],
            "measure.excluded": c["excluded"],
            "measure.symbols_per_s": _ratio(c["symbols"], measure_s),
            "config.report_bytes": c["report_bytes"],
        })
        return out

    def self_shares(self) -> Dict[str, float]:
        """Each span name's share of all self time recorded."""
        selft = self._per_name()[1]
        whole = float(selft.sum()) or 1.0
        return {name: float(selft[i]) / whole for i, name in enumerate(self.names)}

    def dump(self, path: str) -> None:
        """Write every span to ``path`` (.npz: names, name_id, parent, start, end)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
