"""Layer spans for a traced nanoflow process, and the per-layer numbers they give.

A layer is one nanoflow module.  ``Tracer.install`` wraps the module-level
functions listed in ``LAYERS``, wherever a nanoflow module binds them, so
that every call records a span: id, parent span id, name, start and end on
the system-wide monotonic clock.  Calls are counted by outcome from their
return values (``try_consume`` refused, ``reception_decision`` verdicts,
``SimResult`` sizes, bytes written by the CSV exporters).

Forked pool workers inherit the tracer with the parent's open span stack,
so their spans hang under the parent's ``run_events`` span; each worker
writes its spans when it exits.  Nothing is timed inside the package: a
span covers one whole call into a layer, made from the layer above.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import time
from array import array
from pathlib import Path

import numpy as np

from launch import nanoflow_modules, rebind

LAYERS = {
    "config": ("load_config",),
    "vasculature": ("build_reference_vasculature", "simulate_mobility",
                    "upsample_trace", "export_trace_csv"),
    "energy": ("advance_harvest", "try_consume"),
    "channel": ("link_sample", "path_loss_db", "sinr_db", "reception_decision"),
    "simcore": ("run_simulation", "export_raw_csv", "export_energy_csv"),
    "benchmark": ("dense_locations", "sample_locations", "simulate_event",
                  "run_events", "run_benchmark", "convergence_curve",
                  "baseline_localize"),
    "cli": ("main",),
}


def _add(counters: dict, key: str, n: int = 1) -> None:
    counters[key] = counters.get(key, 0) + n


def _refused(counters, result, args, kwargs):
    if result is None:
        _add(counters, "energy.try_consume.refused")


def _verdict(counters, result, args, kwargs):
    _add(counters, f"channel.reception_decision.{result.value}")


def _sim_result(counters, result, args, kwargs):
    _add(counters, "simcore.records", len(result.records))
    _add(counters, "simcore.energy_rows", len(result.energy_rows))


def _bytes_written(name):
    def observe(counters, result, args, kwargs):
        _add(counters, f"{name}.bytes",
             os.path.getsize(kwargs["path"] if "path" in kwargs else args[1]))
    return observe


# Outcome counters, read from what a layer call returned.
OBSERVERS = {
    "energy.try_consume": _refused,
    "channel.reception_decision": _verdict,
    "simcore.run_simulation": _sim_result,
    **{name: _bytes_written(name) for name in ("vasculature.export_trace_csv",
                                               "simcore.export_raw_csv",
                                               "simcore.export_energy_csv")},
}


class Tracer:
    """Span recorder for one process and the pool workers it forks."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.names: list[str] = []
        self.stack = [-1]          # ids of the open spans; -1 is the root
        self.next_id = 0
        self._reset()
        self._installed: list[tuple[object, str, object]] = []

    def _reset(self) -> None:
        self.ids = array("q")
        self.parents = array("q")
        self.name_idx = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counters: dict[str, int] = {}

    def _wrap(self, name: str, fn):
        tracer = self
        idx = len(self.names)
        self.names.append(name)
        clock = time.perf_counter   # CLOCK_MONOTONIC: comparable across processes
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            stack = tracer.stack
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.ids.append(sid)
                tracer.parents.append(parent)
                tracer.name_idx.append(idx)
                tracer.t0.append(start)
                tracer.t1.append(end)
            if observe is not None:
                observe(tracer.counters, result, args, kwargs)
            return result

        return span

    def install(self) -> None:
        """Wrap every function in LAYERS under all its nanoflow bindings."""
        modules = {m.__name__: m for m in nanoflow_modules()}
        for layer, functions in LAYERS.items():
            module = modules[f"nanoflow.{layer}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod, attr in rebind(original, wrapper):
                    self._installed.append((mod, attr, original))
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def uninstall(self) -> None:
        """Put every original function back under every name it had."""
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def _after_fork(self) -> None:
        # A pool worker keeps the parent's open spans as its stack, drops the
        # parent's finished spans and numbers its own spans apart.
        if not self._installed:
            return
        self._reset()
        self.next_id = os.getpid() << 32
        multiprocessing.util.Finalize(None, self.dump, args=(f"worker-{os.getpid()}",),
                                      exitpriority=100)

    def dump(self, label: str) -> None:
        path = Path(self.out_dir)
        path.mkdir(parents=True, exist_ok=True)
        np.savez(path / f"{label}.npz", ids=np.array(self.ids, dtype=np.int64),
                 parents=np.array(self.parents, dtype=np.int64),
                 name_idx=np.array(self.name_idx, dtype=np.int32),
                 t0=np.array(self.t0, dtype=float), t1=np.array(self.t1, dtype=float))
        with open(path / f"{label}.json", "w") as fh:
            json.dump({"names": self.names, "counters": self.counters}, fh)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


class Spans:
    """All spans of one traced command, from the main process and its workers.

    Span i is named ``names[codes[i]]``, runs from ``t0[i]`` to ``t1[i]`` and
    was opened inside the span whose id is ``parents[i]`` (-1: none).
    """

    def __init__(self, ids, parents, codes, names, t0, t1, counters=None):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.codes = np.asarray(codes, dtype=np.int64)
        self.names = list(names)
        self.t0 = np.asarray(t0, dtype=float)
        self.t1 = np.asarray(t1, dtype=float)
        self.counters = dict(counters or {})
        self._by_parent = np.argsort(self.parents, kind="stable")
        self._parent_sorted = self.parents[self._by_parent]

    @classmethod
    def load(cls, trace_dir: str) -> "Spans":
        """Merge the span files the main process and its workers wrote."""
        names: list[str] = []
        parts: dict[str, list] = {k: [] for k in ("ids", "parents", "codes", "t0", "t1")}
        counters: dict[str, int] = {}
        for meta_path in sorted(Path(trace_dir).glob("*.json")):
            with open(meta_path) as fh:
                meta = json.load(fh)
            for name in meta["names"]:
                if name not in names:
                    names.append(name)
            recode = np.array([names.index(n) for n in meta["names"]], dtype=np.int64)
            with np.load(meta_path.with_suffix(".npz")) as arrays:
                for key in ("ids", "parents", "t0", "t1"):
                    parts[key].append(arrays[key])
                parts["codes"].append(recode[arrays["name_idx"]])
            for key, value in meta["counters"].items():
                _add(counters, key, value)
        if not names:
            raise FileNotFoundError(f"no span files in {trace_dir}")
        return cls(*(np.concatenate(parts[k]) for k in ("ids", "parents", "codes")), names,
                   *(np.concatenate(parts[k]) for k in ("t0", "t1")), counters)

    def of(self, name: str) -> np.ndarray:
        """Indices of the spans with this name."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.codes == self.names.index(name))

    def durations(self, name: str) -> np.ndarray:
        idx = self.of(name)
        return self.t1[idx] - self.t0[idx]

    def covered(self, i: int) -> float:
        """Length of span i's interval that its child spans cover.

        Children from parallel workers overlap, so this is the length of the
        union of their intervals, clipped to span i.
        """
        sid = self.ids[i]
        kids = self._by_parent[np.searchsorted(self._parent_sorted, sid, side="left"):
                               np.searchsorted(self._parent_sorted, sid, side="right")]
        if not len(kids):
            return 0.0
        lo = np.maximum(self.t0[kids], self.t0[i])
        hi = np.minimum(self.t1[kids], self.t1[i])
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order], hi[order]
        reach = np.concatenate(([lo[0]], np.maximum.accumulate(hi)[:-1]))
        return float(np.clip(hi - np.maximum(lo, reach), 0.0, None).sum())

    def self_s(self, name: str) -> float:
        """Summed duration of the named spans minus what their children cover."""
        return sum((float(self.t1[i] - self.t0[i]) - self.covered(i) for i in self.of(name)), 0.0)


def _ratio(part: float, whole: float) -> float:
    # 0 when the layer was never called on this workload
    return part / whole if whole else 0.0


def layer_metrics(spans: Spans, workers: int) -> dict[str, float]:
    """Per-layer numbers of one traced command, named as in BENCHMARK.json.

    ``.s`` is the summed span time over all processes, so in a pooled run
    it can exceed the wall time; ``self_s`` leaves out child spans.
    """
    out: dict[str, float] = {key: 0 for key in (
        "vasculature.export_trace_csv.bytes", "simcore.export_energy_csv.bytes",
        "simcore.export_raw_csv.bytes", "energy.try_consume.refused",
        "simcore.records", "simcore.energy_rows", "channel.reception_decision.delivered",
        "channel.reception_decision.discard_sensitivity",
        "channel.reception_decision.discard_collision")}
    out.update(spans.counters)
    for layer, functions in LAYERS.items():
        for fn_name in functions:
            name = f"{layer}.{fn_name}"
            out[f"{name}.calls"] = len(spans.of(name))
            out[f"{name}.s"] = float(spans.durations(name).sum())

    out["energy.try_consume.ok_ratio"] = _ratio(
        out["energy.try_consume.calls"] - out["energy.try_consume.refused"],
        out["energy.try_consume.calls"])
    out["channel.delivered_ratio"] = _ratio(out["channel.reception_decision.delivered"],
                                            out["channel.reception_decision.calls"])
    out["simcore.run_simulation.self_s"] = spans.self_s("simcore.run_simulation")

    per_event = spans.durations("benchmark.simulate_event")
    for q in (50, 90):
        out[f"benchmark.simulate_event.p{q}_s"] = (
            float(np.percentile(per_event, q)) if len(per_event) else 0.0)
    out["benchmark.run_events.busy_frac"] = _ratio(float(per_event.sum()),
                                                   workers * out["benchmark.run_events.s"])
    out["benchmark.report.s"] = spans.self_s("benchmark.run_benchmark")

    mains = spans.of("cli.main")
    out["trace.coverage"] = _ratio(sum(spans.covered(i) for i in mains),
                                   float(spans.durations("cli.main").sum()))
    return out
