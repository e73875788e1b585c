"""nanoflow benchmark: time the CLI on fixed workloads and check its outputs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one table

Each sample runs one nanoflow command in a fresh process, as a user of the
CLI would, through ``launch.py``.  Samples repeat for about ``--seconds``
(at least three; with ``--trace 1`` at least one pair) and every metric is
the median over the samples of the run.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end times are given at nominal machine speed: measured seconds are
scaled by the square root of REFERENCE_S over the median time
``reference_s()`` took on each CPU before and after each sample of the run,
which cancels most of the drift of a shared machine between runs.  The measured medians are printed beside them.

``--trace 0`` gives the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced samples of the same command and gives the
per-layer metrics (see ``layers.py``) plus the tracing overhead.

Correctness: a sample fails when the command exits non-zero, when an output
is missing, for each event run listed in ``report.json``'s ``run_errors``,
and when its output bytes differ from the reference.  At the default seed the
reference is the digests pinned below; at any other seed it is the first
sample of the run, so every sample, traced or not, must write the same bytes.
README.md says why each workload is there.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import heapq
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from launch import hwm_kib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
MIN_SAMPLES = 3
RUN_LIMIT_S = 150.0   # start no sample after this
KILL_AFTER_S = 165.0  # end any sample still running; a run must end within 180 s
REFERENCE_S = 0.15    # reference_s() at nominal machine speed; fixed for good (see README)
# Measured times follow the reference's slowdown only to about this power
# (README, "Machine drift"), so scaling by the full ratio over-corrects.
SCALE_POWER = 0.5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ANCHOR_CONTENTION_CONFIG = {
    "anchors": [
        {"mac": 0, "position_cm": [0.8, 0.0, 0.0], "beacon_interval_s": 0.02, "tx_power_dbm": None},
        {"mac": 1, "position_cm": [-0.8, 0.0, 0.0], "beacon_interval_s": 0.02, "tx_power_dbm": None},
        {"mac": 2, "position_cm": [0.0, 0.8, 0.0], "beacon_interval_s": 0.025, "tx_power_dbm": None},
        {"mac": 3, "position_cm": [0.0, -0.8, 0.0], "beacon_interval_s": 0.03, "tx_power_dbm": None},
    ],
    "benchmark": {"sim_times_s": [150, 300, 600]},
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]   # nanoflow arguments; --seed, --out (and --config) are added
    events: int                # event runs one command makes (simulate: one, untargeted)
    devices: int
    duration_s: float
    workers: int
    outputs: tuple[str, ...]   # files whose bytes are checked
    config: dict | None = None

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        """The nanoflow arguments of one sample; writes the config file beside out_dir."""
        args = [*self.command, "--seed", str(seed), "--out", str(out_dir)]
        if self.config is not None:
            path = out_dir.with_suffix(".config.json")
            path.write_text(json.dumps(self.config))
            args += ["--config", str(path)]
        return args


WORKLOADS = {wl.name: wl for wl in (
    Workload("paper-event",
             ("benchmark", "--strategy", "rgs", "--k", "1", "--devices", "64",
              "--duration-s", "1000", "--workers", "1"),
             events=1, devices=64, duration_s=1000.0, workers=1, outputs=("report.json",)),
    Workload("anchor-contention",
             ("benchmark", "--strategy", "rgs", "--k", "2", "--devices", "32",
              "--duration-s", "600", "--workers", "1"),
             events=2, devices=32, duration_s=600.0, workers=1, outputs=("report.json",),
             config=ANCHOR_CONTENTION_CONFIG),
    Workload("dense-sweep",
             ("convergence", "--strategy", "srs,ssrs,crs,rgs,scs", "--k", "94,342,684,1368",
              "--devices", "4", "--duration-s", "30", "--workers", "2"),
             events=1368, devices=4, duration_s=30.0, workers=2, outputs=("convergence.csv",)),
    Workload("simulate-default",
             ("simulate", "--devices", "64", "--duration-s", "1000"),
             events=1, devices=64, duration_s=1000.0, workers=1,
             outputs=("raw_records.csv", "energy.csv", "trace.csv")),
)}

# sha256 of each output at DEFAULT_SEED.  Changing one is a deliberate
# re-baseline of the program's results and must be explained with the change.
PINNED = {
    "paper-event": {
        "report.json": "8ae81c24b6c6047cdbffc5330c8303b4fd68599cb76db9fde5a5170fcf608d85",
    },
    "anchor-contention": {
        "report.json": "9fd4a61d85f7507658e8c2f6342605175ae92ac853c821947cf1082e428d7f72",
    },
    "dense-sweep": {
        "convergence.csv": "76555b3a7a8426dfd26010465804450b18be055d62b1e8cd022e2adb62b0bb73",
    },
    "simulate-default": {
        "raw_records.csv": "110d7599f0ef6f6977337a6b96d280c5b18a5218cc77fca2e7df107498ecb177",
        "energy.csv": "1068dd41486022749cd1f312f32e136385e4daa20b972458fae24e4973b9ed17",
        "trace.csv": "9c330a624a7fc27975bd589b40637a7bdaf38c7b4538b3186d6a07cd1e38fa73",
    },
}


# ---------------------------------------------------------------------------
# one sample
# ---------------------------------------------------------------------------


def _children(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[1]) == pid:
            found.append(int(entry))
    return found


class ChildPeaks(threading.Thread):
    """Peak resident set of each process a command forks, polled from /proc."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peaks: dict[int, int] = {}
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(0.1):
            for child in _children(self.pid):
                self.peaks[child] = max(self.peaks.get(child, 0), hwm_kib(child))


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def child_env() -> dict[str, str]:
    """The caller's environment, minus NANOFLOW_WORKERS, with one BLAS/OpenMP thread."""
    env = {k: v for k, v in os.environ.items() if k != "NANOFLOW_WORKERS"}
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _reference_once() -> float:
    start = time.perf_counter()
    points = np.random.default_rng(0).random((30000, 3))
    heap: list[tuple[float, int]] = []
    total = 0.0
    for i in range(1, len(points)):
        d = float(np.linalg.norm(points[i] - points[i - 1]))
        heapq.heappush(heap, (d, i))
        total += math.exp(-d)
    while heap:
        total += heapq.heappop(heap)[0]
    ",".join(f"{x:.6f}" for x in points[:, 0])
    return time.perf_counter() - start


def reference_s() -> list[float]:
    """Seconds a fixed mix of interpreter and small-array work takes right now.

    Small numpy calls, heap pushes and float formatting, as in the engine's
    inner loop and the CSV writers, timed once on each CPU this process may
    use, since the CPUs of a shared machine slow down apart.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_reference_once())
    finally:
        os.sched_setaffinity(0, cpus)
    return times


@dataclass
class Sample:
    traced: bool
    wall_s: float
    setup_s: float | None
    peak_rss_kib: int
    failed: int                       # event runs counted as failed
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    scores: dict[str, float | None] = field(default_factory=dict)


def paper_scores(out_dir: Path) -> dict[str, float | None]:
    """The paper's scores in what a command wrote (none for ``simulate``).

    They are deterministic, so the output digests pin them; they are printed
    with every run, not timed.  ``convergence`` gives the dense set's scores,
    i.e. those of its largest k.
    """
    if (out_dir / "report.json").is_file():
        report = json.loads((out_dir / "report.json").read_text())
        return {key: report[key] for key in
                ("region_accuracy", "reliability", "mean_point_error_cm")}
    if (out_dir / "convergence.csv").is_file():
        rows = [line.split(",") for line in
                (out_dir / "convergence.csv").read_text().splitlines()[1:]]
        _, _, accuracy, error = max(rows, key=lambda row: int(row[1]))
        return {"region_accuracy": float(accuracy), "mean_point_error_cm": float(error)}
    return {}


def run_sample(wl: Workload, seed: int, work: Path, traced: bool, timeout_s: float) -> Sample:
    """Run the workload's command once in a fresh process and check what it wrote."""
    sample_dir = Path(tempfile.mkdtemp(prefix="sample-", dir=work))
    out_dir = sample_dir / "out"
    mark = sample_dir / "mark.json"
    trace_dir = sample_dir / "spans"
    cmd = [sys.executable, str(HERE / "launch.py"), "--mark", str(mark)]
    if traced:
        cmd += ["--trace", str(trace_dir)]
    cmd += ["--", *wl.argv(seed, out_dir)]
    with open(sample_dir / "stdout", "wb") as out, open(sample_dir / "stderr", "wb") as err:
        t_start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                start_new_session=True)
        peaks = ChildPeaks(proc.pid)
        peaks.start()
        timer = threading.Timer(timeout_s, _kill_group, args=(proc.pid,))
        timer.start()
        try:
            code = proc.wait()
            t_end = time.monotonic()
        finally:
            timer.cancel()
            peaks.done.set()
            peaks.join()
            _kill_group(proc.pid)   # nothing of the command may outlive it

    problems: list[str] = []
    meta = json.loads(mark.read_text()) if mark.exists() else {}
    setup_end = meta.get("setup_end")
    if code != 0:
        problems.append(f"exit code {code}: "
                        f"{(sample_dir / 'stderr').read_text(errors='replace').strip()[-300:]}")
    elif setup_end is None and not traced:
        problems.append("the command never reached an event run")
    missing = [name for name in wl.outputs if not (out_dir / name).is_file()]
    if code == 0 and missing:
        problems.append(f"missing outputs {missing}")
    failed = wl.events if problems else 0
    if not problems and (out_dir / "report.json").is_file():
        report = json.loads((out_dir / "report.json").read_text())
        if report["n_total"] != wl.events:
            problems.append(f"report scores {report['n_total']} events, expected {wl.events}")
            failed = wl.events
        elif report["run_errors"]:
            problems.append(f"{len(report['run_errors'])} event runs failed, e.g. "
                            f"{next(iter(report['run_errors'].values()))}")
            failed = len(report["run_errors"])
    sample = Sample(traced=traced, wall_s=t_end - t_start,
                    setup_s=None if setup_end is None else setup_end - t_start,
                    peak_rss_kib=meta.get("self_hwm_kib", 0) + sum(peaks.peaks.values()),
                    failed=failed, problems=problems,
                    digests={name: _sha256(out_dir / name) for name in wl.outputs
                             if (out_dir / name).is_file()},
                    scores=paper_scores(out_dir) if not problems else {})
    if traced and code == 0:
        import layers
        sample.layers = layers.layer_metrics(layers.Spans.load(str(trace_dir)), wl.workers)
        if sample.layers["simcore.run_simulation.calls"] != wl.events:
            sample.problems.append(
                f"traced {sample.layers['simcore.run_simulation.calls']} engine runs of "
                f"{wl.events}: spans from pool workers are missing")
            sample.failed = wl.events
    shutil.rmtree(sample_dir)
    return sample


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


@dataclass
class Result:
    workload: Workload
    samples: list[Sample]
    metrics: dict[str, float]
    speed: float                      # REFERENCE_S / median reference_s() of the run

    @property
    def attempted(self) -> int:
        return self.workload.events * len(self.samples)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.samples)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted

    @property
    def problems(self) -> list[str]:
        return [p for s in self.samples for p in s.problems]


def _check_bytes(samples: list[Sample], wl: Workload, pinned: dict[str, str] | None) -> None:
    """Fail every sample whose outputs differ from the reference bytes."""
    usable = [s for s in samples if not s.problems]
    if not usable:
        return
    reference = pinned if pinned is not None else usable[0].digests
    for s in usable:
        wrong = sorted(name for name in wl.outputs if s.digests.get(name) != reference.get(name))
        if wrong:
            kind = "traced" if s.traced else "untraced"
            against = "the pinned digest" if pinned is not None else "the run's first sample"
            s.problems.append(f"{kind} sample wrote {wrong} unlike {against}")
            s.failed = wl.events


def end_to_end(wl: Workload, samples: list[Sample], scale: float) -> dict[str, float]:
    """Medians over the untraced samples; times scaled to nominal machine speed."""
    timed = [s for s in samples if not s.traced and s.setup_s is not None]
    if not timed:
        raise RuntimeError(f"{wl.name}: no sample reached an event run: "
                           f"{[p for s in samples for p in s.problems][:3]}")
    device_s = wl.events * wl.devices * wl.duration_s
    wall = [s.wall_s * scale for s in timed]
    setup = [s.setup_s * scale for s in timed]
    return {
        "wall_s": median(wall),
        "setup_s": median(setup),
        "events_per_s": median(wl.events / w for w in wall),
        "device_s_per_s": median(device_s / (w - u) for w, u in zip(wall, setup)),
        "peak_rss_mb": median(s.peak_rss_kib / 1024.0 for s in timed),
    }


def per_layer(samples: list[Sample], scale: float) -> dict[str, float]:
    """Medians over the traced samples, as measured, and the scaled tracing overhead."""
    traced = [s for s in samples if s.traced and s.layers]
    if not traced:
        raise RuntimeError(f"no traced sample completed: {[p for s in samples for p in s.problems][:3]}")
    out = {key: median(s.layers[key] for s in traced) for key in traced[0].layers}
    out["trace.overhead_s"] = scale * (median(s.wall_s for s in traced)
                                       - median(s.wall_s for s in samples if not s.traced))
    return out


def measure(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> Result:
    """Repeat the workload for about ``seconds`` and check every sample's outputs.

    Without tracing, samples repeat until the next one would end past
    ``seconds`` (at least MIN_SAMPLES).  With tracing, each step is an
    untraced and a traced sample of the same command.
    """
    start = time.monotonic()
    samples: list[Sample] = []
    references = reference_s()
    while True:
        step_start = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            left = start + KILL_AFTER_S - time.monotonic()
            samples.append(run_sample(wl, seed, work, traced, timeout_s=max(left, 1.0)))
            references += reference_s()
        now = time.monotonic()
        steps = len(samples) // (2 if trace else 1)
        if steps >= (1 if trace else MIN_SAMPLES) and now + (now - step_start) > start + seconds:
            break
        if now > start + RUN_LIMIT_S:
            break
    _check_bytes(samples, wl, PINNED.get(wl.name) if seed == DEFAULT_SEED else None)
    speed = REFERENCE_S / median(references)
    scale = speed ** SCALE_POWER
    metrics = per_layer(samples, scale) if trace else end_to_end(wl, samples, scale)
    return Result(wl, samples, metrics, speed)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def facts(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "seed": seed, "loadavg": list(os.getloadavg())}


def _print_table(result: Result, spec: dict[str, dict], seed: int, trace: bool) -> None:
    wl = result.workload
    kinds = [("traced" if s.traced else "untraced") for s in result.samples]
    print(f"workload {wl.name}: seed {seed}, trace {int(trace)}, "
          f"{kinds.count('untraced')} untraced and {kinds.count('traced')} traced samples")
    for name, value in result.metrics.items():
        print(f"  {name:<48} {value:>14.6g} {spec[name]['unit']}")
    untraced = [s for s in result.samples if not s.traced]
    print(f"  measured: median wall_s {median(s.wall_s for s in untraced):.6g}, "
          f"median setup_s {median(s.setup_s or 0.0 for s in untraced):.6g}, "
          f"machine speed {result.speed:.4f} of nominal, "
          f"times scaled by {result.speed ** SCALE_POWER:.4f}")
    print(f"  {'failed_frac':<48} {result.failed_frac:>14.6g} "
          f"({result.failed} of {result.attempted} event runs)")
    scores = [s.scores for s in result.samples if s.scores]
    repeat = "the same in every sample" if all(x == scores[0] for x in scores) else "DIFFERS"
    for name, value in (scores[0] if scores else {}).items():
        print(f"  {name:<48} {value!s:>14} score, {repeat}")
    for problem in dict.fromkeys(result.problems):
        print(f"  problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the running sample's process group is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "nanoflow" / "cli.py").is_file():
        print(f"error: no nanoflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    listed = config["per_layer"] if args.trace else config["end_to_end"]
    spec = {m["name"]: m for m in listed}

    # Build once, so that no sample pays for compiling the sources.
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("error: nanoflow sources do not compile", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        results = [measure(WORKLOADS[n], args.seed, seconds, bool(args.trace), work)
                   for n in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:   # another run is still using it
            pass

    metrics = {}
    for result in results:
        missing = sorted(set(spec) - set(result.metrics))
        if missing:
            raise RuntimeError(f"{result.workload.name}: no value for {missing}")
        result.metrics = {name: result.metrics[name] for name in spec}
        _print_table(result, spec, args.seed, bool(args.trace))
        prefix = f"{result.workload.name}." if len(results) > 1 else ""
        metrics.update({f"{prefix}{name}": {"value": value, "unit": spec[name]["unit"]}
                        for name, value in result.metrics.items()})
    print("facts " + json.dumps(facts(args.seed)))
    print(json.dumps({"correct": all(not r.problems for r in results),
                      "attempted": sum(r.attempted for r in results),
                      "failed": sum(r.failed for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
