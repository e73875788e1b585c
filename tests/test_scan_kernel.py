"""The compiled scan (_scan.c) against the Python scan, and its loader.

run_simulation scans every device of a run in one call into _scan.c, which
simcore builds with the system cc on first use into a per-user cache.  The
Python scan runs where there is no compiler or the build or load fails,
and it scans again any device the kernel flags (a harvest past a charge
grid cut short at _GRID_LIMIT).  Both must give the same bytes for records,
energy rows and consumption; test_scan_python.py runs the engine tests on
the Python scan too."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nanoflow import energy, simcore  # noqa: E402
from nanoflow.energy import EnergyConfig  # noqa: E402
from nanoflow.simcore import Anchor, SimPlan, _sense_hits, run_simulation  # noqa: E402
from nanoflow.vasculature import simulate_mobility, upsample_trace  # noqa: E402
from test_scan_reference import (GRAPH, POSITIONS, _beacon_times, _bits, _shifted,  # noqa: E402
                                 cases)

ROOT = Path(__file__).resolve().parents[1]
CC = shutil.which("cc")
needs_cc = pytest.mark.skipif(CC is None, reason="no C compiler on PATH")


def _both(traces, plan, target, energy_rows):
    """_bits of a run on the compiled scan (where it loads) and on the Python scan."""
    compiled = _bits(run_simulation(GRAPH, traces, plan, target, energy_rows=energy_rows))
    with mock.patch.object(simcore, "_scan_kernel", lambda: None):
        python = _bits(run_simulation(GRAPH, traces, plan, target, energy_rows=energy_rows))
    return compiled, python


@needs_cc
def test_the_kernel_loads_where_there_is_a_compiler():
    # a build that fails must not pass as a slower run on the Python scan
    assert simcore._scan_kernel() is not None


@needs_cc
def test_scan_c_compiles_without_warnings(tmp_path):
    subprocess.run([CC, "-std=c99", "-Wall", "-Wextra", "-Werror", "-ffp-contract=off", "-O2",
                    "-c", simcore._SCAN_C, "-o", str(tmp_path / "scan.o")],
                   check=True, capture_output=True, timeout=120)


@settings(max_examples=40, deadline=None)
@given(cases(), st.booleans(), st.sampled_from([None, 30, 400]))
def test_compiled_and_python_scans_give_the_same_bytes(case, energy_rows, grid_limit):
    # cases draws rx costs > 0, e_turn_off > 0, free sensing, ticks shifted
    # off the samples and targets on the devices' paths; a 30- or 400-entry
    # grid sends devices back to the Python scan
    plan, traces, target = case
    limit = energy._GRID_LIMIT if grid_limit is None else grid_limit
    with mock.patch.object(energy, "_GRID_LIMIT", limit):
        compiled, python = _both(traces, plan, target, energy_rows)
    assert compiled == python


def _seam_case(shift):
    # beacons at whole seconds (k * 0.1 s) and so at tick times, a target at
    # the position of a tick where a device decodes a beacon, and with a
    # shift, ticks off the whole seconds, so samples harvest on their own
    traces = _shifted([upsample_trace(tr, 3, 0.2, tr.device_id)
                       for tr in simulate_mobility(GRAPH, 10, 200.0, seed=5)], shift)
    anchors = [Anchor(0, POSITIONS[0], 0.1), Anchor(1, POSITIONS[1], 0.07)]
    plan = SimPlan(duration_s=199.0, detection_radius_cm=3.0, anchors=anchors)
    times = _beacon_times(traces, plan)
    device = max(range(len(traces)), key=lambda d: len(times[d]))
    tick = np.searchsorted(traces[device].times, times[device][len(times[device]) // 2])
    return traces, plan, tuple(traces[device].positions[tick])


@pytest.mark.parametrize("energy_cfg", [
    EnergyConfig(e_max=100e-12, e_turn_on=20e-12, e_turn_off=5e-12, cost_rx_pulse=0.5e-12,
                 cost_sense=2e-12),
    EnergyConfig(e_max=100e-12, e_turn_on=5e-12, e_turn_off=2.5e-12, cost_rx_pulse=1e-12,
                 cost_sense=0.0),
], ids=["paid", "free-sensing"])
@pytest.mark.parametrize("shift", [0.0, 0.21])
@pytest.mark.parametrize("grid_limit", [None, 40])
def test_the_scans_agree_at_the_seams(energy_cfg, shift, grid_limit):
    traces, plan, target = _seam_case(shift)
    plan = replace(plan, energy_cfg=energy_cfg)
    on_tick = [t for d, ts in enumerate(_beacon_times(traces, plan)) for t in ts
               if t in traces[d].times]
    hits = sum(_sense_hits(tr.positions, np.asarray(target), 3.0).sum() for tr in traces)
    assert (len(on_tick) >= 5 or shift) and hits > 0
    limit = energy._GRID_LIMIT if grid_limit is None else grid_limit
    with mock.patch.object(energy, "_GRID_LIMIT", limit), \
            mock.patch.object(simcore, "charge_tables", wraps=energy.charge_tables) as python:
        for rows in (True, False):
            compiled = _bits(run_simulation(GRAPH, traces, plan, target, energy_rows=rows))
            rescanned = python.call_count
            with mock.patch.object(simcore, "_scan_kernel", lambda: None):
                assert _bits(run_simulation(GRAPH, traces, plan, target,
                                            energy_rows=rows)) == compiled
            # a grid cut short sends devices back to the Python scan; a whole one never
            assert CC is None or (rescanned > 0) == (grid_limit is not None)
            python.reset_mock()
    assert any(bit for *_, bit in compiled[0]) and compiled[2]


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty per-user cache, and a loader that has loaded nothing, again after."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    simcore._scan_kernel.cache_clear()
    yield tmp_path / "cache" / "nanoflow"
    simcore._scan_kernel.cache_clear()


def _small_run():
    traces = [upsample_trace(tr, 3, 0.2, tr.device_id)
              for tr in simulate_mobility(GRAPH, 3, 40.0, seed=11)]
    plan = SimPlan(duration_s=39.0, anchors=[Anchor(0, POSITIONS[0], 0.05)],
                   energy_cfg=EnergyConfig(e_max=100e-12, e_turn_on=5e-12, cost_rx_pulse=1e-12))
    return traces, plan, tuple(traces[0].positions[30])


def test_without_a_compiler_the_python_scan_gives_the_same_bytes(fresh_cache, monkeypatch,
                                                                  tmp_path):
    traces, plan, target = _small_run()
    with mock.patch.object(simcore, "_scan_kernel", lambda: None):
        want = _bits(run_simulation(GRAPH, traces, plan, target))
    (tmp_path / "empty").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    assert simcore._scan_kernel() is None
    assert _bits(run_simulation(GRAPH, traces, plan, target)) == want
    assert not list(fresh_cache.iterdir())   # no library, and no part of one, is left


@needs_cc
def test_a_truncated_cached_library_is_built_again(fresh_cache, monkeypatch, tmp_path):
    traces, plan, target = _small_run()
    assert simcore._scan_kernel() is not None
    built = next(fresh_cache.glob("*.so"))
    want = _bits(run_simulation(GRAPH, traces, plan, target))
    # the same name in another cache, cut short: it does not load, is built
    # again, and never raises; where the build fails as well, the Python
    # scan runs.  (A library is only ever replaced by a rename: writing over
    # one that a process has loaded would pull the code from under it.)
    for cache, path in (("cut", os.environ["PATH"]), ("cut-no-cc", str(tmp_path))):
        copy = tmp_path / cache / "nanoflow" / built.name
        copy.parent.mkdir(parents=True)
        copy.write_bytes(built.read_bytes()[:300])
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / cache))
        monkeypatch.setenv("PATH", path)
        simcore._scan_kernel.cache_clear()
        assert (simcore._scan_kernel() is not None) == (cache == "cut")
        assert (copy.read_bytes() == built.read_bytes()) == (cache == "cut")
        assert _bits(run_simulation(GRAPH, traces, plan, target)) == want


COLD_POOL = """
import hashlib, os, sys
from nanoflow import simcore
from nanoflow.benchmark import dense_locations, run_events, sample_locations
from nanoflow.simcore import SimPlan
from nanoflow.vasculature import build_reference_vasculature

load = simcore._scan_kernel
def logged():
    kernel = load()
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()} {kernel is not None}\\n")
    return kernel
simcore._scan_kernel = logged
graph = build_reference_vasculature()
events = sample_locations(dense_locations(graph), "srs", 16, seed=3)
per_time, consumed, errors = run_events(graph, events, SimPlan(device_count=4, duration_s=30.0),
                                        workers=int(sys.argv[2]), seed=5)
assert not errors
bits = ([(e.event_id, e.estimated_region, None if e.point is None else e.point.tobytes())
         for e in per_time[30.0]], [pj.hex() for pj in consumed])
print(hashlib.sha256(repr(bits).encode()).hexdigest())
"""


@needs_cc
def test_pool_workers_on_a_cold_cache_each_load_the_kernel(tmp_path):
    def run(workers, cache):
        log = tmp_path / f"log-{workers}-{cache}"
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / cache),
               "PYTHONPATH": str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run([sys.executable, "-c", COLD_POOL, str(log), str(workers)], env=env,
                             check=True, capture_output=True, text=True, timeout=300)
        return out.stdout.strip(), [line.split() for line in log.read_text().splitlines()]

    digest, loads = run(2, "cold")
    assert {loaded for _, loaded in loads} == {"True"} and len({pid for pid, _ in loads}) == 2
    assert [p.name.endswith(".so") for p in (tmp_path / "cold" / "nanoflow").iterdir()] == [True]
    assert run(1, "cold")[0] == digest


def test_importing_the_cli_loads_no_kernel():
    code = ("import json, sys, nanoflow.cli, nanoflow.simcore as s; print(json.dumps("
            "['subprocess' in sys.modules, s._scan_kernel.cache_info().currsize]))")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert json.loads(out.stdout) == [False, 0]
