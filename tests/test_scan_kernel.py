"""The compiled library (_scan.c) against the Python loops, and its loader.

run_simulation scans every device of a run in one nf_scan call,
simulate_mobility walks every device in one nf_walk call, and
upsample_traces upsamples each pass of traces in one nf_upsample call,
into the library simcore builds with the system cc on first use into a
per-user cache.  The Python loops and numpy passes run where there is no
compiler or the build or load fails, and the Python scan, nf_scan's loop
on the inputs nf_scan reads, also scans again any device the kernel flags
(a harvest past a charge grid cut short at _GRID_LIMIT).  Both paths must
give the same bytes: for records, energy rows and consumption, and for
every array of every trace; test_scan_python.py runs the engine, mobility
and upsampling tests on the Python paths too.  decode_beacons lists each
anchor's beacon instants in one nf_instants call and maps math.log10,
dbm_to_mw and math.expm1 in nf_map calls; the tests here check nf_map's
raise flag value by value and nf_instants' buffer bound, and
test_scan_reference.py compares both with their Python loops."""

import ctypes
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nanoflow import energy, simcore, vasculature  # noqa: E402
from nanoflow.energy import EnergyConfig  # noqa: E402
from nanoflow.simcore import Anchor, SimPlan, _sense_hits, run_simulation  # noqa: E402
from nanoflow.vasculature import (MobilityTrace, RegionType, Vessel, VesselGraph,  # noqa: E402
                                  simulate_mobility, upsample_trace, upsample_traces)
from nanoflow import channel as ch  # noqa: E402
from test_scan_reference import (GRAPH, MAP_EDGES, POSITIONS, _beacon_times, _bits,  # noqa: E402
                                 _listed_instants, _map_or_error, _shifted, cases)

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


def _trace_bits(traces):
    """Every array of every trace, with its dtype and shape, as bytes."""
    return [(tr.device_id, *[(a.dtype.str, a.shape, a.tobytes()) for a in (
        tr.times, tr.positions, tr.vessel_ids, tr.visit_times, tr.visit_vessels)])
            for tr in traces]


def _walks(graph, device_count, duration_s, seed):
    """_trace_bits of a walk on the compiled library (where it loads) and in Python."""
    compiled = _trace_bits(simulate_mobility(graph, device_count, duration_s, seed))
    with mock.patch.object(simcore, "_scan_kernel", lambda: None):
        python = _trace_bits(simulate_mobility(graph, device_count, duration_s, seed))
    return compiled, python


_SPEEDS = {RegionType.ARTERIAL: st.sampled_from([10.0, 20.0]),
           RegionType.VENOUS: st.floats(2.0, 4.0), RegionType.TRANSITION: st.just(1.0)}


@st.composite
def walk_graphs(draw):
    """A valid graph of 2-16 vessels, many far shorter than a 1 s step, with
    fan-outs of 1-12 and rows that are not the ids' order.  A ring through
    the heart keeps every vessel on a heart loop."""
    size = draw(st.integers(2, 16))
    ids = draw(st.permutations(range(0, 7 * size, 7)))   # ids[i]: the i-th vessel on the ring
    vessels = []
    for i, vid in enumerate(ids):
        region = draw(st.sampled_from(list(RegionType)))
        # and lengths some speeds cross in whole or quarter seconds, so a
        # vessel's end can fall on a sample
        length = draw(st.one_of(st.floats(0.01, 0.3), st.floats(0.3, 4.0),
                                st.sampled_from([0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 20.0])))
        extra = draw(st.lists(st.sampled_from(ids), max_size=11))
        vessels.append(Vessel(vid, np.array([i, 0.0, 0.0]), np.array([i, length, 0.0]), region,
                              draw(_SPEEDS[region]), [ids[(i + 1) % size], *extra], i == 0))
    order = draw(st.permutations(range(size)))
    return VesselGraph([vessels[i] for i in order], heart_id=ids[0])


@settings(max_examples=60, deadline=None)
@given(walk_graphs(), st.integers(0, 5),
       st.one_of(st.sampled_from([0.0, 0.4, 0.6, 2.5]), st.floats(0.0, 9.0)),
       st.integers(0, 2**32))
def test_compiled_and_python_walks_give_the_same_bytes(graph, device_count, duration, seed):
    compiled, python = _walks(graph, device_count, duration, seed)
    assert compiled == python and len(compiled) == device_count


def test_the_walks_agree_on_the_reference_graph_at_paper_scale():
    compiled, python = _walks(GRAPH, 64, 1000.0, 2024)
    assert compiled == python


def test_the_walks_agree_where_vessels_end_on_the_samples():
    # crossing times of 1, 0.5 and 0.25 s: a step's time runs out exactly at a vessel's end
    ends = {0: (1.0, [1, 2]), 1: (0.5, [3]), 2: (0.25, [3]), 3: (0.25, [0])}
    graph = VesselGraph([Vessel(i, np.array([i, 0.0, 0.0]), np.array([i, length, 0.0]),
                                RegionType.TRANSITION, 1.0, succ, i == 0)
                         for i, (length, succ) in ends.items()], heart_id=0)
    compiled, python = _walks(graph, 3, 30.0, 4)
    assert compiled == python
    first = simulate_mobility(graph, 1, 1.0, 4)[0]   # at 1 s the heart is left behind, at arc 0
    assert first.vessel_ids.tolist()[1] != 0 and first.visit_times.tolist() == [0.0, 1.0]


def _tiny_ring(fan_out):
    # 0.05 cm arteries at 20 cm/s: 400 vessels a second, far more visits than samples
    ids = range(fan_out + 1)
    return VesselGraph([Vessel(i, np.array([i, 0.0, 0.0]), np.array([i, 0.05, 0.0]),
                               RegionType.ARTERIAL, 20.0, [*ids[1:]] if i == 0 else [0], i == 0)
                        for i in ids], heart_id=0)


@needs_cc
def test_a_walk_that_fills_its_visit_buffers_is_walked_again_the_same():
    lib, caps = simcore._scan_kernel(), []

    def nf_walk(*args):
        caps.append(args[-1])
        return lib.nf_walk(*args)

    graph = _tiny_ring(5)
    with mock.patch.object(simcore, "_scan_kernel", lambda: SimpleNamespace(nf_walk=nf_walk)):
        compiled, python = _walks(graph, 3, 20.0, 8)
    assert len(caps) == 2 and caps[0] == 3 * 21 and caps[1] > caps[0]
    assert compiled == python and sum(tr[4][1][0] for tr in compiled) == caps[1]


def _lemire(draws, k):
    """numpy's buffered_bounded_lemire_uint32 for Generator.integers(k), on
    the uint32 draws: (the integer, the draws it took)."""
    m, used = next(draws) * k, 1
    if m % 2**32 < k:
        while m % 2**32 < (2**32 - 1 - (k - 1)) % k:
            m, used = next(draws) * k, used + 1
    return m >> 32, used


def test_lemire_is_numpys_draw_for_integers():
    stream, mirror = np.random.default_rng(77), np.random.default_rng(77)
    bits = stream.bit_generator.ctypes
    draws = iter(lambda: bits.next_uint32(bits.state), None)
    for k in [2, 3, 5, 7, 12] * 40:
        assert _lemire(draws, k)[0] == mirror.integers(k)


@needs_cc
@pytest.mark.parametrize("draws", [[0, 2**32 - 1], [0, 0, 0x80000000], [0x55555556],
                                   [2**32 - 1], [0x40000000]])
def test_the_compiled_walk_redraws_a_biased_draw_as_lemire_does(draws):
    # k = 3: (2^32 - 3) % 3 is 1, so a first draw whose m = x * 3 leaves a
    # low word of 0 is refused; 0x55555556 leaves 2, below k but not refused
    graph = VesselGraph([Vessel(0, np.zeros(3), np.array([0.0, 0.0, 1.0]), RegionType.ARTERIAL,
                                20.0, [1, 2, 3], True)]
                        + [Vessel(i, np.zeros(3), np.array([0.0, 9.0, 0.0]),
                                  RegionType.TRANSITION, 1.0, [0]) for i in (1, 2, 3)],
                       heart_id=0)
    given_draws = iter(draws)
    pick, used = _lemire(iter(draws), 3)
    taken = []

    @ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
    def next_uint32(_state):
        taken.append(next(given_draws))
        return taken[-1]

    lengths, speeds, succ_at, succ_rows, heart = graph._walk_arrays
    rows, arcs, visit_at = np.empty(2, np.int64), np.empty(2), np.empty(2, np.int64)
    visit_t, visit_r = np.empty(4), np.empty(4, np.int64)
    visits = simcore._scan_kernel().nf_walk(
        lengths.ctypes.data, speeds.ctypes.data, succ_at.ctypes.data, succ_rows.ctypes.data,
        heart, 1, 2, next_uint32, None, rows.ctypes.data, arcs.ctypes.data, visit_at.ctypes.data,
        visit_t.ctypes.data, visit_r.ctypes.data, 4)
    assert visits == 2 and taken == draws[:used] and rows.tolist() == [0, 1 + pick]


def _upsamples(traces, factor, sigma_cm, seeds, rows):
    """_trace_bits of upsample_traces on the compiled library (where it
    loads) and in numpy, in passes of `rows` input samples."""
    with mock.patch.object(vasculature, "_UPSAMPLE_ROWS", rows):
        compiled = _trace_bits(upsample_traces(traces, factor, sigma_cm, seeds))
        with mock.patch.object(simcore, "_scan_kernel", lambda: None):
            python = _trace_bits(upsample_traces(traces, factor, sigma_cm, seeds))
    return compiled, python


@st.composite
def upsample_batches(draw):
    """1-9 traces of one length (1, 2 or up to 40 samples), their
    coordinates spread over many magnitudes, some of them -0.0 or 0.0,
    and their seeds."""
    count, m = draw(st.integers(1, 9)), draw(st.one_of(st.sampled_from([1, 2]),
                                                       st.integers(3, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    step, start = draw(st.sampled_from([1.0, 0.5, 1 / 3])), draw(st.floats(-5.0, 1e4))
    traces = []
    for dev in range(count):
        positions = rng.normal(0.0, 10.0, (m, 3)) * 10.0 ** rng.integers(-8, 8, (m, 3))
        positions[rng.random((m, 3)) < 0.2] = -0.0
        positions[rng.random((m, 3)) < 0.1] = 0.0
        traces.append(MobilityTrace(dev, start + step * np.arange(m), positions,
                                    rng.integers(0, 94, m), np.array([0.0]), np.array([5])))
    return traces, [int(s) for s in rng.integers(0, 2**63, count)]


@settings(max_examples=80, deadline=None)
@given(upsample_batches(), st.integers(1, 6), st.sampled_from([0.0, 1e-300, 0.2, 1e3]),
       st.sampled_from([1, 7, 50, 1 << 12]))
def test_compiled_and_numpy_upsampling_give_the_same_bytes(batch, factor, sigma_cm, rows):
    # rows 1, 7 and 50 cut a batch into passes of one or a few traces
    traces, seeds = batch
    compiled, python = _upsamples(traces, factor, sigma_cm, seeds, rows)
    assert compiled == python and len(compiled) == len(traces)


def test_the_upsamplings_agree_at_paper_scale():
    traces = simulate_mobility(GRAPH, 64, 1000.0, 2024)
    compiled, python = _upsamples(traces, 3, 0.2, list(range(64)), 1 << 12)
    assert compiled == python


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**63), st.one_of(st.sampled_from([1e-300, 0.2, 1e3]),
                                        st.floats(1e-300, 1e300)),
       st.sampled_from([(0, 2, 3), (1, 1, 3), (17, 5, 3)]))
def test_normal_is_zero_plus_sigma_times_a_standard_normal(seed, sigma_cm, shape):
    # what nf_upsample relies on: Generator.normal(0.0, sigma) is
    # 0.0 + sigma * z on the same stream's standard normals, bit for bit
    want = np.random.default_rng(seed).normal(0.0, sigma_cm, shape)
    z = np.empty(shape)
    np.random.default_rng(seed).standard_normal(out=z)
    assert (0.0 + sigma_cm * z).tobytes() == want.tobytes()


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
    path = os.environ["PATH"]
    (tmp_path / "empty").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    assert simcore._scan_kernel() is None
    traces, plan, target = _small_run()   # walked with no library, so in Python
    with mock.patch.object(simcore, "_scan_kernel", lambda: None):
        want = _bits(run_simulation(GRAPH, traces, plan, target))
    assert _bits(run_simulation(GRAPH, traces, plan, target)) == want
    assert not list(fresh_cache.iterdir())   # no library, and no part of one, is left
    # with the compiler back, the walk (on the library where cc builds it) is the same
    monkeypatch.setenv("PATH", path)
    simcore._scan_kernel.cache_clear()
    assert _trace_bits(_small_run()[0]) == _trace_bits(traces)


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


def _loads_after(steps):
    """[subprocess imported, libraries the loader holds] after the steps, in
    a fresh interpreter."""
    code = (f"{steps}; import json, sys, nanoflow.simcore as s; print(json.dumps("
            "['subprocess' in sys.modules, s._scan_kernel.cache_info().currsize]))")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return json.loads(out.stdout)


def test_importing_the_cli_loads_no_kernel():
    assert _loads_after("import nanoflow.cli") == [False, 0]


def test_building_the_graph_loads_no_kernel():
    # the library loads at the first walk or run, never at import or a graph's build
    assert _loads_after("import nanoflow.vasculature as v; "
                        "v.build_reference_vasculature()") == [False, 0]


WRONG_BEACON_COUNTS = """
import json
from unittest import mock
from nanoflow import simcore
from nanoflow.errors import ConfigMismatch
from nanoflow.simcore import Anchor, SimPlan, decode_beacons, run_simulation
from nanoflow.vasculature import build_reference_vasculature, simulate_mobility, upsample_trace

graph = build_reference_vasculature()
traces = [upsample_trace(tr, 3, 0.2, tr.device_id)
          for tr in simulate_mobility(graph, 5, 40.0, seed=11)]
plan = SimPlan(duration_s=39.0, anchors=[Anchor(0, (0.8, 0.0, 0.0), 0.05)])
decoded = decode_beacons(graph, traces, plan)   # the fifth trace's list makes the long one
out = {"kernel": simcore._scan_kernel() is not None, "decoded": sum(map(len, decoded[:4]))}
with mock.patch.object(simcore, "_compiled_scan", wraps=simcore._compiled_scan) as call:
    for path, kernel in (("compiled", simcore._scan_kernel), ("python", lambda: None)):
        with mock.patch.object(simcore, "_scan_kernel", kernel):
            for beacons in (decoded[:3], decoded):
                try:
                    run_simulation(graph, traces[:4], plan, beacons=beacons)
                    out[f"{path} {len(beacons)}"] = None
                except ConfigMismatch as exc:
                    out[f"{path} {len(beacons)}"] = str(exc)
    out["calls"] = call.call_count
print(json.dumps(out))
"""


def test_a_beacons_list_of_the_wrong_length_is_refused_before_any_scan():
    # a list shorter or longer than the traces once sent nf_scan past its
    # buffers (a crash, hence a process of its own), and the Python scan to an
    # IndexError or to beacons of the wrong devices
    out = subprocess.run([sys.executable, "-c", WRONG_BEACON_COUNTS], check=True, text=True,
                         capture_output=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    got = json.loads(out.stdout)
    assert got.pop("kernel") == (CC is not None) and got.pop("decoded") > 0
    assert got.pop("calls") == 0   # nothing reached the compiled scan
    assert got == {f"{path} {n}": f"beacons: {n} lists for 4 traces"
                   for path in ("compiled", "python") for n in (3, 5)}


MALFORMED_BEACONS = """
import json
from unittest import mock
import numpy as np
from nanoflow import simcore
from nanoflow.errors import ConfigMismatch
from nanoflow.simcore import BEACON, Anchor, SimPlan, decode_beacons, run_simulation
from nanoflow.vasculature import build_reference_vasculature, simulate_mobility, upsample_trace

graph = build_reference_vasculature()
traces = [upsample_trace(tr, 3, 0.2, tr.device_id)
          for tr in simulate_mobility(graph, 4, 40.0, seed=11)]
plan = SimPlan(duration_s=39.0, anchors=[Anchor(0, (0.8, 0.0, 0.0), 0.05)])
decoded = decode_beacons(graph, traces, plan)
third = decoded[2]
malformed = {
    "tuples": [tuple(row.tolist()) for row in third],   # the 8-tuples of old
    "times": third["t"],
    "unaligned": third.astype(np.dtype([(name, BEACON.fields[name][0])
                                        for name in BEACON.names])),
    "column": third.reshape(-1, 1),
}
out = {"kernel": simcore._scan_kernel() is not None, "decoded": len(third)}
with mock.patch.object(simcore, "_compiled_scan", wraps=simcore._compiled_scan) as call, \\
        mock.patch.object(simcore, "_tick_grids", wraps=simcore._tick_grids) as grids:
    for path, kernel in (("compiled", simcore._scan_kernel), ("python", lambda: None)):
        with mock.patch.object(simcore, "_scan_kernel", kernel):
            for name, entry in malformed.items():
                try:
                    run_simulation(graph, traces, plan, beacons=[*decoded[:2], entry, decoded[3]])
                    out[f"{path} {name}"] = None
                except ConfigMismatch as exc:
                    out[f"{path} {name}"] = str(exc)
    out["calls"] = call.call_count + grids.call_count
print(json.dumps(out))
"""


def test_beacons_that_are_not_beacon_arrays_are_refused_before_any_scan():
    # run_simulation packs each entry's bytes as BEACON rows for nf_scan: a
    # list of 8-tuples, a bare column, another dtype or a 2-D array would
    # send it counts and times of no beacon (a crash, hence a process of its own)
    out = subprocess.run([sys.executable, "-c", MALFORMED_BEACONS], check=True, text=True,
                         capture_output=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    got = json.loads(out.stdout)
    assert got.pop("kernel") == (CC is not None) and got.pop("decoded") > 0
    assert got.pop("calls") == 0   # no tick grid was built and nothing reached the kernel
    assert got == {f"{path} {name}": "beacons: entry 2 is not a BEACON array"
                   for path in ("compiled", "python")
                   for name in ("tuples", "times", "unaligned", "column")}


@needs_cc
@pytest.mark.parametrize("f", [math.log10, ch.dbm_to_mw, math.expm1])
def test_nf_map_flags_exactly_the_values_the_python_map_raises_for(f):
    # each value alone: nf_map's flag says whether the Python map raises,
    # and its value is the Python map's, NaN bits included
    lib = simcore._scan_kernel()
    values = MAP_EDGES + np.random.default_rng(5).uniform(-4000.0, 4000.0, 300).tolist()
    flags = []
    for value in values:
        x, out = np.array([value]), np.empty(1)
        flags.append(lib.nf_map(simcore._MAP_KINDS[f], 1, x.ctypes.data, out.ctypes.data))
        want, error = _map_or_error(f, [value])
        assert bool(flags[-1]) == (error is not None), value
        assert error is not None or out.tobytes() == want.tobytes(), value
    assert 0 < sum(flags) < len(values)


@needs_cc
def test_nf_instants_writes_no_more_than_its_buffer_holds():
    lib = simcore._scan_kernel()
    dev = np.array([0, 0, 1], np.int64)
    t0, t1 = np.array([0.05, 0.3, 0.0]), np.array([0.45, 0.95, 0.6])
    want_dev, want_t = _listed_instants(dev.tolist(), t0.tolist(), t1.tolist(), 0.1, 1.0 + 1e-9)
    out_dev, out_t = np.full(40, -7, np.int64), np.full(40, -7.0)
    for cap in (0, 3, 40):
        n = lib.nf_instants(3, dev.ctypes.data, t0.ctypes.data, t1.ctypes.data, 0.1, 1.0 + 1e-9,
                            cap, out_dev.ctypes.data, out_t.ctypes.data)
        assert n == len(want_dev) == 16   # 0.3 and 0.4 once: k carries over
        written = min(cap, n)
        assert out_dev[:written].tolist() == want_dev[:written] and (out_dev[written:] == -7).all()
        assert out_t[:written].tolist() == want_t[:written] and (out_t[written:] == -7.0).all()


@needs_cc
def test_instants_past_a_short_first_buffer_are_listed_again():
    # intervals below 2 * _T_EPS hold more instants than simcore's first
    # buffer; nf_instants reports the count and is called again at that size
    lib, caps = simcore._scan_kernel(), []

    def nf_instants(*args):
        caps.append(args[6])
        return lib.nf_instants(*args)

    dev, t0, t1 = [0, 1], [1e-8, 2e-8], [1.1e-8, 2e-8]
    kernel = SimpleNamespace(nf_instants=nf_instants)
    with mock.patch.object(simcore, "_scan_kernel", lambda: kernel):
        got_dev, got_t = simcore._instants(np.array(dev, np.int64), np.array(t0), np.array(t1),
                                           4e-10, 1.0)
    want_dev, want_t = _listed_instants(dev, t0, t1, 4e-10, 1.0)
    assert got_dev.tolist() == want_dev and [t.hex() for t in got_t.tolist()] == [
        t.hex() for t in want_t]
    assert len(caps) == 2 and caps[1] == len(want_dev) > caps[0]
