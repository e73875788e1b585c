"""Metrics, baseline localizer, sampling strategies and harness."""

import json
import math

import numpy as np
import pytest

from nanoflow import benchmark, vasculature
from nanoflow.benchmark import (MetricsReport, RegionEstimate, SimPlan,
                                TargetEvent, baseline_localize,
                                convergence_curve, dense_locations,
                                export_events_csv, load_estimates_csv,
                                point_error, region_accuracy, reliability,
                                run_benchmark, run_events, sample_locations,
                                score_external)
from nanoflow.errors import (ConfigMismatch, EventRunsFailed, ExternalDataError,
                             MismatchedSets, NoEstimate, SampleTooLarge)
from nanoflow.simcore import RECORD, SimResult, _ROW
from nanoflow.vasculature import (build_reference_vasculature, locate_vessel, simulate_mobility,
                                  upsample_trace, vessel_centroid)

GRAPH = build_reference_vasculature()
DENSE = dense_locations(GRAPH, 1368)


def _records(*rows):
    """A RECORD recarray of (report_time_s, device_mac, circulation_time_s, event_bit) rows."""
    return np.array(list(rows), RECORD).view(np.recarray)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def synthetic_pairs(n, seed, miss_rate=0.2):
    rng = np.random.default_rng(seed)
    truths, estimates = [], []
    for i in range(n):
        ev = DENSE[int(rng.integers(len(DENSE)))]
        truths.append(TargetEvent(i, ev.position.copy(), ev.region_id, ev.region_type))
        if rng.random() < miss_rate:
            estimates.append(RegionEstimate(i, None, None))
        else:
            region = int(rng.integers(94))
            estimates.append(RegionEstimate(
                i, region, vessel_centroid(GRAPH, region)))
    return estimates, truths


def test_region_accuracy_brute_force():
    estimates, truths = synthetic_pairs(500, seed=1)
    expect = sum(1 for e, t in zip(estimates, truths)
                 if e.estimated_region == t.region_id) / 500
    assert region_accuracy(estimates, truths) == pytest.approx(expect, rel=1e-12)


def test_missing_estimates_count_as_wrong():
    truths = [TargetEvent(0, DENSE[5].position, DENSE[5].region_id, DENSE[5].region_type)]
    assert region_accuracy([RegionEstimate(0, None, None)], truths) == 0.0
    assert reliability([RegionEstimate(0, None, None)], truths) == 0.0


def test_point_error_exact():
    truth = TargetEvent(0, np.array([3.0, 4.0, 0.0]), 0, 0)
    est = RegionEstimate(0, 1, np.array([0.0, 0.0, 0.0]))
    assert point_error(est, truth, GRAPH) == 5.0


def test_point_error_centroid_substitution():
    truth = TargetEvent(0, np.array([1.0, 1.0, 0.0]), 3, 0)
    est = RegionEstimate(0, estimated_region=7, point=None)
    expect = float(np.linalg.norm(vessel_centroid(GRAPH, 7) - truth.position))
    assert point_error(est, truth, GRAPH) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(NoEstimate):
        point_error(RegionEstimate(0, None, None), truth, GRAPH)


def test_mismatched_sets_raise():
    estimates, truths = synthetic_pairs(10, seed=2)
    with pytest.raises(MismatchedSets):
        region_accuracy(estimates[:-1], truths)
    with pytest.raises(MismatchedSets):
        region_accuracy(estimates, [])
    with pytest.raises(MismatchedSets):
        region_accuracy(estimates + [estimates[0]], truths)


# ---------------------------------------------------------------------------
# baseline localizer
# ---------------------------------------------------------------------------


def test_baseline_matches_loop_time():
    loops = GRAPH.cycles_through_heart
    times = [GRAPH.loop_time(c) for c in loops]
    for li in (0, 5, 11):
        recs = _records((9.0, 0, times[li], 1), (19.0, 1, times[li], 1))
        est = baseline_localize(recs, GRAPH, seed=4, event_id=li)
        assert est.estimated_region in set(loops[li])
        assert est.event_id == li
        np.testing.assert_allclose(
            est.point, vessel_centroid(GRAPH, est.estimated_region))


def test_baseline_no_positive_records():
    recs = _records((5.0, 0, 20.0, 0), (9.0, 1, 44.0, 0))
    est = baseline_localize(recs, GRAPH, seed=0)
    assert est.estimated_region is None and est.point is None
    assert not est.has_estimate


def test_baseline_majority_vote():
    loops = GRAPH.cycles_through_heart
    times = [GRAPH.loop_time(c) for c in loops]
    recs = _records((1.0, 0, times[2], 1),
                    (2.0, 1, times[2], 1),
                    (3.0, 2, times[8], 1))
    est = baseline_localize(recs, GRAPH, seed=0)
    assert est.estimated_region in set(loops[2])


def test_baseline_deterministic_per_seed():
    loops = GRAPH.cycles_through_heart
    times = sorted(GRAPH.loop_time(c) for c in loops)
    mid = (times[3] + times[4]) / 2.0  # exact tie between two loops
    recs = _records((1.0, 0, mid, 1))
    picks = {baseline_localize(recs, GRAPH, seed=s).estimated_region
             for s in range(40)}
    assert len(picks) == 2  # the tie is real and seed-controlled
    assert baseline_localize(recs, GRAPH, seed=17).estimated_region == \
           baseline_localize(recs, GRAPH, seed=17).estimated_region


def test_baseline_scale_invariant_argmin():
    # argmin by |loop_time - circulation| is unaffected by adding the same
    # offset to circulation and all loop times only if distances shift
    # together, so instead verify nearest-match: a circulation slightly off
    # a loop time still maps to that loop
    loops = GRAPH.cycles_through_heart
    times = [GRAPH.loop_time(c) for c in loops]
    li = 6
    gaps = sorted(abs(t - times[li]) for t in times if t != times[li])
    eps = gaps[0] / 3
    for delta in (-eps, eps):
        est = baseline_localize(_records((1.0, 0, times[li] + delta, 1)), GRAPH, seed=0)
        assert est.estimated_region in set(loops[li])


# ---------------------------------------------------------------------------
# dense population and sampling
# ---------------------------------------------------------------------------


def test_dense_is_deterministic_and_covers_graph():
    again = dense_locations(GRAPH, 1368)
    assert [e.id for e in again] == [e.id for e in DENSE]
    for a, b in zip(again, DENSE):
        np.testing.assert_array_equal(a.position, b.position)
    assert {e.region_id for e in DENSE} == {v.id for v in GRAPH.vessels}
    assert len(DENSE) == 1368


def test_dense_regions_are_what_locate_vessel_gives_per_point():
    # dense_locations looks all regions up in one call; here each point is
    # looked up on its own through the same routine
    for e in DENSE:
        region = locate_vessel(GRAPH, e.position)
        assert (region, int(GRAPH.vessel(region).region_type)) == (e.region_id, e.region_type)


def test_dense_spacing_near_one_cm():
    from collections import Counter
    counts = Counter(e.region_id for e in DENSE)
    for v in GRAPH.vessels:
        spacing = v.length / counts[v.id]
        assert 0.4 < spacing < 1.5


def test_dense_too_small_rejected():
    with pytest.raises(SampleTooLarge):
        dense_locations(GRAPH, 50)  # below one point per vessel


@pytest.mark.parametrize("strategy", ["srs", "ssrs", "crs", "rgs", "scs"])
def test_sampling_basics(strategy):
    s = sample_locations(DENSE, strategy, 137, seed=3)
    assert len(s) == 137
    ids = [e.id for e in s]
    assert len(set(ids)) == 137
    assert ids == sorted(ids)
    assert set(ids) <= {e.id for e in DENSE}
    # identity at full size
    full = sample_locations(DENSE, strategy, len(DENSE), seed=99)
    assert [e.id for e in full] == [e.id for e in DENSE]
    # per-seed determinism
    t1 = [e.id for e in sample_locations(DENSE, strategy, 137, seed=3)]
    assert t1 == ids


def test_sampling_size_bounds():
    with pytest.raises(SampleTooLarge):
        sample_locations(DENSE, "srs", 0, seed=0)
    with pytest.raises(SampleTooLarge):
        sample_locations(DENSE, "srs", len(DENSE) + 1, seed=0)
    for name in ("nope", "SRS"):   # lowercase names only, as the config and the CLI take them
        with pytest.raises(ValueError):
            sample_locations(DENSE, name, 5, seed=0)


def test_srs_varies_with_seed():
    a = [e.id for e in sample_locations(DENSE, "srs", 100, seed=1)]
    b = [e.id for e in sample_locations(DENSE, "srs", 100, seed=2)]
    assert a != b


def test_rgs_is_seed_invariant():
    a = [e.id for e in sample_locations(DENSE, "rgs", 137, seed=1)]
    b = [e.id for e in sample_locations(DENSE, "rgs", 137, seed=31337)]
    assert a == b


def test_rgs_cell_count_equals_np_unique_at_every_pitch():
    from nanoflow.benchmark import _cell_indices, _distinct_rows
    points = np.array([ev.position for ev in DENSE])
    lo = points.min(axis=0) - 1e-9
    extent = float((points.max(axis=0) + 1e-9 - lo).max())
    for pitch in np.geomspace(1e-6, extent, 400):
        cells = _cell_indices(points, lo, float(pitch))
        assert _distinct_rows(cells) == len(np.unique(cells, axis=0))
    assert _distinct_rows(np.zeros((1, 3), dtype=np.int64)) == 1


def _bucket_rgs(dense, k, rng):
    """rgs as it picked before the one-sort rewrite: a dict of cells, each
    cell's member nearest its centre by np.linalg.norm, ties to the lowest
    index, the first k cells in sorted order."""
    from nanoflow.benchmark import _cell_indices, _distinct_rows
    points = np.array([ev.position for ev in dense])
    lo = points.min(axis=0) - 1e-9
    hi = points.max(axis=0) + 1e-9
    p_lo, p_hi = 1e-6, float((hi - lo).max())
    if _distinct_rows(_cell_indices(points, lo, p_hi)) >= k:
        pitch = p_hi
    else:
        for _ in range(80):
            mid = 0.5 * (p_lo + p_hi)
            if _distinct_rows(_cell_indices(points, lo, mid)) >= k:
                p_lo = mid
            else:
                p_hi = mid
        pitch = p_lo
    buckets: dict = {}
    for i, c in enumerate(map(tuple, _cell_indices(points, lo, pitch))):
        buckets.setdefault(c, []).append(i)
    chosen = []
    for c in sorted(buckets)[:k]:
        members = buckets[c]
        centre = lo + (np.asarray(c) + 0.5) * pitch
        dist = [float(np.linalg.norm(points[i] - centre)) for i in members]
        best = min(dist)
        chosen.append(min(m for m, d in zip(members, dist) if d == best))
    return [dense[i] for i in sorted(chosen)]


def test_rgs_picks_what_the_bucket_version_picked():
    from nanoflow.benchmark import _rgs
    sizes = [1, 2, 94, 342, 684, 1367] + np.random.default_rng(18).integers(
        1, len(DENSE), 12).tolist()
    for k in sizes:
        got = [e.id for e in _rgs(DENSE, k, None)]
        assert got == [e.id for e in _bucket_rgs(DENSE, k, None)], k
        assert len(got) == k
    # a point given twice is one distance from its cell's centre twice: the
    # tie goes to the lower index, as before
    twice = DENSE[::3] + [TargetEvent(len(DENSE) + e.id, e.position.copy(), e.region_id,
                                      e.region_type) for e in DENSE[::3]]
    for k in (1, 7, 100, 456):
        got = [e.id for e in _rgs(twice, k, None)]
        assert got == [e.id for e in _bucket_rgs(twice, k, None)], k
        assert max(got) < len(DENSE), k


def test_rgs_raises_rather_than_draw_fewer_than_k():
    # six of ten events share one position: rgs finds five distinct cells at
    # any pitch, so it cannot draw eight; the other strategies can
    spots = [(0.0, 0.0, 0.0)] * 6 + [(1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0),
                                     (4.0, 4.0, 0.0)]
    dense = [TargetEvent(i, np.array(p), 0, i % 3) for i, p in enumerate(spots)]
    with pytest.raises(SampleTooLarge, match=r"^rgs drew 5 events, fewer than sample size 8$"):
        sample_locations(dense, "rgs", 8, seed=0)
    assert len(sample_locations(dense, "rgs", 5, seed=0)) == 5
    for strategy in ("srs", "ssrs", "crs", "scs"):
        assert len(sample_locations(dense, strategy, 8, seed=0)) == 8, strategy


def test_ssrs_largest_remainder_apportionment():
    # synthetic population with a 60/30/10 region-type split
    pop = []
    for i in range(100):
        rtype = 0 if i < 60 else (1 if i < 90 else 2)
        pop.append(TargetEvent(i, np.array([float(i), 0.0, 0.0]), i % 94, rtype))
    s = sample_locations(pop, "ssrs", 10, seed=5)
    from collections import Counter
    counts = Counter(e.region_type for e in s)
    assert (counts[0], counts[1], counts[2]) == (6, 3, 1)


def test_crs_picks_whole_vessels():
    s = sample_locations(DENSE, "crs", 137, seed=7)
    from collections import Counter
    dense_per_region = Counter(e.region_id for e in DENSE)
    sample_per_region = Counter(e.region_id for e in s)
    # every selected cluster is fully included except at most the truncated one
    partial = [r for r, n in sample_per_region.items() if n < dense_per_region[r]]
    assert len(partial) <= 1


def _block_loop_scs(dense, k, rng):
    """scs as it drew before the blocks of one depth were cut together: the
    list of k boxes first, then one pass over every point per box."""
    def blocks(lo, hi, k):
        if k == 1:
            return [(lo, hi)]
        axis = int(np.argmax(hi - lo))
        k1 = k // 2
        cut = lo[axis] + (hi[axis] - lo[axis]) * (k1 / k)
        hi_a, lo_b = hi.copy(), lo.copy()
        hi_a[axis] = cut
        lo_b[axis] = cut
        return blocks(lo, hi_a, k1) + blocks(lo_b, hi, k - k1)

    points = np.array([ev.position for ev in dense])
    chosen = []
    taken = np.zeros(len(dense), dtype=bool)
    for blo, bhi in blocks(points.min(axis=0) - 1e-9, points.max(axis=0) + 1e-9, k):
        inside = np.flatnonzero(((points >= blo) & (points < bhi)).all(axis=1) & ~taken)
        if len(inside):
            pick = int(inside[rng.integers(len(inside))])
            chosen.append(pick)
            taken[pick] = True
    spare = np.flatnonzero(~taken)
    if len(chosen) < k:
        extra = rng.choice(len(spare), size=k - len(chosen), replace=False)
        chosen.extend(int(spare[i]) for i in extra)
    return [dense[i] for i in sorted(chosen)]


def test_scs_draws_what_the_block_loop_drew():
    from nanoflow.benchmark import _scs, _scs_blocks
    twice = DENSE[::3] + [TargetEvent(len(DENSE) + e.id, e.position.copy(), e.region_id,
                                      e.region_type) for e in DENSE[::3]]
    # at 1e7 times the size, max + 1e-9 rounds to max: the largest points lie
    # outside every block and are drawn only to top up
    huge = [TargetEvent(e.id, e.position * 1e7, e.region_id, e.region_type) for e in DENSE[:300]]
    assert (_scs_blocks(np.array([e.position for e in huge]), 5) == -1).any()
    for dense in (DENSE, twice, huge):
        for k in (1, 2, 3, 94, 137, len(dense) // 2, len(dense) - 1):
            for seed in (0, 7):
                got = _scs(dense, k, np.random.default_rng(seed))
                want = _block_loop_scs(dense, k, np.random.default_rng(seed))
                assert [e.id for e in got] == [e.id for e in want], (len(dense), k, seed)


def test_scs_spreads_across_space():
    s = sample_locations(DENSE, "scs", 64, seed=9)
    ys = sorted(float(e.position[1]) for e in s)
    # the spatial blocks force coverage of both y extremes
    assert ys[0] < -30 and ys[-1] > 30


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


EVENTS = sample_locations(DENSE, "rgs", 4, seed=0)
PLAN = SimPlan(device_count=4, duration_s=120.0)


def test_run_benchmark_report_shape():
    rep = run_benchmark(GRAPH, EVENTS, PLAN, workers=1, seed=5,
                        config_fingerprint="abc123")
    d = rep.to_dict()
    for key in ("region_accuracy", "n_correct", "n_total", "reliability",
                "point_errors_cm", "by_region_type", "by_sim_time_s",
                "energy_summary", "config_fingerprint"):
        assert key in d
    assert d["n_total"] == 4
    assert d["config_fingerprint"] == "abc123"
    assert 0.0 <= d["region_accuracy"] <= 1.0
    assert set(d["by_sim_time_s"]) == {"120"}
    assert d["energy_summary"]["max_consumed_pj"] >= d["energy_summary"]["mean_consumed_pj"]


def test_run_benchmark_worker_invariance():
    rep1 = run_benchmark(GRAPH, EVENTS, PLAN, workers=1, seed=5)
    rep2 = run_benchmark(GRAPH, EVENTS, PLAN, workers=3, seed=5)
    assert json.dumps(rep1.to_dict(), sort_keys=True) == \
           json.dumps(rep2.to_dict(), sort_keys=True)


def test_run_benchmark_seed_matters():
    rep1 = run_benchmark(GRAPH, EVENTS, PLAN, workers=1, seed=5)
    rep2 = run_benchmark(GRAPH, EVENTS, PLAN, workers=1, seed=6)
    assert json.dumps(rep1.to_dict()) != json.dumps(rep2.to_dict())


def test_reliability_monotone_in_sim_time():
    rep = run_benchmark(GRAPH, EVENTS, PLAN, workers=1, seed=5,
                        sim_times_s=[30.0, 60.0, 120.0])
    rels = [rep.by_sim_time_s[k]["reliability"] for k in ("30", "60", "120")]
    assert rels == sorted(rels)


def test_failed_event_run_counts_as_no_estimate(monkeypatch):
    import nanoflow.benchmark as bm

    real = bm.simulate_event

    def flaky(graph, plan, event, traces, beacons):
        if event.id == EVENTS[0].id:
            raise ConfigMismatch("synthetic failure")
        return real(graph, plan, event, traces, beacons)

    monkeypatch.setattr(bm, "simulate_event", flaky)
    rep = run_benchmark(GRAPH, EVENTS, PLAN, workers=1, seed=5)
    assert str(EVENTS[0].id) in rep.run_errors
    assert "synthetic failure" in rep.run_errors[str(EVENTS[0].id)]
    assert rep.n_total == len(EVENTS)


def test_a_fault_in_an_event_run_stops_the_benchmark(monkeypatch):
    # only a NanoflowError counts as no estimate; a bug's TypeError does not
    import nanoflow.benchmark as bm

    real = bm.simulate_event

    def buggy(graph, plan, event, traces, beacons):
        if event.id == EVENTS[1].id:
            raise TypeError("synthetic bug")
        return real(graph, plan, event, traces, beacons)

    monkeypatch.setattr(bm, "simulate_event", buggy)
    with pytest.raises(TypeError, match="synthetic bug"):
        run_benchmark(GRAPH, EVENTS, PLAN, workers=1, seed=5)


def test_run_events_starts_no_more_workers_than_events(monkeypatch):
    started = []

    class Pool:   # stands in for ProcessPoolExecutor and starts no process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(benchmark, "ProcessPoolExecutor", Pool)
    one = run_events(GRAPH, EVENTS[:1], PLAN, workers=4, seed=5)
    assert started == []
    assert one == run_events(GRAPH, EVENTS[:1], PLAN, workers=1, seed=5)
    assert run_events(GRAPH, EVENTS[:3], PLAN, workers=4, seed=5) == \
        run_events(GRAPH, EVENTS[:3], PLAN, workers=1, seed=5)
    assert started == [3]
    run_events(GRAPH, EVENTS[:3], PLAN, workers=2, seed=5)
    assert started == [3, 2]


BATCHED = sample_locations(DENSE, "srs", 40, seed=3)
BATCH_PLAN = SimPlan(device_count=3, duration_s=60.0)   # 180 device-seconds per event


def _run_bits(per_time, consumed, errors):
    """run_events' return value with every float and point as exact bytes."""
    return ({t: [(e.event_id, e.estimated_region, None if e.point is None else e.point.tobytes())
                 for e in estimates] for t, estimates in per_time.items()},
            [pj.hex() for pj in consumed], errors)


def test_results_do_not_depend_on_batches_workers_or_event_order(monkeypatch):
    # each event runs alone on its own seeds, whatever batch it shares a
    # beacon decode with: one event per batch, all in one batch, batches of
    # 10 (1 worker) and of 5 (2 workers), and the events shuffled
    times = [30.0, 60.0]
    want = _run_bits(*run_events(GRAPH, BATCHED, BATCH_PLAN, workers=1, seed=5,
                                 sim_times_s=times))
    assert sum(e[2] is not None for e in want[0][60.0]) > 5   # some events have estimates
    sizes, real = [], benchmark._run_batch
    monkeypatch.setattr(benchmark, "_run_batch", lambda *a: sizes.append(len(a[-1])) or real(*a))
    assert _run_bits(*run_events(GRAPH, BATCHED[::-1], BATCH_PLAN, workers=1, seed=5,
                                 sim_times_s=times)) == want
    assert sizes == [10] * 4
    monkeypatch.setattr(benchmark, "_BATCH_DEVICE_S", 1)
    assert _run_bits(*run_events(GRAPH, BATCHED, BATCH_PLAN, workers=1, seed=5,
                                 sim_times_s=times)) == want
    assert sizes[4:] == [1] * 40
    monkeypatch.undo()
    assert _run_bits(*run_events(GRAPH, BATCHED, BATCH_PLAN, workers=2, seed=5,
                                 sim_times_s=times)) == want
    events = sorted(BATCHED, key=lambda ev: ev.id)
    runs = benchmark._run_batch(GRAPH, BATCH_PLAN, times, 5, events)   # one batch of 40
    assert _run_bits({t: [run[0][i] for run in runs] for i, t in enumerate(times)},
                     [pj for run in runs for pj in run[1]], {}) == want


def test_a_failing_event_mid_batch_leaves_its_batch_mates_alone(monkeypatch):
    # batches of 10: the runs of the 4th and 7th events fail; every other
    # event, in their batch or not, reads as in a run without faults
    import nanoflow.benchmark as bm

    want = _run_bits(*run_events(GRAPH, BATCHED, BATCH_PLAN, workers=1, seed=5))
    events = sorted(BATCHED, key=lambda ev: ev.id)
    bad = {events[3].id: "first", events[6].id: "second"}
    real_run = bm.simulate_event

    def run_fails(graph, plan, event, traces, beacons):
        if event.id in bad:
            raise ConfigMismatch(f"synthetic {bad[event.id]} run failure")
        return real_run(graph, plan, event, traces, beacons)

    monkeypatch.setattr(bm, "simulate_event", run_fails)
    per_time, consumed, errors = _run_bits(*run_events(GRAPH, BATCHED, BATCH_PLAN, workers=1,
                                                       seed=5))
    assert errors == {str(eid): f"ConfigMismatch: synthetic {which} run failure"
                      for eid, which in bad.items()}
    assert per_time[60.0][3] == (events[3].id, None, None)
    assert per_time[60.0][6] == (events[6].id, None, None)
    keep = [i for i in range(len(events)) if i not in (3, 6)]
    assert [per_time[60.0][i] for i in keep] == [want[0][60.0][i] for i in keep]
    n = BATCH_PLAN.device_count   # consumed: each event's devices in turn
    assert consumed == [pj for i in keep for pj in want[1][n * i:n * i + n]]


def test_each_sim_time_reads_the_records_reported_by_then(monkeypatch):
    # sim time t reads the records reported by t + 1e-9, as the list filter
    # did: one exactly there is kept and one a float step above it is not
    cap = 10.0 + 1e-9
    records = _records((1.0, 0, 2.0, 1), (cap, 1, 3.0, 1),
                       (float(np.nextafter(cap, np.inf)), 2, 4.0, 1), (50.0, 0, 5.0, 0))
    seen = []
    monkeypatch.setattr(benchmark, "simulate_event",
                        lambda *args: SimResult(records, np.empty(0, _ROW), {}))
    monkeypatch.setattr(benchmark, "baseline_localize", lambda recs, graph, seed, event_id: (
        seen.append(recs.tolist()) or RegionEstimate(event_id, None)))
    benchmark._run_batch(GRAPH, BATCH_PLAN, [10.0, 60.0], 5, BATCHED[:1])
    assert seen == [records[:2].tolist(), records.tolist()]
    assert seen == [[r for r in records.tolist() if r[0] <= t + 1e-9] for t in (10.0, 60.0)]


_TRACE_FIELDS = ("times", "positions", "vessel_ids", "visit_times", "visit_vessels")


@pytest.mark.parametrize("factor, rate", [(1, 1), (3, 3), (6, 3)])
@pytest.mark.parametrize("sigma", [0.0, 0.2])
@pytest.mark.parametrize("duration", [0.4, 30.0])   # 1 and 31 samples per trace
def test_build_traces_is_each_run_traced_alone(factor, rate, sigma, duration):
    # mixed mobility seeds and upsample roots
    plan = SimPlan(device_count=3, duration_s=duration, sense_rate_hz=rate,
                   upsample_factor=factor, upsample_sigma_cm=sigma)
    runs = [(11, (5, 0)), (2 ** 40 + 3, (5, 17)), (11, (6, 2)), (7, (1, 2, 3))]
    built = benchmark.build_traces(GRAPH, plan, runs)
    assert len(built) == len(runs)
    for (mobility_seed, root), traces in zip(runs, built):
        want = [upsample_trace(tr, factor, sigma, benchmark._child_seed(*root, 1, tr.device_id))
                for tr in simulate_mobility(GRAPH, 3, duration, seed=mobility_seed)]
        assert len(traces) == len(want) and len(traces[0]) == (int(round(duration))) * factor + 1
        for got, exp in zip(traces, want):
            assert got.device_id == exp.device_id
            for name in _TRACE_FIELDS:
                a, b = getattr(got, name), getattr(exp, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    # writing to one trace reaches no other
    traces = [tr for run in built for tr in run]
    saved = [[getattr(tr, name).copy() for name in _TRACE_FIELDS] for tr in traces]
    for name in _TRACE_FIELDS:
        getattr(traces[4], name)[...] = -1
    for i, (tr, arrays) in enumerate(zip(traces, saved)):
        if i != 4:
            assert all(getattr(tr, n).tobytes() == a.tobytes()
                       for n, a in zip(_TRACE_FIELDS, arrays))


def test_all_failed_event_runs_raise(monkeypatch):
    import nanoflow.benchmark as bm

    def broken(graph, plan, event, traces, beacons):
        raise ConfigMismatch(f"synthetic failure {event.id}")

    monkeypatch.setattr(bm, "simulate_event", broken)
    message = (f"all {len(EVENTS)} event runs failed; "
               f"the first: ConfigMismatch: synthetic failure {min(ev.id for ev in EVENTS)}$")
    with pytest.raises(EventRunsFailed, match=message):
        run_benchmark(GRAPH, EVENTS, PLAN, workers=1, seed=5)


def test_run_events_returns_estimates_in_event_id_order():
    shuffled = EVENTS[::-1]
    per_time, consumed, errors = run_events(GRAPH, shuffled, PLAN, workers=1, seed=5,
                                            sim_times_s=[120.0, 30.0, 30.0])
    assert list(per_time) == [30.0, 120.0]
    for estimates in per_time.values():
        assert [e.event_id for e in estimates] == sorted(ev.id for ev in EVENTS)
    assert len(consumed) == len(EVENTS) * PLAN.device_count
    assert errors == {}
    rep = run_benchmark(GRAPH, EVENTS, PLAN, workers=1, seed=5, sim_times_s=[30.0, 120.0])
    truths = sorted(EVENTS, key=lambda ev: ev.id)
    for t, estimates in per_time.items():
        block = rep.by_sim_time_s[f"{t:g}"]
        assert block["region_accuracy"] == region_accuracy(estimates, truths)
        assert block["reliability"] == reliability(estimates, truths)
    assert rep.energy_summary["max_consumed_pj"] == max(consumed)


def test_means_and_loop_periods_add_left_to_right(monkeypatch):
    # sum() of floats is compensated on Python 3.12+, so report bytes would
    # depend on the interpreter.  On this data the two additions differ, so
    # a mean or period taken with sum() changes under math.fsum.
    estimates, truths = synthetic_pairs(500, seed=1)
    consumed = [0.1] * 10
    monkeypatch.setattr(benchmark, "run_events",
                        lambda *args: ({120.0: estimates}, consumed, {}))
    plain = run_benchmark(GRAPH, truths, PLAN).to_dict()
    errors = [point_error(e, t, GRAPH) for e, t in zip(estimates, truths) if e.has_estimate]
    assert plain["mean_point_error_cm"] != math.fsum(errors) / len(errors)
    assert plain["energy_summary"]["mean_consumed_pj"] != math.fsum(consumed) / len(consumed)
    periods = [math.fsum(GRAPH.vessel(i).length / GRAPH.vessel(i).speed_cm_s for i in cycle)
               for cycle in GRAPH.cycles_through_heart]
    assert list(GRAPH.heart_loops[0]) != periods
    for module in (benchmark, vasculature):
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    assert run_benchmark(GRAPH, truths, PLAN).to_dict() == plain
    assert build_reference_vasculature().heart_loops == GRAPH.heart_loops


def test_sim_times_beyond_duration_rejected():
    with pytest.raises(ValueError):
        run_events(GRAPH, EVENTS, PLAN, workers=1, seed=0, sim_times_s=[999.0])
    for bad in (float("nan"), -5.0, 0.0):
        with pytest.raises(ValueError, match="sim_times_s"):
            run_events(GRAPH, EVENTS, PLAN, workers=1, seed=0, sim_times_s=[bad])
        with pytest.raises(ValueError, match="sim_times_s"):
            run_benchmark(GRAPH, EVENTS, PLAN, workers=1, seed=0, sim_times_s=[60.0, bad])
    with pytest.raises(ValueError, match="sim_times_s"):   # not the plan's duration
        run_events(GRAPH, EVENTS, PLAN, workers=1, seed=0, sim_times_s=[])
    with pytest.raises(MismatchedSets):
        run_events(GRAPH, [], PLAN, workers=1, seed=0)


def test_sim_times_sharing_a_report_label_rejected(monkeypatch):
    # the report keys its blocks by f"{t:g}": two times that print alike
    # would leave one block, so neither runs
    import nanoflow.benchmark as bm

    def no_runs(*args, **kwargs):
        raise AssertionError("event runs started")

    monkeypatch.setattr(bm, "_run_batch", no_runs)
    with pytest.raises(ValueError, match=r"^sim_times_s 10\.0000001 and 10\.0000002 share "
                                         r"the report label 10$"):
        run_benchmark(GRAPH, EVENTS, PLAN, sim_times_s=[10.0000001, 10.0000002, 20.0])


# ---------------------------------------------------------------------------
# convergence and external scoring
# ---------------------------------------------------------------------------


def perfect_results():
    return [(ev, RegionEstimate(ev.id, ev.region_id, ev.position.copy()))
            for ev in DENSE]


def test_convergence_final_point_equals_dense():
    noisy = []
    rng = np.random.default_rng(8)
    for ev in DENSE:
        if rng.random() < 0.3:
            noisy.append((ev, RegionEstimate(ev.id, None, None)))
        else:
            region = int(rng.integers(94))
            noisy.append((ev, RegionEstimate(ev.id, region,
                                             vessel_centroid(GRAPH, region))))
    rows = convergence_curve(noisy, "srs", [137, 684, 1368], seed=3, graph=GRAPH)
    ests = [e for _, e in noisy]
    truths = [t for t, _ in noisy]
    dense_acc = region_accuracy(ests, truths)
    assert rows[-1][0] == 1368
    assert rows[-1][1] == pytest.approx(dense_acc, rel=1e-12)


def test_each_point_error_is_computed_once(monkeypatch):
    import nanoflow.benchmark as bm

    estimates, truths = synthetic_pairs(200, seed=4, miss_rate=0.3)
    for est, tru in zip(estimates[::3], truths[::3]):   # some correct estimates
        est.estimated_region = tru.region_id
    calls = []
    real = bm.point_error
    monkeypatch.setattr(bm, "point_error", lambda *a: calls.append(1) or real(*a))
    block = bm._metric_block(estimates, truths, GRAPH, correct_only=True)
    assert len(calls) == sum(e.has_estimate for e in estimates)
    assert block["point_errors_cm"] == [real(e, t, GRAPH) for e, t in zip(estimates, truths)
                                        if e.estimated_region == t.region_id]
    assert block["n_correct"] == len(block["point_errors_cm"]) > 0


def test_convergence_perfect_estimates():
    rows = convergence_curve(perfect_results(), "rgs", [94, 342, 1368],
                             seed=3, graph=GRAPH)
    for _, acc, err in rows:
        assert acc == 1.0
        assert err == 0.0


def test_estimates_csv_roundtrip(tmp_path):
    path = tmp_path / "est.csv"
    with open(path, "w") as fh:
        fh.write("event_id,estimated_region,x_cm,y_cm,z_cm\n")
        fh.write("0,5,1.0,2.0,3.0\n")
        fh.write("1,,,,\n")          # explicit no-estimate
        fh.write("2,7,,,\n")         # region only: centroid at scoring time
    ests = load_estimates_csv(str(path))
    assert ests[0].estimated_region == 5
    np.testing.assert_allclose(ests[0].point, [1.0, 2.0, 3.0])
    assert not ests[1].has_estimate
    assert ests[2].estimated_region == 7 and ests[2].point is None


@pytest.mark.parametrize("body", [
    "event_id,estimated_region\n0,1\n",          # missing columns
    "event_id,estimated_region,x_cm,y_cm,z_cm\nfoo,1,0,0,0\n",  # bad int
    "event_id,estimated_region,x_cm,y_cm,z_cm\n0,1,1.0,,\n",    # partial point
    "",                                           # empty file
])
def test_estimates_csv_malformed(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ExternalDataError):
        load_estimates_csv(str(path))


def test_score_external_fills_missing_events():
    truths = DENSE[:10]
    ests = [RegionEstimate(truths[0].id, truths[0].region_id, None)]
    rep = score_external(ests, truths, GRAPH)
    assert rep.n_total == 10
    assert rep.n_correct == 1
    assert rep.reliability == pytest.approx(0.1)


def test_events_csv_format(tmp_path):
    path = tmp_path / "events.csv"
    export_events_csv(DENSE[:3], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "event_id,x_cm,y_cm,z_cm,region_id,region_type"
    assert len(lines) == 4
    assert lines[1].startswith("0,")
