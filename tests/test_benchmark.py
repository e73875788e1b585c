"""Metrics, baseline localizer, sampling strategies and harness."""

import json

import numpy as np
import pytest

from nanoflow.benchmark import (MetricsReport, RegionEstimate, SimPlan,
                                TargetEvent, baseline_localize,
                                convergence_curve, dense_locations,
                                export_events_csv, load_estimates_csv,
                                point_error, region_accuracy, reliability,
                                run_benchmark, run_events, sample_locations,
                                score_external)
from nanoflow.errors import (EventRunsFailed, ExternalDataError,
                             MismatchedSets, NoEstimate, SampleTooLarge)
from nanoflow.simcore import RawRecord
from nanoflow.vasculature import build_reference_vasculature, vessel_centroid

GRAPH = build_reference_vasculature()
DENSE = dense_locations(GRAPH, 1368)


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
    loops = GRAPH.cycles_through_heart()
    times = [GRAPH.loop_time(c) for c in loops]
    for li in (0, 5, 11):
        recs = [RawRecord(9.0, 0, times[li], 1), RawRecord(19.0, 1, times[li], 1)]
        est = baseline_localize(recs, GRAPH, seed=4, event_id=li)
        assert est.estimated_region in set(loops[li])
        assert est.event_id == li
        np.testing.assert_allclose(
            est.point, vessel_centroid(GRAPH, est.estimated_region))


def test_baseline_no_positive_records():
    recs = [RawRecord(5.0, 0, 20.0, 0), RawRecord(9.0, 1, 44.0, 0)]
    est = baseline_localize(recs, GRAPH, seed=0)
    assert est.estimated_region is None and est.point is None
    assert not est.has_estimate


def test_baseline_majority_vote():
    loops = GRAPH.cycles_through_heart()
    times = [GRAPH.loop_time(c) for c in loops]
    recs = [RawRecord(1.0, 0, times[2], 1),
            RawRecord(2.0, 1, times[2], 1),
            RawRecord(3.0, 2, times[8], 1)]
    est = baseline_localize(recs, GRAPH, seed=0)
    assert est.estimated_region in set(loops[2])


def test_baseline_deterministic_per_seed():
    loops = GRAPH.cycles_through_heart()
    times = sorted(GRAPH.loop_time(c) for c in loops)
    mid = (times[3] + times[4]) / 2.0  # exact tie between two loops
    recs = [RawRecord(1.0, 0, mid, 1)]
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
    loops = GRAPH.cycles_through_heart()
    times = [GRAPH.loop_time(c) for c in loops]
    li = 6
    gaps = sorted(abs(t - times[li]) for t in times if t != times[li])
    eps = gaps[0] / 3
    for delta in (-eps, eps):
        est = baseline_localize([RawRecord(1.0, 0, times[li] + delta, 1)],
                                GRAPH, seed=0)
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


def test_dense_regions_are_what_target_event_at_gives():
    # dense_locations looks all regions up in one call; TargetEvent.at looks
    # up one point through the same routine
    for e in DENSE:
        at = TargetEvent.at(e.id, e.position, GRAPH)
        assert (at.region_id, at.region_type) == (e.region_id, e.region_type)


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
    with pytest.raises(ValueError):
        sample_locations(DENSE, "nope", 5, seed=0)


def test_srs_varies_with_seed():
    a = [e.id for e in sample_locations(DENSE, "srs", 100, seed=1)]
    b = [e.id for e in sample_locations(DENSE, "srs", 100, seed=2)]
    assert a != b


def test_rgs_is_seed_invariant():
    a = [e.id for e in sample_locations(DENSE, "rgs", 137, seed=1)]
    b = [e.id for e in sample_locations(DENSE, "rgs", 137, seed=31337)]
    assert a == b


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

    def flaky(graph, plan, event, seed):
        if event.id == EVENTS[0].id:
            raise RuntimeError("synthetic failure")
        return real(graph, plan, event, seed)

    monkeypatch.setattr(bm, "simulate_event", flaky)
    rep = run_benchmark(GRAPH, EVENTS, PLAN, workers=1, seed=5)
    assert str(EVENTS[0].id) in rep.run_errors
    assert "synthetic failure" in rep.run_errors[str(EVENTS[0].id)]
    assert rep.n_total == len(EVENTS)


def test_all_failed_event_runs_raise(monkeypatch):
    import nanoflow.benchmark as bm

    def broken(graph, plan, event, seed):
        raise RuntimeError(f"synthetic failure {event.id}")

    monkeypatch.setattr(bm, "simulate_event", broken)
    message = (f"all {len(EVENTS)} event runs failed; "
               f"the first: RuntimeError: synthetic failure {min(ev.id for ev in EVENTS)}$")
    with pytest.raises(EventRunsFailed, match=message):
        run_benchmark(GRAPH, EVENTS, PLAN, workers=1, seed=5)


def test_sim_times_beyond_duration_rejected():
    with pytest.raises(ValueError):
        run_events(GRAPH, EVENTS, PLAN, workers=1, seed=0, sim_times_s=[999.0])
    with pytest.raises(MismatchedSets):
        run_events(GRAPH, [], PLAN, workers=1, seed=0)


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
