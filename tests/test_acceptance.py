"""Acceptance gates for the shipped defaults.

Each test prints one PASS/FAIL line.  Criterion 1 is implemented literally
and fails by design: inverting the charging curve through a float64 energy
value is impossible once consecutive cycle energies collide with the
spacing of representable numbers (first collision near n = 18800 under the
default parameters), so no implementation can satisfy the identity over
[1, 1e5].  The library documents its honest envelope instead.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from nanoflow.benchmark import (SimPlan, baseline_localize, convergence_curve,
                                dense_locations, point_error, region_accuracy,
                                run_benchmark, run_events, sample_locations,
                                RegionEstimate, TargetEvent)
from nanoflow.channel import ChannelConfig
from nanoflow.energy import (EnergyConfig, capacitance, cycle_index,
                             energy_at_cycle, turn_on_latency_cycles)
from nanoflow.errors import EnergyOutOfRange
from nanoflow.simcore import RECORD, Anchor, run_simulation
from nanoflow.vasculature import (build_reference_vasculature, simulate_mobility,
                                  upsample_trace, vessel_centroid)

GRAPH = build_reference_vasculature()
DENSE = dense_locations(GRAPH, 1368)
IDEAL_ENERGY = EnergyConfig(e_turn_on=1e-18, cost_tx_pulse=0.0,
                            cost_rx_pulse=0.0, cost_sense=0.0)
NO_COLLISIONS = ChannelConfig(sinr_threshold_db=-1000.0)


def report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_energy_round_trip():
    cfg = EnergyConfig()
    t0 = time.perf_counter()
    mismatches = []
    for n in range(1, 100001):
        try:
            m = cycle_index(energy_at_cycle(n, cfg), cfg)
        except EnergyOutOfRange:
            # charging curve saturated to exactly e_max: no inverse exists
            m = None
        if m != n:
            mismatches.append((n, m))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 1.0
    first = (f", first mismatch n={mismatches[0][0]}->{mismatches[0][1]}"
             if mismatches else "")
    assert report(1, ok,
                  f"round-trip exact for {100000 - len(mismatches)}/100000 cycles "
                  f"in {elapsed:.2f}s{first} (float64 cannot separate consecutive "
                  f"cycle energies beyond n~19000)")


def test_criterion_2_capacitance_and_asymptote():
    cfg = EnergyConfig()
    cap_nf = capacitance(cfg) * 1e9
    e_mega = energy_at_cycle(10**6, cfg)
    rel = abs(e_mega - cfg.e_max) / cfg.e_max
    ok = abs(cap_nf - 9.0703) <= 1e-4 and rel <= 1e-6
    assert report(2, ok,
                  f"capacitance {cap_nf:.6f} nF (target 9.0703 +/- 1e-4), "
                  f"E(1e6 cycles) within {rel:.2e} of 800 pJ")


def test_criterion_3_turn_on_latency():
    cfg = EnergyConfig()
    analytic = turn_on_latency_cycles(cfg)
    scan = 0
    while energy_at_cycle(scan, cfg) < cfg.e_turn_on:
        scan += 1
    ok = analytic == scan == 76
    assert report(3, ok,
                  f"analytic {analytic} cycles == scan {scan} cycles "
                  f"({analytic * cfg.t_cycle:.2f} s)")


def test_criterion_4_circulation_envelope():
    t0 = time.perf_counter()
    traces = simulate_mobility(GRAPH, 64, 1000.0, seed=1)
    gaps = np.concatenate([np.diff(tr.visit_times[tr.visit_vessels == GRAPH.heart_id])
                           for tr in traces])
    res = run_simulation(GRAPH, traces, SimPlan(
        duration_s=1000.0, sense_rate_hz=1, anchors=[Anchor(mac=0, position=(0.8, 0.0, 0.0))]))
    elapsed = time.perf_counter() - t0
    compounded = [r for r in res.records if r.circulation_time_s > 90.0]
    ok = (gaps.max() <= 90.0 and len(compounded) >= 1 and elapsed < 60.0)
    assert report(4, ok,
                  f"64x1000s: {len(gaps)} single-loop times max {gaps.max():.2f}s "
                  f"(<=90), {len(res.records)} records incl {len(compounded)} "
                  f"compounded >90s (max "
                  f"{max((r.circulation_time_s for r in res.records), default=0):.1f}s), "
                  f"{elapsed:.1f}s runtime (<60)")


def test_criterion_5_upsampling():
    tr = simulate_mobility(GRAPH, 1, 50000.0, seed=2)[0]
    exact = upsample_trace(tr, 3, 0.0, 0)
    idx = np.arange(len(tr.times) - 1)
    worst = 0.0
    for j in range(3):
        expect = tr.positions[:-1] + (j / 3.0) * (tr.positions[1:] - tr.positions[:-1])
        got = exact.positions[j::3][: len(idx)]
        worst = max(worst, float(np.abs(got - expect).max()))
    noisy = upsample_trace(tr, 3, 0.1, 3)
    devs = []
    for j in (1, 2):
        expect = tr.positions[:-1] + (j / 3.0) * (tr.positions[1:] - tr.positions[:-1])
        devs.append(noisy.positions[j::3][: len(idx)] - expect)
    devs = np.concatenate(devs)
    stds = devs.std(axis=0)
    ok = worst == 0.0 and all(abs(s - 0.1) / 0.1 <= 0.02 for s in stds)
    assert report(5, ok,
                  f"sigma=0 max deviation {worst:g}; sigma=0.1 per-axis std "
                  f"{np.round(stds, 5).tolist()} over {len(devs)} insertions "
                  f"(within 2%)")


def test_criterion_6_metrics_oracle():
    rng = np.random.default_rng(6)
    truths, estimates = [], []
    for i in range(10000):
        ev = DENSE[int(rng.integers(len(DENSE)))]
        truths.append(TargetEvent(i, ev.position.copy(), ev.region_id,
                                  ev.region_type))
        if rng.random() < 0.15:
            estimates.append(RegionEstimate(i, None, None))
        elif rng.random() < 0.5:
            region = int(rng.integers(94))
            estimates.append(RegionEstimate(i, region, None))
        else:
            region = int(rng.integers(94))
            estimates.append(RegionEstimate(
                i, region, rng.uniform(-40, 40, size=3)))
    acc = region_accuracy(estimates, truths)
    brute_acc = sum(1 for e, t in zip(estimates, truths)
                    if e.estimated_region == t.region_id) / len(truths)
    worst_rel = 0.0
    for e, t in zip(estimates, truths):
        if not e.has_estimate:
            continue
        p = e.point if e.point is not None else vessel_centroid(GRAPH, e.estimated_region)
        brute = math.sqrt(sum((a - b) ** 2 for a, b in zip(p, t.position)))
        ours = point_error(e, t, GRAPH)
        if brute > 0:
            worst_rel = max(worst_rel, abs(ours - brute) / brute)
    five = point_error(
        RegionEstimate(0, 1, np.array([0.0, 0.0, 0.0])),
        TargetEvent(0, np.array([3.0, 4.0, 0.0]), 1, 0), GRAPH)
    acc_rel = abs(acc - brute_acc) / max(brute_acc, 1e-300)
    ok = acc_rel <= 1e-12 and worst_rel <= 1e-12 and five == 5.0
    assert report(6, ok,
                  f"accuracy matches brute force to {acc_rel:.1e}, point errors "
                  f"to {worst_rel:.1e} over 10000 pairs, (0,0,0)-(3,4,0) = {five}")


def test_criterion_7_reliability_monotonicity():
    events = sample_locations(DENSE, "rgs", 20, seed=0)
    plan = SimPlan(device_count=4, duration_s=900.0)
    times = [120.0, 300.0, 600.0, 900.0]
    t0 = time.perf_counter()
    rep = run_benchmark(GRAPH, events, plan, workers=1, seed=7, sim_times_s=times)
    elapsed = time.perf_counter() - t0
    rels = [rep.by_sim_time_s[f"{t:g}"]["reliability"] for t in times]
    delta = rels[-1] - rels[0]
    ok = (all(b >= a for a, b in zip(rels, rels[1:])) and delta >= 0.20
          and elapsed < 600.0)
    assert report(7, ok,
                  f"reliability {rels} at {{2,5,10,15}} min, delta "
                  f"{delta * 100:+.0f}pp (>=20), {elapsed:.1f}s single-threaded")


@pytest.fixture(scope="module")
def dense_results():
    plan = SimPlan(device_count=4, duration_s=450.0)
    (final,) = run_events(GRAPH, DENSE, plan, workers=1, seed=20)[0].values()
    return list(zip(DENSE, final))   # DENSE is in event-id order, as run_events returns


def test_criterion_8_sampling_convergence(dense_results):
    t0 = time.perf_counter()
    rows = convergence_curve(dense_results, "rgs", [684, 1368], seed=20,
                             graph=GRAPH)
    resample = time.perf_counter() - t0
    (_, acc_half, err_half), (_, acc_dense, err_dense) = rows
    d_acc = abs(acc_half - acc_dense)
    d_err = abs(err_half - err_dense)
    ok = d_acc <= 0.01 and d_err <= 0.5 and resample < 10.0
    assert report(8, ok,
                  f"dense acc {acc_dense:.4f} vs RGS@684 {acc_half:.4f} "
                  f"(delta {d_acc * 100:.2f}pp <=1), mean err {err_dense:.2f} vs "
                  f"{err_half:.2f} cm (delta {d_err:.3f} <=0.5), resample "
                  f"{resample:.2f}s from cached results")


def test_criterion_9_harness_determinism_and_speedup():
    events = sample_locations(DENSE, "rgs", 16, seed=0)
    plan = SimPlan(device_count=4, duration_s=120.0)
    reports = {}
    walls = {}
    for w in (1, 2, 4, 8):
        t0 = time.perf_counter()
        rep = run_benchmark(GRAPH, events, plan, workers=w, seed=9)
        walls[w] = time.perf_counter() - t0
        reports[w] = json.dumps(rep.to_dict(), sort_keys=True)
    identical = len(set(reports.values())) == 1
    cores = os.cpu_count() or 1
    if cores >= 8:
        speedup_ok = walls[8] <= 0.5 * walls[1]
        speed_note = f"8-worker wall {walls[8]:.2f}s vs {walls[1]:.2f}s"
    else:
        speedup_ok = True
        speed_note = (f"speedup clause not applicable on {cores} core(s); "
                      f"walls {walls[1]:.2f}/{walls[8]:.2f}s")
    ok = identical and speedup_ok
    assert report(9, ok,
                  f"workers {{1,2,4,8}} byte-identical: {identical}; {speed_note}")


def test_criterion_10_baseline_sanity():
    events = sample_locations(DENSE, "rgs", 48, seed=0)
    plan = SimPlan(device_count=16, duration_s=600.0,
                   energy_cfg=IDEAL_ENERGY, channel_cfg=NO_COLLISIONS)
    rep = run_benchmark(GRAPH, events, plan, workers=1, seed=11)
    floor = 3.0 / len(GRAPH.vessels)
    acc_ok = rep.region_accuracy >= floor

    # symmetric tie: a circulation time equidistant from two loop periods
    times, reps = GRAPH.heart_loops
    order = np.argsort(times)
    pair = None
    for a, b in zip(order, order[1:]):
        mid = (times[a] + times[b]) / 2.0
        gaps = np.abs(np.asarray(times) - mid)
        best = gaps.min()
        cand = np.flatnonzero(gaps <= best + 1e-9 * max(1.0, best))
        if set(cand) == {a, b}:
            pair = (int(a), int(b), mid)
            break
    assert pair is not None
    a, b, mid = pair
    recs = np.array([(1.0, 0, float(mid), 1)], RECORD)
    hits = sum(1 for s in range(10000)
               if baseline_localize(recs, GRAPH, seed=s).estimated_region == reps[a])
    frac = hits / 10000.0
    tie_ok = abs(frac - 0.5) <= 0.02
    ok = acc_ok and tie_ok
    assert report(10, ok,
                  f"idealized accuracy {rep.region_accuracy:.3f} >= {floor:.3f} "
                  f"(3x uniform over {len(GRAPH.vessels)} regions); tie split "
                  f"{frac:.3f} over 1e4 seeds (50% +/- 2)")
