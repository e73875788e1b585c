"""run_simulation against a test-local copy of the per-tick scan it replaced.

The reference below decodes each device's beacons on its own, one beacon at
a time with per-vector np.linalg.norm and np.dot, builds each device's
timeline as a sorted list of (t, kind, item) tuples, reads the visit
schedule through a per-vessel dict, steps the capacitor with
advance_harvest and try_consume at every entry, and decides each response
of a collision batch in its own chain of scalar channel calls.  The engine
decodes the beacons of every device of a run in array passes, steps the
capacitors of all devices in one compiled call (or, without a compiler, in
the same loop in Python: one pass over each device's sense ticks that takes
the beacons and off-tick samples before each tick; test_scan_python.py runs
these tests on that path), reads
the schedule from the graph's cached arrays and decides every response in
array passes; records, energy rows and consumption must come out bit for
bit the same, including when sensing and receiving are refused, when the
charge grid hits its size limit, and at the seams of the scan (beacons
and samples at tick times, ticks
that see the target, ticks that harvest no cycle, several time grids, rows
due at a tick that sees the target, durations short of a whole second).
The engine decides beacons and responses in arrays that repeat the scalar
channel calls' float operations, so the last tests put beacons and
responses exactly on the sensitivity gate and on the SINR threshold,
against one interferer and against three (where the order in which
interference is summed shows)."""

import math
from dataclasses import replace
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nanoflow import channel as ch  # noqa: E402
from nanoflow import energy, simcore  # noqa: E402
from nanoflow.energy import EnergyConfig, EnergyState, advance_harvest, try_consume  # noqa: E402
from nanoflow.errors import ConfigMismatch  # noqa: E402
from nanoflow.simcore import (RECORD, Anchor, ProtocolParams, SimPlan,  # noqa: E402
                              SimResult, _decide_responses, _decoded_beacons, decode_beacons,
                              _instants, _max_range_cm, _row_dots, _scalar_map, _sense_hits,
                              _visit_schedule, _visit_windows,
                              run_simulation)
from nanoflow.vasculature import (MobilityTrace, build_reference_vasculature,  # noqa: E402
                                  simulate_mobility, upsample_trace)

GRAPH = build_reference_vasculature()
POSITIONS = [(0.8, 0.0, 0.0), (-0.8, 0.0, 0.0), (0.0, 0.8, 0.0), (0.5, 0.5, 1.0)]
# four anchors beaconing at 20-30 ms, as in perfbench's anchor-contention workload
CONTENTION_ANCHORS = [Anchor(0, (0.8, 0.0, 0.0), 0.02), Anchor(1, (-0.8, 0.0, 0.0), 0.02),
                      Anchor(2, (0.0, 0.8, 0.0), 0.025), Anchor(3, (0.0, -0.8, 0.0), 0.03)]
_BEACON, _SENSE, _SAMPLE = 0, 1, 2
_T_EPS = 1e-9


def _reference_schedule(trace, graph):
    motion = {}
    for v in graph.vessels:
        direction = (v.end - v.start) / v.length if v.length > 0 else v.start * 0.0
        motion[v.id] = (v.start, direction * v.speed_cm_s, v.is_heart)
    rows = [motion[int(vid)] for vid in trace.visit_vessels]
    return (np.asarray(trace.visit_times, dtype=float),
            np.array([r[0] for r in rows], dtype=float).reshape(-1, 3),
            np.array([r[1] for r in rows], dtype=float).reshape(-1, 3),
            [r[2] for r in rows])


def _reference_windows(vt, vstart, vvel, anchor_pos, radius_cm, t_end):
    """[t_in, t_out] in-range intervals of one device's visit schedule."""
    ends = np.append(vt[1:], t_end)
    w = vstart - anchor_pos
    aa = np.einsum("ij,ij->i", vvel, vvel)
    bb = 2.0 * np.einsum("ij,ij->i", w, vvel)
    cc = np.einsum("ij,ij->i", w, w) - radius_cm * radius_cm
    disc = bb * bb - 4.0 * aa * cc
    hit = np.nonzero(((aa > 0.0) & (disc >= 0.0)) | ((aa == 0.0) & (cc <= 0.0)))[0]
    out = []
    for k in hit:
        dwell = ends[k] - vt[k]
        if dwell <= 0:
            continue
        if aa[k] > 0.0:
            root = math.sqrt(disc[k])
            tau0 = max((-bb[k] - root) / (2.0 * aa[k]), 0.0)
            tau1 = min((-bb[k] + root) / (2.0 * aa[k]), dwell)
            if tau0 >= tau1:
                continue
        else:
            tau0, tau1 = 0.0, dwell
        t0, t1 = vt[k] + tau0, vt[k] + tau1
        if out and t0 <= out[-1][1] + _T_EPS:
            out[-1] = (out[-1][0], max(out[-1][1], t1))
        else:
            out.append((t0, t1))
    return out


def _reference_interferers(anchors, active_idx, t, p, ccfg, beacon_air):
    """Receive powers at the device from other anchors beaconing at time t."""
    powers = []
    for j, other in enumerate(anchors):
        if j == active_idx:
            continue
        k = round(t / other.beacon_interval_s)
        if abs(k * other.beacon_interval_s - t) > beacon_air:
            continue
        tx = other.tx_power_dbm if other.tx_power_dbm is not None else ccfg.tx_power_dbm
        dist = float(np.linalg.norm(p - np.asarray(other.position, dtype=float)))
        powers.append(tx - ch.path_loss_db(dist, ccfg))
    return powers


def _reference_beacons(schedule, anchors, anchor_pos, anchor_tx, ranges, ccfg, beacon_air,
                       duration_s):
    """(t, anchor index, position, closing speed, rx dBm, in heart) per beacon
    one device decodes, in (t, anchor index) order."""
    vt, vstart, vvel, vheart = schedule
    out = []
    for ai, anchor in enumerate(anchors):
        interval = anchor.beacon_interval_s
        k = 0
        for t0, t1 in _reference_windows(vt, vstart, vvel, anchor_pos[ai], ranges[ai],
                                         duration_s):
            k = max(k, math.ceil((t0 - _T_EPS) / interval) - 1)
            while True:
                t = k * interval
                if t > duration_s + _T_EPS or t1 < t - _T_EPS:
                    break
                k += 1
                if t0 > t + _T_EPS:
                    continue
                v = max(0, int(np.searchsorted(vt, t, side="right")) - 1)
                p = vstart[v] + (t - vt[v]) * vvel[v]
                offset = p - anchor_pos[ai]
                dist = float(np.linalg.norm(offset))
                closing = -float(np.dot(vvel[v], offset) / dist) if dist > 0 else -0.0
                link = ch.link_sample(dist, closing, anchor_tx[ai], ccfg)
                if link.rx_power_dbm < ccfg.rx_sensitivity_dbm:
                    continue
                interferers = _reference_interferers(anchors, ai, t, p, ccfg, beacon_air)
                sinr = ch.sinr_db(link.rx_power_dbm, interferers, ccfg.noise_floor_dbm)
                if ch.reception_decision(link.rx_power_dbm, sinr, ccfg) is ch.Reception.DELIVERED:
                    out.append((t, ai, p, closing, link.rx_power_dbm, bool(vheart[v])))
    out.sort(key=itemgetter(0, 1))
    return out


def _heard(dist_cm: float, closing: float, tx_dbm: float, interferers: list[tuple],
           ccfg: ch.ChannelConfig) -> bool:
    """Whether the scalar channel calls deliver a packet; interferers are
    (tx dBm, distance) pairs."""
    rx = ch.link_sample(dist_cm, closing, tx_dbm, ccfg).rx_power_dbm
    if rx < ccfg.rx_sensitivity_dbm:
        return False
    sinr = ch.sinr_db(rx, [tx - ch.path_loss_db(x, ccfg) for tx, x in interferers],
                      ccfg.noise_floor_dbm)
    return ch.reception_decision(rx, sinr, ccfg) is ch.Reception.DELIVERED


def _reference_responses(responses: list[tuple], anchor_pos: np.ndarray,
                         ccfg: ch.ChannelConfig, macs: list[int]) -> np.recarray:
    """RECORD rows of the responses that survive their collision batch.

    `responses` holds (arrival, anchor index, device index, position,
    tx dBm, closing speed, circulation time, event bit) in (arrival,
    anchor, device) order.
    """
    arrivals, bounds = [r[0] for r in responses], [0]   # batch b is bounds[b]:bounds[b + 1]
    while bounds[-1] < len(responses):
        t, stop = arrivals[bounds[-1]], bounds[-1] + 1
        while stop < len(responses) and arrivals[stop] - t <= _T_EPS:
            stop += 1
        bounds.append(stop)
    # distance of every batch-mate (itself included) to each response's anchor
    pairs = np.array([(i, j) for lo, hi in zip(bounds, bounds[1:])
                      for i in range(lo, hi) for j in range(lo, hi)], dtype=np.intp).reshape(-1, 2)
    at = np.asarray(anchor_pos, dtype=float)[[r[1] for r in responses]]
    gap = np.array([r[3] for r in responses]).reshape(-1, 3)[pairs[:, 1]] - at[pairs[:, 0]]
    dist = np.sqrt(_row_dots(gap, gap)).tolist()
    records, k = [], 0
    for lo, hi in zip(bounds, bounds[1:]):
        batch = responses[lo:hi]
        for i, (_arr, ai, di, _p, tx_dbm, closing, circulation, bit) in enumerate(batch):
            row, k = dist[k:k + len(batch)], k + len(batch)
            interferers = [(otx, x) for (_oarr, oai, odi, _op, otx, *_), x in zip(batch, row)
                           if oai != ai or odi != di]
            if _heard(row[i], closing, tx_dbm, interferers, ccfg):
                records.append((arrivals[lo], macs[di], circulation, bit))
    return np.array(records, RECORD).view(np.recarray)


def reference_run(graph, traces, plan, target=None):
    anchors, duration_s, proto = plan.anchors, plan.duration_s, plan.protocol
    energy_cfg, channel_cfg = plan.energy_cfg, plan.channel_cfg
    target = None if target is None else np.asarray(target, dtype=float)
    t_last = duration_s + _T_EPS
    beacon_air = ch.airtime_s(proto.beacon_bits, channel_cfg)
    response_air = ch.airtime_s(proto.response_bits, channel_cfg)
    rx_cost = ch.pulse_count(proto.beacon_bits) * energy_cfg.cost_rx_pulse
    tx_cost = ch.pulse_count(proto.response_bits) * energy_cfg.cost_tx_pulse
    anchor_pos = [np.asarray(a.position, dtype=float) for a in anchors]
    anchor_tx = [a.tx_power_dbm if a.tx_power_dbm is not None else channel_cfg.tx_power_dbm
                 for a in anchors]
    ranges = [_max_range_cm(tx, channel_cfg) for tx in anchor_tx]
    samples = [(float(m), _SAMPLE, None) for m in range(math.floor(t_last) + 1)]

    device_rows, responses, consumed_pj = [], [], {}
    for di, trace in enumerate(traces):
        stride = int(round((1.0 / plan.sense_rate_hz) / (trace.times[1] - trace.times[0])))
        beacons = _reference_beacons(_reference_schedule(trace, graph), anchors, anchor_pos,
                                     anchor_tx, ranges, channel_cfg, beacon_air, duration_s)
        times = np.asarray(trace.times, dtype=float)
        ticks = np.arange(0, len(times), stride)
        ticks = ticks[times[ticks] <= t_last]
        hits = _sense_hits(np.asarray(trace.positions, dtype=float)[ticks], target,
                           plan.detection_radius_cm)
        timeline = ([(b[0], _BEACON, b) for b in beacons]
                    + [(t, _SENSE, hit) for t, hit in zip(times[ticks].tolist(), hits.tolist())]
                    + samples)
        timeline.sort(key=itemgetter(0, 1))
        state = EnergyState()
        last_adv = last_reset = consumed = 0.0
        last_delivered = None
        event_bit, responded = 0, False
        rows = []
        for t, kind, item in timeline:
            if t > last_adv:
                advance_harvest(state, t - last_adv, energy_cfg)
                last_adv = t
            if kind == _SAMPLE:
                rows.append((t, trace.device_id, state.energy * 1e12, int(state.powered)))
            elif kind == _SENSE:
                if state.powered and try_consume(state, energy_cfg.cost_sense, energy_cfg) is not None:
                    consumed += energy_cfg.cost_sense
                    if item:
                        event_bit = 1
            else:
                _, ai, p, closing, rx_dbm, in_heart = item
                if not state.powered or try_consume(state, rx_cost, energy_cfg) is None:
                    continue
                consumed += rx_cost
                gap = proto.episode_gap_intervals * anchors[ai].beacon_interval_s
                if last_delivered is None or t - last_delivered > gap + _T_EPS:
                    responded = False
                last_delivered = t
                circulation, bit = t - last_reset, event_bit
                if in_heart:
                    last_reset, event_bit = t, 0
                if responded or try_consume(state, tx_cost, energy_cfg) is None:
                    continue
                consumed += tx_cost
                responded = True
                t_rx = t + beacon_air + response_air
                if t_rx <= t_last:
                    responses.append((t_rx, ai, di, p, rx_dbm + channel_cfg.backscatter_gain_db,
                                      closing, circulation, bit))
        device_rows.append(rows)
        consumed_pj[trace.device_id] = consumed * 1e12
    responses.sort(key=itemgetter(0, 1, 2))
    records = sorted(_reference_responses(responses, anchor_pos, channel_cfg,
                                          [trace.device_id for trace in traces]),
                     key=lambda r: (r.report_time_s, r.device_mac))
    return SimResult(records, [row for group in zip(*device_rows) for row in group],
                     consumed_pj)


def _bits(result: SimResult):
    return ([(r.report_time_s.hex(), r.device_mac, r.circulation_time_s.hex(), r.event_bit)
             for r in result.records],
            [(t.hex(), mac, pj.hex(), powered) for t, mac, pj, powered in result.energy_rows],
            {mac: pj.hex() for mac, pj in result.consumed_pj.items()})


@st.composite
def cases(draw):
    n_anchors = draw(st.integers(1, 3))
    anchors = [Anchor(mac=i, position=p,
                      beacon_interval_s=draw(st.sampled_from([0.025, 0.05, 0.1])))
               for i, p in enumerate(draw(st.permutations(POSITIONS))[:n_anchors])]
    duration = draw(st.sampled_from([20.0, 45.0, 90.0, 37.5]))
    traces = simulate_mobility(GRAPH, draw(st.integers(1, 4)), math.ceil(duration),
                               seed=draw(st.integers(0, 2**16)))
    rate = draw(st.sampled_from([1, 3]))
    traces = [upsample_trace(tr, 3, 0.2, tr.device_id) for tr in traces]
    shift = draw(st.sampled_from([0.0, 0.05, 0.21]))
    if shift:   # sense ticks off the whole seconds: samples are harvest points of their own
        traces = [MobilityTrace(tr.device_id, tr.times + shift, tr.positions, tr.vessel_ids,
                                tr.visit_times + shift, tr.visit_vessels)
                  for tr in traces]
    target = None
    if draw(st.booleans()):   # a point some device passes, so event bits of 1 occur
        tr = draw(st.sampled_from(traces))
        target = tuple(tr.positions[draw(st.integers(0, len(tr.times) - 1))])
    radius = draw(st.sampled_from([1.0, 3.0]))
    e_max = draw(st.sampled_from([100e-12, 300e-12, 800e-12]))
    on = e_max * draw(st.sampled_from([0.02, 0.1, 0.5]))
    cfg = EnergyConfig(v_g=draw(st.floats(0.3, 0.6)), e_max=e_max, e_turn_on=on,
                       t_cycle=draw(st.sampled_from([0.02, 0.0031, 0.11])),
                       e_turn_off=on * draw(st.sampled_from([0.0, 0.5, 0.9])),
                       cost_tx_pulse=draw(st.sampled_from([0.0, 0.5e-12, 1e-12])),
                       cost_rx_pulse=draw(st.sampled_from([0.0, 0.2e-12, 1e-12])),
                       cost_sense=draw(st.sampled_from([0.0, 1e-12, 0.3 * on, 2.0 * on])))
    plan = SimPlan(duration_s=duration, detection_radius_cm=radius, sense_rate_hz=rate,
                   anchors=anchors, energy_cfg=cfg)
    return plan, traces, target


@settings(max_examples=40, deadline=None)
@given(cases(), st.booleans(), st.sampled_from([None, 30, 400]))
def test_run_simulation_matches_the_per_tick_reference(case, energy_rows, grid_limit):
    plan, traces, target = case
    limit = energy._GRID_LIMIT if grid_limit is None else grid_limit
    with mock.patch.object(energy, "_GRID_LIMIT", limit):
        want = _bits(reference_run(GRAPH, traces, plan, target))
        got = _bits(run_simulation(GRAPH, traces, plan, target, energy_rows=energy_rows))
    assert got[0] == want[0]
    assert got[2] == want[2]
    assert got[1] == (want[1] if energy_rows else [])


def test_reference_cases_reach_refusals_and_power_off():
    # the kind of case the property draws does switch devices off and refuse spends
    anchors = [Anchor(0, POSITIONS[0], 0.025), Anchor(1, POSITIONS[1], 0.05)]
    traces = [upsample_trace(tr, 3, 0.2, tr.device_id)
              for tr in simulate_mobility(GRAPH, 3, 90.0, seed=5)]
    cfg = EnergyConfig(e_max=100e-12, e_turn_on=50e-12, e_turn_off=25e-12,
                       cost_rx_pulse=1e-12, cost_sense=15e-12)
    plan = SimPlan(duration_s=90.0, sense_rate_hz=3, anchors=anchors, energy_cfg=cfg)
    target = tuple(traces[0].positions[40])
    result = run_simulation(GRAPH, traces, plan, target)
    powered = [row[3] for row in result.energy_rows if row[1] == 0]
    assert 1 in powered and any(a == 1 and b == 0 for a, b in zip(powered, powered[1:]))
    assert _bits(result) == _bits(reference_run(GRAPH, traces, plan, target))


def test_samples_stay_harvest_points_without_rows():
    # ticks off the whole seconds: harvesting in two steps around a sample
    # rounds the cycle phase differently from one step, and here that moves
    # whole cycles, so dropping the samples with the rows would change
    # consumption (135 pJ instead of 138 pJ per device)
    traces = [MobilityTrace(tr.device_id, tr.times + 0.21, tr.positions, tr.vessel_ids,
                            tr.visit_times + 0.21, tr.visit_vessels)
              for tr in (upsample_trace(tr, 3, 0.2, 1)
                         for tr in simulate_mobility(GRAPH, 2, 40.0, seed=302))]
    cfg = EnergyConfig(t_cycle=0.11, e_max=100e-12, e_turn_on=5e-12, e_turn_off=2.5e-12,
                       cost_sense=3e-12)
    args = (GRAPH, traces, SimPlan(duration_s=39.0, sense_rate_hz=3,
                                   anchors=[Anchor(0, POSITIONS[0], 0.03)], energy_cfg=cfg))
    with_rows, without = run_simulation(*args), run_simulation(*args, energy_rows=False)
    assert without.energy_rows.tolist() == [] and len(with_rows.energy_rows) == 2 * 40
    assert _bits(without)[::2] == _bits(with_rows)[::2] == _bits(reference_run(*args))[::2]
    assert without.consumed_pj == {0: 138.0, 1: 138.0}


def _table_case(cfg, devices=2, seed=21):
    # sense ticks off the whole seconds, so each energy sample is a harvest of
    # its own and a harvest can follow a harvest
    traces = [MobilityTrace(tr.device_id, tr.times + 0.21, tr.positions, tr.vessel_ids,
                            tr.visit_times + 0.21, tr.visit_vessels)
              for tr in (upsample_trace(tr, 3, 0.2, tr.device_id)
                         for tr in simulate_mobility(GRAPH, devices, 30.0, seed=seed))]
    plan = SimPlan(duration_s=29.0, anchors=[Anchor(0, POSITIONS[0], 0.05)], energy_cfg=cfg)
    return (GRAPH, traces, plan, tuple(traces[0].positions[30]))


def test_two_sensing_costs_on_one_curve_step_like_the_reference():
    # one curve, a drop table per sensing cost: runs that alternate between
    # the two costs each step as the per-tick reference does
    tables = {}
    for cost in (1e-12, 4e-12, 1e-12, 4e-12):
        cfg = EnergyConfig(v_g=0.45, e_max=700e-12, e_turn_on=5e-12, cost_sense=cost)
        case = _table_case(cfg)
        assert _bits(run_simulation(*case)) == _bits(reference_run(*case))
        tables[cost] = energy.charge_tables(cfg)
    assert tables[1e-12][:2] == tables[4e-12][:2]
    assert tables[1e-12][2] != tables[4e-12][2]


def test_a_curve_evicted_from_the_grid_cache_steps_like_the_reference():
    # nine other curves evict the first one's grid from the eight-entry
    # cache; the grid and tables it is built again with are the same
    cfgs = [EnergyConfig(v_g=0.46 + 0.001 * i, e_max=777e-12, e_turn_on=5e-12)
            for i in range(10)]
    first = None
    for cfg in cfgs + cfgs[:1]:
        case = _table_case(cfg)
        assert _bits(run_simulation(*case)) == _bits(reference_run(*case))
        first = first or energy.charge_tables(cfg)
    assert energy.charge_tables(cfgs[0]) is not first
    assert energy.charge_tables(cfgs[0]) == first and len(first[0]) > 100


def test_free_sense_ticks_on_the_flat_of_a_saturating_curve_step_like_the_reference():
    # a time constant of about 11 cycles: within the run the devices charge
    # into the stretch just below e_max where consecutive cycle counts share
    # one float64 energy, so a harvest from grid[n] starts at low[n] < n.
    # Sensing costs nothing, so a paid sense tick leaves the energy on its
    # grid entry
    cfg = EnergyConfig(v_g=0.6, delta_q=3e-11, t_cycle=0.05, e_max=100e-12, e_turn_on=5e-12,
                       cost_sense=0.0)
    case = _table_case(cfg, devices=3, seed=8)
    assert _bits(run_simulation(*case)) == _bits(reference_run(*case))
    grid, low, drop = energy.charge_tables(cfg)
    assert low == drop
    assert sum(low[n] != n for n in range(len(grid))) > 10


def test_runs_of_one_config_fetch_the_tables_in_constant_time():
    # the tables are cached under float keys: a second and a third run of one
    # config build nothing and hash no table (a key holding the 23,767-entry
    # default grid would hash all of it on every fetch)
    case = _table_case(EnergyConfig(v_g=0.47, e_turn_on=5e-12))   # a curve no other test uses
    first = _bits(run_simulation(*case))
    misses = energy._charge_tables.cache_info().misses
    with mock.patch.object(energy, "_charge_tables", wraps=energy._charge_tables) as fetch:
        assert _bits(run_simulation(*case)) == _bits(run_simulation(*case)) == first
    assert energy._charge_tables.cache_info().misses == misses
    assert 0 < fetch.call_count <= 4
    assert all(type(arg) in (float, int) for call in fetch.call_args_list for arg in call.args)


# ---- the edges of a paid sense tick ---------------------------------------
# One device and an anchor it never hears, so every tick after the first is
# a step from the tick before.  From turning on, this device pays more per
# tick than it harvests.
STEADY_EDGE = EnergyConfig(e_max=100e-12, e_turn_on=50e-12, cost_sense=15e-12)


def _free_case(cfg):
    traces = [upsample_trace(simulate_mobility(GRAPH, 1, 40.0, seed=3)[0], 3, 0.2, 0)]
    plan = SimPlan(duration_s=39.0, anchors=[Anchor(0, (50.0, 50.0, 50.0), 0.05)], energy_cfg=cfg)
    assert not any(_beacon_times(traces, plan))
    return traces, plan


def _free_ticks(traces, plan):
    """(powered before, energy after the harvest, paid, energy, powered) at
    each sense tick of the first device, stepped as the reference steps it."""
    cfg, state, last, ticks = plan.energy_cfg, EnergyState(), 0.0, []
    times = traces[0].times
    for t in times[times <= plan.duration_s + _T_EPS].tolist():
        advance_harvest(state, t - last, cfg)
        last, powered, harvested = t, state.powered, state.energy
        paid = powered and try_consume(state, cfg.cost_sense, cfg) is not None
        ticks.append((powered, harvested, paid, state.energy, state.powered))
    return ticks


def test_a_pay_that_leaves_exactly_e_turn_off_powers_the_device_off():
    # e_turn_off is the energy the fourth paid tick leaves: the three before
    # leave more, so that pay still comes, lands on e_turn_off and powers off
    traces, plan = _free_case(STEADY_EDGE)
    left = [e for _, _, paid, e, _ in _free_ticks(traces, plan) if paid]
    plan = replace(plan, energy_cfg=replace(STEADY_EDGE, e_turn_off=left[3]))
    assert any(was and paid and e == left[3] and not on
               for was, _, paid, e, on in _free_ticks(traces, plan))
    _same_as_reference(traces, plan)


def test_a_grid_entry_equal_to_cost_sense_pays_down_to_zero():
    # sensing costs grid[43], and the powered device harvests onto that
    # entry: it pays all of it and powers off at 0 J
    cost = energy.charge_tables(STEADY_EDGE)[0][43]
    traces, plan = _free_case(replace(STEADY_EDGE, cost_sense=cost))
    assert any(was and harvested == cost and paid and e == 0.0 and not on
               for was, harvested, paid, e, on in _free_ticks(traces, plan))
    _same_as_reference(traces, plan)


def test_free_sense_ticks_at_e_max_step_like_the_reference():
    # the curve reaches e_max within the run and sensing costs nothing: a
    # tick at e_max harvests nothing, and its pay leaves e_max
    cfg = EnergyConfig(v_g=0.6, delta_q=6e-11, t_cycle=0.05, e_max=100e-12, e_turn_on=5e-12,
                       cost_sense=0.0)
    traces, plan = _free_case(cfg)
    assert sum(was and harvested == cfg.e_max
               for was, harvested, *_ in _free_ticks(traces, plan)) > 50
    _same_as_reference(traces, plan)


def test_harvests_past_a_grid_cut_short_step_like_the_reference():
    # a 45-entry grid ends at 18 pJ, below what the paying device harvests
    # to: harvests from the grid land past its end, where the closed form
    # takes over (and the compiled scan hands the device back to Python)
    with mock.patch.object(energy, "_GRID_LIMIT", 45):
        traces, plan = _free_case(STEADY_EDGE)
        end = energy.charge_tables(STEADY_EDGE)[0][-1]
        ticks = _free_ticks(traces, plan)
        assert sum(was and harvested > end >= e_before for (was, harvested, *_), e_before
                   in zip(ticks, [0.0] + [tick[3] for tick in ticks])) > 10
        _same_as_reference(traces, plan)


def _shifted(traces, shift):
    return [MobilityTrace(tr.device_id, tr.times + shift, tr.positions, tr.vessel_ids,
                          tr.visit_times + shift, tr.visit_vessels) for tr in traces]


def _beacon_times(traces, plan):
    """Per device, the times of the beacons it decodes in a run of the plan."""
    anchor_pos = np.array([a.position for a in plan.anchors], dtype=float)
    beacon_air = ch.airtime_s(plan.protocol.beacon_bits, plan.channel_cfg)
    decoded = _decoded_beacons(_visit_schedule(traces, GRAPH, plan.duration_s), plan.anchors,
                               anchor_pos, [plan.channel_cfg.tx_power_dbm] * len(plan.anchors),
                               plan.channel_cfg, beacon_air, plan.duration_s)
    return [[b[0] for b in beacons] for beacons in decoded]


def _same_as_reference(traces, plan, target=None):
    want = _bits(reference_run(GRAPH, traces, plan, target))
    for rows in (True, False):
        got = _bits(run_simulation(GRAPH, traces, plan, target, energy_rows=rows))
        assert got[0] == want[0] and got[2] == want[2]
        assert got[1] == (want[1] if rows else [])


def test_beacons_at_tick_times_come_before_the_tick():
    # k * 0.1 s is a whole second for every tenth k, and so is every third
    # sense tick: the beacon harvests, and the tick after it harvests nothing
    traces = [upsample_trace(tr, 3, 0.2, tr.device_id)
              for tr in simulate_mobility(GRAPH, 10, 200.0, seed=5)]
    cfg = EnergyConfig(t_cycle=0.07, e_max=200e-12, e_turn_on=20e-12, e_turn_off=5e-12,
                       cost_rx_pulse=0.5e-12, cost_sense=2e-12)
    plan = SimPlan(duration_s=200.0, anchors=[Anchor(0, POSITIONS[0], 0.1),
                                              Anchor(1, POSITIONS[1], 0.07)], energy_cfg=cfg)
    on_tick = sum(t == round(t) for times in _beacon_times(traces, plan) for t in times)
    assert on_tick >= 5
    _same_as_reference(traces, plan, tuple(traces[0].positions[200]))


@pytest.mark.parametrize("seed, tie", [(23, False), (7, True)])
def test_hit_ticks_next_to_beacons_step_like_the_reference(seed, tie):
    # the target sits where a device decodes beacons, so ticks that see it
    # come right before and right after beacons, and with seed 7 one at a
    # beacon's time: each is taken in time order, and the beacon comes first
    # at the tie
    traces = [upsample_trace(tr, 3, 0.2, tr.device_id)
              for tr in simulate_mobility(GRAPH, 4, 90.0, seed=seed)]
    plan = SimPlan(duration_s=90.0, detection_radius_cm=3.0,
                   anchors=[Anchor(0, POSITIONS[0], 0.025)],
                   energy_cfg=EnergyConfig(e_max=100e-12, e_turn_on=5e-12, cost_rx_pulse=0.2e-12))
    device = next(d for d, times in enumerate(_beacon_times(traces, plan)) if times)
    beacons = _beacon_times(traces, plan)[device]
    tick_t = traces[device].times
    target = tuple(traces[device].positions[np.searchsorted(tick_t, beacons[len(beacons) // 2])])
    hits = _sense_hits(traces[device].positions, np.asarray(target), 3.0).nonzero()[0]
    after = {int(np.searchsorted(tick_t, t)) for t in beacons}   # first tick at or after each
    before, hits = {i - 1 for i in after}, set(hits.tolist())
    tied = {i for i in after if tick_t[i] in beacons}
    assert before & hits and after & hits and bool(tied & hits) == tie
    _same_as_reference(traces, plan, target)


def test_a_beacon_at_a_hit_tick_is_answered_before_the_tick_senses():
    # the one tick that sees the target is at a beacon's time, and every
    # beacon opens an episode: the response carries the bit from before the tick
    traces = [upsample_trace(tr, 3, 0.2, tr.device_id)
              for tr in simulate_mobility(GRAPH, 4, 90.0, seed=7)]
    plan = SimPlan(duration_s=90.0, detection_radius_cm=1e-9,
                   anchors=[Anchor(0, POSITIONS[0], 0.025)],
                   protocol=ProtocolParams(episode_gap_intervals=0.5),
                   energy_cfg=EnergyConfig(e_max=100e-12, e_turn_on=5e-12))
    tie = next(t for t in _beacon_times(traces, plan)[0] if t in traces[0].times)
    target = tuple(traces[0].positions[np.searchsorted(traces[0].times, tie)])
    records = run_simulation(GRAPH, traces, plan, target).records
    answers = [r.event_bit for r in records if r.device_mac == 0 and r.report_time_s > tie]
    assert answers[:2] == [0, 1]
    _same_as_reference(traces, plan, target)


@pytest.mark.parametrize("anchor", [POSITIONS[0], (50.0, 50.0, 50.0)], ids=["near", "far"])
def test_cycles_longer_than_the_tick_spacing_step_like_the_reference(anchor):
    # a 0.5 s cycle against 1/3 s ticks: some ticks harvest no cycle, so two
    # paid ticks in a row leave no table index and the next harvest bisects.
    # With the far anchor no beacon is decoded, so every energy_after call
    # of the Python scan comes from a tick's harvest (the compiled scan
    # bisects in C)
    traces = [upsample_trace(tr, 3, 0.2, tr.device_id)
              for tr in simulate_mobility(GRAPH, 3, 60.0, seed=31)]
    cfg = EnergyConfig(t_cycle=0.5, delta_q=3e-11, e_max=100e-12, e_turn_on=5e-12,
                       cost_sense=0.5e-12)
    plan = SimPlan(duration_s=60.0, anchors=[Anchor(0, anchor, 0.05)], energy_cfg=cfg)
    with mock.patch("nanoflow.simcore.energy_after", wraps=energy.energy_after) as after, \
            mock.patch.object(simcore, "_scan_kernel", lambda: None):
        run_simulation(GRAPH, traces, plan, energy_rows=False)
    assert after.call_count > 10
    assert anchor == POSITIONS[0] or not any(_beacon_times(traces, plan))
    _same_as_reference(traces, plan, tuple(traces[1].positions[90]))


def test_devices_on_different_time_grids_share_one_run():
    # four devices on three time grids: 1/3 s, 1/6 s (a tick every second
    # sample) and 1/3 s shifted by 0.21 s.  Each grid is built once
    base = simulate_mobility(GRAPH, 4, 45.0, seed=41)
    traces = [upsample_trace(base[0], 3, 0.2, 0), upsample_trace(base[1], 6, 0.2, 1),
              *_shifted([upsample_trace(base[2], 3, 0.2, 2)], 0.21),
              upsample_trace(base[3], 3, 0.2, 3)]
    plan = SimPlan(duration_s=44.0, anchors=[Anchor(0, POSITIONS[0], 0.05)],
                   energy_cfg=EnergyConfig(e_max=100e-12, e_turn_on=5e-12, cost_rx_pulse=1e-12))
    simcore._TICK_GRIDS.clear()
    with mock.patch("nanoflow.simcore._tick_grid", wraps=simcore._tick_grid) as build:
        run_simulation(GRAPH, traces, plan)
    assert build.call_count == 3
    _same_as_reference(traces, plan, tuple(traces[1].positions[100]))


def test_cached_tick_grids_stay_as_built():
    # runs share each time grid's tick grid through a per-process cache.  Two
    # runs on three time grids, through beacons, ticks that see the target
    # and energy rows, build each grid once and leave it equal to a fresh
    # build; the cache keeps the last 8 grids
    simcore._TICK_GRIDS.clear()
    base = simulate_mobility(GRAPH, 3, 45.0, seed=41)
    traces = [upsample_trace(base[0], 3, 0.2, 0), upsample_trace(base[1], 6, 0.2, 1),
              *_shifted([upsample_trace(base[2], 3, 0.2, 2)], 0.21)]
    plan = SimPlan(duration_s=44.0, anchors=[Anchor(0, POSITIONS[0], 0.05)],
                   energy_cfg=EnergyConfig(e_max=100e-12, e_turn_on=5e-12, cost_rx_pulse=1e-12))
    target = tuple(traces[1].positions[100])
    with mock.patch("nanoflow.simcore._tick_grid", wraps=simcore._tick_grid) as build:
        first = _bits(run_simulation(GRAPH, traces, plan, target))
        assert _bits(run_simulation(GRAPH, traces, plan, target)) == first
    assert build.call_count == 3
    assert all(_beacon_times(traces, plan)) and any(bit for *_, bit in first[0]) and first[1]
    for trace in traces:
        ticks, packed = simcore._cached_tick_grid(trace, 3, 44.0)
        want_ticks, want = simcore._tick_grid(trace, 3, 44.0)
        assert ticks == want_ticks and packed[2] == want[2]
        assert all(np.array_equal(a, b) for a, b in zip(packed[:2], want[:2]))
        assert not any(a.flags.writeable for a in packed[:2])
    for shift in range(1, 12):
        run_simulation(GRAPH, _shifted(traces[:1], shift * 0.01), plan, energy_rows=False)
    assert len(simcore._TICK_GRIDS) == 8


def test_a_run_hashes_each_time_grid_once():
    # traces on one time grid take the grid of the trace before them: a run
    # of six devices on two grids, in runs of three, looks the cache up twice
    base = simulate_mobility(GRAPH, 6, 45.0, seed=41)
    traces = [upsample_trace(tr, 3, 0.2, tr.device_id) for tr in base[:3]]
    traces += _shifted([upsample_trace(tr, 3, 0.2, tr.device_id) for tr in base[3:]], 0.21)
    plan = SimPlan(duration_s=44.0, anchors=[Anchor(0, POSITIONS[0], 0.05)],
                   energy_cfg=EnergyConfig(e_max=100e-12, e_turn_on=5e-12))
    with mock.patch("nanoflow.simcore._cached_tick_grid",
                    wraps=simcore._cached_tick_grid) as fetch:
        grids = simcore._tick_grids(traces, 3, 44.0)
        result = run_simulation(GRAPH, traces, plan)
    assert fetch.call_count == 4
    assert [id(grid) for grid in grids] == [id(grids[0])] * 3 + [id(grids[3])] * 3
    assert grids[0] is not grids[3]
    assert _bits(result) == _bits(reference_run(GRAPH, traces, plan))


@pytest.mark.parametrize("shift", [0.21, 1 / 3, 0.5])
def test_rows_on_and_off_on_shifted_ticks_step_like_the_reference(shift):
    # shifted by 1/3 s, some ticks land on whole seconds and some miss them
    # by an ulp, so samples on and off the tick grid come in one run
    traces = _shifted([upsample_trace(tr, 3, 0.2, tr.device_id)
                       for tr in simulate_mobility(GRAPH, 3, 40.0, seed=53)], shift)
    cfg = EnergyConfig(t_cycle=0.11, e_max=100e-12, e_turn_on=5e-12, e_turn_off=2.5e-12,
                       cost_sense=3e-12, cost_tx_pulse=0.5e-12)
    plan = SimPlan(duration_s=39.0, anchors=[Anchor(0, POSITIONS[0], 0.05)], energy_cfg=cfg)
    on_grid = np.isin(np.arange(40.0), traces[0].times)
    assert on_grid.any() and not on_grid.all() if shift == 1 / 3 else not on_grid.any()
    _same_as_reference(traces, plan, tuple(traces[2].positions[60]))


ROW_SEAM_ENERGY = EnergyConfig(e_max=100e-12, e_turn_on=5e-12, e_turn_off=2.5e-12,
                               cost_sense=2e-12, cost_rx_pulse=0.2e-12)


def test_a_row_tick_that_sees_the_target_records_after_the_tick_senses():
    # the one tick that sees the target is at 30 s, and the 30 s row comes
    # after the tick harvests and pays for sensing
    traces = [upsample_trace(tr, 3, 0.2, tr.device_id)
              for tr in simulate_mobility(GRAPH, 3, 60.0, seed=1)]
    plan = SimPlan(duration_s=60.0, detection_radius_cm=1e-9,
                   anchors=[Anchor(0, POSITIONS[0], 0.05)], energy_cfg=ROW_SEAM_ENERGY)
    target = tuple(traces[0].positions[90])
    assert traces[0].times[90] == 30.0
    hits = [_sense_hits(tr.positions, np.asarray(target), 1e-9).nonzero()[0].tolist()
            for tr in traces]
    assert hits == [[90], [], []]
    row = [r for r in reference_run(GRAPH, traces, plan, target).energy_rows if r[:2] == (30.0, 0)]
    assert row[0][3] == 1   # powered, so the tick spends
    _same_as_reference(traces, plan, target)


def test_a_row_tick_right_after_a_beacon_records_after_the_tick_senses():
    # beacons every 25 ms fall between the tick before a whole second and the
    # tick on it: that tick harvests from the beacon's time, and the second's
    # row comes after it
    traces = [upsample_trace(tr, 3, 0.2, tr.device_id)
              for tr in simulate_mobility(GRAPH, 8, 120.0, seed=2)]
    plan = SimPlan(duration_s=120.0, anchors=[Anchor(0, POSITIONS[0], 0.025)],
                   energy_cfg=ROW_SEAM_ENERGY)
    before = [t for times in _beacon_times(traces, plan) for t in times
              if 0.0 < math.ceil(t) - t < 1 / 3]
    assert len(before) >= 20
    _same_as_reference(traces, plan)


@pytest.mark.parametrize("shift", [0.0, 0.21])
def test_a_beacon_at_a_whole_second_comes_before_the_row(shift):
    # 0.125 s beacons land on whole seconds exactly: the beacon comes first,
    # then the tick at that second (none when shifted), then the row
    traces = _shifted([upsample_trace(tr, 3, 0.2, tr.device_id)
                       for tr in simulate_mobility(GRAPH, 8, 120.0, seed=0)], shift)
    plan = SimPlan(duration_s=119.0, anchors=[Anchor(0, POSITIONS[0], 0.125)],
                   energy_cfg=ROW_SEAM_ENERGY)
    whole = [t for times in _beacon_times(traces, plan) for t in times if t == round(t)]
    assert len(whole) >= 2
    _same_as_reference(traces, plan)


@pytest.mark.parametrize("duration", [37.4, 38.5, 39.9])
def test_a_duration_short_of_a_whole_second_keeps_a_row_per_second(duration):
    # ticks run past the last whole second, and the rows stop at it
    traces = [upsample_trace(tr, 3, 0.2, tr.device_id)
              for tr in simulate_mobility(GRAPH, 3, 40.0, seed=53)]
    plan = SimPlan(duration_s=duration, anchors=[Anchor(0, POSITIONS[0], 0.05)],
                   energy_cfg=ROW_SEAM_ENERGY)
    rows = run_simulation(GRAPH, traces, plan).energy_rows
    assert len(rows) == 3 * (math.floor(duration) + 1) and rows[-1]["time"] < duration
    _same_as_reference(traces, plan, tuple(traces[2].positions[60]))


@pytest.mark.parametrize("edit", ["repeat", "swap", "repeat_first", "stretch"])
def test_trace_times_that_do_not_strictly_increase_are_rejected(edit):
    # the scan steps tick to tick, so it takes time grids that strictly
    # increase only, and evenly: a tick falls every 1 / (sense rate * period)
    # samples, so 1/3 s steps stretched to 0.5 s from sample 60 on would sense at 2 Hz there
    tr = upsample_trace(simulate_mobility(GRAPH, 1, 30.0, seed=2)[0], 3, 0.2, 0)
    times = tr.times.copy()
    if edit == "repeat":
        times[10] = times[9]
    elif edit == "repeat_first":   # a period of 0 s
        times[1] = times[0]
    elif edit == "swap":
        times[[10, 11]] = times[[11, 10]]
    else:
        times[60:] = 20.0 + 0.5 * np.arange(len(times) - 60)
    bad = MobilityTrace(tr.device_id, times, tr.positions, tr.vessel_ids, tr.visit_times,
                        tr.visit_vessels)
    why = "are not evenly spaced" if edit == "stretch" else "do not strictly increase"
    with pytest.raises(ConfigMismatch, match=f"^device 0: trace times {why}$"):
        run_simulation(GRAPH, [bad], SimPlan(duration_s=29.0))


def test_row_dots_are_the_per_vector_dot_and_norm_bit_for_bit():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(20000, 3)) * rng.choice([1e-6, 1e-3, 1.0, 10.0, 1e3], size=(20000, 1))
    b = rng.normal(size=(20000, 3))
    a[:20] = 0.0   # zero offsets: a device exactly at an anchor
    a[20:40, 1:] = 0.0
    dots, norms = _row_dots(a, b), np.sqrt(_row_dots(a, a))
    assert [d.hex() for d in dots.tolist()] == [float(np.dot(x, y)).hex() for x, y in zip(a, b)]
    assert [n.hex() for n in norms.tolist()] == [float(np.linalg.norm(x)).hex() for x in a]
    assert _row_dots(a[:0], b[:0]).shape == (0,)


def _scalar_windows(vdev, vt, ends, vstart, vvel, anchor_pos, radius_cm):
    """_visit_windows as one loop over the visits, a math.sqrt per visit."""
    w = vstart - anchor_pos
    aa = np.einsum("ij,ij->i", vvel, vvel)
    bb = 2.0 * np.einsum("ij,ij->i", w, vvel)
    cc = np.einsum("ij,ij->i", w, w) - radius_cm * radius_cm
    disc = bb * bb - 4.0 * aa * cc
    hit = np.nonzero(((aa > 0.0) & (disc >= 0.0)) | ((aa == 0.0) & (cc <= 0.0)))[0]
    for d, start, end, a, b, dd in zip(*(x[hit].tolist() for x in (vdev, vt, ends, aa, bb, disc))):
        dwell = end - start
        if dwell <= 0:
            continue
        if a > 0.0:
            root = math.sqrt(dd)
            tau0 = max((-b - root) / (2.0 * a), 0.0)
            tau1 = min((-b + root) / (2.0 * a), dwell)
            if tau0 >= tau1:
                continue
        else:
            tau0, tau1 = 0.0, dwell
        yield d, start + tau0, start + tau1


def test_visit_windows_at_rest_and_on_a_tangent_equal_the_scalar_loop():
    # (start, velocity, dwell) against an anchor at the origin with a 2 cm range
    placed = [((0.5, 0.0, 0.0), (0.0, 0.0, 0.0), 5.0),    # at rest inside: aa == 0
              ((2.0, 0.0, 0.0), (0.0, 0.0, 0.0), 5.0),    # at rest on the sphere: cc == 0
              ((3.0, 0.0, 0.0), (0.0, 0.0, 0.0), 5.0),    # at rest outside
              ((-3.0, 2.0, 0.0), (1.0, 0.0, 0.0), 9.0),   # a tangent pass: disc == 0
              ((-3.0, 1.0, 0.0), (1.0, 0.0, 0.0), 9.0),   # a chord, crossed whole
              ((-3.0, 1.0, 0.0), (1.0, 0.0, 0.0), 3.0),   # cut by the end of the visit
              ((-3.0, 1.0, 0.0), (1.0, 0.0, 0.0), 1.0),   # over before the chord
              ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 1.0),    # in range when the visit starts
              ((0.5, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0)]    # no dwell
    rng = np.random.default_rng(18)
    n = 4000
    vstart = np.concatenate(([p for p, _, _ in placed], rng.normal(0.0, 2.5, (n, 3))))
    vvel = np.concatenate(([v for _, v, _ in placed],
                           rng.normal(0.0, 3.0, (n, 3)) * (rng.random((n, 1)) > 0.1)))
    dwell = np.concatenate(([d for _, _, d in placed], rng.uniform(-0.5, 4.0, n)))
    vt = np.concatenate((np.zeros(len(placed)), rng.uniform(0.0, 100.0, n)))
    args = (np.arange(len(vt)) // 5, vt, vt + dwell, vstart, vvel, np.zeros(3), 2.0)
    got = list(zip(*(x.tolist() for x in _visit_windows(*args))))
    assert ([(d, t0.hex(), t1.hex()) for d, t0, t1 in got]
            == [(d, t0.hex(), t1.hex()) for d, t0, t1 in _scalar_windows(*args)])
    chord = (3.0 - math.sqrt(3.0), 3.0 + math.sqrt(3.0))
    assert got[:5] == [(0, 0.0, 5.0), (0, 0.0, 5.0), (0, *chord), (1, chord[0], 3.0),
                       (1, 0.0, 1.0)]
    aa, bb = np.einsum("ij,ij->i", vvel, vvel), 2.0 * np.einsum("ij,ij->i", vstart, vvel)
    disc = bb * bb - 4.0 * aa * (np.einsum("ij,ij->i", vstart, vstart) - 4.0)
    assert disc[3] == 0.0 and (aa == 0.0).sum() > 300 and len(got) > 500


def _listed_instants(dev, t0, t1, interval, t_end):
    """One anchor's beacon instants in the windows, as decode_beacons' loop
    over the window tuples listed them: (devices, times)."""
    devs, times, device = [], [], -1
    for d, start, end in zip(dev, t0, t1):
        if d != device:
            device, k = d, 0
        k = max(k, math.ceil((start - _T_EPS) / interval) - 1)
        while True:
            t = k * interval
            if t > t_end or end < t - _T_EPS:
                break
            k += 1
            if start > t + _T_EPS:
                continue
            devs.append(d)
            times.append(t)
    return devs, times


def _beside(x, ulps):
    """x moved by ulps floats (-1, 0 or 1)."""
    return x if ulps == 0 else math.nextafter(x, math.copysign(math.inf, ulps))


@st.composite
def beacon_windows(draw):
    """(dev, t0, t1, interval, duration): each device's windows with ends on
    or one ulp beside k * interval, k * interval - _T_EPS or k * interval +
    _T_EPS; a window may start where the one before ended, inside it or
    before it (so k carries over), and past the duration."""
    interval = draw(st.sampled_from([0.02, 0.025, 0.03, 0.07, 0.1, 1 / 3, 1.0]))
    steps = draw(st.integers(1, 40))
    duration = draw(st.sampled_from([steps * interval, steps * interval + 0.5 * interval,
                                     steps * interval - _T_EPS]))

    def edge(k):
        return _beside(k * interval + draw(st.sampled_from([-_T_EPS, 0.0, _T_EPS])),
                       draw(st.integers(-1, 1)))

    dev, t0, t1 = [], [], []
    for d in range(draw(st.integers(1, 4))):
        k, end = draw(st.integers(-2, 4)), None
        for _ in range(draw(st.integers(0, 6))):
            k += draw(st.integers(-3, 5))
            start = end if end is not None and draw(st.booleans()) else edge(k)   # adjacent
            k += draw(st.integers(0, 4))
            end = max(start, edge(k))
            dev.append(d)
            t0.append(start)
            t1.append(end)
        if draw(st.booleans()):   # windows past the duration, over several intervals
            dev += [d, d]
            t0 += [edge(steps + 1), edge(steps + 5)]
            t1 += [edge(steps + 3), edge(steps + 9)]
    return dev, t0, t1, interval, duration


@settings(max_examples=300, deadline=None)
@given(beacon_windows())
def test_instants_equal_the_window_loop_bit_for_bit(case):
    # nf_instants where the library loads (test_scan_python.py: the Python
    # loop) against the loop decode_beacons ran over the window tuples
    dev, t0, t1, interval, duration = case
    got_dev, got_t = _instants(np.array(dev, np.int64), np.array(t0, float),
                               np.array(t1, float), interval, duration + _T_EPS)
    want_dev, want_t = _listed_instants(dev, t0, t1, interval, duration + _T_EPS)
    assert got_dev.dtype == np.int64 and got_t.dtype == np.float64
    assert got_dev.tolist() == want_dev
    assert [t.hex() for t in got_t.tolist()] == [t.hex() for t in want_t]


@pytest.mark.parametrize("start, error", [(1e300, None), (-1e300, None), (math.nan, ValueError),
                                          (math.inf, OverflowError)])
def test_instants_from_a_start_past_the_counter_range_are_listed_in_python(start, error):
    # the compiled loop counts k in 64 bits: a window whose first k would
    # leave (-2^62, 2^62) is listed by the Python loop, which raises where
    # math.ceil does
    dev, t0, t1 = [0, 0, 1], [0.5, start, 0.25], [1.0, 2e300, 0.5]
    args = (np.array(dev, np.int64), np.array(t0), np.array(t1), 0.1, 2.0 + _T_EPS)
    if error is not None:
        with pytest.raises(error):
            _instants(*args)
        return
    got_dev, got_t = _instants(*args)
    want = _listed_instants(dev, t0, t1, 0.1, 2.0 + _T_EPS)
    assert (got_dev.tolist(), got_t.tolist()) == want and len(want[0]) >= 9


MAP_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1e-310, math.inf,
             -math.inf, math.nan, -math.nan, 1e308, 1.7976931348623157e308, -1e308, 1e-300,
             1.0, 10.0, 3082.0, 3083.0, -3235.0, -3240.0, -3250.0, 709.78, 709.79, -745.2]


def _map_or_error(f, values):
    """(the floats f maps the values to, None), or (None, the exception type)."""
    try:
        return np.fromiter(map(f, values), float, len(values)), None
    except (ValueError, OverflowError) as exc:
        return None, type(exc)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([math.log10, ch.dbm_to_mw, math.expm1]),
       st.lists(st.sampled_from(MAP_EDGES) | st.floats(-4000.0, 4000.0)
                | st.floats(allow_nan=True, allow_infinity=True), max_size=40),
       st.sampled_from([0, 300]))
def test_scalar_maps_equal_the_python_maps_bit_for_bit(f, values, pad):
    # 256 values or more take nf_map where the library loads: each value as
    # the Python map gives it, NaN bits included, and where the Python map
    # raises, the same exception type
    values = values + [1.5] * pad
    want, error = _map_or_error(f, values)
    if error is not None:
        with pytest.raises(error):
            _scalar_map(f, np.array(values))
    else:
        assert _scalar_map(f, np.array(values)).tobytes() == want.tobytes()


@pytest.mark.parametrize("f, value, error", [
    (math.log10, 0.0, ValueError), (math.log10, -0.0, ValueError), (math.log10, -2.5, ValueError),
    (math.log10, -math.inf, ValueError), (ch.dbm_to_mw, 4000.0, OverflowError),
    (math.expm1, 710.0, OverflowError)])
def test_scalar_maps_raise_where_the_python_maps_raise(f, value, error):
    for values in ([value], [1.5] * 300 + [value] + [2.5] * 10):
        with pytest.raises(error):
            _scalar_map(f, np.array(values))


def _beacon_bits(beacons):
    return [(t.hex(), ai, p.tobytes(), closing.hex(), rx.hex(), heart, loss.hex(), penalty.hex())
            for t, ai, p, closing, rx, heart, loss, penalty in beacons]


def _reference_beacon_bits(beacons, anchor_pos, channel):
    """_beacon_bits of the reference's beacons, each with the path loss and
    Doppler penalty of its own distance and closing speed, from the scalar
    channel functions."""
    return _beacon_bits([
        (t, ai, p, closing, rx, heart,
         ch.path_loss_db(float(np.linalg.norm(p - anchor_pos[ai])), channel),
         ch.doppler_penalty_db(ch.doppler_shift_hz(closing, channel), channel))
        for t, ai, p, closing, rx, heart in beacons])


@pytest.mark.parametrize("seed", [4, 11])
def test_decoded_beacons_of_a_run_equal_the_per_device_reference(seed):
    # four contending anchors and a dozen devices: every device's beacons,
    # decoded in one pass over the run, equal its own scalar decode
    anchors = CONTENTION_ANCHORS
    channel, duration = ch.ChannelConfig(), 120.0
    beacon_air = ch.airtime_s(ProtocolParams().beacon_bits, channel)
    anchor_pos = [np.asarray(a.position, dtype=float) for a in anchors]
    anchor_tx = [channel.tx_power_dbm] * len(anchors)
    ranges = [_max_range_cm(tx, channel) for tx in anchor_tx]
    traces = simulate_mobility(GRAPH, 12, duration, seed=seed)
    got = _decoded_beacons(_visit_schedule(traces, GRAPH, duration), anchors,
                           np.array(anchor_pos), anchor_tx, channel, beacon_air, duration)
    want = [_reference_beacons(_reference_schedule(tr, GRAPH), anchors, anchor_pos, anchor_tx,
                               ranges, channel, beacon_air, duration) for tr in traces]
    assert ([_beacon_bits(b) for b in got]
            == [_reference_beacon_bits(b, anchor_pos, channel) for b in want])
    assert sum(map(len, want)) > 100


@pytest.mark.parametrize("anchors", [SimPlan().anchors, CONTENTION_ANCHORS],
                         ids=["default", "contention"])
def test_beacons_decoded_for_a_batch_of_runs_equal_each_run_decoded_alone(anchors):
    # benchmark.run_events decodes the traces of several events in one pass:
    # each run's slice of that decode must be its own decode, bit for bit,
    # position bytes included, and so must the run made from it
    plan = SimPlan(device_count=5, duration_s=90.0, anchors=anchors)
    runs = [[upsample_trace(tr, 3, 0.2, seed)
             for tr in simulate_mobility(GRAPH, plan.device_count, 90.0, seed=seed)]
            for seed in (3, 8, 21, 34)]
    batch = decode_beacons(GRAPH, [tr for traces in runs for tr in traces], plan)
    alone = [beacons for traces in runs for beacons in decode_beacons(GRAPH, traces, plan)]
    assert [_beacon_bits(b) for b in batch] == [_beacon_bits(b) for b in alone]
    assert sum(map(len, alone)) > 40
    for i, traces in enumerate(runs):
        target = tuple(traces[0].positions[60])
        assert _bits(run_simulation(GRAPH, traces, plan, target, beacons=batch[5 * i:5 * i + 5])) \
            == _bits(run_simulation(GRAPH, traces, plan, target))


def test_responses_over_a_doppler_channel_run_like_the_reference():
    # the scan stamps each response with the rx its beacon's path loss and
    # Doppler penalty give; the reference computes both again per response
    # from its position and closing speed.  With penalties of up to 3.5 dB
    # and a backscatter gain that puts responses near the sensitivity gate
    # (so a response rx without its penalty would move records), records
    # still come out bit for bit, at one anchor and at four
    channel = ch.ChannelConfig(doppler_penalty_db_per_mhz=8000.0, backscatter_gain_db=70.0)
    traces = [upsample_trace(tr, 3, 0.2, tr.device_id)
              for tr in simulate_mobility(GRAPH, 12, 90.0, seed=13)]
    target = tuple(traces[0].positions[40])
    for anchors in (SimPlan().anchors, CONTENTION_ANCHORS):
        plan = SimPlan(device_count=12, duration_s=90.0, anchors=anchors, channel_cfg=channel)
        penalties = [b[7] for beacons in decode_beacons(GRAPH, traces, plan) for b in beacons]
        assert max(penalties) > 2.0
        got = run_simulation(GRAPH, traces, plan, target)
        assert _bits(got) == _bits(reference_run(GRAPH, traces, plan, target))
        assert len(got.records) > 5


def _resting(points, duration):
    """Engine and per-device reference schedules of devices resting at `points`."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(pts)
    engine = (np.arange(n + 1), np.zeros(n), np.full(n, duration), pts, np.zeros((n, 3)),
              np.zeros(n, dtype=bool))
    return engine, [(np.zeros(1), pts[i:i + 1], np.zeros((1, 3)), [False]) for i in range(n)]


def _decode_both(engine_schedule, reference_schedules, anchors, channel, duration):
    beacon_air = ch.airtime_s(ProtocolParams().beacon_bits, channel)
    anchor_pos = np.array([a.position for a in anchors], dtype=float)
    anchor_tx = [channel.tx_power_dbm if a.tx_power_dbm is None else a.tx_power_dbm
                 for a in anchors]
    ranges = [_max_range_cm(tx, channel) for tx in anchor_tx]
    got = _decoded_beacons(engine_schedule, anchors, anchor_pos, anchor_tx, channel,
                           beacon_air, duration)
    want = [_reference_beacons(s, anchors, list(anchor_pos), anchor_tx, ranges, channel,
                               beacon_air, duration) for s in reference_schedules]
    return ([_beacon_bits(b) for b in got],
            [_reference_beacon_bits(b, anchor_pos, channel) for b in want])


def test_beacons_on_the_sensitivity_gate_decode_like_the_reference():
    # single-anchor runs, each with a device resting at exactly _max_range_cm,
    # where rx lands on rx_sensitivity_dbm to the last ulp or two: numpy's
    # log10 alone would decide some of them the other way
    on_gate = 0
    for k in range(400):
        channel = ch.ChannelConfig(rx_sensitivity_dbm=-110.0 + k * 0.0137)
        radius = _max_range_cm(channel.tx_power_dbm, channel)
        got, want = _decode_both(*_resting([(radius, 0.0, 0.0), (0.0, -radius, 0.0)], 0.2),
                                 [Anchor(0, (0.0, 0.0, 0.0), 0.1)], channel, 0.2)
        assert got == want, k
        rx = ch.link_sample(radius, 0.0, channel.tx_power_dbm, channel).rx_power_dbm
        on_gate += abs(rx - channel.rx_sensitivity_dbm) < 1e-12 and len(want[0]) == 3
    assert on_gate > 300


def test_beacons_on_the_sinr_threshold_decode_like_the_reference():
    # a second anchor beaconing at the same instants, its power tuned so that
    # the first anchor's beacons land on sinr_threshold_db within 1e-12 dB
    channel, on_threshold = ch.ChannelConfig(), 0
    for k in range(300):
        radius = 0.2 + k * 0.003
        rx = ch.link_sample(radius, 0.0, channel.tx_power_dbm, channel).rx_power_dbm

        def sinr(tx):
            return ch.sinr_db(rx, [tx - ch.path_loss_db(radius + 0.3, channel)],
                              channel.noise_floor_dbm)

        lo, hi = channel.tx_power_dbm - 30.0, channel.tx_power_dbm + 30.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if sinr(mid) >= channel.sinr_threshold_db else (lo, mid)
        assert abs(sinr(lo) - channel.sinr_threshold_db) < 1e-12
        anchors = [Anchor(0, (0.0, 0.0, 0.0), 0.1), Anchor(1, (0.0, 0.0, -0.3), 0.1, lo)]
        got, want = _decode_both(*_resting([(0.0, 0.0, radius)], 0.2), anchors, channel, 0.2)
        assert got == want, k
        on_threshold += [b[1] for b in want[0]].count(0) == 3
    assert on_threshold == 300


@pytest.mark.parametrize("n_anchors", [1, 4])
@pytest.mark.parametrize("channel, devices, duration", [
    (ch.ChannelConfig(doppler_penalty_db_per_mhz=2000.0), 8, 60.0),
    (ch.ChannelConfig(layers=[ch.Layer("vessel_wall", 0.1, 40.0), ch.Layer("gap", 0.0, 10.0),
                              ch.Layer("tissue", 2.0, 30.0)]), 4, 30.0),
], ids=["doppler", "zero_thickness_layer"])
def test_moving_devices_decode_like_the_reference(channel, devices, duration, n_anchors):
    anchors = [Anchor(0, (0.8, 0.0, 0.0), 0.02), Anchor(1, (-0.8, 0.0, 0.0), 0.02),
               Anchor(2, (0.0, 0.8, 0.0), 0.025), Anchor(3, (0.0, -0.8, 0.0), 0.03)][:n_anchors]
    traces = simulate_mobility(GRAPH, devices, duration, seed=9)
    got, want = _decode_both(_visit_schedule(traces, GRAPH, duration),
                             [_reference_schedule(tr, GRAPH) for tr in traces],
                             anchors, channel, duration)
    assert got == want
    assert sum(map(len, want)) > 50


MACS = [10, 11, 12, 13]


def _response(t, ai, di, p, tx, closing=0.0, circulation=1.5, bit=1):
    """A response as the reference takes it: closing speed in place of rx."""
    return (t, ai, di, np.asarray(p, dtype=float), tx, closing, circulation, bit)


def _responses_both(responses, anchor_pos, channel):
    """Records of the engine's collision pass and of the scalar reference, as
    bits.  The engine's responses carry the rx that ch.link_sample gives over
    the distance to their anchor at their closing speed, as the scan stamps
    it from the beacon's path loss and Doppler penalty."""
    anchor_pos = np.asarray(anchor_pos, dtype=float).reshape(-1, 3)
    stamped = [(t, ai, di, p, tx, ch.link_sample(float(np.linalg.norm(p - anchor_pos[ai])),
                                                 closing, tx, channel).rx_power_dbm, *rest)
               for t, ai, di, p, tx, closing, *rest in responses]
    return [[(t.hex(), mac, circulation.hex(), bit)
             for t, mac, circulation, bit in decide(given, anchor_pos, channel, MACS).tolist()]
            for decide, given in ((_decide_responses, stamped), (_reference_responses, responses))]


def test_responses_on_the_sinr_threshold_decide_like_the_reference():
    # two devices answer one anchor at the same arrival; the second one's tx
    # is tuned so that the first one's SINR lands on sinr_threshold_db within
    # 1e-12 dB
    channel, on_threshold = ch.ChannelConfig(), 0
    for k in range(300):
        radius, other = 0.2 + k * 0.003, 0.5 + k * 0.0021
        tx = -5.0 + k * 0.01
        rx = ch.link_sample(radius, 0.0, tx, channel).rx_power_dbm

        def sinr(itx):
            return ch.sinr_db(rx, [itx - ch.path_loss_db(other, channel)],
                              channel.noise_floor_dbm)

        lo, hi = tx - 30.0, tx + 30.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if sinr(mid) >= channel.sinr_threshold_db else (lo, mid)
        assert abs(sinr(lo) - channel.sinr_threshold_db) < 1e-12
        responses = [_response(2.0, 0, 0, (0.0, 0.0, radius), tx),
                     _response(2.0, 0, 1, (0.0, -other, 0.0), lo)]
        got, want = _responses_both(responses, [(0.0, 0.0, 0.0)], channel)
        assert got == want, k
        on_threshold += [r[1] for r in want] == [10]
    assert on_threshold == 300


def test_responses_on_the_sensitivity_gate_decide_like_the_reference():
    # each response's tx is one of the two adjacent floats between which its
    # rx crosses rx_sensitivity_dbm: the first is heard, the second is not
    channel = ch.ChannelConfig(doppler_penalty_db_per_mhz=50.0)
    for k in range(200):
        radius, closing = 0.3 + k * 0.00437, (k % 5 - 2) * 1.3
        gate = channel.rx_sensitivity_dbm

        def rx(tx):
            return ch.link_sample(radius, closing, tx, channel).rx_power_dbm

        lo, hi = gate, gate + 200.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (lo, mid) if rx(mid) >= gate else (mid, hi)
        assert rx(lo) < gate <= rx(hi) < gate + 1e-12
        p = (radius, 0.0, 0.0) if k % 2 else (0.0, 0.0, -radius)
        responses = [_response(1.0, 0, 0, p, hi, closing), _response(3.0, 0, 0, p, lo, closing)]
        got, want = _responses_both(responses, [(0.0, 0.0, 0.0)], channel)
        assert got == want, k
        assert [r[0] for r in want] == [(1.0).hex()]


def test_response_batches_decide_like_the_reference():
    channel = ch.ChannelConfig()
    anchors = [(0.0, 0.0, 0.0), (0.0, 0.0, 1.2)]
    assert _responses_both([], anchors, channel) == [[], []]
    alone = [_response(4.0, 1, 2, (0.1, 0.2, 0.9), -10.0, 0.4, 7.25, 0)]
    got, want = _responses_both(alone, anchors, channel)
    assert got == want == [((4.0).hex(), 12, (7.25).hex(), 0)]
    # random batches over two anchors: devices answering both anchors, the
    # same (anchor, device) twice, and arrivals chained within _T_EPS
    rng, kinds = np.random.default_rng(12), set()
    for _ in range(300):
        responses = []
        for t in np.cumsum(rng.choice([0.0, 0.4e-9, 0.6e-9, 1e-3], size=rng.integers(1, 9))):
            responses.append(_response(1.0 + float(t), int(rng.integers(2)), int(rng.integers(4)),
                                       rng.uniform(-0.5, 0.5, 3) + (0.0, 0.0, 0.6),
                                       float(rng.uniform(-60.0, 0.0))))
        responses.sort(key=itemgetter(0, 1, 2))
        got, want = _responses_both(responses, anchors, channel)
        assert got == want
        kinds.add((len(want) == 0, len(want) == len(responses)))
    assert kinds == {(True, False), (False, False), (False, True)}


def _three_interferers(rx, distances, channel, k):
    """Tx powers of three interferers at `distances` whose summed power puts a
    packet received at rx dBm on sinr_threshold_db: the first two fixed at
    about 47% and 24% of the interference, the third bisected to the two
    adjacent floats between which ch.sinr_db crosses the threshold.  Also
    whether summing them in reverse order decides either float the other way."""
    losses = [ch.path_loss_db(x, channel) for x in distances]
    share = rx - channel.sinr_threshold_db - 10.0 * math.log10(3.0)   # a third, in dBm
    fixed = [share + 1.5 + 0.0173 * (k % 7) + losses[0],
             share - 1.5 - 0.0131 * (k % 5) + losses[1]]

    def sinr(tx, order=1):
        powers = [t - x for t, x in zip(fixed + [tx], losses)][::order]
        return ch.sinr_db(rx, powers, channel.noise_floor_dbm)

    lo, hi = share + losses[2] - 20.0, share + losses[2] + 20.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if sinr(mid) >= channel.sinr_threshold_db else (lo, mid)
    assert sinr(lo) >= channel.sinr_threshold_db > sinr(hi)
    reversed_differs = any((sinr(tx) >= channel.sinr_threshold_db)
                           != (sinr(tx, -1) >= channel.sinr_threshold_db) for tx in (lo, hi))
    return fixed, (lo, hi), reversed_differs


def test_beacons_with_three_interferers_on_the_sinr_threshold_decode_like_the_reference():
    # four anchors beaconing at the same instants: the first one's beacons
    # meet three interferers whose sum lands SINR on the threshold.  Float
    # addition is not associative, so only three or more interferers can
    # show a summation order other than ch.sinr_db's (anchor order)
    channel, order_matters = ch.ChannelConfig(), 0
    for k in range(400):
        radius = 0.2 + k * 0.00225
        device = np.array([0.0, 0.0, radius])
        sites = [device + offset for offset in
                 ((radius + 0.25, 0.0, 0.0), (0.0, radius + 0.31, 0.0), (0.0, -radius - 0.4, 0.0))]
        distances = [float(np.linalg.norm(device - site)) for site in sites]
        rx = ch.link_sample(radius, 0.0, channel.tx_power_dbm, channel).rx_power_dbm
        fixed, adjacent, reversed_differs = _three_interferers(rx, distances, channel, k)
        order_matters += reversed_differs
        heard = []   # anchor 0's beacons decoded at each of the two floats
        for last in adjacent:
            anchors = [Anchor(0, (0.0, 0.0, 0.0), 0.1)] + [
                Anchor(i + 1, tuple(site.tolist()), 0.1, tx)
                for i, (site, tx) in enumerate(zip(sites, fixed + [last]))]
            got, want = _decode_both(*_resting([device], 0.2), anchors, channel, 0.2)
            assert got == want, k
            heard.append([b[1] for b in want[0]].count(0))
        assert heard == [3, 0], k
    assert order_matters >= 5


def test_response_batches_of_four_on_the_sinr_threshold_decide_like_the_reference():
    # four devices answer one anchor at the same arrival; the first one's
    # SINR against the other three (summed in batch order) lands on the
    # threshold, at the two adjacent tx floats of the fourth
    channel, order_matters = ch.ChannelConfig(), 0
    for k in range(400):
        radius, tx = 0.2 + k * 0.00225, -5.0 + k * 0.0075
        spots = [(0.0, 0.0, radius), (0.0, -radius - 0.3, 0.0), (radius + 0.35, 0.0, 0.0),
                 (0.0, radius + 0.42, 0.0)]
        distances = [float(np.linalg.norm(spot)) for spot in spots[1:]]
        rx = ch.link_sample(radius, 0.0, tx, channel).rx_power_dbm
        fixed, (lo, hi), reversed_differs = _three_interferers(rx, distances, channel, k)
        order_matters += reversed_differs
        responses = [_response(t, 0, d, spot, x)
                     for t, last in ((1.0, lo), (3.0, hi))
                     for d, (spot, x) in enumerate(zip(spots, [tx] + fixed + [last]))]
        got, want = _responses_both(responses, [(0.0, 0.0, 0.0)], channel)
        assert got == want, k
        assert ((1.0).hex(), MACS[0]) in [r[:2] for r in want]
        assert ((3.0).hex(), MACS[0]) not in [r[:2] for r in want]
    assert order_matters >= 5
