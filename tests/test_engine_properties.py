"""Engine properties on random small runs of the reference vasculature.

Devices are coupled only where their responses collide at an anchor, and
nothing flows back from there: a device's energy timeline never depends on
the other devices, and neither do its records once collisions are switched
off.  The remaining properties are invariants of every run.
"""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nanoflow.channel import ChannelConfig, airtime_s  # noqa: E402
from nanoflow.energy import EnergyConfig  # noqa: E402
from nanoflow.simcore import Anchor, SimPlan, run_simulation  # noqa: E402
from nanoflow.vasculature import (build_reference_vasculature, simulate_mobility,  # noqa: E402
                                  upsample_trace)

GRAPH = build_reference_vasculature()
ENERGY = EnergyConfig()
NO_COLLISIONS = ChannelConfig(sinr_threshold_db=-1000.0)
POSITIONS = [(0.8, 0.0, 0.0), (-0.8, 0.0, 0.0), (0.0, 0.8, 0.0), (0.0, -0.8, 0.0),
             (0.5, 0.5, 1.0), (0.0, 0.0, 2.5)]
INTERVALS = [0.02, 0.025, 0.03, 0.05, 0.1]
TARGETS = [None, (0.0, 7.0, -1.5), (0.0, -7.0, 1.5)]


@st.composite
def cases(draw):
    n_anchors = draw(st.integers(1, 4))
    spots = draw(st.permutations(POSITIONS))[:n_anchors]
    anchors = [Anchor(mac=i, position=p, beacon_interval_s=draw(st.sampled_from(INTERVALS)))
               for i, p in enumerate(spots)]
    duration = float(draw(st.integers(5, 60)))
    traces = simulate_mobility(GRAPH, draw(st.integers(2, 6)), duration,
                               seed=draw(st.integers(0, 2**16)))
    upsampled = [upsample_trace(tr, 3, 0.2, tr.device_id) for tr in traces]
    plan = SimPlan(duration_s=duration, sense_rate_hz=3, anchors=anchors, energy_cfg=ENERGY)
    return plan, upsampled, draw(st.sampled_from(TARGETS))


def _run(case, traces, channel):
    plan, _, target = case
    return run_simulation(GRAPH, traces, replace(plan, channel_cfg=channel), target)


def _records_of(result, mac):
    return result.records[result.records.device_mac == mac].tolist()


@settings(max_examples=8, deadline=None)
@given(cases())
def test_each_device_runs_as_if_alone(case):
    traces = case[1]
    for channel in (ChannelConfig(), NO_COLLISIONS):
        together = _run(case, traces, channel)
        for tr in traces:
            alone = _run(case, [tr], channel)
            mac = tr.device_id
            assert ([row for row in together.energy_rows.tolist() if row[1] == mac]
                    == alone.energy_rows.tolist())
            assert together.consumed_pj[mac] == alone.consumed_pj[mac]
            if channel is NO_COLLISIONS:
                assert _records_of(together, mac) == alone.records.tolist()


@settings(max_examples=8, deadline=None)
@given(cases())
def test_run_invariants(case):
    result = _run(case, case[1], ChannelConfig())
    keys = [(r.report_time_s, r.device_mac) for r in result.records]
    assert keys == sorted(keys)
    for r in result.records:
        assert 0.0 <= r.circulation_time_s <= r.report_time_s
    e_max_pj = ENERGY.e_max * 1e12
    for _t, _mac, pj, _powered in result.energy_rows:
        assert 0.0 <= pj <= e_max_pj


@settings(max_examples=15, deadline=None)
@given(cases(), st.data())
def test_event_bits_come_from_sense_ticks_near_the_target(case, data):
    plan, traces, target = case
    if target is not None:   # a target some device passes, so bits of 1 occur
        trace = data.draw(st.sampled_from(traces))
        i = data.draw(st.integers(0, len(trace.times) - 1))
        target = tuple(trace.positions[i])
        plan = replace(plan, detection_radius_cm=data.draw(st.sampled_from([0.5, 1.0, 3.0])))
    channel = plan.channel_cfg
    result = run_simulation(GRAPH, traces, plan, target)
    if target is None:
        assert all(r.event_bit == 0 for r in result.records)
        return
    proto = plan.protocol
    lag = airtime_s(proto.beacon_bits, channel) + airtime_s(proto.response_bits, channel)
    by_mac = {tr.device_id: tr for tr in traces}
    for r in result.records:
        if not r.event_bit:
            continue
        trace = by_mac[r.device_mac]
        stride = round(1.0 / plan.sense_rate_hz / (trace.times[1] - trace.times[0]))
        ticks, points = trace.times[::stride], trace.positions[::stride]
        near = np.linalg.norm(points - np.asarray(target), axis=1) < plan.detection_radius_cm
        t_b = r.report_time_s - lag   # the beacon this record answers
        inside = (ticks >= t_b - r.circulation_time_s - 1e-9) & (ticks <= t_b + 1e-9)
        assert (near & inside).any(), r
