"""Engine properties on random small runs of the reference vasculature.

Devices are coupled only where their responses collide at an anchor, and
nothing flows back from there: a device's energy timeline never depends on
the other devices, and neither do its records once collisions are switched
off.  The remaining properties are invariants of every run.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nanoflow.channel import ChannelConfig  # noqa: E402
from nanoflow.energy import EnergyConfig  # noqa: E402
from nanoflow.simcore import Anchor, EventScenario, run_simulation  # noqa: E402
from nanoflow.vasculature import (UpsampleParams, build_reference_vasculature,  # noqa: E402
                                  simulate_mobility, upsample_trace)

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
    upsampled = [upsample_trace(tr, UpsampleParams(factor=3, sigma_cm=0.2, seed=tr.device_id))
                 for tr in traces]
    scenario = EventScenario(target=draw(st.sampled_from(TARGETS)), sense_rate_hz=3)
    return anchors, upsampled, scenario, duration


def _run(case, traces, channel):
    anchors, _, scenario, duration = case
    return run_simulation(GRAPH, traces, anchors, scenario, ENERGY, channel,
                          duration_s=duration)


def _records_of(result, mac):
    return [r for r in result.records if r.device_mac == mac]


@settings(max_examples=8, deadline=None)
@given(cases())
def test_each_device_runs_as_if_alone(case):
    traces = case[1]
    for channel in (ChannelConfig(), NO_COLLISIONS):
        together = _run(case, traces, channel)
        for tr in traces:
            alone = _run(case, [tr], channel)
            mac = tr.device_id
            assert [row for row in together.energy_rows if row[1] == mac] == alone.energy_rows
            assert together.consumed_pj[mac] == alone.consumed_pj[mac]
            if channel is NO_COLLISIONS:
                assert _records_of(together, mac) == alone.records


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
