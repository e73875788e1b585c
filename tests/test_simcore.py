"""Event-driven simulation engine: protocol, reset and collision semantics.

Most tests run on a 3-vessel loop whose geometry is chosen so that every
heart passage dwells in anchor range longer than one beacon interval: with
ideal energy the delivery pattern is then an exact function of the walk
schedule and makes a clean oracle.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from nanoflow import channel as ch
from nanoflow.channel import ChannelConfig
from nanoflow.energy import EnergyConfig
from nanoflow.errors import ConfigMismatch
from nanoflow.simcore import (_ROW, RECORD, Anchor, SimPlan, _delivered, _link_budget,
                              _path_loss, _row_dots, _sense_hits, export_energy_csv,
                              export_raw_csv, run_simulation)
from nanoflow.vasculature import (MobilityTrace, RegionType, Vessel, VesselGraph,
                                  simulate_mobility, upsample_trace)

IDEAL_ENERGY = EnergyConfig(e_turn_on=1e-18, cost_tx_pulse=0.0,
                            cost_rx_pulse=0.0, cost_sense=0.0)
NO_COLLISIONS = ChannelConfig(sinr_threshold_db=-1000.0)


def loop_graph() -> VesselGraph:
    """Heart on the z axis plus a ~3 s detour, closed."""
    mk = lambda i, a, b, rt, sp, h=False: Vessel(
        i, np.array(a, dtype=float), np.array(b, dtype=float), rt, sp, [i + 1], h)
    h = mk(0, (0, 0, -2), (0, 0, 2), RegionType.ARTERIAL, 20.0, True)
    r1 = mk(1, (0, 0, 2), (0, 30, 1), RegionType.ARTERIAL, 20.0)
    r2 = mk(2, (0, 30, 1), (0, 0, -2), RegionType.ARTERIAL, 20.0)
    r2.successors = [0]
    return VesselGraph([h, r1, r2], heart_id=0)


GRAPH = loop_graph()
ANCHOR = [Anchor(mac=0, position=(0.0, 0.0, 0.0))]


def run(traces, *, anchors=ANCHOR, target=None, sense_rate_hz=1, energy=IDEAL_ENERGY,
        channel=None, duration=20.0):
    plan = SimPlan(duration_s=duration, sense_rate_hz=sense_rate_hz, anchors=anchors,
                   energy_cfg=energy, channel_cfg=channel or ChannelConfig())
    return run_simulation(GRAPH, traces, plan, target)


def test_one_record_per_heart_passage_with_ideal_energy():
    tr = simulate_mobility(GRAPH, 1, 21.0, seed=0)[0]
    res = run([tr])
    entries = tr.visit_times[tr.visit_vessels == GRAPH.heart_id]
    usable = entries[entries < 20.0 - 0.2]
    assert len(res.records) == len(usable)
    # circulation times equal the gaps between consecutive heart entries
    gaps = np.diff(usable)
    reported = np.array([r.circulation_time_s for r in res.records[1:]])
    np.testing.assert_allclose(reported, gaps, atol=0.11)


def test_snapshot_taken_before_reset():
    tr = simulate_mobility(GRAPH, 1, 21.0, seed=0)[0]
    res = run([tr])
    first = res.records[0]
    # the first record measures from t = 0, not from its own reset
    assert first.circulation_time_s == pytest.approx(first.report_time_s, abs=1e-6)
    assert first.event_bit == 0


def test_off_passage_does_not_reset():
    tr = simulate_mobility(GRAPH, 1, 21.0, seed=0)[0]
    res = run([tr], energy=EnergyConfig())  # default 10 pJ turn-on: ~1.52 s dark
    entries = tr.visit_times[tr.visit_vessels == GRAPH.heart_id]
    loop_s = float(np.diff(entries).mean())
    assert len(res.records) >= 2
    # the first passage (~0.1 s) happens while the device is dark; if that
    # passage reset the clock, the first record would read ~0.1 s.  It must
    # instead span the whole interval since t = 0, longer than one loop.
    first = res.records[0]
    assert first.circulation_time_s == pytest.approx(first.report_time_s, abs=1e-6)
    assert first.circulation_time_s > loop_s + 0.05
    # subsequent records are single-loop again
    assert res.records[1].circulation_time_s == pytest.approx(loop_s, abs=0.15)


def test_identical_devices_collide_every_response():
    traces = simulate_mobility(GRAPH, 2, 21.0, seed=0)
    np.testing.assert_array_equal(traces[0].positions, traces[1].positions)
    res = run(traces)
    assert len(res.records) == 0  # ALOHA responses always overlap, none decode
    res_ideal = run(traces, channel=NO_COLLISIONS)
    singles = run([traces[0]], channel=NO_COLLISIONS)
    assert len(res_ideal.records) == 2 * len(singles.records)
    assert {r.device_mac for r in res_ideal.records} == {0, 1}


def test_records_are_one_record_array_in_time_mac_order():
    # the two devices answer at the same instants; passed mac 1 first, they
    # still come out in (time, mac) order, with no record lost
    traces = simulate_mobility(GRAPH, 2, 21.0, seed=0)
    for channel in (None, NO_COLLISIONS):   # no records, then some
        records = run(traces[::-1], channel=channel).records
        assert isinstance(records, np.recarray) and records.dtype == RECORD
    keys = list(zip(records.report_time_s.tolist(), records.device_mac.tolist()))
    singles = run([traces[0]], channel=NO_COLLISIONS).records
    assert keys == sorted(keys) and len(keys) == 2 * len(singles) > 0
    assert keys[0::2] == [(t, 0) for t in singles.report_time_s.tolist()]


def test_concurrent_anchors_jam_beacons():
    tr = simulate_mobility(GRAPH, 1, 21.0, seed=0)[0]
    # equidistant from every point of the heart axis: beacons overlap with
    # equal power at the device, SINR = 0 dB, nothing decodes
    two = [Anchor(mac=0, position=(0.3, 0.0, 0.0)),
           Anchor(mac=1, position=(-0.3, 0.0, 0.0))]
    res = run([tr], anchors=two)
    assert len(res.records) == 0
    # with the SINR gate disabled the device answers one beacon per episode,
    # so two anchors do not double the record count
    res_ideal = run([tr], anchors=two, channel=NO_COLLISIONS)
    singles = run([tr], channel=NO_COLLISIONS)
    assert len(res_ideal.records) == len(singles.records)


def test_sense_sets_event_bit():
    tr = simulate_mobility(GRAPH, 1, 21.0, seed=0)[0]
    up = upsample_trace(tr, 3, 0.0, 0)
    target = tuple(GRAPH.points_at(np.array([1]), np.array([15.0]))[0])
    res = run([up], target=target, sense_rate_hz=3)
    assert any(r.event_bit == 1 for r in res.records)
    # without a target every bit stays 0
    res0 = run([up], target=None, sense_rate_hz=3)
    assert all(r.event_bit == 0 for r in res0.records)


def test_sense_hits_match_the_per_vector_norm_at_the_radius():
    # the row-wise norm and np.linalg.norm of one vector can differ in the
    # last bit; at a radius equal to either, the mask must follow the latter
    rng = np.random.default_rng(3)
    points = rng.normal(size=(500, 3)) * 5.0
    target = np.array([0.3, -0.2, 0.1])
    per_vector = np.array([float(np.linalg.norm(p - target)) for p in points])
    row_wise = np.linalg.norm(points - target, axis=1)
    differ = np.nonzero(per_vector != row_wise)[0]
    for radius in [*per_vector[:5], *per_vector[differ[:10]], *row_wise[differ[:10]]]:
        assert _sense_hits(points, target, radius).tolist() == (per_vector < radius).tolist()
    assert not _sense_hits(points, None, 1e9).any()


def test_sense_hits_measure_the_radius_box_like_every_row():
    # _sense_hits takes the distance only of rows inside the radius box; the
    # mask must equal that of the distance of every row, on the box faces,
    # just inside them and at radii whose squares underflow
    rng = np.random.default_rng(13)
    hit_kinds = set()
    for radius in (1.0, 0.37, 3.0, 1e-140, 1e-155, 1e-160):
        faces = np.concatenate([np.eye(3), -np.eye(3), np.eye(3) + 0.5 * np.eye(3)[[1, 2, 0]]])
        offsets = np.concatenate([faces * radius, np.nextafter(faces * radius, 0.0),
                                  rng.normal(size=(3000, 3)) * radius * rng.choice([0.3, 1.0, 3.0],
                                                                                   (3000, 1))])
        for target in (np.zeros(3), np.array([0.3, -0.2, 0.1])):
            points = offsets + target
            every = points - target
            want = np.sqrt(_row_dots(every, every)) < radius
            assert _sense_hits(points, target, radius).tolist() == want.tolist(), radius
            hit_kinds.add((bool(want.any()), bool(want.all())))
    assert (True, False) in hit_kinds


def test_event_bit_clears_after_reset():
    tr = simulate_mobility(GRAPH, 1, 21.0, seed=0)[0]
    up = upsample_trace(tr, 3, 0.0, 0)
    target = tuple(GRAPH.points_at(np.array([1]), np.array([15.0]))[0])
    res = run([up], target=target, sense_rate_hz=3)
    positives = [r for r in res.records if r.event_bit == 1]
    # the device re-senses the event each loop, so every delivered record
    # after the first sensing carries the bit; the first one does not
    # (delivery happens before the device first reaches the target)
    assert positives and res.records[0].event_bit == 0


def test_energy_timeline_has_one_row_per_second():
    traces = simulate_mobility(GRAPH, 2, 21.0, seed=3)
    res = run(traces, energy=EnergyConfig())
    assert len(res.energy_rows) == 2 * 21
    t0_rows = [r for r in res.energy_rows if r[1] == 0]
    powered = [r[3] for r in t0_rows]
    assert powered[0] == 0 and powered[1] == 0  # dark until 1.52 s
    assert all(p == 1 for p in powered[2:])
    assert all(0.0 <= r[2] <= 800.0 + 1e-9 for r in res.energy_rows)


def test_energy_rows_are_one_time_major_array():
    # three time grids (1 s, 1/3 s, and 1/3 s shifted by 0.21 s) and macs out
    # of order: one _ROW row per device and whole second, devices in trace order
    def relabel(tr, mac, shift=0.0):
        return MobilityTrace(mac, tr.times + shift, tr.positions, tr.vessel_ids,
                             tr.visit_times + shift, tr.visit_vessels)

    base = simulate_mobility(GRAPH, 3, 21.0, seed=4)
    traces = [relabel(base[0], 7), relabel(upsample_trace(base[1], 3, 0.0, 1), 3),
              relabel(upsample_trace(base[2], 3, 0.0, 2), 5, 0.21)]
    plan = SimPlan(duration_s=20.5, sense_rate_hz=1, anchors=ANCHOR, energy_cfg=EnergyConfig())
    rows = run_simulation(GRAPH, traces, plan).energy_rows
    assert rows.dtype == _ROW and rows.shape == (3 * 21,)
    assert rows["time"].tolist() == [float(s) for s in range(21) for _ in range(3)]
    assert rows["mac"].tolist() == [7, 3, 5] * 21
    assert set(rows["flag"].tolist()) == {0, 1}
    empty = run_simulation(GRAPH, traces, plan, energy_rows=False).energy_rows
    assert empty.dtype == _ROW and empty.shape == (0,)


def test_consumption_accounting():
    tr = simulate_mobility(GRAPH, 1, 21.0, seed=0)[0]
    res = run([tr], energy=EnergyConfig())
    n = len(res.records)
    # every delivered response costs 24 tx pulses at 1 pJ; sensing costs
    # 1 pJ per powered tick; rx pulses are free in the default config
    assert res.consumed_pj[0] >= n * 24.0
    assert res.consumed_pj[0] == pytest.approx(n * 24.0 + 19, abs=3.0)


def test_run_is_deterministic():
    traces = simulate_mobility(GRAPH, 3, 21.0, seed=5)
    a = run(traces, energy=EnergyConfig())
    b = run(traces, energy=EnergyConfig())
    assert [(r.report_time_s, r.device_mac, r.circulation_time_s, r.event_bit)
            for r in a.records] == \
           [(r.report_time_s, r.device_mac, r.circulation_time_s, r.event_bit)
            for r in b.records]
    assert a.energy_rows.tolist() == b.energy_rows.tolist()


def test_raw_csv_format(tmp_path):
    tr = simulate_mobility(GRAPH, 1, 21.0, seed=0)[0]
    res = run([tr])
    path = tmp_path / "raw.csv"
    export_raw_csv(res.records, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "report_time_s,device_mac,circulation_time_s,event_bit"
    assert lines[0].split(",") == list(RECORD.names)
    assert len(lines) == 1 + len(res.records)
    cols = lines[1].split(",")
    assert len(cols) == 4
    assert len(cols[0].split(".")[1]) == 6
    times = [float(l.split(",")[0]) for l in lines[1:]]
    assert times == sorted(times)


def test_energy_csv_format(tmp_path):
    tr = simulate_mobility(GRAPH, 1, 5.0, seed=0)[0]
    res = run([tr], duration=4.5)
    path = tmp_path / "energy.csv"
    export_energy_csv(res.energy_rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,device_mac,energy_pj,powered"
    assert len(lines) == 1 + len(res.energy_rows)


def test_input_validation():
    tr = simulate_mobility(GRAPH, 1, 21.0, seed=0)[0]
    with pytest.raises(ConfigMismatch):
        run([tr], anchors=[])
    with pytest.raises(ConfigMismatch):
        run([tr], duration=-1.0)
    with pytest.raises(ConfigMismatch):
        run([tr], duration=500.0)  # trace shorter than the run
    short = MobilityTrace(0, np.array([0.0]), np.zeros((1, 3)),
                          np.zeros(1, dtype=int), np.array([0.0]), np.zeros(1, dtype=int))
    with pytest.raises(ConfigMismatch):
        run([short], duration=1.0)
    with pytest.raises(ConfigMismatch):
        # 1 Hz trace cannot honor a 3 Hz sensing grid
        run([tr], sense_rate_hz=3)
    # a plan built in code checks itself: no ZeroDivisionError, no bare
    # ValueError from math.floor, no detection radius that never fires
    for field, value in [("sense_rate_hz", 0), ("duration_s", float("nan")),
                         ("detection_radius_cm", float("nan")), ("detection_radius_cm", -1.0)]:
        with pytest.raises(ConfigMismatch, match=f"^{field} must be positive$"):
            replace(SimPlan(duration_s=9.0, sense_rate_hz=1, anchors=ANCHOR,
                            energy_cfg=IDEAL_ENERGY), **{field: value})


@pytest.mark.parametrize("channel", [
    ChannelConfig(),
    ChannelConfig(f_c=0.33e12, spreading_exponent=-1.0, doppler_penalty_db_per_mhz=2000.0),
    # spreading 0 * log10(x < 1) is -0.0, which max(..., 0.0) keeps and no layer covers
    ChannelConfig(spreading_exponent=0.0, layers=[ch.Layer("gap", 0.0, 10.0),
                                                  ch.Layer("tissue", 2.0, 30.0)]),
    ChannelConfig(noise_floor_dbm=-math.inf, doppler_penalty_db_per_mhz=50.0,
                  layers=[ch.Layer("vessel_wall", 0.1, 40.0), ch.Layer("gap", 0.0, 10.0),
                          ch.Layer("tissue", 2.0, 30.0)]),
], ids=["default", "low_carrier_doppler", "leading_gap", "quiet_mid_gap"])
def test_array_channel_is_the_scalar_channel_bit_for_bit(channel):
    # path loss, Doppler penalty and rx of the engine's array passes against
    # ch.path_loss_db and ch.link_sample, and its verdicts against ch.sinr_db and
    # ch.reception_decision, at zero, at sub-wavelength distances (where the
    # spreading term is clipped at 0 dB), on each layer boundary and its
    # float neighbours, and at random distances
    rng = np.random.default_rng(19)
    depth = np.cumsum([layer.thickness_cm for layer in channel.layers])
    depth = depth[depth > 0]   # the float after 0.0 is subnormal: math.log10 rejects it
    dist = np.concatenate(([0.0], rng.uniform(0.0, 0.01, 500), depth, np.nextafter(depth, 0.0),
                           np.nextafter(depth, np.inf), rng.uniform(0.0, 3.0, 4000)))
    assert ([x.hex() for x in _path_loss(dist, channel).tolist()]
            == [ch.path_loss_db(d, channel).hex() for d in dist.tolist()])

    closing = rng.normal(0.0, 30.0, len(dist))
    closing[::7] = 0.0
    tx = rng.uniform(-30.0, 10.0, len(dist))
    row = np.repeat(np.arange(len(dist)), rng.integers(0, 4, len(dist)))
    itx, idist = rng.uniform(-40.0, 10.0, len(row)), rng.uniform(0.0, 3.0, len(row))
    loss, penalty, rx = _link_budget(dist, closing, tx, channel)
    delivered = _delivered(rx, row, itx - _path_loss(idist, channel), channel)
    want_rx = [ch.link_sample(d, v, t, channel).rx_power_dbm
               for d, v, t in zip(dist.tolist(), closing.tolist(), tx.tolist())]
    assert [x.hex() for x in rx.tolist()] == [x.hex() for x in want_rx]
    assert ([x.hex() for x in loss.tolist()]
            == [ch.path_loss_db(d, channel).hex() for d in dist.tolist()])
    assert ([x.hex() for x in penalty.tolist()]
            == [ch.doppler_penalty_db(ch.doppler_shift_hz(v, channel), channel).hex()
                for v in closing.tolist()])
    bounds = np.searchsorted(row, np.arange(len(dist) + 1)).tolist()
    sinr = [ch.sinr_db(r, [t - ch.path_loss_db(x, channel) for t, x in
                           zip(itx[lo:hi].tolist(), idist[lo:hi].tolist())],
                       channel.noise_floor_dbm)
            for r, lo, hi in zip(want_rx, bounds, bounds[1:])]
    want = [ch.reception_decision(r, s, channel) is ch.Reception.DELIVERED
            for r, s in zip(want_rx, sinr)]
    assert delivered.tolist() == [i for i, heard in enumerate(want) if heard]
    assert 0 < len(delivered) < len(want)
    # the SINR to the last bit: an audible packet, alone with its interferers,
    # is delivered at a threshold equal to its scalar SINR and not one float above
    for i in [i for i, r in enumerate(want_rx) if r >= channel.rx_sensitivity_dbm][:300]:
        lo, hi = bounds[i], bounds[i + 1]
        for threshold, heard in ((sinr[i], True), (math.nextafter(sinr[i], math.inf), False)):
            got = _delivered(rx[i:i + 1], row[lo:hi] - i,
                             itx[lo:hi] - _path_loss(idist[lo:hi], channel),
                             replace(channel, sinr_threshold_db=threshold))
            assert got.tolist() == [0] * heard, i
