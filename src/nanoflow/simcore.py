"""Simulation engine: beaconing, sensing, backscatter responses, records.

Devices interact in one place only: responses that overlap at an anchor.
Nothing flows back from there (a device has spent its energy and marked the
episode answered before reception is decided), whether a beacon is decoded
depends only on geometry and on the other anchors' timing, and a device's
energy depends only on its own events.  A run is therefore three phases:

1. Geometry.  Each device's visit schedule gives, per anchor, the time
   windows in which it is within packet range; the beacon instants
   k * interval inside a window are decided against sensitivity and the
   other anchors' overlapping beacons.  A trace without a visit schedule
   is read as one constant-velocity visit per sample interval, in the heart
   when the interval's vessel id is the heart.
2. Per-device scan.  One pass over the device's own timeline of decoded
   beacons, sense ticks (on the upsampled sample grid) and 1 Hz energy
   samples advances its capacitor along the harvest curve (a lookup in the
   energy module's charge grid), spends energy, keeps the circulation clock
   and event bit, and collects the responses it sends.  Whether a sense tick
   sees the target is decided beforehand for all of the device's ticks in
   one distance pass (the sense-hit mask); the scan reads one bool per tick
   and sets the bit when that tick's sensing is paid for.  At equal
   timestamps beacons come first, by anchor index, then the sense tick,
   then the energy sample.
3. Collisions.  Responses arriving within _T_EPS of the earliest pending
   arrival form one batch.  Each is decided against the others in the
   batch, summed in (arrival time, anchor, device) order; a decoded one
   becomes a record stamped with the batch's earliest arrival.

Energy rows come out in (time, device) order and records in (time, mac)
order, so a run is deterministic regardless of how the caller schedules runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import channel as ch
from .energy import EnergyConfig, EnergyState, advance_harvest, try_consume
from .errors import ConfigMismatch
from .vasculature import MobilityTrace, VesselGraph

_BEACON, _SENSE, _SAMPLE = 0, 1, 2   # tie order of one device's events
_T_EPS = 1e-9


@dataclass
class Anchor:
    mac: int
    position: tuple[float, float, float]
    beacon_interval_s: float = 0.1
    tx_power_dbm: float | None = None   # None = channel default

    def __post_init__(self):
        if self.beacon_interval_s <= 0:
            raise ConfigMismatch("anchor beacon_interval_s must be positive")


@dataclass
class EventScenario:
    target: tuple[float, float, float] | None = None
    detection_radius_cm: float = 1.0
    sense_rate_hz: int = 3


@dataclass
class ProtocolParams:
    beacon_bits: int = 16
    response_bits: int = 48
    # beacon silence (in units of the anchor interval) that closes a contact
    # episode; a device answers the first beacon it hears per episode
    episode_gap_intervals: float = 1.5


@dataclass
class RawRecord:
    report_time_s: float
    device_mac: int
    circulation_time_s: float
    event_bit: int


@dataclass
class SimResult:
    records: list[RawRecord]
    energy_rows: list[tuple[float, int, float, int]]   # time_s, mac, pJ, powered
    consumed_pj: dict[int, float]
    duration_s: float


def _visit_schedule(trace: MobilityTrace, motion: dict):
    """(entry times, start points, velocities, heart flags), one row per visit.

    RF geometry reads the exact visit schedule: the sampled polyline corner-
    cuts short vessels and would place the device centimeters away from where
    it really is exactly when it crosses the heart.  `motion` maps a vessel id
    to its (start, velocity, is_heart).
    """
    if trace.visit_times is not None and trace.visit_vessels is not None:
        rows = [motion[int(vid)] for vid in trace.visit_vessels]
        return (np.asarray(trace.visit_times, dtype=float),
                np.array([r[0] for r in rows], dtype=float).reshape(-1, 3),
                np.array([r[1] for r in rows], dtype=float).reshape(-1, 3),
                [r[2] for r in rows])
    times = np.asarray(trace.times, dtype=float)
    pos = np.asarray(trace.positions, dtype=float)
    return (times[:-1], pos[:-1], (pos[1:] - pos[:-1]) / np.diff(times)[:, None],
            [motion[int(vid)][2] for vid in trace.vessel_ids[:-1]])


def _max_range_cm(tx_dbm: float, ccfg: ch.ChannelConfig) -> float:
    """Largest distance where a packet still clears the sensitivity gate."""
    budget = tx_dbm - ccfg.rx_sensitivity_dbm
    if ch.path_loss_db(0.0, ccfg) > budget:
        return 0.0
    lo, hi = 0.0, 1.0
    while ch.path_loss_db(hi, ccfg) <= budget:
        hi *= 2.0
        if hi > 1e6:
            return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ch.path_loss_db(mid, ccfg) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def _visit_windows(vt: np.ndarray, vstart: np.ndarray, vvel: np.ndarray,
                   anchor_pos: np.ndarray, radius_cm: float,
                   t_end: float) -> list[tuple[float, float]]:
    """[t_in, t_out] in-range intervals from a visit schedule.

    Inside one visit the position is vstart + tau * vvel, so the in-range
    condition is a quadratic in tau; windows from touching visits merge.
    """
    ends = np.append(vt[1:], t_end)
    w = vstart - anchor_pos
    aa = np.einsum("ij,ij->i", vvel, vvel)
    bb = 2.0 * np.einsum("ij,ij->i", w, vvel)
    cc = np.einsum("ij,ij->i", w, w) - radius_cm * radius_cm
    disc = bb * bb - 4.0 * aa * cc
    hit = np.nonzero(((aa > 0.0) & (disc >= 0.0)) | ((aa == 0.0) & (cc <= 0.0)))[0]
    out: list[tuple[float, float]] = []
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


def _beacon_interferers(anchors: list[Anchor], active_idx: int, t: float,
                        p: np.ndarray, ccfg: ch.ChannelConfig,
                        beacon_air: float) -> list[float]:
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


def _decoded_beacons(schedule, anchors: list[Anchor], anchor_pos: list[np.ndarray],
                     anchor_tx: list[float], ranges: list[float],
                     ccfg: ch.ChannelConfig, beacon_air: float, duration_s: float):
    """(t, anchor index, position, closing speed, rx dBm, in heart) per beacon
    the device decodes, in (t, anchor index) order."""
    vt, vstart, vvel, vheart = schedule
    out = []
    for ai, anchor in enumerate(anchors):
        interval = anchor.beacon_interval_s
        k = 0
        for t0, t1 in _visit_windows(vt, vstart, vvel, anchor_pos[ai], ranges[ai], duration_s):
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
                interferers = _beacon_interferers(anchors, ai, t, p, ccfg, beacon_air)
                sinr = ch.sinr_db(link.rx_power_dbm, interferers, ccfg.noise_floor_dbm)
                if ch.reception_decision(link.rx_power_dbm, sinr, ccfg) is ch.Reception.DELIVERED:
                    out.append((t, ai, p, closing, link.rx_power_dbm, bool(vheart[v])))
    out.sort(key=itemgetter(0, 1))
    return out


def _sense_hits(points: np.ndarray, target: np.ndarray | None,
                radius_cm: float) -> np.ndarray:
    """float(np.linalg.norm(p - target)) < radius_cm for each row p of points;
    all False without a target.

    The row-wise norm may differ from the per-vector one (a BLAS dot) in the
    last bits, so rows within a hair of the radius are decided one by one.
    """
    if target is None:
        return np.zeros(len(points), dtype=bool)
    offsets = points - target
    dist = np.linalg.norm(offsets, axis=1)
    hits = dist < radius_cm
    for i in np.nonzero(np.abs(dist - radius_cm) <= 1e-9 * radius_cm)[0]:
        hits[i] = float(np.linalg.norm(offsets[i])) < radius_cm
    return hits


def _decide_responses(responses: list[tuple], anchor_pos: list[np.ndarray],
                      ccfg: ch.ChannelConfig, macs: list[int]) -> list[RawRecord]:
    """Records of the responses that survive their collision batch.

    `responses` holds (arrival, anchor index, device index, position,
    tx dBm, closing speed, circulation time, event bit) in (arrival,
    anchor, device) order.
    """
    records = []
    start = 0
    while start < len(responses):
        t = responses[start][0]
        stop = start + 1
        while stop < len(responses) and responses[stop][0] - t <= _T_EPS:
            stop += 1
        batch = responses[start:stop]
        for _arr, ai, di, p, tx_dbm, closing, circulation, bit in batch:
            apos = anchor_pos[ai]
            link = ch.link_sample(float(np.linalg.norm(p - apos)), closing, tx_dbm, ccfg)
            interferers = [otx - ch.path_loss_db(float(np.linalg.norm(op - apos)), ccfg)
                           for _oarr, oai, odi, op, otx, *_ in batch
                           if oai != ai or odi != di]
            sinr = ch.sinr_db(link.rx_power_dbm, interferers, ccfg.noise_floor_dbm)
            if ch.reception_decision(link.rx_power_dbm, sinr, ccfg) is ch.Reception.DELIVERED:
                records.append(RawRecord(t, macs[di], circulation, bit))
        start = stop
    return records


def run_simulation(graph: VesselGraph, traces: list[MobilityTrace],
                   anchors: list[Anchor], scenario: EventScenario,
                   energy_cfg: EnergyConfig, channel_cfg: ch.ChannelConfig,
                   duration_s: float,
                   protocol: ProtocolParams | None = None) -> SimResult:
    """Run one deterministic simulation and collect raw records."""
    proto = protocol or ProtocolParams()
    if not anchors:
        raise ConfigMismatch("at least one anchor is required")
    if duration_s <= 0:
        raise ConfigMismatch("duration_s must be positive")
    strides = []
    for trace in traces:
        if len(trace.times) < 2:
            raise ConfigMismatch(f"device {trace.device_id}: trace has fewer than 2 samples")
        if trace.times[-1] + _T_EPS < duration_s:
            raise ConfigMismatch(
                f"device {trace.device_id}: trace covers {trace.times[-1]:.3f} s "
                f"< simulation duration {duration_s:.3f} s")
        # sense ticks ride the upsampled sample grid
        dt = trace.times[1] - trace.times[0]
        stride = (1.0 / scenario.sense_rate_hz) / dt
        if abs(stride - round(stride)) > 1e-6 or round(stride) < 1:
            raise ConfigMismatch(
                f"device {trace.device_id}: trace period {dt:.6f} s does not divide the "
                f"sense period {1.0 / scenario.sense_rate_hz:.6f} s")
        strides.append(int(round(stride)))

    target = None if scenario.target is None else np.asarray(scenario.target, dtype=float)
    t_last = duration_s + _T_EPS
    beacon_air = ch.airtime_s(proto.beacon_bits, channel_cfg)
    response_air = ch.airtime_s(proto.response_bits, channel_cfg)
    rx_cost = ch.pulse_count(proto.beacon_bits) * energy_cfg.cost_rx_pulse
    tx_cost = ch.pulse_count(proto.response_bits) * energy_cfg.cost_tx_pulse
    anchor_pos = [np.asarray(a.position, dtype=float) for a in anchors]
    anchor_tx = [a.tx_power_dbm if a.tx_power_dbm is not None else channel_cfg.tx_power_dbm
                 for a in anchors]
    ranges = [_max_range_cm(tx, channel_cfg) for tx in anchor_tx]
    motion = {}
    for v in graph.vessels:
        direction = (v.end - v.start) / v.length if v.length > 0 else v.start * 0.0
        motion[v.id] = (v.start, direction * v.speed_cm_s, v.is_heart)
    samples = [(float(m), _SAMPLE, None) for m in range(math.floor(t_last) + 1)]

    device_rows, responses, consumed_pj = [], [], {}
    for di, (trace, stride) in enumerate(zip(traces, strides)):
        beacons = _decoded_beacons(_visit_schedule(trace, motion), anchors, anchor_pos,
                                   anchor_tx, ranges, channel_cfg, beacon_air, duration_s)
        times = np.asarray(trace.times, dtype=float)
        ticks = np.arange(0, len(times), stride)
        ticks = ticks[times[ticks] <= t_last]
        hits = _sense_hits(np.asarray(trace.positions, dtype=float)[ticks], target,
                           scenario.detection_radius_cm)
        timeline = ([(b[0], _BEACON, b) for b in beacons]
                    + [(t, _SENSE, hit) for t, hit in zip(times[ticks].tolist(), hits.tolist())]
                    + samples)
        timeline.sort(key=itemgetter(0, 1))   # stable: beacons stay in anchor order

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
    records = _decide_responses(responses, anchor_pos, channel_cfg,
                                [trace.device_id for trace in traces])
    records.sort(key=lambda r: (r.report_time_s, r.device_mac))
    energy_rows = [row for group in zip(*device_rows) for row in group]
    return SimResult(records=records, energy_rows=energy_rows,
                     consumed_pj=consumed_pj, duration_s=duration_s)


def export_raw_csv(records: list[RawRecord], path: str) -> None:
    rows = sorted(records, key=lambda r: (r.report_time_s, r.device_mac))
    with open(path, "w") as fh:
        fh.write("report_time_s,device_mac,circulation_time_s,event_bit\n")
        for r in rows:
            fh.write(f"{r.report_time_s:.6f},{r.device_mac},"
                     f"{r.circulation_time_s:.6f},{r.event_bit}\n")


def export_energy_csv(rows: list[tuple[float, int, float, int]], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("time_s,device_mac,energy_pj,powered\n")
        for t, mac, pj, powered in rows:
            fh.write(f"{t:.6f},{mac},{pj:.6f},{powered}\n")
