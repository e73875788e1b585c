"""Simulation engine: beaconing, sensing, backscatter responses, records.

A run is a SimPlan, the one description of a scenario, plus the event's
target: run_simulation(graph, traces, plan, target) reads the plan's
anchors, energy, channel, protocol, duration, sense rate and detection
radius.  Its device count and upsampling shape the traces the caller passes.
The plan and its parts check their own ranges when built; run_simulation
checks only that the traces fit the plan.

Devices interact in one place only: responses that overlap at an anchor.
Nothing flows back from there (a device has spent its energy and marked the
episode answered before reception is decided), whether a beacon is decoded
depends only on geometry and on the other anchors' timing, and a device's
energy depends only on its own events.  A run is therefore three phases:

1. Geometry, for all devices at once.  The run's concatenated visit
   schedules give, per anchor, each device's windows within packet range;
   the beacon instants k * interval inside them are enumerated, and every
   instant's position, distances and closing speed come from array passes
   (row dots equal to np.dot and np.linalg.norm bit for bit).  Each beacon
   is decided against sensitivity and the other anchors' overlapping
   beacons; a decoded one carries its rx dBm.
2. Per-device scan.  One pass over the device's own timeline of decoded
   beacons, sense ticks (on the upsampled sample grid) and 1 Hz energy
   samples advances its capacitor along the harvest curve, spends energy,
   keeps the circulation clock and event bit, and collects the responses it
   sends, each at the rx of the beacon it answers plus the backscatter gain.
   The capacitor steps exactly as energy.advance_harvest and
   energy.try_consume would, with the cycle phase in a local.  While the
   stored energy is a charge-grid entry, or one less a paid sense tick, a
   harvest is a gather from the tables of energy.charge_tables and a paid
   sense tick is try_consume's comparison and subtraction.  Every other
   state (the start at 0 J, a step past the grid's end or limit, a beacon's
   rx or tx spend above 0 J) takes energy.energy_after.  Beacon spends, a
   few thousand per paper-default event against about 192k sense ticks, go
   through energy.try_consume.  Whether a sense tick sees the
   target is decided beforehand for all of the device's ticks in one
   distance pass (the sense-hit mask); the scan reads one bool per tick and
   sets the bit when that tick's sensing is paid for.  The timeline is the
   three time arrays concatenated in tie order and put in time order by one
   stable argsort: at equal timestamps beacons come first, by anchor index,
   then the sense tick, then the energy sample.
3. Collisions.  Responses arriving within _T_EPS of the earliest pending
   arrival form one batch.  Each is decided against the others in the
   batch, summed in (arrival time, anchor, device) order; a decoded one
   becomes a record stamped with the batch's earliest arrival.

Beacons and responses are decided by one routine, _delivered, in array
passes over one list of (packet, interferer) pairs.  Each value repeats the
scalar channel functions' float operations in their order (math's log10 and
float **, not numpy's, interference added left to right), so rx and verdicts
are theirs bit for bit.  Energy rows come out in (time, device) order
and records in (time, mac) order, so a run is deterministic regardless of
how the caller schedules runs.  A caller that does not read the energy rows
can skip building them (energy_rows=False); the samples still advance the
capacitor, so records and consumption do not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from . import channel as ch
from .energy import EnergyConfig, EnergyState, charge_tables, energy_after, try_consume
from .errors import ConfigMismatch, require
from .vasculature import CSV_ROWS, MobilityTrace, VesselGraph, write_csv

_T_EPS = 1e-9
_RANGES: dict[tuple, float] = {}   # _max_range_cm, per process


@dataclass
class Anchor:
    mac: int
    position: tuple[float, float, float]
    beacon_interval_s: float = 0.1
    tx_power_dbm: float | None = None   # None = channel default

    def __post_init__(self):
        require(self.beacon_interval_s > 0, "beacon_interval_s", "must be positive")


@dataclass
class ProtocolParams:
    beacon_bits: int = 16
    response_bits: int = 48
    # beacon silence (in units of the anchor interval) that closes a contact
    # episode; a device answers the first beacon it hears per episode
    episode_gap_intervals: float = 1.5

    def __post_init__(self):
        for name in ("beacon_bits", "response_bits"):
            require(getattr(self, name) >= 1, name, "must be >= 1")
        require(self.episode_gap_intervals > 0, "episode_gap_intervals", "must be positive")


@dataclass
class SimPlan:
    """Everything one simulated event run needs besides the graph and target."""
    device_count: int = 64
    duration_s: float = 1000.0
    detection_radius_cm: float = 1.0
    sense_rate_hz: int = 3
    upsample_factor: int = 3
    upsample_sigma_cm: float = 0.2
    anchors: list[Anchor] = field(default_factory=lambda: [Anchor(0, (0.8, 0.0, 0.0))])
    energy_cfg: EnergyConfig = field(default_factory=EnergyConfig)
    channel_cfg: ch.ChannelConfig = field(default_factory=ch.ChannelConfig)
    protocol: ProtocolParams = field(default_factory=ProtocolParams)

    def __post_init__(self):
        require(self.device_count >= 1, "device_count", "must be >= 1")
        for name in ("duration_s", "detection_radius_cm", "sense_rate_hz"):
            require(getattr(self, name) > 0, name, "must be positive")   # NaN fails too
        require(self.upsample_factor >= 1 and self.upsample_factor % self.sense_rate_hz == 0,
                "upsample_factor", "must be a positive integer multiple of the sense rate "
                f"(got {self.upsample_factor} vs {self.sense_rate_hz})")
        require(self.upsample_sigma_cm >= 0, "upsample_sigma_cm", "must be >= 0")
        require(len(self.anchors) > 0, "anchors", "must list at least one anchor")


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


def _visit_schedule(traces: list[MobilityTrace], graph: VesselGraph, duration_s: float):
    """The run's visit schedules, one row per visit, concatenated: (each device's
    first row and one past its last, entry times, exit times, start points,
    velocities, heart flags).  RF geometry reads these, never the sampled
    polyline, which corner-cuts short vessels such as the heart."""
    _, starts, _ = graph.segment_arrays
    velocities, heart = graph.motion_arrays
    first = np.cumsum([0] + [len(trace.visit_times) for trace in traces])
    vt = np.concatenate([np.asarray(trace.visit_times, dtype=float) for trace in traces])
    rows = graph.rows_of(np.concatenate([trace.visit_vessels for trace in traces]))
    ends = np.append(vt[1:], duration_s)
    ends[first[1:] - 1] = duration_s   # a device's last visit lasts to the end
    return first, vt, ends, starts[rows], velocities[rows], heart[rows]


def _max_range_cm(tx_dbm: float, ccfg: ch.ChannelConfig) -> float:
    """Largest distance where a packet still clears the sensitivity gate,
    searched once per process for each link budget and path-loss model."""
    budget = tx_dbm - ccfg.rx_sensitivity_dbm
    key = (budget, ccfg.f_c, ccfg.spreading_exponent,
           tuple((layer.thickness_cm, layer.atten_db_per_cm) for layer in ccfg.layers))
    if key not in _RANGES:
        _RANGES[key] = _range_search(budget, ccfg)
    return _RANGES[key]


def _range_search(budget: float, ccfg: ch.ChannelConfig) -> float:
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


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """float(np.dot(a[i], b[i])) per row, bit for bit: the BLAS dot np.dot and
    np.linalg.norm take on one vector (einsum and norm(axis=1) sum otherwise)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _scalar_map(f, x: np.ndarray) -> np.ndarray:
    """f of each value, on Python floats (math.log10 and float ** are not numpy's)."""
    return np.fromiter(map(f, x.tolist()), float, len(x))


def _path_loss(dist: np.ndarray, ccfg: ch.ChannelConfig) -> np.ndarray:
    """ch.path_loss_db of each distance, bit for bit: its float operations in
    its order, each distance stopping at the first layer it does not enter."""
    inside = dist > 0   # at distance 0 there is no spreading term and no layer
    x = 4.0 * math.pi * ccfg.f_c * (dist[inside] / 100.0) / ch.SPEED_OF_LIGHT
    spreading = 10.0 * ccfg.spreading_exponent * _scalar_map(math.log10, x)
    loss = np.zeros(len(dist))
    loss[inside] = np.where(spreading < 0.0, 0.0, spreading)   # max(spreading, 0.0), -0.0 kept
    remaining = dist
    for layer in ccfg.layers:
        crossed = np.minimum(layer.thickness_cm, remaining)
        inside &= crossed > 0
        np.add(loss, crossed * layer.atten_db_per_cm, out=loss, where=inside)
        remaining = remaining - crossed   # read again only where still inside
    return loss


def _delivered(dist: np.ndarray, closing: np.ndarray, tx: np.ndarray, row: np.ndarray,
               itx: np.ndarray, idist: np.ndarray, ccfg: ch.ChannelConfig):
    """(indices of the delivered packets, ascending; rx dBm of every packet).
    Packet i is sent at tx[i] dBm over dist[i] cm, closing at closing[i]
    cm/s; pair j, sent at itx[j] dBm over idist[j] cm, interferes with packet
    row[j] (ascending).  Each value repeats the float operations of
    ch.link_sample, ch.sinr_db and ch.reception_decision in their order."""
    loss = _path_loss(np.concatenate((dist, idist)), ccfg)
    rx = ch.received_power_dbm(tx, loss[:len(dist)],
                               ch.doppler_penalty_db(ch.doppler_shift_hz(closing, ccfg), ccfg))
    audible = (rx >= ccfg.rx_sensitivity_dbm).nonzero()[0]   # SINR matters only for these
    # added left to right per packet, in pair order, as ch.sinr_db adds them
    interference = np.bincount(row, _scalar_map(ch.dbm_to_mw, itx - loss[len(dist):]), len(dist))
    denom = ch.dbm_to_mw(ccfg.noise_floor_dbm) + interference[audible]
    ratio = np.divide(_scalar_map(ch.dbm_to_mw, rx[audible]), denom,
                      out=np.full(len(denom), np.inf), where=denom != 0.0)   # inf: the 200 dB cap
    sinr = np.minimum(10.0 * _scalar_map(math.log10, ratio), 200.0)
    return audible[sinr >= ccfg.sinr_threshold_db], rx


def _visit_windows(vdev: np.ndarray, vt: np.ndarray, ends: np.ndarray, vstart: np.ndarray,
                   vvel: np.ndarray, anchor_pos: np.ndarray, radius_cm: float):
    """(device, t_in, t_out) in-range intervals, one per visit: visit k of
    device vdev[k] runs from vt[k] to ends[k] at vstart + tau * vvel, so
    being in range is a quadratic in tau."""
    w = vstart - anchor_pos
    aa = np.einsum("ij,ij->i", vvel, vvel)
    bb = 2.0 * np.einsum("ij,ij->i", w, vvel)
    cc = np.einsum("ij,ij->i", w, w) - radius_cm * radius_cm
    disc = bb * bb - 4.0 * aa * cc
    dwell = ends - vt
    moving = aa > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):   # rows at rest or never in range
        root = np.sqrt(disc)
        tau0 = np.where(moving, np.maximum((-bb - root) / (2.0 * aa), 0.0), 0.0)
        tau1 = np.where(moving, np.minimum((-bb + root) / (2.0 * aa), dwell), dwell)
    hit = ((moving & (disc >= 0.0)) | ((aa == 0.0) & (cc <= 0.0))) & (dwell > 0) & (tau0 < tau1)
    return zip(*(x[hit].tolist() for x in (vdev, vt + tau0, vt + tau1)))


def _decoded_beacons(schedule, anchors: list[Anchor], anchor_pos: np.ndarray,
                     anchor_tx: list[float], ccfg: ch.ChannelConfig, beacon_air: float,
                     duration_s: float):
    """Per device of the schedule, (t, anchor index, position, closing speed,
    rx dBm, in heart) of each beacon it decodes, in (t, anchor index) order."""
    first, vt, ends, vstart, vvel, vheart = schedule
    vdev = np.repeat(np.arange(len(first) - 1), np.diff(first))
    intervals = np.array([a.beacon_interval_s for a in anchors])
    cands = []   # beacon instants k * interval in each window; k carries over a device's windows
    for ai, interval in enumerate(intervals.tolist()):
        device = -1
        for d, t0, t1 in _visit_windows(vdev, vt, ends, vstart, vvel, anchor_pos[ai],
                                        _max_range_cm(anchor_tx[ai], ccfg)):
            if d != device:
                device, k = d, 0
            k = max(k, math.ceil((t0 - _T_EPS) / interval) - 1)
            while True:
                t = k * interval
                if t > duration_s + _T_EPS or t1 < t - _T_EPS:
                    break
                k += 1
                if t0 > t + _T_EPS:
                    continue
                cands.extend((d, t, ai))

    # kinematics of every candidate, in (device, t, anchor) order
    cands = np.array(cands, dtype=float).reshape(-1, 3)
    cands = cands[np.lexsort(cands.T[::-1])]
    dev, t, ai_of = cands[:, 0].astype(np.intp), cands[:, 1].copy(), cands[:, 2].astype(np.intp)
    v = np.empty(len(t), dtype=np.intp)
    bounds = np.searchsorted(dev, np.arange(len(first)))
    for d in np.diff(bounds).nonzero()[0].tolist():
        lo, hi = bounds[d], bounds[d + 1]
        v[lo:hi] = first[d] + np.maximum(
            np.searchsorted(vt[first[d]:first[d + 1]], t[lo:hi], side="right") - 1, 0)
    out = [[] for _ in range(len(first) - 1)]
    tx_of = np.array(anchor_tx, dtype=float)
    for lo in range(0, len(t), 1024):   # a block of candidates at a time bounds the Python floats
        bd, bt, ba, bv = (x[lo:lo + 1024] for x in (dev, t, ai_of, v))
        p = vstart[bv] + (bt - vt[bv])[:, None] * vvel[bv]
        offset = p - anchor_pos[ba]
        dist = np.sqrt(_row_dots(offset, offset))
        closing = -np.divide(_row_dots(vvel[bv], offset), dist, out=np.zeros_like(dist),
                             where=dist > 0)
        # (candidate, other anchor beaconing at its instant) pairs, in anchor order
        row, j = ((np.abs(np.round(bt[:, None] / intervals) * intervals - bt[:, None]) <= beacon_air)
                  & (ba[:, None] != np.arange(len(anchors)))).nonzero()
        gap = p[row] - anchor_pos[j]
        delivered, rx = _delivered(dist, closing, tx_of[ba], row, tx_of[j],
                                   np.sqrt(_row_dots(gap, gap)), ccfg)
        devs, ais, ts, rxs, closings, hearts = (
            x.tolist() for x in (bd, ba, bt, rx, closing, vheart[bv]))
        for i in delivered.tolist():
            out[devs[i]].append((ts[i], ais[i], p[i], closings[i], rxs[i], hearts[i]))
    return out


def _sense_hits(points: np.ndarray, target: np.ndarray | None,
                radius_cm: float) -> np.ndarray:
    """float(np.linalg.norm(p - target)) < radius_cm for each row p of points;
    all False without a target."""
    if target is None:
        return np.zeros(len(points), dtype=bool)
    offsets = points - target
    return np.sqrt(_row_dots(offsets, offsets)) < radius_cm


def _decide_responses(responses: list[tuple], anchor_pos: np.ndarray,
                      ccfg: ch.ChannelConfig, macs: list[int]) -> list[RawRecord]:
    """Records of the responses that survive their collision batch.

    `responses` holds (arrival, anchor index, device index, position,
    tx dBm, closing speed, circulation time, event bit) in (arrival,
    anchor, device) order.  A batch-mate interferes unless it answers the
    same anchor from the same device.
    """
    if not responses:
        return []
    arrivals, anchor_of, device_of, pos, tx, closing, circulation, bit = zip(*responses)
    bounds = [0]   # batch b is bounds[b]:bounds[b + 1]
    while bounds[-1] < len(responses):
        t, stop = arrivals[bounds[-1]], bounds[-1] + 1
        while stop < len(responses) and arrivals[stop] - t <= _T_EPS:
            stop += 1
        bounds.append(stop)
    ai, di, tx, own = np.array(anchor_of), np.array(device_of), np.array(tx), np.arange(len(tx))
    size = np.diff(bounds)
    first = np.repeat(bounds[:-1], size)
    # (response, batch-mate) pairs in batch order, the response itself included
    width = size.repeat(size)
    row = own.repeat(width)
    mate = first[row] + np.arange(len(row)) - (np.cumsum(width) - width)[row]
    keep = (ai[mate] != ai[row]) | (di[mate] != di[row])
    row, mate = row[keep], mate[keep]
    # distance to each response's anchor from itself, then from each interferer
    gap = (np.array(pos).reshape(-1, 3)[np.concatenate((own, mate))]
           - anchor_pos[ai[np.concatenate((own, row))]])
    dist = np.sqrt(_row_dots(gap, gap))
    delivered, _ = _delivered(dist[:len(own)], np.array(closing), tx, row, tx[mate],
                              dist[len(own):], ccfg)
    return [RawRecord(arrivals[first[i]], macs[device_of[i]], circulation[i], bit[i])
            for i in delivered.tolist()]


def run_simulation(graph: VesselGraph, traces: list[MobilityTrace], plan: SimPlan,
                   target: tuple[float, float, float] | None = None,
                   energy_rows: bool = True) -> SimResult:
    """Run one deterministic simulation of the traces under the plan, with
    an event at target (None: no event), and collect raw records (and the
    1 Hz energy rows unless energy_rows is False)."""
    anchors, duration_s, proto = plan.anchors, plan.duration_s, plan.protocol
    energy_cfg, channel_cfg = plan.energy_cfg, plan.channel_cfg
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
        stride = (1.0 / plan.sense_rate_hz) / dt
        if abs(stride - round(stride)) > 1e-6 or round(stride) < 1:
            raise ConfigMismatch(
                f"device {trace.device_id}: trace period {dt:.6f} s does not divide the "
                f"sense period {1.0 / plan.sense_rate_hz:.6f} s")
        strides.append(int(round(stride)))

    target = None if target is None else np.asarray(target, dtype=float)
    t_last = duration_s + _T_EPS
    beacon_air = ch.airtime_s(proto.beacon_bits, channel_cfg)
    response_air = ch.airtime_s(proto.response_bits, channel_cfg)
    rx_cost = ch.pulse_count(proto.beacon_bits) * energy_cfg.cost_rx_pulse
    tx_cost = ch.pulse_count(proto.response_bits) * energy_cfg.cost_tx_pulse
    cost_sense = energy_cfg.cost_sense
    t_cycle, e_max = energy_cfg.t_cycle, energy_cfg.e_max
    e_turn_on, e_turn_off = energy_cfg.e_turn_on, energy_cfg.e_turn_off
    grid, low, drop = charge_tables(energy_cfg)
    size = min(len(low), len(drop))   # the tables only grow, so a stale size is safe
    anchor_pos = np.array([a.position for a in anchors], dtype=float)
    anchor_tx = [a.tx_power_dbm if a.tx_power_dbm is not None else channel_cfg.tx_power_dbm
                 for a in anchors]
    sample_t = np.arange(math.floor(t_last) + 1, dtype=float)
    sample_times = sample_t.tolist()   # one float per second, shared by every device's rows

    decoded = _decoded_beacons(_visit_schedule(traces, graph, duration_s), anchors, anchor_pos,
                               anchor_tx, channel_cfg, beacon_air, duration_s) if traces else []
    device_rows, responses, consumed_pj = [], [], {}
    for di, (trace, stride) in enumerate(zip(traces, strides)):
        beacons, decoded[di] = decoded[di], None   # dropped once scanned
        times = np.asarray(trace.times, dtype=float)
        ticks = np.arange(0, len(times), stride)
        ticks = ticks[times[ticks] <= t_last]
        hits = _sense_hits(np.asarray(trace.positions, dtype=float)[ticks], target,
                           plan.detection_radius_cm).tolist()
        # beacons, sense ticks, samples: concatenated in tie order, so a stable
        # sort on time alone keeps that order at equal times (and beacons in
        # their (t, anchor) order)
        n_beacons, first_sample = len(beacons), len(beacons) + len(ticks)
        merged = np.concatenate(([b[0] for b in beacons], times[ticks], sample_t))
        order = np.argsort(merged, kind="stable")

        state = EnergyState()
        last_adv = last_reset = consumed = phase = 0.0
        # a harvest of c cycles lands on grid[base + c], and on grid[spent + c]
        # once a sense tick is paid; -1 while state.energy is no table entry
        base = spent = -1
        last_delivered = None
        event_bit, responded = 0, False
        rows = []
        for t, k in zip(merged[order].tolist(), order.tolist()):
            if t > last_adv:   # energy.advance_harvest, on locals
                total = phase + (t - last_adv)
                cycles = int(total / t_cycle)
                phase = total - cycles * t_cycle
                if cycles > 0 and state.energy < e_max:
                    n = base + cycles
                    if base >= 0 and n < size:
                        state.energy, base, spent = grid[n], low[n], drop[n]
                    else:   # energy_after grows the grid and the tables
                        state.energy, n = energy_after(grid, state.energy, cycles, energy_cfg)
                        size = min(len(low), len(drop))
                        base, spent = (low[n], drop[n]) if 0 <= n < size else (-1, -1)
                if not state.powered and state.energy >= e_turn_on:
                    state.powered = True
                last_adv = t
            if k >= n_beacons:
                if k >= first_sample:
                    if energy_rows:
                        rows.append((sample_times[k - first_sample], trace.device_id,
                                     state.energy * 1e12, int(state.powered)))
                elif state.powered and state.energy >= cost_sense:   # try_consume's rule
                    state.energy -= cost_sense
                    if state.energy <= e_turn_off:
                        state.powered = False
                    base, spent = spent, -1
                    consumed += cost_sense
                    if hits[k - n_beacons]:
                        event_bit = 1
                continue
            _, ai, p, closing, rx_dbm, in_heart = beacons[k]
            if not state.powered or try_consume(state, rx_cost, energy_cfg) is None:
                continue
            if rx_cost > 0.0:
                base = spent = -1
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
            if tx_cost > 0.0:
                base = spent = -1
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
    return SimResult(records=records,
                     energy_rows=[row for group in zip(*device_rows) for row in group],
                     consumed_pj=consumed_pj)


_ROW = np.dtype([("time", float), ("mac", np.int64), ("value", float), ("flag", np.int64)])


def export_raw_csv(records: list[RawRecord], path: str) -> None:
    """One row per record, in the order given (run_simulation's is (time, mac))."""
    write_csv(path, "report_time_s,device_mac,circulation_time_s,event_bit",
              [np.fromiter(((r.report_time_s, r.device_mac, r.circulation_time_s, r.event_bit)
                            for r in records), _ROW)])


def export_energy_csv(rows: list[tuple[float, int, float, int]], path: str) -> None:
    write_csv(path, "time_s,device_mac,energy_pj,powered",
              (np.fromiter(rows[lo:lo + CSV_ROWS], _ROW) for lo in range(0, len(rows), CSV_ROWS)))
