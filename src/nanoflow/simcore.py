"""Simulation engine: beaconing, sensing, backscatter responses, records.

A run is a SimPlan, the one description of a scenario, plus the event's
target: run_simulation(graph, traces, plan, target) reads the plan's
anchors, energy, channel, protocol, duration, sense rate and detection
radius.  Its device count and upsampling shape the traces the caller passes.
The plan and its parts check their own ranges when built, and each trace
time grid is checked against the plan once, where its tick grid is built.

Devices interact in one place only: responses that overlap at an anchor.
Nothing flows back from there (a device has spent its energy and marked the
episode answered before reception is decided), whether a beacon is decoded
depends only on geometry and on the other anchors' timing, and a device's
energy depends only on its own events.  A run is therefore three phases:

1. Geometry, for all devices at once (decode_beacons).  The concatenated
   visit schedules give, per anchor, each device's windows within packet range;
   the beacon instants k * interval inside them are enumerated, and every
   instant's position, distances and closing speed come from array passes
   (row dots equal to np.dot and np.linalg.norm bit for bit).  Each beacon
   is decided against sensitivity and the other anchors' overlapping
   beacons; a decoded one carries its rx dBm, path loss and Doppler
   penalty.  No value mixes devices (each is elementwise or a per-packet
   sum in pair order), so a device's beacons are the same bit for bit
   whatever else is decoded with it: phase 1 may span the traces of a
   batch of runs of one plan, and each run then takes its own slice
   (benchmark.run_events does this for small events).
2. Per-device scan.  The device's decoded beacons, sense ticks (on the
   upsampled sample grid) and 1 Hz energy samples advance its capacitor
   along the harvest curve, spend energy, keep the circulation clock and
   event bit, and decide which beacons it answers: the first it pays for in
   each episode, if it can pay for the response too.  The capacitor steps
   exactly as energy.advance_harvest and energy.try_consume would, from
   grid[0], 0 J, of energy.charge_tables' grid, by grid index while the
   energy is on it.  Each device steps from tick to tick on a tick grid
   built once per process for each distinct trace time grid (a small cache,
   never changed), and stops at the sparse items, in time and tie order:
   decoded beacons (before a tick at the same time), ticks that see the
   target, and energy samples off the tick grid (they harvest; after a tick
   at the same time).  A row due on a tick is recorded once its tick is done.
   One call into the compiled kernel (_scan.c, built with the system C
   compiler on first use; see _scan_kernel) scans every device of the run,
   with the same float operations in the same order as the Python loop
   below.  The Python loop scans every device where no kernel loads, and
   any device the kernel flags: one whose harvest leaves a charge grid cut
   short at energy._GRID_LIMIT, where energy.energy_after's closed form
   takes over.  Each answered beacon becomes a response, sent at the
   beacon's rx plus the backscatter gain and received at the anchor over
   the beacon's path (its path loss and Doppler penalty).
3. Collisions.  Responses arriving within _T_EPS of the earliest pending
   arrival form one batch.  Each is decided against the others in the
   batch, summed in (arrival time, anchor, device) order; a decoded one
   becomes a record stamped with the batch's earliest arrival.  Only a
   batch of two or more needs path losses, from each interferer.

A packet's link budget (_link_budget: path loss, Doppler penalty, rx) and
its verdict (_delivered: sensitivity, then SINR against its interferers)
are array passes; beacons and responses share the verdict pass.  Each value
repeats the scalar channel functions' float operations in their order
(math's log10 and float **, not numpy's, interference added left to right),
so rx and verdicts are theirs bit for bit.  Energy rows come out as one _ROW
array in (time, device) order and records as one RECORD recarray in (time,
mac) order, so a run is deterministic however runs are scheduled.  A
caller that does not read the energy rows can skip them (energy_rows=False);
the samples still advance the capacitor, so records and consumption do not
change.
"""

from __future__ import annotations

import functools
import math
import os
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from . import channel as ch
from .energy import (EnergyConfig, EnergyState, charge_arrays, charge_tables, energy_after,
                     try_consume)
from .errors import ConfigMismatch, require
from .vasculature import MobilityTrace, VesselGraph, write_csv

_T_EPS = 1e-9
_RANGES: dict[tuple, float] = {}   # _max_range_cm, per process
_TICK_GRIDS: dict[tuple, tuple] = {}   # _cached_tick_grid's last few grids, per process


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


# np.record rows: r.event_bit reads, and a recarray view of them skips a dtype reset
RECORD = np.dtype((np.record, [("report_time_s", float), ("device_mac", np.int64),
                               ("circulation_time_s", float), ("event_bit", np.int64)]))
_ROW = np.dtype([("time", float), ("mac", np.int64), ("value", float), ("flag", np.int64)])


@dataclass
class SimResult:
    records: np.recarray   # RECORD; (time, mac) order
    energy_rows: np.ndarray   # _ROW: time_s, mac, pJ, powered; (time, device) order
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


def _link_budget(dist: np.ndarray, closing: np.ndarray, tx: np.ndarray,
                 ccfg: ch.ChannelConfig):
    """(path loss dB, Doppler penalty dB, rx dBm) of each packet, sent at
    tx[i] dBm over dist[i] cm, closing at closing[i] cm/s: ch.link_sample's
    float operations in its order."""
    loss = _path_loss(dist, ccfg)
    penalty = ch.doppler_penalty_db(ch.doppler_shift_hz(closing, ccfg), ccfg)
    return loss, penalty, ch.received_power_dbm(tx, loss, penalty)


def _delivered(rx: np.ndarray, row: np.ndarray, interferer_dbm: np.ndarray,
               ccfg: ch.ChannelConfig) -> np.ndarray:
    """Indices of the delivered packets, ascending.  Packet i arrives at
    rx[i] dBm; pair j, arriving at interferer_dbm[j] dBm, interferes with
    packet row[j] (ascending).  Each value repeats the float operations of
    ch.sinr_db and ch.reception_decision in their order."""
    audible = (rx >= ccfg.rx_sensitivity_dbm).nonzero()[0]   # SINR matters only for these
    # added left to right per packet, in pair order, as ch.sinr_db adds them
    interference = np.bincount(row, _scalar_map(ch.dbm_to_mw, interferer_dbm), len(rx))
    denom = ch.dbm_to_mw(ccfg.noise_floor_dbm) + interference[audible]
    ratio = np.divide(_scalar_map(ch.dbm_to_mw, rx[audible]), denom,
                      out=np.full(len(denom), np.inf), where=denom != 0.0)   # inf: the 200 dB cap
    sinr = np.minimum(10.0 * _scalar_map(math.log10, ratio), 200.0)
    return audible[sinr >= ccfg.sinr_threshold_db]


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
    rx dBm, in heart, path loss dB, Doppler penalty dB) of each beacon it
    decodes, in (t, anchor index) order."""
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
        loss, penalty, rx = _link_budget(dist, closing, tx_of[ba], ccfg)
        delivered = _delivered(rx, row, tx_of[j] - _path_loss(np.sqrt(_row_dots(gap, gap)), ccfg),
                               ccfg)
        devs, ais, ts, rxs, closings, hearts, losses, penalties = (
            x.tolist() for x in (bd, ba, bt, rx, closing, vheart[bv], loss, penalty))
        for i in delivered.tolist():
            out[devs[i]].append((ts[i], ais[i], p[i], closings[i], rxs[i], hearts[i],
                                 losses[i], penalties[i]))
    return out


def decode_beacons(graph: VesselGraph, traces: list[MobilityTrace], plan: SimPlan):
    """Per trace, (t, anchor index, position, closing speed, rx dBm, in heart,
    path loss dB, Doppler penalty dB) of each beacon its device decodes under
    the plan, in (t, anchor index) order.  The traces may be those of
    several runs of the plan: a device's beacons do not depend on the other
    traces decoded with it (phase 1)."""
    if not traces:
        return []
    ccfg = plan.channel_cfg
    anchor_tx = [a.tx_power_dbm if a.tx_power_dbm is not None else ccfg.tx_power_dbm
                 for a in plan.anchors]
    return _decoded_beacons(_visit_schedule(traces, graph, plan.duration_s), plan.anchors,
                            np.array([a.position for a in plan.anchors], dtype=float), anchor_tx,
                            ccfg, ch.airtime_s(plan.protocol.beacon_bits, ccfg), plan.duration_s)


def _sense_hits(points: np.ndarray, target: np.ndarray | None,
                radius_cm: float) -> np.ndarray:
    """float(np.linalg.norm(p - target)) < radius_cm for each row p of points,
    all False without a target.  Only rows in the radius box are measured (a
    float norm is at least each |offset| whose square does not underflow),
    and the box is tested along x first."""
    hits = np.zeros(len(points), dtype=bool)
    box = max(radius_cm, 1e-150)
    near = [] if target is None else (np.abs(points[:, 0] - target[0]) < box).nonzero()[0]
    if len(near):
        offsets = points[near] - target
        inside = np.abs(offsets) < box
        inside = inside[:, 1] & inside[:, 2]   # and so in the radius box
        offsets = offsets[inside]
        hits[near[inside]] = np.sqrt(_row_dots(offsets, offsets)) < radius_cm
    return hits


_BEACON, _SAMPLE, _TICK, _END = range(4)   # a scan stop's kind, in tie order


def _tick_grids(traces: list[MobilityTrace], sense_rate_hz: int, duration_s: float) -> list:
    """Each trace's _cached_tick_grid.  A trace whose times are those of the
    trace before, bit for bit, takes that grid without a cache lookup, which
    would hash all of its times again."""
    grids, last = [], None
    for trace in traces:
        times = np.asarray(trace.times, dtype=float).tobytes()
        if times != last:
            grid, last = _cached_tick_grid(trace, sense_rate_hz, duration_s), times
        grids.append(grid)
    return grids


def _cached_tick_grid(trace: MobilityTrace, sense_rate_hz: int, duration_s: float):
    """_tick_grid of the trace, from a per-process cache keyed by its time
    grid, sense rate and duration that keeps the 8 grids built last."""
    key = (np.asarray(trace.times, dtype=float).tobytes(), sense_rate_hz, duration_s)
    if key not in _TICK_GRIDS:
        if len(_TICK_GRIDS) >= 8:
            del _TICK_GRIDS[next(iter(_TICK_GRIDS))]   # the oldest
        _TICK_GRIDS[key] = _tick_grid(trace, sense_rate_hz, duration_s)
    return _TICK_GRIDS[key]


def _tick_grid(trace: MobilityTrace, sense_rate_hz: int, duration_s: float):
    """(tick times, steps, tick samples, stops, row ticks, packed) of a
    trace's time grid, ticks on its samples up to the duration.  steps[i] is
    tick time i less tick time i - 1 (steps[0] is never read); the tick
    samples are a slice of the trace's samples.  Stops: the samples off the
    ticks (they harvest), then the end.  Row ticks: for each sample on a
    tick, the ticks done once its tick is, then a count never reached.
    Packed, the same for the compiled scan: (tick times and the off-tick
    sample times, row ticks without the last, (tick count, off-tick sample
    count, row tick count)).  All of it is read-only (tuples, a slice and
    read-only arrays), since runs share it.  A grid that does not fit the
    plan raises ConfigMismatch naming the device."""
    times = np.asarray(trace.times, dtype=float)
    if len(times) < 2:
        raise ConfigMismatch(f"device {trace.device_id}: trace has fewer than 2 samples")
    if times[-1] + _T_EPS < duration_s:
        raise ConfigMismatch(f"device {trace.device_id}: trace covers {times[-1]:.3f} s "
                             f"< simulation duration {duration_s:.3f} s")
    if not (times[1:] > times[:-1]).all():   # before the period: dt 0 has no stride
        raise ConfigMismatch(f"device {trace.device_id}: trace times do not strictly increase")
    dt, t_last = times[1] - times[0], duration_s + _T_EPS
    stride = (1.0 / sense_rate_hz) / dt
    if abs(stride - round(stride)) > 1e-6 or round(stride) < 1:
        raise ConfigMismatch(
            f"device {trace.device_id}: trace period {dt:.6f} s does not divide the "
            f"sense period {1.0 / sense_rate_hz:.6f} s")
    if np.abs(np.diff(times) - dt).max() > 1e-6 * dt:
        raise ConfigMismatch(f"device {trace.device_id}: trace times are not evenly spaced")
    ticks = slice(0, np.searchsorted(times, t_last, side="right"), int(round(stride)))
    tick_t, samples = times[ticks], np.arange(math.floor(t_last) + 1, dtype=float)
    at = np.searchsorted(tick_t, samples)
    on = np.searchsorted(tick_t, samples, side="right") > at   # a tick at the sample
    stops = [(i, s, _SAMPLE, None) for i, s in zip(at[~on].tolist(), samples[~on].tolist())]
    stops.append((len(tick_t), math.inf, _END, None))
    packed = (np.concatenate([tick_t, samples[~on]]), at[on] + 1,
              (len(tick_t), len(stops) - 1, int(on.sum())))
    for array in packed[:2]:
        array.flags.writeable = False
    return (tuple(tick_t.tolist()), (math.nan, *(tick_t[1:] - tick_t[:-1]).tolist()), ticks,
            tuple(stops), (*(at[on] + 1).tolist(), len(tick_t) + 1), packed)


def _decide_responses(responses: list[tuple], anchor_pos: np.ndarray,
                      ccfg: ch.ChannelConfig, macs: list[int]) -> np.ndarray:
    """RECORD rows of the responses that survive their collision batch, in order.

    `responses` holds (arrival, anchor index, device index, position,
    tx dBm, rx dBm at its anchor, circulation time, event bit) in (arrival,
    anchor, device) order.  A batch-mate interferes unless it answers the
    same anchor from the same device, so path losses are needed only for
    batches of two or more: from each interferer to the response's anchor.
    """
    if not responses:
        return np.empty(0, RECORD)
    arrivals, anchor_of, device_of, pos, tx, rx, circulation, bit = zip(*responses)
    first, bounds = [], []   # each response's batch's first response; each batch's
    for i, t in enumerate(arrivals):
        if not bounds or t - arrivals[bounds[-1]] > _T_EPS:
            bounds.append(i)
        first.append(bounds[-1])
    row, interferer_dbm = np.empty(0, np.intp), np.empty(0)
    if len(bounds) < len(first):   # a batch of two or more; batch b is bounds[b]:bounds[b + 1]
        ai, di = np.array(anchor_of), np.array(device_of)
        size = np.diff(bounds + [len(first)])
        # (response, batch-mate) pairs in batch order, the response itself included
        width = size.repeat(size)
        row = np.arange(len(first)).repeat(width)
        mate = np.array(first)[row] + np.arange(len(row)) - (np.cumsum(width) - width)[row]
        keep = (ai[mate] != ai[row]) | (di[mate] != di[row])
        row, mate = row[keep], mate[keep]
        gap = np.array(pos).reshape(-1, 3)[mate] - anchor_pos[ai[row]]
        interferer_dbm = np.array(tx)[mate] - _path_loss(np.sqrt(_row_dots(gap, gap)), ccfg)
    return np.array([(arrivals[first[i]], macs[device_of[i]], circulation[i], bit[i])
                     for i in _delivered(np.array(rx), row, interferer_dbm, ccfg).tolist()],
                    RECORD)


_SCAN_C = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_scan.c")
_CC = ("cc", "-O2", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")


def _cache_dir() -> str | None:
    """The first per-user cache directory that exists or can be made, and
    that this user owns: $XDG_CACHE_HOME/nanoflow, ~/.cache/nanoflow, then
    one in the temp dir."""
    import tempfile
    xdg, home = os.environ.get("XDG_CACHE_HOME", ""), os.path.expanduser("~")
    for folder in ([os.path.join(xdg, "nanoflow")] * os.path.isabs(xdg)
                   + [os.path.join(home, ".cache", "nanoflow")] * os.path.isabs(home)
                   + [os.path.join(tempfile.gettempdir(), f"nanoflow-{os.getuid()}")]):
        try:
            os.makedirs(folder, mode=0o700, exist_ok=True)
            if os.stat(folder).st_uid == os.getuid() and os.access(folder, os.W_OK):
                return folder
        except OSError:
            continue
    return None


@functools.cache
def _scan_kernel():
    """_scan.c's library through ctypes, its nf_scan and nf_walk bound,
    loaded once per process at the first walk or run.  The library is built
    with the system cc into _cache_dir(), named by the sha256 of the source
    and the build command; one that does not load (a truncated file) is
    built again.  A build writes a name of its own and then renames it, so
    processes building at once do not collide.  None off POSIX, or where
    there is no compiler or no build or load works: simulate_mobility then
    walks and run_simulation scans in Python."""
    import ctypes
    import hashlib

    def bind(path):
        lib, pointer, int64 = ctypes.CDLL(path), ctypes.c_void_p, ctypes.c_int64
        lib.nf_scan.argtypes = [pointer] * 3 + [int64] * 4 + [pointer] * 4
        lib.nf_scan.restype = None
        lib.nf_walk.argtypes = [pointer] * 4 + [int64] * 3 + [pointer] * 7 + [int64]
        lib.nf_walk.restype = int64
        return lib

    folder = _cache_dir() if os.name == "posix" else None
    if folder is None:
        return None
    try:
        with open(_SCAN_C, "rb") as fh:
            name = hashlib.sha256(fh.read() + " ".join(_CC).encode()).hexdigest()
    except OSError:
        return None
    path = os.path.join(folder, f"{name}.so")
    try:
        return bind(path)
    except (OSError, AttributeError):   # not built yet, or a file that does not load
        pass
    import subprocess   # only to build: importing it takes milliseconds
    part = f"{path}.{os.getpid()}.part"
    try:
        subprocess.run([*_CC, "-o", part, _SCAN_C], check=True, capture_output=True,
                       stdin=subprocess.DEVNULL, timeout=60)
        os.replace(part, path)
        return bind(path)
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    finally:
        if os.path.exists(part):
            os.unlink(part)


def _compiled_scan(kernel, energy_cfg: EnergyConfig, costs: tuple, device_grids: list,
                   beacons: tuple, hits: list, n_rows: int, out_real: np.ndarray,
                   out_index: np.ndarray) -> None:
    """Scan every device in one nf_scan call, into run_simulation's
    out_real and out_index; _scan.c says how the buffers are laid out.
    costs: (rx J, tx J); beacons: (count per device, times, episode gaps,
    in-heart flags); hits: each device's hit ticks; n_rows: rows per
    device, 0 for none."""
    b_count, bt, gap, in_heart = beacons
    distinct = {}   # each distinct tick grid's (number, packed form), in first use order
    g = [distinct.setdefault(id(grid), (len(distinct), grid[5]))[0] for grid in device_grids]
    packed = [p for _, p in distinct.values()]
    real = np.concatenate([[energy_cfg.t_cycle, energy_cfg.e_max, energy_cfg.e_turn_on,
                            energy_cfg.e_turn_off, energy_cfg.cost_sense, *costs],
                           *[p[0] for p in packed], bt, gap])
    index = np.concatenate([[x for d in zip(g, b_count, map(len, hits)) for x in d],
                            [x for p in packed for x in p[2]], *[p[1] for p in packed],
                            in_heart, *hits], dtype=np.int64)
    grid, low, drop = charge_arrays(energy_cfg)
    kernel.nf_scan(grid.ctypes.data, low.ctypes.data, drop.ctypes.data, len(grid), len(g),
                   len(packed), n_rows, real.ctypes.data, index.ctypes.data,
                   out_real.ctypes.data, out_index.ctypes.data)


def run_simulation(graph: VesselGraph, traces: list[MobilityTrace], plan: SimPlan,
                   target: tuple[float, float, float] | None = None,
                   energy_rows: bool = True, beacons: list | None = None) -> SimResult:
    """Run one deterministic simulation of the traces under the plan, with
    an event at target (None: no event), and collect raw records (and the
    1 Hz energy rows unless energy_rows is False).  `beacons`: the traces'
    decode_beacons(graph, traces, plan), one list per trace, if the caller
    decoded them already (perhaps in one pass with other runs' traces);
    None decodes them here."""
    anchors, duration_s, proto = plan.anchors, plan.duration_s, plan.protocol
    energy_cfg, channel_cfg = plan.energy_cfg, plan.channel_cfg
    t_last = duration_s + _T_EPS
    device_grids = _tick_grids(traces, plan.sense_rate_hz, duration_s)

    target = None if target is None else np.asarray(target, dtype=float)
    beacon_air = ch.airtime_s(proto.beacon_bits, channel_cfg)
    response_air = ch.airtime_s(proto.response_bits, channel_cfg)
    rx_cost = ch.pulse_count(proto.beacon_bits) * energy_cfg.cost_rx_pulse
    tx_cost = ch.pulse_count(proto.response_bits) * energy_cfg.cost_tx_pulse
    anchor_pos = np.array([a.position for a in anchors], dtype=float)
    gaps = [proto.episode_gap_intervals * a.beacon_interval_s for a in anchors]

    decoded = decode_beacons(graph, traces, plan) if beacons is None else beacons
    heard = [b for device in decoded for b in device]   # the run's beacons, device by device
    b_count = [len(device) for device in decoded]
    bt = np.fromiter(map(itemgetter(0), heard), float, len(heard))
    # each device's sense-tick hits, as indices into its ticks
    hits = [_sense_hits(np.asarray(trace.positions, dtype=float)[grid[2]], target,
                        plan.detection_radius_cm).nonzero()[0]
            for trace, grid in zip(traces, device_grids)]

    # out_real: consumed J per device, circulation times per beacon, row
    # energies per device and row; out_index: the compiled scan's rescan
    # flag per device, the event bit each beacon's response sent (-1: none),
    # the rows' powered flags
    n_dev, n_b = len(traces), len(heard)
    n_rows = math.floor(t_last) + 1 if energy_rows else 0   # per device
    out_real = np.empty(n_dev + n_b + n_dev * n_rows)
    out_index = np.full(len(out_real), -1, np.int64)
    consumed_j, sent_circulation = out_real[:n_dev], out_real[n_dev:n_dev + n_b]
    sent_bit = out_index[n_dev:n_dev + n_b]
    row_energy = out_real[n_dev + n_b:].reshape(n_dev, n_rows)
    row_powered = out_index[n_dev + n_b:].reshape(n_dev, n_rows)
    kernel = _scan_kernel()
    rescan = range(n_dev)
    if kernel is not None and n_dev:
        gap = np.array(gaps)[np.fromiter(map(itemgetter(1), heard), np.intp, n_b)]
        in_heart = np.fromiter(map(itemgetter(5), heard), bool, n_b)
        _compiled_scan(kernel, energy_cfg, (rx_cost, tx_cost), device_grids,
                       (b_count, bt, gap, in_heart), hits, n_rows, out_real, out_index)
        rescan = out_index[:n_dev].nonzero()[0].tolist()
    if rescan:   # the Python scan: every device without the kernel, else the ones it flagged
        cost_sense = energy_cfg.cost_sense
        t_cycle, e_max = energy_cfg.t_cycle, energy_cfg.e_max
        e_turn_on, e_turn_off = energy_cfg.e_turn_on, energy_cfg.e_turn_off
        grid, low, drop = charge_tables(energy_cfg)
        size, b_first = len(grid), np.cumsum([0, *b_count]).tolist()

    def harvest(energy, base, cycles):
        """(energy, base, spent) after a harvest of cycles > 0 from energy <
        e_max: a gather while base is energy's grid index and base + cycles
        is in the grid, else energy_after (base and spent -1 off the tables)."""
        n = base + cycles
        if base < 0 or n >= size:
            energy, n = energy_after(grid, energy, cycles, energy_cfg)
            if n < 0:
                return energy, -1, -1
        return grid[n], low[n], drop[n]

    for di in rescan:
        tick_t, steps, _, grid_stops, row_ticks, _ = device_grids[di]
        b0, device_beacons = b_first[di], decoded[di]
        sent_bit[b0:b0 + len(device_beacons)] = -1   # the kernel's answers, if it began
        dues = iter(row_ticks if energy_rows else row_ticks[-1:])
        due = next(dues)   # the ticks done when the next row on a tick is due
        # (ticks before it, time, kind, item), popped in time and tie order
        stops = sorted([*grid_stops, *[(bisect_left(tick_t, b[0]), b[0], _BEACON, i)
                                       for i, b in enumerate(device_beacons)],
                        *[(j, tick_t[j], _TICK, True) for j in hits[di].tolist()]],
                       reverse=True)
        energy, powered, phase = 0.0, False, 0.0   # at 0 J, which is grid[0]
        last_adv = last_reset = consumed = 0.0
        # a harvest of c cycles lands on grid[base + c], and on grid[spent + c]
        # once a sense tick is paid; -1 while energy is no table entry
        base, spent = low[0], drop[0]
        state = EnergyState()   # the beacons' try_consume spends from it
        last_delivered, event_bit, responded, done = None, 0, False, 0
        energies, powereds = [], []   # the device's 1 Hz samples, in time order
        while True:
            at, t, kind, item = stops.pop()
            if done < at and (done == 0 or last_adv != tick_t[done - 1]):
                stops.append((at, t, kind, item))   # a sparse harvest came after the last tick
                at, t, kind, item = done, tick_t[done], _TICK, False
            while done < at:   # ticks done..at-1, each a step from the last, cut at row ticks
                end = at if at < due else due
                for dt in steps[done:end]:
                    total = phase + dt
                    cycles = int(total / t_cycle)
                    phase = total - cycles * t_cycle
                    if cycles > 0 and energy < e_max:
                        energy, base, spent = harvest(energy, base, cycles)
                    if not powered and energy >= e_turn_on:
                        powered = True
                    if powered and energy >= cost_sense:   # try_consume's rule
                        energy -= cost_sense
                        if energy <= e_turn_off:
                            powered = False
                        base, spent = spent, -1
                        consumed += cost_sense
                last_adv, done = tick_t[end - 1], end
                if done == due:
                    energies.append(energy)
                    powereds.append(powered)
                    due = next(dues)
            if kind == _END:
                break
            if t > last_adv:   # the sparse items' harvest
                total = phase + (t - last_adv)
                cycles = int(total / t_cycle)
                phase = total - cycles * t_cycle
                if cycles > 0 and energy < e_max:
                    energy, base, spent = harvest(energy, base, cycles)
                powered = powered or energy >= e_turn_on
                last_adv = t
            if kind == _SAMPLE:
                if energy_rows:
                    energies.append(energy)
                    powereds.append(powered)
                continue
            if kind == _TICK:
                done += 1
                if powered and energy >= cost_sense:
                    energy, consumed = energy - cost_sense, consumed + cost_sense
                    powered, base, spent = energy > e_turn_off, spent, -1
                    event_bit |= item
                if done == due:
                    energies.append(energy)
                    powereds.append(powered)
                    due = next(dues)
                continue
            ai, in_heart = device_beacons[item][1], device_beacons[item][5]
            state.energy, state.powered = energy, powered
            if not powered or try_consume(state, rx_cost, energy_cfg) is None:
                continue
            if rx_cost > 0.0:
                base = spent = -1
            consumed += rx_cost
            if last_delivered is None or t - last_delivered > gaps[ai] + _T_EPS:
                responded = False
            last_delivered = t
            circulation, bit = t - last_reset, event_bit
            if in_heart:
                last_reset, event_bit = t, 0
            if not responded and try_consume(state, tx_cost, energy_cfg) is not None:
                if tx_cost > 0.0:
                    base = spent = -1
                consumed += tx_cost
                responded = True
                sent_bit[b0 + item], sent_circulation[b0 + item] = bit, circulation
            energy, powered = state.energy, state.powered
        consumed_j[di] = consumed
        if energy_rows:
            row_energy[di], row_powered[di] = energies, powereds

    # the responses, back over each answered beacon's path: its loss and penalty
    sent = (sent_bit >= 0).nonzero()[0]
    t_rx = bt[sent] + beacon_air + response_air
    arrives = t_rx <= t_last
    sent, t_rx = sent[arrives], t_rx[arrives]
    responses = []
    if len(sent):
        _, ai, p, _, rx_dbm, _, loss, penalty = zip(*map(heard.__getitem__, sent.tolist()))
        tx = np.array(rx_dbm) + channel_cfg.backscatter_gain_db
        columns = (t_rx, np.array(ai), np.arange(n_dev).repeat(b_count)[sent], tx,
                   ch.received_power_dbm(tx, np.array(loss), np.array(penalty)),
                   sent_circulation[sent], sent_bit[sent])
        order = np.lexsort(columns[2::-1])   # (arrival, anchor, device) order
        t_rx, ai, di, tx, rx_dbm, circulation, bit = (c[order].tolist() for c in columns)
        responses = list(zip(t_rx, ai, di, [p[i] for i in order.tolist()], tx, rx_dbm,
                             circulation, bit))
    macs = [trace.device_id for trace in traces]
    records = _decide_responses(responses, anchor_pos, channel_cfg, macs)
    records = records[np.lexsort((records["device_mac"], records["report_time_s"]))]
    consumed_pj = dict(zip(macs, (consumed_j * 1e12).tolist()))
    if not energy_rows:
        return SimResult(records.view(np.recarray), np.empty(0, _ROW), consumed_pj)
    rows = np.empty((n_rows, n_dev), _ROW)   # time-major
    rows["time"], rows["mac"] = np.arange(n_rows, dtype=float)[:, None], macs
    rows["value"], rows["flag"] = row_energy.T * 1e12, row_powered.T
    return SimResult(records.view(np.recarray), rows.ravel(), consumed_pj)


def export_raw_csv(records: np.ndarray, path: str) -> None:
    """One row per record of a RECORD array such as SimResult.records, in its order."""
    write_csv(path, ",".join(RECORD.names), [records])


def export_energy_csv(rows: np.ndarray, path: str) -> None:
    """One row per energy sample of a _ROW array such as SimResult.energy_rows."""
    write_csv(path, "time_s,device_mac,energy_pj,powered", [rows])
