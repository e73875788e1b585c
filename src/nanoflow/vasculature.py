"""Vessel graph, nanodevice mobility and trace upsampling.

The bloodstream is modelled as a directed graph of straight vessel segments
(positions in cm, heart-centred coordinates, depth z limited to [-2, 2]).
Devices move along segments at the per-vessel blood speed, pick uniformly
among successors at bifurcations, and are sampled at 1 Hz.  A separate
upsampling step inserts linearly interpolated positions with optional
Gaussian jitter so downstream sensing can run faster than 1 Hz.

A graph is validated when it is built, so an invalid one never exists, and
its per-vessel tables (ids, end points, lengths, speeds, successor rows,
velocities) are built with it: the walk records (vessel, arc) per sample and
places a device's samples in one pass (points_at), and locate_vessel maps
many points at once.  Only the heart-loop analysis waits for its first use.
A graph is therefore not edited once it is built.

Every MobilityTrace carries the exact visit schedule of its walk, and
geometry that needs more than the samples (anchor contact, heart passages)
reads that schedule, never the sampled polyline.

The walk of every device of a run is one call into the compiled library
that simcore._scan_kernel builds and loads at the first walk or run (_scan.c's
nf_walk), with the Python loop's float operations in their order and each
bifurcation drawn from the walk's own numpy generator as Generator.integers
draws it.  Each upsampling pass is one call too (nf_upsample), on jitter
that numpy draws.  The Python loop (_walk) and the numpy pass
(_upsample_pass) stay as the reference and as the paths where no library
loads; both paths give the same bytes.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from enum import IntEnum

import numpy as np

from .errors import EmptyTrace, InvalidGraph

Z_LIMIT = 2.0  # cm, anatomical depth band
_CYCLE_LIMIT = 10000   # heart cycles cycles_through_heart may list


class RegionType(IntEnum):
    ARTERIAL = 0  # aorta (20 cm/s) and arteries (10 cm/s)
    VENOUS = 1    # veins, per-vessel speed in [2, 4] cm/s
    TRANSITION = 2  # organ/limb/head beds, 1 cm/s


@dataclass
class Vessel:
    id: int
    start: np.ndarray
    end: np.ndarray
    region_type: RegionType
    speed_cm_s: float
    successors: list[int]
    is_heart: bool = False

    @cached_property
    def length(self) -> float:
        return float(np.linalg.norm(self.end - self.start))


@dataclass(eq=False)
class VesselGraph:
    """Vessels and the heart's id, checked by validate_graph when built.

    Building also fills every per-vessel table, one row per vessel in list
    order.  Only the heart-loop analysis waits for its first use: it raises
    InvalidGraph on a pathological graph, and a walk never needs it.
    """
    vessels: list[Vessel]
    heart_id: int

    def __post_init__(self):
        validate_graph(self)
        vessels = self.vessels
        self._row = {v.id: i for i, v in enumerate(vessels)}
        ids = np.array([v.id for v in vessels])
        starts = np.array([v.start for v in vessels], dtype=float)
        ends = np.array([v.end for v in vessels], dtype=float)
        self.segment_arrays = ids, starts, ends
        lengths = [v.length for v in vessels]
        speeds = [v.speed_cm_s for v in vessels]
        self._lengths, self._deltas = np.array(lengths), ends - starts
        self.motion_arrays = (   # validate_graph refuses zero-length vessels
            self._deltas / self._lengths[:, None] * np.array(speeds, dtype=float)[:, None],
            np.array([bool(v.is_heart) for v in vessels]))
        succ = [[self._row[s] for s in v.successors] for v in vessels]
        self._walk_table = (lengths, speeds, succ, self._row[self.heart_id])
        # the same for the compiled walk, row r's successors in CSR form:
        # succ_rows[succ_at[r]:succ_at[r + 1]]
        self._walk_arrays = (self._lengths, np.array(speeds, dtype=float),
                             np.cumsum([0, *map(len, succ)], dtype=np.int64),
                             np.array([s for rows in succ for s in rows], np.int64),
                             self._walk_table[3])

    def vessel(self, vessel_id: int) -> Vessel:
        return self.vessels[self._row[vessel_id]]

    def rows_of(self, vessel_ids) -> np.ndarray:
        """Row of each vessel id in segment_arrays; KeyError for an id the
        graph does not have."""
        return np.fromiter(map(self._row.__getitem__, np.asarray(vessel_ids).tolist()),
                           dtype=np.intp)

    def points_at(self, rows: np.ndarray, arcs: np.ndarray) -> np.ndarray:
        """(n, 3) positions: row k is vessel rows[k] (a row of segment_arrays)
        at arc arcs[k] from its start, clamped to the segment, in one pass."""
        pos = self._deltas[rows]   # in place: fewer temporaries, and + and * commute exactly
        pos *= np.clip(arcs / self._lengths[rows], 0.0, 1.0)[:, None]
        pos += self.segment_arrays[1][rows]
        return pos

    @cached_property
    def cycles_through_heart(self) -> list[tuple[int, ...]]:
        """All simple cycles that pass through the heart vessel, sorted.

        The reference graph is hub-and-branch so this stays small; a DFS cap
        guards against pathological inputs.
        """
        cycles: list[tuple[int, ...]] = []
        heart = self.heart_id
        stack = [(heart, (heart,))]
        while stack:
            node, path = stack.pop()
            for nxt in sorted(self.vessel(node).successors, reverse=True):
                if nxt == heart:
                    cycles.append(path)
                    if len(cycles) > _CYCLE_LIMIT:
                        raise InvalidGraph(f"more than {_CYCLE_LIMIT} heart cycles")
                elif nxt not in path:
                    stack.append((nxt, path + (nxt,)))
        cycles.sort()
        return cycles

    @cached_property
    def heart_loops(self) -> tuple[tuple[float, ...], tuple[int, ...]]:
        """(periods, representatives): per heart cycle, in cycles_through_heart
        order, its expected period and the vessel it spends longest in among
        those unique to it (else among all its vessels), which is where a
        loop-time match localizes an event."""
        loops = self.cycles_through_heart
        membership = Counter(vid for cycle in loops for vid in cycle)
        reps = []
        for cycle in loops:
            pool = [vid for vid in cycle if membership[vid] == 1] or list(cycle)
            dwell = {vid: self.loop_time((vid,)) for vid in pool}
            best = max(dwell.values())
            reps.append(min(vid for vid, d in dwell.items() if d == best))
        return tuple(self.loop_time(c) for c in loops), tuple(reps)

    def loop_time(self, cycle: tuple[int, ...]) -> float:
        """Expected traversal time (s) of one cycle at nominal speeds."""
        total = 0.0
        for v in map(self.vessel, cycle):   # left to right: sum() compensates on Python 3.12+
            total += v.length / v.speed_cm_s
        return total


@dataclass
class MobilityTrace:
    device_id: int
    times: np.ndarray      # s, strictly increasing, fixed step
    positions: np.ndarray  # (n, 3) cm
    vessel_ids: np.ndarray  # (n,) vessel occupied at each sample
    # exact walk schedule: the device enters vessel visit_vessels[k] at
    # visit_times[k].  Sampling at 1 Hz skips over short vessels entirely
    # (the heart takes 0.2 s to cross), so consumers that need sub-sample
    # geometry (anchor contact, passage detection) read these instead of
    # the sampled polyline.
    visit_times: np.ndarray
    visit_vessels: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    @property
    def duration_s(self) -> float:
        return float(self.times[-1]) if len(self.times) else 0.0


# ---------------------------------------------------------------------------
# graph validation / IO
# ---------------------------------------------------------------------------

_TYPE_SPEEDS = {
    RegionType.ARTERIAL: lambda s: s in (10.0, 20.0),
    RegionType.VENOUS: lambda s: 2.0 <= s <= 4.0,
    RegionType.TRANSITION: lambda s: s == 1.0,
}


def validate_graph(graph: VesselGraph) -> None:
    """Raise InvalidGraph unless every structural invariant holds."""
    vessels = graph.vessels
    if not vessels:
        raise InvalidGraph("graph has no vessels")
    id_set = {v.id for v in vessels}
    if len(id_set) != len(vessels):
        raise InvalidGraph("duplicate vessel ids")
    hearts = [v.id for v in vessels if v.is_heart]
    if hearts != [graph.heart_id]:
        raise InvalidGraph("exactly one vessel must be flagged is_heart and match heart_id")
    for v in vessels:
        if not v.successors:
            raise InvalidGraph(f"vessel {v.id} has no successors")
        for s in v.successors:
            if s not in id_set:
                raise InvalidGraph(f"vessel {v.id} lists unknown successor {s}")
        for p in (v.start, v.end):
            if np.shape(p) != (3,) or not np.isfinite(p).all():
                raise InvalidGraph(f"vessel {v.id} endpoint {p} is not three finite numbers")
            if abs(float(p[2])) > Z_LIMIT:
                raise InvalidGraph(f"vessel {v.id} endpoint depth outside [-2, 2] cm")
        if v.length <= 0:
            raise InvalidGraph(f"vessel {v.id} has zero length")
        if v.region_type not in _TYPE_SPEEDS:
            raise InvalidGraph(f"vessel {v.id} has unknown region_type {v.region_type!r}")
        if not _TYPE_SPEEDS[v.region_type](float(v.speed_cm_s)):
            raise InvalidGraph(
                f"vessel {v.id} speed {v.speed_cm_s} invalid for region_type {int(v.region_type)}")

    # every vessel must sit on some closed route through the heart
    reach_from_heart = _reachable({v.id: v.successors for v in vessels}, graph.heart_id)
    back = {v.id: [] for v in vessels}
    for v in vessels:
        for s in v.successors:
            back[s].append(v.id)
    reach_to_heart = _reachable(back, graph.heart_id)
    stranded = id_set - (reach_from_heart & reach_to_heart)
    if stranded:
        raise InvalidGraph(f"vessels not on any heart loop: {sorted(stranded)}")


def _reachable(adj: dict, root: int) -> set:
    seen = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _integer(value) -> int:
    """int(value), refusing what int() would truncate or convert (3.7, "3", true)."""
    n = int(value)
    if n != value or isinstance(value, bool):
        raise ValueError(f"{value!r} is not an integer")
    return n


# key of a vessel entry in a graph file -> its conversion to the Vessel field
_FILE_KEYS = {"id": _integer, "start": partial(np.asarray, dtype=float),
              "end": partial(np.asarray, dtype=float),
              "region_type": lambda t: RegionType(_integer(t)),
              "speed_cm_s": float, "successors": lambda ids: [_integer(s) for s in ids]}


def load_graph(path: str) -> VesselGraph:
    """Load a vessel graph from its JSON file format; InvalidGraph names the
    entry (vessels[i].key) that is missing or does not convert."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not isinstance(raw.get("vessels"), list):
        raise InvalidGraph(f"graph file {path} must hold an object with a list 'vessels'")
    vessels = []
    for i, entry in enumerate(raw["vessels"]):
        if not isinstance(entry, dict):
            raise InvalidGraph(f"graph file entry vessels[{i}] must be an object")
        fields = {"is_heart": entry.get("is_heart", False)}
        if not isinstance(fields["is_heart"], bool):
            raise InvalidGraph(f"graph file entry vessels[{i}].is_heart: "
                               f"{fields['is_heart']!r} is not a boolean")
        for key, convert in _FILE_KEYS.items():
            try:
                fields[key] = convert(entry[key])
            except KeyError:
                raise InvalidGraph(f"graph file entry vessels[{i}].{key} is required") from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidGraph(f"graph file entry vessels[{i}].{key}: {exc}") from exc
        vessels.append(Vessel(**fields))
    return VesselGraph(vessels, heart_id=next((v.id for v in vessels if v.is_heart), None))


def save_graph(graph: VesselGraph, path: str) -> None:
    payload = {"vessels": [
        {
            "id": v.id,
            "start": [float(x) for x in v.start],
            "end": [float(x) for x in v.end],
            "region_type": int(v.region_type),
            "speed_cm_s": float(v.speed_cm_s),
            "successors": list(v.successors),
            "is_heart": bool(v.is_heart),
        }
        for v in graph.vessels
    ]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# reference vasculature (94 segments)
# ---------------------------------------------------------------------------

# Branch chains hang off two arterial hubs and drain into two venous hubs.
# Waypoints are (x, y, z[, phase]) with phase "a" artery, "t" transition,
# "v" vein; the closing segment back to the venous hub is always a vein.

_HUBS = {
    "upper": ((0.0, 14.0, 1.0), (0.0, 14.0, -1.0)),
    "lower": ((0.0, -14.0, 1.0), (0.0, -14.0, -1.0)),
}

_BRANCHES = [
    ("head_L", "upper", [(-2, 30, 1, "a"), (-5, 41, 0, "t"), (-7, 48, -1, "t"), (-4, 31, -1, "v")]),
    ("head_R", "upper", [(2, 30, 1, "a"), (5, 41, 0, "t"), (7, 48, -1, "t"), (4, 31, -1, "v")]),
    ("arm_L", "upper", [(-16, 13, 1, "a"), (-30, -2, 1, "a"), (-36, -10, 0, "t"),
                        (-33, -16, -1, "t"), (-27, -3, -1, "v"), (-13, 9, -1, "v")]),
    ("arm_R", "upper", [(16, 13, 1, "a"), (30, -2, 1, "a"), (36, -10, 0, "t"),
                        (33, -16, -1, "t"), (27, -3, -1, "v"), (13, 9, -1, "v")]),
    ("lung_L", "upper", [(-9, 18, 1, "a"), (-13, 22, 0, "t"), (-15, 20, -1, "t")]),
    ("lung_R", "upper", [(9, 18, 1, "a"), (13, 22, 0, "t"), (15, 20, -1, "t")]),
    ("thyroid", "upper", [(0, 24, 1, "a"), (2, 32, -1, "t"), (1, 22, -1, "v")]),
    ("coronary_L", "upper", [(-4, 17, 1, "a"), (-7, 12, 0, "t")]),
    ("coronary_R", "upper", [(4, 17, 1, "a"), (7, 12, 0, "t")]),
    ("kidney_L", "lower", [(-9, -20, 1, "a"), (-12, -24, 0, "t"), (-6, -18, -1, "v")]),
    ("kidney_R", "lower", [(9, -20, 1, "a"), (12, -24, 0, "t"), (6, -18, -1, "v")]),
    ("liver", "lower", [(5, -19, 1, "a"), (9, -23, 0.5, "t"), (10, -29, -1, "t"), (5, -21, -1, "v")]),
    ("spleen", "lower", [(-6, -20, 1, "a"), (-9, -24, 0, "t"), (-5, -19, -1, "v")]),
    ("intestine_small", "lower", [(2, -26, 1, "a"), (-4, -31, 0.5, "t"), (3, -35, 0, "t"),
                                  (-2, -39, -0.5, "t"), (1, -42, -1, "t"), (1, -27, -1, "v")]),
    ("intestine_large", "lower", [(-3, -27, 1, "a"), (-8, -33, 0, "t"), (-5, -38, -1, "t"),
                                  (-2, -26, -1, "v")]),
    ("pelvis", "lower", [(0, -26, 1, "a"), (3, -32, 0, "t"), (1, -25, -1, "v")]),
    ("leg_L", "lower", [(-7, -30, 1, "a"), (-9, -58, 1, "a"), (-12, -72, 0, "t"),
                        (-10, -86, -1, "t"), (-8, -60, -1, "v"), (-6, -34, -1, "v")]),
    ("leg_R", "lower", [(7, -30, 1, "a"), (9, -58, 1, "a"), (12, -72, 0, "t"),
                        (10, -86, -1, "t"), (8, -60, -1, "v"), (6, -34, -1, "v")]),
]

_PHASE_TYPE = {"a": RegionType.ARTERIAL, "t": RegionType.TRANSITION, "v": RegionType.VENOUS}
_REFERENCE_SEED = 20260815  # fixed: vein speeds are part of the reference anatomy


def build_reference_vasculature() -> VesselGraph:
    """Construct the built-in 94-segment closed-loop vasculature.

    Layout: a 4 cm heart segment along z feeds ascending/descending aortas;
    nine branch chains per hub (head, arms, lungs, organs, legs, ...) return
    through two venae cavae.  Venous speeds are drawn once from a fixed seed
    so the graph is identical across runs.  Single-loop traversal times span
    roughly 13-78 s.
    """
    rng = np.random.default_rng(_REFERENCE_SEED)
    vessels: list[Vessel] = []

    def add(start, end, rtype, speed, is_heart=False) -> int:
        vid = len(vessels)
        vessels.append(Vessel(
            id=vid,
            start=np.asarray(start, dtype=float),
            end=np.asarray(end, dtype=float),
            region_type=rtype,
            speed_cm_s=float(speed),
            successors=[],
            is_heart=is_heart,
        ))
        return vid

    def vein_speed() -> float:
        return float(np.round(rng.uniform(2.0, 4.0), 3))

    heart = add((0, 0, -2), (0, 0, 2), RegionType.ARTERIAL, 20.0, is_heart=True)
    aorta = {
        "upper": add((0, 0, 2), _HUBS["upper"][0], RegionType.ARTERIAL, 20.0),
        "lower": add((0, 0, 2), _HUBS["lower"][0], RegionType.ARTERIAL, 20.0),
    }
    cava = {
        "upper": add(_HUBS["upper"][1], (0, 0, -2), RegionType.VENOUS, vein_speed()),
        "lower": add(_HUBS["lower"][1], (0, 0, -2), RegionType.VENOUS, vein_speed()),
    }
    vessels[heart].successors = [aorta["upper"], aorta["lower"]]
    vessels[cava["upper"]].successors = [heart]
    vessels[cava["lower"]].successors = [heart]

    for _name, hub, waypoints in _BRANCHES:
        a_hub, v_hub = _HUBS[hub]
        points = [a_hub] + [(w[0], w[1], w[2]) for w in waypoints] + [v_hub]
        phases = [w[3] for w in waypoints] + ["v"]
        prev = aorta[hub]
        for (p0, p1, phase) in zip(points[:-1], points[1:], phases):
            rtype = _PHASE_TYPE[phase]
            speed = {RegionType.ARTERIAL: 10.0, RegionType.TRANSITION: 1.0}.get(rtype) or vein_speed()
            vid = add(p0, p1, rtype, speed)
            vessels[prev].successors.append(vid)
            prev = vid
        vessels[prev].successors.append(cava[hub])

    graph = VesselGraph(vessels=vessels, heart_id=heart)
    assert len(vessels) == 94, f"reference graph has {len(vessels)} vessels"
    longest = max(graph.loop_time(c) for c in graph.cycles_through_heart)
    assert longest < 88.0, f"longest reference loop {longest:.1f} s"
    return graph


# ---------------------------------------------------------------------------
# mobility
# ---------------------------------------------------------------------------

def simulate_mobility(graph: VesselGraph, device_count: int, duration_s: float,
                      seed: int) -> list[MobilityTrace]:
    """Walk devices through the graph at 1 Hz.

    All devices start at the heart inlet.  Within a vessel the speed is
    exact; a sampling step can cross several vessels, each bifurcation
    resolved by a uniform draw from the seeded stream, one device after
    another.  The walk reads the graph's per-vessel tables and keeps only
    (vessel, arc) per sample; every device's positions are then placed in
    one VesselGraph.points_at pass and their vessel ids in one gather.
    The walk runs in the compiled library (_walk_compiled) where it loads,
    else in Python (_walk), with the same bytes.  Each trace carries its
    visit schedule; its arrays share memory with no other trace.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration_s)) + 1
    if n < 1:
        raise ValueError(f"duration_s {duration_s!r} leaves no sample")
    from . import simcore   # the library's one loader; simcore imports this module
    kernel = simcore._scan_kernel()
    walk = _walk if kernel is None else partial(_walk_compiled, kernel, seed)
    # every device's samples and visits, device after device; device d's
    # samples are [d * n, d * n + n) and its visits [visit_at[d], visit_at[d + 1])
    sample_r, sample_arc, visit_t, visit_r, visit_at = walk(graph, device_count, n, rng)
    ids = graph.segment_arrays[0]
    positions, vessel_ids = graph.points_at(sample_r, sample_arc), ids[sample_r]
    visit_vessels, times = ids[visit_r], np.arange(n, dtype=float)
    return [MobilityTrace(device_id=dev, times=times.copy(),
                          positions=positions[dev * n:dev * n + n],
                          vessel_ids=vessel_ids[dev * n:dev * n + n],
                          visit_times=visit_t[lo:hi], visit_vessels=visit_vessels[lo:hi])
            for dev, (lo, hi) in enumerate(zip(visit_at, visit_at[1:]))]


def _walk(graph: VesselGraph, device_count: int, n: int, rng: np.random.Generator):
    """simulate_mobility's walk in Python, n samples a device: (sample rows,
    sample arcs, visit times, visit rows, visit_at), rows of segment_arrays."""
    lengths, speeds, successors, heart = graph._walk_table
    sample_r, sample_arc, visit_t, visit_r, visit_at = [], [], [], [], [0]
    for _ in range(device_count):
        r = heart   # the vessel the device is in, as a row of segment_arrays
        arc = 0.0
        t_cursor = 0.0
        visit_t.append(0.0)
        visit_r.append(r)
        sample_r.append(r)
        sample_arc.append(0.0)
        for _ in range(1, n):
            remaining = 1.0
            while remaining > 0:
                to_end = lengths[r] - arc
                t_exit = to_end / speeds[r]
                if t_exit > remaining:
                    arc += speeds[r] * remaining
                    t_cursor += remaining
                    remaining = 0.0
                else:
                    remaining -= t_exit
                    t_cursor += t_exit
                    succ = successors[r]
                    r = succ[0] if len(succ) == 1 else succ[int(rng.integers(len(succ)))]
                    arc = 0.0
                    visit_t.append(t_cursor)
                    visit_r.append(r)
            sample_r.append(r)
            sample_arc.append(arc)
        visit_at.append(len(visit_t))
    return (np.array(sample_r, dtype=np.intp), np.array(sample_arc), np.array(visit_t),
            np.array(visit_r, dtype=np.intp), visit_at)


def _walk_compiled(kernel, seed, graph: VesselGraph, device_count: int, n: int,
                   rng: np.random.Generator):
    """_walk in one nf_walk call of the compiled library, drawing from rng's
    bit generator.  The visit buffers first hold a visit a sample; where the
    walk needs more, it is walked again from default_rng(seed) on buffers of
    the size it reported, which gives the same walk."""
    lengths, speeds, succ_at, succ_rows, heart = graph._walk_arrays
    count = len(range(device_count))   # range's checks, and 0 for a negative count
    sample_r, sample_arc = np.empty(count * n, np.int64), np.empty(count * n)
    visit_at, cap = np.empty(count + 1, np.int64), count * n
    while True:
        visit_t, visit_r, bits = np.empty(cap), np.empty(cap, np.int64), rng.bit_generator.ctypes
        total = kernel.nf_walk(lengths.ctypes.data, speeds.ctypes.data, succ_at.ctypes.data,
                               succ_rows.ctypes.data, heart, count, n, bits.next_uint32,
                               bits.state, sample_r.ctypes.data, sample_arc.ctypes.data,
                               visit_at.ctypes.data, visit_t.ctypes.data, visit_r.ctypes.data,
                               cap)
        if total <= cap:
            return sample_r, sample_arc, visit_t[:total], visit_r[:total], visit_at.tolist()
        cap, rng = total, np.random.default_rng(seed)


_UPSAMPLE_ROWS = 1 << 12   # input samples per pass: bounds upsample_traces' temporaries


def upsample_trace(trace: MobilityTrace, factor: int, sigma_cm: float,
                   seed: int) -> MobilityTrace:
    """upsample_traces of the one trace."""
    return upsample_traces([trace], factor, sigma_cm, [seed])[0]


def upsample_traces(traces: list[MobilityTrace], factor: int, sigma_cm: float,
                    seeds) -> list[MobilityTrace]:
    """Split each interval of each trace into `factor` steps, jittering the
    inserted samples; traces[i] draws its jitter from default_rng(seeds[i]).

    Inserted positions follow p_i = p0 + (i/N) * (p1 - p0) + eps, N =
    factor, eps drawn per axis from N(0, sigma_cm^2), in one (intervals,
    N - 1, 3) draw per trace (none for sigma_cm 0).  Original samples are
    preserved bit-exact and inserted samples inherit the interval's
    starting vessel id; the visit schedule is copied.  Times and positions
    are read as float64 and vessel ids as int64, so factor 1, or a
    one-sample trace, gives copies of such input arrays.  The traces must
    have one length: a pass upsamples _UPSAMPLE_ROWS of their input samples
    at once, and each result's arrays share memory with no other trace.  A
    pass is one nf_upsample call of the compiled library where it loads
    (simcore._scan_kernel), else numpy's, with the same bytes.  A factor
    that is not an integer >= 1, or a sigma_cm that is negative or not
    finite, raises ValueError, and so do traces of several lengths or a
    seed count that is not the trace count.
    """
    for trace in traces:
        if len(trace) == 0:
            raise EmptyTrace(f"device {trace.device_id} trace has no samples")
    if not (factor >= 1 and float(factor).is_integer()):
        raise ValueError(f"upsample factor must be an integer >= 1 (got {factor!r})")
    if not (sigma_cm >= 0 and math.isfinite(sigma_cm)):
        raise ValueError(f"upsample sigma_cm must be finite and >= 0 (got {sigma_cm!r})")
    if len(seeds) != len(traces):
        raise ValueError(f"{len(seeds)} seeds for {len(traces)} traces")
    if len({len(trace) for trace in traces}) > 1:
        raise ValueError("upsample_traces needs traces of one length")
    if not traces:
        return []
    from . import simcore   # the library's one loader; simcore imports this module
    kernel = simcore._scan_kernel()
    upsample = _upsample_pass if kernel is None else partial(_upsample_compiled, kernel)
    N, m = int(factor), len(traces[0])
    step, upsampled = max(1, _UPSAMPLE_ROWS // m), []
    for lo in range(0, len(traces), step):
        part = traces[lo:lo + step]
        k = len(part)   # the reshapes refuse arrays the kernel would read past
        arrays = upsample(np.array([tr.times for tr in part], np.float64).reshape(k, m),
                          np.array([tr.positions for tr in part], np.float64).reshape(k, m, 3),
                          np.array([tr.vessel_ids for tr in part], np.int64).reshape(k, m),
                          N, sigma_cm, seeds[lo:lo + step])
        upsampled += [MobilityTrace(tr.device_id, t, p, v, tr.visit_times.copy(),
                                    tr.visit_vessels.copy()) for tr, t, p, v in zip(part, *arrays)]
    return upsampled


def _upsample_pass(times, positions, vessel_ids, N: int, sigma_cm: float, seeds):
    """One upsample_traces pass in numpy: (k, m) times, (k, m, 3) positions
    and (k, m) vessel ids in, each trace's (k, (m - 1) * N + 1, ...) out,
    trace i jittered on the stream of seeds[i]."""
    k, m = times.shape
    fracs, size = (np.arange(1, N) / N)[:, None], (m - 1) * N + 1   # (N-1, 1)

    def blocks(samples, jitter_seeds=()):   # (k, m, d) -> (k, m * N, d): sample j of a
        # trace is block j // N, column j % N; column 0 the input sample,
        # columns 1.. the points from it towards the next
        inserted = fracs * (samples[:, 1:] - samples[:, :-1])[:, :, None]
        inserted += samples[:, :-1, None]
        for points, seed in zip(inserted, jitter_seeds):
            points += np.random.default_rng(seed).normal(0.0, sigma_cm, size=points.shape)
        out = np.empty((k, m, N, samples.shape[2]))
        out[:, :, 0], out[:, :-1, 1:] = samples, inserted
        return out.reshape(k, m * N, -1)[:, :size]

    return (blocks(times[:, :, None])[:, :, 0], blocks(positions, seeds if sigma_cm > 0 else ()),
            np.repeat(vessel_ids, N, axis=1)[:, :size])


def _upsample_compiled(kernel, times, positions, vessel_ids, N: int, sigma_cm: float, seeds):
    """_upsample_pass in one nf_upsample call of the compiled library.  Each
    trace's standard normals are drawn from its own generator into one pass
    buffer first, and the kernel takes 0.0 + sigma_cm * z of each, which is
    Generator.normal(0.0, sigma_cm)'s value on the same stream."""
    k, m = times.shape
    size = (m - 1) * N + 1
    out = np.empty((k, size)), np.empty((k, size, 3)), np.empty((k, size), np.int64)
    z = None
    if sigma_cm > 0:
        z = np.empty((k, m - 1, N - 1, 3))
        for draws, seed in zip(z, seeds):
            np.random.default_rng(seed).standard_normal(out=draws)
    kernel.nf_upsample(k, m, N, sigma_cm, times.ctypes.data, positions.ctypes.data,
                       vessel_ids.ctypes.data, None if z is None else z.ctypes.data,
                       *[a.ctypes.data for a in out])
    return out


# ---------------------------------------------------------------------------
# geometry queries
# ---------------------------------------------------------------------------

_LOCATE_CHUNK = 32   # positions per pass: bounds the (chunk, vessels, 3) temporaries


def locate_vessel(graph: VesselGraph, position):
    """Id of the segment nearest to position; exact ties go to the lowest id.

    position is one point, shape (3,), giving an int, or an (n, 3) array,
    giving an array of n ids; both take the same vectorised path.  Any
    other shape, or a non-finite coordinate, raises ValueError.
    """
    p = np.asarray(position, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1:] != (3,):
        raise ValueError(f"position must have shape (3,) or (n, 3), got {p.shape}")
    points = p.reshape(-1, 3)
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise ValueError(f"position must be finite, got {points[~finite][0]}")
    ids, starts, ends = graph.segment_arrays
    d = ends - starts
    seg_len2 = np.einsum("ij,ij->i", d, d)
    tie_ids = np.broadcast_to(ids, (min(len(points), _LOCATE_CHUNK), len(ids)))
    out = np.empty(len(points), dtype=ids.dtype)
    for lo in range(0, len(points), _LOCATE_CHUNK):
        q = points[lo:lo + _LOCATE_CHUNK, None, :]
        t = np.clip(np.einsum("kij,ij->ki", q - starts, d) / seg_len2, 0.0, 1.0)
        gap = starts + t[:, :, None] * d - q
        dist2 = np.einsum("kij,kij->ki", gap, gap)
        order = np.lexsort((tie_ids[:len(dist2)], dist2))   # distance first, id breaks ties
        out[lo:lo + len(dist2)] = ids[order[:, 0]]
    return int(out[0]) if p.ndim == 1 else out


def vessel_centroid(graph: VesselGraph, region_id: int) -> np.ndarray:
    """Arithmetic mean of the segment endpoints."""
    v = graph.vessel(region_id)
    return (v.start + v.end) / 2.0


CSV_ROWS = 4096   # rows formatted per pass: bounds the byte matrix
_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
_QUADS = _QUADS.view(np.uint32).ravel()   # "0000".."9999", four ASCII bytes each
_POWERS = 10 ** np.arange(20, dtype=np.uint64)


def _digit_rows(m: np.ndarray, least: int) -> np.ndarray:
    """The decimal digits of the uint64s m, one uint8 row per place, most
    significant first: at least `least` places, 0 for any other leading zero."""
    n = max(least, len(str(m.max())))
    rows, q = np.empty((-(-n // 4) * 4, len(m)), np.uint8), m
    for quad in rows.reshape(-1, 4, len(m))[::-1]:   # four places per gather from the table
        r, q = q, q // 10_000
        quad[:] = _QUADS.take((r - q * 10_000).view(np.int64)).view(np.uint8).reshape(-1, 4).T
    rows = rows[-n:]
    rows[:n - least] *= m >= _POWERS[least:n][::-1, None]
    return rows


def _fallback_cells(cells: np.ndarray, x: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """cells with each cell where odd replaced by f"{v:.6f}" of x, one at a time."""
    text = _cells(np.array([f"{v:.6f}" for v in x[odd].tolist()]))
    cells = np.pad(cells, ((0, max(0, len(text) - len(cells))), (0, 0)))
    cells[:, odd] = np.pad(text, ((0, len(cells) - len(text)), (0, 0)))
    return cells


def _float_cells(x: np.ndarray) -> np.ndarray:
    """f"{v:.6f}" of each v, via m = rint(fl(|v|*1e6)).  Half-integers below
    2**52 are doubles and rounding is monotonic, so the product can land on a
    tie but never cross one: m is correctly rounded unless the product is a
    half-integer, not finite or at least 2**52; those cells take _fallback_cells."""
    y = np.minimum(np.abs(x), 1e10) * 1e6   # inf and huge values clamp past 2**52
    m = np.rint(y)
    odd = ~((np.abs(y - m) < 0.5) & (y < 2.0 ** 52))
    np.copyto(m, 0.0, where=odd)
    digits = _digit_rows(m.astype(np.uint64), 7)
    cells = np.concatenate([np.signbit(x)[None] * np.uint8(45), digits[:-6],
                            np.full((1, len(x)), 46, np.uint8), digits[-6:]])
    return _fallback_cells(cells, x, odd) if odd.any() else cells


def _cells(col: np.ndarray) -> np.ndarray:
    """A column's cells, one uint8 row per byte position; 0 where a cell is shorter."""
    if col.dtype.kind == "f":
        return _float_cells(col.astype(float, copy=False))
    if col.dtype.kind in "iu":
        mag, neg = col.astype(np.uint64), col < 0
        np.negative(mag, out=mag, where=neg)   # |v| in uint64: int64's minimum too
        return np.vstack([neg * np.uint8(45), _digit_rows(mag, 1)])
    return np.array(col, dtype="S").view(np.uint8).reshape(len(col), -1).T


def write_csv(path: str, header: str, blocks) -> None:
    """The header row, then each block's rows.  A block is a structured array or
    a sequence of equal-length columns: a float column is written as f"{v:.6f}",
    an integer one as f"{v}", any other as str(v).  Each pass stacks the cells of
    CSV_ROWS rows in one character-major (bytes per row, rows) uint8 matrix and writes
    its transpose without the 0s.  Unequal columns raise ValueError before opening."""
    blocks = [[block[n] for n in block.dtype.names] if hasattr(block, "dtype")
              else [np.asarray(c) for c in block] for block in blocks]
    for lengths in ({len(c) for c in columns} for columns in blocks):
        if len(lengths) > 1:
            raise ValueError(f"{path}: a block's columns differ in length: {sorted(lengths)}")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for columns in blocks:
            for lo in range(0, len(columns[0]), CSV_ROWS):
                cells = [_cells(c[lo:lo + CSV_ROWS]) for c in columns]
                sep = np.full((1, cells[0].shape[1]), 44, np.uint8)
                mat = np.concatenate([a for c in cells for a in (c, sep)])
                mat[-1] = 10   # the last separator ends the line
                fh.write(mat.T.tobytes().translate(None, b"\0"))


def export_trace_csv(traces: list[MobilityTrace], path: str) -> None:
    """One row per sample: time_s,device_id,x_cm,y_cm,z_cm,vessel_id."""
    write_csv(path, "time_s,device_id,x_cm,y_cm,z_cm,vessel_id",
              ((tr.times, np.broadcast_to(tr.device_id, tr.times.shape), *tr.positions.T,
                tr.vessel_ids.astype(np.int64, copy=False)) for tr in traces))
