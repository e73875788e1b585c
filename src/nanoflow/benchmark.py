"""Localizer scoring: metrics, baseline classifier, sampling, harness.

The benchmark runs one independent simulation per target event, each on its
own RNG substream derived from (seed, event id), so a report is a pure
function of (config, seed) no matter how many workers execute the runs.
Metrics follow the region-accuracy / point-error / reliability definitions
used across the framework; sampling strategies draw evaluation subsets from
a dense per-vessel location population.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .channel import ChannelConfig
from .energy import EnergyConfig
from .errors import (EventRunsFailed, ExternalDataError, MismatchedSets,
                     NoEstimate, SampleTooLarge)
from .simcore import Anchor, EventScenario, ProtocolParams, run_simulation
from .vasculature import (UpsampleParams, VesselGraph,
                          locate_vessel, simulate_mobility, upsample_trace,
                          vessel_centroid)

# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class TargetEvent:
    id: int
    position: np.ndarray
    region_id: int
    region_type: int

    @classmethod
    def at(cls, event_id: int, position, graph: VesselGraph) -> "TargetEvent":
        pos = np.asarray(position, dtype=float)
        region = locate_vessel(graph, pos)
        rtype = int(graph.vessel(region).region_type)
        return cls(id=event_id, position=pos, region_id=region, region_type=rtype)


@dataclass
class RegionEstimate:
    event_id: int
    estimated_region: int | None
    point: np.ndarray | None = None

    @property
    def has_estimate(self) -> bool:
        return self.estimated_region is not None or self.point is not None


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
    channel_cfg: ChannelConfig = field(default_factory=ChannelConfig)
    protocol: ProtocolParams = field(default_factory=ProtocolParams)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _match(estimates: list[RegionEstimate], truths: list[TargetEvent]):
    if not truths:
        raise MismatchedSets("empty truth set")
    by_id = {e.event_id: e for e in estimates}
    if len(by_id) != len(estimates):
        raise MismatchedSets("duplicate event ids among estimates")
    missing = [t.id for t in truths if t.id not in by_id]
    extra = set(by_id) - {t.id for t in truths}
    if missing or extra:
        raise MismatchedSets(
            f"estimate/truth ids differ (missing {missing[:5]}, extra {sorted(extra)[:5]})")
    return [(by_id[t.id], t) for t in truths]


def region_accuracy(estimates: list[RegionEstimate], truths: list[TargetEvent]) -> float:
    """Fraction of events whose estimated region matches the true one.

    Events with no estimate stay in the denominator and count as wrong.
    """
    pairs = _match(estimates, truths)
    correct = sum(1 for est, tru in pairs if est.estimated_region == tru.region_id)
    return correct / len(pairs)


def point_error(estimate: RegionEstimate, truth: TargetEvent,
                graph: VesselGraph) -> float:
    """Euclidean distance to the truth, with centroid substitution."""
    point = estimate.point
    if point is None:
        if estimate.estimated_region is None:
            raise NoEstimate(f"event {truth.id}: estimate carries no region or point")
        point = vessel_centroid(graph, estimate.estimated_region)
    return float(np.linalg.norm(np.asarray(point, dtype=float) - truth.position))


def reliability(estimates: list[RegionEstimate], truths: list[TargetEvent]) -> float:
    """Fraction of events for which the localizer produced any estimate."""
    pairs = _match(estimates, truths)
    return sum(1 for est, _ in pairs if est.has_estimate) / len(pairs)


# ---------------------------------------------------------------------------
# baseline localizer
# ---------------------------------------------------------------------------


def _loop_representatives(graph: VesselGraph) -> tuple[list[float], list[int]]:
    """Expected period and representative vessel for every heart loop.

    The representative is the vessel the loop spends longest in among the
    vessels unique to that loop (falling back to longest-dwell overall),
    which is where a loop-time match localizes an event.
    """
    cached = getattr(graph, "_loop_reps", None)
    if cached is not None:
        return cached
    loops = graph.cycles_through_heart()
    times = [graph.loop_time(c) for c in loops]
    membership: dict[int, int] = {}
    for cycle in loops:
        for vid in cycle:
            membership[vid] = membership.get(vid, 0) + 1
    reps = []
    for cycle in loops:
        unique = [vid for vid in cycle if membership[vid] == 1]
        pool = unique if unique else list(cycle)
        dwell = {vid: graph.vessel(vid).length / graph.vessel(vid).speed_cm_s
                 for vid in pool}
        best = max(dwell.values())
        reps.append(min(vid for vid, d in dwell.items() if d == best))
    graph._loop_reps = (times, reps)
    return times, reps


def baseline_localize(records, graph: VesselGraph, seed: int = 0,
                      event_id: int = 0) -> RegionEstimate:
    """Nearest-loop-time voting over event-positive records.

    Each record with the event bit set votes for the loop whose expected
    period is nearest its circulation time (ties, e.g. mirrored left/right
    loops, broken uniformly from the seeded stream); the majority region
    wins, again with seeded tie-breaks.  No positive records, no estimate.
    """
    positives = [r for r in records if r.event_bit == 1]
    if not positives:
        return RegionEstimate(event_id=event_id, estimated_region=None, point=None)
    rng = np.random.default_rng(seed)
    times, reps = _loop_representatives(graph)
    times_arr = np.asarray(times)
    votes: dict[int, int] = {}
    for rec in positives:
        gaps = np.abs(times_arr - rec.circulation_time_s)
        best = float(gaps.min())
        tol = 1e-9 * max(1.0, best)
        candidates = np.flatnonzero(gaps <= best + tol)
        pick = int(candidates[0]) if len(candidates) == 1 else int(rng.choice(candidates))
        region = reps[pick]
        votes[region] = votes.get(region, 0) + 1
    top = max(votes.values())
    leaders = sorted(vid for vid, n in votes.items() if n == top)
    region = leaders[0] if len(leaders) == 1 else int(rng.choice(leaders))
    return RegionEstimate(event_id=event_id, estimated_region=region,
                          point=vessel_centroid(graph, region))


# ---------------------------------------------------------------------------
# dense population and sampling strategies
# ---------------------------------------------------------------------------


def dense_locations(graph: VesselGraph, size: int = 1368) -> list[TargetEvent]:
    """Candidate event locations spread along every vessel, ~1 per cm of arc.

    `size` points are apportioned across vessels proportionally to arc
    length (largest-remainder, each vessel keeps at least one) and placed
    at evenly spaced arc midpoints, so the population covers the whole
    graph at near-uniform linear density regardless of the exact total.
    """
    vessels = sorted(graph.vessels, key=lambda v: v.id)
    if size < len(vessels):
        raise SampleTooLarge(
            f"dense size {size} is below one point per vessel ({len(vessels)})")
    lengths = np.array([v.length for v in vessels])
    share = size * lengths / lengths.sum()
    counts = np.maximum(np.floor(share).astype(int), 1)
    while counts.sum() > size:   # floor+minimum overshoot: trim densest vessel first
        density = np.where(counts > 1, counts / lengths, -np.inf)
        counts[int(np.argmax(density))] -= 1
    remainder = share - np.floor(share)
    order = np.lexsort((np.arange(len(vessels)), -remainder))
    i = 0
    while counts.sum() < size:
        counts[order[i % len(vessels)]] += 1
        i += 1
    rows = graph.rows_of(np.repeat([v.id for v in vessels], counts))
    arcs = np.concatenate([(np.arange(n) + 0.5) * (v.length / n)
                           for v, n in zip(vessels, counts)])
    positions = graph.points_at(rows, arcs)
    regions = locate_vessel(graph, positions).tolist()
    return [TargetEvent(eid, pos, region, int(graph.vessel(region).region_type))
            for eid, (pos, region) in enumerate(zip(positions, regions))]


def _srs(dense, k, rng):
    idx = rng.choice(len(dense), size=k, replace=False)
    return [dense[i] for i in sorted(idx)]


def _ssrs(dense, k, rng):
    strata: dict[int, list] = {0: [], 1: [], 2: []}
    for i, ev in enumerate(dense):
        strata.setdefault(ev.region_type, []).append(i)
    present = [t for t in sorted(strata) if strata[t]]
    share = {t: k * len(strata[t]) / len(dense) for t in present}
    alloc = {t: min(int(math.floor(share[t])), len(strata[t])) for t in present}
    leftovers = sorted(present, key=lambda t: (-(share[t] - math.floor(share[t])), t))
    while sum(alloc.values()) < k:
        for t in leftovers:
            if sum(alloc.values()) == k:
                break
            if alloc[t] < len(strata[t]):
                alloc[t] += 1
    chosen = []
    for t in present:
        if alloc[t]:
            idx = rng.choice(len(strata[t]), size=alloc[t], replace=False)
            chosen.extend(strata[t][i] for i in idx)
    return [dense[i] for i in sorted(chosen)]


def _crs(dense, k, rng):
    clusters: dict[int, list] = {}
    for i, ev in enumerate(dense):
        clusters.setdefault(ev.region_id, []).append(i)
    cluster_ids = sorted(clusters)
    order = rng.permutation(len(cluster_ids))
    chosen: list[int] = []
    for ci in order:
        members = sorted(clusters[cluster_ids[ci]])
        need = k - len(chosen)
        if need <= 0:
            break
        chosen.extend(members[:need] if len(members) > need else members)
    return [dense[i] for i in sorted(chosen)]


def _cell_indices(points: np.ndarray, lo: np.ndarray, pitch: float) -> np.ndarray:
    return np.floor((points - lo) / pitch).astype(np.int64)


def _rgs(dense, k, rng):
    points = np.array([ev.position for ev in dense])
    lo = points.min(axis=0) - 1e-9
    hi = points.max(axis=0) + 1e-9
    max_pitch = float((hi - lo).max())

    def nonempty(pitch: float) -> int:
        cells = _cell_indices(points, lo, pitch)
        return len(np.unique(cells, axis=0))

    p_lo, p_hi = 1e-6, max_pitch
    if nonempty(p_hi) >= k:
        pitch = p_hi
    else:
        for _ in range(80):   # shrink pitch until enough cells fill
            mid = 0.5 * (p_lo + p_hi)
            if nonempty(mid) >= k:
                p_lo = mid
            else:
                p_hi = mid
        pitch = p_lo
    cells = _cell_indices(points, lo, pitch)
    buckets: dict[tuple, list[int]] = {}
    for i, c in enumerate(map(tuple, cells)):
        buckets.setdefault(c, []).append(i)
    chosen = []
    for c in sorted(buckets)[:k]:
        members = buckets[c]
        centre = lo + (np.asarray(c) + 0.5) * pitch
        dist = [float(np.linalg.norm(points[i] - centre)) for i in members]
        best = min(dist)
        chosen.append(min(m for m, d in zip(members, dist) if d == best))
    return [dense[i] for i in sorted(chosen)]


def _scs_blocks(lo: np.ndarray, hi: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    if k == 1:
        return [(lo, hi)]
    axis = int(np.argmax(hi - lo))
    k1 = k // 2
    cut = lo[axis] + (hi[axis] - lo[axis]) * (k1 / k)
    hi_a, lo_b = hi.copy(), lo.copy()
    hi_a[axis] = cut
    lo_b[axis] = cut
    return _scs_blocks(lo, hi_a, k1) + _scs_blocks(lo_b, hi, k - k1)


def _scs(dense, k, rng):
    points = np.array([ev.position for ev in dense])
    lo = points.min(axis=0) - 1e-9
    hi = points.max(axis=0) + 1e-9
    blocks = _scs_blocks(lo, hi, k)
    chosen: list[int] = []
    taken = np.zeros(len(dense), dtype=bool)
    for blo, bhi in blocks:
        inside = np.flatnonzero(((points >= blo) & (points < bhi)).all(axis=1) & ~taken)
        if len(inside):
            pick = int(inside[rng.integers(len(inside))])
            chosen.append(pick)
            taken[pick] = True
    spare = np.flatnonzero(~taken)
    if len(chosen) < k:   # empty blocks: top up uniformly from the rest
        extra = rng.choice(len(spare), size=k - len(chosen), replace=False)
        chosen.extend(int(spare[i]) for i in extra)
    return [dense[i] for i in sorted(chosen)]


_STRATEGY_FN = {"srs": _srs, "ssrs": _ssrs, "crs": _crs, "rgs": _rgs, "scs": _scs}
STRATEGIES = tuple(_STRATEGY_FN)


def sample_locations(dense: list[TargetEvent], strategy: str, k: int,
                     seed: int = 0) -> list[TargetEvent]:
    """Draw k dense-set members with the named strategy; k = |dense| is identity."""
    name = strategy.lower()
    if name not in _STRATEGY_FN:
        raise ValueError(f"unknown sampling strategy {strategy!r}")
    if k < 1:
        raise SampleTooLarge("sample size k must be >= 1")
    if k > len(dense):
        raise SampleTooLarge(f"sample size {k} exceeds dense population {len(dense)}")
    if k == len(dense):
        return list(dense)
    rng = np.random.default_rng(seed)
    return _STRATEGY_FN[name](dense, k, rng)


# ---------------------------------------------------------------------------
# per-event simulation harness
# ---------------------------------------------------------------------------


def _child_seed(root: int, *path: int) -> int:
    return int(np.random.SeedSequence((root,) + path).generate_state(1)[0])


def trace_and_run(graph: VesselGraph, plan: SimPlan,
                  target: tuple[float, float, float] | None, mobility_seed: int,
                  upsample_root: tuple[int, ...], energy_rows: bool):
    """Mobility, upsampling and one engine run for the plan's devices.

    Mobility draws from `mobility_seed`; device d's trace is upsampled on
    the stream _child_seed(*upsample_root, 1, d).  Returns (upsampled
    traces, SimResult).
    """
    traces = simulate_mobility(graph, plan.device_count, plan.duration_s, seed=mobility_seed)
    upsampled = [
        upsample_trace(tr, UpsampleParams(factor=plan.upsample_factor,
                                          sigma_cm=plan.upsample_sigma_cm,
                                          seed=_child_seed(*upsample_root, 1, tr.device_id)))
        for tr in traces
    ]
    scenario = EventScenario(target=target, detection_radius_cm=plan.detection_radius_cm,
                             sense_rate_hz=plan.sense_rate_hz)
    return upsampled, run_simulation(graph, upsampled, plan.anchors, scenario,
                                     plan.energy_cfg, plan.channel_cfg,
                                     duration_s=plan.duration_s, protocol=plan.protocol,
                                     energy_rows=energy_rows)


def simulate_event(graph: VesselGraph, plan: SimPlan, event: TargetEvent,
                   seed: int):
    """One independent event run on the event's own seed streams; returns
    records and per-device consumption (no energy rows: the benchmark does
    not read them)."""
    return trace_and_run(graph, plan, tuple(event.position), _child_seed(seed, event.id, 0),
                         (seed, event.id), energy_rows=False)[1]


_WORKER_STATE: dict = {}


def _worker_init(graph, plan, sim_times, seed):
    _WORKER_STATE["args"] = (graph, plan, sim_times, seed)


def _run_one(event: TargetEvent):
    graph, plan, sim_times, seed = _WORKER_STATE["args"]
    try:
        result = simulate_event(graph, plan, event, seed)
        estimates = {}
        for ti, t_cap in enumerate(sim_times):
            prefix = [r for r in result.records if r.report_time_s <= t_cap + 1e-9]
            estimates[t_cap] = baseline_localize(
                prefix, graph, seed=_child_seed(seed, event.id, 3, ti),
                event_id=event.id)
        consumed = list(result.consumed_pj.values())
        return (event.id, estimates, consumed, None)
    except Exception as exc:  # failed run counts as no estimate for the event
        empty = {t: RegionEstimate(event.id, None, None) for t in sim_times}
        return (event.id, empty, [], f"{type(exc).__name__}: {exc}")


@dataclass
class MetricsReport:
    region_accuracy: float
    n_correct: int
    n_total: int
    reliability: float
    point_errors_cm: list[float]
    mean_point_error_cm: float | None
    mean_point_error_correct_cm: float | None
    by_region_type: dict
    by_sim_time_s: dict
    energy_summary: dict
    config_fingerprint: str
    run_errors: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _metric_block(estimates: list[RegionEstimate], truths: list[TargetEvent],
                  graph: VesselGraph, correct_only: bool) -> dict:
    pairs = _match(estimates, truths)
    n_total = len(pairs)
    n_correct = 0
    errors_all, errors_correct = [], []
    for est, tru in pairs:
        correct = est.estimated_region == tru.region_id
        n_correct += correct
        if est.has_estimate:
            errors_all.append(point_error(est, tru, graph))
            if correct:
                errors_correct.append(errors_all[-1])
    reported = errors_correct if correct_only else errors_all
    return {
        "region_accuracy": n_correct / n_total,
        "n_correct": n_correct,
        "n_total": n_total,
        "reliability": sum(1 for est, _ in pairs if est.has_estimate) / n_total,
        "point_errors_cm": reported,
        "mean_point_error_cm": (sum(errors_all) / len(errors_all)) if errors_all else None,
        "mean_point_error_correct_cm": (sum(errors_correct) / len(errors_correct))
                                       if errors_correct else None,
    }


def _build_report(final: list[RegionEstimate], truths: list[TargetEvent],
                  graph: VesselGraph, correct_only: bool, **rest) -> MetricsReport:
    """Top-level and by-region-type metric blocks of `final`, plus `rest`."""
    by_type = {}
    for rtype in (0, 1, 2):
        sel = [t for t in truths if t.region_type == rtype]
        if not sel:
            continue
        ids = {t.id for t in sel}
        by_type[str(rtype)] = _metric_block([e for e in final if e.event_id in ids],
                                            sel, graph, correct_only)
    return MetricsReport(**_metric_block(final, truths, graph, correct_only),
                         by_region_type=by_type, **rest)


def run_events(graph: VesselGraph, events: list[TargetEvent], plan: SimPlan,
               workers: int = 1, seed: int = 0,
               sim_times_s: list[float] | None = None):
    """Per-event raw results, sorted by event id (worker-count invariant).

    Returns (sim_times, rows) where each row is
    (event_id, {sim_time: RegionEstimate}, consumed_pj_per_device, error | None).
    A failed run counts as no estimate; EventRunsFailed is raised, naming the
    count and the first error, when every run failed.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not events:
        raise MismatchedSets("no target events to benchmark")
    sim_times = sorted(set(float(t) for t in (sim_times_s or [plan.duration_s])))
    if sim_times[-1] > plan.duration_s + 1e-9:
        raise ValueError("sim_times_s cannot exceed the simulation duration")

    if workers == 1:
        _worker_init(graph, plan, sim_times, seed)
        raw = [_run_one(ev) for ev in events]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init,
                                 initargs=(graph, plan, sim_times, seed)) as pool:
            raw = list(pool.map(_run_one, events, chunksize=max(1, len(events) // (4 * workers))))
    raw.sort(key=lambda item: item[0])
    errors = [err for _, _, _, err in raw if err is not None]
    if len(errors) == len(raw):
        raise EventRunsFailed(f"all {len(raw)} event runs failed; the first: {errors[0]}")
    return sim_times, raw


def run_benchmark(graph: VesselGraph, events: list[TargetEvent], plan: SimPlan,
                  workers: int = 1, seed: int = 0,
                  sim_times_s: list[float] | None = None,
                  config_fingerprint: str = "",
                  point_error_correct_only: bool = False) -> MetricsReport:
    """Simulate every event independently and score the baseline localizer.

    Aggregation is ordered by event id, so the report does not depend on
    worker count or scheduling.  Per-simulation-time metrics come from
    prefix-truncated record sets of the same runs.
    """
    sim_times, raw = run_events(graph, events, plan, workers, seed, sim_times_s)

    truths = sorted(events, key=lambda e: e.id)
    per_time: dict[float, list[RegionEstimate]] = {t: [] for t in sim_times}
    consumed_all: list[float] = []
    run_errors: dict[str, str] = {}
    for event_id, estimates, consumed, err in raw:
        for t in sim_times:
            per_time[t].append(estimates[t])
        consumed_all.extend(consumed)
        if err is not None:
            run_errors[str(event_id)] = err

    by_time = {f"{t:g}": _metric_block(per_time[t], truths, graph, point_error_correct_only)
               for t in sim_times}
    energy = {
        "mean_consumed_pj": (sum(consumed_all) / len(consumed_all)) if consumed_all else None,
        "max_consumed_pj": max(consumed_all) if consumed_all else None,
    }
    return _build_report(per_time[sim_times[-1]], truths, graph, point_error_correct_only,
                         by_sim_time_s=by_time, energy_summary=energy,
                         config_fingerprint=config_fingerprint, run_errors=run_errors)


# ---------------------------------------------------------------------------
# convergence analysis over cached per-event results
# ---------------------------------------------------------------------------


def convergence_curve(dense_results: list[tuple[TargetEvent, RegionEstimate]],
                      strategy: str, sizes: list[int], seed: int = 0, *,
                      graph: VesselGraph) -> list[tuple[int, float, float]]:
    """(k, region accuracy, mean point error) per subsample size.

    Resamples cached per-event results; no re-simulation happens here.  A
    subset without any estimate has a mean point error of NaN.
    """
    truths = [t for t, _ in dense_results]
    by_id = {t.id: est for t, est in dense_results}
    rows = []
    for k in sizes:
        subset = sample_locations(truths, strategy, k, seed=_child_seed(seed, k))
        block = _metric_block([by_id[t.id] for t in subset], subset, graph,
                              correct_only=False)
        err = block["mean_point_error_cm"]
        rows.append((k, block["region_accuracy"], float("nan") if err is None else err))
    return rows


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------


def export_events_csv(events: list[TargetEvent], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("event_id,x_cm,y_cm,z_cm,region_id,region_type\n")
        for ev in events:
            x, y, z = ev.position
            fh.write(f"{ev.id},{x:.6f},{y:.6f},{z:.6f},{ev.region_id},{ev.region_type}\n")


def load_estimates_csv(path: str) -> list[RegionEstimate]:
    """Estimates produced by an external localizer: event_id,estimated_region,x,y,z.

    An empty estimated_region means "no estimate"; empty coordinates with a
    region present mean centroid substitution at scoring time.
    """
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise ExternalDataError(f"cannot read estimates file {path}: {exc}") from exc
    if not lines:
        raise ExternalDataError(f"estimates file {path} is empty")
    header = lines[0].split(",")
    expected = ["event_id", "estimated_region", "x_cm", "y_cm", "z_cm"]
    if header != expected:
        raise ExternalDataError(
            f"estimates file {path} has header {header}, expected {expected}")
    out = []
    for ln_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ExternalDataError(f"{path}:{ln_no}: expected 5 columns, got {len(parts)}")
        try:
            event_id = int(parts[0])
            region = int(parts[1]) if parts[1].strip() else None
            coords = [p.strip() for p in parts[2:5]]
            if all(coords):
                point = np.array([float(c) for c in coords])
            elif any(coords):
                raise ValueError("partial coordinates")
            else:
                point = None
        except ValueError as exc:
            raise ExternalDataError(f"{path}:{ln_no}: malformed row ({exc})") from exc
        out.append(RegionEstimate(event_id=event_id, estimated_region=region, point=point))
    return out


def score_external(estimates: list[RegionEstimate], truths: list[TargetEvent],
                   graph: VesselGraph, config_fingerprint: str = "",
                   point_error_correct_only: bool = False) -> MetricsReport:
    """Score third-party estimates against sampled truths (no simulation).

    Events the external file does not mention count as having no estimate.
    """
    by_id = {e.event_id: e for e in estimates}
    filled = [by_id.get(t.id, RegionEstimate(t.id, None, None)) for t in truths]
    return _build_report(filled, truths, graph, point_error_correct_only,
                         by_sim_time_s={}, energy_summary={},
                         config_fingerprint=config_fingerprint, run_errors={})
