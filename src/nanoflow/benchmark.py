"""Localizer scoring: metrics, baseline classifier, sampling, harness.

The benchmark runs one independent simulation per target event, each on its
own RNG substream derived from (seed, event id), so a report is a pure
function of (config, seed) no matter how many workers execute the runs.
Metrics follow the region-accuracy / point-error / reliability definitions
used across the framework; sampling strategies draw evaluation subsets from
a dense per-vessel location population.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (EventRunsFailed, ExternalDataError, MismatchedSets, NanoflowError,
                     NoEstimate, SampleTooLarge, require)
from .simcore import SimPlan, _row_dots, decode_beacons, run_simulation
from .vasculature import (VesselGraph, locate_vessel, simulate_mobility, upsample_traces,
                          vessel_centroid, write_csv)

# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class TargetEvent:
    id: int
    position: np.ndarray
    region_id: int
    region_type: int


@dataclass
class RegionEstimate:
    event_id: int
    estimated_region: int | None
    point: np.ndarray | None = None

    @property
    def has_estimate(self) -> bool:
        return self.estimated_region is not None or self.point is not None


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


def _counts(pairs) -> tuple[int, int, int]:
    """(correct, with an estimate, total) over matched (estimate, truth) pairs."""
    return (sum(1 for est, tru in pairs if est.estimated_region == tru.region_id),
            sum(1 for est, _ in pairs if est.has_estimate), len(pairs))


def region_accuracy(estimates: list[RegionEstimate], truths: list[TargetEvent]) -> float:
    """Fraction of events whose estimated region matches the true one.

    Events with no estimate stay in the denominator and count as wrong.
    """
    correct, _, total = _counts(_match(estimates, truths))
    return correct / total


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
    _, estimated, total = _counts(_match(estimates, truths))
    return estimated / total


# ---------------------------------------------------------------------------
# baseline localizer
# ---------------------------------------------------------------------------


def baseline_localize(records: np.ndarray, graph: VesselGraph, seed: int = 0,
                      event_id: int = 0) -> RegionEstimate:
    """Nearest-loop-time voting over the event-positive rows of a RECORD array.

    Each record with the event bit set votes for the loop whose expected
    period is nearest its circulation time (ties, e.g. mirrored left/right
    loops, broken uniformly from the seeded stream); the majority region
    wins, again with seeded tie-breaks.  No positive records, no estimate.
    """
    positives = records["circulation_time_s"][records["event_bit"] == 1].tolist()
    if not positives:
        return RegionEstimate(event_id=event_id, estimated_region=None, point=None)
    rng = np.random.default_rng(seed)
    times, reps = graph.heart_loops
    times_arr = np.asarray(times)
    votes: dict[int, int] = {}
    for circulation in positives:
        gaps = np.abs(times_arr - circulation)
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
    for ci in order:   # members are in index order; the cluster that reaches k is cut
        chosen.extend(clusters[cluster_ids[ci]][:k - len(chosen)])
    return [dense[i] for i in sorted(chosen)]


def _cell_indices(points: np.ndarray, lo: np.ndarray, pitch: float) -> np.ndarray:
    """Each point's grid cell, as integral floats."""
    return np.floor((points - lo) / pitch)


def _distinct_rows(rows: np.ndarray) -> int:
    """len(np.unique(rows, axis=0)) of a non-empty 2-D array of non-negative
    integral values: the changes between its rows once sorted, plus one.  A
    row sorts as one base-(max + 1) number where float64 holds that exactly."""
    base = float(rows.max()) + 1.0
    if base ** rows.shape[1] <= 2.0 ** 53:
        keys = np.sort(rows @ base ** np.arange(rows.shape[1] - 1.0, -1.0, -1.0))
        return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
    rows = rows[np.lexsort(rows.T)]
    return 1 + int(np.count_nonzero((rows[1:] != rows[:-1]).any(axis=1)))


def _rgs(dense, k, rng):
    points = np.array([ev.position for ev in dense])
    lo = points.min(axis=0) - 1e-9
    hi = points.max(axis=0) + 1e-9
    max_pitch = float((hi - lo).max())

    def nonempty(pitch: float) -> int:
        return _distinct_rows(_cell_indices(points, lo, pitch))

    p_lo, p_hi = 1e-6, max_pitch
    if nonempty(p_hi) >= k:
        pitch = p_hi
    else:
        for _ in range(80):   # shrink pitch until enough cells fill
            mid = 0.5 * (p_lo + p_hi)
            if mid in (p_lo, p_hi):   # adjacent floats: no later step moves p_lo
                break
            if nonempty(mid) >= k:
                p_lo = mid
            else:
                p_hi = mid
        pitch = p_lo
    cells = _cell_indices(points, lo, pitch)
    gap = points - (lo + (cells + 0.5) * pitch)   # from each point's cell centre
    dist = np.sqrt(_row_dots(gap, gap))   # bit for bit np.linalg.norm of each row
    order = np.lexsort((np.arange(len(points)), dist, *cells.T[::-1]))   # cell, distance, index
    picks = order[np.r_[True, np.diff(cells[order], axis=0).any(axis=1)]]   # each cell's first row
    return [dense[i] for i in np.sort(picks[:k])]


def _scs_blocks(points: np.ndarray, k: int) -> np.ndarray:
    """Each point's block, numbered in order, of the k blocks the points'
    bounding box (widened by 1e-9) is cut into; -1 outside it.  A cut gives
    the lower part k // 2 blocks and that fraction of the longest side.
    Nodes of one depth are cut together."""
    lo = points.min(axis=0) - 1e-9
    hi = points.max(axis=0) + 1e-9
    block = np.full(len(points), -1)
    rows = np.flatnonzero(((points >= lo) & (points < hi)).all(axis=1))
    node = np.zeros(len(rows), dtype=np.intp)   # each row's node at this depth
    lo, hi, ks, first = lo[None], hi[None], np.array([k]), np.array([0])
    while len(rows):
        done = ks[node] == 1
        block[rows[done]] = first[node[done]]
        split = ks > 1   # renumber the nodes that are cut, in order
        rows, node = rows[~done], (np.cumsum(split) - 1)[node[~done]]
        lo, hi, ks, first = lo[split], hi[split], ks[split], first[split]
        at = np.arange(len(ks))
        span = hi - lo
        axis = np.argmax(span, axis=1)
        k1 = ks // 2
        cut = lo[at, axis] + span[at, axis] * (k1 / ks)
        node = 2 * node + (points[rows, axis[node]] >= cut[node])   # lower child, upper child
        lo, hi = lo.repeat(2, axis=0), hi.repeat(2, axis=0)
        hi[2 * at, axis] = lo[2 * at + 1, axis] = cut
        ks = np.column_stack((k1, ks - k1)).ravel()
        first = np.column_stack((first, first + k1)).ravel()
    return block


def _scs(dense, k, rng):
    block = _scs_blocks(np.array([ev.position for ev in dense]), k)
    order = np.argsort(block, kind="stable")   # by block, then index
    starts = np.flatnonzero(np.diff(block[order], prepend=-1))   # each non-empty block's first
    chosen = [int(order[start + rng.integers(stop - start)])   # one per non-empty block
              for start, stop in zip(starts.tolist(), starts[1:].tolist() + [len(order)])]
    if len(chosen) < k:   # empty blocks: top up uniformly from the rest
        spare = np.delete(np.arange(len(dense)), chosen)
        extra = rng.choice(len(spare), size=k - len(chosen), replace=False)
        chosen.extend(int(spare[i]) for i in extra)
    return [dense[i] for i in sorted(chosen)]


_STRATEGY_FN = {"srs": _srs, "ssrs": _ssrs, "crs": _crs, "rgs": _rgs, "scs": _scs}
STRATEGIES = tuple(_STRATEGY_FN)


def sample_locations(dense: list[TargetEvent], strategy: str, k: int,
                     seed: int = 0) -> list[TargetEvent]:
    """Exactly k dense-set members, drawn with the named strategy (one of STRATEGIES,
    lowercase); k = |dense| is identity.  SampleTooLarge if k is out of range or unfilled."""
    if strategy not in _STRATEGY_FN:
        raise ValueError(f"unknown sampling strategy {strategy!r}")
    if k < 1:
        raise SampleTooLarge("sample size k must be >= 1")
    if k > len(dense):
        raise SampleTooLarge(f"sample size {k} exceeds dense population {len(dense)}")
    if k == len(dense):
        return list(dense)
    drawn = _STRATEGY_FN[strategy](dense, k, np.random.default_rng(seed))
    if len(drawn) < k:
        raise SampleTooLarge(f"{strategy} drew {len(drawn)} events, fewer than sample size {k}")
    return drawn


# ---------------------------------------------------------------------------
# per-event simulation harness
# ---------------------------------------------------------------------------


def _child_seed(root: int, *path: int) -> int:
    return int(np.random.SeedSequence((root,) + path).generate_state(1)[0])


def build_traces(graph: VesselGraph, plan: SimPlan, runs: list[tuple[int, tuple[int, ...]]]):
    """The plan's upsampled traces, one list per (mobility seed, upsample
    root) of `runs`.  A run walks on its own mobility seed; then all runs'
    traces are upsampled in one upsample_traces pass, device d of a run on
    the stream _child_seed(*upsample_root, 1, d).  A run's traces come out
    as if it were built alone."""
    walks = [simulate_mobility(graph, plan.device_count, plan.duration_s, seed=mobility_seed)
             for mobility_seed, _ in runs]
    built = iter(upsample_traces([tr for traces in walks for tr in traces],
                                 plan.upsample_factor, plan.upsample_sigma_cm,
                                 [_child_seed(*root, 1, tr.device_id)
                                  for (_, root), traces in zip(runs, walks) for tr in traces]))
    return [[next(built) for _ in traces] for traces in walks]


def simulate_event(graph: VesselGraph, plan: SimPlan, event: TargetEvent, traces: list,
                   beacons: list):
    """The engine run of one event on its traces (built on the event's own
    seed streams) and their decoded beacons; returns records and per-device
    consumption (no energy rows: the benchmark does not read them)."""
    return run_simulation(graph, traces, plan, tuple(event.position), energy_rows=False,
                          beacons=beacons)


_BATCH_DEVICE_S = 2048   # device-seconds of traces a batch of several events stays within


def _run_batch(graph: VesselGraph, plan: SimPlan, sim_times: list, seed: int,
               events: list[TargetEvent]):
    """([RegionEstimate per sim time], consumed pJ per device, error | None)
    of each event.  Each event's traces are built on its own seed streams
    (build_traces), the beacons of all of them are decoded in one pass, and
    then each event runs alone and is localized at each sim time on the
    records reported by then, so its result does not depend on its
    batch-mates.  Only a NanoflowError counts as no estimate, for that event
    alone; an event run raises ConfigMismatch for traces that do not fit the
    plan (the mobility of a 60.4 s run covers 60 s).  Any other exception
    propagates."""
    built = build_traces(graph, plan, [(_child_seed(seed, event.id, 0), (seed, event.id))
                                       for event in events])
    decoded = iter(decode_beacons(graph, [tr for traces in built for tr in traces], plan))
    runs = []
    for event, traces in zip(events, built):
        try:
            result = simulate_event(graph, plan, event, traces,
                                    [next(decoded) for _ in traces])
            records = result.records.view(np.ndarray)   # recarray reads run in Python
            ends = np.searchsorted(records["report_time_s"], np.array(sim_times) + 1e-9, "right")
            estimates = [baseline_localize(records[:end], graph, event_id=event.id,
                                           seed=_child_seed(seed, event.id, 3, ti))
                         for ti, end in enumerate(ends.tolist())]
            runs.append((estimates, list(result.consumed_pj.values()), None))
        except NanoflowError as exc:
            runs.append(([RegionEstimate(event.id, None, None) for _ in sim_times], [],
                         f"{type(exc).__name__}: {exc}"))
    return runs


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


def _mean(xs: list[float]) -> float | None:
    """Mean of xs, None for none."""
    total = 0.0
    for x in xs:   # left to right: sum() compensates on Python 3.12+
        total += x
    return total / len(xs) if xs else None


def _metric_block(estimates: list[RegionEstimate], truths: list[TargetEvent],
                  graph: VesselGraph, correct_only: bool) -> dict:
    pairs = _match(estimates, truths)
    n_correct, n_estimated, n_total = _counts(pairs)
    errors_all, errors_correct = [], []
    for est, tru in pairs:
        if est.has_estimate:
            errors_all.append(point_error(est, tru, graph))
            if est.estimated_region == tru.region_id:
                errors_correct.append(errors_all[-1])
    return {
        "region_accuracy": n_correct / n_total,
        "n_correct": n_correct,
        "n_total": n_total,
        "reliability": n_estimated / n_total,
        "point_errors_cm": errors_correct if correct_only else errors_all,
        "mean_point_error_cm": _mean(errors_all),
        "mean_point_error_correct_cm": _mean(errors_correct),
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
    """Run every event and localize it at each simulation time.

    Returns (estimates, consumed, errors): {sim_time: [RegionEstimate per
    event, in event-id order]} with sim times ascending, the consumed pJ of
    every device of every run, and {str(event_id): error} of the failed
    runs (see _run_batch), which count as no estimate.  EventRunsFailed is
    raised, naming the count and the first error, when every run failed.
    InvalidGraph, for too many heart cycles to localize on, is raised before
    any run starts.

    The events, in id order, are cut into batches, the unit of work a worker
    gets: a batch upsamples its events' traces in one pass and decodes
    their beacons in another.  A batch holds len(events) // (4 * workers)
    events, at most _BATCH_DEVICE_S device-seconds of traces and at least
    one event, so a large event runs alone.  None of the results depends on
    the batches or the worker count, and no more workers start than there
    are batches (no pool for one).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not events:
        raise MismatchedSets("no target events to benchmark")
    graph.heart_loops   # baseline_localize reads it; forked workers inherit it
    times = [float(t) for t in ([plan.duration_s] if sim_times_s is None else sim_times_s)]
    bad = [t for t in times if not 0.0 < t <= plan.duration_s + 1e-9]   # NaN fails both
    if bad:
        raise ValueError(f"sim_times_s must lie in (0, {plan.duration_s:g}] s, got {bad[0]!r}")
    require(len(times) > 0, "sim_times_s", "must list at least one time")
    sim_times = sorted(set(times))
    for a, b in zip(sim_times, sim_times[1:]):   # run_benchmark keys its report by f"{t:g}"
        require(f"{a:g}" != f"{b:g}", "sim_times_s", f"{a!r} and {b!r} share the report label {a:g}")
    events = sorted(events, key=lambda e: e.id)
    size = max(1, min(len(events) // (4 * workers),
                      int(_BATCH_DEVICE_S // (plan.device_count * plan.duration_s))))
    batches = [events[i:i + size] for i in range(0, len(events), size)]
    run_batch = functools.partial(_run_batch, graph, plan, sim_times, seed)
    workers = min(workers, len(batches))   # the pool forks all of its workers up front
    if workers == 1:
        runs = [run for batch in batches for run in run_batch(batch)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = [run for batch_runs in pool.map(run_batch, batches, chunksize=max(
                1, len(batches) // (4 * workers))) for run in batch_runs]
    errors = {str(ev.id): err for ev, (_, _, err) in zip(events, runs) if err is not None}
    if len(errors) == len(runs):
        raise EventRunsFailed(f"all {len(runs)} event runs failed; the first: {runs[0][2]}")
    return ({t: [estimates[i] for estimates, _, _ in runs] for i, t in enumerate(sim_times)},
            [pj for _, consumed, _ in runs for pj in consumed], errors)


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
    per_time, consumed, run_errors = run_events(graph, events, plan, workers, seed, sim_times_s)
    truths = sorted(events, key=lambda e: e.id)
    by_time = {f"{t:g}": _metric_block(estimates, truths, graph, point_error_correct_only)
               for t, estimates in per_time.items()}
    energy = {
        "mean_consumed_pj": _mean(consumed),
        "max_consumed_pj": max(consumed) if consumed else None,
    }
    return _build_report(per_time[max(per_time)], truths, graph, point_error_correct_only,
                         by_sim_time_s=by_time, energy_summary=energy,
                         config_fingerprint=config_fingerprint, run_errors=run_errors)


# ---------------------------------------------------------------------------
# convergence analysis over cached per-event results
# ---------------------------------------------------------------------------


def convergence_samples(dense: list[TargetEvent], strategy: str, sizes: list[int],
                        seed: int = 0) -> list[list[TargetEvent]]:
    """Per size, the subsample of dense that convergence_curve scores; no
    event run is needed to draw them (or to find a size a strategy cannot fill)."""
    return [sample_locations(dense, strategy, k, seed=_child_seed(seed, k)) for k in sizes]


def convergence_curve(dense_results: list[tuple[TargetEvent, RegionEstimate]],
                      strategy: str, sizes: list[int], seed: int = 0, *,
                      graph: VesselGraph,
                      samples: list[list[TargetEvent]] | None = None
                      ) -> list[tuple[int, float, float]]:
    """(k, region accuracy, mean point error) per subsample size.

    Resamples cached per-event results; no re-simulation happens here.  A
    subset without any estimate has a mean point error of NaN.  `samples`:
    convergence_samples(events, strategy, sizes, seed), if already drawn.
    """
    truths = [t for t, _ in dense_results]
    by_id = {t.id: est for t, est in dense_results}
    if samples is None:
        samples = convergence_samples(truths, strategy, sizes, seed)
    rows = []
    for k, subset in zip(sizes, samples):
        block = _metric_block([by_id[t.id] for t in subset], subset, graph,
                              correct_only=False)
        err = block["mean_point_error_cm"]
        rows.append((k, block["region_accuracy"], float("nan") if err is None else err))
    return rows


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------


def export_events_csv(events: list[TargetEvent], path: str) -> None:
    pos = np.array([ev.position for ev in events], dtype=float).reshape(-1, 3)
    write_csv(path, "event_id,x_cm,y_cm,z_cm,region_id,region_type",
              [([ev.id for ev in events], *pos.T, [ev.region_id for ev in events],
                [ev.region_type for ev in events])])


def load_estimates_csv(path: str) -> list[RegionEstimate]:
    """Estimates produced by an external localizer: event_id,estimated_region,x,y,z.

    An empty estimated_region means "no estimate"; empty coordinates with a
    region present mean centroid substitution at scoring time.  A file that
    cannot be read raises OSError; malformed content, ExternalDataError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise ExternalDataError(f"estimates file {path} is not UTF-8 text: {exc}") from exc
    if not lines:
        raise ExternalDataError(f"estimates file {path} is empty")
    header = lines[0].split(",")
    expected = ["event_id", "estimated_region", "x_cm", "y_cm", "z_cm"]
    if header != expected:
        raise ExternalDataError(
            f"estimates file {path} has header {header}, expected {expected}")
    out, first_line = [], {}
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
                if not np.isfinite(point).all():
                    raise ValueError("non-finite coordinates")
            elif any(coords):
                raise ValueError("partial coordinates")
            else:
                point = None
        except ValueError as exc:
            raise ExternalDataError(f"{path}:{ln_no}: malformed row ({exc})") from exc
        if first_line.setdefault(event_id, ln_no) != ln_no:
            raise ExternalDataError(f"{path}:{ln_no}: event {event_id} already estimated "
                                    f"on line {first_line[event_id]}")
        out.append(RegionEstimate(event_id=event_id, estimated_region=region, point=point))
    return out


def score_external(estimates: list[RegionEstimate], truths: list[TargetEvent],
                   graph: VesselGraph, config_fingerprint: str = "",
                   point_error_correct_only: bool = False) -> MetricsReport:
    """Score third-party estimates against sampled truths (no simulation).

    Events the external file does not mention count as having no estimate;
    an estimate for an event outside the sample is an error.
    """
    by_id = {e.event_id: e for e in estimates}
    extra = sorted(set(by_id) - {t.id for t in truths})
    if extra:
        raise ExternalDataError(f"{len(extra)} estimated event ids are not in the sample "
                                f"(first: {extra[:5]})")
    filled = [by_id.get(t.id, RegionEstimate(t.id, None, None)) for t in truths]
    known = {None} | {v.id for v in graph.vessels}   # None: no estimate
    for est in filled:
        if est.point is None and est.estimated_region not in known:
            raise ExternalDataError(f"event {est.event_id}: region {est.estimated_region} "
                                    f"is not in the graph and no coordinates are given")
    return _build_report(filled, truths, graph, point_error_correct_only,
                         by_sim_time_s={}, energy_summary={},
                         config_fingerprint=config_fingerprint, run_errors={})
