"""Vessel graph, mobility walks and trace upsampling."""

import dataclasses
import json
import re
from collections import Counter

import numpy as np
import pytest

from nanoflow import vasculature
from nanoflow.errors import EmptyTrace, InvalidGraph
from nanoflow.vasculature import (MobilityTrace, RegionType,
                                  Vessel, VesselGraph, Z_LIMIT,
                                  build_reference_vasculature,
                                  export_trace_csv, load_graph,
                                  locate_vessel, save_graph, simulate_mobility,
                                  upsample_trace, upsample_traces, validate_graph,
                                  vessel_centroid)

GRAPH = build_reference_vasculature()


def _point_at(v, arc_cm):
    # one vessel, one arc: the scalar placement VesselGraph.points_at must
    # reproduce bit for bit
    f = min(max(arc_cm / v.length, 0.0), 1.0)
    return v.start + f * (v.end - v.start)


# ---------------------------------------------------------------------------
# graph structure
# ---------------------------------------------------------------------------


def test_reference_graph_size_and_validity():
    assert len(GRAPH.vessels) == 94
    validate_graph(GRAPH)  # must not raise


def test_reference_graph_is_reproducible():
    again = build_reference_vasculature()
    for a, b in zip(GRAPH.vessels, again.vessels):
        assert a.id == b.id and a.speed_cm_s == b.speed_cm_s
        np.testing.assert_array_equal(a.start, b.start)
        np.testing.assert_array_equal(a.end, b.end)


def test_depth_band():
    for v in GRAPH.vessels:
        assert abs(v.start[2]) <= Z_LIMIT + 1e-9
        assert abs(v.end[2]) <= Z_LIMIT + 1e-9


def test_segments_connected():
    # each vessel's end coincides with every successor's start
    for v in GRAPH.vessels:
        assert v.successors, f"vessel {v.id} is a dead end"
        for s in v.successors:
            np.testing.assert_allclose(GRAPH.vessel(s).start, v.end, atol=1e-9)


def test_speeds_by_region_type():
    for v in GRAPH.vessels:
        if v.region_type == RegionType.ARTERIAL:
            assert v.speed_cm_s in (20.0, 10.0)
        elif v.region_type == RegionType.VENOUS:
            assert 2.0 <= v.speed_cm_s <= 4.0
        else:
            assert v.speed_cm_s == 1.0


def test_loop_time_envelope():
    loops = GRAPH.cycles_through_heart
    assert len(loops) >= 2
    times = [GRAPH.loop_time(c) for c in loops]
    assert min(times) > 5.0
    assert max(times) < 90.0


def test_validate_graph_rejects_broken_inputs():
    v = Vessel(0, np.zeros(3), np.array([1.0, 0, 0]), RegionType.ARTERIAL,
               20.0, [0], is_heart=True)
    lone = VesselGraph([v], heart_id=0)
    validate_graph(lone)  # self-loop through the heart is legal
    # each graph below is rejected when it is built, with no validate_graph call
    with pytest.raises(InvalidGraph, match="is_heart"):
        VesselGraph([v], heart_id=5)
    w = Vessel(0, np.zeros(3), np.zeros(3), RegionType.ARTERIAL, 20.0, [0],
               is_heart=True)
    with pytest.raises(InvalidGraph, match="zero length"):
        VesselGraph([w], heart_id=0)
    for bad in (np.nan, np.inf, -np.inf):
        u = Vessel(0, np.zeros(3), np.array([1.0, bad, 0]), RegionType.ARTERIAL, 20.0, [0],
                   is_heart=True)
        with pytest.raises(InvalidGraph, match="vessel 0 endpoint .* not three finite numbers"):
            VesselGraph([u], heart_id=0)
    t = Vessel(0, np.zeros(3), np.array([1.0, 0, 0]), 7, 20.0, [0], is_heart=True)
    with pytest.raises(InvalidGraph, match="vessel 0 has unknown region_type 7"):
        VesselGraph([t], heart_id=0)
    assert [f.name for f in dataclasses.fields(VesselGraph)] == ["vessels", "heart_id"]


def _heart(**changes):
    # a one-vessel graph's heart, a legal self-loop, with `changes` applied
    fields = dict(id=0, start=np.zeros(3), end=np.array([1.0, 0, 0]),
                  region_type=RegionType.ARTERIAL, speed_cm_s=20.0, successors=[0], is_heart=True)
    return Vessel(**{**fields, **changes})


def _parallel_layers(layers):
    # the heart, then `layers` pairs of parallel vessels, each pair feeding
    # both of the next: 2**layers heart cycles
    vessels = [_heart(successors=[1, 2])]
    for i in range(2 * layers):
        first_of_next = i - i % 2 + 3
        vessels.append(_heart(id=i + 1, is_heart=False, start=np.array([i, 0.0, 0]),
                              end=np.array([i + 1.0, 0, 0]),
                              successors=[0] if i >= 2 * layers - 2
                              else [first_of_next, first_of_next + 1]))
    return VesselGraph(vessels, heart_id=0)


def _graph_file(tmp_path, payload):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("build, message", [
    (lambda tmp: VesselGraph([], heart_id=0), "graph has no vessels"),
    (lambda tmp: VesselGraph([_heart(), _heart(is_heart=False)], heart_id=0),
     "duplicate vessel ids"),
    (lambda tmp: VesselGraph([_heart(successors=[])], heart_id=0), "vessel 0 has no successors"),
    (lambda tmp: VesselGraph([_heart(successors=[9])], heart_id=0),
     "vessel 0 lists unknown successor 9"),
    (lambda tmp: VesselGraph([_heart(end=np.array([1.0, 0, 2.5]))], heart_id=0),
     r"vessel 0 endpoint depth outside \[-2, 2\] cm"),
    (lambda tmp: VesselGraph([_heart(speed_cm_s=15.0)], heart_id=0),
     "vessel 0 speed 15.0 invalid for region_type 0"),
    (lambda tmp: VesselGraph([_heart(), _heart(id=1, is_heart=False)], heart_id=0),
     r"vessels not on any heart loop: \[1\]"),
    (lambda tmp: _parallel_layers(14).heart_loops, "more than 10000 heart cycles"),
    (lambda tmp: load_graph(_graph_file(tmp, [])),
     r"graph file .* must hold an object with a list 'vessels'"),
    (lambda tmp: load_graph(_graph_file(tmp, {"vessels": {}})),
     r"graph file .* must hold an object with a list 'vessels'"),
], ids=["no-vessels", "duplicate-ids", "no-successors", "unknown-successor", "depth",
        "speed", "stranded", "heart-cycle-cap", "file-not-an-object", "vessels-not-a-list"])
def test_each_graph_invariant_names_its_breach(tmp_path, build, message):
    with pytest.raises(InvalidGraph, match=message):
        build(tmp_path)


def test_cycle_cap_leaves_the_graph_usable():
    # the heart-loop analysis waits for its first use: a graph past the cap
    # still builds and walks
    graph = _parallel_layers(14)
    assert len(simulate_mobility(graph, 2, 30.0, seed=0)[0]) == 31


def test_graph_io_roundtrip(tmp_path):
    path = tmp_path / "graph.json"
    save_graph(GRAPH, str(path))
    back = load_graph(str(path))
    assert len(back.vessels) == len(GRAPH.vessels)
    assert back.heart_id == GRAPH.heart_id
    for a, b in zip(GRAPH.vessels, back.vessels):
        assert a.id == b.id and a.successors == b.successors
        assert a.speed_cm_s == pytest.approx(b.speed_cm_s, rel=1e-12)
        np.testing.assert_allclose(a.start, b.start, atol=1e-12)


def _edited_graph_file(tmp_path, edit):
    path = tmp_path / "graph.json"
    save_graph(GRAPH, str(path))
    raw = json.loads(path.read_text())
    edit(raw["vessels"])
    path.write_text(json.dumps(raw))   # NaN and inf as JSON's NaN / Infinity literals
    return str(path)


@pytest.mark.parametrize("edit, message", [
    (lambda vs: vs[3].pop("speed_cm_s"), r"vessels\[3\]\.speed_cm_s is required"),
    (lambda vs: vs[3].update(region_type=7), r"vessels\[3\]\.region_type: 7 is not a valid"),
    (lambda vs: vs[4].update(successors=["x"]), r"vessels\[4\]\.successors: invalid literal"),
    (lambda vs: vs.__setitem__(2, [0, 1]), r"vessels\[2\] must be an object"),
    (lambda vs: vs[5]["start"].__setitem__(0, float("nan")), "vessel 5 endpoint .* not three finite"),
    (lambda vs: vs[5]["end"].__setitem__(1, float("inf")), "vessel 5 endpoint .* not three finite"),
    (lambda vs: vs[5]["end"].pop(), "vessel 5 endpoint .* not three finite"),
    (lambda vs: vs[0].update(is_heart=False), "exactly one vessel must be flagged is_heart"),
    (lambda vs: vs[3].update(id=3.7), r"vessels\[3\]\.id: 3\.7 is not an integer"),
    (lambda vs: vs[3].update(id=float("inf")), r"vessels\[3\]\.id: cannot convert"),
    (lambda vs: vs[4].update(successors=[2.5]), r"vessels\[4\]\.successors: 2\.5 is not"),
    (lambda vs: vs[4].update(region_type=1.5), r"vessels\[4\]\.region_type: 1\.5 is not"),
    (lambda vs: vs[4].update(region_type=True), r"vessels\[4\]\.region_type: True is not"),
    (lambda vs: vs[5].update(is_heart="no"), r"vessels\[5\]\.is_heart: 'no' is not a boolean"),
], ids=["missing-key", "bad-region-type", "bad-successor", "entry-not-object", "nan-start",
        "inf-end", "two-coordinates", "no-heart", "fractional-id", "infinite-id",
        "fractional-successor", "fractional-region-type", "boolean-region-type",
        "string-is-heart"])
def test_load_graph_names_the_bad_entry(tmp_path, edit, message):
    with pytest.raises(InvalidGraph, match=message):
        load_graph(_edited_graph_file(tmp_path, edit))


# ---------------------------------------------------------------------------
# locate_vessel
# ---------------------------------------------------------------------------


def brute_force_locate(graph, p):
    best = (np.inf, None)
    for v in graph.vessels:
        d = v.end - v.start
        t = float(np.clip(np.dot(p - v.start, d) / np.dot(d, d), 0.0, 1.0))
        q = v.start + t * d
        dist = float(np.linalg.norm(q - p))
        if dist < best[0] - 1e-12 or (abs(dist - best[0]) <= 1e-12 and v.id < best[1]):
            best = (dist, v.id)
    return best[1]


def test_locate_vessel_matches_brute_force():
    rng = np.random.default_rng(11)
    pts = rng.uniform([-30, -50, -2], [30, 50, 2], size=(300, 3))
    for p in pts:
        assert locate_vessel(GRAPH, p) == brute_force_locate(GRAPH, p)


def test_locate_vessel_on_segment_points():
    rng = np.random.default_rng(12)
    for v in GRAPH.vessels:
        arc = float(rng.uniform(0.05, 0.95)) * v.length
        p = _point_at(v, arc)
        found = locate_vessel(GRAPH, p)
        # interior points belong to their own vessel except exactly at
        # junction-grade overlaps, which the arc range above avoids
        assert found == v.id or np.linalg.norm(
            p - _point_at(GRAPH.vessel(found), 0)) < 1e-9


def _reference_locate(graph, p):
    # one point at a time, as locate_vessel did before it took many
    ids, starts, ends = graph.segment_arrays
    d = ends - starts
    seg_len2 = np.einsum("ij,ij->i", d, d)
    t = np.clip(np.einsum("ij,ij->i", p[None, :] - starts, d) / seg_len2, 0.0, 1.0)
    nearest = starts + t[:, None] * d
    dist2 = np.einsum("ij,ij->i", nearest - p[None, :], nearest - p[None, :])
    return int(ids[np.lexsort((ids, dist2))[0]])


def test_locate_vessel_takes_many_points_in_one_call():
    rng = np.random.default_rng(13)
    ends = np.array([v.end for v in GRAPH.vessels])
    mids = np.array([_point_at(v, 0.5 * v.length) for v in GRAPH.vessels])
    pts = np.concatenate([rng.uniform([-40, -90, -3], [40, 50, 3], size=(700, 3)), ends, mids])
    found = locate_vessel(GRAPH, pts)
    assert found.shape == (len(pts),)
    assert found.tolist() == [_reference_locate(GRAPH, p) for p in pts]
    assert found.tolist() == [locate_vessel(GRAPH, p) for p in pts]
    assert locate_vessel(GRAPH, pts[:0]).shape == (0,)


def test_locate_vessel_ties_go_to_the_lowest_id_not_the_first_row():
    # two vessels meeting at the origin, listed with the higher id first
    a = Vessel(9, np.array([-3.0, 0, 0]), np.zeros(3), RegionType.ARTERIAL, 20.0, [4], True)
    b = Vessel(4, np.zeros(3), np.array([0, 3.0, 0]), RegionType.ARTERIAL, 20.0, [9])
    graph = VesselGraph([a, b], heart_id=9)
    assert locate_vessel(graph, np.zeros(3)) == 4
    assert locate_vessel(graph, np.zeros((3, 3))).tolist() == [4, 4, 4]
    assert locate_vessel(graph, [[-1.0, 0, 0], [0, 1.0, 0]]).tolist() == [9, 4]


def test_locate_vessel_rejects_non_finite_points():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="position must be finite"):
            locate_vessel(GRAPH, [bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="position must be finite"):
            locate_vessel(GRAPH, np.array([[0.0, 0.0, 0.0], [0.0, bad, 0.0]]))


def test_locate_vessel_takes_only_one_point_or_rows_of_three():
    for position, shape in [([[0, 14, 1, 0, -14, 1]], (1, 6)), (np.zeros((2, 2, 3)), (2, 2, 3)),
                            ([], (0,)), ([0.0, 14.0], (2,)), (0.0, ()),
                            (np.zeros((3, 0)), (3, 0))]:
        with pytest.raises(ValueError, match=re.escape(
                f"position must have shape (3,) or (n, 3), got {shape}")):
            locate_vessel(GRAPH, position)
    assert locate_vessel(GRAPH, [0.0, 14.0, 1.0]) == locate_vessel(GRAPH, [[0.0, 14.0, 1.0]])[0]
    assert locate_vessel(GRAPH, np.zeros((0, 3))).shape == (0,)


def test_vessel_centroid():
    v = GRAPH.vessel(GRAPH.heart_id)
    np.testing.assert_allclose(vessel_centroid(GRAPH, v.id), (v.start + v.end) / 2)


# ---------------------------------------------------------------------------
# mobility
# ---------------------------------------------------------------------------


def test_mobility_deterministic():
    a = simulate_mobility(GRAPH, 3, 120.0, seed=5)
    b = simulate_mobility(GRAPH, 3, 120.0, seed=5)
    for ta, tb in zip(a, b):
        np.testing.assert_array_equal(ta.positions, tb.positions)
        np.testing.assert_array_equal(ta.vessel_ids, tb.vessel_ids)
    c = simulate_mobility(GRAPH, 3, 120.0, seed=6)[0]
    assert not np.array_equal(a[0].positions, c.positions)


def _reference_mobility(graph, device_count, duration_s, seed):
    # the walk as it was: one _point_at per sample
    rng = np.random.default_rng(seed)
    n = int(round(duration_s)) + 1
    out = []
    for _ in range(device_count):
        pos = np.empty((n, 3))
        vids = np.empty(n, dtype=int)
        v = graph.vessel(graph.heart_id)
        arc = 0.0
        pos[0], vids[0] = _point_at(v, 0.0), v.id
        for i in range(1, n):
            remaining = 1.0
            while remaining > 0:
                t_exit = (v.length - arc) / v.speed_cm_s
                if t_exit > remaining:
                    arc += v.speed_cm_s * remaining
                    remaining = 0.0
                else:
                    remaining -= t_exit
                    succ = v.successors
                    nxt = succ[0] if len(succ) == 1 else succ[int(rng.integers(len(succ)))]
                    v = graph.vessel(nxt)
                    arc = 0.0
            pos[i], vids[i] = _point_at(v, arc), v.id
        out.append((pos, vids))
    return out


def _relabelled(graph, relabel):
    # the same anatomy under other vessel ids, listed in the same order
    vessels = [Vessel(relabel(v.id), v.start.copy(), v.end.copy(), v.region_type, v.speed_cm_s,
                      [relabel(s) for s in v.successors], v.is_heart) for v in graph.vessels]
    return VesselGraph(vessels, heart_id=relabel(graph.heart_id))


@pytest.mark.parametrize("graph", [GRAPH, _relabelled(GRAPH, lambda i: 1000 - 7 * i)],
                         ids=["reference", "relabelled"])
@pytest.mark.parametrize("seed, duration", [(0, 300.0), (5, 61.4), (17, 99.6), (2024, 12.5)])
def test_mobility_positions_are_point_at_bit_for_bit(graph, seed, duration):
    traces = simulate_mobility(graph, 3, duration, seed=seed)
    for tr, (pos, vids) in zip(traces, _reference_mobility(graph, 3, duration, seed)):
        assert tr.positions.dtype == pos.dtype and tr.positions.tobytes() == pos.tobytes()
        assert tr.vessel_ids.tolist() == vids.tolist()
        assert tr.times.tolist() == list(map(float, range(len(pos))))


def test_mobility_sampling_grid():
    tr = simulate_mobility(GRAPH, 1, 60.0, seed=1)[0]
    assert len(tr.times) == 61
    np.testing.assert_allclose(np.diff(tr.times), 1.0, atol=1e-12)
    assert tr.duration_s == pytest.approx(60.0)


def test_mobility_step_length_bounded():
    # between consecutive 1 Hz samples a device travels at most max-speed * dt
    traces = simulate_mobility(GRAPH, 4, 300.0, seed=9)
    vmax = max(v.speed_cm_s for v in GRAPH.vessels)
    for tr in traces:
        steps = np.linalg.norm(np.diff(tr.positions, axis=0), axis=1)
        assert steps.max() <= vmax * 1.0 + 1e-6


def test_mobility_positions_lie_on_graph():
    tr = simulate_mobility(GRAPH, 1, 200.0, seed=3)[0]
    ids, starts, ends = GRAPH.segment_arrays
    for p in tr.positions[::10]:
        vid = locate_vessel(GRAPH, p)
        v = GRAPH.vessel(vid)
        d = v.end - v.start
        t = np.clip(np.dot(p - v.start, d) / np.dot(d, d), 0, 1)
        assert np.linalg.norm(v.start + t * d - p) < 1e-6


def test_visit_schedule_consistent_with_samples():
    tr = simulate_mobility(GRAPH, 1, 150.0, seed=21)[0]
    assert np.all(np.diff(tr.visit_times) > 0)
    # the sampled vessel id at time t equals the scheduled vessel
    for i in range(0, len(tr.times), 7):
        t = tr.times[i]
        k = np.searchsorted(tr.visit_times, t, side="right") - 1
        if k >= 0:
            assert tr.vessel_ids[i] == tr.visit_vessels[k]


def test_heart_entries_uses_schedule():
    # heart entries come from the visit schedule: a heart crossing can fit
    # between two samples
    tr = simulate_mobility(GRAPH, 1, 400.0, seed=2)[0]
    entries = tr.visit_times[tr.visit_vessels == GRAPH.heart_id]
    # passages repeat on loop timescales: gaps within the loop-time envelope
    gaps = np.diff(entries)
    assert len(gaps) >= 3
    assert gaps.min() > 5.0
    assert gaps.max() < 90.0


# ---------------------------------------------------------------------------
# per-vessel tables, against test-local copies of the lazy tables they replaced
# ---------------------------------------------------------------------------


def _old_loop_representatives(graph):
    loops = graph.cycles_through_heart
    times = tuple(graph.loop_time(c) for c in loops)
    membership = Counter(vid for cycle in loops for vid in cycle)
    reps = []
    for cycle in loops:
        unique = [vid for vid in cycle if membership[vid] == 1]
        pool = unique if unique else list(cycle)
        dwell = {vid: graph.loop_time((vid,)) for vid in pool}
        best = max(dwell.values())
        reps.append(min(vid for vid, d in dwell.items() if d == best))
    return times, tuple(reps)


def _old_velocities(graph):
    # the guarded division: a zero-length vessel would get zero velocity
    _, starts, ends = graph.segment_arrays
    lengths, deltas = np.array([v.length for v in graph.vessels]), ends - starts
    direction = np.divide(deltas, lengths[:, None], out=starts * 0.0,
                          where=lengths[:, None] > 0)
    return direction * np.array([v.speed_cm_s for v in graph.vessels], dtype=float)[:, None]


def _old_rows_of(graph, vessel_ids):
    ids = graph.segment_arrays[0]
    order = np.argsort(ids, kind="stable")
    rows = order[np.minimum(np.searchsorted(ids, vessel_ids, sorter=order), len(ids) - 1)]
    assert np.array_equal(ids[rows], vessel_ids)
    return rows


def _random_graph(seed):
    # the reference topology under distinct unsorted ids, in shuffled list
    # order, with jittered end points and redrawn vein speeds
    rng = np.random.default_rng(seed)
    relabel = dict(zip((v.id for v in GRAPH.vessels),
                       rng.permutation(10 * len(GRAPH.vessels)).tolist()))

    def jitter(p):
        q = p + rng.uniform(-0.5, 0.5, 3)
        q[2] = min(max(q[2], -Z_LIMIT), Z_LIMIT)
        return q
    vessels = [Vessel(relabel[v.id], jitter(v.start), jitter(v.end), v.region_type,
                      rng.uniform(2.0, 4.0) if v.region_type == RegionType.VENOUS
                      else v.speed_cm_s, [relabel[s] for s in v.successors], v.is_heart)
               for v in GRAPH.vessels]
    return VesselGraph([vessels[i] for i in rng.permutation(len(vessels))],
                       heart_id=relabel[GRAPH.heart_id])


@pytest.mark.parametrize("graph", [GRAPH, _random_graph(7)], ids=["reference", "random"])
def test_tables_equal_the_lazy_tables_bit_for_bit(graph):
    assert graph.heart_loops == _old_loop_representatives(graph)
    velocities, heart = graph.motion_arrays
    old = _old_velocities(graph)
    assert velocities.dtype == old.dtype and velocities.tobytes() == old.tobytes()
    assert heart.tolist() == [v.is_heart for v in graph.vessels]
    ids = graph.segment_arrays[0]
    visits = np.concatenate([tr.visit_vessels for tr in simulate_mobility(graph, 4, 300.0, 3)])
    for query in (visits, ids[::-1], ids[:0]):
        assert graph.rows_of(query).tolist() == _old_rows_of(graph, query).tolist()


def test_rows_of_raises_key_error_for_an_unknown_id():
    with pytest.raises(KeyError):
        GRAPH.rows_of(np.array([0, 5, 94]))
    assert GRAPH.vessel(5) is GRAPH.vessels[5]
    with pytest.raises(KeyError):
        GRAPH.vessel(94)


# ---------------------------------------------------------------------------
# upsampling
# ---------------------------------------------------------------------------


def test_upsample_zero_sigma_is_exact_interpolation():
    tr = simulate_mobility(GRAPH, 1, 90.0, seed=4)[0]
    up = upsample_trace(tr, 3, 0.0, 0)
    assert len(up.times) == (len(tr.times) - 1) * 3 + 1
    worst = 0.0
    for i in range(len(tr.times) - 1):
        p0, p1 = tr.positions[i], tr.positions[i + 1]
        for j in range(3):
            expect = p0 + (j / 3.0) * (p1 - p0)
            got = up.positions[i * 3 + j]
            worst = max(worst, float(np.abs(got - expect).max()))
    assert worst == 0.0


def test_upsample_preserves_originals_bit_exact():
    tr = simulate_mobility(GRAPH, 1, 60.0, seed=8)[0]
    up = upsample_trace(tr, 3, 0.5, 77)
    np.testing.assert_array_equal(up.positions[::3], tr.positions)
    np.testing.assert_array_equal(up.times[::3], tr.times)
    np.testing.assert_array_equal(up.vessel_ids[::3], tr.vessel_ids)


def test_upsample_jitter_statistics():
    # per-axis std of the inserted-point deviations approaches sigma
    tr = simulate_mobility(GRAPH, 1, 2000.0, seed=13)[0]
    sigma = 0.1
    up = upsample_trace(tr, 3, sigma, 5)
    devs = []
    for i in range(len(tr.times) - 1):
        p0, p1 = tr.positions[i], tr.positions[i + 1]
        for j in (1, 2):
            expect = p0 + (j / 3.0) * (p1 - p0)
            devs.append(up.positions[i * 3 + j] - expect)
    devs = np.asarray(devs)
    assert devs.shape[0] >= 3000
    for axis in range(3):
        assert np.std(devs[:, axis]) == pytest.approx(sigma, rel=0.05)


def test_upsample_deterministic_per_seed():
    tr = simulate_mobility(GRAPH, 1, 50.0, seed=1)[0]
    u1 = upsample_trace(tr, 3, 0.2, 9)
    u2 = upsample_trace(tr, 3, 0.2, 9)
    np.testing.assert_array_equal(u1.positions, u2.positions)
    u3 = upsample_trace(tr, 3, 0.2, 10)
    assert not np.array_equal(u1.positions, u3.positions)


def test_upsample_carries_visit_schedule():
    for factor, duration in [(3, 50.0), (1, 50.0), (3, 0.0), (1, 0.0)]:
        tr = simulate_mobility(GRAPH, 1, duration, seed=1)[0]
        up = upsample_trace(tr, factor, 0.2, 9)
        np.testing.assert_array_equal(up.visit_times, tr.visit_times)
        np.testing.assert_array_equal(up.visit_vessels, tr.visit_vessels)
        assert not np.shares_memory(up.visit_times, tr.visit_times)
        assert not np.shares_memory(up.visit_vessels, tr.visit_vessels)
        if factor == 1 or len(tr) == 1:   # nothing to insert: the input comes back, copied
            for got, given in [(up.times, tr.times), (up.positions, tr.positions),
                               (up.vessel_ids, tr.vessel_ids)]:
                assert got.dtype == given.dtype and got.tobytes() == given.tobytes()
                assert not np.shares_memory(got, given)


def _strided_upsample(trace, factor, sigma_cm, seed):
    """upsample_trace as it filled its output before the interleave rewrite:
    preallocated arrays, one strided write per offset in the interval."""
    N = int(factor)
    rng = np.random.default_rng(seed)
    p0 = trace.positions[:-1]
    delta = trace.positions[1:] - p0
    fracs = (np.arange(1, N) / N)[None, :, None]
    inserted = p0[:, None, :] + fracs * delta[:, None, :]
    if sigma_cm > 0:
        inserted = inserted + rng.normal(0.0, sigma_cm, size=inserted.shape)
    total = len(p0) * N + 1
    positions = np.empty((total, 3))
    positions[::N] = trace.positions
    times = np.empty(total)
    times[::N] = trace.times
    vids = np.empty(total, dtype=int)
    vids[::N] = trace.vessel_ids
    dt = trace.times[1:] - trace.times[:-1]
    sub_times = trace.times[:-1, None] + (np.arange(1, N) / N)[None, :] * dt[:, None]
    for j in range(1, N):
        positions[j::N] = inserted[:, j - 1, :]
        times[j::N] = sub_times[:, j - 1]
        vids[j::N] = trace.vessel_ids[:-1]
    return times, positions, vids


@pytest.mark.parametrize("duration", [0.0, 1.0, 30.0])   # 1, 2 and 31 samples
def test_upsample_matches_the_strided_loop_bit_for_bit(duration):
    tr = simulate_mobility(GRAPH, 1, duration, seed=6)[0]
    assert len(tr) == int(duration) + 1
    for factor in range(1, 6):
        for sigma in (0.0, 0.2):
            up = upsample_trace(tr, factor, sigma, 11)
            for got, want in zip((up.times, up.positions, up.vessel_ids),
                                 _strided_upsample(tr, factor, sigma, 11)):
                assert got.dtype == want.dtype and got.shape == want.shape, (factor, sigma)
                assert got.tobytes() == want.tobytes(), (factor, sigma)


_FIELDS = ("times", "positions", "vessel_ids", "visit_times", "visit_vessels")


@pytest.mark.parametrize("rows", [1 << 15, 70])   # one pass, and a pass per two 31-sample traces
def test_upsample_traces_is_the_strided_loop_per_trace(monkeypatch, rows):
    monkeypatch.setattr(vasculature, "_UPSAMPLE_ROWS", rows)
    for duration, count in [(0.0, 3), (1.0, 2), (30.0, 5)]:   # 1, 2 and 31 samples
        traces = [tr for seed in (6, 91) for tr in simulate_mobility(GRAPH, count, duration, seed)]
        seeds = [7 * i + 3 for i in range(len(traces))]
        for factor in (1, 3, 6):
            for sigma in (0.0, 0.2):
                ups = upsample_traces(traces, factor, sigma, seeds)
                assert len(ups) == len(traces)
                for tr, up, seed in zip(traces, ups, seeds):
                    assert up.device_id == tr.device_id
                    for got, want in zip((up.times, up.positions, up.vessel_ids),
                                         _strided_upsample(tr, factor, sigma, seed)):
                        assert got.dtype == want.dtype and got.shape == want.shape
                        assert got.tobytes() == want.tobytes(), (duration, factor, sigma)
                    for name in _FIELDS[3:]:
                        assert getattr(up, name).tobytes() == getattr(tr, name).tobytes()


def test_upsampled_traces_own_their_arrays(monkeypatch):
    # a pass fills one output block for several traces: writing to one
    # trace's arrays must not reach another trace, or the input traces
    monkeypatch.setattr(vasculature, "_UPSAMPLE_ROWS", 100)   # passes of three traces
    traces = simulate_mobility(GRAPH, 5, 30.0, seed=2)
    ups = upsample_traces(traces, 3, 0.2, list(range(5)))
    saved = [[getattr(tr, name).copy() for name in _FIELDS] for tr in traces + ups]
    for i, up in enumerate(ups):   # each in turn: the inputs and the ones after it keep theirs
        for name in _FIELDS:
            getattr(up, name)[...] = -1
        for tr, arrays in [*zip(traces, saved), *zip(ups[i + 1:], saved[5 + i + 1:])]:
            for name, before in zip(_FIELDS, arrays):
                assert getattr(tr, name).tobytes() == before.tobytes(), (i, name)
    for a in traces + ups:
        for b in traces + ups:
            for name in _FIELDS:
                assert a is b or not np.shares_memory(getattr(a, name), getattr(b, name))


def test_upsample_traces_refuses_mismatched_inputs():
    traces = simulate_mobility(GRAPH, 2, 10.0, seed=1) + simulate_mobility(GRAPH, 1, 11.0, 1)
    with pytest.raises(ValueError, match="one length"):
        upsample_traces(traces, 3, 0.2, [0, 1, 2])
    with pytest.raises(ValueError, match="2 seeds for 3 traces"):
        upsample_traces(traces, 3, 0.2, [0, 1])
    assert upsample_traces([], 3, 0.2, []) == []
    # arrays of a trace that disagree in length, which a pass must not read past
    tr = traces[0]
    for short in [MobilityTrace(0, tr.times, tr.positions[:5], tr.vessel_ids, tr.visit_times,
                                tr.visit_vessels),
                  MobilityTrace(0, tr.times, tr.positions, tr.vessel_ids[:5], tr.visit_times,
                                tr.visit_vessels)]:
        with pytest.raises(ValueError, match="cannot reshape"):
            upsample_traces([short], 3, 0.2, [0])


def test_upsample_rejects_empty_trace():
    empty = MobilityTrace(device_id=0, times=np.array([]),
                          positions=np.zeros((0, 3)), vessel_ids=np.array([]),
                          visit_times=np.array([]), visit_vessels=np.array([]))
    with pytest.raises(EmptyTrace):
        upsample_trace(empty, 3, 0.2, 0)
    # and arguments it cannot honour, rather than truncating the factor or
    # skipping the jitter
    tr = simulate_mobility(GRAPH, 1, 10.0, seed=1)[0]
    for factor, sigma, named in [(0, 0.2, "factor"), (2.5, 0.2, "factor"),
                                 (3, -0.1, "sigma_cm"), (3, float("nan"), "sigma_cm")]:
        with pytest.raises(ValueError, match=f"upsample {named} must be"):
            upsample_trace(tr, factor, sigma, 0)


def _reference_trace_csv(traces, path):
    # the row-by-row writer export_trace_csv replaced
    with open(path, "w") as fh:
        fh.write("time_s,device_id,x_cm,y_cm,z_cm,vessel_id\n")
        for tr in traces:
            for t, p, vid in zip(tr.times, tr.positions, tr.vessel_ids):
                fh.write(f"{t:.6f},{tr.device_id},{p[0]:.6f},{p[1]:.6f},"
                         f"{p[2]:.6f},{int(vid)}\n")


def test_trace_csv_bytes_match_the_row_by_row_writer(tmp_path):
    traces = [upsample_trace(tr, 3, 0.2, tr.device_id)
              for tr in simulate_mobility(GRAPH, 3, 40.0, seed=2)]
    awkward = np.array([[-0.0, 1e-7, -1e-7], [5e-7, -5e-7, 2.5e-6], [1e9 / 3, -123456.7890125, 0.1],
                        [np.nextafter(0.5e-6, 1), 1.0000005, -2.0000005]])
    times = np.array([0.0, 1 / 3, 2 / 3, 1e6 + 1 / 7])
    traces.append(MobilityTrace(17, times, awkward, np.array([0.0, 93.0, 12.0, 40.0]),   # ids
                                times, np.array([0, 93, 12, 40])))   # written as ints
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    export_trace_csv(traces, str(got))
    _reference_trace_csv(traces, str(want))
    assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().count(b"\n") == 1 + 3 * 121 + 4


def test_trace_csv_format(tmp_path):
    tr = simulate_mobility(GRAPH, 2, 5.0, seed=0)
    path = tmp_path / "trace.csv"
    export_trace_csv(tr, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,device_id,x_cm,y_cm,z_cm,vessel_id"
    assert len(lines) == 1 + 2 * 6
    first = lines[1].split(",")
    assert first[0] == "0.000000" and first[1] == "0"
    assert all(len(f.split(".")[1]) == 6 for f in first[2:5])
