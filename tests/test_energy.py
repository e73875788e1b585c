"""Capacitor charging model: frozen oracles and seeded sweeps."""

import math
import sys
import threading
from bisect import bisect_left

import numpy as np
import pytest

from nanoflow import energy
from nanoflow.energy import (EnergyConfig, EnergyState, advance_harvest,
                             capacitance, cycle_index, energy_at_cycle,
                             try_consume, turn_on_latency_cycles)
from nanoflow.errors import EnergyOutOfRange

CFG = EnergyConfig()

# frozen oracle values for the default configuration
#   C    = 2 * 800e-12 / 0.42^2
#   tau  = V_g * C / dQ = 0.42 * C / 6e-12 cycles
#   E(1) = E_max * (1 - exp(-1/tau))^2
CAP_F = 9.070294784580499e-09
TAU_CYCLES = 634.9206349206349
E1_J = 1.9813765715942158e-15


def test_capacitance_frozen():
    assert capacitance(CFG) == pytest.approx(CAP_F, rel=1e-12)


def test_first_cycle_energy_frozen():
    assert energy_at_cycle(1, CFG) == pytest.approx(E1_J, rel=1e-9)


def test_energy_curve_shape():
    e_prev = 0.0
    for n in (0, 1, 2, 10, 100, 1000, 10000):
        e = energy_at_cycle(n, CFG)
        assert e >= e_prev
        assert e <= CFG.e_max
        e_prev = e
    # closed form cross-check at a few points
    for n in (1, 7, 634, 5000):
        filled = 1.0 - math.exp(-n / TAU_CYCLES)
        assert energy_at_cycle(n, CFG) == pytest.approx(CFG.e_max * filled**2, rel=1e-12)


def test_asymptote():
    assert energy_at_cycle(10**6, CFG) == pytest.approx(CFG.e_max, rel=1e-6)


def test_negative_cycle_rejected():
    with pytest.raises(EnergyOutOfRange):
        energy_at_cycle(-1, CFG)


def test_cycle_index_domain():
    with pytest.raises(EnergyOutOfRange):
        cycle_index(-1e-15, CFG)
    with pytest.raises(EnergyOutOfRange):
        cycle_index(CFG.e_max, CFG)
    assert cycle_index(0.0, CFG) == 0


def test_round_trip_on_representable_range():
    # exact inversion holds while consecutive grid energies stay distinct in
    # float64 (the curve flattens into ulp-spacing near n ~ 19000)
    for n in range(1, 15001, 7):
        assert cycle_index(energy_at_cycle(n, CFG), CFG) == n


def test_cycle_index_is_ceil_inverse():
    rng = np.random.default_rng(42)
    for e in rng.uniform(1e-16, CFG.e_max * 0.999, size=200):
        n = cycle_index(float(e), CFG)
        assert energy_at_cycle(n, CFG) >= e
        if n > 0:
            assert energy_at_cycle(n - 1, CFG) < e


def test_turn_on_latency_matches_scan():
    n = turn_on_latency_cycles(CFG)
    m = 0
    while energy_at_cycle(m, CFG) < CFG.e_turn_on:
        m += 1
    assert n == m == 76
    assert n * CFG.t_cycle == pytest.approx(1.52)


def test_turn_on_latency_edge_cases():
    # thresholds outside (turn_off, e_max] are rejected at construction
    with pytest.raises(ValueError):
        EnergyConfig(e_turn_on=0.0)
    with pytest.raises(ValueError):
        EnergyConfig(e_turn_on=1e-9)  # above e_max
    # a vanishing threshold powers on at the first harvested cycle
    assert turn_on_latency_cycles(EnergyConfig(e_turn_on=1e-18)) == 1


@pytest.mark.parametrize("field", ["v_g", "delta_q", "t_cycle", "e_max", "e_turn_on",
                                   "e_turn_off", "cost_tx_pulse", "cost_rx_pulse",
                                   "cost_sense"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_fields_are_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        EnergyConfig(**{field: value})


@pytest.mark.parametrize("fields", [{"v_g": 1e200}, {"v_g": 1e-170},
                                    {"v_g": 1e100, "e_max": 1e-300, "e_turn_on": 1e-301},
                                    {"v_g": 1e-160}, {"v_g": 1e-150, "delta_q": 1e-300}])
def test_a_curve_without_a_time_constant_is_rejected(fields):
    # v_g squared overflows or underflows, or the capacitance underflows to
    # 0: the charging curve would divide by zero.  Or the capacitance or the
    # time constant overflows to inf: every grid entry is 0 J and no device
    # ever powers on
    with pytest.raises(ValueError, match="^v_g must give, with delta_q and e_max, a positive "
                                         "finite charging time constant$"):
        EnergyConfig(**fields)


def test_harvest_only_at_whole_cycles():
    s = EnergyState()
    advance_harvest(s, CFG.t_cycle * 0.99, CFG)
    assert s.energy == 0.0
    advance_harvest(s, CFG.t_cycle * 0.02, CFG)  # crosses one boundary
    assert s.energy == pytest.approx(energy_at_cycle(1, CFG), rel=1e-12)


def test_harvest_accumulates_phase():
    a = EnergyState()
    for _ in range(1000):
        advance_harvest(a, CFG.t_cycle / 4, CFG)
    b = EnergyState()
    advance_harvest(b, 250 * CFG.t_cycle, CFG)
    assert a.energy == pytest.approx(b.energy, rel=1e-12)


def test_power_on_threshold():
    s = EnergyState()
    advance_harvest(s, 75 * CFG.t_cycle, CFG)
    assert not s.powered
    advance_harvest(s, CFG.t_cycle, CFG)  # 76th cycle crosses 10 pJ
    assert s.powered


def test_try_consume_contract():
    s = EnergyState()
    advance_harvest(s, 100 * CFG.t_cycle, CFG)
    assert s.powered
    start = s.energy
    assert try_consume(s, 1e-12, CFG) is not None
    assert s.energy == pytest.approx(start - 1e-12, rel=1e-12)
    # an unpowered device consumes nothing
    off = EnergyState()
    assert try_consume(off, 1e-15, CFG) is None
    assert off.energy == 0.0


def test_turn_off_hysteresis():
    cfg = EnergyConfig(e_turn_off=5e-12)
    s = EnergyState()
    advance_harvest(s, 100 * cfg.t_cycle, cfg)
    assert s.powered
    # drain just above the off threshold: stays on
    try_consume(s, s.energy - 6e-12, cfg)
    assert s.powered
    # drop to the threshold: powers off, and stays off below turn_on
    try_consume(s, 1.2e-12, cfg)
    assert not s.powered
    assert try_consume(s, 1e-15, cfg) is None


def test_consume_more_than_stored_fails():
    s = EnergyState()
    advance_harvest(s, 100 * CFG.t_cycle, CFG)
    before = s.energy
    assert try_consume(s, before * 2, CFG) is None
    assert s.energy == before  # no partial spend


def test_harvest_resumes_grid_after_consumption():
    # after a spend, continued harvesting walks the curve from the matching
    # cycle index rather than restarting from zero
    s = EnergyState()
    advance_harvest(s, 200 * CFG.t_cycle, CFG)
    try_consume(s, 3e-12, CFG)
    e_after = s.energy
    n_equiv = cycle_index(e_after, CFG)
    advance_harvest(s, CFG.t_cycle, CFG)
    assert s.energy == pytest.approx(energy_at_cycle(n_equiv + 1, CFG), rel=1e-9)


# ---- the charge grid behind advance_harvest ---------------------------------

GRID_CFGS = [CFG,
             EnergyConfig(v_g=0.5, delta_q=2e-11, e_max=300e-12, e_turn_on=20e-12),
             EnergyConfig(v_g=0.9, delta_q=1e-11, e_max=1200e-12, e_turn_on=50e-12,
                          cost_sense=3e-12)]


def test_default_grid_is_the_curve_up_to_saturation():
    grid = energy.charge_tables(CFG)[0]
    assert len(grid) == 23767
    assert list(grid) == [energy_at_cycle(n, CFG) for n in range(len(grid))]
    assert grid[-1] == CFG.e_max > grid[-2]


@pytest.mark.parametrize("cfg", GRID_CFGS, ids=["default", "small", "large"])
def test_bisect_on_grid_is_cycle_index(cfg):
    grid = energy.charge_tables(cfg)[0]
    assert grid[-1] == cfg.e_max
    assert all(a <= b for a, b in zip(grid, grid[1:]))
    mismatches = []
    for e in grid:
        for probe in (e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf),
                      e - cfg.cost_sense):
            if 0.0 <= probe < cfg.e_max and bisect_left(grid, probe) != cycle_index(probe, cfg):
                mismatches.append(probe)
    assert mismatches == []


@pytest.mark.parametrize("cfg", GRID_CFGS, ids=["default", "small", "large"])
def test_tables_are_bisects_of_the_grid(cfg):
    grid, low, drop = energy.charge_tables(cfg)
    assert len(low) == len(drop) == len(grid)
    assert list(low) == [bisect_left(grid, e) for e in grid]
    assert list(drop) == [bisect_left(grid, e - cfg.cost_sense) for e in grid]
    assert all(isinstance(i, int) for i in low + drop)
    # the same tables as read-only arrays, for the compiled scan
    arrays = energy.charge_arrays(cfg)
    assert [a.tolist() for a in arrays] == [list(grid), list(low), list(drop)]
    assert [a.dtype for a in arrays] == [np.float64, np.int64, np.int64]
    assert not any(a.flags.writeable for a in arrays)


def _scalar_grid(cfg, size):
    tau = energy._tau_cycles(cfg)
    return [energy._charge(n, tau, cfg.e_max).hex() for n in range(size)]


@pytest.mark.parametrize("cfg", GRID_CFGS, ids=["default", "small", "large"])
def test_grid_arrays_are_the_scalar_curve(cfg):
    # the grid is built in array passes; each entry must be _charge's own
    # float, math.expm1 included
    grid = energy.charge_tables(cfg)[0]
    assert [e.hex() for e in grid] == _scalar_grid(cfg, len(grid))


def test_a_grid_cut_short_is_the_scalar_curve(monkeypatch):
    cfg = EnergyConfig(v_g=0.44, delta_q=7e-12)   # a curve no other test uses
    monkeypatch.setattr(energy, "_GRID_LIMIT", 777)
    grid = energy.charge_tables(cfg)[0]
    assert len(grid) == 777 and grid[-1] < cfg.e_max
    assert [e.hex() for e in grid] == _scalar_grid(cfg, 777)


def _reference_advance(state, dt, cfg):
    # the closed-form step: energy_at_cycle(cycle_index(e) + cycles)
    total = state.phase + dt
    cycles = int(total / cfg.t_cycle)
    state.phase = total - cycles * cfg.t_cycle
    if cycles > 0 and state.energy < cfg.e_max:
        state.energy = energy_at_cycle(cycle_index(state.energy, cfg) + cycles, cfg)
    if not state.powered and state.energy >= cfg.e_turn_on:
        state.powered = True
    return state


def _same_steps(cfg, ops):
    fast, ref = EnergyState(), EnergyState()
    for op, x in ops:
        if op == "advance":
            advance_harvest(fast, x, cfg)
            _reference_advance(ref, x, cfg)
        elif op == "consume":
            assert (try_consume(fast, x, cfg) is None) == (try_consume(ref, x, cfg) is None)
        else:   # energy set directly, e.g. by a caller restoring a state
            fast.energy = ref.energy = x
        assert (fast.energy.hex(), fast.powered, fast.phase) == \
            (ref.energy.hex(), ref.powered, ref.phase), (op, x)


def test_grid_limit_falls_back_to_the_closed_form(monkeypatch):
    monkeypatch.setattr(energy, "_GRID_LIMIT", 50)
    cfg = EnergyConfig(v_g=0.41)   # a curve no other test uses
    ops = [("advance", 40 * cfg.t_cycle), ("advance", 30 * cfg.t_cycle),
           ("consume", 1e-12), ("set", energy_at_cycle(49, cfg)), ("advance", cfg.t_cycle),
           ("set", 500e-12), ("advance", 3 * cfg.t_cycle), ("set", 0.0),
           ("advance", 1e5 * cfg.t_cycle)]
    _same_steps(cfg, ops)
    assert len(energy.charge_tables(cfg)[0]) == 50


def test_a_grid_cut_short_is_not_served_to_another_limit(monkeypatch):
    cfg = EnergyConfig(v_g=0.42, delta_q=5e-12)   # a curve no other test uses
    monkeypatch.setattr(energy, "_GRID_LIMIT", 50)
    short = energy.charge_tables(cfg)
    monkeypatch.undo()
    grid, low, drop = energy.charge_tables(cfg)
    assert [len(t) for t in short] == [50, 50, 50]
    assert grid[:50] == short[0] and low[:50] == short[1]
    assert len(grid) > 50 and grid[-1] == cfg.e_max
    _same_steps(cfg, [("set", energy_at_cycle(49, cfg)), ("advance", 3 * cfg.t_cycle)])


def test_concurrent_first_use_gives_the_curve():
    cfg = EnergyConfig(v_g=0.43)   # a curve no other test uses
    start = threading.Barrier(8, timeout=60)
    ends = []

    def harvest():
        start.wait()
        s = EnergyState()
        for _ in range(3000):
            advance_harvest(s, cfg.t_cycle, cfg)
        ends.append(s.energy)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=harvest) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert ends == [energy_at_cycle(3000, cfg)] * 8
    grid = energy.charge_tables(cfg)[0]
    assert list(grid) == [energy_at_cycle(n, cfg) for n in range(len(grid))]
    assert grid[-1] == cfg.e_max > grid[-2]


def test_negative_energy_still_rejected_by_harvest():
    s = EnergyState(energy=-1e-15)
    with pytest.raises(EnergyOutOfRange):
        advance_harvest(s, CFG.t_cycle, CFG)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:   # hypothesis is a test extra
    pass
else:
    @st.composite
    def _configs_and_ops(draw):
        e_max = draw(st.floats(100e-12, 1000e-12))
        on = e_max * draw(st.floats(1e-3, 1.0))
        cfg = EnergyConfig(v_g=draw(st.floats(0.3, 0.9)), delta_q=draw(st.floats(3e-12, 3e-11)),
                           t_cycle=draw(st.floats(1e-3, 0.1)), e_max=e_max, e_turn_on=on,
                           e_turn_off=on * draw(st.floats(0.0, 0.9)))
        step = st.one_of(
            st.tuples(st.just("advance"), st.floats(0.0, 50.0) | st.floats(0.0, 3 * cfg.t_cycle)),
            st.tuples(st.just("consume"), st.floats(0.0, e_max / 10)),
            st.tuples(st.just("set"), st.floats(0.0, e_max)
                      | st.integers(0, 30000).map(lambda n: energy_at_cycle(n, cfg))))
        return cfg, draw(st.lists(step, max_size=40))

    @settings(max_examples=60, deadline=None)
    @given(_configs_and_ops())
    def test_advance_harvest_matches_closed_form(case):
        _same_steps(*case)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.2, 2.0), st.floats(1e-12, 1e-10), st.floats(10e-12, 2000e-12),
           st.sampled_from([None, 1, 300]))
    def test_drawn_grids_are_the_scalar_curve(v_g, delta_q, e_max, limit):
        cfg = EnergyConfig(v_g=v_g, delta_q=delta_q, e_max=e_max, e_turn_on=e_max / 2)
        with pytest.MonkeyPatch.context() as patch:
            if limit is not None:
                patch.setattr(energy, "_GRID_LIMIT", limit)
            grid = energy.charge_tables(cfg)[0]
        assert [e.hex() for e in grid] == _scalar_grid(cfg, len(grid))
