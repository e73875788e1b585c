"""Capacitor energy harvesting with ON/OFF hysteresis for nanodevices.

The storage capacitor is sized from the target capacity and operating
voltage, C = 2*E_max / V_g^2, and charges along the usual exponential law
sampled at whole harvesting cycles: after n cycles of one charge packet
delta_q each,

    E(n) = (C * V_g^2 / 2) * (1 - exp(-delta_q * n / (V_g * C)))^2

cycle_index() is the inverse mapping rounded up to the cycle grid.  Energy
only accrues at whole-cycle boundaries; a device turns ON when the stored
energy first reaches e_turn_on and OFF once consumption drags it to
e_turn_off or below.

advance_harvest() walks the curve as energy_at_cycle(cycle_index(E) + k),
but reads both steps off a charge grid: E(0), E(1), ... up to the first
entry equal to e_max, built whole in arrays with energy_at_cycle's own
operations once per process for each curve, and never changed.  The grid is
non-decreasing, so bisect_left(grid, E) is by definition the smallest m
with E(m) >= E, which is what cycle_index() returns: the lookup is exact,
not an approximation of the inverse.  It does not lift the float64 limit
of the inverse either: where the curve is flat to the last bit (n ~ 19000
under the default config), a grid energy still maps back to the first of
its equal neighbours, as cycle_index() does.  A grid stops at _GRID_LIMIT
entries, and the closed form takes over past them.  energy_after() takes
these steps and also returns the grid index it lands on.

The simulation engine's scan walks by that index, with two index tables
built with the grid (charge_tables()): a harvest from a grid entry, or from
one less a paid sense tick, is a gather.  The tables are built once per
process for each curve and sensing cost, in one cache entry keyed by
numbers, so a run fetches them in O(1): as read-only arrays for compiled
code (charge_arrays()), or as tuples for a Python loop (charge_tables(),
made from the arrays at its first call).
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import EnergyOutOfRange, require


@dataclass
class EnergyConfig:
    v_g: float = 0.42            # V, operating voltage
    delta_q: float = 6e-12       # C, charge gained per harvesting cycle
    t_cycle: float = 0.02        # s, harvesting cycle duration
    e_max: float = 800e-12       # J, storage capacity
    e_turn_on: float = 10e-12    # J, hysteresis upper threshold
    e_turn_off: float = 0.0      # J, hysteresis lower threshold
    cost_tx_pulse: float = 1e-12   # J per transmitted pulse
    cost_rx_pulse: float = 0.0     # J per received pulse
    cost_sense: float = 1e-12      # J per sensing task

    def __post_init__(self):
        for name, value in vars(self).items():
            require(math.isfinite(value), name, "must be finite")
        for name in ("v_g", "delta_q", "t_cycle", "e_max"):
            require(getattr(self, name) > 0, name, "must be positive")
        for name in ("e_turn_off", "cost_tx_pulse", "cost_rx_pulse", "cost_sense"):
            require(getattr(self, name) >= 0, name, "must be >= 0")
        require(self.e_turn_off < self.e_turn_on <= self.e_max, "e_turn_on",
                "must lie above e_turn_off and at most e_max")
        require(self.v_g * self.v_g > 0 and 0 < _tau_cycles(self) < math.inf, "v_g",
                "must give, with delta_q and e_max, a positive finite charging time constant")


@dataclass
class EnergyState:
    energy: float = 0.0    # J currently stored
    powered: bool = False
    phase: float = 0.0     # s into the current harvesting cycle


def capacitance(cfg: EnergyConfig) -> float:
    """Capacitor size in farads for the configured capacity and voltage."""
    return 2.0 * cfg.e_max / (cfg.v_g * cfg.v_g)


def _tau_cycles(cfg: EnergyConfig) -> float:
    # charging time constant expressed in harvesting cycles
    return cfg.v_g * capacitance(cfg) / cfg.delta_q


def energy_at_cycle(n: int, cfg: EnergyConfig) -> float:
    """Stored energy in joules after n whole harvesting cycles from empty."""
    if n < 0:
        raise EnergyOutOfRange(f"cycle index must be >= 0, got {n}")
    return _charge(n, _tau_cycles(cfg), cfg.e_max)


def _charge(n: int, tau: float, e_max: float) -> float:
    # -expm1 keeps precision for both tiny and huge n
    filled = -math.expm1(-n / tau)
    return min(e_max * filled * filled, e_max)


def cycle_index(energy: float, cfg: EnergyConfig) -> int:
    """Smallest whole cycle count m with energy_at_cycle(m) >= energy.

    This is the ceil-inverse of energy_at_cycle evaluated on the exact cycle
    grid, so round-tripping a grid energy returns its cycle index for as long
    as consecutive grid energies remain distinct in float64 (n up to ~19000
    under the default config; beyond that the charging curve is flat to the
    last bit and no inverse can exist).
    """
    if not (0.0 <= energy < cfg.e_max):
        raise EnergyOutOfRange(
            f"energy must lie in [0, e_max); got {energy!r} with e_max {cfg.e_max!r}")
    if energy == 0.0:
        return 0
    tau = _tau_cycles(cfg)
    # analytic inverse with a downward guard, then snap onto the grid
    n = math.ceil(-tau * math.log1p(-math.sqrt(energy / cfg.e_max)) - 1e-9)
    n = max(n, 0)
    while energy_at_cycle(n, cfg) < energy:
        n += 1
    while n > 0 and energy_at_cycle(n - 1, cfg) >= energy:
        n -= 1
    return n


def turn_on_latency_cycles(cfg: EnergyConfig) -> int:
    """First whole cycle at which a device charging from empty powers on: the
    least n with energy_at_cycle(n) >= e_turn_on, which may be e_max."""
    return bisect_left(range(1 << 62), cfg.e_turn_on, key=lambda n: energy_at_cycle(n, cfg))


_GRID_LIMIT = 1 << 17   # entries per charge grid; 23,767 reach e_max by default


def charge_tables(cfg: EnergyConfig) -> tuple[tuple, tuple, tuple]:
    """(grid, low, drop) of cfg's curve, built whole once per process:
    grid = E(0), E(1), ... up to the first entry equal to e_max (at most
    _GRID_LIMIT entries), low[n] = bisect_left(grid, grid[n]) and drop[n] =
    bisect_left(grid, grid[n] - cost_sense).  A harvest of c cycles from
    grid[n] lands on grid[low[n] + c], and from grid[n] - cost_sense on
    grid[drop[n] + c], as energy_after() does, while that index is in grid."""
    return _tables(cfg).tuples


def charge_arrays(cfg: EnergyConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """charge_tables(cfg) as read-only arrays (float64 grid, int64 low and
    drop), from the same cache entry."""
    return _tables(cfg).arrays


def _tables(cfg: EnergyConfig) -> _Tables:
    return _charge_tables(_tau_cycles(cfg), cfg.e_max, cfg.cost_sense, _GRID_LIMIT)


class _Tables:
    """One cache entry: the tables as arrays, and as tuples once asked for."""

    def __init__(self, arrays: tuple):
        self.arrays = arrays

    @functools.cached_property
    def tuples(self) -> tuple[tuple, tuple, tuple]:
        return tuple(tuple(array.tolist()) for array in self.arrays)


@functools.lru_cache(maxsize=8)
def _charge_tables(tau: float, e_max: float, cost_sense: float, limit: int) -> _Tables:
    # keyed by the curve's values rather than the (mutable) EnergyConfig, and
    # by the limit, so a grid cut short is served to no other limit
    # the curve is non-decreasing, so a bisect finds its first e_max entry
    full = bisect_left(range(limit), e_max, key=lambda n: _charge(n, tau, e_max))
    # _charge's operations in their order, with math.expm1 (np.expm1 differs)
    size = min(full + 1, limit)
    filled = -np.fromiter(map(math.expm1, (-np.arange(size) / tau).tolist()), float, size)
    grid = np.minimum(e_max * filled * filled, e_max)   # searchsorted "left" on it is bisect_left
    # grid is non-decreasing, so bisect_left(grid, grid[n]) is where grid[n]'s run starts
    starts = np.concatenate(([True], grid[1:] != grid[:-1]))
    low = np.maximum.accumulate(np.where(starts, np.arange(size, dtype=np.int64), 0))
    arrays = (grid, low, np.searchsorted(grid, grid - cost_sense).astype(np.int64))
    for array in arrays:
        array.flags.writeable = False
    return _Tables(arrays)


def energy_after(grid: tuple[float, ...], energy: float, cycles: int,
                 cfg: EnergyConfig) -> tuple[float, int]:
    """(energy_at_cycle(cycle_index(energy) + cycles), its index in grid),
    read off grid = charge_tables(cfg)[0] and held at e_max past its end;
    the index is -1 where the closed form gives the energy instead, from or
    to a point past a grid cut short at _GRID_LIMIT."""
    if 0.0 <= energy <= grid[-1]:
        n = bisect_left(grid, energy) + cycles
        if n < len(grid) or grid[-1] == cfg.e_max:
            n = min(n, len(grid) - 1)
            return grid[n], n
    return energy_at_cycle(cycle_index(energy, cfg) + cycles, cfg), -1


def advance_harvest(state: EnergyState, dt: float, cfg: EnergyConfig) -> EnergyState:
    """Accrue harvested energy over dt seconds (whole cycles only).

    Partial cycles carry over in state.phase.  Harvesting never powers a
    device down; it powers one up when the stored energy reaches e_turn_on.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    total = state.phase + dt
    cycles = int(total / cfg.t_cycle)
    state.phase = total - cycles * cfg.t_cycle
    if cycles > 0 and state.energy < cfg.e_max:
        state.energy = energy_after(charge_tables(cfg)[0], state.energy, cycles, cfg)[0]
    if not state.powered and state.energy >= cfg.e_turn_on:
        state.powered = True
    return state


def try_consume(state: EnergyState, cost: float, cfg: EnergyConfig) -> EnergyState | None:
    """Spend cost joules atomically; None if the device is off or short.

    On failure the state is untouched.  On success the device powers off
    when the remaining energy is at or below e_turn_off.
    """
    if cost < 0:
        raise ValueError("cost must be >= 0")
    if not state.powered or state.energy < cost:
        return None
    state.energy -= cost
    if state.energy <= cfg.e_turn_off:
        state.powered = False
    return state
