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
but reads both steps off a charge grid: the list E(0), E(1), ... built with
energy_at_cycle itself, kept per process for each curve (v_g, delta_q,
e_max), grown on demand and never past its first entry equal to e_max.
The grid is non-decreasing, so bisect_left(grid, E) is by definition the
smallest m with E(m) >= E, which is what cycle_index() returns: the lookup
is exact, not an approximation of the inverse.  It does not lift the float64
limit of the inverse either: where the curve is flat to the last bit
(n ~ 19000 under the default config), a grid energy still maps back to the
first of its equal neighbours, as cycle_index() does.  Beyond _GRID_LIMIT
entries the closed form is used instead, so an extreme config costs time,
not memory.  The walk itself is energy_after(); a caller that steps one
capacitor many times (the simulation engine's per-device scan) fetches the
grid once with charge_grid() and calls energy_after() directly.
"""

from __future__ import annotations

import functools
import math
import threading
from bisect import bisect_left
from dataclasses import dataclass

from .errors import EnergyOutOfRange


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
        bad = [name for name, value in vars(self).items() if not math.isfinite(value)]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite")
        if self.v_g <= 0 or self.delta_q <= 0 or self.t_cycle <= 0 or self.e_max <= 0:
            raise ValueError("v_g, delta_q, t_cycle and e_max must be positive")
        if not (0 <= self.e_turn_off < self.e_turn_on <= self.e_max):
            raise ValueError("need 0 <= e_turn_off < e_turn_on <= e_max")
        if min(self.cost_tx_pulse, self.cost_rx_pulse, self.cost_sense) < 0:
            raise ValueError("pulse/sense costs must be >= 0")


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
    # -expm1 keeps precision for both tiny and huge n
    filled = -math.expm1(-n / _tau_cycles(cfg))
    return min(cfg.e_max * filled * filled, cfg.e_max)


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
    """First whole cycle at which a device charging from empty powers on."""
    return cycle_index(cfg.e_turn_on, cfg)


_GRID_LIMIT = 1 << 17   # entries per charge grid; 23,767 reach e_max by default
_GROWING = threading.Lock()


@functools.lru_cache(maxsize=8)
def _charge_grid(v_g: float, delta_q: float, e_max: float) -> list[float]:
    # E(0), E(1), ... of one curve, grown in place by _grown; keyed by the
    # curve's values rather than the (mutable) EnergyConfig
    return []


def _grown(grid: list[float], n: int, energy: float, cfg: EnergyConfig) -> bool:
    """Extend grid until it holds index n and an entry >= energy, or ends at
    e_max.  False if it cannot: past _GRID_LIMIT, or on a curve of NaNs."""
    with _GROWING:   # entry k must land at index k, whichever thread appends
        while len(grid) <= n or grid[-1] < energy:
            if grid and grid[-1] == cfg.e_max:
                break
            if len(grid) >= _GRID_LIMIT:
                return False
            grid.append(energy_at_cycle(len(grid), cfg))
        return grid[-1] >= energy


def charge_grid(cfg: EnergyConfig) -> list[float]:
    """The charge grid of cfg's curve, shared per process; energy_after()
    grows it on demand."""
    return _charge_grid(cfg.v_g, cfg.delta_q, cfg.e_max)


def energy_after(grid: list[float], energy: float, cycles: int, cfg: EnergyConfig) -> float:
    """energy_at_cycle(cycle_index(energy) + cycles), read off grid = charge_grid(cfg)."""
    if energy >= 0.0 and ((grid and grid[-1] >= energy) or _grown(grid, 0, energy, cfg)):
        n = bisect_left(grid, energy) + cycles
        if n < len(grid):
            return grid[n]
        if _grown(grid, n, 0.0, cfg):
            return grid[min(n, len(grid) - 1)]   # past the end the curve stays at e_max
    return energy_at_cycle(cycle_index(energy, cfg) + cycles, cfg)


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
        state.energy = energy_after(charge_grid(cfg), state.energy, cycles, cfg)
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
