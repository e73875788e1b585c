"""Run configuration: defaults, JSON overrides, validation, fingerprint.

Every tunable lives in one nested dict with human-scale units (pJ, pC, ms,
THz, GHz, cm).  User files are deep-merged over the defaults and checked by
one schema walk against DEFAULT_CONFIG (_validate), which names the
offending key: objects may hold only the default's keys; numbers must be
finite, and integral where the default is an integer; each entry of a list
of objects (anchors, channel.layers) is checked against the first default
entry and must carry every key whose default is not null; other lists must
have the default's length.  Each range check lives in the run-plan dataclass
that owns the field, and plan() names the field's config key in its error.
validate_consistency checks the keys no dataclass owns and ends by building
the run plan, so a config that loads always converts.  The resolved dict is
written next to every output and hashed into reports so a run can be
reproduced byte for byte.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from dataclasses import dataclass

from .benchmark import STRATEGIES
from .channel import ChannelConfig, Layer
from .energy import EnergyConfig, turn_on_latency_cycles
from .errors import ConfigError, ConfigMismatch
from .simcore import Anchor, ProtocolParams, SimPlan
from .vasculature import VesselGraph, build_reference_vasculature, load_graph

DEFAULT_CONFIG: dict = {
    "duration_s": 1000.0,
    "device_count": 64,
    "seed": 1,
    "vasculature": {
        "graph": "default",          # bundled reference graph, or a JSON path
    },
    "upsample": {
        "factor": 3,                 # integer multiple of scenario.sense_rate_hz
        "sigma_cm": 0.2,
    },
    "scenario": {
        "target_cm": None,           # [x, y, z]; benchmark supplies per-event targets
        "detection_radius_cm": 1.0,
        "sense_rate_hz": 3,
    },
    "energy": {
        "v_g_volts": 0.42,
        "delta_q_pc": 6.0,
        "t_cycle_ms": 20.0,
        "e_max_pj": 800.0,
        "turn_on_pj": 10.0,
        "turn_off_pj": 0.0,
        "cost_tx_pulse_pj": 1.0,
        "cost_rx_pulse_pj": 0.0,
        "cost_sense_pj": 1.0,
    },
    "channel": {
        "f_c_thz": 1.0,
        "bandwidth_ghz": 10.0,
        "tx_power_dbm": -20.0,
        "rx_sensitivity_dbm": -110.0,
        "sinr_threshold_db": 10.0,
        "noise_floor_dbm": -130.0,
        "spreading_exponent": 2.0,
        "doppler_penalty_db_per_mhz": 0.0,
        "backscatter_gain_db": 90.0,
        "spectral_efficiency_bits_per_hz": 0.5,
        "layers": [
            {"name": "vessel_wall", "thickness_cm": 0.1, "atten_db_per_cm": 40.0},
            {"name": "tissue", "thickness_cm": 2.0, "atten_db_per_cm": 30.0},
            {"name": "skin", "thickness_cm": 0.1, "atten_db_per_cm": 20.0},
        ],
    },
    "protocol": {
        "beacon_bits": 16,
        "response_bits": 48,
        "episode_gap_intervals": 1.5,  # beacon silence that starts a new contact episode
    },
    "anchors": [
        {"mac": 0, "position_cm": [0.8, 0.0, 0.0], "beacon_interval_s": 0.1,
         "tx_power_dbm": None},      # null = channel.tx_power_dbm
    ],
    "benchmark": {
        "dense_size": 1368,
        "strategy": "rgs",
        "sample_k": 684,
        "sim_times_s": None,         # null = [duration_s]
        "point_error_correct_only": False,
    },
}

_NUMERIC = (int, float)


def _validate(user, default, key: str) -> None:
    """Check `user` against the shape of `default`, naming `key` on failure.

    A null default accepts anything; validate_consistency checks such a
    payload with this walk when it is set.
    """
    if isinstance(default, dict):
        if not isinstance(user, dict):
            raise ConfigError(f"config key {key or '<root>'} must be an object")
        for name, val in user.items():
            sub = f"{key}.{name}" if key else str(name)
            if name not in default:
                raise ConfigError(f"unknown config key: {sub}")
            _validate(val, default[name], sub)
    elif isinstance(default, bool):
        if not isinstance(user, bool):
            raise ConfigError(f"config key {key} must be a boolean")
    elif isinstance(default, _NUMERIC):
        if isinstance(user, bool) or not isinstance(user, _NUMERIC):
            raise ConfigError(f"config key {key} must be a number")
        if not abs(user) <= sys.float_info.max:   # NaN, infinities, ints past float range
            raise ConfigError(f"config key {key} must be a finite number, got {user!r}")
        if isinstance(default, int) and user != int(user):
            raise ConfigError(f"config key {key} must be an integer, got {user!r}")
    elif isinstance(default, str):
        if not isinstance(user, str):
            raise ConfigError(f"config key {key} must be a string")
    elif isinstance(default, list):
        if not isinstance(user, list):
            raise ConfigError(f"config key {key} must be a list")
        if isinstance(default[0], dict):   # a user list replaces the default wholesale
            for i, entry in enumerate(user):
                _validate(entry, default[0], f"{key}[{i}]")
                for name, val in default[0].items():
                    if val is not None and name not in entry:
                        raise ConfigError(f"config key {key}[{i}].{name} is required")
        else:
            if len(user) != len(default):
                raise ConfigError(
                    f"config key {key} must have {len(default)} entries, got {len(user)}")
            for i, (val, dflt) in enumerate(zip(user, default)):
                _validate(val, dflt, f"{key}[{i}]")


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


# config key of each run-plan field whose key is not the field's own name
_KEYS = {"v_g": "energy.v_g_volts", "delta_q": "energy.delta_q_pc", "t_cycle": "energy.t_cycle_ms",
         "e_max": "energy.e_max_pj", "e_turn_on": "energy.turn_on_pj",
         "e_turn_off": "energy.turn_off_pj", "cost_tx_pulse": "energy.cost_tx_pulse_pj",
         "cost_rx_pulse": "energy.cost_rx_pulse_pj", "cost_sense": "energy.cost_sense_pj",
         "f_c": "channel.f_c_thz", "bandwidth": "channel.bandwidth_ghz",
         "spectral_efficiency": "channel.spectral_efficiency_bits_per_hz",
         "detection_radius_cm": "scenario.detection_radius_cm",
         "sense_rate_hz": "scenario.sense_rate_hz", "upsample_factor": "upsample.factor",
         "upsample_sigma_cm": "upsample.sigma_cm"}


def _built(cls, prefix: str = "", **fields):
    """cls(**fields), a range error raised as ConfigError naming the key: prefix
    + field where keys are field names (protocol., anchors[i].), else _KEYS's."""
    try:
        return cls(**fields)
    except ConfigMismatch as exc:
        name, _, reason = str(exc).partition(" ")
        key = prefix + name if prefix else _KEYS.get(name, name)
        raise ConfigError(f"config key {key} {reason}") from exc


@dataclass
class RunConfig:
    raw: dict

    def plan(self) -> SimPlan:
        """Everything an event run needs, converted from the raw sections."""
        raw = self.raw
        e, c, proto = raw["energy"], raw["channel"], raw["protocol"]
        return _built(
            SimPlan,
            device_count=int(raw["device_count"]),
            duration_s=float(raw["duration_s"]),
            detection_radius_cm=float(raw["scenario"]["detection_radius_cm"]),
            sense_rate_hz=int(raw["scenario"]["sense_rate_hz"]),
            upsample_factor=int(raw["upsample"]["factor"]),
            upsample_sigma_cm=float(raw["upsample"]["sigma_cm"]),
            anchors=[_built(Anchor, f"anchors[{i}].", mac=int(a["mac"]),
                            position=tuple(a["position_cm"]),
                            beacon_interval_s=float(a["beacon_interval_s"]),
                            tx_power_dbm=(None if a.get("tx_power_dbm") is None
                                          else float(a["tx_power_dbm"])))
                     for i, a in enumerate(raw["anchors"])],
            energy_cfg=_built(EnergyConfig, v_g=float(e["v_g_volts"]),
                              delta_q=float(e["delta_q_pc"]) * 1e-12,
                              t_cycle=float(e["t_cycle_ms"]) * 1e-3,
                              e_max=float(e["e_max_pj"]) * 1e-12,
                              e_turn_on=float(e["turn_on_pj"]) * 1e-12,
                              e_turn_off=float(e["turn_off_pj"]) * 1e-12,
                              cost_tx_pulse=float(e["cost_tx_pulse_pj"]) * 1e-12,
                              cost_rx_pulse=float(e["cost_rx_pulse_pj"]) * 1e-12,
                              cost_sense=float(e["cost_sense_pj"]) * 1e-12),
            channel_cfg=_built(ChannelConfig, f_c=float(c["f_c_thz"]) * 1e12,
                               bandwidth=float(c["bandwidth_ghz"]) * 1e9,
                               tx_power_dbm=float(c["tx_power_dbm"]),
                               rx_sensitivity_dbm=float(c["rx_sensitivity_dbm"]),
                               sinr_threshold_db=float(c["sinr_threshold_db"]),
                               noise_floor_dbm=float(c["noise_floor_dbm"]),
                               spreading_exponent=float(c["spreading_exponent"]),
                               doppler_penalty_db_per_mhz=float(c["doppler_penalty_db_per_mhz"]),
                               backscatter_gain_db=float(c["backscatter_gain_db"]),
                               spectral_efficiency=float(c["spectral_efficiency_bits_per_hz"]),
                               layers=[_built(Layer, f"channel.layers[{i}].", name=layer["name"],
                                              thickness_cm=float(layer["thickness_cm"]),
                                              atten_db_per_cm=float(layer["atten_db_per_cm"]))
                                       for i, layer in enumerate(c["layers"])]),
            protocol=_built(ProtocolParams, "protocol.", beacon_bits=int(proto["beacon_bits"]),
                            response_bits=int(proto["response_bits"]),
                            episode_gap_intervals=float(proto["episode_gap_intervals"])),
        )

    def graph(self) -> VesselGraph:
        src = self.raw["vasculature"]["graph"]
        if src == "default":
            return build_reference_vasculature()
        try:
            return load_graph(src)
        except OSError as exc:
            raise ConfigError(f"config key vasculature.graph: cannot read {src!r}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(
                f"config key vasculature.graph: {src!r} is not valid JSON: {exc}") from exc

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    def validate_consistency(self) -> None:
        """Check the keys no run-plan dataclass owns, then build the plan."""
        if self.raw["seed"] < 0:
            raise ConfigError("config key seed must be >= 0")
        target = self.raw["scenario"]["target_cm"]
        if target is not None:
            _validate(target, [0.0, 0.0, 0.0], "scenario.target_cm")
        for i, a in enumerate(self.raw["anchors"]):
            if a.get("tx_power_dbm") is not None:
                _validate(a["tx_power_dbm"], 0.0, f"anchors[{i}].tx_power_dbm")
        bench = self.raw["benchmark"]
        if bench["strategy"] not in STRATEGIES:
            raise ConfigError(
                f"config key benchmark.strategy must be one of {'/'.join(STRATEGIES)} "
                f"(got {bench['strategy']!r})")
        for key in ("dense_size", "sample_k"):
            if bench[key] < 1:
                raise ConfigError(f"config key benchmark.{key} must be >= 1")
        times = bench["sim_times_s"]
        if times is not None:
            if not isinstance(times, list) or not times:
                raise ConfigError("config key benchmark.sim_times_s must be a non-empty list or null")
            for i, t in enumerate(times):
                _validate(t, 0.0, f"benchmark.sim_times_s[{i}]")
                if t <= 0:
                    raise ConfigError(f"config key benchmark.sim_times_s[{i}] must be positive")
                if t > self.raw["duration_s"]:
                    raise ConfigError(f"config key benchmark.sim_times_s[{i}] must not exceed "
                                      f"duration_s ({t!r} > {self.raw['duration_s']!r})")
        plan = self.plan()
        e = plan.energy_cfg   # devices that never turn on would report nothing: a score of 0
        on_s = turn_on_latency_cycles(e) * e.t_cycle
        if on_s > plan.duration_s:
            raise ConfigError(f"config key energy.v_g_volts gives a charging curve that turns a "
                              f"device on after {on_s:g} s, longer than duration_s "
                              f"{plan.duration_s:g} s")

    def fingerprint(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.raw, fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then JSON file (if any), then programmatic overrides."""
    layers = [overrides or {}]
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                layers.insert(0, json.load(fh))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    resolved = DEFAULT_CONFIG   # never mutated: _merge returns a deep copy
    for layer in layers:
        _validate(layer, DEFAULT_CONFIG, "")
        resolved = _merge(resolved, layer)
    cfg = RunConfig(raw=resolved)
    cfg.validate_consistency()
    return cfg
