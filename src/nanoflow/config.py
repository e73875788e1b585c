"""Run configuration: defaults, JSON overrides, validation, fingerprint.

Every tunable lives in one nested dict with human-scale units (pJ, pC, ms,
THz, GHz, cm).  User files are deep-merged over the defaults and validated
key by key so typos fail loudly with the offending key path.  The resolved
dict is written next to every output and hashed into reports so a run can
be reproduced byte for byte.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass

from .channel import ChannelConfig, Layer
from .energy import EnergyConfig
from .errors import ConfigError
from .vasculature import VesselGraph, build_reference_vasculature, load_graph

STRATEGIES = ("srs", "ssrs", "crs", "rgs", "scs")

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

_ANCHOR_KEYS = ("mac", "position_cm", "beacon_interval_s", "tx_power_dbm")
_LAYER_KEYS = ("name", "thickness_cm", "atten_db_per_cm")
_NUMERIC = (int, float)


def _validate(user, defaults, path: str) -> None:
    if isinstance(defaults, dict):
        if not isinstance(user, dict):
            raise ConfigError(f"config key {path or '<root>'} must be an object")
        for key, val in user.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key: {path + key}")
            _validate(val, defaults[key], path + key + ".")
        return
    key = path.rstrip(".")
    if isinstance(defaults, bool):
        if not isinstance(user, bool):
            raise ConfigError(f"config key {key} must be a boolean")
    elif isinstance(defaults, _NUMERIC):
        if isinstance(user, bool) or not isinstance(user, _NUMERIC):
            raise ConfigError(f"config key {key} must be a number")
    elif isinstance(defaults, str):
        if not isinstance(user, str):
            raise ConfigError(f"config key {key} must be a string")
    elif isinstance(defaults, list):
        if not isinstance(user, list):
            raise ConfigError(f"config key {key} must be a list")
    elif defaults is None:
        pass  # nullable leaf; consumer validates the payload
    else:  # pragma: no cover - defaults only contain the shapes above
        raise ConfigError(f"config key {key} has unsupported type")


def _require_finite(user, key: str) -> None:
    """Reject NaN and infinities (JSON's NaN/Infinity literals, or a float
    override) anywhere in user, naming the key that holds one."""
    if isinstance(user, float) and not math.isfinite(user):
        raise ConfigError(f"config key {key} must be a finite number, got {user!r}")
    if isinstance(user, dict):
        for name, val in user.items():
            _require_finite(val, f"{key}.{name}" if key else str(name))
    elif isinstance(user, list):
        for i, val in enumerate(user):
            _require_finite(val, f"{key}[{i}]")


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _check_keys(entry: dict, allowed, label: str) -> None:
    for key in entry:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {label}.{key}")


@dataclass
class RunConfig:
    raw: dict

    # ---- typed section views -------------------------------------------
    def energy_config(self) -> EnergyConfig:
        e = self.raw["energy"]
        try:
            return EnergyConfig(
                v_g=float(e["v_g_volts"]),
                delta_q=float(e["delta_q_pc"]) * 1e-12,
                t_cycle=float(e["t_cycle_ms"]) * 1e-3,
                e_max=float(e["e_max_pj"]) * 1e-12,
                e_turn_on=float(e["turn_on_pj"]) * 1e-12,
                e_turn_off=float(e["turn_off_pj"]) * 1e-12,
                cost_tx_pulse=float(e["cost_tx_pulse_pj"]) * 1e-12,
                cost_rx_pulse=float(e["cost_rx_pulse_pj"]) * 1e-12,
                cost_sense=float(e["cost_sense_pj"]) * 1e-12,
            )
        except ValueError as exc:
            raise ConfigError(f"config section energy: {exc}") from exc

    def channel_config(self) -> ChannelConfig:
        c = self.raw["channel"]
        layers = []
        for i, layer in enumerate(c["layers"]):
            if not isinstance(layer, dict):
                raise ConfigError(f"config key channel.layers[{i}] must be an object")
            _check_keys(layer, _LAYER_KEYS, f"channel.layers[{i}]")
            for need in _LAYER_KEYS:
                if need not in layer:
                    raise ConfigError(f"config key channel.layers[{i}].{need} is required")
            layers.append(Layer(str(layer["name"]), float(layer["thickness_cm"]),
                                float(layer["atten_db_per_cm"])))
        return ChannelConfig(
            f_c=float(c["f_c_thz"]) * 1e12,
            bandwidth=float(c["bandwidth_ghz"]) * 1e9,
            tx_power_dbm=float(c["tx_power_dbm"]),
            rx_sensitivity_dbm=float(c["rx_sensitivity_dbm"]),
            sinr_threshold_db=float(c["sinr_threshold_db"]),
            noise_floor_dbm=float(c["noise_floor_dbm"]),
            spreading_exponent=float(c["spreading_exponent"]),
            doppler_penalty_db_per_mhz=float(c["doppler_penalty_db_per_mhz"]),
            backscatter_gain_db=float(c["backscatter_gain_db"]),
            spectral_efficiency=float(c["spectral_efficiency_bits_per_hz"]),
            layers=layers,
        )

    def graph(self) -> VesselGraph:
        src = self.raw["vasculature"]["graph"]
        if src == "default":
            return build_reference_vasculature()
        try:
            return load_graph(src)
        except OSError as exc:
            raise ConfigError(f"config key vasculature.graph: cannot read {src!r}: {exc}") from exc

    @property
    def duration_s(self) -> float:
        return float(self.raw["duration_s"])

    @property
    def device_count(self) -> int:
        return int(self.raw["device_count"])

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    @property
    def sense_rate_hz(self) -> int:
        return int(self.raw["scenario"]["sense_rate_hz"])

    @property
    def detection_radius_cm(self) -> float:
        return float(self.raw["scenario"]["detection_radius_cm"])

    @property
    def upsample_factor(self) -> int:
        return int(self.raw["upsample"]["factor"])

    @property
    def upsample_sigma_cm(self) -> float:
        return float(self.raw["upsample"]["sigma_cm"])

    def validate_consistency(self) -> None:
        if self.duration_s <= 0:
            raise ConfigError("config key duration_s must be positive")
        if self.device_count < 0:
            raise ConfigError("config key device_count must be >= 0")
        rate = self.sense_rate_hz
        factor = self.upsample_factor
        if rate < 1:
            raise ConfigError("config key scenario.sense_rate_hz must be >= 1")
        if factor < 1 or factor % rate != 0:
            raise ConfigError(
                "config key upsample.factor must be a positive integer "
                f"multiple of scenario.sense_rate_hz (got {factor} vs {rate})")
        if self.upsample_sigma_cm < 0:
            raise ConfigError("config key upsample.sigma_cm must be >= 0")
        if self.detection_radius_cm <= 0:
            raise ConfigError("config key scenario.detection_radius_cm must be positive")
        target = self.raw["scenario"]["target_cm"]
        if target is not None:
            if (not isinstance(target, list) or len(target) != 3
                    or any(isinstance(v, bool) or not isinstance(v, _NUMERIC) for v in target)):
                raise ConfigError("config key scenario.target_cm must be [x, y, z] or null")
        if not self.raw["anchors"]:
            raise ConfigError("config key anchors must list at least one anchor")
        for i, a in enumerate(self.raw["anchors"]):
            if not isinstance(a, dict):
                raise ConfigError(f"config key anchors[{i}] must be an object")
            _check_keys(a, _ANCHOR_KEYS, f"anchors[{i}]")
            for need in ("mac", "position_cm", "beacon_interval_s"):
                if need not in a or a[need] is None:
                    raise ConfigError(f"config key anchors[{i}].{need} is required")
            if not isinstance(a["position_cm"], list) or len(a["position_cm"]) != 3:
                raise ConfigError(f"config key anchors[{i}].position_cm must be [x, y, z]")
            if float(a["beacon_interval_s"]) <= 0:
                raise ConfigError(f"config key anchors[{i}].beacon_interval_s must be positive")
        proto = self.raw["protocol"]
        for key in ("beacon_bits", "response_bits"):
            if int(proto[key]) < 1:
                raise ConfigError(f"config key protocol.{key} must be >= 1")
        if float(proto["episode_gap_intervals"]) <= 0:
            raise ConfigError("config key protocol.episode_gap_intervals must be positive")
        bench = self.raw["benchmark"]
        if bench["strategy"] not in STRATEGIES:
            raise ConfigError(
                f"config key benchmark.strategy must be one of {'/'.join(STRATEGIES)} "
                f"(got {bench['strategy']!r})")
        if int(bench["dense_size"]) < 1:
            raise ConfigError("config key benchmark.dense_size must be >= 1")
        if int(bench["sample_k"]) < 1:
            raise ConfigError("config key benchmark.sample_k must be >= 1")
        times = bench["sim_times_s"]
        if times is not None:
            if not isinstance(times, list) or not times:
                raise ConfigError("config key benchmark.sim_times_s must be a non-empty list or null")
            for t in times:
                if isinstance(t, bool) or not isinstance(t, _NUMERIC) or t <= 0:
                    raise ConfigError("config key benchmark.sim_times_s entries must be positive numbers")
        self.energy_config()
        self.channel_config()

    def fingerprint(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.raw, fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then JSON file (if any), then programmatic overrides."""
    resolved = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        _validate(user, DEFAULT_CONFIG, "")
        _require_finite(user, "")
        resolved = _merge(resolved, user)
    if overrides:
        _validate(overrides, DEFAULT_CONFIG, "")
        _require_finite(overrides, "")
        resolved = _merge(resolved, overrides)
    cfg = RunConfig(raw=resolved)
    cfg.validate_consistency()
    return cfg
