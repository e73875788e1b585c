"""Terahertz in-body link budget: layered path loss, Doppler, SINR.

Path loss combines a free-space spreading term (exponent configurable) with
per-layer absorption; the propagation distance is consumed layer by layer in
listed order, so short links only pay for the material they actually cross.
Reception is decided sensitivity-first, then SINR against the sum of
overlapping interferers plus the noise floor.

These scalar functions are the reference.  The engine decides beacons and
backscatter responses in array passes (simcore._delivered), re-decides in
these functions every packet whose array verdict an ulp could flip, and
takes link_sample's rx only for the beacons a device answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import require

SPEED_OF_LIGHT = 299792458.0  # m/s


class Reception(Enum):
    DELIVERED = "delivered"
    DISCARD_SENSITIVITY = "discard_sensitivity"
    DISCARD_COLLISION = "discard_collision"


@dataclass
class Layer:
    name: str
    thickness_cm: float
    atten_db_per_cm: float

    def __post_init__(self):
        for name in ("thickness_cm", "atten_db_per_cm"):
            require(getattr(self, name) >= 0, name, "must be >= 0")


def default_layers() -> list[Layer]:
    return [
        Layer("vessel_wall", 0.1, 40.0),
        Layer("tissue", 2.0, 30.0),
        Layer("skin", 0.1, 20.0),
    ]


@dataclass
class ChannelConfig:
    f_c: float = 1e12                 # Hz carrier
    bandwidth: float = 10e9           # Hz
    tx_power_dbm: float = -20.0       # anchor beacon power
    rx_sensitivity_dbm: float = -110.0
    sinr_threshold_db: float = 10.0
    noise_floor_dbm: float = -130.0
    spreading_exponent: float = 2.0
    doppler_penalty_db_per_mhz: float = 0.0
    backscatter_gain_db: float = 90.0  # added to beacon rx power for the response
    spectral_efficiency: float = 0.5   # bits per Hz, sets packet airtime
    layers: list[Layer] = field(default_factory=default_layers)

    def __post_init__(self):
        for name in ("f_c", "bandwidth", "spectral_efficiency"):
            require(0 < getattr(self, name) < math.inf, name, "must be positive and finite")


@dataclass
class LinkSample:
    distance_cm: float
    path_loss_db: float
    rx_power_dbm: float
    doppler_shift_hz: float


def path_loss_db(distance_cm: float, cfg: ChannelConfig) -> float:
    """Spreading plus layered absorption over distance_cm."""
    if distance_cm < 0:
        raise ValueError("distance must be >= 0")
    spreading = 0.0
    if distance_cm > 0:
        d_m = distance_cm / 100.0
        spreading = 10.0 * cfg.spreading_exponent * math.log10(
            4.0 * math.pi * cfg.f_c * d_m / SPEED_OF_LIGHT)
        spreading = max(spreading, 0.0)
    loss = spreading
    remaining = distance_cm
    for layer in cfg.layers:
        crossed = min(layer.thickness_cm, remaining)
        if crossed <= 0:
            break
        loss += crossed * layer.atten_db_per_cm
        remaining -= crossed
    return loss


def doppler_shift_hz(speed_cm_s: float, cfg: ChannelConfig) -> float:
    """Carrier shift for the given radial speed (positive = closing)."""
    return cfg.f_c * (speed_cm_s / 100.0) / SPEED_OF_LIGHT


def doppler_penalty_db(shift_hz: float, cfg: ChannelConfig) -> float:
    return cfg.doppler_penalty_db_per_mhz * abs(shift_hz) / 1e6


def received_power_dbm(tx_dbm: float, pl_db: float, penalty_db: float = 0.0) -> float:
    return tx_dbm - pl_db - penalty_db


def link_sample(distance_cm: float, radial_speed_cm_s: float, tx_dbm: float,
                cfg: ChannelConfig) -> LinkSample:
    pl = path_loss_db(distance_cm, cfg)
    shift = doppler_shift_hz(radial_speed_cm_s, cfg)
    rx = received_power_dbm(tx_dbm, pl, doppler_penalty_db(shift, cfg))
    return LinkSample(distance_cm, pl, rx, shift)


def _dbm_to_mw(dbm: float) -> float:
    if dbm == float("-inf"):
        return 0.0
    return 10.0 ** (dbm / 10.0)


def sinr_db(signal_dbm: float, interferer_dbms, noise_dbm: float) -> float:
    """Signal over (interference + noise), computed in milliwatts.

    A fully quiet denominator (no interferers, -inf noise sentinel) returns
    the +200 dB cap rather than infinity.
    """
    denom = _dbm_to_mw(noise_dbm) + sum(_dbm_to_mw(i) for i in interferer_dbms)
    if denom == 0.0:
        return 200.0
    return min(10.0 * math.log10(_dbm_to_mw(signal_dbm) / denom), 200.0)


def reception_decision(rx_dbm: float, sinr: float, cfg: ChannelConfig) -> Reception:
    """Sensitivity gate first; only audible packets can collide."""
    if rx_dbm < cfg.rx_sensitivity_dbm:
        return Reception.DISCARD_SENSITIVITY
    if sinr < cfg.sinr_threshold_db:
        return Reception.DISCARD_COLLISION
    return Reception.DELIVERED


def airtime_s(bits: int, cfg: ChannelConfig) -> float:
    """Packet duration at the configured bandwidth and spectral efficiency."""
    return bits / (cfg.bandwidth * cfg.spectral_efficiency)


def pulse_count(bits: int) -> float:
    """Expected number of transmitted pulses for an OOK packet of `bits`."""
    return bits / 2.0
