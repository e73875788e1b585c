"""THz in-body link budget: frozen path-loss oracles and SINR behavior."""

import math

import numpy as np
import pytest

from nanoflow.channel import (ChannelConfig, Layer, Reception, airtime_s,
                              default_layers, doppler_penalty_db,
                              doppler_shift_hz, link_sample, path_loss_db,
                              pulse_count, received_power_dbm,
                              reception_decision, sinr_db, SPEED_OF_LIGHT)

CFG = ChannelConfig()

# frozen oracles, default config (1 THz, spreading exponent 2, layer stack
# vessel wall 0.1 cm @ 40 dB/cm -> tissue 2 cm @ 30 -> skin 0.1 cm @ 20)
PL_1CM = 83.44778322188338
PL_3CM = 127.99020831627662


def spreading_db(d_cm: float) -> float:
    return max(0.0, 20.0 * math.log10(4 * math.pi * CFG.f_c * (d_cm / 100) / SPEED_OF_LIGHT))


def test_path_loss_frozen_points():
    assert path_loss_db(1.0, CFG) == pytest.approx(PL_1CM, rel=1e-12)
    assert path_loss_db(3.0, CFG) == pytest.approx(PL_3CM, rel=1e-12)


def test_path_loss_zero_distance():
    assert path_loss_db(0.0, CFG) == 0.0


def test_layer_absorption_consumed_in_order():
    # 0.05 cm: halfway through the vessel wall only
    assert path_loss_db(0.05, CFG) == pytest.approx(spreading_db(0.05) + 0.05 * 40.0, rel=1e-12)
    # 1.5 cm: full wall + 1.4 cm of tissue
    assert path_loss_db(1.5, CFG) == pytest.approx(
        spreading_db(1.5) + 0.1 * 40.0 + 1.4 * 30.0, rel=1e-12)
    # 3 cm and beyond: the whole stack (4 + 60 + 2 dB)
    assert path_loss_db(3.0, CFG) == pytest.approx(spreading_db(3.0) + 66.0, rel=1e-12)
    assert path_loss_db(5.0, CFG) == pytest.approx(spreading_db(5.0) + 66.0, rel=1e-12)


def test_path_loss_monotone_in_distance():
    rng = np.random.default_rng(3)
    d = np.sort(rng.uniform(1e-4, 10.0, size=300))
    pl = [path_loss_db(float(x), CFG) for x in d]
    assert all(b >= a for a, b in zip(pl, pl[1:]))


def test_spreading_exponent_doubling():
    flat = ChannelConfig(layers=[])  # isolate the spreading term
    for n, d in ((2.0, 1.0), (3.0, 0.7), (4.0, 2.5)):
        cfg = ChannelConfig(spreading_exponent=n, layers=[])
        delta = path_loss_db(2 * d, cfg) - path_loss_db(d, cfg)
        assert delta == pytest.approx(10.0 * n * math.log10(2.0), rel=1e-9)
    assert path_loss_db(1.0, flat) == pytest.approx(spreading_db(1.0), rel=1e-12)


def test_doppler_shift():
    # 20 cm/s at 1 THz: f_c * v / c with v in m/s
    assert doppler_shift_hz(20.0, CFG) == pytest.approx(1e12 * 0.2 / SPEED_OF_LIGHT, rel=1e-12)
    assert doppler_shift_hz(20.0, CFG) == pytest.approx(667.13, abs=0.01)
    assert doppler_shift_hz(-20.0, CFG) == -doppler_shift_hz(20.0, CFG)


def test_doppler_penalty_default_zero():
    assert doppler_penalty_db(667.0, CFG) == 0.0
    cfg = ChannelConfig(doppler_penalty_db_per_mhz=3.0)
    assert doppler_penalty_db(2e6, cfg) == pytest.approx(6.0)


def test_received_power():
    assert received_power_dbm(-20.0, 90.0) == pytest.approx(-110.0)
    assert received_power_dbm(-20.0, 50.0, penalty_db=2.5) == pytest.approx(-72.5)


def test_sinr_definition():
    # signal 3 dB over a single equal interferer-plus-noise pair
    assert sinr_db(-100.0, [-103.0], -200.0) == pytest.approx(3.0, abs=1e-6)
    # interference-free case reduces to SNR
    assert sinr_db(-100.0, [], -130.0) == pytest.approx(30.0, rel=1e-9)


def test_sinr_cap():
    assert sinr_db(-20.0, [], -1000.0) == 200.0


def test_sinr_sums_interferers_left_to_right():
    # 1 mW then two 1e-16 mW: each small term rounds away against 1.0 when
    # added in turn, as the engine's array pass adds them; a compensated sum
    # (sum() on Python 3.12+) keeps them and gives about -9.6e-16 dB
    assert sinr_db(0.0, [0.0, -160.0, -160.0], -math.inf) == 0.0


def test_reception_decision_order():
    # sensitivity check comes first, SINR second
    assert reception_decision(-120.0, 50.0, CFG) is Reception.DISCARD_SENSITIVITY
    assert reception_decision(-100.0, 5.0, CFG) is Reception.DISCARD_COLLISION
    assert reception_decision(-100.0, 15.0, CFG) is Reception.DELIVERED
    # boundary values are inclusive
    assert reception_decision(-110.0, 10.0, CFG) is Reception.DELIVERED


def test_airtime_and_pulses():
    # bits / (bandwidth * spectral_efficiency)
    assert airtime_s(16, CFG) == pytest.approx(16 / (10e9 * 0.5), rel=1e-12)
    assert airtime_s(48, CFG) == pytest.approx(9.6e-9, rel=1e-12)
    # OOK sends a pulse for half the symbols on average
    assert pulse_count(48) == 24.0


def test_link_sample_bundles_fields():
    s = link_sample(1.0, -20.0, CFG.tx_power_dbm, CFG)
    assert s.distance_cm == 1.0
    assert s.path_loss_db == pytest.approx(PL_1CM, rel=1e-12)
    assert s.rx_power_dbm == pytest.approx(-20.0 - PL_1CM, rel=1e-9)
    assert s.doppler_shift_hz == pytest.approx(doppler_shift_hz(-20.0, CFG), rel=1e-12)


def test_backscatter_budget_symmetric_at_default_gain():
    # at the range edge PL == tx - sensitivity == 90 dB; the response leaves
    # at rx + gain and arrives back exactly at sensitivity
    pl_edge = CFG.tx_power_dbm - CFG.rx_sensitivity_dbm
    beacon_rx = CFG.tx_power_dbm - pl_edge
    response_tx = beacon_rx + CFG.backscatter_gain_db
    assert response_tx - pl_edge == pytest.approx(CFG.rx_sensitivity_dbm)


def test_max_range_bracket():
    # the largest distance still decodable with the default budget, found by
    # bisection against the frozen implementation-independent formula
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if CFG.tx_power_dbm - path_loss_db(mid, CFG) >= CFG.rx_sensitivity_dbm:
            lo = mid
        else:
            hi = mid
    assert lo == pytest.approx(1.1724, abs=5e-4)


def test_default_layer_stack():
    stack = default_layers()
    assert [l.name for l in stack] == ["vessel_wall", "tissue", "skin"]
    assert [l.atten_db_per_cm for l in stack] == [40.0, 30.0, 20.0]
    assert sum(l.thickness_cm for l in stack) == pytest.approx(2.2)
