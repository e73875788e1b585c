"""Config resolution/validation and the command-line front end."""

import copy
import json
import os
import re
import subprocess
import sys
import traceback

import numpy as np
import pytest

from nanoflow.benchmark import SimPlan
from nanoflow.cli import main
from nanoflow.config import _KEYS, DEFAULT_CONFIG, RunConfig, load_config
from nanoflow.errors import ConfigError, ConfigMismatch
from nanoflow.vasculature import build_reference_vasculature, save_graph


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_defaults_resolve_and_validate():
    cfg = load_config()
    assert cfg.plan().duration_s == 1000.0
    assert cfg.plan().device_count == 64
    assert cfg.seed == 1
    e = cfg.plan().energy_cfg
    assert e.e_max == pytest.approx(800e-12)
    assert e.v_g == 0.42
    c = cfg.plan().channel_cfg
    assert c.f_c == pytest.approx(1e12)
    assert c.bandwidth == pytest.approx(10e9)
    assert [l.name for l in c.layers] == ["vessel_wall", "tissue", "skin"]


def test_default_config_is_the_dataclass_defaults():
    # DEFAULT_CONFIG and the defaults of SimPlan and of the EnergyConfig,
    # ChannelConfig, ProtocolParams and Anchor it holds name the same run
    assert load_config().plan() == SimPlan()


def test_every_exported_name_resolves():
    import nanoflow
    assert [name for name in nanoflow.__all__ if not hasattr(nanoflow, name)] == []


def test_unknown_key_is_named(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"energy": {"e_mox_pj": 5}}))
    with pytest.raises(ConfigError, match="energy.e_mox_pj"):
        load_config(str(p))


def test_type_error_is_named(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"duration_s": "long"}))
    with pytest.raises(ConfigError, match="duration_s"):
        load_config(str(p))


def test_override_merging(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"device_count": 8, "scenario": {"sense_rate_hz": 1}}))
    cfg = load_config(str(p), overrides={"seed": 99})
    assert cfg.plan().device_count == 8
    assert cfg.seed == 99
    assert cfg.plan().sense_rate_hz == 1
    # untouched sections keep their defaults
    assert cfg.plan().duration_s == DEFAULT_CONFIG["duration_s"]


@pytest.mark.parametrize("text, key", [
    ('{"energy": {"e_max_pj": Infinity}}', "energy.e_max_pj"),
    ('{"scenario": {"detection_radius_cm": NaN}}', "scenario.detection_radius_cm"),
    ('{"duration_s": -Infinity}', "duration_s"),
    ('{"anchors": [{"mac": 0, "position_cm": [0.8, NaN, 0.0], "beacon_interval_s": 0.1}]}',
     r"anchors\[0\].position_cm\[1\]"),
    ('{"benchmark": {"sim_times_s": [10, Infinity]}}', r"benchmark.sim_times_s\[1\]"),
    ('{"channel": {"layers": [{"name": "skin", "thickness_cm": NaN, "atten_db_per_cm": 1}]}}',
     r"channel.layers\[0\].thickness_cm"),
    ('{"device_count": NaN}', "device_count"),   # an integer key: finite check comes first
    ('{"energy": {"v_g_volts": 1' + "0" * 400 + '}}', "energy.v_g_volts"),   # past float range
])
def test_non_finite_numbers_are_rejected_by_key(tmp_path, capsys, text, key):
    p = tmp_path / "c.json"
    p.write_text(text)   # JSON's NaN / Infinity literals, which json.load accepts
    with pytest.raises(ConfigError, match=key + " must be a finite number"):
        load_config(str(p))
    assert main(["simulate", "--config", str(p), "--devices", "2", "--duration-s", "20",
                 "--out", str(tmp_path / "out")]) == 1
    assert "must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_overrides_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duration_s must be a finite number"):
        load_config(None, overrides={"duration_s": float("nan")})
    assert main(["simulate", "--duration-s", "inf", "--out", str(tmp_path / "x")]) == 1


ANCHOR = DEFAULT_CONFIG["anchors"][0]


@pytest.mark.parametrize("override, message", [
    ({"anchors": [{**ANCHOR, "position_cm": ["a", 0, 0]}]},
     r"anchors\[0\]\.position_cm\[0\] must be a number"),
    ({"channel": {"layers": [{"name": "skin", "atten_db_per_cm": 20.0}]}},
     r"channel\.layers\[0\]\.thickness_cm is required"),
    ({"device_count": 2.7}, r"device_count must be an integer, got 2\.7"),
    ({"anchors": [{**ANCHOR, "tx_power_dbm": "x"}]},
     r"anchors\[0\]\.tx_power_dbm must be a number"),
])
def test_bad_values_are_rejected_by_key(tmp_path, capsys, override, message):
    with pytest.raises(ConfigError, match=message):
        load_config(None, overrides=override)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(override))
    assert main(["simulate", "--config", str(p), "--devices", "2", "--duration-s", "20",
                 "--out", str(tmp_path / "out")]) == 1
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize("content, message", [
    (json.dumps({"anchors": 5}).encode(), r"config key anchors must be a list"),
    (json.dumps({"benchmark": {"dense_size": 0}}).encode(),
     r"config key benchmark\.dense_size must be >= 1"),
    (json.dumps({"benchmark": {"sample_k": 0}}).encode(),
     r"config key benchmark\.sample_k must be >= 1"),
    (json.dumps({"benchmark": {"sim_times_s": [10.0, -1.0]}}).encode(),
     r"config key benchmark\.sim_times_s\[1\] must be positive"),
    (b'{"seed": ', r"config file .*c\.json is not valid JSON: Expecting value"),
    (b"\xff\xfe{}", r"config file .*c\.json is not valid JSON: 'utf-8' codec can't decode"),
], ids=["not-a-list", "dense-size", "sample-k", "sim-time", "not-json", "not-utf-8"])
def test_config_file_errors_name_the_key_or_file(tmp_path, content, message):
    path = tmp_path / "c.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match=message):
        load_config(str(path))


def _parts(path: str) -> list:
    """Keys and list indices of a dotted path such as anchors[0].mac."""
    return [int(p) if p.isdigit() else p for p in re.findall(r"\w+", path)]


def _with(path: str, value) -> dict:
    """The default config with `value` at `path`."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    *parents, last = _parts(path)
    node = cfg
    for part in parents:
        node = node[part]
    node[last] = value
    return cfg


@pytest.mark.parametrize("key", [
    "device_count", "seed", "upsample.factor", "scenario.sense_rate_hz",
    "protocol.beacon_bits", "protocol.response_bits", "anchors[0].mac",
    "benchmark.dense_size", "benchmark.sample_k"])
def test_integer_keys_reject_fractions(key):
    default = DEFAULT_CONFIG
    for part in _parts(key):
        default = default[part]
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be an integer, "
                                                    f"got {default + 0.5}")):
        load_config(None, overrides=_with(key, default + 0.5))
    integral = load_config(None, overrides=_with(key, float(default)))   # e.g. 64.0
    assert integral.raw == DEFAULT_CONFIG
    assert integral.plan() == load_config().plan()


@pytest.mark.parametrize("channel, key", [
    ({"bandwidth_ghz": 0}, "channel.bandwidth_ghz"), ({"f_c_thz": 0}, "channel.f_c_thz"),
    ({"spectral_efficiency_bits_per_hz": -0.5}, "channel.spectral_efficiency_bits_per_hz"),
    ({"f_c_thz": 1e300}, "channel.f_c_thz"),   # overflows to an infinite carrier in Hz
    ({"layers": [{"name": "skin", "thickness_cm": -0.1, "atten_db_per_cm": 20.0}]},
     "channel.layers[0].thickness_cm"),
    ({"layers": [{"name": "skin", "thickness_cm": 0.1, "atten_db_per_cm": -1.0}]},
     "channel.layers[0].atten_db_per_cm"),
], ids=[f"channel{i}" for i in range(6)])
def test_channel_ranges_are_checked(tmp_path, capsys, channel, key):
    with pytest.raises(ConfigError, match=f"^config key {re.escape(key)} must be "):
        load_config(None, overrides={"channel": channel})
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"channel": channel}))
    assert main(["simulate", "--config", str(p), "--devices", "2", "--duration-s", "20",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: config key {key} must be ")


LAYER = DEFAULT_CONFIG["channel"]["layers"][0]


@pytest.mark.parametrize("owner, override, message", [
    ("EnergyConfig", {"energy": {"v_g_volts": 0}}, "energy.v_g_volts must be positive"),
    ("EnergyConfig", {"energy": {"turn_on_pj": 900.0}},
     "energy.turn_on_pj must lie above e_turn_off and at most e_max"),
    ("EnergyConfig", {"energy": {"cost_sense_pj": -1.0}}, "energy.cost_sense_pj must be >= 0"),
    ("ChannelConfig", {"channel": {"bandwidth_ghz": -1.0}},
     "channel.bandwidth_ghz must be positive and finite"),
    ("Layer", {"channel": {"layers": [LAYER, {**LAYER, "thickness_cm": -1.0}]}},
     "channel.layers[1].thickness_cm must be >= 0"),
    ("Anchor", {"anchors": [ANCHOR, {**ANCHOR, "beacon_interval_s": 0}]},
     "anchors[1].beacon_interval_s must be positive"),
    ("ProtocolParams", {"protocol": {"response_bits": 0}}, "protocol.response_bits must be >= 1"),
    ("SimPlan", {"scenario": {"detection_radius_cm": 0}},
     "scenario.detection_radius_cm must be positive"),
    ("SimPlan", {"upsample": {"sigma_cm": -0.1}}, "upsample.sigma_cm must be >= 0"),
])
def test_range_errors_name_the_config_key(tmp_path, capsys, owner, override, message):
    # the dataclass that owns the field raises; the loader names the config key
    with pytest.raises(ConfigError, match=f"^config key {re.escape(message)}$") as info:
        load_config(None, overrides=override)
    frames = traceback.walk_tb(info.value.__cause__.__traceback__)
    assert owner in {type(frame.f_locals.get("self")).__name__ for frame, _ in frames}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(override))
    assert main(["simulate", "--config", str(p), "--devices", "2", "--duration-s", "20",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: config key {message}\n"
    assert not (tmp_path / "out").exists()


def test_benchmark_rejects_a_curve_that_never_charges(tmp_path, capsys):
    # v_g squared is subnormal, so the capacitance and the time constant are
    # inf and every device stays at 0 J: a report of zeros, unless rejected
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"energy": {"v_g_volts": 1e-160}}))
    assert main(["benchmark", "--config", str(cfgp), "--k", "3", "--devices", "2",
                 "--duration-s", "10", "--out", str(tmp_path / "bm")]) == 1
    assert capsys.readouterr().err == (
        "error: config key energy.v_g_volts must give, with delta_q and e_max, a positive "
        "finite charging time constant\n")
    assert not (tmp_path / "bm").exists()


def test_benchmark_rejects_a_curve_that_turns_on_after_the_run(tmp_path, capsys):
    # v_g 0.001 V charges a device to turn_on_pj in 31,617 cycles (632 s),
    # so no device of a 30 s run ever turns on: a report of zeros, unless
    # rejected.  At 633 s it turns on in time and the config loads
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"energy": {"v_g_volts": 0.001}}))
    assert main(["benchmark", "--config", str(cfgp), "--k", "5", "--devices", "2",
                 "--duration-s", "30", "--out", str(tmp_path / "bm")]) == 1
    assert capsys.readouterr().err == (
        "error: config key energy.v_g_volts gives a charging curve that turns a device on "
        "after 632.34 s, longer than duration_s 30 s\n")
    assert not (tmp_path / "bm").exists()
    assert load_config(str(cfgp), {"duration_s": 633.0}).plan().duration_s == 633.0
    with pytest.raises(ConfigError, match="after 632.34 s, longer than duration_s 632.3 s"):
        load_config(str(cfgp), {"duration_s": 632.3})
    # turn_on_pj at e_max: the first cycle that reaches e_max, not an inverse out of range
    with pytest.raises(ConfigError, match="after 475.32 s, longer than duration_s 400 s"):
        load_config(None, {"energy": {"turn_on_pj": 800.0}, "duration_s": 400.0})


def test_mapped_config_keys_exist():
    for field, key in _KEYS.items():
        node = DEFAULT_CONFIG
        for part in key.split("."):
            assert isinstance(node, dict) and part in node, (field, key)
            node = node[part]


def test_negative_seed_is_named():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        load_config(None, overrides={"seed": -1})


def test_bad_strategy_rejected():
    with pytest.raises(ConfigError, match="benchmark.strategy"):
        load_config(None, overrides={"benchmark": {"strategy": "lhc"}})


def test_upsample_must_align_with_sense_rate():
    with pytest.raises(ConfigError, match="factor"):
        load_config(None, overrides={"upsample": {"factor": 2},
                                     "scenario": {"sense_rate_hz": 3}})


def test_anchor_validation():
    with pytest.raises(ConfigError, match="anchors"):
        load_config(None, overrides={"anchors": []})
    # anchor entries replace wholesale, so every key must be present
    with pytest.raises(ConfigError, match="anchors\\[0\\]"):
        load_config(None, overrides={"anchors": [{"mac": 0, "position_cm": [1.0, 0, 0]}]})
    full = {"mac": 0, "position_cm": [1.0], "beacon_interval_s": 0.1,
            "tx_power_dbm": None}
    with pytest.raises(ConfigError, match="position_cm"):
        load_config(None, overrides={"anchors": [full]})


def test_fingerprint_stability(tmp_path):
    a = load_config()
    b = load_config()
    assert a.fingerprint() == b.fingerprint()
    c = load_config(None, overrides={"seed": 2})
    assert c.fingerprint() != a.fingerprint()
    # dumping and reloading preserves the fingerprint
    p = tmp_path / "dump.json"
    a.dump(str(p))
    again = load_config(str(p))
    assert again.fingerprint() == a.fingerprint()


def test_target_validation():
    cfg = load_config(None, overrides={"scenario": {"target_cm": [1.0, 2.0, 0.5]}})
    assert cfg.raw["scenario"]["target_cm"] == [1.0, 2.0, 0.5]
    with pytest.raises(ConfigError, match="target_cm"):
        load_config(None, overrides={"scenario": {"target_cm": [1.0, 2.0]}})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def read(path):
    with open(path) as fh:
        return fh.read()


def test_cli_simulate_outputs(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", "--devices", "4", "--duration-s", "30",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    for name in ("raw_records.csv", "energy.csv", "trace.csv",
                 "resolved_config.json"):
        assert (out / name).exists()
    resolved = json.loads(read(out / "resolved_config.json"))
    assert resolved["device_count"] == 4
    assert resolved["seed"] == 7


def test_cli_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--devices", "3", "--duration-s", "20",
                 "--seed", "5", "--out", str(a)]) == 0
    assert main(["simulate", "--devices", "3", "--duration-s", "20",
                 "--seed", "5", "--out", str(b)]) == 0
    for name in ("raw_records.csv", "energy.csv", "trace.csv"):
        assert read(a / name) == read(b / name)


def test_cli_resolved_config_reproduces(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--devices", "3", "--duration-s", "20",
                 "--seed", "5", "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(a / "resolved_config.json"),
                 "--out", str(b)]) == 0
    for name in ("raw_records.csv", "energy.csv", "trace.csv",
                 "resolved_config.json"):
        assert read(a / name) == read(b / name)


def test_cli_sample(tmp_path):
    out = tmp_path / "s"
    rc = main(["sample", "--strategy", "rgs", "--k", "12", "--out", str(out)])
    assert rc == 0
    lines = read(out / "sample.csv").splitlines()
    assert lines[0] == "event_id,x_cm,y_cm,z_cm,region_id,region_type"
    assert len(lines) == 13


def test_cli_benchmark_baseline(tmp_path):
    out = tmp_path / "bm"
    rc = main(["benchmark", "--strategy", "rgs", "--k", "3", "--devices", "4",
               "--duration-s", "60", "--seed", "3", "--workers", "1",
               "--out", str(out)])
    assert rc == 0
    rep = json.loads(read(out / "report.json"))
    assert rep["n_total"] == 3
    assert rep["config_fingerprint"]
    assert (out / "events.csv").exists()


def test_cli_benchmark_external(tmp_path):
    out1 = tmp_path / "bm1"
    assert main(["sample", "--strategy", "rgs", "--k", "3", "--out", str(out1)]) == 0
    lines = read(out1 / "sample.csv").splitlines()[1:]
    est_path = tmp_path / "est.csv"
    with open(est_path, "w") as fh:
        fh.write("event_id,estimated_region,x_cm,y_cm,z_cm\n")
        for ln in lines:
            parts = ln.split(",")
            fh.write(f"{parts[0]},{parts[4]},{parts[1]},{parts[2]},{parts[3]}\n")
    out2 = tmp_path / "bm2"
    rc = main(["benchmark", "--strategy", "rgs", "--k", "3",
               "--localizer", f"external:{est_path}", "--out", str(out2)])
    assert rc == 0
    rep = json.loads(read(out2 / "report.json"))
    assert rep["region_accuracy"] == 1.0  # we echoed the truth back
    assert rep["n_total"] == 3


@pytest.mark.parametrize("rows, error", [
    # a region the graph lacks, with no coordinates to score instead
    ("422,9999,,,\n", "event 422: region 9999 is not in the graph and no coordinates are given"),
    # a repeated event id: neither row may silently win
    ("422,25,,,\n582,37,,,\n422,37,,,\n", "{path}:4: event 422 already estimated on line 2"),
    # coordinates no distance can be taken to
    ("422,25,nan,0,0\n582,37,inf,1,1\n", "{path}:2: malformed row (non-finite coordinates)"),
    # a file made for another sample: no row may be dropped unscored
    ("1,25,,,\n2,37,,,\n3,81,,,\n", "3 estimated event ids are not in the sample (first: [1, 2, 3])"),
], ids=["unknown-region", "repeated-id", "non-finite-point", "ids-outside-sample"])
def test_cli_rejects_external_rows_it_cannot_score(tmp_path, capsys, rows, error):
    # `sample --k 3` draws events 422, 582 and 1052 (regions 25, 37, 81)
    est_path = tmp_path / "est.csv"
    est_path.write_text("event_id,estimated_region,x_cm,y_cm,z_cm\n" + rows)
    capsys.readouterr()
    assert main(["benchmark", "--k", "3", "--localizer", f"external:{est_path}",
                 "--out", str(tmp_path / "bm")]) == 3
    assert capsys.readouterr().err == f"error: {error.format(path=est_path)}\n"
    assert not (tmp_path / "bm").exists()


def test_cli_convergence(tmp_path):
    out = tmp_path / "conv"
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"benchmark": {"dense_size": 94},
                                "device_count": 2, "duration_s": 30.0}))
    for strategies in ("srs,rgs", "srs,srs,rgs"):
        rc = main(["convergence", "--config", str(cfgp), "--strategy", strategies,
                   "--k", "20,94,94", "--out", str(out)])
        assert rc == 0
        lines = read(out / "convergence.csv").splitlines()
        assert lines[0] == "strategy,k,region_acc,mean_err_cm"
        # two deduplicated strategies x two deduplicated sizes
        assert len(lines) == 1 + 4
        assert [l.split(",")[:2] for l in lines[1:]] == [
            ["srs", "20"], ["srs", "94"], ["rgs", "20"], ["rgs", "94"]]
        final_rows = [l for l in lines[1:] if l.split(",")[1] == "94"]
        accs = {l.split(",")[2] for l in final_rows}
        assert len(accs) == 1  # k = dense converges to identical metrics


def test_cli_exits_1_when_every_event_run_fails(tmp_path, capsys):
    # 60.4 s of mobility covers only 60 s, so every event run raises
    assert main(["benchmark", "--k", "6", "--devices", "2", "--duration-s", "60.4",
                 "--workers", "1", "--out", str(tmp_path / "bm")]) == 1
    assert "all 6 event runs failed; the first: ConfigMismatch" in capsys.readouterr().err
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"benchmark": {"dense_size": 94}}))
    assert main(["convergence", "--config", str(cfgp), "--devices", "2", "--duration-s", "60.4",
                 "--strategy", "srs", "--k", "20", "--out", str(tmp_path / "conv")]) == 1
    assert "all 94 event runs failed" in capsys.readouterr().err
    assert not (tmp_path / "conv" / "convergence.csv").exists()


@pytest.mark.parametrize("command", [["simulate"], ["benchmark", "--k", "6", "--workers", "1"]])
def test_cli_run_that_fails_leaves_no_output(tmp_path, capsys, command):
    # the run fails before any file is written, resolved_config.json included
    out = tmp_path / "out"
    assert main([*command, "--devices", "2", "--duration-s", "60.4", "--out", str(out)]) == 1
    assert "covers 60.000 s < simulation duration 60.400 s" in capsys.readouterr().err
    assert not out.exists()


def test_cli_reports_some_failed_event_runs(tmp_path, capsys, monkeypatch):
    import nanoflow.benchmark as bm

    real, calls = bm.simulate_event, []

    def first_fails(graph, plan, event, traces, beacons):
        calls.append(event.id)
        if len(calls) == 1:
            raise ConfigMismatch("synthetic failure")
        return real(graph, plan, event, traces, beacons)

    monkeypatch.setattr(bm, "simulate_event", first_fails)
    assert main(["benchmark", "--strategy", "rgs", "--k", "3", "--devices", "2",
                 "--duration-s", "30", "--workers", "1", "--out", str(tmp_path / "bm")]) == 0
    assert capsys.readouterr().err == "run_errors=1 of 3\n"
    assert list(json.loads(read(tmp_path / "bm" / "report.json"))["run_errors"]) == [str(calls[0])]
    calls.clear()
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"benchmark": {"dense_size": 94}}))
    assert main(["convergence", "--config", str(cfgp), "--devices", "2", "--duration-s", "30",
                 "--strategy", "srs", "--k", "20", "--workers", "1",
                 "--out", str(tmp_path / "conv")]) == 0
    assert capsys.readouterr().err == "run_errors=1 of 94\n"


def test_cli_benchmark_stops_before_any_run_on_a_graph_past_the_heart_cycle_cap(
        tmp_path, capsys, monkeypatch):
    # the heart, then 14 pairs of parallel vessels, each pair feeding both of
    # the next: 16,384 heart cycles.  Every event with a positive record would
    # fail on them alike, and one without would count as a success
    import nanoflow.benchmark as bm
    from nanoflow.vasculature import RegionType, Vessel, VesselGraph

    vessels = [Vessel(0, np.zeros(3), np.array([1.0, 0, 0]), RegionType.ARTERIAL, 20.0, [1, 2],
                      is_heart=True)]
    for i in range(28):
        nxt = i - i % 2 + 3
        vessels.append(Vessel(i + 1, np.array([i, 0.0, 0]), np.array([i + 1.0, 0, 0]),
                              RegionType.ARTERIAL, 20.0, [0] if i >= 26 else [nxt, nxt + 1]))
    save_graph(VesselGraph(vessels, heart_id=0), str(tmp_path / "graph.json"))
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"vasculature": {"graph": str(tmp_path / "graph.json")},
                                "benchmark": {"dense_size": 60, "sample_k": 20}}))
    real, calls = bm.simulate_event, []
    monkeypatch.setattr(bm, "simulate_event", lambda *a: calls.append(1) or real(*a))
    assert main(["benchmark", "--config", str(cfgp), "--devices", "4", "--duration-s", "120",
                 "--out", str(tmp_path / "bm")]) == 1
    assert capsys.readouterr().err == "error: more than 10000 heart cycles\n"
    assert calls == [] and not (tmp_path / "bm").exists()


def test_cli_rejects_zero_devices(tmp_path, capsys):
    for argv in (["simulate", "--devices", "0", "--duration-s", "10"],
                 ["benchmark", "--devices", "0", "--k", "3", "--duration-s", "10"]):
        assert main(argv + ["--out", str(tmp_path / argv[0])]) == 1
        assert capsys.readouterr().err == "error: config key device_count must be >= 1\n"
        assert not (tmp_path / argv[0]).exists()


def test_cli_convergence_checks_sizes_before_any_event_run(tmp_path, capsys, monkeypatch):
    import nanoflow.cli as cli

    def no_runs(*args, **kwargs):
        raise AssertionError("run_events called")

    monkeypatch.setattr(cli, "run_events", no_runs)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"benchmark": {"dense_size": 94}}))
    for k, message in (("20,500", "--k: sample size 500 exceeds dense population 94"),
                       ("0,20", "--k: sample size k must be >= 1"),
                       ("a", "--k must be comma-separated integers, got 'a'"),
                       (",", "--k must be comma-separated integers, got ','")):
        assert main(["convergence", "--config", str(cfgp), "--devices", "2",
                     "--duration-s", "30", "--strategy", "srs", "--k", k,
                     "--out", str(tmp_path / "conv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "conv" / "convergence.csv").exists()


@pytest.mark.parametrize("command", ["sample", "benchmark", "convergence"])
def test_cli_size_errors_name_the_key_or_flag(tmp_path, capsys, monkeypatch, command):
    # benchmark and sample take the size from benchmark.sample_k (which --k
    # sets); convergence takes its sizes from --k alone
    import nanoflow.cli as cli

    def no_runs(*args, **kwargs):
        raise AssertionError("event runs started")

    monkeypatch.setattr(cli, "run_benchmark", no_runs)
    monkeypatch.setattr(cli, "run_events", no_runs)
    k_source = "--k" if command == "convergence" else "config key benchmark.sample_k"
    for dense_size, k, message in [
            (200, "300", f"{k_source}: sample size 300 exceeds dense population 200"),
            (1368, "2000", f"{k_source}: sample size 2000 exceeds dense population 1368"),
            (5, "3", "config key benchmark.dense_size: dense size 5 is below one point per "
                     "vessel (94)")]:
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"benchmark": {"dense_size": dense_size}}))
        out = tmp_path / command
        assert main([command, "--config", str(cfgp), "--k", k, "--devices", "2",
                     "--duration-s", "30", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_cli_names_the_size_rgs_cannot_fill(tmp_path, capsys, monkeypatch):
    # six of ten dense events at one position leave rgs five distinct cells;
    # convergence learns it before the event runs, sample before any output
    import nanoflow.cli as cli
    from nanoflow.benchmark import RegionEstimate, TargetEvent

    spots = [(0.0, 0.0, 0.0)] * 6 + [(1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0),
                                     (4.0, 4.0, 0.0)]
    dense = [TargetEvent(i, np.array(p), 0, 0) for i, p in enumerate(spots)]
    monkeypatch.setattr(cli, "dense_locations", lambda graph, size: dense)
    monkeypatch.setattr(cli, "run_events", lambda graph, events, plan, **kw: (
        {30.0: [RegionEstimate(e.id, None) for e in events]}, [], {}))
    for command, source in [("sample", "config key benchmark.sample_k"), ("convergence", "--k")]:
        out = tmp_path / command
        assert main([command, "--strategy", "rgs", "--k", "8", "--devices", "2",
                     "--duration-s", "30", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {source}: rgs drew 5 events, fewer than sample size 8\n")
        assert not out.exists()


def test_cli_convergence_finds_an_unfillable_size_before_any_event_runs(tmp_path, capsys,
                                                                        monkeypatch):
    # every (strategy, k) sample depends only on the dense set and the seed:
    # seven of ten events at one position leave rgs four distinct cells
    import nanoflow.cli as cli
    from nanoflow.benchmark import TargetEvent

    spots = [(0.0, 0.0, 0.0)] * 7 + [(1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0)]
    monkeypatch.setattr(cli, "dense_locations", lambda graph, size: [
        TargetEvent(i, np.array(p), 0, 0) for i, p in enumerate(spots)])

    def no_runs(*args, **kwargs):
        raise AssertionError("run_events called")

    monkeypatch.setattr(cli, "run_events", no_runs)
    out = tmp_path / "conv"
    assert main(["convergence", "--strategy", "srs,rgs", "--k", "2,5", "--devices", "2",
                 "--duration-s", "30", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --k: rgs drew 4 events, fewer than sample size 5\n"
    assert not out.exists()


def test_cli_convergence_rejects_an_empty_strategy_list(tmp_path, capsys, monkeypatch):
    import nanoflow.cli as cli

    def no_runs(*args, **kwargs):
        raise AssertionError("run_events called")

    monkeypatch.setattr(cli, "run_events", no_runs)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"benchmark": {"dense_size": 94}}))
    for strategy in (",", "", " , ", "foo", "srs,foo"):
        assert main(["convergence", "--config", str(cfgp), "--devices", "2",
                     "--duration-s", "30", "--strategy", strategy, "--k", "20",
                     "--out", str(tmp_path / "conv")]) == 1
        assert capsys.readouterr().err == (
            f"error: --strategy must be comma-separated names from srs/ssrs/crs/rgs/scs, "
            f"got {strategy!r}\n")
        assert not (tmp_path / "conv").exists()


@pytest.mark.parametrize("command", ["sample", "benchmark"])
def test_cli_names_the_strategy_flag(tmp_path, capsys, command):
    # names are lowercase, as in a config file and the library; the error
    # names the flag, not the config key it would have set
    for strategy in ("SRS", "lhc"):
        assert main([command, "--strategy", strategy, "--k", "5",
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == (
            f"error: --strategy must be one of srs/ssrs/crs/rgs/scs, got {strategy!r}\n")
        assert not (tmp_path / "x").exists()


def test_cli_exit_codes(tmp_path, capsys):
    # unreadable config file: I/O
    assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x")]) == 2
    # config points at a graph that does not exist: config error
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"vasculature": {"graph": "/no/such.json"}}))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "x")]) == 1
    # unknown strategy
    assert main(["sample", "--strategy", "nope", "--k", "5",
                 "--out", str(tmp_path / "x")]) == 1
    # sample larger than the dense population
    assert main(["sample", "--strategy", "srs", "--k", "999999",
                 "--out", str(tmp_path / "x")]) == 1
    # malformed external estimates
    bad = tmp_path / "bad_est.csv"
    bad.write_text("event_id\n0\n")
    assert main(["benchmark", "--k", "3", "--localizer", f"external:{bad}",
                 "--out", str(tmp_path / "x")]) == 3
    # an estimates file that cannot be read: I/O, like an unreadable config
    assert main(["benchmark", "--k", "3", "--localizer", f"external:{tmp_path / 'none.csv'}",
                 "--out", str(tmp_path / "x")]) == 2
    # estimates that are not UTF-8: malformed estimates, with the file named
    binary = tmp_path / "utf16.csv"
    binary.write_bytes(b"\xff\xfee\x00v\x00")
    capsys.readouterr()
    assert main(["benchmark", "--k", "3", "--localizer", f"external:{binary}",
                 "--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err.startswith(f"error: estimates file {binary} is not UTF-8 text")
    # a config file that is not UTF-8: config error, with the file named
    p.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith(f"error: config file {p} is not valid JSON")
    # bogus localizer spec
    assert main(["benchmark", "--k", "3", "--localizer", "quantum",
                 "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        "error: --localizer must be 'baseline' or 'external:PATH', got 'quantum'\n")


def _graph_file(tmp_path, edit) -> str:
    path = tmp_path / "graph.json"
    save_graph(build_reference_vasculature(), str(path))
    raw = json.loads(path.read_text())
    edit(raw)
    path.write_text(json.dumps(raw))   # a NaN goes out as JSON's NaN literal
    return str(path)


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw["vessels"][5]["start"].__setitem__(0, float("nan")),
     r"error: vessel 5 endpoint \[nan .* is not three finite numbers"),
    (lambda raw: raw["vessels"][3].pop("speed_cm_s"),
     r"error: graph file entry vessels\[3\]\.speed_cm_s is required"),
    (lambda raw: raw["vessels"][3].update(region_type=7),
     r"error: graph file entry vessels\[3\]\.region_type: 7 is not a valid RegionType"),
    (lambda raw: raw["vessels"][3].update(id=3.7),
     r"error: graph file entry vessels\[3\]\.id: 3\.7 is not an integer"),
    (lambda raw: raw["vessels"][5].update(is_heart="no"),
     r"error: graph file entry vessels\[5\]\.is_heart: 'no' is not a boolean"),
], ids=["nan-coordinate", "missing-key", "bad-region-type", "fractional-id", "string-is-heart"])
def test_cli_names_the_bad_entry_of_a_graph_file(tmp_path, capsys, edit, message):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"vasculature": {"graph": _graph_file(tmp_path, edit)}}))
    assert main(["simulate", "--config", str(cfgp), "--devices", "4", "--duration-s", "60",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(message + "\n", err), err   # one line, no traceback
    assert not (tmp_path / "out").exists()


def test_cli_rejects_a_graph_file_that_is_not_json(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text('{"vessels": [')
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"vasculature": {"graph": str(graph)}}))
    with pytest.raises(ConfigError, match="config key vasculature.graph: .* is not valid JSON"):
        load_config(str(cfgp)).graph()
    assert main(["simulate", "--config", str(cfgp), "--devices", "4", "--duration-s", "60",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: config key vasculature\.graph: .* is not valid JSON: .*\n", err), err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_sim_times_beyond_the_duration_at_load(tmp_path, capsys, monkeypatch):
    import nanoflow.cli as cli

    def no_runs(*args, **kwargs):
        raise AssertionError("run_benchmark called")

    monkeypatch.setattr(cli, "run_benchmark", no_runs)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"benchmark": {"sim_times_s": [30, 90]}}))
    with pytest.raises(ConfigError, match=r"benchmark\.sim_times_s\[1\] must not exceed"):
        load_config(str(cfgp), overrides={"duration_s": 60.0})
    assert load_config(str(cfgp), overrides={"duration_s": 90.0}).raw["duration_s"] == 90.0
    assert main(["benchmark", "--config", str(cfgp), "--k", "3", "--devices", "2",
                 "--duration-s", "60", "--out", str(tmp_path / "bm")]) == 1
    assert capsys.readouterr().err == (
        "error: config key benchmark.sim_times_s[1] must not exceed duration_s (90 > 60.0)\n")
    assert not (tmp_path / "bm").exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_rejects_workers_below_one(tmp_path, capsys, monkeypatch, workers):
    import nanoflow.cli as cli

    def no_runs(*args, **kwargs):
        raise AssertionError("event runs started")

    monkeypatch.setattr(cli, "run_benchmark", no_runs)
    monkeypatch.setattr(cli, "run_events", no_runs)
    for command in ("benchmark", "convergence"):
        out = tmp_path / command
        assert main([command, "--workers", workers, "--k", "3", "--devices", "2",
                     "--duration-s", "30", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --workers must be >= 1, got {workers}\n"
        assert not out.exists()


def test_readme_config_listing_is_the_default_config():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        blocks = re.findall(r"^```json\n(.*?)^```$", fh.read(), re.S | re.M)
    assert len(blocks) == 1
    # dumped, so that 3 and 3.0 differ as they do in a resolved_config.json
    assert (json.dumps(json.loads(blocks[0]), sort_keys=True)
            == json.dumps(DEFAULT_CONFIG, sort_keys=True))


def test_every_command_opens_its_text_files_as_utf8(tmp_path):
    # a file opened in the locale's encoding would hold other bytes under a
    # locale that is not UTF-8, and a non-ASCII config string would then move
    # resolved_config.json and the fingerprint.  warn_default_encoding warns
    # at each such open, and -W error turns the warning into exit 1
    graph = tmp_path / "graph.json"
    save_graph(build_reference_vasculature(), str(graph))
    layers = copy.deepcopy(DEFAULT_CONFIG["channel"]["layers"])
    layers[0]["name"] = "Gef\u00e4\u00dfwand"
    plain = {"channel": {"layers": layers}, "benchmark": {"dense_size": 94}}
    for name, cfg in (("plain", plain), ("graph", {**plain, "vasculature": {"graph": str(graph)}})):
        (tmp_path / f"{name}-config.json").write_text(json.dumps(cfg), encoding="utf-8")
    small = ["--devices", "2", "--duration-s", "10"]
    runs = [("plain", ["simulate", *small]), ("plain", ["benchmark", "--k", "3", *small]),
            ("plain", ["sample", "--k", "3"]),
            ("plain", ["convergence", "--strategy", "srs", "--k", "10", *small]),
            ("graph", ["benchmark", "--k", "3", *small])]
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for i, (name, argv) in enumerate(runs):
        out = tmp_path / f"out{i}"
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "nanoflow.cli", *argv, "--config", str(tmp_path / f"{name}-config.json"),
             "--out", str(out)], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, (argv, done.stderr)
        resolved = json.loads((out / "resolved_config.json").read_text(encoding="utf-8"))
        assert resolved["channel"]["layers"][0]["name"] == "Gef\u00e4\u00dfwand"
