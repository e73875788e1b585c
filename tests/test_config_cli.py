"""Config resolution/validation and the command-line front end."""

import copy
import json
import os
import re

import numpy as np
import pytest

from nanoflow.cli import main
from nanoflow.config import DEFAULT_CONFIG, RunConfig, load_config
from nanoflow.errors import ConfigError


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_defaults_resolve_and_validate():
    cfg = load_config()
    assert cfg.plan().duration_s == 1000.0
    assert cfg.plan().device_count == 64
    assert cfg.seed == 1
    e = cfg.energy_config()
    assert e.e_max == pytest.approx(800e-12)
    assert e.v_g == 0.42
    c = cfg.channel_config()
    assert c.f_c == pytest.approx(1e12)
    assert c.bandwidth == pytest.approx(10e9)
    assert [l.name for l in c.layers] == ["vessel_wall", "tissue", "skin"]


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


@pytest.mark.parametrize("channel", [
    {"bandwidth_ghz": 0}, {"f_c_thz": 0}, {"spectral_efficiency_bits_per_hz": -0.5},
    {"f_c_thz": 1e300},   # overflows to an infinite carrier in Hz
    {"layers": [{"name": "skin", "thickness_cm": -0.1, "atten_db_per_cm": 20.0}]},
    {"layers": [{"name": "skin", "thickness_cm": 0.1, "atten_db_per_cm": -1.0}]},
])
def test_channel_ranges_are_checked(tmp_path, capsys, channel):
    with pytest.raises(ConfigError, match="config section channel: "):
        load_config(None, overrides={"channel": channel})
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"channel": channel}))
    assert main(["simulate", "--config", str(p), "--devices", "2", "--duration-s", "20",
                 "--out", str(tmp_path / "out")]) == 1
    assert "config section channel: " in capsys.readouterr().err


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


def test_cli_convergence(tmp_path):
    out = tmp_path / "conv"
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"benchmark": {"dense_size": 94},
                                "device_count": 2, "duration_s": 30.0}))
    rc = main(["convergence", "--config", str(cfgp), "--strategy", "srs,rgs",
               "--k", "20,94,94", "--out", str(out)])
    assert rc == 0
    lines = read(out / "convergence.csv").splitlines()
    assert lines[0] == "strategy,k,region_acc,mean_err_cm"
    # two strategies x two deduplicated sizes
    assert len(lines) == 1 + 4
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


def test_cli_reports_some_failed_event_runs(tmp_path, capsys, monkeypatch):
    import nanoflow.benchmark as bm

    real, calls = bm.simulate_event, []

    def first_fails(graph, plan, event, seed):
        calls.append(event.id)
        if len(calls) == 1:
            raise RuntimeError("synthetic failure")
        return real(graph, plan, event, seed)

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


def test_cli_exit_codes(tmp_path):
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
    # bogus localizer spec
    assert main(["benchmark", "--k", "3", "--localizer", "quantum",
                 "--out", str(tmp_path / "x")]) == 1


def test_cli_workers_env(tmp_path, monkeypatch, capsys):
    out = tmp_path / "bm"
    monkeypatch.setenv("NANOFLOW_WORKERS", "2")
    rc = main(["benchmark", "--strategy", "rgs", "--k", "3", "--devices", "4",
               "--duration-s", "60", "--seed", "3", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    for bad, message in (("0", "NANOFLOW_WORKERS must be >= 1, got 0"),
                         ("abc", "NANOFLOW_WORKERS must be an integer, got 'abc'")):
        monkeypatch.setenv("NANOFLOW_WORKERS", bad)
        assert main(["benchmark", "--strategy", "rgs", "--k", "3",
                     "--out", str(tmp_path / "y")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
