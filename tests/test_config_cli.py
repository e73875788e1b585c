"""Config resolution/validation and the command-line front end."""

import json
import os

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
    assert cfg.duration_s == 1000.0
    assert cfg.device_count == 64
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
    assert cfg.device_count == 8
    assert cfg.seed == 99
    assert cfg.sense_rate_hz == 1
    # untouched sections keep their defaults
    assert cfg.duration_s == DEFAULT_CONFIG["duration_s"]


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
