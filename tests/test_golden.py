"""Golden output pins: sha256 of CLI output files on small fixed runs.

Each run is sized so that the engine's rarer paths fire: some delivered
records carry event bit 1 and some responses are lost to collisions at an
anchor (the contention run also loses beacons to overlapping anchors).  The
convergence run is the pooled, batched harness: 2 workers, several events
per batch.  A changed hash means the output bytes changed; re-pinning one
is a deliberate re-baseline and is explained in CHANGES.md.
"""

import hashlib
import json

import pytest

from nanoflow.cli import main

BENCH_ARGS = ["benchmark", "--strategy", "srs", "--k", "8", "--devices", "8",
              "--duration-s", "120", "--seed", "3", "--workers", "1"]

CONTENTION = {
    "anchors": [
        {"mac": 0, "position_cm": [0.8, 0.0, 0.0], "beacon_interval_s": 0.02, "tx_power_dbm": None},
        {"mac": 1, "position_cm": [-0.8, 0.0, 0.0], "beacon_interval_s": 0.02, "tx_power_dbm": None},
        {"mac": 2, "position_cm": [0.0, 0.8, 0.0], "beacon_interval_s": 0.025, "tx_power_dbm": None},
        {"mac": 3, "position_cm": [0.0, -0.8, 0.0], "beacon_interval_s": 0.03, "tx_power_dbm": None},
    ],
    "benchmark": {"sim_times_s": [40, 80, 120]},
}

# two anchors on different beacon periods, target in the upper vena cava
SIMULATE = {
    "scenario": {"target_cm": [0.0, 7.0, -1.5]},
    "anchors": [
        {"mac": 0, "position_cm": [0.8, 0.0, 0.0], "beacon_interval_s": 0.02, "tx_power_dbm": None},
        {"mac": 1, "position_cm": [-0.8, 0.0, 0.0], "beacon_interval_s": 0.025, "tx_power_dbm": None},
    ],
}

# 200 dense events of 4 devices x 30 s on 2 workers: batches of 17 events
CONVERGENCE_ARGS = ["convergence", "--strategy", "srs,rgs", "--k", "20,60", "--devices", "4",
                    "--duration-s", "30", "--workers", "2"]

# region only, point given, wrong region, no estimate; 1104 and 1188 absent
ESTIMATES = """event_id,estimated_region,x_cm,y_cm,z_cm
116,8,,,
244,15,-1.0,14.0,1.0
247,14,,,
323,,,,
796,61,-7.0,-21.0,0.5
1094,0,,,
"""

PINS = {
    "benchmark/report.json": "515fc1ffa9369aecfb37421d5235e4031b83ff9ebb6b09c6ba31b7f48d3b5f27",
    "convergence/convergence.csv":
        "a454981d35e4cd9c2baddb34e1dda6728f7b7f94e184ddb2d3fa6eeab61a4131",
    "contention/report.json": "30f2453fa394daf488924941d6c175bf247cc0e437cc92b33bc0091eea67f66d",
    "external/report.json": "5901c640c846c2faf10c2faf5f1f2e09962cd06d9aa2d0ab34768639428d918b",
    "simulate/raw_records.csv": "2dc15775bdd9a60a9ec9fa613ea8c4f65ddc64b330df68c634ad99ec276a69b6",
    "simulate/energy.csv": "6d663e4ee0d9a50f2fb13aff86be60c4ca7c51b3bd7d64fda4ae468b6dbd36ee",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(tmp_path, name, args, config=None):
    out = tmp_path / name
    if config is not None:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        args = args + ["--config", str(cfg)]
    assert main(args + ["--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    estimates = tmp / "estimates.csv"
    estimates.write_text(ESTIMATES)
    dirs = {
        "benchmark": _run(tmp, "benchmark", BENCH_ARGS),
        "contention": _run(tmp, "contention", BENCH_ARGS, CONTENTION),
        "convergence": _run(tmp, "convergence", CONVERGENCE_ARGS,
                            {"benchmark": {"dense_size": 200}}),
        "external": _run(tmp, "external",
                         BENCH_ARGS + ["--localizer", f"external:{estimates}"]),
        "simulate": _run(tmp, "simulate", ["simulate", "--devices", "8", "--duration-s",
                                           "120", "--seed", "3"], SIMULATE),
    }
    return {key: dirs[key.split("/")[0]] / key.split("/")[1] for key in PINS}


@pytest.mark.parametrize("key", sorted(PINS))
def test_output_bytes_are_pinned(outputs, key):
    assert _sha256(outputs[key]) == PINS[key], key


def test_pinned_runs_reach_event_bits_and_collisions(outputs):
    rows = outputs["simulate/raw_records.csv"].read_text().splitlines()[1:]
    assert any(row.endswith(",1") for row in rows)
    contention = json.loads(outputs["contention/report.json"].read_text())
    assert sorted(contention["by_sim_time_s"]) == ["120", "40", "80"]
    external = json.loads(outputs["external/report.json"].read_text())
    assert external["n_total"] == 8 and external["reliability"] == 5 / 8
