"""Self-tests of the benchmark: span arithmetic, tracer hygiene, failure counting.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402


def _synthetic_trace() -> layers.Spans:
    """A command of 10 s: one nested in-process child and two overlapping workers.

    cli.main [0, 10]
      config.load_config [1, 4]
        vasculature.build_reference_vasculature [2, 3]
      benchmark.run_events [5, 9]
        benchmark.simulate_event [5, 8]       worker A
        benchmark.simulate_event [6, 9.5]     worker B, ends after its parent
    """
    rows = [  # id, parent, name, t0, t1
        (0, -1, "cli.main", 0.0, 10.0),
        (1, 0, "config.load_config", 1.0, 4.0),
        (2, 1, "vasculature.build_reference_vasculature", 2.0, 3.0),
        (3, 0, "benchmark.run_events", 5.0, 9.0),
        (7 << 32, 3, "benchmark.simulate_event", 5.0, 8.0),
        (8 << 32, 3, "benchmark.simulate_event", 6.0, 9.5),
    ]
    names = sorted({r[2] for r in rows})
    return layers.Spans([r[0] for r in rows], [r[1] for r in rows],
                        [names.index(r[2]) for r in rows], names,
                        [r[3] for r in rows], [r[4] for r in rows])


def test_self_time_subtracts_the_union_of_child_spans():
    spans = _synthetic_trace()
    assert spans.self_s("cli.main") == pytest.approx(10.0 - 3.0 - 4.0)
    assert spans.self_s("config.load_config") == pytest.approx(2.0)
    assert spans.self_s("vasculature.build_reference_vasculature") == pytest.approx(1.0)
    # overlapping workers cover [5, 9] once, clipped to the parent
    assert spans.self_s("benchmark.run_events") == pytest.approx(0.0)

    metrics = layers.layer_metrics(spans, workers=2)
    assert metrics["trace.coverage"] == pytest.approx(0.7)
    assert metrics["benchmark.simulate_event.calls"] == 2
    assert metrics["benchmark.simulate_event.s"] == pytest.approx(6.5)
    assert metrics["benchmark.run_events.busy_frac"] == pytest.approx(6.5 / (2 * 4.0))


def _layer_bindings():
    import nanoflow.cli  # noqa: F401  (loads every layer module)
    from launch import nanoflow_modules
    wanted = {f"nanoflow.{layer}": fns for layer, fns in layers.LAYERS.items()}
    originals = {id(getattr(sys.modules[m], fn)) for m, fns in wanted.items() for fn in fns}
    return {(module.__name__, attr): value for module in nanoflow_modules()
            for attr, value in vars(module).items() if id(value) in originals}


def test_wrappers_are_removed_again(tmp_path):
    import nanoflow.energy
    import nanoflow.simcore
    before = _layer_bindings()
    assert ("nanoflow.simcore", "try_consume") in before   # imported by name

    tracer = layers.Tracer(str(tmp_path))
    tracer.install()
    try:
        for (module, attr), original in before.items():
            assert getattr(sys.modules[module], attr) is not original, (module, attr)
        state = nanoflow.energy.EnergyState()
        assert nanoflow.simcore.try_consume(state, 1e-12, nanoflow.energy.EnergyConfig()) is None
    finally:
        tracer.uninstall()

    for (module, attr), original in before.items():
        assert getattr(sys.modules[module], attr) is original, (module, attr)
    assert list(tracer.names).count("energy.try_consume") == 1
    assert tracer.counters == {"energy.try_consume.refused": 1}


@pytest.mark.parametrize("traced", [False, True])
def test_untraced_process_never_imports_the_tracer(tmp_path, traced):
    mark = tmp_path / "mark.json"
    cmd = [sys.executable, str(HERE / "launch.py"), "--mark", str(mark)]
    if traced:
        cmd += ["--trace", str(tmp_path / "spans")]
    cmd += ["--", "simulate", "--devices", "2", "--duration-s", "20", "--out",
            str(tmp_path / "out")]
    subprocess.run(cmd, cwd=ROOT, env=run.child_env(), check=True, capture_output=True,
                   timeout=120)
    meta = json.loads(mark.read_text())
    assert meta["layers_imported"] is traced
    assert (meta["setup_end"] is None) is traced
    if traced:
        spans = layers.Spans.load(str(tmp_path / "spans"))
        assert len(spans.of("simcore.run_simulation")) == 1


def test_event_runs_that_fail_inside_a_successful_exit_count_as_failed(tmp_path):
    # Today this command exits 0 with accuracy 0.0: every event run raises
    # because 60.4 s of mobility covers only 60 s.
    defect = run.Workload("defect", ("benchmark", "--k", "6", "--devices", "2",
                                     "--duration-s", "60.4", "--workers", "1"),
                          events=6, devices=2, duration_s=60.4, workers=1,
                          outputs=("report.json",))
    result = run.measure(defect, seed=1, seconds=0, trace=False, work=tmp_path)
    assert result.attempted == 6 * len(result.samples)
    assert result.failed_frac == 1.0
    assert result.problems
