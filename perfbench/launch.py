"""Run one nanoflow CLI command in this process and note where its set-up ends.

    python3 perfbench/launch.py --mark FILE [--trace DIR] -- <nanoflow arguments>

The package is imported from ``src/`` of the checkout this file sits in.
FILE receives a JSON object with the ``time.monotonic()`` reading at the
first call into an event run (``setup_end``), this process's own peak
resident set (``self_hwm_kib``) and whether the layer tracer was loaded.
Without ``--trace`` the tracer module is never imported; with it, every
layer function is wrapped (see ``layers.py``) and the spans go to DIR.
The exit code is the command's own.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The first call into any of these starts the event phase: set-up is over.
EVENT_ENTRY_POINTS = (("benchmark", "run_events"), ("vasculature", "simulate_mobility"))


def nanoflow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nanoflow" or name.startswith("nanoflow."))]


def rebind(original, replacement) -> list[tuple[object, str]]:
    """Point every nanoflow module-level name bound to ``original`` at ``replacement``.

    Modules import functions by name from each other, so one function can be
    reachable under several module globals; all of them are rebound.
    Returns the (module, attribute) pairs that were changed.
    """
    changed = []
    for module in nanoflow_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


def _mark_setup_end() -> dict[str, float]:
    """Note the ``time.monotonic()`` reading of the first event-phase call.

    The event phase starts in this process (pool workers are forked inside
    ``run_events``), so the returned dict holds this process's first call.
    """
    mark: dict[str, float] = {}
    for module_name, fn_name in EVENT_ENTRY_POINTS:
        original = getattr(sys.modules[f"nanoflow.{module_name}"], fn_name)

        def first_call(*args, _original=original, **kwargs):
            mark.setdefault("setup_end", time.monotonic())
            return _original(*args, **kwargs)

        rebind(original, first_call)
    return mark


def hwm_kib(pid: int | str = "self") -> int:
    """Peak resident set of a process in KiB; 0 once it has gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: launch.py --mark FILE [--trace DIR] -- <nanoflow arguments>",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    opts, command = argv[:split], argv[split + 1:]
    mark = opts[opts.index("--mark") + 1]
    trace_dir = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    sys.path.insert(0, str(ROOT / "src"))
    import nanoflow.cli
    if not Path(nanoflow.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported nanoflow from {nanoflow.cli.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    tracer = None
    setup = {}
    if trace_dir is None:
        setup = _mark_setup_end()
    else:
        import layers
        tracer = layers.Tracer(trace_dir)
        tracer.install()
    try:
        code = nanoflow.cli.main(command)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump("main")
    with open(mark, "w") as fh:
        json.dump({"setup_end": setup.get("setup_end"), "self_hwm_kib": hwm_kib(),
                   "layers_imported": "layers" in sys.modules}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
