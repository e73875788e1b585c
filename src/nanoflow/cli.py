"""Command-line front end: simulate, benchmark, sample, convergence.

Exit codes: 0 success, 1 configuration error (the message names the
offending key) or every event run of benchmark/convergence failed, 2 I/O
error, 3 malformed external-estimate data.  When only some event runs
fail, those commands print run_errors=N of M to stderr and exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .benchmark import (STRATEGIES, convergence_curve, dense_locations,
                        export_events_csv, load_estimates_csv, run_benchmark,
                        run_events, sample_locations, score_external,
                        trace_and_run)
from .config import RunConfig, load_config
from .errors import (ConfigError, ConfigMismatch, EmptyTrace, EventRunsFailed,
                     ExternalDataError, InvalidGraph, MismatchedSets,
                     SampleTooLarge)
from .simcore import export_energy_csv, export_raw_csv
from .vasculature import export_trace_csv

EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_EXTERNAL = 0, 1, 2, 3


def _prepare_out(cfg: RunConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    cfg.dump(os.path.join(out_dir, "resolved_config.json"))


def _sampled_events(cfg: RunConfig, graph, strategy: str, k: int):
    dense = dense_locations(graph, int(cfg.raw["benchmark"]["dense_size"]))
    return dense, sample_locations(dense, strategy, k, seed=cfg.seed)


def _warn_run_errors(failed: int, total: int) -> None:
    if failed:
        print(f"run_errors={failed} of {total}", file=sys.stderr)


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    graph = cfg.graph()
    plan = cfg.plan()
    _prepare_out(cfg, out_dir)
    target = cfg.raw["scenario"]["target_cm"]
    upsampled, result = trace_and_run(graph, plan, None if target is None else tuple(target),
                                      cfg.seed, (cfg.seed,), energy_rows=True)
    export_raw_csv(result.records, os.path.join(out_dir, "raw_records.csv"))
    export_energy_csv(result.energy_rows, os.path.join(out_dir, "energy.csv"))
    export_trace_csv(upsampled, os.path.join(out_dir, "trace.csv"))
    print(f"records={len(result.records)} devices={plan.device_count} "
          f"duration_s={plan.duration_s:g}")
    return EXIT_OK


def cmd_benchmark(cfg: RunConfig, localizer: str, workers: int, out_dir: str) -> int:
    graph = cfg.graph()
    bench = cfg.raw["benchmark"]
    strategy = str(bench["strategy"])
    k = int(bench["sample_k"])
    _, events = _sampled_events(cfg, graph, strategy, k)
    fingerprint = cfg.fingerprint()
    correct_only = bool(bench["point_error_correct_only"])
    if localizer == "baseline":
        report = run_benchmark(graph, events, cfg.plan(), workers=workers, seed=cfg.seed,
                               sim_times_s=bench["sim_times_s"],
                               config_fingerprint=fingerprint,
                               point_error_correct_only=correct_only)
    elif localizer.startswith("external:"):
        estimates = load_estimates_csv(localizer.split(":", 1)[1])
        report = score_external(estimates, events, graph,
                                config_fingerprint=fingerprint,
                                point_error_correct_only=correct_only)
    else:
        raise ConfigError("config key localizer must be 'baseline' or 'external:PATH'")
    _prepare_out(cfg, out_dir)
    export_events_csv(events, os.path.join(out_dir, "events.csv"))
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _warn_run_errors(len(report.run_errors), report.n_total)
    err = report.mean_point_error_cm
    print(f"region_accuracy={report.region_accuracy:.4f} "
          f"mean_point_error_cm={'nan' if err is None else f'{err:.4f}'}")
    return EXIT_OK


def cmd_sample(cfg: RunConfig, strategy: str, k: int, out_dir: str) -> int:
    graph = cfg.graph()
    _, events = _sampled_events(cfg, graph, strategy, k)
    _prepare_out(cfg, out_dir)
    export_events_csv(events, os.path.join(out_dir, "sample.csv"))
    print(f"sampled {len(events)} of {cfg.raw['benchmark']['dense_size']} "
          f"locations with {strategy}")
    return EXIT_OK


def cmd_convergence(cfg: RunConfig, strategies: list[str], sizes: list[int],
                    workers: int, out_dir: str) -> int:
    graph = cfg.graph()
    plan = cfg.plan()
    dense = dense_locations(graph, int(cfg.raw["benchmark"]["dense_size"]))
    for name in strategies:
        if name not in STRATEGIES:
            raise ConfigError(
                f"config key benchmark.strategy must be one of {'/'.join(STRATEGIES)}, "
                f"got {name!r}")
    sizes = sorted(set(int(s) for s in sizes))
    sim_times, raw = run_events(graph, dense, plan, workers=workers, seed=cfg.seed)
    final_t = sim_times[-1]
    by_id = {ev.id: ev for ev in dense}
    dense_results = [(by_id[eid], estimates[final_t]) for eid, estimates, _, _ in raw]
    _warn_run_errors(sum(err is not None for _, _, _, err in raw), len(raw))
    _prepare_out(cfg, out_dir)
    with open(os.path.join(out_dir, "convergence.csv"), "w") as fh:
        fh.write("strategy,k,region_acc,mean_err_cm\n")
        for name in strategies:
            for k, acc, err in convergence_curve(dense_results, name, sizes,
                                                 seed=cfg.seed, graph=graph):
                fh.write(f"{name},{k},{acc:.6f},{err:.6f}\n")
    print(f"convergence over {len(strategies)} strategies x {len(sizes)} sizes "
          f"({len(dense)} cached event runs)")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanoflow",
        description="Flow-guided nanodevice localization: simulation and benchmarking.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--seed", type=int, help="override top-level seed")
        p.add_argument("--out", metavar="DIR", default="out", help="output directory")
        p.add_argument("--duration-s", type=float, dest="duration_s",
                       help="override simulation duration")
        p.add_argument("--devices", type=int, help="override device count")

    p_sim = sub.add_parser("simulate", help="generate raw records, energy and trace CSVs")
    common(p_sim)

    p_bench = sub.add_parser("benchmark", help="score a localizer over sampled events")
    common(p_bench)
    p_bench.add_argument("--workers", type=int, help="parallel event runs")
    p_bench.add_argument("--localizer", default="baseline",
                         help="'baseline' or 'external:PATH' (estimates CSV)")
    p_bench.add_argument("--strategy", help="sampling strategy override")
    p_bench.add_argument("--k", type=int, help="sample size override")

    p_sample = sub.add_parser("sample", help="emit a sampled target-location CSV")
    common(p_sample)
    p_sample.add_argument("--strategy", help="sampling strategy override")
    p_sample.add_argument("--k", type=int, help="sample size override")

    p_conv = sub.add_parser("convergence", help="accuracy/error vs sample size")
    common(p_conv)
    p_conv.add_argument("--workers", type=int, help="parallel event runs")
    p_conv.add_argument("--strategy", help="comma-separated strategies "
                                           "(default: all five)")
    p_conv.add_argument("--k", help="comma-separated sample sizes "
                                    "(default: 10%%..100%% of dense in five steps)")
    return parser


def _resolve_workers(args) -> int:
    workers, source = getattr(args, "workers", None), "--workers"
    if workers is None:
        env = os.environ.get("NANOFLOW_WORKERS")
        if not env:
            return 1
        source = "NANOFLOW_WORKERS"
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"NANOFLOW_WORKERS must be an integer, got {env!r}") from None
    if workers < 1:
        raise ConfigError(f"{source} must be >= 1, got {workers}")
    return workers


def _overrides_from(args) -> dict:
    over: dict = {}
    if args.seed is not None:
        over["seed"] = args.seed
    if args.duration_s is not None:
        over["duration_s"] = args.duration_s
    if args.devices is not None:
        over["device_count"] = args.devices
    strategy = getattr(args, "strategy", None)
    if strategy is not None and args.command != "convergence":
        over.setdefault("benchmark", {})["strategy"] = strategy
    k = getattr(args, "k", None)
    if k is not None and args.command != "convergence":
        over.setdefault("benchmark", {})["sample_k"] = int(k)
    return over


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides_from(args))
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "benchmark":
            return cmd_benchmark(cfg, args.localizer, _resolve_workers(args), args.out)
        if args.command == "sample":
            bench = cfg.raw["benchmark"]
            return cmd_sample(cfg, str(bench["strategy"]), int(bench["sample_k"]),
                              args.out)
        if args.command == "convergence":
            names = (list(STRATEGIES) if args.strategy is None
                     else [s.strip() for s in args.strategy.split(",") if s.strip()])
            dense_size = int(cfg.raw["benchmark"]["dense_size"])
            if args.k is None:
                sizes = [max(1, round(dense_size * f)) for f in (0.1, 0.25, 0.5, 0.75, 1.0)]
            else:
                sizes = [int(s) for s in str(args.k).split(",") if s.strip()]
            return cmd_convergence(cfg, names, sizes, _resolve_workers(args), args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ExternalDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXTERNAL
    except (ConfigError, ConfigMismatch, InvalidGraph, SampleTooLarge,
            MismatchedSets, EmptyTrace, EventRunsFailed, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
