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

from .benchmark import (STRATEGIES, convergence_curve, convergence_samples,
                        dense_locations, export_events_csv, load_estimates_csv,
                        run_benchmark, run_events, sample_locations,
                        score_external, trace_and_run)
from .config import RunConfig, load_config
from .errors import ConfigError, ExternalDataError, NanoflowError, SampleTooLarge
from .simcore import export_energy_csv, export_raw_csv
from .vasculature import export_trace_csv, write_csv

EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_EXTERNAL = 0, 1, 2, 3


def _prepare_out(cfg: RunConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    cfg.dump(os.path.join(out_dir, "resolved_config.json"))


def _sized(source: str, draw, *args, **kwargs):
    """draw(*args, **kwargs); a SampleTooLarge it raises names the key or flag source."""
    try:
        return draw(*args, **kwargs)
    except SampleTooLarge as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _sampled_events(cfg: RunConfig, graph):
    bench = cfg.raw["benchmark"]
    dense = _sized("config key benchmark.dense_size", dense_locations, graph,
                   int(bench["dense_size"]))
    return _sized("config key benchmark.sample_k", sample_locations, dense,
                  str(bench["strategy"]), int(bench["sample_k"]), seed=cfg.seed)


def _warn_run_errors(failed: int, total: int) -> None:
    if failed:
        print(f"run_errors={failed} of {total}", file=sys.stderr)


def cmd_simulate(cfg: RunConfig, args) -> int:
    graph = cfg.graph()
    plan = cfg.plan()
    _prepare_out(cfg, args.out)
    target = cfg.raw["scenario"]["target_cm"]
    upsampled, result = trace_and_run(graph, plan, None if target is None else tuple(target),
                                      cfg.seed, (cfg.seed,), energy_rows=True)
    export_raw_csv(result.records, os.path.join(args.out, "raw_records.csv"))
    export_energy_csv(result.energy_rows, os.path.join(args.out, "energy.csv"))
    export_trace_csv(upsampled, os.path.join(args.out, "trace.csv"))
    print(f"records={len(result.records)} devices={plan.device_count} "
          f"duration_s={plan.duration_s:g}")
    return EXIT_OK


def cmd_benchmark(cfg: RunConfig, args) -> int:
    graph = cfg.graph()
    events = _sampled_events(cfg, graph)
    bench = cfg.raw["benchmark"]
    fingerprint = cfg.fingerprint()
    correct_only = bool(bench["point_error_correct_only"])
    if args.localizer == "baseline":
        report = run_benchmark(graph, events, cfg.plan(), workers=args.workers, seed=cfg.seed,
                               sim_times_s=bench["sim_times_s"],
                               config_fingerprint=fingerprint,
                               point_error_correct_only=correct_only)
    elif args.localizer.startswith("external:"):
        estimates = load_estimates_csv(args.localizer.split(":", 1)[1])
        report = score_external(estimates, events, graph,
                                config_fingerprint=fingerprint,
                                point_error_correct_only=correct_only)
    else:
        raise ConfigError(f"--localizer must be 'baseline' or 'external:PATH', "
                          f"got {args.localizer!r}")
    _prepare_out(cfg, args.out)
    export_events_csv(events, os.path.join(args.out, "events.csv"))
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _warn_run_errors(len(report.run_errors), report.n_total)
    err = report.mean_point_error_cm
    print(f"region_accuracy={report.region_accuracy:.4f} "
          f"mean_point_error_cm={'nan' if err is None else f'{err:.4f}'}")
    return EXIT_OK


def cmd_sample(cfg: RunConfig, args) -> int:
    events = _sampled_events(cfg, cfg.graph())
    _prepare_out(cfg, args.out)
    export_events_csv(events, os.path.join(args.out, "sample.csv"))
    bench = cfg.raw["benchmark"]
    print(f"sampled {len(events)} of {bench['dense_size']} locations with {bench['strategy']}")
    return EXIT_OK


def cmd_convergence(cfg: RunConfig, args) -> int:
    strategies = (list(STRATEGIES) if args.strategies is None else
                  list(dict.fromkeys(s.strip() for s in args.strategies.split(",") if s.strip())))
    if not strategies or not set(strategies) <= set(STRATEGIES):
        raise ConfigError(f"--strategy must be comma-separated names from "
                          f"{'/'.join(STRATEGIES)}, got {args.strategies!r}")
    graph = cfg.graph()
    plan = cfg.plan()
    dense = _sized("config key benchmark.dense_size", dense_locations, graph,
                   int(cfg.raw["benchmark"]["dense_size"]))
    if args.sizes is None:
        sizes = [max(1, round(len(dense) * f)) for f in (0.1, 0.25, 0.5, 0.75, 1.0)]
    else:
        try:
            sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        except ValueError:
            sizes = []
        if not sizes:
            raise ConfigError(f"--k must be comma-separated integers, got {args.sizes!r}")
    sizes = sorted(set(sizes))
    samples = {name: _sized("--k", convergence_samples, dense, name, sizes, seed=cfg.seed)
               for name in strategies}   # before the event runs, which are the whole cost
    per_time, _, errors = run_events(graph, dense, plan, workers=args.workers, seed=cfg.seed)
    (final,) = per_time.values()   # the one sim time: the plan's duration
    dense_results = list(zip(dense, final))   # dense_locations numbers events in order
    curves = [(name, convergence_curve(dense_results, name, sizes, seed=cfg.seed, graph=graph,
                                       samples=samples[name])) for name in strategies]
    _warn_run_errors(len(errors), len(dense))
    _prepare_out(cfg, args.out)
    write_csv(os.path.join(args.out, "convergence.csv"), "strategy,k,region_acc,mean_err_cm",
              (([name] * len(ks), ks, acc, err) for name, curve in curves   # acc, err are floats
               for ks, acc, err in [zip(*curve)]))
    print(f"convergence over {len(strategies)} strategies x {len(sizes)} sizes "
          f"({len(dense)} cached event runs)")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanoflow",
        description="Flow-guided nanodevice localization: simulation and benchmarking.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--seed", type=int, help="override top-level seed")
        p.add_argument("--out", metavar="DIR", default="out", help="output directory")
        p.add_argument("--duration-s", type=float, dest="duration_s",
                       help="override simulation duration")
        p.add_argument("--devices", type=int, help="override device count")
        return p

    command("simulate", cmd_simulate, "generate raw records, energy and trace CSVs")

    p_bench = command("benchmark", cmd_benchmark, "score a localizer over sampled events")
    p_bench.add_argument("--workers", type=int, default=1, help="parallel event runs")
    p_bench.add_argument("--localizer", default="baseline",
                         help="'baseline' or 'external:PATH' (estimates CSV)")

    for p in (p_bench, command("sample", cmd_sample, "emit a sampled target-location CSV")):
        p.add_argument("--strategy", help="sampling strategy override")
        p.add_argument("--k", type=int, help="sample size override")

    p_conv = command("convergence", cmd_convergence, "accuracy/error vs sample size")
    p_conv.add_argument("--workers", type=int, default=1, help="parallel event runs")
    p_conv.add_argument("--strategy", dest="strategies",
                        help="comma-separated strategies (default: all five)")
    p_conv.add_argument("--k", dest="sizes", help="comma-separated sample sizes "
                                                  "(default: 10%%..100%% of dense in five steps)")
    return parser


def _overrides_from(args) -> dict:
    over: dict = {}
    if args.seed is not None:
        over["seed"] = args.seed
    if args.duration_s is not None:
        over["duration_s"] = args.duration_s
    if args.devices is not None:
        over["device_count"] = args.devices
    if getattr(args, "strategy", None) is not None:
        if args.strategy not in STRATEGIES:
            raise ConfigError(f"--strategy must be one of {'/'.join(STRATEGIES)}, "
                              f"got {args.strategy!r}")
        over.setdefault("benchmark", {})["strategy"] = args.strategy
    if getattr(args, "k", None) is not None:
        over.setdefault("benchmark", {})["sample_k"] = args.k
    return over


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        return args.run(load_config(args.config, _overrides_from(args)), args)
    except ExternalDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXTERNAL
    except (NanoflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
