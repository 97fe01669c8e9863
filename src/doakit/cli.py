"""Command-line benchmark runner. Entry point: doa-bench.

Subcommands:
  run              SNR sweep of one algorithm/extraction pair; writes
                   summary.csv (one row per SNR) and errors.csv (per-trial
                   absolute errors for CDF plotting)
  table3           closed-form complexity report for the nine reference
                   array configurations
  compare-extract  extraction methods scored on identical populations
  sweep-pop        accuracy/cost versus population size

Precedence: the subcommand's defaults, then a JSON --config file (the schema of
ScenarioConfig.from_dict), then each flag given, which sets the field it names.
The sweep axes run --snr and sweep-pop --sizes replace snr_db and population_size.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .bench import (
    EXTRACTIONS,
    SEARCHES,
    ConfigError,
    ScenarioConfig,
    aggregate,
    complexity_cells,
    format_complexity_table,
    run_extraction_comparison,
    run_sweep,
    write_csv,
    write_errors_csv,
    write_summary_csv,
)


def _scenario_flag(parser: argparse.ArgumentParser, flag: str, name: str, text: str, **kwargs) -> None:
    """A flag that sets the ScenarioConfig field ``name``; its help names the field's default."""
    parser.add_argument(flag, dest=name, help=f"{text} (default: {getattr(ScenarioConfig, name)})", **kwargs)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="JSON scenario file (defaults: built-in scenario)")
    _scenario_flag(parser, "--seed", "master_seed", "master seed", type=int, metavar="SEED")
    _scenario_flag(parser, "--trials", "trials", "Monte Carlo trials per point", type=int)
    parser.add_argument("--out", type=Path, default=Path("results"), help="output directory (default: results)")
    parser.add_argument("--workers", type=int, default=1, help="process workers; output is order-stable (default: 1)")
    _scenario_flag(parser, "--algo", "algorithm", "search algorithm", choices=SEARCHES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doa-bench",
        description="Monte Carlo benchmarks for 2D DOA estimation (default scenario: "
        f"{ScenarioConfig.num_elements}-element UCA, {len(ScenarioConfig.source_azimuth_deg)} sources, "
        f"{ScenarioConfig.snapshots} snapshots).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="sweep SNR for one algorithm/extraction pair")
    run.set_defaults(handler=_cmd_run)
    _add_common(run)
    _scenario_flag(run, "--extract", "extraction", "peak extraction", choices=EXTRACTIONS)
    run.add_argument(
        "--snr", type=float, nargs="+", default=[-10.0, -5.0, 0.0, 5.0, 10.0], help="SNR values in dB (override snr_db)"
    )
    _scenario_flag(run, "--snapshots", "snapshots", "snapshots per trial", type=int)

    table = sub.add_parser("table3", help="closed-form complexity report (grid vs population)")
    table.set_defaults(handler=_cmd_table3)
    table.add_argument("--out", type=Path, default=None, help="also write complexity.csv to this directory")

    compare = sub.add_parser("compare-extract", help="extraction methods on identical populations")
    compare.set_defaults(handler=_cmd_compare_extract)
    _add_common(compare)
    compare.add_argument("--snr", type=float, dest="snr_db", metavar="SNR", help="SNR in dB (default: -5)")

    pop = sub.add_parser("sweep-pop", help="accuracy/cost versus population size")
    pop.set_defaults(handler=_cmd_sweep_pop)
    _add_common(pop)
    _scenario_flag(pop, "--extract", "extraction", "peak extraction", choices=EXTRACTIONS)
    pop.add_argument("--snr", type=float, dest="snr_db", metavar="SNR", help="SNR in dB (default: 0)")
    pop.add_argument("--sizes", type=int, nargs="+", default=list(range(32, 257, 32)), help="override population_size")

    return parser


def _load_config(args: argparse.Namespace, **defaults) -> ScenarioConfig:
    try:
        mapping = {} if args.config is None else json.loads(args.config.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if not isinstance(mapping, dict):
        raise ConfigError("config file must hold a JSON object")
    given = {f.name: getattr(args, f.name) for f in fields(ScenarioConfig) if getattr(args, f.name, None) is not None}
    return ScenarioConfig.from_dict(defaults | mapping | given)


def _output_files(directory: Path, *names: str) -> list[Path]:
    """The paths of the named files in ``directory``. The directory is
    created and each path checked before any trial runs, so that an output
    that cannot be written fails at once instead of after the sweep."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {directory}: {exc.strerror or exc}") from exc
    paths = [directory / name for name in names]
    for path in paths:
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        if not os.access(path if path.exists() else directory, os.W_OK):
            raise ConfigError(f"cannot write {path}: permission denied")
    return paths


def _cmd_run(args) -> int:
    config = _load_config(args)
    summary_path, errors_path = _output_files(args.out, "summary.csv", "errors.csv")
    aggregates, reports = run_sweep(config, args.snr, workers=args.workers)
    write_summary_csv(aggregates, summary_path)
    write_errors_csv(config, reports, errors_path)
    for agg in aggregates:
        print(
            f"snr={agg.snr_db:+6.1f} dB  success={agg.success_rate:6.1%}  "
            f"mae_theta={agg.mae_theta_deg:7.3f}  mae_phi={agg.mae_phi_deg:7.3f}  "
            f"model={agg.model_mflops:.2f} MFLOPs"
        )
    print(f"wrote {summary_path} and {errors_path}")
    return 0


def _cmd_table3(args) -> int:
    path = None if args.out is None else _output_files(args.out, "complexity.csv")[0]
    cells = complexity_cells()
    print(format_complexity_table(cells))
    if path is not None:
        write_csv(path, cells[0].keys(), map(dict.values, cells))
        print(f"wrote {path}")
    return 0


def _cmd_compare_extract(args) -> int:
    config = _load_config(args, snr_db=-5.0)
    (path,) = _output_files(args.out, "extraction_comparison.csv")
    by_method = run_extraction_comparison(config, workers=args.workers)
    rows = []
    for method, reports in by_method.items():
        agg = aggregate(replace(config, extraction=method), reports)
        failures = sum(1 for r in reports if not r.success)
        rows.append([method, config.snr_db, len(reports), failures, agg.success_rate, agg.mae_theta_deg, agg.mae_phi_deg])
        print(f"{method:10s} failures={failures:4d}/{len(reports)}  mae_phi={agg.mae_phi_deg:7.3f}")
    columns = ("extraction", "snr_db", "trials", "failures", "success_rate", "mae_theta_deg", "mae_phi_deg")
    write_csv(path, columns, rows)
    print(f"wrote {path}")
    return 0


def _cmd_sweep_pop(args) -> int:
    config = _load_config(args, snr_db=0.0)
    (path,) = _output_files(args.out, "population_sweep.csv")
    aggregates = run_sweep(config, args.sizes, workers=args.workers, field="optimizer.population_size")[0]
    columns = ("snr_db", "trials", "success_rate", "mae_theta_deg", "mae_phi_deg", "model_mflops", "flops_ratio_vs_grid")
    rows = []
    for size, agg in zip(args.sizes, aggregates):
        rows.append([size, *(getattr(agg, column) for column in columns)])
        print(
            f"N={size:4d}  success={agg.success_rate:6.1%}  mae_theta={agg.mae_theta_deg:7.3f}  "
            f"mae_phi={agg.mae_phi_deg:7.3f}  cost={agg.flops_ratio_vs_grid:.2f}x grid"
        )
    write_csv(path, ("population_size", *columns), rows)
    print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
