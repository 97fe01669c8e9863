"""Command-line benchmark runner. Entry point: doa-bench.

Subcommands:
  run              SNR sweep of one algorithm/extraction pair; writes
                   summary.csv (one row per SNR) and errors.csv (per-trial
                   absolute errors for CDF plotting)
  table3           closed-form complexity report for the nine reference
                   array configurations
  compare-extract  extraction methods scored on identical populations
  sweep-pop        accuracy/cost versus population size

Configuration comes from defaults, then an optional JSON --config file
(schema: ScenarioConfig field names, optimizer settings nested under
"optimizer"), then explicit flags, in that order of precedence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
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
    run_population_sweep,
    run_sweep,
    write_csv,
    write_errors_csv,
    write_summary_csv,
)
from .optimizer import ALGORITHMS


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="JSON scenario file (defaults: built-in scenario)")
    parser.add_argument("--seed", type=int, default=None, help="master seed (default: 0 or config value)")
    parser.add_argument("--trials", type=int, default=None, help="Monte Carlo trials per point (default: 1000)")
    parser.add_argument("--out", type=Path, default=Path("results"), help="output directory (default: results)")
    parser.add_argument("--workers", type=int, default=1, help="process workers; output is order-stable (default: 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doa-bench",
        description="Monte Carlo benchmarks for 2D DOA estimation "
        "(default scenario: 12-element UCA, three sources, 100 snapshots).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="sweep SNR for one algorithm/extraction pair")
    run.set_defaults(handler=_cmd_run)
    _add_common(run)
    run.add_argument("--algo", choices=SEARCHES, default=None, help="search algorithm (default: denm)")
    run.add_argument("--extract", choices=EXTRACTIONS, default=None, help="peak extraction (default: dbscan)")
    run.add_argument("--snr", type=float, nargs="+", default=[-10.0, -5.0, 0.0, 5.0, 10.0], help="SNR values in dB")
    run.add_argument("--snapshots", type=int, default=None, help="snapshots per trial (default: 100)")

    table = sub.add_parser("table3", help="closed-form complexity report (grid vs population)")
    table.set_defaults(handler=_cmd_table3)
    table.add_argument("--out", type=Path, default=None, help="also write complexity.csv to this directory")

    compare = sub.add_parser("compare-extract", help="extraction methods on identical populations")
    compare.set_defaults(handler=_cmd_compare_extract)
    _add_common(compare)
    compare.add_argument("--algo", choices=ALGORITHMS, default=None)
    compare.add_argument("--snr", type=float, default=-5.0, help="SNR in dB (default: -5)")

    pop = sub.add_parser("sweep-pop", help="accuracy/cost versus population size")
    pop.set_defaults(handler=_cmd_sweep_pop)
    _add_common(pop)
    pop.add_argument("--algo", choices=ALGORITHMS, default=None)
    pop.add_argument("--extract", choices=EXTRACTIONS, default=None)
    pop.add_argument("--snr", type=float, default=0.0, help="SNR in dB (default: 0)")
    pop.add_argument("--sizes", type=int, nargs="+", default=[32, 64, 96, 128, 160, 192, 224, 256])

    return parser


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    mapping: dict = {}
    if getattr(args, "config", None) is not None:
        try:
            mapping = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(mapping, dict):
            raise ConfigError("config file must hold a JSON object")
    overrides = {
        "master_seed": getattr(args, "seed", None),
        "trials": getattr(args, "trials", None),
        "algorithm": getattr(args, "algo", None),
        "extraction": getattr(args, "extract", None),
        "snapshots": getattr(args, "snapshots", None),
    }
    for key, value in overrides.items():
        if value is not None:
            mapping[key] = value
    return ScenarioConfig.from_dict(mapping)


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
        columns = ("M", "L", "music_mflops", "population_mflops", "ratio")
        write_csv(path, columns, ([cell[column] for column in columns] for cell in cells))
        print(f"wrote {path}")
    return 0


def _cmd_compare_extract(args) -> int:
    config = replace(_load_config(args), snr_db=args.snr)
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
    config = replace(_load_config(args), snr_db=args.snr)
    (path,) = _output_files(args.out, "population_sweep.csv")
    aggregates = run_population_sweep(config, args.sizes, workers=args.workers)
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
