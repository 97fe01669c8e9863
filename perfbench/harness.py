"""Workloads, closed loop, correctness checks and metrics of the benchmark.

One caller in one process drives ``doakit.bench.run_trial`` back to back: the
next trial starts when the previous one returns. Trial k of a run uses the
k-th entry of the SNR sweep (cyclically) and trial index k // 5, so every
SNR sees the same per-trial seeds, as in ``doakit.bench.run_sweep``. A run
ends on a whole SNR cycle once ``seconds`` have passed and, untraced, once
the first ``ACCURACY_TRIALS`` trials are done: the accuracy metrics and the
outputs digest cover exactly those, so they are a function of the seed alone.
Reported times are scaled to reference-host speed by ``speed.SpeedGauge``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import doakit
from doakit.bench import ScenarioConfig, TrialReport, aggregate, run_trial, write_errors_csv, write_summary_csv
from doakit.music import flops_music, flops_population
from doakit.optimizer import SearchBox

from speed import REFERENCE_KERNEL_MS, SpeedGauge
from tracing import Tracer, layer_metrics, traced_trial

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SNRS_DB = (-10.0, -5.0, 0.0, 5.0, 10.0)
# Why each workload is here: README.md, "Workloads".
WORKLOADS = {
    "denm-m12": {"num_elements": 12, "algorithm": "denm"},
    "grid-m12": {"num_elements": 12, "algorithm": "grid"},
    "denm-m128": {"num_elements": 128, "algorithm": "denm"},
}
SETUP_PROBES = 5
# Kernel samples taken right before each set-up probe, to scale that probe.
PROBE_GAUGE_SAMPLES = 3
# 30 trials per SNR; denm-m128, the slowest workload, runs them in about 25 s.
ACCURACY_TRIALS = 150
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "success_rate": "fraction",
    "mae_theta_deg": "deg",
    "mae_phi_deg": "deg",
    "peak_rss_mb": "MB",
}


def workload_configs(workload: str, seed: int) -> list[ScenarioConfig]:
    """One scenario per SNR of the sweep: reference sources, 100 snapshots,
    default DEConfig, DBSCAN extraction for the population search."""
    return [
        ScenarioConfig(snr_db=snr, master_seed=seed, extraction="dbscan", **WORKLOADS[workload]) for snr in SNRS_DB
    ]


def scheduled(configs: list[ScenarioConfig], k: int) -> tuple[ScenarioConfig, int]:
    return configs[k % len(configs)], k // len(configs)


def expected_evaluations(config: ScenarioConfig) -> int:
    if config.algorithm == "grid":
        return config.grid_spec().num_points
    return config.optimizer.population_size * (config.optimizer.max_iterations + 1)


def check_report(config: ScenarioConfig, report: TrialReport) -> list[str]:
    """Invariants every trial must satisfy; an empty list means it passed."""
    problems = []
    expected = expected_evaluations(config)
    if report.measured_evals != expected:
        problems.append(f"measured_evals {report.measured_evals}, expected {expected}")
    positions = np.array([(e.azimuth_deg, e.elevation_deg) for e in report.estimates], dtype=float).reshape(-1, 2)
    if not SearchBox().contains(positions):
        problems.append(f"estimate outside the search box: {positions.tolist()}")
    if len(report.estimates) > len(config.source_azimuth_deg):
        problems.append(f"{len(report.estimates)} estimates for {len(config.source_azimuth_deg)} sources")
    return problems


@dataclass
class Outcome:
    """One trial of the closed loop. ``report`` is None when run_trial raised."""

    snr_db: float
    trial_index: int
    ms: float
    report: TrialReport | None
    problems: list[str]

    @property
    def failed(self) -> bool:
        return self.report is None or bool(self.problems)


def timed_trial(config: ScenarioConfig, trial_index: int) -> Outcome:
    started = time.perf_counter()
    try:
        report = run_trial(config, trial_index)
    except Exception:  # a raising trial is counted as failed; the loop goes on
        ms = (time.perf_counter() - started) * 1e3
        return Outcome(config.snr_db, trial_index, ms, None, [traceback.format_exc(limit=3)])
    ms = (time.perf_counter() - started) * 1e3
    return Outcome(config.snr_db, trial_index, ms, report, check_report(config, report))


def traced_or_error(tracer: Tracer, config: ScenarioConfig, trial_index: int):
    """The traced trial, or the traceback text when it raised."""
    try:
        return traced_trial(tracer, config, trial_index)
    except Exception:  # reported against the trial by the caller
        return traceback.format_exc(limit=3)


def closed_loop(configs: list[ScenarioConfig], seconds: float, min_trials: int, step, gauge: SpeedGauge) -> float:
    """Call ``step(k)`` for k = 0, 1, ... until ``seconds`` have passed, at
    least ``min_trials`` ran and the SNR cycle is whole, sampling the gauge
    between trials. Returns the loop's seconds minus the gauge's."""
    started = time.perf_counter()
    gauge_before = gauge.busy_s
    deadline = started + seconds
    k = 0
    while k % len(configs) or k < min_trials or time.perf_counter() < deadline:
        step(k)
        k += 1
        gauge.due()
    return time.perf_counter() - started - (gauge.busy_s - gauge_before)


def outputs_digest(outcomes: list[Outcome]) -> str:
    """SHA-256 over every determinism-covered output of the given trials
    (estimates, errors, success, shortfall, evaluations, model FLOPs)."""
    digest = hashlib.sha256()
    for outcome in outcomes:
        report = outcome.report
        if report is None:
            digest.update(f"{outcome.snr_db}|{outcome.trial_index}|raised\n".encode())
            continue
        fields = [
            outcome.snr_db,
            report.trial,
            [(e.azimuth_deg, e.elevation_deg, e.fitness, e.cluster_id) for e in report.estimates],
            report.match.truth_indices.tolist(),
            report.match.theta_errors_deg.tolist(),
            report.match.phi_errors_deg.tolist(),
            report.shortfall,
            report.success,
            report.measured_evals,
            report.model_flops,
        ]
        digest.update((repr(fields) + "\n").encode())
    return digest.hexdigest()


def warm_up(workload: str, seed: int) -> list[ScenarioConfig]:
    """Build the workload and run one untimed trial, so lazy set-up is done."""
    configs = workload_configs(workload, seed)
    run_trial(*scheduled(configs, 0))
    return configs


def setup_probe(workload: str, seed: int) -> int:
    """Child side of a set-up sample: report on stdout once the warm-up is done."""
    warm_up(workload, seed)
    print("ready", flush=True)
    return 0


def setup_samples(workload: str, seed: int, count: int, gauge: SpeedGauge) -> list[float]:
    """Seconds from starting a fresh interpreter on this benchmark to the end
    of its warm-up trial, once per child process, one child at a time, each
    scaled by gauge samples taken right before it."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(count):
        factor = gauge.factor(gauge.sample(PROBE_GAUGE_SAMPLES))
        started = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            returncode = child.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {returncode}")
        samples.append(elapsed * factor)
    return samples


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end_metrics(configs, outcomes: list[Outcome], elapsed_s: float, setup_s: list[float], factor: float):
    """Metric name -> (value, sample count). Times are scaled by ``factor``.
    Accuracy covers the first ACCURACY_TRIALS trials: success is the
    harness's rule, a trial that raised counts as unsuccessful, and MAE pools
    the sweep and is success-conditioned, as summary.csv's mae_* columns."""
    times = [o.ms * factor for o in outcomes]
    scored = outcomes[:ACCURACY_TRIALS]
    reports = [o.report for o in scored if o.report is not None]
    pooled = aggregate(configs[0], reports)
    successes = [r for r in reports if r.success]
    pairs = sum(len(r.match.truth_indices) for r in successes)
    return {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "trials_per_s": (len(outcomes) / (elapsed_s * factor), len(outcomes)),
        "trial_ms_p50": (percentile(times, 50), len(times)),
        "trial_ms_p90": (percentile(times, 90), len(times)),
        "success_rate": (len(successes) / len(scored), len(scored)),
        "mae_theta_deg": (pooled.mae_theta_deg, pairs),
        "mae_phi_deg": (pooled.mae_phi_deg, pairs),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def export(configs, outcomes: list[Outcome], out_dir: Path) -> float:
    """The harness's own output step, once: per-SNR aggregates plus both CSV
    writers. Returns its wall time in milliseconds."""
    started = time.perf_counter()
    by_snr = {c.snr_db: [o.report for o in outcomes if o.snr_db == c.snr_db and o.report] for c in configs}
    aggregates = [aggregate(c, by_snr[c.snr_db]) for c in configs if by_snr[c.snr_db]]
    write_summary_csv(aggregates, out_dir / "summary.csv")
    write_errors_csv(configs[0], by_snr, out_dir / "errors.csv")
    return (time.perf_counter() - started) * 1e3


def blas_manifest(threads_pinned: int) -> dict:
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    reported = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        library = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(library, symbol):
                query = getattr(library, symbol)
                query.restype = ctypes.c_int
                reported = int(query())
                break
    return {
        "library": f"{build.get('name')} {build.get('version')}",
        "threads_pinned": threads_pinned,
        "threads_reported": reported,
    }


def git_revision() -> str:
    try:
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = result.stdout.split()
    if result.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def manifest(workload: str, seed: int, trace: bool, threads_pinned: int, samples: dict, gauge: SpeedGauge) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "loop": "closed, one caller, one process",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_manifest(threads_pinned),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "doakit": doakit.__version__,
        "git_revision": git_revision(),
        "speed": {
            "reference_kernel_ms": REFERENCE_KERNEL_MS,
            "kernel_ms_median": statistics.median(gauge.samples_ms),
            "kernel_samples": len(gauge.samples_ms),
            "factor": gauge.factor(),
        },
        "samples": samples,
    }


def paper_claim_lines(workload: str, configs, outcomes: list[Outcome], trial_ms_p50: float) -> list[str]:
    """The closed-form cost model next to what this run measured. Reported, not gated."""
    model = configs[0].flop_model()
    model_ratio = flops_population(model) / flops_music(model)
    measured_evals = statistics.median(o.report.measured_evals for o in outcomes if o.report)
    model_evals = model.grid_points if configs[0].algorithm == "grid" else model.max_iterations * model.population_size
    lines = [
        f"paper claim (reported, not gated): model flops_population/flops_music at M={model.num_sensors}: "
        f"{model_ratio:.3f}",
        f"  spectrum evaluations per trial: measured {measured_evals:g}, model {model_evals}"
        + ("" if configs[0].algorithm == "grid" else " (the model leaves out the initial population)"),
    ]
    pair = {"denm-m12": "grid-m12", "grid-m12": "denm-m12"}.get(workload)
    if pair is None:
        return lines
    earlier = sorted(OUT_DIR.glob(f"{pair}-seed*-trace0/result.json"), key=lambda p: p.stat().st_mtime)
    if not earlier:
        lines.append(f"  measured trial_ms_p50 denm-m12/grid-m12: needs a {pair} run in this checkout")
        return lines
    other = json.loads(earlier[-1].read_text())
    other_p50 = other["metrics"]["trial_ms_p50"]["value"]
    denm, grid = (trial_ms_p50, other_p50) if workload == "denm-m12" else (other_p50, trial_ms_p50)
    lines.append(
        f"  measured trial_ms_p50 denm-m12/grid-m12: {denm / grid:.3f} "
        f"({pair} from {earlier[-1].parent.name})"
    )
    return lines


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit:<8} n={samples}")


def run(workload: str, seed: int, seconds: float, trace: bool, threads_pinned: int) -> int:
    gauge = SpeedGauge()
    setup_s = [] if trace else setup_samples(workload, seed, SETUP_PROBES, gauge)
    configs = warm_up(workload, seed)
    out_dir = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    out_dir.mkdir(parents=True, exist_ok=True)
    outcomes: list[Outcome] = []

    if trace:
        tracer = Tracer()
        traced = {}

        def step(k: int) -> None:
            config, index = scheduled(configs, k)
            tracer.trial = k
            # Alternate which of the pair runs first, so cache warmth favours neither.
            result = traced_or_error(tracer, config, index) if k % 2 else None
            outcome = timed_trial(config, index)
            if result is None:
                result = traced_or_error(tracer, config, index)
            outcomes.append(outcome)
            if outcome.report is None:
                return
            if isinstance(result, str):
                outcome.problems.append("traced trial raised:\n" + result)
            elif result.estimates != outcome.report.estimates or result.evals != outcome.report.measured_evals:
                outcome.problems.append("traced trial differs from run_trial (estimates or evaluation count)")
            else:
                traced[k] = result

        closed_loop(configs, seconds, 0, step, gauge)
        export_ms = export(configs, outcomes, out_dir)
        untraced_ms = [o.ms for k, o in enumerate(outcomes) if k in traced]
        named = layer_metrics(tracer, traced, untraced_ms, export_ms, gauge.factor())
        tracer.write_jsonl(out_dir / "spans.jsonl")
    else:

        def step(k: int) -> None:
            outcomes.append(timed_trial(*scheduled(configs, k)))

        elapsed = closed_loop(configs, seconds, ACCURACY_TRIALS, step, gauge)
        metrics = end_to_end_metrics(configs, outcomes, elapsed, setup_s, gauge.factor())
        named = {name: (value, END_TO_END_UNITS[name], samples) for name, (value, samples) in metrics.items()}

    failed = [o for o in outcomes if o.failed]
    correct = not failed
    samples = {name: count for name, (_, _, count) in named.items()}
    run_manifest = manifest(workload, seed, trace, threads_pinned, samples, gauge)
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in named.items()},
    }
    (out_dir / "manifest.json").write_text(json.dumps(run_manifest, indent=2) + "\n")
    (out_dir / "result.json").write_text(json.dumps(result) + "\n")

    digested = outcomes[:ACCURACY_TRIALS]
    print("manifest: " + json.dumps(run_manifest))
    print(f"workload {workload}: {len(outcomes)} trials over SNR {list(SNRS_DB)} dB, {len(failed)} failed")
    print(f"outputs digest, trials 0..{len(digested) - 1}: {outputs_digest(digested)}")
    print(
        f"times are scaled to reference-host speed by {gauge.factor():.4f} "
        f"(speed kernel median {statistics.median(gauge.samples_ms):.3f} ms, reference {REFERENCE_KERNEL_MS} ms)"
    )
    print_metrics("per-layer metrics (traced run):" if trace else "end-to-end metrics (tracing off):", named)
    if not trace:
        for line in paper_claim_lines(workload, configs, outcomes, named["trial_ms_p50"][0]):
            print(line)
    for outcome in failed[:5]:
        print(f"FAILED trial snr={outcome.snr_db} index={outcome.trial_index}: {outcome.problems}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1
