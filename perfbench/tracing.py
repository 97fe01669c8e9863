"""Spans around the calls a doakit trial makes into each layer.

``traced_trial`` repeats ``doakit.bench.run_trial`` step by step through the
package's public functions, so each layer boundary can be timed from outside
the package. The spectrum is timed by wrapping the objective callable that
the optimizer receives. The benchmark checks on every traced trial that the
estimates and the evaluation count equal ``run_trial``'s.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from doakit.bench import circular_difference_deg, derive_seed, match_estimates
from doakit.extract import NOISE, DoaEstimate, extract_dbscan
from doakit.music import grid_search, noise_projector, spectrum_objective
from doakit.optimizer import CountingObjective, SearchBox, run_population
from doakit.signal_model import sample_covariance, subspace_split, synthesize_snapshots


LAYER_UNITS = {
    "signal_model.synthesize_ms": "ms",
    "signal_model.covariance_eigh_ms": "ms",
    "signal_model.degenerate_split_rate": "fraction",
    "music.projector_ms": "ms",
    "music.spectrum_ms": "ms",
    "music.spectrum_evals": "count",
    "music.spectrum_ns_per_eval": "ns",
    "music.grid_search_ms": "ms",
    "music.grid_evals": "count",
    "optimizer.run_ms": "ms",
    "optimizer.self_ms": "ms",
    "optimizer.sources_covered_rate": "fraction",
    "extract.ms": "ms",
    "extract.clusters": "count",
    "extract.noise_frac": "fraction",
    "extract.shortfall_rate": "fraction",
    "extract.lost_rate": "fraction",
    "bench.match_ms": "ms",
    "bench.export_ms": "ms",
    "bench.untraced_ms": "ms",
    "bench.tracing_overhead_ms": "ms",
}


class Tracer:
    """In-memory span log. A span is [name, start_s, end_s, parent, trial]:
    ``parent`` is the index of the enclosing span in ``spans`` (-1 for none)
    and ``trial`` the id set in ``self.trial`` when the span opened."""

    def __init__(self):
        self.spans: list[list] = []
        self.trial = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, self.trial]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def write_jsonl(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, trial in self.spans:
                row = {"name": name, "start_s": start - origin, "end_s": end - origin, "parent": parent, "trial": trial}
                handle.write(json.dumps(row) + "\n")


@dataclass(frozen=True)
class TracedTrial:
    """What a traced trial returns besides its spans. Population fields are
    zero on the grid search, which has no population."""

    estimates: tuple[DoaEstimate, ...]
    evals: int  # spectrum evaluations of the search, as run_trial counts them
    spectrum_evals: int  # evaluations through the objective callable
    degenerate_split: bool
    clusters: int
    noise_frac: float
    shortfall: bool  # extraction found fewer clusters than sources
    sources: int
    covered: int  # true sources with a final population member within threshold
    lost: int  # covered sources not matched within threshold after extraction


def _within(d_theta, d_phi, threshold: float):
    return (np.asarray(d_theta) <= threshold) & (np.asarray(d_phi) <= threshold)


def traced_trial(tracer: Tracer, config, trial_index: int) -> TracedTrial:
    """``run_trial(config, trial_index)`` for the grid and for population
    search with DBSCAN extraction, with a span around each layer call."""
    geometry, sources = config.geometry(), config.sources()
    population = extraction = None
    spectrum_evals = 0
    with tracer.span("bench.trial"):
        with tracer.span("signal_model.synthesize"):
            snapshots = synthesize_snapshots(
                geometry, sources, config.snr_db, config.snapshots, derive_seed(config.master_seed, trial_index, 0)
            )
        with tracer.span("signal_model.covariance_eigh"):
            split = subspace_split(sample_covariance(snapshots), sources.count)
        with tracer.span("music.projector"):
            projector = noise_projector(split, geometry)
        if config.algorithm == "grid":
            with tracer.span("music.grid_search"):
                result = grid_search(projector, config.grid_spec(), sources.count)
            estimates = tuple(
                DoaEstimate(float(az), float(el), float(value))
                for az, el, value in zip(result.azimuth_deg, result.elevation_deg, result.values)
            )
            evals = result.num_evaluations
        else:
            spectrum = spectrum_objective(projector)

            def timed_spectrum(positions):
                with tracer.span("music.spectrum"):
                    return spectrum(positions)

            objective = CountingObjective(timed_spectrum)
            optimizer = replace(config.optimizer, rng_seed=derive_seed(config.master_seed, trial_index, 1))
            with tracer.span("optimizer.run"):
                population = run_population(
                    config.algorithm,
                    objective,
                    SearchBox(),
                    optimizer,
                    share_radius=config.share_radius_deg,
                    species_radius=config.species_radius_deg,
                )
            with tracer.span("extract"):
                extraction = extract_dbscan(population, sources.count, config.dbscan_eps_deg, config.dbscan_min_pts)
            estimates = extraction.estimates
            evals = spectrum_evals = objective.count
        with tracer.span("bench.match"):
            match = match_estimates(sources, list(estimates))

    if population is None:
        return TracedTrial(estimates, evals, 0, split.degenerate_gap, 0, 0.0, False, sources.count, 0, 0)
    threshold = config.success_threshold_deg
    covered = np.any(
        _within(
            circular_difference_deg(sources.azimuth_deg[:, None], population.positions[None, :, 0]),
            np.abs(sources.elevation_deg[:, None] - population.positions[None, :, 1]),
            threshold,
        ),
        axis=1,
    )
    matched = np.zeros(sources.count, dtype=bool)
    matched[match.truth_indices[_within(match.theta_errors_deg, match.phi_errors_deg, threshold)]] = True
    labels = extraction.labels
    return TracedTrial(
        estimates=estimates,
        evals=evals,
        spectrum_evals=spectrum_evals,
        degenerate_split=split.degenerate_gap,
        clusters=int(labels.max()) + 1 if len(labels) else 0,
        noise_frac=float(np.mean(labels == NOISE)),
        shortfall=extraction.shortfall,
        sources=sources.count,
        covered=int(covered.sum()),
        lost=int((covered & ~matched).sum()),
    )


def _per_trial_ms(tracer: Tracer):
    """Per trial and span name: total and self milliseconds (self time is a
    span's duration minus the time its child spans cover)."""
    covered_by_children = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            covered_by_children[parent] += end - start
    total = defaultdict(lambda: defaultdict(float))
    own = defaultdict(lambda: defaultdict(float))
    for index, (name, start, end, _, trial) in enumerate(tracer.spans):
        total[trial][name] += (end - start) * 1e3
        own[trial][name] += (end - start - covered_by_children[index]) * 1e3
    return total, own


def layer_metrics(
    tracer: Tracer, traced: dict[int, TracedTrial], untraced_ms: list[float], export_ms: float, factor: float
) -> dict:
    """Per-layer metric name -> (value, unit, sample count). Times and counts
    are per-trial medians over the traced trials; ``_rate`` metrics are shares
    over all trials (or all true sources) of the run. Times are scaled by
    ``factor``."""
    total, own = _per_trial_ms(tracer)
    trials = sorted(traced)
    n = len(trials)
    sources = sum(traced[k].sources for k in trials)

    def median_of(values):
        return statistics.median(values), n

    def ms(name: str, table=total):
        return median_of([table[k][name] for k in trials])

    ns_per_eval = [
        total[k]["music.spectrum"] * 1e6 / traced[k].spectrum_evals if traced[k].spectrum_evals else 0.0 for k in trials
    ]
    metrics = {
        "signal_model.synthesize_ms": ms("signal_model.synthesize"),
        "signal_model.covariance_eigh_ms": ms("signal_model.covariance_eigh"),
        "signal_model.degenerate_split_rate": (sum(traced[k].degenerate_split for k in trials) / n, n),
        "music.projector_ms": ms("music.projector"),
        "music.spectrum_ms": ms("music.spectrum"),
        "music.spectrum_evals": median_of([traced[k].spectrum_evals for k in trials]),
        "music.spectrum_ns_per_eval": median_of(ns_per_eval),
        "music.grid_search_ms": ms("music.grid_search"),
        "music.grid_evals": median_of([traced[k].evals - traced[k].spectrum_evals for k in trials]),
        "optimizer.run_ms": ms("optimizer.run"),
        "optimizer.self_ms": ms("optimizer.run", own),
        "optimizer.sources_covered_rate": (sum(traced[k].covered for k in trials) / sources, sources),
        "extract.ms": ms("extract"),
        "extract.clusters": median_of([traced[k].clusters for k in trials]),
        "extract.noise_frac": median_of([traced[k].noise_frac for k in trials]),
        "extract.shortfall_rate": (sum(traced[k].shortfall for k in trials) / n, n),
        "extract.lost_rate": (sum(traced[k].lost for k in trials) / sources, sources),
        "bench.match_ms": ms("bench.match"),
        "bench.export_ms": (export_ms, 1),
        "bench.untraced_ms": ms("bench.trial", own),
        "bench.tracing_overhead_ms": (
            statistics.median(total[k]["bench.trial"] for k in trials) - statistics.median(untraced_ms),
            n,
        ),
    }
    named = {}
    for name, (value, samples) in metrics.items():
        unit = LAYER_UNITS[name]
        named[name] = (float(value) * (factor if unit in ("ms", "ns") else 1.0), unit, samples)
    return named
