"""Monte Carlo benchmark harness: accuracy and cost of DOA estimators.

Runs seeded trials of synthesize -> covariance -> subspace -> projector ->
search -> estimate -> truth matching, one path for every search, each an
entry of the one table ``SEARCHES``; aggregates MAE, success rate, and
model/measured cost; per-pair errors go to errors.csv for CDF plots.

Determinism contract: every statistical output is fixed by (master_seed,
config). Per-trial seeds derive from a documented stable hash,
SeedSequence([master_seed, trial_index, stream]) with streams 0 = data,
1 = optimizer, 2 = extraction. Wall-clock fields are measurements and sit
outside the contract.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import astuple, dataclass, field, fields, replace
from functools import lru_cache, partial
from itertools import islice
from pathlib import Path

import numpy as np

from .extract import DoaEstimate, ExtractionResult, extract_dbscan, extract_klocalmax, extract_kmeanspp
from .extract import _fittest_per_label
from .music import FlopModel, GridSpec, flops_music, flops_population, grid_maxima, noise_projector, spectrum_objective
from .optimizer import ALGORITHMS, CountingObjective, DEConfig, SearchBox, run_population, settle_field_types
from .signal_model import ArrayGeometry, SourceSet, sample_covariance, subspace_split, synthesize_snapshots

# Each extraction reads its own settings from the scenario: (config, population, trial_index) -> ExtractionResult.
EXTRACTIONS = {
    "dbscan": lambda config, population, trial_index: extract_dbscan(
        population, len(config.source_azimuth_deg), config.dbscan_eps_deg, config.dbscan_min_pts
    ),
    "klocalmax": lambda config, population, trial_index: extract_klocalmax(
        population, len(config.source_azimuth_deg), config.klocalmax_neighbors
    ),
    "kmeanspp": lambda config, population, trial_index: extract_kmeanspp(
        population, len(config.source_azimuth_deg), derive_seed(config.master_seed, trial_index, 2)
    ),
}


def _grid_search(config, proj, trial_index):
    """The exhaustive grid: its candidates are every strict maximum of the spectrum."""
    spec = config.grid_spec()
    return grid_maxima(proj, spec), spec.num_points


def _population_search(config, proj, trial_index):
    """One run of the scenario's population optimizer: its candidates are the final population."""
    objective = CountingObjective(spectrum_objective(proj))
    optimizer = replace(config.optimizer, rng_seed=derive_seed(config.master_seed, trial_index, 1))
    population = run_population(
        config.algorithm, objective, SearchBox(), optimizer, config.share_radius_deg, config.species_radius_deg
    )
    return population, objective.count


@dataclass(frozen=True, slots=True)
class Search:
    """One entry of SEARCHES: how a search runs, how it is priced, and whether an extraction reads its candidates."""
    run: object  # (config, proj, trial_index) -> (candidates, spectrum evaluations), the candidates a Population
    flops: object  # the closed-form FlopModel -> FLOPs of one trial
    population: bool  # the candidates go through the scenario's extraction, else each is a peak of its own


# Every search a scenario can name, the grid first: a new search is one entry, and no code branches on its name.
SEARCHES = {"grid": Search(_grid_search, flops_music, population=False)}
SEARCHES |= {name: Search(_population_search, flops_population, population=True) for name in ALGORITHMS}

ERROR_COLUMNS = ("algo", "extraction", "snr_db", "trial", "source", "theta_error_deg", "phi_error_deg")

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "MatchResult",
    "TrialReport",
    "AggregateReport",
    "derive_seed",
    "circular_difference_deg",
    "match_estimates",
    "run_trial",
    "run_trials",
    "aggregate",
    "run_sweep",
    "run_extraction_comparison",
    "complexity_cells",
    "format_complexity_table",
    "write_csv",
    "write_summary_csv",
    "write_errors_csv",
]


class ConfigError(ValueError):
    """Invalid benchmark configuration (CLI exits non-zero on this)."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One benchmark scenario; defaults encode the reference setup of a
    12-element circular array receiving three sources at fixed directions."""

    num_elements: int = 12
    radius: float = 1.0  # in wavelengths, as are all lengths in signal_model: there is no wavelength setting
    source_azimuth_deg: tuple[float, ...] = (30.42, 120.27, 240.51)
    source_elevation_deg: tuple[float, ...] = (60.39, 29.42, 45.55)
    source_power: tuple[float, ...] | None = None
    snapshots: int = 100
    snr_db: float = 10.0
    trials: int = 1000
    algorithm: str = "denm"
    extraction: str = "dbscan"
    optimizer: DEConfig = field(default_factory=DEConfig)
    share_radius_deg: float = 15.0
    species_radius_deg: float = 15.0
    dbscan_eps_deg: float = 3.0
    dbscan_min_pts: int = 4
    klocalmax_neighbors: int = 8
    grid_step_deg: float = 1.0
    success_threshold_deg: float = 2.0
    master_seed: int = 0

    def __post_init__(self):
        settle_field_types(self, ConfigError)
        if self.optimizer.rng_seed != DEConfig.rng_seed:
            raise ConfigError("optimizer.rng_seed cannot be set: every trial derives it from master_seed")
        if self.algorithm not in SEARCHES:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}, expected one of {tuple(SEARCHES)}")
        if self.extraction not in EXTRACTIONS:
            raise ConfigError(f"unknown extraction {self.extraction!r}, expected one of {tuple(EXTRACTIONS)}")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        if self.snapshots < 1:
            raise ConfigError("snapshots must be at least 1")
        if not self.success_threshold_deg > 0:  # written so that NaN fails too
            raise ConfigError("success_threshold_deg must be positive")
        if np.isnan(self.snr_db):
            raise ConfigError("snr_db must be a number (+-inf allowed)")
        if not (self.dbscan_eps_deg > 0 and self.dbscan_min_pts >= 1):
            raise ConfigError("dbscan_eps_deg must be positive and dbscan_min_pts at least 1")
        if not 1 <= self.klocalmax_neighbors < self.optimizer.population_size:
            raise ConfigError("klocalmax_neighbors must lie in [1, population_size - 1]")
        if not (self.share_radius_deg > 0 and self.species_radius_deg > 0):
            raise ConfigError("share_radius_deg and species_radius_deg must be positive")
        # the grid, array, sources and cost model are checked by building them; an error names the fields read
        for build, names in (
            (self.grid_spec, ("grid_step_deg",)),
            (self.geometry, ("num_elements", "radius")),
            (self.sources, ("source_azimuth_deg", "source_elevation_deg", "source_power")),
            (self.flop_model, ("num_elements", "source_azimuth_deg")),
        ):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(", ".join(f"{name} {getattr(self, name)!r}" for name in names) + f": {exc}") from exc
        # a positive finite step by now; 90/step whole makes 360/step = 4 * 90/step whole too
        if not math.isclose(90.0 / self.grid_step_deg, round(90.0 / self.grid_step_deg)):
            raise ConfigError(f"grid_step_deg must divide 360 and 90 degrees evenly, got {self.grid_step_deg!r}")

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry.uca(self.num_elements, radius=self.radius)

    def sources(self) -> SourceSet:
        return SourceSet(self.source_azimuth_deg, self.source_elevation_deg, self.source_power)

    def grid_spec(self) -> GridSpec:
        return GridSpec(azimuth_step=self.grid_step_deg, elevation_step=self.grid_step_deg)

    def flop_model(self) -> FlopModel:
        return FlopModel(
            num_sensors=self.num_elements,
            num_sources=len(self.source_azimuth_deg),
            grid_points=self.grid_spec().num_points,
            population_size=self.optimizer.population_size,
            max_iterations=self.optimizer.max_iterations,
        )

    def model_flops(self) -> float:
        """Closed-form cost of one trial's search, by its SEARCHES entry."""
        return SEARCHES[self.algorithm].flops(self.flop_model())

    @classmethod
    def from_dict(cls, mapping: dict) -> "ScenarioConfig":
        """Build from a plain mapping (the JSON config-file schema): ScenarioConfig
        field names, the ``optimizer`` entry a nested mapping with DEConfig field
        names, JSON lists as tuples. The constructors reject unknown keys and
        values whose type does not match their field."""
        kwargs = {key: tuple(value) if isinstance(value, list) else value for key, value in mapping.items()}
        try:
            if "optimizer" in kwargs:
                kwargs["optimizer"] = DEConfig(**kwargs["optimizer"])
            return cls(**kwargs)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc


def derive_seed(master_seed: int, trial_index: int, stream: int) -> int:
    """Stable per-trial seed: first word of SeedSequence([master, trial, stream])."""
    seq = np.random.SeedSequence([int(master_seed), int(trial_index), int(stream)])
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, slots=True)
class MatchResult:
    """Minimum-total-cost one-to-one pairing of estimates to true sources.

    Cost per pair is circular azimuth distance plus absolute elevation
    distance. Truths left without an estimate appear in unmatched_truths
    and never contribute errors.
    """

    truth_indices: np.ndarray
    estimate_indices: np.ndarray
    theta_errors_deg: np.ndarray
    phi_errors_deg: np.ndarray
    unmatched_truths: np.ndarray


def circular_difference_deg(a, b) -> np.ndarray:
    """Shortest angular distance in degrees, in [0, 180]."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % 360.0
    return np.minimum(d, 360.0 - d)


def _assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment of a rectangular cost matrix: (rows, cols) with
    rows ascending, min(shape) pairs, as scipy's ``linear_sum_assignment``.

    A port of scipy's ``rectangular_lsap``, the shortest augmenting path
    method of Crouse (IEEE TAES 2016), that keeps its every rule so that ties
    between optimal pairings break the same way: a tall matrix is transposed;
    the unvisited columns are listed in reverse and drop out by swap-removal;
    a path cost is (min_val + cost) - u - v, in that order; among equal path
    costs a free column wins; the dual updates and the augmentation are
    scipy's. Costs must be finite.
    """
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite entries")
    transpose = cost.shape[1] < cost.shape[0]
    table = (cost.T if transpose else cost).tolist()
    num_rows, num_cols = (cost.shape[1], cost.shape[0]) if transpose else cost.shape
    inf = math.inf
    u = [0.0] * num_rows
    v = [0.0] * num_cols
    path = [-1] * num_cols
    col4row = [-1] * num_rows
    row4col = [-1] * num_cols
    for current in range(num_rows):
        # shortest augmenting path from the current row to a free column
        min_val = 0.0
        shortest = [inf] * num_cols
        remaining = list(range(num_cols - 1, -1, -1))
        visited_rows, visited_cols = [], []
        i, sink = current, -1
        while sink < 0:
            visited_rows.append(i)
            row, u_i = table[i], u[i]
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                reduced = min_val + row[j] - u_i - v[j]
                if reduced < shortest[j]:
                    path[j] = i
                    shortest[j] = reduced
                else:
                    reduced = shortest[j]
                if reduced < lowest or (reduced == lowest and row4col[j] < 0):
                    index, lowest = it, reduced
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[current] += min_val
        for i in visited_rows:
            if i != current:
                u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]
        # flip the path's edges, from the sink back to the current row
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == current:
                break
    if transpose:
        order = sorted(range(num_rows), key=col4row.__getitem__)
        return np.array([col4row[k] for k in order], dtype=np.int64), np.array(order, dtype=np.int64)
    return np.arange(num_rows, dtype=np.int64), np.array(col4row, dtype=np.int64)


def match_estimates(truth: SourceSet, estimates: list[DoaEstimate] | tuple[DoaEstimate, ...]) -> MatchResult:
    """Optimal assignment of estimates to truths: the exact minimum-total-cost
    pairing, ties broken as scipy's ``linear_sum_assignment`` breaks them."""
    if len(estimates) > truth.count:
        raise ValueError("cannot match more estimates than true sources")
    est_az = np.array([e.azimuth_deg for e in estimates])
    est_el = np.array([e.elevation_deg for e in estimates])
    theta_cost = circular_difference_deg(truth.azimuth_deg[:, None], est_az[None, :])
    phi_cost = np.abs(truth.elevation_deg[:, None] - est_el[None, :])
    rows, cols = _assignment(theta_cost + phi_cost)
    unmatched = np.ones(truth.count, dtype=bool)
    unmatched[rows] = False
    return MatchResult(
        truth_indices=rows,
        estimate_indices=cols,
        theta_errors_deg=theta_cost[rows, cols],
        phi_errors_deg=phi_cost[rows, cols],
        unmatched_truths=np.arange(truth.count)[unmatched],  # owned: np.flatnonzero's view keeps a base alive
    )


@dataclass(frozen=True, slots=True)
class TrialReport:
    """One scored trial. Callers keep every report of a run, so this class,
    ``MatchResult`` and ``DoaEstimate`` hold their fields in slots, not in a
    per-instance dict: a kept grid trial takes about 1.6 KB instead of 1.8 KB."""

    trial: int
    estimates: tuple[DoaEstimate, ...]
    match: MatchResult
    shortfall: bool
    success: bool
    model_flops: float
    measured_evals: int
    wall_ms: float


def _score(config: ScenarioConfig, sources, flops, trial_index: int, estimates, shortfall, evals, wall_ms) -> TrialReport:
    match = match_estimates(sources, list(estimates))
    threshold = config.success_threshold_deg
    success = (
        not shortfall
        and len(match.unmatched_truths) == 0
        and bool(np.all(match.theta_errors_deg <= threshold))
        and bool(np.all(match.phi_errors_deg <= threshold))
    )
    return TrialReport(
        trial=trial_index,
        estimates=tuple(estimates),
        match=match,
        shortfall=shortfall,
        success=success,
        model_flops=flops,
        measured_evals=evals,
        wall_ms=wall_ms,
    )


# Eight entries: a benchmark that runs one trial of each SNR scenario in turn keeps all five of its scenarios.
@lru_cache(maxsize=8)
def _fixtures(config: ScenarioConfig) -> tuple[ArrayGeometry, SourceSet, float]:
    """The array, the sources and the closed-form search cost of a scenario,
    built once and shared by its trials; the array and source objects hold
    read-only arrays, so no trial can change them for the next."""
    return config.geometry(), config.sources(), config.model_flops()


def _projector(config: ScenarioConfig, trial_index: int, geom: ArrayGeometry, sources: SourceSet):
    """A trial's noise projector, from its seeded snapshots. They are freed on return, before the search:
    held through it, they made M = 128 denm trials several percent slower."""
    seed = derive_seed(config.master_seed, trial_index, 0)
    snapshots = synthesize_snapshots(geom, sources, config.snr_db, config.snapshots, seed)
    return noise_projector(subspace_split(sample_covariance(snapshots), sources.count), geom)


def _estimate(config: ScenarioConfig, candidates, method: str, trial_index: int) -> ExtractionResult:
    """A search's candidates to estimates: a population search's candidates through the extraction ``method``; any
    other search's, such as the grid's maxima, each a peak of its own, the top L by fitness."""
    if SEARCHES[config.algorithm].population:
        return EXTRACTIONS[method](config, candidates, trial_index)
    return _fittest_per_label(candidates, None, len(config.source_azimuth_deg))


def _trial_reports(config: ScenarioConfig, trial_index: int, extractions) -> list[TrialReport]:
    """One seeded trial, one path for every search: the projector, the SEARCHES entry once, then estimate and score
    once per method, one report each in order. wall_ms is the search plus that report's estimate."""
    geom, sources, flops = _fixtures(config)
    proj = _projector(config, trial_index, geom, sources)
    started = time.perf_counter()
    candidates, evals = SEARCHES[config.algorithm].run(config, proj, trial_index)
    search_ms = (time.perf_counter() - started) * 1e3
    reports = []
    for method in extractions:
        started = time.perf_counter()
        found = _estimate(config, candidates, method, trial_index)
        wall_ms = search_ms + (time.perf_counter() - started) * 1e3
        reports.append(_score(config, sources, flops, trial_index, found.estimates, found.shortfall, evals, wall_ms))
    return reports


def run_trial(config: ScenarioConfig, trial_index: int) -> TrialReport:
    """One fully seeded trial; every numeric field except wall_ms is
    reproducible from (config, trial_index)."""
    return _trial_reports(config, trial_index, (config.extraction,))[0]


def _map_trials(trial_fn, jobs, workers: int) -> list:
    """trial_fn(config, i) for every (config, i) of jobs, in their order; serially in one process, else through one pool
    of at most one process per job (all forked at the first job), in chunks of at most 8 jobs, so that all get some."""
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [trial_fn(config, i) for config, i in jobs]
    # imported only here, so that a serial run never loads the process pool's modules
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(trial_fn, *zip(*jobs), chunksize=min(8, -(-len(jobs) // workers))))


def run_trials(config: ScenarioConfig, workers: int = 1) -> list[TrialReport]:
    """All trials of a scenario, ordered by trial index regardless of workers."""
    return _map_trials(run_trial, [(config, i) for i in range(config.trials)], workers)


@dataclass(frozen=True)
class AggregateReport:
    """Per-(config, SNR) statistics. mae_* columns are success-conditioned
    (failed trials would mix divergent outliers into the averages);
    raw_mae_* average every matched pair regardless of the success flag."""

    algo: str
    extraction: str
    num_elements: int
    num_sources: int
    snr_db: float
    snapshots: int
    trials: int
    mae_theta_deg: float
    mae_phi_deg: float
    success_rate: float
    model_mflops: float
    measured_evals: float
    wall_ms: float
    raw_mae_theta_deg: float
    raw_mae_phi_deg: float
    flops_ratio_vs_grid: float


# summary.csv holds every AggregateReport field; the array and source counts
# are written as M and L.
SUMMARY_COLUMNS = tuple({"num_elements": "M", "num_sources": "L"}.get(f.name, f.name) for f in fields(AggregateReport))


def _mean(samples: list[float]) -> float:
    return float(np.mean(samples)) if samples else float("nan")


def _extraction_column(config: ScenarioConfig) -> str:
    """The extraction a scenario's rows name: none for a search that takes none, such as the grid."""
    return config.extraction if SEARCHES[config.algorithm].population else ""


def aggregate(config: ScenarioConfig, reports: list[TrialReport]) -> AggregateReport:
    success_theta, success_phi = [], []
    raw_theta, raw_phi = [], []
    for report in reports:
        raw_theta.extend(report.match.theta_errors_deg.tolist())
        raw_phi.extend(report.match.phi_errors_deg.tolist())
        if report.success:
            success_theta.extend(report.match.theta_errors_deg.tolist())
            success_phi.extend(report.match.phi_errors_deg.tolist())
    return AggregateReport(
        algo=config.algorithm,
        extraction=_extraction_column(config),
        num_elements=config.num_elements,
        num_sources=len(config.source_azimuth_deg),
        snr_db=config.snr_db,
        snapshots=config.snapshots,
        trials=len(reports),
        mae_theta_deg=_mean(success_theta),
        mae_phi_deg=_mean(success_phi),
        success_rate=_mean([r.success for r in reports]),
        model_mflops=config.model_flops() / 1e6,
        measured_evals=_mean([r.measured_evals for r in reports]),
        wall_ms=_mean([r.wall_ms for r in reports]),
        raw_mae_theta_deg=_mean(raw_theta),
        raw_mae_phi_deg=_mean(raw_phi),
        flops_ratio_vs_grid=config.model_flops() / flops_music(config.flop_model()),
    )


def run_sweep(config: ScenarioConfig, values, workers: int = 1, field: str = "snr_db"):
    """One scenario per value of one field, a ScenarioConfig field or ``optimizer.NAME`` for a DEConfig field, run
    in order: one aggregate per value, plus {value: per-trial reports} for CDF export. Every scenario is built, and
    every refusal raised, before any trial runs. SNR values become floats. All trials share one worker pool."""
    name = field.removeprefix("optimizer.")
    if name != field and not SEARCHES[config.algorithm].population:
        raise ConfigError(f"{field} needs a population algorithm, not {config.algorithm!r}")
    values = [float(value) for value in values] if field == "snr_db" else list(values)
    scenarios = []
    for value in values:
        try:
            changes = {field: value} if name == field else {"optimizer": replace(config.optimizer, **{name: value})}
            scenarios.append(replace(config, **changes))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{field} {value!r}: {exc}") from exc
    if len(set(scenarios)) != len(scenarios):  # built scenarios hash; a raw value such as a list may not
        raise ConfigError(f"{field} values must be distinct")
    flat = iter(_map_trials(run_trial, [(s, i) for s in scenarios for i in range(s.trials)], workers))
    reports = [list(islice(flat, scenario.trials)) for scenario in scenarios]
    return [aggregate(scenario, rows) for scenario, rows in zip(scenarios, reports)], dict(zip(values, reports))


def run_extraction_comparison(config: ScenarioConfig, workers: int = 1) -> dict[str, list[TrialReport]]:
    """Score every extraction of EXTRACTIONS, in registry order, on identical
    final populations: the optimizer runs once per trial and every method
    consumes that population. A search that takes no extraction is refused."""
    if not SEARCHES[config.algorithm].population:
        raise ConfigError("extraction comparison needs a population algorithm")
    methods = tuple(EXTRACTIONS)  # the names, which pickle for worker processes; the lambdas do not
    trial_fn = partial(_trial_reports, extractions=methods)
    rows = _map_trials(trial_fn, [(config, i) for i in range(config.trials)], workers)
    return {method: [row[k] for row in rows] for k, method in enumerate(methods)}


TABLE_SENSOR_COUNTS = (12, 32, 128)
TABLE_SOURCE_COUNTS = (1, 3, 10)


def complexity_cells():
    """The nine (sensors, sources) cost-model cells as MFLOP pairs and ratios,
    at FlopModel's default grid, population and iteration counts."""
    cells = []
    for num_sources in TABLE_SOURCE_COUNTS:
        for num_sensors in TABLE_SENSOR_COUNTS:
            model = FlopModel(num_sensors, num_sources)
            music = flops_music(model)
            population = flops_population(model)
            cells.append(
                {
                    "M": num_sensors,
                    "L": num_sources,
                    "music_mflops": music / 1e6,
                    "population_mflops": population / 1e6,
                    "ratio": population / music,
                }
            )
    return cells


def format_complexity_table(cells) -> str:
    """Grid-search vs population cost per cell, printed as music/population (1:ratio): ``complexity_cells``' cells
    in their build order, one row per source count."""
    widths = 27
    lines = ["MUSIC/population (MFLOPs)".ljust(widths) + "".join(f"M = {m}".ljust(widths) for m in TABLE_SENSOR_COUNTS)]
    for start in range(0, len(cells), len(TABLE_SENSOR_COUNTS)):
        row = cells[start : start + len(TABLE_SENSOR_COUNTS)]
        parts = [f"L = {row[0]['L']}".ljust(widths)]
        for cell in row:
            parts.append(
                f"{cell['music_mflops']:.1f}/{cell['population_mflops']:.1f} (1:{cell['ratio']:.2f})".ljust(widths)
            )
        lines.append("".join(parts).rstrip())
    return "\n".join(lines)


def write_csv(path, columns, rows) -> None:
    """Header plus one line per row, values in column order and written with
    str(), under the csv-module defaults: minimal quoting, CRLF line ends."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def write_summary_csv(aggregates: list[AggregateReport], path) -> None:
    write_csv(path, SUMMARY_COLUMNS, map(astuple, aggregates))


def write_errors_csv(config: ScenarioConfig, reports_by_snr: dict[float, list[TrialReport]], path) -> None:
    """Per-matched-pair absolute errors, one row each, for CDF plotting, SNRs in ``reports_by_snr``'s order."""
    extraction = _extraction_column(config)
    rows = (
        [config.algorithm, extraction, snr, report.trial, int(truth), t_err, p_err]
        for snr in reports_by_snr
        for report in reports_by_snr[snr]
        for truth, t_err, p_err in zip(
            report.match.truth_indices, report.match.theta_errors_deg, report.match.phi_errors_deg
        )
    )
    write_csv(path, ERROR_COLUMNS, rows)
