"""Differential evolution over the (azimuth, elevation) box, with niching variants.

All optimizers maximize a batched objective: a callable taking an (n, 2)
array of (azimuth_deg, elevation_deg) rows and returning n fitness values.
Five variants share one generation engine (``run_population``); each is a
(donor rule, replacement rule) row of ``ALGORITHMS``. A donor rule only says
where donors may come from, as a pool and a per-row candidate table; one
kernel (``_generation_trials``) draws, mutates and crosses over for all five:

  de       plain global DE, converges to a single optimum
  denm     neighborhood mutation: donors come from each individual's m
           nearest neighbors, so subpopulations settle on distinct peaks
  dcde     deterministic crowding: trials replace their nearest current
           individual instead of their parent
  sharede  fitness sharing: selection pressure divided by niche crowding
  sde      speciation: fitness-sorted greedy seed partitioning, each
           species evolves independently

Runs are deterministic for a fixed config seed. Generations are
synchronous: donors and trials are built from the generation-start
snapshot, and replacements are applied afterwards in index order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache, cached_property
from math import isqrt
from typing import Callable, get_args, get_origin, get_type_hints

import numpy as np

Objective = Callable[[np.ndarray], np.ndarray]

__all__ = [
    "ALGORITHMS",
    "SearchBox",
    "DEConfig",
    "Population",
    "CountingObjective",
    "de_mutate",
    "de_crossover",
    "run_population",
    "nearest_neighbor_indices",
    "shared_fitness",
]


@dataclass(frozen=True)
class SearchBox:
    """The (azimuth, elevation) search domain in degrees: [0, 360] x [0, 90]."""

    lows = np.array([0.0, 0.0])
    highs = np.array([360.0, 90.0])
    lows.flags.writeable = highs.flags.writeable = False

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.lows, self.highs, size=(count, 2))

    def contains(self, positions: np.ndarray) -> bool:
        pos = np.atleast_2d(positions)
        return bool(np.all(pos >= self.lows) and np.all(pos <= self.highs))

    def reflect(self, positions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Mirror out-of-bounds coordinates at the violated bound, repeated until inside (closed form: a
        triangle-wave fold onto [0, hi], the lows being 0), into ``out`` when given; it may be ``positions``."""
        folded = np.mod(positions, 2.0 * self.highs, out=out)
        folded -= self.highs
        np.abs(folded, out=folded)
        return np.subtract(self.highs, folded, out=folded)


def _is_number(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _admits(annotation) -> tuple[Callable[[object], bool], str]:
    """The test a field value must pass under its annotation, and how a refusal
    names it: int, float, tuple[float, ...], another class, or any of these | None."""
    if type(None) in get_args(annotation):
        test, expected = _admits(get_args(annotation)[0])  # X | None lists X first
        return (lambda value: value is None or test(value)), f"{expected} or null"
    if annotation is int:
        return (lambda value: isinstance(value, (int, np.integer)) and not isinstance(value, bool)), "an integer"
    if annotation is float:
        return _is_number, "a number"
    if get_origin(annotation) is tuple:
        return (lambda value: isinstance(value, tuple) and all(map(_is_number, value))), "a tuple of numbers"
    return (lambda value: isinstance(value, annotation)), f"a {annotation.__name__}"


@cache
def _field_rules(cls) -> tuple:
    hints = get_type_hints(cls)
    return tuple((f.name, *_admits(hints[f.name])) for f in fields(cls) if f.init)


def check_field_types(instance, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming the first dataclass field whose value does not
    match its annotation. A bool is refused everywhere, and an int field
    refuses an integral float such as 12.0 too."""
    for name, test, expected in _field_rules(type(instance)):
        value = getattr(instance, name)
        if not test(value):
            raise error(f"{name} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class DEConfig:
    """Knobs shared by all variants; neighborhood_size only drives denm.

    Defaults were tuned on the reference three-source scenario: 16 neighbors
    hold all peaks reliably where 8 occasionally lets a subpopulation settle
    on a shoulder of a true peak.
    """

    population_size: int = 256
    scale_factor: float = 0.5
    crossover_rate: float = 0.9
    max_iterations: int = 20
    neighborhood_size: int = 16
    rng_seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.population_size < 5:
            raise ValueError("population_size must be at least 5, so that four neighbors exist besides each point")
        if not 4 <= self.neighborhood_size <= self.population_size - 1:
            # three donors distinct from the target must exist among the
            # neighbors, and a point is never its own neighbor
            raise ValueError("neighborhood_size must lie in [4, population_size - 1]")
        if not 0 < self.scale_factor < np.inf:  # NaN fails too
            raise ValueError("scale_factor must be positive and finite")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must lie in [0, 1]")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


@dataclass
class Population:
    """Candidate points plus fitness; length is invariant across generations."""

    positions: np.ndarray  # (P, 2)
    fitness: np.ndarray  # (P,)

    def __len__(self) -> int:
        return len(self.fitness)


class CountingObjective:
    """Wraps an objective and counts per-row evaluations, the cost-model unit."""

    def __init__(self, objective: Objective):
        self.objective = objective
        self.count = 0

    def __call__(self, positions: np.ndarray) -> np.ndarray:
        self.count += len(positions)  # (n, 2) rows, as every objective takes
        return self.objective(positions)


def de_mutate(base, diff_a, diff_b, scale_factor: float, box: SearchBox) -> np.ndarray:
    """Donor combination base + F * (diff_a - diff_b) on (n, 2) batches of one shape, reflected into the box."""
    mutant = np.subtract(diff_a, diff_b, dtype=float)
    mutant *= scale_factor
    mutant += base
    return box.reflect(mutant, out=mutant)


def de_crossover(parent, mutant, crossover_rate: float, rng: np.random.Generator) -> np.ndarray:
    """Binomial crossover on (n, 2) batches: each coordinate comes from the
    mutant with probability crossover_rate, and one uniformly chosen
    coordinate per row always does (so the trial differs from the parent
    whenever the mutant does)."""
    take = rng.random(parent.shape) < crossover_rate
    forced = rng.integers(parent.shape[1], size=len(parent))
    take.put(forced + np.arange(0, take.size, parent.shape[1]), True)  # flat indices of the forced coordinates
    return np.where(take, mutant, parent)


def squared_distances(points: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from each (x, y) row of points to each row
    of others, as dx*dx + dy*dy: the order and rounding of scipy's
    ``cdist(points, others, "sqeuclidean")``, bit for bit."""
    dx = np.subtract.outer(points[:, 0], others[:, 0])
    dy = np.subtract.outer(points[:, 1], others[:, 1])
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _exact_neighbors(pos: np.ndarray, rows: np.ndarray, columns: np.ndarray, count: int) -> np.ndarray:
    """Point rows[r]'s count nearest among columns[r], which holds rows[r],
    by float64 dx*dx + dy*dy; equal distances keep their order in columns."""
    delta = pos.take(columns, axis=0) - pos.take(rows, axis=0)[:, None]
    delta *= delta
    sq = delta[..., 0] + delta[..., 1]
    sq[columns == rows[:, None]] = -np.inf  # self first, then dropped
    nearest = sq.argsort(axis=1, kind="stable")[:, 1 : count + 1]
    return columns[np.arange(len(rows))[:, None], nearest]


@np.errstate(over="ignore")  # squared distances past float64's range are inf, as past float32's
def nearest_neighbor_indices(positions: np.ndarray, count: int) -> np.ndarray:
    """Each point's ``count`` nearest neighbors by Euclidean distance,
    self excluded, distance ties broken toward the lower index.

    A projection search (Friedman, Baskett & Shustek, IEEE Trans. Computers
    1975): with the points sorted by azimuth, each point keys only the
    ``half`` points on either side of it in that order, and a point outside
    that window is at least the smaller azimuth gap to the first points
    beyond it away. Each distance is computed once, in a half-band of rows
    d(p, p + o), o = 0..half, after ``half`` inf pad rows; row p's backward
    half d(p - half + j, p) is a view of it skewed by strides (s0, s0 - s1),
    bit-equal as (a - b)**2 == (b - a)**2. Rounding to float32 and cutting
    off the index bits can make distances equal, never swap them, so a row
    is exact when that gap's key, index bits dropped, exceeds the key of
    the next point after its count neighbors; any other row is keyed over
    all points. Equal keys (index bits dropped) among self, the count
    neighbors and the next point are settled by float64 distance and index
    among those points, which then hold every point of that key, or among
    all points when the tie reaches the next point.
    """
    pos = np.asarray(positions, dtype=float)
    size = len(pos)
    if not 1 <= count <= size - 1:
        raise ValueError("count must lie in [1, len(positions) - 1]")
    bits = (size - 1).bit_length()
    low = np.uint32((1 << bits) - 1)
    # 6 sqrt(N) keys per row: 96 at N = 256, where 5 to 7 rows of a DE-NM
    # generation need all N; at least enough that a row at either end of
    # the order holds self, the count neighbors and the next point
    half = min(size - 1, max(count + 1, 3 * isqrt(size)))
    # x, y and index of the points in azimuth order, between half + 1 pads
    # at -inf and +inf azimuth, so a window never runs off the end and the
    # gap beyond a window that holds the last point is inf
    order = pos[:, 0].argsort(kind="stable")
    x, y = padded = np.zeros((2, size + 2 * half + 2))
    x[: half + 1] = -np.inf
    x[half + 1 + size :] = np.inf
    padded[:, half + 1 : half + 1 + size] = pos.take(order, axis=0).T
    index = np.zeros(len(x), dtype=np.uint32)
    index[half + 1 : half + 1 + size] = order
    # strided views: row p holds padded x and y from place half + 1 + p on (p itself first), indices from 1 + p on
    x_ahead, y_ahead = np.ndarray((2, size, half + 1), float, padded, (half + 1) * 8, (len(x) * 8, 8, 8))
    index_windows = np.ndarray((size, 2 * half + 1), np.uint32, buffer=index, offset=4, strides=(4, 4))
    band = np.empty((size + half, half + 1))
    band[:half] = np.inf
    ahead = np.subtract(x_ahead[:, :1], x_ahead, out=band[half:])
    dy = y_ahead[:, :1] - y_ahead
    ahead *= ahead
    ahead += np.square(dy, out=dy)  # squared distances, rounded as squared_distances rounds them
    gap = np.minimum(x_ahead[:, 0] - x[:size], x[2 * half + 2 :] - x_ahead[:, 0])
    # keys: squared distances rounded to float32 (rounding keeps order, and
    # non-negative floats sort as their bits do; past float32's range, inf)
    # with the lowest bits cleared for a point index
    bound = (gap * gap).astype(np.float32).view(np.uint32) >> bits
    band = band.astype(np.float32).view(np.uint32)
    band &= ~low
    s0, s1 = band.strides  # row p, column j of the view reads band row p + j, column half - j
    behind = np.ndarray((size, half), np.uint32, buffer=band, offset=half * s1, strides=(s0, s0 - s1))
    keys = np.empty((size, 2 * half + 1), dtype=np.uint32)
    np.bitwise_or(behind, index_windows[:, :half], out=keys[:, :half])
    np.bitwise_or(band[half:], index_windows[:, half:], out=keys[:, half:])
    keys.sort(axis=1)
    stop = min(count + 2, size)  # self, the count neighbors and the next point, if any
    keys = keys[:, :stop]
    short = (keys[:, -1] >> bits >= bound).nonzero()[0]
    if len(short):
        whole = squared_distances(pos[order[short]], pos).astype(np.float32).view(np.uint32)
        whole = (whole & ~low) | np.arange(size, dtype=np.uint32)
        keys[short] = np.sort(whole, axis=1)[:, :stop]
    head = keys >> bits
    result = np.empty((size, count), dtype=np.intp)
    result[order] = keys[:, 1 : count + 1] & low
    cut = head[:, -1] == head[:, -2]  # a tie that reaches the next point
    inside = ((head[:, 1:-1] == head[:, :-2]).any(axis=1) & ~cut).nonzero()[0]
    across = cut.nonzero()[0]
    if len(inside):
        result[order[inside]] = _exact_neighbors(pos, order[inside], keys[inside] & low, count)
    if len(across):
        result[order[across]] = _exact_neighbors(pos, order[across], np.arange(size)[None].repeat(across.size, 0), count)
    return result


def _global_donor_candidates(size: int) -> np.ndarray:
    """Row i lists every index except i."""
    base = np.tile(np.arange(size - 1), (size, 1))
    return base + (base >= np.arange(size)[:, None])


def _pick_donors(rng: np.random.Generator, candidates: np.ndarray, valid=None) -> np.ndarray:
    """Three distinct donors per row, uniformly from that row's valid
    candidates (every entry when valid is None); each row must hold three."""
    keys = rng.random(candidates.shape)
    if valid is not None:
        keys[~valid] = np.inf  # sorts after every valid entry, so never drawn
    order = keys.argsort(axis=1)[:, :3]
    return candidates.take(order + np.arange(0, candidates.size, candidates.shape[1])[:, None])  # by flat index


def _evaluate(objective: Objective, positions: np.ndarray) -> np.ndarray:
    values = np.asarray(objective(positions), dtype=float)
    if values.shape != (len(positions),):
        raise ValueError("objective must return one fitness value per row")
    return values


def shared_fitness(positions: np.ndarray, fitness: np.ndarray, share_radius: float) -> np.ndarray:
    """Fitness divided by the niche count sum_j max(0, 1 - d_ij / share_radius)
    over the whole population. The self term contributes 1, so an isolated
    point keeps its raw fitness and two coincident points each keep half."""
    if not share_radius > 0:  # NaN fails too
        raise ValueError("share_radius must be positive")
    positions = np.asarray(positions, dtype=float)
    return np.asarray(fitness, dtype=float) / _shares(positions, positions, share_radius).sum(axis=1)


def _shares(points: np.ndarray, population: np.ndarray, share_radius: float) -> np.ndarray:
    return np.maximum(0.0, 1.0 - np.sqrt(squared_distances(points, population)) / share_radius)


def _assign_species(positions: np.ndarray, fitness: np.ndarray, species_radius: float) -> np.ndarray:
    """Greedy seed partitioning: walk individuals by fitness descending, the
    fittest unassigned one seeds a species and captures every unassigned
    individual within species_radius. Returns per-individual species ids in
    seed discovery order."""
    species_of = np.empty(len(fitness), dtype=int)
    dist = np.sqrt(squared_distances(positions, positions))
    pending = np.argsort(-np.asarray(fitness, dtype=float), kind="stable")
    num_species = 0
    while len(pending):
        captured = dist[pending[0], pending] <= species_radius  # the seed captures itself
        species_of[pending[captured]] = num_species
        pending = pending[~captured]
        num_species += 1
    return species_of


def _species_donor_table(species_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row i lists every index, valid where it is a species-mate of i, then
    three filler slots (pool rows size + 3i to size + 3i + 2) of which only
    max(0, 3 - mates) are valid: a species smaller than four is topped up to
    three donors, a larger one never draws a filler."""
    size = len(species_of)
    mates = (species_of[:, None] == species_of) & ~np.eye(size, dtype=bool)
    needed = 3 - np.count_nonzero(mates, axis=1)
    everyone = np.broadcast_to(np.arange(size), (size, size))
    fillers = size + np.arange(3 * size).reshape(size, 3)
    return np.hstack([everyone, fillers]), np.hstack([mates, np.arange(3) < needed[:, None]])


@dataclass
class _Run:
    """What a donor or replacement rule reads besides the population."""

    config: DEConfig
    box: SearchBox
    rng: np.random.Generator
    share_radius: float
    species_radius: float

    @cached_property
    def global_candidates(self) -> np.ndarray:
        return _global_donor_candidates(self.config.population_size)


def _generation_trials(run: _Run, positions: np.ndarray, pool, candidates, valid=None) -> np.ndarray:
    """Mutate + crossover for every slot, from the generation-start snapshot.
    The arguments after positions are what every donor rule returns: row i
    of candidates lists the pool rows slot i may draw its donors from, and
    valid masks the entries of rows that are shorter (None: all are valid)."""
    base, diff_a, diff_b = pool.take(_pick_donors(run.rng, candidates, valid).T, axis=0)
    mutant = de_mutate(base, diff_a, diff_b, run.config.scale_factor, run.box)
    return de_crossover(positions, mutant, run.config.crossover_rate, run.rng)


def _global_donors(run: _Run, positions: np.ndarray, fitness: np.ndarray):
    """Donors drawn from the whole population."""
    return positions, run.global_candidates, None


def _neighbor_donors(run: _Run, positions: np.ndarray, fitness: np.ndarray):
    """Donors drawn from each individual's m nearest neighbors. Local donor
    pools keep subpopulations on their own optima."""
    return positions, nearest_neighbor_indices(positions, run.config.neighborhood_size), None


def _species_donors(run: _Run, positions: np.ndarray, fitness: np.ndarray):
    """Re-partition into species and draw each individual's donors from
    inside its species, topped up with fresh uniform samples appended to the
    pool (_species_donor_table). Fillers are donors only, never evaluated,
    so the evaluation budget stays one trial per individual per generation."""
    species_of = _assign_species(positions, fitness, run.species_radius)
    pool = np.vstack([positions, run.box.sample(run.rng, 3 * len(positions))])
    return (pool, *_species_donor_table(species_of))


def _greedy(run: _Run, positions, fitness, trials, trial_fitness) -> None:
    """Each trial replaces its parent when at least as fit."""
    accept = trial_fitness >= fitness
    np.copyto(positions, trials, where=accept[:, None])
    np.copyto(fitness, trial_fitness, where=accept)


def _crowding(run: _Run, positions, fitness, trials, trial_fitness) -> None:
    """Each trial competes with the nearest current individual rather than
    its parent. Replacements are applied in trial index order, so the run is
    deterministic.

    This stays a loop: trial i's nearest individual can be a slot that a
    trial j < i replaced in the same generation, so a batched argmin against
    the generation-start snapshot would change the outputs."""
    for i in range(len(trials)):
        nearest = int(np.argmin(squared_distances(trials[i : i + 1], positions)))  # ties: lowest index
        if trial_fitness[i] >= fitness[nearest]:
            positions[nearest] = trials[i]
            fitness[nearest] = trial_fitness[i]


def _shared_greedy(run: _Run, positions, fitness, trials, trial_fitness) -> None:
    """A trial replaces its parent when trial/niche_count beats
    parent/niche_count, both counted against the generation-start population.
    Raw fitness stays on the individuals for peak extraction."""
    # one pass: the trials' rows, then the snapshot's, against the snapshot; a trial
    # counts itself (1) plus the snapshot without its parent slot (the diagonal),
    # mirroring how a parent counts itself plus the others
    shares = _shares(np.vstack([trials, positions]), positions, run.share_radius)
    counts = shares.sum(axis=1)
    trial_counts = 1.0 + counts[: len(trials)] - shares.diagonal()
    accept = trial_fitness / trial_counts >= fitness / counts[len(trials) :]
    np.copyto(positions, trials, where=accept[:, None])
    np.copyto(fitness, trial_fitness, where=accept)


# Each variant is one (donor rule, replacement rule) pair on the same engine.
ALGORITHMS = {
    "de": (_global_donors, _greedy),
    "denm": (_neighbor_donors, _greedy),
    "dcde": (_global_donors, _crowding),
    "sharede": (_global_donors, _shared_greedy),
    "sde": (_species_donors, _greedy),
}


def run_population(
    algorithm: str,
    objective: Objective,
    box: SearchBox,
    config: DEConfig,
    share_radius: float = 15.0,
    species_radius: float = 15.0,
) -> Population:
    """Run one variant of ALGORITHMS and return its full final population.

    share_radius drives sharede's niche counts and species_radius sde's
    partitioning; both must be positive.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {tuple(ALGORITHMS)}")
    if not (share_radius > 0 and species_radius > 0):  # NaN fails too
        raise ValueError("share_radius and species_radius must be positive")
    donor_rule, replacement_rule = ALGORITHMS[algorithm]
    rng = np.random.default_rng(config.rng_seed)
    run = _Run(config, box, rng, share_radius, species_radius)
    positions = box.sample(rng, config.population_size)
    fitness = _evaluate(objective, positions)
    for _ in range(config.max_iterations):
        trials = _generation_trials(run, positions, *donor_rule(run, positions, fitness))
        trial_fitness = _evaluate(objective, trials)
        replacement_rule(run, positions, fitness, trials, trial_fitness)
    return Population(positions, fitness)
