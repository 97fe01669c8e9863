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

    def reflect(self, positions: np.ndarray) -> np.ndarray:
        """Mirror out-of-bounds coordinates at the violated bound, repeated
        until inside (closed form: triangle-wave fold onto [lo, hi])."""
        lo = self.lows
        span = self.highs - lo
        folded = np.mod(np.asarray(positions, dtype=float) - lo, 2.0 * span)
        return lo + span - np.abs(folded - span)


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
        pos = np.atleast_2d(positions)
        self.count += len(pos)
        return self.objective(pos)


def de_mutate(base, diff_a, diff_b, scale_factor: float, box: SearchBox) -> np.ndarray:
    """Donor combination base + F * (diff_a - diff_b) on (n, 2) batches,
    reflected into the box."""
    return box.reflect(np.asarray(base, dtype=float) + scale_factor * np.subtract(diff_a, diff_b, dtype=float))


def de_crossover(parent, mutant, crossover_rate: float, rng: np.random.Generator) -> np.ndarray:
    """Binomial crossover on (n, 2) batches: each coordinate comes from the
    mutant with probability crossover_rate, and one uniformly chosen
    coordinate per row always does (so the trial differs from the parent
    whenever the mutant does)."""
    take = rng.random(parent.shape) < crossover_rate
    forced = rng.integers(parent.shape[1], size=len(parent))
    take[np.arange(len(parent)), forced] = True
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
    nearest = np.argsort(sq, axis=1, kind="stable")[:, 1 : count + 1]
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
    order = np.argsort(pos[:, 0], kind="stable")
    x, y = padded = np.zeros((2, size + 2 * half + 2))
    x[: half + 1] = -np.inf
    x[half + 1 + size :] = np.inf
    padded[:, half + 1 : half + 1 + size] = pos.take(order, axis=0).T
    index = np.zeros(len(x), dtype=np.uint32)
    index[half + 1 : half + 1 + size] = order

    def windows(row, start, length):
        """Strided view: row p holds length entries from padded place start + p on."""
        return np.ndarray((size, length), row.dtype, buffer=row, offset=start * row.itemsize, strides=2 * row.strides)

    xc = x[half + 1 : half + 1 + size, None]
    yc = y[half + 1 : half + 1 + size, None]
    band = np.empty((size + half, half + 1))
    band[:half] = np.inf
    ahead = np.subtract(xc, windows(x, half + 1, half + 1), out=band[half:])
    dy = yc - windows(y, half + 1, half + 1)
    ahead *= ahead
    ahead += np.square(dy, out=dy)  # squared distances, rounded as squared_distances rounds them
    gap = np.minimum(xc[:, 0] - x[:size], x[2 * half + 2 :] - xc[:, 0])
    # keys: squared distances rounded to float32 (rounding keeps order, and
    # non-negative floats sort as their bits do; past float32's range, inf)
    # with the lowest bits cleared for a point index
    bound = (gap * gap).astype(np.float32).view(np.uint32) >> bits
    band = band.astype(np.float32).view(np.uint32)
    band &= ~low
    s0, s1 = band.strides  # row p, column j of the view reads band row p + j, column half - j
    behind = np.ndarray((size, half), np.uint32, buffer=band, offset=half * s1, strides=(s0, s0 - s1))
    keys = np.empty((size, 2 * half + 1), dtype=np.uint32)
    np.bitwise_or(behind, windows(index, 1, half), out=keys[:, :half])
    np.bitwise_or(band[half:], windows(index, half + 1, half + 1), out=keys[:, half:])
    keys.sort(axis=1)
    stop = min(count + 2, size)  # self, the count neighbors and the next point, if any
    keys = keys[:, :stop]
    short = np.flatnonzero(keys[:, -1] >> bits >= bound)
    if len(short):
        whole = squared_distances(pos[order[short]], pos).astype(np.float32).view(np.uint32)
        whole = (whole & ~low) | np.arange(size, dtype=np.uint32)
        keys[short] = np.sort(whole, axis=1)[:, :stop]
    head = keys >> bits
    result = np.empty((size, count), dtype=np.intp)
    result[order] = keys[:, 1 : count + 1] & low
    cut = head[:, -1] == head[:, -2]  # a tie that reaches the next point
    inside = np.flatnonzero((head[:, 1:-1] == head[:, :-2]).any(axis=1) & ~cut)
    across = np.flatnonzero(cut)
    if len(inside):
        result[order[inside]] = _exact_neighbors(pos, order[inside], keys[inside] & low, count)
    if len(across):
        everyone = np.broadcast_to(np.arange(size), (len(across), size))
        result[order[across]] = _exact_neighbors(pos, order[across], everyone, count)
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
    order = np.argsort(keys, axis=1)[:, :3]
    return np.take_along_axis(candidates, order, axis=1)


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
    counts = _niche_counts(np.asarray(positions, dtype=float), np.asarray(positions, dtype=float), share_radius)
    return np.asarray(fitness, dtype=float) / counts


def _niche_counts(points: np.ndarray, population: np.ndarray, share_radius: float) -> np.ndarray:
    dist = np.sqrt(squared_distances(points, population))
    return np.maximum(0.0, 1.0 - dist / share_radius).sum(axis=1)


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
    donors = pool[_pick_donors(run.rng, candidates, valid)]
    mutant = de_mutate(donors[:, 0], donors[:, 1], donors[:, 2], run.config.scale_factor, run.box)
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
    positions[accept] = trials[accept]
    fitness[accept] = trial_fitness[accept]


def _crowding(run: _Run, positions, fitness, trials, trial_fitness) -> None:
    """Each trial competes with the nearest current individual rather than
    its parent. Replacements are applied in trial index order, so the run is
    deterministic.

    This stays a loop: trial i's nearest individual can be a slot that a
    trial j < i replaced in the same generation, so a batched argmin against
    the generation-start snapshot would change the outputs."""
    for i in range(len(trials)):
        delta = positions - trials[i]
        nearest = int(np.argmin(np.einsum("ij,ij->i", delta, delta)))  # ties: lowest index
        if trial_fitness[i] >= fitness[nearest]:
            positions[nearest] = trials[i]
            fitness[nearest] = trial_fitness[i]


def _shared_greedy(run: _Run, positions, fitness, trials, trial_fitness) -> None:
    """A trial replaces its parent when trial/niche_count beats
    parent/niche_count, both counted against the generation-start population.
    Raw fitness stays on the individuals for peak extraction."""
    radius = run.share_radius
    # symmetric trial counts: self term (1) plus the snapshot without the
    # parent slot, mirroring how a parent counts itself plus the others
    cross = _niche_counts(trials, positions, radius)
    delta = trials - positions
    parent_term = np.maximum(0.0, 1.0 - np.sqrt(np.einsum("ij,ij->i", delta, delta)) / radius)
    trial_counts = 1.0 + cross - parent_term
    accept = trial_fitness / trial_counts >= shared_fitness(positions, fitness, radius)
    positions[accept] = trials[accept]
    fitness[accept] = trial_fitness[accept]


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
