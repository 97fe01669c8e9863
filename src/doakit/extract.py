"""Turn a final optimizer population into DOA estimates.

DBSCAN clustering is the primary route: dense groups of individuals mark
spectrum peaks, scattered leftovers are labeled noise and never become
estimates. Two baselines (fitness local maxima over k nearest neighbors,
and k-means++ partitioning) cover the same population-to-estimates step.
Each extraction labels the population and ends in one shared step: every
label's fittest member, the top num_sources of those by fitness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optimizer import Population, nearest_neighbor_indices, squared_distances

NOISE = -1  # label of points that belong to no cluster

__all__ = [
    "NOISE",
    "ClusterLabeling",
    "DoaEstimate",
    "ExtractionResult",
    "dbscan",
    "extract_dbscan",
    "extract_klocalmax",
    "extract_kmeanspp",
]


@dataclass(frozen=True)
class ClusterLabeling:
    """Per-point cluster ids in [0, num_clusters), or NOISE."""

    labels: np.ndarray
    num_clusters: int


@dataclass(frozen=True, slots=True)
class DoaEstimate:
    azimuth_deg: float
    elevation_deg: float
    fitness: float
    cluster_id: int | None = None


@dataclass(frozen=True)
class ExtractionResult:
    """Estimates sorted by fitness descending. ``shortfall`` flags fewer
    extracted peaks than requested sources: a possible missed source that
    the benchmark counts as a failed trial. ``labels`` is the labeling the
    estimates were selected from (cluster ids, NOISE elsewhere), and each
    estimate's cluster_id is its label. Every extraction sets them; they are
    None when every candidate is a peak of its own, as the grid's maxima are."""

    estimates: tuple[DoaEstimate, ...]
    shortfall: bool
    labels: np.ndarray | None = None


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> ClusterLabeling:
    """Density-based clustering with Euclidean eps-neighborhoods.

    A point is core when at least min_pts points (itself included) lie
    within eps (boundary inclusive). A cluster is a connected component of
    the graph joining cores within eps of each other; clusters are numbered
    by their smallest core index, and a non-core point joins the lowest-id
    cluster among the cores within eps of it, else it is NOISE. This is the
    labeling of breadth-first expansion from cores in index-scan order, and
    it is deterministic for a given input order.
    """
    if not eps > 0:  # NaN fails too
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(pts) if pts.size else 0
    if n == 0:
        return ClusterLabeling(np.empty(0, dtype=int), 0)
    reachable = np.empty((n, n), dtype=bool)
    for start in range(0, n, 64):  # 64 rows at a time: float temporaries of 64 x n, not n x n
        np.less_equal(squared_distances(pts[start : start + 64], pts), eps * eps, out=reachable[start : start + 64])
    core = np.count_nonzero(reachable, axis=1) >= min_pts
    labels = np.full(n, NOISE, dtype=int)
    # row i: the cores within eps of point i
    core_links = reachable & core
    num_clusters = 0
    for seed in np.flatnonzero(core):
        if labels[seed] != NOISE:
            continue
        # breadth-first: each step adds every core linked to the last step's cores
        members = np.zeros(n, dtype=bool)
        members[seed] = True
        frontier = members
        while True:
            frontier = core_links[frontier].any(axis=0) & ~members
            if not frontier.any():
                break
            members |= frontier
        labels[members] = num_clusters
        num_clusters += 1
    border = np.where(reachable[~core][:, core], labels[core], num_clusters).min(axis=1, initial=num_clusters)
    labels[~core] = np.where(border < num_clusters, border, NOISE)
    return ClusterLabeling(labels, num_clusters)


def _fittest_per_label(population: Population, labels: np.ndarray | None, num_sources: int) -> ExtractionResult:
    """The result of a labeling: each label's fittest member (fitness ties to
    the lower index; NOISE members never count), ordered by fitness descending
    then index, the first num_sources as estimates, each with its label as
    cluster_id, and a shortfall when there are fewer labels than sources.
    labels None makes every member a peak of its own, with no cluster_id."""
    best = np.argsort(-population.fitness, kind="stable")  # stable: ties keep index order
    if labels is not None:
        found, first = np.unique(labels[best], return_index=True)
        best = best[np.sort(first[found != NOISE])]
    chosen = best[:num_sources]
    azimuths, elevations = population.positions[chosen].T.tolist()
    cluster_ids = [None] * len(chosen) if labels is None else labels[chosen].tolist()
    estimates = map(DoaEstimate, azimuths, elevations, population.fitness[chosen].tolist(), cluster_ids)
    return ExtractionResult(tuple(estimates), len(best) < num_sources, labels)


def extract_dbscan(population: Population, num_sources: int, eps: float = 3.0, min_pts: int = 4) -> ExtractionResult:
    """Cluster the population, keep each cluster's fittest individual, and
    return the top num_sources of those by fitness. Noise points are never
    representatives; fewer clusters than sources raises the shortfall flag."""
    if num_sources < 1:
        raise ValueError("num_sources must be positive")
    if len(population) == 0:
        raise ValueError("population must be non-empty")
    return _fittest_per_label(population, dbscan(population.positions, eps, min_pts).labels, num_sources)


def extract_klocalmax(population: Population, num_sources: int, num_neighbors: int = 8) -> ExtractionResult:
    """A point is a peak when its fitness strictly exceeds that of all of its
    num_neighbors nearest neighbors; the top num_sources peaks by fitness win.
    Each peak is its own label, its index in the population, which its
    estimate carries as cluster_id; every other point is NOISE."""
    if num_sources < 1:
        raise ValueError("num_sources must be positive")
    if not 1 <= num_neighbors < len(population):
        raise ValueError("num_neighbors must lie in [1, population size - 1]")
    neighbors = nearest_neighbor_indices(population.positions, num_neighbors)
    is_peak = population.fitness > population.fitness[neighbors].max(axis=1)
    labels = np.where(is_peak, np.arange(len(population)), NOISE)
    return _fittest_per_label(population, labels, num_sources)


def extract_kmeanspp(population: Population, num_sources: int, rng_seed: int = 0) -> ExtractionResult:
    """Partition into exactly num_sources clusters (k-means++ seeding, Lloyd
    refinement, deterministic for a fixed seed); each cluster's fittest
    member is an estimate, so the result never falls short."""
    if num_sources < 1:
        raise ValueError("num_sources must be positive")
    if len(population) < num_sources:
        raise ValueError("population must have at least num_sources members")
    labels = _kmeans(population.positions, num_sources, np.random.default_rng(rng_seed))
    return _fittest_per_label(population, labels, num_sources)


def _kmeans_pp_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Spread-out seeding: next center drawn with probability proportional to
    the squared distance from the centers already chosen."""
    centers = [points[int(rng.integers(len(points)))]]
    while len(centers) < k:
        nearest_sq = squared_distances(points, np.asarray(centers)).min(axis=1)
        total = nearest_sq.sum()
        if total > 0:
            idx = int(rng.choice(len(points), p=nearest_sq / total))
        else:
            idx = int(rng.integers(len(points)))
        centers.append(points[idx])
    return np.asarray(centers)


# Lloyd rounds at most; a partition that repeats ends them sooner
_KMEANS_ROUNDS = 100


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = _kmeans_pp_centers(points, k, rng)
    labels = None
    for _ in range(_KMEANS_ROUNDS):
        dist_sq = squared_distances(points, centers)
        new_labels = np.argmin(dist_sq, axis=1)  # ties: lowest center id
        new_labels = _fill_empty_clusters(new_labels, dist_sq, k)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = np.flatnonzero(labels == c)
            centers[c] = points[members].mean(axis=0)
    return labels


def _fill_empty_clusters(labels: np.ndarray, dist_sq: np.ndarray, k: int) -> np.ndarray:
    """Reassign the point farthest from its center to each empty cluster so
    every cluster stays non-empty (requires len(labels) >= k)."""
    labels = labels.copy()
    for c in range(k):
        if np.any(labels == c):
            continue
        assigned_dist = dist_sq[np.arange(len(labels)), labels]
        counts = np.bincount(labels, minlength=k)
        movable = counts[labels] > 1  # do not empty another cluster
        assigned_dist = np.where(movable, assigned_dist, -np.inf)
        labels[int(np.argmax(assigned_dist))] = c
    return labels
