"""Turn a final optimizer population into DOA estimates.

DBSCAN clustering is the primary route: dense groups of individuals mark
spectrum peaks, scattered leftovers are labeled noise and never become
estimates. Two baselines (fitness local maxima over k nearest neighbors,
and k-means++ partitioning) cover the same population-to-estimates step.
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
    the benchmark counts as a failed trial."""

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
    reachable = squared_distances(pts, pts) <= eps * eps
    core = np.count_nonzero(reachable, axis=1) >= min_pts
    labels = np.full(n, NOISE, dtype=int)
    if not core.any():
        return ClusterLabeling(labels, 0)
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
    border = np.where(reachable[~core][:, core], labels[core], num_clusters).min(axis=1)
    labels[~core] = np.where(border < num_clusters, border, NOISE)
    return ClusterLabeling(labels, num_clusters)


def _representatives(population: Population, labels: np.ndarray, num_clusters: int) -> list[tuple[int, int]]:
    """(individual index, cluster id) of each cluster's fittest member,
    fitness ties going to the lower index, ordered by fitness descending."""
    reps = []
    for cid in range(num_clusters):
        members = np.flatnonzero(labels == cid)
        best = int(members[np.argmax(population.fitness[members])])
        reps.append((best, cid))
    reps.sort(key=lambda item: (-population.fitness[item[0]], item[0]))
    return reps


def _to_estimates(population: Population, reps: list[tuple[int, int]]) -> tuple[DoaEstimate, ...]:
    return tuple(
        DoaEstimate(
            azimuth_deg=float(population.positions[idx, 0]),
            elevation_deg=float(population.positions[idx, 1]),
            fitness=float(population.fitness[idx]),
            cluster_id=cid,
        )
        for idx, cid in reps
    )


def extract_dbscan(population: Population, num_sources: int, eps: float = 3.0, min_pts: int = 4) -> ExtractionResult:
    """Cluster the population, keep each cluster's fittest individual, and
    return the top num_sources of those by fitness. Noise points are never
    representatives; fewer clusters than sources raises the shortfall flag."""
    if len(population) == 0:
        raise ValueError("population must be non-empty")
    labeling = dbscan(population.positions, eps, min_pts)
    reps = _representatives(population, labeling.labels, labeling.num_clusters)
    return ExtractionResult(
        estimates=_to_estimates(population, reps[:num_sources]),
        shortfall=labeling.num_clusters < num_sources,
        labels=labeling.labels,
    )


def extract_klocalmax(population: Population, num_sources: int, num_neighbors: int = 8) -> ExtractionResult:
    """A point is a peak when its fitness strictly exceeds that of all of its
    num_neighbors nearest neighbors; the top num_sources peaks by fitness win."""
    if not 1 <= num_neighbors < len(population):
        raise ValueError("num_neighbors must lie in [1, population size - 1]")
    neighbors = nearest_neighbor_indices(population.positions, num_neighbors)
    is_peak = population.fitness > population.fitness[neighbors].max(axis=1)
    candidates = np.flatnonzero(is_peak)
    order = np.lexsort((candidates, -population.fitness[candidates]))
    reps = [(int(candidates[k]), None) for k in order[:num_sources]]
    return ExtractionResult(
        estimates=_to_estimates(population, reps),
        shortfall=len(candidates) < num_sources,
        labels=None,
    )


def extract_kmeanspp(population: Population, num_sources: int, rng_seed: int = 0) -> ExtractionResult:
    """Partition into exactly num_sources clusters (k-means++ seeding, Lloyd
    refinement, deterministic for a fixed seed); each cluster's fittest
    member is an estimate, so the result never falls short."""
    if len(population) < num_sources:
        raise ValueError("population must have at least num_sources members")
    labels = _kmeans(population.positions, num_sources, np.random.default_rng(rng_seed))
    reps = _representatives(population, labels, num_sources)
    return ExtractionResult(
        estimates=_to_estimates(population, reps),
        shortfall=False,
        labels=labels,
    )


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


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator, max_rounds: int = 100) -> np.ndarray:
    centers = _kmeans_pp_centers(points, k, rng)
    labels = None
    for _ in range(max_rounds):
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
