import warnings
from collections import deque

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from doakit import (
    NOISE,
    Population,
    dbscan,
    extract_dbscan,
    extract_klocalmax,
    extract_kmeanspp,
)

from conftest import TRUE_AZIMUTH_DEG, TRUE_ELEVATION_DEG


def dbscan_oracle(points, eps, min_pts):
    """Component construction with per-point border loops: cores from
    pairwise counts, clusters as connected components of the core graph
    ranked by smallest core index, borders claimed by the
    earliest-discovered eligible cluster."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    delta = pts[:, None, :] - pts[None, :, :]
    within = np.einsum("ijk,ijk->ij", delta, delta) <= eps * eps
    core = within.sum(axis=1) >= min_pts
    labels = np.full(n, NOISE, dtype=int)
    core_idx = np.flatnonzero(core)
    if len(core_idx) == 0:
        return labels, 0
    graph = csr_matrix(within[np.ix_(core_idx, core_idx)])
    num_comp, comp = connected_components(graph, directed=False)
    # discovery order: ascending minimum core index per component
    first_core = [core_idx[comp == c].min() for c in range(num_comp)]
    rank = {c: r for r, c in enumerate(np.argsort(first_core))}
    for local, point in enumerate(core_idx):
        labels[point] = rank[comp[local]]
    for point in np.flatnonzero(~core):
        neighbor_cores = core_idx[within[point, core_idx]]
        if len(neighbor_cores):
            labels[point] = min(labels[c] for c in neighbor_cores)
    return labels, num_comp


def dbscan_scan_order_bfs(points, eps, min_pts):
    """The textbook procedure: scan points in index order, grow a new
    cluster breadth-first from each unvisited core, and let a border point
    keep the first cluster that reaches it."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    neighbor_lists = [
        [j for j in range(n) if float(np.sum((pts[i] - pts[j]) ** 2)) <= eps * eps] for i in range(n)
    ]
    core = [len(nb) >= min_pts for nb in neighbor_lists]
    unvisited = -2
    labels = [unvisited] * n
    cluster = 0
    for i in range(n):
        if labels[i] != unvisited:
            continue
        if not core[i]:
            labels[i] = NOISE  # may be upgraded to border later
            continue
        labels[i] = cluster
        queue = deque(neighbor_lists[i])
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster  # border point claimed
            if labels[j] != unvisited:
                continue
            labels[j] = cluster
            if core[j]:
                queue.extend(neighbor_lists[j])
        cluster += 1
    return np.array(labels, dtype=int), cluster


def random_instance(rng):
    """Mixture of tight blobs and uniform scatter, the shapes extraction sees."""
    n = int(rng.integers(5, 257))
    num_blobs = int(rng.integers(0, 4))
    chunks = []
    remaining = n
    for _ in range(num_blobs):
        size = int(rng.integers(2, max(3, remaining // 2 + 1)))
        center = rng.uniform([0, 0], [360, 90])
        chunks.append(center + rng.normal(scale=rng.uniform(0.2, 2.0), size=(size, 2)))
        remaining -= size
        if remaining <= 1:
            break
    if remaining > 0:
        chunks.append(rng.uniform([0, 0], [360, 90], size=(remaining, 2)))
    points = np.vstack(chunks)[:n]
    eps = float(rng.uniform(0.5, 8.0))
    min_pts = int(rng.integers(1, 8))
    return points, eps, min_pts


def edge_instances():
    """Hand-made (points, eps, min_pts) that random blobs rarely produce."""
    # two core chains along x = 0..9 and x = 100..109 whose indices interleave;
    # within a chain they zigzag from end to end, so a chain closes only after
    # a frontier of many hops
    order = [0, 9, 1, 8, 2, 7, 3, 6, 4, 5]
    chains = [[float(x), 0.0] for x in order] + [[100.0 + x, 0.0] for x in order]
    zigzag = np.array(chains)[[0, 10, 1, 11, 2, 12, 3, 13, 4, 14, 5, 15, 6, 16, 7, 17, 8, 18, 9, 19]]
    # point 0 is a border within eps of the cores of two clusters, cores 1-4 and 5-8
    two_clusters = np.array([[0.0], [0.9], [1.3], [1.5], [1.7], [-0.9], [-1.3], [-1.5], [-1.7]]) * [1.0, 0.0]
    rng = np.random.default_rng(3)
    blobs = np.vstack([rng.normal(scale=0.5, size=(8, 2)) + [20.0, 20.0], rng.uniform(0, 90, size=(6, 2))])
    duplicates = np.vstack([blobs, blobs[[0, 0, 5, 9, 12]], np.repeat([[70.0, 70.0]], 3, axis=0)])
    scatter = np.arange(12.0).reshape(6, 2) * 10.0
    return [
        (zigzag, 1.0, 2),
        (zigzag, 1.0, 3),
        (two_clusters, 1.0, 4),
        (duplicates, 1.5, 3),
        (duplicates, 1.5, 1),
        (scatter, 1.0, 2),
    ]


def comparison_instances():
    """Fifty random instances, then the hand-made ones."""
    for seed in range(50):
        yield random_instance(np.random.default_rng(seed))
    yield from edge_instances()


def make_population(positions, fitness):
    return Population(np.asarray(positions, dtype=float), np.asarray(fitness, dtype=float))


class TestDbscan:
    def test_coincident_points_single_cluster(self):
        labeling = dbscan(np.zeros((5, 2)), eps=1.0, min_pts=3)
        assert labeling.num_clusters == 1
        np.testing.assert_array_equal(labeling.labels, np.zeros(5, dtype=int))

    def test_two_far_groups(self):
        rng = np.random.default_rng(0)
        group_a = rng.uniform(-0.25, 0.25, size=(10, 2)) + [10.0, 10.0]
        group_b = rng.uniform(-0.25, 0.25, size=(10, 2)) + [60.0, 10.0]
        labeling = dbscan(np.vstack([group_a, group_b]), eps=2.0, min_pts=4)
        assert labeling.num_clusters == 2
        assert set(labeling.labels[:10]) == {0}
        assert set(labeling.labels[10:]) == {1}
        assert NOISE not in labeling.labels

    def test_empty_input(self):
        labeling = dbscan(np.empty((0, 2)), eps=1.0, min_pts=2)
        assert labeling.num_clusters == 0
        assert labeling.labels.size == 0

    def test_eps_boundary_inclusive(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        labeling = dbscan(points, eps=1.0, min_pts=3)
        assert labeling.num_clusters == 1
        assert NOISE not in labeling.labels

    def test_isolated_points_are_noise(self):
        points = np.array([[0.0, 0.0], [50.0, 50.0], [100.0, 20.0]])
        labeling = dbscan(points, eps=1.0, min_pts=2)
        assert labeling.num_clusters == 0
        assert np.all(labeling.labels == NOISE)

    def test_matches_oracle_on_random_instances(self):
        for points, eps, min_pts in comparison_instances():
            labeling = dbscan(points, eps, min_pts)
            expected_labels, expected_clusters = dbscan_oracle(points, eps, min_pts)
            np.testing.assert_array_equal(labeling.labels, expected_labels)
            assert labeling.num_clusters == expected_clusters

    def test_matches_scan_order_bfs_on_random_instances(self):
        for points, eps, min_pts in comparison_instances():
            labeling = dbscan(points, eps, min_pts)
            expected_labels, expected_clusters = dbscan_scan_order_bfs(points, eps, min_pts)
            np.testing.assert_array_equal(labeling.labels, expected_labels)
            assert labeling.num_clusters == expected_clusters

    def test_shared_border_joins_lower_cluster_id(self):
        # point 0 is a border within eps of core 8 (cluster 0, started at
        # core 1) and of core 5 (cluster 1): it joins cluster 0 although the
        # lower-index core next to it belongs to cluster 1
        points = np.array(
            [
                [1.0, 0.0],
                [2.1, 0.0], [2.2, 0.0], [2.3, 0.0],
                [-0.1, 0.0], [0.0, 0.0], [-0.2, 0.0], [-0.3, 0.0],
                [2.0, 0.0],
            ]
        )
        labeling = dbscan(points, eps=1.0, min_pts=4)
        assert labeling.num_clusters == 2
        np.testing.assert_array_equal(labeling.labels, [0, 0, 0, 0, 1, 1, 1, 1, 0])
        expected_labels, _ = dbscan_scan_order_bfs(points, 1.0, 4)
        np.testing.assert_array_equal(labeling.labels, expected_labels)

    def test_min_pts_one_makes_every_point_core(self):
        points = np.array([[0.0, 0.0], [5.0, 0.0], [0.5, 0.0], [10.0, 0.0], [5.0, 1.0]])
        labeling = dbscan(points, eps=1.0, min_pts=1)
        assert labeling.num_clusters == 3
        np.testing.assert_array_equal(labeling.labels, [0, 1, 0, 2, 1])

    def test_duplicate_core_point_is_stable(self):
        # appending a copy of a core point leaves existing labels alone
        rng = np.random.default_rng(7)
        blob = rng.normal(scale=0.3, size=(12, 2)) + [40.0, 40.0]
        scatter = rng.uniform([0, 0], [360, 90], size=(6, 2)) + [100.0, 0.0]
        points = np.vstack([blob, scatter])
        base = dbscan(points, eps=2.0, min_pts=4)
        core_point = points[0]
        extended = dbscan(np.vstack([points, core_point]), eps=2.0, min_pts=4)
        np.testing.assert_array_equal(extended.labels[:-1], base.labels)
        assert extended.labels[-1] == base.labels[0]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            dbscan(np.zeros((3, 2)), eps=0.0, min_pts=2)
        with pytest.raises(ValueError):
            dbscan(np.zeros((3, 2)), eps=1.0, min_pts=0)


def converged_population(rng, spread=0.3, per_cluster=20, stragglers=5):
    """Three tight blobs at the reference truths plus uniform stragglers;
    fitness decays with distance to the nearest truth."""
    truths = np.column_stack([TRUE_AZIMUTH_DEG, TRUE_ELEVATION_DEG])
    blobs = [t + rng.normal(scale=spread, size=(per_cluster, 2)) for t in truths]
    scatter = rng.uniform([0, 0], [360, 90], size=(stragglers, 2))
    positions = np.vstack(blobs + [scatter])
    dist = np.min(
        np.sqrt(((positions[:, None, :] - truths[None, :, :]) ** 2).sum(axis=2)), axis=1
    )
    return make_population(positions, 100.0 - dist), truths


class TestExtractDbscan:
    def test_converged_population_recovers_truths(self):
        rng = np.random.default_rng(1)
        population, truths = converged_population(rng)
        result = extract_dbscan(population, 3, eps=3.0, min_pts=4)
        assert not result.shortfall
        assert len(result.estimates) == 3
        for estimate in result.estimates:
            best = np.min(
                np.sqrt((truths[:, 0] - estimate.azimuth_deg) ** 2 + (truths[:, 1] - estimate.elevation_deg) ** 2)
            )
            assert best <= 1.0  # within the cluster spread

    def test_all_noise_returns_empty_with_flag(self):
        rng = np.random.default_rng(2)
        population = make_population(rng.uniform([0, 0], [360, 90], size=(20, 2)), rng.uniform(size=20))
        result = extract_dbscan(population, 3, eps=0.5, min_pts=4)
        assert result.shortfall
        assert result.estimates == ()

    def test_fitness_tie_goes_to_lower_index(self):
        positions = np.array([[10.0, 10.0], [10.1, 10.0], [10.2, 10.0], [10.0, 10.1]])
        population = make_population(positions, np.array([5.0, 5.0, 5.0, 5.0]))
        result = extract_dbscan(population, 1, eps=1.0, min_pts=2)
        assert result.estimates[0].azimuth_deg == 10.0
        assert result.estimates[0].elevation_deg == 10.0

    def test_representative_dominates_cluster(self):
        rng = np.random.default_rng(3)
        population, _ = converged_population(rng)
        result = extract_dbscan(population, 3, eps=3.0, min_pts=4)
        for estimate in result.estimates:
            members = np.flatnonzero(result.labels == estimate.cluster_id)
            assert estimate.fitness >= population.fitness[members].max()

    def test_representatives_distinct(self):
        rng = np.random.default_rng(4)
        population, _ = converged_population(rng)
        result = extract_dbscan(population, 3, eps=3.0, min_pts=4)
        coords = {(e.azimuth_deg, e.elevation_deg) for e in result.estimates}
        assert len(coords) == len(result.estimates)

    def test_more_clusters_than_sources_keeps_best(self):
        rng = np.random.default_rng(5)
        population, _ = converged_population(rng)
        result = extract_dbscan(population, 2, eps=3.0, min_pts=4)
        assert len(result.estimates) == 2
        assert not result.shortfall
        assert result.estimates[0].fitness >= result.estimates[1].fitness


def bruteforce_peaks(population, k):
    """Indices whose fitness strictly exceeds that of each of their k nearest
    neighbors, distance ties going to the lower index."""
    size = len(population)
    peaks = []
    for i in range(size):
        dist = [(float(((population.positions[i] - population.positions[j]) ** 2).sum()), j) for j in range(size) if j != i]
        dist.sort()
        neighbors = [j for _, j in dist[:k]]
        if population.fitness[i] > max(population.fitness[j] for j in neighbors):
            peaks.append(i)
    return peaks


class TestExtractKLocalMax:
    def test_increasing_line_keeps_only_endpoint(self):
        positions = np.column_stack([np.linspace(0, 90, 10), np.full(10, 45.0)])
        population = make_population(positions, np.arange(10, dtype=float))
        result = extract_klocalmax(population, 3, num_neighbors=2)
        assert result.shortfall  # only one local max exists
        assert len(result.estimates) == 1
        assert result.estimates[0].fitness == 9.0

    def test_full_neighborhood_keeps_global_best_only(self):
        rng = np.random.default_rng(6)
        population = make_population(rng.uniform([0, 0], [360, 90], size=(15, 2)), rng.uniform(size=15))
        result = extract_klocalmax(population, 3, num_neighbors=14)
        assert len(result.estimates) == 1
        assert result.estimates[0].fitness == population.fitness.max()

    def test_matches_bruteforce_enumeration(self):
        for seed in range(20):
            rng = np.random.default_rng(seed + 100)
            size = int(rng.integers(8, 80))
            k = int(rng.integers(1, size - 1))
            num_sources = int(rng.integers(1, 6))
            population = make_population(
                rng.uniform([0, 0], [360, 90], size=(size, 2)), rng.uniform(size=size)
            )
            result = extract_klocalmax(population, num_sources, num_neighbors=k)
            peaks = bruteforce_peaks(population, k)
            peaks.sort(key=lambda i: (-population.fitness[i], i))
            expected = peaks[:num_sources]
            got = [e.fitness for e in result.estimates]
            assert got == [population.fitness[i] for i in expected]
            assert result.shortfall == (len(peaks) < num_sources)


class TestExtractKMeansPP:
    def test_single_cluster_returns_global_best(self):
        rng = np.random.default_rng(8)
        population = make_population(rng.uniform([0, 0], [360, 90], size=(30, 2)), rng.uniform(size=30))
        result = extract_kmeanspp(population, 1, rng_seed=0)
        assert len(result.estimates) == 1
        assert result.estimates[0].fitness == population.fitness.max()

    def test_separated_clusters_match_dbscan(self):
        rng = np.random.default_rng(9)
        population, _ = converged_population(rng, stragglers=0)
        km = extract_kmeanspp(population, 3, rng_seed=1)
        db = extract_dbscan(population, 3, eps=3.0, min_pts=4)
        km_coords = {(e.azimuth_deg, e.elevation_deg) for e in km.estimates}
        db_coords = {(e.azimuth_deg, e.elevation_deg) for e in db.estimates}
        assert km_coords == db_coords

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        population = make_population(rng.uniform([0, 0], [360, 90], size=(40, 2)), rng.uniform(size=40))
        first = extract_kmeanspp(population, 4, rng_seed=3)
        second = extract_kmeanspp(population, 4, rng_seed=3)
        assert first.estimates == second.estimates

    def test_always_returns_exactly_num_sources(self):
        for seed in range(10):
            rng = np.random.default_rng(seed + 200)
            size = int(rng.integers(6, 60))
            num_sources = int(rng.integers(1, min(6, size + 1)))
            population = make_population(
                rng.uniform([0, 0], [360, 90], size=(size, 2)), rng.uniform(size=size)
            )
            result = extract_kmeanspp(population, num_sources, rng_seed=seed)
            assert len(result.estimates) == num_sources
            assert not result.shortfall

    def test_coincident_points_fill_every_cluster(self):
        # two locations for three clusters: seeding draws from all-zero distances and
        # Lloyd's assignment leaves a cluster empty, which takes a point from a larger one
        positions = [[10.0, 10.0]] * 4 + [[50.0, 20.0]] * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = extract_kmeanspp(make_population(positions, np.arange(7.0)), 3, rng_seed=0)
        assert len(result.estimates) == 3
        assert not result.shortfall
        assert np.all(np.bincount(result.labels, minlength=3) > 0)

    def test_representative_dominates_cluster(self):
        rng = np.random.default_rng(11)
        population, _ = converged_population(rng)
        result = extract_kmeanspp(population, 3, rng_seed=0)
        for estimate in result.estimates:
            members = np.flatnonzero(result.labels == estimate.cluster_id)
            assert estimate.fitness >= population.fitness[members].max()


def tied_population(rng):
    """A converged population whose fitness is rounded to one decimal, so
    that members of a cluster, and the peaks of different ones, tie."""
    population, _ = converged_population(rng, spread=float(rng.uniform(0.3, 2.0)), stragglers=int(rng.integers(0, 30)))
    return make_population(population.positions, np.round(population.fitness, 1))


# each extraction with the labeling it selects from: (population, num_sources, rng) -> (result, labels)
def _dbscan_labeled(population, num_sources, rng):
    result = extract_dbscan(population, num_sources, eps=float(rng.uniform(0.5, 3.0)), min_pts=4)
    return result, result.labels


def _klocalmax_labeled(population, num_sources, rng):
    k = int(rng.integers(1, 12))
    labels = np.full(len(population), NOISE)
    peaks = bruteforce_peaks(population, k)
    labels[peaks] = peaks
    return extract_klocalmax(population, num_sources, num_neighbors=k), labels


def _kmeanspp_labeled(population, num_sources, rng):
    result = extract_kmeanspp(population, num_sources, rng_seed=int(rng.integers(100)))
    return result, result.labels


@pytest.mark.parametrize(
    "labeled", [_dbscan_labeled, _klocalmax_labeled, _kmeanspp_labeled], ids=["dbscan", "klocalmax", "kmeanspp"]
)
def test_estimates_are_the_fittest_member_of_each_label(labeled):
    for seed in range(15):
        rng = np.random.default_rng(seed + 300)
        population = tied_population(rng)
        num_sources = int(rng.integers(1, 7))
        result, labels = labeled(population, num_sources, rng)
        fitness = population.fitness
        best = [
            max(np.flatnonzero(labels == label), key=lambda i: (fitness[i], -i))
            for label in set(labels.tolist()) - {NOISE}
        ]
        best.sort(key=lambda i: (-fitness[i], i))
        got = [(e.azimuth_deg, e.elevation_deg, e.fitness) for e in result.estimates]
        assert got == [(*population.positions[i], fitness[i]) for i in best[:num_sources]]
        assert result.shortfall == (len(best) < num_sources)
        if labeled is _klocalmax_labeled:
            assert result.labels is None
            assert all(e.cluster_id is None for e in result.estimates)
        else:
            assert [e.cluster_id for e in result.estimates] == [labels[i] for i in best[:num_sources]]


@pytest.mark.parametrize(
    "extract, message",
    [
        (lambda: extract_dbscan(make_population(np.empty((0, 2)), np.empty(0)), 1), "non-empty"),
        (lambda: extract_klocalmax(make_population(np.zeros((5, 2)), np.arange(5.0)), 1, 5), "num_neighbors"),
        (lambda: extract_kmeanspp(make_population(np.zeros((2, 2)), np.arange(2.0)), 3), "at least num_sources"),
        # a count below one would slice the representatives from the end, or take none, with no shortfall
        (lambda: extract_dbscan(make_population(np.zeros((5, 2)), np.arange(5.0)), -1), "num_sources must be positive"),
        (lambda: extract_klocalmax(make_population(np.zeros((5, 2)), np.arange(5.0)), 0), "num_sources must be positive"),
        (lambda: extract_kmeanspp(make_population(np.zeros((5, 2)), np.arange(5.0)), -1), "num_sources must be positive"),
    ],
    ids=["dbscan", "klocalmax", "kmeanspp", "dbscan-num_sources", "klocalmax-num_sources", "kmeanspp-num_sources"],
)
def test_extractions_refuse_bad_input(extract, message):
    with pytest.raises(ValueError, match=message):
        extract()
