import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from doakit import (
    CountingObjective,
    DEConfig,
    ScenarioConfig,
    SearchBox,
    de_crossover,
    de_mutate,
    nearest_neighbor_indices,
    noise_projector,
    run_population,
    run_trial,
    sample_covariance,
    spectrum_objective,
    subspace_split,
    synthesize_snapshots,
)
from doakit.optimizer import (
    _Run,
    _assign_species,
    _global_donor_candidates,
    _pick_donors,
    _shared_greedy,
    _species_donor_table,
    squared_distances,
)

BOX = SearchBox()

PEAK_A = np.array([90.0, 30.0])
PEAK_B = np.array([270.0, 60.0])


def unimodal(positions):
    p = np.atleast_2d(positions)
    return -((p[:, 0] - 100.0) ** 2) - (p[:, 1] - 45.0) ** 2


def bimodal(positions):
    """Two equal peaks of value 100 at PEAK_A and PEAK_B."""
    p = np.atleast_2d(positions)
    da = (p[:, 0] - PEAK_A[0]) ** 2 + (p[:, 1] - PEAK_A[1]) ** 2
    db = (p[:, 0] - PEAK_B[0]) ** 2 + (p[:, 1] - PEAK_B[1]) ** 2
    return 100.0 - np.minimum(da, db)


def peak_occupancy(population, peak, radius=1.0):
    delta = population.positions - peak
    return int(np.sum(np.sqrt(np.einsum("ij,ij->i", delta, delta)) <= radius))


NICHING_RUNNERS = {
    "denm": lambda cfg: run_population("denm", bimodal, BOX, cfg),
    "dcde": lambda cfg: run_population("dcde", bimodal, BOX, cfg),
    "sharede": lambda cfg: run_population("sharede", bimodal, BOX, cfg, share_radius=15.0),
    "sde": lambda cfg: run_population("sde", bimodal, BOX, cfg, species_radius=15.0),
}


class TestSearchBox:
    def test_reflection_matches_iterated_mirror(self):
        def mirror(value, lo, hi):
            while value < lo or value > hi:
                if value < lo:
                    value = 2 * lo - value
                else:
                    value = 2 * hi - value
            return value

        rng = np.random.default_rng(0)
        raw = rng.uniform(-1000.0, 1400.0, size=(10_000, 2))
        folded = BOX.reflect(raw)
        assert BOX.contains(folded)
        for k in range(0, 10_000, 97):
            assert abs(folded[k, 0] - mirror(raw[k, 0], 0.0, 360.0)) < 1e-9
            assert abs(folded[k, 1] - mirror(raw[k, 1], 0.0, 90.0)) < 1e-9

    def test_reflection_examples(self):
        np.testing.assert_allclose(BOX.reflect(np.array([-5.0, 50.0])), [5.0, 50.0])
        np.testing.assert_allclose(BOX.reflect(np.array([365.0, 95.0])), [355.0, 85.0])
        np.testing.assert_allclose(BOX.reflect(np.array([120.0, 45.0])), [120.0, 45.0])

    def test_bounds_are_fixed(self):
        np.testing.assert_array_equal(SearchBox().lows, [0.0, 0.0])
        np.testing.assert_array_equal(SearchBox().highs, [360.0, 90.0])
        with pytest.raises(ValueError):
            BOX.lows[0] = 10.0


class TestDEConfig:
    def test_neighborhood_bounds(self):
        with pytest.raises(ValueError):
            DEConfig(population_size=8, neighborhood_size=8)  # self excluded from neighbors
        with pytest.raises(ValueError):
            DEConfig(neighborhood_size=3)
        with pytest.raises(ValueError):
            DEConfig(population_size=3)
        # four neighbors besides the point itself need five points, whatever
        # neighborhood_size is asked for
        with pytest.raises(ValueError, match="population_size must be at least 5"):
            DEConfig(population_size=4, neighborhood_size=3)
        with pytest.raises(ValueError):
            DEConfig(crossover_rate=1.5)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="rng_seed must be non-negative"):
            DEConfig(rng_seed=-1)
        assert DEConfig(rng_seed=0).rng_seed == 0


class TestMutate:
    def test_arithmetic(self):
        v = de_mutate(np.array([10.0, 20.0]), np.array([30.0, 40.0]), np.array([10.0, 10.0]), 0.5, BOX)
        np.testing.assert_allclose(v, [20.0, 35.0])

    def test_vanishing_difference(self):
        x = np.array([50.0, 60.0])
        np.testing.assert_allclose(de_mutate(x, np.array([7.0, 8.0]), np.array([7.0, 8.0]), 0.9, BOX), x)

    def test_out_of_box_is_reflected(self):
        v = de_mutate(np.array([1.0, 50.0]), np.array([0.0, 50.0]), np.array([12.0, 50.0]), 0.5, BOX)
        np.testing.assert_allclose(v, [5.0, 50.0])  # raw azimuth -5 mirrors to +5


class TestCrossover:
    def test_full_rate_copies_mutant(self):
        rng = np.random.default_rng(0)
        x, v = np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])
        np.testing.assert_array_equal(de_crossover(x, v, 1.0, rng), v)

    def test_zero_rate_keeps_one_forced_coordinate(self):
        rng = np.random.default_rng(1)
        x, v = np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])
        for _ in range(50):
            u = de_crossover(x, v, 0.0, rng)
            assert int(np.sum(u != x)) == 1

    def test_coordinate_take_rate_matches_enumeration(self):
        # forced coordinate is uniform over 2, so in 2-D the chance a given
        # coordinate comes from the mutant is 1/2 + 1/2 * rate
        rate = 0.5
        expected = 0.5 + 0.5 * rate
        assert 0.70 <= expected <= 0.80
        rng = np.random.default_rng(2)
        x = np.zeros((10_000, 2))
        v = np.ones((10_000, 2))
        taken = de_crossover(x, v, rate, rng)
        freq = taken.mean(axis=0)
        assert np.all(freq >= 0.70) and np.all(freq <= 0.80)
        assert np.all(np.abs(freq - expected) < 0.02)


class TestDonors:
    def test_global_candidates_exclude_self(self):
        candidates = _global_donor_candidates(7)
        for i in range(7):
            assert i not in candidates[i]
            assert sorted(candidates[i]) == sorted(set(range(7)) - {i})

    def test_three_distinct_donors(self):
        # global candidates (de, dcde, sharede), m-nearest-neighbor
        # candidates (denm) at the smallest allowed m, with tied positions,
        # and the masked species table (sde) of a random partition
        rng = np.random.default_rng(3)
        layout = np.random.default_rng(4)
        partition = np.random.default_rng(5)
        for _ in range(500):
            positions = layout.uniform(0.0, 90.0, size=(12, 2))
            positions[5] = positions[2]
            tables = [
                (_global_donor_candidates(12), None),
                (nearest_neighbor_indices(positions, 4), None),
                _species_donor_table(partition.integers(0, 4, size=12)),
            ]
            for candidates, valid in tables:
                donors = _pick_donors(rng, candidates, valid)
                assert np.all(donors[:, 0] != donors[:, 1])
                assert np.all(donors[:, 0] != donors[:, 2])
                assert np.all(donors[:, 1] != donors[:, 2])
                assert np.all(donors != np.arange(12)[:, None])


def reflect_oracle(positions):
    """SearchBox.reflect as first written: the triangle-wave fold onto [lo, hi], lows included."""
    lo = BOX.lows
    span = BOX.highs - lo
    folded = np.mod(np.asarray(positions, dtype=float) - lo, 2.0 * span)
    return lo + span - np.abs(folded - span)


def mutate_oracle(base, diff_a, diff_b, scale_factor):
    """de_mutate as first written, through a fresh array at each step."""
    return reflect_oracle(np.asarray(base, dtype=float) + scale_factor * np.subtract(diff_a, diff_b, dtype=float))


def crossover_oracle(parent, mutant, crossover_rate, rng):
    """de_crossover as first written: the forced coordinates set by a (row, column) index."""
    take = rng.random(parent.shape) < crossover_rate
    forced = rng.integers(parent.shape[1], size=len(parent))
    take[np.arange(len(parent)), forced] = True
    return np.where(take, mutant, parent)


def pick_donors_oracle(rng, candidates, valid=None):
    """_pick_donors as first written, through np.take_along_axis."""
    keys = rng.random(candidates.shape)
    if valid is not None:
        keys[~valid] = np.inf
    order = np.argsort(keys, axis=1)[:, :3]
    return np.take_along_axis(candidates, order, axis=1)


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint8), expected.view(np.uint8))  # -0.0 and NaN payloads too


def far_and_bound_points(rng, count):
    """(count, 2) points: a third inside the box, a third up to five spans outside it on
    either side, and a third on a bound or on a multiple of a span (0, 90, 360, -720, ...)."""
    spans = BOX.highs - BOX.lows
    inside = rng.uniform(BOX.lows, BOX.highs, size=(count // 3, 2))
    far = rng.uniform(BOX.lows - 5 * spans, BOX.highs + 5 * spans, size=(count // 3, 2))
    on_bounds = rng.integers(-6, 7, size=(count - 2 * (count // 3), 2)) * spans
    points = np.vstack([inside, far, on_bounds])
    points[rng.random(points.shape) < 0.02] = -0.0
    return points[rng.permutation(len(points))]


class TestKernelsMatchOracles:
    """The generation kernels, rewritten in place, against their first bodies, bit for bit,
    with the generator left in the same state."""

    def test_reflect(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            points = far_and_bound_points(rng, 600)
            expected = reflect_oracle(points)
            assert_same_bits(BOX.reflect(points), expected)
            buffer = points.copy()
            assert BOX.reflect(buffer, out=buffer) is buffer
            assert_same_bits(buffer, expected)
        assert_same_bits(BOX.reflect(np.array([-5.0, 95.0])), reflect_oracle(np.array([-5.0, 95.0])))

    @pytest.mark.parametrize("scale_factor", [0.5, 0.9, 1.7, 1e-3])
    def test_mutate(self, scale_factor):
        rng = np.random.default_rng(21)
        for _ in range(20):
            base, diff_a, diff_b = (far_and_bound_points(rng, 300) for _ in range(3))
            expected = mutate_oracle(base, diff_a, diff_b, scale_factor)
            assert_same_bits(de_mutate(base, diff_a, diff_b, scale_factor, BOX), expected)

    @pytest.mark.parametrize("rate", [0.0, 0.3, 0.9, 1.0])
    def test_crossover(self, rate):
        layout = np.random.default_rng(22)
        rng, oracle_rng = np.random.default_rng(23), np.random.default_rng(23)
        for size in (1, 2, 7, 256, 1000):
            parent, mutant = far_and_bound_points(layout, size), far_and_bound_points(layout, size)
            expected = crossover_oracle(parent, mutant, rate, oracle_rng)
            assert_same_bits(de_crossover(parent, mutant, rate, rng), expected)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_pick_donors(self):
        # global candidates (de, dcde, sharede), neighbour lists (denm) and sde's masked species tables
        layout = np.random.default_rng(24)
        rng, oracle_rng = np.random.default_rng(25), np.random.default_rng(25)
        for size in (5, 12, 256):
            positions = layout.uniform(BOX.lows, BOX.highs, size=(size, 2))
            tables = [
                (_global_donor_candidates(size), None),
                (nearest_neighbor_indices(positions, 4), None),
                (nearest_neighbor_indices(positions, min(16, size - 1)), None),
                _species_donor_table(layout.integers(0, 4, size=size)),
                _species_donor_table(np.zeros(size, dtype=int)),
                _species_donor_table(np.arange(size)),
            ]
            for candidates, valid in tables:
                for _ in range(5):
                    expected = pick_donors_oracle(oracle_rng, candidates, valid)
                    np.testing.assert_array_equal(_pick_donors(rng, candidates, valid), expected)
                    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestSpeciesDonorTable:
    # species of sizes 1, 2, 3, 4 and 6, members interleaved across slots
    SPECIES_OF = np.random.default_rng(5).permutation(np.repeat(np.arange(5), [1, 2, 3, 4, 6]))

    def test_donors_are_species_mates_topped_up_with_own_fillers(self):
        species_of = self.SPECIES_OF
        size = len(species_of)
        candidates, valid = _species_donor_table(species_of)
        mates = [set(np.flatnonzero(species_of == s).tolist()) - {i} for i, s in enumerate(species_of)]
        fillers = [{size + 3 * i + k for k in range(3)} for i in range(size)]
        drawn = [set() for _ in range(size)]
        rng = np.random.default_rng(6)
        for _ in range(2000):
            for i, picked in enumerate(map(set, _pick_donors(rng, candidates, valid).tolist())):
                assert len(picked) == 3
                assert picked <= mates[i] | fillers[i]
                assert len(picked & fillers[i]) == max(0, 3 - len(mates[i]))
                drawn[i] |= picked & mates[i]
        # every species-mate is reachable, not only some of them
        assert drawn == mates


def stable_sort_neighbors(positions):
    """Every other point of each row, nearest first, and their squared
    distances: a stable argsort of the float64 dx*dx + dy*dy over all points,
    self removed, so equal distances keep index order."""
    pos = np.asarray(positions, dtype=float)
    dx = pos[:, None, 0] - pos[None, :, 0]
    dy = pos[:, None, 1] - pos[None, :, 1]
    distances = dx * dx + dy * dy
    order = np.argsort(distances, axis=1, kind="stable")
    order = order[order != np.arange(len(pos))[:, None]].reshape(len(pos), len(pos) - 1)
    return order, np.take_along_axis(distances, order, axis=1)


def assert_counts_match_stable_sort(positions, counts):
    order, _ = stable_sort_neighbors(positions)
    for count in counts:
        found = nearest_neighbor_indices(positions, count)
        assert found.shape == (len(positions), count)
        np.testing.assert_array_equal(found, order[:, :count], err_msg=f"count {count}")


class TestNearestNeighbors:
    def test_ties_match_bruteforce(self):
        rng = np.random.default_rng(11)
        lattice = rng.integers(0, 6, size=(40, 2)).astype(float)
        collapsed = rng.uniform(0.0, 100.0, size=(45, 2))
        collapsed[:15] = collapsed[0]  # a third of the rows on one point
        # the centre sees four points at distance 1: the cut at 2 splits them,
        # the cut at 4 holds all of them, a tie inside the list only
        cross = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [5.0, 5.0]])
        # rows 7 and 19 sit on one point: a distance-0 tie with self
        twin = rng.uniform(0.0, 100.0, size=(30, 2))
        twin[19] = twin[7]
        # denm populations on the two-peak objective, mid-run and converged:
        # clustered, with duplicates and near-ties that uniform draws lack
        config = DEConfig(population_size=256, neighborhood_size=16, rng_seed=0)
        mid_run = run_population("denm", bimodal, BOX, config).positions
        converged = run_population("denm", bimodal, BOX, replace(config, max_iterations=100)).positions
        cases = [
            (lattice, 1), (lattice, 7), (lattice, 38), (lattice, 39),
            (collapsed, 4), (collapsed, 14), (collapsed, 20), (collapsed, 43), (collapsed, 44),
            (cross, 2), (cross, 4), (cross, 5),
            (twin, 3), (twin, 28),
            (mid_run, 16), (converged, 16),
        ]  # count = n - 2 checks every key of a row for ties
        seen = set()
        for positions, count in cases:
            order, distances = stable_sort_neighbors(positions)
            np.testing.assert_array_equal(nearest_neighbor_indices(positions, count), order[:, :count])
            # a tie straddles the cut where the count-th and the next-nearest distances are
            # equal, so the lower index has to win it; a row with no next point has none
            if count < len(positions) - 1:
                seen.update((distances[:, count - 1] == distances[:, count]).tolist())
            else:
                seen.add(False)
        # rows with and without a distance tie straddling the cut both occur
        assert seen == {False, True}

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            size = int(rng.integers(6, 65))
            count = int(rng.integers(1, size - 1))
            positions = rng.uniform(0.0, 100.0, size=(size, 2))
            if size > 10:
                positions[3] = positions[7]  # force distance ties
            assert_counts_match_stable_sort(positions, (count,))

    def test_near_tie_below_the_index_bits(self):
        # point 2 is closer to point 0 than point 1 is, by a few ulps of the
        # squared distance: the two differ only in the lowest bits, which the
        # sort keys give to the column index, so the keys alone would rank 1 first
        bits = 3  # index bits of a 5-point row
        x = 3.0
        while True:
            x = np.nextafter(x, 4.0)
            y = np.nextafter(x, 0.0)
            near, far = np.array([y * y, x * x]).view(np.uint64)
            if near < far and near >> bits == far >> bits:
                break
        positions = np.array([[0.0, 0.0], [x, 0.0], [0.0, y], [40.0, 40.0], [-40.0, 35.0]])
        np.testing.assert_array_equal(nearest_neighbor_indices(positions, 1)[0], [2])
        assert_counts_match_stable_sort(positions, (1, 2, 4))

    @pytest.mark.parametrize("size", [2, 255, 256, 257])
    def test_whole_rows_where_index_bits_grow(self, size):
        # (size - 1).bit_length() index bits: 1, 8, 8 and 9; the last point
        # duplicates the first, so the highest index also sits in a tied row
        positions = np.random.default_rng(size).uniform(0.0, 100.0, size=(size, 2))
        if size > 2:
            positions[-1] = positions[0]
        assert_counts_match_stable_sort(positions, (size - 1,))

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            nearest_neighbor_indices(np.zeros((5, 2)), 5)


class TestFloat32Keys:
    """The sort keys hold squared distances rounded to float32; the cases
    where that rounding loses an order the float64 distances have."""

    def test_distances_equal_in_float32(self):
        # point 1 is farther from point 0 than point 2 is, by 9e-12 on a
        # squared distance of 9: apart in float64, one float32, so the keys rank 1 first
        positions = np.array([[0.0, 0.0], [3.0, 3e-6], [0.0, 3.0], [40.0, 40.0], [-40.0, 35.0]])
        near, far = 9.0, 9.0 + 3e-6**2
        assert near < far and np.float32(near) == np.float32(far)
        np.testing.assert_array_equal(nearest_neighbor_indices(positions, 1)[0], [2])
        assert_counts_match_stable_sort(positions, (1, 2, 4))

    def test_squared_distances_beyond_float32_range(self):
        # squared distances up to about 4e40 overflow float32 (max 3.4e38) to
        # inf; ten points within 1e18 of each other keep finite keys
        rng = np.random.default_rng(21)
        positions = rng.uniform(-1e20, 1e20, size=(40, 2))
        positions[:10] = rng.uniform(0.0, 1e18, size=(10, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_counts_match_stable_sort(positions, (1, 5, 12, 38))

    def test_squared_distances_subnormal_in_float64(self):
        # separations near 1e-160 square to about 1e-320: subnormal, and
        # still ordered, in float64 but 0 in float32; five points at unit scale
        rng = np.random.default_rng(22)
        positions = rng.uniform(0.0, 4e-160, size=(30, 2))
        positions[25:] = rng.uniform(1.0, 2.0, size=(5, 2))
        sq = np.sum((positions[0] - positions[1:25]) ** 2, axis=1)
        assert np.all(sq < np.finfo(float).tiny) and len(np.unique(sq)) > 1
        assert not np.any(sq.astype(np.float32))
        assert_counts_match_stable_sort(positions, (1, 3, 24, 28))

    def test_nine_index_bits(self):
        # 257 points need 9 index bits; the highest index is the nearest
        # neighbor of point 0, and point 1 is farther by 8 float32 ulps of
        # the squared distance: apart in float32, equal once 9 bits give way
        positions = np.random.default_rng(23).uniform(50.0, 100.0, size=(257, 2))
        positions[0] = [0.0, 0.0]
        positions[1] = [3.0, 3.0 * 2.0**-10]
        positions[256] = [0.0, 3.0]
        near, far = np.array([9.0, 9.0 + 9.0 * 2.0**-20], dtype=np.float32).view(np.uint32)
        assert near < far and near >> 9 == far >> 9
        np.testing.assert_array_equal(nearest_neighbor_indices(positions, 1)[0], [256])
        assert_counts_match_stable_sort(positions, (1, 2, 16, 255))

    @pytest.mark.parametrize("num_elements", [12, 128])
    def test_every_generation_of_a_seeded_denm_trial(self, num_elements, monkeypatch):
        searched = []

        def recording(positions, count):
            searched.append((positions.copy(), count))
            return nearest_neighbor_indices(positions, count)

        monkeypatch.setattr("doakit.optimizer.nearest_neighbor_indices", recording)
        run_trial(ScenarioConfig(num_elements=num_elements, master_seed=1), 0)
        config = DEConfig()
        assert len(searched) == config.max_iterations
        for positions, count in searched:
            assert positions.shape == (config.population_size, 2) and count == config.neighborhood_size
            assert_counts_match_stable_sort(positions, (count,))


class TestWindowedSearch:
    """Layouts that defeat the azimuth window: the points a row needs lie
    beyond it, or tie with the points at its edges, so rows must be keyed
    over all points or sorted exactly."""

    def test_every_point_at_one_azimuth(self):
        # every azimuth gap is 0, so no window proves a row exact
        positions = np.column_stack([np.full(256, 120.0), np.random.default_rng(31).uniform(0.0, 90.0, 256)])
        assert_counts_match_stable_sort(positions, (1, 16, 100, 254, 255))

    def test_two_clusters_stacked_at_one_azimuth(self):
        # the azimuth order interleaves two clusters 50 degrees apart in elevation,
        # so half of each window belongs to the other cluster
        rng = np.random.default_rng(32)
        positions = np.column_stack([120.0 + rng.normal(0.0, 1e-3, 256), rng.normal(20.0, 1.0, 256)])
        positions[1::2, 1] += 50.0
        positions[200:210] = positions[7]  # duplicates inside one cluster
        assert_counts_match_stable_sort(positions, (1, 4, 16, 64, 127, 128, 129, 254))

    @pytest.mark.parametrize("count", [1, 4, 16])
    def test_sizes_from_count_plus_two(self, count):
        # N = count + 2 upward, past the sizes where the window stops
        # covering every point (about twice its half-width, 3 isqrt(N))
        rng = np.random.default_rng(33 + count)
        for size in range(count + 2, 80):
            centres = rng.uniform((0.0, 0.0), (360.0, 90.0), size=(3, 2))
            positions = centres[rng.integers(3, size=size)] + rng.normal(0.0, 2.0, size=(size, 2))
            positions[-1] = positions[0]
            assert_counts_match_stable_sort(positions, (count,))

    def test_duplicates_at_the_window_edges(self):
        # points in equal pairs along a line, and a lattice with repeated
        # azimuths: across every count, some row's cut and some window's
        # edge fall between two copies of one point
        pairs = np.repeat(np.column_stack([np.arange(128.0), np.zeros(128)]), 2, axis=0)
        assert_counts_match_stable_sort(pairs, range(1, 256))
        lattice = np.random.default_rng(34).integers(0, 16, size=(256, 2)).astype(float)
        assert_counts_match_stable_sort(lattice, range(1, 256, 3))

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_nearest_point_in_the_window_end_column(self, side):
        # at N = 256 the window reaches 48 places along the azimuth order on
        # each side; point 0 at azimuth 0 has its nearest point 48 places
        # away, then two points at squared distances 2353.25 and 2356.25,
        # under the gap 49^2 to the first point beyond the window
        positions = np.column_stack([np.arange(256.0), np.zeros(256)])
        positions[1:48, 1] = 1000.0
        positions[[1, 2], 1] = 48.5
        positions[:, 0] *= side
        np.testing.assert_array_equal(nearest_neighbor_indices(positions, 2)[0], [48, 1])
        assert_counts_match_stable_sort(positions, (1, 2, 3))

    def test_padding_beside_float32_overflow(self):
        # real squared distances that overflow float32 to inf sit beside the
        # window's +-inf padding in the same rows
        rng = np.random.default_rng(35)
        positions = rng.uniform(-1e20, 1e20, size=(256, 2))
        positions[:40] = rng.uniform(0.0, 1e18, size=(40, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_counts_match_stable_sort(positions, (1, 5, 16, 39, 40, 100, 254))

    def test_padding_beside_subnormal_distances(self):
        rng = np.random.default_rng(36)
        positions = rng.uniform(0.0, 4e-160, size=(256, 2))
        positions[200:] = rng.uniform(1.0, 2.0, size=(56, 2))
        assert_counts_match_stable_sort(positions, (1, 3, 16, 199, 200, 254))


def float32_twins(base, steps):
    """x coordinates whose squares are base**2 plus a few float64 ulps per
    step: distinct and ordered as steps in float64, one value in float32."""
    xs = [base + step * 4e-15 for step in steps]
    squares = np.array(xs) ** 2
    assert len(np.unique(squares)) == len(steps) and len(np.unique(squares.astype(np.float32))) == 1
    return xs


class TestStableSortOracle:
    """The half-band search against a full stable sort: each distance is
    computed once and read from both ends, and a tie is settled among the
    count + 2 listed points unless it reaches the last of them."""

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0])
    @pytest.mark.parametrize("num_elements", [12, 128])
    def test_recorded_denm_generations(self, num_elements, snr_db, monkeypatch):
        searched = []

        def recording(positions, count):
            searched.append(positions.copy())
            return nearest_neighbor_indices(positions, count)

        monkeypatch.setattr("doakit.optimizer.nearest_neighbor_indices", recording)
        run_trial(ScenarioConfig(num_elements=num_elements, snr_db=snr_db, master_seed=3), 1)
        assert len(searched) == DEConfig().max_iterations
        for positions in searched:
            assert_counts_match_stable_sort(positions, (1, 8, 16, len(positions) - 1))

    @pytest.mark.parametrize("size", [5, 6, 17, 256, 257, 512])
    def test_sizes_and_counts_with_duplicates(self, size):
        # coordinates on a coarse lattice, plus copies of earlier points, so
        # rows tie inside their list, at its cut and at distance 0 with self;
        # counts up to N - 1, where the window spans every point
        rng = np.random.default_rng(40 + size)
        positions = np.round(rng.uniform((0.0, 0.0), (360.0, 90.0), size=(size, 2)) / 7.0) * 7.0
        copies = rng.integers(0, size, size=size // 4 + 1)
        positions[rng.integers(0, size, size=len(copies))] = positions[copies]
        assert_counts_match_stable_sort(positions, sorted({1, min(8, size - 1), min(16, size - 1), size - 1}))

    def test_copies_of_self_beyond_the_list(self):
        # eight copies of one point: the higher copies list only lower ones
        # among their count + 2 nearest, so self is not in the list at all
        rng = np.random.default_rng(41)
        positions = rng.uniform(0.0, 100.0, size=(30, 2))
        positions[[2, 5, 6, 11, 17, 20, 23, 29]] = positions[2]
        np.testing.assert_array_equal(nearest_neighbor_indices(positions, 2)[29], [2, 5])
        assert_counts_match_stable_sort(positions, (1, 2, 5, 6, 7, 8, 28))

    def test_exact_tie_at_the_cut(self):
        # from point 0, points 4 and 2 lie at one float64 distance, the count-th
        # and the next: the lower index wins the cut
        positions = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 2.0], [50.0, 50.0], [2.0, 0.0], [0.0, -3.0]])
        np.testing.assert_array_equal(nearest_neighbor_indices(positions, 2)[0], [1, 2])
        assert_counts_match_stable_sort(positions, (1, 2, 3, 5))

    def test_float32_tie_inside_the_list(self):
        # points 1 and 2 share a float32 key, 2 nearer in float64; point 3
        # after them keys higher, so the tie is settled within the list
        x1, x2 = float32_twins(3.0, [2, 1])
        positions = np.array([[0.0, 0.0], [x1, 0.0], [0.0, x2], [4.0, 4.0], [40.0, 40.0], [-40.0, 35.0]])
        np.testing.assert_array_equal(nearest_neighbor_indices(positions, 2)[0], [2, 1])
        assert_counts_match_stable_sort(positions, (1, 2, 5))

    def test_float32_tie_across_the_cut(self):
        # points 1, 2 and 3 share a float32 key and lie nearer in float64 the
        # higher their index: for one neighbor the list holds 1 and 2 only,
        # and the nearest, 3, is found among all points
        x1, x2, x3 = float32_twins(3.0, [3, 2, 1])
        positions = np.array([[0.0, 0.0], [x1, 0.0], [0.0, x2], [-x3, 0.0], [40.0, 40.0], [-40.0, 35.0]])
        np.testing.assert_array_equal(nearest_neighbor_indices(positions, 1)[0], [3])
        np.testing.assert_array_equal(nearest_neighbor_indices(positions, 2)[0], [3, 2])
        assert_counts_match_stable_sort(positions, (1, 2, 3, 5))

    def test_squared_distances_beyond_float64_range(self):
        # coordinates near 1e200 square to inf even in float64, so those
        # distances tie with each other and with nothing else: a row still
        # never lists itself, wherever its index falls among the ties
        rng = np.random.default_rng(42)
        positions = rng.uniform(-1e200, 1e200, size=(12, 2))
        positions[[3, 7, 8]] = rng.uniform(0.0, 1.0, size=(3, 2))
        with np.errstate(over="ignore"):
            assert_counts_match_stable_sort(positions, (1, 2, 3, 10, 11))

    def test_overflow_raises_no_warning(self):
        # the kernel keeps overflow to itself: no errstate around the call, only around the oracle's
        positions = np.random.default_rng(43).uniform(-1e200, 1e200, size=(20, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = nearest_neighbor_indices(positions, 5)
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(found, stable_sort_neighbors(positions)[0][:, :5])


class TestSquaredDistances:
    def test_equals_cdist_bit_for_bit(self):
        rng = np.random.default_rng(37)
        for scale in (1.0, 360.0, 1e-160, 1e20):
            points = rng.uniform(-scale, scale, size=(int(rng.integers(1, 80)), 2))
            others = rng.uniform(-scale, scale, size=(int(rng.integers(1, 80)), 2))
            shared = min(len(points), len(others)) // 2
            others[:shared] = points[:shared]  # zero distances
            expected = cdist(points, others, "sqeuclidean")
            np.testing.assert_array_equal(squared_distances(points, others).view(np.uint64), expected.view(np.uint64))


def fittest(population):
    """Position and fitness of the fittest individual, the lowest index on ties."""
    top = int(np.argmax(population.fitness))
    return population.positions[top], population.fitness[top]


class TestDeRun:
    def test_unimodal_convergence(self):
        config = DEConfig(population_size=64, max_iterations=50, neighborhood_size=8)
        for seed in range(20):
            position, _ = fittest(run_population("de", unimodal, BOX, replace(config, rng_seed=seed)))
            assert abs(position[0] - 100.0) <= 0.5
            assert abs(position[1] - 45.0) <= 0.5

    def test_zero_iterations_returns_best_initial(self):
        config = DEConfig(population_size=32, max_iterations=0, neighborhood_size=8, rng_seed=12)
        position, fitness = fittest(run_population("de", unimodal, BOX, config))
        rng = np.random.default_rng(12)
        initial = BOX.sample(rng, 32)
        values = unimodal(initial)
        top = int(np.argmax(values))
        np.testing.assert_array_equal(position, initial[top])
        assert fitness == values[top]

    def test_deterministic(self):
        config = DEConfig(population_size=32, max_iterations=15, neighborhood_size=8, rng_seed=5)
        first = fittest(run_population("de", unimodal, BOX, config))
        second = fittest(run_population("de", unimodal, BOX, config))
        np.testing.assert_array_equal(first[0], second[0])
        assert first[1] == second[1]


class TestDenmRun:
    def test_bimodal_peak_retention(self):
        # both peaks hold at least 5 individuals within 1 degree on >= 18/20 seeds
        config = dict(population_size=64, max_iterations=100, neighborhood_size=8)
        hits = 0
        for seed in range(20):
            population = run_population("denm", bimodal, BOX, DEConfig(rng_seed=seed, **config))
            if peak_occupancy(population, PEAK_A) >= 5 and peak_occupancy(population, PEAK_B) >= 5:
                hits += 1
        assert hits >= 18

    def test_population_size_invariant_and_bounds(self):
        config = DEConfig(population_size=48, max_iterations=30, neighborhood_size=8, rng_seed=2)
        population = run_population("denm", bimodal, BOX, config)
        assert len(population) == 48
        assert BOX.contains(population.positions)

    def test_large_neighborhood_still_runs(self):
        # m = P - 1 degenerates toward global DE; sanity only
        config = DEConfig(population_size=16, max_iterations=10, neighborhood_size=15, rng_seed=0)
        population = run_population("denm", bimodal, BOX, config)
        assert len(population) == 16

    def test_evaluation_budget_exact(self):
        config = DEConfig(population_size=32, max_iterations=11, neighborhood_size=8, rng_seed=3)
        counter = CountingObjective(bimodal)
        run_population("denm", counter, BOX, config)
        assert counter.count == 32 * (11 + 1)
        counter = CountingObjective(bimodal)
        run_population("de", counter, BOX, config)
        assert counter.count == 32 * (11 + 1)

    def test_slot_fitness_nondecreasing(self):
        # same seed, increasing generation counts: per-slot fitness never drops
        base = dict(population_size=24, neighborhood_size=8, rng_seed=9)
        previous = None
        for iterations in range(6):
            population = run_population("denm", bimodal, BOX, DEConfig(max_iterations=iterations, **base))
            if previous is not None:
                assert np.all(population.fitness >= previous - 1e-12)
            previous = population.fitness

    def test_plain_de_slot_fitness_nondecreasing(self):
        base = dict(population_size=24, neighborhood_size=8, rng_seed=9)
        previous = None
        for iterations in range(6):
            population = run_population("de", bimodal, BOX, DEConfig(max_iterations=iterations, **base))
            if previous is not None:
                assert np.all(population.fitness >= previous - 1e-12)
            previous = population.fitness


class TestNichingBaselines:
    @pytest.mark.parametrize("name", ["dcde", "sharede", "sde"])
    def test_bimodal_peak_retention(self, name):
        # baselines retain both peaks but converge more loosely than denm at
        # this budget (crowding needs ~3x the generations to reach 1 degree,
        # sharing equilibrates spread within its niche radius), so retention
        # is scored within 3 degrees
        config = dict(population_size=64, max_iterations=100, neighborhood_size=8)
        hits = 0
        for seed in range(20):
            population = NICHING_RUNNERS[name](DEConfig(rng_seed=seed, **config))
            if peak_occupancy(population, PEAK_A, radius=3.0) >= 5 and peak_occupancy(population, PEAK_B, radius=3.0) >= 5:
                hits += 1
        assert hits >= 14

    @pytest.mark.parametrize("name", sorted(NICHING_RUNNERS))
    def test_deterministic_and_size_preserving(self, name):
        config = DEConfig(population_size=32, max_iterations=12, neighborhood_size=8, rng_seed=7)
        first = NICHING_RUNNERS[name](config)
        second = NICHING_RUNNERS[name](config)
        np.testing.assert_array_equal(first.positions, second.positions)
        np.testing.assert_array_equal(first.fitness, second.fitness)
        assert len(first) == 32
        assert BOX.contains(first.positions)


# sha256 of the final positions and fitness of run_population at the default
# DEConfig (N = 256, 20 generations) on a 0 dB reference projector, seeds 0
# and 1 (recorded with numpy 2.4 on x86-64): the niching rules' distance
# arithmetic, pinned bit for bit
POPULATION_DIGESTS = {
    "de": "33c4806f4bdda07986fd9a1c01fd8f9a22b5c121acd996751c11d190bed0ff9d",
    "denm": "d515a8c560815db1053ac04058723a74652eec8f58e558d18ec131702ab0b76a",
    "dcde": "b715bbec0b467567175b8ec568a06ca9608e807316955d045da7deb8cc2cca1e",
    "sharede": "c778eafed757e18a50630c6630ab70b7f742f81f3326c177311826ceee9a33c5",
    "sde": "44d5a81d6f62a2c0aec38c7e428d2dd2f430fe74e583372ecab4d1a84aad0cec",
}


@pytest.fixture(scope="module")
def noisy_reference_objective(uca12, truth_sources):
    snapshots = synthesize_snapshots(uca12, truth_sources, 0.0, 100, rng_seed=7)
    return spectrum_objective(noise_projector(subspace_split(sample_covariance(snapshots), truth_sources.count), uca12))


@pytest.mark.parametrize("algorithm", sorted(POPULATION_DIGESTS))
def test_default_population_matches_recorded_digest(noisy_reference_objective, algorithm):
    digest = hashlib.sha256()
    for seed in (0, 1):
        population = run_population(algorithm, noisy_reference_objective, BOX, DEConfig(rng_seed=seed))
        digest.update(population.positions.tobytes())
        digest.update(population.fitness.tobytes())
    assert digest.hexdigest() == POPULATION_DIGESTS[algorithm]


def shared_generation(parents, parent_fitness, trials, trial_fitness, share_radius=15.0):
    """One sharede replacement step on a hand-built generation; the positions and fitness it leaves."""
    run = _Run(DEConfig(), BOX, np.random.default_rng(0), share_radius, 15.0)
    positions, fitness = np.array(parents, dtype=float), np.array(parent_fitness, dtype=float)
    _shared_greedy(run, positions, fitness, np.array(trials, dtype=float), np.array(trial_fitness, dtype=float))
    return positions, fitness


class TestSharedFitness:
    def test_crowded_trial_shares_its_fitness_and_an_isolated_one_keeps_it(self):
        # trial 0 sits on parent 1: its niche count is 2, so it competes at 9 / 2 = 4.5 and loses to parent 0's 5;
        # trial 1 is alone, so it competes at its raw 8 and beats parent 1's 7
        positions, fitness = shared_generation([[0, 0], [100, 50]], [5, 7], [[100, 50], [200, 80]], [9, 8])
        np.testing.assert_array_equal(positions, [[0.0, 0.0], [200.0, 80.0]])
        np.testing.assert_array_equal(fitness, [5.0, 8.0])

    def test_trial_does_not_count_its_own_parent(self):
        # a trial on its parent counts itself and the rest of the generation, not the parent it would replace:
        # 5 / 1 beats the parent's 4 / 1, where counting the parent too would give 5 / 2
        positions, fitness = shared_generation([[10, 10], [300, 70]], [4, 9], [[10, 10], [200, 20]], [5, 1])
        np.testing.assert_array_equal(positions, [[10.0, 10.0], [300.0, 70.0]])
        np.testing.assert_array_equal(fitness, [5.0, 9.0])

    def test_raw_fitness_kept_on_population(self):
        config = DEConfig(population_size=32, max_iterations=10, neighborhood_size=8, rng_seed=1)
        population = run_population("sharede", bimodal, BOX, config, share_radius=15.0)
        np.testing.assert_allclose(population.fitness, bimodal(population.positions))


class TestSpeciesAssignment:
    def test_everyone_within_radius_of_best_is_one_species(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(100.0, 110.0, size=(20, 2))
        fitness = rng.uniform(0.0, 1.0, 20)
        species = _assign_species(positions, fitness, species_radius=1000.0)
        assert np.all(species == 0)

    def test_tiny_radius_gives_singletons(self):
        rng = np.random.default_rng(1)
        positions = rng.uniform(0.0, 360.0, size=(10, 2))
        fitness = rng.uniform(0.0, 1.0, 10)
        species = _assign_species(positions, fitness, species_radius=1e-6)
        assert len(set(species.tolist())) == 10

    def test_seeds_are_fittest_members(self):
        rng = np.random.default_rng(2)
        positions = rng.uniform(0.0, 360.0, size=(40, 2))
        fitness = rng.uniform(0.0, 1.0, 40)
        species = _assign_species(positions, fitness, species_radius=40.0)
        for sid in range(species.max() + 1):
            members = np.flatnonzero(species == sid)
            seed = members[int(np.argmax(fitness[members]))]
            # every member sits within the radius of its species' fittest point
            delta = positions[members] - positions[seed]
            assert np.all(np.sqrt(np.einsum("ij,ij->i", delta, delta)) <= 40.0 + 1e-9)

    def test_singleton_species_still_evolve(self):
        # donors must come from the random augmentation pool
        config = DEConfig(population_size=16, max_iterations=5, neighborhood_size=8, rng_seed=3)
        population = run_population("sde", bimodal, BOX, config, species_radius=1e-6)
        assert len(population) == 16
        assert BOX.contains(population.positions)


class TestRunPopulation:
    def test_dispatch_and_unknown(self):
        config = DEConfig(population_size=16, max_iterations=2, neighborhood_size=8, rng_seed=0)
        for name in ("de", "denm", "dcde", "sharede", "sde"):
            population = run_population(name, bimodal, BOX, config)
            assert len(population) == 16
        with pytest.raises(ValueError):
            run_population("gradient", bimodal, BOX, config)
        for radii in ((0.0, 15.0), (15.0, -1.0)):
            with pytest.raises(ValueError, match="share_radius and species_radius must be positive"):
                run_population("denm", bimodal, BOX, config, *radii)

    def test_objective_shape_checked(self):
        config = DEConfig(population_size=16, max_iterations=1, neighborhood_size=8, rng_seed=0)
        with pytest.raises(ValueError):
            run_population("de", lambda p: np.zeros(3), BOX, config)
