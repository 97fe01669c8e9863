import warnings
from dataclasses import replace

import numpy as np
import pytest

from doakit import (
    CountingObjective,
    DEConfig,
    ScenarioConfig,
    SearchBox,
    de_crossover,
    de_mutate,
    nearest_neighbor_indices,
    run_population,
    run_trial,
    shared_fitness,
)
from doakit.optimizer import _assign_species, _global_donor_candidates, _pick_donors, _species_donor_table

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


def bruteforce_neighbors(positions, count):
    """Per row, the count nearest indices by a full (distance, index) sort,
    and whether a distance tie straddles the cut: the count-th and the
    next-nearest distances are equal, so the lower index has to win it."""
    neighbors, straddles = [], []
    for i in range(len(positions)):
        row = np.sum((positions[i] - positions) ** 2, axis=1).tolist()
        dist = sorted((row[j], j) for j in range(len(positions)) if j != i)
        neighbors.append([j for _, j in dist[:count]])
        straddles.append(count < len(dist) and dist[count - 1][0] == dist[count][0])
    return neighbors, straddles


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
            expected, straddles = bruteforce_neighbors(positions, count)
            np.testing.assert_array_equal(nearest_neighbor_indices(positions, count), expected)
            seen.update(straddles)
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
            expected, _ = bruteforce_neighbors(positions, count)
            np.testing.assert_array_equal(nearest_neighbor_indices(positions, count), expected)

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
        for count in (1, 2, 4):
            expected, _ = bruteforce_neighbors(positions, count)
            np.testing.assert_array_equal(nearest_neighbor_indices(positions, count), expected)

    @pytest.mark.parametrize("size", [2, 255, 256, 257])
    def test_whole_rows_where_index_bits_grow(self, size):
        # (size - 1).bit_length() index bits: 1, 8, 8 and 9; the last point
        # duplicates the first, so the highest index also sits in a tied row
        positions = np.random.default_rng(size).uniform(0.0, 100.0, size=(size, 2))
        if size > 2:
            positions[-1] = positions[0]
        expected, _ = bruteforce_neighbors(positions, size - 1)
        np.testing.assert_array_equal(nearest_neighbor_indices(positions, size - 1), expected)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            nearest_neighbor_indices(np.zeros((5, 2)), 5)


def assert_matches_bruteforce(positions, counts):
    for count in counts:
        expected, _ = bruteforce_neighbors(positions, count)
        np.testing.assert_array_equal(nearest_neighbor_indices(positions, count), expected)


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
        assert_matches_bruteforce(positions, (1, 2, 4))

    def test_squared_distances_beyond_float32_range(self):
        # squared distances up to about 4e40 overflow float32 (max 3.4e38) to
        # inf; ten points within 1e18 of each other keep finite keys
        rng = np.random.default_rng(21)
        positions = rng.uniform(-1e20, 1e20, size=(40, 2))
        positions[:10] = rng.uniform(0.0, 1e18, size=(10, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_bruteforce(positions, (1, 5, 12, 38))

    def test_squared_distances_subnormal_in_float64(self):
        # separations near 1e-160 square to about 1e-320: subnormal, and
        # still ordered, in float64 but 0 in float32; five points at unit scale
        rng = np.random.default_rng(22)
        positions = rng.uniform(0.0, 4e-160, size=(30, 2))
        positions[25:] = rng.uniform(1.0, 2.0, size=(5, 2))
        sq = np.sum((positions[0] - positions[1:25]) ** 2, axis=1)
        assert np.all(sq < np.finfo(float).tiny) and len(np.unique(sq)) > 1
        assert not np.any(sq.astype(np.float32))
        assert_matches_bruteforce(positions, (1, 3, 24, 28))

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
        assert_matches_bruteforce(positions, (1, 2, 16, 255))

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
            assert_matches_bruteforce(positions, (count,))


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


class TestSharedFitness:
    def test_isolated_point_keeps_raw_fitness(self):
        positions = np.array([[0.0, 0.0], [200.0, 80.0]])
        shared = shared_fitness(positions, np.array([5.0, 7.0]), share_radius=15.0)
        np.testing.assert_allclose(shared, [5.0, 7.0])

    def test_coincident_points_split_fitness(self):
        positions = np.array([[10.0, 10.0], [10.0, 10.0], [300.0, 70.0]])
        shared = shared_fitness(positions, np.array([4.0, 4.0, 9.0]), share_radius=15.0)
        np.testing.assert_allclose(shared, [2.0, 2.0, 9.0])

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

    def test_objective_shape_checked(self):
        config = DEConfig(population_size=16, max_iterations=1, neighborhood_size=8, rng_seed=0)
        with pytest.raises(ValueError):
            run_population("de", lambda p: np.zeros(3), BOX, config)
