import csv
import hashlib
import itertools
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from doakit import (
    ConfigError,
    DEConfig,
    DoaEstimate,
    ScenarioConfig,
    SourceSet,
    aggregate,
    circular_difference_deg,
    complexity_cells,
    derive_seed,
    flops_music,
    flops_population,
    format_complexity_table,
    match_estimates,
    run_extraction_comparison,
    run_population_sweep,
    run_sweep,
    run_trial,
    run_trials,
)
from doakit.bench import EXTRACTIONS, SEARCHES, _assignment, _fixtures, write_errors_csv, write_summary_csv
from doakit.cli import build_parser, main as cli_main

from conftest import TRUE_AZIMUTH_DEG, TRUE_ELEVATION_DEG


def estimates_from(azimuths, elevations):
    return [DoaEstimate(a, e, fitness=1.0) for a, e in zip(azimuths, elevations)]


FAST_DE = DEConfig(population_size=64, max_iterations=10, neighborhood_size=8)


def refuse_trials(monkeypatch):
    """Make any attempt to run a trial fail the test."""

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("doakit.bench._map_trials", no_trials)


class TestMatchEstimates:
    def test_exact_estimates_zero_error(self, truth_sources):
        result = match_estimates(truth_sources, estimates_from(TRUE_AZIMUTH_DEG, TRUE_ELEVATION_DEG))
        np.testing.assert_array_equal(result.theta_errors_deg, np.zeros(3))
        np.testing.assert_array_equal(result.phi_errors_deg, np.zeros(3))
        assert result.unmatched_truths.size == 0
        np.testing.assert_array_equal(result.truth_indices, result.estimate_indices)

    def test_azimuth_wraps_across_zero(self):
        truth = SourceSet(np.array([1.0]), np.array([45.0]))
        result = match_estimates(truth, estimates_from([359.0], [45.0]))
        np.testing.assert_allclose(result.theta_errors_deg, [2.0])

    def test_permuted_estimates_recovered(self, truth_sources):
        order = [2, 0, 1]
        estimates = estimates_from(
            [TRUE_AZIMUTH_DEG[i] for i in order], [TRUE_ELEVATION_DEG[i] for i in order]
        )
        result = match_estimates(truth_sources, estimates)
        np.testing.assert_allclose(result.theta_errors_deg, np.zeros(3), atol=1e-12)
        mapping = dict(zip(result.estimate_indices, result.truth_indices))
        assert [mapping[k] for k in range(3)] == order

    def test_matches_permutation_oracle(self):
        # exhaustive enumeration for up to 5 sources
        def cost(truth, estimates, perm):
            total = 0.0
            for t, e in enumerate(perm):
                d_theta = abs(truth.azimuth_deg[t] - estimates[e].azimuth_deg) % 360.0
                total += min(d_theta, 360.0 - d_theta) + abs(truth.elevation_deg[t] - estimates[e].elevation_deg)
            return total

        for seed in range(30):
            rng = np.random.default_rng(seed)
            count = int(rng.integers(1, 6))
            truth = SourceSet(
                np.sort(rng.uniform(0, 360, count)) % 360.0, np.linspace(5, 85, count) + rng.uniform(0, 1, count)
            )
            estimates = estimates_from(rng.uniform(0, 360, count), rng.uniform(0, 90, count))
            result = match_estimates(truth, estimates)
            got = float(np.sum(result.theta_errors_deg + result.phi_errors_deg))
            best = min(cost(truth, estimates, perm) for perm in itertools.permutations(range(count)))
            assert abs(got - best) < 1e-9

    def test_shortfall_leaves_unmatched_truths(self, truth_sources):
        result = match_estimates(truth_sources, estimates_from([30.42], [60.39]))
        assert result.unmatched_truths.size == 2
        assert result.theta_errors_deg.shape == (1,)
        empty = match_estimates(truth_sources, [])
        np.testing.assert_array_equal(empty.unmatched_truths, [0, 1, 2])
        assert empty.truth_indices.size == empty.estimate_indices.size == empty.theta_errors_deg.size == 0

    @pytest.mark.parametrize("count", [1, 3, 5])
    def test_unmatched_truths_equal_setdiff_form(self, count):
        # estimates scattered at random, so the unmatched truths fall anywhere among the rows
        rng = np.random.default_rng(count)
        truth = SourceSet(rng.uniform(0, 360, count), rng.uniform(0, 90, count))
        for num_estimates in sorted({0, 1, count - 1, count}):
            result = match_estimates(truth, estimates_from(rng.uniform(0, 360, num_estimates), rng.uniform(0, 90, num_estimates)))
            expected = np.setdiff1d(np.arange(truth.count), result.truth_indices)
            np.testing.assert_array_equal(result.unmatched_truths, expected)
            assert result.unmatched_truths.dtype == expected.dtype

    def test_rejects_excess_estimates(self, truth_sources):
        with pytest.raises(ValueError):
            match_estimates(truth_sources, estimates_from([0, 1, 2, 3], [10, 20, 30, 40]))

    def test_rejects_non_finite_estimates(self, truth_sources):
        for azimuth, elevation in ((np.nan, 45.0), (30.0, np.inf)):
            with pytest.raises(ValueError, match="non-finite"):
                match_estimates(truth_sources, estimates_from([120.0, azimuth], [30.0, elevation]))


def assignment_costs(rng, kind):
    """An L x K cost matrix, 1 <= L <= 10 and 0 <= K <= L, of one of three kinds:
    uniform, small integers (many optimal pairings), or the azimuth plus
    elevation distances of whole-degree estimates near the truths (ties too)."""
    num_truths = int(rng.integers(1, 11))
    num_estimates = int(rng.integers(0, num_truths + 1))
    if kind == "uniform":
        return rng.uniform(0.0, 100.0, (num_truths, num_estimates))
    if kind == "integer":
        return rng.integers(0, 4, (num_truths, num_estimates)).astype(float)
    azimuth, elevation = rng.uniform(0.0, 360.0, num_truths), rng.uniform(0.0, 90.0, num_truths)
    est_az = np.round(azimuth[:num_estimates] + rng.integers(-2, 3, num_estimates)) % 360.0
    est_el = np.round(elevation[:num_estimates])
    return circular_difference_deg(azimuth[:, None], est_az) + np.abs(elevation[:, None] - est_el)


class TestAssignment:
    @pytest.mark.parametrize("kind", ["uniform", "integer", "angles"])
    def test_equals_scipy_linear_sum_assignment(self, kind):
        # the same pairs as scipy's solver, not just the same total: ties must break alike
        rng = np.random.default_rng(["uniform", "integer", "angles"].index(kind))
        for _ in range(1000):
            cost = assignment_costs(rng, kind)
            rows, cols = _assignment(cost)
            expected_rows, expected_cols = linear_sum_assignment(cost)
            np.testing.assert_array_equal(rows, expected_rows)
            np.testing.assert_array_equal(cols, expected_cols)
            assert rows.dtype == expected_rows.dtype and cols.dtype == expected_cols.dtype

    def test_constant_cost_pairs_in_index_order(self):
        for shape in ((1, 1), (3, 3), (4, 2), (2, 4), (5, 0)):
            rows, cols = _assignment(np.ones(shape))
            np.testing.assert_array_equal(rows, np.arange(min(shape)))
            np.testing.assert_array_equal(cols, np.arange(min(shape)))


class TestSeeds:
    def test_derivation_is_stable(self):
        assert derive_seed(0, 0, 0) == derive_seed(0, 0, 0)
        values = {derive_seed(5, trial, stream) for trial in range(10) for stream in range(3)}
        assert len(values) == 30  # distinct streams per trial

    def test_frozen_reference_values(self):
        # pin the derivation scheme itself: these change only if the hash does
        assert derive_seed(0, 0, 0) == 15793235383387715774
        assert derive_seed(1, 2, 3) == 12997252459554536576


class TestRunTrial:
    def test_trials_leave_optimize_csgraph_and_process_pool_unloaded(self):
        # a fresh interpreter: this one has loaded them for the tests' oracles
        import doakit

        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(Path(doakit.__file__).parents[1])!r})\n"
            "import doakit\n"
            "doakit.run_trial(doakit.ScenarioConfig(algorithm='denm'), 0)\n"
            "doakit.run_trial(doakit.ScenarioConfig(algorithm='grid'), 0)\n"
            "heavy = ('scipy.optimize', 'scipy.sparse.csgraph', 'concurrent.futures.process')\n"
            "print(sorted(name for name in heavy if name in sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_table3_and_grid_trial_leave_scipy_unloaded(self):
        # a fresh interpreter; the first pairwise distance, in a population search, loads scipy.spatial
        import doakit

        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(Path(doakit.__file__).parents[1])!r})\n"
            "import doakit, doakit.cli\n"
            "doakit.cli.main(['table3'])\n"
            "doakit.run_trial(doakit.ScenarioConfig(algorithm='grid'), 0)\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
            "doakit.run_trial(doakit.ScenarioConfig(algorithm='denm'), 0)\n"
            "print('scipy.spatial.distance' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["[]", "True"]

    def test_noiseless_grid_trial_succeeds(self):
        config = ScenarioConfig(algorithm="grid", snr_db=np.inf, trials=1)
        report = run_trial(config, 0)
        assert report.success and not report.shortfall
        assert np.all(report.match.theta_errors_deg <= 0.5)
        assert np.all(report.match.phi_errors_deg <= 0.5)
        assert report.measured_evals == 32851
        assert report.model_flops == flops_music(config.flop_model())

    def test_trial_is_deterministic(self):
        config = ScenarioConfig(algorithm="denm", snr_db=5.0, trials=1, optimizer=FAST_DE)
        first = run_trial(config, 3)
        second = run_trial(config, 3)
        assert first.estimates == second.estimates
        np.testing.assert_array_equal(first.match.theta_errors_deg, second.match.theta_errors_deg)
        assert first.success == second.success
        assert first.measured_evals == second.measured_evals

    def test_trials_of_one_scenario_share_read_only_fixtures(self):
        # a master seed no other test uses, so the first trial builds the fixtures and the second reuses them
        config = ScenarioConfig(algorithm="grid", trials=2, master_seed=917)
        before = _fixtures.cache_info()
        first, second = run_trial(config, 0), run_trial(config, 1)
        after = _fixtures.cache_info()
        assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)
        assert first.model_flops == second.model_flops == flops_music(config.flop_model())
        geom, sources, _ = _fixtures(config)
        rebuilt_geom, rebuilt_sources, _ = _fixtures(ScenarioConfig(**config.__dict__))
        assert rebuilt_geom is geom and rebuilt_sources is sources
        for shared in (geom.element_x, geom.element_y, sources.azimuth_deg, sources.elevation_deg, sources.power):
            with pytest.raises(ValueError):
                shared[0] = 1.0

    def test_denm_measured_evals_match_budget(self):
        config = ScenarioConfig(algorithm="denm", snr_db=10.0, trials=1)
        report = run_trial(config, 0)
        assert report.measured_evals == 256 * (20 + 1)
        assert report.model_flops == flops_population(config.flop_model())

    def test_all_population_algorithms_produce_reports(self):
        for algorithm in ("de", "denm", "dcde", "sharede", "sde"):
            config = ScenarioConfig(algorithm=algorithm, snr_db=20.0, trials=1, optimizer=FAST_DE)
            report = run_trial(config, 1)
            assert len(report.estimates) <= 3
            assert report.measured_evals == 64 * 11


GOLDEN_DE = DEConfig(population_size=32, max_iterations=5, neighborhood_size=8)

# sha256 of every trial's estimates, measured_evals and match errors on a
# fixed seed (recorded with numpy 2.4 and scipy 1.17 on x86-64). The digests
# cover exact float values: a refactor must leave them unchanged, and only a
# change meant to move seeded outputs may re-record them.
GOLDEN_DIGESTS = {
    ("grid", "dbscan"): "91f0036baf1e635420aa47427eae28e96e1b0cfbe4fe693225c7fc87f28da5fd",
    ("de", "dbscan"): "e7cdf3fdbef9a55fcffa245666676f76e014ab17067730f9669ff7dc95ca8409",
    ("denm", "dbscan"): "4df6cac8039d4b2b96143347989c2d0317f50d546fc5a31f903fc7ec882ebeae",
    ("dcde", "dbscan"): "c329151c6f67012d4bb1db528e5b7b4b2ca4750d9365ce3fe727abd7221d0fce",
    ("sharede", "dbscan"): "149b4fb2591fe89a5b9665206925231a37e81f516fbf64bef3159d4c049aca15",
    ("sde", "dbscan"): "1b41f828aa487a9301126b0d665eaa82c5bc5f0d0d725a1d16f8f1dd6c08d778",
    ("denm", "klocalmax"): "250db63050b032e4281106a5a403acf2276cfe28b86e40679dc82565fd17fa8e",
    ("denm", "kmeanspp"): "a96959f58c5b1188ae217e849e1655e1f358228ed7cacca060fcda24e33c86e9",
}


def seeded_output_digest(reports) -> str:
    digest = hashlib.sha256()
    for report in reports:
        record = (
            report.trial,
            [(e.azimuth_deg, e.elevation_deg, e.fitness) for e in report.estimates],
            report.measured_evals,
            report.match.theta_errors_deg.tolist(),
            report.match.phi_errors_deg.tolist(),
        )
        digest.update(repr(record).encode())
    return digest.hexdigest()


# sha256 of the same trials without the spectrum heights: trial, estimated
# directions, measured_evals, match errors and success. A change to how the
# spectrum is computed may move fitness by rounding, and must leave these.
ESTIMATE_DIGESTS = {
    ("grid", "dbscan"): "0c43a50f4ba00466a3ea125dd9068522413c954721a0315ccefdb01a35934a11",
    ("de", "dbscan"): "4bfd9e865b2429d8a40e202bea67cb0007018f97e555ab8c845c9ef5ca00ed50",
    ("denm", "dbscan"): "df5422bbd3c3934796165bb64a9deae3aeb7e75c6095a83eb44acc8bfb59415c",
    ("dcde", "dbscan"): "ae3e4258b794c5dffcfb795d9e89b1d057d805f6075399ac1ef35f011b49f5b5",
    ("sharede", "dbscan"): "95fd922b4ed70ef8b9a130f121d5a0bff363239f8a14bc6de6080955395137e4",
    ("sde", "dbscan"): "40e1f1f8ef2cd859c95688b8395e3b6b75f622716417b820696b8853f3d0a4cb",
    ("denm", "klocalmax"): "6917348ead94b70b6d4497a6c68c9821a333227d1e41842eda9f66f297a59820",
    ("denm", "kmeanspp"): "d926b01b947a96deb335f72c5a00ef6ea6728dd39aa3d84f570a9823b2a6ff94",
}


def estimate_digest(reports) -> str:
    digest = hashlib.sha256()
    for report in reports:
        record = (
            report.trial,
            [(e.azimuth_deg, e.elevation_deg) for e in report.estimates],
            report.measured_evals,
            report.match.theta_errors_deg.tolist(),
            report.match.phi_errors_deg.tolist(),
            report.success,
        )
        digest.update(repr(record).encode())
    return digest.hexdigest()


# the same fitness-free digest for denm + dbscan on circular arrays of other
# sizes: an even M pairs each element with its point reflection M/2 places on,
# an odd M has no such pairs
ARRAY_SIZE_ESTIMATE_DIGESTS = {
    11: "61a25a063344d0426d8f7b47a52fda84106714a9a11a1fef1c34cdf88978fc4b",
    128: "58487d692e09a87ba28e9893e839ede62c9f36497539bd5ac6263b9f0d88cc73",
}


# the reference scenario with its first source moved next to the azimuth seam
SEAM_CONFIG = ScenarioConfig(source_azimuth_deg=(0.3, 120.27, 240.51), algorithm="grid", snr_db=-5.0, trials=40)


class TestGridSeam:
    def test_seam_source_found_once(self):
        # 0.3 degrees lies beside the seam: one peak there, not one at 1 and one at 360 degrees
        report = run_trial(SEAM_CONFIG, 0)
        assert report.success and not report.shortfall

    def test_no_two_estimates_are_grid_neighbors(self):
        step = SEAM_CONFIG.grid_step_deg
        for report in run_trials(SEAM_CONFIG):
            for first, second in itertools.combinations(report.estimates, 2):
                apart_az = circular_difference_deg(first.azimuth_deg, second.azimuth_deg)
                apart_el = abs(first.elevation_deg - second.elevation_deg)
                assert not (apart_az <= step and apart_el <= step)


def golden_config(algorithm, extraction):
    return ScenarioConfig(
        algorithm=algorithm,
        extraction=extraction,
        snr_db=5.0,
        trials=3,
        optimizer=GOLDEN_DE,
        dbscan_eps_deg=10.0,  # wide enough that dbscan finds clusters in every variant's population
        dbscan_min_pts=3,
        master_seed=11,
    )


class TestGoldenOutputs:
    @pytest.mark.parametrize("algorithm,extraction", sorted(GOLDEN_DIGESTS))
    def test_seeded_outputs_match_recorded_digest(self, algorithm, extraction):
        config = golden_config(algorithm, extraction)
        assert seeded_output_digest(run_trials(config)) == GOLDEN_DIGESTS[(algorithm, extraction)]

    @pytest.mark.parametrize("algorithm,extraction", sorted(ESTIMATE_DIGESTS))
    def test_seeded_estimates_match_recorded_digest(self, algorithm, extraction):
        config = golden_config(algorithm, extraction)
        assert estimate_digest(run_trials(config)) == ESTIMATE_DIGESTS[(algorithm, extraction)]

    @pytest.mark.parametrize("num_elements", sorted(ARRAY_SIZE_ESTIMATE_DIGESTS))
    def test_seeded_estimates_at_other_array_sizes(self, num_elements):
        config = replace(golden_config("denm", "dbscan"), num_elements=num_elements, optimizer=FAST_DE)
        assert estimate_digest(run_trials(config)) == ARRAY_SIZE_ESTIMATE_DIGESTS[num_elements]


class TestAggregate:
    def test_single_trial_aggregate_equals_trial(self):
        config = ScenarioConfig(algorithm="grid", snr_db=np.inf, trials=1)
        report = run_trial(config, 0)
        agg = aggregate(config, [report])
        assert agg.trials == 1
        np.testing.assert_allclose(agg.mae_theta_deg, report.match.theta_errors_deg.mean())
        np.testing.assert_allclose(agg.raw_mae_phi_deg, report.match.phi_errors_deg.mean())
        assert agg.success_rate == 1.0
        assert agg.extraction == ""  # grid bypasses extraction
        assert agg.model_mflops == flops_music(config.flop_model()) / 1e6
        assert agg.flops_ratio_vs_grid == 1.0

    def test_failed_trials_excluded_from_conditioned_mae(self, truth_sources):
        config = ScenarioConfig(algorithm="grid", snr_db=np.inf, trials=1)
        good = run_trial(config, 0)
        # forge a divergent failed trial by rescoring shifted estimates
        from doakit.bench import _score

        shifted = estimates_from([100.0, 200.0, 300.0], [10.0, 20.0, 30.0])
        bad = _score(config, config.sources(), config.model_flops(), 1, shifted, False, 1, 0.0)
        assert not bad.success
        agg = aggregate(config, [good, bad])
        assert agg.success_rate == 0.5
        assert agg.mae_theta_deg <= 0.5  # conditioned on the good trial only
        assert agg.raw_mae_theta_deg > agg.mae_theta_deg


class TestSweepAndCsv:
    def test_sweep_rows_and_files(self, tmp_path):
        config = ScenarioConfig(algorithm="denm", snr_db=0.0, trials=3, optimizer=FAST_DE)
        aggregates, reports = run_sweep(config, [0.0, 10.0])
        assert [a.snr_db for a in aggregates] == [0.0, 10.0]
        summary = tmp_path / "summary.csv"
        errors = tmp_path / "errors.csv"
        write_summary_csv(aggregates, summary)
        write_errors_csv(config, reports, errors)
        with summary.open() as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0].keys()) == [
            "algo", "extraction", "M", "L", "snr_db", "snapshots", "trials", "mae_theta_deg", "mae_phi_deg",
            "success_rate", "model_mflops", "measured_evals", "wall_ms", "raw_mae_theta_deg", "raw_mae_phi_deg",
            "flops_ratio_vs_grid",
        ]
        assert len(rows) == 2
        model = config.flop_model()
        for row in rows:
            assert float(row["model_mflops"]) == flops_population(model) / 1e6
            assert float(row["measured_evals"]) == 64 * 11
            assert row["algo"] == "denm" and row["extraction"] == "dbscan"
        with errors.open() as handle:
            error_rows = list(csv.DictReader(handle))
        assert all(0.0 <= float(r["theta_error_deg"]) <= 180.0 for r in error_rows)

    def test_extraction_comparison_matches_single_runs(self):
        # one search scored by every method gives each method's own run_trials result
        config = ScenarioConfig(algorithm="denm", snr_db=0.0, trials=3, optimizer=FAST_DE, master_seed=5)
        compared = run_extraction_comparison(config)
        assert list(compared) == list(EXTRACTIONS)
        for method, reports in compared.items():
            single = run_trials(replace(config, extraction=method))
            assert len(reports) == len(single) == 3
            for a, b in zip(reports, single):
                assert a.trial == b.trial
                assert a.estimates == b.estimates
                np.testing.assert_array_equal(a.match.truth_indices, b.match.truth_indices)
                np.testing.assert_array_equal(a.match.theta_errors_deg, b.match.theta_errors_deg)
                np.testing.assert_array_equal(a.match.phi_errors_deg, b.match.phi_errors_deg)
                assert (a.success, a.shortfall) == (b.success, b.shortfall)
                assert (a.measured_evals, a.model_flops) == (b.measured_evals, b.model_flops)

    def test_repeated_entries_refused_before_trials(self, monkeypatch):
        refuse_trials(monkeypatch)
        config = ScenarioConfig(trials=1, optimizer=FAST_DE)
        with pytest.raises(ConfigError, match="population sizes must be distinct"):
            run_population_sweep(config, [32, 64, 32])

    def test_parallel_matches_serial(self):
        config = ScenarioConfig(algorithm="denm", snr_db=5.0, trials=4, optimizer=FAST_DE)
        serial = run_trials(config, workers=1)
        parallel = run_trials(config, workers=2)
        for a, b in zip(serial, parallel):
            assert a.trial == b.trial
            assert a.estimates == b.estimates
            np.testing.assert_array_equal(a.match.theta_errors_deg, b.match.theta_errors_deg)
            assert a.success == b.success


class TestComplexityTable:
    def test_nine_cells_present(self):
        cells = complexity_cells()
        assert len(cells) == 9
        table = format_complexity_table(cells)
        assert "3.8/1.9" in table
        assert "538.2/85.2" in table and "(1:0.16)" in table
        assert "0.9/1.4" in table and "(1:1.68)" in table
        assert table.count("\n") == 3  # header + one row per source count

    def test_cells_follow_cost_model(self):
        from doakit import FlopModel

        for cell in complexity_cells():
            model = FlopModel(cell["M"], cell["L"])
            assert cell["music_mflops"] == flops_music(model) / 1e6
            assert cell["population_mflops"] == flops_population(model) / 1e6


class TestScenarioConfig:
    def test_defaults_encode_reference_scenario(self):
        config = ScenarioConfig()
        assert config.num_elements == 12
        assert config.source_azimuth_deg == TRUE_AZIMUTH_DEG
        assert config.source_elevation_deg == TRUE_ELEVATION_DEG
        assert config.snapshots == 100
        assert config.trials == 1000

    def test_from_dict_round_trip(self):
        config = ScenarioConfig.from_dict(
            {"algorithm": "sde", "trials": 7, "optimizer": {"population_size": 32, "neighborhood_size": 8}}
        )
        assert config.algorithm == "sde"
        assert config.optimizer.population_size == 32

    def test_zero_generation_search_runs(self):
        config = ScenarioConfig.from_dict({"optimizer": {"max_iterations": 0}})
        assert run_trial(config, 0).measured_evals == config.optimizer.population_size

    def test_readme_example_builds(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        documented = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
        config = ScenarioConfig.from_dict(documented)
        assert config.optimizer == DEConfig(**documented.pop("optimizer"))
        for key, value in documented.items():
            assert getattr(config, key) == (tuple(value) if isinstance(value, list) else value)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"algorthm": "denm"})
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"optimizer": {"pop": 3}})
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"trials": 0})
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"extraction": "average"})


# Config errors whose message must name the field at fault.
NAMED_CONFIG_ERRORS = [
    # values whose type does not match their field
    ({"grid_step_deg": "1"}, "grid_step_deg"),
    ({"snr_db": None}, "snr_db"),
    ({"source_power": 2}, "source_power"),
    ({"radius": "2"}, "radius"),
    ({"dbscan_eps_deg": None}, "dbscan_eps_deg"),
    ({"source_azimuth_deg": ["a", 1, 2]}, "source_azimuth_deg"),
    ({"optimizer": {"scale_factor": "0.5"}}, "scale_factor"),
    # a bool is not a number
    ({"grid_step_deg": True}, "grid_step_deg"),
    ({"snr_db": True}, "snr_db"),
    ({"optimizer": {"crossover_rate": True}}, "crossover_rate"),
    # each trial seeds its optimizer from master_seed
    ({"optimizer": {"rng_seed": 123}}, "rng_seed"),
    # steps that do not tile 360 and 90 degrees
    ({"grid_step_deg": 4.0}, "grid_step_deg"),
    ({"grid_step_deg": 0.7}, "grid_step_deg"),
    # radius is in wavelengths: there is no wavelength setting
    ({"wavelength": 1.0}, "wavelength"),
    # steps whose grid would have more points than an array can index
    ({"grid_step_deg": 5e-324}, "grid_step_deg"),
    ({"grid_step_deg": 1e-300}, "grid_step_deg"),
]


class TestCli:
    def test_run_writes_outputs(self, tmp_path):
        code = cli_main(
            [
                "run",
                "--trials", "2",
                "--snr", "10",
                "--seed", "1",
                "--out", str(tmp_path),
                "--config", str(_fast_config(tmp_path)),
            ]
        )
        assert code == 0
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "errors.csv").exists()

    def test_table3_prints(self, tmp_path, capsys):
        assert cli_main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "3.8/1.9" in out
        assert cli_main(["table3", "--out", str(tmp_path)]) == 0
        with (tmp_path / "complexity.csv").open(newline="") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
        assert reader.fieldnames == ["M", "L", "music_mflops", "population_mflops", "ratio"]
        assert len(rows) == 9
        for row, cell in zip(rows, complexity_cells()):
            assert (int(row["M"]), int(row["L"]), float(row["ratio"])) == (cell["M"], cell["L"], cell["ratio"])

    def test_compare_extract(self, tmp_path):
        code = cli_main(
            [
                "compare-extract",
                "--trials", "2",
                "--snr", "10",
                "--out", str(tmp_path),
                "--config", str(_fast_config(tmp_path)),
            ]
        )
        assert code == 0
        assert (tmp_path / "extraction_comparison.csv").exists()
        with (tmp_path / "extraction_comparison.csv").open(newline="") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
        assert reader.fieldnames == [
            "extraction", "snr_db", "trials", "failures", "success_rate", "mae_theta_deg", "mae_phi_deg"
        ]
        assert [row["extraction"] for row in rows] == ["dbscan", "klocalmax", "kmeanspp"]
        assert all(row["trials"] == "2" for row in rows)

    def test_sweep_pop(self, tmp_path):
        code = cli_main(
            [
                "sweep-pop",
                "--trials", "2",
                "--snr", "10",
                "--sizes", "32", "64",
                "--out", str(tmp_path),
                "--config", str(_fast_config(tmp_path)),
            ]
        )
        assert code == 0
        assert (tmp_path / "population_sweep.csv").exists()
        with (tmp_path / "population_sweep.csv").open(newline="") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
        assert reader.fieldnames == [
            "population_size",
            "snr_db",
            "trials",
            "success_rate",
            "mae_theta_deg",
            "mae_phi_deg",
            "model_mflops",
            "flops_ratio_vs_grid",
        ]
        assert [row["population_size"] for row in rows] == ["32", "64"]

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"algorithm": "newton"}', encoding="utf-8")
        code = cli_main(["run", "--trials", "1", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mapping",
        [
            {"num_elements": 1},
            {"num_elements": 3},  # three sources leave no noise subspace
            {"radius": 0.0},
            {"dbscan_eps_deg": 0},
            {"dbscan_min_pts": 0},
            {"grid_step_deg": 0},
            {"klocalmax_neighbors": 0, "extraction": "klocalmax"},
            {"klocalmax_neighbors": 256},
            {"share_radius_deg": 0},
            {"species_radius_deg": -1},
            {"source_azimuth_deg": [float("nan"), 1.0, 2.0]},
            {"source_elevation_deg": [float("nan"), 1.0, 2.0]},
            {"source_power": [1.0, float("nan"), 1.0]},
            {"snr_db": float("nan")},
            {"grid_step_deg": 200},  # a single elevation row
            {"grid_step_deg": 1000},  # a single azimuth column
            {"radius": float("nan")},
            {"radius": float("inf")},
            {"success_threshold_deg": float("nan")},
            {"dbscan_eps_deg": float("nan")},
            {"share_radius_deg": float("nan")},
            {"species_radius_deg": float("nan")},
            {"optimizer": {"scale_factor": float("nan")}},
            {"optimizer": {"scale_factor": float("inf")}},
            # integer fields refuse fractional, integral-float, NaN and bool values
            {"snapshots": 100.0},
            {"master_seed": float("nan")},
            {"num_elements": 12.0},
            {"dbscan_min_pts": 2.5},
            {"klocalmax_neighbors": 8.0},
            {"snapshots": True},
            {"optimizer": {"population_size": 64.5}},
            {"optimizer": {"max_iterations": float("nan")}},
            {"optimizer": {"neighborhood_size": 16.0}},
            {"optimizer": {"rng_seed": float("nan")}},
            {"optimizer": {"rng_seed": False}},
            {"optimizer": {"rng_seed": -1}},
            # entries of the wrong type, refused by the constructors
            {"optimizer": None},
            {"optimizer": 5},
            {"source_azimuth_deg": 5},
            # every azimuth at elevation 0 is the same direction
            {"source_azimuth_deg": [0.0, 90.0, 240.51], "source_elevation_deg": [0.0, 0.0, 45.55]},
            {"optimizer": {"pop": 3}},
            *(mapping for mapping, _ in NAMED_CONFIG_ERRORS),
        ],
    )
    def test_config_errors_caught_before_trials(self, tmp_path, capsys, mapping):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(mapping), encoding="utf-8")
        code = cli_main(["compare-extract", "--trials", "1", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert all(name in err for case, name in NAMED_CONFIG_ERRORS if case == mapping)

    @pytest.mark.parametrize("trials", [2.5, 3.0, True])
    def test_non_integer_trials_caught_before_trials(self, tmp_path, capsys, trials):
        # no --trials flag here: it would override the config's value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"trials": trials}), encoding="utf-8")
        code = cli_main(["compare-extract", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "trials must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare-extract", "sweep-pop"])
    def test_grid_scenario_refused_by_population_commands(self, tmp_path, capsys, command):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"algorithm": "grid"}), encoding="utf-8")
        code = cli_main([command, "--trials", "1", "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        assert "config error: " in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", [["run", "--snr", "10"], ["sweep-pop", "--sizes", "32"]])
    def test_workers_below_one_exits_nonzero(self, tmp_path, capsys, command):
        code = cli_main([*command, "--workers", "-3", "--trials", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "command",
        [["run", "--trials", "1"], ["compare-extract", "--trials", "1"], ["sweep-pop", "--trials", "1"], ["table3"]],
    )
    def test_unusable_out_exits_before_work(self, tmp_path, capsys, monkeypatch, command):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the output directory was made")

        for name in ("run_sweep", "run_extraction_comparison", "run_population_sweep", "complexity_cells"):
            monkeypatch.setattr(f"doakit.cli.{name}", no_work)
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / "file" / "out"
        assert cli_main([*command, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: cannot create output directory {out}" in captured.err

    def test_run_offers_every_search(self):
        assert SEARCHES == ("grid", "de", "denm", "dcde", "sharede", "sde")
        for name in SEARCHES:
            assert build_parser().parse_args(["run", "--algo", name]).algo == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algo", "newton"])

    def test_duplicate_snr_exits_nonzero(self, tmp_path, capsys):
        code = cli_main(["run", "--algo", "grid", "--trials", "1", "--snr", "0", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    def test_duplicate_population_size_exits_before_trials(self, tmp_path, capsys, monkeypatch):
        refuse_trials(monkeypatch)
        code = cli_main(["sweep-pop", "--trials", "2", "--sizes", "32", "32", "--out", str(tmp_path)])
        assert code == 2
        assert "config error: population sizes must be distinct" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_malformed_json_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{не json", encoding="utf-8")
        code = cli_main(["run", "--trials", "1", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "doakit.cli", "table3"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "33.6/6.5" in proc.stdout


def _fast_config(tmp_path):
    path = tmp_path / "fast.json"
    path.write_text(
        json.dumps({"optimizer": {"population_size": 64, "max_iterations": 10, "neighborhood_size": 8}}),
        encoding="utf-8",
    )
    return path
