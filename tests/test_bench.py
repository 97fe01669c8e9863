import concurrent.futures
import csv
import hashlib
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import doakit
from doakit import (
    ALGORITHMS,
    ArrayGeometry,
    ConfigError,
    DEConfig,
    DoaEstimate,
    GridSpec,
    Population,
    ScenarioConfig,
    SourceSet,
    aggregate,
    circular_difference_deg,
    complexity_cells,
    derive_seed,
    extract_dbscan,
    extract_klocalmax,
    flops_music,
    flops_population,
    format_complexity_table,
    match_estimates,
    run_extraction_comparison,
    run_population,
    run_sweep,
    run_trial,
    run_trials,
    steering_matrix,
)
from doakit import bench, extract, music, optimizer, signal_model
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

    def test_every_search_and_extraction_runs_without_scipy(self):
        # a fresh interpreter in which importing any scipy module raises
        import doakit

        script = (
            "import sys\n"
            "class BlockScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, BlockScipy())\n"
            f"sys.path.insert(0, {str(Path(doakit.__file__).parents[1])!r})\n"
            "import doakit, doakit.cli\n"
            "from doakit.bench import EXTRACTIONS\n"
            "doakit.cli.main(['table3'])\n"
            "doakit.run_trial(doakit.ScenarioConfig(algorithm='grid'), 0)\n"
            "for algorithm in doakit.ALGORITHMS:\n"
            "    doakit.run_trial(doakit.ScenarioConfig(algorithm=algorithm), 0)\n"
            "for extraction in EXTRACTIONS:\n"
            "    doakit.run_trial(doakit.ScenarioConfig(extraction=extraction), 0)\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

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

    @pytest.mark.parametrize("algorithm", ["grid", "denm"])
    def test_trials_of_one_scenario_build_the_sources_steering_once(self, algorithm, steering_matrix_calls):
        # steering_matrix serves only synthesis: the spectrum reads steering_rows
        config = ScenarioConfig(algorithm=algorithm, trials=3, master_seed=919)
        for trial_index in range(3):
            run_trial(config, trial_index)
        assert len(steering_matrix_calls) == 1 and signal_model._source_steering.cache_info().hits == 2
        geom, sources, _ = _fixtures(config)
        held = signal_model._source_steering(geom, sources)
        assert not held.flags.writeable
        azimuths, elevations = np.deg2rad(sources.azimuth_deg), np.deg2rad(sources.elevation_deg)
        np.testing.assert_array_equal(held, steering_matrix(geom, azimuths, elevations))

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
    ("grid", "dbscan"): "2aa108b677aef186921d27a61c5e6f3559f4de0961747211126e496a5f6a8895",
    ("de", "dbscan"): "7588b01deb5501081ed0af13f8f1b4951ed27c0c99cb4144c6a928655e6bfa2a",
    ("denm", "dbscan"): "ee722cd011823f1a3c009cfb9833eb3f9068287e3c6ed5349e0e511a633c612f",
    ("dcde", "dbscan"): "b1dfa450894c1fbffd86313c328e13487eba8d3c6495a80c0493f824e6245c1e",
    ("sharede", "dbscan"): "ed3422f51169a0e1581232b7a04a6d5a63405162faa9f75944c2e7bf41e00854",
    ("sde", "dbscan"): "61225bbe2f8009d620a09f906e083e4ca39c64a2b47b826c17267bffbfc492b3",
    ("denm", "klocalmax"): "6aa01d0efcc6e819e1f52c868469a42218e7252b3217ac6aba636b8ade8b2cc4",
    ("denm", "kmeanspp"): "ed10dd4eaa1d0b8f1fd229c910d130fc89448eb4efba726fb562c34f928509f5",
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


class TestSearchTable:
    def test_registered_search_runs_through_trials_aggregate_and_cli(self, tmp_path, monkeypatch):
        # one SEARCHES entry is a whole search: here its candidates are the true sources, found with no spectrum
        # evaluation, and as the candidates of a search that is no population optimizer each is a peak of its own
        def truth_search(config, proj, trial_index):
            positions = np.column_stack((config.source_azimuth_deg, config.source_elevation_deg))
            return Population(positions, np.ones(len(positions))), 0

        monkeypatch.setitem(SEARCHES, "truth", (truth_search, lambda model: 2.5e6))
        config = ScenarioConfig(algorithm="truth", snr_db=0.0, trials=3)
        reports = run_trials(config)
        assert [report.trial for report in reports] == [0, 1, 2]
        for report in reports:
            assert report.success and not report.shortfall
            assert report.measured_evals == 0 and report.model_flops == 2.5e6
            np.testing.assert_array_equal(report.match.theta_errors_deg, np.zeros(3))
        agg = aggregate(config, reports)
        assert (agg.algo, agg.extraction, agg.success_rate, agg.measured_evals) == ("truth", "", 1.0, 0.0)
        assert agg.model_mflops == 2.5
        assert agg.flops_ratio_vs_grid == 2.5e6 / flops_music(config.flop_model())

        assert cli_main(["run", "--algo", "truth", "--trials", "2", "--snr", "0", "--out", str(tmp_path)]) == 0
        with (tmp_path / "summary.csv").open() as handle:
            (row,) = csv.DictReader(handle)
        assert (row["algo"], row["extraction"], row["success_rate"], row["model_mflops"]) == ("truth", "", "1.0", "2.5")
        with (tmp_path / "errors.csv").open() as handle:
            errors = list(csv.DictReader(handle))
        assert len(errors) == 6
        assert {(r["algo"], r["theta_error_deg"], r["phi_error_deg"]) for r in errors} == {("truth", "0.0", "0.0")}

    @pytest.mark.parametrize("num_elements", [12, 32])
    def test_grid_maxima_through_the_estimate_step_give_grid_search(self, num_elements):
        # the grid's candidates, each a peak of its own, give grid_search's top L bit for bit: its order by
        # value descending, then azimuth, then elevation, is fitness descending, then flat index
        directions = {
            1: ((30.42,), (60.39,)),
            3: (TRUE_AZIMUTH_DEG, TRUE_ELEVATION_DEG),
            10: (tuple(range(0, 360, 36)), (60.0,) * 10),
        }
        for step, num_sources, snr_db in itertools.product((1.0, 2.0), directions, (-10.0, -5.0, 0.0, 5.0, 10.0)):
            azimuths, elevations = directions[num_sources]
            config = ScenarioConfig(
                algorithm="grid",
                num_elements=num_elements,
                source_azimuth_deg=tuple(azimuths),
                source_elevation_deg=tuple(elevations),
                snr_db=snr_db,
                grid_step_deg=step,
                master_seed=37,
            )
            geom, sources, _ = _fixtures(config)
            for trial in range(2):
                proj = bench._projector(config, trial, geom, sources)
                candidates, evals = SEARCHES["grid"][0](config, proj, trial)
                found = bench._estimate(config, candidates, config.extraction, trial)
                expected = music.grid_search(proj, config.grid_spec(), num_sources)
                assert [e.azimuth_deg for e in found.estimates] == expected.azimuth_deg.tolist()
                assert [e.elevation_deg for e in found.estimates] == expected.elevation_deg.tolist()
                assert [e.fitness for e in found.estimates] == expected.values.tolist()
                assert (found.shortfall, evals) == (expected.shortfall, expected.num_evaluations)
                assert found.labels is None and all(e.cluster_id is None for e in found.estimates)
                assert run_trial(config, trial).estimates == found.estimates
        # a constant spectrum has no maxima: no estimates, and a shortfall
        flat = music.NoiseProjector(np.zeros((12, 0), dtype=complex), ArrayGeometry.uca(12))
        found = bench._estimate(ScenarioConfig(algorithm="grid"), music.grid_maxima(flat, GridSpec()), "dbscan", 0)
        assert found.estimates == () and found.shortfall and music.grid_search(flat, GridSpec(), 3).shortfall


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

    def test_no_reports_give_nan_rates_without_warning(self):
        # numpy's mean of an empty list warns; the tests run under -W error in CI
        agg = aggregate(ScenarioConfig(), [])
        assert agg.trials == 0
        for value in (agg.success_rate, agg.measured_evals, agg.wall_ms, agg.mae_theta_deg):
            assert math.isnan(value)


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

    def test_error_rows_follow_the_sweep_snr_order(self, tmp_path):
        assert cli_main(["run", "--algo", "grid", "--trials", "2", "--snr", "10", "0", "--out", str(tmp_path)]) == 0
        with (tmp_path / "summary.csv").open() as handle:
            summary_snrs = [row["snr_db"] for row in csv.DictReader(handle)]
        with (tmp_path / "errors.csv").open() as handle:
            error_snrs = [row["snr_db"] for row in csv.DictReader(handle)]
        assert summary_snrs == ["10.0", "0.0"]
        assert list(dict.fromkeys(error_snrs)) == summary_snrs
        assert error_snrs == sorted(error_snrs, key=summary_snrs.index)

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
        with pytest.raises(ConfigError, match="optimizer.population_size values must be distinct"):
            run_sweep(config, [32, 64, 32], field="optimizer.population_size")
        # SNR values are compared as floats
        with pytest.raises(ConfigError, match="snr_db values must be distinct"):
            run_sweep(config, [0, 5, 0.0])

    def test_sweep_varies_any_one_field(self):
        config = ScenarioConfig(snr_db=10.0, trials=2, optimizer=FAST_DE)
        aggregates, reports = run_sweep(config, [0, 3], field="optimizer.max_iterations")
        assert list(reports) == [0, 3]
        assert [a.measured_evals for a in aggregates] == [64.0, 64.0 * 4]
        # each value's scenario gives the reports that run_trials gives on it
        for iterations, rows in reports.items():
            single = run_trials(replace(config, optimizer=replace(FAST_DE, max_iterations=iterations)))
            assert seeded_output_digest(rows) == seeded_output_digest(single)
        aggregates, reports = run_sweep(replace(config, algorithm="grid"), [11, 12], field="num_elements")
        assert [a.num_elements for a in aggregates] == [11, 12] and list(reports) == [11, 12]

    @pytest.mark.parametrize(
        "field,values,message",
        [
            ("optimizer.population_size", [32, 8], "optimizer.population_size 8: neighborhood_size must lie in"),
            ("optimizer.max_iterations", [10, -1], "optimizer.max_iterations -1: max_iterations must be non-negative"),
            ("snapshots", [100, 0], "snapshots 0: snapshots must be at least 1"),
            ("num_elements", [12, 11.0], "num_elements 11.0: num_elements must be an integer"),
            ("snr_db", [0, float("nan")], "snr_db nan: snr_db must be a number"),
            ("optimizer.pop", [32], "optimizer.pop 32: "),
            ("wavelength", [1.0], "wavelength 1.0: "),
            ("source_azimuth_deg", [[1.0, 2.0, 3.0]], "source_azimuth_deg [1.0, 2.0, 3.0]: source_azimuth_deg must be"),
        ],
    )
    def test_refused_value_named_before_trials(self, monkeypatch, field, values, message):
        refuse_trials(monkeypatch)
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_sweep(ScenarioConfig(trials=1, optimizer=FAST_DE), values, field=field)

    def test_parallel_matches_serial(self):
        config = ScenarioConfig(algorithm="denm", snr_db=5.0, trials=4, optimizer=FAST_DE)
        serial = run_trials(config, workers=1)
        parallel = run_trials(config, workers=2)
        for a, b in zip(serial, parallel):
            assert a.trial == b.trial
            assert a.estimates == b.estimates
            np.testing.assert_array_equal(a.match.theta_errors_deg, b.match.theta_errors_deg)
            assert a.success == b.success

    def test_parallel_sweep_starts_one_pool(self, monkeypatch):
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        config = ScenarioConfig(algorithm="denm", trials=3, optimizer=FAST_DE)
        serial_aggregates, serial = run_sweep(config, [0, 10], workers=1)
        assert pools == []
        aggregates, parallel = run_sweep(config, [0, 10], workers=2)
        assert len(pools) == 1
        assert list(parallel) == list(serial) == [0.0, 10.0]
        for snr in serial:
            # the digest covers each report's trial index, estimates, evaluations and errors
            assert seeded_output_digest(parallel[snr]) == seeded_output_digest(serial[snr])
            assert [r.success for r in parallel[snr]] == [r.success for r in serial[snr]]
        # every aggregate field but wall_ms; repr, so that a NaN mean compares equal
        assert [repr(replace(a, wall_ms=0.0)) for a in aggregates] == [
            repr(replace(a, wall_ms=0.0)) for a in serial_aggregates
        ]

    def test_pool_starts_at_most_one_process_per_trial(self, monkeypatch):
        # a process pool forks all of its processes at its first job, however few jobs follow
        sizes = []

        class InProcessPool:
            """Records the pool size asked for and maps in this process, starting none."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        config = ScenarioConfig(algorithm="grid", trials=3)
        reports = run_trials(config, workers=64)
        assert sizes == [3]
        assert seeded_output_digest(reports) == seeded_output_digest(run_trials(config))
        # one trial runs serially, with no pool
        assert len(run_trials(replace(config, trials=1), workers=64)) == 1
        assert sizes == [3]


    def test_every_worker_gets_jobs(self):
        # four jobs on two workers: each process runs some, and the results keep the jobs' order
        results = bench._map_trials(pid_after_nap, [(None, i) for i in range(4)], workers=2)
        assert [i for i, _ in results] == [0, 1, 2, 3]
        assert len({pid for _, pid in results}) == 2


def pid_after_nap(config, trial_index):
    """A pool job: its index and the pid of the process that ran it, after a nap long
    enough that one process cannot run every chunk before the other starts."""
    time.sleep(0.2)
    return trial_index, os.getpid()


class TestPublicNames:
    def test_top_level_names_are_the_modules_public_names(self):
        modules = (signal_model, music, optimizer, extract, bench)
        exported = {name: getattr(module, name) for module in modules for name in module.__all__}
        top_level = {
            name: value for name, value in vars(doakit).items() if not name.startswith("_") and not inspect.ismodule(value)
        }
        assert top_level == exported


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

    @pytest.mark.parametrize("name", SEARCHES)
    def test_population_search_is_membership_in_algorithms(self, name, monkeypatch):
        # only the searches of ALGORITHMS hand a population to an extraction: every other search is refused by the
        # population-only runs, names no extraction in its aggregate and gives the same trial under every method
        population = name in ALGORITHMS
        config = ScenarioConfig(algorithm=name, snr_db=10.0, trials=1, optimizer=FAST_DE)
        reports = {method: run_trial(replace(config, extraction=method), 0) for method in EXTRACTIONS}
        refuse_trials(monkeypatch)
        for run, message in (
            (run_extraction_comparison, "extraction comparison needs a population algorithm"),
            (
                partial(run_sweep, values=[32], field="optimizer.population_size"),
                "optimizer.population_size needs a population algorithm",
            ),
        ):
            # a population search passes the guard and reaches the refused trials
            error, text = (AssertionError, "a trial ran") if population else (ConfigError, message)
            with pytest.raises(error, match=text):
                run(config)
        for method, report in reports.items():
            assert aggregate(replace(config, extraction=method), [report]).extraction == (method if population else "")
        if not population:
            first = reports["dbscan"]
            for report in reports.values():
                assert report.estimates == first.estimates
                assert (report.shortfall, report.measured_evals) == (first.shortfall, first.measured_evals)

    # library defaults that restate a scenario default: (function, parameter, ScenarioConfig field)
    @pytest.mark.parametrize(
        "function, parameter, field_name",
        [
            (extract_dbscan, "eps", "dbscan_eps_deg"),
            (extract_dbscan, "min_pts", "dbscan_min_pts"),
            (extract_klocalmax, "num_neighbors", "klocalmax_neighbors"),
            (run_population, "share_radius", "share_radius_deg"),
            (run_population, "species_radius", "species_radius_deg"),
            (ArrayGeometry.uca, "radius", "radius"),
        ],
    )
    def test_library_defaults_equal_scenario_defaults(self, function, parameter, field_name):
        assert inspect.signature(function).parameters[parameter].default == getattr(ScenarioConfig(), field_name)

    def test_grid_spec_default_equals_scenario_grid(self):
        assert GridSpec() == ScenarioConfig().grid_spec()

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
    # values refused while building the array, the sources or the cost model
    ({"radius": 1e6}, "radius"),
    ({"num_elements": 1}, "num_elements"),
    ({"num_elements": 3}, "num_elements"),  # three sources leave no noise subspace
    ({"source_elevation_deg": [60, 29, 95]}, "source_elevation_deg"),
    ({"source_power": [1, 1]}, "source_power"),
]


# sha256 of the rows of each CSV that the CLI writes on the fast config (2 trials), summary.csv without its
# wall_ms column, a measurement. A refactor of the sweeps or the writers must leave them unchanged.
CLI_CSV_DIGESTS = {
    "summary.csv": "d31d6a569ad7b5f77ac6cd115cfa4bacf7d1fb57ea5e308c6dec72ded8777ded",
    "errors.csv": "6dbb893b5c8142cd9c3f8b24cdea28b5fbf5ba5d47274f816f599e0fd29a1a2c",
    "extraction_comparison.csv": "79ec9679cec21968ded2083cab53d0660a3bbc930d1620c06272386255caee0b",
    "population_sweep.csv": "51aabffe65f192bfab1626effdd4eaa2aaf1202e1705541bd367f664b224ec25",
    "complexity.csv": "d0d458ddbd9348f08b2d5d555bc36f6d28cd74ff72996dac38f4812d74f632f9",
}


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

    def test_csv_outputs_match_recorded_digests(self, tmp_path):
        config = str(_fast_config(tmp_path))
        for command in (["run", "--snr", "0", "10"], ["compare-extract"], ["sweep-pop", "--sizes", "32", "64"]):
            assert cli_main([*command, "--trials", "2", "--config", config, "--out", str(tmp_path)]) == 0
        assert cli_main(["table3", "--out", str(tmp_path)]) == 0
        digests = {}
        for name in CLI_CSV_DIGESTS:
            with (tmp_path / name).open(newline="") as handle:
                rows = list(csv.reader(handle))
            if name == "summary.csv":
                measured = rows[0].index("wall_ms")
                rows = [row[:measured] + row[measured + 1 :] for row in rows]
            digests[name] = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digests == CLI_CSV_DIGESTS

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
            {"snapshots": 0},
            {"master_seed": -1},
            {"optimizer": {"max_iterations": -1}},
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
            [1, 2],  # a config file must hold a JSON object
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
        err = capsys.readouterr().err
        assert "config error: " in err and "needs a population algorithm" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["compare-extract", "sweep-pop"])
    def test_grid_algo_flag_refused_before_trials(self, tmp_path, capsys, monkeypatch, command):
        # --algo offers every search; bench, not the parser, refuses the grid, which hands on no population
        refuse_trials(monkeypatch)
        code = cli_main([command, "--algo", "grid", "--trials", "1", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: " in err and "needs a population algorithm" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_sweep_pop_names_the_refused_size(self, tmp_path, capsys, monkeypatch):
        refuse_trials(monkeypatch)
        code = cli_main(["sweep-pop", "--trials", "1", "--sizes", "32", "16", "--out", str(tmp_path)])
        assert code == 2
        assert "config error: optimizer.population_size 16: neighborhood_size must lie in" in capsys.readouterr().err
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

        for name in ("run_sweep", "run_extraction_comparison", "complexity_cells"):
            monkeypatch.setattr(f"doakit.cli.{name}", no_work)
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / "file" / "out"
        assert cli_main([*command, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: cannot create output directory {out}" in captured.err

    @pytest.mark.parametrize(
        "command,name",
        [
            (["run", "--trials", "1"], "summary.csv"),
            (["run", "--trials", "1"], "errors.csv"),
            (["compare-extract", "--trials", "1"], "extraction_comparison.csv"),
            (["sweep-pop", "--trials", "1"], "population_sweep.csv"),
            (["table3"], "complexity.csv"),
        ],
    )
    def test_unwritable_csv_exits_before_work(self, tmp_path, capsys, monkeypatch, command, name):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the output files were checked")

        for function in ("run_sweep", "run_extraction_comparison", "complexity_cells"):
            monkeypatch.setattr(f"doakit.cli.{function}", no_work)
        (tmp_path / name).mkdir()
        assert cli_main([*command, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: cannot write {tmp_path / name}: it is a directory" in captured.err

    def test_read_only_out_exits_before_work(self, tmp_path, capsys, monkeypatch):
        # os.access is stubbed: a permission check cannot fail for root, which some test runners are
        refuse_trials(monkeypatch)
        monkeypatch.setattr("doakit.cli.os.access", lambda path, mode: False)
        assert cli_main(["run", "--trials", "1", "--out", str(tmp_path)]) == 2
        assert f"config error: cannot write {tmp_path / 'summary.csv'}: permission denied" in capsys.readouterr().err

    def test_run_offers_every_search(self):
        assert tuple(SEARCHES) == ("grid", "de", "denm", "dcde", "sharede", "sde")
        for name, command in itertools.product(SEARCHES, ("run", "compare-extract", "sweep-pop")):
            assert build_parser().parse_args([command, "--algo", name]).algo == name
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
        assert "config error: optimizer.population_size values must be distinct" in capsys.readouterr().err
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
