import numpy as np
import pytest

from doakit import (
    ArrayGeometry,
    FlopModel,
    GridSpec,
    NoiseProjector,
    SourceSet,
    evaluate_grid,
    flops_music,
    flops_population,
    grid_search,
    music_values,
    noise_projector,
    sample_covariance,
    spectrum_objective,
    steering_matrix,
    steering_vector,
    subspace_split,
    synthesize_snapshots,
)
from doakit.music import _STRICT_MARGIN, DENOMINATOR_FLOOR, _grid_manifold, _local_maxima_mask

from conftest import STEERING_GEOMETRIES, TRUE_AZIMUTH_DEG, TRUE_ELEVATION_DEG

# Reference complexity table this cost model reproduces: values are rounded
# to one decimal MFLOP (ratios to two decimals), and three of them carry a
# one-unit slip in the last digit, so agreement is asserted to within one
# unit of the final digit throughout.
PRINTED_MUSIC_MFLOPS = {
    (12, 1): 4.7, (32, 1): 33.6, (128, 1): 538.2,
    (12, 3): 3.8, (32, 3): 31.4, (128, 3): 529.8,
    (12, 10): 0.9, (32, 10): 23.8, (128, 10): 500.2,
}
PRINTED_POPULATION_MFLOPS = {
    (12, 1): 2.0, (32, 1): 6.5, (128, 1): 85.2,
    (12, 3): 1.9, (32, 3): 6.2, (128, 3): 83.9,
    (12, 10): 1.4, (32, 10): 5.0, (128, 10): 79.4,
}
PRINTED_RATIOS = {
    (12, 1): 0.43, (32, 1): 0.19, (128, 1): 0.16,
    (12, 3): 0.49, (32, 3): 0.20, (128, 3): 0.16,
    (12, 10): 1.68, (32, 10): 0.21, (128, 10): 0.16,
}


def projector_from_random_covariance(seed, num_elements=8, num_sources=3):
    geom = ArrayGeometry.uca(num_elements)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((num_elements, 40)) + 1j * rng.standard_normal((num_elements, 40))
    split = subspace_split(sample_covariance(x), num_sources)
    return noise_projector(split, geom)


def projection_oracle(signal_basis, geometry):
    """B = [[Re P^T, Re Q^T], [Im P^T, Im Q^T]] built in complex arithmetic: P_m = c_m + c_{k+m}
    and Q_m = i (c_m - c_{k+m}) with c = conj(U_s), the c_{k+m} terms only for m < h."""
    c = np.conjugate(signal_basis)
    mirrored = geometry.mirrored_elements
    computed = geometry.num_elements - mirrored
    head = c[:computed]
    tail = np.zeros_like(head)
    tail[:mirrored] = c[computed:]
    weights = np.concatenate((head + tail, 1j * (head - tail))).T  # [P^T, Q^T], (L, 2k)
    return np.concatenate((weights.real, weights.imag))


class TestNoiseProjector:
    def test_invariants_on_random_covariances(self):
        for seed in range(10):
            basis = projector_from_random_covariance(seed).signal_basis
            assert basis.shape == (8, 3)  # (M, L)
            np.testing.assert_allclose(basis.conj().T @ basis, np.eye(3), atol=1e-8)  # orthonormal columns

    @pytest.mark.parametrize("num_sources", [0, 1, 3])
    @pytest.mark.parametrize("geom", list(STEERING_GEOMETRIES.values()), ids=list(STEERING_GEOMETRIES))
    def test_projection_equals_complex_construction(self, geom, num_sources):
        # array_equal holds +0 and -0 equal; the spectrum squares B r, so the sign of a zero cannot show
        rng = np.random.default_rng(geom.num_elements + num_sources)
        x = rng.standard_normal((geom.num_elements, 40)) + 1j * rng.standard_normal((geom.num_elements, 40))
        if num_sources:
            basis = subspace_split(sample_covariance(x), num_sources).signal_basis
        else:
            basis = np.zeros((geom.num_elements, 0), dtype=complex)
        projection = NoiseProjector(basis, geom).projection
        expected = projection_oracle(basis, geom)
        assert projection.dtype == expected.dtype == np.float64
        np.testing.assert_array_equal(projection, expected)
        assert not projection.flags.writeable
        assert projection.T.flags.c_contiguous  # BLAS rounds B r by layout; the golden digests pin this one


def random_rows(rng, count):
    """(azimuth_deg, elevation_deg) rows drawn uniformly over the search box."""
    return np.column_stack((rng.uniform(0.0, 360.0, count), rng.uniform(0.0, 90.0, count)))


class TestMusicValue:
    def test_matches_unprojected_form(self):
        # 1/(a^H (U_n U_n^H) a) computed from the basis directly
        geom = ArrayGeometry.uca(8)
        rng = np.random.default_rng(21)
        x = rng.standard_normal((8, 40)) + 1j * rng.standard_normal((8, 40))
        split = subspace_split(sample_covariance(x), 3)
        proj = noise_projector(split, geom)
        for azimuth, elevation in random_rows(rng, 20):
            a = steering_vector(geom, np.deg2rad(azimuth), np.deg2rad(elevation))
            direct = 1.0 / (a.conj() @ split.noise_basis @ split.noise_basis.conj().T @ a).real
            assert abs(music_values(proj, [azimuth, elevation])[0] - direct) / direct < 1e-10

    @pytest.mark.parametrize("num_elements", [5, 12, 128])
    @pytest.mark.parametrize("snr_db", [-10.0, 10.0, 30.0, np.inf])
    def test_equals_explicit_noise_subspace_form(self, num_elements, snr_db, truth_sources):
        # the spectrum goes through M - ||U_s^H a||^2; compare it with 1/(a^H U_n U_n^H a)
        geom = ArrayGeometry.uca(num_elements)
        snapshots = synthesize_snapshots(geom, truth_sources, snr_db, 100, rng_seed=num_elements)
        split = subspace_split(sample_covariance(snapshots), truth_sources.count)
        truth_rows = np.column_stack((truth_sources.azimuth_deg, truth_sources.elevation_deg))
        rows = np.vstack((random_rows(np.random.default_rng(num_elements), 200), truth_rows))
        values = music_values(noise_projector(split, geom), rows)
        a = np.column_stack([steering_vector(geom, *np.deg2rad(row)) for row in rows])
        u_n = split.noise_basis
        direct = np.einsum("mn,mn->n", a.conj(), u_n @ (u_n.conj().T @ a)).real
        # the subtraction loses about M * eps absolutely, so compare where the power is at least 1e-4
        away = direct >= 1e-4
        assert away.sum() >= 200
        np.testing.assert_allclose(values[away], 1.0 / direct[away], rtol=1e-9, atol=0.0)
        assert np.all(values >= 1.0 / num_elements)
        if snr_db == np.inf:  # the sources are exact nulls of the noiseless spectrum
            assert np.all(values[-truth_sources.count :] == 1.0 / DENOMINATOR_FLOOR)
        basis_free = NoiseProjector(np.zeros((num_elements, 0), dtype=complex), geom)
        assert np.all(music_values(basis_free, rows) == 1.0 / num_elements)

    @pytest.mark.parametrize("geom", list(STEERING_GEOMETRIES.values()), ids=list(STEERING_GEOMETRIES))
    def test_real_projection_equals_complex_steering_columns(self, geom):
        # ||B r||^2 over the real rows against ||U_s^H a||^2 over complex columns: mirrored pairs (h = M/2),
        # no pairs (h = 0) and a point-symmetric array that is not a circle
        num_elements = geom.num_elements
        rows = random_rows(np.random.default_rng(num_elements), 300)
        a = steering_matrix(geom, np.deg2rad(rows[:, 0]), np.deg2rad(rows[:, 1]))
        basis = random_split(num_elements, seed=num_elements).signal_basis
        captured = basis.conj().T @ a
        power = num_elements - (captured.real**2 + captured.imag**2).sum(axis=0)
        proj = NoiseProjector(basis, geom)
        assert proj.projection.shape == (2 * 3, 2 * (num_elements - geom.mirrored_elements))
        # the subtraction loses about M * eps absolutely, so compare away from the nulls
        away = power >= 1e-2
        assert away.all()
        expected = 1.0 / np.maximum(power, DENOMINATOR_FLOOR)
        np.testing.assert_allclose(music_values(proj, rows), expected, rtol=1e-12, atol=0.0)
        # a zero-column basis, real or complex, is the identity projector
        for dtype in (float, complex):
            basis_free = NoiseProjector(np.zeros((num_elements, 0), dtype=dtype), geom)
            assert np.all(music_values(basis_free, rows) == 1.0 / num_elements)

    def test_identity_projector_gives_one_over_m(self, uca12):
        proj = NoiseProjector(np.zeros((12, 0), dtype=complex), uca12)
        values = music_values(proj, random_rows(np.random.default_rng(1), 10))
        assert np.all(np.abs(values - 1.0 / 12.0) < 1e-14)

    def test_noiseless_peak_dominates(self):
        geom = ArrayGeometry.uca(12)
        sources = SourceSet(np.array([140.0]), np.array([50.0]))
        snapshots = synthesize_snapshots(geom, sources, np.inf, 64, rng_seed=3)
        proj = noise_projector(subspace_split(sample_covariance(snapshots), 1), geom)
        peak = music_values(proj, [140.0, 50.0])[0]
        assert peak >= 1e10  # floor-limited at exact orthogonality
        offsets = np.array([(10.0, 0.0), (-10.0, 0.0), (0.0, 10.0), (0.0, -10.0), (8.0, 8.0)])
        off = music_values(proj, np.array([140.0, 50.0]) + offsets)
        assert np.all(peak / off >= 1e3)

    def test_projection_power_bounded_so_value_at_least_one_over_m(self):
        for seed in range(5):
            proj = projector_from_random_covariance(seed, num_elements=10, num_sources=4)
            values = music_values(proj, random_rows(np.random.default_rng(seed + 50), 200))
            assert np.all(values >= 1.0 / 10.0 - 1e-12)
            assert np.all(values > 0)

    def test_periodic_in_azimuth(self):
        proj = projector_from_random_covariance(7)
        rows = random_rows(np.random.default_rng(7), 20)
        base = music_values(proj, rows)
        wrapped = music_values(proj, rows + [360.0, 0.0])
        assert np.all(np.abs(base - wrapped) / base < 1e-12)

    def test_spectrum_objective_wraps_degrees(self):
        proj = projector_from_random_covariance(9)
        objective = spectrum_objective(proj)
        pos = np.array([[350.0, 45.0], [710.0, 45.0]])  # same direction mod 360
        values = objective(pos)
        assert abs(values[0] - values[1]) / values[0] < 1e-12

    def test_direction_rule_clips_elevation_and_wraps_azimuth(self):
        # the rule both the grid and the population go through: exact, not approximate
        proj = projector_from_random_covariance(11)
        rows = [
            (40.0, 90.0 + 1e-9), (40.0, 100.0), (40.0, 90.0),
            (40.0, -1e-9), (40.0, -10.0), (40.0, 0.0),
            (-10.0, 45.0), (350.0, 45.0),
        ]
        values = music_values(proj, rows)
        assert values[0] == values[2] and values[1] == values[2]
        assert values[3] == values[5] and values[4] == values[5]
        assert values[6] == values[7]


class TestGridSpec:
    def test_default_grid_is_one_degree_inclusive(self):
        spec = GridSpec()
        assert spec.num_azimuth == 361
        assert spec.num_elevation == 91
        assert spec.num_points == 32851
        assert spec.azimuth_values()[0] == 0.0 and spec.azimuth_values()[-1] == 360.0

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            GridSpec(elevation_step=0.0)
        with pytest.raises(ValueError):
            GridSpec(azimuth_step=float("nan"))
        # fewer than two distinct azimuth columns or two elevation rows
        with pytest.raises(ValueError):
            GridSpec(azimuth_step=1000.0)
        with pytest.raises(ValueError):
            GridSpec(azimuth_step=200.0, elevation_step=200.0)
        # steps whose point count overflows to infinity or does not fit an array index
        for tiny in (5e-324, 1e-300, 1e-10):
            with pytest.raises(ValueError):
                GridSpec(azimuth_step=tiny, elevation_step=tiny)
        assert GridSpec(azimuth_step=180.0, elevation_step=90.0).num_points == 3 * 2


def local_maxima_oracle(values):
    """Strict local maxima from eight shifted comparisons: azimuth (axis 0) padded
    by wrapping, elevation (axis 1) padded with -inf."""
    padded = np.pad(np.pad(values, ((1, 1), (0, 0)), mode="wrap"), ((0, 0), (1, 1)), constant_values=-np.inf)
    neighbor_max = np.full_like(values, -np.inf)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            shifted = padded[1 + di : padded.shape[0] - 1 + di, 1 + dj : padded.shape[1] - 1 + dj]
            neighbor_max = np.maximum(neighbor_max, shifted)
    return values > neighbor_max + np.abs(neighbor_max) * _STRICT_MARGIN


# small shapes, the 1-degree grid's, a wide one, and single rows and columns
MASK_SHAPES = [(3, 2), (4, 3), (360, 91), (7, 1000), (1, 5), (5, 1), (2, 2)]


class TestLocalMaxima:
    def test_interior_strict_dominance(self):
        values = np.zeros((5, 5))
        values[2, 2] = 1.0
        mask = _local_maxima_mask(values)
        assert mask[2, 2] and mask.sum() == 1

    def test_plateau_has_no_strict_maxima(self):
        assert not _local_maxima_mask(np.ones((4, 6))).any()

    def test_boundary_cells_use_existing_neighbors(self):
        values = np.zeros((3, 3))
        values[0, 0] = 2.0
        mask = _local_maxima_mask(values)
        assert mask[0, 0]

    def test_slope_rising_across_seam_is_no_peak(self):
        # azimuth rows rise from row 0 back across the seam to the last row
        values = np.array([3.0, 2.0, 1.0, 0.0, 1.0, 4.0])[:, None] + np.array([0.0, 0.5, 0.0])
        mask = _local_maxima_mask(values)
        assert not mask[0, 1]
        assert mask[5, 1] and mask.sum() == 1

    def test_first_row_peak_over_lower_wrapped_neighbor(self):
        values = np.zeros((5, 4))
        values[0, 2] = 2.0
        values[4, 2] = 1.0
        mask = _local_maxima_mask(values)
        assert mask[0, 2] and mask.sum() == 1

    def test_elevation_edges_do_not_wrap(self):
        # equal values on the first and last elevation columns are not neighbors
        values = np.zeros((5, 4))
        values[2, 0] = 1.0
        values[2, 3] = 1.0
        mask = _local_maxima_mask(values)
        assert mask[2, 0] and mask[2, 3] and mask.sum() == 2

    @pytest.mark.parametrize("shape", MASK_SHAPES, ids=str)
    def test_random_floats_match_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            values = rng.standard_normal(shape)
            np.testing.assert_array_equal(_local_maxima_mask(values), local_maxima_oracle(values))

    @pytest.mark.parametrize("shape", MASK_SHAPES, ids=str)
    def test_small_integers_match_oracle(self, shape):
        # few distinct values: ties between neighbors and plateaus everywhere
        rng = np.random.default_rng(sum(shape))
        for high in (2, 3, 5):
            values = rng.integers(0, high, shape).astype(float)
            np.testing.assert_array_equal(_local_maxima_mask(values), local_maxima_oracle(values))

    @pytest.mark.parametrize("shape", MASK_SHAPES, ids=str)
    def test_constant_and_negative_arrays_match_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        for values in (np.zeros(shape), np.full(shape, 2.5), np.full(shape, -1.0), -rng.uniform(0.5, 1.5, shape)):
            np.testing.assert_array_equal(_local_maxima_mask(values), local_maxima_oracle(values))

    @pytest.mark.parametrize("step", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("num_elements", [5, 12, 128])
    def test_grid_spectra_match_oracle(self, num_elements, step, truth_sources):
        geom = ArrayGeometry.uca(num_elements)
        spec = GridSpec(azimuth_step=step, elevation_step=step)
        for snr_db in (-20.0, -10.0, 0.0, 10.0, 20.0, np.inf):
            snapshots = synthesize_snapshots(geom, truth_sources, snr_db, 100, rng_seed=num_elements)
            proj = noise_projector(subspace_split(sample_covariance(snapshots), truth_sources.count), geom)
            values = evaluate_grid(proj, spec)[:-1]
            mask = _local_maxima_mask(values)
            np.testing.assert_array_equal(mask, local_maxima_oracle(values))
            assert mask.any()


class TestGridSearch:
    def test_noiseless_reference_scenario(self, noiseless_projector):
        result = grid_search(noiseless_projector, GridSpec(), 3)
        assert not result.shortfall
        assert result.num_evaluations == 32851
        order = np.argsort(result.azimuth_deg)
        for az, el, true_az, true_el in zip(
            result.azimuth_deg[order], result.elevation_deg[order], TRUE_AZIMUTH_DEG, TRUE_ELEVATION_DEG
        ):
            assert abs(az - true_az) <= 0.5
            assert abs(el - true_el) <= 0.5

    def test_constant_spectrum_shortfall(self, uca12):
        proj = NoiseProjector(np.zeros((12, 0), dtype=complex), uca12)
        result = grid_search(proj, GridSpec(), 2)
        assert result.shortfall
        assert len(result.values) == 0

    def test_deterministic(self, noiseless_projector):
        first = grid_search(noiseless_projector, GridSpec(), 3)
        second = grid_search(noiseless_projector, GridSpec(), 3)
        np.testing.assert_array_equal(first.azimuth_deg, second.azimuth_deg)
        np.testing.assert_array_equal(first.values, second.values)

    def test_seam_peak_reported_once(self, uca12):
        # a source on the 0/360 seam shows up in both end columns; exactly one survives
        sources = SourceSet(np.array([0.0]), np.array([45.0]))
        snapshots = synthesize_snapshots(uca12, sources, np.inf, 50, rng_seed=2)
        proj = noise_projector(subspace_split(sample_covariance(snapshots), 1), uca12)
        result = grid_search(proj, GridSpec(), 3)
        near_seam = [
            (az, el)
            for az, el in zip(result.azimuth_deg, result.elevation_deg)
            if min(az, 360.0 - az) < 1.0 and abs(el - 45.0) < 1.0
        ]
        assert len(near_seam) == 1

    def test_values_positive_and_grid_shape(self, noiseless_projector):
        values = evaluate_grid(noiseless_projector, GridSpec())
        assert values.shape == (361, 91)
        assert np.all(values > 0)
        assert np.all(np.isfinite(values))


def spectrum_over_meshgrid(proj, spec):
    """The grid spectrum through the population path, for comparison."""
    az_mesh, el_mesh = np.meshgrid(spec.azimuth_values(), spec.elevation_values(), indexing="ij")
    return music_values(proj, np.column_stack((az_mesh.ravel(), el_mesh.ravel()))).reshape(az_mesh.shape)


def random_split(num_elements, seed, num_sources=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((num_elements, 40)) + 1j * rng.standard_normal((num_elements, 40))
    return subspace_split(sample_covariance(x), num_sources)


class TestGridManifold:
    @pytest.mark.parametrize(
        "num_elements, radius, step",
        [(5, None, 1.0), (12, None, 1.0), (12, 0.7, 1.0), (12, None, 2.0)],
    )
    def test_equals_music_values_over_the_meshgrid(self, num_elements, radius, step):
        geom = ArrayGeometry.uca(num_elements, radius=radius)
        proj = noise_projector(random_split(num_elements, seed=num_elements), geom)
        spec = GridSpec(azimuth_step=step, elevation_step=step)
        np.testing.assert_array_equal(evaluate_grid(proj, spec), spectrum_over_meshgrid(proj, spec))

    def test_alternating_geometries_of_equal_size(self):
        # same subspace split and element count: only the element positions tell the spectra apart
        split = random_split(12, seed=3)
        projs = [noise_projector(split, ArrayGeometry.uca(12, radius=r)) for r in (1.0, 0.6)]
        expected = [spectrum_over_meshgrid(proj, GridSpec()) for proj in projs]
        assert not np.array_equal(expected[0], expected[1])
        for _ in range(2):
            for proj, values in zip(projs, expected):
                np.testing.assert_array_equal(evaluate_grid(proj, GridSpec()), values)

    def test_cached_arrays_are_read_only(self, noiseless_projector):
        geom = noiseless_projector.geometry
        evaluate_grid(noiseless_projector, GridSpec())
        key = (geom.num_elements, geom.wavelength, geom.element_x.tobytes(), geom.element_y.tobytes(), GridSpec())
        hits = _grid_manifold.cache_info().hits
        manifold = _grid_manifold(*key)
        with pytest.raises(ValueError):
            manifold[0, 0] = 0.0
        assert _grid_manifold.cache_info().hits == hits + 1
        # real cosine and sine rows of the M - h computed phases: M * J * 8 bytes on the even circle,
        # twice that on an odd one
        for geometry in (geom, ArrayGeometry.uca(5)):
            evaluate_grid(NoiseProjector(np.zeros((geometry.num_elements, 0)), geometry), GridSpec())
            x, y = geometry.element_x.tobytes(), geometry.element_y.tobytes()
            manifold = _grid_manifold(geometry.num_elements, geometry.wavelength, x, y, GridSpec())
            computed = geometry.num_elements - geometry.mirrored_elements
            assert manifold.dtype == np.float64 and not manifold.flags.writeable
            assert manifold.shape == (2 * computed, GridSpec().num_points)
            assert manifold.nbytes == 2 * computed * GridSpec().num_points * 8


class TestFlopModel:
    def test_music_formula_exact(self):
        # M=12, L=3, J=361*91: 144*5 + 32851*13*9 = 3_844_287 (~3.8 MFLOPs)
        assert flops_music(FlopModel(12, 3)) == 144 * 5 + 32851 * 13 * 9
        # M=12, L=10: 144*12 + 32851*13*2 (~0.9 MFLOPs)
        assert flops_music(FlopModel(12, 10)) == 144 * 12 + 32851 * 13 * 2
        # M=32, L=3: 1024*5 + 32851*33*29 (~31.4 MFLOPs)
        assert flops_music(FlopModel(32, 3)) == 1024 * 5 + 32851 * 33 * 29

    def test_population_formula_exact(self):
        # M=12, L=3, N=256, iters=20: 720 + 20*256*(117 + 255) = 1_905_360 (~1.9 MFLOPs)
        assert flops_population(FlopModel(12, 3)) == 720 + 20 * 256 * (117 + 255)
        # M=12, L=1: 432 + 5120*(143 + 255) (~2.0 MFLOPs)
        assert flops_population(FlopModel(12, 1)) == 432 + 5120 * (143 + 255)
        # M=128, L=10: 196608 + 5120*(15222 + 255) (~79.4 MFLOPs)
        assert flops_population(FlopModel(128, 10)) == 16384 * 12 + 5120 * (129 * 118 + 255)

    def test_matches_printed_table_within_print_precision(self):
        for (sensors, sources), printed in PRINTED_MUSIC_MFLOPS.items():
            model = FlopModel(sensors, sources)
            assert abs(flops_music(model) / 1e6 - printed) <= 0.1
            assert abs(flops_population(model) / 1e6 - PRINTED_POPULATION_MFLOPS[(sensors, sources)]) <= 0.1
            ratio = flops_population(model) / flops_music(model)
            assert abs(ratio - PRINTED_RATIOS[(sensors, sources)]) <= 0.01

    def test_grid_size_rederived_from_printed_table(self):
        # the grid size is not printed anywhere; recover it by fitting the
        # model to the table over candidate uniform grids (inclusive endpoints)
        def max_deviation(grid_points):
            devs = []
            for (sensors, sources), printed in PRINTED_MUSIC_MFLOPS.items():
                model = FlopModel(sensors, sources, grid_points=grid_points)
                devs.append(abs(flops_music(model) / 1e6 - printed))
                devs.append(abs(flops_population(model) / 1e6 - PRINTED_POPULATION_MFLOPS[(sensors, sources)]))
            return max(devs)

        candidates = {}
        for step in (4.0, 2.0, 1.0, 0.5, 0.25):
            spec = GridSpec(azimuth_step=step, elevation_step=step)
            candidates[step] = max_deviation(spec.num_points)
        best_step = min(candidates, key=candidates.get)
        assert best_step == 1.0
        assert GridSpec().num_points == 361 * 91
        assert candidates[1.0] < 0.07  # three printed cells carry a one-ulp slip

    def test_zero_iterations_cost_the_decomposition_only(self):
        assert flops_population(FlopModel(12, 3, max_iterations=0)) == 144 * 5
        with pytest.raises(ValueError):
            FlopModel(12, 3, max_iterations=-1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FlopModel(12, 12)
        with pytest.raises(ValueError):
            FlopModel(12, 3, grid_points=0)
