import itertools
import tracemalloc
from functools import partial

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
    grid_maxima,
    grid_search,
    music_values,
    noise_projector,
    sample_covariance,
    spectrum_objective,
    steering_matrix,
    steering_rows,
    steering_vector,
    subspace_split,
    synthesize_snapshots,
)
from doakit import music
from doakit.music import (
    _STRICT_MARGIN,
    DENOMINATOR_FLOOR,
    _captured_power,
    _exact_power,
    _grid_manifold,
    _grid_power,
    _heights,
    _local_maxima,
    _power_error_bound,
    _screen_tolerance,
    _steering_rows,
)

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

    @pytest.mark.parametrize("num_sources", [0, 3])
    @pytest.mark.parametrize("geom", list(STEERING_GEOMETRIES.values()), ids=list(STEERING_GEOMETRIES))
    def test_spectrum_into_buffers_equals_allocating_call(self, geom, num_sources):
        num_points = 300
        positions = random_rows(np.random.default_rng(num_sources), num_points)
        rows = _steering_rows(geom, positions)
        # zero columns: the identity projector, whose B r has no rows
        proj = NoiseProjector(random_split(geom.num_elements, seed=4).signal_basis[:, :num_sources], geom)
        expected = music_values(proj, positions).view(np.uint64)
        # a work buffer wider than the rows: only its first columns are written
        work = np.full((2 * num_sources, num_points + 37), np.nan)
        heights = _heights(geom.num_elements, _captured_power(proj.projection, rows, np.empty(num_points), work))
        np.testing.assert_array_equal(heights.view(np.uint64), expected)
        # heights written into a slice of a larger array
        larger = np.full(num_points + 10, -7.0)
        out = larger[4 : 4 + num_points]
        assert _heights(geom.num_elements, _captured_power(proj.projection, rows, out, work)) is out
        np.testing.assert_array_equal(out.view(np.uint64), expected)
        assert np.all(larger[:4] == -7.0) and np.all(larger[4 + num_points :] == -7.0)

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

    def test_spectrum_objective_returns_fresh_heights_equal_to_music_values(self):
        # each call returns fresh heights: a caller may keep them
        proj = projector_from_random_covariance(10)
        objective = spectrum_objective(proj)
        rng = np.random.default_rng(10)
        batches = [random_rows(rng, n) for n in (256, 256, 3, 300, 1)]
        values = [objective(rows) for rows in batches]
        for rows, heights in zip(batches, values):
            np.testing.assert_array_equal(heights, music_values(proj, rows))
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(values, 2))

    @pytest.mark.parametrize("geometry", STEERING_GEOMETRIES.values(), ids=STEERING_GEOMETRIES.keys())
    def test_direction_rule_matches_oracle(self, geometry):
        # azimuths several turns either way, elevations past both ends, -0.0, the bounds themselves and a
        # single row given as a list, against the rule as first written, bit for bit
        rng = np.random.default_rng(12)
        positions = np.column_stack([rng.uniform(-800.0, 1200.0, 500), rng.uniform(-30.0, 120.0, 500)])
        positions[:40] = rng.integers(-2, 3, size=(40, 2)) * [360.0, 90.0]
        positions[40:50, 1] = -0.0
        for rows in (positions, positions.astype(np.float32), [[30.0, -0.0]], [-10, 95]):
            np.testing.assert_array_equal(
                _steering_rows(geometry, rows).view(np.uint64), steering_rows_oracle(geometry, rows).view(np.uint64)
            )

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


def steering_rows_oracle(geometry, positions_deg):
    """music._steering_rows as first written: azimuth wrapped by np.mod, elevation clipped by np.clip."""
    pos = np.atleast_2d(np.asarray(positions_deg, dtype=float))
    az = np.mod(np.deg2rad(pos[:, 0]), 2.0 * np.pi)
    el = np.clip(np.deg2rad(pos[:, 1]), 0.0, np.pi / 2.0)
    return steering_rows(geometry, az, el)


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


def zenith_oracle(values):
    """The grid's peaks with column 0 the zenith, one value repeated in every row: columns 1 and up as
    ``local_maxima_oracle`` marks them, with column 0 as their neighbor, and column 0 one point, marked at
    row 0 alone when strictly above every cell of column 1."""
    expected = local_maxima_oracle(values)
    top = values[:, 1].max()
    expected[:, 0] = False
    expected[0, 0] = values[0, 0] > top + abs(top) * _STRICT_MARGIN
    return expected


def identity(power):
    """The identity height map: the screen then reads the values as heights."""
    return power


def local_maxima_mask(values):
    """``_local_maxima`` of ``values`` under the identity height map, as a boolean mask of the cells."""
    peaks, heights = _local_maxima(values, identity)
    np.testing.assert_array_equal(heights, values.ravel()[peaks])
    mask = np.zeros(values.shape, dtype=bool)
    mask.ravel()[peaks] = True
    return mask


def checked_zenith_mask(values):
    """``_local_maxima``'s mask of ``values`` with column 0 set to its row-0 value, returned after that mask
    and those with column 0 set in turn above, equal to and below column 1's maximum and to column 1's minimum
    are checked against ``zenith_oracle``; the zenith is a peak above column 1's maximum only."""
    top = values[:, 1].max()
    masks = []
    for zenith in (values[0, 0], top + 1.0 + abs(top), top, top - 1.0 - abs(top), values[:, 1].min()):
        values = values.copy()
        values[:, 0] = zenith
        masks.append(local_maxima_mask(values))
        np.testing.assert_array_equal(masks[-1], zenith_oracle(values))
    assert [mask[0, 0] for mask in masks[1:4]] == [True, False, False]
    return masks[0]


# small shapes, the 1-degree grid's, a wide one, and a single azimuth row, its own wrapped neighbor
MASK_SHAPES = [(3, 2), (4, 3), (360, 91), (7, 1000), (1, 5), (2, 2)]


class TestLocalMaxima:
    def test_interior_strict_dominance(self):
        values = np.zeros((5, 5))
        values[2, 2] = 1.0
        mask = checked_zenith_mask(values)
        assert mask[2, 2] and mask.sum() == 1

    def test_plateau_has_no_strict_maxima(self):
        assert not checked_zenith_mask(np.ones((4, 6))).any()

    def test_boundary_cells_use_existing_neighbors(self):
        # a corner on the azimuth seam and the last elevation column, and the zenith above the next column
        values = np.zeros((3, 3))
        values[0, 2] = 2.0
        values[:, 0] = 1.0
        mask = checked_zenith_mask(values)
        assert mask[0, 2] and mask[0, 0] and mask.sum() == 2

    def test_slope_rising_across_seam_is_no_peak(self):
        # azimuth rows rise from row 0 back across the seam to the last row, beside a zenith below them all
        values = np.array([3.0, 2.0, 1.0, 0.0, 1.0, 4.0])[:, None] + np.array([0.0, 0.0, 0.5, 0.0])
        values[:, 0] = -1.0
        mask = checked_zenith_mask(values)
        assert not mask[0, 2]
        assert mask[5, 2] and mask.sum() == 1

    def test_first_row_peak_over_lower_wrapped_neighbor(self):
        values = np.zeros((5, 4))
        values[0, 2] = 2.0
        values[4, 2] = 1.0
        mask = checked_zenith_mask(values)
        assert mask[0, 2] and mask.sum() == 1

    def test_elevation_edges_do_not_wrap(self):
        # the zenith column and the last elevation column hold equal values but are not neighbors
        values = np.zeros((5, 4))
        values[:, 0] = 1.0
        values[2, 3] = 1.0
        mask = checked_zenith_mask(values)
        assert mask[0, 0] and mask[2, 3] and mask.sum() == 2

    @pytest.mark.parametrize("shape", MASK_SHAPES, ids=str)
    def test_random_floats_match_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            checked_zenith_mask(rng.standard_normal(shape))

    @pytest.mark.parametrize("shape", MASK_SHAPES, ids=str)
    def test_small_integers_match_oracle(self, shape):
        # few distinct values: ties between neighbors and plateaus everywhere
        rng = np.random.default_rng(sum(shape))
        for high in (2, 3, 5):
            checked_zenith_mask(rng.integers(0, high, shape).astype(float))

    @pytest.mark.parametrize("shape", MASK_SHAPES, ids=str)
    def test_constant_and_negative_arrays_match_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        for values in (np.zeros(shape), np.full(shape, 2.5), np.full(shape, -1.0), -rng.uniform(0.5, 1.5, shape)):
            checked_zenith_mask(values)

    @pytest.mark.parametrize("step", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("num_elements", [5, 12, 128])
    def test_grid_spectra_match_oracle(self, num_elements, step, truth_sources):
        geom = ArrayGeometry.uca(num_elements)
        spec = GridSpec(azimuth_step=step, elevation_step=step)
        for snr_db in (-20.0, -10.0, 0.0, 10.0, 20.0, np.inf):
            snapshots = synthesize_snapshots(geom, truth_sources, snr_db, 100, rng_seed=num_elements)
            proj = noise_projector(subspace_split(sample_covariance(snapshots), truth_sources.count), geom)
            values = evaluate_grid(proj, spec)[:-1]
            # the elevation-0 cells are one direction, the same height bit for bit
            assert np.all(values[:, 0] == values[0, 0])
            assert checked_zenith_mask(values).any()

    @pytest.mark.parametrize("shape", [(3, 2), (4, 3), (360, 91), (7, 1000), (2, 2)], ids=str)
    def test_zenith_column_matches_oracle_beside_it(self, shape):
        # the flat indices themselves: ascending, each once, the zenith's 0 first when it is a peak
        rng = np.random.default_rng(sum(shape))
        for high in (None, 2, 3):
            values = rng.standard_normal(shape) if high is None else rng.integers(0, high, shape).astype(float)
            for zenith in (values[:, 1].max() + 1.0, values[:, 1].max(), values[:, 1].min()):
                values[:, 0] = zenith
                np.testing.assert_array_equal(_local_maxima(values, identity)[0], np.flatnonzero(zenith_oracle(values)))

    def test_zenith_needs_strict_margin_over_every_next_row_cell(self):
        values = np.zeros((6, 4))
        values[:, 1] = 1.0
        values[3, 1] = 2.0
        for zenith, peak in ((2.0 + 1e-9, True), (2.0 * (1.0 + _STRICT_MARGIN / 2.0), False), (2.0, False), (1.5, False)):
            values[:, 0] = zenith
            mask = local_maxima_mask(values)
            assert mask[0, 0] == peak and mask[:, 0].sum() == peak
            # the next-row cell that tops its other neighbors is a peak only when it tops the zenith too
            assert mask[3, 1] == (zenith < 2.0)


class TestGridMaxima:
    @pytest.mark.parametrize("step", [1.0, 2.0, 10.0, 90.0])
    @pytest.mark.parametrize("elevation", [0.0, 45.0])
    def test_every_local_maximum_cell_in_ascending_flat_index(self, uca12, elevation, step):
        # a source at the zenith makes it a peak, at flat index 0 and so first, on every grid step
        sources = SourceSet(np.array([30.0, 200.0]), np.array([elevation, 50.0]))
        spec = GridSpec(azimuth_step=step, elevation_step=step)
        for snr_db in (np.inf, 0.0):
            snapshots = synthesize_snapshots(uca12, sources, snr_db, 50, rng_seed=2)
            proj = noise_projector(subspace_split(sample_covariance(snapshots), 2), uca12)
            values = evaluate_grid(proj, spec)[:-1]
            # _local_maxima's cells, in ascending flat index: by azimuth, then elevation
            rows, columns = np.nonzero(local_maxima_mask(values))
            maxima = grid_maxima(proj, spec)
            expected = np.column_stack((spec.azimuth_values()[rows], spec.elevation_values()[columns]))
            np.testing.assert_array_equal(maxima.positions, expected)
            np.testing.assert_array_equal(maxima.fitness, values[rows, columns])
            if elevation == 0.0 and snr_db == np.inf:
                assert maxima.positions[0].tolist() == [0.0, 0.0]
                assert np.count_nonzero(maxima.positions[:, 1] == 0.0) == 1

    def test_constant_spectrum_has_no_maxima(self, uca12):
        maxima = grid_maxima(NoiseProjector(np.zeros((12, 0), dtype=complex), uca12), GridSpec())
        assert maxima.positions.shape == (0, 2) and maxima.fitness.shape == (0,)


def assert_screen_matches_oracle(power, num_elements):
    """``_local_maxima`` given the powers and the real height map against ``zenith_oracle`` given the heights of
    every cell, bit for bit; returns the peaks' flat indices."""
    peaks, heights = _local_maxima(power, partial(music._heights, num_elements))
    every_height = music._heights(num_elements, power.copy())
    np.testing.assert_array_equal(peaks, np.flatnonzero(zenith_oracle(every_height)))
    np.testing.assert_array_equal(heights.view(np.uint64), every_height.ravel()[peaks].view(np.uint64))
    return peaks


# (num_elements, radius) of the power-screen comparison, with its grid steps: two even circles, the odd array (no
# mirrored half), and M = 128, the largest array of the benchmark and the complexity table, whose dot products have
# 2k = 128 terms, on the two finest steps
SCREEN_STEPS = (1.0, 2.0, 10.0, 90.0)
SCREEN_ARRAYS = {(12, 1.0): SCREEN_STEPS, (32, 1.0): SCREEN_STEPS, (11, 0.6): SCREEN_STEPS, (128, 1.0): (1.0, 2.0)}
SCREEN_CASES = [(m, r, step) for (m, r), steps in SCREEN_ARRAYS.items() for step in steps]
# (num_elements, radius) of the float32 error-bound check: up to 10.19 wavelengths, where a phase runs to 2 pi * 10.19
BOUND_ARRAYS = list(itertools.product((5, 11, 12, 32, 128), (1.0, 10.19)))


class TestPowerScreen:
    @pytest.mark.parametrize("num_elements, radius, step", SCREEN_CASES, ids=[f"{m}-{r}-{s}" for m, r, s in SCREEN_CASES])
    def test_grid_maxima_equal_oracle_on_every_height(self, num_elements, radius, step):
        geom = ArrayGeometry.uca(num_elements, radius=radius)
        spec = GridSpec(azimuth_step=step, elevation_step=step)
        for num_sources, snr_db in itertools.product((1, 3, 10), (-np.inf, -10.0, -5.0, 0.0, 5.0, 10.0, np.inf)):
            index = np.arange(num_sources)
            sources = SourceSet((23.7 + index * 360.0 / num_sources) % 360.0, 15.0 + (index * 37.0) % 70.0)
            snapshots = synthesize_snapshots(geom, sources, snr_db, 100, rng_seed=num_elements + num_sources)
            proj = noise_projector(subspace_split(sample_covariance(snapshots), num_sources), geom)
            values = evaluate_grid(proj, spec)[:-1]
            rows, columns = np.nonzero(zenith_oracle(values))
            maxima = grid_maxima(proj, spec)
            expected = np.column_stack((spec.azimuth_values()[rows], spec.elevation_values()[columns]))
            np.testing.assert_array_equal(maxima.positions, expected)
            np.testing.assert_array_equal(maxima.fitness.view(np.uint64), values[rows, columns].view(np.uint64))

    @pytest.mark.parametrize("shape", [(4, 3), (360, 91), (7, 40), (2, 2)], ids=str)
    def test_plateau_has_no_maxima(self, shape):
        for power in (0.0, 1e-20, 3.0, 12.0):
            assert len(assert_screen_matches_oracle(np.full(shape, power), 12)) == 0

    def test_distinct_powers_of_equal_height_are_no_maximum(self):
        # at M = 12 both powers give the height 1/12: the larger passes the power screen and fails on heights
        power = np.full((8, 6), 1e-20)
        power[3, 2] = 2e-20
        assert music._heights(12, np.array([1e-20, 2e-20])).tolist() == [1 / 12, 1 / 12]
        assert len(assert_screen_matches_oracle(power, 12)) == 0
        # next to a real rise, the cell of equal height does not hide it
        power[5, 4] = 1.0
        assert assert_screen_matches_oracle(power, 12).tolist() == [5 * 6 + 4]

    def test_powers_at_the_floor_share_one_height(self):
        # every power at or above M - 1e-12 maps to the floored height 1e12, however the powers differ
        num_elements = 12
        at_floor = num_elements + np.array([-5e-13, 0.0, 1.0, 5.0])
        assert np.all(music._heights(num_elements, at_floor.copy()) == 1.0 / DENOMINATOR_FLOOR)
        power = np.full((9, 7), 2.0)
        power[2:5, 2:5] = np.resize(at_floor, (3, 3))  # a floored plateau of distinct powers: no maximum
        power[7, 6] = at_floor[2]  # a floored cell on the last elevation column, alone: a maximum
        assert assert_screen_matches_oracle(power, num_elements).tolist() == [7 * 7 + 6]
        rng = np.random.default_rng(12)
        for _ in range(5):
            assert_screen_matches_oracle(num_elements - DENOMINATOR_FLOOR + rng.uniform(-2e-12, 2.0, (30, 9)), 12)

    def test_zenith_tied_with_its_ring(self):
        power = np.random.default_rng(3).uniform(0.0, 5.0, (12, 5))
        top = power[:, 1].max()
        power[:, 0] = top  # the zenith equals the ring's maximum: neither is a peak
        peaks = assert_screen_matches_oracle(power, 12)
        assert 0 not in peaks and np.argmax(power[:, 1]) * 5 + 1 not in peaks
        power[:, 0] = np.nextafter(top, np.inf)  # one ulp above in power stays within the margin in height
        assert 0 not in assert_screen_matches_oracle(power, 12)
        power[:, 0] = top + 1.0
        assert assert_screen_matches_oracle(power, 12)[0] == 0

    @pytest.mark.parametrize("shape", [(3, 2), (360, 91), (7, 40)], ids=str)
    def test_random_powers_with_ties_in_height(self, shape):
        # powers too close to tell apart once subtracted from M, small integers with plateaus, and floored cells
        rng = np.random.default_rng(sum(shape))
        for power in (rng.uniform(0.0, 1e-15, shape), rng.integers(0, 14, shape).astype(float), rng.uniform(0, 12, shape)):
            assert_screen_matches_oracle(power, 12)

    def test_one_degree_grid_maps_few_heights(self, noiseless_projector, monkeypatch):
        expected = grid_maxima(noiseless_projector, GridSpec())
        received, heights = [], music._heights

        def recording_heights(num_elements, power):
            received.append(power.size)
            return heights(num_elements, power)

        monkeypatch.setattr(music, "_heights", recording_heights)
        maxima = grid_maxima(noiseless_projector, GridSpec())
        # the candidates, each one's neighbors' maximum, the zenith and its ring's maximum: not all 32851 cells
        assert 0 < sum(received) < 1000
        np.testing.assert_array_equal(maxima.positions, expected.positions)
        np.testing.assert_array_equal(maxima.fitness, expected.fitness)


    @pytest.mark.parametrize("num_elements, radius", BOUND_ARRAYS, ids=[f"{m}-{r}" for m, r in BOUND_ARRAYS])
    def test_float32_power_within_the_error_bound(self, num_elements, radius):
        geom = ArrayGeometry.uca(num_elements, radius=radius)
        rows, _, rows32 = _grid_manifold(geom, GridSpec())
        source_counts = [count for count in (1, 3, 10) if count < num_elements]
        for num_sources, snr_db in itertools.product(source_counts, (-np.inf, -10.0, 10.0, np.inf)):
            index = np.arange(num_sources)
            sources = SourceSet((23.7 + index * 360.0 / num_sources) % 360.0, 15.0 + (index * 37.0) % 70.0)
            snapshots = synthesize_snapshots(geom, sources, snr_db, 100, rng_seed=num_elements + num_sources)
            projection = noise_projector(subspace_split(sample_covariance(snapshots), num_sources), geom).projection
            exact = _grid_power(projection, rows)
            screen = _grid_power(projection.astype(np.float32), rows32)
            assert screen.dtype == np.float32
            bound = _power_error_bound(projection)
            assert np.max(np.abs(screen - exact)) <= bound
            # the screen's tolerance covers twice the bound and the threshold's float32 rounding
            assert 2.0 * bound < _screen_tolerance(projection) <= 2.5 * bound * (1.0 + 2.0**-20)

    def test_verdict_gathers_equal_the_passes(self):
        # one column, two, a pass's tail and more: numpy sends a lone column through gemv, so it goes in twice
        proj = noise_projector(random_split(12, seed=5), ArrayGeometry.uca(12))
        rows = _grid_manifold(proj.geometry, GridSpec())[0]
        passes = _grid_power(proj.projection, rows)
        rng = np.random.default_rng(5)
        for count in (1, 2, 3, 17, 126, 1000):
            cells = np.sort(rng.choice(len(passes) - GridSpec().num_elevation, count, replace=False))
            exact = _exact_power(proj.projection, rows, cells)
            np.testing.assert_array_equal(exact.view(np.uint64), passes[cells].view(np.uint64))

    @pytest.mark.parametrize("num_elements", [5, 12])
    def test_flat_spectrum_verdict_reads_each_cell_once_below_a_float64_pass(self, num_elements, monkeypatch):
        # the zero-column projector's powers are all 0: every cell is a candidate, and none is a peak
        geom = ArrayGeometry.uca(num_elements)
        proj = NoiseProjector(np.zeros((num_elements, 0)), geom)
        rows = _grid_manifold(geom, GridSpec())[0]
        gathered, exact_power = [], music._exact_power

        def recording_power(projection, rows, cells):
            gathered.append(cells)
            return exact_power(projection, rows, cells)

        monkeypatch.setattr(music, "_exact_power", recording_power)
        tracemalloc.start()
        try:
            maxima = grid_maxima(proj, GridSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(maxima) == 0
        # each cell of the grid but the 360-degree column once: at most one float64 pass
        np.testing.assert_array_equal(np.sort(np.concatenate(gathered)), np.arange(360 * 91))
        # one float64 pass reads the 2k x J float64 rows; the verdict gathers a pass's width at a time
        assert peak < rows.nbytes


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

    def test_rejects_no_sources(self, noiseless_projector):
        with pytest.raises(ValueError, match="num_sources must be positive"):
            grid_search(noiseless_projector, GridSpec(), 0)

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

    @pytest.mark.parametrize(
        "elevation, step, expected",
        [(0.0, 1.0, (0.0, 0.0)), (0.0, 10.0, (0.0, 0.0)), (2.0, 1.0, (30.0, 2.0)), (2.0, 10.0, (0.0, 0.0))],
    )
    def test_source_at_or_near_zenith_found(self, uca12, elevation, step, expected):
        # the zenith is one grid point, reported at azimuth 0 when it tops the next elevation; a source
        # 2 degrees off it lands on the 1-degree ring, and on the zenith of the 10-degree grid, its nearest point
        sources = SourceSet(np.array([30.0, 200.0]), np.array([elevation, 50.0]))
        snapshots = synthesize_snapshots(uca12, sources, np.inf, 50, rng_seed=2)
        proj = noise_projector(subspace_split(sample_covariance(snapshots), 2), uca12)
        result = grid_search(proj, GridSpec(azimuth_step=step, elevation_step=step), 2)
        assert not result.shortfall
        assert sorted(zip(result.azimuth_deg.tolist(), result.elevation_deg.tolist())) == sorted([expected, (200.0, 50.0)])
        # the zenith is reported once, however many peaks are asked for
        wide = grid_search(proj, GridSpec(azimuth_step=step, elevation_step=step), 20)
        assert np.count_nonzero(wide.elevation_deg == 0.0) == (expected == (0.0, 0.0))
        assert np.all(wide.azimuth_deg[wide.elevation_deg == 0.0] == 0.0)

    def test_zenith_below_next_row_not_reported(self, uca12):
        sources = SourceSet(np.array([100.0]), np.array([5.0]))
        snapshots = synthesize_snapshots(uca12, sources, np.inf, 50, rng_seed=2)
        proj = noise_projector(subspace_split(sample_covariance(snapshots), 1), uca12)
        values = evaluate_grid(proj, GridSpec())
        assert values[0, 0] < values[:, 1].max()
        result = grid_search(proj, GridSpec(), 20)
        assert (result.azimuth_deg[0], result.elevation_deg[0]) == (100.0, 5.0)
        assert np.all(result.elevation_deg > 0.0)

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


# (num_elements, radius, step, num_sources) of the grid-against-population comparison
GRID_CASES = [
    (5, 1.0, 1.0, 3),
    (12, 1.0, 1.0, 1),
    (12, 1.0, 1.0, 3),
    (12, 1.0, 1.0, 10),
    (12, 0.7, 1.0, 3),
    (12, 1.0, 2.0, 3),
    # odd circle: no mirrored half, so the projection is twice as wide
    (11, 0.6, 1.0, 3),
    (11, 0.6, 1.0, 10),
]


class TestGridManifold:
    @pytest.mark.parametrize(
        "num_elements, radius, step, num_sources",
        GRID_CASES,
        ids=[f"{m}-{r}-{s}" + ("" if l == 3 else f"-L{l}") for m, r, s, l in GRID_CASES],
    )
    def test_equals_music_values_over_the_meshgrid(self, num_elements, radius, step, num_sources, monkeypatch):
        geom = ArrayGeometry.uca(num_elements, radius=radius)
        proj = noise_projector(random_split(num_elements, seed=num_elements, num_sources=num_sources), geom)
        spec = GridSpec(azimuth_step=step, elevation_step=step)
        expected = spectrum_over_meshgrid(proj, spec).view(np.uint64)
        # many passes, four on the 1-degree grid (3 x 8224 + 8179), or one
        for block_columns in (1000, 2048, music._GRID_BLOCK_COLUMNS, spec.num_points + 1):
            monkeypatch.setattr(music, "_GRID_BLOCK_COLUMNS", block_columns)
            np.testing.assert_array_equal(evaluate_grid(proj, spec).view(np.uint64), expected)

    def test_one_degree_grid_runs_in_four_equal_passes(self, monkeypatch):
        proj = noise_projector(random_split(12, seed=12), ArrayGeometry.uca(12))
        expected = spectrum_over_meshgrid(proj, GridSpec()).view(np.uint64)
        widths, captured_power = [], music._captured_power

        def recording_power(proj, rows, out, work):
            widths.append((rows.shape[1], len(out), work.shape[1]))
            return captured_power(proj, rows, out, work)

        monkeypatch.setattr(music, "_captured_power", recording_power)
        values = evaluate_grid(proj, GridSpec())
        # each pass's rows, heights and work buffer: 3 x 8224 + 8179 = 32851, through one buffer
        assert widths == [(8224, 8224, 8224)] * 3 + [(8179, 8179, 8224)]
        np.testing.assert_array_equal(values.view(np.uint64), expected)

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
        evaluate_grid(noiseless_projector, GridSpec())
        hits = _grid_manifold.cache_info().hits
        # an equal geometry built apart finds the same entry
        manifold, positions, _ = _grid_manifold(ArrayGeometry.uca(12), GridSpec())
        for held in (manifold, positions):
            with pytest.raises(ValueError):
                held[0] = 0.0
        assert _grid_manifold.cache_info().hits == hits + 1
        # (azimuth, elevation) of every point in flat index order: azimuth-major, as evaluate_grid's values
        az_mesh, el_mesh = np.meshgrid(GridSpec().azimuth_values(), GridSpec().elevation_values(), indexing="ij")
        np.testing.assert_array_equal(positions, np.column_stack((az_mesh.ravel(), el_mesh.ravel())))
        # real cosine and sine rows of the M - h computed phases: M * J * 8 bytes on the even circle,
        # twice that on an odd one
        for geometry in (noiseless_projector.geometry, ArrayGeometry.uca(5)):
            evaluate_grid(NoiseProjector(np.zeros((geometry.num_elements, 0)), geometry), GridSpec())
            manifold = _grid_manifold(geometry, GridSpec())[0]
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
