import warnings

import numpy as np
import pytest

from doakit import (
    ArrayGeometry,
    SourceSet,
    sample_covariance,
    steering_matrix,
    steering_vector,
    subspace_split,
    synthesize_snapshots,
)

from doakit.signal_model import _CHUNK, _TABLE_SIZE, MAX_ELEMENT_REACH, _cos_sin, _source_steering, steering_rows

from conftest import STEERING_GEOMETRIES, centred_4x4_grid, uca12_one_ulp_off


def direct_uca_steering(num_elements, radius, wavelength, azimuth, elevation):
    """Scalar-by-scalar oracle: element m carries phase
    -(2*pi*r/lam) * cos(2*pi*m/M - azimuth) * sin(elevation), m = 1..M."""
    out = np.empty(num_elements, dtype=complex)
    for m in range(1, num_elements + 1):
        phi_m = 2.0 * np.pi * m / num_elements
        phase = -(2.0 * np.pi * radius / wavelength) * np.cos(phi_m - azimuth) * np.sin(elevation)
        out[m - 1] = np.exp(1j * phase)
    return out


class TestArrayGeometry:
    def test_uca_layout(self):
        geom = ArrayGeometry.uca(8, radius=2.0)
        np.testing.assert_allclose(np.hypot(geom.element_x, geom.element_y), 2.0)
        # element m sits at azimuth 2*pi*m/M, m = 1..M; compared on the unit circle so 2*pi and 0 agree
        angles = np.arctan2(geom.element_y, geom.element_x)
        np.testing.assert_allclose(np.exp(1j * angles), np.exp(2j * np.pi * np.arange(1, 9) / 8))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ArrayGeometry.uca(1)
        for radius in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="radius"):
                ArrayGeometry.uca(4, radius=radius)

    def test_default_radius_is_one_wavelength(self):
        for num_elements in (2, 5, 12, 128):
            geom = ArrayGeometry.uca(num_elements)
            np.testing.assert_allclose(np.hypot(geom.element_x, geom.element_y), 1.0, rtol=0.0, atol=1e-15)

    def test_element_count_is_the_number_of_positions(self):
        for num_elements in (2, 3, 12):
            positions = np.random.default_rng(num_elements).uniform(-1.0, 1.0, (2, num_elements))
            assert ArrayGeometry(*positions).num_elements == num_elements
            assert ArrayGeometry.uca(num_elements).num_elements == num_elements

    @pytest.mark.parametrize(
        "x, y",
        [
            (np.zeros(2), np.zeros(3)),  # mismatched lengths
            (np.zeros((2, 2)), np.zeros((2, 2))),  # 2-D input
            (np.zeros(1), np.zeros(1)),  # a single element
        ],
        ids=["mismatched", "two-dimensional", "single"],
    )
    def test_rejects_malformed_position_lists(self, x, y):
        with pytest.raises(ValueError, match="two 1-D position lists of equal length, at least two elements"):
            ArrayGeometry(x, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_positions(self, bad):
        # a NaN or infinite position would turn every steering entry of its element into NaN
        with pytest.raises(ValueError):
            ArrayGeometry(np.array([0.0, bad, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            ArrayGeometry(np.zeros(3), np.array([0.0, 1.0, bad]))

    def test_positions_are_read_only_copies(self):
        # a geometry shared between trials cannot change under them, and freezing it leaves the caller's arrays alone
        x, y = np.array([0.0, 1.0, -1.0]), np.zeros(3)
        geom = ArrayGeometry(x, y)
        x[1] = 5.0
        assert geom.element_x[1] == 1.0 and x.flags.writeable
        for positions in (geom.element_x, geom.element_y):
            with pytest.raises(ValueError):
                positions[0] = 1.0

    @pytest.mark.parametrize("num_elements", [2, 4, 6, 12, 128, 1000])
    def test_even_uca_is_exactly_point_symmetric(self, num_elements):
        geom = ArrayGeometry.uca(num_elements)
        half = num_elements // 2
        assert geom.mirrored_elements == half
        np.testing.assert_array_equal(geom.element_x[half:], -geom.element_x[:half])
        np.testing.assert_array_equal(geom.element_y[half:], -geom.element_y[:half])
        # the mirrored half sits within an ulp of its own azimuths phi_m = 2*pi*m/M
        azimuths = 2.0 * np.pi * np.arange(1, num_elements + 1) / num_elements
        np.testing.assert_allclose(geom.element_x, np.cos(azimuths), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(geom.element_y, np.sin(azimuths), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("num_elements", [3, 5, 11, 127])
    def test_odd_uca_has_no_mirrored_elements(self, num_elements):
        assert ArrayGeometry.uca(num_elements).mirrored_elements == 0

    def test_mirrored_elements_need_an_exact_mirror_m_over_2_places_on(self):
        assert centred_4x4_grid().mirrored_elements == 8
        assert uca12_one_ulp_off().mirrored_elements == 0
        # the same points with two neighbours swapped: their mirrors no longer sit M/2 places on
        geom = ArrayGeometry.uca(12)
        order = np.array([1, 0, *range(2, 12)])
        assert ArrayGeometry(geom.element_x[order], geom.element_y[order]).mirrored_elements == 0

    def test_compares_and_hashes_by_value(self):
        # two geometries built apart are one dict key; any position tells them apart
        geom, again = ArrayGeometry.uca(12), ArrayGeometry.uca(12)
        assert geom is not again and geom == again and hash(geom) == hash(again)
        assert {geom: "first"}[again] == "first" and {again: "second"}[geom] == "second"
        for index in range(6):
            for axis in range(2):
                positions = [geom.element_x.copy(), geom.element_y.copy()]
                positions[axis][index] = np.nextafter(positions[axis][index], np.inf)
                positions[axis][index + 6] = -positions[axis][index]
                other = ArrayGeometry(*positions)
                # the mirror moves too, so only the positions tell the two apart
                assert other.mirrored_elements == 6 and other != geom and len({geom, other}) == 2


class TestSteeringVector:
    def test_zenith_gives_all_ones(self):
        geom = ArrayGeometry.uca(6)
        np.testing.assert_allclose(steering_vector(geom, 1.234, 0.0), np.ones(6), atol=1e-12)

    def test_four_element_hand_case(self):
        # M=4, r = one wavelength, azimuth 0, elevation pi/2: phases are
        # -2*pi*cos(2*pi*m/4), i.e. (0, 2*pi, 0, -2*pi) -> all ones after wrap
        geom = ArrayGeometry.uca(4, radius=1.0)
        vec = steering_vector(geom, 0.0, np.pi / 2.0)
        np.testing.assert_allclose(vec, np.ones(4), atol=1e-12)
        np.testing.assert_allclose(vec, direct_uca_steering(4, 1.0, 1.0, 0.0, np.pi / 2.0), atol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            num_elements = int(rng.integers(2, 16))
            wavelength = float(rng.uniform(0.5, 3.0))
            radius = float(rng.uniform(0.2, 4.0))
            azimuth = float(rng.uniform(0.0, 2.0 * np.pi))
            elevation = float(rng.uniform(0.0, np.pi / 2.0))
            # the radius in wavelengths carries the whole of r / lam
            geom = ArrayGeometry.uca(num_elements, radius=radius / wavelength)
            np.testing.assert_allclose(
                steering_vector(geom, azimuth, elevation),
                direct_uca_steering(num_elements, radius, wavelength, azimuth, elevation),
                atol=1e-12,
            )

    def test_unit_modulus_and_norm(self):
        geom = ArrayGeometry.uca(9)
        rng = np.random.default_rng(11)
        for _ in range(50):
            vec = steering_vector(geom, float(rng.uniform(0, 2 * np.pi)), float(rng.uniform(0, np.pi / 2)))
            np.testing.assert_allclose(np.abs(vec), 1.0, atol=1e-12)
            assert abs(vec.conj() @ vec - geom.num_elements) < 1e-10

    def test_domain_errors(self):
        geom = ArrayGeometry.uca(4)
        for azimuth, elevation in ((-0.1, 0.3), (2 * np.pi, 0.3), (1.0, -0.01), (1.0, np.pi / 2 + 0.01)):
            with pytest.raises(ValueError):
                steering_vector(geom, azimuth, elevation)

    def test_ura_matches_planar_phase(self):
        # general planar form: phase = -2*pi (x cos(az) + y sin(az)) sin(el), x and y in wavelengths,
        # on a centered 2 x 3 half-wavelength grid
        gx, gy = np.meshgrid([-0.25, 0.25], [-0.5, 0.0, 0.5], indexing="ij")
        geom = ArrayGeometry(gx.ravel(), gy.ravel())
        azimuth, elevation = 0.7, 0.9
        in_plane = geom.element_x * np.cos(azimuth) + geom.element_y * np.sin(azimuth)
        expected = np.exp(-2j * np.pi * in_plane * np.sin(elevation))
        np.testing.assert_allclose(steering_vector(geom, azimuth, elevation), expected, atol=1e-12)


class TestSteeringMatrix:
    @pytest.mark.parametrize("geom", list(STEERING_GEOMETRIES.values()), ids=list(STEERING_GEOMETRIES))
    def test_matches_complex_exponential(self, geom):
        rng = np.random.default_rng(geom.num_elements)
        azimuths = np.concatenate([[1.234], rng.uniform(0.0, 2.0 * np.pi, 300)])
        elevations = np.concatenate([[0.0], rng.uniform(0.0, np.pi / 2.0, 300)])
        in_plane = np.outer(geom.element_x, np.cos(azimuths)) + np.outer(geom.element_y, np.sin(azimuths))
        expected = np.exp(-2j * np.pi * in_plane * np.sin(elevations))
        columns = steering_matrix(geom, azimuths, elevations)
        assert columns.dtype == np.complex128 and columns.flags.c_contiguous
        assert columns.shape == (geom.num_elements, 301)
        np.testing.assert_allclose(columns, expected, rtol=0.0, atol=1e-15)
        assert np.all(columns[:, 0] == 1 + 0j)  # zenith: exactly one on every element

    @pytest.mark.parametrize("num_elements", [12, 128])
    def test_trailing_half_is_the_conjugate_of_the_leading_half(self, num_elements):
        rng = np.random.default_rng(num_elements)
        azimuths = np.concatenate([[0.0, 1.234], rng.uniform(0.0, 2.0 * np.pi, 500)])
        elevations = np.concatenate([[0.0, np.pi / 2.0], rng.uniform(0.0, np.pi / 2.0, 500)])
        columns = steering_matrix(ArrayGeometry.uca(num_elements), azimuths, elevations)
        half = num_elements // 2
        # bit for bit, signed zeros included
        np.testing.assert_array_equal(columns[half:].view(np.uint64), columns[:half].conj().view(np.uint64))


# Half an ulp of a table entry plus half an ulp of the result, 2 * 2**-54, plus
# 1e-18 for the rounding of the correction; the largest error measured on 10^6
# random phases up to 2*pi*40 in magnitude was 1.110e-16 (numpy's libm cos and
# sin: 5.6e-17).
KERNEL_ERROR_BOUND = 2 * 2.0**-54 + 1e-18


def table_cos_sin(phase):
    phase = np.array(phase, dtype=float)
    cos_out, sin_out = np.empty_like(phase), np.empty_like(phase)
    _cos_sin(phase, cos_out, sin_out)
    return cos_out, sin_out


def assert_within_kernel_bound(phase):
    """Both outputs against cos and sin evaluated in long double on the same float64 phases."""
    cos_out, sin_out = table_cos_sin(phase)
    wide = np.asarray(phase, dtype=np.longdouble)
    assert float(np.max(np.abs(cos_out - np.cos(wide)))) <= KERNEL_ERROR_BOUND
    assert float(np.max(np.abs(sin_out - np.sin(wide)))) <= KERNEL_ERROR_BOUND


class TestCosSinKernel:
    def test_error_bound_up_to_forty_wavelengths(self):
        # 2*pi*40 is the largest phase of a 40-wavelength aperture
        limit = 2.0 * np.pi * 40.0
        phase = np.random.default_rng(21).uniform(-limit, limit, 200_000)
        assert_within_kernel_bound(np.concatenate([phase, [limit, -limit]]))

    def test_error_bound_at_the_reach_limit(self):
        limit = 2.0 * np.pi * MAX_ELEMENT_REACH
        assert_within_kernel_bound(np.random.default_rng(22).uniform(-limit, limit, 100_000))

    def test_signed_zeros_give_exactly_one_and_zero(self):
        cos_out, sin_out = table_cos_sin([0.0, -0.0])
        assert np.all(cos_out == 1.0) and np.all(sin_out == 0.0)

    def test_exact_multiples_of_the_table_step(self):
        step = 2.0 * np.pi / _TABLE_SIZE
        multiples = np.arange(-3 * _TABLE_SIZE, 3 * _TABLE_SIZE + 1)
        assert_within_kernel_bound(multiples * step)
        # the quadrant points, where the tables hold exact zeros and ones
        assert_within_kernel_bound(np.arange(-12, 13) * (np.pi / 2.0))

    def test_index_wraps_from_the_last_entry_to_the_first(self):
        # phases whose nearest table step is T - 1, T or T + 1 (index T - 1, 0, 1),
        # and their negatives, on both sides of each rounding boundary
        step = 2.0 * np.pi / _TABLE_SIZE
        centres = np.array([_TABLE_SIZE - 1, _TABLE_SIZE, _TABLE_SIZE + 1]) * step
        offsets = np.array([-0.5, -0.4999, 0.0, 0.4999, 0.5]) * step
        phase = (centres[:, None] + offsets).ravel()
        assert_within_kernel_bound(np.concatenate([phase, -phase]))

    def test_chunks_change_nothing(self):
        # uca128 computes 64 phases a direction: 200 directions span several chunks
        # and end part-way through one; each column must equal its own one-column call
        geom = ArrayGeometry.uca(128)
        rng = np.random.default_rng(23)
        azimuths, elevations = rng.uniform(0.0, 2.0 * np.pi, 200), rng.uniform(0.0, np.pi / 2.0, 200)
        rows = steering_rows(geom, azimuths, elevations)
        assert rows[:64].size > 2 * _CHUNK and rows[:64].size % _CHUNK
        columns = np.column_stack([steering_rows(geom, [a], [e])[:, 0] for a, e in zip(azimuths, elevations)])
        np.testing.assert_array_equal(rows.view(np.uint64), columns.view(np.uint64))

    def test_zenith_rows_are_exactly_one_and_zero(self):
        for geom in STEERING_GEOMETRIES.values():
            rows = steering_rows(geom, [0.0, 1.234, 5.0], [0.0, 0.0, 0.0])
            computed = len(rows) // 2
            assert np.all(rows[:computed] == 1.0) and np.all(rows[computed:] == 0.0)

    def test_nan_angles_give_nan_rows_without_warnings(self):
        geom = ArrayGeometry.uca(12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = steering_rows(geom, [np.nan, 0.3, 0.3], [0.2, np.nan, 0.2])
            cos_out, sin_out = table_cos_sin([np.nan, 1.0])
        assert np.all(np.isnan(rows[:, :2])) and np.all(np.isfinite(rows[:, 2]))
        assert np.isnan(cos_out[0]) and np.isnan(sin_out[0]) and np.isfinite(cos_out[1])

    def test_aperture_beyond_the_exact_reduction_range_is_refused(self):
        ArrayGeometry(np.array([MAX_ELEMENT_REACH, 0.0]), np.zeros(2))
        beyond = np.nextafter(MAX_ELEMENT_REACH, np.inf)
        with pytest.raises(ValueError, match=f"within {MAX_ELEMENT_REACH:g} wavelengths"):
            ArrayGeometry(np.array([beyond, 0.0]), np.zeros(2))
        with pytest.raises(ValueError, match=f"within {MAX_ELEMENT_REACH:g} wavelengths"):
            ArrayGeometry(np.zeros(2), np.array([0.0, -beyond]))
        with pytest.raises(ValueError, match=f"within {MAX_ELEMENT_REACH:g} wavelengths"):
            ArrayGeometry.uca(12, radius=2 * MAX_ELEMENT_REACH)


class TestSourceSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            SourceSet(np.array([0.0, 360.0]), np.array([10.0, 20.0]))
        with pytest.raises(ValueError):
            SourceSet(np.array([0.0]), np.array([91.0]))
        with pytest.raises(ValueError):
            SourceSet(np.array([5.0, 5.0]), np.array([10.0, 10.0]))
        with pytest.raises(ValueError):
            SourceSet(np.array([5.0]), np.array([10.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="the same length"):
            SourceSet(np.array([5.0, 50.0]), np.array([10.0]))
        # NaN compares false with every bound, and an infinite power breaks the covariance
        for az, el, power in ((np.nan, 10.0, 1.0), (5.0, np.nan, 1.0), (5.0, 10.0, np.nan), (5.0, 10.0, np.inf)):
            with pytest.raises(ValueError):
                SourceSet(np.array([az]), np.array([el]), np.array([power]))

    def test_default_unit_powers(self):
        sources = SourceSet(np.array([10.0, 20.0]), np.array([30.0, 40.0]))
        np.testing.assert_array_equal(sources.power, [1.0, 1.0])

    def test_compares_and_hashes_by_value(self):
        az, el = np.array([10.0, 20.0]), np.array([30.0, 40.0])
        sources, weighted = SourceSet(az, el), SourceSet(az.copy(), el.copy(), np.ones(2))
        assert sources == weighted and hash(sources) == hash(weighted)
        assert {sources: "first"}[weighted] == "first"
        for index in range(2):
            for changed in range(3):
                values = [az.copy(), el.copy(), np.ones(2)]
                values[changed][index] += 0.5
                other = SourceSet(*values)
                assert other != sources and len({sources, other}) == 2


class TestSynthesize:
    def test_sources_steering_built_once_for_equal_inputs(self, steering_matrix_calls):
        # geometry and sources rebuilt for every draw, as a traced benchmark trial rebuilds them
        draws = [
            synthesize_snapshots(ArrayGeometry.uca(12), SourceSet([10.0, 200.0], [30.0, 60.0]), 5.0, 16, rng_seed=seed)
            for seed in range(3)
        ]
        assert len(steering_matrix_calls) == 1 and _source_steering.cache_info().hits == 2
        held = _source_steering(ArrayGeometry.uca(12), SourceSet([10.0, 200.0], [30.0, 60.0]))
        with pytest.raises(ValueError):
            held[0, 0] = 0.0
        assert not np.array_equal(draws[0], draws[1])

    def test_noiseless_single_source_rank_one(self):
        geom = ArrayGeometry.uca(6)
        sources = SourceSet(np.array([123.0]), np.array([41.0]))
        snapshots = synthesize_snapshots(geom, sources, np.inf, 32, rng_seed=5)
        a = steering_vector(geom, np.deg2rad(123.0), np.deg2rad(41.0))
        # each column is a scalar multiple of the steering vector
        coeff = a.conj() @ snapshots / (a.conj() @ a)
        np.testing.assert_allclose(snapshots, a[:, None] * coeff[None, :], atol=1e-12)

    def test_deterministic_in_seed(self, uca12, truth_sources):
        first = synthesize_snapshots(uca12, truth_sources, 5.0, 64, rng_seed=99)
        second = synthesize_snapshots(uca12, truth_sources, 5.0, 64, rng_seed=99)
        np.testing.assert_array_equal(first, second)
        assert not np.array_equal(first, synthesize_snapshots(uca12, truth_sources, 5.0, 64, rng_seed=100))

    def test_pure_noise_covariance_scale(self, uca12, truth_sources):
        # zero signal: R converges to the unit-variance identity
        snapshots = synthesize_snapshots(uca12, truth_sources, -np.inf, 100_000, rng_seed=1)
        cov = sample_covariance(snapshots)
        assert abs(np.trace(cov).real / uca12.num_elements - 1.0) < 0.05

    def test_snr_sets_signal_to_noise_ratio(self, uca12):
        # single source at 10 dB: per-element signal power ~ 10x noise power
        sources = SourceSet(np.array([80.0]), np.array([45.0]))
        snapshots = synthesize_snapshots(uca12, sources, 10.0, 50_000, rng_seed=2)
        total_power = np.mean(np.abs(snapshots) ** 2)
        assert abs(total_power - 11.0) / 11.0 < 0.05

    def test_rejects_too_many_sources(self):
        geom = ArrayGeometry.uca(3)
        sources = SourceSet(np.array([0.0, 10.0, 20.0]), np.array([5.0, 15.0, 25.0]))
        with pytest.raises(ValueError):
            synthesize_snapshots(geom, sources, 0.0, 8, rng_seed=0)
        with pytest.raises(ValueError):
            synthesize_snapshots(ArrayGeometry.uca(8), sources, 0.0, 0, rng_seed=0)

    def test_rejects_nan_snr(self, uca12, truth_sources):
        with pytest.raises(ValueError):
            synthesize_snapshots(uca12, truth_sources, np.nan, 8, rng_seed=0)


class TestSampleCovariance:
    def test_single_column_rank_one(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
        cov = sample_covariance(x)
        np.testing.assert_allclose(cov, x @ x.conj().T, atol=1e-14)
        assert np.linalg.matrix_rank(cov) == 1

    def test_matches_outer_product_sum(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
        manual = sum(np.outer(x[:, t], x[:, t].conj()) for t in range(7)) / 7
        np.testing.assert_allclose(sample_covariance(x), manual, atol=1e-13)

    def test_trace_identity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 20)) + 1j * rng.standard_normal((6, 20))
        cov = sample_covariance(x)
        np.testing.assert_allclose(np.trace(cov).real, np.sum(np.abs(x) ** 2) / 20, rtol=1e-12)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="2-D matrix"):
            sample_covariance(np.ones(5, dtype=complex))

    def test_exactly_hermitian_and_psd(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        cov = sample_covariance(x)
        np.testing.assert_array_equal(cov, cov.conj().T)
        assert np.min(np.linalg.eigvalsh(cov)) > -1e-12


def random_psd(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return sample_covariance(a)


class TestSubspaceSplit:
    def test_diagonal_case(self):
        split = subspace_split(np.diag([3.0, 2.0, 1.0]), 1)
        np.testing.assert_allclose(split.signal_eigenvalues, [3.0])
        np.testing.assert_allclose(split.noise_eigenvalues, [2.0, 1.0])
        np.testing.assert_allclose(np.abs(split.signal_basis[:, 0]), [1.0, 0.0, 0.0], atol=1e-14)
        assert not split.degenerate_gap

    def test_identity_is_degenerate_but_valid(self):
        split = subspace_split(np.eye(4), 2)
        assert split.degenerate_gap
        np.testing.assert_allclose(split.signal_basis.conj().T @ split.signal_basis, np.eye(2), atol=1e-10)
        recon = (
            split.signal_basis * split.signal_eigenvalues @ split.signal_basis.conj().T
            + split.noise_basis * split.noise_eigenvalues @ split.noise_basis.conj().T
        )
        np.testing.assert_allclose(recon, np.eye(4), atol=1e-10)

    def test_noiseless_single_source_signal_span(self, uca12):
        sources = SourceSet(np.array([200.0]), np.array([30.0]))
        snapshots = synthesize_snapshots(uca12, sources, np.inf, 50, rng_seed=4)
        split = subspace_split(sample_covariance(snapshots), 1)
        a = steering_vector(uca12, np.deg2rad(200.0), np.deg2rad(30.0))
        projected = a.conj() @ split.signal_basis @ split.signal_basis.conj().T @ a
        assert abs(projected - uca12.num_elements) < 1e-8

    def test_random_psd_properties(self):
        # invariants over >= 100 random PSD inputs
        rng = np.random.default_rng(5)
        for trial in range(100):
            dim = int(rng.integers(3, 13))
            num_sources = int(rng.integers(1, dim))
            cov = random_psd(rng, dim)
            split = subspace_split(cov, num_sources)
            num_noise = dim - num_sources
            np.testing.assert_allclose(
                split.signal_basis.conj().T @ split.signal_basis, np.eye(num_sources), atol=1e-10
            )
            np.testing.assert_allclose(split.noise_basis.conj().T @ split.noise_basis, np.eye(num_noise), atol=1e-10)
            assert np.max(np.abs(split.signal_basis.conj().T @ split.noise_basis)) < 1e-10
            assert split.signal_eigenvalues.min() >= split.noise_eigenvalues.max() - 1e-12
            recon = (
                split.signal_basis * split.signal_eigenvalues @ split.signal_basis.conj().T
                + split.noise_basis * split.noise_eigenvalues @ split.noise_basis.conj().T
            )
            assert np.linalg.norm(recon - cov) < 1e-10

    def test_noiseless_sources_orthogonal_to_noise_subspace(self, uca12, truth_sources, noiseless_projector):
        for azimuth, elevation in zip(truth_sources.azimuth_deg, truth_sources.elevation_deg):
            a = steering_vector(uca12, np.deg2rad(azimuth), np.deg2rad(elevation))
            assert (a.conj() @ noiseless_projector.matrix @ a).real < 1e-8

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            subspace_split(np.eye(4), 4)
        with pytest.raises(ValueError):
            subspace_split(np.eye(4), 0)
        with pytest.raises(ValueError):
            subspace_split(np.ones((3, 4)), 1)
