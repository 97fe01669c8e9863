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
        geom = ArrayGeometry.uca(8, wavelength=2.0)
        np.testing.assert_allclose(np.hypot(geom.element_x, geom.element_y), 2.0)  # radius defaults to one wavelength
        # element m sits at azimuth 2*pi*m/M, m = 1..M; compared on the unit circle so 2*pi and 0 agree
        angles = np.arctan2(geom.element_y, geom.element_x)
        np.testing.assert_allclose(np.exp(1j * angles), np.exp(2j * np.pi * np.arange(1, 9) / 8))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ArrayGeometry.uca(1)
        with pytest.raises(ValueError):
            ArrayGeometry.uca(4, wavelength=0.0)
        with pytest.raises(ValueError):
            ArrayGeometry.uca(4, radius=-1.0)
        with pytest.raises(ValueError):
            ArrayGeometry.uca(4, radius=0.0)
        with pytest.raises(ValueError):
            ArrayGeometry(3, 1.0, np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_positions(self, bad):
        # a NaN or infinite position would turn every steering entry of its element into NaN
        with pytest.raises(ValueError):
            ArrayGeometry(3, 1.0, np.array([0.0, bad, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            ArrayGeometry(3, 1.0, np.zeros(3), np.array([0.0, 1.0, bad]))

    def test_positions_are_read_only_copies(self):
        # a geometry shared between trials cannot change under them, and freezing it leaves the caller's arrays alone
        x, y = np.array([0.0, 1.0, -1.0]), np.zeros(3)
        geom = ArrayGeometry(3, 1.0, x, y)
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
        assert ArrayGeometry(12, 1.0, geom.element_x[order], geom.element_y[order]).mirrored_elements == 0


class TestSteeringVector:
    def test_zenith_gives_all_ones(self):
        geom = ArrayGeometry.uca(6)
        np.testing.assert_allclose(steering_vector(geom, 1.234, 0.0), np.ones(6), atol=1e-12)

    def test_four_element_hand_case(self):
        # M=4, r = wavelength, azimuth 0, elevation pi/2: phases are
        # -2*pi*cos(2*pi*m/4), i.e. (0, 2*pi, 0, -2*pi) -> all ones after wrap
        geom = ArrayGeometry.uca(4, wavelength=1.0, radius=1.0)
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
            geom = ArrayGeometry.uca(num_elements, wavelength, radius)
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
        # general planar form: phase = -(2*pi/lam)(x cos(az) + y sin(az)) sin(el),
        # on a centered 2 x 3 half-wavelength grid
        gx, gy = np.meshgrid([-0.375, 0.375], [-0.75, 0.0, 0.75], indexing="ij")
        geom = ArrayGeometry(6, 1.5, gx.ravel(), gy.ravel())
        azimuth, elevation = 0.7, 0.9
        expected = np.exp(
            -1j
            * (2 * np.pi / 1.5)
            * (geom.element_x * np.cos(azimuth) + geom.element_y * np.sin(azimuth))
            * np.sin(elevation)
        )
        np.testing.assert_allclose(steering_vector(geom, azimuth, elevation), expected, atol=1e-12)


class TestSteeringMatrix:
    @pytest.mark.parametrize("geom", list(STEERING_GEOMETRIES.values()), ids=list(STEERING_GEOMETRIES))
    def test_matches_complex_exponential(self, geom):
        rng = np.random.default_rng(geom.num_elements)
        azimuths = np.concatenate([[1.234], rng.uniform(0.0, 2.0 * np.pi, 300)])
        elevations = np.concatenate([[0.0], rng.uniform(0.0, np.pi / 2.0, 300)])
        wavenumber = 2.0 * np.pi / geom.wavelength
        in_plane = np.outer(geom.element_x, np.cos(azimuths)) + np.outer(geom.element_y, np.sin(azimuths))
        expected = np.exp(-1j * wavenumber * in_plane * np.sin(elevations))
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
        # NaN compares false with every bound, and an infinite power breaks the covariance
        for az, el, power in ((np.nan, 10.0, 1.0), (5.0, np.nan, 1.0), (5.0, 10.0, np.nan), (5.0, 10.0, np.inf)):
            with pytest.raises(ValueError):
                SourceSet(np.array([az]), np.array([el]), np.array([power]))

    def test_default_unit_powers(self):
        sources = SourceSet(np.array([10.0, 20.0]), np.array([30.0, 40.0]))
        np.testing.assert_array_equal(sources.power, [1.0, 1.0])


class TestSynthesize:
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
