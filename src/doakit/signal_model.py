"""Synthetic narrowband array snapshots and covariance subspace tools.

Implements the standard far-field model X(t) = A s(t) + n(t) for planar
arrays (uniform circular array by default), the sample covariance
estimate R = (1/T) X X^H, and its signal/noise eigen-split, which is the
input to subspace DOA estimators.

Angle conventions: azimuth measured in the array plane, elevation
measured from zenith (elevation 0 points along the array normal, pi/2
lies in the array plane). Geometry-level operations (steering vectors and
matrices) use radians; source descriptions and everything downstream of
them, the MUSIC spectrum included, use degrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

# Eigenvalue gap below which the signal/noise split is ambiguous and the
# result is flagged (never silently guessed).
EIGEN_GAP_TOL = 1e-12

__all__ = [
    "ArrayGeometry",
    "SourceSet",
    "SubspaceSplit",
    "steering_vector",
    "steering_rows",
    "steering_matrix",
    "synthesize_snapshots",
    "sample_covariance",
    "subspace_split",
]


def _read_only_floats(values) -> np.ndarray:
    """A read-only float copy of ``values``, at least 1-D."""
    array = np.array(values, dtype=float, ndmin=1)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class ArrayGeometry:
    """Planar antenna array, element positions in meters.

    ``mirrored_elements`` is derived, not passed: M/2 when M is even and the
    trailing half of the elements is exactly the negation of the leading half
    (element m + M/2 is the point reflection of element m through the
    origin), else 0. A mirrored element's steering entry is the complex
    conjugate of its partner's. The position arrays are read-only copies, so a
    geometry shared between trials cannot be changed through them.
    """

    num_elements: int
    wavelength: float
    element_x: np.ndarray
    element_y: np.ndarray
    mirrored_elements: int = field(init=False)

    def __post_init__(self):
        if self.num_elements < 2:
            raise ValueError("array needs at least two elements")
        if not 0 < self.wavelength < np.inf:  # NaN fails too
            raise ValueError("wavelength must be positive and finite")
        object.__setattr__(self, "element_x", _read_only_floats(self.element_x))
        object.__setattr__(self, "element_y", _read_only_floats(self.element_y))
        if self.element_x.shape != (self.num_elements,) or self.element_y.shape != (self.num_elements,):
            raise ValueError("element positions must have exactly num_elements entries")
        if not (np.all(np.isfinite(self.element_x)) and np.all(np.isfinite(self.element_y))):
            raise ValueError("element positions must be finite")
        half = self.num_elements // 2
        point_symmetric = self.num_elements % 2 == 0 and all(
            np.array_equal(p[half:], -p[:half]) for p in (self.element_x, self.element_y)
        )
        object.__setattr__(self, "mirrored_elements", half if point_symmetric else 0)

    @classmethod
    def uca(cls, num_elements: int, wavelength: float = 1.0, radius: float | None = None) -> "ArrayGeometry":
        """Uniform circular array, elements at azimuths phi_m = 2*pi*m/M for
        m = 1..M; radius defaults to one wavelength.

        With radius equal to the wavelength the steering phase prefactor
        2*pi*radius/wavelength reduces to 2*pi. For even M the trailing half
        is set to the exact negation of the leading half (phi_m + pi), which
        moves it by at most an ulp and makes the array exactly point-symmetric.
        """
        if radius is None:
            radius = wavelength
        if not 0 < radius < np.inf:  # NaN fails too
            raise ValueError("radius (default: the wavelength) must be positive and finite")
        azimuths = TWO_PI * np.arange(1, num_elements + 1) / num_elements
        x, y = radius * np.cos(azimuths), radius * np.sin(azimuths)
        if num_elements % 2 == 0:
            half = num_elements // 2
            x[half:], y[half:] = -x[:half], -y[:half]
        return cls(num_elements, wavelength, x, y)


@dataclass(frozen=True)
class SourceSet:
    """Far-field narrowband sources: matched azimuth/elevation lists in degrees.

    Powers are relative weights (default all ones). The source count must stay
    below the element count of whatever array the set is used with, so that a
    noise subspace exists; that check happens at synthesis time. The arrays are
    read-only copies, as in ``ArrayGeometry``.
    """

    azimuth_deg: np.ndarray
    elevation_deg: np.ndarray
    power: np.ndarray | None = None

    def __post_init__(self):
        az = _read_only_floats(self.azimuth_deg)
        el = _read_only_floats(self.elevation_deg)
        object.__setattr__(self, "azimuth_deg", az)
        object.__setattr__(self, "elevation_deg", el)
        if az.ndim != 1 or az.shape != el.shape or len(az) < 1:
            raise ValueError("azimuth and elevation lists must be 1-D and the same length")
        # written as "not all inside" so that NaN is rejected too
        if not np.all((az >= 0.0) & (az < 360.0)):
            raise ValueError("azimuths must lie in [0, 360) degrees")
        if not np.all((el >= 0.0) & (el <= 90.0)):
            raise ValueError("elevations must lie in [0, 90] degrees")
        directions = {(float(a) if e else 0.0, float(e)) for a, e in zip(az, el)}
        if len(directions) != len(az):
            raise ValueError("sources must have distinct directions (every azimuth at elevation 0 is the zenith)")
        power = self.power
        if power is None:
            power = np.ones(len(az))
        power = _read_only_floats(power)
        if power.shape != az.shape or not np.all((power > 0) & np.isfinite(power)):
            raise ValueError("power must list one positive finite value per source")
        object.__setattr__(self, "power", power)

    @property
    def count(self) -> int:
        return len(self.azimuth_deg)


@dataclass(frozen=True)
class SubspaceSplit:
    """Signal/noise eigen-split of a covariance matrix.

    Eigenvalues are sorted descending; the top block spans the signal
    subspace. ``degenerate_gap`` is set when the eigenvalues on either side
    of the split are nearly equal, which makes the split ambiguous.
    """

    signal_basis: np.ndarray
    noise_basis: np.ndarray
    signal_eigenvalues: np.ndarray
    noise_eigenvalues: np.ndarray
    degenerate_gap: bool


def steering_rows(geom: ArrayGeometry, azimuths, elevations) -> np.ndarray:
    """Real rows [cos theta; sin theta] of the computed steering phases, one
    column per (azimuth, elevation) pair, shaped (2 * (M - h), n).

    Element m carries phase theta_m = -(2*pi/lam) * (x_m cos(az) + y_m sin(az)) * sin(el).
    Only the first M - h phases are computed, h being the geometry's
    ``mirrored_elements``: element M - h + m (m < h) carries phase -theta_m
    exactly, since its position is the exact negation of element m's. Angles
    in radians; no range validation here since the phase wraps naturally. The
    phases are built in the cosine half, with the sine half as scratch, so the
    result is the only array of its size made.
    """
    az = np.atleast_1d(np.asarray(azimuths, dtype=float))
    el = np.atleast_1d(np.asarray(elevations, dtype=float))
    computed = geom.num_elements - geom.mirrored_elements
    rows = np.empty((2, computed, len(az)))
    phase, scratch = rows
    np.multiply.outer(geom.element_x[:computed], np.cos(az), out=phase)
    np.multiply.outer(geom.element_y[:computed], np.sin(az), out=scratch)
    phase += scratch
    phase *= -TWO_PI / geom.wavelength
    phase *= np.sin(el)
    np.sin(phase, out=scratch)
    np.cos(phase, out=phase)
    return rows.reshape(2 * computed, len(az))


def steering_matrix(geom: ArrayGeometry, azimuths, elevations) -> np.ndarray:
    """Stack steering vectors as columns, one per (azimuth, elevation) pair.

    Element m responds with exp(1j * theta_m), theta_m as in ``steering_rows``.
    For a circular array this reduces to exp(-1j * (2*pi*r/lam) * cos(phi_m - az) * sin(el)).
    Angles in radians. The first M - h rows are cos + 1j sin of the computed
    phases; the last h rows are the conjugates of the first h, exactly. The
    MUSIC spectrum reads the real rows directly; synthesis uses this form.
    """
    rows = steering_rows(geom, azimuths, elevations)
    mirrored = geom.mirrored_elements
    computed = geom.num_elements - mirrored
    columns = np.empty((geom.num_elements, rows.shape[1]), dtype=complex)
    columns.real[:computed] = rows[:computed]
    columns.imag[:computed] = rows[computed:]
    np.conjugate(columns[:mirrored], out=columns[computed:])
    return columns


def steering_vector(geom: ArrayGeometry, azimuth: float, elevation: float) -> np.ndarray:
    """Unit-modulus array response for a plane wave from (azimuth, elevation).

    Angles in radians, azimuth in [0, 2*pi), elevation in [0, pi/2].
    Elevation 0 (zenith) gives the all-ones vector.
    """
    if not 0.0 <= azimuth < TWO_PI:
        raise ValueError(f"azimuth {azimuth!r} outside [0, 2*pi)")
    if not 0.0 <= elevation <= np.pi / 2.0:
        raise ValueError(f"elevation {elevation!r} outside [0, pi/2]")
    return steering_matrix(geom, [azimuth], [elevation])[:, 0]


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance circular complex Gaussian draws."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def synthesize_snapshots(
    geom: ArrayGeometry,
    sources: SourceSet,
    snr_db: float,
    num_snapshots: int,
    rng_seed: int,
) -> np.ndarray:
    """Simulate received snapshots X = A S + N, shape (num_elements, num_snapshots).

    Source symbols are i.i.d. circular complex Gaussian, independent across
    sources; noise is white circular complex Gaussian. The scale is gauged to
    unit noise variance: a source of configured power p carries per-element
    power p * 10^(snr_db/10), so for the default unit powers snr_db is exactly
    the per-element per-source SNR. The infinities are handled by zeroing the
    vanishing side: snr_db = +inf drops the noise (sources at power p),
    snr_db = -inf drops the signal (pure unit-variance noise).

    Deterministic in rng_seed: symbols are drawn first, then noise.
    """
    if num_snapshots < 1:
        raise ValueError("need at least one snapshot")
    if np.isnan(snr_db):
        raise ValueError("snr_db must not be NaN")
    if sources.count >= geom.num_elements:
        raise ValueError("source count must stay below the element count")
    rng = np.random.default_rng(rng_seed)
    if snr_db == np.inf:
        amplitude = np.sqrt(sources.power)
        noise_std = 0.0
    elif snr_db == -np.inf:
        amplitude = np.zeros(sources.count)
        noise_std = 1.0
    else:
        amplitude = np.sqrt(sources.power * 10.0 ** (snr_db / 10.0))
        noise_std = 1.0
    manifold = steering_matrix(geom, np.deg2rad(sources.azimuth_deg), np.deg2rad(sources.elevation_deg))
    symbols = amplitude[:, None] * _complex_normal(rng, (sources.count, num_snapshots))
    noise = noise_std * _complex_normal(rng, (geom.num_elements, num_snapshots))
    return manifold @ symbols + noise


def sample_covariance(snapshots: np.ndarray) -> np.ndarray:
    """Average outer product R = (1/T) X X^H, symmetrized to exact Hermitian."""
    x = np.asarray(snapshots)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("snapshots must be a 2-D matrix with at least one column")
    cov = x @ x.conj().T / x.shape[1]
    return (cov + cov.conj().T) / 2.0


def subspace_split(covariance: np.ndarray, num_sources: int) -> SubspaceSplit:
    """Eigendecompose a Hermitian covariance into signal and noise subspaces.

    The top num_sources eigenvectors (by descending eigenvalue, ties kept in
    solver order) form the signal basis, the remainder the noise basis.
    A near-zero gap between the bordering eigenvalues is reported through
    ``degenerate_gap`` rather than raised: the caller decides how to proceed.
    """
    cov = np.asarray(covariance)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be square")
    dim = cov.shape[0]
    if not 1 <= num_sources < dim:
        raise ValueError("num_sources must lie in [1, dim - 1]")
    eigenvalues, eigenvectors = np.linalg.eigh(cov)  # ascending
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]
    gap = eigenvalues[num_sources - 1] - eigenvalues[num_sources]
    return SubspaceSplit(
        signal_basis=eigenvectors[:, :num_sources],
        noise_basis=eigenvectors[:, num_sources:],
        signal_eigenvalues=eigenvalues[:num_sources],
        noise_eigenvalues=eigenvalues[num_sources:],
        degenerate_gap=bool(abs(gap) < EIGEN_GAP_TOL),
    )
