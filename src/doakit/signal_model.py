"""Synthetic narrowband array snapshots and covariance subspace tools.

Implements the standard far-field model X(t) = A s(t) + n(t) for planar
arrays (uniform circular array by default), the sample covariance
estimate R = (1/T) X X^H, and its signal/noise eigen-split, which is the
input to subspace DOA estimators.

Element positions and radii are in wavelengths, so there is no wavelength
to set. Angle conventions: azimuth measured in the array plane, elevation
measured from zenith (elevation 0 points along the array normal, pi/2
lies in the array plane). Geometry-level operations (steering vectors and
matrices) use radians; source descriptions and everything downstream of
them, the MUSIC spectrum included, use degrees.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from functools import lru_cache

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


# Table-driven cosine and sine of the steering phases (Tang, ACM TOMS 1989):
# theta = k * step + t with step = 2*pi/T, k the nearest whole step and
# |t| <= pi/T. The step is split Cody-Waite style (Cody & Waite 1980) into a
# high part of 28 significant bits, so k * _STEP_HI is exact while
# |k| < 2**25 and theta - k * _STEP_HI is exact by Sterbenz's lemma, and a
# low part within 1e-28 of the rest of the step.
_TABLE_SIZE = 4096
_STEP_HI_BITS = 28
_TWO_PI_DIGITS = "6.2831853071795864769252867665590057683943"
# Elements per pass of the kernel: each temporary holds 32 KB, below glibc's
# 128 KB mmap threshold, so the passes reuse heap memory instead of mapping it.
_CHUNK = 4096
# Adding 1.5 * 2**52 rounds a float of magnitude below 2**51 to an integer
# (ties to even, as np.rint) and leaves it, modulo 2**51, in the low bits.
_ROUNDER = 1.5 * 2.0**52
# |k| stays below 2**24, half the exact range, for elements within this many
# wavelengths of the origin, since |theta| <= 2*pi * |position|.
MAX_ELEMENT_REACH = 2.0 ** (52 - _STEP_HI_BITS) / _TABLE_SIZE


def _step_split_and_tables():
    """The split step and the tables cos(j * step), sin(j * step), j < T, read-only.

    One quadrant of sines is evaluated in long double and rounded once, so
    each entry is within an ulp of the true value; the other quadrants and
    the cosines follow by exact symmetry, so the quadrant points are exactly
    0 and +-1.
    """
    with decimal.localcontext() as context:
        context.prec = 50
        step = decimal.Decimal(_TWO_PI_DIGITS) / _TABLE_SIZE
        mantissa, exponent = math.frexp(float(step))
        step_hi = math.ldexp(round(math.ldexp(mantissa, _STEP_HI_BITS)), exponent - _STEP_HI_BITS)
        step_lo = float(step - decimal.Decimal(step_hi))
    quarter = _TABLE_SIZE // 4
    angles = np.arange(quarter + 1, dtype=np.longdouble) * (np.longdouble(_TWO_PI_DIGITS) / _TABLE_SIZE)
    sines = np.sin(angles).astype(float)
    cosines = np.concatenate([sines[quarter:0:-1], -sines[:quarter], -sines[quarter:0:-1], sines[:quarter]])
    return step_hi, step_lo, _read_only_floats(cosines), _read_only_floats(np.roll(cosines, quarter))


_STEP_HI, _STEP_LO, _COS_TABLE, _SIN_TABLE = _step_split_and_tables()
_STEPS_PER_RADIAN = _TABLE_SIZE / TWO_PI


@dataclass(frozen=True)
class ArrayGeometry:
    """Planar antenna array, element positions in wavelengths.

    ``num_elements`` and ``mirrored_elements`` are derived, not passed: M is
    the length of the position lists, and ``mirrored_elements`` is M/2 when M
    is even and the trailing half of the elements is exactly the negation of
    the leading half (element m + M/2 is the point reflection of element m
    through the origin), else 0. A mirrored element's steering entry is the
    complex conjugate of its partner's. The position arrays are read-only
    copies, so a geometry shared between trials cannot be changed through
    them. Geometries compare and hash by value, the positions by their bytes.
    """

    element_x: np.ndarray = field(compare=False)
    element_y: np.ndarray = field(compare=False)
    num_elements: int = field(init=False)
    mirrored_elements: int = field(init=False)
    _positions: bytes = field(init=False, repr=False)

    def __post_init__(self):
        x, y = _read_only_floats(self.element_x), _read_only_floats(self.element_y)
        if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
            raise ValueError("an array needs two 1-D position lists of equal length, at least two elements")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("element positions must be finite")
        if not np.max(np.hypot(x, y)) <= MAX_ELEMENT_REACH:
            raise ValueError(
                f"elements must lie within {MAX_ELEMENT_REACH:g} wavelengths of the origin, "
                "the range in which the steering phases are reduced exactly"
            )
        half = len(x) // 2
        point_symmetric = len(x) % 2 == 0 and all(np.array_equal(p[half:], -p[:half]) for p in (x, y))
        object.__setattr__(self, "element_x", x)
        object.__setattr__(self, "element_y", y)
        object.__setattr__(self, "num_elements", len(x))
        object.__setattr__(self, "mirrored_elements", half if point_symmetric else 0)
        object.__setattr__(self, "_positions", x.tobytes() + y.tobytes())

    @classmethod
    def uca(cls, num_elements: int, radius: float = 1.0) -> "ArrayGeometry":
        """Uniform circular array of ``radius`` wavelengths, elements at
        azimuths phi_m = 2*pi*m/M for m = 1..M.

        At the default radius of one wavelength the steering phase prefactor
        2*pi*radius is 2*pi. For even M the trailing half is set to the exact
        negation of the leading half (phi_m + pi), which moves it by at most
        an ulp and makes the array exactly point-symmetric.
        """
        if not 0 < radius < np.inf:  # NaN fails too
            raise ValueError("radius must be positive and finite")
        azimuths = TWO_PI * np.arange(1, num_elements + 1) / num_elements
        x, y = radius * np.cos(azimuths), radius * np.sin(azimuths)
        if num_elements % 2 == 0:
            half = num_elements // 2
            x[half:], y[half:] = -x[:half], -y[:half]
        return cls(x, y)


@dataclass(frozen=True)
class SourceSet:
    """Far-field narrowband sources: matched azimuth/elevation lists in degrees.

    Powers are relative weights (default all ones). The source count must stay
    below the element count of whatever array the set is used with, so that a
    noise subspace exists; that check happens at synthesis time. The arrays are
    read-only copies and compare by value, as in ``ArrayGeometry``. Every
    azimuth at elevation 0 is one direction, the zenith, held at azimuth 0.
    """

    azimuth_deg: np.ndarray = field(compare=False)
    elevation_deg: np.ndarray = field(compare=False)
    power: np.ndarray | None = field(default=None, compare=False)
    _values: bytes = field(init=False, repr=False)

    def __post_init__(self):
        az = _read_only_floats(self.azimuth_deg)
        el = _read_only_floats(self.elevation_deg)
        if az.ndim != 1 or az.shape != el.shape or len(az) < 1:
            raise ValueError("azimuth and elevation lists must be 1-D and the same length")
        # written as "not all inside" so that NaN is rejected too
        if not np.all((az >= 0.0) & (az < 360.0)):
            raise ValueError("azimuths must lie in [0, 360) degrees")
        if not np.all((el >= 0.0) & (el <= 90.0)):
            raise ValueError("elevations must lie in [0, 90] degrees")
        az = _read_only_floats(np.where(el == 0.0, 0.0, az))
        object.__setattr__(self, "azimuth_deg", az)
        object.__setattr__(self, "elevation_deg", el)
        if len(set(zip(az.tolist(), el.tolist()))) != len(az):
            raise ValueError("sources must have distinct directions (every azimuth at elevation 0 is the zenith)")
        power = _read_only_floats(np.ones(len(az)) if self.power is None else self.power)
        if power.shape != az.shape or not np.all((power > 0) & np.isfinite(power)):
            raise ValueError("power must list one positive finite value per source")
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "_values", az.tobytes() + el.tobytes() + power.tobytes())

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

    Element m carries phase theta_m = -2*pi * (x_m cos(az) + y_m sin(az)) * sin(el),
    x_m and y_m in wavelengths. Only the first M - h phases are computed, h
    being the geometry's ``mirrored_elements``: element M - h + m (m < h)
    carries phase -theta_m exactly, since its position is the exact negation
    of element m's. Angles in radians; no range validation here since the
    phase wraps naturally. The phases are built in the cosine half, with the
    sine half as scratch, so the result is the only array of its size made.

    The cosines and sines come from ``_cos_sin``: a 4096-entry table of
    cos and sin at multiples of 2*pi/4096, looked up at the nearest multiple
    and corrected by degree-4 and degree-5 polynomials in the remainder. It
    runs over the phases in chunks of 4096, so no temporary exceeds 32 KB,
    and each entry is within 1.11e-16 of the true cosine or sine of the
    computed phase: half an ulp of the table entry plus half an ulp of the
    result (libm: 5.6e-17; both measured on a million phases up to 2*pi*40
    in magnitude). A zero phase, the zenith, gives exactly 1 and 0; a NaN
    angle gives NaN rows.
    """
    az = np.atleast_1d(np.asarray(azimuths, dtype=float))
    el = np.atleast_1d(np.asarray(elevations, dtype=float))
    computed = geom.num_elements - geom.mirrored_elements
    rows = np.empty((2, computed, len(az)))
    phase, scratch = rows
    np.multiply.outer(geom.element_x[:computed], np.cos(az), out=phase)
    np.multiply.outer(geom.element_y[:computed], np.sin(az), out=scratch)
    phase += scratch
    phase *= -TWO_PI
    phase *= np.sin(el)
    flat = rows.reshape(2, -1)
    _cos_sin(flat[0], flat[0], flat[1])
    return rows.reshape(2 * computed, len(az))


def _cos_sin(phase: np.ndarray, cos_out: np.ndarray, sin_out: np.ndarray) -> None:
    """Write cos and sin of a 1-D float64 phase array into ``cos_out`` and
    ``sin_out``, which may be ``phase`` itself; see ``steering_rows``.

    theta = a + t with a = k * 2*pi/T the nearest table angle, so
    cos theta = cos a - (cos a (1 - cos t) + sin a sin t) and
    sin theta = sin a + (cos a sin t - sin a (1 - cos t)), each correction
    below 8e-4 in magnitude. The Taylor terms left out are below 3e-22 for
    |t| <= pi/T. Phases must stay below 2*pi * MAX_ELEMENT_REACH in magnitude
    (``ArrayGeometry`` ensures it); a NaN phase gives NaN, with no warning.
    """
    for start in range(0, len(phase), _CHUNK):
        part = slice(start, start + _CHUNK)
        theta = phase[part]
        # k = rint(theta / step), and k mod T from the low bits of the rounded sum
        shifted = theta * _STEPS_PER_RADIAN
        shifted += _ROUNDER
        k = shifted - _ROUNDER
        index = shifted.view(np.int64)
        index &= _TABLE_SIZE - 1
        # t = (theta - k * _STEP_HI) - k * _STEP_LO, the first difference exact
        t = k * _STEP_HI
        np.subtract(theta, t, out=t)
        k *= _STEP_LO
        t -= k
        t_squared = t * t
        one_minus_cos = t_squared * (-1.0 / 24.0)
        one_minus_cos += 0.5
        one_minus_cos *= t_squared
        sin_t = t_squared * (1.0 / 120.0)
        sin_t -= 1.0 / 6.0
        sin_t *= t_squared
        sin_t *= t
        sin_t += t
        cos_a = _COS_TABLE.take(index)
        sin_a = _SIN_TABLE.take(index)
        correction = cos_a * one_minus_cos
        correction += np.multiply(sin_a, sin_t, out=t)
        np.subtract(cos_a, correction, out=cos_out[part])
        cos_a *= sin_t
        cos_a -= np.multiply(sin_a, one_minus_cos, out=correction)
        np.add(sin_a, cos_a, out=sin_out[part])


def steering_matrix(geom: ArrayGeometry, azimuths, elevations) -> np.ndarray:
    """Stack steering vectors as columns, one per (azimuth, elevation) pair.

    Element m responds with exp(1j * theta_m), theta_m as in ``steering_rows``.
    For a circular array of radius r wavelengths this reduces to
    exp(-1j * 2*pi*r * cos(phi_m - az) * sin(el)).
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


@lru_cache(maxsize=1)
def _source_steering(geom: ArrayGeometry, sources: SourceSet) -> np.ndarray:
    """Read-only steering matrix of the latest (geometry, sources) pair, shared by a scenario's trials."""
    manifold = steering_matrix(geom, np.deg2rad(sources.azimuth_deg), np.deg2rad(sources.elevation_deg))
    manifold.flags.writeable = False
    return manifold


# numpy divides a complex array by a real scalar as a product with its reciprocal, so
# each part times this, not each part divided by sqrt(2), keeps the draws bit for bit
_SQRT_HALF = 1.0 / np.sqrt(2.0)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance circular complex Gaussian draws: bit for bit
    (standard_normal(shape) + 1j * standard_normal(shape)) / sqrt(2), the real
    parts drawn first, with both draws made as one block and scaled into one
    complex array."""
    draws = rng.standard_normal((2, *shape))
    values = np.empty(shape, dtype=complex)
    np.multiply(draws[0], _SQRT_HALF, out=values.real)
    np.multiply(draws[1], _SQRT_HALF, out=values.imag)
    return values


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
    symbols = amplitude[:, None] * _complex_normal(rng, (sources.count, num_snapshots))
    noise = noise_std * _complex_normal(rng, (geom.num_elements, num_snapshots))
    return _source_steering(geom, sources) @ symbols + noise


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
