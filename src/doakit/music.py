"""2D-MUSIC pseudo-spectrum, exhaustive grid search, and the FLOP cost model.

The pseudo-spectrum height at a candidate direction is
1 / (a^H G a) with G the noise-subspace projector; peaks mark directions
whose steering vectors are nearly orthogonal to the noise subspace. With
U_s the L-column signal basis, G = I - U_s U_s^H and steering entries of unit
modulus give a^H G a = M - ||U_s^H a||^2 (Schmidt, IEEE TAP 1986). On a
point-symmetric array U_s^H a is a real-linear map of the M/2 computed
phases' cosines and sines (Huarng & Yeh, IEEE TSP 1991), so the spectrum
costs 2 * M * L real multiply-adds per direction instead of M^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .optimizer import Population
from .signal_model import ArrayGeometry, SubspaceSplit, steering_rows, TWO_PI

# Floor for the projected power a^H G a: keeps the spectrum finite at exact
# orthogonality (noiseless peaks) without disturbing peak ordering.
DENOMINATOR_FLOOR = 1e-12

__all__ = [
    "NoiseProjector",
    "noise_projector",
    "music_values",
    "spectrum_objective",
    "GridSpec",
    "evaluate_grid",
    "grid_maxima",
    "GridSearchResult",
    "grid_search",
    "FlopModel",
    "flops_music",
    "flops_population",
]


@dataclass(frozen=True)
class NoiseProjector:
    """The noise-subspace projector G = I - U_s U_s^H, held as its (M, L)
    orthonormal signal basis U_s: the cached objective kernel.

    ``projection`` is derived, not passed: the real (2L, 2k) matrix B with
    ||U_s^H a||^2 = ||B r||^2 for the real steering rows r = [cos theta;
    sin theta] of ``steering_rows``, k = M - h and h the geometry's
    ``mirrored_elements``. With c = conj(U_s), element k + m (m < h) carries
    the conjugate of element m's entry, so U_s^H a = P^T cos theta + Q^T sin theta
    with P_m = c_m + c_{k+m} and Q_m = i (c_m - c_{k+m}), the c_{k+m} terms
    counting only for m < h; B = [[Re P^T, Re Q^T], [Im P^T, Im Q^T]]. A
    direction then costs 4 k L real multiply-adds: 2 M L on an even circle,
    4 M L on an array with no mirrored elements.

    The M x M ``matrix`` is derived from the basis; the spectrum never forms
    it. A zero-column basis is the identity projector, whose spectrum is 1/M
    everywhere.
    """

    signal_basis: np.ndarray
    geometry: ArrayGeometry
    projection: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = self.signal_basis
        computed = self.geometry.num_elements - self.geometry.mirrored_elements
        head, tail = u[:computed], u[computed:]
        # P = conj(s) and Q = i conj(d) = conj(-i d), with s and d the element-wise sum
        # and difference of the mirrored pairs (just the computed rows with no pairs);
        # conjugation and the product by -i only move and negate parts, so each entry
        # is rounded once, as in the real sums and differences
        sums, diffs = (head + tail, head - tail) if len(tail) else (head, head)
        weights = np.concatenate((sums, -1j * diffs)).conj()
        # B^T = [[Re P, Im P], [Re Q, Im Q]], (2k, 2L), held row-major whatever the basis's
        # layout: BLAS can round B r differently for another layout of B, and the golden
        # digests pin this one
        transposed = np.empty((len(weights), 2 * u.shape[1]))
        projection = np.concatenate((weights.real, weights.imag), axis=1, out=transposed).T
        projection.flags.writeable = False
        object.__setattr__(self, "projection", projection)

    @property
    def matrix(self) -> np.ndarray:
        u = self.signal_basis
        return np.eye(u.shape[0]) - u @ u.conj().T


def noise_projector(split: SubspaceSplit, geometry: ArrayGeometry) -> NoiseProjector:
    """The noise projector of a subspace split, held as its signal basis."""
    return NoiseProjector(signal_basis=split.signal_basis, geometry=geometry)


def _steering_rows(geometry: ArrayGeometry, positions_deg) -> np.ndarray:
    """Real steering rows with one column per (azimuth_deg, elevation_deg) row.

    The one direction rule of the spectrum: azimuth wraps modulo 360
    degrees, elevation is clipped to [0, 90] to absorb floating-point
    overshoot from degree arithmetic.
    """
    pos = np.atleast_2d(positions_deg)
    az = np.mod(np.deg2rad(pos[:, 0], dtype=float), TWO_PI)
    el = np.minimum(np.maximum(np.deg2rad(pos[:, 1], dtype=float), 0.0), np.pi / 2.0)  # np.clip's values, in 2 calls
    return steering_rows(geometry, az, el)


def _spectrum(
    proj: NoiseProjector, rows: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """1 / max(a^H G a, floor) per column of real steering rows, with
    a^H G a = M - ||B r||^2. It lies in [0, M] since G is an orthogonal
    projector, so every height is at least 1/M (exactly 1/M when L = 0).

    B r holds the real parts of U_s^H a above the imaginary parts; the squares
    are summed as the complex form sums them, re^2 + im^2 per source, then over
    the sources, so the heights differ from it only by the rounding of B r.

    Every step writes in place: B r into the first n columns of ``work``, a
    (2L, >= n) float64 array, and the heights into ``out``, n float64 values,
    which is returned. Either one left out is allocated, so a caller with
    buffers and one without get the same heights bit for bit."""
    num_points = rows.shape[1]
    out = np.empty(num_points) if out is None else out
    work = np.empty((len(proj.projection), num_points)) if work is None else work
    captured = np.matmul(proj.projection, rows, out=work[:, :num_points])
    np.square(captured, out=captured)
    num_sources = len(captured) // 2
    captured[:num_sources] += captured[num_sources:]
    np.add.reduce(captured[:num_sources], axis=0, out=out)
    np.subtract(proj.geometry.num_elements, out, out=out)
    np.maximum(out, DENOMINATOR_FLOOR, out=out)
    return np.divide(1.0, out, out=out)


def music_values(proj: NoiseProjector, positions_deg) -> np.ndarray:
    """Pseudo-spectrum heights over (n, 2) rows of (azimuth_deg, elevation_deg)."""
    return _spectrum(proj, _steering_rows(proj.geometry, positions_deg))


def spectrum_objective(proj: NoiseProjector) -> Callable[[np.ndarray], np.ndarray]:
    """``music_values`` as a batched objective: fresh heights on each call, through a work buffer held between calls."""
    work = lru_cache(maxsize=1)(lambda num_points: np.empty((len(proj.projection), num_points)))

    def objective(positions_deg):
        rows = _steering_rows(proj.geometry, positions_deg)
        return _spectrum(proj, rows, np.empty(rows.shape[1]), work(rows.shape[1]))

    return objective


@dataclass(frozen=True)
class GridSpec:
    """Uniform search grid over azimuth [0, 360] x elevation [0, 90] degrees,
    endpoints inclusive on both axes.

    The default 1-degree grid has 361 * 91 = 32851 points. Azimuth is
    periodic: the 360-degree column samples the same directions as the
    0-degree column, so at least three azimuth columns (two distinct) and two
    elevation rows are required. A step that does not divide its span is
    rounded to a whole count: an elevation step of 4.0 gives 22 steps of
    90/22 degrees. ``ScenarioConfig`` refuses such steps.
    """

    azimuth_step: float = 1.0
    elevation_step: float = 1.0

    def __post_init__(self):
        # written as "not both positive" so that NaN is rejected too
        if not (self.azimuth_step > 0 and self.elevation_step > 0):
            raise ValueError("grid step must be positive")
        # a step so small that 360/step overflows or the point count leaves np.intp cannot be indexed
        if not (360.0 / self.azimuth_step + 1) * (90.0 / self.elevation_step + 1) < np.iinfo(np.intp).max:
            raise ValueError("grid step too small: the grid's point count does not fit an array index")
        if self.num_azimuth < 3 or self.num_elevation < 2:
            raise ValueError("grid needs at least two distinct azimuth columns and two elevation rows")

    @property
    def num_azimuth(self) -> int:
        return int(round(360.0 / self.azimuth_step)) + 1

    @property
    def num_elevation(self) -> int:
        return int(round(90.0 / self.elevation_step)) + 1

    @property
    def num_points(self) -> int:
        return self.num_azimuth * self.num_elevation

    def azimuth_values(self) -> np.ndarray:
        return np.linspace(0.0, 360.0, self.num_azimuth)

    def elevation_values(self) -> np.ndarray:
        return np.linspace(0.0, 90.0, self.num_elevation)


@lru_cache(maxsize=1)
def _grid_manifold(geometry: ArrayGeometry, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Read-only real steering rows r of every grid point, float64 (2k, J)
    with k = M - h computed phases per point, and the (J, 2) positions
    (azimuth, elevation) they were built from, in flat index order, built
    once for the latest (geometry, grid) pair.

    The grid's angles go through ``_steering_rows`` like any population, so
    the grid spectrum equals ``music_values`` bit for bit. The rows cost
    2k * J * 8 bytes, M * J * 8 on a point-symmetric array (3.2 MB for the
    1-degree grid at M = 12, 34 MB at M = 128; twice that with no mirrored
    elements), and building them makes no other array of their size.
    """
    az_mesh, el_mesh = np.meshgrid(spec.azimuth_values(), spec.elevation_values(), indexing="ij")
    positions = np.column_stack((az_mesh.ravel(), el_mesh.ravel()))
    manifold = _steering_rows(geometry, positions)
    manifold.flags.writeable = positions.flags.writeable = False
    return manifold, positions


# Target grid points per spectrum pass. ``evaluate_grid`` splits the J grid points into
# max(1, round(J / 8192)) passes of equal width, rounded up to a multiple of 16, so that
# no pass is a short remainder that pays a whole pass's fixed cost: the 1-degree grid's
# 32851 points run as 3 passes of 8224 and one of 8179. On one thread OpenBLAS rounds a
# product's trailing columns through a tail kernel, which moved the last bit of cells
# that widths such as 8213 left off a multiple of 16; now only the last pass ends there,
# as one ``music_values`` call does (smaller blocks can still move its last J mod 16
# cells, in the 360-degree column that ``grid_maxima`` drops). One (2L, width) work
# buffer per call (385 KB at L = 3) serves every pass, so the size trades the fixed cost
# of a pass's numpy calls against cache reuse: a pass at M = 12, L = 3 reads 770 KB of
# steering rows and writes the buffer, within a 2 MB L2 cache. On the grid-m12 benchmark
# 8192 ran faster than 2048, 4096 and 16384 (README "Cost model notes").
_GRID_BLOCK_COLUMNS = 8192


def evaluate_grid(proj: NoiseProjector, spec: GridSpec) -> np.ndarray:
    """Pseudo-spectrum at every grid point, shaped (num_azimuth,
    num_elevation): values[i, j] at (azimuth i, elevation j).

    The steering rows of the grid are built once per process for the latest
    (geometry, grid) pair; a trial pays only the projection, in equal passes
    of about ``_GRID_BLOCK_COLUMNS`` points, each written through one work
    buffer straight into the returned array. At the default pass width the
    heights equal one ``music_values`` call over every grid point.
    """
    rows = _grid_manifold(proj.geometry, spec)[0]
    num_points = rows.shape[1]
    passes = max(1, round(num_points / _GRID_BLOCK_COLUMNS))
    width = -(-num_points // passes // 16) * 16
    values = np.empty(num_points)
    work = np.empty((len(proj.projection), width))
    for start in range(0, num_points, width):
        stop = start + width
        _spectrum(proj, rows[:, start:stop], values[start:stop], work)
    return values.reshape(spec.num_azimuth, spec.num_elevation)


# Relative margin for strict dominance: spectrum values equal up to a few ulps
# (a flat spectrum region) must not register as local maxima.
_STRICT_MARGIN = 1e-12
# (row, column) offsets of a cell's eight neighbors
_NEIGHBOR_ROWS = np.array([-1, -1, -1, 0, 0, 1, 1, 1])
_NEIGHBOR_COLUMNS = np.array([-1, 0, 1, -1, 1, -1, 0, 1])


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Flat indices, ascending, of a grid spectrum's strict local maxima.

    Axis 0 (azimuth) is periodic: its first and last rows are neighbors.
    Axis 1 (elevation) is not: a neighbor past its edge counts as -inf, so
    edge cells compare only their real neighbors. Strictness carries a
    relative margin so floating-point jitter on flat regions cannot
    fabricate peaks.

    Column 0 is the zenith, one direction repeated in every row, as the
    elevation-0 row of a grid is; at least one column lies beside it. Its
    cells tie with their azimuth neighbors, so the zenith counts as one
    point: a maximum when it is strictly above every cell of column 1, under
    the same margin, at row 0 alone. Column 1 still compares with it as a
    neighbor. Every other cell is a maximum when strictly above its eight
    neighbors.

    A strict maximum equals the maximum of its 3x3 block, so the block
    maximum is taken first, in whole contiguous passes, and only the cells
    equal to it are compared with their eight neighbors. The block maximum
    only narrows the candidates; that comparison decides.
    """
    num_elevation = values.shape[1]
    # 3-max along azimuth, wrapped, over whole rows
    rows = np.empty_like(values)
    np.maximum(values[:-1], values[1:], out=rows[1:])
    np.maximum(values[-1], values[0], out=rows[0])
    np.maximum(rows[:-1], values[1:], out=rows[:-1])
    np.maximum(rows[-1], values[0], out=rows[-1])
    # 3-max along elevation on the flat array, which runs across the ends of
    # the rows; the last elevation column is then redone without
    flat_rows = rows.ravel()
    block = np.empty_like(flat_rows)
    np.maximum(flat_rows[:-1], flat_rows[1:], out=block[1:])
    block[0] = flat_rows[0]
    np.maximum(block[:-1], flat_rows[1:], out=block[:-1])
    block = block.reshape(values.shape)
    block[:, 0] = np.inf  # no zenith cell equals it, so none becomes a candidate
    np.maximum(rows[:, -1], rows[:, -2], out=block[:, -1])

    candidates = np.flatnonzero(values == block)
    # each candidate against its eight neighbors: azimuth wraps, and a
    # neighbor past an elevation edge reads as -inf
    row, column = np.divmod(candidates, num_elevation)
    neighbor_rows = (row[:, None] + _NEIGHBOR_ROWS) % len(values)
    neighbor_columns = column[:, None] + _NEIGHBOR_COLUMNS
    inside = (neighbor_columns >= 0) & (neighbor_columns < num_elevation)
    # the modulo only keeps a column past an edge in range; ``inside`` masks what it reads there
    neighbors = np.where(inside, values[neighbor_rows, neighbor_columns % num_elevation], -np.inf)
    neighbor_max = neighbors.max(axis=1)
    strict = values[row, column] > neighbor_max + np.abs(neighbor_max) * _STRICT_MARGIN
    if values[0, 0] > (ring_max := values[:, 1].max()) + abs(ring_max) * _STRICT_MARGIN:
        return np.concatenate(([0], candidates[strict]))  # flat index 0 precedes every candidate
    return candidates[strict]


def grid_maxima(proj: NoiseProjector, spec: GridSpec) -> Population:
    """Every peak of the exhaustive grid evaluation, by ``_local_maxima``: a
    point strictly above its eight neighbors, azimuth wrapping at 360
    degrees, and the zenith one point, at azimuth 0. Positions are (azimuth,
    elevation), fitness their heights, in ascending flat index: by azimuth,
    then elevation."""
    # the 360-degree column repeats the 0-degree one; the peak search wraps azimuth instead
    values = evaluate_grid(proj, spec)[:-1]
    peaks = _local_maxima(values)
    return Population(_grid_manifold(proj.geometry, spec)[1][peaks], values.ravel()[peaks])


@dataclass(frozen=True)
class GridSearchResult:
    """Top peaks of a grid evaluation, sorted by value descending.

    ``shortfall`` is set when the spectrum exposes fewer strict local maxima
    than requested; callers must treat the result as a partial answer.
    """

    azimuth_deg: np.ndarray
    elevation_deg: np.ndarray
    values: np.ndarray
    shortfall: bool
    num_evaluations: int


def grid_search(proj: NoiseProjector, spec: GridSpec, num_sources: int) -> GridSearchResult:
    """The num_sources highest of ``grid_maxima``, ordered by value
    descending, then flat index: azimuth, then elevation."""
    if num_sources < 1:
        raise ValueError("num_sources must be positive")
    maxima = grid_maxima(proj, spec)
    top = np.argsort(-maxima.fitness, kind="stable")[:num_sources]
    azimuth, elevation = maxima.positions[top].T
    return GridSearchResult(azimuth, elevation, maxima.fitness[top], len(maxima) < num_sources, spec.num_points)


@dataclass(frozen=True)
class FlopModel:
    """Parameters of the closed-form cost model.

    ``grid_points`` is the number of spectrum samples of the exhaustive
    search; ``population_size`` and ``max_iterations`` drive the
    population-based alternative. Both models share the subspace
    decomposition term sensors^2 * (sources + 2).
    """

    num_sensors: int
    num_sources: int
    grid_points: int = 361 * 91
    population_size: int = 256
    max_iterations: int = 20

    def __post_init__(self):
        if min(self.num_sensors, self.num_sources, self.grid_points, self.population_size) <= 0 or self.max_iterations < 0:
            raise ValueError("cost-model counts must be positive (max_iterations may be 0)")
        if self.num_sources >= self.num_sensors:
            raise ValueError("num_sources must stay below num_sensors")


def flops_music(model: FlopModel) -> float:
    """Grid-search cost: M^2 (L+2) + J (M+1)(M-L) floating-point operations.
    This is the paper's formula; the code pays 4 (M - h) L real multiply-adds
    per grid point (``_spectrum``), h the array's mirrored elements: 2 M L on
    an even circle. It builds the grid's steering rows, one table-driven
    cosine and sine pair per computed entry (``steering_rows``), once per
    process."""
    m, l, j = model.num_sensors, model.num_sources, model.grid_points
    return float(m * m * (l + 2) + j * (m + 1) * (m - l))


def flops_population(model: FlopModel) -> float:
    """Population-search cost M^2 (L+2) + I * N * ((M+1)(M-L) + (N-1)) FLOPs:
    I iterations of an N-individual population each pay one spectrum
    evaluation per individual plus the pairwise-distance bookkeeping N(N-1).
    This is the paper's formula; it leaves out the initial population's N
    evaluations, so a run's measured_evals is (I+1) N, not I N. Each
    evaluation costs the code M - h cosine and sine pairs plus 4 (M - h) L
    real multiply-adds, h the array's mirrored elements: M/2 pairs and
    2 M L multiply-adds on an even circle, against the (M+1)(M-L) charged
    here. A pair is a lookup in a 4096-entry table plus degree-4 and
    degree-5 polynomials (``steering_rows``): 17.7 ns per steering entry at
    M = 128 and 30.0 ns at M = 12, against 39.0 and 29.5 ns with libm's cos
    and sin. A generation's neighbour search, charged N (N-1) distances, pays
    N (W/2 + 1), each window pair once (W = 6 floor(sqrt N)), a sort of each
    row of W + 1 keys, N more per unproven row, and per tied row a float64 sort
    of its m + 2 listed points, or of all N if the tie reaches the cut (README)."""
    m, l = model.num_sensors, model.num_sources
    n, iters = model.population_size, model.max_iterations
    return float(m * m * (l + 2) + iters * n * ((m + 1) * (m - l) + (n - 1)))
