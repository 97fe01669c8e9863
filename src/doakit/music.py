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
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .optimizer import DEConfig, Population
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


def _captured_power(projection: np.ndarray, rows: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """||B r||^2 = ||U_s^H a||^2, the power the signal basis captures, per column of real steering rows,
    for B the ``projection`` of a ``NoiseProjector`` or its float32 copy, in the precision of B and the rows.

    B r holds the real parts of U_s^H a above the imaginary parts; the squares
    are summed as the complex form sums them, re^2 + im^2 per source, then over
    the sources, so the power differs from it only by the rounding of B r.

    Every step writes in place: B r into the first n columns of ``work``, a
    (2L, >= n) array, and the powers into ``out``, n values, which is returned."""
    num_points = rows.shape[1]
    captured = np.matmul(projection, rows, out=work[:, :num_points])
    np.square(captured, out=captured)
    num_sources = len(captured) // 2
    captured[:num_sources] += captured[num_sources:]
    return np.add.reduce(captured[:num_sources], axis=0, out=out)


def _heights(num_elements: int, power: np.ndarray) -> np.ndarray:
    """The height map 1 / max(M - p, floor) of captured powers, over ``power``, which is returned.
    Each step rounds monotonically, so a height never falls as the power rises."""
    np.subtract(num_elements, power, out=power)
    np.maximum(power, DENOMINATOR_FLOOR, out=power)
    return np.divide(1.0, power, out=power)


def music_values(proj: NoiseProjector, positions_deg) -> np.ndarray:
    """The height map of the captured power over (n, 2) rows of (azimuth_deg, elevation_deg), in a fresh array."""
    rows = _steering_rows(proj.geometry, positions_deg)
    projection = proj.projection
    power = _captured_power(projection, rows, np.empty(rows.shape[1]), np.empty((len(projection), rows.shape[1])))
    return _heights(proj.geometry.num_elements, power)


def spectrum_objective(proj: NoiseProjector) -> Callable[[np.ndarray], np.ndarray]:
    """The spectrum as a batched objective: ``music_values`` of the projector."""
    return partial(music_values, proj)


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
def _grid_manifold(geometry: ArrayGeometry, spec: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only real steering rows r of every grid point, float64 (2k, J)
    with k = M - h computed phases per point, the (J, 2) positions
    (azimuth, elevation) they were built from, in flat index order, and the
    rows rounded to float32, built once for the latest (geometry, grid) pair.

    The grid's angles go through ``_steering_rows`` like any population, so
    the grid spectrum equals ``music_values`` bit for bit. The float64 rows
    cost 2k * J * 8 bytes, M * J * 8 on a point-symmetric array, and the
    float32 rows half that: 3.2 + 1.6 MB for the 1-degree grid at M = 12,
    34 + 17 MB at M = 128, twice both with no mirrored elements. Building
    them makes no other array of the float64 rows' size.
    """
    az_mesh, el_mesh = np.meshgrid(spec.azimuth_values(), spec.elevation_values(), indexing="ij")
    positions = np.column_stack((az_mesh.ravel(), el_mesh.ravel()))
    manifold = _steering_rows(geometry, positions)
    manifold32 = manifold.astype(np.float32)
    manifold.flags.writeable = positions.flags.writeable = manifold32.flags.writeable = False
    return manifold, positions, manifold32


# Target grid points per spectrum pass. ``_grid_power`` splits the J grid points into
# max(1, round(J / 8192)) passes of equal width, rounded up to a multiple of 16, so that
# no pass is a short remainder that pays a whole pass's fixed cost: the 1-degree grid's
# 32851 points run as 3 passes of 8224 and one of 8179. On one thread OpenBLAS rounds a
# product's trailing columns through a tail kernel, which moved the last bit of cells
# that widths such as 8213 left off a multiple of 16; now only the last pass ends there,
# as one ``music_values`` call does (smaller blocks can still move its last J mod 16
# cells, in the 360-degree column that ``grid_maxima`` drops). One (2L, width) work
# buffer per call (385 KB at L = 3 in float64) serves every pass, so the size trades the
# fixed cost of a pass's numpy calls against cache reuse: a float64 pass at M = 12, L = 3
# reads 770 KB of steering rows and writes the buffer, within a 2 MB L2 cache, and a
# float32 pass of the same width half that. On the grid-m12 benchmark 8192 ran faster
# than 2048, 4096 and 16384 (README "Cost model notes"), and it still beats 16384 with
# float32 passes, whose 16384 columns read the same 770 KB: trial_ms_p50 0.620 against
# 0.875 ms, lower in 10 of 10 pairs. One float32 product over 16432 columns took 118 us
# against 11.6 us over 8224; past 12000 to 14000 columns OpenBLAS ran about five times
# slower per column, in float32 and float64 alike (one thread, 2-vCPU Xeon).
_GRID_BLOCK_COLUMNS = 8192


def _grid_power(projection: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Captured power of every column of the grid's steering rows, flat, in
    the precision of the rows and of ``projection``, which match: float32 for
    the screen of ``grid_maxima``, within ``_power_error_bound`` of float64,
    and float64 for ``evaluate_grid``. It runs in equal passes of about
    ``_GRID_BLOCK_COLUMNS`` points, each written through one work buffer
    straight into the returned array."""
    num_points = rows.shape[1]
    passes = max(1, round(num_points / _GRID_BLOCK_COLUMNS))
    width = -(-num_points // passes // 16) * 16
    power = np.empty(num_points, rows.dtype)
    work = np.empty((len(projection), width), rows.dtype)
    for start in range(0, num_points, width):
        stop = start + width
        _captured_power(projection, rows[:, start:stop], power[start:stop], work)
    return power


def evaluate_grid(proj: NoiseProjector, spec: GridSpec) -> np.ndarray:
    """Pseudo-spectrum at every grid point, shaped (num_azimuth,
    num_elevation): values[i, j] at (azimuth i, elevation j), the height map
    of the float64 ``_grid_power`` in place. At the default pass width the
    heights equal one ``music_values`` call over every grid point."""
    power = _grid_power(proj.projection, _grid_manifold(proj.geometry, spec)[0])
    return _heights(proj.geometry.num_elements, power.reshape(spec.num_azimuth, spec.num_elevation))


# Unit roundoff of float32 and of float64
_UNIT_ROUNDOFF = (2.0**-24, 2.0**-53)


def _power_error_bound(projection: np.ndarray) -> float:
    """A bound b on |p32 - p64|, the distance between a grid point's captured
    power in the float32 and in the float64 passes, for the float64 projection B.

    Let B be (2L, n), n = 2k, r a float64 steering column and y = B r exactly, so that
    p = ||y||^2. Each r_j is a cosine or sine within 1.11e-16 of the true one
    (``steering_rows``), so |r_j| <= 1 and |y_i| <= s_i = sum_j |B_ij|. With unit roundoff u
    and g_m = m u / (1 - m u) (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, section 3.1):
    - in float32, B and r are rounded first: B_ij (1 + a), r_j (1 + e), |a|, |e| <= u;
    - in any summation order, with or without fused multiply-adds, the computed y_i is
      within g_n sum_j |B_ij r_j| of the inner product of its inputs, so within
      c s_i of y_i, c = (1 + u)^2 g_n + 2u + u^2;
    - the power sums 2L squares, each rounded at most 2L times (its square, then at most
      2L - 1 additions), so it is within g_2L sum_i (s_i + c s_i)^2 = g_2L (1 + c)^2 S of
      the sum of the computed squares, S = sum_i s_i^2, which is within
      sum_i c s_i (2 s_i + c s_i) = c (2 + c) S of p.
    The float64 passes obey the same bound at u = 2^-53, with no input rounding, so b is
    the sum of the bound at both roundoffs. A rounding that underflows errs by at most
    2^-150 absolutely instead; a power takes fewer than 2^20 roundings, each reaching it
    through a factor below 2^30, so 2^-100 covers them all.
    """
    num_terms, num_squares = projection.shape[1], len(projection)
    sums = np.abs(projection).sum(axis=1)
    square_sum = float(sums @ sums)
    bound = 2.0**-100
    for u in _UNIT_ROUNDOFF:
        inner, squares = (m * u / (1.0 - m * u) for m in (num_terms, num_squares))
        c = (1.0 + u) ** 2 * inner + 2.0 * u + u * u
        bound += (c * (2.0 + c) + squares * (1.0 + c) ** 2) * square_sum
    return bound


def _screen_tolerance(projection: np.ndarray) -> float:
    """How far below its block's float32 maximum power a cell may lie and
    still be a float64 peak: 2.5 b / (1 - u)^2, b the ``_power_error_bound``.

    A true peak v is strictly above each neighbour q in float64 power, so
    p32_v >= p64_v - b > p64_q - b >= p32_q - 2b: within 2b of its block's float32
    maximum, and the zenith within 2b of the maximum of column 1. The screen compares
    with fl32(maximum - d) for d = fl32(t), d >= t (1 - u); the subtraction errs by at
    most u (S + b + d), S + b being at least every |p32|. So t >= (2b + u (S + b)) / (1 - u)^2
    keeps every true peak; as c >= 2u, b >= 4 u S, and 2.5 b is enough.
    """
    return 2.5 * _power_error_bound(projection) / (1.0 - _UNIT_ROUNDOFF[0]) ** 2


def _exact_power(projection: np.ndarray, rows: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Float64 captured power of the grid points at flat indices ``cells``, one or more,
    from their held rows, equal bit for bit to their values in the passes. A lone
    column goes in twice: numpy multiplies one column through gemv, which can round
    B r differently from gemm."""
    gathered = rows[:, cells if len(cells) > 1 else np.repeat(cells, 2)]
    num_points = gathered.shape[1]
    power = _captured_power(projection, gathered, np.empty(num_points), np.empty((len(projection), num_points)))
    return power[: len(cells)]


# Relative margin for strict dominance: spectrum values equal up to a few ulps
# (a flat spectrum region) must not register as local maxima.
_STRICT_MARGIN = 1e-12
# (row, column) offsets of a cell's eight neighbors
_NEIGHBOR_ROWS = np.array([-1, -1, -1, 0, 0, 1, 1, 1])
_NEIGHBOR_COLUMNS = np.array([-1, 0, 1, -1, 1, -1, 0, 1])


def _local_maxima(
    screen: np.ndarray,
    height: Callable[[np.ndarray], np.ndarray],
    tolerance: float = 0.0,
    exact: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices, ascending, and heights of the strict local maxima of a
    grid spectrum, given as powers and their non-decreasing height map.

    Axis 0 (azimuth) is periodic: its first and last rows are neighbors.
    Axis 1 (elevation) is not: a neighbor past its edge counts as -inf, so
    edge cells compare only their real neighbors. Strictness carries a
    relative margin on heights so floating-point jitter on flat regions
    cannot fabricate peaks.

    Column 0 is the zenith, one direction repeated in every row, as the
    elevation-0 row of a grid is; at least one column lies beside it. Its
    cells tie with their azimuth neighbors, so the zenith counts as one
    point: a maximum when it is strictly above every cell of column 1, under
    the same margin, at row 0 alone. Column 1 still compares with it as a
    neighbor. Every other cell is a maximum when strictly above its eight
    neighbors.

    ``exact`` gives the powers at flat indices; by default the ``screen``'s
    own. The ``screen`` may instead hold them to within ``tolerance`` / 2
    each (``_screen_tolerance``). A cell strictly above its neighbors in
    height is so in power, and so within ``tolerance`` of its 3x3 block's
    maximum screen power, taken first in whole contiguous passes; the zenith
    is screened so against column 1. The verdict reads the exact powers of
    the candidates, their neighbors and the zenith's, each cell once, in
    chunks of at most a pass's width, and maps only the candidates, the
    zenith and each one's largest neighbor power (column 1's for the zenith)
    to heights.
    """
    num_azimuth, num_elevation = screen.shape
    exact = screen.ravel().take if exact is None else exact
    # 3-max along azimuth, wrapped, over whole rows
    rows = np.empty_like(screen)
    np.maximum(screen[:-1], screen[1:], out=rows[1:])
    np.maximum(screen[-1], screen[0], out=rows[0])
    np.maximum(rows[:-1], screen[1:], out=rows[:-1])
    np.maximum(rows[-1], screen[0], out=rows[-1])
    # 3-max along elevation on the flat array, which runs across the ends of
    # the rows; the last elevation column is then redone without
    flat_rows = rows.ravel()
    block = np.empty_like(flat_rows)
    np.maximum(flat_rows[:-1], flat_rows[1:], out=block[1:])
    block[0] = flat_rows[0]
    np.maximum(block[:-1], flat_rows[1:], out=block[:-1])
    block = block.reshape(screen.shape)
    block[:, 0] = np.inf  # no zenith cell reaches it, so none becomes a candidate
    np.maximum(rows[:, -1], rows[:, -2], out=block[:, -1])
    np.subtract(block, tolerance, out=block)
    candidates = np.flatnonzero(screen >= block)
    ring = screen[:, 1]
    ring_floor = ring.max() - tolerance
    zenith = np.empty(0, np.intp)
    if screen[0, 0] >= ring_floor:
        # the zenith and the cells of column 1 that can hold that column's largest power
        zenith = np.concatenate(([0], np.flatnonzero(ring >= ring_floor) * num_elevation + 1))

    # exact powers of the cells read so far, and -inf past an elevation edge, at index num_cells
    num_cells = screen.size
    power = np.empty(num_cells + 1)
    power[num_cells] = -np.inf
    known = np.zeros(num_cells + 1, dtype=bool)
    known[num_cells] = True
    peaks, heights = [], []
    chunk = max(1, _GRID_BLOCK_COLUMNS // 9)  # each candidate reads at most 9 cells
    # at least one chunk, which reads the zenith's cells even with no candidate
    for start in range(0, max(len(candidates), 1), chunk):
        cells = candidates[start : start + chunk]
        # each candidate against its eight neighbors: azimuth wraps, and a
        # neighbor past an elevation edge reads as -inf
        row, column = np.divmod(cells, num_elevation)
        neighbor_columns = column[:, None] + _NEIGHBOR_COLUMNS
        neighbors = (row[:, None] + _NEIGHBOR_ROWS) % num_azimuth * num_elevation + neighbor_columns
        neighbors[(neighbor_columns < 0) | (neighbor_columns >= num_elevation)] = num_cells
        wanted = np.sort(np.concatenate((zenith, cells, neighbors.ravel())))
        new = ~known[wanted]
        new[1:] &= wanted[1:] != wanted[:-1]  # each cell once
        wanted = wanted[new]
        if len(wanted):
            power[wanted] = exact(wanted)
            known[wanted] = True
        both = np.concatenate((power[cells], power[neighbors].max(axis=1)))
        chunk_heights, neighbor_max = height(both).reshape(2, -1)
        strict = chunk_heights > neighbor_max + np.abs(neighbor_max) * _STRICT_MARGIN
        peaks.append(cells[strict])
        heights.append(chunk_heights[strict])
    if len(zenith):
        # flat index 0 precedes every candidate
        zenith_height, ring_max = height(np.array([power[0], power[zenith[1:]].max()]))
        if zenith_height > ring_max + abs(ring_max) * _STRICT_MARGIN:
            peaks.insert(0, [0])
            heights.insert(0, [zenith_height])
    return np.concatenate(peaks), np.concatenate(heights)


def grid_maxima(proj: NoiseProjector, spec: GridSpec) -> Population:
    """Every peak of ``evaluate_grid``'s spectrum, by ``_local_maxima``: a
    point strictly above its eight neighbors, azimuth wrapping at 360
    degrees, and the zenith one point, at azimuth 0. The float32 passes
    screen the grid's power; the float64 powers of the candidates and their
    neighbors decide, so positions and heights equal ``evaluate_grid``'s.
    Positions are (azimuth, elevation), fitness their heights, in ascending
    flat index: by azimuth, then elevation."""
    rows, positions, rows32 = _grid_manifold(proj.geometry, spec)
    projection = proj.projection
    screen = _grid_power(projection.astype(np.float32), rows32).reshape(spec.num_azimuth, spec.num_elevation)
    # the 360-degree column repeats the 0-degree one; the peak search wraps azimuth instead
    peaks, heights = _local_maxima(
        screen[:-1],
        partial(_heights, proj.geometry.num_elements),
        _screen_tolerance(projection),
        partial(_exact_power, projection, rows),
    )
    return Population(positions[peaks], heights)


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
    grid_points: int = GridSpec().num_points
    population_size: int = DEConfig.population_size
    max_iterations: int = DEConfig.max_iterations

    def __post_init__(self):
        if min(self.num_sensors, self.num_sources, self.grid_points, self.population_size) <= 0 or self.max_iterations < 0:
            raise ValueError("cost-model counts must be positive (max_iterations may be 0)")
        if self.num_sources >= self.num_sensors:
            raise ValueError("num_sources must stay below num_sensors")


def flops_music(model: FlopModel) -> float:
    """Grid-search cost: M^2 (L+2) + J (M+1)(M-L) floating-point operations.
    This is the paper's formula; the code pays 4 (M - h) L real multiply-adds
    per grid point (``_captured_power``), h the array's mirrored elements:
    2 M L on an even circle. ``grid_maxima`` pays them in float32 at every
    point, to screen for peaks within a rigorous error bound, and again in
    float64 at about 9 points per candidate, the candidate and its eight
    neighbours (about 14 candidates and 114 points per 1-degree spectrum at
    M = 12); the height map runs only where the peak test reads. It builds
    the grid's steering rows, one table-driven cosine and sine pair per
    computed entry (``steering_rows``), once per process."""
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
