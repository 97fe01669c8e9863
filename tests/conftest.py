import numpy as np
import pytest

from doakit import (
    ArrayGeometry,
    SourceSet,
    noise_projector,
    sample_covariance,
    subspace_split,
    synthesize_snapshots,
)

# Reference benchmark scenario: 12-element circular array, three sources.
TRUE_AZIMUTH_DEG = (30.42, 120.27, 240.51)
TRUE_ELEVATION_DEG = (60.39, 29.42, 45.55)


def centred_4x4_grid():
    """Point-symmetric, not circular: a centred 4 x 4 half-wavelength grid whose
    y < 0 half lists the negations of the y > 0 half, so mirror pairs sit M/2 apart."""
    lead_x, lead_y = np.meshgrid([-0.75, -0.25, 0.25, 0.75], [0.25, 0.75])
    lead_x, lead_y = lead_x.ravel(), lead_y.ravel()
    return ArrayGeometry(16, 1.0, np.concatenate([lead_x, -lead_x]), np.concatenate([lead_y, -lead_y]))


def uca12_one_ulp_off():
    """uca12 with its last element moved by one ulp: no exact mirror, so every row is computed."""
    uca12 = ArrayGeometry.uca(12)
    x = uca12.element_x.copy()
    x[-1] = np.nextafter(x[-1], np.inf)
    return ArrayGeometry(12, 1.0, x, uca12.element_y)


# Arrays with every mirrored-element count the steering code distinguishes: even
# circles (h = M/2), an odd circle and scattered or perturbed arrays (h = 0), and a
# point-symmetric array that is not a circle.
STEERING_GEOMETRIES = {
    "uca5": ArrayGeometry.uca(5),
    "uca12": ArrayGeometry.uca(12),
    "uca128": ArrayGeometry.uca(128),
    # not circular: seven elements scattered over a 6 x 4 m aperture at a 0.8 m wavelength
    "scattered7": ArrayGeometry(7, 0.8, *np.random.default_rng(5).uniform((-3.0, -2.0), (3.0, 2.0), size=(7, 2)).T),
    "rect4x4": centred_4x4_grid(),
    "uca12_ulp_off": uca12_one_ulp_off(),
}


@pytest.fixture(scope="session")
def uca12():
    return ArrayGeometry.uca(12)


@pytest.fixture(scope="session")
def truth_sources():
    return SourceSet(np.array(TRUE_AZIMUTH_DEG), np.array(TRUE_ELEVATION_DEG))


@pytest.fixture(scope="session")
def noiseless_projector(uca12, truth_sources):
    """Noise-free three-source projector; exact up to floating point, and
    independent of the symbol seed since only the signal span matters."""
    snapshots = synthesize_snapshots(uca12, truth_sources, np.inf, 100, rng_seed=7)
    split = subspace_split(sample_covariance(snapshots), truth_sources.count)
    return noise_projector(split, uca12)
