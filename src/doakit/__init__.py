"""2D direction-of-arrival estimation toolkit.

Pipeline: synthetic array snapshots -> sample covariance -> noise-subspace
projector -> MUSIC pseudo-spectrum, searched either exhaustively on a grid
or by multimodal differential evolution with DBSCAN peak extraction, plus a
Monte Carlo benchmark harness with a closed-form FLOP cost model.
"""

from .signal_model import (
    ArrayGeometry,
    SourceSet,
    SubspaceSplit,
    sample_covariance,
    steering_matrix,
    steering_vector,
    subspace_split,
    synthesize_snapshots,
)
from .music import (
    FlopModel,
    GridSearchResult,
    GridSpec,
    NoiseProjector,
    evaluate_grid,
    flops_music,
    flops_population,
    grid_search,
    music_values,
    noise_projector,
    spectrum_objective,
)
from .optimizer import (
    ALGORITHMS,
    CountingObjective,
    DEConfig,
    Population,
    SearchBox,
    de_crossover,
    de_mutate,
    nearest_neighbor_indices,
    run_population,
    shared_fitness,
)
from .extract import (
    NOISE,
    ClusterLabeling,
    DoaEstimate,
    ExtractionResult,
    dbscan,
    extract_dbscan,
    extract_klocalmax,
    extract_kmeanspp,
)
from .bench import (
    AggregateReport,
    ConfigError,
    MatchResult,
    ScenarioConfig,
    TrialReport,
    aggregate,
    circular_difference_deg,
    complexity_cells,
    derive_seed,
    format_complexity_table,
    match_estimates,
    run_extraction_comparison,
    run_population_sweep,
    run_sweep,
    run_trial,
    run_trials,
)

__version__ = "0.1.0"
