"""2D direction-of-arrival estimation toolkit.

Pipeline: synthetic array snapshots -> sample covariance -> noise-subspace
projector -> MUSIC pseudo-spectrum, searched either exhaustively on a grid
or by multimodal differential evolution with DBSCAN peak extraction, plus a
Monte Carlo benchmark harness with a closed-form FLOP cost model.
"""

# each module's __all__ is its public interface, re-exported here unchanged
from .signal_model import *
from .music import *
from .optimizer import *
from .extract import *
from .bench import *

__version__ = "0.1.0"
