"""voxenc: model-to-brain encoding toolkit.

Feature extraction, HRF alignment, nested-CV ridge brain scores, layer
contrasts, and group statistics, validated end to end on synthetic data.
"""

__version__ = "0.1.0"

from .encode import ScoreMap

__all__ = ["ScoreMap", "__version__"]
