"""Multi-label softmax loss, two-stream bilinear models, synthetic data, and
the AUC evaluation suite, built on explicitly differentiated numpy kernels.

Importing the package pins OpenBLAS to one thread unless OPENBLAS_NUM_THREADS
is already set; parallelism comes from ``model``'s worker pool instead. The pin
only takes effect if numpy has not been imported yet.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    FormatError,
    MsmlError,
    NumericalError,
    ParameterError,
    UndefinedMetricError,
)
from .losses import LossWeights, msml, sigmoid_bce, total_loss
from .metrics import MetricsReport, ScoreMatrix, build_report, macro_auc, roc_auc
from .model import (
    Adam,
    BaselineModel,
    ModelConfig,
    TwoStreamModel,
    lr_schedule,
    model_from_checkpoint,
    predict,
    save_checkpoint,
)
from .dataset import Dataset, GeneratorSpec, generate, split

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "BaselineModel",
    "ConfigError",
    "DataError",
    "Dataset",
    "DimensionError",
    "FormatError",
    "GeneratorSpec",
    "LossWeights",
    "MetricsReport",
    "ModelConfig",
    "MsmlError",
    "NumericalError",
    "ParameterError",
    "ScoreMatrix",
    "TwoStreamModel",
    "UndefinedMetricError",
    "build_report",
    "generate",
    "lr_schedule",
    "macro_auc",
    "model_from_checkpoint",
    "msml",
    "predict",
    "roc_auc",
    "save_checkpoint",
    "sigmoid_bce",
    "split",
    "total_loss",
]
