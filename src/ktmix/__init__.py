"""Universal codelengths, density estimates, and dependence tests for
discrete, continuous, and mixed real-valued data.

The core construction mixes Krichevsky-Trofimov estimators over a refining
histogram sequence, yielding a sub-probability density against a configurable
reference measure whose per-sample codelength converges to the source's
entropy rate for any i.i.d. source absolutely continuous in that measure.
"""

from .measure import (
    CountingMeasure,
    Interval,
    LebesgueMeasure,
    OutOfSupportError,
    ReferenceMeasure,
    ScaledMeasure,
    SumMeasure,
    measure_from_config,
    scaled,
    sum_measure,
)
from .partition import (
    DEFAULT_MAX_LEVEL,
    CustomPartition,
    HistogramSequence,
    Partition,
)
from .kt import KtState, kt_log_prob_closed_form
from .estimator import Axis, LevelWeights, MixtureEstimator
from .joint import (
    DEFAULT_JOINT_LEVEL,
    FittedColumn,
    ForestEdge,
    JointEstimator,
    PairReport,
    analyze_pair,
    build_forest,
    score_pair,
)
from .data import (
    ColumnSchema,
    DatasetError,
    build_schema,
    parse_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "Interval",
    "ReferenceMeasure",
    "LebesgueMeasure",
    "CountingMeasure",
    "SumMeasure",
    "ScaledMeasure",
    "sum_measure",
    "scaled",
    "measure_from_config",
    "OutOfSupportError",
    "Partition",
    "HistogramSequence",
    "CustomPartition",
    "DEFAULT_MAX_LEVEL",
    "KtState",
    "kt_log_prob_closed_form",
    "Axis",
    "LevelWeights",
    "MixtureEstimator",
    "JointEstimator",
    "PairReport",
    "FittedColumn",
    "ForestEdge",
    "score_pair",
    "analyze_pair",
    "build_forest",
    "DEFAULT_JOINT_LEVEL",
    "ColumnSchema",
    "DatasetError",
    "parse_dataset",
    "build_schema",
]
