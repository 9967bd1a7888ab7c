"""Single-pass, constant-memory anomaly detection over streams.

Counting sketches back a family of detectors: chi-squared edge scorers with
a guaranteed-false-positive decision rule, dense-submatrix edge and graph
scorers with a 2-approximation peel, a multi-aspect record scorer, labelled
feedback sharpening, and a two-state feedback simulator. A CSV harness and
CLI wire each detector to files.
"""

from .densegraph import (
    AnoEdgeGlobal,
    AnoEdgeLocal,
    GraphWindow,
    anograph_density,
    anograph_k_density,
    anograph_score,
    edge_submatrix_density,
    submatrix_density,
)
from .events import EdgeEvent, MultiAspectRecord
from .hashing import DEFAULT_SEED, HashFamily, canonical_key
from .ingest import (
    FeedbackLine,
    RecordSchema,
    WindowSpec,
    parse_edge_stream,
    parse_feedback,
    parse_record_stream,
    window_aggregate,
)
from .metrics import linear_fit_r2, roc_auc
from .midas import (
    DecisionRule,
    MidasDetector,
    StepStats,
    chi2_quantile_1dof,
    chi2_score,
    filtering_score,
    guaranteed_shape,
    standard_normal_quantile,
)
from .mstream import (
    HyperplaneHash,
    MstreamDetector,
    RecordScore,
    StreamingMinMax,
    bucketize_numeric,
    hash_categorical,
    record_hash,
)
from .pomdp import (
    PredictorConfig,
    TwoStateProcess,
    accuracy_sweep,
    expected_accuracy_one_sided,
    run_predictor,
)
from .sess import FeedbackEvent, SharpeningParams, Sess3dDetector, apply_feedback
from .sketch import CountMinSketch, HigherOrderSketch
from .synth import (
    synth_attack_stream,
    synth_burst_stream,
    synth_graph_windows,
    synth_stationary_stream,
)

__version__ = "0.1.0"

__all__ = [
    "AnoEdgeGlobal",
    "AnoEdgeLocal",
    "CountMinSketch",
    "DEFAULT_SEED",
    "DecisionRule",
    "EdgeEvent",
    "FeedbackEvent",
    "FeedbackLine",
    "GraphWindow",
    "HashFamily",
    "HigherOrderSketch",
    "HyperplaneHash",
    "MidasDetector",
    "MstreamDetector",
    "MultiAspectRecord",
    "PredictorConfig",
    "RecordSchema",
    "RecordScore",
    "SharpeningParams",
    "Sess3dDetector",
    "StepStats",
    "StreamingMinMax",
    "TwoStateProcess",
    "WindowSpec",
    "accuracy_sweep",
    "anograph_density",
    "anograph_k_density",
    "anograph_score",
    "apply_feedback",
    "bucketize_numeric",
    "canonical_key",
    "chi2_quantile_1dof",
    "chi2_score",
    "edge_submatrix_density",
    "expected_accuracy_one_sided",
    "filtering_score",
    "guaranteed_shape",
    "hash_categorical",
    "linear_fit_r2",
    "parse_edge_stream",
    "parse_feedback",
    "parse_record_stream",
    "record_hash",
    "roc_auc",
    "run_predictor",
    "standard_normal_quantile",
    "submatrix_density",
    "synth_attack_stream",
    "synth_burst_stream",
    "synth_graph_windows",
    "synth_stationary_stream",
    "window_aggregate",
]
