"""Single-pass, constant-memory anomaly detection over streams.

Counting sketches back a family of detectors: chi-squared edge scorers with
a decision rule that flags at a false-positive target, dense-submatrix edge
and graph scorers with a 2-approximation peel, a multi-aspect record scorer,
labelled feedback sharpening, and a two-state feedback simulator. A CSV
harness and CLI wire each detector to files.

The package re-exports the detectors, the sketches and what the library
quick start uses; everything else is imported from its own module.
"""

from .densegraph import AnoEdgeGlobal, AnoEdgeLocal
from .events import EdgeEvent
from .metrics import roc_auc
from .midas import DecisionRule, MidasDetector
from .mstream import MstreamDetector
from .sess import Sess3dDetector
from .sketch import CountMinSketch, HigherOrderSketch

__version__ = "0.1.0"

__all__ = [
    "AnoEdgeGlobal",
    "AnoEdgeLocal",
    "CountMinSketch",
    "DecisionRule",
    "EdgeEvent",
    "HigherOrderSketch",
    "MidasDetector",
    "MstreamDetector",
    "Sess3dDetector",
    "roc_auc",
]
