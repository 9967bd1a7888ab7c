"""Single-pass, constant-memory anomaly detection over streams.

Counting sketches back a family of detectors: chi-squared edge scorers with
a decision rule that flags at a false-positive target, dense-submatrix edge
and graph scorers with a 2-approximation peel, a multi-aspect record scorer,
labelled feedback sharpening, and a two-state feedback simulator. A CSV
harness and CLI wire each detector to files.

The package re-exports the detectors, the sketches and what the library
quick start uses, each imported from its module on first use; everything
else is imported from its own module.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it. A module is imported when
# one of its names is first used, so a CLI command loads only its own detector.
_SOURCES = {
    "AnoEdgeGlobal": "densegraph",
    "AnoEdgeLocal": "densegraph",
    "CountMinSketch": "sketch",
    "DecisionRule": "midas",
    "EdgeEvent": "events",
    "HigherOrderSketch": "sketch",
    "MidasDetector": "midas",
    "MstreamDetector": "mstream",
    "Sess3dDetector": "sess",
    "roc_auc": "metrics",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
