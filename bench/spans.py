"""In-process tracing of one CLI run, from outside the program.

``Tracer`` wraps functions and methods of the ``streamsketch`` modules so
that every call records a span (label, parent span, start, end). Spans stay
in memory in flat arrays and are written out when the run ends; self time
and call counts per label are computed from them afterwards.

Run as a script it is the traced child of ``run.py``::

    python3 bench/spans.py REPORT.json SPANS.npz SRC_DIR -- midas-r --input edges.csv

It times ``import streamsketch.cli``, instruments the modules, calls
``streamsketch.cli.main(argv)`` (scores go to stdout as usual) and writes the
per-label summary to REPORT.json and the raw spans to SPANS.npz. Only the
standard library is imported before the program, so the import time is the
program's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

# label -> (module, attribute path) of every wrapped callable. A module-level
# name is wrapped where its callers look it up, which is not always the
# module that defines it.
TARGETS = {
    "events.construct": [
        ("streamsketch.events", "EdgeEvent.__init__"),
        ("streamsketch.events", "MultiAspectRecord.__init__"),
    ],
    "hashing.indexes": [
        ("streamsketch.hashing", "HashFamily.indexes"),
        ("streamsketch.hashing", "HashFamily.indexes_many"),
    ],
    "hashing.canonical_key": [
        ("streamsketch.hashing", "canonical_key"),
        ("streamsketch.mstream", "canonical_key"),
    ],
    "sketch.update": [
        ("streamsketch.sketch", "CountMinSketch.update"),
        ("streamsketch.sketch", "CountMinSketch.update_at"),
        ("streamsketch.sketch", "CountMinSketch.update_many"),
        ("streamsketch.sketch", "HigherOrderSketch.update"),
        ("streamsketch.sketch", "HigherOrderSketch.update_at"),
        ("streamsketch.sketch", "HigherOrderSketch.update_many"),
    ],
    "sketch.query": [
        ("streamsketch.sketch", "CountMinSketch.query"),
        ("streamsketch.sketch", "CountMinSketch.query_at"),
        ("streamsketch.sketch", "CountMinSketch.query_many"),
        ("streamsketch.sketch", "HigherOrderSketch.estimate"),
        ("streamsketch.sketch", "HigherOrderSketch.estimate_many"),
    ],
    "sketch.assign": [
        ("streamsketch.sketch", "CountMinSketch.assign"),
        ("streamsketch.sketch", "CountMinSketch.assign_at"),
    ],
    "sketch.tick": [
        ("streamsketch.sketch", "CountMinSketch.decay"),
        ("streamsketch.sketch", "CountMinSketch.clear"),
        ("streamsketch.sketch", "CountMinSketch.merge_conditional"),
        ("streamsketch.sketch", "HigherOrderSketch.decay"),
        ("streamsketch.sketch", "HigherOrderSketch.reset"),
    ],
    "midas.process": [("streamsketch.midas", "MidasDetector.process")],
    "midas.flag": [("streamsketch.midas", "DecisionRule.is_flagged")],
    "densegraph.score": [("streamsketch.densegraph", "AnoEdgeGlobal.score")],
    "densegraph.expand": [("streamsketch.densegraph", "edge_submatrix_density")],
    "mstream.score": [("streamsketch.mstream", "MstreamDetector.score")],
    "mstream.hash": [
        ("streamsketch.mstream", "hash_categorical"),
        ("streamsketch.mstream", "bucketize_numeric"),
        ("streamsketch.mstream", "record_hash"),
        ("streamsketch.mstream", "HyperplaneHash.signature"),
    ],
    "setup.construct": [
        ("streamsketch.midas", "MidasDetector.__init__"),
        ("streamsketch.midas", "DecisionRule.for_detector"),
        ("streamsketch.densegraph", "AnoEdgeGlobal.__init__"),
        ("streamsketch.mstream", "MstreamDetector.__init__"),
    ],
}
# Parsers are generator factories: their spans cover each next(), not the call.
PARSERS = (
    ("streamsketch.cli", "parse_edge_stream"),
    ("streamsketch.cli", "parse_record_stream"),
)
SKETCH_CLASSES = ("CountMinSketch", "HigherOrderSketch")
CLI_LABEL = "cli"
PARSE_LABEL = "ingest.parse"


class Tracer:
    """Records nested spans of synchronous calls on one thread."""

    def __init__(self):
        self.labels: list[str] = []
        self._codes: dict[str, int] = {}
        self.names = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1
        self.counters: dict[str, int] = {}

    def code(self, label: str) -> int:
        if label not in self._codes:
            self._codes[label] = len(self.labels)
            self.labels.append(label)
        return self._codes[label]

    def span(self, label: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        code = self.code(label)
        names_append = self.names.append
        parents = self.parents
        parents_append = parents.append
        starts_append = self.starts.append
        ends = self.ends
        ends_append = ends.append
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(ends)
            names_append(code)
            parents_append(tracer.current)
            ends_append(0.0)
            tracer.current = sid
            starts_append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                tracer.current = parents[sid]

        return traced

    def iterate(self, label: str, iterator):
        """Yield from ``iterator``, recording one span per next() call and
        counting the items produced under ``label + '.items'``."""
        step = self.span(label, iterator.__next__)
        key = label + ".items"
        self.counters.setdefault(key, 0)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            self.counters[key] += 1
            yield item

    def count_true(self, key: str, fn):
        """Wrap ``fn`` to count calls that return a true value."""
        self.counters.setdefault(key, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result:
                self.counters[key] += 1
            return result

        return counted

    def arrays(self):
        """(names, parents, starts, ends) as numpy arrays."""
        import numpy as np

        return (
            np.array(self.names, dtype=np.int64),
            np.array(self.parents, dtype=np.int64),
            np.array(self.starts, dtype=np.float64),
            np.array(self.ends, dtype=np.float64),
        )


def self_times(parents, starts, ends):
    """Per-span self time: duration minus the time covered by child spans.

    Spans come from one thread, so the children of a span are disjoint and
    lie inside it; the time they cover is the sum of their durations.
    """
    import numpy as np

    duration = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    child = parents >= 0
    covered = np.bincount(parents[child], weights=duration[child], minlength=duration.shape[0])
    return duration - covered


def summarize(labels, names, parents, starts, ends) -> dict:
    """{label: {"self_s", "total_s", "calls"}} over all spans of each label.

    ``total_s`` sums only the outermost span of each nest of one label, so a
    recursive call is not counted twice.
    """
    import numpy as np

    names = np.asarray(names, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    duration = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    own = self_times(parents, starts, ends)
    n_labels = len(labels)
    outermost = np.ones(names.shape[0], dtype=bool)
    # A span is nested in its own label when some ancestor carries that label.
    ancestor = parents.copy()
    while True:
        live = ancestor >= 0
        if not live.any():
            break
        outermost[live] &= names[ancestor[live]] != names[live]
        ancestor[live] = parents[ancestor[live]]
    self_s = np.bincount(names, weights=own, minlength=n_labels)
    total_s = np.bincount(names, weights=np.where(outermost, duration, 0.0), minlength=n_labels)
    calls = np.bincount(names, minlength=n_labels)
    return {
        label: {"self_s": float(self_s[i]), "total_s": float(total_s[i]), "calls": int(calls[i])}
        for i, label in enumerate(labels)
    }


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _wrap_attr(owner, attr, make):
    """Replace owner.attr by make(original), keeping classmethods as such."""
    static = inspect.getattr_static(owner, attr)
    if isinstance(static, classmethod):
        setattr(owner, attr, classmethod(make(static.__func__)))
    else:
        setattr(owner, attr, make(static))


def instrument(tracer: Tracer, sketches: list) -> None:
    """Wrap every target in TARGETS and PARSERS, count flagged edges and
    record each sketch built."""
    for label, targets in TARGETS.items():
        for module_name, path in targets:
            owner, attr = _resolve(importlib.import_module(module_name), path)
            _wrap_attr(owner, attr, functools.partial(tracer.span, label))
    rule = importlib.import_module("streamsketch.midas").DecisionRule
    _wrap_attr(rule, "is_flagged", functools.partial(tracer.count_true, "midas.flags"))

    def traced_parser(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            if isinstance(result, tuple):  # (schema, records)
                return result[0], tracer.iterate(PARSE_LABEL, result[1])
            return tracer.iterate(PARSE_LABEL, result)

        return call

    for module_name, attr in PARSERS:
        _wrap_attr(importlib.import_module(module_name), attr, traced_parser)

    def recording(init):
        @functools.wraps(init)
        def init_and_record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            sketches.append(self)

        return init_and_record

    sketch_module = importlib.import_module("streamsketch.sketch")
    for name in SKETCH_CLASSES:
        _wrap_attr(getattr(sketch_module, name), "__init__", recording)


def _child(argv) -> int:
    report_path, spans_path, src_dir, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: spans.py REPORT SPANS SRC_DIR -- CLI_ARGS...")
    sys.path.insert(0, src_dir)
    started = time.perf_counter()
    import streamsketch.cli as cli

    import_s = time.perf_counter() - started

    import numpy as np

    tracer = Tracer()
    sketches: list = []
    instrument(tracer, sketches)
    main = tracer.span(CLI_LABEL, cli.main)
    status = main(cli_argv)
    sys.stdout.flush()

    names, parents, starts, ends = tracer.arrays()
    np.savez(spans_path, labels=np.array(tracer.labels), names=names, parents=parents, starts=starts, ends=ends)
    report = {
        "status": status,
        "import_s": import_s,
        "labels": summarize(tracer.labels, names, parents, starts, ends),
        "counters": dict(tracer.counters),
        "sketch_state_bytes": sum(s.state_bytes() for s in sketches),
        "spans": int(names.shape[0]),
    }
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return status


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
