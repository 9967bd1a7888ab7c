import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import streamsketch
from streamsketch.midas import guaranteed_shape

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_public_names_resolve_and_cover_the_readme_import():
    assert set(streamsketch.__all__) <= set(dir(streamsketch))
    for name in streamsketch.__all__:
        assert getattr(streamsketch, name) is not None
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    statement = re.search(r"^from streamsketch import \(.*?\)\n", block.group(1), re.S | re.M)
    namespace = {}
    exec(statement.group(0), namespace)
    imported = {name for name in namespace if name != "__builtins__"}
    assert imported and imported <= set(streamsketch.__all__)


# Modules no command needs at import; each is loaded by the commands that use it.
DETECTOR_MODULES = {"densegraph", "midas", "mstream", "sess", "metrics", "pomdp", "synth"}


def _loaded_modules(code: str) -> set[str]:
    """The ``streamsketch`` submodules loaded once ``code`` has run in a
    fresh interpreter."""
    code += (
        "\nimport json, sys\nprint(json.dumps("
        "[m for m in sys.modules if m.startswith('streamsketch.')]))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return {name.split(".", 1)[1] for name in json.loads(done.stdout.splitlines()[-1])}


def test_each_command_loads_only_the_modules_it_uses(tmp_path):
    assert not _loaded_modules("import streamsketch.cli") & DETECTOR_MODULES
    edges = tmp_path / "edges.csv"
    edges.write_text("1,2,1\n")
    run = f"from streamsketch.cli import main\nmain(['anoedge-g', '--input', {str(edges)!r}])"
    assert _loaded_modules(run) & DETECTOR_MODULES == {"densegraph"}


def test_benchmark_tracer_targets_resolve():
    """Every name the benchmark's tracer wraps exists, so a rename in the
    package fails here and not only in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [target for group in spans.TARGETS.values() for target in group]
    assert targets
    for module_name, path in targets + list(spans.PARSERS):
        owner, attr = spans._resolve(importlib.import_module(module_name), path)
        assert callable(getattr(owner, attr)), (module_name, path)
    sketch = importlib.import_module("streamsketch.sketch")
    for name in spans.SKETCH_CLASSES:
        assert isinstance(getattr(sketch, name), type), name


TRACED_RUNS = {
    "mstream": (
        "cat:a,cat:b,num:x,tick\n"
        + "".join(f"c{i % 3},d{i % 2},{i * 1.5},{1 + i // 4}\n" for i in range(12)),
        ("mstream.hash", "mstream.score", "hashing.canonical_key", "hashing.indexes"),
    ),
    "midas-f": (
        "".join(f"{i % 3},{(i + 1) % 4},{1 + i // 4}\n" for i in range(12)),
        ("midas.process", "hashing.indexes", "hashing.canonical_key"),
    ),
}


@pytest.mark.parametrize("command", list(TRACED_RUNS))
def test_benchmark_tracer_reaches_every_layer(tmp_path, command):
    """A traced run records calls in each layer the benchmark reports for it,
    so a refactor cannot quietly zero a per-layer metric. The tracer rebinds
    module attributes for good, so it runs in a child process, as in the
    benchmark."""
    text, labels_needed = TRACED_RUNS[command]
    data = tmp_path / "input.csv"
    data.write_text(text)
    report = tmp_path / "report.json"
    argv = [
        sys.executable, str(ROOT / "bench" / "spans.py"), str(report), str(tmp_path / "spans.npz"),
        str(ROOT / "src"), "--", command, "--input", str(data),
    ]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 12
    traced = json.loads(report.read_text())
    for label in labels_needed:
        assert traced["labels"].get(label, {}).get("calls", 0) > 0, label
    assert traced["counters"]["ingest.parse.items"] == 12


def test_readme_flag_examples_use_the_guaranteed_shape():
    """A README command that claims a false-positive target runs at the sketch
    shape under which the decision rule's bound holds."""
    commands = [
        line.split()
        for line in README.read_text(encoding="utf-8").splitlines()
        if line.startswith("streamsketch ") and "--flag-epsilon" in line
    ]
    assert commands
    for argv in commands:
        value = {flag: argv[argv.index(flag) + 1] for flag in ("--flag-epsilon", "--rows", "--buckets")}
        rows, buckets = int(value["--rows"]), int(value["--buckets"])
        assert guaranteed_shape(float(value["--flag-epsilon"]), math.e / buckets) == (rows, buckets)
