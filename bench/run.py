"""Benchmark of the streamsketch CLI on four seeded workloads.

    python3 bench/run.py --workload edge-burst --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from its
``src`` directory, never from an installed copy. The benchmark writes the
workload's input files under ``.bench_out/``, reads them once to warm the
page cache, then spawns the CLI one process at a time (a closed loop with one
client): first a few times on a one-item input of the same shape (set-up
time), then on the full input until ``--seconds`` have passed. Every run's
output is checked. Times are normalized by a calibration loop run between
the children (see ``Runner``). The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` adds one traced
run in a child that calls ``streamsketch.cli.main`` in process with the
modules wrapped (see ``spans.py``) and reports per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH_DIR = Path(__file__).resolve().parent
# What the installed console script runs, plus a report of the process's own
# peak resident set (VmHWM) when main() returns. ru_maxrss from wait4 cannot
# serve: exec keeps the high-water mark of the address space the child was
# spawned with, which is the benchmark's own, so it reads max(benchmark, CLI).
ENTRY = (
    "import os, sys\n"
    "from streamsketch.cli import main\n"
    "status = main()\n"
    "if os.environ.get('BENCH_PEAK_RSS_FILE'):\n"
    "    with open('/proc/self/status') as src, open(os.environ['BENCH_PEAK_RSS_FILE'], 'w') as dst:\n"
    "        dst.writelines(line for line in src if line.startswith('VmHWM:'))\n"
    "sys.exit(status)\n"
)
SETUP_RUNS = 7
MIN_RUNS = 3
KILL_AFTER_S = 150  # children still running this long after start are killed
CALIBRATION_LOOPS = 60_000
CALIBRATION_ARRAY_STEPS = 2_000
_CAL_P = (1 << 61) - 1
_CAL_A, _CAL_B = 1442695040888963407 % _CAL_P, 6364136223846793005 % _CAL_P
REFERENCE_S = 0.12

# Per-layer metric -> (span label, field); see README.md for what each
# should move.
LAYER_SPANS = {
    "ingest.parse.self_s": ("ingest.parse", "self_s"),
    "events.construct.self_s": ("events.construct", "self_s"),
    "events.construct.calls": ("events.construct", "calls"),
    "hashing.indexes.self_s": ("hashing.indexes", "self_s"),
    "hashing.indexes.calls": ("hashing.indexes", "calls"),
    "hashing.canonical_key.self_s": ("hashing.canonical_key", "self_s"),
    "hashing.canonical_key.calls": ("hashing.canonical_key", "calls"),
    "sketch.update.self_s": ("sketch.update", "self_s"),
    "sketch.update.calls": ("sketch.update", "calls"),
    "sketch.query.self_s": ("sketch.query", "self_s"),
    "sketch.query.calls": ("sketch.query", "calls"),
    "sketch.assign.self_s": ("sketch.assign", "self_s"),
    "sketch.assign.calls": ("sketch.assign", "calls"),
    "sketch.tick.self_s": ("sketch.tick", "self_s"),
    "sketch.tick.calls": ("sketch.tick", "calls"),
    "midas.process.self_s": ("midas.process", "self_s"),
    "midas.process.calls": ("midas.process", "calls"),
    "midas.flag.self_s": ("midas.flag", "self_s"),
    "midas.flag.calls": ("midas.flag", "calls"),
    "densegraph.score.self_s": ("densegraph.score", "self_s"),
    "densegraph.score.calls": ("densegraph.score", "calls"),
    "densegraph.expand.self_s": ("densegraph.expand", "self_s"),
    "densegraph.expand.calls": ("densegraph.expand", "calls"),
    "mstream.score.self_s": ("mstream.score", "self_s"),
    "mstream.score.calls": ("mstream.score", "calls"),
    "mstream.hash.self_s": ("mstream.hash", "self_s"),
    "mstream.hash.calls": ("mstream.hash", "calls"),
    "cli.self_s": ("cli", "self_s"),
    "cli.total_s": ("cli", "total_s"),
    "setup.construct_s": ("setup.construct", "total_s"),
}


def with_units(values: dict, section: str) -> dict:
    """Attach the units that BENCHMARK.json declares for ``section``; the
    metric names must match the declared ones exactly."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        raise RuntimeError(f"{section} metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


@dataclass
class Sample:
    wall_s: float
    first_byte_s: float
    peak_rss_mb: float | None  # VmHWM reported by ENTRY
    wait4_maxrss_mb: float
    output: bytes
    error: str | None  # why the run failed its checks, or None
    scale: float = 1.0  # speed normalization, see Runner


def rank_auc(scores, labels) -> float:
    """ROC-AUC from average ranks: P(positive outscores negative), ties half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0 or n_pos + n_neg != labels.shape[0]:
        raise ValueError("labels must be 0/1 with both classes present")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = ((ends - counts + 1 + ends) / 2.0)[inverse]
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def check_output(output: bytes, n_items: int, flag_column: bool):
    """Scores parsed from CLI output, or a string saying why it is wrong:
    one line per item, every score finite, the flag column 0 or 1."""
    lines = output.decode("utf-8", errors="replace").splitlines()
    if len(lines) != n_items:
        return f"{len(lines)} output lines for {n_items} items"
    scores = np.empty(n_items)
    for i, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) != (2 if flag_column else 1):
            return f"output line {i + 1}: {line!r} has {len(fields)} fields"
        if flag_column and fields[1] not in ("0", "1"):
            return f"output line {i + 1}: flag {fields[1]!r} is not 0 or 1"
        try:
            scores[i] = float(fields[0])
        except ValueError:
            return f"output line {i + 1}: score {fields[0]!r} is not a number"
        if not math.isfinite(scores[i]):
            return f"output line {i + 1}: score {fields[0]!r} is not finite"
    return scores


def spawn(cmd: list[str], env: dict, stderr_path: Path, deadline: float, rss_file: Path | None = None) -> Sample:
    """Run ``cmd`` to completion, timing spawn -> first stdout byte -> exit.

    A child still running at ``deadline`` (a perf_counter time) is killed
    and the run fails. With ``rss_file``, the child must report its peak
    RSS there (see ENTRY).
    """
    if rss_file is not None:
        rss_file.unlink(missing_ok=True)
        env = dict(env, BENCH_PEAK_RSS_FILE=str(rss_file))
    chunks = []
    first = None
    timed_out = False
    with open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=ROOT)
        try:
            fd = proc.stdout.fileno()
            while True:
                if not select.select([fd], [], [], max(0.0, deadline - time.perf_counter()))[0]:
                    timed_out = True
                    proc.kill()
                    break
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                if first is None:
                    first = time.perf_counter()
                chunks.append(chunk)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be a
        # running maximum over every child so far (see ENTRY for maxrss).
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    error = peak_rss_mb = None
    if timed_out:
        error = f"killed after {ended - started:.1f} s"
    elif proc.returncode != 0:
        error = f"exit status {proc.returncode}: {stderr_path.read_text(errors='replace')[-500:]}"
    elif rss_file is not None:
        try:
            peak_rss_mb = int(rss_file.read_text().split()[1]) / 1024.0  # "VmHWM: <n> kB"
        except (OSError, IndexError, ValueError):
            error = "no peak RSS report"
    return Sample(
        wall_s=ended - started,
        first_byte_s=(first if first is not None else ended) - started,
        peak_rss_mb=peak_rss_mb,
        wait4_maxrss_mb=usage.ru_maxrss / 1024.0,
        output=b"".join(chunks),
        error=error,
    )


def machine_info() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "platform": platform.platform(),
    }


def source_identity() -> dict:
    """Commit when the checkout is a git repository, and a digest of the
    program's sources either way."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "streamsketch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def calibrate() -> float:
    """Seconds taken by fixed work of the kinds the program does: dict and
    float updates, 61-bit modular hashing, numpy scalar indexing, CSV field
    parsing and score formatting, then numpy calls on 32-wide vectors."""
    started = time.perf_counter()
    table: dict = {}
    counts = np.zeros((2, 1024))
    acc = 0.0
    for i in range(CALIBRATION_LOOPS):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0.0) + 1.5
        bucket = ((_CAL_A * (i * 2654435761) + _CAL_B) % _CAL_P) % 1024
        counts[i & 1, bucket] += 1.0
        fields = f"{i},{key},{bucket}".split(",")
        acc += table[key] * 0.5 + int(fields[1]) + float(fields[2])
        if i % 8 == 0:
            acc += len("{:.9g}".format(acc))
    gain = np.linspace(0.0, 1.0, 32)
    for i in range(CALIBRATION_ARRAY_STEPS):
        best = int(np.argmax(np.where(gain > 0.5, -np.inf, gain)))
        gain[best] += 1e-3 * (i % 7)
    return time.perf_counter() - started


class Runner:
    """Spawns commands one at a time and calibrates between them.

    On a shared machine the same code runs up to 1.5x slower for stretches
    of a fraction of a second to minutes. Each run's times are multiplied by
    its ``scale``: REFERENCE_S over the mean of the calibrations just before
    and just after it, both taken on the CPU the run used. This cancels most
    of that swing; the times read as on a machine where ``calibrate()`` takes
    REFERENCE_S. The raw times and the scales go to the report.
    """

    def __init__(self, env: dict, stderr_path: Path, kill_at: float):
        self.env = env
        self.stderr_path = stderr_path
        self.kill_at = kill_at
        self.last_calibration = calibrate()
        self.calibrations = [self.last_calibration]

    def __call__(self, cmd: list[str], rss_file: Path | None = None) -> Sample:
        sample = spawn(cmd, self.env, self.stderr_path, self.kill_at, rss_file)
        after = calibrate()
        sample.scale = REFERENCE_S / ((self.last_calibration + after) / 2.0)
        self.last_calibration = after
        self.calibrations.append(after)
        return sample


def traced_command(workload, input_path: Path, out_dir: Path) -> list[str]:
    """The traced child: the same CLI arguments, run in process by spans.py."""
    return [
        sys.executable,
        str(BENCH_DIR / "spans.py"),
        str(out_dir / "trace-report.json"),
        str(out_dir / "spans.npz"),
        str(SRC),
        "--",
        *workload.argv,
        "--input",
        str(input_path),
    ]


def layer_metrics(report: dict, scale: float, output_bytes: int, overhead_frac: float) -> dict:
    """Per-layer metrics from the traced child's summary; seconds are
    normalized by ``scale`` like the end-to-end times."""
    labels = report["labels"]
    values = {name: labels.get(label, {}).get(field, 0) for name, (label, field) in LAYER_SPANS.items()}
    values["setup.import_s"] = report["import_s"]
    values = {name: value * scale if name.endswith("_s") else value for name, value in values.items()}
    values.update(
        {
            "ingest.parse.items": report["counters"].get("ingest.parse.items", 0),
            "midas.flags": report["counters"].get("midas.flags", 0),
            "sketch.state_bytes": report["sketch_state_bytes"],
            "cli.output_bytes": output_bytes,
            "trace.overhead_frac": overhead_frac,
        }
    )
    return values


def run(args):
    started = time.perf_counter()
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.GENERATORS[args.workload](args.seed)
    n_items = workload.properties["items"]
    input_path = out_dir / "input.csv"
    one_path = out_dir / "one-item.csv"
    input_path.write_text(workload.text, encoding="utf-8")
    one_path.write_text(workload.one_item_text, encoding="utf-8")
    for path in (input_path, one_path):
        path.read_bytes()

    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("STREAMSKETCH_SEED", None)
    cli = [sys.executable, "-c", ENTRY, *workload.argv, "--input"]
    full_cmd = cli + [str(input_path)]
    one_cmd = cli + [str(one_path)]
    load_start = os.getloadavg()
    # The children inherit this CPU, so calibration and run share a core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spawn_timed = Runner(env, out_dir / "stderr.txt", started + KILL_AFTER_S)
    failures = []  # every failed check; failed runs are counted apart
    failed_runs = 0

    def checked(sample: Sample, items: int):
        nonlocal failed_runs
        result = sample.error or check_output(sample.output, items, workload.flag_column)
        if isinstance(result, str):
            failures.append(result)
            failed_runs += 1
            return None
        return result

    # One unmeasured run compiles bytecode and fills the file cache.
    checked(spawn_timed(one_cmd), 1)
    deadline = time.perf_counter() + args.seconds
    setup = [spawn_timed(one_cmd) for _ in range(SETUP_RUNS)]
    for sample in setup:
        checked(sample, 1)

    trace_sample = None
    if args.trace:
        trace_sample = spawn_timed(traced_command(workload, input_path, out_dir))
        checked(trace_sample, n_items)

    runs, scores = [], None
    while (len(runs) < MIN_RUNS or time.perf_counter() < deadline) and time.perf_counter() < started + KILL_AFTER_S:
        sample = spawn_timed(full_cmd, out_dir / "peak-rss.txt")
        runs.append(sample)
        parsed = checked(sample, n_items)
        if parsed is not None and scores is None:
            scores = parsed

    digests = sorted({hashlib.sha256(s.output).hexdigest() for s in runs})
    if len(digests) != 1:
        failures.append(f"outputs differ between runs: {digests}")
    if trace_sample is not None and trace_sample.output != runs[0].output:
        failures.append("traced output differs from untraced output")

    attempted = 1 + len(setup) + len(runs) + (trace_sample is not None)
    setup_s = statistics.median(s.wall_s * s.scale for s in setup)
    wall_s = statistics.median(s.wall_s * s.scale for s in runs)
    e2e = {
        "items_per_s": statistics.median(n_items / (s.wall_s * s.scale) for s in runs),
        "time_to_first_score_s": statistics.median(s.first_byte_s * s.scale for s in runs),
        "peak_rss_mb": statistics.median([s.peak_rss_mb for s in runs if s.peak_rss_mb is not None] or [0.0]),
        "setup_s": setup_s,
        "auc": rank_auc(scores, workload.labels) if scores is not None else 0.0,
        "success_frac": (attempted - failed_runs) / attempted,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": list(workload.argv),
        "input": workload.properties,
        "machine": machine_info(),
        "source": source_identity(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "reference_s": REFERENCE_S,
        "calibration_s": spawn_timed.calibrations,
        "output_sha256": digests,
        "runs": [
            {
                "wall_s": s.wall_s,
                "first_byte_s": s.first_byte_s,
                "peak_rss_mb": s.peak_rss_mb,
                "wait4_maxrss_mb": s.wait4_maxrss_mb,
                "scale": s.scale,
            }
            for s in runs
        ],
        "setup": [{"wall_s": s.wall_s, "scale": s.scale} for s in setup],
        "end_to_end": e2e,
        "failures": failures,
    }
    metrics = with_units(e2e, "end_to_end")
    if args.trace:
        metrics = {}
        if trace_sample.error is None:
            trace_report = json.loads((out_dir / "trace-report.json").read_text())
            traced_s = trace_report["labels"][spans.CLI_LABEL]["total_s"] * trace_sample.scale
            overhead = traced_s / (wall_s - setup_s) - 1.0
            values = layer_metrics(trace_report, trace_sample.scale, len(trace_sample.output), overhead)
            metrics = with_units(values, "per_layer")
            report["traced_run"] = {"spans": trace_report["spans"], "wall_s": trace_sample.wall_s, "scale": trace_sample.scale}
            report["per_layer"] = metrics
    (out_dir / f"report-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    result = {"correct": not failures, "attempted": attempted, "failed": failed_runs, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "streamsketch" / "cli.py").is_file():
        print(f"error: no streamsketch sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    result, report = run(args)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
