"""Tests of the benchmark's own code: rank-AUC, span arithmetic, output
checks, input generators and the transparency of the tracing wrappers.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

import run
import spans
import workloads


def pairwise_auc(scores, labels) -> float:
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p, n in itertools.product(pos, neg))
    return wins / (len(pos) * len(neg))


def test_rank_auc_matches_pairwise_oracle_on_tied_inputs():
    rng = np.random.default_rng(0)
    for size in (2, 3, 7, 20, 60):
        for _ in range(40):
            labels = rng.integers(0, 2, size)
            labels[0], labels[-1] = 0, 1
            scores = rng.integers(0, 4, size).astype(float)  # heavy ties
            assert run.rank_auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)


def test_rank_auc_rejects_one_class():
    with pytest.raises(ValueError):
        run.rank_auc([1.0, 2.0], [1, 1])


def hand_built_tree():
    # 0 [0,10] -+- 1 [1,4] --- 2 [2,3]
    #           +- 3 [5,9]
    #    4 [11,12] (a second root)
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    return parents, starts, ends


def test_self_time_is_duration_minus_children():
    parents, starts, ends = hand_built_tree()
    assert spans.self_times(parents, starts, ends).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_summary_counts_nested_spans_of_one_label_once_in_total():
    parents, starts, ends = hand_built_tree()
    labels = ["main", "key", "other"]
    names = [0, 1, 1, 2, 1]  # span 2 is a recursive call inside span 1
    summary = spans.summarize(labels, names, parents, starts, ends)
    assert summary["main"] == {"self_s": 3.0, "total_s": 10.0, "calls": 1}
    assert summary["key"] == {"self_s": 4.0, "total_s": 4.0, "calls": 3}
    assert summary["other"] == {"self_s": 4.0, "total_s": 4.0, "calls": 1}


def test_tracer_records_parents_and_generator_steps():
    tracer = spans.Tracer()
    leaf = tracer.span("leaf", lambda x: x * 2)

    def produce(n):
        for i in range(n):
            yield leaf(i)

    outer = tracer.span("outer", lambda n: list(tracer.iterate("gen", produce(n))))
    assert outer(3) == [0, 2, 4]
    names, parents, starts, ends = tracer.arrays()
    labels = [tracer.labels[i] for i in names]
    # outer, then per item a gen step holding one leaf, then the final step.
    assert labels == ["outer", "gen", "leaf", "gen", "leaf", "gen", "leaf", "gen"]
    assert parents.tolist() == [-1, 0, 1, 0, 3, 0, 5, 0]
    assert (ends >= starts).all()
    assert tracer.counters["gen.items"] == 3
    assert tracer.current == -1


def test_tracer_closes_span_when_call_raises():
    tracer = spans.Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.span("f", fail)()
    assert tracer.current == -1
    assert tracer.ends[0] >= tracer.starts[0]


def test_check_output_rejects_each_kind_of_bad_output():
    assert isinstance(run.check_output(b"1.5,0\n2,1\n", 2, True), np.ndarray)
    assert "output lines" in run.check_output(b"1.5\n", 2, False)
    assert "not finite" in run.check_output(b"nan\n", 1, False)
    assert "not finite" in run.check_output(b"inf,1\n", 1, True)
    assert "not 0 or 1" in run.check_output(b"1.0,2\n", 1, True)
    assert "fields" in run.check_output(b"1.0\n", 1, True)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_are_seeded_and_consistent(name):
    make = workloads.GENERATORS[name]
    first, again, other = make(3), make(3), make(4)
    assert first.text == again.text
    assert first.text != other.text
    n_items = first.properties["items"]
    header = 1 if name == "records-mstream" else 0
    assert len(first.text.splitlines()) == n_items + header
    assert first.labels.shape == (n_items,)
    assert 0 < first.labels.sum() < n_items
    assert first.one_item_text.splitlines() == first.text.splitlines()[: header + 1]


def test_traced_run_output_equals_untraced_output(tmp_path):
    workload = workloads.edge_burst(5, n_items=3000)
    path = tmp_path / "edges.csv"
    path.write_text(workload.text)
    argv = [*workload.argv, "--input", str(path)]
    rss_file = tmp_path / "rss.txt"
    env = {"PYTHONPATH": str(run.SRC), "BENCH_PEAK_RSS_FILE": str(rss_file)}
    plain = subprocess.run([sys.executable, "-c", run.ENTRY, *argv], capture_output=True, env=env, check=True)
    assert rss_file.read_text().startswith("VmHWM:")
    report = tmp_path / "report.json"
    traced = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "spans.py"), str(report), str(tmp_path / "spans.npz"), str(run.SRC), "--", *argv],
        capture_output=True,
        check=True,
    )
    assert traced.stdout == plain.stdout
    summary = json.loads(report.read_text())
    assert summary["counters"]["ingest.parse.items"] == 3000
    assert summary["labels"]["midas.process"]["calls"] == 3000
    flags = sum(line.endswith(b",1") for line in plain.stdout.splitlines())
    assert summary["counters"]["midas.flags"] == flags


def test_layer_metrics_match_benchmark_json():
    empty = {"labels": {}, "counters": {}, "sketch_state_bytes": 0, "import_s": 0.2}
    run.with_units(run.layer_metrics(empty, 1.0, 0, 0.0), "per_layer")
    with pytest.raises(RuntimeError):
        run.with_units({"items_per_s": 1.0}, "end_to_end")


def test_spawn_kills_a_child_at_the_deadline(tmp_path):
    started = time.perf_counter()
    cmd = [sys.executable, "-c", "import time; print(1, flush=True); time.sleep(30)"]
    sample = run.spawn(cmd, {}, tmp_path / "stderr.txt", started + 1.0)
    assert "killed" in sample.error
    assert sample.output == b"1\n"
    assert sample.first_byte_s < sample.wall_s < 10
