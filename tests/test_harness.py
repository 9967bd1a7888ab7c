import sys

import numpy as np
import pytest

from streamsketch.events import EdgeEvent, MultiAspectRecord
from streamsketch.ingest import (
    Lines,
    WindowSpec,
    parse_edge_stream,
    parse_feedback,
    parse_record_header,
    parse_record_stream,
    window_aggregate,
)
from streamsketch.metrics import roc_auc
from streamsketch.synth import (
    synth_attack_stream,
    synth_burst_stream,
    synth_graph_windows,
    synth_stationary_stream,
)

from oracles import linear_fit_r2, pairwise_auc


# -- metrics -------------------------------------------------------------------


def test_auc_of_perfect_separation():
    assert roc_auc([1, 2, 3], [0, 0, 1]) == 1.0


def test_auc_of_a_full_tie():
    assert roc_auc([1.0, 1.0], [0, 1]) == 0.5


def test_auc_validation():
    with pytest.raises(ValueError):
        roc_auc([1, 2], [0, 0])
    with pytest.raises(ValueError):
        roc_auc([1, 2], [0, 2])
    with pytest.raises(ValueError):
        roc_auc([1, 2, 3], [0, 1])
    with pytest.raises(ValueError, match="^score 2 is nan$"):
        roc_auc([1, float("nan"), float("nan")], [0, 1, 0])


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = 500
        scores = np.round(rng.random(n) * 50, 1)  # coarse grid forces ties
        labels = (rng.random(n) < 0.3).astype(int)
        if labels.sum() in (0, n):
            continue
        assert roc_auc(scores, labels) == pytest.approx(
            pairwise_auc(scores, labels), abs=1e-12
        )


def test_linear_fit_r2_on_a_line():
    x = np.arange(10)
    assert linear_fit_r2(x, 3 * x + 2) == pytest.approx(1.0)
    assert linear_fit_r2(x, np.ones(10)) == pytest.approx(1.0)  # flat line fits
    with pytest.raises(ValueError):
        linear_fit_r2([1, 2], [1, 2])


# -- the line reader -------------------------------------------------------------


def test_lines_skip_blanks_and_locate_errors():
    reader = Lines(["a\n", " \t\n", "\n", " b \n"], "side.txt")
    seen = []
    with pytest.raises(ValueError, match=r"^side.txt:4: bad 'b'$"):
        with reader:
            for line in reader:
                seen.append((reader.lineno, line))
                if line == "b":
                    raise ValueError(f"bad {line!r}")
    assert seen == [(1, "a"), (4, "b")]
    with pytest.raises(ValueError, match=r"^line 2: bad$"):
        with Lines(["", "x"]) as lines:
            for _ in lines:
                raise ValueError("bad")


def test_lines_leave_other_errors_alone():
    def undecodable():
        yield "a\n"
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    with pytest.raises(UnicodeDecodeError):  # raised by reading ahead, not by line 1
        with Lines(undecodable()) as lines:
            list(lines)
    with pytest.raises(ValueError, match=r"^after the end$"):
        with Lines(["a"]) as lines:
            list(lines)
            raise ValueError("after the end")
    with pytest.raises(TypeError, match=r"^not a value error$"):
        with Lines(["a"]) as lines:
            for _ in lines:
                raise TypeError("not a value error")


# -- edge parsing ----------------------------------------------------------------


def test_parse_basic_edges():
    events = list(parse_edge_stream(["1,2,1", "1,3,1"]))
    assert events == [EdgeEvent(1, 2, 1), EdgeEvent(1, 3, 1)]
    assert events[0].weight == 1.0


def test_parse_weighted_edges():
    (event,) = parse_edge_stream(["1,2,5,3"], has_weight=True)
    assert event == EdgeEvent(1, 2, 3, 5.0)


def test_non_finite_weights_rejected():
    for bad in ("nan", "inf", "-1"):
        with pytest.raises(ValueError, match="line 2"):
            list(parse_edge_stream(["1,2,1,1", f"1,2,{bad},1"], has_weight=True))
        with pytest.raises(ValueError, match="weight"):
            EdgeEvent(1, 2, 1, float(bad))


def test_parse_rejects_decreasing_ticks_with_line_number():
    with pytest.raises(ValueError, match="^line 2: tick regression: got 2 after 4$"):
        list(parse_edge_stream(["1,2,4", "3,4,2"]))
    with pytest.raises(ValueError, match="^line 4: tick regression: got 2 after 4$"):
        list(parse_edge_stream(["1,2,4", "", "  ", "3,4,2"]))


def test_parse_rejects_bad_rows():
    with pytest.raises(ValueError, match="line 1"):
        list(parse_edge_stream(["1,2"]))
    with pytest.raises(ValueError, match="line 1"):
        list(parse_edge_stream(["1,2,x"]))
    with pytest.raises(ValueError, match="line 1"):
        list(parse_edge_stream(["1,2,0"]))  # ticks start at 1
    with pytest.raises(ValueError, match="^line 1: non-integer tick '1.5'$"):
        list(parse_edge_stream(["1,2,1.5"]))
    with pytest.raises(ValueError, match="^line 2: non-numeric weight 'abc'$"):
        list(parse_edge_stream(["", "1,2,abc,1"], has_weight=True))


def test_parse_keeps_string_identifiers():
    (event,) = parse_edge_stream(["alice,bob,7"])
    assert event.source == "alice"
    assert event.dest == "bob"


# -- record parsing ----------------------------------------------------------------


def test_record_header_parsing():
    schema = parse_record_header("cat:src,num:bytes,tick")
    assert schema.n_categorical == 1
    assert schema.n_numeric == 1
    assert schema.has_tick
    with pytest.raises(ValueError):
        parse_record_header("src,num:bytes")
    with pytest.raises(ValueError):
        parse_record_header("tick,tick")
    with pytest.raises(ValueError):
        parse_record_header("tick")


def test_record_stream_parsing():
    lines = ["cat:proto,num:size,tick", "tcp,10,1", "udp,20,2"]
    schema, records = parse_record_stream(lines)
    records = list(records)
    assert records[0].categorical == ("tcp",)
    assert records[0].numeric == (10.0,)
    assert records[1].tick == 2


def test_record_stream_synthesizes_ticks_when_missing():
    lines = ["cat:proto"] + ["tcp"] * 5
    _, records = parse_record_stream(lines, tick_every=2)
    assert [r.tick for r in records] == [1, 1, 2, 2, 3]


def test_blank_lines_move_neither_the_header_nor_synthetic_ticks():
    lines = ["", " ", "cat:proto", "tcp", "", "tcp", "\t", "tcp", "tcp", "", "tcp"]
    schema, records = parse_record_stream(lines, tick_every=2)
    assert schema.names == ("proto",)
    assert [r.tick for r in records] == [1, 1, 2, 2, 3]


def test_record_stream_errors_name_lines():
    lines = ["cat:proto,num:size", "tcp,abc"]
    _, records = parse_record_stream(lines)
    with pytest.raises(ValueError, match="line 2"):
        list(records)
    _, records = parse_record_stream(["cat:a,tick", "x,3", "y,2"])
    with pytest.raises(ValueError, match="^line 3: tick regression: got 2 after 3$"):
        list(records)
    _, records = parse_record_stream(["cat:a,num:x,tick", "u,abc,1", "v,1,x"])
    with pytest.raises(ValueError, match="^line 2: non-numeric value 'abc'$"):
        list(records)
    _, records = parse_record_stream(["cat:a,tick", "", "v,1.5"])
    with pytest.raises(ValueError, match="^line 3: non-integer tick '1.5'$"):
        list(records)
    with pytest.raises(ValueError, match="^line 2: header field 'x' must be"):
        parse_record_stream(["", "cat:a,x"])
    with pytest.raises(ValueError, match="^record file is empty$"):
        parse_record_stream(["", "  "])



@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_record_stream_rejects_non_finite_numeric_values(bad):
    _, records = parse_record_stream(["cat:a,num:x,tick", "u,1.5,1", f"v,{bad},1"])
    with pytest.raises(ValueError, match="line 3: numeric value must be finite"):
        list(records)
    with pytest.raises(ValueError, match="finite"):
        MultiAspectRecord(("v",), (float(bad),), 1)


def test_a_numeric_attribute_float_cannot_take_raises_value_error():
    with pytest.raises(ValueError, match="^numeric attribute too large for a float$"):
        MultiAspectRecord((), (10**400,))


def test_huge_ticks_rejected():
    huge = 10**400
    with pytest.raises(ValueError, match="line 2: tick too large"):
        list(parse_edge_stream(["1,2,1", f"1,2,{huge}"]))
    _, records = parse_record_stream(["cat:a,tick", f"u,{huge}"])
    with pytest.raises(ValueError, match="line 2: tick too large"):
        list(records)
    with pytest.raises(ValueError, match="tick too large"):
        EdgeEvent(1, 2, huge)
    with pytest.raises(ValueError, match="tick too large"):
        MultiAspectRecord(("u",), (), huge)
    # The largest tick a float holds still scores.
    big = int(sys.float_info.max)
    assert next(iter(parse_edge_stream([f"1,2,{big}"]))).tick == big
    assert MultiAspectRecord(("u",), (), big).tick == big


@pytest.mark.parametrize(
    "make",
    [
        lambda tick: EdgeEvent(1, 2, tick),
        lambda tick: MultiAspectRecord(("a",), (1.0,), tick),
    ],
)
def test_ticks_must_be_integers(make):
    for bad in (1.5, 2.5, 3.0, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match=f"tick must be an integer, got {bad}"):
            make(bad)
    assert make(np.int64(3)).tick == 3
    assert make(True).tick == 1


def test_record_stream_rejects_numeric_values_outside_log_domain():
    _, records = parse_record_stream(["cat:a,num:x,tick", "u,-0.5,1", "v,-1,1"])
    with pytest.raises(ValueError, match="line 3: numeric value must be > -1"):
        list(records)


# -- feedback parsing -----------------------------------------------------------------


def test_feedback_parsing():
    lines = ["12,1", "40,0", "node,9,1"]
    edge_labels, node_labels = parse_feedback(lines)
    assert edge_labels == {12: 1, 40: 0}
    assert node_labels == [(9, 1)]
    assert parse_feedback(["12,1", "12,0"]) == ({12: 0}, [])  # the later line wins
    with pytest.raises(ValueError, match="line 1"):
        parse_feedback(["12,7"])
    with pytest.raises(ValueError, match="line 1"):
        parse_feedback(["-3,1"])
    with pytest.raises(ValueError, match="line 1"):
        parse_feedback(["node,9"])
    with pytest.raises(ValueError, match="^line 1: non-integer index 'x'$"):
        parse_feedback(["x,1"])
    with pytest.raises(ValueError, match="^line 2: non-integer label 'one'$"):
        parse_feedback(["", "3,one"])
    with pytest.raises(ValueError, match="^line 1: non-integer label 'x'$"):
        parse_feedback(["node,5,x"])
    with pytest.raises(ValueError, match="^fb.txt:3: label must be 0 or 1, got 7$"):
        parse_feedback(["1,1", " ", "1,7"], "fb.txt")


# -- window aggregation ----------------------------------------------------------------


def test_ticks_1_to_25_make_three_windows():
    events = [EdgeEvent(1, 2, t) for t in range(1, 26)]
    windows = window_aggregate(events, [0] * 25, WindowSpec(10, 2))
    assert len(windows) == 3
    assert [w.counts[0].sum() for w, _ in windows] == [9, 10, 6]


def test_window_label_needs_enough_attack_edges():
    events = [EdgeEvent(1, 2, 1) for _ in range(5)]
    windows = window_aggregate(events, [1, 0, 0, 0, 0], WindowSpec(10, 2))
    assert windows[0][1] == 0
    windows = window_aggregate(events, [1, 1, 0, 0, 0], WindowSpec(10, 2))
    assert windows[0][1] == 1


def test_threshold_50_flags_exactly_the_heavy_window():
    events, labels = [], []
    for window_index in range(4):
        tick = window_index * 10 + 1
        attack = 60 if window_index == 2 else 3
        for i in range(100):
            events.append(EdgeEvent(i % 7, (i + 1) % 7, tick))
            labels.append(1 if i < attack else 0)
    windows = window_aggregate(events, labels, WindowSpec(10, 50))
    assert [label for _, label in windows] == [0, 0, 1, 0]


def test_misaligned_labels_rejected():
    events = [EdgeEvent(1, 2, 1)]
    with pytest.raises(ValueError):
        window_aggregate(events, [0, 1], WindowSpec(10, 2))


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec(0, 5)
    with pytest.raises(ValueError):
        WindowSpec(10, 0)


# -- synthetic streams --------------------------------------------------------------------


def test_burst_stream_is_deterministic_and_labelled():
    first = synth_burst_stream(seed=5)
    second = synth_burst_stream(seed=5)
    assert first == second
    events, labels = first
    assert len(events) == 10_500
    assert sum(labels) == 500
    ticks = [e.tick for e in events]
    assert ticks == sorted(ticks)
    burst_pairs = {(e.source, e.dest) for e, l in zip(events, labels) if l}
    assert len(burst_pairs) == 1


def test_burst_stream_without_burst_is_all_normal():
    events, labels = synth_burst_stream(seed=1, n_burst=0)
    assert sum(labels) == 0
    assert len(events) == 10_000


def test_burst_stream_validation():
    with pytest.raises(ValueError):
        synth_burst_stream(seed=1, burst_tick=99, n_ticks=100, burst_span=5)
    with pytest.raises(ValueError):
        synth_burst_stream(seed=1, n_nodes=1)


def test_stationary_stream_keeps_monitored_pair_separate():
    events, pair = synth_stationary_stream(seed=2, n_ticks=100, background_per_tick=20)
    assert all(e.tick <= 100 for e in events)
    pair_edges = [e for e in events if (e.source, e.dest) == pair]
    assert 50 <= len(pair_edges) <= 160  # Poisson(1) per tick
    background_nodes = {
        e.source for e in events if (e.source, e.dest) != pair
    } | {e.dest for e in events if (e.source, e.dest) != pair}
    assert pair[0] not in background_nodes and pair[1] not in background_nodes


def test_graph_window_stream_shape():
    events, labels, planted = synth_graph_windows(seed=3)
    assert len(events) == len(labels)
    assert 0 <= planted < 20
    spec = WindowSpec(10, 50)
    buckets = {spec.bucket(e.tick) for e in events}
    assert buckets == set(range(20))
    positive_ticks = {e.tick for e, l in zip(events, labels) if l}
    assert {spec.bucket(t) for t in positive_ticks} == {planted}


def test_attack_stream_shape():
    events, labels = synth_attack_stream(seed=4)
    assert len(events) == len(labels)
    attack = [e for e, l in zip(events, labels) if l]
    assert len({(e.source, e.dest) for e in attack}) == 1
    assert min(e.tick for e in attack) >= 100
