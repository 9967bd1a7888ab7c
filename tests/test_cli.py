import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from streamsketch import cli, midas
from streamsketch.cli import main
from streamsketch.events import EdgeEvent
from streamsketch.ingest import parse_record_stream
from streamsketch.metrics import reject_nan
from streamsketch.midas import ChiSquaredTables, DecisionRule, MidasDetector
from streamsketch.synth import synth_burst_stream


def run_cli(*argv):
    return main(list(argv))


def write_edges(path, rows):
    path.write_text("".join(f"{u},{v},{t}\n" for u, v, t in rows))


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        run_cli("frobnicate")
    assert err.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        run_cli("midas", "--no-such-flag")
    assert err.value.code == 2


def test_missing_input_file_exits_1(tmp_path, capsys):
    code = run_cli("midas", "--input", str(tmp_path / "absent.csv"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_midas_reads_stdin_and_writes_stdout_by_default(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("1,2,1\n1,2,2\n1,2,2\n"))
    assert run_cli("midas", "--buckets", "1024") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert float(lines[0]) == 0.0


def test_a_byte_order_mark_before_line_1_is_ignored(tmp_path, monkeypatch, capsys):
    """Excel and Notepad start a UTF-8 file with a byte-order mark, U+FEFF,
    which ``str.strip`` keeps: an input, side file or stdin that starts with
    one reads as its copy without it, with the same line numbers."""
    edges, config, labels, records = (
        tmp_path / name for name in ("edges.csv", "config.txt", "labels.txt", "records.csv")
    )
    edge_text, label_text = "1,2,1\n1,2,1\n1,2,2\n1,2,2\n", "0\n0\n1\n1\n"
    edges.write_text(edge_text)
    labels.write_text(label_text)
    midas_r = ["midas-r", "--input", str(edges)]
    cases = [  # argv, the input given a mark ("-" is stdin), its text, what the run prints
        (midas_r, edges, edge_text, "0\n0\n0.333333333\n1\n"),
        (["midas-r"], "-", edge_text, "0\n0\n0.333333333\n1\n"),
        (midas_r + ["--config", str(config)], config, "rows=0\n", "n_rows must be >= 1, got 0"),
        (midas_r + ["--eval", "--labels", str(labels)], labels, label_text, "auc"),
        (["mstream", "--input", str(records)], records, "cat:a,num:x,tick\nu,1.5,1\n", "0\n"),
    ]

    def run(argv, where, text):
        if where == "-":
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        else:
            where.write_text(text, encoding="utf-8")
        code = run_cli(*argv)
        return code, *capsys.readouterr()

    for argv, where, text, printed in cases:
        plain = run(argv, where, text)
        assert printed in plain[1] + plain[2], argv
        assert run(argv, where, "\ufeff" + text) == plain, argv


def test_midas_writes_one_score_per_line(tmp_path):
    edges = tmp_path / "edges.csv"
    out = tmp_path / "scores.txt"
    write_edges(edges, [(1, 2, 1), (1, 2, 2), (1, 2, 2), (3, 4, 3)])
    assert run_cli("midas", "--input", str(edges), "--output", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert all(float(line) >= 0 for line in lines)


def test_midas_output_is_deterministic(tmp_path):
    edges = tmp_path / "edges.csv"
    write_edges(edges, [(i % 9, (i * 7) % 9, 1 + i // 10) for i in range(300)])
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli("midas-r", "--input", str(edges), "--output", str(out1), "--seed", "9")
    run_cli("midas-r", "--input", str(edges), "--output", str(out2), "--seed", "9")
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_env_var_is_honoured(tmp_path, monkeypatch):
    edges = tmp_path / "edges.csv"
    write_edges(edges, [(i % 5, (i + 1) % 5, 1) for i in range(50)])
    out1, out2, out3 = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
    monkeypatch.setenv("STREAMSKETCH_SEED", "123")
    run_cli("midas", "--input", str(edges), "--output", str(out1))
    run_cli("midas", "--input", str(edges), "--output", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    monkeypatch.setenv("STREAMSKETCH_SEED", "124")
    run_cli("midas", "--input", str(edges), "--output", str(out3), "--seed", "123")
    assert out1.read_bytes() == out3.read_bytes()  # explicit flag beats environment


def test_config_file_is_weaker_than_flags(tmp_path):
    edges = tmp_path / "edges.csv"
    write_edges(edges, [(1, 2, 1), (1, 2, 2)])
    config = tmp_path / "run.conf"
    config.write_text("buckets=64\nseed=5\n")
    out1, out2, out3 = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
    run_cli("midas", "--input", str(edges), "--output", str(out1), "--config", str(config))
    run_cli("midas", "--input", str(edges), "--output", str(out2), "--buckets", "64", "--seed", "5")
    run_cli(
        "midas", "--input", str(edges), "--output", str(out3),
        "--config", str(config), "--seed", "6",
    )
    assert out1.read_bytes() == out2.read_bytes()
    run_cli("midas", "--input", str(edges), "--output", str(out2), "--buckets", "64", "--seed", "6")
    assert out3.read_bytes() == out2.read_bytes()


def test_config_file_beats_the_seed_environment_variable(tmp_path, monkeypatch):
    edges = tmp_path / "edges.csv"
    write_edges(edges, [(i % 5, (i + 1) % 5, 1 + i // 10) for i in range(50)])
    config = tmp_path / "run.conf"
    config.write_text("seed=123\n")
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    monkeypatch.setenv("STREAMSKETCH_SEED", "124")
    run_cli("midas", "--input", str(edges), "--output", str(out1), "--config", str(config))
    run_cli("midas", "--input", str(edges), "--output", str(out2), "--seed", "123")
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "entry, seed_env, message",
    [
        ("rows=abc", None, "argument --rows: invalid int value: 'abc'"),
        ("score_mode=avg", None, "argument --score-mode: invalid choice: 'avg'"),
        ("has_weight=1", None, "argument --has-weight: ignored explicit argument '1'"),
        ("", "abc", "argument --seed: invalid int value: 'abc'"),
    ],
)
def test_bad_config_value_or_seed_variable_exits_2_naming_the_option(
    tmp_path, capsys, monkeypatch, entry, seed_env, message
):
    edges = tmp_path / "edges.csv"
    write_edges(edges, [(1, 2, 1)])
    config = tmp_path / "run.conf"
    config.write_text(entry + "\n")
    if seed_env is not None:
        monkeypatch.setenv("STREAMSKETCH_SEED", seed_env)
    with pytest.raises(SystemExit) as err:
        run_cli("midas-r", "--input", str(edges), "--config", str(config))
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


SEED_COMMANDS = ["midas", "anoedge-g", "anoedge-l", "anograph", "mstream", "sess", "synth", "pomdp"]


@pytest.mark.parametrize("source", ["flag", "config", "env"])
@pytest.mark.parametrize("command", SEED_COMMANDS)
def test_seed_out_of_range_exits_2_naming_the_option(
    tmp_path, capsys, monkeypatch, command, source
):
    if command == "synth":
        argv = ["synth", "--out-edges", str(tmp_path / "edges.csv")]
    elif command == "pomdp":
        argv = ["pomdp", "--p", "0.1", "--q", "0.1", "--predictor", "opt", "--steps", "10"]
    else:
        argv = detector_argv(tmp_path, command)
    if source == "flag":
        argv += ["--seed", "-1"]
    elif source == "config":
        config = tmp_path / "run.conf"
        config.write_text("seed=-1\n")
        argv += ["--config", str(config)]
    else:
        monkeypatch.setenv("STREAMSKETCH_SEED", "-3")
    with pytest.raises(SystemExit) as err:
        run_cli(*argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: seed must be in [0, 2**64)" in captured.err


def test_seed_spans_the_64_bits_a_snapshot_stores(tmp_path, capsys):
    argv = detector_argv(tmp_path, "midas")
    assert run_cli(*argv, "--seed", str(2**64 - 1)) == 0
    with pytest.raises(SystemExit) as err:
        run_cli(*argv, "--seed", str(2**64))
    assert err.value.code == 2
    assert "argument --seed: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option",
    [
        ("midas", "--alpha=0.3"),
        ("midas", "--merge-threshold=5"),
        ("midas-r", "--merge-threshold=5"),
        ("midas", "--score-mode=sum"),
        ("anograph", "--k=2"),
        ("mstream", "--has-weight"),
    ],
)
def test_option_the_command_would_ignore_exits_2(tmp_path, capsys, command, option):
    with pytest.raises(SystemExit) as err:
        run_cli(*detector_argv(tmp_path, command), option)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {option}" in captured.err


def test_config_entries_for_options_the_command_lacks_are_ignored(tmp_path, capsys):
    # One file serves several commands; k belongs to anograph and must not be
    # taken for synth's --kind.
    config = tmp_path / "shared.conf"
    config.write_text("k=3\nalpha=0.3\nwindow_ticks=5\n")
    argv = ["synth", "--out-edges", "-", "--n-background", "50"]
    assert run_cli(*argv) == 0
    plain = capsys.readouterr().out
    assert run_cli(*argv, "--config", str(config)) == 0
    assert capsys.readouterr().out == plain
    with pytest.raises(SystemExit) as err:
        run_cli(*argv, "--config", str(config), "--no-such-flag")
    assert err.value.code == 2


def test_flag_epsilon_adds_flag_column(tmp_path):
    edges = tmp_path / "edges.csv"
    write_edges(edges, [(1, 2, t) for t in (1, 2, 3, 4)])
    out = tmp_path / "scores.txt"
    run_cli("midas", "--input", str(edges), "--output", str(out), "--flag-epsilon", "0.05")
    for line in out.read_text().splitlines():
        score, flag = line.split(",")
        float(score)
        assert flag in ("0", "1")


def test_eval_mode_emits_auc_json(tmp_path):
    edges = tmp_path / "edges.csv"
    labels = tmp_path / "labels.txt"
    out = tmp_path / "metrics.json"
    rows = [(1, 2, 1)] * 5 + [(3, 4, 2)] * 5
    write_edges(edges, rows)
    labels.write_text("".join("0\n" if i < 5 else "1\n" for i in range(10)))
    code = run_cli(
        "midas", "--input", str(edges), "--output", str(out),
        "--eval", "--labels", str(labels),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert 0.0 <= payload["auc"] <= 1.0


def test_eval_mode_rejects_a_nan_score_by_its_position(tmp_path, capsys):
    # The counts overflow to inf, and the third edge scores nan.
    edges = tmp_path / "edges.csv"
    labels = tmp_path / "labels.txt"
    edges.write_text("u,v,1e308,1\nu,v,1e308,1\nu,v,1e308,2\n")
    labels.write_text("0\n0\n1\n")
    argv = ["midas-r", "--has-weight", "--input", str(edges), "--eval", "--labels", str(labels)]
    with np.errstate(over="ignore"):
        assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3: score is nan\n"


def test_eval_subcommand(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    labels = tmp_path / "labels.txt"
    scores.write_text("1\n2\n3\n")
    labels.write_text("0\n0\n1\n")
    assert run_cli("eval", "--scores", str(scores), "--labels", str(labels)) == 0
    assert json.loads(capsys.readouterr().out) == {"auc": 1.0}


def test_eval_subcommand_rejects_misaligned_files(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    labels = tmp_path / "labels.txt"
    scores.write_text("1\n2\n")
    labels.write_text("0\n")
    assert run_cli("eval", "--scores", str(scores), "--labels", str(labels)) == 1


def test_eval_subcommand_rejects_nan_scores_and_orders_inf(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\n0\n")
    scores.write_text("0.1\nnan\n0.3\n")
    assert run_cli("eval", "--scores", str(scores), "--labels", str(labels)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {scores}:2: score is nan\n"
    scores.write_text("0.1\ninf\n0.3\n")
    assert run_cli("eval", "--scores", str(scores), "--labels", str(labels)) == 0
    assert json.loads(capsys.readouterr().out) == {"auc": 1.0}


def test_synth_roundtrips_through_midas_eval(tmp_path):
    edges = tmp_path / "edges.csv"
    labels = tmp_path / "labels.txt"
    out = tmp_path / "metrics.json"
    assert run_cli(
        "synth", "--kind", "burst", "--seed", "3",
        "--out-edges", str(edges), "--out-labels", str(labels),
        "--n-background", "2000", "--n-burst", "100",
    ) == 0
    assert run_cli(
        "midas-r", "--input", str(edges), "--output", str(out),
        "--eval", "--labels", str(labels), "--seed", "3",
    ) == 0
    assert json.loads(out.read_text())["auc"] > 0.9


def test_synth_error_names_the_bad_parameter(capsys):
    assert run_cli("synth", "--out-edges", "-", "--n-background", "0") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_background must be >= 1, got 0\n"


@pytest.mark.parametrize("kind", ["attack", "windows", "stationary"])
def test_synth_rejects_a_burst_shape_option_given_with_another_kind(tmp_path, capsys, kind):
    """A burst-shape flag or config entry would be dropped, so it exits 1,
    naming the option, and writes no file."""
    out = tmp_path / "edges.csv"
    config = tmp_path / "shape.cfg"
    config.write_text("burst_span=2\n")
    flags = [[f"--{name.replace('_', '-')}", "3"] for name in cli.BURST_SHAPE]
    for given in flags + [["--config", str(config)]]:
        assert run_cli("synth", "--kind", kind, "--out-edges", str(out), *given) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        name = given[0] if given in flags else "--burst-span"
        assert captured.err == f"error: {name} requires --kind burst\n"
        assert not out.exists()


def test_anoedge_and_anograph_commands(tmp_path):
    edges = tmp_path / "edges.csv"
    write_edges(edges, [(i % 4, (i + 1) % 4, 1 + i // 20) for i in range(100)])
    out = tmp_path / "scores.txt"
    assert run_cli("anoedge-l", "--input", str(edges), "--output", str(out)) == 0
    assert len(out.read_text().splitlines()) == 100
    assert run_cli(
        "anograph", "--input", str(edges), "--output", str(out), "--window-ticks", "2"
    ) == 0
    assert len(out.read_text().splitlines()) == 3  # ticks 1..5 in spans of 2
    assert run_cli(
        "anograph-k", "--input", str(edges), "--output", str(out),
        "--window-ticks", "2", "--k", "3",
    ) == 0
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize("command", ["midas", "anoedge-g"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_weight_exits_1_with_line_number(tmp_path, capsys, command, bad):
    edges = tmp_path / "edges.csv"
    edges.write_text(f"1,2,1,1\n3,4,{bad},2\n")
    assert run_cli(command, "--has-weight", "--input", str(edges)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2:" in captured.err



@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_numeric_attribute_exits_1_with_line_number(tmp_path, capsys, bad):
    records = tmp_path / "records.csv"
    records.write_text(f"cat:a,num:x,tick\nu,1.5,1\nv,{bad},1\n")
    assert run_cli("mstream", "--input", str(records)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 3:" in captured.err


HUGE_TICK = "9" * 400  # an integer float() cannot represent


@pytest.mark.parametrize(
    "command, text",
    [
        ("midas", f"1,2,1\n1,2,{HUGE_TICK}\n"),
        ("midas-r", f"1,2,1\n1,2,{HUGE_TICK}\n"),
        ("mstream", f"cat:a,tick\nu,{HUGE_TICK}\n"),
    ],
)
def test_huge_tick_exits_1_with_line_number(tmp_path, capsys, command, text):
    path = tmp_path / "input.csv"
    path.write_text(text)
    assert run_cli(command, "--input", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: line 2: tick too large" in captured.err


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (["midas"], {}, "line 2: tick regression: got 3 after 5"),
        (["mstream", "--input", "R"], {"R": "1,2,1\nu,v,2\n"},
         "line 1: header field '1' must be 'cat:NAME', 'num:NAME' or 'tick'"),
        (["sess", "--input", "E", "--feedback", "F"], {"E": "1,2,5\n", "F": "0,1\n1,7\n"},
         "F:2: label must be 0 or 1, got 7"),
    ],
    ids=["stream-tick", "record-header", "feedback-file"],
)
def test_errors_name_the_file_and_line(tmp_path, capsys, monkeypatch, argv, files, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO("1,2,5\n1,2,3\n"))
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("k", ["0", "-1"])
def test_anograph_k_checks_k_before_reading_an_empty_input(tmp_path, capsys, k):
    """As --window-ticks and --tau are, --k is checked whether or not a
    window is ever scored."""
    edges = tmp_path / "edges.csv"
    edges.write_text("")
    assert run_cli("anograph-k", "--input", str(edges), "--k", k) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: k must be >= 1, got {k}\n"


@pytest.mark.parametrize("side", ["--input", "--feedback"])
def test_undecodable_file_reports_the_decode_error_without_a_line(tmp_path, capsys, side):
    argv = detector_argv(tmp_path, "sess")
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0,1\n\xff,2,1\n")
    argv[argv.index(side) + 1] = str(path)
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert "line" not in captured.err and "bad.txt:" not in captured.err


def test_largest_float_tick_still_scores(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text(f"1,2,1\n1,2,{int(sys.float_info.max)}\n")
    assert run_cli("midas-r", "--input", str(edges)) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_numeric_value_outside_log_domain_exits_1_with_line_number(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text("cat:a,num:x,tick\nu,1.5,1\nv,-2,1\n")
    assert run_cli("mstream", "--input", str(records)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: line 3: numeric value must be > -1" in captured.err


DETECTOR_COMMANDS = [
    "midas", "midas-r", "midas-f", "anoedge-g", "anoedge-l",
    "anograph", "anograph-k", "mstream", "sess",
]


def detector_argv(tmp_path, command):
    """Arguments that run ``command`` on a small valid input."""
    if command == "mstream":
        path = tmp_path / "records.csv"
        rows = "".join(f"c{i % 3},{i},{1 + i // 4}\n" for i in range(12))
        path.write_text("cat:a,num:x,tick\n" + rows)
        return [command, "--input", str(path)]
    path = tmp_path / "edges.csv"
    write_edges(path, [(i % 3, (i + 1) % 3, 1 + i // 4) for i in range(12)])
    argv = [command, "--input", str(path)]
    if command == "sess":
        feedback = tmp_path / "feedback.txt"
        feedback.write_text("3,1\n")
        argv += ["--feedback", str(feedback)]
    return argv


@pytest.mark.parametrize("command", DETECTOR_COMMANDS)
def test_time_line_on_every_detector_command(tmp_path, capsys, command):
    argv = detector_argv(tmp_path, command)
    assert run_cli(*argv) == 0
    items = len(capsys.readouterr().out.splitlines())
    assert run_cli(*argv, "--time") == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == items
    report = json.loads(captured.err)
    assert set(report) == {"seconds", "items"}
    assert report["items"] == items
    assert report["seconds"] >= 0


@pytest.mark.parametrize("command", DETECTOR_COMMANDS)
def test_eval_without_labels_is_rejected_on_every_detector_command(tmp_path, capsys, command):
    assert run_cli(*detector_argv(tmp_path, command), "--eval") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --eval requires --labels\n"

def _value_options(command: str) -> list[str]:
    """The options of ``command`` that take a value, as its usage lists them."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.suppress(SystemExit):
        main([command, "--help"])
    usage = text.getvalue().split("\n\n")[0]
    return re.findall(r"(--[a-z-]+) (?:[A-Z_]+|\{[^}]*\})", usage)


OPTION_VALUES = {
    "--seed": "7", "--rows": "3", "--buckets": "16", "--alpha": "0.7",
    "--merge-threshold": "5", "--score-mode": "sum", "--flag-epsilon": "0.05",
    "--window-ticks": "2", "--tau": "2", "--k": "1", "--decay-every": "2",
    "--layout": "3d", "--boost": "4", "--damp": "0.1",
}
CONFIG_CASES = [
    (command, option)
    for command in DETECTOR_COMMANDS
    for option in _value_options(command)
    if option != "--config"
]


def test_every_value_option_has_a_config_case():
    assert {option for _, option in CONFIG_CASES} == set(OPTION_VALUES) | {
        "--input", "--output", "--labels", "--feedback",
    }


@pytest.mark.parametrize("command, option", CONFIG_CASES)
def test_config_entry_acts_like_its_flag(tmp_path, capsys, command, option):
    argv = detector_argv(tmp_path, command)
    out = tmp_path / "out.txt"
    if option in argv:  # --input, --feedback: move the value to the option under test
        at = argv.index(option)
        value = argv[at + 1]
        del argv[at : at + 2]
    elif option == "--output":
        value = str(out)
    elif option == "--labels":
        value = str(tmp_path / "labels.txt")
        (tmp_path / "labels.txt").write_text("0\n" * 4 + "1\n" * 8)
        argv += ["--eval"]
        if command.startswith("anograph"):
            argv += ["--window-ticks", "1", "--tau", "1"]  # windows of both labels
    else:
        value = OPTION_VALUES[option]
    if option == "--decay-every":  # synthetic ticks need a file without a tick column
        path = tmp_path / "records.csv"
        path.write_text("cat:a,num:x\n" + "".join(f"c{i % 3},{i}\n" for i in range(12)))
    config = tmp_path / "run.conf"
    config.write_text(f"{option[2:].replace('-', '_')}={value}\n")
    runs = []
    for given in ([option, value], ["--config", str(config)]):
        code = run_cli(*argv, *given)
        captured = capsys.readouterr()
        written = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        runs.append((code, captured.out, captured.err, written))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


@pytest.mark.parametrize("value", ["0", "-1"])
def test_mstream_rejects_decay_every_below_1(tmp_path, capsys, value):
    records = tmp_path / "records.csv"
    records.write_text("cat:a,num:x\n" + "".join(f"c{i % 3},{i}\n" for i in range(5)))
    assert run_cli("mstream", "--input", str(records), "--decay-every", value) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: tick_every (records per synthetic tick) must be >= 1, got {value}\n"
    )


def test_mstream_rejects_decay_every_on_a_file_with_a_tick_column(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text("\ncat:a,num:x,tick\n" + "".join(f"c{i % 3},{i},1\n" for i in range(5)))
    assert run_cli("mstream", "--input", str(records), "--decay-every", "2") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 2: tick_every (records per synthetic tick)"
        " needs a file without a tick column\n"
    )


def test_config_comment_after_a_value_is_dropped(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    write_edges(edges, [(i % 3, (i + 1) % 4, 1 + i // 4) for i in range(12)])
    config = tmp_path / "run.conf"
    config.write_text("# shape\nrows=3  # three rows\nbuckets=16\t# tab before the comment\n")
    assert run_cli("midas", "--input", str(edges), "--rows", "3", "--buckets", "16") == 0
    expected = capsys.readouterr().out
    assert run_cli("midas", "--input", str(edges), "--config", str(config)) == 0
    assert capsys.readouterr().out == expected


def test_config_hash_inside_a_value_is_kept(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    write_edges(edges, [(1, 2, 1)])
    config = tmp_path / "run.conf"
    config.write_text("buckets=16#not-a-comment\n")
    with pytest.raises(SystemExit) as err:
        run_cli("midas", "--input", str(edges), "--config", str(config))
    assert err.value.code == 2
    assert "invalid int value: '16#not-a-comment'" in capsys.readouterr().err


def test_mstream_builds_its_detector_before_the_timed_scoring(tmp_path, monkeypatch):
    events = []

    class Detector(cli.MstreamDetector):
        def __init__(self, *args, **kwargs):
            events.append("build")
            super().__init__(*args, **kwargs)

    def clock():
        events.append("clock")
        return 0.0

    monkeypatch.setattr(cli, "MstreamDetector", Detector)
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=clock))
    assert run_cli(*detector_argv(tmp_path, "mstream"), "--time") == 0
    assert events == ["build", "clock", "clock"]


def test_mstream_command(tmp_path):
    records = tmp_path / "records.csv"
    out = tmp_path / "scores.txt"
    lines = ["cat:proto,num:size,tick"]
    for i in range(50):
        lines.append(f"p{i % 3},{(i % 7) * 10},{1 + i // 10}")
    records.write_text("".join(line + "\n" for line in lines))
    assert run_cli("mstream", "--input", str(records), "--output", str(out)) == 0
    assert len(out.read_text().splitlines()) == 50


@pytest.mark.parametrize(
    "tick_column, decay_every", [(True, None), (False, "3"), (False, "12")],
    ids=["tick-column", "tickless-3", "tickless-12"],
)
def test_mstream_prints_the_per_record_totals(tmp_path, capsys, tick_column, decay_every):
    """Ticks of 12 to 40 records, so most are scored as batches; stdout is
    FORMAT of what score gives one record at a time."""
    rng = np.random.default_rng(11)
    ticks = np.repeat(np.arange(1, 9), rng.integers(12, 41, 8))
    lines = ["cat:host,cat:service,num:bytes,num:duration" + (",tick" if tick_column else "")]
    for tick in ticks.tolist():
        host, service = rng.integers(0, 6), rng.integers(0, 3)
        row = f"h{host},s{service},{rng.lognormal(6, 1.5):.1f},{rng.exponential(2):.3f}"
        lines.append(row + (f",{tick}" if tick_column else ""))
    path = tmp_path / "records.csv"
    path.write_text("\n".join(lines) + "\n")
    argv = ["mstream", "--input", str(path), "--seed", "9"]
    assert run_cli(*argv, *(["--decay-every", decay_every] if decay_every else [])) == 0

    schema, records = parse_record_stream(
        path.read_text().splitlines(), tick_every=int(decay_every) if decay_every else None
    )
    detector = cli.MstreamDetector(schema.n_categorical, schema.n_numeric, seed=9)
    expected = [cli.FORMAT.format(detector.score(record).total) for record in records]
    assert len(expected) == len(ticks)
    assert capsys.readouterr().out == "".join(line + "\n" for line in expected)


def test_sess_command_applies_feedback(tmp_path):
    edges = tmp_path / "edges.csv"
    feedback = tmp_path / "feedback.txt"
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_edges(edges, [(1, 2, t // 4 + 1) for t in range(40)])
    feedback.write_text("")
    run_cli("sess", "--input", str(edges), "--feedback", str(feedback), "--output", str(out1))
    feedback.write_text("10,1\n")
    run_cli("sess", "--input", str(edges), "--feedback", str(feedback), "--output", str(out2))
    first = [float(x) for x in out1.read_text().splitlines()]
    second = [float(x) for x in out2.read_text().splitlines()]
    assert first[:11] == second[:11]  # feedback lands after edge 10 is scored
    assert second[11] > first[11]     # boosted current count raises the next score


def test_sess_node_feedback_needs_3d_layout(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    feedback = tmp_path / "feedback.txt"
    write_edges(edges, [(1, 2, 1)])
    feedback.write_text("node,1,0\n")
    assert run_cli("sess", "--input", str(edges), "--feedback", str(feedback)) == 1
    assert "3d" in capsys.readouterr().err
    out = tmp_path / "scores.txt"
    assert run_cli(
        "sess", "--input", str(edges), "--feedback", str(feedback),
        "--layout", "3d", "--output", str(out),
    ) == 0


@pytest.mark.parametrize("layout", ["flat", "3d"])
def test_sess_feedback_past_the_stream_end_exits_1(tmp_path, capsys, layout):
    edges = tmp_path / "edges.csv"
    feedback = tmp_path / "feedback.txt"
    write_edges(edges, [(1, 2, 1), (2, 3, 1)])
    feedback.write_text("999999,1\n")
    argv = ["sess", "--input", str(edges), "--feedback", str(feedback), "--layout", layout]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: feedback index 999999 is past the end of the stream (2 edges)\n"
    )


@pytest.mark.parametrize("layout", ["flat", "3d"])
def test_sess_feedback_that_overflows_a_count_exits_1_at_its_index(tmp_path, capsys, layout):
    """The second boost of 1e200 takes the edge's total from 1e200 to inf:
    the error names that label, not a later edge whose score goes nan."""
    edges = tmp_path / "edges.csv"
    feedback = tmp_path / "feedback.txt"
    write_edges(edges, [("u", "v", 1), ("u", "v", 1), ("u", "v", 2), ("u", "w", 2)])
    feedback.write_text("0,0\n1,0\n")
    argv = ["sess", "--input", str(edges), "--feedback", str(feedback), "--layout", layout]
    assert run_cli(*argv, "--boost", "1e200") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: feedback index 1: scaling overflows a count to inf\n"
    assert run_cli(*argv, "--boost", "1e100") == 0


@pytest.mark.parametrize("layout", ["flat", "3d"])
@pytest.mark.parametrize("boost", ["nan", "inf"])
def test_sess_rejects_a_non_finite_boost(tmp_path, capsys, layout, boost):
    argv = detector_argv(tmp_path, "sess") + ["--layout", layout, "--boost", boost]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "boost" in captured.err


def test_midas_f_rejects_a_nan_merge_threshold(tmp_path, capsys):
    argv = detector_argv(tmp_path, "midas-f")
    assert run_cli(*argv, "--merge-threshold", "nan") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: merge threshold must be > 0, got nan\n"
    assert run_cli(*argv, "--merge-threshold", "inf") == 0


SHAPE_CASES = [
    "midas", "midas-r", "midas-f", "anoedge-g", "anoedge-l", "anograph", "anograph-k",
    "mstream:cat+num", "mstream:num", "sess:flat", "sess:3d",
]


@pytest.mark.parametrize("flag, name", [("--rows", "n_rows"), ("--buckets", "n_buckets")])
@pytest.mark.parametrize("case", SHAPE_CASES)
def test_empty_sketch_shape_exits_1_on_every_detector_command(tmp_path, capsys, case, flag, name):
    command, _, variant = case.partition(":")
    argv = detector_argv(tmp_path, command)
    if variant == "num":  # no categorical column, so no hash family is built
        path = tmp_path / "numeric.csv"
        rows = "".join(f"{i},{i % 4},{1 + i // 4}\n" for i in range(12))
        path.write_text("num:x,num:y,tick\n" + rows)
        argv[argv.index("--input") + 1] = str(path)
    elif variant == "3d":
        argv += ["--layout", "3d"]
    assert run_cli(*argv, flag, "0") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} must be >= 1, got 0\n"


def test_pomdp_command_reproduces_imitate_row(tmp_path):
    # Estimates default to the true rates when not supplied.
    out = tmp_path / "table.csv"
    assert run_cli(
        "pomdp", "--p", "0.001", "--q", "0.02", "--predictor", "imitate",
        "--phi", "0", "--steps", "1000000", "--seeds", "3", "--output", str(out),
    ) == 0
    header, row = out.read_text().splitlines()
    assert header == "q_hat,phi,mean_accuracy,std_accuracy"
    fields = row.split(",")
    assert abs(float(fields[2]) - 0.908) < 0.005


def test_pomdp_sweep_emits_grid(tmp_path):
    out = tmp_path / "table.csv"
    assert run_cli(
        "pomdp", "--p", "0.01", "--q", "0.1", "--predictor", "opt",
        "--wait", "5,10", "--phi", "0,0.01", "--steps", "20000",
        "--seeds", "2", "--jobs", "2", "--output", str(out),
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "L,phi,mean_accuracy,std_accuracy"
    assert len(lines) == 5


def test_pomdp_sweep_runs_on_one_pool_whatever_the_jobs(tmp_path, monkeypatch):
    """``--jobs 1`` takes the pool too, with one worker, and writes the bytes
    ``--jobs 2`` writes."""
    import concurrent.futures

    workers = []
    pool = concurrent.futures.ThreadPoolExecutor

    def counting_pool(max_workers):
        workers.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counting_pool)
    tables = []
    for jobs in ("1", "2"):
        out = tmp_path / f"table-{jobs}.csv"
        assert run_cli(
            "pomdp", "--p", "0.01", "--q", "0.1", "--predictor", "opt",
            "--wait", "5,10", "--phi", "0,0.01", "--steps", "5000",
            "--seeds", "2", "--jobs", jobs, "--output", str(out),
        ) == 0
        tables.append(out.read_bytes())
    assert workers == [1, 2]
    assert tables[0] == tables[1]
    assert len(tables[0].splitlines()) == 5


def test_pomdp_rejects_zero_seeds(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(
            "pomdp", "--p", "0.01", "--q", "0.1", "--predictor", "imitate",
            "--steps", "100", "--seeds", "0",
        )
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seeds: must be >= 1, got 0" in captured.err


@pytest.mark.parametrize(
    "option, value", [("--steps", "0"), ("--steps", "-5"), ("--seeds", "-2"), ("--steps", "1e3")]
)
def test_pomdp_steps_and_seeds_below_1_exit_2_naming_the_option(capsys, option, value):
    argv = ["pomdp", "--p", "0.01", "--q", "0.1", "--predictor", "imitate", "--steps", "100"]
    with pytest.raises(SystemExit) as err:
        run_cli(*argv, option, value)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: " in captured.err


@pytest.mark.parametrize("q_hat", ["0", "-0.5", "nan", "2"])
def test_pomdp_opt_rejects_q_hat_outside_the_unit_interval(capsys, q_hat):
    assert run_cli(
        "pomdp", "--p", "0.01", "--q", "0.1", "--predictor", "opt",
        "--q-hat-single", q_hat, "--steps", "100",
    ) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: opt needs q_hat in (0, 1), got {float(q_hat)}\n"


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--wait", "x", "argument --wait: invalid comma-separated int list: 'x'"),
        ("--wait", "5,", "argument --wait: invalid comma-separated int list: '5,'"),
        ("--phi", ",", "argument --phi: invalid comma-separated float list: ','"),
        ("--q-hat", "x", "argument --q-hat: invalid comma-separated float list: 'x'"),
        ("--jobs", "0", "argument --jobs: must be >= 1, got 0"),
        ("--jobs", "-3", "argument --jobs: must be >= 1, got -3"),
    ],
)
def test_pomdp_bad_list_or_jobs_value_exits_2_naming_the_option(capsys, option, value, message):
    with pytest.raises(SystemExit) as err:
        run_cli(
            "pomdp", "--p", "0.01", "--q", "0.1", "--predictor", "imitate", "--steps", "100",
            option, value,
        )
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# -- output writing ----------------------------------------------------------


class CountingStream(io.StringIO):
    """A text stream that counts its ``write`` calls."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_scores_go_out_in_bounded_chunks_with_the_per_line_bytes(tmp_path, monkeypatch):
    # Ticks of 1 to 40 edges, so both the batch and the per-item path score.
    rows, tick = [], 1
    while len(rows) < 5000:
        rows += [(i % 13, (i * 7) % 11, tick) for i in range(1 + (tick * 7) % 40)]
        tick += 1
    edges = tmp_path / "edges.csv"
    write_edges(edges, rows)
    detector = MidasDetector("relational", seed=42)
    rule = DecisionRule.for_detector(0.05, detector)
    scores, flags = detector.process_many([EdgeEvent(u, v, t) for u, v, t in rows], rule)
    expected = "".join(f"{s:.9g},{1 if f else 0}\n" for s, f in zip(scores, flags))

    out = CountingStream()
    monkeypatch.setattr(sys, "stdout", out)
    assert run_cli("midas-r", "--flag-epsilon", "0.05", "--input", str(edges)) == 0
    assert out.getvalue() == expected
    assert out.writes <= math.ceil(len(rows) / cli.WRITE_CHUNK) + 1


def test_synth_edges_go_out_in_bounded_chunks_with_the_per_line_bytes(monkeypatch):
    events, _ = synth_burst_stream(seed=5)
    expected = "".join(f"{e.source},{e.dest},{e.tick}\n" for e in events)
    out = CountingStream()
    monkeypatch.setattr(sys, "stdout", out)
    assert run_cli("synth", "--kind", "burst", "--seed", "5", "--out-edges", "-") == 0
    assert out.getvalue() == expected
    assert out.writes <= math.ceil(len(events) / cli.WRITE_CHUNK) + 1


def _run_cli_process(argv, unbuffered: bool) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "streamsketch.cli", *argv],
        capture_output=True, env=env, timeout=120, check=False,
    )


def test_output_bytes_do_not_depend_on_an_unbuffered_stdout(tmp_path):
    edges = tmp_path / "edges.csv"
    write_edges(edges, [(i % 9, (i * 5) % 7, 1 + i // 30) for i in range(3000)])
    argv = ["midas-r", "--flag-epsilon", "0.05", "--time", "--input", str(edges)]
    buffered, unbuffered = (_run_cli_process(argv, flag) for flag in (False, True))
    assert buffered.returncode == unbuffered.returncode == 0
    assert len(buffered.stdout.splitlines()) == 3000
    assert buffered.stdout == unbuffered.stdout
    assert json.loads(unbuffered.stderr)["items"] == 3000


def test_importing_the_cli_leaves_out_what_only_pomdp_and_synth_use():
    code = (
        "import sys, streamsketch.cli\n"
        "names = ('streamsketch.pomdp', 'streamsketch.synth', 'concurrent.futures')\n"
        "print(','.join(name for name in names if name in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


@pytest.mark.parametrize(
    "per_tick, batches", [((2, 1), 0), ((12, 12), 2)], ids=["per-item", "batch"]
)
def test_a_nan_score_exits_1_by_its_position_with_empty_stdout(
    tmp_path, capsys, monkeypatch, per_tick, batches
):
    # The counts overflow to inf, and the first edge of tick 2 scores nan.
    step_many = ChiSquaredTables.step_many
    steps = []

    def counted_step_many(self, *args, **kwargs):
        steps.append(self)
        return step_many(self, *args, **kwargs)

    monkeypatch.setattr(ChiSquaredTables, "step_many", counted_step_many)
    edges = tmp_path / "edges.csv"
    first, second = per_tick
    edges.write_text("u,v,1e308,1\n" * first + "u,v,1e308,2\n" * second)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("midas-r", "--has-weight", "--input", str(edges)) == 1
    assert caught == []
    assert len(steps) == batches
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {first + 1}: score is nan\n"


def test_reject_nan_names_the_first_nan_and_passes_inf():
    reject_nan([0.0, math.inf, -math.inf])
    reject_nan([])
    with pytest.raises(ValueError, match=r"^score 2 is nan$"):
        reject_nan([math.inf, math.nan, math.nan])


OVERFLOW = "u,v,1e308,1\nu,v,1e308,1\nu,v,1e308,2\n"  # the third edge scores nan


@pytest.mark.parametrize("command", ["midas", "midas-r", "midas-f", "sess"])
def test_a_nan_score_names_its_input_line(tmp_path, capsys, command):
    edges = tmp_path / "edges.csv"
    edges.write_text("\n" + OVERFLOW.replace("\n", "\n\n", 1))  # blank lines count
    argv = [command, "--has-weight", "--input", str(edges)]
    if command == "sess":
        argv += ["--feedback", os.devnull]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 5: score is nan\n"


def test_a_nan_is_reported_before_a_bad_line_in_a_later_chunk(tmp_path, capsys, monkeypatch):
    edges = tmp_path / "edges.csv"
    edges.write_text(OVERFLOW + "u,v,1,2\nu,v,x,2\n")
    argv = ["midas-r", "--has-weight", "--input", str(edges)]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == "error: line 5: non-numeric weight 'x'\n"
    monkeypatch.setattr(cli, "TICK_BATCH_MAX", 3)
    assert run_cli(*argv) == 1
    assert capsys.readouterr() == ("", "error: line 3: score is nan\n")


@pytest.mark.parametrize("command", ["anograph", "anograph-k"])
def test_an_overflowing_window_scores_inf_without_a_warning(tmp_path, capsys, command):
    edges = tmp_path / "edges.csv"
    edges.write_text(OVERFLOW)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(command, "--has-weight", "--window-ticks", "2", "--input", str(edges)) == 0
    assert caught == []
    assert capsys.readouterr() == ("inf\n1e+308\n", "")


def chunk_cases(tmp_path) -> dict[str, list[str]]:
    """Argument lists whose output must not depend on the chunk size. Ticks
    hold 1 to 40 items, so chunks or pieces of 29 cut ticks on the batch
    path and smaller ones on the per-item path; sess labels sit on both
    sides of every boundary between chunks of 1, 3 and 7 edges."""
    sizes = [3, 25, 1, 14, 40, 2, 12, 7, 11]
    ticks = [tick for tick, size in enumerate(sizes, 1) for _ in range(size)]
    rows = [(i % 5, (i * 3) % 7, tick) for i, tick in enumerate(ticks)]

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    edges = ["--input", write("edges.csv", "".join(f"{u},{v},{t}\n" for u, v, t in rows))]
    labels = write("labels.txt", "".join(f"{int(u == v)}\n" for u, v, _ in rows))
    feedback = "2,1\n3,0\n6,1\n7,1\n20,0\n21,1\n"
    records = [f"c{i % 4},{(i * 7) % 13}" for i in range(len(ticks))]
    cases = {command: [command, *edges] for command in DETECTOR_COMMANDS}
    cases.update({
        "midas-flags": ["midas", "--flag-epsilon", "0.05", *edges],
        "midas-f-flags": ["midas-f", "--flag-epsilon", "0.05", *edges],
        "midas-f-time": ["midas-f", "--time", *edges],
        "midas-r-eval": ["midas-r", "--eval", "--labels", labels, *edges],
        "anograph-eval": [
            "anograph", "--window-ticks", "2", "--tau", "2", "--eval", "--labels", labels, *edges,
        ],
        "mstream": ["mstream", "--input", write("records.csv", "cat:a,num:x,tick\n" + "".join(
            f"{record},{tick}\n" for record, tick in zip(records, ticks)
        ))],
        "mstream-tickless": ["mstream", "--decay-every", "5", "--input", write(
            "tickless.csv", "cat:a,num:x\n" + "".join(f"{record}\n" for record in records)
        )],
        "sess": ["sess", "--feedback", write("feedback.txt", feedback), *edges],
        "sess-3d": [
            "sess", "--layout", "3d", "--feedback", write("nodes.txt", feedback + "node,3,1\n"),
            *edges,
        ],
        "sess-past-the-end": ["sess", "--feedback", write("late.txt", f"6,1\n{len(rows)},1\n"), *edges],
    })
    return cases


# The CLI's chunk, the piece each_run hashes at once, or both; the id of a
# chunk alone is its size.
@pytest.mark.parametrize("patched, size", [
    pytest.param(patched, size, id=f"{name}{size}")
    for name, patched in [("", (cli,)), ("piece-", (midas,)), ("both-", (cli, midas))]
    for size in [1, 3, 7, 29]
])
def test_output_does_not_depend_on_the_chunk_size(tmp_path, capsys, monkeypatch, patched, size):
    cases = chunk_cases(tmp_path)
    expected = {}
    for name, argv in cases.items():
        code = run_cli(*argv)
        expected[name] = code, *capsys.readouterr()
    assert expected["sess-past-the-end"][0] == 1
    assert expected["midas-f-time"][2].startswith('{"seconds": ')
    for module in patched:
        monkeypatch.setattr(module, "TICK_BATCH_MAX", size)
    for name, argv in cases.items():
        code = run_cli(*argv)
        out, err = capsys.readouterr()
        if name == "midas-f-time":  # the seconds differ; the item count may not
            assert json.loads(err)["items"] == json.loads(expected[name][2])["items"]
            err = expected[name][2]
        assert (code, out, err) == expected[name], name


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_grows_by_the_held_scores_alone(tmp_path):
    """The edges are not held: each extra edge costs only its held score and
    flag (9 bytes), where holding the edges costs ~120."""
    peaks = {}
    out = tmp_path / "out.txt"
    for n in (20_000, 20_000, 80_000):
        edges = tmp_path / f"edges-{n}.csv"
        write_edges(edges, [(i % 97, (i * 7) % 89, 1 + i // 500) for i in range(n)])
        # The first run is a warm-up: it allocates what any run allocates once.
        argv = ["midas-r", "--flag-epsilon", "0.05", "--input", str(edges), "--output", str(out)]
        peaks[n] = _traced_peak(argv)
    assert (peaks[80_000] - peaks[20_000]) / 60_000 < 32
