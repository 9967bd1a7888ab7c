"""Command-line harness: every detector wired to CSV files.

One score is written per input line (per window for the graph scorers) as
decimal text with 9 significant digits; ``--eval`` swaps the score listing
for a metrics JSON object. Flags beat config-file entries, which beat
built-in defaults; the environment variable STREAMSKETCH_SEED overrides the
default RNG seed 42.

Exit codes: 0 success, 1 validation or I/O failure (message names the
location), 2 usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from .densegraph import AnoEdgeGlobal, AnoEdgeLocal, anograph_score
from .hashing import DEFAULT_SEED
from .ingest import (
    WindowSpec,
    parse_edge_stream,
    parse_feedback,
    parse_record_stream,
    window_aggregate,
)
from .metrics import roc_auc
from .midas import DecisionRule, MidasDetector
from .mstream import MstreamDetector
from .pomdp import PredictorConfig, TwoStateProcess, accuracy_sweep
from .sess import FeedbackEvent, SharpeningParams, Sess3dDetector, apply_feedback
from .synth import (
    synth_attack_stream,
    synth_burst_stream,
    synth_graph_windows,
    synth_stationary_stream,
)

FORMAT = "{:.9g}"


# -- option plumbing ---------------------------------------------------------


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    config = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            config[key.strip().replace("-", "_")] = value.strip()
    return config


class Options:
    """Resolves each option as flag > config file > built-in default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _load_config(getattr(args, "config", None))

    def get(self, name: str, default, cast):
        flag = getattr(self.args, name, None)
        if flag is not None:
            return flag
        if name in self.config:
            return cast(self.config[name])
        return default

    def seed(self) -> int:
        flag = getattr(self.args, "seed", None)
        if flag is not None:
            return flag
        if "seed" in self.config:
            return int(self.config["seed"])
        env = os.environ.get("STREAMSKETCH_SEED")
        if env is not None:
            return int(env)
        return DEFAULT_SEED


@contextlib.contextmanager
def _open_input(path: str):
    if path == "-":
        yield sys.stdin
    else:
        with open(path, "r", encoding="utf-8") as handle:
            yield handle


@contextlib.contextmanager
def _open_output(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle


def _read_labels(path: str) -> list[int]:
    with open(path, "r", encoding="utf-8") as handle:
        labels = []
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line not in ("0", "1"):
                raise ValueError(f"{path}:{lineno}: labels must be 0 or 1")
            labels.append(int(line))
    return labels


def _score_input(args, opts: Options, score_all, read=None, flags=None, labels=None) -> int:
    """The pipeline behind every detector command: read all input, score
    it, then write the scores and the ``--time`` line.

    ``read(handle)`` returns the items, edges by default, and
    ``score_all(items)`` their scores; only the scoring is timed. When
    ``flags`` is given, ``score_all`` fills it with one flag per score and
    the output lines become ``score,flag``. ``--eval`` writes the AUC of the
    scores against ``labels(items)``, or against the ``--labels`` file when
    ``labels`` is None. Nothing is written before every item is scored, so
    bad input leaves the output empty.
    """
    if args.eval and args.labels is None:
        raise ValueError("--eval requires --labels")
    with _open_input(opts.get("input", "-", str)) as handle:
        if read is None:
            items = list(parse_edge_stream(handle, has_weight=args.has_weight))
        else:
            items = read(handle)
    started = time.perf_counter()
    scores = score_all(items)
    elapsed = time.perf_counter() - started

    if args.eval:
        truth = _read_labels(args.labels) if labels is None else labels(items)
        if len(truth) != len(scores):
            raise ValueError(f"labels file has {len(truth)} entries for {len(scores)} scores")
        auc = roc_auc(scores, truth)
    with _open_output(opts.get("output", "-", str)) as out:
        if args.eval:
            json.dump({"auc": auc}, out)
            out.write("\n")
        elif flags is not None:
            for value, flagged in zip(scores, flags):
                out.write(FORMAT.format(value) + "," + ("1" if flagged else "0") + "\n")
        else:
            for value in scores:
                out.write(FORMAT.format(value) + "\n")
    if args.time:
        print(json.dumps({"seconds": round(elapsed, 6), "items": len(scores)}), file=sys.stderr)
    return 0


# -- detector subcommands ----------------------------------------------------


def _run_midas(args, variant: str) -> int:
    opts = Options(args)
    detector = MidasDetector(
        variant=variant,
        n_rows=opts.get("rows", 2, int),
        n_buckets=opts.get("buckets", 1024, int),
        alpha=opts.get("alpha", 0.5, float),
        merge_threshold=opts.get("merge_threshold", 1000.0, float),
        seed=opts.seed(),
    )
    mode = opts.get("score_mode", "max", str)
    flag_eps = args.flag_epsilon
    rule = DecisionRule.for_detector(flag_eps, detector) if flag_eps is not None else None
    flags = [] if rule is not None else None

    def score_all(events) -> list[float]:
        scores = []
        for event in events:
            stats = detector.process(event)
            scores.append(stats.combined(mode))
            if rule is not None:
                flags.append(rule.is_flagged(stats))
        return scores

    return _score_input(args, opts, score_all, flags=flags)


def _run_anoedge(args, which: str) -> int:
    opts = Options(args)
    cls = AnoEdgeGlobal if which == "global" else AnoEdgeLocal
    detector = cls(
        n_rows=opts.get("rows", 2, int),
        n_buckets=opts.get("buckets", 32, int),
        alpha=opts.get("alpha", 0.9, float),
        seed=opts.seed(),
    )
    if which == "global":
        return _score_input(args, opts, detector.score_many)
    # The local scorer's maintained submatrix is sequential state.
    return _score_input(args, opts, lambda events: [detector.score(e) for e in events])


def _run_anograph(args, variant: str) -> int:
    opts = Options(args)
    spec = WindowSpec(
        window_ticks=opts.get("window_ticks", 30, int),
        anomaly_edge_threshold=opts.get("tau", 50, int),
    )
    k = opts.get("k", 5, int)

    def read(handle) -> list:
        """Sealed windows with their labels, one per ``window_ticks``."""
        events = list(parse_edge_stream(handle, has_weight=args.has_weight))
        edge_labels = _read_labels(args.labels) if args.labels else [0] * len(events)
        if len(edge_labels) != len(events):
            raise ValueError(
                f"labels file has {len(edge_labels)} entries for {len(events)} edges"
            )
        return window_aggregate(
            events,
            edge_labels,
            spec,
            n_rows=opts.get("rows", 2, int),
            n_buckets=opts.get("buckets", 32, int),
            seed=opts.seed(),
        )

    return _score_input(
        args,
        opts,
        lambda windows: [anograph_score(w, variant=variant, k=k) for w, _ in windows],
        read=read,
        labels=lambda windows: [label for _, label in windows],
    )


def _run_mstream(args) -> int:
    opts = Options(args)

    def read(handle):
        schema, records = parse_record_stream(
            handle, tick_every=opts.get("decay_every", 1000, int)
        )
        return schema, list(records)

    def score_all(parsed) -> list[float]:
        schema, records = parsed
        # The attribute split comes from the file's header.
        detector = MstreamDetector(
            n_categorical=schema.n_categorical,
            n_numeric=schema.n_numeric,
            n_rows=opts.get("rows", 2, int),
            n_buckets=opts.get("buckets", 1024, int),
            alpha=opts.get("alpha", 0.85, float),
            seed=opts.seed(),
        )
        return [detector.score(record).total for record in records]

    return _score_input(args, opts, score_all, read=read)


def _run_sess(args) -> int:
    opts = Options(args)
    layout = opts.get("layout", "flat", str)
    params = SharpeningParams(
        boost=opts.get("boost", 2.0, float), damp=opts.get("damp", 0.3, float)
    )
    if layout == "flat":
        detector = MidasDetector(
            variant="relational",
            n_rows=opts.get("rows", 2, int),
            n_buckets=opts.get("buckets", 1024, int),
            alpha=opts.get("alpha", 0.5, float),
            seed=opts.seed(),
        )
    elif layout == "3d":
        detector = Sess3dDetector(
            n_rows=opts.get("rows", 2, int),
            n_buckets=opts.get("buckets", 32, int),
            alpha=opts.get("alpha", 0.5, float),
            seed=opts.seed(),
        )
    else:
        raise ValueError(f"layout must be 'flat' or '3d', got {layout!r}")

    with open(args.feedback, "r", encoding="utf-8") as handle:
        edge_labels, node_feedback = parse_feedback(handle)
    if node_feedback and layout != "3d":
        raise ValueError("node feedback requires --layout 3d")
    # Node labels carry no stream position; they apply before scoring starts.
    for feedback in node_feedback:
        apply_feedback(detector, feedback, params)

    def score_all(events) -> list[float]:
        scores = []
        for index, event in enumerate(events):
            scores.append(detector.score(event))
            label = edge_labels.get(index)
            if label is not None:
                feedback = FeedbackEvent(
                    label, edge=(event.source, event.dest), index=index
                )
                apply_feedback(detector, feedback, params)
        last = max(edge_labels, default=-1)
        if last >= len(scores):
            raise ValueError(
                f"feedback index {last} is past the end of the stream ({len(scores)} edges)"
            )
        return scores

    return _score_input(args, opts, score_all)


def _run_pomdp(args) -> int:
    opts = Options(args)
    process = TwoStateProcess(
        p=args.p, q=args.q, start_anomalous=bool(args.start_anomalous), seed=opts.seed()
    )
    phis = [float(x) for x in str(args.phi).split(",")]
    if args.predictor == "imitate":
        raw = args.q_hat if args.q_hat is not None else str(args.q)
        sweep_values = [float(x) for x in str(raw).split(",")]
        param_name = "q_hat"
    else:
        sweep_values = [int(x) for x in str(args.wait).split(",")] if args.wait else [None]
        param_name = "L"
    base_seed = opts.seed()
    seeds = [base_seed + i for i in range(args.seeds)]
    jobs = max(1, args.jobs)

    rows = []
    tasks = []
    for value in sweep_values:
        for phi in phis:
            if args.predictor == "imitate":
                config = PredictorConfig(
                    kind="imitate",
                    p_hat=args.p_hat if args.p_hat is not None else args.p,
                    q_hat=value,
                    phi=phi,
                    one_sided=args.one_sided,
                )
                shown = value
            else:
                config = PredictorConfig(
                    kind="opt",
                    q_hat=args.q_hat_single,
                    wait_steps=value,
                    phi=phi,
                    one_sided=args.one_sided,
                )
                shown = config.resolved_wait()
            tasks.append((shown, phi, config))

    def run(task):
        shown, phi, config = task
        mean, std = accuracy_sweep(process, config, args.steps, seeds)
        return shown, phi, mean, std

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run, tasks))
    else:
        rows = [run(task) for task in tasks]

    with _open_output(opts.get("output", "-", str)) as out:
        out.write(f"{param_name},phi,mean_accuracy,std_accuracy\n")
        for shown, phi, mean, std in rows:
            out.write(f"{shown},{FORMAT.format(phi)},{mean:.6f},{std:.6f}\n")
    return 0


def _run_synth(args) -> int:
    opts = Options(args)
    seed = opts.seed()
    kind = args.kind
    if kind == "burst":
        events, labels = synth_burst_stream(
            seed=seed,
            n_background=opts.get("n_background", 10_000, int),
            n_burst=opts.get("n_burst", 500, int),
            n_nodes=opts.get("n_nodes", 50, int),
            burst_tick=opts.get("burst_tick", 50, int),
            n_ticks=opts.get("n_ticks", 100, int),
            burst_span=opts.get("burst_span", 5, int),
        )
    elif kind == "attack":
        events, labels = synth_attack_stream(seed=seed)
    elif kind == "windows":
        events, labels, _ = synth_graph_windows(seed=seed)
    elif kind == "stationary":
        events, pair = synth_stationary_stream(seed=seed)
        labels = [
            1 if (e.source, e.dest) == pair else 0 for e in events
        ]  # marks the monitored pair, not anomalies
    else:
        raise ValueError(f"unknown synthetic stream kind: {kind!r}")

    with _open_output(args.out_edges) as out:
        for event in events:
            out.write(f"{event.source},{event.dest},{event.tick}\n")
    if args.out_labels:
        with _open_output(args.out_labels) as out:
            for label in labels:
                out.write(f"{label}\n")
    return 0


def _run_eval(args) -> int:
    scores = []
    with open(args.scores, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                scores.append(float(line.split(",")[0]))
            except ValueError:
                raise ValueError(f"{args.scores}:{lineno}: non-numeric score") from None
    labels = _read_labels(args.labels)
    if len(labels) != len(scores):
        raise ValueError(
            f"labels file has {len(labels)} entries for {len(scores)} scores"
        )
    print(json.dumps({"auc": roc_auc(scores, labels)}))
    return 0


# -- parser ------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", default=None, help="edge CSV path, or - for stdin")
    sub.add_argument("--output", default=None, help="score file path, or - for stdout")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--config", default=None, help="key=value config file")
    sub.add_argument("--rows", type=int, default=None, help="hash rows per sketch")
    sub.add_argument("--buckets", type=int, default=None, help="buckets per hash row")
    sub.add_argument("--has-weight", action="store_true", help="rows are u,v,w,t")
    sub.add_argument("--eval", action="store_true", help="emit metrics JSON instead of scores")
    sub.add_argument("--labels", default=None, help="ground-truth labels, one 0/1 per line")
    sub.add_argument("--time", action="store_true", help="report scoring-loop seconds on stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamsketch",
        description="Sketch-based streaming anomaly detection toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, variant in (("midas", "plain"), ("midas-r", "relational"), ("midas-f", "filtering")):
        sub = subs.add_parser(name, help=f"{variant} edge scorer")
        _add_common(sub)
        sub.add_argument("--alpha", type=float, default=None, help="temporal decay factor")
        sub.add_argument("--merge-threshold", type=float, default=None)
        sub.add_argument("--score-mode", choices=("max", "sum"), default=None)
        sub.add_argument(
            "--flag-epsilon",
            type=float,
            default=None,
            help="emit score,flag pairs at this false-positive level",
        )
        sub.set_defaults(handler=lambda a, v=variant: _run_midas(a, v))

    for name, which in (("anoedge-g", "global"), ("anoedge-l", "local")):
        sub = subs.add_parser(name, help=f"dense-submatrix edge scorer ({which})")
        _add_common(sub)
        sub.add_argument("--alpha", type=float, default=None)
        sub.set_defaults(handler=lambda a, w=which: _run_anoedge(a, w))

    for name, variant in (("anograph", "full"), ("anograph-k", "topk")):
        sub = subs.add_parser(name, help=f"dense-submatrix graph scorer ({variant})")
        _add_common(sub)
        sub.add_argument("--window-ticks", type=int, default=None)
        sub.add_argument("--tau", type=int, default=None, help="attack edges per anomalous window")
        sub.add_argument("--k", type=int, default=None)
        sub.set_defaults(handler=lambda a, v=variant: _run_anograph(a, v))

    sub = subs.add_parser("mstream", help="multi-aspect record scorer")
    _add_common(sub)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument(
        "--decay-every", type=int, default=None, help="synthetic tick length for tick-less data"
    )
    sub.set_defaults(handler=_run_mstream)

    sub = subs.add_parser("sess", help="edge scorer with labelled feedback")
    _add_common(sub)
    sub.add_argument("--feedback", required=True, help="feedback file (index,label lines)")
    sub.add_argument("--layout", choices=("flat", "3d"), default=None)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--boost", type=float, default=None)
    sub.add_argument("--damp", type=float, default=None)
    sub.set_defaults(handler=_run_sess)

    sub = subs.add_parser("pomdp", help="two-state feedback simulator")
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--q", type=float, required=True)
    sub.add_argument("--predictor", choices=("imitate", "opt"), required=True)
    sub.add_argument("--p-hat", type=float, default=None)
    sub.add_argument("--q-hat", dest="q_hat", default=None, help="estimate(s), comma separated")
    sub.add_argument(
        "--q-hat-single",
        type=float,
        default=None,
        help="opt: derive the wait length from this estimate",
    )
    sub.add_argument("--wait", default=None, help="opt wait length(s) L, comma separated")
    sub.add_argument("--phi", default="0", help="feedback probability(ies), comma separated")
    sub.add_argument("--steps", type=int, default=1_000_000)
    sub.add_argument("--seeds", type=int, default=1, help="number of independent runs")
    sub.add_argument("--one-sided", action="store_true")
    sub.add_argument("--start-anomalous", action="store_true")
    sub.add_argument("--jobs", type=int, default=1, help="parallel runs (threads)")
    sub.add_argument("--output", default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--config", default=None)
    sub.set_defaults(handler=_run_pomdp)

    sub = subs.add_parser("synth", help="write a seeded synthetic stream")
    sub.add_argument("--kind", choices=("burst", "attack", "windows", "stationary"), default="burst")
    sub.add_argument("--out-edges", required=True)
    sub.add_argument("--out-labels", default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--config", default=None)
    for flag in ("n-background", "n-burst", "n-nodes", "burst-tick", "n-ticks", "burst-span"):
        sub.add_argument(f"--{flag}", type=int, default=None)
    sub.set_defaults(handler=_run_synth)

    sub = subs.add_parser("eval", help="score a run against ground truth")
    sub.add_argument("--scores", required=True)
    sub.add_argument("--labels", required=True)
    sub.set_defaults(handler=_run_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
