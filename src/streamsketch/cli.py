"""Command-line harness: every detector wired to CSV files.

Every detector command runs one loop, ``_score_input``: it reads up to
``events.TICK_BATCH_MAX`` items, scores them and rejects a nan score by its
input line. Once the input ends, one score is written per input line (per
window for the graph scorers) as decimal text with 9 significant digits,
``WRITE_CHUNK`` lines per write call; ``--eval`` swaps the score listing for
a metrics JSON object.

Each option is declared once, on its command's parser. A ``--config FILE``
of ``key=value`` lines is read as ``--key=value`` arguments placed before
the command line, so flags beat the file and argparse converts and checks a
file value exactly as it does the flag. A ``#`` at the start of a line or
after whitespace starts a comment, so ``rows=3  # three rows`` sets
``--rows=3``. ``key`` is the flag's name without the leading dashes, with
``_`` or ``-`` between words. The file can set every value option of the command; entries
for options the command lacks are ignored, so one file can serve several
commands, and an entry for a switch such as ``has_weight`` is a usage
error. Flags are never abbreviated, so a key cannot land on a longer
option. ``--seed`` defaults to the environment variable STREAMSKETCH_SEED,
else 42. A detector, window, sharpening or ``synth`` parameter left unset
is not passed, so the library signature holds its only default.

Each command imports its detector's module when it runs, and ``json`` is
imported only by ``--eval``, ``--time`` and ``eval``, so a run loads only
the modules its command uses.

Exit codes: 0 success, 1 validation, I/O or allocation failure (message
names the location), 2 usage errors, config values and STREAMSKETCH_SEED
included.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
import time
from functools import partial
from itertools import islice, product

import numpy as np

from .events import TICK_BATCH_MAX
from .hashing import DEFAULT_SEED
from .ingest import (
    Lines,
    WindowSpec,
    convert,
    parse_edge_stream,
    parse_feedback,
    parse_record_stream,
    window_aggregate,
)

FORMAT = "{:.9g}"
COMMENT = re.compile(r"(?:^|\s)#.*")  # a config comment: '#' at line start or after whitespace
# Lines per write call. An unbuffered stdout (python -u, PYTHONUNBUFFERED)
# turns every write into a system call, ~2.7 us a line on a pipe (2-core x86);
# a chunk of 1024 score lines (~10 KB) pays that once, while neither all
# lines nor the whole output is held at once.
WRITE_CHUNK = 1024


# -- option plumbing ---------------------------------------------------------


def _config_args(argv: list[str]) -> list[str]:
    """The entries of the ``--config`` file in ``argv``, as ``--key=value`` arguments."""
    finder = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    finder.add_argument("--config")
    path = None
    with contextlib.suppress(argparse.ArgumentError):  # the full parse reports it
        path = finder.parse_known_args(argv)[0].config
    if path is None:
        return []
    entries = []
    with open(path, encoding="utf-8") as handle, Lines(handle, path) as lines:
        for line in lines:
            line = COMMENT.sub("", line)
            if not line:
                continue
            if "=" not in line:
                raise ValueError("expected key=value")
            key, value = line.split("=", 1)
            entries.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return entries


def _seed(text: str) -> int:
    """A seed the snapshot header can store: an integer in [0, 2**64)."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _list_of(kind):
    """An argparse type for a comma-separated list of ``kind`` values."""

    def convert_list(text: str) -> list:
        try:
            return [kind(item) for item in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid comma-separated {kind.__name__} list: {text!r}"
            ) from None

    return convert_list


def _at_least_1(text: str) -> int:
    """An integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _given(args, *names) -> dict:
    """The named options that were set; the library keeps the others'
    defaults, including those of options the command lacks."""
    values = {name: getattr(args, name, None) for name in names}
    return {name: value for name, value in values.items() if value is not None}


def _open(path: str, mode: str = "r"):
    """``path`` opened as UTF-8 text; ``-`` is stdin or stdout, left open."""
    if path == "-":
        return contextlib.nullcontext(sys.stdin if mode == "r" else sys.stdout)
    return open(path, mode, encoding="utf-8")


def _write_lines(out, lines) -> None:
    """Write the lines of the iterable ``lines``, each ending in a newline,
    one ``WRITE_CHUNK`` at a time."""
    lines = iter(lines)
    while chunk := list(islice(lines, WRITE_CHUNK)):
        out.write("".join(chunk))


def _read_labels(path: str, count: int, items: str = "scores") -> list[int]:
    """The 0/1 labels in ``path``, one for each of ``count`` ``items``."""
    labels = []
    with open(path, encoding="utf-8") as handle, Lines(handle, path) as lines:
        for line in lines:
            if line not in ("0", "1"):
                raise ValueError("labels must be 0 or 1")
            labels.append(int(line))
    if len(labels) != count:
        raise ValueError(f"labels file has {len(labels)} entries for {count} {items}")
    return labels


def _score_lines(held):
    """The ``score`` or ``score,flag`` lines of held ``(scores, flags)`` chunks."""
    for values, flags in held:
        if flags is None:
            yield from map((FORMAT + "\n").format, values.tolist())
        else:
            for value, flagged in zip(values.tolist(), flags.tolist()):
                yield FORMAT.format(value) + (",1\n" if flagged else ",0\n")


def _score_input(args, start, labels=None) -> int:
    """The pipeline behind every detector command: read and score the input
    a chunk at a time, then write.

    ``start(lines)`` reads what must come first from the input's ``Lines``
    (a record header, or anograph's windows) and returns a lazy item iterator
    and a chunk scorer: ``score(chunk, first)`` gives the scores of the items
    in ``chunk``, the first of which is item ``first`` of the stream, and
    their flags, or None. A chunk holds up to ``TICK_BATCH_MAX`` items, each
    with the input line it was parsed from. A nan score is rejected by its
    line; the others are held as float64, 8 bytes each. Nothing is written,
    and no ``--output`` file is opened, until the input ends, so bad input
    leaves the output empty; the lines are formatted as they are written.
    ``--eval`` writes the AUC of the scores against the ``labels(chunk)`` of
    each chunk, or the ``--labels`` file when ``labels`` is None. ``--time``
    reports the scoring time summed over chunks.
    """
    if args.eval and args.labels is None:
        raise ValueError("--eval requires --labels")
    held, truth = [], []  # per chunk: its scores as float64, and its flags or None
    n, elapsed = 0, 0.0
    # A nan is rejected below and inf is a valid score, so numpy's
    # floating-point warnings, from reading (anograph sums window weights)
    # or from scoring, would only add noise to stderr.
    with _open(args.input) as handle, np.errstate(all="ignore"):
        lines = Lines(handle)
        items, score = start(lines)
        while True:
            chunk, where = [], []
            for item in islice(items, TICK_BATCH_MAX):
                chunk.append(item)
                where.append(lines.lineno)  # the line the item was parsed from
            if not chunk:
                break
            started = time.perf_counter()
            scores, flags = score(chunk, n)
            elapsed += time.perf_counter() - started
            values = np.asarray(scores, dtype=np.float64)
            nan = np.flatnonzero(np.isnan(values))
            if nan.size:
                raise ValueError(f"line {where[nan[0]]}: score is nan")
            n += len(chunk)
            held.append((values, flags if flags is None else np.asarray(flags, dtype=bool)))
            if args.eval and labels is not None:
                truth.extend(labels(chunk))

    output = _score_lines(held)
    if args.eval:
        import json

        from .metrics import roc_auc

        truth = _read_labels(args.labels, n) if labels is None else truth
        scores = np.concatenate([np.empty(0)] + [values for values, _ in held])
        output = [json.dumps({"auc": roc_auc(scores, truth)}) + "\n"]
    with _open(args.output, "w") as out:
        _write_lines(out, output)
    if args.time:
        import json

        print(json.dumps({"seconds": round(elapsed, 6), "items": n}), file=sys.stderr)
    return 0


# -- detector subcommands ----------------------------------------------------


SKETCH = ("n_rows", "n_buckets", "alpha")
BURST_SHAPE = ("n_background", "n_burst", "n_nodes", "burst_tick", "n_ticks", "burst_span")


def _edges(args, score):
    """A ``start`` for ``_score_input``: the input's edges, scored by ``score``."""
    return lambda lines: (parse_edge_stream(lines, has_weight=args.has_weight), score)


def _run_midas(args, variant: str) -> int:
    from .midas import DecisionRule, MidasDetector

    detector = MidasDetector(variant, seed=args.seed, **_given(args, *SKETCH, "merge_threshold"))
    eps = args.flag_epsilon
    rule = None if eps is None else DecisionRule.for_detector(eps, detector)
    start = _edges(args, lambda events, _: detector.process_many(events, rule, args.score_mode))
    return _score_input(args, start)


def _run_anoedge(args, class_name: str) -> int:
    from . import densegraph

    detector = getattr(densegraph, class_name)(seed=args.seed, **_given(args, *SKETCH))
    return _score_input(args, _edges(args, lambda events, _: (detector.score_many(events), None)))


def _run_anograph(args, variant: str) -> int:
    from .densegraph import anograph_score

    spec = WindowSpec(**_given(args, "window_ticks", "anomaly_edge_threshold"))
    k = _given(args, "k")
    if k.get("k", 1) < 1:  # before the input is read, as WindowSpec checks its fields
        raise ValueError(f"k must be >= 1, got {k['k']}")

    def score(windows, first):
        # The peel's best density starts at the whole matrix's and only rises,
        # so a window scores inf, never nan, and needs no line of its own.
        return [anograph_score(window, variant=variant, **k) for window, _ in windows], None

    def start(lines):
        """Sealed windows with their labels, one per ``window_ticks``."""
        events = list(parse_edge_stream(lines, has_weight=args.has_weight))
        n = len(events)
        edge_labels = _read_labels(args.labels, n, "edges") if args.labels else [0] * n
        windows = window_aggregate(
            events, edge_labels, spec, seed=args.seed, **_given(args, "n_rows", "n_buckets")
        )
        return iter(windows), score

    return _score_input(args, start, labels=lambda windows: [label for _, label in windows])


def _run_mstream(args) -> int:
    from .mstream import MstreamDetector

    def start(lines):
        schema, records = parse_record_stream(lines, **_given(args, "tick_every"))
        # The attribute split comes from the file's header.
        detector = MstreamDetector(
            schema.n_categorical, schema.n_numeric, seed=args.seed, **_given(args, *SKETCH)
        )
        return records, lambda chunk, _: (detector.score_many(chunk), None)

    return _score_input(args, start)


def _run_sess(args) -> int:
    from .midas import MidasDetector
    from .sess import SharpeningParams, Sess3dDetector, apply_feedback, score_with_feedback

    params = SharpeningParams(**_given(args, "boost", "damp"))
    make = Sess3dDetector if args.layout == "3d" else partial(MidasDetector, "relational")
    detector = make(seed=args.seed, **_given(args, *SKETCH))

    with open(args.feedback, "r", encoding="utf-8") as handle:
        edge_labels, node_labels = parse_feedback(handle, args.feedback)
    if node_labels and args.layout != "3d":
        raise ValueError("node feedback requires --layout 3d")
    # Node labels carry no stream position; they apply before scoring starts.
    for node, label in node_labels:
        apply_feedback(detector, detector.node_cells(node), label, params)

    def checked_edges(lines):
        """The input's edges, then a check that they reach every labelled index."""
        n = 0
        for n, event in enumerate(parse_edge_stream(lines, has_weight=args.has_weight), 1):
            yield event
        last = max(edge_labels, default=-1)
        if last >= n:
            raise ValueError(f"feedback index {last} is past the end of the stream ({n} edges)")

    def score(events, first):
        return score_with_feedback(detector, events, edge_labels, params, first), None

    return _score_input(args, lambda lines: (checked_edges(lines), score))


def _run_pomdp(args) -> int:
    from concurrent.futures import ThreadPoolExecutor

    from .pomdp import PredictorConfig, TwoStateProcess, accuracy_sweep

    process = TwoStateProcess(
        p=args.p, q=args.q, start_anomalous=bool(args.start_anomalous), seed=args.seed
    )
    imitate = args.predictor == "imitate"
    values = (args.q_hat or [args.q]) if imitate else (args.wait or [None])
    p_hat = args.p if args.p_hat is None else args.p_hat
    seeds = [args.seed + i for i in range(args.seeds)]
    tasks = []
    for value, phi in product(values, args.phi):
        if imitate:
            given = {"p_hat": p_hat, "q_hat": value}
        else:
            given = {"q_hat": args.q_hat_single, "wait_steps": value}
        config = PredictorConfig(args.predictor, phi=phi, one_sided=args.one_sided, **given)
        tasks.append((value if imitate else config.resolved_wait(), phi, config))

    def run(task):
        shown, phi, config = task
        mean, std = accuracy_sweep(process, config, args.steps, seeds)
        return shown, phi, mean, std

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        rows = list(pool.map(run, tasks))

    with _open(args.output, "w") as out:
        out.write(f"{'q_hat' if imitate else 'L'},phi,mean_accuracy,std_accuracy\n")
        _write_lines(out, (
            f"{shown},{FORMAT.format(phi)},{mean:.6f},{std:.6f}\n"
            for shown, phi, mean, std in rows
        ))
    return 0


def _run_synth(args) -> int:
    from . import synth

    shape = _given(args, *BURST_SHAPE)
    if shape and args.kind != "burst":  # before any file is opened, so none is written
        raise ValueError(f"--{next(iter(shape)).replace('_', '-')} requires --kind burst")
    if args.kind == "burst":
        events, labels = synth.synth_burst_stream(seed=args.seed, **shape)
    elif args.kind == "attack":
        events, labels = synth.synth_attack_stream(seed=args.seed)
    elif args.kind == "windows":
        events, labels, _ = synth.synth_graph_windows(seed=args.seed)
    else:
        events, pair = synth.synth_stationary_stream(seed=args.seed)
        # The labels mark the monitored pair, not anomalies.
        labels = [1 if (e.source, e.dest) == pair else 0 for e in events]

    with _open(args.out_edges, "w") as out:
        _write_lines(out, (f"{event.source},{event.dest},{event.tick}\n" for event in events))
    if args.out_labels:
        with _open(args.out_labels, "w") as out:
            _write_lines(out, (f"{label}\n" for label in labels))
    return 0


def _run_eval(args) -> int:
    import json

    from .metrics import roc_auc

    scores = []
    with open(args.scores, encoding="utf-8") as handle, Lines(handle, args.scores) as lines:
        for line in lines:
            score = convert(float, line.split(",")[0], "non-numeric score")
            if math.isnan(score):  # roc_auc would rank it above every number
                raise ValueError("score is nan")
            scores.append(score)
    labels = _read_labels(args.labels, len(scores))
    print(json.dumps({"auc": roc_auc(scores, labels)}))
    return 0


# -- parser ------------------------------------------------------------------


def _add_seed_and_config(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=_seed, default=os.environ.get("STREAMSKETCH_SEED", DEFAULT_SEED))
    sub.add_argument("--config", help="key=value config file")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", default="-", help="edge CSV path, or - for stdin")
    sub.add_argument("--output", default="-", help="score file path, or - for stdout")
    _add_seed_and_config(sub)
    sub.add_argument("--rows", dest="n_rows", metavar="ROWS", type=int, help="hash rows per sketch")
    sub.add_argument(
        "--buckets", dest="n_buckets", metavar="BUCKETS", type=int, help="buckets per hash row"
    )
    sub.add_argument("--eval", action="store_true", help="emit metrics JSON instead of scores")
    sub.add_argument("--labels", help="ground-truth labels, one 0/1 per line")
    sub.add_argument("--time", action="store_true", help="report scoring-loop seconds on stderr")


def _add_edge_common(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("--has-weight", action="store_true", help="rows are u,v,w,t")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamsketch",
        description="Sketch-based streaming anomaly detection toolkit",
    )
    strict = partial(argparse.ArgumentParser, allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=strict)

    for name, variant in (("midas", "plain"), ("midas-r", "relational"), ("midas-f", "filtering")):
        sub = subs.add_parser(name, help=f"{variant} edge scorer")
        _add_edge_common(sub)
        if variant != "plain":  # plain never decays and scores the edge alone
            sub.add_argument("--alpha", type=float, help="temporal decay factor")
            sub.add_argument("--score-mode", choices=("max", "sum"))
        if variant == "filtering":
            sub.add_argument("--merge-threshold", type=float)
        sub.add_argument(
            "--flag-epsilon", type=float,
            help="emit score,flag pairs with FLAG_EPSILON as the flag threshold;"
            " it bounds the false-positive rate only where the README says",
        )
        sub.set_defaults(handler=lambda a, v=variant: _run_midas(a, v), score_mode="max")

    anoedges = (("anoedge-g", "global", "AnoEdgeGlobal"), ("anoedge-l", "local", "AnoEdgeLocal"))
    for name, which, class_name in anoedges:
        sub = subs.add_parser(name, help=f"dense-submatrix edge scorer ({which})")
        _add_edge_common(sub)
        sub.add_argument("--alpha", type=float)
        sub.set_defaults(handler=lambda a, c=class_name: _run_anoedge(a, c))

    for name, variant in (("anograph", "full"), ("anograph-k", "topk")):
        sub = subs.add_parser(name, help=f"dense-submatrix graph scorer ({variant})")
        _add_edge_common(sub)
        sub.add_argument("--window-ticks", type=int)
        sub.add_argument(
            "--tau", dest="anomaly_edge_threshold", metavar="TAU", type=int,
            help="attack edges per anomalous window",
        )
        if variant == "topk":  # only the top-k peel has seeds to count
            sub.add_argument("--k", type=int)
        sub.set_defaults(handler=lambda a, v=variant: _run_anograph(a, v))

    sub = subs.add_parser("mstream", help="multi-aspect record scorer")
    _add_common(sub)
    sub.add_argument("--alpha", type=float)
    sub.add_argument(
        "--decay-every", dest="tick_every", metavar="DECAY_EVERY", type=int,
        help="synthetic tick length for tick-less data",
    )
    sub.set_defaults(handler=_run_mstream)

    sub = subs.add_parser("sess", help="edge scorer with labelled feedback")
    _add_edge_common(sub)
    sub.add_argument("--feedback", required=True, help="feedback file (index,label lines)")
    sub.add_argument("--layout", choices=("flat", "3d"), default="flat")
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--boost", type=float)
    sub.add_argument("--damp", type=float)
    sub.set_defaults(handler=_run_sess)

    sub = subs.add_parser("pomdp", help="two-state feedback simulator")
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--q", type=float, required=True)
    sub.add_argument("--predictor", choices=("imitate", "opt"), required=True)
    sub.add_argument("--p-hat", type=float)
    sub.add_argument("--q-hat", type=_list_of(float), help="estimate(s), comma separated")
    sub.add_argument(
        "--q-hat-single", type=float, help="opt: derive the wait length from this estimate"
    )
    sub.add_argument("--wait", type=_list_of(int), help="opt wait length(s) L, comma separated")
    sub.add_argument(
        "--phi", type=_list_of(float), default="0", help="feedback probability(ies), comma separated"
    )
    sub.add_argument("--steps", type=_at_least_1, default=1_000_000)
    sub.add_argument("--seeds", type=_at_least_1, default=1, help="number of independent runs")
    sub.add_argument("--one-sided", action="store_true")
    sub.add_argument("--start-anomalous", action="store_true")
    sub.add_argument("--jobs", type=_at_least_1, default=1, help="parallel runs (threads)")
    sub.add_argument("--output", default="-")
    _add_seed_and_config(sub)
    sub.set_defaults(handler=_run_pomdp)

    sub = subs.add_parser("synth", help="write a seeded synthetic stream")
    sub.add_argument("--kind", choices=("burst", "attack", "windows", "stationary"), default="burst")
    sub.add_argument("--out-edges", required=True)
    sub.add_argument("--out-labels")
    _add_seed_and_config(sub)
    for name in BURST_SHAPE:
        sub.add_argument("--" + name.replace("_", "-"), type=int)
    sub.set_defaults(handler=_run_synth)

    sub = subs.add_parser("eval", help="score a run against ground truth")
    sub.add_argument("--scores", required=True)
    sub.add_argument("--labels", required=True)
    sub.set_defaults(handler=_run_eval)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        try:
            config = _config_args(argv)
        except (ValueError, OSError):
            parser.parse_args(argv)  # a usage error on the command line is reported first
            raise
        args, unknown = parser.parse_known_args(argv[:1] + config + argv[1:])
        unknown = [arg for arg in unknown if arg not in config]  # options the command lacks
        if unknown:
            parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: a sketch shape too large
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
