"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected value is pinned to an independent oracle (exact counters,
exhaustive enumeration, pairwise comparison) or to a published reference
table, never to the code path under test.
"""

import gc
import math
import time
import tracemalloc

import numpy as np

from streamsketch.densegraph import anograph_density, anograph_score
from streamsketch.events import EdgeEvent, MultiAspectRecord
from streamsketch.ingest import WindowSpec, window_aggregate
from streamsketch.metrics import roc_auc
from streamsketch.midas import DecisionRule, MidasDetector
from streamsketch.mstream import MstreamDetector
from streamsketch.pomdp import PredictorConfig, TwoStateProcess, accuracy_sweep
from streamsketch.sess import SharpeningParams, apply_feedback
from streamsketch.sketch import CountMinSketch, HigherOrderSketch
from streamsketch.synth import (
    synth_attack_stream,
    synth_burst_stream,
    synth_graph_windows,
    synth_stationary_stream,
)

from oracles import (
    ExactMstreamOracle,
    FilteringOracle,
    PlainOracle,
    RelationalOracle,
    brute_force_density,
    linear_fit_r2,
    pairwise_auc,
    random_edge_stream,
)

BIG = 1 << 20


def report(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


# -- 1. sketch oracle equivalence ---------------------------------------------


def test_criterion_01_sketch_oracle_equivalence():
    started = time.perf_counter()
    delta = math.exp(-2)  # 2 hash rows
    worst_cms = worst_ho = 0.0
    for trial in range(100):
        rng = np.random.default_rng(10_000 + trial)
        n = 10_000

        keys = (rng.zipf(1.3, size=n) % 5000).astype(np.int64)
        cms = CountMinSketch(2, 1024, seed=trial)
        cms.update_many(keys)
        unique, true_counts = np.unique(keys, return_counts=True)
        estimates = cms.query_many(unique)
        assert (estimates >= true_counts).all(), "count-min underestimated a key"
        frac = float((estimates > true_counts + math.e / 1024 * n).mean())
        worst_cms = max(worst_cms, frac)

        sources = rng.integers(0, 200, size=n)
        dests = rng.integers(0, 200, size=n)
        ho = HigherOrderSketch(2, 32, seed=trial)
        ho.update_many(sources, dests)
        pair_ids = sources * 200 + dests
        unique_p, true_p = np.unique(pair_ids, return_counts=True)
        estimates_p = ho.estimate_many(unique_p // 200, unique_p % 200)
        assert (estimates_p >= true_p).all(), "higher-order sketch underestimated"
        frac_p = float((estimates_p > true_p + math.e / 32 * n).mean())
        worst_ho = max(worst_ho, frac_p)

    elapsed = time.perf_counter() - started
    ok = worst_cms <= 2 * delta and worst_ho <= 2 * delta and elapsed < 10.0
    report(
        1,
        ok,
        f"sketch oracle equivalence: worst over-fractions "
        f"cms={worst_cms:.4f} hocms={worst_ho:.4f} (bound {2 * delta:.3f}), "
        f"{elapsed:.1f}s (< 10s)",
    )


# -- 2. chi-squared exactness ---------------------------------------------------


def test_criterion_02_chi_squared_exactness():
    started = time.perf_counter()
    worst = 0.0
    events = random_edge_stream(seed=2)
    pairs = [
        ("plain", PlainOracle()),
        ("relational", RelationalOracle(0.5)),
        ("filtering", FilteringOracle(0.5, 1000.0)),
    ]
    for variant, oracle in pairs:
        detector = MidasDetector(variant, n_buckets=BIG, alpha=0.5, seed=2)
        for event in events:
            worst = max(worst, abs(detector.score(event) - oracle.score(event)))
        del detector
        gc.collect()

    detector = MstreamDetector(2, 0, n_buckets=BIG, alpha=0.85, seed=2)
    oracle = ExactMstreamOracle(detector)
    rng = np.random.default_rng(2)
    tick = 1
    for _ in range(1000):
        if rng.random() < 0.05:
            tick += 1
        record = MultiAspectRecord(
            (f"a{rng.integers(0, 10)}", f"b{rng.integers(0, 10)}"), (), tick
        )
        worst = max(worst, abs(detector.score(record).total - oracle.score(record)))
    del detector
    gc.collect()

    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9
    report(2, ok, f"chi-squared exactness vs exact counters: max |diff|={worst:.2e} "
                  f"(tol 1e-9), {elapsed:.1f}s")


# -- 3. false-positive bound ------------------------------------------------------


def test_criterion_03_false_positive_bound():
    started = time.perf_counter()
    epsilon = 0.05
    flagged = decisions = 0
    per_seed = []
    for seed in range(20):
        events, pair = synth_stationary_stream(seed=seed)
        detector = MidasDetector("plain", seed=seed)
        rule = DecisionRule.for_detector(epsilon, detector)
        seed_flagged = seed_decisions = 0
        for event in events:
            stats = detector.process(event)
            if (event.source, event.dest) == pair and event.tick >= 2:
                seed_decisions += 1
                seed_flagged += rule.is_flagged(stats)
        flagged += seed_flagged
        decisions += seed_decisions
        per_seed.append(seed_flagged / seed_decisions)
    rate = flagged / decisions
    elapsed = time.perf_counter() - started
    ok = rate <= epsilon
    report(
        3,
        ok,
        f"false-positive bound: pooled flag rate {rate:.4f} <= {epsilon} "
        f"(per-seed max {max(per_seed):.4f}) over 20 seeds x 1e5 edges, {elapsed:.0f}s",
    )


# -- the flag rate where the bound does not hold ------------------------------------

# (variant, rows, buckets) -> the all-edge and monitored-pair flag rates at
# epsilon 0.05 on stationary streams with no anomaly, as the README and
# DecisionRule's docstring state them: seeds 0-2, hash rows seeded with the
# stream's seed as in criterion 3, edges at tick >= 2, pooled over the seeds.
NULL_FLAG_RATES = {
    ("plain", 2, 1024): ("70%", "2.2%"),
    ("plain", 4, 1024): ("88%", "2.0%"),
    ("relational", 2, 1024): ("21%", "10%"),
}


def at_rounding(rate, stated):
    """``rate`` as a percentage with as many decimals as ``stated`` has."""
    return f"{rate:.{len(stated.rstrip('%').partition('.')[2])}%}"


def test_null_flag_rates_are_the_stated_ones():
    streams = []
    for seed in range(3):
        events, pair = synth_stationary_stream(seed=seed)
        later = np.array([event.tick >= 2 for event in events])
        on_pair = later & np.array([(event.source, event.dest) == pair for event in events])
        streams.append((events, later, on_pair))
    for (variant, n_rows, n_buckets), stated in NULL_FLAG_RATES.items():
        flagged, decisions = np.zeros(2), np.zeros(2)  # all edges, the monitored pair
        for seed, (events, later, on_pair) in enumerate(streams):
            detector = MidasDetector(variant, n_rows=n_rows, n_buckets=n_buckets, seed=seed)
            _, flags = detector.process_many(events, DecisionRule.for_detector(0.05, detector))
            flags = np.array(flags)
            flagged += flags[later].sum(), flags[on_pair].sum()
            decisions += later.sum(), on_pair.sum()
        rates = flagged / decisions
        got = tuple(map(at_rounding, rates, stated))
        print(f"[null flag rate] {variant} {n_rows}x{n_buckets}: all edges {rates[0]:.2%}, "
              f"monitored pair {rates[1]:.2%}")
        assert got == stated, (variant, n_rows, n_buckets)


# -- 4. microcluster detection at desk scale ----------------------------------------


def test_criterion_04_microcluster_detection():
    started = time.perf_counter()
    events, labels = synth_burst_stream(seed=0)
    aucs = {}
    for variant in ("plain", "relational", "filtering"):
        detector = MidasDetector(variant, seed=0)
        aucs[variant] = roc_auc([detector.score(e) for e in events], labels)
    elapsed = time.perf_counter() - started
    ok = aucs["relational"] >= 0.95 and aucs["filtering"] >= aucs["plain"]
    report(
        4,
        ok,
        f"microcluster detection: relational AUC {aucs['relational']:.4f} >= 0.95, "
        f"filtering {aucs['filtering']:.4f} >= plain {aucs['plain']:.4f}, {elapsed:.1f}s",
    )


# -- 5. densest-submatrix 2-approximation --------------------------------------------


def test_criterion_05_two_approximation():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    worst_ratio = math.inf
    for _ in range(200):
        n = int(rng.integers(2, 9))  # up to 8x8: oracle enumerates <= 2^16 shapes
        matrix = rng.integers(0, 10, size=(n, n)).astype(float)
        greedy = anograph_density(matrix)
        optimum = brute_force_density(matrix)
        if optimum > 0:
            worst_ratio = min(worst_ratio, greedy / optimum)
        assert greedy >= 0.5 * optimum - 1e-9
    elapsed = time.perf_counter() - started
    ok = worst_ratio >= 0.5 and elapsed < 30.0
    report(
        5,
        ok,
        f"2-approximation: worst greedy/optimal ratio {worst_ratio:.4f} >= 0.5 "
        f"over 200 matrices, {elapsed:.1f}s (< 30s)",
    )


# -- 6. graph-window separation ---------------------------------------------------------


def test_criterion_06_window_separation():
    started = time.perf_counter()
    hits = 0
    for seed in range(10):
        events, labels, planted = synth_graph_windows(seed=seed)
        windows = window_aggregate(
            events, labels, WindowSpec(10, 50), n_rows=2, n_buckets=32, seed=seed
        )
        scores = [anograph_score(window) for window, _ in windows]
        top = int(np.argmax(scores))
        strictly_highest = scores[top] > max(
            value for i, value in enumerate(scores) if i != top
        )
        window_labels = [label for _, label in windows]
        hits += (
            top == planted
            and strictly_highest
            and window_labels[top] == 1
            and sum(window_labels) == 1
        )
    elapsed = time.perf_counter() - started
    ok = hits == 10
    report(6, ok, f"window separation: planted window scored strictly highest "
                  f"{hits}/10 seeds, {elapsed:.1f}s")


# -- 7. two-state simulator table reproduction --------------------------------------------


def test_criterion_07_pomdp_table_reproduction():
    started = time.perf_counter()
    process = TwoStateProcess(p=0.001, q=0.02)
    seeds = range(10)
    steps = 1_000_000

    always_n, _ = accuracy_sweep(
        process, PredictorConfig("opt", wait_steps=10, phi=0.0), steps, seeds
    )
    imitate, _ = accuracy_sweep(
        process,
        PredictorConfig("imitate", p_hat=0.001, q_hat=0.02, phi=0.0),
        steps,
        seeds,
    )
    opt_quiet, _ = accuracy_sweep(
        process, PredictorConfig("opt", wait_steps=200, phi=0.0), steps, seeds
    )
    opt_noisy, _ = accuracy_sweep(
        process,
        PredictorConfig("opt", wait_steps=200, phi=0.02, one_sided=True),
        steps,
        seeds,
    )
    elapsed = time.perf_counter() - started
    ok = (
        abs(always_n - 0.951) <= 0.005
        and abs(imitate - 0.908) <= 0.005
        and abs(opt_noisy - 0.899) <= 0.01
        and opt_noisy < opt_quiet
        and elapsed < 60.0
    )
    report(
        7,
        ok,
        f"two-state tables: always-N {always_n:.4f} (0.951±0.005), "
        f"imitate {imitate:.4f} (0.908±0.005), one-sided wait-200 {opt_noisy:.4f} "
        f"(0.899±0.01) < no-feedback {opt_quiet:.4f}; {elapsed:.0f}s (< 60s)",
    )


# -- 8. feedback improvement direction ------------------------------------------------------


def _feedback_run(events, labels, seed, phi, two_sided):
    detector = MidasDetector("relational", seed=seed)
    params = SharpeningParams()
    coins = np.random.default_rng(seed + 77_777).random(len(events)) < phi
    scores = []
    for index, event in enumerate(events):
        scores.append(detector.score(event))
        if phi > 0 and coins[index] and (two_sided or labels[index] == 1):
            cells = detector.cells(event.source, event.dest)
            apply_feedback(detector, cells, labels[index], params, index)
    return roc_auc(scores, labels)


def test_criterion_08_feedback_improvement_direction():
    started = time.perf_counter()
    phi = 1e-4  # 0.01% of edges receive a label
    gains_two, gains_one = [], []
    for seed in range(10):
        events, labels = synth_attack_stream(seed=seed)
        base = _feedback_run(events, labels, seed, 0.0, True)
        gains_two.append(_feedback_run(events, labels, seed, phi, True) - base)
        gains_one.append(_feedback_run(events, labels, seed, phi, False) - base)
    mean_two = float(np.mean(gains_two))
    mean_one = float(np.mean(gains_one))
    elapsed = time.perf_counter() - started
    ok = mean_two >= 0.01 and mean_one < mean_two
    report(
        8,
        ok,
        f"feedback direction: two-sided gain {mean_two:.4f} >= 0.01, "
        f"one-sided gain {mean_one:.4f} smaller, 10 seeds, {elapsed:.0f}s",
    )


# -- 9. scalability ---------------------------------------------------------------------------


def _timed_scoring(n_edges, seed):
    rng = np.random.default_rng(seed)
    ticks = np.sort(rng.integers(1, max(2, n_edges // 100), size=n_edges))
    sources = rng.integers(0, 1000, size=n_edges)
    dests = rng.integers(0, 1000, size=n_edges)
    detector = MidasDetector("plain", seed=seed)
    score = detector.score
    gc.disable()
    # The thread's CPU time: a stretch in which another process holds the
    # core adds nothing to it, as it would to wall time.
    started = time.thread_time()
    for i in range(n_edges):
        score(EdgeEvent(int(sources[i]), int(dests[i]), int(ticks[i])))
    elapsed = time.thread_time() - started
    gc.enable()
    return elapsed


def _peak_allocation(n_edges, seed):
    rng = np.random.default_rng(seed)
    ticks = np.sort(rng.integers(1, max(2, n_edges // 100), size=n_edges))
    sources = rng.integers(0, 1000, size=n_edges)
    dests = rng.integers(0, 1000, size=n_edges)
    detector = MidasDetector("plain", seed=seed)
    score = detector.score
    gc.collect()
    tracemalloc.start()
    for i in range(n_edges):
        score(EdgeEvent(int(sources[i]), int(dests[i]), int(ticks[i])))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, detector.state_bytes()


def test_criterion_09_scalability():
    started = time.perf_counter()
    sizes = [2**k for k in range(16, 21)]
    # A slow stretch of a shared machine can land on one size of one pass;
    # fit each size's fastest of a few interleaved passes.
    passes = [[_timed_scoring(n, seed=9) for n in sizes] for _ in range(3)]
    times = [min(runs) for runs in zip(*passes)]
    r_squared = linear_fit_r2(sizes, times)

    peak_small, state_small = _peak_allocation(10_000, seed=9)
    peak_large, state_large = _peak_allocation(100_000, seed=9)
    allowance = 1 << 20  # transient allocations; anything linear would be ~10x
    elapsed = time.perf_counter() - started
    ok = (
        r_squared >= 0.98
        and state_small == state_large
        and abs(peak_large - peak_small) < allowance
    )
    per_edge = [t / n * 1e6 for t, n in zip(times, sizes)]
    report(
        9,
        ok,
        f"scalability: total-time fit R^2={r_squared:.4f} >= 0.98 over 2^16..2^20 "
        f"(per-edge {min(per_edge):.1f}-{max(per_edge):.1f}us), detector state "
        f"{state_large}B constant, peak-alloc delta {abs(peak_large - peak_small)}B, "
        f"{elapsed:.0f}s",
    )


# -- 10. rank-based AUC against the pairwise oracle ---------------------------------------------


def test_criterion_10_auc_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        scores = np.round(rng.random(1000) * 200, 1)  # ties on a coarse grid
        labels = (rng.random(1000) < rng.uniform(0.1, 0.9)).astype(int)
        if labels.sum() in (0, 1000):
            labels[:3] = [0, 1, 0]
        worst = max(worst, abs(roc_auc(scores, labels) - pairwise_auc(scores, labels)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12
    report(10, ok, f"rank AUC vs pairwise oracle: max |diff|={worst:.2e} "
                   f"(tol 1e-12) on 100 instances of size 1000, {elapsed:.1f}s")
