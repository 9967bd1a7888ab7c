import math
import sys

import numpy as np
import pytest

from streamsketch.events import EdgeEvent, TickClock
from streamsketch.metrics import roc_auc
from streamsketch.midas import (
    DecisionRule,
    MidasDetector,
    StepStats,
    _scores_many,
    chi2_quantile_1dof,
    chi2_score,
    filtering_score,
    guaranteed_shape,
    standard_normal_quantile,
)
from streamsketch.synth import synth_burst_stream

from oracles import FilteringOracle, PlainOracle, RelationalOracle, random_edge_stream

BIG = 1 << 20  # collision-free bucket count for exactness checks


# -- score formulas -----------------------------------------------------------


def test_plain_score_hand_value():
    assert chi2_score(6, 10, 2) == pytest.approx(0.4, abs=1e-12)


def test_filtering_score_hand_value():
    assert filtering_score(5, 4, 3) == pytest.approx(4.5, abs=1e-12)


def test_degenerate_guards_score_zero():
    assert chi2_score(3, 7, 1) == 0.0
    assert chi2_score(3, 0, 9) == 0.0
    assert filtering_score(3, 7, 1) == 0.0
    assert filtering_score(3, 0, 9) == 0.0


@pytest.mark.parametrize("filtering", [False, True], ids=["chi2", "filtering"])
def test_finite_counts_at_the_largest_float_tick_score_a_number(filtering):
    # The product diff^2 t^2 (or diff^2) overflows, and so does the divisor.
    tick = int(sys.float_info.max)
    score = filtering_score if filtering else chi2_score
    current, total = np.array([1.0, 1.0, 0.5, 3.0]), np.array([2.0, 3.0, 4.0, 2.0])
    values = [score(a, s, tick) for a, s in zip(current.tolist(), total.tolist())]
    assert not any(math.isnan(value) for value in values)
    assert values[0] == pytest.approx(tick / 2, rel=1e-12)  # a = 1, s = 2: about t/2
    with np.errstate(all="ignore"):  # as step_many and flags_many call it
        assert np.array_equal(_scores_many(current, total, tick, filtering), values)
    assert math.isnan(score(math.inf, math.inf, 3))  # counts that overflowed stay nan


def test_first_edge_scores_zero():
    for variant in ("plain", "relational", "filtering"):
        detector = MidasDetector(variant, seed=1)
        assert detector.score(EdgeEvent("u", "v", 1)) == 0.0


def test_plain_score_is_monotone_in_burst_size():
    total, tick = 10.0, 4
    floor = total / tick
    values = [chi2_score(a, total, tick) for a in np.linspace(floor, floor + 30, 40)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_tick_regression_rejected():
    detector = MidasDetector("plain", seed=1)
    detector.score(EdgeEvent("u", "v", 5))
    with pytest.raises(ValueError, match="tick regression"):
        detector.score(EdgeEvent("u", "v", 4))



def test_tick_clock_reports_each_closed_tick_once():
    clock = TickClock()
    assert clock.advance(3) is None  # first tick: nothing to close
    assert clock.advance(3) is None
    assert clock.advance(5) == 3
    assert clock.advance(5) is None
    with pytest.raises(ValueError, match="tick regression: got 4 after 5"):
        clock.advance(4)
    assert clock.tick == 5
    assert clock.advance(6) == 5

def test_weight_feeds_counts():
    detector = MidasDetector("plain", n_buckets=BIG, seed=1)
    detector.score(EdgeEvent("u", "v", 1, weight=2.0))
    stats = detector.process(EdgeEvent("u", "v", 2, weight=3.0))
    assert stats.total_count == 5.0
    assert stats.current_count == 3.0  # plain clears on tick change


# -- exact-counter oracles ----------------------------------------------------


@pytest.mark.parametrize("variant", ["plain", "relational", "filtering"])
def test_collision_free_scores_match_exact_counters(variant):
    events = random_edge_stream(seed=5)
    detector = MidasDetector(variant, n_buckets=BIG, alpha=0.5, seed=5)
    oracle = {
        "plain": PlainOracle(),
        "relational": RelationalOracle(0.5),
        "filtering": FilteringOracle(0.5, 1000.0),
    }[variant]
    for event in events:
        assert detector.score(event) == pytest.approx(oracle.score(event), abs=1e-9)


def test_microcluster_burst_outranks_quiet_history():
    # One pair: one edge per tick for ticks 1..9, then 30 edges at tick 10.
    detector = MidasDetector("plain", n_buckets=BIG, seed=2)
    quiet = [detector.score(EdgeEvent("u", "v", t)) for t in range(1, 10)]
    burst = [detector.score(EdgeEvent("u", "v", 10)) for _ in range(30)]
    assert max(burst) > max(quiet[1:])


def test_filtering_resists_poisoning_on_sustained_attack():
    events = []
    for tick in range(1, 31):
        for other in range(10):
            events.append(EdgeEvent(100 + other, 200 + other, tick))
        events.append(EdgeEvent("bad", "victim", tick))  # quiet pre-history
        if tick >= 10:
            events.extend(EdgeEvent("bad", "victim", tick) for _ in range(50))
    plain = MidasDetector("plain", n_buckets=BIG, seed=3)
    filtering = MidasDetector("filtering", n_buckets=BIG, seed=3)
    plain_attack, filtering_attack = [], []
    for event in events:
        p = plain.score(event)
        f = filtering.score(event)
        if event.source == "bad" and event.tick >= 24:  # final third of the attack
            plain_attack.append(p)
            filtering_attack.append(f)
    assert np.mean(filtering_attack) >= np.mean(plain_attack)


# -- combined scores -----------------------------------------------------------


def _stats(edge, src, dst):
    return StepStats(
        tick=2,
        edge_score=edge,
        source_score=src,
        dest_score=dst,
        current_count=1.0,
        total_count=1.0,
        tick_volume=1.0,
    )


def test_combined_max_and_sum():
    assert _stats(0.0, 0.0, 7.0).combined("max") == 7.0
    assert _stats(0.0, 0.0, 7.0).combined("sum") == 7.0
    assert _stats(1.0, 2.0, 3.0).combined("max") == 3.0
    assert _stats(1.0, 2.0, 3.0).combined("sum") == 6.0
    with pytest.raises(ValueError):
        _stats(1.0, 2.0, 3.0).combined("median")


def test_max_and_sum_rank_bursts_similarly():
    events, labels = synth_burst_stream(seed=3)
    det_max = MidasDetector("relational", seed=3)
    det_sum = MidasDetector("relational", seed=3)
    auc_max = roc_auc([det_max.process(e).combined("max") for e in events], labels)
    auc_sum = roc_auc([det_sum.process(e).combined("sum") for e in events], labels)
    assert abs(auc_max - auc_sum) < 0.05


# -- decision rule -------------------------------------------------------------


def _normal_quantile_by_bisection(p):
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_normal_quantile_accuracy_against_bisection():
    for p in (1e-6, 0.01, 0.02425, 0.2, 0.5, 0.9, 0.975, 0.9875, 1 - 1e-6):
        assert standard_normal_quantile(p) == pytest.approx(
            _normal_quantile_by_bisection(p), abs=1e-9
        )
    with pytest.raises(ValueError):
        standard_normal_quantile(0.0)


def test_normal_quantile_tails_against_erfc_bisection():
    # erf rounds 1 - 2p to 1 below p ~ 1e-17 and loses digits well before, so
    # the reference bisects the lower tail 0.5 * erfc(-x / sqrt 2). An upper
    # level p uses the symmetry z(p) = -z(1 - p), 1 - p being exact in floats.
    def lower_quantile(p):
        lo, hi = -40.0, 0.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < p:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    for p in (1e-12, 1e-15):
        assert standard_normal_quantile(p) == pytest.approx(lower_quantile(p), rel=1e-12)
    p = 1 - 1e-12
    assert standard_normal_quantile(p) == pytest.approx(-lower_quantile(1 - p), rel=1e-12)


def test_chi2_threshold_value():
    assert chi2_quantile_1dof(0.975) == pytest.approx(5.023886, abs=1e-4)
    z = _normal_quantile_by_bisection(0.9875)
    assert chi2_quantile_1dof(0.975) == pytest.approx(z * z, abs=1e-9)


def test_rule_threshold_is_squared_normal_quantile():
    detector = MidasDetector("plain", seed=1)
    rule = DecisionRule.for_detector(0.05, detector)
    z = standard_normal_quantile(1.0 - 0.05 / 4.0)
    assert rule.threshold == pytest.approx(z * z, abs=1e-12)
    assert rule.nu == pytest.approx(math.e / 1024)


def test_rule_validation():
    with pytest.raises(ValueError):
        DecisionRule(0.0, 0.01)
    with pytest.raises(ValueError):
        DecisionRule(0.05, 0.0)


def test_perfectly_expected_count_is_never_flagged():
    stats = StepStats(
        tick=4,
        edge_score=0.0,
        source_score=None,
        dest_score=None,
        current_count=2.0,  # equals total / tick exactly
        total_count=8.0,
        tick_volume=0.0,
    )
    for epsilon in (0.01, 0.05, 0.5, 0.99):
        rule = DecisionRule(epsilon, 1e-3)
        assert rule.statistic(stats) == 0.0
        assert not rule.is_flagged(stats)


def test_guaranteed_shape_values():
    rows, buckets = guaranteed_shape(0.05, math.e / 1024)
    assert rows == math.ceil(math.log(2 / 0.05))
    assert buckets == 1024


@pytest.mark.parametrize("variant, n_tables", [("plain", 2), ("relational", 6), ("filtering", 9)])
def test_state_bytes_counts_every_table(variant, n_tables):
    detector = MidasDetector(variant, n_rows=3, n_buckets=64, seed=1)
    assert detector.state_bytes() == n_tables * 3 * 64 * 8


def test_tick_volume_tracks_decayed_residue():
    detector = MidasDetector("relational", alpha=0.5, seed=1)
    detector.score(EdgeEvent("a", "b", 1, weight=4.0))
    stats = detector.process(EdgeEvent("a", "b", 2, weight=1.0))
    assert stats.tick_volume == pytest.approx(4.0 * 0.5 + 1.0)
    plain = MidasDetector("plain", seed=1)
    plain.score(EdgeEvent("a", "b", 1, weight=4.0))
    stats = plain.process(EdgeEvent("a", "b", 2, weight=1.0))
    assert stats.tick_volume == 1.0
