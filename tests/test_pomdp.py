import numpy as np
import pytest

from streamsketch.pomdp import (
    PredictorConfig,
    TwoStateProcess,
    accuracy_sweep,
    expected_accuracy_one_sided,
    run_predictor,
)
from streamsketch.pomdp import _evolve_chain


# -- step-by-step reference implementations -----------------------------------


def _step(state, u, p, q):
    if state == 0:
        return 1 if u < p else 0
    return 0 if u < q else 1


def reference_run(process, config, steps, seed):
    """Plain per-step simulator consuming the same draws as the fast path."""
    rng = np.random.default_rng(seed)
    u_chain = rng.random(steps)
    u_feedback = rng.random(steps)
    u_pred = rng.random(steps) if config.kind == "imitate" else None

    truth = np.empty(steps, dtype=np.int8)
    truth[0] = 1 if process.start_anomalous else 0
    for t in range(steps - 1):
        truth[t + 1] = _step(truth[t], u_chain[t], process.p, process.q)

    correct = 0
    chain_state = 1 if process.start_anomalous else 0
    last_fb_pos = None
    last_fb_label = None
    for t in range(steps):
        if config.kind == "imitate":
            prediction = chain_state
        else:
            if last_fb_pos is None or last_fb_label == 0:
                prediction = 0
            else:
                prediction = 1 if (t - last_fb_pos) <= config.resolved_wait() else 0
        correct += prediction == truth[t]
        delivered = u_feedback[t] < config.phi and (
            not config.one_sided or truth[t] == 1
        )
        if delivered:
            last_fb_pos, last_fb_label = t, int(truth[t])
        if config.kind == "imitate":
            base = truth[t] if delivered else chain_state
            chain_state = _step(base, u_pred[t], config.p_hat, config.q_hat)
    return correct / steps


# -- validation -----------------------------------------------------------------


def test_process_validation():
    with pytest.raises(ValueError):
        TwoStateProcess(p=0.0, q=0.5)
    with pytest.raises(ValueError):
        TwoStateProcess(p=0.1, q=1.0)
    assert TwoStateProcess(p=0.001, q=0.02).stationary_anomalous == pytest.approx(
        0.001 / 0.021
    )


def test_config_validation():
    with pytest.raises(ValueError, match="got 'other'$"):  # a string kind keeps its quotes
        PredictorConfig(kind="other")
    with pytest.raises(ValueError):
        PredictorConfig(kind="imitate", p_hat=0.5, q_hat=None)
    with pytest.raises(ValueError):
        PredictorConfig(kind="opt", wait_steps=0)
    with pytest.raises(ValueError):
        PredictorConfig(kind="opt", phi=1.5)
    assert PredictorConfig(kind="opt", q_hat=0.02).resolved_wait() == 50
    assert PredictorConfig(kind="opt", q_hat=0.03).resolved_wait() == 34
    with pytest.raises(ValueError):
        PredictorConfig(kind="opt").resolved_wait()
    with pytest.raises(ValueError):
        run_predictor(TwoStateProcess(0.1, 0.2), PredictorConfig(kind="opt", wait_steps=5), 0)


# -- chain reconstruction ---------------------------------------------------------


@pytest.mark.parametrize("p,q", [(0.3, 0.6), (0.6, 0.3), (0.01, 0.4), (0.5, 0.5)])
@pytest.mark.parametrize("start", [0, 1])
def test_closed_form_chain_matches_stepping(p, q, start):
    rng = np.random.default_rng(0)
    u = rng.random(5000)
    fast = _evolve_chain(u, p, q, start)
    slow = np.empty(u.shape[0] + 1, dtype=np.int8)
    slow[0] = start
    for t in range(u.shape[0]):
        slow[t + 1] = _step(slow[t], u[t], p, q)
    assert np.array_equal(fast, slow)


@pytest.mark.parametrize("one_sided", [False, True])
@pytest.mark.parametrize(
    "config_kw",
    [
        dict(kind="imitate", p_hat=0.01, q_hat=0.2),
        dict(kind="imitate", p_hat=0.3, q_hat=0.1),
        dict(kind="opt", wait_steps=7),
        dict(kind="opt", wait_steps=40),
        dict(kind="imitate", p_hat=0.2, q_hat=0.2),
    ],
)
def test_fast_runs_match_reference_simulator(config_kw, one_sided):
    # Long runs with p < q, then runs of 1, 2, 3 and 300 steps with p < q,
    # p > q and p == q, from either state.
    cases = [(TwoStateProcess(p=0.02, q=0.15), 4000, range(6))]
    for p, q in ((0.02, 0.15), (0.3, 0.05), (0.1, 0.1)):
        for start_anomalous in (False, True):
            process = TwoStateProcess(p=p, q=q, start_anomalous=start_anomalous)
            cases += [(process, steps, range(3)) for steps in (1, 2, 3, 300)]
    for process, steps, seeds in cases:
        for seed in seeds:
            for phi in (0.0, 0.05, 0.3, 1.0):
                config = PredictorConfig(phi=phi, one_sided=one_sided, **config_kw)
                fast = run_predictor(process, config, steps, seed=seed)
                assert fast == reference_run(process, config, steps, seed)


# -- stationary behaviour -----------------------------------------------------------


def test_anomalous_fraction_matches_stationary_distribution():
    process = TwoStateProcess(p=0.001, q=0.02)
    fractions = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        truth = _evolve_chain(rng.random(1_000_000), 0.001, 0.02, 0)
        fractions.append(float(np.mean(truth)))
    assert np.mean(fractions) == pytest.approx(process.stationary_anomalous, abs=0.002)


def test_always_normal_accuracy_is_the_normal_fraction():
    process = TwoStateProcess(p=0.001, q=0.02)
    config = PredictorConfig(kind="opt", wait_steps=10, phi=0.0)
    mean, _ = accuracy_sweep(process, config, 1_000_000, seeds=range(5))
    assert mean == pytest.approx(0.02 / 0.021, abs=0.005)


def test_imitate_without_feedback_matches_mixing_formula():
    p, q = 0.001, 0.02
    p_hat, q_hat = 0.001, 0.01
    expected = (p_hat * p + q_hat * q) / ((p_hat + q_hat) * (p + q))
    process = TwoStateProcess(p=p, q=q)
    config = PredictorConfig(kind="imitate", p_hat=p_hat, q_hat=q_hat, phi=0.0)
    mean, _ = accuracy_sweep(process, config, 1_000_000, seeds=range(5))
    assert mean == pytest.approx(expected, abs=0.005)


def test_imitate_improves_with_two_sided_feedback():
    process = TwoStateProcess(p=0.001, q=0.02)
    seeds = range(50)
    steps = 100_000
    base = [
        run_predictor(process, PredictorConfig("imitate", 0.001, 0.02, phi=0.0), steps, s)
        for s in seeds
    ]
    with_fb = [
        run_predictor(process, PredictorConfig("imitate", 0.001, 0.02, phi=0.02), steps, s)
        for s in seeds
    ]
    pooled_se = float(np.std(base) / np.sqrt(len(base)))
    assert np.mean(with_fb) >= np.mean(base) - pooled_se


def test_opt_one_sided_feedback_can_hurt():
    process = TwoStateProcess(p=0.001, q=0.02)
    steps = 1_000_000
    seeds = range(5)
    quiet, _ = accuracy_sweep(
        process, PredictorConfig("opt", wait_steps=200, phi=0.0), steps, seeds
    )
    noisy, _ = accuracy_sweep(
        process,
        PredictorConfig("opt", wait_steps=200, phi=0.02, one_sided=True),
        steps,
        seeds,
    )
    assert noisy < quiet - 0.03


# -- closed form ----------------------------------------------------------------------


def test_closed_form_branches_agree_at_the_knee():
    p, q, phi = 0.001, 0.02, 0.005
    knee = int(1.0 / q)  # 50
    low = expected_accuracy_one_sided(p, q, knee, phi)
    # Evaluate the second branch formula directly at the same point.
    high = q / (p + q) + phi * (1.0 / q - q * knee / (p + q))
    assert low == pytest.approx(high, abs=1e-12)


def test_closed_form_value_and_simulator_agreement():
    p, q = 0.001, 0.02
    value = expected_accuracy_one_sided(p, q, 50, 0.005)
    assert value == pytest.approx(0.9643, abs=1e-3)
    process = TwoStateProcess(p=p, q=q)
    config = PredictorConfig("opt", wait_steps=50, phi=0.005, one_sided=True)
    mean, _ = accuracy_sweep(process, config, 1_000_000, seeds=range(5))
    assert mean == pytest.approx(value, abs=0.02)


def test_feedback_coefficient_changes_sign_past_the_tipping_wait():
    p, q = 0.001, 0.02
    tipping = (p + q) / (q * q)  # 52.5 for these rates
    below = expected_accuracy_one_sided(p, q, 52, 0.005)
    above = expected_accuracy_one_sided(p, q, 53, 0.005)
    base = q / (p + q)
    assert 52 < tipping < 53
    assert below > base       # feedback still helps just below the threshold
    assert above < base       # and hurts just above it


def test_closed_form_rejects_out_of_regime_arguments():
    with pytest.raises(ValueError, match="1/phi"):
        expected_accuracy_one_sided(0.001, 0.02, 200, 0.02)
    with pytest.raises(ValueError, match="1/p"):
        expected_accuracy_one_sided(0.001, 0.02, 1000, 0.0005)
    with pytest.raises(ValueError):
        expected_accuracy_one_sided(0.001, 0.02, 0, 0.005)
    with pytest.raises(ValueError):
        expected_accuracy_one_sided(0.0, 0.02, 10, 0.005)


def test_accuracy_sweep_rejects_an_empty_seed_list():
    process = TwoStateProcess(p=0.01, q=0.1, seed=1)
    config = PredictorConfig(kind="imitate", p_hat=0.01, q_hat=0.1)
    with pytest.raises(ValueError, match="at least one seed"):
        accuracy_sweep(process, config, 100, seeds=[])
