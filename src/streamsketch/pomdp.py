"""Two-state feedback simulator.

A hidden process alternates between a normal state N and an anomalous state
A with switch probabilities p (N to A) and q (A to N); long-run it spends
p/(p+q) of its time in A. A predictor guesses the state every step and
occasionally receives the true state as feedback: two-sided feedback can
arrive at any step, one-sided feedback only while the process is actually
anomalous.

Two predictors are provided. ``imitate`` runs its own chain with estimated
switch rates and resets it to whatever feedback reveals. ``opt`` predicts N
until feedback arrives, and after an anomalous label predicts A for a fixed
number of wait steps before returning to N.

Feedback timing: a label for step t reveals the state at step t only after
the prediction for step t is recorded, so it influences predictions from
step t+1 on.

Runs are vectorised: a two-state chain is reconstructed in closed form from
its per-step uniform draws, so million-step accuracy estimates cost a few
array passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hashing import DEFAULT_SEED
from .sketch import shown


@dataclass(frozen=True)
class TwoStateProcess:
    """Hidden Markov process over {normal, anomalous}.

    ``p`` is the probability of switching N to A, ``q`` of switching A to N.
    In the anomaly-detection regime both are small, p < q, and p + q < 1, so
    states are sticky and anomalies arrive in bursts.
    """

    p: float
    q: float
    start_anomalous: bool = False
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {shown(self.p)}")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {shown(self.q)}")

    @property
    def stationary_anomalous(self) -> float:
        return self.p / (self.p + self.q)


@dataclass(frozen=True)
class PredictorConfig:
    """What the predictor is and how feedback reaches it.

    ``wait_steps`` applies to the ``opt`` kind and defaults to
    ceil(1 / q_hat), the optimal wait given the estimated switch rate.
    """

    kind: str = "imitate"
    p_hat: float | None = None
    q_hat: float | None = None
    wait_steps: int | None = None
    phi: float = 0.0
    one_sided: bool = False

    def __post_init__(self):
        if self.kind not in ("imitate", "opt"):
            raise ValueError(f"kind must be 'imitate' or 'opt', got {shown(self.kind, repr)}")
        if not 0.0 <= self.phi <= 1.0:
            raise ValueError(f"phi must be in [0, 1], got {shown(self.phi)}")
        if self.kind == "imitate":
            for name, value in (("p_hat", self.p_hat), ("q_hat", self.q_hat)):
                if value is None or not 0.0 < value < 1.0:
                    raise ValueError(f"imitate needs {name} in (0, 1), got {shown(value)}")
        elif self.q_hat is not None and not 0.0 < self.q_hat < 1.0:  # also rejects nan
            raise ValueError(f"opt needs q_hat in (0, 1), got {shown(self.q_hat)}")
        elif self.wait_steps is not None and self.wait_steps < 1:
            raise ValueError(f"wait_steps must be >= 1, got {shown(self.wait_steps)}")

    def resolved_wait(self) -> int:
        if self.wait_steps is not None:
            return self.wait_steps
        if self.q_hat is None:
            raise ValueError("opt needs wait_steps or q_hat to derive it")
        return math.ceil(1.0 / self.q_hat)


def _evolve_chain(u, p: float, q: float, start: int, restart=None, state=None) -> np.ndarray:
    """``states[t]`` for t = 0..len(u): the state of a two-state chain that
    was ``start`` at step 0 and then applied the maps drawn in ``u[:t]``, or,
    given ``restart`` and ``state``, that was ``state[t]`` at step
    ``restart[t] <= t`` and then applied those in ``u[restart[t]:t]``.

    Each draw applies one of three maps to the state: u < min(p, q) flips it,
    min <= u < max pins it (to N when p < q, to A otherwise), anything else
    keeps it. Pinned segments make the whole path computable by prefix sums:
    after the latest pin, the state is the pinned value xor the parity of
    flips since; with no pin since the restart, it is the restart state xor
    the parity of flips since the restart.
    """
    lo, hi = (p, q) if p <= q else (q, p)
    cum_flips = np.zeros(u.shape[0] + 1, dtype=np.int64)
    np.cumsum(u < lo, out=cum_flips[1:])
    pins = np.where((u >= lo) & (u < hi), np.arange(u.shape[0]), -1)
    pin = np.maximum.accumulate(np.concatenate(([-1], pins)))  # the last pin before each step
    if restart is None:
        restart, state = 0, start
    after_pin = int(p > q) ^ (cum_flips - cum_flips[pin + 1]) & 1
    after_restart = state ^ (cum_flips - cum_flips[restart]) & 1
    return np.where(pin >= restart, after_pin, after_restart).astype(np.int8)


def run_predictor(
    process: TwoStateProcess,
    config: PredictorConfig,
    steps: int,
    seed: int | None = None,
) -> float:
    """Simulate ``steps`` predictions against the hidden process and return
    the fraction the predictor got right."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {shown(steps)}")
    rng = np.random.default_rng(process.seed if seed is None else seed)
    # Fixed draw order so runs are reproducible: chain, feedback, predictor.
    u_chain = rng.random(steps)
    u_feedback = rng.random(steps)

    start = 1 if process.start_anomalous else 0
    truth = _evolve_chain(u_chain[: steps - 1], process.p, process.q, start)
    delivered = u_feedback < config.phi
    if config.one_sided:
        delivered &= truth == 1
    # The last step before each step whose state feedback revealed, -1 if none.
    t = np.arange(steps)
    last = np.maximum.accumulate(np.concatenate(([-1], np.where(delivered, t, -1)[:-1])))

    if config.kind == "opt":
        pred = (last >= 0) & (truth[last] == 1) & (t - last <= config.resolved_wait())
    else:
        # The predictor runs its own chain on its own draws, restarted at each
        # feedback from the state it revealed; truth[0] is start, so a step
        # with no feedback before it restarts there.
        restart = np.maximum(last, 0)
        u_pred = rng.random(steps - 1)
        pred = _evolve_chain(u_pred, config.p_hat, config.q_hat, start, restart, truth[restart])
    return float(np.mean(pred == truth))


def accuracy_sweep(
    process: TwoStateProcess,
    config: PredictorConfig,
    steps: int,
    seeds,
) -> tuple[float, float]:
    """Mean and standard deviation of run accuracy across seeds."""
    values = [run_predictor(process, config, steps, seed=s) for s in seeds]
    if not values:
        raise ValueError("accuracy_sweep needs at least one seed")
    arr = np.asarray(values)
    return float(arr.mean()), float(arr.std())


def expected_accuracy_one_sided(p: float, q: float, wait_steps: int, phi: float) -> float:
    """Closed-form expected accuracy of the waiting predictor under
    one-sided feedback.

    Valid while the wait fits inside an average feedback gap
    (wait_steps < 1/phi) and below the normal sojourn scale
    (wait_steps < 1/p); outside those ranges the blockwise derivation
    breaks down and the arguments are rejected.
    """
    if not 0.0 < p < 1.0 or not 0.0 < q < 1.0:
        raise ValueError("p and q must be in (0, 1)")
    if wait_steps < 1:
        raise ValueError(f"wait_steps must be >= 1, got {shown(wait_steps)}")
    if not 0.0 <= phi < 1.0:
        raise ValueError(f"phi must be in [0, 1), got {shown(phi)}")
    if phi > 0.0 and wait_steps >= 1.0 / phi:
        raise ValueError(f"requires wait_steps < 1/phi: {shown(wait_steps)} >= {1.0 / phi:.6g}")
    if wait_steps >= 1.0 / p:
        raise ValueError(f"requires wait_steps < 1/p: {shown(wait_steps)} >= {1.0 / p:.6g}")
    base = q / (p + q)
    if wait_steps <= 1.0 / q:
        return base + phi * wait_steps * p / (p + q)
    return base + phi * (1.0 / q - q * wait_steps / (p + q))
