"""Quality gate for sampled answers: every claim judged against the exact game.

From 10 owners mc and svexp take the sampled route, while bf and
diff_shapley_exact stay exact up to EXACT_OWNER_LIMIT (12). So on games of
10-12 owners each sampled answer can be judged exactly. Per answer:

- a false success: the answer reports success, but the exact differential
  after its shift is >= 0 (a still at or above b);
- a wrong precondition: the precheck's verdict (not met, or met and
  searched) has the other sign than the exact differential;
- its excess: its size minus bf's minimum.

The oracle is a small KDE table, so the 24 trials take seconds (6-10 s on
a 2-core box). The bounds are set from the code as it is. With SEED 1 to 6
(48 sampled answers each) no answer was a false success, 1, 1, 1, 5, 1
and 2 had a wrong precondition, none was smaller than bf's, and the mean
excess was 0 to 0.061. A flip check that decides on its point estimate
after one batch made 7, 12 and 10 wrong preconditions with SEED 1 to 3,
and fails the gate. Sampled bytes differ across numpy versions, but these
judgements hold on any numpy; the file needs only pytest, numpy and the
package.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from shapcf import (
    Dataset,
    ExplainConfig,
    KdeUtility,
    Transfer,
    apply_transfer,
    diff_shapley_exact,
    explain,
    gen_uniform,
    shapley_exact_all,
    spawn_rng,
)

SEED = 2
TRIALS = 24
# The budgets the acceptance tests and the benchmark run the engines at.
CONFIG = ExplainConfig(check_budget=2000, verify_budget=4000, arm_budget=1200, bandit_budget=12000, epsilon=0.05)
SAMPLED = ("mc", "svexp")
# Binomial margin: a rate of 1 - delta over N answers allows N(1 - delta)
# plus 3 standard deviations; at N = 48 that is 6.9, exceeded with
# probability about 0.009 when every answer errs at exactly 1 - delta.
SIGMAS = 3.0
# Mean excess over bf's size allowed: 0.061 at most with SEED 1 to 6; this
# allows about one overshoot in five answers.
MEAN_EXCESS = 0.2


def verdict(d: float) -> str:
    """The precheck verdict an exact differential d gives (as explain's exact check reads it)."""
    return "flipped" if d < 0.0 else "not_flipped" if d > 0.0 else "undecided"


def precheck_verdict(status: str) -> str:
    """The verdict of a result's precheck: not met means b is already above a."""
    return {"precondition_not_met": "flipped", "precondition_undecided": "undecided"}.get(status, "not_flipped")


@pytest.fixture(scope="module")
def judged() -> list[dict]:
    """One record per sampled answer: its exact judgement next to bf's answer on the same pair.

    Each trial draws 10, 11 or 12 owners of 1-8 rows each over 60 training
    rows. Sampled checks err near ties, so a trial asks about a close
    pair: a above b by the smallest exact gap of any pair whose a holds 2
    rows or more, or in every third trial by the lower quartile of those
    gaps.
    """
    rng = np.random.default_rng(SEED)
    x = rng.normal(size=(72, 2))
    train, test = Dataset(x[:60], ("f0", "f1")), Dataset(x[60:], ("f0", "f1"))
    records = []
    for t in range(TRIALS):
        trial_rng = spawn_rng(SEED, t)
        n = 10 + t % 3
        oracle = KdeUtility(train, test)
        partition = gen_uniform(range(len(train)), n, trial_rng, size_range=(1, 8))
        phi = shapley_exact_all(partition, oracle)
        gaps = sorted(
            (phi[a] - phi[b], a, b)
            for a in partition.owner_ids()
            for b in partition.owner_ids()
            if phi[a] > phi[b] and len(partition.owners[a]) >= 2
        )
        _, a, b = gaps[0 if t % 3 != 2 else len(gaps) // 4]
        exact = diff_shapley_exact(partition, oracle, a, b)
        bf = explain("bf", partition, oracle, a, b, config=CONFIG)
        assert bf.samples_used == 0
        for k, engine in enumerate(SAMPLED):
            res = explain(engine, partition, oracle, a, b, spawn_rng(SEED, t, k), config=CONFIG)
            assert res.samples_used > 0  # the sampled route
            after = None
            if res.success:
                moved = apply_transfer(partition, Transfer(a, b, frozenset(res.delta)))
                after = diff_shapley_exact(moved, oracle, a, b)
            records.append(
                {
                    "engine": engine,
                    "exact": exact,
                    "precheck": precheck_verdict(res.status),
                    "success": res.success,
                    "after": after,
                    "size": res.size,
                    "bf_size": bf.size if bf.success else None,
                }
            )
    return records


def binomial_limit(count: int, rate: float) -> float:
    return count * rate + SIGMAS * math.sqrt(count * rate * (1.0 - rate))


def test_false_successes_within_one_minus_delta(judged):
    false = [r for r in judged if r["success"] and r["after"] >= 0.0]
    assert len(false) <= binomial_limit(len(judged), 1.0 - CONFIG.delta), false


def test_wrong_preconditions_within_one_minus_delta(judged):
    wrong = [r for r in judged if r["precheck"] != "undecided" and r["precheck"] != verdict(r["exact"])]
    assert len(wrong) <= binomial_limit(len(judged), 1.0 - CONFIG.delta), wrong


def test_no_answer_smaller_than_bf_and_bounded_mean_excess(judged):
    excess = [r["size"] - r["bf_size"] for r in judged if r["success"] and r["bf_size"] is not None]
    assert len(excess) >= len(judged) // 2  # most trials are searched, not refused
    assert min(excess) >= 0
    assert sum(excess) / len(excess) <= MEAN_EXCESS
