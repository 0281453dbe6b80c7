"""End-to-end acceptance checks for the package as a whole.

Each test covers one observable guarantee and prints a single numbered
PASS or FAIL line, so a full run reads as a checklist. Exact routines are
held to hard tolerances; sampling routines are held to pooled standard
errors so the checks stay honest about their own randomness. The heavier
data-backed protocols near the end assert directional behaviour (engine
dominance, success rates, size trends) rather than point values.
"""

from __future__ import annotations

import math
import time
from statistics import mean

import numpy as np
import pytest

from conftest import make_blobs, random_games, serve_datasets, two_owner_cover_partition
from oracles import greedy_flip_size

from shapcf.core import OwnerPartition, spawn_rng
from shapcf.datasets import split_dataset
from shapcf.explain import explain
from shapcf.harness import ExperimentConfig, run_experiment, write_outputs
from shapcf.metrics import jaccard, success_rate
from shapcf.power import power_exact, power_mc
from shapcf.shapley import diff_shapley_exact, diff_shapley_mc, shapley_exact_all
from shapcf.utility import AdditiveUtility, SetCoverUtility


def _report(capsys, idx: int, label: str, ok: bool, detail: str = "") -> None:
    """One visible checklist line per test, printed even under capture."""
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[{idx:2d}/10] {label}: {tag}{suffix}")
    assert ok, f"{label}: {tag}{suffix}"


@pytest.fixture(scope="module")
def axiom_games():
    # 200 mixed additive and set-cover games, 2..6 owners, shared by the
    # first two checks so the corpus is sampled once.
    return random_games(2026, 200, n_lo=2, n_hi=6)


def test_01_exact_values_satisfy_core_axioms(capsys, axiom_games):
    t0 = time.monotonic()
    eff_bad = sym_bad = null_bad = 0
    sym_pairs = null_seen = 0
    for part, oracle in axiom_games:
        values = shapley_exact_all(part, oracle)
        grand = oracle.value(part.universe())
        if abs(math.fsum(values.values()) - grand) > 1e-9:
            eff_bad += 1
        ids = part.owner_ids()
        for i, one in enumerate(ids):
            if not part.entries(one):
                null_seen += 1
                if values[one] != 0.0:
                    null_bad += 1
            for other in ids[i + 1 :]:
                if part.entries(one) == part.entries(other):
                    sym_pairs += 1
                    if values[one] != values[other]:
                        sym_bad += 1
    elapsed = time.monotonic() - t0
    ok = (
        eff_bad == 0
        and sym_bad == 0
        and null_bad == 0
        and sym_pairs > 0
        and null_seen > 0
        and elapsed < 10.0
    )
    _report(
        capsys, 1,
        "exact values: total split, equal holdings, empty owners on 200 games",
        ok,
        f"{sym_pairs} equal-holdings pairs, {null_seen} empty owners, {elapsed:.1f}s",
    )


def test_02_pairwise_differential_matches_value_difference(capsys, axiom_games):
    worst = 0.0
    checked = 0
    for part, oracle in axiom_games:
        values = shapley_exact_all(part, oracle)
        ids = part.owner_ids()
        for i, one in enumerate(ids):
            for other in ids[i + 1 :]:
                diff = diff_shapley_exact(part, oracle, one, other)
                worst = max(worst, abs(diff - (values[one] - values[other])))
                checked += 1
    ok = worst <= 1e-12 and checked > 0
    _report(
        capsys, 2,
        "pairwise differential equals difference of per-owner values",
        ok,
        f"{checked} pairs, worst gap {worst:.2e}",
    )


def test_03_sampled_differential_unbiased_with_honest_intervals(capsys):
    t0 = time.monotonic()
    games = random_games(777, 20, n_lo=5, n_hi=5)
    pooled_bad = 0
    covered = 0
    for gi, (part, oracle) in enumerate(games):
        ids = part.owner_ids()
        a, b = ids[0], ids[1]
        for one in ids:
            for other in ids:
                if one != other and part.entries(one) != part.entries(other):
                    a, b = one, other
                    break
            else:
                continue
            break
        exact = diff_shapley_exact(part, oracle, a, b)
        means = [
            diff_shapley_mc(part, oracle, a, b, spawn_rng(3001, gi, s), budget=2000).mean
            for s in range(50)
        ]
        se = float(np.std(means, ddof=1)) / math.sqrt(len(means))
        if abs(float(np.mean(means)) - exact) > 3.0 * se + 1e-12:
            pooled_bad += 1
        for s in range(5):
            est = diff_shapley_mc(
                part, oracle, a, b, spawn_rng(3002, gi, s), delta=0.95, budget=400
            )
            lo, hi = est.ci()
            if lo <= exact <= hi:
                covered += 1
    elapsed = time.monotonic() - t0
    ok = pooled_bad == 0 and covered >= 90 and elapsed < 120.0
    _report(
        capsys, 3,
        "sampled differential: pooled means within 3 SE, intervals cover",
        ok,
        f"20/20 games pooled{'' if pooled_bad == 0 else ' FAILED ' + str(pooled_bad)}, "
        f"{covered}/100 intervals cover, {elapsed:.1f}s",
    )


def _entry_power_games():
    """20 three-owner additive games; entry 0 is shared by both owners in the
    first ten and held only by the giver in the last ten."""
    rng = np.random.default_rng(4004)
    games = []
    rest = np.arange(1, 12)
    for i in range(20):
        weights = {e: float(w) for e, w in enumerate(rng.uniform(0.5, 5.0, 12))}
        a_ents = frozenset({0} | {int(v) for v in rng.choice(rest, size=3, replace=False)})
        common = i < 10
        if common:
            b_ents = frozenset({0} | {int(v) for v in rng.choice(rest, size=3, replace=False)})
        else:
            b_ents = frozenset(int(v) for v in rng.choice(rest, size=3, replace=False))
        c_ents = frozenset(int(v) for v in rng.choice(12, size=4, replace=False))
        part = OwnerPartition({"A": a_ents, "B": b_ents, "C": c_ents})
        games.append((part, AdditiveUtility(weights), common))
    return games


def test_04_sampled_entry_power_unbiased_in_both_branches(capsys):
    bad = 0
    n_common = n_diff = 0
    for gi, (part, oracle, shared) in enumerate(_entry_power_games()):
        if shared:
            n_common += 1
        else:
            n_diff += 1
        exact = power_exact(part, oracle, "A", "B", 0)
        means = [
            power_mc(part, oracle, "A", "B", 0, spawn_rng(4005, gi, s), budget=500).mean
            for s in range(30)
        ]
        se = float(np.std(means, ddof=1)) / math.sqrt(len(means))
        if abs(float(np.mean(means)) - exact) > 3.0 * se + 1e-12:
            bad += 1
    ok = bad == 0 and n_common == 10 and n_diff == 10
    _report(
        capsys, 4,
        "sampled entry power: pooled means within 3 SE, shared and unshared",
        ok,
        f"{n_common} shared-entry games, {n_diff} unshared, {bad} outside 3 SE",
    )


def test_05_bruteforce_finds_analytic_minimum_on_disjoint_additive(capsys):
    rng = np.random.default_rng(909)
    matched = 0
    total = 50
    for _ in range(total):
        k = int(rng.integers(1, 11))
        wa = rng.uniform(0.1, 5.0, size=k)
        weights = {j: float(wa[j]) for j in range(k)}
        weights[k] = float(wa.sum() * rng.uniform(0.05, 0.9))
        part = OwnerPartition({"A": frozenset(range(k)), "B": frozenset({k})})
        oracle = AdditiveUtility(weights)
        res = explain("bf", part, oracle, "A", "B")
        expect = greedy_flip_size(weights, part.entries("A"), part.entries("B"))
        if (
            res.status == "ok"
            and res.success
            and expect is not None
            and res.size == expect
            and res.final_diff < 0.0
        ):
            matched += 1
    ok = matched == total
    _report(
        capsys, 5,
        "exhaustive engine matches the heaviest-first closed form",
        ok,
        f"{matched}/{total} disjoint additive games",
    )


def test_06_bruteforce_recovers_unique_minimum_cover(capsys, cover_instances):
    hit = 0
    for game, cstar in cover_instances:
        part = two_owner_cover_partition(game)
        res = explain("bf", part, SetCoverUtility(game), "A", "B")
        if res.status == "ok" and res.success and res.delta == tuple(sorted(cstar)):
            hit += 1
    ok = hit == len(cover_instances) == 10
    _report(
        capsys, 6,
        "exhaustive engine returns the unique minimum cover",
        ok,
        f"{hit}/{len(cover_instances)} instances",
    )


def _instances(records):
    by: dict[tuple[str, int], dict] = {}
    for r in records:
        by.setdefault((r.cell, r.trial), {})[r.engine] = r
    return by


def _completed(rec) -> bool:
    return rec is not None and rec.status == "ok" and rec.success


def test_07_greedy_never_beats_bruteforce_on_small_data_games(capsys, monkeypatch):
    # Overlapping low-dimensional clusters keep single rows from dominating,
    # so flips need more than a trivial transfer; owners of 10..20 rows stay
    # inside the exhaustive engine's entry limit.
    t0 = time.monotonic()
    blobs = make_blobs(50, n_features=2, seed=1313, sep=0.8)
    train, test = split_dataset(blobs, 0.2, spawn_rng(7001))
    serve_datasets(monkeypatch, (train, test))
    runs = []
    for utility, seed in (
        ({"kind": "kde"}, 7117),
        ({"kind": "logistic-regression", "iters": 150}, 7119),
    ):
        cfg = ExperimentConfig.from_json({
            "utility": utility,
            "engines": ["bf", "mc", "svexp"],
            "n_owners": 3,
            "allocation": {"kind": "uniform", "size_range": [10, 20]},
            "trials": 20,
            "seed": seed,
            "sampling": {
                "check_budget": 1500,
                "verify_budget": 4000,
                "arm_budget": 1200,
                "bandit_budget": 12000,
                "epsilon": 0.05,
                "pair_budget": 800,
            },
        })
        runs.append(run_experiment(cfg))

    # Means are taken over trials both engines completed, so the per-trial
    # dominance check and the mean comparison see the same instances.
    bf_sizes: list[int] = []
    sv_sizes: list[int] = []
    violations = 0
    paired_mc = 0
    j_mc: list[float] = []
    j_sv: list[float] = []
    for res in runs:
        for inst in _instances(res.records).values():
            bf = inst.get("bf")
            mc = inst.get("mc")
            sv = inst.get("svexp")
            if _completed(bf) and _completed(sv):
                bf_sizes.append(bf.size)
                sv_sizes.append(sv.size)
                if sv.size < bf.size:
                    violations += 1
                j_sv.append(jaccard(bf.delta_entries, sv.delta_entries))
            if _completed(bf) and _completed(mc):
                paired_mc += 1
                j_mc.append(jaccard(bf.delta_entries, mc.delta_entries))
    elapsed = time.monotonic() - t0
    paired_sv = len(bf_sizes)
    mean_bf = mean(bf_sizes) if bf_sizes else float("nan")
    mean_sv = mean(sv_sizes) if sv_sizes else float("nan")
    ok = (
        violations == 0
        and paired_sv >= 10
        and paired_mc >= 10
        and abs(mean_bf - 2.65) <= 1.5
        and mean_sv >= mean_bf
        and mean(j_mc) >= mean(j_sv)
        and elapsed < 1800.0
    )
    _report(
        capsys, 7,
        "greedy transfer sets never smaller than exhaustive ones",
        ok,
        f"{paired_sv} paired trials, {violations} violations, mean sizes "
        f"bf {mean_bf:.2f} / greedy {mean_sv:.2f}, overlap "
        f"mc {mean(j_mc):.2f} >= greedy {mean(j_sv):.2f}, {elapsed:.0f}s",
    )


def test_08_greedy_flips_reliably_under_density_utility(capsys, monkeypatch):
    t0 = time.monotonic()
    blobs = make_blobs(150, n_features=4, seed=2120)
    train, test = split_dataset(blobs, 0.2, spawn_rng(8001))
    serve_datasets(monkeypatch, (train, test))
    rates = {}
    counts = {}
    for n, seed in ((3, 8113), (6, 8117)):
        cfg = ExperimentConfig.from_json({
            "utility": {"kind": "kde"},
            "engines": ["svexp"],
            "n_owners": n,
            "allocation": {"kind": "uniform", "size_range": [5, 40]},
            "trials": 20,
            "seed": seed,
            "sampling": {
                "check_budget": 2000,
                "verify_budget": 6000,
                "arm_budget": 1500,
                "bandit_budget": 15000,
                "epsilon": 0.05,
                "pair_budget": 1000,
            },
        })
        res = run_experiment(cfg)
        outcomes = [(r.status, r.success, r.timed_out) for r in res.records]
        rates[n] = success_rate(outcomes)
        counts[n] = sum(1 for s, _, t in outcomes if s == "ok" and not t)
    elapsed = time.monotonic() - t0
    ok = (
        all(r is not None and r >= 0.85 for r in rates.values())
        and all(c >= 10 for c in counts.values())
        and elapsed < 3600.0
    )
    shown = ", ".join(
        f"n={n}: {rates[n]:.2f} over {counts[n]}" if rates[n] is not None else f"n={n}: none"
        for n in sorted(rates)
    )
    _report(
        capsys, 8,
        "greedy transfers verifiably flip the pair on density games",
        ok,
        f"{shown}, {elapsed:.0f}s",
    )


def test_09_mean_greedy_size_shrinks_as_owners_multiply(capsys, monkeypatch):
    # A fixed pool divided among more owners: owner sizes scale inversely
    # with the owner count, as they would when real data is split n ways.
    blobs = make_blobs(150, n_features=2, seed=2120, sep=0.8)
    train, test = split_dataset(blobs, 0.2, spawn_rng(8001))
    serve_datasets(monkeypatch, (train, test))
    pool = len(train)
    means = []
    counts = []
    for n in (3, 9, 15):
        cfg = ExperimentConfig.from_json({
            "utility": {"kind": "kde"},
            "engines": ["svexp"],
            "n_owners": n,
            "allocation": {
                "kind": "uniform",
                "size_range": [max(1, pool // (2 * n)), pool // n],
            },
            "trials": 25,
            "seed": 9103,
            "sampling": {
                "check_budget": 1500,
                "verify_budget": 4000,
                "arm_budget": 1200,
                "bandit_budget": 12000,
                "epsilon": 0.05,
                "pair_budget": 800,
            },
        })
        res = run_experiment(cfg)
        sizes = [r.size for r in res.records if r.status == "ok" and r.success]
        counts.append(len(sizes))
        means.append(mean(sizes) if sizes else float("nan"))
    ok = all(c >= 10 for c in counts) and means[0] >= means[1] >= means[2]
    _report(
        capsys, 9,
        "mean greedy transfer size does not grow with owner count",
        ok,
        "sizes " + " >= ".join(f"{m:.2f} (n={n})" for m, n in zip(means, (3, 9, 15))),
    )


def test_10_identical_seeds_give_identical_output_files(capsys, tmp_path):
    cfg_dict = {
        "utility": {"kind": "additive", "weights": {str(i): float(i + 1) for i in range(8)}},
        "engines": ["bf", "mc", "svexp"],
        "n_owners": 3,
        "allocation": {"kind": "uniform", "size_range": [1, 6]},
        "trials": 3,
        "seed": 99,
        "sampling": {"check_budget": 400},
    }
    paths = []
    for name in ("first", "second"):
        res = run_experiment(ExperimentConfig.from_json(dict(cfg_dict)))
        out = tmp_path / name
        write_outputs(res, out)
        paths.append(out)
    same_trials = (paths[0] / "trials.csv").read_bytes() == (paths[1] / "trials.csv").read_bytes()
    same_summary = (
        (paths[0] / "summary.json").read_bytes() == (paths[1] / "summary.json").read_bytes()
    )
    ok = same_trials and same_summary
    _report(
        capsys, 10,
        "same seed twice: byte-identical trial table and summary",
        ok,
        f"trials.csv match {same_trials}, summary.json match {same_summary}",
    )
