"""Acceptance suite: one test per numbered criterion.

Each test enforces its criterion at the stated tolerance (runtime bounds
included) and prints a single PASS line; a failed assertion is the FAIL
line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from regretstream.analytics import nud_value, ntd_value, trait_tally
from regretstream.classify import (
    AdaBoostModel,
    LinearSvmModel,
    NaiveBayesModel,
    TrainConfig,
    ablate,
    two_stage_train,
)
from regretstream.cleanup import CleanupConfig, detect_superficial, run_cleanup
from regretstream.errors import UndefinedDifferenceError
from regretstream.events import CollectionWindow, build_corpus, parse_event
from regretstream.resources import load_default_trait_map, trait_reference_medians_path
from regretstream.stats import Contingency2x2, fisher_exact, mann_whitney_u
from regretstream.synth import POST_START, SynthConfig, generate_synthetic

from test_classify import sparse_from_rows
from test_cleanup import GOLDEN_CASES
from conftest import make_tweet, run_synth_pipeline, ts


def _report(number: int, description: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {description}")


def test_criterion_01_fisher_reference_table():
    start = time.perf_counter()
    res = fisher_exact(Contingency2x2(6, 94, 16, 84))
    elapsed = time.perf_counter() - start
    assert abs(res.effect - 0.335) <= 0.005
    assert abs(res.p_two_sided - 0.04) <= 0.01
    assert elapsed < 1.0
    _report(1, f"fisher anchor OR={res.effect:.4f} p={res.p_two_sided:.4f} ({elapsed:.3f}s)")


def test_criterion_02_fisher_enumeration_oracle():
    def oracle(a, b, c, d) -> float:
        r1, r2, c1 = a + b, c + d, a + c
        denom = Fraction(math.comb(r1 + r2, c1))
        p_obs = Fraction(math.comb(r1, a) * math.comb(r2, c1 - a)) / denom
        total = Fraction(0)
        for a2 in range(max(0, c1 - r2), min(r1, c1) + 1):
            p2 = Fraction(math.comb(r1, a2) * math.comb(r2, c1 - a2)) / denom
            if p2 <= p_obs:
                total += p2
        return float(min(total, Fraction(1)))

    start = time.perf_counter()
    margin_classes = set()
    n_tables = 0
    worst = 0.0
    for n in range(2, 13):
        for a in range(0, n + 1):
            for b in range(0, n + 1 - a):
                for c in range(0, n + 1 - a - b):
                    d = n - a - b - c
                    if a + b == 0 or c + d == 0:
                        continue
                    got = fisher_exact(Contingency2x2(a, b, c, d)).p_two_sided
                    worst = max(worst, abs(got - oracle(a, b, c, d)))
                    margin_classes.add((a + b, c + d, a + c))
                    n_tables += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 10.0
    _report(
        2,
        f"fisher oracle exact on {n_tables} tables / {len(margin_classes)} margin "
        f"classes, max |dp|={worst:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_03_mwu_permutation_oracle():
    def oracle(xs, ys) -> float:
        pooled = sorted(xs) + sorted(ys)
        order = sorted(range(len(pooled)), key=lambda i: pooled[i])
        ranks = [0.0] * len(pooled)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
                j += 1
            midrank = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                ranks[order[k]] = midrank
            i = j + 1
        n1 = len(xs)
        const = n1 * (n1 + 1) / 2.0
        u_obs = sum(ranks[:n1]) - const
        n_le = n_ge = total = 0
        for subset in combinations(range(len(pooled)), n1):
            u = sum(ranks[i] for i in subset) - const
            total += 1
            if u <= u_obs:
                n_le += 1
            if u >= u_obs:
                n_ge += 1
        return min(1.0, 2.0 * min(n_le, n_ge) / total)

    rng = np.random.default_rng(20150803)
    start = time.perf_counter()
    worst = 0.0
    for k in range(200):
        n1 = int(rng.integers(1, 9))
        n2 = int(rng.integers(1, 9))
        if k % 2:
            xs = [float(v) for v in rng.integers(0, 8, size=n1)]
            ys = [float(v) for v in rng.integers(0, 8, size=n2)]
        else:
            xs = [round(float(v), 3) for v in rng.normal(0, 1, size=n1)]
            ys = [round(float(v), 3) for v in rng.normal(0.5, 1, size=n2)]
        got = mann_whitney_u(xs, ys).p_two_sided
        worst = max(worst, abs(got - oracle(xs, ys)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 30.0
    _report(3, f"mwu oracle exact on 200 instances, max |dp|={worst:.2e} ({elapsed:.1f}s)")


def test_criterion_04_superficial_boundary_fixture():
    assert len(GOLDEN_CASES) == 20
    cfg = CleanupConfig(client_whitelist=frozenset({"Twitter Web Client"}))
    for i, (text, followups, expected) in enumerate(GOLDEN_CASES, start=1):
        deleted = make_tweet(id=1, created_at=ts(hours=0), text=text, deleted=True)
        fus = [
            make_tweet(id=100 + k, created_at=ts(hours=1 + k), text=ftext)
            for k, ftext in enumerate(followups)
        ]
        assert detect_superficial(deleted, fus, cfg) is expected, f"case {i}"
    _report(4, "20-case superficial golden fixture incl. distance-4/5 and cosine-0.6 boundaries")


def test_criterion_05_cleanup_closure_on_default_stream(whitelist):
    start = time.perf_counter()
    cfg = SynthConfig()  # seed 42, ~20k tweets, 14.45% superficial planted
    events, ledger = generate_synthetic(cfg)
    summary = ledger[-1]
    parsed = [parse_event(json.dumps(e)) for e in events]
    window = CollectionWindow(
        post_start=POST_START,
        post_end=POST_START + __import__("datetime").timedelta(days=cfg.window_days),
        delete_end=POST_START
        + __import__("datetime").timedelta(days=cfg.window_days + cfg.delete_extra_days),
    )
    corpus = build_corpus(parsed, window)
    cleaned, report = run_cleanup(corpus, CleanupConfig(client_whitelist=whitelist))
    elapsed = time.perf_counter() - start

    assert summary["total_tweet_events"] >= 18000
    assert report.stages == summary["stages"]
    assert report.retained == summary["retained"]
    assert corpus.stats.orphan_deletes == summary["orphan_deletes"]
    assert corpus.stats.late_deletes == summary["late_deletes"]
    assert elapsed < 60.0
    _report(
        5,
        f"cleanup closure exact on {summary['total_tweet_events']} tweets "
        f"(superficial {summary['stages']['superficial']['removed']}) ({elapsed:.1f}s)",
    )


def test_criterion_06_normalized_difference_identities():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        d, n = rng.uniform(0, 1), rng.uniform(1e-9, 1)
        worst = max(worst, abs(ntd_value(d, n) - (d - n) / n * 100.0))
        worst = max(worst, abs(nud_value(d, n) - (d - n) / n * 100.0))
    assert worst < 1e-12
    with pytest.raises(UndefinedDifferenceError):
        ntd_value(0.2, 0.0)
    with pytest.raises(UndefinedDifferenceError):
        nud_value(0.2, 0.0)
    _report(6, f"NTD/NUD identities on 1000 quadruples, max err={worst:.2e}; zero denominators raise")


def test_criterion_07_classifier_unit_oracles():
    # Naive Bayes vs hand-computed 4-doc oracle.
    idf_a = math.log(5 / 3) + 1
    idf_b = math.log(5 / 2) + 1
    n2 = math.sqrt(idf_a**2 + idf_b**2)
    rows = [
        {0: 1.0},
        {0: idf_a / n2, 1: idf_b / n2},
        {2: 1.0},
        {2: idf_a / n2, 3: idf_b / n2},
    ]
    X = sparse_from_rows(rows, 4)
    y = np.array([0, 0, 1, 1])
    model = NaiveBayesModel(alpha=0.1).fit(X, y)
    counts = np.zeros((2, 4))
    for row, cls in zip(rows, y):
        for idx, w in row.items():
            counts[cls, idx] += w
    theta = (counts + 0.1) / (counts.sum(axis=1, keepdims=True) + 0.1 * 4)
    nb_worst = 0.0
    for probe_idx in range(4):
        s = np.log([0.5, 0.5])
        for idx, w in rows[probe_idx].items():
            for cls in (0, 1):
                s[cls] += w * math.log(theta[cls, idx])
        want = math.exp(s[1]) / (math.exp(s[0]) + math.exp(s[1]))
        lo = model.decision_values(X.subset([probe_idx]))[0]
        got = 1.0 / (1.0 + math.exp(-lo))
        nb_worst = max(nb_worst, abs(got - want))
    assert nb_worst < 1e-9

    # Linear SVM on a separable sparse fixture.
    rng = np.random.default_rng(17)
    rows, labels = [], []
    for i in range(60):
        cls = i % 2
        base = (0, 1) if cls == 0 else (3, 4)
        rows.append({int(b): float(rng.uniform(0.4, 1.0)) for b in base})
        labels.append(cls)
    Xs = sparse_from_rows(rows, 6)
    ys = np.array(labels)
    svm = LinearSvmModel(c=1.0, epochs=30, seed=3).fit(Xs, ys)
    svm_acc = float((svm.predict(Xs) == ys).mean())
    assert svm_acc == 1.0

    # AdaBoost: XOR fixture within 50 rounds plus the error bound on
    # several seeded runs.
    corners = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    Xx = np.array([[cx, cy] for cx, cy, _ in corners for _ in range(25)], dtype=float)
    yx = np.array([lab for _, _, lab in corners for _ in range(25)])
    ada = AdaBoostModel(max_depth=2, rounds=50).fit(Xx, yx)
    assert float((ada.predict(Xx) == yx).mean()) == 1.0
    for seed in (1, 2, 3, 4):
        rngs = np.random.default_rng(seed)
        Xr = rngs.normal(size=(120, 5))
        yr = ((Xr[:, 0] > 0) ^ (Xr[:, 1] + 0.3 * rngs.normal(size=120) > 0)).astype(int)
        m = AdaBoostModel(max_depth=2, rounds=25).fit(Xr, yr)  # fit asserts the bound
        err = float(np.mean(m.predict(Xr) != yr))
        assert err <= m.training_error_bound() + 1e-9
    _report(
        7,
        f"NB oracle max |dP|={nb_worst:.1e}; SVM separable acc=1.0; "
        f"AdaBoost XOR perfect in {len(ada.trees)} rounds, bound holds on 4 seeded runs",
    )


def test_criterion_08_end_to_end_synthetic_reproduction(synth_default, resources):
    start = time.perf_counter()
    groups = ["user", "derived_open_text", "tweet", "sentiment", "pos", "lexicon"]
    config = TrainConfig()
    report = ablate(synth_default.cleaned, config, groups, 0, resources)
    baseline_f1 = report["baseline"]["f1"]
    drops = {g: -report["dropped"][g]["delta_f1"] for g in groups}

    resp_config = TrainConfig(with_responses=True)
    _, resp_metrics = two_stage_train(synth_default.cleaned, resp_config, 0, resources)
    elapsed = time.perf_counter() - start

    assert baseline_f1 >= 0.75, f"baseline F1 {baseline_f1:.3f}"
    strongest = max(drops, key=lambda g: drops[g])
    assert strongest == "user", f"largest drop was {strongest}: {drops}"
    gap = resp_metrics.f1 - baseline_f1
    assert gap >= 0.01, f"response-mode gap {gap:+.3f}"
    assert elapsed < 240.0  # corpus prep is bounded separately (criterion 5)
    _report(
        8,
        f"baseline F1={baseline_f1:.3f}; drops "
        + ", ".join(f"{g}={drops[g]:+.3f}" for g in groups)
        + f"; response gap {gap:+.3f} ({elapsed:.0f}s)",
    )


def test_criterion_09_train_byte_identical_on_retrain(synth_default, tmp_path):
    from regretstream.cli import main

    corpus_path = tmp_path / "cleaned.json"
    synth_default.cleaned.save(corpus_path)
    outputs = []
    for tag in ("one", "two"):
        bundle = tmp_path / f"model_{tag}.rsb1"
        metrics = tmp_path / f"metrics_{tag}.json"
        code = main([
            "train", "--corpus", str(corpus_path), "--seed", "42",
            "--out", str(bundle), "--metrics-out", str(metrics),
        ])
        assert code == 0
        outputs.append((bundle.read_bytes(), metrics.read_bytes()))
    assert outputs[0][0] == outputs[1][0], "bundle bytes differ between two runs"
    assert outputs[0][1] == outputs[1][1], "metrics JSON differs between two runs"
    _report(9, f"train byte-identical on retraining (bundle {len(outputs[0][0])} bytes)")


def test_criterion_10_trait_tally_anchor():
    with open(trait_reference_medians_path(), encoding="utf-8") as fh:
        medians = {k: tuple(v) for k, v in json.load(fh).items()}
    tally, unmapped = trait_tally(medians, load_default_trait_map())
    assert unmapped == []
    assert tally["C-"] == 10
    assert tally["C+"] == 1
    _report(10, f"trait tally anchor C-={tally['C-']} C+={tally['C+']} N+={tally['N+']}")
