"""Acceptance gate: every criterion as a dedicated test with a printed verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
The desk-scale census-style dataset stands in for the full-size benchmarks;
directional criteria are checked against it at the stated tolerances.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    LR_CONFIG,
    SEM_TRUE_EDGES,
    make_effect_fixture,
    make_hypercube_fixture,
    make_sem_dataset,
)

from fairprobe import (
    GeneratorSpec,
    ModelConfig,
    bootstrap_effect,
    direct_features,
    discover_graph,
    graph_stability,
    input_gradient,
    is_relaxed_idi,
    is_true_idi,
    run_base_generator,
    run_causalft,
    select_causal_feature,
    split_train_test,
    train,
)
from fairprobe.cli import ExperimentConfig, run_experiment
from fairprobe.data import from_arrays
from fairprobe.demo import write_demo_csv, write_demo_schema
from fairprobe.generators import Pair
from fairprobe.metrics import GroupRule
from fairprobe.models import ModelUnderTest
from fairprobe.retrain import correct_pairs, retrain_and_retest
from fairprobe.stats import joint_significance, mann_whitney_u, vargha_delaney_a12

BUDGET = 2000
RUNS = 10
GENERATOR_KINDS = ("random", "adf_lite")
SENSITIVE_FEATURES = ("gender", "race", "age")


def verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status} [criterion {number}]: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def improvement_grid(demo_dataset):
    """Shared desk-scale reproduction grid: 3 sensitive features x 10 runs x
    2 generators x 2 modes on the logistic model."""
    results = {kind: {s: [] for s in SENSITIVE_FEATURES} for kind in GENERATOR_KINDS}
    ledgers = {kind: [] for kind in GENERATOR_KINDS}  # gender case only
    t0 = time.perf_counter()
    for sensitive in SENSITIVE_FEATURES:
        s_idx = demo_dataset.schema.index(sensitive)
        for run in range(RUNS):
            run_seed = 100 + run
            train_data, test_data = split_train_test(demo_dataset, 0.7, run_seed)
            model = train(train_data, replace(LR_CONFIG, seed=run_seed))
            graph = discover_graph(train_data, sensitive)
            direct = direct_features(graph, sensitive, graph.label)
            effects = [
                bootstrap_effect(graph, train_data, sensitive, cand, m=100,
                                 repeats=20, seed=run_seed)
                for cand in direct
            ]
            guide = (
                select_causal_feature(effects, order=demo_dataset.schema.feature_names)
                if effects
                else None
            )
            c_idx = demo_dataset.schema.index(guide) if guide else None
            for kind in GENERATOR_KINDS:
                spec = GeneratorSpec(kind=kind)
                base = run_base_generator(
                    spec, model, test_data, s_idx, BUDGET, run_seed,
                    domains=demo_dataset.domains,
                )
                guided = run_causalft(
                    spec, model, test_data, s_idx, c_idx, BUDGET, run_seed,
                    domains=demo_dataset.domains,
                )
                ratio_base = len(base.idi_samples) / len(base.unique_samples)
                ratio_cft = len(guided.idi_samples) / len(guided.unique_samples)
                results[kind][sensitive].append((ratio_base, ratio_cft))
                if sensitive == "gender":
                    ledgers[kind].append((base.ledger, guided.ledger))
    elapsed = time.perf_counter() - t0
    return results, ledgers, elapsed


class TestAcceptance:
    def test_criterion_01_superset_law(self, demo_lr, demo_dataset):
        s = demo_dataset.schema.index("gender")
        c = demo_dataset.schema.index("relationship")
        domains = demo_dataset.domains
        counterexamples = 0
        checked = 0
        t0 = time.perf_counter()
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for _ in range(2000):
                a = np.array([d.sample(rng) for d in domains])
                b = a.copy()
                mode = rng.integers(3)
                if mode == 0:  # arbitrary second sample
                    b = np.array([d.sample(rng) for d in domains])
                elif mode == 1:  # differ only at the sensitive feature
                    b[s] = domains[s].sample_excluding(rng, int(a[s]))
                else:  # differ inside the fixed pair only
                    b[s] = domains[s].sample_excluding(rng, int(a[s]))
                    if rng.random() < 0.7:
                        b[c] = domains[c].sample_excluding(rng, int(a[c]))
                if np.array_equal(a, b):
                    continue
                pair = Pair(a=tuple(int(v) for v in a), b=tuple(int(v) for v in b))
                checked += 1
                if is_true_idi(pair, demo_lr, s) and not is_relaxed_idi(
                    pair, demo_lr, s, c
                ):
                    counterexamples += 1
        elapsed = time.perf_counter() - t0
        verdict(
            1,
            counterexamples == 0 and checked >= 9000 and elapsed < 5.0,
            f"superset law over {checked} pairs, {counterexamples} counterexamples, "
            f"{elapsed:.2f}s",
        )

    def test_criterion_02_brute_force_equivalence(self):
        t0 = time.perf_counter()
        model, dataset = make_hypercube_fixture()
        labels, _ = model.predict_batch(dataset.rows.astype(float))
        expected = set()
        for i, point in enumerate(dataset.rows):
            partner = point.copy()
            partner[0] = 1 - partner[0]
            j = int(np.where((dataset.rows == partner).all(axis=1))[0][0])
            if labels[i] != labels[j]:
                expected.add(tuple(int(v) for v in point))
        suite = run_base_generator(
            GeneratorSpec(kind="random"), model, dataset, 0, budget=16, seed=0
        )
        elapsed = time.perf_counter() - t0
        ok = set(suite.idi_samples) == expected and len(suite.unique_samples) == 16
        verdict(
            2,
            ok and elapsed < 1.0,
            f"saturated suite matches exhaustive enumeration "
            f"({len(expected)} discriminatory points), {elapsed:.2f}s",
        )

    def test_criterion_03_causal_recovery(self):
        f1_scores, max_errs, times = [], [], []
        for seed in range(10):
            ds = make_sem_dataset(seed)
            t0 = time.perf_counter()
            graph = discover_graph(ds, "x0", seed=seed)
            times.append(time.perf_counter() - t0)
            predicted = set()
            feats = ds.schema.feature_names
            for dst in feats:
                for src in feats:
                    if src != dst and graph.edge_weight(src, dst) != 0.0:
                        predicted.add((src, dst))
            tp = len(predicted & set(SEM_TRUE_EDGES))
            precision = tp / len(predicted) if predicted else 0.0
            recall = tp / len(SEM_TRUE_EDGES)
            f1_scores.append(
                2 * precision * recall / (precision + recall) if precision + recall else 0.0
            )
            errs = [
                abs(graph.edge_weight(s, d) - coef)
                for (s, d), coef in SEM_TRUE_EDGES.items()
                if (s, d) in predicted
            ]
            max_errs.append(max(errs))
        mean_f1 = sum(f1_scores) / len(f1_scores)
        ok = mean_f1 >= 0.9 and max(max_errs) <= 0.2 and max(times) < 10.0
        verdict(
            3,
            ok,
            f"recovery F1 mean {mean_f1:.3f}, worst coefficient error "
            f"{max(max_errs):.3f}, slowest seed {max(times):.2f}s",
        )

    def test_criterion_04_effect_oracle(self):
        graph, dataset = make_effect_fixture()
        # independent exhaustive do-intervention enumeration
        x0 = dataset.rows[:, 0].astype(float)
        x1 = dataset.rows[:, 1].astype(float)
        y = dataset.labels.astype(float)
        e1 = x1 - 1.0 * x0
        ey = y - 0.25 * x0 - 0.45 * x1
        p_s = [float(np.mean(0.25 * v + 0.45 * (1.0 * v + e1) + ey >= 0.5)) for v in (0, 1)]
        p_c = [float(np.mean(0.25 * x0 + 0.45 * w + ey >= 0.5)) for w in (0, 1)]
        oracle = sum(abs(a - b) for a in p_s for b in p_c) / 4.0
        from fairprobe import causal_effect

        value = causal_effect(graph, dataset, "x0", "x1", m=dataset.n_rows, seed=0)
        rel = abs(value - oracle) / oracle
        verdict(
            4,
            rel <= 0.02,
            f"interventional effect {value:.5f} vs enumeration oracle {oracle:.5f} "
            f"(relative gap {rel:.4f})",
        )

    def test_criterion_05_stability(self):
        ds = make_sem_dataset(0)
        rng = np.random.default_rng(123)
        graphs = []
        for _ in range(20):
            idx = rng.integers(0, ds.n_rows, ds.n_rows)
            boot = from_arrays(ds.rows[idx], ds.labels[idx], ds.schema)
            graphs.append(discover_graph(boot, "x0"))
        hamming = graph_stability(graphs)
        verdict(
            5,
            hamming <= 3.0,
            f"mean pairwise Hamming distance {hamming:.2f} over 20 bootstrap graphs",
        )

    def test_criterion_06_gradient_check(self, demo_lr, demo_dataset):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 4, size=(200, 6))
        labels = (rows[:, 0] + rows[:, 3] > 3).astype(int)
        from fairprobe.data import Schema

        schema = Schema(
            tuple(f"f{i}" for i in range(6)), (), "y",
            {f"f{i}": "integer" for i in range(6)},
        )
        mlp = train(
            from_arrays(rows, labels, schema),
            ModelConfig(kind="mlp", hidden_sizes=(16, 8), epochs=15, seed=3),
        )
        h = 1e-4
        worst = 0.0
        for model, width, lo, hi in (
            (demo_lr, demo_dataset.width, 0, 6),
            (mlp, 6, 0, 4),
        ):
            for _ in range(100):
                x = rng.uniform(lo, hi, size=width)
                analytic = input_gradient(model, x)
                numeric = np.zeros(width)
                for i in range(width):
                    up, dn = x.copy(), x.copy()
                    up[i] += h
                    dn[i] -= h
                    numeric[i] = (
                        model.predict_proba_batch(up[None])[0]
                        - model.predict_proba_batch(dn[None])[0]
                    ) / (2 * h)
                denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
                worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
        verdict(
            6,
            worst < 1e-4,
            f"max relative error analytic vs central differences {worst:.2e} "
            f"(100 inputs per model kind)",
        )

    def test_criterion_07_statistics_oracles(self):
        x = [0.3, 1.7, 2.2, 0.3, 5.0]
        a12_self = vargha_delaney_a12(x, list(x))
        p_disjoint = mann_whitney_u(list(range(1, 11)), list(range(11, 21)))
        expected_p = 2 / math.comb(20, 10)
        table_ok = (
            joint_significance(0.01, 0.70) == (True, "better")
            and joint_significance(0.01, 0.50) == (False, "none")
            and joint_significance(0.20, 0.90) == (False, "none")
        )
        ok = (
            a12_self == 0.5
            and p_disjoint == pytest.approx(expected_p)
            and p_disjoint < 0.001
            and table_ok
        )
        verdict(
            7,
            ok,
            f"effect size self-comparison {a12_self}, disjoint-range p {p_disjoint:.2e} "
            f"(= 2/C(20,10)), joint-rule truth table exact",
        )

    def test_criterion_08_directional_improvement(self, improvement_grid):
        results, _, elapsed = improvement_grid
        lines = []
        ok = elapsed < 600.0
        for kind in GENERATOR_KINDS:
            wins = 0
            for sensitive in SENSITIVE_FEATURES:
                pairs = results[kind][sensitive]
                mean_base = sum(p[0] for p in pairs) / len(pairs)
                mean_cft = sum(p[1] for p in pairs) / len(pairs)
                if mean_cft >= mean_base:
                    wins += 1
                lines.append(
                    f"{kind}/{sensitive}: guided {mean_cft:.4f} vs base {mean_base:.4f}"
                )
            ok = ok and wins >= 2
        verdict(8, ok, f"{'; '.join(lines)}; total {elapsed:.0f}s")

    def test_criterion_09_ledger_sanity(self, improvement_grid):
        _, ledgers, _ = improvement_grid
        ok = True
        details = []
        for kind in GENERATOR_KINDS:
            runs = ledgers[kind]
            more_relaxed = sum(
                1 for base, guided in runs
                if guided.pairs_with_relaxation > base.pairs_without_relaxation
            )
            invalid = sum(g.invalid_pairs for _, g in runs)
            repaired = sum(g.repaired_pairs for _, g in runs)
            ratio = repaired / invalid if invalid else 0.0
            ok = ok and more_relaxed >= 8 and ratio >= 0.5
            details.append(
                f"{kind}: relaxed>base in {more_relaxed}/10 runs, "
                f"repaired/invalid {repaired}/{invalid} = {ratio:.2f}"
            )
        verdict(9, ok, "; ".join(details))

    def test_criterion_10_retrain_improvement(self, demo_dataset):
        s = demo_dataset.schema.index("gender")
        train_data, test_data = split_train_test(demo_dataset, 0.7, 11)
        model = train(train_data, LR_CONFIG)
        graph = discover_graph(train_data, "gender")
        direct = direct_features(graph, "gender", graph.label)
        effects = [
            bootstrap_effect(graph, train_data, "gender", cand, m=100, repeats=20, seed=11)
            for cand in direct
        ]
        guide = select_causal_feature(effects, order=demo_dataset.schema.feature_names)
        c = demo_dataset.schema.index(guide)
        spec = GeneratorSpec(kind="random")
        suite = run_causalft(
            spec, model, test_data, s, c, 10000, seed=99, domains=demo_dataset.domains
        )
        corrections = correct_pairs(suite, model, test_data)
        rule = GroupRule.default_for(demo_dataset, "gender")
        before, after, _ = retrain_and_retest(
            LR_CONFIG, train_data, corrections, test_data, s, c, spec,
            budget=BUDGET, runs=10, seed=500, rule=rule, old_model=model,
            domains=demo_dataset.domains,
        )
        wins = sum(a.idi_ratio < b.idi_ratio for a, b in zip(after, before))
        verdict(
            10,
            wins >= 8,
            f"retrained model strictly below pre-retrain ratio in {wins}/10 runs "
            f"({len(corrections)} corrected rows)",
        )

    def test_criterion_11_end_to_end_determinism(self, tmp_path):
        write_demo_csv(tmp_path / "demo.csv", n_rows=2500, seed=7)
        write_demo_schema(tmp_path / "schema.json")
        doc = {
            "dataset": str(tmp_path / "demo.csv"),
            "schema": str(tmp_path / "schema.json"),
            "sensitive": ["gender"],
            "models": [
                {"name": "logistic", "kind": "logistic", "epochs": 25,
                 "learning_rate": 0.05, "l2": 0.0001}
            ],
            "generators": [{"name": "random", "kind": "random"}],
            "budget": 300,
            "runs": 2,
            "bootstrap_repeats": 5,
            "seed": 12,
            "output_dir": str(tmp_path),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        config = ExperimentConfig.from_json(path)
        report_a, _ = run_experiment(config)
        report_b, _ = run_experiment(config)
        text_a = json.dumps(report_a, indent=2, sort_keys=True)
        text_b = json.dumps(report_b, indent=2, sort_keys=True)
        verdict(
            11,
            text_a == text_b,
            f"identical config twice -> byte-identical reports ({len(text_a)} bytes)",
        )
