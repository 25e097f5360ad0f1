import numpy as np
import pytest

import helpers
from conftest import LR_CONFIG
from helpers import domain_contains

from fairprobe.data import Schema, from_arrays
from fairprobe.generators import (
    GeneratorSpec, Pair, PairLedger, TestSuite, run_base_generator, run_causalft,
)
from fairprobe.metrics import GroupRule, labeled_samples_from_suite
from fairprobe.models import ModelConfig, ModelUnderTest, train
from fairprobe.retrain import (
    augment_training_data,
    correct_pairs,
    model_quality,
    retrain_and_retest,
)

SCHEMA = Schema(
    feature_names=("s", "f"),
    sensitive_features=("s",),
    label_name="y",
    declared_kinds={"s": "integer", "f": "integer"},
)

# predictions track the sensitive bit: (0, f) -> 0, (1, f) -> 1
FLIP_MODEL = ModelUnderTest(
    config=ModelConfig(kind="logistic"),
    input_width=2,
    weights=[np.array([[8.0], [0.0]])],
    biases=[np.array([-4.0])],
)


def suite_with(pairs):
    banked = []
    for p in pairs:
        banked.extend([p.a, p.b])
    return TestSuite(
        unique_samples=np.array(list(dict.fromkeys(banked)), dtype=np.int64).reshape(-1, 2),
        idi_samples=list(dict.fromkeys(banked)),
        true_pairs=list(pairs),
        ledger=PairLedger(),
        budget_reached=True,
    )


def make_retrain_dataset():
    rows = np.array([[0, 3], [1, 5], [0, 7], [1, 9]])
    # true labels deliberately disagree with the model for row 0
    labels = np.array([1, 1, 0, 0])
    return from_arrays(rows, labels, SCHEMA)


class TestCorrectPairs:
    def test_synthetic_member_gets_test_members_predicted_label(self):
        ds = make_retrain_dataset()
        # (0, 3) is a test row the model predicts 0; its true label is 1,
        # which pins that the predicted label is the one that propagates
        pair = Pair(a=(0, 3), b=(1, 3))
        out = correct_pairs(suite_with([pair]), FLIP_MODEL, ds)
        assert out == [((1, 3), 0)]

    def test_both_test_rows_anchor_on_positive_prediction(self):
        ds = make_retrain_dataset()
        pair = Pair(a=(0, 7), b=(1, 9))  # both are test rows
        out = correct_pairs(suite_with([pair]), FLIP_MODEL, ds)
        assert set(out) == {((0, 7), 1), ((1, 9), 1)}

    def test_no_pairs_no_corrections(self):
        ds = make_retrain_dataset()
        assert correct_pairs(suite_with([]), FLIP_MODEL, ds) == []

    def test_labels_binary(self, demo_split, demo_lr, demo_dataset):
        _, test_data = demo_split
        suite = run_causalft(
            GeneratorSpec(kind="random"), demo_lr, test_data,
            demo_dataset.schema.index("gender"),
            demo_dataset.schema.index("relationship"),
            800, 17, domains=demo_dataset.domains,
        )
        out = correct_pairs(suite, demo_lr, test_data)
        assert out
        assert all(label in (0, 1) for _, label in out)

    def test_corrected_samples_respect_domains(self, demo_split, demo_lr, demo_dataset):
        _, test_data = demo_split
        suite = run_causalft(
            GeneratorSpec(kind="random"), demo_lr, test_data,
            demo_dataset.schema.index("gender"),
            demo_dataset.schema.index("relationship"),
            800, 17, domains=demo_dataset.domains,
        )
        for sample, _ in correct_pairs(suite, demo_lr, test_data):
            assert all(
                domain_contains(demo_dataset.domains[j], int(v)) for j, v in enumerate(sample)
            )

    def test_one_model_query_per_suite(self, monkeypatch):
        ds = make_retrain_dataset()
        pairs = [Pair(a=(0, 3), b=(1, 3)), Pair(a=(0, 5), b=(1, 5)), Pair(a=(1, 7), b=(0, 7))]
        calls = []
        predict_batch = ModelUnderTest.predict_batch

        def counting(model, X):
            calls.append(len(X))
            return predict_batch(model, X)

        monkeypatch.setattr(ModelUnderTest, "predict_batch", counting)
        out = correct_pairs(suite_with(pairs), FLIP_MODEL, ds)
        assert out == [((1, 3), 0), ((0, 5), 1), ((1, 7), 0)]
        assert calls == [ds.n_rows]

    def test_deduplicated(self):
        ds = make_retrain_dataset()
        pair = Pair(a=(0, 3), b=(1, 3))
        out = correct_pairs(suite_with([pair, Pair(a=(1, 3), b=(0, 3))]), FLIP_MODEL, ds)
        assert len(out) == len(set(out))


class TestTupleKeyedReference:
    """`labeled_samples_from_suite` and `correct_pairs` look test rows up by
    their `_row_keys` bytes; they return what the tuple-keyed versions they
    replaced (tests/helpers.py) return, in order, on generated suites."""

    @pytest.mark.parametrize("budget", [0, 800])
    @pytest.mark.parametrize("mode", ["base", "guided"])
    @pytest.mark.parametrize("kind", ["random", "sg_lite", "adf_lite"])
    def test_byte_keyed_lookups_match(self, kind, mode, budget, demo_split, demo_lr, demo_dataset):
        _, test_data = demo_split
        s = demo_dataset.schema.index("gender")
        spec, domains = GeneratorSpec(kind=kind), demo_dataset.domains
        if mode == "guided":
            c = demo_dataset.schema.index("relationship")
            suite = run_causalft(spec, demo_lr, test_data, s, c, budget, 17, domains=domains)
        else:
            suite = run_base_generator(spec, demo_lr, test_data, s, budget, 17, domains=domains)
        X, y = labeled_samples_from_suite(suite, test_data)
        X_ref, y_ref = helpers.labeled_samples_from_suite(suite, test_data)
        assert X.dtype == X_ref.dtype and np.array_equal(X, X_ref)
        assert y.dtype == y_ref.dtype and np.array_equal(y, y_ref)
        corrections = correct_pairs(suite, demo_lr, test_data)
        assert corrections == helpers.correct_pairs(suite, demo_lr, test_data)
        assert (len(X) > 0 and len(corrections) > 0) == (budget > 0)


class TestAugment:
    def test_rows_appended(self, demo_split):
        train_data, _ = demo_split
        corrections = [((1, 0, 2, 1, 0, 1, 0, 1, 2, 1, 0), 1)]
        augmented = augment_training_data(train_data, corrections)
        assert augmented.n_rows == train_data.n_rows + 1
        assert augmented.labels[-1] == 1

    def test_empty_corrections_identity(self, demo_split):
        train_data, _ = demo_split
        assert augment_training_data(train_data, []) is train_data


class TestModelQuality:
    def test_known_small_fixture(self):
        rows = np.array([[0, 1], [0, 2], [1, 3], [1, 4]])
        labels = np.array([0, 1, 1, 1])
        ds = from_arrays(rows, labels, SCHEMA)
        q = model_quality(FLIP_MODEL, ds)
        # predictions: 0, 0, 1, 1 -> acc 3/4; tp=2 fp=0 fn=1 -> f1 = 4/5
        assert q["accuracy"] == pytest.approx(0.75)
        assert q["f1"] == pytest.approx(0.8)
        # probabilities rank rows 3,4 above 1,2; one positive (row 2) is tied low
        assert 0.0 <= q["auc"] <= 1.0


class TestRetrainAndRetest:
    def test_empty_corrections_equal_fresh_retrain(self, demo_split):
        train_data, _ = demo_split
        from dataclasses import replace

        retrained = train(
            augment_training_data(train_data, []), replace(LR_CONFIG, seed=LR_CONFIG.seed + 1)
        )
        control = train(train_data, replace(LR_CONFIG, seed=LR_CONFIG.seed + 1))
        for w1, w2 in zip(retrained.weights, control.weights):
            assert np.array_equal(w1, w2)

    def test_paired_reports_and_determinism(self, demo_split, demo_lr, demo_dataset):
        train_data, test_data = demo_split
        s = demo_dataset.schema.index("gender")
        c = demo_dataset.schema.index("relationship")
        spec = GeneratorSpec(kind="random")
        suite = run_causalft(spec, demo_lr, test_data, s, c, 2000, 31, domains=demo_dataset.domains)
        corrections = correct_pairs(suite, demo_lr, test_data)
        rule = GroupRule.default_for(demo_dataset, "gender")
        kwargs = dict(
            model_config=LR_CONFIG,
            train_data=train_data,
            corrections=corrections,
            test_data=test_data,
            sensitive=s,
            causal=c,
            gen_spec=spec,
            budget=400,
            runs=3,
            seed=77,
            rule=rule,
            old_model=demo_lr,
            domains=demo_dataset.domains,
        )
        before1, after1, _ = retrain_and_retest(**kwargs)
        before2, after2, _ = retrain_and_retest(**kwargs)
        assert len(before1) == len(after1) == 3
        assert [r.idi_ratio for r in before1] == [r.idi_ratio for r in before2]
        assert [r.idi_ratio for r in after1] == [r.idi_ratio for r in after2]
