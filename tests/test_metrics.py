import numpy as np
import pytest

from fairprobe.data import Schema, from_arrays
from fairprobe.errors import EmptySuite, MissingGroup, UnknownFeature
from fairprobe.generators import GeneratorSpec, Pair, PairLedger, TestSuite, run_causalft
from fairprobe.metrics import (
    GroupRule,
    build_report,
    eod,
    group_split,
    idi_ratio,
    labeled_samples_from_suite,
    spd,
)
from fairprobe.models import ModelConfig, ModelUnderTest

SCHEMA = Schema(
    feature_names=("group", "pred", "noise"),
    sensitive_features=("group",),
    label_name="y",
    declared_kinds={"group": "integer", "pred": "integer", "noise": "integer"},
)
RULE = GroupRule(feature="group", kind="binary-value", alpha_values=(0,))

# the model's prediction equals the "pred" column
LOOKUP_MODEL = ModelUnderTest(
    config=ModelConfig(kind="logistic"),
    input_width=3,
    weights=[np.array([[0.0], [10.0], [0.0]])],
    biases=[np.array([-5.0])],
)


def make_samples(rows):
    return np.asarray(rows, dtype=np.int64)


def suite_of(n_samples, n_idi):
    samples = [(i, 0, 0) for i in range(n_samples)]
    return TestSuite(
        unique_samples=np.array(samples, dtype=np.int64).reshape(-1, 3),
        idi_samples=samples[:n_idi],
        true_pairs=[],
        ledger=PairLedger(),
        budget_reached=True,
    )


class TestGroupSplit:
    def test_binary_feature(self):
        samples = make_samples([[0, 1, 0], [1, 0, 0], [0, 0, 0], [1, 1, 0]])
        alpha, beta = group_split(samples, RULE, SCHEMA)
        assert alpha.tolist() == [0, 2] and beta.tolist() == [1, 3]

    def test_range_rule(self):
        rule = GroupRule(feature="noise", kind="range", range=(25, 60))
        samples = make_samples([[0, 0, 30], [0, 0, 61], [0, 0, 25], [0, 0, 10]])
        alpha, beta = group_split(samples, rule, SCHEMA)
        assert alpha.tolist() == [0, 2] and beta.tolist() == [1, 3]

    def test_empty_samples(self):
        alpha, beta = group_split(np.empty((0, 3)), RULE, SCHEMA)
        assert len(alpha) == 0 and len(beta) == 0

    def test_unknown_feature(self):
        rule = GroupRule(feature="zip", kind="binary-value", alpha_values=(0,))
        with pytest.raises(UnknownFeature):
            group_split(make_samples([[0, 0, 0]]), rule, SCHEMA)

    def test_split_exhaustive_and_disjoint(self):
        rng = np.random.default_rng(0)
        samples = make_samples(rng.integers(0, 3, size=(50, 3)))
        rule = GroupRule(feature="group", kind="binary-value", alpha_values=(0, 2))
        alpha, beta = group_split(samples, rule, SCHEMA)
        assert len(set(alpha) & set(beta)) == 0
        assert len(alpha) + len(beta) == 50

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            GroupRule(feature="a", kind="range", range=(5, 2))
        with pytest.raises(ValueError):
            GroupRule(feature="a", kind="binary-value")
        with pytest.raises(ValueError):
            GroupRule(feature="a", kind="percentile")


class TestIdiRatio:
    def test_headline_ratio(self):
        assert idi_ratio(suite_of(10000, 3440)) == pytest.approx(0.344)

    def test_no_idis_zero(self):
        assert idi_ratio(suite_of(10, 0)) == 0.0

    def test_all_idis_one(self):
        assert idi_ratio(suite_of(7, 7)) == 1.0

    def test_empty_suite(self):
        with pytest.raises(EmptySuite):
            idi_ratio(suite_of(0, 0))

    def test_order_invariant(self):
        suite = suite_of(8, 4)
        shuffled = TestSuite(
            unique_samples=suite.unique_samples[::-1].copy(),
            idi_samples=suite.idi_samples,
            true_pairs=[],
            ledger=PairLedger(),
            budget_reached=True,
        )
        assert idi_ratio(suite) == idi_ratio(shuffled)


class TestEod:
    def test_hand_fixture_point_two(self):
        # among y=1 rows: group alpha positive-rate 0.8, group beta 0.6
        rows, labels = [], []
        for pred in (1, 1, 1, 1, 0):
            rows.append([0, pred, 0])
            labels.append(1)
        for pred in (1, 1, 1, 0, 0):
            rows.append([1, pred, 0])
            labels.append(1)
        value = eod(make_samples(rows), np.array(labels), LOOKUP_MODEL, RULE, SCHEMA)
        assert value == pytest.approx(0.2)

    def test_constant_predictor_zero(self):
        constant = ModelUnderTest(
            config=ModelConfig(kind="logistic"),
            input_width=3,
            weights=[np.zeros((3, 1))],
            biases=[np.array([2.0])],
        )
        rows = make_samples([[0, 1, 0], [1, 0, 0], [0, 0, 0], [1, 1, 0]])
        labels = np.array([1, 1, 1, 1])
        assert eod(rows, labels, constant, RULE, SCHEMA) == 0.0

    def test_missing_group(self):
        rows = make_samples([[0, 1, 0], [0, 0, 0]])
        with pytest.raises(MissingGroup):
            eod(rows, np.array([1, 1]), LOOKUP_MODEL, RULE, SCHEMA)

    def test_group_with_no_positives_missing(self):
        rows = make_samples([[0, 1, 0], [1, 1, 0]])
        with pytest.raises(MissingGroup):
            eod(rows, np.array([1, 0]), LOOKUP_MODEL, RULE, SCHEMA)

    def test_symmetric_under_group_swap(self):
        rows = make_samples([[0, 1, 0], [0, 0, 0], [1, 1, 0], [1, 1, 0]])
        labels = np.array([1, 1, 1, 1])
        swapped = GroupRule(feature="group", kind="binary-value", alpha_values=(1,))
        assert eod(rows, labels, LOOKUP_MODEL, RULE, SCHEMA) == pytest.approx(
            eod(rows, labels, LOOKUP_MODEL, swapped, SCHEMA)
        )


class TestSpd:
    def test_hand_fixture_half(self):
        rows = []
        for pred in (1, 1, 1, 0):       # alpha rate 0.75
            rows.append([0, pred, 0])
        for pred in (1, 0, 0, 0):       # beta rate 0.25
            rows.append([1, pred, 0])
        assert spd(make_samples(rows), LOOKUP_MODEL, RULE, SCHEMA) == pytest.approx(0.5)

    def test_constant_predictor_zero(self):
        constant = ModelUnderTest(
            config=ModelConfig(kind="logistic"),
            input_width=3,
            weights=[np.zeros((3, 1))],
            biases=[np.array([-2.0])],
        )
        rows = make_samples([[0, 1, 0], [1, 0, 0]])
        assert spd(rows, constant, RULE, SCHEMA) == 0.0

    def test_missing_group(self):
        rows = make_samples([[0, 1, 0], [0, 0, 0]])
        with pytest.raises(MissingGroup):
            spd(rows, LOOKUP_MODEL, RULE, SCHEMA)

    def test_single_group_suite_reports_none(self):
        suite = suite_of(1, 0)  # its one sample sits in group alpha
        test_data = from_arrays(np.array([[0, 0, 0], [1, 1, 0]]), np.array([0, 1]), SCHEMA)
        report = build_report(suite, LOOKUP_MODEL, test_data, RULE)
        assert report.spd is None and report.eod is None

    def test_brute_force_small_fixtures(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(4, 21))
            rows = np.column_stack(
                [rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(0, 3, n)]
            )
            if len(set(rows[:, 0])) < 2:
                continue
            value = spd(rows, LOOKUP_MODEL, RULE, SCHEMA)
            preds = rows[:, 1]
            direct = abs(
                preds[rows[:, 0] == 0].mean() - preds[rows[:, 0] != 0].mean()
            )
            assert value == pytest.approx(direct)

    def test_metric_in_unit_interval(self):
        rng = np.random.default_rng(4)
        rows = np.column_stack(
            [rng.integers(0, 2, 40), rng.integers(0, 2, 40), rng.integers(0, 5, 40)]
        )
        assert 0.0 <= spd(rows, LOOKUP_MODEL, RULE, SCHEMA) <= 1.0


class TestLabelInheritance:
    def test_synthetic_member_inherits_test_label(self):
        schema = Schema(
            ("s", "f"), ("s",), "y", {"s": "integer", "f": "integer"}
        )
        test_rows = np.array([[0, 4], [1, 9]])
        test_labels = np.array([1, 0])
        ds = from_arrays(test_rows, test_labels, schema)
        pair = Pair(a=(0, 4), b=(1, 4))
        suite = TestSuite(
            unique_samples=np.array([(0, 4), (1, 4)], dtype=np.int64),
            idi_samples=[(0, 4), (1, 4)],
            true_pairs=[pair],
            ledger=PairLedger(),
            budget_reached=True,
        )
        X, y = labeled_samples_from_suite(suite, ds)
        labeled = {tuple(row): int(lab) for row, lab in zip(X, y)}
        assert labeled[(0, 4)] == 1     # its own test label
        assert labeled[(1, 4)] == 1     # inherited from the test member

    def test_default_group_rule(self, demo_dataset):
        rule = GroupRule.default_for(demo_dataset, "gender")
        assert rule.kind == "binary-value" and rule.alpha_values == (0,)
        rule = GroupRule.default_for(demo_dataset, "race")
        assert rule.alpha_values == (0,)  # majority code

    def test_build_report_on_generated_suite(self, demo_split, demo_lr, demo_dataset):
        _, test_data = demo_split
        suite = run_causalft(
            GeneratorSpec(kind="random"), demo_lr, test_data,
            demo_dataset.schema.index("gender"),
            demo_dataset.schema.index("relationship"),
            400, 3, domains=demo_dataset.domains,
        )
        rule = GroupRule.default_for(demo_dataset, "gender")
        report = build_report(suite, demo_lr, test_data, rule)
        assert 0.0 <= report.idi_ratio <= 1.0
        assert 0.0 <= report.spd <= 1.0
        assert report.eod is None or 0.0 <= report.eod <= 1.0
        assert report.sample_count == len(suite.unique_samples)
        assert report.idi_count == len(suite.idi_samples)
