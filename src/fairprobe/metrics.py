"""Individual and group fairness metrics over generated suites."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .data import Dataset, Schema
from .errors import EmptySuite, MissingGroup, UnknownFeature
from .generators import TestSuite, _key_rows, _pair_keys, _row_keys
from .models import ModelUnderTest


@dataclass(frozen=True)
class GroupRule:
    """How to split samples into two groups on one feature.

    kind "binary-value": group alpha holds the rows whose feature value is in
    `alpha_values` (for a two-value domain, one of the values; for wider
    categorical domains, an explicit value-to-group choice such as the
    majority code). kind "range": group alpha holds rows with value inside
    [lo, hi].
    """

    feature: str
    kind: str  # "binary-value" | "range"
    range: tuple[int, int] | None = None
    alpha_values: tuple[int, ...] | None = None

    def __post_init__(self):
        values = self.range if self.kind == "range" else self.alpha_values
        if not all(isinstance(v, Real) for v in values or ()):
            raise ValueError(f"group rule values must be numbers, got {values!r}")
        if self.kind == "range":
            if self.range is None or len(self.range) != 2 or self.range[0] > self.range[1]:
                raise ValueError("range rule needs [lo, hi] with lo <= hi")
        elif self.kind == "binary-value":
            if not self.alpha_values:
                raise ValueError("binary-value rule needs alpha_values")
        else:
            raise ValueError(f"unknown group rule kind {self.kind!r}")

    @staticmethod
    def default_for(dataset: Dataset, feature: str) -> "GroupRule":
        """Two-value domains split on the lower value; wider domains put the
        majority code in group alpha."""
        idx = dataset.schema.index(feature)
        col = dataset.rows[:, idx]
        values, counts = np.unique(col, return_counts=True)
        if len(values) <= 2:
            return GroupRule(feature=feature, kind="binary-value", alpha_values=(int(values[0]),))
        majority = int(values[np.argmax(counts)])
        return GroupRule(feature=feature, kind="binary-value", alpha_values=(majority,))


def group_split(
    samples: np.ndarray, rule: GroupRule, schema: Schema
) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive, disjoint two-way split of sample indices by the rule."""
    if rule.feature not in schema.feature_names:
        raise UnknownFeature(rule.feature)
    samples = np.asarray(samples)
    if samples.size == 0:
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    col = samples[:, schema.index(rule.feature)]
    if rule.kind == "range":
        lo, hi = rule.range
        in_alpha = (col >= lo) & (col <= hi)
    else:
        in_alpha = np.isin(col, rule.alpha_values)
    idx = np.arange(len(samples))
    return idx[in_alpha], idx[~in_alpha]


@dataclass
class FairnessReport:
    """Per-case metric values. spd is None when a group has no samples, eod
    when a group has no positives among the labeled samples."""

    idi_ratio: float
    eod: float | None
    spd: float | None
    idi_count: int
    sample_count: int


def idi_ratio(suite: TestSuite) -> float:
    """Unique discriminatory instances over unique generated samples."""
    if not len(suite.unique_samples):
        raise EmptySuite("suite has no samples")
    return len(suite.idi_samples) / len(suite.unique_samples)


def spd(samples: np.ndarray, model: ModelUnderTest, rule: GroupRule, schema: Schema) -> float:
    """|E(prediction | group alpha) - E(prediction | group beta)|."""
    alpha, beta = group_split(samples, rule, schema)
    if len(alpha) == 0 or len(beta) == 0:
        raise MissingGroup(f"a {rule.feature} group is empty")
    labels, _ = model.predict_batch(np.asarray(samples, dtype=float))
    return abs(float(labels[alpha].mean()) - float(labels[beta].mean()))


def eod(
    samples: np.ndarray,
    true_labels: np.ndarray,
    model: ModelUnderTest,
    rule: GroupRule,
    schema: Schema,
) -> float:
    """|E(prediction | group alpha, y=1) - E(prediction | group beta, y=1)|."""
    samples = np.asarray(samples)
    true_labels = np.asarray(true_labels)
    positive = true_labels == 1
    alpha, beta = group_split(samples, rule, schema)
    alpha = alpha[positive[alpha]]
    beta = beta[positive[beta]]
    if len(alpha) == 0 or len(beta) == 0:
        raise MissingGroup(f"a {rule.feature} group has no positively labeled rows")
    labels, _ = model.predict_batch(samples.astype(float))
    return abs(float(labels[alpha].mean()) - float(labels[beta].mean()))


def labeled_samples_from_suite(
    suite: TestSuite, test_data: Dataset
) -> tuple[np.ndarray, np.ndarray]:
    """Samples from the suite's pairs with ground-truth labels attached.

    A test-row member keeps its own label; a synthetic member inherits the
    label of the test-row member of its pair. Samples outside any pair carry
    no ground truth and are excluded.
    """
    row_label = dict(zip(_row_keys(test_data.rows), test_data.labels.tolist()))
    keys = _pair_keys(suite.true_pairs, test_data.width)
    labeled: dict[bytes, int] = {}
    for ka, kb in zip(keys[0::2], keys[1::2]):
        a_lab = row_label.get(ka)
        b_lab = row_label.get(kb)
        if a_lab is not None:
            labeled.setdefault(ka, a_lab)
        if b_lab is not None:
            labeled.setdefault(kb, b_lab)
        if a_lab is None and b_lab is not None:
            labeled.setdefault(ka, b_lab)
        if b_lab is None and a_lab is not None:
            labeled.setdefault(kb, a_lab)
    y = np.fromiter(labeled.values(), np.int64, len(labeled))
    return _key_rows(labeled, test_data.width), y


def build_report(
    suite: TestSuite, model: ModelUnderTest, test_data: Dataset, rule: GroupRule
) -> FairnessReport:
    """IDI ratio over the suite, SPD over all generated samples (None when a
    group is empty), EOD over the pair-labeled subset (None when a group lacks
    positives)."""
    ratio = idi_ratio(suite)
    try:
        spd_value = spd(suite.unique_samples, model, rule, test_data.schema)
    except MissingGroup:
        spd_value = None
    X_lab, y_lab = labeled_samples_from_suite(suite, test_data)
    try:
        eod_value = eod(X_lab, y_lab, model, rule, test_data.schema)
    except MissingGroup:
        eod_value = None
    return FairnessReport(
        idi_ratio=ratio,
        eod=eod_value,
        spd=spd_value,
        idi_count=len(suite.idi_samples),
        sample_count=len(suite.unique_samples),
    )
