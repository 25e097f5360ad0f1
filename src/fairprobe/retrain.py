"""Repair-and-retrain loop: correct discovered discriminatory pairs, retrain
on the augmented data, and re-test both models."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import Dataset, from_arrays
from .generators import GeneratorSpec, TestSuite, _pair_keys, _row_keys, _TestIndex, run_causalft
from .metrics import FairnessReport, GroupRule, build_report
from .models import ModelConfig, ModelUnderTest, train
from .stats import _midranks


def correct_pairs(
    suite: TestSuite, model: ModelUnderTest, test_data: Dataset
) -> list[tuple[tuple[int, ...], int]]:
    """Corrected training rows from the suite's discriminatory pairs.

    When exactly one member is a test row, the synthetic member is emitted
    with the test member's predicted label. Both members of a pair of two
    test rows are emitted with label 1, without consulting the model. The
    test rows are labelled in one model query; duplicates are dropped.
    """
    labels, _ = model.predict_batch(test_data.rows.astype(float))
    label_of = dict(zip(_row_keys(test_data.rows), labels.tolist()))
    keys = _pair_keys(suite.true_pairs, test_data.width)
    out: dict[tuple[tuple[int, ...], int], None] = {}
    for pair, ka, kb in zip(suite.true_pairs, keys[0::2], keys[1::2]):
        a_in = ka in label_of
        b_in = kb in label_of
        if a_in and b_in:
            out.setdefault((pair.a, 1), None)
            out.setdefault((pair.b, 1), None)
        elif a_in:
            out.setdefault((pair.b, label_of[ka]), None)
        elif b_in:
            out.setdefault((pair.a, label_of[kb]), None)
    return list(out.keys())


def augment_training_data(
    train_data: Dataset, corrections: list[tuple[tuple[int, ...], int]]
) -> Dataset:
    """Training data with corrected samples appended as ordinary rows."""
    if not corrections:
        return train_data
    extra_rows = np.asarray([c[0] for c in corrections], dtype=np.int64)
    extra_labels = np.asarray([c[1] for c in corrections], dtype=np.int64)
    return from_arrays(
        rows=np.vstack([train_data.rows, extra_rows]),
        labels=np.concatenate([train_data.labels, extra_labels]),
        schema=train_data.schema,
    )


def model_quality(model: ModelUnderTest, data: Dataset) -> dict:
    """Accuracy, F1 on the positive class, and rank-based AUC (None when the
    data holds a single class)."""
    labels, probs = model.predict_batch(data.rows.astype(float))
    y = data.labels
    acc = float(np.mean(labels == y))
    tp = int(np.sum((labels == 1) & (y == 1)))
    fp = int(np.sum((labels == 1) & (y == 0)))
    fn = int(np.sum((labels == 0) & (y == 1)))
    f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    n_pos = int(np.sum(y == 1))
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        auc = None
    else:
        ranks = _midranks(probs)
        auc = float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))
    return {"accuracy": acc, "f1": f1, "auc": auc}


def retrain_and_retest(
    model_config: ModelConfig,
    train_data: Dataset,
    corrections: list[tuple[tuple[int, ...], int]],
    test_data: Dataset,
    sensitive: int,
    causal: int | None,
    gen_spec: GeneratorSpec,
    budget: int,
    runs: int,
    seed: int,
    rule: GroupRule,
    old_model: ModelUnderTest,
    domains=None,
    *, index: _TestIndex | None = None,
) -> tuple[list[FairnessReport], list[FairnessReport], ModelUnderTest]:
    """Retrain from scratch on train + corrections, then re-test `old_model`
    (trained under `model_config`) and the new model side by side over `runs`
    seeded generation runs. `index`, `old_model`'s `_TestIndex`, is built when omitted.

    Returns (reports before, reports after, the retrained model)."""
    augmented = augment_training_data(train_data, corrections)
    retrained = train(augmented, replace(model_config, seed=model_config.seed + 1))

    def retest(model: ModelUnderTest, index: _TestIndex | None = None) -> list[FairnessReport]:
        index = index or _TestIndex(test_data, model, sensitive)  # shared by the model's runs
        suites = (
            run_causalft(
                gen_spec, model, test_data, sensitive, causal, budget, seed + r,
                domains=domains, index=index,
            )
            for r in range(runs)
        )
        return [build_report(suite, model, test_data, rule) for suite in suites]

    return retest(old_model, index), retest(retrained), retrained
