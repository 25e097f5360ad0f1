"""Fairness testing for tabular classifiers with causally guided perturbation."""

from .data import Dataset, Schema, ValueDomain, load_csv, split_train_test
from .models import ModelConfig, ModelUnderTest, input_gradient, train
from .causal import (
    CausalEffect,
    CausalGraph,
    bootstrap_effect,
    causal_effect,
    direct_features,
    discover_graph,
    graph_stability,
    select_causal_feature,
    select_correlation_feature,
)
from .generators import (
    GeneratorSpec,
    Pair,
    PairLedger,
    TestSuite,
    is_relaxed_idi,
    is_true_idi,
    run_base_generator,
    run_causalft,
)
from .metrics import FairnessReport, GroupRule, build_report, eod, group_split, idi_ratio, spd
from .stats import ComparisonResult, compare, mann_whitney_u, vargha_delaney_a12
from .retrain import correct_pairs, retrain_and_retest

__version__ = "0.1.0"

__all__ = [
    "CausalEffect",
    "CausalGraph",
    "ComparisonResult",
    "Dataset",
    "FairnessReport",
    "GeneratorSpec",
    "GroupRule",
    "ModelConfig",
    "ModelUnderTest",
    "Pair",
    "PairLedger",
    "Schema",
    "TestSuite",
    "ValueDomain",
    "bootstrap_effect",
    "build_report",
    "causal_effect",
    "compare",
    "correct_pairs",
    "direct_features",
    "discover_graph",
    "eod",
    "graph_stability",
    "group_split",
    "idi_ratio",
    "input_gradient",
    "is_relaxed_idi",
    "is_true_idi",
    "load_csv",
    "mann_whitney_u",
    "retrain_and_retest",
    "run_base_generator",
    "run_causalft",
    "select_causal_feature",
    "select_correlation_feature",
    "spd",
    "split_train_test",
    "train",
    "vargha_delaney_a12",
]
