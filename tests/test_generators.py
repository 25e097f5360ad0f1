import hashlib
import json
from collections import Counter
from dataclasses import asdict
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import make_hypercube_fixture
from helpers import ReferenceRun, domain_contains, reference_walk

from fairprobe import generators
from fairprobe.data import Schema, ValueDomain, from_arrays
from fairprobe.errors import (
    ConfigInvalid, EmptyData, EmptySuite, IndexCollision, UnknownFeature, WidthMismatch,
)
from fairprobe.generators import (
    GeneratorSpec,
    Pair,
    is_relaxed_idi,
    is_true_idi,
    run_base_generator,
    run_causalft,
    _Run,
    _TestIndex,
    _block_structure,
    _find_true_partners,
    _propose,
)
from fairprobe.metrics import idi_ratio
from fairprobe.models import ModelConfig, ModelUnderTest, input_gradient


def fixed_logistic(weights, bias=0.0):
    w = np.asarray(weights, dtype=float).reshape(-1, 1)
    return ModelUnderTest(
        config=ModelConfig(kind="logistic"),
        input_width=w.shape[0],
        weights=[w],
        biases=[np.array([float(bias)])],
    )


# labels flip with the feature at index 0 (and index 5/7 for wide vectors)
NARROW_MODEL = fixed_logistic([4.0, 0.1, 0.1, 0.1, 0.1], -2.0)
WIDE_MODEL = fixed_logistic([0.1, 0, 0, 0, 0, 3.0, 0, 2.0, 0, 0, 0], -40.0)


class TestPair:
    def test_members_must_differ(self):
        with pytest.raises(ValueError):
            Pair(a=(1, 2), b=(1, 2))

    def test_width_must_match(self):
        with pytest.raises(WidthMismatch):
            Pair(a=(1, 2), b=(1, 2, 3))

    def test_key_is_order_independent(self):
        p1 = Pair(a=(1, 2), b=(3, 4))
        p2 = Pair(a=(3, 4), b=(1, 2))
        assert p1.key() == p2.key()


class TestTrueIdi:
    def test_sensitive_flip_with_label_change(self):
        pair = Pair(a=(0, 7, 4, 5, 1), b=(1, 7, 4, 5, 1))
        assert is_true_idi(pair, NARROW_MODEL, sensitive=0)

    def test_extra_difference_fails(self):
        pair = Pair(a=(0, 7, 4, 5, 1), b=(1, 8, 4, 5, 1))
        assert not is_true_idi(pair, NARROW_MODEL, sensitive=0)

    def test_same_label_fails(self):
        flat = fixed_logistic([0.0, 0, 0, 0, 0], 1.0)
        pair = Pair(a=(0, 7, 4, 5, 1), b=(1, 7, 4, 5, 1))
        assert not is_true_idi(pair, flat, sensitive=0)

    def test_width_mismatch(self):
        pair = Pair(a=(0, 1), b=(1, 1))
        with pytest.raises(WidthMismatch):
            is_true_idi(pair, NARROW_MODEL, sensitive=0)

    def test_width_checked_before_structure(self):
        # differs outside {0, 1} too, so it fails both structure rules
        pair = Pair(a=(0, 1, 2), b=(1, 1, 5))
        with pytest.raises(WidthMismatch):
            is_true_idi(pair, NARROW_MODEL, sensitive=0)
        with pytest.raises(WidthMismatch):
            is_relaxed_idi(pair, NARROW_MODEL, sensitive=0, causal=1)

    def test_negative_index_rejected(self):
        # -1 would read the last column as the sensitive one
        with pytest.raises(UnknownFeature, match=r"index -1 outside \[0, 2\)"):
            is_true_idi(Pair((0, 1), (0, 2)), fixed_logistic([1.0, 1.0]), -1)

    def test_index_past_width_rejected(self):
        with pytest.raises(UnknownFeature, match=r"index 5 outside \[0, 2\)"):
            is_true_idi(Pair((0, 1), (0, 2)), fixed_logistic([1.0, 1.0]), 5)


class TestRelaxedIdi:
    def test_pair_differing_on_both_fixed_features(self):
        # sensitive at index 5, causally tied feature at index 7
        pair = Pair(
            a=(0, 3, 4, 6, 3, 25, 8, 7, 1, 1, 2),
            b=(0, 3, 4, 6, 3, 11, 8, 1, 1, 1, 2),
        )
        assert is_relaxed_idi(pair, WIDE_MODEL, sensitive=5, causal=7)

    def test_true_implies_relaxed(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.integers(0, 4, 5)
            b = a.copy()
            b[0] = (b[0] + 1) % 4
            if rng.random() < 0.5:
                b[1] = (b[1] + 1) % 4
            pair = Pair(a=tuple(int(v) for v in a), b=tuple(int(v) for v in b))
            if is_true_idi(pair, NARROW_MODEL, 0):
                assert is_relaxed_idi(pair, NARROW_MODEL, 0, 1)

    def test_difference_outside_fixed_set_fails(self):
        pair = Pair(
            a=(0, 3, 4, 6, 3, 25, 8, 7, 1, 1, 2),
            b=(0, 3, 4, 6, 9, 11, 8, 1, 1, 1, 2),
        )
        assert not is_relaxed_idi(pair, WIDE_MODEL, sensitive=5, causal=7)

    def test_index_collision(self):
        pair = Pair(a=(0, 1), b=(1, 1))
        with pytest.raises(IndexCollision):
            is_relaxed_idi(pair, fixed_logistic([1.0, 1.0]), 1, 1)

    def test_causal_index_past_width_rejected(self):
        with pytest.raises(UnknownFeature, match=r"index 7 outside \[0, 2\)"):
            is_relaxed_idi(Pair((0, 1), (0, 2)), fixed_logistic([1.0, 1.0]), 0, 7)


def masked_differs_only_at(a, b, idx):
    """The boolean-mask definition, kept as the reference."""
    if a[idx] == b[idx]:
        return False
    mask = np.ones(len(a), dtype=bool)
    mask[idx] = False
    return bool(np.array_equal(a[mask], b[mask]))


def masked_relaxed_structure(a, b, s, c):
    """With c None this is the true structure."""
    if c is None:
        return masked_differs_only_at(a, b, s)
    if a[s] == b[s] and a[c] == b[c]:
        return False
    mask = np.ones(len(a), dtype=bool)
    mask[s] = mask[c] = False
    return bool(np.array_equal(a[mask], b[mask]))


@st.composite
def integer_pairs(draw):
    """(a, b, s, c): b is a copy of a with a random subset of positions changed."""
    width = draw(st.integers(2, 8))
    a = draw(st.lists(st.integers(-3, 3), min_size=width, max_size=width))
    b = list(a)
    for i in draw(st.sets(st.integers(0, width - 1))):
        b[i] += draw(st.sampled_from([-2, -1, 1, 2]))
    s = draw(st.integers(0, width - 1))
    c = draw(st.integers(0, width - 1).filter(lambda i: i != s))
    return np.array(a), np.array(b), s, c


class TestPairStructure:
    WEIGHTS = (2.0, -1.5, 1.0, 0.5, -2.0, 1.5, -0.5, 1.0)

    @given(integer_pairs())
    @example((np.array([1, 2, 3]), np.array([1, 2, 3]), 0, 1))  # equal
    @example((np.array([1, 2, 3]), np.array([0, 2, 3]), 0, 1))  # at s only
    @example((np.array([1, 2, 3]), np.array([1, 0, 3]), 0, 1))  # at c only
    @example((np.array([1, 2, 3]), np.array([0, 0, 3]), 0, 1))  # at s and c
    @example((np.array([1, 2, 3]), np.array([1, 2, 0]), 0, 1))  # elsewhere
    @example((np.array([1, 2, 3]), np.array([0, 2, 0]), 0, 1))  # at s and elsewhere
    def test_difference_set_checks_match_mask_definitions(self, case):
        a, b, s, c = case
        code = _block_structure(a, b, s, c)
        assert (code == 2) == masked_differs_only_at(a, b, s)
        assert (code > 0) == masked_relaxed_structure(a, b, s, c)
        assert (_block_structure(a, b, c, None) == 2) == masked_differs_only_at(a, b, c)
        assert _block_structure(a, b, s, None) in (0, 2)

    @given(integer_pairs())
    @example((np.array([1, 2, 3]), np.array([-1, 2, 3]), 0, 1))  # true, labelled apart
    @example((np.array([1, 2, 3]), np.array([2, 2, 3]), 0, 1))  # true structure, labelled alike
    @example((np.array([1, 2, 3]), np.array([-1, 3, 3]), 0, 1))  # relaxed, labelled apart
    @example((np.array([1, 2, 3]), np.array([1, 2, 0]), 0, 1))  # elsewhere
    def test_pair_checks_match_mask_definitions_and_labels(self, case):
        a, b, s, c = case
        assume(not np.array_equal(a, b))
        model = fixed_logistic(self.WEIGHTS[: len(a)], 0.25)
        pair = Pair(a=tuple(a.tolist()), b=tuple(b.tolist()))
        labels, _ = model.predict_batch(np.array([a, b], dtype=float))
        apart = labels[0] != labels[1]
        assert is_true_idi(pair, model, s) == (masked_differs_only_at(a, b, s) and apart)
        relaxed = masked_relaxed_structure(a, b, s, c) and apart
        assert is_relaxed_idi(pair, model, s, c) == relaxed


def proposed_candidates(spec, model, a0, b0, mutable, domains, rng, guided, copies):
    """The live candidates `_propose` makes for each of `copies` copies of the
    seed pair (a0, b0) proposed together as one block."""
    block_a, block_b = np.tile(a0, (copies, 1)), np.tile(b0, (copies, 1))
    pa, pb, live = _propose(spec, model, block_a, block_b, mutable, domains, rng, guided)
    assert np.array_equal(pa[:, 0], block_a) and np.array_equal(pb[:, 0], block_b)
    assert live[:, 0].all()
    for a, b, alive in zip(pa, pb, live):
        yield [(x, y) for x, y, ok in zip(a[1:], b[1:], alive[1:]) if ok]


class TestPerturbValues:
    """Perturbation invariants of the proposed candidates, for every kind in
    both modes: fixed indices never change, values stay in their domain, and
    both members of a pair receive identical changes."""

    DOMAINS = (
        ValueDomain.range_of(0, 9),
        ValueDomain.range_of(0, 9),
        ValueDomain.set_of([3]),
        ValueDomain.set_of([0, 2, 5]),
    )
    MODEL = fixed_logistic([0.6, -0.4, 0.3, 0.5], 0.0)
    KINDS = ("random", "sg_lite", "adf_lite")
    MODES = [(kind, guided) for kind in KINDS for guided in (False, True)]
    A0 = np.array([4, 5, 3, 2])
    B0 = np.array([7, 5, 3, 2])  # the seed pair differs at index 0 only

    def streams(self, kind, guided, mutable, domains=DOMAINS):
        """The candidate lists of 20 copies of the seed pair, under each of 5
        stream seeds."""
        spec = GeneratorSpec(kind=kind, local_steps=5)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            yield from proposed_candidates(
                spec, self.MODEL, self.A0, self.B0, mutable, domains, rng, guided, copies=20
            )

    def test_immutable_features_never_touched(self):
        for kind, guided in self.MODES:
            count = 0
            for stream in self.streams(kind, guided, [1, 3]):
                for pa, pb in stream:
                    count += 1
                    assert pa[0] == 4 and pb[0] == 7
                    assert pa[2] == 3 and pb[2] == 3
            assert count > 0, kind

    def test_values_stay_in_domain(self):
        for kind, guided in self.MODES:
            for stream in self.streams(kind, guided, [1, 2, 3]):
                for pa, pb in stream:
                    for vec in (pa, pb):
                        assert all(domain_contains(self.DOMAINS[j], int(vec[j])) for j in range(4))

    def test_mutated_value_differs_unless_singleton(self):
        # both members change identically and the singleton index never moves;
        # each random step, each sg_lite sweep value and each guided step
        # moves exactly one feature
        for kind, guided in self.MODES:
            for stream in self.streams(kind, guided, [1, 2, 3]):
                prev = self.A0
                for pa, pb in stream:
                    assert np.array_equal(pa - self.A0, pb - self.B0)
                    moved = set(np.nonzero(pa != prev)[0].tolist())
                    assert moved <= {1, 3}
                    if guided or kind != "adf_lite":
                        assert len(moved) == 1
                    if kind == "random":
                        prev = pa

    def test_all_singleton_domains_identity(self):
        domains = (ValueDomain.range_of(0, 9),) + tuple(
            ValueDomain.set_of([v]) for v in (5, 3, 2)
        )
        for kind, guided in self.MODES:
            for stream in self.streams(kind, guided, [1, 2, 3], domains):
                for pa, pb in stream:
                    assert np.array_equal(pa, self.A0) and np.array_equal(pb, self.B0)


class TestCandidateStreams:
    """The proposed candidates never touch the fixed features and apply the
    same change to both members."""

    @pytest.mark.parametrize("kind", ["random", "sg_lite", "adf_lite"])
    def test_fixed_features_frozen_and_changes_mirrored(self, kind):
        model = fixed_logistic([1.0, -0.5, 0.25, 0.8, -1.2], 0.0)
        domains = tuple(ValueDomain.range_of(0, 6) for _ in range(5))
        a0 = np.array([1, 2, 3, 4, 5])
        b0 = a0.copy()
        b0[0] = 3
        b0[2] = 0
        mutable = [1, 3, 4]
        spec = GeneratorSpec(kind=kind, local_steps=5)
        for guided in (False, True):
            rng = np.random.default_rng(5)
            count = 0
            for stream in proposed_candidates(spec, model, a0, b0, mutable, domains, rng, guided, 8):
                for pa, pb in stream:
                    count += 1
                    assert pa[0] == 1 and pb[0] == 3   # pair construction values kept
                    assert pa[2] == 3 and pb[2] == 0
                    assert np.array_equal(pa[mutable], pb[mutable])
                    assert all(domain_contains(domains[j], int(v)) for j, v in enumerate(pa))
            assert count > 0


class TestBaseGenerator:
    def test_budget_zero_empty_suite(self, demo_split, demo_lr, demo_dataset):
        _, test_data = demo_split
        suite = run_base_generator(
            GeneratorSpec(kind="random"), demo_lr, test_data,
            demo_dataset.schema.index("gender"), 0, seed=1,
            domains=demo_dataset.domains,
        )
        assert suite.unique_samples.shape == (0, test_data.width) and suite.idi_samples == []
        assert suite.budget_reached

    def test_unique_and_bounded(self, demo_split, demo_lr, demo_dataset):
        _, test_data = demo_split
        suite = run_base_generator(
            GeneratorSpec(kind="random"), demo_lr, test_data,
            demo_dataset.schema.index("gender"), 500, seed=2,
            domains=demo_dataset.domains,
        )
        assert len(suite.unique_samples) <= 500
        samples = set(map(tuple, suite.unique_samples.tolist()))
        assert len(samples) == len(suite.unique_samples)
        assert set(suite.idi_samples) <= samples

    def test_same_seed_identical_suite(self, demo_split, demo_lr, demo_dataset):
        _, test_data = demo_split
        spec = GeneratorSpec(kind="random")
        s_idx = demo_dataset.schema.index("gender")
        s1 = run_base_generator(spec, demo_lr, test_data, s_idx, 400, 7, domains=demo_dataset.domains)
        s2 = run_base_generator(spec, demo_lr, test_data, s_idx, 400, 7, domains=demo_dataset.domains)
        assert np.array_equal(s1.unique_samples, s2.unique_samples)
        assert s1.idi_samples == s2.idi_samples
        assert s1.ledger == s2.ledger

    def test_empty_test_data(self, demo_dataset):
        from fairprobe.data import split_train_test

        _, empty = split_train_test(demo_dataset, 1.0, seed=0)
        with pytest.raises(EmptyData):
            run_base_generator(
                GeneratorSpec(kind="random"),
                fixed_logistic(np.zeros(demo_dataset.width)),
                empty, 0, 10, 0,
            )

    def test_budget_unreachable_soft(self):
        # 2-point space cannot fill a budget of 50
        schema = Schema(("s", "f"), ("s",), "y", {"s": "integer", "f": "integer"})
        rows = np.array([[0, 1], [1, 1]])
        ds = from_arrays(rows, np.array([0, 1]), schema)
        model = fixed_logistic([2.0, 0.0], -1.0)
        suite = run_base_generator(GeneratorSpec(kind="random"), model, ds, 0, 50, 3)
        assert not suite.budget_reached
        assert 0 < len(suite.unique_samples) <= 2


class TestCausalFT:
    def make_suite(self, demo_split, demo_lr, demo_dataset, budget=600, seed=11):
        _, test_data = demo_split
        return run_causalft(
            GeneratorSpec(kind="random"), demo_lr, test_data,
            demo_dataset.schema.index("gender"),
            demo_dataset.schema.index("relationship"),
            budget, seed, domains=demo_dataset.domains,
        )

    def test_membership_law(self, demo_split, demo_lr, demo_dataset):
        _, test_data = demo_split
        suite = self.make_suite(demo_split, demo_lr, demo_dataset)
        test_keys = {tuple(int(v) for v in row) for row in test_data.rows}
        assert suite.true_pairs
        for pair in suite.true_pairs:
            assert pair.a in test_keys or pair.b in test_keys

    def test_domain_law(self, demo_split, demo_lr, demo_dataset):
        suite = self.make_suite(demo_split, demo_lr, demo_dataset)
        for sample in suite.unique_samples:
            assert all(
                domain_contains(demo_dataset.domains[j], int(v)) for j, v in enumerate(sample)
            )

    def test_ledger_law(self, demo_split, demo_lr, demo_dataset):
        suite = self.make_suite(demo_split, demo_lr, demo_dataset)
        ledger = suite.ledger
        assert ledger.repaired_pairs <= ledger.invalid_pairs
        assert all(v >= 0 for v in asdict(ledger).values())

    def test_reproducible_under_seed(self, demo_split, demo_lr, demo_dataset):
        s1 = self.make_suite(demo_split, demo_lr, demo_dataset, seed=21)
        s2 = self.make_suite(demo_split, demo_lr, demo_dataset, seed=21)
        assert np.array_equal(s1.unique_samples, s2.unique_samples)
        assert s1.idi_samples == s2.idi_samples
        assert s1.ledger == s2.ledger

    def test_test_rows_labelled_once(self, demo_split, demo_lr, demo_dataset, monkeypatch):
        sent = []
        predict_batch = ModelUnderTest.predict_batch

        def recording(model, X):
            sent.append(np.asarray(X))
            return predict_batch(model, X)

        monkeypatch.setattr(ModelUnderTest, "predict_batch", recording)
        suite = self.make_suite(demo_split, demo_lr, demo_dataset)
        _, test_data = demo_split
        index_build, *later = sent
        assert len(index_build) == test_data.n_rows
        assert later and suite.true_pairs
        test_keys = set(map(tuple, test_data.rows.tolist()))
        relabelled = [
            row for X in later for row in map(tuple, X.astype(np.int64).tolist())
            if row in test_keys
        ]
        assert relabelled == []

    def test_true_pairs_actually_true(self, demo_split, demo_lr, demo_dataset):
        suite = self.make_suite(demo_split, demo_lr, demo_dataset)
        s_idx = demo_dataset.schema.index("gender")
        for pair in suite.true_pairs[:50]:
            assert is_true_idi(pair, demo_lr, s_idx)

    def test_fallback_without_causal_feature(self, demo_split, demo_lr, demo_dataset):
        _, test_data = demo_split
        s_idx = demo_dataset.schema.index("gender")
        suite = run_causalft(
            GeneratorSpec(kind="random"), demo_lr, test_data, s_idx, None,
            300, 5, domains=demo_dataset.domains,
        )
        base = run_base_generator(
            GeneratorSpec(kind="random"), demo_lr, test_data, s_idx,
            300, 5, domains=demo_dataset.domains,
        )
        assert suite.used_fallback
        assert np.array_equal(suite.unique_samples, base.unique_samples)

    def test_guided_sg_lite_steps_on_many_features(self, demo_split, demo_lr, demo_dataset):
        """Guided steps pick their feature uniformly, so generated samples one
        feature away from a test row are spread over the non-fixed features;
        a step that always took the first feature would leave one share."""
        _, test_data = demo_split
        s = demo_dataset.schema.index("gender")
        c = demo_dataset.schema.index("relationship")
        suite = run_causalft(
            GeneratorSpec(kind="sg_lite"), demo_lr, test_data, s, c, 600, 3,
            domains=demo_dataset.domains,
        )
        test_keys = set(map(tuple, test_data.rows.tolist()))
        shares, near = Counter(), 0
        for sample in map(tuple, suite.unique_samples.tolist()):
            if sample in test_keys:
                continue
            diff = test_data.rows != np.array(sample)
            features = set(np.nonzero(diff[diff.sum(axis=1) == 1])[1].tolist())
            near += bool(features)
            shares.update(features - {s, c})
        assert near >= 100
        assert sum(count >= 0.05 * near for count in shares.values()) >= 3

    def test_sensitive_equals_causal_rejected(self, demo_split, demo_lr, demo_dataset):
        _, test_data = demo_split
        with pytest.raises(IndexCollision):
            run_causalft(
                GeneratorSpec(kind="random"), demo_lr, test_data, 3, 3, 10, 0,
                domains=demo_dataset.domains,
            )


class TestLedgerIdentities:
    """Which counter each mode credits. Base mode counts every true pair as
    found without relaxation and nothing else. Guided mode counts direct
    finds, partner finds and invalid pairs as relaxed finds, and each
    repaired invalid pair adds at most two true pairs."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["random", "sg_lite", "adf_lite"])
    def test_counters_match_the_kept_pairs(self, kind, seed, demo_split, demo_lr, demo_dataset):
        _, test_data = demo_split
        s = demo_dataset.schema.index("gender")
        c = demo_dataset.schema.index("relationship")
        spec, domains = GeneratorSpec(kind=kind), demo_dataset.domains
        base = run_base_generator(spec, demo_lr, test_data, s, 600, seed, domains=domains)
        assert base.true_pairs
        assert asdict(base.ledger) == {
            "pairs_without_relaxation": len(base.true_pairs),
            "pairs_with_relaxation": 0,
            "invalid_pairs": 0,
            "repaired_pairs": 0,
            "failed_samples": 0,
        }
        guided = run_causalft(spec, demo_lr, test_data, s, c, 600, seed, domains=domains)
        ledger = guided.ledger
        assert guided.true_pairs and ledger.invalid_pairs
        assert ledger.pairs_without_relaxation == 0
        assert ledger.repaired_pairs <= ledger.invalid_pairs
        from_repair = len(guided.true_pairs) - (ledger.pairs_with_relaxation - ledger.invalid_pairs)
        assert 0 <= from_repair <= 2 * ledger.repaired_pairs


class TestEngineBytes:
    """Each kind's suite in both modes at a fixed seed, pinned by a digest of
    its samples, true pairs and ledger: a change meant to keep report bytes
    must keep these."""

    DIGESTS = {
        ("random", "base"): "28931b19372226c567d59f83fcf8ffc3b9eaaf327d2f79a8ccbea0188893c574",
        ("random", "guided"): "ef700f8934d749e9a18172ccdc3e794135ecb12bb643ca9fa7d3df8c71356e6f",
        ("sg_lite", "base"): "a7e41aa8bfaa2de91bf98a154e2d682fda91a1f4d16dbf84d81e1019d3ad63ad",
        ("sg_lite", "guided"): "ef700f8934d749e9a18172ccdc3e794135ecb12bb643ca9fa7d3df8c71356e6f",
        ("adf_lite", "base"): "7f44b80bafbddb2edc941e09337973488a967990ef4c7727dc7356d9ff01c504",
        ("adf_lite", "guided"): "e98126cc9048ea966abd644675b47a85495b5b0439642a81977d3493c68e9b31",
    }

    @pytest.mark.parametrize("mode", ["base", "guided"])
    @pytest.mark.parametrize("kind", ["random", "sg_lite", "adf_lite"])
    def test_suite_digest(self, kind, mode, demo_split, demo_lr, demo_dataset):
        _, test_data = demo_split
        s = demo_dataset.schema.index("gender")
        spec, domains = GeneratorSpec(kind=kind), demo_dataset.domains
        if mode == "guided":
            c = demo_dataset.schema.index("relationship")
            suite = run_causalft(spec, demo_lr, test_data, s, c, 600, 5, domains=domains)
        else:
            suite = run_base_generator(spec, demo_lr, test_data, s, 600, 5, domains=domains)
        assert suite.budget_reached and suite.true_pairs
        doc = [
            suite.unique_samples.tolist(),
            [[pair.a, pair.b] for pair in suite.true_pairs],
            asdict(suite.ledger),
        ]
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == self.DIGESTS[kind, mode]


class TestSuiteMatrix:
    """A suite holds its samples as one C-contiguous (n, width) int64 matrix
    of unique rows, and its IDI samples as the rows that are members of a
    true pair, in the matrix's order."""

    @pytest.mark.parametrize("budget", [0, 600])
    @pytest.mark.parametrize("mode", ["base", "guided"])
    @pytest.mark.parametrize("kind", ["random", "sg_lite", "adf_lite"])
    def test_samples_are_one_matrix(self, kind, mode, budget, demo_split, demo_lr, demo_dataset):
        _, test_data = demo_split
        s = demo_dataset.schema.index("gender")
        spec, domains = GeneratorSpec(kind=kind), demo_dataset.domains
        if mode == "guided":
            c = demo_dataset.schema.index("relationship")
            suite = run_causalft(spec, demo_lr, test_data, s, c, budget, 5, domains=domains)
        else:
            suite = run_base_generator(spec, demo_lr, test_data, s, budget, 5, domains=domains)
        samples = suite.unique_samples
        assert isinstance(samples, np.ndarray) and samples.dtype == np.int64
        assert samples.flags.c_contiguous and samples.shape == (budget, test_data.width)
        rows = list(map(tuple, samples.tolist()))
        assert len(set(rows)) == len(rows)
        members = {m for pair in suite.true_pairs for m in (pair.a, pair.b)}
        assert suite.idi_samples == [row for row in rows if row in members]
        if budget:
            assert suite.idi_samples and idi_ratio(suite) == len(suite.idi_samples) / budget
        else:
            with pytest.raises(EmptySuite):
                idi_ratio(suite)


class TestLabelQueries:
    """Every model query of the base and guided random suites of
    `TestEngineBytes`, pinned by a digest of each query's shape and rows in
    order. Output digests catch a flipped label only after it happens; this
    pins the composition that fixes every label bit: per block, the uncached
    a-members and then b-members of all slots, live or not, in first-occurrence
    order, after one query of the test rows."""

    DIGESTS = {
        "base": "b3d411a528c24e5dfae177071ce5dc029d82eb2f9f80a3ab53b80716c91dfab0",
        "guided": "c3f6a07bcaad46a017d6cc20ee788c8e83ea9b9331d2b1d5770a37710a173378",
    }

    @pytest.mark.parametrize("mode", ["base", "guided"])
    def test_query_digest(self, mode, demo_split, demo_lr, demo_dataset, monkeypatch):
        sent = hashlib.sha256()
        predict_batch = ModelUnderTest.predict_batch

        def recording(model, X):
            rows = np.ascontiguousarray(X, dtype=np.float64)
            sent.update(np.array(rows.shape, dtype=np.int64).tobytes() + rows.tobytes())
            return predict_batch(model, X)

        monkeypatch.setattr(ModelUnderTest, "predict_batch", recording)
        _, test_data = demo_split
        s = demo_dataset.schema.index("gender")
        spec, domains = GeneratorSpec(kind="random"), demo_dataset.domains
        if mode == "guided":
            c = demo_dataset.schema.index("relationship")
            run_causalft(spec, demo_lr, test_data, s, c, 600, 5, domains=domains)
        else:
            run_base_generator(spec, demo_lr, test_data, s, 600, 5, domains=domains)
        assert sent.hexdigest() == self.DIGESTS[mode]


@st.composite
def blocks(draw):
    """(test rows, their labels, pa, pb, member labels, s, c): a block of
    pairs whose a-members are test rows with up to two values changed and
    whose b-members are their a-members with a random subset changed."""
    width = draw(st.integers(2, 6))
    values = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(values, min_size=width, max_size=width), min_size=1, max_size=6))
    pa = []
    for _ in range(draw(st.integers(1, 8))):
        member = list(rows[draw(st.integers(0, len(rows) - 1))])
        for j in draw(st.sets(st.integers(0, width - 1), max_size=2)):
            member[j] = draw(values)
        pa.append(member)
    pb = [list(member) for member in pa]
    for member in pb:
        for j in draw(st.sets(st.integers(0, width - 1))):
            member[j] = draw(values)
    labels = st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows))
    member_labels = st.lists(st.integers(0, 1), min_size=2 * len(pa), max_size=2 * len(pa))
    s = draw(st.integers(0, width - 1))
    c = draw(st.none() | st.integers(0, width - 1).filter(lambda i: i != s))
    return (np.array(rows), np.array(draw(labels)), np.array(pa), np.array(pb),
            draw(member_labels), s, c)


class TestBlockChecks:
    """The engine settles structure and partner eligibility per block; both
    must agree pair by pair with the per-pair checks they replace."""

    @given(blocks(), st.integers(0, 2**32 - 1))
    def test_block_flags_and_prefilter_match_the_pair_checks(self, block, seed):
        rows, labels, pa, pb, member_labels, s, c = block
        structure = _block_structure(pa, pb, s, c).tolist()
        model = SimpleNamespace(predict_batch=lambda X: (labels, None))
        index = _TestIndex(SimpleNamespace(rows=rows), model, s)
        partnered = index.partnered(np.stack([pa, pb], axis=1))
        old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for k, (a, b) in enumerate(zip(pa, pb)):
            assert (structure[k] > 0) == masked_relaxed_structure(a, b, s, c)
            assert (structure[k] == 2) == masked_differs_only_at(a, b, s)
            members = [
                (tuple(a.tolist()), member_labels[2 * k]),
                (tuple(b.tolist()), member_labels[2 * k + 1]),
            ]
            flags = partnered[2 * k : 2 * k + 2]
            for (key, _), ok in zip(members, flags):
                bucket = index.buckets.get(key[:s] + key[s + 1 :], [])
                assert ok == any(rows[i, s] != key[s] for i in bucket)
            pairs, failed = _find_true_partners(members, index, old_rng)
            # the engine's filter: only members that pass the prefilter are searched
            kept = [m for m, ok in zip(members, flags) if ok]
            kept_pairs, kept_failed = _find_true_partners(kept, index, new_rng)
            assert kept_pairs == pairs and kept_failed + len(members) - len(kept) == failed
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


class ParityModel:
    """Labels each row by the parity of a weighted sum of its values and
    records every query."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)
        self.queries = []

    def predict_batch(self, X):
        self.queries.append(np.array(X))
        return np.rint(np.asarray(X) @ self.weights).astype(np.int64) % 2, None


def walk_case(ints):
    """One run of a guided or base walk over 1-3 blocks of tiny rows, drawn
    with ints(lo, hi): few values, so keys repeat and perturbed rows find
    test-row partners; a small budget and cap, so either may end the run."""
    width = ints(2, 4)
    s = ints(0, width - 1)
    c = (s + ints(1, width - 1)) % width if ints(0, 1) else None
    seeded = [[ints(0, 2) for _ in range(width)] for _ in range(ints(1, 3))]
    rows = list(seeded)
    for row in seeded:  # twins at the sensitive index: only partner search banks them
        for _ in range(ints(1, 3)):
            rows.append(row[:s] + [ints(0, 2)] + row[s + 1 :])
    rows = np.array(rows)
    weights = [ints(-2, 2) for _ in range(width)]
    weights[s] = 2 * ints(0, 1) - 1  # odd: a sensitive step can flip the label
    blocks, pairs = [], 0
    for _ in range(ints(1, 3)):
        seeds, slots = ints(1, 4), ints(1, 5)
        drawn = np.array([ints(0, len(seeded) - 1) for _ in range(seeds)])
        pa = np.repeat(rows[drawn][:, None], slots, axis=1)
        pb = pa.copy()
        for i in range(seeds):
            for k in range(slots):  # slot 0's a-member is the drawn test row
                shape = max(0, ints(-2, 2)) if k else 2  # mostly 0
                if shape == 0:  # sensitive values no test row holds: partner search
                    pa[i, k, s], pb[i, k, s] = ints(3, 5), ints(3, 5)
                    continue
                if shape == 1:
                    pa[i, k] = [v if ints(0, 3) else ints(0, 2) for v in pa[i, k]]
                pb[i, k] = [v if ints(0, 2) else ints(0, 2) for v in pa[i, k]]
        live = np.array([[k == 0 or ints(0, 2) > 0 for k in range(slots)] for _ in range(seeds)])
        d0 = d0_structure = None
        if c is not None:
            other = np.array([ints(0, len(seeded) - 1) for _ in range(seeds)])
            d0 = rows[other]
            d0_structure = _block_structure(rows[drawn], d0, s, c) * (drawn != other)
        blocks.append((pa, pb, live, d0, d0_structure))
        pairs += int(live.sum())
    budget, cap = ints(1, pairs + 2), ints(1, 2 * pairs)
    return rows, weights, s, c, blocks, budget, cap, ints(0, 2**32 - 1)


@st.composite
def walk_cases(draw):
    return walk_case(lambda lo, hi: draw(st.integers(lo, hi)))


def run_both_walks(case):
    """Walk the case's blocks with the engine and with the per-pair
    reference, each with its own model, index and partner stream: (engine
    run, reference run, engine state, reference state), where a state is
    (evaluations used, partner stream state, model queries)."""
    rows, weights, s, c, blocks, budget, cap, seed = case
    runs, states = [], []
    for engine in (True, False):
        model = ParityModel(weights)
        index = _TestIndex(SimpleNamespace(rows=rows), model, s)
        run = _Run(index, budget, c) if engine else ReferenceRun(model, index, budget)
        walk = run.walk if engine else partial(reference_walk, run, c)
        rng, evals = np.random.default_rng(seed), 0
        for block in blocks:
            if run.full() or evals >= cap:
                break
            evals = walk(*block, evals, cap, rng)
        runs.append(run)
        states.append((evals, rng.bit_generator.state, model.queries))
    return (*runs, *states)


def assert_walks_match(new, ref, new_state, ref_state):
    assert [tuple(np.frombuffer(k, dtype=np.int64).tolist()) for k in new.samples] == list(ref.samples)
    assert list(new.true_pairs.items()) == list(ref.true_pairs.items())
    assert list(new.invalid.items()) == list(ref.invalid.items())
    assert new.ledger == ref.ledger
    (new_evals, new_rng, new_queries), (ref_evals, ref_rng, ref_queries) = new_state, ref_state
    assert new_evals == ref_evals and new_rng == ref_rng
    # the same model queries, row for row: labels cannot depend on the walk
    assert len(new_queries) == len(ref_queries)
    for X, Y in zip(new_queries, ref_queries):
        assert X.dtype == Y.dtype and np.array_equal(X, Y)


class TestBlockWalk:
    """`_Run.walk` consumes a block with array operations and bulk banking;
    it must match the per-pair reference walk (tests/helpers.py) in every
    banked sample, counted pair, ledger entry, evaluation, partner draw and
    model query."""

    @settings(deadline=None)
    @given(walk_cases())
    def test_block_walk_matches_the_per_pair_walk(self, case):
        assert_walks_match(*run_both_walks(case))

    def test_cases_reach_every_branch(self, monkeypatch):
        """Seeded cases from `walk_case` reach each branch where the two
        walks could part, so the property above is not vacuous on any."""
        import helpers

        seen = Counter()
        consider, record = helpers.reference_consider, ReferenceRun.record_true_pair

        def traced_record(run, pair):
            # a rule pair's members are banked already: only a partner can fill
            before = run.full()
            new = record(run, pair)
            seen["filled by a partner"] += not before and run.full()
            return new

        def traced_consider(run, ka, kb, structure, partnered, guided, rng):
            seen["a0-d0 pair"] += partnered is None
            before, by_partner = run.full(), seen["filled by a partner"]
            consider(run, ka, kb, structure, partnered, guided, rng)
            by_member = by_partner == seen["filled by a partner"]
            seen["filled by a member"] += not before and run.full() and by_member

        monkeypatch.setattr(helpers, "reference_consider", traced_consider)
        monkeypatch.setattr(ReferenceRun, "record_true_pair", traced_record)
        rng = np.random.default_rng(18)
        for _ in range(1000):
            case = walk_case(lambda lo, hi: int(rng.integers(lo, hi + 1)))
            new, ref, new_state, ref_state = run_both_walks(case)
            assert_walks_match(new, ref, new_state, ref_state)
            seen["cap binds"] += not ref.full() and ref_state[0] == case[6]
            for pa, pb, *_ in case[4]:
                members = np.concatenate([pa, pb]).reshape(-1, pa.shape[2]).tolist()
                seen["repeated keys"] += len(set(map(tuple, members))) < len(members)
        branches = ("a0-d0 pair", "filled by a partner", "filled by a member", "cap binds", "repeated keys")
        assert all(seen[b] for b in branches), seen


class TestModelQueries:
    """The engine labels each block of proposals in one model query and takes
    the gradients of every pair of a block in one call."""

    @pytest.mark.parametrize("guided", [False, True], ids=["base", "guided"])
    def test_one_label_query_per_block_and_paired_gradients(
        self, guided, demo_split, demo_lr, demo_dataset, monkeypatch
    ):
        label_queries, gradient_inputs, blocks = [], [], []
        predict_batch = ModelUnderTest.predict_batch
        propose = generators._propose

        def recording_predict(model, X):
            label_queries.append(len(X))
            return predict_batch(model, X)

        def recording_gradient(model, X):
            gradient_inputs.append(np.array(X))
            return input_gradient(model, X)

        def counting_propose(*args):
            blocks.append(len(args[2]))  # once per block, with its seed count
            return propose(*args)

        monkeypatch.setattr(ModelUnderTest, "predict_batch", recording_predict)
        monkeypatch.setattr(generators, "input_gradient", recording_gradient)
        monkeypatch.setattr(generators, "_propose", counting_propose)
        _, test_data = demo_split
        s = demo_dataset.schema.index("gender")
        c = demo_dataset.schema.index("relationship")
        spec = GeneratorSpec(kind="adf_lite")
        if guided:
            suite = run_causalft(
                spec, demo_lr, test_data, s, c, 600, 5, domains=demo_dataset.domains
            )
        else:
            suite = run_base_generator(
                spec, demo_lr, test_data, s, 600, 5, domains=demo_dataset.domains
            )
        assert suite.budget_reached and blocks and gradient_inputs
        index_build, *engine = label_queries
        assert index_build == test_data.n_rows
        assert 1 <= len(engine) <= len(blocks)
        # one gradient call per step of a block, over all of its pairs
        per_block = 1 if guided else 1 + spec.local_steps
        assert len(gradient_inputs) == len(blocks) * per_block
        for X, seeds in zip(gradient_inputs, np.repeat(blocks, per_block)):
            assert X.shape == (2 * seeds, test_data.width)
            for a, b in zip(X[0::2], X[1::2]):
                if guided:
                    assert masked_relaxed_structure(a, b, s, c)
                else:
                    assert masked_differs_only_at(a, b, s)


class TestRepairInvalid:
    """The repair pass re-pairs each member of a relaxed-only pair with a test
    row through `_find_true_partners`."""

    def make_repair_fixture(self):
        # test rows: a profile and its sensitive-flip twins with flipping labels
        schema = Schema(
            ("s", "f1", "f2"), ("s",), "y",
            {"s": "integer", "f1": "integer", "f2": "integer"},
        )
        rows = np.array(
            [[0, 4, 1], [1, 4, 1], [0, 6, 1], [1, 6, 1], [0, 5, 5]]
        )
        model = fixed_logistic([5.0, 0.01, 0.01], -2.5)  # labels track s
        ds = from_arrays(rows, model.predict_batch(rows.astype(float))[0], schema)
        return schema, ds, model

    def repair(self, pair, ds, model):
        labels, _ = model.predict_batch(np.array([pair.a, pair.b], dtype=float))
        return _find_true_partners(
            [(pair.a, int(labels[0])), (pair.b, int(labels[1]))],
            _TestIndex(ds, model, 0),
            np.random.default_rng(0),
        )

    def test_both_members_repaired(self):
        _, ds, model = self.make_repair_fixture()
        # relaxed-valid (s and f1 differ, labels differ), not true-valid
        pair = Pair(a=(0, 4, 1), b=(1, 6, 1))
        new_pairs, failed = self.repair(pair, ds, model)
        assert failed == 0 and len(new_pairs) == 2
        for repaired in new_pairs:
            assert is_true_idi(repaired, model, 0)

    def test_no_partner_counts_failures(self):
        _, ds, model = self.make_repair_fixture()
        pair = Pair(a=(0, 9, 9), b=(1, 8, 9))
        new_pairs, failed = self.repair(pair, ds, model)
        assert new_pairs == [] and failed == 2


class TestBruteForceEquivalence:
    def test_saturated_suite_matches_enumeration(self):
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
        assert len(suite.unique_samples) == 16
        assert set(suite.idi_samples) == expected


class TestGeneratorSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GeneratorSpec(kind="genetic")

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            GeneratorSpec(kind="random", local_steps=0)
        with pytest.raises(ValueError):
            GeneratorSpec(kind="adf_lite", step_size=0)
        with pytest.raises(ValueError):
            GeneratorSpec(kind="sg_lite", max_attempts_per_pair=0)

    def test_errors_are_config_invalid(self):
        with pytest.raises(ConfigInvalid):
            GeneratorSpec(kind="genetic")
        with pytest.raises(ConfigInvalid):
            GeneratorSpec(kind="random", step_size=-1)
