"""Reference checks and walks the tests use and the pipeline does not."""

import numpy as np

from fairprobe.data import Dataset
from fairprobe.generators import Pair, PairLedger, TestSuite, _block_structure, _find_true_partners
from fairprobe.models import ModelUnderTest


def domain_contains(domain, v) -> bool:
    """Whether the ValueDomain permits the value v."""
    if domain.kind == "range":
        return domain.lo <= v <= domain.hi
    return v in domain.values


def is_acyclic(graph) -> bool:
    """Whether every edge of the CausalGraph runs forward in its topo_order."""
    pos = {node: p for p, node in enumerate(graph.topo_order)}
    js, is_ = np.nonzero(graph.weights)
    return all(pos[i] < pos[j] for i, j in zip(is_, js))


class ReferenceRun:
    """The engine's run state as it was when blocks were consumed one pair at
    a time, with every sample, label and test row keyed by its tuple. The
    test-row labels (`label_of`) are its own, read from the `_TestIndex`."""

    def __init__(self, model, index, budget: int):
        self.model = model
        self.index = index
        self.budget = budget
        self.samples: dict[tuple, None] = {}
        # true and relaxed-only pairs by Pair.key(), in discovery order
        self.true_pairs: dict = {}
        self.invalid: dict = {}
        self.ledger = PairLedger()
        self.label_of = dict(zip(map(tuple, index.rows.tolist()), index.labels.tolist()))
        # test rows are never sent to the model again
        self._label_cache: dict[tuple, int] = dict(self.label_of)

    def bank(self, key: tuple) -> None:
        if len(self.samples) < self.budget and key not in self.samples:
            self.samples[key] = None

    def label(self, keys) -> None:
        """Cache the keyed samples' labels, with one model query for the uncached."""
        cache = self._label_cache
        missing = [k for k in dict.fromkeys(keys) if k not in cache]
        if missing:
            labels, _ = self.model.predict_batch(np.asarray(missing, dtype=float))
            cache.update(zip(missing, labels.tolist()))

    def labels_of(self, ka: tuple, kb: tuple) -> tuple[int, int]:
        """The labels of two samples already labelled (`label`) or test rows."""
        return self._label_cache[ka], self._label_cache[kb]

    def record_true_pair(self, pair) -> bool:
        """Keep a new true pair and bank its members, which adds a test-row
        partner found for it; False if the pair was already counted."""
        self.bank(pair.a)
        self.bank(pair.b)
        return self.true_pairs.setdefault(pair.key(), pair) is pair

    def full(self) -> bool:
        return len(self.samples) >= self.budget


def reference_consider(run, ka: tuple, kb: tuple, structure: int, partnered, guided: bool, rng) -> None:
    """Bank both members and apply the pair rule, given the pair's
    `_block_structure` code and its members' `partnered` flags. A true pair
    credits `pairs_without_relaxation` in base mode, else `pairs_with_relaxation`."""
    run.bank(ka)
    run.bank(kb)
    if ka == kb:
        return
    la, lb = run.labels_of(ka, kb)
    ledger = run.ledger
    if ka in run.label_of or kb in run.label_of:  # a test row
        if la == lb or not structure:
            return
        pair = Pair(a=ka, b=kb)
        if not guided:
            ledger.pairs_without_relaxation += run.record_true_pair(pair)
        elif structure == 2:
            ledger.pairs_with_relaxation += run.record_true_pair(pair)
        elif run.invalid.setdefault(pair.key(), pair) is pair:
            ledger.pairs_with_relaxation += 1
            ledger.invalid_pairs += 1
    elif guided and any(partnered):
        # only a perturbed sample and a test row may form a counted pair
        members = [m for m, ok in zip([(ka, la), (kb, lb)], partnered) if ok]
        for pair in _find_true_partners(members, run.index, rng)[0]:
            ledger.pairs_with_relaxation += run.record_true_pair(pair)


def reference_walk(run, causal, pa, pb, live, d0, d0_structure, evals: int, cap: int, partner_rng) -> int:
    """Consume one `_propose` block pair by pair, in draw order, until the
    budget fills or `cap` evaluations are used; return the evaluations used.
    This is the engine's slot loop from before blocks were walked as arrays,
    the reference that `_Run.walk` must match (causal=None is base mode)."""
    guided, sensitive, seeds = causal is not None, run.index.sensitive, len(pa)
    if guided:
        d0_structure = d0_structure.tolist()
    slots = pa.shape[1]
    a_keys = list(map(tuple, pa.reshape(-1, pa.shape[2]).tolist()))
    b_keys = list(map(tuple, pb.reshape(-1, pa.shape[2]).tolist()))
    run.label(a_keys + b_keys)
    live = live.tolist()
    structure = _block_structure(pa, pb, sensitive, causal).ravel().tolist()
    partnered = [()] * len(a_keys)  # base mode never searches a partner
    if guided:
        partnered = list(zip(run.index.partnered(pa), run.index.partnered(pb)))
    for i in range(seeds):
        if run.full() or evals >= cap:
            break
        first = i * slots
        if guided and d0_structure[i]:
            ka, kd = a_keys[first], tuple(d0[i].tolist())
            la, ld = run.labels_of(ka, kd)
            if la != ld:
                evals += 1
                reference_consider(run, ka, kd, d0_structure[i], None, guided, partner_rng)
                continue
        for k in range(slots):  # slot 0, the seed pair, is always live
            if run.full() or evals >= cap:
                break
            if live[i][k]:
                evals += 1
                j = first + k
                ka, kb = a_keys[j], b_keys[j]
                reference_consider(run, ka, kb, structure[j], partnered[j], guided, partner_rng)
    return evals


# The test-row look-ups of `metrics.labeled_samples_from_suite` and
# `retrain.correct_pairs` as they were when every test row was keyed by its
# tuple, the references that the byte-keyed versions must match.


def labeled_samples_from_suite(
    suite: TestSuite, test_data: Dataset
) -> tuple[np.ndarray, np.ndarray]:
    """Samples from the suite's pairs with ground-truth labels attached.

    A test-row member keeps its own label; a synthetic member inherits the
    label of the test-row member of its pair. Samples outside any pair carry
    no ground truth and are excluded.
    """
    row_label = dict(zip(map(tuple, test_data.rows.tolist()), test_data.labels.tolist()))
    labeled: dict[tuple, int] = {}
    for pair in suite.true_pairs:
        a_lab = row_label.get(pair.a)
        b_lab = row_label.get(pair.b)
        if a_lab is not None:
            labeled.setdefault(pair.a, a_lab)
        if b_lab is not None:
            labeled.setdefault(pair.b, b_lab)
        if a_lab is None and b_lab is not None:
            labeled.setdefault(pair.a, b_lab)
        if b_lab is None and a_lab is not None:
            labeled.setdefault(pair.b, a_lab)
    if not labeled:
        return np.empty((0, test_data.width), dtype=np.int64), np.empty(0, dtype=np.int64)
    X = np.asarray(list(labeled.keys()), dtype=np.int64)
    y = np.asarray(list(labeled.values()), dtype=np.int64)
    return X, y


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
    label_of = dict(zip(map(tuple, test_data.rows.tolist()), labels.tolist()))
    out: dict[tuple[tuple[int, ...], int], None] = {}
    for pair in suite.true_pairs:
        a_in = pair.a in label_of
        b_in = pair.b in label_of
        if a_in and b_in:
            out.setdefault((pair.a, 1), None)
            out.setdefault((pair.b, 1), None)
        elif a_in:
            out.setdefault((pair.b, label_of[pair.a]), None)
        elif b_in:
            out.setdefault((pair.a, label_of[pair.b]), None)
    return list(out.keys())

