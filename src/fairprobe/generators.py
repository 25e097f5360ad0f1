"""Perturbation-based test generation with optional causal guidance.

One engine serves three strategies (random walks, single-feature sweeps,
gradient-guided steps) in two modes, a block of seeds at a time: it proposes
every pair of the block with array operations, labels the block's new
samples in one model query, settles each pair's structure and which members
can have a test-row partner at all with array operations, and consumes the
pairs in draw order until the budget or the evaluation cap is reached.

In base mode a seed pair differs only on the sensitive feature and every
non-sensitive feature may be perturbed. In causally guided mode the pair may
differ on the sensitive feature and its most causally tied non-sensitive
partner; both stay fixed and each pair takes one step on a uniformly chosen
feature. Every step changes the same feature(s) of both members to the same
new value, so the within-pair difference never leaks outside the fixed set.

Both modes count pairs by one rule (`_consider`): a pair counts when the
model labels its members apart, they differ only inside the fixed set, and
one of them is a test row; base mode is guided mode with no causal feature.
A counted pair that differs only at the sensitive feature is a true pair.
Guided mode alone keeps the relaxed-only pairs, which are repaired against
the test data at the end, and re-pairs perturbed samples with test rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset, ValueDomain
from .errors import ConfigInvalid, IndexCollision, WidthMismatch
from .models import ModelUnderTest, input_gradient

log = logging.getLogger(__name__)

KIND_RANDOM = "random"
KIND_SG_LITE = "sg_lite"
KIND_ADF_LITE = "adf_lite"
_KINDS = (KIND_RANDOM, KIND_SG_LITE, KIND_ADF_LITE)

# random-walk steps the random strategy spends on one seed pair before
# rotating to a new seed; each step changes one feature of both members
_RANDOM_STEPS = 8

# pairs proposed per block: a block holds as many seeds as their pairs fit,
# which bounds its memory and the unused proposals at the end of a suite
_BLOCK_PAIRS = 1024


@dataclass(frozen=True)
class Pair:
    """Two equal-width samples; members are stored as immutable tuples."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise WidthMismatch("pair members differ in width")
        if self.a == self.b:
            raise ValueError("pair members must differ")

    def key(self) -> tuple:
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    local_steps: int = 8
    step_size: int = 1
    max_attempts_per_pair: int = 1000

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigInvalid(f"unknown generator kind {self.kind!r}")
        if self.local_steps <= 0 or self.step_size <= 0 or self.max_attempts_per_pair <= 0:
            raise ConfigInvalid("generator parameters must be positive")


@dataclass
class PairLedger:
    """Pair accounting: base-mode finds, relaxed finds, invalid and repaired
    relaxed pairs, and members dropped during repair."""

    pairs_without_relaxation: int = 0
    pairs_with_relaxation: int = 0
    invalid_pairs: int = 0
    repaired_pairs: int = 0
    failed_samples: int = 0


@dataclass
class TestSuite:
    """Unique generated samples plus the discovered discriminatory subset."""

    __test__ = False  # not a pytest class

    unique_samples: list[tuple[int, ...]]
    idi_samples: list[tuple[int, ...]]
    true_pairs: list[Pair]
    ledger: PairLedger
    budget_reached: bool
    used_fallback: bool = False

    def sample_matrix(self) -> np.ndarray:
        return np.asarray(self.unique_samples, dtype=np.int64).reshape(
            len(self.unique_samples), -1
        )


def _block_structure(pa: np.ndarray, pb: np.ndarray, s: int, c: int | None) -> np.ndarray:
    """Per pair of a block (members on the last axis): 2 where the pair differs
    only at s, 1 where only inside {s, c} and at c, else 0."""
    diff = pa != pb
    relaxed = diff.any(-1) & ~np.delete(diff, [s] if c is None else [s, c], -1).any(-1)
    return relaxed * (2 - (diff[..., c] if c is not None else False))


def _idi_structure(pair: Pair, model: ModelUnderTest, sensitive: int, causal: int | None) -> int:
    """The pair's `_block_structure` code, or 0 when the model labels its
    members alike; the model is queried only for a pair with a code."""
    if len(pair.a) != model.input_width:
        raise WidthMismatch(
            f"pair width {len(pair.a)} != model input width {model.input_width}"
        )
    code = int(_block_structure(np.asarray(pair.a), np.asarray(pair.b), sensitive, causal))
    if not code:
        return 0
    labels, _ = model.predict_batch(np.array([pair.a, pair.b], dtype=float))
    return code if labels[0] != labels[1] else 0


def is_true_idi(pair: Pair, model: ModelUnderTest, sensitive: int) -> bool:
    """True iff the members differ exactly at the sensitive index and the model
    labels them differently."""
    return _idi_structure(pair, model, sensitive, None) == 2


def is_relaxed_idi(pair: Pair, model: ModelUnderTest, sensitive: int, causal: int) -> bool:
    """True iff the members agree outside {sensitive, causal}, differ inside it,
    and the model labels them differently."""
    if sensitive == causal:
        raise IndexCollision("sensitive and causal feature indices must differ")
    return _idi_structure(pair, model, sensitive, causal) > 0


class _TestIndex:
    """Test rows keyed for membership checks and true-definition partner
    search, with every row's predicted label from one batch query. Each
    table is built when a suite first reads it."""

    def __init__(self, test_data: Dataset, model: ModelUnderTest, sensitive: int):
        self.rows = test_data.rows
        self.sensitive = sensitive
        self.model = model

    @cached_property
    def labels(self) -> np.ndarray:
        return self.model.predict_batch(self.rows.astype(float))[0]

    @cached_property
    def label_of(self) -> dict[tuple, int]:
        return dict(zip(map(tuple, self.rows.tolist()), self.labels.tolist()))

    @cached_property
    def buckets(self) -> dict[tuple, list[int]]:
        """Row numbers by the row's values outside the sensitive index."""
        buckets: dict[tuple, list[int]] = {}
        for i, key in enumerate(map(tuple, np.delete(self.rows, self.sensitive, 1).tolist())):
            buckets.setdefault(key, []).append(i)
        return buckets

    def rest_bytes(self, rows: np.ndarray) -> list[bytes]:
        """Each row (any leading shape, flattened) as bytes with its sensitive
        value zeroed: equal exactly when the rows agree outside that index."""
        rest = np.array(rows, dtype=np.int64, order="C")
        rest[..., self.sensitive] = 0
        return rest.view(f"V{rest.itemsize * rest.shape[-1]}").ravel().tolist()

    @cached_property
    def rest_values(self) -> dict[bytes, int | None]:
        """The test rows' sensitive value per rest, None where they hold several."""
        values: dict[bytes, int | None] = {}
        for rest, v in zip(self.rest_bytes(self.rows), self.rows[:, self.sensitive].tolist()):
            values[rest] = v if values.get(rest, v) == v else None
        return values

    def partnered(self, rows: np.ndarray) -> list[bool]:
        """Whether each row (flattened) can have a true partner at all: a test
        row of its bucket in `buckets` differs from it at the sensitive index."""
        values, own = self.rest_values, rows[..., self.sensitive].ravel().tolist()
        return [values.get(rest, v) != v for rest, v in zip(self.rest_bytes(rows), own)]


def _find_true_partners(
    pair_members: list[tuple[tuple, int]],
    index: _TestIndex,
    rng: np.random.Generator,
) -> tuple[list[Pair], int]:
    """Pair each (sample key, label) with a random test row that differs from
    it only at the sensitive index and carries a different predicted label.

    Returns the formed pairs and the count of members with no eligible partner.
    """
    s, pairs, failed = index.sensitive, [], 0
    for key, label in pair_members:
        bucket = index.buckets.get(key[:s] + key[s + 1 :], ())
        eligible = [i for i in bucket if index.rows[i, s] != key[s] and index.labels[i] != label]
        if not eligible:
            failed += 1
            continue
        partner = eligible[rng.integers(len(eligible))]
        pairs.append(Pair(a=key, b=tuple(index.rows[partner].tolist())))
    return pairs, failed


class _Run:
    """Mutable state of one generation run."""

    def __init__(self, model: ModelUnderTest, index: _TestIndex, budget: int):
        self.model = model
        self.index = index
        self.budget = budget
        self.samples: dict[tuple, None] = {}
        # true and relaxed-only pairs by Pair.key(), in discovery order
        self.true_pairs: dict[tuple, Pair] = {}
        self.invalid: dict[tuple, Pair] = {}
        self.ledger = PairLedger()
        # test rows are never sent to the model again
        self._label_cache: dict[tuple, int] = dict(index.label_of)

    def bank(self, key: tuple) -> None:
        if len(self.samples) < self.budget and key not in self.samples:
            self.samples[key] = None

    def label(self, keys: Iterable[tuple]) -> None:
        """Cache the keyed samples' labels, with one model query for the uncached."""
        cache = self._label_cache
        missing = [k for k in dict.fromkeys(keys) if k not in cache]
        if missing:
            labels, _ = self.model.predict_batch(np.asarray(missing, dtype=float))
            cache.update(zip(missing, labels.tolist()))

    def labels_of(self, ka: tuple, kb: tuple) -> tuple[int, int]:
        """The labels of two samples already labelled (`label`) or test rows."""
        return self._label_cache[ka], self._label_cache[kb]

    def record_true_pair(self, pair: Pair) -> bool:
        """Keep a new true pair and bank its members, which adds a test-row
        partner found for it; False if the pair was already counted."""
        self.bank(pair.a)
        self.bank(pair.b)
        return self.true_pairs.setdefault(pair.key(), pair) is pair

    def full(self) -> bool:
        return len(self.samples) >= self.budget


def _consider(
    run: _Run, ka: tuple, kb: tuple, structure: int, partnered, guided: bool, rng
) -> None:
    """Bank both members and apply the pair rule of the module docstring, given
    the pair's `_block_structure` code and its members' `partnered` flags. A
    true pair credits `pairs_without_relaxation` in base mode, else `pairs_with_relaxation`."""
    run.bank(ka)
    run.bank(kb)
    if ka == kb:
        return
    la, lb = run.labels_of(ka, kb)
    ledger = run.ledger
    if ka in run.index.label_of or kb in run.index.label_of:  # a test row
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


def _pair_gradients(model: ModelUnderTest, a: np.ndarray, b: np.ndarray):
    """Input gradients of both members of every pair, from one call on the
    members interleaved: a[0], b[0], a[1], ..."""
    grads = input_gradient(model, np.stack([a, b], axis=1).reshape(-1, a.shape[1]))
    return grads[0::2], grads[1::2]


def _resample(a, b, feats, domains, rng) -> np.ndarray:
    """Set feature feats[i] of both members of pair i to a new value drawn
    uniformly; returns which pairs moved (their domain is no singleton)."""
    moved = np.zeros(len(feats), dtype=bool)
    for j in sorted(set(feats.tolist())):
        rows = feats == j
        if domains[j].size > 1:
            a[rows, j] = b[rows, j] = domains[j].sample_excluding(rng, a[rows, j])
            moved |= rows
    return moved


def _shift(a, b, feats, signs, step: int, domains) -> np.ndarray:
    """Move feature feats[i] of both members of pair i by `step` in the
    direction signs[i], or the other way where the domain edge stops it;
    returns which pairs moved."""
    old = a[np.arange(len(feats)), feats]
    for j in sorted(set(feats.tolist())):
        rows = feats == j
        delta = signs[rows] * step
        new = domains[j].clamp(old[rows] + delta)
        a[rows, j] = b[rows, j] = np.where(new == old[rows], domains[j].clamp(old[rows] - delta), new)
    return a[np.arange(len(feats)), feats] != old


def _candidate_count(spec: GeneratorSpec, mutable: list[int], domains, guided: bool) -> int:
    """Candidate slots per seed pair: one step when guided, else the kind's stream."""
    if not mutable:
        return 0
    if guided:
        return 1
    if spec.kind == KIND_RANDOM:
        return min(spec.max_attempts_per_pair, _RANDOM_STEPS)
    if spec.kind == KIND_SG_LITE:
        # a seed skips at most its own value per feature, so its first
        # max_attempts_per_pair sweep steps lie among this many
        sweep = sum(domains[j].size for j in mutable)
        return min(sweep, spec.max_attempts_per_pair + len(mutable))
    return 1 + min(spec.local_steps, spec.max_attempts_per_pair - 1)


def _propose(
    spec: GeneratorSpec,
    model: ModelUnderTest,
    a0: np.ndarray,
    b0: np.ndarray,
    mutable: list[int],
    domains: Sequence[ValueDomain],
    rng: np.random.Generator,
    guided: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, live): pair k of seed i is (a[i, k], b[i, k]), tried in slot
    order unless dead. Slot 0 is the seed pair (a0[i], b0[i]). Base mode
    follows with the kind's stream; guided mode with one step on a uniformly
    chosen feature: a new value, or adf_lite's gradient-sign step.
    """
    seeds = len(a0)
    steps = [(a0, b0, np.ones(seeds, dtype=bool))]
    if not mutable:
        return a0[:, None], b0[:, None], steps[0][2][:, None]
    a, b = a0.copy(), b0.copy()
    count = _candidate_count(spec, mutable, domains, guided)
    if guided and spec.kind == KIND_ADF_LITE:
        feats = np.asarray(mutable)[rng.integers(len(mutable), size=seeds)]
        ga, gb = _pair_gradients(model, a, b)
        signs = np.sign(ga - gb)[np.arange(seeds), feats].astype(np.int64)
        steps.append((a, b, _shift(a, b, feats, signs, spec.step_size, domains)))
    elif guided or spec.kind == KIND_RANDOM:  # a guided step is one random-walk step
        for _ in range(count):
            feats = np.asarray(mutable)[rng.integers(len(mutable), size=seeds)]
            live = _resample(a, b, feats, domains, rng)
            steps.append((a.copy(), b.copy(), live))
    elif spec.kind == KIND_SG_LITE:
        cells = ((j, v) for j in mutable for v in domains[j].as_tuple())
        feat, value = np.array(list(islice(cells, count))).T
        slot = np.arange(1, count + 1)
        a, b = np.repeat(a0[:, None], count + 1, axis=1), np.repeat(b0[:, None], count + 1, axis=1)
        a[:, slot, feat] = b[:, slot, feat] = value
        live = np.ones((seeds, count + 1), dtype=bool)
        live[:, 1:] = value != a0[:, feat]
        live[:, 1:] &= np.cumsum(live[:, 1:], axis=1) <= spec.max_attempts_per_pair
        return a, b, live
    else:  # adf_lite
        ga, gb = _pair_gradients(model, a, b)
        step = np.sign(ga - gb).astype(np.int64) * spec.step_size
        for j in mutable:
            a[:, j] = np.where(step[:, j] != 0, domains[j].clamp(a[:, j] + step[:, j]), a[:, j])
        b[:, mutable] = a[:, mutable]
        steps.append((a.copy(), b.copy(), np.ones(seeds, dtype=bool)))
        for _ in range(count - 1):
            ga, gb = _pair_gradients(model, a, b)
            weight = 1.0 / (np.abs(ga[:, mutable]) + np.abs(gb[:, mutable]) + 1e-9)
            cdf = np.cumsum(weight / weight.sum(axis=1, keepdims=True), axis=1)
            pick = np.minimum((cdf < rng.random((seeds, 1))).sum(axis=1), len(mutable) - 1)
            signs = 2 * rng.integers(2, size=seeds) - 1
            live = _shift(a, b, np.asarray(mutable)[pick], signs, spec.step_size, domains)
            steps.append((a.copy(), b.copy(), live))
    pa, pb, live = zip(*steps)
    return np.stack(pa, axis=1), np.stack(pb, axis=1), np.stack(live, axis=1)


def _generate(
    spec: GeneratorSpec,
    model: ModelUnderTest,
    test_data: Dataset,
    sensitive: int,
    causal: int | None,
    budget: int,
    seed: int,
    domains: Sequence[ValueDomain] | None,
    index: _TestIndex | None,
) -> TestSuite:
    """The engine of both modes (causal=None is base mode). One evaluation
    is counted per drawn seed and per candidate consumed, up to `cap`."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    test_data.require_rows("test data")  # a split with rows has its own domains
    if domains is None:
        domains = test_data.domains
    run = _Run(model, index or _TestIndex(test_data, model, sensitive), budget)
    # partner search has its own stream, so proposals never depend on consumption
    rng, partner_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    guided = causal is not None
    fixed = [sensitive, causal] if guided else [sensitive]
    # with every fixed domain a singleton no pair can differ: seeds go unperturbed
    pairable = any(domains[j].size > 1 for j in fixed)
    mutable = [j for j in range(test_data.width) if j not in fixed and pairable]
    seeds = max(1, _BLOCK_PAIRS // (1 + _candidate_count(spec, mutable, domains, guided)))
    n = test_data.n_rows

    evals, cap = 0, max(50 * budget, 2000)
    while not run.full() and evals < cap:
        drawn = rng.integers(n, size=seeds)
        a0 = test_data.rows[drawn]
        b0 = a0.copy()
        b0[:, sensitive] = domains[sensitive].sample_excluding(rng, a0[:, sensitive])
        if guided:
            # a second test row, kept as the partner if the pair is already relaxed-valid
            other = rng.integers(n, size=seeds) if n > 1 else drawn
            d0 = test_data.rows[other]
            d0_structure = (_block_structure(a0, d0, sensitive, causal) * (drawn != other)).tolist()
            c_dom = domains[causal]
            b0[:, causal] = c_dom.sample(rng, seeds)
            same = (b0[:, fixed] == a0[:, fixed]).all(axis=1)
            b0[same, causal] = c_dom.sample_excluding(rng, a0[same, causal])
        pa, pb, live = _propose(spec, model, a0, b0, mutable, domains, rng, guided)
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
                    _consider(run, ka, kd, d0_structure[i], None, guided, partner_rng)
                    continue
            for k in range(slots):  # slot 0, the seed pair, is always live
                if run.full() or evals >= cap:
                    break
                if live[i][k]:
                    evals += 1
                    j = first + k
                    ka, kb = a_keys[j], b_keys[j]
                    _consider(run, ka, kb, structure[j], partnered[j], guided, partner_rng)

    # invalidity repair over relaxed-only pairs
    invalid = list(run.invalid.values())
    both = np.array([(p.a, p.b) for p in invalid], dtype=np.int64).reshape(-1, 2, test_data.width)
    flags = run.index.partnered(both) if invalid else []
    for pair, ok in zip(invalid, zip(flags[0::2], flags[1::2])):
        la, lb = run.labels_of(pair.a, pair.b)
        members = [m for m, keep in zip([(pair.a, la), (pair.b, lb)], ok) if keep]
        found, failed = _find_true_partners(members, run.index, partner_rng)
        if found:
            run.ledger.repaired_pairs += 1
        for new_pair in found:
            run.record_true_pair(new_pair)
        run.ledger.failed_samples += failed + 2 - len(members)  # filtered: no partner

    if not run.full():
        log.warning("budget %d unreachable, produced %d samples", run.budget, len(run.samples))
    unique = list(run.samples.keys())
    idi_marks = {member for pair in run.true_pairs.values() for member in (pair.a, pair.b)}
    return TestSuite(
        unique_samples=unique,
        idi_samples=[k for k in unique if k in idi_marks],
        true_pairs=list(run.true_pairs.values()),
        ledger=run.ledger,
        budget_reached=run.full(),
    )


def run_base_generator(
    spec: GeneratorSpec,
    model: ModelUnderTest,
    test_data: Dataset,
    sensitive: int,
    budget: int,
    seed: int,
    domains: Sequence[ValueDomain] | None = None,
    *,
    index: _TestIndex | None = None,
) -> TestSuite:
    """Baseline flow under the true criterion: seed pairs differ only on the
    sensitive feature, every non-sensitive feature may be perturbed, unique
    samples are collected until the budget or attempt exhaustion.

    `domains` should be the frozen full-dataset domains; the test split's own
    observed domains are used when omitted. `index`, the test split's
    `_TestIndex` for this model and sensitive feature, is built when omitted.
    """
    return _generate(spec, model, test_data, sensitive, None, budget, seed, domains, index)


def run_causalft(
    spec: GeneratorSpec,
    model: ModelUnderTest,
    test_data: Dataset,
    sensitive: int,
    causal: int | None,
    budget: int,
    seed: int,
    domains: Sequence[ValueDomain] | None = None,
    *,
    index: _TestIndex | None = None,
) -> TestSuite:
    """Causally guided flow: pairs may differ on {sensitive, causal}, those two
    features stay fixed during perturbation, perturbed samples are re-paired
    with the test data, and relaxed-only pairs are repaired at the end.

    Passing causal=None (no directly relevant feature found) degrades to the
    base flow with the fallback flag set. `domains` and `index` are as for
    `run_base_generator`.
    """
    if causal == sensitive:
        raise IndexCollision("causal feature must differ from the sensitive feature")
    suite = _generate(spec, model, test_data, sensitive, causal, budget, seed, domains, index)
    suite.used_fallback = causal is None
    return suite
