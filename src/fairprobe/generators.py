"""Perturbation-based test generation with optional causal guidance.

One engine serves three strategies (random walks, single-feature sweeps,
gradient-guided steps) in two modes, a block of seeds at a time: it proposes
every pair of the block with array operations, labels the block's new
samples in one model query, and walks the block as arrays keyed by each
row's bytes. Array operations settle which pairs are considered in draw
order and where the evaluation cap cuts them, each pair's labels, test-row
membership and structure, and whether it counts or needs a test-row partner
search. Only those counting and searching pairs are taken one by one; the
members between them are banked in bulk, an ordered dedupe cut where the
budget fills.

In base mode a seed pair differs only on the sensitive feature and every
non-sensitive feature may be perturbed. In causally guided mode the pair may
differ on the sensitive feature and its most causally tied non-sensitive
partner; both stay fixed and each pair takes one step on a uniformly chosen
feature. Every step changes the same feature(s) of both members to the same
new value, so the within-pair difference never leaks outside the fixed set.

Both modes count pairs by one rule (`_Run.walk`): a pair counts when the
model labels its members apart, they differ only inside the fixed set, and
one of them is a test row; base mode is guided mode with no causal feature.
A counted pair that differs only at the sensitive feature is a true pair.
Guided mode alone keeps the relaxed-only pairs, which are repaired against
the test data at the end, and re-pairs perturbed samples with test rows.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, filterfalse, islice
from typing import Collection, Iterable, Sequence

import numpy as np

from .data import Dataset, ValueDomain
from .errors import ConfigInvalid, IndexCollision, UnknownFeature, WidthMismatch
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
    """Unique generated samples plus the discovered discriminatory subset.

    `unique_samples` is one C-contiguous (n, width) int64 matrix, a row per
    banked sample in bank order. `idi_samples` holds, as tuples in the same
    order, the samples that are members of a pair in `true_pairs`."""

    __test__ = False  # not a pytest class

    unique_samples: np.ndarray
    idi_samples: list[tuple[int, ...]]
    true_pairs: list[Pair]
    ledger: PairLedger
    budget_reached: bool
    used_fallback: bool = False


def _block_structure(pa: np.ndarray, pb: np.ndarray, s: int, c: int | None) -> np.ndarray:
    """Per pair of a block (members on the last axis): 2 where the pair differs
    only at s, 1 where only inside {s, c} and at c, else 0."""
    diff = pa != pb
    relaxed = diff.any(-1) & ~np.delete(diff, [s] if c is None else [s, c], -1).any(-1)
    return relaxed * (2 - (diff[..., c] if c is not None else False))


def _idi_structure(pair: Pair, model: ModelUnderTest, sensitive: int, causal: int | None) -> int:
    """The pair's `_block_structure` code, or 0 when the model labels its
    members alike; the model is queried only for a pair with a code."""
    width = model.input_width
    if len(pair.a) != width:
        raise WidthMismatch(f"pair width {len(pair.a)} != model input width {width}")
    for j in (sensitive, causal):
        if j is not None and not 0 <= j < width:
            raise UnknownFeature(f"feature index {j} outside [0, {width})")
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


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """Each row (any leading shape, flattened) as the bytes of its int64
    values: equal exactly when the rows are."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(f"V{rows.itemsize * rows.shape[-1]}").ravel().tolist()


def _key_rows(keys: Collection[bytes], width: int) -> np.ndarray:
    """The rows of `_row_keys` keys, in order, as one C-contiguous
    (len(keys), width) int64 matrix."""
    return np.fromiter(keys, f"V{8 * width}", len(keys)).view(np.int64).reshape(-1, width)


def _pair_keys(pairs: Iterable[Pair], width: int) -> list[bytes]:
    """The `_row_keys` of the pairs' members, interleaved: a0, b0, a1, ..."""
    return _row_keys(np.array([(p.a, p.b) for p in pairs], dtype=np.int64).reshape(-1, width))


class _TestIndex:
    """Test rows keyed for true-definition partner search, with every row's
    predicted label from one batch query, which seeds each run's label cache.
    Each table is built when a suite first reads it."""

    def __init__(self, test_data: Dataset, model: ModelUnderTest, sensitive: int):
        self.rows, self.sensitive, self.model = test_data.rows, sensitive, model

    @cached_property
    def labels(self) -> np.ndarray:
        return self.model.predict_batch(self.rows.astype(float))[0]

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
        return _row_keys(rest)

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
    pair_members: list[tuple[tuple, int]], index: _TestIndex, rng: np.random.Generator
) -> tuple[list[Pair], int]:
    """Pair each (sample key, label) with a random test row that differs from
    it only at the sensitive index and carries a different predicted label.
    Returns the formed pairs and the count of members with no eligible partner."""
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
    """Mutable state of one generation run. Samples and labels are keyed by
    each row's `_row_keys` bytes; tuples are built only for counted pairs and
    searched members, and the suite's samples become one matrix at the end."""

    def __init__(self, index: _TestIndex, budget: int, causal: int | None):
        self.index, self.budget, self.causal = index, budget, causal
        self.samples: dict[bytes, None] = {}
        # true and relaxed-only pairs by Pair.key(), in discovery order
        self.true_pairs: dict[tuple, Pair] = {}
        self.invalid: dict[tuple, Pair] = {}
        self.ledger = PairLedger()
        # each row's label, plus 2 for a test row; test rows never reach the model again
        self.codes = dict(zip(_row_keys(index.rows), (index.labels + 2).tolist()))

    def label(self, rows: np.ndarray) -> tuple[list[bytes], np.ndarray]:
        """The rows' `_row_keys` and codes, after one model query for the
        uncached rows in first-occurrence order."""
        keys = _row_keys(rows)
        codes, where = self.codes, dict(zip(keys, range(len(keys))))
        missing = list(filterfalse(codes.__contains__, where))
        if missing:
            at = list(map(where.__getitem__, missing))
            labels, _ = self.index.model.predict_batch(rows[at].astype(float))
            codes.update(zip(missing, labels.tolist()))
        return keys, np.fromiter(map(codes.__getitem__, keys), np.int64, len(keys))

    def bank_stream(self, keys: Sequence[bytes]) -> int | None:
        """Bank the keys' unseen rows in order until the budget fills; the
        position in `keys` of the row that filled it, else None."""
        room = self.budget - len(self.samples)
        fresh = list(islice(filterfalse(self.samples.__contains__, dict.fromkeys(keys)), room))
        self.samples.update(dict.fromkeys(fresh))
        return keys.index(fresh[-1]) if fresh and len(fresh) == room else None

    def keep(self, pair: Pair) -> bool:
        """Bank pair.b, the test row found as pair.a's partner; keep the pair if new."""
        self.bank_stream([np.asarray(pair.b, dtype=np.int64).tobytes()])
        return self.true_pairs.setdefault(pair.key(), pair) is pair

    def full(self) -> bool:
        return len(self.samples) >= self.budget

    def walk(self, pa, pb, live, d0, d0_structure, evals: int, cap: int, rng) -> int:
        """Consume one `_propose` block in draw order under the pair rule of
        the module docstring until the budget fills or `cap` evaluations are
        used; return the evaluations used. Guided mode passes each seed's
        second test row d0 with its (a0, d0) `_block_structure` code: a seed
        whose (a0, d0) pair is labelled apart gives that pair alone, others
        their live slots. A rule pair (a test-row member, labels apart, a
        structure code) counts. An event pair (guided, no test-row member, a
        member that `partnered` passes) banks the partners it finds, so only
        the members between event pairs are banked in bulk."""
        seeds, slots, width = pa.shape
        n, guided = seeds * slots, self.causal is not None
        rows = np.concatenate([pa.reshape(n, width), pb.reshape(n, width)] + ([d0] if guided else []))
        keys, codes = self.label(rows)
        labels, test_row = codes & 1, codes > 1
        a = np.arange(n).reshape(seeds, slots)
        b, structure = a + n, _block_structure(pa, pb, self.index.sensitive, self.causal)
        take = live.copy()
        if guided:
            swap = (d0_structure > 0) & (labels[a[:, 0]] != labels[2 * n :])
            take[swap, 1:] = False
            b[swap, 0] = 2 * n + np.flatnonzero(swap)
            structure[swap, 0] = d0_structure[swap]
        order = np.flatnonzero(take)[: cap - evals]
        a, b, structure = a.ravel()[order], b.ravel()[order], structure.ravel()[order]
        tested = test_row[a] | test_row[b]
        rules = np.flatnonzero(tested & (labels[a] != labels[b]) & (structure > 0))
        events, ok = [], []
        if guided:
            searched = np.flatnonzero(~tested & (rows[a] != rows[b]).any(1))
            both = np.stack([rows[a[searched]], rows[b[searched]]], 1)
            flags = np.array(self.index.partnered(both), dtype=bool).reshape(-1, 2)
            events, ok = searched[flags.any(1)].tolist(), flags[flags.any(1)].tolist()
        rule_at = rules.tolist()
        rule_rows = list(zip(structure[rules].tolist(), rows[a[rules]].tolist(), rows[b[rules]].tolist()))
        stream = list(map(keys.__getitem__, np.stack([a, b], 1).ravel().tolist()))
        start, ledger = 0, self.ledger
        for e, ok_e in zip([*events, len(a)], [*ok, None]):
            stop = min(e + 1, len(a))  # bank up to and including the event pair
            filled = self.bank_stream(stream[2 * start : 2 * stop])
            if filled is not None:
                stop = start + filled // 2 + 1
            for code, ra, rb in rule_rows[bisect_left(rule_at, start) : bisect_left(rule_at, stop)]:
                pair = Pair(a=tuple(ra), b=tuple(rb))
                kept = self.invalid if code == 1 else self.true_pairs  # relaxed only: repaired later
                new = kept.setdefault(pair.key(), pair) is pair
                ledger.invalid_pairs += new and code == 1
                ledger.pairs_with_relaxation += new and guided
                ledger.pairs_without_relaxation += new and not guided
            if e < stop:  # only a perturbed sample and a test row may form a counted pair
                members = [(tuple(rows[m].tolist()), labels[m]) for m in compress((a[e], b[e]), ok_e)]
                for pair in _find_true_partners(members, self.index, rng)[0]:
                    ledger.pairs_with_relaxation += self.keep(pair)
            start = stop
            if self.full():
                break
        return evals + start


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
    spec: GeneratorSpec, model: ModelUnderTest, a0: np.ndarray, b0: np.ndarray,
    mutable: list[int], domains: Sequence[ValueDomain], rng: np.random.Generator, guided: bool,
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
    spec: GeneratorSpec, model: ModelUnderTest, test_data: Dataset, sensitive: int,
    causal: int | None, budget: int, seed: int, domains: Sequence[ValueDomain] | None,
    index: _TestIndex | None,
) -> TestSuite:
    """The engine of both modes (causal=None is base mode). One evaluation
    is counted per drawn seed and per candidate consumed, up to `cap`."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    test_data.require_rows("test data")  # a split with rows has its own domains
    if domains is None:
        domains = test_data.domains
    run = _Run(index or _TestIndex(test_data, model, sensitive), budget, causal)
    # partner search has its own stream, so proposals never depend on consumption
    rng, partner_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    guided = causal is not None
    fixed = [sensitive, causal] if guided else [sensitive]
    # with every fixed domain a singleton no pair can differ: seeds go unperturbed
    pairable = any(domains[j].size > 1 for j in fixed)
    mutable = [j for j in range(test_data.width) if j not in fixed and pairable]
    seeds = max(1, _BLOCK_PAIRS // (1 + _candidate_count(spec, mutable, domains, guided)))
    n, width = test_data.n_rows, test_data.width

    evals, cap = 0, max(50 * budget, 2000)
    while not run.full() and evals < cap:
        drawn = rng.integers(n, size=seeds)
        a0 = test_data.rows[drawn]
        b0 = a0.copy()
        b0[:, sensitive] = domains[sensitive].sample_excluding(rng, a0[:, sensitive])
        d0 = d0_structure = None
        if guided:
            # a second test row, kept as the partner if the pair is already relaxed-valid
            other = rng.integers(n, size=seeds) if n > 1 else drawn
            d0 = test_data.rows[other]
            d0_structure = _block_structure(a0, d0, sensitive, causal) * (drawn != other)
            c_dom = domains[causal]
            b0[:, causal] = c_dom.sample(rng, seeds)
            same = (b0[:, fixed] == a0[:, fixed]).all(axis=1)
            b0[same, causal] = c_dom.sample_excluding(rng, a0[same, causal])
        pa, pb, live = _propose(spec, model, a0, b0, mutable, domains, rng, guided)
        evals = run.walk(pa, pb, live, d0, d0_structure, evals, cap, partner_rng)

    # invalidity repair over relaxed-only pairs
    invalid = list(run.invalid.values())
    both = np.array([(p.a, p.b) for p in invalid], dtype=np.int64).reshape(-1, 2, width)
    flags = run.index.partnered(both)
    labels = (run.label(both.reshape(-1, width))[1] & 1).tolist()
    for pair, la, lb, ok_a, ok_b in zip(invalid, labels[0::2], labels[1::2], flags[0::2], flags[1::2]):
        members = [m for m, keep in zip([(pair.a, la), (pair.b, lb)], (ok_a, ok_b)) if keep]
        found, failed = _find_true_partners(members, run.index, partner_rng)
        if found:
            run.ledger.repaired_pairs += 1
        for new_pair in found:
            run.keep(new_pair)
        run.ledger.failed_samples += failed + 2 - len(members)  # filtered: no partner

    reached = run.full()
    if not reached:
        log.warning("budget %d unreachable, produced %d samples", run.budget, len(run.samples))
    # the label cache goes before the samples' matrix is built beside their keys
    run.codes.clear()
    unique = _key_rows(run.samples, width)
    pairs = list(run.true_pairs.values())
    marks = set(_pair_keys(pairs, width))
    idi = np.fromiter(map(marks.__contains__, run.samples), bool, len(run.samples))
    return TestSuite(
        unique_samples=unique,
        idi_samples=list(map(tuple, unique[idi].tolist())),
        true_pairs=pairs,
        ledger=run.ledger,
        budget_reached=reached,
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
