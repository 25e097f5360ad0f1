"""Perturbation-based test generation with optional causal guidance.

Three base strategies (uniform random, single-feature sweeps, gradient-guided
steps) share one engine. In base mode a seed pair differs only on the
sensitive feature and every non-sensitive feature may be perturbed. In
causally guided mode the pair may differ on the sensitive feature and its
most causally tied non-sensitive partner; both stay fixed during perturbation,
perturbed samples are re-paired with test rows when possible, and pairs that
satisfy only the relaxed criterion are repaired against the test data at the
end. Every perturbation step changes the same feature(s) of both pair members
to the same new value, so the within-pair difference never leaks outside the
fixed set.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .data import Dataset, ValueDomain
from .errors import ConfigInvalid, EmptyData, IndexCollision, WidthMismatch
from .models import ModelUnderTest, input_gradient

log = logging.getLogger(__name__)

KIND_RANDOM = "random"
KIND_SG_LITE = "sg_lite"
KIND_ADF_LITE = "adf_lite"
_KINDS = (KIND_RANDOM, KIND_SG_LITE, KIND_ADF_LITE)

MODE_BASE = "base"
MODE_CAUSALFT = "causalft"

# random-walk steps the random strategy spends on one seed pair before
# rotating to a new seed; each step changes one feature of both members
_RANDOM_STEPS = 8


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
    mode: str
    budget_reached: bool
    used_fallback: bool = False

    def sample_matrix(self) -> np.ndarray:
        return np.asarray(self.unique_samples, dtype=np.int64).reshape(
            len(self.unique_samples), -1
        )


def _differs_only_at(a: np.ndarray, b: np.ndarray, idx: int) -> bool:
    """The members differ at idx and nowhere else."""
    return (a != b).nonzero()[0].tolist() == [idx]


def _relaxed_structure(a: np.ndarray, b: np.ndarray, s: int, c: int) -> bool:
    """The members differ somewhere, and only inside {s, c}."""
    diff = (a != b).nonzero()[0].tolist()
    return bool(diff) and all(i == s or i == c for i in diff)


def _check_pair_width(pair: Pair, model: ModelUnderTest) -> None:
    if len(pair.a) != model.input_width:
        raise WidthMismatch(
            f"pair width {len(pair.a)} != model input width {model.input_width}"
        )


def _labelled_apart(pair: Pair, model: ModelUnderTest) -> bool:
    labels, _ = model.predict_batch(np.array([pair.a, pair.b], dtype=float))
    return labels[0] != labels[1]


def is_true_idi(pair: Pair, model: ModelUnderTest, sensitive: int) -> bool:
    """True iff the members differ exactly at the sensitive index and the model
    labels them differently."""
    _check_pair_width(pair, model)
    a, b = np.asarray(pair.a), np.asarray(pair.b)
    return _differs_only_at(a, b, sensitive) and _labelled_apart(pair, model)


def is_relaxed_idi(pair: Pair, model: ModelUnderTest, sensitive: int, causal: int) -> bool:
    """True iff the members agree outside {sensitive, causal}, differ inside it,
    and the model labels them differently."""
    if sensitive == causal:
        raise IndexCollision("sensitive and causal feature indices must differ")
    _check_pair_width(pair, model)
    a, b = np.asarray(pair.a), np.asarray(pair.b)
    return _relaxed_structure(a, b, sensitive, causal) and _labelled_apart(pair, model)


class _TestIndex:
    """Test rows keyed for membership checks and true-definition partner
    search, with every row's predicted label from one batch query."""

    def __init__(self, test_data: Dataset, model: ModelUnderTest, sensitive: int):
        self.rows = test_data.rows
        self.sensitive = sensitive
        self.labels, _ = model.predict_batch(self.rows.astype(float))
        self.label_of: dict[tuple, int] = {}
        self.buckets: dict[tuple, list[int]] = {}
        for i, (key, label) in enumerate(
            zip(map(tuple, self.rows.tolist()), self.labels.tolist())
        ):
            self.label_of.setdefault(key, label)
            proj = key[:sensitive] + key[sensitive + 1 :]
            self.buckets.setdefault(proj, []).append(i)

    def contains(self, key: tuple) -> bool:
        return key in self.label_of

    def find_partner(self, key: tuple, label: int, rng: np.random.Generator) -> int | None:
        """A random test row that differs from the keyed sample only at the
        sensitive index and carries a different predicted label, or None."""
        proj = key[: self.sensitive] + key[self.sensitive + 1 :]
        bucket = self.buckets.get(proj)
        if not bucket:
            return None
        eligible = [
            i
            for i in bucket
            if self.rows[i, self.sensitive] != key[self.sensitive] and self.labels[i] != label
        ]
        if not eligible:
            return None
        return int(eligible[rng.integers(len(eligible))])


def _find_true_partners(
    pair_members: list[tuple[tuple, int]],
    index: _TestIndex,
    rng: np.random.Generator,
) -> tuple[list[Pair], int]:
    """Pair each (sample key, label) with a test row under the true definition.

    Returns the formed pairs and the count of members with no eligible partner.
    """
    pairs, failed = [], 0
    for key, label in pair_members:
        partner = index.find_partner(key, label, rng)
        if partner is None:
            failed += 1
            continue
        pairs.append(Pair(a=key, b=tuple(index.rows[partner].tolist())))
    return pairs, failed


class _Run:
    """Mutable state of one generation run."""

    def __init__(self, model: ModelUnderTest, index: _TestIndex, budget: int):
        self.model = model
        self.index = index
        self.budget = budget
        self.samples: dict[tuple, None] = {}
        self.idi_marks: set[tuple] = set()
        self.true_pairs: list[Pair] = []
        self.pair_keys: set[tuple] = set()
        self.invalid: list[Pair] = []
        self.invalid_keys: set[tuple] = set()
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
        cache = self._label_cache
        if ka not in cache or kb not in cache:
            self.label((ka, kb))
        return cache[ka], cache[kb]

    def record_true_pair(self, pair: Pair) -> bool:
        key = pair.key()
        if key in self.pair_keys:
            return False
        self.pair_keys.add(key)
        self.true_pairs.append(pair)
        self.idi_marks.add(pair.a)
        self.idi_marks.add(pair.b)
        return True

    def full(self) -> bool:
        return len(self.samples) >= self.budget


def _iter_candidates(
    spec: GeneratorSpec,
    model: ModelUnderTest,
    a0: np.ndarray,
    b0: np.ndarray,
    mutable: list[int],
    domains: Sequence[ValueDomain],
    rng: np.random.Generator,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Perturbed pairs derived from one seed pair, per the strategy kind.

    Both members receive identical changes, so their difference set is frozen.
    """
    limit = spec.max_attempts_per_pair
    if not mutable:
        return
    if spec.kind == KIND_RANDOM:
        # one uniformly chosen feature per step, walking away from the seed
        a, b = a0.copy(), b0.copy()
        for _ in range(min(limit, _RANDOM_STEPS)):
            idx = mutable[int(rng.integers(len(mutable)))]
            dom = domains[idx]
            if dom.size == 1:
                continue
            v = dom.sample_excluding(rng, int(a[idx]))
            a[idx] = v
            b[idx] = v
            yield a.copy(), b.copy()
    elif spec.kind == KIND_SG_LITE:
        count = 0
        for idx in mutable:
            for v in domains[idx].as_tuple():
                if v == a0[idx]:
                    continue
                a = a0.copy()
                a[idx] = v
                b = b0.copy()
                b[idx] = v
                yield a, b
                count += 1
                if count >= limit:
                    return
    else:  # adf_lite
        a, b = a0.copy(), b0.copy()
        ga, gb = input_gradient(model, np.stack([a, b]))
        direction = np.sign(ga - gb).astype(int)
        for idx in mutable:
            if direction[idx]:
                a[idx] = domains[idx].clamp(int(a[idx]) + spec.step_size * direction[idx])
        b[mutable] = a[mutable]
        yield a.copy(), b.copy()
        for _ in range(min(spec.local_steps, limit - 1)):
            ga, gb = input_gradient(model, np.stack([a, b]))
            weight = 1.0 / (np.abs(ga[mutable]) + np.abs(gb[mutable]) + 1e-9)
            probs = weight / weight.sum()
            idx = mutable[int(rng.choice(len(mutable), p=probs))]
            sign = 1 if rng.integers(2) else -1
            v = domains[idx].clamp(int(a[idx]) + sign * spec.step_size)
            if v == a[idx]:
                v = domains[idx].clamp(int(a[idx]) - sign * spec.step_size)
            a[idx] = v
            b[idx] = v
            yield a.copy(), b.copy()


def _keyed(pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> list[tuple]:
    """(a, b, key of a, key of b) for each pair; the keys index a run's samples and labels."""
    return [(a, b, tuple(a.tolist()), tuple(b.tolist())) for a, b in pairs]


def _consider_base(
    run: _Run, a: np.ndarray, b: np.ndarray, ka: tuple, kb: tuple, sensitive: int
) -> None:
    run.bank(ka)
    run.bank(kb)
    if ka == kb:
        return
    la, lb = run.labels_of(ka, kb)
    if la == lb or not _differs_only_at(a, b, sensitive):
        return
    if run.index.contains(ka) or run.index.contains(kb):
        if run.record_true_pair(Pair(a=ka, b=kb)):
            run.ledger.pairs_without_relaxation += 1


def _consider_causalft(
    run: _Run,
    a: np.ndarray,
    b: np.ndarray,
    ka: tuple,
    kb: tuple,
    sensitive: int,
    causal: int,
    rng: np.random.Generator,
) -> None:
    run.bank(ka)
    run.bank(kb)
    if ka == kb:
        return
    la, lb = run.labels_of(ka, kb)
    a_in = run.index.contains(ka)
    b_in = run.index.contains(kb)
    relaxed_valid = la != lb and _relaxed_structure(a, b, sensitive, causal)

    if relaxed_valid and (a_in or b_in):
        pair = Pair(a=ka, b=kb)
        key = pair.key()
        if _differs_only_at(a, b, sensitive):
            if run.record_true_pair(pair):
                run.ledger.pairs_with_relaxation += 1
        elif key not in run.invalid_keys and key not in run.pair_keys:
            run.invalid_keys.add(key)
            run.invalid.append(pair)
            run.ledger.pairs_with_relaxation += 1
            run.ledger.invalid_pairs += 1
        return

    if not a_in and not b_in:
        # only a perturbed sample and a test row may form a counted pair
        found, _failed = _find_true_partners([(ka, la), (kb, lb)], run.index, rng)
        for pair in found:
            if run.record_true_pair(pair):
                run.bank(pair.b)
                run.ledger.pairs_with_relaxation += 1


def _start(
    model: ModelUnderTest,
    test_data: Dataset,
    sensitive: int,
    budget: int,
    seed: int,
    domains: Sequence[ValueDomain] | None,
) -> tuple[Sequence[ValueDomain], np.random.Generator, _Run]:
    """(domains, rng, fresh run state) of one generation run; the test split's
    observed domains stand in for missing `domains`."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    test_data.require_rows("test data")
    if domains is None:
        if test_data.domains is None:
            raise EmptyData("test data has no rows")
        domains = test_data.domains
    index = _TestIndex(test_data, model, sensitive)
    return domains, np.random.default_rng(seed), _Run(model, index, budget)


def _finish(run: _Run, mode: str) -> TestSuite:
    if not run.full():
        log.warning("budget %d unreachable, produced %d samples", run.budget, len(run.samples))
    unique = list(run.samples.keys())
    idi = [k for k in unique if k in run.idi_marks]
    return TestSuite(
        unique_samples=unique,
        idi_samples=idi,
        true_pairs=run.true_pairs,
        ledger=run.ledger,
        mode=mode,
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
) -> TestSuite:
    """Baseline flow under the true criterion: seed pairs differ only on the
    sensitive feature, every non-sensitive feature may be perturbed, unique
    samples are collected until the budget or attempt exhaustion.

    `domains` should be the frozen full-dataset domains; the test split's own
    observed domains are used when omitted.
    """
    domains, rng, run = _start(model, test_data, sensitive, budget, seed, domains)
    mutable = [j for j in range(test_data.width) if j != sensitive]
    s_dom = domains[sensitive]

    evals = 0
    cap = max(50 * budget, 2000)
    n = test_data.n_rows
    while not run.full() and evals < cap:
        a = test_data.rows[rng.integers(n)].copy()
        evals += 1
        if s_dom.size == 1:
            run.bank(tuple(a.tolist()))
            continue
        b = a.copy()
        b[sensitive] = s_dom.sample_excluding(rng, int(a[sensitive]))
        # one label query for the seed pair and all its candidates; drawing
        # candidates that go unused is harmless, as rng is not read after the loop
        seed_pair, *candidates = pairs = _keyed(
            [(a, b), *_iter_candidates(spec, model, a, b, mutable, domains, rng)]
        )
        run.label(k for pair in pairs for k in pair[2:])
        _consider_base(run, *seed_pair, sensitive)
        if run.full():
            break
        for pair in candidates:
            evals += 1
            _consider_base(run, *pair, sensitive)
            if run.full() or evals >= cap:
                break
    return _finish(run, MODE_BASE)


def run_causalft(
    spec: GeneratorSpec,
    model: ModelUnderTest,
    test_data: Dataset,
    sensitive: int,
    causal: int | None,
    budget: int,
    seed: int,
    domains: Sequence[ValueDomain] | None = None,
) -> TestSuite:
    """Causally guided flow: pairs may differ on {sensitive, causal}, those two
    features stay fixed during perturbation, perturbed samples are re-paired
    with the test data, and relaxed-only pairs are repaired at the end.

    Passing causal=None (no directly relevant feature found) degrades to the
    base flow with the fallback flag set.
    """
    if causal is None:
        suite = run_base_generator(
            spec, model, test_data, sensitive, budget, seed, domains=domains
        )
        suite.mode = MODE_CAUSALFT
        suite.used_fallback = True
        return suite
    if causal == sensitive:
        raise IndexCollision("causal feature must differ from the sensitive feature")
    domains, rng, run = _start(model, test_data, sensitive, budget, seed, domains)
    mutable = [j for j in range(test_data.width) if j not in (sensitive, causal)]
    s_dom, c_dom = domains[sensitive], domains[causal]

    evals = 0
    cap = max(50 * budget, 2000)
    n = test_data.n_rows
    while not run.full() and evals < cap:
        i = int(rng.integers(n))
        j = int(rng.integers(n)) if n > 1 else i
        a = test_data.rows[i].copy()
        drawn_b = test_data.rows[j].copy()
        evals += 1

        ka, kd = tuple(a.tolist()), tuple(drawn_b.tolist())
        la, lb = run.labels_of(ka, kd)
        if (
            i != j
            and _relaxed_structure(a, drawn_b, sensitive, causal)
            and la != lb
        ):
            # the drawn pair already meets the relaxed criterion: keep it as-is
            _consider_causalft(run, a, drawn_b, ka, kd, sensitive, causal, rng)
            continue

        if s_dom.size == 1 and c_dom.size == 1:
            run.bank(ka)
            continue
        b = a.copy()
        b[sensitive] = s_dom.sample_excluding(rng, int(a[sensitive]))
        b[causal] = c_dom.sample(rng)
        if b[sensitive] == a[sensitive] and b[causal] == a[causal]:
            b[causal] = c_dom.sample_excluding(rng, int(a[causal]))
        kb = tuple(b.tolist())
        # one perturbation of the rebuilt pair per drawn seed: the guided loop
        # rotates seeds faster than a base generator's own multi-step search.
        # It is labelled with b in one query: drawing it first is safe, as the
        # seed pair's check reads no rng (a is a test row), unless the pair
        # fills the run, since the repair pass reads rng next
        run.bank(ka)
        run.bank(kb)
        candidates = [] if run.full() else _keyed(
            islice(_iter_candidates(spec, model, a, b, mutable, domains, rng), 1)
        )
        run.label([kb, *(k for pair in candidates for k in pair[2:])])
        _consider_causalft(run, a, b, ka, kb, sensitive, causal, rng)
        for pair in candidates:
            evals += 1
            _consider_causalft(run, *pair, sensitive, causal, rng)

    # invalidity repair over relaxed-only pairs
    for pair in run.invalid:
        la, lb = run.labels_of(pair.a, pair.b)
        found, failed = _find_true_partners([(pair.a, la), (pair.b, lb)], run.index, rng)
        if found:
            run.ledger.repaired_pairs += 1
            for new_pair in found:
                if run.record_true_pair(new_pair):
                    run.bank(new_pair.b)
        run.ledger.failed_samples += failed
    return _finish(run, MODE_CAUSALFT)
