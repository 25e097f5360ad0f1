"""Nonparametric comparison statistics for per-run metric samples.

Two-sided rank-sum p-values (exact by enumeration for small inputs, tie- and
continuity-corrected normal approximation otherwise) plus the common-language
effect size, combined under the joint significance rule: a difference counts
only when p < 0.05 and the effect size is at least 0.56 (or at most 0.44).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptySample, TooFewSamples

ALPHA = 0.05
EFFECT_HIGH = 0.56
EFFECT_LOW = 0.44
_EXACT_LIMIT = 100  # enumerate when |a| * |b| <= this


def _midranks(pooled: np.ndarray) -> np.ndarray:
    order = np.argsort(pooled, kind="mergesort")
    ranks = np.empty(len(pooled))
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _exact_two_sided_p(ranks2: np.ndarray, n1: int, observed2: int) -> float:
    """Exact p over all splits of the pooled sample.

    ranks2 are doubled midranks (integers even under ties); the p-value is the
    fraction of size-n1 subsets whose rank sum deviates from its mean by at
    least as much as the observed one.
    """
    n = len(ranks2)
    total2 = int(ranks2.sum())
    max_sum = int(ranks2.max()) * n1
    # counts[k][s]: number of k-subsets with doubled-rank-sum s
    counts = [np.zeros(max_sum + 1, dtype=np.float64) for _ in range(n1 + 1)]
    counts[0][0] = 1.0
    for r in ranks2.astype(int):
        for k in range(min(n1, n), 0, -1):
            counts[k][r:] += counts[k - 1][: max_sum + 1 - r]
    dist = counts[n1]
    n_subsets = dist.sum()
    mean2 = total2 * n1 / n
    dev = abs(observed2 - mean2)
    sums = np.arange(max_sum + 1)
    extreme = dist[np.abs(sums - mean2) >= dev - 1e-9].sum()
    return float(extreme / n_subsets)


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided p-value of the rank-sum test for samples a and b."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if len(x) < 2 or len(y) < 2:
        raise TooFewSamples("need at least two values per sample")
    n1, n2 = len(x), len(y)
    pooled = np.concatenate([x, y])
    ranks = _midranks(pooled)
    r1 = ranks[:n1].sum()

    if n1 * n2 <= _EXACT_LIMIT:
        ranks2 = np.rint(ranks * 2).astype(int)
        return min(1.0, _exact_two_sided_p(ranks2, n1, int(round(r1 * 2))))

    u1 = r1 - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    n = n1 + n2
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(tie_counts**3 - tie_counts))
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return 1.0
    z = (abs(u1 - mu) - 0.5) / math.sqrt(var)
    z = max(z, 0.0)
    return math.erfc(z / math.sqrt(2.0))


def vargha_delaney_a12(a: Sequence[float], b: Sequence[float]) -> float:
    """Probability that a value from a exceeds one from b, ties counted half."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if len(x) == 0 or len(y) == 0:
        raise EmptySample("both samples must be non-empty")
    more = np.sum(x[:, None] > y[None, :])
    ties = np.sum(x[:, None] == y[None, :])
    return float((more + 0.5 * ties) / (len(x) * len(y)))


@dataclass(frozen=True)
class ComparisonResult:
    p_value: float
    a12: float
    significant: bool
    direction: str  # "better" | "worse" | "none"


def joint_significance(p: float, a12: float) -> tuple[bool, str]:
    """Significant only when p < 0.05 and the effect size is non-trivial;
    the direction says whether the first sample is better (larger) or worse."""
    significant = p < ALPHA and (a12 >= EFFECT_HIGH or a12 <= EFFECT_LOW)
    if not significant:
        return False, "none"
    return True, "better" if a12 >= EFFECT_HIGH else "worse"


def compare(a: Sequence[float], b: Sequence[float]) -> ComparisonResult:
    """Rank-sum p-value and effect size combined under the joint rule."""
    p = mann_whitney_u(a, b)
    a12 = vargha_delaney_a12(a, b)
    significant, direction = joint_significance(p, a12)
    return ComparisonResult(p_value=p, a12=a12, significant=significant, direction=direction)
