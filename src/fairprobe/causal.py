"""Causal discovery over encoded tabular data and interventional effect ranking.

The graph is learned with a regression-based procedure in the linear
non-Gaussian family: variables are ordered by repeatedly extracting the most
exogenous one (scored by a pairwise non-Gaussianity contrast over regression
residuals), edge coefficients are then fitted by least squares in causal
order, and weak edges are pruned. The label column always enters last, so it
is a sink by construction.

Effect sizes between a sensitive feature and a directly caused non-sensitive
feature are estimated by do-interventions propagated through the fitted
linear structural model, using empirical residuals from sampled rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import (
    DegenerateColumn,
    EmptyDomain,
    InsufficientRows,
    NodeSetMismatch,
    NoDirectFeature,
    NotDirectlyRelevant,
    UnknownNode,
)

log = logging.getLogger(__name__)

DEFAULT_EDGE_THRESHOLD = 0.05

# constants of the maximum-entropy approximation of differential entropy
_K1 = 79.047
_K2 = 7.4129
_GAMMA = 0.37457


@dataclass
class CausalGraph:
    """Weighted DAG over features plus the label.

    weights[j, i] is the fitted coefficient of edge i -> j (0 when absent).
    topo_order holds node indices in causal order; the label is always last.
    """

    nodes: tuple[str, ...]
    weights: np.ndarray
    topo_order: tuple[int, ...]
    edge_threshold: float
    label: str

    def node_index(self, name: str) -> int:
        try:
            return self.nodes.index(name)
        except ValueError:
            raise UnknownNode(name) from None

    def adjacency(self) -> np.ndarray:
        return self.weights != 0.0

    def edge_weight(self, src: str, dst: str) -> float:
        return float(self.weights[self.node_index(dst), self.node_index(src)])

    def write_edges(self, path: str | Path) -> None:
        """One `src,dst,weight` line per edge, under that header."""
        lines = ["src,dst,weight\n"]
        for j, i in zip(*np.nonzero(self.weights)):
            lines.append(f"{self.nodes[i]},{self.nodes[j]},{float(self.weights[j, i])!r}\n")
        Path(path).write_text("".join(lines), encoding="utf-8")


@dataclass(frozen=True)
class CausalEffect:
    """Median bootstrapped interventional effect of one candidate feature."""

    feature: str
    effect: float
    raw_repeats: tuple[float, ...]


def _entropy(U: np.ndarray) -> np.ndarray:
    # maximum-entropy approximation, one value per standardized column
    return (
        (1.0 + np.log(2.0 * np.pi)) / 2.0
        - _K1 * (np.mean(np.log(np.cosh(U)), axis=0) - _GAMMA) ** 2
        - _K2 * np.mean(U * np.exp(-(U**2) / 2.0), axis=0) ** 2
    )


def _residual(xi: np.ndarray, xj: np.ndarray) -> np.ndarray:
    var = np.var(xj)
    if var < 1e-12:
        return xi.copy()
    return xi - (np.cov(xi, xj, bias=True)[0, 1] / var) * xj


def _standardize(X: np.ndarray) -> np.ndarray:
    """Columns scaled to mean 0 and variance 1; a constant column becomes 0."""
    sd = X.std(axis=0)
    return np.divide(X - X.mean(axis=0), sd, out=np.zeros_like(X), where=sd >= 1e-12)


def _exogeneity_order(X: np.ndarray) -> list[int]:
    """Causal order of columns: repeatedly pick the most exogenous variable,
    the one with the least sum over the others j of min(0, H(x_j) + H(r_i|j)
    - H(x_i) - H(r_j|i))^2, r_i|j being the residual of x_i regressed on x_j."""
    remaining = list(range(X.shape[1]))
    work = X.astype(float).copy()
    order: list[int] = []
    while remaining:
        Z = _standardize(work[:, remaining])
        Z -= Z.mean(axis=0)  # centred exactly, as np.cov centres its input
        cov = Z.T @ Z / len(Z)
        var = np.diag(cov)
        # slope of column i on column j; a constant regressor leaves x_i as is
        slope = np.divide(cov, var, out=np.zeros_like(cov), where=var >= 1e-12)
        # res_h[i, j] = H(r_i|j), from one n x r block of residuals per i
        res_h = np.array([_entropy(_standardize(Z[:, [i]] - Z * s)) for i, s in enumerate(slope)])
        h = _entropy(Z)
        diff = (h[None, :] + res_h) - (h[:, None] + res_h.T)
        np.fill_diagonal(diff, 0.0)
        m = remaining[int(np.argmin((np.minimum(diff, 0.0) ** 2).sum(axis=1)))]
        order.append(m)
        for i in remaining:
            if i != m:
                work[:, i] = _residual(work[:, i], work[:, m])
        remaining.remove(m)
    return order


def discover_graph(
    data: Dataset,
    sensitive: str,
    seed: int = 0,
    edge_threshold: float = DEFAULT_EDGE_THRESHOLD,
) -> CausalGraph:
    """Learn the weighted DAG over features plus label from training rows.

    Zero-variance columns are dropped from the regressions (kept as isolated
    nodes) with a warning. The result is deterministic for fixed data; the
    seed parameter is accepted for interface uniformity.
    """
    del seed  # the ordering and the least-squares fits are deterministic
    data.schema.index(sensitive)  # raises UnknownFeature for bad input
    n_features = data.schema.width
    if data.is_empty or data.n_rows < max(10 * n_features, 100):
        raise InsufficientRows(
            f"need at least {max(10 * n_features, 100)} rows, have {data.n_rows}"
        )

    nodes = data.schema.feature_names + (data.schema.label_name,)
    M = np.column_stack([data.rows, data.labels]).astype(float)
    sds = M.std(axis=0)
    valid = sds > 1e-12
    for idx in np.nonzero(~valid)[0]:
        log.warning("zero-variance column %r dropped from causal discovery", nodes[idx])

    label_idx = len(nodes) - 1
    feature_cols = [j for j in range(n_features) if valid[j]]
    degenerate_features = [j for j in range(n_features) if not valid[j]]

    ordered = [feature_cols[k] for k in _exogeneity_order(M[:, feature_cols])]
    # degenerate columns are edge-free; list them first, label is forced last
    topo = degenerate_features + ordered + [label_idx]

    B = np.zeros((len(nodes), len(nodes)))
    fitted = [j for j in topo if valid[j]]
    for pos, j in enumerate(fitted):
        preds = fitted[:pos]
        if not preds:
            continue
        A = np.column_stack([np.ones(M.shape[0]), M[:, preds]])
        coef, *_ = np.linalg.lstsq(A, M[:, j], rcond=None)
        B[j, preds] = coef[1:]

    # prune on the standardized scale so the threshold is unit-free
    scale = np.divide(sds[None, :], sds[:, None], out=np.zeros_like(B), where=sds[:, None] > 0)
    B[np.abs(B * scale) < edge_threshold] = 0.0

    return CausalGraph(
        nodes=nodes,
        weights=B,
        topo_order=tuple(topo),
        edge_threshold=edge_threshold,
        label=data.schema.label_name,
    )


def direct_features(graph: CausalGraph, sensitive: str, label: str) -> list[str]:
    """Non-sensitive features directly caused by `sensitive` that sit on a
    directed path from it to the label. Returned in node order."""
    s = graph.node_index(sensitive)
    l = graph.node_index(label)
    adj = graph.adjacency()

    # ancestors of the label (nodes with a directed path into it)
    can_reach = {l}
    frontier = [l]
    while frontier:
        j = frontier.pop()
        for i in np.nonzero(adj[j])[0]:
            if i not in can_reach:
                can_reach.add(int(i))
                frontier.append(int(i))

    out = []
    for j in np.nonzero(adj[:, s])[0]:
        j = int(j)
        if j in (s, l):
            continue
        if j in can_reach:
            out.append(graph.nodes[j])
    return out


def _interventional_label_probabilities(
    weights: np.ndarray,
    residuals: np.ndarray,
    V: np.ndarray,
    topo: Sequence[int],
    node: int,
    values: Sequence[float],
    label_idx: int,
) -> np.ndarray:
    """p(y=1 | do(node=v)) over the sampled rows, for each v in `values`.

    The intervened column is overwritten, every downstream node is recomputed
    through the fitted linear structural model with each row's own residual,
    and the label node's structural value is thresholded at 0.5, for all
    values at once in one (values x rows x nodes) array."""
    out = np.repeat(V[None], len(values), axis=0)
    out[:, :, node] = np.asarray(values, dtype=float)[:, None]
    for j in topo[topo.index(node) + 1 :]:
        out[:, :, j] = out @ weights[j] + residuals[:, j]
    return np.mean(out[:, :, label_idx] >= 0.5, axis=1)


def _effect_on_rows(
    graph: CausalGraph,
    data: Dataset,
    sensitive: str,
    candidate: str,
    row_idx: np.ndarray,
) -> float:
    s = graph.node_index(sensitive)
    c = graph.node_index(candidate)
    label_idx = graph.node_index(graph.label)
    theta = abs(float(graph.weights[c, s]))

    if data.domains is None:
        raise EmptyDomain("dataset has no observed domains")
    v_alpha = data.domains[data.schema.index(sensitive)].as_tuple()
    v_beta = data.domains[data.schema.index(candidate)].as_tuple()
    if not v_alpha or not v_beta:
        raise EmptyDomain("empty value domain")

    V = np.column_stack([data.rows[row_idx], data.labels[row_idx]]).astype(float)
    # residuals of the pruned model; recomputing all downstream nodes with
    # these reproduces the observed values exactly when nothing is intervened
    residuals = V - V @ graph.weights.T
    args = (graph.weights, residuals, V, list(graph.topo_order))
    p_alpha = _interventional_label_probabilities(*args, s, v_alpha, label_idx)
    p_beta = _interventional_label_probabilities(*args, c, v_beta, label_idx)
    total = np.abs(p_alpha[:, None] - p_beta[None, :]).sum()
    return theta * float(total) / (len(v_alpha) * len(v_beta))


def _require_direct(graph: CausalGraph, sensitive: str, candidate: str) -> None:
    if candidate not in direct_features(graph, sensitive, graph.label):
        raise NotDirectlyRelevant(
            f"{candidate!r} is not a direct causally relevant feature of {sensitive!r}"
        )


def causal_effect(
    graph: CausalGraph,
    data: Dataset,
    sensitive: str,
    candidate: str,
    m: int,
    seed: int = 0,
) -> float:
    """Coefficient-weighted mean absolute gap between the interventional label
    probabilities of the sensitive feature and the candidate, over m sampled rows."""
    _require_direct(graph, sensitive, candidate)
    data.require_rows("effect estimation data")
    if m <= 0:
        raise ValueError("m must be positive")
    if m > data.n_rows:
        raise InsufficientRows(f"m={m} exceeds available rows {data.n_rows}")
    rng = np.random.default_rng(seed)
    row_idx = rng.permutation(data.n_rows)[:m]
    return _effect_on_rows(graph, data, sensitive, candidate, row_idx)


def bootstrap_effect(
    graph: CausalGraph,
    data: Dataset,
    sensitive: str,
    candidate: str,
    m: int,
    repeats: int,
    seed: int = 0,
) -> CausalEffect:
    """Median effect over `repeats` bootstrap draws of m rows with replacement.

    For an even number of repeats the lower of the two middle values is taken.
    """
    _require_direct(graph, sensitive, candidate)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    data.require_rows("effect estimation data")
    values = [
        _effect_on_rows(
            graph, data, sensitive, candidate,
            np.random.default_rng(stream).integers(0, data.n_rows, size=m),
        )
        for stream in np.random.SeedSequence(seed).spawn(repeats)
    ]
    ordered = sorted(values)
    median = ordered[(len(ordered) - 1) // 2]
    return CausalEffect(feature=candidate, effect=median, raw_repeats=tuple(values))


def select_causal_feature(
    effects: Sequence[CausalEffect], order: Sequence[str] | None = None
) -> str:
    """Feature with the largest median effect; ties go to the earliest feature
    in `order` (or in list position when no order is given)."""
    if not effects:
        raise NoDirectFeature("no directly relevant non-sensitive features")
    if order is not None:
        rank = {name: k for k, name in enumerate(order)}
        effects = sorted(effects, key=lambda e: rank.get(e.feature, len(rank)))
    return max(effects, key=lambda e: e.effect).feature  # the first of equal maxima


def select_correlation_feature(data: Dataset, sensitive: str) -> str:
    """Plain correlation-ranking baseline: the non-sensitive feature with the
    largest |Pearson r| against the sensitive column; ties to the lowest index."""
    data.require_rows("correlation ranking data")
    if data.schema.width < 2:
        raise ValueError("need at least two features to rank")
    s = data.schema.index(sensitive)
    col_s = data.rows[:, s].astype(float)
    sd_s = col_s.std()
    if sd_s < 1e-12:
        raise DegenerateColumn(f"sensitive column {sensitive!r} has zero variance")
    centered_s = col_s - col_s.mean()
    best_name, best_r = None, -1.0
    for j, name in enumerate(data.schema.feature_names):
        if j == s:
            continue
        col = data.rows[:, j].astype(float)
        sd = col.std()
        r = 0.0 if sd < 1e-12 else abs(
            float(np.mean(centered_s * (col - col.mean())) / (sd_s * sd))
        )
        if r > best_r:
            best_name, best_r = name, r
    return best_name


def graph_stability(graphs: Sequence[CausalGraph]) -> float:
    """Mean Hamming distance between binarized adjacency matrices over all
    unordered graph pairs."""
    if len(graphs) < 2:
        raise ValueError("need at least two graphs")
    nodes = graphs[0].nodes
    for g in graphs[1:]:
        if g.nodes != nodes:
            raise NodeSetMismatch("graphs are over different node sets")
    dists = [int(np.sum(a != b)) for a, b in combinations([g.adjacency() for g in graphs], 2)]
    return sum(dists) / len(dists)
