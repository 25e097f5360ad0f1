import numpy as np
import pytest

from conftest import SEM_TRUE_EDGES, make_effect_fixture, make_sem_dataset
from helpers import is_acyclic

from fairprobe.causal import (
    CausalEffect,
    CausalGraph,
    _exogeneity_order,
    _interventional_label_probabilities,
    _residual,
    bootstrap_effect,
    causal_effect,
    direct_features,
    discover_graph,
    graph_stability,
    select_causal_feature,
    select_correlation_feature,
)
from fairprobe.data import Schema, from_arrays
from fairprobe.errors import (
    DegenerateColumn,
    InsufficientRows,
    NoDirectFeature,
    NotDirectlyRelevant,
    NodeSetMismatch,
    UnknownNode,
)

# frozen output of the exhaustive do-intervention oracle (see
# TestCausalEffect.oracle) on the hand-built three-node fixture
EFFECT_FIXTURE_ORACLE = 0.35125


def graph_of(nodes, edges, label):
    """Hand-built graph; edges are (src, dst, weight) with nodes in topo order."""
    B = np.zeros((len(nodes), len(nodes)))
    index = {n: i for i, n in enumerate(nodes)}
    for src, dst, w in edges:
        B[index[dst], index[src]] = w
    return CausalGraph(
        nodes=tuple(nodes),
        weights=B,
        topo_order=tuple(range(len(nodes))),
        edge_threshold=0.05,
        label=label,
    )


class TestDiscovery:
    def test_two_variable_chain_recovery(self):
        # x1 -> x2 with coefficient 2.0, x2 -> x3 with -1.5, uniform noise
        rng = np.random.default_rng(0)
        n = 5000
        x1 = np.rint(rng.uniform(0, 10, n))
        x2 = np.rint(2.0 * x1 + rng.uniform(-3, 3, n))
        x3 = np.rint(-1.5 * x2 + rng.uniform(-4, 4, n))
        schema = Schema(
            ("x1", "x2", "x3"), ("x1",), "y",
            {"x1": "integer", "x2": "integer", "x3": "integer"},
        )
        labels = (x3 > np.median(x3)).astype(int)
        ds = from_arrays(np.column_stack([x1, x2, x3]), labels, schema)
        graph = discover_graph(ds, "x1", seed=0)
        assert abs(graph.edge_weight("x1", "x2") - 2.0) <= 0.2
        assert abs(graph.edge_weight("x2", "x3") - (-1.5)) <= 0.2

    def test_independent_columns_no_edges(self):
        rng = np.random.default_rng(7)
        rows = np.rint(rng.uniform(0, 20, size=(5000, 5))).astype(int)
        labels = rng.integers(0, 2, 5000)
        schema = Schema(
            tuple(f"u{i}" for i in range(5)), ("u0",), "y",
            {f"u{i}": "integer" for i in range(5)},
        )
        graph = discover_graph(from_arrays(rows, labels, schema), "u0")
        feature_block = graph.weights[:5, :5]
        assert np.count_nonzero(feature_block) == 0

    def test_acyclic_and_label_sink(self, demo_split):
        train_data, _ = demo_split
        graph = discover_graph(train_data, "gender")
        assert is_acyclic(graph)
        label_idx = graph.node_index(graph.label)
        assert np.count_nonzero(graph.weights[:, label_idx]) == 0
        assert graph.topo_order[-1] == label_idx

    def test_insufficient_rows(self):
        schema = Schema(("a", "b"), (), "y", {"a": "integer", "b": "integer"})
        rows = np.arange(20).reshape(-1, 2)
        ds = from_arrays(rows, np.tile([0, 1], 5), schema)
        with pytest.raises(InsufficientRows):
            discover_graph(ds, "a")

    def test_degenerate_column_dropped_not_fatal(self, caplog):
        rng = np.random.default_rng(1)
        rows = np.column_stack(
            [np.full(300, 4), np.rint(rng.uniform(0, 9, 300))]
        ).astype(int)
        schema = Schema(("const", "b"), (), "y", {"const": "integer", "b": "integer"})
        ds = from_arrays(rows, rng.integers(0, 2, 300), schema)
        with caplog.at_level("WARNING"):
            graph = discover_graph(ds, "b")
        assert "zero-variance" in caplog.text
        const = graph.node_index("const")
        assert np.count_nonzero(graph.weights[const]) == 0
        assert np.count_nonzero(graph.weights[:, const]) == 0

    def test_edge_export_round_trip(self, tmp_path):
        graph = graph_of(("a", "b", "y"), [("a", "b", 1.25), ("b", "y", -0.5)], "y")
        path = tmp_path / "edges.csv"
        graph.write_edges(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "src,dst,weight"
        parsed = {tuple(l.split(",")[:2]): float(l.split(",")[2]) for l in lines[1:]}
        assert parsed == {("a", "b"): 1.25, ("b", "y"): -0.5}


def pairwise_exogeneity_order(X):
    """The per-pair form of `_exogeneity_order`: a double loop over column
    pairs with one residual and four entropies per pair."""

    def entropy(u):
        return (
            (1.0 + np.log(2.0 * np.pi)) / 2.0
            - 79.047 * (np.mean(np.log(np.cosh(u))) - 0.37457) ** 2
            - 7.4129 * np.mean(u * np.exp(-(u**2) / 2.0)) ** 2
        )

    def standardize(x):
        sd = np.std(x)
        return np.zeros_like(x) if sd < 1e-12 else (x - np.mean(x)) / sd

    remaining = list(range(X.shape[1]))
    work = X.astype(float).copy()
    order = []
    while remaining:
        scores = []
        for i in remaining:
            xi = standardize(work[:, i])
            total = 0.0
            for j in remaining:
                if j != i:
                    xj = standardize(work[:, j])
                    diff = (entropy(xj) + entropy(standardize(_residual(xi, xj)))) - (
                        entropy(xi) + entropy(standardize(_residual(xj, xi)))
                    )
                    total += min(0.0, diff) ** 2
            scores.append(-total)
        m = remaining[int(np.argmax(scores))]
        order.append(m)
        for i in remaining:
            if i != m:
                work[:, i] = _residual(work[:, i], work[:, m])
        remaining.remove(m)
    return order


class TestExogeneityOrder:
    def test_matches_pairwise_loop_on_demo_data(self, demo_dataset):
        X = demo_dataset.rows.astype(float)
        assert _exogeneity_order(X) == pairwise_exogeneity_order(X)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_pairwise_loop_on_non_gaussian_sem(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 500, 5
        noise = rng.uniform(-1.0, 1.0, (n, d)) ** 3
        B = np.tril(rng.normal(size=(d, d)), -1)
        X = (noise @ np.linalg.inv(np.eye(d) - B).T)[:, rng.permutation(d)]
        # an exact copy of column 1 turns constant once column 1 is regressed out
        X = np.column_stack([X, X[:, 1]])
        assert np.std(_residual(X[:, -1], X[:, 1])) < 1e-12
        assert _exogeneity_order(X) == pairwise_exogeneity_order(X)


class TestBatchedInterventions:
    @staticmethod
    def per_value(weights, residuals, V, topo, node, values, label_idx):
        """One propagation through the structural model per intervened value."""
        probs = []
        for value in values:
            out = V.copy()
            out[:, node] = value
            for j in topo[topo.index(node) + 1 :]:
                out[:, j] = out @ weights[j] + residuals[:, j]
            probs.append(np.mean(out[:, label_idx] >= 0.5))
        return np.array(probs)

    def test_matches_per_value_loop(self, demo_split):
        train_data, _ = demo_split
        graph = discover_graph(train_data, "gender")
        label_idx = graph.node_index(graph.label)
        rng = np.random.default_rng(3)
        for _ in range(3):
            rows = rng.integers(0, train_data.n_rows, 200)
            V = np.column_stack([train_data.rows[rows], train_data.labels[rows]]).astype(float)
            args = (graph.weights, V - V @ graph.weights.T, V, list(graph.topo_order))
            for node in range(train_data.width):
                values = train_data.domains[node].as_tuple()
                assert np.array_equal(
                    _interventional_label_probabilities(*args, node, values, label_idx),
                    self.per_value(*args, node, values, label_idx),
                )


class TestDirectFeatures:
    def test_mediator_chain_excludes_indirect(self):
        # s -> m -> g -> label and m -> label: only m is a direct child of s
        graph = graph_of(
            ("s", "m", "g", "label"),
            [("s", "m", 0.8), ("m", "g", 0.5), ("g", "label", 0.3), ("m", "label", 0.4)],
            "label",
        )
        assert direct_features(graph, "s", "label") == ["m"]

    def test_no_path_to_label_empty(self):
        graph = graph_of(("s", "a", "label"), [("s", "a", 0.9)], "label")
        assert direct_features(graph, "s", "label") == []

    def test_chain_returns_first_hop_only(self):
        graph = graph_of(
            ("s", "a", "b", "label"),
            [("s", "a", 1.0), ("a", "b", 1.0), ("b", "label", 1.0)],
            "label",
        )
        assert direct_features(graph, "s", "label") == ["a"]

    def test_unknown_node(self):
        graph = graph_of(("s", "label"), [], "label")
        with pytest.raises(UnknownNode):
            direct_features(graph, "nope", "label")


class TestCausalEffect:
    @staticmethod
    def oracle(dataset):
        """Exhaustive do-intervention enumeration, straight-line for the
        three-node fixture (coefficients 1.0, 0.25, 0.45)."""
        x0 = dataset.rows[:, 0].astype(float)
        x1 = dataset.rows[:, 1].astype(float)
        y = dataset.labels.astype(float)
        e1 = x1 - 1.0 * x0
        ey = y - 0.25 * x0 - 0.45 * x1
        p_s = []
        for v in (0, 1):
            x1p = 1.0 * v + e1
            p_s.append(float(np.mean(0.25 * v + 0.45 * x1p + ey >= 0.5)))
        p_c = []
        for w in (0, 1):
            p_c.append(float(np.mean(0.25 * x0 + 0.45 * w + ey >= 0.5)))
        return 1.0 * sum(abs(a - b) for a in p_s for b in p_c) / 4.0

    def test_matches_enumeration_oracle(self):
        graph, dataset = make_effect_fixture()
        expected = self.oracle(dataset)
        assert expected == pytest.approx(EFFECT_FIXTURE_ORACLE)
        value = causal_effect(graph, dataset, "x0", "x1", m=dataset.n_rows, seed=0)
        assert abs(value - expected) <= 0.02 * expected

    def test_structurally_constant_label_zero_effect(self):
        # label edges too weak to move any structural value across 0.5:
        # every interventional probability equals the base rate exactly
        graph, dataset = make_effect_fixture()
        eps = 1e-9
        frozen = CausalGraph(
            nodes=graph.nodes,
            weights=np.array([[0.0, 0, 0], [1.0, 0, 0], [eps, eps, 0.0]]),
            topo_order=graph.topo_order,
            edge_threshold=graph.edge_threshold,
            label=graph.label,
        )
        assert causal_effect(frozen, dataset, "x0", "x1", m=100, seed=1) == 0.0

    def test_effect_non_negative(self):
        graph, dataset = make_effect_fixture()
        for seed in range(5):
            assert causal_effect(graph, dataset, "x0", "x1", m=50, seed=seed) >= 0.0

    def test_not_directly_relevant(self):
        graph = graph_of(("s", "a", "label"), [("a", "label", 1.0)], "label")
        schema = Schema(("s", "a"), ("s",), "label", {"s": "integer", "a": "integer"})
        rng = np.random.default_rng(0)
        ds = from_arrays(rng.integers(0, 2, (50, 2)), rng.integers(0, 2, 50), schema)
        with pytest.raises(NotDirectlyRelevant):
            causal_effect(graph, ds, "s", "a", m=10, seed=0)

    def test_m_exceeding_rows(self):
        graph, dataset = make_effect_fixture()
        with pytest.raises(InsufficientRows):
            causal_effect(graph, dataset, "x0", "x1", m=dataset.n_rows + 1, seed=0)


class TestBootstrapEffect:
    def test_single_repeat_is_median_of_itself(self):
        graph, dataset = make_effect_fixture()
        eff = bootstrap_effect(graph, dataset, "x0", "x1", m=100, repeats=1, seed=3)
        assert eff.effect == eff.raw_repeats[0]

    def test_median_within_range(self):
        graph, dataset = make_effect_fixture()
        eff = bootstrap_effect(graph, dataset, "x0", "x1", m=100, repeats=20, seed=5)
        assert min(eff.raw_repeats) <= eff.effect <= max(eff.raw_repeats)
        assert len(eff.raw_repeats) == 20

    def test_even_repeats_take_lower_middle(self):
        graph, dataset = make_effect_fixture()
        eff = bootstrap_effect(graph, dataset, "x0", "x1", m=60, repeats=2, seed=7)
        assert eff.effect == min(eff.raw_repeats)

    def test_deterministic_under_seed(self):
        graph, dataset = make_effect_fixture()
        a = bootstrap_effect(graph, dataset, "x0", "x1", m=80, repeats=6, seed=9)
        b = bootstrap_effect(graph, dataset, "x0", "x1", m=80, repeats=6, seed=9)
        assert a == b


class TestSelection:
    def test_highest_median_effect_wins(self):
        effects = [
            CausalEffect("Lsat", 4.75, (4.75,)),
            CausalEffect("Decile3", 2.29, (2.29,)),
            CausalEffect("Decile1b", 2.11, (2.11,)),
        ]
        assert select_causal_feature(effects) == "Lsat"

    def test_empty_raises(self):
        with pytest.raises(NoDirectFeature):
            select_causal_feature([])

    def test_tie_breaks_by_schema_order(self):
        effects = [CausalEffect("b", 1.0, (1.0,)), CausalEffect("a", 1.0, (1.0,))]
        assert select_causal_feature(effects, order=("a", "b")) == "a"
        assert select_causal_feature(effects, order=("b", "a")) == "b"

    def test_correlation_exact_copy_selected(self):
        rng = np.random.default_rng(2)
        s = rng.integers(0, 5, 400)
        noise = rng.integers(0, 5, 400)
        rows = np.column_stack([s, noise, s])
        schema = Schema(
            ("s", "noise", "copy"), ("s",), "y",
            {"s": "integer", "noise": "integer", "copy": "integer"},
        )
        ds = from_arrays(rows, rng.integers(0, 2, 400), schema)
        assert select_correlation_feature(ds, "s") == "copy"

    def test_correlation_magnitude_beats_sign(self):
        rng = np.random.default_rng(3)
        s = rng.integers(0, 10, 600).astype(int)
        strong_neg = (-2 * s + np.rint(rng.uniform(-2, 2, 600))).astype(int)
        weak_pos = (s + np.rint(rng.uniform(-8, 8, 600))).astype(int)
        rows = np.column_stack([s, weak_pos, strong_neg])
        schema = Schema(
            ("s", "weak", "strong"), ("s",), "y",
            {"s": "integer", "weak": "integer", "strong": "integer"},
        )
        ds = from_arrays(rows, rng.integers(0, 2, 600), schema)
        assert select_correlation_feature(ds, "s") == "strong"

    def test_correlation_exact_tie_lowest_index(self):
        rng = np.random.default_rng(4)
        s = rng.integers(0, 6, 300)
        f = rng.integers(0, 6, 300)
        rows = np.column_stack([s, f, f])  # identical columns tie exactly
        schema = Schema(
            ("s", "f1", "f2"), ("s",), "y",
            {"s": "integer", "f1": "integer", "f2": "integer"},
        )
        ds = from_arrays(rows, rng.integers(0, 2, 300), schema)
        assert select_correlation_feature(ds, "s") == "f1"

    def test_correlation_degenerate_sensitive(self):
        schema = Schema(("s", "f"), ("s",), "y", {"s": "integer", "f": "integer"})
        rows = np.column_stack([np.full(50, 3), np.arange(50)])
        ds = from_arrays(rows, np.tile([0, 1], 25), schema)
        with pytest.raises(DegenerateColumn):
            select_correlation_feature(ds, "s")


class TestStability:
    def test_identical_graphs_zero(self):
        g = graph_of(("a", "b", "y"), [("a", "b", 1.0)], "y")
        assert graph_stability([g, g, g]) == 0.0

    def test_single_edge_difference_is_one(self):
        g1 = graph_of(("a", "b", "y"), [("a", "b", 1.0)], "y")
        g2 = graph_of(("a", "b", "y"), [("a", "b", 1.0), ("b", "y", 0.5)], "y")
        assert graph_stability([g1, g2]) == 1.0

    def test_node_set_mismatch(self):
        g1 = graph_of(("a", "b", "y"), [], "y")
        g2 = graph_of(("a", "c", "y"), [], "y")
        with pytest.raises(NodeSetMismatch):
            graph_stability([g1, g2])

    def test_needs_two_graphs(self):
        g = graph_of(("a", "y"), [], "y")
        with pytest.raises(ValueError):
            graph_stability([g])


class TestRecoveryProperty:
    def test_sem_recovery_single_seed(self):
        ds = make_sem_dataset(1)
        graph = discover_graph(ds, "x0", seed=1)
        for (src, dst), coef in SEM_TRUE_EDGES.items():
            assert graph.edge_weight(src, dst) != 0.0
            assert abs(graph.edge_weight(src, dst) - coef) <= 0.2
