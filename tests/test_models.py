import numpy as np
import pytest

from fairprobe.data import Schema, from_arrays
from fairprobe.errors import ConfigInvalid, EmptyData, WidthMismatch
from fairprobe.models import (
    ModelConfig,
    ModelUnderTest,
    _sigmoid,
    input_gradient,
    train,
)


def toy_schema(width):
    return Schema(
        feature_names=tuple(f"f{i}" for i in range(width)),
        sensitive_features=(),
        label_name="y",
        declared_kinds={f"f{i}": "integer" for i in range(width)},
    )


def fixed_logistic(weights, bias):
    w = np.asarray(weights, dtype=float).reshape(-1, 1)
    return ModelUnderTest(
        config=ModelConfig(kind="logistic"),
        input_width=w.shape[0],
        weights=[w],
        biases=[np.array([float(bias)])],
    )


class TestConfigValidation:
    def test_mlp_needs_hidden_layer(self):
        with pytest.raises(ConfigInvalid):
            ModelConfig(kind="mlp")

    def test_logistic_takes_no_hidden(self):
        with pytest.raises(ConfigInvalid):
            ModelConfig(kind="logistic", hidden_sizes=(4,))

    def test_dropout_constraints(self):
        with pytest.raises(ConfigInvalid):
            ModelConfig(kind="mlp", hidden_sizes=(4,), dropout=(0.1, 0.1))
        with pytest.raises(ConfigInvalid):
            ModelConfig(kind="mlp", hidden_sizes=(4,), dropout=(1.0,))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"epochs": 0},
            {"l2": -1.0},
            {"early_stop_patience": 0},
            {"hidden_sizes": (0,)},
        ],
    )
    def test_bad_numbers(self, kwargs):
        base = {"kind": "mlp", "hidden_sizes": (4,)}
        base.update(kwargs)
        with pytest.raises(ConfigInvalid):
            ModelConfig(**base)

    def test_unknown_kind(self):
        with pytest.raises(ConfigInvalid):
            ModelConfig(kind="forest")


class TestTraining:
    def test_linearly_separable_logistic_perfect(self):
        # fixture from a known separator: y = 1 iff f0 + f1 > 10
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 11, size=(200, 2))
        labels = (rows.sum(axis=1) > 10).astype(int)
        # oracle: the generating hyperplane separates the fixture exactly
        assert np.array_equal(labels, (rows @ np.ones(2) > 10).astype(int))
        ds = from_arrays(rows, labels, toy_schema(2))
        model = train(ds, ModelConfig(kind="logistic", epochs=300, learning_rate=0.3, seed=0))
        preds, _ = model.predict_batch(rows.astype(float))
        assert np.mean(preds == labels) == 1.0

    def test_xor_mlp_perfect(self):
        rows = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        labels = np.array([0, 1, 1, 0])
        ds = from_arrays(rows, labels, toy_schema(2))
        model = train(
            ds,
            ModelConfig(
                kind="mlp", hidden_sizes=(8,), epochs=2000, learning_rate=0.05,
                batch_size=4, seed=0,
            ),
        )
        preds, _ = model.predict_batch(rows.astype(float))
        assert np.array_equal(preds, labels)

    def test_deep_dropout_config_trains(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 5, size=(64, 6))
        labels = (rows[:, 0] > 2).astype(int)
        ds = from_arrays(rows, labels, toy_schema(6))
        config = ModelConfig(
            kind="mlp",
            hidden_sizes=(256, 256, 128, 64, 32),
            dropout=(0.3, 0.3, 0.2),
            epochs=2,
            l2=1e-4,
            seed=0,
        )
        model = train(ds, config)
        probs = model.predict_proba_batch(rows.astype(float))
        assert probs.shape == (64,) and np.all((probs >= 0) & (probs <= 1))

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 4, size=(120, 3))
        labels = (rows[:, 0] + rows[:, 1] > 3).astype(int)
        ds = from_arrays(rows, labels, toy_schema(3))
        config = ModelConfig(kind="mlp", hidden_sizes=(8, 4), epochs=5, seed=9)
        m1, m2 = train(ds, config), train(ds, config)
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(m1.biases, m2.biases):
            assert np.array_equal(b1, b2)

    def test_dropout_changes_training(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 4, size=(120, 3))
        labels = (rows[:, 0] > 1).astype(int)
        ds = from_arrays(rows, labels, toy_schema(3))
        plain = train(ds, ModelConfig(kind="mlp", hidden_sizes=(8,), epochs=5, seed=2))
        dropped = train(
            ds, ModelConfig(kind="mlp", hidden_sizes=(8,), dropout=(0.4,), epochs=5, seed=2)
        )
        assert not np.array_equal(plain.weights[0], dropped.weights[0])

    def test_early_stopping_restores_best(self):
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 6, size=(200, 3))
        labels = (rows.sum(axis=1) > 7).astype(int)
        ds = from_arrays(rows, labels, toy_schema(3))
        config = ModelConfig(
            kind="mlp", hidden_sizes=(6,), epochs=200, early_stop_patience=3, seed=4
        )
        model = train(ds, config)  # must terminate early without error
        assert model.input_width == 3

    def test_empty_training_data(self, demo_dataset):
        from fairprobe.data import split_train_test

        _, empty = split_train_test(demo_dataset, 1.0, seed=0)
        with pytest.raises(EmptyData):
            train(empty, ModelConfig(kind="logistic"))


class TestPredict:
    def test_zero_weight_logistic_threshold_inclusive(self):
        model = fixed_logistic([0.0, 0.0], 0.0)
        labels, probs = model.predict_batch(np.array([3, 4]))
        assert probs[0] == 0.5 and labels[0] == 1

    def test_prob_in_unit_interval(self, demo_lr, demo_dataset):
        probs = demo_lr.predict_proba_batch(demo_dataset.rows[:200].astype(float))
        assert np.all((probs >= 0) & (probs <= 1))

    def test_pure_function(self, demo_lr, demo_dataset):
        x = demo_dataset.rows[:50]
        labels1, probs1 = demo_lr.predict_batch(x)
        labels2, probs2 = demo_lr.predict_batch(x)
        assert np.array_equal(labels1, labels2) and np.array_equal(probs1, probs2)

    def test_label_matches_threshold(self, demo_lr, demo_dataset):
        labels, probs = demo_lr.predict_batch(demo_dataset.rows[:500].astype(float))
        assert np.array_equal(labels, (probs >= 0.5).astype(int))

    def test_width_mismatch(self, demo_lr):
        with pytest.raises(WidthMismatch):
            demo_lr.predict_batch(np.array([1, 2, 3]))


def masked_sigmoid(z):
    """The two-branch form with boolean masks, kept as the reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    def test_matches_masked_reference_bit_for_bit(self):
        edges = [0.0, -0.0, 1e-320, -1e-320, 1e-17, -1e-17, 36.7, -36.7,
                 745.0, -745.0, 1e4, -1e4, np.nan]
        rng = np.random.default_rng(0)
        z = np.concatenate([edges, rng.normal(0.0, 40.0, 5000), np.linspace(-800, 800, 3201)])
        with np.errstate(over="ignore"):
            got, want = _sigmoid(z), masked_sigmoid(z)
        assert np.array_equal(got, want, equal_nan=True)
        # a NaN keeps its NaN-ness but may flip its sign bit; all else is exact
        finite = ~np.isnan(want)
        assert np.array_equal(got[finite].view(np.uint64), want[finite].view(np.uint64))


def finite_difference(model, x, h=1e-4):
    grad = np.zeros(len(x))
    for i in range(len(x)):
        hi = x.astype(float).copy()
        lo = x.astype(float).copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (
            model.predict_proba_batch(hi[None])[0] - model.predict_proba_batch(lo[None])[0]
        ) / (2 * h)
    return grad


def max_rel_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


class TestInputGradient:
    def test_logistic_closed_form(self):
        w = np.array([0.7, -1.3, 0.2])
        model = fixed_logistic(w, 0.4)
        x = np.array([1.0, 2.0, -1.0])
        p = model.predict_proba_batch(x)[0]
        expected = p * (1 - p) * w
        assert np.allclose(input_gradient(model, x), expected, rtol=1e-12)

    def test_matches_finite_differences_logistic(self, demo_lr):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(0, 5, size=demo_lr.input_width)
            g = input_gradient(demo_lr, x)
            assert max_rel_error(g, finite_difference(demo_lr, x)) < 1e-4

    def test_matches_finite_differences_mlp(self):
        rng = np.random.default_rng(2)
        rows = rng.integers(0, 5, size=(100, 4))
        labels = (rows[:, 0] + rows[:, 2] > 4).astype(int)
        ds = from_arrays(rows, labels, toy_schema(4))
        model = train(ds, ModelConfig(kind="mlp", hidden_sizes=(8, 4), epochs=10, seed=1))
        for _ in range(20):
            x = rng.uniform(0, 4, size=4)
            g = input_gradient(model, x)
            assert max_rel_error(g, finite_difference(model, x)) < 1e-4

    def test_zero_network_zero_gradient(self):
        model = fixed_logistic([0.0, 0.0], 0.0)
        assert np.array_equal(input_gradient(model, [1, 2]), np.zeros(2))

    def test_width_mismatch(self, demo_lr):
        with pytest.raises(WidthMismatch):
            input_gradient(demo_lr, np.zeros(3))

    @staticmethod
    def row_gradient(model, x):
        """The one-row form of `input_gradient`: vector forward and backward sweeps."""
        h, pre = np.asarray(x, dtype=float), []
        for W, b in zip(model.weights[:-1], model.biases[:-1]):
            pre.append(h @ W + b)
            h = np.maximum(pre[-1], 0.0)
        p = float(_sigmoid(np.array([h @ model.weights[-1][:, 0] + model.biases[-1][0]]))[0])
        grad = model.weights[-1][:, 0] * (p * (1.0 - p))
        for W, z in zip(reversed(model.weights[:-1]), reversed(pre)):
            grad = W @ (grad * (z > 0))
        return grad

    def test_batch_rows_match_one_row_form(self, demo_lr):
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 5, size=(200, 4))
        ds = from_arrays(rows, (rows[:, 0] + rows[:, 2] > 4).astype(int), toy_schema(4))
        mlp = train(ds, ModelConfig(kind="mlp", hidden_sizes=(8, 4), epochs=10, seed=1))
        for model in (demo_lr, mlp):
            X = rng.uniform(0, 6, size=(50, model.input_width))
            batch = input_gradient(model, X)
            assert batch.shape == X.shape
            for x, g in zip(X, batch):
                np.testing.assert_allclose(g, self.row_gradient(model, x), rtol=1e-12)
                single = input_gradient(model, x)
                assert single.shape == (model.input_width,)
                np.testing.assert_allclose(single, g, rtol=1e-12)
