"""Models under test: logistic regression and a configurable MLP.

Both are trained with Adam on binary cross-entropy, fully seeded, and expose
label, probability, and analytic input-gradient queries. Integer-coded inputs
are fed as raw reals without one-hot expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConfigInvalid, WidthMismatch

KIND_LOGISTIC = "logistic"
KIND_MLP = "mlp"

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ModelConfig:
    kind: str
    hidden_sizes: tuple[int, ...] = ()
    dropout: tuple[float, ...] = ()
    learning_rate: float = 0.001
    batch_size: int = 128
    epochs: int = 50
    l2: float = 0.0
    seed: int = 0
    early_stop_patience: int | None = None

    def __post_init__(self):
        if self.kind not in (KIND_LOGISTIC, KIND_MLP):
            raise ConfigInvalid(f"unknown model kind {self.kind!r}")
        if self.kind == KIND_MLP and not self.hidden_sizes:
            raise ConfigInvalid("mlp requires at least one hidden layer")
        if self.kind == KIND_LOGISTIC and self.hidden_sizes:
            raise ConfigInvalid("logistic model takes no hidden layers")
        if any(h <= 0 for h in self.hidden_sizes):
            raise ConfigInvalid("hidden layer sizes must be positive")
        if len(self.dropout) > len(self.hidden_sizes):
            raise ConfigInvalid("dropout list longer than hidden layer list")
        if any(not (0.0 <= d < 1.0) for d in self.dropout):
            raise ConfigInvalid("dropout rates must lie in [0, 1)")
        if self.learning_rate <= 0:
            raise ConfigInvalid("learning_rate must be positive")
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ConfigInvalid("batch_size and epochs must be positive")
        if self.l2 < 0:
            raise ConfigInvalid("l2 must be non-negative")
        if self.early_stop_patience is not None and self.early_stop_patience <= 0:
            raise ConfigInvalid("early_stop_patience must be positive when set")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: exp only ever
    # sees a non-positive argument, so it never overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass
class ModelUnderTest:
    """A trained predictor; predict_batch labels a row 1 iff its probability is >= 0.5."""

    config: ModelConfig
    input_width: int
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)

    def _check_width(self, X: np.ndarray) -> None:
        if X.shape[-1] != self.input_width:
            raise WidthMismatch(
                f"sample width {X.shape[-1]} != model input width {self.input_width}"
            )

    def predict_proba_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        self._check_width(X)
        h = X
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ W + b, 0.0)
        z = h @ self.weights[-1] + self.biases[-1]
        return _sigmoid(z[:, 0])

    def predict_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        probs = self.predict_proba_batch(X)
        return (probs >= 0.5).astype(np.int64), probs


def input_gradient(model: ModelUnderTest, X) -> np.ndarray:
    """Analytic gradient of the predicted probability w.r.t. each input
    feature: one row per row of a 2-D batch, or one vector for a 1-D row."""
    X = np.asarray(X, dtype=float)
    h = X if X.ndim == 2 else X.reshape(1, -1)
    model._check_width(h)
    # forward pass, keeping pre-activations for the backward sweep
    pre = []
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        z = h @ W + b
        pre.append(z)
        h = np.maximum(z, 0.0)
    p = _sigmoid(h @ model.weights[-1][:, 0] + model.biases[-1][0])
    # d p / d z_out times the output weights, swept back through each layer
    grad = (p * (1.0 - p))[:, None] * model.weights[-1][:, 0]
    for W, z in zip(reversed(model.weights[:-1]), reversed(pre)):
        grad = (grad * (z > 0)) @ W.T
    return grad if X.ndim == 2 else grad[0]


def _init_params(
    config: ModelConfig, width: int, rng: np.random.Generator
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    sizes = [width, *config.hidden_sizes, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        if config.kind == KIND_LOGISTIC:
            W = np.zeros((fan_in, fan_out))
        else:
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            W = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        weights.append(W)
        biases.append(np.zeros(fan_out))
    return weights, biases


def _bce(probs: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(probs, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1.0 - p)))


def train(train_data: Dataset, config: ModelConfig) -> ModelUnderTest:
    """Train a model deterministically under config.seed.

    Binary cross-entropy objective with optional L2 on the weights; dropout
    masks (inverted dropout) are applied to the leading hidden activations
    during training only. When early_stop_patience is set, a 10% validation
    slice drawn with the training seed controls early stopping and the best
    validation parameters are restored.
    """
    train_data.require_rows("training data")
    rng = np.random.default_rng(config.seed)
    X_all = train_data.rows.astype(float)
    y_all = train_data.labels.astype(float)
    width = X_all.shape[1]

    if config.early_stop_patience is not None and train_data.n_rows >= 2:
        n_val = max(1, int(round(0.1 * train_data.n_rows)))
        perm = rng.permutation(train_data.n_rows)
        val_idx, tr_idx = perm[:n_val], perm[n_val:]
        X, y = X_all[tr_idx], y_all[tr_idx]
        X_val, y_val = X_all[val_idx], y_all[val_idx]
    else:
        X, y = X_all, y_all
        X_val = y_val = None

    weights, biases = _init_params(config, width, rng)
    m_w = [np.zeros_like(W) for W in weights]
    v_w = [np.zeros_like(W) for W in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    model = ModelUnderTest(config=config, input_width=width, weights=weights, biases=biases)

    n = X.shape[0]
    step = 0
    best_val = np.inf
    best_params = None
    stale = 0
    n_hidden = len(config.hidden_sizes)

    for _epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            xb, yb = X[batch], y[batch]

            # forward with dropout on leading hidden layers
            acts = [xb]
            pres = []
            masks = []
            h = xb
            for li in range(n_hidden):
                z = h @ weights[li] + biases[li]
                pres.append(z)
                h = np.maximum(z, 0.0)
                if li < len(config.dropout) and config.dropout[li] > 0.0:
                    keep = 1.0 - config.dropout[li]
                    mask = (rng.random(h.shape) < keep) / keep
                    h = h * mask
                    masks.append(mask)
                else:
                    masks.append(None)
                acts.append(h)
            z_out = h @ weights[-1] + biases[-1]
            probs = _sigmoid(z_out[:, 0])

            # backward
            grads_w = [None] * len(weights)
            grads_b = [None] * len(biases)
            delta = ((probs - yb) / len(batch))[:, None]
            grads_w[-1] = acts[-1].T @ delta
            grads_b[-1] = delta.sum(axis=0)
            up = delta @ weights[-1].T
            for li in range(n_hidden - 1, -1, -1):
                if masks[li] is not None:
                    up = up * masks[li]
                up = up * (pres[li] > 0)
                grads_w[li] = acts[li].T @ up
                grads_b[li] = up.sum(axis=0)
                if li > 0:
                    up = up @ weights[li].T
            if config.l2 > 0:
                for li in range(len(weights)):
                    grads_w[li] = grads_w[li] + config.l2 * weights[li]

            step += 1
            lr = config.learning_rate
            corr1 = 1.0 - _ADAM_BETA1**step
            corr2 = 1.0 - _ADAM_BETA2**step
            for li in range(len(weights)):
                m_w[li] = _ADAM_BETA1 * m_w[li] + (1 - _ADAM_BETA1) * grads_w[li]
                v_w[li] = _ADAM_BETA2 * v_w[li] + (1 - _ADAM_BETA2) * grads_w[li] ** 2
                weights[li] -= lr * (m_w[li] / corr1) / (np.sqrt(v_w[li] / corr2) + _ADAM_EPS)
                m_b[li] = _ADAM_BETA1 * m_b[li] + (1 - _ADAM_BETA1) * grads_b[li]
                v_b[li] = _ADAM_BETA2 * v_b[li] + (1 - _ADAM_BETA2) * grads_b[li] ** 2
                biases[li] -= lr * (m_b[li] / corr1) / (np.sqrt(v_b[li] / corr2) + _ADAM_EPS)

        if X_val is not None:
            val_loss = _bce(model.predict_proba_batch(X_val), y_val)
            if val_loss < best_val - 1e-9:
                best_val = val_loss
                best_params = ([W.copy() for W in weights], [b.copy() for b in biases])
                stale = 0
            else:
                stale += 1
                if stale >= config.early_stop_patience:
                    break

    if best_params is not None:
        model.weights, model.biases = best_params
    return model
