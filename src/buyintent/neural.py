"""Tied-weight denoising autoencoders, greedy stacking, and supervised
fine-tuning with a softmax head.

All gradients here are derived by hand and checked against central
finite differences in the test suite; no autodiff anywhere. The encoder
and decoder of an autoencoder layer share one matrix, so its gradient
accumulates both roles. The reconstruction output is always a sigmoid,
which keeps least-squares targets in (0,1) after inputs are scaled to
[0,1]; the hidden activation may be sigmoid or relu.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, RangeScaler, scaler_from_dict
from .util import TrainingDiverged, as_rng, relu, sigmoid, substream_seed

BATCH_SIZE = 128

ACTIVATIONS = ("sigmoid", "relu")


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs for the autoencoder and network trainers.

    The constructor only checks loose sanity so that degenerate settings
    (zero epochs, zero learning rate) stay usable in tests and for
    no-op baselines; validate_ranges() applies the strict search-space
    bounds used by hyperparameter search.
    """

    hidden_units: tuple[int, ...] = (64,)
    activation: str = "sigmoid"
    initial_learning_rate: float = 0.05
    momentum: float = 0.0
    l2_weight_cost: float = 0.0
    dropout_fraction: float = 0.0
    epochs: int = 30
    annealing_delay_fraction: float = 1.0
    input_noise_level: float = 0.0

    def __post_init__(self):
        if not self.hidden_units or any(h < 1 for h in self.hidden_units):
            raise ValueError("hidden_units must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        checks = [
            ("initial_learning_rate", self.initial_learning_rate, 0.0, 0.25),
            ("momentum", self.momentum, 0.0, 0.95),
            ("l2_weight_cost", self.l2_weight_cost, 0.0, 0.01),
            ("dropout_fraction", self.dropout_fraction, 0.0, 0.3),
            ("annealing_delay_fraction", self.annealing_delay_fraction, 0.0, 1.0),
            ("input_noise_level", self.input_noise_level, 0.0, 0.2),
        ]
        for name, val, lo, hi in checks:
            if not lo <= val <= hi:
                raise ValueError(f"{name} must be in [{lo}, {hi}], got {val}")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")

    def validate_ranges(self):
        """Enforce the full search-space contract, including the
        depth-dependent epoch bounds and per-layer unit caps."""
        deep = len(self.hidden_units) > 1
        hi = 150 if deep else 100
        if not 10 <= self.epochs <= hi:
            raise ValueError(f"epochs must be in [10, {hi}] for this depth, got {self.epochs}")
        if self.initial_learning_rate < 0.001:
            raise ValueError("initial_learning_rate below 0.001")
        for i, h in enumerate(self.hidden_units):
            floor = 16 if (i == 0 and not deep) else 64
            if not floor <= h <= 500:
                raise ValueError(f"hidden layer {i} must have {floor}..500 units, got {h}")
        return self

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["hidden_units"] = list(self.hidden_units)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparams":
        d = dict(d)
        d["hidden_units"] = tuple(d["hidden_units"])
        return cls(**d)


def activate(kind: str, x):
    if kind == "sigmoid":
        return sigmoid(x)
    if kind == "relu":
        return relu(x)
    raise ValueError(f"unknown activation '{kind}'")


def activation_deriv(kind: str, activations: np.ndarray) -> np.ndarray:
    """Derivative of the activation expressed through its outputs."""
    if kind == "sigmoid":
        return activations * (1.0 - activations)
    if kind == "relu":
        return (activations > 0).astype(float)
    raise ValueError(f"unknown activation '{kind}'")


@dataclass(eq=False)
class AutoencoderLayer:
    """One tied-weight layer: encode y = s(Wx + b), decode through the
    transpose of the same W, z = sigmoid(W'y + b_prime)."""

    W: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray
    activation: str = "sigmoid"

    @property
    def n_hidden(self) -> int:
        return self.W.shape[0]

    @property
    def n_visible(self) -> int:
        return self.W.shape[1]


def init_ae_layer(n_visible: int, n_hidden: int, activation: str, rng) -> AutoencoderLayer:
    limit = 1.0 / np.sqrt(n_visible)
    W = rng.uniform(-limit, limit, size=(n_hidden, n_visible))
    return AutoencoderLayer(
        W=W, b=np.zeros(n_hidden), b_prime=np.zeros(n_visible), activation=activation
    )


def encode(layer: AutoencoderLayer, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != layer.n_visible:
        raise ValueError(f"input has {x.shape[-1]} features, layer expects {layer.n_visible}")
    return activate(layer.activation, x @ layer.W.T + layer.b)


def decode(layer: AutoencoderLayer, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != layer.n_hidden:
        raise ValueError(f"code has {y.shape[-1]} units, layer expects {layer.n_hidden}")
    return sigmoid(y @ layer.W + layer.b_prime)


def corrupt(x: np.ndarray, noise_level: float, seed) -> np.ndarray:
    """Masking noise: zero each coordinate independently with the given
    probability. Levels above 0.2 are outside the supported range."""
    if not 0.0 <= noise_level <= 0.2:
        raise ValueError(f"noise_level must be in [0, 0.2], got {noise_level}")
    x = np.asarray(x, dtype=float)
    if noise_level == 0.0:
        return x.copy()
    rng = as_rng(seed)
    mask = rng.random(x.shape) >= noise_level
    return x * mask


def reconstruction_loss(t: np.ndarray, z: np.ndarray) -> float:
    """Half squared error summed over coordinates, averaged over rows."""
    t = np.atleast_2d(np.asarray(t, dtype=float))
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if t.shape != z.shape:
        raise ValueError(f"shape mismatch {t.shape} vs {z.shape}")
    return float(0.5 * np.sum((t - z) ** 2) / t.shape[0])


@dataclass(eq=False)
class GradientSet:
    """Per-parameter gradients plus the loss they were taken at.

    For an autoencoder layer: weights = [grad of the tied W] and
    biases = [grad b, grad b_prime]. For a network: one entry per layer,
    output head last.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    loss: float


def ae_layer_gradients(layer: AutoencoderLayer, x_orig: np.ndarray, x_corr: np.ndarray) -> GradientSet:
    """Batch-averaged gradients of the reconstruction loss.

    Forward: y from the corrupted input, z from y. The output delta is
    (z - t) z (1 - z); the hidden delta backpropagates through the
    decoder copy of W and the hidden activation derivative. W collects
    its decoder-role term y'd_out plus its encoder-role term d_hid'x.
    """
    t = np.atleast_2d(np.asarray(x_orig, dtype=float))
    xc = np.atleast_2d(np.asarray(x_corr, dtype=float))
    if t.shape != xc.shape:
        raise ValueError(f"shape mismatch {t.shape} vs {xc.shape}")
    n = t.shape[0]
    y = encode(layer, xc)
    z = decode(layer, y)
    d_out = (z - t) * z * (1.0 - z)
    d_hid = (d_out @ layer.W.T) * activation_deriv(layer.activation, y)
    grad_W = (y.T @ d_out + d_hid.T @ xc) / n
    grad_b = d_hid.sum(axis=0) / n
    grad_b_prime = d_out.sum(axis=0) / n
    return GradientSet(
        weights=[grad_W],
        biases=[grad_b, grad_b_prime],
        loss=reconstruction_loss(t, z),
    )


def _learning_rate_at(step: int, total_steps: int, hp: Hyperparams) -> float:
    """Constant for the delay fraction of steps, then linear to zero."""
    start = hp.annealing_delay_fraction * total_steps
    if step < start or total_steps <= start:
        return hp.initial_learning_rate
    return hp.initial_learning_rate * (total_steps - step) / (total_steps - start)


def _epochs(n: int, hp: Hyperparams, rng):
    """The minibatch schedule shared by every trainer: for each of
    hp.epochs epochs, the (batch indices, learning rate) pairs of a
    fresh shuffle of range(n), the rate annealed over the global step.
    An epoch's shuffle is drawn only when the caller asks for that
    epoch, after the previous epoch's batches have used rng."""
    total_steps = hp.epochs * max(1, -(-n // BATCH_SIZE))
    step = 0
    for _ in range(hp.epochs):
        order = rng.permutation(n)
        batches = []
        for i in range(0, n, BATCH_SIZE):
            batches.append((order[i : i + BATCH_SIZE], _learning_rate_at(step, total_steps, hp)))
            step += 1
        yield batches


def train_ae_layer(X: np.ndarray, n_hidden: int, hp: Hyperparams, seed) -> AutoencoderLayer:
    """Denoising SGD training of one tied layer. Corruption is resampled
    for every presentation of every batch; a non-finite epoch loss
    raises TrainingDiverged.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rng = as_rng(seed)
    layer = init_ae_layer(X.shape[1], n_hidden, hp.activation, rng)
    vel_W = np.zeros_like(layer.W)
    vel_b = np.zeros_like(layer.b)
    vel_bp = np.zeros_like(layer.b_prime)
    for epoch, batches in enumerate(_epochs(X.shape[0], hp, rng)):
        epoch_loss = 0.0
        for idx, lr in batches:
            xb = X[idx]
            xc = corrupt(xb, hp.input_noise_level, rng)
            g = ae_layer_gradients(layer, xb, xc)
            vel_W = hp.momentum * vel_W - lr * (g.weights[0] + hp.l2_weight_cost * layer.W)
            vel_b = hp.momentum * vel_b - lr * g.biases[0]
            vel_bp = hp.momentum * vel_bp - lr * g.biases[1]
            layer.W += vel_W
            layer.b += vel_b
            layer.b_prime += vel_bp
            epoch_loss += g.loss * len(idx)
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(epoch, "autoencoder reconstruction loss")
    return layer


def stack_pretrain(X: np.ndarray, layer_sizes, hp: Hyperparams, seed) -> list[AutoencoderLayer]:
    """Greedy layerwise pretraining: each layer trains on the clean
    encodings of the stack below it (corruption happens inside the
    layer's own training loop)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    layers: list[AutoencoderLayer] = []
    data = X
    for k, size in enumerate(layer_sizes):
        layer = train_ae_layer(data, size, hp, substream_seed(seed, 101, k))
        layers.append(layer)
        data = encode(layer, data)
    return layers


def softmax(logits: np.ndarray) -> np.ndarray:
    a = np.asarray(logits, dtype=float)
    shifted = a - np.max(a, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


@dataclass(eq=False)
class DenseLayer:
    W: np.ndarray
    b: np.ndarray


@dataclass(eq=False)
class Network:
    """Feed-forward classifier: hidden layers plus a 2-class softmax
    head. Index 1 of the output is the buy class."""

    layers: list[DenseLayer]
    activation: str
    scaler: RangeScaler | None = None
    dropout_fraction: float = 0.0

    @property
    def hidden_count(self) -> int:
        return len(self.layers) - 1

    def to_dict(self) -> dict:
        return {
            "activation": self.activation,
            "dropout_fraction": self.dropout_fraction,
            "scaler": self.scaler.to_dict() if self.scaler is not None else None,
            "layers": [
                {"W": layer.W.tolist(), "b": layer.b.tolist()} for layer in self.layers
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Network":
        return cls(
            layers=[
                DenseLayer(W=np.array(l["W"], dtype=float), b=np.array(l["b"], dtype=float))
                for l in d["layers"]
            ],
            activation=d["activation"],
            scaler=scaler_from_dict(d["scaler"]) if d.get("scaler") else None,
            dropout_fraction=d.get("dropout_fraction", 0.0),
        )


def _forward_hidden(net: Network, X: np.ndarray, masks=None) -> list[np.ndarray]:
    """Activations per layer, input first, last hidden last."""
    acts = [X]
    a = X
    for i, layer in enumerate(net.layers[:-1]):
        a = activate(net.activation, a @ layer.W.T + layer.b)
        if masks is not None:
            a = a * masks[i]
        acts.append(a)
    return acts


def network_gradients(net: Network, X: np.ndarray, targets: np.ndarray, masks=None) -> GradientSet:
    """Gradients of the mean cross-entropy between softmax outputs and
    one-hot targets. The output delta is exactly (z - t) scaled by the
    batch size; hidden deltas chain through the activation derivative.
    Dropout masks, when given, scale hidden activations (already
    inverted) and gate the corresponding deltas.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.atleast_2d(np.asarray(targets, dtype=float))
    n = X.shape[0]
    acts = _forward_hidden(net, X, masks)
    head = net.layers[-1]
    logits = acts[-1] @ head.W.T + head.b
    logp = _log_softmax(logits)
    loss = float(-np.sum(T * logp) / n)
    delta = (np.exp(logp) - T) / n
    grads_W: list[np.ndarray] = [None] * len(net.layers)
    grads_b: list[np.ndarray] = [None] * len(net.layers)
    grads_W[-1] = delta.T @ acts[-1]
    grads_b[-1] = delta.sum(axis=0)
    d = delta @ head.W
    for i in range(len(net.layers) - 2, -1, -1):
        if masks is not None:
            d = d * masks[i]
        d = d * activation_deriv(net.activation, acts[i + 1])
        grads_W[i] = d.T @ acts[i]
        grads_b[i] = d.sum(axis=0)
        d = d @ net.layers[i].W
    return GradientSet(weights=grads_W, biases=grads_b, loss=loss)


def build_network(stack, n_classes: int, hp: Hyperparams, seed, scaler=None) -> Network:
    """Assemble a Network from copies of the W and b of pretrained (or
    fresh) hidden layers of any kind and a newly initialized softmax
    head."""
    if not stack:
        raise ValueError("network needs at least one hidden layer")
    layers = [DenseLayer(W=l.W.copy(), b=l.b.copy()) for l in stack]
    n_in = layers[-1].W.shape[0]
    rng = as_rng(seed)
    limit = 1.0 / np.sqrt(n_in)
    head = DenseLayer(W=rng.uniform(-limit, limit, size=(n_classes, n_in)), b=np.zeros(n_classes))
    layers.append(head)
    return Network(
        layers=layers,
        activation=hp.activation,
        scaler=scaler,
        dropout_fraction=hp.dropout_fraction,
    )


def init_stack(n_visible: int, layer_sizes, hp: Hyperparams, seed) -> list[DenseLayer]:
    """Randomly initialized hidden layers with the same shapes a
    pretrained stack would have; the no-pretraining baseline."""
    rng = as_rng(seed)
    layers: list[DenseLayer] = []
    n_in = n_visible
    for size in layer_sizes:
        limit = 1.0 / np.sqrt(n_in)
        layers.append(
            DenseLayer(W=rng.uniform(-limit, limit, size=(size, n_in)), b=np.zeros(size))
        )
        n_in = size
    return layers


def _one_hot(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y).astype(int)
    T = np.zeros((len(y), 2))
    T[np.arange(len(y)), y] = 1.0
    return T


def finetune(stack, X: np.ndarray, y: np.ndarray, hp: Hyperparams, seed, scaler=None) -> Network:
    """Supervised training of the full network with a softmax head.

    Inverted dropout is applied to hidden activations only, resampled
    per batch; weights get L2 decay, biases do not; the learning rate
    anneals linearly to zero after the delay fraction of steps. Raises
    TrainingDiverged on a non-finite loss.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y)
    rng = as_rng(seed)
    net = build_network(stack, 2, hp, rng, scaler=scaler)
    T = _one_hot(y)
    vel_W = [np.zeros_like(l.W) for l in net.layers]
    vel_b = [np.zeros_like(l.b) for l in net.layers]
    keep = 1.0 - hp.dropout_fraction
    for epoch, batches in enumerate(_epochs(X.shape[0], hp, rng)):
        epoch_loss = 0.0
        for idx, lr in batches:
            xb, tb = X[idx], T[idx]
            masks = None
            if hp.dropout_fraction > 0.0:
                masks = [
                    (rng.random((len(idx), l.W.shape[0])) < keep) / keep
                    for l in net.layers[:-1]
                ]
            g = network_gradients(net, xb, tb, masks)
            if not np.isfinite(g.loss):
                raise TrainingDiverged(epoch, "cross-entropy loss")
            for i, layer in enumerate(net.layers):
                vel_W[i] = hp.momentum * vel_W[i] - lr * (g.weights[i] + hp.l2_weight_cost * layer.W)
                vel_b[i] = hp.momentum * vel_b[i] - lr * g.biases[i]
                layer.W += vel_W[i]
                layer.b += vel_b[i]
            epoch_loss += g.loss * len(idx)
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(epoch, "cross-entropy loss")
    return net


def network_predict(net: Network, x: np.ndarray) -> np.ndarray | float:
    """Buy-class probability for one row or a batch; no dropout, and the
    stored input scaler (when present) is applied first."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if net.scaler is not None:
        X = net.scaler.transform(X)
    expected = net.layers[0].W.shape[1]
    if X.shape[1] != expected:
        raise ValueError(f"input has {X.shape[1]} features, network expects {expected}")
    acts = _forward_hidden(net, X)
    head = net.layers[-1]
    probs = softmax(acts[-1] @ head.W.T + head.b)[:, 1]
    return float(probs[0]) if single else probs


def train_network(ds: Dataset, hp: Hyperparams, seed, make_stack) -> Network:
    """The body every network family shares: scale rows to [0,1], build
    the hidden layers with make_stack(X, hp.hidden_units, hp, seed),
    then fine-tune end to end with a softmax head. The families differ
    only in make_stack."""
    if ds.n == 0:
        raise ValueError("cannot train on an empty dataset")
    scaler = RangeScaler().fit(ds.rows)
    X = scaler.transform(ds.rows)
    stack = make_stack(X, hp.hidden_units, hp, substream_seed(seed, 1))
    return finetune(stack, X, ds.labels, hp, substream_seed(seed, 2), scaler=scaler)


def train_sda(ds: Dataset, hp: Hyperparams, seed) -> Network:
    """Hidden layers pretrained greedily as denoising autoencoders."""
    return train_network(ds, hp, seed, stack_pretrain)


def train_mlp(ds: Dataset, hp: Hyperparams, seed) -> Network:
    """Random hidden layers and no pretraining stage."""
    return train_network(ds, hp, seed, lambda X, sizes, hp, seed: init_stack(X.shape[1], sizes, hp, seed))
