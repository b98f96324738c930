"""Tied-weight denoising autoencoders, greedy stacking, and supervised
fine-tuning with a softmax head. One Layer record with one up map and
one down map serves the autoencoder, the RBM (rbm.py) and the network.

All gradients here are derived by hand and checked against central
finite differences in the test suite; no autodiff anywhere. The encoder
and decoder of an autoencoder layer share one matrix, so its gradient
accumulates both roles. The reconstruction output is always a sigmoid,
which keeps least-squares targets in (0,1) after inputs are scaled to
[0,1]; the hidden activation may be sigmoid or relu.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, RangeScaler, scaler_from_dict
from .util import TrainingDiverged, as_rng, check_epochs, relu, sigmoid, substream_seed

BATCH_SIZE = 128

ACTIVATIONS = ("sigmoid", "relu")

# the most units a hidden layer may have under search
MAX_UNITS = 500

# the most elements train_network lets one array hold: a layer's n_in x
# n_out weights, or every row's activations at the widest hidden layer
MAX_ELEMENTS = 2**28

# each float hyperparameter's search range [lo, hi]; Hyperparams accepts
# [0, hi], so a zero learning rate stays usable in tests and baselines
BOUNDS = {
    "initial_learning_rate": (0.001, 0.25),
    "momentum": (0.0, 0.95),
    "l2_weight_cost": (0.0, 0.01),
    "dropout_fraction": (0.0, 0.3),
    "annealing_delay_fraction": (0.0, 1.0),
    "input_noise_level": (0.0, 0.2),
}


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs for the autoencoder and network trainers. The
    constructor checks only loose sanity; the depth-dependent rules of
    the search space live in evaluation.SearchSpace.sample."""

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
        for name, (_, hi) in BOUNDS.items():
            val = getattr(self, name)
            if not 0.0 <= val <= hi:
                raise ValueError(f"{name} must be in [0.0, {hi}], got {val}")
        check_epochs(self.epochs)

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
class Layer:
    """One layer of weights, shared by the autoencoder, the RBM and the
    network: W is hidden x visible, b the hidden bias and c the visible
    bias (an RBM's c, an autoencoder's decoder bias). Only pretraining
    reads c; a Network uses and saves W and b alone."""

    W: np.ndarray
    b: np.ndarray
    c: np.ndarray | None = None


def init_layer(n_in: int, n_out: int, rng) -> Layer:
    """W drawn uniform in +-1/sqrt(n_in), both biases zero."""
    limit = 1.0 / np.sqrt(n_in)
    W = rng.uniform(-limit, limit, size=(n_out, n_in))
    return Layer(W=W, b=np.zeros(n_out), c=np.zeros(n_in))


def up(layer: Layer, x: np.ndarray, activation: str = "sigmoid") -> np.ndarray:
    """Hidden activations of visible rows: act(x W' + b)."""
    return activate(activation, x @ layer.W.T + layer.b)


def down(layer: Layer, h: np.ndarray) -> np.ndarray:
    """Visible probabilities of hidden rows through the same W:
    sigmoid(h W + c)."""
    return sigmoid(h @ layer.W + layer.c)


def corrupt(x: np.ndarray, noise_level: float, seed) -> np.ndarray:
    """Masking noise: zero each coordinate independently with the given
    probability. Levels above the input_noise_level bound are outside
    the supported range."""
    hi = BOUNDS["input_noise_level"][1]
    if not 0.0 <= noise_level <= hi:
        raise ValueError(f"noise_level must be in [0, {hi}], got {noise_level}")
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
    return float(0.5 * ((t - z) ** 2).sum() / t.shape[0])


@dataclass(eq=False)
class GradientSet:
    """Per-parameter gradients plus the loss they were taken at.

    For an autoencoder layer: weights = [grad of the tied W] and
    biases = [grad b, grad c]. For a network: one entry per layer,
    output head last.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    loss: float


def ae_layer_gradients(layer: Layer, t: np.ndarray, xc: np.ndarray, activation: str) -> GradientSet:
    """Batch-averaged gradients of the reconstruction loss of target
    rows t from corrupted rows xc, both 2-D float of the layer's width.

    Forward: y from the corrupted input, z from y. The output delta is
    (z - t) z (1 - z); the hidden delta backpropagates through the
    decoder copy of W and the hidden activation derivative. W collects
    its decoder-role term y'd_out plus its encoder-role term d_hid'x.
    """
    n = t.shape[0]
    y = up(layer, xc, activation)
    z = down(layer, y)
    d_out = (z - t) * z * (1.0 - z)
    d_hid = (d_out @ layer.W.T) * activation_deriv(activation, y)
    grad_W = (y.T @ d_out + d_hid.T @ xc) / n
    grad_b = d_hid.sum(axis=0) / n
    grad_c = d_out.sum(axis=0) / n
    return GradientSet(
        weights=[grad_W],
        biases=[grad_b, grad_c],
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


def _descend(weights, biases, n: int, hp: Hyperparams, rng, step, what: str) -> None:
    """Momentum SGD over _epochs(n, hp, rng), shared by train_ae_layer and
    finetune: step(idx) returns batch idx's GradientSet (drawing its noise
    from rng), which moves weights (with L2 decay) and biases in place. A
    non-finite batch or epoch loss raises TrainingDiverged(epoch, what)."""
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    for epoch, batches in enumerate(_epochs(n, hp, rng)):
        epoch_loss = 0.0
        for idx, lr in batches:
            g = step(idx)
            if not np.isfinite(g.loss):
                raise TrainingDiverged(epoch, what)
            for i, w in enumerate(weights):
                vel_w[i] = hp.momentum * vel_w[i] - lr * (g.weights[i] + hp.l2_weight_cost * w)
                w += vel_w[i]
            for i, b in enumerate(biases):
                vel_b[i] = hp.momentum * vel_b[i] - lr * g.biases[i]
                b += vel_b[i]
            epoch_loss += g.loss * len(idx)
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(epoch, what)


def train_ae_layer(X: np.ndarray, n_hidden: int, hp: Hyperparams, seed) -> Layer:
    """Denoising SGD training of one tied layer. Corruption is resampled
    for every presentation of every batch; a non-finite loss raises
    TrainingDiverged.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rng = as_rng(seed)
    layer = init_layer(X.shape[1], n_hidden, rng)

    def step(idx):
        xb = X[idx]
        return ae_layer_gradients(layer, xb, corrupt(xb, hp.input_noise_level, rng), hp.activation)

    _descend([layer.W], [layer.b, layer.c], X.shape[0], hp, rng, step, "autoencoder reconstruction loss")
    return layer


def pretrain_stack(X: np.ndarray, layer_sizes, hp: Hyperparams, seed, train_layer, key) -> list[Layer]:
    """Greedy layer-wise pretraining, the one loop SDA and DBN share:
    layer k is train_layer(codes, size, hp, substream_seed(seed, key, k))
    on the clean codes of the layers below (X for the first), and its
    codes go up through up(layer, codes, hp.activation). train_dbn pins
    hp.activation to sigmoid, so RBM codes are hidden probabilities."""
    codes = np.atleast_2d(np.asarray(X, dtype=float))
    layers: list[Layer] = []
    for k, size in enumerate(layer_sizes):
        layers.append(train_layer(codes, size, hp, substream_seed(seed, key, k)))
        codes = up(layers[-1], codes, hp.activation)
    return layers


def softmax(logits: np.ndarray) -> np.ndarray:
    a = np.asarray(logits, dtype=float)
    shifted = a - np.max(a, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


@dataclass(eq=False)
class Network:
    """Feed-forward classifier: hidden layers plus a 2-class softmax
    head. Index 1 of the output is the buy class."""

    layers: list[Layer]
    activation: str
    scaler: RangeScaler | None = None
    dropout_fraction: float = 0.0

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
                Layer(W=np.array(l["W"], dtype=float), b=np.array(l["b"], dtype=float))
                for l in d["layers"]
            ],
            activation=d["activation"],
            scaler=scaler_from_dict(d.get("scaler")),
            dropout_fraction=d.get("dropout_fraction", 0.0),
        )


def _forward_hidden(net: Network, X: np.ndarray, masks=None) -> list[np.ndarray]:
    """Activations per layer, input first, last hidden last."""
    acts = [X]
    for i, layer in enumerate(net.layers[:-1]):
        a = up(layer, acts[-1], net.activation)
        if masks is not None:
            a = a * masks[i]
        acts.append(a)
    return acts


def network_gradients(net: Network, X: np.ndarray, T: np.ndarray, masks=None) -> GradientSet:
    """Gradients of the mean cross-entropy between softmax outputs and
    one-hot targets T, for 2-D float rows X of the network's width. The
    output delta is exactly (z - t) scaled by the batch size; hidden
    deltas chain through the activation derivative. Dropout masks, when
    given, scale hidden activations (already inverted) and gate the
    corresponding deltas.
    """
    n = X.shape[0]
    acts = _forward_hidden(net, X, masks)
    head = net.layers[-1]
    logits = acts[-1] @ head.W.T + head.b
    logp = _log_softmax(logits)
    loss = float(-(T * logp).sum() / n)
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
    fresh) hidden layers and a newly initialized softmax head."""
    if not stack:
        raise ValueError("network needs at least one hidden layer")
    layers = [Layer(W=l.W.copy(), b=l.b.copy()) for l in stack]
    layers.append(init_layer(layers[-1].W.shape[0], n_classes, as_rng(seed)))
    return Network(
        layers=layers,
        activation=hp.activation,
        scaler=scaler,
        dropout_fraction=hp.dropout_fraction,
    )


def init_stack(n_visible: int, layer_sizes, seed) -> list[Layer]:
    """Randomly initialized hidden layers with the same shapes a
    pretrained stack would have; the no-pretraining baseline."""
    rng = as_rng(seed)
    sizes = [n_visible, *layer_sizes]
    return [init_layer(n_in, n_out, rng) for n_in, n_out in zip(sizes, sizes[1:])]


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
    rng = as_rng(seed)
    net = build_network(stack, 2, hp, rng, scaler=scaler)
    T = _one_hot(y)
    keep = 1.0 - hp.dropout_fraction

    def step(idx):
        masks = None
        if hp.dropout_fraction > 0.0:
            masks = [(rng.random((len(idx), l.W.shape[0])) < keep) / keep for l in net.layers[:-1]]
        return network_gradients(net, X[idx], T[idx], masks)

    _descend([l.W for l in net.layers], [l.b for l in net.layers], X.shape[0], hp, rng, step, "cross-entropy loss")
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
    only in make_stack. Sizes past MAX_ELEMENTS are refused before any
    allocation."""
    if ds.n == 0:
        raise ValueError("cannot train on an empty dataset")
    sizes = [ds.d, *hp.hidden_units, 2]
    largest = max([n_in * n_out for n_in, n_out in zip(sizes, sizes[1:])] + [ds.n * max(hp.hidden_units)])
    if largest > MAX_ELEMENTS:
        raise ValueError(
            f"hidden_units {list(hp.hidden_units)} on {ds.n} rows of {ds.d} columns need an array of "
            f"{largest} elements, more than {MAX_ELEMENTS}"
        )
    scaler = RangeScaler().fit(ds.rows)
    X = scaler.transform(ds.rows)
    stack = make_stack(X, hp.hidden_units, hp, substream_seed(seed, 1))
    return finetune(stack, X, ds.labels, hp, substream_seed(seed, 2), scaler=scaler)


def train_sda(ds: Dataset, hp: Hyperparams, seed) -> Network:
    """Hidden layers pretrained greedily as denoising autoencoders."""
    return train_network(ds, hp, seed, functools.partial(pretrain_stack, train_layer=train_ae_layer, key=101))


def train_mlp(ds: Dataset, hp: Hyperparams, seed) -> Network:
    """Random hidden layers and no pretraining stage."""
    return train_network(ds, hp, seed, lambda X, sizes, hp, seed: init_stack(X.shape[1], sizes, seed))
