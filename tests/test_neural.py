"""Autoencoder layers, hand-derived gradients, stacking, and fine-tuning.

Every gradient path is checked against central finite differences with
fresh random shapes and seeds; oracle forward passes are written with
explicit loops so a vectorization bug cannot hide in both places.
"""

from __future__ import annotations

import hashlib
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from buyintent import neural
from buyintent.dataset import Dataset, RangeScaler
from buyintent.neural import (
    ACTIVATIONS,
    BOUNDS,
    Hyperparams,
    Layer,
    Network,
    _epochs,
    _learning_rate_at,
    activate,
    activation_deriv,
    ae_layer_gradients,
    build_network,
    corrupt,
    down,
    finetune,
    init_layer,
    init_stack,
    network_gradients,
    network_predict,
    pretrain_stack,
    reconstruction_loss,
    softmax,
    train_ae_layer,
    train_mlp,
    train_sda,
    up,
)
from buyintent.util import TrainingDiverged, as_rng, sigmoid, substream_seed
from network_oracles import finetune_loop, sigmoid_masked, train_ae_layer_loop


def one_hot(y):
    return np.eye(2)[np.asarray(y, dtype=int)]


def random_layer(n_visible, n_hidden, seed=0):
    return init_layer(n_visible, n_hidden, as_rng(seed))


def ae_loss(layer, t, xc, activation="sigmoid"):
    return reconstruction_loss(t, down(layer, up(layer, xc, activation)))


def net_forward_oracle(net, X):
    """Independent forward pass: explicit loops, log-sum-exp by hand."""
    a = X
    for layer in net.layers[:-1]:
        a = activate(net.activation, a @ layer.W.T + layer.b)
    logits = a @ net.layers[-1].W.T + net.layers[-1].b
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    return logits - lse


def net_loss_oracle(net, X, T):
    return float(-np.sum(T * net_forward_oracle(net, X)) / len(X))


class TestHyperparams:
    def test_defaults_valid(self):
        hp = Hyperparams()
        assert hp.hidden_units == (64,)
        assert hp.activation == "sigmoid"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"activation": "tanh"},
            {"initial_learning_rate": 0.3},
            {"initial_learning_rate": -0.01},
            {"momentum": 0.96},
            {"l2_weight_cost": 0.02},
            {"dropout_fraction": 0.31},
            {"input_noise_level": 0.25},
            {"annealing_delay_fraction": 1.5},
            {"epochs": -1},
            {"hidden_units": ()},
            {"hidden_units": (0,)},
            *({name: float(np.nextafter(hi, np.inf))} for name, (_, hi) in BOUNDS.items()),
        ],
    )
    def test_loose_bounds_still_reject_nonsense(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparams(**kwargs)

    def test_degenerate_settings_allowed_loosely(self):
        Hyperparams(initial_learning_rate=0.0, epochs=0)

    def test_dict_round_trip(self):
        hp = Hyperparams(hidden_units=(80, 64), momentum=0.5, epochs=25)
        assert Hyperparams.from_dict(hp.to_dict()) == hp


class TestActivations:
    def test_values(self):
        assert activate("sigmoid", 0.0) == 0.5
        assert activate("relu", -2.0) == 0.0
        assert activate("relu", 3.0) == 3.0

    def test_sigmoid_deriv_from_outputs(self):
        x = np.linspace(-3, 3, 7)
        a = activate("sigmoid", x)
        assert np.allclose(activation_deriv("sigmoid", a), a * (1 - a))

    def test_relu_deriv_from_outputs(self):
        a = np.array([0.0, 0.5, 2.0])
        assert np.array_equal(activation_deriv("relu", a), [0.0, 1.0, 1.0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            activate("softsign", 0.0)
        with pytest.raises(ValueError):
            activation_deriv("softsign", np.ones(2))


SIGMOID_SPECIALS = [
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
    5e-324, -5e-324, 1e-310, -1e-310,  # subnormals
    800.0, -800.0, 745.0, -745.0, -745.2, 709.8, -709.8, 36.8, -36.8,
]

VIEWS = [
    lambda a: a,
    lambda a: a[::2],
    lambda a: a[::-1],
    lambda a: a.T,
    lambda a: a[..., ::3],
]


def bits_up_to_nan_sign(a):
    """The float64 bits of a, with the sign bit of every NaN cleared."""
    bits = np.asarray(a, dtype=np.float64).view(np.uint64)
    return np.where(np.isnan(a), bits & np.uint64(0x7FFFFFFFFFFFFFFF), bits)


class TestSigmoidAgainstMaskedOracle:
    """sigmoid equals the boolean-mask form it replaced bit for bit,
    except for the sign bit of a NaN: exp(-|x|) negates the NaN, so a
    NaN in gives a NaN out whose sign may differ from the masked form's."""

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=9),
            elements=st.one_of(
                st.sampled_from(SIGMOID_SPECIALS),
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                st.floats(-1000.0, 1000.0),
            ),
        ),
        st.sampled_from(VIEWS),
    )
    def test_equals_the_masked_oracle(self, x, view):
        x = view(x) if x.ndim else x
        got, want = sigmoid(x), sigmoid_masked(x)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(bits_up_to_nan_sign(got), bits_up_to_nan_sign(want))

    def test_scalar_in_gives_python_float_out(self):
        for x in (0.0, -3, np.float64(2.5), np.array(-1.0), np.array(800.0)):
            assert type(sigmoid(x)) is float
        assert sigmoid(0.0) == 0.5

    def test_huge_inputs_stay_finite_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sigmoid(800.0) == 1.0
            assert sigmoid(-800.0) == 0.0
            out = sigmoid(np.array([[-800.0, 800.0], [-1e308, 1e308]]))
        assert np.isfinite(out).all()


class TestEncodeDecode:
    def test_encode_matches_loop_oracle(self):
        rng = np.random.default_rng(50)
        layer = random_layer(5, 3, seed=1)
        X = rng.normal(size=(4, 5))
        got = up(layer, X)
        for r in range(4):
            for h in range(3):
                pre = sum(layer.W[h, v] * X[r, v] for v in range(5)) + layer.b[h]
                assert got[r, h] == pytest.approx(float(sigmoid(pre)), abs=1e-12)

    def test_decode_matches_loop_oracle(self):
        rng = np.random.default_rng(51)
        layer = random_layer(5, 3, seed=2)
        Y = rng.random((4, 3))
        got = down(layer, Y)
        for r in range(4):
            for v in range(5):
                pre = sum(layer.W[h, v] * Y[r, h] for h in range(3)) + layer.c[v]
                assert got[r, v] == pytest.approx(float(sigmoid(pre)), abs=1e-12)

    def test_decoder_is_sigmoid_even_for_relu_layers(self):
        layer = random_layer(4, 3, seed=3)
        y = up(layer, np.random.default_rng(0).normal(size=(2, 4)), "relu")
        z = down(layer, y)
        assert np.all((z > 0) & (z < 1))

    def test_weights_are_shared(self):
        layer = random_layer(4, 3, seed=4)
        y = np.random.default_rng(1).random((1, 3))
        before = down(layer, y)
        layer.W[:] = 0.0
        after = down(layer, y)
        assert not np.allclose(before, after)
        assert np.allclose(after, sigmoid(layer.c))

    def test_init_shapes_and_bounds(self):
        layer = random_layer(9, 4, seed=5)
        assert layer.W.shape == (4, 9)
        assert np.all(np.abs(layer.W) <= 1.0 / 3.0)
        assert np.array_equal(layer.b, np.zeros(4))
        assert np.array_equal(layer.c, np.zeros(9))


class TestCorrupt:
    def test_zero_level_copies(self):
        x = np.ones((3, 4))
        out = corrupt(x, 0.0, seed=0)
        assert np.array_equal(out, x)
        assert out is not x

    def test_only_zeroing_happens(self):
        rng = np.random.default_rng(60)
        x = rng.random((50, 20)) + 0.5
        out = corrupt(x, 0.2, seed=1)
        changed = out != x
        assert np.all(out[changed] == 0.0)

    def test_zero_fraction_near_level(self):
        x = np.ones((2000, 50))
        out = corrupt(x, 0.2, seed=2)
        frac = float(np.mean(out == 0.0))
        assert frac == pytest.approx(0.2, abs=0.005)

    def test_deterministic(self):
        x = np.ones((10, 10))
        assert np.array_equal(corrupt(x, 0.1, seed=7), corrupt(x, 0.1, seed=7))
        assert not np.array_equal(corrupt(x, 0.1, seed=7), corrupt(x, 0.1, seed=8))

    def test_level_out_of_range(self):
        with pytest.raises(ValueError, match="noise_level"):
            corrupt(np.ones(3), 0.5, seed=0)
        with pytest.raises(ValueError, match=r"noise_level must be in \[0, 0.2\]"):
            corrupt(np.ones(3), np.nextafter(BOUNDS["input_noise_level"][1], 1.0), seed=0)


class TestReconstructionLoss:
    def test_hand_example(self):
        assert reconstruction_loss([1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.25)

    def test_row_averaging(self):
        one = reconstruction_loss([[1.0, 0.0]], [[0.2, 0.9]])
        two = reconstruction_loss([[1.0, 0.0]] * 2, [[0.2, 0.9]] * 2)
        assert one == pytest.approx(two)

    def test_zero_at_equality(self):
        z = np.random.default_rng(0).random((3, 4))
        assert reconstruction_loss(z, z) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            reconstruction_loss(np.ones((2, 3)), np.ones((2, 4)))


class TestAutoencoderGradients:
    def test_perfect_reconstruction_gives_zero_gradients(self):
        layer = random_layer(6, 4, seed=10)
        xc = np.random.default_rng(11).random((5, 6))
        t = down(layer, up(layer, xc))
        g = ae_layer_gradients(layer, t, xc, "sigmoid")
        assert np.allclose(g.weights[0], 0.0, atol=1e-15)
        assert np.allclose(g.biases[0], 0.0, atol=1e-15)
        assert np.allclose(g.biases[1], 0.0, atol=1e-15)
        assert g.loss == 0.0

    def test_zero_parameter_output_bias_gradient(self):
        layer = Layer(W=np.zeros((3, 2)), b=np.zeros(3), c=np.zeros(2))
        t = np.array([[1.0, 0.0]])
        g = ae_layer_gradients(layer, t, t, "sigmoid")
        # z = 0.5 everywhere, so d_out = (0.5 - t) * 0.25
        assert np.allclose(g.biases[1], (0.5 - t[0]) * 0.25)
        assert np.allclose(g.weights[0][:, 0], 0.5 * (0.5 - 1.0) * 0.25)

    def test_loss_matches_forward_pass(self):
        layer = random_layer(5, 3, seed=12)
        x = np.random.default_rng(13).random((4, 5))
        g = ae_layer_gradients(layer, x, x, "sigmoid")
        assert g.loss == pytest.approx(ae_loss(layer, x, x))

    @pytest.mark.parametrize("activation", ["sigmoid", "relu"])
    def test_matches_central_differences(self, activation):
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            layer = random_layer(5, 4, seed=seed)
            t = rng.random((6, 5))
            xc = corrupt(t, 0.1, seed=seed)
            g = ae_layer_gradients(layer, t, xc, activation)
            eps = 1e-5
            for arr, grad in [
                (layer.W, g.weights[0]),
                (layer.b, g.biases[0]),
                (layer.c, g.biases[1]),
            ]:
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    i = it.multi_index
                    keep = arr[i]
                    arr[i] = keep + eps
                    hi = ae_loss(layer, t, xc, activation)
                    arr[i] = keep - eps
                    lo = ae_loss(layer, t, xc, activation)
                    arr[i] = keep
                    fd = (hi - lo) / (2 * eps)
                    assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-10)


class TestEpochs:
    """The minibatch schedule behind train_ae_layer, finetune and
    train_rbm; 300 rows is not a multiple of the batch size."""

    hp = Hyperparams(initial_learning_rate=0.1, epochs=3, annealing_delay_fraction=0.5)

    def test_batches_partition_the_rows_each_epoch(self):
        epochs = list(_epochs(300, self.hp, as_rng(0)))
        assert len(epochs) == 3
        for batches in epochs:
            assert [len(idx) for idx, _ in batches] == [128, 128, 44]
            assert np.array_equal(np.sort(np.concatenate([idx for idx, _ in batches])), np.arange(300))

    def test_rates_follow_the_global_step(self):
        rates = [lr for batches in _epochs(300, self.hp, as_rng(0)) for _, lr in batches]
        assert rates == [_learning_rate_at(step, 9, self.hp) for step in range(9)]
        assert rates[:5] == [0.1] * 5
        assert rates[-1] < rates[5] < 0.1

    def test_shuffle_drawn_after_the_previous_epoch_used_the_rng(self):
        rng, ref = as_rng(4), as_rng(4)
        for batches in _epochs(300, self.hp, rng):
            assert np.array_equal(np.concatenate([idx for idx, _ in batches]), ref.permutation(300))
            rng.random(7)
            ref.random(7)

    def test_zero_epochs_yield_nothing(self):
        hp = Hyperparams(epochs=0)
        assert list(_epochs(300, hp, as_rng(0))) == []


class TestTrainAeLayer:
    def make_data(self, n=20, d=6, seed=0):
        return np.random.default_rng(seed).random((n, d))

    def test_zero_learning_rate_keeps_init(self):
        X = self.make_data()
        hp = Hyperparams(initial_learning_rate=0.0, epochs=2, input_noise_level=0.0)
        layer = train_ae_layer(X, 3, hp, seed=5)
        ref = init_layer(X.shape[1], 3, as_rng(5))
        assert np.array_equal(layer.W, ref.W)
        assert np.array_equal(layer.b, ref.b)
        assert np.array_equal(layer.c, ref.c)

    def test_loss_improves(self):
        X = self.make_data(n=40)
        hp = Hyperparams(initial_learning_rate=0.2, epochs=40, input_noise_level=0.0)
        layer = train_ae_layer(X, 5, hp, seed=1)
        init = init_layer(X.shape[1], 5, as_rng(1))
        assert ae_loss(layer, X, X) < ae_loss(init, X, X)

    def test_zero_epochs_trains_nothing(self):
        X = self.make_data()
        hp = Hyperparams(epochs=0)
        layer = train_ae_layer(X, 3, hp, seed=2)
        assert np.array_equal(layer.W, init_layer(X.shape[1], 3, as_rng(2)).W)

    def test_single_step_equals_direct_update(self):
        X = self.make_data(n=10, d=5, seed=4)
        lr = 0.05
        hp = Hyperparams(initial_learning_rate=lr, epochs=1, input_noise_level=0.0)
        layer = train_ae_layer(X, 3, hp, seed=6)
        ref = init_layer(5, 3, as_rng(6))
        g = ae_layer_gradients(ref, X, X, "sigmoid")
        assert np.allclose(layer.W, ref.W - lr * g.weights[0], atol=1e-13)
        assert np.allclose(layer.b, ref.b - lr * g.biases[0], atol=1e-13)
        assert np.allclose(layer.c, ref.c - lr * g.biases[1], atol=1e-13)

    def test_l2_decay_applies_to_weights_only(self):
        X = np.zeros((4, 3))
        hp = Hyperparams(
            initial_learning_rate=0.1, epochs=1, input_noise_level=0.0, l2_weight_cost=0.01
        )
        layer = train_ae_layer(X, 2, hp, seed=3)
        ref = init_layer(3, 2, as_rng(3))
        g = ae_layer_gradients(ref, X, X, "sigmoid")
        want_W = ref.W - 0.1 * (g.weights[0] + 0.01 * ref.W)
        assert np.allclose(layer.W, want_W, atol=1e-13)
        assert np.allclose(layer.b, ref.b - 0.1 * g.biases[0], atol=1e-13)

    def test_deterministic(self):
        X = self.make_data()
        hp = Hyperparams(epochs=5, input_noise_level=0.1)
        a = train_ae_layer(X, 4, hp, seed=9)
        b = train_ae_layer(X, 4, hp, seed=9)
        c = train_ae_layer(X, 4, hp, seed=10)
        assert np.array_equal(a.W, b.W)
        assert not np.array_equal(a.W, c.W)


class TestStackPretrain:
    def test_layer_shapes_chain(self):
        X = np.random.default_rng(70).random((15, 6))
        hp = Hyperparams(epochs=2)
        stack = pretrain_stack(X, (5, 3), hp, 0, train_ae_layer, 101)
        assert [l.W.shape for l in stack] == [(5, 6), (3, 5)]

    def test_deterministic(self):
        X = np.random.default_rng(71).random((12, 4))
        hp = Hyperparams(epochs=3, input_noise_level=0.1)
        a = pretrain_stack(X, (4, 3), hp, 2, train_ae_layer, 101)
        b = pretrain_stack(X, (4, 3), hp, 2, train_ae_layer, 101)
        for la, lb in zip(a, b):
            assert np.array_equal(la.W, lb.W)

    def test_layers_differ_across_depth_seeds(self):
        X = np.random.default_rng(72).random((12, 4))
        hp = Hyperparams(epochs=1)
        stack = pretrain_stack(X, (4, 4), hp, 3, train_ae_layer, 101)
        assert not np.array_equal(stack[0].W, stack[1].W)

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_each_layer_trains_on_the_codes_below(self, activation):
        X = np.random.default_rng(73).random((14, 5))
        hp = Hyperparams(epochs=2, activation=activation, input_noise_level=0.1)
        stack = pretrain_stack(X, (4, 3), hp, 6, train_ae_layer, 101)
        first = train_ae_layer(X, 4, hp, substream_seed(6, 101, 0))
        second = train_ae_layer(up(first, X, activation), 3, hp, substream_seed(6, 101, 1))
        for got, want in zip(stack, (first, second)):
            assert np.array_equal(got.W, want.W) and np.array_equal(got.c, want.c)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        z = np.random.default_rng(80).normal(size=(6, 3)) * 5
        assert np.allclose(softmax(z).sum(axis=1), 1.0)

    def test_uniform_logits(self):
        assert np.allclose(softmax(np.zeros(2)), [0.5, 0.5])

    def test_shift_invariance(self):
        z = np.array([[1.0, -2.0, 0.5]])
        assert np.allclose(softmax(z), softmax(z + 100.0))

    def test_no_overflow_on_large_logits(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)


class TestNetworkGradients:
    def fresh_net(self, n_in=4, n_hidden=3, activation="sigmoid", seed=0):
        hp = Hyperparams(hidden_units=(n_hidden,), activation=activation)
        stack = init_stack(n_in, (n_hidden,), seed)
        return build_network(stack, 2, hp, seed + 100)

    def test_loss_matches_oracle(self):
        net = self.fresh_net()
        X = np.random.default_rng(90).random((5, 4))
        T = one_hot([0, 1, 1, 0, 1])
        g = network_gradients(net, X, T)
        assert g.loss == pytest.approx(net_loss_oracle(net, X, T), abs=1e-12)

    def test_zero_head_loss_is_log_two(self):
        net = self.fresh_net()
        net.layers[-1].W[:] = 0.0
        net.layers[-1].b[:] = 0.0
        X = np.random.default_rng(91).random((6, 4))
        T = one_hot([0, 1, 0, 1, 1, 0])
        g = network_gradients(net, X, T)
        assert g.loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_head_bias_gradient_at_uniform_output(self):
        net = self.fresh_net()
        net.layers[-1].W[:] = 0.0
        net.layers[-1].b[:] = 0.0
        T = one_hot([1, 1, 1, 0])
        X = np.random.default_rng(92).random((4, 4))
        g = network_gradients(net, X, T)
        want = (0.5 - T.mean(axis=0))
        assert np.allclose(g.biases[-1], want, atol=1e-12)

    @pytest.mark.parametrize("activation", ["sigmoid", "relu"])
    def test_matches_central_differences(self, activation):
        for seed in range(3):
            net = self.fresh_net(activation=activation, seed=seed)
            rng = np.random.default_rng(2000 + seed)
            X = rng.random((5, 4))
            T = one_hot(rng.integers(0, 2, 5))
            g = network_gradients(net, X, T)
            eps = 1e-5
            for li, layer in enumerate(net.layers):
                for arr, grad in [(layer.W, g.weights[li]), (layer.b, g.biases[li])]:
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        i = it.multi_index
                        keep = arr[i]
                        arr[i] = keep + eps
                        hi = net_loss_oracle(net, X, T)
                        arr[i] = keep - eps
                        lo = net_loss_oracle(net, X, T)
                        arr[i] = keep
                        fd = (hi - lo) / (2 * eps)
                        assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_all_ones_masks_match_no_masks(self):
        net = self.fresh_net()
        X = np.random.default_rng(93).random((5, 4))
        T = one_hot([0, 1, 0, 1, 1])
        masks = [np.ones((5, 3))]
        a = network_gradients(net, X, T)
        b = network_gradients(net, X, T, masks)
        assert np.allclose(a.weights[0], b.weights[0])
        assert np.allclose(a.weights[1], b.weights[1])

    def test_dropped_unit_gets_no_gradient(self):
        net = self.fresh_net()
        X = np.random.default_rng(94).random((5, 4))
        T = one_hot([0, 1, 0, 1, 1])
        masks = [np.ones((5, 3))]
        masks[0][:, 1] = 0.0
        g = network_gradients(net, X, T, masks)
        assert np.allclose(g.weights[0][1, :], 0.0)
        assert g.biases[0][1] == 0.0


class TestFinetune:
    def small_problem(self, n=30, seed=0):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, n)
        X = rng.random((n, 4)) * 0.2
        X[:, 0] += y * 0.8
        return X, y

    def test_zero_learning_rate_keeps_init(self):
        X, y = self.small_problem()
        hp = Hyperparams(hidden_units=(3,), initial_learning_rate=0.0, epochs=2)
        stack = init_stack(4, (3,), seed=1)
        snap = stack[0].W.copy()
        net = finetune(stack, X, y, hp, seed=9)
        assert np.array_equal(net.layers[0].W, snap)
        ref_head = build_network(init_stack(4, (3,), seed=1), 2, hp, as_rng(9))
        assert np.array_equal(net.layers[-1].W, ref_head.layers[-1].W)

    def test_input_stack_is_not_mutated(self):
        X, y = self.small_problem()
        hp = Hyperparams(hidden_units=(3,), epochs=3)
        stack = init_stack(4, (3,), seed=2)
        snap = stack[0].W.copy()
        finetune(stack, X, y, hp, seed=0)
        assert np.array_equal(stack[0].W, snap)

    def test_single_step_equals_direct_update(self):
        X, y = self.small_problem(n=12)
        lr = 0.1
        hp = Hyperparams(hidden_units=(3,), initial_learning_rate=lr, epochs=1)
        stack = init_stack(4, (3,), seed=3)
        net = finetune(stack, X, y, hp, seed=7)
        ref = build_network(init_stack(4, (3,), seed=3), 2, hp, as_rng(7))
        g = network_gradients(ref, X, one_hot(y))
        for i, layer in enumerate(ref.layers):
            assert np.allclose(net.layers[i].W, layer.W - lr * g.weights[i], atol=1e-13)
            assert np.allclose(net.layers[i].b, layer.b - lr * g.biases[i], atol=1e-13)

    def test_training_reduces_cross_entropy(self):
        X, y = self.small_problem(n=60, seed=4)
        hp = Hyperparams(hidden_units=(6,), initial_learning_rate=0.2, epochs=60)
        stack = init_stack(4, (6,), seed=5)
        before = build_network(init_stack(4, (6,), seed=5), 2, hp, as_rng(8))
        net = finetune(stack, X, y, hp, seed=8)
        assert net_loss_oracle(net, X, one_hot(y)) < net_loss_oracle(before, X, one_hot(y))

    def test_non_finite_loss_raises_training_diverged(self):
        X, y = self.small_problem(n=140)
        hp = Hyperparams(hidden_units=(3,), activation="relu", epochs=2)
        stack = [Layer(W=np.full((3, 4), 1e308), b=np.zeros(3))]
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as exc:
            finetune(stack, X + 1.0, y, hp, seed=0)
        assert exc.value.epoch == 0

    def test_dropout_changes_training(self):
        X, y = self.small_problem(n=40, seed=6)
        base = Hyperparams(hidden_units=(5,), epochs=5)
        plain = finetune(init_stack(4, (5,), seed=1), X, y, base, seed=2)
        noisy_hp = Hyperparams(hidden_units=(5,), epochs=5, dropout_fraction=0.3)
        noisy = finetune(init_stack(4, (5,), seed=1), X, y, noisy_hp, seed=2)
        assert not np.array_equal(plain.layers[0].W, noisy.layers[0].W)
        assert noisy.dropout_fraction == 0.3
        assert np.isfinite(noisy.layers[0].W).all()

    def test_deterministic(self):
        X, y = self.small_problem(n=25, seed=7)
        hp = Hyperparams(hidden_units=(4,), epochs=4, dropout_fraction=0.2)
        a = finetune(init_stack(4, (4,), seed=1), X, y, hp, seed=3)
        b = finetune(init_stack(4, (4,), seed=1), X, y, hp, seed=3)
        assert np.array_equal(a.layers[0].W, b.layers[0].W)
        assert np.array_equal(a.layers[-1].W, b.layers[-1].W)


class TestNetworkPredict:
    def test_zero_network_predicts_half(self):
        net = Network(
            layers=[
                Layer(W=np.zeros((3, 4)), b=np.zeros(3)),
                Layer(W=np.zeros((2, 3)), b=np.zeros(2)),
            ],
            activation="sigmoid",
        )
        assert network_predict(net, np.zeros(4)) == 0.5

    def test_single_row_matches_batch(self):
        hp = Hyperparams(hidden_units=(3,))
        net = build_network(init_stack(4, (3,), seed=0), 2, hp, seed=1)
        X = np.random.default_rng(0).random((5, 4))
        batch = network_predict(net, X)
        assert batch.shape == (5,)
        for i in range(5):
            one = network_predict(net, X[i])
            assert isinstance(one, float)
            assert one == pytest.approx(batch[i])

    def test_scaler_applied_before_forward(self):
        hp = Hyperparams(hidden_units=(3,))
        raw = np.random.default_rng(1).random((8, 4)) * 50.0
        scaler = RangeScaler.fit(raw)
        stack = init_stack(4, (3,), seed=0)
        with_scaler = build_network(stack, 2, hp, seed=1, scaler=scaler)
        without = build_network(init_stack(4, (3,), seed=0), 2, hp, seed=1)
        got = network_predict(with_scaler, raw)
        want = network_predict(without, scaler.transform(raw))
        assert np.allclose(got, want)

    def test_dimension_mismatch(self):
        hp = Hyperparams(hidden_units=(3,))
        net = build_network(init_stack(4, (3,), seed=0), 2, hp, seed=1)
        with pytest.raises(ValueError, match="features"):
            network_predict(net, np.zeros(6))

    def test_dict_round_trip_preserves_outputs(self):
        hp = Hyperparams(hidden_units=(3,))
        scaler = RangeScaler.fit(np.random.default_rng(2).random((6, 4)))
        net = build_network(init_stack(4, (3,), seed=3), 2, hp, seed=4, scaler=scaler)
        clone = Network.from_dict(net.to_dict())
        X = np.random.default_rng(3).random((5, 4))
        assert np.allclose(network_predict(clone, X), network_predict(net, X))

    def test_network_without_a_scaler_loads_without_one(self):
        # A saved null scaler and a missing one both load as None.
        hp = Hyperparams(hidden_units=(3,))
        net = build_network(init_stack(4, (3,), seed=3), 2, hp, seed=4)
        saved = net.to_dict()
        assert saved["scaler"] is None
        X = np.random.default_rng(3).random((5, 4))
        for d in (saved, {k: v for k, v in saved.items() if k != "scaler"}):
            clone = Network.from_dict(d)
            assert clone.scaler is None
            assert network_predict(clone, X).tobytes() == network_predict(net, X).tobytes()


class TestEndToEndTrainers:
    def test_sda_learns_the_fixture(self, balanced_dataset):
        from buyintent.evaluation import auc

        hp = Hyperparams(hidden_units=(32,), initial_learning_rate=0.25, epochs=60)
        net = train_sda(balanced_dataset, hp, seed=0)
        scores = network_predict(net, balanced_dataset.rows)
        assert auc(scores, balanced_dataset.labels) > 0.6

    def test_mlp_and_sda_share_architecture(self, balanced_dataset):
        hp = Hyperparams(hidden_units=(16, 8), epochs=2)
        sda = train_sda(balanced_dataset, hp, seed=1)
        mlp = train_mlp(balanced_dataset, hp, seed=1)
        assert [l.W.shape for l in sda.layers] == [l.W.shape for l in mlp.layers]
        assert sda.scaler is not None and mlp.scaler is not None

    def test_trainers_deterministic(self, balanced_dataset):
        hp = Hyperparams(hidden_units=(8,), epochs=3)
        a = train_sda(balanced_dataset, hp, seed=5)
        b = train_sda(balanced_dataset, hp, seed=5)
        assert np.array_equal(a.layers[0].W, b.layers[0].W)

    def test_predictions_are_probabilities(self, balanced_dataset):
        hp = Hyperparams(hidden_units=(8,), epochs=3)
        net = train_mlp(balanced_dataset, hp, seed=2)
        p = network_predict(net, balanced_dataset.rows)
        assert np.all((p >= 0) & (p <= 1))


class TestSizeCeiling:
    """train_network refuses an array past MAX_ELEMENTS before any work;
    each case below is refused by one term alone, at a ceiling of 12."""

    @pytest.mark.parametrize(
        "n, d, hidden, refused",
        [
            (3, 4, (3,), False),
            (3, 4, (4,), True),
            (2, 2, (3, 5), True),
            (1, 1, (7,), True),
            (5, 2, (3,), True),
        ],
        ids=["at-the-ceiling", "input-weights", "hidden-weights", "head-weights", "row-activations"],
    )
    def test_each_array_counts(self, monkeypatch, n, d, hidden, refused):
        monkeypatch.setattr(neural, "MAX_ELEMENTS", 12)
        ds = Dataset(rows=np.arange(n * d, dtype=float).reshape(n, d), labels=np.arange(n) % 2,
                     feature_names=[f"f{j}" for j in range(d)])
        hp = Hyperparams(hidden_units=hidden, epochs=0)
        if refused:
            monkeypatch.setattr(neural, "RangeScaler", None)
            with pytest.raises(ValueError, match=re.escape(f"hidden_units {list(hidden)} on {n} rows") + ".* more than 12$"):
                train_mlp(ds, hp, seed=0)
        else:
            assert [layer.W.shape for layer in train_mlp(ds, hp, seed=0).layers] == [(3, 4), (2, 3)]


def golden_network_ds(seed):
    """150 rows, so every epoch is one full and one short minibatch,
    with a constant, a binary and a rounded (tied) column."""
    rng = np.random.default_rng(seed)
    n, d = 150, 7
    X = rng.normal(size=(n, d))
    X[:, 1] = 2.5
    X[:, 2] = rng.integers(0, 2, n)
    X[:, 3] = np.round(X[:, 3], 1)
    y = (X[:, 0] - 0.7 * X[:, 2] + 0.5 * rng.normal(size=n) > 0).astype(np.uint8)
    return Dataset(rows=X, labels=y, feature_names=[f"f{i}" for i in range(d)], n_base_cols=d)


GOLDEN_NETWORK_HPS = [
    Hyperparams(hidden_units=(6, 4), activation="sigmoid", initial_learning_rate=0.2,
                momentum=0.5, l2_weight_cost=0.001, dropout_fraction=0.2, epochs=12,
                annealing_delay_fraction=0.5, input_noise_level=0.1),
    Hyperparams(hidden_units=(5,), activation="relu", initial_learning_rate=0.1, epochs=10),
    Hyperparams(hidden_units=(7, 3), activation="relu", initial_learning_rate=0.05,
                momentum=0.9, l2_weight_cost=0.01, dropout_fraction=0.1, epochs=8,
                annealing_delay_fraction=0.0, input_noise_level=0.2),
]

# Computed at commit 3166fb3, whose sigmoid split each array with a
# boolean mask and whose trainers re-checked their inputs on every
# minibatch. Any change to network or prediction bytes fails here.
GOLDEN_NETWORK_SHA256 = "473df58c254257a26c0e9c56df71c56fc85e7cc166ac4b2aa421a354da542937"


def test_seeded_network_grid_keeps_its_bytes():
    from buyintent.rbm import train_dbn

    h = hashlib.sha256()
    for seed in range(2):
        ds = golden_network_ds(seed)
        probe = np.random.default_rng(100 + seed).normal(scale=2.0, size=(9, ds.d))
        for hp in GOLDEN_NETWORK_HPS:
            for train in (train_sda, train_dbn, train_mlp):
                net = train(ds, hp, seed)
                h.update(json.dumps(net.to_dict(), sort_keys=True).encode())
                h.update(network_predict(net, ds.rows).tobytes())
                h.update(np.float64(network_predict(net, probe[0])).tobytes())
                # Unscaled copy with weights blown up 1000-fold, so hidden
                # pre-activations reach the saturated and underflowing
                # ends of the sigmoid (|x| of several hundred and more).
                big = Network(
                    layers=[Layer(W=1000.0 * l.W, b=1000.0 * l.b) for l in net.layers],
                    activation=net.activation,
                )
                h.update(network_predict(big, probe).tobytes())
    assert h.hexdigest() == GOLDEN_NETWORK_SHA256


def train_outcome(train, *args):
    """The parameter bytes a trainer returns, or the error it raises."""
    try:
        model = train(*args)
    except (ValueError, TrainingDiverged) as err:
        return type(err).__name__, str(err)
    layers = model.layers if isinstance(model, Network) else [model]
    return [(l.W.tobytes(), l.b.tobytes(), None if l.c is None else l.c.tobytes()) for l in layers]


@st.composite
def training_problems(draw):
    """Rows in [0, 1] (with exact 0s and 1s) whose count crosses the
    minibatch size, and settings that turn each training knob on or off."""
    n = draw(st.sampled_from([1, 2, 5, 40, 128, 129, 150, 300]))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.random((n, d))
    X[rng.random((n, d)) < 0.2] = 0.0
    X[rng.random((n, d)) < 0.1] = 1.0
    hp = Hyperparams(
        hidden_units=tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))),
        activation=draw(st.sampled_from(ACTIVATIONS)),
        initial_learning_rate=draw(st.sampled_from([0.0, 0.05, 0.25])),
        momentum=draw(st.sampled_from([0.0, 0.5, 0.9])),
        l2_weight_cost=draw(st.sampled_from([0.0, 0.001, 0.01])),
        dropout_fraction=draw(st.sampled_from([0.0, 0.1, 0.3])),
        epochs=draw(st.integers(0, 3)),
        annealing_delay_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        input_noise_level=draw(st.sampled_from([0.0, 0.1, 0.2])),
    )
    return X, hp, draw(st.integers(0, 2**16))


class TestTrainersAgainstPerBatchLoops:
    """train_ae_layer and finetune check their inputs once per stage and
    then run their step bodies unchecked; they match the loops in
    network_oracles, which check every minibatch before the same step,
    bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(training_problems())
    def test_train_ae_layer_equals_corrupt_and_ae_layer_gradients(self, problem):
        X, hp, seed = problem
        h = hp.hidden_units[0]
        assert train_outcome(train_ae_layer, X, h, hp, seed) == train_outcome(train_ae_layer_loop, X, h, hp, seed)

    @settings(max_examples=80, deadline=None)
    @given(training_problems())
    def test_finetune_equals_network_gradients(self, problem):
        X, hp, seed = problem
        y = np.random.default_rng(seed).integers(0, 2, X.shape[0])
        stack = init_stack(X.shape[1], hp.hidden_units, seed)
        got = train_outcome(finetune, stack, X, y, hp, seed + 1)
        assert got == train_outcome(finetune_loop, stack, X, y, hp, seed + 1)

    def test_autoencoder_divergence_raises_as_the_loop_does(self):
        # the one huge entry sits in whichever minibatch the shuffle puts
        # row 200 in; the loop raises at the end of that epoch, the
        # trainer at that batch, with the same epoch and text
        X = np.random.default_rng(3).random((300, 4))
        X[200, 1] = 1e200
        hp = Hyperparams(hidden_units=(3,), initial_learning_rate=0.25, momentum=0.9, epochs=3)
        with np.errstate(all="ignore"):
            got = train_outcome(train_ae_layer, X, 3, hp, 7)
            assert got == train_outcome(train_ae_layer_loop, X, 3, hp, 7)
        assert got == ("TrainingDiverged", "training diverged at epoch 0 (autoencoder reconstruction loss)")

    def test_finetune_divergence_raises_as_the_loop_does(self):
        # relu units fed rows of size 1e18 grow past float range over
        # several epochs at the largest rate and momentum
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 4)) * 1e18
        y = rng.integers(0, 2, 200)
        hp = Hyperparams(hidden_units=(4,), activation="relu", initial_learning_rate=0.25, momentum=0.95, epochs=10)
        stack = init_stack(4, (4,), 0)
        with np.errstate(all="ignore"):
            got = train_outcome(finetune, stack, X, y, hp, 0)
            assert got == train_outcome(finetune_loop, stack, X, y, hp, 0)
        assert got == ("TrainingDiverged", "training diverged at epoch 4 (cross-entropy loss)")
