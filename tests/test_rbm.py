"""Boltzmann machine energies, exact enumeration oracles, CD-1, stacks.

The models are kept small enough that the partition function can be
brute-forced, so probabilities and likelihoods have exact references.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buyintent.neural import Hyperparams, Layer, down, finetune, network_predict, pretrain_stack, up
from buyintent.rbm import (
    cd1_update,
    reconstruction_cross_entropy,
    train_dbn,
    train_rbm,
)
from buyintent.util import as_rng, substream_seed
from network_oracles import train_rbm_loop
from rbm_oracles import energy, exact_log_likelihood, exact_partition, free_energy, normal_init


def hand_rbm():
    """2 hidden x 2 visible with small distinct parameters."""
    return Layer(
        W=np.array([[0.5, -0.25], [0.125, 1.0]]),
        b=np.array([0.75, -0.5]),
        c=np.array([-1.0, 0.25]),
    )


def random_rbm(n_visible, n_hidden, seed, scale=0.8):
    rng = np.random.default_rng(seed)
    return Layer(
        W=rng.normal(0.0, scale, size=(n_hidden, n_visible)),
        b=rng.normal(0.0, scale, size=n_hidden),
        c=rng.normal(0.0, scale, size=n_visible),
    )


def energy_oracle(rbm, v, h):
    """Scalar-loop energy, the slow way."""
    total = 0.0
    n_hidden, n_visible = rbm.W.shape
    for i in range(n_hidden):
        total -= rbm.b[i] * h[i]
        for j in range(n_visible):
            total -= h[i] * rbm.W[i, j] * v[j]
    for j in range(n_visible):
        total -= rbm.c[j] * v[j]
    return total


def partition_oracle(rbm):
    total = 0.0
    n_hidden, n_visible = rbm.W.shape
    for v in itertools.product([0.0, 1.0], repeat=n_visible):
        for h in itertools.product([0.0, 1.0], repeat=n_hidden):
            total += math.exp(-energy(rbm, np.array(v), np.array(h)))
    return total


class TestEnergy:
    def test_hand_value(self):
        rbm = Layer(W=np.array([[2.0]]), b=np.array([1.0]), c=np.array([-1.0]))
        # -b h - c v - h W v = -1 + 1 - 2
        assert energy(rbm, np.array([1.0]), np.array([1.0])) == -2.0

    def test_all_zero_state_is_zero(self):
        rbm = hand_rbm()
        assert energy(rbm, np.zeros(2), np.zeros(2)) == 0.0

    def test_matches_scalar_loop(self):
        rbm = random_rbm(3, 2, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = (rng.random(3) < 0.5).astype(float)
            h = (rng.random(2) < 0.5).astype(float)
            assert energy(rbm, v, h) == pytest.approx(energy_oracle(rbm, v, h), abs=1e-12)

    def test_dimension_checks(self):
        rbm = hand_rbm()
        with pytest.raises(ValueError, match="units"):
            energy(rbm, np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError, match="units"):
            energy(rbm, np.zeros(2), np.zeros(3))


class TestFreeEnergy:
    def test_zero_parameters(self):
        rbm = Layer(W=np.zeros((3, 2)), b=np.zeros(3), c=np.zeros(2))
        # each hidden unit contributes softplus(0) = ln 2
        assert free_energy(rbm, np.zeros(2)) == pytest.approx(-3 * np.log(2.0))

    def test_marginalizes_hidden_states(self):
        rbm = random_rbm(3, 2, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(10):
            v = (rng.random(3) < 0.5).astype(float)
            brute = 0.0
            for h in itertools.product([0.0, 1.0], repeat=2):
                brute += math.exp(-energy(rbm, v, np.array(h)))
            assert free_energy(rbm, v) == pytest.approx(-math.log(brute), abs=1e-12)

    def test_batch_matches_single_rows(self):
        rbm = random_rbm(4, 3, seed=5)
        V = (np.random.default_rng(6).random((7, 4)) < 0.5).astype(float)
        batch = free_energy(rbm, V)
        assert batch.shape == (7,)
        for i in range(7):
            assert batch[i] == pytest.approx(free_energy(rbm, V[i]))

    def test_large_preactivations_stay_finite(self):
        rbm = Layer(W=np.array([[700.0]]), b=np.array([700.0]), c=np.array([0.0]))
        out = free_energy(rbm, np.array([1.0]))
        assert np.isfinite(out)
        assert out == pytest.approx(-1400.0)


class TestExactPartition:
    def test_zero_model_counts_states(self):
        rbm = Layer(W=np.zeros((2, 2)), b=np.zeros(2), c=np.zeros(2))
        assert exact_partition(rbm) == pytest.approx(16.0)

    def test_matches_double_loop(self):
        for seed in range(5):
            rbm = random_rbm(3, 2, seed=seed)
            assert exact_partition(rbm) == pytest.approx(partition_oracle(rbm), rel=1e-12)

    def test_free_energy_consistency(self):
        # sum over v of e^{-F(v)} must equal Z
        rbm = random_rbm(4, 3, seed=7)
        V = np.array(list(itertools.product([0.0, 1.0], repeat=4)))
        assert np.exp(-free_energy(rbm, V)).sum() == pytest.approx(
            exact_partition(rbm), rel=1e-12
        )

    def test_probabilities_sum_to_one(self):
        rbm = random_rbm(4, 2, seed=8)
        V = np.array(list(itertools.product([0.0, 1.0], repeat=4)))
        p = np.exp(-free_energy(rbm, V)) / exact_partition(rbm)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_enumeration_guard(self):
        rbm = Layer(W=np.zeros((11, 10)), b=np.zeros(11), c=np.zeros(10))
        with pytest.raises(ValueError, match="guard"):
            exact_partition(rbm)

    def test_log_likelihood_of_uniform_model(self):
        rbm = Layer(W=np.zeros((2, 3)), b=np.zeros(2), c=np.zeros(3))
        V = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        # uniform over the 8 visible states
        assert exact_log_likelihood(rbm, V) == pytest.approx(-np.log(8.0))


class TestConditionals:
    def test_hidden_probs_formula(self):
        rbm = hand_rbm()
        v = np.array([1.0, 0.0])
        want = 1.0 / (1.0 + np.exp(-(rbm.W @ v + rbm.b)))
        assert np.allclose(up(rbm, v), want)

    def test_visible_probs_formula(self):
        rbm = hand_rbm()
        h = np.array([0.0, 1.0])
        want = 1.0 / (1.0 + np.exp(-(h @ rbm.W + rbm.c)))
        assert np.allclose(down(rbm, h), want)


class TestCd1Update:
    def test_zero_learning_rate_is_identity(self):
        rbm = random_rbm(3, 2, seed=12)
        batch = (np.random.default_rng(13).random((5, 3)) < 0.5).astype(float)
        out = cd1_update(rbm, batch, learning_rate=0.0, rng=as_rng(0))
        assert np.array_equal(out.W, rbm.W)
        assert np.array_equal(out.b, rbm.b)
        assert np.array_equal(out.c, rbm.c)

    def test_returns_new_object(self):
        rbm = random_rbm(3, 2, seed=14)
        batch = np.zeros((2, 3))
        out = cd1_update(rbm, batch, learning_rate=0.1, rng=as_rng(0))
        assert out is not rbm
        assert out.W.shape == rbm.W.shape

    def test_deterministic(self):
        rbm = random_rbm(4, 3, seed=15)
        batch = (np.random.default_rng(16).random((8, 4)) < 0.5).astype(float)
        a = cd1_update(rbm, batch, 0.1, as_rng(3))
        b = cd1_update(rbm, batch, 0.1, as_rng(3))
        c = cd1_update(rbm, batch, 0.1, as_rng(4))
        assert np.array_equal(a.W, b.W)
        assert not np.array_equal(a.W, c.W)

    def test_saturated_chain_update_is_exact(self):
        # with huge symmetric weights the chain reproduces v exactly,
        # so only the hidden-probability difference term remains, and it
        # is zero too: the update must leave the model unchanged
        rbm = Layer(W=np.array([[60.0, 60.0]]), b=np.array([-30.0]), c=np.zeros(2))
        batch = np.array([[1.0, 1.0]])
        out = cd1_update(rbm, batch, learning_rate=0.5, rng=as_rng(0))
        assert np.allclose(out.W, rbm.W)
        assert np.allclose(out.b, rbm.b)
        assert np.allclose(out.c, rbm.c)

    def test_probability_inputs_accepted(self):
        rbm = random_rbm(3, 2, seed=17)
        batch = np.random.default_rng(18).random((4, 3))
        out = cd1_update(rbm, batch, 0.05, as_rng(1))
        assert np.isfinite(out.W).all()

    def test_out_of_range_inputs_rejected(self):
        # cd1_update trusts its batch; train_rbm, the stage that calls
        # it, rejects values outside [0, 1] before the first step
        hp = Hyperparams(initial_learning_rate=0.1, epochs=1)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            train_rbm(np.array([[0.0, 1.5, 0.0]]), 2, hp, seed=0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            train_rbm(np.array([[-0.1, 0.5, 0.0]]), 2, hp, seed=0)


class TestTrainRbm:
    def patterns(self):
        base = np.array(
            [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]
        )
        return np.repeat(base, 20, axis=0)

    def test_reconstruction_error_drops(self):
        X = self.patterns()
        hp = Hyperparams(initial_learning_rate=0.25, epochs=150)
        rbm = train_rbm(X, 3, hp, seed=0)
        init = normal_init(4, 3, as_rng(0))
        assert reconstruction_cross_entropy(rbm, X) < reconstruction_cross_entropy(init, X)
        assert rbm.W.shape == (3, 4)

    def test_likelihood_improves_on_toy_patterns(self):
        X = self.patterns()
        hp = Hyperparams(initial_learning_rate=0.25, epochs=200)
        init = normal_init(4, 3, as_rng(5))
        before = exact_log_likelihood(init, X)
        rbm = train_rbm(X, 3, hp, seed=5)
        assert exact_log_likelihood(rbm, X) > before

    def test_zero_epochs_returns_init(self):
        X = self.patterns()
        hp = Hyperparams(epochs=0)
        rbm = train_rbm(X, 2, hp, seed=3)
        ref = normal_init(4, 2, as_rng(3))
        assert np.array_equal(rbm.W, ref.W)

    def test_deterministic(self):
        X = self.patterns()
        hp = Hyperparams(initial_learning_rate=0.1, epochs=5)
        a = train_rbm(X, 2, hp, seed=7)
        b = train_rbm(X, 2, hp, seed=7)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.c, b.c)


def rbm_outcome(X, n_hidden, hp, seed, train):
    """The RBM's parameter bytes, or the ValueError raised instead."""
    try:
        rbm = train(X, n_hidden, hp, seed)
    except ValueError as err:
        return str(err)
    return rbm.W.tobytes(), rbm.b.tobytes(), rbm.c.tobytes()


OUT_OF_RANGE = [-1e-300, -0.5, 1.0000000000000002, 2.0, np.inf, -np.inf]


@st.composite
def rbm_problems(draw, plant_out_of_range):
    """Rows in [0, 1] with exact 0s and 1s, row counts around the
    minibatch size (zero included), and optionally one planted value
    outside [0, 1]. NaN is left out: a min/max range check passes any
    batch holding a NaN, so whether a NaN and an out-of-range value
    share a batch decides the per-batch check, and datasets reject
    non-finite rows before any trainer sees them."""
    n = draw(st.sampled_from([0, 1, 3, 64, 128, 129, 200]))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.random((n, d))
    X[rng.random((n, d)) < 0.2] = 0.0
    X[rng.random((n, d)) < 0.1] = 1.0
    if plant_out_of_range and n and draw(st.booleans()):
        X.flat[draw(st.integers(0, n * d - 1))] = draw(st.sampled_from(OUT_OF_RANGE))
    hp = Hyperparams(
        initial_learning_rate=draw(st.sampled_from([0.0, 0.1, 0.25])),
        epochs=draw(st.integers(0, 3)),
        annealing_delay_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    return X, draw(st.integers(1, 5)), hp, draw(st.integers(0, 2**16))


class TestTrainRbmChecksOnce:
    """train_rbm checks X once and then runs unchecked CD-1 steps; it
    matches a loop that checks every batch before the same cd1_update,
    bit for bit, and raises on exactly the inputs that loop raises on."""

    @settings(max_examples=100, deadline=None)
    @given(rbm_problems(plant_out_of_range=False))
    def test_equals_the_per_batch_cd1_update_loop(self, problem):
        got = rbm_outcome(*problem, train_rbm)
        assert not isinstance(got, str)
        assert got == rbm_outcome(*problem, train_rbm_loop)

    @settings(max_examples=150, deadline=None)
    @given(rbm_problems(plant_out_of_range=True))
    def test_rejects_exactly_when_the_loop_does(self, problem):
        assert rbm_outcome(*problem, train_rbm) == rbm_outcome(*problem, train_rbm_loop)

    def test_out_of_range_rejected_only_when_a_batch_trains(self):
        X = np.array([[0.0, 1.5], [0.5, 0.25]])
        hp = Hyperparams(initial_learning_rate=0.1, epochs=1)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            train_rbm(X, 2, hp, seed=0)
        untrained = train_rbm(X, 2, Hyperparams(epochs=0), seed=0)
        assert np.array_equal(untrained.W, normal_init(2, 2, as_rng(0)).W)
        empty = train_rbm(np.zeros((0, 2)), 2, hp, seed=0)
        assert empty.W.shape == (2, 2)


class TestDbn:
    def test_pretrain_shapes(self):
        X = (np.random.default_rng(30).random((30, 6)) < 0.5).astype(float)
        hp = Hyperparams(initial_learning_rate=0.1, epochs=2)
        dbn = pretrain_stack(X, (5, 3), hp, 0, train_rbm, 201)
        assert [r.W.shape for r in dbn] == [(5, 6), (3, 5)]

    def test_pretrain_deterministic(self):
        X = (np.random.default_rng(31).random((20, 4)) < 0.5).astype(float)
        hp = Hyperparams(initial_learning_rate=0.1, epochs=2)
        a = pretrain_stack(X, (3, 2), hp, 4, train_rbm, 201)
        b = pretrain_stack(X, (3, 2), hp, 4, train_rbm, 201)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.W, rb.W)

    def test_later_rbms_train_on_hidden_probabilities(self):
        X = (np.random.default_rng(34).random((20, 5)) < 0.5).astype(float)
        hp = Hyperparams(initial_learning_rate=0.1, epochs=2)
        dbn = pretrain_stack(X, (4, 3), hp, 5, train_rbm, 201)
        first = train_rbm(X, 4, hp, substream_seed(5, 201, 0))
        second = train_rbm(up(first, X), 3, hp, substream_seed(5, 201, 1))
        for got, want in zip(dbn, (first, second)):
            assert np.array_equal(got.W, want.W) and np.array_equal(got.c, want.c)

    def test_network_copies_rbm_weights(self):
        X = (np.random.default_rng(32).random((25, 5)) < 0.5).astype(float)
        y = np.random.default_rng(33).integers(0, 2, 25)
        hp = Hyperparams(hidden_units=(4,), initial_learning_rate=0.0, epochs=0)
        dbn = pretrain_stack(X, (4,), hp, 0, train_rbm, 201)
        net = finetune(dbn, X, y, hp, seed=1)
        assert np.array_equal(net.layers[0].W, dbn[0].W)
        assert np.array_equal(net.layers[0].b, dbn[0].b)
        # fine-tuning must not write back into the DBN
        hp_live = Hyperparams(hidden_units=(4,), initial_learning_rate=0.1, epochs=2)
        snap = dbn[0].W.copy()
        finetune(dbn, X, y, hp_live, seed=1)
        assert np.array_equal(dbn[0].W, snap)

    def test_network_activation_pinned_to_sigmoid(self, balanced_dataset):
        hp = Hyperparams(hidden_units=(3,), activation="relu", epochs=1)
        net = train_dbn(balanced_dataset, hp, seed=1)
        assert net.activation == "sigmoid"
        sigmoid_hp = Hyperparams(hidden_units=(3,), activation="sigmoid", epochs=1)
        assert net.to_dict() == train_dbn(balanced_dataset, sigmoid_hp, seed=1).to_dict()

    def test_train_dbn_end_to_end(self, balanced_dataset):
        hp = Hyperparams(hidden_units=(8,), initial_learning_rate=0.1, epochs=5)
        net = train_dbn(balanced_dataset, hp, seed=0)
        p = network_predict(net, balanced_dataset.rows)
        assert p.shape == (balanced_dataset.n,)
        assert np.all((p >= 0) & (p <= 1))
        again = train_dbn(balanced_dataset, hp, seed=0)
        assert np.array_equal(net.layers[0].W, again.layers[0].W)


class TestReconstructionCrossEntropy:
    def test_perfect_reconstruction_is_near_zero(self):
        rbm = Layer(
            W=np.array([[80.0, -80.0]]), b=np.array([-40.0]), c=np.array([40.0, -40.0])
        )
        # v=[1,0] drives the hidden unit on and reconstructs [1,0]
        val = reconstruction_cross_entropy(rbm, np.array([[1.0, 0.0]]))
        assert val == pytest.approx(0.0, abs=1e-6)

    def test_zero_model_gives_log2_per_unit(self):
        rbm = Layer(W=np.zeros((2, 3)), b=np.zeros(2), c=np.zeros(3))
        V = np.array([[1.0, 0.0, 1.0]])
        assert reconstruction_cross_entropy(rbm, V) == pytest.approx(3 * np.log(2.0))
