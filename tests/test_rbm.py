"""Boltzmann machine energies, exact enumeration oracles, CD-1, stacks.

The models are kept small enough that the partition function can be
brute-forced, so probabilities and likelihoods have exact references.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from buyintent.neural import Hyperparams, finetune, network_predict
from buyintent.rbm import (
    Rbm,
    cd1_update,
    dbn_pretrain,
    energy,
    exact_log_likelihood,
    exact_partition,
    free_energy,
    hidden_probs,
    init_rbm,
    reconstruction_cross_entropy,
    sample_h_given_v,
    sample_v_given_h,
    train_dbn,
    train_rbm,
    visible_probs,
)
from buyintent.util import as_rng


def hand_rbm():
    """2 hidden x 2 visible with small distinct parameters."""
    return Rbm(
        W=np.array([[0.5, -0.25], [0.125, 1.0]]),
        b=np.array([0.75, -0.5]),
        c=np.array([-1.0, 0.25]),
    )


def random_rbm(n_visible, n_hidden, seed, scale=0.8):
    rng = np.random.default_rng(seed)
    return Rbm(
        W=rng.normal(0.0, scale, size=(n_hidden, n_visible)),
        b=rng.normal(0.0, scale, size=n_hidden),
        c=rng.normal(0.0, scale, size=n_visible),
    )


def energy_oracle(rbm, v, h):
    """Scalar-loop energy, the slow way."""
    total = 0.0
    for i in range(rbm.n_hidden):
        total -= rbm.b[i] * h[i]
        for j in range(rbm.n_visible):
            total -= h[i] * rbm.W[i, j] * v[j]
    for j in range(rbm.n_visible):
        total -= rbm.c[j] * v[j]
    return total


def partition_oracle(rbm):
    total = 0.0
    for v in itertools.product([0.0, 1.0], repeat=rbm.n_visible):
        for h in itertools.product([0.0, 1.0], repeat=rbm.n_hidden):
            total += math.exp(-energy(rbm, np.array(v), np.array(h)))
    return total


class TestEnergy:
    def test_hand_value(self):
        rbm = Rbm(W=np.array([[2.0]]), b=np.array([1.0]), c=np.array([-1.0]))
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
        rbm = Rbm(W=np.zeros((3, 2)), b=np.zeros(3), c=np.zeros(2))
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
        rbm = Rbm(W=np.array([[700.0]]), b=np.array([700.0]), c=np.array([0.0]))
        out = free_energy(rbm, np.array([1.0]))
        assert np.isfinite(out)
        assert out == pytest.approx(-1400.0)


class TestExactPartition:
    def test_zero_model_counts_states(self):
        rbm = Rbm(W=np.zeros((2, 2)), b=np.zeros(2), c=np.zeros(2))
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
        rbm = Rbm(W=np.zeros((11, 10)), b=np.zeros(11), c=np.zeros(10))
        with pytest.raises(ValueError, match="guard"):
            exact_partition(rbm)

    def test_log_likelihood_of_uniform_model(self):
        rbm = Rbm(W=np.zeros((2, 3)), b=np.zeros(2), c=np.zeros(3))
        V = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        # uniform over the 8 visible states
        assert exact_log_likelihood(rbm, V) == pytest.approx(-np.log(8.0))


class TestConditionals:
    def test_hidden_probs_formula(self):
        rbm = hand_rbm()
        v = np.array([1.0, 0.0])
        want = 1.0 / (1.0 + np.exp(-(rbm.W @ v + rbm.b)))
        assert np.allclose(hidden_probs(rbm, v), want)

    def test_visible_probs_formula(self):
        rbm = hand_rbm()
        h = np.array([0.0, 1.0])
        want = 1.0 / (1.0 + np.exp(-(h @ rbm.W + rbm.c)))
        assert np.allclose(visible_probs(rbm, h), want)

    def test_sampling_matches_probabilities(self):
        rbm = random_rbm(3, 2, seed=9, scale=0.5)
        v = np.array([1.0, 0.0, 1.0])
        draws = np.stack(
            [sample_h_given_v(rbm, v, seed=k) for k in range(4000)]
        )
        freq = draws.mean(axis=0)
        assert np.allclose(freq, hidden_probs(rbm, v), atol=0.03)

    def test_saturated_units_sample_deterministically(self):
        rbm = Rbm(W=np.array([[50.0], [-50.0]]), b=np.zeros(2), c=np.zeros(1))
        h = sample_h_given_v(rbm, np.array([1.0]), seed=0)
        assert np.array_equal(h, [1.0, 0.0])
        v = sample_v_given_h(
            Rbm(W=np.array([[50.0]]), b=np.zeros(1), c=np.zeros(1)),
            np.array([1.0]),
            seed=0,
        )
        assert v[0] == 1.0

    def test_samples_are_binary_and_seeded(self):
        rbm = random_rbm(4, 3, seed=10)
        V = (np.random.default_rng(11).random((6, 4)) < 0.5).astype(float)
        a = sample_h_given_v(rbm, V, seed=5)
        b = sample_h_given_v(rbm, V, seed=5)
        c = sample_h_given_v(rbm, V, seed=6)
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestCd1Update:
    def test_zero_learning_rate_is_identity(self):
        rbm = random_rbm(3, 2, seed=12)
        batch = (np.random.default_rng(13).random((5, 3)) < 0.5).astype(float)
        out = cd1_update(rbm, batch, learning_rate=0.0, seed=0)
        assert np.array_equal(out.W, rbm.W)
        assert np.array_equal(out.b, rbm.b)
        assert np.array_equal(out.c, rbm.c)

    def test_returns_new_object(self):
        rbm = random_rbm(3, 2, seed=14)
        batch = np.zeros((2, 3))
        out = cd1_update(rbm, batch, learning_rate=0.1, seed=0)
        assert out is not rbm
        assert out.W.shape == rbm.W.shape

    def test_deterministic(self):
        rbm = random_rbm(4, 3, seed=15)
        batch = (np.random.default_rng(16).random((8, 4)) < 0.5).astype(float)
        a = cd1_update(rbm, batch, 0.1, seed=3)
        b = cd1_update(rbm, batch, 0.1, seed=3)
        c = cd1_update(rbm, batch, 0.1, seed=4)
        assert np.array_equal(a.W, b.W)
        assert not np.array_equal(a.W, c.W)

    def test_saturated_chain_update_is_exact(self):
        # with huge symmetric weights the chain reproduces v exactly,
        # so only the hidden-probability difference term remains, and it
        # is zero too: the update must leave the model unchanged
        rbm = Rbm(W=np.array([[60.0, 60.0]]), b=np.array([-30.0]), c=np.zeros(2))
        batch = np.array([[1.0, 1.0]])
        out = cd1_update(rbm, batch, learning_rate=0.5, seed=0)
        assert np.allclose(out.W, rbm.W)
        assert np.allclose(out.b, rbm.b)
        assert np.allclose(out.c, rbm.c)

    def test_probability_inputs_accepted(self):
        rbm = random_rbm(3, 2, seed=17)
        batch = np.random.default_rng(18).random((4, 3))
        out = cd1_update(rbm, batch, 0.05, seed=1)
        assert np.isfinite(out.W).all()

    def test_out_of_range_inputs_rejected(self):
        rbm = random_rbm(3, 2, seed=19)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            cd1_update(rbm, np.array([[0.0, 1.5, 0.0]]), 0.1, seed=0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            cd1_update(rbm, np.array([[-0.1, 0.5, 0.0]]), 0.1, seed=0)

    def test_empty_batch_rejected(self):
        rbm = random_rbm(3, 2, seed=20)
        with pytest.raises(ValueError, match="non-empty"):
            cd1_update(rbm, np.zeros((0, 3)), 0.1, seed=0)


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
        init = init_rbm(4, 3, as_rng(0))
        assert reconstruction_cross_entropy(rbm, X) < reconstruction_cross_entropy(init, X)
        assert rbm.W.shape == (3, 4)

    def test_likelihood_improves_on_toy_patterns(self):
        X = self.patterns()
        hp = Hyperparams(initial_learning_rate=0.25, epochs=200)
        init = init_rbm(4, 3, as_rng(5))
        before = exact_log_likelihood(init, X)
        rbm = train_rbm(X, 3, hp, seed=5)
        assert exact_log_likelihood(rbm, X) > before

    def test_zero_epochs_returns_init(self):
        X = self.patterns()
        hp = Hyperparams(epochs=0)
        rbm = train_rbm(X, 2, hp, seed=3)
        ref = init_rbm(4, 2, as_rng(3))
        assert np.array_equal(rbm.W, ref.W)

    def test_deterministic(self):
        X = self.patterns()
        hp = Hyperparams(initial_learning_rate=0.1, epochs=5)
        a = train_rbm(X, 2, hp, seed=7)
        b = train_rbm(X, 2, hp, seed=7)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.c, b.c)


class TestDbn:
    def test_pretrain_shapes(self):
        X = (np.random.default_rng(30).random((30, 6)) < 0.5).astype(float)
        hp = Hyperparams(initial_learning_rate=0.1, epochs=2)
        dbn = dbn_pretrain(X, (5, 3), hp, seed=0)
        assert [(r.n_hidden, r.n_visible) for r in dbn] == [(5, 6), (3, 5)]

    def test_pretrain_deterministic(self):
        X = (np.random.default_rng(31).random((20, 4)) < 0.5).astype(float)
        hp = Hyperparams(initial_learning_rate=0.1, epochs=2)
        a = dbn_pretrain(X, (3, 2), hp, seed=4)
        b = dbn_pretrain(X, (3, 2), hp, seed=4)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.W, rb.W)

    def test_network_copies_rbm_weights(self):
        X = (np.random.default_rng(32).random((25, 5)) < 0.5).astype(float)
        y = np.random.default_rng(33).integers(0, 2, 25)
        hp = Hyperparams(hidden_units=(4,), initial_learning_rate=0.0, epochs=0)
        dbn = dbn_pretrain(X, (4,), hp, seed=0)
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
        rbm = Rbm(
            W=np.array([[80.0, -80.0]]), b=np.array([-40.0]), c=np.array([40.0, -40.0])
        )
        # v=[1,0] drives the hidden unit on and reconstructs [1,0]
        val = reconstruction_cross_entropy(rbm, np.array([[1.0, 0.0]]))
        assert val == pytest.approx(0.0, abs=1e-6)

    def test_zero_model_gives_log2_per_unit(self):
        rbm = Rbm(W=np.zeros((2, 3)), b=np.zeros(2), c=np.zeros(3))
        V = np.array([[1.0, 0.0, 1.0]])
        assert reconstruction_cross_entropy(rbm, V) == pytest.approx(3 * np.log(2.0))
