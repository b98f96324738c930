"""Multiplicative-update factorization: monotonicity, recovery, reduction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buyintent import nmf
from buyintent.nmf import MAX_ITERS, nmf_factorize, nmf_transform, reduce_dataset
from buyintent.dataset import Dataset
from io_oracles import nmf_transform_loop


def random_nonneg(rng, n, d):
    return rng.random((n, d)) * rng.integers(1, 5)


class Started(Exception):
    pass


def _no_sweeps(seed):
    # both functions draw their initial factors right after their checks
    raise Started


@pytest.mark.parametrize("fn", [nmf_factorize, nmf_transform], ids=["factorize", "transform"])
class TestSweepCeiling:
    def call(self, fn, max_iters):
        V = np.ones((4, 3))
        if fn is nmf_factorize:
            return fn(V, rank=1, seed=0, max_iters=max_iters, tol=-np.inf)
        return fn(V, np.ones((1, 3)), seed=0, max_iters=max_iters, tol=-np.inf)

    @pytest.mark.parametrize("max_iters", [MAX_ITERS + 1, 10**12])
    def test_past_the_ceiling_is_refused_before_any_sweep(self, monkeypatch, fn, max_iters):
        monkeypatch.setattr(nmf, "as_rng", _no_sweeps)
        with pytest.raises(ValueError, match=f"^max_iters must be at most {MAX_ITERS}, got {max_iters}$"):
            self.call(fn, max_iters)

    def test_the_ceiling_itself_is_accepted(self, monkeypatch, fn):
        monkeypatch.setattr(nmf, "as_rng", _no_sweeps)
        with pytest.raises(Started):
            self.call(fn, MAX_ITERS)


class TestFactorize:
    def test_error_trace_never_increases(self):
        rng = np.random.default_rng(90)
        for trial in range(10):
            V = random_nonneg(rng, 12, 9)
            out = nmf_factorize(V, rank=3, seed=trial, max_iters=200)
            trace = np.array(out.error_trace)
            assert np.all(np.diff(trace) <= 1e-10)

    def test_rank_one_product_recovered(self):
        rng = np.random.default_rng(4)
        w = rng.random(15) + 0.1
        h = rng.random(8) + 0.1
        V = np.outer(w, h)
        out = nmf_factorize(V, rank=1, seed=0, max_iters=500, tol=0.0)
        assert out.error < 1e-6

    def test_factors_stay_nonnegative(self):
        rng = np.random.default_rng(5)
        V = rng.random((10, 7))
        out = nmf_factorize(V, rank=4, seed=1)
        assert np.all(out.W >= 0)
        assert np.all(out.H >= 0)

    def test_shapes_and_iteration_count(self):
        V = np.random.default_rng(6).random((9, 5))
        out = nmf_factorize(V, rank=2, seed=3, max_iters=50)
        assert out.W.shape == (9, 2)
        assert out.H.shape == (2, 5)
        assert out.rank == 2
        assert 1 <= out.n_iters <= 50
        assert len(out.error_trace) == out.n_iters + 1

    def test_error_property_is_final_trace_entry(self):
        V = np.random.default_rng(7).random((6, 6))
        out = nmf_factorize(V, rank=2, seed=0)
        assert out.error == out.error_trace[-1]

    def test_same_seed_same_factors(self):
        V = np.random.default_rng(8).random((8, 8))
        a = nmf_factorize(V, rank=3, seed=42)
        b = nmf_factorize(V, rank=3, seed=42)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.H, b.H)

    def test_different_seed_differs(self):
        V = np.random.default_rng(8).random((8, 8))
        a = nmf_factorize(V, rank=3, seed=1)
        b = nmf_factorize(V, rank=3, seed=2)
        assert not np.array_equal(a.W, b.W)

    def test_tol_zero_runs_to_max_iters(self):
        V = np.random.default_rng(9).random((6, 4))
        out = nmf_factorize(V, rank=2, seed=0, max_iters=37, tol=0.0)
        assert out.n_iters == 37

    def test_negative_entries_rejected(self):
        V = np.array([[1.0, -0.5], [0.0, 2.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            nmf_factorize(V, rank=1, seed=0)

    def test_bad_rank_rejected(self):
        V = np.ones((4, 3))
        with pytest.raises(ValueError, match="rank"):
            nmf_factorize(V, rank=0, seed=0)
        with pytest.raises(ValueError, match="rank"):
            nmf_factorize(V, rank=4, seed=0)

    @pytest.mark.parametrize("max_iters", [0, -5])
    def test_no_sweeps_rejected(self, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            nmf_factorize(np.ones((4, 3)), rank=1, seed=0, max_iters=max_iters)

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError, match="matrix"):
            nmf_factorize(np.ones(5), rank=1, seed=0)

    def test_zero_matrix_is_fixed_point(self):
        out = nmf_factorize(np.zeros((5, 4)), rank=2, seed=0, max_iters=20)
        assert out.error <= 1e-8


class TestTransform:
    def test_projection_approximates_held_out_rows(self):
        rng = np.random.default_rng(21)
        W_true = rng.random((30, 3))
        H_true = rng.random((3, 10))
        V = W_true @ H_true
        fit = nmf_factorize(V[:20], rank=3, seed=0, max_iters=500, tol=0.0)
        W_new = nmf_transform(V[20:], fit.H, seed=1, max_iters=500, tol=0.0)
        recon = W_new @ fit.H
        rel = np.linalg.norm(recon - V[20:]) / np.linalg.norm(V[20:])
        assert rel < 0.05

    def test_holds_h_fixed(self):
        rng = np.random.default_rng(22)
        V = rng.random((10, 6))
        fit = nmf_factorize(V, rank=2, seed=0)
        H_before = fit.H.copy()
        nmf_transform(V, fit.H, seed=5)
        assert np.array_equal(fit.H, H_before)

    @pytest.mark.parametrize("max_iters", [0, -5])
    def test_no_sweeps_rejected(self, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            nmf_transform(np.ones((3, 5)), np.ones((2, 5)), seed=0, max_iters=max_iters)

    def test_negative_entries_rejected(self):
        V = np.array([[1.0, -0.5], [0.0, 2.0]])
        with pytest.raises(ValueError, match="^V must be nonnegative$"):
            nmf_transform(V, np.ones((1, 2)), seed=0)

    def test_column_mismatch_rejected(self):
        H = np.ones((2, 6))
        with pytest.raises(ValueError, match="columns"):
            nmf_transform(np.ones((3, 5)), H, seed=0)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 25),
        d=st.integers(1, 10),
        rank=st.integers(1, 8),
        zeros=st.sampled_from([0.0, 0.5, 1.0]),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
        max_iters=st.integers(1, 80),
        tol=st.sampled_from([0.0, 1e-5, 1e-2, 0.5, 1.0, -np.inf]),
    )
    @example(n=12, d=6, rank=3, zeros=0.0, data_seed=1, seed=2, max_iters=1, tol=1e-5)
    @example(n=12, d=6, rank=3, zeros=0.0, data_seed=1, seed=2, max_iters=80, tol=1.0)  # stops after one sweep
    @example(n=12, d=6, rank=3, zeros=1.0, data_seed=1, seed=2, max_iters=80, tol=1e-5)  # V = 0
    def test_bytes_equal_the_recomputing_loop(self, n, d, rank, zeros, data_seed, seed, max_iters, tol):
        rng = np.random.default_rng(data_seed)
        V = rng.uniform(0.0, 3.0, size=(n, d)) * (rng.random((n, d)) >= zeros)
        H = rng.uniform(0.0, 1.0, size=(rank, d))
        got = nmf_transform(V, H, seed, max_iters=max_iters, tol=tol)
        want = nmf_transform_loop(V, H, seed, max_iters=max_iters, tol=tol)
        assert got.tobytes() == want.tobytes()

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        V = rng.random((7, 5))
        H = rng.random((2, 5))
        a = nmf_transform(V, H, seed=9)
        b = nmf_transform(V, H, seed=9)
        assert np.array_equal(a, b)


class TestReduceDataset:
    def make_ds(self, n=20, n_agg=12, seed=0):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(n, 3))
        agg = rng.integers(0, 4, size=(n, n_agg)).astype(float)
        names = ["f_a", "f_b", "f_c"] + [f"agg_{i}" for i in range(n_agg)]
        return Dataset(
            rows=np.hstack([base, agg]),
            labels=(rng.random(n) < 0.4).astype(np.uint8),
            feature_names=names,
            aggregation="weekly",
            category_count=n_agg,
            n_base_cols=3,
        )

    def test_reduces_aggregation_columns_only(self):
        ds = self.make_ds()
        reduced, factors = reduce_dataset(ds, rank=4, seed=0)
        assert reduced.d == 3 + 4
        assert reduced.feature_names == ["f_a", "f_b", "f_c", "nmf_0", "nmf_1", "nmf_2", "nmf_3"]
        assert np.array_equal(reduced.rows[:, :3], ds.rows[:, :3])
        assert np.array_equal(reduced.rows[:, 3:], factors.W)
        assert np.array_equal(reduced.labels, ds.labels)
        assert reduced.n_base_cols == 3

    def test_metadata_carried_over(self):
        ds = self.make_ds()
        reduced, _ = reduce_dataset(ds, rank=2, seed=0)
        assert reduced.aggregation == ds.aggregation
        assert reduced.category_count == ds.category_count

    def test_without_aggregation_columns_rejected(self):
        ds = self.make_ds()
        flat = Dataset(
            rows=ds.rows,
            labels=ds.labels,
            feature_names=ds.feature_names,
            aggregation=ds.aggregation,
            category_count=ds.category_count,
            n_base_cols=ds.d,
        )
        with pytest.raises(ValueError, match="no aggregation columns"):
            reduce_dataset(flat, rank=2, seed=0)

    def test_deterministic(self):
        ds = self.make_ds()
        a, _ = reduce_dataset(ds, rank=3, seed=17)
        b, _ = reduce_dataset(ds, rank=3, seed=17)
        assert np.array_equal(a.rows, b.rows)

    def test_on_featurized_fixture(self, feature_dataset):
        reduced, factors = reduce_dataset(feature_dataset, rank=5, seed=2)
        assert reduced.d == feature_dataset.n_base_cols + 5
        assert factors.W.shape == (feature_dataset.n, 5)
        trace = np.array(factors.error_trace)
        assert np.all(np.diff(trace) <= 1e-8 + 1e-10 * trace[:-1])
