"""Dataset container, binary persistence, and the two input scalers."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from buyintent.dataset import (
    Dataset,
    RangeScaler,
    Standardizer,
    dataset_header,
    load_dataset,
    save_dataset,
    scaler_from_dict,
)


def make_ds(n=6, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        rows=rng.normal(size=(n, d)),
        labels=rng.integers(0, 2, n).astype(np.uint8),
        feature_names=[f"f{i}" for i in range(d)],
        aggregation="weekly",
        category_count=3,
        seed=seed,
        n_base_cols=2,
    )


class TestDatasetInvariants:
    def test_basic_properties(self):
        ds = make_ds()
        assert ds.n == 6 and ds.d == 4

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(
                rows=np.array([[1.0, np.nan]]),
                labels=np.array([1], dtype=np.uint8),
                feature_names=["a", "b"],
            )

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(
                rows=np.zeros((2, 2)),
                labels=np.array([1], dtype=np.uint8),
                feature_names=["a", "b"],
            )

    def test_non_binary_labels(self):
        with pytest.raises(ValueError):
            Dataset(
                rows=np.zeros((1, 1)),
                labels=np.array([3], dtype=np.uint8),
                feature_names=["a"],
            )

    @pytest.mark.parametrize(
        "labels",
        [[2], [255], np.array([-1]), np.array([-1]).astype(np.uint8)],
        ids=["2", "255", "minus-one", "minus-one-wrapped"],
    )
    def test_labels_outside_zero_one_rejected(self, labels):
        with pytest.raises(ValueError, match="binary"):
            Dataset(rows=np.zeros((1, 1)), labels=labels, feature_names=["a"])

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(rows=np.zeros((1, 2)), labels=np.array([0]), feature_names=["a"])

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            Dataset(
                rows=np.zeros((1, 1)),
                labels=np.array([0]),
                feature_names=["a"],
                aggregation="daily",
            )

    def test_take_subset(self):
        ds = make_ds()
        sub = ds.take([3, 1])
        np.testing.assert_array_equal(sub.rows, ds.rows[[3, 1]])
        np.testing.assert_array_equal(sub.labels, ds.labels[[3, 1]])
        assert sub.feature_names == ds.feature_names
        assert sub.n_base_cols == ds.n_base_cols


class TestPersistence:
    def test_round_trip_values(self, tmp_path):
        ds = make_ds(seed=3)
        path = tmp_path / "d.byds"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.rows, ds.rows)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.feature_names == ds.feature_names
        assert back.aggregation == ds.aggregation
        assert back.category_count == ds.category_count
        assert back.seed == ds.seed
        assert back.n_base_cols == ds.n_base_cols

    def test_save_load_save_bit_exact(self, tmp_path):
        ds = make_ds(seed=11)
        p1, p2 = tmp_path / "a.byds", tmp_path / "b.byds"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_guard(self, tmp_path):
        path = tmp_path / "junk.byds"
        path.write_bytes(b"NOTADS\x00\x00")
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_random_round_trips(self, tmp_path):
        for seed in range(5):
            ds = make_ds(n=3 + seed, d=2 + seed, seed=seed)
            path = tmp_path / f"r{seed}.byds"
            save_dataset(ds, path)
            back = load_dataset(path)
            np.testing.assert_array_equal(back.rows, ds.rows)


    def test_header_is_dataset_header(self, tmp_path):
        ds = make_ds(seed=4)
        path = tmp_path / "h.byds"
        save_dataset(ds, path)
        data = path.read_bytes()
        end = 14 + int.from_bytes(data[6:14], "little")
        assert json.loads(data[14:end]) == dataset_header(ds)

    def test_empty_dataset_round_trips(self, tmp_path):
        path = tmp_path / "empty.byds"
        save_dataset(make_ds(n=0, d=3), path)
        back = load_dataset(path)
        assert back.rows.shape == (0, 3) and back.labels.shape == (0,)


def _broken(data: bytes, probe: str) -> bytes:
    end = 14 + int.from_bytes(data[6:14], "little")
    header, body = json.loads(data[14:end]), data[end:]
    if probe == "no-length":
        return data[:10]
    if probe == "header-past-the-end":
        return data[:end - 1]
    if probe == "labels-short":
        return data[:-1]
    if probe == "rows-short":
        return data[:end + 8]
    if probe == "not-json":
        header = "{"
    elif probe == "extra-key":
        header = {**header, "rows": 1}
    elif probe == "bool-n":
        header = {**header, "n": True}
    elif probe == "negative-d":
        header = {**header, "d": -4}
    elif probe == "float-n_base_cols":
        header = {**header, "n_base_cols": 2.0}
    elif probe == "short-feature_names":
        header = {**header, "feature_names": header["feature_names"][:-1]}
    elif probe == "string-feature_names":
        header = {**header, "feature_names": "x" * header["d"]}
    elif probe == "n-past-2-to-the-64":
        header = {**header, "n": 2**64}
    elif probe == "int-feature_name":
        header = {**header, "feature_names": [0, *header["feature_names"][1:]]}
    elif probe == "unknown-aggregation":
        header = {**header, "aggregation": "daily"}
    payload = (header if isinstance(header, str) else json.dumps(header)).encode()
    return data[:6] + len(payload).to_bytes(8, "little") + payload + body


@pytest.mark.parametrize(
    "probe",
    ["no-length", "header-past-the-end", "labels-short", "rows-short", "not-json", "extra-key", "bool-n",
     "negative-d", "float-n_base_cols", "short-feature_names", "string-feature_names", "int-feature_name",
     "unknown-aggregation", "n-past-2-to-the-64"],
)
def test_malformed_file_is_a_value_error_naming_it(tmp_path, probe):
    path = tmp_path / "bad.byds"
    save_dataset(make_ds(seed=2), path)
    path.write_bytes(_broken(path.read_bytes(), probe))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed dataset: ") as excinfo:
        load_dataset(path)
    if probe in ("labels-short", "rows-short", "n-past-2-to-the-64"):
        assert "the file ends before its" in str(excinfo.value)


class TestStandardizer:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(5)
        X = rng.normal(3.0, 2.0, size=(200, 4))
        Z = Standardizer.fit(X).transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_passthrough(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        Z = Standardizer.fit(X).transform(X)
        np.testing.assert_allclose(Z[:, 0], 0.0)
        assert np.isfinite(Z).all()

    def test_dimension_check(self):
        s = Standardizer.fit(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            s.transform(np.zeros((3, 5)))

    def test_dict_round_trip(self):
        s = Standardizer.fit(np.random.default_rng(0).normal(size=(10, 3)))
        back = scaler_from_dict(s.to_dict())
        np.testing.assert_array_equal(back.mean, s.mean)
        np.testing.assert_array_equal(back.std, s.std)


class TestRangeScaler:
    def test_maps_to_unit_interval(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 3)) * 10
        Z = RangeScaler.fit(X).transform(X)
        assert Z.min() >= 0.0 and Z.max() <= 1.0
        np.testing.assert_allclose(Z.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.max(axis=0), 1.0, atol=1e-12)

    def test_out_of_range_clipped(self):
        sc = RangeScaler.fit(np.array([[0.0], [10.0]]))
        Z = sc.transform(np.array([[-5.0], [15.0]]))
        assert Z[0, 0] == 0.0 and Z[1, 0] == 1.0

    def test_constant_column(self):
        Z = RangeScaler.fit(np.full((4, 1), 7.0)).transform(np.full((4, 1), 7.0))
        np.testing.assert_allclose(Z, 0.0)

    def test_dict_round_trip(self):
        sc = RangeScaler.fit(np.random.default_rng(1).normal(size=(8, 2)))
        back = scaler_from_dict(sc.to_dict())
        np.testing.assert_array_equal(back.lo, sc.lo)
        np.testing.assert_array_equal(back.span, sc.span)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            scaler_from_dict({"kind": "other"})
