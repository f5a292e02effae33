"""Dataset IO, validation, normalization, and the synthetic generator."""

import json

import numpy as np
import pytest

from mvsc.data import (
    MultiViewDataset,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_synthetic_spec,
    normalize_views,
    write_dataset,
    write_matrix,
)
from mvsc.errors import DataIOError, ValidationError
from mvsc.graphs import build_graph_set
from mvsc.metrics import accuracy
from mvsc.spectral import spectral_cluster


def tiny_dataset(n=10, with_labels=True):
    rng = np.random.default_rng(42)
    views = [rng.standard_normal((5, n)), rng.standard_normal((7, n))]
    labels = np.array([i % 2 for i in range(n)]) if with_labels else None
    return MultiViewDataset(views=views, n_clusters=2, labels=labels, name="tiny")


# ---------------------------------------------------------------- manifests


def test_write_then_load_round_trips_values(tmp_path):
    ds = tiny_dataset()
    manifest = write_dataset(ds, tmp_path)
    back = load_dataset(manifest)
    assert back.n_views == 2
    assert back.n_samples == 10
    assert back.n_clusters == 2
    assert back.name == "tiny"
    for X, Y in zip(ds.views, back.views):
        assert np.max(np.abs(X - Y)) <= 1e-12
    assert np.array_equal(back.labels, ds.labels)


@pytest.mark.parametrize(
    "values, fmt",
    [
        # several blocks of rows, the last one partial
        (np.random.default_rng(5).standard_normal((1000, 9)), "%.18e"),
        (np.random.default_rng(6).standard_normal((600, 600)), "%.18e"),
        (np.random.default_rng(7).standard_normal((23, 9)) * 1e300, "%.17g"),
        (np.array([[np.nan, -0.0, np.inf, -np.inf, 5e-324, 0.0]]), "%.18e"),
        (np.arange(-5000, 5000)[:, None], "%d"),
        (np.arange(12).reshape(3, 4), "%d"),
        (np.zeros((0, 3)), "%.18e"),
        (np.zeros((2, 0)), "%.18e"),
    ],
    ids=["floats", "nxn", "large-17g", "special", "labels", "ints", "no-rows", "no-cols"],
)
def test_write_matrix_writes_the_bytes_of_savetxt(values, fmt, tmp_path):
    np.savetxt(tmp_path / "ref.csv", values, fmt=fmt, delimiter=",")
    write_matrix(tmp_path / "out.csv", values, fmt=fmt)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_round_trip_without_labels(tmp_path):
    ds = tiny_dataset(with_labels=False)
    back = load_dataset(write_dataset(ds, tmp_path))
    assert back.labels is None


def test_manifest_shapes_example(tmp_path):
    # two views of shapes 5x10 and 7x10 -> v=2, n=10
    ds = load_dataset(write_dataset(tiny_dataset(), tmp_path))
    assert [X.shape for X in ds.views] == [(5, 10), (7, 10)]


def test_missing_manifest_is_io_error(tmp_path):
    missing = tmp_path / "nope" / "manifest.json"
    with pytest.raises(DataIOError, match="manifest"):
        load_dataset(missing)
    try:
        load_dataset(missing)
    except DataIOError as exc:
        assert str(missing) in str(exc)


def test_missing_view_file_is_io_error(tmp_path):
    manifest = write_dataset(tiny_dataset(), tmp_path)
    (tmp_path / "view1.csv").unlink()
    with pytest.raises(DataIOError, match="view1.csv"):
        load_dataset(manifest)


def test_bad_json_is_validation_error(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_dataset(path)


def test_missing_required_key(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"name": "x", "views": []}))
    with pytest.raises(ValidationError, match="clusters"):
        load_dataset(path)


def test_inconsistent_sample_counts_name_the_view(tmp_path):
    ds = tiny_dataset()
    manifest = write_dataset(ds, tmp_path)
    np.savetxt(tmp_path / "view1.csv", ds.views[1][:, :9], delimiter=",")
    with pytest.raises(ValidationError, match="view 1 has 9 samples"):
        load_dataset(manifest)


def test_nan_reported_with_coordinates(tmp_path):
    ds = tiny_dataset()
    ds.views[1][3, 7] = np.nan
    manifest = write_dataset(ds, tmp_path)
    with pytest.raises(ValidationError, match="view 1 .* row 3, column 7"):
        load_dataset(manifest)


def test_row_count_mismatch_against_manifest(tmp_path):
    manifest = write_dataset(tiny_dataset(), tmp_path)
    doc = json.loads(manifest.read_text())
    doc["views"][0]["rows"] = 6
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="manifest says 6"):
        load_dataset(manifest)


def test_label_distinct_count_must_match_clusters(tmp_path):
    manifest = write_dataset(tiny_dataset(), tmp_path)
    doc = json.loads(manifest.read_text())
    doc["clusters"] = 4  # labels only carry 2 distinct values
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="2 distinct values"):
        load_dataset(manifest)


def test_non_integer_labels_rejected(tmp_path):
    manifest = write_dataset(tiny_dataset(), tmp_path)
    np.savetxt(tmp_path / "labels.csv", np.array([0.5] * 10)[:, None], fmt="%.2f")
    with pytest.raises(ValidationError, match="non-integer"):
        load_dataset(manifest)


@pytest.mark.parametrize("views, k", [
    ([np.ones(4), np.ones((3, 4))], 0),
    ([np.ones((3, 4)), np.ones(4)], 1),
], ids=["first", "second"])
def test_validate_rejects_a_1d_view(views, k):
    with pytest.raises(ValidationError, match=f"view {k} is not a matrix \\(ndim=1\\)"):
        MultiViewDataset(views=views, n_clusters=2).validate()


def test_validate_rejects_cluster_count_below_two():
    ds = tiny_dataset(with_labels=False)
    ds.n_clusters = 1
    with pytest.raises(ValidationError, match="at least 2"):
        ds.validate()


# ------------------------------------------------------------ normalization


def test_normalize_none_is_identity():
    ds = tiny_dataset()
    assert normalize_views(ds, "none") is ds


def test_unit_column_on_3_4():
    X = np.array([[3.0], [4.0]])
    ds = MultiViewDataset(views=[X], n_clusters=2)
    out = normalize_views(ds, "unit_column")
    assert np.allclose(out.views[0], [[0.6], [0.8]])


def test_unit_column_makes_unit_norms():
    ds = tiny_dataset()
    out = normalize_views(ds, "unit_column")
    for X in out.views:
        assert np.allclose(np.linalg.norm(X, axis=0), 1.0)


def test_unit_column_leaves_zero_columns_and_warns(caplog):
    X = np.array([[3.0, 0.0], [4.0, 0.0]])
    ds = MultiViewDataset(views=[X], n_clusters=2)
    with caplog.at_level("WARNING", logger="mvsc.data"):
        out = normalize_views(ds, "unit_column")
    assert np.allclose(out.views[0][:, 1], 0.0)
    assert any("zero columns" in r.getMessage() for r in caplog.records)


def test_zscore_rows_centered_and_scaled():
    ds = tiny_dataset()
    out = normalize_views(ds, "zscore_feature")
    for X in out.views:
        assert np.all(np.abs(X.mean(axis=1)) <= 1e-10)
        assert np.all(np.abs(X.std(axis=1) - 1.0) <= 1e-10)


def test_zscore_constant_rows_centered_only():
    X = np.vstack([np.full(6, 5.0), np.arange(6.0)])
    out = normalize_views(MultiViewDataset(views=[X], n_clusters=2), "zscore_feature")
    assert np.allclose(out.views[0][0], 0.0)  # centered, not divided
    assert np.isclose(out.views[0][1].std(), 1.0)


def test_unknown_normalize_mode():
    with pytest.raises(ValidationError, match="unknown normalize mode"):
        normalize_views(tiny_dataset(), "l2")


def test_normalize_does_not_mutate_input():
    ds = tiny_dataset()
    before = [X.copy() for X in ds.views]
    normalize_views(ds, "unit_column")
    for X, B in zip(ds.views, before):
        assert np.array_equal(X, B)


# -------------------------------------------------------- synthetic datasets


def test_generator_is_deterministic():
    spec = SyntheticSpec(n=30, clusters=3, dims=(6, 9), subspace_rank=2, seed=5)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    for X, Y in zip(a.views, b.views):
        assert np.array_equal(X, Y)
    assert np.array_equal(a.labels, b.labels)


def test_generator_seed_changes_data():
    spec = SyntheticSpec(n=30, clusters=3, dims=(6, 9), subspace_rank=2, seed=5)
    other = SyntheticSpec(n=30, clusters=3, dims=(6, 9), subspace_rank=2, seed=6)
    assert not np.array_equal(generate_synthetic(spec).views[0],
                              generate_synthetic(other).views[0])


def test_generator_shapes_and_labels():
    spec = SyntheticSpec(n=31, clusters=3, dims=(5, 8, 12), subspace_rank=1, seed=0)
    ds = generate_synthetic(spec)
    assert [X.shape for X in ds.views] == [(5, 31), (8, 31), (12, 31)]
    sizes = np.bincount(ds.labels)
    assert sizes.max() - sizes.min() <= 1  # balanced within one sample
    assert ds.n_clusters == 3


def test_clean_full_consensus_views_have_low_rank():
    spec = SyntheticSpec(
        n=60, clusters=3, dims=(15, 20), subspace_rank=2,
        noise_sigma=0.0, consensus_fraction=1.0, seed=2,
    )
    ds = generate_synthetic(spec)
    for X in ds.views:
        assert np.linalg.matrix_rank(X) <= 6  # c * subspace_rank


def test_single_view_recoverability():
    """Each clean view of the default acceptance spec clusters on its own.

    Frozen oracle: mutual-kNN graph + spectral clustering per view reached
    ACC 0.98 / 0.9667 / 0.96 at authoring time; the bound asserts >= 0.95.
    """
    spec = SyntheticSpec(
        n=150, clusters=3, dims=(20, 30, 40), subspace_rank=3,
        noise_sigma=0.05, seed=7,
    )
    ds = normalize_views(generate_synthetic(spec), "unit_column")
    for X in ds.views:
        gs = build_graph_set([X], knn=10, alpha=0.001, mode="first_order")
        pred = spectral_cluster(gs.first_order[0].similarity, 3, seed=0)
        assert accuracy(ds.labels, pred) >= 0.95


@pytest.mark.parametrize(
    "kwargs, pattern",
    [
        (dict(n=5, clusters=3, dims=(6,), subspace_rank=2), "below clusters"),
        (dict(n=30, clusters=3, dims=(1,), subspace_rank=2), ">= subspace_rank"),
        (dict(n=30, clusters=1, dims=(6,), subspace_rank=2), "at least 2"),
        (dict(n=30, clusters=3, dims=(6,), subspace_rank=0), "at least 1"),
        (dict(n=30, clusters=3, dims=(), subspace_rank=2), "at least one view"),
        (
            dict(n=30, clusters=3, dims=(6,), subspace_rank=2, consensus_fraction=1.5),
            "consensus_fraction",
        ),
        (
            dict(n=30, clusters=3, dims=(6,), subspace_rank=2, noise_sigma=-0.1),
            "noise_sigma",
        ),
    ],
)
def test_infeasible_specs_rejected(kwargs, pattern):
    with pytest.raises(ValidationError, match=pattern):
        SyntheticSpec(**kwargs)


def test_load_synthetic_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 30, "clusters": 3, "dims": [6, 9]}))
    spec = load_synthetic_spec(path)
    assert spec.n == 30 and spec.dims == (6, 9)
    assert spec.subspace_rank == 3  # default


def test_load_synthetic_spec_unknown_key(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 30, "clusters": 3, "dims": [6], "bogus": 1}))
    with pytest.raises(ValidationError, match="bogus"):
        load_synthetic_spec(path)


def test_load_synthetic_spec_missing_file(tmp_path):
    with pytest.raises(DataIOError):
        load_synthetic_spec(tmp_path / "absent.json")


def test_load_synthetic_spec_bad_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("[1,")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_synthetic_spec(path)
