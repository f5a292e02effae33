"""Restart protocol: one fit per configuration, one clustering per seed."""

import numpy as np
import pytest

from mvsc import pipeline
from mvsc.data import SyntheticSpec, generate_synthetic, normalize_views
from mvsc.errors import ValidationError
from mvsc.solver import HyperParams


def small_dataset(seed=0, dims=(8, 10)):
    spec = SyntheticSpec(n=45, clusters=3, dims=dims, subspace_rank=2,
                         noise_sigma=0.03, seed=seed)
    return normalize_views(generate_synthetic(spec), "unit_column")


@pytest.mark.parametrize("variant", ["grmsc", "lrr-bsv"])
def test_run_restarts_fits_once_per_configuration(variant, monkeypatch):
    ds = small_dataset()
    calls = []
    real_fit = pipeline.fit

    def counting_fit(*args, **kwargs):
        calls.append(args[0].n_views)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(pipeline, "fit", counting_fit)
    results = pipeline.run_restarts(ds, HyperParams(variant=variant, max_iter=150), 4)
    assert [r.seed for r in results] == [0, 1, 2, 3]
    if variant == "lrr-bsv":
        assert calls == [1] * ds.n_views
    else:
        assert calls == [ds.n_views]


def test_run_restarts_lrr_bsv_needs_labels():
    ds = small_dataset()
    ds.labels = None
    with pytest.raises(ValidationError, match="labels"):
        pipeline.run_restarts(ds, HyperParams(variant="lrr-bsv"), 1)


def test_run_restarts_lrr_bsv_records_selected_view():
    ds = small_dataset()
    results = pipeline.run_restarts(
        ds, HyperParams(variant="lrr-bsv", max_iter=150), 3, seed=4
    )
    for r in results:
        assert r.view in range(ds.n_views)
        assert r.report is not None


def test_run_restarts_single_view_lrr_bsv_matches_msc_naive():
    # with one view and no graph term, the full model IS plain LRR; the
    # best-single-view variant must therefore return the identical Z
    ds = small_dataset(dims=(9,))
    naive = pipeline.run_restarts(
        ds, HyperParams(lambda2=0.0, variant="msc-naive", max_iter=150), 2, seed=3
    )
    bsv = pipeline.run_restarts(
        ds, HyperParams(variant="lrr-bsv", max_iter=150), 2, seed=3
    )
    for a, b in zip(naive, bsv):
        assert b.view == 0
        np.testing.assert_array_equal(a.state.Z, b.state.Z)
        np.testing.assert_array_equal(a.labels, b.labels)
