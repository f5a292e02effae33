"""Restart protocol: one fit per configuration, one clustering per seed."""

import csv
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from mvsc import graphs, pipeline, solver
from mvsc.data import SyntheticSpec, generate_synthetic, normalize_views
from mvsc.errors import NumericalError, ValidationError
from mvsc.solver import HyperParams
from mvsc.spectral import affinity_from_representation, spectral_cluster


def small_dataset(seed=0, dims=(8, 10)):
    spec = SyntheticSpec(n=45, clusters=3, dims=dims, subspace_rank=2,
                         noise_sigma=0.03, seed=seed)
    return normalize_views(generate_synthetic(spec), "unit_column")


@pytest.mark.parametrize("variant", ["grmsc", "lrr-bsv"])
def test_run_restarts_fits_once_per_configuration(variant, monkeypatch):
    # one fit, and one spectral embedding of it, serve every restart
    ds = small_dataset()
    calls, embeddings = [], []
    real_fit, real_embedding = pipeline.fit, pipeline.spectral_embedding

    def counting_fit(*args, **kwargs):
        calls.append(args[0].n_views)
        return real_fit(*args, **kwargs)

    def counting_embedding(A, n_clusters):
        embeddings.append(A.shape)
        return real_embedding(A, n_clusters)

    monkeypatch.setattr(pipeline, "fit", counting_fit)
    monkeypatch.setattr(pipeline, "spectral_embedding", counting_embedding)
    results = pipeline.run_restarts(ds, HyperParams(variant=variant, max_iter=150), 4)
    assert [r.seed for r in results] == [0, 1, 2, 3]
    if variant == "lrr-bsv":
        assert calls == [1] * ds.n_views
    else:
        assert calls == [ds.n_views]
    assert len(embeddings) == len(calls)


def test_run_restarts_matches_spectral_cluster_per_restart():
    ds = small_dataset()
    results = pipeline.run_restarts(ds, HyperParams(max_iter=150), 3, seed=5)
    A = affinity_from_representation(results[0].state.Z)
    for r in results:
        np.testing.assert_array_equal(r.labels, spectral_cluster(A, ds.n_clusters, r.seed))


@pytest.mark.parametrize("variant", ["grmsc", "lrr-bsv"])
def test_failed_embedding_fails_the_run(variant, monkeypatch):
    # the last fit's embedding fails, which would fail every restart
    ds = small_dataset()
    fits = ds.n_views if variant == "lrr-bsv" else 1
    calls = []
    real_embedding = pipeline.spectral_embedding

    def last_fails(A, n_clusters):
        calls.append(None)
        if len(calls) == fits:
            raise NumericalError("eigensolver failed")
        return real_embedding(A, n_clusters)

    monkeypatch.setattr(pipeline, "spectral_embedding", last_fails)
    with pytest.raises(NumericalError, match="eigensolver failed"):
        pipeline.run_restarts(ds, HyperParams(variant=variant, max_iter=150), 3)
    assert len(calls) == fits


@pytest.mark.parametrize("failing_seed", [0, 2])
def test_failed_clustering_fails_the_run(failing_seed, monkeypatch):
    # every restart clusters the same embedding, so one failing seed
    # fails the run instead of dropping a row
    ds = small_dataset()
    real_cluster = pipeline.cluster_embedding

    def one_seed_fails(U, n_clusters, seed):
        if seed == failing_seed:
            raise NumericalError(f"k-means failed at seed {seed}")
        return real_cluster(U, n_clusters, seed)

    monkeypatch.setattr(pipeline, "cluster_embedding", one_seed_fails)
    with pytest.raises(NumericalError, match=f"seed {failing_seed}"):
        pipeline.run_restarts(ds, HyperParams(max_iter=150), 3)


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


def test_ablate_shares_first_order_graphs(tmp_path, monkeypatch):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n": 45, "clusters": 3, "dims": [8, 10, 12], "subspace_rank": 2,
        "noise_sigma": 0.15, "consensus_fraction": 0.6, "seed": 1,
    }))

    def ablate(out_dir):
        config = pipeline.RunConfig(
            params=HyperParams(knn=8, lambda2=10.0, max_iter=150),
            out_dir=out_dir, synthetic=spec, restarts=2,
        )
        assert pipeline.cmd_ablate(config) == 0
        return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}

    calls = []
    real_first_order = graphs.first_order_proximity

    def counting(X, k):
        calls.append(X.shape)
        return real_first_order(X, k)

    monkeypatch.setattr(graphs, "first_order_proximity", counting)
    shared = ablate(tmp_path / "shared")
    assert len(calls) == 3

    # building every variant's graphs from scratch writes the same bytes
    real_variant_graphs = solver.variant_graphs
    monkeypatch.setattr(
        pipeline, "variant_graphs",
        lambda dataset, params, first_order=None, dump_dir=None: real_variant_graphs(
            dataset, params, dump_dir=dump_dir
        ),
    )
    separate = ablate(tmp_path / "separate")
    assert len(calls) == 3 + 6  # a build per graph variant: two per view
    assert sorted(shared) == [
        "ablation.csv", "report_GRMSC.csv", "report_GRMSC_NAIVE.csv",
        "report_LRR_BSV.csv", "report_MSC_NAIVE.csv",
    ]
    assert shared == separate


def write_spec(path, n):
    """The reference spec (3 clusters, dims 20/30/40, seed 7) at n samples."""
    path.write_text(json.dumps({
        "n": n, "clusters": 3, "dims": [20, 30, 40], "subspace_rank": 3,
        "noise_sigma": 0.05, "seed": 7,
    }))
    return path


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_only_a_traced_run_takes_its_graph_set_into_the_fit(trace, tmp_path, monkeypatch):
    # the fit reads S0 alone, traced or not, so no graph set is alive
    # when it starts; the objective trace evaluates the regularizer from
    # S0 and matches a fit that builds its own
    sets, alive = [], []
    real_build, real_fit = solver.build_graph_set, pipeline.fit

    def recording_build(*args, **kwargs):
        gs = real_build(*args, **kwargs)
        sets.append(weakref.ref(gs))
        return gs

    def checking_fit(*args, **kwargs):
        alive.append([ref() is not None for ref in sets])
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(solver, "build_graph_set", recording_build)
    monkeypatch.setattr(pipeline, "fit", checking_fit)
    config = pipeline.RunConfig(
        params=HyperParams(max_iter=150), out_dir=tmp_path / "out",
        synthetic=write_spec(tmp_path / "spec.json", 60), restarts=2,
        dump_graphs=True, trace_residuals=trace,
    )
    assert pipeline.cmd_run(config) == 0
    assert alive == [[False]]
    if trace:
        ds = pipeline.resolve_dataset(config)
        _, state = solver.fit(ds, config.params, trace_objective=True)
        with open(tmp_path / "out" / "residuals_restart0.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["objective"] for r in rows] == [
            pipeline._fmt(v) for v in state.objective_history
        ]


def test_dumping_run_builds_each_second_order_graph_once(tmp_path, monkeypatch):
    # the build writes each view's second-order graph while it holds it,
    # so a dump derives none of them again
    calls = []
    real_second_order = graphs.second_order_proximity

    def counting(g):
        calls.append(g.n)
        return real_second_order(g)

    monkeypatch.setattr(graphs, "second_order_proximity", counting)
    out = tmp_path / "out"
    config = pipeline.RunConfig(
        params=HyperParams(max_iter=20), out_dir=out,
        synthetic=write_spec(tmp_path / "spec.json", 60), restarts=1,
        dump_graphs=True,
    )
    assert pipeline.cmd_run(config) == 0
    assert calls == [60, 60, 60]
    assert sorted(p.name for p in (out / "graphs").iterdir()) == [
        "consensus.csv", "first_order_view0.csv", "first_order_view1.csv",
        "first_order_view2.csv", "second_order_view0.csv",
        "second_order_view1.csv", "second_order_view2.csv",
    ]


def test_cmd_run_peak_memory_is_at_most_18_nxn_arrays(tmp_path):
    # the graph stage ends at S0 before the fit starts, traced or not, so
    # the peak is the fit's own working set plus S0 (27.7 n x n arrays
    # when the whole graph set stayed live through the fit, 22.6 when
    # only a traced run took it)
    n = 300
    spec = write_spec(tmp_path / "spec.json", n)
    for trace in (False, True):
        config = pipeline.RunConfig(
            params=HyperParams(), out_dir=tmp_path / f"out-{trace}",
            synthetic=spec, restarts=1, trace_residuals=trace,
        )
        tracemalloc.start()
        try:
            assert pipeline.cmd_run(config) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 18 * n * n * 8, (
            f"traced={trace}: peak {peak / (n * n * 8):.1f} n x n arrays"
        )


def test_cmd_run_fit_and_embedding_peaks_on_the_carried_path(tmp_path, monkeypatch):
    # n = 600 with the reference dims carries J (4 d = 360 < n). Peaks
    # count from the command's start, in n x n arrays. The fit holds S0,
    # the basis, J, Z, Y2 and one work array, and allocates C and the
    # certificate's residual per iteration (11.6 when it also formed Q,
    # Z - Q and the multiplier step's sums); the embedding sees S0, Z,
    # the affinity, the Laplacian and its eigenvectors (9.1 while the
    # fit's Q and Y2 lived on and the Laplacian took six arrays)
    n = 600
    spec = write_spec(tmp_path / "spec.json", n)
    peaks = {}

    def staged(name, fn):
        def wrapped(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[name] = tracemalloc.get_traced_memory()[1] / (n * n * 8)

        return wrapped

    carried = []
    real_update_Z = solver.update_Z

    def spying_update_Z(*args, J=None, **kwargs):
        carried.append(J is not None)
        return real_update_Z(*args, J=J, **kwargs)

    monkeypatch.setattr(solver, "update_Z", spying_update_Z)
    monkeypatch.setattr(pipeline, "fit", staged("fit", pipeline.fit))
    monkeypatch.setattr(
        pipeline, "spectral_embedding", staged("embedding", pipeline.spectral_embedding)
    )
    config = pipeline.RunConfig(
        params=HyperParams(), out_dir=tmp_path / "out", synthetic=spec, restarts=1,
    )
    tracemalloc.start()
    try:
        assert pipeline.cmd_run(config) == 0
    finally:
        tracemalloc.stop()
    assert carried and all(carried)
    assert peaks["fit"] <= 10.2, peaks
    assert peaks["embedding"] <= 6.5, peaks
