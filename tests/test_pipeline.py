"""Restart protocol: one fit per configuration, one clustering per seed."""

import csv
import dataclasses
import json
import logging
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from mvsc import blas, graphs, linalg, pipeline, solver, spectral
from mvsc.data import SyntheticSpec, generate_synthetic, normalize_views
from mvsc.errors import NumericalError, ValidationError
from mvsc.solver import HyperParams
from mvsc.spectral import affinity_from_representation, spectral_cluster
from references import graph_stage_fit


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
    Z, _ = graph_stage_fit(ds, HyperParams(max_iter=150))
    A = affinity_from_representation(Z)
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


def test_run_restarts_single_view_lrr_bsv_matches_msc_naive(monkeypatch):
    # with one view and no graph term, the full model IS plain LRR; the
    # best-single-view variant must therefore return the identical Z
    ds = small_dataset(dims=(9,))
    fitted = []
    real_fit = pipeline.fit

    def recording_fit(*args, **kwargs):
        Z, state = real_fit(*args, **kwargs)
        fitted.append(Z)
        return Z, state

    monkeypatch.setattr(pipeline, "fit", recording_fit)
    naive = pipeline.run_restarts(
        ds, HyperParams(lambda2=0.0, variant="msc-naive", max_iter=150), 2, seed=3
    )
    bsv = pipeline.run_restarts(
        ds, HyperParams(variant="lrr-bsv", max_iter=150), 2, seed=3
    )
    assert len(fitted) == 2
    np.testing.assert_array_equal(*fitted)
    for a, b in zip(naive, bsv):
        assert b.view == 0
        np.testing.assert_array_equal(a.labels, b.labels)


@pytest.mark.parametrize("variant", ["grmsc", "lrr-bsv"])
def test_fit_and_embed_hands_back_no_matrices(variant, lanes):
    # in_order holds every fit until its map ends, so a fit handed back
    # keeps its histories and its n x c embedding alone: at n=150
    # lrr-bsv's three fits retain 0.15 n x n arrays, where keeping E and
    # Y1 (90 x n each) would add 1.2 and keeping Z 1.0 per fit
    n = 150
    spec = SyntheticSpec(n=n, clusters=3, dims=(20, 30, 40), subspace_rank=3,
                         noise_sigma=0.05, seed=7)
    ds = normalize_views(generate_synthetic(spec), "unit_column")
    params = HyperParams(variant=variant)
    [S0] = pipeline._graph_terms(ds, [params])
    if variant == "lrr-bsv":
        datasets = [dataclasses.replace(ds, views=[X]) for X in ds.views]
    else:
        datasets = [ds]
    tracemalloc.start()
    try:
        fits = [pipeline.fit_and_embed(d, params, S0) for d in datasets]
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    for state, U in fits:
        assert [getattr(state, m) for m in ("Z", "Q", "E", "Y1", "Y2")] == [None] * 5
        assert state.converged and len(state.mu_history) == state.iteration > 0
        assert U.shape == (n, 3)
    assert retained <= 0.5 * n * n * 8, f"{retained / (n * n * 8):.2f} n x n arrays"


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
    real_build = graphs.build_graph_set
    monkeypatch.setattr(
        pipeline, "build_graph_set",
        lambda *args, first_order=None, **kwargs: real_build(*args, **kwargs),
    )
    separate = ablate(tmp_path / "separate")
    assert len(calls) == 3 + 6  # a build per graph variant: two per view
    assert sorted(shared) == [
        "ablation.csv", "report_GRMSC.csv", "report_GRMSC_NAIVE.csv",
        "report_LRR_BSV.csv", "report_MSC_NAIVE.csv",
    ]
    assert shared == separate


@pytest.mark.parametrize("variant", solver.VARIANTS)
def test_graph_terms_follow_the_variant_and_lambda2(variant, monkeypatch):
    # a graph variant's fit reads its own mode's set at lambda2 > 0 and
    # none at lambda2 = 0; a graph-free variant reads none at any lambda2
    ds = small_dataset()
    built = []
    real_build = graphs.build_graph_set

    def recording_build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(pipeline, "build_graph_set", recording_build)
    assert pipeline._graph_terms(ds, [HyperParams(lambda2=0.0, variant=variant)]) == [None]
    [S0] = pipeline._graph_terms(ds, [HyperParams(lambda2=2.0, variant=variant)])
    if variant in ("msc-naive", "lrr-bsv"):
        assert S0 is None and built == []
    else:
        [gs] = built
        assert gs.mode == solver.GRAPH_MODES[variant]
        assert len(gs.laplacians) == ds.n_views
        assert S0 is gs.laplacian_sum


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
    # S0 and matches a fit given the graph stage's S0 outside the command
    sets, alive = [], []
    real_build, real_fit = graphs.build_graph_set, pipeline.fit

    def recording_build(*args, **kwargs):
        gs = real_build(*args, **kwargs)
        sets.append(weakref.ref(gs))
        return gs

    def checking_fit(*args, **kwargs):
        alive.append([ref() is not None for ref in sets])
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(pipeline, "build_graph_set", recording_build)
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
        _, state = graph_stage_fit(ds, config.params, trace_objective=True)
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


# ----------------------------------------------------------------- in_order


@pytest.fixture
def lanes(paired):
    """Two CPUs inside a pin, and the recording executor that runs each
    map's second lane as blas.pair's extra thread."""
    with blas.single_thread():
        yield paired


def test_in_order_returns_results_in_item_order_from_two_lanes(lanes):
    threads = []

    def square(x):
        threads.append(threading.get_ident())
        time.sleep(0.01)
        return x * x

    assert list(pipeline.in_order(square, range(10), 161)) == [x * x for x in range(10)]
    assert lanes.jobs == 1
    assert len(set(threads)) == 2


@pytest.mark.parametrize("items, cpus, n", [
    ([], 2, 150), ([3], 2, 150), ([1, 2, 3], 1, 150),
    ([1, 2, 3], 2, 162),  # 162**3 reaches the split gate, 161**3 does not
])
def test_in_order_starts_no_thread_where_lanes_do_not_help(items, cpus, n, lanes,
                                                          monkeypatch):
    assert 161 ** 3 < linalg.SPLIT_MIN_MACS <= 162 ** 3
    monkeypatch.setattr(blas, "_cpus", lambda: cpus)
    threads = set()

    def double(x):
        threads.add(threading.get_ident())
        return 2 * x

    assert list(pipeline.in_order(double, items, n)) == [2 * x for x in items]
    assert lanes.jobs == 0
    assert threads <= {threading.get_ident()}


def test_in_order_inside_a_lane_runs_in_turn(lanes):
    # the outer map's lane holds the extra thread, so a map inside an item
    # runs its own lane inline, on the item's thread
    def inner(x):
        return threading.get_ident()

    def outer(x):
        threads = list(pipeline.in_order(inner, range(4), 150))
        assert threads == [threading.get_ident()] * 4
        return x

    assert list(pipeline.in_order(outer, range(4), 150)) == list(range(4))
    assert lanes.jobs == 1


def test_in_order_raises_the_lowest_failed_item_and_starts_no_item_after(lanes):
    # item 2 fails slowly while the other lane fails item 3 at once
    started = []

    def slow_two_fast_three(x):
        started.append(x)
        if x == 2:
            time.sleep(0.3)
        if x in (2, 3):
            raise ValueError(f"item {x}")
        return x

    handed = []
    results = pipeline.in_order(slow_two_fast_three, range(10), 150)
    assert sorted(started) == [0, 1, 2, 3]  # the map has ended
    with pytest.raises(ValueError, match="item 2"):
        for x in results:
            handed.append(x)
    assert handed == [0, 1]
    assert lanes.jobs == 1


def test_in_order_takes_no_item_before_the_lane_has_started(lanes, monkeypatch):
    # perfbench's tracer parents a thread's first span on the innermost
    # span open in the caller, which must be in_order's, not an item's
    seen = []
    real_lane = pipeline.lane

    def slow_lane(work):
        time.sleep(0.05)
        seen.append(work.taken)
        real_lane(work)

    monkeypatch.setattr(pipeline, "lane", slow_lane)
    assert list(pipeline.in_order(lambda x: x, range(4), 150)) == list(range(4))
    assert seen == [0]


@pytest.mark.parametrize("command", ["ablate", "sweep"])
def test_lane_items_log_on_the_caller_in_item_then_restart_order(command, tmp_path,
                                                                 lanes, monkeypatch):
    # every clustering collapses to one cluster and warns; the first
    # fit is slow, so the other lane fits the items after it first
    if command == "ablate":
        items = [(v, 0.5, 1.0) for v in pipeline.ABLATION_ORDER]
    else:
        items = [("grmsc", l1, l2) for l1 in (0.5, 1.0) for l2 in (0.0, 1.0)]
    fitted, clustered, emitted = {}, [], []
    real_fit_and_embed, real_kmeans = pipeline.fit_and_embed, spectral.kmeans
    caller = threading.get_ident()

    def slow_first(dataset, params, *args, **kwargs):
        item = (params.variant, params.lambda1, params.lambda2)
        # an lrr-bsv fit's one view has 20, 30 or 40 rows
        k = (20, 30, 40).index(dataset.views[0].shape[0]) if dataset.n_views == 1 else 0
        if (item, k) == (items[0], 0):
            time.sleep(0.3)
        state, U = real_fit_and_embed(dataset, params, *args, **kwargs)
        fitted[id(U)] = (item, k)
        return state, U

    def collapsing(X, k, seed):
        clustered.append((*fitted[id(X)], seed))
        labels, inertia = real_kmeans(X, k, seed)
        return np.zeros_like(labels), inertia

    class Recording(logging.Handler):
        def emit(self, record):
            emitted.append((record.thread, record.name, len(clustered)))

    monkeypatch.setattr(pipeline, "fit_and_embed", slow_first)
    monkeypatch.setattr(spectral, "kmeans", collapsing)
    handler = Recording(level=logging.DEBUG)
    package = logging.getLogger("mvsc")
    package.addHandler(handler)
    config = pipeline.RunConfig(
        params=HyperParams(max_iter=50), out_dir=tmp_path / "out",
        synthetic=write_spec(tmp_path / "spec.json", 45), restarts=2,
    )
    try:
        if command == "ablate":
            assert pipeline.cmd_ablate(config) == 0
        else:
            assert pipeline.cmd_sweep(config, (0.5, 1.0), (0.0, 1.0)) == 0
    finally:
        package.removeHandler(handler)
    assert lanes.jobs == 1  # one map runs every fit
    fits = {item: 3 if item[0] == "lrr-bsv" else 1 for item in items}
    assert clustered == [(item, k, seed) for item in items
                         for seed in (0, 1) for k in range(fits[item])]
    # each record follows its clustering, on the caller's thread
    assert emitted == [(caller, "mvsc.spectral", i + 1) for i in range(len(clustered))]


def test_ablate_maps_every_fit_in_one_in_order_call(tmp_path, lanes, monkeypatch):
    # lrr-bsv's views are items of the variants' map, not a map of their own
    maps = []
    real_in_order = pipeline.in_order

    def recording(fn, items, n_samples):
        items = list(items)
        maps.append([(params.variant, [X.shape[0] for X in data.views])
                     for data, params, _ in items])
        return real_in_order(fn, items, n_samples)

    monkeypatch.setattr(pipeline, "in_order", recording)
    config = pipeline.RunConfig(
        params=HyperParams(max_iter=20), out_dir=tmp_path / "out",
        synthetic=write_spec(tmp_path / "spec.json", 150), restarts=1,
    )
    assert pipeline.cmd_ablate(config) == 0
    assert maps == [[("lrr-bsv", [20]), ("lrr-bsv", [30]), ("lrr-bsv", [40]),
                     ("msc-naive", [20, 30, 40]), ("grmsc-naive", [20, 30, 40]),
                     ("grmsc", [20, 30, 40])]]
    assert lanes.jobs == 1


def test_lrr_bsv_views_run_on_two_lanes_with_the_bits_of_one(lanes, monkeypatch):
    ds = small_dataset(dims=(8, 10, 12))
    params = HyperParams(variant="lrr-bsv", max_iter=150)
    threads, fitted = [], {}  # view rows -> Z's bytes; lanes end out of order
    real_fit = pipeline.fit

    def recording_fit(data, *args, **kwargs):
        threads.append(threading.get_ident())
        Z, state = real_fit(data, *args, **kwargs)
        fitted[data.views[0].shape[0]] = Z.tobytes()
        return Z, state

    monkeypatch.setattr(pipeline, "fit", recording_fit)
    two = pipeline.run_restarts(ds, params, 3)
    assert lanes.jobs == 1
    two_Z = fitted.copy()
    fitted.clear()
    monkeypatch.setattr(blas, "_cpus", lambda: 1)
    one = pipeline.run_restarts(ds, params, 3)
    assert lanes.jobs == 1
    assert len(set(threads[3:])) == 1
    assert sorted(two_Z) == [8, 10, 12]
    assert fitted == two_Z
    for a, b in zip(one, two):
        assert (a.view, a.seed) == (b.view, b.seed)
        np.testing.assert_array_equal(a.labels, b.labels)


def test_ablate_at_n_600_starts_no_lane(tmp_path, lanes, monkeypatch):
    # the thread runs split products' parts there, never a lane
    started = []
    real_lane = pipeline.lane

    def recording_lane(work):
        started.append(work)
        real_lane(work)

    monkeypatch.setattr(pipeline, "lane", recording_lane)
    config = pipeline.RunConfig(
        params=HyperParams(max_iter=3), out_dir=tmp_path / "out",
        synthetic=write_spec(tmp_path / "spec.json", 600), restarts=1,
    )
    assert pipeline.cmd_ablate(config) == 0
    assert started == []
    assert lanes.jobs > 0 and lanes.most == 1


def test_failed_ablate_writes_the_reports_before_the_failed_variant(tmp_path, lanes,
                                                                   monkeypatch):
    # grmsc-naive fails while grmsc, on the other lane, may finish: the
    # files are those of a loop that stopped at the failure
    real = pipeline.fit_and_embed

    def naive_fails(dataset, params, *args, **kwargs):
        if params.variant == "grmsc-naive":
            time.sleep(0.2)
            raise NumericalError("grmsc-naive diverged")
        return real(dataset, params, *args, **kwargs)

    monkeypatch.setattr(pipeline, "fit_and_embed", naive_fails)
    config = pipeline.RunConfig(
        params=HyperParams(max_iter=50), out_dir=tmp_path / "out",
        synthetic=write_spec(tmp_path / "spec.json", 45), restarts=1,
    )
    with pytest.raises(NumericalError, match="grmsc-naive diverged"):
        pipeline.cmd_ablate(config)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "report_LRR_BSV.csv", "report_MSC_NAIVE.csv",
    ]
    assert lanes.jobs == 1


def test_in_order_maps_from_many_threads_at_once_run_each_item_once(lanes):
    # four callers on two CPUs, switching often, share the one extra
    # thread: a map that cannot have it runs its lane inline
    callers, items = 4, 300
    calls = [[0] * items for _ in range(callers)]
    results = [None] * callers

    def count(slot):
        def item(x):
            calls[slot][x] += 1
            return -x
        return item

    def run(slot):
        start.wait()
        results[slot] = list(pipeline.in_order(count(slot), range(items), 150))

    start = threading.Barrier(callers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[-x for x in range(items)]] * callers
    assert calls == [[1] * items] * callers
    assert 1 <= lanes.jobs <= callers
    assert lanes.most == 1
