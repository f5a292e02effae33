import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsc.data import SyntheticSpec, generate_synthetic, normalize_views
from mvsc.errors import DegenerateInputError, NumericalError, ValidationError
from mvsc.graphs import (
    ConsensusGraph,
    FirstOrderGraph,
    SecondOrderGraph,
    build_graph_set,
    consensus_graph,
    _fused_weight,
    _knn_sets,
    first_order_proximity,
    gaussian_kernel,
    laplacian_from_weights,
    pairwise_sq_dists,
    second_order_proximity,
)
from references import laplacian_quadratic


def test_gaussian_kernel_identical_points_give_one():
    X = np.array([[0.0, 0.0, 3.0], [1.0, 1.0, 4.0]])  # columns 0 and 1 identical
    S, sigma = gaussian_kernel(X)
    assert S[0, 1] == pytest.approx(1.0)
    assert sigma > 0


def test_gaussian_kernel_degenerate():
    X = np.ones((2, 4))
    with pytest.raises(DegenerateInputError):
        gaussian_kernel(X)


def test_gaussian_kernel_underflow_is_a_numerical_failure():
    # distinct columns whose squared distances all underflow to zero
    X = 1e-165 * np.array([[0.0, 1.0, 3.0], [1.0, 2.0, 0.0]])
    assert not pairwise_sq_dists(X).any()
    with pytest.raises(NumericalError, match="underflow"):
        gaussian_kernel(X)
    with pytest.raises(NumericalError, match="underflow"):
        first_order_proximity(X, 1)


def test_graph_build_names_the_view_whose_distances_underflow():
    rng = np.random.default_rng(4)
    views = [rng.standard_normal((3, 12)), 1e-165 * rng.standard_normal((4, 12))]
    with pytest.raises(NumericalError, match="^view 1: pairwise distances underflow"):
        build_graph_set(views, 3, 0.1)
    # the second-order kernel of view 1's first-order graph underflows
    first = [first_order_proximity(X, 3) for X in views[:1]] * 2
    first[1] = FirstOrderGraph(1e-165 * first[0].similarity, 1.0, 3)
    with pytest.raises(NumericalError, match="^view 1: pairwise distances underflow"):
        build_graph_set(views, 3, 0.1, first_order=first)


def test_first_order_line_oracle():
    """1-D points {0,1,2,10,11}, k=2, against a brute-force neighbor oracle."""
    pts = np.array([0.0, 1.0, 2.0, 10.0, 11.0])
    X = pts[None, :]
    g = first_order_proximity(X, 2)

    # independent enumeration of mutual-kNN, ties to the smaller index
    n = len(pts)
    neigh = []
    for i in range(n):
        d = [(abs(pts[i] - pts[j]), j) for j in range(n) if j != i]
        d.sort()
        neigh.append({j for _, j in d[:2]})
    expected = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and j in neigh[i] and i in neigh[j]:
                expected[i, j] = True

    np.testing.assert_array_equal(g.similarity > 0, expected)
    assert g.sigma == pytest.approx(8.5)  # median of the 10 pairwise distances


@pytest.mark.parametrize("n", [3, 4, 5, 6], ids=lambda n: f"{n * (n - 1) // 2}-pairs")
@pytest.mark.parametrize("ties", [False, True])
def test_kernel_bandwidth_is_np_median_bit_for_bit(n, ties):
    # sigma is taken by partitioning, without np.median's numpy.ma
    # import; odd and even pair counts, with tied distances or none
    rng = np.random.default_rng(n)
    X = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-3, 3, (3, n))
    if ties:
        X = np.repeat(rng.standard_normal((3, 2)), (n + 1) // 2, axis=1)[:, :n]
    d2 = pairwise_sq_dists(X)
    expected = float(np.median(np.sqrt(d2[np.triu_indices(n, k=1)])))
    assert gaussian_kernel(X)[1].hex() == expected.hex()


def test_first_order_non_reciprocated_neighbor_dropped():
    # 2's nearest neighbors are 0 and 1; 10 prefers 11 and 2, but 2 does
    # not reciprocate, so no 2-10 edge survives
    pts = np.array([0.0, 1.0, 2.0, 10.0, 11.0])
    g = first_order_proximity(pts[None, :], 2)
    assert g.similarity[2, 3] == 0
    assert g.similarity[3, 2] == 0


def test_first_order_invariants():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 12))
    g = first_order_proximity(X, 3)
    S = g.similarity
    np.testing.assert_allclose(S, S.T)
    assert np.all(np.diag(S) == 0)
    assert np.all(S >= 0) and np.all(S <= 1)


def test_first_order_validates_k():
    X = np.random.default_rng(1).standard_normal((2, 5))
    with pytest.raises(ValidationError):
        first_order_proximity(X, 0)
    with pytest.raises(ValidationError):
        first_order_proximity(X, 5)


def test_consensus_hadamard_annihilation():
    a = np.array([[0.0, 0.5], [0.5, 0.0]])
    b = np.array([[0.0, 0.0], [0.0, 0.0]])
    g1 = FirstOrderGraph(a, 1.0, 1)
    g2 = FirstOrderGraph(b, 1.0, 1)
    c = consensus_graph([g1, g2])
    assert np.all(c.lambda_star == 0)
    assert not c.omega.any()
    # off-diagonal complement picks up everything else
    assert c.omega_bar.sum() == 2


def test_consensus_identical_graphs_power():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((3, 10))
    g = first_order_proximity(X, 3)
    c = consensus_graph([g, g, g])
    np.testing.assert_allclose(c.lambda_star, g.similarity**3, atol=1e-15)


def test_consensus_single_view_is_identity():
    rng = np.random.default_rng(3)
    g = first_order_proximity(rng.standard_normal((2, 8)), 2)
    c = consensus_graph([g])
    np.testing.assert_array_equal(c.lambda_star, g.similarity)
    np.testing.assert_array_equal(c.omega, g.similarity > 0)


def test_consensus_masks_partition_offdiagonal():
    rng = np.random.default_rng(4)
    views = [rng.standard_normal((3, 9)) for _ in range(2)]
    c = consensus_graph([first_order_proximity(X, 3) for X in views])
    n = 9
    offdiag = ~np.eye(n, dtype=bool)
    assert not (c.omega & c.omega_bar).any()
    np.testing.assert_array_equal(c.omega | c.omega_bar, offdiag)


def test_second_order_identical_neighborhoods():
    # nodes 0 and 1 share the exact same neighborhood column
    lam = np.array(
        [
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
        ]
    )
    ups = second_order_proximity(FirstOrderGraph(lam, 1.0, 2))
    assert ups.similarity[0, 1] == pytest.approx(1.0)
    assert ups.similarity[2, 3] == pytest.approx(1.0)


def test_second_order_hand_fixture():
    # 4-node path graph with weight 0.5 edges; sigma is the median of the
    # six pairwise column distances, (sqrt(.5)+sqrt(.75))/2
    lam = np.array(
        [
            [0.0, 0.5, 0.0, 0.0],
            [0.5, 0.0, 0.5, 0.0],
            [0.0, 0.5, 0.0, 0.5],
            [0.0, 0.0, 0.5, 0.0],
        ]
    )
    ups = second_order_proximity(FirstOrderGraph(lam, 1.0, 1))
    assert ups.sigma == pytest.approx(0.7865660924854931, abs=1e-12)
    expected = np.array(
        [
            [1.0, 0.29752822837498044, 0.6675893381525551, 0.44567552441496655],
            [0.29752822837498044, 1.0, 0.19862667306255544, 0.6675893381525551],
            [0.6675893381525551, 0.19862667306255544, 1.0, 0.29752822837498044],
            [0.44567552441496655, 0.6675893381525551, 0.29752822837498044, 1.0],
        ]
    )
    np.testing.assert_allclose(ups.similarity, expected, atol=1e-10)
    # symmetric with unit diagonal
    np.testing.assert_allclose(ups.similarity, ups.similarity.T)
    np.testing.assert_allclose(np.diag(ups.similarity), 1.0)


def test_second_order_degenerate_columns():
    lam = np.zeros((3, 3))
    with pytest.raises(DegenerateInputError):
        second_order_proximity(FirstOrderGraph(lam, 1.0, 1))


def _hand_consensus():
    lam_star = np.array([[0.0, 0.6, 0.0], [0.6, 0.0, 0.0], [0.0, 0.0, 0.0]])
    omega = lam_star > 0
    omega_bar = ~omega & ~np.eye(3, dtype=bool)
    return ConsensusGraph(lam_star, omega, omega_bar)


def test_fuse_weights_hand_instance():
    cons = _hand_consensus()
    u1 = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
    u2 = np.array([[1.0, 0.4, 0.6], [0.4, 1.0, 0.2], [0.6, 0.2, 1.0]])
    weights = [
        _fused_weight(cons, SecondOrderGraph(u, 1.0), 0.5, 2) for u in (u1, u2)
    ]

    W1 = np.array([[0.0, 0.3, 0.1], [0.3, 0.0, 0.15], [0.1, 0.15, 0.0]])
    W2 = np.array([[0.0, 0.3, 0.3], [0.3, 0.0, 0.1], [0.3, 0.1, 0.0]])
    np.testing.assert_allclose(weights[0], W1, atol=1e-15)
    np.testing.assert_allclose(weights[1], W2, atol=1e-15)
    L1 = np.diag([0.4, 0.45, 0.25]) - W1
    np.testing.assert_allclose(laplacian_from_weights(weights[0]), L1, atol=1e-15)


def test_fuse_weights_alpha_zero_keeps_only_consensus():
    cons = _hand_consensus()
    u = SecondOrderGraph(np.full((3, 3), 0.9), 1.0)
    W = _fused_weight(cons, u, 0.0, 2)
    assert np.all(W[cons.omega_bar] == 0)
    np.testing.assert_allclose(W[cons.omega], 0.3)


def test_fuse_weights_single_view_keeps_lambda_star():
    cons = _hand_consensus()
    u = SecondOrderGraph(np.full((3, 3), 0.9), 1.0)
    W = _fused_weight(cons, u, 0.0, 1)
    np.testing.assert_allclose(W[cons.omega], 0.6)


def test_laplacian_row_sums_zero():
    rng = np.random.default_rng(5)
    views = [rng.standard_normal((4, 15)) for _ in range(3)]
    gs = build_graph_set(views, 4, 0.001)
    for L in gs.laplacians:
        np.testing.assert_allclose(L @ np.ones(15), 0, atol=1e-10)


def test_symmetrized_laplacian_is_psd():
    rng = np.random.default_rng(6)
    views = [rng.standard_normal((3, 12)) for _ in range(2)]
    gs = build_graph_set(views, 3, 0.01)
    for L in gs.laplacians:
        evals = np.linalg.eigvalsh((L + L.T) / 2)
        assert evals.min() >= -1e-10


def test_laplacian_quadratic_zero_cases():
    Z = np.tile(np.array([1.0, -2.0, 0.5]), (3, 1))  # all rows equal
    W = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.2], [0.5, 0.2, 0.0]])
    L = laplacian_from_weights(W)
    assert laplacian_quadratic([L], Z) == pytest.approx(0.0, abs=1e-12)
    assert laplacian_quadratic([np.zeros((3, 3))], np.random.default_rng(7).standard_normal((3, 3))) == 0.0


def test_trace_form_equals_direct_sum():
    """The module's central identity: sum_k Tr(Z^T L_k Z) equals the
    consistent + alpha * complementary double sums."""
    rng = np.random.default_rng(8)
    for trial in range(25):
        n = int(rng.integers(8, 16))
        views = [rng.standard_normal((3, n)) for _ in range(int(rng.integers(1, 4)))]
        alpha = float(rng.uniform(0, 2))
        gs = build_graph_set(views, 3, alpha)
        Z = rng.standard_normal((n, n))
        trace_form = laplacian_quadratic(gs.laplacians, Z)
        direct = gs.regularizer_direct(Z)
        assert trace_form == pytest.approx(direct, rel=1e-8, abs=1e-10)


def test_trace_form_equals_direct_sum_first_order_mode():
    rng = np.random.default_rng(9)
    views = [rng.standard_normal((3, 10)) for _ in range(2)]
    gs = build_graph_set(views, 3, 0.5, mode="first_order")
    Z = rng.standard_normal((10, 10))
    assert laplacian_quadratic(gs.laplacians, Z) == pytest.approx(
        gs.regularizer_direct(Z), rel=1e-8
    )


def test_permutation_conjugates_graphs():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((4, 11))
    perm = rng.permutation(11)
    P = np.eye(11)[perm]
    g = first_order_proximity(X, 3)
    gp = first_order_proximity(X[:, perm], 3)
    np.testing.assert_allclose(gp.similarity, P @ g.similarity @ P.T, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_graph_entries_bounded(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((2, 8))
    try:
        g = first_order_proximity(X, 2)
    except DegenerateInputError:
        return
    assert np.all(g.similarity >= 0) and np.all(g.similarity <= 1)
    ups = second_order_proximity(g)
    assert np.all(ups.similarity > 0) and np.all(ups.similarity <= 1)


def test_pairwise_sq_dists_matches_loops():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((3, 6))
    d2 = pairwise_sq_dists(X)
    for i in range(6):
        for j in range(6):
            assert d2[i, j] == pytest.approx(
                np.sum((X[:, i] - X[:, j]) ** 2), abs=1e-10
            )


def test_first_order_computes_distances_once_per_view(monkeypatch):
    from mvsc import graphs

    rng = np.random.default_rng(13)
    views = [rng.standard_normal((4 + k, 20)) for k in range(3)]
    expected = [first_order_proximity(X, 4) for X in views]
    calls = []
    real = graphs.pairwise_sq_dists

    def counting(X):
        calls.append(X.shape)
        return real(X)

    monkeypatch.setattr(graphs, "pairwise_sq_dists", counting)
    gs = build_graph_set(views, 4, 0.001, mode="first_order")
    assert calls == [X.shape for X in views]
    for g, e in zip(gs.first_order, expected):
        assert np.array_equal(g.similarity, e.similarity) and g.sigma == e.sigma


def test_build_graph_set_reuses_first_order_graphs(monkeypatch):
    from mvsc import graphs

    rng = np.random.default_rng(14)
    views = [rng.standard_normal((4 + k, 20)) for k in range(3)]
    naive = build_graph_set(views, 4, 0.001, mode="first_order")
    fresh = build_graph_set(views, 4, 0.001)
    monkeypatch.setattr(graphs, "first_order_proximity", None)  # must not run
    shared = build_graph_set(views, 4, 0.001, first_order=naive.first_order)
    assert all(a is b for a, b in zip(shared.first_order, naive.first_order))
    for a, b in zip(shared.laplacians, fresh.laplacians):
        assert np.array_equal(a, b)
    assert np.array_equal(shared.consensus.lambda_star, fresh.consensus.lambda_star)
    with pytest.raises(ValidationError):
        build_graph_set(views, 5, 0.001, first_order=naive.first_order)
    with pytest.raises(ValidationError):
        build_graph_set(views[:2], 4, 0.001, first_order=naive.first_order)


def _knn_sets_by_stable_sort(d2, k):
    """The k-nearest-neighbor mask from a stable argsort of every row:
    ties go to the smaller index."""
    n = d2.shape[0]
    d = d2.copy()
    np.fill_diagonal(d, np.inf)
    order = np.argsort(d, axis=1, kind="stable")
    mask = np.zeros((n, n), dtype=bool)
    mask[np.repeat(np.arange(n), k), order[:, :k].ravel()] = True
    return mask


@pytest.mark.parametrize("decimals", [None, 1, 0])
@pytest.mark.parametrize("k", [1, 10, 30])
def test_knn_sets_match_a_stable_sort_ties_included(k, decimals):
    # rounded distances tie often, also across the k-th neighbor
    rng = np.random.default_rng(23)
    d2 = pairwise_sq_dists(rng.standard_normal((3, 80)))
    if decimals is not None:
        d2 = np.round(d2, decimals)
        assert len(np.unique(d2)) < d2.size // 10
    mask = _knn_sets(d2, k)
    assert np.array_equal(mask, _knn_sets_by_stable_sort(d2, k))
    assert (mask.sum(axis=1) == k).all() and not mask.diagonal().any()


def test_knn_sets_all_tied_take_the_smallest_indices():
    mask = _knn_sets(np.zeros((6, 6)), 2)
    expected = np.zeros((6, 6), dtype=bool)
    for i in range(6):
        expected[i, [j for j in range(6) if j != i][:2]] = True
    assert np.array_equal(mask, expected)


def test_dump_graphs_writes_files(tmp_path):
    rng = np.random.default_rng(12)
    views = [rng.standard_normal((3, 10)) for _ in range(2)]
    gs = build_graph_set(views, 3, 0.001, dump_dir=tmp_path / "fused")
    names = {p.name for p in (tmp_path / "fused").iterdir()}
    assert names == {
        "first_order_view0.csv",
        "first_order_view1.csv",
        "consensus.csv",
        "second_order_view0.csv",
        "second_order_view1.csv",
    }
    loaded = np.loadtxt(tmp_path / "fused" / "consensus.csv", delimiter=",")
    np.testing.assert_allclose(loaded, gs.consensus.lambda_star, atol=1e-12)
    for k, g in enumerate(gs.first_order):
        loaded = np.loadtxt(tmp_path / "fused" / f"second_order_view{k}.csv",
                            delimiter=",")
        np.testing.assert_allclose(
            loaded, second_order_proximity(g).similarity, atol=1e-12
        )
    build_graph_set(views, 3, 0.001, mode="first_order", dump_dir=tmp_path / "naive")
    names = {p.name for p in (tmp_path / "naive").iterdir()}
    assert names == {"first_order_view0.csv", "first_order_view1.csv"}


@pytest.mark.parametrize(
    "mode, shared",
    [("fused", False), ("first_order", False), ("fused", True), ("first_order", True)],
    ids=["fused", "first_order", "fused-shared", "first_order-shared"],
)
def test_laplacian_sum_is_the_view_order_sum_of_the_laplacians(mode, shared):
    # the build folds each view into S0 and keeps neither its weights nor
    # its Laplacian; what is derived afterwards sums to S0 bit for bit
    # and equals what the graph functions give on their own
    rng = np.random.default_rng(21)
    views = [rng.standard_normal((4 + k, 25)) for k in range(3)]
    first = None
    if shared:
        first = build_graph_set(views, 4, 0.01, mode="first_order").first_order
    gs = build_graph_set(views, 4, 0.01, mode=mode, first_order=first)
    assert "laplacians" not in vars(gs)
    assert np.array_equal(gs.laplacian_sum, sum(L + L.T for L in gs.laplacians))
    if mode == "first_order":
        expected = [laplacian_from_weights(g.similarity) for g in gs.first_order]
    else:
        seconds = [second_order_proximity(g) for g in gs.first_order]
        expected = [
            laplacian_from_weights(_fused_weight(gs.consensus, ups, 0.01, len(views)))
            for ups in seconds
        ]
    assert len(gs.laplacians) == len(views)
    for L, ref in zip(gs.laplacians, expected):
        assert np.array_equal(L, ref)


def test_build_graph_set_rejects_negative_alpha_and_no_views():
    rng = np.random.default_rng(22)
    views = [rng.standard_normal((4, 12)) for _ in range(2)]
    with pytest.raises(ValidationError, match="alpha"):
        build_graph_set(views, 3, -0.1)
    with pytest.raises(ValidationError):
        build_graph_set([], 3, 0.01, mode="first_order")


def test_fused_build_peak_memory_is_at_most_9_5_nxn_arrays(tmp_path):
    # one view's second-order graph, weights and Laplacian are alive at a
    # time, also while a dump writes that second-order graph; the set
    # keeps three first-order graphs, the consensus and S0 (11.25 n x n
    # arrays when the last view's W and L stayed alive while the next
    # view's were built)
    n = 600
    spec = SyntheticSpec(n=n, clusters=3, dims=(20, 30, 40), subspace_rank=3,
                         noise_sigma=0.05, seed=7)
    views = normalize_views(generate_synthetic(spec), "unit_column").views
    for dump_dir in (None, tmp_path):
        tracemalloc.start()
        try:
            gs = build_graph_set(views, 10, 0.001, dump_dir=dump_dir)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gs.mode == "fused"
        assert peak <= 9.5 * n * n * 8, (
            f"dump_dir={dump_dir}: peak {peak / (n * n * 8):.2f} n x n arrays"
        )
