import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mvsc import blas, linalg, spectral
from mvsc.blas import single_thread
from mvsc.data import SyntheticSpec, generate_synthetic, normalize_views
from mvsc.errors import NumericalError, ValidationError
from mvsc.linalg import _as_matrix
from mvsc.metrics import accuracy
from mvsc.solver import VARIANTS, HyperParams
from mvsc.spectral import (
    KMEANS_STARTS,
    LLOYD_MAX_ITER,
    LLOYD_TOL,
    affinity_from_representation,
    kmeans,
    normalized_laplacian,
    spectral_cluster,
    spectral_embedding,
)
import references


def test_affinity_fixed_point_for_symmetric_nonnegative():
    Z = np.array([[0.0, 0.4], [0.4, 0.0]])
    np.testing.assert_array_equal(affinity_from_representation(Z), Z)


def test_affinity_sign_blind():
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((5, 5))
    np.testing.assert_allclose(
        affinity_from_representation(Z), affinity_from_representation(-Z)
    )


def test_affinity_forced_arithmetic():
    Z = np.array([[0.0, 2.0], [-1.0, 0.0]])
    np.testing.assert_allclose(
        affinity_from_representation(Z), np.array([[0.0, 1.5], [1.5, 0.0]])
    )


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _signed_zero_matrix(rng, n):
    """Nonsymmetric, with +0.0 and -0.0 entries, an all-zero row and
    column (a zero-degree vertex) and a wide range of magnitudes."""
    Z = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-6, 6, (n, n))
    Z[rng.random((n, n)) < 0.1] = 0.0
    Z[rng.random((n, n)) < 0.1] = -0.0
    Z[n // 3, :] = Z[:, n // 3] = 0.0
    return Z


@pytest.mark.parametrize("n", [1, 2, 9, 256, 300])
def test_affinity_and_laplacian_have_the_bits_of_their_expressions(n):
    rng = np.random.default_rng(n)
    Z = _signed_zero_matrix(rng, n)
    A = affinity_from_representation(Z)
    assert _same_bits(A, references.affinity_from_representation(Z))
    for W in (A, np.abs(Z), np.zeros((n, n))):
        assert _same_bits(normalized_laplacian(W), references.normalized_laplacian(W))


def test_affinity_and_laplacian_take_one_nxn_array_each():
    n = 600
    Z = np.random.default_rng(3).standard_normal((n, n))
    for f, arg in ((affinity_from_representation, Z), (normalized_laplacian, np.abs(Z))):
        tracemalloc.start()
        try:
            f(arg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the result, plus the checks' boolean arrays and add_transpose's
        # blocks; the expressions they replaced took 4 and 6 arrays
        assert peak <= 1.5 * n * n * 8, (f.__name__, peak / (n * n * 8))


def test_spectral_embedding_checks_the_cluster_count_before_the_laplacian(monkeypatch):
    built = []
    real = spectral.normalized_laplacian
    monkeypatch.setattr(
        spectral, "normalized_laplacian", lambda A: built.append(1) or real(A)
    )
    for c in (0, 5):
        with pytest.raises(ValidationError, match=r"n_clusters must lie in \[1, 4\]"):
            spectral_embedding(np.eye(4), c)
    assert built == []
    spectral_embedding(np.eye(4), 2)
    assert built == [1]


def test_affinity_requires_square():
    with pytest.raises(ValidationError):
        affinity_from_representation(np.ones((2, 3)))


def _block_affinity(rng, sizes, noise=0.0):
    """Block-diagonal affinity with dense positive blocks."""
    n = sum(sizes)
    A = np.zeros((n, n))
    start = 0
    for s in sizes:
        block = rng.uniform(0.5, 1.0, (s, s))
        block = (block + block.T) / 2
        A[start : start + s, start : start + s] = block
        start += s
    if noise:
        E = rng.uniform(0, noise, (n, n))
        A += (E + E.T) / 2
    np.fill_diagonal(A, 0)
    return A


def _components_by_traversal(A):
    """Connected-component labels via breadth-first search (oracle)."""
    n = A.shape[0]
    labels = -np.ones(n, dtype=int)
    comp = 0
    for s in range(n):
        if labels[s] >= 0:
            continue
        frontier = [s]
        labels[s] = comp
        while frontier:
            i = frontier.pop()
            for j in np.nonzero(A[i] > 0)[0]:
                if labels[j] < 0:
                    labels[j] = comp
                    frontier.append(j)
        comp += 1
    return labels


def test_two_block_affinity_separates_exactly():
    rng = np.random.default_rng(1)
    for trial in range(20):
        sizes = [int(rng.integers(3, 9)), int(rng.integers(3, 9))]
        A = _block_affinity(rng, sizes)
        truth = _components_by_traversal(A)
        labels = spectral_cluster(A, 2, seed=trial)
        assert accuracy(labels, truth) == 1.0


def test_spectral_cluster_deterministic():
    rng = np.random.default_rng(2)
    A = _block_affinity(rng, [6, 7], noise=0.05)
    l1 = spectral_cluster(A, 2, seed=42)
    l2 = spectral_cluster(A, 2, seed=42)
    np.testing.assert_array_equal(l1, l2)


def test_spectral_cluster_scale_invariant():
    rng = np.random.default_rng(3)
    A = _block_affinity(rng, [5, 6, 4], noise=0.02)
    l1 = spectral_cluster(A, 3, seed=7)
    l2 = spectral_cluster(10.0 * A, 3, seed=7)
    assert accuracy(l1, l2) == 1.0


def test_spectral_cluster_permutation_equivariant():
    rng = np.random.default_rng(4)
    A = _block_affinity(rng, [5, 8], noise=0.03)
    perm = rng.permutation(13)
    l_orig = spectral_cluster(A, 2, seed=9)
    l_perm = spectral_cluster(A[np.ix_(perm, perm)], 2, seed=9)
    # permuted labels describe the same partition as permuting the labels
    assert accuracy(l_perm, l_orig[perm]) == 1.0


def test_laplacian_eigenvalue_range():
    rng = np.random.default_rng(5)
    for trial in range(10):
        A = rng.uniform(0, 1, (12, 12))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 0)
        evals = np.linalg.eigvalsh(normalized_laplacian(A))
        assert evals.min() >= -1e-8
        assert evals.max() <= 2 + 1e-8


def test_zero_eigenvalue_count_matches_components():
    rng = np.random.default_rng(6)
    for sizes in ([4, 5], [3, 3, 4], [2, 6, 3, 4]):
        A = _block_affinity(rng, sizes)
        evals = np.linalg.eigvalsh(normalized_laplacian(A))
        assert int((evals < 1e-8).sum()) == len(sizes)


def test_isolated_vertex_handling():
    # vertex 2 has no edges; its degree is treated as 1, leaving a clean
    # unit diagonal entry instead of a division by zero
    A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    L = normalized_laplacian(A)
    assert np.all(np.isfinite(L))
    assert L[2, 2] == pytest.approx(1.0)
    assert L[2, 0] == L[2, 1] == 0.0


def test_normalized_laplacian_rejects_negative():
    with pytest.raises(ValidationError):
        normalized_laplacian(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_embedding_rows_unit_or_zero():
    rng = np.random.default_rng(7)
    A = _block_affinity(rng, [6, 6], noise=0.01)
    U = spectral_embedding(A, 2)
    norms = np.linalg.norm(U, axis=1)
    assert np.all((np.abs(norms - 1) < 1e-10) | (norms == 0))


def test_spectral_cluster_validates_c():
    A = np.eye(4)
    with pytest.raises(ValidationError):
        spectral_cluster(A, 1, seed=0)
    with pytest.raises(ValidationError):
        spectral_cluster(A, 5, seed=0)


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(8)
    X = np.vstack(
        [
            rng.normal(0, 0.05, (10, 2)),
            rng.normal(5, 0.05, (12, 2)),
            rng.normal(-5, 0.05, (9, 2)),
        ]
    )
    truth = np.repeat([0, 1, 2], [10, 12, 9])
    labels, inertia = kmeans(X, 3, seed=0)
    assert accuracy(labels, truth) == 1.0
    assert inertia < 1.0


def test_kmeans_deterministic_and_validated():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((20, 3))
    l1, i1 = kmeans(X, 4, seed=11)
    l2, i2 = kmeans(X, 4, seed=11)
    np.testing.assert_array_equal(l1, l2)
    assert i1 == i2
    with pytest.raises(ValidationError):
        kmeans(X, 0, seed=0)
    with pytest.raises(ValidationError):
        kmeans(X, 21, seed=0)


def test_kmeans_handles_duplicate_points():
    # more centers than distinct points: the ++ init falls back to
    # uniform draws instead of dividing by a zero total
    X = np.zeros((6, 2))
    X[3:] = 1.0
    labels, inertia = kmeans(X, 3, seed=1)
    assert inertia == pytest.approx(0.0, abs=1e-20)
    assert len(labels) == 6


# ------------------------------------------ k-means against one start at a time
# The reference below is k-means as it ran before its starts were batched:
# each start runs alone, with a per-cluster X[mask].mean. kmeans must give
# its labels and inertia bit for bit.


def ref_kmeans_pp_init(X, k, rng):
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all points coincide with a chosen center; fall back to uniform
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centers[j] = X[idx]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))
    return centers


def ref_lloyd(X, centers):
    k = centers.shape[0]
    labels = np.zeros(X.shape[0], dtype=int)
    for _ in range(LLOYD_MAX_ITER):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            mask = labels == j
            if mask.any():
                new_centers[j] = X[mask].mean(axis=0)
            else:
                # revive an empty cluster at the point worst served now
                worst = np.argmax(d2[np.arange(len(labels)), labels])
                new_centers[j] = X[worst]
        shift = np.max(np.linalg.norm(new_centers - centers, axis=1))
        centers = new_centers
        if shift <= LLOYD_TOL:
            break
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(len(labels)), labels].sum())
    return labels, inertia


def ref_kmeans(X, k, seed):
    X = _as_matrix(X, "X")
    if not 1 <= k <= X.shape[0]:
        raise ValidationError(f"k must lie in [1, {X.shape[0]}], got {k}")
    best_labels, best_inertia = None, np.inf
    for child in np.random.SeedSequence(seed).spawn(KMEANS_STARTS):
        rng = np.random.default_rng(child)
        centers = ref_kmeans_pp_init(X, k, rng)
        labels, inertia = ref_lloyd(X, centers)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, best_inertia


def assert_matches_reference(X, k, seeds=range(30)):
    for seed in seeds:
        labels, inertia = kmeans(X, k, seed)
        ref_labels, ref_inertia = ref_kmeans(X, k, seed)
        assert np.array_equal(labels, ref_labels), (k, seed)
        assert inertia == ref_inertia, (k, seed)


REFERENCE_SPEC = SyntheticSpec(
    n=150, clusters=3, dims=(20, 30, 40), subspace_rank=3,
    noise_sigma=0.05, seed=7,
)
ABLATION_SPEC = replace(REFERENCE_SPEC, noise_sigma=0.15, consensus_fraction=0.6, seed=1)


@pytest.fixture(scope="module")
def fitted_embeddings():
    """Spectral embeddings of every variant's fit (lrr-bsv: one per view)
    on the reference spec with default hyperparameters and on ablation
    seed 1 with the ablation ones."""
    embeddings = []
    for spec, params in (
        (REFERENCE_SPEC, HyperParams()),
        (ABLATION_SPEC, HyperParams(lambda1=0.5, lambda2=10.0, knn=30)),
    ):
        ds = normalize_views(generate_synthetic(spec), "unit_column")
        for variant in VARIANTS:
            parts = [ds]
            if variant == "lrr-bsv":
                parts = [replace(ds, views=[X]) for X in ds.views]
            for part in parts:
                with single_thread():
                    Z, _ = references.graph_stage_fit(part, replace(params, variant=variant))
                U = spectral_embedding(affinity_from_representation(Z), ds.n_clusters)
                embeddings.append(U)
    return embeddings


def test_kmeans_matches_reference_on_fitted_embeddings(fitted_embeddings):
    assert len(fitted_embeddings) == 12
    for U in fitted_embeddings:
        assert_matches_reference(U, 3)


def test_kmeans_matches_reference_on_random_sets():
    rng = np.random.default_rng(10)
    for k in range(1, 9):
        dim = (1, 2, 3, 9)[k % 4]
        assert_matches_reference(rng.standard_normal((int(rng.integers(k, 40)), dim)), k)
    for dim in (1, 3):
        assert_matches_reference(rng.standard_normal((6, dim)), 6)  # k = n


def test_kmeans_matches_reference_when_clusters_empty_together():
    # two distinct points, five centers: after the uniform fallback the
    # duplicate centers leave several clusters empty in one iteration,
    # and all of them revive at the same worst-served point
    X = np.zeros((6, 2))
    X[3:] = 1.0
    most_empty = 0
    for seed in range(30):
        for child in np.random.SeedSequence(seed).spawn(KMEANS_STARTS):
            centers = ref_kmeans_pp_init(X, 5, np.random.default_rng(child))
            d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            most_empty = max(most_empty, 5 - len(np.unique(np.argmin(d2, axis=1))))
    assert most_empty >= 2
    assert_matches_reference(X, 5)
    assert_matches_reference(X, 4)


def test_kmeans_matches_reference_on_identical_points():
    assert_matches_reference(np.full((10, 3), 0.3), 4)
    assert_matches_reference(np.zeros((10, 3)), 3)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24),
        elements=st.one_of(st.integers(-2, 2).map(float), st.floats(-10, 10)),
    ),
    st.data(),
)
def test_kmeans_matches_reference_property(X, data):
    k = data.draw(st.integers(1, X.shape[0]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    assert_matches_reference(X, k, seeds=[seed])


def test_kmeans_distances_built_one_center_column_at_a_time():
    # one (starts, n, k, dim) float64 array would take 128 MB here
    n, k, dim = 2000, 20, 20
    rng = np.random.default_rng(11)
    X = rng.standard_normal((k, dim))[rng.integers(k, size=n)]
    X += 0.01 * rng.standard_normal((n, dim))
    tracemalloc.start()
    try:
        kmeans(X, k, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < KMEANS_STARTS * n * k * dim * 8 / 4


# ------------------------------------------------ the embedding's Krylov solver
# From n = 2 * KRYLOV_COLUMNS the embedding takes the certified block
# Krylov solver, else eigh; references.eigh_embedding is the embedding
# as eigh alone gave it.

KRYLOV_N = 2 * spectral.KRYLOV_COLUMNS
BLOCKS = [KRYLOV_N // 3, KRYLOV_N // 3 + 7, KRYLOV_N - 2 * (KRYLOV_N // 3) - 7]


@pytest.fixture
def krylov_calls(monkeypatch):
    """The (n, c) of every call of the Krylov solver, and its result:
    None when it fell back."""
    calls = []
    real = spectral._krylov_bottom

    def recording(L, c):
        vecs = real(L, c)
        calls.append((L.shape[0], c, vecs is not None))
        return vecs

    monkeypatch.setattr(spectral, "_krylov_bottom", recording)
    return calls


@pytest.mark.parametrize("noise", [0.0, 0.05, 0.4])
def test_krylov_subspace_matches_eigh(noise):
    A = _block_affinity(np.random.default_rng(12), BLOCKS, noise=noise)
    L = normalized_laplacian(A)
    X = spectral._krylov_bottom(L, 3)
    assert X is not None
    V = np.linalg.eigh(L)[1][:, :3]
    # the cosines of the principal angles between the two subspaces
    cosines = np.linalg.svd(V.T @ X, compute_uv=False)
    np.testing.assert_allclose(cosines, 1.0, rtol=0, atol=1e-9)


@pytest.mark.parametrize("noise", [0.05, 0.4, 0.9])
def test_krylov_embedding_gives_the_labels_of_eigh(noise, krylov_calls):
    A = _block_affinity(np.random.default_rng(13), BLOCKS, noise=noise)
    U = spectral_embedding(A, 3)
    assert krylov_calls == [(KRYLOV_N, 3, True)]
    reference = references.eigh_embedding(A, 3)
    for seed in range(5):
        np.testing.assert_array_equal(
            spectral.cluster_embedding(U, 3, seed),
            spectral.cluster_embedding(reference, 3, seed),
        )


def test_krylov_embedding_repeats_bit_for_bit_on_any_cpu_count(paired, monkeypatch):
    # n = 1040 is the size from which L X, n x n x 4, reaches matmul's gate
    A = _block_affinity(np.random.default_rng(14), [340, 350, 350], noise=0.3)
    assert 1040 * 1040 * 4 >= linalg.SPLIT_MIN_MACS
    results = []
    with single_thread():
        for cpus in (1, 2, 2):
            monkeypatch.setattr(blas, "_cpus", lambda: cpus)
            results.append(spectral_embedding(A, 3).tobytes())
    assert paired.jobs > 0  # the Krylov products split on two CPUs
    assert results[0] == results[1] == results[2]


def test_more_components_than_clusters_fall_back_to_eigh(krylov_calls, monkeypatch):
    # c + 1 components: c + 1 zero eigenvalues leave no gap after the c-th
    sizes = [KRYLOV_N // 4 + 1] * 4
    A = _block_affinity(np.random.default_rng(15), sizes)
    products = []
    real = spectral.matmul
    monkeypatch.setattr(spectral, "matmul", lambda L, X: products.append(1) or real(L, X))
    assert spectral_embedding(A, 3).tobytes() == references.eigh_embedding(A, 3).tobytes()
    assert krylov_calls == [(sum(sizes), 3, False)]
    # the zero gap converges within a few blocks, and the solver stops
    # there, not at its column cap of KRYLOV_COLUMNS / 4 blocks
    assert len(products) < spectral.KRYLOV_COLUMNS // 4


def test_isolated_vertices_fall_back_to_eigh(krylov_calls):
    A = _block_affinity(np.random.default_rng(16), BLOCKS)
    # vertices whose only edge is a self-loop are components of their own,
    # here two more than the three blocks
    A[:2] = A[:, :2] = 0.0
    A[0, 0] = A[1, 1] = 1.0
    assert spectral_embedding(A, 3).tobytes() == references.eigh_embedding(A, 3).tobytes()
    assert krylov_calls == [(KRYLOV_N, 3, False)]
    # a vertex without any edge: its rows are rounding, which only eigh
    # reproduces, so the solver is not tried
    A[0, 0] = 0.0
    assert spectral_embedding(A, 3).tobytes() == references.eigh_embedding(A, 3).tobytes()
    assert len(krylov_calls) == 1


def test_unconverged_krylov_basis_falls_back_to_eigh(krylov_calls, monkeypatch):
    A = _block_affinity(np.random.default_rng(17), BLOCKS, noise=0.4)
    monkeypatch.setattr(spectral, "KRYLOV_TOL", 0.0)
    assert spectral_embedding(A, 3).tobytes() == references.eigh_embedding(A, 3).tobytes()
    assert krylov_calls == [(KRYLOV_N, 3, False)]


def test_krylov_size_rule(krylov_calls):
    # the solver runs from n = 2 * KRYLOV_COLUMNS while 4 (c + 1) columns
    # fit the basis; smaller problems take eigh, as before
    rng = np.random.default_rng(18)
    small = _block_affinity(rng, [KRYLOV_N // 2, KRYLOV_N // 2 - 1], noise=0.05)
    assert spectral_embedding(small, 2).tobytes() == references.eigh_embedding(small, 2).tobytes()
    assert krylov_calls == []
    A = _block_affinity(rng, BLOCKS, noise=0.05)
    widest = spectral.KRYLOV_COLUMNS // 4 - 1
    for c in (2, widest, widest + 1):
        spectral_embedding(A, c)
    assert [call[:2] for call in krylov_calls] == [(KRYLOV_N, 2), (KRYLOV_N, widest)]


def test_eigh_failure_is_a_numerical_error(monkeypatch):
    def fails(L):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    with pytest.raises(NumericalError, match="normalized Laplacian failed"):
        spectral_embedding(_block_affinity(np.random.default_rng(19), [5, 6]), 2)

