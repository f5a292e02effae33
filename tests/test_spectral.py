import numpy as np
import pytest

from mvsc.errors import ValidationError
from mvsc.metrics import accuracy
from mvsc.spectral import (
    affinity_from_representation,
    kmeans,
    normalized_laplacian,
    spectral_cluster,
    spectral_embedding,
)


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
