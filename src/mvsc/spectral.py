"""Spectral clustering on a learned self-representation.

The affinity is the symmetrized magnitude of the representation,
(|Z| + |Z^T|) / 2. Clustering runs on the bottom eigenvectors of the
symmetric normalized Laplacian with a seeded k-means: KMEANS_STARTS
k-means++ starts, each refined by Lloyd's iterations, best inertia wins.
"""

import logging

import numpy as np

from .errors import ValidationError
from .linalg import _as_matrix

logger = logging.getLogger(__name__)

# k-means++ starts per clustering, and Lloyd's iteration cap and
# center-shift tolerance per start
KMEANS_STARTS = 20
LLOYD_MAX_ITER = 300
LLOYD_TOL = 1e-12


def affinity_from_representation(Z):
    """Symmetric nonnegative affinity (|Z| + |Z^T|) / 2."""
    Z = _as_matrix(Z, "Z")
    if Z.shape[0] != Z.shape[1]:
        raise ValidationError(f"representation must be square, got {Z.shape}")
    return (np.abs(Z) + np.abs(Z.T)) / 2.0


def normalized_laplacian(A):
    """Symmetric normalized Laplacian I - D^(-1/2) A D^(-1/2).

    Vertices with zero degree keep a unit diagonal entry (their degree is
    treated as 1, leaving the corresponding row/column of A untouched).
    """
    A = _as_matrix(A, "A")
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValidationError(f"affinity must be square, got {A.shape}")
    if np.any(A < 0):
        raise ValidationError("affinity must be nonnegative")
    deg = A.sum(axis=1)
    safe = np.where(deg > 0, deg, 1.0)
    inv_sqrt = 1.0 / np.sqrt(safe)
    L = np.eye(n) - inv_sqrt[:, None] * A * inv_sqrt[None, :]
    return (L + L.T) / 2.0


def spectral_embedding(A, n_clusters):
    """Rows of the n_clusters bottom eigenvectors of the normalized
    Laplacian, row-normalized to unit length (all-zero rows are kept)."""
    L = normalized_laplacian(A)
    n = L.shape[0]
    if not 1 <= n_clusters <= n:
        raise ValidationError(
            f"n_clusters must lie in [1, {n}], got {n_clusters}"
        )
    vecs = np.linalg.eigh(L)[1][:, :n_clusters]
    norms = np.linalg.norm(vecs, axis=1)
    return vecs / np.where(norms > 0, norms, 1.0)[:, None]


def _kmeans_pp_init(X, k, rng):
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


def _lloyd(X, centers):
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


def kmeans(X, k, seed):
    """Seeded k-means with KMEANS_STARTS k-means++ starts.

    Each start draws from an independent child of SeedSequence(seed);
    the lowest-inertia run wins, with ties going to the earliest start.
    Deterministic given (X, k, seed).
    """
    X = _as_matrix(X, "X")
    if not 1 <= k <= X.shape[0]:
        raise ValidationError(f"k must lie in [1, {X.shape[0]}], got {k}")
    best_labels, best_inertia = None, np.inf
    for child in np.random.SeedSequence(seed).spawn(KMEANS_STARTS):
        rng = np.random.default_rng(child)
        centers = _kmeans_pp_init(X, k, rng)
        labels, inertia = _lloyd(X, centers)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, best_inertia


def cluster_embedding(U, n_clusters, seed):
    """Seeded k-means on a spectral embedding; returns integer labels in
    [0, n_clusters) and warns when fewer clusters come out nonempty."""
    labels, _ = kmeans(U, n_clusters, seed)
    found = len(np.unique(labels))
    if found < n_clusters:
        logger.warning(
            "spectral clustering produced %d nonempty clusters (asked for %d)",
            found, n_clusters,
        )
    return labels


def spectral_cluster(A, n_clusters, seed):
    """Cluster an affinity matrix; returns integer labels in [0, n_clusters)."""
    if n_clusters < 2:
        raise ValidationError(f"need at least 2 clusters, got {n_clusters}")
    U = spectral_embedding(A, n_clusters)
    return cluster_embedding(U, n_clusters, seed)
