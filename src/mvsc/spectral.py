"""Spectral clustering on a learned self-representation.

The affinity is the symmetrized magnitude of the representation,
(|Z| + |Z^T|) / 2. Clustering runs on the bottom eigenvectors of the
symmetric normalized Laplacian with a seeded k-means: KMEANS_STARTS
k-means++ starts, each refined by Lloyd's iterations, best inertia wins.

The affinity and the Laplacian take one n x n array each: they are
scaled and symmetrized in place (linalg.add_transpose), with the bits
of the plain expressions.

The embedding needs only the c = n_clusters bottom eigenvectors of the
Laplacian L. From n = 2 * KRYLOV_COLUMNS on (and for c + 1 at most a
quarter of KRYLOV_COLUMNS) they come from a block Krylov space of
2I - L, whose top eigenvalues are L's bottom ones (Golub & Underwood
1977): a seeded start block of c + 1 orthonormal columns, each new
block orthogonalized twice against the whole basis, and a
Rayleigh-Ritz step after every block. The result is accepted once the
certificate holds:

- every one of the c Ritz pairs (theta, x) has ||L x - theta x|| at
  most KRYLOV_TOL, so each theta is within KRYLOV_TOL of an eigenvalue;
- the gap after them, theta_{c+1} - r_{c+1} - theta_c with r_{c+1} the
  (c+1)-th pair's residual, is at least KRYLOV_GAP, so the c-dimensional
  subspace is well defined, and the Ritz vectors span it to within a
  sin(angle) of sqrt(c) KRYLOV_TOL / KRYLOV_GAP (Davis & Kahan 1970).

Otherwise, when the gap has converged below KRYLOV_GAP, the basis
reaches KRYLOV_COLUMNS columns or stops growing (a space invariant
under L), or n is small, numpy's eigh of L gives the vectors, as it did
for every n before; an eigh that does not converge is a NumericalError.
More than c zero eigenvalues (a graph with more than c components,
vertices whose only edge is a self-loop among them) leave no gap, so
such a graph takes eigh. So does a graph with a vertex of degree zero:
its row of the bottom vectors is zero but for rounding, which the row
normalization blows up, so only eigh's own rounding reproduces its
labels.

The two embeddings give the same labels: they span the same subspace to
rounding, in different orthonormal bases, and k-means++ and Lloyd's
iterations read only distances between the row-normalized rows, which
an orthogonal change of basis keeps. Starts that reach the same
partition have inertias of the same bits, so the earliest still wins.
The Krylov path's products go through linalg.matmul, whose split does
not depend on the CPU count, so neither does the embedding.

One k-means call advances all its starts together as (starts, n)
arrays: only the k-means++ draws run start by start, and distances are
built one center column at a time, so no (starts, n, k, dim) temporary
exists. Each start's labels and inertia are bit for bit those of running
it alone with a per-cluster X[mask].mean.
"""

import logging

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import _as_matrix, add_transpose, matmul

logger = logging.getLogger(__name__)

# k-means++ starts per clustering, and Lloyd's iteration cap and
# center-shift tolerance per start
KMEANS_STARTS = 20
LLOYD_MAX_ITER = 300
LLOYD_TOL = 1e-12

# the embedding's block Krylov solver (see the module docstring): the
# basis's column cap, which also sets the size rule (eigh runs below
# n = 2 * KRYLOV_COLUMNS), each kept Ritz pair's residual tolerance, the
# smallest certified gap after them, and the start block's seed
KRYLOV_COLUMNS = 160
KRYLOV_TOL = 1e-10
KRYLOV_GAP = 1e-3
KRYLOV_SEED = 0


def affinity_from_representation(Z):
    """Symmetric nonnegative affinity (|Z| + |Z^T|) / 2, in one n x n
    array: |Z| + |Z|^T added in place, then halved."""
    Z = _as_matrix(Z, "Z")
    if Z.shape[0] != Z.shape[1]:
        raise ValidationError(f"representation must be square, got {Z.shape}")
    A = add_transpose(np.abs(Z))
    A /= 2.0
    return A


def normalized_laplacian(A):
    """Symmetric normalized Laplacian I - D^(-1/2) A D^(-1/2).

    Vertices with zero degree keep a unit diagonal entry (their degree is
    treated as 1, leaving the corresponding row/column of A untouched).
    Symmetrized as (L + L^T) / 2 in place, so it takes one n x n array.
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
    L = inv_sqrt[:, None] * A
    L *= inv_sqrt[None, :]
    # I - L with the bits of np.eye(n) - L: 0 - x off the diagonal
    # (+0.0 where x is 0, which negating would make -0.0), 1 - x on it
    diag = 1.0 - L.diagonal()
    np.subtract(0.0, L, out=L)
    L[np.diag_indices(n)] = diag
    add_transpose(L)
    L /= 2.0
    return L


def _krylov_bottom(L, c):
    """The c bottom eigenvectors of the symmetric L, n x c, from the
    certified block Krylov solver of the module docstring; None when
    the certificate does not hold."""
    n, b = L.shape[0], c + 1
    Q = np.empty((n, KRYLOV_COLUMNS), order="F")  # orthonormal basis
    W = np.empty_like(Q)  # (2I - L) Q
    T = np.empty((KRYLOV_COLUMNS, KRYLOV_COLUMNS))  # Q^T W
    X, _ = np.linalg.qr(np.random.default_rng(KRYLOV_SEED).standard_normal((n, b)))
    for k in range(b, KRYLOV_COLUMNS + 1, b):
        Q[:, k - b:k] = X
        W[:, k - b:k] = 2.0 * X - matmul(L, X)
        Qk, Wk = Q[:, :k], W[:, :k]
        H = Qk.T @ Wk[:, -b:]
        T[:k, k - b:k] = H
        T[k - b:k, :k] = H.T
        theta, S = np.linalg.eigh(T[:k, :k])
        # the top b Ritz pairs of 2I - L, largest first
        theta, S = theta[::-1][:b], S[:, ::-1][:, :b]
        res = np.linalg.norm(Wk @ S - (Qk @ S) * theta, axis=0)
        if res[:c].max() <= KRYLOV_TOL:
            if theta[c - 1] - theta[c] - res[c] >= KRYLOV_GAP:
                return Qk @ S[:, :c]
            if res[c] <= KRYLOV_TOL:
                return None  # the gap has converged, below KRYLOV_GAP
        Y = Wk[:, -b:] - Qk @ H
        Y -= Qk @ (Qk.T @ Y)
        X, R = np.linalg.qr(Y)
        if np.abs(np.diagonal(R)).min() < KRYLOV_TOL:
            return None  # no new direction: the space is invariant
    return None


def spectral_embedding(A, n_clusters):
    """Rows of the n_clusters bottom eigenvectors of the normalized
    Laplacian, row-normalized to unit length (all-zero rows are kept).
    n_clusters is checked before the Laplacian is built. The vectors
    come from the certified Krylov solver where its size rule admits it
    and its certificate holds, else from eigh (see the module
    docstring)."""
    n = len(A)
    if not 1 <= n_clusters <= n:
        raise ValidationError(
            f"n_clusters must lie in [1, {n}], got {n_clusters}"
        )
    L = normalized_laplacian(A)
    vecs = None
    # a row of A without a nonzero entry is a vertex of degree zero
    if (n >= 2 * KRYLOV_COLUMNS and 4 * (n_clusters + 1) <= KRYLOV_COLUMNS
            and np.asarray(A).any(axis=1).all()):
        vecs = _krylov_bottom(L, n_clusters)
    if vecs is None:
        try:
            vecs = np.linalg.eigh(L)[1][:, :n_clusters]
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"eigendecomposition of the {n} x {n} normalized Laplacian failed: {exc}"
            ) from exc
    norms = np.linalg.norm(vecs, axis=1)
    return vecs / np.where(norms > 0, norms, 1.0)[:, None]


def _sq_dists_to(X, centers):
    """(starts, n) squared distances from the rows of X to one center per
    start; (starts, n, dim) is the largest temporary."""
    return np.sum((X - centers[:, None, :]) ** 2, axis=2)


def _closer(labels, dist, d2, j):
    """Give center j the points strictly closer to it than to their
    current center, so ties stay with the lower index; returns the new
    distances."""
    np.putmask(labels, d2 < dist, j)
    return np.minimum(dist, d2)


def _assign(X, centers):
    """Nearest center of every point for every start, and its squared
    distance, both (starts, n); one center column at a time."""
    dist = _sq_dists_to(X, centers[:, 0])
    labels = np.zeros(dist.shape, dtype=np.intp)
    for j in range(1, centers.shape[1]):
        dist = _closer(labels, dist, _sq_dists_to(X, centers[:, j]), j)
    return labels, dist


def _kmeans_pp_init(X, k, rngs):
    """k-means++ centers, (starts, k, dim), one start per generator, and
    the assignment to them; only the draws run start by start."""
    n = X.shape[0]
    centers = np.empty((len(rngs), k, X.shape[1]))
    centers[:, 0] = X[[rng.integers(n) for rng in rngs]]
    dist = _sq_dists_to(X, centers[:, 0])
    labels = np.zeros(dist.shape, dtype=np.intp)
    for j in range(1, k):
        total = dist.sum(axis=1)
        p = dist / np.where(total > 0, total, 1.0)[:, None]
        # a start whose points all coincide with its chosen centers draws
        # uniformly
        centers[:, j] = X[[
            rng.choice(n, p=ps) if t > 0 else rng.integers(n)
            for rng, ps, t in zip(rngs, p, total)
        ]]
        dist = _closer(labels, dist, _sq_dists_to(X, centers[:, j]), j)
    return centers, labels, dist


def _means(X, labels, dist, k):
    """Each start's cluster means; every empty cluster moves to the point
    its start serves worst."""
    starts, n = labels.shape
    dim = X.shape[1]
    bins = labels + k * np.arange(starts)[:, None]
    counts = np.bincount(bins.ravel(), minlength=starts * k).reshape(starts, k)
    if dim == 1:
        # numpy sums a single column pairwise, not in index order
        sums = np.array([[X[row == j].sum(axis=0) for j in range(k)] for row in labels])
    else:
        # bincount adds in index order, as X[mask].sum(axis=0) does
        flat = bins[:, None, :] + starts * k * np.arange(dim)[:, None]
        sums = np.bincount(
            flat.ravel(), weights=np.broadcast_to(X.T, (starts, dim, n)).ravel(),
            minlength=dim * starts * k,
        ).reshape(dim, starts, k).transpose(1, 2, 0)
    means = sums / np.maximum(counts, 1)[:, :, None]
    s_idx, j_idx = np.nonzero(counts == 0)
    means[s_idx, j_idx] = X[np.argmax(dist[s_idx], axis=1)]
    return means


def _lloyd(X, centers, labels, dist):
    """Lloyd's iterations on every start at once, from centers and their
    assignment (labels and squared distances, (starts, n)), all updated
    in place. A start stops once its largest center shift is at most
    LLOYD_TOL. Returns the inertias, (starts,)."""
    k = centers.shape[1]
    moving = np.arange(len(centers))
    for _ in range(LLOYD_MAX_ITER):
        new = _means(X, labels[moving], dist[moving], k)
        shift = np.max(np.linalg.norm(new - centers[moving], axis=2), axis=1)
        centers[moving] = new
        # a start whose centers did not move keeps its assignment, since a
        # new pass would give the same bits
        moved = moving[shift != 0]
        labels[moved], dist[moved] = _assign(X, centers[moved])
        moving = moving[~(shift <= LLOYD_TOL)]
        if not moving.size:
            break
    return dist.sum(axis=1)


def kmeans(X, k, seed):
    """Seeded k-means with KMEANS_STARTS k-means++ starts, run together.

    Each start draws from an independent child of SeedSequence(seed);
    the lowest-inertia run wins, with ties going to the earliest start.
    Deterministic given (X, k, seed).
    """
    X = _as_matrix(X, "X")
    if not 1 <= k <= X.shape[0]:
        raise ValidationError(f"k must lie in [1, {X.shape[0]}], got {k}")
    rngs = [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(KMEANS_STARTS)
    ]
    centers, labels, dist = _kmeans_pp_init(X, k, rngs)
    inertia = _lloyd(X, centers, labels, dist)
    best = int(np.argmin(inertia))
    return labels[best].copy(), float(inertia[best])


def cluster_embedding(U, n_clusters, seed):
    """Seeded k-means on a spectral embedding; returns integer labels in
    [0, n_clusters) and warns when fewer clusters come out nonempty."""
    labels, _ = kmeans(U, n_clusters, seed)
    found = np.count_nonzero(np.bincount(labels, minlength=n_clusters))
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
