"""Proximity graph construction for multi-view data.

Builds, per view, a Gaussian-kernel similarity sparsified by mutual
k-nearest-neighbors (first-order proximity), the elementwise-product
consensus graph across views with its support/complement index sets, a
shared-neighborhood kernel (second-order proximity), and the per-view
fused weight matrices with their Laplacians that the solver consumes.

Samples are columns of each view matrix. All outputs are dense; the
intended problem sizes are a few thousand samples at most.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, NumericalError, ValidationError

# Consensus entries at or below this are treated as zero when forming the
# support: products of several kernels underflow easily.
CONSENSUS_TOL = 1e-12


def pairwise_sq_dists(X):
    """Squared Euclidean distances between the columns of X."""
    G = X.T @ X
    sq = np.diag(G)
    d2 = sq[:, None] + sq[None, :] - 2.0 * G
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def gaussian_kernel(X):
    """Kernel matrix S_ij = exp(-||x_i - x_j||^2 / sigma^2) over columns of X.

    sigma is the median Euclidean distance over distinct column pairs.
    Returns (S, sigma); raises DegenerateInputError when sigma is zero
    (all columns identical) and NumericalError when a distance overflows.
    """
    n = X.shape[1]
    if n < 2:
        raise ValidationError(f"need at least 2 samples, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = pairwise_sq_dists(X)
    return _kernel_from_sq_dists(d2)


def _kernel_from_sq_dists(d2):
    """gaussian_kernel from precomputed squared distances d2 (n >= 2)."""
    iu = np.triu_indices(d2.shape[0], k=1)
    sigma = float(np.median(np.sqrt(d2[iu])))
    if not (np.isfinite(sigma) and np.isfinite(d2).all()):
        raise NumericalError(
            "pairwise distances overflow; rescale the view or normalize it"
        )
    if sigma == 0.0:
        raise DegenerateInputError(
            "median pairwise distance is zero; kernel bandwidth undefined"
        )
    return np.exp(-d2 / sigma**2), sigma


def _knn_sets(d2, k):
    """Boolean n x n mask: entry (i, j) true when j is among the k nearest
    neighbors of i. Self excluded; distance ties break toward the smaller
    index (stable sort) for cross-platform reproducibility."""
    n = d2.shape[0]
    d = d2.copy()
    np.fill_diagonal(d, np.inf)
    order = np.argsort(d, axis=1, kind="stable")
    mask = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), k)
    mask[rows, order[:, :k].ravel()] = True
    return mask


@dataclass
class FirstOrderGraph:
    """Mutual-kNN sparsified Gaussian kernel over one view's samples."""

    similarity: np.ndarray  # n x n, symmetric, zero diagonal
    sigma: float
    neighbor_count: int

    @property
    def n(self):
        return self.similarity.shape[0]


@dataclass
class ConsensusGraph:
    """Elementwise product of all first-order graphs, with its support.

    omega marks the off-diagonal entries where every view agrees (nonzero
    product); omega_bar is the off-diagonal complement. Diagonal pairs are
    excluded from both: they contribute nothing to the regularizers.
    """

    lambda_star: np.ndarray
    omega: np.ndarray  # boolean mask
    omega_bar: np.ndarray  # boolean mask


@dataclass
class SecondOrderGraph:
    """Gaussian kernel over first-order neighborhood columns."""

    similarity: np.ndarray  # entries in (0, 1], unit diagonal
    sigma: float


@dataclass
class FusedGraph:
    """Per-view fused weights and their Laplacians."""

    weights: list  # of n x n ndarrays
    laplacians: list  # of n x n ndarrays


def first_order_proximity(X, k):
    """First-order proximity of one view (columns of X are samples).

    Gaussian-kernel similarities are kept only between mutual k-nearest
    neighbors; everything else, including the diagonal, is zero.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    if n < 2:
        raise ValidationError(f"need at least 2 samples, got {n}")
    if not 1 <= k < n:
        raise ValidationError(f"neighbor count must satisfy 1 <= k < n, got k={k}, n={n}")
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = pairwise_sq_dists(X)
    S, sigma = _kernel_from_sq_dists(d2)
    knn = _knn_sets(d2, k)
    mutual = knn & knn.T
    lam = np.where(mutual, S, 0.0)
    np.fill_diagonal(lam, 0.0)
    return FirstOrderGraph(similarity=lam, sigma=sigma, neighbor_count=k)


def consensus_graph(graphs):
    """Elementwise (Hadamard) product of the per-view first-order graphs.

    Entries at or below CONSENSUS_TOL are zeroed before the support is
    formed, so omega is exactly the nonzero set of the returned matrix.
    """
    if len(graphs) < 1:
        raise ValidationError("need at least one first-order graph")
    n = graphs[0].n
    for i, g in enumerate(graphs):
        if g.similarity.shape != (n, n):
            raise ValidationError(
                f"graph {i} has shape {g.similarity.shape}, expected {(n, n)}"
            )
    lam = np.ones((n, n))
    for g in graphs:
        lam = lam * g.similarity
    lam[lam <= CONSENSUS_TOL] = 0.0
    offdiag = ~np.eye(n, dtype=bool)
    omega = (lam > 0.0) & offdiag
    return ConsensusGraph(lambda_star=lam, omega=omega, omega_bar=~omega & offdiag)


def second_order_proximity(g):
    """Second-order proximity: kernel over the columns of a first-order graph.

    Points sharing neighbors have similar columns, hence high similarity.
    The bandwidth is recomputed as the median pairwise distance between
    the graph's columns (logged on the result as sigma).
    """
    S, sigma = gaussian_kernel(g.similarity)
    return SecondOrderGraph(similarity=S, sigma=sigma)


def fuse_weights(consensus, second_order, alpha):
    """Per-view fused weights: consensus/v on the support, alpha-scaled
    second-order proximity elsewhere; Laplacians L = D - W with D the
    diagonal of row sums (so L @ 1 = 0 by construction)."""
    if alpha < 0:
        raise ValidationError(f"alpha must be nonnegative, got {alpha}")
    v = len(second_order)
    if v < 1:
        raise ValidationError("need at least one second-order graph")
    n = consensus.lambda_star.shape[0]
    weights, laplacians = [], []
    shared = np.where(consensus.omega, consensus.lambda_star / v, 0.0)
    for ups in second_order:
        if ups.similarity.shape != (n, n):
            raise ValidationError(
                f"second-order graph has shape {ups.similarity.shape}, expected {(n, n)}"
            )
        W = shared + np.where(consensus.omega_bar, alpha * ups.similarity, 0.0)
        weights.append(W)
        laplacians.append(laplacian_from_weights(W))
    return FusedGraph(weights=weights, laplacians=laplacians)


def laplacian_from_weights(W):
    """L = D - W with D = diag(row sums)."""
    return np.diag(np.asarray(W).sum(axis=1)) - W


def laplacian_quadratic(L_list, Z):
    """Sum over views of trace(Z^T L Z).

    For each Laplacian this equals the weighted sum of squared row
    differences of Z, 0.5 * sum_ij W_ij ||z_i - z_j||^2, which is how the
    consistent and complementary regularizers enter the solver.
    """
    Z = np.asarray(Z, dtype=float)
    return float(sum(np.sum(Z * (L @ Z)) for L in L_list))


def row_sq_dists(Z):
    """Squared Euclidean distances between the rows of Z."""
    return pairwise_sq_dists(np.asarray(Z, dtype=float).T)


@dataclass
class GraphSet:
    """Everything the solver and diagnostics need about one dataset's graphs.

    mode "fused" carries the consensus/second-order machinery; mode
    "first_order" (the naive ablation) uses each view's first-order graph
    directly as its weight matrix, with no support split.
    """

    first_order: list
    fused: FusedGraph
    alpha: float
    mode: str = "fused"
    consensus: ConsensusGraph | None = None
    second_order: list | None = field(default=None)

    @property
    def laplacians(self):
        return self.fused.laplacians

    def regularizer_direct(self, Z):
        """Graph regularizer evaluated from the defining double sums
        (consistent part plus alpha times complementary part), not from
        the Laplacian trace form."""
        d2 = row_sq_dists(Z)
        if self.mode == "first_order":
            return float(
                sum(0.5 * np.sum(g.similarity * d2) for g in self.first_order)
            )
        cons = 0.5 * np.sum(self.consensus.lambda_star[self.consensus.omega]
                            * d2[self.consensus.omega])
        comp = sum(
            0.5 * np.sum(ups.similarity[self.consensus.omega_bar]
                         * d2[self.consensus.omega_bar])
            for ups in self.second_order
        )
        return float(cons + self.alpha * comp)


def build_graph_set(views, knn, alpha, mode="fused", first_order=None):
    """Construct the full graph machinery for a list of view matrices.

    first_order may carry the views' first-order graphs from an earlier
    build with the same knn (they depend only on the views and knn), so
    graph sets of both modes can share them.
    """
    if mode not in ("fused", "first_order"):
        raise ValidationError(f"unknown graph mode {mode!r}")
    if first_order is None:
        first = [first_order_proximity(X, knn) for X in views]
    else:
        first = first_order
        if len(first) != len(views) or any(g.neighbor_count != knn for g in first):
            raise ValidationError(
                f"first-order graphs do not match {len(views)} views at knn={knn}"
            )
    if mode == "first_order":
        weights = [g.similarity for g in first]
        fused = FusedGraph(
            weights=weights,
            laplacians=[laplacian_from_weights(W) for W in weights],
        )
        return GraphSet(first_order=first, fused=fused, alpha=alpha, mode=mode)
    cons = consensus_graph(first)
    seconds = [second_order_proximity(g) for g in first]
    fused = fuse_weights(cons, seconds, alpha)
    return GraphSet(
        first_order=first,
        fused=fused,
        alpha=alpha,
        mode=mode,
        consensus=cons,
        second_order=seconds,
    )


def dump_graphs(graph_set, out_dir):
    """Write the first-order, consensus, and second-order matrices as CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k, g in enumerate(graph_set.first_order):
        np.savetxt(out / f"first_order_view{k}.csv", g.similarity, delimiter=",")
    if graph_set.consensus is not None:
        np.savetxt(out / "consensus.csv", graph_set.consensus.lambda_star, delimiter=",")
    if graph_set.second_order is not None:
        for k, ups in enumerate(graph_set.second_order):
            np.savetxt(out / f"second_order_view{k}.csv", ups.similarity, delimiter=",")
