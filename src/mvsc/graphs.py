"""Proximity graph construction for multi-view data.

Builds, per view, a Gaussian-kernel similarity sparsified by mutual
k-nearest-neighbors (first-order proximity), the elementwise-product
consensus graph across views with its support/complement index sets, a
shared-neighborhood kernel (second-order proximity), and the per-view
fused weight matrices with their Laplacians L_k.

Downstream of this module, the graphs are read only through
S0 = sum_k (L_k + L_k^T): the fit's Z step and its objective trace both
take S0 alone. One per-view generator yields each view's weights W_k
(the first-order similarity, or the fused weights of a second-order
graph built just then) and that graph; build_graph_set folds each W_k's
Laplacian into S0, writes a dump's CSVs as it goes, and lets them all go
before the next view's, so a GraphSet stores the first-order graphs,
the consensus and S0. Diagnostics derive the rest again through the
same path, bit for bit.

Samples are columns of each view matrix. All outputs are dense; the
intended problem sizes are a few thousand samples at most.
"""

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import write_matrix
from .errors import DegenerateInputError, NumericalError, ValidationError
from .linalg import inf_norm

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
    (at least half the column pairs identical) and NumericalError when a
    distance overflows, or when all underflow to zero between columns
    that differ.
    """
    n = X.shape[1]
    if n < 2:
        raise ValidationError(f"need at least 2 samples, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = pairwise_sq_dists(X)
    return _kernel_from_sq_dists(d2, X)


def _median(values):
    """np.median of a 1-D array, bit for bit, without its numpy.ma
    import: values is partitioned in place, and the mean of its middle
    pair taken (one entry twice when the count is odd)."""
    mid = [(values.size - 1) // 2, values.size // 2]
    values.partition(mid)
    return float((values[mid[0]] + values[mid[1]]) / 2)


def _kernel_from_sq_dists(d2, X):
    """gaussian_kernel from the squared distances d2 between the columns
    of X (n >= 2)."""
    iu = np.triu_indices(d2.shape[0], k=1)
    sigma = _median(np.sqrt(d2[iu]))
    if not (np.isfinite(sigma) and np.isfinite(d2).all()):
        raise NumericalError(
            "pairwise distances overflow; rescale the view or normalize it"
        )
    if sigma == 0.0:
        if not d2.any() and (X != X[:, :1]).any():
            raise NumericalError(
                "pairwise distances underflow to zero; rescale the view or normalize it"
            )
        raise DegenerateInputError(
            "median pairwise distance is zero; kernel bandwidth undefined"
        )
    return np.exp(-d2 / sigma**2), sigma


def _for_view(k, build, *args):
    """build(*args) for view k, naming the view in a numerical failure or
    a degenerate view (the error keeps its class, so its exit code)."""
    try:
        return build(*args)
    except (NumericalError, DegenerateInputError) as exc:
        raise type(exc)(f"view {k}: {exc}") from exc


def _knn_sets(d2, k):
    """Boolean n x n mask: entry (i, j) true when j is among the k nearest
    neighbors of i. Self excluded; distance ties break toward the smaller
    index (as a stable sort would) for cross-platform reproducibility.

    No row is sorted: a partition finds each row's k-th smallest
    distance t, every closer entry is in, and the slots left go to the
    entries at distance t in index order."""
    d = d2.copy()
    np.fill_diagonal(d, np.inf)
    t = np.partition(d, k - 1, axis=1)[:, [k - 1]]
    mask = d < t
    ties = d == t
    del d
    ties &= np.cumsum(ties, axis=1) <= k - mask.sum(axis=1, keepdims=True)
    mask |= ties
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
    S, sigma = _kernel_from_sq_dists(d2, X)
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


def _fused_weight(consensus, ups, alpha, v):
    """One view's fused weights out of v: consensus/v on the support,
    alpha-scaled second-order proximity on its complement."""
    shared = np.where(consensus.omega, consensus.lambda_star / v, 0.0)
    return shared + np.where(consensus.omega_bar, alpha * ups.similarity, 0.0)


def _view_weights(first_order, consensus, alpha):
    """Each view's (W_k, second-order graph), in view order: its
    first-order similarity and None when consensus is None (mode
    "first_order"), else its fused weights and the second-order graph
    built here for them, dropped before the next view's."""
    v = len(first_order)
    for k, g in enumerate(first_order):
        if consensus is None:
            yield g.similarity, None
        else:
            ups = _for_view(k, second_order_proximity, g)
            yield _fused_weight(consensus, ups, alpha, v), ups
            del ups  # else it lives on through the next view's build


def laplacian_from_weights(W):
    """L = D - W with D = diag(row sums)."""
    return np.diag(np.asarray(W).sum(axis=1)) - W


def row_sq_dists(Z):
    """Squared Euclidean distances between the rows of Z."""
    return pairwise_sq_dists(np.asarray(Z, dtype=float).T)


@dataclass
class GraphSet:
    """One dataset's graphs: what the solver reads and what diagnostics need.

    mode "fused" carries the consensus/second-order machinery; mode
    "first_order" (the naive ablation) uses each view's first-order graph
    directly as its weight matrix, with no support split.

    laplacian_sum is S0 = sum_k (L_k + L_k^T), summed in view order: the
    one matrix a fit reads. The laplacians are not stored by the build;
    they are derived on first use through the path the build used, so
    they are bit-identical to what it summed.
    """

    first_order: list
    laplacian_sum: np.ndarray
    alpha: float
    mode: str = "fused"
    consensus: ConsensusGraph | None = None

    @cached_property
    def laplacians(self):
        """Per-view Laplacians L_k of the weights the set regularizes with."""
        return [
            laplacian_from_weights(W)
            for W, _ in _view_weights(self.first_order, self.consensus, self.alpha)
        ]

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
        bar = self.consensus.omega_bar
        comp = sum(
            0.5 * np.sum(second_order_proximity(g).similarity[bar] * d2[bar])
            for g in self.first_order
        )
        return float(cons + self.alpha * comp)


def build_graph_set(views, knn, alpha, mode="fused", first_order=None,
                    dump_dir=None):
    """Construct the graph set of a list of view matrices.

    first_order may carry the views' first-order graphs from an earlier
    build with the same knn (they depend only on the views and knn), so
    graph sets of both modes can share them. Each view's weights and
    Laplacian (and in mode "fused" its second-order graph) are folded
    into S0 and dropped before the next view's are formed. dump_dir
    receives the graphs as CSV, each second-order one while the build
    holds it; a build that fails partway leaves what it has written, and
    one whose S0 overflows raises NumericalError naming the view and alpha.
    """
    if mode not in ("fused", "first_order"):
        raise ValidationError(f"unknown graph mode {mode!r}")
    if first_order is None:
        first = [_for_view(k, first_order_proximity, X, knn)
                 for k, X in enumerate(views)]
    else:
        first = first_order
        if len(first) != len(views) or any(g.neighbor_count != knn for g in first):
            raise ValidationError(
                f"first-order graphs do not match {len(views)} views at knn={knn}"
            )
    if not first:
        raise ValidationError("need at least one view")
    cons = None
    if mode == "fused":
        if alpha < 0:
            raise ValidationError(f"alpha must be nonnegative, got {alpha}")
        cons = consensus_graph(first)
    if dump_dir is not None:
        out = Path(dump_dir)
        out.mkdir(parents=True, exist_ok=True)
        for k, g in enumerate(first):
            write_matrix(out / f"first_order_view{k}.csv", g.similarity)
        if cons is not None:
            write_matrix(out / "consensus.csv", cons.lambda_star)
    S0 = np.zeros((first[0].n,) * 2)
    # the loop names, and enumerate's last tuple, would keep this view's
    # graphs alive while the next view's are built
    k = 0
    for W, ups in _view_weights(first, cons, alpha):
        if dump_dir is not None and ups is not None:
            write_matrix(out / f"second_order_view{k}.csv", ups.similarity)
        with np.errstate(over="ignore", invalid="ignore"):
            L = laplacian_from_weights(W)
            S0 += L + L.T
        del W, ups, L
        if not np.isfinite(inf_norm(S0)):
            raise NumericalError(f"view {k}: the graph term S0 overflows "
                                 f"(alpha = {alpha:g}); lower alpha")
        k += 1
    return GraphSet(
        first_order=first, laplacian_sum=S0, alpha=alpha, mode=mode, consensus=cons
    )
