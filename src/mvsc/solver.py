"""Augmented-Lagrangian solver for graph-regularized multi-view subspace
clustering.

Minimizes, over the shared representation Z and per-view column-sparse
errors E, the nuclear norm of Z plus lambda1 times the summed l2,1 norms
of the errors plus lambda2 times the graph regularizer (consistent part
plus alpha times complementary part), subject to X = X Z + E per view.
A copy variable Q carries the nuclear norm; multipliers Y1 (per view)
and Y2 enforce the constraints with a growing penalty mu.

The Z step solves the normal equations derived from the stationarity of
the Z subproblem:

    (mu P + S) Z = B,  P = I + Xs^T Xs,  S = lambda2 * sum_k (L_k + L_k^T)
    B = Xs^T (Y1s + mu (Xs - Es)) + mu Q - Y2

where Xs, Y1s and Es stack the views, their multipliers and their
errors (sum d_k x n). Only mu changes between iterations, so the system
is diagonalized once per fit. R = P^(-1/2) = I + V_r diag((1 + s^2)^(-1/2)
- 1) V_r^T comes from the thin SVD Xs = U diag(s) V_r^T; S is PSD (each
graph is symmetric and nonnegative), and eigh(R S R) = W diag(lam) W^T
gives V = R W, so that (mu P + S)^(-1) = V diag(1 / (mu + lam)) V^T.
Each iteration applies it to the residual of Z = I,

    Z = I + V diag(1 / (mu + lam)) V^T D,  D = B - mu P - S
      = Xs^T (Y1s - mu Es) + mu (Q - I) - Y2 - S,

two GEMMs and no factorization. Forming D without the mu Xs^T Xs term
keeps B's large data-space part out of the fixed basis, which would
round it the same way every iteration and let the multipliers add up
the error: applied to B itself, the fitted Z strays ten times further
from a dense solve's (3e-12 against 3e-13 relative at n=1200). Without
a graph term V = R, lam = 0 and S = 0.

An alternative "as-printed" right-hand side (sign flipped on the error
term, no -Y2) is kept behind a switch for comparison; it does not satisfy
the stationarity condition and fails gradient checks.

Variants: "grmsc" (full model), "grmsc-naive" (first-order graphs used
directly, no consensus split), "msc-naive" (lambda2 = 0), and "lrr-bsv"
(plain LRR on a single view; the pipeline fits each view on its own and
picks the best one).

The solver only optimizes: it is deterministic, starts from Z = 0 as
LRR's ALM does, and never sees labels or clusterings.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .graphs import build_graph_set
from .linalg import _svd, inf_norm, l21_norm, nuclear_norm, prox_l21, svt
# unused here; perfbench/spans.py wraps solver.solve_spd (SOLVER_KERNELS)
from .linalg import solve_spd  # noqa: F401

VARIANTS = ("grmsc", "grmsc-naive", "msc-naive", "lrr-bsv")
Z_UPDATE_MODES = ("derived", "as-printed")


def variant_label(variant):
    """Table-style label for a variant name, e.g. 'msc-naive' -> 'MSC_NAIVE'."""
    return variant.upper().replace("-", "_")


@dataclass(frozen=True)
class HyperParams:
    """Solver and graph hyperparameters with their defaults.

    knn left as None resolves to min(10, n // clusters) at fit time.
    """

    lambda1: float = 0.5
    lambda2: float = 1.0
    alpha: float = 1e-3
    knn: int | None = None
    rho: float = 1.9
    mu0: float = 1e-4
    mu_max: float = 1e6
    eps: float = 1e-6
    max_iter: int = 300
    variant: str = "grmsc"
    z_update: str = "derived"

    def __post_init__(self):
        if self.lambda1 <= 0:
            raise ValidationError(f"lambda1 must be positive, got {self.lambda1}")
        if self.lambda2 < 0:
            raise ValidationError(f"lambda2 must be nonnegative, got {self.lambda2}")
        if self.alpha < 0:
            raise ValidationError(f"alpha must be nonnegative, got {self.alpha}")
        if self.knn is not None and self.knn < 1:
            raise ValidationError(f"knn must be at least 1, got {self.knn}")
        if self.rho <= 1:
            raise ValidationError(f"rho must exceed 1, got {self.rho}")
        if self.mu0 <= 0 or self.mu_max <= 0 or self.mu0 >= self.mu_max:
            raise ValidationError(
                f"need 0 < mu0 < mu_max, got mu0={self.mu0}, mu_max={self.mu_max}"
            )
        if self.eps <= 0:
            raise ValidationError(f"eps must be positive, got {self.eps}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}; one of {VARIANTS}")
        if self.z_update not in Z_UPDATE_MODES:
            raise ValidationError(
                f"unknown z_update {self.z_update!r}; one of {Z_UPDATE_MODES}"
            )

    @property
    def effective_lambda2(self):
        """lambda2 actually applied: zero for the graph-free variants."""
        return self.lambda2 if self.variant in ("grmsc", "grmsc-naive") else 0.0

    def resolve_knn(self, n, clusters):
        if self.knn is not None:
            k = self.knn
        else:
            k = min(10, n // max(clusters, 1))
        return max(1, min(k, n - 1))


@dataclass
class SolverState:
    """Mutable optimization state plus per-iteration diagnostics."""

    Z: np.ndarray
    Q: np.ndarray
    E: list
    Y1: list
    Y2: np.ndarray
    mu: float
    iteration: int = 0
    converged: bool = False
    # (max over views of ||X - XZ - E||_inf, ||Z - Q||_inf) per iteration
    residual_history: list = field(default_factory=list)
    view_residual_history: list = field(default_factory=list)
    mu_history: list = field(default_factory=list)
    objective_history: list = field(default_factory=list)


def _init_state(X_list, params):
    n = X_list[0].shape[1]
    return SolverState(
        Z=np.zeros((n, n)),
        Q=np.zeros((n, n)),
        E=[np.zeros_like(X) for X in X_list],
        Y1=[np.zeros_like(X) for X in X_list],
        Y2=np.zeros((n, n)),
        mu=params.mu0,
    )


def update_E(state, X_list, lambda1, products=None):
    """Column-sparse error update: per view the l2,1 prox at
    X - X Z + Y1 / mu with threshold lambda1 / mu.

    products, when given, is the precomputed list of X_k Z.
    """
    if products is None:
        products = [X @ state.Z for X in X_list]
    out = []
    for X, XZ, Y1 in zip(X_list, products, state.Y1):
        T_E = X - XZ + Y1 / state.mu
        out.append(prox_l21(T_E, lambda1 / state.mu))
    return out


def update_Q(state, rank_hint=None):
    """Nuclear-norm copy update: singular value thresholding of
    Z + Y2 / mu at level 1 / mu. rank_hint, an expected bound on the
    rank of the result, lets svt sketch instead of running a full SVD."""
    return svt(state.Z + state.Y2 / state.mu, 1.0 / state.mu, rank_hint=rank_hint)


def _z_basis(X_list, L_list, lambda2):
    """The Z system's eigenbasis (V, lam) and graph term S (None without
    one), built once per fit: (mu P + S)^(-1) = V diag(1 / (mu + lam)) V^T
    for every mu (see the module docstring). Raises NumericalError when
    sum_k X_k^T X_k overflows."""
    _, s, Vt = _svd(np.vstack(X_list))
    with np.errstate(over="ignore"):
        s2 = s * s
    if not np.isfinite(s2).all():
        raise NumericalError(
            "sum of X^T X over views overflows; rescale the views or normalize them"
        )
    R = (Vt.T * ((1.0 + s2) ** -0.5 - 1.0)) @ Vt
    R[np.diag_indices_from(R)] += 1.0
    if lambda2 > 0 and L_list:
        S = lambda2 * sum(L + L.T for L in L_list)
        lam, W = np.linalg.eigh(R @ S @ R)
        return R @ W, lam, S
    return R, np.zeros(R.shape[0]), None


def update_Z(state, X_list, L_list, lambda2, mode="derived", basis=None):
    """Solve the Z subproblem's normal equations (mu P + S) Z = B.

    basis may carry the precomputed _z_basis(X_list, L_list, lambda2);
    without it the basis is built here. mode "as-printed" reproduces the
    inconsistent closed form (error-term sign flipped, -Y2 missing) for
    comparison runs.
    """
    mu = state.mu
    Xs = np.vstack(X_list)
    # D = B - (mu P + S), with B's mu Xs^T Xs cancelled against mu P
    if mode == "derived":
        T = [Y1 - mu * E for Y1, E in zip(state.Y1, state.E)]
        D = Xs.T @ np.vstack(T) + mu * state.Q - state.Y2
    elif mode == "as-printed":
        T = [Y1 + mu * E for Y1, E in zip(state.Y1, state.E)]
        D = Xs.T @ np.vstack(T) + mu * state.Q
    else:
        raise ValidationError(f"unknown z_update mode {mode!r}")
    V, lam, S = _z_basis(X_list, L_list, lambda2) if basis is None else basis
    if S is not None:
        D -= S
    D[np.diag_indices_from(D)] -= mu
    Z = V @ ((V.T @ D) / (mu + lam)[:, None])
    Z[np.diag_indices_from(Z)] += 1.0
    return Z


def update_multipliers(state, X_list, rho, mu_max, residuals=None):
    """Dual ascent on Y1 (per view) and Y2, then grow mu by rho up to mu_max.

    residuals, when given, is the precomputed pair (R_list, R_zq) with
    R_k = X_k - X_k Z - E_k and R_zq = Z - Q.
    """
    if residuals is None:
        R_list = [X - X @ state.Z - E for X, E in zip(X_list, state.E)]
        R_zq = state.Z - state.Q
    else:
        R_list, R_zq = residuals
    Y1 = [Y + state.mu * R for Y, R in zip(state.Y1, R_list)]
    Y2 = state.Y2 + state.mu * R_zq
    return Y1, Y2, min(rho * state.mu, mu_max)


def objective_value(state, X_list, graphs, params):
    """Objective of the full model at the current state, for diagnostics.

    The graph regularizer is evaluated from its defining double sums, not
    through the Laplacian trace identity, so this value can cross-check
    the solver's trace-form machinery.
    """
    val = nuclear_norm(state.Z)
    val += params.lambda1 * sum(l21_norm(E) for E in state.E)
    lam2 = params.effective_lambda2
    if lam2 > 0 and graphs is not None:
        val += lam2 * graphs.regularizer_direct(state.Z)
    return float(val)


def _alm_loop(X_list, L_list, params, lambda2, graphs=None, trace_objective=False):
    state = _init_state(X_list, params)
    basis = _z_basis(X_list, L_list, lambda2)
    # Q lies near the row space of the stacked dictionary, whose rank is
    # at most its row count
    rank_hint = sum(X.shape[0] for X in X_list)
    products = None  # X_k Z of the last residuals, reused by the next E step
    for _ in range(params.max_iter):
        state.E = update_E(state, X_list, params.lambda1, products=products)
        state.Q = update_Q(state, rank_hint=rank_hint)
        state.Z = update_Z(
            state, X_list, L_list, lambda2, mode=params.z_update, basis=basis
        )
        products = [X @ state.Z for X in X_list]
        R_list = [X - XZ - E for X, XZ, E in zip(X_list, products, state.E)]
        R_zq = state.Z - state.Q
        view_resids = [inf_norm(R) for R in R_list]
        zq_resid = inf_norm(R_zq)
        if not np.isfinite([*view_resids, zq_resid]).all():
            raise NumericalError(
                f"constraint residuals are not finite at iteration "
                f"{state.iteration + 1} (mu={state.mu:.3e})"
            )

        state.mu_history.append(state.mu)
        state.view_residual_history.append(view_resids)
        state.residual_history.append((max(view_resids), zq_resid))
        if trace_objective:
            state.objective_history.append(
                objective_value(state, X_list, graphs, params)
            )

        state.Y1, state.Y2, state.mu = update_multipliers(
            state, X_list, params.rho, params.mu_max, residuals=(R_list, R_zq)
        )
        state.iteration += 1
        if max(view_resids) < params.eps and zq_resid < params.eps:
            state.converged = True
            break
    return state.Z, state


def variant_graphs(dataset, params, first_order=None):
    """The graph set a variant regularizes with: per-view first-order
    graphs for grmsc-naive, the fused consensus/second-order set for
    grmsc, and None when the graph term is off. Graphs depend only on
    (views, knn, alpha, variant), so one build serves every lambda and
    restart of a batch; first_order, the first-order graphs of another
    variant's set at the same knn, is reused rather than rebuilt."""
    if params.effective_lambda2 <= 0:
        return None
    knn = params.resolve_knn(dataset.n_samples, dataset.n_clusters)
    mode = "first_order" if params.variant == "grmsc-naive" else "fused"
    return build_graph_set(
        dataset.views, knn, params.alpha, mode=mode, first_order=first_order
    )


def fit(dataset, params, graphs=None, trace_objective=False):
    """Run the full optimization on a multi-view dataset.

    Returns (Z, state); state.converged is False when the iteration cap
    was reached with residuals still above eps (that is a flagged result,
    not an error). Graphs are built once up front unless a precomputed
    GraphSet is supplied (it must match the dataset and variant).
    Deterministic given (dataset, params). Variant lrr-bsv is plain LRR
    and takes one view at a time. Raises NumericalError when the data
    or the iterates overflow.
    """
    if params.variant == "lrr-bsv" and dataset.n_views != 1:
        raise ValidationError(
            f"variant lrr-bsv fits one view at a time, got {dataset.n_views} views"
        )
    lambda2 = params.effective_lambda2
    if lambda2 > 0:
        if graphs is None:
            graphs = variant_graphs(dataset, params)
        L_list = graphs.laplacians
    else:
        graphs = None
        L_list = []
    return _alm_loop(
        dataset.views, L_list, params, lambda2, graphs=graphs,
        trace_objective=trace_objective,
    )
