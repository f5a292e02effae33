"""Augmented-Lagrangian solver for graph-regularized multi-view subspace
clustering.

Minimizes, over the shared representation Z and per-view column-sparse
errors E, the nuclear norm of Z plus lambda1 times the summed l2,1 norms
of the errors plus lambda2 times the graph regularizer (consistent part
plus alpha times complementary part), subject to X = X Z + E per view.
A copy variable Q carries the nuclear norm; multipliers Y1 (per view)
and Y2 enforce the constraints with a growing penalty mu.

The fit stacks the views once, Xs = (sum d_k) x n, and holds E and Y1
stacked the same way, each view owning its rows. T = Y1 - mu E, the
residuals and the Y1 dual step are then one elementwise expression
each. On row views stay per view: the l2,1 prox (column norms within a
view's rows), each view's inf-norm residual and, on the dense Z path,
each X_k Z, which has the bits of the same product on a separate array
where one stacked Xs Z does not (n=300 with the reference dims).

The Z step solves the normal equations derived from the stationarity of
the Z subproblem:

    (mu P + S) Z = B,  P = I + Xs^T Xs,  S = lambda2 * S0
    S0 = sum_k (L_k + L_k^T)
    B = Xs^T (Y1 + mu (Xs - E)) + mu Q - Y2.

S0 is all a fit reads of the graphs, traced or not: the graph set
carries it (graphs.GraphSet.laplacian_sum), the pipeline's graph stage
builds the set, and the fit takes S0 alone. Only mu changes between
iterations, so the system is diagonalized once per fit.
R = P^(-1/2) = I + V_r diag((1 + s^2)^(-1/2) - 1) V_r^T comes from the
thin SVD Xs = U diag(s) V_r^T; S is PSD (each
graph is symmetric and nonnegative), and eigh(R S R) = W diag(lam) W^T
gives V = R W, so that (mu P + S)^(-1) = V diag(1 / (mu + lam)) V^T.
R is the identity plus rank d, so R S R and R W are built from S V_r
and V_r^T W without forming R. Each iteration applies the inverse to
the residual of Z = I,

    Z = I + V C,  C = diag(1 / (mu + lam)) V^T D,  D = B - mu P - S
      = Xs^T T + mu (Q - I) - Y2 - S,  T = Y1 - mu E.

Forming D without the mu Xs^T Xs term keeps B's large data-space part
out of the fixed basis, which would round it the same way every
iteration and let the multipliers add up the error: applied to B
itself, the fitted Z strays ten times further from a dense solve's
(3e-12 against 3e-13 relative at n=1200). Without a graph term V = R,
lam = 0 and S = 0.

When d is small against n (4 d < n), V^T D is not formed from a dense
D: (Xs V)^T T is an n x d x n product, V^T Q uses Q's SVT factors, and
J = V^T (Y2 + S) is carried from one iteration to the next. By the Z
step's own equations the dual step's Y2 + mu (Z - Q) + S equals
Xs^T (T - mu Xs V C) - S V C, and V^T S V = diag(lam), so the next
J = (Xs V)^T (T - mu Xs V C) - diag(lam) C costs two n x d x n
products. The one n x n x n product per iteration is then V C. The
first of those two products, Xs V C = Xs (Z - I), also gives the
residuals' Xs Z as Xs + Xs V C, so no d_k x n x n product forms
X_k Z. Otherwise V^T D = (Xs V)^T T + V^T (mu Q - Y2) - V^T S - mu V^T
takes one dense product, and X_k Z is formed from Z.

The Q step thresholds Z + Y2 / mu with a rank hint of d = sum_k d_k
rows, and the loop carries Q's right factor Rt from one iteration to
the next. Consecutive iterates are close, so the SVT starts its sketch
from Rt, padded with seeded Gaussian directions while Rt is narrower
than d + 10, with one power step and a QR (two steps while Rt is
narrower than d), and checks the result with a residual certificate
(see linalg.svt_factors); a failed check falls back to the full SVD.

The loop works in place, with the bits of the allocating expressions.
Z, Y2 and (on the dense path) Q keep their buffers: the Z step writes
V C into Z, after using it for mu V^T, and the dual step adds
mu (Z - Q) into Y2. One more n x n array holds Z + Y2 / mu for the Q
step, then Z - Q. On the carried path the loop keeps Q as its factors,
forms Z - Q as Z - L Rt in that array, and forms the dense Q once, on
exit, so an iteration allocates two n x n arrays: C and the SVT
certificate's residual.

The large products, V C and Q's on either path, the carried path's thin
ones and the basis's, go through linalg.matmul, which splits each in
two parts by its shape and runs them on two CPUs, with the bits of a
run on one. The n x n elementwise passes run whole, each into an array
the loop already holds.

The penalty mu follows a fixed schedule: it starts at MU0 and grows by
RHO per iteration up to MU_MAX.

Variants: "grmsc" (full model), "grmsc-naive" (first-order graphs used
directly, no consensus split), "msc-naive" (lambda2 = 0), and "lrr-bsv"
(plain LRR on a single view; the pipeline fits each view on its own and
picks the best one).

The solver only optimizes: it is deterministic, starts from Z = 0 as
LRR's ALM does, and never sees labels or clusterings.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, NumericalError, ValidationError
from .graphs import row_sq_dists
from .linalg import (
    _svd, add_transpose, inf_norm, l21_norm, matmul, nuclear_norm, prox_l21, svt_factors,
)
# unused here: perfbench/spans.py wraps both names (SOLVER_KERNELS), which
# tests/test_benchmark_hooks.py pins; nothing calls numpy's solve by this name
from numpy.linalg import solve as solve_spd  # noqa: F401
from .linalg import svt  # noqa: F401

VARIANTS = ("grmsc", "grmsc-naive", "msc-naive", "lrr-bsv")

# graphs.GraphSet mode of each variant that regularizes with graphs; the
# others have no graph term
GRAPH_MODES = {"grmsc": "fused", "grmsc-naive": "first_order"}

# ALM penalty schedule (see the module docstring)
RHO = 1.9
MU0 = 1e-4
MU_MAX = 1e6


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
    eps: float = 1e-6
    max_iter: int = 300
    variant: str = "grmsc"

    def __post_init__(self):
        # the chained comparisons are false for NaN and infinities too
        if not 0 < self.lambda1 < math.inf:
            raise ValidationError(f"lambda1 must be finite and > 0, got {self.lambda1}")
        if not 0 <= self.lambda2 < math.inf:
            raise ValidationError(f"lambda2 must be finite and >= 0, got {self.lambda2}")
        if not 0 <= self.alpha < math.inf:
            raise ValidationError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.knn is not None and self.knn < 1:
            raise ValidationError(f"knn must be at least 1, got {self.knn}")
        if not 0 < self.eps < math.inf:
            raise ValidationError(f"eps must be finite and > 0, got {self.eps}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}; one of {VARIANTS}")

    @property
    def effective_lambda2(self):
        """lambda2 actually applied: zero for the graph-free variants."""
        return self.lambda2 if self.variant in GRAPH_MODES else 0.0

    def resolve_knn(self, n, clusters):
        if self.knn is not None:
            k = self.knn
        else:
            k = min(10, n // max(clusters, 1))
        return max(1, min(k, n - 1))


@dataclass
class SolverState:
    """Mutable optimization state plus per-iteration diagnostics. E and
    Y1 stack the views' errors and multipliers as Xs stacks the views,
    (sum d_k) x n, each view owning its rows."""

    Z: np.ndarray
    Q: np.ndarray
    E: np.ndarray
    Y1: np.ndarray
    Y2: np.ndarray
    mu: float
    iteration: int = 0
    converged: bool = False
    # (max over views of ||X - XZ - E||_inf, ||Z - Q||_inf) per iteration
    residual_history: list = field(default_factory=list)
    view_residual_history: list = field(default_factory=list)
    mu_history: list = field(default_factory=list)
    objective_history: list = field(default_factory=list)


def _view_rows(X_list):
    """Each view's row slice of the stacked arrays, in view order."""
    ends = np.cumsum([X.shape[0] for X in X_list]).tolist()
    return [slice(end - X.shape[0], end) for X, end in zip(X_list, ends)]


def _init_state(Xs):
    n = Xs.shape[1]
    return SolverState(
        Z=np.zeros((n, n)),
        Q=np.zeros((n, n)),
        E=np.zeros_like(Xs),
        Y1=np.zeros_like(Xs),
        Y2=np.zeros((n, n)),
        mu=MU0,
    )


def update_E(state, gap, rows, lambda1):
    """Column-sparse error update: per view the l2,1 prox at
    X_k - X_k Z + Y1_k / mu with threshold lambda1 / mu, returned
    stacked. gap is the stacked X - X Z and rows the views' row slices."""
    T = state.Y1 / state.mu
    T += gap
    for r in rows:
        T[r] = prox_l21(T[r], lambda1 / state.mu)
    return T


def update_Q(state, rank_hint=None, start=None, out=None):
    """Nuclear-norm copy update: singular value thresholding of
    Z + Y2 / mu at level 1 / mu, returned as factors (L, Rt) with
    Q = L @ Rt. rank_hint, an expected bound on the rank of the result,
    lets the SVT sketch instead of running a full SVD; start, the Rt of
    the previous Q, is where the sketch starts (see svt_factors). out,
    an n x n array, takes Z + Y2 / mu in place of a new one."""
    M = np.divide(state.Y2, state.mu, out=out)
    M += state.Z
    return svt_factors(M, 1.0 / state.mu, rank_hint=rank_hint, start=start)


def _congruence(S, G, Vt):
    """R S R for symmetric S and R = I + G Vt, without forming R:
    S + G H^T + H G^T with H = S Vt^T + G (Vt S Vt^T) / 2, in one n x n
    array (G H^T plus its transpose in place, then S)."""
    SVr = S @ Vt.T
    H = SVr + 0.5 * (G @ (Vt @ SVr))
    RSR = add_transpose(G @ H.T)
    RSR += S
    return RSR


def _z_basis(Xs, S0, lambda2):
    """The Z system's eigenbasis, built once per fit from the stacked
    views Xs: (V, lam, XV, VtS) with (mu P + S)^(-1) =
    V diag(1 / (mu + lam)) V^T for every mu and S = lambda2 * S0 (see the
    module docstring), XV = Xs V and VtS = V^T S (None without a graph
    term: lambda2 = 0 or S0 None). V is in Fortran order, so V.T is
    C-contiguous. eigh's W is dropped as soon as V exists. Raises
    NumericalError when sum_k X_k^T X_k or the graph term lambda2 * S0
    overflows, or when eigh does not converge on the graph term."""
    _, s, Vt = _svd(Xs)
    with np.errstate(over="ignore"):
        s2 = s * s
    if not np.isfinite(s2).all():
        raise NumericalError(
            "sum of X^T X over views overflows; rescale the views or normalize them"
        )
    # R = P^(-1/2) = I + G Vt, identity plus rank d
    G = Vt.T * ((1.0 + s2) ** -0.5 - 1.0)
    if lambda2 > 0 and S0 is not None:
        S = lambda2 * S0
        if not np.isfinite(inf_norm(S)):
            raise NumericalError(
                f"the graph term lambda2 * S0 overflows (lambda2 = {lambda2:g}); "
                "lower lambda2"
            )
        try:
            lam, W = np.linalg.eigh(_congruence(S, G, Vt))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"eigendecomposition of the graph term lambda2 * S0 failed "
                f"(lambda2 = {lambda2:g}): {exc}"
            ) from exc
        V = np.asfortranarray(W)
        V += G @ (Vt @ W)  # V = R W
        del W  # before V^T S allocates
        return V, lam, matmul(Xs, V), matmul(V.T, S)
    V = np.asfortranarray(G @ Vt)
    V[np.diag_indices_from(V)] += 1.0
    return V, np.zeros(V.shape[0]), matmul(Xs, V), None


def update_Z(state, basis, out, J=None, Q_factors=None, XVC=None):
    """Solve the Z subproblem's normal equations (mu P + S) Z = B with
    basis, the fit's _z_basis, into out, an n x n array that serves as
    workspace before that; the step never reads state.Z, so out may be
    state.Z.

    J and Q_factors are what the fit carries from one iteration to the
    next: J = V^T (Y2 + S) for the current Y2 and Q_factors = (L, Rt)
    with Q = L @ Rt, which is used only with J. With J, V^T D is built
    from thin products, and J is advanced in place to its value after
    the dual step Y2 += mu (Z - Q) that follows this Z step. Without
    it, V^T D costs one dense n x n x n product. XVC, a (sum d_k) x n
    array used only with J, is overwritten with Xs V C = Xs (Z - I),
    which that advance computes anyway: Xs Z is Xs + XVC. With J the
    step allocates one n x n array, C.
    """
    mu = state.mu
    V, lam, XV, VtS = basis
    Vt = V.T
    T = state.Y1 - mu * state.E
    # C = V^T D / (mu + lam) with D = B - mu P - S
    #   = Xs^T T + mu (Q - I) - Y2 - S
    scale = (mu + lam)[:, None]
    if J is None:
        work = np.multiply(state.Q, mu, out=out)
        work -= state.Y2
        C = XV.T @ T
        C += matmul(Vt, work)
        carried = VtS
    else:
        L, Rt = Q_factors
        C = matmul(np.hstack([XV.T, mu * matmul(Vt, L)]), np.vstack([T, Rt]))
        carried = J
    # less mu V^T and V^T S or J, over mu + lam
    C -= np.multiply(Vt, mu, out=out)
    if carried is not None:
        C -= carried
    C /= scale
    Z = matmul(V, C, out=out)
    Z[np.diag_indices_from(Z)] += 1.0
    if J is not None:
        # Z solves its normal equations, so the dual step's
        # Y2 + mu (Z - Q) + S equals Xs^T (T - mu Xs (Z - I)) - S (Z - I),
        # and V^T S V = diag(lam)
        XVC = matmul(XV, C, out=XVC)
        matmul(XV.T, T - mu * XVC, out=J)
        C *= lam[:, None]
        J -= C
    return Z


def update_multipliers(state, R, R_zq):
    """Dual ascent in place, then grow mu by RHO up to MU_MAX: Y1 += mu R
    and Y2 += mu R_zq, with the bits of Y + mu R, for the stacked
    residual R = X - X Z - E and R_zq = Z - Q. R and R_zq are scaled by
    mu on the way, so the step allocates nothing. Returns (Y1, Y2, mu)."""
    R *= state.mu
    state.Y1 += R
    R_zq *= state.mu
    state.Y2 += R_zq
    return state.Y1, state.Y2, min(RHO * state.mu, MU_MAX)


def objective_value(state, rows, S0, params):
    """Objective of the full model at the current state, for diagnostics;
    rows are the views' row slices of state.E, whose l2,1 norm is taken
    per view.

    The graph regularizer is evaluated as a pairwise double sum, not
    through the trace form the Z step uses, so this value can cross-check
    the solver's trace-form machinery. Off its diagonal S0 is
    -2 sum_k sym(W_k), and pairwise distances have a zero diagonal, so

        1/2 sum_k sum_ij (W_k)_ij d_ij = -1/4 sum_ij (S0)_ij d_ij,

    d_ij = ||z_i - z_j||^2 over the rows of Z.
    """
    val = nuclear_norm(state.Z)
    val += params.lambda1 * sum(l21_norm(state.E[r]) for r in rows)
    lam2 = params.effective_lambda2
    if lam2 > 0 and S0 is not None:
        val += lam2 * (-0.25 * float(np.sum(S0 * row_sq_dists(state.Z))))
    return float(val)


# an overflow shows up as non-finite residuals, which raise NumericalError
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _alm_loop(X_list, S0, params, lambda2, trace_objective=False):
    Xs = np.vstack(X_list)
    rows = _view_rows(X_list)
    state = _init_state(Xs)
    # Q lies near the row space of the stacked dictionary, whose rank is
    # at most its row count
    rank_hint, n = Xs.shape
    V, lam, XV, VtS = basis = _z_basis(Xs, S0, lambda2)
    J = None
    # V^T D from the carried J and Q's factors costs about 2 (d + rank Q)
    # n^2 flops, with rank Q near d, against n^3 for the dense product
    if 4 * rank_hint < n:
        # J = V^T (Y2 + S) takes V^T S over from the basis (Y2 starts
        # at 0); update_Z advances it
        J = np.zeros_like(state.Z) if VtS is None else VtS
        basis = (V, lam, XV, None)
        # the loop keeps Q as its factors and forms it once, on exit
        state.Q = None
    # holds M = Z + Y2 / mu for the Q step, then Z - Q; Z, Y2 and a
    # dense Q are overwritten in place (see the module docstring)
    work = np.empty_like(state.Z)
    # X - X Z for the residuals and the next E step, X while Z = 0; on
    # the carried path update_Z first fills it with Xs V C = Xs (Z - I)
    gap = Xs.copy()
    Rt = None  # Q's right factor, where the next SVT's sketch starts
    for _ in range(params.max_iter):
        state.E = update_E(state, gap, rows, params.lambda1)
        L, Rt = update_Q(state, rank_hint=rank_hint, start=Rt, out=work)
        if J is None:
            matmul(L, Rt, out=state.Q)
        state.Z = update_Z(state, basis, state.Z, J=J, Q_factors=(L, Rt), XVC=gap)
        if J is None:
            # one product per view: one Xs @ Z can round differently
            for r in rows:
                np.matmul(Xs[r], state.Z, out=gap[r])
            R_zq = np.subtract(state.Z, state.Q, out=work)
        else:
            gap += Xs
            R_zq = matmul(L, Rt, out=work)
            np.subtract(state.Z, R_zq, out=R_zq)
        np.subtract(Xs, gap, out=gap)
        R = gap - state.E
        view_resids = [inf_norm(R[r]) for r in rows]
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
                objective_value(state, rows, S0, params)
            )

        state.Y1, state.Y2, state.mu = update_multipliers(state, R, R_zq)
        state.iteration += 1
        if max(view_resids) < params.eps and zq_resid < params.eps:
            state.converged = True
            break
    if state.Q is None:
        del work, R_zq
        state.Q = L @ Rt
    return state.Z, state


def fit(dataset, params, laplacian_sum=None, trace_objective=False):
    """Run the full optimization on a multi-view dataset.

    Returns (Z, state); state.converged is False when the iteration cap
    was reached with residuals still above eps (that is a flagged result,
    not an error). The iterations and the objective trace
    (trace_objective) read the graphs only through laplacian_sum,
    S0 = sum_k (L_k + L_k^T) of the variant's graph set, which the
    pipeline's graph stage builds (it must match the dataset and
    variant). Deterministic given (dataset, params, laplacian_sum).
    Variant lrr-bsv is plain LRR and takes one view at a time. Raises
    ValidationError when a graph variant at an effective lambda2 > 0 is
    given no S0, NumericalError when the data or the iterates overflow,
    and DegenerateInputError when every entry of the views is below eps
    in magnitude: the absolute stopping rule would then hold before any
    fit.
    """
    if params.variant == "lrr-bsv" and dataset.n_views != 1:
        raise ValidationError(
            f"variant lrr-bsv fits one view at a time, got {dataset.n_views} views"
        )
    scale = max(inf_norm(X) for X in dataset.views)
    if scale < params.eps:
        raise DegenerateInputError(
            f"the views' largest entry, {scale:.3e}, is below eps = {params.eps:g}, "
            "so the fit would stop before it starts; normalize or rescale the views"
        )
    lambda2 = params.effective_lambda2
    if lambda2 > 0 and laplacian_sum is None:
        raise ValidationError(
            f"variant {params.variant} at lambda2 = {lambda2:g} needs its graph "
            "term laplacian_sum; the pipeline's graph stage builds it"
        )
    return _alm_loop(
        dataset.views, laplacian_sum, params, lambda2,
        trace_objective=trace_objective,
    )
