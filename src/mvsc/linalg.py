"""Dense matrix primitives used by the solver.

All functions are pure: they never mutate their arguments and hold no
state, so concurrent calls are safe. Matrices are float64 ndarrays;
callers own the layout.
"""

import logging

import numpy as np

from .blas import single_thread
from .errors import DecompositionError, NumericalError, ValidationError

logger = logging.getLogger(__name__)

# Rank-aware svt: the zero skip's relative margin, the sketch's
# oversampling beyond the rank hint, its power iterations, its size gate
# SKETCH_RATIO * (hint + SKETCH_OVERSAMPLE) <= min(M.shape) (below it a
# full SVD costs about as much) and its fixed seed.
SKIP_MARGIN = 1e-12
SKETCH_OVERSAMPLE = 10
SKETCH_POWER_ITERS = 2
SKETCH_RATIO = 4
SKETCH_SEED = 0


def _as_matrix(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return M


def soft_threshold(x, eps):
    """Scalar shrinkage sign(x) * max(|x| - eps, 0); broadcasts over arrays."""
    if eps < 0:
        raise ValidationError(f"threshold must be nonnegative, got {eps}")
    return np.sign(x) * np.maximum(np.abs(x) - eps, 0.0)


def _svd(M):
    """Thin SVD with a gesvd fallback; raises NumericalError if both fail.

    The fallback imports scipy only when it runs, and runs under
    single_thread() so that the pool scipy loads is pinned too.
    """
    try:
        return np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as first:
        try:
            import scipy.linalg

            with single_thread():
                return scipy.linalg.svd(M, full_matrices=False, lapack_driver="gesvd")
        except Exception as second:
            raise NumericalError(
                f"SVD failed to converge on {M.shape} matrix "
                f"(gesdd: {first}; gesvd: {second})"
            ) from second


def _threshold(U, s, Vt, tau):
    """Factors (U diag(max(s - tau, 0)), Vt) restricted to the surviving
    triplets."""
    s = np.maximum(s - tau, 0.0)
    keep = s > 0
    return U[:, keep] * s[keep], Vt[keep, :]


def _sketch_range(M, k):
    """Orthonormal p x k basis approximating the range of M: a seeded
    Gaussian range finder with QR-re-orthonormalized power iterations
    (Halko, Martinsson & Tropp 2011, Algorithm 4.4)."""
    omega = np.random.default_rng(SKETCH_SEED).standard_normal((M.shape[1], k))
    U, _ = np.linalg.qr(M @ omega)
    for _ in range(SKETCH_POWER_ITERS):
        W, _ = np.linalg.qr(M.T @ U)
        U, _ = np.linalg.qr(M @ W)
    return U


def svt_factors(M, tau, rank_hint=None):
    """Singular value thresholding: prox of tau * nuclear norm at M, as
    factors (L, Rt) of width rank(Q) with Q = L @ Rt.

    Q = U diag(max(s - tau, 0)) Vt is the unique minimizer of
    tau*||Q||_* + 0.5*||Q - M||_F^2; L = U diag(max(s - tau, 0)) and
    Rt = Vt keep only the surviving triplets. Three paths, chosen per call:

    - zero skip: ||M||_F <= tau (less a 1e-12 relative margin) bounds
      sigma_1 by tau, so Q = 0 exactly (factors of width 0) and no SVD
      runs;
    - sketched: given rank_hint h, an expected bound on rank(Q), and
      4 (h + 10) <= min(M.shape), an orthonormal basis U of h + 10
      sketched directions is accepted when ||M - U U^T M||_F <= tau,
      which proves sigma_{h+11}(M) <= tau; Q is then thresholded from
      the SVD of the small matrix U^T M. That is the exact svt of
      U U^T M, so (svt being nonexpansive) it is within tau of the full
      result in Frobenius norm, and to rounding when the spectrum has a
      gap after rank h; it is not bit for bit the full SVD's;
    - full SVD otherwise, including when the sketch fails its check.

    Deterministic: the sketch uses a fixed seed.
    """
    M = _as_matrix(M)
    if tau <= 0:
        raise ValidationError(f"svt threshold must be positive, got {tau}")
    if rank_hint is not None and rank_hint < 0:
        raise ValidationError(f"rank_hint must be nonnegative, got {rank_hint}")
    if np.linalg.norm(M) <= tau * (1.0 - SKIP_MARGIN):
        return np.zeros((M.shape[0], 0)), np.zeros((0, M.shape[1]))
    if rank_hint is not None:
        k = rank_hint + SKETCH_OVERSAMPLE
        if SKETCH_RATIO * k <= min(M.shape):
            U = _sketch_range(M, k)
            B = U.T @ M
            if np.linalg.norm(M - U @ B) <= tau:
                Ub, s, Vt = _svd(B)
                return _threshold(U @ Ub, s, Vt, tau)
    return _threshold(*_svd(M), tau)


def svt(M, tau, rank_hint=None):
    """Singular value thresholding as a dense matrix: the product of
    svt_factors(M, tau, rank_hint), which documents the three paths."""
    L, Rt = svt_factors(M, tau, rank_hint=rank_hint)
    return L @ Rt


def prox_l21(T, kappa):
    """Column-wise shrinkage: prox of kappa * l2,1 norm at T.

    Columns with norm <= kappa are zeroed; the rest are scaled by
    (norm - kappa) / norm.
    """
    T = _as_matrix(T)
    if kappa <= 0:
        raise ValidationError(f"prox_l21 threshold must be positive, got {kappa}")
    norms = np.linalg.norm(T, axis=0)
    scale = np.zeros_like(norms)
    nz = norms > kappa
    scale[nz] = (norms[nz] - kappa) / norms[nz]
    return T * scale


def nuclear_norm(M):
    """Sum of singular values."""
    M = _as_matrix(M)
    try:
        s = np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError:
        _, s, _ = _svd(M)
    return float(s.sum())


def l21_norm(M):
    """Sum of column Euclidean norms."""
    M = _as_matrix(M)
    return float(np.linalg.norm(M, axis=0).sum())


def inf_norm(M):
    """Max absolute entry (the stopping-criterion norm)."""
    return float(np.max(np.abs(M))) if np.asarray(M).size else 0.0


def solve_spd(A, B):
    """Solve A X = B for symmetric positive definite A via Cholesky.

    A must be symmetric within 1e-8 relative tolerance. If the first
    factorization fails, retries once with diagonal jitter
    1e-10 * trace(A)/n (finite arithmetic can make a PSD-by-construction
    matrix slightly indefinite); a second failure raises. The solver does
    not call it (it imports it only for perfbench/spans.py, which wraps
    solver.solve_spd), and it imports scipy itself so that commands never
    load it.
    """
    import scipy.linalg

    A = _as_matrix(A, "A")
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValidationError(f"A must be square, got {A.shape}")
    if B.shape[0] != n:
        raise ValidationError(f"B has {B.shape[0]} rows, expected {n}")
    asym = np.abs(A - A.T).max()
    if asym > 1e-8 * max(1.0, np.abs(A).max()):
        raise ValidationError(f"A is not symmetric (max asymmetry {asym:.3e})")
    try:
        c, low = scipy.linalg.cho_factor(A, lower=True)
    except scipy.linalg.LinAlgError:
        jitter = 1e-10 * np.trace(A) / n
        logger.warning(
            "Cholesky failed; retrying with diagonal jitter %.3e", jitter
        )
        try:
            c, low = scipy.linalg.cho_factor(A + jitter * np.eye(n), lower=True)
        except scipy.linalg.LinAlgError as err:
            raise DecompositionError(
                f"matrix of size {n} is not positive definite "
                f"(jitter {jitter:.3e} did not help)"
            ) from err
    return scipy.linalg.cho_solve((c, low), B)
