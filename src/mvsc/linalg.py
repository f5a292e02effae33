"""Dense matrix primitives used by the solver.

All functions but add_transpose and matmul are pure: they never mutate
their arguments and hold no state, so concurrent calls are safe.
Matrices are float64 ndarrays; callers own the layout. add_transpose
works in place, so that symmetrizing an n x n array takes no second
n x n array.

matmul is np.matmul for the fit's large products: it splits each in
two parts by its shapes and runs them through blas.pair, on two CPUs
when the extra thread is free, while BLAS stays on one thread. The
sketches and the certificate of svt_factors use it.

svt_factors takes one of four paths per call: the zero skip, a warm
sketch from a start the caller passes in (the right factor of its last
call), the cold seeded sketch, and the full SVD. Both sketches must pass
the same residual certificate; a failed warm sketch falls back to the
cold one, and a failed cold sketch to the full SVD.
"""

import logging
from functools import partial

import numpy as np

from . import blas
from .blas import single_thread
from .errors import DecompositionError, NumericalError, ValidationError

logger = logging.getLogger(__name__)

# Rank-aware svt: the zero skip's relative margin, the sketch's
# oversampling beyond the rank hint, the cold sketch's power iterations,
# its size gate SKETCH_RATIO * (hint + SKETCH_OVERSAMPLE) <= min(M.shape)
# (below it a full SVD costs about as much) and its fixed seed.
SKIP_MARGIN = 1e-12
SKETCH_OVERSAMPLE = 10
SKETCH_POWER_ITERS = 2
SKETCH_RATIO = 4
SKETCH_SEED = 0

# add_transpose's block edge: one block pair's sum is a 0.5 MB temporary
TRANSPOSE_BLOCK = 256

# matmul's size gate in multiply-adds (no product at n = 150 reaches it)
# and the multiple its split points are rounded up to. OpenBLAS computes
# the output in tiles of up to 16 rows or columns, and a bound on a tile
# edge keeps more of them whole: the split products of n = 400, 600 and
# 1200 then have the unsplit product's bits on OpenBLAS 0.3.31 with
# SkylakeX kernels, where plain halves of (90, 600, 600) do not.
SPLIT_MIN_MACS = 1 << 22
SPLIT_ALIGN = 16

def _as_matrix(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return M


def add_transpose(A):
    """A += A^T in place for a square array A, returned; the same bits as
    A + A^T (IEEE addition commutes, so the result is exactly symmetric).

    It works one pair of TRANSPOSE_BLOCK blocks at a time, where numpy's
    A += A.T, seeing the overlap, first copies A^T to an n x n temporary.
    """
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"add_transpose needs a square matrix, got {A.shape}")
    n = A.shape[0]
    for i in range(0, n, TRANSPOSE_BLOCK):
        rows = slice(i, i + TRANSPOSE_BLOCK)
        for j in range(i, n, TRANSPOSE_BLOCK):
            cols = slice(j, j + TRANSPOSE_BLOCK)
            block = A[rows, cols] + A[cols, rows].T
            A[rows, cols] = block
            if j != i:
                A[cols, rows] = block.T
    return A


def matmul(A, B, out=None):
    """A @ B for 2-D float arrays, into out when given (as np.matmul).

    Above SPLIT_MIN_MACS multiply-adds the output is computed in two
    parts, split at the first multiple of SPLIT_ALIGN at or past the
    middle of its rows, or of its columns when it has fewer rows than
    columns; each part is one np.matmul into its slice of out. The split
    depends on the shapes alone, so the bits do not depend on how many
    CPUs run it. blas.pair runs the two parts, the second on the extra
    thread when it is free (with the caller's np.errstate), and an
    error in either reaches the caller once both have ended.
    """
    (m, k), p = A.shape, B.shape[1]
    rows = m >= p
    size = m if rows else p
    if (m * k * p < SPLIT_MIN_MACS or size < 2 * SPLIT_ALIGN
            or np.may_share_memory(A, B)
            or out is not None and (np.may_share_memory(out, A)
                                    or np.may_share_memory(out, B))):
        return np.matmul(A, B, out=out)
    if out is None:
        out = np.empty((m, p), dtype=np.result_type(A, B))
    h = (size // 2 + SPLIT_ALIGN - 1) // SPLIT_ALIGN * SPLIT_ALIGN
    if rows:
        first, second = (A[:h], B, out[:h]), (A[h:], B, out[h:])
    else:
        first, second = (A, B[:, :h], out[:, :h]), (A, B[:, h:], out[:, h:])
    blas.pair(partial(np.matmul, *first), partial(np.matmul, *second))
    return out


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
    U, _ = np.linalg.qr(matmul(M, omega))
    for _ in range(SKETCH_POWER_ITERS):
        W, _ = np.linalg.qr(matmul(M.T, U))
        U, _ = np.linalg.qr(matmul(M, W))
    return U


def _warm_range(M, start, k):
    """Orthonormal p x k basis from one power step on a start: the first
    k rows of start, transposed, as the test matrix (padded with seeded
    Gaussian columns when start has fewer rows), and one QR of M M^T M
    times it (Halko, Martinsson & Tropp 2011, Algorithm 4.3)."""
    omega = start[:k].T
    if omega.shape[1] < k:
        pad = np.random.default_rng(SKETCH_SEED).standard_normal(
            (M.shape[1], k - omega.shape[1])
        )
        omega = np.hstack([omega, pad])
    U, _ = np.linalg.qr(matmul(M, matmul(M.T, matmul(M, omega))))
    return U


def _certified(M, U, tau):
    """svt of M through the basis U, or None when U fails the
    certificate ||M - U U^T M||_F <= tau."""
    B = matmul(U.T, M)
    R = matmul(U, B)
    np.subtract(M, R, out=R)
    if np.linalg.norm(R) > tau:
        return None
    del R
    Ub, s, Vt = _svd(B)
    return _threshold(U @ Ub, s, Vt, tau)


def svt_factors(M, tau, rank_hint=None, start=None):
    """Singular value thresholding: prox of tau * nuclear norm at M, as
    factors (L, Rt) of width rank(Q) with Q = L @ Rt.

    Q = U diag(max(s - tau, 0)) Vt is the unique minimizer of
    tau*||Q||_* + 0.5*||Q - M||_F^2; L = U diag(max(s - tau, 0)) and
    Rt = Vt keep only the surviving triplets. Four paths, chosen per call:

    - zero skip: ||M||_F <= tau (less a 1e-12 relative margin) bounds
      sigma_1 by tau, so Q = 0 exactly (factors of width 0) and no SVD
      runs;
    - warm: given rank_hint h with 4 (h + 10) <= min(M.shape) and a start
      of at least h rows (the Rt of the previous call on a nearby
      matrix), one power step from start's first h + 10 rows and one QR
      give the basis U; it is accepted by the certificate below;
    - cold sketch: under the same size gate, when there is no warm path
      or its basis fails the certificate, an orthonormal basis U of
      h + 10 seeded Gaussian directions with 2 power iterations;
    - full SVD otherwise, including when the cold sketch fails.

    A sketched basis U is accepted when ||M - U U^T M||_F <= tau, which
    proves sigma_{h+11}(M) <= tau; Q is then thresholded from the SVD of
    the small matrix U^T M. That is the exact svt of U U^T M, so (svt
    being nonexpansive) it is within tau of the full result in Frobenius
    norm, and to rounding when the spectrum has a gap after rank h; it
    is not bit for bit the full SVD's. A direction the warm step loses to
    rounding carries its sigma > tau into the residual, so the
    certificate rejects that basis.

    Deterministic: both sketches use a fixed seed, and start is only read.
    """
    M = _as_matrix(M)
    if tau <= 0:
        raise ValidationError(f"svt threshold must be positive, got {tau}")
    if rank_hint is not None and rank_hint < 0:
        raise ValidationError(f"rank_hint must be nonnegative, got {rank_hint}")
    if start is not None and (start.ndim != 2 or start.shape[1] != M.shape[1]):
        raise ValidationError(
            f"svt start of shape {start.shape} does not fit a {M.shape} matrix"
        )
    if np.linalg.norm(M) <= tau * (1.0 - SKIP_MARGIN):
        return np.zeros((M.shape[0], 0)), np.zeros((0, M.shape[1]))
    if rank_hint is not None:
        k = rank_hint + SKETCH_OVERSAMPLE
        if SKETCH_RATIO * k <= min(M.shape):
            if start is not None and start.shape[0] >= rank_hint:
                factors = _certified(M, _warm_range(M, start, k), tau)
                if factors is not None:
                    return factors
            factors = _certified(M, _sketch_range(M, k), tau)
            if factors is not None:
                return factors
    return _threshold(*_svd(M), tau)


def svt(M, tau, rank_hint=None):
    """Singular value thresholding as a dense matrix: the product of
    svt_factors(M, tau, rank_hint), which documents its paths."""
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
    """Max absolute entry (the stopping-criterion norm), read from the
    extremes without an abs copy; NaN anywhere gives NaN, and the outer
    abs turns an all -0.0 matrix's -0.0 into 0.0."""
    M = np.asarray(M)
    return float(abs(max(M.max(), -M.min()))) if M.size else 0.0


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
