"""Dense matrix primitives used by the solver.

All functions but add_transpose and matmul are pure: they never mutate
their arguments and hold no state, so concurrent calls are safe.
Matrices are float64 ndarrays; callers own the layout. add_transpose
works in place, so that symmetrizing an n x n array takes no second
n x n array.

matmul is np.matmul for the fit's large products: it splits each in
two parts by its shapes and runs them through blas.pair, on two CPUs
when the extra thread is free, while BLAS stays on one thread. The
sketch and the certificate of svt_factors use it. Elementwise passes
run whole.

svt_factors takes one of three paths per call: the zero skip, one
sketch from the start the caller passes in (the right factor of its last
call), padded with seeded Gaussian directions, and the full SVD. The
sketch must pass a residual certificate; when it fails, the full SVD
runs. Every path runs on numpy alone: a gesdd that does not converge
runs again on the transpose.
"""

import logging
from functools import partial

import numpy as np

from . import blas
from .errors import DecompositionError, NumericalError, ValidationError

logger = logging.getLogger(__name__)

# Rank-aware svt: the zero skip's relative margin, the sketch's
# oversampling beyond the rank hint, its size gate
# SKETCH_RATIO * (hint + SKETCH_OVERSAMPLE) <= min(M.shape) (below it a
# full SVD costs about as much) and the seed of its padding.
SKIP_MARGIN = 1e-12
SKETCH_OVERSAMPLE = 10
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
    """Thin SVD by numpy's gesdd. When gesdd does not converge on M, it
    runs on M^T, and the factors are transposed back; NumericalError,
    naming the shape and both errors, when both fail."""
    try:
        return np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as first:
        try:
            U, s, Vt = np.linalg.svd(M.T, full_matrices=False)
        except np.linalg.LinAlgError as second:
            raise NumericalError(
                f"SVD failed to converge on {M.shape} matrix "
                f"(gesdd: {first}; gesdd on the transpose: {second})"
            ) from second
        return Vt.T, s, U.T


def _threshold(U, s, Vt, tau):
    """Factors (U diag(max(s - tau, 0)), Vt) restricted to the surviving
    triplets."""
    s = np.maximum(s - tau, 0.0)
    keep = s > 0
    return U[:, keep] * s[keep], Vt[keep, :]


def _sketch_range(M, start, k):
    """Orthonormal p x k basis qr((M M^T)^q M Omega), with a QR between
    the power steps (Halko, Martinsson & Tropp 2011, Algorithms 4.3 and
    4.4): Omega is the first k rows of start (none when it is None),
    transposed and padded with seeded Gaussian columns to k. q is 1 when
    start gives the hint's k - SKETCH_OVERSAMPLE rows, else 2: from a
    narrower start one step put the n = 400 fit's Z 1.3e-8 from the
    full-SVD fit's, and two put it 7e-12."""
    omega = (M[:0] if start is None else start)[:k].T
    steps = 1 if omega.shape[1] >= k - SKETCH_OVERSAMPLE else 2
    if omega.shape[1] < k:
        rng = np.random.default_rng(SKETCH_SEED)
        omega = np.hstack([omega, rng.standard_normal((M.shape[1], k - omega.shape[1]))])
    U = matmul(M, omega)
    for _ in range(steps):
        U, _ = np.linalg.qr(matmul(M, matmul(M.T, U)))
    return U


def svt_factors(M, tau, rank_hint=None, start=None):
    """Singular value thresholding: prox of tau * nuclear norm at M, as
    factors (L, Rt) of width rank(Q) with Q = L @ Rt.

    Q = U diag(max(s - tau, 0)) Vt is the unique minimizer of
    tau*||Q||_* + 0.5*||Q - M||_F^2; L = U diag(max(s - tau, 0)) and
    Rt = Vt keep only the surviving triplets. Three paths, per call:

    - zero skip: ||M||_F <= tau (less a 1e-12 relative margin) bounds
      sigma_1 by tau, so Q = 0 exactly (factors of width 0) and no SVD
      runs;
    - sketch: given rank_hint h with 4 (h + 10) <= min(M.shape), power
      steps from the first h + 10 rows of start (the Rt of the previous
      call on a nearby matrix; fewer rows, or none, are padded with
      seeded Gaussian ones; _sketch_range) give a basis U, accepted by
      the certificate below;
    - full SVD otherwise, including when the sketch fails.

    A sketched basis U is accepted when ||M - U U^T M||_F <= tau, which
    proves sigma_{h+11}(M) <= tau; Q is then thresholded from the SVD of
    the small matrix U^T M. That is the exact svt of U U^T M, so (svt
    being nonexpansive) it is within tau of the full result in Frobenius
    norm, and to rounding when the spectrum has a gap after rank h; it
    is not bit for bit the full SVD's. A direction the sketch loses to
    rounding carries its sigma > tau into the residual, so the
    certificate rejects that basis and the full SVD runs.

    Deterministic: the padding uses a fixed seed, and start is only read.
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
            U = _sketch_range(M, start, k)
            B = matmul(U.T, M)
            R = matmul(U, B)
            np.subtract(M, R, out=R)
            residual = np.linalg.norm(R)
            del R  # before a full SVD allocates
            if residual <= tau:
                Ub, s, Vt = _svd(B)
                return _threshold(U @ Ub, s, Vt, tau)
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
    extremes without an abs copy; NaN anywhere gives NaN (both extremes
    are NaN), and the outer abs turns an all -0.0 matrix's -0.0 into
    0.0."""
    M = np.atleast_1d(np.asarray(M))
    if not M.size:
        return 0.0
    return float(abs(max(M.max(), -M.min())))


def solve_spd(A, B):
    """Solve A X = B for symmetric positive definite A via Cholesky.

    A must be symmetric within 1e-8 relative tolerance. If the first
    factorization fails, retries once with diagonal jitter
    1e-10 * trace(A)/n (finite arithmetic can make a PSD-by-construction
    matrix slightly indefinite); a second failure raises. The solver does
    not call it (it imports it only for perfbench/spans.py, which wraps
    solver.solve_spd).
    """
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
        C = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        jitter = 1e-10 * np.trace(A) / n
        logger.warning(
            "Cholesky failed; retrying with diagonal jitter %.3e", jitter
        )
        try:
            C = np.linalg.cholesky(A + jitter * np.eye(n))
        except np.linalg.LinAlgError as err:
            raise DecompositionError(
                f"matrix of size {n} is not positive definite "
                f"(jitter {jitter:.3e} did not help)"
            ) from err
    return np.linalg.solve(C.T, np.linalg.solve(C, B))
