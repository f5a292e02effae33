import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from mvsc import blas, linalg, pipeline
from mvsc.errors import DecompositionError, NumericalError, ValidationError
from mvsc.linalg import (
    add_transpose,
    inf_norm,
    l21_norm,
    nuclear_norm,
    prox_l21,
    solve_spd,
    svt,
)


def test_prox_l21_one_row_shrinks_entrywise():
    # on one row every column is a scalar, so the prox is the scalar
    # shrinkage sign(x) * max(|x| - kappa, 0)
    out = prox_l21(np.array([[1.2, -1.2, 0.3, -0.5]]), 0.5)
    np.testing.assert_allclose(out, [[0.7, -0.7, 0.0, 0.0]], atol=1e-12)


def test_prox_l21_rejects_nonpositive_threshold():
    for kappa in (0.0, -0.1):
        with pytest.raises(ValidationError):
            prox_l21(np.ones((2, 2)), kappa)


@given(st.floats(-100, 100), st.floats(1e-6, 50))
def test_prox_l21_one_row_is_soft_threshold(x, kappa):
    got = prox_l21(np.array([[x]]), kappa)[0, 0]
    assert got == pytest.approx(np.sign(x) * max(abs(x) - kappa, 0.0), abs=1e-9)
    assert prox_l21(np.array([[-x]]), kappa)[0, 0] == pytest.approx(-got)


def test_svt_diagonal():
    M = np.diag([3.0, 1.0, 0.2])
    out = svt(M, 0.5)
    np.testing.assert_allclose(out, np.diag([2.5, 0.5, 0.0]), atol=1e-12)


def test_svt_zero_matrix():
    assert np.all(svt(np.zeros((3, 4)), 1.0) == 0)


def test_svt_requires_positive_tau():
    with pytest.raises(ValidationError):
        svt(np.eye(2), 0.0)


def _svt_objective(Q, M, tau):
    return tau * nuclear_norm(Q) + 0.5 * np.sum((Q - M) ** 2)


def test_svt_perturbation_optimality():
    # the output should beat nearby points on the prox objective
    rng = np.random.default_rng(0)
    M = rng.standard_normal((4, 4))
    Q = svt(M, 0.3)
    base = _svt_objective(Q, M, 0.3)
    for _ in range(200):
        d = rng.standard_normal((4, 4))
        d *= 1e-3 / np.linalg.norm(d)
        assert _svt_objective(Q + d, M, 0.3) >= base - 1e-9


def test_svt_shrinks_nuclear_norm():
    rng = np.random.default_rng(1)
    for _ in range(20):
        M = rng.standard_normal((5, 3))
        assert nuclear_norm(svt(M, 0.2)) <= nuclear_norm(M) + 1e-10


def test_svt_nonexpansive():
    rng = np.random.default_rng(2)
    for _ in range(100):
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4))
        lhs = np.linalg.norm(svt(A, 0.4) - svt(B, 0.4))
        assert lhs <= np.linalg.norm(A - B) + 1e-10


def _full_svt(M, tau):
    """svt's full-SVD path, the reference for the rank-aware paths."""
    L, Rt = linalg._threshold(*linalg._svd(M), tau)
    return L @ Rt


def _failing_gesdd(monkeypatch, failures):
    """Make np.linalg.svd raise on its first `failures` calls, recording
    each failed input's shape."""
    real, failed = np.linalg.svd, []

    def svd(a, *args, **kwargs):
        if len(failed) < failures:
            failed.append(a.shape)
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return failed


def test_svd_retries_gesdd_on_the_transpose(monkeypatch):
    # gesdd failing on M runs it on M^T, whose factors, transposed back,
    # are an SVD of M
    M = np.random.default_rng(31).standard_normal((12, 7))
    U0, s0, Vt0 = np.linalg.svd(M, full_matrices=False)
    failed = _failing_gesdd(monkeypatch, 1)
    U, s, Vt = linalg._svd(M)
    assert failed == [M.shape]
    assert U.shape == U0.shape and Vt.shape == Vt0.shape
    np.testing.assert_allclose(s, s0, rtol=1e-12)
    # singular vectors agree up to the sign of each pair
    np.testing.assert_allclose(np.abs(U), np.abs(U0), atol=1e-12)
    np.testing.assert_allclose(np.abs(Vt), np.abs(Vt0), atol=1e-12)
    np.testing.assert_allclose((U * s) @ Vt, M, atol=1e-12)


def test_svd_failing_on_both_orientations_is_a_numerical_error(monkeypatch):
    M = np.random.default_rng(32).standard_normal((12, 7))
    failed = _failing_gesdd(monkeypatch, 2)
    with pytest.raises(NumericalError, match=r"\(12, 7\) matrix.*gesdd.*transpose"):
        linalg._svd(M)
    assert failed == [(12, 7), (7, 12)]


def _planted(rng, shape, rank, noise):
    """Rank-`rank` matrix with unit-order singular values plus entrywise
    Gaussian noise of the given scale."""
    p, m = shape
    A = rng.standard_normal((p, rank)) @ rng.standard_normal((rank, m))
    return A / np.sqrt(max(p, m)) + noise * rng.standard_normal(shape)


def _count_svds(monkeypatch):
    shapes = []
    real = linalg._svd

    def counting(M):
        shapes.append(M.shape)
        return real(M)

    monkeypatch.setattr(linalg, "_svd", counting)
    return shapes


def test_svt_skip_returns_exact_zeros_without_svd(monkeypatch):
    rng = np.random.default_rng(20)
    M = rng.standard_normal((30, 30))
    tau = np.linalg.norm(M) * (1 + 1e-9)
    expected = _full_svt(M, tau)
    assert np.array_equal(expected, np.zeros_like(M))
    shapes = _count_svds(monkeypatch)
    for hint in (None, 3):
        out = svt(M, tau, rank_hint=hint)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)
    assert shapes == []


def test_svt_skip_margin_keeps_the_boundary_on_the_full_path(monkeypatch):
    # ||M||_F == tau exactly is inside the 1e-12 margin: the SVD decides
    M = np.diag([2.0, 0.0, 0.0])
    shapes = _count_svds(monkeypatch)
    assert np.array_equal(svt(M, 2.0), np.zeros((3, 3)))
    assert shapes == [(3, 3)]


@pytest.mark.parametrize(
    "shape, rank, seed",
    [((200, 200), 8, 0), ((240, 240), 20, 1), ((300, 240), 12, 2), ((240, 300), 12, 3)],
)
def test_svt_sketch_matches_full_svd(shape, rank, seed, monkeypatch):
    rng = np.random.default_rng(seed)
    M = _planted(rng, shape, rank, noise=1e-7)
    tau = 1e-3
    expected = _full_svt(M, tau)
    assert np.linalg.matrix_rank(expected) == rank
    shapes = _count_svds(monkeypatch)
    out = svt(M, tau, rank_hint=rank)
    k = rank + linalg.SKETCH_OVERSAMPLE
    assert shapes == [(k, shape[1])]  # only the small SVD ran
    assert np.abs(out - expected).max() <= 1e-10


def test_svt_hint_below_rank_falls_back_to_full_svd(monkeypatch):
    rng = np.random.default_rng(21)
    M = _planted(rng, (240, 240), 30, noise=1e-7)
    tau = 1e-3
    expected = _full_svt(M, tau)
    shapes = _count_svds(monkeypatch)
    out = svt(M, tau, rank_hint=5)  # 15 sketched directions < rank 30
    assert shapes == [(240, 240)]
    assert np.array_equal(out, expected)


def test_svt_small_matrix_ignores_hint(monkeypatch):
    # 4 (hint + 10) > n: the sketch would cost more than the full SVD
    rng = np.random.default_rng(22)
    M = _planted(rng, (150, 150), 5, noise=1e-7)
    expected = _full_svt(M, 1e-3)
    shapes = _count_svds(monkeypatch)
    assert np.array_equal(svt(M, 1e-3, rank_hint=90), expected)
    assert shapes == [(150, 150)]


def test_svt_sketch_is_deterministic():
    rng = np.random.default_rng(23)
    M = _planted(rng, (220, 220), 10, noise=1e-7)
    a = svt(M, 1e-3, rank_hint=10)
    b = svt(M, 1e-3, rank_hint=10)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("path", ["skip", "sketch", "full", "full-to-zero"])
def test_svt_factors_multiply_to_svt(path, monkeypatch):
    # svt is the product of svt_factors, bit for bit, on every path; on
    # the full path both equal the dense thresholded SVD
    rng = np.random.default_rng(24)
    M = _planted(rng, (200, 200), 8, noise=1e-7)
    sigma = np.linalg.svd(M, compute_uv=False)
    tau, hint, svds, width = {
        "skip": (2 * np.linalg.norm(M), 8, [], 0),
        "sketch": (1e-3, 8, [(8 + linalg.SKETCH_OVERSAMPLE, 200)], 8),
        "full": (1e-3, None, [(200, 200)], 8),
        # sigma_1 <= tau < ||M||_F: the SVD runs and nothing survives
        "full-to-zero": (sigma[0] * (1 + 1e-9), None, [(200, 200)], 0),
    }[path]
    shapes = _count_svds(monkeypatch)
    L, Rt = linalg.svt_factors(M, tau, rank_hint=hint)
    assert shapes == svds
    assert L.shape == (200, width) and Rt.shape == (width, 200)
    Q = svt(M, tau, rank_hint=hint)
    assert np.array_equal(L @ Rt, Q)
    if path.startswith("full"):
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        s = np.maximum(s - tau, 0.0)
        keep = s > 0
        assert np.array_equal(Q, (U[:, keep] * s[keep]) @ Vt[keep, :])


def _count_ranges(monkeypatch):
    """Record the start of each sketch svt_factors runs, in call order."""
    starts = []
    real = linalg._sketch_range

    def counting(M, start, k):
        starts.append(start)
        return real(M, start, k)

    monkeypatch.setattr(linalg, "_sketch_range", counting)
    return starts


def _warm_start(rng, M, tau, rank):
    """The right factor of the svt of a nearby matrix, as the fit
    carries it from the previous iteration."""
    _, Rt = linalg.svt_factors(M + 1e-6 * rng.standard_normal(M.shape), tau)
    assert Rt.shape[0] == rank
    return Rt


@pytest.mark.parametrize("extra_rows", [0, 4, 10, 25])
def test_svt_warm_start_matches_full_svd(extra_rows, monkeypatch):
    # a start narrower than hint + 10 rows is padded with Gaussian columns
    rng = np.random.default_rng(25)
    rank, tau = 12, 1e-3
    M = _planted(rng, (240, 240), rank, noise=1e-7)
    start = _warm_start(rng, M, tau, rank)
    start = np.vstack([start, rng.standard_normal((extra_rows, 240))])
    expected = _full_svt(M, tau)
    calls = _count_ranges(monkeypatch)
    shapes = _count_svds(monkeypatch)
    L, Rt = linalg.svt_factors(M, tau, rank_hint=rank, start=start)
    assert len(calls) == 1 and calls[0] is start
    assert shapes == [(rank + linalg.SKETCH_OVERSAMPLE, 240)]
    assert L.shape == (240, rank) and Rt.shape == (rank, 240)
    assert np.abs(L @ Rt - expected).max() <= 1e-10


def test_svt_warm_start_orthogonal_to_the_top_space_falls_back(monkeypatch):
    # the start sees none of M's top singular directions, so its basis
    # leaves them in the residual, the certificate rejects it, and the
    # full SVD runs after that one sketch
    rng = np.random.default_rng(26)
    rank, tau = 8, 1e-3
    M = _planted(rng, (200, 200), rank, noise=1e-7)
    _, _, Vt = np.linalg.svd(M)
    start = Vt[rank:2 * rank + linalg.SKETCH_OVERSAMPLE]
    expected = _full_svt(M, tau)
    calls = _count_ranges(monkeypatch)
    shapes = _count_svds(monkeypatch)
    L, Rt = linalg.svt_factors(M, tau, rank_hint=rank, start=start)
    assert len(calls) == 1 and calls[0] is start
    assert shapes == [(200, 200)]
    assert np.array_equal(L @ Rt, expected)


def test_svt_failed_sketch_ends_in_the_full_svd(monkeypatch):
    rng = np.random.default_rng(27)
    M = _planted(rng, (240, 240), 30, noise=1e-7)
    tau = 1e-3
    start = _warm_start(rng, M, tau, 30)
    calls = _count_ranges(monkeypatch)
    shapes = _count_svds(monkeypatch)
    # 15 sketched directions < rank 30: the basis fails the certificate
    L, Rt = linalg.svt_factors(M, tau, rank_hint=5, start=start)
    assert len(calls) == 1 and calls[0] is start
    assert shapes == [(240, 240)]
    assert np.array_equal(L @ Rt, _full_svt(M, tau))


@pytest.mark.parametrize("rows", [0, 5, 11])
def test_svt_start_narrower_than_the_hint_is_padded(rows, monkeypatch):
    # a start with fewer rows than the hint, or none, is padded with the
    # seeded Gaussian directions in the one sketch, which certifies
    rng = np.random.default_rng(28)
    rank, tau = 12, 1e-3
    M = _planted(rng, (200, 200), rank, noise=1e-7)
    start = rng.standard_normal((rows, 200))
    expected = _full_svt(M, tau)
    calls = _count_ranges(monkeypatch)
    shapes = _count_svds(monkeypatch)
    L, Rt = linalg.svt_factors(M, tau, rank_hint=rank, start=start)
    assert len(calls) == 1 and calls[0] is start
    assert shapes == [(rank + linalg.SKETCH_OVERSAMPLE, 200)]
    assert np.abs(L @ Rt - expected).max() <= 1e-10
    # with no start at all the padding is the whole test matrix
    if rows == 0:
        no_start = linalg.svt_factors(M, tau, rank_hint=rank)
        assert all(np.array_equal(a, b) for a, b in zip((L, Rt), no_start))


def test_svt_start_is_only_read_and_the_warm_path_is_deterministic():
    rng = np.random.default_rng(29)
    M = _planted(rng, (200, 200), 10, noise=1e-7)
    for rows in (10, 25):  # padded and unpadded
        start = _warm_start(rng, M, 1e-3, 10)
        start = np.vstack([start, rng.standard_normal((rows - 10, 200))])
        kept = start.copy()
        start.flags.writeable = False
        a = linalg.svt_factors(M, 1e-3, rank_hint=10, start=start)
        b = linalg.svt_factors(M, 1e-3, rank_hint=10, start=start)
        assert np.array_equal(start, kept)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_svt_rejects_a_start_of_the_wrong_width():
    with pytest.raises(ValidationError, match="start"):
        linalg.svt_factors(np.eye(3), 0.5, rank_hint=1, start=np.ones((1, 4)))


def test_svt_rejects_negative_hint():
    with pytest.raises(ValidationError):
        svt(np.eye(2), 0.5, rank_hint=-1)


def test_prox_l21_closed_forms():
    col = np.array([[1.2], [1.6]])  # norm 2
    np.testing.assert_allclose(prox_l21(col, 0.5), 0.75 * col, atol=1e-12)
    small = np.array([[0.18], [0.24]])  # norm 0.3 below kappa
    assert np.all(prox_l21(small, 0.5) == 0)


def test_prox_l21_matches_scalar_line_search():
    # each output column minimizes kappa*||e|| + 0.5*||e - t||^2 along t
    rng = np.random.default_rng(3)
    T = rng.standard_normal((5, 4))
    kappa = 0.7
    E = prox_l21(T, kappa)
    for i in range(T.shape[1]):
        t = T[:, i]
        tn = np.linalg.norm(t)

        def obj(s):
            return kappa * abs(s) * tn + 0.5 * (s - 1) ** 2 * tn**2

        res = minimize_scalar(obj, bounds=(0.0, 1.0), method="bounded")
        np.testing.assert_allclose(E[:, i], res.x * t, atol=1e-6)


def test_prox_l21_nonexpansive():
    rng = np.random.default_rng(4)
    for _ in range(100):
        A = rng.standard_normal((6, 5))
        B = rng.standard_normal((6, 5))
        lhs = np.linalg.norm(prox_l21(A, 0.3) - prox_l21(B, 0.3))
        assert lhs <= np.linalg.norm(A - B) + 1e-10


def test_prox_objectives_do_not_increase():
    rng = np.random.default_rng(5)
    for _ in range(30):
        M = rng.standard_normal((4, 4))
        assert _svt_objective(svt(M, 0.3), M, 0.3) <= _svt_objective(M, M, 0.3) + 1e-12
        E = prox_l21(M, 0.3)
        before = 0.3 * l21_norm(M)
        after = 0.3 * l21_norm(E) + 0.5 * np.sum((E - M) ** 2)
        assert after <= before + 1e-12


def test_nuclear_norm_basics():
    assert nuclear_norm(np.eye(3)) == pytest.approx(3.0)
    assert nuclear_norm(np.diag([2.0, -2.0])) == pytest.approx(4.0)


def test_nuclear_norm_eigen_oracle():
    # trace of sqrt(M^T M) through an independent eigendecomposition
    rng = np.random.default_rng(6)
    M = rng.standard_normal((4, 4))
    evals = np.linalg.eigvalsh(M.T @ M)
    expect = np.sqrt(np.clip(evals, 0, None)).sum()
    assert nuclear_norm(M) == pytest.approx(expect, abs=1e-8)


def test_nuclear_norm_orthogonal_invariance():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((5, 5))
    U, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    V, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    assert nuclear_norm(U @ M @ V) == pytest.approx(nuclear_norm(M), abs=1e-8)


def test_l21_norm_values():
    assert l21_norm(np.eye(2)) == pytest.approx(2.0)
    assert l21_norm(np.zeros((3, 3))) == 0.0
    assert l21_norm(np.array([[3.0, 0.0], [4.0, 0.0]])) == pytest.approx(5.0)


def test_inf_norm_is_entrywise_max():
    assert inf_norm(np.array([[1.0, -7.0], [3.0, 2.0]])) == 7.0


def test_inf_norm_propagates_nan_and_reads_zero_as_positive():
    # the fit's divergence check relies on a NaN anywhere reading NaN
    for where in ((0, 0), (1, 1), (0, 1)):
        M = np.array([[1.0, -7.0], [3.0, 2.0]])
        M[where] = np.nan
        assert np.isnan(inf_norm(M))
    assert inf_norm(np.array([[np.inf, 1.0]])) == np.inf
    assert inf_norm(np.array([[-np.inf, 1.0]])) == np.inf
    for zero in (0.0, -0.0):
        assert str(inf_norm(np.full((2, 2), zero))) == "0.0"


@pytest.mark.parametrize("where", [(0, 0), (255, 512), (256, 0), (512, 512)],
                         ids=["first", "end-of-a-row", "start-of-a-row", "last"])
def test_inf_norm_of_a_large_matrix_reads_nan_at_any_entry(where):
    # the fit's divergence check on an n x n residual: a NaN anywhere
    # reads NaN, also where numpy reduces in vector blocks, as it does
    # not for a 2 x 2; the extremes give the largest magnitude
    M = np.random.default_rng(20).standard_normal((513, 513))
    assert inf_norm(M) == np.abs(M).max()
    M[where] = np.nan
    assert np.isnan(inf_norm(M))
    M[where] = -1e300
    assert inf_norm(M) == 1e300


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
def test_add_transpose_has_the_bits_of_a_plus_its_transpose(n):
    # block edges fall inside, on and past TRANSPOSE_BLOCK = 256; the
    # input is not symmetric, and signed zeros and infinities ride along
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-8, 8, (n, n))
    A[rng.random((n, n)) < 0.05] = 0.0
    A[rng.random((n, n)) < 0.05] = -0.0
    A.flat[::7] = np.inf
    expected = A + A.T
    got = A.copy()
    assert add_transpose(got) is got
    assert _same_bits(got, expected)


def test_add_transpose_allocates_no_second_nxn_array():
    import tracemalloc

    n = 600
    A = np.random.default_rng(0).standard_normal((n, n))
    tracemalloc.start()
    try:
        add_transpose(A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a block pair's sum, the last pair's until it is rebound, and the
    # ufunc's buffer: 1.2 MB, where numpy's A += A.T copies all of A^T
    # (2.9 MB at n=600)
    assert peak <= 3 * linalg.TRANSPOSE_BLOCK ** 2 * 8


def test_add_transpose_rejects_a_non_square_matrix():
    with pytest.raises(ValidationError):
        add_transpose(np.zeros((2, 3)))


def test_solve_spd_identity_and_diagonal():
    B = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(solve_spd(np.eye(2), B), B)
    out = solve_spd(np.diag([2.0, 4.0]), np.array([[2.0], [4.0]]))
    np.testing.assert_allclose(out, np.array([[1.0], [1.0]]))


def test_solve_spd_residual():
    rng = np.random.default_rng(8)
    G = rng.standard_normal((10, 10))
    A = G.T @ G + np.eye(10)
    B = rng.standard_normal((10, 3))
    X = solve_spd(A, B)
    assert np.linalg.norm(A @ X - B) <= 1e-8 * np.linalg.norm(B)


def test_solve_spd_rejects_asymmetric():
    A = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        solve_spd(A, np.eye(2))


def test_solve_spd_retries_a_singular_matrix_with_jitter(caplog):
    # a PSD matrix with a zero eigenvalue fails the first factorization
    A = np.ones((2, 2))
    with caplog.at_level("WARNING", logger="mvsc.linalg"):
        X = solve_spd(A, np.array([[2.0], [2.0]]))
    assert caplog.messages == ["Cholesky failed; retrying with diagonal jitter 1.000e-10"]
    np.testing.assert_allclose(X, np.ones((2, 1)), rtol=1e-9)


def test_solve_spd_indefinite_fails():
    A = np.diag([1.0, -1.0])
    with pytest.raises(DecompositionError):
        solve_spd(A, np.eye(2))


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_svt_idempotent_on_its_image(seed):
    # prox of the nuclear norm maps onto matrices whose small singular
    # values are gone; thresholding again with tau=0-ish keeps them
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((4, 4))
    Q = svt(M, 0.5)
    again = svt(Q, 1e-14)
    np.testing.assert_allclose(again, Q, atol=1e-10)


def test_rejects_nonfinite_input():
    M = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        svt(M, 0.1)
    with pytest.raises(ValidationError):
        nuclear_norm(M)


# ----------------------------------------------------------------- matmul
# shapes above the split gate: rows split (m >= p) and columns split,
# odd sizes whose halves end inside a kernel tile, and two whose plain
# halves change the bits of the unsplit product on SkylakeX kernels
SPLIT_SHAPES = [(161, 173, 157), (97, 211, 245), (450, 90, 450), (90, 600, 600)]


@pytest.fixture
def worker(paired):
    """Two CPUs, and a recording executor as blas.pair's extra thread,
    which runs the second part of a split product."""
    return paired


def _operands(m, k, p, layout, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, k))
    B = rng.standard_normal((k, p))
    if layout == "F":
        A, B = np.asfortranarray(A), np.asfortranarray(B)
    elif layout == "transposed":
        A, B = rng.standard_normal((k, m)).T, rng.standard_normal((p, k)).T
    return A, B


@pytest.mark.parametrize("with_out", [False, True], ids=["new", "out"])
@pytest.mark.parametrize("layout", ["C", "F", "transposed"])
@pytest.mark.parametrize("m, k, p", SPLIT_SHAPES)
def test_matmul_bits_do_not_depend_on_the_cpu_count(m, k, p, layout, with_out,
                                                    worker, monkeypatch):
    assert m * k * p >= linalg.SPLIT_MIN_MACS
    A, B = _operands(m, k, p, layout)
    results = []
    with blas.single_thread():
        for cpus in (1, 2, 3):
            monkeypatch.setattr(blas, "_cpus", lambda: cpus)
            out = np.full((m, p), np.nan) if with_out else None
            got = linalg.matmul(A, B, out=out)
            assert got is out or out is None
            results.append(got.tobytes())
    assert worker.jobs == 2  # the two- and three-CPU products
    assert results[0] == results[1] == results[2]
    np.testing.assert_allclose(got, A @ B, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("m, k, p", [(150, 150, 150), (90, 150, 150), (150, 90, 150),
                                     (1000, 2, 1000), (20, 20000, 20)])
def test_matmul_below_the_gate_is_np_matmul(m, k, p, worker):
    # n = 150's largest products, and ones with an output side too short
    # to split, run whole
    A, B = _operands(m, k, p, "C")
    with blas.single_thread():
        assert linalg.matmul(A, B).tobytes() == np.matmul(A, B).tobytes()
    assert worker.jobs == 0


def test_matmul_gram_and_overlapping_products_take_numpy_path(worker):
    # X^T X on one buffer is numpy's symmetric (syrk) product, which a
    # split would change; an output that overlaps an input needs numpy's
    # copy
    X = np.random.default_rng(1).standard_normal((300, 200))
    with blas.single_thread():
        gram = linalg.matmul(X.T, X)
        assert gram.tobytes() == np.matmul(X.T, X).tobytes()
        A, B = _operands(200, 200, 200, "C", seed=2)
        expected = A.copy()
        np.matmul(expected, B, out=expected)
        got = linalg.matmul(A, B, out=A)
    assert got is A
    assert A.tobytes() == expected.tobytes()
    assert worker.jobs == 0


def test_matmul_error_in_the_worker_reaches_the_caller(worker):
    # only the worker's part overflows, under the caller's errstate
    m, k, p = SPLIT_SHAPES[0]
    A, B = _operands(m, k, p, "C")
    A[m // 2 + linalg.SPLIT_ALIGN:] = 1e308
    B = np.abs(B) + 1.0
    with blas.single_thread():
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                linalg.matmul(A, B)
        assert worker.jobs == 1
        # the warnings filter turns a RuntimeWarning into an error; the
        # caller's errstate must silence it in the worker too
        with np.errstate(over="ignore", invalid="ignore"):
            got = linalg.matmul(A, B)
    assert worker.jobs == 2
    assert not np.isfinite(got[-1]).all() and np.isfinite(got[0]).all()


def test_matmul_outside_the_pin_submits_nothing(worker):
    # outside the pin OpenBLAS may run its own threads
    A, B = _operands(*SPLIT_SHAPES[0], "C")
    np.testing.assert_allclose(linalg.matmul(A, B), A @ B, rtol=1e-12, atol=1e-12)
    assert worker.jobs == 0
    with blas.single_thread():
        linalg.matmul(A, B)
    assert worker.jobs == 1


def test_lane_items_with_split_products_never_put_two_jobs_on_the_thread(worker,
                                                                       monkeypatch):
    # an in_order lane holds the extra thread while it runs, so a product
    # on either lane runs its parts in turn until the lane has ended; the
    # recording executor has two threads, so a second job would overlap
    shapes = SPLIT_SHAPES * 3
    operands = [_operands(*shape, "C", seed=i) for i, shape in enumerate(shapes)]

    def product(operands):
        return linalg.matmul(*operands).tobytes()

    with blas.single_thread():
        monkeypatch.setattr(blas, "_cpus", lambda: 1)
        expected = [product(ab) for ab in operands]
        monkeypatch.setattr(blas, "_cpus", lambda: 2)
        assert worker.jobs == 0
        assert list(pipeline.in_order(product, operands, 150)) == expected
    assert worker.jobs >= 1
    assert worker.most == 1


def test_matmul_from_many_threads_at_once_matches_sequential_products(monkeypatch):
    # more callers than cores, switching often, share the one worker
    import sys
    import threading

    monkeypatch.setattr(blas, "_cpus", lambda: 1)
    shapes = [(m, k, p) for m, k, p in SPLIT_SHAPES for _ in range(2)]
    operands = [_operands(*shape, "C", seed=i) for i, shape in enumerate(shapes)]
    with blas.single_thread():
        expected = [linalg.matmul(A, B).tobytes() for A, B in operands]
    monkeypatch.setattr(blas, "_cpus", lambda: 2)
    callers = 4
    results = [[] for _ in range(callers)]
    start = threading.Barrier(callers)

    def run(slot):
        start.wait()
        for _ in range(3):
            results[slot].append([linalg.matmul(A, B).tobytes() for A, B in operands])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with blas.single_thread():
            threads = [threading.Thread(target=run, args=(i,)) for i in range(callers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[expected] * 3] * callers


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_matmul_in_a_forked_child_makes_its_own_worker(monkeypatch):
    # a child forked after a two-lane map and a split product inherits
    # the parent's executor but not its thread, and the lock that a job
    # held; a job submitted there would never run
    monkeypatch.setattr(blas, "_cpus", lambda: 2)
    operands = [_operands(*shape, "C", seed=i) for i, shape in enumerate(SPLIT_SHAPES)]

    def both():
        def product(ab):
            return linalg.matmul(*ab).tobytes()

        return list(pipeline.in_order(product, operands, 150)), product(operands[0])

    with blas.single_thread():
        expected = both()
        assert blas._worker is not None
        pid = os.fork()
        if pid == 0:
            os._exit(0 if both() == expected else 1)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's map or split product never finished")
    assert os.waitstatus_to_exitcode(status) == 0
