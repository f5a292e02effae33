import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from mvsc import linalg
from mvsc.errors import DecompositionError, ValidationError
from mvsc.linalg import (
    inf_norm,
    l21_norm,
    nuclear_norm,
    prox_l21,
    soft_threshold,
    solve_spd,
    svt,
)


def test_soft_threshold_branches():
    assert soft_threshold(1.2, 0.5) == pytest.approx(0.7)
    assert soft_threshold(-1.2, 0.5) == pytest.approx(-0.7)
    assert soft_threshold(0.3, 0.5) == 0.0
    assert soft_threshold(-0.5, 0.5) == 0.0


def test_soft_threshold_rejects_negative_eps():
    with pytest.raises(ValidationError):
        soft_threshold(1.0, -0.1)


@given(st.floats(-100, 100), st.floats(0, 50))
def test_soft_threshold_odd(x, eps):
    assert soft_threshold(-x, eps) == pytest.approx(-soft_threshold(x, eps))


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


def test_svd_fallback_runs_gesvd_on_one_thread(monkeypatch):
    # numpy's gesdd failing once sends _svd to scipy's gesvd, which it
    # imports then and runs with every OpenBLAS pool, scipy's too, pinned
    import scipy.linalg

    from mvsc import blas

    rng = np.random.default_rng(31)
    M = rng.standard_normal((12, 7))
    U0, s0, Vt0 = np.linalg.svd(M, full_matrices=False)
    real_np, real_scipy = np.linalg.svd, scipy.linalg.svd
    failures, pool_sizes = [], []

    def failing_once(*args, **kwargs):
        if not failures:
            failures.append(args[0].shape)
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_np(*args, **kwargs)

    def recording(*args, **kwargs):
        pool_sizes.extend(get() for get, _ in blas.openblas_pools())
        return real_scipy(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_once)
    monkeypatch.setattr(scipy.linalg, "svd", recording)
    U, s, Vt = linalg._svd(M)
    assert failures == [M.shape]
    assert pool_sizes and set(pool_sizes) == {1}
    np.testing.assert_allclose(s, s0, rtol=1e-12)
    # singular vectors agree up to the sign of each pair
    np.testing.assert_allclose(np.abs(U), np.abs(U0), atol=1e-12)
    np.testing.assert_allclose(np.abs(Vt), np.abs(Vt0), atol=1e-12)
    np.testing.assert_allclose((U * s) @ Vt, M, atol=1e-12)


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
