import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mvsc import blas, linalg, pipeline
from mvsc import solver as solver_module
from mvsc.data import SyntheticSpec, generate_synthetic, normalize_views
from mvsc.errors import NumericalError, ValidationError
from mvsc.graphs import build_graph_set, laplacian_from_weights
from mvsc.linalg import inf_norm, l21_norm, nuclear_norm, prox_l21
from mvsc.solver import (
    HyperParams,
    SolverState,
    _view_rows,
    _z_basis,
    fit,
    objective_value,
    update_E,
    update_multipliers,
    update_Q,
    update_Z,
)
from mvsc.spectral import affinity_from_representation, spectral_cluster
import references
from references import (
    as_printed_z_step, congruence, graph_stage_fit, laplacian_quadratic, z_step,
)


def random_state(rng, n, v, mu=None):
    X_list = [rng.standard_normal((4 + k, n)) for k in range(v)]
    state = SolverState(
        Z=rng.standard_normal((n, n)),
        Q=rng.standard_normal((n, n)),
        E=np.vstack([0.1 * rng.standard_normal(X.shape) for X in X_list]),
        Y1=np.vstack([0.1 * rng.standard_normal(X.shape) for X in X_list]),
        Y2=0.1 * rng.standard_normal((n, n)),
        mu=float(mu if mu is not None else rng.uniform(0.05, 2.0)),
    )
    return X_list, state


def e_step(state, X_list, lambda1):
    """The fit's E step at the state's own Z."""
    Xs = np.vstack(X_list)
    return update_E(state, Xs - Xs @ state.Z, _view_rows(X_list), lambda1)


def dual_step(state, X_list):
    """The fit's dual step at the state's own residuals."""
    Xs = np.vstack(X_list)
    return update_multipliers(state, Xs - Xs @ state.Z - state.E, state.Z - state.Q)


def random_laplacians(rng, n, v):
    out = []
    for _ in range(v):
        W = rng.uniform(0, 1, (n, n))
        W = (W + W.T) / 2
        np.fill_diagonal(W, 0)
        out.append(laplacian_from_weights(W))
    return out


def laplacian_sum(L_list):
    """S0 = sum_k (L_k + L_k^T), what _z_basis takes (None for no graphs)."""
    return sum(L + L.T for L in L_list) if L_list else None


def z_subproblem_objective(Z, X_list, L_list, lambda2, state):
    """The quantity the Z step is supposed to minimize, written directly."""
    val = lambda2 * laplacian_quadratic(L_list, Z) if L_list else 0.0
    for X, r in zip(X_list, _view_rows(X_list)):
        R = X - X @ Z - state.E[r]
        val += float(np.sum(state.Y1[r] * R)) + state.mu / 2 * float(np.sum(R * R))
    RQ = Z - state.Q
    val += float(np.sum(state.Y2 * RQ)) + state.mu / 2 * float(np.sum(RQ * RQ))
    return val


def fd_gradient(f, Z, h=1e-5):
    g = np.zeros_like(Z)
    for i in range(Z.shape[0]):
        for j in range(Z.shape[1]):
            Zp = Z.copy()
            Zp[i, j] += h
            Zm = Z.copy()
            Zm[i, j] -= h
            g[i, j] = (f(Zp) - f(Zm)) / (2 * h)
    return g


# ---------------------------------------------------------------- E step


def test_update_E_zero_when_reconstruction_exact():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 6))
    _, state = random_state(rng, 6, 1)
    state.Z = np.eye(6)  # X @ I = X
    state.Y1 = np.zeros_like(X)
    out = e_step(state, [X], lambda1=0.5)
    assert np.all(out == 0)


def test_update_E_vanishing_shrinkage_at_large_mu():
    rng = np.random.default_rng(1)
    X_list, state = random_state(rng, 8, 2, mu=1e9)
    out = e_step(state, X_list, lambda1=0.5)
    for X, r in zip(X_list, _view_rows(X_list)):
        T = X - X @ state.Z + state.Y1[r] / state.mu
        assert np.max(np.abs(out[r] - T)) <= 0.5 / state.mu + 1e-12


def check_residual_products_reach_the_E_step(n, dims, monkeypatch):
    # the E step takes the stacked X - X Z of the previous residuals
    # (X at the start); on the dense path it and the step's result have
    # the bits of the per-view products X_k @ Z on separate arrays
    ds = normalize_views(generate_synthetic(SyntheticSpec(
        n=n, clusters=2, dims=dims, subspace_rank=2, noise_sigma=0.05, seed=1,
    )), "unit_column")
    X_list = ds.views
    ends = np.cumsum(dims).tolist()
    calls = []
    real_update_E = solver_module.update_E

    def checking_update_E(state, gap, rows, lambda1):
        calls.append(rows)
        expected = np.vstack([X - X @ state.Z for X in X_list])
        assert gap.tobytes() == expected.tobytes()
        got = real_update_E(state, gap, rows, lambda1)
        assert got.tobytes() == references.update_E(state, X_list, lambda1).tobytes()
        return got

    monkeypatch.setattr(solver_module, "update_E", checking_update_E)
    with blas.single_thread():
        _, state = graph_stage_fit(ds, HyperParams(max_iter=20))
    assert calls == [[slice(e - d, e) for d, e in zip(dims, ends)]] * state.iteration


def test_fit_hands_residual_products_to_the_E_step(monkeypatch):
    check_residual_products_reach_the_E_step(30, (5, 6), monkeypatch)


def test_fit_hands_residual_products_to_the_E_step_at_n300(monkeypatch):
    # at n=300 one stacked Xs @ Z would not have the per-view bits
    check_residual_products_reach_the_E_step(300, (20, 30, 40), monkeypatch)


def test_update_E_is_the_l21_prox():
    rng = np.random.default_rng(2)
    X_list, state = random_state(rng, 7, 2)
    lam1 = 0.8
    out = e_step(state, X_list, lam1)
    for X, r in zip(X_list, _view_rows(X_list)):
        E = out[r]
        T = X - X @ state.Z + state.Y1[r] / state.mu
        np.testing.assert_allclose(E, prox_l21(T, lam1 / state.mu), atol=1e-12)
        # prox optimality: beats small perturbations on the subproblem
        base = lam1 * l21_norm(E) + state.mu / 2 * np.sum((E - T) ** 2)
        for _ in range(50):
            D = rng.standard_normal(E.shape)
            D *= 1e-4 / np.linalg.norm(D)
            trial = lam1 * l21_norm(E + D) + state.mu / 2 * np.sum((E + D - T) ** 2)
            assert trial >= base - 1e-9


# ---------------------------------------------------------------- Q step


def dense_Q(state):
    """update_Q's factors multiplied out."""
    L, Rt = update_Q(state)
    return L @ Rt


def test_update_Q_zero_input():
    rng = np.random.default_rng(3)
    _, state = random_state(rng, 5, 1, mu=1.0)
    state.Z = np.diag([1.0, 2.0, 0.0, 0.0, 0.0])
    state.Y2 = -state.Z  # Z + Y2/mu = 0
    assert np.all(dense_Q(state) == 0)


def test_update_Q_diagonal_case():
    rng = np.random.default_rng(4)
    _, state = random_state(rng, 2, 1, mu=1.0)
    state.Z = np.diag([3.0, 0.5])
    state.Y2 = np.zeros((2, 2))
    np.testing.assert_allclose(dense_Q(state), np.diag([2.0, 0.0]), atol=1e-12)


def test_update_Q_perturbation_optimality():
    rng = np.random.default_rng(5)
    _, state = random_state(rng, 6, 1)
    Q = dense_Q(state)
    M = state.Z + state.Y2 / state.mu

    def obj(Qc):
        return nuclear_norm(Qc) / state.mu + 0.5 * np.sum((Qc - M) ** 2)

    base = obj(Q)
    for _ in range(100):
        D = rng.standard_normal(Q.shape)
        D *= 1e-3 / np.linalg.norm(D)
        assert obj(Q + D) >= base - 1e-9


# ---------------------------------------------------------------- Z step


def test_update_Z_no_graph_closed_form():
    # lambda2=0, Y=0, E=0, Q=0 forces Z = (sum X^T X + I)^-1 sum X^T X
    rng = np.random.default_rng(6)
    X_list, state = random_state(rng, 6, 2)
    state.E = np.zeros_like(state.E)
    state.Y1 = np.zeros_like(state.Y1)
    state.Y2 = np.zeros((6, 6))
    state.Q = np.zeros((6, 6))
    Z = z_step(state, X_list, [], 0.0)
    G = sum(X.T @ X for X in X_list)
    expected = np.linalg.solve(G + np.eye(6), G)
    np.testing.assert_allclose(Z, expected, atol=1e-8)


def test_update_Z_identity_view_gives_half_identity():
    rng = np.random.default_rng(7)
    n = 5
    _, state = random_state(rng, n, 1)
    X = np.eye(n)
    state.E = np.zeros((n, n))
    state.Y1 = np.zeros((n, n))
    state.Y2 = np.zeros((n, n))
    state.Q = np.zeros((n, n))
    Z = z_step(state, [X], [np.zeros((n, n))], 1.0)
    np.testing.assert_allclose(Z, np.eye(n) / 2, atol=1e-10)


def test_update_Z_gradient_vanishes():
    rng = np.random.default_rng(8)
    for _ in range(8):
        n = int(rng.integers(5, 12))
        v = int(rng.integers(1, 4))
        X_list, state = random_state(rng, n, v)
        L_list = random_laplacians(rng, n, v)
        lam2 = float(rng.uniform(0.1, 2.0))
        Z = z_step(state, X_list, L_list, lam2)
        g = fd_gradient(
            lambda Zc: z_subproblem_objective(Zc, X_list, L_list, lam2, state), Z
        )
        assert np.linalg.norm(g) <= 1e-6 * (1 + np.linalg.norm(Z))


def test_update_Z_as_printed_is_not_stationary():
    """The literal closed form from the write-up flips the error term's
    sign and drops -Y2; its output fails the same gradient check."""
    rng = np.random.default_rng(9)
    failures = 0
    for _ in range(5):
        n, v = 8, 2
        X_list, state = random_state(rng, n, v)
        L_list = random_laplacians(rng, n, v)
        Z = as_printed_z_step(state, X_list, L_list, 0.5)
        g = fd_gradient(
            lambda Zc: z_subproblem_objective(Zc, X_list, L_list, 0.5, state), Z
        )
        if np.linalg.norm(g) > 1e-6 * (1 + np.linalg.norm(Z)):
            failures += 1
    assert failures >= 1


@pytest.mark.parametrize(
    "dims, n, lam2",
    [
        ((4, 5, 6), 30, 0.7),
        ((4, 5, 6), 30, 0.0),  # S absent
        ((7,), 25, 0.7),
        ((40, 50), 60, 0.7),  # sum of dims >= n: the thin SVD has full rank
    ],
    ids=["graph", "no-graph", "one-view", "dims-exceed-n"],
)
def test_update_Z_matches_dense_solve(dims, n, lam2):
    # the per-fit eigenbasis against an independent dense solve of
    # (mu (I + sum X^T X) + lambda2 sum (L + L^T)) Z = B
    rng = np.random.default_rng(12)
    X_list = [rng.standard_normal((d, n)) for d in dims]
    _, state = random_state(rng, n, len(dims))
    state.E = np.vstack([0.1 * rng.standard_normal(X.shape) for X in X_list])
    state.Y1 = np.vstack([0.1 * rng.standard_normal(X.shape) for X in X_list])
    L_list = []
    if lam2 > 0:  # Laplacians plus an antisymmetric part: not symmetric
        skew = rng.standard_normal((len(dims), n, n))
        L_list = [L + B - B.T for L, B in zip(random_laplacians(rng, n, len(dims)), skew)]
    mu = state.mu
    gram = sum(X.T @ X for X in X_list)
    A = mu * (np.eye(n) + gram)
    if L_list:
        A = A + lam2 * sum(L + L.T for L in L_list)
    Xs = np.vstack(X_list)
    xty = Xs.T @ state.Y1
    xte = Xs.T @ state.E
    derived = xty + mu * (gram - xte) + mu * state.Q - state.Y2
    as_printed = xty + mu * gram + mu * (xte + state.Q)
    basis = _z_basis(Xs, laplacian_sum(L_list), lam2)
    for B, steps in (
        (derived, [z_step(state, X_list, L_list, lam2),
                   update_Z(state, basis, np.empty((n, n)))]),
        (as_printed, [as_printed_z_step(state, X_list, L_list, lam2)]),
    ):
        expected = np.linalg.solve(A, B)
        scale = np.linalg.norm(expected)
        for got in steps:
            assert np.linalg.norm(got - expected) <= 1e-10 * scale


@pytest.mark.parametrize(
    "dims, n, lam2",
    [((4, 5, 6), 30, 0.7), ((4, 5, 6), 30, 0.0), ((40, 50), 60, 0.7)],
    ids=["graph", "no-graph", "dims-exceed-n"],
)
def test_z_basis_diagonalizes_the_system(dims, n, lam2):
    # V^T P V = I and V^T S V = diag(lam), built without a dense R
    rng = np.random.default_rng(13)
    X_list = [rng.standard_normal((d, n)) for d in dims]
    L_list = random_laplacians(rng, n, len(dims)) if lam2 > 0 else []
    Xs = np.vstack(X_list)
    V, lam, XV, VtS = _z_basis(Xs, laplacian_sum(L_list), lam2)
    P = np.eye(n) + Xs.T @ Xs
    assert V.flags.f_contiguous
    np.testing.assert_allclose(V.T @ P @ V, np.eye(n), atol=1e-10)
    np.testing.assert_allclose(XV, Xs @ V, atol=1e-12)
    if lam2 > 0:
        S = lam2 * sum(L + L.T for L in L_list)
        scale = np.abs(lam).max()
        np.testing.assert_allclose(V.T @ S @ V, np.diag(lam), atol=1e-10 * scale)
        np.testing.assert_allclose(VtS, V.T @ S, atol=1e-12 * np.abs(S).max())
    else:
        assert VtS is None and not lam.any()


@pytest.mark.parametrize("n, d", [(30, 6), (300, 40)])
def test_congruence_has_the_bits_of_its_expression(n, d):
    # n = 300 crosses add_transpose's 256-wide blocks
    rng = np.random.default_rng(n)
    S = rng.standard_normal((n, n))
    S += S.T
    G = rng.standard_normal((n, d))
    Vt = rng.standard_normal((d, n))
    got = solver_module._congruence(S, G, Vt)
    assert got.tobytes() == congruence(S, G, Vt).tobytes()


@pytest.mark.parametrize("carried", [False, True], ids=["dense", "carried"])
def test_in_place_steps_keep_the_bits_of_the_allocating_ones(carried):
    # the fit passes update_Z its state.Z as out and advances Y1 and Y2
    # in place
    rng = np.random.default_rng(15)
    n, lam2 = 40, 0.6
    X_list, state = random_state(rng, n, 3)
    QL = rng.standard_normal((n, 5))
    QRt = rng.standard_normal((5, n))
    state.Q = QL @ QRt
    Xs = np.vstack(X_list)
    basis = _z_basis(Xs, laplacian_sum(random_laplacians(rng, n, 3)), lam2)
    kwargs = {}
    if carried:
        kwargs = dict(Q_factors=(QL, QRt), XVC=np.empty_like(Xs))
        basis = (*basis[:3], None)
    J = rng.standard_normal((n, n)) if carried else None
    J_in_place = None if J is None else J.copy()
    expected = update_Z(state, basis, np.empty((n, n)), J=J, **kwargs)
    out = state.Z
    got = update_Z(state, basis, out, J=J_in_place, **kwargs)
    assert got is out
    assert got.tobytes() == expected.tobytes()
    if carried:
        assert J_in_place.tobytes() == J.tobytes()
    state.Z = got
    Y1, Y2, mu = references.update_multipliers(state, X_list)
    R = np.vstack([X - X @ state.Z for X in X_list]) - state.E
    Y1_buffer, Y2_buffer = state.Y1, state.Y2
    Y1_ip, Y2_ip, mu_ip = update_multipliers(state, R, state.Z - state.Q)
    assert Y1_ip is Y1_buffer and Y1_ip.tobytes() == Y1.tobytes()
    assert Y2_ip is Y2_buffer and Y2_ip.tobytes() == Y2.tobytes()
    assert mu_ip == mu


def test_update_Z_carried_products_match_dense():
    # J = V^T (Y2 + S) and Q's factors give the dense path's Z, and J
    # comes back as V^T (Y2 + mu (Z - Q) + S)
    rng = np.random.default_rng(14)
    n, lam2 = 40, 0.6
    X_list, state = random_state(rng, n, 3)
    L_list = random_laplacians(rng, n, 3)
    QL = rng.standard_normal((n, 5))
    QRt = rng.standard_normal((5, n))
    state.Q = QL @ QRt
    Xs = np.vstack(X_list)
    basis = _z_basis(Xs, laplacian_sum(L_list), lam2)
    V, S = basis[0], lam2 * sum(L + L.T for L in L_list)
    J = V.T @ (state.Y2 + S)
    expected = z_step(state, X_list, L_list, lam2)
    XVC = np.full_like(Xs, np.nan)
    got = update_Z(state, basis, np.empty((n, n)), J=J, Q_factors=(QL, QRt), XVC=XVC)
    assert np.linalg.norm(got - expected) <= 1e-11 * np.linalg.norm(expected)
    J_next = V.T @ (state.Y2 + state.mu * (got - state.Q) + S)
    assert np.linalg.norm(J - J_next) <= 1e-11 * np.linalg.norm(J_next)
    # XVC comes back as Xs (Z - I), so Xs Z = Xs + XVC
    XZ = Xs @ got
    assert np.linalg.norm(Xs + XVC - XZ) <= 1e-12 * np.linalg.norm(XZ)


# ------------------------------------------------------- multipliers, mu


def test_update_multipliers_zero_residuals():
    rng = np.random.default_rng(11)
    X_list, state = random_state(rng, 5, 1, mu=1e-4)
    X = X_list[0]
    state.E = X - X @ state.Z  # residual exactly zero
    state.Q = state.Z.copy()
    Y1_old = state.Y1.copy()
    Y2_old = state.Y2.copy()
    Y1, Y2, mu = dual_step(state, X_list)
    np.testing.assert_allclose(Y1, Y1_old)
    np.testing.assert_allclose(Y2, Y2_old)
    assert mu == pytest.approx(1.9e-4)


def test_mu_caps_at_mu_max():
    rng = np.random.default_rng(12)
    X_list, state = random_state(rng, 4, 1, mu=solver_module.MU_MAX)
    _, _, mu = dual_step(state, X_list)
    assert mu == solver_module.MU_MAX


def test_update_multipliers_ascent_direction():
    rng = np.random.default_rng(13)
    X_list, state = random_state(rng, 5, 2, mu=2.0)
    Y1_old, Y2_old = state.Y1.copy(), state.Y2.copy()
    Y1, Y2, _ = dual_step(state, X_list)
    for X, r in zip(X_list, _view_rows(X_list)):
        np.testing.assert_allclose(Y1[r] - Y1_old[r], 2.0 * (X - X @ state.Z - state.E[r]))
    np.testing.assert_allclose(Y2 - Y2_old, 2.0 * (state.Z - state.Q))


# ------------------------------------------------------------- objective


def test_objective_trivial_cases():
    rng = np.random.default_rng(14)
    X_list, state = random_state(rng, 6, 2)
    params = HyperParams(lambda1=0.7, lambda2=0.0, variant="msc-naive")
    state.Z = np.zeros((6, 6))
    state.E = np.vstack(X_list)
    rows = _view_rows(X_list)
    expected = 0.7 * sum(l21_norm(X) for X in X_list)
    assert objective_value(state, rows, None, params) == pytest.approx(expected)
    state.E = np.zeros_like(state.E)
    assert objective_value(state, rows, None, params) == 0.0


def test_objective_cross_module_recomputation():
    # the objective reads S0 alone; its graph term, a pairwise sum over
    # S0, must equal the set's defining double sums at random and at
    # fitted Z, in both graph modes
    rng = np.random.default_rng(15)
    ds = small_dataset()
    for variant, mode in solver_module.GRAPH_MODES.items():
        params = HyperParams(lambda1=0.4, lambda2=0.9, alpha=0.01, knn=5,
                             variant=variant, max_iter=100)
        gs = build_graph_set(ds.views, 5, 0.01, mode=mode)
        S0 = gs.laplacian_sum
        _, state = random_state(rng, ds.n_samples, ds.n_views)
        state.E = np.vstack([0.1 * rng.standard_normal(X.shape) for X in ds.views])
        rows = _view_rows(ds.views)
        _, fitted = fit(ds, params, laplacian_sum=S0)
        for Z in (state.Z, fitted.Z):
            state.Z = Z
            got = objective_value(state, rows, S0, params)
            rest = objective_value(state, rows, None, params)
            assert (got - rest) / 0.9 == pytest.approx(
                gs.regularizer_direct(Z), rel=1e-12
            ), variant
            expected = (
                nuclear_norm(Z)
                + 0.4 * sum(l21_norm(state.E[r]) for r in rows)
                + 0.9 * laplacian_quadratic(gs.laplacians, Z)
            )
            assert got == pytest.approx(expected, rel=1e-8)


# ------------------------------------------------------------------- fit


def small_dataset(seed=0, **kw):
    spec = SyntheticSpec(
        n=kw.pop("n", 45),
        clusters=3,
        dims=kw.pop("dims", (8, 10)),
        subspace_rank=2,
        noise_sigma=kw.pop("noise_sigma", 0.03),
        seed=seed,
        **kw,
    )
    return normalize_views(generate_synthetic(spec), "unit_column")


def test_fit_converges_on_small_synthetic():
    ds = small_dataset()
    Z, state = graph_stage_fit(ds, HyperParams())
    assert state.converged
    assert state.iteration <= 200
    last_view, last_zq = state.residual_history[-1]
    assert last_view < 1e-6 and last_zq < 1e-6
    assert len(state.residual_history) == state.iteration


def test_fit_mu_monotone_and_capped():
    ds = small_dataset()
    _, state = graph_stage_fit(ds, HyperParams())
    mus = np.array(state.mu_history)
    assert np.all(np.diff(mus) >= 0)
    assert np.all(mus <= 1e6)


def test_fit_deterministic():
    ds = small_dataset()
    p = HyperParams()
    Z1, s1 = graph_stage_fit(ds, p)
    Z2, s2 = graph_stage_fit(ds, p)
    assert np.array_equal(Z1, Z2)
    assert s1.residual_history == s2.residual_history


def test_fit_lrr_bsv_takes_one_view():
    ds = small_dataset()
    with pytest.raises(ValidationError, match="one view"):
        fit(ds, HyperParams(variant="lrr-bsv"))


@pytest.mark.parametrize("variant", ["grmsc", "grmsc-naive"])
def test_graph_fit_without_its_graph_term_is_a_validation_error(variant):
    # the solver builds no graphs: a graph variant at lambda2 > 0 that is
    # not handed S0 would otherwise run as msc-naive
    ds = small_dataset()
    with pytest.raises(ValidationError, match=f"variant {variant} at lambda2 = 2 "):
        fit(ds, HyperParams(lambda2=2.0, variant=variant))
    # at lambda2 = 0 the fit reads no graphs
    _, state = fit(ds, HyperParams(lambda2=0.0, variant=variant, max_iter=5))
    assert state.iteration == 5


def test_fit_nonfinite_residuals_name_the_iteration(monkeypatch):
    import mvsc.solver as solver

    monkeypatch.setattr(
        solver, "update_Z", lambda state, *a, **k: np.full_like(state.Z, np.nan)
    )
    with pytest.raises(NumericalError, match="iteration 1 "):
        fit(small_dataset(), HyperParams(variant="msc-naive"))


def test_fit_sketched_svt_matches_full_svd_fit(monkeypatch):
    # n=160 with hint 6 + 8 = 14: 4 (14 + 10) <= 160, so svt sketches
    spec = SyntheticSpec(n=160, clusters=2, dims=(6, 8), subspace_rank=2,
                         noise_sigma=0.05, seed=0)
    ds = normalize_views(generate_synthetic(spec), "unit_column")
    sketches = []
    real_sketch = linalg._sketch_range

    def counting_sketch(M, start, k):
        sketches.append(k)
        return real_sketch(M, start, k)

    monkeypatch.setattr(linalg, "_sketch_range", counting_sketch)
    Z, state = graph_stage_fit(ds, HyperParams())
    assert sketches and set(sketches) == {14 + linalg.SKETCH_OVERSAMPLE}
    sketched = len(sketches)
    monkeypatch.setattr(
        solver_module, "svt_factors",
        lambda M, tau, rank_hint=None, start=None: linalg.svt_factors(M, tau),
    )
    Z_full, state_full = graph_stage_fit(ds, HyperParams())
    # no hint, no sketch
    assert len(sketches) == sketched
    assert state.iteration == state_full.iteration
    assert np.abs(Z - Z_full).max() <= 1e-8
    for seed in range(3):
        np.testing.assert_array_equal(
            spectral_cluster(affinity_from_representation(Z), 2, seed),
            spectral_cluster(affinity_from_representation(Z_full), 2, seed),
        )


def test_fit_at_the_sketch_gate_certifies_every_sketch(monkeypatch):
    # n=400 with the reference dims: 4 (90 + 10) = n, the smallest fit
    # that sketches; Q's rank stays below the hint, so every start is
    # padded, and the sketch certifies at every nonzero SVT call and
    # keeps Z as close to the full-SVD fit's as at n=160
    ds = normalize_views(generate_synthetic(SyntheticSpec(
        n=400, clusters=3, dims=(20, 30, 40), subspace_rank=3, noise_sigma=0.05,
        seed=7)), "unit_column")
    starts, svds = [], []
    real_sketch, real_svd = linalg._sketch_range, linalg._svd

    def sketch(M, start, k):
        starts.append(0 if start is None else start.shape[0])
        return real_sketch(M, start, k)

    def svd(M):
        svds.append(M.shape)
        return real_svd(M)

    monkeypatch.setattr(linalg, "_sketch_range", sketch)
    monkeypatch.setattr(linalg, "_svd", svd)
    Z, state = graph_stage_fit(ds, HyperParams())
    assert state.converged
    assert starts and max(starts) < 90
    # one small SVD per certified sketch, and none of an n x n M
    assert svds == [(100, 400)] * len(starts)
    monkeypatch.setattr(
        solver_module, "svt_factors",
        lambda M, tau, rank_hint=None, start=None: linalg.svt_factors(M, tau),
    )
    Z_full, state_full = graph_stage_fit(ds, HyperParams())
    assert state.iteration == state_full.iteration
    assert np.abs(Z - Z_full).max() <= 1e-8


def test_carried_steps_allocate_at_most_one_nxn_array(monkeypatch):
    # n=600 with the reference dims takes the carried path and certifies
    # every sketch. update_Q writes Z + Y2 / mu into the loop's array and
    # the SVT certificate takes one n x n residual; update_Z takes C.
    # Everything else either step allocates is thin: at most three
    # (sum d + rank hint) x n arrays (update_Z's thin part peaks at 2.5).
    # At n=400 a second n x n array would fit in that slack.
    n, d = 600, 90
    ds = normalize_views(generate_synthetic(SyntheticSpec(
        n=n, clusters=3, dims=(20, 30, 40), subspace_rank=3, noise_sigma=0.05,
        seed=7)), "unit_column")
    peaks = {"update_Q": [], "update_Z": []}

    def traced(name):
        step = getattr(solver_module, name)

        def run(*args, **kwargs):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = step(*args, **kwargs)
            peaks[name].append(tracemalloc.get_traced_memory()[1] - before)
            return out

        monkeypatch.setattr(solver_module, name, run)

    traced("update_Q")
    traced("update_Z")
    tracemalloc.start()
    try:
        _, state = graph_stage_fit(ds, HyperParams())
    finally:
        tracemalloc.stop()
    assert state.converged
    nxn, thin = n * n * 8, 3 * (d + d) * n * 8
    for name, seen in peaks.items():
        assert len(seen) == state.iteration, name
        assert max(seen) <= nxn + thin, (name, max(seen) / nxn)


@pytest.mark.parametrize("n", [150, 300, 600])
def test_row_views_of_the_stack_keep_the_bits_of_separate_arrays(n):
    # what the fit takes per view on row views of its stacked arrays
    # (the dense path's X_k Z, the l2,1 prox and norm, the inf-norm
    # residual) has the bits of the same call on a separate array
    rng = np.random.default_rng(n)
    X_list = [rng.standard_normal((d, n)) for d in (20, 30, 40)]
    Xs, rows = np.vstack(X_list), _view_rows(X_list)
    Z = rng.standard_normal((n, n))
    XZ = np.empty_like(Xs)
    with blas.single_thread():
        for X, r in zip(X_list, rows):
            np.matmul(Xs[r], Z, out=XZ[r])
            assert XZ[r].tobytes() == (X @ Z).tobytes()
            assert prox_l21(Xs[r], 5.0).tobytes() == prox_l21(X, 5.0).tobytes()
            assert l21_norm(Xs[r]) == l21_norm(X)
            assert inf_norm(Xs[r]) == inf_norm(X)
        # why the dense path (n <= 360 with these dims) takes one product
        # per view: with OpenBLAS one Xs @ Z rounds some of its rows
        # unlike the per-view products at n=300
        if n == 300 and blas.openblas_pools():
            stacked = Xs @ Z
            assert any(stacked[r].tobytes() != XZ[r].tobytes() for r in rows)


def _dense_update_Z(X_list, S):
    """The Z step with V^T D rebuilt from a dense D every iteration:
    D = Xs^T T + mu (Q - I) - Y2 - S (the fit passes the basis, not the
    views or the graphs, so they come from the test; S is None without a
    graph term). On the carried path the fit keeps Q as its factors, so
    Q is formed here."""
    Xs = np.vstack(X_list)

    def step(state, basis, out, J=None, Q_factors=None, XVC=None):
        V, lam = basis[:2]
        mu = state.mu
        T = state.Y1 - mu * state.E
        Q = state.Q if state.Q is not None else Q_factors[0] @ Q_factors[1]
        D = Xs.T @ T + mu * (Q - np.eye(len(V))) - state.Y2
        if S is not None:
            D -= S
        Z = np.eye(len(V)) + V @ ((V.T @ D) / (mu + lam)[:, None])
        if J is not None:  # the carried path reads Xs Z from it
            XVC[:] = Xs @ Z - Xs
        return Z

    return step


@pytest.mark.parametrize(
    "variant, n, carried",
    [("grmsc", 120, True), ("msc-naive", 120, True), ("lrr-bsv", 120, True),
     ("grmsc", 45, False)],
    ids=["grmsc", "msc-naive", "lrr-bsv", "dense-n45"],
)
def test_fit_carried_J_matches_dense_reference(variant, n, carried, monkeypatch):
    # the loop carries J when 4 d < n (d = 18 rows, 8 for lrr-bsv's view)
    ds = small_dataset(seed=3, n=n)
    if variant == "lrr-bsv":
        ds = replace(ds, views=ds.views[:1])
    params = HyperParams(variant=variant)
    real_update_Z = solver_module.update_Z
    seen = []

    def spying_update_Z(*args, J=None, **kwargs):
        seen.append(J is not None)
        return real_update_Z(*args, J=J, **kwargs)

    monkeypatch.setattr(solver_module, "update_Z", spying_update_Z)
    [S0] = pipeline._graph_terms(ds, [params])
    Z, state = fit(ds, params, laplacian_sum=S0)
    assert set(seen) == {carried}
    S = None if S0 is None else params.effective_lambda2 * S0
    monkeypatch.setattr(solver_module, "update_Z", _dense_update_Z(ds.views, S))
    Z_ref, state_ref = fit(ds, params, laplacian_sum=S0)
    assert state.iteration == state_ref.iteration
    assert state.converged
    assert np.linalg.norm(Z - Z_ref) <= 1e-11 * np.linalg.norm(Z_ref)



def test_fit_carried_path_forms_Q_once_from_the_last_factors(monkeypatch):
    # the carried loop keeps Q as factors; fit still returns the dense Q
    # (perfbench reads its rank), and each step runs once per iteration
    ds = small_dataset(seed=3, n=120)
    steps = ("update_E", "update_Q", "update_Z", "update_multipliers")
    calls = dict.fromkeys(steps, 0)
    last = []

    def counting(name):
        real = getattr(solver_module, name)

        def step(*args, **kwargs):
            calls[name] += 1
            result = real(*args, **kwargs)
            if name == "update_Q":
                last[:] = [np.copy(result[0]), np.copy(result[1])]
            return result

        return step

    for name in calls:
        monkeypatch.setattr(solver_module, name, counting(name))
    Z, state = graph_stage_fit(ds, HyperParams())
    assert state.converged
    assert set(calls.values()) == {state.iteration}
    assert isinstance(state.Q, np.ndarray) and state.Q.shape == Z.shape
    assert state.Q.tobytes() == (last[0] @ last[1]).tobytes()


def _z_basis_from_laplacians(Xs, L_list, lambda2):
    """The Z basis as it was built before the graph stage handed the fit
    S0: S summed from the per-view Laplacians inside the basis."""
    _, s, Vt = linalg._svd(Xs)
    G = Vt.T * ((1.0 + s * s) ** -0.5 - 1.0)
    if lambda2 > 0 and L_list:
        S = lambda2 * sum(L + L.T for L in L_list)
        lam, W = np.linalg.eigh(solver_module._congruence(S, G, Vt))
        V = np.asfortranarray(W)
        V += G @ (Vt @ W)
        return V, lam, Xs @ V, V.T @ S
    V = np.asfortranarray(G @ Vt)
    V[np.diag_indices_from(V)] += 1.0
    return V, np.zeros(V.shape[0]), Xs @ V, None


@pytest.mark.parametrize(
    "variant, n",
    [("grmsc", 120), ("grmsc-naive", 120), ("grmsc", 45)],
    ids=["grmsc", "grmsc-naive", "dense-n45"],
)
def test_fit_from_S0_matches_a_basis_summed_from_the_laplacians(variant, n, monkeypatch):
    ds = small_dataset(seed=3, n=n)
    params = HyperParams(variant=variant)
    gs = build_graph_set(ds.views, 10, params.alpha, mode=solver_module.GRAPH_MODES[variant])
    Z, state = fit(ds, params, laplacian_sum=gs.laplacian_sum)
    L_list = gs.laplacians
    monkeypatch.setattr(
        solver_module, "_z_basis",
        lambda Xs, S0, lambda2: _z_basis_from_laplacians(Xs, L_list, lambda2),
    )
    Z_ref, state_ref = fit(ds, params, laplacian_sum=gs.laplacian_sum)
    assert state.converged and state.iteration == state_ref.iteration
    assert np.array_equal(Z, Z_ref)


def test_update_Z_from_laplacians_matches_the_basis_of_their_sum():
    rng = np.random.default_rng(17)
    X_list, state = random_state(rng, 20, 3)
    L_list = random_laplacians(rng, 20, 3)
    basis = _z_basis_from_laplacians(np.vstack(X_list), L_list, 0.8)
    printed = replace(state, E=-state.E, Y2=np.zeros_like(state.Y2))
    for step, at in ((z_step, state), (as_printed_z_step, printed)):
        expected = update_Z(at, basis, np.empty((20, 20)))
        assert np.array_equal(step(state, X_list, L_list, 0.8), expected)

def test_fit_nuclear_norm_continuity_after_convergence():
    ds = small_dataset()
    Z, state = graph_stage_fit(ds, HyperParams())
    assert state.converged
    assert abs(nuclear_norm(Z) - nuclear_norm(state.Q)) <= 1e-3


def test_fit_objective_trace_length():
    ds = small_dataset()
    _, state = graph_stage_fit(ds, HyperParams(), trace_objective=True)
    assert len(state.objective_history) == state.iteration
    assert all(np.isfinite(v) for v in state.objective_history)


def test_block_updates_weakly_decrease_their_subproblems():
    rng = np.random.default_rng(16)
    X_list, state = random_state(rng, 9, 2)
    L_list = random_laplacians(rng, 9, 2)
    lam1, lam2 = 0.6, 0.4

    def e_obj(E):
        total = 0.0
        for X, r in zip(X_list, _view_rows(X_list)):
            T = X - X @ state.Z + state.Y1[r] / state.mu
            total += lam1 * l21_norm(E[r]) + state.mu / 2 * np.sum((E[r] - T) ** 2)
        return total

    assert e_obj(e_step(state, X_list, lam1)) <= e_obj(state.E) + 1e-10

    M = state.Z + state.Y2 / state.mu

    def q_obj(Q):
        return nuclear_norm(Q) + state.mu / 2 * np.sum((Q - M) ** 2)

    assert q_obj(dense_Q(state)) <= q_obj(state.Q) + 1e-10

    z_new = z_step(state, X_list, L_list, lam2)
    assert z_subproblem_objective(
        z_new, X_list, L_list, lam2, state
    ) <= z_subproblem_objective(state.Z, X_list, L_list, lam2, state) + 1e-10


# ------------------------------------------------------------ parameters


def test_hyperparams_validation():
    with pytest.raises(ValidationError):
        HyperParams(lambda1=0.0)
    with pytest.raises(ValidationError):
        HyperParams(lambda2=-1.0)
    with pytest.raises(ValidationError):
        HyperParams(variant="nope")
    with pytest.raises(ValidationError):
        HyperParams(knn=0)
    with pytest.raises(ValidationError):
        HyperParams(max_iter=0)


def test_hyperparams_effective_lambda2():
    assert HyperParams(lambda2=3.0, variant="grmsc").effective_lambda2 == 3.0
    assert HyperParams(lambda2=3.0, variant="grmsc-naive").effective_lambda2 == 3.0
    assert HyperParams(lambda2=3.0, variant="msc-naive").effective_lambda2 == 0.0
    assert HyperParams(lambda2=3.0, variant="lrr-bsv").effective_lambda2 == 0.0


def test_hyperparams_knn_resolution():
    p = HyperParams()
    assert p.resolve_knn(150, 3) == 10  # min(10, 50)
    assert p.resolve_knn(12, 4) == 3  # n // c
    assert HyperParams(knn=7).resolve_knn(150, 3) == 7
    assert HyperParams(knn=99).resolve_knn(20, 2) == 19  # clamped to n-1


def test_algorithm_defaults():
    p = HyperParams()
    assert solver_module.RHO == 1.9
    assert solver_module.MU0 == 1e-4
    assert solver_module.MU_MAX == 1e6
    assert p.eps == 1e-6
    assert p.max_iter == 300
    assert p.alpha == 0.001


def test_fit_overflowing_at_n520_is_a_numerical_error(paired):
    # views at 1e20 overflow the iterates of a fit whose products split,
    # which ends the fit with NumericalError and no warning
    ds = generate_synthetic(SyntheticSpec(n=520, clusters=3, dims=(20, 30, 40),
                                          subspace_rank=3, noise_sigma=0.05, seed=7))
    ds.views = [1e20 * X for X in ds.views]
    with blas.single_thread(), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError):
            fit(ds, HyperParams(variant="msc-naive"))
    assert paired.jobs > 0


def test_overflowing_graph_term_is_a_numerical_error(monkeypatch):
    ds = small_dataset(seed=3, n=45)
    params = HyperParams(lambda2=1e308)
    with pytest.raises(NumericalError, match=r"graph term lambda2 \* S0 overflows"):
        graph_stage_fit(ds, params)

    def fails(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    with pytest.raises(NumericalError, match=r"eigendecomposition of the graph term"):
        graph_stage_fit(ds, replace(params, lambda2=1.0))
