from dataclasses import replace

import numpy as np
import pytest

from mvsc import linalg
from mvsc import solver as solver_module
from mvsc.data import SyntheticSpec, generate_synthetic, normalize_views
from mvsc.errors import NumericalError, ValidationError
from mvsc.graphs import laplacian_from_weights, laplacian_quadratic
from mvsc.linalg import l21_norm, nuclear_norm, prox_l21
from mvsc.solver import (
    HyperParams,
    SolverState,
    _z_basis,
    fit,
    objective_value,
    update_E,
    update_multipliers,
    update_Q,
    update_Z,
)
from mvsc.spectral import affinity_from_representation, spectral_cluster


def random_state(rng, n, v, mu=None):
    X_list = [rng.standard_normal((4 + k, n)) for k in range(v)]
    state = SolverState(
        Z=rng.standard_normal((n, n)),
        Q=rng.standard_normal((n, n)),
        E=[0.1 * rng.standard_normal(X.shape) for X in X_list],
        Y1=[0.1 * rng.standard_normal(X.shape) for X in X_list],
        Y2=0.1 * rng.standard_normal((n, n)),
        mu=float(mu if mu is not None else rng.uniform(0.05, 2.0)),
    )
    return X_list, state


def random_laplacians(rng, n, v):
    out = []
    for _ in range(v):
        W = rng.uniform(0, 1, (n, n))
        W = (W + W.T) / 2
        np.fill_diagonal(W, 0)
        out.append(laplacian_from_weights(W))
    return out


def z_subproblem_objective(Z, X_list, L_list, lambda2, state):
    """The quantity the Z step is supposed to minimize, written directly."""
    val = lambda2 * laplacian_quadratic(L_list, Z) if L_list else 0.0
    for X, E, Y1 in zip(X_list, state.E, state.Y1):
        R = X - X @ Z - E
        val += float(np.sum(Y1 * R)) + state.mu / 2 * float(np.sum(R * R))
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
    state.Y1 = [np.zeros_like(X)]
    out = update_E(state, [X], lambda1=0.5)
    assert np.all(out[0] == 0)


def test_update_E_vanishing_shrinkage_at_large_mu():
    rng = np.random.default_rng(1)
    X_list, state = random_state(rng, 8, 2, mu=1e9)
    out = update_E(state, X_list, lambda1=0.5)
    for X, E, Y1 in zip(X_list, out, state.Y1):
        T = X - X @ state.Z + Y1 / state.mu
        assert np.max(np.abs(E - T)) <= 0.5 / state.mu + 1e-12


def test_fit_hands_residual_products_to_the_E_step(monkeypatch):
    # from iteration 2 on, the E step reuses the X_k Z products of the
    # previous residuals; they equal what it would compute, bit for bit
    ds = normalize_views(generate_synthetic(SyntheticSpec(
        n=30, clusters=2, dims=(5, 6), subspace_rank=2, noise_sigma=0.05, seed=1,
    )), "unit_column")
    seen = []
    real_update_E = solver_module.update_E

    def checking_update_E(state, X_list, lambda1, products=None):
        seen.append(products is not None)
        if products is not None:
            for X, XZ in zip(X_list, products):
                assert np.array_equal(XZ, X @ state.Z)
            assert all(np.array_equal(a, b) for a, b in zip(
                real_update_E(state, X_list, lambda1, products=products),
                real_update_E(state, X_list, lambda1),
            ))
        return real_update_E(state, X_list, lambda1, products=products)

    monkeypatch.setattr(solver_module, "update_E", checking_update_E)
    _, state = fit(ds, HyperParams(max_iter=20))
    assert seen == [False] + [True] * (state.iteration - 1)


def test_update_E_is_the_l21_prox():
    rng = np.random.default_rng(2)
    X_list, state = random_state(rng, 7, 2)
    lam1 = 0.8
    out = update_E(state, X_list, lam1)
    for X, E, Y1 in zip(X_list, out, state.Y1):
        T = X - X @ state.Z + Y1 / state.mu
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
    state.E = [np.zeros_like(X) for X in X_list]
    state.Y1 = [np.zeros_like(X) for X in X_list]
    state.Y2 = np.zeros((6, 6))
    state.Q = np.zeros((6, 6))
    Z = update_Z(state, X_list, [], 0.0)
    G = sum(X.T @ X for X in X_list)
    expected = np.linalg.solve(G + np.eye(6), G)
    np.testing.assert_allclose(Z, expected, atol=1e-8)


def test_update_Z_identity_view_gives_half_identity():
    rng = np.random.default_rng(7)
    n = 5
    _, state = random_state(rng, n, 1)
    X = np.eye(n)
    state.E = [np.zeros((n, n))]
    state.Y1 = [np.zeros((n, n))]
    state.Y2 = np.zeros((n, n))
    state.Q = np.zeros((n, n))
    Z = update_Z(state, [X], [np.zeros((n, n))], 1.0)
    np.testing.assert_allclose(Z, np.eye(n) / 2, atol=1e-10)


def test_update_Z_gradient_vanishes():
    rng = np.random.default_rng(8)
    for _ in range(8):
        n = int(rng.integers(5, 12))
        v = int(rng.integers(1, 4))
        X_list, state = random_state(rng, n, v)
        L_list = random_laplacians(rng, n, v)
        lam2 = float(rng.uniform(0.1, 2.0))
        Z = update_Z(state, X_list, L_list, lam2)
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
        Z = update_Z(state, X_list, L_list, 0.5, mode="as-printed")
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
    state.E = [0.1 * rng.standard_normal(X.shape) for X in X_list]
    state.Y1 = [0.1 * rng.standard_normal(X.shape) for X in X_list]
    L_list = []
    if lam2 > 0:  # Laplacians plus an antisymmetric part: not symmetric
        skew = rng.standard_normal((len(dims), n, n))
        L_list = [L + B - B.T for L, B in zip(random_laplacians(rng, n, len(dims)), skew)]
    mu = state.mu
    gram = sum(X.T @ X for X in X_list)
    A = mu * (np.eye(n) + gram)
    if L_list:
        A = A + lam2 * sum(L + L.T for L in L_list)
    xty = sum(X.T @ Y1 for X, Y1 in zip(X_list, state.Y1))
    xte = sum(X.T @ E for X, E in zip(X_list, state.E))
    rhs = {
        "derived": xty + mu * (gram - xte) + mu * state.Q - state.Y2,
        "as-printed": xty + mu * gram + mu * (xte + state.Q),
    }
    basis = _z_basis(X_list, L_list, lam2)
    for mode, B in rhs.items():
        expected = np.linalg.solve(A, B)
        scale = np.linalg.norm(expected)
        for got in (
            update_Z(state, X_list, L_list, lam2, mode=mode),
            update_Z(state, X_list, L_list, lam2, mode=mode, basis=basis),
        ):
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
    V, lam, XV, VtS = _z_basis(X_list, L_list, lam2)
    Xs = np.vstack(X_list)
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
    basis = _z_basis(X_list, L_list, lam2)
    V, S = basis[0], lam2 * sum(L + L.T for L in L_list)
    J = V.T @ (state.Y2 + S)
    expected = update_Z(state, X_list, L_list, lam2)
    got = update_Z(state, X_list, L_list, lam2, basis=basis, J=J, Q_factors=(QL, QRt))
    assert np.linalg.norm(got - expected) <= 1e-11 * np.linalg.norm(expected)
    J_next = V.T @ (state.Y2 + state.mu * (got - state.Q) + S)
    assert np.linalg.norm(J - J_next) <= 1e-11 * np.linalg.norm(J_next)


def test_update_Z_rejects_unknown_mode():
    rng = np.random.default_rng(10)
    X_list, state = random_state(rng, 4, 1)
    with pytest.raises(ValidationError):
        update_Z(state, X_list, [], 0.0, mode="bogus")


# ------------------------------------------------------- multipliers, mu


def test_update_multipliers_zero_residuals():
    rng = np.random.default_rng(11)
    X_list, state = random_state(rng, 5, 1, mu=1e-4)
    X = X_list[0]
    state.E = [X - X @ state.Z]  # residual exactly zero
    state.Q = state.Z.copy()
    Y1_old = [Y.copy() for Y in state.Y1]
    Y2_old = state.Y2.copy()
    Y1, Y2, mu = update_multipliers(state, X_list)
    np.testing.assert_allclose(Y1[0], Y1_old[0])
    np.testing.assert_allclose(Y2, Y2_old)
    assert mu == pytest.approx(1.9e-4)


def test_mu_caps_at_mu_max():
    rng = np.random.default_rng(12)
    X_list, state = random_state(rng, 4, 1, mu=solver_module.MU_MAX)
    _, _, mu = update_multipliers(state, X_list)
    assert mu == solver_module.MU_MAX


def test_update_multipliers_ascent_direction():
    rng = np.random.default_rng(13)
    X_list, state = random_state(rng, 5, 2, mu=2.0)
    Y1, Y2, _ = update_multipliers(state, X_list)
    for X, E, Ynew, Yold in zip(X_list, state.E, Y1, state.Y1):
        np.testing.assert_allclose(Ynew - Yold, 2.0 * (X - X @ state.Z - E))
    np.testing.assert_allclose(Y2 - state.Y2, 2.0 * (state.Z - state.Q))


# ------------------------------------------------------------- objective


def test_objective_trivial_cases():
    rng = np.random.default_rng(14)
    X_list, state = random_state(rng, 6, 2)
    params = HyperParams(lambda1=0.7, lambda2=0.0, variant="msc-naive")
    state.Z = np.zeros((6, 6))
    state.E = [X.copy() for X in X_list]
    expected = 0.7 * sum(l21_norm(X) for X in X_list)
    assert objective_value(state, X_list, None, params) == pytest.approx(expected)
    state.E = [np.zeros_like(X) for X in X_list]
    assert objective_value(state, X_list, None, params) == 0.0


def test_objective_cross_module_recomputation():
    from mvsc.graphs import build_graph_set

    rng = np.random.default_rng(15)
    views = [rng.standard_normal((4, 12)) for _ in range(2)]
    gs = build_graph_set(views, 3, 0.01)
    _, state = random_state(rng, 12, 2)
    state.E = [0.1 * rng.standard_normal(X.shape) for X in views]
    params = HyperParams(lambda1=0.4, lambda2=0.9)
    got = objective_value(state, views, gs, params)
    expected = (
        nuclear_norm(state.Z)
        + 0.4 * sum(l21_norm(E) for E in state.E)
        + 0.9 * laplacian_quadratic(gs.laplacians, state.Z)
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
    Z, state = fit(ds, HyperParams())
    assert state.converged
    assert state.iteration <= 200
    last_view, last_zq = state.residual_history[-1]
    assert last_view < 1e-6 and last_zq < 1e-6
    assert len(state.residual_history) == state.iteration


def test_fit_mu_monotone_and_capped():
    ds = small_dataset()
    _, state = fit(ds, HyperParams())
    mus = np.array(state.mu_history)
    assert np.all(np.diff(mus) >= 0)
    assert np.all(mus <= 1e6)


def test_fit_deterministic():
    ds = small_dataset()
    p = HyperParams()
    Z1, s1 = fit(ds, p)
    Z2, s2 = fit(ds, p)
    assert np.array_equal(Z1, Z2)
    assert s1.residual_history == s2.residual_history


def test_fit_lrr_bsv_takes_one_view():
    ds = small_dataset()
    with pytest.raises(ValidationError, match="one view"):
        fit(ds, HyperParams(variant="lrr-bsv"))


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

    def counting_sketch(M, k):
        sketches.append(k)
        return real_sketch(M, k)

    monkeypatch.setattr(linalg, "_sketch_range", counting_sketch)
    Z, state = fit(ds, HyperParams())
    assert sketches and set(sketches) == {14 + linalg.SKETCH_OVERSAMPLE}
    sketched = len(sketches)
    monkeypatch.setattr(
        solver_module, "svt_factors",
        lambda M, tau, rank_hint=None: linalg.svt_factors(M, tau),
    )
    Z_full, state_full = fit(ds, HyperParams())
    assert len(sketches) == sketched  # no hint, no sketch
    assert state.iteration == state_full.iteration
    assert np.abs(Z - Z_full).max() <= 1e-8
    for seed in range(3):
        np.testing.assert_array_equal(
            spectral_cluster(affinity_from_representation(Z), 2, seed),
            spectral_cluster(affinity_from_representation(Z_full), 2, seed),
        )


def _dense_update_Z(state, X_list, L_list, lambda2, basis=None, **carried):
    """The Z step with V^T D rebuilt from a dense D every iteration:
    D = Xs^T T + mu (Q - I) - Y2 - S."""
    V, lam = basis[:2]
    mu = state.mu
    T = np.vstack([Y1 - mu * E for Y1, E in zip(state.Y1, state.E)])
    D = np.vstack(X_list).T @ T + mu * (state.Q - np.eye(len(V))) - state.Y2
    if lambda2 > 0 and L_list:
        D -= lambda2 * sum(L + L.T for L in L_list)
    return np.eye(len(V)) + V @ ((V.T @ D) / (mu + lam)[:, None])


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
    Z, state = fit(ds, params)
    assert set(seen) == {carried}
    monkeypatch.setattr(solver_module, "update_Z", _dense_update_Z)
    Z_ref, state_ref = fit(ds, params)
    assert state.iteration == state_ref.iteration
    assert state.converged
    assert np.linalg.norm(Z - Z_ref) <= 1e-11 * np.linalg.norm(Z_ref)


def test_fit_nuclear_norm_continuity_after_convergence():
    ds = small_dataset()
    Z, state = fit(ds, HyperParams())
    assert state.converged
    assert abs(nuclear_norm(Z) - nuclear_norm(state.Q)) <= 1e-3


def test_fit_objective_trace_length():
    ds = small_dataset()
    _, state = fit(ds, HyperParams(), trace_objective=True)
    assert len(state.objective_history) == state.iteration
    assert all(np.isfinite(v) for v in state.objective_history)


def test_block_updates_weakly_decrease_their_subproblems():
    rng = np.random.default_rng(16)
    X_list, state = random_state(rng, 9, 2)
    L_list = random_laplacians(rng, 9, 2)
    lam1, lam2 = 0.6, 0.4

    def e_obj(E_list):
        total = 0.0
        for X, E, Y1 in zip(X_list, E_list, state.Y1):
            T = X - X @ state.Z + Y1 / state.mu
            total += lam1 * l21_norm(E) + state.mu / 2 * np.sum((E - T) ** 2)
        return total

    assert e_obj(update_E(state, X_list, lam1)) <= e_obj(state.E) + 1e-10

    M = state.Z + state.Y2 / state.mu

    def q_obj(Q):
        return nuclear_norm(Q) + state.mu / 2 * np.sum((Q - M) ** 2)

    assert q_obj(dense_Q(state)) <= q_obj(state.Q) + 1e-10

    z_new = update_Z(state, X_list, L_list, lam2)
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


@pytest.mark.parametrize("variant", solver_module.VARIANTS)
def test_variant_graphs_follow_the_variant_not_lambda2(variant):
    # graphs are chosen by variant alone: a graph variant gets its set
    # even at lambda2 = 0, a graph-free one never gets one
    ds = small_dataset()
    for lambda2 in (0.0, 2.0):
        graphs = solver_module.variant_graphs(
            ds, HyperParams(lambda2=lambda2, variant=variant)
        )
        if variant in ("msc-naive", "lrr-bsv"):
            assert graphs is None
        else:
            assert graphs.mode == solver_module.GRAPH_MODES[variant]
            assert len(graphs.laplacians) == ds.n_views


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
