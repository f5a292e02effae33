"""Reference implementations that only the tests use."""

from dataclasses import replace

import numpy as np

from mvsc import pipeline, solver
from mvsc.linalg import prox_l21


def graph_stage_fit(dataset, params, **kwargs):
    """solver.fit of params on dataset, given the S0 that the pipeline's
    graph stage hands that fit (None where it reads no graphs)."""
    [S0] = pipeline._graph_terms(dataset, [params])
    return solver.fit(dataset, params, laplacian_sum=S0, **kwargs)


def laplacian_quadratic(L_list, Z):
    """Sum over views of trace(Z^T L Z).

    For each Laplacian this equals the weighted sum of squared row
    differences of Z, 0.5 * sum_ij W_ij ||z_i - z_j||^2, which is how the
    consistent and complementary regularizers enter the solver.
    """
    Z = np.asarray(Z, dtype=float)
    return float(sum(np.sum(Z * (L @ Z)) for L in L_list))


def affinity_from_representation(Z):
    """(|Z| + |Z^T|) / 2 as spectral.affinity_from_representation first
    wrote it, with four n x n arrays."""
    return (np.abs(Z) + np.abs(Z.T)) / 2.0


def normalized_laplacian(A):
    """I - D^(-1/2) A D^(-1/2), symmetrized, as spectral.normalized_laplacian
    first wrote it, with six n x n arrays."""
    n = A.shape[0]
    deg = A.sum(axis=1)
    safe = np.where(deg > 0, deg, 1.0)
    inv_sqrt = 1.0 / np.sqrt(safe)
    L = np.eye(n) - inv_sqrt[:, None] * A * inv_sqrt[None, :]
    return (L + L.T) / 2.0


def eigh_embedding(A, n_clusters):
    """spectral.spectral_embedding as it was before its Krylov solver:
    eigh's n_clusters bottom eigenvectors of the normalized Laplacian,
    rows normalized."""
    vecs = np.linalg.eigh(normalized_laplacian(A))[1][:, :n_clusters]
    norms = np.linalg.norm(vecs, axis=1)
    return vecs / np.where(norms > 0, norms, 1.0)[:, None]


def congruence(S, G, Vt):
    """R S R for R = I + G Vt as solver._congruence first wrote it, with
    numpy's RSR += RSR.T copying RSR^T."""
    SVr = S @ Vt.T
    H = SVr + 0.5 * (G @ (Vt @ SVr))
    RSR = G @ H.T
    RSR += RSR.T
    RSR += S
    return RSR


def z_step(state, X_list, L_list, lambda2):
    """solver.update_Z as it once built its own basis from the per-view
    Laplacians, S0 = sum_k (L_k + L_k^T), on every call."""
    S0 = sum(L + L.T for L in L_list) if L_list else None
    basis = solver._z_basis(np.vstack(X_list), S0, lambda2)
    return solver.update_Z(state, basis, np.empty_like(state.Z))


def as_printed_z_step(state, X_list, L_list, lambda2):
    """One step of the closed form as the write-up prints it, with the
    error term's sign flipped and -Y2 missing: the derived step at -E and
    Y2 = 0. It does not satisfy the stationarity condition, and fits
    never take it."""
    state = replace(state, E=-state.E, Y2=np.zeros_like(state.Y2))
    return z_step(state, X_list, L_list, lambda2)


def update_E(state, X_list, lambda1):
    """solver.update_E forming each X_k Z itself, one view at a time:
    the l2,1 prox at X_k - X_k Z + Y1_k / mu, stacked."""
    rows = solver._view_rows(X_list)
    return np.vstack([
        prox_l21(X - X @ state.Z + state.Y1[r] / state.mu, lambda1 / state.mu)
        for X, r in zip(X_list, rows)
    ])


def update_multipliers(state, X_list):
    """solver.update_multipliers as an allocating step that forms the
    residuals itself: Y1 + mu R with R stacking X_k - X_k Z - E_k,
    Y2 + mu (Z - Q), and the next mu."""
    R = np.vstack([X - X @ state.Z for X in X_list]) - state.E
    return (
        state.Y1 + state.mu * R,
        state.Y2 + state.mu * (state.Z - state.Q),
        min(solver.RHO * state.mu, solver.MU_MAX),
    )
