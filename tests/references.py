"""Reference implementations that only the tests use."""

import numpy as np


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


def congruence(S, G, Vt):
    """R S R for R = I + G Vt as solver._congruence first wrote it, with
    numpy's RSR += RSR.T copying RSR^T."""
    SVr = S @ Vt.T
    H = SVr + 0.5 * (G @ (Vt @ SVr))
    RSR = G @ H.T
    RSR += RSR.T
    RSR += S
    return RSR
