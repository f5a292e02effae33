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
