"""Reference computations shared by the test modules; the library calls none of them."""

import numpy as np

from netcoh.graph import LaplacianMatrix
from netcoh.netfreq import NetworkModel, eval_T
from netcoh.ratfun import RationalFunction


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def homogeneous_decomposition_check(g: RationalFunction, f: RationalFunction,
                                    L: LaplacianMatrix, s: complex) -> float:
    """Deviation of T(s) from the homogeneous two-term decomposition
    (1/n) g 11^T + V_perp diag{1/(g^{-1} + f lambda_i)} V_perp^T.

    V_perp = Q W spans 1-perp for any graph: Q holds the first n - 1 left
    singular vectors of I - 11^T/n and Q^T L Q = W diag{lambda_i} W^T."""
    n = L.n
    T = eval_T(NetworkModel([g] * n, f, L), s)
    Q = np.linalg.svd(np.eye(n) - 1.0 / n)[0][:, :n - 1]
    lam, W = np.linalg.eigh(Q.T @ L.entries @ Q)
    Vp = Q @ W
    modes = 1.0 / (g.eval_inverse(s) + f(s) * lam)
    rhs = (g(s) / n) * np.ones((n, n)) + (Vp * modes) @ Vp.T
    return float(np.max(np.abs(T - rhs)))
