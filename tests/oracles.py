"""Oracles on the Y and Z paths of a solve, written independently of the solver.

delayed_linear_coefficients: for F = kappa y(t - delta) (``delayed_linear``),
xi = W(T), A = t and no G, the explicit scheme's fixed point is linear in the
Brownian path, Y_i = sum_{j <= i} C[i, j] W_j.  With E_i W_{i+1} = W_i the
conditional expectation at node i folds the W_{i+1} coefficient onto W_i,
and the "state" prolongation reads Y_0 before time zero, so

    C[N] = e_N,    C[i] = fold_i(C[i+1]) + dt kappa C[max(i - k, 0)].

The delayed term makes this a fixed point in C, found by Picard sweeps.
Z_i, E_i[Y_{i+1} dW_i] / dt, is then the W_{i+1} coefficient of Y_{i+1},
C[i+1, i+1], the same on every path.
"""

import numpy as np


def delayed_linear_coefficients(kappa: float, n_steps: int, k: int, dt: float) -> np.ndarray:
    """C of shape (n_steps + 1, n_steps + 1), row i the coefficients of Y_i
    on W_0 .. W_N, swept until no coefficient moves by more than 1e-15."""
    N = n_steps
    C = np.zeros((N + 1, N + 1))
    for _ in range(200):
        new = np.zeros_like(C)
        new[N, N] = 1.0
        for i in range(N - 1, -1, -1):
            new[i, :i + 1] = new[i + 1, :i + 1]
            new[i, i] += new[i + 1, i + 1]
            new[i] += dt * kappa * C[max(i - k, 0)]
        moved = np.max(np.abs(new - C))
        C = new
        if moved <= 1e-15:
            return C
    raise RuntimeError("coefficient sweeps did not settle")
