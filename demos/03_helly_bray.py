"""Pathwise integral convergence: when it holds and when it breaks.

Part 1, deterministic: eta_n(t) = t + sin(2 pi n t)/(4 pi n) converges to t
uniformly with uniformly bounded variation, so int x deta_n converges for
any continuous x. The Helly-Bray check on one-path stacks reads the distance
sup_t |int_0^t x deta_n - int_0^t x deta| as its sup_distance; it decays
like 1/n.

Part 2, stochastic: the coupled pairs X_n = W + p_n, H_n = t + p_n carry the
same conclusion in distribution; truncation-ladder and Kolmogorov-Smirnov
distances vanish together.

Part 3, the counterexample: H_n = sin(2 pi n^2 t)/(4 pi n) still vanishes
uniformly but its variation grows like n, and X_n rides the same resonance.
The uniform-BV hypothesis fails and the integrals do not converge; the
checker reports INCONCLUSIVE (tightness violated) rather than pretending.
"""

import numpy as np

from delaybsde import (TimeGrid, helly_bray_stochastic_check,
                       oscillatory_integration_family,
                       resonant_integration_family, simulate_brownian)

n_values = [2, 4, 8, 16, 32]

grid = TimeGrid.uniform(1.0, 2048)
t = grid.nodes
eta_seq = [t + np.sin(2 * np.pi * n * t) / (4 * np.pi * n) for n in n_values]
deterministic = helly_bray_stochastic_check([t[None]] * len(n_values),
                                            [eta[None] for eta in eta_seq],
                                            t[None], t[None], grid)
dist = [row.sup_distance for row in deterministic.rows]

print("deterministic family: sup_t |int_0^t x deta_n - int_0^t x deta|")
for n, d in zip(n_values, dist):
    print(f"  n={n:>3}  distance {d:.3e}   n*distance {n * d:.4f}")
print("  (n * distance is flat: the decay is exactly 1/n)\n")

ensemble = simulate_brownian(TimeGrid.uniform(1.0, 512), 4000, seed=9)
X, H, X_lim, H_lim = oscillatory_integration_family(ensemble, n_values)
print("stochastic family (coupled X_n, H_n):")
print(helly_bray_stochastic_check(X, H, X_lim, H_lim, ensemble.grid,
                                  labels=[str(n) for n in n_values]))

res = simulate_brownian(TimeGrid.uniform(1.0, 2048), 1000, seed=9)
X, H, X_lim, H_lim = resonant_integration_family(res, [2, 4, 8])
print("\nresonant counterexample (variation grows, integrals do not settle):")
print(helly_bray_stochastic_check(X, H, X_lim, H_lim, res.grid,
                                  bv_levels=(0.5, 1.0, 2.0),
                                  labels=["2", "4", "8"]))
