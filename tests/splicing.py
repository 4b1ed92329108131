"""The adaptedness splice: an ensemble whose Brownian increments after a
node are swapped among paths, for tests that anything measurable at or
before that node does not change."""

import numpy as np

from delaybsde.stochastic_engine import PathEnsemble, realize_increasing_process


def increments(ensemble: PathEnsemble) -> np.ndarray:
    """The Brownian increments W(t_{i+1}) - W(t_i), (n_paths, n_steps, d)."""
    return np.diff(ensemble.W, axis=1)


def splice_future(ensemble: PathEnsemble, step: int,
                  permutation: np.ndarray) -> PathEnsemble:
    """Swap Brownian increments strictly after t_step among paths.  The
    spliced paths are rebuilt from the permuted increments, and any
    realized A is re-derived from its spec."""
    dW = increments(ensemble)
    dW[:, step:, :] = dW[np.asarray(permutation), step:, :]
    W = np.zeros_like(ensemble.W)
    np.cumsum(dW, axis=1, out=W[:, 1:, :])
    out = PathEnsemble(grid=ensemble.grid, W=W, seed=ensemble.seed)
    if ensemble.A_spec is not None:
        out = realize_increasing_process(ensemble.A_spec, out)
    return out
