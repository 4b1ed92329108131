"""Memory layouts of path stacks (n_paths, n_nodes, ...), for tests that a
result does not depend on the layout of its inputs, and the one spy on the
package's node-major copies."""

from dataclasses import replace

import numpy as np

from delaybsde import path_calculus, stochastic_engine
from delaybsde.path_calculus import node_major_zeros, stored_rows
from delaybsde.stochastic_engine import (IncreasingProcessSpec, PathEnsemble,
                                         realize_increasing_process)

# a deterministic A (one stored row) and the two random kinds (a full stack)
LAYOUT_SPECS = [
    IncreasingProcessSpec("deterministic", {"shape": "identity"}),
    IncreasingProcessSpec("running_max", {}),
    IncreasingProcessSpec("time_integral", {"functional": "inv_quadratic"}),
]


def node_major(X):
    """X with the same shape and values, laid out node-major: each X[:, i]
    one contiguous block."""
    return np.ascontiguousarray(np.swapaxes(X, 0, 1)).swapaxes(0, 1)


def is_node_major(X):
    return all(X[:, i].flags.c_contiguous for i in range(X.shape[1]))


def plain_node_major(X):
    """The stored rows of X in a node_major_zeros array, in one assignment."""
    X = stored_rows(X)
    out = node_major_zeros(X.shape)
    out[...] = X
    return out


def spy_on_node_major(monkeypatch):
    """Shapes of the stacks every path_calculus.node_major call copies from
    here on, wherever the package calls it."""
    shapes = []
    node_major_copy = path_calculus.node_major

    def spy(X):
        shapes.append(X.shape)
        return node_major_copy(X)

    for module in (path_calculus, stochastic_engine):
        monkeypatch.setattr(module, "node_major", spy)
    return shapes


def relaid(ensemble):
    """The ensemble's values reached by other routes, each a C-order stack
    that PathEnsemble copies node-major: an ensemble built from a C-order
    copy of W (with A realized again from its spec) and, when the ensemble
    holds an A, the ensemble with a C-order copy of that A."""
    by_path = PathEnsemble(ensemble.grid, np.ascontiguousarray(ensemble.W), ensemble.seed)
    if ensemble.A_spec is None:
        return [by_path]
    return [realize_increasing_process(ensemble.A_spec, by_path),
            replace(ensemble, A=np.ascontiguousarray(ensemble.A))]
