"""Deterministic calculus on grid-sampled paths.

The one number and integer rules (is_number, is_integer), time grids, the
total variation of path stacks, running Lebesgue-Stieltjes sums against
increasing or bounded-variation integrators, and the delay windows of path
stacks.  Everything here is deterministic: stochastic objects enter only as
arrays of per-path samples.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import GridAlignmentError

__all__ = [
    "BLOCK_BYTES",
    "is_integer",
    "is_number",
    "TimeGrid",
    "delay_fits_horizon",
    "total_variation",
    "cumulative_stieltjes",
    "stored_rows",
    "node_major_zeros",
    "node_major",
    "delay_windows",
    "delay_window",
]


# Bytes a blockwise pass over path stacks holds at a time, about 1 MiB, so
# that its block stays in cache: stochastic_engine.simulate_brownian holds
# that many bytes of normals in two half-blocks of paths, one drawn while the
# other is summed into W, and the Helly-Bray check
# (stability_lab) holds that many bytes of running integrals, limit and
# members together, per chunk of nodes.
BLOCK_BYTES = 1 << 20
# Paths per tile of a node-major copy, so that a tile's strided reads stay in cache.
_TILE = 512


def is_number(value) -> bool:
    """Whether value is a finite real number, not a bool: the one number
    rule, so a NaN or an infinity (JSON's NaN and Infinity) is none."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value)))


def is_integer(value, low=None) -> bool:
    """Whether value is an integer, not a bool, and at least low when given."""
    return (is_number(value) and isinstance(value, numbers.Integral)
            and (low is None or value >= low))


def delay_fits_horizon(delta: float, T: float) -> bool:
    """Whether the delay span lies in (0, T].  A delta of n steps computed as
    T * n / n may exceed T by rounding, so T * (1 + 1e-12) still counts."""
    return 0 < delta <= T * (1 + 1e-12)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time nodes t_0 = 0 < t_1 < ... < t_M = T.

    ``delta`` is the delay span.  When set, the grid must be uniform and delta
    must equal an integer number of steps, so that t - delta lands on a node
    whenever t does.  ``delta_index_offset`` is that step count.
    """

    nodes: np.ndarray
    delta: float | None = None
    delta_index_offset: int = field(init=False, default=0)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise GridAlignmentError("grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise GridAlignmentError("grid must start at t = 0")
        steps = np.diff(nodes)
        if not (np.all(np.isfinite(nodes)) and np.all(steps > 0)):
            raise GridAlignmentError("grid nodes must be finite and strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        nodes.flags.writeable = False
        if self.delta is not None:
            if not delay_fits_horizon(self.delta, self.T):
                raise GridAlignmentError(
                    f"delay delta={self.delta} must lie in (0, T={self.T}]")
            if not self.is_uniform:
                raise GridAlignmentError(
                    "delayed lookups require a uniform grid")
            k = self.delta / steps[0]
            if abs(k - round(k)) > 1e-9 or round(k) < 1:
                raise GridAlignmentError(
                    f"delta={self.delta} is not an integer number of grid "
                    f"steps (delta/step = {k:.12g}); choose n_steps so that "
                    "n_steps * delta / T is an integer")
            object.__setattr__(self, "delta_index_offset", int(round(k)))

    @classmethod
    def uniform(cls, T: float, n_steps: int, delta: float | None = None) -> "TimeGrid":
        """n_steps equal steps on [0, T]; an n_steps that is not an integer
        >= 1 (is_integer: 20.5 and True are none) raises ValueError."""
        if not is_integer(n_steps, 1):
            raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
        return cls(np.linspace(0.0, float(T), n_steps + 1), delta)

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1

    @property
    def is_uniform(self) -> bool:
        steps = np.diff(self.nodes)
        return bool(np.max(np.abs(steps - steps.mean())) <= 1e-12 * max(steps.mean(), 1.0))

    def steps(self) -> np.ndarray:
        return np.diff(self.nodes)


def total_variation(rows: np.ndarray) -> np.ndarray:
    """Grid variation sum_i |eta(t_{i+1}) - eta(t_i)| of each stored row of a
    stack of scalar rows, node axis last; a broadcast stack is differenced
    once, on its stored rows.  On a fixed grid this is the supremum over
    partitions (refining never decreases it, and the grid is the finest
    partition available)."""
    rows = stored_rows(np.asarray(rows, dtype=float))
    return np.sum(np.abs(np.diff(rows, axis=-1)), axis=-1)


def _eval_points(x_values: np.ndarray, policy: str) -> np.ndarray:
    """Integrand values at each step's evaluation point, node axis last."""
    if policy == "left":
        return x_values[..., :-1]
    if policy == "jump":
        return x_values[..., 1:]
    raise ValueError(f"unknown evaluation policy {policy!r}")


def cumulative_stieltjes(x_values: np.ndarray, eta_values: np.ndarray,
                         policy: str = "left") -> np.ndarray:
    """Running grid sums t |-> sum_{t_i < t} x(tau_i) (eta(t_{i+1}) - eta(t_i)).

    tau_i is t_i for policy "left" and t_{i+1} for "jump".  Works on stacked
    arrays with the node axis last (shape (..., M+1)) that broadcast against
    each other; a broadcast integrator is differenced once, on its stored rows.
    """
    x_values = np.asarray(x_values, dtype=float)
    eta_values = np.asarray(eta_values, dtype=float)
    out = np.empty(np.broadcast_shapes(x_values.shape, eta_values.shape))
    inc = np.multiply(_eval_points(x_values, policy),
                      np.diff(stored_rows(eta_values), axis=-1), out=out[..., 1:])
    np.cumsum(inc, axis=-1, out=inc)
    out[..., 0] = 0.0
    return out


def stored_rows(a: np.ndarray) -> np.ndarray:
    """View of a with every leading axis of stride 0 cut to length 1: the
    rows a broadcast array stores.  The node (last) axis stays whole."""
    return a[tuple(slice(0, 1) if s == 0 else slice(None) for s in a.strides[:-1])]


def node_major_zeros(shape) -> np.ndarray:
    """Zeros of the path-major shape (n_paths, n_nodes, ...), laid out
    node-major in memory, so that X[:, i] is one contiguous block."""
    return np.zeros((shape[1], shape[0]) + tuple(shape[2:])).swapaxes(0, 1)


def node_major(X: np.ndarray) -> np.ndarray:
    """The stored rows of a path stack (n_paths, n_nodes, ...) copied in
    tiles of _TILE paths into a fresh node_major_zeros array, made read-only."""
    X = stored_rows(X)
    out = node_major_zeros(X.shape)
    for p in range(0, X.shape[0], _TILE):
        out[p:p + _TILE] = X[p:p + _TILE]
    out.flags.writeable = False
    return out


def delay_windows(X: np.ndarray, k: int, kind: str = "state"):
    """Reader of the delay windows of a path stack: i -> X[:, i-k .. i] along
    axis 1, for every node i of X.

    Nodes before time zero follow the prolongation convention: "state"
    windows repeat X[:, 0]; "control" windows vanish there.  From node k on
    a window is a view of X.  The first window before node k builds one
    node_major_zeros head holding nodes -k .. k-1 (up to X's last node), and
    every window before node k is a view of that head, which copies X as it
    was then.  Every window is read-only, so a generator cannot write into
    the path.  A node outside [0, n_nodes) raises IndexError.
    """
    if kind not in ("state", "control"):
        raise ValueError(f"unknown segment kind {kind!r}")
    if k < 0:
        raise ValueError(f"delay offset k={k} must be non-negative")
    n_nodes = X.shape[1]
    head = None

    def window(i: int) -> np.ndarray:
        nonlocal head
        if not 0 <= i < n_nodes:
            raise IndexError(f"node {i} is outside [0, {n_nodes})")
        if i >= k:
            view = X[:, i - k:i + 1]
        else:
            if head is None:
                stored = min(k, n_nodes)
                head = node_major_zeros((X.shape[0], k + stored) + X.shape[2:])
                if kind == "state":
                    head[:, :k] = X[:, :1]
                head[:, k:] = X[:, :stored]
            view = head[:, i:i + k + 1]
        view.flags.writeable = False
        return view

    return window


def delay_window(X: np.ndarray, i: int, k: int, kind: str = "state") -> np.ndarray:
    """Delay window of a path stack at node i, as ``delay_windows`` reads it."""
    return delay_windows(X, k, kind)(i)

