"""Deterministic calculus on grid-sampled paths.

Grid functions, total variation, Lebesgue-Stieltjes sums against increasing or
bounded-variation integrators, delayed path segments, and the step-function
approximation used by the Helly-Bray convergence check.  Everything here is
deterministic: stochastic objects enter only as arrays of per-path samples.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import GridAlignmentError

__all__ = [
    "BLOCK_BYTES",
    "TimeGrid",
    "delay_fits_horizon",
    "GridFunction",
    "BVFunction",
    "DelayedSegment",
    "total_variation",
    "bv_norm",
    "stieltjes_integral",
    "cumulative_stieltjes",
    "stored_rows",
    "node_major_zeros",
    "delay_windows",
    "delay_window",
    "delayed_segment",
    "step_approximation",
    "helly_bray_distance",
    "write_csv",
    "read_csv",
]


# Bytes a blockwise pass over path stacks holds at a time, about 1 MiB, so
# that its block stays in cache: model.check_integrability reads that many
# bytes of paths per block, and the Helly-Bray check (stability_lab) holds
# that many bytes of running integrals, limit and members together, per
# chunk of nodes.
BLOCK_BYTES = 1 << 20


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
        if np.any(steps <= 0):
            raise GridAlignmentError("grid nodes must be strictly increasing")
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
        return cls(np.linspace(0.0, float(T), int(n_steps) + 1), delta)

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

    def index_of(self, t: float) -> int:
        """Index of the node equal to t, within a small absolute tolerance."""
        atol = min(1e-9 * max(1.0, self.T), 0.25 * float(np.min(np.diff(self.nodes))))
        i = int(np.searchsorted(self.nodes, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j <= self.n_steps and abs(self.nodes[j] - t) <= atol:
                return j
        raise GridAlignmentError(f"t={t} is not a node of this grid")


def _check_values(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape[0] != grid.nodes.size or values.ndim not in (1, 2):
        raise GridAlignmentError(
            f"values of shape {values.shape} do not match a grid with "
            f"{grid.nodes.size} nodes")
    return values


@dataclass(frozen=True)
class GridFunction:
    """Values of a (possibly vector-valued) function at the grid nodes."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.grid, self.values))


@dataclass(frozen=True)
class BVFunction:
    """Grid function intended as an integrator.

    mode "linear" means the sampled function is interpreted as continuous
    (piecewise linear between nodes); mode "step" means piecewise constant and
    right-continuous, with its jump at each node.  The distinction only
    affects the default evaluation point of Stieltjes sums.
    """

    grid: TimeGrid
    values: np.ndarray
    mode: str = "linear"

    def __post_init__(self):
        if self.mode not in ("linear", "step"):
            raise ValueError(f"unknown BV mode {self.mode!r}")
        object.__setattr__(self, "values", _check_values(self.grid, self.values))


def _variation(values: np.ndarray, i0: int, i1: int) -> float:
    if i1 <= i0:
        return 0.0
    inc = np.diff(values[i0:i1 + 1], axis=0)
    if inc.ndim == 2:
        sizes = np.sqrt(np.einsum("ij,ij->i", inc, inc, optimize=False))
    else:
        sizes = np.abs(inc)
    return float(np.sum(sizes))


def total_variation(eta: BVFunction | GridFunction, s: float | None = None,
                    t: float | None = None) -> float:
    """Partition sum sup_pi sum |eta(t_i) - eta(t_{i-1})| over nodes in [s, t].

    On a fixed grid the supremum is the sum over consecutive nodes (refining
    never decreases it, and the grid is the finest partition available).
    Vector increments are measured in the Euclidean norm.
    """
    grid = eta.grid
    i0 = 0 if s is None else grid.index_of(s)
    i1 = grid.n_steps if t is None else grid.index_of(t)
    if i1 < i0:
        raise ValueError("need s <= t")
    return _variation(eta.values, i0, i1)


def bv_norm(eta: BVFunction | GridFunction) -> float:
    """|eta(0)| + total variation over the whole grid."""
    v0 = eta.values[0]
    head = float(np.sqrt(np.sum(v0 * v0))) if np.ndim(v0) else abs(float(v0))
    return head + total_variation(eta)


def _eval_points(x_values: np.ndarray, policy: str) -> np.ndarray:
    """Integrand values at each step's evaluation point, node axis last."""
    if policy == "left":
        return x_values[..., :-1]
    if policy == "jump":
        return x_values[..., 1:]
    if policy == "midpoint":
        return 0.5 * (x_values[..., :-1] + x_values[..., 1:])
    raise ValueError(f"unknown evaluation policy {policy!r}")


def _resolve_policy(eta, eval_point: str | None = None) -> str:
    if eval_point is not None:
        return eval_point
    if isinstance(eta, BVFunction) and eta.mode == "step":
        # mass of (t_i, t_{i+1}] under a right-continuous step sits at t_{i+1}
        return "jump"
    return "left"


def stieltjes_integral(x: GridFunction, eta: BVFunction | GridFunction, *,
                       eval_point: str | None = None) -> float:
    """Grid Stieltjes sum of x against deta over the whole grid [0, T];
    cumulative_stieltjes gives the running values.

    Vector-valued pairs are contracted componentwise, sum_i int x_i deta_i.
    The evaluation point defaults to the left node (the adapted choice);
    step-mode integrators default to the jump node instead, which makes the
    sum exact for piecewise-constant integrators.
    """
    if x.grid.nodes.shape != eta.grid.nodes.shape or \
            np.any(x.grid.nodes != eta.grid.nodes):
        raise GridAlignmentError("x and eta must share one grid")
    if x.values.ndim != eta.values.ndim or x.values.shape != eta.values.shape:
        raise ValueError("x and eta must have matching shapes")
    xs = _eval_points(x.values.T, _resolve_policy(eta, eval_point))
    return float(np.sum(xs * np.diff(eta.values.T, axis=-1)))


def cumulative_stieltjes(x_values: np.ndarray, eta_values: np.ndarray,
                         policy: str = "left") -> np.ndarray:
    """Running grid sums t |-> sum_{t_i < t} x(tau_i) (eta(t_{i+1}) - eta(t_i)).

    Works on stacked arrays with the node axis last (shape (..., M+1)) that
    broadcast against each other; a broadcast integrator is differenced
    once, on its stored rows.
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


def delayed_segment(x: GridFunction, t: float, kind: str = "state") -> "DelayedSegment":
    """Path segment theta |-> x(t + theta) for theta in [-delta, 0], with
    values before time zero prolonged as in ``delay_windows``."""
    grid = x.grid
    if grid.delta is None:
        raise GridAlignmentError("grid carries no delay span")
    k = grid.delta_index_offset
    values = delay_window(x.values[None], grid.index_of(t), k, kind)[0]
    return DelayedSegment(theta=np.linspace(-grid.delta, 0.0, k + 1),
                          values=values, kind=kind)


@dataclass(frozen=True)
class DelayedSegment:
    """Sampled delayed path: values[j] = x(t + theta[j]), theta in [-delta, 0]."""

    theta: np.ndarray
    values: np.ndarray
    kind: str = "state"


def step_approximation(x: GridFunction, partition: np.ndarray) -> GridFunction:
    """Right-endpoint step approximant of x along a coarser partition.

    x^N(0) = x(0) and x^N(s) = x(p_j) for s in (p_{j-1}, p_j].  The partition
    must be nested in x's grid (first node 0, last node T), and the result is
    sampled back on the original grid.
    """
    grid = x.grid
    partition = np.asarray(partition, dtype=float)
    if partition.ndim != 1 or partition.size < 2:
        raise GridAlignmentError("partition needs at least two nodes")
    p_idx = np.array([grid.index_of(p) for p in partition])
    if p_idx[0] != 0 or p_idx[-1] != grid.n_steps or np.any(np.diff(p_idx) <= 0):
        raise GridAlignmentError("partition must be nested, increasing, 0 to T")
    # s = 0 maps to the first partition node (= 0); s in (p_{j-1}, p_j] to p_j
    owner = np.searchsorted(grid.nodes[p_idx], grid.nodes, side="left")
    owner[0] = 0
    values = x.values[p_idx[owner]]
    return GridFunction(grid=grid, values=values)


def helly_bray_distance(x_seq: list[GridFunction], eta_seq: list[BVFunction],
                        x: GridFunction, eta: BVFunction) -> np.ndarray:
    """sup_t |int_0^t x_n deta_n - int_0^t x deta| for each member n, each
    integral at its integrator's default evaluation point."""
    if len(x_seq) != len(eta_seq):
        raise ValueError("x_seq and eta_seq must pair up")

    def running(xf, ef):
        # vector values: one row of running sums per component, then added up
        run = cumulative_stieltjes(xf.values.T, ef.values.T, policy=_resolve_policy(ef))
        return run.sum(axis=0) if xf.values.ndim == 2 else run

    base = running(x, eta)
    out = np.empty(len(x_seq))
    for j, (xn, en) in enumerate(zip(x_seq, eta_seq)):
        if np.any(xn.grid.nodes != x.grid.nodes):
            raise GridAlignmentError("all members must share the limit grid")
        out[j] = float(np.max(np.abs(running(xn, en) - base)))
    return out


def write_csv(fn: GridFunction, path: str) -> None:
    """Serialize to CSV with header t,v_1,...,v_d at 17 significant digits."""
    values = fn.values if fn.values.ndim == 2 else fn.values[:, None]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"v_{j + 1}" for j in range(values.shape[1])])
        for t, row in zip(fn.grid.nodes, values):
            writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])


def read_csv(path: str, delta: float | None = None) -> GridFunction:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][0] != "t":
        raise ValueError(f"{path} is not a grid-function CSV")
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    grid = TimeGrid(data[:, 0], delta)
    values = data[:, 1:]
    if values.shape[1] == 1:
        values = values[:, 0]
    return GridFunction(grid=grid, values=values)
