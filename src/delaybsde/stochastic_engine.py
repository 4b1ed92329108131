"""Path simulation and regression-based conditional expectations.

Brownian ensembles use a counter-based Philox stream filled in path-major
order, so path p's draw never depends on how many paths follow it.  Increasing
integrator processes A are realized as functionals of the same Brownian data
(or deterministically) and are checked node-by-node for monotonicity.
All cross products in the least-squares step go through numpy-core reductions
in a fixed order, which keeps results independent of BLAS thread counts.
A RegressionPlan holds the part of the regressions that depends on the
ensemble alone: it builds each node's ridged Gram matrix once and reuses it
for every later fit at that node, whatever the targets.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridAlignmentError, MonotonicityError, SingularSystemError
from .path_calculus import TimeGrid

__all__ = [
    "PathEnsemble",
    "IncreasingProcessSpec",
    "PROCESS_KINDS",
    "RegressionBasis",
    "RegressionPlan",
    "simulate_brownian",
    "realize_increasing_process",
    "omega_delta",
    "conditional_expectation",
    "fit_least_squares",
    "splice_future",
    "save_ensemble",
    "load_ensemble",
    "register_deterministic_shape",
    "register_positive_functional",
]


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths on a shared grid.

    W has shape (n_paths, n_nodes, d); A, when realized, (n_paths, n_nodes).
    Arrays are frozen after construction.
    """

    grid: TimeGrid
    W: np.ndarray
    seed: int
    A: np.ndarray | None = None
    A_spec: "IncreasingProcessSpec | None" = None

    def __post_init__(self):
        W = np.ascontiguousarray(self.W, dtype=float)
        if W.ndim != 3 or W.shape[1] != self.grid.nodes.size:
            raise ValueError(f"W of shape {self.W.shape} does not fit the grid")
        object.__setattr__(self, "W", W)
        W.flags.writeable = False
        if self.A is not None:
            A = np.ascontiguousarray(self.A, dtype=float)
            if A.shape != W.shape[:2]:
                raise ValueError("A must be (n_paths, n_nodes)")
            object.__setattr__(self, "A", A)
            A.flags.writeable = False

    @property
    def n_paths(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[2]

    def increments(self) -> np.ndarray:
        return np.diff(self.W, axis=1)


def simulate_brownian(grid: TimeGrid, n_paths: int, d: int = 1,
                      seed: int = 0) -> PathEnsemble:
    """d-dimensional Brownian paths started at 0, exact Gaussian increments."""
    if n_paths < 1 or d < 1:
        raise ValueError("need n_paths >= 1 and d >= 1")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    z = rng.standard_normal((n_paths, grid.n_steps, d))
    z *= np.sqrt(grid.steps())[None, :, None]
    W = np.zeros((n_paths, grid.nodes.size, d))
    np.cumsum(z, axis=1, out=W[:, 1:, :])
    return PathEnsemble(grid=grid, W=W, seed=int(seed))


# ----------------------------------------------------------- increasing A

_DET_SHAPES: dict[str, object] = {
    "identity": lambda t, params: t,
    "linear": lambda t, params: params.get("rate", 1.0) * t,
    "power": lambda t, params: t ** params.get("exponent", 2.0),
}

_POS_FUNCTIONALS: dict[str, object] = {
    "constant": lambda w, params: np.full(w.shape[0], params.get("value", 1.0)),
    "inv_quadratic": lambda w, params: params.get("scale", 1.0)
    / (1.0 + np.einsum("nd,nd->n", w, w, optimize=False)),
}


def register_deterministic_shape(name: str, fn) -> None:
    """Plugin hook: fn(nodes, params) -> nondecreasing values with fn(0)=0."""
    _DET_SHAPES[name] = fn


def register_positive_functional(name: str, fn) -> None:
    """Plugin hook: fn(W_t (n,d), params) -> nonnegative rates (n,)."""
    _POS_FUNCTIONALS[name] = fn


PROCESS_KINDS = ("deterministic", "running_max", "time_integral", "oscillatory")


@dataclass(frozen=True)
class IncreasingProcessSpec:
    """Recipe for the integrator process A.

    Kinds: "deterministic" (a named or callable shape of t),
    "running_max" (running maximum of one Brownian component),
    "time_integral" (integral of a positive functional of W, left sums),
    "oscillatory" (a base spec plus T*sin(2 pi n t / T)/(4 pi n)).
    Every kind is a functional of the driving W or of time alone, which is
    what keeps A adapted; arbitrary exogenous processes are not accepted.
    """

    kind: str
    params: dict

    def to_dict(self) -> dict:
        params = dict(self.params)
        if self.kind == "oscillatory" and isinstance(params.get("base"), IncreasingProcessSpec):
            params["base"] = params["base"].to_dict()
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_dict(cls, data: dict) -> "IncreasingProcessSpec":
        params = dict(data.get("params", {}))
        if data["kind"] == "oscillatory" and isinstance(params.get("base"), dict):
            params["base"] = cls.from_dict(params["base"])
        return cls(kind=data["kind"], params=params)


def _realize_A(spec: IncreasingProcessSpec, ensemble: PathEnsemble) -> np.ndarray:
    grid, W = ensemble.grid, ensemble.W
    nodes = grid.nodes
    if spec.kind == "deterministic":
        shape = spec.params.get("shape", "identity")
        fn = _DET_SHAPES[shape] if isinstance(shape, str) else shape
        vals = np.asarray(fn(nodes, spec.params), dtype=float)
        if vals.shape != nodes.shape:
            raise ValueError("deterministic shape must return one value per node")
        return np.broadcast_to(vals, (ensemble.n_paths, nodes.size)).copy()
    if spec.kind == "running_max":
        comp = int(spec.params.get("component", 0))
        return np.maximum.accumulate(W[:, :, comp], axis=1)
    if spec.kind == "time_integral":
        g = spec.params.get("functional", "constant")
        fn = _POS_FUNCTIONALS[g] if isinstance(g, str) else g
        rates = np.empty((ensemble.n_paths, grid.n_steps))
        for i in range(grid.n_steps):
            r = np.asarray(fn(W[:, i, :], spec.params), dtype=float)
            if np.any(r < 0):
                raise MonotonicityError("time_integral functional went negative")
            rates[:, i] = r
        A = np.zeros((ensemble.n_paths, nodes.size))
        np.cumsum(rates * grid.steps()[None, :], axis=1, out=A[:, 1:])
        return A
    if spec.kind == "oscillatory":
        base = spec.params["base"]
        if not isinstance(base, IncreasingProcessSpec):
            base = IncreasingProcessSpec.from_dict(base)
        n = int(spec.params["n"])
        T = grid.T
        bump = T * np.sin(2 * np.pi * n * nodes / T) / (4 * np.pi * n)
        return _realize_A(base, ensemble) + bump[None, :]
    raise ValueError(f"unknown increasing-process kind {spec.kind!r}")


def realize_increasing_process(spec: IncreasingProcessSpec,
                               ensemble: PathEnsemble) -> PathEnsemble:
    """Attach a realized A to the ensemble; checks A(0)=0 and monotonicity."""
    A = _realize_A(spec, ensemble)
    if np.any(A[:, 0] != 0.0):
        raise MonotonicityError(f"A(0) != 0 for kind {spec.kind!r}")
    if np.any(np.diff(A, axis=1) < 0.0):
        raise MonotonicityError(f"kind {spec.kind!r} produced a decreasing path")
    return replace(ensemble, A=A, A_spec=spec)


def omega_delta(A: np.ndarray | PathEnsemble, delta: float,
                grid: TimeGrid | None = None):
    """Largest A-increment over any delay window: sup_t (A(t+delta) - A(t)).

    Returns one value per path, or a scalar for a single path.
    """
    if isinstance(A, PathEnsemble):
        if A.A is None:
            raise ValueError("ensemble has no realized A")
        grid, A = A.grid, A.A
    if grid is None:
        raise ValueError("need the grid that samples A")
    if not (0 < delta <= grid.T):
        raise ValueError(f"delta={delta} outside (0, T={grid.T}]")
    work = np.atleast_2d(np.asarray(A, dtype=float))
    k = TimeGrid(grid.nodes, delta).delta_index_offset
    gaps = work[:, k:] - work[:, :-k]
    out = gaps.max(axis=1)
    return float(out[0]) if np.asarray(A).ndim == 1 else out


# ----------------------------------------------------------- regression

@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial design in the Brownian state plus optional extra columns.

    Features are 1, all monomials of W(t) components up to total degree
    ``degree``, then any caller-supplied columns (delayed-segment summaries).
    """

    degree: int = 2
    ridge: float = 1e-10

    def design(self, w_t: np.ndarray, extras: list[np.ndarray] | None = None) -> np.ndarray:
        w_t = np.atleast_2d(np.asarray(w_t, dtype=float))
        n, d = w_t.shape
        cols = [np.ones(n)]
        for deg in range(1, self.degree + 1):
            for combo in itertools.combinations_with_replacement(range(d), deg):
                col = np.ones(n)
                for j in combo:
                    col = col * w_t[:, j]
                cols.append(col)
        for extra in extras or []:
            extra = np.asarray(extra, dtype=float)
            if extra.ndim == 1:
                cols.append(extra)
            else:
                cols.extend(extra[:, j] for j in range(extra.shape[1]))
        return np.stack(cols, axis=1)


_SINGULAR = ("normal equations are singular; drop collinear features or set "
             "a positive ridge")


def _normal_matrix(design: np.ndarray, ridge: float) -> np.ndarray:
    """Ridged Gram matrix of the design; with ridge = 0 a numerically
    singular one raises SingularSystemError."""
    gram = np.einsum("ni,nj->ij", design, design, optimize=False)
    if ridge:
        return gram + ridge * np.eye(gram.shape[0])
    spectrum = np.linalg.svd(gram, compute_uv=False)
    if spectrum[0] == 0.0 or spectrum[-1] <= 1e-12 * spectrum[0]:
        raise SingularSystemError(_SINGULAR)
    return gram


def _solve_normal(gram: np.ndarray, design: np.ndarray,
                  targets: np.ndarray) -> np.ndarray:
    """Coefficients from a normal matrix built by _normal_matrix."""
    t2d = targets if targets.ndim == 2 else targets[:, None]
    rhs = np.einsum("ni,nq->iq", design, t2d, optimize=False)
    try:
        theta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystemError(_SINGULAR) from None
    return theta if targets.ndim == 2 else theta[:, 0]


def fit_least_squares(design: np.ndarray, targets: np.ndarray,
                      ridge: float) -> np.ndarray:
    """Solve the (ridged) normal equations; deterministic reduction order.

    targets may have several right-hand sides as trailing columns.  With
    ridge = 0 an exactly collinear design raises SingularSystemError.
    """
    return _solve_normal(_normal_matrix(design, ridge), design, targets)


class RegressionPlan:
    """The target-independent half of the regressions on one ensemble.

    Bound to a basis, an ensemble, a ridge and an extra-column rule
    ``extra_columns(step) -> list of (n_paths,) arrays or None``.  The design
    at a node depends on the ensemble only, so the plan builds each node's
    ridged Gram matrix (and, with ridge = 0, runs its singularity check) once,
    on the first fit there, and every later fit at that node reuses it.
    Designs are not kept: ``design(step)`` rebuilds one on each call, and the
    caller hands it back to ``fit`` for every regression at that node.
    """

    def __init__(self, basis: RegressionBasis, ensemble: PathEnsemble,
                 ridge: float | None = None, extra_columns=None):
        self.basis = basis
        self.ensemble = ensemble
        self.ridge = basis.ridge if ridge is None else ridge
        self.extra_columns = extra_columns
        self._grams: dict[int, np.ndarray] = {}

    def design(self, step: int) -> np.ndarray:
        extras = None if self.extra_columns is None else self.extra_columns(step)
        return self.basis.design(self.ensemble.W[:, step, :], extras)

    def fit(self, step: int, design: np.ndarray, targets: np.ndarray):
        """(fitted, coefficients) of E[targets | F_{t_step}] on the design
        ``self.design(step)``.

        At step 0 the sigma-field is trivial and the estimate is the plain
        mean (returned as an intercept-only coefficient vector so that
        evaluation against any design stays consistent).
        """
        targets = np.asarray(targets, dtype=float)
        if targets.shape[0] != self.ensemble.n_paths:
            raise ValueError("targets must have one row per path")
        if step == 0:
            t2d = targets if targets.ndim == 2 else targets[:, None]
            theta = np.zeros((design.shape[1], t2d.shape[1]))
            theta[0, :] = t2d.mean(axis=0)
            if targets.ndim == 1:
                theta = theta[:, 0]
        else:
            gram = self._grams.get(step)
            if gram is None:
                gram = self._grams[step] = _normal_matrix(design, self.ridge)
            theta = _solve_normal(gram, design, targets)
        return design @ theta, theta


def conditional_expectation(targets: np.ndarray, basis: RegressionBasis,
                            ensemble: PathEnsemble, step: int,
                            extra_features: list[np.ndarray] | None = None,
                            ridge: float | None = None,
                            return_coefficients: bool = False):
    """Least-squares estimate of E[targets | F_{t_step}] per path: one fit
    of a single-use RegressionPlan (see RegressionPlan.fit)."""
    plan = RegressionPlan(basis, ensemble, ridge,
                          extra_columns=lambda _step: extra_features)
    fitted, theta = plan.fit(step, plan.design(step), targets)
    return (fitted, theta) if return_coefficients else fitted


def splice_future(ensemble: PathEnsemble, step: int,
                  permutation: np.ndarray) -> PathEnsemble:
    """Swap Brownian increments strictly after t_step among paths.

    Test harness for adaptedness: anything measurable at or before t_step
    must not change.  The spliced paths are rebuilt from the permuted
    increments, and any realized A is re-derived from its spec.
    """
    permutation = np.asarray(permutation)
    dW = ensemble.increments().copy()
    dW[:, step:, :] = dW[permutation, step:, :]
    W = np.zeros_like(ensemble.W)
    np.cumsum(dW, axis=1, out=W[:, 1:, :])
    out = PathEnsemble(grid=ensemble.grid, W=W, seed=ensemble.seed)
    if ensemble.A_spec is not None:
        out = realize_increasing_process(ensemble.A_spec, out)
    return out


# ----------------------------------------------------------- persistence

def save_ensemble(ensemble: PathEnsemble, directory: str) -> None:
    """Dump paths plus a manifest recording seed, grid and A spec."""
    os.makedirs(directory, exist_ok=True)
    arrays = {"W": ensemble.W, "nodes": ensemble.grid.nodes}
    if ensemble.A is not None:
        arrays["A"] = ensemble.A
    np.savez(os.path.join(directory, "paths.npz"), **arrays)
    manifest = {
        "seed": ensemble.seed,
        "n_paths": ensemble.n_paths,
        "d": ensemble.d,
        "n_steps": ensemble.grid.n_steps,
        "T": ensemble.grid.T,
        "delta": ensemble.grid.delta,
        "A_spec": ensemble.A_spec.to_dict() if ensemble.A_spec else None,
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_ensemble(directory: str) -> PathEnsemble:
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    data = np.load(os.path.join(directory, "paths.npz"))
    grid = TimeGrid(data["nodes"], manifest.get("delta"))
    spec = manifest.get("A_spec")
    return PathEnsemble(
        grid=grid, W=data["W"], seed=manifest["seed"],
        A=data["A"] if "A" in data.files else None,
        A_spec=IncreasingProcessSpec.from_dict(spec) if spec else None)
