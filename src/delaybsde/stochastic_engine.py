"""Path simulation and regression-based conditional expectations.

Brownian ensembles use a counter-based Philox stream filled in path-major
order, so path p's draw never depends on how many paths follow it.  The draws
stream in half-blocks of paths, two of which fill path_calculus.BLOCK_BYTES,
each continuing the one stream, so W's bits do not depend on the block.
While the calling thread draws one half-block, one worker thread, joined
before simulate_brownian returns, sums the other into the rows of its paths,
which no other half-block writes, so the bits do not depend on scheduling
either.  Increasing integrator processes A are realized as functionals of
the same Brownian data (or deterministically) and are checked node-by-node
for monotonicity.
Designs are column-major, and the least-squares cross products are numpy-core
reductions along their path axis: no BLAS, so no dependence on thread counts.
A RegressionPlan holds the part of the regressions that depends on the
regression state alone (W, plus a random A): it builds each node's ridged
Gram matrix once and reuses it for every later fit at that node, whatever the
targets and whichever ensemble on that state they come from.

Layout: ensembles are node-major, W as (n_paths, n_nodes, d) and a random A
as (n_paths, n_nodes) with each node X[:, i] one contiguous block
(path_calculus.node_major_zeros), so that every reader, the backward sweep,
the norms and the Helly-Bray check among them, takes a node at a time in
place.  A deterministic A is a read-only broadcast of its one row over the
paths; code reads the rows an A stores through path_calculus.stored_rows.
simulate_brownian and realize_increasing_process build their stacks
node-major, each holding that one stack and scratch of about a block or a
node beside it, and PathEnsemble copies any other layout once.
"""

from __future__ import annotations

import functools
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import MonotonicityError, SingularSystemError
from .path_calculus import (BLOCK_BYTES, TimeGrid, delay_fits_horizon, is_integer,
                            is_number, node_major, node_major_zeros, stored_rows)

__all__ = [
    "PathEnsemble",
    "IncreasingProcessSpec",
    "PROCESS_KINDS",
    "RegressionBasis",
    "RegressionPlan",
    "member_index",
    "oscillation",
    "simulate_brownian",
    "realize_increasing_process",
    "omega_delta",
    "conditional_expectation",
    "fit_least_squares",
]


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths on a shared grid.

    W has shape (n_paths, n_nodes, d); A, when realized, (n_paths, n_nodes).
    Both are node-major: each X[:, i] is one contiguous block.  The one
    layout rule: a stack in that layout, or a broadcast over the paths (a
    deterministic A's one row, stride 0; path_calculus.stored_rows reads
    it), is kept as it is, and any other (a caller's C-order stack of more
    than one path) is copied once with path_calculus.node_major.  Arrays are
    frozen after construction.  The seed, grid and A_spec rebuild the
    ensemble bit for bit through simulate_brownian and
    realize_increasing_process.
    """

    grid: TimeGrid
    W: np.ndarray
    seed: int
    A: np.ndarray | None = None
    A_spec: "IncreasingProcessSpec | None" = None

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.ndim != 3 or W.shape[1] != self.grid.nodes.size:
            raise ValueError(f"W of shape {self.W.shape} does not fit the grid")
        A = None if self.A is None else np.asarray(self.A, dtype=float)
        if A is not None and A.shape != W.shape[:2]:
            raise ValueError("A must be (n_paths, n_nodes)")
        for name, X in (("W", W), ("A", A)):
            if X is not None:
                if X.strides[0] != 0 and not X[:, 0].flags.c_contiguous:
                    X = node_major(X)
                object.__setattr__(self, name, X)
                X.flags.writeable = False

    @property
    def n_paths(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[2]

    def realized_A(self) -> np.ndarray:
        """A, or ValueError when the ensemble carries none."""
        if self.A is None:
            raise ValueError("ensemble carries no realized A")
        return self.A


def simulate_brownian(grid: TimeGrid, n_paths: int, d: int = 1,
                      seed: int = 0) -> PathEnsemble:
    """d-dimensional Brownian paths started at 0, exact Gaussian increments.

    The draws stream in half-blocks of paths, two of which hold about
    BLOCK_BYTES: each half-block continues the one Philox stream (the
    Generator fills in C order), is scaled, and is summed along each path
    into its rows of the node-major W, so W holds the bits of one path-major
    draw of every path while the call holds W and one block.  The calling
    thread draws half b into one buffer while one worker thread scales and
    sums half b - 1 from the other; the caller sums the last half, so a call
    of one half-block starts no thread.  The worker is joined before the call
    returns, an error in it is raised here, and since each half writes rows
    no other touches, W's bits do not depend on how the two threads are
    scheduled.  n_paths >= 1, d >= 1 and the seed, a Philox key in
    [0, 2**64), must be integers (is_integer), else ValueError."""
    if not (is_integer(n_paths, 1) and is_integer(d, 1)
            and is_integer(seed, 0) and seed < 2 ** 64):
        raise ValueError(f"need integers n_paths >= 1, d >= 1 and 0 <= seed < 2**64, "
                         f"got n_paths={n_paths!r}, d={d!r}, seed={seed!r}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    scale = np.sqrt(grid.steps())[None, :, None]
    W = node_major_zeros((n_paths, grid.nodes.size, d))
    half = max(1, BLOCK_BYTES // (16 * grid.n_steps * d))
    halves = np.empty((2, min(half, n_paths), grid.n_steps, d))

    def add_up(z, rows):
        z *= scale
        np.cumsum(z, axis=1, out=rows)

    with ThreadPoolExecutor(max_workers=1) as worker:
        summed = None
        for b, p in enumerate(range(0, n_paths, half)):
            z = rng.standard_normal(out=halves[b % 2, :n_paths - p])
            if summed is not None:    # half b - 1; half b + 1 reuses its buffer
                summed.result()
            if p + half < n_paths:
                summed = worker.submit(add_up, z, W[p:p + half, 1:, :])
        add_up(z, W[p:, 1:, :])
    return PathEnsemble(grid=grid, W=W, seed=int(seed))


# ----------------------------------------------------------- increasing A

_DET_SHAPES: dict[str, object] = {
    "identity": lambda t, params: t,
    "linear": lambda t, params: params.get("rate", 1.0) * t,
    "power": lambda t, params: t ** params.get("exponent", 2.0),
}
# the params each named shape reads (a name not here reads none)
_SHAPE_PARAMS = {"identity": (), "linear": ("rate",), "power": ("exponent",)}

_POS_FUNCTIONALS: dict[str, object] = {
    "constant": lambda w, params: np.full(w.shape[0], params.get("value", 1.0)),
    "inv_quadratic": lambda w, params: params.get("scale", 1.0)
    / (1.0 + np.einsum("nd,nd->n", w, w, optimize=False)),
}
# the params each named functional reads (a name not here reads none)
_FUNCTIONAL_PARAMS = {"constant": ("value",), "inv_quadratic": ("scale",)}


def member_index(n):
    """n, a family member's index; ValueError unless an integer >= 1, not a bool."""
    if not is_integer(n, 1):
        raise ValueError(f"a member index n must be an integer >= 1, got {n!r}")
    return n


def oscillation(n, t: np.ndarray, T: float) -> np.ndarray:
    """p_n(t) = T sin(2 pi n t / T) / (4 pi n), the vanishing oscillation of
    member n (member_index) of an oscillatory A or integration family."""
    n = member_index(n)
    return T * np.sin(2 * np.pi * n * t / T) / (4 * np.pi * n)


# each kind and the params it reads itself; a kind in _NAMED also reads those
# of its named shape or functional, and a callable one takes any params
_KIND_PARAMS = {"deterministic": ("shape",), "running_max": ("component",),
                "time_integral": ("functional",), "oscillatory": ("base", "n")}
PROCESS_KINDS = tuple(_KIND_PARAMS)
# the kinds whose params name a function: the key, its default, registry and
# the params each name reads
_NAMED = {"deterministic": ("shape", "identity", _DET_SHAPES, _SHAPE_PARAMS),
          "time_integral": ("functional", "constant", _POS_FUNCTIONALS, _FUNCTIONAL_PARAMS)}
# the kinds with an integer param: the key and its least value
_INTEGER_PARAMS = {"running_max": ("component", 0), "oscillatory": ("n", 1)}


def _named_function(spec: "IncreasingProcessSpec"):
    """The shape or functional of a spec of a kind in _NAMED: its callable, or
    the function of its name; ValueError for any other name, or for a named
    function's param that is not a number (is_number)."""
    key, default, known, _ = _NAMED[spec.kind]
    fn = spec.params.get(key, default)
    if not isinstance(fn, str):
        return fn
    if fn not in known:
        raise ValueError(f"unknown {spec.kind} {key} {fn!r}; "
                         f"expected one of {sorted(known)} or a callable")
    for name, value in spec.params.items():
        if name != key and not is_number(value):
            raise ValueError(f"the {spec.kind} {key} {fn!r} takes numbers, "
                             f"got {name}={value!r}")
    return known[fn]


def _check_reads(spec: "IncreasingProcessSpec") -> None:
    """ValueError naming a param of spec that neither its kind nor its named
    shape or functional reads, with the params they do; a callable shape or
    functional takes any params."""
    reads, reader = _KIND_PARAMS[spec.kind], f"the {spec.kind} A"
    if spec.kind in _NAMED:
        key, default, _, params_of = _NAMED[spec.kind]
        name = spec.params.get(key, default)
        if not isinstance(name, str):
            return
        reads, reader = reads + params_of.get(name, ()), f"the {spec.kind} {key} {name!r}"
    for key in spec.params:
        if key not in reads:
            raise ValueError(f"{reader} reads no param {key!r}; "
                             f"it reads {', '.join(sorted(reads))}")


@dataclass(frozen=True)
class IncreasingProcessSpec:
    """Recipe for the integrator process A.

    Kinds: "deterministic" (a named or callable shape of t),
    "running_max" (running maximum of one Brownian component),
    "time_integral" (integral of a positive functional of W, left sums),
    "oscillatory" (a base spec plus the oscillation p_n, ``oscillation``).
    Every kind is a functional of the driving W or of time alone, which is
    what keeps A adapted; arbitrary exogenous processes are not accepted.
    A kind outside PROCESS_KINDS, an unknown shape or functional name, a
    param of a named shape or functional that is not a number, a param that
    neither the kind nor its named shape or functional reads (_KIND_PARAMS,
    _SHAPE_PARAMS, _FUNCTIONAL_PARAMS), or an integer param
    (_INTEGER_PARAMS) that is not an integer >= its least value, here or
    down an oscillatory base chain, raises ValueError.
    """

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in PROCESS_KINDS:
            raise ValueError(f"unknown increasing-process kind {self.kind!r}; "
                             f"expected one of {sorted(PROCESS_KINDS)}")
        if self.kind in _NAMED:
            _named_function(self)
        _check_reads(self)
        if self.kind == "oscillatory":    # a dict base becomes a spec
            base = self.params.get("base")
            if isinstance(base, dict):
                base = IncreasingProcessSpec.from_dict(base)
                object.__setattr__(self, "params", {**self.params, "base": base})
            if not isinstance(base, IncreasingProcessSpec) or "n" not in self.params:
                raise ValueError("an oscillatory A needs a base spec and n")
        key, low = _INTEGER_PARAMS.get(self.kind, (None, 0))
        if key and not is_integer(self.params.get(key, low), low):
            raise ValueError(f"{self.kind} A needs an integer {key} >= {low}, "
                             f"got {self.params[key]!r}")

    @property
    def is_random(self) -> bool:
        """Whether A depends on the Brownian paths, not on time alone."""
        if self.kind == "oscillatory":
            return self.params["base"].is_random
        return self.kind != "deterministic"

    def check_dimension(self, d: int) -> None:
        """Raise ValueError if A reads a Brownian component that d components lack."""
        if self.kind == "oscillatory":
            return self.params["base"].check_dimension(d)
        if self.kind == "running_max" and self.params.get("component", 0) >= d:
            raise ValueError(f"running_max A reads component {self.params['component']}, "
                             f"so needs d > {self.params['component']}, got d={d}")

    @classmethod
    def from_dict(cls, data: dict) -> "IncreasingProcessSpec":
        """The spec of a config entry; ValueError unless it is an object with
        a kind and, if any, a params object, and no other key."""
        if not (isinstance(data, dict) and "kind" in data
                and isinstance(data.get("params", {}), dict)):
            raise ValueError(f"an A entry must be an object with a kind and a params "
                             f"object, got {data!r}")
        for key in data:
            if key not in ("kind", "params"):
                raise ValueError(f"an A entry takes only kind and params, got {key!r}")
        return cls(kind=data["kind"], params=dict(data.get("params", {})))


def _realize_A(spec: IncreasingProcessSpec, ensemble: PathEnsemble) -> np.ndarray:
    grid, W = ensemble.grid, ensemble.W
    nodes = grid.nodes
    if spec.kind == "deterministic":
        vals = np.asarray(_named_function(spec)(nodes, spec.params), dtype=float)
        if vals.shape != nodes.shape:
            raise ValueError("deterministic shape must return one value per node")
        return np.broadcast_to(vals, (ensemble.n_paths, nodes.size)).copy()
    if spec.kind == "running_max":
        return np.maximum.accumulate(W[:, :, spec.params.get("component", 0)], axis=1,
                                     out=node_major_zeros(W.shape[:2]))
    if spec.kind == "time_integral":
        fn = _named_function(spec)
        A = node_major_zeros(W.shape[:2])
        # each node's left sum, in cumsum's order: A_1 = r_0 dt_0 (a -0.0
        # stays -0.0) and A_{i+1} = r_i dt_i + A_i
        for i, dt_i in enumerate(grid.steps()):
            r = np.asarray(fn(W[:, i, :], spec.params), dtype=float)
            if np.any(r < 0):
                raise MonotonicityError("time_integral functional went negative")
            np.multiply(r, dt_i, out=A[:, i + 1])
            if i:
                A[:, i + 1] += A[:, i]
        return A
    # "oscillatory", the one kind left; every kind returns a fresh stack
    A = _realize_A(spec.params["base"], ensemble)
    A += oscillation(spec.params["n"], nodes, grid.T)[None, :]
    return A


def realize_increasing_process(spec: IncreasingProcessSpec,
                               ensemble: PathEnsemble) -> PathEnsemble:
    """Attach a realized A to the ensemble; checks d, A(0)=0 and monotonicity.

    A random A is built node-major, as W is, in one stack: no stack of
    rates, increments or differences is formed.  A deterministic A is realized
    once, on the first path alone, and attached as a read-only broadcast of
    that row over every path."""
    spec.check_dimension(ensemble.d)
    source = ensemble if spec.is_random else replace(ensemble, W=ensemble.W[:1], A=None)
    A = np.broadcast_to(_realize_A(spec, source), ensemble.W.shape[:2])
    rows = stored_rows(A)  # every path of A is one of these rows
    if np.any(rows[:, 0] != 0.0):
        raise MonotonicityError(f"A(0) != 0 for kind {spec.kind!r}")
    # a drop between neighbours a, b is b < a: the verdict of b - a < 0 for
    # every pair of doubles
    if np.any(rows[:, 1:] < rows[:, :-1]):
        raise MonotonicityError(f"kind {spec.kind!r} produced a decreasing path")
    return replace(ensemble, A=A, A_spec=spec)


def omega_delta(ensemble: PathEnsemble, delta: float) -> np.ndarray:
    """Largest A-increment over any delay window, sup_t (A(t+delta) - A(t)),
    one value per path of the ensemble; the gaps are taken on the rows A
    stores (path_calculus.stored_rows).  A delta outside (0, T] raises
    ValueError."""
    grid, A = ensemble.grid, ensemble.realized_A()
    if not delay_fits_horizon(delta, grid.T):
        raise ValueError(f"delta={delta} outside (0, T={grid.T}]")
    rows = stored_rows(A)
    k = TimeGrid(grid.nodes, delta).delta_index_offset
    return np.broadcast_to((rows[:, k:] - rows[:, :-k]).max(axis=1), A.shape[:1])


# ----------------------------------------------------------- regression

@functools.cache
def _monomials(degree: int, d: int) -> tuple:
    """The design's monomials of d components, as index tuples by degree."""
    return tuple(combo for deg in range(1, degree + 1)
                 for combo in itertools.combinations_with_replacement(range(d), deg))


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial design in the Brownian state plus optional extra columns.

    Features are 1, all monomials of W(t) components up to total degree
    ``degree``, then any caller-supplied columns (a RegressionPlan passes a
    random A's column).
    ``ridge`` is added to the diagonal of every normal matrix on this basis;
    with ridge = 0 a singular system raises SingularSystemError.  A degree
    not an integer >= 0 (is_integer), or a ridge not a number >= 0
    (is_number), raises ValueError.  Designs are column-major (n_paths, p).
    """

    degree: int = 2
    ridge: float = 1e-10

    def __post_init__(self):
        if not (is_integer(self.degree, 0) and is_number(self.ridge) and self.ridge >= 0):
            raise ValueError(f"need an integer degree >= 0 and ridge >= 0, "
                             f"got degree={self.degree!r}, "
                             f"ridge={self.ridge!r}")

    def design(self, w_t: np.ndarray, extras: list[np.ndarray] | None = None) -> np.ndarray:
        w_t = np.atleast_2d(np.asarray(w_t, dtype=float))
        n, d = w_t.shape
        combos = _monomials(self.degree, d)
        extras = [np.asarray(extra, dtype=float).reshape(n, -1) for extra in extras or []]
        out = np.empty((n, 1 + len(combos) + sum(e.shape[1] for e in extras)), order="F")
        out[:, 0] = 1.0
        for c, combo in enumerate(combos, start=1):
            # each monomial starts from its first factor (1.0 * x is exact)
            col = out[:, c]
            col[...] = w_t[:, combo[0]]
            for j in combo[1:]:
                col *= w_t[:, j]
        c = 1 + len(combos)
        for extra in extras:
            out[:, c:c + extra.shape[1]] = extra
            c += extra.shape[1]
        return out


_SINGULAR = ("normal equations are singular; drop collinear features or set "
             "a positive ridge")


def _normal_matrix(design: np.ndarray, ridge: float) -> np.ndarray:
    """Ridged Gram matrix of the design, reduced along its path axis; with
    ridge = 0 a numerically singular one raises SingularSystemError."""
    X = np.asfortranarray(design).T
    gram = np.einsum("in,jn->ij", X, X, optimize=False)
    if ridge:
        return gram + ridge * np.eye(gram.shape[0])
    spectrum = np.linalg.svd(gram, compute_uv=False)
    if spectrum[0] == 0.0 or spectrum[-1] <= 1e-12 * spectrum[0]:
        raise SingularSystemError(_SINGULAR)
    return gram


def _lapack_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The LAPACK gufunc np.linalg.solve calls for a 2-D right-hand side,
    without its checks and wrapping: the same bits in a fraction of the
    time, but a singular gram gives NaN (with a RuntimeWarning), not an
    error, so only a gram np.linalg.solve has accepted may come here."""
    return _umath_linalg.solve(gram, rhs, signature="dd->d")


def _solve_normal(gram: np.ndarray, design: np.ndarray, targets: np.ndarray,
                  solve=np.linalg.solve) -> np.ndarray:
    """Coefficients from a normal matrix built by _normal_matrix."""
    t2d = targets if targets.ndim == 2 else targets[:, None]
    rhs = np.einsum("in,qn->iq", np.asfortranarray(design).T,
                    np.ascontiguousarray(t2d.T), optimize=False)
    try:
        theta = solve(gram, rhs)
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


def _regression_state(ensemble: PathEnsemble) -> tuple:
    """(W, A) that a RegressionPlan regresses on: the ensemble's W, and its A
    when A is random (``A_spec.is_random``), else None."""
    spec = ensemble.A_spec
    random_A = ensemble.A is not None and spec is not None and spec.is_random
    return ensemble.W, ensemble.A if random_A else None


class RegressionPlan:
    """The target-independent half of the regressions on one regression
    state, and the one way to configure a backward sweep's regression.

    Bound to a basis and an ensemble; the ridge is the basis's.  The plan
    decides the state it regresses on: W(t_step), plus A(t_step) as one
    linear column when A is random (``A_spec.is_random``), since the
    solution is adapted to the filtration of W and A.  The plan is a
    function of that state alone, so it serves every ensemble that holds
    the same W object, and the same random A object or no random A
    (``serves``): the members of a family on one Brownian ensemble with a
    deterministic A share one plan.  What a deterministic A fixes, its row,
    increments and norm weights, is the solve's, never the plan's.  The
    design at a node depends on the state only, so the plan builds each
    node's ridged Gram matrix (and, with ridge = 0, runs its singularity
    check) once, on the first fit there, and every later fit at that node
    reuses it, whichever solve it serves.  The first fit solves through
    np.linalg.solve, which raises on a singular matrix; the plan keeps the
    matrix only once that solve has passed, and later fits call the same
    LAPACK routine directly (_lapack_solve), for the same bits.  Designs are
    not kept: ``design(step)`` rebuilds one on each call, and the caller
    hands it back to ``fit`` for every regression at that node.
    ``design`` reads the state's node in place, one contiguous block of
    the node-major ensemble, and ``fit`` reduces along the path axis of the
    column-major design.
    """

    def __init__(self, basis: RegressionBasis, ensemble: PathEnsemble):
        self.basis = basis
        self.ensemble = ensemble
        self._state = _regression_state(ensemble)
        self._grams: dict[int, np.ndarray] = {}

    def serves(self, ensemble: PathEnsemble) -> bool:
        """Whether ensemble holds this plan's regression state."""
        return all(a is b for a, b in zip(_regression_state(ensemble), self._state))

    def design(self, step: int) -> np.ndarray:
        W, A = self._state
        return self.basis.design(W[:, step], None if A is None else [A[:, step]])

    def fit(self, step: int, design: np.ndarray, targets: np.ndarray):
        """(fitted, coefficients) of E[targets | F_{t_step}] on the design
        of the state at t_step.

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
                gram = _normal_matrix(design, self.basis.ridge)
                theta = _solve_normal(gram, design, targets)
                self._grams[step] = gram
            else:
                theta = _solve_normal(gram, design, targets, _lapack_solve)
        return design @ theta, theta


def conditional_expectation(targets: np.ndarray, basis: RegressionBasis,
                            ensemble: PathEnsemble, step: int,
                            extra_features: list[np.ndarray] | None = None,
                            return_coefficients: bool = False):
    """Least-squares estimate of E[targets | F_{t_step}] per path: one fit
    of a single-use RegressionPlan (see RegressionPlan.fit), on a design
    read straight from the ensemble's node column."""
    plan = RegressionPlan(basis, ensemble)
    design = basis.design(ensemble.W[:, step, :], extra_features)
    fitted, theta = plan.fit(step, design, targets)
    return (fitted, theta) if return_coefficients else fitted
