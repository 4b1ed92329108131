"""Backward scheme and outer fixed-point iteration.

One outer step freezes the delayed arguments at the previous iterate (U, V),
absorbs the Stieltjes term into the running integral
B(t) = int_0^t G(s, U(s), U_s) dA(s), and solves the resulting standard
backward equation for Yhat = Y + B by least-squares regression on a backward
sweep.  Iterating this map contracts in the weighted norm whenever the
smallness conditions hold; the solver tracks the contraction empirically and
compares it with the theoretical factor mu_lambda.

Layout: path stacks are (n_paths, n_nodes, ...); sweep arrays, the Picard
iterate and the solve's norm weights included, are node-major
(path_calculus.node_major_zeros), and solve returns C order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (BlowupError, ConstraintViolationError,
                     GeneratorEvaluationError, GridAlignmentError,
                     NonContractionError)
from .model import (Preflight, ProblemSpec, equivalent_norm,
                    evaluate_generator, norm_weights, preflight)
# unused here (model.preflight calls them); bench/tracing.py looks them up here
from .model import check_H1, check_H2, select_lambda  # noqa: F401
# solver code reads windows through delay_windows; bench/tracing.py still
# looks node_segment up here
from .path_calculus import delay_window as node_segment
from .path_calculus import delay_windows, node_major_zeros
from .stochastic_engine import (PathEnsemble, RegressionBasis, RegressionPlan,
                                _node_major, realize_increasing_process)
# no longer called here; bench/tracing.py still looks the name up here
from .stochastic_engine import conditional_expectation  # noqa: F401

__all__ = [
    "GammaArtifacts",
    "SolverDiagnostics",
    "Solution",
    "ContractionReport",
    "node_segment",
    "build_B",
    "gamma_step",
    "solve",
    "contraction_report",
]

log = logging.getLogger(__name__)

BLOWUP_THRESHOLD = 1e8  # |Y + B| above this at a node raises BlowupError


def _regression_plan(ensemble: PathEnsemble,
                     basis: RegressionBasis | None) -> RegressionPlan:
    """Regressions on W(t_i), plus A(t_i) when A is random: a realized random
    A is extra information the Brownian state lacks."""
    plan = RegressionPlan(basis or RegressionBasis(), ensemble)
    spec = ensemble.A_spec
    if ensemble.A is not None and spec is not None and spec.is_random:
        # the rule holds the copy, not the plan: a plan -> rule -> plan cycle
        # would keep every solve's plan alive until the cycle collector runs
        A = plan.A_by_node
        plan.extra_columns = lambda i: [A[:, i]]
    return plan


def _read_only(X: np.ndarray) -> np.ndarray:
    """Read-only view of X, so that a generator cannot write into it."""
    view = X.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class GammaArtifacts:
    """Byproducts of one outer step, kept for diagnostics and replay."""

    B: np.ndarray
    thetas: dict | None = None


def build_B(problem: ProblemSpec, ensemble: PathEnsemble,
            U: np.ndarray, *, plan: RegressionPlan | None = None) -> np.ndarray:
    """Left-point running integral of G against A along the frozen iterate,
    as (n_paths, n_nodes, m) laid out node-major.  ``plan``, built for this
    ensemble, supplies dA."""
    grid = ensemble.grid
    n, n_nodes, m = ensemble.n_paths, grid.nodes.size, problem.m
    B = node_major_zeros((n, n_nodes, m))
    if problem.G is None:
        return B
    k = grid.delta_index_offset
    dA = (plan or RegressionPlan(RegressionBasis(), ensemble)).dA
    U_in = _read_only(U)
    u_windows = delay_windows(U, k)
    for j in range(n_nodes - 1):
        t = float(grid.nodes[j])
        ctx = problem.context(grid, t, ensemble.W[:, j, :])
        g = evaluate_generator(problem.G, "G", ctx, U_in[:, j], None, u_windows(j), None)
        if not np.all(np.isfinite(g)):
            raise GeneratorEvaluationError(
                f"G returned a non-finite value at t={t:.6g}")
        # left sums B(t_{j+1}) = B(t_j) + g dA_j in cumsum's order, one
        # contiguous node block at a time
        np.multiply(g, dA[:, j, None], out=B[:, j + 1])
        if j:
            B[:, j + 1] += B[:, j]
    return B


def gamma_step(problem: ProblemSpec, ensemble: PathEnsemble,
               U: np.ndarray, V: np.ndarray, *,
               basis: RegressionBasis | None = None,
               scheme: str = "explicit", keep_regression: bool = False,
               plan: RegressionPlan | None = None):
    """One application of the outer map: (U, V) -> (Y, Z).

    Backward in time: project the next shifted value on the current Brownian
    state, read the control from the centered increment correlation, then
    advance the value either explicitly (driver at the next value) or
    implicitly (per-path fixed point, driver at the current value).

    ``basis`` (default RegressionBasis()) sets the regression, its ridge
    included.  ``plan`` carries the regression work that does not depend on
    (U, V) across calls on the same ensemble; when given, it replaces
    ``basis``.  Without one, the step builds its own.  ``keep_regression``
    keeps each node's coefficients in the artifacts.  F and G get read-only
    arguments.  A value iterate above
    BLOWUP_THRESHOLD or not finite raises BlowupError.  Y and Z come back
    node-major whatever the layout of U and V.
    """
    if scheme not in ("explicit", "implicit"):
        raise ValueError("scheme must be 'explicit' or 'implicit'")
    grid = ensemble.grid
    if grid.delta is None:
        raise GridAlignmentError("the ensemble grid was built without a delay")
    if plan is None:
        plan = _regression_plan(ensemble, basis)
    elif plan.ensemble is not ensemble:
        raise ValueError("the regression plan was built for another ensemble")
    k = grid.delta_index_offset
    n, m, d = ensemble.n_paths, problem.m, problem.d
    n_nodes = grid.nodes.size
    steps = grid.steps()
    W = plan.W_by_node

    B = build_B(problem, ensemble, U, plan=plan)
    xi = np.asarray(problem.xi(ensemble), dtype=float).reshape(n, m)
    if not np.all(np.isfinite(xi)):
        raise GeneratorEvaluationError("terminal values are not finite")

    Yhat = node_major_zeros((n, n_nodes, m))
    Z = node_major_zeros((n, n_nodes, m, d))
    Z_in = _read_only(Z)
    Yhat[:, -1] = xi + B[:, -1]
    thetas: dict | None = {} if keep_regression else None
    u_windows = delay_windows(U, k)
    v_windows = delay_windows(V, k, kind="control")

    for i in range(n_nodes - 2, -1, -1):
        dt = float(steps[i])
        dW = W[:, i + 1] - W[:, i]
        design = plan.design(i)
        nxt = Yhat[:, i + 1]

        mean_fit, theta_m = plan.fit(i, design, nxt)
        z_target = (nxt - mean_fit)[:, :, None] * dW[:, None, :] / dt
        z_fit, theta_z = plan.fit(i, design, z_target.reshape(n, m * d))
        Z[:, i] = z_fit.reshape(n, m, d)

        t = float(grid.nodes[i])
        ctx = problem.context(grid, t, W[:, i])
        seg_y = u_windows(i)
        seg_z = v_windows(i)
        theta_y = None
        if problem.F is None:
            cur = mean_fit
        elif scheme == "explicit":
            drv = evaluate_generator(problem.F, "F", ctx, _read_only(nxt - B[:, i + 1]),
                                     Z_in[:, i], seg_y, seg_z)
            cur, theta_y = plan.fit(i, design, nxt + dt * drv)
        else:
            cur = mean_fit.copy()
            for _ in range(20):
                drv = evaluate_generator(problem.F, "F", ctx, _read_only(cur - B[:, i]),
                                         Z_in[:, i], seg_y, seg_z)
                new = mean_fit + dt * drv
                gap = float(np.max(np.abs(new - cur))) if np.all(np.isfinite(new)) else np.inf
                cur = new
                if gap < 1e-12:
                    break
        if not np.all(np.isfinite(cur)) or np.max(np.abs(cur)) > BLOWUP_THRESHOLD:
            raise BlowupError(f"value iterate exploded at node {i} (t={t:.6g})")
        Yhat[:, i] = cur
        del design  # free it before the next node builds its own
        if thetas is not None:
            thetas[i] = {"mean": theta_m, "z": theta_z, "y": theta_y}

    Z[:, -1] = Z[:, -2]
    Y = np.subtract(Yhat, B, out=Yhat)
    Y[:, -1] = xi
    return Y, Z, GammaArtifacts(B=B, thetas=thetas)


@dataclass(frozen=True)
class SolverDiagnostics:
    deltas: list
    ratios: list
    tol: float
    converged: bool
    iterations: int
    alpha: float
    beta: float
    mu_lambda: float | None
    a: float
    b: float
    scheme: str
    preflight: Preflight | None = None
    martingale_residual: float = float("nan")
    self_consistency_rms: float = float("nan")


@dataclass(frozen=True)
class Solution:
    Y: np.ndarray
    Z: np.ndarray
    diagnostics: SolverDiagnostics
    ensemble: PathEnsemble

    @property
    def initial_value(self) -> np.ndarray:
        return self.Y[:, 0, :].mean(axis=0)


def _consistency(problem, plan, Y, Z, scheme):
    """Residuals of the discrete backward recursion along the node-major
    solution, reduced in C order."""
    grid = plan.ensemble.grid
    k = grid.delta_index_offset
    n, m = Y.shape[0], Y.shape[2]
    steps = grid.steps()
    W, dA = plan.W_by_node, plan.dA
    Y, Z = _read_only(Y), _read_only(Z)
    y_windows = delay_windows(Y, k)
    z_windows = delay_windows(Z, k, kind="control")
    R = node_major_zeros((n, grid.n_steps, m))
    for i in range(grid.n_steps):
        t = float(grid.nodes[i])
        dt = float(steps[i])
        ctx = problem.context(grid, t, W[:, i])
        acc = Y[:, i + 1] - Y[:, i]
        if problem.F is not None:
            y_arg = Y[:, i + 1] if scheme == "explicit" else Y[:, i]
            acc = acc + dt * evaluate_generator(
                problem.F, "F", ctx, y_arg, Z[:, i], y_windows(i), z_windows(i))
        if problem.G is not None:
            acc = acc + dA[:, i, None] * evaluate_generator(
                problem.G, "G", ctx, Y[:, i], None, y_windows(i), None)
        dW = W[:, i + 1] - W[:, i]
        acc = acc - np.einsum("nmd,nd->nm", Z[:, i], dW, optimize=False)
        R[:, i] = acc
    R = np.ascontiguousarray(R)
    mtg = float(np.max(np.abs(R.mean(axis=0))))
    rms = float(np.sqrt(np.mean(R ** 2)))
    return mtg, rms


def solve(problem: ProblemSpec, ensemble: PathEnsemble, *,
          basis: RegressionBasis | None = None, tol: float = 1e-6,
          max_iter: int = 25, scheme: str = "explicit",
          c: float | None = None, force: bool = False) -> Solution:
    """Iterate the outer map from (0, 0) until the successive squared
    distance in the contraction norm drops below tol.

    ``basis`` (default RegressionBasis()) sets the regression, its ridge
    included; ``c`` overrides the problem's smallness budget.  Runs
    model.preflight on the realized A first and refuses when any of its
    checks fails, unless force=True; the record is kept as
    diagnostics.preflight either way.  Raises NonContractionError when the
    iteration budget is spent while the distances have stopped shrinking.
    """
    grid = ensemble.grid
    if grid.delta is None:
        raise GridAlignmentError(
            "build the grid with the problem's delay (TimeGrid.uniform(..., delta=...))")
    if abs(grid.delta - problem.delta) > 1e-9 * max(1.0, problem.delta):
        raise GridAlignmentError(
            f"grid delay {grid.delta} does not match the problem delay {problem.delta}")
    if abs(grid.T - problem.T) > 1e-9 * max(1.0, problem.T):
        raise GridAlignmentError(
            f"grid horizon {grid.T} does not match the problem horizon {problem.T}")
    if ensemble.A is None:
        ensemble = realize_increasing_process(problem.A_spec, ensemble)

    checks = preflight(problem, ensemble, c)
    if checks.failures and not force:
        raise ConstraintViolationError(
            "; ".join(checks.failures.values()) + "; pass force=True to run anyway")
    sel = checks.selection
    mu, a, b = (None, 1.0, 1.0) if sel is None else (sel.mu_lambda, sel.a, sel.b)
    if sel is None:
        log.warning("no contraction budget for c=%.3g; tracking with unit weights", checks.c)

    alpha, beta = problem.alpha, problem.beta
    n, n_nodes = ensemble.n_paths, grid.nodes.size
    U = node_major_zeros((n, n_nodes, problem.m))
    V = node_major_zeros((n, n_nodes, problem.m, problem.d))
    deltas: list[float] = []
    ratios: list[float] = []
    converged = False
    plan = _regression_plan(ensemble, basis)
    # weights in the sweep's layout, from a copy of A that is dropped at once
    weights = norm_weights(_node_major(ensemble.A), grid, alpha, beta)
    plan.dA = weights[1]  # the one dA of the solve

    for it in range(1, max_iter + 1):
        Y, Z, _ = gamma_step(problem, ensemble, U, V, scheme=scheme, plan=plan)
        # the distances overwrite the previous iterate, which is not read again
        step_norm = equivalent_norm(np.subtract(Y, U, out=U), np.subtract(Z, V, out=V),
                                    ensemble.A, grid, alpha=alpha, beta=beta, a=a, b=b,
                                    weights=weights)
        deltas.append(step_norm.total)
        if len(deltas) >= 2:
            prev = deltas[-2]
            ratios.append(deltas[-1] / prev if prev > 0 else 0.0)
        U, V = Y, Z
        log.info("outer step %d: squared distance %.3e", it, deltas[-1])
        if deltas[-1] <= tol:
            converged = True
            break

    if not converged and len(ratios) >= 2 and min(ratios[-2:]) >= 1.0:
        raise NonContractionError(
            f"distances stopped shrinking after {len(deltas)} steps "
            f"(last ratios {ratios[-2]:.3f}, {ratios[-1]:.3f}); "
            "the smallness conditions are likely violated")

    mtg, rms = _consistency(problem, plan, U, V, scheme)
    diag = SolverDiagnostics(
        deltas=deltas, ratios=ratios, tol=tol, converged=converged,
        iterations=len(deltas), alpha=alpha, beta=beta, mu_lambda=mu, a=a, b=b,
        scheme=scheme, preflight=checks,
        martingale_residual=mtg, self_consistency_rms=rms)
    if not converged:
        log.warning("iteration budget spent at squared distance %.3e > tol %.3e",
                    deltas[-1], tol)
    return Solution(Y=np.ascontiguousarray(U), Z=np.ascontiguousarray(V),
                    diagnostics=diag, ensemble=ensemble)


@dataclass(frozen=True)
class ContractionReport:
    ratios: list
    tail_max: float
    mu_lambda: float | None
    slack: float
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def contraction_report(diagnostics: SolverDiagnostics) -> ContractionReport:
    """Compare observed contraction ratios with the theoretical factor: PASS
    when the tail ratios stay within mu_lambda + 0.1 (1 + 0.1 without one).

    The first ratio is warm-up (the starting point is arbitrary) and is
    dropped when there is anything after it.  Fewer than three outer steps
    cannot certify anything.
    """
    ratios, slack = list(diagnostics.ratios), 0.1
    if diagnostics.iterations < 3 or not ratios:
        return ContractionReport(ratios=ratios, tail_max=float("nan"),
                                 mu_lambda=diagnostics.mu_lambda, slack=slack,
                                 verdict="INCONCLUSIVE")
    tail = ratios[1:] if len(ratios) >= 2 else ratios
    bound = (diagnostics.mu_lambda if diagnostics.mu_lambda is not None else 1.0)
    tail_max = float(max(tail))
    verdict = "PASS" if tail_max <= bound + slack else "FAIL"
    return ContractionReport(ratios=ratios, tail_max=tail_max,
                             mu_lambda=diagnostics.mu_lambda, slack=slack,
                             verdict=verdict)
