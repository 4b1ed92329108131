"""Backward scheme and outer fixed-point iteration.

One outer step freezes the delayed arguments at the previous iterate (U, V),
absorbs the Stieltjes term into the running integral
B(t) = int_0^t G(s, U(s), U_s) dA(s), and solves the resulting standard
backward equation for Yhat = Y + B by least-squares regression on a backward
sweep.  Iterating this map contracts in the weighted norm whenever the
smallness conditions hold; the solver tracks the contraction empirically and
compares it with the theoretical factor mu_lambda.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import (BlowupError, ConstraintViolationError,
                     GeneratorEvaluationError, GridAlignmentError,
                     NonContractionError)
from .model import (ConditionReport, ProblemSpec, check_H1, check_H2,
                    effective_c, equivalent_norm, evaluate_generator,
                    select_lambda)
from .path_calculus import delay_window as node_segment
from .stochastic_engine import (IncreasingProcessSpec, PathEnsemble,
                                RegressionBasis, conditional_expectation,
                                realize_increasing_process)

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


def _is_deterministic(spec: IncreasingProcessSpec | None) -> bool:
    if spec is None:
        return True
    if spec.kind == "deterministic":
        return True
    if spec.kind == "oscillatory":
        base = spec.params.get("base")
        if isinstance(base, dict):
            base = IncreasingProcessSpec.from_dict(base)
        return _is_deterministic(base)
    return False


def _regression_extras(ensemble: PathEnsemble, i: int):
    # a realized random A is extra information the Brownian state lacks
    if ensemble.A is None or _is_deterministic(ensemble.A_spec):
        return None
    return [ensemble.A[:, i]]


@dataclass(frozen=True)
class GammaArtifacts:
    """Byproducts of one outer step, kept for diagnostics and replay."""

    B: np.ndarray
    shifted_terminal: np.ndarray
    scheme: str
    thetas: dict | None = None


def build_B(problem: ProblemSpec, ensemble: PathEnsemble,
            U: np.ndarray) -> np.ndarray:
    """Left-point running integral of G against A along the frozen iterate."""
    grid = ensemble.grid
    n, n_nodes, m = ensemble.n_paths, grid.nodes.size, problem.m
    B = np.zeros((n, n_nodes, m))
    if problem.G is None:
        return B
    k = grid.delta_index_offset
    dA = np.diff(ensemble.A, axis=1)
    vals = np.empty((n, n_nodes - 1, m))
    for j in range(n_nodes - 1):
        t = float(grid.nodes[j])
        ctx = problem.context(grid, t, ensemble.W[:, j, :])
        g = evaluate_generator(problem.G, "G", ctx, U[:, j], None, node_segment(U, j, k), None)
        if not np.all(np.isfinite(g)):
            raise GeneratorEvaluationError(
                f"G returned a non-finite value at t={t:.6g}")
        vals[:, j] = g
    np.cumsum(vals * dA[:, :, None], axis=1, out=B[:, 1:])
    return B


def gamma_step(problem: ProblemSpec, ensemble: PathEnsemble,
               U: np.ndarray, V: np.ndarray, *,
               basis: RegressionBasis | None = None,
               scheme: str = "explicit", ridge: float | None = None,
               keep_regression: bool = False,
               blowup_threshold: float = 1e8):
    """One application of the outer map: (U, V) -> (Y, Z).

    Backward in time: project the next shifted value on the current Brownian
    state, read the control from the centered increment correlation, then
    advance the value either explicitly (driver at the next value) or
    implicitly (per-path fixed point, driver at the current value).
    """
    if scheme not in ("explicit", "implicit"):
        raise ValueError("scheme must be 'explicit' or 'implicit'")
    grid = ensemble.grid
    if grid.delta is None:
        raise GridAlignmentError("the ensemble grid was built without a delay")
    basis = basis or RegressionBasis()
    k = grid.delta_index_offset
    n, m, d = ensemble.n_paths, problem.m, problem.d
    n_nodes = grid.nodes.size
    steps = grid.steps()

    B = build_B(problem, ensemble, U)
    xi = np.asarray(problem.xi(ensemble), dtype=float).reshape(n, m)
    if not np.all(np.isfinite(xi)):
        raise GeneratorEvaluationError("terminal values are not finite")

    Yhat = np.empty((n, n_nodes, m))
    Z = np.zeros((n, n_nodes, m, d))
    Yhat[:, -1] = xi + B[:, -1]
    thetas: dict | None = {} if keep_regression else None

    for i in range(n_nodes - 2, -1, -1):
        dt = float(steps[i])
        dW = ensemble.W[:, i + 1, :] - ensemble.W[:, i, :]
        extras = _regression_extras(ensemble, i)
        nxt = Yhat[:, i + 1]

        mean_fit, theta_m = conditional_expectation(
            nxt, basis, ensemble, i, extra_features=extras, ridge=ridge,
            return_coefficients=True)
        z_target = (nxt - mean_fit)[:, :, None] * dW[:, None, :] / dt
        z_fit, theta_z = conditional_expectation(
            z_target.reshape(n, m * d), basis, ensemble, i,
            extra_features=extras, ridge=ridge, return_coefficients=True)
        Z[:, i] = z_fit.reshape(n, m, d)

        t = float(grid.nodes[i])
        ctx = problem.context(grid, t, ensemble.W[:, i, :])
        seg_y = node_segment(U, i, k)
        seg_z = node_segment(V, i, k, kind="control")
        theta_y = None
        if problem.F is None:
            cur = mean_fit
        elif scheme == "explicit":
            drv = evaluate_generator(problem.F, "F", ctx, nxt - B[:, i + 1], Z[:, i],
                                     seg_y, seg_z)
            cur, theta_y = conditional_expectation(
                nxt + dt * drv, basis, ensemble, i, extra_features=extras,
                ridge=ridge, return_coefficients=True)
        else:
            cur = mean_fit.copy()
            for _ in range(20):
                drv = evaluate_generator(problem.F, "F", ctx, cur - B[:, i], Z[:, i],
                                         seg_y, seg_z)
                new = mean_fit + dt * drv
                gap = float(np.max(np.abs(new - cur))) if np.all(np.isfinite(new)) else np.inf
                cur = new
                if gap < 1e-12:
                    break
        if not np.all(np.isfinite(cur)) or np.max(np.abs(cur)) > blowup_threshold:
            raise BlowupError(f"value iterate exploded at node {i} (t={t:.6g})")
        Yhat[:, i] = cur
        if thetas is not None:
            thetas[i] = {"mean": theta_m, "z": theta_z, "y": theta_y}

    Z[:, -1] = Z[:, -2]
    Y = Yhat - B
    Y[:, -1] = xi
    return Y, Z, GammaArtifacts(B=B, shifted_terminal=xi + B[:, -1],
                                scheme=scheme, thetas=thetas)


@dataclass(frozen=True)
class SolverDiagnostics:
    deltas: list
    ratios: list
    tol: float
    converged: bool
    iterations: int
    c: float
    alpha: float
    beta: float
    lam: float | None
    mu_lambda: float | None
    a: float
    b: float
    scheme: str
    h1: ConditionReport | None = None
    h2: ConditionReport | None = None
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


def _consistency(problem, ensemble, Y, Z, scheme):
    """Residuals of the discrete backward recursion along the solution."""
    grid = ensemble.grid
    k = grid.delta_index_offset
    n, m = Y.shape[0], Y.shape[2]
    steps = grid.steps()
    dA = np.diff(ensemble.A, axis=1)
    R = np.zeros((n, grid.n_steps, m))
    for i in range(grid.n_steps):
        t = float(grid.nodes[i])
        dt = float(steps[i])
        ctx = problem.context(grid, t, ensemble.W[:, i, :])
        acc = Y[:, i + 1] - Y[:, i]
        if problem.F is not None:
            y_arg = Y[:, i + 1] if scheme == "explicit" else Y[:, i]
            acc = acc + dt * evaluate_generator(
                problem.F, "F", ctx, y_arg, Z[:, i], node_segment(Y, i, k),
                node_segment(Z, i, k, kind="control"))
        if problem.G is not None:
            acc = acc + dA[:, i, None] * evaluate_generator(
                problem.G, "G", ctx, Y[:, i], None, node_segment(Y, i, k), None)
        dW = ensemble.W[:, i + 1, :] - ensemble.W[:, i, :]
        acc = acc - np.einsum("nmd,nd->nm", Z[:, i], dW, optimize=False)
        R[:, i] = acc
    mtg = float(np.max(np.abs(R.mean(axis=0))))
    rms = float(np.sqrt(np.mean(R ** 2)))
    return mtg, rms


def solve(problem: ProblemSpec, ensemble: PathEnsemble, *,
          basis: RegressionBasis | None = None, tol: float = 1e-6,
          max_iter: int = 25, scheme: str = "explicit",
          ridge: float | None = None, c: float | None = None,
          check_conditions: bool = True, force: bool = False,
          bdg_constant: float = 144.0) -> Solution:
    """Iterate the outer map from (0, 0) until the successive squared
    distance in the contraction norm drops below tol.

    Pre-checks the smallness conditions on the realized A and refuses to run
    when they fail unless force=True.  Raises NonContractionError when the
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

    c_val = effective_c(problem) if c is None else c
    h1 = check_H1(problem, ensemble, c_val)
    h2 = check_H2(problem, ensemble, c_val)
    if check_conditions and not (h1.passed and h2.passed) and not force:
        raise ConstraintViolationError(
            f"smallness conditions fail; {h1}; {h2}; pass force=True to run anyway")

    lam = mu = None
    a = b = 1.0
    try:
        sel = select_lambda(c_val, problem.beta, problem.L_tilde, bdg_constant)
        lam, mu, a, b = sel.lam, sel.mu_lambda, sel.a, sel.b
    except ConstraintViolationError:
        if not force:
            raise
        log.warning("no contraction budget for c=%.3g; tracking with unit weights", c_val)

    alpha, beta = problem.alpha, problem.beta
    n, n_nodes = ensemble.n_paths, grid.nodes.size
    U = np.zeros((n, n_nodes, problem.m))
    V = np.zeros((n, n_nodes, problem.m, problem.d))
    deltas: list[float] = []
    ratios: list[float] = []
    converged = False

    for it in range(1, max_iter + 1):
        Y, Z, _ = gamma_step(problem, ensemble, U, V, basis=basis,
                             scheme=scheme, ridge=ridge)
        step_norm = equivalent_norm(Y - U, Z - V, ensemble.A, grid,
                                    alpha=alpha, beta=beta, a=a, b=b)
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

    mtg, rms = _consistency(problem, ensemble, U, V, scheme)
    diag = SolverDiagnostics(
        deltas=deltas, ratios=ratios, tol=tol, converged=converged,
        iterations=len(deltas), c=c_val, alpha=alpha, beta=beta, lam=lam,
        mu_lambda=mu, a=a, b=b, scheme=scheme, h1=h1, h2=h2,
        martingale_residual=mtg, self_consistency_rms=rms)
    if not converged:
        log.warning("iteration budget spent at squared distance %.3e > tol %.3e",
                    deltas[-1], tol)
    return Solution(Y=U, Z=V, diagnostics=diag, ensemble=ensemble)


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


def contraction_report(diagnostics: SolverDiagnostics,
                       slack: float = 0.1) -> ContractionReport:
    """Compare observed contraction ratios with the theoretical factor.

    The first ratio is warm-up (the starting point is arbitrary) and is
    dropped when there is anything after it.  Fewer than three outer steps
    cannot certify anything.
    """
    ratios = list(diagnostics.ratios)
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
