"""Backward scheme and outer fixed-point iteration.

One outer step freezes the delayed arguments at the previous iterate (U, V)
and solves the resulting standard backward equation for Y by least-squares
regression on one explicit backward sweep (Gobet, Lemor & Warin, AAP 2005),
which adds the Stieltjes increment G(t_i, U(t_i), U_{t_i}) dA_i, known at
t_i, to the value it projects at node i and evaluates F at the next value.
Iterating this map contracts in the weighted norm whenever the smallness
conditions hold; the solver tracks the contraction empirically and compares
it with the theoretical factor mu_lambda.  When the map reads no delay
window, only G's y through a G affine in y, and A is deterministic, the
fixed point at node i, Y_i = P_i[Y_{i+1} + dt F] + G(Y_i) dA_i, involves
node i and later nodes alone, so one sweep that solves G's affine equation
at its own node, per path and in one step, gives it; the Picard loop is
what a delayed driver, a G nonlinear in y or a random A needs.

Layout: path stacks are (n_paths, n_nodes, ...) and node-major
(path_calculus.node_major_zeros): the ensemble's W and random A, as
PathEnsemble keeps them, the sweep arrays, the Picard iterate and a random
A's norm weights.  The sweep reads each node of W and A in place, the
Picard distance walks the stacks in slabs of nodes (model.equivalent_norm's
minus, which pass 1, measured from the zero iterate, does without), and
solve returns the node-major stacks it swept, which consistency_residuals
reads in place.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (BlowupError, ConstraintViolationError,
                     GeneratorEvaluationError, GridAlignmentError,
                     NonContractionError)
from .model import (Preflight, ProblemSpec, equivalent_norm,
                    evaluate_generator, generator_reads, norm_weights,
                    preflight)
from .path_calculus import (delay_windows, is_integer, is_number, node_major_zeros,
                            stored_rows)
from .stochastic_engine import (PathEnsemble, RegressionBasis, RegressionPlan,
                                realize_increasing_process)
# not called here (model.preflight calls the checks, the solver reads windows
# through delay_windows); bench/tracing.py looks these names up here
from .model import check_H1, check_H2, select_lambda  # noqa: F401
from .path_calculus import delay_window as node_segment
from .stochastic_engine import conditional_expectation  # noqa: F401

__all__ = [
    "SolverDiagnostics",
    "Solution",
    "ContractionReport",
    "node_segment",
    "build_B",
    "gamma_step",
    "solve",
    "contraction_report",
    "consistency_residuals",
]

log = logging.getLogger(__name__)

BLOWUP_THRESHOLD = 1e8  # |Y| above this at a node raises BlowupError


def _read_only(X: np.ndarray) -> np.ndarray:
    """Read-only view of X, so that a generator cannot write into it."""
    view = X.view()
    view.flags.writeable = False
    return view


def _windows(X: np.ndarray, k: int, read: bool, kind: str = "state"):
    """delay_windows(X, k, kind) for a window the driver reads, else a reader
    of None: a read before node k would fill a head that nothing reads."""
    return delay_windows(X, k, kind) if read else lambda i: None


def _plan_for(ensemble: PathEnsemble, plan: RegressionPlan | None,
              basis: RegressionBasis | None = None) -> RegressionPlan:
    """plan when it serves ensemble (ValueError when not), or a new plan on
    basis (default RegressionBasis())."""
    if plan is None:
        return RegressionPlan(basis or RegressionBasis(), ensemble)
    if not plan.serves(ensemble):
        raise ValueError("the regression plan was built for another ensemble, "
                         "whose W or random A is not this one's")
    return plan


def _check_fit(problem: ProblemSpec, ensemble: PathEnsemble) -> None:
    """The one rule for an ensemble the outer map runs on: the problem's delay
    and horizon (else GridAlignmentError), d and a realized A (ValueError)."""
    grid = ensemble.grid
    if grid.delta is None:
        raise GridAlignmentError(
            "build the grid with the problem's delay (TimeGrid.uniform(..., delta=...))")
    for name, have, want in (("delay", grid.delta, problem.delta), ("horizon", grid.T, problem.T)):
        if abs(have - want) > 1e-9 * max(1.0, want):
            raise GridAlignmentError(f"grid {name} {have} does not match the problem {name} {want}")
    if ensemble.d != problem.d:
        raise ValueError(f"the ensemble has d={ensemble.d}, the problem d={problem.d}")
    ensemble.realized_A()


def _g_increment(problem: ProblemSpec, ctx, y: np.ndarray, seg, dA_i: np.ndarray):
    """G(t_i, y, y_seg) dA_i, known at t_i, with dA_i a column: build_B sums it
    along the iterate, the outer map adds it to its target, and the one-sweep
    path adds it, at the value it solves for, to that value.  A non-finite G
    raises GeneratorEvaluationError."""
    g = evaluate_generator(problem.G, "G", ctx, y, None, seg, None, finite=True)
    return np.multiply(g, dA_i)


def _iterate_reads(problem: ProblemSpec) -> frozenset:
    """What the outer map reads of its previous iterate: G's y and y_seg and
    F's delay windows (model.generator_reads); F's y and z are the sweep's."""
    return (generator_reads(problem.F) & {"y_seg", "z_seg"}
            | generator_reads(problem.G) & {"y", "y_seg"})


def _solved_at_its_node(problem: ProblemSpec, ensemble: PathEnsemble, dA: np.ndarray) -> bool:
    """Whether one sweep that solves G's equation at its own node gives the
    map's fixed point: G's y is all the map reads of its iterate, G is
    affine in y with coefficients known at t (its ``affine_in_y``, which
    the registry's "linear" G sets), so that it keeps a value in the
    regression span, and A is deterministic: the ensemble's ``A_spec`` is
    not random, or, for an A without a spec, dA stores one row.  A plan that
    serves the ensemble then regresses on no A."""
    spec = ensemble.A_spec
    deterministic = dA.shape[0] == 1 if spec is None else not spec.is_random
    return (_iterate_reads(problem) == {"y"} and getattr(problem.G, "affine_in_y", False)
            and deterministic)


def _affine_node_solve(problem: ProblemSpec, ctx, probes: np.ndarray, dA_i: np.ndarray,
                       base: np.ndarray, i: int) -> np.ndarray:
    """Y = base + G(Y) dA_i per path, for a G affine in y, in one step: with
    g0 = G(0) dA_i and S's column j G(e_j) dA_i - g0 (probes holds 0 and
    the e_j), Y = (I - S)^-1 (base + g0), one division for m = 1.  A path
    whose S has spectral radius >= 1, where iterating the equation cannot
    contract, raises NonContractionError naming node i, t and the factor."""
    g0, *cols = (_g_increment(problem, ctx, y, None, dA_i) for y in probes)
    m = len(cols)  # for m = 1, S is (n, 1), each path's entry its own spectral radius
    S = np.subtract(cols[0], g0, out=cols[0]) if m == 1 else np.stack(cols, -1) - g0[:, :, None]
    factor = np.abs(S if m == 1 else np.linalg.eigvals(S)).max()
    if not factor < 1.0:
        raise NonContractionError(f"G's equation at node {i} (t={ctx.t:.6g}) has factor "
                                  f"{factor:.3e} >= 1 on some path, so iterating it cannot contract")
    rhs = np.add(g0, base, out=g0)
    if m == 1:
        return np.divide(rhs, np.subtract(1.0, S, out=S), out=rhs)
    return np.linalg.solve(np.eye(m) - S, rhs[:, :, None])[:, :, 0]


def build_B(problem: ProblemSpec, ensemble: PathEnsemble, U: np.ndarray) -> np.ndarray:
    """Left-point running integral of G against A along the frozen iterate,
    as (n_paths, n_nodes, m) laid out node-major: the running sum of
    gamma_step's increments.  Refuses an ensemble that does not fit
    (_check_fit) or a non-finite G."""
    _check_fit(problem, ensemble)
    grid = ensemble.grid
    n, n_nodes, m = ensemble.n_paths, grid.nodes.size, problem.m
    B = node_major_zeros((n, n_nodes, m))
    if problem.G is None:
        return B
    dA = np.diff(stored_rows(ensemble.A), axis=1)
    U_in = _read_only(U)
    u_windows = _windows(U, grid.delta_index_offset, "y_seg" in generator_reads(problem.G))
    for j in range(n_nodes - 1):
        ctx = problem.context(grid, float(grid.nodes[j]), ensemble.W[:, j, :])
        # B(t_{j+1}) = B(t_j) + g dA_j in cumsum's order, one node block at a time
        B[:, j + 1] = _g_increment(problem, ctx, U_in[:, j], u_windows(j), dA[:, j, None])
        if j:
            B[:, j + 1] += B[:, j]
    return B


def gamma_step(problem: ProblemSpec, ensemble: PathEnsemble,
               U: np.ndarray, V: np.ndarray, *,
               plan: RegressionPlan | None = None, dA: np.ndarray | None = None):
    """One application of the outer map: (U, V) -> (Y, Z).

    Backward in time: add the Stieltjes increment G(U_i) dA_i, known at t_i,
    to the next value, project that target on the regression state, read
    the control from the centered increment correlation, then advance the
    value by projecting the target plus dt F, with F at the next value.

    ``plan`` (default RegressionPlan(RegressionBasis(), ensemble)) sets the
    regression, its basis, ridge and state, and carries the work that does
    not depend on (U, V) across calls on the same regression state; a plan
    that does not serve the ensemble (RegressionPlan.serves) raises
    ValueError.  ``dA`` (a solve's norm weights hold it) defaults to the
    increments of ensemble.A's stored rows.  F and G get read-only
    arguments.  It refuses an ensemble that does not fit the problem
    (_check_fit) or a non-finite G (GeneratorEvaluationError); a value
    above BLOWUP_THRESHOLD or not finite raises BlowupError.  Y and Z come
    back node-major whatever the layout of U and V.
    """
    return _sweep(problem, ensemble, U, V, plan, dA, node_g=False)


def _sweep(problem: ProblemSpec, ensemble: PathEnsemble, U: np.ndarray, V: np.ndarray,
           plan: RegressionPlan | None, dA: np.ndarray | None, *, node_g: bool) -> tuple:
    """(Y, Z): gamma_step's backward sweep, and with node_g solve's one
    sweep.  With node_g, G's increment leaves the regressed target, so the
    mean fit, Z and F come from the next value alone, and each node solves
    Y_i = base + G(Y_i) dA_i per path in one step (_affine_node_solve), with
    base the fit of the next value plus dt F; U and V are then not read.
    That is the map's fixed point only under _solved_at_its_node, and any
    other problem raises ValueError.  Each node forms its Z target in one
    scratch of the sweep and tests for blow-up with one reduction, max |Y_i|
    <= BLOWUP_THRESHOLD, which a NaN or an infinity on any path fails."""
    _check_fit(problem, ensemble)
    grid = ensemble.grid
    plan = _plan_for(ensemble, plan)
    k = grid.delta_index_offset
    n, m, d, n_nodes = ensemble.n_paths, problem.m, problem.d, grid.nodes.size
    steps = grid.steps()
    W = ensemble.W
    if dA is None:
        dA = np.diff(stored_rows(ensemble.A), axis=1)
    if node_g and not _solved_at_its_node(problem, ensemble, dA):
        raise ValueError("G is solved at its own node only when G's y is all the map "
                         "reads of its iterate, G is affine in y and A is deterministic")

    xi = problem.terminal(ensemble)
    if not np.all(np.isfinite(xi)):
        raise GeneratorEvaluationError("terminal values are not finite")

    Y = node_major_zeros((n, n_nodes, m))
    Z = node_major_zeros((n, n_nodes, m, d))
    Y_in, Z_in, U_in = _read_only(Y), _read_only(Z), _read_only(U)
    Y[:, -1] = xi
    f_reads = generator_reads(problem.F)
    u_windows = _windows(U, k, "y_seg" in (f_reads | generator_reads(problem.G)))
    v_windows = _windows(V, k, "z_seg" in f_reads, kind="control")
    if node_g:  # G's arguments in its affine solve: 0, then each e_j
        probes = np.broadcast_to(np.eye(m + 1, m, -1)[:, None], (m + 1, n, m))
    z_target = np.empty((n, m, d))  # each node's Z target, formed in place

    for i in range(n_nodes - 2, -1, -1):
        dt = float(steps[i])
        dW = W[:, i + 1] - W[:, i]
        design = plan.design(i)
        nxt = Y_in[:, i + 1]
        ctx = problem.context(grid, float(grid.nodes[i]), W[:, i])
        seg_y = u_windows(i)
        tgt = nxt
        if problem.G is not None and not node_g:
            tgt = _g_increment(problem, ctx, U_in[:, i], seg_y, dA[:, i, None])
            tgt += nxt

        mean_fit, _ = plan.fit(i, design, tgt)
        np.subtract(tgt[:, :, None], mean_fit[:, :, None], out=z_target)
        z_target *= dW[:, None, :]
        z_target /= dt
        z_fit, _ = plan.fit(i, design, z_target.reshape(n, m * d))
        Z[:, i] = z_fit.reshape(n, m, d)

        cur = mean_fit
        if problem.F is not None:
            drv = evaluate_generator(problem.F, "F", ctx, nxt, Z_in[:, i], seg_y, v_windows(i))
            cur, _ = plan.fit(i, design, tgt + dt * drv)
        if node_g:
            cur = _affine_node_solve(problem, ctx, probes, dA[:, i, None], cur, i)
        if not np.abs(cur).max() <= BLOWUP_THRESHOLD:  # a NaN on any path fails it too
            raise BlowupError(f"value iterate exploded at node {i} (t={ctx.t:.6g})")
        Y[:, i] = cur
        del design  # free it before the next node builds its own

    Z[:, -1] = Z[:, -2]
    return Y, Z


@dataclass(frozen=True)
class SolverDiagnostics:
    """What solve recorded: each pass's squared distance and ratio, tol,
    converged and iterations, the norm's alpha, beta, a, b and mu_lambda
    (None without a contracting lambda), and the preflight record."""

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
    preflight: Preflight | None = None
    # 1 when the one sweep solved G's equation at its own node, 0 otherwise
    node_passes: int = 0


@dataclass(frozen=True)
class Solution:
    """Y as (n_paths, n_nodes, m) and Z as (n_paths, n_nodes, m, d), the
    node-major stacks solve swept: Y[:, i] is one contiguous block, and
    np.ascontiguousarray(Y) gives contiguous per-path rows."""

    Y: np.ndarray
    Z: np.ndarray
    diagnostics: SolverDiagnostics
    ensemble: PathEnsemble

    @property
    def initial_value(self) -> np.ndarray:
        return self.Y[:, 0, :].mean(axis=0)


def consistency_residuals(problem: ProblemSpec, solution: Solution) -> tuple:
    """(martingale_residual, self_consistency_rms), which solve does not
    compute: the largest |path mean| and the RMS of the residuals R_i =
    Y_{i+1} - Y_i + F dt + G dA_i - Z_i dW_i, with F at Y_{i+1} as the
    sweep evaluates it, from F and G at every node of read-only views of Y, Z and W in the layout they
    have (every read is per node, so any layout gives the same bits), dA
    from A's stored rows, and R built and reduced in C order.  Refuses an
    unfit problem (_check_fit)."""
    ensemble = solution.ensemble
    _check_fit(problem, ensemble)
    grid = ensemble.grid
    k, steps = grid.delta_index_offset, grid.steps()
    Y, Z, W = (_read_only(X) for X in (solution.Y, solution.Z, ensemble.W))
    dA = np.diff(stored_rows(ensemble.A), axis=1)
    f_reads = generator_reads(problem.F)
    y_windows = _windows(Y, k, "y_seg" in (f_reads | generator_reads(problem.G)))
    z_windows = _windows(Z, k, "z_seg" in f_reads, kind="control")
    R = np.zeros((Y.shape[0], grid.n_steps, Y.shape[2]))
    for i in range(grid.n_steps):
        dt = float(steps[i])
        ctx = problem.context(grid, float(grid.nodes[i]), W[:, i])
        acc = Y[:, i + 1] - Y[:, i]
        if problem.F is not None:
            acc = acc + dt * evaluate_generator(
                problem.F, "F", ctx, Y[:, i + 1], Z[:, i], y_windows(i), z_windows(i))
        if problem.G is not None:
            acc = acc + dA[:, i, None] * evaluate_generator(
                problem.G, "G", ctx, Y[:, i], None, y_windows(i), None)
        R[:, i] = acc - np.einsum("nmd,nd->nm", Z[:, i], W[:, i + 1] - W[:, i], optimize=False)
    return float(np.max(np.abs(R.mean(axis=0)))), float(np.sqrt(np.mean(R ** 2)))


def solve(problem: ProblemSpec, ensemble: PathEnsemble, *,
          basis: RegressionBasis | None = None,
          plan: RegressionPlan | None = None, tol: float = 1e-6,
          max_iter: int = 25, force: bool = False) -> Solution:
    """Iterate the outer map from (0, 0) until the successive squared
    distance in the contraction norm is at most tol or max_iter passes have
    run.  A tol not a finite number >= 0 or a max_iter not an integer >= 1
    raises ValueError before anything runs.

    ``plan`` sets the regression as in gamma_step and may be shared by the
    solves on one regression state (RegressionPlan.serves); ``basis`` is
    short for RegressionPlan(basis, ensemble) on the realized ensemble, and
    passing both raises ValueError.  Realizes A if need be, refuses an
    ensemble that does not fit the problem (_check_fit), then runs
    model.preflight at the problem's own budget (effective_c) and refuses
    when any of its checks fails, unless force=True, with a
    ConstraintViolationError whose cause is one naming the failed checks
    alone; the record is kept as diagnostics.preflight either way.  dA and
    the norm weights are the solve's, built once from ensemble.A: node-major
    for a random A, one row for a deterministic A, whose row is not copied.

    The map reads the previous iterate only through G's y and y_seg and
    F's delay windows (model.generator_reads).  Two kinds of problem sweep
    once, since the result of one sweep is the fixed point: a map that reads
    none of them, whose pass 2 would repeat pass 1 bit for bit, and one that
    reads G's y alone, through a G affine in y (its ``affine_in_y``), with a
    deterministic A (the ensemble's ``A_spec`` says so, whatever A's
    layout; an A without a spec needs one stored row), whose fixed point at
    node i involves node i and later nodes only, so that pass 1 solves G's
    equation at its own node (_sweep's node_g; a G nonlinear in y or
    reading the context's w leaves the regression span and keeps the loop),
    in one step, where a node whose equation cannot contract raises
    NonContractionError, and diagnostics.node_passes is 1.  Pass 2 is then skipped (logged at INFO)
    and recorded as what it would give: the distance 0.0, the ratio 0.0,
    iterations == 2 and converged.  This needs max_iter >= 2 and a pass 1 that did not
    converge.  A random A and every delayed driver keep the Picard loop, and
    so does a generator without ``reads``, which counts as reading
    everything.
    Raises NonContractionError when the iteration budget is spent while the
    distances have stopped shrinking.  F and G are evaluated only in the
    passes and the preflight; consistency_residuals gives the residuals.
    """
    if not (is_number(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    if not is_integer(max_iter, 1):
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if basis is not None and plan is not None:
        raise ValueError("pass basis or plan, not both")
    if ensemble.A is None:
        ensemble = realize_increasing_process(problem.A_spec, ensemble)
    _check_fit(problem, ensemble)
    grid = ensemble.grid

    checks = preflight(problem, ensemble)
    if checks.failures and not force:
        # the cause holds the failed checks alone, for a front end that words its own hint
        failed = ConstraintViolationError("; ".join(checks.failures.values()))
        raise ConstraintViolationError(f"{failed}; pass force=True to run anyway") from failed
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
    plan = _plan_for(ensemble, plan, basis)
    # in A's layout: one row for a broadcast (deterministic) A, else node-major
    weights = norm_weights(ensemble.A, grid, alpha, beta)
    node_g = _solved_at_its_node(problem, ensemble, weights[1])
    one_sweep = node_g or not _iterate_reads(problem)
    node_passes = int(node_g)

    for it in range(1, max_iter + 1):
        if it == 2 and one_sweep:
            log.info("outer step 2 skipped: step 1 gave the fixed point, so it would "
                     "repeat step 1 at squared distance 0; node passes %d", node_passes)
            deltas.append(0.0)
            ratios.append(0.0)
            converged = True
            break
        if node_g:
            Y, Z = _sweep(problem, ensemble, U, V, plan, weights[1], node_g=True)
        else:
            Y, Z = gamma_step(problem, ensemble, U, V, plan=plan, dA=weights[1])
        # pass 1 starts from the zero iterate, and x - 0.0 == x
        step_norm = equivalent_norm(Y, Z, ensemble.A, grid, alpha=alpha, beta=beta,
                                    a=a, b=b, weights=weights,
                                    minus=None if it == 1 else (U, V))
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

    diag = SolverDiagnostics(
        deltas=deltas, ratios=ratios, tol=tol, converged=converged,
        iterations=len(deltas), alpha=alpha, beta=beta, mu_lambda=mu, a=a, b=b,
        preflight=checks, node_passes=node_passes)
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
