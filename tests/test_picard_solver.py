"""Backward sweep and outer iteration against independent oracles.

Oracle notes:

* deterministic delay ODE y(t) = xi + int_t^T kappa y(s - delta) ds with
  prolongation y(s) = y(0) for s < 0: fine-grid (1e5 steps) left-rule sweeps,
  iterated to a fixed point (delay_ode_oracle below).
* linear equation with A = t and terminal W(T):
  Y_t = e^{(a_y + b)(T - t)} (W_t + a_z (T - t)), Z_t = e^{(a_y + b)(T - t)},
  so Y_0 = e^{0.3} * 0.1 and Z_0 = e^{0.3} for a_y = 0.2, a_z = 0.1, b = 0.1.
* pure Stieltjes coupling G = 0.5 y, A = t, xi = 1: Y(t) = e^{0.5 (1 - t)};
  the discrete fixed point is prod (1 - 0.5 dt)^{-1} = e^{0.5} + O(dt).
* martingale case (no drivers, xi = W(T)): Y = W, Z = 1 exactly.
* delayed drift F = kappa y(t - delta) with xi = W(T): the sweep's
  Y paths, linear in W, from the coefficient-space fixed point in oracles.py.
"""

import itertools
import logging
from dataclasses import replace

import numpy as np
import pytest

from delaybsde import (model, path_calculus, picard_solver, registry, stability_lab,
                       stochastic_engine)
from delaybsde.errors import (BlowupError, ConstraintViolationError,
                              GeneratorEvaluationError, GridAlignmentError,
                              NonContractionError, SingularSystemError)
from delaybsde.model import (AtomMeasure, ProblemSpec, check_integrability,
                            equivalent_norm)
from delaybsde.path_calculus import TimeGrid, delay_windows, stored_rows
from delaybsde.picard_solver import (ContractionReport, build_B,
                                     consistency_residuals,
                                     contraction_report, gamma_step,
                                     node_segment, solve)
from delaybsde.stochastic_engine import (IncreasingProcessSpec,
                                         RegressionBasis,
                                         realize_increasing_process,
                                         simulate_brownian)

from layouts import LAYOUT_SPECS, is_node_major, node_major, relaid, spy_on_node_major
from oracles import delayed_linear_coefficients

E = float(np.e)
IDENTITY_A = IncreasingProcessSpec("deterministic", {"shape": "identity"})


def make_problem(**overrides):
    fields = dict(
        T=1.0, delta=0.1,
        xi=registry.build_terminal({"name": "constant", "params": {"value": 0.0}}),
        A_spec=IDENTITY_A,
        beta=4.0, L=1.0, L_tilde=1.0, K=5e-4, K_tilde=2e-4, c=1.5e-3,
    )
    fields.update(overrides)
    return ProblemSpec(**fields)


def make_ensemble(n_paths, n_steps=20, T=1.0, delta=0.1, seed=0, spec=IDENTITY_A):
    grid = TimeGrid.uniform(T, n_steps, delta=delta)
    ens = simulate_brownian(grid, n_paths, seed=seed)
    return realize_increasing_process(spec, ens)


def diagnostics():
    """Diagnostics of a hand-built Solution, which consistency_residuals
    does not read."""
    return picard_solver.SolverDiagnostics(
        deltas=[], ratios=[], tol=0.0, converged=True, iterations=0, alpha=0.0,
        beta=0.0, mu_lambda=None, a=1.0, b=1.0)


# ------------------------------------------------------------------ oracles

def delay_ode_oracle(T, delta, kappa, xi, n=100_000, sweeps=60):
    """Fine-grid fixed point of y(t) = xi + int_t^T kappa y(s-delta) ds."""
    dt = T / n
    k = int(round(delta / dt))
    y = np.full(n + 1, float(xi))
    idx = np.clip(np.arange(n + 1) - k, 0, None)
    for _ in range(sweeps):
        integrand = kappa * y[idx]
        tail = np.concatenate([np.cumsum(integrand[:-1][::-1])[::-1], [0.0]])
        y_new = xi + dt * tail
        if float(np.max(np.abs(y_new - y))) < 1e-14:
            y = y_new
            break
        y = y_new
    return y


def build_B_bruteforce(b, gamma, rho_w, U, A, k):
    """Left sums for G(t, y, seg) = b y + gamma * int seg drho_tilde."""
    n, n_nodes, m = U.shape
    B = np.zeros((n, n_nodes, m))
    for p in range(n):
        for i in range(1, n_nodes):
            acc = np.zeros(m)
            for j in range(i):
                seg_val = np.zeros(m)
                for l in range(k + 1):
                    src = max(j - k + l, 0)
                    seg_val += rho_w[l] * U[p, src]
                g = b * U[p, j] + gamma * seg_val
                acc = acc + g * (A[p, j + 1] - A[p, j])
            B[p, i] = acc
    return B


# ----------------------------------------------------------------- segments

def clipped_gather(stack, i, k, kind):
    """Window at node i by fancy indexing: nodes i-k .. i clipped to 0, and
    the nodes before 0 zeroed for controls."""
    idx = np.arange(i - k, i + 1)
    out = stack[:, np.clip(idx, 0, None)]
    if kind == "control":
        out[:, idx < 0] = 0.0
    return out


def test_node_segment_prolongation():
    X = np.arange(12.0).reshape(2, 6, 1)
    seg = node_segment(X, 1, 3)
    # nodes -2, -1, 0, 1 clipped to 0, 0, 0, 1
    assert seg[:, :, 0].tolist() == [[0, 0, 0, 1], [6, 6, 6, 7]]
    seg = node_segment(X, 1, 3, kind="control")
    assert seg[:, :, 0].tolist() == [[0, 0, 0, 1], [0, 0, 6, 7]]
    seg = node_segment(X, 5, 2)
    assert seg[0, :, 0].tolist() == [3, 4, 5]
    # every node of small state (n, nodes, m) and control (n, nodes, m, d)
    # stacks against the clipped-index gather, nodes before 0 zeroed for controls
    rng = np.random.default_rng(5)
    for kind, trailing in itertools.product(("state", "control"), ((1,), (2, 3))):
        stack = rng.normal(size=(3, 9) + trailing)
        for k, i in itertools.product((1, 3, 8), range(9)):
            assert np.array_equal(node_segment(stack, i, k, kind=kind),
                                  clipped_gather(stack, i, k, kind))


def test_delay_windows_are_views_of_x_or_of_one_head():
    rng = np.random.default_rng(6)
    for kind, trailing in itertools.product(("state", "control"), ((1,), (2, 3))):
        # 3 stored nodes: fewer than k = 8, so the head is only partly stored
        for n_nodes, k in itertools.product((9, 3), (1, 3, 8)):
            stack = rng.normal(size=(3, n_nodes) + trailing)
            windows = delay_windows(stack, k, kind)
            head_windows = []
            for i in range(n_nodes):
                window = windows(i)
                assert np.array_equal(window, clipped_gather(stack, i, k, kind))
                assert not window.flags.writeable
                assert np.shares_memory(window, stack) == (i >= k)
                if i < k:
                    head_windows.append(window)
            assert all(w.base is head_windows[0].base for w in head_windows)
            assert stack.flags.writeable


def test_delay_windows_refuse_nodes_outside_the_stack():
    X = np.arange(12.0).reshape(2, 6, 1)
    for i in (6, 7, -1):
        with pytest.raises(IndexError):
            node_segment(X, i, 2)
        with pytest.raises(IndexError):
            delay_windows(X, 2, kind="control")(i)
    with pytest.raises(ValueError):
        node_segment(X, 3, -1)
    with pytest.raises(ValueError):
        delay_windows(X, -1)


def test_node_segment_windows_are_read_only():
    X = np.arange(24.0).reshape(2, 12, 1)
    # past the first k nodes the window is a view of the iterate
    assert np.shares_memory(node_segment(X, 5, 3), X)
    for i in (0, 2, 3, 11):
        for kind in ("state", "control"):
            assert not node_segment(X, i, 3, kind=kind).flags.writeable
    assert X.flags.writeable


@pytest.mark.parametrize("which, arg", [
    pytest.param("F", "y_seg", id="F"),
    pytest.param("G", "y_seg", id="G"),
    pytest.param("F", "y", id="F-y"),
    pytest.param("F", "z", id="F-z"),
    pytest.param("G", "y", id="G-y"),
])
def test_generator_cannot_write_into_iterate(which, arg):
    # the generator `which` writes into its argument `arg`, in the sweep and
    # in the consistency residuals
    def F(t, y, z, y_seg, z_seg, ctx):
        {"y": y, "z": z, "y_seg": y_seg}[arg][:] = 0.0
        return y

    def G(t, y, y_seg, ctx):
        {"y": y, "y_seg": y_seg}[arg][:] = 0.0
        return y

    ens = make_ensemble(16)
    prob = make_problem(**{which: F if which == "F" else G})
    U = np.ones((16, 21, 1))
    V = np.ones((16, 21, 1, 1))
    with pytest.raises(ValueError, match="read-only"):
        gamma_step(prob, ens, U, V)
    sol = picard_solver.Solution(Y=U, Z=V, diagnostics=diagnostics(), ensemble=ens)
    with pytest.raises(ValueError, match="read-only"):
        consistency_residuals(prob, sol)
    assert np.all(U == 1.0) and np.all(V == 1.0)


# ------------------------------------------------------------------ build_B

def test_build_B_constant_driver_exact():
    ens = make_ensemble(4, n_steps=50)
    prob = make_problem(G=registry.build_G({"name": "constant", "params": {"value": 1.0}}))
    U = np.zeros((4, 51, 1))
    B = build_B(prob, ens, U)
    assert np.allclose(B[:, :, 0], ens.grid.nodes[None, :], atol=1e-14)


def test_build_B_matches_bruteforce():
    rng = np.random.default_rng(8)
    ens = make_ensemble(3, n_steps=10, spec=IncreasingProcessSpec(
        "deterministic", {"shape": "power", "exponent": 2.0}))
    k = ens.grid.delta_index_offset
    rho = AtomMeasure.uniform(0.1, 3)
    prob = make_problem(
        G=registry.build_G({"name": "linear_plus_rho",
                            "params": {"b": 0.3, "gamma": 0.2}}),
        rho_tilde=rho)
    U = rng.normal(size=(3, 11, 1))
    B = build_B(prob, ens, U)
    rho_w = rho.project(0.1, k)
    expected = build_B_bruteforce(0.3, 0.2, rho_w, U, ens.A, k)
    assert np.allclose(B, expected, atol=1e-12)


def test_build_B_rejects_bad_generator():
    ens = make_ensemble(2, n_steps=10)

    def bad(t, y, y_seg, ctx):
        return np.full_like(y, np.nan)

    prob = make_problem(G=bad)
    with pytest.raises(GeneratorEvaluationError):
        build_B(prob, ens, np.zeros((2, 11, 1)))
    # the sweep evaluates G at its own node and refuses it the same way
    with pytest.raises(GeneratorEvaluationError, match="G returned a non-finite value"):
        gamma_step(prob, ens, np.zeros((2, 11, 1)), np.zeros((2, 11, 1, 1)))


# --------------------------------------------------------------- gamma_step

def test_gamma_step_martingale_case():
    ens = make_ensemble(20000, n_steps=20)
    prob = make_problem(xi=registry.build_terminal({"name": "brownian", "params": {}}))
    U = np.zeros((20000, 21, 1))
    V = np.zeros((20000, 21, 1, 1))
    Y, Z = gamma_step(prob, ens, U, V)
    assert np.array_equal(Y[:, -1, 0], ens.W[:, -1, 0])
    err = np.sqrt(np.mean((Y[:, :, 0] - ens.W[:, :, 0]) ** 2))
    assert err < 0.02
    assert np.sqrt(np.mean((Z - 1.0) ** 2)) < 0.05


def test_gamma_step_two_dimensional_value():
    ens = make_ensemble(4000, n_steps=10)

    def xi(ensemble):
        w = ensemble.W[:, -1, 0]
        return np.stack([w, -w], axis=1)

    prob = make_problem(xi=xi, m=2)
    U = np.zeros((4000, 11, 2))
    V = np.zeros((4000, 11, 2, 1))
    Y, Z = gamma_step(prob, ens, U, V)
    assert np.sqrt(np.mean((Y[:, :, 0] - ens.W[:, :, 0]) ** 2)) < 0.05
    assert np.sqrt(np.mean((Y[:, :, 1] + ens.W[:, :, 0]) ** 2)) < 0.05
    assert abs(np.mean(Z[:, :-1, 0, 0]) - 1.0) < 0.05
    assert abs(np.mean(Z[:, :-1, 1, 0]) + 1.0) < 0.05


def test_gamma_step_deterministic_stieltjes_exact():
    # no driver F, G = 1: Y(t) = A(T) - A(t) and Z = 0 up to float noise
    spec = IncreasingProcessSpec("deterministic", {"shape": "power", "exponent": 2.0})
    ens = make_ensemble(50, n_steps=100, spec=spec)
    prob = make_problem(G=registry.build_G({"name": "constant", "params": {"value": 1.0}}))
    U = np.zeros((50, 101, 1))
    V = np.zeros((50, 101, 1, 1))
    Y, Z = gamma_step(prob, ens, U, V)
    want = (1.0 - ens.grid.nodes ** 2)[None, :]
    # float + ridge noise only (the 1e-10 ridge perturbs each of the 100 fits)
    assert np.max(np.abs(Y[:, :, 0] - want)) < 1e-8
    assert np.max(np.abs(Z)) < 1e-8


def test_gamma_step_affine_in_frozen_arguments():
    ens = make_ensemble(200, n_steps=10, seed=3)
    prob = make_problem(
        F=registry.build_F({"name": "linear_plus_rho",
                            "params": {"a_y": 0.3, "a_z": 0.2, "kappa_rho": 0.1,
                                       "kappa_z_rho": 0.05}}),
        G=registry.build_G({"name": "linear_plus_rho",
                            "params": {"b": 0.2, "gamma": 0.1}}),
        xi=registry.build_terminal({"name": "brownian", "params": {}}))
    rng = np.random.default_rng(9)
    U1 = rng.normal(size=(200, 11, 1))
    V1 = rng.normal(size=(200, 11, 1, 1))
    U2 = rng.normal(size=(200, 11, 1))
    V2 = rng.normal(size=(200, 11, 1, 1))
    lam = 0.3
    Y1, Z1 = gamma_step(prob, ens, U1, V1)
    Y2, Z2 = gamma_step(prob, ens, U2, V2)
    Ym, Zm = gamma_step(prob, ens, lam * U1 + (1 - lam) * U2,
                        lam * V1 + (1 - lam) * V2)
    assert np.allclose(Ym, lam * Y1 + (1 - lam) * Y2, atol=1e-9)
    assert np.allclose(Zm, lam * Z1 + (1 - lam) * Z2, atol=1e-9)


def test_gamma_step_blowup():
    ens = make_ensemble(100, n_steps=20, seed=5)

    def huge(t, y, z, y_seg, z_seg, ctx):
        return 1e6 * y

    prob = make_problem(F=huge, xi=registry.build_terminal(
        {"name": "constant", "params": {"value": 1.0}}))
    U = np.zeros((100, 21, 1))
    V = np.zeros((100, 21, 1, 1))
    with pytest.raises(BlowupError):
        gamma_step(prob, ens, U, V)


def test_a_value_that_is_nan_on_one_path_blows_up_at_its_node():
    # the blow-up check fails a node where one path alone is NaN, not only a
    # node where every path is: the fit at node 6 returns NaN on path 17
    ens = make_ensemble(50, n_steps=10, seed=36)

    class OneNaN(stochastic_engine.RegressionPlan):
        def fit(self, step, design, targets):
            fitted, theta = super().fit(step, design, targets)
            if step == 6:
                fitted[17] = np.nan
            return fitted, theta

    prob = make_problem(xi=registry.build_terminal({"name": "brownian", "params": {}}))
    U, V = np.zeros((50, 11, 1)), np.zeros((50, 11, 1, 1))
    with pytest.raises(BlowupError, match=r"value iterate exploded at node 6 \(t=0\.6\)"):
        gamma_step(prob, ens, U, V, plan=OneNaN(RegressionBasis(), ens))



def test_gamma_step_refuses_a_terminal_that_is_not_finite():
    ens = make_ensemble(50, seed=5)

    def xi(ensemble):
        return np.full((ensemble.n_paths, 1), np.inf)

    with pytest.raises(GeneratorEvaluationError, match="^terminal values are not finite$"):
        gamma_step(make_problem(xi=xi), ens, np.zeros((50, 21, 1)), np.zeros((50, 21, 1, 1)))


def call_the_map(fn, problem, ens):
    """build_B, gamma_step or solve of problem on ens from a zero iterate."""
    n, n_nodes = ens.n_paths, ens.grid.nodes.size
    U = np.zeros((n, n_nodes, problem.m))
    if fn == "build_B":
        return build_B(problem, ens, U)
    if fn == "gamma_step":
        return gamma_step(problem, ens, U, np.zeros((n, n_nodes, problem.m, ens.d)))
    return solve(problem, ens, force=True)


LINEAR_G = registry.build_G({"name": "linear", "params": {"b": 0.1}})
# reads its window as well as y (K1 = gamma^2 = 1e-4 <= make_problem's
# K_tilde), so the map reads a window of its iterate and solve loops
LINEAR_RHO_G = registry.build_G({"name": "linear_plus_rho", "params": {"b": 0.1, "gamma": 0.01}})


def test_build_B_refuses_a_grid_without_a_delay():
    # without the check, build_B read each node's own value as its delayed one
    grid = TimeGrid.uniform(1.0, 20)
    ens = realize_increasing_process(IDENTITY_A, simulate_brownian(grid, 10, seed=0))
    with pytest.raises(GridAlignmentError, match="delay"):
        call_the_map("build_B", make_problem(G=LINEAR_G), ens)


@pytest.mark.parametrize("fn", ["build_B", "gamma_step"])
def test_the_map_refuses_a_grid_with_another_delay_or_horizon(fn):
    # a sweep on the wrong lag would solve a different delayed equation
    prob = make_problem(G=LINEAR_G, delta=0.5)
    with pytest.raises(GridAlignmentError, match="grid delay 0.25 does not match "
                                                 "the problem delay 0.5"):
        call_the_map(fn, prob, make_ensemble(10, n_steps=20, delta=0.25))
    with pytest.raises(GridAlignmentError, match="horizon"):
        call_the_map(fn, prob, make_ensemble(10, n_steps=40, T=2.0, delta=0.5))


@pytest.mark.parametrize("fn", ["build_B", "gamma_step", "solve"])
def test_the_map_refuses_an_ensemble_of_another_dimension(fn):
    # solve used to die in a reshape, and build_B ran
    with pytest.raises(ValueError, match="the ensemble has d=1, the problem d=2"):
        call_the_map(fn, make_problem(G=LINEAR_G, d=2), make_ensemble(10))


@pytest.mark.parametrize("fn", ["build_B", "gamma_step"])
def test_the_map_refuses_an_ensemble_without_A(fn):
    # both used to die in an AttributeError on ensemble.A
    grid = TimeGrid.uniform(1.0, 20, delta=0.1)
    with pytest.raises(ValueError, match="ensemble carries no realized A"):
        call_the_map(fn, make_problem(G=LINEAR_G), simulate_brownian(grid, 10, seed=0))


def test_solve_realizes_a_running_max_A_only_on_an_ensemble_that_has_its_component():
    # without the check, realizing A on the ensemble raised an IndexError
    spec = IncreasingProcessSpec("running_max", {"component": 1})
    grid = TimeGrid.uniform(1.0, 20, delta=0.1)
    with pytest.raises(ValueError, match="component 1, so needs d > 1, got d=1"):
        solve(make_problem(A_spec=spec, d=2), simulate_brownian(grid, 10, seed=0))


def test_gamma_step_requires_delay_grid():
    grid = TimeGrid.uniform(1.0, 20)
    ens = simulate_brownian(grid, 10, seed=0)
    ens = realize_increasing_process(IDENTITY_A, ens)
    prob = make_problem()
    with pytest.raises(GridAlignmentError):
        gamma_step(prob, ens, np.zeros((10, 21, 1)), np.zeros((10, 21, 1, 1)))


def test_gamma_step_singular_design_without_ridge():
    # a "time_integral" A with a constant rate is random in kind only: its
    # extra regression column t * rate is collinear with the intercept
    spec = IncreasingProcessSpec("time_integral", {"functional": "constant"})
    ens = make_ensemble(200, n_steps=10, spec=spec)
    prob = make_problem(xi=registry.build_terminal({"name": "brownian", "params": {}}))
    U = np.zeros((200, 11, 1))
    V = np.zeros((200, 11, 1, 1))
    plan = stochastic_engine.RegressionPlan(RegressionBasis(ridge=0.0), ens)
    with pytest.raises(SingularSystemError):
        gamma_step(prob, ens, U, V, plan=plan)
    Y, _ = gamma_step(prob, ens, U, V)
    assert np.all(np.isfinite(Y))


def test_gamma_step_rejects_plan_of_another_ensemble():
    ens = make_ensemble(20, n_steps=10)
    plan = stochastic_engine.RegressionPlan(
        RegressionBasis(), make_ensemble(20, n_steps=10, seed=1))
    with pytest.raises(ValueError, match="another ensemble"):
        gamma_step(make_problem(), ens, np.zeros((20, 11, 1)),
                   np.zeros((20, 11, 1, 1)), plan=plan)
    # the same W with another random A is another regression state
    spec = IncreasingProcessSpec("running_max", {})
    random_A = realize_increasing_process(spec, ens)
    plan = stochastic_engine.RegressionPlan(RegressionBasis(), random_A)
    with pytest.raises(ValueError, match="another ensemble"):
        gamma_step(make_problem(A_spec=spec), realize_increasing_process(spec, ens),
                   np.zeros((20, 11, 1)), np.zeros((20, 11, 1, 1)), plan=plan)


# ----------------------------------------- Stieltjes feedback, product oracle

def product_factors(A_row, dt, b, a_y):
    """c_i of the sweep's fixed point Y_i = c_i W_i for F = a_y y, G = b y and
    xi = W(T): c_N = 1 and c_i = c_{i+1} (1 + a_y dt)/(1 - b dA_i)."""
    step = (1 + a_y * dt) / (1 - b * np.diff(A_row))
    return np.append(np.cumprod(step[::-1])[::-1], 1.0)


@pytest.mark.parametrize("seed", [23, 7])
@pytest.mark.parametrize("a_y", [0.0, 0.3])
def test_feedback_G_paths_match_the_product_oracle(seed, a_y):
    # G = 0.5y makes the running integral of G a path functional that no
    # polynomial in W(t_i) represents; regressing it with the target left
    # a path RMSE of 0.11-0.16 here
    F = registry.build_F({"name": "linear", "params": {"a_y": a_y}}) if a_y else None
    prob = make_problem(F=F, G=registry.build_G({"name": "linear", "params": {"b": 0.5}}),
                        xi=registry.build_terminal({"name": "brownian", "params": {}}))
    ens = make_ensemble(2000, n_steps=50, seed=seed)
    sol = solve(prob, ens, basis=RegressionBasis(degree=2))
    assert sol.diagnostics.converged
    c = product_factors(stored_rows(ens.A)[0], 1 / 50, 0.5, a_y)
    rmse = float(np.sqrt(np.mean((sol.Y[:, :, 0] - c * ens.W[:, :, 0]) ** 2)))
    assert rmse <= 0.06


@pytest.mark.parametrize("seed", [23, 5])
def test_feedback_family_errors_match_their_closed_form(seed):
    # run_stability's error per member, E sup|Y_n - Y|^2 + E int |Z_n - Z|^2
    # dt, against the same functional of the exact fixed points Y_i = c_i W_i,
    # Z_i = c_{i+1} on the same W; the family's verdict passed either way
    n_values, n_paths, n_steps = (1, 2, 4, 8, 16), 2000, 100
    base = make_problem(G=registry.build_G({"name": "linear", "params": {"b": 0.5}}),
                        xi=registry.build_terminal({"name": "brownian", "params": {}}),
                        K=0.0, K_tilde=0.0)
    family = stability_lab.oscillatory_A_family(base, n_values)
    report = stability_lab.run_stability(family, n_paths=n_paths, n_steps=n_steps,
                                         seed=seed, basis=RegressionBasis(degree=2))
    grid = TimeGrid.uniform(1.0, n_steps, delta=0.1)
    driving = simulate_brownian(grid, n_paths, seed=seed)

    def exact(problem):
        """(Y, Z, A) of problem's fixed point on the driving paths."""
        A = realize_increasing_process(problem.A_spec, driving).A
        c = product_factors(stored_rows(A)[0], 1 / n_steps, 0.5, 0.0)
        Z = np.broadcast_to(np.append(c[1:], 1.0)[None, :, None, None],
                            (n_paths, n_steps + 1, 1, 1))
        return c[None, :, None] * driving.W, Z, A

    Y0, Z0, A0 = exact(base)
    for member, row in zip(family.members, report.rows):
        Yn, Zn, _ = exact(member)
        want = equivalent_norm(Yn - Y0, Zn - Z0, A0, grid, alpha=0.0, beta=0.0,
                               a=0.0, b=1.0).total
        assert 0.9 <= row.error / want <= 1.1, (member.A_spec.params["n"], row.error / want)


# ------------------------------------------------------------------- layout

def segment_problem(delta=0.1):
    """F and G read (y, z) and their delay segments; A is random, so the
    regressions carry the extra A(t_i) column."""
    return make_problem(
        delta=delta,
        F=registry.build_F({"name": "linear_plus_rho",
                            "params": {"a_y": 0.3, "a_z": 0.2, "kappa_rho": 0.1,
                                       "kappa_z_rho": 0.05}}),
        G=registry.build_G({"name": "linear_plus_rho", "params": {"b": 0.2, "gamma": 0.1}}),
        xi=registry.build_terminal({"name": "brownian", "params": {}}),
        rho=AtomMeasure.uniform(delta, 3), rho_tilde=AtomMeasure.uniform(delta, 2),
        A_spec=IncreasingProcessSpec("time_integral", {"functional": "inv_quadratic"}))


def test_gamma_step_and_build_B_ignore_input_layout():
    prob = segment_problem()
    ens = make_ensemble(300, n_steps=20, seed=6, spec=prob.A_spec)
    rng = np.random.default_rng(10)
    U = rng.normal(size=(300, 21, 1))
    V = rng.normal(size=(300, 21, 1, 1))
    B = build_B(prob, ens, U)
    assert np.array_equal(build_B(prob, ens, node_major(U)), B)
    Y, Z = gamma_step(prob, ens, U, V)
    Y2, Z2 = gamma_step(prob, ens, node_major(U), node_major(V))
    assert np.array_equal(Y2, Y) and np.array_equal(Z2, Z)
    # the sweep's layout: path-major shape, each node one contiguous block
    assert Y.shape == (300, 21, 1) and Z.shape == (300, 21, 1, 1)
    assert all(Y[:, i].flags.c_contiguous and Z[:, i].flags.c_contiguous for i in range(21))


def test_build_B_is_the_running_sum_of_gamma_steps_increments(monkeypatch):
    # both read G's increment through _g_increment; this ties the node, the
    # context and the dA each one hands it
    prob = segment_problem()
    ens = make_ensemble(300, n_steps=20, seed=6, spec=prob.A_spec)
    rng = np.random.default_rng(10)
    U = rng.normal(size=(300, 21, 1))
    V = rng.normal(size=(300, 21, 1, 1))
    increments = {}
    g_increment = picard_solver._g_increment

    def spy(problem, ctx, y, seg, dA_i):
        i = ens.grid.nodes.tolist().index(ctx.t)
        increments[i] = g_increment(problem, ctx, y, seg, dA_i)
        return increments[i].copy()  # gamma_step adds its next value in place

    monkeypatch.setattr(picard_solver, "_g_increment", spy)
    gamma_step(prob, ens, U, V)
    monkeypatch.undo()
    assert sorted(increments) == list(range(20))
    running = np.cumsum(np.stack([increments[i] for i in range(20)], axis=1), axis=1)
    B = build_B(prob, ens, U)
    assert np.array_equal(B[:, 1:], running) and not B[:, 0].any()


def spy_on_node_major_zeros(monkeypatch):
    """Shapes of every node_major_zeros call from here on."""
    shapes = []
    node_major_zeros = path_calculus.node_major_zeros

    def spy(shape):
        shapes.append(tuple(shape))
        return node_major_zeros(shape)

    for module in (path_calculus, picard_solver, model):
        monkeypatch.setattr(module, "node_major_zeros", spy)
    return shapes


def test_sweep_builds_no_window_copies(monkeypatch):
    shapes = spy_on_node_major_zeros(monkeypatch)
    rng = np.random.default_rng(11)
    U = rng.normal(size=(50, 51, 1))
    V = rng.normal(size=(50, 51, 1, 1))
    counts = []
    for k in (2, 40):
        prob = segment_problem(delta=k / 50)
        ens = make_ensemble(50, n_steps=50, delta=k / 50, seed=9, spec=prob.A_spec)
        shapes.clear()
        gamma_step(prob, ens, U, V)
        counts.append(len(shapes))
    # every window before node k is a view of one head per reader, so the
    # count does not grow with k
    assert counts[0] == counts[1]
    # delayed_segment's drivers: F reads y and y's window but not z's, and
    # G = 0.5 reads nothing, so the one head is that of F's window of U
    k = 40
    prob = replace(segment_problem(delta=k / 50),
                   F=registry.build_F({"name": "linear_plus_rho",
                                       "params": {"a_y": 0.1, "kappa_rho": 0.008}}),
                   G=registry.build_G({"name": "constant", "params": {"value": 0.5}}))
    ens = make_ensemble(50, n_steps=50, delta=k / 50, seed=9, spec=prob.A_spec)
    shapes.clear()
    gamma_step(prob, ens, U, V)
    assert [s for s in shapes if s[1] != 51] == [(50, 2 * k, 1)]


def test_sweep_without_F_reads_no_window(monkeypatch):
    # F = None with G = 1, as in the criterion-6 family: before node k a
    # window read fills a head, and neither F nor G reads U's or V's
    shapes = spy_on_node_major_zeros(monkeypatch)
    k, n = 5, 60
    prob = make_problem(G=registry.build_G({"name": "constant", "params": {"value": 1.0}}),
                        delta=k / 20)
    ens = make_ensemble(n, n_steps=20, delta=k / 20, seed=4)
    U = np.random.default_rng(5).normal(size=(n, 21, 1))
    gamma_step(prob, ens, U, np.zeros((n, 21, 1, 1)))
    assert [s for s in shapes if s[1] != 21] == []


def test_solve_makes_no_node_major_copy_of_a_deterministic_A(monkeypatch):
    # the norm weights and dA come from the one row A stores, as it is, and
    # the sweep reads the ensemble's node-major W in place
    ens = make_ensemble(70, n_steps=20, seed=6)
    shapes = spy_on_node_major_zeros(monkeypatch)
    prob = make_problem(F=registry.build_F({"name": "linear", "params": {"a_y": 0.2}}),
                        G=registry.build_G({"name": "linear", "params": {"b": 0.1}}),
                        xi=registry.build_terminal({"name": "brownian", "params": {}}))
    sol = solve(prob, ens)
    assert sol.diagnostics.iterations >= 2
    assert (1, 21) not in shapes and (70, 21) not in shapes


def test_each_pass_allocates_only_its_Y_and_Z_stacks(monkeypatch):
    # G reads y and its window, so the loop runs, and a pass used to build a
    # third stack, the running integral of G along its iterate
    ens = make_ensemble(70, n_steps=20, seed=6)
    shapes = spy_on_node_major_zeros(monkeypatch)
    prob = make_problem(F=registry.build_F({"name": "linear", "params": {"a_y": 0.2}}),
                        G=LINEAR_RHO_G,
                        xi=registry.build_terminal({"name": "brownian", "params": {}}))
    sol = solve(prob, ens, tol=1e-30, max_iter=3)
    assert sol.diagnostics.iterations == 3
    Y, Z, head = (70, 21, 1), (70, 21, 1, 1), (70, 4, 1)
    # the zero iterate, then each pass's Y and Z and the head of G's window
    # of the iterate (k = 2); the sweep reads W where the ensemble holds it
    assert shapes == [Y, Z] + [Y, Z, head] * 3
    # the README problem (G = 0.1y) sweeps once: one Y and one Z
    shapes.clear()
    sol = solve(replace(prob, G=LINEAR_G), ens, tol=1e-30, max_iter=3)
    assert sol.diagnostics.iterations == 2 and sol.diagnostics.deltas[1] == 0.0
    assert shapes == [Y, Z, Y, Z]


def test_solve_reads_a_random_A_in_place(monkeypatch):
    # the ensemble's node-major A serves the design's A column, the norm
    # weights and dA, with no stack of A's shape allocated
    spec = IncreasingProcessSpec("time_integral", {"functional": "inv_quadratic"})
    ens = make_ensemble(70, n_steps=20, seed=6, spec=spec)
    assert is_node_major(ens.A)
    shapes = spy_on_node_major_zeros(monkeypatch)
    prob = make_problem(F=registry.build_F({"name": "linear", "params": {"a_y": 0.2}}),
                        G=registry.build_G({"name": "linear", "params": {"b": 0.1}}),
                        xi=registry.build_terminal({"name": "brownian", "params": {}}),
                        A_spec=spec)
    sol = solve(prob, ens)
    assert sol.diagnostics.iterations >= 2
    assert (70, 21) not in shapes and (1, 21) not in shapes


def test_solve_builds_no_B_and_a_constant_G_needs_no_reads_flag(monkeypatch):
    # the sweep adds G's increment at its own node, so no solve builds the
    # running integral, and a G that declares it reads nothing gives the bits
    # of one that declares nothing (and so counts as reading the iterate)
    calls = []
    build = picard_solver.build_B

    def spy(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    def hand_written_constant(t, y, y_seg, ctx):
        return np.full_like(y, 1.0)

    monkeypatch.setattr(picard_solver, "build_B", spy)
    ens = make_ensemble(100, n_steps=20, seed=12)
    # F reads its window, so every pass moves the iterate
    F = registry.build_F({"name": "linear_plus_rho",
                          "params": {"a_y": 0.2, "a_z": 0.1, "kappa_rho": 0.3}})
    xi = registry.build_terminal({"name": "brownian", "params": {}})
    cases = {
        "constant": registry.build_G({"name": "constant", "params": {"value": 1.0}}),
        "hand-written": hand_written_constant,
        "linear": registry.build_G({"name": "linear", "params": {"b": 0.1}}),
    }
    sols = {}
    for name, G in cases.items():
        sols[name] = solve(make_problem(F=F, G=G, xi=xi), ens, tol=1e-30, max_iter=3,
                           force=True)
        assert sols[name].diagnostics.iterations == 3, name
    assert calls == []
    once, per_pass = sols["constant"], sols["hand-written"]
    assert np.array_equal(once.Y, per_pass.Y) and np.array_equal(once.Z, per_pass.Z)
    assert once.diagnostics.deltas == per_pass.diagnostics.deltas


@pytest.mark.parametrize("spec", LAYOUT_SPECS, ids=lambda spec: spec.kind)
def test_solve_same_bits_on_every_layout_of_the_ensemble(spec):
    # W (d = 2) and A from C-order copies are copied node-major once, so
    # solve gives the bits of simulate_brownian's ensemble; G reads
    # its window, so every A keeps the Picard loop
    grid = TimeGrid.uniform(1.0, 20, delta=0.1)
    ens = realize_increasing_process(spec, simulate_brownian(grid, 200, d=2, seed=29))
    prob = make_problem(
        d=2, A_spec=spec, G=LINEAR_RHO_G,
        F=registry.build_F({"name": "linear_plus_rho",
                            "params": {"a_y": 0.2, "a_z": 0.1, "kappa_rho": 0.1}}),
        xi=registry.build_terminal({"name": "brownian", "params": {}}))
    others = relaid(ens)
    assert all(is_node_major(e.W) and np.array_equal(e.W, ens.W) for e in others)
    assert is_node_major(others[1].A) and np.array_equal(others[1].A, ens.A)
    want = solve(prob, ens, tol=1e-30, max_iter=3, force=True)
    assert want.diagnostics.iterations == 3
    for other in others:
        got = solve(prob, other, tol=1e-30, max_iter=3, force=True)
        assert np.array_equal(got.Y, want.Y) and np.array_equal(got.Z, want.Z)
        assert got.diagnostics.deltas == want.diagnostics.deltas


def test_solve_same_bits_on_broadcast_and_full_A(monkeypatch):
    # a full copy of a deterministic A, as a hand-built ensemble may hold it
    spec = IncreasingProcessSpec("oscillatory", {"base": IDENTITY_A, "n": 3})
    prob = replace(segment_problem(), A_spec=spec)
    ens = make_ensemble(300, n_steps=20, seed=10, spec=spec)
    full = replace(ens, A=np.array(ens.A))
    assert stored_rows(ens.A).shape == (1, 21) and stored_rows(full.A).shape == (300, 21)
    one, two = (solve(prob, e, tol=1e-30, max_iter=4, force=True)
                for e in (ens, full))
    assert np.array_equal(one.Y, two.Y) and np.array_equal(one.Z, two.Z)
    d1, d2 = one.diagnostics, two.diagnostics
    assert d1.deltas == d2.deltas and d1.iterations == d2.iterations == 4
    assert consistency_residuals(prob, one) == consistency_residuals(prob, two)
    for rep1, rep2 in ((d1.preflight.h1, d2.preflight.h1), (d1.preflight.h2, d2.preflight.h2)):
        assert rep1.lhs.shape == (300,) and np.array_equal(rep1.lhs, rep2.lhs)
    # every moment averages one sample per path, the one-row A's included
    sizes, moment = [], model._moment

    def counted(samples):
        sizes.append(np.size(samples))
        return moment(samples)

    monkeypatch.setattr(model, "_moment", counted)
    moments = [check_integrability(prob, e).entries for e in (ens, full)]
    assert moments[0] == moments[1]
    assert sizes == [300] * 2 * len(moments[0])


def test_solve_matches_pass_by_pass_replay(monkeypatch):
    prob = segment_problem()
    ens = make_ensemble(400, n_steps=20, seed=7, spec=prob.A_spec)
    # pass 1 measures its iterate from zero with no minus; every later pass
    # measures it from the iterate before
    minus, iterates = [], []
    norm = picard_solver.equivalent_norm

    def spy(Y, Z, *args, **kwargs):
        minus.append(kwargs["minus"])
        iterates.append((Y, Z))
        return norm(Y, Z, *args, **kwargs)

    monkeypatch.setattr(picard_solver, "equivalent_norm", spy)
    sol = solve(prob, ens, tol=1e-30, max_iter=4, force=True)
    assert minus[0] is None and len(minus) == sol.diagnostics.iterations
    assert all(m[0] is U and m[1] is V for m, (U, V) in zip(minus[1:], iterates))
    # the node-major stacks the last pass swept, not a copy
    assert all(sol.Y[:, i].flags.c_contiguous and sol.Z[:, i].flags.c_contiguous
               for i in range(21))
    diag = sol.diagnostics
    U = np.zeros((400, 21, 1))
    V = np.zeros((400, 21, 1, 1))
    deltas = []
    for _ in range(diag.iterations):
        # a fresh regression plan and norm weights on every pass
        Y, Z = gamma_step(prob, ens, U, V)
        deltas.append(equivalent_norm(Y - U, Z - V, ens.A, ens.grid, alpha=diag.alpha,
                                      beta=diag.beta, a=diag.a, b=diag.b).total)
        U, V = Y, Z
    assert deltas == diag.deltas
    assert np.array_equal(U, sol.Y) and np.array_equal(V, sol.Z)


def test_conditional_expectation_fits_what_a_sweeps_plan_fits():
    ens = make_ensemble(20_000, n_steps=20, seed=8)
    basis = RegressionBasis()
    targets = ens.W[:, -1, 0] ** 2
    fit = stochastic_engine.conditional_expectation(targets, basis, ens, 10)
    # a sweep's plan reads the same node of W, on every design
    plan = stochastic_engine.RegressionPlan(basis, ens)
    for _ in range(2):
        assert np.array_equal(plan.fit(10, plan.design(10), targets)[0], fit)


# -------------------------------------------------------------------- solve

def test_solve_builds_each_gram_once(monkeypatch):
    ens = make_ensemble(300, n_steps=20, seed=2)
    gram_nodes, design_calls = [], []
    normal_matrix = stochastic_engine._normal_matrix
    design = RegressionBasis.design

    def spy_normal_matrix(X, ridge):
        # column 1 of the design is W(t_i); it names the node
        gram_nodes.extend(i for i in range(21) if np.array_equal(X[:, 1], ens.W[:, i, 0]))
        return normal_matrix(X, ridge)

    def spy_design(self, w_t, extras=None):
        design_calls.append(1)
        return design(self, w_t, extras)

    monkeypatch.setattr(stochastic_engine, "_normal_matrix", spy_normal_matrix)
    monkeypatch.setattr(RegressionBasis, "design", spy_design)
    # G reads y and its window, so the map reads the iterate and both passes sweep
    prob = make_problem(
        F=registry.build_F({"name": "linear", "params": {"a_y": 0.2, "a_z": 0.1}}),
        G=LINEAR_RHO_G,
        xi=registry.build_terminal({"name": "brownian", "params": {}}))
    sol = solve(prob, ens, tol=1e-30, max_iter=2)
    assert sol.diagnostics.iterations == 2 and sol.diagnostics.deltas[1] > 0
    # nodes 1..19 regress on a nontrivial state; node 0 takes the plain mean
    assert sorted(gram_nodes) == list(range(1, 20))
    assert len(design_calls) == 2 * 20
    # with G = 0.1y, G's equation is solved at its own node in one sweep
    gram_nodes.clear()
    design_calls.clear()
    sol = solve(replace(prob, G=LINEAR_G), ens, tol=1e-30, max_iter=2)
    assert sol.diagnostics.iterations == 2 and sol.diagnostics.deltas[1] == 0.0
    assert sorted(gram_nodes) == list(range(1, 20))
    assert len(design_calls) == 20


def test_constant_map_sweeps_once_with_the_bits_of_the_full_loop(monkeypatch, caplog):
    # F reads y and z, which the current sweep gives, and G = 1 reads
    # nothing, so the map reads no iterate; the same F without a reads flag
    # counts as reading its windows and runs the full loop
    calls = []
    step = picard_solver.gamma_step

    def spy(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(picard_solver, "gamma_step", spy)
    F = registry.build_F({"name": "linear", "params": {"a_y": 0.2, "a_z": 0.1}})

    def hand_written(t, y, z, y_seg, z_seg, ctx):
        return F(t, y, z, y_seg, z_seg, ctx)

    G = registry.build_G({"name": "constant", "params": {"value": 1.0}})
    xi = registry.build_terminal({"name": "brownian", "params": {}})
    ens = make_ensemble(200, n_steps=20, seed=14)
    sols, sweeps = {}, {}
    probs = {name: make_problem(F=f, G=G, xi=xi)
             for name, f in (("constant", F), ("full", hand_written))}
    for name, prob in probs.items():
        calls.clear()
        caplog.clear()
        with caplog.at_level(logging.INFO, logger=picard_solver.__name__):
            sols[name] = solve(prob, ens)
        sweeps[name] = (len(calls), "outer step 2 skipped" in caplog.text)
    assert sweeps == {"constant": (1, True), "full": (2, False)}
    once, full = sols["constant"], sols["full"]
    assert np.array_equal(once.Y, full.Y) and np.array_equal(once.Z, full.Z)
    d1, d2 = once.diagnostics, full.diagnostics
    assert d1.deltas == d2.deltas and d1.deltas[0] > d1.tol and d1.deltas[1] == 0.0
    assert d1.ratios == d2.ratios == [0.0]
    assert d1.iterations == d2.iterations == 2 and d1.converged and d2.converged
    assert consistency_residuals(probs["constant"], once) == \
        consistency_residuals(probs["full"], full)
    # one pass is all a budget of one allows, skipped or not
    calls.clear()
    capped = solve(make_problem(F=F, G=G, xi=xi), ens, max_iter=1)
    assert len(calls) == 1 and capped.diagnostics.iterations == 1
    assert not capped.diagnostics.converged and capped.diagnostics.deltas == d1.deltas[:1]


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_solve_refuses_a_tolerance_that_cannot_be_met(tol):
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        solve(make_problem(), make_ensemble(20), tol=tol)


@pytest.mark.parametrize("settings, match", [
    ({"max_iter": 0}, "max_iter must be an integer >= 1, got 0"),
    ({"max_iter": 2.5}, "max_iter must be an integer >= 1, got 2.5"),
    ({"max_iter": True}, "max_iter must be an integer >= 1, got True"),
    ({"tol": -1.0}, "tol must be a finite number >= 0"),
    # an infinite tol would stop after pass 1
    ({"tol": float("inf")}, "tol must be a finite number >= 0, got inf"),
])
def test_solve_refuses_bad_sweep_settings_before_its_preflight(monkeypatch, settings, match):
    calls = []
    checks = picard_solver.preflight

    def spy(*args, **kwargs):
        calls.append(1)
        return checks(*args, **kwargs)

    monkeypatch.setattr(picard_solver, "preflight", spy)
    prob, ens = make_problem(), make_ensemble(20)
    with pytest.raises(ValueError, match=match):
        solve(prob, ens, **settings)
    assert calls == []
    solve(prob, ens, max_iter=1)   # the spy sees a solve that runs
    assert calls == [1]


def test_solve_takes_a_plan_that_serves_its_ensemble():
    prob = make_problem(F=registry.build_F({"name": "linear", "params": {"a_y": 0.2}}),
                        G=registry.build_G({"name": "linear", "params": {"b": 0.1}}),
                        xi=registry.build_terminal({"name": "brownian", "params": {}}))
    ens = make_ensemble(80, n_steps=20, seed=15)
    plan = stochastic_engine.RegressionPlan(RegressionBasis(degree=1), ens)
    with pytest.raises(ValueError, match="basis or plan"):
        solve(prob, ens, basis=RegressionBasis(degree=1), plan=plan)
    with pytest.raises(ValueError, match="another ensemble"):
        solve(prob, make_ensemble(80, n_steps=20, seed=16), plan=plan)
    # another deterministic A on the same W keeps the state, and basis= is
    # short for a plan of its own
    osc = replace(prob, A_spec=IncreasingProcessSpec("oscillatory",
                                                     {"base": IDENTITY_A, "n": 2}))
    ens_osc = realize_increasing_process(osc.A_spec, replace(ens, A=None, A_spec=None))
    for p, e in ((prob, ens), (osc, ens_osc)):
        shared = solve(p, e, plan=plan, force=True)
        own = solve(p, e, basis=RegressionBasis(degree=1), force=True)
        assert np.array_equal(shared.Y, own.Y) and np.array_equal(shared.Z, own.Z)
        assert shared.diagnostics.deltas == own.diagnostics.deltas
    assert not hasattr(plan, "dA")


def test_solve_zero_problem_is_exact():
    ens = make_ensemble(100, n_steps=20)
    sol = solve(make_problem(), ens)
    assert sol.diagnostics.converged
    assert sol.diagnostics.iterations == 1
    assert np.all(sol.Y == 0.0) and np.all(sol.Z == 0.0)
    rep = contraction_report(sol.diagnostics)
    assert rep.verdict == "INCONCLUSIVE"


def test_solve_linear_closed_form():
    ens = make_ensemble(20000, n_steps=50, seed=11)
    prob = make_problem(
        F=registry.build_F({"name": "linear", "params": {"a_y": 0.2, "a_z": 0.1}}),
        G=registry.build_G({"name": "linear", "params": {"b": 0.1}}),
        xi=registry.build_terminal({"name": "brownian", "params": {}}))
    sol = solve(prob, ens, tol=1e-10, max_iter=20)
    d = sol.diagnostics
    assert d.converged
    # G reads y alone and A = t: one sweep solves G's affine equation at its
    # node in one step
    assert d.iterations == 2 and d.deltas[1] == 0.0 and d.node_passes == 1
    y0_true = np.exp(0.3) * 0.1
    assert sol.initial_value[0] == pytest.approx(y0_true, rel=0.05)
    z0 = float(np.mean(sol.Z[:, 0, 0, 0]))
    assert z0 == pytest.approx(np.exp(0.3), rel=0.05)
    assert np.array_equal(sol.Y[:, -1, 0], ens.W[:, -1, 0])
    mtg, rms = consistency_residuals(prob, sol)
    assert mtg < 0.02
    assert np.isfinite(rms) and rms < 1.0
    # contraction, on the same problem with G reading its window, which loops:
    # every ratio after the warm-up step is well below one
    d = solve(replace(prob, G=LINEAR_RHO_G), ens, tol=1e-10, max_iter=20).diagnostics
    assert d.converged and d.iterations >= 3 and d.node_passes == 0
    assert all(r < 0.5 for r in d.ratios[1:])
    assert contraction_report(d).passed


def test_solve_stieltjes_exponential():
    # dY = -0.5 Y dA with xi = 1 integrates to e^{0.5} at t = 0, in one sweep
    ens = make_ensemble(16, n_steps=100)
    prob = make_problem(
        G=registry.build_G({"name": "linear", "params": {"b": 0.5}}),
        xi=registry.build_terminal({"name": "constant", "params": {"value": 1.0}}),
        L_tilde=1.0)
    sol = solve(prob, ens, tol=1e-12, max_iter=30)
    assert sol.diagnostics.converged
    assert sol.diagnostics.iterations == 2 and sol.diagnostics.deltas[1] == 0.0
    assert sol.initial_value[0] == pytest.approx(np.exp(0.5), rel=0.01)
    assert np.max(np.abs(sol.Z)) < 1e-6


def readme_problem(**overrides):
    """The README problem: F = 0.2y + 0.1z, G = 0.1y, xi = W(T), A = t."""
    fields = dict(F=registry.build_F({"name": "linear", "params": {"a_y": 0.2, "a_z": 0.1}}),
                  G=LINEAR_G, xi=registry.build_terminal({"name": "brownian", "params": {}}))
    return make_problem(**{**fields, **overrides})


def test_one_sweep_is_a_fixed_point_of_the_outer_map(caplog):
    # G reads y alone and A = t, so solve sweeps once, solving G's equation
    # at its own node in one step; one more pass of the outer map barely
    # moves the result
    ens = make_ensemble(2000, n_steps=50, seed=24)
    prob = readme_problem()
    with caplog.at_level(logging.INFO, logger=picard_solver.__name__):
        sol = solve(prob, ens)
    d = sol.diagnostics
    assert d.converged and d.iterations == 2 and d.deltas[1] == 0.0 and d.ratios == [0.0]
    assert d.node_passes == 1
    assert "outer step 2 skipped: step 1 gave the fixed point" in caplog.text
    assert f"node passes {d.node_passes}" in caplog.text
    Y, Z = gamma_step(prob, ens, sol.Y, sol.Z)
    moved = equivalent_norm(Y - sol.Y, Z - sol.Z, ens.A, ens.grid, alpha=d.alpha,
                            beta=d.beta, a=d.a, b=d.b).total
    assert moved <= d.tol


def test_one_sweep_matches_ten_picard_passes():
    # the README problem at 2,000 x 50: ten passes of the outer map from
    # (0, 0) reach the fixed point that the one sweep gives
    ens = make_ensemble(2000, n_steps=50, seed=25)
    prob = readme_problem()
    sol = solve(prob, ens)
    d = sol.diagnostics
    assert d.iterations == 2 and d.node_passes == 1
    U, V = np.zeros((2000, 51, 1)), np.zeros((2000, 51, 1, 1))
    for _ in range(10):
        U, V = gamma_step(prob, ens, U, V)
    assert np.max(np.abs(U - sol.Y)) <= 1e-6 and np.max(np.abs(V - sol.Z)) <= 1e-6


def test_a_node_fixed_point_that_misses_its_gap_is_refused():
    # G = 60y on 50 steps: b dA = 1.2, so iterating G's equation at node 49
    # would move more on every pass, and the one-step solve refuses it by its
    # factor instead of returning a value
    ens = make_ensemble(50, n_steps=50, seed=26)
    prob = readme_problem(G=registry.build_G({"name": "linear", "params": {"b": 60.0}}))
    with pytest.raises(NonContractionError,
                       match=r"G's equation at node 49 \(t=0\.98\) has factor 1\.200e\+00 >= 1"):
        solve(prob, ens, force=True)
    # G = -0.1y from xi = 1e5, with no F: iterated, it
    # would alternate around its fixed point by rounding errors of 1.5e-11
    # for ever; solved in one step it is the fixed point to the last bits
    # (the ridge of the regressions moves the value by about 1e-10)
    prob = make_problem(G=registry.build_G({"name": "linear", "params": {"b": -0.1}}),
                        xi=registry.build_terminal({"name": "constant", "params": {"value": 1e5}}))
    sol = solve(prob, ens)
    assert sol.diagnostics.node_passes == 1
    assert sol.initial_value[0] == pytest.approx(1e5 / (1 + 0.1 * 0.02) ** 50, rel=1e-9)


def test_the_node_path_refuses_a_map_that_reads_a_window_or_a_random_A():
    ens = make_ensemble(50, n_steps=20, seed=28)
    U, V = np.zeros((50, 21, 1)), np.zeros((50, 21, 1, 1))
    picard_solver._sweep(readme_problem(), ens, U, V, None, None, node_g=True)
    spec = IncreasingProcessSpec("running_max", {})
    for prob, e in ((readme_problem(G=LINEAR_RHO_G), ens),
                    (readme_problem(G=sine_G()), ens),
                    (readme_problem(A_spec=spec), make_ensemble(50, n_steps=20, seed=28,
                                                                 spec=spec))):
        with pytest.raises(ValueError, match="solved at its own node"):
            picard_solver._sweep(prob, e, U, V, None, None, node_g=True)


def sine_G():
    """G = 0.1 sin(y): it reads y alone, but leaves the regression span."""
    def G(t, y, y_seg, ctx):
        return 0.1 * np.sin(y)
    G.reads = frozenset({"y"})
    return G


def w_G():
    """G = 0.1 y cos(w): affine in y, with a coefficient that reads the
    context's w, so it leaves the regression span too."""
    def G(t, y, y_seg, ctx):
        return 0.1 * y * np.cos(ctx.w[:, :1])
    G.reads = frozenset({"y"})
    return G


@pytest.mark.parametrize("builder", [sine_G, w_G], ids=["sin-y", "y-cos-w"])
def test_a_G_that_leaves_the_regression_span_keeps_the_loop(builder):
    # one sweep is the map's fixed point only when P_i[G(Y_i) dA_i] is
    # G(Y_i) dA_i; a G that reads y alone but is nonlinear in y or reads w
    # has no affine_in_y, so solve runs the Picard loop, and one more pass
    # moves its result by at most tol
    ens = make_ensemble(500, n_steps=20, seed=30)
    prob = readme_problem(G=builder())
    sol = solve(prob, ens)
    d = sol.diagnostics
    assert d.converged and d.iterations >= 3 and d.deltas[1] > 0 and d.node_passes == 0
    Y, Z = gamma_step(prob, ens, sol.Y, sol.Z)
    moved = equivalent_norm(Y - sol.Y, Z - sol.Z, ens.A, ens.grid, alpha=d.alpha,
                            beta=d.beta, a=d.a, b=d.b).total
    assert moved <= d.tol


def test_a_slowly_contracting_node_fixed_point_is_solved():
    # G = 3y on 10 steps of A = t: b dA = 0.3, so iterating a node's equation
    # would shrink its moves by only 0.3 a pass; the one-step solve needs no
    # pass and gives the outer map's fixed point
    ens = make_ensemble(200, n_steps=10, seed=31)
    prob = readme_problem(G=registry.build_G({"name": "linear", "params": {"b": 3.0}}),
                          L_tilde=3.0, beta=10.0)
    sol = solve(prob, ens)
    d = sol.diagnostics
    assert d.converged and d.iterations == 2 and d.node_passes == 1
    U, V = np.zeros((200, 11, 1)), np.zeros((200, 11, 1, 1))
    for _ in range(60):
        U, V = gamma_step(prob, ens, U, V)
    assert np.max(np.abs(U - sol.Y)) <= 1e-9 and np.max(np.abs(V - sol.Z)) <= 1e-9


def test_a_barely_contracting_node_equation_is_solved_in_one_step():
    # G = 9.9y on 3 steps of A = t to T = 0.3: b dA = 0.99, so iterating G's
    # equation at a node would shrink its moves by only 0.99 a pass; solved
    # in one step, the node's value is
    # Y_{i+1} / (1 - b dA) and Y_i = (1 - b dA)^-(N - i)
    ens = make_ensemble(20, n_steps=3, T=0.3, seed=32)
    prob = make_problem(T=0.3, G=registry.build_G({"name": "linear", "params": {"b": 9.9}}),
                        xi=registry.build_terminal({"name": "constant", "params": {"value": 1.0}}))
    sol = solve(prob, ens, force=True)
    assert sol.diagnostics.iterations == 2 and sol.diagnostics.node_passes == 1
    want = (1.0 - 9.9 * 0.1) ** -(3 - np.arange(4.0))
    assert np.allclose(sol.Y[:, :, 0], want, rtol=1e-10, atol=0)


def mixing_G(M_of_t, c=(0.0, 0.0)):
    """G(t, y) = M(t) y + c, affine in y with a coefficient known at t, whose
    matrix mixes the two components of y."""
    def G(t, y, y_seg, ctx):
        return y @ np.asarray(M_of_t(t)).T + np.asarray(c)
    G.reads, G.affine_in_y = frozenset({"y"}), True
    return G


def two_column_terminal(ensemble):
    w = ensemble.W[:, -1, 0]
    return np.stack([w, 1.0 - 0.5 * w], axis=1)


def test_a_two_component_node_equation_matches_the_picard_passes():
    # m = 2, G = M y + c with M mixing the components: each node solves
    # (I - M dA) Y_i = base + c dA, calling G at 0 and at e_1, e_2, and the
    # one sweep is the outer map's fixed point, which 60 passes reach
    calls = []
    G = counting(mixing_G(lambda t: [[0.5, 1.0], [-1.0, 0.5]], c=(0.3, -0.2)), 400, calls)
    prob = make_problem(G=G, xi=two_column_terminal, m=2, L_tilde=1.2)
    ens = make_ensemble(400, n_steps=10, seed=33)
    sol = solve(prob, ens)
    d = sol.diagnostics
    assert d.converged and d.iterations == 2 and d.node_passes == 1
    assert sum(calls) == 3 * 10
    U, V = np.zeros((400, 11, 2)), np.zeros((400, 11, 2, 1))
    for _ in range(60):
        U, V = gamma_step(prob, ens, U, V)
    assert np.max(np.abs(U - sol.Y)) <= 1e-9 and np.max(np.abs(V - sol.Z)) <= 1e-9


def test_a_two_component_node_equation_that_cannot_contract_is_refused():
    # from t = 0.4 down, M dA = [[0, 2], [0.6, 0]]: no entry on its diagonal,
    # but eigenvalues +-1.095, so iterating the node's equation diverges and
    # the one-step solve refuses node 4, after solving nodes 9 to 5
    big, small = [[0.0, 20.0], [6.0, 0.0]], [[0.0, 2.0], [0.6, 0.0]]
    prob = make_problem(G=mixing_G(lambda t: big if t < 0.45 else small),
                        xi=two_column_terminal, m=2)
    ens = make_ensemble(100, n_steps=10, seed=34)
    with pytest.raises(NonContractionError,
                       match=r"G's equation at node 4 \(t=0\.4\) has factor 1\.095e\+00 >= 1"):
        solve(prob, ens, force=True)


def test_the_one_step_solve_keeps_the_sweeps_refusals():
    # a non-finite G is refused where it is evaluated, at 0 and the e_j, and
    # a value that passes BLOWUP_THRESHOLD by the sweep: G = 9.99y on 10 steps
    # multiplies the value by 1,000 a node, to 1e9 at node 7
    ens = make_ensemble(20, n_steps=10, seed=35)
    one = registry.build_terminal({"name": "constant", "params": {"value": 1.0}})
    nan_G = mixing_G(lambda t: [[0.5]], c=(np.nan,))
    with pytest.raises(GeneratorEvaluationError, match="G returned a non-finite value"):
        solve(make_problem(G=nan_G, xi=one), ens, force=True)
    prob = make_problem(G=registry.build_G({"name": "linear", "params": {"b": 9.99}}), xi=one)
    with pytest.raises(BlowupError, match=r"value iterate exploded at node 7 \(t=0\.7\)"):
        solve(prob, ens, force=True)


def test_solve_drift_exponential():
    # dY = -0.5 Y dt with xi = 1 integrates to e^{0.5} at t = 0
    ens = make_ensemble(16, n_steps=100)
    prob = make_problem(
        F=registry.build_F({"name": "linear", "params": {"a_y": 0.5}}),
        xi=registry.build_terminal({"name": "constant", "params": {"value": 1.0}}))
    sol = solve(prob, ens, tol=1e-12, max_iter=30)
    assert sol.initial_value[0] == pytest.approx(np.exp(0.5), rel=0.01)


def test_solve_delayed_driver_against_ode_oracle():
    kappa = 0.03
    ens = make_ensemble(50, n_steps=50)
    prob = make_problem(
        F=registry.build_F({"name": "delayed_linear", "params": {"kappa": kappa}}),
        xi=registry.build_terminal({"name": "constant", "params": {"value": 1.0}}),
        K=kappa ** 2)
    sol = solve(prob, ens, tol=1e-14, max_iter=30)
    oracle = delay_ode_oracle(1.0, 0.1, kappa, 1.0)
    assert sol.initial_value[0] == pytest.approx(oracle[0], rel=0.01)
    # the whole path, not only the initial value
    coarse = oracle[::2000]
    assert np.max(np.abs(sol.Y[0, :, 0] - coarse)) < 0.01 * abs(oracle[0])
    assert np.max(np.abs(sol.Z)) < 1e-6


def test_solve_rejects_failing_conditions():
    ens = make_ensemble(20, n_steps=20)
    prob = make_problem(
        F=registry.build_F({"name": "delayed_linear", "params": {"kappa": 4.0}}),
        xi=registry.build_terminal({"name": "constant", "params": {"value": 1.0}}),
        K=16.0)
    with pytest.raises(ConstraintViolationError, match="smallness"):
        solve(prob, ens)


@pytest.mark.parametrize("which", ["F", "G"])
def test_solve_refuses_constants_below_probe(which):
    # (H1)/(H2) read the declared constants, so they pass here although
    # kappa = 3 has K1 = kappa^2 = 9 against a declared K = 5e-4, and b = 2
    # has Lipschitz constant 2 against a declared L_tilde = 1
    ens = make_ensemble(50, n_steps=20)
    drivers = {
        "F": registry.build_F({"name": "delayed_linear", "params": {"kappa": 3.0}}),
        "G": registry.build_G({"name": "linear", "params": {"b": 2.0}})}
    prob = make_problem(**{which: drivers[which]}, xi=registry.build_terminal(
        {"name": "constant", "params": {"value": 1.0}}))
    with pytest.raises(ConstraintViolationError,
                       match=f"declared constants of {which}"):
        solve(prob, ens, max_iter=4)
    sol = solve(prob, ens, max_iter=4, force=True)
    checks = sol.diagnostics.preflight
    assert checks.h1.passed and checks.h2.passed and list(checks.failures) == [which]
    assert sol.diagnostics.iterations >= 1


def test_solve_noncontraction_detected_under_force():
    ens = make_ensemble(20, n_steps=20)
    prob = make_problem(
        F=registry.build_F({"name": "delayed_linear", "params": {"kappa": 4.0}}),
        xi=registry.build_terminal({"name": "constant", "params": {"value": 1.0}}),
        K=16.0)
    with pytest.raises(NonContractionError):
        solve(prob, ens, force=True, max_iter=6, tol=1e-20)


def test_solve_budget_exhausted_while_contracting():
    # G reads its window as well as y, so the Picard loop runs
    ens = make_ensemble(16, n_steps=50)
    prob = make_problem(
        G=registry.build_G({"name": "linear_plus_rho", "params": {"b": 0.5, "gamma": 0.01}}),
        xi=registry.build_terminal({"name": "constant", "params": {"value": 1.0}}))
    sol = solve(prob, ens, tol=1e-24, max_iter=3)
    assert not sol.diagnostics.converged
    assert sol.diagnostics.iterations == 3
    assert all(r < 1.0 for r in sol.diagnostics.ratios)


def test_solve_grid_validation():
    prob = make_problem()
    grid = TimeGrid.uniform(1.0, 20)
    ens = simulate_brownian(grid, 10, seed=0)
    with pytest.raises(GridAlignmentError):
        solve(prob, ens)
    ens = make_ensemble(10, n_steps=20, delta=0.2)
    with pytest.raises(GridAlignmentError, match="delay"):
        solve(prob, ens)
    grid = TimeGrid.uniform(2.0, 40, delta=0.1)
    ens = simulate_brownian(grid, 10, seed=0)
    ens = realize_increasing_process(IDENTITY_A, ens)
    with pytest.raises(GridAlignmentError, match="horizon"):
        solve(prob, ens)


def test_solve_realizes_A_when_missing():
    grid = TimeGrid.uniform(1.0, 20, delta=0.1)
    ens = simulate_brownian(grid, 50, seed=1)
    sol = solve(make_problem(), ens)
    assert sol.ensemble.A is not None
    assert np.allclose(sol.ensemble.A, grid.nodes[None, :])


# ------------------------------------------------------- consistency residuals

def counting(gen, rows, calls):
    """gen, its attributes (reads, affine_in_y) included, appending to calls whether each call has `rows`
    argument sets: the ensemble's paths, not a preflight probe's cloud."""
    def counted(*args):
        calls.append(args[1].shape[0] == rows)
        return gen(*args)
    counted.__dict__.update(gen.__dict__)
    return counted


@pytest.mark.parametrize("G", [
    pytest.param({"name": "constant", "params": {"value": 1.0}}, id="one-sweep"),
    pytest.param({"name": "linear_plus_rho", "params": {"b": 0.1, "gamma": 0.01}},
                 id="full-loop"),
    pytest.param({"name": "linear", "params": {"b": 0.1}}, id="node-sweep"),
])
def test_solve_evaluates_the_generators_only_in_its_passes(G):
    # one pass evaluates the explicit F and G once per step; with F reading
    # no window and G = 1 the map reads no iterate, so solve sweeps once, and
    # with G = 0.1y it sweeps once too, solving each node's affine equation
    # from G at 0 and at the m unit vectors: m + 1 calls a node
    n, n_steps = 200, 20
    calls = {"F": [], "G": []}
    prob = make_problem(
        F=counting(registry.build_F({"name": "linear", "params": {"a_y": 0.2, "a_z": 0.1}}),
                   n, calls["F"]),
        G=counting(registry.build_G(G), n, calls["G"]),
        xi=registry.build_terminal({"name": "brownian", "params": {}}))
    ens = make_ensemble(n, n_steps=n_steps, seed=14)
    sol = solve(prob, ens)
    diag = sol.diagnostics
    passes = diag.iterations if G["name"] == "linear_plus_rho" else 1
    assert diag.iterations >= 2
    in_solve = {which: (sum(c), len(c) - sum(c)) for which, c in calls.items()}
    for c in calls.values():
        c.clear()
    model.preflight(prob, ens)
    probes = {which: len(c) for which, c in calls.items()}
    g_calls = passes * n_steps
    if G["name"] == "linear":
        assert diag.iterations == 2 and diag.deltas[1] == 0.0
        g_calls = (prob.m + 1) * n_steps
        assert diag.node_passes == 1
    else:
        assert diag.node_passes == 0
    assert in_solve == {"F": (passes * n_steps, probes["F"]), "G": (g_calls, probes["G"])}
    # asked for, the residuals evaluate each generator once more per step
    for c in calls.values():
        c.clear()
    consistency_residuals(prob, sol)
    assert calls == {"F": [True] * n_steps, "G": [True] * n_steps}


def residuals_on_the_iterate(problem, solution):
    """The residuals on the solution's own node-major stacks, with the
    ensemble's node-major W and the dA of the solve's norm weights."""
    ens = solution.ensemble
    grid = ens.grid
    k, steps = grid.delta_index_offset, grid.steps()
    dA = model.norm_weights(ens.A, grid, problem.alpha, problem.beta)[1]
    W, Y, Z = ens.W, solution.Y, solution.Z
    y_win, z_win = delay_windows(Y, k), delay_windows(Z, k, "control")
    R = path_calculus.node_major_zeros((Y.shape[0], grid.n_steps, Y.shape[2]))
    for i in range(grid.n_steps):
        ctx = problem.context(grid, float(grid.nodes[i]), W[:, i])
        f = model.evaluate_generator(problem.F, "F", ctx, Y[:, i + 1], Z[:, i], y_win(i),
                                     z_win(i))
        g = model.evaluate_generator(problem.G, "G", ctx, Y[:, i], None, y_win(i), None)
        R[:, i] = (Y[:, i + 1] - Y[:, i] + float(steps[i]) * f + dA[:, i, None] * g
                   - np.einsum("nmd,nd->nm", Z[:, i], W[:, i + 1] - W[:, i], optimize=False))
    R = np.ascontiguousarray(R)
    return float(np.max(np.abs(R.mean(axis=0)))), float(np.sqrt(np.mean(R ** 2)))


@pytest.mark.parametrize("problem", [
    pytest.param(lambda: make_problem(
        F=registry.build_F({"name": "linear", "params": {"a_y": 0.2, "a_z": 0.1}}),
        G=registry.build_G({"name": "linear", "params": {"b": 0.1}}),
        xi=registry.build_terminal({"name": "brownian", "params": {}})), id="deterministic-A"),
    pytest.param(segment_problem, id="random-A-segments"),
])
def test_consistency_residuals_have_the_bits_of_the_iterate(problem):
    # from the solution's node-major stacks, the ensemble's W and the stored
    # rows of A, the residuals on the same node-major stacks and the solve's
    # dA, bit for bit
    prob = problem()
    ens = make_ensemble(300, n_steps=20, seed=19, spec=prob.A_spec)
    sol = solve(prob, ens, tol=1e-30, max_iter=3, force=True)
    assert sol.Y[:, 0].flags.c_contiguous and sol.Z[:, 0].flags.c_contiguous
    mtg, rms = consistency_residuals(prob, sol)
    assert (mtg, rms) == residuals_on_the_iterate(prob, sol)
    assert 0 < mtg and 0 < rms < 1.0
    with pytest.raises(GridAlignmentError, match="delay"):
        consistency_residuals(replace(prob, delta=0.2), sol)


def test_solve_returns_its_node_major_stacks_and_residuals_read_them_in_place(monkeypatch):
    # solve hands back the stacks it swept, and consistency_residuals reads
    # them, and the ensemble's W, with no node-major copy; on a C-order copy
    # of the solution the residuals keep their bits
    prob = segment_problem()
    ens = make_ensemble(300, n_steps=20, seed=19, spec=prob.A_spec)
    sol = solve(prob, ens, tol=1e-30, max_iter=3, force=True)
    assert sol.Y.shape == (300, 21, 1) and sol.Z.shape == (300, 21, 1, 1)
    assert not sol.Y.flags.c_contiguous and not sol.Z.flags.c_contiguous
    assert all(sol.Y[:, i].flags.c_contiguous and sol.Z[:, i].flags.c_contiguous
               for i in range(21))
    copies = spy_on_node_major(monkeypatch)
    residuals = consistency_residuals(prob, sol)
    assert copies == []
    copied = replace(sol, Y=np.ascontiguousarray(sol.Y), Z=np.ascontiguousarray(sol.Z))
    assert consistency_residuals(prob, copied) == residuals


def test_contraction_report_verdicts():
    def diag(deltas, ratios, mu):
        from delaybsde.picard_solver import SolverDiagnostics
        return SolverDiagnostics(
            deltas=deltas, ratios=ratios, tol=1e-6, converged=True,
            iterations=len(deltas), alpha=8.5, beta=4.0, mu_lambda=mu,
            a=1000.0, b=106.0)

    rep = contraction_report(diag([4.0, 0.4, 0.04, 0.004], [0.1, 0.1, 0.1], 0.5))
    assert rep.passed and rep.tail_max == pytest.approx(0.1)
    rep = contraction_report(diag([4.0, 0.4, 0.36, 0.32], [0.1, 0.9, 0.9], 0.3))
    assert rep.verdict == "FAIL"
    rep = contraction_report(diag([4.0, 0.4], [0.1], 0.5))
    assert rep.verdict == "INCONCLUSIVE"


def test_replay_frozen_coefficients():
    """With no Stieltjes term and no delay feature, each value level is a
    function of the plan's regression state (W and a random A): refitting
    Y[:, i] on the plan's design reproduces it, and after a future splice the
    design, so the level, is unchanged at or before the splice node."""
    from delaybsde.stochastic_engine import RegressionPlan
    from splicing import splice_future

    spec = IncreasingProcessSpec("running_max", {})
    ens = make_ensemble(500, n_steps=20, seed=21, spec=spec)
    prob = make_problem(
        F=registry.build_F({"name": "linear", "params": {"a_y": 0.4, "a_z": 0.2}}),
        xi=registry.build_terminal({"name": "brownian", "params": {}}), A_spec=spec)
    n = ens.n_paths
    plan = RegressionPlan(RegressionBasis(), ens)
    Y, _ = gamma_step(prob, ens, np.zeros((n, 21, 1)), np.zeros((n, 21, 1, 1)),
                      plan=plan)

    split = 10
    perm = np.random.default_rng(0).permutation(n)
    spliced = RegressionPlan(RegressionBasis(), splice_future(ens, split, perm))
    for i in (0, 3, 7, 10, 12, 15):
        design = plan.design(i)
        # 1, W, W^2 and the random A's column
        assert design.shape == (n, 4)
        fitted, theta = plan.fit(i, design, Y[:, i])
        assert np.allclose(fitted, Y[:, i], rtol=0.0, atol=1e-10)
        if i <= split:
            assert np.array_equal(spliced.design(i), design)
        else:
            assert not np.allclose(spliced.design(i) @ theta, Y[:, i])


def delayed_linear_case(seed):
    """Criterion 4's first problem on 4,000 paths x 50 steps, its ensemble
    and the coefficient oracle C (oracles.delayed_linear_coefficients)."""
    kappa = 0.03
    problem = ProblemSpec(
        T=1.0, delta=0.1, xi=registry.build_terminal({"name": "brownian"}),
        A_spec=IDENTITY_A, beta=4.0, L=1.0, L_tilde=1.0, K=kappa ** 2, c=1.5e-3,
        F=registry.build_F({"name": "delayed_linear", "params": {"kappa": kappa}}),
        rho=AtomMeasure.dirac(-0.1))
    grid = TimeGrid.uniform(1.0, 50, delta=0.1)
    ens = realize_increasing_process(IDENTITY_A, simulate_brownian(grid, 4000, seed=seed))
    C = delayed_linear_coefficients(kappa, grid.n_steps, grid.delta_index_offset,
                                    float(grid.steps()[0]))
    return problem, ens, C


@pytest.mark.parametrize("seed", [1, 2])
def test_delayed_linear_Y_paths_match_the_coefficient_oracle(seed):
    # the bound stands on the measured mean per-node RMSE of 0.016 (seed 1)
    # and 0.012 (seed 2) at degree 2, and a regression on the constant alone
    # (0.66, 0.65) must miss it
    problem, ens, C = delayed_linear_case(seed)
    oracle = ens.W[:, :, 0] @ C.T

    def mean_rmse(degree):
        Y = solve(problem, ens, basis=RegressionBasis(degree=degree), tol=1e-8).Y[:, :, 0]
        return float(np.mean(np.sqrt(np.mean((Y - oracle) ** 2, axis=0))))

    assert mean_rmse(2) <= 0.03
    assert mean_rmse(0) > 0.03


@pytest.mark.parametrize("seed", [1, 2])
def test_delayed_linear_Z_paths_match_the_coefficient_oracle(seed):
    # Z_i = C[i+1, i+1] at nodes 0..N-1, the W_{i+1} coefficient of Y_{i+1};
    # the bound stands on the measured mean per-node RMSE of 0.044 (seed 1)
    # and 0.037 (seed 2) at degree 2, and the constant alone (0.99) must miss it
    problem, ens, C = delayed_linear_case(seed)
    oracle = np.diag(C)[1:]

    def mean_rmse(degree):
        Z = solve(problem, ens, basis=RegressionBasis(degree=degree), tol=1e-8).Z
        return float(np.mean(np.sqrt(np.mean((Z[:, :-1, 0, 0] - oracle) ** 2, axis=0))))

    assert mean_rmse(2) <= 0.06
    assert mean_rmse(0) > 0.06
