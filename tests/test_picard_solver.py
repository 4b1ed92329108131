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
"""

import itertools

import numpy as np
import pytest

from delaybsde import path_calculus, picard_solver, registry, stochastic_engine
from delaybsde.errors import (BlowupError, ConstraintViolationError,
                              GeneratorEvaluationError, GridAlignmentError,
                              NonContractionError, SingularSystemError)
from delaybsde.model import AtomMeasure, ProblemSpec, equivalent_norm
from delaybsde.path_calculus import TimeGrid, delay_windows
from delaybsde.picard_solver import (ContractionReport, build_B,
                                     contraction_report, gamma_step,
                                     node_segment, solve)
from delaybsde.stochastic_engine import (IncreasingProcessSpec,
                                         RegressionBasis,
                                         realize_increasing_process,
                                         simulate_brownian)

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
    plan = stochastic_engine.RegressionPlan(RegressionBasis(), ens)
    with pytest.raises(ValueError, match="read-only"):
        picard_solver._consistency(prob, plan, U, V, "explicit")
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


# --------------------------------------------------------------- gamma_step

def test_gamma_step_martingale_case():
    ens = make_ensemble(20000, n_steps=20)
    prob = make_problem(xi=registry.build_terminal({"name": "brownian", "params": {}}))
    U = np.zeros((20000, 21, 1))
    V = np.zeros((20000, 21, 1, 1))
    Y, Z, art = gamma_step(prob, ens, U, V)
    assert np.array_equal(Y[:, -1, 0], ens.W[:, -1, 0])
    err = np.sqrt(np.mean((Y[:, :, 0] - ens.W[:, :, 0]) ** 2))
    assert err < 0.02
    assert np.sqrt(np.mean((Z - 1.0) ** 2)) < 0.05
    assert np.all(art.B == 0.0)


def test_gamma_step_two_dimensional_value():
    ens = make_ensemble(4000, n_steps=10)

    def xi(ensemble):
        w = ensemble.W[:, -1, 0]
        return np.stack([w, -w], axis=1)

    prob = make_problem(xi=xi, m=2)
    U = np.zeros((4000, 11, 2))
    V = np.zeros((4000, 11, 2, 1))
    Y, Z, _ = gamma_step(prob, ens, U, V)
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
    Y, Z, _ = gamma_step(prob, ens, U, V)
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
    Y1, Z1, _ = gamma_step(prob, ens, U1, V1)
    Y2, Z2, _ = gamma_step(prob, ens, U2, V2)
    Ym, Zm, _ = gamma_step(prob, ens, lam * U1 + (1 - lam) * U2,
                           lam * V1 + (1 - lam) * V2)
    assert np.allclose(Ym, lam * Y1 + (1 - lam) * Y2, atol=1e-9)
    assert np.allclose(Zm, lam * Z1 + (1 - lam) * Z2, atol=1e-9)


def test_gamma_step_schemes_agree_to_first_order():
    ens = make_ensemble(2000, n_steps=50, seed=4)
    prob = make_problem(
        F=registry.build_F({"name": "linear", "params": {"a_y": 0.5, "a_z": 0.2}}),
        xi=registry.build_terminal({"name": "brownian", "params": {}}))
    U = np.zeros((2000, 51, 1))
    V = np.zeros((2000, 51, 1, 1))
    Ye, _, _ = gamma_step(prob, ens, U, V, scheme="explicit")
    Yi, _, _ = gamma_step(prob, ens, U, V, scheme="implicit")
    assert np.max(np.abs(Ye[:, 0] - Yi[:, 0])) < 0.05
    with pytest.raises(ValueError):
        gamma_step(prob, ens, U, V, scheme="midpoint")


def test_gamma_step_blowup():
    ens = make_ensemble(100, n_steps=20, seed=5)

    def huge(t, y, z, y_seg, z_seg, ctx):
        return 1e6 * y

    prob = make_problem(F=huge, xi=registry.build_terminal(
        {"name": "constant", "params": {"value": 1.0}}))
    U = np.zeros((100, 21, 1))
    V = np.zeros((100, 21, 1, 1))
    for scheme in ("explicit", "implicit"):
        with pytest.raises(BlowupError):
            gamma_step(prob, ens, U, V, scheme=scheme)


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
    with pytest.raises(SingularSystemError):
        gamma_step(prob, ens, U, V, basis=RegressionBasis(ridge=0.0))
    Y, _, _ = gamma_step(prob, ens, U, V)
    assert np.all(np.isfinite(Y))


def test_gamma_step_rejects_plan_of_another_ensemble():
    ens = make_ensemble(20, n_steps=10)
    plan = stochastic_engine.RegressionPlan(
        RegressionBasis(), make_ensemble(20, n_steps=10, seed=1))
    with pytest.raises(ValueError, match="another ensemble"):
        gamma_step(make_problem(), ens, np.zeros((20, 11, 1)),
                   np.zeros((20, 11, 1, 1)), plan=plan)


# ------------------------------------------------------------------- layout

def node_major(X):
    """X with its values laid out node-major: same shape, X[:, i] contiguous."""
    out = np.ascontiguousarray(np.swapaxes(X, 0, 1)).swapaxes(0, 1)
    assert not out.flags.c_contiguous and out[:, 3].flags.c_contiguous
    return out


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


@pytest.mark.parametrize("scheme", ["explicit", "implicit"])
def test_gamma_step_and_build_B_ignore_input_layout(scheme):
    prob = segment_problem()
    ens = make_ensemble(300, n_steps=20, seed=6, spec=prob.A_spec)
    rng = np.random.default_rng(10)
    U = rng.normal(size=(300, 21, 1))
    V = rng.normal(size=(300, 21, 1, 1))
    B = build_B(prob, ens, U)
    assert np.array_equal(build_B(prob, ens, node_major(U)), B)
    Y, Z, art = gamma_step(prob, ens, U, V, scheme=scheme)
    Y2, Z2, art2 = gamma_step(prob, ens, node_major(U), node_major(V), scheme=scheme)
    assert np.array_equal(Y2, Y) and np.array_equal(Z2, Z)
    assert np.array_equal(art2.B, art.B) and np.array_equal(art.B, B)
    # the sweep's layout: path-major shape, each node one contiguous block
    assert Y.shape == (300, 21, 1) and Z.shape == (300, 21, 1, 1)
    assert all(Y[:, i].flags.c_contiguous and Z[:, i].flags.c_contiguous for i in range(21))


def test_sweep_builds_no_window_copies(monkeypatch):
    shapes = []
    node_major_zeros = path_calculus.node_major_zeros

    def spy(shape):
        shapes.append(shape)
        return node_major_zeros(shape)

    for module in (path_calculus, picard_solver, stochastic_engine):
        monkeypatch.setattr(module, "node_major_zeros", spy)
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


def test_solve_matches_pass_by_pass_replay():
    prob = segment_problem()
    ens = make_ensemble(400, n_steps=20, seed=7, spec=prob.A_spec)
    sol = solve(prob, ens, tol=1e-30, max_iter=4, force=True)
    assert sol.Y.flags.c_contiguous and sol.Z.flags.c_contiguous
    diag = sol.diagnostics
    U = np.zeros((400, 21, 1))
    V = np.zeros((400, 21, 1, 1))
    deltas = []
    for _ in range(diag.iterations):
        # a fresh regression plan and norm weights on every pass
        Y, Z, _ = gamma_step(prob, ens, U, V)
        deltas.append(equivalent_norm(Y - U, Z - V, ens.A, ens.grid, alpha=diag.alpha,
                                      beta=diag.beta, a=diag.a, b=diag.b).total)
        U, V = Y, Z
    assert deltas == diag.deltas
    assert np.array_equal(U, sol.Y) and np.array_equal(V, sol.Z)


def test_conditional_expectation_makes_no_node_major_copy(monkeypatch):
    copies = []
    node_major_copy = stochastic_engine._node_major

    def spy(X):
        copies.append(X.shape)
        return node_major_copy(X)

    monkeypatch.setattr(stochastic_engine, "_node_major", spy)
    ens = make_ensemble(20_000, n_steps=20, seed=8)
    basis = RegressionBasis()
    targets = ens.W[:, -1, 0] ** 2
    fit = stochastic_engine.conditional_expectation(targets, basis, ens, 10)
    assert copies == []
    # a sweep's plan copies W once, on its first design, and reuses the copy
    plan = stochastic_engine.RegressionPlan(basis, ens)
    for _ in range(2):
        assert np.array_equal(plan.fit(10, plan.design(10), targets)[0], fit)
    assert copies == [ens.W.shape]


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
    prob = make_problem(
        F=registry.build_F({"name": "linear", "params": {"a_y": 0.2, "a_z": 0.1}}),
        xi=registry.build_terminal({"name": "brownian", "params": {}}))
    sol = solve(prob, ens, tol=1e-30, max_iter=2)
    assert sol.diagnostics.iterations == 2
    # nodes 1..19 regress on a nontrivial state; node 0 takes the plain mean
    assert sorted(gram_nodes) == list(range(1, 20))
    assert len(design_calls) == 2 * 20


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
    y0_true = np.exp(0.3) * 0.1
    assert sol.initial_value[0] == pytest.approx(y0_true, rel=0.05)
    z0 = float(np.mean(sol.Z[:, 0, 0, 0]))
    assert z0 == pytest.approx(np.exp(0.3), rel=0.05)
    assert np.array_equal(sol.Y[:, -1, 0], ens.W[:, -1, 0])
    # contraction: every ratio after the warm-up step is well below one
    assert all(r < 0.5 for r in d.ratios[1:])
    assert d.martingale_residual < 0.02
    assert np.isfinite(d.self_consistency_rms) and d.self_consistency_rms < 1.0
    assert contraction_report(d).passed


def test_solve_stieltjes_exponential():
    # dY = -0.5 Y dA with xi = 1 integrates to e^{0.5} at t = 0
    ens = make_ensemble(16, n_steps=100)
    prob = make_problem(
        G=registry.build_G({"name": "linear", "params": {"b": 0.5}}),
        xi=registry.build_terminal({"name": "constant", "params": {"value": 1.0}}),
        L_tilde=1.0)
    sol = solve(prob, ens, tol=1e-12, max_iter=30)
    assert sol.diagnostics.converged
    assert sol.initial_value[0] == pytest.approx(np.exp(0.5), rel=0.01)
    assert np.max(np.abs(sol.Z)) < 1e-6


def test_solve_drift_exponential():
    # dY = -0.5 Y dt with xi = 1 integrates to e^{0.5} at t = 0
    ens = make_ensemble(16, n_steps=100)
    prob = make_problem(
        F=registry.build_F({"name": "linear", "params": {"a_y": 0.5}}),
        xi=registry.build_terminal({"name": "constant", "params": {"value": 1.0}}))
    sol = solve(prob, ens, tol=1e-12, max_iter=30)
    assert sol.initial_value[0] == pytest.approx(np.exp(0.5), rel=0.01)


@pytest.mark.parametrize("scheme", ["explicit", "implicit"])
def test_solve_delayed_driver_against_ode_oracle(scheme):
    kappa = 0.03
    ens = make_ensemble(50, n_steps=50)
    prob = make_problem(
        F=registry.build_F({"name": "delayed_linear", "params": {"kappa": kappa}}),
        xi=registry.build_terminal({"name": "constant", "params": {"value": 1.0}}),
        K=kappa ** 2)
    sol = solve(prob, ens, tol=1e-14, max_iter=30, scheme=scheme)
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
    ens = make_ensemble(16, n_steps=50)
    prob = make_problem(
        G=registry.build_G({"name": "linear", "params": {"b": 0.5}}),
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


def test_contraction_report_verdicts():
    def diag(deltas, ratios, mu):
        from delaybsde.picard_solver import SolverDiagnostics
        return SolverDiagnostics(
            deltas=deltas, ratios=ratios, tol=1e-6, converged=True,
            iterations=len(deltas), alpha=8.5, beta=4.0, mu_lambda=mu,
            a=1000.0, b=106.0, scheme="explicit")

    rep = contraction_report(diag([4.0, 0.4, 0.04, 0.004], [0.1, 0.1, 0.1], 0.5))
    assert rep.passed and rep.tail_max == pytest.approx(0.1)
    rep = contraction_report(diag([4.0, 0.4, 0.36, 0.32], [0.1, 0.9, 0.9], 0.3))
    assert rep.verdict == "FAIL"
    rep = contraction_report(diag([4.0, 0.4], [0.1], 0.5))
    assert rep.verdict == "INCONCLUSIVE"


def test_replay_frozen_coefficients():
    """With no Stieltjes term and no delay feature, each value level is the
    stored design-coefficient image of the current Brownian state: replaying
    the coefficients reproduces the sweep, and after a future splice the
    levels at or before the splice node are unchanged."""
    from delaybsde.stochastic_engine import splice_future

    ens = make_ensemble(500, n_steps=20, seed=21)
    prob = make_problem(
        F=registry.build_F({"name": "linear", "params": {"a_y": 0.4, "a_z": 0.2}}),
        xi=registry.build_terminal({"name": "brownian", "params": {}}))
    n = ens.n_paths
    U = np.zeros((n, 21, 1))
    V = np.zeros((n, 21, 1, 1))
    Y, Z, art = gamma_step(prob, ens, U, V, keep_regression=True)
    basis = RegressionBasis()

    for i in (0, 5, 12):
        design = basis.design(ens.W[:, i, :])
        theta = art.thetas[i]["y"]
        assert np.array_equal(design @ theta, Y[:, i])

    split = 10
    rng = np.random.default_rng(0)
    perm = rng.permutation(n)
    spliced = splice_future(ens, split, perm)
    for i in (3, 7, 10):
        design = basis.design(spliced.W[:, i, :])
        for key in ("y", "z", "mean"):
            theta = art.thetas[i][key]
            replay = design @ theta
            if key == "y":
                assert np.array_equal(replay, Y[:, i])
    late = basis.design(spliced.W[:, 15, :]) @ art.thetas[15]["y"]
    assert not np.allclose(late, Y[:, 15])
