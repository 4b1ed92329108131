"""Brownian simulation, increasing integrators, regression estimates."""

import numpy as np
import pytest

from delaybsde.errors import MonotonicityError, SingularSystemError
from delaybsde.path_calculus import TimeGrid
from delaybsde.stochastic_engine import (
    IncreasingProcessSpec,
    RegressionBasis,
    RegressionPlan,
    conditional_expectation,
    fit_least_squares,
    load_ensemble,
    omega_delta,
    realize_increasing_process,
    save_ensemble,
    simulate_brownian,
    splice_future,
)

GRID = TimeGrid.uniform(1.0, 32)


def det(shape, **params):
    return IncreasingProcessSpec("deterministic", {"shape": shape, **params})


# ---------------------------------------------------------------- Brownian

def test_brownian_starts_at_zero_with_gaussian_increments():
    ens = simulate_brownian(GRID, 20000, d=2, seed=11)
    assert np.all(ens.W[:, 0, :] == 0.0)
    dW = ens.increments()
    dt = GRID.steps()[None, :, None]
    # CLT bounds at 3 sigma for the frozen seed
    z = dW / np.sqrt(dt)
    assert abs(z.mean()) <= 3.0 / np.sqrt(z.size)
    assert abs(z.var() - 1.0) <= 3.0 * np.sqrt(2.0 / z.size)
    assert abs(ens.W[:, -1, 0].mean()) <= 3.0 / np.sqrt(20000)


def test_brownian_reproducible_and_path_major():
    a = simulate_brownian(GRID, 50, d=2, seed=3)
    b = simulate_brownian(GRID, 50, d=2, seed=3)
    assert np.array_equal(a.W, b.W)
    # growing the ensemble appends paths without disturbing earlier ones
    c = simulate_brownian(GRID, 80, d=2, seed=3)
    assert np.array_equal(c.W[:50], a.W)
    assert not np.array_equal(simulate_brownian(GRID, 50, d=2, seed=4).W, a.W)


def test_ensemble_arrays_frozen():
    ens = simulate_brownian(GRID, 3, seed=0)
    with pytest.raises(ValueError):
        ens.W[0, 0, 0] = 1.0


# ---------------------------------------------------------------- A kinds

def test_deterministic_shapes():
    ens = simulate_brownian(GRID, 4, seed=1)
    out = realize_increasing_process(det("identity"), ens)
    assert np.allclose(out.A, GRID.nodes[None, :], atol=0)
    out = realize_increasing_process(det("power", exponent=2.0), ens)
    assert np.allclose(out.A[0], GRID.nodes ** 2, atol=0)
    out = realize_increasing_process(det("linear", rate=2.5), ens)
    assert out.A[0, -1] == pytest.approx(2.5)


def test_running_max_matches_bruteforce():
    ens = simulate_brownian(GRID, 40, seed=9)
    out = realize_increasing_process(IncreasingProcessSpec("running_max", {}), ens)
    brute = np.array([[ens.W[p, : i + 1, 0].max() for i in range(33)]
                      for p in range(40)])
    assert np.array_equal(out.A, brute)
    assert np.all(out.A[:, 0] == 0.0)
    assert np.all(np.diff(out.A, axis=1) >= 0)


def test_time_integral_constant_rate_is_ramp():
    ens = simulate_brownian(GRID, 6, seed=2)
    spec = IncreasingProcessSpec("time_integral", {"functional": "constant", "value": 2.0})
    out = realize_increasing_process(spec, ens)
    assert np.allclose(out.A, 2.0 * GRID.nodes[None, :], atol=1e-14)


def test_time_integral_positive_functional_monotone():
    ens = simulate_brownian(GRID, 64, seed=5)
    spec = IncreasingProcessSpec("time_integral", {"functional": "inv_quadratic", "scale": 3.0})
    out = realize_increasing_process(spec, ens)
    assert np.all(np.diff(out.A, axis=1) >= 0)
    assert np.all(out.A[:, -1] <= 3.0 + 1e-12)


def test_oscillatory_sup_distance_closed_form():
    # sup_t |A_n - base| = T/(4 pi n); the grid holds a peak node for n=4, M=32
    ens = simulate_brownian(GRID, 2, seed=0)
    spec = IncreasingProcessSpec("oscillatory", {"base": det("identity"), "n": 4})
    out = realize_increasing_process(spec, ens)
    sup = np.max(np.abs(out.A - GRID.nodes[None, :]))
    assert sup == pytest.approx(1.0 / (16 * np.pi), abs=1e-15)
    assert np.all(np.diff(out.A, axis=1) >= 0)


def test_monotonicity_violations_raise():
    ens = simulate_brownian(GRID, 2, seed=0)
    with pytest.raises(MonotonicityError):
        realize_increasing_process(det(lambda t, p: -t), ens)
    with pytest.raises(MonotonicityError):
        realize_increasing_process(det(lambda t, p: t + 1.0), ens)
    # an oscillation too strong for its base slope
    weak = det("linear", rate=0.25)
    with pytest.raises(MonotonicityError):
        realize_increasing_process(
            IncreasingProcessSpec("oscillatory", {"base": weak, "n": 4}), ens)


def test_spec_roundtrip():
    spec = IncreasingProcessSpec("oscillatory", {"base": det("power", exponent=2.0), "n": 3})
    back = IncreasingProcessSpec.from_dict(spec.to_dict())
    assert back.kind == "oscillatory"
    assert back.params["n"] == 3
    assert back.params["base"].params["shape"] == "power"


# ---------------------------------------------------------------- omega_delta

def test_omega_delta_values():
    g = TimeGrid.uniform(1.0, 10)
    assert omega_delta(g.nodes.copy(), 0.3, g) == pytest.approx(0.3, abs=1e-12)
    assert omega_delta(np.zeros(11), 0.3, g) == 0.0
    # A = t^2: window increment 0.6 t + 0.09 peaks at t = 0.7
    assert omega_delta(g.nodes ** 2, 0.3, g) == pytest.approx(0.51, abs=1e-12)
    two = np.stack([g.nodes, g.nodes ** 2])
    out = omega_delta(two, 0.3, g)
    assert out.shape == (2,)
    with pytest.raises(ValueError):
        omega_delta(g.nodes, 1.5, g)


# ---------------------------------------------------------------- regression

def test_conditional_expectation_martingale():
    # E[W(T) | F_t] = W(t); fitted values track the state
    g = TimeGrid.uniform(1.0, 4)
    ens = simulate_brownian(g, 20000, seed=21)
    basis = RegressionBasis(degree=2)
    fitted = conditional_expectation(ens.W[:, -1, 0], basis, ens, step=2)
    rmse = np.sqrt(np.mean((fitted - ens.W[:, 2, 0]) ** 2))
    assert rmse <= 0.02


def test_conditional_expectation_squared_brownian():
    # E[W(T)^2 | F_t] = W(t)^2 + (T - t): coefficients (T-t, 0, 1)
    g = TimeGrid.uniform(1.0, 4)
    ens = simulate_brownian(g, 40000, seed=22)
    basis = RegressionBasis(degree=2)
    _, theta = conditional_expectation(ens.W[:, -1, 0] ** 2, basis, ens, step=2,
                                       return_coefficients=True)
    assert theta[0] == pytest.approx(0.5, abs=0.05)
    assert theta[1] == pytest.approx(0.0, abs=0.05)
    assert theta[2] == pytest.approx(1.0, abs=0.05)


def test_conditional_expectation_constant_exact():
    ens = simulate_brownian(GRID, 500, seed=4)
    fitted = conditional_expectation(np.full(500, 3.25), RegressionBasis(2), ens, step=7)
    assert np.allclose(fitted, 3.25, atol=1e-9)


def test_conditional_expectation_step_zero_is_mean():
    ens = simulate_brownian(GRID, 1000, seed=6)
    targets = ens.W[:, -1, 0] ** 2
    fitted, theta = conditional_expectation(targets, RegressionBasis(2), ens, 0,
                                            return_coefficients=True)
    assert np.allclose(fitted, targets.mean(), atol=1e-14)
    assert theta[1] == 0.0 and theta[2] == 0.0


def test_singular_design_raises_without_ridge():
    ens = simulate_brownian(GRID, 100, seed=8)
    dup = ens.W[:, 5, 0]
    with pytest.raises(SingularSystemError):
        conditional_expectation(ens.W[:, -1, 0], RegressionBasis(1, ridge=0.0),
                                ens, 5, extra_features=[dup])
    out = conditional_expectation(ens.W[:, -1, 0], RegressionBasis(1, ridge=1e-10),
                                  ens, 5, extra_features=[dup])
    assert np.all(np.isfinite(out))


def test_residuals_orthogonal_to_features():
    ens = simulate_brownian(GRID, 5000, seed=10)
    basis = RegressionBasis(2, ridge=0.0)
    design = basis.design(ens.W[:, 6, :])
    targets = ens.W[:, -1, 0] ** 3
    theta = fit_least_squares(design, targets, ridge=0.0)
    resid = targets - design @ theta
    assert np.max(np.abs(design.T @ resid)) <= 1e-8 * np.abs(targets).sum()


def test_multi_rhs_matches_separate_fits():
    ens = simulate_brownian(GRID, 3000, seed=12)
    design = RegressionBasis(2).design(ens.W[:, 4, :])
    t1 = ens.W[:, -1, 0]
    t2 = ens.W[:, -1, 0] ** 2
    both = fit_least_squares(design, np.stack([t1, t2], axis=1), ridge=1e-10)
    assert np.allclose(both[:, 0], fit_least_squares(design, t1, 1e-10), atol=1e-12)
    assert np.allclose(both[:, 1], fit_least_squares(design, t2, 1e-10), atol=1e-12)


@pytest.mark.parametrize("step, width, random_A", [
    (5, None, False), (5, 3, False), (0, None, False), (0, 2, False),
    (5, None, True), (9, 2, True)])
def test_plan_fit_matches_conditional_expectation(step, width, random_A):
    ens = simulate_brownian(GRID, 700, d=2, seed=14)
    extra_columns = extras = None
    if random_A:
        ens = realize_increasing_process(IncreasingProcessSpec("running_max", {}), ens)
        extra_columns = lambda i: [ens.A[:, i]]
        extras = extra_columns(step)
    rng = np.random.default_rng(15)
    targets = ens.W[:, -1, 0] ** 2 + rng.normal(size=700)
    if width is not None:
        targets = targets[:, None] + rng.normal(size=(700, width))
    basis = RegressionBasis(2)
    want_fit, want_theta = conditional_expectation(
        targets, basis, ens, step, extra_features=extras, return_coefficients=True)
    plan = RegressionPlan(basis, ens, extra_columns=extra_columns)
    design = plan.design(step)
    # a second fit at the node reuses the cached normal matrix
    for _ in range(2):
        fit, theta = plan.fit(step, design, targets)
        assert np.array_equal(fit, want_fit) and np.array_equal(theta, want_theta)
    assert design.shape[1] == 6 + random_A


def test_plan_singular_design_raises_on_every_fit():
    ens = simulate_brownian(GRID, 100, seed=8)
    plan = RegressionPlan(RegressionBasis(1, ridge=0.0), ens,
                          extra_columns=lambda i: [ens.W[:, i, 0]])
    for _ in range(2):
        with pytest.raises(SingularSystemError):
            plan.fit(5, plan.design(5), ens.W[:, -1, 0])
    with pytest.raises(ValueError, match="one row per path"):
        plan.fit(5, plan.design(5), np.zeros(99))


# ---------------------------------------------------------------- adaptedness

def test_splice_preserves_past():
    ens = simulate_brownian(GRID, 200, seed=13)
    ens = realize_increasing_process(IncreasingProcessSpec("running_max", {}), ens)
    rng = np.random.default_rng(0)
    perm = rng.permutation(200)
    step = 12
    spliced = splice_future(ens, step, perm)
    assert np.array_equal(spliced.W[:, : step + 1, :], ens.W[:, : step + 1, :])
    assert np.array_equal(spliced.A[:, : step + 1], ens.A[:, : step + 1])
    assert not np.array_equal(spliced.W[:, step + 1:, :], ens.W[:, step + 1:, :])


def test_regression_evaluation_invariant_under_future_splice():
    # coefficients fitted once define a map of step-i features only
    ens = simulate_brownian(GRID, 400, seed=14)
    basis = RegressionBasis(2)
    step = 9
    fitted, theta = conditional_expectation(ens.W[:, -1, 0], basis, ens, step,
                                            return_coefficients=True)
    spliced = splice_future(ens, step, np.random.default_rng(1).permutation(400))
    replayed = basis.design(spliced.W[:, step, :]) @ theta
    assert np.array_equal(replayed, fitted)


# ---------------------------------------------------------------- persistence

def test_save_load_roundtrip(tmp_path):
    ens = simulate_brownian(TimeGrid.uniform(1.0, 8, delta=0.25), 12, d=2, seed=31)
    ens = realize_increasing_process(det("power", exponent=2.0), ens)
    save_ensemble(ens, str(tmp_path / "dump"))
    back = load_ensemble(str(tmp_path / "dump"))
    assert np.array_equal(back.W, ens.W)
    assert np.array_equal(back.A, ens.A)
    assert back.seed == ens.seed
    assert back.grid.delta == 0.25
    assert back.A_spec.kind == "deterministic"
