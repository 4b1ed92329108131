"""Perturbation runner and integral-convergence checker.

Oracle notes:

* terminal shifts with no drivers: Y_n = 1 + s identically, so the coupled
  error is exactly s^2 and the xi gap is s^{2p} = s^4 at p = 2.
* oscillatory integrator with G = 1, F = 0, xi = 0: Y_n(t) = A_n(T) - A_n(t)
  node-exactly, so the error equals max over grid nodes of p_n(t)^2 with
  p_n(t) = sin(2 pi n t) / (4 pi n); the variation of p_n stays near 1/pi
  no matter how small the oscillation gets.
* resonant pair H_n = sin(2 pi n^2 t)/(4 pi n), X_n = W + cos(2 pi n^2 t)/
  sqrt(n): the coupled integral at T grows like sqrt(n) T / 4 even though
  H_n -> 0 uniformly; the variation of H_n is about n / pi.
"""

import logging
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace
from scipy.stats import ks_2samp

from delaybsde import registry, stability_lab, stochastic_engine
from delaybsde.errors import FamilyInvalidError
from delaybsde.model import ProblemSpec
from delaybsde.path_calculus import BVFunction, GridFunction, TimeGrid
from delaybsde.path_calculus import cumulative_stieltjes, helly_bray_distance
from delaybsde.stability_lab import (HellyBrayRow, PerturbationFamily, ShiftedPaths,
                                     bv_tail_curve, generator_gap,
                                     helly_bray_stochastic_check,
                                     oscillatory_A_family,
                                     oscillatory_integration_family,
                                     resonant_integration_family,
                                     run_stability, xi_shift_family)
from delaybsde.stochastic_engine import (IncreasingProcessSpec,
                                         simulate_brownian)

IDENTITY_A = IncreasingProcessSpec("deterministic", {"shape": "identity"})


def make_base(**overrides):
    fields = dict(
        T=1.0, delta=0.1,
        xi=registry.build_terminal({"name": "constant", "params": {"value": 1.0}}),
        A_spec=IDENTITY_A,
        beta=4.0, L=1.0, L_tilde=1.0, K=0.0, K_tilde=0.0, c=1.5e-3,
    )
    fields.update(overrides)
    return ProblemSpec(**fields)


# ----------------------------------------------------------------- families

def test_family_validation():
    base = make_base()
    with pytest.raises(ValueError):
        PerturbationFamily(base=base, members=[])
    with pytest.raises(ValueError, match="delta"):
        PerturbationFamily(base=base, members=[replace(base, delta=0.2)])
    with pytest.raises(ValueError, match="label"):
        PerturbationFamily(base=base, members=[base], labels=["a", "b"])


def test_identical_members_are_degenerate():
    base = make_base()
    family = PerturbationFamily(base=base, members=[base, base, base])
    report = run_stability(family, n_paths=32, n_steps=20, final_threshold=1e-3)
    assert all(r.error < 1e-14 for r in report.rows)
    assert all(r.delta_total == 0.0 for r in report.rows)
    assert report.trend_ok and report.final_ok and report.passed


def test_xi_shift_family_exact_errors():
    base = make_base()
    shifts = [1.0, 0.25, 0.0625]
    family = xi_shift_family(base, shifts)
    report = run_stability(family, n_paths=64, n_steps=20,
                           final_threshold=0.01)
    for row, s in zip(report.rows, shifts):
        assert row.error == pytest.approx(s ** 2, rel=1e-6)
        assert row.delta_xi == pytest.approx(s ** 4, rel=1e-9)
        assert row.delta_F == 0.0 and row.delta_G == 0.0
        assert row.sup_A_diff == 0.0 and row.bv_H == 0.0
    assert report.spearman_rho == pytest.approx(1.0)
    assert report.passed
    assert "PASS" in str(report)


def test_oscillatory_A_family_vanishing_error_persistent_variation():
    base = make_base(
        xi=registry.build_terminal({"name": "constant", "params": {"value": 0.0}}),
        G=registry.build_G({"name": "constant", "params": {"value": 1.0}}))
    n_values = [2, 4, 8, 16]
    family = oscillatory_A_family(base, n_values)
    report = run_stability(family, n_paths=16, n_steps=100,
                           final_threshold=1e-3)
    nodes = np.linspace(0.0, 1.0, 101)
    for row, n in zip(report.rows, n_values):
        p_n = np.sin(2 * np.pi * n * nodes) / (4 * np.pi * n)
        expected = float(np.max(np.abs(p_n)))
        assert row.sup_A_diff == pytest.approx(expected, rel=1e-9)
        assert row.error == pytest.approx(expected ** 2, rel=1e-6)
        # the oscillation vanishes uniformly but not in variation
        assert row.bv_H > 0.2
    errors = [r.error for r in report.rows]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert report.passed


def test_run_stability_same_rows_on_broadcast_and_full_A(monkeypatch):
    # members with a deterministic A (one stored row) and one with a random
    # A (a full stack), then full copies of every A, as a hand-built
    # ensemble may hold them
    base = make_base(
        xi=registry.build_terminal({"name": "brownian", "params": {}}),
        F=registry.build_F({"name": "linear", "params": {"a_y": 0.2, "a_z": 0.1}}),
        G=registry.build_G({"name": "constant", "params": {"value": 1.0}}))
    family = oscillatory_A_family(base, [2, 4, 8])
    family = PerturbationFamily(
        base=base, members=family.members + [replace(base, A_spec=IncreasingProcessSpec(
            "time_integral", {"functional": "constant"}))])
    kwargs = dict(n_paths=64, n_steps=40, seed=3, final_threshold=1.0)
    broadcast = run_stability(family, **kwargs)
    realize = stability_lab.realize_increasing_process

    def realize_full(spec, ensemble):
        out = realize(spec, ensemble)
        return replace(out, A=np.array(out.A))

    monkeypatch.setattr(stability_lab, "realize_increasing_process", realize_full)
    full = run_stability(family, **kwargs)
    assert broadcast.rows == full.rows
    assert str(broadcast) == str(full)


def test_family_shares_one_plan_among_the_members_it_serves(monkeypatch):
    # the criterion-6 family, plus a member with a random A, which needs a
    # plan of its own
    base = make_base(
        xi=registry.build_terminal({"name": "constant", "params": {"value": 0.0}}),
        G=registry.build_G({"name": "constant", "params": {"value": 1.0}}))
    family = oscillatory_A_family(base, [1, 2, 4, 8, 16])
    family = PerturbationFamily(
        base=base, members=family.members + [replace(base, A_spec=IncreasingProcessSpec(
            "time_integral", {"functional": "inv_quadratic"}))])
    grams = []
    normal_matrix = stochastic_engine._normal_matrix

    def spy(design, ridge):
        grams.append(design.shape[1])
        return normal_matrix(design, ridge)

    monkeypatch.setattr(stochastic_engine, "_normal_matrix", spy)
    n_steps = 40
    kwargs = dict(n_paths=64, n_steps=n_steps, seed=4, final_threshold=1.0)
    shared = run_stability(family, **kwargs)
    # node 0 takes the plain mean; the random A adds a design column
    assert sorted(grams) == [3] * (n_steps - 1) + [4] * (n_steps - 1)
    # a fresh plan for every solve: the same rows from six times the work
    grams.clear()
    monkeypatch.setattr(stochastic_engine.RegressionPlan, "serves",
                        lambda plan, ensemble: plan.ensemble is ensemble)
    fresh = run_stability(family, **kwargs)
    assert len(grams) == (1 + len(family.members)) * (n_steps - 1)
    assert fresh.rows == shared.rows


@pytest.mark.parametrize("tol", [-1e-8, float("nan")])
def test_run_stability_refuses_a_tolerance_that_cannot_be_met(tol):
    family = xi_shift_family(make_base(), [1.0, 0.5])
    with pytest.raises(ValueError, match="tol must be a number >= 0"):
        run_stability(family, n_paths=16, n_steps=20, tol=tol)


def test_family_member_failing_conditions_is_named():
    base = make_base()
    bad = replace(base,
                  G=registry.build_G({"name": "rho_integral", "params": {"gamma": 2.0}}),
                  K_tilde=4.0)
    family = PerturbationFamily(base=base, members=[bad])
    with pytest.raises(FamilyInvalidError, match=r"member 0.*H2"):
        run_stability(family, n_paths=16, n_steps=20)


def test_invalid_base_is_reported():
    base = make_base(
        G=registry.build_G({"name": "rho_integral", "params": {"gamma": 2.0}}),
        K_tilde=4.0)
    family = PerturbationFamily(base=base, members=[base])
    with pytest.raises(FamilyInvalidError, match="base"):
        run_stability(family, n_paths=16, n_steps=20)


# ------------------------------------------------------------ generator gap

def test_generator_gap_values():
    base = make_base()
    Fa = registry.build_F({"name": "linear", "params": {"a_y": 0.5}})
    Fb = registry.build_F({"name": "linear", "params": {"a_y": 0.3}})
    gap = generator_gap(Fa, Fb, base, which="F")
    assert 0.55 <= gap <= 0.6 + 1e-9
    assert generator_gap(None, None, base, which="F") == 0.0
    Fc = registry.build_F({"name": "linear", "params": {"a_y": 0.5, "a_z": 0.2}})
    gap = generator_gap(Fc, None, base, which="F")
    assert 1.5 <= gap <= 2.1 + 1e-9
    with pytest.raises(ValueError):
        generator_gap(Fa, Fb, base, which="Q")


# --------------------------------------------------- integral convergence

def test_bv_tail_curve_deterministic():
    t = np.linspace(0.0, 1.0, 101)
    tails = bv_tail_curve([t[None, :]], levels=(0.5, 1.0, 2.0))
    assert tails == {0.5: 1.0, 1.0: 0.0, 2.0: 0.0}
    # a second member with variations 1.5 and 3 on its two paths sets the
    # worst case wherever it exceeds the first
    wide = np.stack([1.5 * t, 3.0 * t])
    tails = bv_tail_curve([t[None, :], wide], levels=(0.5, 1.0, 2.0, 4.0))
    assert tails == {0.5: 1.0, 1.0: 1.0, 2.0: 0.5, 4.0: 0.0}


def test_helly_bray_check_reduces_to_deterministic_distance():
    grid = TimeGrid.uniform(1.0, 200)
    t = grid.nodes
    x = t ** 2
    p4 = np.sin(2 * np.pi * 4 * t) / (4 * np.pi * 4)
    report = helly_bray_stochastic_check(
        [x[None, :]], [(t + p4)[None, :]], x[None, :], t[None, :], grid,
        bv_levels=(4.0,))
    det = helly_bray_distance(
        [GridFunction(grid, x)], [BVFunction(grid, t + p4)],
        GridFunction(grid, x), BVFunction(grid, t))
    assert report.rows[0].sup_distance == pytest.approx(det[0], abs=1e-15)


def test_helly_bray_oscillatory_family_passes():
    grid = TimeGrid.uniform(1.0, 200)
    ens = simulate_brownian(grid, 2000, seed=3)
    n_values = [2, 8, 32]
    X_list, H_list, X_lim, H_lim = oscillatory_integration_family(ens, n_values)
    report = helly_bray_stochastic_check(X_list, H_list, X_lim, H_lim, grid,
                                         labels=n_values)
    assert report.tight
    sups = [r.sup_distance for r in report.rows]
    assert sups[0] > sups[1] > sups[2]
    assert report.ks_final <= 0.02
    assert report.verdict == "PASS" and report.passed
    # truncation ladder is monotone in nu and bounded by the plain mean
    row = report.rows[-1]
    phis = [row.phi[nu] for nu in sorted(row.phi)]
    assert all(a <= b + 1e-15 for a, b in zip(phis, phis[1:]))
    assert phis[-1] <= row.sup_distance + 1e-15


def test_helly_bray_resonant_family_inconclusive():
    grid = TimeGrid.uniform(1.0, 1024)
    ens = simulate_brownian(grid, 500, seed=4)
    n_values = [2, 4, 8]
    X_list, H_list, X_lim, H_lim = resonant_integration_family(ens, n_values)
    report = helly_bray_stochastic_check(X_list, H_list, X_lim, H_lim, grid,
                                         bv_levels=(0.5, 1.0, 2.0),
                                         labels=n_values)
    assert not report.tight
    assert report.verdict == "INCONCLUSIVE" and not report.passed
    sups = [r.sup_distance for r in report.rows]
    # the coupled integrals drift apart at rate sqrt(n) T / 4
    assert sups[2] > sups[0]
    assert sups[2] == pytest.approx(np.sqrt(8.0) / 4.0, rel=0.25)
    assert not report.decreasing


def whole_stack_rows(X_list, H_list, X_lim, H_lim, nu_ladder=(0.25, 0.5, 1.0, 2.0)):
    """The check's rows from whole-stack integrals, one member at a time."""
    I_lim = cumulative_stieltjes(X_lim, H_lim)
    rows = []
    for j, (X, H) in enumerate(zip(X_list, H_list)):
        I_n = cumulative_stieltjes(X, H)
        sup = np.max(np.abs(I_n - I_lim), axis=1)
        terminal = I_n[:, -1]
        ks = ks_2samp(terminal, I_lim[:, -1], method="asymp").statistic \
            if terminal.size > 1 else abs(terminal[0] - I_lim[0, -1])
        rows.append(HellyBrayRow(
            label=str(j), sup_distance=float(np.mean(sup)),
            phi={nu: float(np.mean(np.minimum(sup, nu))) for nu in nu_ladder},
            ks_statistic=float(ks)))
    return rows


@pytest.mark.parametrize("family", [oscillatory_integration_family,
                                    resonant_integration_family])
def test_helly_bray_check_same_bits_on_broadcast_integrators(family):
    # 1,000 steps put 130 paths in a block of the check, so 300 paths end
    # on a partial block
    grid = TimeGrid.uniform(1.0, 1000)
    ens = simulate_brownian(grid, 300, seed=5)
    X_list, H_list, X_lim, H_lim = family(ens, [2, 4, 8])
    dense_X = [np.asarray(X) for X in X_list]
    for X, stack in zip(X_list, dense_X):
        assert X.shape == stack.shape == X_lim.shape
        assert np.array_equal(X[120:140], stack[120:140])
        assert np.array_equal(X.copy(), stack)
        # one shift row shared by every path
        assert np.allclose(stack - X_lim, stack[:1] - X_lim[:1], rtol=0.0, atol=1e-12)
    dense = [H.copy() for H in H_list]
    assert bv_tail_curve(H_list) == bv_tail_curve(dense)
    report = helly_bray_stochastic_check(X_list, H_list, X_lim, H_lim, grid)
    assert report.rows == whole_stack_rows(dense_X, H_list, X_lim, H_lim)
    assert report == helly_bray_stochastic_check(dense_X, H_list, X_lim, H_lim, grid)
    assert report == helly_bray_stochastic_check(X_list, dense, X_lim, H_lim.copy(), grid)
    # single-row members against the multi-row limit
    rows = [X[:1] for X in X_list], [H[:1] for H in H_list]
    report = helly_bray_stochastic_check(*rows, X_lim, H_lim, grid)
    assert report.rows == whole_stack_rows(*rows, X_lim, H_lim)
    assert report == helly_bray_stochastic_check(*rows, X_lim, H_lim.copy(), grid)


def read_only(a):
    a = np.asarray(a)
    a.flags.writeable = False
    return a


# (BLOCK_BYTES, paths per tile): every node a chunk of its own; chunks of 7
# nodes, so that 64 steps end on a partial chunk, and tiles of 128 paths, so
# that 300 paths end on a partial tile; the default
@pytest.mark.parametrize("block_bytes, tile", [(1, 512), (7 * 8 * 6 * 300, 128), (None, None)])
def test_helly_bray_check_matches_whole_stack_integrals(monkeypatch, block_bytes, tile):
    if block_bytes is not None:
        monkeypatch.setattr(stability_lab, "BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(stability_lab, "_TILE", tile)
    grid = TimeGrid.uniform(1.0, 64)
    ens = simulate_brownian(grid, 300, d=2, seed=13)
    rng = np.random.default_rng(13)
    t = grid.nodes
    W, V = read_only(ens.W[:, :, 0]), read_only(ens.W[:, :, 1].copy())
    X_list = [
        ShiftedPaths(W, read_only(np.sin(3 * t))),   # the limit's base
        read_only(rng.standard_normal(W.shape)),     # integrands that share no base
        ShiftedPaths(V, read_only(t ** 2)),
        read_only(V[:1] + t),                        # a single row
        read_only(np.asfortranarray(rng.standard_normal(W.shape))),
    ]
    H_list = [
        read_only(np.broadcast_to(t + np.sin(6 * t) / 12, W.shape)),
        read_only(np.cumsum(rng.exponential(size=W.shape), axis=1)),   # dense per path
        read_only(np.maximum.accumulate(V, axis=1)),
        read_only(t[None, :] ** 2),                                     # a single row
        read_only(np.broadcast_to(t[None, :] ** 2, W.shape)),
    ]
    X_lim, H_lim = W, read_only(np.broadcast_to(t, W.shape))
    arrays = [W, V, *H_list, *(X for X in X_list if isinstance(X, np.ndarray))]
    before = [np.copy(a) for a in arrays]
    report = helly_bray_stochastic_check(X_list, H_list, X_lim, H_lim, grid)
    dense_X = [np.asarray(X) for X in X_list]
    assert report.rows == whole_stack_rows(dense_X, H_list, X_lim, H_lim)
    assert report == helly_bray_stochastic_check(dense_X, H_list, X_lim, H_lim, grid)
    assert all(np.array_equal(a, b) for a, b in zip(before, arrays))
    # single-row members against the multi-row limit
    rows = [X[:1] for X in dense_X], [H[:1] for H in H_list]
    report = helly_bray_stochastic_check(*rows, X_lim, H_lim, grid)
    assert report.rows == whole_stack_rows(*rows, X_lim, H_lim)
    # a single-row limit against multi-row members
    report = helly_bray_stochastic_check(dense_X, H_list, X_lim[:1], H_lim[:1], grid)
    assert report.rows == whole_stack_rows(dense_X, H_list, X_lim[:1], H_lim[:1])
    # a single path
    paths = [[a[5:6] if a.shape[0] > 1 else a for a in stacks] for stacks in (dense_X, H_list)]
    report = helly_bray_stochastic_check(*paths, X_lim[5:6], H_lim[5:6], grid)
    assert report.rows == whole_stack_rows(*paths, X_lim[5:6], H_lim[5:6])


def test_stability_lab_still_binds_cumulative_stieltjes():
    # the traced benchmark run patches the name here
    assert stability_lab.cumulative_stieltjes is cumulative_stieltjes


MEMBER_STACK = 5_000 * 513 * 8   # one member's integrand or integral, bytes


@pytest.mark.parametrize("family", [oscillatory_integration_family,
                                    resonant_integration_family])
def test_helly_bray_families_and_check_hold_no_member_stack(family):
    ens = simulate_brownian(TimeGrid.uniform(1.0, 512), 5_000, seed=8)
    n_values = [2, 4, 8, 16, 32]
    tracemalloc.start()
    try:
        inputs = family(ens, n_values)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        helly_bray_stochastic_check(*inputs, ens.grid)
        checked = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built < MEMBER_STACK
    assert checked < MEMBER_STACK


def test_resonant_family_warns_about_aliased_members(caplog):
    ens = simulate_brownian(TimeGrid.uniform(1.0, 512), 10, seed=9)
    with caplog.at_level(logging.WARNING, logger="delaybsde.stability_lab"):
        resonant_integration_family(ens, [8])
    assert not caplog.records
    with caplog.at_level(logging.WARNING, logger="delaybsde.stability_lab"):
        resonant_integration_family(ens, [8, 16])
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    assert "n=16 needs at least 513 steps" in record.getMessage()
    assert "n=8" not in record.getMessage()


def test_helly_bray_check_leaves_its_inputs_alone():
    grid = TimeGrid.uniform(1.0, 64)
    ens = simulate_brownian(grid, 200, seed=6)
    X_list, H_list, X_lim, H_lim = oscillatory_integration_family(ens, [2, 4])
    # dense and writable, so that a write into any of them would show
    inputs = ([X.copy() for X in X_list], [H.copy() for H in H_list],
              X_lim.copy(), H_lim.copy())
    before = [np.copy(a) for a in (*inputs[0], *inputs[1], inputs[2], inputs[3])]
    helly_bray_stochastic_check(*inputs, grid)
    helly_bray_stochastic_check([X[:1] for X in inputs[0]],
                                [H[:1] for H in inputs[1]], *inputs[2:], grid)
    after = (*inputs[0], *inputs[1], inputs[2], inputs[3])
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_helly_bray_input_validation():
    grid = TimeGrid.uniform(1.0, 10)
    t = grid.nodes[None, :]
    with pytest.raises(ValueError):
        helly_bray_stochastic_check([t], [t, t], t, t, grid)
    with pytest.raises(ValueError):
        helly_bray_stochastic_check([t[:, :5]], [t[:, :5]], t[:, :5], t[:, :5], grid)
    with pytest.raises(ValueError, match="no paths"):
        helly_bray_stochastic_check([t[:0]], [t], t, t, grid)
