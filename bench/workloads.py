"""The four benchmark workloads.

Each workload builds its inputs from a seed (``setup``), then runs timed
operations through the package's public API: ``check`` operations are the
assumption checks a user runs before solving, ``compute`` operations the
solves or experiments.  Every operation has a ``verify`` function that judges
its output against a reference computed here, apart from the package, or
against a property the method must have.  Verification runs after the timed
phases.

Package functions are called through their modules (``engine.solve`` style)
so that the traced run, which patches module attributes, sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from delaybsde import model, path_calculus, picard_solver, registry, stability_lab
from delaybsde import stochastic_engine as engine


@dataclass(frozen=True)
class Op:
    name: str
    run: object                  # state -> output
    verify: object               # (state, output) -> list of problems
    # A fault in the package that makes this operation fail on every input;
    # while it stands, a failed verification counts the operation as failed
    # instead of marking the run incorrect.
    known_fault: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    heldout_seed: int
    setup: object                # seed -> state
    check: list
    compute: list
    info: object = None          # (state, outputs) -> {name: (value, unit)}
    preflight: object = None     # state -> list of problems, checked before timing


def _A(kind, **params):
    return engine.IncreasingProcessSpec(kind, params)


# ----------------------------------------------------------- shared checks

def check_assumptions(problem, ensemble, seed):
    """The check-assumptions step: (H1)/(H2), lambda selection, both
    Lipschitz probes and the integrability report."""
    c = model.effective_c(problem)
    return SimpleNamespace(
        h1=model.check_H1(problem, ensemble, c),
        h2=model.check_H2(problem, ensemble, c),
        selection=model.select_lambda(c, problem.beta, problem.L_tilde),
        probes=[model.probe_lipschitz(problem, which=w, seed=seed) for w in "FG"],
        integrability=model.check_integrability(problem, ensemble))


def _assumption_problems(out):
    problems = [f"({rep.name}) fails: {rep}" for rep in (out.h1, out.h2)
                if not rep.passed]
    if not out.selection.mu_lambda < 1.0:
        problems.append(f"mu_lambda={out.selection.mu_lambda} does not contract")
    for probe in out.probes:
        # honest declared constants: declared >= empirical
        if probe.empirical_L > probe.declared_L or probe.empirical_K1 > probe.declared_K1:
            problems.append(f"declared constants of {probe.which} are below "
                            f"the probe's: {probe}")
    if not out.integrability.all_finite:
        problems.append("integrability report has non-finite moments")
    return problems


def check_all(state):
    """Assumption checks of every (problem, ensemble) pair the workload solves."""
    return [check_assumptions(problem, ensemble, state.seed)
            for problem, ensemble in state.checked]


def verify_all(state, outs):
    return [f"problem {i}: {p}" for i, out in enumerate(outs)
            for p in _assumption_problems(out)]


ASSUMPTIONS = Op("check_assumptions", check_all, verify_all)


# ----------------------------------------------------------- readme_solve

README_PATHS, README_STEPS = 20_000, 50
# Path RMSE of Y against the closed form: about 0.027 at 20k x 50 (time
# discretization and regression bias); the bound leaves room for the seed.
README_RMSE_TOL = 0.05


def readme_setup(seed):
    problem = model.ProblemSpec(
        T=1.0, delta=0.1,
        xi=registry.build_terminal({"name": "brownian"}),
        F=registry.build_F({"name": "linear", "params": {"a_y": 0.2, "a_z": 0.1}}),
        G=registry.build_G({"name": "linear", "params": {"b": 0.1}}),
        A_spec=_A("deterministic", shape="identity"),
        beta=4.0, L=1.0, L_tilde=1.0, K=5e-4, K_tilde=2e-4, c=1.5e-3)
    grid = path_calculus.TimeGrid.uniform(problem.T, README_STEPS, delta=problem.delta)
    ensemble = engine.realize_increasing_process(
        problem.A_spec, engine.simulate_brownian(grid, README_PATHS, seed=seed))
    return SimpleNamespace(seed=seed, problem=problem, ensemble=ensemble,
                           checked=[(problem, ensemble)])


def readme_closed_form(ensemble):
    """Y(t) = e^{0.3 (T - t)} (W(t) + 0.1 (T - t)) for F = 0.2y + 0.1z,
    G = 0.1y, A = t, xi = W(T)."""
    rest = ensemble.grid.T - ensemble.grid.nodes[None, :]
    return np.exp(0.3 * rest) * (ensemble.W[:, :, 0] + 0.1 * rest)


def readme_rmse(state, solution):
    gap = solution.Y[:, :, 0] - readme_closed_form(state.ensemble)
    return float(np.sqrt(np.mean(gap ** 2)))


def readme_verify_solve(state, solution):
    problems = []
    if not solution.diagnostics.converged:
        problems.append("solve did not converge")
    rmse = readme_rmse(state, solution)
    if not rmse <= README_RMSE_TOL:
        problems.append(f"path RMSE of Y vs the closed form {rmse:.4g} > {README_RMSE_TOL}")
    return problems


def _readme_info(state, outputs):
    return {"picard_iterations": (outputs["solve"].diagnostics.iterations, "count"),
            "y_rmse": (readme_rmse(state, outputs["solve"]), "value")}


def readme_solve_op(state):
    return picard_solver.solve(state.problem, state.ensemble,
                               basis=engine.RegressionBasis(degree=2))


# ----------------------------------------------------------- stability_family

STAB_PATHS, STAB_STEPS = 2_000, 200
STAB_N = (1, 2, 4, 8, 16)


def stability_setup(seed):
    base = model.ProblemSpec(
        T=1.0, delta=0.1,
        xi=registry.build_terminal({"name": "constant", "params": {"value": 0.0}}),
        G=registry.build_G({"name": "constant", "params": {"value": 1.0}}),
        A_spec=_A("deterministic", shape="identity"),
        beta=4.0, L=1.0, L_tilde=1.0, c=1.5e-3)
    family = stability_lab.oscillatory_A_family(base, STAB_N)
    grid = path_calculus.TimeGrid.uniform(base.T, STAB_STEPS, delta=base.delta)
    # the assumption checks run on the base and every member; run_stability
    # simulates the same driving ensemble again from the seed
    driving = engine.simulate_brownian(grid, STAB_PATHS, seed=seed)
    checked = [(problem, engine.realize_increasing_process(problem.A_spec, driving))
               for problem in [base] + family.members]
    return SimpleNamespace(seed=seed, problem=base, family=family,
                           grid=grid, checked=checked)


def stability_run_op(state):
    return stability_lab.run_stability(
        state.family, n_paths=STAB_PATHS, n_steps=STAB_STEPS, seed=state.seed,
        final_threshold=1e-3, basis=engine.RegressionBasis(degree=2))


def _oscillation(n, nodes, T):
    return T * np.sin(2 * np.pi * n * nodes / T) / (4 * np.pi * n)


def stability_verify(state, report):
    """With G = 1, F = 0, xi = 0 each member solves to Y_n = A_n(T) - A_n(t)
    with Z_n = 0, where A_n = t + p_n.  So the coupled error is
    max_t p_n(t)^2, BV(H) is the grid variation of p_n (about 1/pi), and the
    member's weighted norm is that of the deterministic Y_n."""
    nodes, T = state.grid.nodes, state.grid.T
    problems = []
    if not report.passed:
        problems.append(f"stability verdict FAIL:\n{report}")
    errors = [row.error for row in report.rows]
    for n, row in zip(STAB_N, report.rows):
        p = _oscillation(n, nodes, T)
        expect_err = float(np.max(p ** 2))
        expect_bv = float(np.sum(np.abs(np.diff(p))))
        A_n = nodes + p
        y = A_n[-1] - A_n
        w = np.exp(state.problem.beta * A_n)
        expect_norm = float(np.max(w * y ** 2) + np.sum((w * y ** 2)[:-1] * np.diff(A_n)))
        for what, got, want in (("error", row.error, expect_err),
                                ("bv_H", row.bv_H, expect_bv),
                                ("weighted norm of Y_n", row.norm_total, expect_norm)):
            if not math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-12):
                problems.append(f"member n={n}: {what} {got:.10g} != {want:.10g}")
    if not all(b < a for a, b in zip(errors, errors[1:])):
        problems.append(f"errors do not decrease: {errors}")
    if not errors[-1] <= 1e-3:
        problems.append(f"final error {errors[-1]:.3g} > 1e-3")
    return problems


# ----------------------------------------------------------- delayed_segment

DELAYED_PATHS, DELAYED_STEPS = 2_500, 100
DELAYED_KAPPA, DELAYED_A_Y, DELAYED_G = 0.008, 0.1, 0.5
DELAYED_ATOMS = (-0.5, -0.25, 0.0)
DELAYED_TOL = 1e-12         # Picard tolerance on the squared distance
DELAYED_MEAN_TOL = 1e-7     # node means of Y against the scalar recursion


def delayed_problem():
    return model.ProblemSpec(
        T=1.0, delta=0.5,
        xi=registry.build_terminal({"name": "process_total"}),
        F=registry.build_F({"name": "linear_plus_rho",
                            "params": {"a_y": DELAYED_A_Y, "kappa_rho": DELAYED_KAPPA}}),
        G=registry.build_G({"name": "constant", "params": {"value": DELAYED_G}}),
        A_spec=_A("time_integral", functional="inv_quadratic"),
        beta=1.0, L=0.25, L_tilde=0.25, K=DELAYED_KAPPA ** 2, K_tilde=0.0,
        rho=model.AtomMeasure(np.array(DELAYED_ATOMS),
                              np.full(len(DELAYED_ATOMS), 1.0 / len(DELAYED_ATOMS))))


def delayed_setup(seed):
    problem = delayed_problem()
    grid = path_calculus.TimeGrid.uniform(problem.T, DELAYED_STEPS, delta=problem.delta)
    ensemble = engine.realize_increasing_process(
        problem.A_spec, engine.simulate_brownian(grid, DELAYED_PATHS, seed=seed))
    return SimpleNamespace(seed=seed, problem=problem, ensemble=ensemble,
                           checked=[(problem, ensemble)])


def delayed_solve_op(state):
    return picard_solver.solve(state.problem, state.ensemble,
                               basis=engine.RegressionBasis(degree=2),
                               tol=DELAYED_TOL, max_iter=25)


def delayed_mean_recursion(W, nodes, kappa):
    """Cross-path mean of Y at every node for the explicit scheme.

    Least squares with an intercept preserves sample means, so the means
    y_i obey y_M = mean A(T) and, for i < M,
        y_i = (1 + a_y dt) y_{i+1} + g (a_{i+1} - a_i)
              + dt kappa sum_j w_j y_{max(i - k_j, 0)},
    where a is the mean of A = int dt / (1 + W^2) by left sums and the
    atoms sit k_j steps back.  The delay terms make this a linear system in
    all node means at once.
    """
    dt = nodes[1] - nodes[0]
    M = nodes.size - 1
    A = np.zeros_like(W)
    A[:, 1:] = np.cumsum(dt / (1.0 + W[:, :-1] ** 2), axis=1)
    a = A.mean(axis=0)
    lags = [int(round(-theta / dt)) for theta in DELAYED_ATOMS]
    weight = 1.0 / len(DELAYED_ATOMS)
    system = np.zeros((M + 1, M + 1))
    rhs = np.zeros(M + 1)
    system[M, M] = 1.0
    rhs[M] = a[M]
    for i in range(M):
        system[i, i] += 1.0
        system[i, i + 1] -= 1.0 + DELAYED_A_Y * dt
        for lag in lags:
            system[i, max(i - lag, 0)] -= dt * kappa * weight
        rhs[i] = DELAYED_G * (a[i + 1] - a[i])
    return np.linalg.solve(system, rhs)


def _delayed_means(state, kappa=DELAYED_KAPPA):
    ens = state.ensemble
    return delayed_mean_recursion(ens.W[:, :, 0], ens.grid.nodes, kappa)


def delayed_mean_gap(state, solution):
    return float(np.max(np.abs(solution.Y[:, :, 0].mean(axis=0) - _delayed_means(state))))


def delayed_verify_solve(state, solution):
    problems = []
    if not solution.diagnostics.converged:
        problems.append("solve did not converge")
    gap = delayed_mean_gap(state, solution)
    if not gap <= DELAYED_MEAN_TOL:
        problems.append(f"node means of Y miss the delay recursion by {gap:.3g} "
                        f"> {DELAYED_MEAN_TOL:g}")
    return problems


def delayed_preflight(state):
    """The mean check must see the kappa_rho term: dropping it has to move
    the recursion far beyond the check's tolerance."""
    shift = float(np.max(np.abs(_delayed_means(state) - _delayed_means(state, 0.0))))
    if not shift > 100 * DELAYED_MEAN_TOL:
        return [f"dropping kappa_rho moves the node means by only {shift:.3g}"]
    return []


def _delayed_info(state, outputs):
    return {"picard_iterations": (outputs["solve"].diagnostics.iterations, "count"),
            "mean_gap": (delayed_mean_gap(state, outputs["solve"]), "value")}


# ----------------------------------------------------------- helly_bray

HB_PATHS, HB_STEPS = 5_000, 512
HB_N = (2, 4, 8, 16, 32)


def hellybray_setup(seed):
    ensemble = engine.simulate_brownian(
        path_calculus.TimeGrid.uniform(1.0, HB_STEPS), HB_PATHS, d=1, seed=seed)
    return SimpleNamespace(
        seed=seed, ensemble=ensemble,
        oscillatory=stability_lab.oscillatory_integration_family(ensemble, HB_N),
        resonant=stability_lab.resonant_integration_family(ensemble, HB_N))


def hellybray_tightness_op(state):
    return stability_lab.bv_tail_curve(state.oscillatory[1])


def hellybray_verify_tightness(state, tail):
    # H_n = t + p_n is nondecreasing, so its variation is H_n(T) - H_n(0) = 1
    if tail[2.0] != 0.0:
        return [f"oscillatory integrators are not tight at variation 2: {tail}"]
    return []


def _hb_check(state, family):
    X, H, X_lim, H_lim = family
    return stability_lab.helly_bray_stochastic_check(
        X, H, X_lim, H_lim, state.ensemble.grid, labels=[str(n) for n in HB_N])


def hellybray_verify_oscillatory(state, report):
    last = report.rows[-1]
    problems = []
    if report.verdict != "PASS":
        problems.append(f"oscillatory verdict {report.verdict}, expected PASS")
    if not max(last.phi.values()) <= 0.02:
        problems.append(f"final truncated distance {max(last.phi.values()):.4g} > 0.02")
    if not last.ks_statistic <= 0.02:
        problems.append(f"final KS {last.ks_statistic:.4g} > 0.02")
    return problems


def hellybray_verify_resonant(state, report):
    """H_n = sin(2 pi n^2 t) / (4 pi n) has variation n / pi on [0, 1] (2 n^2
    half-periods of height 1 / (4 pi n) each way), so no variation level
    bounds every member and the honest verdict is INCONCLUSIVE."""
    problems = []
    for n, H in zip(HB_N, state.resonant[1]):
        variation = float(np.sum(np.abs(np.diff(H[0]))))
        if not math.isclose(variation, n / np.pi, rel_tol=0.01):
            problems.append(f"member n={n}: grid variation {variation:.4g} "
                            f"!= n/pi = {n / np.pi:.4g}")
    if report.verdict != "INCONCLUSIVE":
        problems.append(f"resonant verdict {report.verdict}, expected INCONCLUSIVE")
    return problems


def _hb_info(state, outputs):
    return {"oscillatory_final_ks": (outputs["oscillatory"].rows[-1].ks_statistic, "value")}


# ----------------------------------------------------------- table

WORKLOADS = {
    wl.name: wl for wl in [
        Workload(
            name="readme_solve", default_seed=42, heldout_seed=4242,
            setup=readme_setup,
            check=[ASSUMPTIONS],
            compute=[Op("solve", readme_solve_op, readme_verify_solve)],
            info=_readme_info),
        Workload(
            name="stability_family", default_seed=23, heldout_seed=2323,
            setup=stability_setup,
            check=[ASSUMPTIONS],
            compute=[Op("run_stability", stability_run_op, stability_verify)]),
        Workload(
            name="delayed_segment", default_seed=17, heldout_seed=1717,
            setup=delayed_setup,
            check=[ASSUMPTIONS],
            compute=[Op("solve", delayed_solve_op, delayed_verify_solve)],
            info=_delayed_info,
            preflight=delayed_preflight),
        Workload(
            name="helly_bray", default_seed=29, heldout_seed=2929,
            setup=hellybray_setup,
            check=[Op("tightness", hellybray_tightness_op, hellybray_verify_tightness)],
            compute=[
                Op("oscillatory", lambda s: _hb_check(s, s.oscillatory),
                   hellybray_verify_oscillatory),
                Op("resonant", lambda s: _hb_check(s, s.resonant),
                   hellybray_verify_resonant,
                   known_fault="resonant_integration_family samples sin(2 pi n^2 t) "
                               "without checking that the grid resolves it; on 512 "
                               "steps n = 16 and n = 32 alias to zero")],
            info=_hb_info),
    ]
}
