"""Acceptance suite: one test per criterion, one pass/fail line each.

Each test prints its verdict to the real stdout (visible even under pytest
capture) and then asserts it. Oracles are computed inline and independently
of the library code under test.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from delaybsde import (AtomMeasure, IncreasingProcessSpec, ProblemSpec,
                       RegressionBasis, TimeGrid, c_threshold, check_H1,
                       check_H2, cumulative_stieltjes, effective_c,
                       helly_bray_stochastic_check, mu_lambda,
                       oscillatory_A_family, oscillatory_integration_family,
                       realize_increasing_process, run_stability, select_lambda,
                       simulate_brownian, solve, total_variation)
from delaybsde.registry import build_F, build_G, build_terminal

A_IDENTITY = IncreasingProcessSpec("deterministic", {"shape": "identity"})
DEG2 = RegressionBasis(degree=2)


def report(capfd, label, ok, detail):
    line = f"{label}: {'PASS' if ok else 'FAIL'}  [{detail}]"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def ensemble_for(problem, n_paths, n_steps, seed):
    grid = TimeGrid.uniform(problem.T, n_steps, delta=problem.delta)
    ens = simulate_brownian(grid, n_paths, d=problem.d, seed=seed)
    return realize_increasing_process(problem.A_spec, ens)


# 1. Martingale reproduction: F = 0, G = 0, xi = W(T); the solver must return
#    Y = W and Z = 1 up to regression noise.

def test_criterion_1_martingale_reproduction(capfd):
    started = time.perf_counter()
    problem = ProblemSpec(T=1.0, delta=0.1, xi=build_terminal({"name": "brownian"}),
                          A_spec=A_IDENTITY, beta=4.0, L=1.0, L_tilde=1.0,
                          c=1.5e-3)
    ens = ensemble_for(problem, 10_000, 50, seed=11)
    solution = solve(problem, ens, basis=DEG2)
    elapsed = time.perf_counter() - started

    rmse_y = float(np.max(np.sqrt(np.mean(
        (solution.Y[:, :, 0] - ens.W[:, :, 0]) ** 2, axis=0))))
    rmse_z = float(np.max(np.sqrt(np.mean(
        (solution.Z[:, :, 0, 0] - 1.0) ** 2, axis=0))))
    ok = rmse_y <= 0.05 and rmse_z <= 0.1 and elapsed <= 30.0
    report(capfd, "acceptance 1 martingale reproduction", ok,
           f"rmse_Y={rmse_y:.4f}<=0.05 rmse_Z={rmse_z:.4f}<=0.1 "
           f"time={elapsed:.1f}s<=30s")


# 2. Linear closed forms: (a) pure dt drift, (b) pure dA drift, (c) both with
#    A(t) = t^2 against a 1e5-step backward Euler oracle.

def test_criterion_2_linear_closed_forms(capfd):
    target = math.exp(0.5)

    problem_a = ProblemSpec(T=1.0, delta=0.1,
                            xi=build_terminal({"name": "constant", "params": {"value": 1.0}}),
                            A_spec=A_IDENTITY, beta=4.0, L=1.0, L_tilde=1.0,
                            F=build_F({"name": "linear", "params": {"a_y": 0.5}}),
                            c=1.5e-3)
    sol_a = solve(problem_a, ensemble_for(problem_a, 2000, 100, seed=2), basis=DEG2)
    err_a = abs(float(sol_a.initial_value[0]) - target) / target

    problem_b = ProblemSpec(T=1.0, delta=0.1,
                            xi=build_terminal({"name": "constant", "params": {"value": 1.0}}),
                            A_spec=A_IDENTITY, beta=4.0, L=1.0, L_tilde=1.0,
                            G=build_G({"name": "linear", "params": {"b": 0.5}}),
                            c=1.5e-3)
    sol_b = solve(problem_b, ensemble_for(problem_b, 2000, 100, seed=2), basis=DEG2)
    err_b = abs(float(sol_b.initial_value[0]) - target) / target

    a, b = 0.3, 0.4
    problem_c = ProblemSpec(T=1.0, delta=0.1,
                            xi=build_terminal({"name": "constant", "params": {"value": 1.0}}),
                            A_spec=IncreasingProcessSpec(
                                "deterministic", {"shape": lambda nodes, params: nodes ** 2}),
                            beta=4.0, L=1.0, L_tilde=1.0,
                            F=build_F({"name": "linear", "params": {"a_y": a}}),
                            G=build_G({"name": "linear", "params": {"b": b}}),
                            c=1.5e-3)
    sol_c = solve(problem_c, ensemble_for(problem_c, 2000, 200, seed=2), basis=DEG2)
    # oracle: fine-grid backward Euler of y' = -(a + b A') y from y(T) = 1
    nodes = np.linspace(0.0, 1.0, 100_001)
    dA = np.diff(nodes ** 2)
    oracle = math.exp(float(np.sum(np.log1p(a * np.diff(nodes) + b * dA))))
    err_c = abs(float(sol_c.initial_value[0]) - oracle) / oracle

    ok = err_a <= 0.01 and err_b <= 0.01 and err_c <= 0.01
    report(capfd, "acceptance 2 linear closed forms", ok,
           f"dt-drift err={err_a:.4f} dA-drift err={err_b:.4f} "
           f"combined-vs-oracle err={err_c:.4f} (all <=0.01)")


# 3. Delayed generator against an independent delay-ODE backward solve.

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


def test_criterion_3_delayed_generator_oracle(capfd):
    kappa = 0.03
    problem = ProblemSpec(T=1.0, delta=0.1,
                          xi=build_terminal({"name": "constant", "params": {"value": 1.0}}),
                          A_spec=A_IDENTITY, beta=4.0, L=1.0, L_tilde=1.0,
                          F=build_F({"name": "delayed_linear", "params": {"kappa": kappa}}),
                          K=kappa ** 2, rho=AtomMeasure.dirac(-0.1), c=1.5e-3)
    solution = solve(problem, ensemble_for(problem, 4000, 50, seed=3), basis=DEG2)

    oracle = delay_ode_oracle(1.0, 0.1, kappa, 1.0)
    y0 = float(solution.initial_value[0])
    err = abs(y0 - oracle[0]) / abs(oracle[0])
    z_rms = float(np.sqrt(np.mean(solution.Z ** 2)))
    ok = err <= 0.01 and z_rms <= 1e-6
    report(capfd, "acceptance 3 delayed generator oracle", ok,
           f"Y0={y0:.6f} oracle={oracle[0]:.6f} err={err:.5f}<=0.01 "
           f"Z_rms={z_rms:.2e}<=1e-6")


# 4. Contraction diagnostics on three condition-passing problems.

def test_criterion_4_contraction_diagnostics(capfd):
    brownian = build_terminal({"name": "brownian"})
    problems = [
        ProblemSpec(T=1.0, delta=0.1, xi=brownian, A_spec=A_IDENTITY,
                    beta=4.0, L=1.0, L_tilde=1.0, K=0.03 ** 2, c=1.5e-3,
                    F=build_F({"name": "delayed_linear", "params": {"kappa": 0.03}}),
                    rho=AtomMeasure.dirac(-0.1), label="delayed drift"),
        ProblemSpec(T=1.0, delta=0.1, xi=brownian, A_spec=A_IDENTITY,
                    beta=2.0, L=1.0, L_tilde=0.25,
                    G=build_G({"name": "linear", "params": {"b": 0.25}}),
                    label="Stieltjes feedback"),
        ProblemSpec(T=1.0, delta=0.1, xi=brownian, A_spec=A_IDENTITY,
                    beta=4.0, L=1.0, L_tilde=1.0, K=0.03 ** 2,
                    K_tilde=0.015 ** 2, c=1.5e-3,
                    rho=AtomMeasure.uniform(0.1, 4),
                    rho_tilde=AtomMeasure.uniform(0.1, 4),
                    F=build_F({"name": "linear_plus_rho",
                               "params": {"a_z": 0.1, "kappa_rho": 0.03}}),
                    G=build_G({"name": "linear_plus_rho",
                               "params": {"b": 0.1, "gamma": 0.015}}),
                    label="mixed delays"),
    ]

    details, ok = [], True
    for problem in problems:
        tol = 1e-6
        solution = solve(problem, ensemble_for(problem, 4000, 50, seed=17),
                         basis=DEG2, tol=tol)
        diag = solution.diagnostics
        tail = max(diag.ratios[1:], default=0.0)
        bound = math.ceil(math.log(tol / diag.deltas[0]) / math.log(diag.mu_lambda)) + 3 \
            if diag.deltas[0] > tol else 4
        good = (diag.converged and tail <= diag.mu_lambda + 0.1
                and diag.iterations <= bound)
        ok = ok and good
        details.append(f"{problem.label}: tail={tail:.2e}<=mu+0.1={diag.mu_lambda + 0.1:.3f} "
                       f"iters={diag.iterations}<={bound}")
    report(capfd, "acceptance 4 contraction diagnostics", ok, "; ".join(details))


# 5. Deterministic integral convergence for the oscillatory family.
#    The stated "0.05/32-scale" bound is enforced at the sharp 1/n scale
#    1/(2 pi n), since the sup metric equals 1/(4 pi n)(1 + o(1)) exactly.

def test_criterion_5_deterministic_helly_bray(capfd):
    grid = TimeGrid.uniform(1.0, 4096)
    t = grid.nodes
    n_values = [1, 2, 4, 8, 16, 32]
    eta_seq = np.stack([t + np.sin(2 * np.pi * n * t) / (4 * np.pi * n) for n in n_values])
    # one-path stacks: the check's distance is the deterministic sup_t gap
    hb = helly_bray_stochastic_check([t[None]] * len(n_values), [eta[None] for eta in eta_seq],
                                     t[None], t[None], grid)
    dist = np.array([row.sup_distance for row in hb.rows])

    decreasing = bool(np.all(np.diff(dist) < 0))
    scale_bound = 1.0 / (2 * np.pi * 32)
    final_ok = dist[-1] <= scale_bound and dist[-1] <= 0.05

    # variation is lower-semicontinuous along the family
    lsc = bool(np.all(total_variation(t) <= total_variation(eta_seq) + 1e-12))

    # partition-sum oracle on step-function integrators
    rng = np.random.Generator(np.random.Philox(key=np.uint64(5)))
    step_ok = True
    small = TimeGrid.uniform(1.0, 64)
    for _ in range(3):
        jump_at = np.sort(rng.choice(np.arange(1, 65), size=7, replace=False))
        sizes = rng.standard_normal(7)
        values = np.zeros(65)
        for i, s in zip(jump_at, sizes):
            values[i:] += s
        # a right-continuous step puts the mass of (t_i, t_{i+1}] at t_{i+1}
        integral = cumulative_stieltjes(np.cos(3.0 * small.nodes), values, policy="jump")[-1]
        oracle = float(sum(np.cos(3.0 * small.nodes[i]) * s
                           for i, s in zip(jump_at, sizes)))
        step_ok = step_ok and abs(integral - oracle) <= 1e-12

    ok = decreasing and final_ok and lsc and step_ok
    report(capfd, "acceptance 5 deterministic Helly-Bray", ok,
           f"distances decreasing={decreasing} final={dist[-1]:.3e}"
           f"<=1/(2pi*32)={scale_bound:.3e} lsc={lsc} step_oracle_1e-12={step_ok}")


# 6. Stability under A^n -> A without variation convergence.

def test_criterion_6_stability_without_variation_convergence(capfd):
    started = time.perf_counter()
    base = ProblemSpec(T=1.0, delta=0.1,
                       xi=build_terminal({"name": "constant", "params": {"value": 0.0}}),
                       A_spec=A_IDENTITY, beta=4.0, L=1.0, L_tilde=1.0,
                       G=build_G({"name": "constant", "params": {"value": 1.0}}),
                       c=1.5e-3)
    family = oscillatory_A_family(base, [1, 2, 4, 8, 16])
    rep = run_stability(family, n_paths=10_000, n_steps=200, seed=23,
                        final_threshold=1e-3, basis=DEG2)
    elapsed = time.perf_counter() - started

    errors = np.array([row.error for row in rep.rows])
    bvs = np.array([row.bv_H for row in rep.rows])
    ok = (rep.passed and bool(np.all(np.diff(errors) < 0))
          and errors[-1] <= 1e-3 and bool(np.all(bvs >= 0.25))
          and elapsed <= 300.0)
    report(capfd, "acceptance 6 stability without variation convergence", ok,
           f"errors={np.array2string(errors, precision=2)} final<=1e-3 "
           f"min_bv={bvs.min():.3f}>=0.25 time={elapsed:.0f}s<=300s")


# 7. Distributional convergence proxy for the coupled random integrals.

def test_criterion_7_stochastic_helly_bray(capfd):
    ens = simulate_brownian(TimeGrid.uniform(1.0, 512), 10_000, d=1, seed=29)
    n_values = [2, 4, 8, 16, 32]
    X_list, H_list, X_lim, H_lim = oscillatory_integration_family(ens, n_values)
    rep = helly_bray_stochastic_check(X_list, H_list, X_lim, H_lim, ens.grid,
                                      labels=[str(n) for n in n_values])
    last = rep.rows[-1]
    phis_ok = all(v <= 0.02 for v in last.phi.values())
    ok = rep.passed and phis_ok and last.ks_statistic <= 0.02
    report(capfd, "acceptance 7 stochastic Helly-Bray proxy", ok,
           f"verdict={rep.verdict} final_phi_max={max(last.phi.values()):.4f}<=0.02 "
           f"final_ks={last.ks_statistic:.4f}<=0.02")


# 8. Assumption arithmetic against hand-evaluated closed forms.

TUPLES = [
    # (beta, L_tilde, L, K1, K1_tilde, T)
    (4.0, 1.0, 1.0, 1e-3, 1e-3, 1.0),
    (3.0, 1.0, 1.0, 5e-4, 2e-4, 1.0),
    (5.0, 1.5, 1.0, 1e-3, 5e-4, 2.0),
    (2.9, 1.0, 0.5, 2e-3, 1e-3, 0.5),
    (6.0, 2.0, 1.0, 1e-4, 1e-4, 1.0),
    (10.0, 3.0, 2.0, 5e-3, 2e-3, 1.0),
    (3.5, 1.2, 1.0, 1e-3, 1e-3, 1.5),
    (4.5, 1.5, 1.5, 2e-3, 1e-3, 1.0),
    (8.0, 2.5, 1.0, 1e-3, 5e-4, 3.0),
    (12.0, 4.0, 2.0, 1e-2, 1e-3, 1.0),
]


def test_criterion_8_assumption_arithmetic(capfd):
    worst = 0.0
    for beta, L_tilde, L, K1, K1t, T in TUPLES:
        cap = c_threshold(beta, L_tilde)
        cap_hand = min((beta ** 2 - 8 * L_tilde ** 2) / (4 * beta ** 2), 1 / 584)
        assert math.isclose(cap, cap_hand, rel_tol=1e-12)

        c = 0.5 * cap_hand
        delta = T / 10
        problem = ProblemSpec(
            T=T, delta=delta,
            xi=build_terminal({"name": "constant", "params": {"value": 1.0}}),
            A_spec=A_IDENTITY, beta=beta, L=L, L_tilde=L_tilde,
            K=K1, K_tilde=K1t, c=c)
        ens = ensemble_for(problem, 3, 20, seed=1)

        expo = math.exp((8 * L ** 2 + 0.5) * delta + beta * delta)
        h1_hand = K1 * max(1.0, T) * expo / (4 * L ** 2)
        h2_hand = 4 * K1t * T * expo / beta
        h1 = check_H1(problem, ens, c)
        h2 = check_H2(problem, ens, c)
        assert math.isclose(float(np.max(h1.lhs)), h1_hand, rel_tol=1e-12)
        assert math.isclose(float(np.max(h2.lhs)), h2_hand, rel_tol=1e-12)
        assert h1.passed == (h1_hand <= c)
        assert h2.passed == (h2_hand <= c)
        worst = max(worst,
                    abs(float(np.max(h1.lhs)) - h1_hand) / h1_hand,
                    abs(float(np.max(h2.lhs)) - h2_hand) / h2_hand)

        sel = select_lambda(c, beta, L_tilde)
        lam = sel.lam
        mu_hand = max(c * (2 + lam),
                      8 * L_tilde ** 2 * (2 + lam) / (lam * beta ** 2),
                      2 * c * (2 + lam) / (lam - 288.0))
        assert math.isclose(sel.mu_lambda, mu_hand, rel_tol=1e-12)
        assert math.isclose(sel.mu_lambda, float(mu_lambda(lam, c, beta, L_tilde)),
                            rel_tol=1e-12)
        assert math.isclose(sel.a, lam * beta / 2, rel_tol=1e-12)
        assert math.isclose(sel.b, lam / 2 - 144.0, rel_tol=1e-12)
        assert sel.mu_lambda < 1.0
    report(capfd, "acceptance 8 assumption arithmetic", True,
           f"{len(TUPLES)} tuples reproduced to 1e-12 (worst rel dev {worst:.2e})")


# 9. Identical CSV bytes across thread counts.

def test_criterion_9_thread_count_determinism(tmp_path, capfd):
    config = {
        "problem": {
            "T": 1.0, "delta": 0.1, "beta": 4.0, "L": 1.0, "L_tilde": 1.0,
            "K": 0.0005, "K_tilde": 0.0002, "c": 0.0015,
            "terminal": {"name": "brownian", "params": {}},
            "F": {"name": "linear", "params": {"a_y": 0.2, "a_z": 0.1}},
            "G": {"name": "linear", "params": {"b": 0.1}},
            "A": {"kind": "deterministic", "params": {"shape": "identity"}},
        },
        "solver": {"n_paths": 800, "n_steps": 20, "seed": 5},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    outputs = {}
    for threads in ("1", "4"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "delaybsde.cli", "solve",
             "--config", str(config_path), "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = {
            name: (out / name).read_bytes()
            for name in ("solution_Y.csv", "solution_Z.csv",
                         "diagnostics.csv", "manifest.json")}

    same = {name: outputs["1"][name] == outputs["4"][name]
            for name in outputs["1"]}
    ok = all(same.values())
    report(capfd, "acceptance 9 thread-count determinism", ok,
           "identical bytes: " + ", ".join(f"{k}={v}" for k, v in same.items()))
