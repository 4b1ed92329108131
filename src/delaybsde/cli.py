"""Command line front end.

Subcommands:
    check-assumptions   validate a config and evaluate the well-posedness checks
    solve               run the fixed-point solver and write solution CSVs
    stability           run a perturbation-family experiment
    helly-bray          run a pathwise integral-convergence experiment

Settings resolve as: command line flag > DELAYBSDE_* environment variable >
config file value > built-in default.  Exit codes: 0 all checks passed,
2 a check or experiment failed, 1 bad input or internal error.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np
import scipy

from . import __version__, stability_lab
from .errors import (BlowupError, ConfigError, ConstraintViolationError,
                     DelayBsdeError, FamilyInvalidError, GridAlignmentError,
                     NonContractionError)
from .model import c_admissible, check_integrability, preflight
from .path_calculus import TimeGrid, delay_fits_horizon
from .picard_solver import contraction_report, solve
from .registry import build_F, build_G, build_terminal, problem_from_dict
from .stability_lab import (helly_bray_stochastic_check, oscillatory_A_family,
                            oscillatory_integration_family,
                            resonant_integration_family, xi_shift_family)
from .stochastic_engine import (PROCESS_KINDS, IncreasingProcessSpec,
                                RegressionBasis, realize_increasing_process,
                                simulate_brownian)

ENV_PREFIX = "DELAYBSDE_"
DEFAULT_PATHS = 2000
DEFAULT_STEPS = 50
DEFAULT_SEED = 0
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_config(path):
    """Read a JSON config file, mapping parse problems to ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def canonical_config_text(config):
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _env(name):
    return os.environ.get(ENV_PREFIX + name)


def resolve_setting(flag_value, env_name, config_value, default, cast=int):
    """Apply the flag > environment > config > default precedence."""
    if flag_value is not None:
        return flag_value
    raw = _env(env_name)
    if raw is not None:
        return cast(raw)
    if config_value is not None:
        return config_value
    return default


def _section(config, name):
    """config[name], or {} when absent; ConfigError unless it is an object."""
    cfg = config.get(name, {})
    if not isinstance(cfg, dict):
        raise ConfigError(f"[schema] '{name}' section must be an object")
    return cfg


def _read(cfg, section, key, default, cast):
    """cfg[key], or default when absent, through cast; a value cast refuses
    raises ConfigError naming section.key."""
    try:
        return cast(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[schema] {section}.{key}: {exc}") from None


def _choice(*options):
    """A cast that passes one of options and refuses anything else."""
    def cast(value):
        if value not in options:
            raise ValueError(f"must be {' or '.join(map(repr, options))}, got {value!r}")
        return value
    return cast


def _floats(values):
    return [float(v) for v in values]


def _ints(values):
    return [int(v) for v in values]


def _grid_accepts(T, delta, n_steps):
    """Whether TimeGrid takes this delay on n_steps uniform steps."""
    try:
        TimeGrid.uniform(T, n_steps, delta=delta)
    except GridAlignmentError:
        return False
    return True


def suggest_aligned_steps(T, delta, n_steps):
    """The nearest three step counts within 25 of n_steps that TimeGrid accepts."""
    good = [n for n in range(max(1, n_steps - 25), n_steps + 26)
            if _grid_accepts(T, delta, n)]
    good.sort(key=lambda n: (abs(n - n_steps), n))
    return good[:3]


def _regression_basis(solver_cfg):
    """The solver section's RegressionBasis; ValueError or TypeError if refused."""
    ridge = solver_cfg.get("ridge")
    return RegressionBasis(degree=int(solver_cfg.get("degree", 2)),
                           ridge=RegressionBasis.ridge if ridge is None else float(ridge))


def validate(config, n_steps=None):
    """Check a config dict without running anything.

    Returns a list of diagnostics, each ``{"level", "code", "message"}`` with
    level "error" or "warning".  An empty list means the config is runnable.
    """
    diags = []

    def err(code, message):
        diags.append({"level": "error", "code": code, "message": message})

    def warn(code, message):
        diags.append({"level": "warning", "code": code, "message": message})

    problem = config.get("problem")
    if not isinstance(problem, dict):
        err("schema", "config must contain a 'problem' object")
        return diags

    for key in ("T", "delta", "beta", "L", "L_tilde", "terminal", "A"):
        if key not in problem:
            err("schema", f"problem section is missing required key '{key}'")
    if diags:
        return diags

    T = problem["T"]
    delta = problem["delta"]
    T_ok = isinstance(T, (int, float)) and T > 0
    if not T_ok:
        err("domain", f"T must be a positive number, got {T!r}")
    if not (isinstance(delta, (int, float)) and delay_fits_horizon(delta, T if T_ok else np.inf)):
        err("domain", f"delta must satisfy 0 < delta <= T, got {delta!r}")
    for key in ("m", "d"):
        value = problem.get(key, 1)
        if not (isinstance(value, int) and value >= 1):
            err("domain", f"{key} must be an integer >= 1, got {value!r}")

    beta = problem["beta"]
    L_tilde = problem["L_tilde"]
    for key, value in (("beta", beta), ("L", problem["L"]), ("L_tilde", L_tilde)):
        if not (isinstance(value, (int, float)) and value > 0):
            err("domain", f"{key} must be a positive number, got {value!r}")
    if not diags and beta <= 2.0 * np.sqrt(2.0) * L_tilde:
        err("beta-range",
            f"beta={beta} must exceed 2*sqrt(2)*L_tilde={2.0 * np.sqrt(2.0) * L_tilde:.6g} "
            "for the contraction constant to exist")

    c = problem.get("c")
    if c is not None and not diags:
        admissible, cap = c_admissible(c, beta, L_tilde)
        if not admissible:
            err("c-range", f"c={c!r} must lie in (0, {cap:.6g}) for beta={beta}, L_tilde={L_tilde}")

    for section, build in (("terminal", build_terminal), ("F", build_F), ("G", build_G)):
        try:
            build(problem.get(section))
        except (ConfigError, TypeError, ValueError) as exc:
            err("registry", f"{section}: {exc}")

    try:
        IncreasingProcessSpec.from_dict(problem["A"])
    except (KeyError, TypeError, ValueError) as exc:
        err("registry", f"A must be an increasing process of a kind in "
                        f"{sorted(PROCESS_KINDS)}: {exc}")

    solver = config.get("solver", {})
    if not isinstance(solver, dict):
        err("schema", "'solver' section must be an object")
        solver = {}
    if not any(d["level"] == "error" for d in diags):
        steps = n_steps if n_steps is not None else solver.get("n_steps", DEFAULT_STEPS)
        if not _grid_accepts(T, delta, steps):
            hint = suggest_aligned_steps(T, delta, steps)
            extra = f"; nearby aligned step counts: {hint}" if hint else ""
            err("grid-alignment",
                f"delay delta={delta} is not a whole number of steps at n_steps={steps}{extra}")

    if solver.get("scheme") not in (None, "explicit", "implicit"):
        err("schema", f"solver.scheme must be 'explicit' or 'implicit', got {solver.get('scheme')!r}")
    try:
        _regression_basis(solver)
    except (TypeError, ValueError) as exc:
        err("domain", f"solver regression basis: {exc}")
    if not any(d["level"] == "error" for d in diags):
        # what the checks above do not cover: delay measures, kernel bounds
        try:
            problem_from_dict(problem)
        except (ConfigError, TypeError, ValueError) as exc:
            err("domain", f"problem: {exc}")

    if problem.get("K", 0.0) == 0.0 and problem.get("F") is not None:
        warn("bounds", "F is set but K is 0; the smallness checks will treat F as undelayed")
    if problem.get("K_tilde", 0.0) == 0.0 and problem.get("G") is not None:
        warn("bounds", "G is set but K_tilde is 0; the smallness checks will treat G as undelayed")
    return diags


def _format(value):
    return format(float(value), ".17g")


def write_table(path, header, columns):
    """Write columns of floats as CSV with full precision."""
    columns = [np.asarray(col, dtype=float) for col in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(_format(v) for v in row) + "\n")


def write_manifest(out_dir, command, config, settings):
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(canonical_config_text(config).encode("utf-8")).hexdigest(),
        "settings": settings,
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _settings(args, config, section="solver", default_steps=DEFAULT_STEPS):
    """(config[section] or {}, output directory, {seed, n_paths, n_steps}),
    each setting resolved as flag > env > config > default."""
    cfg = config.get(section, {})
    cfg = cfg if isinstance(cfg, dict) else {}
    settings = {
        "seed": resolve_setting(args.seed, "SEED", cfg.get("seed"), DEFAULT_SEED),
        "n_paths": resolve_setting(args.paths, "PATHS", cfg.get("n_paths"), DEFAULT_PATHS),
        "n_steps": resolve_setting(args.steps, "STEPS", cfg.get("n_steps"), default_steps),
    }
    out_dir = resolve_setting(args.out, "OUT", config.get("out"), "delaybsde-out", cast=str)
    return cfg, out_dir, settings


def _config_is_valid(config, n_steps):
    """Print the config diagnostics; True when none is an error."""
    diags = validate(config, n_steps=n_steps)
    for diag in diags:
        print(f"{diag['level']}: [{diag['code']}] {diag['message']}")
    return not any(d["level"] == "error" for d in diags)


def _prepare(args):
    """Shared setup: config, resolved settings, problem, ensemble."""
    config = load_config(args.config)
    solver_cfg, out_dir, settings = _settings(args, config)
    if not _config_is_valid(config, settings["n_steps"]):
        return None

    problem = problem_from_dict(config["problem"])
    grid = TimeGrid.uniform(problem.T, settings["n_steps"], delta=problem.delta)
    ensemble = simulate_brownian(grid, settings["n_paths"], d=problem.d, seed=settings["seed"])
    ensemble = realize_increasing_process(problem.A_spec, ensemble)
    return config, solver_cfg, problem, ensemble, out_dir, settings


def _ensure_out(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def cmd_check(args):
    prepared = _prepare(args)
    if prepared is None:
        return 2
    config, solver_cfg, problem, ensemble, out_dir, settings = prepared

    checks = preflight(problem, ensemble)
    selection = checks.selection
    print(checks.h1)
    print(checks.h2)
    if selection is None:
        print(f"lambda selection: FAIL ({checks.failures['lambda']})")
    else:
        print(f"lambda selection: lambda={selection.lam:.6g} "
              f"mu_lambda={selection.mu_lambda:.6g} a={selection.a:.6g} b={selection.b:.6g}")
    for probe in checks.probes:
        verdict = "FAIL" if probe.which in checks.failures else "PASS"
        print(f"lipschitz probe {probe.which}: {verdict} empirical_L={probe.empirical_L:.6g} "
              f"declared_L={probe.declared_L:.6g} empirical_K1={probe.empirical_K1:.6g} "
              f"declared_K1={probe.declared_K1:.6g}")

    integ = check_integrability(problem, ensemble)
    verdict = "PASS" if integ.all_finite else "FAIL"
    print(f"integrability: {verdict}")
    for name, entry in integ.entries.items():
        flags = []
        if not entry.finite:
            flags.append("not finite")
        if entry.heavy_tail:
            flags.append("heavy tail")
        note = f" ({', '.join(flags)})" if flags else ""
        print(f"  {name} = {entry.value:.6g}{note}")
    failures = len(checks.failures) + (0 if integ.all_finite else 1)

    _ensure_out(out_dir)
    report = {
        "c": checks.c,
        **{rep.name: {"lhs_max": float(np.max(rep.lhs)), "passed": rep.passed,
                      "worst_margin": rep.worst_margin, "pass_fraction": rep.pass_fraction,
                      "notes": rep.notes} for rep in (checks.h1, checks.h2)},
        "mu_lambda": float("nan") if selection is None else selection.mu_lambda,
        "probes": {
            p.which: {"empirical_L": p.empirical_L, "declared_L": p.declared_L,
                      "empirical_K1": p.empirical_K1, "declared_K1": p.declared_K1,
                      "exceeds_L": p.exceeds_L, "exceeds_K1": p.exceeds_K1}
            for p in checks.probes
        },
        "integrability": {name: {"value": e.value, "finite": e.finite,
                                 "heavy_tail": e.heavy_tail}
                          for name, e in integ.entries.items()},
        "failures": failures,
    }
    with open(os.path.join(out_dir, "assumptions.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    write_manifest(out_dir, "check-assumptions", config, settings)

    print(f"check-assumptions: {'PASS' if failures == 0 else f'FAIL ({failures} failures)'}")
    return 0 if failures == 0 else 2


def _solution_columns(label, values):
    """Mean curve plus the first five sample paths, one block per component."""
    n_paths, _, width = values.shape
    header, columns = [], []
    for j in range(width):
        header.append(f"mean_{label}{j + 1}")
        columns.append(values[:, :, j].mean(axis=0))
        for i in range(min(5, n_paths)):
            header.append(f"path{i + 1}_{label}{j + 1}")
            columns.append(values[i, :, j])
    return header, columns


def cmd_solve(args):
    prepared = _prepare(args)
    if prepared is None:
        return 2
    config, solver_cfg, problem, ensemble, out_dir, settings = prepared

    tol = _read(solver_cfg, "solver", "tol", 1e-6, float)
    max_iter = _read(solver_cfg, "solver", "max_iter", 25, int)
    # bool() would read the string "false" as true
    force = _read(solver_cfg, "solver", "force", False, _choice(False, True))
    try:
        solution = solve(problem, ensemble, basis=_regression_basis(solver_cfg),
                         tol=tol, max_iter=max_iter,
                         scheme=solver_cfg.get("scheme", "explicit"), force=force)
    except (ConstraintViolationError, NonContractionError, BlowupError) as exc:
        print(f"solve: FAIL ({exc})")
        return 2

    diag = solution.diagnostics
    t = ensemble.grid.nodes
    _ensure_out(out_dir)

    header, columns = _solution_columns("Y", solution.Y)
    write_table(os.path.join(out_dir, "solution_Y.csv"), ["t"] + header, [t] + columns)
    header, columns = _solution_columns("Z", solution.Z.reshape(solution.Z.shape[0], solution.Z.shape[1], -1))
    write_table(os.path.join(out_dir, "solution_Z.csv"), ["t"] + header, [t] + columns)

    iterations = list(range(1, len(diag.deltas) + 1))
    ratios = [float("nan")] + list(diag.ratios)
    write_table(os.path.join(out_dir, "diagnostics.csv"),
                ["iteration", "distance", "ratio", "mu_lambda"],
                [iterations, diag.deltas, ratios, [diag.mu_lambda] * len(iterations)])
    write_manifest(out_dir, "solve", config, settings)

    report = contraction_report(diag)
    y0 = ", ".join(_format(v) for v in solution.initial_value)
    print(f"solve: converged={diag.converged} iterations={diag.iterations} Y(0)=[{y0}]")
    print(f"contraction: {report.verdict} tail_max={report.tail_max:.6g} "
          f"mu_lambda={diag.mu_lambda:.6g}")
    print(f"martingale residual={diag.martingale_residual:.3e} "
          f"self consistency rms={diag.self_consistency_rms:.3e}")
    ok = diag.converged and report.verdict != "FAIL"
    print(f"solve: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def cmd_stability(args):
    config = load_config(args.config)
    stab_cfg = _section(config, "stability")
    _, out_dir, settings = _settings(args, config)
    if not _config_is_valid(config, settings["n_steps"]):
        return 2

    def read(key, default, cast):
        return _read(stab_cfg, "stability", key, default, cast)

    base = problem_from_dict(config["problem"])
    if read("kind", "oscillatory_A", _choice("oscillatory_A", "xi_shift")) == "oscillatory_A":
        family = oscillatory_A_family(base, read("n_values", [2, 4, 8, 16], _ints))
    else:
        family = xi_shift_family(base, read("shifts", [1.0, 0.5, 0.25, 0.125], _floats))
    options = {"final_threshold": read("final_threshold", 1e-3, float),
               "tol": read("tol", 1e-8, float),
               "max_iter": read("max_iter", 25, int),
               "scheme": read("scheme", "explicit", _choice("explicit", "implicit"))}

    try:
        report = stability_lab.run_stability(family, **settings, **options)
    except (FamilyInvalidError, NonContractionError, BlowupError) as exc:
        print(f"stability: FAIL ({exc})")
        return 2

    print(report)
    _ensure_out(out_dir)
    rows = report.rows
    write_table(os.path.join(out_dir, "stability.csv"),
                ["label", "delta_xi", "delta_F", "delta_G", "sup_A_diff", "bv_H", "error"],
                [[float(r.label) for r in rows], [r.delta_xi for r in rows],
                 [r.delta_F for r in rows], [r.delta_G for r in rows],
                 [r.sup_A_diff for r in rows], [r.bv_H for r in rows],
                 [r.error for r in rows]])
    write_manifest(out_dir, "stability", config, settings)
    print(f"stability: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 2


def cmd_hellybray(args):
    config = load_config(args.config)
    hb_cfg = _section(config, "hellybray")
    _, out_dir, settings = _settings(args, config, section="hellybray", default_steps=200)

    def read(key, default, cast):
        return _read(hb_cfg, "hellybray", key, default, cast)

    families = {"oscillatory": oscillatory_integration_family,
                "resonant": resonant_integration_family}
    build = families[read("family", "oscillatory", _choice(*families))]
    T = read("T", 1.0, float)
    n_values = read("n_values", [2, 4, 8, 16, 32], _ints)
    options = {"nu_ladder": tuple(read("nu_ladder", (0.25, 0.5, 1.0, 2.0), _floats)),
               "ks_threshold": read("ks_threshold", 0.02, float),
               "bv_levels": tuple(read("bv_levels", (0.5, 1.0, 2.0, 4.0, 8.0), _floats))}
    ensemble = simulate_brownian(TimeGrid.uniform(T, settings["n_steps"]),
                                 settings["n_paths"], d=1, seed=settings["seed"])
    X_list, H_list, X_limit, H_limit = build(ensemble, n_values)

    report = helly_bray_stochastic_check(
        X_list, H_list, X_limit, H_limit, ensemble.grid, **options,
        labels=[str(n) for n in n_values])
    print(report)

    _ensure_out(out_dir)
    labels, nus, phis, sups, kss = [], [], [], [], []
    for row in report.rows:
        for nu, phi in sorted(row.phi.items()):
            labels.append(float(row.label))
            nus.append(nu)
            phis.append(phi)
            sups.append(row.sup_distance)
            kss.append(row.ks_statistic)
    write_table(os.path.join(out_dir, "hellybray.csv"),
                ["label", "nu", "phi_distance", "sup_distance", "ks_statistic"],
                [labels, nus, phis, sups, kss])
    write_manifest(out_dir, "helly-bray", config, settings)
    print(f"helly-bray: {report.verdict}")
    return 0 if report.passed else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="delaybsde",
        description="Solver and experiment laboratory for backward stochastic "
                    "equations with delayed arguments and Stieltjes drivers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", help=f"output directory (env {ENV_PREFIX}OUT)")
        p.add_argument("--seed", type=int, help=f"simulation seed (env {ENV_PREFIX}SEED)")
        p.add_argument("--paths", type=int, help=f"number of Monte Carlo paths (env {ENV_PREFIX}PATHS)")
        p.add_argument("--steps", type=int, help=f"number of time steps (env {ENV_PREFIX}STEPS)")
        p.add_argument("--threads", type=int,
                       help="pin BLAS thread pools to this count (re-executes the process)")

    for name, func, text in (
            ("check-assumptions", cmd_check, "validate a config and run the well-posedness checks"),
            ("solve", cmd_solve, "run the fixed-point solver and write solution CSVs"),
            ("stability", cmd_stability, "run a perturbation-family stability experiment"),
            ("helly-bray", cmd_hellybray, "run a pathwise integral-convergence experiment")):
        p = sub.add_parser(name, help=text, description=text)
        add_common(p)
        p.set_defaults(func=func)
    return parser


def thread_count(argv):
    """The ``--threads`` value in argv, or None when the flag is absent.

    Raises ValueError unless the value is a positive integer no larger than
    the machine's CPU count.
    """
    raw = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            raw = argv[i + 1]
        elif arg.startswith("--threads="):
            raw = arg.split("=", 1)[1]
    if raw is None:
        return None
    limit = os.cpu_count() or 1
    if not (raw.isdecimal() and 1 <= int(raw) <= limit):
        raise ValueError(f"--threads must be an integer from 1 to {limit}, got {raw!r}")
    return int(raw)


def _apply_threads(argv, threads):
    """Honor --threads by re-executing with BLAS pools pinned.

    Thread counts are read by the BLAS runtime at import, which happens before
    argument parsing, so the only reliable way to apply the flag is a re-exec
    with the environment set.  Results do not depend on the count; this is a
    performance control.
    """
    if threads is None or os.environ.get(ENV_PREFIX + "THREADS_APPLIED"):
        return
    env = dict(os.environ)
    for var in _THREAD_VARS:
        env[var] = str(threads)
    env[ENV_PREFIX + "THREADS_APPLIED"] = "1"
    os.execve(sys.executable, [sys.executable, "-m", "delaybsde.cli"] + list(argv), env)


def run(argv=None):
    """Parse arguments and dispatch; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        threads = thread_count(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _apply_threads(argv, threads)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DelayBsdeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
