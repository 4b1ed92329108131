"""Command line front end.

Subcommands:
    check-assumptions   validate a config and evaluate the well-posedness checks
    solve               run the fixed-point solver and write solution CSVs
    stability           run a perturbation-family experiment
    helly-bray          run a pathwise integral-convergence experiment

Every setting a command takes is listed once, with its default and cast, in
SETTINGS, and read by read_settings; seed, n_paths, n_steps and out resolve as
command line flag > DELAYBSDE_* environment variable > config file value >
default.  Exit codes: 0 all checks passed; 2 a check or experiment failed,
a fault of the problem section included (a config-check diagnostic on
stdout); 1 bad input or internal error, a setting from a flag, an environment
variable or a section that cannot be read included ("error: [schema]
<where>: ..." on stderr).
"""

import argparse
import contextlib
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
from .path_calculus import TimeGrid
from .picard_solver import consistency_residuals, contraction_report, solve
from .registry import build_F, build_G, build_terminal, problem_from_dict
from .stability_lab import (helly_bray_stochastic_check, oscillatory_A_family,
                            oscillatory_integration_family,
                            resonant_integration_family, xi_shift_family)
from .stochastic_engine import (PROCESS_KINDS, IncreasingProcessSpec,
                                RegressionBasis, is_integer, is_number,
                                realize_increasing_process, simulate_brownian)

ENV_PREFIX = "DELAYBSDE_"
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the settings a flag and a DELAYBSDE_* variable override: key -> (name, flag help)
_OVERRIDES = {"out": ("OUT", "output directory"), "seed": ("SEED", "simulation seed"),
              "n_paths": ("PATHS", "number of Monte Carlo paths"),
              "n_steps": ("STEPS", "number of time steps")}
_ENSEMBLE_KEYS = ("seed", "n_paths", "n_steps")


def _integer(low=None):
    """A cast to an integer >= low; it refuses a bool or a fraction."""
    def cast(value):
        if not is_integer(value, low):
            raise ValueError(f"must be an integer{'' if low is None else f' >= {low}'}, "
                             f"got {value!r}")
        return int(value)
    return cast


def _number(low=None, strict=False):
    """A cast to a float >= low (> low when strict); it refuses a bool, and
    a NaN once low is given."""
    def cast(value):
        if not is_number(value):
            raise ValueError(f"must be a number, got {value!r}")
        if low is not None and not (value > low if strict else value >= low):
            raise ValueError(f"must be a number {'>' if strict else '>='} {low}, "
                             f"got {value!r}")
        return float(value)
    return cast


def _text(value):
    if not (isinstance(value, str) and value):
        raise ValueError(f"must be a non-empty string, got {value!r}")
    return value


def _choice(*options):
    """A cast that passes one of options, type included (0 is not False)."""
    def cast(value):
        if not any(type(value) is type(o) and value == o for o in options):
            raise ValueError(f"must be {' or '.join(map(repr, options))}, got {value!r}")
        return value
    return cast


def _list_of(cast):
    def cast_all(values):
        if not (isinstance(values, list) and values):
            raise ValueError(f"must be a non-empty list, got {values!r}")
        return tuple(cast(v) for v in values)
    return cast_all


def _basis(key, cast):
    """cast, then RegressionBasis's own check of key's range."""
    return lambda value: getattr(RegressionBasis(**{key: cast(value)}), key)


_FAMILIES = {"oscillatory": oscillatory_integration_family,
             "resonant": resonant_integration_family}
_ENSEMBLE = {"seed": (0, _integer(0)), "n_paths": (2000, _integer(1))}
_SWEEP = {"max_iter": (25, _integer(1)), "scheme": ("explicit", _choice("explicit", "implicit"))}
# every setting a command reads: section -> key -> (default, cast); None is the root
SETTINGS = {
    None: {"out": ("delaybsde-out", _text)},
    "solver": {**_ENSEMBLE, "n_steps": (50, _integer(1)), "tol": (1e-6, _number(0)), **_SWEEP,
               "force": (False, _choice(False, True)),
               "degree": (RegressionBasis.degree, _basis("degree", _integer())),
               "ridge": (RegressionBasis.ridge, _basis("ridge", _number()))},
    "stability": {"kind": ("oscillatory_A", _choice("oscillatory_A", "xi_shift")),
                  "n_values": ([2, 4, 8, 16], _list_of(_integer(1))),
                  "shifts": ([1.0, 0.5, 0.25, 0.125], _list_of(_number())),
                  "final_threshold": (1e-3, _number()), "tol": (1e-8, _number(0)), **_SWEEP},
    "hellybray": {**_ENSEMBLE, "n_steps": (200, _integer(1)),
                  "family": ("oscillatory", _choice(*_FAMILIES)),
                  "T": (1.0, _number(0, strict=True)),
                  "n_values": ([2, 4, 8, 16, 32], _list_of(_integer(1))),
                  "nu_ladder": ([0.25, 0.5, 1.0, 2.0], _list_of(_number())),
                  "ks_threshold": (0.02, _number()),
                  "bv_levels": ([0.5, 1.0, 2.0, 4.0, 8.0], _list_of(_number()))},
}


def read_settings(config, section, args=None):
    """Every setting of SETTINGS[section], resolved and cast.

    seed, n_paths, n_steps and out resolve as flag > DELAYBSDE_* environment
    variable > config value > default, the first two only when args is given.
    A section that is not an object, or a value its cast refuses, raises
    ConfigError("[schema] <where>: ..."), where <where> is section.key, the
    flag or the environment variable.
    """
    cfg = config if section is None else config.get(section, {})
    if not isinstance(cfg, dict):
        raise ConfigError(f"[schema] {section}: must be an object, got {cfg!r}")
    values = {}
    for key, (default, cast) in SETTINGS[section].items():
        where, value = key if section is None else f"{section}.{key}", cfg.get(key, default)
        name = _OVERRIDES[key][0] if args is not None and key in _OVERRIDES else None
        if name is not None:
            for source, text in ((f"--{name.lower()}", getattr(args, name.lower())),
                                 (ENV_PREFIX + name, os.environ.get(ENV_PREFIX + name))):
                if text is not None:
                    # flags and the environment give text, read as the default's type
                    with contextlib.suppress(ValueError):
                        text = type(default)(text)
                    where, value = source, text
                    break
        try:
            values[key] = cast(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[schema] {where}: {exc}") from None
    return values


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


def validate(config, n_steps=None):
    """Check a config dict without running anything.

    Returns a list of diagnostics, each ``{"level", "code", "message"}`` with
    level "error" or "warning".  An empty list means the config is runnable.
    Only the problem section is checked (_problem_errors); the grid check
    runs at n_steps, by default the solver section's, read by read_settings
    (a refusal of which is a schema diagnostic, and no warnings follow one).
    """
    return _validated(config, n_steps)[0]


def _validated(config, n_steps=None):
    """(validate's diagnostics, the ProblemSpec the check built), the
    problem None when the check finds an error, so that a command builds
    each part of its problem once."""
    problem = config.get("problem")
    errors, spec = (_problem_errors(problem, config, n_steps) if isinstance(problem, dict)
                    else ([("schema", "config must contain a 'problem' object")], None))
    diags = [{"level": "error", "code": code, "message": message} for code, message in errors]
    if all(code != "schema" for code, _ in errors):
        for key, gen in (("K", "F"), ("K_tilde", "G")):
            if problem.get(key, 0.0) == 0.0 and problem.get(gen) is not None:
                diags.append({"level": "warning", "code": "bounds", "message": (
                    f"{gen} is set but {key} is 0; the smallness checks will treat "
                    f"{gen} as undelayed")})
    return diags, spec


def _problem_errors(problem, config, n_steps):
    """validate's (code, message) errors and the ProblemSpec, None unless
    the errors are none: "registry" for what the registry builders and
    IncreasingProcessSpec refuse; once nothing is, "domain" for what building
    the ProblemSpec from those parts refuses, and "beta-range" or "c-range"
    for what c_threshold refuses of beta, or c_admissible of c."""
    errors = [("schema", f"problem section is missing required key '{key}'")
              for key in ("T", "delta", "beta", "L", "L_tilde", "terminal", "A")
              if key not in problem]
    if errors:
        return errors, None
    built = {}
    for section, build in (("terminal", build_terminal), ("F", build_F), ("G", build_G)):
        try:
            built[section] = build(problem.get(section))
        except (ConfigError, TypeError, ValueError) as exc:
            errors.append(("registry", f"{section}: {exc}"))
    try:
        built["A"] = IncreasingProcessSpec.from_dict(problem["A"])
        if is_integer(problem.get("d", 1), 1):    # any other d is a [domain] error below
            built["A"].check_dimension(problem.get("d", 1))
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(("registry", f"A must be an increasing process of a kind in "
                                   f"{sorted(PROCESS_KINDS)}: {exc}"))
    if errors:
        return errors, None

    try:
        spec = problem_from_dict(problem, built)
        admissible, cap = c_admissible(spec.c, spec.beta, spec.L_tilde)
    except ConstraintViolationError as exc:
        return [("beta-range", str(exc))], None
    except (ConfigError, TypeError, ValueError) as exc:
        return [("domain", f"problem: {exc}")], None
    if spec.c is not None and not admissible:
        return [("c-range", f"c={spec.c!r} must lie in (0, {cap:.6g}) "
                            f"for beta={spec.beta}, L_tilde={spec.L_tilde}")], None
    try:
        steps = read_settings(config, "solver")["n_steps"] if n_steps is None else n_steps
    except ConfigError as exc:
        return [("schema", str(exc).removeprefix("[schema] "))], None
    if _grid_accepts(spec.T, spec.delta, steps):
        return [], spec
    hint = suggest_aligned_steps(spec.T, spec.delta, steps)
    extra = f"; nearby aligned step counts: {hint}" if hint else ""
    return [("grid-alignment", f"delay delta={spec.delta} is not a whole number of steps "
                               f"at n_steps={steps}{extra}")], None


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
        "settings": {key: settings[key] for key in _ENSEMBLE_KEYS},
        "versions": {"package": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__, "python": "%d.%d.%d" % sys.version_info[:3]},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare(args, config):
    """(solver settings, output directory, problem, RegressionBasis), or None
    when the config check, whose diagnostics it prints, finds an error."""
    solver = read_settings(config, "solver", args)
    out_dir = read_settings(config, None, args)["out"]
    diags, problem = _validated(config, n_steps=solver["n_steps"])
    for diag in diags:
        print(f"{diag['level']}: [{diag['code']}] {diag['message']}")
    if problem is None:
        return None
    return solver, out_dir, problem, RegressionBasis(solver["degree"], solver["ridge"])


def _ensemble(problem, solver):
    """The solver settings' Brownian ensemble with the problem's A realized on it."""
    grid = TimeGrid.uniform(problem.T, solver["n_steps"], delta=problem.delta)
    ensemble = simulate_brownian(grid, solver["n_paths"], d=problem.d, seed=solver["seed"])
    return realize_increasing_process(problem.A_spec, ensemble)


def cmd_check(args):
    config = load_config(args.config)
    if (prepared := _prepare(args, config)) is None:
        return 2
    solver, out_dir, problem, _ = prepared
    ensemble = _ensemble(problem, solver)

    checks = preflight(problem, ensemble)
    selection = checks.selection
    print(checks.h1, checks.h2, sep="\n")
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
    print(f"integrability: {'PASS' if integ.all_finite else 'FAIL'}")
    for name, entry in integ.entries.items():
        flags = [text for text, on in (("not finite", not entry.finite),
                                       ("heavy tail", entry.heavy_tail)) if on]
        note = f" ({', '.join(flags)})" if flags else ""
        print(f"  {name} = {entry.value:.6g}{note}")
    failures = len(checks.failures) + (0 if integ.all_finite else 1)

    os.makedirs(out_dir, exist_ok=True)
    report = {
        "c": checks.c,
        **{rep.name: {"lhs_max": float(np.max(rep.lhs)), "passed": rep.passed,
                      "worst_margin": rep.worst_margin, "pass_fraction": rep.pass_fraction,
                      "notes": rep.notes} for rep in (checks.h1, checks.h2)},
        "mu_lambda": float("nan") if selection is None else selection.mu_lambda,
        "probes": {p.which: {key: getattr(p, key) for key in (
            "empirical_L", "declared_L", "empirical_K1", "declared_K1", "exceeds_L", "exceeds_K1")}
            for p in checks.probes},
        "integrability": {name: {"value": e.value, "finite": e.finite, "heavy_tail": e.heavy_tail}
                          for name, e in integ.entries.items()},
        "failures": failures,
    }
    with open(os.path.join(out_dir, "assumptions.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    write_manifest(out_dir, "check-assumptions", config, solver)

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
    config = load_config(args.config)
    if (prepared := _prepare(args, config)) is None:
        return 2
    solver, out_dir, problem, basis = prepared
    ensemble = _ensemble(problem, solver)
    try:
        solution = solve(problem, ensemble, basis=basis,
                         **{key: solver[key] for key in ("tol", "max_iter", "scheme", "force")})
    except (ConstraintViolationError, NonContractionError, BlowupError) as exc:
        print(f"solve: FAIL ({exc})")
        return 2

    diag = solution.diagnostics
    t = ensemble.grid.nodes
    os.makedirs(out_dir, exist_ok=True)

    header, columns = _solution_columns("Y", solution.Y)
    write_table(os.path.join(out_dir, "solution_Y.csv"), ["t"] + header, [t] + columns)
    header, columns = _solution_columns("Z", solution.Z.reshape(solution.Z.shape[0], solution.Z.shape[1], -1))
    write_table(os.path.join(out_dir, "solution_Z.csv"), ["t"] + header, [t] + columns)

    iterations = list(range(1, len(diag.deltas) + 1))
    ratios = [float("nan")] + list(diag.ratios)
    write_table(os.path.join(out_dir, "diagnostics.csv"),
                ["iteration", "distance", "ratio", "mu_lambda"],
                [iterations, diag.deltas, ratios, [diag.mu_lambda] * len(iterations)])
    write_manifest(out_dir, "solve", config, solver)

    report = contraction_report(diag)
    y0 = ", ".join(_format(v) for v in solution.initial_value)
    print(f"solve: converged={diag.converged} iterations={diag.iterations} Y(0)=[{y0}]")
    print(f"contraction: {report.verdict} tail_max={report.tail_max:.6g} "
          f"mu_lambda={diag.mu_lambda:.6g}")
    mtg, rms = consistency_residuals(problem, solution)
    print(f"martingale residual={mtg:.3e} self consistency rms={rms:.3e}")
    ok = diag.converged and report.verdict != "FAIL"
    print(f"solve: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def cmd_stability(args):
    config = load_config(args.config)
    stab = read_settings(config, "stability")
    if (prepared := _prepare(args, config)) is None:
        return 2
    solver, out_dir, base, basis = prepared
    family = (oscillatory_A_family(base, stab["n_values"]) if stab["kind"] == "oscillatory_A"
              else xi_shift_family(base, stab["shifts"]))

    try:
        report = stability_lab.run_stability(
            family, basis=basis, **{key: solver[key] for key in _ENSEMBLE_KEYS},
            **{key: stab[key] for key in ("final_threshold", "tol", "max_iter", "scheme")})
    except (FamilyInvalidError, NonContractionError, BlowupError) as exc:
        print(f"stability: FAIL ({exc})")
        return 2

    print(report)
    os.makedirs(out_dir, exist_ok=True)
    fields = ["delta_xi", "delta_F", "delta_G", "sup_A_diff", "bv_H", "error"]
    write_table(os.path.join(out_dir, "stability.csv"), ["label"] + fields,
                [[float(r.label) for r in report.rows]]
                + [[getattr(r, field) for r in report.rows] for field in fields])
    write_manifest(out_dir, "stability", config, solver)
    print(f"stability: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 2


def cmd_hellybray(args):
    config = load_config(args.config)
    hb = read_settings(config, "hellybray", args)
    out_dir = read_settings(config, None, args)["out"]
    ensemble = simulate_brownian(TimeGrid.uniform(hb["T"], hb["n_steps"]),
                                 hb["n_paths"], d=1, seed=hb["seed"])
    X_list, H_list, X_limit, H_limit = _FAMILIES[hb["family"]](ensemble, hb["n_values"])

    report = helly_bray_stochastic_check(
        X_list, H_list, X_limit, H_limit, ensemble.grid,
        **{key: hb[key] for key in ("nu_ladder", "ks_threshold", "bv_levels")},
        labels=[str(n) for n in hb["n_values"]])
    print(report)

    os.makedirs(out_dir, exist_ok=True)
    rows = [(float(row.label), nu, phi, row.sup_distance, row.ks_statistic)
            for row in report.rows for nu, phi in sorted(row.phi.items())]
    write_table(os.path.join(out_dir, "hellybray.csv"),
                ["label", "nu", "phi_distance", "sup_distance", "ks_statistic"], zip(*rows))
    write_manifest(out_dir, "helly-bray", config, hb)
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
        for name, text in _OVERRIDES.values():
            p.add_argument(f"--{name.lower()}", help=f"{text} (env {ENV_PREFIX}{name})")
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
