import json
import os
import subprocess
import sys

import numpy as np
import pytest

from delaybsde import cli


def base_config(**overrides):
    config = {
        "problem": {
            "T": 1.0, "delta": 0.1, "m": 1, "d": 1,
            "beta": 4.0, "L": 1.0, "L_tilde": 1.0,
            "K": 0.0005, "K_tilde": 0.0002, "c": 0.0015,
            "terminal": {"name": "brownian", "params": {}},
            "F": {"name": "linear", "params": {"a_y": 0.2, "a_z": 0.1}},
            "G": {"name": "linear", "params": {"b": 0.1}},
            "A": {"kind": "deterministic", "params": {"shape": "identity"}},
            "label": "cli test",
        },
        "solver": {"n_paths": 400, "n_steps": 20, "seed": 3, "tol": 1e-6,
                   "max_iter": 15},
        "stability": {"kind": "oscillatory_A", "n_values": [2, 4, 8],
                      "final_threshold": 0.01},
        "hellybray": {"family": "oscillatory", "n_values": [2, 4, 8],
                      "n_paths": 400, "n_steps": 128},
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def read_csv_dict(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = {name: np.array([float(r[j]) for r in rows])
            for j, name in enumerate(header)}
    return header, cols


# ----------------------------------------------------------------- validate

def test_validate_clean_config():
    diags = cli.validate(base_config())
    assert [d for d in diags if d["level"] == "error"] == []


def test_validate_missing_problem():
    diags = cli.validate({"solver": {}})
    assert diags[0]["level"] == "error"
    assert diags[0]["code"] == "schema"


def test_validate_missing_required_key():
    config = base_config()
    del config["problem"]["beta"]
    codes = {d["code"] for d in cli.validate(config)}
    assert "schema" in codes


def test_validate_beta_below_contraction_range():
    config = base_config()
    config["problem"]["beta"] = 2.0
    codes = {d["code"] for d in cli.validate(config) if d["level"] == "error"}
    assert "beta-range" in codes


def test_validate_c_out_of_range():
    config = base_config()
    config["problem"]["c"] = 0.1
    codes = {d["code"] for d in cli.validate(config) if d["level"] == "error"}
    assert "c-range" in codes


def test_validate_unknown_generator_name():
    config = base_config()
    config["problem"]["F"] = {"name": "nosuch", "params": {}}
    codes = {d["code"] for d in cli.validate(config) if d["level"] == "error"}
    assert "registry" in codes


def test_validate_misaligned_delta_suggests_steps():
    config = base_config()
    config["problem"]["delta"] = 1.0 / 3.0
    config["solver"]["n_steps"] = 100
    errors = [d for d in cli.validate(config) if d["level"] == "error"]
    assert len(errors) == 1
    assert errors[0]["code"] == "grid-alignment"
    assert "99" in errors[0]["message"]


def test_suggest_aligned_steps_orders_by_distance():
    got = cli.suggest_aligned_steps(1.0, 1.0 / 3.0, 100)
    assert got[0] == 99
    assert all(n % 3 == 0 for n in got)


def test_validate_accepts_full_window_delta_with_rounding():
    # delta = T * 105 / 105 rounds one ulp above T; TimeGrid takes it as
    # 105 steps, so validate must not call it out of range
    config = base_config()
    T = 39.56073760172803
    config["problem"].update(T=T, delta=T * 105 / 105)
    assert config["problem"]["delta"] > T
    errors = [d for d in cli.validate(config, n_steps=105) if d["level"] == "error"]
    assert errors == []


def test_validate_refuses_delta_the_grid_refuses(tmp_path, capsys):
    # delta / step = 1000 + 4e-7: within a relative 1e-9 of a whole number,
    # but TimeGrid refuses it, so validate must too and solve exits 2
    config = base_config()
    config["problem"]["delta"] = 0.5 + 2e-10
    config["solver"]["n_steps"] = 2000
    errors = [d for d in cli.validate(config) if d["level"] == "error"]
    assert [d["code"] for d in errors] == ["grid-alignment"]
    code = cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "grid-alignment" in capsys.readouterr().out


def test_suggested_steps_are_accepted_by_the_grid():
    from delaybsde.path_calculus import TimeGrid

    for T, delta, n_steps in ((1.0, 1.0 / 3.0, 100), (2.0, 0.3, 47), (1.0, 0.5 + 2e-10, 2000)):
        for n in cli.suggest_aligned_steps(T, delta, n_steps):
            assert TimeGrid.uniform(T, n, delta=delta).delta_index_offset >= 1


def test_validate_refuses_oscillatory_A_over_unknown_base(tmp_path, capsys):
    config = base_config()
    config["problem"]["A"] = {"kind": "oscillatory",
                              "params": {"n": 2, "base": {"kind": "nosuch", "params": {}}}}
    errors = [d for d in cli.validate(config) if d["level"] == "error"]
    assert [d["code"] for d in errors] == ["registry"]
    assert "nosuch" in errors[0]["message"]
    code = cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "[registry]" in capsys.readouterr().out


@pytest.mark.parametrize("A", [
    {"kind": "deterministic", "params": {"shape": "bogus"}},
    {"kind": "time_integral", "params": {"functional": "bogus"}},
    {"kind": "oscillatory",
     "params": {"n": 2, "base": {"kind": "deterministic", "params": {"shape": "bogus"}}}},
])
def test_validate_refuses_unknown_A_names(tmp_path, capsys, A):
    config = base_config()
    config["problem"]["A"] = A
    errors = [d for d in cli.validate(config) if d["level"] == "error"]
    assert [d["code"] for d in errors] == ["registry"]
    assert "'bogus'" in errors[0]["message"]
    code = cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "[registry]" in capsys.readouterr().out


@pytest.mark.parametrize("A", [
    {"kind": "oscillatory", "params": {"n": 2.5, "base": {"kind": "deterministic"}}},
    {"kind": "oscillatory", "params": {"n": 0, "base": {"kind": "deterministic"}}},
    {"kind": "running_max", "params": {"component": 0.7}},
    {"kind": "running_max", "params": {"component": 1}},
    {"kind": "oscillatory", "params": {"n": 2, "base": {"kind": "running_max",
                                                        "params": {"component": 3}}}},
])
def test_validate_refuses_integer_A_params_out_of_range(tmp_path, capsys, A):
    # without the check, component 3 with d = 1 ends the solve in an IndexError
    config = base_config()
    config["problem"]["A"] = A
    errors = [d for d in cli.validate(config) if d["level"] == "error"]
    assert [d["code"] for d in errors] == ["registry"]
    code = cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "[registry]" in captured.out and captured.err == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("component, code", [
    (0.7, "registry"), (-1, "registry"), (True, "registry"), (1, "domain"), (3, "domain")])
def test_validate_refuses_a_brownian_terminal_component_out_of_range(tmp_path, capsys,
                                                                     component, code):
    # without the checks, component 0.7 solves on component 0 and component 3
    # with d = 1 ends the solve in a reshape traceback
    config = base_config()
    config["problem"]["terminal"] = {"name": "brownian", "params": {"component": component}}
    errors = [d for d in cli.validate(config) if d["level"] == "error"]
    assert [d["code"] for d in errors] == [code]
    assert repr(component) in errors[0]["message"]
    rc = cli.run(["solve", "--config", write_config(tmp_path, config),
                  "--out", str(tmp_path / "out"), "--paths", "200"])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"[{code}]" in captured.out and "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("m", 1.7), ("d", 2.5), ("m", 0), ("d", "abc")])
def test_validate_refuses_non_integer_dimensions(tmp_path, capsys, key, value):
    config = base_config()
    config["problem"][key] = value
    errors = [d for d in cli.validate(config) if d["level"] == "error"]
    assert [d["code"] for d in errors] == ["domain"]
    assert f"{key}={value!r}" in errors[0]["message"]
    code = cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "[domain]" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["T", "delta", "beta", "L", "L_tilde"])
@pytest.mark.parametrize("value", ["1.0", True, -1.0])
def test_validate_reports_what_the_problem_refuses_of_its_numbers(tmp_path, capsys, key, value):
    # ProblemSpec holds the one rule; a bool used to pass as 1
    config = base_config()
    config["problem"][key] = value
    errors = [d for d in cli.validate(config) if d["level"] == "error"]
    assert [d["code"] for d in errors] == ["domain"]
    rule = "satisfy 0 < delta <= T" if key == "delta" else "be a positive number"
    assert errors[0]["message"] == f"problem: {key} must {rule}, got {value!r}"
    code = cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "[domain]" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("c", [-0.1, 0.0, "abc", True])
def test_validate_reports_a_c_that_is_no_positive_number_as_domain(c):
    config = base_config()
    config["problem"]["c"] = c
    errors = [d for d in cli.validate(config) if d["level"] == "error"]
    assert [(d["code"], d["message"]) for d in errors] == [
        ("domain", f"problem: c must be a positive number when given, got {c!r}")]


def test_validate_reports_a_solver_section_it_cannot_read():
    errors = [d for d in cli.validate(base_config(solver="fast")) if d["level"] == "error"]
    assert [(d["code"], d["message"]) for d in errors] == [
        ("schema", "solver: must be an object, got 'fast'")]


@pytest.mark.parametrize("command, section, key, value", [
    ("solve", "solver", "tol", "abc"),
    ("solve", "solver", "max_iter", [25]),
    ("solve", "solver", "force", "false"),
    ("stability", "stability", "scheme", "midpoint"),
    ("stability", "stability", "n_values", 4),
    ("stability", "stability", "kind", "bogus"),
    ("helly-bray", "hellybray", "n_values", ["x"]),
    ("helly-bray", "hellybray", "nu_ladder", ["x"]),
    ("helly-bray", "hellybray", "family", "bogus"),
    # the regression basis keeps its own range check, reported like any setting
    ("solve", "solver", "ridge", -1.0),
    ("solve", "solver", "degree", -1),
    # a key of None replaces the whole section
    ("solve", "solver", None, []),
    ("solve", "solver", None, "fast"),
    ("solve", "solver", None, None),
    ("solve", "solver", "scheme", "midpoint"),
    ("check-assumptions", "solver", "n_paths", "abc"),
    ("solve", "solver", "seed", "x"),
    ("solve", "solver", "n_steps", 20.5),
    ("solve", "solver", "degree", 2.7),
    ("stability", "solver", "max_iter", 2.5),
    ("stability", "stability", "n_values", [2.5, 4, 8]),
    ("helly-bray", "hellybray", "n_paths", "abc"),
    ("helly-bray", "hellybray", "n_paths", 0),
    # a tolerance that can never be met, and a horizon that is no horizon
    ("solve", "solver", "tol", -1.0),
    ("solve", "solver", "tol", float("nan")),
    ("stability", "stability", "tol", -1e-8),
    ("stability", "stability", "tol", float("nan")),
    ("helly-bray", "hellybray", "T", 0.0),
    ("helly-bray", "hellybray", "T", -1.0),
])
def test_malformed_section_value_is_a_schema_error(tmp_path, capsys, command, section,
                                                   key, value):
    config = base_config()
    if key is None:
        config[section] = value
    else:
        config[section][key] = value
    code = cli.run([command, "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    where = section if key is None else f"{section}.{key}"
    assert captured.err.startswith(f"error: [schema] {where}: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, env, where", [
    (["--paths", "0"], {}, "--paths"),
    (["--paths", "-5"], {}, "--paths"),
    (["--seed", "-1"], {}, "--seed"),
    (["--steps", "2.5"], {}, "--steps"),
    ([], {"DELAYBSDE_PATHS": "abc"}, "DELAYBSDE_PATHS"),
    ([], {"DELAYBSDE_SEED": "-1"}, "DELAYBSDE_SEED"),
])
def test_malformed_flag_or_environment_value_is_a_schema_error(tmp_path, capsys, monkeypatch,
                                                               flags, env, where):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    for command in ("check-assumptions", "solve", "stability", "helly-bray"):
        code = cli.run([command, "--config", write_config(tmp_path, base_config()),
                        "--out", str(tmp_path / "out")] + flags)
        err = capsys.readouterr().err
        assert code == 1, command
        assert err.startswith(f"error: [schema] {where}: must be an integer >= "), command
        assert err.count("\n") == 1, command
        assert not (tmp_path / "out").exists(), command


@pytest.mark.parametrize("section, entry", [
    ("F", {"name": "linear", "params": {"a_y": "abc"}}),
    ("G", {"name": "linear", "params": {"b": [1.0]}}),
    ("terminal", {"name": "brownian", "params": {"component": "first"}}),
    ("terminal", None),
    ("F", "linear"),
    ("G", {"name": "linear", "params": [0.1]}),
])
def test_validate_refuses_what_the_registry_builders_refuse(tmp_path, capsys,
                                                            section, entry):
    config = base_config()
    config["problem"][section] = entry
    errors = [d for d in cli.validate(config) if d["level"] == "error"]
    assert [d["code"] for d in errors] == ["registry"]
    assert errors[0]["message"].startswith(f"{section}:")
    code = cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "[registry]" in capsys.readouterr().out


@pytest.mark.parametrize("key, value", [
    ("rho", {"thetas": [-0.1, 0.0], "weights": [0.5, 0.6]}),
    ("rho", {"thetas": [-0.5, 0.0], "weights": [0.5, 0.5]}),
    ("rho", {"thetas": [0.0], "weights": [float("nan")]}),
    ("rho", {"thetas": [float("nan")], "weights": [1.0]}),
    ("K", "abc"),
])
def test_validate_refuses_malformed_delay_measures_and_bounds(tmp_path, capsys, key, value):
    config = base_config()
    config["problem"][key] = value
    errors = [d for d in cli.validate(config) if d["level"] == "error"]
    assert [d["code"] for d in errors] == ["domain"]
    code = cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "[domain]" in capsys.readouterr().out


def readme_config():
    """The JSON block under "### Config file" in README.md."""
    text = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    block = text.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    return json.loads(block)


@pytest.mark.parametrize("key, value", [("K", -1.0), ("K_tilde", float("nan"))])
def test_validate_refuses_negative_or_nan_kernel_bounds(tmp_path, capsys, key, value):
    config = readme_config()
    config["problem"][key] = value
    errors = [d for d in cli.validate(config) if d["level"] == "error"]
    assert [d["code"] for d in errors] == ["domain"]
    assert key in errors[0]["message"]
    code = cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "[domain]" in capsys.readouterr().out


def test_validate_warns_on_zero_delay_bound():
    config = base_config()
    config["problem"]["K"] = 0.0
    warnings = [d for d in cli.validate(config) if d["level"] == "warning"]
    assert any(d["code"] == "bounds" for d in warnings)


# ------------------------------------------------------------- precedence

def test_resolve_setting_precedence(monkeypatch):
    def seed(config, *flags):
        args = cli.build_parser().parse_args(["solve", "--config", "c.json", *flags])
        return cli.read_settings(config, "solver", args)["seed"]

    config = {"solver": {"seed": 7}}
    monkeypatch.setenv("DELAYBSDE_SEED", "11")
    assert seed(config, "--seed", "5") == 5
    assert seed(config) == 11
    # a malformed value that a higher source overrides is never read
    assert seed({"solver": {"seed": "x"}}) == 11
    monkeypatch.delenv("DELAYBSDE_SEED")
    assert seed(config) == 7
    assert seed({}) == cli.SETTINGS["solver"]["seed"][0] == 0
    # without args, flags and the environment are not read
    monkeypatch.setenv("DELAYBSDE_SEED", "11")
    assert cli.read_settings(config, "solver")["seed"] == 7


def test_env_seed_reaches_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("DELAYBSDE_SEED", "42")
    config_path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    code = cli.run(["solve", "--config", config_path, "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["settings"]["seed"] == 42


def test_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DELAYBSDE_STEPS", "40")
    config_path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    code = cli.run(["solve", "--config", config_path, "--out", str(out),
                    "--steps", "10"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["settings"]["n_steps"] == 10


# ------------------------------------------------------------- subcommands

def test_check_assumptions_pass(tmp_path, capsys):
    config_path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    code = cli.run(["check-assumptions", "--config", config_path,
                    "--out", str(out), "--paths", "300"])
    text = capsys.readouterr().out
    assert code == 0
    assert "(H1) PASS" in text
    assert "(H2) PASS" in text
    assert "check-assumptions: PASS" in text
    report = json.loads((out / "assumptions.json").read_text())
    assert report["failures"] == 0
    assert report["H1"]["passed"] and report["H2"]["passed"]
    assert 0 < report["mu_lambda"] < 1


@pytest.mark.parametrize("command", ["check-assumptions", "solve", "stability"])
def test_each_command_builds_each_part_of_its_problem_once(tmp_path, capsys, monkeypatch,
                                                           command):
    from delaybsde import registry
    from delaybsde.stochastic_engine import IncreasingProcessSpec

    config = base_config(stability={"kind": "oscillatory_A", "n_values": [2, 4],
                                    "final_threshold": 1.0})
    calls = {}

    def counted(name, build):
        def count(*args):
            calls[name] = calls.get(name, 0) + 1
            return build(*args)
        return count

    for part, table in (("terminal", registry._TERMINALS), ("F", registry._F_BUILDERS),
                        ("G", registry._G_BUILDERS)):
        name = config["problem"][part]["name"]
        monkeypatch.setitem(table, name, counted(part, table[name]))
    monkeypatch.setattr(IncreasingProcessSpec, "from_dict",
                        counted("A", IncreasingProcessSpec.from_dict))
    code = cli.run([command, "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out"), "--paths", "200"])
    assert code == 0, capsys.readouterr().out
    assert calls == {"terminal": 1, "F": 1, "G": 1, "A": 1}


def test_check_assumptions_failing_condition(tmp_path, capsys):
    config = base_config()
    config["problem"]["K_tilde"] = 1.0
    config_path = write_config(tmp_path, config)
    code = cli.run(["check-assumptions", "--config", config_path,
                    "--out", str(tmp_path / "out"), "--paths", "300"])
    text = capsys.readouterr().out
    assert code == 2
    assert "(H2) FAIL" in text


def test_solve_writes_solution_tables(tmp_path, capsys):
    config_path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    code = cli.run(["solve", "--config", config_path, "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "solve: PASS" in text

    header, cols = read_csv_dict(out / "solution_Y.csv")
    assert header == ["t", "mean_Y1", "path1_Y1", "path2_Y1", "path3_Y1",
                      "path4_Y1", "path5_Y1"]
    assert cols["t"].size == 21
    np.testing.assert_allclose(cols["t"], np.linspace(0, 1, 21), atol=1e-15)
    assert np.all(np.isfinite(cols["mean_Y1"]))

    header_z, cols_z = read_csv_dict(out / "solution_Z.csv")
    assert header_z[:2] == ["t", "mean_Z1"]
    assert np.all(np.isfinite(cols_z["mean_Z1"]))

    header_d, cols_d = read_csv_dict(out / "diagnostics.csv")
    assert header_d == ["iteration", "distance", "ratio", "mu_lambda"]
    assert np.isnan(cols_d["ratio"][0])
    assert np.all(np.diff(cols_d["iteration"]) == 1)


def test_solve_prints_the_residuals_of_its_solution(tmp_path, capsys):
    # solve no longer computes them; the command asks consistency_residuals
    from delaybsde.path_calculus import TimeGrid
    from delaybsde.picard_solver import consistency_residuals, solve
    from delaybsde.registry import problem_from_dict
    from delaybsde.stochastic_engine import (RegressionBasis, realize_increasing_process,
                                             simulate_brownian)

    config = readme_config()
    code = cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out"), "--paths", "400"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and lines[-1] == "solve: PASS"
    problem, settings = problem_from_dict(config["problem"]), config["solver"]
    grid = TimeGrid.uniform(problem.T, settings["n_steps"], delta=problem.delta)
    ensemble = realize_increasing_process(
        problem.A_spec, simulate_brownian(grid, 400, d=problem.d, seed=settings["seed"]))
    solution = solve(problem, ensemble, basis=RegressionBasis(degree=settings["degree"]),
                     tol=settings["tol"], max_iter=settings["max_iter"],
                     scheme=settings["scheme"])
    mtg, rms = consistency_residuals(problem, solution)
    assert lines[-2] == f"martingale residual={mtg:.3e} self consistency rms={rms:.3e}"


def test_solve_rejects_failing_conditions(tmp_path, capsys):
    config = base_config()
    config["problem"]["K"] = 1.0
    config_path = write_config(tmp_path, config)
    code = cli.run(["solve", "--config", config_path,
                    "--out", str(tmp_path / "out")])
    text = capsys.readouterr().out
    assert code == 2
    assert "solve: FAIL" in text


def test_check_assumptions_runs_the_probe_of_solve(tmp_path, capsys):
    # a declared L between the F probes at seeds 0 and 3: the verdict would
    # depend on the seed if check-assumptions probed at its --seed
    from delaybsde.model import probe_lipschitz
    from delaybsde.registry import problem_from_dict

    config = base_config()
    problem = problem_from_dict(config["problem"])
    e0, e3 = (probe_lipschitz(problem, "F", seed=s).empirical_L for s in (0, 3))
    assert e0 != e3
    config["problem"]["L"] = 0.5 * (e0 + e3)
    config["problem"]["K"] = 1e-4
    config_path = write_config(tmp_path, config)
    out = tmp_path / "out"
    check = cli.run(["check-assumptions", "--config", config_path, "--out", str(out),
                     "--paths", "300", "--seed", "3"])
    check_text = capsys.readouterr().out
    solve = cli.run(["solve", "--config", config_path, "--out", str(tmp_path / "solve"),
                     "--seed", "3"])
    solve_text = capsys.readouterr().out
    refused = e0 > config["problem"]["L"]
    assert ("lipschitz probe F: FAIL" in check_text) == refused
    assert ("declared constants of F" in solve_text) == refused
    assert (check == 2) == (solve == 2) == refused
    problem = problem_from_dict(config["problem"])
    report = json.loads((out / "assumptions.json").read_text())["probes"]
    for which in "FG":
        probe = probe_lipschitz(problem, which)
        assert report[which] == {
            "empirical_L": probe.empirical_L, "declared_L": probe.declared_L,
            "empirical_K1": probe.empirical_K1, "declared_K1": probe.declared_K1,
            "exceeds_L": probe.exceeds_L, "exceeds_K1": probe.exceeds_K1}


def test_solve_ridge_setting_reaches_the_regression(tmp_path, capsys):
    # a constant-rate time_integral A is random in kind, so the regressions
    # carry its A(t_i) column, which is collinear with the intercept: only
    # the basis's ridge keeps the normal equations solvable
    config = base_config()
    config["problem"]["A"] = {"kind": "time_integral", "params": {"functional": "constant"}}
    assert cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "default")]) == 0
    config["solver"]["ridge"] = 0
    assert cli.run(["solve", "--config", write_config(tmp_path, config, "ridge0.json"),
                    "--out", str(tmp_path / "ridge0")]) == 1
    assert "SingularSystemError" in capsys.readouterr().err


def test_solve_csv_full_precision(tmp_path):
    config_path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert cli.run(["solve", "--config", config_path, "--out", str(out)]) == 0
    with open(out / "solution_Y.csv") as fh:
        fh.readline()
        first = fh.readline().strip().split(",")
    # 17 significant digits round-trip doubles exactly
    for text in first[1:]:
        assert float(text) == float(format(float(text), ".17g"))
        assert len(text.replace("-", "").replace(".", "").lstrip("0")) >= 10


def test_stability_command(tmp_path, capsys):
    config_path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    code = cli.run(["stability", "--config", config_path, "--out", str(out),
                    "--paths", "400", "--steps", "20"])
    text = capsys.readouterr().out
    assert code == 0
    assert "stability: PASS" in text
    header, cols = read_csv_dict(out / "stability.csv")
    assert header == ["label", "delta_xi", "delta_F", "delta_G",
                      "sup_A_diff", "bv_H", "error"]
    assert cols["label"].tolist() == [2.0, 4.0, 8.0]
    assert np.all(np.diff(cols["error"]) < 0)


def test_stability_regresses_on_the_solver_sections_basis(tmp_path):
    # stability used to read degree and ridge and then solve on the default basis
    tables = {}
    for command, table in (("stability", "stability.csv"), ("solve", "solution_Y.csv")):
        for degree in (1, 4):
            config = base_config()
            config["solver"]["degree"] = degree
            out = tmp_path / f"{command}-{degree}"
            assert cli.run([command, "--config", write_config(tmp_path, config),
                            "--out", str(out)]) == 0
            tables[command, degree] = (out / table).read_bytes()
    assert tables["solve", 1] != tables["solve", 4]
    assert tables["stability", 1] != tables["stability", 4]


def test_check_assumptions_names_a_generator_not_finite_at_zero(tmp_path, capsys, monkeypatch):
    from delaybsde import registry

    def log_F(params):
        def F(t, y, z, y_seg, z_seg, ctx):
            with np.errstate(divide="ignore"):
                return np.log(np.abs(y))
        return F

    monkeypatch.setitem(registry._F_BUILDERS, "test_log", log_F)
    config = base_config()
    config["problem"]["F"] = {"name": "test_log", "params": {}}
    code = cli.run(["check-assumptions", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out"), "--paths", "200"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: GeneratorEvaluationError: F returned a non-finite value at t=0\n")


def probe_failing_readme_config():
    """The README config with G = 2y against a declared L_tilde = 1: (H1)
    and (H2) pass on the declared constants, the G probe does not."""
    config = readme_config()
    config["problem"]["G"] = {"name": "linear", "params": {"b": 2.0}}
    return config


def test_probe_failing_readme_config_fails_every_command(tmp_path, capsys):
    from delaybsde.errors import FamilyInvalidError
    from delaybsde.registry import problem_from_dict
    from delaybsde.stability_lab import oscillatory_A_family, run_stability

    config_path = write_config(tmp_path, probe_failing_readme_config())
    for cmd in ("check-assumptions", "solve", "stability"):
        code = cli.run([cmd, "--config", config_path, "--out", str(tmp_path / cmd),
                        "--paths", "200"])
        text = capsys.readouterr().out
        assert code == 2, cmd
        assert f"{cmd}: FAIL" in text
        # only solve takes a force setting, so only solve offers it
        assert ("force=True" in text) == (cmd == "solve"), cmd
    family = oscillatory_A_family(
        problem_from_dict(probe_failing_readme_config()["problem"]), [2, 4, 8, 16])
    with pytest.raises(FamilyInvalidError, match="base problem.*declared constants of G") as exc:
        run_stability(family, n_paths=200, n_steps=50, seed=7)
    assert "force=True" not in str(exc.value)


@pytest.mark.parametrize("error", ["NonContractionError", "BlowupError"])
def test_stability_maps_solver_failures_like_solve(tmp_path, capsys, monkeypatch, error):
    from delaybsde import errors, stability_lab

    def fail(*args, **kwargs):
        raise getattr(errors, error)("the iteration went wrong")

    monkeypatch.setattr(stability_lab, "run_stability", fail)
    code = cli.run(["stability", "--config", write_config(tmp_path, base_config()),
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "stability: FAIL (the iteration went wrong)" in capsys.readouterr().out


# (problem overrides, the checks that fail), one case per check of preflight
REFUSALS = {
    "H1": ({"K": 1.0}, ["H1"]),
    "H2": ({"K_tilde": 1.0}, ["H2"]),
    "F": ({"F": {"name": "linear", "params": {"a_y": 2.0, "a_z": 0.1}}}, ["F"]),
    "G": ({"G": {"name": "linear", "params": {"b": 2.0}}}, ["G"]),
    # beta just above 2 sqrt(2) L_tilde leaves a threshold below c = 0.0015,
    # which (H1) and (H2) flag as well; the config check refuses that c first
    "beta-limit": ({"beta": 2.83}, ["H1", "H2", "lambda"]),
    # below about 3e-308 the lambda scan overflows to a NaN factor, which only
    # the lambda check sees
    "lambda": ({"c": 1e-320, "K": 0.0, "K_tilde": 0.0}, ["lambda"]),
}


@pytest.mark.parametrize("check", sorted(REFUSALS))
def test_one_refusal_rule(tmp_path, capsys, check):
    from delaybsde.errors import ConstraintViolationError, FamilyInvalidError
    from delaybsde.model import preflight
    from delaybsde.path_calculus import TimeGrid
    from delaybsde.picard_solver import solve
    from delaybsde.registry import problem_from_dict
    from delaybsde.stability_lab import PerturbationFamily, run_stability
    from delaybsde.stochastic_engine import (realize_increasing_process,
                                             simulate_brownian)

    overrides, failing = REFUSALS[check]
    config = base_config()
    config["problem"].update(overrides)
    problem = problem_from_dict(config["problem"])
    grid = TimeGrid.uniform(problem.T, 20, delta=problem.delta)
    ensemble = realize_increasing_process(problem.A_spec, simulate_brownian(grid, 200, seed=3))

    failures = preflight(problem, ensemble).failures
    assert list(failures) == failing
    with pytest.raises(ConstraintViolationError) as refused:
        solve(problem, ensemble)
    assert all(message in str(refused.value) for message in failures.values())
    forced = solve(problem, ensemble, max_iter=2, force=True)
    assert forced.diagnostics.preflight.failures == failures
    with pytest.raises(FamilyInvalidError, match="base problem"):
        run_stability(PerturbationFamily(base=problem, members=[problem]),
                      n_paths=200, n_steps=20, seed=3)
    code = cli.run(["check-assumptions", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out"), "--paths", "200"])
    text = capsys.readouterr().out
    assert code == 2
    assert ("[c-range]" if check == "beta-limit"
            else "check-assumptions: FAIL (1 failures)") in text


def test_hellybray_command(tmp_path, capsys):
    config_path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    code = cli.run(["helly-bray", "--config", config_path, "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "helly-bray: PASS" in text
    header, cols = read_csv_dict(out / "hellybray.csv")
    assert header == ["label", "nu", "phi_distance", "sup_distance",
                      "ks_statistic"]
    # one row per (member, truncation level)
    assert cols["label"].size == 3 * 4


def test_hellybray_resonant_inconclusive(tmp_path, capsys):
    config = base_config()
    config["hellybray"] = {"family": "resonant", "n_values": [2, 4, 8],
                           "n_paths": 200, "n_steps": 1024,
                           "bv_levels": [0.5, 1.0, 2.0]}
    config_path = write_config(tmp_path, config)
    code = cli.run(["helly-bray", "--config", config_path,
                    "--out", str(tmp_path / "out")])
    text = capsys.readouterr().out
    assert code == 2
    assert "INCONCLUSIVE" in text


# -------------------------------------------------------------- exit codes

def test_missing_config_file_is_an_error(tmp_path):
    code = cli.run(["solve", "--config", str(tmp_path / "absent.json")])
    assert code == 1


def test_invalid_json_is_an_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.run(["solve", "--config", str(path)]) == 1


def test_validation_failure_exits_two(tmp_path, capsys):
    config = base_config()
    config["problem"]["beta"] = 1.0
    config_path = write_config(tmp_path, config)
    code = cli.run(["solve", "--config", config_path,
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "beta-range" in capsys.readouterr().out


def test_usage_error_exits_one(capsys):
    assert cli.run([]) == 1
    assert cli.run(["nosuch-command"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    capsys.readouterr()


# ------------------------------------------------------------ determinism

def test_manifest_has_hash_and_no_timestamp(tmp_path):
    config = base_config()
    config_path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert cli.run(["solve", "--config", config_path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    expected = __import__("hashlib").sha256(
        cli.canonical_config_text(config).encode()).hexdigest()
    assert manifest["config_sha256"] == expected
    assert "timestamp" not in json.dumps(manifest).lower()
    assert manifest["versions"]["package"]


def test_same_seed_same_bytes(tmp_path):
    config_path = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run(["solve", "--config", config_path, "--out", str(out1)]) == 0
    assert cli.run(["solve", "--config", config_path, "--out", str(out2)]) == 0
    for name in ("solution_Y.csv", "solution_Z.csv", "diagnostics.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_threads_flag_reexecs_cleanly(tmp_path):
    config_path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    env = {k: v for k, v in os.environ.items() if not k.startswith("DELAYBSDE_")}
    # the child runs in tmp_path, so the package path must be absolute
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "delaybsde.cli", "solve", "--config", config_path,
         "--out", str(out), "--threads", "2"],
        capture_output=True, text=True, env=env, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (out / "solution_Y.csv").exists()


def test_thread_count_validation(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli.thread_count(["solve", "--config", "c.json"]) is None
    assert cli.thread_count(["solve", "--threads", "1"]) == 1
    assert cli.thread_count(["solve", "--threads=4"]) == 4
    for bad in ("0", "-2", "5", "two", "1.5", ""):
        with pytest.raises(ValueError, match="--threads"):
            cli.thread_count(["solve", "--threads", bad])
