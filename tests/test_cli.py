import json
import os
import re

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
    diags, problem = cli.validate(base_config())
    assert [d for d in diags if d["level"] == "error"] == []
    assert problem.label == "cli test"


def test_validate_missing_problem():
    diags, problem = cli.validate({"solver": {}})
    assert problem is None
    assert diags[0]["level"] == "error"
    assert diags[0]["code"] == "schema"


def test_validate_missing_required_key():
    config = base_config()
    del config["problem"]["beta"]
    codes = {d["code"] for d in cli.validate(config)[0]}
    assert "schema" in codes


def test_validate_beta_below_contraction_range():
    config = base_config()
    config["problem"]["beta"] = 2.0
    codes = {d["code"] for d in cli.validate(config)[0] if d["level"] == "error"}
    assert "beta-range" in codes


def test_validate_c_out_of_range():
    config = base_config()
    config["problem"]["c"] = 0.1
    codes = {d["code"] for d in cli.validate(config)[0] if d["level"] == "error"}
    assert "c-range" in codes


def test_validate_unknown_generator_name():
    config = base_config()
    config["problem"]["F"] = {"name": "nosuch", "params": {}}
    codes = {d["code"] for d in cli.validate(config)[0] if d["level"] == "error"}
    assert "registry" in codes


def test_validate_misaligned_delta_suggests_steps():
    config = base_config()
    config["problem"]["delta"] = 1.0 / 3.0
    config["solver"]["n_steps"] = 100
    errors = [d for d in cli.validate(config)[0] if d["level"] == "error"]
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
    errors = [d for d in cli.validate(config, n_steps=105)[0] if d["level"] == "error"]
    assert errors == []


def test_validate_refuses_delta_the_grid_refuses(tmp_path, capsys):
    # delta / step = 1000 + 4e-7: within a relative 1e-9 of a whole number,
    # but TimeGrid refuses it, so validate must too and solve exits 2
    config = base_config()
    config["problem"]["delta"] = 0.5 + 2e-10
    config["solver"]["n_steps"] = 2000
    errors = [d for d in cli.validate(config)[0] if d["level"] == "error"]
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
    errors = [d for d in cli.validate(config)[0] if d["level"] == "error"]
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
    errors = [d for d in cli.validate(config)[0] if d["level"] == "error"]
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
    errors = [d for d in cli.validate(config)[0] if d["level"] == "error"]
    assert [d["code"] for d in errors] == ["registry"]
    code = cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "[registry]" in captured.out and captured.err == ""
    assert not (tmp_path / "out").exists()


def _measure_message(key, value):
    return f"problem: {key} must be an object with thetas and weights, got {value!r}"


def _A_message(value):
    return ("A must be an increasing process of a kind in ['deterministic', 'oscillatory', "
            "'running_max', 'time_integral']: an A entry must be an object with a kind and "
            f"a params object, got {value!r}")


@pytest.mark.parametrize("key, value, code, message", [
    pytest.param("rho", [0.5], "domain", _measure_message("rho", [0.5]), id="rho-list"),
    pytest.param("rho", {"thetas": [0.0]}, "domain",
                 _measure_message("rho", {"thetas": [0.0]}), id="rho-no-weights"),
    pytest.param("rho_tilde", "x", "domain", _measure_message("rho_tilde", "x"),
                 id="rho_tilde-string"),
    pytest.param("A", "deterministic", "registry", _A_message("deterministic"), id="A-string"),
    pytest.param("A", {"params": {}}, "registry", _A_message({"params": {}}), id="A-no-kind"),
    pytest.param("A", {"kind": "deterministic", "params": [1]}, "registry",
                 _A_message({"kind": "deterministic", "params": [1]}), id="A-params-list"),
    pytest.param("A", {"kind": "oscillatory", "params": {"n": 2, "base": {"params": {}}}},
                 "registry", _A_message({"params": {}}), id="A-base-no-kind"),
])
def test_validate_names_an_entry_that_is_not_an_object(tmp_path, capsys, key, value, code,
                                                       message):
    # an entry that is not an object, or lacks a key it needs, is named with
    # what it must be, not with Python's message of the failed lookup
    config = base_config()
    config["problem"][key] = value
    assert cli.validate(config) == ([{"level": "error", "code": code, "message": message}],
                                    None)
    exit_code = cli.run(["check-assumptions", "--config", write_config(tmp_path, config),
                         "--out", str(tmp_path / "out")])
    assert exit_code == 2
    assert capsys.readouterr() == (f"error: [{code}] {message}\n", "")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("component, code", [
    (0.7, "registry"), (-1, "registry"), (True, "registry"), (1, "domain"), (3, "domain")])
def test_validate_refuses_a_brownian_terminal_component_out_of_range(tmp_path, capsys,
                                                                     component, code):
    # without the checks, component 0.7 solves on component 0 and component 3
    # with d = 1 ends the solve in a reshape traceback
    config = base_config()
    config["problem"]["terminal"] = {"name": "brownian", "params": {"component": component}}
    errors = [d for d in cli.validate(config)[0] if d["level"] == "error"]
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
    errors = [d for d in cli.validate(config)[0] if d["level"] == "error"]
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
    errors = [d for d in cli.validate(config)[0] if d["level"] == "error"]
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
    errors = [d for d in cli.validate(config)[0] if d["level"] == "error"]
    assert [(d["code"], d["message"]) for d in errors] == [
        ("domain", f"problem: c must be a positive number when given, got {c!r}")]


def test_validate_reports_a_solver_section_it_cannot_read():
    errors = [d for d in cli.validate(base_config(solver="fast"))[0] if d["level"] == "error"]
    assert [(d["code"], d["message"]) for d in errors] == [
        ("schema", "solver: must be an object, got 'fast'")]


@pytest.mark.parametrize("command, section, key, value", [
    ("solve", "solver", "tol", "abc"),
    ("solve", "solver", "max_iter", [25]),
    ("solve", "solver", "force", "false"),
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
    # a key its section does not list: the retired scheme, which would
    # otherwise run explicitly whatever it said, and misspelled keys, which
    # would otherwise run at their defaults
    ("stability", "stability", "scheme", "implicit"),
    ("solve", "solver", "scheme", "implicit"),
    ("stability", "solver", "scheme", "explicit"),
    ("solve", "solver", "n_path", 10),
    ("check-assumptions", "solver", "n_path", 10),
    ("stability", "stability", "n_value", [2, 4]),
    ("helly-bray", "hellybray", "ks_treshold", 0.5),
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
    # thresholds and ladders under which no run could pass
    ("stability", "stability", "final_threshold", -1e-3),
    ("stability", "stability", "final_threshold", float("nan")),
    ("helly-bray", "hellybray", "ks_threshold", -0.02),
    ("helly-bray", "hellybray", "ks_threshold", float("nan")),
    ("helly-bray", "hellybray", "nu_ladder", [0.25, -0.5]),
    ("helly-bray", "hellybray", "nu_ladder", [0.0, 1.0]),
    ("helly-bray", "hellybray", "nu_ladder", [float("nan")]),
    ("helly-bray", "hellybray", "bv_levels", [0.5, -1.0]),
    ("helly-bray", "hellybray", "bv_levels", [0.0]),
    ("helly-bray", "hellybray", "bv_levels", [float("nan")]),
    # JSON's Infinity and NaN are no numbers: an infinite tol stops after
    # pass 1, an infinite level makes every family tight, and a NaN shift
    # fails only after the base solve
    ("solve", "solver", "tol", float("inf")),
    ("solve", "solver", "ridge", float("inf")),
    ("stability", "stability", "tol", float("inf")),
    ("stability", "stability", "final_threshold", float("inf")),
    ("stability", "stability", "shifts", [1.0, float("nan")]),
    ("stability", "stability", "shifts", [float("inf")]),
    ("helly-bray", "hellybray", "T", float("inf")),
    ("helly-bray", "hellybray", "ks_threshold", float("inf")),
    ("helly-bray", "hellybray", "nu_ladder", [0.25, float("inf")]),
    ("helly-bray", "hellybray", "bv_levels", [0.5, float("inf")]),
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


@pytest.mark.parametrize("command", ["check-assumptions", "solve", "stability", "helly-bray"])
@pytest.mark.parametrize("key", ["output", "stabilty"])
def test_an_unknown_root_key_is_a_schema_error(tmp_path, capsys, command, key):
    # a misspelled out or section name would otherwise be a default in disguise
    config = base_config()
    config[key] = str(tmp_path / "elsewhere") if key == "output" else {"tol": 1e-3}
    code = cli.run([command, "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"error: [schema] {key}: unknown key; the root takes "
                            "hellybray, out, problem, solver, stability\n")
    assert not (tmp_path / "out").exists() and not (tmp_path / "elsewhere").exists()


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
    errors = [d for d in cli.validate(config)[0] if d["level"] == "error"]
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
    errors = [d for d in cli.validate(config)[0] if d["level"] == "error"]
    assert [d["code"] for d in errors] == ["domain"]
    code = cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "[domain]" in capsys.readouterr().out


A_KINDS = "A must be an increasing process of a kind in " \
    "['deterministic', 'oscillatory', 'running_max', 'time_integral']: "


# (problem key, value, code, message): each number of the problem section
# must be a JSON number; a string or a bool used to be read as one (or to
# end in a traceback, as the A's rate did)
NOT_A_NUMBER = [
    ("A", {"kind": "deterministic", "params": {"shape": "linear", "rate": "2"}}, "registry",
     A_KINDS + "the deterministic shape 'linear' takes numbers, got rate='2'"),
    ("A", {"kind": "time_integral", "params": {"functional": "inv_quadratic", "scale": True}},
     "registry", A_KINDS + "the time_integral functional 'inv_quadratic' takes numbers, "
                           "got scale=True"),
    ("G", {"name": "linear", "params": {"b": True}}, "registry",
     "G: b must be a finite number, got True"),
    ("F", {"name": "linear", "params": {"a_y": "0.2", "a_z": 0.1}}, "registry",
     "F: a_y must be a finite number, got '0.2'"),
    ("terminal", {"name": "brownian", "params": {"coeff": True}}, "registry",
     "terminal: coeff must be a finite number, got True"),
    ("K", True, "domain", "problem: K must be a finite number, got True"),
    # and no warning that F is set while K is 0
    ("K", False, "domain", "problem: K must be a finite number, got False"),
    ("K_tilde", "0.0002", "domain", "problem: K_tilde must be a finite number, got '0.0002'"),
    ("rho", {"thetas": [-0.1, 0.0], "weights": [True, False]}, "domain",
     "problem: rho weights must be numbers, got [True, False]"),
    ("rho_tilde", {"thetas": ["-0.1"], "weights": [1.0]}, "domain",
     "problem: rho_tilde thetas must be numbers, got ['-0.1']"),
]


@pytest.mark.parametrize("key, value, code, message", NOT_A_NUMBER,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(NOT_A_NUMBER)])
def test_a_number_of_the_problem_section_must_be_a_json_number(tmp_path, capsys,
                                                                 key, value, code, message):
    config = base_config()
    config["problem"][key] = value
    assert cli.validate(config) == ([{"level": "error", "code": code, "message": message}],
                                    None)
    out = tmp_path / "out"
    assert cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(out)]) == 2
    assert capsys.readouterr() == (f"error: [{code}] {message}\n", "")
    assert not out.exists()


PROBLEM_KEYS = ("A, F, G, K, K_tilde, L, L_tilde, T, beta, c, d, delta, label, m, rho, "
                "rho_tilde, terminal")


def readme_config():
    """The JSON block under "### Config file" in README.md."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        text = fh.read()
    block = text.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    return json.loads(block)


def readme_runs(name, edits, commands, code, out, err=(), written=False,
                flags=("--paths", "200"), env=None):
    """One row of README_RUNS per command, each with its id name-command."""
    return [pytest.param(edits, command, flags, env or {}, code, out, err, written,
                         id=f"{name}-{command}") for command in commands]


PREFLIGHT = ("check-assumptions", "solve", "stability")
A_KINDS_LINE = "error: [registry] " + A_KINDS
PROBE_G = ("declared constants for G are too small: LipschitzProbe(which='G', empirical_L=2.0, "
           "empirical_K1=0.0, declared_L=1.0, declared_K1=0.0002, exceeds_L=True, "
           "exceeds_K1=False)")
G_BELOW = ("declared constants of G are below the empirical ones (L=1 vs 2, K1=0.0002 vs 0), "
           "so the smallness conditions prove nothing")
NO_LAMBDA = "no scanned lambda contracts (best mu=nan); beta or c are too close to their limits"
FORCE = '; set "force": true in the solver section to run anyway)'
PROBE_FAIL = {"problem.G": {"name": "linear", "params": {"b": 2.0}}}
# below about 3e-308, 1/(2c) overflows and only the lambda check fails
TINY_C = {"problem.c": 1e-320, "problem.K": 0.0, "problem.K_tilde": 0.0}
SEED_RANGE = f"must be an integer >= 0 and < {2 ** 64}"

# (README config edits "section.key": value, command, flags, environment,
# exit code, stdout lines, stderr lines, whether the output directory is
# written), for test_readme_config_and_its_edits
README_RUNS = [
    # G reads y alone against A = t, so solve sweeps once and solves G's
    # affine equation in one step; a fallback to the Picard loop would print
    # more iterations, or node_passes=0
    *readme_runs("readme", {}, ["solve"], 0, [
        "solve: converged=True iterations=2 node_passes=1 Y(0)=[...]", "...", "solve: PASS"],
        written=True, flags=("--paths", "2000")),
    # G = 2y against the declared L_tilde = 1 fails the G probe, so each
    # command that runs the preflight refuses it; solve names its override
    # as the solver section's key
    *readme_runs("probe-fail", PROBE_FAIL, ["check-assumptions"], 2, [
        "...", "lipschitz probe G: FAIL empirical_L=2 declared_L=1 empirical_K1=0 "
        "declared_K1=0.0002", "...", "check-assumptions: FAIL (1 failures)"],
        [PROBE_G], written=True),
    *readme_runs("probe-fail", PROBE_FAIL, ["solve"], 2, [f"solve: FAIL ({G_BELOW}{FORCE}"],
                 [PROBE_G]),
    *readme_runs("probe-fail", PROBE_FAIL, ["stability"], 2, [
        f"stability: FAIL (base problem fails: {G_BELOW})"], [PROBE_G]),
    # the lambda check alone fails; forced, the solve converges, prints
    # mu_lambda=nan (there is no contracting lambda) and passes
    *readme_runs("tiny-c", TINY_C, ["check-assumptions"], 2, [
        "...", f"lambda selection: FAIL ({NO_LAMBDA})", "...",
        "check-assumptions: FAIL (1 failures)"], written=True),
    *readme_runs("tiny-c", TINY_C, ["solve"], 2, [f"solve: FAIL ({NO_LAMBDA}{FORCE}"]),
    *readme_runs("tiny-c-force", {**TINY_C, "solver.force": True}, ["solve"], 0, [
        "solve: converged=True ...", "contraction: INCONCLUSIVE tail_max=nan mu_lambda=nan",
        "...", "solve: PASS"],
        ["no contraction budget for c=1e-320; tracking with unit weights"], written=True),
    # the config check refuses the problem: each command prints the one
    # line and exits 2, before any probe runs or anything is written
    *readme_runs("m2", {"problem.m": 2}, PREFLIGHT, 2, [
        "error: [domain] problem: the terminal has 1 column(s), so needs m = 1, got m=2"]),
    # numbers given as text and as a bool, and entries that are not objects
    *readme_runs("rate-text", {"problem.A": {"kind": "deterministic",
                                             "params": {"shape": "linear", "rate": "2"}}},
                 PREFLIGHT, 2, [A_KINDS_LINE + "the deterministic shape 'linear' takes numbers, "
                                               "got rate='2'"]),
    *readme_runs("b-bool", {"problem.G": {"name": "linear", "params": {"b": True}}}, PREFLIGHT,
                 2, ["error: [registry] G: b must be a finite number, got True"]),
    *readme_runs("rho-list", {"problem.rho": [0.5]}, PREFLIGHT, 2, [
        "error: [domain] problem: rho must be an object with thetas and weights, got [0.5]"]),
    *readme_runs("A-string", {"problem.A": "deterministic"}, PREFLIGHT, 2, [
        A_KINDS_LINE + "an A entry must be an object with a kind and a params object, "
                       "got 'deterministic'"]),
    # JSON's Infinity is no number
    *readme_runs("T-inf", {"problem.T": float("inf")}, PREFLIGHT, 2, [
        "error: [domain] problem: T must be a positive number, got inf"]),
    # a misspelled K_tilde would otherwise leave K_tilde at its declared
    # value, and check-assumptions would print PASS for it
    *readme_runs("K-tild", {"problem.K_tild": 0.5}, PREFLIGHT, 2, [
        f"error: [schema] problem.K_tild: unknown key; the problem takes {PROBLEM_KEYS}"]),
    # a setting that cannot be read, from a section, a flag or the
    # environment, or a key its section does not list: one [schema] line,
    # exit 1; the retired scheme would otherwise run explicitly whatever it
    # says, a misspelled n_path leave n_paths at its default, and tol = inf
    # stop after pass 1
    *readme_runs("stability-scheme", {"stability.scheme": "implicit"}, ["stability"], 1, [], [
        "error: [schema] stability.scheme: unknown key; stability takes final_threshold, kind, "
        "max_iter, n_values, shifts, tol"]),
    *readme_runs("n-path", {"solver.n_path": 10}, ["solve"], 1, [], [
        "error: [schema] solver.n_path: unknown key; solver takes degree, force, max_iter, "
        "n_paths, n_steps, ridge, seed, tol"]),
    *readme_runs("ks-negative", {"hellybray.ks_threshold": -0.02}, ["helly-bray"], 1, [], [
        "error: [schema] hellybray.ks_threshold: must be a finite number >= 0, got -0.02"]),
    *readme_runs("tol-inf", {"solver.tol": float("inf")}, ["solve"], 1, [], [
        "error: [schema] solver.tol: must be a finite number, got inf"]),
    *readme_runs("paths-0", {}, ["solve"], 1, [], [
        "error: [schema] --paths: must be an integer >= 1, got 0"], flags=("--paths", "0")),
    *readme_runs("seed-negative", {}, ["solve"], 1, [], [
        f"error: [schema] DELAYBSDE_SEED: {SEED_RANGE}, got -1"], env={"DELAYBSDE_SEED": "-1"}),
    # one past the largest Philox key
    *readme_runs("seed-2**64", {}, ["solve"], 1, [], [
        f"error: [schema] DELAYBSDE_SEED: {SEED_RANGE}, got {2 ** 64}"],
        env={"DELAYBSDE_SEED": str(2 ** 64)}),
    # an entry key or a builder param the registry does not read: each used
    # to be read as its default, "bb" and "parms" leaving b = 0
    *readme_runs("G-param", {"problem.G": {"name": "linear", "params": {"bb": 2.0}}}, ["solve"],
                 2, ["error: [registry] G: the G 'linear' reads no param 'bb'; it reads b"]),
    *readme_runs("G-entry", {"problem.G": {"name": "linear", "parms": {"b": 2.0}}}, ["solve"],
                 2, ["error: [registry] G: a G entry takes only name and params, got 'parms'"]),
    *readme_runs("F-param", {"problem.F": {"name": "linear",
                                           "params": {"a_y": 0.2, "a_zz": 0.1}}}, ["solve"],
                 2, ["error: [registry] F: the F 'linear' reads no param 'a_zz'; "
                     "it reads a_y, a_z"]),
    *readme_runs("F-zero", {"problem.F": {"name": "zero", "params": {"a_y": 0.2}}}, ["solve"],
                 2, ["error: [registry] F: the F 'zero' reads no param 'a_y'; it reads none"]),
    *readme_runs("F-entry", {"problem.F": {"name": "linear", "param": {"a_y": 0.2}}}, ["solve"],
                 2, ["error: [registry] F: a F entry takes only name and params, got 'param'"]),
    *readme_runs("terminal-param", {"problem.terminal": {"name": "brownian",
                                                         "params": {"coef": 2.0}}}, ["solve"],
                 2, ["error: [registry] terminal: the terminal 'brownian' reads no param "
                     "'coef'; it reads coeff, component"]),
    *readme_runs("terminal-entry", {"problem.terminal": {"name": "constant", "value": 1.0}},
                 ["solve"], 2, ["error: [registry] terminal: a terminal entry takes only name "
                                "and params, got 'value'"]),
    # the same for A, whose "rat" left the rate at 1 and "parms" the shape at
    # identity, and for a delay measure, whose "weigth" was never read
    *readme_runs("A-param", {"problem.A": {"kind": "deterministic",
                                           "params": {"shape": "linear", "rat": 2.0}}},
                 ["solve"], 2, [A_KINDS_LINE + "the deterministic shape 'linear' reads no param "
                                               "'rat'; it reads rate, shape"]),
    *readme_runs("A-entry", {"problem.A": {"kind": "deterministic",
                                           "parms": {"shape": "linear"}}},
                 ["solve"], 2, [A_KINDS_LINE + "an A entry takes only kind and params, "
                                               "got 'parms'"]),
    *readme_runs("rho-entry", {"problem.rho": {"thetas": [-0.1, 0.0], "weights": [0.5, 0.5],
                                               "weigth": [1.0, 0.0]}},
                 ["solve"], 2, ["error: [domain] problem: rho takes only thetas and weights, "
                                "got 'weigth'"]),
]


def output_pattern(lines):
    """A regex of output lines: each literal but for "...", which stands for
    any text within a line and, as a line of its own, for any lines."""
    return "".join(r"(?:.*\n)*" if line == "..." else
                   ".*".join(map(re.escape, line.split("..."))) + "\n" for line in lines)


@pytest.mark.parametrize("edits, command, flags, env, code, out, err, written", README_RUNS)
def test_readme_config_and_its_edits(tmp_path, capsys, caplog, monkeypatch, edits, command,
                                     flags, env, code, out, err, written):
    # stderr is what the process writes there: the log warnings (logging's
    # last-resort handler), then its error line
    config = readme_config()
    for where, value in edits.items():
        section, key = where.split(".")
        config[section][key] = value
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out_dir = tmp_path / "out"
    assert cli.run([command, "--config", write_config(tmp_path, config),
                    "--out", str(out_dir), *flags]) == code
    captured = capsys.readouterr()
    assert re.fullmatch(output_pattern(out), captured.out), captured.out
    assert caplog.messages + captured.err.splitlines() == list(err)
    assert out_dir.exists() == written
    # only solve takes a force setting, so only its pinned lines offer it,
    # by its config key
    assert "force=True" not in captured.out
    assert ('"force": true in the solver section' in captured.out) == any(
        '"force": true in the solver section' in line for line in out)
    if out and out[0].startswith("error: ["):    # the config check's one diagnostic
        diag, message = out[0].removeprefix("error: [").split("] ", 1)
        assert cli.validate(config) == (
            [{"level": "error", "code": diag, "message": message}], None)


@pytest.mark.parametrize("key, value", [("K", -1.0), ("K_tilde", float("nan"))])
def test_validate_refuses_negative_or_nan_kernel_bounds(tmp_path, capsys, key, value):
    config = readme_config()
    config["problem"][key] = value
    errors = [d for d in cli.validate(config)[0] if d["level"] == "error"]
    assert [d["code"] for d in errors] == ["domain"]
    assert key in errors[0]["message"]
    code = cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "[domain]" in capsys.readouterr().out


@pytest.mark.parametrize("F, warnings", [
    ({"name": "rho_integral", "params": {"kappa": 0.02}},
     [{"level": "warning", "code": "bounds", "message": (
         "F reads its delay window but K is 0; the smallness checks will treat F as "
         "undelayed")}]),
    # the linear F and G read no delay window, so K = K_tilde = 0 is right
    # for them; both used to draw a [bounds] warning
    ({"name": "linear", "params": {"a_y": 0.2, "a_z": 0.1}}, []),
], ids=["window", "no-window"])
def test_validate_warns_on_zero_delay_bound(F, warnings):
    config = base_config()
    config["problem"].update(K=0.0, K_tilde=0.0, F=F)
    diags, problem = cli.validate(config)
    assert diags == warnings and problem is not None


@pytest.mark.parametrize("source", ["config", "flag", "environment"])
def test_a_seed_outside_the_philox_key_range_is_a_schema_error(tmp_path, capsys, monkeypatch,
                                                                source):
    # 2**64 is one past the largest Philox key: refused with one [schema]
    # line from each source, not a traceback from simulate_brownian
    config, flags, where = base_config(), [], "solver.seed"
    if source == "config":
        config["solver"]["seed"] = 2 ** 64
    elif source == "flag":
        flags, where = ["--seed", str(2 ** 64)], "--seed"
    else:
        monkeypatch.setenv("DELAYBSDE_SEED", str(2 ** 64))
        where = "DELAYBSDE_SEED"
    code = cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out")] + flags)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"error: [schema] {where}: must be an integer >= 0 and "
                            f"< {2 ** 64}, got {2 ** 64}\n")
    assert not (tmp_path / "out").exists()
    # the largest key runs
    assert cli.read_settings({"solver": {"seed": 2 ** 64 - 1}}, "solver")["seed"] == 2 ** 64 - 1



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
                     tol=settings["tol"], max_iter=settings["max_iter"])
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


def test_xi_shift_stability_writes_the_squared_terminal_gap(tmp_path):
    # delta_xi is E|xi_n - xi|^2, the scale of each row's squared error; it
    # used to be the fourth moment, 0.0625 for the shift 0.5
    shifts = [0.5, 0.25, 0.0625]
    config = base_config(stability={"kind": "xi_shift", "shifts": shifts,
                                    "final_threshold": 0.01})
    out = tmp_path / "out"
    assert cli.run(["stability", "--config", write_config(tmp_path, config),
                    "--out", str(out)]) == 0
    _, cols = read_csv_dict(out / "stability.csv")
    assert cols["label"].tolist() == shifts
    assert cols["delta_xi"].tolist() == pytest.approx([s ** 2 for s in shifts], rel=1e-12)


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


def test_probe_failing_readme_problem_fails_run_stability():
    # each command's refusal of it is a row of test_readme_config_and_its_edits
    from delaybsde.errors import FamilyInvalidError
    from delaybsde.registry import problem_from_dict
    from delaybsde.stability_lab import oscillatory_A_family, run_stability

    family = oscillatory_A_family(
        problem_from_dict(probe_failing_readme_config()["problem"]), [2, 4, 8, 16])
    with pytest.raises(FamilyInvalidError, match="base problem.*declared constants of G") as exc:
        run_stability(family, n_paths=200, n_steps=50, seed=7)
    assert "force=True" not in str(exc.value)


def test_cli_solve_refusal_names_the_config_key_and_the_library_its_keyword(tmp_path, capsys):
    # a command-line user cannot pass force=True; their switch is the solver
    # section's "force" key, while solve() keeps its keyword for library callers
    from delaybsde.errors import ConstraintViolationError
    from delaybsde.path_calculus import TimeGrid
    from delaybsde.picard_solver import solve
    from delaybsde.stochastic_engine import simulate_brownian

    config = probe_failing_readme_config()
    code = cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "out"), "--paths", "200"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("solve: FAIL (declared constants of G are below the empirical ones")
    assert out.endswith('; set "force": true in the solver section to run anyway)\n')
    _, problem = cli.validate(config)
    grid = TimeGrid.uniform(problem.T, 20, delta=problem.delta)
    with pytest.raises(ConstraintViolationError,
                       match=r"^declared constants of G .*; pass force=True to run anyway$"):
        solve(problem, simulate_brownian(grid, 200, seed=3))


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


def test_forced_solve_without_a_contracting_lambda_reports_mu_lambda_nan(tmp_path, capsys):
    # the lambda check alone fails, so no mu_lambda exists; forced, the solve
    # converges and its contraction is judged against the unit bound.  A
    # random A (the running max of W) keeps the Picard loop
    config = base_config()
    config["problem"].update(REFUSALS["lambda"][0])
    config["problem"]["A"] = {"kind": "running_max", "params": {}}
    config["solver"]["force"] = True
    out = tmp_path / "out"
    code = cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(out), "--paths", "200"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "contraction: PASS" in captured.out and "mu_lambda=nan" in captured.out
    assert "Traceback" not in captured.err
    _, cols = read_csv_dict(out / "diagnostics.csv")
    assert cols["mu_lambda"].size and np.all(np.isnan(cols["mu_lambda"]))
    # with A = t the same problem sweeps once, which certifies no contraction
    # and still passes
    config["problem"]["A"] = base_config()["problem"]["A"]
    code = cli.run(["solve", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "one-sweep"), "--paths", "200"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    for line in ("iterations=2", "contraction: INCONCLUSIVE", "mu_lambda=nan", "solve: PASS"):
        assert line in captured.out


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
