"""Named builders for terminals and generators, and the problem schema: the
table of a config's problem keys and their reader, problem_from_dict.

Each table of names is closed: a config names a part, and the one way to
supply another is a hand-written callable handed to ProblemSpec.  An entry
key other than name and params, or a param its builder does not read, is a
ConfigError.  Every param a builder reads, and every number problem_from_dict
reads that ProblemSpec does not check itself (K, K_tilde and the delay
measures' entries), must be a finite number (path_calculus.is_number), not a
string or a bool; anything else raises ValueError, as does a delay measure's
entry key other than thetas and weights.  Built F and G carry
``reads``, the frozenset of the arguments ("y", "z", "y_seg", "z_seg") they
read; a generator without it counts as reading every argument
(model.generator_reads).  The "linear" G also carries ``affine_in_y``: it is
affine in y with coefficients known at t, so it keeps a value in the
regression span, which lets the solver sweep once (picard_solver.solve).
Built terminals carry ``width``, the number of columns of xi, which
ProblemSpec checks against m; a "brownian" one also ``component``, the
component of W(T) it reads, which ProblemSpec checks against d.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ConstraintViolationError
from .model import AtomMeasure, ProblemSpec, c_threshold, segment_integral
from .path_calculus import is_integer, is_number
from .stochastic_engine import PROCESS_KINDS, IncreasingProcessSpec

__all__ = ["build_terminal", "build_F", "build_G", "problem_from_dict"]


def _number(entries, key, default=None):
    """entries[key], default when absent, as a float; ValueError unless it
    is a number (is_number)."""
    value = entries.get(key, default)
    if not is_number(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(value)


# ----------------------------------------------------------------- terminals

def _terminal_constant(params):
    value = _number(params, "value", 0.0)

    def xi(ensemble):
        return np.full((ensemble.n_paths, 1), value)
    xi.width = 1
    return xi


def _terminal_brownian(params):
    component = params.get("component", 0)
    if not is_integer(component, 0):
        raise ValueError(f"brownian terminal needs an integer component >= 0, "
                         f"got {component!r}")
    coeff = _number(params, "coeff", 1.0)

    def xi(ensemble):
        return coeff * ensemble.W[:, -1, component:component + 1]
    xi.component, xi.width = component, 1
    return xi


def _terminal_process_total(params):
    # terminal value of the realized increasing process
    coeff = _number(params, "coeff", 1.0)

    def xi(ensemble):
        return coeff * ensemble.A[:, -1:]
    xi.width = 1
    return xi


_TERMINALS = {
    "constant": _terminal_constant,
    "brownian": _terminal_brownian,
    "process_total": _terminal_process_total,
}


# ----------------------------------------------------------------- drivers

def _reading(fn, *arguments):
    fn.reads = frozenset(arguments)
    return fn


def _F_zero(params):
    def F(t, y, z, y_seg, z_seg, ctx):
        return np.zeros_like(y)
    return _reading(F)


def _F_linear(params):
    a_y = _number(params, "a_y", 0.0)
    a_z = _number(params, "a_z", 0.0)

    def F(t, y, z, y_seg, z_seg, ctx):
        return a_y * y + a_z * np.sum(z, axis=2)
    return _reading(F, "y", "z")


def _F_delayed_linear(params):
    # kappa * y_segment(-delta), the pure lagged-state driver
    kappa = _number(params, "kappa", 0.0)

    def F(t, y, z, y_seg, z_seg, ctx):
        return kappa * y_seg[:, 0, :]
    return _reading(F, "y_seg")


def _F_rho_integral(params):
    kappa = _number(params, "kappa", 0.0)

    def F(t, y, z, y_seg, z_seg, ctx):
        return kappa * segment_integral(y_seg, ctx.rho)
    return _reading(F, "y_seg")


def _F_linear_plus_rho(params):
    a_y = _number(params, "a_y", 0.0)
    a_z = _number(params, "a_z", 0.0)
    kappa_rho = _number(params, "kappa_rho", 0.0)
    kappa_z_rho = _number(params, "kappa_z_rho", 0.0)

    def F(t, y, z, y_seg, z_seg, ctx):
        out = a_y * y + a_z * np.sum(z, axis=2) \
            + kappa_rho * segment_integral(y_seg, ctx.rho)
        if kappa_z_rho:
            out = out + kappa_z_rho * np.sum(segment_integral(z_seg, ctx.rho), axis=2)
        return out
    return _reading(F, "y", "z", "y_seg", *(("z_seg",) if kappa_z_rho else ()))


_F_BUILDERS = {
    "zero": _F_zero,
    "linear": _F_linear,
    "delayed_linear": _F_delayed_linear,
    "rho_integral": _F_rho_integral,
    "linear_plus_rho": _F_linear_plus_rho,
}


def _G_zero(params):
    def G(t, y, y_seg, ctx):
        return np.zeros_like(y)
    return _reading(G)


def _G_constant(params):
    value = _number(params, "value", 1.0)

    def G(t, y, y_seg, ctx):
        return np.full_like(y, value)
    return _reading(G)


def _G_linear(params):
    b = _number(params, "b", 0.0)

    def G(t, y, y_seg, ctx):
        return b * y
    G.affine_in_y = True
    return _reading(G, "y")


def _G_rho_integral(params):
    gamma = _number(params, "gamma", 0.0)

    def G(t, y, y_seg, ctx):
        return gamma * segment_integral(y_seg, ctx.rho_tilde)
    return _reading(G, "y_seg")


def _G_linear_plus_rho(params):
    b = _number(params, "b", 0.0)
    gamma = _number(params, "gamma", 0.0)

    def G(t, y, y_seg, ctx):
        return b * y + gamma * segment_integral(y_seg, ctx.rho_tilde)
    return _reading(G, "y", "y_seg")


_G_BUILDERS = {
    "zero": _G_zero,
    "constant": _G_constant,
    "linear": _G_linear,
    "rho_integral": _G_rho_integral,
    "linear_plus_rho": _G_linear_plus_rho,
}


class _Params(dict):
    """An entry's params, whose get records each key read in ``read``."""
    read = frozenset()

    def get(self, key, default=None):
        self.read |= {key}
        return super().get(key, default)


def _build(kind, table, entry):
    """table's builder of entry's name on its params, None for no entry;
    ConfigError for an entry that is not an object of a name and a params
    object, a name the table lacks, or a param the builder does not read."""
    if entry is None:
        return None
    if not isinstance(entry, dict) or not isinstance(entry.get("params", {}), dict):
        raise ConfigError(f"a {kind} entry must be an object with a params object")
    for key in entry:
        if key not in ("name", "params"):
            raise ConfigError(f"a {kind} entry takes only name and params, got {key!r}")
    name = entry.get("name")
    if name not in table:
        raise ConfigError(f"unknown {kind} '{name}'; known: {sorted(table)}")
    params = _Params(entry.get("params", {}))
    fn = table[name](params)
    unread = [key for key in params if key not in params.read]
    if unread:
        raise ConfigError(f"the {kind} '{name}' reads no param {unread[0]!r}; it reads "
                          f"{', '.join(sorted(params.read)) or 'none'}")
    fn.__name__ = f"{kind}_{name}"
    return fn


def build_terminal(entry):
    if entry is None:
        raise ConfigError("a terminal entry is required")
    return _build("terminal", _TERMINALS, entry)


def build_F(entry):
    return _build("F", _F_BUILDERS, entry)


def build_G(entry):
    return _build("G", _G_BUILDERS, entry)


# ----------------------------------------------------------------- configs

# the problem section's keys: those a config must give, then the others with their defaults
_REQUIRED = ("T", "delta", "beta", "L", "L_tilde", "terminal", "A")
_PROBLEM_KEYS = {**dict.fromkeys(_REQUIRED), "m": 1, "d": 1, "F": None, "G": None,
                 "K": 0.0, "K_tilde": 0.0, "rho": None, "rho_tilde": None, "c": None, "label": ""}


def _measure_from(config, key):
    """The AtomMeasure of config[key], None when absent; ValueError unless
    it is an object of thetas and weights alone, each numbers or lists of
    numbers."""
    entry = config.get(key)
    if entry is None:
        return None
    if not (isinstance(entry, dict) and {"thetas", "weights"} <= entry.keys()):
        raise ValueError(f"{key} must be an object with thetas and weights, got {entry!r}")
    for part in entry:
        if part not in ("thetas", "weights"):
            raise ValueError(f"{key} takes only thetas and weights, got {part!r}")
    arrays = []
    for part in ("thetas", "weights"):
        values = entry[part]
        if not all(map(is_number, values if isinstance(values, list) else [values])):
            raise ValueError(f"{key} {part} must be numbers, got {values!r}")
        arrays.append(np.asarray(values, dtype=float))
    return AtomMeasure(*arrays)


def problem_from_dict(config: dict) -> ProblemSpec:
    """The ProblemSpec of a problem section, or a ConfigError whose ``errors``
    hold each (code, message) fault of the first stage to find any, as
    cli.validate reports them: "schema", each key missing or not in
    _PROBLEM_KEYS; "registry", each of terminal, F, G and A (with its
    check_dimension against d) that its builder refuses; "domain", what
    ProblemSpec or the reading of K, K_tilde, rho and rho_tilde refuses;
    "beta-range", a beta that leaves model.c_threshold no admissible c."""
    errors = [("schema", f"problem section is missing required key '{key}'")
              for key in _REQUIRED if key not in config]
    errors += [("schema", f"problem.{key}: unknown key; the problem takes "
                          f"{', '.join(sorted(_PROBLEM_KEYS))}")
               for key in config if key not in _PROBLEM_KEYS]
    if errors:
        raise ConfigError(errors=errors)
    value = {key: config.get(key, default) for key, default in _PROBLEM_KEYS.items()}
    for section, build in (("terminal", build_terminal), ("F", build_F), ("G", build_G),
                           ("A", IncreasingProcessSpec.from_dict)):
        try:
            value[section] = build(value[section])
            if section == "A" and is_integer(value["d"], 1):    # any other d is a domain fault
                value["A"].check_dimension(value["d"])
        except (ConfigError, KeyError, TypeError, ValueError) as exc:
            where = (f"A must be an increasing process of a kind in {sorted(PROCESS_KINDS)}"
                     if section == "A" else section)
            errors.append(("registry", f"{where}: {exc}"))
    if errors:
        raise ConfigError(errors=errors)
    try:
        value.update(K=_number(value, "K"), K_tilde=_number(value, "K_tilde"),
                     rho=_measure_from(value, "rho"), rho_tilde=_measure_from(value, "rho_tilde"),
                     label=str(value["label"]))
        spec = ProblemSpec(xi=value.pop("terminal"), A_spec=value.pop("A"), **value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(errors=[("domain", f"problem: {exc}")]) from None
    try:
        c_threshold(spec.beta, spec.L_tilde)
    except ConstraintViolationError as exc:
        raise ConfigError(errors=[("beta-range", str(exc))]) from None
    return spec
