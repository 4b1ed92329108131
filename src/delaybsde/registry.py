"""Named builders for terminals and generators, and the reader of a config's
problem section.

Each table of names is closed: a config names a part, and the one way to
supply another is a hand-written callable handed to ProblemSpec.  Every
param a builder reads, and every number problem_from_dict reads that
ProblemSpec does not check itself (K, K_tilde and the delay measures'
entries), must be a finite number (path_calculus.is_number), not a string or a
bool; anything else raises ValueError.  Built F and G carry ``reads``, the
frozenset of the arguments ("y", "z", "y_seg", "z_seg") they read; a
generator without it counts as reading every argument
(model.generator_reads).  The "linear" G also carries ``affine_in_y``: it is
affine in y with coefficients known at t, so it keeps a value in the
regression span, which lets the solver sweep once (picard_solver.solve).
The built terminals carry ``width``, the number of columns of xi, which
ProblemSpec checks against m; a built "brownian" terminal also carries
``component``, the component of W(T) it reads, which ProblemSpec checks
against d.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .model import AtomMeasure, ProblemSpec, segment_integral
from .path_calculus import is_integer, is_number
from .stochastic_engine import IncreasingProcessSpec

__all__ = [
    "build_terminal",
    "build_F",
    "build_G",
    "problem_from_dict",
]


def _number(entries, key, default):
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


def _build(kind, table, entry):
    if entry is None:
        return None
    if not isinstance(entry, dict) or not isinstance(entry.get("params", {}), dict):
        raise ConfigError(f"a {kind} entry must be an object with a params object")
    name = entry.get("name")
    if name not in table:
        raise ConfigError(f"unknown {kind} '{name}'; known: {sorted(table)}")
    fn = table[name](entry.get("params", {}))
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

def _measure_from(config, key):
    """The AtomMeasure of config[key], None when absent; ValueError unless
    it is an object whose thetas and weights are numbers or lists of numbers."""
    entry = config.get(key)
    if entry is None:
        return None
    if not (isinstance(entry, dict) and {"thetas", "weights"} <= entry.keys()):
        raise ValueError(f"{key} must be an object with thetas and weights, got {entry!r}")
    arrays = []
    for part in ("thetas", "weights"):
        values = entry[part]
        if not all(map(is_number, values if isinstance(values, list) else [values])):
            raise ValueError(f"{key} {part} must be numbers, got {values!r}")
        arrays.append(np.asarray(values, dtype=float))
    return AtomMeasure(*arrays)


def problem_from_dict(config: dict, built: dict | None = None) -> ProblemSpec:
    """Assemble a ProblemSpec from a JSON-able dictionary of named parts.

    ``built`` may map the sections "terminal", "A", "F" and "G" to their parts
    already built from config, as cli.validate builds them to name a section
    at fault; a part given there is not built again.
    """
    built = built or {}

    def part(section, build, required=False):
        if section in built:
            return built[section]
        return build(config[section] if required else config.get(section))

    try:
        xi = part("terminal", build_terminal, required=True)
        return ProblemSpec(
            T=config["T"],
            delta=config["delta"],
            xi=xi,
            A_spec=part("A", IncreasingProcessSpec.from_dict, required=True),
            beta=config["beta"],
            L=config["L"],
            L_tilde=config["L_tilde"],
            m=config.get("m", 1),
            d=config.get("d", 1),
            F=part("F", build_F),
            G=part("G", build_G),
            K=_number(config, "K", 0.0),
            K_tilde=_number(config, "K_tilde", 0.0),
            rho=_measure_from(config, "rho"),
            rho_tilde=_measure_from(config, "rho_tilde"),
            c=config.get("c"),
            label=str(config.get("label", "")),
        )
    except KeyError as exc:
        raise ConfigError(f"missing required problem key: {exc}") from None

