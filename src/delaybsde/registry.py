"""Named builders for terminals and generators, and problem (de)serialization.

Built callables carry a ``spec_dict`` attribute so a ProblemSpec assembled
from names round-trips through JSON.  Hand-written callables work everywhere
else in the package but cannot be serialized.  Built F and G also carry
``reads``, the frozenset of the arguments ("y", "z", "y_seg", "z_seg") they
read; a generator without it, hand-written or from a registered builder that
sets none, counts as reading every argument (model.generator_reads).  A
built "brownian" terminal carries ``component``, the component of W(T) it
reads, which ProblemSpec checks against d.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .model import AtomMeasure, ProblemSpec, segment_integral
from .stochastic_engine import IncreasingProcessSpec, is_integer

__all__ = [
    "build_terminal",
    "build_F",
    "build_G",
    "register_terminal",
    "register_F",
    "register_G",
    "problem_from_dict",
    "problem_to_dict",
]


def _tag(fn, kind, name, params):
    fn.spec_dict = {"name": name, "params": dict(params)}
    fn.__name__ = f"{kind}_{name}"
    return fn


# ----------------------------------------------------------------- terminals

def _terminal_constant(params):
    value = float(params.get("value", 0.0))

    def xi(ensemble):
        return np.full((ensemble.n_paths, 1), value)
    return xi


def _terminal_brownian(params):
    component = params.get("component", 0)
    if not is_integer(component, 0):
        raise ValueError(f"brownian terminal needs an integer component >= 0, "
                         f"got {component!r}")
    coeff = float(params.get("coeff", 1.0))

    def xi(ensemble):
        return coeff * ensemble.W[:, -1, component:component + 1]
    xi.component = component
    return xi


def _terminal_process_total(params):
    # terminal value of the realized increasing process
    coeff = float(params.get("coeff", 1.0))

    def xi(ensemble):
        return coeff * ensemble.A[:, -1:]
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
    a_y = float(params.get("a_y", 0.0))
    a_z = float(params.get("a_z", 0.0))

    def F(t, y, z, y_seg, z_seg, ctx):
        return a_y * y + a_z * np.sum(z, axis=2)
    return _reading(F, "y", "z")


def _F_delayed_linear(params):
    # kappa * y_segment(-delta), the pure lagged-state driver
    kappa = float(params.get("kappa", 0.0))

    def F(t, y, z, y_seg, z_seg, ctx):
        return kappa * y_seg[:, 0, :]
    return _reading(F, "y_seg")


def _F_rho_integral(params):
    kappa = float(params.get("kappa", 0.0))

    def F(t, y, z, y_seg, z_seg, ctx):
        return kappa * segment_integral(y_seg, ctx.rho)
    return _reading(F, "y_seg")


def _F_linear_plus_rho(params):
    a_y = float(params.get("a_y", 0.0))
    a_z = float(params.get("a_z", 0.0))
    kappa_rho = float(params.get("kappa_rho", 0.0))
    kappa_z_rho = float(params.get("kappa_z_rho", 0.0))

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
    value = float(params.get("value", 1.0))

    def G(t, y, y_seg, ctx):
        return np.full_like(y, value)
    return _reading(G)


def _G_linear(params):
    b = float(params.get("b", 0.0))

    def G(t, y, y_seg, ctx):
        return b * y
    return _reading(G, "y")


def _G_rho_integral(params):
    gamma = float(params.get("gamma", 0.0))

    def G(t, y, y_seg, ctx):
        return gamma * segment_integral(y_seg, ctx.rho_tilde)
    return _reading(G, "y_seg")


def _G_linear_plus_rho(params):
    b = float(params.get("b", 0.0))
    gamma = float(params.get("gamma", 0.0))

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


def register_terminal(name, builder):
    _TERMINALS[name] = builder


def register_F(name, builder):
    _F_BUILDERS[name] = builder


def register_G(name, builder):
    _G_BUILDERS[name] = builder


def _build(kind, table, entry):
    if entry is None:
        return None
    if not isinstance(entry, dict) or not isinstance(entry.get("params", {}), dict):
        raise ConfigError(f"a {kind} entry must be an object with a params object")
    name = entry.get("name")
    if name not in table:
        raise ConfigError(f"unknown {kind} '{name}'; known: {sorted(table)}")
    params = entry.get("params", {})
    return _tag(table[name](params), kind, name, params)


def build_terminal(entry):
    if entry is None:
        raise ConfigError("a terminal entry is required")
    return _build("terminal", _TERMINALS, entry)


def build_F(entry):
    return _build("F", _F_BUILDERS, entry)


def build_G(entry):
    return _build("G", _G_BUILDERS, entry)


# ----------------------------------------------------------------- configs

def _measure_from(entry):
    if entry is None:
        return None
    return AtomMeasure(np.asarray(entry["thetas"], dtype=float),
                       np.asarray(entry["weights"], dtype=float))


def _measure_to(measure):
    if measure is None:
        return None
    return {"thetas": measure.thetas.tolist(), "weights": measure.weights.tolist()}


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
            K=float(config.get("K", 0.0)),
            K_tilde=float(config.get("K_tilde", 0.0)),
            rho=_measure_from(config.get("rho")),
            rho_tilde=_measure_from(config.get("rho_tilde")),
            c=config.get("c"),
            label=str(config.get("label", "")),
        )
    except KeyError as exc:
        raise ConfigError(f"missing required problem key: {exc}") from None


def problem_to_dict(problem: ProblemSpec) -> dict:
    def spec_of(fn, kind):
        if fn is None:
            return None
        spec = getattr(fn, "spec_dict", None)
        if spec is None:
            raise ConfigError(f"{kind} was not built from the registry; "
                              "register a builder to serialize it")
        return spec

    if callable(problem.K) or callable(problem.K_tilde):
        raise ConfigError("callable kernel bounds cannot be serialized")
    out = {
        "T": problem.T, "delta": problem.delta,
        "m": problem.m, "d": problem.d,
        "beta": problem.beta, "L": problem.L, "L_tilde": problem.L_tilde,
        "K": float(np.max(problem.K)), "K_tilde": float(np.max(problem.K_tilde)),
        "terminal": spec_of(problem.xi, "terminal"),
        "F": spec_of(problem.F, "F"),
        "G": spec_of(problem.G, "G"),
        "A": problem.A_spec.to_dict(),
        "rho": _measure_to(problem.rho),
        "rho_tilde": _measure_to(problem.rho_tilde),
        "label": problem.label,
    }
    if problem.c is not None:
        out["c"] = problem.c
    return out
