"""Named builders for terminals and generators, and the problem schema: the
table of a config's problem keys and their reader, problem_from_dict.

Each table of names is closed: a config names a part, and the one way to
supply another is a hand-written callable handed to ProblemSpec.  An entry
key other than name and params, or a param its builder does not read, is a
ConfigError.  Every param a builder reads, and every number problem_from_dict
reads that ProblemSpec does not check itself (K, K_tilde and the delay
measures' entries), must be a finite number (path_calculus.is_number), not a
string or a bool; anything else raises ValueError, as does a delay measure's
entry key other than thetas and weights.  Every F and G is one row of a
table of terms (_driver): the sum of param times term over its (param,
term) pairs.  Its ``reads``, the frozenset of the arguments ("y", "z",
"y_seg", "z_seg") it reads, are its terms' (a generator without it counts
as reading every argument, model.generator_reads); the G whose one term is
y, "linear", carries ``affine_in_y``: it is affine in y with coefficients
known at t, so it keeps a value in the regression span, which lets the
solver sweep once (picard_solver.solve).
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

# term: (the argument it reads, None for none; c times its value at the
# call's arguments, with w the delay weights, the context's rho for F and
# rho_tilde for G)
_TERMS = {
    "one": (None, lambda c, y, z, y_seg, z_seg, w: np.full_like(y, c)),
    "y": ("y", lambda c, y, z, y_seg, z_seg, w: c * y),
    "z": ("z", lambda c, y, z, y_seg, z_seg, w: c * np.sum(z, axis=2)),
    "y_lag": ("y_seg", lambda c, y, z, y_seg, z_seg, w: c * y_seg[:, 0]),
    "y_rho": ("y_seg", lambda c, y, z, y_seg, z_seg, w: c * segment_integral(y_seg, w)),
    "z_rho": ("z_seg", lambda c, y, z, y_seg, z_seg, w:
              c * np.sum(segment_integral(z_seg, w), axis=2)),
}


def _sum(terms, y, z, y_seg, z_seg, w):
    """The sum, left to right from the first, of each (c, term)'s value;
    zeros for no term."""
    out = None
    for c, term in terms:
        value = term(c, y, z, y_seg, z_seg, w)
        out = value if out is None else out + value
    return np.zeros_like(y) if out is None else out


def _driver(kind, pairs):
    """The builder of the F or G (kind) whose value is the sum of param times
    term over its (param, term) pairs.  It reads each param in order, 1.0
    by default for the term one and 0.0 for any other, and leaves out a
    z_rho term whose param is 0, so that the driver reads no z_seg.  The
    driver's ``reads`` are its terms' arguments; a G whose one term is y
    is affine in y (``affine_in_y``)."""
    def build(params):
        coeffs = [(_number(params, param, 1.0 if term == "one" else 0.0), term)
                  for param, term in pairs]
        kept = [(c, term) for c, term in coeffs if c or term != "z_rho"]
        terms = [(c, _TERMS[term][1]) for c, term in kept]
        if kind == "F":
            def fn(t, y, z, y_seg, z_seg, ctx):
                return _sum(terms, y, z, y_seg, z_seg, ctx.rho)
        else:
            def fn(t, y, y_seg, ctx):
                return _sum(terms, y, None, y_seg, None, ctx.rho_tilde)
            if [term for _, term in kept] == ["y"]:
                fn.affine_in_y = True
        fn.reads = frozenset(_TERMS[term][0] for _, term in kept) - {None}
        return fn
    return build


_F_BUILDERS = {name: _driver("F", pairs) for name, pairs in {
    "zero": (),
    "linear": (("a_y", "y"), ("a_z", "z")),
    "delayed_linear": (("kappa", "y_lag"),),
    "rho_integral": (("kappa", "y_rho"),),
    "linear_plus_rho": (("a_y", "y"), ("a_z", "z"), ("kappa_rho", "y_rho"),
                        ("kappa_z_rho", "z_rho")),
}.items()}

_G_BUILDERS = {name: _driver("G", pairs) for name, pairs in {
    "zero": (),
    "constant": (("value", "one"),),
    "linear": (("b", "y"),),
    "rho_integral": (("gamma", "y_rho"),),
    "linear_plus_rho": (("b", "y"), ("gamma", "y_rho")),
}.items()}


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
