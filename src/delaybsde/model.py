"""Problem data, weighted norms and well-posedness arithmetic.

A problem couples terminal data xi, a driver F(t, y, z, y_segment, z_segment),
a Stieltjes driver G(t, y, y_segment) integrated against an increasing process
A, delay measures rho / rho_tilde on [-delta, 0], and declared regularity
constants.  The checkers below decide whether the smallness conditions that
make the fixed-point construction contract actually hold for a realized A,
and compute the contraction budget (threshold for c, lambda, mu_lambda).
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from .errors import (ConstraintViolationError, GeneratorEvaluationError,
                     NumericOverflowError)
from .path_calculus import (BLOCK_BYTES, TimeGrid, delay_fits_horizon,
                            node_major_zeros, stored_rows)
from .stochastic_engine import (IncreasingProcessSpec, PathEnsemble, is_integer,
                                is_number, omega_delta)

__all__ = [
    "AtomMeasure",
    "ProblemSpec",
    "GenContext",
    "NormReport",
    "ConditionReport",
    "LambdaSelection",
    "segment_integral",
    "weighted_norm",
    "equivalent_norm",
    "norm_weights",
    "c_threshold",
    "c_admissible",
    "effective_c",
    "check_H1",
    "check_H2",
    "select_lambda",
    "argument_clouds",
    "GENERATOR_ARGUMENTS",
    "generator_reads",
    "evaluate_generator",
    "probe_lipschitz",
    "Preflight",
    "preflight",
    "check_integrability",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AtomMeasure:
    """Finite atomic probability measure on the delay window [-delta, 0]."""

    thetas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        thetas = np.atleast_1d(np.asarray(self.thetas, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if thetas.shape != weights.shape or thetas.ndim != 1:
            raise ValueError("thetas and weights must be equally sized vectors")
        # written so that a NaN fails each check
        if not np.all(weights >= 0):
            raise ValueError("weights must be nonnegative")
        if not abs(weights.sum() - 1.0) <= 1e-12:
            raise ValueError("weights must sum to one")
        if not np.all(thetas <= 0):
            raise ValueError("atoms must sit in [-delta, 0]")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def dirac(cls, theta: float) -> "AtomMeasure":
        return cls(np.array([theta]), np.array([1.0]))

    @classmethod
    def uniform(cls, delta: float, n_atoms: int) -> "AtomMeasure":
        ths = np.linspace(-delta, 0.0, n_atoms)
        return cls(ths, np.full(n_atoms, 1.0 / n_atoms))

    def check_window(self, delta: float) -> None:
        """The one delay-window rule: an atom left of -delta is a ValueError."""
        if np.any(self.thetas < -delta - 1e-12):
            raise ValueError("delay measure atom outside [-delta, 0]")

    def project(self, delta: float, n_theta_steps: int) -> np.ndarray:
        """Weights re-attached to the nearest node of a theta grid with
        n_theta_steps equal steps spanning [-delta, 0]."""
        self.check_window(delta)
        out = np.zeros(n_theta_steps + 1)
        idx = np.clip(np.round((self.thetas + delta) / delta * n_theta_steps),
                      0, n_theta_steps).astype(int)
        np.add.at(out, idx, self.weights)
        return out


@dataclass(frozen=True)
class GenContext:
    """Per-call evaluation context handed to generators.

    ``w`` is the Brownian state at the current time (the randomness hook);
    ``theta`` the segment grid; ``rho`` / ``rho_tilde`` the delay measures
    projected onto it.
    """

    t: float
    w: np.ndarray
    theta: np.ndarray
    rho: np.ndarray
    rho_tilde: np.ndarray


def segment_integral(segment: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights[j] * segment[:, j, ...] over the theta axis, the terms
    of the non-zero weights added to zeros in increasing j: elementwise steps
    in a fixed order, so the bits do not depend on the layout of segment."""
    out = np.zeros(segment.shape[:1] + segment.shape[2:])
    for j in np.flatnonzero(weights):
        out += weights[j] * segment[:, j]
    return out


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem description.

    xi maps an ensemble to terminal values (n_paths, m).  F and G are
    vectorized generators F(t, y, z, y_seg, z_seg, ctx) -> (n, m) and
    G(t, y, y_seg, ctx) -> (n, m); either may be None (zero).  K and K_tilde
    are the nonnegative delay-kernel bounds: scalars, per-node arrays, or
    callables (grid, ensemble) -> per-path-per-node arrays.  T, beta, L,
    L_tilde > 0 and 0 < delta <= T must be numbers (kept as floats); these,
    or an A or terminal (``component``) reading a component of W that d
    lacks, raise ValueError.
    """

    T: float
    delta: float
    xi: object
    A_spec: IncreasingProcessSpec
    beta: float
    L: float
    L_tilde: float
    m: int = 1
    d: int = 1
    F: object = None
    G: object = None
    K: object = 0.0
    K_tilde: object = 0.0
    rho: AtomMeasure | None = None
    rho_tilde: AtomMeasure | None = None
    c: float | None = None
    label: str = ""
    _delay_weights: dict = field(default_factory=dict, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        # written so that a NaN fails each check; T is checked before delta
        for name in ("T", "delta", "beta", "L", "L_tilde"):
            value, delay = getattr(self, name), name == "delta"
            if not (is_number(value)
                    and (delay_fits_horizon(value, self.T) if delay else value > 0)):
                rule = "satisfy 0 < delta <= T" if delay else "be a positive number"
                raise ValueError(f"{name} must {rule}, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not (is_integer(self.m, 1) and is_integer(self.d, 1)):
            raise ValueError(f"need integers m >= 1 and d >= 1, got m={self.m!r}, d={self.d!r}")
        self.A_spec.check_dimension(self.d)
        component = getattr(self.xi, "component", None)
        if component is not None and component >= self.d:
            raise ValueError(f"the terminal reads component {component} of W(T), "
                             f"so needs d > {component}, got d={self.d}")
        if self.c is not None and not (is_number(self.c) and self.c > 0):
            raise ValueError(f"c must be a positive number when given, got {self.c!r}")
        for name in ("K", "K_tilde"):
            bound = getattr(self, name)
            if not callable(bound) and not np.all(np.asarray(bound, dtype=float) >= 0):
                raise ValueError(f"kernel bound {name} must be nonnegative, got {bound!r}")
        for meas in filter(None, (self.rho, self.rho_tilde)):
            meas.check_window(self.delta)

    @property
    def alpha(self) -> float:
        return 8.0 * self.L ** 2 + 0.5

    def delay_weights(self, k: int):
        """(theta, rho, rho_tilde) on the theta grid with k equal steps
        spanning [-delta, 0], an absent measure being the Dirac mass at
        -delta.  Computed once per k; the arrays are shared between calls
        and read-only."""
        cached = self._delay_weights.get(k)
        if cached is None:
            dirac = AtomMeasure.dirac(-self.delta)
            cached = (np.linspace(-self.delta, 0.0, k + 1),
                      (dirac if self.rho is None else self.rho).project(self.delta, k),
                      (dirac if self.rho_tilde is None else self.rho_tilde).project(self.delta, k))
            for arr in cached:
                arr.flags.writeable = False
            self._delay_weights[k] = cached
        return cached

    def context(self, grid: TimeGrid, t: float, w: np.ndarray) -> GenContext:
        theta, rho, rho_tilde = self.delay_weights(grid.delta_index_offset)
        return GenContext(t=t, w=w, theta=theta, rho=rho, rho_tilde=rho_tilde)


# ----------------------------------------------------------------- norms

@dataclass(frozen=True)
class NormReport:
    """Terms of a weighted norm of (Y, Z); ``total`` is the p-th power."""

    sup_term: float
    dA_term: float
    dt_term: float
    p: float
    beta: float
    alpha: float = 0.0
    a: float = 1.0
    b: float = 1.0

    @property
    def total(self) -> float:
        return self.sup_term + self.a * self.dA_term + self.b * self.dt_term

    @property
    def norm(self) -> float:
        return self.total ** (1.0 / self.p)


def _as_paths(values, n_nodes, trailing):
    """Normalize to (n_paths, n_nodes, *trailing)."""
    values = np.asarray(values, dtype=float)
    want = 2 + len(trailing)
    while values.ndim < want:
        values = values[..., None]
    if values.shape[1] != n_nodes:
        raise ValueError(f"node axis mismatch: {values.shape} vs {n_nodes} nodes")
    return values


def _sq_size(values):
    """Squared Euclidean size over all trailing axes -> (n_paths, n_nodes), in
    the input's memory layout; components add in index order."""
    flat = values.reshape(values.shape[0], values.shape[1], -1)
    sq = np.square(flat[..., 0])
    for j in range(1, flat.shape[2]):
        sq += np.square(flat[..., j])
    return sq


def norm_weights(A, grid: TimeGrid, alpha: float, beta: float):
    """(w, dA): the norm weights w = e^{alpha t + beta A(t)}, (rows, n_nodes),
    and the increments of A, (rows, n_steps), on the rows A stores
    (path_calculus.stored_rows) and in A's memory layout.  Both depend on A
    alone, so a caller taking many norms builds them once."""
    A = stored_rows(np.atleast_2d(np.asarray(A, dtype=float)))
    with np.errstate(over="ignore"):
        w = np.multiply(beta, A)
        w += alpha * grid.nodes
        np.exp(w, out=w)
    # w > 0, so an overflow or a NaN in A shows in the maximum
    if not np.isfinite(w.max()):
        raise NumericOverflowError(
            "exp(alpha t + beta A) overflowed; beta * A(T) is too large")
    return w, np.subtract(A[:, 1:], A[:, :-1])


def _assemble_norm(Y, Z, A, grid: TimeGrid, *, p: float, alpha: float,
                   beta: float, a: float, b: float, weights=None) -> NormReport:
    """Terms of E sup w|Y|^p, (E int w|Y|^2 dA)^{p/2} and (E int w|Z|^2 dt)^{p/2}
    with weights w = e^{alpha t + beta A(t)}, by left-point sums.  ``weights``
    is norm_weights(A, grid, alpha, beta), built here when not given; they
    multiply into |Y|^2 and |Z|^2 in place (products commute exactly)."""
    w, dA = norm_weights(A, grid, alpha, beta) if weights is None else weights
    sup_term = dA_term = dt_term = 0.0
    if Y is not None:
        Y = _as_paths(Y, grid.nodes.size, ("m",))
        ysq = _sq_size(Y)
        top = w * ysq ** (p / 2.0) if p != 2.0 else None
        ysq *= w  # w|Y|^2, which is w|Y|^p for p = 2
        sup_term = float(np.mean(np.max(ysq if top is None else top, axis=1)))
        wy = np.multiply(ysq[:, :-1], dA, out=ysq[:, :-1])
        dA_term = float(np.mean(np.sum(wy, axis=1))) ** (p / 2.0)
    if Z is not None:
        Z = _as_paths(Z, grid.nodes.size, ("m", "d"))
        zsq = _sq_size(Z)[:, :-1]
        zsq *= w[:, :-1]
        dt_term = float(np.mean(np.sum(np.multiply(zsq, grid.steps(), out=zsq), axis=1))) ** (p / 2.0)
    report = NormReport(sup_term=sup_term, dA_term=dA_term, dt_term=dt_term,
                        p=p, beta=beta, alpha=alpha, a=a, b=b)
    if not np.isfinite(report.total):
        raise NumericOverflowError("weighted norm is not finite")
    return report


def weighted_norm(Y, Z, A, grid: TimeGrid, p: float = 2.0,
                  beta: float = 0.0) -> NormReport:
    """Monte Carlo estimate of the p-th power of the solution norm.

    sup term   E[ sup_t e^{beta A}|Y|^p ]
    dA term    E[ int_0^T e^{beta A}|Y|^2 dA ]^{p/2}
    dt term    E[ int_0^T e^{beta A}|Z|^2 dt ]^{p/2}
    Left-point sums; the terminal node never enters the integrals.
    """
    if p < 2:
        raise ValueError("p >= 2 required")
    return _assemble_norm(Y, Z, A, grid, p=p, alpha=0.0, beta=beta, a=1.0, b=1.0)


def equivalent_norm(dY, dZ, A, grid: TimeGrid, alpha: float, beta: float,
                    a: float, b: float, *, weights=None) -> NormReport:
    """Squared contraction norm with weights e^{alpha t + beta A(t)}:

    E sup e^{alpha t + beta A}|dY|^2 + a E int e^..|dY|^2 dA
                                     + b E int e^..|dZ|^2 dt.

    ``weights`` may pass norm_weights(A, grid, alpha, beta) built once for
    many norms against the same A.
    """
    return _assemble_norm(dY, dZ, A, grid, p=2.0, alpha=alpha, beta=beta, a=a, b=b,
                          weights=weights)


# ----------------------------------------------------------------- constants

def c_threshold(beta: float, L_tilde: float) -> float:
    """Upper bound for the smallness constant: min{(b^2-8Lt^2)/(4b^2), 1/584}."""
    if beta <= 2.0 * np.sqrt(2.0) * L_tilde:
        raise ConstraintViolationError(
            f"beta={beta} must exceed 2*sqrt(2)*L_tilde={2 * np.sqrt(2) * L_tilde:.6g}")
    return min((beta ** 2 - 8.0 * L_tilde ** 2) / (4.0 * beta ** 2), 1.0 / 584.0)


def c_admissible(c, beta: float, L_tilde: float) -> tuple[bool, float]:
    """(whether c is a real number in (0, c_threshold(beta, L_tilde)), that
    threshold): the one c-range rule, which each caller words its own way."""
    threshold = c_threshold(beta, L_tilde)
    return isinstance(c, numbers.Real) and 0 < c < threshold, threshold


def effective_c(problem: ProblemSpec) -> float:
    """The problem's c, defaulting to half the admissible threshold."""
    if problem.c is not None:
        return problem.c
    return 0.5 * c_threshold(problem.beta, problem.L_tilde)


def _K_sup(K, grid: TimeGrid, ensemble: PathEnsemble | None):
    """Sup over time of the kernel bound; per path when K is random."""
    if callable(K):
        vals = np.asarray(K(grid, ensemble), dtype=float)
        if not np.all(np.isfinite(vals) & (vals >= 0)):
            raise ValueError("a callable kernel bound must return finite "
                             "nonnegative values")
        return vals.max(axis=-1)
    vals = np.asarray(K, dtype=float)
    if vals.ndim == 0:
        return float(vals)
    return float(vals.max())


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a smallness check: per-path LHS against the budget c."""

    name: str
    lhs: np.ndarray
    c: float
    passed: bool
    pass_fraction: float
    worst_margin: float
    notes: str = ""

    def __str__(self):
        state = "PASS" if self.passed else "FAIL"
        return (f"({self.name}) {state}  worst margin {self.worst_margin:.3e}  "
                f"pass fraction {self.pass_fraction:.3f}  {self.notes}")


def _condition_report(name, lhs, c, notes=""):
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    margins = c - lhs
    passed = bool(np.all(margins >= 0.0)) and not notes
    return ConditionReport(name=name, lhs=lhs, c=c, passed=passed,
                           pass_fraction=float(np.mean(margins >= 0.0)),
                           worst_margin=float(margins.min()), notes=notes)


def _condition_setup(name: str, problem: ProblemSpec, ensemble: PathEnsemble,
                     c: float):
    """What (H1) and (H2) share: the checks on c and on the realized A, the
    note when c is above its threshold, and the per-path factor
    e^{(8L^2+1/2)delta + beta omega_delta}."""
    if c <= 0:
        raise ValueError("c must be positive")
    try:
        admissible, _ = c_admissible(c, problem.beta, problem.L_tilde)
    except ConstraintViolationError as exc:
        raise ConstraintViolationError(f"({name}) unusable: {exc}") from None
    notes = "" if admissible else "c exceeds the admissible threshold"
    w_delta = omega_delta(ensemble, problem.delta)
    return notes, np.exp(problem.alpha * problem.delta + problem.beta * w_delta)


def check_H1(problem: ProblemSpec, ensemble: PathEnsemble, c: float) -> ConditionReport:
    """Drift-delay smallness: K1 max{1,T} e^{(8L^2+1/2)delta + beta omega_delta} / (4L^2) <= c."""
    notes, factor = _condition_setup("H1", problem, ensemble, c)
    K1 = _K_sup(problem.K, ensemble.grid, ensemble)
    lhs = K1 * max(1.0, problem.T) * factor / (4.0 * problem.L ** 2)
    return _condition_report("H1", lhs, c, notes)


def check_H2(problem: ProblemSpec, ensemble: PathEnsemble, c: float) -> ConditionReport:
    """Stieltjes-delay smallness: 4 Kt1 A(T) e^{(8L^2+1/2)delta + beta omega_delta} / beta <= c."""
    notes, factor = _condition_setup("H2", problem, ensemble, c)
    Kt1 = _K_sup(problem.K_tilde, ensemble.grid, ensemble)
    lhs = 4.0 * Kt1 * ensemble.A[:, -1] * factor / problem.beta
    return _condition_report("H2", lhs, c, notes)


@dataclass(frozen=True)
class LambdaSelection:
    lam: float
    mu_lambda: float
    a: float
    b: float
    c: float
    beta: float
    L_tilde: float
    bdg_constant: float = 144.0


def mu_lambda(lam: float, c: float, beta: float, L_tilde: float,
              bdg_constant: float = 144.0) -> float:
    """max{c(2+lam), 8 Lt^2 (2+lam)/(lam beta^2), 2c(2+lam)/(lam - 2 bdg)}."""
    lam = np.asarray(lam, dtype=float)
    out = np.maximum.reduce([
        c * (2.0 + lam),
        8.0 * L_tilde ** 2 * (2.0 + lam) / (lam * beta ** 2),
        2.0 * c * (2.0 + lam) / (lam - 2.0 * bdg_constant),
    ])
    return float(out) if out.ndim == 0 else out


def select_lambda(c: float, beta: float, L_tilde: float,
                  bdg_constant: float = 144.0) -> LambdaSelection:
    """Pick lambda minimizing mu_lambda on a 200-point log scan.

    Requires 0 < c < c_threshold(beta, L_tilde); the returned factor is
    below one there in exact arithmetic.  Below about 3e-308, 1/(2c)
    overflows and the scan reads NaN, which is refused like a factor of one
    or more.  b = lam/2 - bdg_constant keeps the printed
    value with its default 144; pass 72 to see the alternative bookkeeping.
    """
    admissible, threshold = c_admissible(c, beta, L_tilde)
    if not admissible:
        raise ConstraintViolationError(
            f"c={c} leaves no contraction margin (needs 0 < c < {threshold:.6g})")
    lo = 2.0 * bdg_constant * (1.0 + 1e-6)
    with np.errstate(over="ignore", invalid="ignore"):
        hi = 10.0 * max(2.0 * bdg_constant, 1.0 / (2.0 * c) - 2.0)
        lams = np.geomspace(lo, hi, 200)
        mus = mu_lambda(lams, c, beta, L_tilde, bdg_constant)
    j = int(np.argmin(mus))
    lam, mu = float(lams[j]), float(mus[j])
    if not mu < 1.0:
        raise ConstraintViolationError(
            f"no scanned lambda contracts (best mu={mu:.4f}); "
            "beta or c are too close to their limits")
    return LambdaSelection(lam=lam, mu_lambda=mu, a=lam * beta / 2.0,
                           b=lam / 2.0 - bdg_constant, c=c, beta=beta,
                           L_tilde=L_tilde, bdg_constant=bdg_constant)


# ----------------------------------------------------------------- probes

@dataclass(frozen=True)
class LipschitzProbe:
    which: str
    empirical_L: float
    empirical_K1: float
    declared_L: float
    declared_K1: float
    exceeds_L: bool
    exceeds_K1: bool
    n_samples: int


@dataclass(frozen=True)
class ArgumentCloud:
    """Generator arguments y, z and theta-linear segments at n points, with
    one context (holding w) per node of the time ladder 0, T/8, ..., T."""

    y: np.ndarray
    z: np.ndarray
    y_seg: np.ndarray
    z_seg: np.ndarray
    contexts: tuple


def argument_clouds(problem: ProblemSpec, n_samples: int, seed: int,
                    count: int = 1) -> tuple:
    """``count`` clouds of 2^ceil(log2 n_samples) points in the box [-3, 3] on the
    8-step theta grid: disjoint coordinate blocks of one scrambled-Sobol set,
    so the clouds' i-th points together form one low-discrepancy point.  The
    arrays, each handed to many generator calls, are read-only."""
    m, d, k = problem.m, problem.d, 8
    theta, rho, rho_tilde = problem.delay_weights(k)
    widths = [d, m, m * d, m, m, m * d, m * d]
    sampler = qmc.Sobol(count * sum(widths), scramble=True, seed=seed)
    u = 3.0 * (2.0 * sampler.random_base2(
        int(np.ceil(np.log2(max(n_samples, 4))))) - 1.0)
    n = u.shape[0]
    clouds = []
    for block in np.split(u, count, axis=1):
        w, y, z, y_end, y_slope, z_end, z_slope = np.split(
            block, np.cumsum(widths)[:-1], axis=1)
        # linear-in-theta profiles with the endpoint value at theta = 0
        y_seg = y_end[:, None, :] + y_slope[:, None, :] * theta[None, :, None]
        z_seg = (z_end[:, None, :] + z_slope[:, None, :]
                 * theta[None, :, None]).reshape(n, k + 1, m, d)
        z = z.reshape(n, m, d)
        for arr in (w, y, z, y_seg, z_seg):
            arr.flags.writeable = False
        contexts = tuple(GenContext(t=float(t), w=w, theta=theta, rho=rho,
                                    rho_tilde=rho_tilde)
                         for t in np.linspace(0.0, problem.T, 9))
        clouds.append(ArgumentCloud(y=y, z=z, y_seg=y_seg, z_seg=z_seg, contexts=contexts))
    return tuple(clouds)


GENERATOR_ARGUMENTS = frozenset({"y", "z", "y_seg", "z_seg"})


def generator_reads(gen) -> frozenset:
    """The arguments an F or G reads: its ``reads`` attribute, which the
    registry's builders set; GENERATOR_ARGUMENTS for a generator without
    one, and none for an absent generator."""
    if gen is None:
        return frozenset()
    return getattr(gen, "reads", GENERATOR_ARGUMENTS)


def evaluate_generator(gen, which: str, ctx: GenContext, y, z, y_seg, z_seg, *,
                       finite: bool = False) -> np.ndarray:
    """One vectorised call of an F or G generator over n argument sets,
    shaped (n, m); an absent generator is zero.  finite=True refuses a
    non-finite value (GeneratorEvaluationError)."""
    n, m = y.shape
    if gen is None:
        return np.zeros((n, m))
    out = gen(ctx.t, y, z, y_seg, z_seg, ctx) if which == "F" \
        else gen(ctx.t, y, y_seg, ctx)
    out = np.asarray(out, dtype=float).reshape(n, m)
    if finite and not np.all(np.isfinite(out)):
        raise GeneratorEvaluationError(f"{which} returned a non-finite value at t={ctx.t:.6g}")
    return out


def probe_lipschitz(problem: ProblemSpec, which: str = "F",
                    n_samples: int = 2048, seed: int = 0) -> LipschitzProbe:
    """Empirical Lipschitz/kernel constants from low-discrepancy sampling.

    Pairs two argument clouds in the box [-3, 3] (see argument_clouds): moving only (y, z) gives the pointwise
    constant, moving only the delayed segments the kernel constant
    K1 = sup |dGen|^2 / int (|dy_seg|^2 + |dz_seg|^2) drho, both over the
    clouds' time ladder; a non-finite generator value makes both infinite.
    Flags when an estimate exceeds the declared constant.
    """
    if which not in ("F", "G"):
        raise ValueError("which must be 'F' or 'G'")
    gen = problem.F if which == "F" else problem.G
    declared_L = problem.L if which == "F" else problem.L_tilde
    declared_K_raw = problem.K if which == "F" else problem.K_tilde
    declared_K = float("inf") if callable(declared_K_raw) \
        else float(np.max(np.asarray(declared_K_raw, dtype=float)))
    if gen is None:
        return LipschitzProbe(which, 0.0, 0.0, declared_L, declared_K,
                              False, False, 0)

    a, b = argument_clouds(problem, n_samples, seed, count=2)
    n = a.y.shape[0]
    weights = a.contexts[0].rho if which == "F" else a.contexts[0].rho_tilde
    gap = np.linalg.norm(a.y - b.y, axis=1)
    seg_sq = np.sum((a.y_seg - b.y_seg) ** 2, axis=-1)
    if which == "F":
        gap = gap + np.linalg.norm((a.z - b.z).reshape(n, -1), axis=1)
        seg_sq = seg_sq + np.sum((a.z_seg - b.z_seg) ** 2, axis=(-2, -1))
    den = np.sum(weights * seg_sq, axis=1)
    L_ok, K_ok = gap > 1e-9, den > 1e-9

    emp_L = emp_K = 0.0
    for ctx in a.contexts:
        base = evaluate_generator(gen, which, ctx, a.y, a.z, a.y_seg, a.z_seg)
        moved = evaluate_generator(gen, which, ctx, b.y, b.z, a.y_seg, a.z_seg)
        seg_moved = evaluate_generator(gen, which, ctx, a.y, a.z, b.y_seg, b.z_seg)
        if not all(np.all(np.isfinite(out)) for out in (base, moved, seg_moved)):
            emp_L = emp_K = float("inf")
            break
        step = np.linalg.norm(moved - base, axis=1)
        emp_L = max(emp_L, float(np.max(step[L_ok] / gap[L_ok], initial=0.0)))
        seg_gap = np.sum((seg_moved - base) ** 2, axis=1)
        emp_K = max(emp_K, float(np.max(seg_gap[K_ok] / den[K_ok], initial=0.0)))
    probe = LipschitzProbe(
        which=which, empirical_L=emp_L, empirical_K1=emp_K,
        declared_L=declared_L, declared_K1=declared_K,
        exceeds_L=emp_L > declared_L + 1e-9,
        exceeds_K1=emp_K > declared_K + 1e-9,
        n_samples=n)
    if probe.exceeds_L or probe.exceeds_K1:
        log.warning("declared constants for %s are too small: %s", which, probe)
    return probe


# ----------------------------------------------------------------- preflight

@dataclass(frozen=True)
class Preflight:
    """The pre-solve checks on one realized A: ``selection`` is None when no
    lambda contracts, ``failures`` maps each failed check to its message."""

    c: float
    h1: ConditionReport
    h2: ConditionReport
    selection: LambdaSelection | None
    probes: tuple
    failures: dict


def preflight(problem: ProblemSpec, ensemble: PathEnsemble,
              c: float | None = None) -> Preflight:
    """(H1) and (H2) at budget c (default effective_c), the lambda selection
    and the fixed-seed Lipschitz probes of F and G, failing as "H1", "H2",
    "lambda", "F" and "G": the conditions use the declared constants, so a
    declared constant below its probe makes them prove nothing."""
    c = effective_c(problem) if c is None else c
    h1, h2 = check_H1(problem, ensemble, c), check_H2(problem, ensemble, c)
    failures = {rep.name: f"smallness condition fails: {rep}"
                for rep in (h1, h2) if not rep.passed}
    selection = None
    try:
        selection = select_lambda(c, problem.beta, problem.L_tilde)
    except ConstraintViolationError as exc:
        failures["lambda"] = str(exc)
    probes = (probe_lipschitz(problem, "F"), probe_lipschitz(problem, "G"))
    for p in probes:
        if p.exceeds_L or p.exceeds_K1:
            failures[p.which] = (
                f"declared constants of {p.which} are below the empirical ones "
                f"(L={p.declared_L:.6g} vs {p.empirical_L:.6g}, K1={p.declared_K1:.6g} "
                f"vs {p.empirical_K1:.6g}), so the smallness conditions prove nothing")
    return Preflight(c=c, h1=h1, h2=h2, selection=selection, probes=probes,
                     failures=failures)


# ----------------------------------------------------------------- moments

@dataclass(frozen=True)
class MomentEstimate:
    value: float
    finite: bool
    heavy_tail: bool
    n: int


@dataclass(frozen=True)
class IntegrabilityReport:
    entries: dict
    p: float

    @property
    def all_finite(self) -> bool:
        return all(e.finite for e in self.entries.values())


def _moment(samples) -> MomentEstimate:
    samples = np.asarray(samples, dtype=float)
    finite = bool(np.all(np.isfinite(samples)))
    value = float(samples.mean()) if finite else float("inf")
    heavy = False
    if finite and samples.size >= 100 and value > 0:
        srt = np.sort(samples)[::-1]
        top = srt[: max(1, int(np.ceil(0.01 * samples.size)))]
        heavy = bool(top.sum() > 0.5 * samples.sum())
    return MomentEstimate(value=value, finite=finite, heavy_tail=heavy,
                          n=int(samples.size))


def check_integrability(problem: ProblemSpec, ensemble: PathEnsemble,
                        p: float = 2.0) -> IntegrabilityReport:
    """Monte Carlo moment estimates behind the standing assumptions, the
    exponential moments E e^{r A(T)} at r = 1, 2, 4 and 8 among them.

    Reports, per sample-mean entry, whether all samples were finite and
    whether the top 1% of samples carries more than half the estimate
    (a heavy-tail warning: the plain average is then untrustworthy).
    """
    grid = ensemble.grid
    A = stored_rows(ensemble.realized_A())
    n, nodes = ensemble.n_paths, grid.nodes
    xi = np.asarray(problem.xi(ensemble), dtype=float).reshape(n, -1)
    xi_sq = np.einsum("nm,nm->n", xi, xi, optimize=False)
    with np.errstate(over="ignore"):
        eA = np.exp(problem.beta * A)
        eAT = eA[:, -1]

    def squares_at_zero(gen, which):
        """|gen|^2 at zero arguments, (paths, nodes) laid out node-major so
        that each node writes one contiguous block; one zero row for an
        absent generator."""
        if gen is None:
            return np.zeros((1, nodes.size))
        vals = node_major_zeros((n, nodes.size))
        ksteps = grid.delta_index_offset
        zero_y = np.broadcast_to(0.0, (n, problem.m))  # read-only: every node gets them
        zero_z = np.broadcast_to(0.0, (n, problem.m, problem.d))
        zero_yseg = np.broadcast_to(0.0, (n, ksteps + 1, problem.m))
        zero_zseg = np.broadcast_to(0.0, (n, ksteps + 1, problem.m, problem.d))
        for i, t in enumerate(nodes):
            ctx = problem.context(grid, float(t), ensemble.W[:, i, :])
            out = evaluate_generator(gen, which, ctx, zero_y, zero_z, zero_yseg, zero_zseg,
                                     finite=True)
            vals[:, i] = np.einsum("nm,nm->n", out, out, optimize=False)
        return vals

    eA_steps, dA, dt = eA[:, :-1], np.diff(A, axis=1), grid.steps()[None, :]
    step = max(1, BLOCK_BYTES // (8 * dt.size))
    block = np.empty((min(step, n), dt.size))

    def integral(sq, d):
        """Per path, the sum over steps of e^{beta A} sq d, on blocks of
        paths copied to C order, so that each row is summed pairwise as a
        whole stack's would be; one row serves every path when e^{beta A}
        and sq store one."""
        stored = max(eA.shape[0], sq.shape[0])
        total = np.empty(stored)
        for lo in range(0, stored, step):
            hi = min(lo + step, stored)
            # a one-row stack serves every block
            e, x, dx = (a[lo:hi] if a.shape[0] > 1 else a for a in (eA_steps, sq[:, :-1], d))
            out = np.multiply(e, x, out=block[:hi - lo])
            out *= dx
            np.sum(out, axis=1, out=total[lo:hi])
        return total if stored == n else np.full(n, total[0])

    F0_sq = squares_at_zero(problem.F, "F")
    G0_sq = squares_at_zero(problem.G, "G")
    int_F = integral(F0_sq, dt)
    int_G_dA = integral(G0_sq, dA)
    int_G_dt = integral(G0_sq, dt)

    entries = {
        "A0": _moment(eAT * (1.0 + xi_sq)),
        "A1_F": _moment(int_F),
        "A1_G": _moment(int_G_dA),
        "A0p": _moment(eAT ** p * xi_sq ** p),
        "A1p_F": _moment(int_F ** p),
        "A1p_G": _moment(int_G_dt ** p),
        "A1sup_G": _moment(np.broadcast_to(np.max(G0_sq, axis=1), (n,)) ** p),
    }
    for r in (1.0, 2.0, 4.0, 8.0):
        with np.errstate(over="ignore"):
            entries[f"A0r_r{r:g}"] = _moment(np.exp(r * ensemble.A[:, -1]))
    for name, est in entries.items():
        if est.heavy_tail:
            log.warning("moment %s dominated by its top samples "
                        "(estimate %.3e unreliable)", name, est.value)
    return IntegrabilityReport(entries=entries, p=p)
