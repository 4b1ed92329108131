"""Problem data, the squared weighted norm and well-posedness arithmetic.

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

from .errors import (ConstraintViolationError, GeneratorEvaluationError,
                     NumericOverflowError)
from .path_calculus import (BLOCK_BYTES, TimeGrid, delay_fits_horizon, is_integer,
                            is_number, node_major_zeros, stored_rows)
from .stochastic_engine import IncreasingProcessSpec, PathEnsemble, omega_delta

__all__ = [
    "AtomMeasure",
    "ProblemSpec",
    "GenContext",
    "NormReport",
    "ConditionReport",
    "LambdaSelection",
    "segment_integral",
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
    L_tilde > 0, 0 < delta <= T, a given c > 0 and each entry >= 0 of a K or
    K_tilde not callable must be numbers (is_number: finite); these,
    an A or terminal (``component``) reading a component of W that d lacks,
    or a terminal whose declared ``width`` is not m, raise ValueError.
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
        width = getattr(self.xi, "width", self.m)
        if width != self.m:
            raise ValueError(f"the terminal has {width} column(s), so needs m = {width}, "
                             f"got m={self.m}")
        if self.c is not None and not (is_number(self.c) and self.c > 0):
            raise ValueError(f"c must be a positive number when given, got {self.c!r}")
        for name in ("K", "K_tilde"):
            bound = getattr(self, name)
            if not callable(bound) and not all(is_number(v) and v >= 0
                                               for v in np.ravel(bound).tolist()):
                raise ValueError(f"kernel bound {name} must hold numbers >= 0, got {bound!r}")
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

    def terminal(self, ensemble: PathEnsemble) -> np.ndarray:
        """xi on the ensemble as (n_paths, m) floats; any other shape raises
        GeneratorEvaluationError naming both.  A registry terminal's width
        is checked at construction; this check serves hand-written ones."""
        xi, want = np.asarray(self.xi(ensemble), dtype=float), (ensemble.n_paths, self.m)
        if xi.shape != want:
            raise GeneratorEvaluationError(f"the terminal has shape {xi.shape}, but the "
                                           f"problem needs {want} (n_paths, m)")
        return xi


# ----------------------------------------------------------------- norms

@dataclass(frozen=True)
class NormReport:
    """Terms of the squared weighted norm of (Y, Z), added up as ``total``."""

    sup_term: float
    dA_term: float
    dt_term: float
    beta: float
    alpha: float = 0.0
    a: float = 1.0
    b: float = 1.0

    @property
    def total(self) -> float:
        return self.sup_term + self.a * self.dA_term + self.b * self.dt_term


def norm_weights(A, grid: TimeGrid, alpha: float, beta: float):
    """(w, dA) of A as (rows, n_nodes): the weights e^{alpha t + beta A(t)},
    (rows, n_nodes), and the increments of A, (rows, n_steps), on the rows A
    stores (path_calculus.stored_rows) and in A's memory layout.  Both depend on A
    alone, so a caller taking many norms builds them once.  An A of any other
    shape raises ValueError naming it."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != grid.nodes.size:
        raise ValueError(f"A must be (rows, {grid.nodes.size}) on the grid's nodes, "
                         f"got shape {A.shape}")
    A = stored_rows(A)
    with np.errstate(over="ignore"):
        w = np.multiply(beta, A)
        w += alpha * grid.nodes
        np.exp(w, out=w)
    # w > 0, so an overflow or a NaN in A shows in the maximum
    if not np.isfinite(w.max()):
        raise NumericOverflowError(
            "exp(alpha t + beta A) overflowed; beta * A(T) is too large")
    return w, np.subtract(A[:, 1:], A[:, :-1])


def _walk_terms(Y, U, Z, V, w, dA, dt):
    """Per-path (sup w|Y - U|^2, sum w|Y - U|^2 dA, sum w|Z - V|^2 dt), U and
    V may be None, by one forward walk over slabs of nodes, each at most
    BLOCK_BYTES of scratch and an eighth of the nodes: |.|^2 (components
    added in index order) and its w, dA and dt products are whole-slab ufuncs
    into one scratch (products commute exactly), the sup is one max over the
    slab's nodes, and each sum adds the slab's node rows one at a time in
    node order, so the bits do not depend on the stacks' layout or the slab."""
    n, n_nodes = Y.shape[:2]
    width = max(Y[0, 0].size, Z[0, 0].size)
    size = max(1, min(BLOCK_BYTES // (8 * n * width), n_nodes // 8))
    scratch = np.empty(size * n * width)
    top, y_int, z_int = np.full(n, -np.inf), np.zeros(n), np.zeros(n)

    def slab_sq(X, U, lo, hi):  # |X_i - U_i|^2 at nodes lo .. hi - 1, as (hi - lo, n)
        x = X.swapaxes(0, 1)[lo:hi].reshape(hi - lo, n, -1)
        e = scratch[:x.size].reshape(x.shape)
        if U is not None:
            x = np.subtract(x, U.swapaxes(0, 1)[lo:hi].reshape(x.shape), out=e)
        sq = np.square(x, out=e)[..., 0]
        for j in range(1, e.shape[2]):
            sq += e[..., j]
        return sq

    for lo in range(0, n_nodes, size):
        hi = min(lo + size, n_nodes)
        end = min(hi, n_nodes - 1)  # the integrals stop before the terminal node
        sq = slab_sq(Y, U, lo, hi)
        sq *= w.T[lo:hi]
        np.maximum(top, sq.max(axis=0), out=top)
        if end == lo:
            break
        sq = sq[:end - lo]
        sq *= dA.T[lo:end]
        for row in sq:
            y_int += row
        sq = slab_sq(Z, V, lo, end)
        sq *= w.T[lo:end]
        sq *= dt[lo:end, None]
        for row in sq:
            z_int += row
    return top, y_int, z_int


def equivalent_norm(Y, Z, A, grid: TimeGrid, alpha: float, beta: float,
                    a: float, b: float, *, weights=None, minus=None) -> NormReport:
    """Squared weighted norm of (Y, Z) with weights w = e^{alpha t + beta A(t)}:

    E sup w|Y|^2 + a E int w|Y|^2 dA + b E int w|Z|^2 dt,

    by left-point sums, so the terminal node never enters the integrals.
    alpha = 0 and a = b = 1 give the solution norm; the solver's contraction
    norm takes its lambda selection's a and b.  ``weights`` may pass
    norm_weights(A, grid, alpha, beta) built once for many norms against the
    same A.  Y and Z are whole stacks, (n, n_nodes, m) and (n, n_nodes, m, d);
    ``minus`` = (U, V), stacks of the same shapes, either of which may be
    None, measures Y - U and Z - V instead.  The stacks must hold one number
    of paths n > 0 on the grid's nodes, and the weights (A's stored rows) one
    row or n; anything else raises ValueError naming the shapes, and a total
    that is not finite raises NumericOverflowError.

    The per-path terms come from one walk over slabs of nodes (_walk_terms),
    which forms no temporary the size of a stack and adds in node order
    whatever the layout or slab, so a norm's bits do not depend on the
    layout of its inputs.  On node-major stacks, those of every ensemble and
    solution, each slab it reads is one contiguous block."""
    w, dA = norm_weights(A, grid, alpha, beta) if weights is None else weights
    n_nodes = grid.nodes.size
    U, V = (None, None) if minus is None else minus
    stacks = {name: X for name, X in zip("YUZV", (Y, U, Z, V)) if X is not None}
    # whole stacks on the grid's nodes, of one path count n > 0 that A shares unless one row
    whole = {"Y", "Z"} <= stacks.keys() and all(
        X.ndim == (3 if name in "YU" else 4) and X.shape[0] > 0 and X.shape[1] == n_nodes
        for name, X in stacks.items())
    if not whole or len({X.shape[0] for X in stacks.values()} | ({w.shape[0]} - {1})) > 1:
        shapes = ", ".join(f"{name} {X.shape}" for name, X in stacks.items())
        raise ValueError(f"the norm needs Y (n, {n_nodes}, m) and Z (n, {n_nodes}, m, d), U and "
                         f"V as Y and Z when given, of one path count n > 0 and A of one row or "
                         f"that many: {shapes}, A rows {w.shape[0]}")
    top, y_int, z_int = _walk_terms(Y, U, Z, V, w, dA, grid.steps())
    report = NormReport(sup_term=float(np.mean(top)), dA_term=float(np.mean(y_int)),
                        dt_term=float(np.mean(z_int)), beta=beta, alpha=alpha, a=a, b=b)
    if not np.isfinite(report.total):
        raise NumericOverflowError("weighted norm is not finite")
    return report


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
    return float(np.max(np.asarray(K, dtype=float)))


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


# the constant of the Burkholder-Davis-Gundy bound in mu_lambda
BDG_CONSTANT = 144.0


@dataclass(frozen=True)
class LambdaSelection:
    lam: float
    mu_lambda: float
    a: float
    b: float


def mu_lambda(lam: float, c: float, beta: float, L_tilde: float) -> float:
    """max{c(2+lam), 8 Lt^2 (2+lam)/(lam beta^2), 2c(2+lam)/(lam - 2 BDG_CONSTANT)}."""
    lam = np.asarray(lam, dtype=float)
    out = np.maximum.reduce([
        c * (2.0 + lam),
        8.0 * L_tilde ** 2 * (2.0 + lam) / (lam * beta ** 2),
        2.0 * c * (2.0 + lam) / (lam - 2.0 * BDG_CONSTANT),
    ])
    return float(out) if out.ndim == 0 else out


def select_lambda(c: float, beta: float, L_tilde: float) -> LambdaSelection:
    """Pick lambda minimizing mu_lambda on a 200-point log scan.

    Requires 0 < c < c_threshold(beta, L_tilde); the returned factor is
    below one there in exact arithmetic.  Below about 3e-308, 1/(2c)
    overflows and the scan reads NaN, which is refused like a factor of one
    or more.  The norm weights are a = lam beta/2 and b = lam/2 - BDG_CONSTANT.
    """
    admissible, threshold = c_admissible(c, beta, L_tilde)
    if not admissible:
        raise ConstraintViolationError(
            f"c={c} leaves no contraction margin (needs 0 < c < {threshold:.6g})")
    lo = 2.0 * BDG_CONSTANT * (1.0 + 1e-6)
    with np.errstate(over="ignore", invalid="ignore"):
        hi = 10.0 * max(2.0 * BDG_CONSTANT, 1.0 / (2.0 * c) - 2.0)
        lams = np.geomspace(lo, hi, 200)
        mus = mu_lambda(lams, c, beta, L_tilde)
    j = int(np.argmin(mus))
    lam, mu = float(lams[j]), float(mus[j])
    if not mu < 1.0:
        raise ConstraintViolationError(
            f"no scanned lambda contracts (best mu={mu:.4f}); "
            "beta or c are too close to their limits")
    return LambdaSelection(lam=lam, mu_lambda=mu, a=lam * beta / 2.0,
                           b=lam / 2.0 - BDG_CONSTANT)


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
    """``count`` clouds of n_samples uniform points in the box [-3, 3] on the
    8-step theta grid: disjoint column blocks of one draw from the Philox
    stream keyed by the seed, built as simulate_brownian builds its stream.
    The arrays, fed to many generator calls, are read-only."""
    m, d, k = problem.m, problem.d, 8
    theta, rho, rho_tilde = problem.delay_weights(k)
    widths = [d, m, m * d, m, m, m * d, m * d]
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    u = 3.0 * (2.0 * rng.random((n_samples, count * sum(widths))) - 1.0)
    clouds = []
    for block in np.split(u, count, axis=1):
        w, y, z, y_end, y_slope, z_end, z_slope = np.split(
            block, np.cumsum(widths)[:-1], axis=1)
        # linear-in-theta profiles with the endpoint value at theta = 0
        y_seg = y_end[:, None, :] + y_slope[:, None, :] * theta[None, :, None]
        z_seg = (z_end[:, None, :] + z_slope[:, None, :]
                 * theta[None, :, None]).reshape(n_samples, k + 1, m, d)
        z = z.reshape(n_samples, m, d)
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
    registry's builders set and a hand-written generator may set;
    GENERATOR_ARGUMENTS for a generator without one, and none for an absent
    generator."""
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
    if finite and not np.isfinite(out).all():
        raise GeneratorEvaluationError(f"{which} returned a non-finite value at t={ctx.t:.6g}")
    return out


PROBE_SAMPLES = 2048


def probe_lipschitz(problem: ProblemSpec, which: str = "F", seed: int = 0) -> LipschitzProbe:
    """Empirical Lipschitz/kernel constants from seeded uniform points.

    Pairs two argument clouds of PROBE_SAMPLES points in the box [-3, 3]
    (see argument_clouds): moving only (y, z) gives the pointwise
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
        return LipschitzProbe(which, 0.0, 0.0, declared_L, declared_K, False, False)

    a, b = argument_clouds(problem, PROBE_SAMPLES, seed, count=2)
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
        exceeds_K1=emp_K > declared_K + 1e-9)
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


def preflight(problem: ProblemSpec, ensemble: PathEnsemble) -> Preflight:
    """(H1) and (H2) at the problem's own budget c (effective_c), the lambda
    selection and the fixed-seed Lipschitz probes of F and G, failing as
    "H1", "H2", "lambda", "F" and "G": the conditions use the declared
    constants, so a declared constant below its probe makes them prove
    nothing."""
    c = effective_c(problem)
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


@dataclass(frozen=True)
class IntegrabilityReport:
    entries: dict

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
    return MomentEstimate(value=value, finite=finite, heavy_tail=heavy)


def check_integrability(problem: ProblemSpec, ensemble: PathEnsemble) -> IntegrabilityReport:
    """Monte Carlo moment estimates behind the standing assumptions, the
    exponential moments E e^{r A(T)} at r = 1, 2, 4 and 8 among them.

    Reports, per sample-mean entry, whether all samples were finite and
    whether the top 1% of samples carries more than half the estimate
    (a heavy-tail warning: the plain average is then untrustworthy).  The
    "p" entries are the squares of their samples' terms (power p = 2).  Each
    integral adds each path's terms in node order, as the norm does, and a
    one-row operand (a deterministic A, an absent generator) broadcasts.
    """
    grid = ensemble.grid
    A = stored_rows(ensemble.realized_A())
    n, nodes = ensemble.n_paths, grid.nodes
    xi = problem.terminal(ensemble)
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

    def integral(sq, d):
        """Per path, the sum over steps of e^{beta A} sq d, by one einsum."""
        return np.broadcast_to(
            np.einsum("ni,ni,ni->n", eA_steps, sq[:, :-1], d, optimize=False), (n,))

    F0_sq = squares_at_zero(problem.F, "F")
    G0_sq = squares_at_zero(problem.G, "G")
    int_F = integral(F0_sq, dt)
    int_G_dA = integral(G0_sq, dA)
    int_G_dt = integral(G0_sq, dt)

    entries = {
        "A0": _moment(eAT * (1.0 + xi_sq)),
        "A1_F": _moment(int_F),
        "A1_G": _moment(int_G_dA),
        "A0p": _moment(eAT ** 2.0 * xi_sq ** 2.0),
        "A1p_F": _moment(int_F ** 2.0),
        "A1p_G": _moment(int_G_dt ** 2.0),
        "A1sup_G": _moment(np.broadcast_to(np.max(G0_sq, axis=1), (n,)) ** 2.0),
    }
    for r in (1.0, 2.0, 4.0, 8.0):
        with np.errstate(over="ignore"):
            entries[f"A0r_r{r:g}"] = _moment(np.exp(r * ensemble.A[:, -1]))
    for name, est in entries.items():
        if est.heavy_tail:
            log.warning("moment %s dominated by its top samples "
                        "(estimate %.3e unreliable)", name, est.value)
    return IntegrabilityReport(entries=entries)
