"""Perturbation experiments and convergence of coupled Stieltjes integrals.

Two instruments live here.  The stability runner solves a family of nearby
problems on one shared Brownian ensemble and relates the solution error to
the size of the input perturbation (terminal condition, drivers, integrator
process).  The integral-convergence checker follows sequences of coupled
integrands and integrators, tracking a truncated-expectation distance ladder,
a terminal two-sample statistic, and the variation-tightness precondition
that separates honest convergence from resonant counterexamples.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import ks_2samp, spearmanr

from .errors import ConstraintViolationError, FamilyInvalidError
from .model import (ProblemSpec, argument_clouds, effective_c, equivalent_norm,
                    evaluate_generator, weighted_norm)
# unused here (solve's preflight calls them); bench/tracing.py looks them up here
from .model import check_H1, check_H2  # noqa: F401
from .path_calculus import BLOCK_BYTES, TimeGrid, stored_rows
# unused here (the check keeps its own running sums); bench/tracing.py looks it up here
from .path_calculus import cumulative_stieltjes  # noqa: F401
from .picard_solver import FORCE_HINT, solve
from .stochastic_engine import (IncreasingProcessSpec, PathEnsemble,
                                RegressionBasis, RegressionPlan,
                                realize_increasing_process, simulate_brownian)

__all__ = [
    "PerturbationFamily",
    "oscillatory_A_family",
    "xi_shift_family",
    "generator_gap",
    "StabilityRow",
    "StabilityReport",
    "run_stability",
    "bv_tail_curve",
    "HellyBrayRow",
    "HellyBrayReport",
    "ShiftedPaths",
    "helly_bray_stochastic_check",
    "oscillatory_integration_family",
    "resonant_integration_family",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PerturbationFamily:
    """A reference problem and perturbed members, coarsest perturbation first."""

    base: ProblemSpec
    members: list
    labels: list | None = None
    p: float = 2.0

    def __post_init__(self):
        if not self.members:
            raise ValueError("family needs at least one member")
        for i, member in enumerate(self.members):
            for attr in ("T", "delta", "m", "d"):
                if getattr(member, attr) != getattr(self.base, attr):
                    raise ValueError(
                        f"member {i} differs from the base in {attr}")
        if self.labels is not None and len(self.labels) != len(self.members):
            raise ValueError("one label per member")

    def label_of(self, i: int) -> str:
        return str(self.labels[i]) if self.labels is not None else str(i)


def oscillatory_A_family(base: ProblemSpec, n_values) -> PerturbationFamily:
    """Members whose integrator gains a vanishing oscillation of order 1/n."""
    members = [replace(base, A_spec=IncreasingProcessSpec(
        "oscillatory", {"base": base.A_spec, "n": n}))
        for n in n_values]
    return PerturbationFamily(base=base, members=members, labels=list(n_values))


def xi_shift_family(base: ProblemSpec, shifts) -> PerturbationFamily:
    """Members with the terminal value shifted by a constant per member."""
    members = []
    for s in shifts:
        s = float(s)

        def xi(ensemble, _s=s, _base=base.xi):
            return np.asarray(_base(ensemble), dtype=float) + _s
        members.append(replace(base, xi=xi))
    return PerturbationFamily(base=base, members=members,
                              labels=[float(s) for s in shifts])


def generator_gap(gen_a, gen_b, problem: ProblemSpec, which: str = "F",
                  seed: int = 0) -> float:
    """sup |gen_a - gen_b| over 512 argument_clouds points in [-3, 3], inf at a non-finite value."""
    if which not in ("F", "G"):
        raise ValueError("which must be 'F' or 'G'")
    if gen_a is None and gen_b is None:
        return 0.0
    (cloud,) = argument_clouds(problem, 512, seed)
    args = (cloud.y, cloud.z, cloud.y_seg, cloud.z_seg)
    gap = 0.0
    for ctx in cloud.contexts:
        diff = evaluate_generator(gen_a, which, ctx, *args) \
            - evaluate_generator(gen_b, which, ctx, *args)
        if not np.all(np.isfinite(diff)):
            return float("inf")   # a NaN would drop out of the max below
        gap = max(gap, float(np.max(np.sqrt(np.sum(diff ** 2, axis=1)))))
    return gap


@dataclass(frozen=True)
class StabilityRow:
    label: str
    delta_xi: float
    delta_F: float
    delta_G: float
    sup_A_diff: float
    bv_H: float
    error: float
    norm_total: float

    @property
    def delta_total(self) -> float:
        return self.delta_xi + self.delta_F + self.delta_G + self.sup_A_diff


@dataclass(frozen=True)
class StabilityReport:
    rows: list
    spearman_rho: float
    trend_ok: bool
    final_ok: bool
    final_threshold: float

    @property
    def passed(self) -> bool:
        return self.trend_ok and self.final_ok

    def __str__(self):
        lines = [f"{'label':>8} {'d_xi':>10} {'d_F':>10} {'d_G':>10} "
                 f"{'sup|dA|':>10} {'BV(H)':>10} {'error':>12}"]
        for r in self.rows:
            lines.append(f"{r.label:>8} {r.delta_xi:10.3e} {r.delta_F:10.3e} "
                         f"{r.delta_G:10.3e} {r.sup_A_diff:10.3e} "
                         f"{r.bv_H:10.3e} {r.error:12.5e}")
        state = "PASS" if self.passed else "FAIL"
        lines.append(f"trend rho={self.spearman_rho:.3f} "
                     f"final<= {self.final_threshold:g}: {state}")
        return "\n".join(lines)


def run_stability(family: PerturbationFamily, *, n_paths: int = 2000,
                  n_steps: int = 50, seed: int = 0,
                  final_threshold: float = 1e-3, tol: float = 1e-8,
                  max_iter: int = 25, scheme: str = "explicit",
                  basis=None) -> StabilityReport:
    """Solve the base and every member on one Brownian ensemble and relate
    solution error to perturbation size.

    Every member must pass solve's preflight with the family's single
    budget c (taken from the base problem); a problem that solve refuses
    stops the run with FamilyInvalidError naming it.  The error per member is
    E sup_t |Y_n - Y|^2 + E int |Z_n - Z|^2 dt on coupled paths.  One
    RegressionPlan on ``basis`` (default RegressionBasis()) is built on the
    base ensemble and shared by every member it serves, those whose A is
    deterministic when the base's is, so its Gram matrices are built once
    for all of them; any other member gets its own plan.  solve refuses a
    tol that is not a number >= 0 with ValueError.
    """
    base = family.base
    grid = TimeGrid.uniform(base.T, n_steps, delta=base.delta)
    driving = simulate_brownian(grid, n_paths, d=base.d, seed=seed)
    c_family = effective_c(base)

    def solve_or_refuse(problem, ensemble, name):
        own = plan if plan.serves(ensemble) else RegressionPlan(plan.basis, ensemble)
        try:
            return solve(problem, ensemble, c=c_family, tol=tol,
                         max_iter=max_iter, scheme=scheme, plan=own)
        except ConstraintViolationError as exc:
            raise FamilyInvalidError(
                f"{name} fails: {str(exc).removesuffix(FORCE_HINT)}") from None

    def per_path(values):
        return np.ascontiguousarray(np.broadcast_to(values, (n_paths,)))

    ens_base = realize_increasing_process(base.A_spec, driving)
    plan = RegressionPlan(basis or RegressionBasis(), ens_base)
    sol_base = solve_or_refuse(base, ens_base, "base problem")
    xi_base = np.asarray(base.xi(ens_base), dtype=float).reshape(n_paths, -1)

    rows = []
    for i, member in enumerate(family.members):
        label = family.label_of(i)
        ens_n = realize_increasing_process(member.A_spec, driving)
        sol_n = solve_or_refuse(member, ens_n, f"member {i} (label {label})")

        xi_n = np.asarray(member.xi(ens_n), dtype=float).reshape(n_paths, -1)
        gap = xi_n - xi_base
        delta_xi = float(np.mean(np.sum(gap ** 2, axis=1) ** family.p))
        delta_F = generator_gap(member.F, base.F, base, which="F", seed=seed)
        delta_G = generator_gap(member.G, base.G, base, which="G", seed=seed)
        # H on the stored rows; per_path makes each mean add what it adds
        # over a full H
        H = stored_rows(ens_n.A) - stored_rows(ens_base.A)
        sup_A = float(np.mean(per_path(np.max(np.abs(H), axis=1))))
        bv_H = float(np.mean(per_path(np.sum(np.abs(np.diff(H, axis=1)), axis=1))))
        err = equivalent_norm(sol_n.Y - sol_base.Y, sol_n.Z - sol_base.Z,
                              ens_base.A, grid, alpha=0.0, beta=0.0,
                              a=0.0, b=1.0)
        sanity = weighted_norm(sol_n.Y, sol_n.Z, ens_n.A, grid,
                               p=family.p, beta=member.beta)
        rows.append(StabilityRow(
            label=label, delta_xi=delta_xi, delta_F=delta_F, delta_G=delta_G,
            sup_A_diff=sup_A, bv_H=bv_H, error=err.total,
            norm_total=sanity.total))

    deltas = np.array([r.delta_total for r in rows])
    errors = np.array([r.error for r in rows])
    degenerate = bool(np.all(deltas < 1e-14) or np.all(errors < 1e-14))
    if degenerate or len(rows) < 3:
        rho = float("nan")
        trend_ok = degenerate or bool(np.all(np.diff(errors) <= 0))
    else:
        res = spearmanr(deltas, errors)
        rho = float(getattr(res, "statistic", getattr(res, "correlation", np.nan)))
        trend_ok = bool(np.isnan(rho)) or rho >= 0.6
    final_ok = bool(errors[-1] <= final_threshold)
    report = StabilityReport(rows=rows, spearman_rho=rho, trend_ok=trend_ok,
                             final_ok=final_ok, final_threshold=final_threshold)
    if not report.passed:
        log.warning("stability verdict FAIL:\n%s", report)
    return report


# ------------------------------------------------- integral convergence

def bv_tail_curve(H_list, levels=(0.5, 1.0, 2.0, 4.0, 8.0)) -> dict:
    """For each level nu: worst-case P(variation of H_n > nu) over members;
    a broadcast H_n is differenced once, on its stored rows."""
    variations = []
    for H in H_list:
        H = stored_rows(np.atleast_2d(np.asarray(H, dtype=float)))
        variations.append(np.sum(np.abs(np.diff(H, axis=1)), axis=1))
    return {float(nu): max((float(np.mean(v > nu)) for v in variations), default=0.0)
            for nu in levels}


@dataclass(frozen=True)
class HellyBrayRow:
    label: str
    sup_distance: float
    phi: dict
    ks_statistic: float


@dataclass(frozen=True)
class HellyBrayReport:
    rows: list
    bv_tail: dict
    tight: bool
    decreasing: bool
    ks_final: float
    ks_threshold: float
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def __str__(self):
        lines = [f"{'label':>8} {'E sup|I_n - I|':>16} {'KS(T)':>8}"]
        for r in self.rows:
            lines.append(f"{r.label:>8} {r.sup_distance:16.6e} "
                         f"{r.ks_statistic:8.4f}")
        lines.append(f"variation tight: {self.tight}  verdict: {self.verdict}")
        return "\n".join(lines)


# Paths per tile of a node-major copy, so that a tile's strided reads stay in cache.
_TILE = 512


def _node_major_reader(chunk: int):
    """Reader (a, lo, hi) -> a[:, lo:hi].T for a stack of stored rows: a view
    of a single row, else a copy made in tiles of _TILE paths, once per
    distinct stack and node range, into one buffer of chunk + 1 nodes per
    stack."""
    copies = {}

    def read(a, lo: int, hi: int):
        if a.shape[0] == 1:
            return a[0, lo:hi, None]
        key = (a.__array_interface__["data"][0], a.shape, a.strides)
        out, at = copies.get(key, (None, None))
        if at != (lo, hi):
            if out is None:
                out = np.empty((chunk + 1, a.shape[0]))
            for p in range(0, a.shape[0], _TILE):
                out[:hi - lo, p:p + _TILE] = a[p:p + _TILE, lo:hi].T
            copies[key] = out, (lo, hi)
        return out[:hi - lo]

    return read


def helly_bray_stochastic_check(X_list, H_list, X_limit, H_limit,
                                grid: TimeGrid, *,
                                nu_ladder=(0.25, 0.5, 1.0, 2.0),
                                ks_threshold: float = 0.02,
                                bv_levels=(0.5, 1.0, 2.0, 4.0, 8.0),
                                labels=None) -> HellyBrayReport:
    """Convergence of coupled integrals int X_n dH_n toward int X dH.

    All processes are path stacks on one grid that broadcast against each
    other: arrays, or ShiftedPaths, which the check reads as its base plus
    its row.  The check streams over chunks of nodes: per chunk it reads each
    distinct integrand base node-major once, forms the left-point increments
    x dH of the limit and every member in one (nodes, stacks, paths) buffer
    of about BLOCK_BYTES, takes the running sums with one vector add per
    node, carried from chunk to chunk, and folds |I_n - I| into per-path
    sups.  Each path adds the same increments in the same order as
    path_calculus.cumulative_stieltjes, so the bits are those of whole-stack
    integrals; no member-sized stack is ever held, a broadcast integrator is
    differenced on its stored rows, and no input is written.
    Reports, per member, the coupled distance E sup_t |I_n(t) - I(t)|, its
    truncations E[min(sup..., nu)] over the ladder, and the two-sample
    terminal statistic.  The verdict is INCONCLUSIVE when no level of
    bv_levels bounds the variation of every member outside 1% of paths:
    without that tightness the distances may diverge even though integrands
    and integrators settle down pointwise.
    """
    if not (len(X_list) == len(H_list) >= 1):
        raise ValueError("need equally many integrands and integrators")
    n_nodes = grid.nodes.size

    def rows_of(arr):
        if np.ndim(arr) < 2:
            arr = np.atleast_2d(np.asarray(arr, dtype=float))
        if np.shape(arr)[-1] != n_nodes:
            raise ValueError("process does not live on the given grid")
        if np.shape(arr)[0] == 0:
            raise ValueError("process has no paths")
        return arr

    def paths_of(*stacks):
        return np.broadcast_shapes(*(np.shape(a)[:1] for a in stacks))[0]

    X_limit, H_limit = rows_of(X_limit), rows_of(H_limit)
    members = [(rows_of(X), rows_of(H)) for X, H in zip(X_list, H_list)]
    stacks = [(X_limit, H_limit)] + members
    n_paths = paths_of(*(a for pair in stacks for a in pair))
    chunk = max(1, BLOCK_BYTES // (8 * len(stacks) * n_paths))
    read = _node_major_reader(chunk)

    def increments(X, H):
        """Reader (lo, hi) -> the increments x dH of steps lo..hi-1, node-major."""
        base, row = (X.base, X.row[:, None]) if isinstance(X, ShiftedPaths) else (X, None)
        base, H = (stored_rows(np.asarray(a, dtype=float)) for a in (base, H))
        dH = np.diff(H[0])[:, None] if H.shape[0] == 1 else None

        def inc(lo, hi, out):
            x = read(base, lo, hi)
            if row is None:
                np.copyto(out, x)
            else:
                np.add(x, row[lo:hi], out=out)
            return np.multiply(out, dH[lo:hi] if dH is not None
                               else np.diff(read(H, lo, hi + 1), axis=0), out=out)
        return inc

    readers = [increments(X, H) for X, H in stacks]
    # run[j, s] holds stack s's running integrals at the chunk's j-th node,
    # node 0 carrying them over from the chunk before
    run = np.empty((chunk + 1, len(stacks), n_paths))
    sups = np.zeros((len(members), n_paths))
    for lo in range(0, n_nodes - 1, chunk):
        hi = min(lo + chunk, n_nodes - 1)
        n = hi - lo
        for s, inc in enumerate(readers):
            inc(lo, hi, run[1:n + 1, s])
        # the first increment is the first running sum as it is
        for j in range(2 if lo == 0 else 1, n + 1):
            np.add(run[j - 1], run[j], out=run[j])
        run[0] = run[n]
        gap = np.subtract(run[1:n + 1, 1:], run[1:n + 1, :1], out=run[1:n + 1, 1:])
        np.maximum(sups, np.max(np.abs(gap, out=gap), axis=0), out=sups)
    terminal_lim = run[0, 0, :paths_of(X_limit, H_limit)]
    terminals = [run[0, s, :paths_of(X, H)] for s, (X, H) in enumerate(members, 1)]
    path_sups = [sup[:paths_of(X, H, X_limit, H_limit)] for sup, (X, H) in zip(sups, members)]

    rows = []
    for j, (terminal, per_path_sup) in enumerate(zip(terminals, path_sups)):
        phi = {float(nu): float(np.mean(np.minimum(per_path_sup, nu)))
               for nu in nu_ladder}
        ks = float(ks_2samp(terminal, terminal_lim, method="asymp").statistic) \
            if terminal.size > 1 else float(abs(terminal[0] - terminal_lim[0]))
        label = str(labels[j]) if labels is not None else str(j)
        rows.append(HellyBrayRow(label=label,
                                 sup_distance=float(np.mean(per_path_sup)),
                                 phi=phi, ks_statistic=ks))

    tail = bv_tail_curve(H_list, levels=bv_levels)
    tight = any(v <= 0.01 for v in tail.values())
    sups = np.array([r.sup_distance for r in rows])
    decreasing = bool(np.all(np.diff(sups) < 0.0)) if len(rows) >= 2 else True
    ks_final = rows[-1].ks_statistic
    if not tight:
        verdict = "INCONCLUSIVE"
    elif decreasing and ks_final <= ks_threshold:
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return HellyBrayReport(rows=rows, bv_tail=tail, tight=tight,
                           decreasing=decreasing, ks_final=ks_final,
                           ks_threshold=ks_threshold, verdict=verdict)


class ShiftedPaths:
    """The path stack base + row, formed only where it is read.

    Stores the shared (n_paths, n_nodes) base and one node row.  Supports
    ``shape``/``ndim``, row slicing (``X[rows]`` is the fresh array
    ``base[rows] + row``), and ``np.asarray(X)``/``X.copy()``, which build
    the whole stack.  helly_bray_stochastic_check slices none of these: it
    reads ``base`` node-major, once per chunk of nodes for every stack that
    shares it, and adds ``row`` there.
    """

    __slots__ = ("base", "row")

    def __init__(self, base: np.ndarray, row: np.ndarray):
        self.base = base
        self.row = row

    @property
    def shape(self) -> tuple:
        return self.base.shape

    @property
    def ndim(self) -> int:
        return self.base.ndim

    def __getitem__(self, rows):
        return self.base[rows] + self.row

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self[:], dtype=dtype)

    def copy(self) -> np.ndarray:
        return self[:]


def oscillatory_integration_family(ensemble: PathEnsemble, n_values):
    """Coupled family X_n = W + p_n, H_n = t + p_n with the common vanishing
    oscillation p_n(t) = T sin(2 pi n t / T) / (4 pi n); limits (W, t), W
    the first Brownian component.  Each member stores one row: X_n is a
    ShiftedPaths over the shared W, H_n a broadcast row."""
    grid = ensemble.grid
    t = grid.nodes
    T = grid.T
    W = ensemble.W[:, :, 0]
    X_list, H_list = [], []
    for n in n_values:
        p = T * np.sin(2 * np.pi * int(n) * t / T) / (4 * np.pi * int(n))
        X_list.append(ShiftedPaths(W, p))
        H_list.append(np.broadcast_to(t + p, W.shape))
    return X_list, H_list, W, np.broadcast_to(t, W.shape)


def resonant_integration_family(ensemble: PathEnsemble, n_values):
    """Counterexample family: H_n = sin(2 pi n^2 t)/(4 pi n) vanishes
    uniformly but with variation of order n, and X_n = W + cos(2 pi n^2 t)/
    sqrt(n) rides the resonance, W the first Brownian component; the coupled
    integrals do not converge.  Each member stores one row: X_n is a
    ShiftedPaths over the shared W, H_n a broadcast row.

    A member with 2 n^2 T >= n_steps has no more steps than half-periods, so
    the grid aliases it (on 512 steps over [0, 1], n = 16 samples sin(pi j),
    zero at every node) and its grid variation is meaningless; such members
    are named in a WARNING with the step count each needs."""
    grid = ensemble.grid
    t = grid.nodes
    n_steps = t.size - 1
    W = ensemble.W[:, :, 0]
    n_values = [int(n) for n in n_values]
    aliased = [f"n={n} needs at least {math.floor(2 * n * n * grid.T) + 1} steps"
               for n in n_values if 2 * n * n * grid.T >= n_steps]
    if aliased:
        log.warning("resonant members alias on %d steps (2 n^2 T >= n_steps): %s",
                    n_steps, ", ".join(aliased))
    X_list, H_list = [], []
    for n in n_values:
        H = np.sin(2 * np.pi * n * n * t) / (4 * np.pi * n)
        X_list.append(ShiftedPaths(W, np.cos(2 * np.pi * n * n * t) / np.sqrt(n)))
        H_list.append(np.broadcast_to(H, W.shape))
    return X_list, H_list, W, np.broadcast_to(np.zeros_like(t), W.shape)
