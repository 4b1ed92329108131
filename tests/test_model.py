"""Norms, smallness conditions and probes against hand-computed values.

Oracle notes (derived before the implementations were trusted):

* threshold for c at beta=4, L_tilde=1: min{(16-8)/64, 1/584} = 1/584
* at beta=2.8285, L_tilde=1: (8.00041225-8)/(4*8.00041225) = 1.2881e-5
* (H1) with K1=1e-3, T=1, L=1, delta=0.1, beta=4, A=t:
  alpha = 8.5, omega_delta = 0.1, LHS = 1e-3*exp(0.85+0.4)/4 = 2.5e-4*e^1.25
* (H2) with Kt1=1e-3, A(T)=1: LHS = 4e-3*exp(1.25)/4 = 1e-3*e^1.25 = 3.49e-3,
  which exceeds 1/584: the check must fail.
* mu at lambda=300, c=1e-3, beta=4, L_tilde=1, bdg=144:
  max{0.302, 2416/4800, 0.604/12} = 2416/4800 = 0.50333...
* equivalent norm of dY=1, dZ=0 with alpha=0, beta=1, a=2, b=1, A=t on [0,1]:
  e + 2(e-1) = 3e-2 = 6.15484548...
* solution norm terms (alpha=0, a=b=1) of Y=1, Z=1, beta=1, A=t: sup e, both
  integrals e-1.
"""

import importlib.util
import pathlib
import re
import sys
import tracemalloc

import numpy as np
import pytest

from delaybsde import model, registry, stability_lab
from delaybsde.errors import (BlowupError, ConfigError, ConstraintViolationError,
                              GeneratorEvaluationError, NumericOverflowError)
from delaybsde.model import (AtomMeasure, ProblemSpec, c_threshold, check_H1,
                             check_H2, check_integrability, effective_c,
                             equivalent_norm, mu_lambda, norm_weights,
                             probe_lipschitz, segment_integral, select_lambda)
from delaybsde.path_calculus import TimeGrid, stored_rows
from delaybsde.stochastic_engine import (IncreasingProcessSpec, PathEnsemble,
                                         omega_delta, realize_increasing_process,
                                         simulate_brownian)

from layouts import is_node_major, node_major

E = float(np.e)


# ------------------------------------------------------------------ oracles

def equivalent_norm_bruteforce(dY, dZ, A, nodes, alpha, beta):
    """Per-path python loops over nodes; left-point sums."""
    sup_vals, da_vals, dt_vals = [], [], []
    for path in range(dY.shape[0]):
        best, acc_a, acc_t = 0.0, 0.0, 0.0
        for i in range(len(nodes)):
            w = np.exp(alpha * nodes[i] + beta * A[path, i])
            ysq = float(np.sum(np.asarray(dY[path, i]) ** 2))
            best = max(best, w * ysq)
            if i < len(nodes) - 1:
                acc_a += w * ysq * (A[path, i + 1] - A[path, i])
                acc_t += w * float(np.sum(np.asarray(dZ[path, i]) ** 2)) \
                    * (nodes[i + 1] - nodes[i])
        sup_vals.append(best)
        da_vals.append(acc_a)
        dt_vals.append(acc_t)
    return (float(np.mean(sup_vals)), float(np.mean(da_vals)),
            float(np.mean(dt_vals)))


def linear_A_ensemble(n_paths=4, n_steps=50, T=1.0, delta=0.1, seed=0):
    grid = TimeGrid.uniform(T, n_steps, delta=delta)
    ens = simulate_brownian(grid, n_paths, seed=seed)
    spec = IncreasingProcessSpec("deterministic", {"shape": "identity"})
    return realize_increasing_process(spec, ens)


def base_problem(**overrides):
    fields = dict(
        T=1.0, delta=0.1,
        xi=registry.build_terminal({"name": "constant", "params": {"value": 0.0}}),
        A_spec=IncreasingProcessSpec("deterministic", {"shape": "identity"}),
        beta=4.0, L=1.0, L_tilde=1.0, K=0.001, K_tilde=0.001,
    )
    fields.update(overrides)
    return ProblemSpec(**fields)


def base_config(**overrides):
    """The problem section of base_problem, for problem_from_dict."""
    return {"T": 1.0, "delta": 0.1, "beta": 4.0, "L": 1.0, "L_tilde": 1.0,
            "K": 0.001, "K_tilde": 0.001,
            "terminal": {"name": "constant", "params": {"value": 0.0}},
            "A": {"kind": "deterministic", "params": {"shape": "identity"}}, **overrides}


@pytest.mark.parametrize("overrides", [
    {"m": 1.7}, {"d": 1.5}, {"m": 0}, {"d": True}, {"m": "1"},
    {"d": 1, "A_spec": IncreasingProcessSpec("running_max", {"component": 1})},
])
def test_problem_refuses_non_integer_dimensions(overrides):
    with pytest.raises(ValueError, match="need integers m >= 1 and d >= 1|needs d > 1"):
        base_problem(**overrides)


@pytest.mark.parametrize("key", ["T", "delta", "beta", "L", "L_tilde"])
@pytest.mark.parametrize("value", ["0.1", True])
def test_problem_refuses_a_string_or_bool_for_a_number(key, value):
    # a bool passed as T, beta, L or L_tilde would read as 1, and so would
    # delta = True on T = 1; a string used to end in a TypeError
    rule = "satisfy 0 < delta <= T" if key == "delta" else "be a positive number"
    with pytest.raises(ValueError, match=f"^{key} must {rule}, got {value!r}$"):
        base_problem(**{key: value})
    with pytest.raises(ConfigError, match=f"^problem: {key} must"):
        registry.problem_from_dict(base_config(**{key: value}))


def test_problem_keeps_its_numbers_as_floats():
    problem = base_problem(T=1, delta=np.float64(0.1), beta=4, L=1, L_tilde=1)
    assert all(type(getattr(problem, key)) is float
               for key in ("T", "delta", "beta", "L", "L_tilde"))


@pytest.mark.parametrize("component", [0.7, -1, "1"])
def test_brownian_terminal_refuses_a_non_integer_component(component):
    # int() would turn 0.7 into component 0
    with pytest.raises(ValueError, match="integer component >= 0"):
        registry.build_terminal({"name": "brownian", "params": {"component": component}})


def test_problem_refuses_a_terminal_component_beyond_d():
    xi = registry.build_terminal({"name": "brownian", "params": {"component": 1}})
    with pytest.raises(ValueError, match="terminal reads component 1 of W.T., so needs d > 1"):
        base_problem(xi=xi)
    problem = base_problem(xi=xi, d=2)
    grid = TimeGrid.uniform(1.0, 10, delta=problem.delta)
    ens = simulate_brownian(grid, 50, d=2, seed=1)
    assert np.array_equal(problem.xi(ens), ens.W[:, -1, 1:2])


def two_columns(params):
    """A registry terminal builder of width 2: W(T) of a 2-d ensemble."""
    def xi(ensemble):
        return ensemble.W[:, -1, :2]
    xi.width = 2
    return xi


def test_problem_refuses_a_terminal_of_another_width(monkeypatch):
    # every registry terminal declares its width, so m is checked with d,
    # before any terminal is read
    for name in ("constant", "brownian", "process_total"):
        xi = registry.build_terminal({"name": name, "params": {}})
        assert xi.width == 1
        with pytest.raises(ValueError,
                           match=r"^the terminal has 1 column\(s\), so needs m = 1, got m=2$"):
            base_problem(xi=xi, m=2, d=2)
    monkeypatch.setitem(registry._TERMINALS, "two_columns", two_columns)
    pair = registry.build_terminal({"name": "two_columns", "params": {}})
    with pytest.raises(ValueError, match="has 2 column.*needs m = 2, got m=1$"):
        base_problem(xi=pair, d=2)
    assert base_problem(xi=pair, m=2, d=2).m == 2
    # a hand-written terminal declares no width, so ProblemSpec.terminal checks it
    assert base_problem(xi=both_components, m=1, d=2).m == 1


def test_problem_from_dict_keeps_m_and_d_as_given(monkeypatch):
    # at m = 1.7 problem_from_dict would build m = 1
    monkeypatch.setitem(registry._TERMINALS, "two_columns", two_columns)
    config = base_config(m=2, d=2, terminal={"name": "two_columns", "params": {}})
    assert (registry.problem_from_dict(config).m, registry.problem_from_dict(config).d) == (2, 2)
    with pytest.raises(ConfigError, match="m=1.7"):
        registry.problem_from_dict({**config, "m": 1.7})


# ------------------------------------------------------------- atom measures

def test_atom_measure_validation():
    with pytest.raises(ValueError):
        AtomMeasure(np.array([-0.1, 0.0]), np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        AtomMeasure(np.array([-0.1, 0.0]), np.array([-0.5, 1.5]))
    with pytest.raises(ValueError):
        AtomMeasure(np.array([0.1]), np.array([1.0]))


def test_atom_measure_projection():
    dirac = AtomMeasure.dirac(-0.1)
    w = dirac.project(0.1, 5)
    assert w.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    unif = AtomMeasure.uniform(0.1, 3)
    w = unif.project(0.1, 2)
    assert np.allclose(w, [1 / 3, 1 / 3, 1 / 3])
    # off-grid atom snaps to the nearest theta node
    off = AtomMeasure.dirac(-0.033)
    w = off.project(0.1, 10)
    assert w[7] == 1.0 and w.sum() == 1.0
    with pytest.raises(ValueError):
        AtomMeasure.dirac(-0.5).project(0.1, 5)


@pytest.mark.parametrize("theta", [-0.5, -0.1 - 1e-11])
def test_problem_and_projection_refuse_an_atom_with_one_message(theta):
    atom = AtomMeasure.dirac(theta)
    messages = []
    for refuse in (lambda: base_problem(rho=atom), lambda: base_problem(rho_tilde=atom),
                   lambda: atom.project(0.1, 5)):
        with pytest.raises(ValueError) as info:
            refuse()
        messages.append(str(info.value))
    assert messages == ["delay measure atom outside [-delta, 0]"] * 3
    # within the rule's 1e-12 slack, both take it
    inside = AtomMeasure.dirac(-0.1 - 1e-13)
    assert base_problem(rho=inside).rho is inside
    assert inside.project(0.1, 5)[0] == 1.0


def test_segment_integral_matches_loop():
    rng = np.random.default_rng(3)
    seg = rng.normal(size=(6, 4, 2))
    w = np.array([0.1, 0.2, 0.3, 0.4])
    manual = sum(w[j] * seg[:, j, :] for j in range(4))
    assert np.allclose(segment_integral(seg, w), manual, atol=1e-14)


@pytest.mark.parametrize("atoms", ["three", "uniform"])
def test_segment_integral_bits_ignore_memory_layout(atoms):
    # one path stack in the public C layout and laid out node-major, as the
    # solver's sweep holds it: every window must reduce to the same bits
    n, n_nodes, k = 2500, 101, 50
    X = np.random.default_rng(11).normal(size=(n, n_nodes, 1))
    X_node_major = node_major(X)
    if atoms == "three":
        w = np.zeros(k + 1)
        w[[0, k // 2, k]] = 1.0 / 3.0
    else:
        w = np.full(k + 1, 1.0 / (k + 1))
    for i in range(k, n_nodes):
        assert np.array_equal(segment_integral(X_node_major[:, i - k:i + 1], w),
                              segment_integral(X[:, i - k:i + 1], w))


# -------------------------------------------------------------------- norms

def test_weighted_norm_closed_form():
    grid = TimeGrid.uniform(1.0, 2000)
    n = grid.nodes.size
    Y = np.ones((1, n, 1))
    Z = np.ones((1, n, 1, 1))
    A = grid.nodes[None, :].copy()
    rep = equivalent_norm(Y, Z, A, grid, alpha=0.0, beta=1.0, a=1.0, b=1.0)
    assert rep.sup_term == pytest.approx(E, rel=1e-12)
    assert rep.dA_term == pytest.approx(E - 1.0, abs=1e-3)
    assert rep.dt_term == pytest.approx(E - 1.0, abs=1e-3)
    assert rep.total == pytest.approx(rep.sup_term + rep.dA_term + rep.dt_term)


@pytest.mark.parametrize("rows", [3, 1])
def test_weighted_norm_matches_bruteforce(rows):
    # A with a row per path, and one row that every path shares
    rng = np.random.default_rng(11)
    nodes = np.array([0.0, 0.1, 0.25, 0.3, 0.55, 0.7, 0.9, 1.0])
    grid = TimeGrid(nodes)
    Y = rng.normal(size=(3, 8, 2))
    Z = rng.normal(size=(3, 8, 2, 2))
    A = np.concatenate([np.zeros((rows, 1)),
                        np.cumsum(rng.uniform(0, 0.3, size=(rows, 7)), axis=1)], axis=1)
    rep = equivalent_norm(Y, Z, A, grid, alpha=0.0, beta=0.7, a=1.0, b=1.0)
    sup, da, dt = equivalent_norm_bruteforce(Y, Z, np.broadcast_to(A, (3, 8)), nodes,
                                             0.0, 0.7)
    assert rep.sup_term == pytest.approx(sup, rel=1e-12)
    assert rep.dA_term == pytest.approx(da, rel=1e-12)
    assert rep.dt_term == pytest.approx(dt, rel=1e-12)


@pytest.mark.parametrize("alpha, beta", [(1.0, 0.0), (0.0, 1.0)])
def test_equivalent_norm_of_Z_alone_closed_form(alpha, beta):
    # Z = 1, A = t: the weight e^t from either alpha or beta, so the dt term
    # is int_0^1 e^t dt = e - 1 by left sums (below it by under h(e-1)/2),
    # b scales it alone, and Y = 0 leaves the sup and dA terms at 0
    grid = TimeGrid.uniform(1.0, 1000)
    n = grid.nodes.size
    A = grid.nodes[None, :].copy()
    rep = equivalent_norm(np.zeros((1, n, 1)), np.ones((1, n, 1, 1)), A, grid,
                          alpha=alpha, beta=beta, a=5.0, b=2.0)
    assert rep.sup_term == 0.0 and rep.dA_term == 0.0
    assert rep.dt_term == pytest.approx(E - 1.0, abs=1e-3)
    assert rep.dt_term < E - 1.0
    assert rep.total == 2.0 * rep.dt_term


def test_weighted_norm_refuses_a_total_that_is_not_finite():
    # the weights are finite, but |Y|^2 overflows
    grid = TimeGrid.uniform(1.0, 4)
    with pytest.raises(NumericOverflowError, match="^weighted norm is not finite$"), \
            np.errstate(over="ignore"):
        equivalent_norm(np.full((3, 5, 1), 1e200), np.zeros((3, 5, 1, 1)),
                        grid.nodes[None, :], grid, alpha=0.0, beta=0.0, a=1.0, b=1.0)


def test_weighted_norm_homogeneity():
    rng = np.random.default_rng(12)
    grid = TimeGrid.uniform(1.0, 16)
    Y = rng.normal(size=(5, 17, 1))
    Z = rng.normal(size=(5, 17, 1, 1))
    A = np.concatenate([np.zeros((5, 1)),
                        np.cumsum(np.abs(rng.normal(size=(5, 16))), axis=1)], axis=1)
    base = equivalent_norm(Y, Z, A, grid, alpha=0.0, beta=0.5, a=1.0, b=1.0)
    scaled = equivalent_norm(2.5 * Y, 2.5 * Z, A, grid, alpha=0.0, beta=0.5, a=1.0, b=1.0)
    assert scaled.total == pytest.approx(2.5 ** 2 * base.total, rel=1e-12)
    assert np.sqrt(scaled.total) == pytest.approx(2.5 * np.sqrt(base.total), rel=1e-12)


def test_weighted_norm_refuses_weights_that_overflow():
    grid = TimeGrid.uniform(1.0, 4)
    Y, Z = np.ones((1, 5, 1)), np.ones((1, 5, 1, 1))
    A = grid.nodes[None, :].copy()
    with pytest.raises(NumericOverflowError):
        equivalent_norm(Y, Z, A, grid, alpha=0.0, beta=800.0, a=1.0, b=1.0)


def test_equivalent_norm_closed_form():
    grid = TimeGrid.uniform(1.0, 2000)
    n = grid.nodes.size
    dY = np.ones((1, n, 1))
    dZ = np.zeros((1, n, 1, 1))
    A = grid.nodes[None, :].copy()
    rep = equivalent_norm(dY, dZ, A, grid, alpha=0.0, beta=1.0, a=2.0, b=1.0)
    assert rep.total == pytest.approx(3.0 * E - 2.0, abs=2e-3)
    # A equals t here, so shifting the weight from beta to alpha is exact
    swapped = equivalent_norm(dY, dZ, A, grid, alpha=1.0, beta=0.0, a=2.0, b=1.0)
    assert swapped.total == rep.total


def test_equivalent_norm_matches_bruteforce():
    rng = np.random.default_rng(13)
    nodes = np.array([0.0, 0.2, 0.3, 0.65, 0.8, 1.0])
    grid = TimeGrid(nodes)
    dY = rng.normal(size=(4, 6, 2))
    dZ = rng.normal(size=(4, 6, 2, 3))
    A = np.concatenate([np.zeros((4, 1)),
                        np.cumsum(rng.uniform(0, 0.4, size=(4, 5)), axis=1)], axis=1)
    rep = equivalent_norm(dY, dZ, A, grid, alpha=1.3, beta=0.6, a=5.0, b=2.0)
    sup, da, dt = equivalent_norm_bruteforce(dY, dZ, A, nodes, 1.3, 0.6)
    assert rep.sup_term == pytest.approx(sup, rel=1e-12)
    assert rep.dA_term == pytest.approx(da, rel=1e-12)
    assert rep.dt_term == pytest.approx(dt, rel=1e-12)
    assert rep.total == pytest.approx(sup + 5.0 * da + 2.0 * dt, rel=1e-12)


def squares(X):
    """|X|^2 over the trailing axes, (n_paths, n_nodes) in X's layout,
    components added in index order."""
    flat = X.reshape(X.shape[0], X.shape[1], -1)
    out = flat[..., 0] ** 2
    for j in range(1, flat.shape[2]):
        out = out + flat[..., j] ** 2
    return out


@pytest.mark.parametrize("layout", ["C", "node_major"])
@pytest.mark.parametrize("dims", [(1, 2), (1, 1)])
def test_norm_terms_equal_three_product_sums_bitwise(dims, layout):
    # the norm multiplies its weights into |Y|^2 and |Z|^2 in place and adds
    # each path's nodes in order, whatever the inputs' layout: the terms must
    # be those of the three-product expressions on node-major copies, which
    # numpy sums node by node, bit for bit (a C-order row it sums pairwise),
    # for a Z of two components and for stacks of one component each
    rng = np.random.default_rng(19)
    n, n_steps = 400, 30
    grid = TimeGrid.uniform(1.0, n_steps)
    Y = rng.normal(size=(n, n_steps + 1) + dims[:1])
    Z = rng.normal(size=(n, n_steps + 1) + dims)
    A = np.concatenate([np.zeros((n, 1)),
                        np.cumsum(rng.uniform(0, 0.1, size=(n, n_steps)), axis=1)], axis=1)
    A_by_path, A_by_node = A, node_major(A)
    ysq, zsq = squares(node_major(Y)), squares(node_major(Z))
    dA, dt = np.diff(A_by_node, axis=1), grid.steps()[None, :]

    def expected(alpha, beta):
        w = np.exp(alpha * grid.nodes[None, :] + beta * A_by_node)
        return (float(np.mean(np.max(w * ysq, axis=1))),
                float(np.mean(np.sum(w[:, :-1] * ysq[:, :-1] * dA, axis=1))),
                float(np.mean(np.sum(w[:, :-1] * zsq[:, :-1] * dt, axis=1))))

    if layout == "node_major":
        Y, Z, A = node_major(Y), node_major(Z), A_by_node
    rep = equivalent_norm(Y, Z, A, grid, alpha=0.0, beta=0.6, a=1.0, b=1.0)
    assert (rep.sup_term, rep.dA_term, rep.dt_term) == expected(0.0, 0.6)
    # A beside weights built from it, and beside weights built from a copy of
    # it in either layout
    for A_arg, weights in ((A, None), (A, norm_weights(A, grid, 1.3, 0.6)),
                           (A_by_path, norm_weights(A_by_node, grid, 1.3, 0.6)),
                           (A_by_node, norm_weights(A_by_path, grid, 1.3, 0.6))):
        rep = equivalent_norm(Y, Z, A_arg, grid, alpha=1.3, beta=0.6, a=5.0, b=2.0,
                              weights=weights)
        assert (rep.sup_term, rep.dA_term, rep.dt_term) == expected(1.3, 0.6)


def node_order_terms(dY, dZ, w, dA, dt):
    """The norm's per-path terms from whole-array expressions, (w|e|^2) dA
    with components added in index order, each path's nodes added in order
    (the last of its running sums), then averaged."""
    def node_sum(X):
        return np.cumsum(X, axis=1)[:, -1]
    ysq, zsq = squares(dY), squares(dZ)
    return (float(np.mean(np.max(w * ysq, axis=1))),
            float(np.mean(node_sum(w[:, :-1] * ysq[:, :-1] * dA))),
            float(np.mean(node_sum(w[:, :-1] * zsq[:, :-1] * dt))))


# (alpha, beta, a, b); each beta makes the single path's pairwise and
# node-by-node sums differ, as the last check asks
NORMS = {"contraction": (1.3, 0.6, 5.0, 2.0), "solution": (0.0, 0.7, 1.0, 1.0)}


@pytest.mark.parametrize("which", ["both", "Y", "Z"])
@pytest.mark.parametrize("A_kind", ["one_row", "random"])
@pytest.mark.parametrize("norm", sorted(NORMS))
@pytest.mark.parametrize("n", [5000, 300, 2, 1])
def test_node_walk_terms_equal_whole_array_bits(n, norm, A_kind, which):
    # node-major stacks (m = 2, d = 3) are measured by one walk over slabs of
    # nodes; its terms must be those of the whole-array expressions, each
    # path's nodes added in order, bit for bit, with minus= giving what the
    # explicit difference gives, for the contraction norm's weights and the
    # solution norm's (alpha = 0, a = b = 1).  One path is walked too: its
    # row is not summed pairwise, as numpy sums a C-contiguous row.  At 5,000
    # paths the slab's bytes, not its share of the nodes, set its size (4 of
    # the 41 nodes), so the terminal node sits alone in the last slab.
    # which = Y (Z) lets only Y - U (Z - V) differ from 0, so the other
    # stack's terms are 0.0
    alpha, beta, a, b = NORMS[norm]
    rng = np.random.default_rng(31)
    n_steps = 40
    grid = TimeGrid.uniform(1.0, n_steps)
    Y, U = (node_major(rng.normal(size=(n, n_steps + 1, 2))) for _ in range(2))
    Z, V = (node_major(rng.normal(size=(n, n_steps + 1, 2, 3))) for _ in range(2))
    rows = 1 if A_kind == "one_row" else n
    A = np.concatenate([np.zeros((rows, 1)), np.cumsum(
        rng.uniform(0, 0.1, size=(rows, n_steps)), axis=1)], axis=1)
    A = node_major(A) if rows > 1 else A
    if which == "Y":
        V = Z
    elif which == "Z":
        U = Y
    dY, dZ = Y - U, Z - V
    w, dA = weights = norm_weights(A, grid, alpha, beta)
    want = node_order_terms(dY, dZ, w, dA, grid.steps())
    zero = {"both": (), "Y": (2,), "Z": (0, 1)}[which]
    assert all(want[k] == 0.0 for k in zero) and all(
        want[k] > 0.0 for k in range(3) if k not in zero)
    for rep in (equivalent_norm(Y, Z, A, grid, alpha, beta, a, b, weights=weights,
                                minus=(U, V)),
                equivalent_norm(dY, dZ, A, grid, alpha, beta, a, b)):
        assert (rep.sup_term, rep.dA_term, rep.dt_term) == want
    if n == 1 and which != "Z":
        # the pairwise sum of the single row is not the node-by-node sum, so
        # the comparison above tells the two apart
        row = (w[:, :-1] * np.sum(dY[:, :-1] ** 2, axis=2) * dA)[0]
        assert np.sum(row) != sum(row[1:], row[0])


def norm_terms(rep):
    return rep.sup_term, rep.dA_term, rep.dt_term


@pytest.mark.parametrize("A_kind", ["one_row", "random"])
@pytest.mark.parametrize("n", [300, 2, 1])
def test_norm_terms_do_not_depend_on_the_layout(n, A_kind):
    # C-order and node-major copies of the same stacks give the same terms,
    # bit for bit: the solution norm (alpha = 0, a = b = 1) and equivalent_norm's minus
    rng = np.random.default_rng(41)
    n_steps = 40
    grid = TimeGrid.uniform(1.0, n_steps)
    Y, U = (rng.normal(size=(n, n_steps + 1, 2)) for _ in range(2))
    Z, V = (rng.normal(size=(n, n_steps + 1, 2, 3)) for _ in range(2))
    rows = 1 if A_kind == "one_row" else n
    A = np.concatenate([np.zeros((rows, 1)), np.cumsum(
        rng.uniform(0, 0.1, size=(rows, n_steps)), axis=1)], axis=1)
    terms = []
    for layout in (np.ascontiguousarray, node_major):
        Y_, U_, Z_, V_, A_ = (layout(X) for X in (Y, U, Z, V, A))
        terms.append([norm_terms(equivalent_norm(Y_, Z_, A_, grid, 0.0, 0.6, 1.0, 1.0)),
                      norm_terms(equivalent_norm(Y_, Z_, A_, grid, 1.3, 0.6, 5.0, 2.0,
                                                 minus=(U_, V_)))])
    assert terms[0] == terms[1]


def test_norm_refuses_stacks_whose_path_counts_disagree():
    # Y, Z, U and V hold one path count, and A one row or that many
    rng = np.random.default_rng(43)
    grid = TimeGrid.uniform(1.0, 10)
    t = grid.nodes[None, :]
    Y, Z = rng.normal(size=(5, 11, 1)), rng.normal(size=(5, 11, 1, 1))

    def random_A(rows):
        return np.concatenate([np.zeros((rows, 1)), np.cumsum(
            rng.uniform(0, 0.1, size=(rows, 10)), axis=1)], axis=1)

    with pytest.raises(ValueError, match=re.escape("Y (5, 11, 1), Z (3, 11, 1, 1), A rows 1")):
        equivalent_norm(Y, rng.normal(size=(3, 11, 1, 1)), t, grid, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=re.escape(
            "Y (5, 11, 1), U (1, 11, 1), Z (5, 11, 1, 1), A rows 1")):
        equivalent_norm(Y, Z, t, grid, 1.3, 0.6, 5.0, 2.0,
                        minus=(rng.normal(size=(1, 11, 1)), None))
    with pytest.raises(ValueError, match=re.escape("Y (5, 11, 1), Z (5, 11, 1, 1), A rows 4")):
        equivalent_norm(Y, Z, random_A(4), grid, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="one path count"):
        equivalent_norm(Y[:1], Z[:1], random_A(5), grid, 1.3, 0.6, 5.0, 2.0)
    # one row, a broadcast row and one row per path are all measured
    for A in (t, np.broadcast_to(t, (5, 11)), random_A(5)):
        assert equivalent_norm(Y, Z, A, grid, 0.0, 0.0, 1.0, 1.0).total > 0
    assert equivalent_norm(Y[:1], Z[:1], t, grid, 0.0, 0.0, 1.0, 1.0).total > 0


def test_norm_refuses_stacks_of_no_paths():
    # zero-path stacks used to end in an IndexError from the walk's Y[0, 0]
    grid = TimeGrid.uniform(1.0, 10)
    with pytest.raises(ValueError, match=re.escape("one path count n > 0") + ".*" + re.escape(
            ": Y (0, 11, 1), Z (0, 11, 1, 1), A rows 1")):
        equivalent_norm(np.zeros((0, 11, 1)), np.zeros((0, 11, 1, 1)), grid.nodes[None, :],
                        grid, 0.0, 0.0, 1.0, 1.0)


def test_norm_refuses_stacks_that_are_not_whole():
    # Y (n, nodes, m) and Z (n, nodes, m, d), both given, U and V shaped as
    # they are: a 2-D stack is not padded, an absent Z is not left out, and a
    # stack on other nodes is one more fault of shape
    rng = np.random.default_rng(47)
    grid = TimeGrid.uniform(1.0, 10)
    t = grid.nodes[None, :]
    Y, Z = rng.normal(size=(5, 11, 1)), rng.normal(size=(5, 11, 1, 1))
    for stacks, shapes in (((Y[..., 0], Z), "Y (5, 11), Z (5, 11, 1, 1)"),
                           ((Y, None), "Y (5, 11, 1), A rows 1"),
                           ((None, Z), "Z (5, 11, 1, 1), A rows 1"),
                           ((Y, Z[..., 0]), "Y (5, 11, 1), Z (5, 11, 1)"),
                           ((Y[:, :10], Z[:, :10]), "Y (5, 10, 1), Z (5, 10, 1, 1)")):
        with pytest.raises(ValueError, match=re.escape(
                "needs Y (n, 11, m) and Z (n, 11, m, d), U and V as Y and Z") + ".*"
                + re.escape(shapes)):
            equivalent_norm(*stacks, t, grid, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=re.escape("Y (5, 11, 1), U (5, 11), Z (5, 11, 1, 1)")):
        equivalent_norm(Y, Z, t, grid, 0.0, 0.0, 1.0, 1.0, minus=(Y[..., 0], None))
    # and A is (rows, nodes): a 1-D A used to fail by an IndexError, and an A
    # on 10 of the 11 nodes by a broadcast error
    for A in (grid.nodes, t[:, :10]):
        with pytest.raises(ValueError, match=re.escape(
                f"A must be (rows, 11) on the grid's nodes, got shape {A.shape}")):
            equivalent_norm(Y, Z, A, grid, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=re.escape("A must be (rows, 5) on the grid's nodes, "
                                                   "got shape (1, 4)")):
        model.norm_weights(t[:, :4], TimeGrid.uniform(1.0, 4), 0.0, 1.0)


def test_node_walk_allocates_nothing_stack_sized():
    # the Picard distance of node-major iterates: no temporary near the size
    # of a stack, so no Y - U, |Y - U|^2 or w|Y - U|^2 dA is ever formed
    rng = np.random.default_rng(37)
    n, n_steps = 4000, 50
    grid = TimeGrid.uniform(1.0, n_steps)
    Y, U = (node_major(rng.normal(size=(n, n_steps + 1, 1))) for _ in range(2))
    Z, V = (node_major(rng.normal(size=(n, n_steps + 1, 1, 1))) for _ in range(2))
    A = node_major(np.concatenate([np.zeros((n, 1)), np.cumsum(
        rng.uniform(0, 0.1, size=(n, n_steps)), axis=1)], axis=1))
    weights = norm_weights(A, grid, 1.3, 0.6)
    tracemalloc.start()
    try:
        rep = equivalent_norm(Y, Z, A, grid, 1.3, 0.6, 5.0, 2.0, weights=weights,
                              minus=(U, V))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < Y.nbytes / 4
    assert rep.total == equivalent_norm(Y - U, Z - V, A, grid, 1.3, 0.6, 5.0, 2.0).total


@pytest.mark.parametrize("layout", ["C", "node_major"])
def test_norm_inputs_keep_their_layout(layout):
    # w and dA come back in A's layout, so that the norm of a node-major
    # iterate reads node-major weights; the values do not depend on it
    rng = np.random.default_rng(23)
    n, n_steps = 50, 12
    grid = TimeGrid.uniform(1.0, n_steps)
    A = np.concatenate([np.zeros((n, 1)),
                        np.cumsum(rng.uniform(0, 0.1, size=(n, n_steps)), axis=1)], axis=1)
    A_in = node_major(A) if layout == "node_major" else A.copy()
    A_in.flags.writeable = False
    w, dA = norm_weights(A_in, grid, 1.3, 0.6)
    assert np.array_equal(A_in, A)
    assert np.array_equal(w, np.exp(1.3 * grid.nodes[None, :] + 0.6 * A))
    assert np.array_equal(dA, np.diff(A, axis=1))
    for X in (w, dA):
        if layout == "node_major":
            assert is_node_major(X)
        else:
            assert X.flags.c_contiguous


@pytest.mark.parametrize("layout", ["C", "node_major"])
@pytest.mark.parametrize("fault", ["overflow", "nan"])
def test_norm_weights_refuse_overflow_and_nan(fault, layout):
    # one bad entry is enough: beta * A(T) overflows exp, or A holds a NaN
    grid = TimeGrid.uniform(1.0, 4)
    A = np.tile(grid.nodes, (3, 1))
    beta = 800.0 if fault == "overflow" else 1.0
    if fault == "nan":
        A[1, 2] = np.nan
    if layout == "node_major":
        A = node_major(A)
    with pytest.raises(NumericOverflowError):
        norm_weights(A, grid, 0.0, beta)
    with pytest.raises(NumericOverflowError):
        equivalent_norm(np.ones((3, 5)), None, A, grid, alpha=0.0, beta=beta, a=1.0, b=1.0)


# ---------------------------------------------------------------- constants

def test_c_threshold_values():
    assert c_threshold(4.0, 1.0) == 1.0 / 584.0
    assert c_threshold(10.0, 1.0) == 1.0 / 584.0
    assert c_threshold(2.8285, 1.0) == pytest.approx(1.2881e-5, rel=1e-3)
    # just above the domain edge the quadratic branch undercuts the 1/584 cap
    b2 = 2.835 ** 2
    assert c_threshold(2.835, 1.0) == pytest.approx((b2 - 8) / (4 * b2), rel=1e-12)
    assert c_threshold(2.835, 1.0) < 1.0 / 584.0


def test_c_admissible_is_the_one_c_range_rule():
    cap = 1.0 / 584.0
    assert model.c_admissible(1e-3, 4.0, 1.0) == (True, cap)
    for c in (0.0, -1e-3, cap, 1e-2, float("nan"), "abc", None):
        assert model.c_admissible(c, 4.0, 1.0) == (False, cap)
    with pytest.raises(ConstraintViolationError):
        model.c_admissible(1e-3, 2.0, 1.0)


def test_c_threshold_domain():
    with pytest.raises(ConstraintViolationError):
        c_threshold(2.0 * np.sqrt(2.0), 1.0)
    with pytest.raises(ConstraintViolationError):
        c_threshold(2.0, 1.0)


def test_effective_c():
    prob = base_problem(c=1e-3)
    assert effective_c(prob) == 1e-3
    prob = base_problem()
    assert effective_c(prob) == 0.5 / 584.0


def test_check_H1_frozen_value():
    ens = linear_A_ensemble()
    prob = base_problem()
    rep = check_H1(prob, ens, c=0.0015)
    expected = 0.001 * np.exp(1.25) / 4.0
    assert np.allclose(rep.lhs, expected, rtol=1e-12)
    assert rep.passed and rep.pass_fraction == 1.0
    assert rep.worst_margin == pytest.approx(0.0015 - expected, rel=1e-9)
    assert "PASS" in str(rep)


def test_check_H2_frozen_value_fails():
    ens = linear_A_ensemble()
    prob = base_problem()
    rep = check_H2(prob, ens, c=0.0015)
    expected = 0.001 * np.exp(1.25)
    assert np.allclose(rep.lhs, expected, rtol=1e-12)
    assert expected == pytest.approx(3.4903e-3, rel=1e-3)
    assert not rep.passed and rep.pass_fraction == 0.0
    assert rep.worst_margin < 0
    assert "FAIL" in str(rep)


def test_check_H1_random_kernel_bound():
    ens = linear_A_ensemble(n_paths=6)

    def K(grid, ensemble):
        return 0.001 * np.ones((ensemble.n_paths, grid.nodes.size))

    prob = base_problem(K=K)
    rep = check_H1(prob, ens, c=1.0 / 584.0)
    assert rep.lhs.shape == (6,)
    assert np.allclose(rep.lhs, 0.001 * np.exp(1.25) / 4.0, rtol=1e-12)


def test_check_H1_flags_inadmissible_c():
    ens = linear_A_ensemble()
    prob = base_problem()
    rep = check_H1(prob, ens, c=0.01)
    assert not rep.passed and rep.notes
    with pytest.raises(ValueError):
        check_H1(prob, ens, c=-1.0)
    with pytest.raises(ConstraintViolationError):
        check_H1(base_problem(beta=2.0), ens, c=1e-4)
    bare = simulate_brownian(TimeGrid.uniform(1.0, 50, delta=0.1), 2)
    with pytest.raises(ValueError):
        check_H1(prob, bare, c=1e-4)


def test_mu_lambda_frozen_value():
    val = mu_lambda(300.0, 0.001, 4.0, 1.0)
    assert val == pytest.approx(2416.0 / 4800.0, rel=1e-12)
    # the other two branches at this lambda
    assert 0.001 * 302.0 == pytest.approx(0.302)
    assert 2 * 0.001 * 302.0 / (300.0 - 288.0) == pytest.approx(0.050333, rel=1e-4)


def test_select_lambda_contracts():
    sel = select_lambda(0.001, 4.0, 1.0)
    assert 288.0 < sel.lam
    assert sel.mu_lambda < 0.51
    assert sel.mu_lambda == pytest.approx(
        mu_lambda(sel.lam, 0.001, 4.0, 1.0), rel=1e-12)
    assert sel.a == sel.lam * 4.0 / 2.0
    assert sel.b == sel.lam / 2.0 - 144.0
    assert sel.b > 0


def test_select_lambda_rejects_large_c():
    with pytest.raises(ConstraintViolationError):
        select_lambda(0.002, 4.0, 1.0)
    with pytest.raises(ConstraintViolationError):
        select_lambda(1e-4, 2.0, 1.0)


# ------------------------------------------------------------------- probes

def test_probe_linear_driver():
    F = registry.build_F({"name": "linear", "params": {"a_y": 1.0, "a_z": 0.5}})
    prob = base_problem(F=F, L=1.01)
    probe = probe_lipschitz(prob, which="F", seed=0)
    assert 0.9 <= probe.empirical_L <= 1.0 + 1e-9
    assert not probe.exceeds_L
    assert probe.empirical_K1 == 0.0 and not probe.exceeds_K1

    under = base_problem(F=F, L=0.5)
    probe = probe_lipschitz(under, which="F", seed=0)
    assert probe.exceeds_L


def test_probe_delayed_driver_kernel():
    F = registry.build_F({"name": "rho_integral", "params": {"kappa": 1.0}})
    prob = base_problem(F=F, K=1.0)
    probe = probe_lipschitz(prob, which="F", seed=1)
    assert 0.8 <= probe.empirical_K1 <= 1.0 + 1e-9
    assert not probe.exceeds_K1
    under = base_problem(F=F, K=0.5)
    probe = probe_lipschitz(under, which="F", seed=1)
    assert probe.exceeds_K1


def test_probe_stieltjes_driver():
    G = registry.build_G({"name": "linear_plus_rho",
                          "params": {"b": 0.25, "gamma": 0.1}})
    prob = base_problem(G=G, L_tilde=1.0, K_tilde=0.011,
                        rho_tilde=AtomMeasure.uniform(0.1, 5))
    probe = probe_lipschitz(prob, which="G", seed=2)
    assert probe.empirical_L == pytest.approx(0.25, rel=1e-9)
    # Cauchy-Schwarz caps the kernel constant at gamma^2
    assert 0.005 <= probe.empirical_K1 <= 0.01 + 1e-9
    assert not probe.exceeds_L and not probe.exceeds_K1


def test_probe_absent_generator():
    prob = base_problem()
    probe = probe_lipschitz(prob, which="G")
    assert probe.empirical_L == 0.0 and probe.empirical_K1 == 0.0
    assert not probe.exceeds_L and not probe.exceeds_K1
    with pytest.raises(ValueError):
        probe_lipschitz(prob, which="H")


def sqrt_F(t, y, z, y_seg, z_seg, ctx):
    return np.sqrt(y)     # NaN on half the cloud


def nan_F(t, y, z, y_seg, z_seg, ctx):
    return np.full_like(y, np.nan)


@pytest.mark.parametrize("F", [sqrt_F, nan_F])
def test_probe_reads_a_non_finite_generator_as_an_infinite_constant(F):
    # a NaN used to drop out of the probes' max, so both F probed as
    # empirical_L = 0, the preflight passed and the solve blew up
    from delaybsde.picard_solver import solve

    problem = base_problem(F=F, K=0.0, K_tilde=0.0,
                           xi=registry.build_terminal({"name": "brownian"}))
    with np.errstate(invalid="ignore"):
        probe = probe_lipschitz(problem, which="F")
        assert probe.empirical_L == probe.empirical_K1 == float("inf")
        assert probe.exceeds_L and probe.exceeds_K1
        assert stability_lab.generator_gap(F, None, problem, which="F") == float("inf")
        grid = TimeGrid.uniform(1.0, 20, delta=0.1)
        ens = realize_increasing_process(problem.A_spec, simulate_brownian(grid, 200, seed=3))
        failures = model.preflight(problem, ens).failures
        assert list(failures) == ["F"]
        with pytest.raises(ConstraintViolationError, match="declared constants of F"):
            solve(problem, ens)
        # force=True still runs the problem, which then blows up
        with pytest.raises(BlowupError):
            solve(problem, ens, force=True)


@pytest.mark.parametrize("which, arg", [
    ("F", "y"), ("F", "z"), ("F", "y_seg"), ("F", "z_seg"), ("G", "y"), ("G", "w")])
def test_generator_cannot_write_into_argument_clouds(which, arg):
    # the probes hand the same arrays to every call, so a generator that
    # writes into its argument would change the inputs of every later call
    def F(t, y, z, y_seg, z_seg, ctx):
        {"y": y, "z": z, "y_seg": y_seg, "z_seg": z_seg}[arg][:] = 0.0
        return 0.1 * y

    def G(t, y, y_seg, ctx):
        {"y": y, "w": ctx.w}[arg][:] = 0.0
        return 0.1 * y

    gen = F if which == "F" else G
    prob = base_problem(**{which: gen})
    with pytest.raises(ValueError, match="read-only"):
        probe_lipschitz(prob, which=which)
    with pytest.raises(ValueError, match="read-only"):
        stability_lab.generator_gap(gen, None, prob, which=which)
    with pytest.raises(ValueError, match="read-only"):
        check_integrability(prob, linear_A_ensemble())


# ------------------------------------------------------------ integrability

def test_integrability_frozen_values():
    grid = TimeGrid.uniform(1.0, 50, delta=0.1)
    ens = simulate_brownian(grid, 20000, seed=5)
    ens = realize_increasing_process(
        IncreasingProcessSpec("deterministic", {"shape": "identity"}), ens)
    prob = base_problem(
        xi=registry.build_terminal({"name": "brownian", "params": {}}),
        F=registry.build_F({"name": "zero", "params": {}}),
        G=registry.build_G({"name": "constant", "params": {"value": 1.0}}),
        beta=1.0)
    rep = check_integrability(prob, ens)
    assert rep.all_finite
    assert rep.entries["A0"].value == pytest.approx(2.0 * E, rel=0.05)
    assert rep.entries["A1_F"].value == 0.0
    assert rep.entries["A1_G"].value == pytest.approx(E - 1.0, rel=0.02)
    assert rep.entries["A0r_r2"].value == pytest.approx(E ** 2, rel=1e-12)
    assert rep.entries["A0p"].value == pytest.approx(3.0 * E ** 2, rel=0.1)
    assert rep.entries["A1sup_G"].value == pytest.approx(1.0, rel=1e-12)
    assert not any(e.heavy_tail for e in rep.entries.values())


def test_integrability_heavy_tail_flagged():
    grid = TimeGrid.uniform(1.0, 20, delta=0.1)
    ens = simulate_brownian(grid, 5000, seed=6)
    ens = realize_increasing_process(
        IncreasingProcessSpec("deterministic", {"shape": "identity"}), ens)

    def xi(ensemble):
        return np.exp(3.0 * ensemble.W[:, -1, :1])

    prob = base_problem(xi=xi, beta=1.0)
    rep = check_integrability(prob, ens)
    assert rep.entries["A0p"].heavy_tail
    assert rep.entries["A0p"].finite


@pytest.mark.parametrize("which", ["F", "G"])
def test_integrability_names_a_generator_not_finite_at_zero(which):
    def F(t, y, z, y_seg, z_seg, ctx):
        return np.log(np.abs(y))

    def G(t, y, y_seg, ctx):
        return np.log(np.abs(y))

    grid = TimeGrid.uniform(1.0, 20, delta=0.1)
    ens = realize_increasing_process(IncreasingProcessSpec("deterministic", {}),
                                     simulate_brownian(grid, 10, seed=7))
    with pytest.raises(GeneratorEvaluationError,
                       match=f"^{which} returned a non-finite value at t=0$"), \
            np.errstate(divide="ignore"):
        check_integrability(base_problem(**{which: F if which == "F" else G}), ens)


def test_integrability_requires_A():
    grid = TimeGrid.uniform(1.0, 20, delta=0.1)
    ens = simulate_brownian(grid, 10, seed=7)
    with pytest.raises(ValueError):
        check_integrability(base_problem(), ens)


def both_components(ensemble):
    """A 2-column terminal: W(T) of a 2-dimensional ensemble."""
    return ensemble.W[:, -1, :]


def test_integrability_refuses_a_terminal_of_another_width():
    grid = TimeGrid.uniform(1.0, 20, delta=0.1)
    ens = realize_increasing_process(IncreasingProcessSpec("deterministic", {}),
                                     simulate_brownian(grid, 10, d=2, seed=7))
    with pytest.raises(GeneratorEvaluationError,
                       match=r"^the terminal has shape \(10, 2\), but the problem needs "
                             r"\(10, 1\) \(n_paths, m\)$"):
        check_integrability(base_problem(xi=both_components, d=2), ens)


def integrability_in_node_order(problem, ensemble):
    """check_integrability's entries from path-major squares and whole-stack
    products, each integral a running sum over the steps, so that each path's
    terms are added in node order; the "p" entries at the power p = 2."""
    grid = ensemble.grid
    A = stored_rows(ensemble.realized_A())
    n, nodes = ensemble.n_paths, grid.nodes
    xi = np.asarray(problem.xi(ensemble), dtype=float).reshape(n, -1)
    xi_sq = np.einsum("nm,nm->n", xi, xi, optimize=False)
    with np.errstate(over="ignore"):
        eA = np.exp(problem.beta * A)
        eAT = eA[:, -1]

    def gen_at_zero(gen, which):
        vals = np.zeros((n, nodes.size))
        if gen is None:
            return vals
        k = grid.delta_index_offset
        zeros = [np.broadcast_to(0.0, shape) for shape in (
            (n, problem.m), (n, problem.m, problem.d), (n, k + 1, problem.m),
            (n, k + 1, problem.m, problem.d))]
        for i, t in enumerate(nodes):
            ctx = problem.context(grid, float(t), ensemble.W[:, i, :])
            out = model.evaluate_generator(gen, which, ctx, *zeros, finite=True)
            vals[:, i] = np.einsum("nm,nm->n", out, out, optimize=False)
        return vals

    F0_sq, G0_sq = gen_at_zero(problem.F, "F"), gen_at_zero(problem.G, "G")
    dA, dt = np.diff(A, axis=1), grid.steps()[None, :]
    with np.errstate(invalid="ignore"):
        int_F = np.cumsum(eA[:, :-1] * F0_sq[:, :-1] * dt, axis=1)[:, -1]
        int_G_dA = np.cumsum(eA[:, :-1] * G0_sq[:, :-1] * dA, axis=1)[:, -1]
        int_G_dt = np.cumsum(eA[:, :-1] * G0_sq[:, :-1] * dt, axis=1)[:, -1]
    with np.errstate(over="ignore", invalid="ignore"):
        entries = {
            "A0": model._moment(eAT * (1.0 + xi_sq)),
            "A1_F": model._moment(int_F),
            "A1_G": model._moment(int_G_dA),
            "A0p": model._moment(eAT ** 2.0 * xi_sq ** 2.0),
            "A1p_F": model._moment(int_F ** 2.0),
            "A1p_G": model._moment(int_G_dt ** 2.0),
            "A1sup_G": model._moment(np.max(G0_sq, axis=1) ** 2.0),
        }
        for r in (1.0, 2.0, 4.0, 8.0):
            entries[f"A0r_r{r:g}"] = model._moment(np.exp(r * ensemble.A[:, -1]))
    return entries


def bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", pathlib.Path(__file__).parents[1] / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["readme_solve", "stability_family", "delayed_segment"])
def test_integrability_same_entries_on_every_checked_workload_pair(name):
    workload = bench_workloads()[name]
    for seed in (workload.default_seed, workload.heldout_seed):
        for problem, ensemble in workload.setup(seed).checked:
            report = check_integrability(problem, ensemble)
            assert report.entries == integrability_in_node_order(problem, ensemble)


def test_integrability_same_entries_as_whole_stacks():
    linear_F = registry.build_F({"name": "linear", "params": {"a_y": 0.3, "a_z": 0.2}})
    constant_G = registry.build_G({"name": "constant", "params": {"value": 1.5}})
    brownian = registry.build_terminal({"name": "brownian", "params": {}})
    random_A = IncreasingProcessSpec("running_max", {})
    grid = TimeGrid.uniform(1.0, 69, delta=1.0 / 69)
    driving = simulate_brownian(grid, 5000, seed=11)
    driving_2d = simulate_brownian(grid, 300, d=2, seed=12)
    cases = [
        (dict(F=None, G=constant_G), driving),
        (dict(F=linear_F, G=None), driving),
        (dict(F=None, G=None), driving),
        (dict(F=linear_F, G=constant_G, xi=brownian, A_spec=random_A), driving),
        (dict(F=None, G=constant_G, A_spec=random_A), driving),
        (dict(F=linear_F, G=registry.build_G({"name": "linear", "params": {"b": 0.4}}),
              xi=both_components, m=2, d=2), driving_2d),
        # e^{beta A} overflows, and its zero-generator products are NaN
        (dict(F=None, G=constant_G, beta=800.0), driving),
        (dict(F=linear_F, G=None, beta=800.0, A_spec=random_A), driving),
    ]
    for fields, ensemble in cases:
        problem = base_problem(delta=grid.delta, **fields)
        ensemble = realize_increasing_process(problem.A_spec, ensemble)
        with np.errstate(over="ignore", invalid="ignore"):
            entries = check_integrability(problem, ensemble).entries
        assert entries == integrability_in_node_order(problem, ensemble), fields
        if fields.get("beta"):
            assert not entries["A1_F"].finite


# ----------------------------------------------------------------- problems

def test_problem_validation():
    with pytest.raises(ValueError):
        base_problem(delta=2.0)
    with pytest.raises(ValueError):
        base_problem(beta=0.0)
    with pytest.raises(ValueError):
        base_problem(c=-0.1)
    with pytest.raises(ValueError):
        base_problem(rho=AtomMeasure.dirac(-0.5))


@pytest.mark.parametrize("key, value", [
    ("K", -1.0), ("K_tilde", np.nan),
    ("K", np.array([0.001, -0.001])), ("K_tilde", np.array([0.001, np.nan])),
    ("beta", np.nan), ("L", np.nan), ("L_tilde", np.nan), ("c", np.nan),
    ("T", np.nan),
    # an infinity is no number either
    ("T", np.inf), ("beta", np.inf), ("L", np.inf), ("L_tilde", np.inf), ("c", np.inf),
    ("K", np.inf), ("K_tilde", np.inf), ("K", np.array([0.001, np.inf])),
])
def test_problem_refuses_negative_or_nan_constants(key, value):
    with pytest.raises(ValueError):
        base_problem(**{key: value})


@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("which, checker", [("K", check_H1), ("K_tilde", check_H2)])
def test_conditions_refuse_a_callable_kernel_bound_out_of_range(which, checker, value):
    # a negative K would make the left-hand side negative, a pass
    ens = linear_A_ensemble(n_paths=3)

    def bound(grid, ensemble):
        return np.full((ensemble.n_paths, grid.nodes.size), value)

    with pytest.raises(ValueError, match="kernel bound"):
        checker(base_problem(**{which: bound}), ens, c=1.0 / 584.0)


def test_full_window_delta_with_rounding_accepted():
    # T * n / n rounds one ulp above T here; the grid takes it as n steps,
    # and so must the problem and the delay-window increments of A
    T, n = 39.56073760172803, 105
    delta = T * n / n
    assert delta > T
    prob = base_problem(T=T, delta=delta)
    grid = TimeGrid.uniform(prob.T, n, delta=prob.delta)
    carrying_t = PathEnsemble(grid, np.zeros((1, n + 1, 1)), seed=0, A=grid.nodes[None, :])
    assert np.array_equal(omega_delta(carrying_t, delta), [grid.T])
    with pytest.raises(ValueError):
        base_problem(T=T, delta=T * (1 + 1e-9))


def test_problem_context_projection():
    prob = base_problem(rho=AtomMeasure.dirac(-0.1),
                        rho_tilde=AtomMeasure.uniform(0.1, 3))
    grid = TimeGrid.uniform(1.0, 50, delta=0.1)
    ctx = prob.context(grid, 0.5, np.zeros((2, 1)))
    assert ctx.theta.size == 6
    assert ctx.theta[0] == pytest.approx(-0.1) and ctx.theta[-1] == 0.0
    assert ctx.rho[0] == 1.0 and ctx.rho.sum() == 1.0
    assert ctx.rho_tilde.sum() == pytest.approx(1.0)


def test_generator_registry_behaviors():
    rng = np.random.default_rng(21)
    n, k, m, d = 5, 4, 2, 3
    y = rng.normal(size=(n, m))
    z = rng.normal(size=(n, m, d))
    y_seg = rng.normal(size=(n, k + 1, m))
    z_seg = rng.normal(size=(n, k + 1, m, d))
    theta = np.linspace(-0.1, 0.0, k + 1)
    rho = np.array([0.5, 0.0, 0.0, 0.0, 0.5])
    from delaybsde.model import GenContext
    ctx = GenContext(t=0.3, w=np.zeros((n, d)), theta=theta, rho=rho,
                     rho_tilde=rho)

    F = registry.build_F({"name": "delayed_linear", "params": {"kappa": 2.0}})
    assert np.allclose(F(0.3, y, z, y_seg, z_seg, ctx), 2.0 * y_seg[:, 0, :])

    F = registry.build_F({"name": "rho_integral", "params": {"kappa": 3.0}})
    want = 3.0 * (0.5 * y_seg[:, 0, :] + 0.5 * y_seg[:, -1, :])
    assert np.allclose(F(0.3, y, z, y_seg, z_seg, ctx), want)

    F = registry.build_F({"name": "linear", "params": {"a_y": 2.0, "a_z": -1.0}})
    assert np.allclose(F(0.3, y, z, y_seg, z_seg, ctx), 2.0 * y - np.sum(z, axis=2))

    G = registry.build_G({"name": "linear_plus_rho",
                          "params": {"b": 1.5, "gamma": 0.5}})
    want = 1.5 * y + 0.5 * (0.5 * y_seg[:, 0, :] + 0.5 * y_seg[:, -1, :])
    assert np.allclose(G(0.3, y, y_seg, ctx), want)


# (kind, name, params, the arguments it declares), one case per registry
# name, and linear_plus_rho's F both with and without its z-segment term
DRIVER_READS = [
    ("F", "zero", {}, set()),
    ("F", "linear", {"a_y": 0.3, "a_z": 0.2}, {"y", "z"}),
    ("F", "delayed_linear", {"kappa": 0.4}, {"y_seg"}),
    ("F", "rho_integral", {"kappa": 0.4}, {"y_seg"}),
    ("F", "linear_plus_rho", {"a_y": 0.3, "a_z": 0.2, "kappa_rho": 0.1},
     {"y", "z", "y_seg"}),
    ("F", "linear_plus_rho", {"a_y": 0.3, "a_z": 0.2, "kappa_rho": 0.1, "kappa_z_rho": 0.05},
     {"y", "z", "y_seg", "z_seg"}),
    ("G", "zero", {}, set()),
    ("G", "constant", {"value": 2.0}, set()),
    ("G", "linear", {"b": 0.3}, {"y"}),
    ("G", "rho_integral", {"gamma": 0.4}, {"y_seg"}),
    ("G", "linear_plus_rho", {"b": 0.2, "gamma": 0.1}, {"y", "y_seg"}),
]


def test_driver_reads_cases_cover_the_registry():
    assert {name for kind, name, _, _ in DRIVER_READS if kind == "F"} == set(registry._F_BUILDERS)
    assert {name for kind, name, _, _ in DRIVER_READS if kind == "G"} == set(registry._G_BUILDERS)
    # a hand-written generator that declares no reads counts as reading every argument
    def F(t, y, z, y_seg, z_seg, ctx):
        return np.tanh(y)
    assert model.generator_reads(F) == model.GENERATOR_ARGUMENTS


@pytest.mark.parametrize("which, name, params, declared", DRIVER_READS)
def test_declared_reads_are_true(which, name, params, declared):
    build = registry.build_F if which == "F" else registry.build_G
    gen = build({"name": name, "params": params})
    assert model.generator_reads(gen) == declared
    problem = base_problem(m=2, d=2, xi=both_components, rho=AtomMeasure.uniform(0.1, 3),
                           rho_tilde=AtomMeasure.uniform(0.1, 2))
    cloud, = model.argument_clouds(problem, 64, seed=5)
    args = {"y": cloud.y, "z": cloud.z, "y_seg": cloud.y_seg, "z_seg": cloud.z_seg}
    # an argument the driver does not declare becomes NaN, which any read
    # of it would carry into the output
    masked = {key: value if key in declared else np.full(value.shape, np.nan)
              for key, value in args.items()}
    for ctx in cloud.contexts:
        want = model.evaluate_generator(gen, which, ctx, *args.values())
        assert np.all(np.isfinite(want))
        assert np.array_equal(model.evaluate_generator(gen, which, ctx, *masked.values()), want)


def test_problem_config_errors():
    with pytest.raises(ConfigError):
        registry.problem_from_dict({"T": 1.0})
    cfg = {"T": 1.0, "delta": 0.1, "beta": 4.0, "L": 1.0, "L_tilde": 1.0,
           "terminal": {"name": "nope", "params": {}},
           "A": {"kind": "deterministic", "params": {}}}
    with pytest.raises(ConfigError, match="unknown terminal"):
        registry.problem_from_dict(cfg)


# the key list is pinned literally, as the CLI prints it, in test_cli
PROBLEM_KEYS = ", ".join(sorted(registry._PROBLEM_KEYS))


@pytest.mark.parametrize("config, errors", [
    # a misspelled K_tilde used to leave K_tilde at its default
    (base_config(K_tild=0.5),
     [("schema", f"problem.K_tild: unknown key; the problem takes {PROBLEM_KEYS}")]),
    ({"T": 1.0, "L_tild": 1.0},
     [("schema", f"problem section is missing required key '{key}'")
      for key in ("delta", "beta", "L", "L_tilde", "terminal", "A")]
     + [("schema", f"problem.L_tild: unknown key; the problem takes {PROBLEM_KEYS}")]),
    # every builder that refuses is named, A with d
    (base_config(F={"name": "nope"}, G={"name": "linear", "params": {"b": "1"}}, d=1,
                 A={"kind": "running_max", "params": {"component": 1}}),
     [("registry", "F: unknown F 'nope'; known: ['delayed_linear', 'linear', "
                   "'linear_plus_rho', 'rho_integral', 'zero']"),
      ("registry", "G: b must be a finite number, got '1'"),
      ("registry", "A must be an increasing process of a kind in ['deterministic', "
                   "'oscillatory', 'running_max', 'time_integral']: running_max A reads "
                   "component 1, so needs d > 1, got d=1")]),
    (base_config(K=-1.0), [("domain", "problem: kernel bound K must hold numbers >= 0, "
                                      "got -1.0")]),
    (base_config(beta=2.0), [("beta-range", "beta=2.0 must exceed 2*sqrt(2)*L_tilde=2.82843")]),
], ids=["unknown", "missing", "registry", "domain", "beta-range"])
def test_problem_from_dict_names_each_fault_with_its_code(config, errors):
    with pytest.raises(ConfigError) as refused:
        registry.problem_from_dict(config)
    assert refused.value.errors == errors
    assert str(refused.value) == "; ".join(message for _, message in errors)
