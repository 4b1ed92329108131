"""Brownian simulation, increasing integrators, regression estimates."""

import itertools
import math
import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from delaybsde import stochastic_engine
from delaybsde.errors import MonotonicityError, SingularSystemError
from delaybsde.model import norm_weights
from delaybsde.path_calculus import BLOCK_BYTES, TimeGrid, stored_rows
from delaybsde.stochastic_engine import (
    IncreasingProcessSpec,
    PathEnsemble,
    RegressionBasis,
    RegressionPlan,
    conditional_expectation,
    fit_least_squares,
    omega_delta,
    oscillation,
    realize_increasing_process,
    simulate_brownian,
)

from layouts import is_node_major, node_major, spy_on_node_major
from splicing import increments, splice_future

GRID = TimeGrid.uniform(1.0, 32)


def det(shape, **params):
    return IncreasingProcessSpec("deterministic", {"shape": shape, **params})


def one_shot_brownian(grid, n, d, seed):
    """The C-order W of one path-major draw of every path: all the normals
    at once, scaled, then summed along each path."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    z = rng.standard_normal((n, grid.n_steps, d)) * np.sqrt(grid.steps())[None, :, None]
    W = np.zeros((n, grid.nodes.size, d))
    np.cumsum(z, axis=1, out=W[:, 1:])
    return W


# ---------------------------------------------------------------- Brownian

def test_brownian_starts_at_zero_with_gaussian_increments():
    ens = simulate_brownian(GRID, 20000, d=2, seed=11)
    assert np.all(ens.W[:, 0, :] == 0.0)
    dW = increments(ens)
    dt = GRID.steps()[None, :, None]
    # CLT bounds at 3 sigma for the frozen seed
    z = dW / np.sqrt(dt)
    assert abs(z.mean()) <= 3.0 / np.sqrt(z.size)
    assert abs(z.var() - 1.0) <= 3.0 * np.sqrt(2.0 / z.size)
    assert abs(ens.W[:, -1, 0].mean()) <= 3.0 / np.sqrt(20000)


def test_brownian_reproducible_and_path_major():
    a = simulate_brownian(GRID, 50, d=2, seed=3)
    b = simulate_brownian(GRID, 50, d=2, seed=3)
    assert np.array_equal(a.W, b.W)
    # growing the ensemble appends paths without disturbing earlier ones
    c = simulate_brownian(GRID, 80, d=2, seed=3)
    assert np.array_equal(c.W[:50], a.W)
    assert not np.array_equal(simulate_brownian(GRID, 50, d=2, seed=4).W, a.W)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n, block_paths", [(10, 3), (4100, None), (9, 4), (7, 16)])
def test_brownian_draws_stream_in_path_blocks(monkeypatch, d, n, block_paths):
    # the block is drawn and summed in half-blocks of block_paths // 2 paths:
    # ten of 1 path; five of 2 paths, the last one short; one of 8 paths,
    # which holds all 7; and the default block, whose half-blocks on 32 steps
    # hold 2048 // d paths, so 4100 paths take three or five, the last short
    if block_paths is not None:
        monkeypatch.setattr(stochastic_engine, "BLOCK_BYTES", block_paths * 8 * GRID.n_steps * d)
    W = simulate_brownian(GRID, n, d=d, seed=21).W
    assert np.array_equal(W.view(np.uint64), one_shot_brownian(GRID, n, d, 21).view(np.uint64))


@pytest.mark.parametrize("spec", [
    None,
    IncreasingProcessSpec("running_max", {}),
    IncreasingProcessSpec("time_integral", {"functional": "inv_quadratic"}),
    IncreasingProcessSpec("oscillatory", {
        "base": IncreasingProcessSpec("time_integral", {"functional": "constant"}), "n": 2})])
def test_builders_hold_one_stack(spec):
    # W (spec None) or a random A peaks at its own stack plus scratch of about
    # a block: no second stack of draws, rates, increments or differences
    grid = TimeGrid.uniform(1.0, 256)
    ens = None if spec is None else simulate_brownian(grid, 4000, seed=3)
    tracemalloc.start()
    try:
        if spec is None:
            built = simulate_brownian(grid, 4000, seed=3).W
        else:
            built = realize_increasing_process(spec, ens).A
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < built.nbytes + 2 * BLOCK_BYTES


def test_brownian_joins_its_worker_thread(monkeypatch):
    # the thread that sums the half-blocks ends with the call, and an error
    # in it reaches the caller, with no thread left behind either
    threads = threading.enumerate()
    simulate_brownian(GRID, 4100, seed=21)
    assert threading.enumerate() == threads

    def failing_cumsum(*args, **kwargs):
        raise RuntimeError("cumsum failed")
    monkeypatch.setattr(np, "cumsum", failing_cumsum)
    with pytest.raises(RuntimeError, match="cumsum failed"):
        simulate_brownian(GRID, 4100, seed=21)
    assert threading.enumerate() == threads


def test_ensemble_arrays_frozen():
    ens = simulate_brownian(GRID, 3, seed=0)
    with pytest.raises(ValueError):
        ens.W[0, 0, 0] = 1.0


# ---------------------------------------------------------------- A kinds

def test_deterministic_shapes():
    ens = simulate_brownian(GRID, 4, seed=1)
    out = realize_increasing_process(det("identity"), ens)
    assert np.allclose(out.A, GRID.nodes[None, :], atol=0)
    out = realize_increasing_process(det("power", exponent=2.0), ens)
    assert np.allclose(out.A[0], GRID.nodes ** 2, atol=0)
    out = realize_increasing_process(det("linear", rate=2.5), ens)
    assert out.A[0, -1] == pytest.approx(2.5)


def test_running_max_matches_bruteforce():
    ens = simulate_brownian(GRID, 40, seed=9)
    out = realize_increasing_process(IncreasingProcessSpec("running_max", {}), ens)
    brute = np.array([[ens.W[p, : i + 1, 0].max() for i in range(33)]
                      for p in range(40)])
    assert np.array_equal(out.A, brute)
    assert np.all(out.A[:, 0] == 0.0)
    assert np.all(np.diff(out.A, axis=1) >= 0)


def test_time_integral_constant_rate_is_ramp():
    ens = simulate_brownian(GRID, 6, seed=2)
    spec = IncreasingProcessSpec("time_integral", {"functional": "constant", "value": 2.0})
    out = realize_increasing_process(spec, ens)
    assert np.allclose(out.A, 2.0 * GRID.nodes[None, :], atol=1e-14)


def test_time_integral_positive_functional_monotone():
    ens = simulate_brownian(GRID, 64, seed=5)
    spec = IncreasingProcessSpec("time_integral", {"functional": "inv_quadratic", "scale": 3.0})
    out = realize_increasing_process(spec, ens)
    assert np.all(np.diff(out.A, axis=1) >= 0)
    assert np.all(out.A[:, -1] <= 3.0 + 1e-12)


def test_registered_positive_functional_drives_a_time_integral():
    def squared_first(w, params):
        return params.get("scale", 1.0) * w[:, 0] ** 2

    ens = simulate_brownian(GRID, 16, d=2, seed=8)
    spec = IncreasingProcessSpec("time_integral", {"functional": squared_first, "scale": 1.5})
    out = realize_increasing_process(spec, ens)
    # left sums of f(W) dt, accumulated by hand
    expected = np.zeros((16, GRID.nodes.size))
    for i, dt in enumerate(GRID.steps()):
        expected[:, i + 1] = expected[:, i] + 1.5 * ens.W[:, i, 0] ** 2 * dt
    assert spec.is_random and out.A_spec is spec
    np.testing.assert_allclose(out.A, expected, rtol=1e-13, atol=1e-15)
    with pytest.raises(ValueError, match="unknown time_integral functional"):
        IncreasingProcessSpec("time_integral", {"functional": "test_squared_first"})


def test_random_A_kinds_keep_the_bits_of_their_stacked_expressions():
    # a time_integral A is cumsum(rates dt) over the stack of rates, and an
    # oscillatory A on a random base is that base plus the bump
    ens = simulate_brownian(GRID, 300, d=2, seed=12)
    params = {"functional": "inv_quadratic", "scale": 50.0}
    rates = np.stack([stochastic_engine._POS_FUNCTIONALS["inv_quadratic"](ens.W[:, i], params)
                      for i in range(GRID.n_steps)], axis=1)
    base = np.zeros((300, GRID.nodes.size))
    np.cumsum(rates * GRID.steps()[None, :], axis=1, out=base[:, 1:])
    spec = IncreasingProcessSpec("time_integral", params)
    oscillatory = IncreasingProcessSpec("oscillatory", {"base": spec, "n": 3})
    # a rate of -0.0 passes the sign check and keeps cumsum's signed zeros
    signed_zero = IncreasingProcessSpec("time_integral", {"functional": "constant",
                                                          "value": -0.0})
    zeros = np.zeros((300, GRID.nodes.size))
    zeros[:, 1:] = -0.0
    for kind, want in ((spec, base),
                       (oscillatory, base + oscillation(3, GRID.nodes, GRID.T)[None, :]),
                       (signed_zero, zeros)):
        got = realize_increasing_process(kind, ens).A
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_oscillatory_sup_distance_closed_form():
    # sup_t |A_n - base| = T/(4 pi n); the grid holds a peak node for n=4, M=32
    ens = simulate_brownian(GRID, 2, seed=0)
    spec = IncreasingProcessSpec("oscillatory", {"base": det("identity"), "n": 4})
    out = realize_increasing_process(spec, ens)
    sup = np.max(np.abs(out.A - GRID.nodes[None, :]))
    assert sup == pytest.approx(1.0 / (16 * np.pi), abs=1e-15)
    assert np.all(np.diff(out.A, axis=1) >= 0)


@pytest.mark.parametrize("spec, random", [
    (det("power", exponent=2.0), False),
    (IncreasingProcessSpec("oscillatory", {"base": det("identity"), "n": 4}), False),
    (IncreasingProcessSpec("running_max", {}), True),
    (IncreasingProcessSpec("time_integral", {"functional": "inv_quadratic"}), True)])
def test_deterministic_A_is_one_stored_row(spec, random):
    ens = simulate_brownian(GRID, 40, seed=6)
    out = realize_increasing_process(spec, ens)
    assert out.A.shape == (40, 33) and not out.A.flags.writeable
    if random:
        # built node-major, as W is
        assert is_node_major(out.A) and not out.A.flags.c_contiguous
        return
    row = stored_rows(out.A)
    assert row.shape == (1, 33) and not row.flags.writeable
    assert np.all(out.A == row)
    # the row is what a per-path realization gives every path
    nodes = GRID.nodes
    want = nodes ** 2 if spec.kind == "deterministic" \
        else nodes + np.sin(2 * np.pi * 4 * nodes) / (16 * np.pi)
    assert np.array_equal(row[0], want)


def test_ensemble_keeps_a_broadcast_A_and_copies_any_other_layout():
    ens = simulate_brownian(GRID, 5, seed=7)
    row = np.linspace(0.0, 1.0, 33)
    broadcast = np.broadcast_to(row, (5, 33))
    assert PathEnsemble(GRID, ens.W, 7, A=broadcast).A is broadcast
    # a node-major stack is kept as it is, a C-order one copied node-major
    by_node = node_major(np.tile(row, (5, 1)))
    assert PathEnsemble(GRID, ens.W, 7, A=by_node).A is by_node
    by_path = np.tile(row, (5, 1))
    kept = PathEnsemble(GRID, ens.W, 7, A=by_path).A
    assert is_node_major(kept) and not kept.flags.writeable
    assert np.array_equal(kept, by_path)
    with pytest.raises(ValueError, match="n_paths, n_nodes"):
        PathEnsemble(GRID, ens.W, 7, A=np.broadcast_to(row, (4, 33)))


@pytest.mark.parametrize("d", [1, 2])
def test_ensemble_is_node_major_from_birth(monkeypatch, d):
    # simulate_brownian builds W node-major with the bits of a C-order fill
    # (the draws in path-major order, each path's cumulative sum), and the
    # ensemble keeps it; a C-order W of more than one path is copied once
    copies = spy_on_node_major(monkeypatch)
    ens = simulate_brownian(GRID, 300, d=d, seed=8)
    assert is_node_major(ens.W) and not ens.W.flags.writeable and copies == []
    by_path = one_shot_brownian(GRID, 300, d, 8)
    assert np.array_equal(ens.W.view(np.uint64), by_path.view(np.uint64))
    copied = PathEnsemble(GRID, by_path, 8)
    assert copies == [(300, 33, d)] and is_node_major(copied.W)
    assert np.array_equal(copied.W, ens.W)
    # one path is node-major in either layout
    assert PathEnsemble(GRID, by_path[:1], 8).W.base is by_path and len(copies) == 1


def test_monotonicity_violations_raise(monkeypatch):
    ens = simulate_brownian(GRID, 2, seed=0)
    with pytest.raises(MonotonicityError):
        realize_increasing_process(det(lambda t, p: -t), ens)
    with pytest.raises(MonotonicityError):
        realize_increasing_process(det(lambda t, p: t + 1.0), ens)
    # the same through a named shape; setitem removes the names afterwards
    for name, shape in (("falling", lambda t, p: -t), ("lifted", lambda t, p: t + 1.0)):
        monkeypatch.setitem(stochastic_engine._DET_SHAPES, name, shape)
        with pytest.raises(MonotonicityError):
            realize_increasing_process(det(name), ens)
    # an oscillation too strong for its base slope, deterministic or random
    for weak in (det("linear", rate=0.25),
                 IncreasingProcessSpec("time_integral", {"functional": "constant",
                                                         "value": 0.25})):
        with pytest.raises(MonotonicityError, match="decreasing path"):
            realize_increasing_process(
                IncreasingProcessSpec("oscillatory", {"base": weak, "n": 4}), ens)
    # the check compares neighbours, b < a, which is b - a < 0 for every pair
    # of doubles, infinities, NaN, signed zeros and subnormals among them
    tiny = np.nextafter(0.0, 1.0)
    specials = np.array([-np.inf, -1.0, -tiny, -0.0, 0.0, tiny, 2 * tiny, 1.0,
                         np.finfo(float).max, np.inf, np.nan])
    a, b = np.meshgrid(specials, specials)
    with np.errstate(invalid="ignore"):
        assert np.array_equal(b < a, b - a < 0.0)



def test_time_integral_refuses_a_negative_functional():
    spec = IncreasingProcessSpec("time_integral",
                                 {"functional": lambda w, p: np.full(w.shape[0], -1.0)})
    with pytest.raises(MonotonicityError, match="^time_integral functional went negative$"):
        realize_increasing_process(spec, simulate_brownian(GRID, 2, seed=0))


def test_deterministic_shape_needs_one_value_per_node():
    with pytest.raises(ValueError, match="^deterministic shape must return one value per node$"):
        realize_increasing_process(det(lambda t, p: t[:-1]), simulate_brownian(GRID, 2, seed=0))


def simulation_refusal(n_paths=3, d=1, seed=0):
    return re.escape(f"need integers n_paths >= 1, d >= 1 and 0 <= seed < 2**64, "
                     f"got n_paths={n_paths!r}, d={d!r}, seed={seed!r}")


@pytest.mark.parametrize("n_paths, d", [(0, 1), (1, 0)])
def test_simulate_brownian_needs_a_path_and_a_dimension(n_paths, d):
    with pytest.raises(ValueError, match=f"^{simulation_refusal(n_paths, d)}$"):
        simulate_brownian(GRID, n_paths, d=d)


# a fractional seed used to run as its floor, a seed outside the Philox key
# range raised OverflowError and a fractional n_paths TypeError
@pytest.mark.parametrize("kwargs", [{"seed": 1.5}, {"seed": -1}, {"seed": 2 ** 64},
                                    {"seed": True}, {"n_paths": 2.5}], ids=repr)
def test_simulate_brownian_refuses_what_is_not_an_integer(kwargs):
    with pytest.raises(ValueError, match=f"^{simulation_refusal(**kwargs)}$"):
        simulate_brownian(GRID, **{"n_paths": 3, **kwargs})


def test_simulate_brownian_takes_every_philox_key():
    for seed in (np.int64(5), np.uint64(2 ** 64 - 1), 2 ** 64 - 1):
        ens = simulate_brownian(GRID, 3, seed=seed)
        assert ens.seed == int(seed) and type(ens.seed) is int


def test_spec_refuses_unknown_kinds_down_the_base_chain():
    with pytest.raises(ValueError, match="unknown increasing-process kind"):
        IncreasingProcessSpec("nosuch", {})
    with pytest.raises(ValueError, match="'nosuch'"):
        IncreasingProcessSpec("oscillatory", {"n": 2, "base": {"kind": "nosuch"}})
    with pytest.raises(ValueError, match="base spec and n"):
        IncreasingProcessSpec("oscillatory", {"n": 2})
    with pytest.raises(ValueError, match="base spec and n"):
        IncreasingProcessSpec("oscillatory", {"base": {"kind": "running_max"}})
    with pytest.raises(ValueError, match="'bogus'"):
        IncreasingProcessSpec("deterministic", {"shape": "bogus"})
    with pytest.raises(ValueError, match="'bogus'"):
        IncreasingProcessSpec("time_integral", {"functional": "bogus"})
    with pytest.raises(ValueError, match="'bogus'"):
        IncreasingProcessSpec("oscillatory", {"n": 2, "base": {
            "kind": "time_integral", "params": {"functional": "bogus"}}})
    # callables are not looked up, and a name only counts for its own kind:
    # a running_max A reads no shape, so its shape is refused unread
    IncreasingProcessSpec("deterministic", {"shape": lambda t, params: t})
    with pytest.raises(ValueError, match="^the running_max A reads no param 'shape'"):
        IncreasingProcessSpec("running_max", {"shape": "bogus"})


@pytest.mark.parametrize("kind, params", [
    ("oscillatory", {"n": 2.5}),
    ("oscillatory", {"n": 0}),
    ("oscillatory", {"n": True}),
    ("oscillatory", {"n": "2"}),
    ("running_max", {"component": 0.7}),
    ("running_max", {"component": -1}),
])
def test_spec_refuses_fractional_or_out_of_range_integer_params(kind, params):
    # at n = 2.5 an oscillatory A would realize n = 2, at component 0.7 read component 0
    if kind == "oscillatory":
        params = {**params, "base": det("identity")}
    with pytest.raises(ValueError, match="needs an integer"):
        IncreasingProcessSpec(kind, params)
    with pytest.raises(ValueError, match="needs an integer"):
        IncreasingProcessSpec("oscillatory", {"n": 2, "base": {"kind": kind, "params": params}})


@pytest.mark.parametrize("entry, message", [
    ({"kind": "deterministic", "params": {"shape": "linear", "rat": 2.0}},
     "the deterministic shape 'linear' reads no param 'rat'; it reads rate, shape"),
    ({"kind": "deterministic", "params": {"rate": 2.0}},
     "the deterministic shape 'identity' reads no param 'rate'; it reads shape"),
    ({"kind": "running_max", "params": {"componnt": 0}},
     "the running_max A reads no param 'componnt'; it reads component"),
    ({"kind": "time_integral", "params": {"functional": "constant", "scale": 2.0}},
     "the time_integral functional 'constant' reads no param 'scale'; it reads functional, value"),
    ({"kind": "oscillatory", "params": {"n": 2, "m": 3, "base": {"kind": "running_max"}}},
     "the oscillatory A reads no param 'm'; it reads base, n"),
    ({"kind": "oscillatory", "params": {"n": 2, "base": {"kind": "time_integral",
                                                         "params": {"rate": 2.0}}}},
     "the time_integral functional 'constant' reads no param 'rate'; it reads "
     "functional, value"),
    ({"kind": "deterministic", "parms": {"shape": "linear"}},
     "an A entry takes only kind and params, got 'parms'"),
    ({"kind": "oscillatory", "params": {"n": 2, "base": {"kind": "running_max", "param": {}}}},
     "an A entry takes only kind and params, got 'param'"),
], ids=["linear-rat", "identity-rate", "running_max-componnt", "constant-scale",
        "oscillatory-m", "base-rate", "entry-parms", "base-entry-param"])
def test_spec_refuses_a_key_it_does_not_read(entry, message):
    # each used to be read as its default: a rate of 1, component 0, or no
    # params at all; a callable shape or functional may read any params
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IncreasingProcessSpec.from_dict(entry)
    IncreasingProcessSpec("deterministic", {"shape": lambda t, params: t, "rat": 2.0})
    IncreasingProcessSpec("time_integral", {"functional": lambda w, params: w[:, 0] ** 2,
                                            "scale": 2.0})


def test_spec_check_dimension_follows_the_base_chain():
    spec = IncreasingProcessSpec("oscillatory", {"n": 2, "base": {
        "kind": "running_max", "params": {"component": 1}}})
    spec.check_dimension(2)
    with pytest.raises(ValueError, match="component 1, so needs d > 1"):
        spec.check_dimension(1)
    IncreasingProcessSpec("time_integral", {}).check_dimension(1)


def test_spec_dict_base_becomes_a_spec():
    raw = {"kind": "running_max", "params": {}}
    params = {"n": 2, "base": {"kind": "oscillatory", "params": {"n": 3, "base": raw}}}
    spec = IncreasingProcessSpec("oscillatory", params)
    assert isinstance(params["base"], dict)     # the caller's dict is not changed
    inner = spec.params["base"]
    assert isinstance(inner, IncreasingProcessSpec)
    assert isinstance(inner.params["base"], IncreasingProcessSpec)
    assert spec.is_random and inner.is_random
    assert not IncreasingProcessSpec("oscillatory", {"n": 2, "base": det("identity")}).is_random
    assert IncreasingProcessSpec("time_integral", {}).is_random


# ---------------------------------------------------------------- omega_delta

def test_omega_delta_values():
    g = TimeGrid.uniform(1.0, 10)

    def carrying(A):
        """An ensemble (W = 0) whose paths carry the rows of A."""
        A = np.atleast_2d(A)
        return PathEnsemble(g, np.zeros(A.shape + (1,)), seed=0, A=A)

    assert omega_delta(carrying(g.nodes), 0.3) == pytest.approx([0.3], abs=1e-12)
    assert np.array_equal(omega_delta(carrying(np.zeros(11)), 0.3), [0.0])
    # A = t^2: window increment 0.6 t + 0.09 peaks at t = 0.7
    assert omega_delta(carrying(g.nodes ** 2), 0.3) == pytest.approx([0.51], abs=1e-12)
    out = omega_delta(carrying(np.stack([g.nodes, g.nodes ** 2])), 0.3)
    assert out == pytest.approx([0.3, 0.51], abs=1e-12)
    # a broadcast A: one gap per path, as from the full stack
    broadcast = np.broadcast_to(g.nodes ** 2, (3, 11))
    assert np.array_equal(omega_delta(carrying(broadcast), 0.3),
                          omega_delta(carrying(np.array(broadcast)), 0.3))
    with pytest.raises(ValueError):
        omega_delta(carrying(g.nodes), 1.5)


# ---------------------------------------------------------------- regression

def test_conditional_expectation_martingale():
    # E[W(T) | F_t] = W(t); fitted values track the state
    g = TimeGrid.uniform(1.0, 4)
    ens = simulate_brownian(g, 20000, seed=21)
    basis = RegressionBasis(degree=2)
    fitted = conditional_expectation(ens.W[:, -1, 0], basis, ens, step=2)
    rmse = np.sqrt(np.mean((fitted - ens.W[:, 2, 0]) ** 2))
    assert rmse <= 0.02


def test_conditional_expectation_squared_brownian():
    # E[W(T)^2 | F_t] = W(t)^2 + (T - t): coefficients (T-t, 0, 1)
    g = TimeGrid.uniform(1.0, 4)
    ens = simulate_brownian(g, 40000, seed=22)
    basis = RegressionBasis(degree=2)
    _, theta = conditional_expectation(ens.W[:, -1, 0] ** 2, basis, ens, step=2,
                                       return_coefficients=True)
    assert theta[0] == pytest.approx(0.5, abs=0.05)
    assert theta[1] == pytest.approx(0.0, abs=0.05)
    assert theta[2] == pytest.approx(1.0, abs=0.05)


def test_conditional_expectation_constant_exact():
    ens = simulate_brownian(GRID, 500, seed=4)
    fitted = conditional_expectation(np.full(500, 3.25), RegressionBasis(2), ens, step=7)
    assert np.allclose(fitted, 3.25, atol=1e-9)


def test_conditional_expectation_step_zero_is_mean():
    ens = simulate_brownian(GRID, 1000, seed=6)
    targets = ens.W[:, -1, 0] ** 2
    fitted, theta = conditional_expectation(targets, RegressionBasis(2), ens, 0,
                                            return_coefficients=True)
    assert np.allclose(fitted, targets.mean(), atol=1e-14)
    assert theta[1] == 0.0 and theta[2] == 0.0


def test_singular_design_raises_without_ridge():
    ens = simulate_brownian(GRID, 100, seed=8)
    dup = ens.W[:, 5, 0]
    with pytest.raises(SingularSystemError):
        conditional_expectation(ens.W[:, -1, 0], RegressionBasis(1, ridge=0.0),
                                ens, 5, extra_features=[dup])
    out = conditional_expectation(ens.W[:, -1, 0], RegressionBasis(1, ridge=1e-10),
                                  ens, 5, extra_features=[dup])
    assert np.all(np.isfinite(out))
    for ridge in (-1e-10, np.inf):
        with pytest.raises(ValueError, match="ridge >= 0"):
            RegressionBasis(1, ridge=ridge)
    with pytest.raises(ValueError, match="degree >= 0"):
        RegressionBasis(-1)


# a fractional degree used to raise TypeError in the first design, and True
# ran as degree 1
@pytest.mark.parametrize("degree", [2.5, True])
def test_regression_basis_refuses_a_degree_that_is_not_an_integer(degree):
    with pytest.raises(ValueError, match=re.escape(f"integer degree >= 0 and ridge >= 0, got degree={degree!r},")):
        RegressionBasis(degree)


def test_residuals_orthogonal_to_features():
    ens = simulate_brownian(GRID, 5000, seed=10)
    basis = RegressionBasis(2, ridge=0.0)
    design = basis.design(ens.W[:, 6, :])
    targets = ens.W[:, -1, 0] ** 3
    theta = fit_least_squares(design, targets, ridge=0.0)
    resid = targets - design @ theta
    assert np.max(np.abs(design.T @ resid)) <= 1e-8 * np.abs(targets).sum()


def design_loop(w_t, degree, extras):
    """Reference design: every monomial a running product from a column of ones."""
    n, d = w_t.shape
    cols = [np.ones(n)]
    for deg in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(d), deg):
            col = np.ones(n)
            for j in combo:
                col = col * w_t[:, j]
            cols.append(col)
    for extra in extras:
        cols.extend(extra.reshape(n, -1).T)
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("d, degree", [(1, 1), (1, 3), (2, 2), (3, 3)])
def test_design_matches_monomial_loop(d, degree):
    ens = simulate_brownian(GRID, 50, d=d, seed=16)
    w_t = ens.W[:, 6, :]
    extras = [ens.W[:, 3, 0], np.stack([ens.W[:, 2, 0], ens.W[:, 9, -1]], axis=1)]
    for ex in ([], extras):
        design = RegressionBasis(degree).design(w_t, ex)
        assert design.flags.f_contiguous
        assert np.array_equal(design, design_loop(w_t, degree, ex))


def test_multi_rhs_matches_separate_fits():
    ens = simulate_brownian(GRID, 3000, seed=12)
    design = RegressionBasis(2).design(ens.W[:, 4, :])
    t1 = ens.W[:, -1, 0]
    t2 = ens.W[:, -1, 0] ** 2
    both = fit_least_squares(design, np.stack([t1, t2], axis=1), ridge=1e-10)
    assert np.allclose(both[:, 0], fit_least_squares(design, t1, 1e-10), atol=1e-12)
    assert np.allclose(both[:, 1], fit_least_squares(design, t2, 1e-10), atol=1e-12)


@pytest.mark.parametrize("step, width, random_A", [
    (5, None, False), (5, 3, False), (0, None, False), (0, 2, False),
    (5, None, True), (9, 2, True)])
def test_plan_fit_matches_conditional_expectation(step, width, random_A):
    ens = simulate_brownian(GRID, 700, d=2, seed=14)
    extras = None
    if random_A:
        ens = realize_increasing_process(IncreasingProcessSpec("running_max", {}), ens)
        extras = [ens.A[:, step]]
    rng = np.random.default_rng(15)
    targets = ens.W[:, -1, 0] ** 2 + rng.normal(size=700)
    if width is not None:
        targets = targets[:, None] + rng.normal(size=(700, width))
    basis = RegressionBasis(2)
    want_fit, want_theta = conditional_expectation(
        targets, basis, ens, step, extra_features=extras, return_coefficients=True)
    # the plan adds a random A's column by itself
    plan = RegressionPlan(basis, ens)
    design = plan.design(step)
    # a second fit at the node reuses the cached normal matrix
    for _ in range(2):
        fit, theta = plan.fit(step, design, targets)
        assert np.array_equal(fit, want_fit) and np.array_equal(theta, want_theta)
    assert design.shape[1] == 6 + random_A


def test_plan_designs_read_node_major_blocks_of_the_ensemble():
    ens = realize_increasing_process(IncreasingProcessSpec("running_max", {}),
                                     simulate_brownian(GRID, 300, d=2, seed=16))
    plan = RegressionPlan(RegressionBasis(2), ens)
    W, A = ens.W, ens.A
    # a solve's dA: the increments its norm weights take of the ensemble's A
    dA = norm_weights(A, GRID, 0.0, 0.0)[1]
    assert not (W.flags.writeable or A.flags.writeable)
    for i in range(GRID.n_steps):
        assert W[:, i].flags.c_contiguous and A[:, i].flags.c_contiguous
        # 1, the two components of W(t_i), their three products, then A(t_i)
        design = plan.design(i)
        assert np.array_equal(design[:, 1:3], W[:, i]) and np.array_equal(design[:, -1], A[:, i])
        assert dA[:, i].flags.c_contiguous
        assert np.array_equal(dA[:, i], ens.A[:, i + 1] - ens.A[:, i])


def test_plan_serves_the_ensembles_that_hold_its_regression_state():
    driving = simulate_brownian(GRID, 100, seed=30)
    running_max = IncreasingProcessSpec("running_max", {})
    det_A = realize_increasing_process(det("identity"), driving)
    plan = RegressionPlan(RegressionBasis(2), det_A)
    # a deterministic A is not part of the state, whichever it is
    other_det_A = realize_increasing_process(
        IncreasingProcessSpec("oscillatory", {"base": det("identity"), "n": 2}), driving)
    assert not plan.reads_A
    assert plan.serves(det_A) and plan.serves(other_det_A) and plan.serves(driving)
    # another W object, even with the same values, or a random A
    assert not plan.serves(PathEnsemble(grid=GRID, W=driving.W.copy(), seed=30))
    random_A = realize_increasing_process(running_max, driving)
    assert not plan.serves(random_A)
    random_plan = RegressionPlan(RegressionBasis(2), random_A)
    assert random_plan.reads_A and random_plan.serves(random_A)
    assert not (random_plan.serves(det_A) or random_plan.serves(driving))
    # the same W with another random A object
    assert not random_plan.serves(realize_increasing_process(running_max, driving))
    assert not random_plan.serves(replace(random_A, A=random_A.A.copy()))


def offset_copy(X, offset, order):
    """X copied, in the given memory order, into a buffer starting ``offset``
    doubles past an allocation's start."""
    out = np.empty(X.size + offset)[offset:].reshape(X.shape, order=order)
    out[...] = X
    return out


def test_fit_bits_ignore_design_layout_and_alignment():
    ens = simulate_brownian(GRID, 20000, d=2, seed=17)
    rng = np.random.default_rng(18)
    target = ens.W[:, -1, 0] ** 2 + rng.normal(size=20000)
    targets = np.stack([target, ens.W[:, -1, 1] + rng.normal(size=20000)], axis=1)
    basis = RegressionBasis(2)
    design = basis.design(ens.W[:, 7, :])
    # fit_least_squares copies a C-ordered design into the column-major layout
    for t in (target, targets):
        assert np.array_equal(fit_least_squares(np.ascontiguousarray(design), t, 1e-10),
                              fit_least_squares(design, t, 1e-10))
    want_fit, want_theta = RegressionPlan(basis, ens).fit(7, design, targets)
    for offset in range(1, 8):
        for order in "CF":
            # a fresh plan builds its Gram matrix from the shifted design
            fit, theta = RegressionPlan(basis, ens).fit(
                7, offset_copy(design, offset, "F"), offset_copy(targets, offset, order))
            assert np.array_equal(fit, want_fit) and np.array_equal(theta, want_theta)
    # against the identity normal matrix the coefficients are the right-hand side
    rhs = stochastic_engine._solve_normal(np.eye(design.shape[1]), design, targets)
    for i, q in itertools.product(range(design.shape[1]), range(2)):
        terms = design[:, i] * targets[:, q]
        assert abs(rhs[i, q] - math.fsum(terms)) <= 1e-12 * math.fsum(np.abs(terms))


def test_plan_singular_design_raises_on_every_fit():
    # a constant-rate time_integral A is random in kind only: A(t_i) = t_i on
    # every path, so the plan's A column is collinear with the intercept
    ens = realize_increasing_process(
        IncreasingProcessSpec("time_integral", {"functional": "constant"}),
        simulate_brownian(GRID, 100, seed=8))
    assert np.all(ens.A[:, 5] == ens.A[0, 5])
    plan = RegressionPlan(RegressionBasis(1, ridge=0.0), ens)
    for _ in range(2):
        with pytest.raises(SingularSystemError):
            plan.fit(5, plan.design(5), ens.W[:, -1, 0])
    with pytest.raises(ValueError, match="one row per path"):
        plan.fit(5, plan.design(5), np.zeros(99))


@pytest.mark.parametrize("ridge", [1e-10, 0.0])
def test_plan_fit_bits_match_linalg_solve(ridge):
    # the first fit at a node solves through np.linalg.solve, later ones call
    # its LAPACK routine directly: both give np.linalg.solve's bits
    ens = simulate_brownian(GRID, 500, d=2, seed=21)
    plan = RegressionPlan(RegressionBasis(2, ridge=ridge), ens)
    rng = np.random.default_rng(22)
    targets = [rng.normal(size=500), rng.normal(size=(500, 1)), rng.normal(size=(500, 4))]
    for step in (0, 7, 31):
        design = plan.design(step)
        for t in targets * 2:
            fit, theta = plan.fit(step, design, t)
            t2d = t.reshape(500, -1)
            if step == 0:
                want = np.zeros((design.shape[1], t2d.shape[1]))
                want[0] = t2d.mean(axis=0)
            else:
                gram = stochastic_engine._normal_matrix(design, ridge)
                rhs = np.einsum("in,qn->iq", design.T, np.ascontiguousarray(t2d.T),
                                optimize=False)
                want = np.linalg.solve(gram, rhs)
            want = want.reshape(theta.shape)
            assert np.array_equal(theta, want) and np.array_equal(fit, design @ want)


# ---------------------------------------------------------------- adaptedness

def test_splice_preserves_past():
    ens = simulate_brownian(GRID, 200, seed=13)
    ens = realize_increasing_process(IncreasingProcessSpec("running_max", {}), ens)
    rng = np.random.default_rng(0)
    perm = rng.permutation(200)
    step = 12
    spliced = splice_future(ens, step, perm)
    assert np.array_equal(spliced.W[:, : step + 1, :], ens.W[:, : step + 1, :])
    assert np.array_equal(spliced.A[:, : step + 1], ens.A[:, : step + 1])
    assert not np.array_equal(spliced.W[:, step + 1:, :], ens.W[:, step + 1:, :])


def test_regression_evaluation_invariant_under_future_splice():
    # coefficients fitted once define a map of step-i features only
    ens = simulate_brownian(GRID, 400, seed=14)
    basis = RegressionBasis(2)
    step = 9
    fitted, theta = conditional_expectation(ens.W[:, -1, 0], basis, ens, step,
                                            return_coefficients=True)
    spliced = splice_future(ens, step, np.random.default_rng(1).permutation(400))
    replayed = basis.design(spliced.W[:, step, :]) @ theta
    assert np.array_equal(replayed, fitted)
