"""Grid-path calculus: grids, variation, Stieltjes sums, delay windows.

Expected values come from independent oracles written here: brute-force
partition loops and refining Riemann-Stieltjes sums.
"""

import numpy as np
import pytest

from delaybsde import path_calculus
from delaybsde.errors import GridAlignmentError
from delaybsde.path_calculus import (
    TimeGrid,
    cumulative_stieltjes,
    delay_windows,
    node_major,
    node_major_zeros,
    stored_rows,
    total_variation,
)

from layouts import plain_node_major


# ---------------------------------------------------------------- oracles

def tv_bruteforce(values):
    """Monotone-piece partition sum, written as an explicit loop."""
    tot = 0.0
    for a, b in zip(values[:-1], values[1:]):
        tot += abs(b - a)
    return tot


def stieltjes_bruteforce(x_vals, eta_vals, policy="left"):
    tot = 0.0
    for i in range(len(x_vals) - 1):
        xv = x_vals[i] if policy == "left" else x_vals[i + 1]
        tot += xv * (eta_vals[i + 1] - eta_vals[i])
    return tot


def on_grid(T, M, f):
    """f at the nodes of the uniform grid of M steps on [0, T]."""
    return f(TimeGrid.uniform(T, M).nodes)


# ---------------------------------------------------------------- grids

def test_grid_requires_zero_start_and_increase():
    with pytest.raises(GridAlignmentError):
        TimeGrid(np.array([0.1, 0.5, 1.0]))
    with pytest.raises(GridAlignmentError):
        TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))
    # a NaN step compares False both ways, and an infinite node gives T = inf
    for nodes in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf]):
        with pytest.raises(GridAlignmentError, match="finite and strictly increasing"):
            TimeGrid(np.array(nodes))
    for nodes in ([0.0], [], [[0.0, 1.0]]):
        with pytest.raises(GridAlignmentError, match="^grid needs at least two nodes$"):
            TimeGrid(np.array(nodes))


def test_grid_delta_alignment():
    g = TimeGrid.uniform(1.0, 50, delta=0.1)
    assert g.delta_index_offset == 5
    with pytest.raises(GridAlignmentError):
        TimeGrid.uniform(1.0, 50, delta=1 / 3)
    with pytest.raises(GridAlignmentError):
        TimeGrid.uniform(1.0, 50, delta=1.5)
    with pytest.raises(GridAlignmentError, match="^delayed lookups require a uniform grid$"):
        TimeGrid(np.array([0.0, 0.1, 0.3, 1.0]), delta=0.1)


@pytest.mark.parametrize("n_steps", [20.5, 20.0, True, 0, -3, "20"])
def test_uniform_grid_refuses_a_step_count_that_is_not_an_integer(n_steps):
    # 20.5 and True used to be truncated to 20 steps and 1 step, and "20" read
    with pytest.raises(ValueError, match=f"^n_steps must be an integer >= 1, got {n_steps!r}$"):
        TimeGrid.uniform(1.0, n_steps, delta=0.1)


def test_grid_accepts_full_window_delta_with_rounding():
    # T * n / n rounds one ulp above T here; the window is still n steps
    T, n = 39.56073760172803, 105
    assert T * n / n > T
    assert TimeGrid.uniform(T, n, delta=T * n / n).delta_index_offset == n


# ---------------------------------------------------------------- variation

def test_total_variation_monotone_is_endpoint_difference():
    assert total_variation(on_grid(1.0, 137, lambda t: t ** 2)) == pytest.approx(1.0, abs=1e-12)


def test_total_variation_constant_is_zero():
    assert total_variation(on_grid(1.0, 64, lambda t: np.full_like(t, 3.25))) == 0.0


def test_total_variation_sine_refines_to_four():
    # grid holding the extrema 0.25 and 0.75 hits the limit exactly
    sine = lambda t: np.sin(2 * np.pi * t)
    assert total_variation(on_grid(1.0, 100, sine)) == pytest.approx(4.0, abs=1e-12)
    # refinement is monotone nondecreasing toward 4
    prev = 0.0
    for M in (7, 23, 101, 1001):
        v = total_variation(on_grid(1.0, M, sine))
        assert v >= prev - 1e-12
        prev = v
    assert prev == pytest.approx(4.0, abs=1e-4)


def test_total_variation_matches_bruteforce():
    # one row, and each row of a stack
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(41)
    assert total_variation(vals) == pytest.approx(tv_bruteforce(vals), abs=1e-12)
    stack = rng.standard_normal((3, 2, 41))
    got = total_variation(stack)
    assert got.shape == (3, 2)
    for idx in np.ndindex(3, 2):
        assert got[idx] == pytest.approx(tv_bruteforce(stack[idx]), abs=1e-12)


def test_total_variation_additive_over_intervals():
    g = TimeGrid.uniform(2.0, 80)
    vals = np.sin(3 * g.nodes) + 0.5 * g.nodes
    i = 30   # t_30 = 0.75
    split = total_variation(vals[:i + 1]) + total_variation(vals[i:])
    assert split == pytest.approx(total_variation(vals), abs=1e-12)


def test_total_variation_of_a_node_slice():
    # the variation over [t_3, t_7] is that of the slice of nodes 3 .. 7;
    # a one-node slice (s = t) has none, on one row and on a stack
    vals = np.random.default_rng(6).standard_normal((3, 11))
    for row in vals:
        assert total_variation(row[3:8]) == pytest.approx(tv_bruteforce(row[3:8]), abs=1e-12)
    assert total_variation(vals[0, 4:5]) == 0.0
    assert np.array_equal(total_variation(vals[:, 4:5]), np.zeros(3))


def bv_size(eta):
    """|eta(0)| + total variation over the whole grid, for a scalar row."""
    return abs(float(eta[0])) + total_variation(eta)


def test_bv_norm():
    assert bv_size(np.linspace(2.0, 3.0, 11)) == pytest.approx(3.0, abs=1e-12)
    assert bv_size(np.full(11, -1.5)) == pytest.approx(1.5, abs=1e-12)


def test_bv_norm_lower_semicontinuous_on_families():
    # eta_n -> eta uniformly, |eta(0)| + TV(eta) <= min over tail + 1e-9
    t = TimeGrid.uniform(1.0, 2048).nodes
    for make, limit in [
        (lambda n, t: t + np.sin(2 * np.pi * n * t) / (4 * np.pi * n), lambda t: t),
        (lambda n, t: np.sin(2 * np.pi * n * t) / (4 * np.pi * n), lambda t: 0 * t),
        (lambda n, t: t ** 2 + np.sin(2 * np.pi * t) / n, lambda t: t ** 2),
    ]:
        tail = [bv_size(make(n, t)) for n in (8, 16, 32)]
        assert bv_size(limit(t)) <= min(tail) + 1e-9


# ---------------------------------------------------------------- Stieltjes

def test_stieltjes_constant_integrand_telescopes():
    x = on_grid(1.0, 57, lambda t: np.ones_like(t))
    eta = on_grid(1.0, 57, lambda t: np.exp(t) - 1.0)
    assert cumulative_stieltjes(x, eta)[-1] == pytest.approx(np.e - 1.0, abs=1e-12)


def test_stieltjes_t_against_t_squared():
    # refining left sums approach int_0^1 t d(t^2) = 2/3 from below, O(1/M)
    errs = []
    for M in (100, 400, 1600):
        x = on_grid(1.0, M, lambda t: t)
        eta = on_grid(1.0, M, lambda t: t ** 2)
        val = cumulative_stieltjes(x, eta)[-1]
        assert val == pytest.approx(stieltjes_bruteforce(x, eta), abs=1e-12)
        errs.append(2.0 / 3.0 - val)
    assert all(e > 0 for e in errs)
    assert errs[2] < errs[0] / 3.0
    assert abs(errs[2]) < 1e-3


def test_stieltjes_jump_measure_picks_jump_node():
    # eta right-continuous unit step at 0.5: the measure is a point mass there
    x = on_grid(1.0, 10, lambda t: t)
    eta = on_grid(1.0, 10, lambda t: (t >= 0.5).astype(float))
    assert cumulative_stieltjes(x, eta, policy="jump")[-1] == pytest.approx(0.5, abs=1e-15)
    # the left policy lands one node early
    assert cumulative_stieltjes(x, eta, policy="left")[-1] == pytest.approx(0.4, abs=1e-15)


def test_stieltjes_exact_for_step_integrator_many_jumps():
    t = TimeGrid.uniform(1.0, 20).nodes
    jumps = {5: 0.75, 12: -0.25, 20: 1.5}
    vals = np.zeros(21)
    for j, s in jumps.items():
        vals[j:] += s
    expected = sum(s * np.cos(t[j]) for j, s in jumps.items())
    assert cumulative_stieltjes(np.cos(t), vals, policy="jump")[-1] == \
        pytest.approx(expected, abs=1e-14)


def test_stieltjes_bilinear():
    t = TimeGrid.uniform(1.0, 33).nodes
    x1, x2 = np.sin(t), t ** 2
    eta1, eta2 = np.exp(t) - 1, np.cos(t) - 1
    lhs = cumulative_stieltjes(2.0 * x1 - 3.0 * x2, eta1)[-1]
    rhs = 2.0 * cumulative_stieltjes(x1, eta1)[-1] - 3.0 * cumulative_stieltjes(x2, eta1)[-1]
    assert lhs == pytest.approx(rhs, abs=1e-12)
    lhs2 = cumulative_stieltjes(x1, eta1 + 0.5 * eta2)[-1]
    rhs2 = cumulative_stieltjes(x1, eta1)[-1] + 0.5 * cumulative_stieltjes(x1, eta2)[-1]
    assert lhs2 == pytest.approx(rhs2, abs=1e-12)


def test_stieltjes_vector_componentwise_sum():
    # a vector pair as a stack of component rows: sum_i int x_i deta_i
    t = TimeGrid.uniform(1.0, 50).nodes
    xv = np.stack([t, np.ones_like(t)])
    ev = np.stack([t ** 2, 2.0 * t])
    expected = stieltjes_bruteforce(xv[0], ev[0]) + stieltjes_bruteforce(xv[1], ev[1])
    assert cumulative_stieltjes(xv, ev)[..., -1].sum() == pytest.approx(expected, abs=1e-12)


def test_refinement_consistency_bound():
    # |coarse - fine| <= modulus of x on the coarse mesh * variation of eta
    f = lambda t: np.sin(2 * np.pi * t)
    e = lambda t: t ** 2
    i_fine = cumulative_stieltjes(on_grid(1.0, 1024, f), on_grid(1.0, 1024, e))[-1]
    i_coarse = cumulative_stieltjes(on_grid(1.0, 32, f), on_grid(1.0, 32, e))[-1]
    modulus = 2 * np.pi / 32  # sup |f'| * coarse mesh
    variation = 1.0
    assert abs(i_fine - i_coarse) <= modulus * variation + 1e-12


def test_cumulative_matches_scalar_calls():
    # inputs: every policy, on one path and on a (paths, nodes) stack
    g = TimeGrid.uniform(1.0, 25)
    rng = np.random.default_rng(12)
    single = (np.sin(g.nodes), g.nodes ** 2)
    stack = (rng.normal(size=(3, 26)), np.cumsum(rng.random((3, 26)), axis=1))
    for policy in ("left", "jump"):
        for xv, ev in (single, stack):
            run = cumulative_stieltjes(xv, ev, policy=policy)
            assert run.shape == xv.shape
            for row, (x_row, e_row) in enumerate(zip(np.atleast_2d(xv), np.atleast_2d(ev))):
                for i in (0, 7, 25):
                    direct = stieltjes_bruteforce(x_row[:i + 1], e_row[:i + 1], policy)
                    assert np.atleast_2d(run)[row, i] == pytest.approx(direct, abs=1e-13)


def _broadcast_cases():
    """(X, H) pairs whose integrator, and in one case integrand, is a
    broadcast view: stride 0 on the path axis, a (1, M+1) row, a scalar
    (stride 0 on the node axis too) and a 3-axis stack."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(4, 26))
    row = np.cumsum(rng.random(26))
    return [
        (X, np.broadcast_to(row, X.shape)),
        (X, row[None, :]),
        (X, np.broadcast_to(0.3, X.shape)),
        (X[:1], np.broadcast_to(row, X.shape)),
        (np.broadcast_to(X[0], X.shape), np.broadcast_to(row, X.shape)),
        (rng.normal(size=(2, 4, 26)), np.broadcast_to(row, (2, 4, 26))),
        (rng.normal(size=(2, 4, 26)),
         np.broadcast_to(np.cumsum(rng.random((4, 26)), axis=1), (2, 4, 26))),
    ]


@pytest.mark.parametrize("case", range(7))
@pytest.mark.parametrize("policy", ["left", "jump"])
def test_cumulative_stieltjes_same_bits_on_broadcast_inputs(case, policy):
    X, H = _broadcast_cases()[case]
    run = cumulative_stieltjes(X, H, policy)
    assert np.array_equal(run, cumulative_stieltjes(X, H.copy(), policy))
    assert np.array_equal(run, cumulative_stieltjes(X.copy(), H.copy(), policy))
    assert run.shape == np.broadcast_shapes(X.shape, H.shape)
    # total_variation differences the stored rows alone, with a copy's bits
    for stack in (X, H):
        tv = total_variation(stack)
        assert tv.shape == stored_rows(stack).shape[:-1]
        assert np.array_equal(np.broadcast_to(tv, stack.shape[:-1]), total_variation(stack.copy()))


@pytest.mark.parametrize("case", range(7))
def test_cumulative_stieltjes_matches_the_loop_oracle_on_broadcast_inputs(case):
    # every row of the broadcast pair, left and jump, against the python loop
    X, H = _broadcast_cases()[case]
    shape = np.broadcast_shapes(X.shape, H.shape)
    rows = zip(np.broadcast_to(X, shape).reshape(-1, 26),
               np.broadcast_to(H, shape).reshape(-1, 26))
    for x, h in rows:
        for policy in ("left", "jump"):
            run = cumulative_stieltjes(x, h, policy)
            want = [stieltjes_bruteforce(x[:k + 1], h[:k + 1], policy) for k in range(26)]
            assert run == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_stieltjes_refuses_a_grid_mismatch():
    # integrand and integrator on grids of different sizes do not pair up
    x = on_grid(1.0, 10, lambda t: t)
    eta = on_grid(1.0, 20, lambda t: t)
    for policy in ("left", "jump"):
        with pytest.raises(ValueError):
            cumulative_stieltjes(x, eta, policy)
        with pytest.raises(ValueError):
            cumulative_stieltjes(eta, x, policy)


@pytest.mark.parametrize("policy", ["midpoint", "right", "Left"])
def test_cumulative_stieltjes_refuses_an_unknown_policy(policy):
    x = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match=f"unknown evaluation policy '{policy}'"):
        cumulative_stieltjes(x, x ** 2, policy)


def test_stored_rows_cuts_only_leading_stride_zero_axes():
    row = np.arange(5.0)
    assert stored_rows(np.broadcast_to(row, (3, 5))).shape == (1, 5)
    assert stored_rows(np.broadcast_to(row, (2, 3, 5))).shape == (1, 1, 5)
    # a broadcast scalar has stride 0 on the node axis too; that axis stays
    scalar = stored_rows(np.broadcast_to(0.0, (3, 5)))
    assert scalar.shape == (1, 5) and not scalar.any()
    dense = np.ones((3, 5))
    assert stored_rows(dense).shape == (3, 5) and np.shares_memory(stored_rows(dense), dense)
    assert stored_rows(row).shape == (5,)


def test_cumulative_stieltjes_leaves_its_inputs_alone():
    rng = np.random.default_rng(22)
    X = rng.normal(size=(3, 26))
    for H in (np.cumsum(rng.random((3, 26)), axis=1),
              np.broadcast_to(np.linspace(0.0, 1.0, 26), X.shape)):
        X.flags.writeable = False
        if H.flags.writeable:
            H.flags.writeable = False
        X0, H0 = X.copy(), H.copy()
        for policy in ("left", "jump"):
            run = cumulative_stieltjes(X, H, policy)
            assert run.flags.writeable
            assert not np.shares_memory(run, X) and not np.shares_memory(run, H)
            assert np.all(run[..., 0] == 0.0)
            assert np.array_equal(X, X0) and np.array_equal(H, H0)
        for stack in (X, H):
            tv = total_variation(stack)
            assert tv.flags.writeable and not np.shares_memory(tv, stack)
            assert np.array_equal(X, X0) and np.array_equal(H, H0)


# ---------------------------------------------------------------- segments

def window_at(grid, x, i, kind="state"):
    """The delay window x(t_i + theta), theta in [-delta, 0], of a row x on
    grid, as delay_windows reads it."""
    return delay_windows(x[None], grid.delta_index_offset, kind)(i)[0]


def test_delayed_segment_interior():
    g = TimeGrid.uniform(1.0, 10, delta=0.2)
    values = window_at(g, g.nodes, 5)   # t_5 = 0.5
    assert g.delta_index_offset == 2
    assert np.allclose(values, [0.3, 0.4, 0.5], atol=1e-12)
    assert values[-1] == pytest.approx(0.5)


def test_delayed_segment_prolongation_conventions():
    g = TimeGrid.uniform(1.0, 10, delta=0.3)
    x = 1.0 + g.nodes
    state = window_at(g, x, 1, kind="state")   # t_1 = 0.1
    assert np.allclose(state, [1.0, 1.0, 1.0, 1.1], atol=1e-12)
    control = window_at(g, x, 0, kind="control")
    assert np.allclose(control, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("shape", [(7, 5), (7, 5, 2), (7, 5, 2, 3)])
def test_node_major_zeros_keeps_each_node_contiguous(shape):
    X = node_major_zeros(shape)
    assert X.shape == shape and X.dtype == np.float64 and not X.any()
    assert all(X[:, i].flags.c_contiguous for i in range(shape[1]))
    # the node blocks follow one another in memory
    assert X.strides[1] == X[:, 0].nbytes


def same_bits(a, b):
    return a.shape == b.shape and a.strides == b.strides and \
        np.ascontiguousarray(a).view(np.uint64).tobytes() == \
        np.ascontiguousarray(b).view(np.uint64).tobytes()


# a C-order W with a -0.0 and a NaN, a random A, a broadcast one-row A
NODE_MAJOR_CASES = {
    "W": lambda rng: np.where(rng.random((300, 21, 2)) < 0.01, -0.0,
                              rng.standard_normal((300, 21, 2))),
    "W-nan": lambda rng: np.where(rng.random((300, 21, 2)) < 0.01, np.nan,
                                  rng.standard_normal((300, 21, 2))),
    "random-A": lambda rng: np.cumsum(rng.exponential(size=(300, 21)), axis=1),
    "broadcast-A": lambda rng: np.broadcast_to(np.linspace(0.0, 1.0, 21), (300, 21)),
}


# tiles of 128 paths end on a partial tile of 44 at 300 paths
@pytest.mark.parametrize("tile", [None, 128])
@pytest.mark.parametrize("case", sorted(NODE_MAJOR_CASES))
def test_node_major_copies_the_stored_rows_bit_for_bit(monkeypatch, case, tile):
    if tile is not None:
        monkeypatch.setattr(path_calculus, "_TILE", tile)
    X = NODE_MAJOR_CASES[case](np.random.default_rng(3))
    copy = node_major(X)
    assert same_bits(copy, plain_node_major(X))
    assert copy.shape == stored_rows(X).shape and not copy.flags.writeable
    assert all(copy[:, i].flags.c_contiguous for i in range(21))

