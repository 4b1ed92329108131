"""Grid-path calculus: variation, Stieltjes sums, delay windows, step approximants.

Expected values come from independent oracles written here: brute-force
partition loops, refining Riemann-Stieltjes sums, and closed-form
antiderivatives for the oscillatory families.
"""

import numpy as np
import pytest

from delaybsde import path_calculus
from delaybsde.errors import GridAlignmentError
from delaybsde.path_calculus import (
    BVFunction,
    GridFunction,
    TimeGrid,
    cumulative_stieltjes,
    delay_windows,
    helly_bray_distance,
    node_major,
    node_major_zeros,
    stieltjes_integral,
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


def grid_fn(T, M, f, delta=None):
    g = TimeGrid.uniform(T, M, delta)
    return GridFunction(g, f(g.nodes))


def bv_fn(T, M, f, mode="linear"):
    g = TimeGrid.uniform(T, M)
    return BVFunction(g, f(g.nodes), mode=mode)


# ---------------------------------------------------------------- grids

def test_grid_requires_zero_start_and_increase():
    with pytest.raises(GridAlignmentError):
        TimeGrid(np.array([0.1, 0.5, 1.0]))
    with pytest.raises(GridAlignmentError):
        TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))


def test_grid_delta_alignment():
    g = TimeGrid.uniform(1.0, 50, delta=0.1)
    assert g.delta_index_offset == 5
    with pytest.raises(GridAlignmentError):
        TimeGrid.uniform(1.0, 50, delta=1 / 3)
    with pytest.raises(GridAlignmentError):
        TimeGrid.uniform(1.0, 50, delta=1.5)


def test_grid_accepts_full_window_delta_with_rounding():
    # T * n / n rounds one ulp above T here; the window is still n steps
    T, n = 39.56073760172803, 105
    assert T * n / n > T
    assert TimeGrid.uniform(T, n, delta=T * n / n).delta_index_offset == n


def test_index_of():
    g = TimeGrid.uniform(2.0, 40)
    assert g.index_of(0.0) == 0
    assert g.index_of(1.05) == 21
    with pytest.raises(GridAlignmentError):
        g.index_of(1.02)


# ---------------------------------------------------------------- variation

def test_total_variation_monotone_is_endpoint_difference():
    eta = bv_fn(1.0, 137, lambda t: t ** 2)
    assert total_variation(eta) == pytest.approx(1.0, abs=1e-12)


def test_total_variation_constant_is_zero():
    eta = bv_fn(1.0, 64, lambda t: np.full_like(t, 3.25))
    assert total_variation(eta) == 0.0


def test_total_variation_sine_refines_to_four():
    # grid holding the extrema 0.25 and 0.75 hits the limit exactly
    eta = bv_fn(1.0, 100, lambda t: np.sin(2 * np.pi * t))
    assert total_variation(eta) == pytest.approx(4.0, abs=1e-12)
    # refinement is monotone nondecreasing toward 4
    prev = 0.0
    for M in (7, 23, 101, 1001):
        v = total_variation(bv_fn(1.0, M, lambda t: np.sin(2 * np.pi * t)))
        assert v >= prev - 1e-12
        prev = v
    assert prev == pytest.approx(4.0, abs=1e-4)


def test_total_variation_matches_bruteforce():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(41)
    eta = BVFunction(TimeGrid.uniform(1.0, 40), vals)
    assert total_variation(eta) == pytest.approx(tv_bruteforce(vals), abs=1e-12)


def test_total_variation_additive_over_intervals():
    eta = bv_fn(2.0, 80, lambda t: np.sin(3 * t) + 0.5 * t)
    whole = total_variation(eta, 0.0, 2.0)
    split = total_variation(eta, 0.0, 0.75) + total_variation(eta, 0.75, 2.0)
    assert split == pytest.approx(whole, abs=1e-12)


def test_total_variation_of_an_interval_needs_node_ends_in_order():
    vals = np.random.default_rng(6).standard_normal(11)
    eta = BVFunction(TimeGrid.uniform(1.0, 10), vals)
    assert total_variation(eta, 0.3, 0.7) == pytest.approx(tv_bruteforce(vals[3:8]),
                                                           abs=1e-12)
    assert total_variation(eta, 0.4, 0.4) == 0.0
    with pytest.raises(GridAlignmentError, match="not a node"):
        total_variation(eta, 0.0, 0.33)
    with pytest.raises(ValueError, match="s <= t"):
        total_variation(eta, 0.5, 0.2)


def test_total_variation_vector_euclidean():
    g = TimeGrid.uniform(1.0, 4)
    vals = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 4.0], [0.0, 0.0], [3.0, 0.0]])
    eta = BVFunction(g, vals)
    # increments have Euclidean sizes 5, 0, 5, 3
    assert total_variation(eta) == pytest.approx(13.0, abs=1e-12)


def bv_size(eta):
    """|eta(0)| + total variation over the whole grid, for scalar eta."""
    return abs(float(eta.values[0])) + total_variation(eta)


def test_bv_norm():
    g = TimeGrid.uniform(1.0, 10)
    eta = BVFunction(g, np.linspace(2.0, 3.0, 11))
    assert bv_size(eta) == pytest.approx(3.0, abs=1e-12)
    const = BVFunction(g, np.full(11, -1.5))
    assert bv_size(const) == pytest.approx(1.5, abs=1e-12)


def test_bv_norm_lower_semicontinuous_on_families():
    # eta_n -> eta uniformly, |eta(0)| + TV(eta) <= min over tail + 1e-9
    for make, limit in [
        (lambda n, t: t + np.sin(2 * np.pi * n * t) / (4 * np.pi * n), lambda t: t),
        (lambda n, t: np.sin(2 * np.pi * n * t) / (4 * np.pi * n), lambda t: 0 * t),
        (lambda n, t: t ** 2 + np.sin(2 * np.pi * t) / n, lambda t: t ** 2),
    ]:
        g = TimeGrid.uniform(1.0, 2048)
        tail = [bv_size(BVFunction(g, make(n, g.nodes))) for n in (8, 16, 32)]
        lim = bv_size(BVFunction(g, limit(g.nodes)))
        assert lim <= min(tail) + 1e-9


# ---------------------------------------------------------------- Stieltjes

def test_stieltjes_constant_integrand_telescopes():
    x = grid_fn(1.0, 57, lambda t: np.ones_like(t))
    eta = bv_fn(1.0, 57, lambda t: np.exp(t) - 1.0)
    assert stieltjes_integral(x, eta) == pytest.approx(np.e - 1.0, abs=1e-12)


def test_stieltjes_t_against_t_squared():
    # refining left sums approach int_0^1 t d(t^2) = 2/3 from below, O(1/M)
    errs = []
    for M in (100, 400, 1600):
        x = grid_fn(1.0, M, lambda t: t)
        eta = bv_fn(1.0, M, lambda t: t ** 2)
        val = stieltjes_integral(x, eta)
        assert val == pytest.approx(
            stieltjes_bruteforce(x.values, eta.values), abs=1e-12)
        errs.append(2.0 / 3.0 - val)
    assert all(e > 0 for e in errs)
    assert errs[2] < errs[0] / 3.0
    assert abs(errs[2]) < 1e-3


def test_stieltjes_jump_measure_picks_jump_node():
    # eta right-continuous unit step at 0.5: the measure is a point mass there
    x = grid_fn(1.0, 10, lambda t: t)
    eta = bv_fn(1.0, 10, lambda t: (t >= 0.5).astype(float), mode="step")
    assert stieltjes_integral(x, eta) == pytest.approx(0.5, abs=1e-15)
    # the left policy lands one node early
    assert cumulative_stieltjes(x.values, eta.values, policy="left")[-1] == \
        pytest.approx(0.4, abs=1e-15)


def test_stieltjes_exact_for_step_integrator_many_jumps():
    g = TimeGrid.uniform(1.0, 20)
    x = GridFunction(g, np.cos(g.nodes))
    jumps = {5: 0.75, 12: -0.25, 20: 1.5}
    vals = np.zeros(21)
    for j, s in jumps.items():
        vals[j:] += s
    eta = BVFunction(g, vals, mode="step")
    expected = sum(s * np.cos(g.nodes[j]) for j, s in jumps.items())
    assert stieltjes_integral(x, eta) == pytest.approx(expected, abs=1e-14)


def test_stieltjes_bilinear():
    g = TimeGrid.uniform(1.0, 33)
    x1 = GridFunction(g, np.sin(g.nodes))
    x2 = GridFunction(g, g.nodes ** 2)
    eta1 = BVFunction(g, np.exp(g.nodes) - 1)
    eta2 = BVFunction(g, np.cos(g.nodes) - 1)
    lhs = stieltjes_integral(GridFunction(g, 2.0 * x1.values - 3.0 * x2.values), eta1)
    rhs = 2.0 * stieltjes_integral(x1, eta1) - 3.0 * stieltjes_integral(x2, eta1)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    combo = BVFunction(g, eta1.values + 0.5 * eta2.values)
    lhs2 = stieltjes_integral(x1, combo)
    rhs2 = stieltjes_integral(x1, eta1) + 0.5 * stieltjes_integral(x1, eta2)
    assert lhs2 == pytest.approx(rhs2, abs=1e-12)


def test_stieltjes_vector_componentwise_sum():
    g = TimeGrid.uniform(1.0, 50)
    xv = np.stack([g.nodes, np.ones_like(g.nodes)], axis=1)
    ev = np.stack([g.nodes ** 2, 2.0 * g.nodes], axis=1)
    x = GridFunction(g, xv)
    eta = BVFunction(g, ev)
    expected = stieltjes_bruteforce(xv[:, 0], ev[:, 0]) + \
        stieltjes_bruteforce(xv[:, 1], ev[:, 1])
    assert stieltjes_integral(x, eta) == pytest.approx(expected, abs=1e-12)


def test_stieltjes_shape_and_grid_mismatch():
    x = grid_fn(1.0, 10, lambda t: t)
    eta = bv_fn(1.0, 20, lambda t: t)
    with pytest.raises(GridAlignmentError):
        stieltjes_integral(x, eta)


def test_refinement_consistency_bound():
    # |coarse - fine| <= modulus of x on the coarse mesh * variation of eta
    fine = TimeGrid.uniform(1.0, 1024)
    coarse = TimeGrid.uniform(1.0, 32)
    f = lambda t: np.sin(2 * np.pi * t)
    e = lambda t: t ** 2
    i_fine = stieltjes_integral(GridFunction(fine, f(fine.nodes)),
                                BVFunction(fine, e(fine.nodes)))
    i_coarse = stieltjes_integral(GridFunction(coarse, f(coarse.nodes)),
                                  BVFunction(coarse, e(coarse.nodes)))
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


# ---------------------------------------------------------------- segments

def window_at(x, t, kind="state"):
    """x's delay window x(t + theta), theta in [-delta, 0], as delay_windows
    reads it."""
    grid = x.grid
    return delay_windows(x.values[None], grid.delta_index_offset, kind)(grid.index_of(t))[0]


def test_delayed_segment_interior():
    x = grid_fn(1.0, 10, lambda t: t, delta=0.2)
    values = window_at(x, 0.5)
    assert x.grid.delta_index_offset == 2
    assert np.allclose(values, [0.3, 0.4, 0.5], atol=1e-12)
    assert values[-1] == pytest.approx(0.5)


def test_delayed_segment_prolongation_conventions():
    x = grid_fn(1.0, 10, lambda t: 1.0 + t, delta=0.3)
    state = window_at(x, 0.1, kind="state")
    assert np.allclose(state, [1.0, 1.0, 1.0, 1.1], atol=1e-12)
    control = window_at(x, 0.0, kind="control")
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


# ---------------------------------------------------------------- Helly-Bray

def osc(n, t):
    return np.sin(2 * np.pi * n * t) / (4 * np.pi * n)


def test_helly_bray_distance_identical_is_zero():
    g = TimeGrid.uniform(1.0, 128)
    x = GridFunction(g, g.nodes)
    eta = BVFunction(g, g.nodes ** 2)
    d = helly_bray_distance([x, x], [eta, eta], x, eta)
    assert np.all(d == 0.0)


def test_helly_bray_distance_constant_shift_exact():
    # x_n = x + 1/n against a monotone eta with unit variation: distance 1/n
    g = TimeGrid.uniform(1.0, 200)
    x = GridFunction(g, np.sin(g.nodes))
    eta = BVFunction(g, g.nodes)
    ns = [1, 2, 4, 8]
    xs = [GridFunction(g, x.values + 1.0 / n) for n in ns]
    d = helly_bray_distance(xs, [eta] * len(ns), x, eta)
    assert np.allclose(d, [1.0 / n for n in ns], atol=1e-12)


def test_helly_bray_distance_oscillatory_matches_antiderivative():
    # closed form: int_0^t s d(osc_n) = t*osc_n(t) + (cos(2pi n t)-1)/(8 pi^2 n^2)
    g = TimeGrid.uniform(1.0, 4096)
    t = g.nodes
    x = GridFunction(g, t)
    eta = BVFunction(g, t)
    ns = [1, 2, 4, 8, 16, 32]
    etas = [BVFunction(g, t + osc(n, t)) for n in ns]
    d = helly_bray_distance([x] * len(ns), etas, x, eta)
    for n, dn in zip(ns, d):
        closed = t * osc(n, t) + (np.cos(2 * np.pi * n * t) - 1) / (8 * np.pi ** 2 * n ** 2)
        assert dn == pytest.approx(np.max(np.abs(closed)), abs=5e-4)
    assert np.all(np.diff(d) < 0)
