"""Grid-path calculus: variation, Stieltjes sums, segments, step approximants.

Expected values come from independent oracles written here: brute-force
partition loops, refining Riemann-Stieltjes sums, and closed-form
antiderivatives for the oscillatory families.
"""

import numpy as np
import pytest

from delaybsde.errors import GridAlignmentError
from delaybsde.path_calculus import (
    BVFunction,
    GridFunction,
    TimeGrid,
    bv_norm,
    cumulative_stieltjes,
    delayed_segment,
    helly_bray_distance,
    read_csv,
    step_approximation,
    stieltjes_integral,
    total_variation,
    write_csv,
)


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
        if policy == "left":
            xv = x_vals[i]
        elif policy == "jump":
            xv = x_vals[i + 1]
        else:
            xv = 0.5 * (x_vals[i] + x_vals[i + 1])
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


def test_total_variation_vector_euclidean():
    g = TimeGrid.uniform(1.0, 4)
    vals = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 4.0], [0.0, 0.0], [3.0, 0.0]])
    eta = BVFunction(g, vals)
    # increments have Euclidean sizes 5, 0, 5, 3
    assert total_variation(eta) == pytest.approx(13.0, abs=1e-12)


def test_bv_norm():
    g = TimeGrid.uniform(1.0, 10)
    eta = BVFunction(g, np.linspace(2.0, 3.0, 11))
    assert bv_norm(eta) == pytest.approx(3.0, abs=1e-12)
    const = BVFunction(g, np.full(11, -1.5))
    assert bv_norm(const) == pytest.approx(1.5, abs=1e-12)


def test_bv_norm_lower_semicontinuous_on_families():
    # eta_n -> eta uniformly, bv_norm(eta) <= min over tail + 1e-9
    for make, limit in [
        (lambda n, t: t + np.sin(2 * np.pi * n * t) / (4 * np.pi * n), lambda t: t),
        (lambda n, t: np.sin(2 * np.pi * n * t) / (4 * np.pi * n), lambda t: 0 * t),
        (lambda n, t: t ** 2 + np.sin(2 * np.pi * t) / n, lambda t: t ** 2),
    ]:
        g = TimeGrid.uniform(1.0, 2048)
        tail = [bv_norm(BVFunction(g, make(n, g.nodes))) for n in (8, 16, 32)]
        lim = bv_norm(BVFunction(g, limit(g.nodes)))
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


def test_stieltjes_midpoint_policy_high_accuracy():
    x = grid_fn(1.0, 1000, lambda t: t)
    eta = bv_fn(1.0, 1000, lambda t: t ** 2)
    val = stieltjes_integral(x, eta, eval_point="midpoint")
    assert val == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_stieltjes_jump_measure_picks_jump_node():
    # eta right-continuous unit step at 0.5: the measure is a point mass there
    x = grid_fn(1.0, 10, lambda t: t)
    eta = bv_fn(1.0, 10, lambda t: (t >= 0.5).astype(float), mode="step")
    assert stieltjes_integral(x, eta) == pytest.approx(0.5, abs=1e-15)
    # left policy, if forced, lands one node early
    assert stieltjes_integral(x, eta, eval_point="left") == pytest.approx(0.4, abs=1e-15)


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
    g = TimeGrid.uniform(1.0, 25)
    xv = np.sin(g.nodes)
    ev = g.nodes ** 2
    run = cumulative_stieltjes(xv, ev)
    for i in (0, 7, 25):
        direct = stieltjes_bruteforce(xv[:i + 1], ev[:i + 1])
        assert run[i] == pytest.approx(direct, abs=1e-13)


# ---------------------------------------------------------------- segments

def test_delayed_segment_interior():
    x = grid_fn(1.0, 10, lambda t: t, delta=0.2)
    seg = delayed_segment(x, 0.5)
    assert np.allclose(seg.theta, [-0.2, -0.1, 0.0], atol=1e-12)
    assert np.allclose(seg.values, [0.3, 0.4, 0.5], atol=1e-12)
    assert seg.values[-1] == pytest.approx(0.5)


def test_delayed_segment_prolongation_conventions():
    x = grid_fn(1.0, 10, lambda t: 1.0 + t, delta=0.3)
    state = delayed_segment(x, 0.1, kind="state")
    assert np.allclose(state.values, [1.0, 1.0, 1.0, 1.1], atol=1e-12)
    control = delayed_segment(x, 0.0, kind="control")
    assert np.allclose(control.values, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_delayed_segment_needs_delta():
    x = grid_fn(1.0, 10, lambda t: t)
    with pytest.raises(GridAlignmentError):
        delayed_segment(x, 0.5)


# ---------------------------------------------------------------- steps

def test_step_approximation_constant_idempotent():
    x = grid_fn(1.0, 16, lambda t: np.full_like(t, 2.5))
    out = step_approximation(x, np.array([0.0, 0.5, 1.0]))
    assert np.array_equal(out.values, x.values)


def test_step_approximation_right_endpoint_convention():
    x = grid_fn(1.0, 4, lambda t: t)
    out = step_approximation(x, np.array([0.0, 0.5, 1.0]))
    # x^N(0)=x(0); (0,0.5] -> x(0.5); (0.5,1] -> x(1)
    assert np.allclose(out.values, [0.0, 0.5, 0.5, 1.0, 1.0], atol=1e-15)


def test_step_approximation_sup_error_dyadic():
    # x = t, partition mesh 1/N, fine mesh h: direct sup oracle gives 1/N - h
    N, M = 4, 64
    x = grid_fn(1.0, M, lambda t: t)
    part = np.linspace(0.0, 1.0, N + 1)
    out = step_approximation(x, part)
    sup = np.max(np.abs(out.values - x.values))
    assert sup == 1.0 / N - 1.0 / M


def test_step_approximation_rejects_non_nested():
    x = grid_fn(1.0, 10, lambda t: t)
    with pytest.raises(GridAlignmentError):
        step_approximation(x, np.array([0.0, 0.33, 1.0]))


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


# ---------------------------------------------------------------- CSV

def test_csv_roundtrip_exact(tmp_path):
    g = TimeGrid.uniform(1.0, 17)
    vals = np.stack([np.sin(g.nodes) * 1e-7, np.exp(g.nodes)], axis=1)
    fn = GridFunction(g, vals)
    p = str(tmp_path / "fn.csv")
    write_csv(fn, p)
    back = read_csv(p)
    assert np.array_equal(back.grid.nodes, g.nodes)
    assert np.array_equal(back.values, vals)


def test_csv_scalar_roundtrip(tmp_path):
    g = TimeGrid.uniform(2.0, 9)
    fn = GridFunction(g, np.cos(g.nodes))
    p = str(tmp_path / "s.csv")
    write_csv(fn, p)
    back = read_csv(p)
    assert back.values.ndim == 1
    assert np.array_equal(back.values, fn.values)
