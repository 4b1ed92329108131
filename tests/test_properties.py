"""Property tests for the time grid and the delay measures.

Invariants checked over generated inputs:

* TimeGrid: nodes start at 0 and strictly increase; with a delay, the grid
  is accepted exactly when delta is a whole number k of steps, and then
  delta_index_offset = k and t_i - delta is node i - k.
* AtomMeasure: weights are nonnegative and sum to one; projection onto a
  theta grid keeps every weight nonnegative, preserves the total mass and
  moves each atom by at most half a step.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaybsde.errors import GridAlignmentError
from delaybsde.model import AtomMeasure
from delaybsde.path_calculus import TimeGrid

horizons = st.floats(min_value=0.01, max_value=100.0)
step_counts = st.integers(min_value=1, max_value=1000)
positive = st.floats(min_value=1e-3, max_value=1e3)
fractions = st.floats(min_value=0.0, max_value=1.0)


@settings(deadline=None)
@given(st.lists(positive, min_size=1, max_size=50))
def test_grid_from_positive_steps_increases(steps):
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]))
    assert grid.nodes[0] == 0.0
    assert np.all(np.diff(grid.nodes) > 0)
    assert grid.n_steps == len(steps)
    assert grid.delta_index_offset == 0


@settings(deadline=None)
@given(st.lists(positive, min_size=2, max_size=50), st.data())
def test_grid_rejects_non_increasing_nodes(steps, data):
    nodes = np.concatenate([[0.0], np.cumsum(steps)])
    j = data.draw(st.integers(min_value=1, max_value=nodes.size - 1))
    nodes[j] = nodes[j - 1]
    with pytest.raises(GridAlignmentError):
        TimeGrid(nodes)


@settings(deadline=None)
@given(horizons, step_counts, st.data())
def test_grid_delay_offset_matches_delta(T, n_steps, data):
    k = data.draw(st.integers(min_value=1, max_value=n_steps))
    delta = T * k / n_steps
    grid = TimeGrid.uniform(T, n_steps, delta=delta)
    assert np.all(np.diff(grid.nodes) > 0)
    assert grid.delta_index_offset == k
    for i in {k, (k + n_steps) // 2, n_steps}:
        assert grid.index_of(float(grid.nodes[i]) - delta) == i - k


@settings(deadline=None)
@given(horizons, st.integers(min_value=2, max_value=1000), st.data())
def test_grid_rejects_delta_between_nodes(T, n_steps, data):
    k = data.draw(st.integers(min_value=0, max_value=n_steps - 1))
    frac = data.draw(st.floats(min_value=0.01, max_value=0.99))
    with pytest.raises(GridAlignmentError):
        TimeGrid.uniform(T, n_steps, delta=T * (k + frac) / n_steps)


def _measure(delta, raw_weights, positions):
    weights = np.asarray(raw_weights) / np.sum(raw_weights)
    thetas = -delta * np.asarray(positions)
    return AtomMeasure(thetas, weights)


atoms = st.integers(min_value=1, max_value=20)


@settings(deadline=None)
@given(st.floats(min_value=1e-3, max_value=10.0), step_counts, atoms, st.data())
def test_atom_projection_preserves_mass(delta, n_theta_steps, n_atoms, data):
    meas = _measure(
        delta,
        data.draw(st.lists(positive, min_size=n_atoms, max_size=n_atoms)),
        data.draw(st.lists(fractions, min_size=n_atoms, max_size=n_atoms)))
    assert np.all(meas.weights >= 0)
    out = meas.project(delta, n_theta_steps)
    assert out.shape == (n_theta_steps + 1,)
    assert np.all(out >= 0)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


@settings(deadline=None)
@given(st.floats(min_value=1e-3, max_value=10.0), step_counts, fractions)
def test_atom_projection_moves_at_most_half_a_step(delta, n_theta_steps, position):
    theta = -delta * position
    out = AtomMeasure.dirac(theta).project(delta, n_theta_steps)
    grid = np.linspace(-delta, 0.0, n_theta_steps + 1)
    (idx,) = np.flatnonzero(out)
    assert out[idx] == 1.0
    assert abs(grid[idx] - theta) <= 0.5 * delta / n_theta_steps * (1 + 1e-9)


@settings(deadline=None)
@given(st.lists(positive, min_size=2, max_size=10), st.data())
def test_atom_measure_rejects_negative_weight(raw_weights, data):
    weights = np.asarray(raw_weights) / np.sum(raw_weights)
    j = data.draw(st.integers(min_value=0, max_value=weights.size - 1))
    weights[j] = -weights[j]
    with pytest.raises(ValueError, match="nonnegative"):
        AtomMeasure(np.zeros(weights.size), weights)
