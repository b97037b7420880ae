"""Property tests of project_biso on random dense and block-constant inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from paircomp import is_biso, project_biso

TOL = 1e-10
fixed = settings(derandomize=True, database=None, deadline=None, max_examples=40)
unit = st.floats(0.0, 1.0)


def square(n):
    return arrays(np.float64, (n, n), elements=unit)


@st.composite
def dense(draw):
    return draw(square(draw(st.integers(1, 12))))


@st.composite
def dense_pair(draw):
    n = draw(st.integers(1, 12))
    return draw(square(n)), draw(square(n))


@st.composite
def block_constant(draw):
    """(matrix, labels): a g x g grid expanded onto contiguous groups."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    values = draw(square(len(sizes)))
    lab = np.repeat(np.arange(len(sizes)), sizes)
    return values[np.ix_(lab, lab)], lab


def project(x):
    proj = project_biso(x, tol=TOL, max_iter=100_000)
    assert proj.converged
    return proj.matrix


@fixed
@given(dense())
def test_output_is_feasible(x):
    assert is_biso(project(x), TOL)


@fixed
@given(dense())
def test_projection_is_idempotent(x):
    px = project(x)
    assert np.abs(project(px) - px).max() <= 10 * TOL


@fixed
@given(dense_pair())
def test_projection_is_nonexpansive(xy):
    x, y = xy
    assert np.linalg.norm(project(x) - project(y)) <= np.linalg.norm(x - y) + 10 * TOL


@fixed
@given(block_constant())
def test_block_constant_input_gives_block_constant_output(case):
    x, lab = case
    out = project(x)
    assert is_biso(out, TOL)
    first = np.searchsorted(lab, lab)  # the first index of each item's group
    assert np.array_equal(out, out[np.ix_(first, first)])
