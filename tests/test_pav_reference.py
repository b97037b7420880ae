"""pav_isotonic against scipy's PAV, bit for bit, on random inputs.

scipy.optimize.isotonic_regression runs the same algorithm (Busing 2022) in
the same floating-point order, so every fit must match it byte for byte.
scipy is a test-only reference here; paircomp itself does not import it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from paircomp import pav_isotonic

fixed = settings(derandomize=True, database=None, deadline=None, max_examples=250)

# a few small integers make ties and equal runs common; wide floats do the rest
value = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3, allow_subnormal=False))
weights_for = {
    "none": lambda n: st.none(),
    "integer": lambda n: st.lists(st.integers(1, 9).map(float), min_size=n, max_size=n),
    "fractional": lambda n: st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
}


@st.composite
def pav_input(draw):
    n = draw(st.integers(0, 60))
    values = draw(st.lists(value, min_size=n, max_size=n))
    weights = draw(weights_for[draw(st.sampled_from(sorted(weights_for)))](len(values)))
    return np.array(values, dtype=np.float64), weights


@fixed
@given(pav_input())
def test_pav_matches_scipy_bit_for_bit(case):
    values, weights = case
    fit = pav_isotonic(values, weights)
    ref = isotonic_regression(values, weights=weights).x
    assert fit.dtype == ref.dtype == np.float64
    assert fit.shape == ref.shape == values.shape
    assert fit.tobytes() == ref.tobytes()
