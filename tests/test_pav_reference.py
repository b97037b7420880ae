"""The PAV kernel against scipy's PAV, bit for bit, on random chains.

scipy.optimize.isotonic_regression runs the same algorithm (Busing 2022) in
the same floating-point order, so the kernel's fit of every chain laid end
to end must match scipy's fit of that chain alone byte for byte.  scipy is a
test-only reference here; paircomp itself does not import it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from paircomp.estimators import _pav_chains

fixed = settings(derandomize=True, database=None, deadline=None, max_examples=250)

# a few small integers make ties and equal runs common; wide floats do the rest
value = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3, allow_subnormal=False))
weights_for = {
    "none": lambda n: st.none(),
    "integer": lambda n: st.lists(st.integers(1, 9).map(float), min_size=n, max_size=n),
    "fractional": lambda n: st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
}


@st.composite
def chain(draw):
    n = draw(st.integers(0, 30))
    values = draw(st.lists(value, min_size=n, max_size=n))
    weights = draw(weights_for[draw(st.sampled_from(sorted(weights_for)))](len(values)))
    return np.array(values, dtype=np.float64), weights


@fixed
@given(st.lists(chain(), min_size=1, max_size=8))
def test_pav_matches_scipy_bit_for_bit(chains):
    y = np.concatenate([values for values, _ in chains])
    w = np.concatenate([np.ones(len(v)) if wt is None else np.array(wt) for v, wt in chains])
    lengths = [len(values) for values, _ in chains]
    new = np.zeros(len(y) + 1, dtype=bool)
    new[np.cumsum([0] + lengths)] = True
    fit = _pav_chains(y, w, new.tolist())
    assert fit.dtype == np.float64
    assert fit.shape == y.shape
    for part, (values, weights) in zip(np.split(fit, np.cumsum(lengths)[:-1]), chains):
        ref = isotonic_regression(values, weights=weights).x
        assert part.tobytes() == ref.tobytes()
        assert np.all(np.diff(part) >= 0.0)
