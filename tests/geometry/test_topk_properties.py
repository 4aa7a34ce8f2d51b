"""Property tests: the O(n) top-k equals the full stable argsort."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distances import k_smallest_indices

# A small value pool forces heavy ties; -0.0/0.0 tie as well.
_POOL = [-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, np.inf, np.nan]


@st.composite
def values_and_k(draw):
    values = np.array(
        draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=64)),
        dtype=float,
    )
    n = values.size
    k = draw(
        st.sampled_from([-3, 0, 1, max(n - 1, 1), n, n + 5])
        | st.integers(min_value=1, max_value=n)
    )
    return values, k


@given(values_and_k())
@settings(max_examples=400, deadline=None)
def test_matches_stable_argsort_prefix(case):
    values, k = case
    got = k_smallest_indices(values, k)
    expected = np.argsort(values, kind="stable")[: max(k, 0)]
    assert np.array_equal(got, expected)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=3000),
)
@settings(max_examples=60, deadline=None)
def test_matches_on_large_tie_heavy_arrays(seed, k):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 50, size=3000).astype(float)
    values[rng.random(3000) < 0.02] = np.nan
    values[rng.random(3000) < 0.02] = np.inf
    got = k_smallest_indices(values, k)
    assert np.array_equal(got, np.argsort(values, kind="stable")[:k])


def test_nan_kth_value_falls_back_to_full_sort():
    values = np.array([np.nan, 3.0, np.nan, 1.0])
    assert k_smallest_indices(values, 3).tolist() == [3, 1, 0]


def test_integer_values():
    values = np.array([4, 1, 4, 0, 1])
    assert k_smallest_indices(values, 3).tolist() == [3, 1, 4]
