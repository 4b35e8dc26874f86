"""Property-based checks of fast paths against their oracles in oracles.py.

Every run draws the same examples (derandomize=True) and writes no example
database (database=None), so the suite stays deterministic.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from cayleyprop.graphcore import _choice_index, gen_graph
from oracles import choice_cdf, choice_p, gen_ba_choice

# Hypothesis caches the constants it finds in the library's source under its
# home directory, ./.hypothesis unless set, and its pytest plugin does so while
# collecting, before any fixture runs: keep that cache out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "cayleyprop-hypothesis")

DETERMINISTIC = settings(
    derandomize=True, max_examples=200, database=None, deadline=None
)


@DETERMINISTIC
@given(
    n=st.integers(1, 60),
    m=st.integers(1, 20),
    seed=st.integers(0, 2**64 - 1),
)
def test_ba_generator_matches_choice_oracle(n, m, seed):
    assert gen_graph("BA", n, seed, m=m) == gen_ba_choice(n, m, seed)


# Weight lists, with all-zero ones of every length among them: there choice
# falls back to uniform weights, as at the first BA draw when m = 1.
WEIGHTS = st.lists(st.integers(0, 60), min_size=1, max_size=40) | st.lists(
    st.just(0), min_size=1, max_size=40
)


@DETERMINISTIC
@given(weights=WEIGHTS)
def test_choice_index_matches_numpy_at_every_cdf_boundary(weights):
    # A drawn uniform almost never lands on a cdf entry or one ulp from it,
    # where a left-side search or a differently rounded cdf would pick
    # another index; these uniforms do.
    cdf = choice_cdf(weights)
    uniforms = {0.0, np.nextafter(1.0, 0.0)}
    for c in cdf[cdf < 1.0]:
        uniforms.update((np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)))
    for u in sorted(uniforms):
        expected = int(cdf.searchsorted(u, side="right"))
        assert _choice_index(weights, float(u)) == expected


@DETERMINISTIC
@given(weights=WEIGHTS, seed=st.integers(0, 2**64 - 1))
def test_generator_choice_searches_the_oracle_cdf(weights, seed):
    # Ties choice_cdf to the installed numpy: choice draws one uniform and
    # searches that cdf with it.
    u = np.random.default_rng(seed).random()
    picked = np.random.default_rng(seed).choice(len(weights), p=choice_p(weights))
    assert picked == choice_cdf(weights).searchsorted(u, side="right")
