"""Property-based checks of fast paths against their oracles in oracles.py.

Every run draws the same examples (derandomize=True) and writes no example
database (database=None), so the suite stays deterministic.
"""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from cayleyprop.graphcore import _pick_columns, gen_ba_graphs, gen_graph
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


# Seed lists of every length from empty up, with repeated seeds among them.
SEED_LISTS = st.lists(st.integers(0, 2**64 - 1) | st.integers(0, 3), max_size=6)


@DETERMINISTIC
@given(n=st.integers(1, 40), m=st.integers(1, 8), seeds=SEED_LISTS)
def test_ba_graphs_match_choice_oracle_seed_by_seed(n, m, seeds):
    # Graph k is the one-seed draw of seeds[k]: it does not depend on the
    # other graphs of its batch.
    graphs = gen_ba_graphs(n, m, seeds)
    assert len(graphs) == len(seeds)
    for seed, g in zip(seeds, graphs):
        assert g == gen_ba_choice(n, m, seed)


@DETERMINISTIC
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), max_size=4),
    bad=st.booleans() | st.floats(allow_nan=False) | st.text(max_size=3) | st.none(),
    data=st.data(),
)
def test_ba_graphs_refuse_a_non_int_seed_by_name(seeds, bad, data):
    at = data.draw(st.integers(0, len(seeds)))
    seeds.insert(at, bad)
    with pytest.raises(ValueError, match=rf"seed {re.escape(repr(bad))} is not an integer"):
        gen_ba_graphs(5, 2, seeds)


# Weight rows of one drawn width, each entry with a flag that keeps it in the
# pool; every row keeps at least one entry. All-zero pools are drawn too:
# there choice falls back to uniform weights, as at the first BA draw when
# m = 1.
def _weight_rows(width):
    row = st.lists(
        st.tuples(st.integers(0, 60) | st.just(0), st.booleans()),
        min_size=width,
        max_size=width,
    ).filter(lambda r: any(keep for _, keep in r))
    return st.lists(row, min_size=1, max_size=4)


WEIGHT_ROWS = st.integers(1, 40).flatmap(_weight_rows) | st.integers(1, 40).flatmap(
    lambda width: st.lists(
        st.just([(0, True)] * width), min_size=1, max_size=2
    )
)


@DETERMINISTIC
@given(rows=WEIGHT_ROWS)
def test_pick_columns_matches_numpy_at_every_cdf_boundary(rows):
    # A drawn uniform almost never lands on a cdf entry or one ulp from it,
    # where a left-side search or a differently rounded cdf would pick
    # another column; these uniforms do. Every (row, uniform) pair is one
    # row of a single batch, so rows of different pools are picked together.
    weights, in_pool, uniforms, expected = [], [], [], []
    for row in rows:
        pool = [col for col, (_, keep) in enumerate(row) if keep]
        cdf = choice_cdf([row[col][0] for col in pool])
        near = {0.0, np.nextafter(1.0, 0.0)}
        for c in cdf[cdf < 1.0]:
            near.update((np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)))
        for u in sorted(near):
            weights.append([w if keep else 0 for w, keep in row])
            in_pool.append([keep for _, keep in row])
            uniforms.append(u)
            expected.append(pool[int(cdf.searchsorted(u, side="right"))])
    picked = _pick_columns(
        np.array(weights, dtype=np.int64), np.array(in_pool), np.array(uniforms)
    )
    assert picked.tolist() == expected


# Weight lists, with all-zero ones of every length among them.
WEIGHTS = st.lists(st.integers(0, 60), min_size=1, max_size=40) | st.lists(
    st.just(0), min_size=1, max_size=40
)


@DETERMINISTIC
@given(weights=WEIGHTS, seed=st.integers(0, 2**64 - 1))
def test_generator_choice_searches_the_oracle_cdf(weights, seed):
    # Ties choice_cdf to the installed numpy: choice draws one uniform and
    # searches that cdf with it.
    u = np.random.default_rng(seed).random()
    picked = np.random.default_rng(seed).choice(len(weights), p=choice_p(weights))
    assert picked == choice_cdf(weights).searchsorted(u, side="right")
