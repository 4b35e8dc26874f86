"""Property-based checks of fast paths against their oracles in oracles.py,
and of the edge-list format and the propagation plans against their
stated rules.

Every run draws the same examples (derandomize=True) and writes no example
database (database=None), so the suite stays deterministic.
"""

import functools
import pickle
import re
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from cayleyprop import nn
from cayleyprop.cayley import CayleyCache, build_cayley, smallest_modulus
from cayleyprop.graphcore import (
    EdgeListParseError,
    UGraph,
    _pick_columns,
    emit_edge_list,
    gen_ba_graphs,
    gen_graph,
    induced_prefix_subgraph,
    parse_edge_list,
    star_graph,
)
from cayleyprop.modgroup import generators, sl2_order
from cayleyprop.nn import LAYER_KINDS, STACK_SAMPLES, TrainConfig, gen_sum_task
from cayleyprop.propagation import (
    CAYLEY_SCHEMES,
    SCHEMES,
    build_plan,
    extend_input_adjacency,
)
from cayleyprop.spectral import analyze, diameter_bfs, expansion_sweep
from oracles import (
    analyze_serial,
    assert_matches_oracle,
    choice_cdf,
    choice_p,
    diameter_per_source,
    effective_resistance_pair,
    gen_ba_choice,
    int_refusal,
    is_connected,
    layer_operator,
)

# Hypothesis caches the constants it finds in the library's source under its
# home directory, ./.hypothesis unless set, and its pytest plugin does so while
# collecting, before any fixture runs: keep that cache out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "cayleyprop-hypothesis")

DETERMINISTIC = settings(
    derandomize=True, max_examples=200, database=None, deadline=None
)


# Seed lists of every length from empty up, with repeated seeds among them.
SEED_LISTS = st.lists(st.integers(0, 2**64 - 1) | st.integers(0, 3), max_size=6)


@DETERMINISTIC
@given(n=st.integers(1, 60), m=st.integers(1, 20), seeds=SEED_LISTS)
def test_ba_graphs_match_choice_oracle_seed_by_seed(n, m, seeds):
    # Graph k is the one-seed draw of seeds[k]: it does not depend on the
    # other graphs of its batch. One-seed lists check the lone draw,
    # gen_ba_graphs(n, m, [seed])[0].
    graphs = gen_ba_graphs(n, m, seeds)
    assert len(graphs) == len(seeds)
    for seed, g in zip(seeds, graphs):
        assert g == gen_ba_choice(n, m, seed)


@DETERMINISTIC
@given(n=st.integers(1, 40), m=st.integers(1, 8), seeds=SEED_LISTS)
def test_ba_graphs_of_one_call_share_one_tuple_per_pair(n, m, seeds):
    # Each graph is what the validating constructor builds from its edges,
    # the graphs of one call hold one tuple object per distinct pair, and a
    # second call shares none of them: the memo lives for one call.
    calls = [gen_ba_graphs(n, m, seeds) for _ in range(2)]
    objects = []
    for graphs in calls:
        first = {}
        for g in graphs:
            assert g == UGraph(n, g.edges)
            for e in g.edges:
                assert first.setdefault(e, e) is e
        objects.append({id(e) for e in first.values()})
    assert not objects[0] & objects[1]


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


# Every count, seed and size the library takes: the name its refusal gives,
# its minimum (None: no lower bound), the largest value drawn in range, and a
# call that passes the value on and leaves the other arguments valid. The
# Cayley graphs come from memory, so both calls of a pair see one graph
# object: one parsed from the disk cache shares fewer tuples than one built,
# which its pickle shows.
CAYLEY_GRAPHS = types.SimpleNamespace(
    graph=functools.cache(lambda n: build_cayley(n).graph)
)
CAYLEY_3 = CAYLEY_GRAPHS.graph(3)
SEED_MAX = 2**64 - 1


def init_params_with(**dims):
    """nn.init_params on a fresh generator, with dims in place of its
    in_dim 2, hidden_dim 3 and num_layers 1."""
    dims = {"in_dim": 2, "hidden_dim": 3, "num_layers": 1, **dims}
    return nn.init_params(np.random.default_rng(0), "gin", **dims)


INT_ARGUMENTS = {
    "UGraph-node_count": ("node_count", 0, 30, UGraph),
    "gen_graph-n": ("node count", 1, 30, lambda x: gen_graph(x, 3, p=0.3)),
    "gen_graph-seed": ("seed", 0, SEED_MAX, lambda x: gen_graph(12, x, p=0.3)),
    "gen_ba_graphs-n": ("node count", 1, 30, lambda x: gen_ba_graphs(x, 2, [1, 2])),
    "gen_ba_graphs-m": (
        "attachment count m", 1, 30, lambda x: gen_ba_graphs(12, x, [1])
    ),
    "gen_ba_graphs-seeds": (
        "seed", 0, SEED_MAX, lambda x: gen_ba_graphs(12, 2, [5, x])
    ),
    "induced_prefix_subgraph-v": (
        "prefix size", 1, 24, lambda x: induced_prefix_subgraph(CAYLEY_3, x)
    ),
    "sl2_order-n": ("modulus", 1, 10**6, sl2_order),
    "generators-n": ("modulus", 2, 10**6, generators),
    "build_cayley-n": ("modulus", 2, 5, build_cayley),
    "smallest_modulus-v": ("target node count", 1, 10**6, smallest_modulus),
    "build_plan-num_layers": (
        "num_layers",
        1,
        6,
        lambda x: build_plan(star_graph(5), "CGP", x, cache=CAYLEY_GRAPHS),
    ),
    "expansion_sweep-v_min": (
        "v_min", 2, 8, lambda x: expansion_sweep(x, 8, cache=CAYLEY_GRAPHS)
    ),
    "expansion_sweep-v_max": (
        "v_max", None, 8, lambda x: expansion_sweep(6, x, cache=CAYLEY_GRAPHS)
    ),
    "gen_sum_task-train_size": (
        "train_size", 0, 4, lambda x: gen_sum_task("BA", x, 0, test_size=1)
    ),
    "gen_sum_task-seed": (
        "seed", 0, SEED_MAX, lambda x: gen_sum_task("BA", 2, x, test_size=1)
    ),
    "gen_sum_task-test_size": (
        "test_size", 0, 4, lambda x: gen_sum_task("BA", 1, 0, test_size=x)
    ),
    "init_params-in_dim": ("in_dim", 1, 30, lambda x: init_params_with(in_dim=x)),
    "init_params-hidden_dim": (
        "hidden_dim", 1, 30, lambda x: init_params_with(hidden_dim=x)
    ),
    "init_params-num_layers": (
        "num_layers", 1, 6, lambda x: init_params_with(num_layers=x)
    ),
    "TrainConfig-seed": ("seed", 0, SEED_MAX, lambda x: TrainConfig(seed=x)),
    "TrainConfig-epochs": ("epochs", 1, 1000, lambda x: TrainConfig(epochs=x)),
    "TrainConfig-batch_size": (
        "batch_size", 1, 1000, lambda x: TrainConfig(batch_size=x)
    ),
    "TrainConfig-hidden_dim": (
        "hidden_dim", 1, 1000, lambda x: TrainConfig(hidden_dim=x)
    ),
    "TrainConfig-num_layers": (
        "num_layers", 1, 1000, lambda x: TrainConfig(num_layers=x)
    ),
    "TrainConfig-train_sizes": (
        "train_sizes[1]", 1, 4000, lambda x: TrainConfig(train_sizes=(20, x))
    ),
}
BOUNDED = {k: v for k, v in INT_ARGUMENTS.items() if v[1] is not None}

NOT_INTEGERS = (
    st.booleans()
    | st.floats()
    | st.integers(-(2**53), 2**53).map(float)
    | st.floats(width=32).map(np.float32)
    | st.integers(-(2**53), 2**53).map(np.float64)
    | st.text(max_size=3)
    | st.none()
)
NUMPY_INTEGER_TYPES = st.sampled_from(
    [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
)


@pytest.mark.parametrize("argument", INT_ARGUMENTS)
@settings(DETERMINISTIC, max_examples=50)
@given(bad=NOT_INTEGERS)
def test_a_non_integer_is_refused_by_name(argument, bad):
    what, _, _, call = INT_ARGUMENTS[argument]
    with pytest.raises(ValueError, match=int_refusal(what, bad)):
        call(bad)


@pytest.mark.parametrize("argument", BOUNDED)
@settings(DETERMINISTIC, max_examples=20)
@given(below=st.integers(1, 2**70))
def test_an_int_below_the_minimum_is_refused_by_name(argument, below):
    what, minimum, _, call = BOUNDED[argument]
    x = minimum - below
    with pytest.raises(ValueError, match=rf"^{re.escape(what)} .*(?<![\d-]){x}\b"):
        call(x)


@pytest.mark.parametrize("argument", INT_ARGUMENTS)
@settings(DETERMINISTIC, max_examples=20)
@given(dtype=NUMPY_INTEGER_TYPES, data=st.data())
def test_a_numpy_integer_gives_the_python_int_result(argument, dtype, data):
    _, minimum, largest, call = INT_ARGUMENTS[argument]
    info = np.iinfo(dtype)
    x = data.draw(st.integers(max(minimum or 0, info.min), min(largest, info.max)))
    from_numpy = call(dtype(x))
    from_int = call(x)
    # Pickled, a numpy integer left anywhere in the result shows.
    assert pickle.dumps(from_numpy) == pickle.dumps(from_int)


# Graphs on n nodes: any set of ordinary edges, from none to dense, and any
# set of flagged self-loops.
@st.composite
def graphs_on(draw, n):
    node = st.integers(0, n - 1)
    pairs = draw(st.sets(st.tuples(node, node), max_size=4 * n))
    loops = draw(st.sets(node, max_size=n))
    return UGraph(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v}, loops)


@DETERMINISTIC
@given(m=st.integers(1, 30), kind=st.sampled_from(LAYER_KINDS), data=st.data())
def test_stacked_operators_match_the_dense_oracle(m, kind, data):
    # Stacks drawn from a few templates repeat them; a stack of one template
    # gets the shared broadcast operator. The second stack finds some entries
    # built and some not.
    templates = data.draw(st.lists(graphs_on(m), min_size=1, max_size=4))
    stack_of = st.lists(st.sampled_from(templates), min_size=1, max_size=STACK_SAMPLES)
    run = nn._Run()
    for stack in (data.draw(stack_of), data.draw(stack_of)):
        ops = run.operator(stack, kind)
        want = np.stack([layer_operator(g, kind) for g in stack])
        shared = len(stack) > 1 and all(g is stack[0] for g in stack)
        assert ops.shape == ((1, m, m) if shared else want.shape)
        assert np.broadcast_to(ops, want.shape).tobytes() == want.tobytes()


# BA graph sizes of a batch: 1 to two full stacks and one more graph, in runs
# of one size, so that stacks end at a size change, after STACK_SAMPLES
# samples, or both. Under the Cayley schemes, 4- and 6-node graphs share the
# 6 nodes of SL(2, Z_2), and 7- and 20-node graphs the 24 of SL(2, Z_3), so
# a stack also ends on the original count alone.
@st.composite
def ba_batch_sizes(draw):
    count = draw(st.integers(1, 2 * STACK_SAMPLES + 1))
    sizes = []
    while len(sizes) < count:
        size = draw(st.sampled_from((1, 4, 6, 7, 20)))
        sizes += [size] * draw(st.integers(1, count - len(sizes)))
    return sizes


@DETERMINISTIC
@given(
    scheme=st.sampled_from(SCHEMES),
    kind=st.sampled_from(LAYER_KINDS),
    depth=st.integers(1, 3),
    in_dim=st.integers(1, 8),
    hidden=st.sampled_from((1, 32)) | st.integers(1, 32),
    sizes=ba_batch_sizes(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_engine_matches_the_per_sample_oracle(
    scheme, kind, depth, in_dim, hidden, sizes, seed
):
    # At a hidden width of 1 the biases and readout.w have one entry per
    # sample, as eps and readout.b always do: numpy sums such a stack
    # pairwise unless it is added sample by sample.
    rng = np.random.default_rng(seed)
    graphs = [gen_ba_graphs(n, 2, [k])[0] for k, n in enumerate(sizes)]
    plans = [build_plan(g, scheme, depth, cache=CAYLEY_GRAPHS) for g in graphs]
    params = nn.init_params(rng, kind, in_dim, hidden, depth)
    batch = [(rng.standard_normal((n, in_dim)), float(rng.random() < 0.5)) for n in sizes]
    assert_matches_oracle(plans, params, batch)


@DETERMINISTIC
@given(g=st.integers(1, 30).flatmap(graphs_on), data=st.data())
def test_derived_templates_equal_the_validated_graph(g, data):
    # The extension and the prefix skip UGraph's checks; each must be the
    # graph the validating constructor makes of the same parts.
    n = g.node_count
    m = data.draw(st.integers(n, 40))
    v = data.draw(st.integers(1, n))
    extended = extend_input_adjacency(g, m)
    prefix = induced_prefix_subgraph(g, v)
    pairs = (
        (extended, UGraph(m, g.edges, set(g.self_loops) | set(range(n, m)))),
        (
            prefix,
            UGraph(v, [e for e in g.edges if e[1] < v], [u for u in g.self_loops if u < v]),
        ),
    )
    for got, expected in pairs:
        assert got == expected and hash(got) == hash(expected)
        assert type(got.edges) is tuple and type(got.self_loops) is frozenset
        assert got.adj == expected.adj


# graphs_on draws node ids, so the graph on no nodes is drawn apart.
@DETERMINISTIC
@given(g=st.integers(0, 30).flatmap(lambda n: graphs_on(n) if n else st.just(UGraph(0))))
def test_edge_lists_round_trip(g):
    text = emit_edge_list(g)
    parsed = parse_edge_list(text, allow_self_loops=True)
    assert parsed == g
    assert emit_edge_list(parsed) == text


CORRUPTIONS = (
    "repeated edge",
    "id at the count",
    "negative id",
    "plain self-loop",
    "repeated loop",
    "late count line",
    "three tokens",
    "non-integer token",
)


@st.composite
def corrupted_edge_lists(draw):
    """(text, allow_self_loops, line): a valid edge list with one bad line
    inserted after the count line, and after the line it repeats if any,
    and the number of the bad line."""
    kind = draw(st.sampled_from(CORRUPTIONS))
    g = draw(st.integers(2, 30).flatmap(graphs_on))
    n = g.node_count
    node = st.integers(0, n - 1)
    edges, loops = g.edges or ((0, 1),), g.self_loops
    if kind == "plain self-loop":
        loops = ()
    elif kind == "repeated loop" and not loops:
        loops = {draw(node)}
    g = UGraph(n, edges, loops)
    lines = emit_edge_list(g).splitlines()
    after = 1
    if kind == "repeated edge":
        u, v = draw(st.sampled_from(g.edges))
        after = lines.index(f"{u} {v}") + 1
        ids = draw(st.permutations((u, v)))
    elif kind == "repeated loop":
        u = draw(st.sampled_from(sorted(g.self_loops)))
        after = lines.index(f"{u} {u}") + 1
        ids = (u, u)
    elif kind == "id at the count":
        ids = draw(st.permutations((draw(st.integers(0, n)), n)))
    elif kind == "negative id":
        ids = draw(st.permutations((draw(node), draw(st.integers(-(2**70), -1)))))
    elif kind == "plain self-loop":
        u = draw(node)
        ids = (u, u)
    elif kind == "late count line":
        ids = (draw(st.integers(0, 60)),)
    elif kind == "three tokens":
        ids = (draw(node), draw(node), draw(node))
    else:
        token = st.text("0123456789+-.ex", min_size=1, max_size=4).filter(
            lambda t: not re.fullmatch(r"[+-]?\d+", t)
        )
        ids = draw(st.permutations((draw(node), draw(token))))
    at = draw(st.integers(after, len(lines)))
    lines.insert(at, " ".join(map(str, ids)))
    return "\n".join(lines) + "\n", kind != "plain self-loop", at + 1


@DETERMINISTIC
@given(case=corrupted_edge_lists())
def test_a_malformed_edge_list_is_refused_at_its_line(case):
    text, allow_self_loops, line = case
    with pytest.raises(EdgeListParseError) as info:
        parse_edge_list(text, allow_self_loops=allow_self_loops)
    assert info.value.line_no == line


@st.composite
def twice_corrupted_edge_lists(draw):
    """(text, allow_self_loops, line): a corrupted_edge_lists case with a
    second bad line inserted after the count line, one that is bad wherever
    it stands (an id at the count, a negative id, a count line, three tokens
    or a non-integer token), and the number of the earlier bad line."""
    text, allow_self_loops, line = draw(corrupted_edge_lists())
    lines = text.splitlines()
    n = int(lines[0])
    node = st.integers(0, n - 1)
    token = st.text("0123456789+-.ex", min_size=1, max_size=4).filter(
        lambda t: not re.fullmatch(r"[+-]?\d+", t)
    )
    ids = draw(
        st.tuples(node, st.just(n))
        | st.tuples(node, st.integers(-(2**70), -1))
        | st.tuples(st.integers(0, 60))
        | st.tuples(node, node, node)
        | st.tuples(node, token)
    )
    at = draw(st.integers(1, len(lines)))
    lines.insert(at, " ".join(map(str, ids)))
    return "\n".join(lines) + "\n", allow_self_loops, min(at + 1, line)


@DETERMINISTIC
@given(case=twice_corrupted_edge_lists())
def test_an_edge_list_with_two_bad_lines_is_refused_at_the_earlier(case):
    # Each line is checked as it is read, whatever the second one's fault.
    text, allow_self_loops, line = case
    with pytest.raises(EdgeListParseError) as info:
        parse_edge_list(text, allow_self_loops=allow_self_loops)
    assert info.value.line_no == line


# The layer kind of layer 1..depth under each scheme, as the propagation
# module's docstring gives it.
SCHEDULES = {
    "Base": lambda layer, depth: "input",
    "MasterNode": lambda layer, depth: "master",
    "FALast": lambda layer, depth: "fully_adjacent" if layer == depth else "input",
    "EGP": lambda layer, depth: "input" if layer % 2 else "cayley",
    "CGP": lambda layer, depth: "input_extended" if layer % 2 else "cayley",
    "CGPLast": lambda layer, depth: "cayley" if layer == depth else "input_extended",
    "CGPEvery": lambda layer, depth: "cayley",
}
CGP_SCHEMES = ("CGP", "CGPLast", "CGPEvery")
PLAN_CACHE = CayleyCache()


@DETERMINISTIC
@given(
    # 6, 24 and 48 are the orders of SL(2, Z_n) for n = 2, 3, 4: exact fits.
    v=st.sampled_from((6, 24, 48)) | st.integers(1, 60),
    scheme=st.sampled_from(SCHEMES),
    depth=st.integers(1, 4),
    data=st.data(),
)
def test_plans_follow_their_scheme(v, scheme, depth, data):
    g = data.draw(graphs_on(v))
    plan = build_plan(g, scheme, depth, cache=PLAN_CACHE)
    if scheme in CGP_SCHEMES:
        m = sl2_order(smallest_modulus(v))
    else:
        m = v + 1 if scheme == "MasterNode" else v
    assert plan.original_count == v
    assert plan.extended_count == m
    assert (plan.modulus is None) == (scheme not in CAYLEY_SCHEMES)
    assert plan.virtual_range == (v, m)
    layers = range(1, depth + 1)
    assert plan.layer_kinds == tuple(SCHEDULES[scheme](k, depth) for k in layers)
    assert [h.node_count for h in plan.layer_graphs] == [m] * depth
    if scheme in CGP_SCHEMES:
        assert plan.input_template.edges == g.edges
        assert plan.input_template.self_loops == g.self_loops | set(range(v, m))
    if sl2_order(smallest_modulus(v)) == v:
        cgp, egp = (build_plan(g, s, depth, cache=PLAN_CACHE) for s in ("CGP", "EGP"))
        assert cgp.layer_graphs == egp.layer_graphs


# A drawn graph joined to spanning trees over its first k nodes, often all
# n: one tree from node 0 and one from each drawn start. One tree over all
# n nodes makes the graph connected; more trees, or k < n, leave it to the
# drawn edges to join the rest, so disconnected graphs and isolated nodes
# come up too (of the 200 examples, 132 connected and 57 with an isolated
# node).
@st.composite
def connectable_graphs(draw):
    g = draw(st.integers(1, 20).flatmap(graphs_on))
    n = g.node_count
    k = draw(st.just(n) | st.integers(0, n))
    starts = draw(st.sets(st.integers(1, n), max_size=2))
    edges, start = set(g.edges), 0
    for i in range(1, k):
        if i in starts:
            start = i
        else:
            edges.add((draw(st.integers(start, i - 1)), i))
    return UGraph(n, edges, g.self_loops)


@DETERMINISTIC
@given(g=connectable_graphs())
def test_diameter_matches_the_per_source_oracle(g):
    assert diameter_bfs(g) == diameter_per_source(g)


@DETERMINISTIC
@given(g=connectable_graphs())
def test_r_tot_matches_the_pairwise_resistance_oracle(g):
    # r_tot is the sum of the effective resistances over all node pairs,
    # and infinite when some pair is not joined.
    n = g.node_count
    if is_connected(g):
        pairwise = sum(
            effective_resistance_pair(g, u, v) for u in range(n) for v in range(u + 1, n)
        )
        assert analyze(g).r_tot == pytest.approx(pairwise, rel=1e-9, abs=1e-12)
    else:
        assert analyze(g).r_tot == np.inf


@st.composite
def cayley_prefixes(draw):
    full = CAYLEY_GRAPHS.graph(draw(st.integers(2, 5)))
    return induced_prefix_subgraph(full, draw(st.integers(1, full.node_count)))


@DETERMINISTIC
@given(g=connectable_graphs() | cayley_prefixes())
@example(g=UGraph(1))
@example(g=UGraph(2))
@example(g=UGraph(2, [(0, 1)]))
@example(g=UGraph(4, [(0, 1), (1, 2)]))
@example(g=UGraph(4, [(0, 1), (2, 3)]))
def test_analyze_matches_the_serial_oracle_byte_for_byte(g):
    # The worker thread's diameter and D - A spectrum and the caller's
    # normalized spectrum give every report field the serial path gives:
    # equal as values, and as bytes in the pickle (a -0.0 or NaN shows).
    report, expected = analyze(g), analyze_serial(g)
    assert report == expected
    assert pickle.dumps(report) == pickle.dumps(expected)
