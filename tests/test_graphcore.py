import hashlib

import numpy as np
import pytest

from cayleyprop.cayley import build_cayley
from cayleyprop.graphcore import (
    DENSE_NODE_CAP,
    EdgeListParseError,
    UGraph,
    complete_graph,
    emit_edge_list,
    gen_graph,
    parse_edge_list,
    star_graph,
)
from cayleyprop.nn import gen_sum_task
from cayleyprop.spectral import diameter_bfs
from oracles import (
    d_pattern_levels,
    d_patterns,
    disjoint_union,
    gen_ba_choice,
    is_connected,
    layer_operator,
    relabel_nodes,
)

# seed-pinned regression value recorded at first build
ER_20_HALF_SEED_1234_EDGES = 97

# SHA-256 of emit_edge_list over every graph of
# gen_sum_task("BA", 1000, 0, test_size=200), train then test, recorded with
# the Generator.choice generator: it pins the bytes themselves, so a numpy
# change to choice cannot move the oracle and the generator together unseen.
SUM_TASK_BA_EDGES_SHA256 = (
    "5a388f697c1e7adb982718a662c9bda22d06e9a03f9a9d05c71b3dffbd4ea400"
)

# SHA-256 of emit_edge_list over every graph of
# gen_sum_task("GNP", 200, 0, test_size=50), train then test, recorded while
# each sample drew its graph seed with its own rng.integers call.
SUM_TASK_GNP_EDGES_SHA256 = (
    "aca2a658b0d5486ffbddfb06fc7435174bd9a114ddc494034c038e58f0f6dc32"
)


class TestUGraph:
    def test_adjacency_over_the_dense_cap_rejected(self):
        n = DENSE_NODE_CAP + 1
        with pytest.raises(ValueError, match=f"{n} nodes.*{DENSE_NODE_CAP}"):
            UGraph(n).adjacency_matrix()

    def test_diameter_over_the_dense_cap_rejected(self):
        n = DENSE_NODE_CAP + 1
        with pytest.raises(ValueError, match=f"{n} nodes.*{DENSE_NODE_CAP}"):
            diameter_bfs(UGraph(n))

    def test_adjacency_consistent_with_edges(self):
        g = UGraph(4, [(0, 1), (1, 2), (0, 3)])
        assert g.adj[1] == (0, 2)
        assert g.degrees() == [2, 2, 1, 1]

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            UGraph(3, [(0, 1), (1, 0)])

    def test_rejects_plain_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            UGraph(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            UGraph(2, [(0, 2)])

    def test_rejects_negative_node_count(self):
        with pytest.raises(ValueError, match="node_count must be >= 0, got -1"):
            UGraph(-1)

    @pytest.mark.parametrize("node", [3, -1])
    def test_rejects_self_loop_node_out_of_range(self, node):
        with pytest.raises(ValueError, match=f"self-loop node {node} out of range"):
            UGraph(3, [(0, 1)], self_loops=[node])

    def test_self_loops_flagged_not_edges(self):
        g = UGraph(3, [(0, 1)], self_loops=[2])
        assert len(g.adj[2]) == 0
        assert 2 in g.self_loops
        assert g.adjacency_matrix()[2, 2] == 0.0
        assert layer_operator(g, "gin")[2, 2] == 1.0

    def test_canonical_edge_tuples_are_shared(self):
        g = gen_graph("ER", 12, 5, p=0.4)
        h = UGraph(g.node_count, g.edges, [3])
        assert h == UGraph(g.node_count, [list(e) for e in g.edges], [3])
        assert all(a is b for a, b in zip(h.edges, g.edges))

    @pytest.mark.parametrize(
        "pairs",
        [[(2, 0), (1, 2)], [[0, 2], [2, 1]], np.array([[0, 2], [2, 1]]),
         [(np.int64(2), np.int64(0)), (np.int64(1), np.int64(2))]],
        ids=["reversed", "lists", "array", "numpy-ints"],
    )
    def test_other_pairs_are_canonicalised(self, pairs):
        g = UGraph(3, pairs)
        assert g.edges == ((0, 2), (1, 2))
        assert all(type(e) is tuple for e in g.edges)

    @pytest.mark.parametrize(
        "pairs, match",
        [([(0, 1), (0, 1)], "duplicate"), ([(0, 1), [1, 0]], "duplicate"),
         ([(1, 1)], "self-loop"), ([(0, 3)], "out of range"),
         ([(-1, 2)], "out of range"), ([(0.5, 2)], "node id 0.5 is not"),
         ([(True, 2)], "node id True is not"), ([(0, 1), [1.0, 2]], "node id 1.0 is not"),
         ([(0, np.float64(2))], r"node id .*2\.0\)? is not"),
         ([(0, 1), (1, 2), (0, 2), (2, 1)], r"duplicate edge \(1, 2\)"),
         ([(1, 2), (0, 1), (0, 2), [0, 1]], r"duplicate edge \(0, 1\)")],
    )
    def test_canonical_tuples_are_still_validated(self, pairs, match):
        with pytest.raises(ValueError, match=match):
            UGraph(3, pairs)

    @pytest.mark.parametrize(
        "args, match",
        [((2.0,), "node_count 2.0 is not"), ((True,), "node_count True is not"),
         ((3, (), [1.7]), "self-loop node 1.7 is not"),
         ((3, (), [False]), "self-loop node False is not")],
    )
    def test_non_integer_node_count_and_self_loops_rejected(self, args, match):
        with pytest.raises(ValueError, match=match):
            UGraph(*args)

    def test_numpy_integers_become_python_ints(self):
        g = UGraph(np.int64(4), [(np.int32(0), 3)], [np.uint8(2)])
        assert g == UGraph(4, [(0, 3)], [2])
        assert type(g.node_count) is int
        assert all(type(x) is int for e in g.edges for x in e)
        assert all(type(u) is int for u in g.self_loops)
        assert emit_edge_list(g) == "4\n0 3\n2 2\n"

    def test_equality(self):
        assert UGraph(3, [(1, 2), (0, 1)]) == UGraph(3, [(0, 1), (2, 1)])
        assert UGraph(3, [(0, 1)]) != UGraph(3, [(0, 2)])

    def test_bfs_distances(self):
        g = UGraph(4, [(0, 1), (1, 2)])
        assert g.bfs_distances(0) == [0, 1, 2, -1]
        assert not is_connected(g)


class TestEdgeListFormat:
    def test_parse_path(self):
        g = parse_edge_list("3\n0 1\n1 2")
        assert g == UGraph(3, [(0, 1), (1, 2)])

    def test_node_count_inferred(self):
        g = parse_edge_list("0 1\n1 4")
        assert g.node_count == 5

    def test_round_trip_cayley(self):
        g = build_cayley(3).graph
        assert parse_edge_list(emit_edge_list(g)) == g

    def test_round_trip_with_self_loops(self):
        g = UGraph(4, [(0, 1)], self_loops=[2, 3])
        text = emit_edge_list(g)
        assert parse_edge_list(text, allow_self_loops=True) == g

    def test_self_loop_rejected_by_default(self):
        with pytest.raises(EdgeListParseError, match="line 1"):
            parse_edge_list("0 0")

    def test_duplicate_edge_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 4"):
            parse_edge_list("3\n0 1\n1 2\n1 0")

    def test_id_over_node_count(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse_edge_list("2\n0 2")

    def test_malformed_line(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse_edge_list("2\n0 x")

    def test_blank_lines_ignored(self):
        g = parse_edge_list("3\n\n0 1\n\n")
        assert g.edge_count == 1

    @pytest.mark.parametrize(
        "text, match",
        [("0 1\n3\n", "line 2: node-count line allowed only as the first line"),
         ("3\n4\n", "line 2: node-count line allowed only"),
         ("x\n0 1\n", "line 1: not an integer: 'x'"),
         ("-2\n", "line 1: negative node count"),
         ("3\n0 1\n-1 2\n", "line 3: negative node id"),
         ("3\n1 1\n0 2\n1 1\n", "line 4: duplicate self-loop 1")],
        ids=["count-after-edge", "second-count", "non-integer-count",
             "negative-count", "negative-id", "duplicate-self-loop"],
    )
    def test_malformed_input_names_its_line(self, text, match):
        with pytest.raises(EdgeListParseError, match=match):
            parse_edge_list(text, allow_self_loops=True)

    def test_self_loops_merge_into_edge_order(self):
        g = UGraph(6, [(0, 5), (1, 2), (3, 4)], self_loops=[5, 0, 3, 1])
        assert emit_edge_list(g) == "6\n0 0\n0 5\n1 1\n1 2\n3 3\n3 4\n5 5\n"


class TestGenerators:
    def test_star_shape(self):
        g = gen_graph("Star", 5)
        assert g.edge_count == 4
        assert all(0 in (u, v) for u, v in g.edges)

    def test_empty(self):
        assert gen_graph("Empty", 7).edge_count == 0

    def test_er_deterministic_and_pinned(self):
        g1 = gen_graph("ER", 20, 1234, p=0.5)
        g2 = gen_graph("ER", 20, 1234, p=0.5)
        assert g1 == g2
        assert g1.edge_count == ER_20_HALF_SEED_1234_EDGES
        assert 0 <= g1.edge_count <= 190

    def test_er_p_bounds(self):
        assert gen_graph("ER", 10, 0, p=0.0).edge_count == 0
        assert gen_graph("ER", 10, 0, p=1.0).edge_count == 45

    def test_ba_degrees(self):
        g = gen_graph("BA", 30, 7, m=2)
        assert is_connected(g)
        # every node past the core attaches with exactly m edges
        assert g.edge_count == 1 + 2 * 28

    def test_ba_single_attachment_is_a_tree(self):
        # the first draw sees node 0 with degree 0 and falls back to uniform
        g = gen_graph("BA", 12, 4, m=1)
        assert g.edges[0] == (0, 1)
        assert g.edge_count == 11 and is_connected(g)

    def test_ba_deterministic(self):
        assert gen_graph("BA", 25, 3, m=3) == gen_graph("BA", 25, 3, m=3)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            gen_graph("ER", 5, 0, p=1.5)
        with pytest.raises(ValueError):
            gen_graph("BA", 5, 0, m=0)
        with pytest.raises(ValueError):
            gen_graph("Lattice", 5, 0)
        with pytest.raises(ValueError, match="node count must be >= 1, got 0"):
            gen_graph("Empty", 0)

    def test_numpy_integers_convert(self):
        g = gen_graph("BA", np.int64(20), np.int64(3), m=np.int64(2))
        assert g == gen_graph("BA", 20, 3, m=2)
        assert gen_graph("ER", np.int32(9), 1, p=np.float64(0.5)) == gen_graph(
            "ER", 9, 1, p=0.5
        )

    @pytest.mark.parametrize(
        "kind, n, kwargs, message",
        [
            ("BA", 10, {"m": 2.5}, "attachment count m 2.5 is not an integer"),
            ("BA", 10, {"m": True}, "attachment count m True is not an integer"),
            ("BA", 10.0, {"m": 2}, "node count 10.0 is not an integer"),
            ("BA", True, {"m": 2}, "node count True is not an integer"),
            ("BA", 10, {"m": 2, "seed": 1.0}, "seed 1.0 is not an integer"),
            ("ER", 10, {"p": 0.3, "seed": False}, "seed False is not an integer"),
            ("ER", 10, {"p": True}, r"ER requires p in \[0, 1\], got True"),
            ("ER", 10, {"p": "0.5"}, r"ER requires p in \[0, 1\], got '0.5'"),
            ("Empty", 4.0, {}, "node count 4.0 is not an integer"),
        ],
    )
    def test_bad_argument_types_are_value_errors(self, kind, n, kwargs, message):
        with pytest.raises(ValueError, match=message):
            gen_graph(kind, n, **kwargs)


class TestBAMatchesChoiceOracle:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 15])
    @pytest.mark.parametrize("n", [*range(1, 12), 20, 37, 100, 300])
    def test_graph_for_graph(self, n, m):
        for seed in (0, 1, 7, 2**62 - 1):
            assert gen_graph("BA", n, seed, m=m) == gen_ba_choice(n, m, seed)

    def test_sum_task_edge_lists_are_pinned(self):
        ds = gen_sum_task("BA", 1000, 0, test_size=200)
        text = "".join(emit_edge_list(s.graph) for s in ds.train + ds.test)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == SUM_TASK_BA_EDGES_SHA256


def test_sum_task_gnp_edge_lists_are_pinned():
    ds = gen_sum_task("GNP", 200, 0, test_size=50)
    text = "".join(emit_edge_list(s.graph) for s in ds.train + ds.test)
    assert hashlib.sha256(text.encode()).hexdigest() == SUM_TASK_GNP_EDGES_SHA256


class TestRelabelAndUnion:
    def test_relabel_round_trip(self):
        g = gen_graph("ER", 8, 5, p=0.4)
        perm = [3, 1, 0, 2, 7, 6, 5, 4]
        inverse = [perm.index(i) for i in range(8)]
        assert relabel_nodes(relabel_nodes(g, perm), inverse) == g

    def test_union_blocks(self):
        g = disjoint_union([complete_graph(3), star_graph(3)])
        assert g.node_count == 6
        assert (3, 4) in g.edges and (0, 1) in g.edges
        assert not is_connected(g)


class TestDPatterns:
    def test_depth_zero_is_labels(self):
        g = gen_graph("ER", 6, 2, p=0.5)
        labels = [5, 5, 2, 5, 2, 1]
        assert d_patterns(g, labels, 0) == labels

    def test_star_depth_one_splits_center(self):
        g = star_graph(6)
        ids = d_patterns(g, [0] * 6, 1)
        assert len(set(ids)) == 2
        assert ids.count(ids[0]) == 1  # the hub is alone in its class

    def test_cayley_constant_labels_single_class(self):
        g = build_cayley(3).graph
        for depth in range(6):
            assert len(set(d_patterns(g, [0] * 24, depth))) == 1

    def test_refinement_monotone(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            g = gen_graph("ER", 10, seed, p=0.3)
            labels = rng.integers(0, 2, 10).tolist()
            levels = d_pattern_levels(g, labels, 4)
            for shallow, deep in zip(levels, levels[1:]):
                # equal deep ids force equal shallow ids
                classes = {}
                for u in range(10):
                    classes.setdefault(deep[u], set()).add(shallow[u])
                assert all(len(vals) == 1 for vals in classes.values())

    def test_self_loop_counts_once(self):
        plain = UGraph(2, [(0, 1)])
        looped = UGraph(2, [(0, 1)], self_loops=[0])
        assert len(set(d_patterns(plain, [0, 0], 1))) == 1
        assert len(set(d_patterns(looped, [0, 0], 1))) == 2

    def test_label_count_validated(self):
        with pytest.raises(ValueError):
            d_patterns(star_graph(3), [0, 0], 1)
