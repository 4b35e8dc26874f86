import numpy as np
import pytest

from cayleyprop.cayley import build_cayley
from cayleyprop.graphcore import (
    DENSE_NODE_CAP,
    EdgeListParseError,
    UGraph,
    complete_graph,
    d_pattern_levels,
    d_patterns,
    disjoint_union,
    emit_edge_list,
    gen_graph,
    parse_edge_list,
    relabel_nodes,
    star_graph,
)

# seed-pinned regression value recorded at first build
ER_20_HALF_SEED_1234_EDGES = 97


class TestUGraph:
    def test_adjacency_over_the_dense_cap_rejected(self):
        n = DENSE_NODE_CAP + 1
        with pytest.raises(ValueError, match=f"{n} nodes.*{DENSE_NODE_CAP}"):
            UGraph(n).adjacency_matrix()

    def test_adjacency_consistent_with_edges(self):
        g = UGraph(4, [(0, 1), (1, 2), (0, 3)])
        assert g.neighbors(1) == (0, 2)
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

    def test_self_loops_flagged_not_edges(self):
        g = UGraph(3, [(0, 1)], self_loops=[2])
        assert g.degree(2) == 0
        assert 2 in g.self_loops
        a = g.adjacency_matrix(include_self_loops=True)
        assert a[2, 2] == 1.0
        assert g.adjacency_matrix()[2, 2] == 0.0

    def test_equality(self):
        assert UGraph(3, [(1, 2), (0, 1)]) == UGraph(3, [(0, 1), (2, 1)])
        assert UGraph(3, [(0, 1)]) != UGraph(3, [(0, 2)])

    def test_bfs_distances(self):
        g = UGraph(4, [(0, 1), (1, 2)])
        assert g.bfs_distances(0) == [0, 1, 2, -1]
        assert not g.is_connected()


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
        assert g.is_connected()
        # every node past the core attaches with exactly m edges
        assert g.edge_count == 1 + 2 * 28

    def test_ba_deterministic(self):
        assert gen_graph("BA", 25, 3, m=3) == gen_graph("BA", 25, 3, m=3)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            gen_graph("ER", 5, 0, p=1.5)
        with pytest.raises(ValueError):
            gen_graph("BA", 5, 0, m=0)
        with pytest.raises(ValueError):
            gen_graph("Lattice", 5, 0)


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
        assert not g.is_connected()


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
