import hashlib

import pytest

from cayleyprop.cayley import (
    CayleyCache,
    build_cayley,
    smallest_modulus,
)
from cayleyprop.graphcore import emit_edge_list, induced_prefix_subgraph
from cayleyprop.modgroup import sl2_order
from cayleyprop.spectral import analyze

# Regression anchor: the labelled BFS output is deterministic for the fixed
# generator order, so the canonical edge list hashes to a constant.
CAYLEY_N3_EDGELIST_SHA256 = (
    "8b2d8e824487a0cc5fce8827bb1c7dda68b33c6856fb3fc8de1cef8e7eca75b7"
)


class TestBuild:
    def test_n2_is_two_regular_cycle(self):
        g = build_cayley(2).graph
        assert g.node_count == 6
        assert set(g.degrees()) == {2}
        assert g.is_connected()

    def test_n3_figure_counts(self):
        cg = build_cayley(3)
        assert cg.graph.node_count == 24
        assert cg.graph.edge_count == 48
        assert set(cg.graph.degrees()) == {4}
        assert cg.degree == 4

    def test_n5_counts(self):
        g = build_cayley(5).graph
        assert g.node_count == 120
        assert g.edge_count == 240

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_invariants(self, n):
        cg = build_cayley(n)
        assert cg.graph.node_count == sl2_order(n)
        # BFS labels the identity 0 and its generator neighbors 1..degree.
        assert cg.graph.neighbors(0) == tuple(range(1, cg.degree + 1))
        assert set(cg.graph.degrees()) == {cg.degree}
        assert cg.graph.edge_count == cg.degree * cg.graph.node_count // 2
        assert cg.graph.is_connected()

    def test_deterministic_edge_list(self):
        text = emit_edge_list(build_cayley(3).graph)
        assert hashlib.sha256(text.encode()).hexdigest() == CAYLEY_N3_EDGELIST_SHA256

    def test_budget_error_names_required_count(self):
        with pytest.raises(ValueError, match="1320"):
            build_cayley(11, budget=1000)


class TestSmallestModulus:
    @pytest.mark.parametrize("v,n", [(1, 2), (6, 2), (7, 3), (24, 3), (25, 4), (121, 6)])
    def test_examples(self, v, n):
        assert smallest_modulus(v) == n

    def test_order_actually_reaches(self):
        for v in (1, 10, 100, 1000):
            n = smallest_modulus(v)
            assert sl2_order(n) >= v
            if n > 2:
                assert sl2_order(n - 1) < v

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            smallest_modulus(0)


class TestTruncate:
    def test_full_size_is_identity(self):
        cg = build_cayley(3)
        assert induced_prefix_subgraph(cg.graph, 24) == cg.graph

    def test_single_vertex(self):
        g = induced_prefix_subgraph(build_cayley(3).graph, 1)
        assert g.node_count == 1 and g.edge_count == 0

    def test_never_adds_edges(self):
        cg = build_cayley(4)
        full = set(cg.graph.edges)
        for v in (5, 17, 30, 47):
            sub = induced_prefix_subgraph(cg.graph, v)
            assert set(sub.edges) <= full
            assert all(max(e) < v for e in sub.edges)

    def test_truncation_stays_connected(self):
        # every BFS vertex keeps its discovery parent
        cg = build_cayley(3)
        for v in range(2, 24):
            assert induced_prefix_subgraph(cg.graph, v).is_connected()

    def test_truncated_gap_below_complete(self):
        cg = build_cayley(3)
        truncated = analyze(induced_prefix_subgraph(cg.graph, 12))
        complete = analyze(cg.graph)
        assert truncated.spectral_gap < complete.spectral_gap

    def test_range_validation(self):
        cg = build_cayley(2)
        with pytest.raises(ValueError):
            induced_prefix_subgraph(cg.graph, 0)
        with pytest.raises(ValueError):
            induced_prefix_subgraph(cg.graph, 7)


class TestCache:
    def test_build_write_read(self, tmp_path):
        cache = CayleyCache(tmp_path)
        g = cache.graph(3)
        path = cache.path_for(3)
        assert path.is_file()
        assert path.name == "cayley-n3-v24.edgelist"
        # a second cache instance reads the file instead of rebuilding
        assert CayleyCache(tmp_path).graph(3) == g

    def test_memory_hit_returns_same_object(self, tmp_path):
        cache = CayleyCache(tmp_path)
        assert cache.graph(3) is cache.graph(3)

    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAYLEYPROP_CACHE_DIR", str(tmp_path / "envcache"))
        cache = CayleyCache()
        cache.graph(2)
        assert (tmp_path / "envcache" / "cayley-n2-v6.edgelist").is_file()

    def test_irregular_cache_file_rejected(self, tmp_path):
        # right node count, wrong edges: must not pass for Cay(SL(2, Z_5))
        (tmp_path / "cayley-n5-v120.edgelist").write_text("120\n0 1\n")
        with pytest.raises(ValueError, match="corrupt cache file"):
            CayleyCache(tmp_path).graph(5)

    def test_cached_fetch_strictly_faster_than_cold_build(self, tmp_path):
        import time

        cache = CayleyCache(tmp_path)
        t0 = time.perf_counter()
        cache.graph(13)  # 2184 vertices, built by BFS
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        cache.graph(13)  # memory hit
        warm = time.perf_counter() - t0
        assert warm < cold
