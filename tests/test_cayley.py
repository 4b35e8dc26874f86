import hashlib
import os
import re
import stat
import time

import pytest

from cayleyprop import cayley
from cayleyprop.cayley import (
    DEFAULT_VERTEX_BUDGET,
    CayleyCache,
    build_cayley,
    smallest_modulus,
)
from cayleyprop.graphcore import emit_edge_list, induced_prefix_subgraph
from cayleyprop.modgroup import right_action, sl2_order
from cayleyprop.spectral import analyze
from oracles import build_cayley_mat2z, is_connected

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
        assert is_connected(g)

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
        assert cg.graph.adj[0] == tuple(range(1, cg.degree + 1))
        assert set(cg.graph.degrees()) == {cg.degree}
        assert cg.graph.edge_count == cg.degree * cg.graph.node_count // 2
        assert is_connected(cg.graph)

    def test_deterministic_edge_list(self):
        text = emit_edge_list(build_cayley(3).graph)
        assert hashlib.sha256(text.encode()).hexdigest() == CAYLEY_N3_EDGELIST_SHA256

    def test_budget_error_names_required_count(self, monkeypatch):
        # the budget is read when the build starts, not bound at import
        monkeypatch.setattr(cayley, "DEFAULT_VERTEX_BUDGET", 1000)
        with pytest.raises(ValueError, match="1320.*1000"):
            build_cayley(11)

    @pytest.mark.parametrize(
        "n",
        list(range(2, 21)) + [pytest.param(n, marks=pytest.mark.slow) for n in range(21, 31)],
    )
    def test_edge_list_matches_mat2z_oracle(self, n):
        text = emit_edge_list(build_cayley(n).graph)
        assert text == emit_edge_list(build_cayley_mat2z(n))

    def test_incomplete_bfs_is_runtime_error(self, monkeypatch):
        # the two column operations of the upper generators reach only the
        # upper triangular elements
        monkeypatch.setattr(cayley, "right_action", lambda x, n: right_action(x, n)[:2])
        with pytest.raises(RuntimeError, match="reached 5 elements, expected 120"):
            build_cayley(5)

    def test_identity_generator_is_refused(self, monkeypatch):
        # x * I = x: the product's edge is a self-loop, which UGraph refuses
        def with_identity(x, n):
            products = right_action(x, n)
            return products[:1] + [x] + products[1:]

        monkeypatch.setattr(cayley, "right_action", with_identity)
        with pytest.raises(ValueError, match=r"ordinary edge \(0, 0\) is a self-loop"):
            build_cayley(5)

    def test_rejects_modulus_below_two(self):
        with pytest.raises(ValueError, match="modulus must be >= 2, got 1"):
            build_cayley(1)


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

    def test_reaches_the_vertex_budget(self):
        assert sl2_order(smallest_modulus(DEFAULT_VERTEX_BUDGET)) >= DEFAULT_VERTEX_BUDGET

    def test_rejects_targets_over_the_budget_before_scanning(self, monkeypatch):
        # The scan factorises every modulus up to ~v^(1/3): 13 minutes at
        # v = 10^21. Over the budget it must not start.
        def no_scan(n):
            raise AssertionError(f"scanned modulus {n}")

        monkeypatch.setattr(cayley, "sl2_order", no_scan)
        t0 = time.perf_counter()
        for v in (DEFAULT_VERTEX_BUDGET + 1, 10**21):
            with pytest.raises(ValueError, match=f"{v}.*{DEFAULT_VERTEX_BUDGET}"):
                smallest_modulus(v)
        assert time.perf_counter() - t0 < 0.1


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
            assert is_connected(induced_prefix_subgraph(cg.graph, v))

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


class TestWriteAtomic:
    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(TypeError):
            cayley.write_atomic(path, None)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
        assert path.read_text() == "old\n"

    def test_failed_rename_keeps_the_old_file_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("old\n")

        def no_replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(cayley.os, "replace", no_replace)
        with pytest.raises(OSError, match="rename refused"):
            cayley.write_atomic(path, "new\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
        assert path.read_text() == "old\n"

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_mode_is_the_mode_open_gives(self, tmp_path, umask):
        # For a new file and an overwritten one: 0644 under umask 022, not
        # mkstemp's owner-only 0600.
        old_umask = os.umask(umask)
        try:
            with open(tmp_path / "plain.txt", "w") as fh:
                fh.write("x\n")
            path = tmp_path / "out.txt"
            cayley.write_atomic(path, "new\n")
            new_mode = stat.S_IMODE(path.stat().st_mode)
            path.chmod(0o600)
            cayley.write_atomic(path, "again\n")
        finally:
            os.umask(old_umask)
        expected = stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)
        assert expected == 0o666 & ~umask
        assert new_mode == expected
        assert stat.S_IMODE(path.stat().st_mode) == expected
        assert path.read_text() == "again\n"


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

    def test_without_a_directory_nothing_touches_disk(self, tmp_path, monkeypatch):
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.chdir(tmp_path)
        cache = CayleyCache()
        assert cache.directory is None
        g = cache.graph(3)
        assert g == build_cayley(3).graph and cache.graph(3) is g
        assert [p.name for p in tmp_path.iterdir()] == ["home"]
        assert list(home.iterdir()) == []

    def test_irregular_cache_file_rejected(self, tmp_path):
        # right node count, wrong edges: must not pass for Cay(SL(2, Z_5))
        (tmp_path / "cayley-n5-v120.edgelist").write_text("120\n0 1\n")
        with pytest.raises(ValueError, match="corrupt cache file"):
            CayleyCache(tmp_path).graph(5)

    @pytest.mark.parametrize(
        "content",
        [b"120\n0 1\n1 x\n", b"120\n0 1 2\n", b"0 1\n\xff\xfe\n"],
        ids=["non-integer-id", "three-tokens", "not-utf8"],
    )
    def test_unparsable_cache_file_rejected(self, tmp_path, content):
        path = tmp_path / "cayley-n5-v120.edgelist"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(f"corrupt cache file {path}: ")) as info:
            CayleyCache(tmp_path).graph(5)
        assert type(info.value) is ValueError

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
