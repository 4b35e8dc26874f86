import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from cayleyprop import propagation
from cayleyprop.cayley import CayleyCache, write_atomic
from cayleyprop.graphcore import UGraph, gen_ba_graphs, gen_graph, parse_edge_list
from cayleyprop.modgroup import sl2_order
from cayleyprop.propagation import (
    MAX_LAYERS,
    SCHEMES,
    build_plan,
    export_plan,
    extend_features,
    extend_input_adjacency,
    master_node_graph,
)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return CayleyCache(tmp_path_factory.mktemp("cayley-cache"))


class TestExtendFeatures:
    def test_zero_padding(self):
        x = np.arange(6.0).reshape(3, 2)
        out = extend_features(x, 6)
        assert out.shape == (6, 2)
        assert np.array_equal(out[:3], x)
        assert np.all(out[3:] == 0.0)

    def test_no_op_when_sizes_match(self):
        x = np.ones((4, 3))
        assert np.array_equal(extend_features(x, 4), x)

    def test_shrink_rejected(self):
        with pytest.raises(ValueError):
            extend_features(np.ones((5, 2)), 3)


class TestExtendAdjacency:
    def test_no_op_when_sizes_match(self):
        g = UGraph(3, [(0, 1)])
        assert extend_input_adjacency(g, 3) is g

    def test_virtual_nodes_only_self_loops(self):
        g = UGraph(2, [(0, 1)])
        ext = extend_input_adjacency(g, 4)
        assert ext.node_count == 4
        assert ext.edges == ((0, 1),)
        assert ext.self_loops == frozenset({2, 3})

    def test_shares_its_input_edge_tuples(self):
        g = gen_ba_graphs(20, 2, [6])[0]
        ext = extend_input_adjacency(g, 24)
        assert ext.edges == g.edges
        assert all(a is b for a, b in zip(ext.edges, g.edges))

    def test_original_degrees_unchanged(self):
        g = gen_graph(10, 3, p=0.5)
        ext = extend_input_adjacency(g, 24)
        assert ext.degrees()[:10] == g.degrees()
        assert all(len(ext.adj[u]) == 0 for u in range(10, 24))

    def test_shrink_rejected(self):
        with pytest.raises(ValueError):
            extend_input_adjacency(UGraph(5), 4)


class TestMasterNode:
    def test_hub_adjacent_to_all(self):
        g = UGraph(3, [(0, 1)])
        m = master_node_graph(g)
        assert m.node_count == 4
        assert len(m.adj[3]) == 3
        assert (0, 1) in m.edges


class TestBuildPlan:
    def test_cgp_exact_fit(self, cache):
        g = gen_graph(24, 0, p=0.3)
        plan = build_plan(g, "CGP", 3, cache=cache)
        assert plan.extended_count == 24
        assert plan.virtual_count == 0
        assert plan.layer_kinds == ("input_extended", "cayley", "input_extended")

    def test_cgp_padding(self, cache):
        g = gen_graph(20, 0, p=0.3)
        plan = build_plan(g, "CGP", 2, cache=cache)
        assert plan.modulus == 3
        assert plan.extended_count == sl2_order(3) == 24
        assert plan.virtual_count == 4
        assert plan.virtual_range == (20, 24)

    def test_egp_truncates(self, cache):
        g = gen_graph(20, 0, p=0.3)
        plan = build_plan(g, "EGP", 4, cache=cache)
        assert plan.extended_count == 20
        assert plan.layer_kinds == ("input", "cayley", "input", "cayley")
        cayley = plan.layer_graphs[1]
        assert cayley.node_count == 20
        full = cache.graph(3)
        assert set(cayley.edges) <= set(full.edges)

    def test_base(self):
        g = UGraph(5, [(0, 1)])
        plan = build_plan(g, "Base", 3)
        assert plan.extended_count == 5
        assert all(lg is g for lg in plan.layer_graphs)

    def test_master_node(self):
        g = UGraph(5, [(0, 1)])
        plan = build_plan(g, "MasterNode", 2)
        assert plan.extended_count == 6
        assert all(k == "master" for k in plan.layer_kinds)
        assert len(plan.layer_graphs[0].adj[5]) == 5

    def test_fa_last(self):
        g = UGraph(4, [(0, 1)])
        plan = build_plan(g, "FALast", 3)
        assert plan.layer_kinds == ("input", "input", "fully_adjacent")
        fa = plan.layer_graphs[-1]
        assert fa.edge_count == 6

    def test_fa_last_plans_of_one_count_share_one_complete_graph(self):
        # One graph object, so a stack of FALast samples gets one broadcast
        # operator; it lives as long as a plan that uses it, and no longer.
        first = build_plan(UGraph(7, [(0, 1)]), "FALast", 2)
        second = build_plan(gen_graph(7, 3, p=0.5), "FALast", 3)
        fa = first.layer_graphs[-1]
        assert second.layer_graphs[-1] is fa
        assert fa == UGraph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
        assert build_plan(UGraph(8), "FALast", 2).layer_graphs[-1].node_count == 8
        alive = weakref.ref(fa)
        del first, second, fa
        gc.collect()
        assert alive() is None

    def test_cgp_last_and_every(self, cache):
        g = gen_graph(20, 1, p=0.3)
        last = build_plan(g, "CGPLast", 3, cache=cache)
        assert last.layer_kinds == ("input_extended", "input_extended", "cayley")
        every = build_plan(g, "CGPEvery", 3, cache=cache)
        assert every.layer_kinds == ("cayley",) * 3
        assert every.extended_count == 24

    def test_cgp_degenerates_to_egp(self, cache):
        g = gen_graph(24, 2, p=0.3)
        cgp = build_plan(g, "CGP", 4, cache=cache)
        egp = build_plan(g, "EGP", 4, cache=cache)
        assert cgp.layer_graphs == egp.layer_graphs
        assert cgp.extended_count == egp.extended_count

    def test_all_layer_graphs_sized_to_extended_count(self, cache):
        g = gen_graph(11, 4, p=0.4)
        for scheme in SCHEMES:
            plan = build_plan(g, scheme, 3, cache=cache)
            for lg in plan.layer_graphs:
                assert lg.node_count == plan.extended_count

    def test_template_size_must_match_extended_count(self):
        g = UGraph(3, [(0, 1)])
        plan = build_plan(g, "Base", 1)
        with pytest.raises(ValueError, match="template graph has 4 nodes"):
            dataclasses.replace(plan, cayley_template=UGraph(4))

    def test_invalid_inputs(self, cache):
        g = UGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            build_plan(g, "Ring", 2, cache=cache)
        with pytest.raises(ValueError):
            build_plan(g, "CGP", 0, cache=cache)
        with pytest.raises(ValueError, match="input graph has no nodes"):
            build_plan(UGraph(0), "CGP", 2, cache=cache)

    def test_layers_past_the_cap_are_refused_before_any_build(self, monkeypatch):
        # 10**9 layer kinds would be an 8 GB tuple; the group is not built either
        monkeypatch.setattr(propagation, "CayleyCache", None)
        g = UGraph(3, [(0, 1)])
        for layers in (MAX_LAYERS + 1, 10**9):
            with pytest.raises(ValueError, match=f"{layers} layers exceed the cap of {MAX_LAYERS}"):
                build_plan(g, "CGP", layers)
        assert build_plan(g, "Base", MAX_LAYERS).num_layers == MAX_LAYERS


class TestExport:
    def test_files_and_manifest(self, cache, tmp_path):
        g = gen_graph(20, 5, p=0.3)
        plan = build_plan(g, "CGP", 2, cache=cache)
        manifest = export_plan(plan, tmp_path, "g0")
        assert manifest["virtual_node_range"] == [20, 24]
        written = json.loads((tmp_path / "g0.json").read_text())
        assert written == manifest
        ext = parse_edge_list(
            (tmp_path / "g0.input_extended.edgelist").read_text(),
            allow_self_loops=True,
        )
        assert ext == plan.input_template
        cay = parse_edge_list((tmp_path / "g0.cayley.edgelist").read_text())
        assert cay == cache.graph(3)

    def test_every_file_is_written_atomically(self, cache, tmp_path, monkeypatch):
        written = []

        def recording(path, text):
            written.append(path.name)
            write_atomic(path, text)

        monkeypatch.setattr(propagation, "write_atomic", recording)
        plan = build_plan(gen_graph(10, 6, p=0.4), "CGP", 2, cache=cache)
        export_plan(plan, tmp_path / "new" / "dir", "g3")
        assert written == ["g3.input_extended.edgelist", "g3.cayley.edgelist", "g3.json"]
        assert sorted(p.name for p in (tmp_path / "new" / "dir").iterdir()) == sorted(written)

    def test_cgp_every_still_exports_input(self, cache, tmp_path):
        g = gen_graph(10, 6, p=0.4)
        plan = build_plan(g, "CGPEvery", 2, cache=cache)
        manifest = export_plan(plan, tmp_path, "g1")
        assert (tmp_path / "g1.input_extended.edgelist").is_file()
        assert manifest["files"]["cayley"] == "g1.cayley.edgelist"

    def test_non_cayley_scheme_rejected(self, tmp_path):
        plan = build_plan(UGraph(3, [(0, 1)]), "Base", 1)
        with pytest.raises(ValueError):
            export_plan(plan, tmp_path, "g2")
