import dataclasses
import hashlib
import math
import re
import types
import weakref

import numpy as np
import pytest

from cayleyprop import cayley
from cayleyprop.cayley import CayleyCache, smallest_modulus
from cayleyprop.graphcore import (
    DENSE_NODE_CAP,
    UGraph,
    gen_ba_graphs,
    gen_graph,
    star_graph,
)
from cayleyprop import nn
from cayleyprop.nn import (
    LAYER_KINDS,
    SUM_TASK_STRUCTURES,
    AdamState,
    GINLayerParams,
    ModelParams,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    curve_to_csv,
    gen_sum_task,
    init_params,
    loss_and_grads,
    relu_kink_margin,
    scheme_plan_builder,
    train,
)
from cayleyprop.nn import GCNLayerParams, _loss_and_dz
from cayleyprop.propagation import SCHEMES, build_plan
from oracles import (
    _forward_cached,
    assert_matches_oracle,
    batch_gradients,
    int_refusal,
    layer_forward,
    model_forward,
    readout,
    relabel_nodes,
    sample_gradients,
    zero_grads,
)
import oracles


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return CayleyCache(tmp_path_factory.mktemp("cayley-cache"))


def identity_gin(dim, eps=0.0):
    return GINLayerParams(
        eps=np.asarray(float(eps)),
        w1=np.eye(dim),
        b1=np.zeros(dim),
        w2=np.eye(dim),
        b2=np.zeros(dim),
    )


# ---------------------------------------------------------------------------
# Per-node loop oracles, written independently of the matrix implementations
# ---------------------------------------------------------------------------


def gin_loop_oracle(x, g, p):
    n, _ = x.shape
    out = np.empty((n, p.b2.size))
    for u in range(n):
        agg = (1.0 + float(p.eps)) * x[u].copy()
        for v in g.adj[u]:
            agg = agg + x[v]
        if u in g.self_loops:
            agg = agg + x[u]
        hidden = np.maximum(agg @ p.w1 + p.b1, 0.0)
        out[u] = hidden @ p.w2 + p.b2
    return out


def gcn_loop_oracle(x, g, p):
    n, _ = x.shape
    deg = [len(g.adj[u]) + 1 for u in range(n)]
    out = np.empty((n, p.b.size))
    for u in range(n):
        acc = x[u] / deg[u]  # the added self-edge
        for v in g.adj[u]:
            acc = acc + x[v] / math.sqrt(deg[u] * deg[v])
        out[u] = np.maximum(acc @ p.w + p.b, 0.0)
    return out


class TestGinLayer:
    def test_star_center_sums_neighbors(self):
        g = star_graph(4)
        x = np.ones((4, 1))
        out = layer_forward(x, g, identity_gin(1))
        assert out[0, 0] == pytest.approx(4.0)  # own + three leaves
        assert out[1, 0] == pytest.approx(2.0)

    def test_empty_graph_identity(self):
        g = UGraph(3)
        x = np.abs(np.random.default_rng(0).standard_normal((3, 2)))
        assert np.allclose(layer_forward(x, g, identity_gin(2)), x)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        for seed, n in [(0, 5), (1, 5), (2, 12), (3, 30)]:
            g = gen_graph(n, seed, p=0.4)
            p = GINLayerParams(
                eps=np.asarray(rng.standard_normal()),
                w1=rng.standard_normal((3, 4)),
                b1=rng.standard_normal(4),
                w2=rng.standard_normal((4, 2)),
                b2=rng.standard_normal(2),
            )
            x = rng.standard_normal((n, 3))
            np.testing.assert_allclose(
                layer_forward(x, g, p), gin_loop_oracle(x, g, p), atol=1e-12
            )

    def test_self_loop_counts_once(self):
        g = UGraph(2, [], self_loops=[0])
        x = np.array([[1.0], [1.0]])
        out = layer_forward(x, g, identity_gin(1))
        assert out[0, 0] == pytest.approx(2.0)
        assert out[1, 0] == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            layer_forward(np.ones((3, 2)), UGraph(2), identity_gin(2))


class TestGcnLayer:
    def test_single_node_no_edges(self):
        p = GCNLayerParams(w=np.eye(2), b=np.zeros(2))
        x = np.array([[0.5, -0.5]])
        np.testing.assert_allclose(layer_forward(x, UGraph(1), p), [[0.5, 0.0]])

    def test_two_node_symmetric_average(self):
        g = UGraph(2, [(0, 1)])
        p = GCNLayerParams(w=np.eye(2), b=np.zeros(2))
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        out = layer_forward(x, g, p)
        np.testing.assert_allclose(out, [[0.5, 0.0], [0.5, 0.0]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        for seed, n in [(40, 6), (41, 6), (42, 15), (43, 30)]:
            g = gen_graph(n, seed, p=0.4)
            p = GCNLayerParams(
                w=rng.standard_normal((3, 3)), b=rng.standard_normal(3)
            )
            x = rng.standard_normal((n, 3))
            np.testing.assert_allclose(
                layer_forward(x, g, p), gcn_loop_oracle(x, g, p), atol=1e-12
            )

    def test_flagged_self_loop_not_double_counted(self):
        plain = UGraph(2, [(0, 1)])
        looped = UGraph(2, [(0, 1)], self_loops=[0])
        p = GCNLayerParams(w=np.eye(1), b=np.zeros(1))
        x = np.array([[1.0], [2.0]])
        np.testing.assert_allclose(layer_forward(x, plain, p), layer_forward(x, looped, p))


class TestModelForward:
    def test_cgp_degenerate_equals_egp_bitwise(self, cache):
        g = gen_graph(24, 9, p=0.3)
        rng = np.random.default_rng(0)
        params = init_params(rng, "gin", 4, 6, 2)
        x = rng.standard_normal((24, 4))
        cgp = build_plan(g, "CGP", 2, cache=cache)
        egp = build_plan(g, "EGP", 2, cache=cache)
        h1, z1 = model_forward(cgp, params, x)
        h2, z2 = model_forward(egp, params, x)
        assert np.array_equal(h1, h2)
        assert z1 == z2

    def test_virtual_rows_never_reach_prediction(self, cache):
        g = gen_graph(20, 9, p=0.3)
        plan = build_plan(g, "CGP", 2, cache=cache)
        rng = np.random.default_rng(1)
        params = init_params(rng, "gin", 4, 6, 2)
        x = rng.standard_normal((20, 4))
        h, z = model_forward(plan, params, x)
        perturbed = h.copy()
        perturbed[20:] += rng.standard_normal((4, 6)) * 50.0
        assert readout(plan, params, perturbed) == z

    def test_two_layer_cgp_matches_stepwise_oracle(self, cache):
        # evaluate layer(layer(extended X, extended input graph), Cayley)
        # node by node with the loop oracle and compare whole-model output
        rng = np.random.default_rng(12)
        g = gen_graph(20, 30, p=0.35)
        plan = build_plan(g, "CGP", 2, cache=cache)
        params = init_params(rng, "gin", 3, 5, 2)
        x = rng.standard_normal((20, 3))

        x_ext = np.vstack([x, np.zeros((4, 3))])
        h1 = gin_loop_oracle(x_ext, plan.layer_graphs[0], params.layers[0])
        h2 = gin_loop_oracle(h1, plan.layer_graphs[1], params.layers[1])
        z_oracle = h2[:20].sum(axis=0) @ params.readout_w + float(params.readout_b)

        h, z = model_forward(plan, params, x)
        np.testing.assert_allclose(h, h2, atol=1e-12)
        assert z == pytest.approx(float(z_oracle), abs=1e-10)

    def test_param_plan_mismatch(self, cache):
        g = gen_graph(10, 2, p=0.4)
        plan = build_plan(g, "Base", 2)
        params = init_params(np.random.default_rng(0), "gin", 4, 6, 3)
        with pytest.raises(ValueError):
            model_forward(plan, params, np.ones((10, 4)))

    def test_permutation_equivariance_base(self):
        rng = np.random.default_rng(7)
        g = gen_graph(9, 21, p=0.5)
        perm = list(rng.permutation(9))
        params = init_params(rng, "gin", 3, 5, 2)
        x = rng.standard_normal((9, 3))
        h, z = model_forward(build_plan(g, "Base", 2), params, x)
        hp, zp = model_forward(
            build_plan(relabel_nodes(g, perm), "Base", 2), params, x[np.argsort(perm)]
        )
        # row u of the permuted run carries the embedding of node perm^-1(u)
        np.testing.assert_allclose(hp[perm], h, atol=1e-12)
        assert zp == pytest.approx(z, abs=1e-9)

    def test_permutation_equivariance_cgp_with_consistent_templates(self, cache):
        # The Cayley template assigns input node u to Cayley vertex u, so the
        # permutation must carry the template graphs along; the prediction is
        # then invariant and the embeddings permute.
        rng = np.random.default_rng(8)
        g = gen_graph(20, 22, p=0.4)
        params = init_params(rng, "gin", 3, 5, 2)
        x = rng.standard_normal((20, 3))
        plan = build_plan(g, "CGP", 2, cache=cache)

        perm = list(rng.permutation(20))
        ext_perm = perm + list(range(20, plan.extended_count))
        permuted_plan = build_plan(
            relabel_nodes(g, perm), "CGP", 2, cache=cache
        )
        permuted_plan = dataclasses.replace(
            permuted_plan,
            input_template=relabel_nodes(plan.input_template, ext_perm),
            cayley_template=relabel_nodes(plan.cayley_template, ext_perm),
        )
        h, z = model_forward(plan, params, x)
        hp, zp = model_forward(permuted_plan, params, x[np.argsort(perm)])
        np.testing.assert_allclose(hp[ext_perm], h, atol=1e-11)
        assert zp == pytest.approx(z, abs=1e-9)

    def test_unknown_layer_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown layer kind 'gat'"):
            init_params(np.random.default_rng(0), "gat", 2, 3, 1)


class TestLossAndGrads:
    def test_bce_ln2_for_zero_model(self):
        g = UGraph(3, [(0, 1)])
        plan = build_plan(g, "Base", 1)
        params = ModelParams(
            layers=[
                GINLayerParams(
                    eps=np.zeros(()),
                    w1=np.zeros((2, 3)),
                    b1=np.zeros(3),
                    w2=np.zeros((3, 3)),
                    b2=np.zeros(3),
                )
            ],
            readout_w=np.zeros(3),
            readout_b=np.zeros(()),
        )
        batch = [(np.ones((3, 2)), 1.0), (np.ones((3, 2)), 0.0)]
        loss, _ = loss_and_grads([plan] * len(batch), params, batch, nn._Run())
        assert loss == pytest.approx(math.log(2.0))

    def test_gradient_matches_finite_differences(self, cache):
        rng = np.random.default_rng(3)
        g = gen_graph(6, 15, p=0.5)
        plan = build_plan(g, "CGP", 2, cache=cache)
        params = init_params(rng, "gin", 3, 4, 2)
        x = rng.standard_normal((6, 3))
        assert relu_kink_margin(plan, params, x) > 1e-4
        _, grads, _ = sample_gradients(plan, params, x, 1.0)
        step = 1e-6
        for name, arr in params.arrays():
            flat = arr.reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                _, zp, _ = _forward_cached(plan, params, x)
                lp, _ = _loss_and_dz(zp, 1.0)
                flat[i] = orig - step
                _, zm, _ = _forward_cached(plan, params, x)
                lm, _ = _loss_and_dz(zm, 1.0)
                flat[i] = orig
                fd = (lp - lm) / (2 * step)
                assert abs(fd - gflat[i]) <= 1e-5 * max(abs(fd), abs(gflat[i]), 1e-4)

    def test_virtual_feature_rows_get_zero_gradient_in_one_layer_cgp(self, cache):
        # a single input-extended layer never routes virtual rows to readout
        g = gen_graph(20, 16, p=0.4)
        plan = build_plan(g, "CGP", 1, cache=cache)
        rng = np.random.default_rng(4)
        params = init_params(rng, "gin", 3, 4, 1)
        x = rng.standard_normal((20, 3))
        # mislabel on purpose so the loss gradient cannot underflow to zero
        _, z = model_forward(plan, params, x)
        label = 0.0 if z > 0 else 1.0
        _, _, dx = sample_gradients(plan, params, x, label)
        assert dx.shape == (24, 3)
        assert np.all(dx[20:] == 0.0)
        assert np.any(dx[:20] != 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        g = UGraph(2, [(0, 1)])
        plan = build_plan(g, "Base", 1)
        params = init_params(np.random.default_rng(0), "gin", 2, 3, 1)
        params.readout_w[:] = np.inf
        with pytest.raises(TrainingDiverged):
            loss_and_grads([plan], params, [(np.ones((2, 2)), 1.0)], nn._Run())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_is_named(self):
        # A finite loss (the logit is 2e100) over a gradient that overflows:
        # dL/dw = sx * readout_w * dz = 1e200 * 1e200 per node.
        plan = build_plan(UGraph(2, [(0, 1)]), "Base", 1)
        params = ModelParams(
            layers=[GCNLayerParams(w=np.full((1, 1), 1e-300), b=np.zeros(1))],
            readout_w=np.full(1, 1e200),
            readout_b=np.zeros(()),
        )
        x = np.full((2, 1), 1e200)
        with pytest.raises(TrainingDiverged, match="gradient in layers.0.gcn.w$"):
            loss_and_grads([plan], params, [(x, 0.0)], nn._Run())

    def test_plan_batch_length_mismatch(self):
        g = UGraph(2, [(0, 1)])
        plan = build_plan(g, "Base", 1)
        params = init_params(np.random.default_rng(0), "gin", 2, 3, 1)
        with pytest.raises(ValueError):
            loss_and_grads([plan, plan], params, [(np.ones((2, 2)), 1.0)], nn._Run())

    def test_empty_batch_rejected(self):
        params = init_params(np.random.default_rng(0), "gin", 2, 3, 1)
        with pytest.raises(ValueError, match="no samples"):
            loss_and_grads([], params, [], nn._Run())

    @pytest.mark.parametrize("num_layers", [1, 3])
    @pytest.mark.parametrize("kind", LAYER_KINDS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_training_path_matches_per_sample_oracle(
        self, cache, scheme, kind, num_layers
    ):
        # The run shares one operator per (template, kind) across the batch;
        # the oracle builds every operator afresh per sample. Loss and every
        # gradient must agree bit for bit, on a cold and a warm run.
        graphs = gen_ba_graphs(20, 2, range(5))
        plans = [build_plan(g, scheme, num_layers, cache=cache) for g in graphs]
        if scheme in ("CGP", "CGPLast", "CGPEvery"):
            assert len({id(p.cayley_template) for p in plans}) == 1
        rng = np.random.default_rng(8)
        params = init_params(rng, kind, 6, 5, num_layers)
        batch = [(rng.standard_normal((20, 6)), float(i % 2)) for i in range(5)]
        assert_matches_oracle(plans, params, batch)


class TestStackedEngine:
    def test_runs_cut_at_count_changes_and_stack_size(self):
        # A full stack, its remainder, then cuts at every count change:
        # both counts, the extended count alone and the original count alone.
        n = nn.STACK_SAMPLES
        counts = [(20, 24)] * (n + 2) + [(30, 48), (20, 24), (20, 24), (20, 48)]
        counts += [(22, 24), (22, 24), (20, 24)]
        plans = [
            types.SimpleNamespace(original_count=o, extended_count=e, num_layers=1)
            for o, e in counts
        ]
        params = init_params(np.random.default_rng(0), "gin", 1, 1, 1)
        xs = [np.zeros((o, 1)) for o, _ in counts]
        cuts = [
            (0, n), (n, n + 2), (n + 2, n + 3), (n + 3, n + 5), (n + 5, n + 6),
            (n + 6, n + 8), (n + 8, n + 9),
        ]
        assert list(nn._stacks(plans, params, xs)) == [
            slice(start, stop) for start, stop in cuts
        ]

    def test_a_plan_of_another_depth_is_refused_before_any_stack_runs(
        self, monkeypatch
    ):
        # Two full stacks of 1-layer plans, then one plan of 2 layers: each
        # engine call checks every plan before it runs a stack.
        n = nn.STACK_SAMPLES
        g = UGraph(2, [(0, 1)])
        plans = [build_plan(g, "Base", 1)] * (2 * n) + [build_plan(g, "Base", 2)]
        params = init_params(np.random.default_rng(0), "gin", 2, 3, 1)
        x = np.ones((2, 2))
        stacks = []
        stack_forward = nn._stack_forward

        def counting(stack, *args):
            stacks.append(len(stack))
            return stack_forward(stack, *args)

        monkeypatch.setattr(nn, "_stack_forward", counting)
        message = "model has 1 layers, plan schedules 2"
        with pytest.raises(ValueError, match=message):
            loss_and_grads(plans, params, [(x, 1.0)] * len(plans), nn._Run())
        samples = [nn.SumTaskSample(g, x, 1)] * len(plans)
        with pytest.raises(ValueError, match=message):
            nn.error_rate(plans, params, samples, nn._Run())
        with pytest.raises(ValueError, match=message):
            relu_kink_margin(plans[-1], params, x)
        assert stacks == []

    def test_bad_features_in_the_last_stack_are_refused_before_any_stack_runs(
        self, monkeypatch
    ):
        # Two full stacks and a third of 9 samples, whose last sample has one
        # input feature for a model of two.
        n = nn.STACK_SAMPLES
        g = UGraph(3, [(0, 1)])
        plans = [build_plan(g, "Base", 1)] * (2 * n + 9)
        params = init_params(np.random.default_rng(0), "gin", 2, 3, 1)
        xs = [np.ones((3, 2))] * (len(plans) - 1) + [np.ones((3, 1))]
        stacks = []
        stack_forward = nn._stack_forward

        def counting(stack, *args):
            stacks.append(len(stack))
            return stack_forward(stack, *args)

        monkeypatch.setattr(nn, "_stack_forward", counting)
        message = re.escape("features of shape (3, 1) do not match")
        with pytest.raises(ValueError, match=message):
            loss_and_grads(plans, params, [(x, 1.0) for x in xs], nn._Run())
        samples = [nn.SumTaskSample(g, x, 1) for x in xs]
        with pytest.raises(ValueError, match=message):
            nn.error_rate(plans, params, samples, nn._Run())
        assert stacks == []

    @pytest.mark.parametrize(
        "in_dim, hidden, sizes",
        [
            (6, 5, [20] * 33),
            (6, 1, [20] * 33),
            (7, 32, [20] * 33),
            (128, 64, [20] * 5 + [22] + [20] * 28),
        ],
        ids=["5", "1", "7-32", "128-64"],
    )
    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_batch_across_a_stack_boundary_matches_oracle(
        self, cache, kind, in_dim, hidden, sizes
    ):
        # 33 BA-20 samples end in a stack of one for any power-of-two stack
        # size up to 32. A hidden width of 1 makes every bias gradient a
        # size-1 total. At a hidden width of 32, OpenBLAS's SkylakeX kernels
        # round some layouts of one product differently, and the layer
        # temporaries are fresh arrays. The perfbench widths (128 features,
        # 64 hidden) may take other BLAS kernels than small ones; there a
        # 22-node graph, which CGP pads to 24 nodes as it does the 20-node
        # ones, cuts a stack on the original count alone.
        graphs = [gen_ba_graphs(n, 2, [seed])[0] for seed, n in enumerate(sizes)]
        plans = [build_plan(g, "CGP", 2, cache=cache) for g in graphs]
        assert len({p.extended_count for p in plans}) == 1
        rng = np.random.default_rng(31)
        params = init_params(rng, kind, in_dim, hidden, 2)
        batch = [
            (rng.standard_normal((n, in_dim)), float(i % 3 == 0))
            for i, n in enumerate(sizes)
        ]
        assert_matches_oracle(plans, params, batch)

    @pytest.mark.parametrize("kind", LAYER_KINDS)
    @pytest.mark.parametrize("scheme", ["Base", "CGP"])
    def test_mixed_graph_sizes_match_oracle(self, cache, scheme, kind):
        # 20- and 22-node graphs both pad to 24 Cayley nodes under CGP, and
        # 30-node graphs to 48; under Base every size change cuts a run.
        sizes = [20, 22, 20, 30, 30, 22, 20, 20, 30, 22, 22, 20]
        graphs = [gen_graph(n, seed, p=0.3) for seed, n in enumerate(sizes)]
        plans = [build_plan(g, scheme, 2, cache=cache) for g in graphs]
        rng = np.random.default_rng(32)
        params = init_params(rng, kind, 4, 6, 2)
        batch = [(rng.standard_normal((n, 4)), float(n % 4 == 0)) for n in sizes]
        assert_matches_oracle(plans, params, batch)

        samples = [nn.SumTaskSample(g, x, int(y)) for g, (x, y) in zip(graphs, batch)]
        wrong = sum(
            (_forward_cached(plan, params, x)[1] > 0.0) != bool(y)
            for plan, (x, y) in zip(plans, batch)
        )
        got = nn.error_rate(plans, params, samples, nn._Run())
        assert got == wrong / len(samples)

    @pytest.mark.parametrize("kind", LAYER_KINDS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_model_forward_matches_oracle(self, cache, scheme, kind):
        g = gen_graph(22, 17, p=0.3)
        plan = build_plan(g, scheme, 3, cache=cache)
        rng = np.random.default_rng(33)
        params = init_params(rng, kind, 5, 7, 3)
        x = rng.standard_normal((22, 5))
        h, z = model_forward(plan, params, x)
        want_h, want_z, _ = _forward_cached(plan, params, x)
        assert h.tobytes() == want_h.tobytes()
        assert z == want_z

    def test_feature_shape_mismatch_rejected(self):
        plan = build_plan(UGraph(3, [(0, 1)]), "Base", 1)
        params = init_params(np.random.default_rng(0), "gin", 2, 3, 1)
        for x in (np.ones((3, 1)), np.ones((2, 2))):
            with pytest.raises(ValueError, match="do not match"):
                loss_and_grads([plan], params, [(x, 1.0)], nn._Run())
            # A stack names the shape of the sample that does not fit.
            batch = [(np.ones((3, 2)), 1.0), (x, 1.0)]
            message = re.escape(f"features of shape {x.shape}")
            with pytest.raises(ValueError, match=message):
                loss_and_grads([plan, plan], params, batch, nn._Run())

    def test_an_operator_over_the_dense_cap_is_refused(self):
        # Refused before anything of (m, m) size is allocated.
        n = DENSE_NODE_CAP + 1
        plan = build_plan(UGraph(n), "Base", 1)
        params = init_params(np.random.default_rng(0), "gin", 1, 1, 1)
        with pytest.raises(ValueError, match=f"{n} nodes.*{DENSE_NODE_CAP}"):
            loss_and_grads([plan], params, [(np.ones((n, 1)), 1.0)], nn._Run())

    @pytest.mark.parametrize(
        "x, message",
        [
            ([[1.0, -2.0]], "features must be an array, got list"),
            (np.array([1.0, -2.0]), "features of shape (2,) do not match"),
        ],
        ids=["list", "row"],
    )
    def test_features_that_are_not_arrays_of_the_plan_rows_are_refused(
        self, x, message
    ):
        # A one-node graph's features are one (1, F) row, as an array.
        plan = build_plan(UGraph(1), "Base", 1)
        params = init_params(np.random.default_rng(0), "gin", 2, 3, 1)
        batch = [(np.array([[1.0, -2.0]]), 1.0), (x, 1.0)]
        with pytest.raises(ValueError, match=re.escape(message)):
            loss_and_grads([plan] * 2, params, batch, nn._Run())


class TestErrorRate:
    def setup_method(self):
        ds = gen_sum_task("BA", 3, seed=0, test_size=1)
        self.samples = ds.train
        self.plans = [build_plan(s.graph, "Base", 1) for s in ds.train]
        self.params = init_params(np.random.default_rng(0), "gin", 128, 4, 1)

    def test_plan_sample_length_mismatch(self):
        with pytest.raises(ValueError, match="2 plans for 3 samples"):
            nn.error_rate(self.plans[:2], self.params, self.samples, nn._Run())

    def test_no_samples(self):
        with pytest.raises(ValueError, match="no samples"):
            nn.error_rate([], self.params, (), nn._Run())


class TestAdam:
    def test_zero_gradient_is_noop(self):
        params = init_params(np.random.default_rng(0), "gin", 2, 3, 1)
        state = AdamState.for_params(params)
        before = {n: a.copy() for n, a in params.arrays()}
        stepped = adam_step(params, np.zeros_like(params.vec), state, 1e-3)
        for name, arr in stepped.arrays():
            np.testing.assert_array_equal(arr, before[name])

    def test_first_step_magnitude_is_lr(self):
        params = init_params(np.random.default_rng(1), "gin", 2, 3, 1)
        state = AdamState.for_params(params)
        before = {n: a.copy() for n, a in params.arrays()}
        stepped = adam_step(params, np.full_like(params.vec, 0.5), state, 1e-2)
        for name, arr in stepped.arrays():
            # bias correction makes the first update lr * g / (|g| + eps)
            np.testing.assert_allclose(before[name] - arr, 1e-2, rtol=1e-6)

    def test_constant_gradient_step_approaches_lr_sign(self):
        params = init_params(np.random.default_rng(2), "gin", 2, 3, 1)
        state = AdamState.for_params(params)
        g = np.full_like(params.vec, -2.0)
        prev = params
        for _ in range(500):
            prev, params = params, adam_step(params, g, state, 1e-3)
        deltas = [
            a - dict(prev.arrays())[n]
            for n, a in params.arrays()
        ]
        for d in deltas:
            np.testing.assert_allclose(d, 1e-3, rtol=1e-4)

    def test_original_params_untouched(self):
        params = init_params(np.random.default_rng(3), "gin", 2, 3, 1)
        state = AdamState.for_params(params)
        snapshot = {n: a.copy() for n, a in params.arrays()}
        adam_step(params, np.ones_like(params.vec), state, 1e-3)
        for name, arr in params.arrays():
            np.testing.assert_array_equal(arr, snapshot[name])


class TestWholeVector:
    def test_arrays_are_views_of_one_vector(self):
        params = init_params(np.random.default_rng(4), "gin", 3, 4, 2)
        offset = 0
        for _, arr in params.arrays():
            assert np.shares_memory(arr, params.vec)
            assert np.array_equal(arr.reshape(-1), params.vec[offset : offset + arr.size])
            offset += arr.size
        assert offset == params.vec.size
        before = params.vec.copy()
        copied = oracles.copy_params(params)
        copied.vec[:] = 0.0
        assert all(not np.any(a) for _, a in copied.arrays())
        assert params.vec.tobytes() == before.tobytes()

    def test_gradient_is_one_vector_laid_out_as_params(self):
        plan = build_plan(UGraph(3, [(0, 1)]), "Base", 1)
        params = init_params(np.random.default_rng(5), "gcn", 2, 3, 1)
        x = np.ones((3, 2))
        _, g = loss_and_grads([plan], params, [(x, 1.0)], nn._Run())
        assert g.shape == params.vec.shape and g.dtype == np.float64
        assert not np.shares_memory(g, params.vec)
        _, want = batch_gradients([plan], params, [(x, 1.0)])
        packed = np.concatenate([want[n].reshape(-1) for n, _ in params.layout()])
        assert g.tobytes() == packed.tobytes()

    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_adam_matches_the_per_array_oracle(self, kind):
        # Five steps from random gradients, 0-d eps and readout.b included:
        # parameters and both moments agree bit for bit at every step.
        rng = np.random.default_rng(41)
        params = init_params(rng, kind, 5, 6, 2)
        want = oracles.copy_params(params)
        state = AdamState.for_params(params)
        want_state = oracles.AdamState.for_params(want)
        for _ in range(5):
            grads = {n: rng.standard_normal(a.shape) for n, a in params.arrays()}
            g = np.concatenate([grads[n].reshape(-1) for n, _ in params.layout()])
            params = adam_step(params, g, state, 1e-2)
            want = oracles.adam_step(want, grads, want_state, 1e-2)
            assert state.step == want_state.step
            for got, moments in ((state.m, want_state.m), (state.v, want_state.v)):
                packed = np.concatenate([a.reshape(-1) for a in moments.values()])
                assert got.tobytes() == packed.tobytes()
            for (name, a), (_, b) in zip(params.arrays(), want.arrays()):
                assert a.tobytes() == b.tobytes(), name

    def test_adam_rejects_mismatched_gradients_and_state(self):
        params = init_params(np.random.default_rng(6), "gin", 2, 3, 1)
        size = params.vec.size
        g = np.zeros(size)
        for bad in (np.zeros(size - 1), np.zeros(size + 1), np.zeros((1, size)), 0.0):
            state = AdamState.for_params(params)
            with pytest.raises(ValueError, match="gradient has shape"):
                adam_step(params, bad, state, 1e-3)
            assert state.step == 0
            with pytest.raises(ValueError, match="first moment has shape"):
                adam_step(params, g, AdamState(bad, np.zeros(size)), 1e-3)
            with pytest.raises(ValueError, match="second moment has shape"):
                adam_step(params, g, AdamState(np.zeros(size), bad), 1e-3)
        # The per-name dict the gradient used to be is refused too.
        with pytest.raises(ValueError, match="gradient has shape"):
            adam_step(params, zero_grads(params), AdamState.for_params(params), 1e-3)


class TestSumTask:
    def test_deterministic(self):
        a = gen_sum_task("BA", 10, seed=3, test_size=5)
        b = gen_sum_task("BA", 10, seed=3, test_size=5)
        assert [s.label for s in a.train] == [s.label for s in b.train]
        assert all(
            np.array_equal(x.features, y.features) for x, y in zip(a.train, b.train)
        )
        assert all(x.graph == y.graph for x, y in zip(a.train, b.train))

    def test_teacher_reproduces_labels(self):
        ds = gen_sum_task("GNP", 30, seed=5, test_size=10)
        for sample in ds.train + ds.test:
            teacher_score = sample.features.sum(axis=0) @ ds.teacher_weights
            assert sample.label == int(teacher_score > 0)

    def test_labels_shared_across_structures(self):
        # features and teacher depend only on the seed, so 20-node datasets
        # agree sample by sample
        empty = gen_sum_task("Empty", 15, seed=7, test_size=5)
        star = gen_sum_task("Star", 15, seed=7, test_size=5)
        ba = gen_sum_task("BA", 15, seed=7, test_size=5)
        assert [s.label for s in empty.train] == [s.label for s in star.train]
        assert [s.label for s in empty.train] == [s.label for s in ba.train]
        assert np.array_equal(empty.train[0].features, ba.train[0].features)

    def test_structures_shapes(self):
        assert gen_sum_task("Cayley24", 2, seed=0, test_size=1).train[0].graph.node_count == 24
        assert gen_sum_task("Empty", 2, seed=0, test_size=1).train[0].graph.edge_count == 0
        star = gen_sum_task("Star", 2, seed=0, test_size=1).train[0].graph
        assert len(star.adj[0]) == 19

    def test_labels_roughly_balanced(self):
        ds = gen_sum_task("Empty", 400, seed=11, test_size=1)
        rate = np.mean([s.label for s in ds.train])
        assert 0.35 < rate < 0.65

    def test_unknown_structure(self):
        with pytest.raises(ValueError):
            gen_sum_task("Tree", 5, seed=0)

    @pytest.mark.parametrize(
        "name, value",
        [("train_size", -5), ("test_size", -2), ("train_size", 2.5),
         ("test_size", 1.0), ("train_size", True), ("test_size", False)],
    )
    def test_rejects_negative_or_non_int_sizes(self, name, value):
        sizes = {"train_size": 2, "test_size": 1, name: value}
        with pytest.raises(ValueError, match=int_refusal(name, value, 0)):
            gen_sum_task("BA", seed=0, **sizes)

    @pytest.mark.parametrize("seed", [True, False, "3", 1.5, 2.0, None, -1])
    def test_rejects_negative_or_non_int_seed(self, seed):
        with pytest.raises(ValueError, match=int_refusal("seed", seed, 0)):
            gen_sum_task("BA", 2, seed, test_size=1)

    def test_numpy_integer_sizes_convert(self):
        ds = gen_sum_task("BA", np.int64(3), 4, test_size=np.int32(1))
        ref = gen_sum_task("BA", 3, 4, test_size=1)
        assert len(ds.train) == 3 and len(ds.test) == 1
        assert all(
            x.graph == y.graph and np.array_equal(x.features, y.features)
            for x, y in zip(ds.train + ds.test, ref.train + ref.test)
        )

    def test_numpy_integer_seed_converts(self):
        ds = gen_sum_task("BA", 3, np.uint32(4), test_size=1)
        assert type(ds.seed) is int
        assert all(
            x.graph == y.graph and np.array_equal(x.features, y.features)
            for x, y in zip(ds.train, gen_sum_task("BA", 3, 4, test_size=1).train)
        )

    def test_empty_splits_allowed(self):
        ds = gen_sum_task("BA", 0, seed=0, test_size=0)
        assert ds.train == () and ds.test == ()

    # SHA-256 of every feature matrix of gen_sum_task(s, 6, 2, test_size=3),
    # train then test, recorded before the rows were copied out of the pool.
    FEATURE_SHA256 = {
        "Empty": "f9e4f3f303badba5f828e29320c0e5354dba98c95432395dedaca561c4a3af7d",
        "Cayley24": "cc6309a02ecee04f25c5e6638283de31aadbd28861d93bc8e72c15382844f32c",
        "Star": "f9e4f3f303badba5f828e29320c0e5354dba98c95432395dedaca561c4a3af7d",
        "BA": "f9e4f3f303badba5f828e29320c0e5354dba98c95432395dedaca561c4a3af7d",
        "GNP": "f9e4f3f303badba5f828e29320c0e5354dba98c95432395dedaca561c4a3af7d",
    }

    @pytest.mark.parametrize("structure", SUM_TASK_STRUCTURES)
    def test_features_own_their_rows(self, structure):
        # A view into the 24-row draw would keep its unused rows alive.
        ds = gen_sum_task(structure, 6, 2, test_size=3)
        samples = ds.train + ds.test
        assert all(s.features.base is None for s in samples)
        digest = hashlib.sha256(b"".join(s.features.tobytes() for s in samples))
        assert digest.hexdigest() == self.FEATURE_SHA256[structure]


class TestTrain:
    def test_learning_curve_smoke(self):
        ds = gen_sum_task("Empty", 60, seed=0, test_size=40)
        config = TrainConfig(
            seed=0, epochs=30, hidden_dim=16, batch_size=16, train_sizes=(20, 60)
        )
        rows = train(scheme_plan_builder("Base", 1), ds, config)
        assert [r.train_size for r in rows] == [20, 60]
        assert all(not r.failed for r in rows)
        # over-parameterized model fits its training set
        assert rows[-1].train_error <= 0.1
        text = curve_to_csv(rows)
        assert text.startswith("structure,train_size,seed,train_error,test_error\n")
        assert "Empty,60,0," in text

    def test_reproducible(self):
        ds = gen_sum_task("GNP", 30, seed=1, test_size=10)
        config = TrainConfig(seed=1, epochs=5, hidden_dim=8, train_sizes=(30,))
        a = train(scheme_plan_builder("Base", 1), ds, config)
        b = train(scheme_plan_builder("Base", 1), ds, config)
        assert a == b

    def test_size_over_pool_rejected(self):
        ds = gen_sum_task("Empty", 10, seed=0, test_size=5)
        config = TrainConfig(train_sizes=(20,))
        with pytest.raises(ValueError):
            train(scheme_plan_builder("Base", 1), ds, config)

    def test_equal_graphs_share_one_plan(self):
        # The train and test splits each hold their own Star graph object;
        # the two are equal, so one plan serves both.
        ds = gen_sum_task("Star", 4, 0, test_size=2)
        assert ds.train[0].graph is not ds.test[0].graph
        assert ds.train[0].graph == ds.test[0].graph
        builder = scheme_plan_builder("Base", 1)
        built = []

        def counting_builder(g):
            built.append(g)
            return builder(g)

        config = TrainConfig(epochs=1, hidden_dim=4, train_sizes=(4,))
        train(counting_builder, ds, config)
        assert len(built) == 1

    @pytest.mark.parametrize("sizes", [(), (0,), (20, 0), (-1,)])
    def test_config_rejects_empty_or_nonpositive_train_sizes(self, sizes):
        with pytest.raises(ValueError, match="train_sizes"):
            TrainConfig(train_sizes=sizes)

    @pytest.mark.parametrize(
        "field, value",
        [("epochs", 1.5), ("batch_size", 2.5), ("hidden_dim", 2.0),
         ("num_layers", True), ("batch_size", "8"),
         ("seed", 1.5), ("seed", True), ("seed", "0")],
    )
    def test_config_rejects_non_int_counts(self, field, value):
        with pytest.raises(ValueError, match=int_refusal(field, value)):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("sizes", [(4.0,), (20, False), (20, 4.5)])
    def test_config_rejects_non_int_train_sizes(self, sizes):
        # The offending size is the last one.
        name = f"train_sizes[{len(sizes) - 1}]"
        with pytest.raises(ValueError, match=int_refusal(name, sizes[-1])):
            TrainConfig(train_sizes=sizes)

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_config_rejects_negative_seed(self, seed):
        with pytest.raises(ValueError, match=int_refusal("seed", seed, 0)):
            TrainConfig(seed=seed)

    @pytest.mark.parametrize(
        "field, value", [("epochs", np.int64(2)), ("seed", np.int64(1))]
    )
    def test_config_converts_numpy_integers(self, field, value):
        config = TrainConfig(**{field: value})
        assert type(getattr(config, field)) is int
        assert config == TrainConfig(**{field: int(value)})

    @pytest.mark.parametrize("lr", [math.nan, math.inf, True, False, "0.1", None])
    def test_config_rejects_non_finite_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_final_parameters_fail_the_run(self):
        # No loss is computed after the last Adam step, so a NaN rate
        # shows only in the final parameters.
        ds = gen_sum_task("Empty", 4, seed=0, test_size=2)
        config = TrainConfig(epochs=1, hidden_dim=4, train_sizes=(4,))
        config.learning_rate = math.nan  # a caller that skips __post_init__
        (row,) = train(scheme_plan_builder("Base", 1), ds, config)
        assert row.failed

    def test_empty_test_split_rejected_before_training(self):
        ds = dataclasses.replace(gen_sum_task("Empty", 10, seed=0, test_size=1), test=())
        built = []

        def counting_builder(g):
            built.append(g)
            return scheme_plan_builder("Base", 1)(g)

        config = TrainConfig(epochs=1, hidden_dim=4, train_sizes=(10,))
        with pytest.raises(ValueError, match="no test samples"):
            train(counting_builder, ds, config)
        assert built == []

    @pytest.mark.parametrize(
        "field, value", [("scheme", "cgp"), ("scheme", "GIN"), ("layer_kind", "gat")]
    )
    def test_config_rejects_unknown_scheme_or_layer_kind(self, field, value):
        with pytest.raises(ValueError, match=f"unknown {field.replace('_', ' ')}"):
            TrainConfig(**{field: value})

    def test_plan_scheme_must_match_config(self, monkeypatch):
        steps = []
        monkeypatch.setattr(nn, "loss_and_grads", lambda *a: steps.append(a))
        ds = gen_sum_task("BA", 4, seed=0, test_size=2)
        config = TrainConfig(epochs=1, hidden_dim=4, scheme="CGP", train_sizes=(4,))
        with pytest.raises(ValueError, match="Base plans.*scheme CGP"):
            train(scheme_plan_builder("Base", 1), ds, config)
        assert steps == []

    @pytest.fixture()
    def steps(self, monkeypatch):
        """The batch size of every loss_and_grads call that train makes."""
        sizes = []
        real = nn.loss_and_grads

        def counting(plans, *args):
            sizes.append(len(plans))
            return real(plans, *args)

        monkeypatch.setattr(nn, "loss_and_grads", counting)
        return sizes

    def test_a_train_size_over_the_dataset_is_refused_before_the_first_step(
        self, steps
    ):
        ds = gen_sum_task("Empty", 4, seed=0, test_size=2)
        config = TrainConfig(epochs=3, hidden_dim=4, train_sizes=(2, 10))
        with pytest.raises(ValueError, match="train size 10 exceeds the 4 generated"):
            train(scheme_plan_builder("Base", 1), ds, config)
        assert steps == []

    @pytest.mark.parametrize(
        "scheme, layers, message",
        [("CGP", 1, "CGP plans.*scheme Base"), ("Base", 2, "of 2 layers")],
        ids=["scheme", "depth"],
    )
    def test_a_bad_plan_of_the_larger_size_is_refused_before_the_first_step(
        self, steps, scheme, layers, message
    ):
        # Only the last sample's plan is bad, and only size 4 takes it.
        ds = gen_sum_task("BA", 4, seed=0, test_size=2)
        last = ds.train[-1].graph

        def builder(g):
            if g is last:
                return build_plan(g, scheme, layers)
            return build_plan(g, "Base", 1)

        config = TrainConfig(epochs=1, hidden_dim=4, train_sizes=(2, 4))
        with pytest.raises(ValueError, match=message):
            train(builder, ds, config)
        assert steps == []

    def test_a_test_split_of_the_wrong_width_is_refused_before_the_first_step(
        self, steps
    ):
        ds = gen_sum_task("Empty", 4, seed=0, test_size=2)
        narrow = tuple(dataclasses.replace(s, features=s.features[:, :5]) for s in ds.test)
        config = TrainConfig(epochs=3, hidden_dim=4, train_sizes=(4,))
        with pytest.raises(ValueError, match=r"features of shape \(20, 5\)"):
            train(scheme_plan_builder("Base", 1), dataclasses.replace(ds, test=narrow), config)
        assert steps == []

    def test_a_train_sample_of_the_wrong_width_is_refused_before_the_first_step(
        self, steps
    ):
        # Only the last sample is narrow, and only size 4 takes it.
        ds = gen_sum_task("Empty", 4, seed=0, test_size=2)
        last = ds.train[-1]
        narrow = dataclasses.replace(last, features=last.features[:, :5])
        ds = dataclasses.replace(ds, train=ds.train[:-1] + (narrow,))
        config = TrainConfig(epochs=1, hidden_dim=4, train_sizes=(2, 4))
        with pytest.raises(ValueError, match=r"features of shape \(20, 5\)"):
            train(scheme_plan_builder("Base", 1), ds, config)
        assert steps == []


    def test_builder_without_a_cache_builds_each_modulus_once(self, monkeypatch):
        built = []
        real = cayley.build_cayley
        monkeypatch.setattr(cayley, "build_cayley", lambda n: built.append(n) or real(n))
        builder = scheme_plan_builder("CGP", 2)
        # 3..6 nodes pad to Cay(SL(2, Z_2)), 7..24 to n = 3, 30 to n = 4.
        for v in (3, 5, 6, 7, 20, 24, 30, 20, 5):
            assert builder(gen_graph(v, 0, p=0.5)).modulus == smallest_modulus(v)
        assert built == [2, 3, 4]
        # Each builder holds its own memory cache.
        scheme_plan_builder("CGP", 2)(gen_graph(20, 0, p=0.5))
        assert built == [2, 3, 4, 3]

    # SHA-256 of the CSVs below, concatenated, recorded with the per-sample
    # engine. The stacked engine sums in the same order, so any change to
    # the arithmetic that flips a prediction shows here.
    TRAIN_CSV_SHA256 = "6c3121c29c24b63b4e2b68b20313c706f04dd172ca022f3ac59b137692b7769b"

    def test_train_csvs_are_pinned(self, cache):
        ds = gen_sum_task("BA", 40, seed=5, test_size=20)
        digest = hashlib.sha256()
        for scheme in SCHEMES:
            for kind in LAYER_KINDS:
                config = TrainConfig(
                    epochs=3,
                    seed=5,
                    hidden_dim=16,
                    learning_rate=1e-2,
                    num_layers=2,
                    layer_kind=kind,
                    scheme=scheme,
                    train_sizes=(20, 40),
                )
                rows = train(scheme_plan_builder(scheme, 2, cache=cache), ds, config)
                digest.update(curve_to_csv(rows).encode())
        assert digest.hexdigest() == self.TRAIN_CSV_SHA256


class TestOperatorMemo:
    @staticmethod
    def record_runs(monkeypatch):
        """Weak references to the _Run of every loss_and_grads call."""
        runs = []
        loss_and_grads = nn.loss_and_grads

        def recording(plans, params, batch, run):
            if not runs or runs[-1]() is not run:
                runs.append(weakref.ref(run))
            return loss_and_grads(plans, params, batch, run)

        monkeypatch.setattr(nn, "loss_and_grads", recording)
        return runs

    def test_one_build_per_template_and_kind_per_run(self, cache, monkeypatch):
        built = []
        entries = nn._operator_entries

        def counting_entries(g, kind):
            built.append(g)
            return entries(g, kind)

        monkeypatch.setattr(nn, "_operator_entries", counting_entries)
        runs = self.record_runs(monkeypatch)
        ds = gen_sum_task("BA", 12, seed=4, test_size=5)
        config = TrainConfig(
            epochs=2,
            batch_size=4,
            seed=4,
            hidden_dim=4,
            num_layers=2,
            scheme="CGP",
            train_sizes=(6, 12),
        )
        plans = []

        def recording_builder(g):
            plans.append(build_plan(g, "CGP", 2, cache=cache))
            return plans[-1]

        rows = train(recording_builder, ds, config)
        templates = {id(g) for p in plans for g in p.layer_graphs}
        (cayley,) = {id(p.cayley_template) for p in plans}
        assert len(built) == len(templates) == len(plans) + 1
        assert [id(g) for g in built].count(cayley) == 1
        # One run served both train sizes, and nothing of it outlives train.
        (run,) = runs
        assert run() is None

        # A second call makes a new run, which builds every operator again.
        built.clear()
        assert train(scheme_plan_builder("CGP", 2, cache=cache), ds, config) == rows
        assert len(built) == len(templates)
        assert len(runs) == 2 and runs[1]() is None

    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_per_sample_templates_keep_no_dense_operator(self, cache, monkeypatch, kind):
        # After a CGP run over N per-sample templates, the run's only (m, m)
        # float array is the Cayley layer's shared operator; every input
        # template keeps its entries, O(edges): int32 positions, and for
        # GCN as many float64 values. Batches of 17 leave stacks
        # of one sample, whose template is not shared either. No array is a
        # stack of whole-model gradients, P columns wide.
        kept = []
        loss_and_grads = nn.loss_and_grads

        def keeping(plans, params, batch, run):
            kept.append(run)
            return loss_and_grads(plans, params, batch, run)

        monkeypatch.setattr(nn, "loss_and_grads", keeping)
        ds = gen_sum_task("BA", 40, seed=6, test_size=10)
        config = TrainConfig(
            epochs=1,
            batch_size=17,
            hidden_dim=4,
            num_layers=2,
            layer_kind=kind,
            scheme="CGP",
            train_sizes=(40,),
        )
        train(scheme_plan_builder("CGP", 2, cache=cache), ds, config)
        run = kept[0]
        m = 24
        arrays = []

        def walk(x):
            if isinstance(x, np.ndarray):
                arrays.append(x)
                if x.base is not None:
                    walk(x.base)
            elif isinstance(x, (dict, list, tuple)):
                for y in x.values() if isinstance(x, dict) else x:
                    walk(y)

        walk(vars(run))
        dense = [a for a in arrays if a.dtype.kind == "f" and a.shape[-2:] == (m, m)]
        assert [a.shape for a in dense] == [(1, m, m)]
        p = init_params(np.random.default_rng(0), kind, 128, 4, 2).vec.size
        assert not [a.shape for a in arrays if a.ndim and a.shape[-1] == p]
        held = run._operators
        assert {k for _, k in held} == {kind}
        assert len(held) == len(ds.train) + len(ds.test) + 1
        for _, positions, values, _ in held.values():
            assert positions.ndim == 1 and positions.dtype == np.int32
            if kind == "gin":
                assert values is None
            else:
                assert values.dtype == np.float64 and values.shape == positions.shape
        # Only the Cayley template, which every stack shares, holds an operator.
        assert sum(op is not None for *_, op in held.values()) == 1

    def test_a_template_repeated_in_an_unshared_stack_is_built_once(self, monkeypatch):
        built = []
        entries = nn._operator_entries

        def counting_entries(g, kind):
            built.append((g, kind))
            return entries(g, kind)

        monkeypatch.setattr(nn, "_operator_entries", counting_entries)
        a, b, c = UGraph(4, [(0, 1)]), UGraph(4, [(1, 2), (2, 3)], {3}), UGraph(4)
        stack = [a, b, a, c, b, a]
        run = nn._Run()
        for kind in LAYER_KINDS:
            ops = run.operator(stack, kind)
            want = np.stack([oracles.layer_operator(g, kind) for g in stack])
            assert ops.tobytes() == want.tobytes()
            assert run.operator(stack[::-1], kind).tobytes() == want[::-1].tobytes()
        assert built == [(g, kind) for kind in LAYER_KINDS for g in (a, b, c)]

    def test_workspace_is_dropped_when_a_run_raises(self, monkeypatch):
        runs = self.record_runs(monkeypatch)
        held = []

        def failing_step(params, g, state, lr):
            largest = max(a.size for _, a in params.arrays())
            held.append((runs[-1]()._buffers["grad"].shape, largest))
            raise RuntimeError("stop")

        monkeypatch.setattr(nn, "adam_step", failing_step)
        ds = gen_sum_task("BA", 12, seed=4, test_size=5)
        config = TrainConfig(epochs=1, batch_size=12, hidden_dim=4, train_sizes=(12,))
        with pytest.raises(RuntimeError, match="stop") as info:
            train(scheme_plan_builder("Base", 1), ds, config)
        # One scratch, room for STACK_SAMPLES gradients of the largest
        # array (128 x 4), though the only stack held 12 samples.
        assert held == [((nn.STACK_SAMPLES * 128 * 4,), 128 * 4)]
        # The traceback holds train's frame, and with it the run, until the
        # exception is dropped.
        (run,) = runs
        assert run() is not None
        del info
        assert run() is None
