import dataclasses
import json
import math

import numpy as np
import pytest

from cayleyprop.cayley import CayleyCache
from cayleyprop.graphcore import UGraph, gen_graph, relabel_nodes, star_graph
from cayleyprop.nn import (
    AdamState,
    GINLayerParams,
    ModelParams,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    curve_to_csv,
    gen_sum_task,
    init_params,
    layer_forward,
    loss_and_grads,
    model_forward,
    params_from_json_obj,
    params_to_json_obj,
    readout,
    relu_kink_margin,
    sample_gradients,
    scheme_plan_builder,
    train,
)
from cayleyprop.nn import GCNLayerParams, _forward_cached, _loss_and_dz
from cayleyprop.propagation import build_plan


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
        for v in g.neighbors(u):
            agg = agg + x[v]
        if u in g.self_loops:
            agg = agg + x[u]
        hidden = np.maximum(agg @ p.w1 + p.b1, 0.0)
        out[u] = hidden @ p.w2 + p.b2
    return out


def gcn_loop_oracle(x, g, p):
    n, _ = x.shape
    deg = [g.degree(u) + 1 for u in range(n)]
    out = np.empty((n, p.b.size))
    for u in range(n):
        acc = x[u] / deg[u]  # the added self-edge
        for v in g.neighbors(u):
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
            g = gen_graph("ER", n, seed, p=0.4)
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
            g = gen_graph("ER", n, seed, p=0.4)
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
        g = gen_graph("ER", 24, 9, p=0.3)
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
        g = gen_graph("ER", 20, 9, p=0.3)
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
        g = gen_graph("ER", 20, 30, p=0.35)
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
        g = gen_graph("ER", 10, 2, p=0.4)
        plan = build_plan(g, "Base", 2)
        params = init_params(np.random.default_rng(0), "gin", 4, 6, 3)
        with pytest.raises(ValueError):
            model_forward(plan, params, np.ones((10, 4)))

    def test_permutation_equivariance_base(self):
        rng = np.random.default_rng(7)
        g = gen_graph("ER", 9, 21, p=0.5)
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
        g = gen_graph("ER", 20, 22, p=0.4)
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
        loss, _ = loss_and_grads([plan] * len(batch), params, batch)
        assert loss == pytest.approx(math.log(2.0))

    def test_gradient_matches_finite_differences(self, cache):
        rng = np.random.default_rng(3)
        g = gen_graph("ER", 6, 15, p=0.5)
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
        g = gen_graph("ER", 20, 16, p=0.4)
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
            loss_and_grads([plan], params, [(np.ones((2, 2)), 1.0)])

    def test_plan_batch_length_mismatch(self):
        g = UGraph(2, [(0, 1)])
        plan = build_plan(g, "Base", 1)
        params = init_params(np.random.default_rng(0), "gin", 2, 3, 1)
        with pytest.raises(ValueError):
            loss_and_grads([plan, plan], params, [(np.ones((2, 2)), 1.0)])


class TestAdam:
    def test_zero_gradient_is_noop(self):
        params = init_params(np.random.default_rng(0), "gin", 2, 3, 1)
        state = AdamState.for_params(params)
        before = {n: a.copy() for n, a in params.arrays()}
        stepped = adam_step(params, {n: np.zeros_like(a) for n, a in params.arrays()}, state, 1e-3)
        for name, arr in stepped.arrays():
            np.testing.assert_array_equal(arr, before[name])

    def test_first_step_magnitude_is_lr(self):
        params = init_params(np.random.default_rng(1), "gin", 2, 3, 1)
        state = AdamState.for_params(params)
        grads = {n: np.full_like(a, 0.5) for n, a in params.arrays()}
        before = {n: a.copy() for n, a in params.arrays()}
        stepped = adam_step(params, grads, state, 1e-2)
        for name, arr in stepped.arrays():
            # bias correction makes the first update lr * g / (|g| + eps)
            np.testing.assert_allclose(before[name] - arr, 1e-2, rtol=1e-6)

    def test_constant_gradient_step_approaches_lr_sign(self):
        params = init_params(np.random.default_rng(2), "gin", 2, 3, 1)
        state = AdamState.for_params(params)
        grads = {n: np.full_like(a, -2.0) for n, a in params.arrays()}
        prev = params
        for _ in range(500):
            prev, params = params, adam_step(params, grads, state, 1e-3)
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
        adam_step(params, {n: np.ones_like(a) for n, a in params.arrays()}, state, 1e-3)
        for name, arr in params.arrays():
            np.testing.assert_array_equal(arr, snapshot[name])


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
        assert star.degree(0) == 19

    def test_labels_roughly_balanced(self):
        ds = gen_sum_task("Empty", 400, seed=11, test_size=1)
        rate = np.mean([s.label for s in ds.train])
        assert 0.35 < rate < 0.65

    def test_unknown_structure(self):
        with pytest.raises(ValueError):
            gen_sum_task("Tree", 5, seed=0)


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

    @pytest.mark.parametrize("lr", [math.nan, math.inf])
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


class TestCheckpoint:
    def test_round_trip(self):
        params = init_params(np.random.default_rng(5), "gin", 3, 4, 2)
        obj = params_to_json_obj(params)
        text = json.dumps(obj)
        restored = params_from_json_obj(json.loads(text))
        for (n1, a1), (n2, a2) in zip(params.arrays(), restored.arrays()):
            assert n1 == n2
            np.testing.assert_array_equal(a1, a2)

    def test_gcn_round_trip(self):
        params = init_params(np.random.default_rng(6), "gcn", 3, 4, 2)
        restored = params_from_json_obj(params_to_json_obj(params))
        assert restored.layers[0].kind == "gcn"
        np.testing.assert_array_equal(restored.layers[1].w, params.layers[1].w)
