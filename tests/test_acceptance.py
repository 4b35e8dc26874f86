"""Acceptance suite: one test per exit criterion, each printing a PASS or
FAIL line (run with -s or -rA to see them all).

Criteria 5 and 9 are the slow ones (tens of seconds and a few minutes);
both carry explicit wall-clock budgets that are asserted, not just hoped
for.
"""

import dataclasses
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from cayleyprop.cayley import CayleyCache, build_cayley
from cayleyprop.graphcore import UGraph, gen_graph, induced_prefix_subgraph
from cayleyprop.modgroup import sl2_order
from cayleyprop.nn import (
    TrainConfig,
    gen_sum_task,
    init_params,
    relu_kink_margin,
    scheme_plan_builder,
    train,
)
from cayleyprop.nn import _loss_and_dz
from cayleyprop.propagation import build_plan
from cayleyprop.spectral import analyze, expansion_sweep
from oracles import (
    _forward_cached,
    cheeger_constant_bruteforce,
    d_pattern_levels,
    disjoint_union,
    effective_resistance_pair,
    enumerate_sl2_bruteforce,
    is_connected,
    model_forward,
    readout,
    relabel_nodes,
    sample_gradients,
)

BASELINE_PATH = Path(__file__).parent / "data" / "sum_task_baseline.json"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {description}")


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return CayleyCache(tmp_path_factory.mktemp("acceptance-cache"))


def connected_er(n, seed, p):
    for s in range(seed, seed + 200):
        g = gen_graph("ER", n, s, p=p)
        if is_connected(g):
            return g
    raise AssertionError(f"no connected ER({n}, {p}) found from seed {seed}")


def test_criterion_1_group_order():
    with criterion(1, "brute-force SL(2,Z_n) enumeration matches the order formula"):
        start = time.perf_counter()
        for n in range(2, 13):
            assert len(enumerate_sl2_bruteforce(n)) == sl2_order(n)
        assert sl2_order(3) == 24
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"enumeration took {elapsed:.1f}s"


def test_criterion_2_figure_one_reproduction():
    with criterion(2, "complete Cay(SL(2,Z_3)): 24 nodes, 48 edges, diameter 4, gap 1.2679"):
        cg = build_cayley(3)
        g = cg.graph
        assert g.node_count == 24
        assert g.edge_count == 48
        assert set(g.degrees()) == {4}
        report = analyze(g)
        assert report.diameter == 4
        # Convention check, reported loudly rather than silently absorbed:
        # the reference value 1.2679 is the gap of the combinatorial
        # Laplacian D - A. For a 4-regular graph that equals exactly
        # 4x the normalized-Laplacian gap this library reports.
        combinatorial_gap = cg.degree * report.spectral_gap
        assert abs(combinatorial_gap - 1.2679) < 1e-3
        assert report.spectral_gap == pytest.approx((3 - math.sqrt(3)) / 4, abs=1e-10)
        print(
            "  note: reported normalized-Laplacian gap is "
            f"{report.spectral_gap:.6f}; the 1.2679 reference value equals "
            f"degree * gap = {combinatorial_gap:.6f} (combinatorial convention)"
        )


def test_criterion_3_cheeger_sandwich():
    with criterion(3, "lambda1/2 <= h(G) <= sqrt(2 lambda1) on 50 random graphs"):
        checked = 0
        seed = 0
        sizes = [4, 5, 6, 7, 8, 9, 10, 11, 12]
        while checked < 50:
            n = sizes[checked % len(sizes)]
            g = connected_er(n, 1000 + 37 * checked + seed, p=0.5)
            h = cheeger_constant_bruteforce(g)
            gap = analyze(g).spectral_gap
            assert gap / 2 <= h + 1e-12, f"lower bound violated on seed {checked}"
            assert h <= math.sqrt(2 * gap) + 1e-12, f"upper bound violated on seed {checked}"
            checked += 1


def test_criterion_4_effective_resistance():
    with criterion(4, "eigenvalue R_tot matches the pairwise pseudoinverse oracle"):
        triangle = UGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert analyze(triangle).r_tot == pytest.approx(2.0, abs=1e-10)
        for trial in range(50):
            n = 5 + trial % 26  # up to 30 nodes
            g = connected_er(n, 5000 + 61 * trial, p=min(0.6, 4.0 / n + 0.2))
            pairwise = sum(
                effective_resistance_pair(g, u, v)
                for u in range(n)
                for v in range(u + 1, n)
            )
            assert analyze(g).r_tot == pytest.approx(pairwise, abs=1e-8)


@pytest.mark.slow
def test_criterion_5_sweep_shape(cache):
    with criterion(5, "truncation sweep peaks at complete sizes, dips early after them"):
        start = time.perf_counter()
        rows = expansion_sweep(6, 360, cache=cache)
        gaps = {r.v: r.cheeger_lower for r in rows}
        diams = {r.v: r.diameter for r in rows}
        complete = [r.v for r in rows if r.is_complete]
        assert complete == [6, 24, 48, 120, 144, 336]

        # each complete size is a strict local maximum of cheeger_lower
        for c in complete:
            if c - 1 in gaps:
                assert gaps[c] > gaps[c - 1], f"no peak at complete size {c}"
            if c + 1 in gaps:
                assert gaps[c] > gaps[c + 1], f"no peak at complete size {c}"

        # the characteristic dip after each complete size: the first local
        # minimum of each inter-complete interval lies in its first third
        for a, b in zip(complete, complete[1:]):
            first_min = None
            for v in range(a + 1, b):
                if gaps[v] <= gaps[v - 1] and gaps[v] <= gaps[v + 1]:
                    first_min = v
                    break
            cutoff = a + math.ceil((b - a) / 3)
            assert first_min is not None
            assert first_min <= cutoff, (
                f"first dip of ({a},{b}) at {first_min}, past {cutoff}"
            )
            print(f"  interval ({a},{b}): first dip at v={first_min}, cutoff {cutoff}")

        # the deepest point between 24 and 48 sits just past 24
        interior = range(25, 48)
        argmin = min(interior, key=lambda v: gaps[v])
        assert 25 <= argmin <= 30, f"min of (24,48) at {argmin}"

        # diameter is locally minimal at every complete size
        for c in complete:
            for neighbor in (c - 1, c + 1):
                if neighbor in diams:
                    assert diams[c] <= diams[neighbor]

        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"sweep took {elapsed:.0f}s"


def test_criterion_6_d_patterns(cache):
    with criterion(6, "complete Cayley graphs share one d-pattern class; truncations split"):
        # regular graphs with equal constant labels refine identically, even
        # across different moduli (checked jointly on the disjoint union)
        graphs = {n: cache.graph(n) for n in (3, 4, 5)}
        for n1 in (3, 4, 5):
            for n2 in (3, 4, 5):
                if n1 >= n2:
                    continue
                union = disjoint_union([graphs[n1], graphs[n2]])
                levels = d_pattern_levels(union, [0] * union.node_count, 5)
                for level in levels:
                    assert len(set(level)) == 1, f"split between n={n1} and n={n2}"

        # any proper truncation of size >= 4 is degree-irregular (vertex 0
        # keeps its full degree while some vertex cannot), so one refinement
        # step separates nodes. Degenerate sizes cannot split and are pinned
        # as exceptions instead: v = 1, 2 are vertex-transitive trivially,
        # and n = 3, v = 3 is a triangle because the upper elementary
        # generator squares to its inverse mod 3.
        for n in (3, 4, 5):
            cg = build_cayley(n)
            total = cg.graph.node_count
            for v in range(3, total):
                truncated = induced_prefix_subgraph(cg.graph, v)
                ids = set(d_pattern_levels(truncated, [0] * v, 1)[1])
                if n == 3 and v == 3:
                    assert truncated.edge_count == 3  # the closed triangle
                    assert len(ids) == 1
                    print(
                        "  note: n=3, v=3 truncation is a triangle "
                        "(regular), pinned as the one splitting exception"
                    )
                else:
                    assert len(ids) >= 2, f"truncation n={n}, v={v} did not split"


def test_criterion_7_gradient_exactness(cache):
    with criterion(7, "analytic gradients match central finite differences"):
        step = 1e-6
        specs = [
            ("gin", "Base"),
            ("gcn", "CGP"),
            ("gin", "CGP"),
            ("gcn", "Base"),
            ("gin", "EGP"),
            ("gcn", "MasterNode"),
            ("gin", "FALast"),
            ("gcn", "CGPLast"),
            ("gin", "CGPEvery"),
            ("gcn", "EGP"),
        ]
        seed = 0
        for idx, (kind, scheme) in enumerate(specs):
            # skip parameter draws that sit on a ReLU kink or saturate the
            # sigmoid; both make the finite-difference probe ill-posed
            while True:
                seed += 1
                rng = np.random.default_rng(seed)
                g = gen_graph("ER", 7, seed, p=0.45)
                plan = build_plan(g, scheme, 2, cache=cache)
                params = init_params(rng, kind, 3, 4, 2)
                x = rng.standard_normal((7, 3))
                _, z = model_forward(plan, params, x)
                if relu_kink_margin(plan, params, x) > 1e-3 and abs(z) < 4.0:
                    break
            if scheme in ("CGP", "CGPLast", "CGPEvery"):
                assert plan.virtual_count > 0  # virtual nodes really present
            label = float(idx % 2)
            _, grads, _ = sample_gradients(plan, params, x, label)
            worst = 0.0
            for name, arr in params.arrays():
                flat = arr.reshape(-1)
                gflat = grads[name].reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    _, zp, _ = _forward_cached(plan, params, x)
                    lp, _ = _loss_and_dz(zp, label)
                    flat[i] = orig - step
                    _, zm, _ = _forward_cached(plan, params, x)
                    lm, _ = _loss_and_dz(zm, label)
                    flat[i] = orig
                    fd = (lp - lm) / (2 * step)
                    rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
                    worst = max(worst, rel)
            assert worst < 1e-5, f"config {idx} ({kind}, {scheme}): rel err {worst:.2e}"


def test_criterion_8_structural_contracts(cache):
    with criterion(8, "CGP==EGP at exact fit; masked readout; permutation equivariance"):
        rng = np.random.default_rng(42)

        # (a) exact-fit degeneration, bit for bit
        g24 = gen_graph("ER", 24, 77, p=0.3)
        params = init_params(rng, "gin", 4, 6, 3)
        x24 = rng.standard_normal((24, 4))
        h_cgp, z_cgp = model_forward(build_plan(g24, "CGP", 3, cache=cache), params, x24)
        h_egp, z_egp = model_forward(build_plan(g24, "EGP", 3, cache=cache), params, x24)
        assert np.array_equal(h_cgp, h_egp) and z_cgp == z_egp

        # (b) virtual rows of the final embedding never affect predictions
        g20 = gen_graph("ER", 20, 78, p=0.35)
        plan = build_plan(g20, "CGP", 2, cache=cache)
        params20 = init_params(rng, "gin", 4, 6, 2)
        x20 = rng.standard_normal((20, 4))
        h, z = model_forward(plan, params20, x20)
        for trial in range(5):
            noisy = h.copy()
            noisy[20:] = rng.standard_normal((4, 6)) * 10.0 ** trial
            assert readout(plan, params20, noisy) == z

        # (c) permutation equivariance: for Base the input relabeling is the
        # whole story; for CGP the fixed input-to-Cayley-vertex assignment
        # must be carried along, which the relabeled templates express
        perm = list(rng.permutation(20))
        inv = np.argsort(perm)
        base_plan = build_plan(g20, "Base", 2)
        hb, zb = model_forward(base_plan, params20, x20)
        hbp, zbp = model_forward(
            build_plan(relabel_nodes(g20, perm), "Base", 2), params20, x20[inv]
        )
        np.testing.assert_allclose(hbp[perm], hb, atol=1e-11)
        assert zbp == pytest.approx(zb, abs=1e-9)

        ext_perm = perm + list(range(20, plan.extended_count))
        permuted_plan = dataclasses.replace(
            plan,
            input_template=relabel_nodes(plan.input_template, ext_perm),
            cayley_template=relabel_nodes(plan.cayley_template, ext_perm),
        )
        hp, zp = model_forward(permuted_plan, params20, x20[inv])
        np.testing.assert_allclose(hp[ext_perm], h, atol=1e-11)
        assert zp == pytest.approx(z, abs=1e-9)


@pytest.mark.slow
def test_criterion_9_sum_task(cache):
    with criterion(9, "sum-task ordering: Empty ~ Cayley24 < {Star, BA}; regression pinned"):
        start = time.perf_counter()
        baseline = json.loads(BASELINE_PATH.read_text())
        cfg = baseline["config"]
        results: dict[str, dict[int, list[float]]] = {}
        train_errors: dict[str, list[float]] = {}
        for structure in ("Empty", "Cayley24", "Star", "BA"):
            results[structure] = {size: [] for size in cfg["train_sizes"]}
            train_errors[structure] = []
            for seed in cfg["seeds"]:
                dataset = gen_sum_task(
                    structure,
                    max(cfg["train_sizes"]),
                    seed,
                    test_size=cfg["test_size"],
                )
                config = TrainConfig(
                    learning_rate=cfg["learning_rate"],
                    epochs=cfg["epochs"],
                    batch_size=cfg["batch_size"],
                    seed=seed,
                    hidden_dim=cfg["hidden_dim"],
                    num_layers=cfg["num_layers"],
                    layer_kind=cfg["layer_kind"],
                    train_sizes=tuple(cfg["train_sizes"]),
                )
                for row in train(scheme_plan_builder("Base", cfg["num_layers"]), dataset, config):
                    assert not row.failed
                    results[structure][row.train_size].append(row.test_error)
                    train_errors[structure].append(row.train_error)

        mean = {
            (s, size): float(np.mean(errs))
            for s, by_size in results.items()
            for size, errs in by_size.items()
        }
        for (s, size), m in sorted(mean.items()):
            print(f"  {s:9s} size={size:5d} mean test error {m:.4f}")

        # ordering at train_size = 100
        assert mean[("Empty", 100)] < mean[("Star", 100)]
        assert mean[("Empty", 100)] < mean[("BA", 100)]
        assert mean[("Cayley24", 100)] < mean[("Star", 100)]
        assert mean[("Cayley24", 100)] < mean[("BA", 100)]
        # proximity at train_size = 1000
        assert abs(mean[("Cayley24", 1000)] - mean[("Empty", 1000)]) < 0.03

        # the over-parameterized student fits its training data
        assert max(train_errors["Empty"]) <= 0.02

        # regression against the recorded first full run
        for structure, by_size in baseline["test_error"].items():
            for size_text, recorded in by_size.items():
                got = results[structure][int(size_text)]
                np.testing.assert_allclose(
                    got, recorded, atol=0.02,
                    err_msg=f"regression drift for {structure} @ {size_text}",
                )

        elapsed = time.perf_counter() - start
        assert elapsed < 1800.0, f"sum task took {elapsed:.0f}s"


def test_criterion_10_preprocessing_scalability(tmp_path):
    with criterion(10, "cold CGP template for ER(10000) in under 5 s"):
        timings = {}
        for n in (1000, 10_000):
            g = gen_graph("ER", n, 0, p=5.0 * math.log(n) / n)
            cold_cache = CayleyCache(tmp_path / f"cold-{n}")
            start = time.perf_counter()
            plan = build_plan(g, "CGP", 2, cache=cold_cache)
            timings[n] = time.perf_counter() - start
            if n == 10_000:
                assert plan.extended_count == 12144
                assert plan.virtual_count == 12144 - n
        assert timings[10_000] < 5.0, f"cold construction took {timings[10_000]:.2f}s"
        # construction cost grows with size (wide margin, robust to noise)
        assert timings[10_000] > timings[1000]
        print(
            f"  cold CGP templates: n=1000 in {timings[1000]:.3f}s, "
            f"n=10000 in {timings[10_000]:.3f}s"
        )


def test_criterion_11_out_of_scope_note():
    with criterion(11, "full-scale benchmark tables substituted by criteria 1-10"):
        # Large-scale dataset training is out of scope at desk scale by
        # design; the property-based and pinned-regression criteria above
        # stand in for those tables.
        assert True
