"""Traced runs: wrap library calls from outside, record spans, derive per-layer metrics.

The wrappers are installed on the library's public functions and methods,
and on every module attribute that aliases them (``nn.build_plan`` is the
same function object as ``propagation.build_plan``), so calls between
modules are traced as well as calls made by the benchmark. Leaving the
``with`` block puts every original back.

Spans are kept in memory as ``[name, start, end, parent, info]`` lists and
turned into metrics once the run ends. A span's self time is its duration
minus the durations of its direct children; every ``*_s`` metric below is a
self time, so no second counts towards two layers.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

PACKAGE = "cayleyprop"
MODULES = ("modgroup", "cayley", "graphcore", "spectral", "propagation", "nn", "cli")


def _model_flops(plan, params, backward: bool) -> int:
    """GEMM flops of one sample through the plan (forward, optionally backward)."""
    m = plan.extended_count
    total = 0
    for layer in params.layers:
        if layer.kind == "gin":
            f, h = layer.w1.shape
            fwd = 2 * m * m * f + 2 * m * f * h + 2 * m * h * h
            bwd = 2 * m * m * f + 4 * m * f * h + 4 * m * h * h
        else:
            f, h = layer.w.shape
            fwd = 2 * m * m * f + 2 * m * f * h
            bwd = 2 * m * m * f + 4 * m * f * h
        total += fwd + (bwd if backward else 0)
    return total


def _loss_info(args, kwargs, out):
    plan, params, batch = args[:3]
    plans = plan if isinstance(plan, list) else [plan] * len(batch)
    return len(batch), sum(_model_flops(p, params, True) for p in plans)


def _eval_info(args, kwargs, out):
    plans, params, samples = args[:3]
    return sum(_model_flops(p, params, False) for p, _ in zip(plans, samples))


# (module, attribute path, info) for every traced call. ``info`` runs after
# the call returns, outside the span, and records the counts the metrics
# need. mat_mul and the Mat2Z methods run millions of times per group build
# and are too fine to wrap; modgroup.products is computed from the
# build_cayley spans instead.
TARGETS = (
    ("graphcore", "UGraph.__init__", lambda a, k, out: len(a[0].edges)),
    ("graphcore", "UGraph.adjacency_matrix", lambda a, k, out: 8 * a[0].node_count ** 2),
    ("graphcore", "UGraph.bfs_distances", None),
    ("graphcore", "parse_edge_list", None),
    ("graphcore", "emit_edge_list", None),
    ("graphcore", "gen_graph", None),
    ("cayley", "build_cayley", lambda a, k, out: out.modulus),
    ("cayley", "CayleyCache.graph", None),
    ("cayley", "CayleyCache._write_atomic", None),
    ("spectral", "analyze", None),
    ("spectral", "laplacian", None),
    ("spectral", "eig_sym", lambda a, k, out: len(out)),
    ("spectral", "diameter_bfs", None),
    ("propagation", "build_plan", lambda a, k, out: out.virtual_count),
    ("propagation", "extend_features", None),
    ("nn", "train", None),
    ("nn", "loss_and_grads", _loss_info),
    ("nn", "adam_step", None),
    ("nn", "error_rate", _eval_info),
)

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "modgroup.products": ("count", "lower"),
    "cayley.build_s": ("s", "lower"),
    "cayley.builds": ("count", "lower"),
    "cayley.requests": ("count", "lower"),
    "cayley.mem_hits": ("count", "higher"),
    "cayley.disk_hits": ("count", "higher"),
    "cayley.misses": ("count", "lower"),
    "cayley.hit_ratio": ("ratio", "higher"),
    "cayley.read_s": ("s", "lower"),
    "cayley.write_s": ("s", "lower"),
    "graphcore.ugraph_init_s": ("s", "lower"),
    "graphcore.ugraph_inits": ("count", "lower"),
    "graphcore.edges_built": ("count", "lower"),
    "graphcore.adjacency_s": ("s", "lower"),
    "graphcore.adjacency_calls": ("count", "lower"),
    "graphcore.adjacency_bytes": ("bytes", "lower"),
    "graphcore.bfs_s": ("s", "lower"),
    "graphcore.bfs_calls": ("count", "lower"),
    "graphcore.parse_s": ("s", "lower"),
    "graphcore.emit_s": ("s", "lower"),
    "graphcore.gen_s": ("s", "lower"),
    "spectral.analyze_self_s": ("s", "lower"),
    "spectral.laplacian_s": ("s", "lower"),
    "spectral.eig_s": ("s", "lower"),
    "spectral.eig_calls": ("count", "lower"),
    "spectral.eig_n3": ("count", "lower"),
    "spectral.diameter_s": ("s", "lower"),
    "propagation.build_plan_s": ("s", "lower"),
    "propagation.plans": ("count", "lower"),
    "propagation.virtual_nodes": ("count", "lower"),
    "propagation.extend_features_s": ("s", "lower"),
    "propagation.extend_features_calls": ("count", "lower"),
    "nn.loss_and_grads_s": ("s", "lower"),
    "nn.adam_s": ("s", "lower"),
    "nn.eval_s": ("s", "lower"),
    "nn.steps": ("count", "lower"),
    "nn.samples": ("count", "lower"),
    "nn.step_p50_ms": ("ms", "lower"),
    "nn.step_p90_ms": ("ms", "lower"),
    "nn.operator_builds": ("count", "lower"),
    "nn.gflop": ("GFLOP", "lower"),
    "nn.gflop_per_s": ("GFLOP/s", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def library_modules() -> list:
    """The package namespace and its seven modules, where aliases live."""
    return [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
    ]


class Tracer:
    """Context manager that wraps every target while it is active.

    ``spans`` survives the block, so metrics are derived after the
    originals are back in place.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            modules = library_modules()
            for module_name, path, info in TARGETS:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, f"{module_name}.{path}", info)
                self._patch(owner, attr, wrapper)
                if not cls_path:
                    for module in modules:
                        if module is not owner and module.__dict__.get(attr) is original:
                            self._patch(module, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if info is not None:
                record[4] = info(args, kwargs, out)
            return out

        wrapper.perfbench_span = name
        return wrapper


def wrapped_attributes() -> list[str]:
    """Library attributes that are still tracer wrappers (empty after a run)."""
    found = []
    for module in library_modules():
        for attr, value in vars(module).items():
            if hasattr(value, "perfbench_span"):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                found.extend(
                    f"{module.__name__}.{attr}.{name}"
                    for name, member in vars(value).items()
                    if hasattr(member, "perfbench_span")
                )
    return found


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[list], products_of) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    ``products_of(n)`` gives the group products one build of modulus n
    performs (order times generator count); it is called after tracing ends.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    graph_kind = {}
    in_nn = [False] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        in_nn[i] = name.startswith("nn.") or (parent >= 0 and in_nn[parent])
        if parent >= 0:
            child[parent] += dur[i]
            if spans[parent][0] == "cayley.CayleyCache.graph":
                if name == "cayley.build_cayley":
                    graph_kind[parent] = "miss"
                elif name == "graphcore.parse_edge_list":
                    graph_kind.setdefault(parent, "disk")

    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    info: dict[str, list] = {}
    for i, (name, _, _, _, extra) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
        if extra is not None:
            info.setdefault(name, []).append(extra)

    def s(name):
        return self_s.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    requests = [i for i in range(n) if spans[i][0] == "cayley.CayleyCache.graph"]
    kinds = [graph_kind.get(i, "mem") for i in requests]
    hits = kinds.count("mem") + kinds.count("disk")
    loss = info.get("nn.loss_and_grads", [])
    steps = [
        dur[i] + dur[j]
        for i, j in zip(
            [i for i in range(n) if spans[i][0] == "nn.loss_and_grads"],
            [j for j in range(n) if spans[j][0] == "nn.adam_step"],
        )
    ]
    gflop = (sum(f for _, f in loss) + sum(info.get("nn.error_rate", []))) / 1e9
    train_s = sum(dur[i] for i in range(n) if spans[i][0] == "nn.train")
    return {
        "modgroup.products": sum(products_of(m) for m in info.get("cayley.build_cayley", [])),
        "cayley.build_s": s("cayley.build_cayley"),
        "cayley.builds": c("cayley.build_cayley"),
        "cayley.requests": len(requests),
        "cayley.mem_hits": kinds.count("mem"),
        "cayley.disk_hits": kinds.count("disk"),
        "cayley.misses": kinds.count("miss"),
        "cayley.hit_ratio": hits / len(requests) if requests else 0.0,
        "cayley.read_s": sum(
            (dur[i] - child[i] for i, k in zip(requests, kinds) if k == "disk"), 0.0
        ),
        "cayley.write_s": s("cayley.CayleyCache._write_atomic"),
        "graphcore.ugraph_init_s": s("graphcore.UGraph.__init__"),
        "graphcore.ugraph_inits": c("graphcore.UGraph.__init__"),
        "graphcore.edges_built": sum(info.get("graphcore.UGraph.__init__", [])),
        "graphcore.adjacency_s": s("graphcore.UGraph.adjacency_matrix"),
        "graphcore.adjacency_calls": c("graphcore.UGraph.adjacency_matrix"),
        "graphcore.adjacency_bytes": sum(info.get("graphcore.UGraph.adjacency_matrix", [])),
        "graphcore.bfs_s": s("graphcore.UGraph.bfs_distances"),
        "graphcore.bfs_calls": c("graphcore.UGraph.bfs_distances"),
        "graphcore.parse_s": s("graphcore.parse_edge_list"),
        "graphcore.emit_s": s("graphcore.emit_edge_list"),
        "graphcore.gen_s": s("graphcore.gen_graph"),
        "spectral.analyze_self_s": s("spectral.analyze"),
        "spectral.laplacian_s": s("spectral.laplacian"),
        "spectral.eig_s": s("spectral.eig_sym"),
        "spectral.eig_calls": c("spectral.eig_sym"),
        "spectral.eig_n3": sum(m**3 for m in info.get("spectral.eig_sym", [])),
        "spectral.diameter_s": s("spectral.diameter_bfs"),
        "propagation.build_plan_s": s("propagation.build_plan"),
        "propagation.plans": c("propagation.build_plan"),
        "propagation.virtual_nodes": sum(info.get("propagation.build_plan", [])),
        "propagation.extend_features_s": s("propagation.extend_features"),
        "propagation.extend_features_calls": c("propagation.extend_features"),
        "nn.loss_and_grads_s": s("nn.loss_and_grads"),
        "nn.adam_s": s("nn.adam_step"),
        "nn.eval_s": s("nn.error_rate"),
        "nn.steps": c("nn.adam_step"),
        "nn.samples": sum(b for b, _ in loss),
        "nn.step_p50_ms": _percentile(steps, 50) * 1e3,
        "nn.step_p90_ms": _percentile(steps, 90) * 1e3,
        "nn.operator_builds": sum(
            1
            for i in range(n)
            if in_nn[i] and spans[i][0] == "graphcore.UGraph.adjacency_matrix"
        ),
        "nn.gflop": gflop,
        "nn.gflop_per_s": gflop / train_s if train_s > 0 else 0.0,
        "trace.spans": n,
    }
