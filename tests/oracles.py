"""Reference implementations the tests check the library against.

Brute-force and per-pair oracles for the diagnostics (group order, Cheeger
constant, effective resistance), graph helpers that build test inputs
(relabelling, disjoint unions, d-patterns, connectivity), the standalone
layer forward, the per-sample training path and the per-array Adam step
that the stacked, whole-vector engine in `cayleyprop.nn` must match bit for
bit. None of them is on a command's code
path, so they live here rather than in the package.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from cayleyprop.graphcore import UGraph
from cayleyprop.modgroup import Mat2Z
from cayleyprop.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ModelParams,
    _layer_operator,
    _loss_and_dz,
    readout,
)
from cayleyprop.propagation import PropagationPlan, extend_features
from cayleyprop.spectral import laplacian

BRUTEFORCE_MAX_MODULUS = 20
CHEEGER_BRUTEFORCE_MAX_NODES = 20


# ---------------------------------------------------------------------------
# Group elements
# ---------------------------------------------------------------------------


def enumerate_sl2_bruteforce(n: int) -> list[Mat2Z]:
    """All elements of SL(2, Z_n) by exhaustive determinant check.

    Independent of sl2_order: scans all n^4 candidate matrices in
    lexicographic (a, b, c, d) order. Intended as an oracle at small n.
    """
    if not 2 <= n <= BRUTEFORCE_MAX_MODULUS:
        raise ValueError(
            f"brute-force enumeration supports 2 <= n <= "
            f"{BRUTEFORCE_MAX_MODULUS}, got {n}"
        )
    elements = []
    for a, b, c, d in product(range(n), repeat=4):
        if (a * d - b * c) % n == 1:
            elements.append(Mat2Z(a, b, c, d, n))
    return elements


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def is_connected(g: UGraph) -> bool:
    if g.node_count == 0:
        return True
    return -1 not in g.bfs_distances(0)


def relabel_nodes(g: UGraph, perm: Sequence[int]) -> UGraph:
    """Apply a permutation: node u of g becomes node perm[u]."""
    if sorted(perm) != list(range(g.node_count)):
        raise ValueError("perm is not a permutation of the node ids")
    return UGraph(
        g.node_count,
        [(perm[u], perm[v]) for u, v in g.edges],
        [perm[u] for u in g.self_loops],
    )


def disjoint_union(graphs: Sequence[UGraph]) -> UGraph:
    """Union with node ids offset block by block, in the given order."""
    total = sum(g.node_count for g in graphs)
    edges: list[tuple[int, int]] = []
    loops: list[int] = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        loops.extend(u + offset for u in g.self_loops)
        offset += g.node_count
    return UGraph(total, edges, loops)


def d_pattern_levels(
    g: UGraph, colors: Sequence[int], depth: int
) -> list[list[int]]:
    """Pattern ids per node for every depth 0..depth.

    Depth 0 ids are the initial labels themselves. At depth k >= 1 a node's
    descriptor is (own (k-1)-id, sorted tuple of neighbor (k-1)-ids); the
    distinct descriptors of a level are sorted and numbered from 0, so the
    ids are canonical given the descriptor set. A flagged self-loop makes a
    node its own neighbor once. Refinement is monotone: equal ids at depth
    k+1 imply equal ids at depth k.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if len(colors) != g.node_count:
        raise ValueError(
            f"got {len(colors)} labels for {g.node_count} nodes"
        )
    current = [int(c) for c in colors]
    levels = [list(current)]
    adj = g.adj
    for _ in range(depth):
        descriptors = []
        for u in range(g.node_count):
            nbr = [current[v] for v in adj[u]]
            if u in g.self_loops:
                nbr.append(current[u])
            nbr.sort()
            descriptors.append((current[u], tuple(nbr)))
        ranking = {desc: i for i, desc in enumerate(sorted(set(descriptors)))}
        current = [ranking[desc] for desc in descriptors]
        levels.append(list(current))
    return levels


def d_patterns(g: UGraph, colors: Sequence[int], depth: int) -> list[int]:
    """Pattern ids at the requested depth (see d_pattern_levels)."""
    return d_pattern_levels(g, colors, depth)[-1]


# ---------------------------------------------------------------------------
# Spectral diagnostics
# ---------------------------------------------------------------------------


def effective_resistance_pair(g: UGraph, u: int, v: int) -> float:
    """Electrical resistance between u and v via the pseudoinverse of D - A.

    R(u, v) = (1_u - 1_v)^T L^+ (1_u - 1_v). Used as the per-pair oracle for
    the total-resistance eigenvalue formula.
    """
    if u == v:
        raise ValueError("effective resistance requires two distinct nodes")
    if not (0 <= u < g.node_count and 0 <= v < g.node_count):
        raise ValueError(f"nodes ({u}, {v}) out of range")
    if not is_connected(g):
        raise ValueError("effective resistance is undefined on a disconnected graph")
    pinv = np.linalg.pinv(laplacian(g, "combinatorial"))
    z = np.zeros(g.node_count)
    z[u] = 1.0
    z[v] = -1.0
    return float(z @ pinv @ z)


def cheeger_constant_bruteforce(g: UGraph) -> float:
    """Exact Cheeger constant by exhaustive subset enumeration.

    h(G) = min over cuts of |E(S, comp S)| / min(vol S, vol comp S) with
    vol measured in degrees. Exponential; guarded to small graphs.
    """
    n = g.node_count
    if n > CHEEGER_BRUTEFORCE_MAX_NODES:
        raise ValueError(
            f"exhaustive Cheeger limited to {CHEEGER_BRUTEFORCE_MAX_NODES} "
            f"nodes, got {n}"
        )
    if n < 2:
        raise ValueError("Cheeger constant needs at least two nodes")
    degrees = g.degrees()
    total_vol = sum(degrees)
    best = math.inf
    # Vertex n-1 stays outside S, which halves the enumeration without
    # losing any cut.
    for mask in range(1, 1 << (n - 1)):
        vol = 0
        for u in range(n - 1):
            if mask >> u & 1:
                vol += degrees[u]
        small = min(vol, total_vol - vol)
        if small == 0:
            continue
        boundary = 0
        for a, b in g.edges:
            in_a = a < n - 1 and mask >> a & 1
            in_b = b < n - 1 and mask >> b & 1
            if in_a != in_b:
                boundary += 1
        best = min(best, boundary / small)
    return best


# ---------------------------------------------------------------------------
# Layers and the per-sample training path
# ---------------------------------------------------------------------------


def layer_forward(x: np.ndarray, g: UGraph, p) -> np.ndarray:
    """One GIN or GCN layer (as p.kind says) over the graph g."""
    out, _ = _layer_forward(x, _layer_operator(g, p.kind), p)
    return out


def _layer_forward(x, op, p):
    """Layer output and the cache for _layer_backward; the cache always ends
    with the ReLU pre-activation."""
    if x.shape[0] != op.shape[0]:
        raise ValueError(
            f"feature rows {x.shape[0]} do not match graph nodes {op.shape[0]}"
        )
    if p.kind == "gin":
        z = (1.0 + float(p.eps)) * x + op @ x
        pre = z @ p.w1 + p.b1
        h = np.maximum(pre, 0.0)
        out = h @ p.w2 + p.b2
        return out, (x, z, h, pre)
    sx = op @ x
    pre = sx @ p.w + p.b
    out = np.maximum(pre, 0.0)
    return out, (sx, pre)


def _layer_backward(dout, cache, op, p):
    """Parameter gradients and the input gradient; op is symmetric, so it
    is its own transpose."""
    if p.kind == "gin":
        x, z, h, pre = cache
        grads = {
            "w2": h.T @ dout,
            "b2": dout.sum(axis=0),
        }
        dh = dout @ p.w2.T
        dpre = dh * (pre > 0.0)
        grads["w1"] = z.T @ dpre
        grads["b1"] = dpre.sum(axis=0)
        dz = dpre @ p.w1.T
        grads["eps"] = np.asarray((dz * x).sum())
        dx = (1.0 + float(p.eps)) * dz + op @ dz
        return grads, dx
    sx, pre = cache
    dpre = dout * (pre > 0.0)
    grads = {
        "w": sx.T @ dpre,
        "b": dpre.sum(axis=0),
    }
    dx = op @ (dpre @ p.w.T)
    return grads, dx


def _forward_cached(plan: PropagationPlan, params: ModelParams, x: np.ndarray):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] != plan.original_count:
        raise ValueError(
            f"feature rows {x.shape[0]} do not match plan original count "
            f"{plan.original_count}"
        )
    if len(params.layers) != plan.num_layers:
        raise ValueError(
            f"model has {len(params.layers)} layers, plan schedules "
            f"{plan.num_layers}"
        )
    h = extend_features(x, plan.extended_count)
    caches = []
    for layer, g in zip(params.layers, plan.layer_graphs):
        op = _layer_operator(g, layer.kind)
        h, cache = _layer_forward(h, op, layer)
        caches.append((layer, op, cache))
    z = readout(plan, params, h)
    return h, z, caches


def _backward(plan: PropagationPlan, params: ModelParams, caches, h_final, dz):
    grads = {}
    s = h_final[: plan.original_count].sum(axis=0)
    grads["readout.w"] = s * dz
    grads["readout.b"] = np.asarray(dz)
    dh = np.zeros_like(h_final)
    dh[: plan.original_count] = params.readout_w * dz
    for i in range(len(caches) - 1, -1, -1):
        layer, op, cache = caches[i]
        layer_grads, dh = _layer_backward(dh, cache, op, layer)
        for name, g in layer_grads.items():
            grads[f"layers.{i}.{layer.kind}.{name}"] = g
    return grads, dh  # dh is the gradient w.r.t. the extended features


def sample_gradients(
    plan: PropagationPlan,
    params: ModelParams,
    x: np.ndarray,
    label: float,
):
    """BCE loss, parameter gradients, and extended-feature gradient for one
    sample."""
    h, z, caches = _forward_cached(plan, params, x)
    loss_value, dz = _loss_and_dz(z, label)
    grads, dx = _backward(plan, params, caches, h, dz)
    return loss_value, grads, dx


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.arrays()}


# ---------------------------------------------------------------------------
# The per-array Adam step
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(m=zero_grads(params), v=zero_grads(params))


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> ModelParams:
    """One Adam update. Returns fresh parameters; state advances in place."""
    state.step += 1
    t = state.step
    new = params.copy()
    for name, arr in new.arrays():
        g = grads[name]
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / (1.0 - ADAM_BETA1**t)
        v_hat = state.v[name] / (1.0 - ADAM_BETA2**t)
        arr -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new
