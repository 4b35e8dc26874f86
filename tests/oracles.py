"""Reference implementations the tests check the library against.

The validating `Mat2Z` group element with `mat_mul`, and the group BFS
built on them that `cayley.build_cayley` (plain residue tuples) must match
edge for edge; brute-force and per-pair oracles for the diagnostics (group
order, Cheeger constant, effective resistance); `analyze_serial`, the
one-thread form of `spectral.analyze`; the `Generator.choice` BA
generator that `graphcore.gen_ba_graphs` must match graph for graph, and
choice's weighted pick in numpy's own steps; graph helpers that build test
inputs (relabelling, disjoint unions, d-patterns, connectivity); the dense
layer operator, the standalone layer forward, the per-sample training path
and the per-array Adam step that the stacked, whole-vector engine in
`cayleyprop.nn` must match bit for bit; `model_forward`, the engine's
forward pass of one sample, which only tests call; and the wording of the
library's integer check refusing a value. None of them is on a command's
code path, so they live here rather than in the package.
"""

from __future__ import annotations

import math
import re
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from cayleyprop import nn
from cayleyprop.graphcore import _SEED_TAG_BA, UGraph
from cayleyprop.modgroup import sl2_order
from cayleyprop.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ModelParams,
    _loss_and_dz,
)
from cayleyprop.propagation import PropagationPlan, extend_features
from cayleyprop.spectral import (
    ZERO_EIGENVALUE_CUTOFF,
    SpectralReport,
    _normalized,
    diameter_bfs,
    eig_sym,
    laplacian,
)

BRUTEFORCE_MAX_MODULUS = 20
CHEEGER_BRUTEFORCE_MAX_NODES = 20


def int_refusal(what: str, x, minimum: int | None = None) -> str:
    """A match= pattern for the ValueError with which graphcore._as_int
    refuses x: an int below minimum, or a value that is not an integer."""
    if type(x) is int:
        return re.escape(f"{what} must be >= {minimum}, got {x}")
    return re.escape(f"{what} {x!r} is not an integer")


# ---------------------------------------------------------------------------
# Group elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mat2Z:
    """A 2x2 matrix over Z_n with determinant 1 (an element of SL(2, Z_n))."""

    a: int
    b: int
    c: int
    d: int
    n: int

    def __post_init__(self) -> None:
        n = self.n
        if n < 2:
            raise ValueError(f"modulus must be >= 2, got {n}")
        # Eager reduction keeps every stored element canonical and hashable.
        object.__setattr__(self, "a", self.a % n)
        object.__setattr__(self, "b", self.b % n)
        object.__setattr__(self, "c", self.c % n)
        object.__setattr__(self, "d", self.d % n)
        if (self.a * self.d - self.b * self.c) % n != 1:
            raise ValueError(
                f"determinant of {self.entries()} is not 1 mod {n}"
            )

    @classmethod
    def identity(cls, n: int) -> "Mat2Z":
        return cls(1, 0, 0, 1, n)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    # Group arithmetic: kept beside mat_mul though only the tests call it.
    def inverse(self) -> "Mat2Z":
        # det == 1, so the adjugate is the inverse.
        return Mat2Z(self.d, -self.b, -self.c, self.a, self.n)


def mat_mul(x: Mat2Z, y: Mat2Z) -> Mat2Z:
    """Product of two group elements, entries reduced mod n."""
    if x.n != y.n:
        raise ValueError(f"modulus mismatch: {x.n} != {y.n}")
    n = x.n
    return Mat2Z(
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
        n,
    )


def build_cayley_mat2z(n: int) -> UGraph:
    """Cay(SL(2, Z_n); S_n) by the FIFO BFS of `cayley.build_cayley`, with
    every element a validated Mat2Z and every product a mat_mul."""
    gens = list(
        dict.fromkeys(
            [
                Mat2Z(1, 1, 0, 1, n),
                Mat2Z(1, n - 1, 0, 1, n),
                Mat2Z(1, 0, 1, 1, n),
                Mat2Z(1, 0, n - 1, 1, n),
            ]
        )
    )
    identity = Mat2Z.identity(n)
    index: dict[Mat2Z, int] = {identity: 0}
    edges: set[tuple[int, int]] = set()
    queue: deque[Mat2Z] = deque([identity])
    while queue:
        x = queue.popleft()
        ix = index[x]
        for s in gens:
            y = mat_mul(x, s)
            iy = index.get(y)
            if iy is None:
                iy = len(index)
                index[y] = iy
                queue.append(y)
            edges.add((ix, iy) if ix < iy else (iy, ix))
    assert len(index) == sl2_order(n)
    return UGraph(len(index), sorted(edges))


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


def gen_ba_choice(n: int, m: int, seed: int) -> UGraph:
    """BA(n, m) with one Generator.choice call per target: the generator that
    `graphcore.gen_ba_graphs` must match graph for graph."""
    rng = np.random.default_rng([seed, _SEED_TAG_BA])
    core = min(m, n)
    edges = [(u, v) for u in range(core) for v in range(u + 1, core)]
    degree = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for new in range(core, n):
        targets: set[int] = set()
        k = min(m, new)
        while len(targets) < k:
            pool = np.array(
                [u for u in range(new) if u not in targets], dtype=np.int64
            )
            weights = degree[pool].astype(np.float64)
            if weights.sum() == 0:
                weights = np.ones_like(weights)
            weights /= weights.sum()
            targets.add(int(rng.choice(pool, p=weights)))
        for u in sorted(targets):
            edges.append((u, new))
            degree[u] += 1
            degree[new] += 1
    return UGraph(n, edges)


def choice_p(weights: Sequence[int]) -> np.ndarray:
    """The p that gen_ba_choice hands Generator.choice for these weights:
    w / w.sum(), or uniform when every weight is zero."""
    p = np.asarray(weights, dtype=np.float64)
    if p.sum() == 0:
        p = np.ones_like(p)
    return p / p.sum()


def choice_cdf(weights: Sequence[int]) -> np.ndarray:
    """The cdf Generator.choice searches for a uniform with side="right", in
    numpy's own steps: cumsum(p), then cdf /= cdf[-1]."""
    cdf = choice_p(weights).cumsum()
    cdf /= cdf[-1]
    return cdf


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


def diameter_per_source(g: UGraph) -> int | None:
    """Hop diameter by one BFS per source node: the oracle for the frontier
    form of diameter_bfs."""
    if g.node_count == 0:
        return None
    dists = [g.bfs_distances(s) for s in range(g.node_count)]
    if any(-1 in d for d in dists):
        return None
    return max(max(d) for d in dists)


def analyze_serial(g: UGraph) -> SpectralReport:
    """spectral.analyze with its stages in one thread, in the order the
    concurrent form keeps for its errors: diameter, the D - A spectrum,
    then the normalized spectrum. The oracle for analyze, byte for byte."""
    n = g.node_count
    if n == 0:
        raise ValueError("cannot analyze an empty graph")
    lap = laplacian(g, "combinatorial")
    deg = lap.diagonal().copy()
    diameter = diameter_bfs(g)
    connected = diameter is not None
    if n == 1:
        r_tot = 0.0
    elif connected:
        comb = eig_sym(lap)
        r_tot = float(n * np.sum(1.0 / comb[1:]))
    else:
        r_tot = math.inf
    evals = eig_sym(_normalized(lap, deg))
    evals = np.where(np.abs(evals) < ZERO_EIGENVALUE_CUTOFF, 0.0, evals)
    gap = float(evals[1]) if n >= 2 and connected else 0.0
    return SpectralReport(
        eigenvalues=tuple(float(v) for v in evals),
        spectral_gap=gap,
        cheeger_lower=gap / 2.0,
        cheeger_upper=math.sqrt(2.0 * gap),
        diameter=diameter,
        r_tot=r_tot,
        isolated_count=int(np.count_nonzero(deg == 0)),
    )


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


def layer_operator(g: UGraph, kind: str) -> np.ndarray:
    """The dense (m, m) operator of a GIN or GCN layer over g: the matrix the
    run's scattered operators must match byte for byte."""
    if kind == "gin":
        # A flagged self-loop contributes the node's own features once.
        a = g.adjacency_matrix()
        for u in g.self_loops:
            a[u, u] = 1.0
        return a
    a_hat = g.adjacency_matrix() + np.eye(g.node_count)
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


def layer_forward(x: np.ndarray, g: UGraph, p) -> np.ndarray:
    """One GIN or GCN layer (as p.kind says) over the graph g."""
    out, _ = _layer_forward(x, layer_operator(g, p.kind), p)
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


def readout(plan: PropagationPlan, params: ModelParams, h: np.ndarray) -> float:
    """Sum the original-node rows and apply the linear head. Virtual rows
    never enter the prediction."""
    row_sum = h[: plan.original_count].sum(axis=0)
    return float(row_sum @ params.readout_w + params.readout_b)


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
        op = layer_operator(g, layer.kind)
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


def batch_gradients(plans, params: ModelParams, batch):
    """Mean loss and gradients of the per-sample path, summed one sample at
    a time in batch order."""
    total = 0.0
    expected = zero_grads(params)
    for plan, (x, label) in zip(plans, batch):
        value, grads, _ = sample_gradients(plan, params, x, label)
        total += value
        for name, g in grads.items():
            expected[name] += g
    scale = 1.0 / len(batch)
    for name in expected:
        expected[name] *= scale
    return total * scale, expected


def assert_matches_oracle(plans, params: ModelParams, batch) -> None:
    """nn.loss_and_grads on a cold and then a warm run gives the loss and
    every gradient byte of batch_gradients."""
    want_loss, want = batch_gradients(plans, params, batch)
    run = nn._Run()
    for _ in range(2):
        loss, g = nn.loss_and_grads(plans, params, batch, run)
        assert loss == want_loss
        assert g.shape == params.vec.shape
        views = dict(nn._views(g, params.layout()))
        assert views.keys() == want.keys()
        for name, view in views.items():
            assert view.tobytes() == want[name].tobytes(), name


def model_forward(
    plan: PropagationPlan, params: ModelParams, x: np.ndarray
) -> tuple[np.ndarray, float]:
    """The engine's forward pass of one sample: its final embeddings and
    its prediction logit (or regression value)."""
    (_,) = nn._stacks([plan], params, [x])
    h, _, (z,), _ = nn._stack_forward([plan], params, [x], nn._Run())
    return h[0].copy(), z


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


def copy_params(params: ModelParams) -> ModelParams:
    """params' layout over a copy of its vector."""
    return params._over(params.vec.copy())


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> ModelParams:
    """One Adam update. Returns fresh parameters; state advances in place."""
    state.step += 1
    t = state.step
    new = copy_params(params)
    for name, arr in new.arrays():
        g = grads[name]
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / (1.0 - ADAM_BETA1**t)
        v_hat = state.v[name] / (1.0 - ADAM_BETA2**t)
        arr -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new
