"""Reference implementations the tests check the library against.

Brute-force and per-pair oracles for the diagnostics (group order, Cheeger
constant, effective resistance), graph helpers that build test inputs
(relabelling, disjoint unions, d-patterns, connectivity) and the standalone
layer forward. None of them is on a command's code path, so they live here
rather than in the package.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import product

import numpy as np

from cayleyprop.graphcore import UGraph
from cayleyprop.modgroup import Mat2Z
from cayleyprop.nn import _layer_forward, _layer_operator
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
# Layers
# ---------------------------------------------------------------------------


def layer_forward(x: np.ndarray, g: UGraph, p) -> np.ndarray:
    """One GIN or GCN layer (as p.kind says) over the graph g."""
    out, _ = _layer_forward(x, _layer_operator(g, p.kind), p)
    return out
