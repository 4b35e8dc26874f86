"""Undirected graph container, edge-list I/O, random generators, d-patterns.

Graphs are simple: ordinary edges join distinct nodes and duplicates are
rejected. Self-edges exist only through the explicit ``self_loops`` set, so
algorithms can include or exclude them deliberately.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

import numpy as np

# Tags mixed into np.random.default_rng seeds so independent streams derived
# from one user seed never collide.
_SEED_TAG_ER = 0x45520001
_SEED_TAG_BA = 0x42410002

GRAPH_KINDS = ("ER", "Star", "BA", "Empty")

# Largest graph that adjacency_matrix, and so every dense Laplacian and layer
# operator built from it, will allocate: 8192^2 float64 entries are 512 MiB.
DENSE_NODE_CAP = 8192


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UGraph:
    """Immutable undirected graph on nodes 0..node_count-1."""

    __slots__ = ("node_count", "edges", "self_loops", "_adj")

    def __init__(
        self,
        node_count: int,
        edges: Iterable[tuple[int, int]] = (),
        self_loops: Iterable[int] = (),
    ):
        if node_count < 0:
            raise ValueError(f"node_count must be >= 0, got {node_count}")
        canon = []
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(
                    f"ordinary edge ({u}, {v}) is a self-loop; "
                    "use the self_loops set"
                )
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {node_count} nodes")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            canon.append(key)
        canon.sort()
        loops = frozenset(int(u) for u in self_loops)
        for u in loops:
            if not 0 <= u < node_count:
                raise ValueError(f"self-loop node {u} out of range")
        self.node_count = node_count
        self.edges = tuple(canon)
        self.self_loops = loops
        self._adj: tuple[tuple[int, ...], ...] | None = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Per-node neighbor tuples (self-loops excluded), built lazily."""
        if self._adj is None:
            lists: list[list[int]] = [[] for _ in range(self.node_count)]
            for u, v in self.edges:
                lists[u].append(v)
                lists[v].append(u)
            self._adj = tuple(tuple(l) for l in lists)
        return self._adj

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self.adj[u]

    def degree(self, u: int) -> int:
        """Number of ordinary incident edges (self-loops not counted)."""
        return len(self.adj[u])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adj]

    def adjacency_matrix(self, include_self_loops: bool = False) -> np.ndarray:
        if self.node_count > DENSE_NODE_CAP:
            raise ValueError(
                f"a dense matrix on {self.node_count} nodes exceeds the cap of "
                f"{DENSE_NODE_CAP} nodes"
            )
        a = np.zeros((self.node_count, self.node_count))
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        if include_self_loops:
            for u in self.self_loops:
                a[u, u] = 1.0
        return a

    def bfs_distances(self, source: int) -> list[int]:
        """Hop distances from source; -1 marks unreachable nodes."""
        dist = [-1] * self.node_count
        dist[source] = 0
        queue = deque([source])
        adj = self.adj
        while queue:
            u = queue.popleft()
            du = dist[u]
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = du + 1
                    queue.append(v)
        return dist

    def is_connected(self) -> bool:
        if self.node_count == 0:
            return True
        return -1 not in self.bfs_distances(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UGraph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.edges == other.edges
            and self.self_loops == other.self_loops
        )

    def __hash__(self) -> int:
        return hash((self.node_count, self.edges, self.self_loops))

    def __repr__(self) -> str:
        return (
            f"UGraph(node_count={self.node_count}, edges={len(self.edges)}, "
            f"self_loops={len(self.self_loops)})"
        )


def complete_graph(n: int) -> UGraph:
    return UGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(n: int) -> UGraph:
    """Node 0 joined to every other node; no other edges."""
    return UGraph(n, [(0, v) for v in range(1, n)])


def relabel_nodes(g: UGraph, perm: Sequence[int]) -> UGraph:
    """Apply a permutation: node u of g becomes node perm[u]."""
    if sorted(perm) != list(range(g.node_count)):
        raise ValueError("perm is not a permutation of the node ids")
    return UGraph(
        g.node_count,
        [(perm[u], perm[v]) for u, v in g.edges],
        [perm[u] for u in g.self_loops],
    )


def induced_prefix_subgraph(g: UGraph, v: int) -> UGraph:
    """Induced subgraph on nodes 0..v-1 (flagged self-loops kept)."""
    if not 1 <= v <= g.node_count:
        raise ValueError(f"prefix size {v} out of range 1..{g.node_count}")
    if v == g.node_count:
        return g
    return UGraph(
        v,
        [(a, b) for a, b in g.edges if a < v and b < v],
        [u for u in g.self_loops if u < v],
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


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------
#   optional first line: a single integer N (node count)
#   one line per edge: "u v" with 0-based ids; "u u" encodes a flagged
#   self-loop and is accepted only with allow_self_loops=True.


def parse_edge_list(text: str, allow_self_loops: bool = False) -> UGraph:
    declared_n: int | None = None
    pairs: list[tuple[int, int, int]] = []  # (u, v, line_no)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) == 1:
            if declared_n is not None or pairs:
                raise EdgeListParseError(
                    line_no, "node-count line allowed only as the first line"
                )
            try:
                declared_n = int(tokens[0])
            except ValueError:
                raise EdgeListParseError(line_no, f"not an integer: {tokens[0]!r}")
            if declared_n < 0:
                raise EdgeListParseError(line_no, "negative node count")
            continue
        if len(tokens) != 2:
            raise EdgeListParseError(line_no, f"expected 'u v', got {raw!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer ids in {raw!r}")
        if u < 0 or v < 0:
            raise EdgeListParseError(line_no, "negative node id")
        pairs.append((u, v, line_no))

    if declared_n is None:
        declared_n = max((max(u, v) for u, v, _ in pairs), default=-1) + 1

    edges: list[tuple[int, int]] = []
    loops: set[int] = set()
    seen: set[tuple[int, int]] = set()
    for u, v, line_no in pairs:
        if max(u, v) >= declared_n:
            raise EdgeListParseError(
                line_no, f"id {max(u, v)} >= node count {declared_n}"
            )
        if u == v:
            if not allow_self_loops:
                raise EdgeListParseError(
                    line_no, f"self-loop {u} not allowed in plain edges"
                )
            if u in loops:
                raise EdgeListParseError(line_no, f"duplicate self-loop {u}")
            loops.add(u)
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise EdgeListParseError(line_no, f"duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append(key)
    return UGraph(declared_n, edges, loops)


def emit_edge_list(g: UGraph) -> str:
    """Canonical text form; parse_edge_list round-trips it exactly."""
    lines = [str(g.node_count)]
    entries = list(g.edges) + [(u, u) for u in sorted(g.self_loops)]
    entries.sort()
    lines.extend(f"{u} {v}" for u, v in entries)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random graph generators
# ---------------------------------------------------------------------------


def gen_graph(
    kind: str,
    n: int,
    seed: int = 0,
    *,
    p: float | None = None,
    m: int | None = None,
) -> UGraph:
    """Seed-deterministic generator for the supported graph kinds.

    ER needs p in [0, 1]; BA needs attachment count m >= 1. Randomness comes
    from numpy's PCG64 (np.random.default_rng) seeded with the user seed plus
    a per-kind tag, so ER and BA streams are independent for the same seed.
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    if kind == "Empty":
        return UGraph(n)
    if kind == "Star":
        return star_graph(n)
    if kind == "ER":
        if p is None or not 0.0 <= p <= 1.0:
            raise ValueError(f"ER requires p in [0, 1], got {p}")
        return _gen_er(n, p, seed)
    if kind == "BA":
        if m is None or m < 1:
            raise ValueError(f"BA requires attachment count m >= 1, got {m}")
        return _gen_ba(n, m, seed)
    raise ValueError(f"unknown graph kind {kind!r}; expected one of {GRAPH_KINDS}")


def _gen_er(n: int, p: float, seed: int) -> UGraph:
    rng = np.random.default_rng([seed, _SEED_TAG_ER])
    edges: list[tuple[int, int]] = []
    # Row-wise vectorised Bernoulli draws keep n = 10^4 fast.
    for u in range(n - 1):
        hits = np.nonzero(rng.random(n - 1 - u) < p)[0]
        edges.extend((u, u + 1 + int(j)) for j in hits)
    return UGraph(n, edges)


def _gen_ba(n: int, m: int, seed: int) -> UGraph:
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


# ---------------------------------------------------------------------------
# d-patterns (iterated neighborhood label refinement)
# ---------------------------------------------------------------------------


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
