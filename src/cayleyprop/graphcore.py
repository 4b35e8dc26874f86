"""Undirected graph container, edge-list I/O and random generators.

Graphs are simple: ordinary edges join distinct nodes and duplicates are
rejected. Self-edges exist only through the explicit ``self_loops`` set, so
algorithms can include or exclude them deliberately.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable
from numbers import Real

import numpy as np

# Tags mixed into np.random.default_rng seeds so independent streams derived
# from one user seed never collide.
_SEED_TAG_ER = 0x45520001
_SEED_TAG_BA = 0x42410002

# Largest graph that adjacency_matrix, and so every dense Laplacian, and the
# training engine's dense layer operators will allocate: 8192^2 float64
# entries are 512 MiB.
DENSE_NODE_CAP = 8192


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _as_int(x, what: str, minimum: int | None = None) -> int:
    """The library's one integer check: x as a Python int, at least minimum
    when one is given. A numpy integer converts; a bool, a float, a str, None
    or any other type is a ValueError naming what."""
    if type(x) is not int and not isinstance(x, np.integer):
        raise ValueError(f"{what} {x!r} is not an integer")
    x = int(x)
    if minimum is not None and x < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {x}")
    return x


def _check_dense(n: int, what: str) -> None:
    """Refuse what, a dense structure on n nodes, past DENSE_NODE_CAP; call it
    before anything is allocated."""
    if n > DENSE_NODE_CAP:
        raise ValueError(f"{what} on {n} nodes exceeds the cap of {DENSE_NODE_CAP} nodes")


class UGraph:
    """Immutable undirected graph on nodes 0..node_count-1."""

    # __weakref__ lets propagation share one complete graph per node count
    # among the plans that use it, and no longer.
    __slots__ = ("node_count", "edges", "self_loops", "_adj", "__weakref__")

    def __init__(
        self,
        node_count: int,
        edges: Iterable[tuple[int, int]] = (),
        self_loops: Iterable[int] = (),
    ):
        node_count = _as_int(node_count, "node_count", 0)
        canon = []
        for e in edges:
            u, v = e
            if type(u) is not int or type(v) is not int:
                u, v = _as_int(u, "node id"), _as_int(v, "node id")
                e = (u, v)
            # A canonical pair is kept, not copied: plans share their input
            # graph's edge tuples.
            if u < v:
                key = e if type(e) is tuple else (u, v)
            elif u > v:
                key = (v, u)
            else:
                raise ValueError(
                    f"ordinary edge ({u}, {v}) is a self-loop; "
                    "use the self_loops set"
                )
            if key[0] < 0 or key[1] >= node_count:
                raise ValueError(f"edge ({u}, {v}) out of range for {node_count} nodes")
            canon.append(key)
        canon.sort()
        # Sorted, a repeated pair sits next to its twin.
        for prev, key in zip(canon, canon[1:]):
            if prev == key:
                raise ValueError(f"duplicate edge {key}")
        loops = frozenset(
            u if type(u) is int else _as_int(u, "self-loop node") for u in self_loops
        )
        for u in loops:
            if not 0 <= u < node_count:
                raise ValueError(f"self-loop node {u} out of range")
        self.node_count = node_count
        self.edges = tuple(canon)
        self.self_loops = loops
        self._adj: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def _derived(
        cls, node_count: int, edges: tuple, self_loops: frozenset
    ) -> "UGraph":
        """A graph from parts already in the form __init__ leaves them, taken
        as they are and not checked: edges a sorted tuple of distinct (u, v),
        u < v < node_count, and self_loops a frozenset of nodes. Only graphs
        derived from a validated one or read by parse_edge_list build here."""
        g = object.__new__(cls)
        g.node_count = node_count
        g.edges = edges
        g.self_loops = self_loops
        g._adj = None
        return g

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

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adj]

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency of the ordinary edges; self-loops left out."""
        _check_dense(self.node_count, "a dense matrix")
        a = np.zeros((self.node_count, self.node_count))
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        return a

    # perfbench/spans.py traces this name; the tracer fails without it.
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


def induced_prefix_subgraph(g: UGraph, v: int) -> UGraph:
    """Induced subgraph on nodes 0..v-1 (flagged self-loops kept)."""
    v = _as_int(v, "prefix size")
    if not 1 <= v <= g.node_count:
        raise ValueError(f"prefix size {v} out of range 1..{g.node_count}")
    if v == g.node_count:
        return g
    return UGraph._derived(
        v,
        tuple(e for e in g.edges if e[1] < v),
        frozenset(u for u in g.self_loops if u < v),
    )


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------
#   optional first line: a single integer N (node count)
#   one line per edge: "u v" with 0-based ids; "u u" encodes a flagged
#   self-loop and is accepted only with allow_self_loops=True.


def parse_edge_list(text: str, allow_self_loops: bool = False) -> UGraph:
    """One pass: each line is checked as it is read, and the first bad one is refused."""
    declared_n: int | None = None
    edges: dict[tuple[int, int], None] = {}  # ordered set: sorted input sorts in one pass
    loops: set[int] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) == 1:
            if declared_n is not None or edges or loops:
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
        if declared_n is not None and max(u, v) >= declared_n:
            raise EdgeListParseError(line_no, f"id {max(u, v)} >= node count {declared_n}")
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
        if key in edges:
            raise EdgeListParseError(line_no, f"duplicate edge ({u}, {v})")
        edges[key] = None
    if declared_n is None:
        declared_n = max({v for _, v in edges} | loops, default=-1) + 1
    return UGraph._derived(declared_n, tuple(sorted(edges)), frozenset(loops))


def emit_edge_list(g: UGraph) -> str:
    """Canonical text form; parse_edge_list round-trips it exactly."""
    lines = [str(g.node_count)]
    loops = [(u, u) for u in sorted(g.self_loops)]
    lines.extend(f"{u} {v}" for u, v in heapq.merge(g.edges, loops))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random graph generators
# ---------------------------------------------------------------------------


def gen_graph(n: int, seed: int = 0, *, p: float) -> UGraph:
    """Seed-deterministic Erdos-Renyi G(n, p): each of the n(n - 1)/2 pairs
    is an edge with probability p in [0, 1]. n (>= 1) and seed (>= 0) are
    integers by the rule of _as_int.

    Randomness comes from numpy's PCG64 (np.random.default_rng) seeded with
    the user seed plus a tag of its own, so the ER and BA (gen_ba_graphs)
    streams are independent for the same seed.
    """
    n = _as_int(n, "node count", 1)
    seed = _as_int(seed, "seed", 0)
    if isinstance(p, bool) or not isinstance(p, Real) or not 0.0 <= p <= 1.0:
        raise ValueError(f"ER requires p in [0, 1], got {p!r}")
    rng = np.random.default_rng([seed, _SEED_TAG_ER])
    edges: list[tuple[int, int]] = []
    # Row-wise vectorised Bernoulli draws keep n = 10^4 fast.
    for u in range(n - 1):
        hits = np.nonzero(rng.random(n - 1 - u) < p)[0]
        edges.extend((u, u + 1 + int(j)) for j in hits)
    return UGraph(n, edges)


def gen_ba_graphs(n: int, m: int, seeds: Iterable[int]) -> list[UGraph]:
    """One BA(n, m) graph per seed, drawn in lockstep: each new node's targets
    are picked for every graph at once. Graph k equals the one-seed draw of
    seeds[k]; it does not depend on the other seeds.

    Each graph takes its uniforms from its own default_rng([seed, tag]) in
    one random((n - core) * m) call, the doubles of successive random(m)
    calls, and picks every target as Generator.choice(pool, p=degree /
    total) would (see _pick_columns): the graphs are byte-identical to the
    choice-based generator kept as the test oracle.
    """
    n = _as_int(n, "node count", 1)
    m = _as_int(m, "attachment count m", 1)
    seeds = [_as_int(s, "seed", 0) for s in seeds]
    core = min(m, n)
    steps = n - core
    count = len(seeds)
    uniforms = np.empty((count, steps, m))
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng([seed, _SEED_TAG_BA])
        uniforms[k] = rng.random(steps * m).reshape(steps, m)
    degree = np.zeros((count, n), dtype=np.int64)
    degree[:, :core] = core - 1
    targets = np.empty((count, steps, m), dtype=np.int64)
    rows = np.arange(count)
    for new in range(core, n):
        # new >= core = m, and a drawn target leaves the pool, so m draws
        # give m distinct targets.
        weights = degree[:, :new].copy()
        in_pool = np.ones((count, new), dtype=bool)
        for j in range(m):
            picked = _pick_columns(weights, in_pool, uniforms[:, new - core, j])
            targets[:, new - core, j] = picked
            weights[rows, picked] = 0
            in_pool[rows, picked] = False
        degree[rows[:, None], targets[:, new - core]] += 1
        degree[:, new] = m
    # One tuple per distinct pair, keyed u * n + new, shared by every graph
    # of the call, as the core clique's are: UGraph keeps a canonical tuple.
    keys = targets * n + np.arange(core, n)[:, None]
    distinct, index = np.unique(keys, return_inverse=True)
    pairs = [divmod(key, n) for key in distinct.tolist()]
    core_edges = [(u, v) for u in range(core) for v in range(u + 1, core)]
    return [
        UGraph(n, core_edges + [pairs[i] for i in row])
        for row in index.reshape(count, steps * m).tolist()
    ]


def _pick_columns(
    weights: np.ndarray, in_pool: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Per row, the column Generator.choice(pool, p=w / w.sum()) picks with
    that row's uniform, where pool is the row's in_pool columns and w their
    integer weights; weights outside the pool must be 0.

    These are choice's steps: cdf = cumsum(p), cdf /= cdf[-1], then the
    right-side search, here a count of cdf <= u. A column outside the pool
    adds an exact 0.0, so every partial sum equals the pool's own, and the
    count lands on a pool column. Integer weights keep each total exact, so
    w / total rounds as choice's p does. An all-zero row picks uniformly.
    """
    total = weights.sum(axis=1)
    empty = total == 0
    if empty.any():
        weights = np.where(empty[:, None], in_pool, weights)
        total = np.where(empty, in_pool.sum(axis=1), total)
    cdf = np.cumsum(weights / total[:, None], axis=1)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= uniforms[:, None], axis=1)
