"""Breadth-first construction of Cay(SL(2, Z_n); S_n) and its cache.

Vertex 0 is always the identity; the remaining vertices appear in FIFO BFS
discovery order with neighbors expanded by right-multiplication in the fixed
generator order. The labelled edge list is therefore fully deterministic.
"""

from __future__ import annotations

import os
import tempfile
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .graphcore import UGraph, emit_edge_list, parse_edge_list
from .modgroup import Mat2Z, generators, mat_mul, sl2_order

DEFAULT_VERTEX_BUDGET = 2_000_000
CACHE_ENV_VAR = "CAYLEYPROP_CACHE_DIR"


@dataclass(frozen=True)
class CayleyGraph:
    """Cay(SL(2, Z_n); S_n) with BFS-ordered vertices."""

    modulus: int
    graph: UGraph
    degree: int


def build_cayley(n: int, budget: int = DEFAULT_VERTEX_BUDGET) -> CayleyGraph:
    """BFS the whole group from the identity and collect generator edges."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    order = sl2_order(n)
    if order > budget:
        raise ValueError(
            f"Cay(SL(2, Z_{n})) requires {order} vertices, over the budget "
            f"of {budget}"
        )
    gens = generators(n)
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
    if len(index) != order:
        raise RuntimeError(
            f"BFS reached {len(index)} elements, expected {order}; "
            "generating set does not generate the group"
        )
    return CayleyGraph(
        modulus=n,
        graph=UGraph(order, sorted(edges)),
        degree=len(gens),
    )


def smallest_modulus(v: int) -> int:
    """Least n >= 2 whose group order reaches v nodes."""
    if v < 1:
        raise ValueError(f"target node count must be >= 1, got {v}")
    n = 2
    while sl2_order(n) < v:
        n += 1
    return n


def write_atomic(path: Path, text: str) -> None:
    """Write text through a temp file in the same directory and a rename,
    so a reader never sees a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "cayleyprop"


class CayleyCache:
    """Two-level (memory, disk) cache of Cayley graphs keyed by modulus.

    Disk entries are edge-list files named by modulus and vertex count.
    Reads are lock-protected so completed graphs can be shared across
    threads.
    """

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory else default_cache_dir()
        self._memory: dict[int, UGraph] = {}
        self._lock = threading.Lock()

    def path_for(self, n: int) -> Path:
        return self.directory / f"cayley-n{n}-v{sl2_order(n)}.edgelist"

    def graph(self, n: int) -> UGraph:
        """Cayley graph of modulus n as a plain UGraph, cached."""
        with self._lock:
            hit = self._memory.get(n)
        if hit is not None:
            return hit
        path = self.path_for(n)
        if path.is_file():
            g = parse_edge_list(path.read_text())
            degree = len(generators(n))
            if g.node_count != sl2_order(n) or any(d != degree for d in g.degrees()):
                raise ValueError(
                    f"corrupt cache file {path}: {g.node_count} nodes and "
                    f"{g.edge_count} edges, expected a {degree}-regular graph "
                    f"on {sl2_order(n)} nodes"
                )
        else:
            g = build_cayley(n).graph
            self._write_atomic(path, emit_edge_list(g))
        with self._lock:
            self._memory[n] = g
        return g

    def _write_atomic(self, path: Path, text: str) -> None:
        # perfbench/spans.py traces this name to time cache writes apart
        # from the other atomic writes.
        write_atomic(path, text)
