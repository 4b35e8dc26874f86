"""Breadth-first construction of Cay(SL(2, Z_n); S_n) and its cache.

Vertex 0 is always the identity; the remaining vertices appear in FIFO BFS
discovery order with neighbors expanded by right-multiplication in the fixed
generator order. The labelled edge list is therefore fully deterministic.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from pathlib import Path

from .graphcore import (
    EdgeListParseError,
    UGraph,
    _as_int,
    emit_edge_list,
    parse_edge_list,
)
from .modgroup import generators, right_action, sl2_order

DEFAULT_VERTEX_BUDGET = 2_000_000


@dataclass(frozen=True)
class CayleyGraph:
    """Cay(SL(2, Z_n); S_n) with BFS-ordered vertices."""

    modulus: int
    graph: UGraph
    degree: int


def group_order(n: int) -> int:
    """|SL(2, Z_n)| for a modulus n >= 2 whose Cayley graph fits the vertex
    budget, read at call time; a ValueError past the budget.

    The order exceeds (6 / pi^2) n^3 > 0.6 n^3, so a modulus with 3 n^3 >
    5 * budget is refused before sl2_order trial-divides it: up to sqrt(n),
    seconds for a prime near 10^16.
    """
    n = _as_int(n, "modulus", 2)
    budget = DEFAULT_VERTEX_BUDGET
    if 3 * n**3 > 5 * budget:
        raise ValueError(
            f"Cay(SL(2, Z_{n})) requires more than {3 * n**3 // 5} vertices, "
            f"over the budget of {budget}"
        )
    order = sl2_order(n)
    if order > budget:
        raise ValueError(
            f"Cay(SL(2, Z_{n})) requires {order} vertices, over the budget of {budget}"
        )
    return order


def build_cayley(n: int) -> CayleyGraph:
    """BFS the whole group from the identity and collect generator edges."""
    n = _as_int(n, "modulus", 2)
    order = group_order(n)
    identity = (1, 0, 0, 1)
    labels = [identity]
    index = {identity: 0}
    edges: list[tuple[int, int]] = []
    # FIFO discovery order is label order, so the BFS queue is the label
    # list itself, read from the front while it grows at the back.
    for ix, x in enumerate(labels):
        for y in right_action(x, n):
            iy = index.get(y)
            if iy is None:
                iy = len(labels)
                index[y] = iy
                labels.append(y)
            # S_n is symmetric and every vertex is expanded once, so each
            # edge is met from both ends; keep it from its lower end. A
            # product that fixes x gives (ix, ix), which UGraph refuses.
            if ix <= iy:
                edges.append((ix, iy))
    if len(labels) != order:
        raise RuntimeError(
            f"BFS reached {len(labels)} elements, expected {order}; "
            "generating set does not generate the group"
        )
    return CayleyGraph(modulus=n, graph=UGraph(order, edges), degree=len(generators(n)))


def smallest_modulus(v: int) -> int:
    """Least n >= 2 whose group order reaches v nodes."""
    v = _as_int(v, "target node count", 1)
    # The scan below costs O(sqrt(v)) trial divisions, and no graph over the
    # budget is ever built.
    if v > DEFAULT_VERTEX_BUDGET:
        raise ValueError(
            f"target node count {v} exceeds the vertex budget of "
            f"{DEFAULT_VERTEX_BUDGET}"
        )
    n = 2
    while sl2_order(n) < v:
        n += 1
    return n


def write_atomic(path: Path, text: str) -> None:
    """Write text through a temp file in the same directory and a rename,
    so a reader never sees a partial file. The temp file is created with
    mode 0o666 under the umask, the mode open() gives (mkstemp's is 0600)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"tmp{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class CayleyCache:
    """Cayley graphs by modulus, each built once per cache: in memory only,
    or also as edge-list files in a given directory for later caches to load.
    A loaded file is checked for node count and regularity only, so a regular
    impostor, such as the group graph after one double-edge swap, loads."""

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory else None
        self._memory: dict[int, UGraph] = {}

    def path_for(self, n: int) -> Path:
        return self.directory / f"cayley-n{n}-v{group_order(n)}.edgelist"

    def graph(self, n: int) -> UGraph:
        """Cayley graph of modulus n as a plain UGraph, cached."""
        hit = self._memory.get(n)
        if hit is not None:
            return hit
        path = self.path_for(n) if self.directory is not None else None
        if path is not None and path.is_file():
            try:
                g = parse_edge_list(path.read_text())
            except (EdgeListParseError, UnicodeDecodeError) as exc:
                raise ValueError(f"corrupt cache file {path}: {exc}") from exc
            degree = len(generators(n))
            if g.node_count != sl2_order(n) or any(d != degree for d in g.degrees()):
                raise ValueError(
                    f"corrupt cache file {path}: {g.node_count} nodes and "
                    f"{g.edge_count} edges, expected a {degree}-regular graph "
                    f"on {sl2_order(n)} nodes"
                )
        else:
            g = build_cayley(n).graph
            if path is not None:
                self._write_atomic(path, emit_edge_list(g))
        self._memory[n] = g
        return g

    def _write_atomic(self, path: Path, text: str) -> None:
        # perfbench/spans.py traces this name to time cache writes apart
        # from the other atomic writes.
        write_atomic(path, text)
