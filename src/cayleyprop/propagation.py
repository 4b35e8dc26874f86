"""Computational templates for message passing: virtual-node padding,
extended input adjacency, and per-layer graph schedules for each scheme.

Schemes
-------
Base       every layer runs on the input graph.
MasterNode one extra node joined to all input nodes, used in every layer.
FALast     input graph everywhere, final layer fully adjacent.
EGP        odd layers input graph, even layers a Cayley graph truncated
           to the input size.
CGP        odd layers the extended input graph (virtual nodes with
           self-loops), even layers the complete Cayley graph.
CGPLast    complete Cayley graph on the final layer only.
CGPEvery   complete Cayley graph on every layer.

Layers are counted 1-based, so "odd" starts at the first layer. Virtual
nodes occupy the index range [original_count, extended_count) and are
excluded from readout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .cayley import CayleyCache, smallest_modulus
from .graphcore import (
    UGraph,
    complete_graph,
    emit_edge_list,
    induced_prefix_subgraph,
)

SCHEMES = ("Base", "MasterNode", "FALast", "EGP", "CGP", "CGPLast", "CGPEvery")
CAYLEY_SCHEMES = frozenset({"EGP", "CGP", "CGPLast", "CGPEvery"})

LAYER_INPUT = "input"
LAYER_INPUT_EXTENDED = "input_extended"
LAYER_CAYLEY = "cayley"
LAYER_FULLY_ADJACENT = "fully_adjacent"
LAYER_MASTER = "master"


@dataclass(frozen=True)
class PropagationPlan:
    """Per-layer schedule over the templates plus virtual-node bookkeeping.

    input_template is the graph used on input-side layers (the raw input,
    its extension, or the master-node augmentation); cayley_template is the
    complete or truncated Cayley graph for schemes that use one. The input
    template's node count is the extended count. layer_kinds names the
    template of each layer, and layer_graphs follows from it.
    """

    scheme: str
    original_count: int
    modulus: int | None
    layer_kinds: tuple[str, ...]
    input_template: UGraph
    cayley_template: UGraph | None = None

    def __post_init__(self) -> None:
        g = self.cayley_template
        if g is not None and g.node_count != self.extended_count:
            raise ValueError(
                f"template graph has {g.node_count} nodes, plan expects "
                f"{self.extended_count}"
            )

    @property
    def extended_count(self) -> int:
        return self.input_template.node_count

    @cached_property
    def layer_graphs(self) -> tuple[UGraph, ...]:
        """The graph each layer propagates over, one per layer kind."""
        templates = {
            LAYER_INPUT: self.input_template,
            LAYER_INPUT_EXTENDED: self.input_template,
            LAYER_MASTER: self.input_template,
            LAYER_CAYLEY: self.cayley_template,
        }
        if LAYER_FULLY_ADJACENT in self.layer_kinds:
            templates[LAYER_FULLY_ADJACENT] = complete_graph(self.extended_count)
        return tuple(templates[kind] for kind in self.layer_kinds)

    @property
    def num_layers(self) -> int:
        return len(self.layer_kinds)

    @property
    def virtual_count(self) -> int:
        return self.extended_count - self.original_count

    @property
    def virtual_range(self) -> tuple[int, int]:
        return (self.original_count, self.extended_count)


# The training engine pads its stacks in place; this stays for the per-sample
# test oracle and because perfbench/spans.py wraps it by name.
def extend_features(x: np.ndarray, m: int) -> np.ndarray:
    """Pad a feature matrix to m rows with zero rows for the virtual nodes;
    the first rows are copied verbatim."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    rows, dim = x.shape
    if m < rows:
        raise ValueError(f"cannot extend {rows} rows down to {m}")
    out = np.zeros((m, dim))
    out[:rows] = x
    return out


def extend_input_adjacency(g: UGraph, m: int) -> UGraph:
    """Grow g to m nodes: virtual nodes get one self-loop each and no other
    edges, so input-graph layers leave them inert."""
    if m < g.node_count:
        raise ValueError(f"cannot extend {g.node_count} nodes down to {m}")
    if m == g.node_count:
        return g
    loops = set(g.self_loops)
    loops.update(range(g.node_count, m))
    return UGraph(m, g.edges, loops)


def master_node_graph(g: UGraph) -> UGraph:
    """Append one node adjacent to every existing node."""
    hub = g.node_count
    edges = list(g.edges) + [(u, hub) for u in range(g.node_count)]
    return UGraph(hub + 1, edges, g.self_loops)


def build_plan(
    g: UGraph,
    scheme: str,
    num_layers: int,
    *,
    cache: CayleyCache | None = None,
) -> PropagationPlan:
    """Assemble the template graphs and layer schedule for one input graph."""
    if num_layers < 1:
        raise ValueError(f"num_layers must be >= 1, got {num_layers}")
    if scheme not in SCHEMES:
        raise ValueError(f"unsupported scheme {scheme!r}; expected one of {SCHEMES}")
    v = g.node_count
    if v < 1:
        raise ValueError("input graph has no nodes")

    modulus: int | None = None
    cayley: UGraph | None = None
    if scheme == "Base":
        input_template = g
        kinds = (LAYER_INPUT,) * num_layers
    elif scheme == "MasterNode":
        input_template = master_node_graph(g)
        kinds = (LAYER_MASTER,) * num_layers
    elif scheme == "FALast":
        input_template = g
        kinds = (LAYER_INPUT,) * (num_layers - 1) + (LAYER_FULLY_ADJACENT,)
    else:
        cache = cache or CayleyCache()
        modulus = smallest_modulus(v)
        cayley_full = cache.graph(modulus)
        if scheme == "EGP":
            input_kind = LAYER_INPUT
            input_template = g
            cayley = induced_prefix_subgraph(cayley_full, v)
        else:
            input_kind = LAYER_INPUT_EXTENDED
            input_template = extend_input_adjacency(g, cayley_full.node_count)
            cayley = cayley_full
        if scheme == "CGPEvery":
            kinds = (LAYER_CAYLEY,) * num_layers
        elif scheme == "CGPLast":
            kinds = (input_kind,) * (num_layers - 1) + (LAYER_CAYLEY,)
        else:  # EGP and CGP alternate, starting on the input side
            kinds = tuple(
                input_kind if i % 2 == 0 else LAYER_CAYLEY for i in range(num_layers)
            )

    return PropagationPlan(
        scheme=scheme,
        original_count=v,
        modulus=modulus,
        layer_kinds=kinds,
        input_template=input_template,
        cayley_template=cayley,
    )


def plan_summary(plan: PropagationPlan) -> dict:
    return {
        "scheme": plan.scheme,
        "modulus": plan.modulus,
        "original_count": plan.original_count,
        "extended_count": plan.extended_count,
        "virtual_node_range": list(plan.virtual_range),
        "virtual_init": "zeros",  # nn zero-fills the virtual rows of every stack
        "layer_kinds": list(plan.layer_kinds),
    }


def export_plan(plan: PropagationPlan, out_dir: str | Path, name: str) -> dict:
    """Write the template files for one graph and return its manifest.

    Produces <name>.input_extended.edgelist, <name>.cayley.edgelist and
    <name>.json so external frameworks can consume the rewiring without
    this library.
    """
    if plan.scheme not in CAYLEY_SCHEMES:
        raise ValueError(
            f"template export is defined for Cayley schemes "
            f"{sorted(CAYLEY_SCHEMES)}, not {plan.scheme!r}"
        )
    assert plan.cayley_template is not None
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    input_path = out_dir / f"{name}.input_extended.edgelist"
    input_path.write_text(emit_edge_list(plan.input_template))
    cayley_path = out_dir / f"{name}.cayley.edgelist"
    cayley_path.write_text(emit_edge_list(plan.cayley_template))
    manifest = plan_summary(plan)
    manifest["files"] = {
        "input_extended": input_path.name,
        "cayley": cayley_path.name,
    }
    (out_dir / f"{name}.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest
