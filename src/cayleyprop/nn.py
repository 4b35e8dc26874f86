"""Minimal dense message-passing engine: GIN and GCN layers with exact
reverse-mode gradients, Adam, and the synthetic sum-classification task.

Everything runs in float64. Consecutive samples that share an original and
an extended node count run as one (s, m, F) stack of at most STACK_SAMPLES
graphs: each product is one np.matmul, which makes the same BLAS call per
slice as one sample alone would, and each array's per-sample gradients are
added into the batch total in sample order, so a batch gives the bytes of
the one-sample-at-a-time path (kept as the test oracle). Each engine call
is checked once, before its first stack runs. A layer's operator
is the dense (m, m) matrix of its template, and every template's is built
from that template alone and kept as the flat positions of its nonzeros,
plus their values for GCN: a stack's (s, m, m) operators are scattered from
them, so the memory a run holds per template grows with its edges, not with
m^2. A layer whose template is one graph for the whole stack passes its one
(1, m, m) operator, built once per run, which np.matmul broadcasts over the
stack. Every parameter array is a view of one flat vector; the batch
gradient is one vector in the same layout, averaged over the batch, and
Adam steps the whole vector with the per-array arithmetic. A training run
passes one _Run, which holds one memo of operators, keyed by template and
kind, and the buffers that each stack's arrays are written into, to every
engine call. No batch normalization: the graphs here are tiny and exact
gradient checks matter more than large-scale training tricks.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field, fields, replace
from itertools import chain

import numpy as np

from .cayley import CayleyCache, build_cayley
from .graphcore import (
    UGraph,
    _as_int,
    _check_dense,
    gen_ba_graphs,
    gen_graph,
    star_graph,
)
from .propagation import SCHEMES, PropagationPlan, build_plan

LAYER_KINDS = ("gin", "gcn")

# Samples per stack: consecutive samples that share an original and an
# extended node count run through the layers as one (s, m, F) stack of at
# most this many, and a run's buffers have room for this many samples. A
# template shared by the whole stack passes its one (1, m, m) operator, which
# np.matmul broadcasts, so a Cayley layer near the dense cap is not copied.
STACK_SAMPLES = 16

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

SUM_TASK_STRUCTURES = ("Empty", "Cayley24", "Star", "BA", "GNP")
SUM_TASK_FEATURE_DIM = 128
SUM_TASK_NODE_COUNT = 20
SUM_TASK_GNP_P = 0.5
SUM_TASK_BA_M = 2
SUM_TASK_TEST_SIZE = 200
_CAYLEY24_MODULUS = 3
_CAYLEY24_NODES = 24

_SEED_TAG_TEACHER = 0x7EAC4E12
_SEED_TAG_FEATURES = 0xFEA70001
_SEED_TAG_GRAPHS = 0x61A70002
_SEED_TAG_INIT = 0x1217A3
_SEED_TAG_SHUFFLE = 0x54AFF1E


class TrainingDiverged(RuntimeError):
    """Raised when a loss, gradient, parameter or logit stops being finite."""


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class _LayerParams:
    """The fields of a layer's parameter dataclass are its arrays."""

    def arrays(self):
        for f in fields(self):
            yield f.name, getattr(self, f.name)


@dataclass
class GINLayerParams(_LayerParams):
    """(1 + eps) * x_u + neighbor sum, followed by a 2-layer ReLU MLP."""

    eps: np.ndarray  # 0-d
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    kind = "gin"


@dataclass
class GCNLayerParams(_LayerParams):
    """ReLU(D^{-1/2} (A + I) D^{-1/2} X W + b)."""

    w: np.ndarray
    b: np.ndarray

    kind = "gcn"


@dataclass
class ModelParams:
    """The model's arrays, each a view of one float64 vector, vec, laid out
    in arrays() order."""

    layers: list
    readout_w: np.ndarray
    readout_b: np.ndarray  # 0-d
    vec: np.ndarray = field(init=False, repr=False, compare=False)
    _layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._layout = tuple((name, np.shape(arr)) for name, arr in self.arrays())
        self._bind(
            np.concatenate(
                [np.asarray(a, dtype=np.float64).reshape(-1) for _, a in self.arrays()]
            )
        )

    def arrays(self):
        for i, layer in enumerate(self.layers):
            for name, arr in layer.arrays():
                yield f"layers.{i}.{layer.kind}.{name}", arr
        yield "readout.w", self.readout_w
        yield "readout.b", self.readout_b

    def layout(self) -> tuple:
        """(name, shape) of every array, in vec order."""
        return self._layout

    def _bind(self, buf: np.ndarray) -> "ModelParams":
        """Make every array a view of the flat buf, in place."""
        views = (view for _, view in _views(buf, self.layout()))
        self.layers = [
            replace(l, **{n: next(views) for n, _ in l.arrays()}) for l in self.layers
        ]
        self.readout_w = next(views)
        self.readout_b = next(views)
        self.vec = buf
        return self

    def _over(self, buf: np.ndarray) -> "ModelParams":
        """This layout over buf, which is not copied."""
        return copy.copy(self)._bind(buf)


def _views(buf: np.ndarray, layout):
    """(name, view) of the flat buf cut into layout's (name, shape) arrays
    in order."""
    offset = 0
    for name, shape in layout:
        size = math.prod(shape)
        yield name, buf[offset : offset + size].reshape(shape)
        offset += size


def init_params(
    rng: np.random.Generator,
    layer_kind: str,
    in_dim: int,
    hidden_dim: int,
    num_layers: int,
) -> ModelParams:
    """Glorot-scaled weights, small uniform biases, GIN eps at zero.

    Biases are nonzero on purpose: all-zero virtual-node features would
    otherwise park their ReLU pre-activations exactly on the kink. in_dim,
    hidden_dim and num_layers are integers >= 1 by the rule of _as_int.
    """
    if layer_kind not in LAYER_KINDS:
        raise ValueError(f"unknown layer kind {layer_kind!r}")
    in_dim = _as_int(in_dim, "in_dim", 1)
    hidden_dim = _as_int(hidden_dim, "hidden_dim", 1)
    num_layers = _as_int(num_layers, "num_layers", 1)

    def glorot(fan_in, fan_out):
        scale = math.sqrt(2.0 / (fan_in + fan_out))
        return rng.standard_normal((fan_in, fan_out)) * scale

    def bias(fan_in, size):
        bound = math.sqrt(1.0 / fan_in)
        return rng.uniform(-bound, bound, size)

    layers = []
    dim = in_dim
    for _ in range(num_layers):
        if layer_kind == "gin":
            layers.append(
                GINLayerParams(
                    eps=np.zeros(()),
                    w1=glorot(dim, hidden_dim),
                    b1=bias(dim, hidden_dim),
                    w2=glorot(hidden_dim, hidden_dim),
                    b2=bias(hidden_dim, hidden_dim),
                )
            )
        else:
            layers.append(
                GCNLayerParams(w=glorot(dim, hidden_dim), b=bias(dim, hidden_dim))
            )
        dim = hidden_dim
    readout_w = rng.standard_normal(dim) * math.sqrt(1.0 / dim)
    return ModelParams(layers, readout_w, np.zeros(()))


# ---------------------------------------------------------------------------
# Layers (matrix form with cached intermediates for the backward pass)
# ---------------------------------------------------------------------------


def _operator_entries(g: UGraph, kind: str) -> tuple[np.ndarray, np.ndarray | None]:
    """The flat positions of the nonzeros of g's layer operator in the
    (m, m) matrix, as int32 (m <= DENSE_NODE_CAP), and their values, which
    are None for GIN: its nonzeros are all 1.0.

    GIN has 1.0 at (u, v) and (v, u) for every edge, and at (u, u) for a
    flagged self-loop. GCN, D^-1/2 (A + I) D^-1/2, has d_u^-1/2 d_v^-1/2
    there and on the whole diagonal, d_u the degree of u plus one; flagged
    self-loops do not count. Each value rounds as the dense product does.
    """
    m = g.node_count
    uv = np.fromiter(chain.from_iterable(g.edges), np.intp, 2 * len(g.edges)).reshape(-1, 2)
    if kind == "gin":
        diagonal = np.fromiter(g.self_loops, np.intp, len(g.self_loops))
    else:
        diagonal = np.arange(m)
    u = np.concatenate((uv[:, 0], uv[:, 1], diagonal))
    v = np.concatenate((uv[:, 1], uv[:, 0], diagonal))
    positions = (u * m + v).astype(np.int32)
    if kind == "gin":
        return positions, None
    inv_sqrt = 1.0 / np.sqrt(np.bincount(u, minlength=m) + 0.0)
    return positions, inv_sqrt[u] * inv_sqrt[v]


def _scatter(positions: list, values: list | None, m: int) -> np.ndarray:
    """The (s, m, m) stack of the dense operators with these entries."""
    s = len(positions)
    out = np.zeros(s * m * m)
    offsets = np.arange(0, s * m * m, m * m)
    at = np.concatenate(positions) + np.repeat(offsets, [len(p) for p in positions])
    out[at] = 1.0 if values is None else np.concatenate(values)
    return out.reshape(s, m, m)


class _Run:
    """The state of one training run: one memo of layer operators, and the
    buffers every stack writes its arrays into; each entry is built once
    and dropped with the run. The memo holds, per (template, kind), the
    operator's entries, O(edges), from which a stack's (s, m, m) operators
    are scattered, and the dense operator once a stack has shared it."""

    def __init__(self) -> None:
        # (id(template), kind) -> (template, positions, values, shared
        # operator or None): each value holds its template, so the id cannot
        # pass to another graph while the run exists.
        self._operators = {}
        self._buffers = {}

    def operator(self, graphs: list[UGraph], kind: str) -> np.ndarray:
        """The layer operator of a stack whose samples propagate over graphs,
        which share a node count m: (s, m, m), or, when one graph serves
        every sample of a stack of two or more, the run's shared, read-only
        (1, m, m), which np.matmul broadcasts over the stack."""
        g = graphs[0]
        shared = len(graphs) > 1 and all(h is g for h in graphs)
        held = []
        for h in graphs[:1] if shared else graphs:
            if (id(h), kind) not in self._operators:
                self._operators[id(h), kind] = (h, *_operator_entries(h, kind), None)
            held.append(self._operators[id(h), kind])
        if shared and held[0][3] is not None:
            return held[0][3]
        values = None if kind == "gin" else [e[2] for e in held]
        ops = _scatter([e[1] for e in held], values, g.node_count)
        if shared:
            ops.flags.writeable = False
            self._operators[id(g), kind] = (*held[0][:3], ops)
        return ops

    def buffer(self, key, shape: tuple) -> np.ndarray:
        """An uninitialised (s, ...) array of shape over the run's buffer for
        key, which every stack overwrites: room for STACK_SAMPLES samples of
        the largest shape asked for, so a run allocates a stack's arrays once."""
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(STACK_SAMPLES * math.prod(shape[1:]))
        return buf[:size].reshape(shape)


def _check_features(plans: list[PropagationPlan], xs, in_dim: int) -> None:
    """Each of xs is an (original count of its plan, in_dim) array."""
    for plan, x in zip(plans, xs):
        if not isinstance(x, np.ndarray):
            raise ValueError(f"features must be an array, got {type(x).__name__}")
        if x.shape != (plan.original_count, in_dim):
            raise ValueError(
                f"features of shape {x.shape} do not match the plan's "
                f"{plan.original_count} original nodes and the model's "
                f"{in_dim} input features"
            )


def _stacks(plans: list[PropagationPlan], params: ModelParams, xs: list):
    """Check an engine call, then yield the slice of each stack: a run of
    consecutive samples whose plans share an original and an extended count,
    cut every STACK_SAMPLES samples. Each plan schedules the model's layers
    and pairs with an (original count, input features) array of xs, and no
    operator passes the dense cap."""
    if not xs:
        raise ValueError("no samples")
    if len(plans) != len(xs):
        raise ValueError(f"{len(plans)} plans for {len(xs)} samples")
    other_depths = {plan.num_layers for plan in plans} - {len(params.layers)}
    if other_depths:
        raise ValueError(
            f"model has {len(params.layers)} layers, plan schedules "
            f"{min(other_depths)}"
        )
    first = params.layers[0]
    _check_features(plans, xs, (first.w1 if first.kind == "gin" else first.w).shape[0])
    _check_dense(max(plan.extended_count for plan in plans), "a dense layer operator")
    counts = [(plan.original_count, plan.extended_count) for plan in plans]
    start = 0
    for i in range(1, len(plans) + 1):
        if i == len(plans) or i - start == STACK_SAMPLES or counts[i] != counts[start]:
            yield slice(start, i)
            start = i


def _stack_layer_forward(i: int, x, ops, p, run: _Run):
    """Layer i over a stack in the run's buffers; the output and the cache
    for _stack_layer_backward, which always ends with the ReLU pre-activation."""
    wide = x.shape[:2] + (p.b1 if p.kind == "gin" else p.b).shape
    if p.kind == "gin":
        c = 1.0 + float(p.eps)
        z = np.multiply(x, c, out=run.buffer((i, "z"), x.shape))
        z += np.matmul(ops, x, out=run.buffer("t", x.shape))
        pre = np.matmul(z, p.w1, out=run.buffer((i, "pre"), wide))
        pre += p.b1
        h = np.maximum(pre, 0.0, out=run.buffer((i, "h"), wide))
        out = np.matmul(h, p.w2, out=run.buffer((i, "out"), wide))
        out += p.b2
        return out, (c, x, z, h, pre)
    sx = np.matmul(ops, x, out=run.buffer((i, "z"), x.shape))
    pre = np.matmul(sx, p.w, out=run.buffer((i, "pre"), wide))
    pre += p.b
    return np.maximum(pre, 0.0, out=run.buffer((i, "out"), wide)), (sx, pre)


def _fold(run: _Run, total: np.ndarray, product, *args, **kwargs) -> None:
    """Write product(*args, **kwargs), one array's (s, ...) per-sample
    gradients, into the run's "grad" buffer and add them to total in order."""
    grads = product(*args, **kwargs, out=run.buffer("grad", args[0].shape[:1] + total.shape))
    if total.size == 1:  # numpy sums a lone axis pairwise: add float by float
        total.fill(_add_in_order(total, grads.ravel().tolist()))
    else:  # slot 0 takes the total, then the reduce adds slot by slot
        grads[0] += total
        np.add.reduce(grads, axis=0, out=total)


def _add_in_order(total: np.ndarray, values: list) -> float:
    """total's one entry plus values, left to right (sum() compensates its
    float additions from Python 3.12 on)."""
    return functools.reduce(float.__add__, values, total.item())


def _stack_layer_backward(i: int, dout, cache, ops, p, total, run: _Run):
    """Fold layer i's per-sample parameter gradients into total, the layer's
    views of the batch gradient, and return the input gradient, which only
    the first layer (i = 0) never forms; an operator is symmetric, so it is
    its own transpose. Each temporary overwrites an array read for the last
    time before it: dpre takes h's buffer (GIN) or pre's (GCN), dz takes
    z's or sx's, and the input gradient takes dout's."""
    # The products against w.T stay on the transposed view, as in the
    # oracle: a C-contiguous copy runs faster, but OpenBLAS's SkylakeX
    # small-matrix kernels round it differently at some shapes (a hidden
    # width of 32, or two rows).
    if p.kind == "gin":
        c, x, z, h, pre = cache
        _fold(run, total.w2, np.matmul, h.transpose(0, 2, 1), dout)
        _fold(run, total.b2, np.add.reduce, dout, axis=1)
        dpre = np.matmul(dout, p.w2.T, out=h)
        dpre *= pre > 0.0
        _fold(run, total.w1, np.matmul, z.transpose(0, 2, 1), dpre)
        _fold(run, total.b1, np.add.reduce, dpre, axis=1)
        dz = np.matmul(dpre, p.w1.T, out=z)
        dx = None
        if i:
            dx = np.multiply(dz, c, out=run.buffer("dh", x.shape))
            dx += np.matmul(ops, dz, out=run.buffer("t", x.shape))
        # Only now, with dx formed, may dz be scaled in place.
        dz *= x
        _fold(run, total.eps, np.add.reduce, dz, axis=(1, 2))
        return dx
    sx, pre = cache
    dpre = np.multiply(dout, pre > 0.0, out=pre)
    _fold(run, total.w, np.matmul, sx.transpose(0, 2, 1), dpre)
    _fold(run, total.b, np.add.reduce, dpre, axis=1)
    if i == 0:
        return None
    dz = np.matmul(dpre, p.w.T, out=sx)
    return np.matmul(ops, dz, out=run.buffer("dh", sx.shape))


# ---------------------------------------------------------------------------
# Whole model
# ---------------------------------------------------------------------------


def _stack_forward(
    plans: list[PropagationPlan], params: ModelParams, xs, run: _Run
) -> tuple:
    """Forward pass of one stack of a call that _stacks has checked.

    Returns the final embeddings (s, m, hidden), each sample's readout row
    sum (s, hidden), the logits and each layer's (operators, cache), the
    operators as _Run.operator gives them.
    """
    s, rows, m = len(plans), plans[0].original_count, plans[0].extended_count
    h = run.buffer("x", (s, m, xs[0].shape[1]))
    h[:, rows:] = 0.0
    np.stack(xs, out=h[:, :rows], casting="unsafe")
    layers = []
    for i, layer in enumerate(params.layers):
        ops = run.operator([plan.layer_graphs[i] for plan in plans], layer.kind)
        h, cache = _stack_layer_forward(i, h, ops, layer, run)
        layers.append((ops, cache))
    sums = np.add.reduce(h[:, :rows], axis=1)
    # One BLAS dot per sample, as the oracle readout's `@` makes: ndarray.dot
    # reaches it in a third of the time, and a float add rounds as the float64
    # add does. A whole-stack gemv rounds differently.
    w, b = params.readout_w, float(params.readout_b)
    logits = [float(row_sum.dot(w)) + b for row_sum in sums]
    return h, sums, logits, layers


def _stack_backward(
    plans, params: ModelParams, sums, layers, dzs, total: ModelParams, run: _Run
) -> None:
    """Add each sample's parameter gradients to total, params' layout over
    the batch gradient, in sample order, one array at a time through the
    run's "grad" buffer; the first layer's input gradient is never formed."""
    rows, m = plans[0].original_count, plans[0].extended_count
    dz = np.array(dzs)
    _fold(run, total.readout_w, np.multiply, sums, dz[:, None])
    total.readout_b.fill(_add_in_order(total.readout_b, dzs))
    dh = run.buffer("dh", (len(sums), m, sums.shape[1]))
    dh[:, rows:] = 0.0
    np.multiply(params.readout_w, dz[:, None, None], out=dh[:, :rows])
    for i in range(len(layers) - 1, -1, -1):
        ops, cache = layers[i]
        dh = _stack_layer_backward(i, dh, cache, ops, params.layers[i], total.layers[i], run)


# No command calls this yet: it is to be reported by `train --trace`.
def relu_kink_margin(plan: PropagationPlan, params: ModelParams, x: np.ndarray) -> float:
    """Smallest |pre-activation| across every ReLU in the forward pass.

    Finite-difference gradient checks need this margin to stay well above
    the probe step; a margin near zero means the loss is not differentiable
    at the current parameters.
    """
    (_,) = _stacks([plan], params, [x])
    _, _, _, layers = _stack_forward([plan], params, [x], _Run())
    return min(float(np.abs(cache[-1]).min()) for _, cache in layers)


def _loss_and_dz(z: float, label: float):
    """Binary cross-entropy on the logit z and its derivative in z."""
    # log(1 + exp(z)) - y z; both forms stable at both tails
    value = float(np.logaddexp(0.0, z) - label * z)
    dz = float(0.5 * (1.0 + math.tanh(0.5 * z)) - label)
    return value, dz


def loss_and_grads(
    plans: list[PropagationPlan],
    params: ModelParams,
    batch: list[tuple[np.ndarray, float]],
    run: _Run,
) -> tuple[float, np.ndarray]:
    """Mean BCE loss and mean gradient over a batch of (features, label)
    pairs; plans and samples pair up elementwise. The gradient is one
    vector laid out as params.vec."""
    total = 0.0
    grads = params._over(np.zeros_like(params.vec))
    xs = [x for x, _ in batch]
    for part in _stacks(plans, params, xs):
        _, sums, logits, layers = _stack_forward(plans[part], params, xs[part], run)
        dzs = []
        for z, (_, label) in zip(logits, batch[part]):
            value, dz = _loss_and_dz(z, label)
            total += value
            dzs.append(dz)
        _stack_backward(plans[part], params, sums, layers, dzs, grads, run)
    scale = 1.0 / len(batch)
    mean_loss = total * scale
    if not math.isfinite(mean_loss):
        raise TrainingDiverged(f"non-finite loss {mean_loss}")
    acc = grads.vec
    acc *= scale
    if not np.all(np.isfinite(acc)):
        views = _views(acc, params.layout())
        name = next(n for n, g in views if not np.all(np.isfinite(g)))
        raise TrainingDiverged(f"non-finite gradient in {name}")
    return mean_loss, acc


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Step count and moment vectors, laid out as the parameters' vec."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(m=np.zeros_like(params.vec), v=np.zeros_like(params.vec))


def adam_step(
    params: ModelParams,
    g: np.ndarray,
    state: AdamState,
    lr: float,
) -> ModelParams:
    """One Adam update from the gradient g, laid out as params.vec. Returns
    fresh parameters; state advances in place."""
    vectors = (("gradient", g), ("first moment", state.m), ("second moment", state.v))
    for name, vec in vectors:
        if np.shape(vec) != params.vec.shape:
            raise ValueError(
                f"{name} has shape {np.shape(vec)}, the parameters {params.vec.shape}"
            )
    state.step += 1
    t = state.step
    # The expressions of a per-array step, elementwise in the same order.
    tmp = np.multiply(g, 1.0 - ADAM_BETA1)
    state.m *= ADAM_BETA1
    state.m += tmp
    np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
    tmp *= g
    state.v *= ADAM_BETA2
    state.v += tmp
    upd = np.divide(state.m, 1.0 - ADAM_BETA1**t)
    np.divide(state.v, 1.0 - ADAM_BETA2**t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    upd *= lr
    upd /= tmp
    return params._over(params.vec - upd)


# ---------------------------------------------------------------------------
# Sum task
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SumTaskSample:
    graph: UGraph
    features: np.ndarray
    label: int


@dataclass(frozen=True)
class SumTaskDataset:
    structure: str
    seed: int
    teacher_weights: np.ndarray
    train: tuple[SumTaskSample, ...]
    test: tuple[SumTaskSample, ...]


def gen_sum_task(
    structure: str,
    train_size: int,
    seed: int,
    *,
    test_size: int = SUM_TASK_TEST_SIZE,
) -> SumTaskDataset:
    """Binary classification with a graph-independent ground truth.

    A teacher readout vector is drawn once per seed; each sample's label is
    the sign of the teacher applied to the feature sum. Feature draws do not
    depend on the structure, so datasets with the same seed share their
    node features and differ only in topology. Cayley24 samples use 24-row
    feature matrices, all other structures SUM_TASK_NODE_COUNT rows. seed,
    train_size and test_size are integers >= 0 by the rule of _as_int. GNP
    and BA draw one graph seed per sample, a split's seeds in one call; a
    split's BA graphs are drawn together by gen_ba_graphs.
    """
    if structure not in SUM_TASK_STRUCTURES:
        raise ValueError(
            f"unknown structure {structure!r}; expected one of {SUM_TASK_STRUCTURES}"
        )
    seed = _as_int(seed, "seed", 0)
    train_size = _as_int(train_size, "train_size", 0)
    test_size = _as_int(test_size, "test_size", 0)
    teacher = np.random.default_rng([seed, _SEED_TAG_TEACHER]).standard_normal(
        SUM_TASK_FEATURE_DIM
    )
    rows = _CAYLEY24_NODES if structure == "Cayley24" else SUM_TASK_NODE_COUNT
    pool_rows = max(SUM_TASK_NODE_COUNT, _CAYLEY24_NODES)

    def make_samples(count: int, split_tag: int):
        feat_rng = np.random.default_rng([seed, _SEED_TAG_FEATURES, split_tag])
        graph_rng = np.random.default_rng(
            [seed, _SEED_TAG_GRAPHS, split_tag, SUM_TASK_STRUCTURES.index(structure)]
        )
        graphs = _structure_graphs(structure, rows, count, graph_rng)
        # Every pool is drawn into one buffer, the doubles of a fresh
        # (pool_rows, dim) draw, and each sample copies out its own rows.
        pool = np.empty((pool_rows, SUM_TASK_FEATURE_DIM))
        samples = []
        for g in graphs:
            feat_rng.standard_normal(out=pool)
            x = pool[:rows].copy()
            label = int(x.sum(axis=0) @ teacher > 0.0)
            samples.append(SumTaskSample(graph=g, features=x, label=label))
        return tuple(samples)

    return SumTaskDataset(
        structure=structure,
        seed=seed,
        teacher_weights=teacher,
        train=make_samples(train_size, 0),
        test=make_samples(test_size, 1),
    )


def _structure_graphs(
    structure: str, rows: int, count: int, rng: np.random.Generator
) -> list[UGraph]:
    """A split's count graphs; GNP and BA take their seeds from rng."""
    if structure == "Empty":
        return [UGraph(rows)] * count
    if structure == "Star":
        return [star_graph(rows)] * count
    if structure == "Cayley24":
        return [build_cayley(_CAYLEY24_MODULUS).graph] * count
    # One call draws the values of count scalar integers(0, 2**62) calls.
    seeds = rng.integers(0, 2**62, size=count).tolist()
    if structure == "GNP":
        return [gen_graph("ER", rows, s, p=SUM_TASK_GNP_P) for s in seeds]
    if structure == "BA":
        return gen_ba_graphs(rows, SUM_TASK_BA_M, seeds)
    raise AssertionError(structure)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    """Settings of one training run. The seed (>= 0) and the counts (>= 1)
    are integers by the rule of _as_int and are stored as Python ints."""

    learning_rate: float = 1e-3
    epochs: int = 60
    batch_size: int = 32
    seed: int = 0
    hidden_dim: int = 64
    num_layers: int = 1
    layer_kind: str = "gin"
    scheme: str = "Base"
    train_sizes: tuple[int, ...] = (20, 40, 60, 100, 200, 300, 400, 500, 1000, 2000, 4000)

    def __post_init__(self) -> None:
        lr = self.learning_rate
        try:
            valid = not isinstance(lr, bool) and 0 < lr < math.inf
        except TypeError:  # a str, None or another value that does not order
            valid = False
        if not valid:
            raise ValueError(f"learning rate must be finite and positive, got {lr!r}")
        self.seed = _as_int(self.seed, "seed", 0)
        self.epochs = _as_int(self.epochs, "epochs", 1)
        self.batch_size = _as_int(self.batch_size, "batch_size", 1)
        self.hidden_dim = _as_int(self.hidden_dim, "hidden_dim", 1)
        self.num_layers = _as_int(self.num_layers, "num_layers", 1)
        self.train_sizes = tuple(
            _as_int(n, f"train_sizes[{i}]", 1) for i, n in enumerate(self.train_sizes)
        )
        if not self.train_sizes:
            raise ValueError("train_sizes must hold at least one size")
        if self.layer_kind not in LAYER_KINDS:
            raise ValueError(
                f"unknown layer kind {self.layer_kind!r}; expected one of {LAYER_KINDS}"
            )
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )


@dataclass(frozen=True)
class CurveRow:
    structure: str
    train_size: int
    seed: int
    train_error: float
    test_error: float
    failed: bool = False


CURVE_CSV_HEADER = "structure,train_size,seed,train_error,test_error"


def error_rate(
    plans: list[PropagationPlan],
    params: ModelParams,
    samples,
    run: _Run,
) -> float:
    """Share of samples whose logit falls on the wrong side of zero; plans
    and samples pair up elementwise."""
    wrong = 0
    xs = [s.features for s in samples]
    for part in _stacks(plans, params, xs):
        _, _, logits, _ = _stack_forward(plans[part], params, xs[part], run)
        for z, sample in zip(logits, samples[part]):
            if not math.isfinite(z):
                raise TrainingDiverged(f"non-finite logit {z}")
            wrong += int((z > 0.0) != bool(sample.label))
    return wrong / len(samples)


def train(plan_builder, dataset: SumTaskDataset, config: TrainConfig) -> list[CurveRow]:
    """Learning curve over config.train_sizes on nested training subsets.

    plan_builder maps a graph to its PropagationPlan; equal graphs share one
    plan, and every plan must follow config.scheme and config.num_layers.
    Every size, plan and sample's features are checked before the first
    step: the plans of the largest size are built, each size takes a prefix,
    and the first sample's features fix the model's input width. The call
    makes one _Run, which builds each template's operator entries once per
    kind and is dropped when the call returns. A run whose loss, gradients,
    final parameters or evaluation logits stop being finite is recorded as
    failed and does not stop the remaining sizes.
    """
    if not dataset.test:
        raise ValueError("the dataset has no test samples")
    largest = max(config.train_sizes)
    if largest > len(dataset.train):
        raise ValueError(
            f"train size {largest} exceeds the {len(dataset.train)} generated samples"
        )

    @functools.cache
    def plan_for(g: UGraph) -> PropagationPlan:
        plan = plan_builder(g)
        if (plan.scheme, plan.num_layers) != (config.scheme, config.num_layers):
            raise ValueError(
                f"the plan builder gives {plan.scheme} plans of {plan.num_layers} layers, "
                f"the config names scheme {config.scheme} and {config.num_layers} layers"
            )
        return plan

    test_plans = [plan_for(s.graph) for s in dataset.test]
    train_plans = [plan_for(s.graph) for s in dataset.train[:largest]]
    feature_dim = np.shape(dataset.train[0].features)[-1]
    xs = [s.features for s in chain(dataset.train[:largest], dataset.test)]
    _check_features(train_plans + test_plans, xs, feature_dim)
    run = _Run()
    rows = []
    for size in config.train_sizes:
        subset = dataset.train[:size]
        subset_plans = train_plans[:size]
        rng = np.random.default_rng([config.seed, _SEED_TAG_INIT, size])
        params = init_params(
            rng, config.layer_kind, feature_dim, config.hidden_dim, config.num_layers
        )
        state = AdamState.for_params(params)
        shuffle_rng = np.random.default_rng([config.seed, _SEED_TAG_SHUFFLE, size])
        try:
            for _ in range(config.epochs):
                order = shuffle_rng.permutation(size)
                for start in range(0, size, config.batch_size):
                    idx = order[start : start + config.batch_size]
                    batch = [(subset[i].features, float(subset[i].label)) for i in idx]
                    plans = [subset_plans[i] for i in idx]
                    _, g = loss_and_grads(plans, params, batch, run)
                    params = adam_step(params, g, state, config.learning_rate)
            # The last Adam step is not followed by a loss_and_grads check.
            if not np.all(np.isfinite(params.vec)):
                raise TrainingDiverged("non-finite parameters after training")
            train_error = error_rate(subset_plans, params, subset, run)
            test_error = error_rate(test_plans, params, dataset.test, run)
        except TrainingDiverged:
            rows.append(
                CurveRow(dataset.structure, size, config.seed, 1.0, 1.0, failed=True)
            )
            continue
        rows.append(
            CurveRow(dataset.structure, size, config.seed, train_error, test_error)
        )
    return rows


def curve_to_csv(rows: list[CurveRow]) -> str:
    lines = [CURVE_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.structure},{r.train_size},{r.seed},"
            f"{format(r.train_error, '.6f')},{format(r.test_error, '.6f')}"
        )
    return "\n".join(lines) + "\n"


def scheme_plan_builder(scheme: str, num_layers: int, cache: CayleyCache | None = None):
    """Plan builder for scheme and num_layers. Without a cache it holds a
    memory-only one of its own, so it builds each modulus once."""
    cache = cache or CayleyCache()

    def builder(g: UGraph) -> PropagationPlan:
        return build_plan(g, scheme, num_layers, cache=cache)

    return builder
