"""Minimal dense message-passing engine: GIN and GCN layers with exact
reverse-mode gradients, Adam, and the synthetic sum-classification task.

Everything runs in float64. Consecutive samples that share an original and
an extended node count run as one (s, m, F) stack of at most STACK_SAMPLES
graphs: each product is one np.matmul, which makes the same BLAS call per
slice as one sample alone would, and per-sample gradients are added in
sample order, so a batch gives the bytes of the one-sample-at-a-time path
(kept as the test oracle). Features, virtual rows, readout sums and the
readout gradient are filled with one call per stack, and a layer whose
template is one graph for the whole stack passes its one (m, m) operator,
which np.matmul broadcasts over the stack. Every parameter array is a view of one flat vector; the batch
gradient is one vector in the same layout, averaged over the batch, and
Adam steps the whole vector with the per-array arithmetic. A training run
passes one _Run, which holds its layer operators and stack buffers, to
every engine call. No batch normalization: the graphs here are tiny and
exact gradient checks matter more than large-scale training tricks.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .cayley import CayleyCache, build_cayley
from .graphcore import UGraph, gen_graph, star_graph
from .propagation import SCHEMES, PropagationPlan, build_plan

LAYER_KINDS = ("gin", "gcn")

# Samples per stack: consecutive samples that share an original and an
# extended node count run through the layers as one (s, m, F) stack of at
# most this many. Each stack buffer holds this many slots for the whole
# training run, so this bounds the run's workspace: on the perfbench train
# workload 16-sample stacks cost about 3.5 MiB of peak RSS more than 8, which
# the extended input templates pay back by sharing their input graph's edge
# tuples (UGraph keeps a canonical pair instead of copying it). A template
# shared by the whole stack needs no operator buffer, so a Cayley layer near
# the dense cap does not reserve 16 copies of its m x m operator.
STACK_SAMPLES = 16

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

SUM_TASK_STRUCTURES = ("Empty", "Cayley24", "Star", "BA", "GNP")
SUM_TASK_FEATURE_DIM = 128
SUM_TASK_NODE_COUNT = 20
SUM_TASK_GNP_P = 0.5
SUM_TASK_BA_M = 2
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

    def __post_init__(self) -> None:
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
        return tuple((name, np.shape(arr)) for name, arr in self.arrays())

    def _bind(self, buf: np.ndarray) -> "ModelParams":
        """Make every array a view of buf's last axis, in place; leading axes
        of buf (a stack of samples) lead every view."""
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

    def copy(self) -> "ModelParams":
        return self._over(self.vec.copy())


def _views(buf: np.ndarray, layout):
    """(name, view) of buf's last axis cut into layout's (name, shape)
    arrays in order; leading axes of buf lead every view."""
    lead = buf.shape[:-1]
    offset = 0
    for name, shape in layout:
        size = math.prod(shape)
        yield name, buf[..., offset : offset + size].reshape(lead + shape)
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
    otherwise park their ReLU pre-activations exactly on the kink.
    """
    if layer_kind not in LAYER_KINDS:
        raise ValueError(f"unknown layer kind {layer_kind!r}")

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


def _layer_operator(g: UGraph, kind: str) -> np.ndarray:
    if kind == "gin":
        # A flagged self-loop contributes the node's own features once.
        return g.adjacency_matrix(include_self_loops=True)
    a_hat = g.adjacency_matrix() + np.eye(g.node_count)
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


class _Run:
    """The state of one training run: each (template, kind) layer operator,
    each stack buffer and each gradient stack, built once and dropped with
    the run. A one-sample pass makes a run of depth 1."""

    def __init__(self, depth: int = STACK_SAMPLES) -> None:
        self.depth = depth
        # Keyed by (id(template), kind); each entry also holds its template,
        # so the id cannot pass to another graph while the run exists.
        self._operators = {}
        self._buffers = {}
        self._grad_stacks = {}

    def operator(self, g: UGraph, kind: str) -> np.ndarray:
        """The run's shared, read-only layer operator of g."""
        key = (id(g), kind)
        if key not in self._operators:
            op = _layer_operator(g, kind)
            op.flags.writeable = False
            self._operators[key] = (g, op)
        return self._operators[key][1]

    def stack(self, name, s: int, *shape: int) -> np.ndarray:
        """An uninitialised (s, *shape) array: the first s slots of the run's
        depth-deep buffer for (name, shape), which the next stack overwrites."""
        key = (name, shape)
        if key not in self._buffers:
            self._buffers[key] = np.empty((self.depth, *shape))
        return self._buffers[key][:s]

    def grad_stack(self, params: ModelParams, s: int) -> ModelParams:
        """params' layout over an uninitialised (s, P) stack of per-sample
        gradients, P the parameter count: every array an (s, ...) view, made
        once per s over the run's buffer."""
        key = (params.layout(), s)
        if key not in self._grad_stacks:
            buf = self.stack(("grads", key[0]), s, params.vec.size)
            self._grad_stacks[key] = params._over(buf)
        return self._grad_stacks[key]


def _runs(plans: list[PropagationPlan]):
    """(start, stop) of each run of consecutive plans that share an original
    and an extended count, cut every STACK_SAMPLES samples."""
    counts = [(plan.original_count, plan.extended_count) for plan in plans]
    start = 0
    for i in range(1, len(plans) + 1):
        if i == len(plans) or i - start == STACK_SAMPLES or counts[i] != counts[start]:
            yield start, i
            start = i


def _stack_layer_forward(i: int, x, ops, p, run: _Run):
    """Layer i over a stack; the output and the cache for
    _stack_layer_backward, which always ends with the ReLU pre-activation."""
    s, m, in_dim = x.shape

    def buf(name, dim):
        return run.stack((name, i), s, m, dim)

    if p.kind == "gin":
        c = 1.0 + float(p.eps)
        ax = np.matmul(ops, x, out=buf("ax", in_dim))
        z = np.multiply(x, c, out=buf("z", in_dim))
        z += ax
        pre = np.matmul(z, p.w1, out=buf("pre", p.w1.shape[1]))
        pre += p.b1
        h = np.maximum(pre, 0.0, out=buf("h", p.w1.shape[1]))
        out = np.matmul(h, p.w2, out=buf("out", p.w2.shape[1]))
        out += p.b2
        return out, (c, x, z, h, pre)
    sx = np.matmul(ops, x, out=buf("ax", in_dim))
    pre = np.matmul(sx, p.w, out=buf("pre", p.w.shape[1]))
    pre += p.b
    out = np.maximum(pre, 0.0, out=buf("out", p.w.shape[1]))
    return out, (sx, pre)


def _stack_layer_backward(i: int, dout, cache, ops, p, grads, run: _Run):
    """Write layer i's per-sample parameter gradients into grads, the
    layer's (s, ...) views of the gradient stack, and return the input
    gradient, which only the first layer (i = 0) never forms; an operator is
    symmetric, so it is its own transpose."""
    # The products against w.T stay on the transposed view, as in the
    # oracle: a C-contiguous copy runs faster, but OpenBLAS's SkylakeX
    # small-matrix kernels round it differently at some shapes (a hidden
    # width of 32, or two rows).
    s, m, _ = dout.shape

    def buf(name, *shape):
        return run.stack((name, i), s, *shape)

    if p.kind == "gin":
        c, x, z, h, pre = cache
        in_dim = x.shape[2]
        np.matmul(h.transpose(0, 2, 1), dout, out=grads.w2)
        np.add.reduce(dout, axis=1, out=grads.b2)
        dpre = np.matmul(dout, p.w2.T, out=buf("dpre", m, pre.shape[2]))
        dpre *= pre > 0.0
        np.matmul(z.transpose(0, 2, 1), dpre, out=grads.w1)
        np.add.reduce(dpre, axis=1, out=grads.b1)
        dz = np.matmul(dpre, p.w1.T, out=buf("dz", m, in_dim))
        dzx = np.multiply(dz, x, out=buf("dzx", m, in_dim))
        np.add.reduce(dzx, axis=(1, 2), out=grads.eps)
        if i == 0:
            return None
        adz = np.matmul(ops, dz, out=buf("adz", m, in_dim))
        dx = np.multiply(dz, c, out=dzx)
        dx += adz
        return dx
    sx, pre = cache
    dpre = np.multiply(dout, pre > 0.0, out=buf("dpre", m, pre.shape[2]))
    np.matmul(sx.transpose(0, 2, 1), dpre, out=grads.w)
    np.add.reduce(dpre, axis=1, out=grads.b)
    if i == 0:
        return None
    dsx = np.matmul(dpre, p.w.T, out=buf("dsx", m, p.w.shape[0]))
    return np.matmul(ops, dsx, out=buf("dx", m, p.w.shape[0]))


# ---------------------------------------------------------------------------
# Whole model
# ---------------------------------------------------------------------------


def readout(plan: PropagationPlan, params: ModelParams, h: np.ndarray) -> float:
    """Sum the original-node rows and apply the linear head. Virtual rows
    never enter the prediction."""
    row_sum = h[: plan.original_count].sum(axis=0)
    return float(row_sum @ params.readout_w + params.readout_b)


def _stack_forward(
    plans: list[PropagationPlan], params: ModelParams, xs, run: _Run
) -> tuple:
    """Forward pass of a run of samples that share an original and an
    extended count.

    Returns the final embeddings (s, m, hidden), each sample's readout row
    sum (s, hidden), the logits and each layer's (operators, cache). A layer
    whose template is one graph for the whole stack gets its one (m, m)
    operator, which np.matmul broadcasts over the stack.
    """
    s, rows, m = len(plans), plans[0].original_count, plans[0].extended_count
    first = params.layers[0]
    in_dim = (first.w1 if first.kind == "gin" else first.w).shape[0]
    h = run.stack("x", s, m, in_dim)
    _copy_features(xs, h[:, :rows])
    h[:, rows:] = 0.0
    other_depths = {plan.num_layers for plan in plans} - {len(params.layers)}
    if other_depths:
        raise ValueError(
            f"model has {len(params.layers)} layers, plan schedules "
            f"{min(other_depths)}"
        )
    layers = []
    for i, layer in enumerate(params.layers):
        graphs = [plan.layer_graphs[i] for plan in plans]
        if all(g is graphs[0] for g in graphs):
            ops = run.operator(graphs[0], layer.kind)
        else:
            ops = np.stack(
                [run.operator(g, layer.kind) for g in graphs],
                out=run.stack(("ops", i), s, m, m),
            )
        h, cache = _stack_layer_forward(i, h, ops, layer, run)
        layers.append((ops, cache))
    sums = np.add.reduce(h[:, :rows], axis=1, out=run.stack("sums", s, h.shape[2]))
    # One BLAS dot per sample, as readout's `@` makes: ndarray.dot reaches it
    # in a third of the time, and a float add rounds as the float64 add does.
    # A whole-stack gemv rounds differently.
    w, b = params.readout_w, float(params.readout_b)
    logits = [float(row_sum.dot(w)) + b for row_sum in sums]
    return h, sums, logits, layers


def _copy_features(xs, out: np.ndarray) -> None:
    """Copy each sample's features into its slot of out, an (s, rows, F)
    view, read as np.asarray(x, dtype=np.float64) reads them."""
    try:
        np.stack(xs, out=out, casting="unsafe")
    except ValueError:
        # A shape other than (rows, F): np.atleast_2d still takes a 1-D row
        # for a one-node graph; anything else is refused by name.
        xs = [np.atleast_2d(np.asarray(x, dtype=np.float64)) for x in xs]
        for x in xs:
            if x.shape != out.shape[1:]:
                raise ValueError(
                    f"features of shape {x.shape} do not match the plan's "
                    f"{out.shape[1]} original nodes and the model's "
                    f"{out.shape[2]} input features"
                ) from None
        np.stack(xs, out=out)


def _stack_backward(
    plans, params: ModelParams, sums, layers, dzs, acc, run: _Run
) -> None:
    """Add each sample's parameter gradients to the flat vector acc, in
    sample order; the first layer's input gradient is never formed."""
    s, hidden = sums.shape
    rows, m = plans[0].original_count, plans[0].extended_count
    grads = run.grad_stack(params, s)
    dz = np.array(dzs)
    np.multiply(sums, dz[:, None], out=grads.readout_w)
    grads.readout_b[...] = dz
    dh = run.stack(("dout", len(layers) - 1), s, m, hidden)
    np.multiply(params.readout_w, dz[:, None, None], out=dh[:, :rows])
    dh[:, rows:] = 0.0
    for i in range(len(layers) - 1, -1, -1):
        ops, cache = layers[i]
        dh = _stack_layer_backward(
            i, dh, cache, ops, params.layers[i], grads.layers[i], run
        )
    # Slot 0 takes the running total, then the reduce adds the slots in
    # sample order: a reduce along axis 0 goes slot by slot for every
    # column, as axis 0 is never its only axis (numpy sums a lone axis
    # pairwise).
    grads.vec[0] += acc
    np.add.reduce(grads.vec, axis=0, out=acc)


def model_forward(
    plan: PropagationPlan, params: ModelParams, x: np.ndarray
) -> tuple[np.ndarray, float]:
    """Run the layer schedule; returns final embeddings and the prediction
    logit (or regression value)."""
    h, _, (z,), _ = _stack_forward([plan], params, [x], _Run(depth=1))
    return h[0], z


# No command calls this yet: it is to be reported by `train --trace`.
def relu_kink_margin(plan: PropagationPlan, params: ModelParams, x: np.ndarray) -> float:
    """Smallest |pre-activation| across every ReLU in the forward pass.

    Finite-difference gradient checks need this margin to stay well above
    the probe step; a margin near zero means the loss is not differentiable
    at the current parameters.
    """
    _, _, _, layers = _stack_forward([plan], params, [x], _Run(depth=1))
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
    if not batch:
        raise ValueError("empty batch")
    if len(plans) != len(batch):
        raise ValueError(f"{len(plans)} plans for {len(batch)} samples")
    total = 0.0
    acc = np.zeros_like(params.vec)
    for start, stop in _runs(plans):
        part = batch[start:stop]
        _, sums, logits, layers = _stack_forward(
            plans[start:stop], params, [x for x, _ in part], run
        )
        dzs = []
        for z, (_, label) in zip(logits, part):
            value, dz = _loss_and_dz(z, label)
            total += value
            dzs.append(dz)
        _stack_backward(plans[start:stop], params, sums, layers, dzs, acc, run)
    scale = 1.0 / len(batch)
    mean_loss = total * scale
    if not math.isfinite(mean_loss):
        raise TrainingDiverged(f"non-finite loss {mean_loss}")
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
    test_size: int = 200,
) -> SumTaskDataset:
    """Binary classification with a graph-independent ground truth.

    A teacher readout vector is drawn once per seed; each sample's label is
    the sign of the teacher applied to the feature sum. Feature draws do not
    depend on the structure, so datasets with the same seed share their
    node features and differ only in topology. Cayley24 samples use 24-row
    feature matrices, all other structures SUM_TASK_NODE_COUNT rows.
    """
    if structure not in SUM_TASK_STRUCTURES:
        raise ValueError(
            f"unknown structure {structure!r}; expected one of {SUM_TASK_STRUCTURES}"
        )
    for name, n in (("train_size", train_size), ("test_size", test_size)):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"{name} must be a non-negative int, got {n!r}")
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
        shared = _shared_structure_graph(structure, rows)
        samples = []
        for _ in range(count):
            # Copied out, so a sample does not keep the unused pool rows alive.
            pool = feat_rng.standard_normal((pool_rows, SUM_TASK_FEATURE_DIM))
            x = pool[:rows].copy()
            g = shared if shared is not None else _sampled_structure_graph(
                structure, rows, graph_rng
            )
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


def _shared_structure_graph(structure: str, rows: int) -> UGraph | None:
    if structure == "Empty":
        return UGraph(rows)
    if structure == "Star":
        return star_graph(rows)
    if structure == "Cayley24":
        return build_cayley(_CAYLEY24_MODULUS).graph
    return None


def _sampled_structure_graph(structure, rows, rng) -> UGraph:
    sample_seed = int(rng.integers(0, 2**62))
    if structure == "GNP":
        return gen_graph("ER", rows, sample_seed, p=SUM_TASK_GNP_P)
    if structure == "BA":
        return gen_graph("BA", rows, sample_seed, m=SUM_TASK_BA_M)
    raise AssertionError(structure)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
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
        counts = {
            "seed": self.seed,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "hidden_dim": self.hidden_dim,
            "num_layers": self.num_layers,
        }
        counts.update((f"train_sizes[{i}]", n) for i, n in enumerate(self.train_sizes))
        for name, n in counts.items():
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValueError(f"{name} must be an int, got {n!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")
        if self.hidden_dim < 1 or self.num_layers < 1:
            raise ValueError("hidden_dim and num_layers must be positive")
        if not self.train_sizes or min(self.train_sizes) < 1:
            raise ValueError("train_sizes must hold at least one size, each >= 1")
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
    if not samples:
        raise ValueError("no samples to evaluate")
    if len(plans) != len(samples):
        raise ValueError(f"{len(plans)} plans for {len(samples)} samples")
    wrong = 0
    for start, stop in _runs(plans):
        part = samples[start:stop]
        _, _, logits, _ = _stack_forward(
            plans[start:stop], params, [s.features for s in part], run
        )
        for z, sample in zip(logits, part):
            if not math.isfinite(z):
                raise TrainingDiverged(f"non-finite logit {z}")
            wrong += int((z > 0.0) != bool(sample.label))
    return wrong / len(samples)


def train(plan_builder, dataset: SumTaskDataset, config: TrainConfig) -> list[CurveRow]:
    """Learning curve over config.train_sizes on nested training subsets.

    plan_builder maps a graph to its PropagationPlan; equal graphs share one
    plan, and every plan must follow config.scheme. The call makes one
    _Run: each layer operator is built once per (template, kind), each stack
    buffer once per (name, shape), and all are dropped when the call
    returns. A run whose loss, gradients, final parameters or evaluation logits stop being
    finite is recorded as failed and does not stop the remaining sizes.
    """
    if not dataset.test:
        raise ValueError("the dataset has no test samples")

    @functools.cache
    def plan_for(g: UGraph) -> PropagationPlan:
        plan = plan_builder(g)
        if plan.scheme != config.scheme:
            raise ValueError(
                f"the plan builder gives {plan.scheme} plans, the config names "
                f"scheme {config.scheme}"
            )
        return plan

    test_plans = [plan_for(s.graph) for s in dataset.test]
    run = _Run()
    feature_dim = dataset.train[0].features.shape[1] if dataset.train else 0
    rows = []
    for size in config.train_sizes:
        if size > len(dataset.train):
            raise ValueError(
                f"train size {size} exceeds the {len(dataset.train)} "
                "generated samples"
            )
        subset = dataset.train[:size]
        subset_plans = [plan_for(s.graph) for s in subset]
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
    def builder(g: UGraph) -> PropagationPlan:
        return build_plan(g, scheme, num_layers, cache=cache)

    return builder
