"""Minimal dense message-passing engine: GIN and GCN layers with exact
reverse-mode gradients, Adam, and the synthetic sum-classification task.

Everything runs in float64. Graphs are processed one at a time and batch
gradients are averaged, which keeps the backward pass a direct transcript
of the forward pass. No batch normalization: the graphs here are tiny and
exact gradient checks matter more than large-scale training tricks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .cayley import CayleyCache, build_cayley
from .graphcore import UGraph, gen_graph, star_graph
from .propagation import PropagationPlan, build_plan, extend_features

LAYER_KINDS = ("gin", "gcn")

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
    layers: list
    readout_w: np.ndarray
    readout_b: np.ndarray  # 0-d

    def arrays(self):
        for i, layer in enumerate(self.layers):
            for name, arr in layer.arrays():
                yield f"layers.{i}.{layer.kind}.{name}", arr
        yield "readout.w", self.readout_w
        yield "readout.b", self.readout_b

    def copy(self) -> "ModelParams":
        layers = [
            replace(l, **{n: a.copy() for n, a in l.arrays()}) for l in self.layers
        ]
        return ModelParams(layers, self.readout_w.copy(), self.readout_b.copy())


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


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.arrays()}


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


# ---------------------------------------------------------------------------
# Whole model
# ---------------------------------------------------------------------------


def readout(plan: PropagationPlan, params: ModelParams, h: np.ndarray) -> float:
    """Sum the original-node rows and apply the linear head. Virtual rows
    never enter the prediction."""
    s = h[: plan.original_count].sum(axis=0)
    return float(s @ params.readout_w + params.readout_b)


def model_forward(
    plan: PropagationPlan, params: ModelParams, x: np.ndarray
) -> tuple[np.ndarray, float]:
    """Run the layer schedule; returns final embeddings and the prediction
    logit (or regression value)."""
    h, z, _ = _forward_cached(plan, params, x)
    return h, z


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


def relu_kink_margin(plan: PropagationPlan, params: ModelParams, x: np.ndarray) -> float:
    """Smallest |pre-activation| across every ReLU in the forward pass.

    Finite-difference gradient checks need this margin to stay well above
    the probe step; a margin near zero means the loss is not differentiable
    at the current parameters.
    """
    _, _, caches = _forward_cached(plan, params, x)
    margin = math.inf
    for _, _, cache in caches:
        margin = min(margin, float(np.abs(cache[-1]).min()))
    return margin


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
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean BCE loss and mean gradients over a batch of (features, label)
    pairs; plans and samples pair up elementwise."""
    if not batch:
        raise ValueError("empty batch")
    if len(plans) != len(batch):
        raise ValueError(f"{len(plans)} plans for {len(batch)} samples")
    total = 0.0
    acc = zero_grads(params)
    for sample_plan, (x, label) in zip(plans, batch):
        value, grads, _ = sample_gradients(sample_plan, params, x, label)
        total += value
        for name, g in grads.items():
            acc[name] += g
    scale = 1.0 / len(batch)
    mean_loss = total * scale
    if not math.isfinite(mean_loss):
        raise TrainingDiverged(f"non-finite loss {mean_loss}")
    for name in acc:
        acc[name] *= scale
        if not np.all(np.isfinite(acc[name])):
            raise TrainingDiverged(f"non-finite gradient in {name}")
    return mean_loss, acc


# ---------------------------------------------------------------------------
# Adam
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
            x = feat_rng.standard_normal((pool_rows, SUM_TASK_FEATURE_DIM))[:rows]
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
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning rate must be finite and positive, got {self.learning_rate}"
            )
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")
        if self.hidden_dim < 1 or self.num_layers < 1:
            raise ValueError("hidden_dim and num_layers must be positive")
        if not self.train_sizes or min(self.train_sizes) < 1:
            raise ValueError("train_sizes must hold at least one size, each >= 1")


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
) -> float:
    wrong = 0
    for plan, sample in zip(plans, samples):
        _, z = model_forward(plan, params, sample.features)
        if not math.isfinite(z):
            raise TrainingDiverged(f"non-finite logit {z}")
        wrong += int((z > 0.0) != bool(sample.label))
    return wrong / len(samples)


def train(plan_builder, dataset: SumTaskDataset, config: TrainConfig) -> list[CurveRow]:
    """Learning curve over config.train_sizes on nested training subsets.

    plan_builder maps a graph to its PropagationPlan; equal graphs share one
    plan. A run whose loss, gradients, final parameters or evaluation logits
    stop being finite is recorded as failed and does not stop the remaining
    sizes.
    """
    if not dataset.test:
        raise ValueError("the dataset has no test samples")
    plan_for = functools.cache(plan_builder)

    test_plans = [plan_for(s.graph) for s in dataset.test]
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
                    _, grads = loss_and_grads(plans, params, batch)
                    params = adam_step(params, grads, state, config.learning_rate)
            # The last Adam step is not followed by a loss_and_grads check.
            if not all(np.all(np.isfinite(a)) for _, a in params.arrays()):
                raise TrainingDiverged("non-finite parameters after training")
            train_error = error_rate(subset_plans, params, subset)
            test_error = error_rate(test_plans, params, dataset.test)
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


# ---------------------------------------------------------------------------
# Checkpoints: flat JSON list of named row-major tensors
# ---------------------------------------------------------------------------


def params_to_json_obj(params: ModelParams) -> list[dict]:
    return [
        {"name": name, "shape": list(arr.shape), "data": arr.ravel().tolist()}
        for name, arr in params.arrays()
    ]


def params_from_json_obj(obj: list[dict]) -> ModelParams:
    tensors = {
        entry["name"]: np.asarray(entry["data"], dtype=np.float64).reshape(
            entry["shape"]
        )
        for entry in obj
    }
    layers = []
    i = 0
    while any(name.startswith(f"layers.{i}.") for name in tensors):
        cls = GINLayerParams if f"layers.{i}.gin.w1" in tensors else GCNLayerParams
        prefix = f"layers.{i}.{cls.kind}."
        layers.append(cls(**{f.name: tensors[prefix + f.name] for f in fields(cls)}))
        i += 1
    return ModelParams(layers, tensors["readout.w"], tensors["readout.b"])
