"""Shared-bottom multi-task network with hand-derived backpropagation.

The network is a dense trunk shared by all tasks followed by one small head
per task; every head ends in a single logit. Shared parameters (the trunk)
and task-specific parameters (each head) are kept strictly separate so that
per-task trunk gradients can be extracted and modified independently of the
head updates.

The net owns its parameters as flat buffers, one for the trunk and one per
head, and its layers' tensors are views into them. Gradients come back as
flat vectors in the same layouts, so an optimizer step updates a buffer as
one vector.

All tensors are float64. Forward and backward are pure given (net, batch).
The trainer writes its updates into ``theta`` and ``phi[t]`` in place;
``set_theta`` / ``set_phi`` write a whole vector after checking its length.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import expit

from .errors import ConfigError, DataError, DimensionError, EvaluationError
from .tensor_core import LayoutEntry, ParamVector

_ACTIVATIONS = ("relu", "identity")


@dataclass
class DenseLayer:
    """One affine layer: out = activation(x @ weights + bias)."""

    weights: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)
    activation: str

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64).ravel()
        if self.weights.ndim != 2:
            raise ConfigError("layer weights must be a matrix")
        if self.bias.size != self.weights.shape[1]:
            raise ConfigError("bias length must match layer output width")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")

    @property
    def fan_in(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[1]


def _apply_activation(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return z


def _activation_deriv(kind: str, z: np.ndarray) -> np.ndarray:
    # ReLU subgradient at 0 is taken as 0.
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    return np.ones_like(z)


class SharedBottomNet:
    """Trunk of shared dense layers plus one head per task.

    ``shared_layers`` may be empty (features pass straight into the heads);
    each head is a list of layers whose last layer has width 1 and identity
    activation.

    The net owns its parameters as flat float64 buffers: ``theta`` for the
    trunk and ``phi[t]`` for head t. Each buffer holds its tensors ordered by
    name as strings (``shared.<i>.bias`` before ``shared.<i>.weight``, and
    ``shared.10.*`` before ``shared.2.*``), each row-major, as described by
    ``theta_layout`` / ``phi_layouts[t]``. Every layer's ``weights`` and
    ``bias`` are views into those buffers. The constructor copies the values
    of the layers it is given, so a net never shares memory with them.
    """

    def __init__(
        self,
        input_dim: int,
        shared_layers: list[DenseLayer],
        task_heads: list[list[DenseLayer]],
    ) -> None:
        if input_dim <= 0:
            raise ConfigError("input_dim must be positive")
        if not task_heads:
            raise ConfigError("at least one task head required")
        self.input_dim = int(input_dim)
        self.theta, self.theta_layout, self.shared_layers, self._theta_slots = _own(
            "shared", shared_layers
        )
        heads = [_own(f"task{t}", head) for t, head in enumerate(task_heads)]
        self.phi, self.phi_layouts, self.task_heads, self._phi_slots = (
            list(group) for group in zip(*heads)
        )
        self._check_chaining()

    def _check_chaining(self) -> None:
        width = self.input_dim
        for i, layer in enumerate(self.shared_layers):
            if layer.fan_in != width:
                raise ConfigError(f"shared layer {i} expects {layer.fan_in} inputs, got {width}")
            width = layer.fan_out
        trunk_out = width
        for t, head in enumerate(self.task_heads):
            if not head:
                raise ConfigError(f"task {t} head has no layers")
            width = trunk_out
            for i, layer in enumerate(head):
                if layer.fan_in != width:
                    raise ConfigError(
                        f"task {t} head layer {i} expects {layer.fan_in} inputs, got {width}"
                    )
                width = layer.fan_out
            if head[-1].fan_out != 1:
                raise ConfigError(f"task {t} head must end in a single logit")
            if head[-1].activation != "identity":
                raise ConfigError(f"task {t} output layer must use identity activation")

    @property
    def num_tasks(self) -> int:
        return len(self.task_heads)

    @property
    def trunk_width(self) -> int:
        """Width of the last shared layer (input_dim when the trunk is empty)."""
        return self.shared_layers[-1].fan_out if self.shared_layers else self.input_dim

    def get_theta(self) -> ParamVector:
        return ParamVector(self.theta.copy(), self.theta_layout)

    def get_phi(self, task: int) -> ParamVector:
        return ParamVector(self.phi[task].copy(), self.phi_layouts[task])

    def set_theta(self, values: np.ndarray) -> None:
        self.theta[...] = ParamVector(values, self.theta_layout).values

    def set_phi(self, task: int, values: np.ndarray) -> None:
        self.phi[task][...] = ParamVector(values, self.phi_layouts[task]).values

    def copy(self) -> "SharedBottomNet":
        return SharedBottomNet(self.input_dim, self.shared_layers, self.task_heads)


def _own(
    prefix: str, layers: list[DenseLayer]
) -> tuple[np.ndarray, tuple[LayoutEntry, ...], list[DenseLayer], list[tuple[slice, slice]]]:
    """Copy ``layers`` into one flat buffer ordered by tensor name.

    Returns the buffer, its layout, layers whose tensors are views into it,
    and each layer's (weight, bias) slice of the buffer.
    """
    tensors: dict[str, np.ndarray] = {}
    for i, layer in enumerate(layers):
        tensors[f"{prefix}.{i}.weight"] = layer.weights
        tensors[f"{prefix}.{i}.bias"] = layer.bias
    layout: list[LayoutEntry] = []
    where: dict[str, slice] = {}
    offset = 0
    for name in sorted(tensors):
        layout.append(LayoutEntry(name, tensors[name].shape, offset))
        where[name] = slice(offset, offset + layout[-1].size)
        offset = where[name].stop
    buffer = np.empty(offset)
    slots, views = [], []
    for i, layer in enumerate(layers):
        w, b = where[f"{prefix}.{i}.weight"], where[f"{prefix}.{i}.bias"]
        buffer[w], buffer[b] = layer.weights.ravel(), layer.bias
        slots.append((w, b))
        weights = buffer[w].reshape(layer.weights.shape)
        views.append(DenseLayer(weights, buffer[b], layer.activation))
    return buffer, tuple(layout), views, slots


@dataclass
class ForwardCache:
    """Per-layer pre-activations and activations for one batch."""

    features: np.ndarray
    trunk_pre: list[np.ndarray]
    trunk_act: list[np.ndarray]  # trunk_act[-1] feeds every head
    head_pre: list[list[np.ndarray]]
    head_act: list[list[np.ndarray]]


def init_net(
    input_dim: int,
    shared_widths: list[int],
    head_widths: list[int],
    num_tasks: int,
    seed: int,
) -> SharedBottomNet:
    """Build a network with fan-in scaled uniform weights and zero biases.

    Trunk layers and head hidden layers use ReLU; output layers emit a raw
    logit. Deterministic given the seed.
    """
    if input_dim <= 0 or num_tasks <= 0:
        raise ConfigError("input_dim and num_tasks must be positive")
    if not shared_widths or not head_widths:
        raise ConfigError("shared_widths and head_widths must be non-empty")
    if any(w <= 0 for w in shared_widths) or any(w <= 0 for w in head_widths):
        raise ConfigError("layer widths must be positive")

    rng = np.random.default_rng(seed)

    def make_layer(fan_in: int, fan_out: int, activation: str) -> DenseLayer:
        limit = 1.0 / np.sqrt(fan_in)
        weights = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        return DenseLayer(weights, np.zeros(fan_out), activation)

    shared: list[DenseLayer] = []
    width = input_dim
    for w in shared_widths:
        shared.append(make_layer(width, w, "relu"))
        width = w
    trunk_out = width

    heads: list[list[DenseLayer]] = []
    for _ in range(num_tasks):
        head: list[DenseLayer] = []
        width = trunk_out
        for w in head_widths:
            head.append(make_layer(width, w, "relu"))
            width = w
        head.append(make_layer(width, 1, "identity"))
        heads.append(head)
    return SharedBottomNet(input_dim, shared, heads)


def forward(net: SharedBottomNet, features: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run a batch through the net; returns (n, T) logits and the cache."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionError(
            f"features must be (n, {net.input_dim}), got {x.shape}"
        )
    trunk_pre: list[np.ndarray] = []
    trunk_act: list[np.ndarray] = [x]
    a = x
    for layer in net.shared_layers:
        z = a @ layer.weights + layer.bias
        a = _apply_activation(layer.activation, z)
        trunk_pre.append(z)
        trunk_act.append(a)

    n = x.shape[0]
    logits = np.zeros((n, net.num_tasks))
    head_pre: list[list[np.ndarray]] = []
    head_act: list[list[np.ndarray]] = []
    for t, head in enumerate(net.task_heads):
        pres: list[np.ndarray] = []
        acts: list[np.ndarray] = []
        h = trunk_act[-1]
        for layer in head:
            z = h @ layer.weights + layer.bias
            h = _apply_activation(layer.activation, z)
            pres.append(z)
            acts.append(h)
        logits[:, t] = h[:, 0]
        head_pre.append(pres)
        head_act.append(acts)
    if not np.all(np.isfinite(logits)):
        raise EvaluationError("forward produced non-finite logits")
    return logits, ForwardCache(x, trunk_pre, trunk_act, head_pre, head_act)


def predict_proba(net: SharedBottomNet, features: np.ndarray) -> np.ndarray:
    """Per-task probabilities, shape (n, T)."""
    logits, _ = forward(net, features)
    return expit(logits)


def trunk_activations(net: SharedBottomNet, features: np.ndarray) -> np.ndarray:
    """Last shared-layer activations, shape (n, trunk_width); heads untouched."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionError(f"features must be (n, {net.input_dim}), got {x.shape}")
    a = x
    for layer in net.shared_layers:
        a = _apply_activation(layer.activation, a @ layer.weights + layer.bias)
    return a


def task_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy computed in the stable logit form."""
    z = np.asarray(logits, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if z.size != y.size:
        raise DimensionError(f"{z.size} logits vs {y.size} labels")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise DataError("labels must be binary 0/1")
    # max(z,0) - z*y + log(1 + exp(-|z|)) avoids overflow for large |z|.
    per_row = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(np.mean(per_row))


def backward_task(
    net: SharedBottomNet,
    cache: ForwardCache,
    labels: np.ndarray,
    task_id: int,
) -> tuple[ParamVector, ParamVector]:
    """Analytic gradients of one task's mean BCE loss.

    Returns (grad over shared trunk, grad over that task's head), each
    written straight into a flat vector in the net's ``theta_layout`` /
    ``phi_layouts[task_id]``. Gradients of the other heads are identically
    zero and are not materialized.
    """
    if not 0 <= task_id < net.num_tasks:
        raise DimensionError(f"task_id {task_id} out of range")
    if len(cache.trunk_pre) != len(net.shared_layers) or len(cache.head_pre[task_id]) != len(
        net.task_heads[task_id]
    ):
        raise DimensionError("stale cache: layer count mismatch")
    n = cache.features.shape[0]
    y = np.asarray(labels, dtype=np.float64).ravel()
    if y.size != n:
        raise DimensionError(f"{y.size} labels for batch of {n}")

    head = net.task_heads[task_id]
    pres = cache.head_pre[task_id]
    acts = cache.head_act[task_id]
    z_out = pres[-1]
    if z_out.shape[0] != n:
        raise DimensionError("stale cache: batch size mismatch")

    # Mean-reduced BCE with logits: dL/dz = (sigmoid(z) - y) / n.
    delta = (expit(z_out) - y[:, None]) / n

    grad_phi = np.empty(net.phi[task_id].size)
    for i in range(len(head) - 1, -1, -1):
        a_prev = acts[i - 1] if i > 0 else cache.trunk_act[-1]
        w, b = net._phi_slots[task_id][i]
        grad_phi[w] = (a_prev.T @ delta).ravel()
        grad_phi[b] = delta.sum(axis=0)
        upstream = delta @ head[i].weights.T
        if i > 0:
            delta = upstream * _activation_deriv(head[i - 1].activation, pres[i - 1])
        else:
            delta = upstream  # gradient w.r.t. the trunk output

    grad_theta = np.empty(net.theta.size)
    trunk = net.shared_layers
    if trunk:
        delta = delta * _activation_deriv(trunk[-1].activation, cache.trunk_pre[-1])
        for i in range(len(trunk) - 1, -1, -1):
            a_prev = cache.trunk_act[i]
            w, b = net._theta_slots[i]
            grad_theta[w] = (a_prev.T @ delta).ravel()
            grad_theta[b] = delta.sum(axis=0)
            if i > 0:
                upstream = delta @ trunk[i].weights.T
                delta = upstream * _activation_deriv(
                    trunk[i - 1].activation, cache.trunk_pre[i - 1]
                )
    return (
        ParamVector(grad_theta, net.theta_layout),
        ParamVector(grad_phi, net.phi_layouts[task_id]),
    )


def theta_loss_fn(
    net: SharedBottomNet, features: np.ndarray, labels: np.ndarray, task: int
) -> Callable[[np.ndarray], float]:
    """Task loss as a function of the flat shared-parameter vector.

    Heads and batch stay fixed; evaluations run on a private copy of the net.
    """
    probe = net.copy()
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).ravel()

    def fn(theta: np.ndarray) -> float:
        probe.set_theta(theta)
        logits, _ = forward(probe, x)
        return task_loss(logits[:, task], y)

    return fn


def theta_grad_fn(
    net: SharedBottomNet, features: np.ndarray, labels: np.ndarray, task: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Analytic trunk gradient as a function of the flat shared vector."""
    probe = net.copy()
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).ravel()

    def fn(theta: np.ndarray) -> np.ndarray:
        probe.set_theta(theta)
        _, cache = forward(probe, x)
        grad_theta, _ = backward_task(probe, cache, y, task)
        return grad_theta.values

    return fn


def save_net(net: SharedBottomNet, path: str | Path) -> None:
    """Serialize architecture, parameter layouts and values as JSON."""
    payload = {
        "format": "cograd-checkpoint-v1",
        "input_dim": net.input_dim,
        "num_tasks": net.num_tasks,
        "theta_layout": [
            {"name": e.name, "shape": list(e.shape), "offset": e.offset} for e in net.theta_layout
        ],
        "shared": [
            {
                "weights": layer.weights.tolist(),
                "bias": layer.bias.tolist(),
                "activation": layer.activation,
            }
            for layer in net.shared_layers
        ],
        "heads": [
            [
                {
                    "weights": layer.weights.tolist(),
                    "bias": layer.bias.tolist(),
                    "activation": layer.activation,
                }
                for layer in head
            ]
            for head in net.task_heads
        ],
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_net(path: str | Path) -> SharedBottomNet:
    """Rebuild a network from ``save_net`` output."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"checkpoint not readable: {path}: {exc.strerror}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"checkpoint is not valid JSON: {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != "cograd-checkpoint-v1":
        raise ConfigError(f"unrecognized checkpoint format in {path}")

    def make(layer: dict) -> DenseLayer:
        return DenseLayer(
            np.array(layer["weights"], dtype=np.float64),
            np.array(layer["bias"], dtype=np.float64),
            layer["activation"],
        )

    try:
        shared = [make(layer) for layer in payload["shared"]]
        heads = [[make(layer) for layer in head] for head in payload["heads"]]
        return SharedBottomNet(payload["input_dim"], shared, heads)
    except KeyError as exc:
        raise ConfigError(f"checkpoint {path} is missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed checkpoint {path}: {exc}") from None
