"""Shared-bottom multi-task network with hand-derived backpropagation.

The network is a dense trunk shared by all tasks followed by one small head
per task; every head ends in a single logit. Shared parameters (the trunk)
and task-specific parameters (each head) are kept strictly separate so that
per-task trunk gradients can be extracted and modified independently of the
head updates.

All tensors are float64. Forward and backward are pure given (net, batch);
parameter mutation happens only through ``set_theta`` / ``set_phi``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import expit

from .errors import ConfigError, DataError, DimensionError, EvaluationError
from .tensor_core import ParamVector, flatten_params, unflatten_params

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

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.weights.copy(), self.bias.copy(), self.activation)


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
        self.shared_layers = shared_layers
        self.task_heads = task_heads
        self._check_chaining()
        self._theta_layout = self.get_theta().layout
        self._phi_layouts = [self.get_phi(t).layout for t in range(self.num_tasks)]

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

    def theta_tensors(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.shared_layers):
            out[f"shared.{i}.weight"] = layer.weights
            out[f"shared.{i}.bias"] = layer.bias
        return out

    def phi_tensors(self, task: int) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.task_heads[task]):
            out[f"task{task}.{i}.weight"] = layer.weights
            out[f"task{task}.{i}.bias"] = layer.bias
        return out

    def get_theta(self) -> ParamVector:
        return flatten_params(self.theta_tensors())

    def get_phi(self, task: int) -> ParamVector:
        return flatten_params(self.phi_tensors(task))

    def set_theta(self, values: np.ndarray) -> None:
        tensors = unflatten_params(np.asarray(values, dtype=np.float64), self._theta_layout)
        live = self.theta_tensors()
        for name, arr in tensors.items():
            live[name][...] = arr

    def set_phi(self, task: int, values: np.ndarray) -> None:
        tensors = unflatten_params(np.asarray(values, dtype=np.float64), self._phi_layouts[task])
        live = self.phi_tensors(task)
        for name, arr in tensors.items():
            live[name][...] = arr

    def copy(self) -> "SharedBottomNet":
        return SharedBottomNet(
            self.input_dim,
            [layer.copy() for layer in self.shared_layers],
            [[layer.copy() for layer in head] for head in self.task_heads],
        )


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

    Returns (grad over shared trunk, grad over that task's head), flattened
    in the same layout as ``get_theta`` / ``get_phi``. Gradients of the other
    heads are identically zero and are not materialized.
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

    phi_grads: dict[str, np.ndarray] = {}
    for i in range(len(head) - 1, -1, -1):
        a_prev = acts[i - 1] if i > 0 else cache.trunk_act[-1]
        phi_grads[f"task{task_id}.{i}.weight"] = a_prev.T @ delta
        phi_grads[f"task{task_id}.{i}.bias"] = delta.sum(axis=0)
        upstream = delta @ head[i].weights.T
        if i > 0:
            delta = upstream * _activation_deriv(head[i - 1].activation, pres[i - 1])
        else:
            delta = upstream  # gradient w.r.t. the trunk output

    theta_grads: dict[str, np.ndarray] = {}
    trunk = net.shared_layers
    if trunk:
        delta = delta * _activation_deriv(trunk[-1].activation, cache.trunk_pre[-1])
        for i in range(len(trunk) - 1, -1, -1):
            a_prev = cache.trunk_act[i]
            theta_grads[f"shared.{i}.weight"] = a_prev.T @ delta
            theta_grads[f"shared.{i}.bias"] = delta.sum(axis=0)
            if i > 0:
                upstream = delta @ trunk[i].weights.T
                delta = upstream * _activation_deriv(
                    trunk[i - 1].activation, cache.trunk_pre[i - 1]
                )
    return flatten_params(theta_grads), flatten_params(phi_grads)


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
    theta = net.get_theta()
    payload = {
        "format": "cograd-checkpoint-v1",
        "input_dim": net.input_dim,
        "num_tasks": net.num_tasks,
        "theta_layout": [
            {"name": e.name, "shape": list(e.shape), "offset": e.offset} for e in theta.layout
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
