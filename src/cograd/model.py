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
``task_hvp`` takes the exact Hessian-vector product over the trunk from a
forward pass's cache, by the R-op, with no finite differences.
The trainer writes its updates into ``theta`` and ``phi[t]`` in place;
``set_theta`` / ``set_phi`` write a whole vector after checking its length.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

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
        trunk_out = _chain(self.shared_layers, self.input_dim, "shared")
        for t, head in enumerate(self.task_heads):
            if not head:
                raise ConfigError(f"task {t} head has no layers")
            _chain(head, trunk_out, f"heads[{t}]")
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


def _chain(layers: list[DenseLayer], width: int, name: str) -> int:
    """Check that each layer takes the previous one's width; returns the output width."""
    for i, layer in enumerate(layers):
        if layer.fan_in != width:
            raise ConfigError(f"{name}[{i}] expects {layer.fan_in} inputs, got {width}")
        width = layer.fan_out
    return width


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

    def make_stack(width: int, widths: list[int], output_activation: str) -> list[DenseLayer]:
        stack = []
        for i, w in enumerate(widths):
            limit = 1.0 / np.sqrt(width)
            weights = rng.uniform(-limit, limit, size=(width, w))
            activation = output_activation if i == len(widths) - 1 else "relu"
            stack.append(DenseLayer(weights, np.zeros(w), activation))
            width = w
        return stack

    shared = make_stack(input_dim, shared_widths, "relu")
    heads = [make_stack(shared_widths[-1], [*head_widths, 1], "identity") for _ in range(num_tasks)]
    return SharedBottomNet(input_dim, shared, heads)


def _features(net: SharedBottomNet, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionError(f"features must be (n, {net.input_dim}), got {x.shape}")
    return x


def _stack_forward(
    layers: list[DenseLayer], a: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Run ``a`` through ``layers``: pre-activations, and activations led by ``a``."""
    pres: list[np.ndarray] = []
    acts: list[np.ndarray] = [a]
    for layer in layers:
        pres.append(a @ layer.weights + layer.bias)
        a = _apply_activation(layer.activation, pres[-1])
        acts.append(a)
    return pres, acts


def forward(net: SharedBottomNet, features: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run a batch through the net; returns (n, T) logits and the cache."""
    x = _features(net, features)
    trunk_pre, trunk_act = _stack_forward(net.shared_layers, x)
    return _heads_forward(net, ForwardCache(x, trunk_pre, trunk_act, [], []))


def _heads_forward(net: SharedBottomNet, cache: ForwardCache) -> tuple[np.ndarray, ForwardCache]:
    """Run every head on the cached trunk output; returns logits and a new cache."""
    head_pre, head_act = zip(*(_stack_forward(h, cache.trunk_act[-1]) for h in net.task_heads))
    logits = np.concatenate([acts[-1] for acts in head_act], axis=1)
    if not np.all(np.isfinite(logits)):
        raise EvaluationError("forward produced non-finite logits")
    head_act = [acts[1:] for acts in head_act]  # a head's input is trunk_act[-1]
    return logits, replace(cache, head_pre=list(head_pre), head_act=head_act)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function; saturates to exactly 0 or 1 with no overflow warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def predict_proba(net: SharedBottomNet, features: np.ndarray) -> np.ndarray:
    """Per-task probabilities, shape (n, T)."""
    logits, _ = forward(net, features)
    return sigmoid(logits)


def trunk_activations(net: SharedBottomNet, features: np.ndarray) -> np.ndarray:
    """Last shared-layer activations, shape (n, trunk_width); heads untouched."""
    return _stack_forward(net.shared_layers, _features(net, features))[1][-1]


def task_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy computed in the stable logit form."""
    z = np.asarray(logits, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if z.size != y.size:
        raise DimensionError(f"{z.size} logits vs {y.size} labels")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise DataError("labels must be binary 0/1")
    return _bce(z, y)


def _bce(z: np.ndarray, y: np.ndarray) -> float:
    """``task_loss`` without its checks, for 1-D float64 logits and 0/1 labels."""
    # max(z,0) - z*y + log(1 + exp(-|z|)) avoids overflow for large |z|.
    per_row = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(np.mean(per_row))


def _through_activation(layer: DenseLayer, pre: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x`` times ``layer``'s activation slope at ``pre``; a relu's slope at 0 is taken as 0."""
    if layer.activation == "relu":
        return x * (pre > 0.0).astype(np.float64)
    return x


def _stack_backward(
    layers: list[DenseLayer], pres: list[np.ndarray], inputs: list[np.ndarray] | None,
    grad_out: np.ndarray, slots: list[tuple[slice, slice]] | None, grad: np.ndarray | None,
    deltas: list | None = None,
) -> np.ndarray:
    """Backpropagate ``grad_out``, the loss gradient at the stack's output.

    Writes each layer's weight and bias gradient into ``grad`` (if given) at its slot,
    given layer i's pre-activation ``pres[i]`` and input ``inputs[i]``, and
    returns the gradient at the first layer's pre-activation. ``deltas[i]`` (if
    given) receives the gradient at layer i's pre-activation.
    """
    delta = grad_out
    for i in range(len(layers) - 1, -1, -1):
        delta = _through_activation(layers[i], pres[i], delta)
        if deltas is not None:
            deltas[i] = delta
        if grad is not None:
            w, b = slots[i]
            grad[w] = (inputs[i].T @ delta).ravel()
            grad[b] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ layers[i].weights.T
    return delta


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
    y = _checked_labels(net, cache, labels, task_id)
    grad_theta, grad_phi = np.empty(net.theta.size), np.empty(net.phi[task_id].size)
    _task_backward(net, cache, y, task_id, grad_phi, grad_theta)
    return (
        ParamVector(grad_theta, net.theta_layout),
        ParamVector(grad_phi, net.phi_layouts[task_id]),
    )


def _checked_labels(
    net: SharedBottomNet, cache: ForwardCache, labels: np.ndarray, task: int
) -> np.ndarray:
    """``labels`` as a 1-D float64 vector, once ``task`` and ``cache`` fit the net and batch."""
    if not 0 <= task < net.num_tasks:
        raise DimensionError(f"task_id {task} out of range")
    if len(cache.trunk_pre) != len(net.shared_layers) or len(cache.head_pre[task]) != len(
        net.task_heads[task]
    ):
        raise DimensionError("stale cache: layer count mismatch")
    n = cache.features.shape[0]
    y = np.asarray(labels, dtype=np.float64).ravel()
    if y.size != n:
        raise DimensionError(f"{y.size} labels for batch of {n}")
    if cache.head_pre[task][-1].shape[0] != n:
        raise DimensionError("stale cache: batch size mismatch")
    return y


def _task_backward(
    net: SharedBottomNet, cache: ForwardCache, labels: np.ndarray, task: int,
    grad_phi: np.ndarray | None = None, grad_theta: np.ndarray | None = None,
    deltas: list | None = None,
) -> None:
    """Backpropagate task ``task``'s mean BCE on 1-D ``labels`` into ``grad_phi`` (its head),
    ``grad_theta`` (the trunk) and ``deltas`` (the gradient at each trunk pre-activation),
    each only if given: with neither ``grad_theta`` nor ``deltas`` the trunk is skipped."""
    pres, head = cache.head_pre[task], net.task_heads[task]
    # Mean-reduced BCE with logits: dL/dz = (sigmoid(z) - y) / n.
    delta = (sigmoid(pres[-1]) - labels[:, None]) / labels.size
    inputs = [cache.trunk_act[-1], *cache.head_act[task]]
    delta = _stack_backward(head, pres, inputs, delta, net._phi_slots[task], grad_phi)
    if (grad_theta is not None or deltas is not None) and net.shared_layers:
        _stack_backward(  # head input gradient = trunk output gradient
            net.shared_layers, cache.trunk_pre, cache.trunk_act, delta @ head[0].weights.T,
            net._theta_slots, grad_theta, deltas,
        )


def task_hvp(
    net: SharedBottomNet, cache: ForwardCache, labels: np.ndarray, task: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Exact trunk Hessian-vector product of task ``task``'s mean BCE: ``v -> H v``.

    H is the Hessian over the flat shared vector at the point ``cache`` was
    taken at, with the heads fixed. The product is Pearlmutter's R-op
    (forward-over-reverse): a tangent forward pass through the trunk, whose
    layers take their (dW, db) from ``v``'s slots, and a backward pass of the
    tangents. It uses the cache's relu pattern, so it is exact wherever no
    hidden pre-activation sits on a kink, and needs no step size. What does
    not depend on ``v`` is computed once, here; each product reads the net's
    current trunk weights, so it holds until they change.
    """
    y = _checked_labels(net, cache, labels, task)
    deltas: list = [None] * len(net.shared_layers)
    _task_backward(net, cache, y, task, deltas=deltas)
    return _trunk_hvp(net, cache, task, deltas)


def _trunk_hvp(
    net: SharedBottomNet, cache: ForwardCache, task: int, deltas: list
) -> Callable[[np.ndarray], np.ndarray]:
    """``task_hvp`` from ``deltas``, the loss gradient at each trunk pre-activation."""
    trunk, slots = net.shared_layers, net._theta_slots
    head, pres = net.task_heads[task], cache.head_pre[task]
    n = cache.features.shape[0]
    # Each row's logit gradient at the trunk output. The head is fixed and its
    # relu pattern too, so a tangent crosses it along this row, and so does
    # its R-backward.
    jac = _stack_backward(head, pres, None, np.ones((n, 1)), None, None) @ head[0].weights.T
    p = sigmoid(pres[-1])
    curvature = p * (1.0 - p) / n  # the mean BCE's second derivative in the logit

    def hvp(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64).ravel()
        if v.size != net.theta.size:
            raise DimensionError(f"direction has {v.size} entries, the trunk {net.theta.size}")
        if not trunk:
            return np.zeros(0)
        tangents = [(v[w].reshape(lay.weights.shape), v[b]) for lay, (w, b) in zip(trunk, slots)]
        # Tangent forward: R(z_i) = R(a_i) W_i + a_i dW_i + db_i, and R(a_0) = 0.
        r_acts = [None]
        for i, (layer, (dw, db)) in enumerate(zip(trunk, tangents)):
            r_pre = cache.trunk_act[i] @ dw + db
            if i:
                r_pre += r_acts[i] @ layer.weights
            r_acts.append(_through_activation(layer, cache.trunk_pre[i], r_pre))
        r_logit = np.sum(r_acts[-1] * jac, axis=1, keepdims=True)
        r_delta = curvature * r_logit * jac  # R(dL/da) at the trunk output
        # Down the trunk: R(dL/dW_i) = a_i' R(delta_i) + R(a_i)' delta_i, and
        # R(delta) crosses a layer as R(delta_i) W_i' + delta_i dW_i'.
        out = np.empty(v.size)
        for i in range(len(trunk) - 1, -1, -1):
            r_delta = _through_activation(trunk[i], cache.trunk_pre[i], r_delta)
            w, b = slots[i]
            grad_w = cache.trunk_act[i].T @ r_delta
            out[b] = r_delta.sum(axis=0)
            if i:
                grad_w += r_acts[i].T @ deltas[i]
                r_delta = r_delta @ trunk[i].weights.T + deltas[i] @ tangents[i][0].T
            out[w] = grad_w.ravel()
        return out

    return hvp


def _task_probe(
    net: SharedBottomNet, features: np.ndarray, labels: np.ndarray, task: int
) -> tuple[SharedBottomNet, np.ndarray, np.ndarray]:
    """A private one-head net (the trunk plus head ``task``) and the checked batch."""
    if not 0 <= task < net.num_tasks:
        raise DimensionError(f"task_id {task} out of range")
    x = _features(net, features)
    y = np.asarray(labels, dtype=np.float64).ravel()
    if y.size != x.shape[0]:
        raise DimensionError(f"{y.size} labels for batch of {x.shape[0]}")
    return SharedBottomNet(net.input_dim, net.shared_layers, [net.task_heads[task]]), x, y


def theta_loss_fn(
    net: SharedBottomNet, features: np.ndarray, labels: np.ndarray, task: int
) -> Callable[[np.ndarray], float]:
    """Task loss as a function of the flat shared vector, from head ``task`` only."""
    probe, x, y = _task_probe(net, features, labels, task)

    def fn(theta: np.ndarray) -> float:
        probe.set_theta(theta)
        logits, _ = forward(probe, x)
        return task_loss(logits[:, 0], y)

    return fn


def theta_grad_fn(
    net: SharedBottomNet, features: np.ndarray, labels: np.ndarray, task: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Analytic trunk gradient as a function of the flat shared vector, from head ``task`` only."""
    probe, x, y = _task_probe(net, features, labels, task)

    def fn(theta: np.ndarray) -> np.ndarray:
        probe.set_theta(theta)
        _, cache = forward(probe, x)
        grad_theta = np.empty(probe.theta.size)
        _task_backward(probe, cache, y, 0, grad_theta=grad_theta)
        return grad_theta

    return fn


def _layer_dict(layer: DenseLayer) -> dict:
    return {
        "weights": layer.weights.tolist(),
        "bias": layer.bias.tolist(),
        "activation": layer.activation,
    }


def _layout_list(layout: tuple[LayoutEntry, ...]) -> list[dict]:
    return [{"name": e.name, "shape": list(e.shape), "offset": e.offset} for e in layout]


def save_net(net: SharedBottomNet, path: str | Path) -> None:
    """Serialize architecture, parameter layouts and values as JSON."""
    payload = {
        "format": "cograd-checkpoint-v1",
        "input_dim": net.input_dim,
        "num_tasks": net.num_tasks,
        "theta_layout": _layout_list(net.theta_layout),
        "shared": [_layer_dict(layer) for layer in net.shared_layers],
        "heads": [[_layer_dict(layer) for layer in head] for head in net.task_heads],
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def read_json(path: str | Path, what: str) -> Any:
    """Parse the JSON file ``path``; a file that cannot be read, decoded or
    parsed raises ConfigError naming ``what`` and the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        problem, detail = "not readable", exc.strerror
    except UnicodeDecodeError as exc:
        problem, detail = "not UTF-8 text", exc.reason
    except json.JSONDecodeError as exc:
        problem, detail = "not valid JSON", exc
    raise ConfigError(f"{what} {problem}: {path}: {detail}")


def load_net(path: str | Path) -> SharedBottomNet:
    """Rebuild a network from ``save_net`` output.

    Refuses non-finite weights or biases, an ``input_dim`` that is not a
    positive integer, and a ``num_tasks`` or ``theta_layout`` that disagrees
    with the layers; errors name the path and a layer as ``shared[i]`` or ``heads[t][i]``.
    """
    payload = read_json(path, "checkpoint")
    if not isinstance(payload, dict) or payload.get("format") != "cograd-checkpoint-v1":
        raise ConfigError(f"unrecognized checkpoint format in {path}")

    def make(layer: dict, name: str) -> DenseLayer:
        try:
            made = DenseLayer(layer["weights"], layer["bias"], layer["activation"])
        except KeyError as exc:
            raise ConfigError(f"checkpoint {path}: {name} is missing key {exc.args[0]!r}") from None
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"checkpoint {path}: {name}: {exc}") from None
        if not (np.all(np.isfinite(made.weights)) and np.all(np.isfinite(made.bias))):
            raise ConfigError(f"checkpoint {path}: {name} has a non-finite weight or bias")
        return made

    try:
        shared = [make(layer, f"shared[{i}]") for i, layer in enumerate(payload["shared"])]
        heads = [
            [make(layer, f"heads[{t}][{i}]") for i, layer in enumerate(head)]
            for t, head in enumerate(payload["heads"])
        ]
        input_dim = payload["input_dim"]
        stated = {"num_tasks": payload["num_tasks"], "theta_layout": payload["theta_layout"]}
    except KeyError as exc:
        raise ConfigError(f"checkpoint {path} is missing key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ConfigError(f"malformed checkpoint {path}: {exc}") from None
    if isinstance(input_dim, bool) or not isinstance(input_dim, int) or input_dim <= 0:
        raise ConfigError(f"checkpoint {path}: input_dim must be a positive integer")
    try:
        net = SharedBottomNet(input_dim, shared, heads)
    except ConfigError as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from None
    built = {"num_tasks": net.num_tasks, "theta_layout": _layout_list(net.theta_layout)}
    for key, value in stated.items():
        if value != built[key]:
            raise ConfigError(f"checkpoint {path}: {key} does not match its layers")
    return net
