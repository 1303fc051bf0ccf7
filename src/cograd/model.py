"""Shared-bottom multi-task network with hand-derived backpropagation.

The network is a dense trunk shared by all tasks followed by one small head
per task; every head ends in a single logit, and all heads have one
architecture (the same layer shapes and activations). Shared parameters (the
trunk) and task-specific parameters (the heads) are kept strictly separate
so that per-task trunk gradients can be extracted and modified independently
of the head updates.

The net owns its parameters as flat buffers: ``theta`` for the trunk and one
(T, P_h) array ``phi`` for the heads, row t being head t. Its layers' tensors
are views into them, each head layer also stacked over a leading task axis.
Forward, backward and the trunk's Hessian-vector products run each layer
once for all T tasks, one (T, ...) array per layer; a stacked matmul makes
the same BLAS call per task as a single product, so each task's numbers are
bitwise those of its own pass. ``backward_task`` and ``task_hvp`` return
one task's row of the T-task pass, at T times a one-task pass's cost.

All tensors are float64. Forward and backward are pure given (net, batch).
``predict_proba`` and ``trunk_activations`` walk a whole dataset in blocks
of 1,024 rows (``_row_blocks``), so evaluation and the probe hold one
block's layers at a time; the dataset check and the CSV reader of
``tasks_data`` take the same blocks.
``task_hvp`` takes the exact Hessian-vector product over the trunk from a
forward pass's cache, by the R-op, with no finite differences.
The trainer writes its updates into ``theta`` and ``phi`` in place;
``set_theta`` / ``set_phi`` write a whole vector after checking its length.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

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


class StackedLayer(NamedTuple):
    """One head layer of every task, as views into the heads buffer."""

    weights: np.ndarray  # (T, fan_in, fan_out)
    bias: np.ndarray  # (T, fan_out)
    activation: str


class SharedBottomNet:
    """Trunk of shared dense layers plus one head per task.

    ``shared_layers`` may be empty (features pass straight into the heads);
    each head is a list of layers whose last layer has width 1 and identity
    activation, and every head has the layer shapes and activations of head 0.

    The net owns its parameters as flat float64 buffers: ``theta`` for the
    trunk and the (T, P_h) array ``phi`` for the heads, whose row ``phi[t]``
    is head t. Each buffer (or row) holds its tensors ordered by name as
    strings (``shared.<i>.bias`` before ``shared.<i>.weight``, and
    ``shared.10.*`` before ``shared.2.*``), each row-major, as described by
    ``theta_layout`` / ``phi_layouts[t]``. Every layer's ``weights`` and
    ``bias`` are views into those buffers: ``task_heads[t][i]`` is head t's
    layer i, and ``head_layers[i]`` is layer i of every head. The constructor
    copies the values of the layers it is given, so a net never shares memory
    with them.
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
        _check_layers(self.input_dim, shared_layers, task_heads)
        self.theta_layout, self._theta_slots, size = _layout("shared", shared_layers)
        self.theta = np.empty(size)
        self.shared_layers = _own(self.theta, self._theta_slots, shared_layers)
        self.phi_layouts = [_layout(f"task{t}", head)[0] for t, head in enumerate(task_heads)]
        _, self._phi_slots, size = _layout("task", task_heads[0])
        self.phi = np.empty((len(task_heads), size))
        self.task_heads = [_own(row, self._phi_slots, h) for row, h in zip(self.phi, task_heads)]
        self.head_layers = [
            StackedLayer(
                self.phi[:, w].reshape(-1, *layer.weights.shape), self.phi[:, b], layer.activation
            )
            for layer, (w, b) in zip(self.task_heads[0], self._phi_slots)
        ]

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


def _check_layers(
    input_dim: int, shared_layers: list[DenseLayer], task_heads: list[list[DenseLayer]]
) -> None:
    """Check that the layers chain, that each head ends in one identity logit,
    and that every head has head 0's layer shapes and activations."""
    trunk_out = _chain(shared_layers, input_dim, "shared")
    first = [(layer.weights.shape, layer.activation) for layer in task_heads[0]]
    for t, head in enumerate(task_heads):
        if not head:
            raise ConfigError(f"task {t} head has no layers")
        _chain(head, trunk_out, f"heads[{t}]")
        if head[-1].fan_out != 1:
            raise ConfigError(f"task {t} head must end in a single logit")
        if head[-1].activation != "identity":
            raise ConfigError(f"task {t} output layer must use identity activation")
        if [(layer.weights.shape, layer.activation) for layer in head] != first:
            raise ConfigError(f"heads[{t}] differs from heads[0] in layer shapes or activations")


def _chain(layers: list[DenseLayer], width: int, name: str) -> int:
    """Check that each layer takes the previous one's width; returns the output width."""
    for i, layer in enumerate(layers):
        if layer.fan_in != width:
            raise ConfigError(f"{name}[{i}] expects {layer.fan_in} inputs, got {width}")
        width = layer.fan_out
    return width


def _layout(
    prefix: str, layers: list[DenseLayer]
) -> tuple[tuple[LayoutEntry, ...], list[tuple[slice, slice]], int]:
    """Places of ``layers``' tensors in one flat vector ordered by tensor name.

    Returns the layout, each layer's (weight, bias) slice of the vector, and
    the vector's length.
    """
    shapes: dict[str, tuple[int, ...]] = {}
    for i, layer in enumerate(layers):
        shapes[f"{prefix}.{i}.weight"] = layer.weights.shape
        shapes[f"{prefix}.{i}.bias"] = layer.bias.shape
    layout: list[LayoutEntry] = []
    where: dict[str, slice] = {}
    offset = 0
    for name in sorted(shapes):
        layout.append(LayoutEntry(name, shapes[name], offset))
        where[name] = slice(offset, offset + layout[-1].size)
        offset = where[name].stop
    names = [(f"{prefix}.{i}.weight", f"{prefix}.{i}.bias") for i in range(len(layers))]
    slots = [(where[w], where[b]) for w, b in names]
    return tuple(layout), slots, offset


def _own(
    buffer: np.ndarray, slots: list[tuple[slice, slice]], layers: list[DenseLayer]
) -> list[DenseLayer]:
    """Copy ``layers`` into ``buffer`` at ``slots``; returns layers whose
    tensors are views into it."""
    views = []
    for layer, (w, b) in zip(layers, slots):
        buffer[w], buffer[b] = layer.weights.ravel(), layer.bias
        weights = buffer[w].reshape(layer.weights.shape)
        views.append(DenseLayer(weights, buffer[b], layer.activation))
    return views


@dataclass
class ForwardCache:
    """Per-layer pre-activations, relu masks and activations for one batch.

    Trunk entries are (n, width); head entries are stacked over tasks,
    (T, n, width), entry i being head layer i. A relu layer's mask is True
    where its pre-activation is positive (its slope, with the slope at 0
    taken as 0); an identity layer's mask is None.
    """

    features: np.ndarray
    trunk_pre: list[np.ndarray]
    trunk_mask: list[np.ndarray | None]
    trunk_act: list[np.ndarray]  # led by the features; trunk_act[-1] feeds every head
    heads_pre: list[np.ndarray]
    heads_mask: list[np.ndarray | None]
    heads_act: list[np.ndarray]  # each head layer's output


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
    layers: list[DenseLayer] | list[StackedLayer], a: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray | None], list[np.ndarray]]:
    """Run ``a`` through ``layers``: pre-activations, relu masks, and activations led by ``a``."""
    pres: list[np.ndarray] = []
    masks: list[np.ndarray | None] = []
    acts: list[np.ndarray] = [a]
    for layer in layers:
        pres.append(a @ layer.weights + layer.bias[..., None, :])
        relu = layer.activation == "relu"
        masks.append(pres[-1] > 0.0 if relu else None)
        a = np.maximum(pres[-1], 0.0) if relu else pres[-1]
        acts.append(a)
    return pres, masks, acts


def forward(net: SharedBottomNet, features: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run a batch through the net; returns (n, T) logits and the cache."""
    x = _features(net, features)
    trunk = _stack_forward(net.shared_layers, x)
    return _heads_forward(net, ForwardCache(x, *trunk, [], [], []))


def _heads_forward(net: SharedBottomNet, cache: ForwardCache) -> tuple[np.ndarray, ForwardCache]:
    """Run every head on the cached trunk output; returns logits and a new cache."""
    pres, masks, acts = _stack_forward(net.head_layers, cache.trunk_act[-1])
    logits = pres[-1][..., 0].T  # the output layer is the identity
    if not np.all(np.isfinite(logits)):
        raise EvaluationError("forward produced non-finite logits")
    trunk = cache.trunk_pre, cache.trunk_mask, cache.trunk_act
    return logits, ForwardCache(cache.features, *trunk, pres, masks, acts[1:])


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function; saturates to exactly 0 or 1 with no overflow warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


_BLOCK_ROWS = 1024


def _row_blocks(n: int) -> list[slice]:
    """Slices covering rows 0..n, each starting at a multiple of ``_BLOCK_ROWS``.

    A final one-row block joins the block before it. Both rules keep a
    blocked pass bitwise equal to one unblocked pass: a BLAS product takes
    rows in fixed-size groups counted from its first row, with other kernels
    for a leftover group, and numpy hands a one-row product to gemv; either
    can round a row differently.
    """
    starts = list(range(0, n, _BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def predict_proba(net: SharedBottomNet, features: np.ndarray) -> np.ndarray:
    """Per-task probabilities, shape (n, T), one block of rows at a time."""
    x = _features(net, features)
    logits = np.empty((x.shape[0], net.num_tasks))
    for rows in _row_blocks(x.shape[0]):
        logits[rows] = forward(net, x[rows])[0]
    return sigmoid(logits)


def trunk_activations(net: SharedBottomNet, features: np.ndarray) -> np.ndarray:
    """Last shared-layer activations, shape (n, trunk_width), one block of rows
    at a time; heads untouched."""
    x = _features(net, features)
    out = np.empty((x.shape[0], net.trunk_width))
    for rows in _row_blocks(x.shape[0]):
        out[rows] = _stack_forward(net.shared_layers, x[rows])[2][-1]
    return out


def task_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy computed in the stable logit form."""
    z = np.asarray(logits, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if z.size != y.size:
        raise DimensionError(f"{z.size} logits vs {y.size} labels")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise DataError("labels must be binary 0/1")
    return float(_bce(z, y))


def _bce(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``task_loss`` without its checks, for float64 logits and 0/1 labels of
    one shape: the mean over the last axis, so (T, n) gives T losses."""
    # max(z,0) - z*y + log(1 + exp(-|z|)) avoids overflow for large |z|.
    per_row = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return np.add.reduce(per_row, axis=-1) / z.shape[-1]


def _masked(mask: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """``x`` times a layer's activation slope, given its relu mask (None for the identity)."""
    return x if mask is None else x * mask


def _stack_backward(
    layers: list[DenseLayer] | list[StackedLayer], masks: list, inputs: list | None,
    grad_out: np.ndarray, slots: list[tuple[slice, slice]] | None, grad: np.ndarray | None,
    deltas: list | None = None,
) -> np.ndarray:
    """Backpropagate ``grad_out``, the (k, n, width) loss gradients of k stacked
    tasks at the stack's output.

    Writes each layer's weight and bias gradient into row r of ``grad`` (if
    given) at its slot, given layer i's relu mask ``masks[i]`` and input
    ``inputs[i]``, and returns the gradient at the first layer's
    pre-activation. ``deltas[i]`` (if given) receives the gradient at layer
    i's pre-activation.
    """
    delta = grad_out
    for i in range(len(layers) - 1, -1, -1):
        delta = _masked(masks[i], delta)
        if deltas is not None:
            deltas[i] = delta
        if grad is not None:
            w, b = slots[i]
            grad[:, w] = (inputs[i].swapaxes(-1, -2) @ delta).reshape(len(grad), -1)
            grad[:, b] = delta.sum(axis=-2)
        if i > 0:
            delta = delta @ layers[i].weights.swapaxes(-1, -2)
    return delta


def backward_task(
    net: SharedBottomNet,
    cache: ForwardCache,
    labels: np.ndarray,
    task_id: int,
) -> tuple[ParamVector, ParamVector]:
    """Analytic gradients of one task's mean BCE loss.

    Returns (grad over shared trunk, grad over that task's head) in the net's
    ``theta_layout`` / ``phi_layouts[task_id]``: row ``task_id`` of the T-task pass.
    """
    y = _checked_labels(net, cache, labels, task_id)
    grad_theta, grad_phi = np.empty((net.num_tasks, net.theta.size)), np.empty(net.phi.shape)
    _backward(net, cache, y, grad_phi, grad_theta)
    return (
        ParamVector(grad_theta[task_id], net.theta_layout),
        ParamVector(grad_phi[task_id], net.phi_layouts[task_id]),
    )


def _checked_labels(
    net: SharedBottomNet, cache: ForwardCache, labels: np.ndarray, task: int
) -> np.ndarray:
    """``labels`` in every row of a float64 (T, n) array, once ``task`` and ``cache`` fit."""
    if not 0 <= task < net.num_tasks:
        raise DimensionError(f"task_id {task} out of range")
    layers = len(cache.trunk_pre), len(cache.heads_pre)
    if layers != (len(net.shared_layers), len(net.head_layers)):
        raise DimensionError("stale cache: layer count mismatch")
    n = cache.features.shape[0]
    y = np.asarray(labels, dtype=np.float64).ravel()
    if y.size != n:
        raise DimensionError(f"{y.size} labels for batch of {n}")
    if cache.heads_pre[-1].shape[:2] != (net.num_tasks, n):
        raise DimensionError("stale cache: task count or batch size mismatch")
    return np.broadcast_to(y, (net.num_tasks, n))


def _backward(
    net: SharedBottomNet, cache: ForwardCache, labels: np.ndarray,
    grad_phi: np.ndarray | None = None, grad_theta: np.ndarray | None = None,
    deltas: list | None = None,
) -> None:
    """Backpropagate the mean BCE of every task on the (T, n) ``labels``.

    Writes row t of ``grad_phi`` (T, P_h) and ``grad_theta`` (T, P) for task
    t, and ``deltas[i]``, the (T, n, width) gradient at trunk pre-activation
    i, each only if given: with neither ``grad_theta`` nor ``deltas`` the
    trunk is skipped.
    """
    layers = net.head_layers
    # Mean-reduced BCE with logits: dL/dz = (sigmoid(z) - y) / n.
    delta = (sigmoid(cache.heads_pre[-1]) - labels[..., None]) / labels.shape[-1]
    inputs = [cache.trunk_act[-1], *cache.heads_act]
    delta = _stack_backward(layers, cache.heads_mask, inputs, delta, net._phi_slots, grad_phi)
    if (grad_theta is not None or deltas is not None) and net.shared_layers:
        _stack_backward(  # head input gradient = trunk output gradient
            net.shared_layers, cache.trunk_mask, cache.trunk_act,
            delta @ layers[0].weights.swapaxes(-1, -2), net._theta_slots, grad_theta, deltas,
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
    _backward(net, cache, y, deltas=deltas)
    stacked = _trunk_hvp(net, cache, deltas)

    def hvp(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64).ravel()
        if v.size != net.theta.size:
            raise DimensionError(f"direction has {v.size} entries, the trunk {net.theta.size}")
        return stacked(np.broadcast_to(v, (net.num_tasks, v.size)))[task]

    return hvp


def _trunk_hvp(
    net: SharedBottomNet, cache: ForwardCache, deltas: list
) -> Callable[[np.ndarray], np.ndarray]:
    """``task_hvp`` of every task at once: ``V -> HV`` for (T, P) arrays, row
    t of HV being task t's H times ``V[t]``.

    ``deltas`` holds the tasks' (T, n, width) loss gradients at each trunk
    pre-activation.
    """
    trunk, slots = net.shared_layers, net._theta_slots
    layers, pres, masks = net.head_layers, cache.heads_pre, cache.heads_mask
    k, n = pres[-1].shape[:2]
    # Each row's logit gradient at the trunk output. The head is fixed and its
    # relu pattern too, so a tangent crosses it along this row, and so does
    # its R-backward.
    jac = _stack_backward(layers, masks, None, np.ones((k, n, 1)), None, None)
    jac = jac @ layers[0].weights.swapaxes(-1, -2)
    p = sigmoid(pres[-1])
    curvature = p * (1.0 - p) / n  # the mean BCE's second derivative in the logit

    def hvp(V: np.ndarray) -> np.ndarray:
        if not trunk:
            return np.zeros((k, 0))
        tangents = [
            (V[:, w].reshape(k, *lay.weights.shape), V[:, b][:, None])
            for lay, (w, b) in zip(trunk, slots)
        ]
        # Tangent forward: R(z_i) = R(a_i) W_i + a_i dW_i + db_i, and R(a_0) = 0.
        r_acts = [None]
        for i, (layer, (dw, db)) in enumerate(zip(trunk, tangents)):
            r_pre = cache.trunk_act[i] @ dw + db
            if i:
                r_pre += r_acts[i] @ layer.weights
            r_acts.append(_masked(cache.trunk_mask[i], r_pre))
        r_logit = np.sum(r_acts[-1] * jac, axis=-1, keepdims=True)
        r_delta = curvature * r_logit * jac  # R(dL/da) at the trunk output
        # Down the trunk: R(dL/dW_i) = a_i' R(delta_i) + R(a_i)' delta_i, and
        # R(delta) crosses a layer as R(delta_i) W_i' + delta_i dW_i'.
        out = np.empty((k, net.theta.size))
        for i in range(len(trunk) - 1, -1, -1):
            r_delta = _masked(cache.trunk_mask[i], r_delta)
            w, b = slots[i]
            grad_w = cache.trunk_act[i].T @ r_delta
            out[:, b] = r_delta.sum(axis=-2)
            if i:
                grad_w += r_acts[i].swapaxes(-1, -2) @ deltas[i]
                r_delta = r_delta @ trunk[i].weights.T + deltas[i] @ tangents[i][0].swapaxes(-1, -2)
            out[:, w] = grad_w.reshape(k, -1)
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
        grad_theta = np.empty((1, probe.theta.size))
        _backward(probe, cache, y[None], grad_theta=grad_theta)
        return grad_theta[0]

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
