"""Multi-task training loop, optimizers, instrumentation, and the probe.

One training step on a batch runs the trunk forward once, and each head
layer, the trunk backward and the curvature products once for all T tasks,
over a leading task axis:

1. one stacked head backward pass gives every head its own task's loss
   gradient, as one (T, P_h) array; each row is scaled by its task's loss
   weight, and one optimizer step updates the whole (T, P_h) heads buffer,
2. re-run the heads on the cached trunk activations, then take one stacked
   head and trunk backward pass, which writes task t's gradient over the P
   shared parameters into row t of one (T, P) array,
3. pass that array through the configured gradient strategy, which returns
   the modified gradients as another (T, P) array; exact-HVP coordination
   takes every task's R-op product in one stacked call,
4. apply one optimizer step to the trunk on the weighted sum of its rows.

Head updates never see the strategy: gradient coordination acts on shared
parameters only. Everything a run updates (optimizer moments, magnitude
balancing's moving norms) is created inside ``train``, so runs are bitwise
deterministic given the config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    EvaluationError,
    ProbeError,
    UndefinedMetricError,
)
from .gradmod import (
    StrategyConfig,
    TransferenceRecord,
    measure_transference,
    modify_gradients,
    pairwise_cosine,
)
from .metrics import evaluate_auc, evaluate_gauc, loss_weights_from_prior
from .model import (
    SharedBottomNet,
    _bce,
    backward,
    forward,
    heads_forward,
    predict_proba,
    sigmoid,
    task_loss,
    trunk_activations,
    trunk_hvp,
)
from .tasks_data import DatasetSplits, MultiTaskDataset, batches, write_table

_OPTIMIZERS = ("adam", "sgd")
_BETA1, _BETA2, _EPS_HAT = 0.9, 0.999, 1e-8  # Adam's decay rates and denominator offset


@dataclass
class AdamState:
    """First and second moment accumulators for one parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0

    @classmethod
    def zeros(cls, shape: int | tuple[int, ...]) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape))


def adam_step(params, grad, state: AdamState, eta: float) -> np.ndarray:
    """One bias-corrected Adam update; advances ``state`` in place."""
    p = np.asarray(params, dtype=np.float64)
    g = np.asarray(grad, dtype=np.float64)
    if p.size != g.size or p.size != state.m.size:
        raise ConfigError(
            f"size mismatch: {p.size} params, {g.size} grads, {state.m.size} state"
        )
    state.step_count += 1
    # New moment arrays: updated in place, a wide trunk's heap was re-faulted each step.
    state.m = _BETA1 * state.m + (1.0 - _BETA1) * g
    state.v = _BETA2 * state.v + (1.0 - _BETA2) * g * g
    scale = state.v / (1.0 - _BETA2**state.step_count)
    np.sqrt(scale, out=scale)
    scale += _EPS_HAT
    update = state.m / (1.0 - _BETA1**state.step_count)
    update *= eta
    update /= scale
    return np.subtract(p, update, out=update)


def sgd_step(params, grad, eta: float) -> np.ndarray:
    """Plain gradient-descent update."""
    p = np.asarray(params, dtype=np.float64)
    g = np.asarray(grad, dtype=np.float64)
    if p.size != g.size:
        raise ConfigError(f"size mismatch: {p.size} params, {g.size} grads")
    return p - eta * g


@dataclass(frozen=True)
class TrainConfig:
    """Settings for one training run.

    ``loss_weights`` is a per-task tuple, the string "prior" (inverse label
    entropy, favoring sparse tasks), or None for uniform weights.
    ``eval_every`` / ``transference_every`` of 0 disable that instrumentation.
    """

    steps: int
    batch_size: int
    learning_rate: float
    strategy: StrategyConfig
    loss_weights: tuple[float, ...] | str | None = None
    eval_every: int = 0
    seed: int = 0
    optimizer: str = "adam"
    shuffle: bool = True
    transference_every: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.optimizer not in _OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {_OPTIMIZERS}")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be non-negative")
        if self.transference_every < 0:
            raise ConfigError("transference_every must be non-negative")
        if isinstance(self.loss_weights, str) and self.loss_weights != "prior":
            raise ConfigError('loss_weights must be a tuple, "prior", or None')
        if isinstance(self.loss_weights, (tuple, list)):
            object.__setattr__(self, "loss_weights", tuple(float(w) for w in self.loss_weights))
            if any(w <= 0 for w in self.loss_weights):
                raise ConfigError("loss_weights must be positive")


@dataclass
class StepRecord:
    step: int
    losses: tuple[float, ...]  # per-task batch loss after the head update
    cosines: np.ndarray  # (T, T) over raw trunk gradients


@dataclass
class EvalRecord:
    step: int
    metric: str  # "auc" or "gauc"
    values: tuple[float, ...]


@dataclass
class MetricsLog:
    """Per-step and per-eval records of one training run."""

    num_tasks: int
    steps: list[StepRecord] = field(default_factory=list)
    evals: list[EvalRecord] = field(default_factory=list)
    transference: list[TransferenceRecord] = field(default_factory=list)

    def add_step(self, record: StepRecord) -> None:
        if self.steps and record.step <= self.steps[-1].step:
            raise ConfigError("step records must be strictly increasing")
        self.steps.append(record)

    def add_eval(self, record: EvalRecord) -> None:
        if self.evals and record.step <= self.evals[-1].step:
            raise ConfigError("eval records must be strictly increasing")
        self.evals.append(record)


def _resolve_weights(cfg: TrainConfig, train_ds: MultiTaskDataset) -> np.ndarray:
    if cfg.loss_weights is None:
        return np.ones(train_ds.n_tasks)
    if cfg.loss_weights == "prior":
        return loss_weights_from_prior(train_ds.labels)
    weights = np.asarray(cfg.loss_weights, dtype=np.float64)
    if weights.size != train_ds.n_tasks:
        raise ConfigError(f"{weights.size} loss weights for {train_ds.n_tasks} tasks")
    return weights


def _optimizer_step(params, grad, state: AdamState | None, eta: float, step: int) -> np.ndarray:
    """One Adam update when ``state`` is given, else one SGD update.

    A non-finite gradient or Adam moment raises DivergenceError naming
    ``step``: an overflowed second moment would otherwise freeze the
    parameters silently. So does a non-finite update, which would otherwise
    surface only at the next forward pass, or after training on the last step.
    """
    if state is None:
        new, finite = sgd_step(params, grad, eta), np.isfinite(grad).all()
    else:  # a non-finite gradient leaves a non-finite first moment
        new = adam_step(params, grad, state, eta)
        finite = np.isfinite(state.m).all() and np.isfinite(state.v).all()
    if not finite:
        raise DivergenceError(
            f"training diverged at step {step}: non-finite gradient or optimizer moment"
        )
    if not np.isfinite(new).all():
        raise DivergenceError(f"training diverged at step {step}: non-finite parameter update")
    return new


def evaluate_split(net: SharedBottomNet, ds: MultiTaskDataset, split_name: str) -> EvalRecord:
    """Ranking metric of every task on one split: GAUC when it has groups, else AUC.

    An undefined metric (a task with one label class) names ``split_name``
    and the task.
    """
    return _rank_split(predict_proba(net, ds.features), ds, split_name)


def check_split_rankable(ds: MultiTaskDataset, split_name: str) -> None:
    """Raise DataError, with ``evaluate_split``'s message, if it could not rank ``ds``.

    Whether a task's AUC or GAUC is defined depends only on its labels and
    groups, so ranking constant scores is an exact check.
    """
    try:
        _rank_split(np.zeros((ds.n_rows, ds.n_tasks)), ds, split_name)
    except UndefinedMetricError as exc:
        raise DataError(str(exc)) from None


def _rank_split(scores: np.ndarray, ds: MultiTaskDataset, split_name: str) -> EvalRecord:
    """``evaluate_split`` on the (n, T) ``scores`` of ``ds``'s rows."""
    metric = "gauc" if ds.group_ids is not None else "auc"
    values = []
    for t in range(ds.n_tasks):
        try:
            if metric == "gauc":
                values.append(evaluate_gauc(scores[:, t], ds.labels[:, t], ds.group_ids))
            else:
                values.append(evaluate_auc(scores[:, t], ds.labels[:, t]))
        except UndefinedMetricError as exc:
            raise UndefinedMetricError(f"{split_name} split, task {t}: {exc}") from None
    return EvalRecord(step=0, metric=metric, values=tuple(values))


def train(
    net: SharedBottomNet,
    splits: DatasetSplits,
    cfg: TrainConfig,
    step_callback: Callable[[int, SharedBottomNet], None] | None = None,
) -> tuple[SharedBottomNet, MetricsLog]:
    """Run the two-phase step loop for ``cfg.steps`` batches.

    Evaluates ranking metrics on the validation split every ``eval_every``
    steps. ``step_callback(step, net)`` fires after each trunk update, for
    checkpoint capture. Aborts with the step index if any loss, gradient,
    optimizer moment or parameter goes non-finite. Batches are row indices into the
    train split, and each update is written into the net's own parameter
    buffers; the net is also returned.
    """
    num_tasks, data, lr = net.num_tasks, splits.train, cfg.learning_rate
    if data.n_tasks != num_tasks:
        raise ConfigError(f"net has {num_tasks} heads, data has {data.n_tasks} tasks")
    cfg.strategy.check_tasks(num_tasks)
    weights = _resolve_weights(cfg, data)
    log = MetricsLog(num_tasks=num_tasks)

    use_adam = cfg.optimizer == "adam"
    theta_state = AdamState.zeros(net.theta.size) if use_adam else None
    heads_state = AdamState.zeros(net.phi.shape) if use_adam else None
    moving_norms = np.zeros(num_tasks)

    # Overflow and invalid values raise DivergenceError naming the step, by
    # the checks below; numpy's warnings would only repeat them on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        step = 0
        epoch = 0
        while step < cfg.steps:
            shuffle_seed = cfg.seed * 1_000_003 + epoch if cfg.shuffle else None
            for rows in batches(data.n_rows, cfg.batch_size, shuffle_seed):
                step += 1
                x = data.features.take(rows, axis=0)
                y = data.labels.take(rows, axis=0).T.copy()  # (T, n): row t is task t's
                try:
                    # Phase 1: every head steps on its own task's weighted loss gradient.
                    _, cache = forward(net, x)
                    grad_heads = np.empty(net.phi.shape)
                    backward(net, cache, y, grad_phi=grad_heads)
                    grad_heads *= weights[:, None]
                    net.phi[...] = _optimizer_step(net.phi, grad_heads, heads_state, lr, step)

                    # Phase 2: per-task trunk gradients at the updated heads (same trunk pass).
                    logits, cache = heads_forward(net, cache)
                except EvaluationError as exc:
                    raise DivergenceError(f"training diverged at step {step}: {exc}") from exc
                losses = _bce(logits.T, y)
                if not np.isfinite(losses).all():
                    raise DivergenceError(f"training diverged at step {step}: non-finite loss")
                raw_grads = np.empty((num_tasks, net.theta.size))
                deltas = [None] * len(net.shared_layers)
                backward(net, cache, y, grad_theta=raw_grads, deltas=deltas)

                if cfg.transference_every and step % cfg.transference_every == 0:
                    gammas = cfg.strategy.probe_gammas(num_tasks)
                    log.transference.extend(
                        measure_transference(step, net, x, y, losses, raw_grads, gammas)
                    )

                hvp_fns = None
                if cfg.strategy.kind == "cograd_exact_hvp":
                    hvp_fns = trunk_hvp(net, cache, deltas)
                modified = modify_gradients(
                    raw_grads,
                    cfg.strategy,
                    order_seed=cfg.seed * 1_000_003 + step,
                    moving_norms=moving_norms,
                    hvp_fns=hvp_fns,
                )

                aggregate = np.add.reduce(weights[:, None] * modified, axis=0)
                net.theta[...] = _optimizer_step(net.theta, aggregate, theta_state, lr, step)

                cosines = pairwise_cosine(raw_grads)
                log.add_step(StepRecord(step=step, losses=tuple(losses.tolist()), cosines=cosines))
                # Released here, or they would live through the next step's forward pass.
                del cache, deltas, raw_grads, modified, hvp_fns, aggregate
                if cfg.eval_every and step % cfg.eval_every == 0:
                    record = evaluate_split(net, splits.val, "validation")
                    log.add_eval(EvalRecord(step=step, metric=record.metric, values=record.values))
                if step_callback is not None:
                    step_callback(step, net)
                if step == cfg.steps:
                    break
            epoch += 1
    return net, log


def save_metrics(log: MetricsLog, directory: str | Path) -> None:
    """Write the log as plot-ready CSVs.

    metrics_steps.csv: step, loss_<t>..., cos_<i>_<j>... (upper-triangle pairs)
    metrics_eval.csv: step, metric, task_<t>...
    metrics_transference.csv: step, source_task, target_task, exact_delta,
    first_order, gamma_used (written only when records exist).
    Floats use repr formatting, so reruns reproduce files byte for byte.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tasks = range(log.num_tasks)
    pairs = [(i, j) for i in tasks for j in range(i + 1, log.num_tasks)]
    write_table(
        directory / "metrics_steps.csv",
        ["step"] + [f"loss_{t}" for t in tasks] + [f"cos_{i}_{j}" for i, j in pairs],
        ([r.step, *r.losses] + [r.cosines[i, j] for i, j in pairs] for r in log.steps),
    )
    write_table(
        directory / "metrics_eval.csv",
        ["step", "metric"] + [f"task_{t}" for t in tasks],
        ([r.step, r.metric, *r.values] for r in log.evals),
    )
    if log.transference:
        write_table(
            directory / "metrics_transference.csv",
            ["step", "source_task", "target_task", "exact_delta", "first_order", "gamma_used"],
            (
                [r.step, r.source_task, r.target_task, r.exact_delta, r.first_order, r.gamma_used]
                for r in log.transference
            ),
        )


@dataclass(frozen=True)
class ProbeConfig:
    """Settings for the knowledge-harmonization probe."""

    grad_tol: float = 1e-6
    max_iters: int = 100
    n_bins: int = 41
    bin_halfwidth: float = 0.05
    band: float = 0.01  # |difference| below this counts as general knowledge
    tasks: tuple[int, int] = (0, 1)

    def __post_init__(self) -> None:
        for name in ("grad_tol", "bin_halfwidth", "band"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if 2.0 * self.bin_halfwidth == math.inf:  # the bins span twice it
            raise ConfigError(f"bin_halfwidth: {self.bin_halfwidth!r} doubled is not finite")
        if self.max_iters < 0:
            raise ConfigError("max_iters must be non-negative")
        if self.n_bins < 1:
            raise ConfigError("n_bins must be at least 1")
        if len(self.tasks) != 2 or self.tasks[0] == self.tasks[1] or min(self.tasks) < 0:
            raise ConfigError("tasks must be two distinct non-negative task indices")


@dataclass
class ProbeResult:
    diffs: np.ndarray  # per-hidden-unit importance difference, task a - task b
    importances: np.ndarray  # (2, width), each row sums to 1
    bin_centers: np.ndarray
    counts: np.ndarray  # histogram of clipped diffs; sums to the trunk width
    general_share: float  # fraction of units inside the band
    iters_used: tuple[int, int]


def _fit_probe_head(
    activations: np.ndarray, labels: np.ndarray, cfg: ProbeConfig, task: int
) -> tuple[np.ndarray, int]:
    """Logistic fit by damped Newton steps; returns weights and iterations.

    Plain full-batch gradient descent stalls far above the stopping
    tolerance on near-separable activations, so the readout is driven to
    convergence with Newton steps plus backtracking instead.
    """
    n, width = activations.shape
    design = np.hstack([activations, np.ones((n, 1))])
    w = np.zeros(width + 1)
    logits = design @ w
    loss = task_loss(logits, labels)
    grad_norm = np.inf
    for it in range(cfg.max_iters + 1):
        p = sigmoid(logits)
        grad = design.T @ ((p - labels) / n)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < cfg.grad_tol:
            return w[:-1], it
        if it == cfg.max_iters:
            break
        curvature = np.maximum(p * (1.0 - p), 1e-12) / n
        hess = design.T @ (curvature[:, None] * design) + 1e-10 * np.eye(width + 1)
        step = np.linalg.solve(hess, grad)
        scale = 1.0
        candidate_logits = logits
        candidate_loss = loss
        for _ in range(40):
            candidate_logits = design @ (w - scale * step)
            candidate_loss = task_loss(candidate_logits, labels)
            if candidate_loss <= loss + 1e-15:
                break
            scale *= 0.5
        w = w - scale * step
        logits = candidate_logits
        loss = candidate_loss
    raise ProbeError(
        f"task {task}: probe gradient norm {grad_norm:.3e} still above "
        f"{cfg.grad_tol:.1e} after {cfg.max_iters} iterations"
    )


def probe_harmonization(
    net: SharedBottomNet, ds: MultiTaskDataset, cfg: ProbeConfig = ProbeConfig()
) -> ProbeResult:
    """Measure how evenly trunk units serve two tasks.

    Freezes the trunk, fits one fresh logistic readout per task from the
    last shared layer, normalizes each absolute weight vector to sum 1, and
    histograms the per-unit difference. Mass near zero is knowledge both
    tasks use; mass in the tails is task-specific.
    """
    a, b = cfg.tasks
    if max(a, b) >= ds.n_tasks:
        raise ConfigError(f"probe needs two distinct tasks within {ds.n_tasks}")
    activations = trunk_activations(net, ds.features)

    importances = []
    iters = []
    for task in (a, b):
        w, used = _fit_probe_head(activations, ds.labels[:, task], cfg, task)
        total = float(np.sum(np.abs(w)))
        if total == 0.0:
            raise ProbeError(f"task {task}: probe converged to an all-zero weight vector")
        importances.append(np.abs(w) / total)
        iters.append(used)

    diffs = importances[0] - importances[1]
    hw = cfg.bin_halfwidth
    try:
        edges = np.linspace(-hw, hw, cfg.n_bins + 1)
        counts, _ = np.histogram(np.clip(diffs, -hw, hw), edges)
        centers = (edges[:-1] + edges[1:]) / 2.0
    except MemoryError:
        raise ConfigError(
            f"probe.n_bins: {cfg.n_bins + 1} float64 bin edges do not fit in memory"
        ) from None
    return ProbeResult(
        diffs=diffs,
        importances=np.stack(importances),
        bin_centers=centers,
        counts=counts,
        general_share=float(np.mean(np.abs(diffs) < cfg.band)),
        iters_used=(iters[0], iters[1]),
    )
