"""Gradient coordination for shared multi-task parameters.

Quantifies inter-task transference (how one task's virtual update moves
another task's loss) and implements gradient modifications over the shared
parameters. ``transfer_exact`` is the definition; ``measure_transference``
takes every ordered pair of a step on the live net, in T forward passes.

- ``cograd_modify``: descend each task's loss while pushing transference up,
  using the squared-gradient curvature surrogate H_i v ~ lam * g_i (.) g_i (.) v.
- ``cograd_modify_exact_hvp``: the same correction with true Hessian-vector
  products, taken by one stacked product of every task at once (training
  passes ``model.trunk_hvp``'s R-op); central differences of gradient
  functions remain only as an adapter in ``modify_gradients``.
- ``pcgrad_modify``: project conflicting gradients onto partner normal planes.
- ``magnitude_balance``: scale gradients toward the anchor task's moving norm.

The T per-task gradients over the P shared parameters are one (T, P) float64
array, row t being task t's gradient; every strategy also accepts a sequence
of equal-length vectors, reads it as that array, and returns a new (T, P)
array. Every modified gradient is computed from the original
(pre-modification) gradients simultaneously; only pcgrad is sequential,
following its source method. Inputs are never mutated; the only state a
strategy keeps between steps, magnitude balancing's moving norms, is an array
owned by the caller's run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateGradientError,
    DimensionError,
    EvaluationError,
)
from .model import SharedBottomNet, _bce, forward
from .tensor_core import finite_diff_hvp

STRATEGY_KINDS = ("sum", "cograd", "cograd_exact_hvp", "pcgrad", "magnitude_balance")

# Probes pair tasks at a gamma below typical learning rates when a strategy
# carries no positive gamma of its own.
_DEFAULT_PROBE_GAMMA = 0.1


@dataclass
class TransferenceRecord:
    """Measured effect of task i's virtual update on task j's loss."""

    step: int
    source_task: int
    target_task: int
    exact_delta: float
    first_order: float
    gamma_used: float

    def __post_init__(self) -> None:
        if self.gamma_used <= 0:
            raise ConfigError("gamma_used must be positive")


@dataclass(frozen=True)
class StrategyConfig:
    """Selects and parameterizes one gradient strategy; an immutable value.

    ``gammas`` are the per-task virtual learning rates of the transference
    correction (zero disables a task's contribution); ``lam`` scales the
    curvature surrogate; ``relax`` softens magnitude balancing.
    """

    kind: str
    gammas: tuple[float, ...] = ()
    lam: float = 1.0
    relax: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"kind must be one of {STRATEGY_KINDS}, got {self.kind!r}")
        if any(g < 0 for g in self.gammas):
            raise ConfigError("gammas must be non-negative")
        if self.lam <= 0:
            raise ConfigError("lam must be positive")
        if not 0.0 <= self.relax <= 1.0:
            raise ConfigError("relax must lie in [0, 1]")

    def check_tasks(self, num_tasks: int) -> None:
        if self.kind in ("cograd", "cograd_exact_hvp") and len(self.gammas) != num_tasks:
            raise ConfigError(
                f"gammas: strategy {self.kind!r} needs one gamma per task "
                f"({num_tasks}), got {len(self.gammas)}"
            )

    def probe_gammas(self, num_tasks: int) -> list[float]:
        """Per-task gammas for transference probes; unset or zero ones fall back."""
        gammas = list(self.gammas) + [0.0] * (num_tasks - len(self.gammas))
        return [g if g > 0 else _DEFAULT_PROBE_GAMMA for g in gammas]


def _values(grad) -> np.ndarray:
    return np.asarray(grad, dtype=np.float64)


def _matrix(grads) -> np.ndarray:
    """``grads`` as one (T, P) float64 array: a 2-D array as given (uncopied
    when already float64), or a sequence of equal-length vectors stacked."""
    if isinstance(grads, np.ndarray) and grads.ndim == 2:
        return grads.astype(np.float64, copy=False)
    rows = [_values(g).ravel() for g in grads]
    sizes = sorted({r.size for r in rows})
    if len(sizes) > 1:
        raise DimensionError(f"gradient lengths differ: {sizes}")
    return np.array(rows).reshape(len(rows), sizes[0] if sizes else 0)


def transfer_exact(
    loss_j: Callable[[np.ndarray], float],
    theta,
    g_i,
    gamma_i: float,
) -> float:
    """Lookahead loss change L_j(theta) - L_j(theta - gamma_i * g_i).

    The update is virtual; ``theta`` is not mutated. Positive means task i's
    step would also reduce task j's loss.
    """
    if gamma_i <= 0:
        raise ConfigError("gamma_i must be positive")
    th = _values(theta)
    gi = _values(g_i)
    if th.size != gi.size:
        raise DimensionError(f"theta has {th.size} entries, g_i has {gi.size}")
    before = float(loss_j(th.copy()))
    after = float(loss_j(th - gamma_i * gi))
    if not (np.isfinite(before) and np.isfinite(after)):
        raise EvaluationError("non-finite loss during lookahead evaluation")
    return before - after


def transfer_first_order(g_i, g_j, gamma_i: float) -> float:
    """First-order transference gamma_i * (g_i . g_j)."""
    gi = _values(g_i)
    gj = _values(g_j)
    if gi.size != gj.size:
        raise DimensionError(f"g_i has {gi.size} entries, g_j has {gj.size}")
    return float(gamma_i * np.dot(gi, gj))


def measure_transference(
    step: int, net: SharedBottomNet, features: np.ndarray, labels: np.ndarray,
    losses: np.ndarray, grads, gammas: Sequence[float],
) -> list[TransferenceRecord]:
    """Exact and first-order transference for every ordered task pair (i, j), in order.

    ``losses`` and ``grads`` are the T losses and (T, P) trunk gradients of
    ``features`` on the C-contiguous (T, n) ``labels`` at ``net.theta``. One
    forward pass of every head at ``theta - gammas[i] * grads[i]``, written into
    ``net.theta`` and restored even if it raises, gives source task i's
    lookahead losses: bitwise ``transfer_exact`` of each one-head loss.
    """
    G = _matrix(grads)
    theta, after = net.theta.copy(), np.empty((len(G), len(G)))
    try:
        for i in range(len(G)):
            net.theta[...] = theta - gammas[i] * G[i]
            after[i] = _bce(forward(net, features)[0].T, labels)
    finally:
        net.theta[...] = theta
    if not np.isfinite(after).all():
        raise EvaluationError("non-finite loss during lookahead evaluation")
    return [
        TransferenceRecord(step, i, j, float(losses[j] - after[i, j]),
                           transfer_first_order(G[i], G[j], gammas[i]), float(gammas[i]))
        for i in range(len(G)) for j in range(len(G)) if i != j
    ]


def approx_hvp(g_owner, direction, lam: float = 1.0) -> np.ndarray:
    """Squared-gradient surrogate for H_owner . direction: lam * g^2 (.) direction."""
    if lam <= 0:
        raise ConfigError("lam must be positive")
    go = _values(g_owner)
    d = _values(direction)
    if go.size != d.size:
        raise DimensionError(f"owner gradient has {go.size} entries, direction has {d.size}")
    return lam * go * go * d


def cograd_modify(grads, cfg: StrategyConfig) -> np.ndarray:
    """Transference-raising modification g_i - sum_{j!=i} gamma_j*lam*g_i(.)g_i(.)g_j.

    All rows come from the original gradients simultaneously, as
    G - lam*G(.)G(.)(W @ G) with W = gamma (.) (1 - I). With every gamma
    zero, or a single task, the output is a bitwise copy of the input.
    """
    G = _matrix(grads)
    cfg.check_tasks(len(G))
    # Null cases return untouched copies so downstream arithmetic is bitwise
    # identical to the plain sum baseline.
    if len(G) == 1 or all(g == 0.0 for g in cfg.gammas):
        return G.copy()
    pull = (np.asarray(cfg.gammas) * (1.0 - np.eye(len(G)))) @ G
    return G - approx_hvp(G, pull, cfg.lam)


def cograd_modify_exact_hvp(
    grads, hvp_fns: Callable[[np.ndarray], np.ndarray], cfg: StrategyConfig
) -> np.ndarray:
    """Reference variant with true curvature: g_i - sum_{j!=i} gamma_j * H_i g_j.

    H_i is task i's Hessian over the shared parameters. ``hvp_fns`` is one
    stacked product, mapping a (T, P) array V to the (T, P) array whose row i
    is H_i V[i], such as ``model.trunk_hvp``'s. Each row subtracts its
    partners' terms in ascending j, one stacked product per round, and each
    ordered task pair takes its own product of the unscaled partner gradient,
    so the correction is linear in gamma even for a product that is not
    linear in its direction.
    """
    G = _matrix(grads)
    cfg.check_tasks(len(G))
    out = G.copy()
    tasks = np.arange(len(G))
    gammas = np.asarray(cfg.gammas)
    for k in range(len(G) - 1):
        partners = np.where(tasks > k, k, k + 1)  # row i's k-th partner j != i, counting up
        scales = gammas[partners]
        live = scales != 0.0
        if live.any():
            out[live] -= (scales[:, None] * hvp_fns(G[partners]))[live]
    return out


def pcgrad_modify(
    grads,
    order_seed: int | None = None,
    order: Sequence[int] | None = None,
) -> np.ndarray:
    """Sequentially project each gradient off conflicting partners.

    Task i's gradient is projected onto the normal plane of every original
    partner gradient it conflicts with (negative inner product), in a seeded
    random task order; ``order`` pins the traversal explicitly instead.
    """
    G = _matrix(grads)
    n = len(G)
    if order is not None:
        traversal = np.asarray(order, dtype=int)
        if sorted(traversal.tolist()) != list(range(n)):
            raise ConfigError(f"order must be a permutation of 0..{n - 1}")
    elif order_seed is not None:
        traversal = np.random.default_rng(order_seed).permutation(n)
    else:
        traversal = np.arange(n)
    out = np.empty_like(G)
    for i in traversal:
        projected = G[i].copy()
        for j in traversal:
            if j == i:
                continue
            partner = G[j]  # original gradient, never the projected one
            dot = float(np.dot(projected, partner))
            if dot < 0.0:
                norm_sq = float(np.dot(partner, partner))
                if norm_sq == 0.0:
                    raise DegenerateGradientError(
                        f"task {i} conflicts with zero-norm gradient of task {j}"
                    )
                projected -= (dot / norm_sq) * partner
        out[i] = projected
    return out


def magnitude_balance(grads, cfg: StrategyConfig, moving_norms: np.ndarray) -> np.ndarray:
    """Scale non-anchor gradients toward the anchor task's moving-average norm.

    ``moving_norms`` holds one running norm per task, zeros at the start of a
    run, and is updated in place as m_t <- 0.9 m_t + 0.1 ||g_t|| before
    scaling. Each task t > 0 is scaled by (m_0 / m_t)^relax; task 0 is the
    anchor and passes through unscaled.
    """
    G = _matrix(grads)
    if moving_norms.shape != (len(G),):
        raise DimensionError(
            f"moving norms track {moving_norms.size} tasks, got {len(G)} gradients"
        )
    # Per-row norms: np.linalg.norm(G, axis=1) rounds differently.
    moving_norms *= 0.9
    moving_norms += 0.1 * np.array([np.linalg.norm(g) for g in G])
    for t in range(1, len(G)):
        if moving_norms[t] == 0.0:
            raise DegenerateGradientError(f"task {t} has zero moving-average gradient norm")
    # Scalar powers: numpy's array power rounds differently in some last bits.
    scales = [1.0] + [(moving_norms[0] / m) ** cfg.relax for m in moving_norms[1:]]
    return G * np.array(scales)[:, None]


def pairwise_cosine(grads) -> np.ndarray:
    """Cosine similarity matrix from the Gram matrix G @ G.T; entries with a
    zero-norm operand are 0."""
    G = _matrix(grads)
    gram = G @ G.T
    norms = np.sqrt(gram.diagonal())
    denominators = norms[:, None] * norms
    return np.divide(gram, denominators, out=np.zeros(gram.shape), where=denominators > 0.0)


def modify_gradients(
    grads,
    cfg: StrategyConfig,
    order_seed: int | None = None,
    grad_fns: Sequence[Callable[[np.ndarray], np.ndarray]] | None = None,
    theta=None,
    moving_norms: np.ndarray | None = None,
    hvp_fns: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Dispatch to the strategy named by ``cfg.kind``; returns a new (T, P) array.

    ``order_seed`` feeds pcgrad's traversal; ``moving_norms`` (the run's
    state, updated in place) is required by magnitude balancing only. The
    exact-HVP variant needs ``hvp_fns``, one stacked Hessian-vector product
    (see ``cograd_modify_exact_hvp``), or else ``grad_fns`` and ``theta``, one
    trunk gradient function per task and the point, whose products it takes
    by central differences.
    """
    if cfg.kind == "sum":
        return _matrix(grads).copy()
    if cfg.kind == "cograd":
        return cograd_modify(grads, cfg)
    if cfg.kind == "cograd_exact_hvp":
        if hvp_fns is None and grad_fns is not None and theta is not None:
            grads = _matrix(grads)
            if len(grad_fns) != len(grads):
                raise DimensionError(f"{len(grads)} gradients but {len(grad_fns)} functions")

            def hvp_fns(V: np.ndarray) -> np.ndarray:
                return np.array([finite_diff_hvp(f, theta, v) for f, v in zip(grad_fns, V)])

        if hvp_fns is None:
            raise ConfigError("cograd_exact_hvp needs hvp_fns, or grad_fns and theta")
        return cograd_modify_exact_hvp(grads, hvp_fns, cfg)
    if cfg.kind == "pcgrad":
        return pcgrad_modify(grads, order_seed=order_seed)
    if cfg.kind == "magnitude_balance":
        if moving_norms is None:
            raise ConfigError("magnitude_balance needs the run's moving_norms")
        return magnitude_balance(grads, cfg, moving_norms)
    raise ConfigError(f"unknown strategy kind {cfg.kind!r}")
