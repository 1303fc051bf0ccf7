"""Flat parameter vectors and finite-difference oracles.

Everything downstream (gradient surgery, transference estimates, optimizer
steps) works on 1-D float64 vectors. This module provides the layout that
names the tensors inside such a vector, plus the central-difference oracles
used to validate analytic gradients and Hessian-vector products.

Dense tensors are plain float64 numpy arrays in C (row-major) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, LayoutError, OracleError

DEFAULT_GRAD_EPS = 1e-3


@dataclass(frozen=True)
class LayoutEntry:
    """Placement of one named tensor inside a flat vector."""

    name: str
    shape: tuple[int, ...]
    offset: int

    @property
    def size(self) -> int:
        return math.prod(self.shape)


@dataclass
class ParamVector:
    """Flat float64 vector of a named tensor set.

    ``values`` holds the row-major concatenation of the tensors listed in
    ``layout``; entries are contiguous and non-overlapping. The layout is
    decided by the net that owns the parameters (``SharedBottomNet``), which
    orders tensors by name; construction only checks that the layout covers
    exactly the vector's length.
    """

    values: np.ndarray
    layout: tuple[LayoutEntry, ...]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        total = sum(entry.size for entry in self.layout)
        if total != self.values.size:
            raise LayoutError(
                f"layout covers {total} values but vector has {self.values.size}"
            )

    def __len__(self) -> int:
        return int(self.values.size)

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.values
        return self.values.astype(dtype)

def finite_diff_gradient(
    loss_fn: Callable[[np.ndarray], float],
    at: np.ndarray,
    eps: float = DEFAULT_GRAD_EPS,
) -> np.ndarray:
    """Central-difference gradient estimate of a scalar loss.

    Component k is (L(x + eps*e_k) - L(x - eps*e_k)) / (2*eps). Exact for
    quadratics up to roundoff; second-order accurate otherwise. Raises
    OracleError naming the offending index if any probe evaluation is
    non-finite.
    """
    if eps <= 0:
        raise OracleError("eps must be positive")
    x = np.array(at, dtype=np.float64).ravel()
    grad = np.zeros_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = eps
        up = float(loss_fn(x + step))
        down = float(loss_fn(x - step))
        if not (np.isfinite(up) and np.isfinite(down)):
            raise OracleError(f"non-finite loss at probe index {k}")
        grad[k] = (up - down) / (2.0 * eps)
    return grad


def hvp_default_eps(at: np.ndarray) -> float:
    """Scale-aware step for HVP probes: 1e-4 * (1 + max|at|)."""
    x = np.asarray(at, dtype=np.float64)
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    return 1e-4 * (1.0 + scale)


def finite_diff_hvp(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    at: np.ndarray,
    direction: np.ndarray,
    eps: float | None = None,
) -> np.ndarray:
    """Central-difference Hessian-vector product.

    Returns (grad(x + eps*v) - grad(x - eps*v)) / (2*eps), which equals H(x)v
    exactly for quadratic losses up to roundoff and is linear in v.
    """
    x = np.array(at, dtype=np.float64).ravel()
    v = np.array(direction, dtype=np.float64).ravel()
    if x.size != v.size:
        raise DimensionError(f"point has {x.size} entries, direction has {v.size}")
    if eps is None:
        eps = hvp_default_eps(x)
    if eps <= 0:
        raise OracleError("eps must be positive")
    up = np.asarray(grad_fn(x + eps * v), dtype=np.float64).ravel()
    down = np.asarray(grad_fn(x - eps * v), dtype=np.float64).ravel()
    if up.size != x.size or down.size != x.size:
        raise DimensionError("grad_fn returned a vector of the wrong length")
    if not (np.all(np.isfinite(up)) and np.all(np.isfinite(down))):
        raise OracleError("non-finite gradient at HVP probe point")
    return (up - down) / (2.0 * eps)
