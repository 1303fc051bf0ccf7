"""Ranking metrics, ranked with numpy alone, and prior-based task loss weights."""

from __future__ import annotations

import numpy as np

from .errors import DataError, DimensionError, UndefinedMetricError


def _rank_sums(s, y, codes):
    """Per group of ``codes``: its size, its positive count, the sum of its
    positives' ranks within the group, and whether any of its scores is NaN.

    One sort by (group, score) ranks every group at once. A run of equal
    scores shares the mean of its positions (the mid-rank of
    ``rankdata(method="average")``); ranks are half-integers, so their sums
    are exact in any order.
    """
    order = np.lexsort((s, codes))
    codes, s, y = codes[order], s[order], y[order]
    sizes = np.bincount(codes)
    starts = np.flatnonzero(np.r_[True, (codes[1:] != codes[:-1]) | (s[1:] != s[:-1])])
    ends = np.r_[starts[1:], s.size]
    # Subtracting the group's first position makes a position a rank in the group.
    first = np.cumsum(sizes) - sizes
    ranks = np.repeat((starts + 1 + ends) / 2.0, ends - starts) - first[codes]
    n_pos = np.bincount(codes, weights=y)
    pos_rank_sums = np.bincount(codes, weights=ranks * y)
    has_nan = np.bincount(codes, weights=np.isnan(s)) > 0
    return sizes, n_pos, pos_rank_sums, has_nan


def evaluate_auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative; ties count half.

    Rank-based computation, exactly equivalent to exhaustive pair counting.
    A NaN score makes the AUC NaN.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if s.size != y.size:
        raise DimensionError(f"{s.size} scores vs {y.size} labels")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise DataError("labels must be binary 0/1")
    n_pos = int(np.sum(y))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative label")
    _, _, (pos_rank_sum,), (has_nan,) = _rank_sums(s, y, np.zeros(s.size, dtype=np.intp))
    if has_nan:
        return float("nan")
    # Sum of positive ranks minus its minimum possible value, over pair count.
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def evaluate_gauc(scores, labels, group_ids) -> float:
    """Group-size-weighted mean AUC over groups containing both classes.

    Single-class groups are excluded from both numerator and denominator.
    All groups are ranked in one sort, so the cost is O(n log n) however many
    groups there are. The result equals the size-weighted mean of per-group
    ``evaluate_auc``, a NaN score making its group's AUC NaN as there.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    g = np.asarray(group_ids).ravel()
    if not (s.size == y.size == g.size):
        raise DimensionError(f"sizes differ: {s.size} scores, {y.size} labels, {g.size} groups")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise DataError("labels must be binary 0/1")
    _, codes = np.unique(g, return_inverse=True)
    sizes, n_pos, pos_rank_sums, has_nan = _rank_sums(s, y, codes)

    mixed = (n_pos > 0) & (n_pos < sizes)  # single-class groups carry no ranking signal
    if not np.any(mixed):
        raise UndefinedMetricError("no group contains both classes")
    n_pos, n_neg = n_pos[mixed], sizes[mixed] - n_pos[mixed]
    aucs = (pos_rank_sums[mixed] - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    aucs[has_nan[mixed]] = np.nan
    weights = sizes[mixed] / np.sum(sizes[mixed])
    return float(np.dot(weights, aucs))


def loss_weights_from_prior(labels: np.ndarray) -> np.ndarray:
    """Task weights inversely proportional to label entropy, summing to T.

    Sparse tasks (low-entropy labels) get large weights. ``labels`` is the
    (n, T) label matrix.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 2:
        raise DimensionError("expected an (n, T) label matrix")
    rates = y.mean(axis=0)
    if np.any(rates == 0.0) or np.any(rates == 1.0):
        bad = int(np.argmax((rates == 0.0) | (rates == 1.0)))
        raise DataError(f"task {bad} has a single label class; its entropy is zero")
    entropy = -(rates * np.log(rates) + (1.0 - rates) * np.log(1.0 - rates))
    raw = 1.0 / entropy
    return raw * (y.shape[1] / raw.sum())
