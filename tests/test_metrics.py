import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cograd import (
    DataError,
    UndefinedMetricError,
    evaluate_auc,
    evaluate_gauc,
    loss_weights_from_prior,
)


def pair_count_auc(scores, labels):
    """Exhaustive oracle: mean over positive/negative pairs of
    1[s_p > s_n] + 0.5 * 1[s_p == s_n]."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_auc_perfect_separation():
    assert evaluate_auc(np.array([0.2, 0.8, 0.6]), np.array([0.0, 1.0, 1.0])) == 1.0


def test_auc_reversed_separation():
    assert evaluate_auc(np.array([0.9, 0.1, 0.2]), np.array([0.0, 1.0, 1.0])) == 0.0


def test_auc_all_tied_scores():
    assert evaluate_auc(np.full(6, 0.3), np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])) == 0.5


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(4, 30))
        # quantized scores force ties through the tie-handling path
        scores = rng.integers(0, 5, size=n).astype(np.float64) / 4.0
        labels = (rng.uniform(size=n) < 0.5).astype(np.float64)
        if labels.min() == labels.max():
            labels[0] = 1.0 - labels[0]
        assert evaluate_auc(scores, labels) == pair_count_auc(scores, labels)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal(50)
    labels = (rng.uniform(size=50) < 0.4).astype(np.float64)
    base = evaluate_auc(scores, labels)
    assert evaluate_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert evaluate_auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)


def test_auc_single_class_undefined():
    with pytest.raises(UndefinedMetricError):
        evaluate_auc(np.array([0.1, 0.2]), np.array([1.0, 1.0]))
    with pytest.raises(UndefinedMetricError):
        evaluate_auc(np.array([0.1, 0.2]), np.zeros(2))


def test_gauc_single_group_equals_auc():
    rng = np.random.default_rng(2)
    scores = rng.standard_normal(40)
    labels = (rng.uniform(size=40) < 0.5).astype(np.float64)
    groups = np.zeros(40, dtype=np.int64)
    assert evaluate_gauc(scores, labels, groups) == evaluate_auc(scores, labels)


def test_gauc_two_group_weighted_average():
    # group 0: AUC 1.0 with 2 rows; group 1: AUC 0.5 with 2 rows
    scores = np.array([0.1, 0.9, 0.5, 0.5])
    labels = np.array([0.0, 1.0, 0.0, 1.0])
    groups = np.array([0, 0, 1, 1])
    assert evaluate_gauc(scores, labels, groups) == pytest.approx(0.75)


def test_gauc_group_size_weighting():
    # group 0: AUC 1.0 with 4 rows; group 1: AUC 0.0 with 2 rows
    scores = np.array([0.1, 0.2, 0.8, 0.9, 0.9, 0.1])
    labels = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    groups = np.array([5, 5, 5, 5, 9, 9])
    assert evaluate_gauc(scores, labels, groups) == pytest.approx(4.0 / 6.0)


def test_gauc_skips_single_class_groups():
    # the all-positive group contributes neither weight nor score
    scores = np.array([0.1, 0.9, 0.3, 0.4])
    labels = np.array([0.0, 1.0, 1.0, 1.0])
    groups = np.array([0, 0, 1, 1])
    assert evaluate_gauc(scores, labels, groups) == 1.0


def test_gauc_all_groups_single_class_undefined():
    with pytest.raises(UndefinedMetricError):
        evaluate_gauc(
            np.array([0.1, 0.2, 0.3, 0.4]),
            np.array([1.0, 1.0, 0.0, 0.0]),
            np.array([0, 0, 1, 1]),
        )


def test_gauc_matches_manual_weighting_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = 60
        scores = rng.standard_normal(n)
        labels = (rng.uniform(size=n) < 0.5).astype(np.float64)
        groups = rng.integers(0, 5, size=n)
        num = 0.0
        den = 0
        for g in np.unique(groups):
            mask = groups == g
            if labels[mask].min() == labels[mask].max():
                continue
            num += mask.sum() * pair_count_auc(scores[mask], labels[mask])
            den += int(mask.sum())
        if den == 0:
            continue
        assert evaluate_gauc(scores, labels, groups) == pytest.approx(num / den, abs=1e-12)


def per_group_gauc(scores, labels, groups):
    """Reference: size-weighted mean of ``evaluate_auc`` over mixed-class groups."""
    aucs, sizes = [], []
    for g in np.unique(groups):
        mask = groups == g
        if labels[mask].min() == labels[mask].max():
            continue
        aucs.append(evaluate_auc(scores[mask], labels[mask]))
        sizes.append(float(mask.sum()))
    if not sizes:
        return None
    return float(np.dot(np.asarray(sizes) / np.sum(sizes), aucs))


# Few distinct scores force ties within groups; infinities and NaN are kept.
_TIED_SCORES = st.sampled_from([-np.inf, -1.0, 0.0, 0.25, 0.5, 1.0, np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            _TIED_SCORES | st.floats(-1e6, 1e6),
            st.sampled_from([0.0, 1.0]),
            st.integers(0, 6),
        ),
        max_size=80,
    ),
    string_ids=st.booleans(),
)
def test_gauc_equals_weighted_mean_of_per_group_auc(rows, string_ids):
    scores = np.array([r[0] for r in rows], dtype=np.float64)
    labels = np.array([r[1] for r in rows], dtype=np.float64)
    groups = np.array([f"u{r[2]}" if string_ids else r[2] for r in rows])
    want = per_group_gauc(scores, labels, groups)
    if want is None:
        with pytest.raises(UndefinedMetricError):
            evaluate_gauc(scores, labels, groups)
    else:
        got = evaluate_gauc(scores, labels, groups)
        assert got == want or (np.isnan(got) and np.isnan(want))


def rankdata_auc(scores, labels):
    """Reference: the rank-sum formula over ``scipy.stats.rankdata`` mid-ranks,
    whose default NaN policy makes every rank NaN."""
    from scipy.stats import rankdata

    n_pos = int(np.sum(labels))
    n_neg = labels.size - n_pos
    ranks = rankdata(scores, method="average")
    return float((np.sum(ranks[labels == 1.0]) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(_TIED_SCORES | st.floats(-1e6, 1e6), st.sampled_from([0.0, 1.0])),
        min_size=2,
        max_size=80,
    )
)
def test_auc_equals_rankdata_formula_bitwise(rows):
    scores = np.array([r[0] for r in rows], dtype=np.float64)
    labels = np.array([r[1] for r in rows], dtype=np.float64)
    labels[:2] = [0.0, 1.0]  # both classes, so the AUC is defined
    got, want = evaluate_auc(scores, labels), rankdata_auc(scores, labels)
    assert got == want or (np.isnan(got) and np.isnan(want))


def test_auc_nan_score_gives_nan():
    assert np.isnan(evaluate_auc(np.array([0.1, np.nan, 0.7, 0.3]), np.array([0.0, 1.0, 1.0, 0.0])))
    assert np.isnan(evaluate_auc(np.array([np.nan, 0.2]), np.array([0.0, 1.0])))


def test_gauc_rejects_non_binary_labels():
    with pytest.raises(DataError):
        evaluate_gauc(np.array([0.1, 0.2, 0.3]), np.array([0.0, 1.0, 2.0]), np.zeros(3))


def test_prior_weights_equal_rates():
    labels = np.zeros((100, 2))
    labels[:50, 0] = 1.0
    labels[50:, 1] = 1.0
    assert np.allclose(loss_weights_from_prior(labels), [1.0, 1.0], atol=1e-12)


def test_prior_weights_sparse_task_upweighted():
    labels = np.zeros((100, 2))
    labels[:50, 0] = 1.0
    labels[:2, 1] = 1.0
    got = loss_weights_from_prior(labels)
    assert np.allclose(got, [0.24782814, 1.75217186], atol=1e-7)
    assert got.sum() == pytest.approx(2.0, abs=1e-12)


def test_prior_weights_sum_to_task_count():
    rng = np.random.default_rng(4)
    labels = (rng.uniform(size=(200, 5)) < rng.uniform(0.05, 0.95, size=5)).astype(np.float64)
    got = loss_weights_from_prior(labels)
    assert got.shape == (5,)
    assert got.sum() == pytest.approx(5.0, abs=1e-10)


def test_prior_weights_permutation_equivariant():
    rng = np.random.default_rng(5)
    labels = (rng.uniform(size=(300, 3)) < np.array([0.5, 0.2, 0.05])).astype(np.float64)
    base = loss_weights_from_prior(labels)
    perm = [2, 0, 1]
    assert np.allclose(loss_weights_from_prior(labels[:, perm]), base[perm], atol=1e-12)


def test_prior_weights_single_class_task_rejected():
    labels = np.zeros((10, 2))
    labels[:5, 0] = 1.0
    with pytest.raises(DataError):
        loss_weights_from_prior(labels)
