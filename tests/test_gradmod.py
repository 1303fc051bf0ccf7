import dataclasses

import numpy as np
import pytest

from cograd import (
    STRATEGY_KINDS,
    ConfigError,
    DegenerateGradientError,
    DimensionError,
    EvaluationError,
    StrategyConfig,
    TransferenceRecord,
    approx_hvp,
    backward_task,
    cograd_modify,
    cograd_modify_exact_hvp,
    finite_diff_gradient,
    finite_diff_hvp,
    forward,
    init_net,
    magnitude_balance,
    measure_transference,
    modify_gradients,
    pairwise_cosine,
    pcgrad_modify,
    task_hvp,
    theta_grad_fn,
    transfer_exact,
    transfer_first_order,
)
from cograd.model import _bce, theta_loss_fn


def quad_loss(v):
    return 0.5 * float(v @ v)


def test_transfer_exact_quadratic_frozen_value():
    # L(theta - 0.1*[1,0]) = 0.5*(0.81 + 1) = 0.905, so the delta is 0.095.
    got = transfer_exact(quad_loss, np.array([1.0, 1.0]), np.array([1.0, 0.0]), 0.1)
    assert abs(got - 0.095) < 1e-12


def test_transfer_exact_zero_gradient_is_zero():
    assert transfer_exact(quad_loss, np.array([1.0, 1.0]), np.zeros(2), 0.1) == 0.0


def test_transfer_exact_constant_loss_is_zero():
    assert transfer_exact(lambda v: 3.3, np.ones(4), np.ones(4), 0.5) == 0.0


def test_transfer_exact_leaves_theta_unmodified():
    theta = np.array([1.0, 1.0])
    transfer_exact(quad_loss, theta, np.array([1.0, 0.0]), 0.1)
    assert np.array_equal(theta, np.array([1.0, 1.0]))


def test_transfer_exact_requires_positive_gamma():
    with pytest.raises(ConfigError):
        transfer_exact(quad_loss, np.ones(2), np.ones(2), 0.0)


def test_transfer_first_order_orthogonal_is_zero():
    assert transfer_first_order(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.7) == 0.0


def test_transfer_first_order_inner_product():
    assert transfer_first_order(np.array([1.0, 2.0]), np.array([3.0, 1.0]), 0.1) == pytest.approx(0.5)


def test_transfer_first_order_length_mismatch():
    with pytest.raises(DimensionError):
        transfer_first_order(np.zeros(2), np.zeros(3), 0.1)


def test_quadratic_remainder_is_half_gamma_sq_norm():
    # On L = 0.5||theta||^2 the gap between exact and first-order transference
    # is exactly 0.5 * gamma^2 * ||g_i||^2.
    theta = np.array([1.0, 1.0])
    g_i = np.array([1.0, 0.0])
    exact = transfer_exact(quad_loss, theta, g_i, 0.1)
    first = transfer_first_order(g_i, theta, 0.1)
    assert first == pytest.approx(0.1)
    assert first - exact == pytest.approx(0.005, abs=1e-12)


def test_gap_shrinks_4x_when_gamma_halves_on_logistic():
    # Second-order remainder: halving gamma shrinks |exact - first_order|
    # by at least 3.5x, averaged over random logistic problems.
    rng = np.random.default_rng(0)
    ratios = []
    for _ in range(10):
        X = rng.standard_normal((40, 6))
        y = (rng.uniform(size=40) < 0.5).astype(np.float64)

        def loss(v):
            z = X @ v
            return float(np.mean(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))))

        theta = rng.standard_normal(6) * 0.5
        g_i = rng.standard_normal(6)
        g_j = finite_diff_gradient(loss, theta, eps=1e-5)
        gap = lambda gamma: abs(
            transfer_exact(loss, theta, g_i, gamma) - transfer_first_order(g_i, g_j, gamma)
        )
        ratios.append(gap(0.05) / gap(0.025))
    assert np.mean(ratios) >= 3.5


def test_transference_gradient_matches_hvp_on_quadratics():
    # Gradient of the lookahead delta w.r.t. theta equals gamma * H g_i.
    rng = np.random.default_rng(5)
    for _ in range(5):
        h = rng.uniform(0.5, 2.0, size=5)
        theta = rng.standard_normal(5)
        g_i = rng.standard_normal(5)
        gamma = 0.1

        def loss_j(v):
            return 0.5 * float(v @ (h * v))

        def grad_j(v):
            return h * v

        fd = finite_diff_gradient(
            lambda v: transfer_exact(loss_j, v, g_i, gamma), theta, eps=1e-4
        )
        hvp = gamma * finite_diff_hvp(grad_j, theta, g_i)
        assert np.linalg.norm(fd - hvp) < 1e-3 * max(1.0, np.linalg.norm(hvp))


def test_approx_hvp_elementwise():
    got = approx_hvp(np.array([1.0, 2.0]), np.array([3.0, -1.0]), 1.0)
    assert np.array_equal(got, np.array([3.0, -4.0]))


def test_approx_hvp_zero_direction():
    assert np.array_equal(approx_hvp(np.array([1.0, 2.0]), np.zeros(2)), np.zeros(2))


def test_approx_hvp_matches_oracle_on_constructed_case():
    # theta_k = 1/sqrt(h_k) makes the squared gradient equal the Hessian
    # diagonal, so the surrogate reproduces the true HVP for any direction.
    rng = np.random.default_rng(2)
    h = rng.uniform(0.5, 4.0, size=8)
    theta = 1.0 / np.sqrt(h)
    g_owner = h * theta

    def grad_fn(v):
        return h * v

    for _ in range(5):
        direction = rng.standard_normal(8)
        surrogate = approx_hvp(g_owner, direction, 1.0)
        oracle = finite_diff_hvp(grad_fn, theta, direction)
        assert np.linalg.norm(surrogate - oracle) < 1e-9


def cfg(kind="cograd", gammas=(0.1, 0.1), **kw):
    return StrategyConfig(kind=kind, gammas=gammas, **kw)


def test_cograd_hand_arithmetic():
    g1 = np.array([1.0, 2.0])
    g2 = np.array([1.0, 1.0])
    out = cograd_modify([g1, g2], cfg(gammas=(0.2, 0.1)))
    assert np.allclose(out[0], [0.9, 1.6], atol=1e-15)
    assert np.allclose(out[1], [0.8, 0.6], atol=1e-15)
    # inputs untouched
    assert np.array_equal(g1, [1.0, 2.0]) and np.array_equal(g2, [1.0, 1.0])


def test_cograd_zero_gamma_identity_bitwise():
    rng = np.random.default_rng(3)
    grads = [rng.standard_normal(20), rng.standard_normal(20)]
    out = cograd_modify(grads, cfg(gammas=(0.0, 0.0)))
    assert np.array_equal(out[0], grads[0]) and np.array_equal(out[1], grads[1])
    assert out[0] is not grads[0]


def test_cograd_single_task_identity():
    g = np.random.default_rng(4).standard_normal(7)
    out = cograd_modify([g], cfg(gammas=(0.5,)))
    assert np.array_equal(out[0], g)


def test_cograd_uses_original_gradients_simultaneously():
    # Symmetric inputs must give symmetric outputs; sequential overwrite
    # would break the symmetry.
    g1 = np.array([1.0, 2.0])
    g2 = np.array([2.0, 1.0])
    out = cograd_modify([g1, g2], cfg(gammas=(0.1, 0.1)))
    assert np.allclose(out[0], out[1][::-1])


def test_cograd_lambda_scales_correction():
    g1 = np.array([1.0, 2.0])
    g2 = np.array([1.0, 1.0])
    base = cograd_modify([g1, g2], cfg(gammas=(0.0, 0.1), lam=1.0))
    double = cograd_modify([g1, g2], cfg(gammas=(0.0, 0.1), lam=2.0))
    assert np.allclose(g1 - double[0], 2.0 * (g1 - base[0]))


def test_cograd_two_tasks_bitwise_the_per_pair_formula():
    # At T = 2 each row's pull is one partner's gamma-weighted gradient, so
    # the matrix form rounds exactly as g_i - lam * g_i * g_i * (gamma_j * g_j).
    rng = np.random.default_rng(13)
    g0, g1 = rng.standard_normal(50), rng.standard_normal(50)
    gammas, lam = (0.3, 1.7), 0.9
    out = cograd_modify(np.stack([g0, g1]), cfg(gammas=gammas, lam=lam))
    assert np.array_equal(out[0], g0 - lam * g0 * g0 * (gammas[1] * g1))
    assert np.array_equal(out[1], g1 - lam * g1 * g1 * (gammas[0] * g0))


def test_cograd_gamma_count_checked():
    with pytest.raises(ConfigError):
        cograd_modify([np.zeros(2), np.zeros(2)], cfg(gammas=(0.1,)))


def test_cograd_exact_hvp_identity_hessian():
    # L_i = 0.5||theta||^2 for both tasks: H g = g, so the correction is a
    # plain weighted partner subtraction.
    g1 = np.array([1.0, 0.0, 2.0])
    g2 = np.array([0.5, 1.0, -1.0])
    out = cograd_modify_exact_hvp([g1, g2], [lambda v: v, lambda v: v], cfg(gammas=(0.2, 0.1)))
    assert np.allclose(out[0], g1 - 0.1 * g2, atol=1e-9)
    assert np.allclose(out[1], g2 - 0.2 * g1, atol=1e-9)


def test_cograd_exact_hvp_zero_gamma_identity():
    g = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    out = cograd_modify_exact_hvp(g, [lambda v: v] * 2, cfg(gammas=(0.0, 0.0)))
    assert np.array_equal(out[0], g[0]) and np.array_equal(out[1], g[1])


def test_cograd_exact_hvp_matches_surrogate_on_constructed_case():
    # Both tasks share the diagonal quadratic with theta = 1/sqrt(h), where
    # the surrogate is exact, so the two variants must agree.
    rng = np.random.default_rng(6)
    h = rng.uniform(0.5, 3.0, size=10)
    theta = 1.0 / np.sqrt(h)
    g = h * theta
    grads = [g.copy(), g.copy()]
    hvp_fns = [lambda v: h * v, lambda v: h * v]
    strategy = cfg(gammas=(0.3, 0.1))
    exact = cograd_modify_exact_hvp(grads, hvp_fns, strategy)
    surrogate = cograd_modify(grads, strategy)
    for a, b in zip(exact, surrogate):
        assert np.linalg.norm(np.asarray(a) - np.asarray(b)) < 1e-6


def test_cograd_exact_hvp_on_a_wide_trunk_is_linear_in_gamma():
    # 128*128 + 128 + 128*64 + 64 = 24,768 shared parameters: no size cap
    # refuses the variant, and its correction scales with gamma.
    rng = np.random.default_rng(8)
    net = init_net(128, [128, 64], [4], 2, seed=3)
    x = rng.standard_normal((64, 128))
    y = (rng.uniform(size=(64, 2)) < 0.5).astype(float)
    _, cache = forward(net, x)
    grads = [backward_task(net, cache, y[:, t], t)[0].values for t in range(2)]
    hvp_fns = [task_hvp(net, cache, y[:, t], t) for t in range(2)]
    assert net.theta.size == 24_768
    one, two = (
        cograd_modify_exact_hvp(grads, hvp_fns, cfg(gammas=(g, 0.5 * g))) for g in (0.1, 0.2)
    )
    for g, a, b in zip(grads, one, two):
        assert np.linalg.norm(g - a) > 0.0
        np.testing.assert_allclose(g - b, 2.0 * (g - a), rtol=1e-9, atol=1e-14)


@pytest.mark.parametrize("gammas", [(0.05, 0.02, 0.1), (0.05, 0.0, 0.1), (0.0, 0.0, 0.0)])
def test_stacked_products_match_per_task_products_bitwise(gammas):
    # Training passes one stacked R-op for every task; each row subtracts its
    # partners in ascending j, so it equals T per-task task_hvp products bit for
    # bit at T = 3, a zero gamma included.
    from cograd import model

    rng = np.random.default_rng(10)
    net = init_net(6, [8, 5, 4], [4, 3], 3, seed=2)
    x = rng.standard_normal((50, 6))
    y = (rng.uniform(size=(50, 3)) < 0.4).astype(float)
    _, cache = forward(net, x)
    grads = np.empty((3, net.theta.size))
    deltas = [None] * len(net.shared_layers)
    model._backward(net, cache, np.ascontiguousarray(y.T), grad_theta=grads, deltas=deltas)
    for t in range(3):
        assert np.array_equal(grads[t], backward_task(net, cache, y[:, t], t)[0].values)
    per_task = [task_hvp(net, cache, y[:, t], t) for t in range(3)]
    strategy = cfg(gammas=gammas)
    stacked = cograd_modify_exact_hvp(grads, model._trunk_hvp(net, cache, deltas), strategy)
    assert np.array_equal(stacked, cograd_modify_exact_hvp(grads, per_task, strategy))
    if not any(gammas):
        assert np.array_equal(stacked, grads)


def test_grad_fns_adapter_takes_central_differences_linear_in_gamma():
    # Gradient functions and a point, the older call, still work: the products
    # are central differences of unscaled partner gradients, so the correction
    # is linear in gamma to the 1e-9 the benchmark checks, and each product is
    # finite_diff_hvp's bit for bit.
    rng = np.random.default_rng(9)
    net = init_net(8, [8], [4], 2, seed=4)
    x = rng.standard_normal((32, 8))
    y = (rng.uniform(size=(32, 2)) < 0.5).astype(float)
    _, cache = forward(net, x)
    grads = [backward_task(net, cache, y[:, t], t)[0].values for t in range(2)]
    grad_fns = [theta_grad_fn(net, x, y[:, t], t) for t in range(2)]

    def corrected(scale):
        strategy = StrategyConfig(kind="cograd_exact_hvp", gammas=(0.5 * scale, 0.25 * scale))
        return modify_gradients(grads, strategy, grad_fns=grad_fns, theta=net.theta)

    one, two = corrected(1.0), corrected(2.0)
    for g, a, b in zip(grads, one, two):
        assert np.linalg.norm(g - b) > 0.0
        assert np.linalg.norm((g - b) - 2.0 * (g - a)) <= 1e-9 * np.linalg.norm(g - b)
    expected = grads[0] - 0.25 * finite_diff_hvp(grad_fns[0], net.theta, grads[1])
    assert np.array_equal(one[0], expected)


def test_pcgrad_hand_projection():
    out = pcgrad_modify([np.array([1.0, 0.0]), np.array([-1.0, 1.0])], order=[0, 1])
    assert np.allclose(out[0], [0.5, 0.5], atol=1e-15)


def test_pcgrad_no_conflict_unchanged():
    g1 = np.array([1.0, 0.0])
    g2 = np.array([1.0, 1.0])
    out = pcgrad_modify([g1, g2], order_seed=0)
    assert np.array_equal(out[0], g1) and np.array_equal(out[1], g2)


def test_pcgrad_full_opposition_projects_to_zero():
    g = np.array([0.7, -0.2, 1.1])
    out = pcgrad_modify([g, -g], order=[0, 1])
    assert np.allclose(out[0], np.zeros(3), atol=1e-15)


def test_pcgrad_postcondition_random_pairs():
    rng = np.random.default_rng(8)
    for _ in range(200):
        g1 = rng.standard_normal(12)
        g2 = rng.standard_normal(12)
        out = pcgrad_modify([g1, g2], order_seed=int(rng.integers(1 << 30)))
        if float(g1 @ g2) < 0.0:
            assert float(np.asarray(out[0]) @ g2) >= -1e-12
            assert float(np.asarray(out[1]) @ g1) >= -1e-12


def test_pcgrad_subnormal_partner_degenerate():
    # A subnormal partner yields a negative dot product while its squared
    # norm underflows to zero; the projection must refuse rather than divide.
    tiny = np.array([-5e-324, 0.0])
    with pytest.raises(DegenerateGradientError):
        pcgrad_modify([np.array([1.0, 0.0]), tiny], order=[0, 1])


def test_pcgrad_seeded_order_deterministic():
    rng = np.random.default_rng(9)
    grads = [rng.standard_normal(6) for _ in range(3)]
    a = pcgrad_modify(grads, order_seed=42)
    b = pcgrad_modify(grads, order_seed=42)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_magnitude_balance_relax_zero_unchanged():
    grads = [np.array([3.0, 4.0]), np.array([0.1, 0.0])]
    out = magnitude_balance(grads, cfg(kind="magnitude_balance", gammas=(), relax=0.0), np.zeros(2))
    assert np.array_equal(out[0], grads[0]) and np.array_equal(out[1], grads[1])


def test_magnitude_balance_first_step_scaling():
    # Moving averages start at zero: m0 = 0.1*10 = 1, m1 = 0.1*1 = 0.1,
    # so the non-anchor gradient scales by exactly 10.
    strategy = cfg(kind="magnitude_balance", gammas=(), relax=1.0)
    grads = [np.array([10.0, 0.0]), np.array([1.0, 0.0])]
    out = magnitude_balance(grads, strategy, np.zeros(2))
    assert np.allclose(out[1], [10.0, 0.0], atol=1e-12)
    assert np.array_equal(out[0], grads[0])


def test_magnitude_balance_preserves_direction():
    rng = np.random.default_rng(10)
    strategy = cfg(kind="magnitude_balance", gammas=(), relax=0.7)
    grads = [rng.standard_normal(8), rng.standard_normal(8)]
    out = magnitude_balance(grads, strategy, np.zeros(2))
    cos = float(np.dot(out[1], grads[1])) / (
        np.linalg.norm(out[1]) * np.linalg.norm(grads[1])
    )
    assert cos == pytest.approx(1.0, abs=1e-12)


def test_magnitude_balance_state_accumulates():
    strategy = cfg(kind="magnitude_balance", gammas=(), relax=1.0)
    grads = [np.array([10.0, 0.0]), np.array([1.0, 0.0])]
    moving_norms = np.zeros(2)
    magnitude_balance(grads, strategy, moving_norms)
    modify_gradients(grads, strategy, moving_norms=moving_norms)
    # m_t after two identical steps: 0.1*||g|| * (1 + 0.9)
    assert moving_norms[0] == pytest.approx(1.9)
    assert moving_norms[1] == pytest.approx(0.19)
    with pytest.raises(DimensionError):
        magnitude_balance(grads, strategy, np.zeros(3))


def test_magnitude_balance_zero_norm_degenerate():
    strategy = cfg(kind="magnitude_balance", gammas=(), relax=1.0)
    with pytest.raises(DegenerateGradientError):
        magnitude_balance([np.ones(3), np.zeros(3)], strategy, np.zeros(2))


def test_pairwise_cosine_cases():
    g1 = np.array([1.0, 0.0])
    got = pairwise_cosine([g1, np.array([0.0, 1.0])])
    assert got[0, 1] == 0.0 and got[0, 0] == 1.0
    assert pairwise_cosine([g1, 3.0 * g1])[0, 1] == pytest.approx(1.0)
    assert pairwise_cosine([g1, -g1])[0, 1] == pytest.approx(-1.0)
    zeros = pairwise_cosine([g1, np.zeros(2)])
    assert zeros[0, 1] == 0.0 and zeros[1, 1] == 0.0


def test_cograd_permutation_consistency():
    rng = np.random.default_rng(11)
    grads = [rng.standard_normal(9) for _ in range(3)]
    gammas = (0.2, 0.1, 0.05)
    out = cograd_modify(grads, cfg(gammas=gammas))
    perm = [2, 0, 1]
    out_p = cograd_modify(
        [grads[p] for p in perm], cfg(gammas=tuple(gammas[p] for p in perm))
    )
    for k, p in enumerate(perm):
        assert np.allclose(out_p[k], out[p], atol=1e-12)


def test_pcgrad_permutation_consistency_fixed_order():
    rng = np.random.default_rng(12)
    grads = [rng.standard_normal(9) for _ in range(3)]
    order = [1, 2, 0]
    out = pcgrad_modify(grads, order=order)
    perm = [2, 0, 1]  # position k of the permuted list holds old task perm[k]
    inverse = {p: k for k, p in enumerate(perm)}
    out_p = pcgrad_modify([grads[p] for p in perm], order=[inverse[t] for t in order])
    for k, p in enumerate(perm):
        assert np.allclose(out_p[k], out[p], atol=1e-12)


def test_modify_gradients_sum_returns_copies():
    grads = [np.ones(3), np.zeros(3)]
    out = modify_gradients(grads, StrategyConfig(kind="sum"))
    assert np.array_equal(out[0], grads[0]) and out[0] is not grads[0]


def test_modify_gradients_requires_run_state():
    grads = [np.ones(3), np.ones(3)]
    with pytest.raises(ConfigError, match="moving_norms"):
        modify_gradients(grads, StrategyConfig(kind="magnitude_balance"))
    with pytest.raises(ConfigError, match="grad_fns"):
        modify_gradients(grads, StrategyConfig(kind="cograd_exact_hvp", gammas=(0.1, 0.1)))


def test_strategy_config_validation():
    with pytest.raises(ConfigError):
        StrategyConfig(kind="nope")
    with pytest.raises(ConfigError):
        StrategyConfig(kind="cograd", gammas=(-0.1, 0.1))
    with pytest.raises(ConfigError):
        StrategyConfig(kind="cograd", gammas=(0.1,), lam=0.0)
    with pytest.raises(ConfigError):
        StrategyConfig(kind="magnitude_balance", relax=1.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        StrategyConfig(kind="cograd", gammas=(0.1, 0.1)).lam = 2.0


def test_transference_record_requires_positive_gamma():
    with pytest.raises(ConfigError):
        TransferenceRecord(0, 0, 1, 0.1, 0.1, gamma_used=0.0)


def test_measure_transference_covers_ordered_pairs():
    net = init_net(4, [3], [2], num_tasks=2, seed=0)
    x = np.random.default_rng(0).standard_normal((5, 4))
    y = np.array([[1.0, 0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0, 0.0]])
    logits, cache = forward(net, x)
    losses = _bce(logits.T, y)
    grads = np.array([backward_task(net, cache, y[t], t)[0].values for t in range(2)])
    records = measure_transference(3, net, x, y, losses, grads, [0.1, 0.1])
    assert [(r.source_task, r.target_task) for r in records] == [(0, 1), (1, 0)]
    assert all(r.step == 3 for r in records)


def _live_net(shared_widths, head_widths, num_tasks, seed):
    """A net whose relu biases are drawn positive, so that its units are live."""
    net = init_net(6, list(shared_widths), list(head_widths), num_tasks, seed)
    rng = np.random.default_rng(seed)
    for layer in [*net.shared_layers, *net.head_layers]:
        if layer.activation == "relu":
            layer.bias[...] = rng.uniform(0.05, 0.5, size=layer.bias.shape)
    return net


def _live_batch(net, n, seed):
    """``n`` rows, their C-contiguous (T, n) labels, the T losses and (T, P) gradients."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, net.input_dim))
    y = (rng.uniform(size=(net.num_tasks, n)) < 0.5).astype(np.float64)
    logits, cache = forward(net, x)
    grads = np.array([backward_task(net, cache, y[t], t)[0].values for t in range(net.num_tasks)])
    return x, y, _bce(logits.T, y), grads


@pytest.mark.parametrize("num_tasks", [2, 3, 4])
@pytest.mark.parametrize("shared_widths", [[8], [16, 8], [8, 5, 4]])
@pytest.mark.parametrize("head_widths", [[4], [4, 3]])
@pytest.mark.parametrize("n", [1, 257])
def test_live_lookahead_is_the_one_head_definition_bitwise(
    num_tasks, shared_widths, head_widths, n
):
    # One forward of every head on the live net, per source task, gives each
    # record transfer_exact of the target's one-head loss function, bit for bit.
    net = _live_net(shared_widths, head_widths, num_tasks, seed=n + num_tasks)
    x, y, losses, grads = _live_batch(net, n, seed=len(shared_widths))
    gammas = np.random.default_rng(3).uniform(0.05, 2.0, size=num_tasks).tolist()
    theta = net.theta.copy()
    records = measure_transference(5, net, x, y, losses, grads, gammas)
    assert np.array_equal(net.theta, theta)
    expected = [
        (5, i, j, transfer_exact(theta_loss_fn(net, x, y[j], j), theta, grads[i], gammas[i]),
         transfer_first_order(grads[i], grads[j], gammas[i]), gammas[i])
        for i in range(num_tasks)
        for j in range(num_tasks)
        if i != j
    ]
    assert [dataclasses.astuple(r) for r in records] == expected


def test_live_lookahead_restores_theta_when_a_forward_raises(monkeypatch):
    from cograd import gradmod

    net = _live_net([8, 5], [4], 3, seed=0)
    x, y, losses, grads = _live_batch(net, 9, seed=0)
    theta, calls = net.theta.copy(), []
    real_forward = gradmod.forward

    def forward_failing_second(*args):
        calls.append(len(calls))
        if len(calls) == 2:
            raise EvaluationError("forward produced non-finite logits")
        return real_forward(*args)

    monkeypatch.setattr(gradmod, "forward", forward_failing_second)
    with pytest.raises(EvaluationError):
        measure_transference(1, net, x, y, losses, grads, [0.1, 0.2, 0.3])
    assert len(calls) == 2
    assert np.array_equal(net.theta, theta)
    for layer in net.shared_layers:
        assert np.shares_memory(net.theta, layer.weights)
        assert np.shares_memory(net.theta, layer.bias)


def test_live_lookahead_refuses_a_loss_that_overflows(monkeypatch):
    # Finite logits of 1e308 on label 0 overflow the mean BCE to inf.
    from cograd import gradmod

    net = _live_net([8], [4], 2, seed=0)
    x, _, losses, grads = _live_batch(net, 5, seed=0)
    huge = np.full((5, 2), 1e308)
    monkeypatch.setattr(gradmod, "forward", lambda net, features: (huge, None))
    with np.errstate(over="ignore"):
        with pytest.raises(EvaluationError, match="non-finite loss during lookahead evaluation"):
            measure_transference(1, net, x, np.zeros((2, 5)), losses, grads, [0.1, 0.1])


def test_live_lookahead_of_one_task_has_no_records():
    net = _live_net([8], [4], 1, seed=0)
    x, y, losses, grads = _live_batch(net, 7, seed=0)
    assert measure_transference(2, net, x, y, losses, grads, [0.1]) == []


def _strategy_call(kind, num_tasks, size):
    """A call of ``modify_gradients`` for ``kind`` on ``num_tasks`` quadratic tasks."""
    curvatures = np.random.default_rng(14).uniform(0.5, 2.0, size=(num_tasks, size))
    strategy = StrategyConfig(kind=kind, gammas=(0.3, 0.1, 0.2)[:num_tasks], relax=0.5)

    def call(grads):
        return modify_gradients(
            grads,
            strategy,
            order_seed=7,
            grad_fns=[lambda v, h=h: h * v for h in curvatures],
            theta=np.linspace(-1.0, 1.0, size),
            moving_norms=np.zeros(num_tasks),
        )

    return call


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_modify_gradients_returns_one_task_by_parameter_array(kind):
    grads = [np.array([1.0, -2.0, 0.5]), np.array([-1.0, 1.0, 2.0])]
    out = _strategy_call(kind, 2, 3)(grads)
    assert isinstance(out, np.ndarray)
    assert out.shape == (2, 3) and out.dtype == np.float64


@pytest.mark.parametrize("num_tasks", [2, 3])
@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_list_and_matrix_inputs_give_bitwise_equal_output(kind, num_tasks):
    rng = np.random.default_rng(15)
    matrix = rng.standard_normal((num_tasks, 11))
    before = matrix.copy()
    call = _strategy_call(kind, num_tasks, 11)
    from_list = call([row.copy() for row in matrix])
    from_matrix = call(matrix)
    assert np.array_equal(from_list, from_matrix)
    assert from_matrix is not matrix and np.array_equal(matrix, before)


RAGGED = [np.ones(3), np.ones(4)]


@pytest.mark.parametrize(
    "modify",
    [
        lambda g: modify_gradients(g, StrategyConfig(kind="sum")),
        lambda g: cograd_modify(g, cfg(gammas=(0.1, 0.1))),
        lambda g: cograd_modify_exact_hvp(g, [lambda v: v] * 2, cfg()),
        lambda g: pcgrad_modify(g, order_seed=0),
        lambda g: magnitude_balance(g, cfg(kind="magnitude_balance", gammas=()), np.zeros(2)),
        pairwise_cosine,
    ],
    ids=["sum", "cograd", "cograd_exact_hvp", "pcgrad", "magnitude_balance", "pairwise_cosine"],
)
def test_ragged_gradients_raise_dimension_error_naming_lengths(modify):
    with pytest.raises(DimensionError, match=r"gradient lengths differ: \[3, 4\]"):
        modify(RAGGED)
