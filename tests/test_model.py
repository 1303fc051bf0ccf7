import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

from cograd import (
    ConfigError,
    DataError,
    DenseLayer,
    DimensionError,
    EvaluationError,
    LayoutError,
    SharedBottomNet,
    backward,
    backward_task,
    finite_diff_gradient,
    finite_diff_hvp,
    forward,
    init_net,
    load_net,
    predict_proba,
    save_net,
    task_loss,
    theta_grad_fn,
    trunk_activations,
    trunk_hvp,
)
from cograd.model import _row_blocks, heads_forward, sigmoid


def small_net(seed=0):
    return init_net(input_dim=8, shared_widths=[16, 8], head_widths=[4], num_tasks=2, seed=seed)


def batch(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)), (rng.uniform(size=n) < 0.5).astype(np.float64)


def pre_activations(net, cache):
    """Each hidden layer's pre-activation, recomputed from its cached input by
    forward's own expression: the (n, width) trunk ones and the (T, n, width)
    head ones."""

    def pres(layers, acts):
        return [a @ layer.weights + layer.bias[..., None, :] for layer, a in zip(layers, acts)]

    return pres(net.shared_layers, cache.trunk_act), pres(net.head_layers[:-1], cache.heads_act)


def kink_free_batch(net, n, seed, margin=0.02):
    # Finite differences are only trustworthy away from relu kinks: keep rows
    # whose every hidden pre-activation clears the probe radius by a margin.
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < n:
        x = rng.standard_normal((8 * n, net.input_dim))
        _, cache = forward(net, x)
        hidden_pres, head_pres = pre_activations(net, cache)
        for stacked in head_pres:
            hidden_pres.extend(stacked)  # one (n, width) array per task
        clear = np.ones(x.shape[0], dtype=bool)
        for z in hidden_pres:
            clear &= np.min(np.abs(z), axis=1) > margin
        rows.extend(x[clear])
    x = np.array(rows[:n])
    y = (rng.uniform(size=n) < 0.5).astype(np.float64)
    return x, y


def test_init_is_deterministic():
    a, b = small_net(5), small_net(5)
    assert np.array_equal(a.get_theta().values, b.get_theta().values)
    for t in range(2):
        assert np.array_equal(a.phi[t], b.phi[t])


def test_init_parameter_counts():
    net = small_net()
    # trunk 8*16+16 + 16*8+8, each head 8*4+4 + 4*1+1
    assert len(net.get_theta()) == 8 * 16 + 16 + 16 * 8 + 8 == 280
    assert net.phi[0].size == 8 * 4 + 4 + 4 * 1 + 1 == 41
    assert net.phi[1].size == 41


def test_init_biases_zero_weights_in_fan_in_range():
    net = small_net()
    for layer in net.shared_layers + [l for t in range(2) for l in net.head(t)]:
        assert np.array_equal(layer.bias, np.zeros(layer.fan_out))
        limit = 1.0 / np.sqrt(layer.fan_in)
        assert np.all(np.abs(layer.weights) <= limit)


def test_init_rejects_bad_widths():
    with pytest.raises(ConfigError):
        init_net(8, [], [4], 2, seed=0)
    with pytest.raises(ConfigError):
        init_net(8, [16, 0], [4], 2, seed=0)


def test_forward_zero_net_gives_half_probabilities():
    net = small_net()
    for layer in net.shared_layers + [l for t in range(2) for l in net.head(t)]:
        layer.weights[...] = 0.0
    x, _ = batch(6, 8)
    logits, _ = forward(net, x)
    assert np.array_equal(logits, np.zeros((6, 2)))
    assert np.array_equal(predict_proba(net, x), np.full((6, 2), 0.5))


def test_forward_single_linear_layer():
    layer = DenseLayer(np.array([[1.0], [1.0]]), np.zeros(1), "identity")
    net = SharedBottomNet(2, [], [[layer]])
    logits, cache = forward(net, np.array([[2.0, 3.0]]))
    assert logits[0, 0] == pytest.approx(5.0)
    grad_theta, grad_phi = backward_task(net, cache, np.array([1.0]), 0)
    assert len(grad_theta) == 0
    # dL/dz = sigmoid(5) - 1; phi is ordered bias, then weights (2, 3).
    delta = expit(5.0) - 1.0
    assert np.allclose(grad_phi.values, [delta, 2.0 * delta, 3.0 * delta], rtol=1e-15, atol=0)


def test_forward_rejects_wrong_width():
    with pytest.raises(DimensionError):
        forward(small_net(), np.zeros((3, 7)))


def test_forward_matches_perturbation_reconstruction():
    # Perturbing one trunk weight changes the loss by eps * (analytic grad)
    # to first order; checks forward and cache wiring against the oracle.
    net = small_net(3)
    x, y = kink_free_batch(net, 16, seed=4)

    def loss_of_theta(theta):
        probe = net.copy()
        probe.set_theta(theta)
        logits, _ = forward(probe, x)
        return task_loss(logits[:, 0], y)

    theta = net.get_theta().values
    fd = finite_diff_gradient(loss_of_theta, theta, eps=1e-3)
    _, cache = forward(net, x)
    analytic = backward_task(net, cache, y, 0)[0].values
    assert np.linalg.norm(fd - analytic) < 1e-6 * max(1.0, np.linalg.norm(analytic))


def test_sigmoid_matches_libm_form_and_saturates_silently():
    rng = np.random.default_rng(4)
    x = np.concatenate([np.linspace(-700.0, 700.0, 14_001), 10.0 * rng.standard_normal(5_000)])
    reference = np.array([1.0 / (1.0 + math.exp(-v)) for v in x])
    extremes = np.array([-1e308, -800.0, -746.0, 40.0, 800.0, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(x)
        saturated = sigmoid(extremes)
        scalar = sigmoid(-1e308)
    assert np.max(np.abs(got - reference) / np.spacing(reference)) <= 4.0
    assert np.all(np.diff(sigmoid(np.sort(x))) >= 0.0)
    assert saturated.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert scalar == 0.0


def test_task_loss_at_zero_logits_is_ln2():
    assert task_loss(np.zeros(5), np.array([1, 0, 1, 1, 0.0])) == pytest.approx(np.log(2.0))


def test_task_loss_confident_correct_is_tiny():
    assert task_loss(np.array([20.0]), np.array([1.0])) == pytest.approx(2.0611536e-9)


def test_task_loss_sign_symmetry():
    rng = np.random.default_rng(2)
    z = rng.standard_normal(12)
    y = (rng.uniform(size=12) < 0.5).astype(np.float64)
    assert task_loss(z, y) == pytest.approx(task_loss(-z, 1.0 - y), abs=1e-12)


def test_task_loss_rejects_non_binary_labels():
    with pytest.raises(DataError):
        task_loss(np.zeros(2), np.array([0.0, 2.0]))


def deep_net(seed, shared_widths=(8, 6, 4), head_widths=(4, 3), num_tasks=2):
    # A [8, 6, 4] trunk with [4, 3] heads by default. At init scale most rows
    # of a net this deep sit on a relu kink, and some hidden layers are dead
    # on every row. So weights are tripled, and each hidden bias is set so that
    # its unit's median pre-activation on a reference batch is zero.
    net = init_net(8, list(shared_widths), list(head_widths), num_tasks, seed=seed)
    for buffer in [net.theta, *net.phi]:
        buffer *= 3.0
    x = np.random.default_rng(seed).standard_normal((256, 8))
    for i, layer in enumerate(net.shared_layers):
        layer.bias[...] -= np.median(pre_activations(net, forward(net, x)[1])[0][i], axis=0)
    for t in range(num_tasks):
        for i, layer in enumerate(net.head(t)[:-1]):
            layer.bias[...] -= np.median(pre_activations(net, forward(net, x)[1])[1][i][t], axis=0)
    return net


def test_backward_matches_fd_on_theta_and_phi_10_seeds():
    # Relative error < 1e-4 at eps=1e-3 against central differences, on a
    # one-hidden-layer head and on a deeper trunk with two-hidden-layer heads.
    nets = [init_net(8, [16, 8], [4], 2, seed=seed) for seed in range(10)]
    nets += [deep_net(seed) for seed in range(10)]
    for seed, net in enumerate(nets):
        x, y = kink_free_batch(net, 16, seed=100 + seed)
        _, cache = forward(net, x)
        for t in range(2):
            grad_theta, grad_phi = backward_task(net, cache, y, t)

            def theta_loss(v):
                probe = net.copy()
                probe.set_theta(v)
                logits, _ = forward(probe, x)
                return task_loss(logits[:, t], y)

            def phi_loss(v):
                probe = net.copy()
                probe.phi[t] = v
                logits, _ = forward(probe, x)
                return task_loss(logits[:, t], y)

            fd_theta = finite_diff_gradient(theta_loss, net.get_theta().values, eps=1e-3)
            fd_phi = finite_diff_gradient(phi_loss, net.phi[t], eps=1e-3)
            assert np.linalg.norm(fd_theta - grad_theta.values) < 1e-4 * np.linalg.norm(
                grad_theta.values
            )
            assert np.linalg.norm(fd_phi - grad_phi.values) < 1e-4 * np.linalg.norm(
                grad_phi.values
            )


def test_backward_zero_signal_when_labels_equal_probabilities():
    # sigma(0) = 0.5 labels make the output delta exactly zero, so every
    # gradient below it vanishes.
    net = small_net()
    for t in range(net.num_tasks):
        net.head(t)[-1].weights[...] = 0.0
    x = batch(4, 8)[0]
    _, cache = forward(net, x)
    grad_theta, grad_phi = backward_task(net, cache, np.full(4, 0.5), 0)
    assert np.array_equal(grad_theta.values, np.zeros(len(grad_theta)))
    assert np.array_equal(grad_phi.values, np.zeros(len(grad_phi)))


def test_backward_other_heads_untouched():
    net = small_net(1)
    x, y = batch(5, 8, seed=9)
    _, cache = forward(net, x)
    grad_theta, grad_phi = backward_task(net, cache, y, 0)
    assert grad_phi.layout == net.phi_layout and len(grad_phi) == net.phi.shape[1]
    assert all(e.name.startswith("task.") for e in grad_phi.layout)
    assert all(e.name.startswith("shared.") for e in grad_theta.layout)


def test_backward_stale_cache_rejected():
    net = small_net()
    x = batch(4, 8)[0]
    shallower = forward(init_net(8, [16], [4], 2, seed=0), x)[1]
    with pytest.raises(DimensionError, match="^stale cache: layer count mismatch$"):
        backward_task(net, shallower, np.zeros(4), 0)
    more_tasks = forward(init_net(8, [16, 8], [4], 3, seed=0), x)[1]
    with pytest.raises(DimensionError, match="^stale cache: task count or batch size mismatch$"):
        backward_task(net, more_tasks, np.zeros(4), 0)
    with pytest.raises(DimensionError, match="^5 labels for batch of 4$"):
        backward_task(net, forward(net, x)[1], np.zeros(5), 0)


def test_relu_slope_at_an_exact_zero_is_zero():
    # Trunk unit 1 of the last shared layer and head unit 1 of the hidden head
    # layer have zero incoming weights and bias, so their pre-activation is
    # exactly 0 on every row. Taking the slope there as 0 zeroes both units'
    # incoming weight and bias gradients, and the trunk unit's entries of the
    # exact Hessian-vector product, though their outgoing weights are not zero.
    # The other units' biases keep them active, so their entries are not zero.
    rng = np.random.default_rng(7)
    shared = [
        DenseLayer(rng.standard_normal((5, 4)), np.full(4, 3.0), "relu"),
        DenseLayer(rng.standard_normal((4, 3)), [9.0, 0.0, 9.0], "relu"),
    ]
    shared[1].weights[:, 1] = 0.0
    heads = []
    for _ in range(2):
        hidden = DenseLayer(rng.standard_normal((3, 2)), [40.0, 0.0], "relu")
        hidden.weights[:, 1] = 0.0
        heads.append([hidden, DenseLayer([[0.1], [1.0]], [0.0], "identity")])
    net = SharedBottomNet(5, shared, heads)
    x = rng.standard_normal((12, 5))
    y = (rng.uniform(size=(2, 12)) < 0.5).astype(np.float64)
    _, cache = forward(net, x)
    grad_theta, grad_phi = np.empty((2, net.theta.size)), np.empty(net.phi.shape)
    deltas = [None] * len(net.shared_layers)
    backward(net, cache, y, grad_phi=grad_phi, grad_theta=grad_theta, deltas=deltas)
    w, b = net._theta_slots[1]
    hw, hb = net._phi_slots[0]
    assert np.any(grad_theta[:, w].reshape(2, 4, 3)[:, :, [0, 2]] != 0.0)
    assert np.all(grad_theta[:, w].reshape(2, 4, 3)[:, :, 1] == 0.0)
    assert np.all(grad_theta[:, b][:, 1] == 0.0)
    assert np.all(grad_phi[:, hw].reshape(2, 3, 2)[:, :, 1] == 0.0)
    assert np.all(grad_phi[:, hb][:, 1] == 0.0)
    product = trunk_hvp(net, cache, deltas)(rng.standard_normal((2, net.theta.size)))
    assert np.any(product[:, w].reshape(2, 4, 3)[:, :, [0, 2]] != 0.0)
    assert np.all(product[:, w].reshape(2, 4, 3)[:, :, 1] == 0.0)
    assert np.all(product[:, b][:, 1] == 0.0)


@pytest.mark.parametrize(
    "operation", ["heads_forward", "backward_heads", "backward_trunk", "trunk_hvp"]
)
@pytest.mark.parametrize("shared_widths", [[6, 4], []])
def test_forward_writes_relu_outputs_only_into_their_own_layers(shared_widths, operation):
    # A layer's output and its delta are written in place over their own fresh
    # arrays: the caller's features stay bitwise as they were, the heads read
    # the trunk's last output, and a later heads-only pass, either backward
    # phase or a curvature product leaves every cached activation, the
    # labels, the direction V and the trunk deltas bitwise as they were.
    trunk = init_net(8, shared_widths, [4], 3, seed=1).shared_layers if shared_widths else []
    width = shared_widths[-1] if shared_widths else 8
    heads = [init_net(8, [width], [4], 3, seed=2).head(t) for t in range(3)]
    net = SharedBottomNet(8, trunk, heads)
    x = batch(9, 8, seed=4)[0]
    y = (np.random.default_rng(5).uniform(size=(3, 9)) < 0.5).astype(np.float64)
    before = x.copy()
    _, cache = forward(net, x)
    assert np.array_equal(x, before)
    assert cache.heads_act[0] is cache.trunk_act[-1]
    deltas = [None] * len(net.shared_layers)
    V = np.random.default_rng(6).standard_normal((3, net.theta.size))
    read = [x, y, V, *cache.trunk_act, *cache.heads_act]
    kept = [a.copy() for a in read]
    if operation == "heads_forward":
        net.phi[...] += 0.5
        _, again = heads_forward(net, cache)
        assert again.heads_act[0] is cache.trunk_act[-1]
    elif operation == "backward_heads":
        backward(net, cache, y, grad_phi=np.empty(net.phi.shape))
    elif operation == "backward_trunk":
        backward(net, cache, y, grad_theta=np.empty((3, net.theta.size)), deltas=deltas)
    else:
        backward(net, cache, y, deltas=deltas)
        read, kept = read + deltas, kept + [d.copy() for d in deltas]
        trunk_hvp(net, cache, deltas)(V)
    assert all(map(np.array_equal, read, kept))


def test_theta_grad_fn_runs_its_own_head_only():
    # The trunk gradient of task t needs the trunk and head t alone: it equals
    # backward_task's bit for bit, a non-finite logit of head t raises, and one
    # of another head does not; bad inputs are refused when the function is built.
    net = small_net(3)
    x, y = batch(10, 8, seed=2)
    _, cache = forward(net, x)
    for t in range(2):
        expected = backward_task(net, cache, y, t)[0].values
        assert np.array_equal(theta_grad_fn(net, x, y, t)(net.theta.copy()), expected)
    net.phi[1][...] = np.nan
    assert np.all(np.isfinite(theta_grad_fn(net, x, y, 0)(net.theta.copy())))
    with pytest.raises(EvaluationError, match="non-finite logits"):
        theta_grad_fn(net, x, y, 1)(net.theta.copy())
    with pytest.raises(DimensionError, match="out of range"):
        theta_grad_fn(net, x, y, -1)
    with pytest.raises(DimensionError, match="labels for batch"):
        theta_grad_fn(net, x, y[:-1], 0)


def hvp_case(shared_widths, head_widths, seed=0, n=16):
    """A centred three-task net, a kink-free batch with (n, 3) labels, and its cache."""
    net = deep_net(seed, shared_widths, head_widths, num_tasks=3)
    x, _ = kink_free_batch(net, n, seed=50 + seed)
    y = (np.random.default_rng(seed).uniform(size=(n, 3)) < 0.5).astype(np.float64)
    return net, x, y, forward(net, x)[1]


def task_products(net, cache, y):
    """Row t of ``trunk_hvp`` on the (n, T) labels ``y`` as task t's ``v -> H v``,
    for each task: ``v`` in every row of the stacked direction."""
    deltas = [None] * len(net.shared_layers)
    backward(net, cache, np.ascontiguousarray(y.T), deltas=deltas)
    hvp = trunk_hvp(net, cache, deltas)
    return [
        lambda v, t=t: hvp(np.broadcast_to(v, (net.num_tasks, v.size)))[t]
        for t in range(net.num_tasks)
    ]


@pytest.mark.parametrize("head_widths", [[4], [4, 3]])
@pytest.mark.parametrize("shared_widths", [[8], [16, 8], [8, 5, 4]])
def test_trunk_hvp_matches_central_differences_of_the_gradient(shared_widths, head_widths):
    # Away from relu kinks the R-op product is the derivative of the analytic
    # trunk gradient along v, which central differences reproduce to O(eps^2).
    net, x, y, cache = hvp_case(shared_widths, head_widths)
    rng = np.random.default_rng(3)
    for t, hvp in enumerate(task_products(net, cache, y)):
        grad_fn = theta_grad_fn(net, x, y[:, t], t)
        for _ in range(2):
            v = rng.standard_normal(net.theta.size)
            v /= np.linalg.norm(v)
            want = finite_diff_hvp(grad_fn, net.theta, v)
            assert np.linalg.norm(hvp(v) - want) <= 1e-6 * np.linalg.norm(want)


@pytest.mark.parametrize("shared_widths", [[8], [16, 8], [8, 5, 4]])
def test_trunk_hvp_is_symmetric_and_linear(shared_widths):
    # u.Hv = v.Hu, H(a u + b v) = a Hu + b Hv, and H0 = 0, each in floating point.
    net, _, y, cache = hvp_case(shared_widths, [4, 3], seed=1)
    rng = np.random.default_rng(4)
    for hvp in task_products(net, cache, y):
        u, v = rng.standard_normal((2, net.theta.size))
        hu, hv = hvp(u), hvp(v)
        assert abs(u @ hv - v @ hu) <= 1e-12 * abs(u @ hv)
        mixed = hvp(2.5 * u - 0.75 * v)
        assert np.linalg.norm(mixed - (2.5 * hu - 0.75 * hv)) <= 1e-12 * np.linalg.norm(mixed)
        assert np.array_equal(hvp(np.zeros(net.theta.size)), np.zeros(net.theta.size))


def test_trunk_hvp_of_a_trunkless_net_is_empty():
    # Features pass straight into the heads: there is no trunk parameter, and
    # the product of every task is a (T, 0) array.
    heads = [init_net(6, [8], [4], 2, seed=0).head(t) for t in range(2)]
    net = SharedBottomNet(8, [], heads)
    x, y = batch(5, 8, seed=3)
    _, cache = forward(net, x)
    deltas = []
    backward(net, cache, np.stack([y, 1.0 - y]), deltas=deltas)
    product = trunk_hvp(net, cache, deltas)(np.zeros((2, 0)))
    assert product.shape == (2, 0) and net.theta.size == 0


def test_theta_loss_fn_runs_its_own_head_only():
    # The loss of task t needs the trunk and head t alone: it equals the full
    # forward's bit for bit, and a non-finite logit of another head does not
    # reach it; bad inputs are refused when the function is built.
    from cograd.model import theta_loss_fn

    net = small_net(3)
    x, y = batch(10, 8, seed=2)
    logits, _ = forward(net, x)
    for t in range(2):
        assert theta_loss_fn(net, x, y, t)(net.theta.copy()) == task_loss(logits[:, t], y)
    net.phi[1][...] = np.nan
    assert np.isfinite(theta_loss_fn(net, x, y, 0)(net.theta.copy()))
    with pytest.raises(DimensionError, match="out of range"):
        theta_loss_fn(net, x, y, -1)
    with pytest.raises(DimensionError, match="labels for batch"):
        theta_loss_fn(net, x, y[:-1], 0)


def test_duplicated_rows_leave_loss_and_grads_unchanged():
    net = small_net(2)
    x, y = batch(6, 8, seed=5)
    x2, y2 = np.vstack([x, x]), np.concatenate([y, y])
    logits, cache = forward(net, x)
    logits2, cache2 = forward(net, x2)
    assert task_loss(logits2[:, 0], y2) == pytest.approx(task_loss(logits[:, 0], y), abs=1e-12)
    g1 = backward_task(net, cache, y, 0)[0].values
    g2 = backward_task(net, cache2, y2, 0)[0].values
    assert np.max(np.abs(g1 - g2)) < 1e-12


def test_set_theta_round_trip_bitwise():
    net = small_net(4)
    theta = net.get_theta().values.copy()
    net.set_theta(theta * 2.0)
    assert np.array_equal(net.get_theta().values, theta * 2.0)
    net.set_theta(theta)
    assert np.array_equal(net.get_theta().values, theta)


def test_copy_is_independent():
    net = small_net()
    clone = net.copy()
    clone.shared_layers[0].weights[...] = 99.0
    assert not np.array_equal(net.shared_layers[0].weights, clone.shared_layers[0].weights)


def test_checkpoint_round_trip(tmp_path):
    net = small_net(8)
    path = tmp_path / "ckpt.json"
    save_net(net, path)
    back = load_net(path)
    assert np.array_equal(back.get_theta().values, net.get_theta().values)
    assert np.array_equal(back.phi, net.phi)
    x = batch(3, 8)[0]
    assert np.array_equal(forward(back, x)[0], forward(net, x)[0])


def test_trunk_activations_match_forward_cache():
    net = small_net(6)
    x = batch(7, 8, seed=3)[0]
    _, cache = forward(net, x)
    assert np.array_equal(trunk_activations(net, x), cache.trunk_act[-1])


def test_row_blocks_start_at_multiples_of_1024_and_merge_a_one_row_tail():
    def bounds(n):
        return [(rows.start, rows.stop) for rows in _row_blocks(n)]

    assert bounds(0) == []
    assert bounds(1) == [(0, 1)]
    assert bounds(1024) == [(0, 1024)]
    assert bounds(1025) == [(0, 1025)]
    assert bounds(1026) == [(0, 1024), (1024, 1026)]
    assert bounds(3073) == [(0, 1024), (1024, 2048), (2048, 3073)]


@pytest.mark.parametrize("num_tasks", [2, 3])
@pytest.mark.parametrize("shared_widths", [[8], [16, 8], [128, 64]])
def test_blocked_passes_equal_one_unblocked_forward_bitwise(shared_widths, num_tasks):
    # Blocks start at row 0 and every multiple of 1,024, and a one-row tail
    # joins the block before it. A BLAS product takes rows in fixed-size
    # groups counted from its first row, with other kernels for a leftover
    # group, and numpy hands a one-row product to gemv; blocks that kept
    # neither rule (1,666/1,667 rows of 8,333, say) changed last bits.
    net = init_net(64, shared_widths, [4], num_tasks, seed=len(shared_widths))
    x = batch(3333, 64, seed=num_tasks)[0]
    for n in (1, 2, 1023, 1024, 1025, 2049, 3333):
        logits, cache = forward(net, x[:n])
        assert np.array_equal(predict_proba(net, x[:n]), sigmoid(logits))
        assert np.array_equal(trunk_activations(net, x[:n]), cache.trunk_act[-1])


def test_blocked_passes_hold_one_block_at_a_time():
    net = init_net(64, [128, 64], [4], 2, seed=0)
    x = batch(20_000, 64)[0]
    mib = 2**20
    tracemalloc.start()
    try:
        predict_proba(net, x)
        proba_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        acts = trunk_activations(net, x)
        acts_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # An unblocked pass holds every layer of all 20,000 rows: about 62 and 59 MiB.
    assert proba_peak < 10 * mib
    assert acts_peak < acts.nbytes + 5 * mib


def test_head_must_end_in_single_identity_logit():
    bad = DenseLayer(np.zeros((8, 2)), np.zeros(2), "identity")
    trunk = [DenseLayer(np.zeros((4, 8)), np.zeros(8), "relu")]
    with pytest.raises(ConfigError):
        SharedBottomNet(4, trunk, [[bad]])


def test_heads_must_share_one_architecture():
    # The heads are one (T, P_h) buffer run as one stack, so a head whose layer
    # shapes, depth or activations differ from head 0's is refused by name.
    trunk = [DenseLayer(np.zeros((4, 8)), np.zeros(8), "relu")]

    def head(width=3, activation="relu"):
        return [
            DenseLayer(np.zeros((8, width)), np.zeros(width), activation),
            DenseLayer(np.zeros((width, 1)), np.zeros(1), "identity"),
        ]

    shallow = [DenseLayer(np.zeros((8, 1)), np.zeros(1), "identity")]
    for other in (head(width=5), head(activation="identity"), shallow):
        with pytest.raises(ConfigError, match=r"heads\[2\] differs from heads\[0\]"):
            SharedBottomNet(4, trunk, [head(), head(), other])
    assert SharedBottomNet(4, trunk, [head(), head(), head()]).num_tasks == 3


def test_load_net_refuses_heads_that_differ(tmp_path):
    path = tmp_path / "ckpt.json"
    save_net(init_net(4, [3], [2], num_tasks=2, seed=0), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    first, last = payload["heads"][1]
    for row in first["weights"]:
        row.append(0.0)
    first["bias"].append(0.0)
    last["weights"].append([0.0])
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"ckpt\.json: heads\[1\] differs from heads\[0\]"):
        load_net(path)


def test_phi_grad_layout_matches_phi():
    net = small_net(1)
    x, y = batch(5, 8, seed=9)
    logits, cache = forward(net, x)
    _, grad_phi = backward_task(net, cache, y, 1)
    assert grad_phi.layout == net.phi_layout
    names = [e.name for e in grad_phi.layout]
    assert names == ["task.0.bias", "task.0.weight", "task.1.bias", "task.1.weight"]
    # The output bias gradient, mean(sigmoid(z) - y), sits at its named slot.
    out_bias = grad_phi.layout[2]
    assert grad_phi.values[out_bias.offset] == pytest.approx(np.mean(expit(logits[:, 1]) - y))


def test_layout_sorts_names_as_strings_with_contiguous_offsets():
    net = init_net(4, [3] * 11, [2], num_tasks=2, seed=0)
    names = [e.name for e in net.theta_layout]
    order = sorted(range(11), key=str)  # 0, 1, 10, 2, ..., 9
    assert names == [f"shared.{i}.{part}" for i in order for part in ("bias", "weight")]
    assert names.index("shared.10.bias") < names.index("shared.2.bias")
    for layout, buffer in [(net.theta_layout, net.theta), (net.phi_layout, net.phi[0])]:
        offset = 0
        for entry in layout:
            assert entry.offset == offset
            offset += entry.size
        assert offset == buffer.size
    assert net.theta_layout[0].shape == (3,) and net.theta_layout[1].shape == (4, 3)


def test_layer_tensors_are_views_into_the_flat_buffers():
    net = init_net(4, [3] * 11, [2], num_tasks=2, seed=0)
    for layer in net.shared_layers:
        assert np.shares_memory(layer.weights, net.theta)
        assert np.shares_memory(layer.bias, net.theta)
    for t in range(2):
        for layer in net.head(t):
            assert np.shares_memory(layer.weights, net.phi[t])
            assert np.shares_memory(layer.bias, net.phi[t])
            assert not np.shares_memory(layer.weights, net.phi[1 - t])
    # Each head layer is also one stacked view over every task's row.
    assert net.phi.shape == (2, sum(entry.size for entry in net.phi_layout))
    for i, stacked in enumerate(net.head_layers):
        assert stacked.weights.shape == (2, *net.head(0)[i].weights.shape)
        assert stacked.bias.shape == (2, net.head(0)[i].fan_out)
        assert np.shares_memory(stacked.weights, net.phi)
        assert np.shares_memory(stacked.bias, net.phi)
        for t in range(2):
            assert np.array_equal(stacked.weights[t], net.head(t)[i].weights)
            assert np.array_equal(stacked.bias[t], net.head(t)[i].bias)
    net.head_layers[0].weights[1] += 1.0
    assert np.array_equal(net.head_layers[0].weights[1], net.head(1)[0].weights)
    # Each named slot of the buffer holds that layer's tensor, row-major.
    for entry in net.theta_layout:
        _, i, part = entry.name.split(".")
        layer = net.shared_layers[int(i)]
        tensor = layer.weights if part == "weight" else layer.bias
        assert np.array_equal(net.theta[entry.offset : entry.offset + entry.size], tensor.ravel())
    net.set_theta(np.zeros(net.theta.size))
    assert all(not layer.weights.any() for layer in net.shared_layers)
    net = small_net(3)
    x = batch(3, 8)[0]
    before = forward(net, x)[0]
    net.set_theta(np.ones(net.theta.size))
    assert not np.array_equal(forward(net, x)[0], before)
    with pytest.raises(LayoutError):
        net.set_theta(np.zeros(net.theta.size + 1))


def test_get_theta_returns_a_copy():
    net = small_net(2)
    theta, saved = net.get_theta().values, net.theta.copy()
    theta += 1.0
    assert np.array_equal(net.theta, saved)


def test_net_does_not_alias_caller_layers():
    trunk = [DenseLayer(np.ones((2, 3)), np.zeros(3), "relu")]
    head = [DenseLayer(np.ones((3, 1)), np.zeros(1), "identity")]
    net = SharedBottomNet(2, trunk, [head])
    for layer in net.shared_layers + net.head(0):
        for theirs in trunk + head:
            assert not np.shares_memory(layer.weights, theirs.weights)
            assert not np.shares_memory(layer.bias, theirs.bias)
    net.set_theta(np.full(net.theta.size, 5.0))
    net.phi[0] = 5.0
    assert np.array_equal(trunk[0].weights, np.ones((2, 3)))
    assert np.array_equal(head[0].weights, np.ones((3, 1)))


def test_checkpoint_theta_layout_is_the_nets(tmp_path):
    net = init_net(4, [3] * 11, [2], num_tasks=2, seed=1)
    path = tmp_path / "ckpt.json"
    save_net(net, path)
    saved = json.loads(path.read_text(encoding="utf-8"))["theta_layout"]
    expected = [
        {"name": e.name, "shape": list(e.shape), "offset": e.offset} for e in net.theta_layout
    ]
    assert saved == expected
    assert load_net(path).theta_layout == net.theta_layout
