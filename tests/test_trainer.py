import numpy as np
import pytest

from cograd import (
    AdamState,
    ConfigError,
    DivergenceError,
    MultiTaskDataset,
    ProbeConfig,
    ProbeError,
    STRATEGY_KINDS,
    StrategyConfig,
    TrainConfig,
    adam_step,
    backward_task,
    forward,
    generate_synthetic,
    init_net,
    probe_harmonization,
    save_metrics,
    sgd_step,
    split,
    SyntheticTaskConfig,
    task_loss,
    train,
)


def small_dataset(seed=0, n=240, angle=45.0, rates=(0.5, 0.5), noise=0.0):
    return generate_synthetic(
        SyntheticTaskConfig(
            n_samples=n,
            n_features=6,
            task_angle_deg=angle,
            positive_rates=rates,
            label_noise=noise,
            seed=seed,
        )
    )


def small_net(seed=0):
    return init_net(6, [8], [4], 2, seed)


def small_config(**kw):
    base = dict(
        steps=12,
        batch_size=40,
        learning_rate=0.05,
        strategy=StrategyConfig(kind="sum"),
        loss_weights=(1.0, 1.0),
        seed=7,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_adam_first_step_is_signed_learning_rate():
    g = np.array([3.0, -0.5, 1e-3])
    state = AdamState.zeros(3)
    new = adam_step(np.zeros(3), g, state, 0.01)
    expected = -0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(new, expected, atol=1e-15)
    assert np.allclose(new, -0.01 * np.sign(g), atol=1e-5)
    assert state.step_count == 1


def test_adam_zero_gradient_no_move():
    state = AdamState.zeros(4)
    params = np.array([1.0, -2.0, 0.5, 0.0])
    assert np.array_equal(adam_step(params, np.zeros(4), state, 0.1), params)
    assert state.step_count == 1


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(0)
    params = rng.standard_normal(6)
    state = AdamState.zeros(6)
    m = np.zeros(6)
    v = np.zeros(6)
    ref = params.copy()
    for t in range(1, 8):
        g = rng.standard_normal(6)
        params = adam_step(params, g, state, 0.02)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        ref = ref - 0.02 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(params, ref, atol=1e-14)


def test_sgd_step_exact():
    got = sgd_step(np.array([1.0, 2.0]), np.array([10.0, -4.0]), 0.1)
    assert np.array_equal(got, np.array([0.0, 2.4]))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        small_config(steps=0)
    with pytest.raises(ConfigError):
        small_config(batch_size=0)
    with pytest.raises(ConfigError):
        small_config(learning_rate=0.0)
    with pytest.raises(ConfigError):
        small_config(optimizer="adagrad")
    with pytest.raises(ConfigError):
        small_config(loss_weights=(1.0, -1.0))
    with pytest.raises(ConfigError):
        small_config(loss_weights="uniform")


def test_train_deterministic_across_runs():
    splits = split(small_dataset(), (4, 1, 1))
    net_a, log_a = train(small_net(), splits, small_config(eval_every=4))
    net_b, log_b = train(small_net(), splits, small_config(eval_every=4))
    assert np.array_equal(net_a.get_theta().values, net_b.get_theta().values)
    for t in range(2):
        assert np.array_equal(net_a.get_phi(t).values, net_b.get_phi(t).values)
    assert [r.losses for r in log_a.steps] == [r.losses for r in log_b.steps]
    assert [r.values for r in log_a.evals] == [r.values for r in log_b.evals]


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_one_config_trains_twice_bitwise(kind):
    # Nothing a run updates may live in the config it is given.
    splits = split(small_dataset(), (4, 1, 1))
    cfg = small_config(strategy=StrategyConfig(kind=kind, gammas=(0.5, 0.5)))
    net_a, _ = train(small_net(), splits, cfg)
    net_b, _ = train(small_net(), splits, cfg)
    assert np.array_equal(net_a.get_theta().values, net_b.get_theta().values)
    for t in range(2):
        assert np.array_equal(net_a.get_phi(t).values, net_b.get_phi(t).values)


def test_null_strategies_match_sum_bitwise():
    # cograd with all-zero gammas and the exact-HVP variant must reproduce
    # the plain summed-gradient trajectory bit for bit.
    splits = split(small_dataset(), (4, 1, 1))
    nets = {}
    for name, strategy in [
        ("sum", StrategyConfig(kind="sum")),
        ("cograd", StrategyConfig(kind="cograd", gammas=(0.0, 0.0))),
        ("exact", StrategyConfig(kind="cograd_exact_hvp", gammas=(0.0, 0.0))),
    ]:
        net, _ = train(small_net(), splits, small_config(steps=50, strategy=strategy))
        nets[name] = net
    for name in ("cograd", "exact"):
        assert np.array_equal(nets[name].get_theta().values, nets["sum"].get_theta().values)
        for t in range(2):
            assert np.array_equal(nets[name].get_phi(t).values, nets["sum"].get_phi(t).values)


def test_single_sgd_step_hand_trace():
    # Recompute the two phases by hand: head updates from per-task losses at
    # the initial parameters, then the trunk update from gradients taken at
    # the updated heads.
    ds = small_dataset(n=30)
    net = small_net()
    reference = net.copy()
    lr = 0.05
    weights = (0.25, 1.75)

    cfg = small_config(
        steps=1,
        batch_size=30,
        learning_rate=lr,
        loss_weights=weights,
        optimizer="sgd",
        shuffle=False,
    )
    trained, log = train(net, split(ds, (28, 1, 1)), cfg)

    x = ds.features[:28]
    y = ds.labels[:28]
    _, cache = forward(reference, x)
    for t in range(2):
        _, grad_phi = backward_task(reference, cache, y[:, t], t)
        reference.set_phi(t, reference.get_phi(t).values - lr * (weights[t] * grad_phi.values))
    logits, cache = forward(reference, x)
    agg = np.zeros(len(reference.get_theta()))
    expected_losses = []
    for t in range(2):
        expected_losses.append(task_loss(logits[:, t], y[:, t]))
        grad_theta, _ = backward_task(reference, cache, y[:, t], t)
        agg += weights[t] * grad_theta.values
    reference.set_theta(reference.get_theta().values - lr * agg)

    assert np.array_equal(trained.get_theta().values, reference.get_theta().values)
    for t in range(2):
        assert np.array_equal(trained.get_phi(t).values, reference.get_phi(t).values)
    assert log.steps[0].losses == tuple(expected_losses)


def test_sum_step_matches_monolithic_adam_oracle():
    # With unit weights and the plain sum strategy, one trainer step on the
    # trunk equals a single Adam step on the gradient of L_0 + L_1.
    ds = small_dataset(n=32)
    cfg = small_config(steps=1, batch_size=32, loss_weights=(1.0, 1.0), shuffle=False)
    trained, _ = train(small_net(seed=3), split(ds, (30, 1, 1)), cfg)

    reference = small_net(seed=3)
    x, y = ds.features[:30], ds.labels[:30]
    _, cache = forward(reference, x)
    for t in range(2):
        _, grad_phi = backward_task(reference, cache, y[:, t], t)
        phi_state = AdamState.zeros(len(grad_phi.values))
        reference.set_phi(
            t, adam_step(reference.get_phi(t).values, grad_phi.values, phi_state, cfg.learning_rate)
        )
    _, cache = forward(reference, x)
    monolithic = np.zeros(len(reference.get_theta()))
    for t in range(2):
        grad_theta, _ = backward_task(reference, cache, y[:, t], t)
        monolithic += grad_theta.values
    theta_state = AdamState.zeros(len(monolithic))
    expected = adam_step(reference.get_theta().values, monolithic, theta_state, cfg.learning_rate)

    assert np.linalg.norm(trained.get_theta().values - expected) < 1e-10


def test_head_update_isolated_from_other_task():
    # Task 1's head update must not depend on task 0's labels.
    ds_a = small_dataset(n=40)
    flipped = ds_a.labels.copy()
    flipped[:, 0] = 1.0 - flipped[:, 0]
    from cograd import MultiTaskDataset

    ds_b = MultiTaskDataset(features=ds_a.features, labels=flipped)
    cfg = small_config(steps=1, batch_size=38, optimizer="sgd", shuffle=False)
    net_a, _ = train(small_net(), split(ds_a, (38, 1, 1)), cfg)
    net_b, _ = train(small_net(), split(ds_b, (38, 1, 1)), cfg)
    assert np.array_equal(net_a.get_phi(1).values, net_b.get_phi(1).values)
    assert not np.array_equal(net_a.get_phi(0).values, net_b.get_phi(0).values)


def test_train_builds_no_dataset_per_batch(monkeypatch):
    # Batches are row indices into the validated train split: a run with
    # several epochs, a shuffle and periodic eval constructs no dataset.
    splits = split(small_dataset(), (4, 1, 1))
    built = []
    original = MultiTaskDataset.__post_init__

    def counting_post_init(self):
        built.append(self.n_rows)
        original(self)

    monkeypatch.setattr(MultiTaskDataset, "__post_init__", counting_post_init)
    _, log = train(small_net(), splits, small_config(steps=12, eval_every=4))
    assert len(log.steps) == 12
    assert built == []


def test_eval_cadence():
    splits = split(small_dataset(), (4, 1, 1))
    _, log = train(small_net(), splits, small_config(steps=10, eval_every=3))
    assert [r.step for r in log.evals] == [3, 6, 9]
    assert all(r.metric == "auc" for r in log.evals)
    assert len(log.steps) == 10


def test_transference_cadence_and_sign():
    splits = split(small_dataset(angle=0.0), (4, 1, 1))
    cfg = small_config(steps=6, transference_every=2, strategy=StrategyConfig(kind="cograd", gammas=(0.05, 0.05)))
    _, log = train(small_net(), splits, cfg)
    steps = sorted({r.step for r in log.transference})
    assert steps == [2, 4, 6]
    # two ordered pairs per measured step
    assert len(log.transference) == 6
    assert all(r.gamma_used == 0.05 for r in log.transference)


def test_divergence_raises():
    splits = split(small_dataset(), (4, 1, 1))
    cfg = small_config(steps=5, learning_rate=1e120, optimizer="sgd")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="step"):
            train(small_net(), splits, cfg)


def test_task_count_mismatch():
    splits = split(small_dataset(), (4, 1, 1))
    net = init_net(6, [8], [4], 3, 0)
    with pytest.raises(ConfigError):
        train(net, splits, small_config())


def test_prior_weights_resolved_from_train_split():
    ds = small_dataset(n=600, rates=(0.5, 0.1))
    splits = split(ds, (4, 1, 1))
    net, log = train(small_net(), splits, small_config(loss_weights="prior", steps=3))
    assert len(log.steps) == 3


def test_save_metrics_deterministic_bytes(tmp_path):
    splits = split(small_dataset(), (4, 1, 1))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        _, log = train(
            small_net(),
            splits,
            small_config(eval_every=4, transference_every=6),
        )
        save_metrics(log, out)
    for name in ("metrics_steps.csv", "metrics_eval.csv", "metrics_transference.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    header = (out_a / "metrics_steps.csv").read_text().splitlines()[0]
    assert header == "step,loss_0,loss_1,cos_0_1"


def test_probe_identical_tasks_all_general():
    # angle 0 with equal rates duplicates the label column, so the two
    # fitted readouts coincide and every unit counts as shared knowledge.
    ds = small_dataset(n=400, angle=0.0)
    net = small_net(seed=5)
    result = probe_harmonization(net, ds)
    assert result.general_share == 1.0
    assert np.allclose(result.diffs, 0.0, atol=1e-9)
    assert result.counts.sum() == net.trunk_width
    assert result.counts[len(result.counts) // 2] == net.trunk_width


def test_probe_shapes_and_normalization():
    ds = small_dataset(n=400, angle=60.0, rates=(0.5, 0.3))
    net = small_net(seed=6)
    result = probe_harmonization(net, ds)
    width = net.trunk_width
    assert result.importances.shape == (2, width)
    assert np.allclose(result.importances.sum(axis=1), 1.0, atol=1e-12)
    assert abs(result.diffs.sum()) < 1e-12
    assert result.bin_centers.shape == (41,)
    assert result.bin_centers[20] == pytest.approx(0.0, abs=1e-15)
    assert result.counts.sum() == width
    assert 0.0 <= result.general_share <= 1.0


def test_probe_nonconvergence_raises():
    ds = small_dataset(n=100)
    with pytest.raises(ProbeError, match="iterations"):
        probe_harmonization(small_net(), ds, ProbeConfig(max_iters=1))


def test_probe_task_selection_validation():
    ds = small_dataset(n=50)
    with pytest.raises(ConfigError):
        probe_harmonization(small_net(), ds, ProbeConfig(tasks=(0, 0)))
    with pytest.raises(ConfigError):
        probe_harmonization(small_net(), ds, ProbeConfig(tasks=(0, 5)))


def test_metrics_log_rejects_nonincreasing_steps():
    from cograd import MetricsLog, StepRecord

    log = MetricsLog(num_tasks=2)
    log.add_step(StepRecord(step=1, losses=(0.5, 0.5), cosines=np.eye(2)))
    with pytest.raises(ConfigError):
        log.add_step(StepRecord(step=1, losses=(0.4, 0.4), cosines=np.eye(2)))


def _two_forward_reference(net, splits, cfg, weights):
    """The training step in its two-forward form, from public calls only.

    Phase 1 updates each head from ``backward_task``; phase 2 runs the whole
    net forward again, and exact-HVP products come from ``task_hvp`` on that
    second forward's cache. Transference records follow the paper's
    definition, ``transfer_exact`` of each target task's one-head loss
    function. Returns per-step losses and cosines, eval values and
    transference records.
    """
    from cograd import (
        TransferenceRecord,
        batches,
        modify_gradients,
        pairwise_cosine,
        task_hvp,
        transfer_exact,
        transfer_first_order,
    )
    from cograd.model import theta_loss_fn
    from cograd.trainer import evaluate_split

    data, lr, num_tasks = splits.train, cfg.learning_rate, net.num_tasks
    theta_state = AdamState.zeros(net.theta.size)
    phi_states = [AdamState.zeros(phi.size) for phi in net.phi]
    moving_norms = np.zeros(num_tasks)
    losses, cosines, evals, transference = [], [], [], []

    step = epoch = 0
    while step < cfg.steps:
        for rows in batches(data.n_rows, cfg.batch_size, cfg.seed * 1_000_003 + epoch):
            step += 1
            x, y = data.features[rows], data.labels[rows]
            _, cache = forward(net, x)
            for t in range(num_tasks):
                grad_phi = weights[t] * backward_task(net, cache, y[:, t], t)[1].values
                net.phi[t][...] = adam_step(net.phi[t], grad_phi, phi_states[t], lr)
            logits, cache = forward(net, x)
            grads = [backward_task(net, cache, y[:, t], t)[0].values for t in range(num_tasks)]
            losses.append(tuple(task_loss(logits[:, t], y[:, t]) for t in range(num_tasks)))
            if step % cfg.transference_every == 0:
                gammas = cfg.strategy.probe_gammas(num_tasks)
                transference.extend(
                    TransferenceRecord(
                        step,
                        i,
                        j,
                        transfer_exact(theta_loss_fn(net, x, y[:, j], j), net.theta, grads[i], g),
                        transfer_first_order(grads[i], grads[j], g),
                        g,
                    )
                    for i, g in enumerate(gammas)
                    for j in range(num_tasks)
                    if j != i
                )
            modified = modify_gradients(
                grads,
                cfg.strategy,
                order_seed=cfg.seed * 1_000_003 + step,
                moving_norms=moving_norms,
                hvp_fns=[task_hvp(net, cache, y[:, t], t) for t in range(num_tasks)],
            )
            aggregate = np.zeros(net.theta.size)
            for t in range(num_tasks):
                aggregate += weights[t] * modified[t]
            net.theta[...] = adam_step(net.theta, aggregate, theta_state, lr)
            cosines.append(pairwise_cosine(grads))
            if step % cfg.eval_every == 0:
                evals.append(evaluate_split(net, splits.val, "validation").values)
            if step == cfg.steps:
                break
        epoch += 1
    return losses, cosines, evals, transference


# name: (positive rates, one per task; train rows; loss weights; head widths)
_BITWISE_CASES = {
    "three_tasks": ((0.5, 0.3, 0.1), 200, (1.0, 0.5, 2.0), [4]),
    "one_task": ((0.3,), 200, (1.5,), [4]),
    "heads_4_3": ((0.5, 0.3, 0.1), 200, (1.0, 0.5, 2.0), [4, 3]),
    "one_row_last_batch": ((0.5, 0.3, 0.1), 201, (1.0, 0.5, 2.0), [4]),
}


@pytest.mark.parametrize(
    "kind, case",
    [pytest.param(kind, "three_tasks", id=kind) for kind in STRATEGY_KINDS]
    + [
        pytest.param(kind, case, id=f"{case}-{kind}")
        for case in ("one_task", "heads_4_3", "one_row_last_batch")
        for kind in STRATEGY_KINDS
    ],
)
def test_one_trunk_forward_step_is_bitwise_the_two_forward_step(kind, case):
    # Phase 2 reuses phase 1's trunk activations: the trunk has not changed in
    # between, so every parameter, loss and cosine must match the form that
    # runs the whole net forward twice, bit for bit, over several epochs. The
    # step runs every task as one stack; the reference calls each task alone.
    rates, train_rows, weights, head_widths = _BITWISE_CASES[case]
    num_tasks = len(rates)
    splits = split(small_dataset(n=train_rows + 60, rates=rates), (train_rows, 30, 30))
    assert splits.train.n_rows == train_rows
    gammas = (0.05, 0.02, 0.1) if kind == "cograd_exact_hvp" else (10.0, 5.0, 20.0)
    cfg = small_config(
        steps=7,
        strategy=StrategyConfig(kind=kind, gammas=gammas[:num_tasks]),
        loss_weights=weights,
        eval_every=3,
        transference_every=2,
    )
    trained, log = train(init_net(6, [8, 5], head_widths, num_tasks, 5), splits, cfg)
    reference = init_net(6, [8, 5], head_widths, num_tasks, 5)
    losses, cosines, evals, transference = _two_forward_reference(reference, splits, cfg, weights)

    assert np.array_equal(trained.theta, reference.theta)
    for t in range(num_tasks):
        assert np.array_equal(trained.phi[t], reference.phi[t])
    assert [r.losses for r in log.steps] == losses
    for record, expected in zip(log.steps, cosines, strict=True):
        assert np.array_equal(record.cosines, expected)
    assert [r.values for r in log.evals] == evals
    assert log.transference == transference


def test_a_step_that_records_transference_builds_no_net(monkeypatch):
    # The lookahead runs on the live net: T forward passes per recorded step
    # and no one-head probe net per task.
    from cograd import model

    built = []
    real_init = model.SharedBottomNet.__init__

    def counting_init(self, *args):
        built.append(args)
        real_init(self, *args)

    net = init_net(6, [8, 5], [4], 3, 0)
    monkeypatch.setattr(model.SharedBottomNet, "__init__", counting_init)
    splits = split(small_dataset(rates=(0.5, 0.3, 0.1)), (4, 1, 1))
    strategy = StrategyConfig(kind="cograd", gammas=(0.1, 0.0, 0.2))
    cfg = small_config(steps=4, strategy=strategy, loss_weights=None, transference_every=1)
    _, log = train(net, splits, cfg)
    assert len(log.transference) == 4 * 3 * 2
    assert built == []


def test_step_runs_the_trunk_forward_once_and_backward_once_per_task(monkeypatch):
    # With no periodic eval, an S-step sum run makes S trunk forward passes
    # and S trunk backward passes, and runs the stacked heads forward and
    # backward twice per step (once per phase), whatever the task count T:
    # every task rides the one pass.
    from cograd import model

    stack_forward, stack_backward = model._stack_forward, model._stack_backward
    steps = 5
    for num_tasks in (1, 4):
        net = init_net(6, [8, 5], [4], num_tasks, 0)
        counts = {"trunk_forward": 0, "trunk_backward": 0, "head_forward": 0, "head_backward": 0}

        def counting(original, direction, net=net, counts=counts):
            def wrapped(layers, *args):
                part = "trunk" if layers is net.shared_layers else "head"
                counts[f"{part}_{direction}"] += 1
                return original(layers, *args)

            return wrapped

        monkeypatch.setattr(model, "_stack_forward", counting(stack_forward, "forward"))
        monkeypatch.setattr(model, "_stack_backward", counting(stack_backward, "backward"))
        rates = (0.5, 0.3, 0.1, 0.2)[:num_tasks]
        splits = split(small_dataset(rates=rates), (4, 1, 1))
        train(net, splits, small_config(steps=steps, loss_weights=None, eval_every=0))
        assert counts == {
            "trunk_forward": steps,
            "trunk_backward": steps,
            "head_forward": 2 * steps,
            "head_backward": 2 * steps,
        }, num_tasks


def test_overflowing_adam_moment_raises_divergence_without_a_numpy_warning():
    import warnings

    splits = split(small_dataset(), (4, 1, 1))
    cfg = small_config(strategy=StrategyConfig(kind="cograd", gammas=(1e300, 1e300)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError, match="diverged at step 1"):
            train(small_net(), splits, cfg)


def test_exact_hvp_training_builds_no_net_and_takes_no_finite_difference(monkeypatch):
    # Exact-HVP coordination takes its products by the R-op on the step's own
    # cache: an S-step run constructs no net (no probe copy per task) and takes
    # no central difference.
    from cograd import SharedBottomNet, gradmod, tensor_core

    splits = split(small_dataset(), (4, 1, 1))
    net = small_net()
    calls = {"nets": 0, "finite_diff_hvp": 0}
    init, finite_diff_hvp = SharedBottomNet.__init__, tensor_core.finite_diff_hvp

    def counting_init(self, *args, **kwargs):
        calls["nets"] += 1
        init(self, *args, **kwargs)

    def counting_finite_diff_hvp(*args, **kwargs):
        calls["finite_diff_hvp"] += 1
        return finite_diff_hvp(*args, **kwargs)

    monkeypatch.setattr(SharedBottomNet, "__init__", counting_init)
    for module in (tensor_core, gradmod):  # wherever the package binds it
        monkeypatch.setattr(module, "finite_diff_hvp", counting_finite_diff_hvp)
    strategy = StrategyConfig(kind="cograd_exact_hvp", gammas=(0.5, 0.5))
    _, log = train(net, splits, small_config(steps=6, strategy=strategy, eval_every=3))
    assert len(log.steps) == 6
    assert calls == {"nets": 0, "finite_diff_hvp": 0}


def test_exact_hvp_with_a_huge_gamma_raises_divergence_naming_the_step():
    import warnings

    splits = split(small_dataset(), (4, 1, 1))
    cfg = small_config(strategy=StrategyConfig(kind="cograd_exact_hvp", gammas=(1e300, 1e300)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError, match="diverged at step 1"):
            train(small_net(), splits, cfg)


@pytest.mark.parametrize("kind", ["cograd", "cograd_exact_hvp"])
def test_a_step_holds_no_state_of_the_step_before(kind):
    # The wide regime (trunk [128, 64], batch 512): a step's cache, gradients
    # and products are released at its end, so a run's traced peak does not
    # grow past the first step's by the size of one step's trunk gradients.
    import tracemalloc

    data = generate_synthetic(
        SyntheticTaskConfig(
            n_samples=3000, n_features=128, task_angle_deg=45.0, positive_rates=(0.5, 0.1)
        )
    )
    splits = split(data, (4, 1, 1))
    strategy = StrategyConfig(kind=kind, gammas=(0.1, 0.1))

    def train_peak(steps):
        net = init_net(128, [128, 64], [4], 2, 0)
        cfg = small_config(steps=steps, batch_size=512, learning_rate=0.01, strategy=strategy)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train(net, splits, cfg)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    one_step_grads = 2 * init_net(128, [128, 64], [4], 2, 0).theta.nbytes
    assert train_peak(3) - train_peak(1) < one_step_grads
