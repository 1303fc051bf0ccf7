"""End-to-end acceptance gate.

One test per shipped guarantee, in the order the guarantees are stated in
the README. Each test prints a single summary line with the measured
numbers (visible under ``pytest -s``); pytest's own PASSED/FAILED row per
test is the pass/fail record. The slow guarantees carry explicit wall-time
budgets and assert them.

The transfer-pattern tests (06, 07) share one set of training runs through
a module-scoped fixture: synthetic two-task data at a 45-degree task angle
with positive rates (0.5, 0.02), a deliberately narrow 4-unit trunk so the
tasks contend for shared capacity, 1600 Adam steps. The capacity sweep
(11) doubles an 8-unit trunk under the same data regime.
"""

import json
import time

import numpy as np
import pytest

from cograd import (
    AdamState,
    DenseLayer,
    MultiTaskDataset,
    ProbeConfig,
    SharedBottomNet,
    StrategyConfig,
    SyntheticTaskConfig,
    TrainConfig,
    adam_step,
    approx_hvp,
    backward_task,
    cograd_modify,
    evaluate_auc,
    evaluate_gauc,
    finite_diff_gradient,
    finite_diff_hvp,
    forward,
    generate_synthetic,
    init_net,
    pcgrad_modify,
    predict_proba,
    probe_harmonization,
    select_tasks,
    split,
    task_loss,
    train,
    transfer_exact,
    transfer_first_order,
)
from cograd.cli import main
from cograd.tasks_data import DatasetSplits


def report(name, detail):
    print(f"[acceptance] {name}: PASS ({detail})")


def kink_free_batch(net, n, seed, margin=0.02):
    # Finite differences need every relu pre-activation clear of zero by
    # more than the probe radius, or the derivative estimate is garbage.
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < n:
        x = rng.standard_normal((8 * n, net.input_dim))
        _, cache = forward(net, x)
        pres = list(cache.trunk_pre)
        for t in range(net.num_tasks):
            pres.extend(pre[t] for pre in cache.heads_pre[:-1])
        clear = np.ones(x.shape[0], dtype=bool)
        for z in pres:
            clear &= np.min(np.abs(z), axis=1) > margin
        rows.extend(x[clear])
    x = np.array(rows[:n])
    y = (rng.uniform(size=n) < 0.5).astype(np.float64)
    return x, y


def test_criterion_01_gradient_correctness():
    """Analytic backprop matches central differences, rel err < 1e-4."""
    start = time.monotonic()
    worst = 0.0
    for seed in range(10):
        net = init_net(8, [16, 8], [4], 2, seed=seed)
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
                probe.set_phi(t, v)
                logits, _ = forward(probe, x)
                return task_loss(logits[:, t], y)

            fd_theta = finite_diff_gradient(theta_loss, net.get_theta().values, eps=1e-3)
            fd_phi = finite_diff_gradient(phi_loss, net.get_phi(t).values, eps=1e-3)
            for fd, got in ((fd_theta, grad_theta.values), (fd_phi, grad_phi.values)):
                rel = float(np.linalg.norm(fd - got) / np.linalg.norm(got))
                worst = max(worst, rel)
                assert rel < 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report("01 gradient correctness", f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_transference_quantification():
    """Quadratic oracle values are exact; the first-order gap is O(gamma^2)."""

    def quad_loss(v):
        return 0.5 * float(np.dot(v, v))

    theta = np.array([1.0, 1.0])
    g_i = np.array([1.0, 0.0])
    exact = transfer_exact(quad_loss, theta, g_i, 0.1)
    first = transfer_first_order(g_i, theta, 0.1)
    assert exact == pytest.approx(0.095, abs=1e-12)
    assert first == 0.1

    rng = np.random.default_rng(0)
    ratios = []
    for _ in range(10):
        X = rng.standard_normal((40, 6))
        y = (rng.uniform(size=40) < 0.5).astype(np.float64)

        def loss(v):
            z = X @ v
            return float(np.mean(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))))

        state = rng.standard_normal(6) * 0.5
        direction = rng.standard_normal(6)
        g_j = finite_diff_gradient(loss, state, eps=1e-5)

        def gap(gamma):
            return abs(
                transfer_exact(loss, state, direction, gamma)
                - transfer_first_order(direction, g_j, gamma)
            )

        ratios.append(gap(0.05) / gap(0.025))
    assert np.mean(ratios) >= 3.5
    report(
        "02 transference quantification",
        f"exact {exact:.6f}, first-order {first}, halving ratio {np.mean(ratios):.2f}",
    )


def test_criterion_03_curvature_surrogate_validation(tmp_path, capsys):
    """Surrogate equals the true HVP on the constructed case; the CLI
    report covers every checkpoint with cosine and norm-ratio columns."""
    rng = np.random.default_rng(2)
    h = rng.uniform(0.5, 4.0, size=8)
    theta = 1.0 / np.sqrt(h)
    g_owner = h * theta

    def grad_fn(v):
        return h * v

    worst_cos = 1.0
    for _ in range(5):
        direction = rng.standard_normal(8)
        surrogate = approx_hvp(g_owner, direction, 1.0)
        oracle = finite_diff_hvp(grad_fn, theta, direction)
        cos = float(
            np.dot(surrogate, oracle)
            / (np.linalg.norm(surrogate) * np.linalg.norm(oracle))
        )
        worst_cos = min(worst_cos, cos)
        assert cos == pytest.approx(1.0, abs=1e-6)

    config = {
        "data": {
            "synthetic": {
                "n_samples": 2000,
                "n_features": 8,
                "task_angle_deg": 45.0,
                "positive_rates": [0.5, 0.3],
                "seed": 11,
            },
        },
        "model": {"shared_widths": [16, 8], "head_widths": [4], "seed": 100},
        "train": {
            "steps": 40,
            "batch_size": 64,
            "learning_rate": 0.01,
            "loss_weights": [1.0, 1.0],
        },
        "strategies": [{"kind": "cograd", "gammas": [0.1, 0.1]}],
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "validate.json"
    path.write_text(json.dumps(config))
    start = time.monotonic()
    assert main(["validate-approx", str(path)]) == 0
    elapsed = time.monotonic() - start
    capsys.readouterr()
    assert elapsed < 120.0

    lines = (tmp_path / "out" / "validate_approx.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert "hvp_cosine" in header and "hvp_norm_ratio" in header
    steps_seen = {int(row.split(",")[0]) for row in lines[1:]}
    assert steps_seen == {0, 10, 20, 30, 40}
    # every checkpoint reports both ordered pairs
    assert len(lines) - 1 == len(steps_seen) * 2
    report(
        "03 curvature surrogate validation",
        f"constructed-case cosine {worst_cos:.9f}, CLI report {elapsed:.1f}s",
    )


def test_criterion_04_null_equivalence():
    """Zero-gamma coordination reproduces the sum baseline bitwise."""
    ds = generate_synthetic(
        SyntheticTaskConfig(
            n_samples=1200,
            n_features=6,
            task_angle_deg=45.0,
            positive_rates=(0.5, 0.5),
            seed=11,
        )
    )
    splits = split(ds, (4, 1, 1))
    nets = {}
    for name, strategy in (
        ("sum", StrategyConfig(kind="sum")),
        ("cograd", StrategyConfig(kind="cograd", gammas=(0.0, 0.0))),
    ):
        cfg = TrainConfig(
            steps=200, batch_size=64, learning_rate=0.01, strategy=strategy,
            loss_weights=(1.0, 1.0), seed=3,
        )
        nets[name], _ = train(init_net(6, [8], [4], 2, 5), splits, cfg)
    assert np.array_equal(
        nets["cograd"].get_theta().values, nets["sum"].get_theta().values
    )
    for t in range(2):
        assert np.array_equal(
            nets["cograd"].get_phi(t).values, nets["sum"].get_phi(t).values
        )
    report("04 null equivalence", "200 steps, theta and both phi bitwise equal")


def test_criterion_05_single_step_hand_trace():
    """One SGD step on a hand-specified linear net matches arithmetic done
    directly from the update equations."""
    W = np.array([[0.4], [-0.3]])
    b = np.array([0.1])
    head_w = [np.array([[0.8]]), np.array([[-0.5]])]
    head_c = [np.array([0.0]), np.array([0.2])]
    net = SharedBottomNet(
        input_dim=2,
        shared_layers=[DenseLayer(W.copy(), b.copy(), "identity")],
        task_heads=[
            [DenseLayer(head_w[0].copy(), head_c[0].copy(), "identity")],
            [DenseLayer(head_w[1].copy(), head_c[1].copy(), "identity")],
        ],
    )
    x = np.array([[1.0, 2.0], [-1.0, 0.5]])
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    lr = 0.1
    weights = (1.0, 2.0)

    ds = MultiTaskDataset(features=x, labels=y)
    cfg = TrainConfig(
        steps=1, batch_size=2, learning_rate=lr, optimizer="sgd", shuffle=False,
        strategy=StrategyConfig(kind="sum"), loss_weights=weights,
    )
    trained, _ = train(net, DatasetSplits(train=ds, val=ds, test=ds), cfg)

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    # phase 1: head updates from gradients at the initial parameters
    h = x @ W + b  # (2, 1)
    new_w, new_c = [], []
    for t in range(2):
        z = h * head_w[t][0, 0] + head_c[t][0]
        delta = (sigmoid(z[:, 0]) - y[:, t]) / 2.0  # mean loss over batch of 2
        grad_w = float(np.sum(delta * h[:, 0]))
        grad_c = float(np.sum(delta))
        new_w.append(head_w[t][0, 0] - lr * weights[t] * grad_w)
        new_c.append(head_c[t][0] - lr * weights[t] * grad_c)

    # phase 2: trunk update from gradients taken at the updated heads
    agg_W = np.zeros_like(W)
    agg_b = np.zeros_like(b)
    for t in range(2):
        z = h * new_w[t] + new_c[t]
        delta = (sigmoid(z[:, 0]) - y[:, t]) / 2.0
        back = delta * new_w[t]  # d loss / d h
        agg_W += weights[t] * (x.T @ back).reshape(2, 1)
        agg_b += weights[t] * np.sum(back)
    expected_W = W - lr * agg_W
    expected_b = b - lr * agg_b

    got_trunk = trained.shared_layers[0]
    assert np.max(np.abs(got_trunk.weights - expected_W)) < 1e-10
    assert np.max(np.abs(got_trunk.bias - expected_b)) < 1e-10
    for t in range(2):
        got_head = trained.task_heads[t][0]
        assert abs(got_head.weights[0, 0] - new_w[t]) < 1e-10
        assert abs(got_head.bias[0] - new_c[t]) < 1e-10
    report("05 single-step hand trace", "theta and phi match within 1e-10")


# -- shared fixture for the transfer-pattern tests ---------------------------

REGIME = {
    "n_samples": 50_000,
    "n_features": 128,
    "task_angle_deg": 45.0,
    "positive_rates": (0.5, 0.02),
}
TRUNK, HEADS, STEPS, BATCH, LR = [4], [8], 1600, 256, 0.01
GAMMAS = (4000.0, 4000.0)
SEEDS = range(5)


def _test_auc(net, test, t):
    return evaluate_auc(predict_proba(net, test.features)[:, t], test.labels[:, t])


@pytest.fixture(scope="module")
def transfer_runs():
    """Train single-task, sum, magnitude-balance, and coordinated runs on
    five seeds; returns AUCs, per-step cosine traces, and the wall time of
    the sum/single/coordinated subset."""
    out = {"auc": {}, "cos": {}, "core_seconds": 0.0}
    for s in SEEDS:
        ds = generate_synthetic(SyntheticTaskConfig(seed=11 + s, **REGIME))
        splits = split(ds, (4, 1, 1))
        sparse_only = split(select_tasks(ds, [1]), (4, 1, 1))

        start = time.monotonic()
        net = init_net(128, TRUNK, HEADS, 1, 100 + s)
        cfg = TrainConfig(
            steps=STEPS, batch_size=BATCH, learning_rate=LR,
            strategy=StrategyConfig(kind="sum"), loss_weights=(1.0,), seed=s,
        )
        net, _ = train(net, sparse_only, cfg)
        out["auc"].setdefault("single", []).append(_test_auc(net, sparse_only.test, 0))

        def run(strategy, name, s=s, splits=splits):
            net = init_net(128, TRUNK, HEADS, 2, 100 + s)
            cfg = TrainConfig(
                steps=STEPS, batch_size=BATCH, learning_rate=LR,
                strategy=strategy, loss_weights=(1.0, 1.0), seed=s,
            )
            net, log = train(net, splits, cfg)
            for t, key in ((1, "sparse"), (0, "dense")):
                out["auc"].setdefault(f"{name}_{key}", []).append(
                    _test_auc(net, splits.test, t)
                )
            out["cos"].setdefault(name, []).append(
                np.array([r.cosines[(0, 1)] for r in log.steps])
            )

        run(StrategyConfig(kind="sum"), "sum")
        run(StrategyConfig(kind="cograd", gammas=GAMMAS), "cograd")
        out["core_seconds"] += time.monotonic() - start
        run(StrategyConfig(kind="magnitude_balance", relax=0.5), "magbal")
    return out


def test_criterion_06_negative_transfer_pattern(transfer_runs):
    """Joint training lifts the sparse task over single-task training, and
    coordination lifts it further without giving up dense-task accuracy."""
    auc = transfer_runs["auc"]
    single = float(np.mean(auc["single"]))
    sum_sparse = float(np.mean(auc["sum_sparse"]))
    sum_dense = float(np.mean(auc["sum_dense"]))
    cog_sparse = float(np.mean(auc["cograd_sparse"]))
    cog_dense = float(np.mean(auc["cograd_dense"]))

    assert sum_sparse - single >= 0.005
    assert cog_sparse - sum_sparse >= 0.003
    assert cog_dense - sum_dense >= -0.002
    assert transfer_runs["core_seconds"] < 300.0
    report(
        "06 negative-transfer pattern",
        f"mtl-vs-single {sum_sparse - single:+.4f}, "
        f"coordinated-vs-sum sparse {cog_sparse - sum_sparse:+.4f} "
        f"dense {cog_dense - sum_dense:+.4f}, "
        f"{transfer_runs['core_seconds']:.0f}s",
    )


def test_criterion_07_cosine_dynamics(transfer_runs):
    """The baseline's smoothed gradient-alignment trace rises then falls,
    and coordination keeps mid-training alignment above magnitude
    balancing."""
    kernel = np.ones(50) / 50.0
    rise_fall = 0
    for trace in transfer_runs["cos"]["sum"]:
        smoothed = np.convolve(trace, kernel, mode="valid")
        peak = int(np.argmax(smoothed))
        if 0 < peak < len(smoothed) / 2 and smoothed[-1] < smoothed[peak]:
            rise_fall += 1
    assert rise_fall >= 4

    mid = slice(STEPS // 4, 3 * STEPS // 4)
    cog = float(np.mean([np.mean(t[mid]) for t in transfer_runs["cos"]["cograd"]]))
    mag = float(np.mean([np.mean(t[mid]) for t in transfer_runs["cos"]["magbal"]]))
    assert cog > mag
    report(
        "07 cosine dynamics",
        f"rise-then-fall {rise_fall}/5 seeds, mid-training cosine "
        f"coordinated {cog:+.4f} vs magnitude-balance {mag:+.4f}",
    )


def test_criterion_08_projection_postcondition():
    """Every triggered projection leaves a non-negative partner inner
    product (up to accumulation error)."""
    rng = np.random.default_rng(8)
    triggered = 0
    for _ in range(1000):
        g1 = rng.standard_normal(12)
        g2 = rng.standard_normal(12)
        out = pcgrad_modify([g1, g2], order_seed=int(rng.integers(1 << 30)))
        if float(g1 @ g2) < 0.0:
            triggered += 1
            assert float(np.asarray(out[0]) @ g2) >= -1e-12
            assert float(np.asarray(out[1]) @ g1) >= -1e-12
    assert triggered > 0
    report("08 projection postcondition", f"{triggered}/1000 pairs triggered")


def test_criterion_09_probe_sanity():
    """Identical tasks read as almost all general knowledge; orthogonal
    tasks read as strictly less."""
    shares = {}
    for angle in (0.0, 90.0):
        for s in range(3):
            ds = generate_synthetic(
                SyntheticTaskConfig(
                    n_samples=6000, n_features=16, task_angle_deg=angle,
                    positive_rates=(0.5, 0.5), seed=21 + s,
                )
            )
            splits = split(ds, (4, 1, 1))
            net = init_net(16, [8], [8], 2, 100 + s)
            cfg = TrainConfig(
                steps=300, batch_size=128, learning_rate=0.01,
                strategy=StrategyConfig(kind="sum"), loss_weights=(1.0, 1.0), seed=s,
            )
            net, _ = train(net, splits, cfg)
            result = probe_harmonization(net, splits.val, ProbeConfig())
            shares[(angle, s)] = result.general_share
    for s in range(3):
        assert shares[(0.0, s)] > 0.95
        assert shares[(90.0, s)] < shares[(0.0, s)]
    report(
        "09 probe sanity",
        "identical-task shares "
        + "/".join(f"{shares[(0.0, s)]:.2f}" for s in range(3))
        + ", orthogonal "
        + "/".join(f"{shares[(90.0, s)]:.2f}" for s in range(3)),
    )


def test_criterion_10_ranking_metrics():
    """AUC equals the exhaustive pair-counting oracle; a single group makes
    the grouped metric collapse to plain AUC."""

    def pair_count_auc(scores, labels):
        pos = [p for p, label in zip(scores, labels) if label == 1]
        neg = [q for q, label in zip(scores, labels) if label == 0]
        total = 0.0
        for p in pos:
            for q in neg:
                total += 1.0 if p > q else 0.5 if p == q else 0.0
        return total / (len(pos) * len(neg))

    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(4, 30))
        scores = rng.integers(0, 5, size=n).astype(np.float64) / 4.0
        labels = (rng.uniform(size=n) < 0.5).astype(np.float64)
        if labels.min() == labels.max():
            labels[0] = 1.0 - labels[0]
        assert evaluate_auc(scores, labels) == pair_count_auc(scores, labels)

    scores = rng.standard_normal(40)
    labels = (rng.uniform(size=40) < 0.4).astype(np.float64)
    groups = np.zeros(40, dtype=np.int64)
    assert evaluate_gauc(scores, labels, groups) == evaluate_auc(scores, labels)
    report("10 ranking metrics", "100 oracle instances exact, single-group equality exact")


def test_criterion_11_capacity_sweep(tmp_path, capsys):
    """Doubling the shared trunk must not cost the coordinated strategy
    sparse-task accuracy, and the report carries base and doubled rows for
    both strategies."""
    config = {
        "data": {
            "synthetic": {
                "n_samples": REGIME["n_samples"],
                "n_features": REGIME["n_features"],
                "task_angle_deg": REGIME["task_angle_deg"],
                "positive_rates": list(REGIME["positive_rates"]),
                "seed": 11,
            },
        },
        "model": {"shared_widths": [8], "head_widths": [8], "seed": 100},
        "train": {
            "steps": 800,
            "batch_size": BATCH,
            "learning_rate": LR,
            "loss_weights": [1.0, 1.0],
        },
        "strategies": [
            {"kind": "sum"},
            {"kind": "cograd", "gammas": list(GAMMAS)},
        ],
        "seeds": [0, 1, 2],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    assert main(["capacity-sweep", str(path)]) == 0
    capsys.readouterr()

    lines = (tmp_path / "out" / "capacity_sweep.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    idx = {name: header.index(name) for name in
           ("strategy", "width_variant", "metric", "task1_mean")}
    sparse_mean = {}
    for row in lines[1:]:
        cells = row.split(",")
        if cells[idx["metric"]] == "auc":
            key = (cells[idx["strategy"]], cells[idx["width_variant"]])
            sparse_mean[key] = float(cells[idx["task1_mean"]])
    assert set(sparse_mean) == {
        ("sum", "base"), ("sum", "doubled"), ("cograd", "base"), ("cograd", "doubled"),
    }
    delta = sparse_mean[("cograd", "doubled")] - sparse_mean[("cograd", "base")]
    assert delta >= -0.002
    report(
        "11 capacity sweep",
        f"coordinated sparse base {sparse_mean[('cograd', 'base')]:.4f} "
        f"doubled {sparse_mean[('cograd', 'doubled')]:.4f} (delta {delta:+.4f})",
    )
