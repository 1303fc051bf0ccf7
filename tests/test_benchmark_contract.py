"""The benchmark's calls into the program keep working.

Runs one round of the ``study`` and ``grouped_csv`` workloads in-process
through ``benchmark/workloads.py`` (build the workload, run its operations,
check the round), one ``study`` round under the span tracer of the traced
run, checks that rebinding ``cograd.experiments.train`` intercepts
``run_one``, as the benchmark's step clock does, and that the exact-HVP
products ``grouped_csv``'s one-off check takes scale with gamma. Nothing
under ``benchmark/`` is changed.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import cograd
from cograd import experiments, resolve_config, run_one, trainer
from cograd.model import SharedBottomNet

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmark"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    return workloads


@pytest.mark.parametrize("name, attempted", [("study", 8), ("grouped_csv", 6)])
def test_workload_round_succeeds_and_checks_pass(tmp_path, workloads, name, attempted):
    workload = workloads.WORKLOADS[name](1, tmp_path / "inputs")
    out = tmp_path / "round"
    ok, counts = {}, [0, 0]
    for op_name, count, op in workload.operations(out):
        ok[op_name] = op()
        counts[0] += count
        counts[1] += 0 if ok[op_name] else count
    assert counts == [attempted, 0], ok
    sparse = workload.check_round(out, ok)  # raises CheckFailed on a wrong output
    assert sparse is not None and sparse > 0.5


def test_traced_study_round_succeeds_and_counts_batches(tmp_path, workloads):
    # Installed as benchmark/run.py installs it for a traced round.
    from spans import Tracer

    names = ("tensor_core", "model", "gradmod", "trainer", "tasks_data", "metrics", "experiments")
    layers = [importlib.import_module(f"cograd.{m}") for m in names]
    package = layers + [importlib.import_module("cograd.cli"), cograd]
    workload = workloads.WORKLOADS["study"](1, tmp_path / "inputs")
    out = tmp_path / "round"
    tracer = Tracer()
    tracer.install(layers, package, {"model": [SharedBottomNet]})
    try:
        ok = {op_name: op() for op_name, _, op in workload.operations(out)}
    finally:
        tracer.uninstall()
    assert all(ok.values()), ok
    assert workload.check_round(out, ok) > 0.5
    assert tracer.batches_built > 0
    assert tracer.summarize()["trainer.train"]["calls"] > 0


def test_rebinding_experiments_train_intercepts_run_one(tmp_path, monkeypatch):
    config = {
        "data": {
            "synthetic": {
                "n_samples": 240, "n_features": 6, "task_angle_deg": 45.0,
                "positive_rates": [0.5, 0.5], "seed": 11,
            }
        },
        "model": {"shared_widths": [8], "head_widths": [4], "seed": 100},
        "train": {"steps": 5, "batch_size": 40, "learning_rate": 0.05},
        "strategies": [{"kind": "sum"}],
        "seeds": [0],
        "output_dir": "out",
    }
    cfg = resolve_config(json.loads(json.dumps(config)), tmp_path)
    seen = []

    def stamped_train(net, splits, cfg, step_callback=None):
        steps = []

        def stamp(step, live_net):
            steps.append(step)

        result = trainer.train(net, splits, cfg, step_callback=stamp)
        seen.append((cfg.steps, cfg.batch_size, splits.train.n_rows, steps))
        return result

    monkeypatch.setattr(experiments, "train", stamped_train)
    run_one(cfg, 0, 0)
    assert seen == [(5, 40, 160, [1, 2, 3, 4, 5])]


@pytest.mark.parametrize("seed", [1, 71])
def test_grouped_csv_check_once_products_are_positively_homogeneous(
    tmp_path, workloads, monkeypatch, seed
):
    # check_once takes the exact-HVP correction at gamma and 2 * gamma through
    # modify_gradients' central-difference adapter, on a trained checkpoint's
    # first batch; the adapter's products at 2 * gamma are twice those at
    # gamma, bit for bit, and check_once's own linearity check passes.
    from cograd import gradmod

    workload = workloads.WORKLOADS["grouped_csv"](seed, tmp_path / "inputs")
    out = tmp_path / "round"
    assert dict((name, op) for name, _, op in workload.operations(out))["train"]()
    products, real = [], gradmod.cograd_modify

    def recording(grads, cfg, hvp=None):
        def product(V):
            products.append(hvp(V))
            return products[-1]

        return real(grads, cfg, product)

    monkeypatch.setattr(gradmod, "cograd_modify", recording)
    workload.check_once(out)  # raises CheckFailed unless linear in gamma to 1e-9
    one, two = products
    assert one.any() and np.array_equal(two, 2.0 * one)
