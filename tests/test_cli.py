import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cograd import (
    MultiTaskDataset,
    build_dataset,
    errors,
    load_csv,
    resolve_config,
    run_one,
    train,
    write_csv,
)
from cograd.cli import main


def write_config(tmp_path, name="config.json", **overrides):
    raw = {
        "data": {
            "synthetic": {
                "n_samples": 240,
                "n_features": 6,
                "task_angle_deg": 45.0,
                "positive_rates": [0.5, 0.5],
                "seed": 11,
            },
        },
        "model": {"shared_widths": [8], "head_widths": [4], "seed": 100},
        "train": {
            "steps": 6,
            "batch_size": 40,
            "learning_rate": 0.05,
            "loss_weights": [1.0, 1.0],
        },
        "strategies": [{"kind": "sum"}, {"kind": "cograd", "gammas": [0.05, 0.05]}],
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path, raw


def test_train_command(tmp_path, capsys):
    config, _ = write_config(tmp_path)
    assert main(["train", str(config)]) == 0
    out = capsys.readouterr().out
    assert "sum/seed0" in out and "cograd/seed0" in out
    assert (tmp_path / "out" / "comparison.csv").exists()


def test_train_invalid_config_exits_2(tmp_path, capsys):
    config, raw = write_config(tmp_path)
    raw["train"]["steps"] = 0
    config.write_text(json.dumps(raw))
    assert main(["train", str(config)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["train", str(missing)]) == 2
    assert f"config not readable: {missing}" in capsys.readouterr().err


def test_unknown_field_exits_2(tmp_path, capsys):
    config, raw = write_config(tmp_path)
    raw["surprise"] = True
    config.write_text(json.dumps(raw))
    assert main(["train", str(config)]) == 2
    assert "surprise" in capsys.readouterr().err


def test_divergence_exits_3(tmp_path, capsys):
    import numpy as np

    config, raw = write_config(tmp_path)
    raw["train"]["learning_rate"] = 1e120
    raw["train"]["optimizer"] = "sgd"
    raw["strategies"] = [{"kind": "sum"}]
    config.write_text(json.dumps(raw))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", str(config)]) == 3
    assert "diverged" in capsys.readouterr().err


def test_overflowing_optimizer_moment_exits_3(tmp_path, capsys):
    # Huge gammas overflow Adam's second moment; the trunk would stop moving
    # while the run reported success.
    import numpy as np

    config, _ = write_config(tmp_path, strategies=[{"kind": "cograd", "gammas": [1e300, 1e300]}])
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", str(config)]) == 3
    assert "diverged at step 1" in capsys.readouterr().err


def test_overflowing_optimizer_moment_prints_only_the_error_line(tmp_path):
    # numpy's overflow warning used to reach stderr ahead of the error line.
    config, _ = write_config(tmp_path, strategies=[{"kind": "cograd", "gammas": [1e300, 1e300]}])
    proc = subprocess.run(
        [sys.executable, "-m", "cograd", "train", str(config)],
        capture_output=True,
        text=True,
        timeout=300,
        env=_checkout_env(),
    )
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "error: run cograd/seed 0: training diverged at step 1: "
        "non-finite gradient or optimizer moment"
    ]


def test_sgd_divergence_prints_only_the_error_line(tmp_path):
    # numpy's overflow and invalid-value warnings used to reach stderr ahead
    # of the error line, and the step's inf update surfaced a step later.
    config, raw = write_config(tmp_path, strategies=[{"kind": "sum"}])
    raw["train"].update(learning_rate=1e120, optimizer="sgd")
    config.write_text(json.dumps(raw))
    proc = subprocess.run(
        [sys.executable, "-m", "cograd", "train", str(config)],
        capture_output=True,
        text=True,
        timeout=300,
        env=_checkout_env(),
    )
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "error: run sum/seed 0: training diverged at step 1: non-finite parameter update"
    ]


def write_csv_config(tmp_path, grouped=False, **overrides):
    """A config over a 240-row two-task CSV, split 4:1:1 (160, 40, 40 rows)."""
    config, raw = write_config(tmp_path, **overrides)
    ds = build_dataset(resolve_config(raw, tmp_path).data, 0)
    if grouped:
        ds = MultiTaskDataset(ds.features, ds.labels, np.arange(ds.n_rows) % 5)
    write_csv(ds, tmp_path / "data.csv")
    raw["data"] = {"csv": {"path": "data.csv", "n_tasks": 2, "has_group_column": grouped}}
    config.write_text(json.dumps(raw))
    return config, raw


def zero_task_1(data, first_row):
    """Set task 1's label to 0 on the 40 data rows from ``first_row``."""
    lines = data.read_text(encoding="utf-8").splitlines()
    for i in range(first_row + 1, first_row + 41):  # line 1 is the header
        lines[i] = lines[i][: lines[i].rindex(",")] + ",0"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")


def counting_steps(monkeypatch):
    """The steps every training run takes from now on, as one list."""
    from cograd import experiments

    steps = []

    def counted_train(net, splits, cfg, step_callback=None):
        def record(step, live_net):
            steps.append(step)
            if step_callback is not None:
                step_callback(step, live_net)

        return train(net, splits, cfg, step_callback=record)

    monkeypatch.setattr(experiments, "train", counted_train)
    return steps


@pytest.mark.parametrize("grouped", [False, True], ids=["auc", "gauc"])
@pytest.mark.parametrize("name, first_row", [("validation", 160), ("test", 200)])
def test_single_class_split_names_the_split_and_task(
    tmp_path, capsys, monkeypatch, grouped, name, first_row
):
    config, _ = write_csv_config(tmp_path, grouped)
    zero_task_1(tmp_path / "data.csv", first_row)
    why = "no group contains both classes" if grouped else (
        "AUC needs at least one positive and one negative label"
    )
    steps = counting_steps(monkeypatch)
    assert main(["train", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {name} split, task 1: {why}\n"
    assert steps == []


@pytest.mark.parametrize("eval_every, code", [(0, 0), (3, 2)])
def test_validate_approx_checks_the_validation_split_only_if_it_evaluates(
    tmp_path, capsys, monkeypatch, eval_every, code
):
    config, raw = write_csv_config(tmp_path)
    raw["train"]["eval_every"] = eval_every
    config.write_text(json.dumps(raw))
    zero_task_1(tmp_path / "data.csv", 160)
    steps = counting_steps(monkeypatch)
    assert main(["validate-approx", str(config)]) == code
    if code:
        assert capsys.readouterr().err == (
            "error: validation split, task 1: "
            "AUC needs at least one positive and one negative label\n"
        )
    assert len(steps) == (0 if code else raw["train"]["steps"])


@pytest.mark.parametrize("command, jobs", [
    ("train", "1"), ("train", "2"), ("capacity-sweep", "1"), ("capacity-sweep", "2"),
])
def test_command_parses_its_csv_once(tmp_path, monkeypatch, command, jobs):
    from cograd import experiments

    config, _ = write_csv_config(
        tmp_path, strategies=[{"kind": "sum"}, {"kind": "pcgrad"}], seeds=[0, 1]
    )
    calls = []

    def load_then_remove(path, *args):
        calls.append(path)
        ds = load_csv(path, *args)
        Path(path).unlink()  # a second parse, in this process or a worker, would fail
        return ds

    monkeypatch.setattr(experiments, "load_csv", load_then_remove)
    assert main([command, str(config), "--jobs", jobs]) == 0
    assert calls == [tmp_path / "data.csv"]


@pytest.mark.parametrize("command", ["validate-approx", "probe"])
def test_config_argument_parses_its_csv_once(tmp_path, monkeypatch, command):
    from cograd import experiments

    config, _ = write_csv_config(tmp_path, strategies=[{"kind": "sum"}])
    argv = ["validate-approx", str(config)]
    if command == "probe":
        assert main(["train", str(config)]) == 0
        argv = ["probe", str(tmp_path / "out" / "sum" / "0" / "checkpoint.json"), str(config)]
    calls = []

    def load_then_remove(path, *args):
        calls.append(path)
        ds = load_csv(path, *args)
        Path(path).unlink()  # a second parse would fail
        return ds

    monkeypatch.setattr(experiments, "load_csv", load_then_remove)
    assert main(argv) == 0
    assert calls == [tmp_path / "data.csv"]


@pytest.mark.parametrize(
    "mangle, problem",
    [
        (lambda text: text + "1,2\n", ":242: expected 8 fields, got 2"),
        (lambda text: "", ": empty file, expected a header row"),
        (lambda text: text.splitlines()[0] + "\n", ": no data rows"),
        (lambda text: "f0,label0\n1.0,1\n", ": 2 columns cannot hold 2 labels and any feature"),
    ],
    ids=["short_row", "empty", "header_only", "too_few_columns"],
)
def test_malformed_csv_exits_2_before_the_output_directory_exists(
    tmp_path, capsys, mangle, problem
):
    config, _ = write_csv_config(tmp_path)
    data = tmp_path / "data.csv"
    data.write_text(mangle(data.read_text(encoding="utf-8")), encoding="utf-8")
    assert main(["train", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {data}{problem}\n"
    assert not (tmp_path / "out").exists()


def _config_in_a_list(raw):
    return [raw]


def _zero_csv_tasks(raw):
    raw["data"]["csv"]["n_tasks"] = 0
    return raw


def _three_loss_weights(raw):
    raw["train"]["loss_weights"] = [1.0, 1.0, 1.0]
    return raw


@pytest.mark.parametrize(
    "csv, mangle, message",
    [
        (True, _config_in_a_list, "config root must be a JSON object"),
        (True, _zero_csv_tasks, "data.csv.n_tasks: must be at least 1"),
        # The task count is the synthetic positive_rates' or data.csv.n_tasks.
        (False, _three_loss_weights, "train.loss_weights: 3 weights for 2 tasks"),
        (True, _three_loss_weights, "train.loss_weights: 3 weights for 2 tasks"),
    ],
    ids=["root_not_an_object", "zero_csv_tasks", "loss_weights", "csv_loss_weights"],
)
def test_malformed_config_exits_2_naming_it_before_any_run(tmp_path, capsys, csv, mangle, message):
    config, raw = write_csv_config(tmp_path) if csv else write_config(tmp_path)
    config.write_text(json.dumps(mangle(raw)))
    assert main(["train", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_field_over_the_csv_field_limit_exits_2_naming_its_line(tmp_path, capsys):
    config, _ = write_csv_config(tmp_path, grouped=True)
    data = tmp_path / "data.csv"
    lines = data.read_text(encoding="utf-8").splitlines()
    lines[5] = "u" * 140_000 + lines[5][lines[5].index(",") :]  # line 6's group id
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["train", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {data}:6: field larger than field limit (131072)\n"


def test_output_dir_override(tmp_path):
    config, _ = write_config(tmp_path)
    override = tmp_path / "elsewhere"
    assert main(["train", str(config), "--output-dir", str(override)]) == 0
    assert (override / "comparison.csv").exists()
    assert not (tmp_path / "out" / "comparison.csv").exists()


def test_seed_offset(tmp_path):
    config, _ = write_config(tmp_path)
    assert main(["train", str(config), "--seed-offset", "7"]) == 0
    assert (tmp_path / "out" / "sum" / "7" / "summary.json").exists()


def test_negative_seed_offset_exits_2(tmp_path, capsys):
    config, _ = write_config(tmp_path)
    assert main(["train", str(config), "--seed-offset", "-1"]) == 2
    assert "seeds: must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["validate-approx", "config.json", "--jobs", "2"],
        ["probe", "checkpoint.json", "data.csv", "--jobs", "2"],
        ["probe", "checkpoint.json", "data.csv", "--seed-offset", "1"],
    ],
)
def test_subcommand_rejects_flags_it_does_not_use(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_parallel_jobs(tmp_path):
    config, _ = write_config(tmp_path, seeds=[0, 1])
    assert main(["train", str(config), "--jobs", "2"]) == 0
    assert (tmp_path / "out" / "comparison.csv").exists()


@pytest.mark.parametrize("jobs, workers", [("2", 2), ("64", 4)])
def test_worker_count_is_capped_at_the_cell_count(tmp_path, monkeypatch, jobs, workers):
    import concurrent.futures

    started = []

    class SerialPool:
        """Records its worker count and runs the cells in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    config, _ = write_config(tmp_path, seeds=[0, 1])  # 2 strategies x 2 seeds
    assert main(["train", str(config), "--jobs", jobs]) == 0
    assert started == [workers]
    assert (tmp_path / "out" / "comparison.csv").exists()


@pytest.mark.parametrize("command", ["train", "capacity-sweep"])
@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_exits_2_naming_it(tmp_path, capsys, command, jobs):
    config, _ = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, str(config), "--jobs", jobs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --jobs: must be a whole number of at least 1, got '{jobs}'" in err
    assert not (tmp_path / "out").exists()


def test_validate_approx_command(tmp_path, capsys):
    config, raw = write_config(tmp_path)
    raw["validate"] = {"checkpoints": [0, 3]}
    config.write_text(json.dumps(raw))
    assert main(["validate-approx", str(config)]) == 0
    assert "validate_approx.csv" in capsys.readouterr().out
    assert (tmp_path / "out" / "validate_approx.csv").exists()


@pytest.mark.parametrize("checkpoints", [[0, 5], [5]])
def test_validate_approx_lookahead_blow_up_exits_3_naming_the_checkpoint(
    tmp_path, capsys, checkpoints
):
    # Gammas of 1e300 overflow the lookahead's forward pass at the first
    # checkpoint, step 0 included, and numpy warns of nothing.
    config, raw = write_config(tmp_path)
    raw["model"]["shared_widths"] = [8, 8]
    raw["strategies"] = [{"kind": "sum", "gammas": [1e300, 1e300]}]
    raw["validate"] = {"checkpoints": checkpoints}
    config.write_text(json.dumps(raw))
    assert main(["validate-approx", str(config)]) == 3
    assert capsys.readouterr().err == (
        f"error: validate-approx checkpoint {checkpoints[0]}: "
        "forward produced non-finite logits\n"
    )


def test_validate_checkpoint_past_the_last_step_exits_2_naming_it(tmp_path, capsys):
    config, raw = write_config(tmp_path)  # 6 steps
    raw["validate"] = {"checkpoints": [3, 5000]}
    config.write_text(json.dumps(raw))
    assert main(["validate-approx", str(config)]) == 2
    assert capsys.readouterr().err == "error: validate.checkpoints: step 5000 is not in 0..6\n"
    assert not (tmp_path / "out").exists()
    raw["validate"] = {"checkpoints": [3, 6]}  # the last step is a checkpoint
    config.write_text(json.dumps(raw))
    assert main(["validate-approx", str(config)]) == 0
    rows = (tmp_path / "out" / "validate_approx.csv").read_text().splitlines()[1:]
    assert sorted({int(row.split(",")[0]) for row in rows}) == [3, 6]


def test_four_task_study_measures_every_ordered_pair(tmp_path):
    config, raw = write_config(tmp_path)
    raw["data"]["synthetic"]["positive_rates"] = [0.5, 0.4, 0.6, 0.5]
    raw["train"].update(loss_weights=[1.0] * 4, transference_every=2)
    gammas = [0.05] * 4
    raw["strategies"] = [
        {"kind": "sum"},
        {"kind": "cograd", "gammas": gammas},
        {"kind": "cograd_exact_hvp", "gammas": gammas},
        {"kind": "pcgrad"},
        {"kind": "magnitude_balance"},
    ]
    config.write_text(json.dumps(raw))
    assert main(["train", str(config)]) == 0
    for strategy in raw["strategies"]:
        path = tmp_path / "out" / strategy["kind"] / "0" / "metrics_transference.csv"
        steps = [int(row.split(",")[0]) for row in path.read_text().splitlines()[1:]]
        assert steps == [2] * 12 + [4] * 12 + [6] * 12, strategy["kind"]


def probe_fixtures(tmp_path):
    config, raw = write_config(tmp_path)
    raw["data"]["synthetic"]["task_angle_deg"] = 0.0
    config.write_text(json.dumps(raw))
    cfg = resolve_config(raw, tmp_path)
    run_one(dataclasses.replace(cfg, output_dir=tmp_path / "runs"), 0, 0)
    ckpt = tmp_path / "runs" / "sum" / "0" / "checkpoint.json"
    csv_path = tmp_path / "probe.csv"
    write_csv(build_dataset(cfg.data, 0), csv_path)
    return ckpt, csv_path, config


def test_probe_command_defaults_to_checkpoint_dir(tmp_path, capsys):
    ckpt, csv_path, _ = probe_fixtures(tmp_path)
    assert main(["probe", str(ckpt), str(csv_path)]) == 0
    assert (ckpt.parent / "probe_histogram.csv").exists()
    assert (ckpt.parent / "probe_summary.json").exists()


def test_probe_command_output_dir(tmp_path):
    ckpt, csv_path, _ = probe_fixtures(tmp_path)
    out = tmp_path / "probe_out"
    assert main(["probe", str(ckpt), str(csv_path), "--output-dir", str(out)]) == 0
    assert (out / "probe_histogram.csv").exists()


def test_probe_nonconvergence_exits_3(tmp_path, capsys):
    ckpt, _, config = probe_fixtures(tmp_path)
    raw = json.loads(config.read_text())
    raw["probe"] = {"max_iters": 0}
    config.write_text(json.dumps(raw))
    assert main(["probe", str(ckpt), str(config)]) == 3
    assert "probe" in capsys.readouterr().err


def test_probe_out_of_range_value_exits_2(tmp_path, capsys):
    ckpt, _, config = probe_fixtures(tmp_path)
    raw = json.loads(config.read_text())
    raw["probe"] = {"n_bins": -3}
    config.write_text(json.dumps(raw))
    assert main(["probe", str(ckpt), str(config)]) == 2
    assert "probe.n_bins must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("n_bins", [2**62, 2**63], ids=["array_too_big", "index_error"])
def test_probe_bins_numpy_cannot_address_exit_2_naming_them(tmp_path, capsys, n_bins):
    ckpt, _, config = probe_fixtures(tmp_path)
    raw = json.loads(config.read_text())
    raw["probe"] = {"n_bins": n_bins}
    config.write_text(json.dumps(raw))
    assert main(["probe", str(ckpt), str(config)]) == 2
    assert f"probe.n_bins: {n_bins + 1} float64 values exceed numpy's" in capsys.readouterr().err


def test_probe_bins_the_machine_cannot_allocate_exit_2_naming_them(tmp_path, capsys):
    # 2**55 + 1 edges pass numpy's address limit, but their 256 PiB lie past
    # any user address space: the allocation fails at once, touching no memory.
    ckpt, _, config = probe_fixtures(tmp_path)
    raw = json.loads(config.read_text())
    raw["probe"] = {"n_bins": 2**55}
    config.write_text(json.dumps(raw))
    assert main(["probe", str(ckpt), str(config)]) == 2
    err = capsys.readouterr().err
    assert f"probe.n_bins: {2**55 + 1} float64 bin edges do not fit in memory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "section, key, value, named",
    [
        ("model", "shared_widths", [2**63], "model.shared_widths: "),
        ("synthetic", "n_samples", 2**63, "data.synthetic.n_samples: "),
        ("model", "shared_widths", [2**61], "model.shared_widths: "),
        ("model", "head_widths", [2**62], "model.head_widths: "),
    ],
    ids=["dimension_exceeded", "rows_dimension_exceeded", "array_too_big", "heads_too_big"],
)
def test_sizes_numpy_cannot_address_exit_2_naming_them(
    tmp_path, capsys, section, key, value, named
):
    # numpy refuses these shapes with ValueError; the config is refused first.
    config, raw = write_config(tmp_path)
    (raw["data"]["synthetic"] if section == "synthetic" else raw[section])[key] = value
    config.write_text(json.dumps(raw))
    assert main(["train", str(config)]) == 2
    err = capsys.readouterr().err
    assert named in err and "float64 values exceed numpy's 9223372036854775807 bytes" in err
    assert not (tmp_path / "out").exists()


def test_csv_trunk_numpy_cannot_address_exits_2_naming_it(tmp_path, capsys):
    # A CSV's feature count is known once it is parsed; the trunk is checked then.
    config, raw = write_csv_config(tmp_path)
    raw["model"]["shared_widths"] = [2**61]
    config.write_text(json.dumps(raw))
    assert main(["train", str(config)]) == 2
    assert "model.shared_widths: 16140901064495857664 float64 values" in capsys.readouterr().err


_PAST_MEMORY = {
    "dataset": ("generate_synthetic", "synthetic", "n_samples", 2**31,
                "data.synthetic.n_samples: 12884901888 float64 features do not fit in memory"),
    "trunk": ("init_net", "model", "shared_widths", [2**31],
              "model.shared_widths: a layer of 15032385536 float64 values does not fit in memory"),
    "heads": ("init_net", "model", "head_widths", [2**31],
              "model.head_widths: a layer of 19327352832 float64 values does not fit in memory"),
}


@pytest.mark.parametrize(
    "case, command",
    [
        pytest.param(case, command, id=f"{case}-{command}")
        for command in ["train", "validate-approx", "capacity-sweep"]
        for case in _PAST_MEMORY
    ]
    # A probe reads its net from the checkpoint, so only its dataset is sized by the config.
    + [pytest.param("dataset", "probe", id="dataset-probe")],
)
def test_sizes_past_memory_exit_2_naming_them(tmp_path, capsys, monkeypatch, case, command):
    # numpy can address these arrays but the machine need not hold them. The
    # builder raises MemoryError in place of numpy's, allocating nothing; the
    # largest trunk layer is 7 x 2**31 values on 6 features, a head's 9 x 2**31
    # on an 8-unit trunk.
    from cograd import experiments

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    builder, section, key, value, named = _PAST_MEMORY[case]
    args = [str(probe_fixtures(tmp_path)[0])] if command == "probe" else []
    monkeypatch.setattr(experiments, builder, out_of_memory)
    config, raw = write_config(tmp_path)
    (raw["data"]["synthetic"] if section == "synthetic" else raw[section])[key] = value
    config.write_text(json.dumps(raw))
    assert main([command, *args, str(config)]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"


def test_probe_bin_halfwidth_past_half_the_largest_double_exits_2(tmp_path, capsys):
    # The bins span twice the half-width: at 1e308 that overflows, while
    # 8.9e307 (just under half the largest double) still probes.
    ckpt, _, config = probe_fixtures(tmp_path)
    raw = json.loads(config.read_text())
    for halfwidth, code in [(8.9e307, 0), (1e308, 2)]:
        raw["probe"] = {"bin_halfwidth": halfwidth}
        config.write_text(json.dumps(raw))
        assert main(["probe", str(ckpt), str(config), "--output-dir", str(tmp_path / "p")]) == code
    assert capsys.readouterr().err == (
        "error: probe.bin_halfwidth: 1e+308 doubled is not finite\n"
    )


def test_probe_bad_csv_exits_2(tmp_path, capsys):
    ckpt, csv_path, _ = probe_fixtures(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("f0,f1,f2,f3,f4,f5,label0,label1\n1,2,3\n")
    assert main(["probe", str(ckpt), str(bad)]) == 2
    assert "bad.csv:2" in capsys.readouterr().err


def test_probe_missing_checkpoint_exits_2(tmp_path, capsys):
    _, csv_path, _ = probe_fixtures(tmp_path)
    assert main(["probe", str(tmp_path / "nope.json"), str(csv_path)]) == 2
    assert "checkpoint not readable" in capsys.readouterr().err


def test_probe_directory_as_data_exits_2(tmp_path, capsys):
    ckpt, _, _ = probe_fixtures(tmp_path)
    assert main(["probe", str(ckpt), str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_probe_corrupt_checkpoint_exits_2(tmp_path, capsys):
    _, csv_path, _ = probe_fixtures(tmp_path)
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json", encoding="utf-8")
    assert main(["probe", str(mangled), str(csv_path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["config", "csv", "checkpoint"])
def test_non_utf8_input_exits_2_naming_it(tmp_path, capsys, which):
    ckpt, csv_path, config = probe_fixtures(tmp_path)
    bad = {"config": config, "csv": csv_path, "checkpoint": ckpt}[which]
    bad.write_bytes(b"\xff" + bad.read_bytes())
    argv = ["train", str(config)] if which == "config" else ["probe", str(ckpt), str(csv_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "not UTF-8" in err


@pytest.mark.parametrize("command", ["train", "validate-approx", "capacity-sweep", "probe"])
def test_directory_as_config_exits_2_naming_it(tmp_path, capsys, command):
    config_dir = tmp_path / "folder.json"
    config_dir.mkdir()
    if command == "probe":
        ckpt, _, _ = probe_fixtures(tmp_path)
        argv = ["probe", str(ckpt), str(config_dir)]
    else:
        argv = [command, str(config_dir)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(config_dir) in err
    assert "not readable" in err


@pytest.mark.parametrize(
    "fault, problem",
    [
        ("missing", "not readable"),
        ("directory", "not readable"),
        ("latin-1", "not UTF-8 text"),
        ("truncated", "not valid JSON"),
    ],
)
@pytest.mark.parametrize("what", ["config", "checkpoint"])
def test_unreadable_json_exits_2_naming_it(tmp_path, capsys, what, fault, problem):
    # Configs and checkpoints go through one reader, so they fail alike.
    bad = tmp_path / "bad.json"
    if fault == "directory":
        bad.mkdir()
    elif fault == "latin-1":
        bad.write_bytes(b'{"seeds": "\xff"}')
    elif fault == "truncated":
        bad.write_text('{"seeds": [0', encoding="utf-8")
    argv = ["train", str(bad)] if what == "config" else ["probe", str(bad), str(tmp_path / "x.csv")]
    assert main(argv) == 2
    assert f"{what} {problem}: {bad}: " in capsys.readouterr().err


def _nan_first_weight(ckpt):
    ckpt["shared"][0]["weights"][0][0] = float("nan")


def _widen_head_1(ckpt):
    # Head 1 stays a valid head on its own, one hidden unit wider than head 0.
    first, last = ckpt["heads"][1]
    for row in first["weights"]:
        row.append(0.0)
    first["bias"].append(0.0)
    last["weights"].append([0.0])


@pytest.mark.parametrize(
    "mangle, named",
    [
        (_nan_first_weight, "shared[0]"),
        (lambda ckpt: ckpt.update(input_dim=6.5), "input_dim"),
        (lambda ckpt: ckpt.update(input_dim=True), "input_dim"),
        (lambda ckpt: ckpt["shared"][0]["bias"].pop(), "shared[0]"),
        (lambda ckpt: ckpt["heads"][1][0]["bias"].pop(), "heads[1][0]"),
        (lambda ckpt: ckpt["heads"][0][1]["weights"].pop(), "heads[0][1]"),
        (lambda ckpt: ckpt.update(num_tasks=5), "num_tasks does not match its layers"),
        (lambda ckpt: ckpt.update(theta_layout=[]), "theta_layout does not match its layers"),
        (lambda ckpt: ckpt.pop("theta_layout"), "missing key 'theta_layout'"),
        (_widen_head_1, "heads[1] differs from heads[0]"),
        (lambda ckpt: ckpt.update(format="cograd-checkpoint-v2"), "unrecognized checkpoint format"),
        (lambda ckpt: ckpt["heads"][0][0].pop("bias"), "heads[0][0] is missing key 'bias'"),
        (lambda ckpt: ckpt.update(heads=5), "malformed checkpoint"),
    ],
    ids=[
        "nan_weight",
        "fractional_input_dim",
        "bool_input_dim",
        "short_bias",
        "short_head_bias",
        "mismatched_fan_in",
        "wrong_num_tasks",
        "empty_theta_layout",
        "missing_theta_layout",
        "heads_differ",
        "unknown_format",
        "head_layer_missing_bias",
        "heads_not_a_list",
    ],
)
def test_probe_malformed_checkpoint_exits_2_naming_it(tmp_path, capsys, mangle, named):
    ckpt, csv_path, _ = probe_fixtures(tmp_path)
    payload = json.loads(ckpt.read_text())
    mangle(payload)
    ckpt.write_text(json.dumps(payload))
    assert main(["probe", str(ckpt), str(csv_path)]) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and named in err


def test_every_error_is_an_input_or_run_error():
    classes = [
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, Exception) and obj is not errors.CogradError
    ]
    assert errors.UndefinedMetricError in classes
    for cls in classes:
        assert issubclass(cls, (errors.InputError, errors.RunError)), cls.__name__
        assert not issubclass(cls, errors.InputError) or not issubclass(cls, errors.RunError)


def test_probe_checkpoint_missing_key_exits_2(tmp_path, capsys):
    _, csv_path, _ = probe_fixtures(tmp_path)
    partial = tmp_path / "partial.json"
    partial.write_text(
        json.dumps({"format": "cograd-checkpoint-v1", "input_dim": 6, "heads": []}),
        encoding="utf-8",
    )
    assert main(["probe", str(partial), str(csv_path)]) == 2
    assert "missing key 'shared'" in capsys.readouterr().err


def test_every_csv_has_newline_line_ends(tmp_path):
    config, raw = write_config(tmp_path)
    raw["train"].update(eval_every=3, transference_every=2)
    raw["validate"] = {"checkpoints": [0, 3]}
    config.write_text(json.dumps(raw))
    cfg = resolve_config(raw, tmp_path)
    plain = build_dataset(cfg.data, 0)
    groups = np.array([f"g{i % 7}" for i in range(plain.n_rows)])
    ds = MultiTaskDataset(plain.features, plain.labels, groups)
    data_csv = tmp_path / "data.csv"
    write_csv(ds, data_csv)
    back = load_csv(data_csv, ds.n_tasks, has_group_column=True)
    assert np.array_equal(back.features, ds.features) and np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.group_ids, ds.group_ids)

    out = tmp_path / "out"
    assert main(["train", str(config)]) == 0
    assert main(["validate-approx", str(config)]) == 0
    ckpt = out / "cograd" / "0" / "checkpoint.json"
    assert main(["probe", str(ckpt), str(data_csv), "--group-column"]) == 0
    assert main(["capacity-sweep", str(config), "--output-dir", str(out / "sweep")]) == 0
    written = {p.name for p in tmp_path.rglob("*.csv")}
    assert written == {
        "data.csv", "metrics_steps.csv", "metrics_eval.csv", "metrics_transference.csv",
        "comparison.csv", "validate_approx.csv", "probe_histogram.csv", "capacity_sweep.csv",
    }
    for path in tmp_path.rglob("*.csv"):
        assert b"\r" not in path.read_bytes(), path


def test_capacity_sweep_command(tmp_path, capsys):
    config, _ = write_config(tmp_path, strategies=[{"kind": "sum"}])
    assert main(["capacity-sweep", str(config)]) == 0
    assert (tmp_path / "out" / "capacity_sweep.csv").exists()


@pytest.mark.parametrize("command", ["train", "capacity-sweep", "validate-approx", "probe"])
def test_output_dir_naming_a_file_exits_2(tmp_path, capsys, command):
    ckpt, csv_path, config = probe_fixtures(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    args = [str(ckpt), str(csv_path)] if command == "probe" else [str(config)]
    assert main([command, *args, "--output-dir", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: output directory {taken}: ") and err.count("\n") == 1
    assert taken.read_text(encoding="utf-8") == "not a directory"


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


REPO_ROOT = Path(__file__).resolve().parents[1]


def _checkout_env():
    """Environment whose PYTHONPATH puts this checkout's ``src`` first."""
    env = dict(os.environ)
    paths = [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def _assert_help_lists_subcommands(cmd, env=None):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    for sub in ("train", "validate-approx", "probe", "capacity-sweep"):
        assert sub in proc.stdout


def test_console_script_help():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "cograd" in scripts
    module, attr = (part.strip() for part in scripts["cograd"].split(":"))
    # Run the declared target the way an installed wrapper script does, so the
    # contract holds from an uninstalled checkout.
    wrapper = f"import sys; sys.argv[0] = 'cograd'; from {module} import {attr}; sys.exit({attr}())"
    _assert_help_lists_subcommands([sys.executable, "-c", wrapper, "--help"], _checkout_env())
    installed = shutil.which("cograd")
    if installed:
        _assert_help_lists_subcommands([installed, "--help"])


def test_python_m_cograd_help():
    _assert_help_lists_subcommands([sys.executable, "-m", "cograd", "--help"], _checkout_env())


# The program runs on numpy alone, so no command may load scipy; the process
# pool, which loads ``multiprocessing``, serves ``--jobs`` above 1 only.
_REPORT_IMPORTS = (
    "import sys\n"
    "from cograd.cli import main\n"
    "code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "print(sorted(m for m in sys.modules\n"
    "             if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize(
    "command, loaded",
    [("import", []), ("train-csv", []), ("probe-csv", []), ("train-synthetic", [])],
)
def test_command_imports_only_what_it_runs(tmp_path, command, loaded):
    if command == "train-csv":
        argv = ["train", str(write_csv_config(tmp_path)[0])]
    elif command == "probe-csv":
        ckpt, csv_path, _ = probe_fixtures(tmp_path)
        argv = ["probe", str(ckpt), str(csv_path)]
    elif command == "train-synthetic":
        argv = ["train", str(write_config(tmp_path)[0])]
    else:
        argv = []
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_IMPORTS, *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env=_checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(loaded)


def test_console_script_runs_train(tmp_path):
    config, _ = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", "from cograd.cli import entry; entry()", "train", str(config)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "comparison.csv").exists()
