import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cograd import build_dataset, errors, resolve_config, run_one, write_csv
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
    assert main(["train", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


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


def test_validate_approx_command(tmp_path, capsys):
    config, raw = write_config(tmp_path)
    raw["validate"] = {"checkpoints": [0, 3]}
    config.write_text(json.dumps(raw))
    assert main(["validate-approx", str(config)]) == 0
    assert "validate_approx.csv" in capsys.readouterr().out
    assert (tmp_path / "out" / "validate_approx.csv").exists()


def probe_fixtures(tmp_path):
    config, raw = write_config(tmp_path)
    raw["data"]["synthetic"]["task_angle_deg"] = 0.0
    config.write_text(json.dumps(raw))
    cfg = resolve_config(raw, tmp_path)
    run_one(cfg, 0, 0, tmp_path / "runs")
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


def _nan_first_weight(ckpt):
    ckpt["shared"][0]["weights"][0][0] = float("nan")


@pytest.mark.parametrize(
    "mangle, named",
    [
        (_nan_first_weight, "shared[0]"),
        (lambda ckpt: ckpt.update(input_dim=6.5), "input_dim"),
        (lambda ckpt: ckpt.update(input_dim=True), "input_dim"),
        (lambda ckpt: ckpt["shared"][0]["bias"].pop(), "shared[0]"),
        (lambda ckpt: ckpt["heads"][1][0]["bias"].pop(), "heads[1][0]"),
        (lambda ckpt: ckpt["heads"][0][1]["weights"].pop(), "heads[0][1]"),
    ],
    ids=[
        "nan_weight",
        "fractional_input_dim",
        "bool_input_dim",
        "short_bias",
        "short_head_bias",
        "mismatched_fan_in",
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


def test_capacity_sweep_command(tmp_path, capsys):
    config, _ = write_config(tmp_path, strategies=[{"kind": "sum"}])
    assert main(["capacity-sweep", str(config)]) == 0
    assert (tmp_path / "out" / "capacity_sweep.csv").exists()


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
