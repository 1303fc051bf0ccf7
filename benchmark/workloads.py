"""The benchmark's workloads: inputs made from the seed, operations, checks.

Every operation goes through the program's command line (``cograd.cli.main``)
in-process, on config and data files this module writes. A round is the
workload's whole list of operations; checks run after it, outside its time.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from scipy.special import expit

import checks


def call_cli(argv: list[str]) -> tuple[int | None, str]:
    """Run ``cograd.cli.main(argv)``; returns (exit code, stderr).

    A raised exception is the program's fault, not the benchmark's: it is
    recorded as exit code None with its repr in the returned stderr.
    """
    from cograd import cli

    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            code = None
            err.write(f"raised {exc!r}\n")
    return code, err.getvalue()


def _write_json(path: Path, payload: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return path


class Workload:
    """Base: one ``cograd train`` study per round, then its checks."""

    name = ""
    strategies: list[dict] = []
    cell_seeds = [0, 1]

    def __init__(self, seed: int, inputs: Path) -> None:
        self.seed = seed
        self.train_config = _write_json(inputs / f"{self.name}.json", self.config())
        self._checked_once = False

    def config(self) -> dict:
        raise NotImplementedError

    def operations(self, out: Path) -> list[tuple[str, int, object]]:
        """(name, operations counted, thunk returning success) for one round."""
        def train() -> bool:
            code, _ = call_cli(
                ["train", str(self.train_config), "--jobs", "1", "--output-dir", str(out / "study")]
            )
            return code == 0

        return [("train", len(self.strategies) * len(self.cell_seeds), train)]

    def test_data(self, cell_seed: int) -> tuple:
        raise NotImplementedError

    def check_round(self, out: Path, ok: dict[str, bool]) -> float | None:
        """Check the round's artifacts; returns the mean sparse-task test metric
        over coordinated (non-``sum``) cells, or None when training failed."""
        if not ok["train"]:
            return None
        study = out / "study"
        summaries = []
        for strategy in self.strategies:
            for s in self.cell_seeds:
                summaries.append(
                    checks.check_cell(study / strategy["kind"] / str(s), *self.test_data(s))
                )
        checks.check_comparison(study, summaries)
        if not self._checked_once:
            self.check_once(out)
            self._checked_once = True
        sparse = [s["final_test"]["task_1"] for s in summaries if s["strategy"] != "sum"]
        return float(np.mean(sparse))

    def check_once(self, out: Path) -> None:
        """Checks of the coordination arithmetic, made on the first round only."""

    def fixed_batch_grads(self, ckpt: Path):
        """Per-task trunk gradients of a checkpoint on the first training batch."""
        from cograd.model import backward_task, forward, load_net

        x, y = self.first_batch()
        net = load_net(ckpt)
        _, cache = forward(net, x)
        grads = [backward_task(net, cache, y[:, t], t)[0].values for t in range(y.shape[1])]
        return net, x, y, grads

    def first_batch(self) -> tuple:
        raise NotImplementedError


class SyntheticWorkload(Workload):
    n_samples = 0
    n_features = 0
    positive_rates: list[float] = []
    model: dict = {}
    train: dict = {}

    def data_seed(self) -> int:
        return 11 + 1000 * self.seed

    def config(self) -> dict:
        return {
            "data": {
                "synthetic": {
                    "n_samples": self.n_samples,
                    "n_features": self.n_features,
                    "task_angle_deg": 45.0,
                    "positive_rates": self.positive_rates,
                    "seed": self.data_seed(),
                }
            },
            "model": dict(self.model, seed=100 + 1000 * self.seed),
            "train": self.train,
            "strategies": self.strategies,
            "seeds": self.cell_seeds,
            "output_dir": "out",
        }

    def __init__(self, seed: int, inputs: Path) -> None:
        super().__init__(seed, inputs)
        self.inputs = inputs
        for cell_seed in self.cell_seeds:
            self._save_check_rows(cell_seed)

    def _check_rows_path(self, cell_seed: int) -> Path:
        return self.inputs / f"check_rows-{cell_seed}.npz"

    def _save_check_rows(self, cell_seed: int) -> None:
        """Write the test rows and the first training batch of a cell's dataset.

        The checks load them from disk when they run and drop them after, so
        the run's peak memory is the program's own, not raised by data the
        benchmark holds between rounds.
        """
        from cograd.tasks_data import SyntheticTaskConfig, generate_synthetic

        ds = generate_synthetic(
            SyntheticTaskConfig(
                n_samples=self.n_samples,
                n_features=self.n_features,
                task_angle_deg=45.0,
                positive_rates=tuple(self.positive_rates),
                seed=self.data_seed() + cell_seed,
            )
        )
        _, val_end = checks.split_bounds(ds.n_rows, (4, 1, 1))
        rows = self.train["batch_size"]
        np.savez(
            self._check_rows_path(cell_seed),
            test_x=ds.features[val_end:], test_y=ds.labels[val_end:],
            batch_x=ds.features[:rows], batch_y=ds.labels[:rows],
        )

    def test_data(self, cell_seed: int) -> tuple:
        with np.load(self._check_rows_path(cell_seed)) as saved:
            return saved["test_x"], saved["test_y"], None

    def first_batch(self) -> tuple:
        with np.load(self._check_rows_path(self.cell_seeds[0])) as saved:
            return saved["batch_x"], saved["batch_y"]

    def check_once(self, out: Path) -> None:
        from cograd.gradmod import StrategyConfig, modify_gradients

        spec = next(s for s in self.strategies if s["kind"] == "cograd")
        ckpt = out / "study" / "cograd" / str(self.cell_seeds[0]) / "checkpoint.json"
        _, _, _, grads = self.fixed_batch_grads(ckpt)
        cfg = StrategyConfig(kind="cograd", gammas=tuple(spec["gammas"]), lam=1.0)
        checks.check_cograd_formula(modify_gradients(grads, cfg), grads, spec["gammas"], 1.0)


class Study(SyntheticWorkload):
    """The demos/study.json regime, two cell seeds and 200 steps per cell."""

    name = "study"
    n_samples, n_features, positive_rates = 20_000, 32, [0.5, 0.05]
    model = {"shared_widths": [16, 8], "head_widths": [8]}
    train = {
        "steps": 200, "batch_size": 256, "learning_rate": 0.01,
        "loss_weights": [1.0, 1.0], "eval_every": 50,
    }
    strategies = [
        {"kind": "sum"},
        {"kind": "cograd", "gammas": [1000.0, 1000.0]},
        {"kind": "pcgrad"},
        {"kind": "magnitude_balance", "relax": 0.5},
    ]


class Wide(SyntheticWorkload):
    """The acceptance fixture's data on a wide trunk, no periodic eval."""

    name = "wide"
    n_samples, n_features, positive_rates = 50_000, 128, [0.5, 0.02]
    model = {"shared_widths": [128, 64], "head_widths": [16]}
    train = {
        "steps": 150, "batch_size": 512, "learning_rate": 0.003,
        "loss_weights": [1.0, 1.0], "eval_every": 0,
    }
    strategies = [{"kind": "sum"}, {"kind": "cograd", "gammas": [1000.0, 1000.0]}]


# Fault inputs do not depend on the seed: each fault fails the same way on
# every run until the program is mended.
_FAULT_DATA = {
    "synthetic": {
        "n_samples": 600, "n_features": 8, "task_angle_deg": 45.0,
        "positive_rates": [0.5, 0.2], "seed": 5,
    }
}


def _fault_config(shared_widths, gammas) -> dict:
    return {
        "data": _FAULT_DATA,
        "model": {"shared_widths": shared_widths, "head_widths": [4], "seed": 3},
        "train": {"steps": 10, "batch_size": 64, "learning_rate": 0.01},
        "strategies": [{"kind": "cograd", "gammas": gammas}],
        "seeds": [0],
        "output_dir": "out",
    }


class GroupedCsv(Workload):
    """Exact-HVP coordination on a grouped CSV, a probe, and three faults."""

    name = "grouped_csv"
    n_rows, n_features, n_groups = 12_000, 16, 200
    split = (3, 1, 2)
    gammas = [0.5, 0.5]
    strategies = [{"kind": "cograd_exact_hvp", "gammas": gammas}]
    batch_size = 128

    def __init__(self, seed: int, inputs: Path) -> None:
        self.csv_path = inputs / "grouped.csv"
        self._make_csv(seed)
        super().__init__(seed, inputs)
        self.fault_checkpoint = _write_json(
            inputs / "fault_checkpoint.json",
            {"format": "cograd-checkpoint-v1", "input_dim": 8, "num_tasks": 2, "heads": []},
        )
        self.fault_widths = _write_json(
            inputs / "fault_widths.json", _fault_config("abc", [0.1, 0.1])
        )
        self.fault_gamma = _write_json(
            inputs / "fault_gamma.json", _fault_config([8], [1e300, 1e300])
        )

    def _make_csv(self, seed: int) -> None:
        rng = np.random.default_rng([7, seed])
        n, d = self.n_rows, self.n_features
        x = rng.standard_normal((n, d))
        groups = rng.integers(0, self.n_groups, size=n)
        effect = rng.normal(0.0, 1.0, size=self.n_groups)[groups]
        c = math.cos(math.radians(45.0))
        latent = rng.uniform(size=n)
        y0 = latent < expit(2.0 * x[:, 0] + effect)
        y1 = latent < expit(2.0 * (c * x[:, 0] + c * x[:, 1]) + effect - 2.0)
        y = np.stack([y0, y1], axis=1).astype(np.float64)
        self.data = (x, y, groups)
        header = ["group_id"] + [f"f{j}" for j in range(d)] + ["label0", "label1"]
        lines = [",".join(header)]
        for i in range(n):
            lines.append(
                f"g{groups[i]:03d},"
                + ",".join(repr(float(v)) for v in x[i])
                + f",{int(y[i, 0])},{int(y[i, 1])}"
            )
        self.csv_path.parent.mkdir(parents=True, exist_ok=True)
        self.csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def config(self) -> dict:
        return {
            "data": {
                "csv": {"path": self.csv_path.name, "n_tasks": 2, "has_group_column": True},
                "split": list(self.split),
            },
            "model": {"shared_widths": [8], "head_widths": [4], "seed": 100 + 1000 * self.seed},
            "train": {
                "steps": 150, "batch_size": self.batch_size, "learning_rate": 0.01,
                "loss_weights": [1.0, 1.0], "eval_every": 50, "transference_every": 50,
            },
            "strategies": self.strategies,
            "seeds": self.cell_seeds,
            "output_dir": "out",
        }

    def probe_checkpoint(self, out: Path) -> Path:
        return out / "study" / "cograd_exact_hvp" / str(self.cell_seeds[0]) / "checkpoint.json"

    def operations(self, out: Path) -> list[tuple[str, int, object]]:
        def probe() -> bool:
            code, _ = call_cli(
                ["probe", str(self.probe_checkpoint(out)), str(self.csv_path),
                 "--group-column", "--output-dir", str(out / "probe")]
            )
            return code == 0

        def fault(argv: list[str], want_code: int, named: str):
            def op() -> bool:
                code, err = call_cli(argv)
                return code == want_code and named in err
            return op

        return super().operations(out) + [
            ("probe", 1, probe),
            # Exit 2 naming the missing key; raises KeyError out of model.load_net today.
            ("fault_checkpoint", 1, fault(
                ["probe", str(self.fault_checkpoint), str(self.csv_path), "--group-column",
                 "--output-dir", str(out / "fault_checkpoint")], 2, "shared")),
            # Exit 2 naming the field; raises ValueError out of experiments._resolve_model today.
            ("fault_widths", 1, fault(
                ["train", str(self.fault_widths), "--output-dir", str(out / "fault_widths")],
                2, "model.shared_widths")),
            # Exit 3 naming the step; Adam's v overflows and the run exits 0 today.
            ("fault_gamma", 1, fault(
                ["train", str(self.fault_gamma), "--output-dir", str(out / "fault_gamma")],
                3, "step")),
        ]

    def test_data(self, cell_seed: int) -> tuple:
        x, y, groups = self.data
        _, val_end = checks.split_bounds(self.n_rows, self.split)
        return x[val_end:], y[val_end:], groups[val_end:]

    def first_batch(self) -> tuple:
        x, y, _ = self.data
        return x[: self.batch_size], y[: self.batch_size]

    def check_round(self, out: Path, ok: dict[str, bool]) -> float | None:
        sparse = super().check_round(out, ok)
        if ok["train"] and ok["probe"]:
            checks.check_probe(out / "probe", self.probe_checkpoint(out))
        return sparse

    def check_once(self, out: Path) -> None:
        from cograd.gradmod import StrategyConfig, modify_gradients
        from cograd.model import theta_grad_fn

        net, x, y, grads = self.fixed_batch_grads(self.probe_checkpoint(out))
        grad_fns = [theta_grad_fn(net, x, y[:, t], t) for t in range(y.shape[1])]
        theta = net.get_theta().values

        def corrected(scale: float) -> list:
            cfg = StrategyConfig(
                kind="cograd_exact_hvp", gammas=tuple(scale * g for g in self.gammas)
            )
            return modify_gradients(grads, cfg, grad_fns=grad_fns, theta=theta)

        checks.check_linear_in_gamma(grads, corrected(1.0), corrected(2.0))


WORKLOADS = {w.name: w for w in (Study, Wide, GroupedCsv)}
