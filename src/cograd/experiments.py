"""Config-driven experiment orchestration.

One JSON config describes a full study: a dataset (synthetic or CSV), a
model, training settings, a list of gradient strategies, and a list of
seeds. Every (strategy x seed) run writes its own directory; a comparison
table aggregates final test metrics across seeds with deltas against the
plain-sum baseline.

Per-seed derivation keeps comparisons paired: run seed s regenerates the
synthetic dataset with ``data seed + s``, initializes the net with
``model seed + s``, and drives batching with s itself, so every strategy
sees identical data and initialization at the same s. A CSV is parsed
once, when its config is resolved, and every run trains on those rows.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import ConfigError, DivergenceError, InputError
from .gradmod import StrategyConfig, approx_hvp, measure_transference, pairwise_cosine
from .model import (
    SharedBottomNet,
    _bce,
    backward_task,
    forward,
    init_net,
    load_net,
    read_json,
    save_net,
    task_hvp,
)
from .tasks_data import (
    DatasetSplits,
    MultiTaskDataset,
    SyntheticTaskConfig,
    generate_synthetic,
    load_csv,
    split,
    write_table,
)
from .trainer import (
    ProbeConfig,
    TrainConfig,
    check_split_rankable,
    evaluate_split,
    probe_harmonization,
    save_metrics,
    train,
)

_REQUIRED = object()


def _read(
    section: dict, key: str, path: str, convert: Callable[[Any], Any], default: Any = _REQUIRED
) -> Any:
    """``section[key]`` (or ``default``) through ``convert``; errors name the field."""
    if key not in section and default is _REQUIRED:
        raise ConfigError(f"{path}.{key}: required field missing")
    value = section.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}.{key}: cannot read {value!r}: {exc}") from None


def _int(value: Any) -> int:
    """``int(value)``, refusing a boolean and truncation of a fractional number."""
    if isinstance(value, bool):
        raise TypeError("expected a number, got a boolean")
    number = int(value)
    if isinstance(value, float) and number != value:
        raise ValueError("not an integer")
    return number


def _bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _items(values: Any) -> list | tuple:
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"expected a list, got {type(values).__name__}")
    return values


def _ints(values: Any) -> tuple[int, ...]:
    return tuple(_int(v) for v in _items(values))


def _float(value: Any) -> float:
    """``float(value)``, refusing a boolean, NaN and infinities."""
    if isinstance(value, bool):
        raise TypeError("expected a number, got a boolean")
    number = float(value)
    if not np.isfinite(number):
        raise ValueError("not a finite number")
    return number


def _floats(values: Any) -> tuple[float, ...]:
    return tuple(_float(v) for v in _items(values))


def _loss_weights(value: Any) -> tuple[float, ...] | str | None:
    return value if value is None or value == "prior" else _floats(value)


# The keys of each dataclass-backed section and their converters; an absent
# key keeps the dataclass's default.
_SYNTHETIC_FIELDS = {
    "n_samples": _int,
    "n_features": _int,
    "task_angle_deg": _float,
    "positive_rates": _floats,
    "label_noise": _float,
    "seed": _int,
}
_MODEL_FIELDS = {"shared_widths": _ints, "head_widths": _ints, "seed": _int}
_STRATEGY_FIELDS = {"kind": str, "gammas": _floats, "lambda": _float, "relax": _float}
_TRAIN_FIELDS = {
    "steps": _int,
    "batch_size": _int,
    "learning_rate": _float,
    "loss_weights": _loss_weights,
    "eval_every": _int,
    "optimizer": str,
    "shuffle": _bool,
    "transference_every": _int,
}
_PROBE_FIELDS = {
    "grad_tol": _float,
    "max_iters": _int,
    "n_bins": _int,
    "bin_halfwidth": _float,
    "band": _float,
    "tasks": _ints,
}
# A key names the field it fills, except where a key is a Python keyword.
_FIELD_OF_KEY = {"lambda": "lam"}


def _reject_unknown(section: dict, allowed: tuple[str, ...], path: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {section!r}")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown field")


def _section(
    raw: dict, path: str, cls: type, fields: dict[str, Callable[[Any], Any]], **given: Any
) -> Any:
    """Resolve config section ``raw`` straight into dataclass ``cls``.

    Each present key is read through its converter; an absent key keeps
    ``cls``'s default, and ``given`` fills the fields no key names. Every
    error, the dataclass's own included, names ``<path>.<field>``.
    """
    _reject_unknown(raw, tuple(fields), path)
    required = {
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    for key, convert in fields.items():
        name = _FIELD_OF_KEY.get(key, key)
        if key in raw or name in required:
            given[name] = _read(raw, key, path, convert)
    try:
        return cls(**given)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc}") from None


def _echo(resolved: Any, fields: dict[str, Callable[[Any], Any]]) -> dict:
    """The fields of a resolved section under their config keys."""
    values = {key: getattr(resolved, _FIELD_OF_KEY.get(key, key)) for key in fields}
    return {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}


@dataclass(frozen=True)
class DataConfig:
    synthetic: SyntheticTaskConfig | None
    csv_path: Path | None
    csv_has_group: bool
    n_tasks: int
    split: tuple[float, float, float]
    # A CSV's rows, parsed by ``resolve_config``; a config's equality ignores them.
    dataset: MultiTaskDataset | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ModelConfig:
    shared_widths: tuple[int, ...]
    head_widths: tuple[int, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("shared_widths", "head_widths"):
            widths = getattr(self, name)
            if not widths or any(w <= 0 for w in widths):
                raise ConfigError(f"{name} must be non-empty positive widths")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig
    model: ModelConfig
    train: TrainConfig  # the settings of every run; each run sets strategy and seed
    strategies: tuple[StrategyConfig, ...]
    seeds: tuple[int, ...]
    output_dir: Path
    validate_checkpoints: tuple[int, ...]
    probe: ProbeConfig

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigError("seeds: at least one seed required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds: duplicate seeds would overwrite each other's outputs")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds: must be non-negative, got {min(self.seeds)}")

    @property
    def strategy_labels(self) -> tuple[str, ...]:
        """Strategy kinds, with repeats suffixed ``_2``, ``_3``, ..."""
        labels = []
        seen: dict[str, int] = {}
        for s in self.strategies:
            seen[s.kind] = seen.get(s.kind, 0) + 1
            labels.append(s.kind if seen[s.kind] == 1 else f"{s.kind}_{seen[s.kind]}")
        return tuple(labels)


def _resolve_data(raw: dict, base_dir: Path) -> DataConfig:
    _reject_unknown(raw, ("synthetic", "csv", "split"), "data")
    proportions = _read(raw, "split", "data", _floats, [4, 1, 1])
    if len(proportions) != 3 or any(p <= 0 for p in proportions):
        raise ConfigError("data.split: expected three positive proportions")
    if ("synthetic" in raw) == ("csv" in raw):
        raise ConfigError("data: exactly one of 'synthetic' or 'csv' is required")
    if "synthetic" in raw:
        synthetic = _section(
            raw["synthetic"], "data.synthetic", SyntheticTaskConfig, _SYNTHETIC_FIELDS
        )
        return DataConfig(synthetic, None, False, len(synthetic.positive_rates), proportions)
    section = raw["csv"]
    _reject_unknown(section, ("path", "n_tasks", "has_group_column"), "data.csv")
    path = base_dir / _read(section, "path", "data.csv", Path)  # an absolute path stays
    if not path.exists():
        raise ConfigError(f"data.csv.path: file not found: {path}")
    n_tasks = _read(section, "n_tasks", "data.csv", _int)
    if n_tasks < 1:
        raise ConfigError("data.csv.n_tasks: must be at least 1")
    has_group = _read(section, "has_group_column", "data.csv", _bool, False)
    return DataConfig(None, path, has_group, n_tasks, proportions)


def _check_sizes(cfg: ExperimentConfig, n_features: int) -> None:
    """Refuse, naming its field, a float64 array that numpy cannot address (one
    over ``np.iinfo(np.intp).max`` bytes): the synthetic features, the trunk or
    heads parameter buffer, and so any layer's weights, or the probe's bin edges."""
    synthetic, limit = cfg.data.synthetic, np.iinfo(np.intp).max
    trunk = [n_features, *cfg.model.shared_widths]
    head = [trunk[-1], *cfg.model.head_widths, 1]
    sizes = {
        "data.synthetic.n_samples": synthetic.n_samples * n_features if synthetic else 0,
        "model.shared_widths": sum((a + 1) * b for a, b in zip(trunk, trunk[1:])),
        "model.head_widths": cfg.data.n_tasks * sum((a + 1) * b for a, b in zip(head, head[1:])),
        "probe.n_bins": cfg.probe.n_bins + 1,
    }
    for name, size in sizes.items():
        if 8 * size > limit:
            raise ConfigError(f"{name}: {size} float64 values exceed numpy's {limit} bytes")


def resolve_config(raw: dict, base_dir: Path) -> ExperimentConfig:
    """Validate a parsed config dict; errors name the offending field path.

    A CSV data section is parsed last, once every other field is valid; array
    sizes are checked once the input width is known.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(
        raw,
        ("data", "model", "train", "strategies", "seeds", "output_dir", "validate", "probe"),
        "config",
    )
    for key in ("data", "model", "train", "strategies", "seeds", "output_dir"):
        if key not in raw:
            raise ConfigError(f"{key}: required section missing")

    data = _resolve_data(raw["data"], base_dir)
    strategies = tuple(
        _section(s, f"strategies[{i}]", StrategyConfig, _STRATEGY_FIELDS)
        for i, s in enumerate(_read(raw, "strategies", "config", _items))
    )
    if not strategies:
        raise ConfigError("strategies: at least one strategy required")
    # Strategy/task compatibility is checked up front, so bad configs fail
    # before any run starts.
    for i, s in enumerate(strategies):
        try:
            s.check_tasks(data.n_tasks)
        except ConfigError as exc:
            raise ConfigError(f"strategies[{i}].{exc}") from None
    train = _section(raw["train"], "train", TrainConfig, _TRAIN_FIELDS, strategy=strategies[0])

    checkpoints: tuple[int, ...] = ()
    if "validate" in raw:
        _reject_unknown(raw["validate"], ("checkpoints",), "validate")
        checkpoints = _read(raw["validate"], "checkpoints", "validate", _ints, ())
        outside = [c for c in checkpoints if not 0 <= c <= train.steps]
        if outside:
            raise ConfigError(f"validate.checkpoints: step {outside[0]} is not in 0..{train.steps}")

    cfg = ExperimentConfig(
        data=data,
        model=_section(raw["model"], "model", ModelConfig, _MODEL_FIELDS),
        train=train,
        strategies=strategies,
        seeds=_read(raw, "seeds", "config", _ints),
        output_dir=base_dir / _read(raw, "output_dir", "config", Path),  # an absolute path stays
        validate_checkpoints=checkpoints,
        probe=_section(raw.get("probe", {}), "probe", ProbeConfig, _PROBE_FIELDS),
    )
    if data.csv_path is None:
        _check_sizes(cfg, data.synthetic.n_features)
        return cfg
    dataset = load_csv(data.csv_path, data.n_tasks, data.csv_has_group)
    _check_sizes(cfg, dataset.n_features)
    return dataclasses.replace(cfg, data=dataclasses.replace(data, dataset=dataset))


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return resolve_config(read_json(path, "config"), path.parent.resolve())


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical dict echo of a resolved config (embedded in summaries)."""
    if cfg.data.synthetic is not None:
        data: dict[str, Any] = {"synthetic": _echo(cfg.data.synthetic, _SYNTHETIC_FIELDS)}
    else:
        data = {
            "csv": {
                "path": str(cfg.data.csv_path),
                "n_tasks": cfg.data.n_tasks,
                "has_group_column": cfg.data.csv_has_group,
            }
        }
    data["split"] = list(cfg.data.split)
    return {
        "data": data,
        "model": _echo(cfg.model, _MODEL_FIELDS),
        "train": _echo(cfg.train, _TRAIN_FIELDS),
        "strategies": [_echo(s, _STRATEGY_FIELDS) for s in cfg.strategies],
        "seeds": list(cfg.seeds),
        "output_dir": str(cfg.output_dir),
        "validate": {"checkpoints": list(cfg.validate_checkpoints)},
        "probe": _echo(cfg.probe, _PROBE_FIELDS),
    }


def build_dataset(data: DataConfig, run_seed: int) -> MultiTaskDataset:
    """Dataset for one run; synthetic data is re-drawn per run seed, and a
    CSV's dataset is the one parsed when its config was resolved."""
    if data.synthetic is not None:
        cfg = dataclasses.replace(data.synthetic, seed=data.synthetic.seed + run_seed)
        return generate_synthetic(cfg)
    return data.dataset


@dataclass
class RunResult:
    strategy_label: str
    seed: int
    metric: str
    test_values: tuple[float, ...]
    theta_params: int
    wall_time_s: float
    run_dir: Path


def _cell(
    cfg: ExperimentConfig, strategy_idx: int, seed: int
) -> tuple[DatasetSplits, SharedBottomNet, TrainConfig]:
    """The splits, initial net and training settings of one (strategy, seed) cell."""
    ds = build_dataset(cfg.data, seed)
    net = init_net(
        input_dim=ds.n_features,
        shared_widths=list(cfg.model.shared_widths),
        head_widths=list(cfg.model.head_widths),
        num_tasks=ds.n_tasks,
        seed=cfg.model.seed + seed,
    )
    train_cfg = dataclasses.replace(cfg.train, strategy=cfg.strategies[strategy_idx], seed=seed)
    return split(ds, cfg.data.split), net, train_cfg


def run_one(cfg: ExperimentConfig, strategy_idx: int, seed: int) -> RunResult:
    """Train one (strategy, seed) cell and write its artifacts under ``cfg.output_dir``."""
    label = cfg.strategy_labels[strategy_idx]
    splits, net, train_cfg = _cell(cfg, strategy_idx, seed)
    check_split_rankable(splits.val, "validation")
    check_split_rankable(splits.test, "test")
    theta_params = net.theta.size
    started = time.perf_counter()
    try:
        net, log = train(net, splits, train_cfg)
    except DivergenceError as exc:
        raise DivergenceError(f"run {label}/seed {seed}: {exc}") from exc
    wall = time.perf_counter() - started

    final_val = evaluate_split(net, splits.val, "validation")
    final_test = evaluate_split(net, splits.test, "test")

    run_dir = cfg.output_dir / label / str(seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    save_net(net, run_dir / "checkpoint.json")
    save_metrics(log, run_dir)
    summary = {
        "strategy": label,
        "seed": seed,
        "metric": final_test.metric,
        "final_test": {f"task_{t}": v for t, v in enumerate(final_test.values)},
        "final_val": {f"task_{t}": v for t, v in enumerate(final_val.values)},
        "theta_params": theta_params,
        "wall_time_s": wall,
        "config": config_to_dict(cfg),
    }
    (run_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8"
    )
    return RunResult(
        strategy_label=label,
        seed=seed,
        metric=final_test.metric,
        test_values=final_test.values,
        theta_params=theta_params,
        wall_time_s=wall,
        run_dir=run_dir,
    )


def _write_comparison(
    results: list[RunResult], labels: tuple[str, ...], n_tasks: int, path: Path
) -> None:
    """Mean/std of final test metrics per strategy, with deltas vs the sum
    baseline (or the first strategy when no sum run exists)."""
    by_label = {label: [r for r in results if r.strategy_label == label] for label in labels}
    means = {
        label: np.mean([r.test_values for r in runs], axis=0) for label, runs in by_label.items()
    }
    stds = {
        label: np.std([r.test_values for r in runs], axis=0) for label, runs in by_label.items()
    }
    baseline = "sum" if "sum" in by_label else labels[0]
    metric = results[0].metric
    header = ["strategy", "n_seeds", "metric"]
    for t in range(n_tasks):
        header += [f"task{t}_mean", f"task{t}_std", f"task{t}_delta_vs_{baseline}"]
    rows = []
    for label in labels:
        row = [label, len(by_label[label]), metric]
        for t in range(n_tasks):
            row += [
                f"{means[label][t]:.6f}",
                f"{stds[label][t]:.6f}",
                f"{means[label][t] - means[baseline][t]:.6f}",
            ]
        rows.append(row)
    write_table(path, header, rows)


def _make_output_dir(path: Path) -> None:
    """Create the output directory; a path that cannot be one is an input error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"output directory {path}: {exc.strerror}") from None


def run_study(cfg: ExperimentConfig, jobs: int = 1) -> list[RunResult]:
    """All (strategy x seed) runs plus the top-level comparison table; with
    ``jobs`` > 1, a process pool of at most one worker per cell runs them,
    each worker receiving ``cfg``, CSV dataset included."""
    _make_output_dir(cfg.output_dir)
    cells = [(cfg, si, seed) for si in range(len(cfg.strategies)) for seed in cfg.seeds]
    if jobs <= 1:
        results = [run_one(*cell) for cell in cells]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel study needs it

        # The pool starts all its workers at once, so more than one per cell would idle.
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            results = list(pool.map(run_one, *zip(*cells)))
    _write_comparison(
        results, cfg.strategy_labels, cfg.data.n_tasks, cfg.output_dir / "comparison.csv"
    )
    return results


def _default_checkpoints(steps: int) -> tuple[int, ...]:
    marks = {0, steps // 4, steps // 2, (3 * steps) // 4, steps}
    return tuple(sorted(marks))


def run_validate_approx(cfg: ExperimentConfig) -> Path:
    """Compare the squared-gradient curvature surrogate against true HVPs.

    Runs a short training with the first configured strategy and seed,
    snapshots the net at the configured checkpoints, and for every ordered
    task pair records: cosine and norm ratio between the exact HVP (the R-op
    of ``task_hvp``) and the surrogate, plus the exact-vs-first-order
    transference gap at gamma and gamma/2. Returns the report path.
    """
    checkpoints = cfg.validate_checkpoints or _default_checkpoints(cfg.train.steps)
    splits, net, train_cfg = _cell(cfg, 0, cfg.seeds[0])
    if train_cfg.eval_every:
        check_split_rankable(splits.val, "validation")
    _make_output_dir(cfg.output_dir)
    snapshots: dict[int, SharedBottomNet] = {}
    if 0 in checkpoints:
        snapshots[0] = net.copy()
    wanted = set(checkpoints)

    def capture(step: int, live_net: SharedBottomNet) -> None:
        if step in wanted:
            snapshots[step] = live_net.copy()

    train(net, splits, train_cfg, step_callback=capture)

    n_tasks = net.num_tasks
    strategy = train_cfg.strategy
    gammas = strategy.probe_gammas(n_tasks)
    halves = [g / 2.0 for g in gammas]
    probe_batch = splits.train.take(slice(0, train_cfg.batch_size))
    x, y = probe_batch.features, probe_batch.labels.T.copy()  # (T, n): row t is task t's

    rows = []
    for step in sorted(snapshots):
        snap = snapshots[step]  # a private copy, so the lookahead may write into its trunk
        logits, cache = forward(snap, x)
        losses = _bce(logits.T, y)
        grads = [backward_task(snap, cache, y[t], t)[0].values for t in range(n_tasks)]
        hvp_fns = [task_hvp(snap, cache, y[t], t) for t in range(n_tasks)]
        for full, half in zip(
            measure_transference(step, snap, x, y, losses, grads, gammas),
            measure_transference(step, snap, x, y, losses, grads, halves),
        ):
            i, j = full.source_task, full.target_task
            exact = hvp_fns[j](grads[i])
            ap = approx_hvp(grads[j], grads[i], strategy.lam)
            exact_norm = float(np.linalg.norm(exact))
            cosine = pairwise_cosine([exact, ap])[0, 1]
            ratio = float(np.linalg.norm(ap)) / exact_norm if exact_norm > 0 else float("nan")
            gap_full = abs(full.exact_delta - full.first_order)
            gap_half = abs(half.exact_delta - half.first_order)
            gap_ratio = gap_full / gap_half if gap_half > 0 else float("nan")
            rows.append(
                [step, i, j, cosine, ratio, full.gamma_used, gap_full, gap_half, gap_ratio]
            )

    report = cfg.output_dir / "validate_approx.csv"
    header = ["step", "source_task", "target_task", "hvp_cosine", "hvp_norm_ratio"]
    header += ["gamma", "gap_at_gamma", "gap_at_half_gamma", "gap_ratio"]
    write_table(report, header, rows)
    return report


def run_probe(
    checkpoint_path: str | Path,
    data_arg: str | Path,
    output_dir: Path,
    has_group_column: bool = False,
) -> tuple[Path, Path]:
    """Probe a trained checkpoint against a dataset; write histogram + summary.

    ``data_arg`` is either a dataset CSV or an experiment config JSON whose
    data section describes the dataset (and optionally a probe section).
    """
    net = load_net(checkpoint_path)
    probe_cfg = ProbeConfig()
    data_path = Path(data_arg)
    if data_path.suffix == ".json":
        cfg = load_config(data_path)
        ds = build_dataset(cfg.data, cfg.seeds[0])
        probe_cfg = cfg.probe
    else:
        ds = load_csv(data_path, net.num_tasks, has_group_column)
    if ds.n_tasks != net.num_tasks:
        raise ConfigError(
            f"checkpoint has {net.num_tasks} heads but dataset has {ds.n_tasks} tasks"
        )
    _make_output_dir(output_dir)
    result = probe_harmonization(net, ds, probe_cfg)

    hist_path = output_dir / "probe_histogram.csv"
    write_table(hist_path, ["bin_center", "count"], zip(result.bin_centers, result.counts))

    summary_path = output_dir / "probe_summary.json"
    summary = {
        "general_knowledge_share": result.general_share,
        "band": probe_cfg.band,
        "trunk_width": int(result.diffs.size),
        "max_abs_diff": float(np.max(np.abs(result.diffs))),
        "iters_used": list(result.iters_used),
        "tasks": list(probe_cfg.tasks),
    }
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8")
    return hist_path, summary_path


def run_capacity_sweep(cfg: ExperimentConfig, jobs: int = 1) -> Path:
    """Train every strategy at base width and doubled first shared width.

    Emits capacity_sweep.csv with one row per (strategy, width) holding
    mean final test metrics across seeds and the doubled-minus-base deltas.
    """
    widths = cfg.model.shared_widths
    variants = [("base", widths), ("doubled", (2 * widths[0],) + widths[1:])]
    _make_output_dir(cfg.output_dir)
    all_results = {
        name: run_study(
            dataclasses.replace(
                cfg,
                model=dataclasses.replace(cfg.model, shared_widths=shared),
                output_dir=cfg.output_dir / name,
            ),
            jobs,
        )
        for name, shared in variants
    }

    metric = all_results["base"][0].metric
    n_tasks = cfg.data.n_tasks
    header = ["strategy", "width_variant", "first_shared_width", "theta_params", "metric"]
    header += [f"task{t}_mean" for t in range(n_tasks)]
    header += [f"task{t}_delta_vs_base" for t in range(n_tasks)]
    rows = []
    for label in cfg.strategy_labels:
        runs = {
            name: [r for r in results if r.strategy_label == label]
            for name, results in all_results.items()
        }
        means = {name: np.mean([r.test_values for r in rs], axis=0) for name, rs in runs.items()}
        for name, shared in variants:
            row = [label, name, shared[0], runs[name][0].theta_params, metric]
            row += [f"{means[name][t]:.6f}" for t in range(n_tasks)]
            row += [f"{means[name][t] - means['base'][t]:.6f}" for t in range(n_tasks)]
            rows.append(row)
    out = cfg.output_dir / "capacity_sweep.csv"
    write_table(out, header, rows)
    return out
