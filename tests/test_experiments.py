import dataclasses
import json
import math
import types
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cograd import (
    ConfigError,
    CsvParseError,
    ProbeConfig,
    TrainConfig,
    build_dataset,
    config_to_dict,
    generate_synthetic,
    load_config,
    resolve_config,
    run_capacity_sweep,
    run_one,
    run_probe,
    run_study,
    run_validate_approx,
    write_csv,
)


NAN, INF = float("nan"), float("inf")


def base_config(**overrides):
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
            "steps": 8,
            "batch_size": 40,
            "learning_rate": 0.05,
            "loss_weights": [1.0, 1.0],
        },
        "strategies": [{"kind": "sum"}, {"kind": "cograd", "gammas": [0.05, 0.05]}],
        "seeds": [0, 1],
        "output_dir": "out",
    }
    raw.update(overrides)
    return raw


def with_field(raw, field, value):
    """Set the dotted config ``field`` of ``raw`` to ``value``; returns ``raw``.

    A numeric part indexes a list: ``strategies.1.gammas``.
    """
    *parents, key = field.split(".")
    section = raw
    for name in parents:
        section = section[int(name) if isinstance(section, list) else name]
    section[key] = value
    return raw


def resolve(tmp_path, **overrides):
    return resolve_config(base_config(**overrides), tmp_path)


def test_resolve_basic_fields(tmp_path):
    cfg = resolve(tmp_path)
    assert cfg.strategy_labels == ("sum", "cograd")
    assert cfg.data.split == (4.0, 1.0, 1.0)
    assert cfg.seeds == (0, 1)
    assert cfg.output_dir == tmp_path / "out"
    assert cfg.model.shared_widths == (8,)


def test_duplicate_strategy_kinds_get_suffix(tmp_path):
    cfg = resolve(tmp_path, strategies=[{"kind": "sum"}, {"kind": "sum"}])
    assert cfg.strategy_labels == ("sum", "sum_2")


def test_lambda_json_key_maps_to_lam(tmp_path):
    cfg = resolve(
        tmp_path, strategies=[{"kind": "cograd", "gammas": [0.1, 0.1], "lambda": 2.5}]
    )
    assert cfg.strategies[0].lam == 2.5


def test_error_paths_name_offending_field(tmp_path):
    with pytest.raises(ConfigError, match="model"):
        resolve_config({k: v for k, v in base_config().items() if k != "model"}, tmp_path)
    with pytest.raises(ConfigError, match="data.synthetic"):
        raw = base_config()
        raw["data"]["synthetic"]["n_samples"] = -1
        resolve_config(raw, tmp_path)
    with pytest.raises(ConfigError, match=r"strategies\[1\]"):
        resolve(tmp_path, strategies=[{"kind": "sum"}, {"kind": "cograd", "gammas": [-1.0, 0.0]}])
    with pytest.raises(ConfigError, match="unknown"):
        raw = base_config()
        raw["data"]["frobnicate"] = 1
        resolve_config(raw, tmp_path)
    with pytest.raises(ConfigError, match="seeds"):
        resolve(tmp_path, seeds=[3, 3])
    with pytest.raises(ConfigError, match="optimizer"):
        raw = base_config()
        raw["train"]["optimizer"] = "adagrad"
        resolve_config(raw, tmp_path)
    with pytest.raises(ConfigError, match=r"strategies\[0\]\.per_layer: unknown field"):
        resolve(tmp_path, strategies=[{"kind": "pcgrad", "per_layer": True}])
    # Values of the wrong type name their field instead of escaping as
    # ValueError or TypeError.
    for field, value in [
        ("model.shared_widths", "abc"),
        ("model.head_widths", 4),
        ("model.seed", [1]),
        ("data.split", "abc"),
        ("data.synthetic.n_samples", "many"),
        ("data.synthetic.positive_rates", 0.5),
        ("data.synthetic.task_angle_deg", None),
        ("seeds", ["a"]),
        ("strategies", 5),
        ("validate.checkpoints", 3),
        ("validate.checkpoints", [4, 5000]),  # past train.steps (8)
        ("model.seed", 1.5),
        ("train.steps", 2.5),
        ("train.batch_size", 40.5),
        ("train.loss_weights", ["a", 1]),
        ("train.loss_weights", "ab"),
        ("train.shuffle", "no"),
        ("probe.max_iters", "x"),
        ("probe.grad_tol", [1e-6]),
        ("probe.tasks", [0]),
        ("output_dir", 5),
        ("output_dir", ["a"]),
        ("strategies", {"kind": "sum"}),
        # Seeds are non-negative.
        ("seeds", [-1]),
        ("model.seed", -5),
        ("data.synthetic.seed", -5),
        # Probe values out of range.
        ("probe.grad_tol", 0.0),
        ("probe.grad_tol", -1.0),
        ("probe.max_iters", -1),
        ("probe.n_bins", 0),
        ("probe.n_bins", -3),
        ("probe.bin_halfwidth", 0.0),
        ("probe.band", -0.01),
        ("probe.tasks", [1, 1]),
        ("probe.tasks", [-1, 0]),
        # Numbers are finite.
        ("data.split", [NAN, 1, 1]),
        ("train.learning_rate", NAN),
        ("train.learning_rate", INF),
        ("train.loss_weights", [NAN, 1.0]),
        # JSON true is not the number 1: "steps": true would train one step.
        ("train.steps", True),
        ("train.batch_size", True),
        ("train.eval_every", False),
        ("train.learning_rate", True),
        ("seeds", [True]),
        ("model.shared_widths", [8, True]),
        ("data.synthetic.label_noise", False),
    ]:
        raw = with_field(base_config(validate={}, probe={}), field, value)
        with pytest.raises(ConfigError, match=field):
            resolve_config(raw, tmp_path)
    for key, value in [
        ("gammas", [NAN, 1.0]),
        ("lambda", NAN),
        ("lambda", INF),
        ("gammas", [0.05, True]),
    ]:
        raw = with_field(base_config(), f"strategies.1.{key}", value)
        with pytest.raises(ConfigError, match=rf"strategies\[1\]\.{key}"):
            resolve_config(raw, tmp_path)
    # A CSV flag takes only true or false: the string "false" is not False.
    (tmp_path / "data.csv").write_text("")
    raw = base_config(
        data={"csv": {"path": "data.csv", "n_tasks": 2, "has_group_column": "false"}}
    )
    with pytest.raises(ConfigError, match="data.csv.has_group_column"):
        resolve_config(raw, tmp_path)


@pytest.mark.parametrize("key", ["steps", "batch_size", "learning_rate"])
def test_missing_required_train_field_is_named(tmp_path, key):
    raw = base_config()
    del raw["train"][key]
    with pytest.raises(ConfigError, match=rf"^train\.{key}: required field missing$"):
        resolve_config(raw, tmp_path)


_TYPED_FIELDS = (
    "model.shared_widths",
    "model.head_widths",
    "model.seed",
    "data.split",
    "data.synthetic.n_samples",
    "data.synthetic.n_features",
    "data.synthetic.task_angle_deg",
    "data.synthetic.positive_rates",
    "data.synthetic.label_noise",
    "data.synthetic.seed",
    "seeds",
    "strategies",
    "strategies.1.gammas",
    "strategies.1.lambda",
    "strategies.1.relax",
    "validate.checkpoints",
    "output_dir",
    "train.steps",
    "train.batch_size",
    "train.learning_rate",
    "train.loss_weights",
    "train.eval_every",
    "train.optimizer",
    "train.shuffle",
    "train.transference_every",
    "probe.grad_tol",
    "probe.max_iters",
    "probe.n_bins",
    "probe.bin_halfwidth",
    "probe.band",
    "probe.tasks",
)

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def has_declared_type(value, hint):
    """Whether ``value`` is of the annotated type ``hint``, checked exactly."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(has_declared_type(value, arm) for arm in args)
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:
            return all(has_declared_type(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(has_declared_type, value, args))
    return type(value) is hint


@settings(max_examples=600, deadline=None)
@given(field=st.sampled_from(_TYPED_FIELDS), value=_JSON_VALUES)
@example(field="train.learning_rate", value=INF)
@example(field="strategies.1.lambda", value=NAN)
@example(field="strategies.1.gammas", value=[NAN, 1.0])
def test_any_json_value_in_typed_field_resolves_or_config_error(tmp_path_factory, field, value):
    raw = with_field(base_config(validate={}, probe={}), field, value)
    try:
        cfg = resolve_config(raw, tmp_path_factory.getbasetemp())
    except ConfigError:
        return
    # What resolves has the types TrainConfig and ProbeConfig declare.
    for section, cls in ((cfg.train, TrainConfig), (cfg.probe, ProbeConfig)):
        for key, hint in typing.get_type_hints(cls).items():
            resolved = getattr(section, key)
            assert has_declared_type(resolved, hint), (key, resolved)
    # And every number in it is finite.
    assert all(math.isfinite(v) for v in resolved_floats(cfg)), field


def resolved_floats(value):
    """Every float inside a resolved config, through dataclasses and tuples."""
    if isinstance(value, float):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from resolved_floats(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from resolved_floats(item)


def test_exactly_one_data_source(tmp_path):
    raw = base_config()
    raw["data"]["csv"] = {"path": "x.csv", "n_tasks": 2}
    with pytest.raises(ConfigError, match="exactly one"):
        resolve_config(raw, tmp_path)
    del raw["data"]["csv"]
    del raw["data"]["synthetic"]
    with pytest.raises(ConfigError, match="exactly one"):
        resolve_config(raw, tmp_path)


def test_csv_config_checks_existence(tmp_path):
    raw = base_config()
    raw["data"] = {"csv": {"path": "missing.csv", "n_tasks": 2}}
    with pytest.raises(ConfigError, match="not found"):
        resolve_config(raw, tmp_path)


def csv_config(tmp_path, **overrides):
    """A config over a CSV of the base config's synthetic data (240 rows)."""
    write_csv(generate_synthetic(resolve(tmp_path).data.synthetic), tmp_path / "data.csv")
    return base_config(data={"csv": {"path": "data.csv", "n_tasks": 2}}, **overrides)


def test_csv_config_carries_its_dataset_outside_equality(tmp_path):
    raw = csv_config(tmp_path)
    cfg = resolve_config(raw, tmp_path)
    assert cfg.data.dataset.n_rows == 240
    assert all(build_dataset(cfg.data, s) is cfg.data.dataset for s in (0, 1, 7))
    again = resolve_config(raw, tmp_path)
    assert again.data.dataset is not cfg.data.dataset
    assert again == cfg and again.data == cfg.data


def test_csv_is_parsed_after_every_other_field(tmp_path):
    raw = csv_config(
        tmp_path, strategies=[{"kind": "sum"}, {"kind": "cograd", "gammas": [-1.0, 0.0]}]
    )
    with open(tmp_path / "data.csv", "a", encoding="utf-8") as fh:
        fh.write("1,2\n")
    with pytest.raises(ConfigError, match=r"^strategies\[1\]"):
        resolve_config(raw, tmp_path)
    raw["strategies"] = [{"kind": "sum"}]
    with pytest.raises(CsvParseError, match=r"data\.csv:242: expected 8 fields, got 2"):
        resolve_config(raw, tmp_path)


def test_config_echo_round_trips(tmp_path):
    sections = {"probe": {"band": 0.02}, "validate": {"checkpoints": [0, 4]}}
    for cfg in (resolve(tmp_path), resolve(tmp_path, **sections)):
        echoed = resolve_config(config_to_dict(cfg), tmp_path)
        assert echoed.strategies == cfg.strategies
        assert echoed.seeds == cfg.seeds
        assert echoed.data == cfg.data
        assert echoed.model == cfg.model
        assert echoed.train == cfg.train
        assert echoed.probe == cfg.probe
        assert echoed.validate_checkpoints == cfg.validate_checkpoints
        assert echoed == cfg
    assert (cfg.probe.band, cfg.validate_checkpoints) == (0.02, (0, 4))


def test_build_dataset_offsets_generator_seed(tmp_path):
    cfg = resolve(tmp_path)
    ds = build_dataset(cfg.data, 5)
    import dataclasses

    expected = generate_synthetic(dataclasses.replace(cfg.data.synthetic, seed=11 + 5))
    assert np.array_equal(ds.features, expected.features)
    assert np.array_equal(ds.labels, expected.labels)
    other = build_dataset(cfg.data, 6)
    assert not np.array_equal(ds.labels, other.labels)


def test_run_one_writes_artifacts(tmp_path):
    raw = base_config()
    raw["train"]["eval_every"] = 4
    cfg = resolve_config(raw, tmp_path)
    result = run_one(dataclasses.replace(cfg, output_dir=tmp_path / "runs"), 0, 0)
    run_dir = tmp_path / "runs" / "sum" / "0"
    assert result.run_dir == run_dir
    for name in ("checkpoint.json", "summary.json", "metrics_steps.csv", "metrics_eval.csv"):
        assert (run_dir / name).exists()
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["strategy"] == "sum"
    assert summary["theta_params"] == 6 * 8 + 8
    assert "config" in summary and summary["config"]["seeds"] == [0, 1]
    assert len(result.test_values) == 2


def test_run_one_metrics_reproducible(tmp_path):
    cfg = resolve(tmp_path)
    run_one(dataclasses.replace(cfg, output_dir=tmp_path / "a"), 1, 0)
    run_one(dataclasses.replace(cfg, output_dir=tmp_path / "b"), 1, 0)
    a = (tmp_path / "a" / "cograd" / "0" / "metrics_steps.csv").read_bytes()
    b = (tmp_path / "b" / "cograd" / "0" / "metrics_steps.csv").read_bytes()
    assert a == b


def test_run_study_layout_and_comparison(tmp_path):
    cfg = resolve(tmp_path)
    results = run_study(cfg)
    assert len(results) == 4  # 2 strategies x 2 seeds
    for label in ("sum", "cograd"):
        for seed in (0, 1):
            assert (cfg.output_dir / label / str(seed) / "summary.json").exists()
    table = (cfg.output_dir / "comparison.csv").read_text().splitlines()
    assert table[0] == (
        "strategy,n_seeds,metric,task0_mean,task0_std,task0_delta_vs_sum,"
        "task1_mean,task1_std,task1_delta_vs_sum"
    )
    assert len(table) == 3
    sum_row = table[1].split(",")
    assert sum_row[0] == "sum" and sum_row[1] == "2" and sum_row[2] == "auc"
    assert sum_row[5] == "0.000000" and sum_row[8] == "0.000000"


def test_identical_strategies_identical_results(tmp_path):
    # Paired seeds: the same strategy listed twice must reproduce itself
    # exactly, so deltas in the comparison table are exactly zero.
    cfg = resolve(tmp_path, strategies=[{"kind": "sum"}, {"kind": "sum"}], seeds=[0])
    run_study(cfg)
    a = (cfg.output_dir / "sum" / "0" / "metrics_steps.csv").read_bytes()
    b = (cfg.output_dir / "sum_2" / "0" / "metrics_steps.csv").read_bytes()
    assert a == b
    rows = (cfg.output_dir / "comparison.csv").read_text().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        assert cells[5] == "0.000000" and cells[8] == "0.000000"


def test_comparison_baseline_falls_back_to_first_strategy(tmp_path):
    cfg = resolve(tmp_path, strategies=[{"kind": "pcgrad"}])
    run_study(cfg)
    header = (cfg.output_dir / "comparison.csv").read_text().splitlines()[0]
    assert "delta_vs_pcgrad" in header


def test_validate_approx_report_shape(tmp_path):
    raw = base_config()
    raw["validate"] = {"checkpoints": [0, 2, 4]}
    cfg = resolve_config(raw, tmp_path)
    report = run_validate_approx(cfg)
    lines = report.read_text().splitlines()
    assert lines[0] == (
        "step,source_task,target_task,hvp_cosine,hvp_norm_ratio,"
        "gamma,gap_at_gamma,gap_at_half_gamma,gap_ratio"
    )
    assert len(lines) == 1 + 3 * 2  # checkpoints x ordered pairs
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 9
        cosine = float(cells[3])
        assert -1.0 <= cosine <= 1.0
        assert float(cells[5]) > 0.0  # probe gamma
        assert float(cells[6]) >= 0.0 and float(cells[7]) >= 0.0


def test_validate_approx_default_checkpoints(tmp_path):
    cfg = resolve(tmp_path)
    report = run_validate_approx(cfg)
    steps = {int(line.split(",")[0]) for line in report.read_text().splitlines()[1:]}
    assert steps == {0, 2, 4, 6, 8}


def test_validate_approx_runs_on_a_wide_trunk(tmp_path):
    # 6*2000 + 2000 = 14,000 shared parameters: no size cap refuses the run.
    raw = base_config()
    raw["model"]["shared_widths"] = [2000]
    raw["validate"] = {"checkpoints": [0, 2]}
    report = run_validate_approx(resolve_config(raw, tmp_path))
    lines = report.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # checkpoints x ordered pairs
    assert all(-1.0 <= float(line.split(",")[3]) <= 1.0 for line in lines[1:])


def validate_config(num_tasks):
    """``base_config`` with ``num_tasks`` tasks and validate checkpoints 0, 4 and 8."""
    raw = base_config()
    raw["data"]["synthetic"]["positive_rates"] = [0.5, 0.5, 0.3][:num_tasks]
    raw["train"]["loss_weights"] = [1.0] * num_tasks
    raw["strategies"][1]["gammas"] = [0.05] * num_tasks
    raw["validate"] = {"checkpoints": [0, 4, 8]}
    return raw


@pytest.mark.parametrize("num_tasks", [2, 3])
def test_validate_approx_hvp_cells_match_central_differences(tmp_path, monkeypatch, num_tasks):
    # The hvp_* cells compare the surrogate against trunk_hvp's exact product.
    # Rerun with a stacked central-difference product in its place: where no
    # relu of the probe batch changes sign within the difference's step, the
    # two reports agree to 1e-6, and the transference gaps, which no product
    # enters, bit for bit. At T = 3 each checkpoint has six ordered pairs, so a
    # row taken from the wrong partner shows.
    from cograd import backward, experiments, finite_diff_hvp, forward, hvp_default_eps
    from cograd import theta_grad_fn

    def relu_signs(net, x, theta):
        probe = net.copy()
        probe.set_theta(theta)
        cache = forward(probe, x)[1]
        heads = (out[t] for t in range(probe.num_tasks) for out in cache.heads_act[1:-1])
        return [out > 0.0 for out in [*cache.trunk_act[1:], *heads]]

    labels = []

    def recording_backward(net, cache, y, **outputs):
        labels.append(y)
        backward(net, cache, y, **outputs)

    def central_difference_trunk_hvp(net, cache, deltas):
        x, y = cache.trunk_act[0], labels[-1]
        grad_fns = [theta_grad_fn(net, x, y[t], t) for t in range(net.num_tasks)]

        def hvp(V):
            at = relu_signs(net, x, net.theta)
            for v in V:
                for sign in (1.0, -1.0):  # kink-free along the difference's step
                    step = net.theta + sign * hvp_default_eps(net.theta) * v
                    assert all(map(np.array_equal, relu_signs(net, x, step), at))
            return np.array([finite_diff_hvp(f, net.theta, v) for f, v in zip(grad_fns, V)])

        return hvp

    raw = validate_config(num_tasks)
    reports = [run_validate_approx(resolve_config(raw, tmp_path / "exact"))]
    monkeypatch.setattr(experiments, "backward", recording_backward)
    monkeypatch.setattr(experiments, "trunk_hvp", central_difference_trunk_hvp)
    reports.append(run_validate_approx(resolve_config(raw, tmp_path / "fd")))
    exact, fd = ([line.split(",") for line in r.read_text().splitlines()[1:]] for r in reports)
    assert len(exact) == len(fd) == 3 * num_tasks * (num_tasks - 1)
    for got, want in zip(exact, fd):
        assert got[:3] + got[5:] == want[:3] + want[5:]
        assert float(got[3]) == pytest.approx(float(want[3]), abs=1e-6)  # cosine
        assert float(got[4]) == pytest.approx(float(want[4]), rel=1e-6)  # norm ratio


def test_validate_approx_takes_one_backward_and_t_products_per_snapshot(tmp_path, monkeypatch):
    # One stacked backward and one stacked product per source task, not one
    # product per ordered pair: at T = 3, three products per checkpoint, not six.
    # The product here is the surrogate itself, row j being g_j * g_j * V[j],
    # so each cell reads H_j g_i from row j of source i's product only if
    # every norm ratio is 1 and every cosine 1.
    from cograd import approx_hvp, backward, experiments

    calls, grads = [], []

    def counting_backward(net, cache, y, grad_theta, deltas):
        calls.append("backward")
        grads.append(grad_theta)
        backward(net, cache, y, grad_theta=grad_theta, deltas=deltas)

    def surrogate_trunk_hvp(net, cache, deltas):
        G = grads[-1]

        def product(V):
            calls.append("product")
            return approx_hvp(G, V)

        return product

    monkeypatch.setattr(experiments, "backward", counting_backward)
    monkeypatch.setattr(experiments, "trunk_hvp", surrogate_trunk_hvp)
    report = run_validate_approx(resolve_config(validate_config(3), tmp_path))
    rows = [line.split(",") for line in report.read_text().splitlines()[1:]]
    assert calls == ["backward", "product", "product", "product"] * 3
    assert len(rows) == 3 * 6
    for row in rows:
        assert float(row[3]) == pytest.approx(1.0, abs=1e-12) and float(row[4]) == 1.0


def checkpoint_and_csv(tmp_path, angle=0.0, rates=(0.5, 0.5)):
    raw = base_config()
    raw["data"]["synthetic"]["task_angle_deg"] = angle
    raw["data"]["synthetic"]["positive_rates"] = list(rates)
    cfg = resolve_config(raw, tmp_path)
    run_one(dataclasses.replace(cfg, output_dir=tmp_path / "runs"), 0, 0)
    ckpt = tmp_path / "runs" / "sum" / "0" / "checkpoint.json"
    ds = build_dataset(cfg.data, 0)
    csv_path = tmp_path / "probe_data.csv"
    write_csv(ds, csv_path)
    return ckpt, csv_path


def test_run_probe_outputs(tmp_path):
    ckpt, csv_path = checkpoint_and_csv(tmp_path)
    hist, summary = run_probe(ckpt, csv_path, tmp_path / "probe")
    lines = hist.read_text().splitlines()
    assert lines[0] == "bin_center,count"
    assert len(lines) == 42
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 8  # trunk width
    info = json.loads(summary.read_text())
    # identical label columns: every unit reads as general knowledge
    assert info["general_knowledge_share"] == 1.0
    assert info["trunk_width"] == 8
    assert info["tasks"] == [0, 1]


def test_run_probe_reproducible_bytes(tmp_path):
    ckpt, csv_path = checkpoint_and_csv(tmp_path, angle=60.0)
    hist_a, _ = run_probe(ckpt, csv_path, tmp_path / "pa")
    hist_b, _ = run_probe(ckpt, csv_path, tmp_path / "pb")
    assert hist_a.read_bytes() == hist_b.read_bytes()


def test_run_probe_accepts_config_json(tmp_path):
    ckpt, _ = checkpoint_and_csv(tmp_path)
    raw = base_config()
    raw["probe"] = {"band": 0.02}
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(raw))
    _, summary = run_probe(ckpt, config_path, tmp_path / "probe")
    assert json.loads(summary.read_text())["band"] == 0.02


def test_run_probe_task_count_mismatch(tmp_path):
    ckpt, _ = checkpoint_and_csv(tmp_path)
    raw = base_config(strategies=[{"kind": "sum"}])
    raw["data"]["synthetic"]["positive_rates"] = [0.5, 0.5, 0.5]
    raw["train"]["loss_weights"] = [1.0] * 3
    config_path = tmp_path / "cfg3.json"
    config_path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="heads"):
        run_probe(ckpt, config_path, tmp_path / "probe")


def test_capacity_sweep_table(tmp_path):
    cfg = resolve(tmp_path, strategies=[{"kind": "sum"}], seeds=[0])
    table = run_capacity_sweep(cfg)
    lines = table.read_text().splitlines()
    assert lines[0].startswith("strategy,width_variant,first_shared_width,theta_params,metric")
    assert len(lines) == 3  # one strategy x two width variants
    base = lines[1].split(",")
    doubled = lines[2].split(",")
    assert base[1] == "base" and doubled[1] == "doubled"
    assert int(base[2]) == 8 and int(doubled[2]) == 16
    assert int(base[3]) == 6 * 8 + 8
    assert int(doubled[3]) == 6 * 16 + 16
    # base rows measure deltas against themselves
    assert base[7] == "0.000000" and base[8] == "0.000000"
    for name in ("base", "doubled"):
        assert (cfg.output_dir / name / "comparison.csv").exists()


def test_capacity_sweep_preserves_depth(tmp_path):
    cfg = resolve(
        tmp_path, model={"shared_widths": [8, 4], "head_widths": [4], "seed": 1}, seeds=[0],
        strategies=[{"kind": "sum"}],
    )
    table = run_capacity_sweep(cfg)
    doubled = table.read_text().splitlines()[2].split(",")
    # only the first shared width doubles: 6*16+16 + 16*4+4 parameters
    assert int(doubled[3]) == 6 * 16 + 16 + 16 * 4 + 4


def test_load_config_reports_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON") as exc:
        load_config(path)
    assert str(path) in str(exc.value)


def test_parallel_jobs_match_serial(tmp_path):
    # A serial study shares each seed's splits among its strategies, and each
    # parallel worker draws its own; a run that wrote into the shared data
    # would change the artifacts of the runs after it.
    cfg_serial = resolve(tmp_path, output_dir="serial", seeds=[0, 1])
    cfg_par = resolve(tmp_path, output_dir="par", seeds=[0, 1])
    run_study(cfg_serial, jobs=1)
    run_study(cfg_par, jobs=2)

    def artifacts(root):
        files = {}
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            name = str(path.relative_to(root))
            if path.name == "summary.json":
                summary = json.loads(path.read_text())
                del summary["wall_time_s"], summary["config"]["output_dir"]
                files[name] = summary
            else:
                files[name] = path.read_bytes()
        return files

    serial, par = artifacts(tmp_path / "serial"), artifacts(tmp_path / "par")
    expected = {"comparison.csv"} | {
        f"{label}/{seed}/{name}"
        for label in ("sum", "cograd")
        for seed in (0, 1)
        for name in ("checkpoint.json", "metrics_steps.csv", "metrics_eval.csv", "summary.json")
    }
    assert set(serial) == expected
    assert serial == par


@pytest.mark.parametrize(
    "eval_every, validations", [(4, 2), (3, 3)], ids=["last-step-evaluated", "not-evaluated"]
)
def test_final_validation_reuses_the_last_steps_evaluation(
    tmp_path, monkeypatch, eval_every, validations
):
    # When the last of 8 steps evaluated, that record is the final validation
    # metric: one evaluate_split call fewer, and summary.json's final_val is
    # the last metrics_eval.csv row, bit for bit.
    from cograd import experiments, trainer

    made = []
    evaluate = trainer.evaluate_split

    def counting(net, ds, split_name):
        made.append(split_name)
        return evaluate(net, ds, split_name)

    monkeypatch.setattr(trainer, "evaluate_split", counting)
    monkeypatch.setattr(experiments, "evaluate_split", counting)
    raw = base_config(seeds=[0], strategies=[{"kind": "sum"}])
    raw["train"]["eval_every"] = eval_every
    run_dir = run_one(resolve_config(raw, tmp_path), 0, 0).run_dir
    assert made == ["validation"] * validations + ["test"]
    if eval_every == 4:
        summary = json.loads((run_dir / "summary.json").read_text())
        last = (run_dir / "metrics_eval.csv").read_text().splitlines()[-1].split(",")
        assert last[:2] == ["8", "auc"]
        assert [summary["final_val"][f"task_{t}"] for t in range(2)] == list(map(float, last[2:]))


def test_serial_study_draws_each_seed_once(tmp_path, monkeypatch):
    # Three strategies at two seeds: two draws, not six, and results still
    # come strategy by strategy, each in seed order.
    from cograd import experiments

    drawn = []

    def counting_build_dataset(data, run_seed):
        drawn.append(run_seed)
        return build_dataset(data, run_seed)

    monkeypatch.setattr(experiments, "build_dataset", counting_build_dataset)
    strategies = [{"kind": "sum"}, {"kind": "cograd", "gammas": [0.05, 0.05]}, {"kind": "pcgrad"}]
    results = run_study(resolve(tmp_path, strategies=strategies, seeds=[3, 1]))
    assert drawn == [3, 1]
    assert [(r.strategy_label, r.seed) for r in results] == [
        (label, seed) for label in ("sum", "cograd", "pcgrad") for seed in (3, 1)
    ]


def test_serial_study_holds_one_seed_dataset_at_a_time(tmp_path):
    # 16,384 x 64 features are 8 MiB; holding a second seed's while the
    # next is drawn would take the traced peak past 1.5 datasets.
    import tracemalloc

    raw = base_config(seeds=[0, 1])
    raw["data"]["synthetic"].update(n_samples=16_384, n_features=64)
    raw["train"].update(steps=2, batch_size=64)
    cfg = resolve_config(raw, tmp_path)
    dataset_bytes = build_dataset(cfg.data, 0).features.nbytes
    assert dataset_bytes >= 8 * 2**20
    tracemalloc.start()
    try:
        run_study(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * dataset_bytes
