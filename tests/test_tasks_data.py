from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cograd import (
    ConfigError,
    CsvParseError,
    DataError,
    MultiTaskDataset,
    SyntheticTaskConfig,
    batches,
    generate_synthetic,
    load_csv,
    select_tasks,
    split,
    write_csv,
)
from cograd import tasks_data
from cograd.tasks_data import _task_weights


def synth_cfg(**overrides):
    fields = dict(
        n_samples=2000,
        n_features=8,
        task_angle_deg=45.0,
        positive_rates=(0.5, 0.1),
        label_noise=0.0,
        seed=0,
    )
    fields.update(overrides)
    return SyntheticTaskConfig(**fields)


def test_same_seed_bitwise_identical():
    a = generate_synthetic(synth_cfg())
    b = generate_synthetic(synth_cfg())
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_positive_rates_hit_targets():
    ds = generate_synthetic(
        synth_cfg(n_samples=20000, positive_rates=(0.5, 0.02), task_angle_deg=45.0)
    )
    rates = ds.labels.mean(axis=0)
    assert 0.48 <= rates[0] <= 0.52
    assert 0.015 <= rates[1] <= 0.025


def brentq_labels(cfg):
    """Labels drawn as before the bisection: scipy's brentq and expit on the same rate gap."""
    from scipy.optimize import brentq
    from scipy.special import expit

    rng = np.random.default_rng(cfg.seed)
    features = rng.standard_normal((cfg.n_samples, cfg.n_features))
    latent, noise = rng.uniform(size=cfg.n_samples), rng.uniform(size=cfg.n_samples)
    labels = np.zeros((cfg.n_samples, len(cfg.positive_rates)))
    for t, (weights, rate) in enumerate(zip(_task_weights(cfg), cfg.positive_rates)):
        scores = 3.0 * (features @ weights)

        def rate_gap(bias):
            return float(np.mean(latent < expit(scores + bias))) - rate

        labels[:, t] = latent < expit(scores + brentq(rate_gap, -60.0, 60.0, xtol=1e-12))
    flip = noise < cfg.label_noise
    labels[flip] = 1.0 - labels[flip]
    return labels


# The synthetic regimes of the tests and the benchmark, at the seeds they draw.
@pytest.mark.parametrize(
    "overrides, seeds",
    [
        ({}, [0]),
        ({"label_noise": 0.2}, [0]),
        ({"n_samples": 50}, [0]),
        ({"n_samples": 601, "positive_rates": (0.1, 0.3)}, range(3)),  # 60.1 and 180.3 rows
        ({"n_samples": 20000, "positive_rates": (0.5, 0.02)}, [0]),
        ({"task_angle_deg": 0.0, "positive_rates": (0.3, 0.3)}, [0]),
        ({"n_samples": 4000, "task_angle_deg": 90.0, "positive_rates": (0.4, 0.4)}, range(3)),
        ({"n_samples": 240, "n_features": 6, "positive_rates": (0.5, 0.4, 0.6, 0.5)}, [11, 12]),
        ({"n_samples": 2000, "positive_rates": (0.5, 0.3)}, [11]),
        ({"n_samples": 6000, "n_features": 16, "positive_rates": (0.5, 0.5)}, [21, 22]),
        ({"n_samples": 600, "positive_rates": (0.5, 0.2)}, [5]),
        ({"n_samples": 20000, "n_features": 32, "positive_rates": (0.5, 0.05)}, [11, 1012]),
        ({"n_samples": 50000, "n_features": 128, "positive_rates": (0.5, 0.02)}, [11]),
    ],
)
def test_labels_equal_the_brentq_draw(overrides, seeds):
    for seed in seeds:
        cfg = synth_cfg(seed=seed, **overrides)
        assert np.array_equal(generate_synthetic(cfg).labels, brentq_labels(cfg))


def test_rate_halfway_between_two_counts_takes_the_lower():
    # 601 * 0.5 = 300.5: 300 and 301 positives miss the rate by the same float.
    for seed in range(4):
        assert generate_synthetic(synth_cfg(n_samples=601, seed=seed)).labels[:, 0].sum() == 300


def test_zero_angle_identical_processes_identical_columns():
    ds = generate_synthetic(
        synth_cfg(task_angle_deg=0.0, positive_rates=(0.3, 0.3), label_noise=0.0)
    )
    assert np.array_equal(ds.labels[:, 0], ds.labels[:, 1])


def test_label_correlation_non_increasing_in_angle():
    # Statistical property over 20 seeds: wider angle, weaker correlation.
    means = []
    for angle in (0.0, 45.0, 90.0):
        corrs = []
        for seed in range(20):
            ds = generate_synthetic(
                synth_cfg(n_samples=4000, task_angle_deg=angle, positive_rates=(0.4, 0.4), seed=seed)
            )
            corrs.append(np.corrcoef(ds.labels[:, 0], ds.labels[:, 1])[0, 1])
        means.append(np.mean(corrs))
    assert means[0] >= means[1] >= means[2]


def test_label_noise_flips_rows():
    clean = generate_synthetic(synth_cfg())
    noisy = generate_synthetic(synth_cfg(label_noise=0.2))
    assert np.array_equal(clean.features, noisy.features)
    flipped = np.mean(clean.labels[:, 0] != noisy.labels[:, 0])
    assert 0.15 < flipped < 0.25


def test_config_validation():
    with pytest.raises(ConfigError):
        synth_cfg(task_angle_deg=91.0)
    with pytest.raises(ConfigError):
        synth_cfg(positive_rates=(0.5, 1.0))
    with pytest.raises(ConfigError):
        synth_cfg(label_noise=0.5)
    with pytest.raises(ConfigError):
        synth_cfg(n_samples=0)


def test_dataset_validation():
    with pytest.raises(DataError):
        MultiTaskDataset(np.zeros((3, 2)), np.array([[0.0], [2.0], [1.0]]))
    with pytest.raises(DataError):
        MultiTaskDataset(np.array([[np.inf, 0.0]]), np.array([[1.0]]))
    with pytest.raises(DataError):
        MultiTaskDataset(np.zeros((3, 2)), np.zeros((3, 1)), group_ids=np.array(["a"]))


@pytest.mark.parametrize("n, row", [(3000, 1023), (2049, 2048)], ids=["block-end", "merged-tail"])
def test_dataset_rejects_a_nan_at_a_block_edge(n, row):
    features = np.zeros((n, 3))
    features[row, 2] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        MultiTaskDataset(features, np.zeros((n, 1)))


def test_load_csv_across_blocks_is_bitwise_and_names_the_line(tmp_path):
    ds = generate_synthetic(synth_cfg(n_samples=2500))
    ds = MultiTaskDataset(ds.features, ds.labels, np.array([f"u{i % 7}" for i in range(2500)]))
    path = tmp_path / "blocks.csv"
    write_csv(ds, path)
    back = load_csv(path, n_tasks=2, has_group_column=True)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.group_ids, ds.group_ids)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1029] = lines[1029][: lines[1029].rindex(",")] + ",2"  # line 1 is the header
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CsvParseError) as exc:
        load_csv(path, n_tasks=2, has_group_column=True)
    assert str(exc.value) == f"{path}:1030: label must be 0 or 1, got '2' in column 11"


def test_load_csv_literal_values(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("f0,f1,label0,label1\n0.5,-1.25,1,0\n2.0,3.5,0,1\n", encoding="utf-8")
    ds = load_csv(path, n_tasks=2)
    assert ds.n_rows == 2 and ds.n_features == 2
    assert np.array_equal(ds.features, np.array([[0.5, -1.25], [2.0, 3.5]]))
    assert np.array_equal(ds.labels, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert ds.group_ids is None


def test_load_csv_group_column(tmp_path):
    path = tmp_path / "grouped.csv"
    path.write_text("group_id,f0,label0\nu1,0.5,1\nu2,1.5,0\n", encoding="utf-8")
    ds = load_csv(path, n_tasks=1, has_group_column=True)
    assert ds.group_ids.tolist() == ["u1", "u2"]
    assert ds.n_features == 1


def test_load_csv_bad_label_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label0\n1.0,0\n1.5,2\n", encoding="utf-8")
    with pytest.raises(CsvParseError, match=":3:"):
        load_csv(path, n_tasks=1)


def test_load_csv_non_numeric_feature_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label0\noops,0\n", encoding="utf-8")
    with pytest.raises(CsvParseError, match=":2:"):
        load_csv(path, n_tasks=1)


def test_load_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("f0,f1,label0\n1.0,2.0,1\n1.0,0\n", encoding="utf-8")
    with pytest.raises(CsvParseError, match=":3:"):
        load_csv(path, n_tasks=1)


@pytest.mark.parametrize(
    "body, has_group, message",
    [
        ("1.0,nan,1\n", False, "2: non-finite feature in column 2"),
        ("u1,-inf,0.5,0\n", True, "2: non-finite feature in column 2"),
        ("1.0,2.0,1\n3.0,Infinity,0\n", False, "3: non-finite feature in column 2"),
        ("u1,1.0,oops,1\n", True, "2: non-numeric feature 'oops' in column 3"),
        # The first faulty line wins, whatever its fault.
        ("1.0,2.0,7\n1.0\n", False, "2: label must be 0 or 1, got '7' in column 3"),
        ("1.0,2.0,1\nnan,2.0,1\nx,2.0,1\n", False, "3: non-finite feature in column 1"),
        # Within a line: a short row, then features in column order, then labels.
        ("nan,2\n", False, "2: expected 3 fields, got 2"),
        ("1.0,nan,2\n", False, "2: non-finite feature in column 2"),
        ("inf,oops,1\n", False, "2: non-finite feature in column 1"),
        ("oops,inf,1\n", False, "2: non-numeric feature 'oops' in column 1"),
        ("1.0,2.0,yes\n", False, "2: label must be 0 or 1, got 'yes' in column 3"),
        ("1.0,2.0, 1\n", False, "2: label must be 0 or 1, got ' 1' in column 3"),
        # A field over csv.field_size_limit() (131,072 characters).
        pytest.param(
            f"u1,1.0,2.0,1\n{'u' * 140_000},1.0,2.0,1\n",
            True,
            "3: field larger than field limit (131072)",
            id="field-over-the-csv-limit",
        ),
    ],
)
def test_load_csv_error_names_first_fault(tmp_path, body, has_group, message):
    path = tmp_path / "bad.csv"
    header = "group_id,f0,f1,label0" if has_group else "f0,f1,label0"
    path.write_text(f"{header}\n{body}", encoding="utf-8")
    with pytest.raises(CsvParseError) as exc:
        load_csv(path, n_tasks=1, has_group_column=has_group)
    assert str(exc.value) == f"{path}:{message}"


def test_csv_round_trip_bitwise(tmp_path):
    ds = generate_synthetic(synth_cfg(n_samples=50))
    path = tmp_path / "round.csv"
    write_csv(ds, path)
    back = load_csv(path, n_tasks=2)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    # a second write of the reloaded data reproduces the file byte for byte
    path2 = tmp_path / "round2.csv"
    write_csv(back, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_load_csv_names_a_fault_before_a_later_byte_that_is_not_utf8(tmp_path):
    # The bad byte lies in a later read chunk of the same 1,024-line block:
    # the line read before it is still the one named, as row by row.
    lines = ["f0,f1,label0"] + [f"{i}.5,2.0,1" for i in range(1500)]
    lines[3] = "1.5,2.0,7"
    data = ("\n".join(lines) + "\n").encode()
    cut = len("\n".join(lines[:900]).encode())
    path = tmp_path / "bad.csv"
    path.write_bytes(data[:cut] + b"\xff" + data[cut:])
    with pytest.raises(CsvParseError) as exc:
        load_csv(path, n_tasks=1)
    assert str(exc.value) == f"{path}:4: label must be 0 or 1, got '7' in column 3"
    lines[3] = "1.5,2.0,1"
    path.write_bytes(("\n".join(lines) + "\n").encode()[:cut] + b"\xff")
    with pytest.raises(CsvParseError, match="not UTF-8 text"):
        load_csv(path, n_tasks=1)


def test_plain_blocks_take_one_loadtxt_call_each_and_no_row_walk(tmp_path):
    ds = generate_synthetic(synth_cfg(n_samples=2500))
    ds = MultiTaskDataset(ds.features, ds.labels, np.array([f"u{i % 7}" for i in range(2500)]))
    path = tmp_path / "plain.csv"
    write_csv(ds, path)
    loadtxt, reader = np.loadtxt, tasks_data.csv.reader
    calls, rows = [], []

    def counting_loadtxt(lines, **kwargs):
        calls.append(len(lines))
        return loadtxt(lines, **kwargs)

    def counting_reader(lines):
        for row in reader(lines):
            rows.append(row)
            yield row

    with mock.patch.object(np, "loadtxt", counting_loadtxt), mock.patch.object(
        tasks_data.csv, "reader", counting_reader
    ):
        load_csv(path, n_tasks=2, has_group_column=True)
    assert calls == [1024, 1024, 452]
    assert len(rows) == 1  # the header; the row walk read nothing


# Mutations of one row: text put in the last feature cell, the last label
# cell or the first cell (the group id, if any), or a change of the line.
_FEATURE_TEXTS = (
    '"1,5"', '"1.5\n"', "1_5", "\u00a01.5", "\u0661", "1.5\x1c", "\x00", "\t2", " 2 ",
    "nan", "inf", "-Infinity", "1e400", "-0.0", "5e-324", "2.5e-310", "", "0x10", "9" * 140_000,
)
_LABEL_TEXTS = (" 1", "1.0", "01", "1 ", "", '"1"', "2")
_FIRST_TEXTS = ('"u,1"', '"u\n1"', '"u""1"', "\u00e9", " u ", "", "u" * 140_000)
_LINE_MUTATIONS = ("blank", "spaces", "drop_field", "extra_field", "trailing_cr")
_MUTATIONS = (
    [("feature", t) for t in _FEATURE_TEXTS]
    + [("label", t) for t in _LABEL_TEXTS]
    + [("first", t) for t in _FIRST_TEXTS]
    + [("line", m) for m in _LINE_MUTATIONS]
)


def _csv_text(n_rows, n_feat, n_tasks, grouped, seed, mutations, end="\n", final_end=True):
    """A CSV of random rows with each ``((kind, text), row)`` mutation applied."""
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n_rows, n_feat)) * 10.0 ** rng.integers(-310, 300, (n_rows, n_feat))
    rows = [
        ([f"u{rng.integers(50)}"] if grouped else [])
        + [repr(float(v)) for v in feats[r]]
        + [str(v) for v in rng.integers(0, 2, n_tasks)]
        for r in range(n_rows)
    ]
    lines = [",".join(row) for row in rows]
    for (kind, text), r in mutations:
        cells = rows[r]
        if kind == "line":
            lines[r] = {
                "blank": "",
                "spaces": "   ",
                "drop_field": ",".join(cells[:-1]),
                "extra_field": ",".join(cells + ["0"]),
                "trailing_cr": ",".join(cells) + "\r",
            }[text]
            continue
        cells[{"feature": int(grouped) + n_feat - 1, "label": -1, "first": 0}[kind]] = text
        lines[r] = ",".join(cells)
    header = (["group_id"] if grouped else []) + [f"f{j}" for j in range(n_feat)]
    header += [f"label{t}" for t in range(n_tasks)]
    return end.join([",".join(header)] + lines) + (end if final_end else "")


def _outcome(path, n_tasks, grouped):
    try:
        ds = load_csv(path, n_tasks, grouped)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    groups = None if ds.group_ids is None else (ds.group_ids.dtype, ds.group_ids.tolist())
    return ds.features.shape, ds.features.tobytes(), ds.labels.tobytes(), groups


def _assert_read_as_the_row_walk_reads(path, text, n_tasks, grouped):
    """The same arrays bit for bit, or the same error and message, as with
    every block refused, so that the row walk alone reads the file."""
    path.write_bytes(text.encode("utf-8"))
    fast = _outcome(path, n_tasks, grouped)
    with mock.patch.object(tasks_data, "_plain_block", lambda lines, dtype: None):
        walked = _outcome(path, n_tasks, grouped)
    assert fast == walked


@pytest.mark.parametrize(
    "mutation", _MUTATIONS, ids=[f"{kind}-{ascii(text[:8])}" for kind, text in _MUTATIONS]
)
def test_load_csv_reads_each_mutation_as_the_row_walk(tmp_path, mutation):
    # Row 1,025 is the only line of the second block (a blank one included),
    # after a first block that is plain.
    text = _csv_text(1025, 2, 2, True, seed=0, mutations=[(mutation, 1024)])
    _assert_read_as_the_row_walk_reads(tmp_path / "data.csv", text, 2, True)


@st.composite
def csv_cases(draw):
    n_rows = draw(st.sampled_from([1, 1023, 1024, 1025, 2049]))
    mutations = draw(
        st.lists(st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, n_rows - 1)), max_size=3)
    )
    n_tasks, grouped = draw(st.integers(1, 2)), draw(st.booleans())
    text = _csv_text(
        n_rows,
        draw(st.integers(1, 3)),
        n_tasks,
        grouped,
        draw(st.integers(0, 2**32 - 1)),
        mutations,
        end=draw(st.sampled_from(["\n", "\r\n", "\r"])),
        final_end=draw(st.booleans()),
    )
    return text, n_tasks, grouped


@settings(max_examples=60, deadline=None)
@given(case=csv_cases())
def test_load_csv_matches_the_row_walk(tmp_path_factory, case):
    _assert_read_as_the_row_walk_reads(tmp_path_factory.mktemp("walk") / "data.csv", *case)


def test_split_exact_division():
    ds = generate_synthetic(synth_cfg(n_samples=600))
    parts = split(ds, (4, 1, 1))
    assert (parts.train.n_rows, parts.val.n_rows, parts.test.n_rows) == (400, 100, 100)


def test_split_remainder_goes_to_test():
    ds = generate_synthetic(synth_cfg(n_samples=601))
    parts = split(ds, (4, 1, 1))
    assert (parts.train.n_rows, parts.val.n_rows, parts.test.n_rows) == (400, 100, 101)


def test_split_is_contiguous_partition():
    ds = generate_synthetic(synth_cfg(n_samples=500))
    parts = split(ds, (4, 1, 1))
    stitched = np.vstack([parts.train.features, parts.val.features, parts.test.features])
    assert np.array_equal(stitched, ds.features)
    stitched_labels = np.vstack([parts.train.labels, parts.val.labels, parts.test.labels])
    assert np.array_equal(stitched_labels, ds.labels)


def test_split_parts_are_views_of_the_dataset():
    ds = generate_synthetic(synth_cfg(n_samples=300))
    ds = MultiTaskDataset(ds.features, ds.labels, np.arange(ds.n_rows) % 7)
    parts = split(ds, (4, 1, 1))
    for part in (parts.train, parts.val, parts.test):
        assert np.shares_memory(part.features, ds.features)
        assert np.shares_memory(part.labels, ds.labels)
        assert np.shares_memory(part.group_ids, ds.group_ids)
    assert np.array_equal(parts.test.group_ids, ds.group_ids[250:])


def test_split_rejects_empty_part():
    ds = generate_synthetic(synth_cfg(n_samples=50))
    with pytest.raises(ConfigError):
        split(ds, (100, 1, 1))


def test_batches_sizes_and_order():
    got = batches(10, batch_size=4)
    assert [rows.size for rows in got] == [4, 4, 2]
    assert np.array_equal(np.concatenate(got), np.arange(10))


def test_batches_shuffled_epoch_is_permutation():
    for seed in range(5):
        got = batches(37, batch_size=8, shuffle_seed=seed)
        assert [rows.size for rows in got] == [8, 8, 8, 8, 5]
        # every row index appears exactly once
        assert np.array_equal(np.sort(np.concatenate(got)), np.arange(37))


def test_batches_same_seed_same_order():
    a = batches(20, 6, shuffle_seed=3)
    b = batches(20, 6, shuffle_seed=3)
    assert len(a) == len(b) == 4
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_select_tasks_subsets_labels():
    ds = generate_synthetic(synth_cfg())
    sub = select_tasks(ds, [1])
    assert sub.n_tasks == 1
    assert np.array_equal(sub.labels[:, 0], ds.labels[:, 1])
    assert sub.features is ds.features
