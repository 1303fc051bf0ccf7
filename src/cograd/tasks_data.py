"""Synthetic correlated-task datasets and CSV ingestion with time-ordered splits.

Row order is the time order: splits are contiguous slices, never shuffled.
The synthetic generator exposes one knob for task relatedness (the angle
between the tasks' weight vectors) and one for label sparsity (per-task
positive rates, each hit by labelling the count of rows nearest it, those
with the lowest label thresholds). The CSV reader converts each 1,024-line
block of plain text with one ``np.loadtxt`` call and walks rows in Python
only for quoted or non-ASCII text and to name a fault; both read the same
arrays.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .errors import ConfigError, CsvParseError, DataError
from .model import _BLOCK_ROWS, _row_blocks


@dataclass
class MultiTaskDataset:
    """Feature matrix plus one binary label column per task.

    ``group_ids`` (optional, e.g. user ids) enable grouped ranking metrics.
    """

    features: np.ndarray  # (n, d) float64, finite
    labels: np.ndarray  # (n, T) in {0, 1}
    group_ids: np.ndarray | None = None  # (n,) identifiers

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.features.ndim != 2 or self.labels.ndim != 2:
            raise DataError("features and labels must be 2-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} label rows"
            )
        if not all(np.isfinite(self.features[rows]).all() for rows in _row_blocks(self.n_rows)):
            raise DataError("features contain non-finite values")
        if not np.all(np.isin(self.labels, (0.0, 1.0))):
            raise DataError("labels must be binary 0/1")
        if self.group_ids is not None:
            self.group_ids = np.asarray(self.group_ids)
            if self.group_ids.shape != (self.features.shape[0],):
                raise DataError("group_ids must be one identifier per row")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_tasks(self) -> int:
        return self.labels.shape[1]

    def take(self, rows: slice) -> "MultiTaskDataset":
        """The rows in ``rows``, as views of this dataset's rows, not checked again."""
        part = object.__new__(MultiTaskDataset)
        part.features, part.labels = self.features[rows], self.labels[rows]
        part.group_ids = self.group_ids[rows] if self.group_ids is not None else None
        return part


@dataclass(frozen=True)
class SyntheticTaskConfig:
    """Controls for the correlated-task generator.

    ``task_angle_deg`` is the angle between task weight vectors, in [0, 180]:
    0 makes the tasks share a decision direction, 90 makes them orthogonal,
    and past 90 the tasks load on e0 with opposite signs, so they conflict.
    """

    n_samples: int
    n_features: int
    task_angle_deg: float
    positive_rates: tuple[float, ...]
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "positive_rates", tuple(float(r) for r in self.positive_rates))
        if self.n_samples <= 0:
            raise ConfigError("n_samples must be positive")
        if not self.positive_rates:
            raise ConfigError("positive_rates must name at least one task")
        if self.n_features < max(2, len(self.positive_rates)):
            raise ConfigError(
                "n_features must be at least max(2, number of tasks) "
                "to host the rotated weight vectors"
            )
        if not 0.0 <= self.task_angle_deg <= 180.0:
            raise ConfigError("task_angle_deg must lie in [0, 180]")
        if any(not 0.0 < r < 1.0 for r in self.positive_rates):
            raise ConfigError("positive_rates must lie strictly in (0, 1)")
        if not 0.0 <= self.label_noise < 0.5:
            raise ConfigError("label_noise must lie in [0, 0.5)")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def _task_weights(cfg: SyntheticTaskConfig) -> np.ndarray:
    """Unit weight vectors, one row per task.

    Task 0 points along axis 0; task t > 0 is rotated away from it by the
    configured angle, using axis t as the perpendicular direction so that
    distinct tasks get distinct rotations.
    """
    rho = np.deg2rad(cfg.task_angle_deg)
    weights = np.zeros((len(cfg.positive_rates), cfg.n_features))
    weights[0, 0] = 1.0
    for t in range(1, len(cfg.positive_rates)):
        weights[t, 0] = np.cos(rho)
        weights[t, t] = np.sin(rho)
    return weights


def generate_synthetic(cfg: SyntheticTaskConfig) -> MultiTaskDataset:
    """Draw standard-normal features and correlated Bernoulli task labels.

    Labels follow Bernoulli(sigmoid(3 * w_t . x + b_t)), drawn by one shared
    latent uniform u per row: row i is a positive of task t exactly when b_t
    is above its threshold logit(u_i) - 3 * w_t . x_i. So no b_t is solved
    for: task t's positives are the k_t rows with the lowest thresholds,
    where k_t / n is the rate nearest the configured one (the lower count on
    a tie), and tasks with identical parameters get identical label columns.
    Label noise then flips each row with the configured probability (same
    rows in every task).
    """
    rng = np.random.default_rng(cfg.seed)
    features = rng.standard_normal((cfg.n_samples, cfg.n_features))
    label_latent = rng.uniform(size=cfg.n_samples)
    noise_latent = rng.uniform(size=cfg.n_samples)

    n, rates = cfg.n_samples, np.array(cfg.positive_rates)
    # The nearest count is next to floor(n * rate) however that product
    # rounds; argmin takes the first, so the lower, of two equal misses.
    counts = np.clip(np.floor(n * rates)[:, None] + np.arange(-1, 2), 0, n)
    misses = np.abs(counts / n - rates[:, None])
    k = counts[np.arange(len(rates)), misses.argmin(axis=1)]
    for t, rate in enumerate(cfg.positive_rates):
        realized = k[t] / n
        if abs(realized - rate) > 0.02:
            raise DataError(
                f"task {t}: realized positive rate {realized:.4f} misses target "
                f"{rate:.4f} by more than 0.02; increase n_samples"
            )

    with np.errstate(divide="ignore"):  # a latent of 0 lies below any sigmoid
        logit = np.log(label_latent) - np.log1p(-label_latent)
    thresholds = logit[:, None] - 3.0 * (features @ _task_weights(cfg).T)
    labels = (thresholds.argsort(axis=0).argsort(axis=0) < k).astype(np.float64)

    if cfg.label_noise > 0.0:
        flip = noise_latent < cfg.label_noise
        labels[flip] = 1.0 - labels[flip]
    return MultiTaskDataset(features, labels)


_LABELS = {"0": 0.0, "1": 1.0}  # the only label spellings a CSV may use
# Printable ASCII but the quote, and the line ends: all a plain block holds.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\r\n"


def _raise_feature_fault(
    path: Path, lineno: int, row: list[str], first: int, last: int
) -> NoReturn:
    """Raise for the first non-numeric or non-finite feature of ``row``."""
    for c in range(first, last):
        try:
            value = float(row[c])
        except ValueError:
            raise CsvParseError(
                f"{path}:{lineno}: non-numeric feature {row[c]!r} in column {c + 1}"
            ) from None
        if not math.isfinite(value):
            raise CsvParseError(f"{path}:{lineno}: non-finite feature in column {c + 1}")


def _plain_block(
    lines: list[str], dtype: np.dtype
) -> tuple[list[str], np.ndarray, np.ndarray] | None:
    """Group ids, features and labels of ``lines``, read by one ``np.loadtxt`` call.

    Only a plain block is read: no quote, no character but printable ASCII
    and line ends, no line shorter than 3 characters (a blank line is, a
    valid record is not) and none longer than the csv field limit. There
    ``loadtxt`` splits fields as ``csv.reader`` does and parses floats as
    ``float`` does, bar spellings ``float`` alone accepts (``1_5``), which
    raise. The records are kept only if there is one per line, every feature
    is finite and every label is exactly "0" or "1"; otherwise None, and the
    row walk reads the block.
    """
    text = "".join(lines)
    if (
        not text.isascii()
        or text.encode("ascii").translate(None, _PLAIN_BYTES)
        or min(map(len, lines)) < 3
        or max(map(len, lines)) > csv.field_size_limit()
    ):
        return None
    try:
        records = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, dtype=dtype)
    except ValueError:
        return None
    labels, ones = records["y"], records["y"] == "1"
    if (
        len(records) != len(lines)
        or not np.isfinite(records["x"]).all()
        or not (ones | (labels == "0")).all()
    ):
        return None
    groups = records["g"].tolist() if "g" in dtype.names else []
    return groups, records["x"].copy(), ones.astype(np.float64)


def _raising(exc: Exception) -> Iterator[str]:
    """An iterator that raises ``exc`` when read."""
    raise exc
    yield  # unreachable; makes this a generator


def load_csv(path: str | Path, n_tasks: int, has_group_column: bool = False) -> MultiTaskDataset:
    """Parse a header-first CSV laid out as: group id?, features..., labels...

    The label columns are the last ``n_tasks`` columns and must be literal
    0/1. Errors name the offending line (header is line 1; a record whose
    quoted field spans lines counts as one). The file is read 1,024 lines
    at a time, so no more than one block is ever held as text: each plain
    block (see ``_plain_block``) is converted by one ``np.loadtxt`` call,
    and from the first block that is not, ``csv.reader`` walks the rest row
    by row, which reads quoted and non-ASCII text and names the first fault.
    Both give the same arrays, bit for bit.
    """
    if n_tasks < 1:
        raise ConfigError("n_tasks must be at least 1")
    path = Path(path)
    try:
        fh = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise CsvParseError(f"{path}: {exc.strerror}") from exc
    lineno = 0  # the last record read in full
    try:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise CsvParseError(f"{path}: empty file, expected a header row") from None
        lineno = 1
        n_cols = len(header)
        n_feat = n_cols - n_tasks - (1 if has_group_column else 0)
        if n_feat < 1:
            raise CsvParseError(
                f"{path}: {n_cols} columns cannot hold {n_tasks} labels"
                f"{' plus a group column' if has_group_column else ''} and any feature"
            )
        first = 1 if has_group_column else 0
        last = first + n_feat  # one past the last feature column
        dtype = np.dtype(
            ([("g", object)] if has_group_column else [])
            + [("x", np.float64, (n_feat,)), ("y", object, (n_tasks,))]
        )
        groups: list[str] = []
        feat_blocks: list[np.ndarray] = []
        label_blocks: list[np.ndarray] = []
        lines: list[str] = []
        rest: Iterable[str] = fh  # what the row walk reads after ``lines``
        while True:
            try:
                for line in fh:
                    lines.append(line)
                    if len(lines) == _BLOCK_ROWS:
                        break
            except UnicodeDecodeError as exc:
                rest = _raising(exc)  # raised once the walk has read ``lines``
                break
            block = _plain_block(lines, dtype) if lines else None
            if block is None:
                break
            block_groups, block_feats, block_labels = block
            groups += block_groups
            feat_blocks.append(block_feats)
            label_blocks.append(block_labels)
            lineno += len(lines)
            full, lines = len(lines) == _BLOCK_ROWS, []
            if not full:
                break
        feat_rows: list[list[float]] = []
        label_rows: list[list[float]] = []
        for lineno, row in enumerate(csv.reader(itertools.chain(lines, rest)), start=lineno + 1):
            if len(row) != n_cols:
                raise CsvParseError(f"{path}:{lineno}: expected {n_cols} fields, got {len(row)}")
            if has_group_column:
                groups.append(row[0])
            # Whole-row conversions first; only a faulty row is walked value
            # by value, so its first fault in column order is the one named.
            try:
                feats = list(map(float, row[first:last]))
                finite = all(map(math.isfinite, feats))
            except ValueError:
                finite = False
            if not finite:
                _raise_feature_fault(path, lineno, row, first, last)
            try:
                labs = [_LABELS[v] for v in row[last:]]
            except KeyError:
                c = next(c for c in range(last, n_cols) if row[c] not in _LABELS)
                raise CsvParseError(
                    f"{path}:{lineno}: label must be 0 or 1, got {row[c]!r} in column {c + 1}"
                ) from None
            feat_rows.append(feats)
            label_rows.append(labs)
            if len(feat_rows) == _BLOCK_ROWS:
                feat_blocks.append(np.array(feat_rows))
                label_blocks.append(np.array(label_rows))
                feat_rows, label_rows = [], []
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise CsvParseError(f"{path}:{lineno + 1}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
    finally:
        fh.close()
    if feat_rows:
        feat_blocks.append(np.array(feat_rows))
        label_blocks.append(np.array(label_rows))
    if not feat_blocks:
        raise CsvParseError(f"{path}: no data rows")
    return MultiTaskDataset(
        np.concatenate(feat_blocks),
        np.concatenate(label_blocks),
        np.array(groups) if has_group_column else None,
    )


def write_table(path: str | Path, header: list[str], rows: Iterable[Sequence]) -> None:
    """Write a header-first CSV with newline (not CRLF) line ends.

    A float cell (``np.float64`` included) is written as ``repr(float(v))``,
    so a rerun reproduces the file byte for byte; any other cell as itself.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


def write_csv(ds: MultiTaskDataset, path: str | Path) -> None:
    """Inverse of ``load_csv``: group id?, f0..f{d-1}, label0..label{T-1}.

    Floats use repr formatting, so a write/load round trip is bitwise exact.
    """
    header = [f"f{j}" for j in range(ds.n_features)] + [f"label{t}" for t in range(ds.n_tasks)]
    rows = [list(f) + [int(v) for v in lab] for f, lab in zip(ds.features, ds.labels)]
    if ds.group_ids is not None:
        header = ["group_id"] + header
        rows = [[str(g)] + row for g, row in zip(ds.group_ids, rows)]
    write_table(path, header, rows)


@dataclass(frozen=True)
class DatasetSplits:
    train: MultiTaskDataset
    val: MultiTaskDataset
    test: MultiTaskDataset


def split(ds: MultiTaskDataset, proportions: tuple[float, float, float]) -> DatasetSplits:
    """Contiguous train/val/test split in row (time) order.

    Train and val sizes are floors of their shares; the remainder goes to
    test. Exact rational arithmetic keeps e.g. 600 at 4:1:1 from landing on
    399 through float rounding. The parts are views of ``ds``'s rows, so a
    split copies nothing.
    """
    if len(proportions) != 3:
        raise ConfigError("proportions must be [train, val, test]")
    if any(p <= 0 for p in proportions):
        raise ConfigError("split proportions must be positive")
    total = sum(Fraction(float(p)) for p in proportions)
    n = ds.n_rows
    n_train = int(n * Fraction(float(proportions[0])) / total)
    n_val = int(n * Fraction(float(proportions[1])) / total)
    n_test = n - n_train - n_val
    if n_train == 0 or n_val == 0 or n_test == 0:
        raise ConfigError(f"split of {n} rows at {tuple(proportions)} leaves an empty part")
    return DatasetSplits(
        ds.take(slice(0, n_train)),
        ds.take(slice(n_train, n_train + n_val)),
        ds.take(slice(n_train + n_val, n)),
    )


def batches(n_rows: int, batch_size: int, shuffle_seed: int | None = None) -> list[np.ndarray]:
    """One epoch of row-index batches over ``n_rows`` rows; every row appears once.

    With a shuffle seed the epoch uses one fixed seeded permutation; without
    it, row order. Each batch is a slice of that order, and the final short
    batch is kept. Callers index their already-validated arrays with them.
    """
    if batch_size < 1:
        raise ConfigError("batch_size must be at least 1")
    if shuffle_seed is None:
        order = np.arange(n_rows)
    else:
        order = np.random.default_rng(shuffle_seed).permutation(n_rows)
    return [order[lo : lo + batch_size] for lo in range(0, n_rows, batch_size)]


def select_tasks(ds: MultiTaskDataset, task_ids: list[int]) -> MultiTaskDataset:
    """Dataset with only the named label columns (features untouched)."""
    for t in task_ids:
        if not 0 <= t < ds.n_tasks:
            raise ConfigError(f"task id {t} out of range for {ds.n_tasks} tasks")
    return MultiTaskDataset(ds.features, ds.labels[:, task_ids], ds.group_ids)
