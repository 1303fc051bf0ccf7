"""Output checks computed apart from the program.

The forward pass, the rank AUC and the group AUC here are the benchmark's
own; they read checkpoints and artifacts from disk and never call into the
program's model or metrics code.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy.special import expit


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def split_bounds(n: int, proportions: tuple[int, int, int]) -> tuple[int, int]:
    """Train and val ends of the program's contiguous split at integer proportions."""
    total = sum(proportions)
    n_train = n * proportions[0] // total
    return n_train, n_train + n * proportions[1] // total


def checkpoint_logits(ckpt: dict, x: np.ndarray) -> np.ndarray:
    def layer_out(layer: dict, a: np.ndarray) -> np.ndarray:
        z = a @ np.array(layer["weights"], dtype=np.float64) + np.array(layer["bias"])
        return np.maximum(z, 0.0) if layer["activation"] == "relu" else z

    a = x
    for layer in ckpt["shared"]:
        a = layer_out(layer, a)
    columns = []
    for head in ckpt["heads"]:
        h = a
        for layer in head:
            h = layer_out(layer, h)
        columns.append(h[:, 0])
    return np.stack(columns, axis=1)


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC from average ranks; ties count half."""
    n = scores.size
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    pos = labels == 1.0
    n_pos = int(pos.sum())
    n_neg = n - n_pos
    require(n_pos > 0 and n_neg > 0, "AUC needs both classes")
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def group_auc(scores: np.ndarray, labels: np.ndarray, groups: np.ndarray) -> float:
    """Row-count-weighted mean AUC over groups that hold both classes."""
    total = 0.0
    rows = 0
    for g in np.unique(groups):
        mask = groups == g
        y = labels[mask]
        if y.min() != y.max():
            total += mask.sum() * rank_auc(scores[mask], y)
            rows += int(mask.sum())
    require(rows > 0, "no group holds both classes")
    return total / rows


def read_csv_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_cell(
    cell_dir: Path,
    test_x: np.ndarray,
    test_y: np.ndarray,
    test_groups: np.ndarray | None,
) -> dict:
    """Re-evaluate one cell's checkpoint and check its run properties.

    Returns the cell's summary.json.
    """
    summary = json.loads((cell_dir / "summary.json").read_text(encoding="utf-8"))
    ckpt = json.loads((cell_dir / "checkpoint.json").read_text(encoding="utf-8"))
    scores = expit(checkpoint_logits(ckpt, test_x))
    for t in range(test_y.shape[1]):
        if test_groups is None:
            mine = rank_auc(scores[:, t], test_y[:, t])
        else:
            mine = group_auc(scores[:, t], test_y[:, t], test_groups)
        theirs = summary["final_test"][f"task_{t}"]
        require(
            abs(mine - theirs) <= 1e-9,
            f"{cell_dir}: task {t} test {summary['metric']} {theirs!r} vs re-evaluated {mine!r}",
        )
    sparse = summary["final_test"]["task_1"]
    require(sparse > 0.5, f"{cell_dir}: sparse-task test {summary['metric']} {sparse} <= 0.5")

    steps = read_csv_rows(cell_dir / "metrics_steps.csv")
    loss_cols = [k for k in steps[0] if k.startswith("loss_")]
    totals = np.array([sum(float(r[k]) for k in loss_cols) for r in steps])
    k = max(10, len(totals) // 10)
    early, late = totals[:k].mean(), totals[-k:].mean()
    require(late < early, f"{cell_dir}: late loss {late:.6f} not below early loss {early:.6f}")
    return summary


def check_comparison(study_dir: Path, summaries: list[dict]) -> None:
    """comparison.csv task means equal the mean of the per-seed summaries."""
    rows = read_csv_rows(study_dir / "comparison.csv")
    labels = {s["strategy"] for s in summaries}
    require({r["strategy"] for r in rows} == labels, f"{study_dir}: comparison rows {rows}")
    for row in rows:
        cells = [s for s in summaries if s["strategy"] == row["strategy"]]
        require(int(row["n_seeds"]) == len(cells), f"comparison n_seeds for {row['strategy']}")
        for t in range(len(cells[0]["final_test"])):
            mean = float(np.mean([c["final_test"][f"task_{t}"] for c in cells]))
            got = float(row[f"task{t}_mean"])
            require(
                abs(got - mean) <= 5.1e-7,
                f"comparison {row['strategy']} task{t}_mean {got} vs {mean}",
            )


def check_cograd_formula(out: list, grads: list[np.ndarray], gammas, lam: float) -> None:
    """The program's cograd output must equal g_i - lam * g_i * g_i * sum_{j != i} gamma_j g_j."""
    scale = max(float(np.max(np.abs(g))) for g in grads)
    for i, g in enumerate(grads):
        pull = sum(gammas[j] * grads[j] for j in range(len(grads)) if j != i)
        want = g - lam * g * g * pull
        got = np.asarray(out[i], dtype=np.float64)
        require(
            float(np.max(np.abs(got - want))) <= 1e-12 * scale,
            f"cograd output of task {i} departs from the formula",
        )
        require(float(np.max(np.abs(want - g))) > 0.0, f"cograd correction of task {i} is zero")


def check_linear_in_gamma(grads: list[np.ndarray], out_1: list, out_2: list) -> None:
    """The correction g - out at 2*gamma is twice the correction at gamma."""
    for i, g in enumerate(grads):
        c1 = g - np.asarray(out_1[i], dtype=np.float64)
        c2 = g - np.asarray(out_2[i], dtype=np.float64)
        norm = float(np.linalg.norm(c2))
        require(norm > 0.0, f"exact-HVP correction of task {i} is zero")
        require(
            float(np.linalg.norm(c2 - 2.0 * c1)) <= 1e-9 * norm,
            f"exact-HVP correction of task {i} is not linear in gamma",
        )


def check_probe(probe_dir: Path, ckpt_path: Path) -> None:
    """Histogram counts sum to the trunk width of the probed checkpoint."""
    ckpt = json.loads(ckpt_path.read_text(encoding="utf-8"))
    width = len(ckpt["shared"][-1]["bias"])
    counts = [int(r["count"]) for r in read_csv_rows(probe_dir / "probe_histogram.csv")]
    summary = json.loads((probe_dir / "probe_summary.json").read_text(encoding="utf-8"))
    require(sum(counts) == width, f"probe histogram sums to {sum(counts)}, trunk width {width}")
    require(summary["trunk_width"] == width, f"probe summary trunk width {summary['trunk_width']}")
