"""How faithful is the squared-gradient curvature surrogate?

The coordination strategy replaces the Hessian-vector product H_j v with
the cheap elementwise surrogate g_j * g_j * v. This script trains a small
net for a few hundred steps, and at five checkpoints compares the
surrogate against the exact HVP (``task_hvp``'s R-op) for both ordered
task pairs: cosine similarity (direction) and norm ratio (scale).

The surrogate is exact only in a constructed special case; on real
training trajectories expect cosines well below 1. The point of the
report is to make that approximation error visible instead of hiding it.
"""

from pathlib import Path

from cograd import load_config, run_validate_approx

CONFIG = {
    "data": {
        "synthetic": {
            "n_samples": 8000,
            "n_features": 8,
            "task_angle_deg": 45.0,
            "positive_rates": [0.5, 0.1],
            "seed": 11,
        },
    },
    "model": {"shared_widths": [16, 8], "head_widths": [4], "seed": 100},
    "train": {
        "steps": 400,
        "batch_size": 128,
        "learning_rate": 0.01,
        "loss_weights": [1.0, 1.0],
    },
    "strategies": [{"kind": "cograd", "gammas": [0.1, 0.1]}],
    "seeds": [0],
    "output_dir": str(Path(__file__).parent / "out" / "surrogate_quality"),
}


def main():
    import json
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(CONFIG, fh)
        path = fh.name
    report = run_validate_approx(load_config(path))
    print(f"report written to {report}\n")

    lines = Path(report).read_text().strip().splitlines()
    header = lines[0].split(",")
    cols = {name: header.index(name) for name in header}
    print(f"{'step':>5} {'pair':>6} {'cosine':>8} {'norm ratio':>11} {'gap ratio':>10}")
    for line in lines[1:]:
        cells = line.split(",")
        pair = f"{cells[cols['source_task']]}->{cells[cols['target_task']]}"
        print(
            f"{cells[cols['step']]:>5} {pair:>6} "
            f"{float(cells[cols['hvp_cosine']]):>8.4f} "
            f"{float(cells[cols['hvp_norm_ratio']]):>11.4f} "
            f"{float(cells[cols['gap_ratio']]):>10.2f}"
        )
    print(
        "\ngap ratio ~4 means the first-order transference estimate behaves "
        "like a second-order remainder, as it should."
    )


if __name__ == "__main__":
    main()
