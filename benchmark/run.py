"""Benchmark of the cograd command line on three workloads.

    python3 benchmark/run.py --workload study --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. One process runs one workload: it pins BLAS
to one thread, writes the workload's inputs from ``--seed``, measures set-up
time in fresh child processes taken between rounds, repeats whole rounds of
the workload's operations through ``cograd.cli.main`` until ``--seconds`` have
passed, and checks every round's outputs. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` (the counts of one
round, which every round must repeat) and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` rounds alternate between
untraced and traced, and the metrics are the per-layer figures that
``BENCHMARK.json`` lists, from the traced rounds. See benchmark/README.md.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 7

LAYER_MODULES = (
    "tensor_core", "model", "gradmod", "trainer", "tasks_data", "metrics", "experiments",
)


class _TrainReached(Exception):
    pass


def setup_probe(config: str, out: str) -> int:
    """Child mode: print the clock when ``cograd train`` first calls ``train``."""
    import io
    from contextlib import redirect_stdout

    sys.path.insert(0, str(SRC))
    from cograd import cli, experiments

    def reached(*args, **kwargs):
        raise _TrainReached(time.perf_counter())

    experiments.train = reached
    try:
        with redirect_stdout(io.StringIO()):
            cli.main(["train", config, "--jobs", "1", "--output-dir", out])
    except _TrainReached as hit:
        print(repr(hit.args[0]))
        return 0
    return 1


def measure_setup(config: Path, out: Path) -> float:
    """Seconds from a fresh process's start to its first call into train."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(config), str(out)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1]) - started


class StepClock:
    """Wraps ``experiments.train`` to stamp each step through ``step_callback``.

    It calls ``cograd.trainer.train`` by name at each call, so a traced
    binding installed later is the one that runs.
    """

    def __init__(self) -> None:
        self.step_s: list[float] = []
        self.train_s = 0.0
        self.rows = 0
        self.steps = 0

    def install(self) -> None:
        from cograd import experiments, trainer

        def stamped_train(net, splits, cfg, step_callback=None):
            stamps = [time.perf_counter()]

            def stamp(step, live_net):
                stamps.append(time.perf_counter())
                if step_callback is not None:
                    step_callback(step, live_net)

            result = trainer.train(net, splits, cfg, step_callback=stamp)
            self.train_s += time.perf_counter() - stamps[0]
            self.step_s.extend(b - a for a, b in zip(stamps, stamps[1:]))
            n = splits.train.n_rows
            epochs, rest = divmod(cfg.steps, -(-n // cfg.batch_size))
            self.rows += epochs * n + rest * cfg.batch_size
            self.steps += cfg.steps
            return result

        experiments.train = stamped_train

    def take(self) -> tuple[list[float], float, int, int]:
        got = (self.step_s, self.train_s, self.rows, self.steps)
        self.step_s, self.train_s, self.rows, self.steps = [], 0.0, 0, 0
        return got


def run(args: argparse.Namespace) -> dict:
    sys.path.insert(0, str(SRC))
    import importlib

    from spans import Tracer
    from test_spans import check_self_time, check_wrapped_nesting
    from workloads import WORKLOADS

    import cograd
    from cograd.model import SharedBottomNet

    run_dir = BENCH_DIR / "_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, run_dir / "inputs")
        # Set-up probes are spread between rounds, so the machine's drift over
        # the run reaches them as it reaches the rounds. Traced runs take none.
        setup: list[float] = []
        probes_left = 0 if args.trace else SETUP_PROBES

        def probe_setup() -> float:
            started = time.perf_counter()
            setup.append(measure_setup(workload.train_config, run_dir / "setup"))
            return time.perf_counter() - started

        clock = StepClock()
        clock.install()
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            check_self_time()
            check_wrapped_nesting()
            layers = [importlib.import_module(f"cograd.{m}") for m in LAYER_MODULES]
            package = layers + [importlib.import_module("cograd.cli"), cograd]

        round_counts: list[tuple[int, int]] = []
        correct = True
        problems: list[str] = []
        walls = {False: [], True: []}
        step_s: list[float] = []
        round_rates: list[float] = []
        steps_trained = 0
        sparse = None
        trained = False
        out = run_dir / "round"
        deadline = time.perf_counter() + args.seconds
        traced_round = False
        while True:
            if probes_left:
                deadline += probe_setup()
                probes_left -= 1
            if tracer is not None and traced_round:
                tracer.install(layers, package, {"model": [SharedBottomNet]})
            started = time.perf_counter()
            ok = {}
            attempted = failed = 0
            for name, count, op in workload.operations(out):
                ok[name] = op()
                attempted += count
                failed += 0 if ok[name] else count
                op_steps, op_train_s, op_rows, op_n = clock.take()
                steps_trained += op_n if traced_round else 0
                if name == "train":  # step figures cover the training cells only
                    steps, train_s, rows = op_steps, op_train_s, op_rows
            walls[traced_round].append(time.perf_counter() - started)
            if tracer is not None and traced_round:
                tracer.uninstall()
            round_counts.append((attempted, failed))
            step_s += steps
            if train_s > 0:
                round_rates.append(rows / train_s)
            trained = trained or ok["train"]
            try:
                sparse = workload.check_round(out, ok)
            except Exception as exc:  # noqa: BLE001 - a wrong or missing output fails the check
                correct = False
                problems.append(f"{type(exc).__name__}: {exc}")
            shutil.rmtree(out, ignore_errors=True)
            # Start another round only if at least half of it fits in the time left.
            done = time.perf_counter() + walls[traced_round][-1] / 2 >= deadline
            if tracer is not None:
                traced_round = not traced_round
                done = done and len(walls[True]) > 0
            if done:
                break
        for _ in range(probes_left):
            probe_setup()

        if not trained:
            correct = False
            problems.append("no training round succeeded")
        # Every round attempts the same operations, and a fault fails every time,
        # so the report is one round's counts and a round that differs is wrong.
        attempted, failed = round_counts[0]
        if len(set(round_counts)) > 1:
            correct = False
            problems.append(f"rounds disagree on (attempted, failed): {sorted(set(round_counts))}")
        for problem in dict.fromkeys(problems):
            print(f"check failed: {problem}", file=sys.stderr)

        if tracer is None:
            step_ms = [1000.0 * t for t in step_s] or [0.0, 0.0]
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "wall_s": (statistics.median(walls[False]), "s"),
                "train_samples_per_s": (statistics.median(round_rates or [0.0]), "rows/s"),
                "step_ms_p50": (statistics.median(step_ms), "ms"),
                "step_ms_p90": (statistics.quantiles(step_ms, n=10, method="inclusive")[-1], "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "sparse_auc": (sparse if sparse is not None else 0.0, "AUC"),
            }
        else:
            tracer.write(BENCH_DIR / "_runs" / "traces" / f"{args.workload}-seed{args.seed}.csv.gz")
            metrics = layer_metrics(tracer, len(walls[True]), steps_trained, walls)
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def layer_metrics(tracer, traced_rounds: int, steps_trained: int, walls: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json, each summed over one round
    (the mean of the traced rounds)."""
    summary = tracer.summarize()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    metrics = {}
    for spec in declared:
        key = spec["name"]
        layer, figure = key.rsplit(".", 1)
        if key == "tasks_data.batches.used_frac":
            value = steps_trained / tracer.batches_built if tracer.batches_built else 0.0
        elif key == "trace.overhead_pct":
            value = 100.0 * (statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)
        else:
            value = summary.get(layer, {}).get(figure, 0) / traced_rounds
        metrics[key] = (value, spec["unit"])
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("study", "wide", "grouped_csv"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", nargs=2, metavar=("CONFIG", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(*args.setup_probe)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "cograd" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/cograd; run from a checkout", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
