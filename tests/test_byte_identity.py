"""Every output file of a small study keeps its bytes.

``cograd train`` and ``cograd validate-approx`` on ``byte_identity.json``
(beside this file), and ``cograd probe --group-column`` on a grouped CSV cut
from that config's data, write into a temporary directory. Each file's
SHA-256 must equal the one stored in ``byte_identity_hashes.json``.
``summary.json`` is hashed without ``wall_time_s`` and ``config.output_dir``,
which differ from run to run.

A change that moves an artifact on purpose rewrites the hash file with

    PYTHONPATH=src python tests/test_byte_identity.py

which first lists each file whose hash changed, appeared or disappeared,
and says which files moved and why. The hash file records the numpy version
and BLAS build it was made with, and a mismatch names both builds, since
another BLAS can round a product differently.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from cograd import MultiTaskDataset, build_dataset, load_config, write_csv
from cograd.cli import main

HERE = Path(__file__).resolve().parent
CONFIG = HERE / "byte_identity.json"
HASHES = HERE / "byte_identity_hashes.json"
PROBE_ROWS, PROBE_GROUPS = 600, 7


def build() -> dict[str, str]:
    """The numpy version and BLAS build that the hashes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    parts = (blas.get(key) for key in ("name", "version", "openblas configuration"))
    return {"numpy": np.__version__, "blas": " ".join(str(p) for p in parts if p)}


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        summary = json.loads(data)
        del summary["wall_time_s"], summary["config"]["output_dir"]
        data = json.dumps(summary, indent=2, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def artifacts(out: Path) -> dict[str, str]:
    """Run the three commands into ``out``; returns each file's hash by relative path."""
    grouped = out / "grouped.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", str(CONFIG), "--output-dir", str(out / "train")]) == 0
        assert main(["validate-approx", str(CONFIG), "--output-dir", str(out / "validate")]) == 0
        ds = build_dataset(load_config(CONFIG).data, 0)
        rows = slice(0, PROBE_ROWS)
        groups = np.arange(PROBE_ROWS) % PROBE_GROUPS
        write_csv(MultiTaskDataset(ds.features[rows], ds.labels[rows], groups), grouped)
        checkpoint = out / "train" / "sum" / "0" / "checkpoint.json"
        probe = ["probe", str(checkpoint), str(grouped), "--group-column"]
        assert main(probe + ["--output-dir", str(out / "probe")]) == 0
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return {p.relative_to(out).as_posix(): digest(p) for p in files}


def moved(stored: dict[str, str], got: dict[str, str]) -> list[str]:
    """The files whose hash changed, appeared or disappeared, by relative path."""
    names = sorted(stored.keys() | got.keys())
    return [name for name in names if stored.get(name) != got.get(name)]


def test_every_artifact_keeps_its_bytes(tmp_path):
    stored = json.loads(HASHES.read_text(encoding="utf-8"))
    got = artifacts(tmp_path)
    differ = moved(stored["files"], got)
    assert not differ, (
        f"{len(differ)} of {len(stored['files'].keys() | got.keys())} artifacts differ "
        f"from {HASHES.name}: {differ}. "
        f"Stored with numpy {stored['numpy']}, BLAS {stored['blas']}; "
        f"this run has numpy {build()['numpy']}, BLAS {build()['blas']}."
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {**build(), "files": artifacts(Path(tmp))}
    stored = json.loads(HASHES.read_text(encoding="utf-8"))["files"] if HASHES.exists() else {}
    for name in moved(stored, record["files"]):
        how = "new" if name not in stored else "gone" if name not in record["files"] else "changed"
        print(f"{how}: {name}", file=sys.stderr)
    HASHES.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record['files'])} hashes to {HASHES}", file=sys.stderr)
