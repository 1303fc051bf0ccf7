"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into the program's layers by rebinding
module globals from the benchmark side: every public function of a layer
module is wrapped under every name through which a module of the package
imports it, and public methods of the listed classes are wrapped on the
class. Nothing under ``src/`` changes, and ``uninstall`` restores every
binding it replaced.

Each span is a name, a start, an end and the index of its parent span
(-1 at the top). Spans are appended when they start, so a parent's index
is always below its children's. They stay in memory until ``write`` puts
them in a gzip CSV at the end of the run.
"""

from __future__ import annotations

import csv
import functools
import gzip
import time
import types
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.batches_built = 0

    def span(self, name: str, start: float, end: float, parent: int) -> int:
        """Append a finished span; returns its index. Used to hand-build nests."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )
        clock = time.perf_counter
        counts_batches = name == "tasks_data.batches"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if counts_batches:
                self.batches_built += len(result)
            return result

        return traced

    def install(self, layer_modules, package_modules, classes) -> None:
        """Wrap public functions of ``layer_modules`` wherever the package binds them.

        ``classes`` maps a layer name to the classes whose public methods are
        traced as ``<layer>.<method>``.
        """
        wrappers = {}
        for mod in layer_modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in package_modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, cls_list in classes.items():
            for cls in cls_list:
                for attr, obj in list(vars(cls).items()):
                    if not attr.startswith("_") and isinstance(obj, types.FunctionType):
                        self._patches.append((cls, attr, obj))
                        setattr(cls, attr, self.wrap(f"{layer}.{attr}", obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``ms`` and ``self_ms``.

        A span's self time is its duration minus the durations of its direct
        children. Inclusive time counts only spans with no ancestor of the
        same name, so a recursive call is not counted twice.
        """
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        self_time = list(durations)
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                self_time[p] -= durations[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            name = self.names[i]
            entry = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += 1000.0 * self_time[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                entry["ms"] += 1000.0 * durations[i]
        return out

    def write(self, path: Path) -> None:
        """Spans as gzip CSV: id, parent, name, start_s, end_s (from the first start)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_s", "end_s"])
            for i, name in enumerate(self.names):
                writer.writerow(
                    [i, self.parents[i], name,
                     f"{self.starts[i] - origin:.9f}", f"{self.ends[i] - origin:.9f}"]
                )
