"""Self-test of the tracer's self-time arithmetic on a hand-made nest of spans.

Run with ``python3 benchmark/test_spans.py`` (or under pytest). The traced
benchmark run also calls ``check_self_time`` before it trusts its figures.
"""

from __future__ import annotations

import math

from spans import Tracer


def check_self_time() -> None:
    t = Tracer()
    # train [0, 10] -> forward [1, 3] -> flatten [1.5, 2]
    #              -> forward [4, 5]
    #              -> modify  [6, 9] -> modify [7, 8]   (recursive)
    # load [20, 21] at top level
    train = t.span("train", 0.0, 10.0, -1)
    fwd = t.span("forward", 1.0, 3.0, train)
    t.span("flatten", 1.5, 2.0, fwd)
    t.span("forward", 4.0, 5.0, train)
    mod = t.span("modify", 6.0, 9.0, train)
    t.span("modify", 7.0, 8.0, mod)
    t.span("load", 20.0, 21.0, -1)
    got = t.summarize()
    want = {
        "train": (1, 10_000.0, 4_000.0),  # 10 - (2 + 1 + 3)
        "forward": (2, 3_000.0, 2_500.0),  # (2 - 0.5) + 1
        "flatten": (1, 500.0, 500.0),
        "modify": (2, 3_000.0, 3_000.0),  # inclusive skips the nested call
        "load": (1, 1_000.0, 1_000.0),
    }
    assert set(got) == set(want), sorted(got)
    for name, (calls, ms, self_ms) in want.items():
        entry = got[name]
        assert entry["calls"] == calls, (name, entry)
        assert math.isclose(entry["ms"], ms, abs_tol=1e-9), (name, entry)
        assert math.isclose(entry["self_ms"], self_ms, abs_tol=1e-9), (name, entry)
    total_self = sum(e["self_ms"] for e in got.values())
    assert math.isclose(total_self, 11_000.0, abs_tol=1e-9)  # top-level spans' durations


def check_wrapped_nesting() -> None:
    t = Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert t.names == ["outer", "inner", "inner"]
    assert t.parents == [-1, 0, 0]
    assert all(t.starts[i] <= t.ends[i] for i in range(3))
    assert t.starts[0] <= t.starts[1] and t.ends[2] <= t.ends[0]


def test_self_time() -> None:
    check_self_time()


def test_wrapped_nesting() -> None:
    check_wrapped_nesting()


if __name__ == "__main__":
    check_self_time()
    check_wrapped_nesting()
    print("spans self-test passed")
