"""Tests for the benchmark's span arithmetic, wrappers and input generators.

Run from the repository root: ``python3 -m pytest -q pprbench``.
"""

import itertools
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_times, peak_mb, root_time  # noqa: E402


def test_self_time_subtracts_children():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
        Span("d", 11.0, 13.0, -1),
    ]
    t = layer_times(spans)
    assert t["a"] == {"s": 10.0, "self_s": 6.0, "calls": 1}
    assert t["b"] == {"s": 4.0, "self_s": 3.0, "calls": 2}
    assert t["c"] == {"s": 1.0, "self_s": 1.0, "calls": 1}
    assert sum(v["self_s"] for v in t.values()) == root_time(spans) == 12.0


def test_recursive_span_counted_once_inclusive():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("a", 1.0, 5.0, 0),
        Span("b", 2.0, 3.0, 1),
    ]
    t = layer_times(spans)
    assert t["a"] == {"s": 10.0, "self_s": 9.0, "calls": 2}
    assert t["b"]["s"] == 1.0


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .outer import run\n")
    (pkg / "inner.py").write_text(textwrap.dedent("""
        import numpy as np

        def work(n):
            return np.ones(n).sum()

        def _private():
            return 1
    """))
    (pkg / "outer.py").write_text(textwrap.dedent("""
        from .inner import work, _private

        def run(n):
            return work(n) + work(n) + _private()
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakepkg"
    for name in [m for m in sys.modules if m.startswith("fakepkg")]:
        del sys.modules[name]


def test_wrappers_catch_calls_across_modules(fakepkg):
    import fakepkg as pkg

    original = pkg.outer.work
    with Tracer(package=fakepkg, clock=itertools.count().__next__) as tracer:
        assert tracer.install() == []
        assert pkg.run(3) == 7.0
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer.run", -1), ("inner.work", 0), ("inner.work", 0)]
    t = layer_times(tracer.spans)
    # The fake clock ticks once per read: run spans [0, 5], work [1, 2], [3, 4].
    assert t["outer.run"] == {"s": 5, "self_s": 3, "calls": 1}
    assert t["inner.work"] == {"s": 2, "self_s": 2, "calls": 2}
    assert "inner._private" not in t
    assert pkg.outer.work is original and pkg.run is pkg.outer.run


def test_missing_name_warns_and_does_not_crash(fakepkg):
    import fakepkg as pkg

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with Tracer(package=fakepkg) as tracer:
            missing = tracer.install(expected=["inner.work", "inner.gone"])
            pkg.run(2)
    assert missing == ["inner.gone"]
    assert any("inner.gone" in str(w.message) for w in caught)
    assert layer_times(tracer.spans)["inner.work"]["calls"] == 2


def test_span_closes_when_call_raises(fakepkg):
    import fakepkg as pkg

    with Tracer(package=fakepkg) as tracer:
        tracer.install()
        with pytest.raises(TypeError):
            pkg.run("x")
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer._stack == []


def test_memory_peak_nests(fakepkg):
    import fakepkg as pkg

    with Tracer(package=fakepkg, memory=True) as tracer:
        tracer.install()
        pkg.run(1_000_000)  # 8 MB per temporary array
    peaks = peak_mb(tracer.spans)
    assert 7.0 < peaks["inner.work"] < 16.0
    assert peaks["outer.run"] >= peaks["inner.work"]


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 19) is None
    pct, value = run.tail([float(i) for i in range(1, 41)])
    assert pct == 75 and 30.0 <= value <= 31.0


def test_sbm_file_ids_are_first_seen_order():
    from pprinv.graph import parse_edge_list

    n, edges, labels = workloads.sbm(7, 3, 20, 0.3, 0.05)
    text = "".join(f"{u} {v}\n" for u, v in edges)
    g = parse_edge_list(text)
    assert g.node_names == tuple(str(i) for i in range(n))
    assert np.array_equal(workloads.graph_keys(g), workloads.edge_keys(n, edges))
    assert sorted(np.bincount(labels)) == [20, 20, 20]


def test_generators_are_seeded():
    a = workloads.full_rank_er(3, 60, 0.1)
    b = workloads.full_rank_er(3, 60, 0.1)
    assert np.array_equal(a[1], b[1])
    assert not np.array_equal(a[1], workloads.full_rank_er(4, 60, 0.1)[1])
