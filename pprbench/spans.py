"""Outside-in spans around pprinv's public functions.

``Tracer.install`` wraps every public function defined in a ``pprinv``
module and swaps the wrapper into *every* pprinv module that holds the same
function object (for example ``pprinv.cli.invert_optimize`` and
``pprinv.analytical.pseudoinverse``), so calls made from inside the library
are caught as well as the benchmark's own. Private helpers (``_forward``,
``_backward``, ``_sweep_cell``) are not wrapped: their time is the self time
of the public function that calls them.

A span is (name, start, end, parent). ``layer_times`` derives, per name, the
inclusive time, the self time (duration minus the part covered by child
spans) and the call count. With ``memory=True`` each span also records the
tracemalloc peak reached inside it, relative to the traced size at entry.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import tracemalloc
import warnings
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    peak_bytes: int = 0


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Inclusive seconds, self seconds and calls per span name.

    Self time is a span's duration minus its children's durations. Inclusive
    time counts a span only when no ancestor has the same name, so a
    recursive call is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        rec = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        duration = span.end - span.start
        rec["calls"] += 1
        rec["self_s"] += duration - child_time[i]
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            rec["s"] += duration
    return out


def root_time(spans: list[Span]) -> float:
    """Total duration of root spans, which equals the sum of all self times."""
    return sum(s.end - s.start for s in spans if s.parent < 0)


def peak_mb(spans: list[Span]) -> dict[str, float]:
    """Largest in-span tracemalloc peak per name, in MiB."""
    out: dict[str, float] = {}
    for span in spans:
        out[span.name] = max(out.get(span.name, 0.0), span.peak_bytes / 2**20)
    return out


def public_functions(package: str = "pprinv") -> dict[str, tuple[object, object]]:
    """``'<module>.<function>' -> (module, function)`` for every public
    function a pprinv module defines itself."""
    pkg = importlib.import_module(package)
    found = {}
    for info in pkgutil.iter_modules(pkg.__path__):
        module = importlib.import_module(f"{package}.{info.name}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                found[f"{info.name}.{attr}"] = (module, obj)
    return found


class Tracer:
    """Install span wrappers, collect spans in memory, restore on exit."""

    def __init__(self, package: str = "pprinv", memory: bool = False,
                 clock=time.perf_counter):
        self.package = package
        self.memory = memory
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._max_seen: list[int] = []  # traced-memory high-water per open span
        self._base: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def enter(self, name: str) -> None:
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._max_seen:
                self._max_seen[-1] = max(self._max_seen[-1], peak)
            tracemalloc.reset_peak()
            self._base.append(current)
            self._max_seen.append(current)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._stack.append(len(self.spans) - 1)

    def exit(self) -> None:
        index = self._stack.pop()
        span = self.spans[index]
        span.end = self.clock()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            high = max(self._max_seen.pop(), peak)
            span.peak_bytes = high - self._base.pop()
            if self._max_seen:
                self._max_seen[-1] = max(self._max_seen[-1], high)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, expected=()) -> list[str]:
        """Wrap every public function; return the expected names that no
        longer exist (each reported with a warning, never an error)."""
        found = public_functions(self.package)
        modules = {m for m, _ in found.values()}
        modules.add(importlib.import_module(self.package))
        for name, (_, fn) in found.items():
            wrapper = self.wrap(name, fn)
            for module in modules:
                for attr, obj in list(vars(module).items()):
                    if obj is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, wrapper)
        missing = sorted(set(expected) - set(found))
        for name in missing:
            warnings.warn(f"traced function {name} not found; reported as 0",
                          stacklevel=2)
        if self.memory:
            tracemalloc.start()
        return missing

    def uninstall(self) -> None:
        if self.memory and tracemalloc.is_tracing():
            tracemalloc.stop()
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
