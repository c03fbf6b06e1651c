"""In-memory span tracer that wraps a package's functions from outside it.

Python looks up module globals at call time, so replacing every binding of a
function object in the package's loaded modules also catches the calls the
package makes internally.  Each call becomes a span (name, parent, start,
end, counters) kept in memory; `summary()` reduces the spans to per-name call
counts, inclusive and self times and summed counters.  A span's self time is
its duration minus the durations of its direct child spans.

    with Tracer(targets) as tracer:
        run()
    stats = tracer.summary()

Leaving the `with` block restores every binding, also when `run()` raises.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Target", "Span", "NameStats", "Tracer", "WRAPPED_MARK"]

WRAPPED_MARK = "__traced_original__"


@dataclass(frozen=True)
class Target:
    """A function to wrap: `attr` of module `module`, written `Cls.meth` for a
    method.  `observe(args, kwargs, result)` returns counters for the span;
    counters named `max_*` are reduced by maximum, all others by sum."""

    name: str
    module: str
    attr: str
    observe: Callable[[tuple, dict, object], dict] | None = None


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at top level
    start: float
    end: float = 0.0
    counters: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class NameStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, targets, clock: Callable[[], float] = time.perf_counter):
        self.targets = list(targets)
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []  # targets not found, so not traced
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        try:
            for target in self.targets:
                self._patch(target)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, target: Target) -> None:
        try:
            home = importlib.import_module(target.module)
        except ImportError:
            self.missing.append(target.name)
            return
        *path, attr = target.attr.split(".")
        owner = home
        for part in path:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            self.missing.append(target.name)
            return
        wrapper = self._wrap(target, original)
        if owner is not home:  # a method: its class holds the only binding
            self._rebind(owner, attr, original, wrapper)
            return
        package = target.module.split(".")[0]
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, target: Target, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        name, observe = target.name, target.observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, 0.0)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                span.counters = observe(args, kwargs, result)
            return result

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def summary(self) -> dict[str, NameStats]:
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.duration
        out: dict[str, NameStats] = {}
        for span, children in zip(self.spans, child_s):
            st = out.setdefault(span.name, NameStats())
            st.calls += 1
            st.incl_s += span.duration
            st.self_s += span.duration - children
            for key, val in (span.counters or {}).items():
                if key.startswith("max_"):
                    st.counters[key] = max(st.counters.get(key, val), val)
                else:
                    st.counters[key] = st.counters.get(key, 0) + val
        return out

    def outer_incl_s(self, names) -> float:
        """Inclusive seconds of the spans named in `names` that no other span
        named in `names` encloses, so nested calls are not counted twice."""
        names = set(names)
        total = 0.0
        for span in self.spans:
            if span.name in names and not self.inside(span, names):
                total += span.duration
        return total

    def inside(self, span: Span, names: set) -> bool:
        """Whether a span named in `names` encloses `span`."""
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False
