"""Span tracer that wraps a package's functions from outside the package.

A module that does ``from .x import f`` holds its own reference to ``f``, so
patching ``x.f`` alone would miss calls made through that module.  The tracer
therefore replaces the function at every module of the package that binds it,
all with one shared wrapper, so each call is counted exactly once whichever
name it went through.  ``restore`` puts every original back.  A target that
no longer exists is skipped and simply reports zero calls.

Each call records a span: its duration goes to the layer's busy time, its
duration minus the time of the spans it opened goes to self time, and the
counts a target's ``count`` function derives from the call are added up.
While a span is open, every span that ends inside it is also added to
``within[outer][inner]``, which gives ratios such as evaluations per search.
"""

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

# Errors a count function may raise when a later signature no longer matches.
COUNT_ERRORS = (LookupError, TypeError, AttributeError, ValueError)


@dataclass(frozen=True)
class Target:
    """``attr`` of module ``module`` is recorded as ``layer``.

    ``attr`` may be ``"Class.method"``.  ``count(args, kwargs, result)``
    returns extra counts for one call, such as ``{"points": 400}``.
    """

    layer: str
    module: str
    attr: str
    count: Callable | None = None


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))
    within: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(int)))


class Tracer:
    """Install with ``with Tracer(...) as tracer:``; read ``tracer.stats`` afterwards."""

    def __init__(self, package: str, targets):
        self.package = package
        self.targets = tuple(targets)
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)
        self._stack: list[list] = []  # open spans as [layer, child seconds]
        self._patches: list[tuple] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def install(self) -> None:
        prefix = self.package + "."
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package or name.startswith(prefix))]
        for target in self.targets:
            owner = sys.modules.get(target.module)
            if owner is None:
                continue
            if "." in target.attr:
                cls_name, method = target.attr.split(".", 1)
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, "__dict__", {}).get(method)
                if original is None:
                    continue
                self._patch(cls, method, self._wrap(target, original))
                continue
            original = getattr(owner, target.attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(target, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [target.layer, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, time.perf_counter() - start, {})
                raise
            elapsed = time.perf_counter() - start
            extra = {}
            if target.count is not None:
                try:
                    extra = target.count(args, kwargs, result)
                except COUNT_ERRORS:
                    extra = {}
            tracer._close(frame, elapsed, extra)
            return result

        return wrapper

    def _close(self, frame, elapsed: float, extra: dict) -> None:
        self._stack.pop()
        layer = frame[0]
        stats = self.stats[layer]
        stats.calls += 1
        stats.busy_s += elapsed
        stats.self_s += elapsed - frame[1]
        for key, amount in extra.items():
            stats.counts[key] += amount
        if self._stack:
            self._stack[-1][1] += elapsed
        for outer in {f[0] for f in self._stack}:
            inner = self.stats[outer].within[layer]
            inner["calls"] += 1
            for key, amount in extra.items():
                inner[key] += amount

    def export(self) -> dict:
        """Plain-dict copy of the statistics, for sending across a process boundary."""
        return {
            layer: {
                "calls": stats.calls,
                "busy_s": stats.busy_s,
                "self_s": stats.self_s,
                "counts": dict(stats.counts),
                "within": {inner: dict(counts) for inner, counts in stats.within.items()},
            }
            for layer, stats in self.stats.items()
        }

    def merge(self, exported: dict) -> None:
        """Add statistics exported by another tracer, e.g. one in a child process."""
        for layer, data in exported.items():
            stats = self.stats[layer]
            stats.calls += data["calls"]
            stats.busy_s += data["busy_s"]
            stats.self_s += data["self_s"]
            for key, amount in data["counts"].items():
                stats.counts[key] += amount
            for inner, counts in data["within"].items():
                for key, amount in counts.items():
                    stats.within[inner][key] += amount
