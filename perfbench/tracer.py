"""Span tracer that wraps fedeval functions from outside the package.

Each target function is replaced, in every ``fedeval`` module namespace
that binds it, by a wrapper that records one span per call. Spans stay
in memory as plain lists in ``spans`` until the run ends; ``uninstall``
puts every original function back.

A span is ``[name, start, end, parent, op, counts, settled]``: ``parent``
is the index of the enclosing span or -1, ``op`` the operation id the
caller set, ``counts`` the work counts the target's counter derived from
the call, and ``settled`` the time the counter finished. Counter time
belongs to no span's self time, so it shows as tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

Counter = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Target:
    """One traced function: metric prefix, defining module, attribute.

    ``counts`` names the keys that ``counter`` returns.
    """

    name: str
    module: str
    attr: str
    counter: Counter | None = None
    counts: tuple[str, ...] = ()


PACKAGE = "fedeval"


def _package_modules() -> list:
    return [
        module
        for key, module in list(sys.modules.items())
        if module is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.op = None
        self.warnings: list[str] = []
        self.missing: set[str] = set()
        self.uncounted: set[str] = set()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target in every package namespace that binds it."""
        modules = _package_modules()
        for target in self.targets:
            try:
                home = importlib.import_module(f"{PACKAGE}.{target.module}")
                original = getattr(home, target.attr)
            except (ImportError, AttributeError):
                self.missing.add(target.name)
                self._warn(f"{target.name}: {target.module}.{target.attr} not found")
                continue
            wrapper = self._wrap(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        """Restore every original function, newest patch first."""
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)
            print(f"perfbench: warning: {message}", file=sys.stderr)

    def _wrap(self, target: Target, original):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [target.name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, 0.0]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                span[6] = span[2]
            if target.counter is not None and target.name not in self.uncounted:
                try:
                    span[5] = target.counter(args, kwargs, result)
                except Exception as exc:  # a renamed field must not fail the run
                    self.uncounted.add(target.name)
                    self._warn(f"{target.name}: work counter failed: {exc!r}")
                span[6] = clock()
            return result

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            covered[parent] += span[6] - span[1]
    return [span[2] - span[1] - covered[i] for i, span in enumerate(spans)]
