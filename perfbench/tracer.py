"""In-memory span tracer that wraps qfilter functions from outside the package.

A probe names one function. Installing the tracer replaces the function at
every ``qfilter`` / ``qfilter.*`` module attribute bound to it, because
modules such as ``training`` and ``cli`` import names directly and would
otherwise keep calling the unwrapped original. Class attributes (the
``__post_init__`` validators of the dataclasses) are replaced on the class.

Each call records one span: name, start, end, parent span and an optional
measured value (sample count, qubit count, probability). Parents are tracked
per thread; a span opened in a worker thread has no parent. A span's self
time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Probe:
    """One traced function.

    owner: module path ("qfilter.featuremap") or "module:Class" for a method.
    attr: attribute name on the owner.
    name: span name, "<layer>.<function>".
    measure: optional (args, kwargs, result) -> dict of named numbers stored
    on the span.
    """

    owner: str
    attr: str
    name: str
    measure: Callable[[tuple, dict, Any], dict[str, float]] | None = None


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    value: dict[str, float] | None
    ok: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve_owner(owner: str):
    module_name, _, cls_name = owner.partition(":")
    module = sys.modules[module_name]
    return getattr(module, cls_name) if cls_name else module


def _package_modules(package: str):
    for name, module in list(sys.modules.items()):
        if module is not None and (name == package or name.startswith(package + ".")):
            yield module


class Tracer:
    """Collects spans for a set of probes while installed and enabled."""

    def __init__(self, probes: list[Probe]) -> None:
        self.probes = probes
        self.spans: list[Span] = []
        self.enabled = True
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            ok = False
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = probe.measure(args, kwargs, result) if ok and probe.measure else None
                self.spans.append(
                    Span(sid, probe.name, start, end, parent, threading.get_ident(), value, ok)
                )

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for probe in self.probes:
            owner = _resolve_owner(probe.owner)
            original = owner.__dict__[probe.attr]
            wrapper = self._wrap(probe, original)
            if isinstance(owner, type):
                self._restore.append((owner, probe.attr, original))
                setattr(owner, probe.attr, wrapper)
                continue
            for module in _package_modules("qfilter"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        """Stop recording, for benchmark code (gates) that calls the library."""
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    def self_times(self) -> dict[int, float]:
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.duration
        return {s.sid: s.duration - child.get(s.sid, 0.0) for s in self.spans}

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self_s, and per measured key its sum and max."""
        self_t = self.self_times()
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(
                s.name, {"calls": 0, "self_s": 0.0, "measured": 0, "sum": {}, "max": {}}
            )
            row["calls"] += 1
            row["self_s"] += self_t[s.sid]
            if s.value is not None:
                row["measured"] += 1
                for key, v in s.value.items():
                    row["sum"][key] = row["sum"].get(key, 0.0) + v
                    row["max"][key] = max(row["max"].get(key, v), v)
        return out

    def descendants_named(self, ancestor: str, name: str) -> dict[int, int]:
        """For each span called `ancestor`, how many spans called `name` sit below it."""
        by_id = {s.sid: s for s in self.spans}
        counts = {s.sid: 0 for s in self.spans if s.name == ancestor}
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None:
                if p in counts:
                    counts[p] += 1
                    break
                p = by_id[p].parent
        return counts

    def write(self, path: str) -> None:
        """Spans as compact rows: [id, name, start, end, parent, thread, value, ok]."""
        rows = [
            [s.sid, s.name, s.start, s.end, s.parent, s.thread, s.value, s.ok]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "thread",
                                  "value", "ok"], "spans": rows}, fh)
