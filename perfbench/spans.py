"""Span recorder for the traced run.

Spans (name, start, end, parent) are kept in memory and written once, when
the run ends. Layers are timed from outside: ``Patcher`` replaces a public
function with a timing wrapper in every ``ellest`` module that binds it, and
puts the originals back on ``restore``. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter


class Recorder:
    """Nested spans of one thread, plus per-span payloads for counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []          # [name, start, end, parent]
        self.payload: dict[int, dict] = {}   # span index -> recorded facts
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")
        self._stack.pop()
        self.spans[idx][2] = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.spans.clear()
        self.payload.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fp:
            json.dump({"spans": self.spans,
                       "payload": {str(k): v for k, v in self.payload.items()}}, fp)


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total, hi = 0.0, -float("inf")
    for s, e in sorted(intervals):
        if e <= hi:
            continue
        total += e - max(s, hi)
        hi = e
    return total


def self_times(spans: list) -> list:
    """Per span: its duration minus the time its child spans cover."""
    children: dict[int, list] = {}
    for name, s, e, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((s, e))
    return [(e - s) - _covered(children.get(i, [])) for i, (_, s, e, _) in enumerate(spans)]


def self_time_by_name(spans: list) -> Counter:
    out: Counter = Counter()
    for (name, *_), t in zip(spans, self_times(spans)):
        out[name] += t
    return out


def has_ancestor(spans: list, idx: int, name: str) -> bool:
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


class ModuleProxy:
    """Stands in for a module inside one caller: selected attributes are
    replaced, every other lookup goes to the real module."""

    def __init__(self, module, **overrides):
        self._module = module
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._module, name)


class Patcher:
    """Install timing wrappers and remember how to take them out again."""

    def __init__(self, rec: Recorder, package: str = "ellest"):
        self.rec = rec
        self.package = package
        self._undo: list[tuple] = []

    def wrapper(self, fn, name: str, after=None):
        rec = self.rec

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if after is not None:
                rec.payload[idx] = after(args, kwargs, out)
            return out

        return timed

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def function(self, fn, name: str, after=None) -> None:
        """Replace every binding of ``fn`` in the package's loaded modules,
        including names imported with ``from module import fn``."""
        timed = self.wrapper(fn, name, after)
        found = False
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package
                                   or modname.startswith(self.package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, timed)
                    found = True
        if not found:
            raise LookupError(f"{fn.__qualname__} is bound in no {self.package} module")

    def method(self, cls, attr: str, name: str, after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrapper(raw.__func__, name, after)))
        else:
            self._set(cls, attr, self.wrapper(raw, name, after))

    def module_attr(self, caller, modattr: str, overrides: dict) -> None:
        """Give ``caller`` a proxy for its module global ``modattr``, so only
        calls made through that caller are timed."""
        self._set(caller, modattr, ModuleProxy(getattr(caller, modattr), **overrides))

    def restore(self) -> None:
        while self._undo:
            obj, attr, val = self._undo.pop()
            setattr(obj, attr, val)
