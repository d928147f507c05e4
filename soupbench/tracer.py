"""Span tracer installed around soupdiv's public functions from outside.

:meth:`Tracer.install` replaces each public function of the traced modules
by a wrapper, both where it is defined and wherever another soupdiv module
(or the package) imported it, e.g. ``soupdiv.core.eval_pm`` together with
``soupdiv.periodic.eval_pm``. Calls made through any of those names are
recorded. Generator functions are timed per ``next()``.

Every span records name, start, end, parent span and op id. Spans live in
columnar arrays (about 26 bytes each) and are written out by :meth:`dump`.
Self time is computed from the spans afterwards: a span's duration minus
the durations of its child spans (children never overlap in one thread).
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable, Optional

# Argument coercion helpers run inside every evaluation; a span each would
# triple the trace of the hottest path. They are counted (calls, errors) but
# not timed, so their time stays in the caller's self time.
COUNTED_ONLY = frozenset(
    {"core.require_unit_open", "core.as_signs", "core.parse_signs", "core.signs_to_text"}
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.items: list[int] = []      # values yielded by traced generators
        self.span_name = array("H")
        self.span_op = array("I")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_id = 0
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.errors.append(0)
        self.items.append(0)
        return len(self.names) - 1

    def begin(self, nid: int) -> int:
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_op.append(self.op_id)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(index)
        self.span_start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.span_end[index] = perf_counter()
        self._open.pop()

    def _timed(self, nid: int, fn: Callable, observe: Optional[Callable]) -> Callable:
        calls, errors, begin, finish = self.calls, self.errors, self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            index = begin(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                finish(index)
                errors[nid] += 1
                raise
            finish(index)
            if observe is not None:
                observe(result)
            return result

        return traced

    def _counted(self, nid: int, fn: Callable) -> Callable:
        calls, errors = self.calls, self.errors

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[nid] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise

        return counted

    def _generator(self, nid: int, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._drive(nid, fn(*args, **kwargs))

        return traced

    def _drive(self, nid: int, gen):
        while True:
            self.calls[nid] += 1
            index = self.begin(nid)
            try:
                item = next(gen)
            except StopIteration:
                self.finish(index)
                return
            except BaseException:
                self.finish(index)
                self.errors[nid] += 1
                raise
            self.finish(index)
            self.items[nid] += 1
            yield item

    # -- installation --------------------------------------------------------

    def install(self, modules: Iterable, namespaces: Iterable,
                observers: Optional[dict[str, Callable]] = None) -> None:
        """Wrap every public function defined in ``modules`` in all
        ``namespaces`` that hold it; ``observers[name]`` sees each result."""
        observers = observers or {}
        namespaces = list(namespaces)
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                nid = self._intern(name)
                if name in COUNTED_ONLY:
                    wrapper = self._counted(nid, fn)
                elif inspect.isgeneratorfunction(fn):
                    wrapper = self._generator(nid, fn)
                else:
                    wrapper = self._timed(nid, fn, observers.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._installed.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._installed):
            setattr(ns, key, fn)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        return aggregate_self_times(self.names, self.span_name, self.span_parent,
                                    self.span_start, self.span_end)

    def dump(self, path) -> None:
        """Write a JSON header line, then the five span columns in order."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "columns": [["name", "H"], ["op", "I"], ["parent", "i"],
                        ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_op, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(fh)


def aggregate_self_times(names, span_name, span_parent, span_start, span_end) -> dict[str, float]:
    """Self time per name: each span's duration minus its children's."""
    own = array("d", (end - start for start, end in zip(span_start, span_end)))
    for index, parent in enumerate(span_parent):
        if parent >= 0:
            own[parent] -= span_end[index] - span_start[index]
    totals: dict[str, float] = defaultdict(float)
    for nid, value in zip(span_name, own):
        totals[names[nid]] += value
    return dict(totals)
