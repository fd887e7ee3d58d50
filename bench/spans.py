"""Spans around calls into t2orbits' public functions, for the traced run.

The traced functions are the package's ``__all__`` plus ``cli.main``.  Each
is replaced in every t2orbits module that binds it, which is where ``cli``
and the other modules look it up, so their calls into one another are seen
as well as the benchmark's.  A function with a ``mode`` parameter gets one
statistic per mode; a generator function gets one span per ``next()``.

The benchmark opens an op region (a root span) around each timed piece of
an op.  A span's self time is its length minus the time of the spans
directly inside it; self time inside op regions is summed per module.
Totals are kept per statistic; only the first ``keep`` spans are kept whole,
to be written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, keep: int = 20_000):
        self.stack = []  # open spans: [stat, module, id, start, child seconds]
        self.calls = defaultdict(int)  # per statistic, everywhere
        self.seconds = defaultdict(float)
        self.op_calls = defaultdict(int)  # per statistic, inside op regions
        self.busy = defaultdict(float)  # self seconds per module, inside op regions
        self.spans = []
        self.keep = keep
        self._ids = itertools.count(1)

    def enter(self, stat: str, module: str | None) -> None:
        self.stack.append([stat, module, next(self._ids), perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        stack = self.stack
        stat, module, sid, start, child = stack.pop()
        seconds = end - start
        if stack:
            stack[-1][4] += seconds
        in_op = bool(stack) and stack[0][1] is None
        if len(self.spans) < self.keep:
            self.spans.append({"id": sid, "name": stat, "start": start, "end": end,
                               "parent": stack[-1][2] if stack else 0,
                               "op": stack[0][2] if in_op else sid if module is None else 0})
        if module is None:  # an op region
            return
        self.calls[stat] += 1
        self.seconds[stat] += seconds
        if in_op:
            self.op_calls[stat] += 1
            self.busy[module] += seconds - child

    def mean(self, stat: str) -> float:
        """Mean seconds per call of a statistic, 0 when it was never called."""
        calls = self.calls.get(stat, 0)
        return self.seconds[stat] / calls if calls else 0.0


class _TracedIterator:
    def __init__(self, tracer: Tracer, inner, stat: str, module: str):
        self.tracer, self.inner, self.stat, self.module = tracer, inner, stat, module

    def __iter__(self):
        return self

    def __next__(self):
        self.tracer.enter(self.stat, self.module)
        try:
            return next(self.inner)
        finally:
            self.tracer.exit()


def _wrap(tracer: Tracer, fn, module: str):
    stat = f"{module}.{fn.__name__}"
    if inspect.isgeneratorfunction(fn):
        def wrapper(*args, **kwargs):
            return _TracedIterator(tracer, fn(*args, **kwargs), stat, module)
    elif "mode" in inspect.signature(fn).parameters:
        params = inspect.signature(fn).parameters
        index = list(params).index("mode")
        default = params["mode"].default

        def wrapper(*args, **kwargs):
            mode = kwargs.get("mode", args[index] if len(args) > index else default)
            tracer.enter(f"{stat}[{mode}]", module)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
    else:
        def wrapper(*args, **kwargs):
            tracer.enter(stat, module)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
    return functools.update_wrapper(wrapper, fn)


@contextmanager
def traced(tracer: Tracer, package, modules):
    """Replace the public functions by traced ones while the block runs."""
    public = [getattr(package, name) for name in package.__all__]
    public.append(package.cli.main)
    wrappers = {id(fn): _wrap(tracer, fn, fn.__module__.rsplit(".", 1)[-1])
                for fn in public if inspect.isfunction(fn)}
    patched = []
    try:
        for module in (package, *modules):
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, name, wrapper)
                    patched.append((module, name, value))
        yield tracer
    finally:
        for module, name, value in patched:
            setattr(module, name, value)

