"""Span recording for the traced benchmark run.

A :class:`Tracer` wraps the public functions of the ``rbls`` modules from
outside the program.  Every call of a wrapped function becomes a
:class:`Span` with its name, start, end and parent.  Spans stay in memory
until the run ends and the wrappers are removed.

Parent links follow a thread-local stack.  A span opened on another thread
while that thread's stack is empty takes as parent the innermost span open
on the thread that created the tracer: that span handed the work to the
pool, so the worker's time is its child time.
"""

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: "Span | None"
    thread: int
    info: dict = field(default_factory=dict)


class Tracer:
    """Records spans for the functions it wraps.

    ``probes`` maps a span name to ``probe(args, kwargs, result) -> dict``;
    the dict is stored on the span as counters read at that boundary.  A
    probe runs after the span's end time is taken.
    """

    def __init__(self, probes=None):
        self.spans = []
        self._probes = dict(probes or {})
        self._home = threading.get_ident()
        self._home_stack = []
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if stack is self._home_stack:
            return None
        try:
            return self._home_stack[-1]
        except IndexError:
            return None

    def wrap(self, name, fn):
        """Return a wrapper of ``fn`` that records one span per call."""
        probe = self._probes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, 0.0, None, self._parent(stack), threading.get_ident())
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        return traced

    def patch(self, package, module_names):
        """Wrap every public function of ``package.<module>`` for each module.

        A function is public when its name has no leading underscore and it
        is defined in that module.  The wrapper replaces every binding of
        the function in every loaded ``package`` module: module globals and
        the values of module-level dicts such as dispatch tables.  Spans are
        named ``<module>.<function>``.  Returns the sorted span names.
        """
        if self._patches:
            raise RuntimeError("tracer is already patched in")
        wrappers = {}
        names = []
        for short in module_names:
            module = importlib.import_module(f"{package}.{short}")
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    names.append(f"{short}.{name}")
                    wrappers[obj] = self.wrap(names[-1], obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._replace(namespace, key, wrappers[value])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and v in wrappers:
                            self._replace(value, k, wrappers[v])
        return sorted(names)

    def _replace(self, container, key, wrapper):
        self._patches.append((container, key, container[key]))
        container[key] = wrapper

    def unpatch(self):
        """Restore every binding :meth:`patch` replaced."""
        while self._patches:
            container, key, original = self._patches.pop()
            container[key] = original


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span, as a list aligned with ``spans``.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  Children on different threads may overlap each
    other; the union is subtracted once.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    out = []
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end)) for c in children[id(span)]
        ]
        out.append((span.end - span.start) - _covered(clipped))
    return out


def summarize(spans):
    """Per span name: call count, total self seconds and total seconds."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span.name] += 1
        self_s[span.name] += own
        total_s[span.name] += span.end - span.start
    return calls, self_s, total_s
