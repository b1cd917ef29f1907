"""Outside-in span tracer for the entrel benchmark.

The tracer wraps public functions of the ``entrel`` package from outside:
every ``entrel`` module namespace that holds a reference to a traced
function (its defining module, and each module that did ``from x import y``)
gets the same wrapper, so calls made anywhere in the package are recorded
and no file under ``src/`` changes. A traced name that the package no longer
defines is reported as absent instead of failing, so a refactor that removes
a function needs no benchmark edit.

Each span records its name, start, end and parent span; a request's spans
share the ancestor chain up to the benchmark phase that caused them. Spans
stay in memory and are written out once, after measuring. A layer's self
time is its span's duration minus the time its child spans cover.
"""

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patches = []
        self.counters = {}
        self.absent = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(name)
        self._start[idx] = perf_counter()
        try:
            yield
        finally:
            self._end[idx] = perf_counter()
            self._stack.pop()

    def add(self, counter: str, amount: float):
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end[idx] = perf_counter()
                tracer._start[idx] = start
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict, targets):
        """Wrap each target in every module of ``modules`` that refers to it.

        ``targets`` holds (module name, attribute path, span name, hook)
        tuples; a dotted attribute path such as ``EmbeddingTable.lookup``
        wraps a method on its class. Several targets may share a span name.
        """
        for module_name, path, span_name, hook in targets:
            owner = modules.get(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrap(span_name, original, hook)
            if owners:
                self._patch(owner, attr, wrapped)
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @property
    def n_spans(self) -> int:
        return len(self._start)

    def _arrays(self):
        return (np.array(self._name, dtype=np.intc), np.array(self._parent, dtype=np.intc),
                np.array(self._start, dtype=np.float64), np.array(self._end, dtype=np.float64))

    def summary(self) -> dict:
        """Per span name: {"calls", "total_s", "self_s"}.

        Spans nest strictly (one thread), so the part of a span covered by
        its children is the sum of the children's durations.
        """
        name, parent, start, end = self._arrays()
        duration = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=self.n_spans)
        own = duration - covered
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=duration, minlength=n_names)
        self_s = np.bincount(name, weights=own, minlength=n_names)
        return {
            label: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, label in enumerate(self.names)
        }

    def save(self, path):
        """Write every span (name id, parent index, start, end) to an .npz file."""
        name, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)
