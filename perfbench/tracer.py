"""Span tracer installed from outside the program.

`Tracer.install` replaces each target with a wrapper that records one span
per call: name, start, end and the span that was open when it began. A
target defined in one module is often bound again in others through
``from .x import f``; every such binding in the package is replaced too,
or the calls made through it would go unrecorded. Methods are replaced on
their class, which every caller reaches.

Generator functions are timed per resumption rather than per call: the
call only builds the generator object, and the work happens while it is
iterated. Each resumption is a span, and the yielded items are counted.

Count-only targets (the field's scalar operations) get a wrapper that
increments a counter and records no span, because a timer on every scalar
operation would swamp the run.

Spans live in flat arrays in memory and are written out by `dump`. Self
time is a span's duration minus the time its child spans cover; calls are
strictly nested within one thread, so the children of a span never
overlap.
"""

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.calls = []
        self.items = []
        self.returned = []
        self.counts = defaultdict(int)
        self.on = True
        self._undo = []

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.items.append(0)
            self.returned.append(0)
        return nid

    # wrappers

    def wrap(self, name, fn):
        """A recording wrapper for fn under the given span name."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(self._name_id(name), fn)
        return self._wrap_call(self._name_id(name), fn)

    # the two wrappers open and close spans inline: a method call per span
    # would add to the tracing overhead on every wrapped call

    def _wrap_call(self, nid, fn):
        tracer = self
        clock = self.clock
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, calls, returned = self._stack, self.calls, self.returned

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            calls[nid] += 1
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if out is not None:
                returned[nid] += 1
            return out

        return traced

    def _wrap_generator(self, nid, fn):
        tracer = self
        clock = self.clock
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, calls, items = self._stack, self.calls, self.items

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            calls[nid] += 1
            inner = fn(*args, **kwargs)

            def resumptions():
                while True:
                    if not tracer.on:
                        try:
                            value = next(inner)
                        except StopIteration:
                            return
                        yield value
                        continue
                    idx = len(starts)
                    names.append(nid)
                    parents.append(stack[-1])
                    ends.append(0.0)
                    stack.append(idx)
                    starts.append(clock())
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    items[nid] += 1
                    yield value

            return resumptions()

        return traced

    def wrap_count(self, name, fn):
        """A wrapper that only counts calls of fn under name."""
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # installation

    def install(self, targets, package="approxcat", count_only=False):
        """Wrap each (module name, qualified name) target.

        A method ``Class.name`` is replaced on its class. A module-level
        function is replaced in its defining module and in every module of
        the package that holds the same object under any name. Span names
        are ``<last module component>.<qualified name>``.
        """
        for module_name, qualname in targets:
            owner = sys.modules[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            name = f"{module_name.rsplit('.', 1)[-1]}.{qualname}"
            wrapper = (
                self.wrap_count(name, original) if count_only else self.wrap(name, original)
            )
            if path:
                self._replace(owner, attr, original, wrapper)
                continue
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != package and not mod_name.startswith(package + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, original, wrapper)

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # results

    def self_times(self):
        """{span name: total self time} over every recorded span."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0.0] * n
        parents = self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += dur[i]
        totals = [0.0] * len(self.names)
        names = self.span_name
        for i in range(n):
            totals[names[i]] += dur[i] - covered[i]
        return dict(zip(self.names, totals))

    def summary(self):
        """Counts and self times per name, ready for JSON."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "items": dict(zip(self.names, self.items)),
            "returned": dict(zip(self.names, self.returned)),
            "self_s": self.self_times(),
            "counts": dict(self.counts),
            "spans": len(self.span_start),
        }

    def dump(self, path):
        """Write the spans: one JSON header line naming the span names and
        count, then the name, parent, start and end arrays in that order."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.span_start)}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def load_spans(path):
    """(names, [(name, parent, start, end), ...]) from a file `dump` wrote."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header["names"], list(zip(*arrays))
