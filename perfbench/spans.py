"""In-memory spans and counters for the traced benchmark run.

A span is one timed call into a kcmt layer, made from the benchmark's own
code: name, start, end, parent span and the op (root span) it belongs to.
Spans are kept in a list and written out once, when the run ends. A
layer's self time is its span's duration minus the durations of its
direct children; the only nesting is theory checks inside lemma
enumeration (through `CountingBackend`) and layer calls inside an op.

`NullTracer` has the same interface and does nothing, so the untraced run
calls the layers directly.
"""

import contextlib
import json
import time
from collections import defaultdict

from kcmt import LraBackend

SETUP = -1  # pass index of spans and counts recorded during set-up


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def op(self, name):
        return contextlib.nullcontext()

    def count(self, name, n=1):
        pass

    def backend(self):
        return None

    def start_pass(self, index):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        # [name, start, end, parent, op, pass] per span; ids are positions
        self.spans = []
        self._stack = []
        self._pass = SETUP
        self.counts = defaultdict(int)  # (pass, name) -> count

    def start_pass(self, index):
        self._pass = index

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        op = self.spans[parent][4] if parent is not None else len(self.spans)
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, op,
                           self._pass])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        sid = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    @contextlib.contextmanager
    def op(self, name):
        """Root span of one op; the layer calls inside it are its children."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def count(self, name, n=1):
        self.counts[(self._pass, name)] += n

    def backend(self):
        return CountingBackend(self)

    def durations(self):
        """{(pass, name): [(inclusive_s, self_s), ...]} over closed spans."""
        child_time = defaultdict(float)
        for name, start, end, parent, _op, _p in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(list)
        for sid, (name, start, end, _parent, _op, p) in enumerate(self.spans):
            total = end - start
            out[(p, name)].append((total, total - child_time[sid]))
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op, p) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "pass": p}) + "\n")


class CountingBackend:
    """Delegates to `LraBackend`; one span and one count per check."""

    def __init__(self, tracer):
        self._inner = LraBackend()
        self._tracer = tracer

    def check_conjunction(self, literals):
        verdict = self._tracer.call("theory.check",
                                    self._inner.check_conjunction, literals)
        self._tracer.count("theory.checks")
        if not verdict.is_sat:
            self._tracer.count("theory.unsat")
        return verdict
