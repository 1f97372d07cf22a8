"""Span tracing of gsmsep from outside the package.

A probe names a module attribute that a caller looks up at call time and
the span name its calls are recorded under.  ``gsmsep.optimizer`` reads
``inv_phi_from_s`` from its own globals, so the probe for the posterior
E[1/phi] is ``(gsmsep.optimizer, "inv_phi_from_s", "priors.inv_phi")``;
patching ``gsmsep.priors.inv_phi_from_s`` would miss every call.

While a Tracer is installed, each call through a probed attribute appends
a span (name, start, end, parent, call id) to an in-memory list.  Nothing
is written until the caller asks for it with ``dump``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    call: int


class Tracer:
    def __init__(self, probes):
        self.probes = list(probes)
        self.spans: list[Span] = []
        self.call = 0
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), float("nan"), parent,
                        self.call)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, call: int):
        """Patch every probe for one traced call, restoring them on exit."""
        self.call = call
        originals = [(module, attr, getattr(module, attr))
                     for module, attr, _ in self.probes]
        for (module, attr, fn), (_, _, name) in zip(originals, self.probes):
            setattr(module, attr, self._wrap(fn, name))
        try:
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def calls(self) -> dict[int, list[Span]]:
        grouped: dict[int, list[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.call, []).append(span)
        return grouped

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children.

        Calls are single-threaded, so children never overlap each other.
        """
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.end - span.start
        return own

    def dump(self, path) -> None:
        rows = [dataclasses.astuple(span) for span in self.spans]
        with open(path, "w") as handle:
            json.dump({"fields": [f.name for f in dataclasses.fields(Span)],
                       "spans": rows}, handle)
