"""Spans recorded from outside the program, around calls into each layer.

A `Tracer` records one span per call: `(span_id, parent_id, name,
start_ns, end_ns, outcome, queue_depth)`. The pipeline's own calls go
through `Tracer.call`. While `installed()` is active, the module globals
`inet.engine.process_entry` and `inet.engine.readback`, which `engine.run`
looks up at call time, are replaced by wrappers that record spans under
the open `engine.run` span; the originals are restored on exit. A
`process_entry` span keeps the outcome the call returned and the queue
length at its pop, counting the popped entry.

Spans stay in memory; the caller aggregates them and writes them out
when its run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns

PROCESS_ENTRY = "engine.process_entry"


class Tracer:
    def __init__(self):
        self.spans = []
        self.pipeline = 0
        self._open = [None]

    def reset(self, pipeline):
        """Start the spans of a new pipeline; they all share its id."""
        self.spans.clear()
        del self._open[1:]
        self.pipeline = pipeline

    def call(self, name, fn, *args, **kwargs):
        """Call `fn` inside a span named `name`, nested under the open span."""
        spans = self.spans
        span_id = len(spans)
        spans.append(None)  # reserve the id, so children number after it
        parent = self._open[-1]
        self._open.append(span_id)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._open.pop()
            spans[span_id] = (span_id, parent, name, start, end, None, None)

    def _wrap_process_entry(self, original):
        spans = self.spans
        open_spans = self._open
        clock = perf_counter_ns

        def process_entry(net, entry, **kwargs):
            depth = len(net.queue) + 1  # the popped entry counts
            start = clock()
            out = original(net, entry, **kwargs)
            end = clock()
            spans.append((len(spans), open_spans[-1], PROCESS_ENTRY,
                          start, end, out[0], depth))
            return out

        return process_entry

    def _wrap(self, name, original):
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, engine):
        """Wrap `engine.process_entry` and `engine.readback` until exit."""
        process_entry, readback = engine.process_entry, engine.readback
        engine.process_entry = self._wrap_process_entry(process_entry)
        engine.readback = self._wrap("engine.readback", readback)
        try:
            yield self
        finally:
            engine.process_entry = process_entry
            engine.readback = readback

    def write(self, path):
        """Write the current pipeline's spans as JSON lines."""
        keys = ("span", "parent", "name", "start_ns", "end_ns", "outcome",
                "queue_depth")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                record = dict(zip(keys, span), pipeline=self.pipeline)
                out.write(json.dumps(record, separators=(",", ":")) + "\n")
