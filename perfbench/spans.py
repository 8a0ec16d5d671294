"""In-memory spans for the traced run.

The traced run wraps each layer's public functions where the program
looks them up (a module-level binding in the calling module, or a method
on its class), records one span per call, and puts the original objects
back when the run ends.  Nothing under ``src/`` is instrumented: every
span comes from this file.

A span is ``[id, name, start, end, parent, req]`` with ``perf_counter``
times.  ``parent`` is the enclosing span on the same thread (0 at the
root) and ``req`` is the request id shared by every span of one gateway
request (``None`` outside the gateway).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import threading
import time
from pathlib import Path

ID, NAME, START, END, PARENT, REQ = range(6)


class Recorder:
    """Collects spans from any thread; written out once, at the end."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: gateway job id -> request id, so spans that a job causes on
        #: another thread (the collector's journal appends) join the
        #: request that submitted it
        self.job_req: dict[str, str] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, req=None):
        """Record the ``with`` body as one span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        s = [next(self._ids), name, time.perf_counter(), 0.0,
             parent[ID] if parent else 0,
             parent[REQ] if parent else req]
        stack.append(s)
        try:
            yield s
        finally:
            s[END] = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    def wrap(self, name: str, fn, req_of=None, note=None):
        """``fn`` recording a span per call.

        ``req_of(args)`` names the request a root span belongs to;
        ``note(span, args)`` runs on entry (used to map job ids to
        requests).  The body repeats :meth:`span` inline because it runs
        on calls made hundreds of thousands of times per pass.
        """
        ids, spans, stack_of = self._ids, self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            if parent is not None:
                req = parent[REQ]
            else:
                req = req_of(args) if req_of is not None else None
            s = [next(ids), name, time.perf_counter(), 0.0,
                 parent[ID] if parent else 0, req]
            if note is not None:
                note(s, args)
            stack.append(s)
            try:
                return fn(*args, **kwargs)
            finally:
                s[END] = time.perf_counter()
                stack.pop()
                spans.append(s)

        return traced

    def write(self, path: Path) -> Path:
        """Write every span as one JSON object per line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "req")
        with gzip.open(path, "wt") as fh:
            for s in sorted(self.spans, key=lambda s: s[ID]):
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
        return path


@contextlib.contextmanager
def patched(recorder: Recorder, targets):
    """Wrap every ``(owner, attr, span_name[, req_of[, note]])`` target
    for the duration of the block; restore the originals afterwards.

    ``owner`` is the module or class that holds the binding the program
    looks up.  The attribute must live on ``owner`` itself (not be
    inherited), so restoring puts back exactly the object that was there.
    """
    originals = []
    try:
        for owner, attr, name, *hooks in targets:
            orig = vars(owner)[attr]
            originals.append((owner, attr, orig))
            setattr(owner, attr, recorder.wrap(name, orig, *hooks))
        yield
    finally:
        for owner, attr, orig in reversed(originals):
            setattr(owner, attr, orig)


def self_times(spans) -> dict[int, float]:
    """Span id -> self seconds: its duration minus its children's.

    Children run on the parent's thread inside the parent's interval,
    so they never overlap one another and their durations add up to the
    part of the parent they cover.
    """
    child = {}
    for s in spans:
        if s[PARENT]:
            child[s[PARENT]] = child.get(s[PARENT], 0.0) + s[END] - s[START]
    return {s[ID]: s[END] - s[START] - child.get(s[ID], 0.0) for s in spans}


def by_name(spans) -> dict[str, dict]:
    """Per span name: ``calls``, total ``self_s`` and the call
    durations in seconds (for percentiles)."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0,
                                       "durations": []})
        agg["calls"] += 1
        agg["self_s"] += own[s[ID]]
        agg["durations"].append(s[END] - s[START])
    return out
