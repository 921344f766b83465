"""In-memory tracing for the benchmark: spans at phase boundaries plus
aggregate counters for functions called once per symbol.

Functions are traced by replacing module attributes (``module.attr``) with a
timing wrapper, so nothing in the traced package changes.  A wrapper keeps
only aggregates -- calls, total seconds, self seconds, hits, the first call's
seconds and peak RSS growth -- because a span per call would cost more than
the call.  Spans (name, start, end, parent) mark the few phase boundaries.

Self time is total time minus the time of traced calls and spans nested in
it.  Each open frame owns one slot of ``self._child``; a finishing frame adds
its duration to the slot of the frame around it.

Span times come from ``time.monotonic``, which is system-wide, so spans
written by different processes line up.
"""

from __future__ import annotations

import resource
import sys
import time

CALLS, TOTAL, SELF, HITS, FIRST, PEAK_MB = range(6)

# plain wrapper; count non-None results as hits; record RSS growth; time the
# call and every step of the iterator it returns
CALL, HIT, RSS, ITER = "call", "hit", "rss", "iter"


def _rss_now_mb() -> float:
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * resource.getpagesize() / 2 ** 20


def max_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024


class Tracer:
    """Collects spans and per-function aggregates for one process."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.spans: list[list] = []
        self._child = [0.0]
        self._open = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0, None, 0.0])

    def _finish(self, st: list, dt: float) -> None:
        nested = self._child.pop()
        self._child[-1] += dt
        st[TOTAL] += dt
        st[SELF] += dt - nested
        if st[FIRST] is None:
            st[FIRST] = dt

    def wrap(self, name: str, fn, kind: str = CALL):
        """Return ``fn`` wrapped so that its calls add to stat ``name``."""
        st = self._stat(name)
        child = self._child
        finish = self._finish
        clock = time.perf_counter

        def timed(*args, **kwargs):
            rss0 = _rss_now_mb() if kind == RSS else 0.0
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(st, clock() - t0)
                st[CALLS] += 1
            if kind == HIT and result is not None:
                st[HITS] += 1
            elif kind == RSS:
                st[PEAK_MB] = max(st[PEAK_MB], max_rss_mb() - rss0)
            return result

        if kind == ITER:
            return lambda *a, **kw: self._iterate(st, timed(*a, **kw))
        return timed

    def _iterate(self, st: list, it):
        # The iterator's own work runs inside next(); its caller's work runs
        # between the yields, so only next() is charged to ``st``.
        child = self._child
        finish = self._finish
        clock = time.perf_counter
        step = iter(it).__next__
        while True:
            child.append(0.0)
            t0 = clock()
            try:
                item = step()
            except StopIteration:
                finish(st, clock() - t0)
                return
            finish(st, clock() - t0)
            yield item

    def timer(self, name: str) -> "_Timer":
        """A reusable context manager adding each use to stat ``name``."""
        return _Timer(self, self._stat(name))

    def span(self, name: str, start: float | None = None) -> "_Span":
        """A context manager recording one span; ``start`` backdates it."""
        return _Span(self, name, start)

    def install(self, targets) -> None:
        """Wrap ``module.attr`` for each (module, attr, stat name, kind).

        Modules not yet imported and missing attributes are skipped, so the
        same target list serves processes that load different modules.
        """
        for module_name, attr, name, kind in targets:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None) if module else None
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, kind))

    def restore(self) -> None:
        """Undo every ``install``."""
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def merge(self, other: dict) -> None:
        """Fold a dump of another process's tracer into this one; its root
        spans become children of the innermost span open here."""
        offset = len(self.spans)
        parent = self._open[-1]
        for name, start, end, up in other["spans"]:
            self.spans.append([name, start, end, up + offset if up >= 0 else parent])
        for name, theirs in other["stats"].items():
            st = self._stat(name)
            for i in (CALLS, TOTAL, SELF, HITS):
                st[i] += theirs[i]
            if st[FIRST] is None:
                st[FIRST] = theirs[FIRST]
            st[PEAK_MB] = max(st[PEAK_MB], theirs[PEAK_MB])

    def dump(self) -> dict:
        return {"stats": self.stats, "spans": self.spans}


class _Timer:
    __slots__ = ("_tracer", "_st", "_t0")

    def __init__(self, tracer: Tracer, st: list) -> None:
        self._tracer = tracer
        self._st = st

    def __enter__(self) -> None:
        self._tracer._child.append(0.0)
        self._t0 = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self._tracer._finish(self._st, time.perf_counter() - self._t0)
        self._st[CALLS] += 1


class _Span:
    def __init__(self, tracer: Tracer, name: str, start: float | None) -> None:
        self._tracer = tracer
        self._name = name
        self._start = start

    def __enter__(self) -> None:
        tracer = self._tracer
        now = time.monotonic()
        start = now if self._start is None else self._start
        self._index = len(tracer.spans)
        tracer.spans.append([self._name, start, None, tracer._open[-1]])
        tracer._open.append(self._index)
        tracer._child.append(0.0)
        self._t0 = time.perf_counter() - (now - start)

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        tracer.spans[self._index][2] = time.monotonic()
        tracer._open.pop()
        st = tracer._stat(self._name)
        tracer._finish(st, time.perf_counter() - self._t0)
        st[CALLS] += 1
