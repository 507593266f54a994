"""Spans around sonckit's public functions, installed from outside.

The tracer rebinds module attributes (including by-name imports such as
``sonckit.bounds.enumerate_circuits``) to wrappers and restores them on
``uninstall``.  Each wrapped call adds its duration to its parent's child
time, so self time is the span minus its child spans.  Coarse calls are
kept as spans (name, start, end, parent span, operation id) in memory;
hot inner calls are only aggregated, and the hottest are only counted, so
their time stays in the caller's self time.  Times are process CPU time,
the clock the benchmark's operation latencies use.
"""

from __future__ import annotations

import functools
import json
from time import process_time

SPAN = "span"    # timed, aggregated and kept as a span
TIMED = "timed"  # timed and aggregated only
COUNT = "count"  # call count only


class Stat:
    __slots__ = ("calls", "total", "self_time", "tally")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.tally = 0  # per-target outcome count: hits, rejects, circuits built


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.op_id = -1
        self.enabled = False
        self._child_time: list[float] = []
        self._open_spans: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def call(self, name: str, mode: str, tally, fn, *args, **kwargs):
        """Run fn under a span named `name`; plain call when disabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stat = self.stat(name)
        span_id = parent = None
        if mode == SPAN:
            span_id = self._next_id
            self._next_id += 1
            parent = self._open_spans[-1] if self._open_spans else None
            self._open_spans.append(span_id)
        self._child_time.append(0.0)
        start = process_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = process_time()
            child = self._child_time.pop()
            duration = end - start
            if self._child_time:
                self._child_time[-1] += duration
            stat.calls += 1
            stat.total += duration
            stat.self_time += duration - child
            if mode == SPAN:
                self._open_spans.pop()
                self.spans.append((span_id, name, start, end, parent, self.op_id))
        if tally is not None:
            stat.tally += tally(result)
        return result

    def patch(self, owner, attr: str, name: str, mode: str = SPAN, tally=None, impl=None) -> bool:
        """Rebind owner.attr to a traced wrapper around `impl` (default: the
        attribute itself); False when the attribute does not exist."""
        original = getattr(owner, attr, None)
        if original is None:
            return False
        target = impl or original
        if mode == COUNT:
            stat = self.stat(name)

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                stat.calls += 1
                return target(*args, **kwargs)
        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return self.call(name, mode, tally, target, *args, **kwargs)

        # functools.wraps does not carry lru_cache's methods over.
        for extra in ("cache_info", "cache_clear"):
            if hasattr(original, extra):
                setattr(wrapper, extra, getattr(original, extra))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return True

    def install(self) -> None:
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
