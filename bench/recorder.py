"""Timing, tracing and outcome accounting for one pass over a workload.

Every call the benchmark makes into gtlie goes through ``Recorder.call``.
Untraced, that is a plain call.  Traced, it records one span (name, start,
end, the item span that caused it) and the call's own tracemalloc peak, and
sums seconds and calls per ``<module>.<function>``.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import time
import traceback
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

MIB = float(1 << 20)


class Mismatch(Exception):
    """An output disagrees with the benchmark's oracle."""


class Recorder:
    def __init__(self, traced: bool = False):
        self.traced = traced
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.seconds: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.peak_mb: dict = defaultdict(float)
        self.counts: dict = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # operations that failed without a wrong answer
        self.errors: list[str] = []  # wrong answers and exceptions: the run is not correct
        self.top_rung_s = 0.0
        self._item_name = ""
        self._item_id = None

    def _now(self) -> float:
        return time.perf_counter() - self.origin

    @contextmanager
    def item(self, name: str, top: bool = False):
        """One workload item; top_rung_s sums the items marked top.  A
        mismatch or exception ends the item, counts as a failed operation
        and makes the run incorrect."""
        self._item_name = name
        self._item_id = len(self.spans)
        start = self._now()
        if self.traced:
            self.spans.append({"id": self._item_id, "name": name, "parent": None, "start": start})
        try:
            yield
        except Mismatch as exc:
            self.failed += 1
            self.errors.append(f"{name}: {exc}")
        except Exception:
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{name}: {traceback.format_exc()}")
        finally:
            end = self._now()
            if self.traced:
                self.spans[self._item_id]["end"] = end
            if top:
                self.top_rung_s += end - start

    def call(self, name: str, fn, *args):
        if not self.traced:
            return fn(*args)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        start = self._now()
        try:
            return fn(*args)
        finally:
            end = self._now()
            peak = (tracemalloc.get_traced_memory()[1] - before) / MIB
            self.spans.append(
                {"id": len(self.spans), "name": name, "parent": self._item_id,
                 "start": start, "end": end, "peak_mb": peak}
            )
            self.seconds[name] += end - start
            self.calls[name] += 1
            self.peak_mb[name] = max(self.peak_mb[name], peak)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def high_water(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts[name], value)

    def check(self, ok: bool, what: str) -> None:
        """An oracle check: a mismatch is a wrong answer."""
        self.attempted += 1
        if not ok:
            raise Mismatch(what)

    def outcome(self, ok: bool, what: str) -> None:
        """An operation that can fail without a wrong answer: a false
        negative of the solver or of a grading, or a refusal by the memory
        guard."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{self._item_name}: {what}")
