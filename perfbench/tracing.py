"""Span tracing installed from the benchmark's own files.

The tracer replaces the module attributes through which one occukit layer
calls the next with timing wrappers, and puts every original back on exit.
Each wrapped call is a span (name, start, end, parent). Spans are kept in
compact arrays in memory and written out once, at the end of the round; self
times are computed from the nesting as the spans close.

Only the main thread is traced: the Monte Carlo worker threads run code that
is not wrapped here.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        # Open spans: (span index, name id, start, time covered by children).
        self._stack: list[list[Any]] = []
        self.points = 0
        self.norm_misses = 0
        self._norm_id = self._id("core.occupancy_norm")
        self._dp_id = self._id("core.weight_sum_dp")
        self._norm_depth = 0

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def _begin(self, nid: int) -> list[Any]:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        if nid == self._norm_id:
            self._norm_depth += 1
        elif nid == self._dp_id and self._norm_depth:
            self.norm_misses += 1
        frame = [index, nid, 0.0, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        self.span_start.append(start)
        frame[2] = start
        return frame

    def _end(self, frame: list[Any]) -> None:
        end = time.perf_counter()
        index, nid, start, children = frame
        self._stack.pop()
        duration = end - start
        self.span_end[index] = end
        self.calls[nid] += 1
        self.total_s[nid] += duration
        self.self_s[nid] += duration - children
        if self._stack:
            self._stack[-1][3] += duration
        if nid == self._norm_id:
            self._norm_depth -= 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            frame = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end(frame)

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Each ``next`` on the returned iterator is one span, so the span
        self time is the per-point streaming work net of what it calls."""
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def stream() -> Iterator:
                while True:
                    frame = tracer._begin(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._end(frame)
                    tracer.points += 1
                    yield item

            return stream()

        return traced

    def stats(self, name: str) -> tuple[int, float, float]:
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total_s[nid], self.self_s[nid]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            names, starts, ends, parents = (
                self.span_name, self.span_start, self.span_end, self.span_parent
            )
            origin = starts[0] if starts else 0.0
            for i in range(len(names)):
                fh.write(
                    f"{i},{self.names[names[i]]},{starts[i] - origin:.9f},"
                    f"{ends[i] - origin:.9f},{parents[i]}\n"
                )


def _targets(occukit) -> list[tuple[Any, str, str, bool]]:
    """(owner, attribute, span name, is a generator) for every boundary.

    Each entry is the name one layer looks up to call the next, in the
    namespace of the caller, so the wrapper sees exactly those calls.
    """
    cli, core, inequality, moments, oracle, render = (
        occukit.cli, occukit.core, occukit.inequality,
        occukit.moments, occukit.oracle, occukit.render,
    )
    return [
        (core, "falling_factorial", "combinat.falling_factorial", False),
        (inequality, "falling_factorial", "combinat.falling_factorial", False),
        (moments, "stirling2", "combinat.stirling2", False),
        (core, "weight_sum_dp", "core.weight_sum_dp", False),
        (core, "occupancy_norm", "core.occupancy_norm", False),
        (moments, "occupancy_norm", "core.occupancy_norm", False),
        (inequality, "occupancy_norm", "core.occupancy_norm", False),
        (inequality, "weight_sum_table", "core.weight_sum_table", False),
        (moments, "raw_moment", "moments.raw_moment", False),
        (inequality, "check_inequality", "inequality.check_inequality", False),
        (inequality, "grid_search", "inequality.grid_search", True),
        (cli, "grid_search", "inequality.grid_search", True),
        (inequality.SweepSummary, "add", "inequality.summary_add", False),
        (render, "verdict_json_dict", "render.verdict_json_dict", False),
        (render, "verdict_csv_row", "render.verdict_csv_row", False),
        (cli, "main", "cli", False),
        (oracle, "exhaustive_pmf", "oracle.exhaustive_pmf", False),
        (oracle, "monte_carlo", "oracle.monte_carlo", False),
    ]


@contextmanager
def traced(occukit) -> Iterator[Tracer]:
    """Install the wrappers for the duration of the block, then restore."""
    tracer = Tracer()
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, name, is_generator in _targets(occukit):
            original = owner.__dict__[attr]
            wrap = tracer.wrap_generator if is_generator else tracer.wrap
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
