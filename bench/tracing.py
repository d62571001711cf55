"""Spans around the benchmark's calls into tclean's public layer functions.

A job opens a root span; every call into a layer (``gadgets.build``,
``sim.run``, ...) is a child span of it.  Spans carry name, start, end,
parent and job id, are kept in memory, and are written as JSON when the
run ends.  A span's self time is its duration minus the part of it that its
children cover.  The untraced run uses :class:`NullTracer`, which only
forwards the call.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class NullTracer:
    """Forwards layer calls; records nothing."""

    @contextmanager
    def job(self, job_id: int):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, key: str, value: float) -> None:
        pass

    def peak(self, key: str, value: float) -> None:
        pass


class Tracer(NullTracer):
    """In-memory span and counter recorder."""

    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index or None, job id]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._job = -1

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self._job])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def job(self, job_id: int):
        self._job = job_id
        idx = self._begin("job")
        try:
            yield
        finally:
            self._end(idx)

    def call(self, name: str, fn, *args, **kwargs):
        idx = self._begin(name)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counters[name + ".errors"] += 1
            raise
        finally:
            self._end(idx)

    def add(self, key: str, value: float) -> None:
        self.counters[key] += value

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks[key], value)

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in milliseconds."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            covered = 0
            reach = start
            for c_start, c_end in sorted(children.get(idx, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] += (end - start - covered) / 1e6
        return dict(totals)

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[0]] += 1
        return dict(counts)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "job")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counters": dict(self.counters), "peaks": dict(self.peaks)}, fh)
