"""In-memory span recorder for the traced run.

A span has a name, a start, an end, a parent span and a request id.
Spans stay in parallel lists while the run lasts and are written out as
JSON lines only at the end.  A span's *self time* is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Dict


class Spans:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.rids = []
        self._open = []

    def begin(self, name: str, rid) -> None:
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.rids.append(rid)
        self.ends.append(0)
        self._open.append(len(self.starts))
        self.starts.append(perf_counter_ns())

    def end(self) -> int:
        """Close the innermost open span; return its duration in ns."""
        i = self._open.pop()
        self.ends[i] = perf_counter_ns()
        return self.ends[i] - self.starts[i]

    def add(self, name: str, rid, start_ns: int, end_ns: int) -> None:
        """A closed root span timed elsewhere (a request of the open
        loop, whose lifetimes overlap)."""
        self.names.append(name)
        self.parents.append(-1)
        self.rids.append(rid)
        self.starts.append(start_ns)
        self.ends.append(end_ns)

    def totals(self) -> Dict[str, dict]:
        """name → {count, total_ms, self_ms}."""
        child_ns = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        out: Dict[str, dict] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(name, {"count": 0, "total_ms": 0.0,
                                        "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += dur / 1e6
            row["self_ms"] += (dur - child_ns[i]) / 1e6
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for i, name in enumerate(self.names):
                f.write(json.dumps({
                    "id": i, "name": name, "rid": self.rids[i],
                    "parent": self.parents[i], "start_ns": self.starts[i],
                    "end_ns": self.ends[i]}) + "\n")
