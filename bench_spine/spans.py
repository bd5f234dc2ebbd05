"""The benchmark's own in-memory span recorder.

Spans are taken from outside the program, around calls into its public
functions; the program's internal ``Tracer`` is never read, so moving or
renaming a span inside ``repro`` cannot move this benchmark.  Spans stay in
memory during the run and are written out once, after measuring.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path


class SpanRecorder:
    """Append-only span list; ``add`` is safe from any thread (list.append)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, request: int | None = None) -> int:
        span_id = next(self._ids)
        self.spans.append((span_id, name, start, end, parent, request))
        return span_id

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus its children's."""
        children: dict[int, float] = {}
        for _id, _name, start, end, parent, _req in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {}
        for span_id, name, start, end, _parent, _req in self.spans:
            own = (end - start) - children.get(span_id, 0.0)
            totals[name] = totals.get(name, 0.0) + max(own, 0.0)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")
