"""In-memory spans around calls into the public lchoice functions.

The tracer patches module and class attributes from the outside, so the
package itself carries no instrumentation.  Each span records its name,
start, end, parent span and the id of the workload run it belongs to; spans
stay in memory until `dump` writes them out at the end of the benchmark.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0  # summed duration of the direct child spans

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._stack.pop()
            sp = self.spans[idx]
            sp.end = time.perf_counter()
            if parent is not None:
                self.spans[parent].child_time += sp.duration

    def wrap(self, owner: object, attr: str, name: str, annotate=None) -> None:
        """Replace ``owner.attr`` with a spanned call; `restore` undoes it.

        ``annotate(args, kwargs, result)`` may return extra span attributes;
        keys starting with ``_`` are kept in memory but not written out.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = original(*args, **kwargs)
            if annotate is not None:
                sp.attrs.update(annotate(args, kwargs, result))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the spans back -------------------------------------------

    def named(self, name: str, runs=None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (runs is None or s.run in runs)]

    def children(self, span: Span, name: str) -> list[Span]:
        idx = self.spans.index(span)
        return [s for s in self.spans if s.parent == idx and s.name == name]

    def per_run_total(self, name: str, runs, self_only: bool = False) -> list[float]:
        """For each run id, the summed (self) time of the spans called ``name``."""
        totals = {r: 0.0 for r in runs}
        for s in self.named(name, runs):
            totals[s.run] += s.duration - s.child_time if self_only else s.duration
        return list(totals.values())

    def dump(self, path: str, header: dict) -> None:
        rows = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "run": s.run, "self": s.duration - s.child_time,
                 "attrs": {k: v for k, v in s.attrs.items() if not k.startswith("_")}}
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"header": header, "spans": rows}, fh)


def median_or_zero(values) -> float:
    """Median of the samples; 0 when the workload does not exercise the layer."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
