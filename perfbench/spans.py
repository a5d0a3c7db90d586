"""In-memory spans around layer calls, and the statistics built from them.

A span records one call into a layer: its name (``layer`` or
``layer.operation``), start and end on ``time.perf_counter``, the index of
the span that was open when it started, and the frame it served.  A span's
self time is its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

# A percentile is reported only with at least this many samples above it.
MIN_TAIL_SAMPLES = 10
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    frame: Optional[int]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records nested spans in call order."""

    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, frame: Optional[int]):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), float("nan"), parent, frame)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def to_json(self) -> List[dict]:
        return [asdict(s) for s in self.spans]


class NullTracer:
    """Same interface as :class:`Tracer`, records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str, frame: Optional[int]):
        return self._null


def self_times(spans: Sequence[Span]) -> List[float]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children are counted once.
    """
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def busy_by_layer(spans: Sequence[Span]) -> Dict[str, float]:
    """Sum of self time per layer, in seconds."""
    out: Dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        out[s.layer] = out.get(s.layer, 0.0) + t
    return out


def samples_beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the q-th percentile."""
    arr = np.asarray(values, dtype=float)
    return int(np.count_nonzero(arr > np.percentile(arr, q)))


def tail_percentile(values: Sequence[float]) -> Optional[float]:
    """The highest candidate percentile with enough samples above it."""
    if len(values) == 0:
        return None
    for q in TAIL_CANDIDATES:
        if samples_beyond(values, q) >= MIN_TAIL_SAMPLES:
            return q
    return None


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles, p90 and the supported tail, with the sample count."""
    n = len(values)
    if n == 0:
        return {"n": 0}
    arr = np.asarray(values, dtype=float)
    q25, q50, q75, q90 = np.percentile(arr, [25, 50, 75, 90])
    tail = tail_percentile(arr)
    return {"n": n, "p25": float(q25), "p50": float(q50), "p75": float(q75),
            "p90": float(q90), "p90_samples_beyond": samples_beyond(arr, 90),
            "tail_q": tail,
            "tail": None if tail is None else float(np.percentile(arr, tail))}
