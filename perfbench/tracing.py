"""In-memory span recorder and per-layer aggregation for the traced run.

A span has a name, a layer (one of LAYERS, or None for the op's root), a
start, an end, the id of its parent span and the id of the op it belongs
to.  Spans are recorded from the benchmark's own code, around its calls into
gentomo's public functions; nothing inside ``src/`` is instrumented.

Work that happens inside one public call (the source quadrature and the
level evaluation inside ``forward_binned``) cannot be seen from outside.  It
is re-run on its own after the op ends and recorded as a *replay* span whose
parent is the call it stands in for.  A span's self time is its duration
minus the durations of its children, replays included, so the forward
layer's self time is the derived scatter cost.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

LAYERS = ("core", "geometry", "forward", "inverse", "formats", "cli")


class Tracer:
    """Collects spans in memory.

    With ``enabled`` false only root spans (layer None) are recorded, which
    is what the untraced ops use to time themselves.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.enabled = False
        self.op_id = 0
        self._stack: list[int] = []

    def _open(self, name, layer, parent, replay):
        rec = {"id": len(self.spans), "op": self.op_id, "name": name,
               "layer": layer, "parent": parent, "replay": replay,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        return rec

    def span(self, name: str, layer: str | None = None):
        if layer is not None and not self.enabled:
            return nullcontext({})
        return self._span(name, layer)

    @contextmanager
    def _span(self, name, layer):
        rec = self._open(name, layer, self._stack[-1] if self._stack else None,
                         False)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def replay(self, name: str, layer: str, parent: dict, fn):
        """Run ``fn`` as a stand-in child of the finished span ``parent``."""
        rec = self._open(name, layer, parent["id"], True)
        try:
            return fn()
        finally:
            rec["end"] = time.perf_counter()

    def op_spans(self, op_id: int) -> list[dict]:
        return [s for s in self.spans if s["op"] == op_id]


def op_seconds(spans: list[dict]) -> float:
    """Duration of the op's root span."""
    (root,) = [s for s in spans if s["parent"] is None and not s["replay"]]
    return root["end"] - root["start"]


def breakdown(spans: list[dict]) -> tuple[dict, dict, dict]:
    """Self seconds per layer, and summed duration and self seconds per span
    name, of one op's spans."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += dur[s["id"]]
    by_layer = dict.fromkeys(LAYERS, 0.0)
    by_name = defaultdict(float)
    self_by_name = defaultdict(float)
    for s in spans:
        own = dur[s["id"]] - covered[s["id"]]
        if s["layer"] is not None:
            by_layer[s["layer"]] += own
        by_name[s["name"]] += dur[s["id"]]
        self_by_name[s["name"]] += own
    return by_layer, by_name, self_by_name
