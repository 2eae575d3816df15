"""In-memory span store for the traced benchmark run.

A span is (name, start, end, parent, query id).  Spans are recorded by the
benchmark around its calls into the library's modules; the part of a name
before the first '.' is the layer.  Spans live in flat arrays until the run
ends, when `write` dumps them as gzipped JSON lines.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array

LAYERS = (
    "cli",
    "core",
    "setops",
    "constants",
    "theorems",
    "sweep",
    "localization",
    "transform",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("q")

    def begin(self, name: str, parent: int = -1, query: int = -1) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.query.append(query)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return len(self.start) - 1

    def finish(self, sid: int):
        self.end[sid] = time.perf_counter()

    def call(self, name: str, parent: int, query: int, fn, *args):
        """fn(*args) inside a span, which is closed even if fn raises."""
        sid = self.begin(name, parent, query)
        try:
            return fn(*args)
        finally:
            self.finish(sid)

    def durations_by_name(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for i in range(len(self.start)):
            out.setdefault(self.names[self.name_id[i]], []).append(
                self.end[i] - self.start[i]
            )
        return out

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Each layer's span time minus the part its child spans cover."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {layer: 0.0 for layer in LAYERS}
        for i in range(len(self.start)):
            layer = self.names[self.name_id[i]].partition(".")[0]
            if layer in out:
                out[layer] += self.end[i] - self.start[i] - child[i]
        return out

    def cost_per_span(self, samples: int = 20000) -> float:
        """Seconds of bookkeeping one begin/finish pair adds, measured on a
        scratch tracer so the real store is left as it is."""
        scratch = Tracer()
        t0 = time.perf_counter()
        for _ in range(samples):
            scratch.finish(scratch.begin("x"))
        return (time.perf_counter() - t0) / samples

    def write(self, path: str, header: dict):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.name_id[i]],
                            round(self.start[i], 9),
                            round(self.end[i], 9),
                            self.parent[i],
                            self.query[i],
                        ]
                    )
                    + "\n"
                )
