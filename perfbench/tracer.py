"""In-memory span recorder for the traced benchmark run.

Spans are opened by the benchmark around its calls into lrlm's public
functions; nothing inside lrlm is instrumented. A span's layer is the part of
its name before the first dot (``transformer.forward`` -> ``transformer``).
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records (name, start, end, parent, op id) for every span, in memory.

    ``workload`` tags each span with the workload that opened it, since a run
    also traces its companions and op ids restart in each.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.workload = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        record = {"name": name, "start": 0.0, "end": 0.0,
                  "parent": self._stack[-1] if self._stack else None,
                  "op": op, "workload": self.workload}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations_ms(self, name: str) -> list[float]:
        """Durations of the current workload's spans with this name."""
        return [(s["end"] - s["start"]) * 1e3 for s in self.spans
                if s["name"] == name and s["workload"] == self.workload]

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Each span's duration minus its direct children's, summed per layer."""
        child_total = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_total[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_total):
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - covered
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
