"""In-memory spans recorded from outside the program.

The benchmark wraps the program's public functions and methods: module
attributes that callers look up at call time, instance attributes that
shadow a class method, and class methods. Nothing in ``src/`` changes.
Each span keeps a name, a start, an end and the index of the span that
was open when it started. ``uninstall`` puts every original back.
"""

import json
import time


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._restore: list = []

    # -- recording -----------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, n: int):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` recorded as one span per call; ``on_call(args, result)`` counts."""

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """One span per item a generator function yields."""

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self.begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.end(idx)
                yield item

        return traced

    # -- installing ----------------------------------------------------
    def patch(self, owner, attr: str, replacement):
        """Set ``owner.attr``; ``uninstall`` restores or deletes it."""
        if attr in vars(owner):
            original = vars(owner)[attr]
            self._restore.append(lambda: setattr(owner, attr, original))
        else:
            self._restore.append(lambda: delattr(owner, attr))
        setattr(owner, attr, replacement)

    def patch_function(self, module, attr: str, name: str, on_call=None):
        self.patch(module, attr, self.wrap(name, getattr(module, attr), on_call))

    def trace_layers(self, net, label: str):
        """Span every layer's forward and backward as layers.<label>.<kind>.<ordinal>."""
        seen: dict[str, int] = {}
        for layer in net.layers:
            seen[layer.kind] = seen.get(layer.kind, 0) + 1
            base = f"layers.{label}.{layer.kind}.{seen[layer.kind]}"
            self.patch(layer, "forward", self.wrap(base + ".fwd", layer.forward))
            self.patch(layer, "backward", self.wrap(base + ".bwd", layer.backward))

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    # -- analysis ------------------------------------------------------
    def spans(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]

    def spans_with_prefix(self, prefix: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n.startswith(prefix)]

    def root_name(self, idx: int) -> str:
        """Name of the outermost span that encloses span ``idx``."""
        while self.parents[idx] >= 0:
            idx = self.parents[idx]
        return self.names[idx]

    def durations(self, name: str) -> list[float]:
        return [self.ends[i] - self.starts[i] for i in self.spans(name)]

    def self_times(self, t0: float = float("-inf"), t1: float = float("inf")) -> dict[str, float]:
        """Seconds per span name inside [t0, t1], minus the time its children cover."""

        def clipped(i):
            return max(0.0, min(self.ends[i], t1) - max(self.starts[i], t0))

        totals: dict[str, float] = {}
        for i, name in enumerate(self.names):
            totals[name] = totals.get(name, 0.0) + clipped(i)
            p = self.parents[i]
            if p >= 0:
                totals[self.names[p]] -= clipped(i)
        return totals

    def dump(self, path: str, label: str):
        """Append the spans as JSON lines tagged with ``label``."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "trace": label, "id": i, "name": name, "start": self.starts[i],
                    "end": self.ends[i], "parent": self.parents[i],
                }) + "\n")
