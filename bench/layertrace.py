"""Layer tracing for the benchmark, done from outside ratval.

`Tracer.install()` replaces the public callables of each ratval layer
module (functions, and the public methods and operator methods of its
classes) with wrappers that record a span each: name, start, end and
parent span.  Functions are replaced in every ratval module that
imported them as well, so a call from another layer is seen.  The spans
are kept in flat arrays while the traced run lasts and are written out
when it ends; `uninstall()` puts the originals back.

The layers are the modules.  A layer's self time is the time of its
spans minus the time of their child spans.  Private helpers are not
wrapped: their time counts as self time of the public callable above.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import sys
import time
from array import array

LAYERS = ("fields", "groups", "series", "valuations", "homogeneous", "certificates")

# operator methods that count as public callables
_OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__neg__", "__pow__", "__lt__", "__le__", "__gt__", "__ge__",
    "__contains__", "__call__",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.measured: dict[int, int] = {}  # span index -> what its probe measured
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, probe=None):
        """`fn` recording one span per call; after the call returns,
        `probe(args, result)` gives a number to keep for the span."""
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        measured = self.measured
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                measured[idx] = probe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def mark(self) -> int:
        """Index of the next span, to delimit one operation's spans."""
        return len(self.start)

    # -- patching ratval ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, probes: dict | None = None) -> None:
        """Wrap the layers of the imported `ratval` package."""
        probes = probes or {}
        modules = [sys.modules["ratval"]] + [
            m for n, m in sorted(sys.modules.items()) if n.startswith("ratval.")]
        for layer in LAYERS:
            mod = sys.modules[f"ratval.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{layer}.{name}", obj, probes.get(f"{layer}.{name}"))
                    for m in modules:
                        if m.__dict__.get(name) is obj:
                            self._set(m, name, wrapped)
                elif isinstance(obj, type):
                    self._install_class(layer, obj, probes)
        cli = sys.modules["ratval.cli"]
        self._set(cli, "main", self.wrap("cli.main", cli.main))

    def _install_class(self, layer: str, cls: type, probes: dict) -> None:
        for attr, val in list(vars(cls).items()):
            public = not attr.startswith("_") or attr in _OPERATORS
            if attr == "__init__":
                # generated dataclass constructors are not the layer's code
                public = not dataclasses.is_dataclass(cls)
            if not public:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(val):
                self._set(cls, attr, self.wrap(name, val, probes.get(name)))
            elif isinstance(val, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(name, val.__func__, probes.get(name))))
            elif isinstance(val, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, val.__func__, probes.get(name))))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self, lo: int, hi: int) -> list[float]:
        """Self time of each span in [lo, hi)."""
        out = [self.end[i] - self.start[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                out[p - lo] -= self.end[i] - self.start[i]
        return out

    def outermost_time(self, lo: int, hi: int, match) -> float:
        """Time covered by spans whose name satisfies `match`, counting
        a matching span only when no ancestor of it matches."""
        hit = [match(n) for n in self.names]
        total = 0.0
        for i in range(lo, hi):
            if not hit[self.name[i]]:
                continue
            p = self.parent[i]
            while p >= lo and not hit[self.name[p]]:
                p = self.parent[p]
            if p < lo:
                total += self.end[i] - self.start[i]
        return total

    def write(self, directory: str) -> None:
        """The span names as JSON and each span field as a flat binary
        array (native byte order) of one entry per span."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "names.json"), "w") as fh:
            json.dump(self.names, fh)
        for field in ("name", "parent", "start", "end"):
            with open(os.path.join(directory, f"{field}.bin"), "wb") as fh:
                getattr(self, field).tofile(fh)
