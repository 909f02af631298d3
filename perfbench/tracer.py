"""In-memory span tracer that wraps mevid's public functions from outside.

A wrapper replaces a function wherever callers look it up at call time:
the attribute of its class, or every mevid module global bound to it
(`from .features import load_mvff` makes such a copy). Each call records
one span `[name, parent id, start, end]`, in seconds of
`time.perf_counter`. Leaving `installed` restores the originals, so the
program runs unchanged once tracing ends.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import sys
import time

# Span names that stand for a layer of the program. Spans of public tensor
# ops (`tensor.op.<kind>`) are not layers: their time counts toward the
# nearest enclosing layer span, or toward `tensor.outside_layers` when a
# caller outside every layer (the training loop) runs the op itself.
OP_PREFIX = "tensor.op."


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        # keyed by the id of the span the call opens
        self.taped_ops: dict[int, int] = {}               # len(tape) at backward
        self.matmul: dict[int, tuple[int, int]] = {}      # (flops, bytes)
        self._stack = [-1]
        self._starts: list[float] | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, before=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [name, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _install(self, targets) -> None:
        """Wrap each `(span name, owner, attribute)`; owner is a class or module."""
        for name, owner, attr in targets:
            original = getattr(owner, attr)
            before = None
            if name == OP_PREFIX + "matmul":
                before = self._count_matmul
            elif name == "tensor.backward":
                before = self._count_tape
            wrapper = self._wrap(name, original, before)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in _mevid_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def _uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap `targets` for the duration of a `with` block."""
        self._install(targets)
        try:
            yield self
        finally:
            self._uninstall()

    def _count_matmul(self, args) -> None:
        a, b = args[0].data, args[1].data
        batch = max(a.shape[0] if a.ndim == 3 else 1, b.shape[0] if b.ndim == 3 else 1)
        m, k, n = a.shape[-2], a.shape[-1], b.shape[-1]
        out_bytes = batch * m * n * a.itemsize
        self.matmul[len(self.spans)] = (2 * batch * m * k * n,
                                        a.nbytes + b.nbytes + out_bytes)

    def _count_tape(self, args) -> None:
        self.taped_ops[len(self.spans)] = len(args[0])

    # -- analysis -----------------------------------------------------------

    def ends(self, name: str, lo: float = float("-inf")) -> list[float]:
        """End times of the spans called `name` that start at or after `lo`."""
        return [s[3] for s in self.spans if s[0] == name and s[2] >= lo]

    def window(self, lo: float, hi: float) -> list[int]:
        """Ids of the spans that lie wholly inside [lo, hi].

        Spans are appended when they open, so start times never decrease
        with the id and a bisection finds the range.
        """
        if self._starts is None or len(self._starts) != len(self.spans):
            self._starts = [s[2] for s in self.spans]
        first = bisect.bisect_left(self._starts, lo)
        last = bisect.bisect_right(self._starts, hi)
        return [i for i in range(first, last) if self.spans[i][3] <= hi]

    def layer_times(self, ids: list[int]) -> dict[str, float]:
        """Self time per layer, in seconds, over the given spans.

        A layer's self time is its span's duration minus the spans of other
        layers that it encloses; the tensor ops it calls stay in its time.
        Top-level ops go to `tensor.outside_layers`. The values sum to the
        total duration of the top-level spans among `ids`.
        """
        spans = self.spans
        chosen = set(ids)
        out: dict[str, float] = {}
        for i in ids:
            name, parent, start, end = spans[i]
            dur = end - start
            if name.startswith(OP_PREFIX):
                if parent == -1 or parent not in chosen:
                    out["tensor.outside_layers"] = out.get("tensor.outside_layers", 0.0) + dur
                continue
            out[name] = out.get(name, 0.0) + dur
            layer = _enclosing_layer(spans, parent)
            if layer is not None and layer in chosen:
                lname = spans[layer][0]
                out[lname] = out.get(lname, 0.0) - dur
        return out

    def op_stats(self, ids: list[int]) -> tuple[dict[str, int], float]:
        """Calls per op kind, and seconds inside public ops (nested ops once)."""
        spans = self.spans
        calls: dict[str, int] = {}
        inside = 0.0
        for i in ids:
            name, parent, start, end = spans[i]
            if not name.startswith(OP_PREFIX):
                continue
            kind = name[len(OP_PREFIX):]
            calls[kind] = calls.get(kind, 0) + 1
            if parent == -1 or not spans[parent][0].startswith(OP_PREFIX):
                inside += end - start
        return calls, inside

    def top_level_seconds(self, ids: list[int]) -> float:
        chosen = set(ids)
        return sum(self.spans[i][3] - self.spans[i][2] for i in ids
                   if self.spans[i][1] not in chosen)

    def dump(self, path, meta: dict) -> None:
        """Write every span: names are indexed, times are microseconds."""
        names: dict[str, int] = {}
        rows = []
        for name, parent, start, end in self.spans:
            idx = names.setdefault(name, len(names))
            rows.append([idx, parent, round(start * 1e6, 1), round(end * 1e6, 1)])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "names": list(names),
                       "fields": ["name", "parent", "start_us", "end_us"],
                       "spans": rows}, fh, separators=(",", ":"))


def _enclosing_layer(spans, parent: int):
    while parent != -1:
        if not spans[parent][0].startswith(OP_PREFIX):
            return parent
        parent = spans[parent][1]
    return None


def _mevid_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mevid" or name.startswith("mevid."))]
