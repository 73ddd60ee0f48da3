"""Spans and counters recorded from outside the program.

A :class:`Tracer` rebinds public names at each layer boundary (for example
``tdam.model.selective_scan`` or ``Tensor.backward``) to wrappers that open a
span, call the original and close the span. Spans carry a name, a start, an
end, a parent span and the operation they belong to; they stay in memory and
are written out when the run ends. Every rebound name is restored on exit,
so untraced runs execute the program exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, parent, op
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self.active = True  # False while the benchmark's own checks call the program
        self.context: list[str] = []  # caller-defined labels, innermost last (e.g. forward mode)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- rebinding ---------------------------------------------------------

    def wrap(self, owner, attr: str, name, on_return=None, scope=None) -> None:
        """Rebind ``owner.attr`` so each call is recorded as a span.

        ``name`` is a string or a callable ``(tracer, args, kwargs) -> str``
        evaluated per call. ``scope(args, kwargs)`` gives a label pushed on
        :attr:`context` for the duration of the call. ``on_return(tracer,
        args, kwargs, result)`` may record counts taken from the call's
        inputs and result.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if scope is not None:
                tracer.context.append(scope(args, kwargs))
            label = name if isinstance(name, str) else name(tracer, args, kwargs)
            idx = tracer.open(label)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
                if scope is not None:
                    tracer.context.pop()
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_plain(self, owner, attr: str, before) -> None:
        """Rebind ``owner.attr`` to call ``before(tracer, args, kwargs)`` first; no span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if tracer.active:
                before(tracer, args, kwargs)
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf(), 0.0, parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, perf(), parent, op)
        self._stack.pop()

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return any(self.spans[idx][0] == name for idx in self._stack)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children.

        The program is single-threaded, so children of one span never
        overlap and their union is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def dump(self, path: Path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)
            fh.write("\n")
