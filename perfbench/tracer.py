"""Span tracer that wraps the program's functions from outside.

The tracer replaces module attributes (the names `twostate.cli` imports,
plus a few library entry points) with wrappers that record one span per
call: name, start, end, parent span and input sizes.  Spans stay in memory
until the run ends.  `uninstall` puts the original functions back, so
untraced cycles run the unmodified program.  Peak memory is measured by
`measure_memory`, which replays recorded calls under tracemalloc after the
run, so that no timed span carries tracemalloc's overhead.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    sizes: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _path_bytes(source) -> int:
    return os.path.getsize(source) if isinstance(source, (str, os.PathLike)) else 0


# Span name -> function of (args, kwargs, result) giving the span's sizes.
# Sizes are read from arguments by position, as the program's callers pass them.
SIZERS = {
    "simulate.generate": lambda a, k, r: {"steps": int(a[1])},
    "simulate.ensemble": lambda a, k, r: {"members": len(r)},
    "dataio.sequence_text": lambda a, k, r: {"bytes": len(r)},
    "dataio.parse_sequence": lambda a, k, r: {"bytes": _path_bytes(a[0]), "symbols": len(r)},
    "dataio.write_text_atomic": lambda a, k, r: {"bytes": len(a[1])},
    "dataio.parse_studies": lambda a, k, r: {"rows": len(r)},
    "runs.extract_runs": lambda a, k, r: {"symbols": len(a[0])},
}

# Spans whose peak traced memory is measured, and how many of their calls
# are kept for `measure_memory` to replay.
MEMORY_SPANS = {"simulate.generate"}
MEMORY_REPLAYS = 3


def span_name(fn) -> str:
    """'<module>.<function>' with the package prefix dropped, e.g. 'runs.extract_runs'."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records spans for the functions it wraps while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.sizing_errors: dict[str, str] = {}
        self.replays: list[tuple] = []  # (name, fn, args, kwargs) of MEMORY_SPANS calls
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self, bindings) -> None:
        """Wrap each (module, attribute[, name_of]) binding.

        `name_of`, when given, maps the call's arguments to the span name.
        A binding whose attribute no longer exists is recorded as absent.
        """
        for module, attr, *rest in bindings:
            fn = getattr(module, attr, None)
            if fn is None or not callable(fn):
                label = f"{module.__name__}.{attr}"
                if label not in self.absent:
                    self.absent.append(label)
                continue
            name_of = rest[0] if rest else None
            setattr(module, attr, self._wrap(fn, name_of))
            self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name_of):
        fixed = None if name_of else span_name(fn)
        sizer = SIZERS.get(fixed)
        memory = fixed in MEMORY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = fixed or name_of(args, kwargs)
            if memory and sum(r[0] == name for r in self.replays) < MEMORY_REPLAYS:
                self.replays.append((name, fn, args, kwargs))
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if sizer is not None:
                try:
                    span.sizes.update(sizer(args, kwargs, result))
                except Exception as exc:  # a changed signature must not stop the run
                    self.sizing_errors[name] = repr(exc)
            return result

        return wrapper

    def measure_memory(self) -> list[tuple[str, int, dict]]:
        """Replay the kept calls, untimed and one at a time, under tracemalloc.

        Returns (name, peak traced bytes, sizes) per replayed call.
        """
        peaks = []
        for name, fn, args, kwargs in self.replays:
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            sizer = SIZERS.get(name)
            peaks.append((name, peak, sizer(args, kwargs, result) if sizer else {}))
        return peaks


def report_problems(tracer: Tracer) -> None:
    if tracer.absent:
        print(f"# trace: absent layers {tracer.absent}", file=sys.stderr)
    for name, error in tracer.sizing_errors.items():
        print(f"# trace: could not size {name}: {error}", file=sys.stderr)
