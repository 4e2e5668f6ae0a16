"""Out-of-program tracing for the benchmark's traced run.

The benchmark times calls into each layer's public functions by
replacing those functions, for the duration of a traced run, with thin
wrappers installed from this file.  Nothing under ``src/`` changes.

Two recording modes exist, chosen per call site:

* **span** - one record ``(span_id, op_id, name, parent_id, start, end,
  agg_child_s)`` per call, kept in memory and written once at the end.
  Used for calls that take milliseconds (LP builds, solves, slots).
* **aggregate** - only a call count, total time and self time per
  function.  Used for microsecond-scale hot calls (the delay model is
  called ~700k times per service drain), so the tracing overhead stays
  small enough to read the split.

A span's self time is its duration minus the time its children cover
(:func:`span_self_times`); the time of aggregate calls made directly
under a span is carried on the span as ``agg_child_s``.  A span must
not open under an aggregate call - the tracer raises if one does, since
that call's time would then be subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One kept span: (span_id, op_id, name, parent_id, start, end, agg_child_s).
Span = Tuple[int, int, str, Optional[int], float, float, float]

#: Counter hook run after a wrapped call: (counters, args, kwargs, result).
Hook = Callable[[Dict[str, float], tuple, dict, Any], None]

#: Layer name of the benchmark's own per-operation root spans.
OP_LAYER = "op"


@dataclass(frozen=True)
class Site:
    """One function the traced run wraps.

    Attributes:
        target: ``"module:qualname"`` of the function or method.
        name: recorded name, ``"<layer>.<what>"``.
        keep_span: span mode (True) or aggregate mode (False).
        hook: optional counter hook, run inside the timed call.
        nested: also record an aggregate call that runs inside another
            call of its own layer (span calls are always recorded).  A
            call into the delay model from the delay model is neither a
            call *into* the layer nor worth its recording cost.
    """

    target: str
    name: str
    keep_span: bool = True
    hook: Optional[Hook] = None
    nested: bool = False
    layer: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "layer", self.name.split(".", 1)[0])

    @property
    def record_nested(self) -> bool:
        return self.keep_span or self.nested


class _Frame:
    __slots__ = ("site", "start", "child_s", "agg_child_s", "span_id",
                 "parent_id", "layer_entry")

    def __init__(self, site: Site, start: float, span_id: Optional[int],
                 parent_id: Optional[int], layer_entry: bool) -> None:
        self.site = site
        self.start = start
        self.child_s = 0.0
        self.agg_child_s = 0.0
        self.span_id = span_id
        self.parent_id = parent_id
        self.layer_entry = layer_entry


class FuncStats:
    """Aggregate figures of one recorded name."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Call-stack tracer fed by the wrappers of :func:`instrument`.

    Calls made while no operation is open (see :meth:`op`) pass through
    unrecorded, so set-up work outside the measured operations does not
    show up in the split.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.funcs: Dict[str, FuncStats] = defaultdict(FuncStats)
        #: Per layer: time inside the layer, counted from outermost entry.
        self.layer_busy_s: Dict[str, float] = defaultdict(float)
        #: Per recorded name: calls entering its layer through it.
        self.entry_calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[_Frame] = []
        #: Per layer: recorded calls currently open.
        self.layer_depth: Dict[str, int] = defaultdict(int)
        #: Recorded calls opened so far (frames pushed).
        self.pushes = 0
        #: Fast-path aggregate sites: name -> [calls, seconds].
        self._fast: Dict[str, List[Any]] = {}
        self._next_span = 0
        self._op_id = -1

    # -- recording ---------------------------------------------------
    def op(self, name: str) -> "_OpScope":
        """Open the root span of one operation (a RunSpec or a slot)."""
        return _OpScope(self, Site(target="", name=f"{OP_LAYER}.{name}"))

    def call(self, fn: Callable, site: Site, args: tuple, kwargs: dict):
        """Run ``fn`` as one recorded call of ``site``."""
        stack = self._stack
        if not stack:
            return fn(*args, **kwargs)
        frame = self._push(site)
        try:
            result = fn(*args, **kwargs)
            if site.hook is not None:
                site.hook(self.counters, args, kwargs, result)
        finally:
            self._pop(frame)
        return result

    def _push(self, site: Site) -> _Frame:
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = None
        parent_id = None
        if site.keep_span:
            if parent is not None and parent.span_id is None:
                raise RuntimeError(
                    f"span {site.name} opened under aggregate call "
                    f"{parent.site.name}")
            span_id = self._next_span
            self._next_span += 1
            parent_id = parent.span_id if parent is not None else None
        self.pushes += 1
        layer = site.layer
        depth = self.layer_depth[layer]
        self.layer_depth[layer] = depth + 1
        frame = _Frame(site, self.clock(), span_id, parent_id, depth == 0)
        stack.append(frame)
        return frame

    def _pop(self, frame: _Frame) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        site = frame.site
        layer = site.layer
        self.layer_depth[layer] -= 1
        duration = end - frame.start
        stats = self.funcs[site.name]
        stats.calls += 1
        stats.self_s += duration - frame.child_s - frame.agg_child_s
        if frame.layer_entry:
            stats.total_s += duration
            self.entry_calls[site.name] += 1
            self.layer_busy_s[layer] += duration
        if stack:
            parent = stack[-1]
            if site.keep_span:
                parent.child_s += duration
            else:
                parent.agg_child_s += duration
        if site.keep_span:
            self.spans.append((frame.span_id, self._op_id, site.name,
                               frame.parent_id, frame.start, end,
                               frame.agg_child_s))

    # -- reduction ---------------------------------------------------
    def fold(self) -> None:
        """Move the fast-path totals into the per-name and per-layer
        tables (every fast-path call is a layer entry without
        recorded children)."""
        for name, (calls, seconds) in self._fast.items():
            layer = name.split(".", 1)[0]
            stats = self.funcs[name]
            stats.calls += calls
            stats.total_s += seconds
            stats.self_s += seconds
            self.entry_calls[name] += calls
            self.layer_busy_s[layer] += seconds
            totals = self._fast[name]
            totals[0], totals[1] = 0, 0.0

    def name_self_s(self) -> Dict[str, float]:
        """Self time per recorded name: from the kept spans for span
        names, from the live aggregates for aggregate names."""
        totals: Dict[str, float] = defaultdict(float)
        for span, self_s in zip(self.spans, span_self_times(self.spans)):
            totals[span[2]] += self_s
        for name, stats in self.funcs.items():
            if name not in totals:
                totals[name] = stats.self_s
        return dict(totals)

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer, including the ``op`` pseudo-layer (the
        part of each operation no wrapped layer covers)."""
        totals: Dict[str, float] = defaultdict(float)
        for name, self_s in self.name_self_s().items():
            totals[name.split(".", 1)[0]] += self_s
        return dict(totals)

    def op_wall_s(self) -> float:
        """Summed duration of the operations' root spans."""
        return sum(span[5] - span[4] for span in self.spans
                   if span[3] is None)

    def durations(self, names: Iterable[str]) -> List[float]:
        """Durations of every kept span with one of ``names``."""
        wanted = set(names)
        return [span[5] - span[4] for span in self.spans
                if span[2] in wanted]

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines (once, at the end)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(
                    {"id": span[0], "op": span[1], "name": span[2],
                     "parent": span[3], "start": span[4], "end": span[5],
                     "agg_child_s": span[6]}) + "\n")


class _OpScope:
    def __init__(self, tracer: Tracer, site: Site) -> None:
        self._tracer = tracer
        self._site = site
        self._frame: Optional[_Frame] = None

    def __enter__(self) -> "_OpScope":
        tracer = self._tracer
        if tracer._stack:
            raise RuntimeError("operations do not nest")
        tracer._op_id += 1
        self._frame = tracer._push(self._site)
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._frame is not None
        self._tracer._pop(self._frame)


def span_self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of each span: its duration minus the part of it that
    its child spans cover (their union, clipped to the span) and minus
    the aggregate calls recorded directly under it."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[4], span[5]))
    result = []
    for span_id, _op, _name, _parent, start, end, agg_child_s in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered - agg_child_s)
    return result


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``"module:Qual.name"`` -> (owner, attribute, raw attribute)."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    return owner, attr, raw


def _wrap(tracer: Tracer, fn: Callable, site: Site, fast: bool
          ) -> Callable:
    call = tracer.call
    if site.record_nested:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(fn, site, args, kwargs)
        return wrapper

    depth = tracer.layer_depth
    layer = site.layer
    if not fast:
        @functools.wraps(fn)
        def outermost(*args, **kwargs):
            if depth[layer]:
                return fn(*args, **kwargs)
            return call(fn, site, args, kwargs)
        return outermost

    # Fast path for hot aggregate calls in a layer where nothing nested
    # is recorded: no frame, just a count and a time per site.
    stack = tracer._stack
    clock = tracer.clock
    totals = tracer._fast.setdefault(site.name, [0, 0.0])

    @functools.wraps(fn)
    def fast_outermost(*args, **kwargs):
        if depth[layer] or not stack:
            return fn(*args, **kwargs)
        depth[layer] = 1
        pushes = tracer.pushes
        began = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            took = clock() - began
            depth[layer] = 0
            totals[0] += 1
            totals[1] += took
            stack[-1].agg_child_s += took
            if tracer.pushes != pushes:
                raise RuntimeError(f"a recorded call opened inside "
                                   f"aggregate call {site.name}")

    return fast_outermost


class instrument:
    """Context manager installing wrappers for ``sites`` on ``tracer``.

    Module-level functions are also replaced in every ``repro`` module
    that imported them by name; methods are replaced on the class that
    defines them.  Everything is restored on exit.
    """

    def __init__(self, tracer: Tracer, sites: Sequence[Site]) -> None:
        self._tracer = tracer
        self._sites = sites
        self._undo: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> Tracer:
        nested_layers = {site.layer for site in self._sites
                         if site.record_nested}
        try:
            for site in self._sites:
                self._install(site, fast=site.layer not in nested_layers)
        except BaseException:
            self._restore()
            raise
        return self._tracer

    def __exit__(self, *exc_info) -> None:
        self._tracer.fold()
        self._restore()

    def _install(self, site: Site, fast: bool) -> None:
        owner, attr, raw = _resolve(site.target)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(_wrap(self._tracer, raw.__func__, site,
                                          fast))
            self._set(owner, attr, raw, replacement)
            return
        wrapper = _wrap(self._tracer, raw, site, fast)
        self._set(owner, attr, raw, wrapper)
        if isinstance(owner, type):
            return
        for name, module in list(sys.modules.items()):
            if module is owner or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._set(module, key, raw, wrapper)

    def _set(self, owner: Any, attr: str, old: Any, new: Any) -> None:
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def _restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
