"""In-memory span tracer that wraps layer entry points by dotted name.

The ledger records spans from its own files, around the calls into each
layer: :class:`Tracer` resolves every target (``"pkg.mod.func"`` or
``"pkg.mod.Class.method"``), replaces it with a timing wrapper --
module-level functions in *every* loaded ``repro`` module that imported
the name, methods on their class -- and restores the originals on
:meth:`Tracer.uninstall`.  A target that no longer exists is skipped
with a warning and reported in :attr:`Tracer.missing`, so a refactor
that deletes a layer turns its metrics into ``null`` instead of
breaking the run.

Spans are ``(name, start, end, parent, count)`` tuples kept in memory per
tick; :meth:`Tracer.tick` opens the root span of one tick and folds the
finished tick into per-group totals:

``outer_s`` / ``calls``
    duration and count of the group's spans that are not nested inside
    another span of the same group (``GroupAggIndex.query`` calling
    ``AggRangeTree2D.query`` is one probe, not two);
``self_s``
    duration minus the part covered by child spans, summed over the
    group -- group self times partition the covered part of the tick;
``count``
    the sum of the group's per-call work counts (rows in, bytes out)
    where the target declares one.

Only the thread that created the tracer records; calls from other
threads pass straight through.  Install the tracer *after* worker
processes are forked, or the children inherit the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: Work-count extractor: ``(args, kwargs, result) -> number``.
CountFn = Callable[[tuple, dict, object], float]

#: Group of the per-tick root span opened by :meth:`Tracer.tick`.
ROOT = "tick"

_MISSING = object()


@dataclass(frozen=True)
class Target:
    """One callable to wrap: its dotted name and the span group it feeds."""

    name: str
    group: str
    count: CountFn | None = None


@dataclass
class TickFold:
    """Per-group totals of one traced tick (seconds / counts)."""

    tick: int
    duration: float
    spans: int
    outer_s: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    count: dict[str, float] = field(default_factory=dict)
    #: Largest ``children - duration`` over the tick's spans; > 0 would
    #: mean a child span outlived its parent (a tracer bug).
    max_child_excess: float = 0.0


def resolve(name: str) -> tuple[object, str, object]:
    """``(owner, attribute, current value)`` of a dotted target name.

    Raises ``LookupError`` when no importable module prefix holds the
    remaining attribute chain.
    """
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: object = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            break
    raise LookupError(name)


class Tracer:
    """Wraps :class:`Target`\\ s and folds their spans per tick."""

    def __init__(
        self,
        targets: list[Target],
        *,
        module_prefix: str = "repro",
        keep_ticks: int = 2,
    ):
        self.targets = targets
        self.module_prefix = module_prefix
        #: Raw spans of the first *keep_ticks* ticks are kept for the
        #: Chrome trace; later ticks are folded and dropped (a 5000-unit
        #: tick is ~150k spans).
        self.keep_ticks = keep_ticks
        self.groups: list[str] = [ROOT]
        #: Span id -> (callable's dotted name, group index); id 0 is the
        #: per-tick root.
        self._span_names: list[str] = [ROOT]
        self._span_group: list[int] = [0]
        self.missing: list[str] = []
        self.folds: list[TickFold] = []
        self.kept: list[tuple[int, list]] = []
        self._owner_thread = threading.get_ident()
        self._spans: list = []
        self._stack: list[int] = [-1]
        self._recording = False
        self._patches: list[tuple[object, str, object]] = []

    # -- install / uninstall ---------------------------------------------------

    def _span_id(self, target: Target) -> int:
        if target.group not in self.groups:
            self.groups.append(target.group)
        self._span_names.append(target.name)
        self._span_group.append(self.groups.index(target.group))
        return len(self._span_names) - 1

    def install(self) -> None:
        for target in self.targets:
            try:
                owner, attr, original = resolve(target.name)
            except LookupError:
                self.missing.append(target.name)
                warnings.warn(
                    f"ledger trace target {target.name!r} does not exist; "
                    f"its {target.group!r} metrics may read null",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            sid = self._span_id(target)
            if isinstance(owner, type):
                raw = vars(owner).get(attr, _MISSING)
                binder = (
                    type(raw)
                    if isinstance(raw, (staticmethod, classmethod))
                    else None
                )
                wrapper = self._wrap(
                    raw.__func__ if binder else original, sid, target.count
                )
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, binder(wrapper) if binder else wrapper)
                continue
            wrapper = self._wrap(original, sid, target.count)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (
                    mod_name == self.module_prefix
                    or mod_name.startswith(self.module_prefix + ".")
                ):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ----------------------------------------------------------------

    def _wrap(self, fn: Callable, sid: int, count: CountFn | None) -> Callable:
        tracer = self
        spans = self._spans
        stack = self._stack
        owner_thread = self._owner_thread
        get_ident = threading.get_ident
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._recording or get_ident() != owner_thread:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[index] = (sid, start, clock(), parent, 0)
                raise
            end = clock()
            stack.pop()
            work = count(args, kwargs, result) if count is not None else 0
            spans[index] = (sid, start, end, parent, work)
            return result

        return wrapper

    @contextmanager
    def tick(self, tick: int) -> Iterator[None]:
        """Record one tick: the root span plus every wrapped call inside."""
        spans = self._spans
        spans.clear()
        spans.append(None)
        self._stack[:] = [-1, 0]
        self._recording = True
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._recording = False
            self._stack[:] = [-1]
            spans[0] = (0, start, end, -1, 0)
            # a call that raised mid-tick leaves no half-open slots: the
            # wrappers fill theirs on the way out
            self.folds.append(self._fold(tick, spans))
            if len(self.kept) < self.keep_ticks:
                self.kept.append((tick, list(spans)))
            spans.clear()

    def _fold(self, tick: int, spans: list) -> TickFold:
        n_groups = len(self.groups)
        group_of = self._span_group
        outer = [0.0] * n_groups
        self_s = [0.0] * n_groups
        calls = [0] * n_groups
        work = [0.0] * n_groups
        children = [0.0] * len(spans)
        # bit g set <=> some ancestor of the span belongs to group g
        # (a parent always has a smaller index than its children)
        ancestors = [0] * len(spans)
        for index, (sid, start, end, parent, count) in enumerate(spans):
            gid = group_of[sid]
            duration = end - start
            if parent >= 0:
                children[parent] += duration
                ancestors[index] = ancestors[parent] | (
                    1 << group_of[spans[parent][0]]
                )
            work[gid] += count
            if not ancestors[index] & (1 << gid):
                outer[gid] += duration
                calls[gid] += 1
        excess = 0.0
        for index, (sid, start, end, _parent, _count) in enumerate(spans):
            duration = end - start
            self_s[group_of[sid]] += duration - children[index]
            excess = max(excess, children[index] - duration)
        names = self.groups
        return TickFold(
            tick=tick,
            duration=spans[0][2] - spans[0][1],
            spans=len(spans),
            outer_s=dict(zip(names, outer)),
            self_s=dict(zip(names, self_s)),
            calls=dict(zip(names, calls)),
            count=dict(zip(names, work)),
            max_child_excess=excess,
        )

    # -- output -------------------------------------------------------------------

    def write_chrome_trace(self, path: str) -> int:
        """Write the kept ticks as Chrome trace events, one per line.

        The file is a JSON array with one ``X`` (complete) event per
        line, timestamps in microseconds from the first kept span --
        loadable by Perfetto / ``chrome://tracing`` and by
        ``json.load``.  Returns the number of events written.
        """
        origin = self.kept[0][1][0][1] if self.kept else 0.0
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[\n")
            for tick, spans in self.kept:
                for index, (sid, start, end, parent, count) in enumerate(spans):
                    group = self.groups[self._span_group[sid]]
                    event = {
                        "name": self._span_names[sid],
                        "cat": group,
                        "ph": "X",
                        "ts": round((start - origin) * 1e6, 3),
                        "dur": round((end - start) * 1e6, 3),
                        "pid": 0,
                        "tid": 0,
                        "args": {"tick": tick, "id": index, "parent": parent},
                    }
                    if count:
                        event["args"]["count"] = count
                    fh.write(("," if written else "") + json.dumps(event) + "\n")
                    written += 1
            fh.write("]\n")
        return written
