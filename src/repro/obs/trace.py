"""Epoch-correlated Chrome trace-event recorder.

Writes the `Trace Event Format`_ JSON array -- one event per line, the
closing bracket only on :meth:`TraceRecorder.close` -- so a crash mid-
run still leaves a file Perfetto and ``about:tracing`` load (both
tolerate a missing terminator), while a clean close yields well-formed
JSON that ``json.loads`` accepts.

Event vocabulary:

* ``X`` (complete) spans for tick stages, worker round trips, publisher
  fan-out, and epoch-log encode/write/fsync; ``ts``/``dur`` are in
  microseconds on the ``perf_counter`` clock, and ``args`` always
  carries the owning ``epoch`` so a tick's spans correlate across
  threads and workers.
* ``i`` (instant) events for faults -- worker respawns,
  STALE snapshot re-feeds, subscriber drops -- and slow-tick flags.
* ``M`` (metadata) events naming the process and the logical tracks
  (coordinator, per-worker RTT rows, publisher, epoch-log writer).

Timestamps come from ``time.perf_counter()`` rescaled to microseconds
from the recorder's birth; they are diagnostics only and never touch
simulation state, so tracing cannot perturb a trajectory.

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
import os
import threading
import time
from types import TracebackType

__all__ = ["TraceRecorder", "load_trace", "TID_MAIN", "TID_PUBLISHER",
           "TID_LOG", "TID_WORKER_BASE"]

#: Logical track ids -- Chrome renders one row per (pid, tid).
TID_MAIN = 0          #: the coordinator's tick loop
TID_PUBLISHER = 1     #: spectator publisher fan-out
TID_LOG = 2           #: epoch-log background writer
TID_WORKER_BASE = 10  #: worker i's round-trip row is TID_WORKER_BASE + i


class TraceRecorder:
    """Append-only trace writer shared by every instrumented layer.

    Thread-safe: the tick thread, the epoch-log writer thread, and any
    exposition thread may emit concurrently.  ``null`` recorders are
    represented by ``None`` at the call sites (one ``if`` on the hot
    path), not by a null object -- span bookkeeping allocates, so the
    branch must skip it entirely when tracing is off.
    """

    def __init__(self, path: str, pid: int | None = None) -> None:
        self.path = path
        self.pid = os.getpid() if pid is None else pid
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._fh = open(path, "w", encoding="utf-8", buffering=1 << 16)
        self._fh.write("[\n")
        self._closed = False
        self._first = True
        self.events_written = 0
        self.meta("process_name", {"name": "repro-coordinator"})
        self.thread_name(TID_MAIN, "tick pipeline")

    # -- clock ---------------------------------------------------------

    def now(self) -> float:
        """Microseconds since recorder birth (perf_counter clock)."""
        return (time.perf_counter() - self._t0) * 1e6

    # -- raw emit ------------------------------------------------------

    def _emit(self, event: dict[str, object]) -> None:
        line = json.dumps(event, separators=(",", ":"))
        with self._lock:
            if self._closed:
                return
            if self._first:
                self._first = False
            else:
                self._fh.write(",\n")
            self._fh.write(line)
            self.events_written += 1

    # -- event vocabulary ----------------------------------------------

    def complete(self, name: str, cat: str, ts: float, dur: float, *,
                 tid: int = TID_MAIN, epoch: int | None = None,
                 **args: object) -> None:
        """An ``X`` span: *ts* from :meth:`now`, *dur* in microseconds."""
        if epoch is not None:
            args["epoch"] = epoch
        self._emit({
            "name": name, "cat": cat, "ph": "X",
            "ts": round(ts, 3), "dur": round(dur, 3),
            "pid": self.pid, "tid": tid, "args": args,
        })

    def complete_perf(self, name: str, cat: str, start_perf: float,
                      end_perf: float, *, tid: int = TID_MAIN,
                      epoch: int | None = None, **args: object) -> None:
        """An ``X`` span from raw ``time.perf_counter()`` readings --
        lets instrumented code reuse the timings it already takes."""
        ts = (start_perf - self._t0) * 1e6
        self.complete(
            name, cat, ts, (end_perf - start_perf) * 1e6,
            tid=tid, epoch=epoch, **args,
        )

    def instant(self, name: str, cat: str, *, tid: int = TID_MAIN,
                epoch: int | None = None, **args: object) -> None:
        """An ``i`` marker (faults, watchdog flags) at the current time."""
        if epoch is not None:
            args["epoch"] = epoch
        self._emit({
            "name": name, "cat": cat, "ph": "i", "s": "t",
            "ts": round(self.now(), 3),
            "pid": self.pid, "tid": tid, "args": args,
        })

    def meta(
        self, name: str, args: dict[str, object], *, tid: int = TID_MAIN
    ) -> None:
        self._emit({
            "name": name, "ph": "M", "ts": 0,
            "pid": self.pid, "tid": tid, "args": args,
        })

    def thread_name(self, tid: int, name: str) -> None:
        self.meta("thread_name", {"name": name}, tid=tid)

    # -- span helper ---------------------------------------------------

    def span(self, name: str, cat: str, *, tid: int = TID_MAIN,
             epoch: int | None = None, **args: object) -> "_Span":
        """``with recorder.span(...):`` emits one complete event."""
        return _Span(self, name, cat, tid, epoch, args)

    # -- lifecycle -----------------------------------------------------

    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._fh.write("\n]\n")
            self._fh.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


class _Span:
    __slots__ = ("_rec", "_name", "_cat", "_tid", "_epoch", "_args", "_ts")

    def __init__(
        self,
        rec: TraceRecorder,
        name: str,
        cat: str,
        tid: int,
        epoch: int | None,
        args: dict[str, object],
    ) -> None:
        self._rec = rec
        self._name = name
        self._cat = cat
        self._tid = tid
        self._epoch = epoch
        self._args = args
        self._ts = 0.0

    def __enter__(self) -> "_Span":
        self._ts = self._rec.now()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        rec = self._rec
        rec.complete(
            self._name, self._cat, self._ts, rec.now() - self._ts,
            tid=self._tid, epoch=self._epoch, **self._args,
        )


def load_trace(path: str) -> list[dict[str, object]]:
    """Parse a trace file back to its event list.

    Accepts both the cleanly-closed well-formed array and a crash-torn
    file missing the terminator (the same leniency the viewers apply).
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        events: list[dict[str, object]] = json.loads(text)
        return events
    except json.JSONDecodeError:
        body = text.strip()
        if body.startswith("["):
            body = body[1:]
        body = body.rstrip().rstrip(",")
        events = json.loads(f"[{body}]")
        return events
