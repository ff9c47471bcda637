"""A tiny structured event log.

The cluster simulator and the NDP-style recommendation service record what
they did (which pod was scheduled where, what was recommended and why) as a
list of :class:`LogRecord` entries.  Tests assert against these records, and
example scripts print them for a human-readable account of an online run.

The standard :mod:`logging` module is deliberately avoided: the log here is a
data structure that experiments consume, not a side channel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["LogRecord", "EventLog", "NullLog"]


@dataclass(frozen=True)
class LogRecord:
    """A single structured log entry.

    Attributes
    ----------
    seq:
        Monotonically increasing sequence number within the owning log.
    time:
        Simulation time (seconds) the event refers to; ``0.0`` when the
        emitting component is not time-aware.
    source:
        Short component name, e.g. ``"scheduler"`` or ``"banditware"``.
    event:
        Event name, e.g. ``"pod_scheduled"`` or ``"recommendation"``.
    detail:
        Free-form key/value payload.
    """

    seq: int
    time: float
    source: str
    event: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kv = " ".join(f"{k}={v!r}" for k, v in sorted(self.detail.items()))
        return f"[{self.seq:05d} t={self.time:.3f}] {self.source}:{self.event} {kv}"


class EventLog:
    """An append-only in-memory event log."""

    #: Whether :meth:`record` keeps anything.  Hot call sites check this
    #: first, so a disabled log costs neither the record nor its payload.
    enabled = True

    def __init__(self) -> None:
        self._records: List[LogRecord] = []
        self._counter = itertools.count()

    def record(self, source: str, event: str, time: float = 0.0, **detail: Any) -> LogRecord:
        """Append a record and return it."""
        rec = LogRecord(seq=next(self._counter), time=float(time), source=source, event=event, detail=dict(detail))
        self._records.append(rec)
        return rec

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def __getitem__(self, idx: int) -> LogRecord:
        return self._records[idx]

    def filter(self, source: Optional[str] = None, event: Optional[str] = None) -> List[LogRecord]:
        """Return records matching the given ``source`` and/or ``event``."""
        out = []
        for rec in self._records:
            if source is not None and rec.source != source:
                continue
            if event is not None and rec.event != event:
                continue
            out.append(rec)
        return out

    def clear(self) -> None:
        """Drop all records (the sequence counter keeps increasing)."""
        self._records.clear()


class NullLog(EventLog):
    """An :class:`EventLog` that silently discards everything.

    Used as the default log so that hot loops pay no bookkeeping cost unless
    the caller explicitly asks for a real log: it is disabled, so the
    simulator and the service skip their :meth:`record` calls altogether.
    """

    enabled = False

    def record(self, source: str, event: str, time: float = 0.0, **detail: Any) -> LogRecord:
        return LogRecord(seq=-1, time=float(time), source=source, event=event, detail=dict(detail))
