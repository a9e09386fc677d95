"""Simulation events.

Events carry a timestamp, a kind, an integer priority used to order
same-time events deterministically, and an arbitrary payload.  The total
order is :meth:`Event.sort_key`, ``(time, priority, seq)``, where ``seq``
is a monotonically increasing insertion counter, so no two events share
a key and queue order is stable and reproducible.

The counter is module-level process state.  Crash-safe resume
(:mod:`repro.durability`) must restore it alongside the event heap —
otherwise events created after a resume would receive *smaller* sequence
numbers than events already in the heap, silently changing same-time
tie-breaks relative to an uninterrupted run.  :func:`snapshot_seq` and
:func:`restore_seq` exist for exactly that.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.kernel import EventQueue

__all__ = ["Event", "EventKind", "snapshot_seq", "restore_seq"]

_seq = 0


def _next_seq() -> int:
    global _seq
    value = _seq
    _seq += 1
    return value


def snapshot_seq() -> int:
    """Current value of the global event sequence counter."""
    return _seq


def restore_seq(value: int) -> None:
    """Restore the global event sequence counter (resume support).

    Monotonic by construction: restoring backwards past live events would
    break the total order, so the counter only ever moves forward.
    """
    global _seq
    _seq = max(_seq, int(value))


class EventKind(enum.IntEnum):
    """Built-in event kinds used by the cluster engine.

    The numeric value doubles as the default same-time priority: when
    several events share a timestamp, job completions are processed first
    (freeing VMs), then VM boots, then new arrivals, then scheduler ticks —
    so a scheduling decision at time *t* always sees the full state of
    time *t*.
    """

    JOB_FINISH = 0
    VM_FAIL = 1
    VM_READY = 2
    JOB_ARRIVAL = 3
    VM_BOUNDARY = 4
    SCHEDULE_TICK = 5
    GENERIC = 6
    #: Correlated-outage windows (resilience extension).  OUTAGE_START is
    #: scheduled with an explicit VM_FAIL priority so same-instant kills
    #: land before boots/arrivals/ticks; OUTAGE_END only does bookkeeping
    #: and keeps its default late ordering.
    OUTAGE_START = 7
    OUTAGE_END = 8
    #: Spot-market lifecycle (hostile-cloud extension).  VM_PREEMPT is the
    #: provider's preemption *notice* (grace window opens); VM_PREEMPT_KILL
    #: is the actual reclaim at the end of the grace window.  Both are
    #: scheduled with an explicit VM_FAIL priority so same-instant kills
    #: land before boots/arrivals/ticks, like outages.
    VM_PREEMPT = 9
    VM_PREEMPT_KILL = 10
    #: Control-plane brownout windows: while one is open, every lease call
    #: fails.  Same priority convention as outages.
    BROWNOUT_START = 11
    BROWNOUT_END = 12


@dataclass(slots=True)
class Event:
    """A single scheduled occurrence in simulated time.

    Parameters
    ----------
    time:
        Simulation timestamp (seconds).
    kind:
        The :class:`EventKind` determining same-time ordering.
    payload:
        Arbitrary data interpreted by the event consumer.
    priority:
        Same-time tie-break; defaults to ``int(kind)``.

    ``time`` and ``priority`` must not change once the event is
    scheduled: the queue copies :meth:`sort_key` into its heap entry at
    push.
    """

    time: float
    kind: EventKind = EventKind.GENERIC
    payload: Any = None
    priority: int = -1
    seq: int = field(default_factory=_next_seq)
    cancelled: bool = False
    #: The queue currently holding this event, if any.  Maintained by
    #: :class:`~repro.sim.kernel.EventQueue` so direct ``event.cancel()``
    #: calls can keep the queue's live-event counter exact; an event
    #: belongs to at most one queue at a time.
    owner: "EventQueue | None" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be non-negative, got {self.time}")
        if self.priority < 0:
            self.priority = int(self.kind)

    def sort_key(self) -> tuple[float, int, int]:
        """The total order used by the event queue."""
        return (self.time, self.priority, self.seq)

    def cancel(self) -> None:
        """Mark the event as cancelled; the queue drops it lazily on pop."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancelled()

