"""Event records emitted by the simulation engines and algorithms.

These are plain observation records - the audit trail of every
scheduling decision.  Tests use them to assert invariants (no request
completes twice, completions follow starts, capacity never
oversubscribed beyond the sharing model), examples print them to
narrate a simulation, and the decision journal
(:mod:`repro.telemetry.audit`) serializes them to JSONL so two runs
can be diffed event by event (``python -m repro.experiments
trace-diff``).

Events reach two places:

* ``OnlineEngine.events`` - the engine's in-memory event list, holding
  the original lifecycle kinds (ARRIVAL/START/PREEMPT_WAIT/COMPLETE/
  DROP) exactly as before;
* :func:`repro.telemetry.audit.emit` - the one fan-out of a decision:
  it records the event in the **decision journal**, a superset stream
  that also carries algorithm-level decisions (MIGRATE,
  REJECT_ROUNDING, ADMIT, ARM_SELECTED, ARM_ELIMINATED) and station
  availability transitions (STATION_DOWN/STATION_UP) in canonical,
  wall-clock-free form, and folds it into the current metrics
  registry's counter for its kind.  Decision counters are derived from
  these events, never counted beside them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple


class EventKind(enum.Enum):
    """What happened."""

    ARRIVAL = "arrival"
    START = "start"
    PREEMPT_WAIT = "preempt_wait"
    COMPLETE = "complete"
    DROP = "drop"
    #: Heu moved one task of an admitted request to another station.
    MIGRATE = "migrate"
    #: A rounded assignment failed the prefix test (Algorithm 1 line 6).
    REJECT_ROUNDING = "reject_rounding"
    #: A rounded assignment passed the prefix test and reserved capacity.
    ADMIT = "admit"
    #: DynamicRR played a threshold arm this bandit round.
    ARM_SELECTED = "arm_selected"
    #: Successive elimination deactivated a threshold arm.
    ARM_ELIMINATED = "arm_eliminated"
    #: A station entered an injected outage window.
    STATION_DOWN = "station_down"
    #: A station (re)announced itself available (carries its capacity).
    STATION_UP = "station_up"
    #: The admission service accepted a request into the pending queue
    #: but did not place it in its arrival slot (it waits, and must
    #: later START or be SHED/dropped - the deferred_resolution
    #: invariant).  ``value`` carries the queue depth at deferral.
    ADMIT_DEFERRED = "admit_deferred"
    #: Bounded-queue backpressure rejected a request at ingress (it
    #: never entered the engine).  ``value`` carries the queue depth
    #: that triggered the shed.
    SHED = "shed"
    #: The admission service persisted a checkpoint after this slot.
    #: Emitted at a deterministic cadence, so an uninterrupted run and
    #: a kill/resume run journal identical CHECKPOINT events.
    CHECKPOINT = "checkpoint"
    #: The admission service restored from a checkpoint.  Recorded on
    #: the *operational* stream only (never the decision journal -
    #: resuming must not perturb journal byte-identity).
    RESUME = "resume"
    #: Periodic dump of the live metrics registry (counters/gauges/
    #: histogram summaries as canonical tuples in ``detail``).  Like
    #: RESUME, strictly operational: never the decision journal.
    METRICS_SNAPSHOT = "metrics_snapshot"


#: ``request_id`` of events that concern no particular request
#: (station availability, bandit arms).
NO_REQUEST = -1


@dataclass(frozen=True)
class Event:
    """One timestamped event.

    Attributes:
        slot: time slot of the event (for REJECT_ROUNDING/ADMIT emitted
            during batch admission this is the *resource-slot* index of
            Algorithm 1, not a time slot).
        kind: event type.
        request_id: the affected request (:data:`NO_REQUEST` for
            station/arm events).
        station_id: station involved (START/COMPLETE/ADMIT, the
            *destination* of a MIGRATE, the subject of STATION_DOWN/UP;
            for DROP, the station that last hosted the request, if
            any - None when the request was never hosted).
        reward: reward earned (START/COMPLETE; 0 on deadline miss).
        latency_ms: experienced latency (START/COMPLETE only).
        src_station_id: MIGRATE only - the station the task left.
        task_index: MIGRATE only - index of the migrated pipeline task.
        arm: ARM_SELECTED/ARM_ELIMINATED only - the arm's grid index.
        value: generic numeric payload - the threshold MHz of an arm
            event, the capacity MHz of a STATION_UP.
        reserved_mhz: MHz of *committed* reservation (offline ADMIT,
            MIGRATE share).  The invariant monitor accumulates these
            per station against capacity.
        share_mhz: MHz of an *elastic* round-robin share (online START
            first-served share, share-capped online ADMIT).  Checked
            against station capacity per event, never accumulated.
        detail: structured justification payload.  MIGRATE: a tuple of
            ``(station_id, free_mhz, reason)`` triples for the closer
            candidate stations that were skipped (reason ``"capacity"``
            or ``"latency"``).  ARM_ELIMINATED: ``(ucb, best_lcb)`` at
            elimination time.
    """

    slot: int
    kind: EventKind
    request_id: int = NO_REQUEST
    station_id: Optional[int] = None
    reward: float = 0.0
    latency_ms: Optional[float] = None
    src_station_id: Optional[int] = None
    task_index: Optional[int] = None
    arm: Optional[int] = None
    value: Optional[float] = None
    reserved_mhz: Optional[float] = None
    share_mhz: Optional[float] = None
    detail: Optional[Tuple] = None

    def to_record(self) -> Dict[str, Any]:
        """The event as a canonical JSON-serializable dict.

        Keys with ``None`` values are omitted (and ``request`` when the
        event concerns no request), so the serialized journal stays
        compact and two journals compare field by field.  ``detail``
        tuples become nested lists - the form a JSONL round-trip
        produces - so in-memory and re-read journals are equal.
        """
        record: Dict[str, Any] = {"kind": self.kind.value,
                                  "slot": self.slot}
        if self.request_id != NO_REQUEST:
            record["request"] = self.request_id
        if self.station_id is not None:
            record["station"] = self.station_id
        if self.kind in (EventKind.START, EventKind.COMPLETE,
                         EventKind.ADMIT):
            record["reward"] = self.reward
        if self.latency_ms is not None:
            record["latency_ms"] = self.latency_ms
        if self.src_station_id is not None:
            record["src"] = self.src_station_id
        if self.task_index is not None:
            record["task"] = self.task_index
        if self.arm is not None:
            record["arm"] = self.arm
        if self.value is not None:
            record["value"] = self.value
        if self.reserved_mhz is not None:
            record["reserved_mhz"] = self.reserved_mhz
        if self.share_mhz is not None:
            record["share_mhz"] = self.share_mhz
        if self.detail is not None:
            record["detail"] = _jsonable(self.detail)
        return record

    def __str__(self) -> str:
        parts = [f"t={self.slot:4d}", self.kind.value]
        if self.request_id != NO_REQUEST:
            parts.append(f"r{self.request_id}")
        if self.src_station_id is not None:
            parts.append(f"bs{self.src_station_id}->")
        if self.station_id is not None:
            parts.append(f"@bs{self.station_id}")
        if self.arm is not None:
            parts.append(f"arm={self.arm}")
        if self.kind is EventKind.COMPLETE:
            parts.append(f"reward={self.reward:.1f}")
            if self.latency_ms is not None:
                parts.append(f"latency={self.latency_ms:.0f}ms")
        return " ".join(parts)


def _jsonable(value):
    """Tuples (recursively) as lists, matching a JSONL round-trip."""
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    return value
