"""Randomized rounding and slot-by-slot admission (Algorithm 1, lines 2-7).

Rounding: each request picks at most one (station, starting slot) pair;
option ``(i, l)`` is chosen with probability ``y_{jil} / 4`` and the
request is *completely ignored* with the remaining mass (the scale 4 is
what gives Lemma 2 its 1/2 failure bound and Theorem 1 its 1/8 ratio -
the ablation benchmark sweeps it).

Admission: slots are visited in index order; a request assigned to
starting slot ``l`` of station ``bs_i`` is admitted iff the requests
already admitted there occupy at most ``l * C_l`` (Algorithm 1 line 6).
Only after admission does the request *realize* its data rate; the
realized demand is reserved (truncated at the physical capacity), and
the reward is earned only when the untruncated demand fits - the event
whose expectation is ``ER_{jil}`` (Eq. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..exceptions import ConfigurationError
from ..network.capacity import CapacityLedger
from ..requests.request import ARRequest
from ..rng import RngLike, ensure_rng
from ..sim.events import Event, EventKind
from ..telemetry.audit import get_journal
from ..telemetry.metrics import get_metrics
from .assignment import SlotAssignment
from .instance import ProblemInstance
from .lp_relaxation import LpIndex

#: The paper's rounding scale: assignment probability is y / ROUNDING_SCALE.
DEFAULT_ROUNDING_SCALE = 4.0

#: Called when a request fails the prefix test; returns True when the
#: handler made room (Heu's migration) so admission can proceed.
RejectHandler = Callable[[ARRequest, int, int, CapacityLedger], bool]


@dataclass
class AdmissionOutcome:
    """What happened to one rounded request during admission.

    Attributes:
        request: the request.
        assignment: the rounded (station, slot) it was sent to.
        admitted: whether it passed the prefix test (possibly after a
            migration by the reject handler).
        reward: reward earned (realized reward when the realized demand
            fit the remaining capacity, else 0).
        reserved_mhz: capacity actually reserved at the station.
    """

    request: ARRequest
    assignment: SlotAssignment
    admitted: bool = False
    reward: float = 0.0
    reserved_mhz: float = 0.0


def randomized_round(index: LpIndex, values: Mapping[str, float],
                     requests: Sequence[ARRequest],
                     rng: RngLike = None,
                     scale: float = DEFAULT_ROUNDING_SCALE,
                     options_table: Optional[Mapping[
                         int, Sequence[tuple]]] = None
                     ) -> List[SlotAssignment]:
    """Round a fractional LP solution into tentative slot assignments.

    Args:
        index: variable index of the solved LP.
        values: the fractional solution.
        requests: the workload the LP was built over.
        rng: randomness.
        scale: divide each ``y_{jil}`` by this before sampling (the
            paper uses 4).
        options_table: precomputed
            :meth:`~repro.core.lp_relaxation.LpIndex.options_table` of
            ``values`` - callers that round the same solution over many
            rounds pass it to skip the per-round re-extraction.  The
            sampled stream is identical either way.

    Returns:
        At most one :class:`SlotAssignment` per request; requests that
        drew the "ignore" outcome are absent.
    """
    if scale < 1.0:
        raise ConfigurationError(
            f"rounding scale must be >= 1 (probabilities must not exceed "
            f"the LP mass), got {scale}")
    rng = ensure_rng(rng)
    assignments: List[SlotAssignment] = []
    for request in requests:
        if options_table is not None:
            options = options_table.get(request.request_id, ())
        else:
            options = index.assignment_options(values,
                                               request.request_id)
        if not options:
            continue
        total_mass = sum(mass for _, _, mass in options) / scale
        if total_mass > 1.0 + 1e-9:
            raise ConfigurationError(
                f"request {request.request_id} has rounded mass "
                f"{total_mass:.4f} > 1; constraint (9) violated upstream")
        draw = rng.random()
        cumulative = 0.0
        for station_id, slot, mass in options:
            cumulative += mass / scale
            if draw < cumulative:
                assignments.append(SlotAssignment(
                    request_id=request.request_id,
                    station_id=station_id, slot=slot))
                break
    return assignments


def admit_slot_by_slot(instance: ProblemInstance,
                       requests: Sequence[ARRequest],
                       assignments: Sequence[SlotAssignment],
                       ledger: CapacityLedger,
                       rng: RngLike = None,
                       on_reject: Optional[RejectHandler] = None,
                       reserve_cap_mhz: Optional[float] = None
                       ) -> List[AdmissionOutcome]:
    """Algorithm 1 lines 3-7 (with Heu's line-11-14 hook).

    Slots are processed in increasing index order; within a slot,
    candidate requests are considered in increasing *expected* data
    rate (their realized rates are still unknown at test time - the
    paper's "request with the l-th smallest data rate" can only refer
    to rates the scheduler can see).  After passing the prefix test a
    request realizes its rate, reserves the (capacity-truncated)
    demand, and earns its realized reward iff the demand fully fit.

    Args:
        instance: the problem instance.
        requests: the workload (for id -> request resolution).
        assignments: tentative rounded assignments.
        ledger: capacity ledger to admit into (mutated).
        rng: randomness for rate realization.
        on_reject: optional hook (Heu migration); returning True means
            room was made and the prefix test should be re-evaluated.
        reserve_cap_mhz: when given, each admitted request reserves at
            most this much (the *guaranteed share* semantics of the
            round-robin online setting, where ``C^th`` - not the full
            realized demand - is the committed allocation); None keeps
            the non-preemptive semantics of reserving the realized
            demand.

    Returns:
        One outcome per tentative assignment, in admission order.
    """
    rng = ensure_rng(rng)
    journal = get_journal()
    request_by_id = {r.request_id: r for r in requests}
    by_station_slot: Dict[tuple, List[SlotAssignment]] = {}
    for assignment in assignments:
        key = (assignment.station_id, assignment.slot)
        by_station_slot.setdefault(key, []).append(assignment)

    outcomes: List[AdmissionOutcome] = []
    max_slots = instance.max_num_slots()
    station_ids = instance.network.station_ids
    for slot in range(max_slots):
        for station_id in station_ids:
            candidates = by_station_slot.get((station_id, slot), [])
            candidates.sort(key=lambda a: (
                request_by_id[a.request_id].expected_rate_mbps,
                a.request_id))
            for assignment in candidates:
                request = request_by_id[assignment.request_id]
                outcome = AdmissionOutcome(request=request,
                                           assignment=assignment)
                outcomes.append(outcome)
                open_now = ledger.prefix_open(station_id, slot)
                # Algorithm 2 lines 11-14: migrate one task per attempt
                # until the slot opens or no donor can help ("if there
                # is no such preassigned request ..., reject").  The
                # attempt cap guards against a handler that reports
                # progress without making any.
                attempts = 0
                while (not open_now and on_reject is not None
                       and attempts < 10):
                    if not on_reject(request, station_id, slot, ledger):
                        break
                    attempts += 1
                    open_now = ledger.prefix_open(station_id, slot)
                if not open_now:
                    get_metrics().inc("rounding_rejects_total")
                    if journal.enabled:
                        journal.record(Event(
                            slot=slot, kind=EventKind.REJECT_ROUNDING,
                            request_id=request.request_id,
                            station_id=station_id))
                    continue
                rate, reward = request.realize(rng)
                demand = request.demand_of_rate_mhz(rate)
                free = ledger.free_mhz(station_id)
                reserved = min(demand, free)
                if reserve_cap_mhz is not None:
                    reserved = min(reserved, reserve_cap_mhz)
                if reserved > 0:
                    ledger.reserve(request.request_id, station_id, reserved)
                outcome.admitted = True
                outcome.reserved_mhz = reserved
                get_metrics().inc("rounding_admits_total")
                if demand <= free + 1e-9:
                    outcome.reward = reward
                if journal.enabled:
                    # Guaranteed-share admissions (the online RR
                    # setting) are elastic; batch admissions commit the
                    # reservation - the monitor accumulates only the
                    # latter against capacity.
                    committed = reserve_cap_mhz is None
                    journal.record(Event(
                        slot=slot, kind=EventKind.ADMIT,
                        request_id=request.request_id,
                        station_id=station_id, reward=outcome.reward,
                        reserved_mhz=reserved if committed else None,
                        share_mhz=None if committed else reserved))
    return outcomes
