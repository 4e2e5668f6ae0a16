"""The resource-slot-indexed LP relaxation (Eqs. 8-12) and LP-PT (22-23).

The novelty of the paper's relaxation is indexing assignments by the
*starting resource slot*: variable ``y_{jil}`` says request ``r_j``
starts at slot ``l`` of station ``bs_i``.  Two consequences:

* the objective coefficient ``ER_{jil}`` (Eq. 8) only counts reward
  from realizations whose demand fits into the capacity remaining
  *after* the slot offset ``l * C_l`` - large-rate realizations earn
  nothing from deep slots, which kills the incentive to chase rare
  high-reward rates;
* the prefix constraint (Eq. 10) bounds the *truncated* expected demand
  of everything starting at-or-before a slot by twice the slot offset,
  which is exactly what Lemma 2's Markov argument needs.

The delay requirement (Eq. 11) is linear in ``y`` given the waiting
time, so we enforce it by pruning: ``y_{jil}`` is only created when the
placement delay of (j, i) meets the deadline - equivalent for any
binary solution, and tighter for fractional ones.

``LP-PT`` (Eqs. 22-23) is the per-time-slot variant used by DynamicRR:
identical shape, with the truncation additionally capped by the fair
share ``C(bs_i) / |R_t|``.

Build strategy
--------------

The model is assembled as arrays, one constraint family at a time, and
handed to :meth:`~repro.solver.model.LinearProgram.add_rows_csr` as
CSR blocks - no per-coefficient dicts, row objects or name strings.
The structure is fully regular:

* each feasible (request, station) pair is a contiguous block of
  ``L`` columns (one per starting slot), a request's blocks are
  adjacent, and requests follow the workload order;
* the choice rows (9) are therefore consecutive index ranges that
  together cover every column once;
* the prefix rows (10)/(23) and the capacity row of a station take the
  first ``m`` (resp. all ``L``) columns of each of the station's blocks
  whose truncated expected rate is positive, so every such row is a
  set of per-block slices, generated for all stations at once with
  ``np.repeat``/``cumsum`` in (station, m) order.

Each request's distribution is lowered once into a :class:`_DistTables`
(a reward-prefix table evaluated with the same slice-and-dot expression
as
:meth:`~repro.requests.distributions.RateRewardDistribution.expected_reward_within`,
plus memos of truncated expected rates per cap), and the slot geometry
of every station into one :class:`_Geometry`.  Coefficients, rows,
columns and their order are pinned by content fingerprints in
``tests/core/test_lp_golden.py``; column and row names
(``y_<request>_<station>_<slot>``, ``choice_<request>``,
``prefix_<station>_<m>``, ``capacity_<station>``) are part of that
content but generated only when something asks for them.
:class:`LpIndex` maps columns back to (request, station, slot) through
per-column arrays and per-request column ranges, so reading a solution
never touches a name either.

:class:`LpPtWorkspace` carries the tables and the geometry *across*
DynamicRR rounds and additionally keeps the previous round's model: an
unchanged round returns the same model object (so a warm-started solve
is a pure cache hit), a round that only changed the fair-share count
``|R_t|`` rewrites the capped rows in place, and any other round
rebuilds from the cached tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..requests.distributions import RateRewardDistribution, _PROB_TOL
from ..requests.request import ARRequest
from ..solver.model import LinearProgram
from .instance import ProblemInstance

#: Slack factor on the prefix-demand constraint (the ``2`` in Eq. 10).
PREFIX_SLACK = 2.0


def _var_name(request_id: int, station_id: int, slot: int) -> str:
    return f"y_{request_id}_{station_id}_{slot}"


def _column_names(request_ids: np.ndarray, station_ids: np.ndarray,
                  slots: np.ndarray) -> List[str]:
    return [_var_name(rid, sid, slot) for rid, sid, slot
            in zip(request_ids.tolist(), station_ids.tolist(),
                   slots.tolist())]


def _choice_names(request_ids: Sequence[int]) -> List[str]:
    return [f"choice_{rid}" for rid in request_ids]


@dataclass(frozen=True, eq=False)
class LpIndex:
    """Maps LP columns back to (request, station, slot) triples.

    Attributes:
        request_ids: request of each column.
        station_ids: station of each column.
        slots: starting slot of each column.
        ranges: request_id -> its ``[start, stop)`` column range, in
            workload order (empty for a request with no feasible
            station).
        columns_id: :attr:`~repro.solver.model.LinearProgram.columns_id`
            of the model the columns belong to.
    """

    request_ids: np.ndarray
    station_ids: np.ndarray
    slots: np.ndarray
    ranges: Mapping[int, Tuple[int, int]]
    columns_id: object

    @cached_property
    def _names(self) -> List[str]:
        return _column_names(self.request_ids, self.station_ids,
                             self.slots)

    @cached_property
    def triples(self) -> Dict[str, Tuple[int, int, int]]:
        """Variable name -> (request_id, station_id, slot)."""
        return dict(zip(self._names, zip(self.request_ids.tolist(),
                                         self.station_ids.tolist(),
                                         self.slots.tolist())))

    @cached_property
    def by_request(self) -> Dict[int, Tuple[str, ...]]:
        """request_id -> its variable names, in column order."""
        names = self._names
        return {rid: tuple(names[start:stop])
                for rid, (start, stop) in self.ranges.items()}

    def _column_vector(self, values: Mapping[str, float]) -> np.ndarray:
        """`values` over this index's columns, in column order."""
        n = self.request_ids.size
        x = getattr(values, "x", None)
        if (getattr(values, "columns_id", None) is self.columns_id
                and x is not None and x.size >= n):
            return x[:n]
        get = values.get
        return np.array([float(get(name, 0.0)) for name in self._names],
                        dtype=float)

    def _options(self, x: np.ndarray, start: int, stop: int, tol: float
                 ) -> Tuple[List[int], List[Tuple[int, int, float]]]:
        """Owners and (station, slot, mass) of columns above `tol`."""
        cols = start + np.flatnonzero(x[start:stop] > tol)
        return (self.request_ids[cols].tolist(),
                list(zip(self.station_ids[cols].tolist(),
                         self.slots[cols].tolist(), x[cols].tolist())))

    def assignment_options(self, values: Mapping[str, float],
                           request_id: int,
                           tol: float = 1e-9
                           ) -> List[Tuple[int, int, float]]:
        """Positive-mass (station, slot, probability) options of a request.

        Args:
            values: an LP solution.
            request_id: the request.
            tol: drop options below this mass.
        """
        start, stop = self.ranges.get(request_id, (0, 0))
        return self._options(self._column_vector(values), start, stop,
                             tol)[1]

    def options_table(self, values: Mapping[str, float],
                      tol: float = 1e-9
                      ) -> Dict[int, List[Tuple[int, int, float]]]:
        """Positive-mass options of *every* request, in one pass.

        Returns the same lists (same order) as calling
        :meth:`assignment_options` per request; rounding loops that
        re-query one solution across many rounds use this to avoid the
        per-round re-extraction.  A solution returned by the HiGHS
        backend is read as its column vector, without names.
        """
        table: Dict[int, List[Tuple[int, int, float]]] = {
            rid: [] for rid in self.ranges}
        owners, options = self._options(self._column_vector(values), 0,
                                        self.request_ids.size, tol)
        for rid, option in zip(owners, options):
            table[rid].append(option)
        return table


def expected_reward_coefficient(instance: ProblemInstance,
                                request: ARRequest, station_id: int,
                                slot: int) -> float:
    """``ER_{jil}`` of Eq. (8).

    The reward counts only realizations whose demand fits into the
    capacity remaining after the slot offset:
    ``sum_{rho : rho * C_unit <= C(bs_i) - l * C_l} pi_rho * RD_rho``.
    """
    remaining_mhz = instance.slots_of(station_id).remaining_after_mhz(slot)
    max_rate = remaining_mhz / instance.c_unit
    return request.distribution.expected_reward_within(max_rate)


# ----------------------------------------------------------------------
# Precomputed per-distribution / per-station tables
# ----------------------------------------------------------------------
class _DistTables:
    """Cached expectation tables of one request's distribution.

    ``reward_prefix[k]`` is the expected reward counting only the ``k``
    smallest support rates, evaluated with the same contiguous
    slice-and-dot expression as ``expected_reward_within`` so the
    floats are bit-identical to the per-triple evaluation.
    ``truncated()`` memoizes ``expected_truncated_rate`` per cap - the
    capped rows query the same handful of caps for every station and,
    through :class:`LpPtWorkspace`, for every DynamicRR round.
    """

    __slots__ = ("distribution", "rates", "reward_prefix", "_trunc")

    def __init__(self, distribution: RateRewardDistribution) -> None:
        self.distribution = distribution
        probs = distribution.probabilities
        rewards = distribution.rewards
        self.rates = distribution.rates_mbps
        n = int(self.rates.size)
        self.reward_prefix = np.array(
            [float(probs[:k] @ rewards[:k]) for k in range(n + 1)])

        self._trunc: Dict[float, float] = {}

    def truncated(self, cap: float) -> float:
        """Memoized ``E[min(rho, cap)]`` (exact same float as uncached).

        Caps at or above the support's largest rate all truncate
        nothing - ``np.minimum(rates, cap)`` returns ``rates``
        elementwise exactly - so they share one memo entry.
        """
        value = self._trunc.get(cap)
        if value is None:
            top = self.rates[-1]
            if cap > top:
                value = self.truncated(float(top))
            else:
                value = self.distribution.expected_truncated_rate(cap)
            self._trunc[cap] = value
        return value

    def reward_within(self, max_rates: np.ndarray) -> np.ndarray:
        """Vectorized ``ER`` over a station's per-slot max rates."""
        counts = np.searchsorted(self.rates, max_rates + _PROB_TOL,
                                 side="right")
        return self.reward_prefix[counts]


class _TableCache:
    """Per-request :class:`_DistTables`, keyed by request id.

    The distribution object is identity-checked so a stale entry (same
    id, different workload) can never leak between builds.
    """

    __slots__ = ("_by_rid",)

    def __init__(self) -> None:
        self._by_rid: Dict[int, _DistTables] = {}

    def get(self, request: ARRequest) -> _DistTables:
        entry = self._by_rid.get(request.request_id)
        if entry is None or entry.distribution is not request.distribution:
            entry = _DistTables(request.distribution)
            self._by_rid[request.request_id] = entry
        return entry


@dataclass(frozen=True)
class _StationGeometry:
    """Slot geometry of one station, lowered to rate space once."""

    num_slots: int
    capacity_rate: float
    capacity_mhz: float
    #: ``m * C_l / C_unit`` for m = 1..L (Eq. 10 thresholds).
    threshold_rates: Tuple[float, ...]
    #: ``(C(bs_i) - l * C_l) / C_unit`` for l = 0..L-1 (Eq. 8 budgets).
    max_rates: np.ndarray


class _Geometry:
    """Every station's slot geometry plus the layout of the capped rows.

    Each station owns ``L + 1`` consecutive *row keys*: its prefix rows
    ``m = 1..L`` then its capacity row, stations in network order - the
    order the rows enter the model.  Only keys whose row has an entry
    become rows.  Station capacities and the slot size are fixed once
    an instance is built, so one geometry serves every build on it.
    """

    def __init__(self, instance: ProblemInstance) -> None:
        slot_size = instance.slot_size_mhz
        c_unit = instance.c_unit
        self.c_unit = c_unit
        self.station_ids: Tuple[int, ...] = tuple(
            instance.network.station_ids)
        self.stations: Dict[int, _StationGeometry] = {}
        rhs: List[float] = []
        for sid in self.station_ids:
            num_slots = instance.network.num_slots(sid)
            capacity = instance.network.station(sid).capacity_mhz
            offsets = np.arange(num_slots) * slot_size
            geo = _StationGeometry(
                num_slots=num_slots,
                capacity_rate=capacity / c_unit,
                capacity_mhz=capacity,
                threshold_rates=tuple(m * slot_size / c_unit
                                      for m in range(1, num_slots + 1)),
                max_rates=(capacity - offsets) / c_unit)
            self.stations[sid] = geo
            rhs.extend(PREFIX_SLACK * threshold
                       for threshold in geo.threshold_rates)
            rhs.append(geo.capacity_rate)
        self.position = {sid: k for k, sid in enumerate(self.station_ids)}
        self.num_slots = np.array(
            [self.stations[sid].num_slots for sid in self.station_ids],
            dtype=np.int64)
        sizes = self.num_slots + 1
        self.row_offset = np.cumsum(sizes) - sizes
        self.row_rhs = np.array(rhs)
        #: Feasible-station set -> (concatenated per-slot max rates,
        #: station positions, block offsets within the request).
        self.request_layouts: Dict[
            Tuple[int, ...], Tuple[np.ndarray, Tuple[int, ...],
                                   Tuple[int, ...]]] = {}
        self._row_names: Optional[List[str]] = None

    def request_layout(self, stations: Tuple[int, ...]):
        """Concatenated budgets and block layout of a station set.

        Feasible-station sets repeat heavily across requests, so each
        set's per-slot budget array is built once (one searchsorted per
        request instead of one per (request, station)).
        """
        entry = self.request_layouts.get(stations)
        if entry is None:
            geos = [self.stations[sid] for sid in stations]
            offsets = np.cumsum([0] + [geo.num_slots for geo in geos])
            entry = (np.concatenate([geo.max_rates for geo in geos]),
                     tuple(self.position[sid] for sid in stations),
                     tuple(offsets[:-1].tolist()))
            self.request_layouts[stations] = entry
        return entry

    def station_caps(self, fair_share_count: Optional[int]
                     ) -> Dict[int, Tuple[float, ...]]:
        """Per station: the ``L`` prefix caps then the capacity-row cap.

        Without a fair-share count (the plain LP) the caps are the
        thresholds ``m * C_l / C_unit`` and ``C(bs_i) / C_unit``; LP-PT
        (Eq. 23) caps each by the share ``C(bs_i) / (|R_t| C_unit)``.
        """
        caps: Dict[int, Tuple[float, ...]] = {}
        for sid, geo in self.stations.items():
            if fair_share_count is None:
                caps[sid] = geo.threshold_rates + (geo.capacity_rate,)
                continue
            share = geo.capacity_mhz / (max(fair_share_count, 1)
                                        * self.c_unit)
            caps[sid] = tuple(min(threshold, share)
                              for threshold in geo.threshold_rates) + (
                min(geo.capacity_rate, share),)
        return caps

    def row_names(self, keys: np.ndarray) -> List[str]:
        """Names of the rows with the given keys."""
        if self._row_names is None:
            names: List[str] = []
            for sid in self.station_ids:
                names.extend(f"prefix_{sid}_{m}" for m in
                             range(1, self.stations[sid].num_slots + 1))
                names.append(f"capacity_{sid}")
            self._row_names = names
        table = self._row_names
        return [table[key] for key in keys.tolist()]


@dataclass
class _Blocks:
    """The model's (request, station) column blocks, in column order."""

    #: Station position (in network order) of each block.
    positions: np.ndarray
    #: First column of each block.
    firsts: np.ndarray
    #: Distribution tables of each block's request.
    tables: List[_DistTables]

    def capped_rows(self, geometry: _Geometry,
                    caps: Mapping[int, Tuple[float, ...]]):
        """Constraints (10)/(23) and the capacity rows, as CSR arrays.

        Block ``b`` at a station with ``L`` slots has ``L + 1``
        candidate rows: prefix row ``m`` takes its first ``m`` columns,
        the capacity row all ``L``, each with the request's truncated
        expected rate at that row's cap - a candidate with a zero
        truncation contributes nothing.  Candidates are stably sorted
        by row key, which keeps blocks (hence columns) ascending within
        every row.

        Returns:
            ``(keys, indptr, indices, data)`` of the non-empty rows.
        """
        ids = geometry.station_ids
        trunc = np.array([
            tab.truncated(cap)
            for tab, pos in zip(self.tables, self.positions.tolist())
            for cap in caps[ids[pos]]])
        lengths = geometry.num_slots[self.positions]
        fan = lengths + 1
        block = np.repeat(np.arange(lengths.size), fan)
        local = np.arange(trunc.size) - np.repeat(np.cumsum(fan) - fan, fan)
        key = np.repeat(geometry.row_offset[self.positions], fan) + local
        width = np.minimum(local + 1, np.repeat(lengths, fan))
        # A station too small for one slot has zero-width blocks: they
        # add no entries, so they must not create an (empty) row.
        keep = np.flatnonzero((trunc > 0) & (width > 0))
        order = keep[np.argsort(key[keep], kind="stable")]
        key, block, width = key[order], block[order], width[order]
        entry_start = np.cumsum(width) - width
        total = int(width.sum())
        indices = (np.repeat(self.firsts[block] - entry_start, width)
                   + np.arange(total))
        data = np.repeat(trunc[order], width)
        row_first = np.flatnonzero(np.diff(key, prepend=-1))
        indptr = np.append(entry_start[row_first], total)
        return key[row_first], indptr, indices, data


# ----------------------------------------------------------------------
# Model assembly
# ----------------------------------------------------------------------
def _build_model(lp: LinearProgram, instance: ProblemInstance,
                 requests: Sequence[ARRequest],
                 waiting: Mapping[int, float],
                 fair_share_count: Optional[int],
                 tables: _TableCache,
                 geometry: _Geometry,
                 feasible: Optional[Mapping[int, Sequence[int]]] = None
                 ) -> Tuple[LpIndex, _Blocks]:
    """Assemble the slot-indexed LP into `lp`; returns index + blocks."""
    caps = geometry.station_caps(fair_share_count)
    objectives: List[np.ndarray] = []
    positions: List[int] = []
    firsts: List[int] = []
    block_tables: List[_DistTables] = []
    ranges: Dict[int, Tuple[int, int]] = {}
    choice_rids: List[int] = []
    choice_sizes: List[int] = []
    next_col = 0
    for request in requests:
        rid = request.request_id
        stations = tuple(feasible[rid] if feasible is not None
                         else instance.latency.feasible_stations(
                             request, waiting.get(rid, 0.0)))
        if not stations:
            ranges[rid] = (next_col, next_col)
            continue
        tab = tables.get(request)
        concat_max, station_positions, offsets = \
            geometry.request_layout(stations)
        objectives.append(tab.reward_within(concat_max))
        positions.extend(station_positions)
        firsts.extend(next_col + offset for offset in offsets)
        block_tables.extend([tab] * len(stations))
        size = int(concat_max.size)
        ranges[rid] = (next_col, next_col + size)
        # Stations too small for one slot give a request no columns;
        # with only those feasible it has no (empty) choice row either.
        if size:
            choice_rids.append(rid)
            choice_sizes.append(size)
        next_col += size

    n = next_col
    blocks = _Blocks(positions=np.array(positions, dtype=np.int64),
                     firsts=np.array(firsts, dtype=np.int64),
                     tables=block_tables)
    lengths = geometry.num_slots[blocks.positions]
    station_ids = np.repeat(
        np.asarray(geometry.station_ids, dtype=np.int64)[blocks.positions],
        lengths)
    slots = np.arange(n) - np.repeat(blocks.firsts, lengths)
    request_ids = np.repeat(np.array(choice_rids, dtype=np.int64),
                            choice_sizes)
    lp.add_variables_bulk(
        partial(_column_names, request_ids, station_ids, slots),
        np.zeros(n), np.ones(n),
        np.concatenate(objectives) if objectives else np.zeros(0))

    # Constraint (9): each request starts in at most one slot.  A
    # request's columns are contiguous and requests follow each other,
    # so the rows are consecutive index ranges covering every column.
    choice_ptr = np.zeros(len(choice_sizes) + 1, dtype=np.int64)
    np.cumsum(choice_sizes, out=choice_ptr[1:])
    lp.add_rows_csr(choice_ptr, np.arange(n), np.ones(n), "<=", 1.0,
                    names=partial(_choice_names, choice_rids))

    # Constraints (10)/(23) + the per-station expected-capacity row.
    # The capacity row is a valid per-station bound with no slack
    # factor: any admission policy keeps the realized
    # (capacity-truncated) occupancy within ``C(bs_i)`` in every run,
    # hence in expectation - the LP image of ILP-RM's constraint (4).
    # The optimal policy satisfies it, so adding it preserves Lemma 1
    # (``LPOpt >= Opt``) while forcing the fractional solution to
    # *choose* which requests to carry when the workload exceeds
    # capacity - which is where the expected-reward awareness of the
    # objective actually bites.
    keys, indptr, indices, data = blocks.capped_rows(geometry, caps)
    lp.add_rows_csr(indptr, indices, data, "<=", geometry.row_rhs[keys],
                    names=partial(geometry.row_names, keys))

    index = LpIndex(request_ids=request_ids, station_ids=station_ids,
                    slots=slots, ranges=ranges, columns_id=lp.columns_id)
    return index, blocks


def build_lp_relaxation(instance: ProblemInstance,
                        requests: Sequence[ARRequest],
                        waiting_ms: Optional[Mapping[int, float]] = None
                        ) -> Tuple[LinearProgram, LpIndex]:
    """Build the slot-indexed **LP** (Eqs. 8-12).

    Args:
        instance: the problem instance.
        requests: the workload to place.
        waiting_ms: per-request waiting time already incurred (the
            ``b_j - a_j`` part of Eq. (2)); defaults to 0 for the
            offline batch problem.

    Returns:
        ``(lp, index)`` - the model and the variable index maps.
    """
    waiting = dict(waiting_ms or {})
    lp = LinearProgram(name="LP", maximize=True)
    index, _blocks = _build_model(lp, instance, requests, waiting,
                                  fair_share_count=None,
                                  tables=_TableCache(),
                                  geometry=_Geometry(instance))
    return lp, index


def build_lp_pt(instance: ProblemInstance,
                requests: Sequence[ARRequest],
                waiting_ms: Optional[Mapping[int, float]] = None,
                workspace: Optional["LpPtWorkspace"] = None,
                fair_share_count: Optional[int] = None
                ) -> Tuple[LinearProgram, LpIndex]:
    """Build **LP-PT** (Eqs. 22-23) for one time slot of DynamicRR.

    Identical to the plain LP except that constraint (23) additionally
    truncates each request's expected rate by the fair round-robin
    share ``C(bs_i) / |R_t|`` (expressed in rate space through
    ``C_unit``).  With ``|R_t| = 0`` the model is empty.

    Args:
        instance: the problem instance.
        requests: the slot's selected set ``R_t``.
        waiting_ms: accumulated waiting of each request in ``R_t``.
        workspace: optional :class:`LpPtWorkspace` enabling the
            incremental cross-round build (table reuse, model reuse,
            in-place fair-share mutation).  The returned model is
            byte-identical to a from-scratch build either way.
        fair_share_count: override for ``|R_t|`` (defaults to
            ``len(requests)``; ablations may pin it).
    """
    waiting = dict(waiting_ms or {})
    count = (max(len(requests), 1) if fair_share_count is None
             else max(int(fair_share_count), 1))
    if workspace is not None:
        return workspace.build(instance, requests, waiting, count)
    lp = LinearProgram(name="LP-PT", maximize=True)
    index, _blocks = _build_model(lp, instance, requests, waiting,
                                  fair_share_count=count,
                                  tables=_TableCache(),
                                  geometry=_Geometry(instance))
    return lp, index


class LpPtWorkspace:
    """Incremental cross-round build state for LP-PT.

    DynamicRR solves a fresh LP-PT every bandit round, but successive
    rounds share almost all of their structure: the instance geometry
    is fixed, pending requests persist across slots, and the only
    round-dependent inputs are the selected set ``R_t``, the waiting
    times (which act through deadline pruning), and the fair-share
    count ``|R_t|``.  The workspace exploits that:

    * **table reuse** - per-request :class:`_DistTables` (including the
      truncated-rate memos) and the instance's :class:`_Geometry`
      survive across rounds, so a rebuild touches no distribution
      arithmetic for previously seen (request, cap) pairs;
    * **model reuse** - when the column structure (request order and
      feasible-station sets) and the fair-share count are unchanged,
      the previous round's model object is returned as-is, letting a
      warm-started solve hit its fingerprint cache without re-solving;
    * **in-place mutation** - when only the fair-share count changed,
      the rows whose effective cap ``min(threshold, share)`` moved are
      rewritten in place via
      :meth:`~repro.solver.model.LinearProgram.update_constraint_indexed`
      instead of regenerating the model.

    All three paths produce a model byte-identical to a from-scratch
    :func:`build_lp_pt`; the counters (:attr:`rebuilds`,
    :attr:`reuses`, :attr:`row_updates`) are exported as telemetry by
    DynamicRR.
    """

    def __init__(self) -> None:
        self._tables = _TableCache()
        #: request_id -> (request, sorted (placement_delay, sid) list);
        #: placement delays are waiting-independent, so the per-round
        #: deadline pruning reduces to one threshold pass.
        self._delays: Dict[int, Tuple[ARRequest,
                                      List[Tuple[float, int]]]] = {}
        self._geometry: Optional[_Geometry] = None
        self._instance: Optional[ProblemInstance] = None
        self._columns: Optional[Tuple] = None
        self._count: Optional[int] = None
        self._model: Optional[LinearProgram] = None
        self._index: Optional[LpIndex] = None
        self._blocks: Optional[_Blocks] = None
        #: Rounds that rebuilt the model (cached tables only).
        self.rebuilds = 0
        #: Rounds that returned the previous model unchanged.
        self.reuses = 0
        #: Rounds that mutated the fair-share rows in place.
        self.row_updates = 0
        #: What the most recent :meth:`build` call did.
        self.last_mode = "none"

    def build(self, instance: ProblemInstance,
              requests: Sequence[ARRequest],
              waiting: Mapping[int, float],
              fair_share_count: int
              ) -> Tuple[LinearProgram, LpIndex]:
        """Build (or reuse / patch) the round's LP-PT."""
        if instance is not self._instance:
            self._delays.clear()
            self._geometry = _Geometry(instance)
            self._instance = instance
            self._model = None
        feasible = {
            r.request_id: self._feasible_stations(
                instance, r, waiting.get(r.request_id, 0.0))
            for r in requests}
        columns = tuple((r.request_id, tuple(feasible[r.request_id]))
                        for r in requests)
        unchanged = self._model is not None and columns == self._columns
        if unchanged and fair_share_count == self._count:
            self.reuses += 1
            self.last_mode = "reuse"
            return self._model, self._index
        if unchanged:
            self._patch_share_rows(fair_share_count)
            self._count = fair_share_count
            self.row_updates += 1
            self.last_mode = "row_update"
            return self._model, self._index

        lp = LinearProgram(name="LP-PT", maximize=True)
        index, blocks = _build_model(lp, instance, requests, waiting,
                                     fair_share_count=fair_share_count,
                                     tables=self._tables,
                                     geometry=self._geometry,
                                     feasible=feasible)
        self._columns = columns
        self._count = fair_share_count
        self._model = lp
        self._index = index
        self._blocks = blocks
        self.rebuilds += 1
        self.last_mode = "rebuild"
        return lp, index

    def _feasible_stations(self, instance: ProblemInstance,
                           request: ARRequest,
                           waiting_ms: float) -> List[int]:
        """Deadline pruning with cached placement delays.

        Same stations, same order (sorted by placement delay then id),
        and the same float comparison as
        :meth:`~repro.core.latency.LatencyModel.feasible_stations` -
        only the waiting-independent delay table is computed once per
        request instead of once per round.
        """
        entry = self._delays.get(request.request_id)
        if entry is None or entry[0] is not request:
            arr = instance.latency.placement_delays(request)
            delays = sorted(zip(arr.tolist(),
                                instance.network.station_ids))
            entry = (request, delays)
            self._delays[request.request_id] = entry
        threshold = request.deadline_ms + 1e-9
        return [sid for delay, sid in entry[1]
                if waiting_ms + delay <= threshold]

    def _patch_share_rows(self, fair_share_count: int) -> None:
        """Rewrite rows whose effective cap moved with ``|R_t|``.

        Row *presence* is invariant under a share change: a station
        with columns always has ``truncated(cap) > 0`` for its
        ``cap > 0`` rows, so every affected row already exists and the
        patch never needs to add or drop one.
        """
        assert (self._model is not None and self._blocks is not None
                and self._geometry is not None)
        geometry = self._geometry
        old_caps = geometry.station_caps(self._count)
        new_caps = geometry.station_caps(fair_share_count)
        # Exact on purpose: an unchanged cap means the row's
        # coefficients are the same floats - only bit-level moves
        # warrant a rewrite (tolerances would skip real changes).
        moved = {int(geometry.row_offset[geometry.position[sid]]) + j
                 for sid in geometry.station_ids
                 for j, (old, new) in enumerate(zip(old_caps[sid],
                                                    new_caps[sid]))
                 if old != new}  # repro: noqa NUM001 -- bitwise change detection
        if not moved:
            return
        keys, indptr, indices, data = self._blocks.capped_rows(geometry,
                                                               new_caps)
        names = geometry.row_names(keys)
        bounds = indptr.tolist()
        for row, key in enumerate(keys.tolist()):
            if key in moved:
                lo, hi = bounds[row], bounds[row + 1]
                self._model.update_constraint_indexed(
                    names[row], dict(zip(indices[lo:hi].tolist(),
                                         data[lo:hi].tolist())))
