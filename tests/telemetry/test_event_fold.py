"""The event fold: each decision is emitted once and counted from it.

:func:`repro.telemetry.audit.emit` journals a decision event and folds
it into the current registry through
:meth:`~repro.telemetry.metrics.MetricsRegistry.absorb`.  These tests
pin the fold table's coverage of the event vocabulary and check, on
real runs, that every fold-derived counter equals the number of events
of its kind in the journal.
"""

from __future__ import annotations

import json
from collections import Counter

from repro.config import (NetworkConfig, OnlineConfig, RequestConfig,
                          SimulationConfig)
from repro.core.heu import Heu
from repro.service import AdmissionService, ServiceConfig
from repro.sim.engine import run_offline
from repro.sim.events import Event, EventKind
from repro.telemetry.audit import (Journal, emit, listening, use_journal)
from repro.telemetry.metrics import (EVENT_COUNTERS, MetricsRegistry,
                                     use_metrics)

#: The cloud path's pseudo station id (``OnlineEngine``'s CLOUD_STATION).
CLOUD = -1


def fold_counts(events, kinds=None):
    """Expected counter series -> value, counted off a journal."""
    expected = Counter()
    for event in events:
        kind = event["kind"]
        series = EVENT_COUNTERS[kind]
        if series is None or (kinds is not None and kind not in kinds):
            continue
        if kind == "start" and event.get("station") == CLOUD:
            series = ("engine_cloud_served_total", ())
        expected[series] += 1
    return expected


def assert_counters_match(registry, events, kinds=None):
    expected = fold_counts(events, kinds)
    assert expected, "the run emitted no folded events"
    for kind, series in EVENT_COUNTERS.items():
        if series is None or (kinds is not None and kind not in kinds):
            continue
        name, labels = series
        assert registry.counter(name, **dict(labels)) \
            == expected[series], kind
    if kinds is None or "start" in kinds:
        assert registry.counter("engine_cloud_served_total") \
            == expected[("engine_cloud_served_total", ())]


class TestFoldTable:
    def test_every_event_kind_is_mapped_or_excluded(self):
        # A new EventKind must get a counter here or be listed as
        # deliberately uncounted (None).
        assert set(EVENT_COUNTERS) == {kind.value for kind in EventKind}

    def test_cloud_start_counts_as_cloud_served(self):
        registry = MetricsRegistry()
        registry.absorb(Event(slot=0, kind=EventKind.START,
                              station_id=CLOUD))
        registry.absorb(Event(slot=0, kind=EventKind.START, station_id=2))
        assert registry.counter("engine_cloud_served_total") == 1.0
        assert registry.counter("engine_starts_total") == 1.0

    def test_station_transitions_carry_their_direction(self):
        registry = MetricsRegistry()
        registry.absorb(Event(slot=0, kind=EventKind.STATION_UP))
        registry.absorb(Event(slot=1, kind=EventKind.STATION_DOWN))
        registry.absorb(Event(slot=2, kind=EventKind.STATION_UP))
        assert registry.counter("station_transitions_total",
                                direction="up") == 2.0
        assert registry.counter("station_transitions_total",
                                direction="down") == 1.0


class TestEmit:
    def test_journals_once_and_folds_once(self):
        journal, registry = Journal(), MetricsRegistry()
        with use_journal(journal), use_metrics(registry):
            emit(Event(slot=3, kind=EventKind.SHED, request_id=7))
        assert journal.events() == [
            {"kind": "shed", "slot": 3, "request": 7}]
        assert registry.snapshot()["counters"] == {"service_shed_total": 1.0}

    def test_listening_needs_a_journal_or_a_registry(self):
        assert not listening()
        with use_journal(Journal()):
            assert listening()
        with use_metrics(MetricsRegistry()):
            assert listening()


class TestFoldMatchesJournal:
    def test_dynamicrr_service_drain(self, tmp_path):
        sim = SimulationConfig(
            network=NetworkConfig(num_base_stations=6),
            requests=RequestConfig(stream_duration_slots=10),
            online=OnlineConfig(horizon_slots=40),
            seed=4321).validate()
        config = ServiceConfig(
            sim=sim, horizon_slots=30, mean_arrivals_per_slot=6.0,
            max_arrivals=150, policy="dynamicrr", queue_limit=8,
            journal_path=str(tmp_path / "journal.jsonl"), flush_every=16,
            checkpoint_path=str(tmp_path / "service.ckpt"),
            checkpoint_every=5, metrics_snapshot_every=4,
            ops_journal_path=str(tmp_path / "ops.jsonl"))
        registry = MetricsRegistry()
        service = AdmissionService(config, registry=registry)
        while not service.done:
            service.tick()
        left_over = (service.engine.pending_count()
                     + service.engine.active_total())
        service.close()
        with open(config.journal_path) as handle:
            events = [json.loads(line) for line in handle]
        kinds = Counter(event["kind"] for event in events)
        # The run exercises shedding, deferral, checkpoints, the
        # bandit and the shutdown DROPs of close().
        for kind in ("shed", "admit_deferred", "checkpoint",
                     "arm_selected", "admit", "drop"):
            assert kinds[kind] > 0, kind
        assert left_over > 0
        assert_counters_match(registry, events)
        with open(config.ops_journal_path) as handle:
            ops = Counter(json.loads(line)["kind"] for line in handle)
        assert registry.counter("service_metrics_snapshots_total") \
            == ops["metrics_snapshot"] > 0

    def test_heu_offline_run(self, small_instance, small_workload):
        journal, registry = Journal(), MetricsRegistry()
        with use_journal(journal), use_metrics(registry):
            run_offline(Heu(), small_instance, small_workload, seed=0)
        events = journal.events()
        # The offline engine replays the batch's lifecycle into the
        # journal only; Heu's own decisions are emitted and folded.
        decisions = ("admit", "reject_rounding", "migrate")
        assert all(Counter(e["kind"] for e in events)[kind] > 0
                   for kind in decisions)
        assert_counters_match(registry, events, kinds=decisions)
        assert registry.counter("engine_arrivals_total") == 0.0
