"""The benchmark's four workloads and the layer wrappers of its traced run.

A workload is an unbounded, seed-derived sequence of *operations*.  An
operation is one RunSpec through ``experiments.executor.execute_run``
(``offline-fig3``, ``online-dynamicrr``) or one drain of a fresh greedy
:class:`~repro.service.loop.AdmissionService` (``service-*``).  Every
operation runs on its own instance (network, delays, requests), seeded
from the workload seed and the operation's index, so one run's figures
average over many instances instead of hinging on one random network.
Operation ``i`` is the same for every run with the same seed.  All of it
is serial, in this process, with ``workers=1``: no process pool and no
HTTP endpoint.

Why these four:

* ``offline-fig3`` - the Fig. 3 sweep (Appro, Heu, Greedy, OCORP,
  HeuKKT over |R| = 100-300).  LP assembly, HiGHS solve and rounding
  dominate Appro and Heu.  Arrival generation and slot physics do
  almost nothing.
* ``online-dynamicrr`` - DynamicRR over the Fig. 4 |R| range at the
  paper's 100-slot horizon: ~100 small LP-PT builds per run through
  workspace reuse/patching and the warm-start cache, plus the bandit.
* ``service-capacity`` - greedy drain below saturation, with a decision
  journal and checkpoints: no LP; policy decisions, delay model, engine
  physics, journaling and checkpointing.  Checkpoints come every 50
  slots (CI's smoke job uses 200): checkpoint slots set the tail, and
  at 2 % of the slots they put ``slot_p99_ms`` well inside that mode.
  At 0.5 % or 1 % it sat on the mode's edge and jumped between runs.
* ``service-overload`` - greedy at ~100x saturation, no journal: most
  arrivals are shed unread, so arrival generation leads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.baselines import GreedyOffline, HeuKktOffline, OcorpOffline
from repro.core.dynamic_rr import DynamicRR
from repro.experiments import executor
from repro.experiments.executor import OFFLINE, ONLINE, RunSpec
from repro.experiments.figures import OFFLINE_ALGORITHMS
from repro.experiments.settings import base_config
from repro.service.loadgen import build_config
from repro.service.loop import AdmissionService
from repro.sim.online_engine import OnlineEngine
from repro.telemetry.audit import InvariantMonitor

import hostspeed
from tracing import Site, Tracer

#: Per-RunSpec outputs compared exactly (relative 1e-9).
SWEEP_KEYS = ("total_reward", "avg_latency_ms", "num_admitted",
              "num_rewarded")

#: Service counters compared exactly (relative 1e-9).
SERVICE_KEYS = ("arrivals", "accepted", "shed", "deferred", "started",
                "completed", "dropped", "reward", "slots")


@dataclass
class OpResult:
    """What one operation produced.

    Attributes:
        row: deterministic outputs (checked against references).
        op_s: timed wall seconds of the operation, probes excluded.
        slot_s: latency samples in seconds - one per slot, or one per
            RunSpec where the whole batch is decided in one epoch.
        started: requests started (admitted and begun).
        requests: requests offered (arrivals).
        missed: requests that missed their latency limit (shed,
            dropped, rejected or late).
        problems: failed sanity checks, one line each.
        slot_probes: host-speed probes around the slots, as
            ``(index of the next slot, probe s)``, or empty where the
            slots were not probed (see :mod:`hostspeed`).
    """

    row: Dict[str, Any]
    op_s: float
    slot_s: List[float]
    started: int
    requests: int
    missed: int
    problems: List[str]
    slot_probes: List[Tuple[int, float]] = field(default_factory=list)


def instance_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th instance of a workload seed (disjoint
    between workload seeds)."""
    return seed * 100_000 + index


@contextlib.contextmanager
def step_timer(samples: List[float],
               probes: Optional[hostspeed.SlotProbes] = None
               ) -> Iterator[None]:
    """Record the wall time of every ``OnlineEngine.step`` call, with
    host-speed ``probes`` around them when given."""
    original = vars(OnlineEngine)["step"]
    clock = time.perf_counter

    def timed(self, *args, **kwargs):
        if probes is not None:
            probes.before(len(samples))
        began = clock()
        outcome = original(self, *args, **kwargs)
        samples.append(clock() - began)
        if probes is not None:
            probes.after(samples[-1])
        return outcome

    OnlineEngine.step = timed
    try:
        yield
    finally:
        OnlineEngine.step = original


# ----------------------------------------------------------------------
# Sweep workloads (RunSpecs through experiments.executor.execute_run)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepWorkload:
    """A Fig. 3 / Fig. 4 style sweep: each instance takes the next |R|
    of the range in turn and runs every algorithm at it.

    Attributes:
        cycle_ops: operations of the traced run's fixed cycle.
    """

    name: str
    mode: str
    factories: Tuple[Any, ...]
    request_counts: Tuple[int, ...]
    cycle_ops: int
    horizon_slots: Optional[int] = None

    @property
    def sweep_ops(self) -> int:
        """Operations of one pass over the |R| range."""
        return len(self.factories) * len(self.request_counts)

    def prepare(self, seed: int, index: int, workdir: str) -> RunSpec:
        """The ``index``-th RunSpec of the sequence."""
        k, which = divmod(index, len(self.factories))
        sub = instance_seed(seed, k)
        config = base_config(sub)
        count = self.request_counts[k % len(self.request_counts)]
        return RunSpec(mode=self.mode, factory=self.factories[which],
                       x=count, seed=sub, config=config,
                       num_requests=count, horizon_slots=self.horizon_slots,
                       slot_length_ms=config.online.slot_length_ms,
                       ).validate()

    def run_op(self, spec: RunSpec, tracer: Optional[Tracer] = None,
               probe_slots: bool = False) -> OpResult:
        """Run one RunSpec; with ``probe_slots`` an online run probes
        the host's speed around its slots."""
        steps: List[float] = []
        probes = hostspeed.SlotProbes()
        timer = (step_timer(steps, probes if probe_slots else None)
                 if self.mode == ONLINE else contextlib.nullcontext())
        with timer:
            began = time.perf_counter()
            # Through the module, so the traced run's wrapper is hit.
            if tracer is None:
                record = executor.execute_run(spec)
            else:
                with tracer.op(self.name):
                    record = executor.execute_run(spec)
            took = time.perf_counter() - began - probes.spent_s
        probes.finish(len(steps))
        row = {"algorithm": record.algorithm, "x": record.x,
               "seed": record.seed}
        row.update({key: record.metrics[key] for key in SWEEP_KEYS})
        return OpResult(
            row=row, op_s=took,
            slot_s=steps if self.mode == ONLINE else [took],
            started=int(row["num_admitted"]), requests=spec.num_requests,
            missed=spec.num_requests - int(row["num_rewarded"]),
            problems=_sweep_sanity(row, spec), slot_probes=probes.marks)


def _sweep_sanity(row: Dict[str, Any], spec: RunSpec) -> List[str]:
    label = f"{row['algorithm']} |R|={spec.num_requests} seed={spec.seed}"
    problems = []
    if not (0 <= row["num_rewarded"] <= row["num_admitted"]
            <= spec.num_requests):
        problems.append(f"{label}: admitted/rewarded counts out of range")
    if not (math.isfinite(row["total_reward"]) and row["total_reward"] >= 0):
        problems.append(f"{label}: total_reward {row['total_reward']}")
    if not (math.isfinite(row["avg_latency_ms"])
            and row["avg_latency_ms"] >= 0):
        problems.append(f"{label}: avg_latency_ms {row['avg_latency_ms']}")
    return problems


# ----------------------------------------------------------------------
# Service workloads (AdmissionService runs)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceWorkload:
    """Greedy ``AdmissionService`` runs at one offered load, each on its
    own instance.

    With ``drain`` the run ticks until the service has drained.
    Without it the run stops at the slot of the last arrival and
    ``close()`` settles what is still queued: after the arrivals the
    drain goes on for up to a stream's 40 slots of nearly idle ticks,
    which in a short overloaded run are almost half of all ticks and
    would put the median slot on the edge between two modes.

    With ``checkpoint_every`` a run is durable: it keeps a decision
    journal and cuts a checkpoint every that many slots, and its journal
    is replayed through the invariant monitor after the run, outside
    its time.

    Attributes:
        cycle_ops: operations of the traced run's fixed cycle.
    """

    name: str
    arrivals: int
    rate: float
    queue_limit: int
    cycle_ops: int
    drain: bool = True
    checkpoint_every: Optional[int] = None
    #: Every run is on its own instance; there is no range to sweep.
    sweep_ops = 1

    def prepare(self, seed: int, index: int,
                workdir: str) -> AdmissionService:
        """A fresh service for the ``index``-th run."""
        journal = checkpoint = None
        if self.checkpoint_every is not None:
            journal = os.path.join(workdir, f"{self.name}-{index}.jsonl")
            checkpoint = os.path.join(workdir, f"{self.name}-{index}.ckpt")
        return AdmissionService(build_config(
            self.arrivals, self.rate, policy="greedy",
            seed=instance_seed(seed, index), queue_limit=self.queue_limit,
            journal_path=journal, checkpoint_path=checkpoint,
            checkpoint_every=self.checkpoint_every))

    def run_op(self, service: AdmissionService,
               tracer: Optional[Tracer] = None,
               probe_slots: bool = False) -> OpResult:
        """Run one service; with ``probe_slots`` it probes the host's
        speed around its slots."""
        began = time.perf_counter()
        samples, probes, last_arrival, checkpoints, left = _tick(
            service, tracer, self.name, self.drain, probe_slots)
        took = time.perf_counter() - began - probes.spent_s
        counters = service.counters
        row: Dict[str, Any] = {"seed": service.config.sim.seed}
        row.update({key: counters[key] for key in SERVICE_KEYS})
        row["arrival_slots"] = last_arrival + 1
        row["checkpoints"] = checkpoints
        row["pending_left"] = left
        problems = _service_sanity(row, self.arrivals, self.drain)
        config = service.config
        if config.journal_path is not None:
            row["journal_events"] = service.journal.total_recorded
            row["journal_bytes"] = os.path.getsize(config.journal_path)
            row["journal_sha256"] = _sha256(config.journal_path)
            problems += audit_journal(config.journal_path, row)
            os.remove(config.journal_path)
            os.remove(config.checkpoint_path)
        return OpResult(row=row, op_s=took, slot_s=samples,
                        started=int(row["started"]),
                        requests=int(row["arrivals"]),
                        missed=int(row["shed"] + row["dropped"] + left),
                        problems=problems, slot_probes=probes.marks)


def _tick(service: AdmissionService, tracer: Optional[Tracer], name: str,
          drain: bool, probe_slots: bool
          ) -> Tuple[List[float], hostspeed.SlotProbes, int, int, int]:
    """Tick one service to drain, or to its last arrival; returns the
    per-tick wall times (s), the host-speed probes around them (none
    without ``probe_slots``), the last arrival slot, the checkpoints cut
    and the requests still pending when it stopped."""
    clock = time.perf_counter
    samples: List[float] = []
    probes = hostspeed.SlotProbes()
    last_arrival = -1
    checkpoints = 0
    limit = service.config.max_arrivals
    while not service.done:
        if probe_slots:
            probes.before(len(samples))
        began = clock()
        if tracer is None:
            report = service.tick()
        else:
            with tracer.op(name):
                report = service.tick()
        samples.append(clock() - began)
        probes.after(samples[-1])
        if report.outcome.num_arrivals or report.num_shed:
            last_arrival = report.outcome.slot
        checkpoints += report.checkpointed
        if not drain and service.counters["arrivals"] >= limit:
            break
    probes.finish(len(samples))
    left = service.engine.pending_count()
    service.close()
    return samples, probes, last_arrival, checkpoints, left


def _service_sanity(row: Dict[str, Any], arrivals: int,
                    drained: bool) -> List[str]:
    label = f"run seed={row['seed']}"
    checks = [
        (row["arrivals"] == arrivals, "arrivals != configured arrivals"),
        (row["accepted"] + row["shed"] == row["arrivals"],
         "accepted + shed != arrivals"),
        (row["started"] + row["dropped"] + row["pending_left"]
         == row["accepted"], "started + dropped + pending != accepted"),
        (row["completed"] == row["started"] if drained
         else row["completed"] <= row["started"],
         "completed != started after a drain, or > started"),
        (math.isfinite(row["reward"]) and row["reward"] >= 0,
         "reward not finite and >= 0"),
    ]
    return [f"{label}: {message}" for ok, message in checks if not ok]


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def audit_journal(path: str, row: Dict[str, Any]) -> List[str]:
    """Replay one decision journal through the invariant monitor."""
    with open(path, "r", encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle]
    monitor = InvariantMonitor(mode="collect").check_events(events)
    monitor.finish({"total_reward": row["reward"],
                    "num_admitted": row["started"]})
    return [f"journal of run seed={row['seed']}: {violation}"
            for violation in monitor.violations]


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
#: |R| range of Figs. 3 and 4 at paper scale.
PAPER_REQUEST_COUNTS = (100, 150, 200, 250, 300)

WORKLOADS: Dict[str, Any] = {
    "offline-fig3": SweepWorkload(
        name="offline-fig3", mode=OFFLINE,
        factories=tuple(OFFLINE_ALGORITHMS),
        request_counts=PAPER_REQUEST_COUNTS, cycle_ops=50),
    "online-dynamicrr": SweepWorkload(
        name="online-dynamicrr", mode=ONLINE, factories=(DynamicRR,),
        request_counts=PAPER_REQUEST_COUNTS, cycle_ops=10,
        horizon_slots=100),
    "service-capacity": ServiceWorkload(
        name="service-capacity", arrivals=500, rate=0.5, queue_limit=64,
        cycle_ops=20, checkpoint_every=50),
    "service-overload": ServiceWorkload(
        name="service-overload", arrivals=2000, rate=64.0,
        queue_limit=64, cycle_ops=20, drain=False),
}

#: Offered load = realised arrival rate / saturation capacity must stay
#: in this band.
RHO_BANDS = {"service-capacity": (0.7, 0.95),
             "service-overload": (50.0, 200.0)}


def tiny(workload):
    """The same workload at smoke-test size (same code path)."""
    if isinstance(workload, SweepWorkload):
        return dataclasses.replace(
            workload, request_counts=(12,),
            cycle_ops=len(workload.factories),
            horizon_slots=(10 if workload.horizon_slots else None))
    durable = workload.checkpoint_every is not None
    return dataclasses.replace(workload, arrivals=300 if durable else 640,
                               cycle_ops=1,
                               checkpoint_every=25 if durable else None)


# ----------------------------------------------------------------------
# Layer wrappers of the traced run
# ----------------------------------------------------------------------
def _nnz(lp) -> int:
    return sum(len(row.coeffs) for row in lp.constraints)


def _count_build(counters, args, kwargs, result) -> None:
    workspace = kwargs.get("workspace")
    if workspace is None and len(args) > 3:
        workspace = args[3]
    mode = "rebuild" if workspace is None else workspace.last_mode
    counters[f"lp_relaxation.{mode}"] += 1
    if mode == "rebuild":
        counters["lp_relaxation.nnz"] += _nnz(result[0])


def _count_solve(counters, args, kwargs, result) -> None:
    warm = kwargs.get("warm_start")
    if warm is None and len(args) > 2:
        warm = args[2]
    if warm is not None and warm.last_mode == "hit":
        counters["solver.warm_hits"] += 1


def _count_admission(counters, args, kwargs, result) -> None:
    counters["rounding.candidates"] += len(result)
    counters["rounding.admitted"] += sum(1 for o in result if o.admitted)


def _count_checkpoint(counters, args, kwargs, result) -> None:
    counters["checkpoint.bytes"] += os.path.getsize(result)


_LATENCY = "repro.core.latency:LatencyModel."
SCALAR_DELAY_METHODS = ("station_base_delay_ms", "task_proc_delay_ms",
                        "proc_delay_ms", "transfer_delay_ms",
                        "placement_delay_ms", "total_delay_ms",
                        "split_delay_ms", "is_feasible")
VECTOR_DELAY_METHODS = ("placement_delays", "feasible_stations")

#: Offline baseline ``run`` spans (``baselines.offline_run_ms``).
OFFLINE_BASELINE_SPANS = tuple(
    f"baselines.{cls.__name__}.run"
    for cls in (GreedyOffline, OcorpOffline, HeuKktOffline))

SITES: Tuple[Site, ...] = (
    # requests: arrival generation
    Site("repro.requests.generator:RequestGenerator.generate_one",
         "requests.generate_one", keep_span=False, nested=True),
    Site("repro.requests.generator:RequestGenerator.generate_batch",
         "requests.generate_batch", keep_span=False),
    Site("repro.requests.generator:RequestGenerator.generate_arrivals",
         "requests.generate_arrivals", keep_span=False),
    Site("repro.requests.arrivals:PoissonArrivalStream.next_batch",
         "requests.next_batch", keep_span=False),
    # core.latency: delay / feasibility evaluation
    *(Site(_LATENCY + method, f"latency.scalar.{method}", keep_span=False)
      for method in SCALAR_DELAY_METHODS),
    *(Site(_LATENCY + method, f"latency.vector.{method}", keep_span=False)
      for method in VECTOR_DELAY_METHODS),
    # baselines: online policy decisions and offline runs
    Site("repro.baselines.base:OnlineBaselinePolicy.schedule",
         "baselines.schedule"),
    Site("repro.baselines.heukkt:HeuKktOnline.schedule",
         "baselines.schedule"),
    *(Site(f"{cls.__module__}:{cls.__name__}.run",
           f"baselines.{cls.__name__}.run")
      for cls in (GreedyOffline, OcorpOffline, HeuKktOffline)),
    # core: the paper's algorithm drivers
    Site("repro.core.appro:Appro.run", "core.appro_run"),
    Site("repro.core.heu:Heu.run", "core.heu_run"),
    Site("repro.core.dynamic_rr:DynamicRR.begin", "core.dynamic_rr_begin"),
    Site("repro.core.dynamic_rr:DynamicRR.schedule",
         "core.dynamic_rr_schedule"),
    Site("repro.core.dynamic_rr:DynamicRR.observe",
         "core.dynamic_rr_observe"),
    # core.lp_relaxation: LP assembly
    Site("repro.core.lp_relaxation:build_lp_relaxation",
         "lp_relaxation.build_lp_relaxation", hook=_count_build),
    Site("repro.core.lp_relaxation:build_lp_pt",
         "lp_relaxation.build_lp_pt", hook=_count_build),
    Site("repro.core.lp_relaxation:LpIndex.options_table",
         "lp_relaxation.options_table"),
    # solver: LP solve (HiGHS)
    Site("repro.solver.interface:solve_lp", "solver.solve_lp",
         hook=_count_solve),
    # core.rounding: rounding and admission
    Site("repro.core.rounding:randomized_round", "rounding.randomized_round"),
    Site("repro.core.rounding:admit_slot_by_slot",
         "rounding.admit_slot_by_slot", hook=_count_admission),
    # bandits
    Site("repro.bandits.lipschitz:LipschitzBandit.select_value",
         "bandits.select_value"),
    Site("repro.bandits.lipschitz:LipschitzBandit.record",
         "bandits.record"),
    # sim.online_engine: slot physics
    Site("repro.sim.online_engine:OnlineEngine.run", "online_engine.run"),
    Site("repro.sim.online_engine:OnlineEngine.step", "online_engine.step"),
    # service.loop
    Site("repro.service.loop:AdmissionService.tick", "loop.tick"),
    Site("repro.service.loop:AdmissionService.close", "loop.close"),
    # telemetry.audit: journaling
    Site("repro.telemetry.audit:Journal.record", "audit.record",
         keep_span=False),
    Site("repro.telemetry.audit:Journal.flush", "audit.flush",
         keep_span=False, nested=True),
    # service.checkpoint: state export and the atomic write
    Site("repro.sim.online_engine:OnlineEngine.export_state",
         "checkpoint.engine_state"),
    Site("repro.requests.arrivals:PoissonArrivalStream.export_state",
         "checkpoint.stream_state"),
    Site("repro.service.checkpoint:write_checkpoint", "checkpoint.write",
         hook=_count_checkpoint),
    # experiments.executor
    Site("repro.experiments.executor:execute_run", "executor.execute_run"),
    Site("repro.core.instance:ProblemInstance.build",
         "executor.instance_build"),
)
