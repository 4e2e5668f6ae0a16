#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload offline-fig3 --seed 0 \\
        --seconds 20 --trace 0

``--workload`` is one of ``offline-fig3``, ``online-dynamicrr``,
``service-capacity``, ``service-overload`` (see ``workloads.py`` for
why each exists), or ``all`` to run the four serially in this process.

``--trace 0`` runs the workload's operations 0, 1, 2, ... until their
measured time reaches ``--seconds`` and reports the end-to-end metrics,
with no tracing: set-up time, RunSpecs (or service runs) per second,
goodput, slot latency median and tail, SLA-miss ratio and peak RSS.
Every timing is wall-clock time scaled by a host-speed factor that fixed
reference kernels measure around it (see ``hostspeed.py``): around every
slot for the slot latencies, between operations for the rest; the
report also prints the unscaled figures.
``--trace 1`` runs the workload's fixed cycle (its first ``cycle_ops``
operations) once untraced and once traced, and prints the per-layer
split (busy and self time, work counters, ratios), the tracing
overhead and the share of traced time no layer accounts for.

Every run checks its outputs: per-operation sanity, agreement with
``expected.json`` for the seeds and operations it lists, the
offered-load band of the service workloads, an invariant replay of
every decision journal, and - in a traced run - equality of traced and
untraced outputs and of the deterministic work counters.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status is
0 when every check passed, 1 when one failed, 2 when the benchmark
cannot run (for instance without ``src/`` next to it).
"""

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: Scratch space for journals, checkpoints and span files (gitignored).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOAD_NAMES = ("offline-fig3", "online-dynamicrr", "service-capacity",
                  "service-overload")

#: Fresh-interpreter set-ups per run; ``setup_s`` reports their median.
SETUP_REPS = 5

#: What one set-up does in a fresh interpreter: import the program and
#: build operation 0's inputs.  It prints its own duration.
_SETUP_SCRIPT = """
import sys, time
began = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.WORKLOADS[{name!r}].prepare({seed}, 0, {workdir!r})
print(time.perf_counter() - began)
"""

#: (name, unit) of the end-to-end metrics, measured untraced.
END_TO_END = (
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("goodput_per_s", "1/s"),
    ("slot_p50_ms", "ms"),
    ("slot_p99_ms", "ms"),
    ("sla_miss_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: Layers of the split, in the order of a slot's or RunSpec's call path.
LAYERS = ("executor", "core", "loop", "online_engine", "baselines",
          "requests", "latency", "lp_relaxation", "solver", "rounding",
          "bandits", "audit", "checkpoint")

#: Deterministic work counters: each must repeat exactly.
COUNTERS = (
    "requests.materialized", "latency.scalar_calls", "latency.vector_calls",
    "baselines.schedule_calls", "lp_relaxation.builds", "lp_relaxation.nnz",
    "solver.solves", "rounding.calls", "bandits.rounds",
    "online_engine.steps", "loop.ticks", "audit.events", "audit.bytes",
    "checkpoint.writes", "executor.runs",
)

#: (name, unit) of the per-layer metrics of the traced cycle.
PER_LAYER = (
    ("requests.materialized", "count"),
    ("requests.busy_ms", "ms"),
    ("requests.us_per_request", "us"),
    ("latency.scalar_calls", "count"),
    ("latency.vector_calls", "count"),
    ("latency.busy_ms", "ms"),
    ("baselines.schedule_calls", "count"),
    ("baselines.schedule_self_ms", "ms"),
    ("baselines.offline_run_ms", "ms"),
    ("lp_relaxation.builds", "count"),
    ("lp_relaxation.busy_ms", "ms"),
    ("lp_relaxation.nnz", "count"),
    ("lp_relaxation.reuse_ratio", "ratio"),
    ("solver.solves", "count"),
    ("solver.busy_ms", "ms"),
    ("solver.warm_hit_ratio", "ratio"),
    ("lp.build_to_solve", "ratio"),
    ("rounding.calls", "count"),
    ("rounding.busy_ms", "ms"),
    ("rounding.admit_ratio", "ratio"),
    ("core.appro_run_ms", "ms"),
    ("core.heu_run_ms", "ms"),
    ("bandits.rounds", "count"),
    ("bandits.busy_ms", "ms"),
    ("online_engine.steps", "count"),
    ("online_engine.self_ms", "ms"),
    ("loop.ticks", "count"),
    ("loop.self_ms", "ms"),
    ("loop.shed_ratio", "ratio"),
    ("audit.events", "count"),
    ("audit.record_ms", "ms"),
    ("audit.flush_ms", "ms"),
    ("audit.bytes", "bytes"),
    ("checkpoint.writes", "count"),
    ("checkpoint.busy_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("executor.runs", "count"),
    ("executor.instance_build_ms", "ms"),
    ("executor.self_ms", "ms"),
    *((f"{layer}.self_share", "ratio") for layer in LAYERS),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
)

UNITS = dict(END_TO_END + PER_LAYER)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_percentile(count: int) -> int:
    """Highest whole percentile (99 at most) with >= 10 samples beyond."""
    for pct in range(99, 50, -1):
        if count * (100 - pct) >= 10 * 100:
            return pct
    return 50


def nearest_rank(samples: Sequence[float], pct: float) -> float:
    """Exact nearest-rank percentile of ``samples`` (0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def same_value(a: Any, b: Any) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def compare_rows(observed: Sequence[Dict[str, Any]],
                 reference: Sequence[Dict[str, Any]],
                 label: str) -> List[Tuple[int, str]]:
    """(operation index, message) for every output that differs; only
    the operations both sequences have are compared."""
    problems = []
    for index, (got, want) in enumerate(zip(observed, reference)):
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want \
                    or not same_value(got[key], want[key]):
                problems.append((index, f"{label}: op {index} {key} = "
                                        f"{got.get(key)!r}, expected "
                                        f"{want.get(key)!r}"))
    return problems


def compare_counters(observed: Dict[str, float], reference: Dict[str, float],
                     label: str) -> List[str]:
    return [f"{label}: {name} = {observed.get(name)!r}, expected "
            f"{reference.get(name)!r}"
            for name in sorted(set(observed) | set(reference))
            if not same_value(observed.get(name), reference.get(name))]


class Checker:
    """Collects problems per operation; an operation fails once."""

    def __init__(self) -> None:
        self.problems: Dict[Tuple[str, int], List[str]] = defaultdict(list)
        self.attempted = 0

    def add(self, phase: str, op: int, message: str) -> None:
        self.problems[(phase, op)].append(message)

    @property
    def failed(self) -> int:
        return min(len(self.problems), self.attempted)

    def messages(self) -> List[str]:
        return [f"[{phase}] {message}"
                for (phase, _op), messages in sorted(self.problems.items())
                for message in messages]


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def realised_rho(rows: Sequence[Dict[str, Any]], capacity: float) -> float:
    """Offered load of a run: arrivals per arrival slot over the
    saturation capacity (starts per slot)."""
    arrivals = sum(row.get("arrivals", 0) for row in rows)
    slots = sum(row.get("arrival_slots", 0) for row in rows)
    return arrivals / max(1, slots) / capacity


# ----------------------------------------------------------------------
# Per-layer reduction of the traced cycle
# ----------------------------------------------------------------------
def layer_metrics(tracer, ops, workloads) -> Dict[str, float]:
    """Per-layer metrics of one traced cycle of operations."""
    funcs = tracer.funcs
    entries = tracer.entry_calls
    busy = tracer.layer_busy_s
    counters = tracer.counters
    self_s = tracer.layer_self_s()
    name_self = tracer.name_self_s()
    wall = tracer.op_wall_s()

    def calls(name: str) -> int:
        return funcs[name].calls if name in funcs else 0

    def entered(prefix: str) -> int:
        return sum(count for name, count in entries.items()
                   if name.startswith(prefix))

    def ms(seconds: float) -> float:
        return seconds * 1e3

    rows = [op.row for op in ops]
    materialized = calls("requests.generate_one")
    builds = entered("lp_relaxation.build_")
    build_s = sum(funcs[name].total_s for name in
                  ("lp_relaxation.build_lp_relaxation",
                   "lp_relaxation.build_lp_pt") if name in funcs)
    solves = entered("solver.solve_lp")
    metrics = {
        "requests.materialized": materialized,
        "requests.busy_ms": ms(busy.get("requests", 0.0)),
        "requests.us_per_request": _ratio(busy.get("requests", 0.0) * 1e6,
                                          materialized),
        "latency.scalar_calls": entered("latency.scalar."),
        "latency.vector_calls": entered("latency.vector."),
        "latency.busy_ms": ms(busy.get("latency", 0.0)),
        "baselines.schedule_calls": entered("baselines.schedule"),
        "baselines.schedule_self_ms": ms(name_self.get(
            "baselines.schedule", 0.0)),
        "baselines.offline_run_ms": ms(_median(tracer.durations(
            workloads.OFFLINE_BASELINE_SPANS))),
        "lp_relaxation.builds": builds,
        "lp_relaxation.busy_ms": ms(busy.get("lp_relaxation", 0.0)),
        "lp_relaxation.nnz": counters.get("lp_relaxation.nnz", 0.0),
        "lp_relaxation.reuse_ratio": _ratio(
            counters.get("lp_relaxation.reuse", 0.0)
            + counters.get("lp_relaxation.row_update", 0.0), builds),
        "solver.solves": solves,
        "solver.busy_ms": ms(busy.get("solver", 0.0)),
        "solver.warm_hit_ratio": _ratio(counters.get("solver.warm_hits", 0.0),
                                        solves),
        "lp.build_to_solve": _ratio(build_s, busy.get("solver", 0.0)),
        "rounding.calls": entered("rounding."),
        "rounding.busy_ms": ms(busy.get("rounding", 0.0)),
        "rounding.admit_ratio": _ratio(
            counters.get("rounding.admitted", 0.0),
            counters.get("rounding.candidates", 0.0)),
        "core.appro_run_ms": ms(_median(tracer.durations(
            ["core.appro_run"]))),
        "core.heu_run_ms": ms(_median(tracer.durations(["core.heu_run"]))),
        "bandits.rounds": calls("bandits.record"),
        "bandits.busy_ms": ms(busy.get("bandits", 0.0)),
        "online_engine.steps": calls("online_engine.step"),
        "online_engine.self_ms": ms(self_s.get("online_engine", 0.0)),
        "loop.ticks": calls("loop.tick"),
        "loop.self_ms": ms(self_s.get("loop", 0.0)),
        "loop.shed_ratio": _ratio(sum(row.get("shed", 0) for row in rows),
                                  sum(op.requests for op in ops)),
        "audit.events": calls("audit.record"),
        "audit.record_ms": ms(name_self.get("audit.record", 0.0)),
        "audit.flush_ms": ms(name_self.get("audit.flush", 0.0)),
        "audit.bytes": sum(row.get("journal_bytes", 0) for row in rows),
        "checkpoint.writes": calls("checkpoint.write"),
        "checkpoint.busy_ms": ms(busy.get("checkpoint", 0.0)),
        "checkpoint.bytes": counters.get("checkpoint.bytes", 0.0),
        "executor.runs": calls("executor.execute_run"),
        "executor.instance_build_ms": ms(sum(tracer.durations(
            ["executor.instance_build"]))),
        "executor.self_ms": ms(self_s.get("executor", 0.0)),
        "trace.unattributed_ratio": _ratio(self_s.get("op", 0.0), wall),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = _ratio(self_s.get(layer, 0.0), wall)
    return metrics


def counter_cross_checks(metrics: Dict[str, float], ops) -> List[str]:
    """Counters that the untraced outputs also determine must agree."""
    rows = [op.row for op in ops]
    pairs = [("requests.materialized", sum(op.requests for op in ops))]
    if any("journal_events" in row for row in rows):
        pairs.append(("audit.events",
                      sum(row["journal_events"] for row in rows)))
    if any("checkpoints" in row for row in rows):
        pairs.append(("checkpoint.writes",
                      sum(row["checkpoints"] for row in rows)))
    return [f"traced {name} = {metrics[name]} but the outputs imply {want}"
            for name, want in pairs if metrics[name] != want]


# ----------------------------------------------------------------------
# Running one workload
# ----------------------------------------------------------------------
def attempt(workload, seed: int, index: int, workdir: str, tracer=None,
            probe_slots: bool = False):
    """Operation ``index``; one that raises becomes a failed operation
    (its traceback goes to stderr) instead of ending the run."""
    import workloads

    began = time.perf_counter()
    try:
        return workload.run_op(workload.prepare(seed, index, workdir),
                               tracer, probe_slots=probe_slots)
    except Exception as error:  # the per-operation boundary of the run
        traceback.print_exc()
        return workloads.OpResult(
            row={"raised": type(error).__name__},
            op_s=time.perf_counter() - began, slot_s=[], started=0,
            requests=0, missed=0,
            problems=[f"op {index} raised {type(error).__name__}: {error}"])


def _run(workload, seed: int, workdir: str, more, tracer=None,
         probe_slots: bool = False) -> Tuple[list, List[float]]:
    """Operations 0, 1, ... while ``more(ops)`` holds, or until one
    raises; returns them with the host-speed factor of each, from the
    probes around it (see ``hostspeed.py``)."""
    ops: list = []
    probes = [hostspeed.probe()]
    while more(ops):
        ops.append(attempt(workload, seed, len(ops), workdir, tracer,
                           probe_slots))
        probes.append(hostspeed.probe())
        if "raised" in ops[-1].row:
            break
    return ops, hostspeed.operation_factors(probes)


def run_stream(workload, seed: int, workdir: str, budget_s: float
               ) -> Tuple[list, List[float]]:
    """Whole sweeps of operations until their measured wall time reaches
    ``budget_s`` (at least one sweep).  Stopping between sweeps keeps
    the mix of request counts the same in every run.  Slots are probed
    for the host's speed here only: the traced run compares its two
    cycles at operation level."""
    def more(ops) -> bool:
        return bool(len(ops) % workload.sweep_ops) \
            or sum(op.op_s for op in ops) < budget_s

    return _run(workload, seed, workdir, more, probe_slots=True)


def run_cycle(workload, seed: int, workdir: str, tracer=None
              ) -> Tuple[list, List[float]]:
    """The fixed traced cycle: operations 0 .. ``cycle_ops - 1``, under
    the layer wrappers when ``tracer`` is given."""
    import tracing
    import workloads

    scope = (tracing.instrument(tracer, workloads.SITES)
             if tracer is not None else contextlib.nullcontext())
    with scope:
        return _run(workload, seed, workdir,
                    lambda ops: len(ops) < workload.cycle_ops, tracer)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 expected: Dict[str, Any]
                 ) -> Tuple[Dict[str, float], Checker, List[str]]:
    """Run one workload; returns (metrics, checker, report lines)."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    lines: List[str] = []
    try:
        if not trace:
            setup_s, setup_factor = measure_setup(name, seed, workdir)
            ops, factors = run_stream(workload, seed, workdir, seconds)
            phases = [("untraced", ops)]
            metrics = _end_to_end(ops, factors, setup_s, setup_factor,
                                  lines)
        else:
            plain, plain_factors = run_cycle(workload, seed, workdir)
            tracer = tracing.Tracer()
            traced, factors = run_cycle(workload, seed, workdir, tracer)
            phases = [("untraced", plain), ("traced", traced)]
            metrics = layer_metrics(tracer, traced, workloads)
            factor = _median(factors)
            for key, value in metrics.items():
                if UNITS[key] in ("ms", "us"):
                    metrics[key] = value * factor
            metrics["trace.overhead_ratio"] = \
                _scaled_work(traced, factors) \
                / _scaled_work(plain, plain_factors) - 1.0
            span_path = os.path.join(OUT_DIR,
                                     f"trace-{name}-seed{seed}.jsonl")
            tracer.write(span_path)
            _report_split(metrics, plain, traced, factor, lines)
            lines.append(f"spans: {os.path.relpath(span_path, ROOT)}")
        checker = Checker()
        _check_outputs(name, seed, workloads, expected, phases, checker,
                       lines)
        if trace:
            _check_counters(name, seed, expected, metrics, traced, checker)
        return metrics, checker, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _check_outputs(name, seed, workloads, expected, phases,
                   checker: Checker, lines: List[str]) -> None:
    """Sanity, offered-load band, journal replay, expected.json and
    (traced run) traced == untraced, per operation."""
    listed = expected.get("seeds", {}).get(str(seed), {}).get(name)
    band = workloads.RHO_BANDS.get(name)
    capacity = expected["capacity_starts_per_slot"]
    first_rows = [op.row for op in phases[0][1]]
    for number, (phase, ops) in enumerate(phases):
        rows = [op.row for op in ops]
        checker.attempted += len(ops)
        for index, op in enumerate(ops):
            for message in op.problems:
                checker.add(phase, index, message)
        if band is not None:
            rho = realised_rho(rows, capacity)
            lines.append(f"{phase} realised rho {rho:.3f} over {len(rows)} "
                         f"runs (capacity {capacity:.4f} starts/slot, band "
                         f"{band[0]}-{band[1]})")
            if not band[0] <= rho <= band[1]:
                checker.add(phase, -1, f"{name}: realised rho {rho:.3f} "
                                       f"outside {band[0]}-{band[1]}")
        if listed:
            for index, message in compare_rows(rows, listed["rows"],
                                               f"{phase} vs expected.json"):
                checker.add(phase, index, message)
        if number:
            for index, message in compare_rows(rows, first_rows,
                                               f"{phase} vs untraced"):
                checker.add(phase, index, message)
    if listed:
        covered = min(len(listed["rows"]), len(phases[0][1]))
        lines.append(f"outputs of operations 0-{covered - 1} checked "
                     f"against expected.json")
    else:
        lines.append(f"seed {seed} is not listed in expected.json: "
                     f"outputs checked for sanity and invariants only")


def _check_counters(name, seed, expected, metrics, traced,
                    checker: Checker) -> None:
    listed = expected.get("seeds", {}).get(str(seed), {}).get(name)
    observed = {key: metrics[key] for key in COUNTERS}
    problems = counter_cross_checks(metrics, traced)
    if listed:
        problems += compare_counters(observed, listed["counters"],
                                     "counters vs expected.json")
    for message in problems:
        checker.add("traced", -1, message)


def measure_setup(name: str, seed: int, workdir: str
                  ) -> Tuple[List[float], float]:
    """Durations of ``SETUP_REPS`` fresh-interpreter set-ups, and the
    host-speed factor of the median of the probes around them."""
    script = _SETUP_SCRIPT.format(src=SRC, here=HERE, name=name, seed=seed,
                                  workdir=workdir)
    probes = [hostspeed.probe()]
    durations = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", script], check=True,
                              capture_output=True, text=True, timeout=120)
        durations.append(float(done.stdout.split()[-1]))
        probes.append(hostspeed.probe())
    return durations, hostspeed.PROBE_REFERENCE_S / _median(probes)


def scaled_op(op, factor: float) -> Tuple[List[float], float]:
    """An operation's slot samples and its time, at reference host speed.

    A probed slot is scaled by the slot probes just around it; the rest
    of the operation (and every slot of an operation whose slots were
    not probed) by the operation's own ``factor``.
    """
    factors = (hostspeed.slot_factors(op.slot_probes)
               or [factor] * len(op.slot_s))
    samples = [t * f for t, f in zip(op.slot_s, factors)]
    rest = op.op_s - sum(op.slot_s)
    return samples, sum(samples) + rest * factor


def _scaled_work(ops, factors: Sequence[float]) -> float:
    return sum(scaled_op(op, factor)[1] for op, factor in zip(ops, factors))


def _end_to_end(ops, factors: Sequence[float], setup_s: List[float],
                setup_factor: float, lines: List[str]) -> Dict[str, float]:
    raw_work = sum(op.op_s for op in ops)
    samples: List[float] = []
    work = 0.0
    for op, factor in zip(ops, factors):
        op_samples, op_s = scaled_op(op, factor)
        samples += op_samples
        work += op_s
    pct = tail_percentile(len(samples))
    metrics = {
        "setup_s": _median(setup_s) * setup_factor,
        "runs_per_s": len(ops) / work,
        "goodput_per_s": sum(op.started for op in ops) / work,
        "slot_p50_ms": _median(samples) * 1e3,
        "slot_p99_ms": nearest_rank(samples, pct) * 1e3,
        "sla_miss_ratio": _ratio(sum(op.missed for op in ops),
                                 sum(op.requests for op in ops)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines.append(f"{len(ops)} operations, {raw_work:.2f} s of measured "
                 f"wall time; host-speed factor median "
                 f"{_median(factors):.3f} (range {min(factors):.3f}-"
                 f"{max(factors):.3f}); unscaled runs_per_s "
                 f"{len(ops) / raw_work:.6g}")
    lines.append(f"setup_s = median of {len(setup_s)} fresh-interpreter "
                 f"set-ups (imports + operation 0's inputs) "
                 f"{_median(setup_s):.3f} s x host-speed factor "
                 f"{setup_factor:.3f}")
    probed = sum(1 for op in ops if op.slot_probes)
    lines.append(f"slot latency: {len(samples)} samples, each scaled by "
                 f"the host-speed probes just around it"
                 if probed else f"slot latency: {len(samples)} samples")
    lines.append(f"slot_p99_ms is "
                 f"p{pct} (the highest percentile with >= 10 samples "
                 f"beyond it); {sum(1 for s in samples if s > 0.05)} "
                 f"samples over the 50 ms slot")
    return metrics


def _report_split(metrics, plain, traced, factor: float,
                  lines: List[str]) -> None:
    lines.append(f"traced cycle: {len(traced)} operations, "
                 f"{sum(op.op_s for op in plain):.2f} s untraced, "
                 f"{sum(op.op_s for op in traced):.2f} s traced (wall); "
                 f"times below are scaled by the host-speed factor "
                 f"{factor:.3f}")
    lines.append("self time by layer (share of traced operation time):")
    for share, layer in sorted(((metrics[f"{layer}.self_share"], layer)
                                for layer in LAYERS), reverse=True):
        lines.append(f"  {layer:<14} {share * 100:6.2f} %")
    lines.append(f"  {'(unattributed)':<14} "
                 f"{metrics['trace.unattributed_ratio'] * 100:6.2f} %")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _format(value: float) -> str:
    return f"{value:.6g}"


def _print_metrics(metrics: Dict[str, float]) -> None:
    for key, value in metrics.items():
        print(f"  {key:<30} {_format(value):>14} {UNITS[key]}")


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (or all four).")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run the benchmark "
              f"from a full checkout", file=sys.stderr)
        return 2
    if not os.path.isfile(EXPECTED_PATH):
        print(f"perfbench: missing {EXPECTED_PATH}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    expected = load_expected()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    combined: Dict[str, Dict[str, Any]] = {}
    attempted = failed = 0
    for name in names:
        metrics, checker, lines = run_workload(
            name, args.seed, args.seconds, bool(args.trace), expected)
        attempted += checker.attempted
        failed += checker.failed
        print(f"== {name} seed={args.seed} trace={args.trace} ==")
        for line in lines:
            print(f"  {line}")
        _print_metrics(metrics)
        print(f"  {'error_ratio':<30} "
              f"{_format(_ratio(checker.failed, checker.attempted)):>14} "
              f"ratio ({checker.failed} of {checker.attempted} "
              f"operations failed a check)")
        for message in checker.messages()[:20]:
            print(f"  CHECK FAILED {message}")
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, value in metrics.items():
            combined[prefix + key] = {"value": value, "unit": UNITS[key]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
