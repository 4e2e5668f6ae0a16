"""Command-line driver: ``python -m repro.experiments``.

Runs the Section VI figures and prints the paper-style tables, with
optional CSV export::

    python -m repro.experiments --figures 3 4 --scale bench
    python -m repro.experiments --figures all --scale paper --out results/

The bench scale finishes in about a minute; the paper scale runs the
full Section VI sweeps (several minutes).

Telemetry: ``--trace PATH`` records a :mod:`repro.telemetry` trace of
every run (one JSONL event stream, merged in canonical RunSpec order)
and ``--trace-summary`` prints the aggregated per-phase breakdown -
where the milliseconds went, span by span::

    python -m repro.experiments --figures 3 --trace fig3.jsonl --trace-summary

Observability across runs: ``--progress`` adds a live stderr heartbeat
(completed/total specs, throughput, ETA) while sweeps execute;
``--ledger PATH`` appends a :class:`~repro.telemetry.RunManifest`
(config hash, git rev, seeds, peak RSS, per-figure wall-clock,
headline metrics per algorithm) to a JSONL ledger and ``--bench-out
PATH`` exports it as a ``BENCH_<name>.json`` snapshot.  The
``bench-diff`` subcommand compares two such files and exits non-zero
on regression::

    python -m repro.experiments --figures 3 --bench-out BENCH_new.json
    python -m repro.experiments bench-diff BENCH_old.json BENCH_new.json --tol 0.05

Decision auditing: ``--journal PATH`` records every scheduling
decision (arrivals, starts, drops, migrations, rounding admissions,
bandit arm plays/eliminations, station outages) to a canonical JSONL
journal, ``--audit`` replays each run's journal through the invariant
monitor and prints the audit, and the ``trace-diff`` subcommand aligns
two journals and localizes the first divergent event::

    python -m repro.experiments --figures 3 --journal serial.jsonl
    python -m repro.experiments --figures 3 --workers 2 --journal par.jsonl
    python -m repro.experiments trace-diff serial.jsonl par.jsonl

Performance attribution: ``--profile`` records a
:class:`~repro.telemetry.ProfileDigest` per run (span-tree self/cum
time, call counts, domain counters joined onto their owning spans)
plus cProfile stats, merged per algorithm and embedded into any
``--ledger`` / ``--bench-out`` manifest; ``--profile-json PATH``
exports the digests as ``PROF_<name>.json``, ``--profile-out PATH``
writes a collapsed-stack flamegraph (speedscope / flamegraph.pl), and
``--profile-mem`` captures top allocation sites.  The ``perf-diff``
subcommand compares two digest-bearing artifacts and localizes the
worst regressed span::

    python -m repro.experiments --figures 3 --profile --bench-out BENCH_new.json
    python -m repro.experiments perf-diff benchmarks/PROF_baseline.json BENCH_new.json

Profiling is observation-only: records, journals, and manifest metrics
are byte-identical with it on or off (see ``docs/PROFILING.md``).

The streaming admission service (``python -m repro.service loadgen`` /
``resume``) emits the same journal format and ``BENCH_service.json``
manifests, so ``trace-diff`` doubles as its resume byte-identity gate
and ``bench-diff`` as its throughput-regression check - see
``docs/SERVICE.md``.

The three diff subcommands are front ends over one comparator core,
:mod:`repro.telemetry.diff`: exit 0 = within tolerance, 1 =
regression or divergence, 2 = unusable input (a missing, non-UTF-8
or malformed file, or a negative tolerance).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from ..telemetry import (ProgressReporter, audit_records,
                         collect_sweep_journal, collect_sweep_profiles,
                         collect_sweep_trace, folded_from_stats,
                         manifest_from_sweeps, merge_memory,
                         merge_stats, render_digest,
                         render_memory_top, render_summary,
                         write_folded, write_jsonl,
                         write_profile_set)
from ..telemetry.diff import bench_diff, perf_diff, trace_diff
from ..telemetry.ledger import append_ledger, write_bench
from .executor import resolve_workers, workers_type
from .export import export_figure
from .figures import figure3, figure4, figure5, figure6
from .reporting import render_ascii_plot, render_figure
from .settings import bench_scale, paper_scale

_FIGURES = {
    "3": (figure3, ("total_reward", "avg_latency_ms", "runtime_s")),
    "4": (figure4, ("total_reward", "avg_latency_ms")),
    "5": (figure5, ("total_reward", "avg_latency_ms")),
    "6": (figure6, ("total_reward", "avg_latency_ms")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures (ICDCS 2021 MEC/AR "
                    "offloading reproduction).  The bench-diff "
                    "subcommand (python -m repro.experiments "
                    "bench-diff OLD NEW) compares two run ledgers; the "
                    "trace-diff subcommand (python -m repro.experiments "
                    "trace-diff A.jsonl B.jsonl) localizes the first "
                    "divergent event between two decision journals.")
    parser.add_argument("--figures", nargs="+", default=["all"],
                        choices=["3", "4", "5", "6", "all"],
                        help="which figures to run (default: all)")
    parser.add_argument("--scale", choices=["bench", "paper"],
                        default="bench",
                        help="sweep size preset (default: bench)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="directory for CSV export (optional)")
    parser.add_argument("--plot", action="store_true",
                        help="also render ASCII line plots")
    parser.add_argument("--workers", type=workers_type, default=1,
                        metavar="N",
                        help="worker processes per sweep (1 = serial, "
                             "0 = one per CPU; results are identical "
                             "for every value)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record a telemetry trace of every run "
                             "and write the merged JSONL here")
    parser.add_argument("--trace-summary", action="store_true",
                        help="print the aggregated span breakdown "
                             "(implies tracing)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="record a decision audit journal of every "
                             "run and write the merged JSONL here "
                             "(diffable with trace-diff)")
    parser.add_argument("--audit", action="store_true",
                        help="replay every journaled run through the "
                             "invariant monitor and print the audit "
                             "(implies journaling)")
    parser.add_argument("--profile", action="store_true",
                        help="record a performance-attribution digest "
                             "(span tree + domain counters) and "
                             "cProfile stats per run; digests print "
                             "per algorithm and embed into any "
                             "--ledger/--bench-out manifest (records "
                             "are unchanged)")
    parser.add_argument("--profile-out", default=None, metavar="PATH",
                        help="write a collapsed-stack flamegraph "
                             "(.folded, speedscope/flamegraph.pl "
                             "loadable) of the merged cProfile stats "
                             "(implies --profile)")
    parser.add_argument("--profile-json", default=None, metavar="PATH",
                        help="export the merged per-algorithm digests "
                             "as PROF_<name>.json (perf-diff input; "
                             "implies --profile)")
    parser.add_argument("--profile-mem", action="store_true",
                        help="additionally capture tracemalloc top "
                             "allocation sites per run and print the "
                             "merged table")
    parser.add_argument("--progress", action="store_true",
                        help="live stderr heartbeat while sweeps run "
                             "(completed/total specs, throughput, ETA; "
                             "records are unchanged)")
    parser.add_argument("--ledger", default=None, metavar="PATH",
                        help="append a RunManifest for this invocation "
                             "to a JSONL run ledger")
    parser.add_argument("--bench-out", default=None, metavar="PATH",
                        help="export the RunManifest as a "
                             "BENCH_<name>.json snapshot")
    parser.add_argument("--bench-name", default=None, metavar="NAME",
                        help="manifest name (default: "
                             "figures-<ids>-<scale>)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    for front_end in (bench_diff, perf_diff, trace_diff):
        if argv and argv[0] == front_end.name:
            return front_end.main(argv[1:])
    args = build_parser().parse_args(argv)
    wanted = list(_FIGURES) if "all" in args.figures else args.figures
    scale = paper_scale() if args.scale == "paper" else bench_scale()
    tracing = bool(args.trace or args.trace_summary)
    journaling = bool(args.journal or args.audit)
    profiling = bool(args.profile or args.profile_out
                     or args.profile_json)
    trace_events: List[Dict] = []
    journal_events: List[Dict] = []
    audited_sweeps: List = []
    reporter = ProgressReporter() if args.progress else None
    sweeps: Dict[str, object] = {}
    phases: Dict[str, float] = {}

    for fig_id in wanted:
        driver, panels = _FIGURES[fig_id]
        driver_kwargs = {"workers": args.workers, "trace": tracing}
        if journaling:
            driver_kwargs["journal"] = True
        if profiling:
            driver_kwargs["profile"] = True
        if args.profile_mem:
            driver_kwargs["profile_mem"] = True
        if reporter is not None:
            # Only passed when live: stubbed/third-party drivers
            # without the knob keep working unless it is asked for.
            reporter.set_phase(f"fig{fig_id}")
            driver_kwargs["progress"] = reporter
        started = time.perf_counter()  # repro: noqa DET001 -- advisory runtime metric
        sweep = driver(scale, **driver_kwargs)
        phases[f"fig{fig_id}"] = time.perf_counter() - started  # repro: noqa DET001 -- advisory runtime metric
        sweeps[f"fig{fig_id}"] = sweep
        if tracing:
            for event in collect_sweep_trace(sweep.records):
                event["figure"] = fig_id
                trace_events.append(event)
        if journaling:
            for event in collect_sweep_journal(sweep.records):
                event["figure"] = fig_id
                journal_events.append(event)
            audited_sweeps.append((fig_id, sweep))
        print(render_figure(sweep, panels, f"Figure {fig_id}"))
        print()
        if args.plot:
            for metric in panels:
                print(render_ascii_plot(
                    sweep, metric,
                    title=f"Figure {fig_id}: {metric}"))
                print()
        if args.out:
            paths = export_figure(sweep, args.out, f"fig{fig_id}")
            for path in paths:
                print(f"  wrote {path}")
            print()

    if args.ledger or args.bench_out:
        name = args.bench_name or (
            f"figures-{'-'.join(wanted)}-{args.scale}")
        manifest = manifest_from_sweeps(
            name, sweeps,
            config={"scale": scale, "figures": wanted},
            workers=resolve_workers(args.workers),
            phases=phases,
            extra={"scale": args.scale, "figures": wanted})
        if args.ledger:
            path = append_ledger(args.ledger, manifest)
            print(f"appended manifest {name!r} to {path}")
        if args.bench_out:
            path = write_bench(args.bench_out, manifest)
            print(f"wrote manifest {name!r} to {path}")

    if profiling:
        digests = collect_sweep_profiles(sweeps)
        print()
        print("Profile digests")
        for name in sorted(digests):
            print(f"== {name} ==")
            print(render_digest(digests[name], top=10))
            print()
        if args.profile_json:
            path = write_profile_set(args.profile_json, digests)
            print(f"wrote {len(digests)} digest(s) to {path}")
        if args.profile_out:
            stats = merge_stats(
                record.profile_stats
                for sweep in sweeps.values()
                for record in sweep.records
                if record.profile_stats)
            path = write_folded(args.profile_out,
                                folded_from_stats(stats))
            print(f"wrote collapsed stacks to {path}")
    if args.profile_mem:
        rows = merge_memory(
            record.profile_mem
            for sweep in sweeps.values()
            for record in sweep.records
            if record.profile_mem)
        print()
        print("Top allocation sites")
        print(render_memory_top(rows))

    if args.trace:
        path = write_jsonl(args.trace, trace_events)
        print(f"wrote trace ({len(trace_events)} events) to {path}")
    if args.trace_summary:
        print()
        print("Telemetry summary")
        print(render_summary(trace_events))
    if args.journal:
        path = write_jsonl(args.journal, journal_events)
        print(f"wrote journal ({len(journal_events)} events) to {path}")
    if args.audit:
        failed = False
        print()
        print("Invariant audit")
        for fig_id, sweep in audited_sweeps:
            outcome = audit_records(sweep.records)
            verdict = ("ok" if not outcome.violations
                       else f"{len(outcome.violations)} violation(s)")
            checks = sum(outcome.checks.values())
            print(f"  fig{fig_id}: {outcome.runs_audited} run(s), "
                  f"{checks} checks, {verdict}")
            for tag, violation in outcome.violations:
                failed = True
                print(f"    {tag}: {violation}")
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
