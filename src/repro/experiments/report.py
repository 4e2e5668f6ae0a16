"""One-shot reproduction report generator.

``build_report`` runs the figure drivers (and optionally the ablation
studies) at a chosen scale and renders a self-contained Markdown
report in the style of the repository's ``EXPERIMENTS.md`` - tables per
figure panel plus the theorem-check summary - so a user can regenerate
the whole evidence base with one call::

    from repro.experiments.report import build_report
    text = build_report(bench_scale())
    Path("my_experiments.md").write_text(text)

or from the shell::

    python -m repro.experiments.report --scale bench --out report.md
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.results import SweepResult
from ..telemetry import (INVARIANTS, ProgressReporter, audit_records,
                         collect_sweep_journal, collect_sweep_profiles,
                         collect_sweep_trace, folded_from_stats,
                         manifest_from_sweeps, merge_memory,
                         merge_stats, render_digest,
                         render_memory_top, render_summary,
                         write_folded, write_jsonl)
from ..telemetry.ledger import append_ledger, write_bench
from .executor import ProgressKnob, resolve_progress, resolve_workers, \
    workers_type
from .ablations import (approximation_ratio_study, clairvoyant_study,
                        system_regret_study)
from .figures import figure3, figure4, figure5, figure6
from .settings import ExperimentScale, bench_scale, paper_scale

#: (figure id, driver, panels) in report order.  Drivers must accept
#: ``driver(scale, workers=N)`` like the built-in figure functions.
FigureSpec = Tuple[str, Callable[..., SweepResult],
                   Tuple[str, ...]]

DEFAULT_FIGURES: Tuple[FigureSpec, ...] = (
    ("3", figure3, ("total_reward", "avg_latency_ms", "runtime_s")),
    ("4", figure4, ("total_reward", "avg_latency_ms")),
    ("5", figure5, ("total_reward", "avg_latency_ms")),
    ("6", figure6, ("total_reward", "avg_latency_ms")),
)


def _markdown_table(sweep: SweepResult, metric: str) -> str:
    """One metric of a sweep as a Markdown table."""
    xs = sweep.x_values()
    header = "| algorithm | " + " | ".join(f"{x:g}" for x in xs) + " |"
    rule = "|---" * (len(xs) + 1) + "|"
    rows: List[str] = [header, rule]
    for algorithm in sweep.algorithms():
        xs_a, means, _ = sweep.series(algorithm, metric)
        by_x = dict(zip(xs_a, means))
        cells = [f"{by_x[x]:.1f}" if x in by_x else "-" for x in xs]
        rows.append(f"| {algorithm} | " + " | ".join(cells) + " |")
    return "\n".join(rows)


def render_figure_markdown(sweep: SweepResult, figure_id: str,
                           panels: Sequence[str]) -> str:
    """One figure as a Markdown section with a table per panel."""
    parts = [f"## Figure {figure_id} (x = {sweep.x_label})"]
    labels = "abcdefgh"
    for i, metric in enumerate(panels):
        parts.append(f"### ({labels[i]}) {metric}")
        parts.append(_markdown_table(sweep, metric))
    return "\n\n".join(parts)


def theorem_checks_markdown(fast: bool = True) -> str:
    """Run the theorem-check studies and render their summary."""
    if fast:
        ratio_mean, _ = approximation_ratio_study(num_requests=8,
                                                  seeds=(0, 1))
        regret = system_regret_study(thresholds=(200.0, 600.0, 1000.0),
                                     num_requests=80, horizon_slots=40)
        clair = clairvoyant_study(num_requests=80, horizon_slots=40)
    else:
        ratio_mean, _ = approximation_ratio_study()
        regret = system_regret_study()
        clair = clairvoyant_study()
    lines = [
        "## Theorem checks",
        "",
        "| claim | measured |",
        "|---|---|",
        f"| Thm. 1: Appro >= Opt/8 (single pass) | empirical mean "
        f"ratio {ratio_mean:.3f} (bound: 0.125) |",
        f"| Thm. 3: regret vs best fixed C^th | relative regret "
        f"{regret['relative_regret']:+.1%} (best arm "
        f"{regret['best_threshold']:.0f} MHz) |",
        f"| Competitive ratio vs clairvoyant bound | "
        f"{clair['competitive_ratio']:.3f} |",
    ]
    return "\n".join(lines)


#: Tracer value series that make up the bandit learning trajectory.
_BANDIT_SERIES = ("threshold_mhz", "surviving_arms",
                  "bandit_cumulative_reward")


def bandit_diagnostics_markdown(events: Sequence[Dict],
                                max_rows: int = 10) -> Optional[str]:
    """Render the DynamicRR learning trajectory from a merged trace.

    Scans the trace for the per-round value series DynamicRR records
    (threshold choice, surviving-arm count, cumulative settled reward)
    and renders the first traced run as a round-by-round table - the
    Theorem 3 regret curve made inspectable.  Returns None when no run
    recorded a bandit trajectory (e.g. an offline-only report).
    """
    runs: Dict[Tuple, Dict[str, List[float]]] = {}
    for event in events:
        if event.get("kind") != "value" \
                or event.get("name") not in _BANDIT_SERIES:
            continue
        key = (str(event.get("figure")), event.get("run"),
               event.get("algorithm"), event.get("x"),
               event.get("seed"))
        runs.setdefault(key, {})[event["name"]] = list(event["values"])
    complete = {key: series for key, series in runs.items()
                if "threshold_mhz" in series
                and "bandit_cumulative_reward" in series}
    if not complete:
        return None
    first_key = sorted(complete)[0]
    series = complete[first_key]
    figure, _run, algorithm, x, seed = first_key
    thresholds = series["threshold_mhz"]
    cumulative = series["bandit_cumulative_reward"]
    surviving = series.get("surviving_arms", [])
    rounds = min(len(thresholds), len(cumulative))
    step = max(1, -(-rounds // max_rows))  # ceil division
    indices = list(range(0, rounds, step))
    if indices and indices[-1] != rounds - 1:
        indices.append(rounds - 1)
    lines = [
        "## Bandit diagnostics (DynamicRR)",
        "",
        f"Traced learning runs: {len(complete)}.  Trajectory below: "
        f"figure {figure}, {algorithm}, x={x:g}, seed={seed} "
        f"({rounds} bandit rounds).",
        "",
        "| round | threshold (MHz) | surviving arms | "
        "cumulative reward |",
        "|---|---|---|---|",
    ]
    for i in indices:
        arms = f"{surviving[i]:.0f}" if i < len(surviving) else "-"
        lines.append(f"| {i + 1} | {thresholds[i]:.0f} | {arms} | "
                     f"{cumulative[i]:.1f} |")
    if surviving:
        lines.append("")
        lines.append(
            f"Final surviving arms: {surviving[-1]:.0f}; the "
            f"threshold trajectory converging while arms die off is "
            f"Theorem 3's sublinear regret at work.")
    return "\n".join(lines)


def invariant_audit_markdown(sweeps: Dict[str, SweepResult]
                             ) -> Optional[str]:
    """The "Invariant audit" section: every journaled run, checked.

    Replays each run's decision journal through a collect-mode
    :class:`~repro.telemetry.InvariantMonitor` (closed with the run's
    own metric row) and renders the per-invariant check counts plus
    any violations.  Returns None when no run carried a journal.
    """
    outcomes = {name: audit_records(sweep.records)
                for name, sweep in sweeps.items()}
    outcomes = {name: out for name, out in outcomes.items()
                if out.runs_audited}
    if not outcomes:
        return None
    runs = sum(out.runs_audited for out in outcomes.values())
    violations = [(name, tag, v) for name, out in outcomes.items()
                  for tag, v in out.violations]
    verdict = ("all invariants held" if not violations
               else f"{len(violations)} VIOLATION(S)")
    lines = [
        "## Invariant audit",
        "",
        f"Audited {runs} journaled run(s) across "
        f"{len(outcomes)} sweep(s): **{verdict}**.",
        "",
        "| invariant | checks | status |",
        "|---|---|---|",
    ]
    for name in INVARIANTS:
        checks = sum(out.checks[name] for out in outcomes.values())
        fails = sum(1 for _f, _t, v in violations
                    if v.invariant == name)
        status = ("FAIL" if fails else
                  "ok" if checks else "not exercised")
        lines.append(f"| {name} | {checks} | {status} |")
    for figure, tag, violation in violations:
        lines.append("")
        lines.append(f"- `{figure}` {tag}: {violation}")
    return "\n".join(lines)


def timing_markdown(timings: Sequence[Tuple[str, float, float]],
                    workers: int) -> str:
    """Render per-figure wall-clock (and speedup when measured).

    Args:
        timings: ``(figure id, elapsed seconds, serial seconds)`` rows;
            serial seconds is NaN when no baseline was measured.
        workers: worker processes the report ran with.
    """
    lines = ["## Wall-clock",
             "",
             f"Sweeps executed with `workers={workers}`.",
             "",
             "| figure | wall-clock (s) | serial (s) | speedup |",
             "|---|---|---|---|"]
    for figure_id, elapsed, serial in timings:
        if serial == serial:  # not NaN: a baseline was measured
            speedup = f"{serial / elapsed:.2f}x" if elapsed > 0 else "-"
            lines.append(f"| {figure_id} | {elapsed:.2f} | "
                         f"{serial:.2f} | {speedup} |")
        else:
            lines.append(f"| {figure_id} | {elapsed:.2f} | - | - |")
    total = sum(t[1] for t in timings)
    lines.append(f"| total | {total:.2f} | - | - |")
    return "\n".join(lines)


def build_report(scale: Optional[ExperimentScale] = None,
                 figures: Optional[Sequence[FigureSpec]] = None,
                 include_theorems: bool = True,
                 title: str = "Reproduction report",
                 workers: int = 1,
                 measure_speedup: bool = False,
                 trace: bool = False,
                 trace_sink: Optional[List[Dict]] = None,
                 journal: bool = False,
                 journal_sink: Optional[List[Dict]] = None,
                 profile: bool = False,
                 profile_mem: bool = False,
                 stats_sink: Optional[List] = None,
                 progress: ProgressKnob = None,
                 manifest_sink: Optional[List] = None) -> str:
    """Run the sweeps and return the full Markdown report.

    Args:
        scale: sweep preset (bench scale when None).
        figures: the figure drivers to run; None runs the module's
            ``DEFAULT_FIGURES``, looked up at call time.
        include_theorems: append the theorem-check studies.
        title: report heading.
        workers: worker processes per sweep (1 = serial, 0 = one per
            CPU); records are identical for every value.
        measure_speedup: when True and ``workers != 1``, re-run each
            sweep serially and report the wall-clock speedup (doubles
            the runtime; results stay identical by construction).
        trace: run every sweep with :mod:`repro.telemetry` tracing and
            append "Telemetry" and "Bandit diagnostics" sections.
            Drivers must accept a ``trace`` kwarg (the built-in figure
            drivers do).
        trace_sink: optional list that receives the merged trace
            events (for JSONL export by the caller).
        journal: run every sweep with decision journaling
            (:mod:`repro.telemetry.audit`) and append the "Invariant
            audit" section - every journaled run replayed through the
            invariant monitor.  Drivers must accept a ``journal``
            kwarg (the built-in figure drivers do).
        journal_sink: optional list that receives the merged journal
            events (for JSONL export / trace-diff by the caller).
        profile: run every sweep with performance profiling
            (:mod:`repro.telemetry.profiling`) and append the "Profile
            digests" section - per-algorithm span attribution with the
            joined domain counters.  The report's manifest (when
            ``manifest_sink`` is given) carries the digests in its
            ``profiles`` section.  Drivers must accept a ``profile``
            kwarg (the built-in figure drivers do).
        profile_mem: additionally capture allocation sites per run and
            append the "Top allocation sites" table.
        stats_sink: optional list that receives the merged cProfile
            stats mapping (for ``.folded`` flamegraph export by the
            caller).
        progress: live stderr heartbeat while sweeps run (``True`` or
            a :class:`~repro.telemetry.ProgressReporter`); records are
            unchanged.
        manifest_sink: optional list that receives one
            :class:`~repro.telemetry.RunManifest` condensing every
            sweep of this report (for ledger/BENCH export by the
            caller).
    """
    scale = (scale or bench_scale()).validate()
    if figures is None:
        figures = DEFAULT_FIGURES
    parts = [f"# {title}",
             "",
             f"Sweeps: |R| in {scale.request_counts}, |BS| in "
             f"{scale.station_counts}, max rate in "
             f"{scale.max_rates_mbps}; {scale.num_seeds} seed(s) per "
             f"point; online horizon {scale.horizon_slots} slots."]
    timings: List[Tuple[str, float, float]] = []
    trace_events: List[Dict] = []
    sweeps: Dict[str, SweepResult] = {}
    reporter = resolve_progress(progress)
    for figure_id, driver, panels in figures:
        if reporter is not None:
            reporter.set_phase(f"fig{figure_id}")
        driver_kwargs: Dict = {"workers": workers}
        if trace:
            driver_kwargs["trace"] = True
        if journal:
            driver_kwargs["journal"] = True
        if profile:
            driver_kwargs["profile"] = True
        if profile_mem:
            driver_kwargs["profile_mem"] = True
        if reporter is not None:
            # Only the knobs in use are passed, so third-party drivers
            # without the newer kwargs keep working untraced.
            driver_kwargs["progress"] = reporter
        start = time.perf_counter()  # repro: noqa DET001 -- advisory runtime metric
        sweep = driver(scale, **driver_kwargs)
        elapsed = time.perf_counter() - start  # repro: noqa DET001 -- advisory runtime metric
        sweeps[f"fig{figure_id}"] = sweep
        if trace:
            for event in collect_sweep_trace(sweep.records):
                event["figure"] = figure_id
                trace_events.append(event)
        if journal and journal_sink is not None:
            for event in collect_sweep_journal(sweep.records):
                event["figure"] = figure_id
                journal_sink.append(event)
        serial_s = float("nan")
        if measure_speedup and workers != 1:
            start = time.perf_counter()  # repro: noqa DET001 -- advisory runtime metric
            driver(scale, workers=1)
            serial_s = time.perf_counter() - start  # repro: noqa DET001 -- advisory runtime metric
        timings.append((figure_id, elapsed, serial_s))
        parts.append(render_figure_markdown(sweep, figure_id, panels))
    parts.append(timing_markdown(timings, workers))
    if trace:
        parts.append("## Telemetry\n\n"
                     + render_summary(trace_events, markdown=True))
        diagnostics = bandit_diagnostics_markdown(trace_events)
        if diagnostics is not None:
            parts.append(diagnostics)
        if trace_sink is not None:
            trace_sink.extend(trace_events)
    if journal:
        audit = invariant_audit_markdown(sweeps)
        if audit is not None:
            parts.append(audit)
    if profile:
        digests = collect_sweep_profiles(sweeps)
        digest_parts = ["## Profile digests"]
        for name in sorted(digests):
            digest_parts.append(f"### {name}")
            digest_parts.append(render_digest(digests[name], top=10,
                                              markdown=True))
        parts.append("\n\n".join(digest_parts))
        if stats_sink is not None:
            stats_sink.append(merge_stats(
                record.profile_stats
                for sweep in sweeps.values()
                for record in sweep.records
                if record.profile_stats))
    if profile_mem:
        rows = merge_memory(
            record.profile_mem
            for sweep in sweeps.values()
            for record in sweep.records
            if record.profile_mem)
        parts.append("## Top allocation sites\n\n"
                     + render_memory_top(rows, markdown=True))
    if manifest_sink is not None and sweeps:
        manifest_sink.append(manifest_from_sweeps(
            "report", sweeps,
            config={"scale": scale,
                    "figures": [f[0] for f in figures]},
            workers=resolve_workers(workers),
            phases={f"fig{fid}": elapsed
                    for fid, elapsed, _serial in timings},
            extra={"title": title}))
    if include_theorems:
        parts.append(theorem_checks_markdown(fast=True))
    return "\n\n".join(parts) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: ``python -m repro.experiments.report``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.report",
        description="Generate a Markdown reproduction report.")
    parser.add_argument("--scale", choices=["bench", "paper"],
                        default="bench")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the report here (default: stdout)")
    parser.add_argument("--no-theorems", action="store_true",
                        help="skip the theorem-check studies")
    parser.add_argument("--workers", type=workers_type, default=1,
                        metavar="N",
                        help="worker processes per sweep (1 = serial, "
                             "0 = one per CPU)")
    parser.add_argument("--speedup", action="store_true",
                        help="also run each sweep serially and report "
                             "the wall-clock speedup")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="trace every run, write the merged JSONL "
                             "here, and append Telemetry + Bandit "
                             "diagnostics sections")
    parser.add_argument("--trace-summary", action="store_true",
                        help="append the Telemetry section without "
                             "writing a JSONL file")
    parser.add_argument("--journal", default=None, metavar="FILE",
                        help="journal every decision, write the merged "
                             "JSONL here, and append the Invariant "
                             "audit section")
    parser.add_argument("--audit", action="store_true",
                        help="append the Invariant audit section "
                             "without writing a journal file")
    parser.add_argument("--profile", action="store_true",
                        help="profile every run and append the "
                             "Profile digests section (records are "
                             "unchanged)")
    parser.add_argument("--profile-out", default=None, metavar="FILE",
                        help="write a collapsed-stack flamegraph "
                             "(.folded) of the merged cProfile stats "
                             "(implies --profile)")
    parser.add_argument("--profile-mem", action="store_true",
                        help="additionally capture allocation sites "
                             "and append the Top allocation sites "
                             "table")
    parser.add_argument("--progress", action="store_true",
                        help="live stderr heartbeat while sweeps run")
    parser.add_argument("--ledger", default=None, metavar="PATH",
                        help="append this report's RunManifest to a "
                             "JSONL run ledger")
    parser.add_argument("--bench-out", default=None, metavar="PATH",
                        help="export this report's RunManifest as a "
                             "BENCH_<name>.json snapshot")
    args = parser.parse_args(argv)
    scale = paper_scale() if args.scale == "paper" else bench_scale()
    tracing = bool(args.trace or args.trace_summary)
    journaling = bool(args.journal or args.audit)
    profiling = bool(args.profile or args.profile_out)
    trace_sink: List[Dict] = []
    journal_sink: List[Dict] = []
    manifest_sink: List = []
    stats_sink: List = []
    text = build_report(scale,
                        include_theorems=not args.no_theorems,
                        workers=args.workers,
                        measure_speedup=args.speedup,
                        trace=tracing,
                        trace_sink=trace_sink,
                        journal=journaling,
                        journal_sink=journal_sink,
                        profile=profiling,
                        profile_mem=args.profile_mem,
                        stats_sink=stats_sink
                        if args.profile_out else None,
                        progress=ProgressReporter() if args.progress
                        else None,
                        manifest_sink=manifest_sink
                        if (args.ledger or args.bench_out) else None)
    if args.trace:
        path = write_jsonl(args.trace, trace_sink)
        print(f"wrote trace ({len(trace_sink)} events) to {path}")
    if args.journal:
        path = write_jsonl(args.journal, journal_sink)
        print(f"wrote journal ({len(journal_sink)} events) to {path}")
    if args.profile_out and stats_sink:
        path = write_folded(args.profile_out,
                            folded_from_stats(stats_sink[0]))
        print(f"wrote collapsed stacks to {path}")
    if manifest_sink:
        manifest = manifest_sink[0]
        if args.ledger:
            path = append_ledger(args.ledger, manifest)
            print(f"appended manifest {manifest.name!r} to {path}")
        if args.bench_out:
            path = write_bench(args.bench_out, manifest)
            print(f"wrote manifest {manifest.name!r} to {path}")
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
