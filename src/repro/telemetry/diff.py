"""One comparator core behind ``bench-diff``, ``perf-diff`` and ``trace-diff``.

The three subcommands of ``python -m repro.experiments`` each compare a
baseline artifact with a candidate and gate CI on the result:

* ``bench-diff OLD NEW`` - the headline metrics and wall-clock
  measurements of two run ledgers or ``BENCH_*.json`` snapshots;
* ``perf-diff OLD NEW`` - the span call counts, domain counters and
  per-span self time of two profile-digest sets, localizing the worst
  regressed span;
* ``trace-diff A B`` - two decision journals, event by event,
  localizing the first divergent event.

**The core** is what they share.  Exit codes: ``0`` = within
tolerance (identical journals), ``1`` = regression (divergence), ``2``
= unusable input - a negative tolerance, a file that is missing, not
UTF-8 or malformed, or nothing to compare.  One gate rule
(:func:`regressed`): a *deterministic* key - a pure function of config
+ seeds - regresses when ``|rel| > tol`` in either direction; a
*timing* key is advisory unless its front end selects it for gating,
and then regresses only on a slowdown beyond the timing gate.  One CLI
runner (:meth:`FrontEnd.main`) parses the arguments, rejects negative
numeric options, turns every load error into exit 2 and prints the
report.

**The front ends** hold what only one of them does: manifest
flattening and ``--gate-wall-keys`` patterns (bench-diff), digest
flattening, the ``--min-ms`` floor and worst-span localization
(perf-diff), first divergence and its context (trace-diff).
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from ..exceptions import ConfigurationError
from .export import read_jsonl
from .ledger import (WALL_CLOCK_METRICS, RunManifest, latest_by_name,
                     load_manifests)
from .profiling import (COUNTER_OWNERS, PATH_SEP, ProfileDigest,
                        counter_base, load_profile_set)

# ----------------------------------------------------------------------
# Core: exit codes, the gate rule, the CLI runner
# ----------------------------------------------------------------------
EXIT_OK = 0
EXIT_REGRESSED = 1
EXIT_ERROR = 2

#: One ``parser.add_argument(*flags, **options)`` call.
Argument = Tuple[Tuple[str, ...], Dict[str, Any]]


def regressed(rel: float, tol: float, timing: bool = False) -> bool:
    """The gate rule for one compared key.

    Deterministic keys regress on ``|rel| > tol`` in either direction
    (any drift means the baseline is stale); timing keys only on a
    slowdown ``rel > tol``.  Which timing keys are gated at all is the
    calling front end's choice.
    """
    return rel > tol if timing else abs(rel) > tol


@dataclass(frozen=True)
class FrontEnd:
    """One diff subcommand: its arguments and its comparison.

    Calling a front end runs its :meth:`main`.

    Attributes:
        name: the subcommand (``python -m repro.experiments <name>``).
        description: the ``--help`` description.
        arguments: the subcommand's arguments.
        nonnegative: argument destinations that must be >= 0 when
            given.
        compare: loads the inputs named by the parsed arguments and
            returns ``(exit_code, report)``; raises ``OSError``,
            ``ValueError`` or ``ConfigurationError`` on unusable input.
    """

    name: str
    description: str
    arguments: Tuple[Argument, ...]
    nonnegative: Tuple[str, ...]
    compare: Callable[[argparse.Namespace], Tuple[int, str]]

    def main(self, argv: Optional[Sequence[str]] = None) -> int:
        """Run the subcommand; returns the process exit code."""
        parser = argparse.ArgumentParser(
            prog=f"python -m repro.experiments {self.name}",
            description=self.description)
        for flags, options in self.arguments:
            parser.add_argument(*flags, **options)
        args = parser.parse_args(argv)
        negative = [f"--{dest.replace('_', '-')}"
                    for dest in self.nonnegative
                    if (getattr(args, dest) or 0) < 0]
        if negative:
            print(f"{parser.prog}: error: {'/'.join(negative)} must "
                  f"be >= 0", file=sys.stderr)
            return EXIT_ERROR
        try:
            code, report = self.compare(args)
        except (OSError, ValueError, ConfigurationError) as error:
            print(f"{parser.prog}: error: {error}", file=sys.stderr)
            return EXIT_ERROR
        print(report)
        return code

    __call__ = main


# ----------------------------------------------------------------------
# bench-diff: run manifests
# ----------------------------------------------------------------------
#: Default relative tolerance for deterministic metrics.
DEFAULT_METRIC_TOL = 1e-9
#: Default relative tolerance for wall-clock quantities (when gated).
DEFAULT_WALL_TOL = 0.25

#: Denominator floor so deltas against ~0 baselines stay finite.
_EPS = 1e-12


def _bench_rel(old: float, new: float) -> float:
    return (new - old) / max(abs(old), _EPS)


@dataclass(frozen=True)
class Delta:
    """One compared quantity of one run name.

    Attributes:
        run: manifest name the quantity belongs to.
        key: ``"<algorithm>.<metric>"`` or ``"phase.<name>"`` etc.
        old: baseline value.
        new: candidate value.
        wall_clock: True for advisory wall-clock quantities.
        regressed: True when the delta exceeded its tolerance gate.
    """

    run: str
    key: str
    old: float
    new: float
    wall_clock: bool
    regressed: bool

    @property
    def abs_delta(self) -> float:
        """``new - old``."""
        return self.new - self.old

    @property
    def rel_delta(self) -> float:
        """``(new - old) / max(|old|, eps)``."""
        return _bench_rel(self.old, self.new)


@dataclass
class DiffReport:
    """Everything ``bench-diff`` found between two ledgers."""

    deltas: List[Delta] = field(default_factory=list)
    #: Run names / metric keys present on only one side (advisory).
    missing: List[str] = field(default_factory=list)
    #: Run names compared.
    compared_runs: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[Delta]:
        """The deltas that exceeded their gate."""
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        """True when something was compared and nothing regressed."""
        return bool(self.compared_runs) and not self.regressions

    def render(self) -> str:
        """The human-readable diff report.

        Deterministic metrics print in key order; the advisory
        wall-clock block after them is sorted by relative magnitude
        (largest ``|rel_delta|`` first, key as tiebreak) so the
        biggest timing shift is always the first ``~`` line - the one
        worth pasting into ``perf-diff`` for span-level attribution.
        """
        if not self.compared_runs:
            return "bench-diff: no common run names to compare"
        lines: List[str] = []
        for run in self.compared_runs:
            lines.append(f"run {run!r}:")
            mine = [d for d in self.deltas if d.run == run]
            rows = ([d for d in mine if not d.wall_clock]
                    + sorted((d for d in mine if d.wall_clock),
                             key=lambda d: (-abs(d.rel_delta), d.key)))
            width = max((len(d.key) for d in rows), default=3)
            for d in rows:
                mark = "REGRESSION" if d.regressed else (
                    "~" if d.wall_clock else "ok")
                lines.append(
                    f"  {d.key.ljust(width)}  {d.old:>14.6g} -> "
                    f"{d.new:>14.6g}  ({d.rel_delta:+8.2%})  {mark}")
            if not rows:
                lines.append("  (no overlapping quantities)")
        for item in self.missing:
            lines.append(f"  only on one side: {item}")
        n_wall = sum(1 for d in self.deltas if d.wall_clock)
        lines.append(
            f"compared {len(self.compared_runs)} run(s), "
            f"{len(self.deltas) - n_wall} metric / {n_wall} wall-clock "
            f"quantities; {len(self.regressions)} regression(s)")
        return "\n".join(lines)


def _flatten_manifest(manifest: RunManifest
                      ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Split one manifest into (deterministic, wall-clock) flat maps."""
    metric: Dict[str, float] = {}
    wall: Dict[str, float] = {}
    for algo, row in manifest.metrics.items():
        for name, value in row.items():
            target = wall if name in WALL_CLOCK_METRICS else metric
            target[f"{algo}.{name}"] = float(value)
    for phase, seconds in manifest.phases.items():
        wall[f"phase.{phase}"] = float(seconds)
    if manifest.peak_rss_kb is not None:
        wall["peak_rss_kb"] = float(manifest.peak_rss_kb)
    return metric, wall


def diff_manifests(old: RunManifest, new: RunManifest,
                   metric_tol: float = DEFAULT_METRIC_TOL,
                   wall_tol: float = DEFAULT_WALL_TOL,
                   gate_wall: bool = False,
                   wall_keys: Optional[Sequence[str]] = None,
                   report: Optional[DiffReport] = None) -> DiffReport:
    """Compare two manifests of the same run name.

    Deterministic metrics gate on ``|rel delta| > metric_tol``; a key
    on one side only is listed as missing, not gated.  Wall-clock
    quantities gate only with ``gate_wall`` and only on slowdowns
    beyond ``wall_tol``; ``wall_keys`` (fnmatch patterns against the
    flattened key, e.g. ``"Appro.runtime_s"`` or ``"*.runtime_s"``)
    restricts the gate to matching quantities so a stable hot path can
    be pinned without gating every machine-dependent number.
    """
    if metric_tol < 0 or wall_tol < 0:
        raise ConfigurationError(
            f"tolerances must be >= 0, got {metric_tol}/{wall_tol}")
    out = report if report is not None else DiffReport()
    out.compared_runs.append(new.name)
    old_metric, old_wall = _flatten_manifest(old)
    new_metric, new_wall = _flatten_manifest(new)
    for key in sorted(set(old_metric) | set(new_metric)):
        if key not in old_metric or key not in new_metric:
            out.missing.append(f"{new.name}: {key}")
            continue
        a, b = old_metric[key], new_metric[key]
        out.deltas.append(Delta(
            run=new.name, key=key, old=a, new=b, wall_clock=False,
            regressed=regressed(_bench_rel(a, b), metric_tol)))
    for key in sorted(set(old_wall) & set(new_wall)):
        a, b = old_wall[key], new_wall[key]
        gated = gate_wall and (
            wall_keys is None
            or any(fnmatch.fnmatchcase(key, pattern)
                   for pattern in wall_keys))
        out.deltas.append(Delta(
            run=new.name, key=key, old=a, new=b, wall_clock=True,
            regressed=gated and regressed(_bench_rel(a, b), wall_tol,
                                          timing=True)))
    return out


def diff_ledgers(old: Sequence[RunManifest],
                 new: Sequence[RunManifest],
                 metric_tol: float = DEFAULT_METRIC_TOL,
                 wall_tol: float = DEFAULT_WALL_TOL,
                 gate_wall: bool = False,
                 wall_keys: Optional[Sequence[str]] = None,
                 name: Optional[str] = None) -> DiffReport:
    """Compare the head manifests of two ledgers, per common run name.

    Args:
        old: baseline manifests (ledger order; last entry per name
            wins).
        new: candidate manifests.
        metric_tol: relative gate for deterministic metrics.
        wall_tol: relative gate for wall-clock (when ``gate_wall``).
        gate_wall: also gate on wall-clock slowdowns.
        wall_keys: fnmatch patterns restricting which wall-clock keys
            the gate applies to (all when None).
        name: restrict the comparison to one run name.
    """
    old_by = latest_by_name(old)
    new_by = latest_by_name(new)
    if name is not None:
        old_by = {k: v for k, v in old_by.items() if k == name}
        new_by = {k: v for k, v in new_by.items() if k == name}
    report = DiffReport()
    for run in sorted(set(old_by) | set(new_by)):
        if run not in old_by or run not in new_by:
            report.missing.append(f"run {run!r}")
            continue
        diff_manifests(old_by[run], new_by[run], metric_tol=metric_tol,
                       wall_tol=wall_tol, gate_wall=gate_wall,
                       wall_keys=wall_keys, report=report)
    return report


def _bench_diff(args: argparse.Namespace) -> Tuple[int, str]:
    wall_keys = None
    if args.gate_wall_keys:
        wall_keys = [pattern.strip()
                     for pattern in args.gate_wall_keys.split(",")
                     if pattern.strip()]
    report = diff_ledgers(load_manifests(args.old),
                          load_manifests(args.new),
                          metric_tol=args.tol, wall_tol=args.wall_tol,
                          gate_wall=args.gate_wall or bool(wall_keys),
                          wall_keys=wall_keys, name=args.name)
    if not report.compared_runs:
        return EXIT_ERROR, report.render()
    return (EXIT_REGRESSED if report.regressions else EXIT_OK,
            report.render())


bench_diff = FrontEnd(
    name="bench-diff",
    description="Compare two run ledgers / BENCH_*.json snapshots "
                "and exit non-zero on regression.",
    arguments=(
        (("old",), dict(help="baseline ledger or BENCH file")),
        (("new",), dict(help="candidate ledger or BENCH file")),
        (("--tol",), dict(type=float, default=DEFAULT_METRIC_TOL,
                          metavar="REL",
                          help="relative tolerance for deterministic "
                               "metrics (default: exact up to float "
                               "noise)")),
        (("--wall-tol",), dict(type=float, default=DEFAULT_WALL_TOL,
                               metavar="REL",
                               help="relative slowdown tolerated on "
                                    "wall-clock quantities when gated "
                                    f"(default {DEFAULT_WALL_TOL})")),
        (("--gate-wall",), dict(action="store_true",
                                help="fail on wall-clock slowdowns too "
                                     "(advisory-only by default)")),
        (("--gate-wall-keys",), dict(
            default=None, metavar="PATTERNS",
            help="comma-separated fnmatch patterns limiting the "
                 "wall-clock gate to matching keys (e.g. "
                 "'Appro.runtime_s' or '*.runtime_s'); implies "
                 "--gate-wall")),
        (("--name",), dict(default=None, metavar="RUN",
                           help="compare only this run name")),
    ),
    nonnegative=("tol", "wall_tol"),
    compare=_bench_diff)


# ----------------------------------------------------------------------
# perf-diff: profile digests
# ----------------------------------------------------------------------
#: Relative delta reported when a key exists on only one side.
INF_REL = float("inf")


@dataclass
class PerfDelta:
    """One compared quantity between two digests."""

    digest: str   #: digest name (algorithm or group/algorithm)
    kind: str     #: ``"calls"``, ``"counter"``, or ``"self_s"``
    key: str      #: span path or counter series id
    old: float
    new: float
    regressed: bool = False

    @property
    def rel(self) -> float:
        """Relative delta ``(new-old)/old`` (inf when old == 0)."""
        if self.old == 0.0:  # repro: noqa NUM001 -- structural zero: absent span/counter
            return 0.0 if self.new == 0.0 else INF_REL  # repro: noqa NUM001 -- structural zero
        return (self.new - self.old) / abs(self.old)

    @property
    def span_leaf(self) -> Optional[str]:
        """The span this delta attributes to (for counter joins)."""
        if self.kind == "counter":
            return COUNTER_OWNERS.get(counter_base(self.key))
        return self.key.rsplit(PATH_SEP, 1)[-1]

    def describe(self) -> str:
        label = {"calls": "calls", "counter": "counter",
                 "self_s": "self_ms"}[self.kind]
        if self.kind == "self_s":
            old, new = f"{self.old * 1e3:.2f}", f"{self.new * 1e3:.2f}"
        else:
            old, new = f"{self.old:g}", f"{self.new:g}"
        rel = self.rel
        if rel == INF_REL:
            arrow = "(new)" if self.old == 0.0 else "(gone)"  # repro: noqa NUM001 -- structural zero
        else:
            arrow = f"({rel:+.1%})"
        return f"{label} {old} -> {new} {arrow}"


def diff_digests(digest: str, old: ProfileDigest, new: ProfileDigest,
                 tol: float = 0.0, gate: Optional[float] = None,
                 min_ms: float = 5.0) -> List[PerfDelta]:
    """All compared quantities of one digest pair, gates applied.

    Span call counts and counters are deterministic; a span or counter
    on one side only regresses (its relative delta is infinite).
    Self time gates only with ``gate`` and only for spans whose new
    self time reaches ``min_ms``.
    """
    rows: List[PerfDelta] = []
    for path in sorted(set(old.spans) | set(new.spans)):
        left = old.spans.get(path)
        right = new.spans.get(path)
        rows.append(PerfDelta(digest, "calls", path,
                              float(left.calls if left else 0),
                              float(right.calls if right else 0)))
        rows.append(PerfDelta(digest, "self_s", path,
                              left.self_s if left else 0.0,
                              right.self_s if right else 0.0))
    for series in sorted(set(old.counters) | set(new.counters)):
        rows.append(PerfDelta(digest, "counter", series,
                              old.counters.get(series, 0.0),
                              new.counters.get(series, 0.0)))
    for row in rows:
        if row.kind != "self_s":
            row.regressed = regressed(row.rel, tol)
        elif gate is not None and row.new * 1e3 >= min_ms:
            row.regressed = regressed(row.rel, gate, timing=True)
    return rows


def worst_regression(rows: Sequence[PerfDelta]
                     ) -> Optional[Tuple[str, List[PerfDelta]]]:
    """The span path a regression localizes to, with its evidence.

    Scores every regressed row; counter regressions attach to the
    owning span's paths (every path whose leaf matches - if none is
    present the counter stands alone).  Returns ``(span path or
    series, supporting rows)`` of the worst offender, or None when
    nothing regressed.
    """
    regressions = [row for row in rows if row.regressed]
    if not regressions:
        return None

    def score(row: PerfDelta) -> Tuple[float, float]:
        rel = abs(row.rel)
        magnitude = (abs(row.new - row.old)
                     if row.kind == "self_s"
                     else abs(row.new - row.old) * 1e-6)
        return (1e18 if rel == INF_REL else rel, magnitude)

    span_paths = {row.key for row in rows if row.kind != "counter"}

    def anchor(row: PerfDelta) -> str:
        if row.kind != "counter":
            return row.key
        leaf = row.span_leaf
        if leaf is not None:
            owners = sorted(path for path in span_paths
                            if path.rsplit(PATH_SEP, 1)[-1] == leaf)
            if owners:
                return owners[0]
        return row.key

    worst = max(regressions, key=lambda row: (score(row), row.key))
    where = anchor(worst)
    evidence = [row for row in rows
                if anchor(row) == where or row.key == where]
    return where, evidence


def render_report(old_name: str, new_name: str,
                  rows_by_digest: Mapping[str, Sequence[PerfDelta]],
                  only: Sequence[str] = (), top: int = 10) -> str:
    """The perf-diff report: per-digest tables + worst-span headline."""
    lines = [f"perf-diff: {old_name} -> {new_name}"]
    for name in only:
        lines.append(f"  ! digest {name!r} present on one side only "
                     f"- not compared")
    any_regressed = False
    for name in sorted(rows_by_digest):
        rows = list(rows_by_digest[name])
        lines.append("")
        lines.append(f"== {name} ==")
        det = [row for row in rows if row.kind != "self_s"]
        det_regressed = [row for row in det if row.regressed]
        if det_regressed:
            lines.append("  deterministic attribution REGRESSED "
                         f"({len(det_regressed)} of {len(det)} keys):")
            for row in det_regressed:
                lines.append(f"    {row.key}: {row.describe()}")
        else:
            lines.append(f"  deterministic attribution ok "
                         f"({len(det)} keys: span calls + counters)")
        timing = sorted(
            (row for row in rows if row.kind == "self_s"
             and (row.old or row.new)),
            key=lambda row: (-abs(row.new - row.old), row.key))
        shown = timing[:max(0, top)]
        if shown:
            gated = any(row.regressed for row in timing)
            label = "gated" if gated else "advisory"
            lines.append(f"  self-time deltas ({label}, top "
                         f"{len(shown)} by |delta|):")
            for row in shown:
                flag = "  REGRESSED" if row.regressed else ""
                lines.append(f"    {row.key}: {row.describe()}{flag}")
            omitted = len(timing) - len(shown)
            if omitted > 0:
                lines.append(f"    ... {omitted} smaller timing "
                             f"row(s) omitted ...")
        localized = worst_regression(rows)
        if localized is not None:
            any_regressed = True
            where, evidence = localized
            lines.append(f"  worst regressed span: {where}")
            for row in evidence:
                if row.kind == "counter":
                    lines.append(f"    counter {row.key}: "
                                 f"{row.describe()}")
                else:
                    lines.append(f"    {row.describe()}")
    lines.append("")
    if any_regressed:
        lines.append("RESULT: performance attribution regressed "
                     "(exit 1)")
    else:
        lines.append("RESULT: no gated regression (exit 0)")
    return "\n".join(lines)


def diff_profile_sets(old_set: Mapping[str, ProfileDigest],
                      new_set: Mapping[str, ProfileDigest],
                      tol: float = 0.0, gate: Optional[float] = None,
                      min_ms: float = 5.0,
                      names: Tuple[str, str] = ("OLD", "NEW"),
                      top: int = 10) -> Tuple[int, str]:
    """Compare two digest sets by name.

    Returns:
        ``(exit_code, report)``.  Digests present on only one side are
        noted but do not gate (a PR may legitimately add or retire an
        algorithm); at least one common name is required.
    """
    common = sorted(set(old_set) & set(new_set))
    if not common:
        raise ConfigurationError(
            f"no common digest names between {names[0]} "
            f"({sorted(old_set)}) and {names[1]} ({sorted(new_set)})")
    only = sorted(set(old_set) ^ set(new_set))
    rows_by_digest = {
        name: diff_digests(name, old_set[name], new_set[name],
                           tol=tol, gate=gate, min_ms=min_ms)
        for name in common}
    report = render_report(names[0], names[1], rows_by_digest,
                           only=only, top=top)
    any_regressed = any(row.regressed
                        for rows in rows_by_digest.values()
                        for row in rows)
    return (EXIT_REGRESSED if any_regressed else EXIT_OK), report


def _perf_diff(args: argparse.Namespace) -> Tuple[int, str]:
    return diff_profile_sets(
        load_profile_set(args.old), load_profile_set(args.new),
        tol=args.tol, gate=args.gate, min_ms=args.min_ms,
        names=(args.old, args.new), top=args.top)


perf_diff = FrontEnd(
    name="perf-diff",
    description="Compare the profile digests of two runs and localize "
                "the worst regressed span.  Accepts PROF_*.json "
                "exports, BENCH_*.json manifests, JSONL ledgers, or "
                "bare digest files.  Exits 0 when clean, 1 on a gated "
                "regression, 2 on unusable input.",
    arguments=(
        (("old",), dict(metavar="OLD",
                        help="baseline artifact carrying digests")),
        (("new",), dict(metavar="NEW",
                        help="candidate artifact carrying digests")),
        (("--tol",), dict(type=float, default=0.0, metavar="REL",
                          help="relative tolerance for deterministic "
                               "keys (span calls, domain counters; "
                               "gated both directions; default: 0)")),
        (("--gate",), dict(type=float, default=None, metavar="REL",
                           help="also gate per-span self-time "
                                "increases beyond REL (e.g. 0.5 = "
                                "+50%%); timing is advisory-only "
                                "without this flag")),
        (("--min-ms",), dict(type=float, default=5.0, metavar="MS",
                             help="ignore --gate for spans whose new "
                                  "self time is below MS milliseconds "
                                  "(default: 5)")),
        (("--top",), dict(type=int, default=10, metavar="N",
                          help="timing rows to print per digest "
                               "(default: 10)")),
    ),
    nonnegative=("tol", "gate", "min_ms"),
    compare=_perf_diff)


# ----------------------------------------------------------------------
# trace-diff: decision journals
# ----------------------------------------------------------------------
def first_divergence(a: Sequence[Mapping[str, Any]],
                     b: Sequence[Mapping[str, Any]]
                     ) -> Optional[int]:
    """Index of the first event where the journals disagree.

    Returns None when the journals are identical.  If one journal is a
    strict prefix of the other, the divergence is at the shorter
    length (the first event only one side has).
    """
    for index in range(min(len(a), len(b))):
        if dict(a[index]) != dict(b[index]):
            return index
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


def _render_event(event: Optional[Mapping[str, Any]]) -> str:
    if event is None:
        return "<end of journal>"
    return json.dumps(event, sort_keys=True)


def render_divergence(a: Sequence[Mapping[str, Any]],
                      b: Sequence[Mapping[str, Any]],
                      index: int, context: int = 3,
                      names: Tuple[str, str] = ("A", "B")) -> str:
    """The localization report: context, the split, and a field diff."""
    lines = [f"journals diverge at event {index} "
             f"({names[0]}: {len(a)} events, {names[1]}: "
             f"{len(b)} events)"]
    lo = max(0, index - context)
    if lo > 0:
        lines.append(f"  ... {lo} matching event(s) omitted ...")
    for i in range(lo, index):
        lines.append(f"  = [{i}] {_render_event(a[i])}")
    left = a[index] if index < len(a) else None
    right = b[index] if index < len(b) else None
    lines.append(f"  < [{index}] {_render_event(left)}")
    lines.append(f"  > [{index}] {_render_event(right)}")
    if left is not None and right is not None:
        for key in sorted(set(left) | set(right)):
            old = left.get(key, "<absent>")
            new = right.get(key, "<absent>")
            if old != new:
                lines.append(f"    {key}: {old!r} != {new!r}")
    hi = min(min(len(a), len(b)), index + 1 + context)
    for i in range(index + 1, hi):
        marker = "=" if dict(a[i]) == dict(b[i]) else "~"
        lines.append(f"  {marker} [{i}] {_render_event(a[i])}")
        if marker == "~":
            lines.append(f"  ~ [{i}] {_render_event(b[i])}")
    return "\n".join(lines)


def diff_journals(a: Sequence[Mapping[str, Any]],
                  b: Sequence[Mapping[str, Any]],
                  context: int = 3,
                  names: Tuple[str, str] = ("A", "B")
                  ) -> Tuple[int, str]:
    """Compare two in-memory journals.

    Returns:
        ``(exit_code, report)`` - :data:`EXIT_OK` with a one-line
        confirmation, or :data:`EXIT_REGRESSED` with the localization.
    """
    index = first_divergence(a, b)
    if index is None:
        return EXIT_OK, f"journals identical ({len(a)} events)"
    return EXIT_REGRESSED, render_divergence(a, b, index,
                                             context=context,
                                             names=names)


def _trace_diff(args: argparse.Namespace) -> Tuple[int, str]:
    return diff_journals(read_jsonl(args.journal_a),
                         read_jsonl(args.journal_b),
                         context=args.context,
                         names=(args.journal_a, args.journal_b))


trace_diff = FrontEnd(
    name="trace-diff",
    description="Align two decision journals (JSONL) and localize the "
                "first divergent event.  Exits 0 when identical, 1 on "
                "divergence, 2 on unusable input.",
    arguments=(
        (("journal_a",), dict(metavar="A.jsonl",
                              help="first journal (e.g. the serial "
                                   "run)")),
        (("journal_b",), dict(metavar="B.jsonl",
                              help="second journal (e.g. the parallel "
                                   "run)")),
        (("--context",), dict(type=int, default=3, metavar="K",
                              help="events of context around the "
                                   "divergence (default: 3)")),
    ),
    nonnegative=("context",),
    compare=_trace_diff)
