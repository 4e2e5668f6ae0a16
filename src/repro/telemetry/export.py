"""Trace export: JSONL persistence, canonicalisation, sweep merging.

A *trace* is the flat event list produced by
:meth:`repro.telemetry.tracer.Tracer.events`.  This module writes and
reads traces as JSON Lines (one event per line - the format every
trace viewer and ``jq`` pipeline can consume), strips wall-clock
fields for determinism comparisons, and merges the per-run traces a
parallel sweep produces into one stream ordered by canonical RunSpec
position.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Union

from ..exceptions import ConfigurationError

#: Event fields measured from the executing machine's clock.  They are
#: the only fields allowed to differ between two executions of the same
#: deterministic run (serial vs parallel, this machine vs another).
WALL_CLOCK_FIELDS = ("start_s", "duration_s")


def canonical_events(events: Iterable[Dict[str, Any]]
                     ) -> List[Dict[str, Any]]:
    """A trace with wall-clock fields removed.

    Two executions of the same deterministic run must produce *equal*
    canonical traces - the property the serial/parallel equivalence
    tests assert.  Input events are not mutated.
    """
    out: List[Dict[str, Any]] = []
    for event in events:
        out.append({key: value for key, value in event.items()
                    if key not in WALL_CLOCK_FIELDS})
    return out


def write_jsonl(path: Union[str, Path],
                events: Iterable[Dict[str, Any]]) -> Path:
    """Write a trace as JSON Lines; returns the resolved path.

    Parent directories are created as needed.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True))
            handle.write("\n")
    return target


def read_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a JSON Lines file - one object per line - into a list.

    Blank lines are skipped.  This is the one line-by-line JSON reader
    of the telemetry package: traces, journals and run ledgers all go
    through it.

    Raises:
        ConfigurationError: on a line that is not a JSON object.
        UnicodeDecodeError: on bytes that are not UTF-8.
    """
    events: List[Dict[str, Any]] = []
    with Path(path).open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"{path}:{lineno}: not valid JSON: {error}") from error
            if not isinstance(event, dict):
                raise ConfigurationError(
                    f"{path}:{lineno}: expected a JSON object, got "
                    f"{type(event).__name__}")
            events.append(event)
    return events


def read_json_records(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """A whole-file JSON object as one record, or else JSON Lines.

    Snapshots (``BENCH_*.json``, ``PROF_*.json``) are one
    pretty-printed object; ledgers are one object per line.  Either
    way the result is a list of objects.

    Raises:
        ConfigurationError: when the file is neither format.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return read_jsonl(path)
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{path}: expected a JSON object or JSON Lines, got "
            f"{type(data).__name__}")
    return [data]


def collect_sweep_trace(records: Sequence[Any]) -> List[Dict[str, Any]]:
    """Merge the per-run traces of a sweep into one event stream.

    Each record (duck-typed: ``trace`` / ``algorithm`` / ``x`` /
    ``seed`` attributes, i.e. a :class:`~repro.sim.results.RunRecord`)
    contributes its events annotated with the record's canonical
    position and identity.  Records are visited in the order given -
    the canonical RunSpec order the executor guarantees - so the merged
    stream is deterministic no matter which worker produced which run.
    Untraced records contribute nothing.
    """
    merged: List[Dict[str, Any]] = []
    for run_index, record in enumerate(records):
        trace = getattr(record, "trace", None)
        if not trace:
            continue
        for event in trace:
            annotated = dict(event)
            annotated["run"] = run_index
            annotated["algorithm"] = record.algorithm
            annotated["x"] = record.x
            annotated["seed"] = record.seed
            merged.append(annotated)
    return merged
