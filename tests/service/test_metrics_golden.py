"""Golden `/metrics` exposition and ops stream of fixed-seed service runs.

Each case drains a seeded service (checkpoints and metrics snapshots
on) under a live registry and pins the sha256 of three byte streams:
the Prometheus exposition, the operational side stream (CHECKPOINT /
METRICS_SNAPSHOT markers) and the decision journal.  Wall-clock series
(``*_seconds``) are removed before hashing; everything else is a pure
function of the seed, so any change to a counter's name, labels or
value - or to the order or content of an event - fails here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.service import AdmissionService
from repro.telemetry.metrics import MetricsRegistry

#: case -> (service overrides, sha256 of exposition, ops stream, journal).
GOLDEN = {
    "greedy": (
        dict(policy="greedy", queue_limit=4, mean_arrivals_per_slot=8.0,
             max_arrivals=150),
        "8dfeb00fc100742f135abc6efcff456b961d993d9ee033cd4f437d7e28cb7047",
        "ac2db1f6f3941e2d6d4eba3d6e9a49391f4f73179aacef896b334d359765baa7",
        "252a6a1258535e46e4d4ebd0106fdb4a8f63c2e9b24159a04472e1d09d2431cd"),
    "dynamicrr": (
        dict(policy="dynamicrr", max_arrivals=60),
        "6cea272b8e2461ae1cdc5252b5748bea30a2ec42a9430df0526d01facd92f639",
        "d6411b4ac34fcc2d1f6c6fe514a06ad4b4fe6a1fd5962787bc37f13141e8e241",
        "f3e613eed8d80af7fb3706b28c29fe21cdc04a0f5396ad7b85745f62bb38cf6b"),
}


def _is_wall_clock(series: str) -> bool:
    name = series.split("{", 1)[0]
    return name.endswith("_seconds") or "_seconds_" in name


def exposition_without_wall_clock(text: str) -> str:
    kept = []
    for line in text.splitlines():
        series = line.split()[2] if line.startswith("# TYPE ") \
            else line.split()[0]
        if not _is_wall_clock(series):
            kept.append(line)
    return "\n".join(kept) + "\n"


def ops_without_wall_clock(path: str) -> str:
    lines = []
    with open(path) as handle:
        for line in handle:
            event = json.loads(line)
            if "detail" in event:
                event["detail"] = [
                    entry for entry in event["detail"]
                    if not (len(entry) > 1 and isinstance(entry[1], str)
                            and _is_wall_clock(entry[1]))]
            lines.append(json.dumps(event, sort_keys=True))
    return "\n".join(lines) + "\n"


def sha256(text) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def drained_digests(make_service_config, tmp_path, overrides):
    config = make_service_config(
        checkpoint_path=str(tmp_path / "service.ckpt"),
        checkpoint_every=7,
        metrics_snapshot_every=5,
        ops_journal_path=str(tmp_path / "ops.jsonl"),
        **overrides)
    registry = MetricsRegistry()
    service = AdmissionService(config, registry=registry)
    while not service.done:
        service.tick()
    # Drained: close() has nothing left to settle.
    assert service.engine.pending_count() == 0
    assert service.engine.active_total() == 0
    service.close()
    with open(config.journal_path, "rb") as handle:
        journal = handle.read()
    return (sha256(exposition_without_wall_clock(registry.to_prometheus())),
            sha256(ops_without_wall_clock(config.ops_journal_path)),
            sha256(journal))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_metrics_exposition_and_streams_are_golden(
        case, make_service_config, tmp_path):
    overrides, prom, ops, journal = GOLDEN[case]
    assert drained_digests(make_service_config, tmp_path, overrides) \
        == (prom, ops, journal)


def test_wall_clock_filter_drops_only_seconds_series():
    text = ("# TYPE a_total counter\na_total 3\n"
            "# TYPE lat_seconds histogram\n"
            'lat_seconds_bucket{le="+Inf"} 2\nlat_seconds_sum 0.1\n'
            "lat_seconds_count 2\n")
    assert exposition_without_wall_clock(text) \
        == "# TYPE a_total counter\na_total 3\n"
