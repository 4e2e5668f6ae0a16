"""The bench-diff, perf-diff and trace-diff CLIs end to end.

Golden cases pin each subcommand's stdout (by sha256) and exit code on
the committed baselines and on small perturbations of them, so the
report text cannot drift silently.  The error cases pin that every
unusable input - a missing file, bytes that are not UTF-8, a malformed
JSON line - exits 2 with an error on stderr, never 1 ("regression").
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.experiments.__main__ import main as experiments_main

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

BENCH_FLAGS = ["--tol", "0.05", "--gate-wall-keys", "Appro.runtime_s",
               "--wall-tol", "0.5"]
PERF_FLAGS = ["--tol", "0.05", "--gate", "1.0", "--min-ms", "20"]

#: case -> (argv, exit code, sha256 of stdout).
GOLDEN = {
    "bench-identical": (
        ["bench-diff", "bench.json", "bench.json", *BENCH_FLAGS],
        0,
        "24411003fa704f940fd3aa89f90a09b5bdbc0bd806ecae2fa2c2519100d5a9de"),
    "bench-drift": (
        ["bench-diff", "bench.json", "bench_drift.json",
         *BENCH_FLAGS],
        1,
        "bd05bf390c0bbed1a9c17dd37b8a2e7ffd962def50ac3ceac1ba1316432cd37b"),
    "service-identical": (
        ["bench-diff", "service.json", "service.json", "--tol", "0.05"],
        0,
        "00ee8d3f2cf870e6b0514aa64ea059122eb9607c4156e0021864ced78f2b1faf"),
    "perf-identical": (
        ["perf-diff", "prof.json", "prof.json", *PERF_FLAGS],
        0,
        "37e6bf6b355adb75189b69a5b7c5b2263ec0910ab7ca7e65e529fd3467d98842"),
    "perf-drift": (
        ["perf-diff", "prof.json", "prof_drift.json", *PERF_FLAGS],
        1,
        "92323d53ff3e9a040caf0a5012208efafa465749d9d23a0578c998655894ba09"),
    "trace-diverged": (
        ["trace-diff", "journal.jsonl", "journal_b.jsonl"],
        1,
        "03a968759d4ec993607b06014faaab6479707011e007c8f635f447af356cdfe4"),
    "trace-prefix": (
        ["trace-diff", "journal.jsonl", "journal_prefix.jsonl"],
        1,
        "68f2117148cf7a4c3275975915080a337dc5204e22347226a60ec6bd31f1f78c"),
}


def journal_events(n=20):
    return [{"kind": "arrival", "slot": i // 4, "request": i,
             "station": i % 3} for i in range(n)]


def write_jsonl(path, events):
    path.write_text("".join(json.dumps(e, sort_keys=True) + "\n"
                            for e in events), encoding="utf-8")


def write_json(path, data):
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """Every case's input files, under relative names in the cwd.

    perf-diff and trace-diff print the paths they were given, so the
    cases run from inside ``tmp_path`` to keep stdout stable.
    """
    monkeypatch.chdir(tmp_path)
    bench = json.loads((BENCHMARKS / "BENCH_baseline.json").read_text())
    write_json(tmp_path / "bench.json", bench)
    bench["metrics"]["Heu"]["total_reward"] *= 1.1
    bench["metrics"]["Appro"]["runtime_s"] *= 2
    write_json(tmp_path / "bench_drift.json", bench)
    shutil.copy(BENCHMARKS / "BENCH_service_baseline.json",
                tmp_path / "service.json")
    prof = json.loads((BENCHMARKS / "PROF_baseline.json").read_text())
    write_json(tmp_path / "prof.json", prof)
    spans = prof["digests"]["Appro"]["spans"]
    spans["offline_run/build_lp"]["calls"] += 1
    spans["offline_run/lp_solve"]["self_s"] *= 3
    write_json(tmp_path / "prof_drift.json", prof)
    events = journal_events()
    write_jsonl(tmp_path / "journal.jsonl", events)
    write_jsonl(tmp_path / "journal_prefix.jsonl", events[:12])
    events[7]["station"] = 99
    write_jsonl(tmp_path / "journal_b.jsonl", events)
    return tmp_path


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_output(case, inputs, capsys):
    argv, code, digest = GOLDEN[case]
    assert experiments_main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


VALID_OLD = {
    "bench-diff": "bench.json",
    "perf-diff": "prof.json",
    "trace-diff": "journal.jsonl",
}

BAD_INPUTS = {
    "missing": None,
    "not-utf8": bytes(range(128, 256)) * 4,
    "malformed-line": b'{"kind": "arrival"}\nnot json\n',
}


@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
@pytest.mark.parametrize("command", sorted(VALID_OLD))
def test_unusable_input_exits_two(command, bad, inputs, capsys):
    payload = BAD_INPUTS[bad]
    if payload is not None:
        (inputs / "bad.input").write_bytes(payload)
    code = experiments_main([command, VALID_OLD[command], "bad.input"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err
