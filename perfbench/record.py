#!/usr/bin/env python3
"""Record the reference values the benchmark checks its outputs against.

Run from the repository root::

    python3 perfbench/record.py --seeds 0 1 2

For every listed seed and workload this runs the first
``RECORDED_OPS[workload]`` operations untraced and the traced cycle,
and stores in ``perfbench/expected.json``:

* ``rows`` - the deterministic outputs of every recorded operation
  (per-RunSpec metric rows without ``runtime_s``; service counters,
  offered-load inputs and the decision journal's size and sha256);
* ``counters`` - the deterministic work counters of the traced cycle.

It also stores ``capacity_starts_per_slot``, the measured saturation
capacity of the greedy service (:func:`measure_capacity`).  The service
workloads check their realised offered load against it.

Re-record only for a change meant to alter outputs; the diff of
``expected.json`` then shows what moved.
"""

import argparse
import json
import os
import sys
import tempfile

import run


#: Operations recorded per seed: more than a ``--trace 0`` run of the
#: benchmark's run time gets through on a fast host.
RECORDED_OPS = {"offline-fig3": 200, "online-dynamicrr": 30,
                "service-capacity": 80, "service-overload": 100}


def record(seeds):
    sys.path.insert(0, run.SRC)
    import tracing
    import workloads

    os.makedirs(run.OUT_DIR, exist_ok=True)
    expected = {"capacity_starts_per_slot": measure_capacity(),
                "seeds": {}}
    for seed in seeds:
        for name in run.WORKLOAD_NAMES:
            workload = workloads.WORKLOADS[name]
            with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
                plain = [workload.run_op(workload.prepare(seed, index,
                                                          workdir))
                         for index in range(RECORDED_OPS[name])]
                tracer = tracing.Tracer()
                traced, _factors = run.run_cycle(workload, seed, workdir,
                                                 tracer)
            rows = [op.row for op in plain]
            problems = [problem for op in plain for problem in op.problems]
            problems += [message for _, message in run.compare_rows(
                [op.row for op in traced], rows, "traced vs untraced")]
            metrics = run.layer_metrics(tracer, traced, workloads)
            problems += run.counter_cross_checks(metrics, traced)
            if problems:
                raise SystemExit(f"{name} seed {seed}: " + "; ".join(problems))
            expected["seeds"].setdefault(str(seed), {})[name] = {
                "rows": rows,
                "counters": {key: metrics[key] for key in run.COUNTERS},
            }
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    return expected


def measure_capacity(instances: int = 8, arrivals: int = 20_000) -> float:
    """Saturation capacity of the greedy service in starts per slot.

    Greedy at 64 arrivals per slot with a 64-deep queue (the
    ``service-overload`` configuration) keeps the queue full; starts are
    counted from the slot after the first stream's lifetime (the
    stations fill up from empty before that) to the last arrival.
    """
    sys.path.insert(0, run.SRC)
    from repro.service.loadgen import build_config
    from repro.service.loop import AdmissionService

    started = slots = 0
    for index in range(instances):
        service = AdmissionService(build_config(
            arrivals, 64.0, policy="greedy", seed=10_000_000 + index,
            queue_limit=64))
        warm_up = service.config.sim.requests.stream_duration_slots
        while service.counters["arrivals"] < arrivals:
            report = service.tick()
            if report.outcome.slot >= warm_up:
                started += report.outcome.num_started
                slots += 1
        service.close()
    return started / slots


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args(argv)
    expected = record(args.seeds)
    with open(run.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle)
        handle.write("\n")
    print(f"wrote {run.EXPECTED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
