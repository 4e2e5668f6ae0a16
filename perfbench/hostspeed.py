"""How fast the host runs fixed reference kernels, right now.

The benchmark's host shares its cores with other tenants.  Its speed is
not steady: it switches between a fast and a slow mode (the same service
slot takes about 1.8 times as long in the slow one), and a mode lasts
from under a second to tens of seconds.  A slot that runs in the slow
mode would read as a slow program, and the tail of the slot times would
measure the host's modes instead of the program.

So the benchmark times fixed kernels that run no program code - probes -
around what it measures, and scales each measured time by the kernel's
reference time over the probe time around it.  Two kernels exist,
because not all work slows down alike in the slow mode:

* :func:`micro_probe` (~0.4 ms) is built from what slots spend their
  time on - small Python objects and small numpy arrays - and slows
  down about as much as they do.  Slots are probed one by one: a probe
  runs just before every timed slot and once after the last, and a slot
  is scaled by the mean of the two probes around it.  Where slots are
  much shorter than a probe, a probe runs before the first slot of each
  ``SLOT_PROBE_INTERVAL_S`` of slot time instead, and every slot of that
  group is scaled by the probes around the group (:class:`SlotProbes`).
* :func:`probe` (~7 ms) slows down less.  Whole operations, where large
  LP solves and assembly dominate, and fresh-interpreter set-ups, where
  imports dominate, slow down less too.  It runs between operations.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Median :func:`probe` time on the host the benchmark was defined on
#: (2 vCPUs shared with other tenants), in a quiet phase.
PROBE_REFERENCE_S = 0.007

#: Median :func:`micro_probe` time on the same host, in its fast mode.
MICRO_REFERENCE_S = 0.0004

#: Slot time (s) between two probes around slots: slots shorter than
#: this share their probes, so that probing does not double the run.
SLOT_PROBE_INTERVAL_S = 0.004


def probe() -> float:
    """Wall time (s) of the whole-operation kernel."""
    began = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i % 7
    counts: Dict[int, int] = {}
    for i in range(10_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    float(np.sort(np.arange(40_000.0)[::-1]).sum())
    return time.perf_counter() - began


def operation_factors(probes: Sequence[float]) -> List[float]:
    """Scale of each of ``len(probes) - 1`` operations; operation ``i``
    ran between probes ``i`` and ``i + 1``.  The median of the six
    probes around it damps the jitter of a single probe."""
    return [PROBE_REFERENCE_S / statistics.median(probes[max(0, i - 2):i + 4])
            for i in range(len(probes) - 1)]


class _Point:
    __slots__ = ("index", "weight", "label")

    def __init__(self, index: int, weight: float, label: int) -> None:
        self.index = index
        self.weight = weight
        self.label = label


_ONES = np.ones(50)
_RAMP = np.arange(50.0)


def micro_probe() -> float:
    """Wall time (s) of one pass of the slot kernel."""
    began = time.perf_counter()
    points = [_Point(i, i * 2.0, i) for i in range(400)]
    sum(point.weight for point in points if point.index % 3)
    for _ in range(120):
        (_RAMP * _ONES + 1.0).min()
    return time.perf_counter() - began


class SlotProbes:
    """The probes around the slots of one operation.

    Call :meth:`before` just before timing slot ``index``,
    :meth:`after` with its measured time, and :meth:`finish` after the
    last slot.  ``marks`` holds ``(index of the next slot, probe s)``;
    ``spent_s`` is the wall time the probes took.
    """

    def __init__(self) -> None:
        self.marks: List[Tuple[int, float]] = []
        self.spent_s = 0.0
        self._since = SLOT_PROBE_INTERVAL_S

    def _probe(self, index: int) -> None:
        began = time.perf_counter()
        self.marks.append((index, micro_probe()))
        self.spent_s += time.perf_counter() - began
        self._since = 0.0

    def before(self, index: int) -> None:
        if self._since >= SLOT_PROBE_INTERVAL_S:
            self._probe(index)

    def after(self, slot_s: float) -> None:
        self._since += slot_s

    def finish(self, count: int) -> None:
        if self.marks:
            self._probe(count)


def slot_factors(marks: Sequence[Tuple[int, float]]) -> List[float]:
    """Scale of every slot, from the probes just before and after the
    group of slots it belongs to (``marks`` as :class:`SlotProbes`
    records them)."""
    factors: List[float] = []
    for (first, before), (end, after) in zip(marks, marks[1:]):
        factors += [MICRO_REFERENCE_S / ((before + after) / 2.0)] \
            * (end - first)
    return factors
