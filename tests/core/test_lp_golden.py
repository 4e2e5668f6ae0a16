"""Golden identity of the slot-indexed LP models.

The digests below were recorded from the per-row (dict-based) model
assembly.  Any later change to how the LP or LP-PT is assembled must
keep every coefficient, bound, row order, column order and name, so
these fingerprints - and with them every LP optimum and rounding
journal downstream - stay fixed.

* ``FIG3_LP_SHA256``: sha256 of :meth:`LinearProgram.content_key` of one
  Fig. 3 :func:`build_lp_relaxation` model (Section VI-A defaults,
  seed 3, |R| = 100).
* ``DYNAMICRR_CHAIN_SHA256``: a sha256 hash chain over the content key
  of the LP-PT returned in every DynamicRR round of one run (seed 5,
  |R| = 60, 40 slots), taken right after each build so the workspace's
  rebuild and reuse rounds are covered.
* ``WORKSPACE_CHAIN_SHA256``: the same chain over a scripted
  :class:`LpPtWorkspace` sequence that also takes the in-place
  fair-share row-update path (DynamicRR always passes ``|R_t|``, so its
  own runs never do).
* ``SMALL_STATIONS_LP_SHA256`` / ``SMALL_STATIONS_CHAIN_SHA256``: the
  plain LP and a scripted LP-PT workspace sequence on a network whose
  capacities are drawn from 500-1200 MHz, so most stations are too
  small for one 1000 MHz slot and, at 150 ms of waiting, some requests
  have only such stations feasible.  Those requests get no columns and
  no choice row.
"""

import hashlib
from dataclasses import replace

from repro.core import dynamic_rr as dynamic_rr_mod
from repro.core.dynamic_rr import DynamicRR
from repro.core.instance import ProblemInstance
from repro.core.lp_relaxation import (LpPtWorkspace, build_lp_pt,
                                      build_lp_relaxation)
from repro.experiments.settings import base_config
from repro.sim.online_engine import OnlineEngine

FIG3_LP_SHA256 = (
    "60511321c8b733b59ba1546fec9e86f81709438901809325dbd3d951d401908d")
DYNAMICRR_CHAIN_SHA256 = (
    "d542327d53cef14f3412a5b22c1191a1ba45d4d94c893be02de2cc2c599e52c2")
#: Rounds in the recorded DynamicRR run, by workspace mode.
DYNAMICRR_MODES = {"rebuild": 37, "reuse": 1}
WORKSPACE_CHAIN_SHA256 = (
    "b12c2981dec681988615036e033d6cd144525b8115e9a729e79803b19207da25")
#: (request prefix, waiting ms, fair-share count) per scripted round.
WORKSPACE_SCRIPT = ((12, 0.0, None), (12, 0.0, None), (12, 0.0, 30),
                    (12, 0.0, 3), (12, 0.0, 12), (10, 0.0, None),
                    (10, 100.0, None), (12, 0.0, 7))
WORKSPACE_MODES = ("rebuild", "reuse", "row_update", "row_update",
                   "row_update", "rebuild", "rebuild", "rebuild")

SMALL_STATIONS_LP_SHA256 = (
    "aac73d7a73cc51dc4a8a2f9f44c4b6d02e7e24a9a83068619320ed82e4c22a86")
SMALL_STATIONS_CHAIN_SHA256 = (
    "e7f1d7d0668f387b3352a618ff701ad4470fabeaefb9bb830e302de36921b5f0")
#: (waiting ms, fair-share count) per scripted round.
SMALL_STATIONS_SCRIPT = ((150.0, None), (150.0, 7), (100.0, None))
SMALL_STATIONS_MODES = ("rebuild", "row_update", "rebuild")
#: Rows of the plain LP and of each scripted LP-PT, per-row assembly.
SMALL_STATIONS_ROWS = (50, (50, 50, 74))


def fig3_lp_digest() -> str:
    instance = ProblemInstance.build(base_config(3), seed=3)
    requests = instance.new_workload(num_requests=100, seed=3)
    lp, _index = build_lp_relaxation(instance, requests)
    return hashlib.sha256(lp.content_key()).hexdigest()


def dynamicrr_chain(monkeypatch):
    instance = ProblemInstance.build(base_config(5), seed=5)
    requests = instance.new_workload(num_requests=60, seed=5,
                                     horizon_slots=40)
    real_build = dynamic_rr_mod.build_lp_pt
    chain = hashlib.sha256()
    modes = {}
    policy = DynamicRR(rng=5)

    def recording_build(*args, **kwargs):
        lp, index = real_build(*args, **kwargs)
        chain.update(lp.content_key())
        mode = policy._workspace.last_mode
        modes[mode] = modes.get(mode, 0) + 1
        return lp, index

    monkeypatch.setattr(dynamic_rr_mod, "build_lp_pt", recording_build)
    OnlineEngine(instance, requests, horizon_slots=40, rng=5).run(policy)
    return chain.hexdigest(), modes


def workspace_chain():
    instance = ProblemInstance.build(base_config(3), seed=3)
    requests = instance.new_workload(num_requests=12, seed=4)
    workspace = LpPtWorkspace()
    chain = hashlib.sha256()
    modes = []
    for count, waiting_ms, share in WORKSPACE_SCRIPT:
        subset = requests[:count]
        waiting = {r.request_id: waiting_ms for r in subset}
        lp, _index = build_lp_pt(instance, subset, waiting,
                                 workspace=workspace,
                                 fair_share_count=share)
        chain.update(lp.content_key())
        modes.append(workspace.last_mode)
    return chain.hexdigest(), tuple(modes)


def test_fig3_lp_relaxation_is_unchanged():
    assert fig3_lp_digest() == FIG3_LP_SHA256


def test_dynamicrr_lp_pt_sequence_is_unchanged(monkeypatch):
    digest, modes = dynamicrr_chain(monkeypatch)
    assert modes == DYNAMICRR_MODES
    assert digest == DYNAMICRR_CHAIN_SHA256


def test_workspace_sequence_is_unchanged():
    digest, modes = workspace_chain()
    assert modes == WORKSPACE_MODES
    assert digest == WORKSPACE_CHAIN_SHA256


def small_stations_instance():
    cfg = base_config(3)
    cfg = replace(cfg, network=replace(
        cfg.network, capacity_range_mhz=(500.0, 1200.0))).validate()
    instance = ProblemInstance.build(cfg, seed=3)
    return instance, instance.new_workload(num_requests=60, seed=3)


def test_small_stations_lp_relaxation_is_unchanged():
    instance, requests = small_stations_instance()
    waiting = {r.request_id: 150.0 for r in requests}
    lp, index = build_lp_relaxation(instance, requests, waiting)
    no_columns = [rid for rid, (start, stop) in index.ranges.items()
                  if start == stop]
    assert any(instance.latency.feasible_stations(r, 150.0)
               for r in requests if r.request_id in no_columns)
    assert all(con.coeffs for con in lp.constraints)
    assert {con.name for con in lp.constraints}.isdisjoint(
        f"choice_{rid}" for rid in no_columns)
    assert lp.num_constraints == SMALL_STATIONS_ROWS[0]
    assert (hashlib.sha256(lp.content_key()).hexdigest()
            == SMALL_STATIONS_LP_SHA256)


def test_small_stations_workspace_sequence_is_unchanged():
    instance, requests = small_stations_instance()
    workspace = LpPtWorkspace()
    chain = hashlib.sha256()
    modes, rows = [], []
    for waiting_ms, share in SMALL_STATIONS_SCRIPT:
        waiting = {r.request_id: waiting_ms for r in requests}
        lp, _index = build_lp_pt(instance, requests, waiting,
                                 workspace=workspace,
                                 fair_share_count=share)
        chain.update(lp.content_key())
        modes.append(workspace.last_mode)
        rows.append(lp.num_constraints)
    assert tuple(modes) == SMALL_STATIONS_MODES
    assert tuple(rows) == SMALL_STATIONS_ROWS[1]
    assert chain.hexdigest() == SMALL_STATIONS_CHAIN_SHA256
