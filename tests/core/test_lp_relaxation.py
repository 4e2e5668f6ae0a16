"""Unit tests for the slot-indexed LP relaxation (Eqs. 8-12, 22-23)."""

import pytest

from repro.core.lp_relaxation import (build_lp_pt, build_lp_relaxation,
                                      expected_reward_coefficient)
from repro.solver.interface import solve_lp


class TestVariablesAndPruning:
    def test_variable_count_bounded_by_slots(self, small_instance,
                                             small_workload):
        lp, index = build_lp_relaxation(small_instance, small_workload)
        max_slots = small_instance.max_num_slots()
        n_stations = len(small_instance.network)
        assert lp.num_variables <= (len(small_workload) * n_stations
                                    * max_slots)
        assert len(index.triples) == lp.num_variables

    def test_deadline_pruning(self, small_instance, small_workload):
        """Variables only exist for deadline-feasible (j, i) pairs."""
        lp, index = build_lp_relaxation(small_instance, small_workload)
        by_id = {r.request_id: r for r in small_workload}
        for name, (rid, sid, _slot) in index.triples.items():
            request = by_id[rid]
            assert small_instance.latency.is_feasible(request, sid)

    def test_waiting_prunes_more(self, small_instance, small_workload):
        lp0, _ = build_lp_relaxation(small_instance, small_workload)
        waiting = {r.request_id: 150.0 for r in small_workload}
        lp1, _ = build_lp_relaxation(small_instance, small_workload,
                                     waiting_ms=waiting)
        assert lp1.num_variables <= lp0.num_variables


class TestErCoefficients:
    def test_er_decreases_with_slot_when_binding(self, small_instance,
                                                 small_workload):
        """Eq. (8): deeper slots can only lose reward mass."""
        request = small_workload[0]
        for sid in small_instance.network.station_ids:
            num_slots = small_instance.network.num_slots(sid)
            ers = [expected_reward_coefficient(small_instance, request,
                                               sid, slot)
                   for slot in range(num_slots)]
            assert all(b <= a + 1e-9 for a, b in zip(ers, ers[1:]))

    def test_er_at_slot_zero_full_when_station_big_enough(
            self, small_instance, small_workload):
        request = small_workload[0]
        sid = small_instance.network.station_ids[0]
        capacity = small_instance.network.station(sid).capacity_mhz
        if request.max_demand_mhz <= capacity:
            er = expected_reward_coefficient(small_instance, request,
                                             sid, 0)
            assert er == pytest.approx(
                request.distribution.expected_reward())

    def test_objective_uses_er(self, small_instance, small_workload):
        lp, index = build_lp_relaxation(small_instance, small_workload)
        by_id = {r.request_id: r for r in small_workload}
        for name, (rid, sid, slot) in index.triples.items():
            var = lp.variable(name)
            expected = expected_reward_coefficient(
                small_instance, by_id[rid], sid, slot)
            assert var.objective == pytest.approx(expected)


class TestConstraints:
    def test_choice_constraint_present_per_request(self, small_instance,
                                                   small_workload):
        lp, index = build_lp_relaxation(small_instance, small_workload)
        names = {c.name for c in lp.constraints}
        for request in small_workload:
            if index.by_request.get(request.request_id):
                assert f"choice_{request.request_id}" in names

    def test_solution_satisfies_choice(self, small_instance,
                                       small_workload):
        lp, index = build_lp_relaxation(small_instance, small_workload)
        solution = solve_lp(lp)
        for request in small_workload:
            mass = sum(solution.value(name)
                       for name in index.by_request.get(
                           request.request_id, ()))
            assert mass <= 1.0 + 1e-6

    def test_lp_objective_bounded_by_total_expected_reward(
            self, small_instance, small_workload):
        lp, _ = build_lp_relaxation(small_instance, small_workload)
        solution = solve_lp(lp)
        upper = sum(r.distribution.expected_reward()
                    for r in small_workload)
        assert solution.objective <= upper + 1e-6

    def test_capacity_row_binds_under_overload(self, small_instance):
        """With far more requests than capacity, per-station expected
        load stays within the station capacity row."""
        workload = small_instance.new_workload(num_requests=60, seed=2)
        lp, index = build_lp_relaxation(small_instance, workload)
        solution = solve_lp(lp)
        by_id = {r.request_id: r for r in workload}
        for sid in small_instance.network.station_ids:
            cap_rate = (small_instance.network.station(sid).capacity_mhz
                        / small_instance.c_unit)
            load = 0.0
            for name, (rid, vsid, _slot) in index.triples.items():
                if vsid == sid:
                    req = by_id[rid]
                    load += (solution.value(name)
                             * req.distribution.expected_truncated_rate(
                                 cap_rate))
            assert load <= cap_rate + 1e-6


class TestLpPt:
    def test_lp_pt_tighter_than_lp(self, small_instance, small_workload):
        """Constraint (23)'s fair-share truncation can only reduce the
        optimum relative to the plain LP on the same workload."""
        lp, _ = build_lp_relaxation(small_instance, small_workload)
        lp_pt, _ = build_lp_pt(small_instance, small_workload)
        a = solve_lp(lp).objective
        b = solve_lp(lp_pt).objective
        assert b <= a + 1e-6

    def test_lp_pt_empty_workload(self, small_instance):
        lp, index = build_lp_pt(small_instance, [])
        assert lp.num_variables == 0
        assert index.by_request == {}


class TestIndex:
    def test_options_table_reads_vector_or_names(self, small_instance,
                                                 small_workload):
        """The column-vector fast path and the name lookups agree."""
        lp, index = build_lp_relaxation(small_instance, small_workload)
        solution = solve_lp(lp)
        by_vector = index.options_table(solution.values)
        by_name = index.options_table(dict(solution.values))
        assert by_vector == by_name
        for request in small_workload:
            rid = request.request_id
            assert index.assignment_options(solution.values, rid) == \
                by_vector[rid]
            assert index.assignment_options(dict(solution.values),
                                            rid) == by_vector[rid]

    def test_assignment_options_roundtrip(self, small_instance,
                                          small_workload):
        lp, index = build_lp_relaxation(small_instance, small_workload)
        solution = solve_lp(lp)
        for request in small_workload:
            options = index.assignment_options(solution.values,
                                               request.request_id)
            for sid, slot, mass in options:
                assert mass > 0
                assert slot < small_instance.network.num_slots(sid)
