"""Warm-started solves agree with cold ones.

The exactness contract of :class:`WarmStartState`: the solution cache
(same model object, unchanged version) returns the *previous* solution
outright, and after a mutation the backend simply solves cold - exact
by construction, verified here against an independent cold solve on
every step of randomized edit sequences.
"""

import numpy as np

from repro.solver.interface import WarmStartState, solve_lp
from repro.solver.model import LinearProgram

#: Edit sequences requested by the issue: 200 randomized perturbations.
NUM_SEQUENCES = 200


def make_lp(rng: np.random.Generator) -> LinearProgram:
    """A small random packing LP (always feasible: x = 0 works)."""
    n = 4
    lp = LinearProgram(name="warm")
    lp.add_variables_bulk([f"x{i}" for i in range(n)],
                          (0.0,) * n, (1.0,) * n,
                          rng.uniform(0.5, 2.0, size=n))
    lp.add_constraint_indexed(
        {i: float(c) for i, c in
         enumerate(rng.uniform(0.5, 1.5, size=n))},
        "<=", float(rng.uniform(1.0, 2.0)), name="cap0")
    lp.add_constraint_indexed({0: 1.0, 2: 1.0}, "<=", 1.5, name="cap1")
    return lp


def perturb(lp: LinearProgram, rng: np.random.Generator) -> None:
    """One random in-place edit (keeps the LP feasible and bounded)."""
    kind = rng.integers(0, 3)
    if kind == 0:
        lp.update_constraint_indexed(
            "cap0",
            {i: float(c) for i, c in
             enumerate(rng.uniform(0.5, 1.5, size=lp.num_variables))},
            rhs=float(rng.uniform(1.0, 2.0)))
    elif kind == 1:
        lp.set_objective(f"x{rng.integers(0, lp.num_variables)}",
                         float(rng.uniform(0.5, 2.0)))
    else:
        lp.set_variable_bounds(f"x{rng.integers(0, lp.num_variables)}",
                               0.0, float(rng.uniform(0.5, 1.0)))


class TestSolutionCache:
    def test_unmutated_resolve_is_a_hit(self):
        lp = make_lp(np.random.default_rng(7))
        state = WarmStartState()
        first = solve_lp(lp, warm_start=state)
        again = solve_lp(lp, warm_start=state)
        assert state.hits == 1 and state.misses == 1
        assert state.last_mode == "hit"
        assert again.objective == first.objective
        assert again.values == first.values

    def test_mutation_invalidates(self):
        lp = make_lp(np.random.default_rng(7))
        state = WarmStartState()
        solve_lp(lp, warm_start=state)
        lp.update_constraint_indexed("cap1", {0: 1.0, 2: 1.0}, rhs=0.5)
        solve_lp(lp, warm_start=state)
        assert state.hits == 0 and state.misses == 2

    def test_different_model_object_misses(self):
        rng = np.random.default_rng(7)
        state = WarmStartState()
        solve_lp(make_lp(rng), warm_start=state)
        solve_lp(make_lp(rng), warm_start=state)
        assert state.hits == 0 and state.misses == 2

    def test_backend_change_misses(self):
        lp = make_lp(np.random.default_rng(7))
        state = WarmStartState()
        solve_lp(lp, backend="scipy", warm_start=state)
        solve_lp(lp, backend="simplex", warm_start=state)
        assert state.hits == 0

    def test_clear_drops_state(self):
        lp = make_lp(np.random.default_rng(7))
        state = WarmStartState()
        solve_lp(lp, warm_start=state)
        state.clear()
        solve_lp(lp, warm_start=state)
        assert state.hits == 0 and state.misses == 2


class TestWarmEqualsColdProperty:
    def test_scipy_sequences_exact(self):
        """Warm and cold agree bitwise across randomized sequences.

        The scipy path never reuses solver-internal state, so after
        every perturbation the warm solve must be *exactly* the cold
        solve.  200 sequences x 3 edits each.
        """
        rng = np.random.default_rng(20260808)
        for seq in range(NUM_SEQUENCES):
            lp = make_lp(rng)
            state = WarmStartState()
            for _ in range(3):
                perturb(lp, rng)
                warm = solve_lp(lp, warm_start=state)
                cold = solve_lp(lp)
                assert warm.objective == cold.objective
                assert warm.values == cold.values


class TestSpanAnnotation:
    def test_lp_solve_span_reports_warm_mode(self):
        from repro.telemetry import Tracer, use_tracer

        lp = make_lp(np.random.default_rng(3))
        state = WarmStartState()
        tracer = Tracer()
        with use_tracer(tracer):
            solve_lp(lp, warm_start=state)
            solve_lp(lp, warm_start=state)
        spans = [e for e in tracer.events()
                 if e["kind"] == "span" and e["name"] == "lp_solve"]
        assert [s["labels"]["warm"] for s in spans] == ["miss", "hit"]
