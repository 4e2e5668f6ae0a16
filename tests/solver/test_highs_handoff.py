"""The direct HiGHS hand-off is bit-identical to ``linprog``.

:func:`~repro.solver.scipy_backend.solve_lp_scipy` passes the model's
arrays straight to scipy's bundled HiGHS binding instead of calling
``scipy.optimize.linprog(method="highs")``.  ``linprog`` stays here as
the oracle: on every program below both must return the same column
vector bit for bit, and the same objective float.
"""

import numpy as np
import pytest
from scipy import optimize

from repro.core.lp_relaxation import build_lp_pt, build_lp_relaxation
from repro.exceptions import (InfeasibleProblemError, SolverError,
                              UnboundedProblemError)
from repro.solver.model import ColumnValues, LinearProgram
from repro.solver.scipy_backend import solve_lp_scipy


def linprog_solution(lp: LinearProgram):
    """``(objective, x)`` exactly as the ``linprog`` backend produced."""
    c = lp.objective_vector()
    if lp.maximize:
        c = -c
    a_ub, b_ub, a_eq, b_eq = lp.sparse_rows()
    bounds = lp.uniform_bounds() or lp.bounds()
    result = optimize.linprog(
        c,
        A_ub=a_ub if a_ub.shape[0] else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=a_eq if a_eq.shape[0] else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=bounds, method="highs")
    assert result.success, result.message
    values = dict(zip(lp.variable_names(), result.x.tolist()))
    return lp.evaluate_objective(values), result.x


def assert_bit_identical(lp: LinearProgram) -> None:
    objective, values = solve_lp_scipy(lp)
    ref_objective, ref_x = linprog_solution(lp)
    assert isinstance(values, ColumnValues)
    assert values.x.tobytes() == ref_x.tobytes()
    assert objective == ref_objective
    assert dict(values) == dict(zip(lp.variable_names(), ref_x.tolist()))


def random_mixed_lp(seed: int) -> LinearProgram:
    """A feasible LP with every sense, mixed bounds and sparse rows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 30))
    lp = LinearProgram(name=f"mixed{seed}", maximize=bool(seed % 2))
    for j in range(n):
        high = float(rng.uniform(0.5, 4.0)) if j % 3 else 1.0
        lp.add_variable(f"x{j}", low=0.0, high=high,
                        objective=float(rng.uniform(-1.0, 5.0)))
    for i in range(int(rng.integers(1, 12))):
        cols = rng.choice(n, size=int(rng.integers(1, n + 1)),
                          replace=False)
        coeffs = {f"x{j}": float(rng.uniform(0.1, 2.0)) for j in cols}
        sense = ("<=", ">=", "==")[i % 3]
        # x = 0 satisfies every row, so the program is feasible.
        rhs = {"<=": float(rng.uniform(1.0, 6.0)), ">=": 0.0,
               "==": 0.0}[sense]
        lp.add_constraint(coeffs, sense, rhs)
    return lp


@pytest.mark.parametrize("seed", range(25))
def test_random_mixed_programs(seed):
    assert_bit_identical(random_mixed_lp(seed))


def test_backends_agree_relaxation_instance(small_instance, tiny_workload):
    lp, _ = build_lp_relaxation(small_instance, tiny_workload)
    assert_bit_identical(lp)


def test_relaxation_and_lp_pt(small_instance, small_workload):
    lp, _ = build_lp_relaxation(small_instance, small_workload)
    assert_bit_identical(lp)
    waiting = {r.request_id: 4.0 * (i % 5)
               for i, r in enumerate(small_workload)}
    for count in (None, 3, 40):
        lp, _ = build_lp_pt(small_instance, small_workload, waiting,
                            fair_share_count=count)
        assert_bit_identical(lp)


def test_infeasible_maps_to_exception():
    lp = LinearProgram(name="bad")
    lp.add_variable("x", low=0.0, high=1.0, objective=1.0)
    lp.add_constraint({"x": 1.0}, ">=", 2.0)
    with pytest.raises(InfeasibleProblemError):
        solve_lp_scipy(lp)


def test_unbounded_maps_to_exception():
    lp = LinearProgram(name="open")
    lp.add_variable("x", low=0.0, objective=1.0)
    lp.add_variable("y", low=0.0, high=1.0, objective=0.0)
    lp.add_constraint({"y": 1.0}, "<=", 1.0)
    with pytest.raises(UnboundedProblemError):
        solve_lp_scipy(lp)


def test_empty_model_raises_solver_error():
    with pytest.raises(SolverError):
        solve_lp_scipy(LinearProgram(name="empty"))
