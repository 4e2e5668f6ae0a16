"""Linear/integer programming substrate.

The paper's exact solution is an ILP (**ILP-RM**) and its approximation
algorithm rounds an LP relaxation (**LP** / **LP-PT**).  This subpackage
provides everything needed to solve them:

* :class:`~repro.solver.model.LinearProgram` - a solver-agnostic model
  container (named variables, linear constraints, bounds, integrality),
* :mod:`~repro.solver.simplex` - a from-scratch two-phase dense simplex
  (Bland's rule, bounded variables via substitution rows),
* :mod:`~repro.solver.branch_and_bound` - a from-scratch best-first
  branch-and-bound ILP solver on top of any LP backend,
* :mod:`~repro.solver.scipy_backend` - HiGHS (as bundled with scipy):
  LPs handed to it directly as arrays, ILPs through ``milp``,
* :func:`~repro.solver.interface.solve_lp` /
  :func:`~repro.solver.interface.solve_ilp` - the dispatch layer.

The two LP backends are cross-validated against each other in the test
suite; experiments default to HiGHS for speed while the from-scratch
solver documents the algorithmic substance.
"""

from .model import Constraint, LinearProgram, Variable
from .interface import Solution, SolveStatus, solve_ilp, solve_lp
from .presolve import presolve, solve_with_presolve
from .duals import DualSolution, solve_lp_with_duals

__all__ = [
    "LinearProgram",
    "Variable",
    "Constraint",
    "Solution",
    "SolveStatus",
    "solve_lp",
    "solve_ilp",
    "presolve",
    "solve_with_presolve",
    "DualSolution",
    "solve_lp_with_duals",
]
