"""From-scratch best-first branch-and-bound for integer programs.

Solves the paper's **ILP-RM** exactly on small instances (the paper:
"we devise an exact solution for the problem if the problem size is
small").  The solver relaxes integrality, solves the LP with a
pluggable backend, branches on the most fractional integer variable by
tightening its bounds, and explores nodes best-bound-first with
incumbent pruning.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..exceptions import InfeasibleProblemError, SolverError
from ..telemetry import count_work
from .model import LinearProgram

#: An LP oracle: model -> (objective, values).  Must raise
#: InfeasibleProblemError on infeasible nodes.
LpOracle = Callable[[LinearProgram], Tuple[float, Dict[str, float]]]

_INT_TOL = 1e-6


@dataclass(order=True)
class _Node:
    """A branch-and-bound node ordered by bound (best-first)."""

    sort_key: float
    counter: int
    overrides: Dict[str, Tuple[float, float]] = field(compare=False)


def _clone_with_bounds(lp: LinearProgram,
                       overrides: Dict[str, Tuple[float, float]]
                       ) -> LinearProgram:
    """Copy a model, replacing selected variables' bounds."""
    clone = LinearProgram(name=f"{lp.name}:node", maximize=lp.maximize)
    for var in lp.variables:
        low, high = overrides.get(var.name, (var.low, var.high))
        clone.add_variable(var.name, low=low, high=high,
                           objective=var.objective, integer=var.integer)
    names = lp.variable_names()
    for con in lp.constraints:
        coeffs = {names[idx]: coef for idx, coef in con.coeffs.items()}
        clone.add_constraint(coeffs, con.sense, con.rhs, name=con.name)
    return clone


def _most_fractional(lp: LinearProgram,
                     values: Dict[str, float]) -> Optional[str]:
    """Name of the integer variable farthest from integrality, or None."""
    best_name: Optional[str] = None
    best_frac = _INT_TOL
    for var in lp.variables:
        if not var.integer:
            continue
        val = values.get(var.name, 0.0)
        frac = abs(val - round(val))
        if frac > best_frac:
            best_frac = frac
            best_name = var.name
    return best_name


def solve_with_branch_and_bound(
        lp: LinearProgram,
        lp_oracle: LpOracle,
        max_nodes: int = 20_000) -> Tuple[float, Dict[str, float]]:
    """Solve a mixed-integer program exactly.

    Args:
        lp: the model (must contain at least one integer variable to be
            interesting; a pure LP is simply handed to the oracle).
        lp_oracle: continuous-relaxation solver.
        max_nodes: node budget before giving up.

    Returns:
        ``(objective, values)`` of an optimal integral solution.

    Raises:
        InfeasibleProblemError: no integral feasible point exists.
        SolverError: node budget exhausted before proving optimality.
    """
    sign = -1.0 if lp.maximize else 1.0  # heap pops smallest sort_key

    def relax(overrides: Dict[str, Tuple[float, float]]
              ) -> Tuple[float, Dict[str, float]]:
        node_lp = _clone_with_bounds(lp, overrides)
        return lp_oracle(node_lp)

    try:
        root_obj, root_vals = relax({})
    except InfeasibleProblemError:
        raise InfeasibleProblemError(f"{lp.name}: root relaxation infeasible")

    counter = itertools.count()
    heap: List[_Node] = [
        _Node(sort_key=sign * root_obj, counter=next(counter), overrides={})]
    incumbent_obj: Optional[float] = None
    incumbent_vals: Dict[str, float] = {}
    nodes_explored = 0

    while heap:
        node = heapq.heappop(heap)
        nodes_explored += 1
        count_work("bnb_nodes")
        if nodes_explored > max_nodes:
            raise SolverError(
                f"{lp.name}: branch-and-bound exceeded {max_nodes} nodes")
        try:
            obj, vals = relax(node.overrides)
        except InfeasibleProblemError:
            continue
        # Bound pruning: a node cannot beat the incumbent.
        if incumbent_obj is not None:
            if lp.maximize and obj <= incumbent_obj + 1e-9:
                continue
            if not lp.maximize and obj >= incumbent_obj - 1e-9:
                continue
        branch_var = _most_fractional(lp, vals)
        if branch_var is None:
            rounded = {name: (round(val) if lp.variable(name).integer
                              else val)
                       for name, val in vals.items()}
            obj_int = lp.evaluate_objective(rounded)
            better = (incumbent_obj is None
                      or (lp.maximize and obj_int > incumbent_obj)
                      or (not lp.maximize and obj_int < incumbent_obj))
            if better:
                incumbent_obj = obj_int
                incumbent_vals = rounded
            continue
        val = vals[branch_var]
        var = lp.variable(branch_var)
        cur_low, cur_high = node.overrides.get(branch_var,
                                               (var.low, var.high))
        floor_val, ceil_val = math.floor(val), math.ceil(val)
        down = dict(node.overrides)
        down[branch_var] = (cur_low, float(floor_val))
        up = dict(node.overrides)
        up[branch_var] = (float(ceil_val), cur_high)
        for child in (down, up):
            lo, hi = child[branch_var]
            if lo <= hi:
                heapq.heappush(heap, _Node(sort_key=sign * obj,
                                           counter=next(counter),
                                           overrides=child))

    if incumbent_obj is None:
        raise InfeasibleProblemError(
            f"{lp.name}: no integral feasible solution found")
    return incumbent_obj, incumbent_vals
