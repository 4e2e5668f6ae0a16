"""HiGHS adapters for the LP/ILP model container.

The experiments solve LPs with up to ~10k variables (|R| x |BS| x L),
and DynamicRR solves one small LP-PT per time slot.  HiGHS handles
both in milliseconds; the from-scratch simplex is kept for validation.

LPs reach HiGHS through the binding scipy bundles,
``scipy.optimize._highspy._core`` (scipy >= 1.15), not through
``scipy.optimize.linprog``.  The binding is private, so
``pyproject.toml`` caps scipy at the releases it was checked on.
:func:`solve_lp_scipy` hands the model's CSR rows to HiGHS as the
column-wise arrays ``linprog(method="highs")`` would build from them,
under exactly the options ``linprog`` sets (presolve on, dual simplex,
no debug checks, no output), and reads back only the primal column
values.  ``linprog`` would also re-parse its
inputs, stack and convert the matrices through ``scipy.sparse``,
re-validate every option on every call and fill per-column bound
marginals - on DynamicRR's ~180-column LPs that overhead cost more than
the HiGHS run itself.  The solution is bit-identical to ``linprog``'s
(the test suite checks this against ``linprog`` as an oracle).

ILPs still go through ``scipy.optimize.milp``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from scipy import optimize

from ..exceptions import (InfeasibleProblemError, SolverError,
                          UnboundedProblemError)
from .model import ColumnValues, LinearProgram

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # pragma: no cover - depends on the install
    raise ImportError(
        "repro needs scipy >= 1.15: it solves LPs through scipy's bundled "
        "HiGHS binding scipy.optimize._highspy._core, which this scipy "
        "does not provide") from exc


def _lp_options():
    """The HiGHS options ``linprog(method="highs")`` passes, built once."""
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = int(
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    return options


_LP_OPTIONS = _lp_options()
_Status = _highs.HighsModelStatus
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)


def _raise_for_status(lp: LinearProgram, status: int, message: str) -> None:
    """Map scipy status codes onto the library's exceptions."""
    if status == 2:
        raise InfeasibleProblemError(f"{lp.name}: {message}")
    if status == 3:
        raise UnboundedProblemError(f"{lp.name}: {message}")
    raise SolverError(f"{lp.name}: solver failed with status {status}: "
                      f"{message}")


def _pass_model(highs, lp: LinearProgram):
    """Hand the model to HiGHS column-wise, in minimization form.

    Rows are the ``<=`` group then the ``==`` group of
    :meth:`~repro.solver.model.LinearProgram.csr_export`, as
    ``linprog`` stacks ``A_ub`` over ``A_eq``; the CSR -> CSC
    conversion is a stable sort by column, which keeps rows ascending
    within each column exactly as ``scipy.sparse`` does.  Infinite
    bounds pass through unchanged (HiGHS's infinity is IEEE inf).  The
    arrays go through the binding's pointer overload of ``passModel``,
    which reads them as buffers (building a ``HighsLp`` instead copies
    them element by element); every column is flagged continuous.
    """
    ub, eq = lp.csr_export()
    n = lp.num_variables
    if eq.rhs.size:
        indptr = np.concatenate((ub.indptr, eq.indptr[1:] + ub.indptr[-1]))
        indices = np.concatenate((ub.indices, eq.indices))
        data = np.concatenate((ub.data, eq.data))
        row_lower = np.concatenate((np.full(ub.rhs.size, -np.inf), eq.rhs))
        row_upper = np.concatenate((ub.rhs, eq.rhs))
    else:
        indptr, indices, data = ub.indptr, ub.indices, ub.data
        row_lower = np.full(ub.rhs.size, -np.inf)
        row_upper = ub.rhs
    num_rows = row_upper.size
    order = np.argsort(indices, kind="stable")
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(indices, minlength=n), out=start[1:])
    rows = np.repeat(np.arange(num_rows, dtype=np.int32),
                     indptr[1:] - indptr[:-1])
    cost = lp.objective_vector()
    if lp.maximize:
        cost = -cost
    shared = lp.uniform_bounds()
    if shared is not None:
        col_lower, col_upper = np.full(n, shared[0]), np.full(n, shared[1])
    else:
        col_lower, col_upper = np.array(lp.bounds(),
                                        dtype=float).reshape(n, 2).T.copy()
    return highs.passModel(
        n, num_rows, int(data.size), _COLWISE, _MINIMIZE, 0.0, cost,
        col_lower, col_upper, row_lower, np.ascontiguousarray(row_upper),
        start, rows[order], data[order], np.zeros(n, dtype=np.int32))


def solve_lp_scipy(lp: LinearProgram) -> Tuple[float, ColumnValues]:
    """Solve the continuous relaxation with HiGHS.

    Integrality flags are ignored.

    Returns:
        ``(objective, values)`` in the model's natural direction;
        `values` is a :class:`~repro.solver.model.ColumnValues` over
        the optimal column vector.

    Raises:
        InfeasibleProblemError / UnboundedProblemError / SolverError:
            on a non-optimal outcome, with ``linprog``'s status mapping.
    """
    highs = _highs._Highs()
    highs.passOptions(_LP_OPTIONS)
    if _pass_model(highs, lp) == _highs.HighsStatus.kError:
        _raise_for_status(lp, 2, "HiGHS rejected the model")
    highs.run()
    status = highs.getModelStatus()
    if status != _Status.kOptimal:
        code = {_Status.kInfeasible: 2, _Status.kModelError: 2,
                _Status.kUnbounded: 3}.get(status, 4)
        _raise_for_status(lp, code, highs.modelStatusToString(status))
    x = np.array(highs.getSolution().col_value, dtype=float)
    return lp.objective_at(x), ColumnValues(lp, x)


def solve_ilp_scipy(lp: LinearProgram) -> Tuple[float, Dict[str, float]]:
    """Solve the mixed-integer program with ``scipy.optimize.milp``.

    Returns:
        ``(objective, values)`` in the model's natural direction.
    """
    c = lp.objective_vector()
    if lp.maximize:
        c = -c
    a_ub, b_ub, a_eq, b_eq = lp.sparse_rows()
    constraints = []
    if a_ub.shape[0]:
        constraints.append(optimize.LinearConstraint(
            a_ub, ub=b_ub, lb=-np.inf))
    if a_eq.shape[0]:
        constraints.append(optimize.LinearConstraint(
            a_eq, lb=b_eq, ub=b_eq))
    bounds_arr = np.array(lp.bounds(), dtype=float)
    integrality = np.array(
        [1 if var.integer else 0 for var in lp.variables])
    # Integralize integer variables' bounds: mathematically equivalent
    # (an integer point never sits in the shaved fraction) and works
    # around a HiGHS presolve defect that can return a suboptimal
    # solution when integer variables carry fractional bounds.
    is_int = integrality == 1
    bounds_arr[is_int, 0] = np.ceil(bounds_arr[is_int, 0] - 1e-9)
    bounds_arr[is_int, 1] = np.floor(bounds_arr[is_int, 1] + 1e-9)
    bounds = optimize.Bounds(lb=bounds_arr[:, 0], ub=bounds_arr[:, 1])
    result = optimize.milp(
        c,
        constraints=constraints or None,
        bounds=bounds,
        integrality=integrality,
    )
    if not result.success:
        _raise_for_status(lp, result.status, result.message)
    values = {}
    for var in lp.variables:
        val = float(result.x[var.index])
        if var.integer:
            val = float(round(val))
        values[var.name] = val
    return lp.evaluate_objective(values), values
