"""Backend dispatch, warm-start state, and the :class:`Solution` type.

Two LP backends (``scipy`` = HiGHS, ``simplex`` = from-scratch) and two
ILP backends (``scipy`` = HiGHS MILP, ``bnb`` = from-scratch
branch-and-bound over either LP backend) solve the same
:class:`~repro.solver.model.LinearProgram`; tests assert they agree.

Warm starts
-----------

Sequences of near-identical solves (DynamicRR's per-round LP-PT, sweep
replications) thread a :class:`WarmStartState` through
:func:`solve_lp`.  It is an **exact solution cache** keyed by model
identity plus mutation version
(:attr:`~repro.solver.model.LinearProgram.version`): solving the *same
model object* that has not been mutated since the previous solve
returns the previous :class:`Solution` outright.  The state holds a
reference to the model, so the identity check cannot alias a recycled
object, and every structural edit bumps the version - the cached
result is exactly the result a cold solve would produce, at zero
hashing cost (for content-based fingerprints across distinct objects,
see :meth:`~repro.solver.model.LinearProgram.content_key`).  A
*changed* model solves cold on either backend, which keeps HiGHS
solutions identical to ``linprog``'s.

The ``lp_solve`` telemetry span is annotated with
``warm="cold" | "hit" | "miss"`` so traces show exactly which path
each solve took.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional

from ..exceptions import SolverError
from ..telemetry import get_tracer
from ..telemetry.metrics import get_metrics
from .branch_and_bound import solve_with_branch_and_bound
from .model import LinearProgram
from .scipy_backend import solve_ilp_scipy, solve_lp_scipy
from .simplex import solve_with_simplex

#: Default LP backend for large experiment instances.
DEFAULT_LP_BACKEND = "scipy"
#: Default ILP backend.
DEFAULT_ILP_BACKEND = "scipy"


class SolveStatus(enum.Enum):
    """Terminal status of a solve call that returned."""

    OPTIMAL = "optimal"


@dataclass(frozen=True)
class Solution:
    """Result of an LP/ILP solve.

    Attributes:
        status: terminal status (always OPTIMAL for a returned
            solution; failures raise instead).
        objective: objective value in the model's natural direction.
        values: variable name -> value.
        backend: which backend produced it.
        solve_time_s: wall-clock solve time (near zero for a
            warm-start cache hit).
    """

    status: SolveStatus
    objective: float
    values: Mapping[str, float]
    backend: str
    solve_time_s: float

    def value(self, name: str) -> float:
        """Value of one variable (0.0 when absent)."""
        return float(self.values.get(name, 0.0))

    def nonzero(self, tol: float = 1e-9) -> Dict[str, float]:
        """Variables with magnitude above `tol`."""
        return {name: val for name, val in self.values.items()
                if abs(val) > tol}


@dataclass
class WarmStartState:
    """Mutable solve-to-solve carry-over for :func:`solve_lp`.

    Create one per logical sequence of related solves (e.g. one per
    DynamicRR run) and pass it to every :func:`solve_lp` call in the
    sequence; the state updates itself.  See the module docstring for
    what is carried and the exactness guarantees.

    Attributes:
        hits: solves answered from the fingerprint cache.
        misses: solves that ran a backend.
        last_mode: what the most recent solve did
            (``"hit"`` / ``"miss"`` / ``"none"``).
    """

    _backend: Optional[str] = None
    _model: Optional[LinearProgram] = field(default=None, repr=False)
    _model_version: Optional[int] = None
    _solution: Optional[Solution] = None
    hits: int = 0
    misses: int = 0
    last_mode: str = "none"

    def lookup(self, backend: str,
               lp: LinearProgram) -> Optional[Solution]:
        """The cached solution iff this exact, unmutated model repeats."""
        if (self._solution is not None and self._backend == backend
                and lp is self._model
                and lp.version == self._model_version):
            return self._solution
        return None

    def store(self, backend: str, lp: LinearProgram,
              solution: Solution) -> None:
        """Record a solve's outcome for the next call."""
        self._backend = backend
        self._model = lp
        self._model_version = lp.version
        self._solution = solution

    def clear(self) -> None:
        """Drop all carried state (counters are kept)."""
        self._backend = None
        self._model = None
        self._model_version = None
        self._solution = None
        self.last_mode = "none"


def solve_lp(lp: LinearProgram,
             backend: str = DEFAULT_LP_BACKEND,
             warm_start: Optional[WarmStartState] = None) -> Solution:
    """Solve the continuous relaxation of a model.

    Args:
        lp: the model (integrality flags ignored).
        backend: ``"scipy"`` (HiGHS) or ``"simplex"`` (from scratch).
        warm_start: optional cross-solve state; see
            :class:`WarmStartState`.  Without it every solve is cold.

    Raises:
        SolverError: unknown backend.
        InfeasibleProblemError / UnboundedProblemError: from the backend.
    """
    if backend not in ("scipy", "simplex"):
        raise SolverError(f"unknown LP backend {backend!r}")
    start = time.perf_counter()  # repro: noqa DET001 -- advisory runtime metric
    with get_tracer().span("lp_solve", backend=backend) as span:
        mode = "cold"
        if warm_start is not None:
            cached = warm_start.lookup(backend, lp)
            if cached is not None:
                warm_start.hits += 1
                warm_start.last_mode = mode = "hit"
                span.annotate(warm=mode)
                get_metrics().inc("lp_solves_total", mode=mode)
                elapsed = time.perf_counter() - start  # repro: noqa DET001 -- advisory runtime metric
                return replace(cached, solve_time_s=elapsed)
            mode = "miss"
        if backend == "scipy":
            objective, values = solve_lp_scipy(lp)
        else:
            objective, values = solve_with_simplex(lp)
        span.annotate(warm=mode)
        get_metrics().inc("lp_solves_total", mode=mode)
    elapsed = time.perf_counter() - start  # repro: noqa DET001 -- advisory runtime metric
    solution = Solution(status=SolveStatus.OPTIMAL, objective=objective,
                        values=values, backend=backend,
                        solve_time_s=elapsed)
    if warm_start is not None:
        warm_start.misses += 1
        warm_start.last_mode = mode
        warm_start.store(backend, lp, solution)
    return solution


def solve_ilp(lp: LinearProgram,
              backend: str = DEFAULT_ILP_BACKEND,
              lp_backend: str = DEFAULT_LP_BACKEND) -> Solution:
    """Solve a mixed-integer model exactly.

    Args:
        lp: the model.
        backend: ``"scipy"`` (HiGHS MILP) or ``"bnb"`` (from-scratch
            branch-and-bound).
        lp_backend: relaxation backend used when ``backend="bnb"``.

    Raises:
        SolverError: unknown backend.
        InfeasibleProblemError: no integral feasible point.
    """
    start = time.perf_counter()  # repro: noqa DET001 -- advisory runtime metric
    with get_tracer().span("ilp_solve", backend=backend):
        if backend == "scipy":
            objective, values = solve_ilp_scipy(lp)
        elif backend == "bnb":
            def oracle(node_lp: LinearProgram):
                if lp_backend == "scipy":
                    return solve_lp_scipy(node_lp)
                if lp_backend == "simplex":
                    return solve_with_simplex(node_lp)
                raise SolverError(f"unknown LP backend {lp_backend!r}")

            objective, values = solve_with_branch_and_bound(lp, oracle)
        else:
            raise SolverError(f"unknown ILP backend {backend!r}")
    elapsed = time.perf_counter() - start  # repro: noqa DET001 -- advisory runtime metric
    return Solution(status=SolveStatus.OPTIMAL, objective=objective,
                    values=values, backend=backend, solve_time_s=elapsed)
