"""Solver-agnostic linear program model container.

A :class:`LinearProgram` accumulates variables (with bounds, objective
coefficients, and integrality flags) and linear constraints, then
exports matrices for whichever backend solves it.

Rows are stored as one CSR matrix (``indptr``/``indices``/``data``
arrays, column indices ascending within each row) with a sense and a
right-hand side per row.  :meth:`LinearProgram.add_rows_csr` appends a
whole block of rows in that form - the paper's slot-indexed LPs are
built one constraint *family* at a time as arrays.  The per-row entry
points (:meth:`~LinearProgram.add_constraint`,
:meth:`~LinearProgram.add_constraint_indexed`, the ``update_*`` edits)
buffer their rows in plain lists instead, so a model built or edited
row by row costs O(row) per row; appended blocks, buffered rows and
replaced rows are folded into the CSR arrays once, when something next
reads them.  Everything else is derived from the arrays on demand and
cached against the model version: the ``(A_ub, b_ub, A_eq, b_eq)`` exports
(:meth:`~LinearProgram.csr_export`, :meth:`~LinearProgram.sparse_rows`,
:meth:`~LinearProgram.dense_rows`), the :class:`Constraint` view, and
:meth:`~LinearProgram.content_key`.

Names are derived on demand too.  A bulk append may pass a callable
that returns the block's names instead of the names themselves, so a
builder that never looks a column up by name never formats one;
:class:`ColumnValues` keys a solution vector by those names lazily in
the same way.

The container also supports in-place *incremental* edits
(:meth:`~LinearProgram.update_constraint`,
:meth:`~LinearProgram.set_variable_bounds`,
:meth:`~LinearProgram.set_objective`) so a caller re-solving a
near-identical model - DynamicRR's per-round LP-PT is the canonical
case - can mutate the few changed rows instead of regenerating
everything.  A monotonically increasing version counter invalidates
the cached exports and lets warm-started solves detect an unchanged
model.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Mapping,
                    NamedTuple, Optional, Sequence, Tuple, Union)

import numpy as np
from scipy import sparse

from ..exceptions import ConfigurationError

#: Allowed constraint senses.
SENSES = ("<=", ">=", "==")

#: A block's names: the names themselves, or a callable returning them.
NameSource = Union[Sequence[str], Callable[[], Sequence[str]]]


def _float_list(seq: Sequence[float]) -> List[float]:
    """`seq` as a list of Python floats (identical values, C-speed)."""
    if isinstance(seq, np.ndarray):
        return seq.astype(float, copy=False).tolist()
    return [float(x) for x in seq]


def _trivially_satisfied(sense: str, rhs: float) -> bool:
    """Whether an empty row ``0 <sense> rhs`` holds."""
    return ((sense == "<=" and rhs >= 0) or (sense == ">=" and rhs <= 0)
            or (sense == "==" and rhs == 0))


@dataclass(frozen=True)
class Variable:
    """One decision variable.

    Attributes:
        name: unique name within the program.
        index: column index in the exported matrices.
        low: lower bound (may be ``-inf``).
        high: upper bound (may be ``+inf``).
        objective: coefficient in the objective function.
        integer: whether the variable is integral (ILP only).
    """

    name: str
    index: int
    low: float
    high: float
    objective: float
    integer: bool


@dataclass(frozen=True)
class Constraint:
    """One linear constraint ``coeffs . x  <sense>  rhs``.

    Attributes:
        name: unique constraint name.
        coeffs: variable index -> coefficient (sparse row, ascending
            index order).
        sense: one of ``<=``, ``>=``, ``==``.
        rhs: right-hand side.
    """

    name: str
    coeffs: Mapping[int, float]
    sense: str
    rhs: float


class CsrRows(NamedTuple):
    """One row group of an export: CSR arrays plus right-hand sides."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rhs: np.ndarray


class _Names:
    """Names of a growing sequence of columns or rows.

    Blocks are appended either as names or as a callable producing
    them; lookups materialize every pending block once, in order.
    Eagerly given names are checked for duplicates; a callable's names
    must be unique by construction (they are not checked).
    """

    __slots__ = ("_pending", "_size", "_list", "_index")

    def __init__(self) -> None:
        self._pending: List[NameSource] = []
        self._size = 0
        self._list: List[str] = []
        self._index: Dict[str, int] = {}

    def __len__(self) -> int:
        return self._size

    def _materialize(self) -> None:
        for source in self._pending:
            names = source() if callable(source) else source
            start = len(self._list)
            self._list.extend(names)
            self._index.update(zip(names, range(start, len(self._list))))
        self._pending.clear()

    def add(self, names: Sequence[str], owner: str, kind: str) -> None:
        """Append checked names (raises on a duplicate)."""
        if self._pending:
            self._materialize()
        index = self._index
        start = len(self._list)
        for offset, name in enumerate(names):
            if name in index:
                for added in names[:offset]:
                    del index[added]
                raise ConfigurationError(
                    f"{owner}: duplicate {kind} {name!r}")
            index[name] = start + offset
        self._list.extend(names)
        self._size += len(names)

    def add_lazy(self, source: Callable[[], Sequence[str]],
                 count: int) -> None:
        """Append `count` names produced by `source` when first needed."""
        self._pending.append(source)
        self._size += count

    def position(self, name: str) -> Optional[int]:
        if self._pending:
            self._materialize()
        return self._index.get(name)

    def as_list(self) -> List[str]:
        if self._pending:
            self._materialize()
        return self._list


class ColumnValues(Mapping[str, float]):
    """A solve's column vector, read by variable name.

    Behaves as the ``name -> value`` mapping a solve returns, without
    formatting every column name per solve: :attr:`x` holds the values
    in column order and names resolve through the model only when a
    caller asks for one.  :attr:`columns_id` identifies the column
    numbering ``x`` follows (see :attr:`LinearProgram.columns_id`), so
    a column-indexed reader can take ``x`` directly.
    """

    __slots__ = ("x", "columns_id", "_lp")

    def __init__(self, lp: "LinearProgram", x: np.ndarray) -> None:
        self.x = x
        self.columns_id = lp.columns_id
        self._lp = lp

    def __getitem__(self, name: str) -> float:
        col = self._lp._var_names.position(name)
        if col is None or col >= self.x.size:
            raise KeyError(name)
        return float(self.x[col])

    def __iter__(self) -> Iterator[str]:
        return iter(self._lp._var_names.as_list()[:self.x.size])

    def __len__(self) -> int:
        return int(self.x.size)

    def __repr__(self) -> str:
        return f"ColumnValues({dict(self)!r})"


class LinearProgram:
    """A (mixed-integer) linear program in natural form.

    Args:
        name: label used in error messages.
        maximize: optimization direction (the paper's programs all
            maximize expected reward).
    """

    def __init__(self, name: str = "lp", maximize: bool = True) -> None:
        self.name = name
        self.maximize = maximize
        # Columns live in parallel lists, not Variable objects; the
        # Variable view is materialized lazily by :attr:`variables`.
        self._var_names = _Names()
        self._lows: List[float] = []
        self._highs: List[float] = []
        self._objs: List[float] = []
        self._ints: List[bool] = []
        # Rows: one CSR matrix, plus the edits made since it was last
        # assembled (see :meth:`_rows`) - appended row blocks, single
        # rows buffered as Python lists, and replaced rows - so that
        # building a model row by row costs O(row) per row.
        self._indptr = np.zeros(1, dtype=np.int32)
        self._indices = np.zeros(0, dtype=np.int32)
        self._data = np.zeros(0, dtype=float)
        self._blocks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._row_counts: List[int] = []
        self._row_cols: List[int] = []
        self._row_vals: List[float] = []
        self._replaced: Dict[int, Tuple[List[int], List[float]]] = {}
        self._senses: List[str] = []
        self._rhs: List[float] = []
        self._con_names = _Names()
        #: Identifies this model's column numbering.  Columns are only
        #: ever appended, so column ``j`` means the same variable for
        #: the model's whole life.
        self.columns_id = object()
        #: Bumped on every structural edit; keys the export/fingerprint
        #: caches and lets warm-start state detect "same model object,
        #: unchanged since the last solve".
        self._version = 0
        self._caches: Dict[str, Tuple[int, Any]] = {}

    @property
    def version(self) -> int:
        """Mutation counter (bumped by every add/update call)."""
        return self._version

    def _touch(self) -> None:
        self._version += 1

    def _seal_row_buffer(self) -> None:
        """Move the buffered single rows into the block list."""
        if self._row_counts:
            self._blocks.append((np.array(self._row_counts, dtype=np.int64),
                                 np.array(self._row_cols, dtype=np.int64),
                                 np.array(self._row_vals, dtype=float)))
            self._row_counts, self._row_cols, self._row_vals = [], [], []

    def _rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows as one CSR matrix ``(indptr, indices, data)``.

        Folds pending appends and row replacements in, once per batch
        of edits.  The result is always a fresh set of arrays, never an
        in-place edit, because cached exports share them.
        """
        self._seal_row_buffer()
        if self._blocks:
            counts = np.concatenate(
                [np.diff(self._indptr)] + [b[0] for b in self._blocks])
            indptr = np.zeros(counts.size + 1, dtype=np.int32)
            np.cumsum(counts, out=indptr[1:])
            self._indptr = indptr
            self._indices = np.concatenate(
                [self._indices] + [b[1] for b in self._blocks]
            ).astype(np.int32, copy=False)
            self._data = np.concatenate(
                [self._data] + [b[2] for b in self._blocks])
            self._blocks.clear()
        if self._replaced:
            indptr, indices, data = self._indptr, self._indices, self._data
            counts = np.diff(indptr)
            index_parts: List[Any] = []
            data_parts: List[Any] = []
            done = 0
            for position in sorted(self._replaced):
                cols, vals = self._replaced[position]
                index_parts += [indices[done:indptr[position]], cols]
                data_parts += [data[done:indptr[position]], vals]
                done = indptr[position + 1]
                counts[position] = len(cols)
            index_parts.append(indices[done:])
            data_parts.append(data[done:])
            self._indptr = np.zeros(counts.size + 1, dtype=np.int32)
            np.cumsum(counts, out=self._indptr[1:])
            self._indices = np.concatenate(
                [np.asarray(part, dtype=np.int32) for part in index_parts])
            self._data = np.concatenate(
                [np.asarray(part, dtype=float) for part in data_parts])
            self._replaced.clear()
        return self._indptr, self._indices, self._data

    def _cached(self, key: str, build: Callable[[], Any]) -> Any:
        entry = self._caches.get(key)
        if entry is not None and entry[0] == self._version:
            return entry[1]
        value = build()
        self._caches[key] = (self._version, value)
        return value

    # ------------------------------------------------------------------
    # Construction: columns
    # ------------------------------------------------------------------
    def add_variable(self, name: str, low: float = 0.0,
                     high: float = math.inf, objective: float = 0.0,
                     integer: bool = False) -> Variable:
        """Add a variable; returns its handle.

        Raises:
            ConfigurationError: on duplicate names or ``low > high``.
        """
        if low > high:
            raise ConfigurationError(
                f"{self.name}: variable {name!r} has low {low} > high {high}")
        index = len(self._lows)
        self._var_names.add((name,), self.name, "variable")
        var = Variable(name=name, index=index, low=float(low),
                       high=float(high), objective=float(objective),
                       integer=bool(integer))
        self._lows.append(var.low)
        self._highs.append(var.high)
        self._objs.append(var.objective)
        self._ints.append(var.integer)
        self._touch()
        return var

    def add_variables_bulk(self, names: NameSource,
                           lows: Sequence[float],
                           highs: Sequence[float],
                           objectives: Sequence[float],
                           integer: bool = False) -> int:
        """Append a block of variables; returns the first column index.

        The bulk path exists for vectorized model builders (the
        slot-indexed LP creates ``|R| x |BS| x L`` columns).  `names`
        may be a callable returning the block's names: they are then
        produced only when something looks a name up, and must be
        unique by construction.

        Raises:
            ConfigurationError: on duplicate names, mismatched sequence
                lengths, or ``low > high``.
        """
        lazy = callable(names)
        count = len(objectives)
        if not (len(lows) == len(highs) == count
                and (lazy or len(names) == count)):
            raise ConfigurationError(
                f"{self.name}: bulk sequences have mismatched lengths")
        lows_f = _float_list(lows)
        highs_f = _float_list(highs)
        bad = [i for i, (low, high) in enumerate(zip(lows_f, highs_f))
               if low > high]
        if bad:
            label = (repr(names[bad[0]]) if not lazy
                     else f"#{len(self._lows) + bad[0]}")
            raise ConfigurationError(
                f"{self.name}: variable {label} has low "
                f"{lows_f[bad[0]]} > high {highs_f[bad[0]]}")
        if lazy:
            self._var_names.add_lazy(names, count)
        else:
            self._var_names.add(names, self.name, "variable")
        first = len(self._lows)
        self._lows.extend(lows_f)
        self._highs.extend(highs_f)
        self._objs.extend(_float_list(objectives))
        self._ints.extend([bool(integer)] * count)
        self._touch()
        return first

    # ------------------------------------------------------------------
    # Construction: rows
    # ------------------------------------------------------------------
    def add_rows_csr(self, indptr: Sequence[int], indices: Sequence[int],
                     data: Sequence[float], sense: str,
                     rhs: Union[float, Sequence[float]],
                     names: Optional[NameSource] = None) -> int:
        """Append a block of rows given as CSR arrays; returns the first
        row position.

        Row ``k`` holds ``data[indptr[k]:indptr[k + 1]]`` at columns
        ``indices[indptr[k]:indptr[k + 1]]``; every row of the block
        has sense `sense`, and `rhs` is one value per row (or one for
        all).  Structural zeros are dropped, columns are sorted within
        each row, and an empty row must be trivially satisfiable.
        `names` may be a callable (see :meth:`add_variables_bulk`);
        None names rows ``c<position>``.

        Raises:
            ConfigurationError: on bad senses, out-of-range or repeated
                column indices, mismatched lengths, duplicate names, or
                a trivially infeasible empty row.
        """
        if sense not in SENSES:
            raise ConfigurationError(
                f"{self.name}: bad sense {sense!r}, want one of {SENSES}")
        ptr = np.asarray(indptr, dtype=np.int64)
        # Copies: the block is kept as given until the rows are next
        # assembled, so later edits of the caller's arrays must not
        # reach it.
        cols = np.array(indices, dtype=np.int64)
        vals = np.array(data, dtype=float)
        num_rows = ptr.size - 1
        rhs_arr = np.asarray(rhs, dtype=float)
        if rhs_arr.ndim == 0:
            rhs_arr = np.full(max(num_rows, 0), float(rhs_arr))
        counts = np.diff(ptr)
        if (num_rows < 0 or ptr[0] != 0 or ptr[-1] != cols.size
                or vals.size != cols.size or rhs_arr.shape != (num_rows,)
                or (counts < 0).any()):
            raise ConfigurationError(
                f"{self.name}: malformed CSR row block")
        n = len(self._lows)
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            bad = cols.min() if cols.min() < 0 else cols.max()
            raise ConfigurationError(
                f"{self.name}: column index {bad} out of range [0, {n})")
        # Exact comparison on purpose: only *structural* zeros are
        # dropped - a near-zero coefficient is part of the formulation
        # and must reach the solver untouched.
        if not vals.all():
            keep = vals != 0.0  # repro: noqa NUM001 -- structural zero-drop
            row_of = np.repeat(np.arange(num_rows), counts)
            cols, vals = cols[keep], vals[keep]
            counts = np.bincount(row_of[keep], minlength=num_rows)
            ptr = np.concatenate(([0], np.cumsum(counts)))
        if cols.size > 1:
            # A step that does not increase, other than across a row
            # boundary, means a row is unsorted or repeats a column.
            descent = np.diff(cols) <= 0
            starts = ptr[1:-1]
            descent[starts[(starts > 0) & (starts < cols.size)] - 1] = False
            if descent.any():
                row_of = np.repeat(np.arange(num_rows), counts)
                order = np.lexsort((cols, row_of))
                cols, vals = cols[order], vals[order]
                repeat = np.diff(cols) == 0
                repeat[starts[(starts > 0) & (starts < cols.size)] - 1] = False
                if repeat.any():
                    raise ConfigurationError(
                        f"{self.name}: repeated column index in a row")
        empty = counts == 0
        if empty.any():
            for value in rhs_arr[empty].tolist():
                if not _trivially_satisfied(sense, value):
                    raise ConfigurationError(
                        f"{self.name}: empty constraint row with sense "
                        f"{sense} rhs {value} is infeasible")
        first = len(self._senses)
        if names is None:
            names = [f"c{first + k}" for k in range(num_rows)]
        if callable(names):
            self._con_names.add_lazy(names, num_rows)
        else:
            if len(names) != num_rows:
                raise ConfigurationError(
                    f"{self.name}: {len(names)} names for {num_rows} rows")
            self._con_names.add(names, self.name, "constraint")
        self._seal_row_buffer()
        self._blocks.append((counts, cols, vals))
        self._senses.extend([sense] * num_rows)
        self._rhs.extend(rhs_arr.tolist())
        self._touch()
        return first

    def _row_from_mapping(self, coeffs: Mapping[Any, float],
                          by_name: bool) -> Tuple[List[int], List[float]]:
        if by_name:
            cols = []
            for var_name in coeffs:
                col = self._var_names.position(var_name)
                if col is None:
                    raise ConfigurationError(
                        f"{self.name}: unknown variable {var_name!r}")
                cols.append(col)
        else:
            cols = list(map(int, coeffs.keys()))
        return cols, list(map(float, coeffs.values()))

    def add_constraint(self, coeffs: Mapping[str, float], sense: str,
                       rhs: float, name: Optional[str] = None) -> Constraint:
        """Add a constraint given by a name->coefficient mapping.

        Zero coefficients are dropped; an empty row raises unless it is
        trivially satisfiable, in which case it is stored anyway so the
        model's constraint count matches the formulation.

        Raises:
            ConfigurationError: on unknown variables, bad senses, or a
                trivially infeasible empty row.
        """
        if sense not in SENSES:
            raise ConfigurationError(
                f"{self.name}: bad sense {sense!r}, want one of {SENSES}")
        cols, vals = self._row_from_mapping(coeffs, by_name=True)
        return self._add_one_row(cols, vals, sense, rhs, name)

    def add_constraint_indexed(self, coeffs: Mapping[int, float],
                               sense: str, rhs: float,
                               name: Optional[str] = None) -> Constraint:
        """Add a constraint keyed by column *index*.

        Same rules as :meth:`add_constraint`; indices are validated
        against the current column count.

        Raises:
            ConfigurationError: on bad senses, out-of-range indices, or
                a trivially infeasible empty row.
        """
        cols, vals = self._row_from_mapping(coeffs, by_name=False)
        return self._add_one_row(cols, vals, sense, rhs, name)

    def _clean_row(self, cols: List[int], vals: List[float]
                   ) -> Tuple[List[int], List[float]]:
        """One row's entries, checked, zero-dropped and column-sorted.

        The single-row form of :meth:`add_rows_csr`'s checks, in plain
        Python: a row is too short for numpy to pay off.
        """
        n = len(self._lows)
        if cols and (min(cols) < 0 or max(cols) >= n):
            bad = min(cols) if min(cols) < 0 else max(cols)
            raise ConfigurationError(
                f"{self.name}: column index {bad} out of range [0, {n})")
        # Exact comparison on purpose: only *structural* zeros are
        # dropped (see add_rows_csr).
        row = sorted((col, val) for col, val in zip(cols, vals)
                     if val != 0.0)  # repro: noqa NUM001 -- structural zero-drop
        if any(a[0] == b[0] for a, b in zip(row, row[1:])):
            raise ConfigurationError(
                f"{self.name}: repeated column index in a row")
        return [col for col, _val in row], [val for _col, val in row]

    def _add_one_row(self, cols: List[int], vals: List[float], sense: str,
                     rhs: float, name: Optional[str]) -> Constraint:
        if sense not in SENSES:
            raise ConfigurationError(
                f"{self.name}: bad sense {sense!r}, want one of {SENSES}")
        rhs = float(rhs)
        cols, vals = self._clean_row(cols, vals)
        if not cols and not _trivially_satisfied(sense, rhs):
            raise ConfigurationError(
                f"{self.name}: empty constraint row with sense {sense} "
                f"rhs {rhs} is infeasible")
        position = len(self._senses)
        if name is None:
            name = f"c{position}"
        self._con_names.add((name,), self.name, "constraint")
        self._row_counts.append(len(cols))
        self._row_cols.extend(cols)
        self._row_vals.extend(vals)
        self._senses.append(sense)
        self._rhs.append(rhs)
        self._touch()
        return Constraint(name=name, coeffs=dict(zip(cols, vals)),
                          sense=sense, rhs=rhs)

    # ------------------------------------------------------------------
    # Incremental (in-place) edits
    # ------------------------------------------------------------------
    def _row_position(self, name: str) -> int:
        position = self._con_names.position(name)
        if position is None:
            raise ConfigurationError(
                f"{self.name}: unknown constraint {name!r}")
        return position

    def _replace_row(self, position: int, cols: List[int],
                     vals: List[float], rhs: Optional[float]
                     ) -> Constraint:
        """Swap one row's entries (and optionally its rhs) in place."""
        cols, vals = self._clean_row(cols, vals)
        self._replaced[position] = (cols, vals)
        if rhs is not None:
            self._rhs[position] = float(rhs)
        self._touch()
        return Constraint(name=self._con_names.as_list()[position],
                          coeffs=dict(zip(cols, vals)),
                          sense=self._senses[position],
                          rhs=self._rhs[position])

    def update_constraint(self, name: str,
                          coeffs: Optional[Mapping[str, float]] = None,
                          rhs: Optional[float] = None) -> Constraint:
        """Replace a row's coefficients and/or right-hand side in place.

        The row keeps its position (export order is unchanged) and its
        sense.  This is the incremental-model primitive: DynamicRR's
        LP-PT differs between rounds only in the fair-share-capped rows
        and the arrival set, so mutating those rows beats regenerating
        the whole model.

        Args:
            coeffs: new name->coefficient mapping (None keeps the row).
            rhs: new right-hand side (None keeps it).

        Raises:
            ConfigurationError: unknown row/variables.
        """
        position = self._row_position(name)
        if coeffs is None:
            old = self._constraint_at(position)
            cols, vals = list(old.coeffs), list(old.coeffs.values())
        else:
            cols, vals = self._row_from_mapping(coeffs, by_name=True)
        return self._replace_row(position, cols, vals, rhs)

    def update_constraint_indexed(self, name: str,
                                  coeffs: Mapping[int, float],
                                  rhs: Optional[float] = None
                                  ) -> Constraint:
        """Index-keyed sibling of :meth:`update_constraint`.

        Raises:
            ConfigurationError: unknown row or out-of-range indices.
        """
        position = self._row_position(name)
        cols, vals = self._row_from_mapping(coeffs, by_name=False)
        return self._replace_row(position, cols, vals, rhs)

    def set_variable_bounds(self, name: str, low: float,
                            high: float) -> Variable:
        """Change one variable's bounds in place (column kept).

        Raises:
            ConfigurationError: unknown variable or ``low > high``.
        """
        if low > high:
            raise ConfigurationError(
                f"{self.name}: variable {name!r} has low {low} > "
                f"high {high}")
        index = self._index_of(name)
        self._lows[index] = float(low)
        self._highs[index] = float(high)
        self._touch()
        return self._make_variable(index)

    def set_objective(self, name: str, objective: float) -> Variable:
        """Change one variable's objective coefficient in place."""
        index = self._index_of(name)
        self._objs[index] = float(objective)
        self._touch()
        return self._make_variable(index)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _make_variable(self, index: int) -> Variable:
        return Variable(name=self._var_names.as_list()[index], index=index,
                        low=self._lows[index], high=self._highs[index],
                        objective=self._objs[index],
                        integer=self._ints[index])

    def _index_of(self, name: str) -> int:
        index = self._var_names.position(name)
        if index is None:
            raise ConfigurationError(
                f"{self.name}: unknown variable {name!r}")
        return index

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """All variables, by column index (materialized lazily)."""
        return self._cached("variables", lambda: tuple(
            Variable(name=name, index=i, low=low, high=high,
                     objective=obj, integer=integer)
            for i, (name, low, high, obj, integer)
            in enumerate(zip(self._var_names.as_list(), self._lows,
                             self._highs, self._objs, self._ints))))

    def variable_names(self) -> List[str]:
        """All variable names, by column index."""
        return list(self._var_names.as_list())

    def _constraint_at(self, position: int) -> Constraint:
        indptr, indices, data = self._rows()
        lo, hi = indptr[position], indptr[position + 1]
        return Constraint(
            name=self._con_names.as_list()[position],
            coeffs=dict(zip(indices[lo:hi].tolist(),
                            data[lo:hi].tolist())),
            sense=self._senses[position], rhs=self._rhs[position])

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        """All constraints, in insertion order (derived from the rows)."""
        def build() -> Tuple[Constraint, ...]:
            indptr, indices, data = self._rows()
            bounds = indptr.tolist()
            cols = indices.tolist()
            vals = data.tolist()
            return tuple(
                Constraint(name=name,
                           coeffs=dict(zip(cols[lo:hi], vals[lo:hi])),
                           sense=sense, rhs=rhs)
                for name, lo, hi, sense, rhs
                in zip(self._con_names.as_list(), bounds, bounds[1:],
                       self._senses, self._rhs))
        return self._cached("constraints", build)

    @property
    def num_variables(self) -> int:
        """Number of columns."""
        return len(self._lows)

    @property
    def num_constraints(self) -> int:
        """Number of rows."""
        return len(self._senses)

    @property
    def has_integers(self) -> bool:
        """Whether any variable is integral."""
        return any(self._ints)

    def variable(self, name: str) -> Variable:
        """Look a variable up by name."""
        return self._make_variable(self._index_of(name))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def objective_vector(self) -> np.ndarray:
        """Dense objective coefficients (natural direction)."""
        return np.array(self._objs, dtype=float)

    def bounds(self) -> List[Tuple[float, float]]:
        """Per-variable (low, high) bounds."""
        return list(zip(self._lows, self._highs))

    def uniform_bounds(self) -> Optional[Tuple[float, float]]:
        """The single (low, high) pair shared by *every* variable.

        Returns None when variables disagree (or there are none).  The
        paper's programs bound every ``y`` by [0, 1]; backends use this
        to fill the bound vectors without walking the per-variable
        lists.  Cached by :attr:`version`.
        """
        def build() -> Optional[Tuple[float, float]]:
            if not self._lows:
                return None
            low, high = self._lows[0], self._highs[0]
            # Exact on purpose: a fast path may only trigger when the
            # bounds are the *same floats* the per-variable list would
            # carry.  list.count uses the same == as the explicit loop.
            n = len(self._lows)
            if (self._lows.count(low) == n  # repro: noqa NUM001 -- bitwise fast-path guard
                    and self._highs.count(high) == n):
                return (low, high)
            return None
        return self._cached("uniform_bounds", build)

    def csr_export(self) -> Tuple[CsrRows, CsrRows]:
        """The ``(A_ub, b_ub)`` and ``(A_eq, b_eq)`` groups as raw CSR.

        ``>=`` rows are negated into ``<=`` form; rows keep insertion
        order within each group.  Index arrays are int32, data and
        right-hand sides float64.  Cached against the model version.
        """
        return self._cached("csr_export", self._build_csr_export)

    def _build_csr_export(self) -> Tuple[CsrRows, CsrRows]:
        indptr, indices, data = self._rows()
        rhs = np.asarray(self._rhs, dtype=float)
        num_le = self._senses.count("<=")
        if num_le == len(self._senses):
            empty = CsrRows(np.zeros(1, dtype=np.int32),
                            np.zeros(0, dtype=np.int32),
                            np.zeros(0, dtype=float), np.zeros(0))
            return CsrRows(indptr, indices, data, rhs), empty
        senses = np.array(self._senses)
        groups = []
        for rows in (np.flatnonzero(senses != "=="),
                     np.flatnonzero(senses == "==")):
            counts = (indptr[1:] - indptr[:-1])[rows]
            ptr = np.zeros(rows.size + 1, dtype=np.int32)
            np.cumsum(counts, out=ptr[1:])
            take = (np.repeat(indptr[:-1][rows] - ptr[:-1], counts)
                    + np.arange(ptr[-1]))
            group_data = data[take]
            group_rhs = rhs[rows]
            flip = senses[rows] == ">="
            if flip.any():
                entry_flip = np.repeat(flip, counts)
                group_data[entry_flip] = -group_data[entry_flip]
                group_rhs[flip] = -group_rhs[flip]
            groups.append(CsrRows(ptr, indices[take], group_data,
                                  group_rhs))
        return groups[0], groups[1]

    def dense_rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray]:
        """Export as ``(A_ub, b_ub, A_eq, b_eq)``.

        ``>=`` rows are negated into ``<=`` form.  Empty matrices have
        shape ``(0, num_variables)``.
        """
        indptr, indices, data = self._rows()
        dense = np.zeros((self.num_constraints, self.num_variables))
        dense[np.repeat(np.arange(self.num_constraints),
                        np.diff(indptr)), indices] = data
        senses = np.array(self._senses, dtype=object)
        rhs = np.asarray(self._rhs, dtype=float)
        ub = senses != "=="
        a_ub, b_ub = dense[ub], rhs[ub]
        flip = senses[ub] == ">="
        a_ub[flip] = -a_ub[flip]
        b_ub[flip] = -b_ub[flip]
        eq = senses == "=="
        return a_ub, b_ub, dense[eq], rhs[eq]

    def sparse_rows(self) -> Tuple["sparse.csr_array", np.ndarray,
                                   "sparse.csr_array", np.ndarray]:
        """Export as scipy CSR ``(A_ub, b_ub, A_eq, b_eq)``.

        The :meth:`csr_export` arrays wrapped as ``csr_array``; the
        matrices are bit-identical to ``csr_array(dense_rows()[...])``.
        Cached against the model version.
        """
        def build():
            n = self.num_variables
            ub, eq = self.csr_export()
            return (sparse.csr_array((ub.data, ub.indices, ub.indptr),
                                     shape=(ub.rhs.size, n)), ub.rhs,
                    sparse.csr_array((eq.data, eq.indices, eq.indptr),
                                     shape=(eq.rhs.size, n)), eq.rhs)
        return self._cached("sparse_rows", build)

    def content_key(self) -> bytes:
        """Digest of the full model content (variables, rows, senses).

        Two models with equal keys describe byte-identical programs, so
        a deterministic backend returns the same solution for both.
        Cached against the model version.
        """
        return self._cached("content_key", self._build_content_key)

    def _build_content_key(self) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        h.update(b"max" if self.maximize else b"min")
        h.update("\x00".join(self._var_names.as_list()).encode())
        if self._lows:
            meta = np.column_stack((self._lows, self._highs, self._objs,
                                    np.asarray(self._ints, dtype=float)))
            h.update(meta.tobytes())
        for group in self.csr_export():
            for arr in (group.indptr, group.indices, group.data):
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(group.rhs.tobytes())
        h.update("\x00".join(self._con_names.as_list()).encode())
        return h.digest()

    def objective_at(self, x: np.ndarray) -> float:
        """Objective value of a column vector (natural direction).

        The same float as :meth:`evaluate_objective` of the matching
        name mapping: products taken in column order and summed left
        to right.
        """
        return float(sum((self.objective_vector() * x).tolist()))

    def evaluate_objective(self, values: Mapping[str, float]) -> float:
        """Objective value of an assignment (natural direction)."""
        get = values.get
        # A list comprehension sums in the same left-to-right order as
        # the equivalent generator (identical floats), only faster.
        return float(sum([obj * get(name, 0.0)
                          for name, obj in zip(self._var_names.as_list(),
                                               self._objs)]))

    def check_feasible(self, values: Mapping[str, float],
                       tol: float = 1e-6) -> List[str]:
        """Names of constraints/bounds violated by an assignment.

        Returns an empty list when the assignment is feasible within
        `tol`.  Useful in tests and for auditing rounded solutions.
        """
        violations: List[str] = []
        names = self._var_names.as_list()
        for name, low, high, integer in zip(names, self._lows,
                                            self._highs, self._ints):
            val = values.get(name, 0.0)
            if val < low - tol or val > high + tol:
                violations.append(f"bound:{name}")
            if integer and abs(val - round(val)) > tol:
                violations.append(f"integrality:{name}")
        for con in self.constraints:
            lhs = sum(coef * values.get(names[idx], 0.0)
                      for idx, coef in con.coeffs.items())
            if con.sense == "<=" and lhs > con.rhs + tol:
                violations.append(f"constraint:{con.name}")
            elif con.sense == ">=" and lhs < con.rhs - tol:
                violations.append(f"constraint:{con.name}")
            elif con.sense == "==" and abs(lhs - con.rhs) > tol:
                violations.append(f"constraint:{con.name}")
        return violations

    def __repr__(self) -> str:
        kind = "ILP" if self.has_integers else "LP"
        sense = "max" if self.maximize else "min"
        return (f"LinearProgram({self.name!r}, {kind}, {sense}, "
                f"{self.num_variables} vars, {self.num_constraints} rows)")
