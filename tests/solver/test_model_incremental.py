"""Bulk construction, incremental edits, and sparse export of the model.

These APIs form the warm-started LP hot path: vectorized builders
append whole column blocks (`add_variables_bulk`), mutate single rows
in place (`update_constraint*`), and export CSR matrices in O(nnz)
(`sparse_rows`).  The tests pin the contract the solvers rely on -
byte-identical semantics to the scalar/dense paths.
"""

import math

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import ConfigurationError
from repro.solver.model import LinearProgram


def knapsack_lp() -> LinearProgram:
    """A small mixed-sense LP touching every export branch."""
    lp = LinearProgram(name="knap")
    lp.add_variables_bulk(
        ["x0", "x1", "x2", "x3"],
        (0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0),
        np.array([3.0, 1.0, 4.0, 1.5]))
    lp.add_constraint_indexed({0: 2.0, 1: 1.0, 2: 3.0}, "<=", 4.0,
                              name="cap")
    lp.add_constraint_indexed({1: 1.0, 3: 1.0}, ">=", 0.5, name="floor")
    lp.add_constraint_indexed({0: 1.0, 3: -1.0}, "==", 0.0, name="tie")
    return lp


class TestBulkVariables:
    def test_block_appends_after_existing(self):
        lp = LinearProgram()
        lp.add_variable("w")
        first = lp.add_variables_bulk(["a", "b"], (0.0, 0.0),
                                      (1.0, 2.0), (0.5, 0.25))
        assert first == 1
        assert lp.num_variables == 3
        assert [v.name for v in lp.variables] == ["w", "a", "b"]
        assert lp.variable("b").high == 2.0
        assert lp.variable("b").objective == 0.25

    def test_numpy_objectives_round_trip(self):
        lp = LinearProgram()
        objs = np.linspace(0.1, 0.9, 5)
        lp.add_variables_bulk([f"y{i}" for i in range(5)],
                              (0.0,) * 5, (1.0,) * 5, objs)
        assert lp.objective_vector().tolist() == objs.tolist()

    def test_mismatched_lengths_rejected(self):
        lp = LinearProgram()
        with pytest.raises(ConfigurationError):
            lp.add_variables_bulk(["a", "b"], (0.0,), (1.0, 1.0),
                                  (0.0, 0.0))

    def test_duplicate_rejected(self):
        lp = LinearProgram()
        lp.add_variable("a")
        with pytest.raises(ConfigurationError):
            lp.add_variables_bulk(["b", "a"], (0.0, 0.0), (1.0, 1.0),
                                  (0.0, 0.0))

    def test_inverted_bounds_rejected(self):
        lp = LinearProgram()
        with pytest.raises(ConfigurationError):
            lp.add_variables_bulk(["a"], (2.0,), (1.0,), (0.0,))

    def test_variable_names_in_column_order(self):
        lp = knapsack_lp()
        assert lp.variable_names() == ["x0", "x1", "x2", "x3"]


class TestIndexedConstraints:
    def test_row_content(self):
        lp = knapsack_lp()
        con = lp.constraints[0]
        assert con.coeffs == {0: 2.0, 1: 1.0, 2: 3.0}
        assert con.sense == "<=" and con.rhs == 4.0

    def test_structural_zero_dropped(self):
        lp = LinearProgram()
        lp.add_variables_bulk(["a", "b"], (0.0,) * 2, (1.0,) * 2,
                              (0.0,) * 2)
        con = lp.add_constraint_indexed({0: 0.0, 1: 1.0}, "<=", 1.0)
        assert con.coeffs == {1: 1.0}

    def test_out_of_range_rejected(self):
        lp = LinearProgram()
        lp.add_variable("a")
        with pytest.raises(ConfigurationError):
            lp.add_constraint_indexed({1: 1.0}, "<=", 1.0)
        with pytest.raises(ConfigurationError):
            lp.add_constraint_indexed({-1: 1.0}, "<=", 1.0)

    def test_empty_row_rules(self):
        lp = LinearProgram()
        lp.add_variable("a")
        lp.add_constraint_indexed({0: 0.0}, "<=", 1.0)  # trivially ok
        with pytest.raises(ConfigurationError):
            lp.add_constraint_indexed({0: 0.0}, ">=", 1.0)


class TestIncrementalEdits:
    def test_update_rhs_keeps_row_position(self):
        lp = knapsack_lp()
        before = [c.name for c in lp.constraints]
        lp.update_constraint_indexed("cap", {0: 2.0, 1: 1.0, 2: 3.0},
                                     rhs=5.0)
        assert [c.name for c in lp.constraints] == before
        assert lp.constraints[0].rhs == 5.0
        assert lp.constraints[0].sense == "<="

    def test_update_coeffs_by_name(self):
        lp = knapsack_lp()
        lp.update_constraint("floor", coeffs={"x1": 2.0})
        assert lp.constraints[1].coeffs == {1: 2.0}
        assert lp.constraints[1].rhs == 0.5  # rhs untouched

    def test_unknown_row_rejected(self):
        lp = knapsack_lp()
        with pytest.raises(ConfigurationError):
            lp.update_constraint_indexed("nope", {0: 1.0})

    def test_set_variable_bounds_and_objective(self):
        lp = knapsack_lp()
        lp.set_variable_bounds("x1", 0.25, 0.75)
        lp.set_objective("x1", 9.0)
        var = lp.variable("x1")
        assert (var.low, var.high, var.objective) == (0.25, 0.75, 9.0)

    def test_version_bumps_on_every_edit(self):
        lp = knapsack_lp()
        seen = {lp.version}
        lp.update_constraint_indexed("cap", {0: 1.0})
        seen.add(lp.version)
        lp.set_variable_bounds("x0", 0.0, 0.5)
        seen.add(lp.version)
        lp.set_objective("x0", 1.0)
        seen.add(lp.version)
        assert len(seen) == 4  # strictly increasing

    def test_content_key_tracks_content(self):
        lp = knapsack_lp()
        key = lp.content_key()
        assert lp.content_key() == key  # stable while unmutated
        assert knapsack_lp().content_key() == key  # content-based
        lp.update_constraint_indexed("cap", {0: 2.0, 1: 1.0, 2: 3.0},
                                     rhs=5.0)
        assert lp.content_key() != key


class TestSparseExport:
    def test_sparse_matches_dense(self):
        lp = knapsack_lp()
        a_ub, b_ub, a_eq, b_eq = lp.sparse_rows()
        d_ub, db_ub, d_eq, db_eq = lp.dense_rows()
        assert isinstance(a_ub, sparse.csr_array)
        np.testing.assert_array_equal(a_ub.toarray(), d_ub)
        np.testing.assert_array_equal(a_eq.toarray(), d_eq)
        np.testing.assert_array_equal(b_ub, db_ub)
        np.testing.assert_array_equal(b_eq, db_eq)

    def test_sparse_is_canonical_csr(self):
        lp = knapsack_lp()
        a_ub, _, a_eq, _ = lp.sparse_rows()
        ref_ub = sparse.csr_array(lp.dense_rows()[0])
        assert a_ub.indptr.tolist() == ref_ub.indptr.tolist()
        assert a_ub.indices.tolist() == ref_ub.indices.tolist()
        assert a_ub.data.tolist() == ref_ub.data.tolist()

    def test_export_cache_invalidated_by_edit(self):
        lp = knapsack_lp()
        first = lp.sparse_rows()
        assert lp.sparse_rows() is first  # cached while unmutated
        lp.update_constraint_indexed("cap", {0: 1.0}, rhs=2.0)
        second = lp.sparse_rows()
        assert second is not first
        assert second[0].toarray()[0, 0] == 1.0

    def test_empty_groups_have_column_width(self):
        lp = LinearProgram()
        lp.add_variables_bulk(["a", "b"], (0.0,) * 2, (1.0,) * 2,
                              (1.0,) * 2)
        lp.add_constraint_indexed({0: 1.0}, "<=", 1.0)
        a_ub, _, a_eq, b_eq = lp.sparse_rows()
        assert a_eq.shape == (0, 2)
        assert b_eq.size == 0


class TestUniformBounds:
    def test_shared_pair(self):
        lp = LinearProgram()
        lp.add_variables_bulk(["a", "b", "c"], (0.0,) * 3, (1.0,) * 3,
                              (0.0,) * 3)
        assert lp.uniform_bounds() == (0.0, 1.0)

    def test_disagreement_returns_none(self):
        lp = LinearProgram()
        lp.add_variable("a", low=0.0, high=1.0)
        lp.add_variable("b", low=0.0, high=math.inf)
        assert lp.uniform_bounds() is None

    def test_empty_model_returns_none(self):
        assert LinearProgram().uniform_bounds() is None

    def test_cache_tracks_edits(self):
        lp = LinearProgram()
        lp.add_variables_bulk(["a", "b"], (0.0,) * 2, (1.0,) * 2,
                              (0.0,) * 2)
        assert lp.uniform_bounds() == (0.0, 1.0)
        lp.set_variable_bounds("b", 0.0, 0.5)
        assert lp.uniform_bounds() is None
        lp.set_variable_bounds("b", 0.0, 1.0)
        assert lp.uniform_bounds() == (0.0, 1.0)


class TestCsrRows:
    """The bulk CSR row entry, and the per-row paths it must agree with."""

    def base(self) -> LinearProgram:
        lp = LinearProgram(name="csr")
        lp.add_variables_bulk(["a", "b", "c", "d"], (0.0,) * 4, (1.0,) * 4,
                              (1.0, 2.0, 3.0, 4.0))
        return lp

    def test_block_matches_per_row_adds(self):
        bulk = self.base()
        first = bulk.add_rows_csr([0, 2, 5], [0, 3, 1, 2, 3],
                                  [1.0, 2.0, 3.0, 4.0, 5.0], "<=",
                                  [6.0, 7.0], names=["r0", "r1"])
        assert first == 0
        single = self.base()
        single.add_constraint_indexed({0: 1.0, 3: 2.0}, "<=", 6.0,
                                      name="r0")
        single.add_constraint_indexed({1: 3.0, 2: 4.0, 3: 5.0}, "<=", 7.0,
                                      name="r1")
        assert bulk.content_key() == single.content_key()

    def test_rows_are_sorted_and_zeros_dropped(self):
        lp = self.base()
        lp.add_rows_csr([0, 3], [2, 0, 1], [3.0, 1.0, 0.0], "<=", 1.0)
        (con,) = lp.constraints
        assert list(con.coeffs.items()) == [(0, 1.0), (2, 3.0)]
        assert con.name == "c0"

    def test_repeated_column_rejected(self):
        lp = self.base()
        with pytest.raises(ConfigurationError):
            lp.add_rows_csr([0, 2], [1, 1], [1.0, 2.0], "<=", 1.0)

    def test_out_of_range_and_malformed_rejected(self):
        lp = self.base()
        with pytest.raises(ConfigurationError):
            lp.add_rows_csr([0, 1], [4], [1.0], "<=", 1.0)
        with pytest.raises(ConfigurationError):
            lp.add_rows_csr([0, 2], [0], [1.0], "<=", 1.0)
        with pytest.raises(ConfigurationError):
            lp.add_rows_csr([0, 1], [0], [1.0], "<=", [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            lp.add_rows_csr([0, 1], [0], [1.0], "<", 1.0)

    def test_empty_row_must_be_trivial(self):
        lp = self.base()
        lp.add_rows_csr([0, 0], [], [], "<=", 0.0)
        with pytest.raises(ConfigurationError):
            lp.add_rows_csr([0, 0], [], [], ">=", 1.0)

    def test_lazy_names_resolve_on_demand(self):
        calls = []

        def names():
            calls.append(1)
            return ["p", "q"]

        lp = LinearProgram()
        lp.add_variables_bulk(lambda: ["u", "v"], (0.0,) * 2, (1.0,) * 2,
                              (1.0, 1.0))
        lp.add_rows_csr([0, 1, 2], [0, 1], [1.0, 1.0], "<=", 1.0,
                        names=names)
        assert calls == []
        lp.update_constraint_indexed("q", {0: 2.0, 1: 1.0})
        assert calls == [1]
        assert lp.variable_names() == ["u", "v"]
        assert [c.name for c in lp.constraints] == ["p", "q"]
        assert lp.constraints[1].coeffs == {0: 2.0, 1: 1.0}

    def test_row_update_keeps_other_rows(self):
        lp = knapsack_lp()
        before = lp.constraints
        lp.update_constraint_indexed("floor", {0: 5.0, 1: 1.0, 2: 2.0,
                                               3: 1.0})
        after = lp.constraints
        assert after[0] == before[0] and after[2] == before[2]
        assert after[1].coeffs == {0: 5.0, 1: 1.0, 2: 2.0, 3: 1.0}
        assert after[1].sense == ">=" and after[1].rhs == 0.5

    def test_interleaved_edits_match_one_block(self):
        """Buffered rows, blocks and replacements fold in their order."""
        lp = self.base()
        lp.add_constraint_indexed({3: 1.0, 0: 2.0}, "<=", 1.0, name="r0")
        lp.add_rows_csr([0, 1, 3], [1, 0, 2], [1.0, 4.0, 5.0], "<=",
                        [2.0, 3.0], names=["r1", "r2"])
        lp.update_constraint_indexed("r0", {1: 6.0})
        assert lp.constraints[0].coeffs == {1: 6.0}
        lp.add_constraint({"c": 7.0, "d": 0.0}, ">=", -1.0, name="r3")
        lp.update_constraint_indexed("r3", {2: 8.0, 0: 9.0}, rhs=-2.0)
        lp.update_constraint_indexed("r3", {3: 1.5})
        lp.update_constraint("r1", rhs=2.5)
        lp.add_constraint_indexed({2: 3.0}, "==", 1.0, name="r4")

        ref = self.base()
        ref.add_rows_csr([0, 1, 2, 4], [1, 1, 0, 2], [6.0, 1.0, 4.0, 5.0],
                         "<=", [1.0, 2.5, 3.0], names=["r0", "r1", "r2"])
        ref.add_rows_csr([0, 1], [3], [1.5], ">=", -2.0, names=["r3"])
        ref.add_rows_csr([0, 1], [2], [3.0], "==", 1.0, names=["r4"])
        assert lp.constraints == ref.constraints
        assert lp.content_key() == ref.content_key()

    def test_returned_row_is_the_stored_row(self):
        lp = self.base()
        added = lp.add_constraint_indexed({2: 1.0, 0: 0.0, 1: 2.0}, "<=",
                                          3.0, name="r")
        updated = lp.update_constraint("r", {"d": 4.0, "a": 5.0})
        assert list(added.coeffs.items()) == [(1, 2.0), (2, 1.0)]
        assert list(updated.coeffs.items()) == [(0, 5.0), (3, 4.0)]
        assert lp.constraints == (updated,)

    def test_rejected_name_leaves_the_model_intact(self):
        lp = self.base()
        lp.add_constraint_indexed({0: 1.0}, "<=", 1.0, name="r0")
        with pytest.raises(ConfigurationError):
            lp.add_rows_csr([0, 1, 2], [1, 2], [1.0, 1.0], "<=", 1.0,
                            names=["fresh", "r0"])
        lp.add_constraint_indexed({1: 1.0}, "<=", 1.0, name="fresh")
        assert [c.name for c in lp.constraints] == ["r0", "fresh"]

    def test_block_is_copied_from_the_caller(self):
        lp = self.base()
        indices = np.array([0, 2])
        data = np.array([1.0, 2.0])
        lp.add_rows_csr([0, 2], indices, data, "<=", 1.0)
        indices[0], data[0] = 1, 9.0
        assert lp.constraints[0].coeffs == {0: 1.0, 2: 2.0}


class TestColumnValues:
    def test_reads_like_the_name_mapping(self):
        from repro.solver.model import ColumnValues

        lp = knapsack_lp()
        values = ColumnValues(lp, np.array([0.5, 0.0, 1.0, 0.25]))
        assert values == {"x0": 0.5, "x1": 0.0, "x2": 1.0, "x3": 0.25}
        assert values["x2"] == 1.0 and values.get("zz", -1.0) == -1.0
        assert list(values) == ["x0", "x1", "x2", "x3"]
        assert values.columns_id is lp.columns_id
        assert lp.objective_at(values.x) == lp.evaluate_objective(values)

    def test_survives_pickling(self):
        import pickle

        from repro.solver.model import ColumnValues

        lp = knapsack_lp()
        values = ColumnValues(lp, np.array([0.5, 0.0, 1.0, 0.25]))
        copy = pickle.loads(pickle.dumps(values))
        assert copy == values
