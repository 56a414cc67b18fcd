from fractions import Fraction

import pytest

from jshm.designs import design_matrix
from jshm.identity import (
    compare_pointwise,
    compare_symbolic,
    design_witness_check,
    numeric_side,
    symbolic_side,
)
from jshm.wilson import wilson_matrix

VERIFIED_PAIRS = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2), (5, 3)]


class TestCompareSymbolic:
    @pytest.mark.parametrize("k,t", VERIFIED_PAIRS)
    def test_design_matrix_equals_corrected_wilson(self, k, t):
        rep = compare_symbolic(k, t, "m", "omega_corrected")
        assert rep.equal
        assert all(f.is_zero() for f in rep.h)
        assert rep.witness is None

    @pytest.mark.parametrize("k,t", VERIFIED_PAIRS)
    def test_shifted_forms_equal_too(self, k, t):
        assert compare_symbolic(k, t, "m_plus_i", "nabla_corrected").equal

    def test_literal_variant_differs(self):
        rep = compare_symbolic(3, 2, "m", "omega_literal")
        assert not rep.equal
        assert rep.witness == (3, 7, Fraction(-1, 3))

    def test_self_comparison(self):
        left = symbolic_side("m", 3, 2)
        right = symbolic_side("m", 3, 2)
        assert all((a - b).is_zero() for a, b in zip(left, right))

    def test_identity_shift_is_detected(self):
        # adding I to only one side must break equality on class 0
        rep = compare_symbolic(3, 2, "m_plus_i", "omega_corrected")
        assert not rep.equal
        assert rep.witness is not None and rep.witness[0] == 0
        rep2 = compare_symbolic(3, 2, "m", "nabla_corrected")
        assert not rep2.equal and rep2.witness[0] == 0

    def test_witness_evaluates_nonzero(self):
        for (lhs, rhs) in [("m", "omega_literal"), ("m_plus_i", "omega_corrected"),
                           ("m", "nabla_corrected")]:
            rep = compare_symbolic(3, 2, lhs, rhs)
            assert not rep.equal
            r, n, value = rep.witness
            assert value != 0
            assert rep.h[r].evaluate(n) == value

    def test_degree_bound(self):
        for (k, t) in VERIFIED_PAIRS:
            rep = compare_symbolic(k, t, "m", "omega_literal")
            for f in rep.h:
                assert f.num.degree <= 2 * k

    def test_invalid_sides(self):
        with pytest.raises(ValueError):
            compare_symbolic(3, 2, "m", "omega_original")
        with pytest.raises(ValueError):
            compare_symbolic(3, 3, "m", "omega_corrected")

    def test_report_json(self):
        doc = compare_symbolic(3, 2, "m", "omega_literal").to_dict()
        assert doc["equal"] is False
        assert doc["witness"] == {"r": 3, "n": 7, "value": "-1/3"}
        assert len(doc["h"]) == 4
        assert doc["h"][0] == "0"


class TestComparePointwise:
    def test_corrected_over_range(self):
        rep = compare_pointwise(3, 2, "m", "omega_corrected", 7, 20)
        assert rep.equal
        assert rep.points_checked == 14 >= rep.threshold == 7
        assert rep.points_equal == 14
        assert rep.to_dict()["skipped_poles"] == []

    def test_literal_first_failure(self):
        rep = compare_pointwise(3, 2, "m", "omega_literal", 7, 20)
        assert not rep.equal
        assert rep.first_failure[0] == 7
        assert rep.first_failure[1] == 3
        # h_3(7) = lhs - rhs = 0 - 1/3
        assert rep.first_failure[2] - rep.first_failure[3] == Fraction(-1, 3)

    def test_four_two_full_pipeline(self):
        assert compare_pointwise(4, 2, "m", "omega_corrected", 9, 25).equal

    @pytest.mark.parametrize("k,t", VERIFIED_PAIRS)
    def test_agrees_with_symbolic_on_minimal_range(self, k, t):
        rep = compare_pointwise(k, t, "m", "omega_corrected", 2 * k, 4 * k)
        assert rep.equal == compare_symbolic(k, t, "m", "omega_corrected").equal

    def test_range_preconditions(self):
        with pytest.raises(ValueError, match="2k"):
            compare_pointwise(3, 2, "m", "omega_corrected", 5, 20)
        with pytest.raises(ValueError, match="2k"):
            compare_pointwise(3, 2, "m", "omega_corrected", 6, 8)


class TestNumericSides:
    def test_sides_at_sample_point(self):
        n, k, t = 9, 3, 2
        assert numeric_side("m", n, k, t).coeffs == design_matrix(n, k, t).coeffs
        assert numeric_side("omega_corrected", n, k, t).coeffs == \
            wilson_matrix(n, k, t, "corrected").coeffs
        mi = numeric_side("m_plus_i", n, k, t)
        assert mi.coeffs[0] == design_matrix(n, k, t).coeffs[0] + 1


class TestDesignWitness:
    def test_triple_systems(self):
        rep = design_witness_check(3, 2, [7, 8, 9])
        by_n = {p.n: p for p in rep.points}
        assert by_n[7].status == "verified"
        assert by_n[8].status == "inadmissible"
        assert by_n[9].status == "verified"
        assert rep.all_conclusive_verified

    def test_quadruple_system(self):
        rep = design_witness_check(4, 3, [8])
        assert rep.points[0].status == "verified"

    def test_budget_marks_unverified(self):
        rep = design_witness_check(3, 2, [9], budget=2)
        assert rep.points[0].status == "unverified"

    def test_small_n_inadmissible(self):
        rep = design_witness_check(3, 2, [4])
        assert rep.points[0].status == "inadmissible"
