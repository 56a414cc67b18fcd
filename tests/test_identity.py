import hashlib
import json
from fractions import Fraction

import pytest

from jshm import designs, identity, wilson
from jshm.designs import design_matrix
from jshm.exact import binom
from jshm.identity import (
    LHS_CHOICES,
    MAX_POINTWISE_POINTS,
    MAX_SYMBOLIC_K,
    RHS_CHOICES,
    PointwiseFailure,
    PointwiseReport,
    compare_pointwise,
    compare_symbolic,
    design_witness_check,
    symbolic_side,
)
from jshm.johnson import MAX_TABLE_N, SelfCheckError, SizeBudgetError, plus_identity, w_to_a
from jshm.qnu import NU, RationalFunction, binom_rf, rf_to_str
from jshm.wilson import VARIANTS, certificate_matrix, wilson_matrix

# sha256 of json.dumps([compare_symbolic(k, t, lhs, rhs).to_dict() ...],
# sort_keys=True) over 2 <= k <= 7, 1 <= t < k, LHS_CHOICES x RHS_CHOICES,
# recorded before the rational-function fast paths and the side memo
SYMBOLIC_REPORTS_SHA256 = "22d47eb39ce93e18c7b08a8194fb49856ccc20ec2286790e1c90654a53670729"
# the same over 8 <= k <= 12, where the intermediates of a remainder sequence
# over Z and of Euclid over Q differ most; recorded with Euclid over Q
LARGE_K_SYMBOLIC_REPORTS_SHA256 = (
    "ff5af8571644a45b8ff9b2ce88aa34309e9cc530524215a7bad30039dae5ea9a")
# sha256 (first 16 hex digits) of json.dumps of the rf_to_str texts of the
# sides M, literal Omega and corrected Omega over k in (16, 20, 24), all t;
# recorded with each of num and den a Polynomial over its own denominator
LARGEST_K_SIDES_SHA256 = "5d67b622797d314e"

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

    def test_witness_scan_is_the_degree_count(self):
        # zeros at 7 and 8 and a pole at 9 fill the first deg num + deg den
        # sizes from 2k+1 = 7, so the witness is the last size scanned
        f = (NU - 7) * (NU - 8) / (NU - 9)
        assert identity._sample_nonzero(f, 3) == (10, Fraction(6))
        with pytest.raises(SelfCheckError, match="no witness point"):
            identity._sample_nonzero(f - f, 3)

    def test_degree_bound(self):
        for (k, t) in VERIFIED_PAIRS:
            rep = compare_symbolic(k, t, "m", "omega_literal")
            for f in rep.h:
                assert len(f.num) - 1 <= 2 * k

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


def _symbolic_reports_digest(ks) -> str:
    docs = [compare_symbolic(k, t, lhs, rhs).to_dict()
            for k in ks for t in range(1, k)
            for lhs in LHS_CHOICES for rhs in RHS_CHOICES]
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


class TestSymbolicSides:
    def test_reports_are_pinned(self):
        assert _symbolic_reports_digest(range(2, 8)) == SYMBOLIC_REPORTS_SHA256

    def test_large_k_reports_are_pinned(self):
        assert _symbolic_reports_digest(range(8, 13)) == LARGE_K_SYMBOLIC_REPORTS_SHA256

    def test_largest_k_sides_are_pinned(self):
        docs = [[rf_to_str(f) for f in symbolic_side(side, k, t)]
                for k in (16, 20, 24) for t in range(1, k)
                for side in ("m", "omega_literal", "omega_corrected")]
        digest = hashlib.sha256(json.dumps(docs).encode()).hexdigest()[:16]
        assert digest == LARGEST_K_SIDES_SHA256

    @pytest.mark.parametrize("get", [
        lambda: symbolic_side("m", 4, 2),
        lambda: symbolic_side("m_plus_i", 4, 2),
        lambda: symbolic_side("omega_literal", 4, 2),
        lambda: symbolic_side("nabla_corrected", 4, 2),
        lambda: symbolic_side("omega_corrected", 4, 2),
        lambda: symbolic_side("m", 5, 3),
    ])
    def test_returned_list_is_fresh(self, get):
        first = get()
        expected = list(first)
        first[0] = NU
        first.append(NU)
        assert get() == expected

    def test_each_side_is_built_once(self, monkeypatch):
        # one build per formula, M and the two Omegas, each over one Z[nu]
        # provider, and one difference M - Omega per variant; the six side
        # pairs and the pointwise sweep build nothing more
        providers = []
        zpoly = identity.binom_zpoly
        monkeypatch.setattr(identity, "binom_zpoly", lambda k: providers.append(k) or zpoly(k))
        identity._symbolic_coeffs.cache_clear()
        identity._difference.cache_clear()
        for lhs in LHS_CHOICES:
            for rhs in RHS_CHOICES:
                compare_symbolic(5, 2, lhs, rhs)
        compare_pointwise(5, 2, "m", "omega_literal", 10, 22)
        assert identity._symbolic_coeffs.cache_info().misses == 3
        assert identity._difference.cache_info().misses == 2
        assert providers == [5, 5, 5]

    @pytest.mark.parametrize("k", range(2, 9))
    def test_shared_difference_matches_direct_subtraction(self, k):
        # each report reads one memoised M - Omega and adjusts A_0 for I; the
        # reference subtracts the two sides afresh and samples its own witness
        for t in range(1, k):
            for lhs in LHS_CHOICES:
                for rhs in RHS_CHOICES:
                    h = tuple(a - b for a, b in zip(symbolic_side(lhs, k, t),
                                                    symbolic_side(rhs, k, t)))
                    witness = None
                    for r, f in enumerate(h):
                        if not f.is_zero():
                            n = next(n for n in range(2 * k + 1, 8 * k)
                                     if _horner(f.den, n) and _horner(f.num, n))
                            witness = (r, n, f.evaluate(n))
                            break
                    rep = compare_symbolic(k, t, lhs, rhs)
                    assert vars(rep) == {
                        "k": k, "t": t, "lhs": lhs, "rhs": rhs, "h": h,
                        "equal": witness is None, "witness": witness}, (k, t, lhs, rhs)

    @pytest.mark.parametrize("k", [16, 20, MAX_SYMBOLIC_K])
    def test_m_equals_omega_at_large_k(self, k):
        # the digests stop at k = 12; M = Omega for every t up to the bound
        assert all(compare_symbolic(k, t, "m", "omega_corrected").equal
                   for t in range(1, k))

    @pytest.mark.parametrize("k", range(2, 17))
    def test_one_denominator_matches_term_by_term(self, k):
        # the sides reduce each coefficient once over one denominator; the
        # reference adds Omega's terms s / C(nu+h, k-t) and divides M's
        # excess numerators by C(nu-k, r) E C(k, r) in Q(nu), one reduction
        # per operation
        for t in range(1, k):
            assert symbolic_side("m", k, t) == _term_by_term_m(k, t), (k, t)
            for variant in VARIANTS:
                assert symbolic_side(f"omega_{variant}", k, t) == \
                    _term_by_term_omega(k, t, variant), (k, t, variant)

    def test_k_bound(self):
        assert compare_symbolic(MAX_SYMBOLIC_K, 1, "m", "omega_corrected").equal
        with pytest.raises(SizeBudgetError):
            compare_symbolic(MAX_SYMBOLIC_K + 1, 2, "m", "omega_corrected")
        with pytest.raises(SizeBudgetError):
            symbolic_side("m", 60, 30)


def _horner(c, n):
    return sum(x * n ** i for i, x in enumerate(c))


def _term_by_term_omega(k, t, variant):
    """Omega(nu,k,t) as the sum of its terms s / C(nu+h, k-t) times W_a in Q(nu)."""
    w = [0] * (k + 1)
    for s, h, a in wilson._omega_terms(k, t, variant):
        w[a] = s / binom_rf(h, k - t)
    return w_to_a(w)


def _term_by_term_m(k, t):
    """M(nu,k,t) as g_(k-r) / (C(nu-k, r) E C(k, r)) in Q(nu), over binom_rf."""
    e, _, g = designs._excess_numerators(binom_rf, k, t)
    return [RationalFunction.const(0)] * (k - t) + [
        g[k - r] / (binom_rf(-k, r) * (e * binom(k, r))) for r in range(k - t, k + 1)]


# side -> its Fraction coefficients at size n, from the numeric matrices
FRACTION_SIDES = {
    "m": lambda n, k, t: design_matrix(n, k, t).coeffs,
    "m_plus_i": lambda n, k, t: tuple(plus_identity(design_matrix(n, k, t).coeffs)),
    "omega_literal": lambda n, k, t: wilson_matrix(n, k, t, "literal").coeffs,
    "omega_corrected": lambda n, k, t: wilson_matrix(n, k, t, "corrected").coeffs,
    "nabla_corrected": lambda n, k, t: certificate_matrix(n, k, t, "corrected").coeffs,
}


def _fraction_pointwise(k, t, lhs, rhs, n_from, n_to) -> PointwiseReport:
    """compare_pointwise's report from the Fraction coefficients of the
    numeric matrices."""
    equal_count, failure = 0, None
    for n in range(n_from, n_to + 1):
        left, right = FRACTION_SIDES[lhs](n, k, t), FRACTION_SIDES[rhs](n, k, t)
        if left == right:
            equal_count += 1
        elif failure is None:
            r = next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)
            failure = PointwiseFailure(n, r, left[r], right[r])
    return PointwiseReport(
        k=k, t=t, lhs=lhs, rhs=rhs, n_from=n_from, n_to=n_to,
        points_checked=n_to - n_from + 1, points_equal=equal_count,
        first_failure=failure, equal=failure is None, threshold=2 * k + 1, skipped_poles=())


class TestComparePointwise:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_integers_match_fractions(self, k):
        # cross-multiplied integer numerators against Fractions of the numeric
        # sides: the whole document, first failure's values included
        for t in range(1, k):
            for lhs in LHS_CHOICES:
                for rhs in RHS_CHOICES:
                    got = compare_pointwise(k, t, lhs, rhs, 2 * k, 4 * k + 2).to_dict()
                    want = _fraction_pointwise(k, t, lhs, rhs, 2 * k, 4 * k + 2).to_dict()
                    assert got == want, (k, t, lhs, rhs)

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

    def test_size_bounds(self):
        k = MAX_SYMBOLIC_K + 1
        with pytest.raises(SizeBudgetError):
            compare_pointwise(k, 2, "m", "omega_corrected", 2 * k, 4 * k + 2)
        with pytest.raises(SizeBudgetError):
            compare_pointwise(3, 2, "m", "omega_corrected", 7, 7 + MAX_POINTWISE_POINTS)
        assert compare_pointwise(3, 2, "m", "omega_corrected",
                                 7, 6 + MAX_POINTWISE_POINTS).equal
        with pytest.raises(SizeBudgetError):
            compare_pointwise(3, 2, "m", "omega_corrected", MAX_TABLE_N - 10, MAX_TABLE_N)
        top = compare_pointwise(3, 2, "m", "omega_corrected",
                                MAX_TABLE_N - 10, MAX_TABLE_N - 1)
        assert top.equal and top.points_equal == 10


class TestNumericSides:
    def test_sides_at_sample_point(self):
        # the pointwise sweep's integer pairs are the numeric matrices
        n, k, t = 9, 3, 2
        assert set(FRACTION_SIDES) == set(LHS_CHOICES + RHS_CHOICES)
        for name, side in FRACTION_SIDES.items():
            pairs = identity._side_numerators(name, n, k, t)
            assert tuple(Fraction(a, b) for a, b in pairs) == side(n, k, t), name
        assert FRACTION_SIDES["m_plus_i"](n, k, t)[0] == design_matrix(n, k, t).coeffs[0] + 1


class TestDesignWitness:
    def test_triple_systems(self):
        rep = design_witness_check(3, 2, [7, 8, 9])
        by_n = {p.n: p for p in rep.points}
        assert by_n[7].status == "verified"
        assert by_n[8].status == "inadmissible"
        assert by_n[9].status == "verified"

    def test_quadruple_system(self):
        rep = design_witness_check(4, 3, [8])
        assert rep.points[0].status == "verified"

    def test_budget_marks_unverified(self):
        rep = design_witness_check(3, 2, [9], budget=2)
        assert rep.points[0].status == "unverified"

    def test_small_n_inadmissible(self):
        rep = design_witness_check(3, 2, [4])
        assert rep.points[0].status == "inadmissible"
