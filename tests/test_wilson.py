import json
import math
from fractions import Fraction
from itertools import combinations

import pytest

from jshm import johnson, projection, wilson
from jshm.designs import as_design, partition_design
from jshm.exact import binom, binom_at_int
from jshm.identity import symbolic_side
from jshm.johnson import (
    MAX_TABLE_K,
    MAX_TABLE_N,
    SchemeParams,
    SelfCheckError,
    SizeBudgetError,
    all_ones_vector,
    basis_vector,
    lemma_eigenvalue,
    lemma_spectrum,
    multiplicities,
    schur,
)
from jshm.oracles import (
    disjointness_matrix,
    float_spectrum,
    inclusion_matrix,
    mat_mul,
    mat_transpose,
)
from jshm.projection import project_family
from jshm.qnu import binom_rf
from jshm.subsets import make_family, star_family
from jshm.wilson import (
    VARIANTS,
    bound_from_design,
    certificate_matrix,
    clique_coclique,
    ekr_certificate,
    sum_trace_ratio,
    support_ok,
    wilson_matrix,
)

from conftest import STS9_BLOCKS, eberlein_spectrum, w_basis


def certificate_grid():
    """1 <= t < k <= 5, max((t+1)(k-t+1), 2k) <= n <= 14."""
    for k in range(2, 6):
        for t in range(1, k):
            for n in range(max((t + 1) * (k - t + 1), 2 * k), 15):
                yield n, k, t


class TestWilsonMatrix:
    def test_strength_one_both_variants(self):
        for k in range(2, 6):
            for n in range(2 * k, 15):
                p = SchemeParams(n, k)
                lit = wilson_matrix(n, k, 1, "literal")
                cor = wilson_matrix(n, k, 1, "corrected")
                assert lit.coeffs == basis_vector(p, k).scale(
                    Fraction(1, binom(n - k, k - 1))).coeffs
                assert cor.coeffs == basis_vector(p, k).scale(
                    Fraction(1, binom(n - k - 1, k - 1))).coeffs

    def test_example_literal(self):
        assert wilson_matrix(7, 3, 2, "literal").coeffs == (
            0, 0, Fraction(1, 3), Fraction(1, 3))

    def test_example_corrected(self):
        assert wilson_matrix(7, 3, 2, "corrected").coeffs == (
            0, 0, Fraction(1, 3), 0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            wilson_matrix(7, 3, 2, "original")

    def test_table_bound(self):
        for n, k, t in [(10**7, 10**6, 10**6 - 1), (1000, MAX_TABLE_K + 1, 2),
                        (MAX_TABLE_N, 3, 2)]:
            with pytest.raises(SizeBudgetError):
                wilson_matrix(n, k, t)
        top = wilson_matrix(MAX_TABLE_N - 1, MAX_TABLE_K, MAX_TABLE_K - 1)
        assert top.params == SchemeParams(MAX_TABLE_N - 1, MAX_TABLE_K)

    def test_symbolic_matches_numeric(self):
        # one transcription of Omega over two providers: binom_zpoly(k),
        # reduced in Q(nu), and binom_at_int(n) at each size: every t, both
        # variants, every 2k <= n <= 25 for k <= 8, and three sizes each for
        # k = 12, 16, 24
        for k in [*range(2, 9), 12, 16, 24]:
            sizes = range(2 * k, 26) if k <= 8 else (2 * k, 3 * k + 1, 10**6 + 7)
            for t in range(1, k + 1):
                for variant in VARIANTS:
                    sym = symbolic_side(f"omega_{variant}", k, t)
                    for n in sizes:
                        want = tuple(f.evaluate(n) for f in sym)
                        assert wilson_matrix(n, k, t, variant).coeffs == want, (n, k, t)
                        if t < k:
                            assert ekr_certificate(n, k, t, variant).coeffs == (
                                want[0] + 1, *want[1:]), (n, k, t, variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_common_denominator_is_positive_and_common(self, variant):
        # the certificate's PSD verdict and argmin read signs of integers
        # over D, so D > 0 at every admitted size; D must be a multiple of
        # the lcm of the terms' C(n+h, k-t), computed here from the terms,
        # and each w_a must be s D / C(n+h, k-t) exactly
        for k in range(1, MAX_TABLE_K + 1):
            for n in (2 * k, 2 * k + 1, 10**6 + 7):
                for t in range(1, k + 1):
                    terms = [(s, binom(n + h, k - t), a)
                             for s, h, a in wilson._omega_terms(k, t, variant)]
                    lcm = math.lcm(*(d for _, d, _ in terms))
                    den, w = wilson._omega_numerators(binom_at_int(n), k, t, variant)
                    assert den > 0 and den % lcm == 0, (n, k, t)
                    assert all(w[a] * d == s * den for s, d, a in terms), (n, k, t)


class TestCertificateMatrix:
    def test_seven_three_two(self):
        assert certificate_matrix(7, 3, 2).coeffs == (
            1, 0, Fraction(1, 3), 0)

    def test_nine_three_two(self):
        assert certificate_matrix(9, 3, 2).coeffs == (
            1, 0, Fraction(1, 5), Fraction(1, 10))

    def test_strength_one(self):
        for k in range(2, 5):
            for n in range(2 * k, 13):
                p = SchemeParams(n, k)
                got = certificate_matrix(n, k, 1)
                expected = basis_vector(p, 0) + basis_vector(p, k).scale(
                    Fraction(1, binom(n - k - 1, k - 1)))
                assert got.coeffs == expected.coeffs


class TestSupportCheck:
    def test_corrected_omega(self):
        assert support_ok(wilson_matrix(7, 3, 2, "corrected"), 2)

    def test_first_class_violates(self):
        assert not support_ok(basis_vector(SchemeParams(7, 3), 1), 2)

    def test_empty_condition_at_t_equals_k(self):
        assert support_ok(all_ones_vector(SchemeParams(7, 3)), 3)

    def test_grid(self):
        for (n, k, t) in certificate_grid():
            assert support_ok(wilson_matrix(n, k, t, "corrected"), t), (n, k, t)


class TestRatio:
    def test_seven_three_two(self):
        v = certificate_matrix(7, 3, 2)
        assert sum_trace_ratio(v) == 7 == Fraction(binom(7, 2), binom(3, 2))

    def test_identity(self):
        assert sum_trace_ratio(basis_vector(SchemeParams(7, 3), 0)) == 1

    def test_strength_one_closed_form(self):
        for k in range(2, 6):
            for n in range(2 * k, 15):
                got = sum_trace_ratio(certificate_matrix(n, k, 1))
                assert got == Fraction(n, k)

    def test_zero_trace_rejected(self):
        p = SchemeParams(7, 3)
        with pytest.raises(ZeroDivisionError):
            sum_trace_ratio(basis_vector(p, 2))

    def test_alternative_target_rejected(self):
        # the certificate ratio is C(n,t)/C(k,t); the variant with
        # denominator C(n-t,k-t) gives a different number already at (7,3,2)
        got = sum_trace_ratio(certificate_matrix(7, 3, 2))
        assert got == Fraction(binom(7, 2), binom(3, 2))
        assert got != Fraction(binom(7, 2), binom(5, 1))

    def test_grid_target(self):
        for (n, k, t) in certificate_grid():
            got = sum_trace_ratio(certificate_matrix(n, k, t))
            assert got == Fraction(binom(n, t), binom(k, t)), (n, k, t)


class TestCliqueCoclique:
    def test_star_against_certificate_is_tight(self):
        star = project_family(star_family(7, 3, (1, 2)))
        rep = clique_coclique(star, certificate_matrix(7, 3, 2))
        assert rep.applicable and rep.holds and rep.tight
        assert rep.product == 35 == binom(7, 3)

    def test_identity_pair(self):
        p = SchemeParams(7, 3)
        rep = clique_coclique(basis_vector(p, 0), basis_vector(p, 0))
        assert rep.applicable and rep.holds and not rep.tight
        assert rep.product == 1

    def test_all_ones_pair_not_applicable(self):
        p = SchemeParams(7, 3)
        rep = clique_coclique(all_ones_vector(p), all_ones_vector(p))
        assert not rep.schur_multiple_of_identity
        assert not rep.applicable
        assert rep.product is None and rep.holds is None

    def test_star_product_tight_over_grid(self):
        for (n, k, t) in certificate_grid():
            star = project_family(star_family(n, k, tuple(range(1, t + 1))))
            rep = clique_coclique(star, certificate_matrix(n, k, t))
            assert rep.applicable and rep.tight, (n, k, t)
            assert rep.product == binom(n, k)

    def test_schur_premise_from_disjoint_supports(self):
        for (n, k, t) in [(7, 3, 1), (7, 3, 2), (8, 4, 2), (8, 4, 3), (10, 4, 2)]:
            star = project_family(star_family(n, k, tuple(range(1, t + 1))))
            omega = wilson_matrix(n, k, t, "corrected")
            assert all(c == 0 for c in schur(star, omega).coeffs), (n, k, t)
            nabla = certificate_matrix(n, k, t)
            prod = schur(star, nabla)
            assert all(c == 0 for c in prod.coeffs[1:])
            assert prod.coeffs[0] == star.coeffs[0]

    def test_pinned_documents(self):
        # keys sorted, as the hand-written to_dict gave them before exact.to_json
        below = clique_coclique(certificate_matrix(8, 4, 2),
                                project_family(star_family(8, 4, (1, 2))))
        assert json.dumps(below.to_dict(), sort_keys=True) == (
            '{"applicable": false, "holds": null, "order": 70, "product": null, '
            '"psd_first": false, "psd_second": true, "schur_gamma": "3/14", '
            '"schur_multiple_of_identity": true, "tight": null}')
        tight = clique_coclique(certificate_matrix(7, 3, 2),
                                project_family(star_family(7, 3, (1, 2))))
        assert json.dumps(tight.to_dict(), sort_keys=True) == (
            '{"applicable": true, "holds": true, "order": 35, "product": "35", '
            '"psd_first": true, "psd_second": true, "schur_gamma": "1/7", '
            '"schur_multiple_of_identity": true, "tight": true}')


def integers_at(n):
    """The integer binomial provider at size n: (shift, b) -> C(n + shift, b)."""
    return lambda shift, b: binom(n + shift, b)


class TestWilsonLemma:
    """W_a's eigenvalue on V_j, (-1)^j C(k-j, a-j) C(n-a-j, k-j), the one
    spectral route of johnson; the Eberlein table of oracles is its oracle."""

    def test_against_the_eigenvalue_table(self):
        for n in range(2, 23):
            for k in range(1, n // 2 + 1):
                p = SchemeParams(n, k)
                for a in range(k + 1):
                    table = eberlein_spectrum(w_basis(a, p))
                    assert tuple(lemma_eigenvalue(integers_at(n), k, a, j)
                                 for j in range(k + 1)) == table, (n, k, a)

    def test_against_the_dense_product(self):
        # W_a is transpose(inclusion) * disjointness (test_dense_product_orientation)
        for (n, k) in [(7, 3), (8, 4)]:
            p = SchemeParams(n, k)
            m = multiplicities(n, k)
            for a in range(k + 1):
                prod = mat_mul(mat_transpose(inclusion_matrix(a, p)),
                               disjointness_matrix(a, p))
                want = sorted((lemma_eigenvalue(integers_at(n), k, a, j)
                               for j in range(k + 1) for _ in range(m[j])), reverse=True)
                got = float_spectrum(prod)
                assert len(got) == len(want) == p.order
                assert all(abs(x - y) < 1e-8 for x, y in zip(got, want)), (n, k, a)


# table-corner points, beyond any grid the dense or counted oracles reach
CORNERS = [(1000, 40, 20), (10**6, 64, 30), (200, 64, 32),
           (MAX_TABLE_N - 1, MAX_TABLE_K, 32), (MAX_TABLE_N - 1, MAX_TABLE_K, 63)]


class TestCertificateSpectrum:
    """ekr_certificate takes its spectrum from Wilson's lemma; the Eberlein
    table of oracles is its oracle."""

    def test_grid_against_the_table(self):
        for k in range(2, 9):
            for n in range(2 * k, 26):
                for t in range(1, k):
                    for variant in VARIANTS:
                        cert = ekr_certificate(n, k, t, variant)
                        assert cert.spectrum == eberlein_spectrum(
                            certificate_matrix(n, k, t, variant)), (n, k, t, variant)

    @pytest.mark.parametrize("n,k,t", CORNERS)
    def test_corner_against_the_table(self, n, k, t):
        for variant in VARIANTS:
            cert = ekr_certificate(n, k, t, variant)
            assert cert.spectrum == eberlein_spectrum(certificate_matrix(n, k, t, variant))

    def test_symbolic_route(self):
        # theta_j of I + Omega(nu,k,t) over Q(nu): Omega's W coefficients
        # s / C(nu+h, k-t), then the route over binom_rf, at three sizes each
        for k in range(2, 9):
            for t in range(1, k):
                for variant in VARIANTS:
                    w = [0] * (k + 1)
                    for s, h, a in wilson._omega_terms(k, t, variant):
                        w[a] = s / binom_rf(h, k - t)
                    theta = [1 + x for x in lemma_spectrum(binom_rf, w, k)]
                    for n in (2 * k, 2 * k + 3, 10**6 + 7):
                        cert = ekr_certificate(n, k, t, variant)
                        assert tuple(x.evaluate(n) for x in theta) == cert.spectrum, (
                            n, k, t, variant)

    @pytest.mark.parametrize("j", range(5))
    def test_a_wrong_lemma_eigenvalue_is_caught(self, j, monkeypatch):
        # off by one for W_k (the term i = 0, present for every t) on V_j alone
        lemma = johnson.lemma_eigenvalue
        monkeypatch.setattr(johnson, "lemma_eigenvalue", lambda binom_at, k, a, i:
                            lemma(binom_at, k, a, i) + (a == k and i == j))
        with pytest.raises(SelfCheckError):
            ekr_certificate(12, 4, 2)

    def test_a_wrong_ratio_is_caught(self, monkeypatch):
        # theta_0 of I + Omega is its entry-sum/trace ratio, read over D as
        # the row sum of D * (I + Omega)
        row = wilson.row_sum
        monkeypatch.setattr(wilson, "row_sum", lambda v: row(v) + 1)
        with pytest.raises(SelfCheckError):
            ekr_certificate(12, 4, 2)

    def test_a_wrong_identity_numerator_is_caught(self, monkeypatch):
        # the trace is read from the A_0 numerator of D * (I + Omega), so a
        # numerator off by one there misses the spectrum's trace
        to_a = wilson.w_to_a
        monkeypatch.setattr(wilson, "w_to_a", lambda w: [to_a(w)[0] + 1, *to_a(w)[1:]])
        with pytest.raises(SelfCheckError, match="trace"):
            ekr_certificate(12, 4, 2)

    @pytest.mark.parametrize("a", [4, 3, 2, None])
    def test_a_wrong_common_denominator_is_caught(self, a, monkeypatch):
        # w_a = s D / d off by one on one term (D itself when a is None).
        # The result is still an element of the algebra, and for every
        # integer w its spectrum gives its trace and its theta_0 is its row
        # sum, so neither self-check can see the error; the ratio test does
        numerators = wilson._omega_numerators

        def mutant(binom_at, k, t, variant):
            den, w = numerators(binom_at, k, t, variant)
            if a is None:
                return den + 1, w
            w[a] += 1
            return den, w

        assert ekr_certificate(12, 4, 3).valid
        monkeypatch.setattr(wilson, "_omega_numerators", mutant)
        cert = ekr_certificate(12, 4, 3)
        assert not cert.ratio_ok and not cert.valid


class TestEKRCertificate:
    def test_desk_scale(self):
        cert = ekr_certificate(7, 3, 2)
        assert cert.valid and cert.bound == 5

    def test_strength_one(self):
        cert = ekr_certificate(8, 3, 1)
        assert cert.valid and cert.bound == 21

    def test_boundary_case(self):
        cert = ekr_certificate(6, 3, 2)
        assert cert.valid
        assert cert.min_eigenvalue == 0
        assert cert.bound == 4

    def test_grid_psd_support_ratio(self):
        for (n, k, t) in certificate_grid():
            cert = ekr_certificate(n, k, t)
            assert cert.valid, (n, k, t)
            assert cert.psd and cert.min_eigenvalue >= 0
            if t == 1:
                assert cert.min_eigenvalue == 0, (n, k)

    def test_below_regime_reports_failure(self):
        cert = ekr_certificate(8, 4, 2)
        assert not cert.regime_ok
        assert not cert.psd and cert.min_eigenvalue < 0
        assert not cert.valid
        assert any("out of regime" in note for note in cert.notes)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ekr_certificate(7, 3, 3)  # t = k
        with pytest.raises(ValueError):
            ekr_certificate(5, 3, 1)  # k > n-k

    def test_json_shape(self):
        doc = ekr_certificate(7, 3, 2).to_dict()
        for key in ("n", "k", "t", "valid", "regime_ok", "bound", "ratio",
                    "min_eigenvalue", "spectrum", "notes"):
            assert key in doc
        assert doc["ratio"] == "7"
        assert doc["spectrum"][0] == "7"


class TestBoundFromDesign:
    def test_fano_star_tight(self, fano_design):
        star = star_family(7, 3, (1, 2))
        rep = bound_from_design(fano_design, star)
        assert rep.premises_ok
        assert rep.bound == 5 and rep.family_size == 5
        assert rep.within_bound and rep.tight
        assert rep.clique_coclique.tight

    def test_fano_single_line(self, fano_design):
        rep = bound_from_design(fano_design, make_family(7, 3, [[1, 2, 3]]))
        assert rep.premises_ok
        assert rep.family_size == 1 and rep.bound == 5
        assert rep.within_bound and not rep.tight

    def test_sts9_star_tight(self, sts9_design):
        rep = bound_from_design(sts9_design, star_family(9, 3, (1, 2)))
        assert rep.premises_ok and rep.bound == 7 and rep.tight

    def test_complete_design_beyond_half(self):
        # all 3-subsets of 5 points are a Steiner 3-(5,3,1) system, and 2k > n
        design = as_design(make_family(5, 3, list(combinations(range(1, 6), 3))), 3)
        assert design.lam == 1
        rep = bound_from_design(design, make_family(5, 3, [[1, 2, 3]]))
        assert rep.premises_ok and rep.bound == 1
        assert rep.within_bound and rep.tight
        assert rep.clique_coclique.tight

    def test_non_intersecting_family_diagnosed(self, fano_design):
        fam = make_family(7, 3, [[1, 2, 3], [4, 5, 6]])
        rep = bound_from_design(fano_design, fam)
        assert not rep.premises_ok
        assert "intersecting" in rep.detail

    def test_non_steiner_design_diagnosed(self, sts9):
        doubled = as_design(sts9, 1)
        # a 2-(9,3,1) is 1-(9,3,4): lambda != 1 is rejected as premise
        assert doubled.lam == 4
        rep = bound_from_design(doubled, star_family(9, 3, (1,)))
        assert not rep.premises_ok

    def test_family_projected_once(self, fano_design, monkeypatch):
        calls = []
        counted = projection.pair_distribution

        def counting(fam):
            calls.append(fam)
            return counted(fam)

        monkeypatch.setattr(projection, "pair_distribution", counting)
        doc = bound_from_design(fano_design, star_family(7, 3, (1, 2))).to_dict()
        assert len(calls) == 2  # the family and the design
        assert json.dumps(doc, sort_keys=True) == self.PINNED_DOCS["fano star"]

    # case -> the report document, keys sorted, as the hand-written to_dict
    # methods gave it before exact.to_json
    PINNED_DOCS = {
        "fano star": '{"bound": 5, "clique_coclique": {"applicable": true, "holds": true, "order": 35, "product": "35", "psd_first": true, "psd_second": true, "schur_gamma": "1/7", "schur_multiple_of_identity": true, "tight": true}, "detail": "ok", "family_size": 5, "k": 3, "n": 7, "premises_ok": true, "t": 2, "tight": true, "within_bound": true}',
        "fano line": '{"bound": 5, "clique_coclique": {"applicable": true, "holds": true, "order": 35, "product": "7", "psd_first": true, "psd_second": true, "schur_gamma": "1/35", "schur_multiple_of_identity": true, "tight": false}, "detail": "ok", "family_size": 1, "k": 3, "n": 7, "premises_ok": true, "t": 2, "tight": false, "within_bound": true}',
        "fano disjoint": '{"bound": 5, "clique_coclique": null, "detail": "family is not 2-intersecting: blocks [1, 2, 3] and [4, 5, 6] meet in too few points", "family_size": 2, "k": 3, "n": 7, "premises_ok": false, "t": 2, "tight": null, "within_bound": null}',
        "fano mismatch": '{"bound": 5, "clique_coclique": null, "detail": "family parameters do not match the design", "family_size": 6, "k": 3, "n": 7, "premises_ok": false, "t": 2, "tight": null, "within_bound": null}',
        "sts9 star": '{"bound": 7, "clique_coclique": {"applicable": true, "holds": true, "order": 84, "product": "84", "psd_first": true, "psd_second": true, "schur_gamma": "1/12", "schur_multiple_of_identity": true, "tight": true}, "detail": "ok", "family_size": 7, "k": 3, "n": 9, "premises_ok": true, "t": 2, "tight": true, "within_bound": true}',
        "sts9 as 1-design": '{"bound": 28, "clique_coclique": null, "detail": "design is not a Steiner system", "family_size": 28, "k": 3, "n": 9, "premises_ok": false, "t": 1, "tight": null, "within_bound": null}',
        "partition star": '{"bound": 7, "clique_coclique": {"applicable": true, "holds": true, "order": 28, "product": "28", "psd_first": true, "psd_second": true, "schur_gamma": "1/4", "schur_multiple_of_identity": true, "tight": true}, "detail": "ok", "family_size": 7, "k": 2, "n": 8, "premises_ok": true, "t": 1, "tight": true, "within_bound": true}',
        "sqs8 star": '{"bound": 5, "clique_coclique": {"applicable": true, "holds": true, "order": 70, "product": "70", "psd_first": true, "psd_second": true, "schur_gamma": "1/14", "schur_multiple_of_identity": true, "tight": true}, "detail": "ok", "family_size": 5, "k": 4, "n": 8, "premises_ok": true, "t": 3, "tight": true, "within_bound": true}',
    }

    @pytest.mark.parametrize("name", sorted(PINNED_DOCS))
    def test_pinned_document(self, name, fano_design, sts9_design, sqs8_design):
        design, fam = {
            "fano star": (fano_design, star_family(7, 3, (1, 2))),
            "fano line": (fano_design, make_family(7, 3, [[1, 2, 3]])),
            "fano disjoint": (fano_design, make_family(7, 3, [[1, 2, 3], [4, 5, 6]])),
            "fano mismatch": (fano_design, star_family(8, 3, (1, 2))),
            "sts9 star": (sts9_design, star_family(9, 3, (1, 2))),
            "sts9 as 1-design": (as_design(make_family(9, 3, STS9_BLOCKS), 1),
                                 star_family(9, 3, (1,))),
            "partition star": (partition_design(8, 2), star_family(8, 2, (1,))),
            "sqs8 star": (sqs8_design, star_family(8, 4, (1, 2, 3))),
        }[name]
        doc = bound_from_design(design, fam).to_dict()
        assert json.dumps(doc, sort_keys=True) == self.PINNED_DOCS[name]
