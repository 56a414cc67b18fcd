import json
from fractions import Fraction

import pytest

from jshm import projection
from jshm.designs import as_design, partition_design
from jshm.exact import binom
from jshm.johnson import (
    MAX_TABLE_K,
    MAX_TABLE_N,
    SchemeParams,
    SizeBudgetError,
    all_ones_vector,
    basis_vector,
    identity_vector,
    schur,
)
from jshm.projection import project_family
from jshm.subsets import make_family, star_family
from jshm.wilson import (
    bound_from_design,
    certificate_matrix,
    clique_coclique,
    ekr_certificate,
    sum_trace_ratio,
    support_ok,
    wilson_matrix,
    wilson_matrix_symbolic,
)

from conftest import STS9_BLOCKS


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
        for variant in ("literal", "corrected"):
            for (k, t) in [(k, t) for k in range(2, 8) for t in range(1, k)]:
                sym = wilson_matrix_symbolic(k, t, variant)
                for n in range(2 * k, 18):
                    num = wilson_matrix(n, k, t, variant)
                    assert tuple(f.evaluate(n) for f in sym) == num.coeffs


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
                expected = identity_vector(p) + basis_vector(p, k).scale(
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
        assert sum_trace_ratio(identity_vector(SchemeParams(7, 3))) == 1

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
        rep = clique_coclique(identity_vector(p), identity_vector(p))
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
