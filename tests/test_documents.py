"""The JSON encoder and the documents of every report type."""

import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from jshm.designs import as_design, design_projection_report
from jshm.exact import NU, Report, to_json
from jshm.identity import compare_pointwise, compare_symbolic, design_witness_check
from jshm.oracles import max_family
from jshm.projection import family_lemma_report, project_family
from jshm.subsets import make_family, star_family
from jshm.wilson import bound_from_design, certificate_matrix, clique_coclique, ekr_certificate

from conftest import FANO_BLOCKS


class TestToJson:
    def test_integral_fraction_is_bare(self):
        assert to_json(Fraction(7)) == "7"

    def test_negative_fraction(self):
        assert to_json(Fraction(-1, 3)) == "-1/3"

    def test_rational_function(self):
        assert to_json(1 / (NU - 4)) == "(1)/(nu - 4)"
        assert to_json(NU + 1) == "nu + 1"

    def test_nested_tuples_become_lists(self):
        value = (Fraction(1, 2), (Fraction(3), [NU]), ())
        assert to_json(value) == ["1/2", ["3", ["nu"]], []]

    def test_dict_values_are_encoded(self):
        assert to_json({"a": (Fraction(2, 4),), "b": None}) == {"a": ["1/2"], "b": None}

    @pytest.mark.parametrize("value", [None, True, False, 0, -5, 10**40, 2.5, "", "1/2"])
    def test_plain_values_pass_through(self, value):
        out = to_json(value)
        assert out == value and type(out) is type(value)

    def test_report_gives_its_document(self):
        cert = ekr_certificate(7, 3, 2)
        assert to_json([cert]) == [cert.to_dict()]

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"x", 1j])
    def test_other_values_are_refused(self, value):
        with pytest.raises(TypeError):
            to_json(value)


def _reports():
    fano = as_design(make_family(7, 3, FANO_BLOCKS), 2)
    star = star_family(7, 3, (1, 2))
    disjoint = make_family(7, 3, [[1, 2, 3], [4, 5, 6]])
    witness = design_witness_check(3, 2, [6, 7, 8])
    return {
        "CliqueCocliqueReport": clique_coclique(project_family(star),
                                                certificate_matrix(7, 3, 2)),
        "CliqueCocliqueReport, premises fail": clique_coclique(
            certificate_matrix(8, 4, 2), project_family(star_family(8, 4, (1, 2)))),
        "EKRCertificate": ekr_certificate(7, 3, 2),
        "EKRCertificate, below the regime": ekr_certificate(8, 4, 2),
        "DesignBoundReport": bound_from_design(fano, star),
        "DesignBoundReport, premises fail": bound_from_design(fano, disjoint),
        "FamilyLemmaReport": family_lemma_report(star, 2),
        "FamilyLemmaReport, not intersecting": family_lemma_report(disjoint, 2),
        "Design": fano,
        "DesignProjectionReport": design_projection_report(fano),
        "IdentityReport": compare_symbolic(3, 2),
        "IdentityReport, with a witness": compare_symbolic(3, 2, "m", "omega_literal"),
        "PointwiseReport": compare_pointwise(3, 2, "m", "omega_corrected", 7, 20),
        "PointwiseReport, with a failure": compare_pointwise(3, 2, "m", "omega_literal", 7, 20),
        "WitnessPoint": witness.points[1],
        "WitnessPoint, no nodes": witness.points[0],
        "WitnessReport": witness,
        "MaxFamilyResult": max_family(7, 3, 2),
    }


REPORTS = _reports()


def test_every_report_type_is_covered():
    assert len({type(r).__name__ for r in REPORTS.values()}) == 11
    assert all(isinstance(r, Report) for r in REPORTS.values())


# the reports whose document is not their fields, each with its reason
# beside its to_dict
OVERRIDES = {"Design", "FamilyLemmaReport", "IdentityReport", "PointwiseReport",
             "MaxFamilyResult"}


def test_only_the_overrides_define_to_dict():
    own = {type(r).__name__ for r in REPORTS.values() if "to_dict" in vars(type(r))}
    assert own == OVERRIDES


@pytest.mark.parametrize("name", sorted(n for n, r in REPORTS.items()
                                        if type(r).__name__ not in OVERRIDES))
def test_document_is_the_fields(name):
    report = REPORTS[name]
    doc = report.to_dict()
    assert set(doc) == {f.name for f in dataclasses.fields(report)}
    assert doc == to_json(vars(report))


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_document_is_strict_json(name):
    doc = REPORTS[name].to_dict()
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc


# report -> first 16 hex digits of the sha256 of json.dumps(doc, sort_keys=True),
# taken from the hand-written document methods
PINNED = {
    "CliqueCocliqueReport": "0150d045e7bfbc8b",
    "CliqueCocliqueReport, premises fail": "a23491962dfcca4b",
    "Design": "1ade99910e573ad0",
    "DesignBoundReport": "75180f11d9c99baf",
    "DesignBoundReport, premises fail": "15508b18c8a79b8d",
    "DesignProjectionReport": "d4715904f52c5373",
    "EKRCertificate": "0064030f29e38a72",
    "EKRCertificate, below the regime": "b63a6d4fe0925a49",
    "FamilyLemmaReport": "3a94defcb10952e7",
    "FamilyLemmaReport, not intersecting": "1139eff9966f8a54",
    "IdentityReport": "fcc3032e5509f4da",
    "IdentityReport, with a witness": "d145b74f42b0d2cf",
    "MaxFamilyResult": "4cb00ef143f09916",
    "PointwiseReport": "c283e00873d03aaa",
    "PointwiseReport, with a failure": "11c6bceade84fcd3",
    "WitnessPoint": "8219b88b806bdbd6",
    "WitnessPoint, no nodes": "3a6c850035e1fd19",
    "WitnessReport": "9113826a3417485f",
}


def test_every_report_is_pinned():
    assert sorted(PINNED) == sorted(REPORTS)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_document_is_pinned(name):
    text = json.dumps(REPORTS[name].to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED[name]
