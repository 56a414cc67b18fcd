"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
exact assertion is at zero tolerance, the float oracle comparisons at the
documented 1e-8.
"""

import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from jshm.cli import main
from jshm.designs import (
    admissible,
    admissible_range,
    block_count,
    design_projection_report,
    partition_design,
    search_design,
    verify_design,
)
from jshm.exact import binom
from jshm.identity import compare_pointwise, compare_symbolic
from jshm.johnson import (
    SchemeParams,
    basis_vector,
    dense,
    eigensystem,
    eigenvalues,
    entry_sum,
    trace,
)
from jshm.oracles import brute_projection, float_spectrum, max_family
from jshm.projection import project_family
from jshm.subsets import star_family
from jshm.wilson import (
    certificate_matrix,
    clique_coclique,
    ekr_certificate,
    sum_trace_ratio,
    wilson_matrix,
)

from conftest import eberlein_spectrum, projection_corpus

FLOAT_TOL = 1e-8

PAIRS = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2), (5, 3)]


def wilson_grid():
    for k in range(2, 6):
        for t in range(1, k):
            for n in range(max((t + 1) * (k - t + 1), 2 * k), 15):
                yield n, k, t


def test_c01_eigen_machinery():
    built = 0
    for n in range(4, 13):
        for k in range(2, n + 1):
            if k > min(5, n - k):
                continue
            es = eigensystem(SchemeParams(n, k))  # self-verifying constructor
            built += 1
            if n <= 8:
                for r in range(k + 1):
                    v = basis_vector(es.params, r)
                    assert eigenvalues(v) == eberlein_spectrum(v), (n, k, r)
                    exact = sorted(
                        (float(th) for j, th in enumerate(eigenvalues(v))
                         for _ in range(es.m[j])),
                        reverse=True,
                    )
                    approx = float_spectrum(dense(v))
                    assert all(abs(a - b) < FLOAT_TOL
                               for a, b in zip(exact, approx)), (n, k, r)
    petersen = eigensystem(SchemeParams(5, 2))
    assert tuple(row[2] for row in petersen.P) == (3, -2, 1)
    assert petersen.m == (1, 4, 5)
    got = float_spectrum(dense(basis_vector(petersen.params, 2)))
    want = [3.0] + [1.0] * 5 + [-2.0] * 4
    assert all(abs(a - b) < FLOAT_TOL for a, b in zip(got, want))
    print(f"\nACCEPTANCE 1: PASS eigen machinery ({built} tables, "
          f"float oracle agreement within {FLOAT_TOL})")


def test_c02_projection_correctness(fano, sqs8_design):
    corpus = projection_corpus(fano, sqs8_design)
    assert len(corpus) >= 20
    for fam in corpus:
        fast = project_family(fam)
        slow = brute_projection(fam)
        assert fast.coeffs == slow.coeffs
        assert trace(fast) == fam.size
        assert entry_sum(fast) == fam.size ** 2
    print(f"\nACCEPTANCE 2: PASS projection correctness on {len(corpus)} "
          "families (pair-count path == dense path, trace and entry sum exact)")


def test_c03_design_pipeline():
    expected_sizes = {(7, 3, 2): 7, (9, 3, 2): 12, (8, 4, 3): 14}
    for (n, k, t), size in expected_sizes.items():
        outcome = search_design(n, k, t)
        assert outcome.status == "found"
        design = outcome.design
        assert design.size == size
        assert verify_design(design.family, t) == 1
        for i in range(t + 1):
            lam_i = block_count(n, k, t, i)
            for sub in combinations(range(1, n + 1), i):
                w = set(sub)
                cnt = sum(1 for m in design.family.members
                          if w <= set(m))
                assert cnt == lam_i
    assert [block_count(7, 3, 2, i) for i in range(3)] == [7, 3, 1]
    print("\nACCEPTANCE 3: PASS design pipeline (7/12/14 blocks found, "
          "lambda = 1 verified, block-count formula matches actual counts)")


def test_c04_projection_m_relation():
    checked = []
    for (n, k, t) in [(7, 3, 2), (9, 3, 2), (8, 4, 3)]:
        design = search_design(n, k, t).design
        rep = design_projection_report(design)
        assert rep.verified, (n, k, t)
        checked.append((n, k, t))
    for k in range(2, 7):
        for n in range(2 * k, 13, k):
            rep = design_projection_report(partition_design(n, k))
            assert rep.verified, (n, k)
            checked.append((n, k, 1))
    fano_rep = design_projection_report(search_design(7, 3, 2).design)
    assert fano_rep.projection == (Fraction(1, 5), 0, Fraction(1, 15), 0)
    print(f"\nACCEPTANCE 4: PASS projection relation on {len(checked)} designs "
          "(projection = (|D|/C(n,k)) (I + M) coefficientwise)")


def test_c05_wilson_matrix_properties():
    points = 0
    for (n, k, t) in wilson_grid():
        cert = ekr_certificate(n, k, t)
        assert cert.psd and cert.min_eigenvalue >= 0, (n, k, t)
        assert cert.support_ok, (n, k, t)
        omega = wilson_matrix(n, k, t, "corrected")
        assert all(omega.coeffs[r] == 0 for r in range(1, k - t + 1)), (n, k, t)
        assert cert.ratio == Fraction(binom(n, t), binom(k, t)), (n, k, t)
        if t == 1:
            assert cert.min_eigenvalue == 0, (n, k)
        points += 1
    print(f"\nACCEPTANCE 5: PASS Wilson matrix properties on {points} grid "
          "points (exact PSD, support, ratio; zero minimum at t = 1)")


def test_c06_central_identity():
    for (k, t) in PAIRS:
        assert compare_symbolic(k, t, "m", "omega_corrected").equal, (k, t)
        pw = compare_pointwise(k, t, "m", "omega_corrected", 2 * k, 4 * k + 2)
        assert pw.equal and pw.points_equal >= 2 * k + 1, (k, t)
    lit = compare_symbolic(3, 2, "m", "omega_literal")
    assert not lit.equal
    assert lit.witness == (3, 7, Fraction(-1, 3))
    lit_pw = compare_pointwise(3, 2, "m", "omega_literal", 7, 20)
    assert not lit_pw.equal and lit_pw.first_failure[0] == 7
    print(f"\nACCEPTANCE 6: PASS central identity ({len(PAIRS)} (k,t) pairs "
          "equal symbolically and pointwise; literal variant refuted with "
          "witness h_3(7) = -1/3)")


def test_c07_ekr_ground_truth():
    for (n, k, t, expected) in [(6, 3, 2, 4), (7, 3, 2, 5),
                                (8, 3, 1, 21), (9, 3, 2, 7)]:
        result = max_family(n, k, t)
        assert result.optimal
        assert result.size == expected == binom(n - t, k - t)
        cert = ekr_certificate(n, k, t)
        assert cert.valid and cert.bound == expected
        star = project_family(star_family(n, k, tuple(range(1, t + 1))))
        rep = clique_coclique(star, certificate_matrix(n, k, t))
        assert rep.applicable and rep.tight
        assert rep.product == binom(n, k)
    print("\nACCEPTANCE 7: PASS EKR ground truth (search maxima = certificate "
          "bounds at 4 parameter sets; star/certificate product exactly C(n,k))")


def test_c08_keevash_admissibility():
    assert admissible_range(3, 2, 20) == [7, 9, 13, 15, 19]
    for (n, k, t) in [(7, 3, 2), (9, 3, 2), (8, 4, 3)]:
        assert search_design(n, k, t).status == "found"
        assert admissible(n, k, t)
    print("\nACCEPTANCE 8: PASS admissibility (range(3,2,20) = "
          "{7,9,13,15,19}; every found design admissible)")


def test_c09_discrepancy_ledger():
    doc = (Path(__file__).resolve().parent.parent / "DISCREPANCIES.md").read_text(
        encoding="utf-8")
    for anchor in ("## D1", "## D2", "## D3", "## D4", "## D5"):
        assert anchor in doc, f"missing ledger entry {anchor}"

    # D1: constant versus index-dependent denominator
    assert not compare_symbolic(3, 2, "m", "omega_literal").equal
    assert compare_symbolic(3, 2, "m", "omega_corrected").equal
    # D2: ratio target C(n,t)/C(k,t), not C(n,t)/C(n-t,k-t)
    ratio = sum_trace_ratio(certificate_matrix(7, 3, 2))
    assert ratio == Fraction(binom(7, 2), binom(3, 2))
    assert ratio != Fraction(binom(7, 2), binom(5, 1))
    # D3: design projection entry sum is |D|^2, not |D|
    fano = search_design(7, 3, 2).design
    proj = project_family(fano.family)
    assert entry_sum(proj) == fano.size ** 2 != fano.size
    # D4: regime direction: fails strictly below (t+1)(k-t+1), holds at it
    below = ekr_certificate(8, 4, 2)
    assert not below.regime_ok and not below.psd and below.min_eigenvalue < 0
    boundary = ekr_certificate(6, 3, 2)
    assert boundary.regime_ok and boundary.valid
    # D5: M equals Omega, not Omega + I
    assert compare_symbolic(3, 2, "m_plus_i", "nabla_corrected").equal
    assert not compare_symbolic(3, 2, "m_plus_i", "omega_corrected").equal
    assert not compare_symbolic(3, 2, "m", "nabla_corrected").equal
    print("\nACCEPTANCE 9: PASS discrepancy ledger (5 documented entries, "
          "each re-demonstrated mechanically)")


def test_c10_determinism(capsys):
    invocations = [
        ["scheme", "--n", "7", "--k", "3"],
        ["wilson", "certify", "--n", "9", "--k", "3", "--t", "2"],
        ["design", "search", "--n", "9", "--k", "3", "--t", "2"],
        ["oracle", "max-family", "--n", "7", "--k", "3", "--t", "2"],
        ["identity", "prove", "--k", "4", "--t", "2", "--rhs", "literal"],
    ]
    for argv in invocations:
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2
        assert out1 == out2, argv
        json.loads(out1)  # well-formed
    a = search_design(9, 3, 2)
    b = search_design(9, 3, 2)
    assert a.design.family.blocks() == b.design.family.blocks()
    x = max_family(8, 3, 1)
    y = max_family(8, 3, 1)
    assert x.blocks == y.blocks
    print("\nACCEPTANCE 10: PASS determinism (byte-identical CLI output, "
          "reproducible search witnesses)")
