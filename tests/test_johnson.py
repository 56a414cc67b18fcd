import random
from fractions import Fraction

import pytest

from jshm.exact import binom
from jshm.johnson import (
    BMVector,
    SchemeParams,
    SizeBudgetError,
    all_ones_vector,
    basis_vector,
    class_size,
    colex_masks,
    dense,
    eigensystem,
    eigenvalues,
    entry_sum,
    identity_vector,
    psd_report,
    schur,
    trace,
    wilson_basis_vector,
)
from jshm.oracles import (
    colex_rank,
    disjointness_matrix,
    entry,
    float_spectrum,
    inclusion_matrix,
    inner,
    intersection_number,
    mat_mul,
    mat_transpose,
)
from jshm.subsets import colex_tuples

from conftest import random_vector


class TestEntry:
    def test_identity_diagonal(self):
        p = SchemeParams(7, 3)
        s = (1, 2, 3)
        assert entry(identity_vector(p), s, s) == 1

    def test_all_ones_everywhere(self):
        p = SchemeParams(7, 3)
        s, t = (1, 2, 3), (2, 3, 7)
        assert entry(all_ones_vector(p), s, t) == 1
        assert entry(all_ones_vector(p), s, s) == 1

    def test_indexing_convention(self):
        # |S inter T| = 2 lands on class index r = 1, so A_2 gives 0 there
        p = SchemeParams(7, 3)
        s, t = (1, 2, 3), (2, 3, 7)
        assert entry(basis_vector(p, 2), s, t) == 0
        assert entry(basis_vector(p, 1), s, t) == 1


class TestDense:
    def test_identity_j42(self):
        p = SchemeParams(4, 2)
        mat = dense(identity_vector(p))
        assert len(mat) == 6
        assert all(mat[i][j] == (1 if i == j else 0)
                   for i in range(6) for j in range(6))

    def test_all_ones_j42(self):
        mat = dense(all_ones_vector(SchemeParams(4, 2)))
        assert all(x == 1 for row in mat for x in row)

    def test_octahedron(self):
        # pairs of 2-sets of a 4-set sharing one point: 4-regular on 6 vertices
        mat = dense(basis_vector(SchemeParams(4, 2), 1))
        assert all(sum(row) == 4 for row in mat)
        assert all(mat[i][i] == 0 for i in range(6))
        assert mat == mat_transpose(mat)

    def test_sum_of_classes_is_all_ones_and_first_is_identity(self):
        for n in range(1, 9):
            for k in range(1, min(4, n) + 1):
                p = SchemeParams(n, k)
                total = [[0] * p.order for _ in range(p.order)]
                for r in range(k + 1):
                    mat = dense(basis_vector(p, r))
                    for i in range(p.order):
                        for j in range(p.order):
                            total[i][j] += mat[i][j]
                assert all(x == 1 for row in total for x in row)
                ident = dense(identity_vector(p))
                assert all(ident[i][j] == (1 if i == j else 0)
                           for i in range(p.order) for j in range(p.order))

    def test_colex_masks_in_colex_rank_order(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                subsets = [tuple(e for e in range(1, n + 1) if m >> (e - 1) & 1)
                           for m in colex_masks(n, k)]
                assert all(len(s) == k for s in subsets)
                assert [colex_rank(s) for s in subsets] == list(range(binom(n, k)))

    def test_budget(self):
        p = SchemeParams(20, 10)
        with pytest.raises(SizeBudgetError):
            dense(all_ones_vector(p))


class TestSchur:
    def test_all_ones_is_schur_identity(self):
        p = SchemeParams(6, 3)
        v = BMVector(p, tuple(Fraction(i, 3) for i in range(4)))
        assert schur(all_ones_vector(p), v).coeffs == v.coeffs

    def test_disjoint_supports(self):
        p = SchemeParams(7, 3)
        prod = schur(basis_vector(p, 1), basis_vector(p, 2))
        assert all(c == 0 for c in prod.coeffs)

    def test_dense_cross_check(self):
        p = SchemeParams(6, 3)
        rng = random.Random(63)
        for _ in range(3):
            u, v = random_vector(p, rng), random_vector(p, rng)
            du, dv = dense(u), dense(v)
            ds = dense(schur(u, v))
            assert all(
                ds[i][j] == du[i][j] * dv[i][j]
                for i in range(p.order) for j in range(p.order)
            )


class TestInnerTraceSum:
    def test_identity_inner(self):
        p = SchemeParams(7, 3)
        assert inner(identity_vector(p), identity_vector(p)) == 35

    def test_class_inner_and_dense_count(self):
        p = SchemeParams(7, 3)
        a2 = basis_vector(p, 2)
        assert inner(a2, a2) == 630 == 35 * binom(3, 2) * binom(4, 2)
        ones = sum(x for row in dense(a2) for x in row)
        assert ones == 630

    def test_distinct_classes_orthogonal(self):
        p = SchemeParams(7, 3)
        for i in range(4):
            for j in range(4):
                got = inner(basis_vector(p, i), basis_vector(p, j))
                assert got == (class_size(p, i) if i == j else 0)

    def test_trace_and_entry_sum(self):
        p = SchemeParams(7, 3)
        assert trace(all_ones_vector(p)) == 35
        assert entry_sum(all_ones_vector(p)) == 1225
        assert entry_sum(basis_vector(p, 2)) == 630


class TestSubsetMatrices:
    def test_row_of_ones(self):
        p = SchemeParams(7, 3)
        mat = inclusion_matrix(0, p)
        assert mat == [[1] * 35]

    def test_inclusion_row_sums(self):
        p = SchemeParams(7, 3)
        mat = inclusion_matrix(1, p)
        assert len(mat) == 7
        assert all(sum(row) == binom(6, 2) == 15 for row in mat)

    def test_disjointness_row_sums(self):
        p = SchemeParams(7, 3)
        mat = disjointness_matrix(1, p)
        assert all(sum(row) == binom(6, 3) == 20 for row in mat)

    def test_wilson_basis_extremes(self):
        p = SchemeParams(7, 3)
        assert wilson_basis_vector(0, p).coeffs == all_ones_vector(p).coeffs
        assert wilson_basis_vector(3, p).coeffs == basis_vector(p, 3).coeffs

    def test_dense_product_orientation(self):
        # transpose(W_2) * Wbar_2 must equal the k-indexed coefficient form
        p = SchemeParams(7, 3)
        prod = mat_mul(mat_transpose(inclusion_matrix(2, p)),
                       disjointness_matrix(2, p))
        assert prod == dense(wilson_basis_vector(2, p))

    def test_wilson_basis_expansion_dense(self):
        for (n, k) in [(7, 3), (8, 4)]:
            p = SchemeParams(n, k)
            for i in range(k + 1):
                expected = dense(wilson_basis_vector(i, p))
                total = [[0] * p.order for _ in range(p.order)]
                for r in range(k + 1):
                    mat = dense(basis_vector(p, r))
                    c = binom(r, i)
                    for a in range(p.order):
                        for b in range(p.order):
                            total[a][b] += c * mat[a][b]
                assert total == expected


class TestIntersectionNumbers:
    def test_identity_class(self):
        p = SchemeParams(7, 3)
        for j in range(4):
            for r in range(4):
                assert intersection_number(0, j, r, p) == (1 if j == r else 0)

    def test_johnson_graph_degree(self):
        assert intersection_number(1, 1, 0, SchemeParams(7, 3)) == 12

    def test_product_closure_and_commutativity(self):
        p = SchemeParams(6, 3)
        mats = [dense(basis_vector(p, r)) for r in range(4)]
        for i in range(4):
            for j in range(4):
                prod = mat_mul(mats[i], mats[j])
                expected = [[0] * p.order for _ in range(p.order)]
                for r in range(4):
                    c = intersection_number(i, j, r, p)
                    for a in range(p.order):
                        for b in range(p.order):
                            expected[a][b] += c * mats[r][a][b]
                assert prod == expected
                assert prod == mat_mul(mats[j], mats[i])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            intersection_number(5, 0, 0, SchemeParams(7, 3))


class TestEigenSystem:
    def test_petersen(self):
        es = eigensystem(SchemeParams(5, 2))
        assert es.theta1 == (6, 1, -2)
        assert es.m == (1, 4, 5)
        assert tuple(row[2] for row in es.P) == (3, -2, 1)
        assert all(row[0] == 1 for row in es.P)

    def test_triangular_graph_float_oracle(self):
        p = SchemeParams(5, 2)
        got = float_spectrum(dense(basis_vector(p, 1)))
        expected = sorted([6.0] + [1.0] * 4 + [-2.0] * 5, reverse=True)
        assert all(abs(a - b) < 1e-8 for a, b in zip(got, expected))

    def test_self_checks_across_grid(self):
        # construction raises if any built-in identity fails
        for n in range(4, 13):
            for k in range(2, n + 1):
                if k <= min(5, n - k):
                    eigensystem(SchemeParams(n, k))

    def test_counted_recurrence(self):
        # theta1[j] * P[j][i] = sum_r p_{1,i}(r) P[j][r], with the
        # intersection numbers counted over all k-subsets
        for n in range(4, 13):
            for k in range(1, min(5, n // 2) + 1):
                p = SchemeParams(n, k)
                es = eigensystem(p)
                p1 = [[intersection_number(1, i, r, p) for r in range(k + 1)]
                      for i in range(k + 1)]
                for j in range(k + 1):
                    for i in range(k + 1):
                        assert es.theta1[j] * es.P[j][i] == sum(
                            p1[i][r] * es.P[j][r] for r in range(k + 1))

    def test_rejects_large_k(self):
        with pytest.raises(ValueError, match="k <= n-k"):
            eigensystem(SchemeParams(3, 2))

    def test_table_bound(self):
        with pytest.raises(SizeBudgetError, match="table bound"):
            eigensystem(SchemeParams(200, 65))
        with pytest.raises(SizeBudgetError, match="table bound"):
            eigensystem(SchemeParams(2**64, 2))
        es = eigensystem(SchemeParams(2**64 - 1, 64))
        assert sum(es.m) == binom(2**64 - 1, 64)

    def test_scheme_params_carry_the_table_bound(self):
        # every algebra element is bounded, projections included; an input
        # both beyond the bound and invalid (2k > n) is refused as a budget
        for n, k in [(200, 65), (2**64, 2), (100, 70), (10**30, 65)]:
            with pytest.raises(SizeBudgetError, match="table bound"):
                SchemeParams(n, k)
        with pytest.raises(ValueError, match="1 <= k <= n"):
            SchemeParams(3, 70)

    def test_random_vectors_match_float_oracle(self):
        rng = random.Random(88)
        for (n, k) in [(6, 3), (7, 3), (8, 4)]:
            p = SchemeParams(n, k)
            es = eigensystem(p)
            for _ in range(3):
                v = random_vector(p, rng)
                exact = sorted(
                    (float(th) for j, th in enumerate(eigenvalues(v))
                     for _ in range(es.m[j])),
                    reverse=True,
                )
                approx = float_spectrum(dense(v))
                assert len(exact) == p.order
                assert all(abs(a - b) < 1e-8 for a, b in zip(exact, approx))


class TestBMEigenvalues:
    def test_identity(self):
        p = SchemeParams(7, 3)
        assert eigenvalues(identity_vector(p)) == (1, 1, 1, 1)

    def test_all_ones(self):
        p = SchemeParams(7, 3)
        assert eigenvalues(all_ones_vector(p)) == (35, 0, 0, 0)

    def test_johnson_graph_j52(self):
        assert eigenvalues(basis_vector(SchemeParams(5, 2), 1)) == (6, 1, -2)


class TestPSD:
    def test_identity_psd(self):
        rep = psd_report(identity_vector(SchemeParams(7, 3)))
        assert rep.psd and rep.min_eigenvalue == 1

    def test_negated_identity(self):
        rep = psd_report(identity_vector(SchemeParams(7, 3)).scale(-1))
        assert not rep.psd

    def test_kneser_shift_has_zero_minimum(self):
        # least eigenvalue of the disjointness class is -C(n-k-1, k-1) = -3,
        # so I + A_3/3 just touches zero; float oracle agrees
        p = SchemeParams(7, 3)
        v = identity_vector(p) + basis_vector(p, 3).scale(Fraction(1, 3))
        rep = psd_report(v)
        assert rep.psd and rep.min_eigenvalue == 0
        assert min(float_spectrum(dense(v))) == pytest.approx(0, abs=1e-8)


def test_parameter_mismatch_raises():
    u = identity_vector(SchemeParams(7, 3))
    v = identity_vector(SchemeParams(6, 3))
    with pytest.raises(ValueError, match="mismatch"):
        schur(u, v)
    with pytest.raises(ValueError, match="mismatch"):
        inner(u, v)


def test_colex_order_of_dense_rows():
    p = SchemeParams(4, 2)
    subsets = colex_tuples(4, 2)
    mat = dense(basis_vector(p, 1))
    for i, s in enumerate(subsets):
        for j, t in enumerate(subsets):
            expected = 1 if len(set(s) & set(t)) == 1 else 0
            assert mat[i][j] == expected


@pytest.mark.parametrize("memo, args", [(eigensystem, lambda n: (SchemeParams(n, 2),)),
                                        (colex_masks, lambda n: (n, 1))])
def test_memo_is_bounded(memo, args):
    maxsize = memo.cache_info().maxsize
    for n in range(4, 4 + maxsize + 5):  # more sizes than the memo holds
        memo(*args(n))
    assert memo.cache_info().currsize <= maxsize
