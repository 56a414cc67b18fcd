import math
import random
from fractions import Fraction

import pytest

from jshm import johnson
from jshm.exact import binom
from jshm.johnson import (
    MAX_TABLE_K,
    MAX_TABLE_N,
    BMVector,
    SchemeParams,
    SizeBudgetError,
    all_ones_vector,
    basis_vector,
    binomial_inversion,
    class_size,
    colex_masks,
    dense,
    eigensystem,
    eigenvalues,
    entry_sum,
    multiplicities,
    psd_report,
    row_sum,
    schur,
    trace,
    w_to_a,
)
from jshm.oracles import (
    colex_rank,
    disjointness_matrix,
    eberlein_table,
    entry,
    float_spectrum,
    inclusion_matrix,
    inner,
    intersection_number,
    mat_mul,
    mat_transpose,
)
from jshm.qnu import NU, RationalFunction
from jshm.subsets import colex_tuples

from conftest import eberlein_spectrum, random_vector, w_basis


class TestEntry:
    def test_identity_diagonal(self):
        p = SchemeParams(7, 3)
        s = (1, 2, 3)
        assert entry(basis_vector(p, 0), s, s) == 1

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
        mat = dense(basis_vector(p, 0))
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
                ident = dense(basis_vector(p, 0))
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
        assert inner(basis_vector(p, 0), basis_vector(p, 0)) == 35

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

    def test_row_sum_against_dense(self):
        rng = random.Random(71)
        for (n, k) in [(7, 3), (8, 4)]:
            v = random_vector(SchemeParams(n, k), rng)
            rows = {sum(row) for row in dense(v)}
            assert rows == {row_sum(v)}, (n, k)


class TestSubsetMatrices:
    def test_row_of_ones(self):
        p = SchemeParams(7, 3)
        assert inclusion_matrix(0, p) == [[1] * 35]
        assert disjointness_matrix(0, p) == [[1] * 35]

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
        assert w_basis(0, p).coeffs == all_ones_vector(p).coeffs
        assert w_basis(3, p).coeffs == basis_vector(p, 3).coeffs

    def test_w_to_a(self):
        # W_a back from its unit W vector, and the inverse of the change of
        # basis that eigenvalues writes out
        p = SchemeParams(9, 4)
        for a in range(5):
            assert w_to_a([int(i == a) for i in range(5)]) == [binom(r, a) for r in range(5)]
        rng = random.Random(17)
        for _ in range(5):
            c = random_vector(p, rng).coeffs
            w = [sum((-1) ** (a - r) * binom(a, r) * c[r] for r in range(a + 1))
                 for a in range(5)]
            assert w_to_a(w) == list(c)
        got = w_to_a([0, 0, 1 / NU, 3 / (NU - 1)])
        assert all(isinstance(x, RationalFunction) for x in got)
        assert got == [0, 0, 1 / NU, 3 / NU + 3 / (NU - 1)]

    def test_binomial_tables_are_math_comb(self):
        # the per-k tables that w_to_a and lemma_eigenvalue read, up to the
        # table bound and refused past it
        for k in range(MAX_TABLE_K + 1):
            assert johnson._pascal(k) == tuple(
                tuple(math.comb(r, a) for a in range(r + 1)) for r in range(k + 1))
            assert johnson._lemma_factors(k) == tuple(
                tuple((-1) ** j * math.comb(k - j, a - j) if j <= a else 0
                      for j in range(k + 1)) for a in range(k + 1))
        for table in (johnson._pascal, johnson._lemma_factors):
            with pytest.raises(SizeBudgetError):
                table(MAX_TABLE_K + 1)
        with pytest.raises(SizeBudgetError):
            w_to_a([1] * (MAX_TABLE_K + 2))

    def test_binomial_inversion(self):
        # inverts x_i = sum_{j >= i} C(j, i) y_j, over ints, Fractions and Q(nu)
        rng = random.Random(29)
        for length in range(1, 9):
            ints = [rng.randint(-50, 50) for _ in range(length)]
            for y in (ints, [Fraction(v, rng.randint(1, 9)) for v in ints],
                      [v / (NU + v) for v in ints]):
                x = [sum((binom(j, i) * y[j] for j in range(i, length)), 0 * y[0])
                     for i in range(length)]
                assert binomial_inversion(x) == y
        assert binomial_inversion([]) == []

    def test_dense_product_orientation(self):
        # transpose(W_a) * Wbar_a must equal w_to_a's coefficient form
        p = SchemeParams(7, 3)
        for a in range(4):
            prod = mat_mul(mat_transpose(inclusion_matrix(a, p)),
                           disjointness_matrix(a, p))
            assert prod == dense(w_basis(a, p)), a

    def test_wilson_basis_expansion_dense(self):
        for (n, k) in [(7, 3), (8, 4)]:
            p = SchemeParams(n, k)
            for i in range(k + 1):
                expected = dense(w_basis(i, p))
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
        assert tuple(row[1] for row in es.P) == (6, 1, -2)
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
        # P[j][1] * P[j][i] = sum_r p_{1,i}(r) P[j][r], with the
        # intersection numbers counted over all k-subsets
        for n in range(4, 13):
            for k in range(1, min(5, n // 2) + 1):
                p = SchemeParams(n, k)
                es = eigensystem(p)
                p1 = [[intersection_number(1, i, r, p) for r in range(k + 1)]
                      for i in range(k + 1)]
                for j in range(k + 1):
                    for i in range(k + 1):
                        assert es.P[j][1] * es.P[j][i] == sum(
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

    def test_against_the_eberlein_table(self):
        # the spectra of the classes by Wilson's lemma are Delsarte's table
        for n in range(2, 31):
            for k in range(1, n // 2 + 1):
                assert eigensystem(SchemeParams(n, k)).P == eberlein_table(n, k), (n, k)
        n, k = MAX_TABLE_N - 1, MAX_TABLE_K
        assert eigensystem(SchemeParams(n, k)).P == eberlein_table(n, k)

    def test_random_vectors_match_float_oracle(self):
        rng = random.Random(88)
        for (n, k) in [(6, 3), (7, 3), (8, 4)]:
            p = SchemeParams(n, k)
            m = multiplicities(n, k)
            for _ in range(3):
                v = random_vector(p, rng)
                assert eigenvalues(v) == eberlein_spectrum(v)
                exact = sorted(
                    (float(th) for j, th in enumerate(eigenvalues(v))
                     for _ in range(m[j])),
                    reverse=True,
                )
                approx = float_spectrum(dense(v))
                assert len(exact) == p.order
                assert all(abs(a - b) < 1e-8 for a, b in zip(exact, approx))

    @pytest.mark.parametrize("n,k", [(5, 3), (6, 4), (7, 5)])
    def test_beyond_half_matches_float_oracle(self, n, k):
        # 2k > n: the spectrum is theta_0..theta_{n-k}, on the eigenspaces
        # of J(n, n-k), and the classes beyond n - k are empty
        rng = random.Random(1000 * n + k)
        p = SchemeParams(n, k)
        m = multiplicities(n, n - k)
        for _ in range(5):
            v = random_vector(p, rng)
            spectrum = eigenvalues(v)
            assert len(spectrum) == n - k + 1
            exact = sorted((float(th) for th, mult in zip(spectrum, m) for _ in range(mult)),
                           reverse=True)
            approx = float_spectrum(dense(v))
            assert len(exact) == p.order
            assert all(abs(a - b) < 1e-8 for a, b in zip(exact, approx)), (n, k)
            assert psd_report(v).spectrum == spectrum


class TestBMEigenvalues:
    def test_identity(self):
        p = SchemeParams(7, 3)
        assert eigenvalues(basis_vector(p, 0)) == (1, 1, 1, 1)

    def test_all_ones(self):
        p = SchemeParams(7, 3)
        assert eigenvalues(all_ones_vector(p)) == (35, 0, 0, 0)

    def test_integer_coefficients(self):
        # an int is its own numerator over the denominator 1
        v = BMVector(SchemeParams(9, 4), (3, -1, 0, 2, 5))
        assert eigenvalues(v) == eberlein_spectrum(v)
        assert all(type(x) is Fraction for x in eigenvalues(v))

    def test_johnson_graph_j52(self):
        assert eigenvalues(basis_vector(SchemeParams(5, 2), 1)) == (6, 1, -2)


class TestPSD:
    def test_identity_psd(self):
        rep = psd_report(basis_vector(SchemeParams(7, 3), 0))
        assert rep.psd and rep.min_eigenvalue == 1

    def test_negated_identity(self):
        rep = psd_report(basis_vector(SchemeParams(7, 3), 0).scale(-1))
        assert not rep.psd

    def test_kneser_shift_has_zero_minimum(self):
        # least eigenvalue of the disjointness class is -C(n-k-1, k-1) = -3,
        # so I + A_3/3 just touches zero; float oracle agrees
        p = SchemeParams(7, 3)
        v = basis_vector(p, 0) + basis_vector(p, 3).scale(Fraction(1, 3))
        rep = psd_report(v)
        assert rep.psd and rep.min_eigenvalue == 0
        assert min(float_spectrum(dense(v))) == pytest.approx(0, abs=1e-8)


def test_difference_is_coefficientwise():
    p = SchemeParams(7, 3)
    rng = random.Random(23)
    u, v = random_vector(p, rng), random_vector(p, rng)
    diff = u - v
    assert diff.coeffs == tuple(a - b for a, b in zip(u.coeffs, v.coeffs))
    assert diff + v == u
    du, dv = dense(u), dense(v)
    assert dense(diff) == [[a - b for a, b in zip(ru, rv)] for ru, rv in zip(du, dv)]


def test_parameter_mismatch_raises():
    u = basis_vector(SchemeParams(7, 3), 0)
    v = basis_vector(SchemeParams(6, 3), 0)
    with pytest.raises(ValueError, match="mismatch"):
        u - v
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
