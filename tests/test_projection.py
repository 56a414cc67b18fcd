import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jshm import projection
from jshm.johnson import (
    SchemeParams,
    SelfCheckError,
    SizeBudgetError,
    basis_vector,
    dense,
    psd_report,
)
from jshm.projection import (
    family_lemma_report,
    first_violating_pair,
    pair_distribution,
    project_family,
)
from jshm.exact import binom
from jshm.johnson import entry_sum, trace
from jshm.oracles import mat_mul, mat_transpose, project_dense
from jshm.subsets import colex_tuples, make_family, star_family

from conftest import projection_corpus, random_vector


class TestPairDistribution:
    def test_single_set(self):
        fam = make_family(7, 3, [[1, 2, 3]])
        assert pair_distribution(fam).counts == (1, 0, 0, 0)

    def test_fano(self, fano):
        # distinct lines meet in one point: 7*6 ordered pairs at distance 2
        assert pair_distribution(fano).counts == (7, 0, 42, 0)

    def test_sts9(self, sts9):
        assert pair_distribution(sts9).counts == (12, 0, 108, 24)

    def test_invariants(self, fano):
        d = pair_distribution(fano).counts
        assert d[0] == fano.size
        assert sum(d) == fano.size ** 2

    @pytest.mark.parametrize("counted", [False, True])
    @settings(max_examples=75)
    @given(data=st.data())
    def test_matches_pair_walk(self, counted, data):
        # the walk runs when 2^k > |F|, the shared-subset counts otherwise
        fam = data.draw(families(counted))
        assert pair_distribution(fam).counts == walked_distribution(fam)

    # (seed, n, k, |F|) -> (first 16 hex digits of the sha256 of the JSON
    # block list, counts); |F| >= 2^k, so the shared-subset counts run.  The
    # counts were checked against the walk over all member pairs.
    PINNED_COUNTS = {
        (8, 24, 8, 300): ("878df12facc5dfbb",
                          (300, 14, 426, 3836, 15554, 29910, 27294, 10986, 1680)),
        (9, 30, 9, 600): ("5e166e8010c96bb7",
                          (600, 8, 180, 2836, 19142, 64392, 113730, 105340, 46120, 7652)),
        (10, 40, 10, 1100): ("1d40387bb7a45747", (1100, 0, 32, 720, 8332, 51590, 177808,
                                                   348352, 375208, 204180, 42678)),
    }

    @pytest.mark.parametrize("seed,n,k,size", sorted(PINNED_COUNTS))
    def test_pinned_counts(self, seed, n, k, size):
        rng = random.Random(seed)
        blocks = set()
        while len(blocks) < size:
            blocks.add(tuple(sorted(rng.sample(range(1, n + 1), k))))
        fam = make_family(n, k, sorted(blocks))
        assert 2 ** k <= fam.size
        digest = hashlib.sha256(json.dumps(fam.blocks()).encode()).hexdigest()[:16]
        assert (digest, pair_distribution(fam).counts) == self.PINNED_COUNTS[seed, n, k, size]

    @pytest.mark.parametrize("fam,work", [
        (make_family(7, 3, [[1, 2, 3], [4, 5, 6], [1, 4, 7]]), 3 * 3),  # walk
        (star_family(7, 3, ()), 35 * 2 ** 3),  # counts
    ])
    def test_count_bound(self, monkeypatch, fam, work):
        # |F| min(|F|, 2^k) units: admitted at the bound, refused below it
        monkeypatch.setattr(projection, "MAX_COUNT_WORK", work)
        assert sum(pair_distribution(fam).counts) == fam.size ** 2
        monkeypatch.setattr(projection, "MAX_COUNT_WORK", work - 1)
        with pytest.raises(SizeBudgetError, match="count bound"):
            pair_distribution(fam)


def walked_distribution(fam):
    """Reference pair distribution: every ordered member pair."""
    counts = [0] * (fam.k + 1)
    for a in fam.members:
        for b in fam.members:
            counts[fam.k - len(set(a) & set(b))] += 1
    return tuple(counts)


@st.composite
def families(draw, counted):
    """Families with |F| >= 2^k when ``counted``, and |F| < 2^k otherwise.

    Both 2k <= n and 2k > n are drawn; in the latter the classes r > n - k of
    J(n,k) are empty.
    """
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 10).filter(
        lambda n: not counted or binom(n, k) >= 2 ** k))
    pool = list(combinations(range(1, n + 1), k))
    if counted:
        low, high = 2 ** k, min(len(pool), 2 ** k + 24)
    else:
        low, high = 0, min(len(pool), 2 ** k - 1)
    blocks = draw(st.permutations(pool))[:draw(st.integers(low, high))]
    return make_family(n, k, blocks)


class TestProjectFamily:
    def test_single_set(self):
        fam = make_family(7, 3, [[1, 2, 3]])
        assert project_family(fam).coeffs == (Fraction(1, 35), 0, 0, 0)

    def test_fano(self, fano):
        assert project_family(fano).coeffs == (
            Fraction(1, 5), 0, Fraction(1, 15), 0)

    def test_sts9(self, sts9):
        assert project_family(sts9).coeffs == (
            Fraction(1, 7), 0, Fraction(1, 35), Fraction(1, 70))

    def test_empty_classes(self):
        # 2k > n: no pair of 4-subsets of 5 points meets in fewer than 3, so
        # A_2..A_4 are empty and their coefficients are 0
        fam = make_family(5, 4, [[1, 2, 3, 4], [1, 2, 3, 5], [2, 3, 4, 5]])
        proj = project_family(fam)
        assert proj.coeffs == (Fraction(3, 5), Fraction(3, 10), 0, 0, 0)
        assert trace(proj) == 3 and entry_sum(proj) == 9
        x = [1, 1, 0, 0, 1]  # colex order: 1234, 1235, 1245, 1345, 2345
        mat = [[a * b for b in x] for a in x]
        assert project_dense(mat, proj.params).coeffs == proj.coeffs


class TestProjectDense:
    def test_fixes_algebra_elements(self):
        p = SchemeParams(6, 3)
        rng = random.Random(17)
        for _ in range(3):
            v = random_vector(p, rng)
            assert project_dense(dense(v), p).coeffs == v.coeffs

    def test_single_diagonal_unit(self):
        p = SchemeParams(6, 3)
        mat = [[Fraction(0)] * p.order for _ in range(p.order)]
        mat[4][4] = Fraction(1)
        got = project_dense(mat, p)
        assert got.coeffs == (Fraction(1, 20), 0, 0, 0)

    def test_matches_family_path_on_fano(self, fano):
        p = SchemeParams(7, 3)
        member_set = set(fano.members)
        x = [1 if s in member_set else 0 for s in colex_tuples(7, 3)]
        mat = [[a * b for b in x] for a in x]
        assert project_dense(mat, p).coeffs == project_family(fano).coeffs

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order"):
            project_dense([[1]], SchemeParams(6, 3))


class TestFamilyLemma:
    def test_star(self):
        fam = star_family(7, 3, (1, 2))
        rep = family_lemma_report(fam, 2)
        assert rep.t_intersecting and rep.support_ok
        assert rep.trace == 5 and rep.elsm == 25
        assert rep.coeffs[2] == 0 and rep.coeffs[3] == 0
        assert first_violating_pair(fam, 2) is None

    def test_fano_is_1_intersecting(self, fano):
        rep = family_lemma_report(fano, 1)
        assert rep.t_intersecting and rep.support_ok
        assert rep.trace == 7 and rep.elsm == 49

    def test_disjoint_pair_flagged(self):
        fam = make_family(7, 3, [[1, 2, 3], [4, 5, 6]])
        rep = family_lemma_report(fam, 1)
        assert not rep.t_intersecting and not rep.support_ok
        assert first_violating_pair(fam, 1) == ((1, 2, 3), (4, 5, 6))

    def test_violating_pair_with_counted_distribution(self):
        # |F| >= 2^k, so the support check reads the shared-subset counts; the
        # first violating pair in member order is as the pair walk finds it
        star = [list(m) for m in star_family(9, 4, (1,)).members]
        for n, k, blocks, t, pair in [
            (10, 3, [list(m) for m in star_family(10, 3, (1, 2)).members]
             + [[1, 3, 4]], 2, ((1, 2, 5), (1, 3, 4))),
            (9, 4, star + [[2, 3, 4, 5]], 1, ((1, 6, 7, 8), (2, 3, 4, 5))),
            (9, 4, star[::-1] + [[2, 3, 4, 5]], 1, ((1, 7, 8, 9), (2, 3, 4, 5))),
        ]:
            fam = make_family(n, k, blocks)
            assert fam.size >= 2 ** k
            rep = family_lemma_report(fam, t)
            assert not rep.t_intersecting and not rep.support_ok
            assert first_violating_pair(fam, t) == pair

    def test_violating_pair_walk_bound(self, monkeypatch):
        # the 28 blocks through 1 and 4 meet every block; the first violating
        # pair, (1,2,3) and (4,5,6), is the first pair of row 28, after
        # 29 + 28 + ... + 2 = 434 pairs.  The counts take 30 * 2^3 = 240 units,
        # so the report needs no walk and is given under either bound.
        blocks = [[1, 4, c] for c in range(2, 31) if c != 4] + [[1, 2, 3], [4, 5, 6]]
        fam = make_family(30, 3, blocks)
        monkeypatch.setattr(projection, "MAX_COUNT_WORK", 434)
        assert first_violating_pair(fam, 1) == ((1, 2, 3), (4, 5, 6))
        monkeypatch.setattr(projection, "MAX_COUNT_WORK", 433)
        with pytest.raises(SizeBudgetError, match="violating pair"):
            first_violating_pair(fam, 1)
        assert not family_lemma_report(fam, 1).t_intersecting

    def test_self_check(self, monkeypatch, fano):
        # a projection that missed its trace or entry sum is a program fault
        monkeypatch.setattr(projection, "trace", lambda v: Fraction(6))
        with pytest.raises(SelfCheckError, match="trace or entry sum"):
            family_lemma_report(fano, 1)
        monkeypatch.undo()
        monkeypatch.setattr(projection, "entry_sum", lambda v: Fraction(7))
        with pytest.raises(SelfCheckError, match="trace or entry sum"):
            family_lemma_report(fano, 1)

    @pytest.mark.parametrize("counted", [False, True])
    @settings(max_examples=75)
    @given(data=st.data())
    def test_intersection_matches_pair_walk(self, counted, data):
        fam = data.draw(families(counted))
        t = data.draw(st.integers(0, fam.k))
        walked = next(((a, b) for i, a in enumerate(fam.members)
                       for b in fam.members[i + 1:]
                       if len(set(a) & set(b)) < t), None)
        assert first_violating_pair(fam, t) == walked
        rep = family_lemma_report(fam, t)
        assert rep.t_intersecting == rep.support_ok == (walked is None)

    def test_report_dict_shape(self, fano):
        doc = family_lemma_report(fano, 1).to_dict()
        assert set(doc) == {"t_intersecting", "support_ok", "trace", "elsm",
                            "coeffs"}
        assert doc["trace"] == "7"
        assert doc["elsm"] == "49"


class TestPreservationAndIdempotence:
    def test_trace_and_sum_preserved_on_corpus(self, fano, sqs8_design):
        for fam in projection_corpus(fano, sqs8_design):
            proj = project_family(fam)
            assert trace(proj) == fam.size
            assert entry_sum(proj) == fam.size ** 2

    def test_idempotence(self, fano):
        proj = project_family(fano)
        again = project_dense(dense(proj), proj.params)
        assert again.coeffs == proj.coeffs

    def test_design_entry_sum_is_square_not_size(self, fano):
        # a projection preserves the sum of entries, so a design of size 7
        # projects to entry sum 49, not 7
        proj = project_family(fano)
        assert entry_sum(proj) == 49 == fano.size ** 2
        assert entry_sum(proj) != fano.size


class TestTomiyamaProperty:
    def test_projection_of_random_psd_is_psd(self):
        rng = random.Random(59)
        for (n, k) in [(6, 3), (7, 2), (7, 3)]:
            p = SchemeParams(n, k)
            for _ in range(2):
                b = [[rng.randint(-2, 2) for _ in range(p.order)]
                     for _ in range(p.order)]
                gram = mat_mul(mat_transpose(b), b)
                rep = psd_report(project_dense(gram, p))
                assert rep.psd, (n, k, rep.min_eigenvalue)


class TestSupportOfIntersectingFamilies:
    def test_star_support_bound(self):
        for (n, k, t) in [(7, 3, 1), (7, 3, 2), (8, 4, 2), (8, 4, 3)]:
            star = star_family(n, k, tuple(range(1, t + 1)))
            proj = project_family(star)
            assert all(proj.coeffs[r] == 0 for r in range(k - t + 1, k + 1))

    def test_empty_like_identity(self):
        p = SchemeParams(7, 3)
        assert basis_vector(p, 0).coeffs[0] == 1
