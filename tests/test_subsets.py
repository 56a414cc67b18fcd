import json
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jshm.exact import binom
from jshm.subsets import (
    KSubset,
    all_ksubsets,
    colex_rank,
    colex_tuples,
    colex_unrank,
    family_from_dict,
    family_to_dict,
    inter_size,
    load_family,
    make_family,
    make_subset,
    star_family,
)


class TestColexRank:
    def test_first(self):
        assert colex_rank(KSubset(7, (1, 2, 3))) == 0

    def test_second(self):
        assert colex_rank(KSubset(7, (1, 2, 4))) == 1

    def test_mixed(self):
        # C(1,1) + C(3,2) + C(4,3) = 1 + 3 + 4
        assert colex_rank(KSubset(7, (2, 4, 5))) == 8

    def test_position_in_enumeration(self):
        ordered = all_ksubsets(7, 3)
        assert ordered[8].elements == (2, 4, 5)
        assert [colex_rank(s) for s in ordered] == list(range(binom(7, 3)))

    def test_tuples_sorted_by_reversal(self):
        # colex compares the largest elements first
        for n in range(1, 10):
            for k in range(0, n + 2):
                expected = sorted(combinations(range(1, n + 1), k), key=lambda s: s[::-1])
                assert colex_tuples(n, k) == expected

    def test_rank_independent_of_n(self):
        assert colex_rank(KSubset(7, (2, 4, 5))) == colex_rank(KSubset(12, (2, 4, 5)))


class TestColexUnrank:
    def test_first(self):
        assert colex_unrank(0, 3, 7).elements == (1, 2, 3)

    def test_inverse_of_example(self):
        assert colex_unrank(8, 3, 7).elements == (2, 4, 5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            colex_unrank(binom(7, 3), 3, 7)
        with pytest.raises(ValueError):
            colex_unrank(-1, 3, 7)

    def test_roundtrip_7_3(self):
        for s in all_ksubsets(7, 3):
            assert colex_unrank(colex_rank(s), 3, 7) == s

    def test_bijection_exhaustive(self):
        for n in range(1, 10):
            for k in range(1, n + 1):
                ranks = [colex_rank(s) for s in all_ksubsets(n, k)]
                assert sorted(ranks) == list(range(binom(n, k)))

    @given(st.integers(1, 9))
    def test_unrank_rank_roundtrip(self, n):
        for k in range(1, n + 1):
            for r in range(binom(n, k)):
                assert colex_rank(colex_unrank(r, k, n)) == r


class TestInterSize:
    def test_self(self):
        s = KSubset(7, (1, 2, 3))
        assert inter_size(s, s) == 3

    def test_disjoint(self):
        assert inter_size(KSubset(7, (1, 2, 3)), KSubset(7, (4, 5, 6))) == 0

    def test_partial(self):
        assert inter_size(KSubset(7, (1, 2, 3)), KSubset(7, (2, 3, 7))) == 2

    def test_mismatched_parameters(self):
        with pytest.raises(ValueError):
            inter_size(KSubset(7, (1, 2, 3)), KSubset(8, (1, 2, 3)))
        with pytest.raises(ValueError):
            inter_size(KSubset(7, (1, 2, 3)), KSubset(7, (1, 2)))

    def test_symmetry_and_bounds(self):
        n, k = 7, 3
        subsets = all_ksubsets(n, k)
        for s in subsets[::7]:
            for t in subsets[::5]:
                v = inter_size(s, t)
                assert v == inter_size(t, s)
                assert 0 <= k - v <= min(k, n - k)


class TestKSubsetValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            KSubset(7, (1, 2, 8))

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            KSubset(7, (1, 1, 2))

    def test_make_subset_sorts(self):
        assert make_subset(7, [3, 1, 2]).elements == (1, 2, 3)


class TestFamilyLoading:
    def test_minimal_document(self):
        fam = family_from_dict({"n": 7, "k": 3, "blocks": [[1, 2, 3]]})
        assert fam.size == 1
        assert fam.members[0].elements == (1, 2, 3)

    def test_blocks_sorted_on_load(self):
        fam = family_from_dict({"n": 7, "k": 3, "blocks": [[3, 1, 2]]})
        assert fam.members[0].elements == (1, 2, 3)

    def test_duplicate_element(self):
        with pytest.raises(ValueError, match="duplicate element"):
            family_from_dict({"n": 7, "k": 3, "blocks": [[1, 1, 2]]})

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            family_from_dict({"n": 7, "k": 3, "blocks": [[1, 2, 8]]})

    def test_wrong_block_size(self):
        with pytest.raises(ValueError, match="size"):
            family_from_dict({"n": 7, "k": 3, "blocks": [[1, 2]]})

    def test_duplicate_block(self):
        with pytest.raises(ValueError, match="duplicate block"):
            family_from_dict({"n": 7, "k": 3, "blocks": [[1, 2, 3], [3, 2, 1]]})

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing key"):
            family_from_dict({"n": 7, "blocks": []})

    def test_file_roundtrip(self, tmp_path):
        doc = {"n": 7, "k": 3, "blocks": [[4, 5, 6], [1, 2, 3]]}
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        fam = load_family(str(path))
        assert family_to_dict(fam) == {"n": 7, "k": 3,
                                       "blocks": [[1, 2, 3], [4, 5, 6]]}


class TestStarFamily:
    def test_size(self):
        assert star_family(7, 3, (1, 2)).size == 5
        assert star_family(8, 3, (1,)).size == binom(7, 2)

    def test_members_contain_core(self):
        for m in star_family(7, 3, (1, 2)).members:
            assert {1, 2} <= set(m.elements)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            make_family(6, 3, [[1, 2, 3], [1, 2, 3]])
