import json
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jshm import johnson, subsets
from jshm.exact import binom
from jshm.oracles import colex_rank
from jshm.subsets import (
    Family,
    SizeBudgetError,
    colex_tuples,
    family_from_dict,
    family_to_dict,
    load_family,
    make_family,
    star_family,
)


class TestColexRank:
    def test_first(self):
        assert colex_rank((1, 2, 3)) == 0

    def test_second(self):
        assert colex_rank((1, 2, 4)) == 1

    def test_mixed(self):
        # C(1,1) + C(3,2) + C(4,3) = 1 + 3 + 4
        assert colex_rank((2, 4, 5)) == 8

    def test_position_in_enumeration(self):
        ordered = colex_tuples(7, 3)
        assert ordered[8] == (2, 4, 5)
        assert [colex_rank(s) for s in ordered] == list(range(binom(7, 3)))

    def test_tuples_sorted_by_reversal(self):
        # colex compares the largest elements first
        for n in range(1, 10):
            for k in range(0, n + 2):
                expected = sorted(combinations(range(1, n + 1), k), key=lambda s: s[::-1])
                assert colex_tuples(n, k) == expected

    def test_rank_independent_of_n(self):
        s = (2, 4, 5)
        assert colex_tuples(7, 3).index(s) == colex_tuples(12, 3).index(s) == colex_rank(s)

    def test_enumeration_cap(self, monkeypatch):
        # C(7,3) = 35 subsets: admitted at a cap of 35, refused below it
        # before any subset is built
        monkeypatch.setattr(subsets, "MAX_ENUMERATED_SUBSETS", 35)
        assert len(colex_tuples(7, 3)) == 35
        monkeypatch.setattr(subsets, "MAX_ENUMERATED_SUBSETS", 34)
        with pytest.raises(SizeBudgetError, match="enumeration cap"):
            colex_tuples(7, 3)


class TestColexUnrank:
    def test_bijection_exhaustive(self):
        for n in range(1, 10):
            for k in range(1, n + 1):
                ranks = [colex_rank(s) for s in colex_tuples(n, k)]
                assert sorted(ranks) == list(range(binom(n, k)))


@st.composite
def family_inputs(draw):
    """(n, k, members): blocks of up to k distinct elements of [0, n+1],
    sorted (most of them valid) or in any order, and arbitrary tuples of
    [-1, 10]."""
    n, k = draw(st.integers(-1, 9)), draw(st.integers(-1, 6))
    size = min(max(k, 0), max(n, 0) + 2)
    distinct = st.lists(st.integers(0, max(n, 0) + 1), min_size=size, max_size=size,
                        unique=True)
    block = st.one_of(distinct.map(lambda b: tuple(sorted(b))), distinct.map(tuple),
                      st.lists(st.integers(-1, 10), max_size=6).map(tuple))
    return n, k, tuple(draw(st.lists(block, max_size=5)))


def _outcome(build, n, k, members):
    """The ValueError message that build(n, k, members) raises, or None."""
    try:
        build(n, k, members)
    except ValueError as exc:
        return str(exc)
    return None


def _ordered_checks(n, k, members):
    """Family's checks as they were before the combined test: in order, on
    every block."""
    for m in members:
        if len(set(m)) != len(m):
            raise ValueError(f"duplicate element in block {list(m)}")
        if len(m) != k:
            raise ValueError(f"block {list(m)} has size {len(m)}, expected {k}")
        if n < 1:
            raise ValueError(f"ground-set size must be positive, got {n}")
        if not m:
            raise ValueError("empty subset")
        if min(m) < 1 or max(m) > n:
            raise ValueError(f"element out of range [1, {n}]: {m}")
        if list(m) != sorted(m):  # the elements are distinct
            raise ValueError(f"elements must be strictly increasing: {m}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if len(set(members)) != len(members):
        seen = set()
        for m in members:
            if m in seen:
                raise ValueError(f"duplicate block {list(m)}")
            seen.add(m)


class TestKSubsetValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_family(7, 3, [(1, 2, 8)])

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            make_family(7, 3, [(1, 1, 2)])

    def test_make_subset_sorts(self):
        assert make_family(7, 3, [[3, 1, 2]]).members == ((1, 2, 3),)

    def test_family_rejects_unsorted_block(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Family(7, 3, ((2, 1, 3),))

    @settings(max_examples=600, deadline=None)
    @given(family_inputs())
    def test_family_checks_match_the_ordered_checks(self, inputs):
        # Family runs the ordered checks only on a block that fails its one
        # combined test; the reference runs them on every block
        n, k, members = inputs
        assert _outcome(Family, n, k, members) == _outcome(_ordered_checks, n, k, members)


class TestFamilyLoading:
    def test_minimal_document(self):
        fam = family_from_dict({"n": 7, "k": 3, "blocks": [[1, 2, 3]]})
        assert fam.size == 1
        assert fam.members == ((1, 2, 3),)

    def test_blocks_sorted_on_load(self):
        fam = family_from_dict({"n": 7, "k": 3, "blocks": [[3, 1, 2]]})
        assert fam.members == ((1, 2, 3),)

    def test_duplicate_element(self):
        with pytest.raises(ValueError, match="duplicate element"):
            family_from_dict({"n": 7, "k": 3, "blocks": [[1, 1, 2]]})

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            family_from_dict({"n": 7, "k": 3, "blocks": [[1, 2, 8]]})
        with pytest.raises(ValueError, match="out of range"):
            family_from_dict({"n": 7, "k": 3, "blocks": [[0, 1, 2]]})

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

    def test_blocks_in_colex_order(self):
        fam = make_family(7, 3, colex_tuples(7, 3)[::-1])
        assert fam.blocks() == [list(s) for s in colex_tuples(7, 3)]


class TestStarFamily:
    def test_size(self):
        assert star_family(7, 3, (1, 2)).size == 5
        assert star_family(8, 3, (1,)).size == binom(7, 2)

    def test_members_contain_core(self):
        for m in star_family(7, 3, (1, 2)).members:
            assert {1, 2} <= set(m)

    def test_budget(self):
        start = time.perf_counter()
        with pytest.raises(SizeBudgetError, match="enumeration cap"):
            star_family(100, 50, (1,))
        assert time.perf_counter() - start < 1

    def test_budget_boundary(self, monkeypatch):
        # C(6,2) = 15 blocks: admitted at a cap of 15, refused below it
        monkeypatch.setattr(subsets, "MAX_ENUMERATED_SUBSETS", 15)
        assert star_family(7, 3, (1,)).size == 15
        monkeypatch.setattr(subsets, "MAX_ENUMERATED_SUBSETS", 14)
        with pytest.raises(SizeBudgetError):
            star_family(7, 3, (1,))

    def test_traced_peak(self):
        # the blocks are sorted as they are drawn, so one list of them is
        # built: 2.4 MB traced, 4.2 MB with a list of unsorted blocks beside
        tracemalloc.start()
        try:
            fam = star_family(18, 6, ())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fam.size == binom(18, 6) and peak < 3_000_000

    def test_core_is_the_only_block(self):
        start = time.perf_counter()
        fam = star_family(10**30, 3, (3, 1, 2))
        assert fam.members == ((1, 2, 3),)
        assert time.perf_counter() - start < 1

    def test_budget_error_is_one_class(self):
        assert johnson.SizeBudgetError is SizeBudgetError

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            make_family(6, 3, [[1, 2, 3], [1, 2, 3]])
