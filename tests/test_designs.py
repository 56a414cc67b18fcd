import hashlib
import json
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jshm import designs
from jshm.designs import (
    DEFAULT_SEARCH_BUDGET,
    MAX_ADMISSIBLE_SIZES,
    MAX_PACKED_CELLS,
    MAX_SEARCH_ENTRIES,
    NotADesignError,
    _exact_cover,
    _list_cover,
    _packed_cover,
    admissible,
    admissible_range,
    as_design,
    block_count,
    design_matrix,
    design_projection_report,
    excess_sum,
    partition_design,
    search_design,
    verify_design,
)
from jshm.exact import binom, binom_at_int
from jshm.identity import symbolic_side
from jshm.johnson import (
    MAX_TABLE_K,
    MAX_TABLE_N,
    SchemeParams,
    SizeBudgetError,
    basis_vector,
    binomial_inversion,
)
from jshm.oracles import brute_verify_design, exact_cover
from jshm.subsets import (
    MAX_COUNT_WORK,
    MAX_ENUMERATED_SUBSETS,
    colex_tuples,
    make_family,
    star_family,
)

from conftest import FANO_BLOCKS, STS9_BLOCKS

SQS8_BLOCKS = [
    [1, 2, 3, 4], [1, 2, 5, 6], [3, 4, 5, 6], [1, 3, 5, 7], [2, 4, 5, 7],
    [2, 3, 6, 7], [1, 4, 6, 7], [2, 3, 5, 8], [1, 4, 5, 8], [1, 3, 6, 8],
    [2, 4, 6, 8], [1, 2, 7, 8], [3, 4, 7, 8], [5, 6, 7, 8],
]


def _star_blocks(n, k, core):
    return list(star_family(n, k, core).members)


# non-designs (n, k, blocks, t) -> NotADesignError (witness, count, expected),
# as the walk over every t-subset against every block gave them
PINNED_NOT_DESIGNS = [
    ((6, 3, [[1, 2, 3]], 1), ((4,), 0, 1)),
    ((8, 4, _star_blocks(8, 4, (1, 2)), 1), ((3,), 5, 15)),
    ((7, 3, FANO_BLOCKS[1:], 2), ((1, 4), 1, 0)),
    ((7, 3, FANO_BLOCKS[:-1], 2), ((3, 5), 0, 1)),
    ((9, 3, STS9_BLOCKS[:-1] + [[3, 5, 8]], 2), ((3, 7), 0, 1)),
    ((7, 3, _star_blocks(7, 3, (1,)), 2), ((2, 3), 1, 5)),
    ((8, 4, SQS8_BLOCKS[:-1], 3), ((5, 6, 7), 0, 1)),
    ((8, 4, _star_blocks(8, 4, (1, 2)), 3), ((1, 3, 4), 1, 5)),
]


@st.composite
def cover_instances(draw):
    """(columns, rows, budget): random rows of distinct columns, sometimes
    beside a planted exact cover, so that found, not-found and exhausted
    outcomes, empty columns, no rows and ties at sizes 0 and 1 all occur."""
    num_columns = draw(st.integers(0, 12))
    cols = st.lists(st.integers(0, max(num_columns - 1, 0)), max_size=min(num_columns, 4),
                    unique=True)
    rows = draw(st.lists(cols, max_size=25)) if num_columns else []
    if num_columns and draw(st.booleans()):
        parts = draw(st.permutations(range(num_columns)))
        cuts = sorted(draw(st.sets(st.integers(1, num_columns))) | {num_columns})
        planted = [parts[a:b] for a, b in zip([0] + cuts, cuts)]
        rows = draw(st.permutations(rows + planted))
    budget = draw(st.sampled_from([0, 1, 3, 10, DEFAULT_SEARCH_BUDGET]))
    return num_columns, [tuple(sorted(r)) for r in rows], budget


@st.composite
def block_families(draw):
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, min(n, 4)))
    pool = list(combinations(range(1, n + 1), k))
    size = draw(st.integers(0, min(len(pool), 30)))
    return make_family(n, k, draw(st.permutations(pool))[:size])


class TestVerifyDesign:
    def test_fano_is_steiner(self, fano):
        assert verify_design(fano, 2) == 1

    def test_subset_walk_bound(self):
        # C(n,t) above the enumeration cap was refused before the walk; the
        # walk passes only counted t-subsets, so these answer at once
        assert binom(3000, 3) > MAX_ENUMERATED_SUBSETS
        start = time.perf_counter()
        assert verify_design(make_family(3000, 3, []), 3) == 0
        for (n, blocks, t), expected in [
            ((3000, [[1, 2, 3], [4, 5, 6]], 2), ((1, 4), 0, 1)),
            ((3000, [[1, 2, 3], [4, 5, 6]], 1), ((7,), 0, 1)),  # |F| k + 1 points
            ((3000, [[4, 5, 6], [7, 8, 9]], 2), ((4, 5), 1, 0)),  # least counted
            ((10**30, [[1, 2, 3], [1, 2, 10**30]], 2), ((1, 3), 1, 2)),
        ]:
            with pytest.raises(NotADesignError) as exc:
                verify_design(make_family(n, 3, blocks), t)
            assert (exc.value.witness, exc.value.count, exc.value.expected) == expected
        assert time.perf_counter() - start < 0.5
        # a search counts at most C(n,k) C(k,t) t-subsets of its blocks, so
        # the check of any design it finds is admitted too
        assert MAX_SEARCH_ENTRIES <= MAX_COUNT_WORK

    def test_count_bound(self, monkeypatch, fano):
        # |F| C(k,t) = 7 * 3 counted t-subsets: admitted at the bound, refused
        # below it before any is counted
        monkeypatch.setattr(designs, "MAX_COUNT_WORK", 21)
        assert verify_design(fano, 2) == 1
        monkeypatch.setattr(designs, "MAX_COUNT_WORK", 20)
        with pytest.raises(SizeBudgetError, match="count bound"):
            verify_design(fano, 2)
        # refused before counting: the 8*10^6 t-subsets of four 1999-point
        # blocks take 2.5 s to count
        wide = make_family(2000, 1999, [[e for e in range(1, 2001) if e != x]
                                        for x in range(1, 5)])
        start = time.perf_counter()
        with pytest.raises(SizeBudgetError, match="count bound"):
            verify_design(wide, 2)
        assert time.perf_counter() - start < 0.5

    def test_fano_minus_block_fails_with_witness(self, fano):
        broken = make_family(7, 3, fano.members[1:])
        with pytest.raises(NotADesignError) as exc:
            verify_design(broken, 2)
        assert exc.value.count in (0, 1)
        # the witness pair really is covered the reported number of times
        w = set(exc.value.witness)
        covered = sum(1 for m in broken.members if w <= set(m))
        assert covered == exc.value.count

    def test_complete_design(self):
        n, k, t = 6, 3, 2
        fam = make_family(n, k, colex_tuples(n, k))
        assert verify_design(fam, t) == binom(n - t, k - t)

    def test_sts9(self, sts9):
        assert verify_design(sts9, 2) == 1

    def test_pinned_witnesses(self):
        assert verify_design(make_family(8, 4, SQS8_BLOCKS), 3) == 1
        for (n, k, blocks, t), expected in PINNED_NOT_DESIGNS:
            with pytest.raises(NotADesignError) as exc:
                verify_design(make_family(n, k, blocks), t)
            got = (exc.value.witness, exc.value.count, exc.value.expected)
            assert got == expected, (n, k, t)

    @settings(max_examples=200)
    @given(block_families(), st.data())
    def test_matches_subset_walk(self, fam, data):
        t = data.draw(st.integers(0, fam.k))
        try:
            expected = brute_verify_design(fam, t)
        except NotADesignError as exc:
            with pytest.raises(NotADesignError) as got:
                verify_design(fam, t)
            assert ((got.value.witness, got.value.count, got.value.expected)
                    == (exc.witness, exc.count, exc.expected))
        else:
            assert verify_design(fam, t) == expected

    def test_counted_not_walked(self):
        # all pairs of 150 points, a 2-(150,2,1) design: 11 175 t-subsets
        # against 11 175 blocks took 8.7 s as a walk
        fam = make_family(150, 2, combinations(range(1, 151), 2))
        start = time.perf_counter()
        assert verify_design(fam, 2) == 1
        assert time.perf_counter() - start < 1.0


class TestBlockCountFormula:
    def test_strength_index_is_one(self):
        assert block_count(7, 3, 2, 2) == 1

    def test_fano_values(self):
        assert block_count(7, 3, 2, 0) == 7
        assert block_count(7, 3, 2, 1) == 3

    def test_sts9_point_count(self):
        assert block_count(9, 3, 2, 1) == 4

    def test_matches_actual_counts(self, fano_design, sts9_design, sqs8_design):
        for design in (fano_design, sts9_design, sqs8_design):
            fam = design.family
            for i in range(design.t + 1):
                expected = block_count(fam.n, fam.k, design.t, i)
                for sub in combinations(range(1, fam.n + 1), i):
                    w = set(sub)
                    cnt = sum(1 for m in fam.members if w <= set(m))
                    assert cnt == expected


class TestExcessSum:
    def test_vanishes_at_strength(self):
        for (n, k, t) in [(7, 3, 2), (9, 3, 2), (8, 4, 3), (12, 4, 1)]:
            assert excess_sum(n, k, t, t) == 0

    def test_fano_parameters(self):
        assert [excess_sum(7, 3, 2, s) for s in range(3)] == [0, 6, 0]

    def test_cached_inversion_is_binomial_inversion(self):
        # g is read through the inversion's coefficients, kept once per
        # (k, t); it must be the inversion of C(k, i) (l_i - l_t) at every size
        for k in range(1, 13):
            for t in range(k + 1):
                for n in (2 * k, 3 * k + 1, 10**6 + 7):
                    e, lam, g = designs._excess_numerators(binom_at_int(n), k, t)
                    assert g == binomial_inversion(
                        [binom(k, i) * (x - lam[t]) for i, x in enumerate(lam)]), (n, k, t)

    def test_sts9_parameters(self):
        assert [excess_sum(9, 3, 2, s) for s in range(3)] == [2, 9, 0]


class TestDesignMatrix:
    def test_fano_parameters(self):
        assert design_matrix(7, 3, 2).coeffs == (0, 0, Fraction(1, 3), 0)

    def test_sts9_parameters(self):
        assert design_matrix(9, 3, 2).coeffs == (
            0, 0, Fraction(1, 5), Fraction(1, 10))

    def test_strength_one_closed_form(self):
        for k in range(2, 6):
            for n in range(2 * k, 15):
                m = design_matrix(n, k, 1)
                expected = basis_vector(SchemeParams(n, k), k).scale(
                    Fraction(1, binom(n - k - 1, k - 1)))
                assert m.coeffs == expected.coeffs

    def test_support(self):
        for (n, k, t) in [(7, 3, 2), (9, 3, 2), (8, 4, 3), (10, 5, 2), (12, 5, 4)]:
            m = design_matrix(n, k, t)
            assert all(m.coeffs[r] == 0 for r in range(0, k - t))
            assert m.coeffs[k - t] == 0  # the strength-index excess vanishes

    def test_out_of_regime(self):
        with pytest.raises(ValueError, match="regime"):
            design_matrix(5, 3, 1)

    def test_table_bound(self):
        for n, k, t in [(10**7, 10**6, 10**6 - 1), (1000, MAX_TABLE_K + 1, 2),
                        (MAX_TABLE_N, 3, 2)]:
            with pytest.raises(SizeBudgetError):
                design_matrix(n, k, t)
        top = design_matrix(MAX_TABLE_N - 1, MAX_TABLE_K, MAX_TABLE_K - 1)
        assert top.params == SchemeParams(MAX_TABLE_N - 1, MAX_TABLE_K)

    def test_symbolic_matches_numeric(self):
        # the symbolic M reduces integer polynomials over binom_zpoly(k), the
        # numeric M makes one Fraction per coefficient from integers over
        # binom_at_int: every t < k, every 2k <= n <= 25 for k <= 8, and three
        # sizes each for k = 12, 16, 24.  Every numeric coefficient is a
        # Fraction, which to_json writes as a string.
        for k in [*range(2, 9), 12, 16, 24]:
            sizes = range(2 * k, 26) if k <= 8 else (2 * k, 3 * k + 1, 10**6 + 7)
            for t in range(k):
                sym = symbolic_side("m", k, t)
                for n in sizes:
                    num = design_matrix(n, k, t).coeffs
                    assert tuple(f.evaluate(n) for f in sym) == num, (n, k, t)
                    assert all(type(c) is Fraction for c in num), (n, k, t)


class TestDesignProjectionIdentity:
    def test_fano(self, fano_design):
        rep = design_projection_report(fano_design)
        assert rep.verified
        assert rep.projection == (Fraction(1, 5), 0, Fraction(1, 15), 0)
        assert rep.scaled_identity_plus_m == rep.projection

    def test_sts9(self, sts9_design):
        assert design_projection_report(sts9_design).verified

    def test_sqs8(self, sqs8_design):
        assert design_projection_report(sqs8_design).verified

    def test_partition_6_3(self):
        rep = design_projection_report(partition_design(6, 3))
        assert rep.verified
        assert rep.projection == (Fraction(1, 10), 0, 0, Fraction(1, 10))

    def test_partitions_up_to_12(self):
        for k in range(2, 7):
            for n in range(2 * k, 13, k):
                assert design_projection_report(partition_design(n, k)).verified

    def test_rejects_non_steiner(self):
        n, k = 6, 3
        fam = make_family(n, k, colex_tuples(n, k))
        with pytest.raises(ValueError, match="Steiner"):
            design_projection_report(as_design(fam, 2))

    # design -> its report document, keys sorted, as the hand-written
    # to_dict gave it before exact.to_json
    PINNED_DOCS = {
        "fano": '{"elsm_ok": true, "k": 3, "n": 7, "projection": ["1/5", "0", "1/15", "0"], "relation_ok": true, "scaled_identity_plus_m": ["1/5", "0", "1/15", "0"], "size": 7, "t": 2, "trace_ok": true, "verified": true}',
        "sts9": '{"elsm_ok": true, "k": 3, "n": 9, "projection": ["1/7", "0", "1/35", "1/70"], "relation_ok": true, "scaled_identity_plus_m": ["1/7", "0", "1/35", "1/70"], "size": 12, "t": 2, "trace_ok": true, "verified": true}',
        "sqs8": '{"elsm_ok": true, "k": 4, "n": 8, "projection": ["1/5", "0", "1/15", "0", "1/5"], "relation_ok": true, "scaled_identity_plus_m": ["1/5", "0", "1/15", "0", "1/5"], "size": 14, "t": 3, "trace_ok": true, "verified": true}',
        "partition 6,3": '{"elsm_ok": true, "k": 3, "n": 6, "projection": ["1/10", "0", "0", "1/10"], "relation_ok": true, "scaled_identity_plus_m": ["1/10", "0", "0", "1/10"], "size": 2, "t": 1, "trace_ok": true, "verified": true}',
        "partition 8,2": '{"elsm_ok": true, "k": 2, "n": 8, "projection": ["1/7", "0", "1/35"], "relation_ok": true, "scaled_identity_plus_m": ["1/7", "0", "1/35"], "size": 4, "t": 1, "trace_ok": true, "verified": true}',
    }

    @pytest.mark.parametrize("name", sorted(PINNED_DOCS))
    def test_pinned_document(self, name):
        design = {
            "fano": lambda: as_design(make_family(7, 3, FANO_BLOCKS), 2),
            "sts9": lambda: as_design(make_family(9, 3, STS9_BLOCKS), 2),
            "sqs8": lambda: as_design(make_family(8, 4, SQS8_BLOCKS), 3),
            "partition 6,3": lambda: partition_design(6, 3),
            "partition 8,2": lambda: partition_design(8, 2),
        }[name]()
        doc = design_projection_report(design).to_dict()
        assert json.dumps(doc, sort_keys=True) == self.PINNED_DOCS[name]


# (n, k, t, budget) -> (status, nodes, first 16 hex digits of the sha256 of
# the JSON block list), as the linked-node dancing-links search gave them;
# budget None is the default
PINNED_SEARCHES = {
    (7, 3, 2, None): ("found", 7, "43c4f6b755c76210"),
    (9, 3, 2, None): ("found", 12, "907a581331ee466e"),
    (8, 4, 3, None): ("found", 14, "f8784093e7d5482b"),
    (10, 4, 3, None): ("found", 30, "7f4f1b8c4e23633e"),
    (13, 4, 2, None): ("found", 13, "5c67ef28f77813ac"),
    (15, 3, 2, None): ("found", 35, "436f0bd2298ff244"),
    (19, 3, 2, None): ("found", 57, "6b6c575fa5bbf3f2"),
    (16, 4, 2, None): ("found", 28, "3875ec18445f7231"),
    (12, 6, 5, None): ("found", 132, "6480f77b3209906b"),
    (21, 5, 2, None): ("found", 21, "4b51faed948a01ad"),
    (25, 5, 2, None): ("found", 205, "9389c161bce9cc36"),
    # 990 columns by 14 190 rows, above MAX_PACKED_CELLS: the list kernel, and
    # the same nodes and blocks as oracles.exact_cover
    (45, 3, 2, None): ("found", 351, "5baa858f3d2776d8"),
    (5, 5, 5, None): ("found", 1, "05b245f79a23de6a"),
    (6, 2, 1, None): ("found", 3, "dfcd6ae0bc2228de"),
    (4, 1, 1, None): ("found", 4, "1af3813c7227d698"),
    (6, 3, 2, None): ("not-found", 12, None),
    (8, 3, 2, None): ("not-found", 78, None),
    (10, 3, 2, None): ("not-found", 632, None),
    (12, 4, 2, None): ("not-found", 6660, None),
    (14, 4, 3, None): ("found", 53495, "a2ae93222ba8916f"),
    (9, 3, 2, 0): ("budget-exhausted", 1, None),
    (9, 3, 2, 1): ("budget-exhausted", 2, None),
    (9, 3, 2, 2): ("budget-exhausted", 3, None),
    (12, 6, 5, 0): ("budget-exhausted", 1, None),
    (12, 6, 5, 1): ("budget-exhausted", 2, None),
    (12, 6, 5, 2): ("budget-exhausted", 3, None),
    (6, 3, 2, 2): ("budget-exhausted", 3, None),
    (5, 5, 5, 0): ("budget-exhausted", 1, None),
    (5, 5, 5, 1): ("found", 1, "05b245f79a23de6a"),
    (4, 1, 1, 3): ("budget-exhausted", 4, None),
    (4, 1, 1, 4): ("found", 4, "1af3813c7227d698"),
    (7, 3, 2, 6): ("budget-exhausted", 7, None),
    (7, 3, 2, 7): ("found", 7, "43c4f6b755c76210"),
    (8, 3, 2, 77): ("budget-exhausted", 78, None),
    (8, 3, 2, 78): ("not-found", 78, None),
    (10, 3, 2, 100): ("budget-exhausted", 101, None),
    (14, 4, 3, 1000): ("budget-exhausted", 1001, None),
    (16, 4, 3, 2000): ("budget-exhausted", 2001, None),
}


class TestSearchDesign:
    def test_pinned_outcomes(self):
        for (n, k, t, budget), expected in PINNED_SEARCHES.items():
            if budget is None:
                out = search_design(n, k, t)
            else:
                out = search_design(n, k, t, budget)
            digest = None
            if out.design is not None:
                blocks = out.design.family.blocks()
                # the blocks read back from the walk are members in colex order
                assert [list(m) for m in out.design.family.members] == blocks
                digest = hashlib.sha256(json.dumps(blocks).encode()).hexdigest()[:16]
            assert (out.status, out.nodes, digest) == expected, (n, k, t, budget)

    @settings(max_examples=400)
    @given(cover_instances())
    def test_matches_the_dict_of_sets_search(self, instance):
        # the packed counts, and the byte map and covered offset of the list
        # kernel, choose as the fewest-rows column of a dict of row sets
        # does: same outcome, rows and node count
        num_columns, rows, budget = instance
        expected = exact_cover(*instance)
        col_rows = [[r for r, cols in enumerate(rows) if c in cols]
                    for c in range(num_columns)]
        assert _exact_cover(*instance) == expected
        for kernel in (_packed_cover, _list_cover):
            assert kernel(rows, col_rows, budget) == expected

    @pytest.mark.parametrize("column_rows", [254, 255])
    def test_dispatch_on_the_rows_of_a_column(self, monkeypatch, column_rows):
        # column 0 lies in column_rows rows, the last of which also covers
        # column 1; a count of 255 would read as covered, so the list kernel
        # takes it
        rows = [(0,)] * (column_rows - 1) + [(0, 1)]
        ran = self._spy_kernels(monkeypatch)
        got = _exact_cover(2, rows, DEFAULT_SEARCH_BUDGET)
        assert got == ("found", [column_rows - 1], 1) == exact_cover(2, rows, DEFAULT_SEARCH_BUDGET)
        assert ran == ["packed" if column_rows < 255 else "list"]

    @pytest.mark.parametrize("extra", [0, 1])
    def test_dispatch_on_the_cells(self, monkeypatch, extra):
        # 2048 columns; row 0 covers columns 0 and 1, the others one column
        # each, from column 1 - extra on: rows * columns is MAX_PACKED_CELLS,
        # or one column more.  The one-row columns go first, in order, and
        # row 0 last, unless column 0 has one row (extra = 0) and goes first.
        num_columns = 2048
        rows = [(0, 1)] + [(c,) for c in range(1 - extra, num_columns)]
        assert len(rows) * num_columns == MAX_PACKED_CELLS + extra * num_columns
        chosen = list(range(3, num_columns + 1)) + [0] if extra else \
            [0] + list(range(2, num_columns))
        expected = ("found", chosen, num_columns - 1)
        ran = self._spy_kernels(monkeypatch)
        assert _exact_cover(num_columns, rows, DEFAULT_SEARCH_BUDGET) == expected
        assert ran == ["list" if extra else "packed"]
        col_rows = [[] for _ in range(num_columns)]
        for r, cols in enumerate(rows):
            for c in cols:
                col_rows[c].append(r)
        for kernel in (_packed_cover, _list_cover):
            assert kernel(rows, col_rows, DEFAULT_SEARCH_BUDGET) == expected

    @staticmethod
    def _spy_kernels(monkeypatch):
        ran = []
        for name, kernel in (("packed", _packed_cover), ("list", _list_cover)):
            def spy(*args, name=name, kernel=kernel):
                ran.append(name)
                return kernel(*args)
            monkeypatch.setattr(designs, f"_{name}_cover", spy)
        return ran

    def test_deeper_than_the_recursion_limit(self):
        # the complete 2-(50,2,1) design chooses all 1225 pairs, one level each
        out = search_design(50, 2, 2)
        assert out.status == "found" and out.nodes == 1225

    def test_traced_peak_of_a_search(self):
        # rows are tuples built from the decreasing subsets and only the
        # chosen blocks are read back from a second walk: about 5.2 MB
        # traced, 8.5 MB with a list of all k-subsets beside list rows
        tracemalloc.start()
        try:
            out = search_design(21, 5, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.status == "found" and peak < 6_000_000

    def test_row_entry_bound(self):
        # C(25,5) * C(5,2) = 531 300 entries is admitted (pinned above)
        with pytest.raises(SizeBudgetError):
            search_design(60, 10, 2)
        assert binom(30, 5) * binom(5, 2) > MAX_SEARCH_ENTRIES
        with pytest.raises(SizeBudgetError):
            search_design(30, 5, 2)

    def test_column_index_bound(self):
        # 999 000 row entries pass the row bound, but the column index would
        # hold C(1000,998) = 499 500 tuples of 998 points, about 4 GB
        assert binom(1000, 999) * binom(999, 998) <= MAX_SEARCH_ENTRIES
        start = time.perf_counter()
        with pytest.raises(SizeBudgetError, match="t-subset index"):
            search_design(1000, 999, 998)
        assert time.perf_counter() - start < 1
        with pytest.raises(SizeBudgetError, match="t-subset index"):
            search_design(200, 199, 198)
        # k = t builds no index, so its worst case stays admitted
        assert search_design(71, 4, 4, 0).status == "budget-exhausted"

    def test_k_equals_t_matches_the_search(self):
        # for k = t the outcome is taken without running the search
        for n in range(1, 10):
            for k in range(1, n + 1):
                subsets = colex_tuples(n, k)
                rows = [[i] for i in range(len(subsets))]
                total = len(subsets)
                for budget in {-1, 0, 1, total - 1, total, DEFAULT_SEARCH_BUDGET}:
                    status, chosen, nodes = _exact_cover(total, rows, budget)
                    blocks = None if chosen is None else [subsets[r] for r in sorted(chosen)]
                    out = search_design(n, k, k, budget)
                    got = None if out.design is None else list(out.design.family.members)
                    assert (out.status, out.nodes, got) == (status, nodes, blocks), \
                        (n, k, budget)

    def test_k_equals_t_design_is_steiner(self):
        # lambda = 1 is taken, not counted: the walked oracle agrees
        for n in range(1, 10):
            for k in range(1, n + 1):
                design = search_design(n, k, k).design
                assert design.lam == brute_verify_design(design.family, k) == 1, (n, k)

    def test_k_equals_t_is_not_searched(self):
        # a search node took the minimum over all C(n,t) columns: 2.2 s on 2 vCPUs
        start = time.perf_counter()
        out = search_design(40, 3, 3)
        assert time.perf_counter() - start < 1.0
        assert out.status == "found" and out.nodes == out.design.size == binom(40, 3)

    def test_fano_parameters(self):
        out = search_design(7, 3, 2)
        assert out.status == "found"
        assert out.design.size == 7
        assert out.design.lam == 1

    def test_sts9_parameters(self):
        out = search_design(9, 3, 2)
        assert out.status == "found" and out.design.size == 12

    def test_sqs8_parameters(self):
        out = search_design(8, 4, 3)
        assert out.status == "found" and out.design.size == 14

    def test_deterministic_witness(self):
        a = search_design(9, 3, 2)
        b = search_design(9, 3, 2)
        assert a.design.family.blocks() == b.design.family.blocks()
        assert a.nodes == b.nodes

    def test_budget_exhaustion(self):
        out = search_design(9, 3, 2, budget=2)
        assert out.status == "budget-exhausted"
        assert out.design is None
        assert out.nodes == 3  # first expansion past the budget

    def test_exhaustive_absence(self):
        # no 2-(8,3,1) design exists; the search space is small enough to prove it
        out = search_design(8, 3, 2)
        assert out.status == "not-found"

    def test_found_designs_verify(self):
        for (n, k, t) in [(7, 3, 2), (9, 3, 2), (8, 4, 3)]:
            design = search_design(n, k, t).design
            assert verify_design(design.family, t) == 1


class TestAdmissible:
    def test_fano_parameters(self):
        assert admissible(7, 3, 2)

    def test_eight_points_inadmissible(self):
        assert not admissible(8, 3, 2)

    def test_triple_system_range(self):
        assert admissible_range(3, 2, 20) == [7, 9, 13, 15, 19]

    def test_size_bounds(self):
        assert len(admissible_range(3, 2, 3 + MAX_ADMISSIBLE_SIZES)) == 333
        with pytest.raises(SizeBudgetError):
            admissible_range(3, 2, 4 + MAX_ADMISSIBLE_SIZES)
        with pytest.raises(SizeBudgetError):
            admissible_range(3, 2, 10**10)
        assert admissible(MAX_TABLE_N - 1, MAX_TABLE_K, MAX_TABLE_K)
        with pytest.raises(SizeBudgetError):
            admissible(MAX_TABLE_N, 3, 2)
        with pytest.raises(SizeBudgetError):
            admissible(10**7, 10**6, MAX_TABLE_K + 1)

    def test_necessary_for_found_designs(self):
        for (n, k, t) in [(7, 3, 2), (9, 3, 2), (8, 4, 3)]:
            assert search_design(n, k, t).status == "found"
            assert admissible(n, k, t)
