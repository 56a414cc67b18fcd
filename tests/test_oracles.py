import ast
import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

import jshm
from jshm import oracles
from jshm.exact import binom
from jshm.johnson import (
    BMVector,
    SchemeParams,
    SizeBudgetError,
    all_ones_vector,
    basis_vector,
    dense,
    eigenvalues,
    identity_vector,
    multiplicities,
)
from jshm.oracles import brute_projection, compatibility, float_spectrum, max_family
from jshm.projection import project_family
from jshm.subsets import colex_tuples, make_family, subset_mask

from conftest import projection_corpus


class TestFloatSpectrum:
    def test_identity(self):
        got = float_spectrum(dense(identity_vector(SchemeParams(4, 2))))
        assert got == pytest.approx([1.0] * 6)

    def test_petersen(self):
        got = float_spectrum(dense(basis_vector(SchemeParams(5, 2), 2)))
        expected = [3.0] + [1.0] * 5 + [-2.0] * 4
        assert got == pytest.approx(expected, abs=1e-8)

    def test_rank_one(self):
        got = float_spectrum(dense(all_ones_vector(SchemeParams(5, 2))))
        assert got == pytest.approx([10.0] + [0.0] * 9, abs=1e-8)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            float_spectrum([[0, 1], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            float_spectrum([[0, 1]])

    def test_ragged_and_asymmetric_names_the_pair(self):
        # the first pair met is asymmetric, before the short last row
        with pytest.raises(ValueError, match=r"symmetric at \(1,0\)"):
            float_spectrum([[0, 1, 0], [0, 0, 0], [0, 0]])

    def test_distinct_equal_entries(self):
        params = SchemeParams(6, 3)
        v = BMVector(params, (Fraction(7, 3), Fraction(-1, 2), 0, Fraction(5, 4)))
        shared = dense(v)
        copies = [[Fraction(x.numerator, x.denominator) for x in row] for row in shared]
        assert all(a is not b for a, b in zip(shared[0], copies[0]))
        got = float_spectrum(copies)
        assert got == float_spectrum(shared)
        exact = sorted((float(theta) for theta, m in zip(eigenvalues(v), multiplicities(6, 3))
                        for _ in range(m)), reverse=True)
        assert got == pytest.approx(exact, abs=1e-8)


# (n, k, t, budget) -> (size, nodes, optimal, first 16 hex digits of the
# sha256 of the JSON witness blocks), as the colouring that recorded every
# class gave them; budget None is the default
PINNED_MAX_FAMILIES = {
    (7, 3, 2, None): (5, 16, True, "4ed56c6d693afce1"),
    (7, 3, 2, 0): (0, 1, False, "4f53cda18c2baa0c"),
    (7, 3, 2, 1): (0, 2, False, "4f53cda18c2baa0c"),
    (7, 3, 2, 15): (5, 16, False, "4ed56c6d693afce1"),
    (8, 4, 2, None): (17, 1045, True, "e559b6e80aafab45"),
    (8, 4, 2, 0): (0, 1, False, "4f53cda18c2baa0c"),
    (8, 4, 2, 1): (0, 2, False, "4f53cda18c2baa0c"),
    (8, 4, 2, 1044): (17, 1045, False, "e559b6e80aafab45"),
    (9, 4, 2, None): (21, 3571, True, "65db4b806554cb36"),
    (9, 4, 2, 0): (0, 1, False, "4f53cda18c2baa0c"),
    (9, 4, 2, 1): (0, 2, False, "4f53cda18c2baa0c"),
    (9, 4, 2, 3570): (21, 3571, False, "65db4b806554cb36"),
    (10, 4, 2, None): (28, 4511, True, "196b69f8cd0b64ab"),
    (10, 4, 2, 0): (0, 1, False, "4f53cda18c2baa0c"),
    (10, 4, 2, 1): (0, 2, False, "4f53cda18c2baa0c"),
    (10, 4, 2, 35): (28, 36, False, "196b69f8cd0b64ab"),
    (10, 4, 2, 4510): (28, 4511, False, "196b69f8cd0b64ab"),
    (11, 5, 3, None): (31, 20120, True, "feb5fbd707be3c76"),
    (11, 5, 3, 0): (0, 1, False, "4f53cda18c2baa0c"),
    (11, 5, 3, 1): (0, 2, False, "4f53cda18c2baa0c"),
    (11, 5, 3, 20): (0, 21, False, "4f53cda18c2baa0c"),
    (11, 5, 3, 35): (31, 36, False, "feb5fbd707be3c76"),
    (11, 5, 3, 20119): (31, 20120, False, "feb5fbd707be3c76"),
    (12, 4, 2, None): (45, 14615, True, "115ed8fb5755d9f5"),
    (12, 4, 2, 0): (0, 1, False, "4f53cda18c2baa0c"),
    (12, 4, 2, 1): (0, 2, False, "4f53cda18c2baa0c"),
    (12, 4, 2, 50): (45, 51, False, "115ed8fb5755d9f5"),
    (12, 4, 2, 14614): (45, 14615, False, "115ed8fb5755d9f5"),
    # C(k,t) = 252 above V/2 = 33
    (12, 10, 5, None): (66, 66, True, "22dc7a2c20f3a50f"),
    (12, 10, 5, 0): (0, 1, False, "4f53cda18c2baa0c"),
    (12, 10, 5, 1): (0, 2, False, "4f53cda18c2baa0c"),
    (12, 10, 5, 65): (0, 66, False, "4f53cda18c2baa0c"),
}


def test_compatibility_is_the_pairwise_definition():
    for n in range(1, 10):
        for k in range(n + 1):
            subsets = colex_tuples(n, k)
            # max_family's order: decreasing tuples in reverse colex order
            descending = [s[::-1] for s in reversed(subsets)]
            for order in (subsets, descending):
                masks = [subset_mask(s) for s in order]
                for t in range(k + 1):
                    expected = [sum(1 << b for b, mb in enumerate(masks)
                                    if b != a and (ma & mb).bit_count() >= t)
                                for a, ma in enumerate(masks)]
                    assert compatibility(order, n, t) == expected, (n, k, t, order[:1])


def _outcome(res):
    digest = hashlib.sha256(json.dumps(res.blocks).encode()).hexdigest()[:16]
    return res.size, res.nodes, res.optimal, digest


class TestMaxFamily:
    def test_pinned_outcomes(self):
        for (n, k, t, budget), expected in PINNED_MAX_FAMILIES.items():
            if budget is None:
                res = max_family(n, k, t)
            else:
                res = max_family(n, k, t, budget)
            assert _outcome(res) == expected, (n, k, t, budget)
            # colex order: increasing tuples, increasing masks
            masks = [subset_mask(b) for b in res.blocks]
            assert all(list(b) == sorted(b) for b in res.blocks), (n, k, t, budget)
            assert all(a < b for a, b in zip(masks, masks[1:])), (n, k, t, budget)

    def test_pinned_outcomes_with_a_tiny_table(self, monkeypatch):
        # a full table stops filing subtrees and changes nothing else
        monkeypatch.setattr(oracles, "MAX_FINISHED_SUBTREES", 3)
        for (n, k, t, budget), expected in PINNED_MAX_FAMILIES.items():
            res = max_family(n, k, t) if budget is None else max_family(n, k, t, budget)
            assert _outcome(res) == expected, (n, k, t, budget)

    def test_table_matches_the_plain_search_at_every_budget(self, monkeypatch):
        # budgets spread over the whole search of (10,4,2), where 604
        # subtrees are recalled and 12 of these 41 budgets run out inside
        # one; a table of bound 0 is the plain search
        total = max_family(10, 4, 2).nodes
        budgets = sorted({total * i // 39 for i in range(40)} | {total - 1, total})
        with_table = [max_family(10, 4, 2, b) for b in budgets]
        monkeypatch.setattr(oracles, "MAX_FINISHED_SUBTREES", 0)
        for budget, res in zip(budgets, with_table):
            plain = max_family(10, 4, 2, budget)
            assert (res.size, res.nodes, res.optimal, res.blocks) == (
                plain.size, plain.nodes, plain.optimal, plain.blocks), budget
            assert res.optimal == (budget >= total), budget

    def test_recalled_subtrees_keep_a_long_search_short(self):
        # 320 826 expansions, most of them inside recalled subtrees; the
        # plain search takes about 20 times as long
        start = time.perf_counter()
        result = max_family(16, 4, 2)
        assert time.perf_counter() - start < 5.0
        assert _outcome(result) == (91, 320826, True, "bf89df60645e9e1b")

    def test_adjacency_cost_does_not_grow_with_shared_subsets(self):
        # 190 vertices, each with C(18,9) = 48 620 9-subsets: the pair walk
        # makes V^2/2 popcounts whatever C(k,t) is
        start = time.perf_counter()
        result = max_family(20, 18, 9)
        assert time.perf_counter() - start < 1.0
        assert result.size == 190 and result.optimal

    @pytest.mark.parametrize("n,k,t,expected", [
        (6, 3, 2, 4),
        (7, 3, 2, 5),
        (8, 3, 1, 21),
        (9, 3, 2, 7),
    ])
    def test_known_maxima(self, n, k, t, expected):
        result = max_family(n, k, t)
        assert result.optimal
        assert result.size == expected == binom(n - t, k - t)

    def test_witness_is_t_intersecting(self):
        result = max_family(7, 3, 2)
        members = result.blocks
        assert len(members) == result.size
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                assert len(set(a) & set(b)) >= 2

    def test_deterministic(self):
        a = max_family(9, 3, 2)
        b = max_family(9, 3, 2)
        assert a.blocks == b.blocks
        assert a.nodes == b.nodes

    def test_witness_projection_support(self):
        # maximal witnesses are t-intersecting, so their projections must
        # vanish on the top t classes
        for (n, k, t) in [(6, 3, 2), (7, 3, 2), (8, 3, 1), (9, 3, 2)]:
            proj = project_family(make_family(n, k, max_family(n, k, t).blocks))
            assert all(proj.coeffs[r] == 0 for r in range(k - t + 1, k + 1))

    def test_budget_exhaustion(self):
        result = max_family(8, 3, 1, budget=5)
        assert not result.optimal
        assert result.size <= 21

    def test_result_json(self):
        doc = max_family(6, 3, 2).to_dict()
        for key in ("n", "k", "t", "blocks", "size", "optimal", "nodes"):
            assert key in doc
        assert doc["size"] == 4 and doc["optimal"] is True


class TestBruteProjection:
    def test_fano(self, fano):
        got = brute_projection(fano)
        assert got.coeffs == project_family(fano).coeffs

    def test_single_set(self):
        from fractions import Fraction

        fam = make_family(7, 3, [[2, 4, 6]])
        got = brute_projection(fam)
        assert got.coeffs == (Fraction(1, 35), 0, 0, 0)
        assert got.coeffs == project_family(fam).coeffs

    def test_corpus_equivalence(self, fano, sqs8_design):
        for fam in projection_corpus(fano, sqs8_design):
            assert brute_projection(fam).coeffs == project_family(fam).coeffs

    def test_budget(self):
        # refused like the other dense paths, with exit 3 rather than 2
        with pytest.raises(SizeBudgetError):
            brute_projection(make_family(20, 10, [range(1, 11)]))


MAIN_ROUTE = ["exact", "subsets", "johnson", "projection", "designs", "wilson",
              "identity"]


def _imported_modules(tree):
    """Absolute and relative module names a module's import statements name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            yield from (f"{base.rstrip('.')}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", MAIN_ROUTE)
def test_main_route_does_not_import_oracles(module):
    # oracle paths are the tests' reference; the main route never reaches them
    source = Path(jshm.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
    names = set(_imported_modules(ast.parse(source)))
    assert not {name for name in names if name.split(".")[-1] == "oracles"}, module
