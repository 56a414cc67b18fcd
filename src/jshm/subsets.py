"""k-subsets of {1..n}: colexicographic enumeration, families, file loading.

A k-subset is a strictly increasing tuple of ints in [1, n].  Colexicographic
order is used for every dense row/column index in the package: it compares
the largest elements first, so it does not depend on n, and subset identities
are stable when the ground-set size is swept.  Bitmasks (bit e-1 for element
e) are built only where intersections are counted.
"""

from __future__ import annotations

import json
from itertools import combinations
from operator import lt

from .exact import Record, binom

# colex_tuples, and so every enumeration of all k-subsets, and star_family
# refuse more subsets than this; admits C(25,8) = 1 081 575, where the
# measured peak RSS is 140 MB for colex_tuples(25,8), 183 MB for
# colex_masks and 188 MB for star_family(25, 8, ())
MAX_ENUMERATED_SUBSETS = 2_000_000

# pair_distribution refuses more units of work, |F| * min(|F|, 2^k), than
# this; verify_design more counted t-subsets, |F| * C(k,t); and
# first_violating_pair, which only bound_from_design calls, more pairs
# compared.  Near the bound on a 2-vCPU x86-64 host: 5.4 s and 430 MB for
# the counts of 9765 random 10-subsets of 40, 1.7 s for the walk of 3162
# random 20-subsets, and 3.0 s and 220 MB to verify 8*10^6 units.  The
# tests, scripts and benchmark need at most 29 120 units, and the check of
# a found design at most MAX_SEARCH_ENTRIES
MAX_COUNT_WORK = 10_000_000


class SizeBudgetError(RuntimeError):
    """Work refused: a dense order, an enumeration or a table exceeds its bound."""


def refuse_above(size: int, bound: int, what: str) -> None:
    """Raise SizeBudgetError when ``size`` exceeds ``bound``, naming ``what``."""
    if size > bound:
        raise SizeBudgetError(f"{what}: {size} exceeds the bound {bound}")


def subset_mask(elements) -> int:
    """Bitmask with bit e-1 set for each (distinct) element e."""
    return sum(1 << (e - 1) for e in elements)


def colex_tuples(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {1..n} as increasing tuples, in colex order.

    Colex compares the largest elements first, so it is the lexicographic
    order of the decreasing tuples, which ``combinations`` yields in reverse
    from the decreasing ground set.  More than MAX_ENUMERATED_SUBSETS
    subsets are refused with SizeBudgetError before any is built.
    """
    refuse_above(binom(n, k), MAX_ENUMERATED_SUBSETS,
                 f"C({n},{k}) subsets under the enumeration cap")
    out = list(combinations(range(n, 0, -1), k))
    out.reverse()
    for i, c in enumerate(out):  # one list: each entry is replaced in place
        out[i] = c[::-1]
    return out


class Family(Record):
    """A family of distinct k-subsets of {1..n}, each a strictly increasing tuple."""

    n: int
    k: int
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n, k = self.n, self.k
        for m in self.members:
            # a block of k ints in [1, n], strictly increasing, passes this
            # one test; the ordered checks below name the fault of any other
            if 0 < k == len(m) and 0 < m[0] and m[-1] <= n and all(map(lt, m, m[1:])):
                continue
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
        if len(set(self.members)) != len(self.members):
            seen = set()
            for m in self.members:
                if m in seen:
                    raise ValueError(f"duplicate block {list(m)}")
                seen.add(m)

    @property
    def size(self) -> int:
        return len(self.members)

    def blocks(self) -> list[list[int]]:
        """Blocks as plain lists in colex order (canonical order)."""
        return [list(m) for m in sorted(self.members, key=lambda m: m[::-1])]


def make_family(n: int, k: int, blocks) -> Family:
    """Build a family from block iterables, sorting each block's elements."""
    return Family(n, k, tuple(tuple(sorted(b)) for b in blocks))


def family_from_dict(doc: dict) -> Family:
    """Load the family/design document format.

    The format is ``{"n": int, "k": int, "blocks": [[int, ...], ...]}`` with
    1-based elements; JSON booleans are not integers.  Block elements are
    sorted on load, and :class:`Family` rejects out-of-range or repeated
    elements, blocks of the wrong size and duplicate blocks.
    """
    if not isinstance(doc, dict):
        raise ValueError("family document must be a JSON object")
    for key in ("n", "k", "blocks"):
        if key not in doc:
            raise ValueError(f"family document missing key {key!r}")
    n, k, blocks = doc["n"], doc["k"], doc["blocks"]
    if type(n) is not int or type(k) is not int:
        raise ValueError("n and k must be integers")
    if not isinstance(blocks, list):
        raise ValueError("blocks must be a list of blocks")
    for b in blocks:
        if not isinstance(b, list) or not all(type(e) is int for e in b):
            raise ValueError(f"block must be a list of integers: {b!r}")
    return make_family(n, k, blocks)


def load_family(path: str) -> Family:
    """Load a family from a UTF-8 JSON file; JSON nested too deeply for the
    decoder raises ValueError, as any other undecodable file does."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to decode") from None
    return family_from_dict(doc)


def family_to_dict(fam: Family) -> dict:
    return {"n": fam.n, "k": fam.k, "blocks": fam.blocks()}


def star_family(n: int, k: int, core) -> Family:
    """All k-subsets of {1..n} containing the given core set.

    More than MAX_ENUMERATED_SUBSETS blocks are refused with SizeBudgetError
    before any is built; when k = |core| the core is the one block, and the
    ground set, of any size, is not walked.
    """
    core = tuple(sorted(core))
    free = k - len(core)
    if free < 0:
        raise ValueError("core larger than subset size")
    if free == 0:
        return make_family(n, k, [core])
    refuse_above(binom(n - len({e for e in core if 1 <= e <= n}), free), MAX_ENUMERATED_SUBSETS,
                 f"blocks of a star in J({n},{k}) under the enumeration cap")
    rest = [e for e in range(1, n + 1) if e not in core]
    return make_family(n, k, (core + extra for extra in combinations(rest, free)))
