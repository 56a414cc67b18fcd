"""k-subsets of {1..n}: colexicographic indexing, families, file loading.

Subsets are 1-based and strictly increasing.  Colexicographic order is used
for every dense row/column index in the package; its rank formula does not
depend on n, so subset identities are stable when the ground-set size is
swept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .exact import binom


@dataclass(frozen=True)
class KSubset:
    """A k-subset of {1..n} with strictly increasing elements."""

    n: int
    elements: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"ground-set size must be positive, got {self.n}")
        elems = tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise ValueError("empty subset")
        if any(e < 1 or e > self.n for e in elems):
            raise ValueError(f"element out of range [1, {self.n}]: {elems}")
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ValueError(f"elements must be strictly increasing: {elems}")

    @property
    def k(self) -> int:
        return len(self.elements)

    @cached_property
    def mask(self) -> int:
        """Bitmask with bit e-1 set for each element e."""
        return subset_mask(self.elements)


def subset_mask(elements) -> int:
    """Bitmask with bit e-1 set for each (distinct) element e."""
    return sum(1 << (e - 1) for e in elements)


def make_subset(n: int, elements) -> KSubset:
    """Build a KSubset from any iterable, sorting the elements."""
    return KSubset(n, tuple(sorted(elements)))


def colex_rank(s: KSubset) -> int:
    """Colex rank: sum of C(s_i - 1, i) over the sorted elements (i from 1)."""
    return sum(binom(e - 1, i) for i, e in enumerate(s.elements, start=1))


def colex_unrank(r: int, k: int, n: int) -> KSubset:
    """Inverse of :func:`colex_rank` for k-subsets of {1..n}."""
    if k < 1 or k > n:
        raise ValueError(f"subset size {k} out of range for n = {n}")
    if r < 0 or r >= binom(n, k):
        raise ValueError(f"rank {r} out of range [0, C({n},{k}))")
    elems = []
    for i in range(k, 0, -1):
        # largest c with C(c, i) <= r gives element c + 1
        c = i - 1
        while binom(c + 1, i) <= r:
            c += 1
        elems.append(c + 1)
        r -= binom(c, i)
    return KSubset(n, tuple(reversed(elems)))


def colex_tuples(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {1..n} as increasing tuples, in colex order.

    Colex compares the largest elements first, so it is the lexicographic
    order of the decreasing tuples, which ``combinations`` yields in reverse
    from the decreasing ground set.
    """
    return [c[::-1] for c in reversed(list(combinations(range(n, 0, -1), k)))]


def all_ksubsets(n: int, k: int) -> list[KSubset]:
    """All k-subsets of {1..n} in colex order."""
    return [KSubset(n, c) for c in colex_tuples(n, k)]


def inter_size(s: KSubset, t: KSubset) -> int:
    """|S intersect T| for two k-subsets over the same ground set."""
    if s.n != t.n or s.k != t.k:
        raise ValueError(
            f"mismatched parameters: ({s.n},{s.k}) vs ({t.n},{t.k})"
        )
    return (s.mask & t.mask).bit_count()


@dataclass(frozen=True)
class Family:
    """A family of distinct k-subsets of {1..n}."""

    n: int
    k: int
    members: tuple[KSubset, ...]

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        seen = set()
        for m in self.members:
            if m.n != self.n or m.k != self.k:
                raise ValueError(f"member {m.elements} does not fit ({self.n},{self.k})")
            if m.elements in seen:
                raise ValueError(f"duplicate block {list(m.elements)}")
            seen.add(m.elements)

    @property
    def size(self) -> int:
        return len(self.members)

    def blocks(self) -> list[list[int]]:
        """Blocks as plain lists, sorted by colex rank (canonical order)."""
        ordered = sorted(self.members, key=colex_rank)
        return [list(m.elements) for m in ordered]


def make_family(n: int, k: int, blocks) -> Family:
    """Build a family from block iterables, sorting each block's elements."""
    return Family(n, k, tuple(make_subset(n, b) for b in blocks))


def family_from_dict(doc: dict) -> Family:
    """Validate and load the family/design document format.

    The format is ``{"n": int, "k": int, "blocks": [[int, ...], ...]}`` with
    1-based elements; block elements are sorted on load, duplicate blocks
    and out-of-range or repeated elements are rejected (JSON booleans too).
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
    members = []
    for b in blocks:
        if not isinstance(b, list) or not all(type(e) is int for e in b):
            raise ValueError(f"block must be a list of integers: {b!r}")
        if len(set(b)) != len(b):
            raise ValueError(f"duplicate element in block {b}")
        if len(b) != k:
            raise ValueError(f"block {b} has size {len(b)}, expected {k}")
        members.append(make_subset(n, b))
    return Family(n, k, tuple(members))


def load_family(path: str) -> Family:
    """Load a family from a UTF-8 JSON file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return family_from_dict(doc)


def family_to_dict(fam: Family) -> dict:
    return {"n": fam.n, "k": fam.k, "blocks": fam.blocks()}


def star_family(n: int, k: int, core) -> Family:
    """All k-subsets of {1..n} containing the given core set."""
    core = tuple(sorted(core))
    if len(core) > k:
        raise ValueError("core larger than subset size")
    rest = [e for e in range(1, n + 1) if e not in core]
    blocks = [core + extra for extra in combinations(rest, k - len(core))]
    return make_family(n, k, blocks)
