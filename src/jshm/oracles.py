"""Independent brute-force ground truth.

Floating point lives here and only here: the float spectrum corroborates
the exact eigenvalue tables but never feeds a certificate.  Intersection
numbers are counted over all k-subsets, the reference the tests hold the
closed-form eigenvalue table against.  Design verification by testing every
t-subset against every block, O(C(n,t) |F|), is the reference for the
counted ``designs.verify_design``.  The maximum t-intersecting family search
is an exact branch-and-bound over the compatibility graph, with
deterministic vertex order so witnesses are reproducible bit for bit.  Its
greedy colouring records only the classes a branch can still use, those
numbered at least kmin = |best| - |current| + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .designs import NotADesignError
from .exact import binom
from .johnson import (
    DEFAULT_DENSE_BUDGET,
    MAX_ENUMERATED_SUBSETS,
    BMVector,
    SchemeParams,
    SizeBudgetError,
    colex_masks,
)
from .projection import project_dense
from .subsets import Family, all_ksubsets, make_family, subset_mask


def float_spectrum(mat: list[list]) -> list[float]:
    """Double-precision eigenvalues of an exact symmetric matrix, descending.

    Comparisons against exact spectra in this package use a 1e-8 tolerance;
    at the orders in scope that is orders of magnitude above the rounding
    error of the conversion.
    """
    import numpy as np  # deferred: only the float oracle needs it

    order = len(mat)
    for i in range(order):
        if len(mat[i]) != order:
            raise ValueError("matrix is not square")
        for j in range(i):
            if mat[i][j] != mat[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")
    arr = np.array([[float(x) for x in row] for row in mat], dtype=float)
    return sorted(np.linalg.eigvalsh(arr).tolist(), reverse=True)


def _distance_pair(params: SchemeParams, r: int) -> tuple[int, int]:
    """Masks of a representative subset pair at Johnson distance r."""
    n, k = params.n, params.k
    if not 0 <= r <= k:
        raise ValueError(f"distance {r} out of range [0, {k}]")
    if k + r > n:
        raise ValueError(f"no pair of k-subsets at distance {r} in J({n},{k})")
    alpha = (1 << k) - 1
    beta = ((1 << (k - r)) - 1) | (((1 << r) - 1) << k)
    return alpha, beta


def intersection_number(i: int, j: int, r: int, params: SchemeParams) -> int:
    """p_{i,j}(r): for a fixed pair at distance r, the number of k-subsets at
    distance i from the first and j from the second, counted by enumeration.
    """
    k = params.k
    for name, val in (("i", i), ("j", j), ("r", r)):
        if not 0 <= val <= k:
            raise ValueError(f"index {name}={val} out of range [0, {k}]")
    alpha, beta = _distance_pair(params, r)
    count = 0
    for g in colex_masks(params.n, k):
        if k - (g & alpha).bit_count() == i and k - (g & beta).bit_count() == j:
            count += 1
    return count


DEFAULT_CLIQUE_BUDGET = 5_000_000


@dataclass(frozen=True)
class MaxFamilyResult:
    """Largest t-intersecting family found; optimal means search completed."""

    n: int
    k: int
    t: int
    size: int
    witness: Family
    optimal: bool
    nodes: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "t": self.t,
            "blocks": self.witness.blocks(),
            "size": self.size,
            "optimal": self.optimal,
            "nodes": self.nodes,
        }


def max_family(n: int, k: int, t: int,
               budget: int = DEFAULT_CLIQUE_BUDGET) -> MaxFamilyResult:
    """Exact maximum clique on the t-compatibility graph of k-subsets.

    Vertices are the k-subsets in colex order; two are compatible when they
    meet in at least t points.  Branch and bound with a greedy-coloring
    upper bound; the budget counts vertex expansions.  The vertex set and its
    O(V^2) adjacency are refused above DEFAULT_DENSE_BUDGET vertices.
    """
    if not 0 <= t <= k <= n:
        raise ValueError(f"need 0 <= t <= k <= n, got t={t}, k={k}, n={n}")
    if binom(n, k) > DEFAULT_DENSE_BUDGET:
        raise SizeBudgetError(f"C({n},{k}) = {binom(n, k)} vertices exceed the "
                              f"dense budget {DEFAULT_DENSE_BUDGET}")
    subsets = all_ksubsets(n, k)
    masks = [s.mask for s in subsets]
    v_count = len(masks)
    adj = [0] * v_count
    for a in range(v_count):
        ma = masks[a]
        for b in range(a + 1, v_count):
            if (ma & masks[b]).bit_count() >= t:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    # candidates that survive picking v into a colour class
    nonadj = [~(adj[v] | 1 << v) for v in range(v_count)]

    best: list[int] = []
    nodes = 0
    aborted = False

    def coloring(p_mask: int, kmin: int) -> tuple[list[int], list[int]]:
        # Greedy color classes over the candidate set, lowest index first;
        # the color number of a vertex bounds any clique inside it and the
        # vertices before it in the order.  Only classes >= kmin are
        # recorded: expand would prune a vertex of a lower class before
        # expanding it.  The lower classes are still built, so the later
        # ones keep their vertices.
        order: list[int] = []
        colors: list[int] = []
        color = 0
        remaining = p_mask
        while remaining:
            color += 1
            cand = remaining
            record = color >= kmin
            while cand:
                low = cand & -cand
                v = low.bit_length() - 1
                if record:
                    order.append(v)
                    colors.append(color)
                remaining ^= low
                cand &= nonadj[v]
        return order, colors

    def expand(current: list[int], p_mask: int):
        nonlocal best, nodes, aborted
        order, colors = coloring(p_mask, len(best) - len(current) + 1)
        for idx in range(len(order) - 1, -1, -1):
            if aborted:
                return
            if len(current) + colors[idx] <= len(best):
                return
            v = order[idx]
            nodes += 1
            if nodes > budget:
                aborted = True
                return
            current.append(v)
            sub = p_mask & adj[v]
            if sub:
                expand(current, sub)
            elif len(current) > len(best):
                best = current.copy()
            current.pop()
            p_mask &= ~(1 << v)

    expand([], (1 << v_count) - 1)

    chosen = sorted(best)
    witness = make_family(n, k, [subsets[v].elements for v in chosen])
    return MaxFamilyResult(
        n=n, k=k, t=t, size=len(chosen), witness=witness,
        optimal=not aborted, nodes=nodes,
    )


def brute_projection(fam: Family,
                     max_order: int = DEFAULT_DENSE_BUDGET) -> BMVector:
    """Projection of the family's pair matrix computed on the dense path.

    Builds the rank-one indicator matrix explicitly and projects it entry
    by entry; must agree with the pair-distribution shortcut.
    """
    params = SchemeParams(fam.n, fam.k)
    if params.order > max_order:
        raise ValueError(f"order {params.order} exceeds dense budget {max_order}")
    member_set = {m.elements for m in fam.members}
    indicator = [1 if s.elements in member_set else 0
                 for s in all_ksubsets(fam.n, fam.k)]
    dense = [[a * b for b in indicator] for a in indicator]
    return project_dense(dense, params)


def brute_verify_design(fam: Family, t: int) -> int:
    """``designs.verify_design`` by testing every t-subset against every block.

    O(C(n,t) |F|); the same lambda, witness and bound as the counted path.
    """
    if not 0 <= t <= fam.k:
        raise ValueError(f"strength t={t} out of range [0, {fam.k}]")
    if binom(fam.n, t) > MAX_ENUMERATED_SUBSETS:
        raise SizeBudgetError(f"C({fam.n},{t}) = {binom(fam.n, t)} t-subsets exceed "
                              f"the enumeration cap {MAX_ENUMERATED_SUBSETS}")
    masks = [m.mask for m in fam.members]
    lam = None
    for sub in combinations(range(1, fam.n + 1), t):
        sm = subset_mask(sub)
        count = sum(1 for bm in masks if bm & sm == sm)
        if lam is None:
            lam = count
        elif count != lam:
            raise NotADesignError(sub, count, lam)
    return lam
