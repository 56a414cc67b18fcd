"""Independent brute-force ground truth.

Floating point lives here and only here: the float spectrum corroborates
the exact eigenvalue tables but never feeds a certificate.  Matrix entries,
inner products, the inclusion and disjointness matrices and their dense
products check the algebra's coefficient form entry by entry.  Intersection
numbers are counted over all k-subsets, the reference the tests hold the
closed-form eigenvalue table against, and the colex rank is the reference
for the colex order of the enumerations.  Design verification by testing every
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
from .exact import Report, binom, to_json
from .johnson import (
    DEFAULT_DENSE_BUDGET,
    MAX_ENUMERATED_SUBSETS,
    BMVector,
    SchemeParams,
    SizeBudgetError,
    colex_masks,
    entry_sum,
    schur,
)
from .projection import project_dense
from .subsets import Family, colex_tuples, make_family, subset_mask


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
    try:
        arr = np.array([[float(x) for x in row] for row in mat], dtype=float)
    except OverflowError as exc:
        raise ValueError(f"matrix entry is not a finite float: {exc}") from exc
    if not np.isfinite(arr).all():
        raise ValueError("matrix entry is not a finite float")
    values = np.linalg.eigvalsh(arr)
    if not np.isfinite(values).all():
        raise ValueError("eigenvalue is not a finite float")
    return sorted(values.tolist(), reverse=True)


def colex_rank(s: tuple[int, ...]) -> int:
    """Colex rank: sum of C(s_i - 1, i) over the sorted elements (i from 1)."""
    return sum(binom(e - 1, i) for i, e in enumerate(s, start=1))


def entry(v: BMVector, s: tuple[int, ...], t: tuple[int, ...]) -> object:
    """Matrix entry (S, T) of v, namely c_{k - |S intersect T|}."""
    p = v.params
    if any(len(x) != p.k or not all(1 <= e <= p.n for e in x) for x in (s, t)):
        raise ValueError("subset does not match scheme parameters")
    r = p.k - (subset_mask(s) & subset_mask(t)).bit_count()
    return v.coeffs[r]


def inner(u: BMVector, v: BMVector):
    """Standard matrix inner product: sum of u_r * v_r * |A_r|."""
    return entry_sum(schur(u, v))


def inclusion_matrix(i: int, params: SchemeParams) -> list[list[int]]:
    """01 matrix, rows = i-subsets, cols = k-subsets, 1 when row is contained.

    Rows and columns are in colex order; each row sums to C(n-i, k-i).
    """
    return _subset_pair_matrix(i, params, contained=True)


def disjointness_matrix(i: int, params: SchemeParams) -> list[list[int]]:
    """01 matrix, rows = i-subsets, cols = k-subsets, 1 when disjoint."""
    return _subset_pair_matrix(i, params, contained=False)


def _subset_pair_matrix(i, params, contained):
    if not 0 <= i <= params.k:
        raise ValueError(f"row subset size {i} out of range [0, {params.k}]")
    if max(params.order, binom(params.n, i)) > DEFAULT_DENSE_BUDGET:
        raise SizeBudgetError("matrix dimensions exceed dense budget")
    if i == 0:
        return [[1] * params.order]
    rows = colex_masks(params.n, i)
    cols = colex_masks(params.n, params.k)
    if contained:
        return [[1 if a & b == a else 0 for b in cols] for a in rows]
    return [[1 if a & b == 0 else 0 for b in cols] for a in rows]


def mat_transpose(mat: list[list]) -> list[list]:
    return [list(row) for row in zip(*mat)]


def mat_mul(a: list[list], b: list[list]) -> list[list]:
    if not a or not b or len(a[0]) != len(b):
        raise ValueError("incompatible matrix shapes")
    bt = mat_transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


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
class MaxFamilyResult(Report):
    """Largest t-intersecting family found; optimal means search completed."""

    n: int
    k: int
    t: int
    size: int
    witness: Family
    optimal: bool
    nodes: int

    def to_dict(self) -> dict:  # the witness field stays a Family: the tests project it
        return to_json({
            "n": self.n,
            "k": self.k,
            "t": self.t,
            "blocks": self.witness.blocks(),
            "size": self.size,
            "optimal": self.optimal,
            "nodes": self.nodes,
        })


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
    subsets = colex_tuples(n, k)
    masks = [subset_mask(s) for s in subsets]
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
        # recorded: the search would prune a vertex of a lower class before
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

    # Branch and bound with an explicit stack, so no clique is too large for
    # the recursion limit.  The node being expanded holds its candidate mask,
    # its colouring and the index of the vertex tried last; ``stack`` keeps
    # those of its ancestors, one per vertex of ``current``.  Vertices are
    # tried from the highest colour down; a node ends when its next colour
    # cannot beat |best|, and the vertex that opened it then leaves the
    # parent's candidates.
    current: list[int] = []
    stack: list[tuple] = []
    p_mask = (1 << v_count) - 1
    order, colors = coloring(p_mask, 1)
    idx = len(order)
    while True:
        idx -= 1
        if idx < 0 or len(current) + colors[idx] <= len(best):
            if not stack:
                break
            p_mask, order, colors, idx = stack.pop()
            p_mask &= ~(1 << current.pop())
            continue
        v = order[idx]
        nodes += 1
        if nodes > budget:
            aborted = True
            break
        current.append(v)
        sub = p_mask & adj[v]
        if sub:
            stack.append((p_mask, order, colors, idx))
            p_mask = sub
            order, colors = coloring(p_mask, len(best) - len(current) + 1)
            idx = len(order)
        else:
            # a leaf: v has no neighbour among the candidates, so leaving
            # them changes no later branch
            if len(current) > len(best):
                best = current.copy()
            current.pop()

    chosen = sorted(best)
    witness = make_family(n, k, [subsets[v] for v in chosen])
    return MaxFamilyResult(
        n=n, k=k, t=t, size=len(chosen), witness=witness,
        optimal=not aborted, nodes=nodes,
    )


def brute_projection(fam: Family) -> BMVector:
    """Projection of the family's pair matrix computed on the dense path.

    Builds the rank-one indicator matrix explicitly and projects it entry
    by entry; must agree with the pair-distribution shortcut.
    """
    params = SchemeParams(fam.n, fam.k)
    if params.order > DEFAULT_DENSE_BUDGET:
        raise SizeBudgetError(f"order {params.order} exceeds dense budget "
                              f"{DEFAULT_DENSE_BUDGET}")
    members = set(fam.members)
    indicator = [1 if s in members else 0 for s in colex_tuples(fam.n, fam.k)]
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
    masks = [subset_mask(m) for m in fam.members]
    lam = None
    for sub in combinations(range(1, fam.n + 1), t):
        sm = subset_mask(sub)
        count = sum(1 for bm in masks if bm & sm == sm)
        if lam is None:
            lam = count
        elif count != lam:
            raise NotADesignError(sub, count, lam)
    return lam
