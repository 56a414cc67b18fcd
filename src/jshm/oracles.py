"""Independent brute-force ground truth.

Floating point lives here and only here: the float spectrum corroborates
the exact spectra but never feeds a certificate.  The Eberlein polynomials
are the tests' reference for the spectra of Wilson's lemma.  Matrix entries,
inner products, the inclusion and disjointness matrices and their dense
products check the algebra's coefficient form entry by entry, and the
projection of a dense matrix, summed entry by entry, is the reference for
the pair-distribution count of ``projection.project_family``.  Intersection
numbers are counted over all k-subsets, a second reference for the
eigenvalue table, and the colex rank is the reference
for the colex order of the enumerations.  Design verification by testing every
t-subset against every block, O(C(n,t) |F|), is the reference for the
counted ``designs.verify_design``, and Algorithm X over a dict of row sets
the reference for the search's ``designs._exact_cover``.  The maximum
t-intersecting family search is an exact branch-and-bound over the
compatibility graph, with deterministic vertex order so witnesses are
reproducible bit for bit.  Bit p of its masks is the k-subset of colex rank
V - 1 - p, so its greedy colouring takes each next vertex, lowest colex
rank first, as the top bit of the candidates (``bit_length``) at two V-bit
mask operations per coloured vertex, and records only the classes a branch
can still use, those numbered at least kmin = |best| - |current| + 1.  A
bounded table recalls the expansions of subtrees already searched to the
end under the same candidates and kmin, so a repeated subtree is neither
coloured nor searched again.
"""

from __future__ import annotations

import os
from collections import defaultdict
from fractions import Fraction
from itertools import combinations

from .exact import Report, binom
from .johnson import (DEFAULT_DENSE_BUDGET, BMVector, SchemeParams, class_size, colex_masks,
                      entry_sum, schur)
from .subsets import MAX_ENUMERATED_SUBSETS, Family, colex_tuples, refuse_above, subset_mask


def float_spectrum(mat: list[list]) -> list[float]:
    """Double-precision eigenvalues of an exact symmetric matrix, descending.

    Comparisons against exact spectra in this package use a 1e-8 tolerance;
    at the orders in scope that is orders of magnitude above the rounding
    error of the conversion.  Unless the caller chose otherwise before numpy
    was loaded, OpenBLAS runs one thread: its default threads made these
    small eigenproblems several times slower beside other busy processes.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy as np  # deferred: only the float oracle needs it

    # equal to its transpose means square and symmetric; list equality
    # passes shared entry objects by identity
    if list(map(list, zip(*mat))) != mat:
        order = len(mat)
        for i in range(order):
            if len(mat[i]) != order:
                raise ValueError("matrix is not square")
            for j in range(i):
                if mat[i][j] != mat[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i},{j})")
    try:
        # each distinct entry object converted once; its id stays unique
        # while ``mat`` holds it
        distinct = {id(x): x for row in mat for x in row}
        as_float = {key: float(x) for key, x in distinct.items()}
        arr = np.array([list(map(as_float.__getitem__, map(id, row))) for row in mat],
                       dtype=float)
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
    refuse_above(max(params.order, binom(params.n, i)), DEFAULT_DENSE_BUDGET,
                 f"dimensions of a {i}-subset by {params.k}-subset matrix under the dense budget")
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


def _trimmed(coeffs) -> list[Fraction]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def euclid_divmod(a, b) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Long division over Q of ascending coefficient sequences:
    a = q * b + r with r shorter than b, both trimmed."""
    rem, b = _trimmed(a), _trimmed(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        pos = len(rem) - len(b)
        q[pos] = c
        for i, y in enumerate(b):
            rem[pos + i] -= c * y
        rem = _trimmed(rem)
    return tuple(_trimmed(q)), tuple(rem)


def euclid_gcd(a, b) -> tuple[Fraction, ...]:
    """Monic gcd over Q by Euclid's algorithm, ascending; gcd(0, 0) = ()."""
    a, b = tuple(_trimmed(a)), tuple(_trimmed(b))
    while b:
        a, b = b, euclid_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a) if a else ()


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


def eberlein_table(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Eigenvalue table of J(n,k), k <= n-k, from the Eberlein polynomials:
    entry [j][i], the eigenvalue of A_i on V_j, is sum_h (-1)^h C(j,h)
    C(k-j,i-h) C(n-k-j,i-h), in integers at O(k^3) cost."""
    if not 1 <= k <= n - k:
        raise ValueError(f"the Eberlein table requires 1 <= k <= n-k, got k={k}, n={n}")
    table = []
    for j in range(k + 1):
        w = [binom(k - j, a) * binom(n - k - j, a) for a in range(k + 1)]
        table.append(tuple(sum((-1) ** h * binom(j, h) * w[i - h] for h in range(min(i, j) + 1))
                           for i in range(k + 1)))
    return tuple(table)


DEFAULT_CLIQUE_BUDGET = 5_000_000
# Bound on max_family's table of finished subtrees.  An entry keeps a
# candidate mask of V bits alive, with its count and dict slot: at most
# about 135 bytes at V = 252 and 770 bytes at V = 5000, the dense budget,
# so a full table holds at most about 8.4 MB and 48 MB.  The searches of
# the tests and the benchmark file at most 18 140, at (11,5,3), and
# (13,5,3) files 43 492.
MAX_FINISHED_SUBTREES = 1 << 16


def compatibility(subsets: list[tuple[int, ...]], n: int, t: int) -> list[int]:
    """Masks over the subsets' indices: bit b of entry a is set when subsets
    a and b are distinct and meet in at least t of the points 1..n.

    Bit-sliced counting over per-point masks of the subsets through each
    point: after the first j points of subset a, ``at_least[i]`` holds the
    subsets that meet them in at least i points, so one subset costs
    k * t operations on V-bit masks instead of V pair intersections.
    """
    full = (1 << len(subsets)) - 1
    through = [0] * (n + 1)
    for a, s in enumerate(subsets):
        for e in s:
            through[e] |= 1 << a
    adj = []
    for a, s in enumerate(subsets):
        at_least = [full] + [0] * t
        for j, e in enumerate(s):
            points = through[e]
            for i in range(min(j + 1, t), 0, -1):
                at_least[i] |= at_least[i - 1] & points
        adj.append(at_least[t] ^ 1 << a)  # a meets itself in k >= t points
    return adj


class MaxFamilyResult(Report):
    """Largest t-intersecting family found; optimal means search completed."""

    n: int
    k: int
    t: int
    size: int
    blocks: tuple[tuple[int, ...], ...]  # in colex order
    optimal: bool
    nodes: int


def max_family(n: int, k: int, t: int,
               budget: int = DEFAULT_CLIQUE_BUDGET) -> MaxFamilyResult:
    """Exact maximum clique on the t-compatibility graph of k-subsets.

    Vertices are the k-subsets, two compatible when they meet in at least t
    points, numbered in reverse colex order: bit p of a mask is the subset
    of colex rank V - 1 - p, so the highest set bit is the lowest colex
    rank.  Branch and bound with a greedy-coloring upper bound; the budget
    counts vertex expansions.  The colouring takes each next vertex, lowest
    colex rank first, as the top bit of its candidates, and pays two V-bit
    mask operations for it.  A subtree searched to the end without a larger
    clique is filed under its candidates and kmin, up to
    MAX_FINISHED_SUBTREES of them, and a repeat of it adds its expansions
    to the count without a search: nodes, the witness and optimal are
    those of the search without the table, also when the budget runs out
    inside a recalled subtree.  The vertex set and its V masks of V bits
    are refused above DEFAULT_DENSE_BUDGET vertices.
    """
    if not 0 <= t <= k <= n:
        raise ValueError(f"need 0 <= t <= k <= n, got t={t}, k={k}, n={n}")
    refuse_above(binom(n, k), DEFAULT_DENSE_BUDGET, f"C({n},{k}) vertices under the dense budget")
    # decreasing tuples in reverse colex order: desc[p] is bit p
    desc = list(combinations(range(n, 0, -1), k))
    v_count = len(desc)
    adj = compatibility(desc, n, t)
    bit = [1 << p for p in range(v_count)]
    # candidates that survive picking p into a colour class, as non-negative
    # masks: ``&`` with a negative int is about twice as slow
    full = (1 << v_count) - 1
    nonadj = [full ^ (a | b) for a, b in zip(adj, bit)]
    # the colouring indexes by bit_length, p + 1, and records shared
    # position ints, and shared colour ints past its first recorded class,
    # so each level of the stack holds at most one int of its own
    bit_at = [0, *bit]
    nonadj_at = [0, *nonadj]
    position = list(range(-1, v_count))
    number = list(range(v_count + 2))

    best: list[int] = []
    nodes = 0
    aborted = False
    finished: defaultdict[int, dict[int, int]] = defaultdict(dict)
    filed = 0

    def coloring(p_mask: int, kmin: int) -> tuple[list[int], list[int]]:
        # Greedy color classes over the candidate set, lowest colex rank
        # (top bit) first; the color number of a vertex bounds any clique
        # inside it and the vertices before it in the order.  Only classes
        # >= kmin are recorded: the search would prune a vertex of a lower
        # class before expanding it.  The lower classes are still built, so
        # the later ones keep their vertices.
        order: list[int] = []
        colors: list[int] = []
        color = 1
        remaining = p_mask
        while remaining and color < kmin:
            cand = remaining
            while cand:
                b = cand.bit_length()
                remaining ^= bit_at[b]
                cand &= nonadj_at[b]
            color += 1
        while remaining:
            cand = remaining
            while cand:
                b = cand.bit_length()
                order.append(position[b])
                colors.append(color)
                remaining ^= bit_at[b]
                cand &= nonadj_at[b]
            color = number[color + 1]
        return order, colors

    # Branch and bound with an explicit stack, so no clique is too large for
    # the recursion limit.  The node being expanded holds its candidate mask,
    # its colouring and the index of the vertex tried last; ``stack`` keeps
    # those of its ancestors, one per vertex of ``current``, each with the
    # table and candidates of the child it opened and the counts when it
    # opened it.  Vertices are tried from the highest colour down; a node
    # ends when its next colour cannot beat |best|, and the vertex that
    # opened it then leaves the parent's candidates.
    #
    # While |best| is unchanged, a node's subtree depends only on its
    # candidates and kmin = |best| - |current| + 1, the colour a vertex needs
    # to be tried: every colouring, prune and leaf below it is read relative
    # to these.  So a node that ends without changing |best| files its
    # expansions under its candidates in ``finished[kmin]``, and a later
    # child with the same pair adds them to ``nodes`` and ends at once, as
    # the search of its subtree would: without changing |best|, or past the
    # budget inside it.
    current: list[int] = []
    stack: list[tuple] = []
    p_mask = full
    order, colors = coloring(p_mask, 1)
    idx = len(order)
    while True:
        idx -= 1
        if idx < 0 or len(current) + colors[idx] <= len(best):
            if not stack:
                break
            p_mask, order, colors, idx, table, sub, opened_at, size = stack.pop()
            if len(best) == size and filed < MAX_FINISHED_SUBTREES:
                table[sub] = nodes - opened_at
                filed += 1
            p_mask ^= bit[current.pop()]
            continue
        v = order[idx]
        nodes += 1
        if nodes > budget:
            aborted = True
            break
        current.append(v)
        sub = p_mask & adj[v]
        if sub:
            kmin = len(best) - len(current) + 1
            table = finished[kmin]
            inside = table.get(sub)
            if inside is None:
                stack.append((p_mask, order, colors, idx, table, sub, nodes, len(best)))
                p_mask = sub
                order, colors = coloring(p_mask, kmin)
                idx = len(order)
                continue
            nodes += inside
            if nodes > budget:
                nodes = budget + 1
                aborted = True
                break
            p_mask ^= bit[v]
        elif len(current) > len(best):
            # a leaf: v has no neighbour among the candidates, so leaving
            # them changes no later branch
            best = current.copy()
        current.pop()

    # descending bits are ascending colex ranks
    blocks = tuple(desc[p][::-1] for p in sorted(best, reverse=True))
    return MaxFamilyResult(
        n=n, k=k, t=t, size=len(blocks), blocks=blocks,
        optimal=not aborted, nodes=nodes,
    )


def project_dense(mat: list[list], params: SchemeParams) -> BMVector:
    """Projection of an arbitrary exact square matrix onto the algebra.

    The coefficient on A_r is the sum of the entries of ``mat`` lying on the
    support of A_r, divided by the number of ones of A_r, and 0 when A_r is
    empty (r > n - k).  Matrices already in the algebra are fixed points.
    """
    order = params.order
    if len(mat) != order or any(len(row) != order for row in mat):
        raise ValueError(f"matrix order does not match C({params.n},{params.k}) = {order}")
    masks = colex_masks(params.n, params.k)
    k = params.k
    sums = [Fraction(0)] * (k + 1)
    for a, row in zip(masks, mat):
        for b, x in zip(masks, row):
            if x:
                sums[k - (a & b).bit_count()] += x
    sizes = [class_size(params, r) for r in range(k + 1)]
    return BMVector(params, tuple(total / size if size else Fraction(0)
                                  for total, size in zip(sums, sizes)))


def brute_projection(fam: Family) -> BMVector:
    """Projection of the family's pair matrix computed on the dense path.

    Builds the rank-one indicator matrix explicitly and projects it entry
    by entry with ``project_dense``; must agree with the pair-distribution
    count of ``projection.project_family``.
    """
    params = SchemeParams(fam.n, fam.k)
    refuse_above(params.order, DEFAULT_DENSE_BUDGET,
                 f"order of J({fam.n},{fam.k}) under the dense budget")
    members = set(fam.members)
    indicator = [1 if s in members else 0 for s in colex_tuples(fam.n, fam.k)]
    dense = [[a * b for b in indicator] for a in indicator]
    return project_dense(dense, params)


def brute_verify_design(fam: Family, t: int) -> int:
    """``designs.verify_design`` by testing every t-subset against every block.

    O(C(n,t) |F|); the same lambda and witness as the counted path.  The
    walk is refused above the enumeration cap
    ``subsets.MAX_ENUMERATED_SUBSETS``, the counted path above its count
    bound only.
    """
    from .designs import NotADesignError  # only this oracle verifies designs

    if not 0 <= t <= fam.k:
        raise ValueError(f"strength t={t} out of range [0, {fam.k}]")
    refuse_above(binom(fam.n, t), MAX_ENUMERATED_SUBSETS,
                 f"C({fam.n},{t}) t-subsets under the enumeration cap")
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


def exact_cover(num_columns: int, rows: list[tuple[int, ...]], budget: int):
    """``designs._exact_cover`` as Algorithm X over a dict of row sets.

    Each live column maps to the set of its live rows; choosing a row pops
    its columns and removes every row meeting them from the other columns.
    The column chosen has the fewest rows, ties to the lowest index, and its
    rows are tried in ascending order.  A node is a row expansion, counting
    the first one past the budget.  Returns (status, chosen rows in the
    order chosen, nodes); one recursion level per chosen row, so meant for
    the small instances the tests draw.
    """
    columns = {c: set() for c in range(num_columns)}
    for r, cols in enumerate(rows):
        for c in cols:
            columns[c].add(r)
    chosen = []
    nodes = 0

    def select(r):
        popped = []
        for c in rows[r]:
            for other in columns[c]:
                for d in rows[other]:
                    if d != c:
                        columns[d].remove(other)
            popped.append((c, columns.pop(c)))
        return popped

    def deselect(popped):
        for c, rs in reversed(popped):
            columns[c] = rs
            for other in rs:
                for d in rows[other]:
                    if d != c:
                        columns[d].add(other)

    def search():
        nonlocal nodes
        if not columns:
            return "found"
        c = min(columns, key=lambda c: (len(columns[c]), c))
        for r in sorted(columns[c]):
            nodes += 1
            if nodes > budget:
                return "budget-exhausted"
            chosen.append(r)
            popped = select(r)
            status = search()
            if status != "not-found":
                return status
            deselect(popped)
            chosen.pop()
        return "not-found"

    status = search()
    return status, chosen if status == "found" else None, nodes
