"""t-designs: verification, the block-count formulas, projection identity,
exact-cover search for small Steiner systems, and divisibility admissibility.

A t-(n,k,lambda) design is a family of k-subsets ("blocks") covering every
t-subset of points exactly lambda times.  For lambda = 1 (Steiner systems)
the classical counting formulas give the number of blocks through any i-set,

    block_count(n,k,t,i) = C(n-i, t-i) / C(k-i, t-i) = C(n-i, k-i) / C(n-t, k-t),

and the projection of the design's pair matrix onto the Bose-Mesner algebra
is (|D| / C(n,k)) * (I + M(n,k,t)), where the matrix M is assembled from the
alternating excess sums below.  M is well defined whether or not a design
exists.  The block counts, excess sums and M's coefficients are written
once, as numerators over E and over E C(k,r) C(nu-k,r) (``_m_numerators``)
in ring operations over a binomial provider: ``exact.binom_at_int(n)`` at a
size, and ``qnu.binom_zpoly(k)`` in Z[nu], which :mod:`jshm.identity`
reduces once per coefficient.  The integers that do not depend on nu (E, its
quotients, the inversion's coefficients and E C(k,r)) are computed once per
(k, t) (``_m_constants``).

The search is Knuth's Algorithm X (*Dancing Links*, 2000) over plain
sequences: each row is a tuple of its column indices, each column a list of
its row indices, and live-row flags and per-column live counts stand in for
the linked nodes, with the same column choice and row order, so found
designs and node counts are those of the classical linked version.  Where
every column has fewer than 255 rows and rows * columns is small, the
counts are the bytes of one int and each row an int with a 1 in its
columns' bytes, so killing a row is one subtraction and a level undoes
itself with one addition; elsewhere they are a list beside a byte map of
them capped at 2.  Either way ``find`` over bytes makes the choice: a
column with no rows, or the first with the fewest, is the one the minimum
over all counts would pick, and the list kernel takes that minimum only
when the fewest live rows number two or more.  For k = t the one design,
every k-subset, is taken with lambda = 1 and no count.  The rows are built
from the decreasing k-subsets that ``itertools.combinations`` yields,
without a list of the subsets beside them, and the chosen blocks are read
back from a second pass of the same walk.  Every enumeration here (search
rows, counted t-subsets, admissible sizes) is refused through
``subsets.refuse_above`` above a fixed bound before it starts; verification
walks only t-subsets it has counted, and one more.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, compress

from .exact import Record, Report, binom, binom_at_int, to_json
from .johnson import (MAX_TABLE_K, MAX_TABLE_N, BMVector, SchemeParams,
                      entry_sum, plus_identity, trace)
from .projection import project_family
from .subsets import (
    MAX_COUNT_WORK,
    Family,
    colex_tuples,
    family_to_dict,
    make_family,
    refuse_above,
)


class NotADesignError(ValueError):
    """A family failed design verification; carries a witness t-subset."""

    def __init__(self, witness: tuple[int, ...], count: int, expected: int):
        self.witness = witness
        self.count = count
        self.expected = expected
        super().__init__(f"subset {list(witness)} covered {count} times, expected {expected}")


class Design(Report):
    """A verified t-(n,k,lambda) design."""

    family: Family
    t: int
    lam: int

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def k(self) -> int:
        return self.family.k

    @property
    def size(self) -> int:
        return self.family.size

    def to_dict(self) -> dict:  # the family's document, with t and lambda merged in
        return to_json({**family_to_dict(self.family), "t": self.t, "lambda": self.lam})


def verify_design(fam: Family, t: int) -> int:
    """Return the common cover count lambda, or raise with a witness subset.

    Each block's C(k,t) t-subsets are counted once, O(|F| C(k,t)), and
    refused with SizeBudgetError above ``subsets.MAX_COUNT_WORK``.  lambda
    is the count of {1..t}, and the witness is the first t-subset in
    ``combinations`` order whose count differs from it, found from the
    counts alone.  At lambda = 0 it is the least counted t-subset.  At
    lambda > 0 the walk in that order passes only counted t-subsets before
    it stops, so it takes at most |counts| + 1 steps, and it walks only the
    first |F| k + 1 points: the least point g in no block is at most that,
    {1..t-1, g} has count 0, and every t-subset before it lies in {1..g}.
    At t = 0 the only t-subset is the empty set, in every block, so
    lambda = |F| and the ground set, of any size, is not walked.
    """
    if not 0 <= t <= fam.k:
        raise ValueError(f"strength t={t} out of range [0, {fam.k}]")
    if t == 0:
        return fam.size
    refuse_above(fam.size * binom(fam.k, t), MAX_COUNT_WORK,
                 "t-subsets of the blocks under the count bound")
    counts = Counter(chain.from_iterable(combinations(m, t) for m in fam.members))
    lam = counts[tuple(range(1, t + 1))]  # t <= k <= n, so {1..t} exists
    if lam == 0:
        if counts:
            witness = min(counts)
            raise NotADesignError(witness, counts[witness], lam)
        return lam
    for sub in combinations(range(1, min(fam.n, fam.size * fam.k + 1) + 1), t):
        if counts[sub] != lam:
            raise NotADesignError(sub, counts[sub], lam)
    return lam


def as_design(fam: Family, t: int) -> Design:
    return Design(fam, t, verify_design(fam, t))


def partition_design(n: int, k: int) -> Design:
    """The 1-(n,k,1) design partitioning {1..n} into consecutive blocks."""
    if n % k != 0:
        raise ValueError(f"{k} does not divide {n}")
    blocks = [range(i * k + 1, (i + 1) * k + 1) for i in range(n // k)]
    return as_design(make_family(n, k, blocks), 1)


def block_count(n: int, k: int, t: int, i: int) -> Fraction:
    """lambda_i = C(n-i, t-i) / C(k-i, t-i), blocks through a fixed i-set."""
    _check_formula_params(n, k, t, i, "i")
    e, lam, _ = _excess_numerators(binom_at_int(n), k, t)
    return Fraction(lam[i], e)


def excess_sum(n: int, k: int, t: int, s: int) -> Fraction:
    """Alternating sum over i of C(i,s) C(k,i) (lambda_i - 1), i = s..t."""
    _check_formula_params(n, k, t, s, "s")
    e, _, g = _excess_numerators(binom_at_int(n), k, t)
    return Fraction(g[s], e)


def _check_formula_params(n, k, t, idx, name):
    if not 0 <= t <= k <= n:
        raise ValueError(f"need 0 <= t <= k <= n, got t={t}, k={k}, n={n}")
    if not 0 <= idx <= t:
        raise ValueError(f"index {name}={idx} out of range [0, {t}]")


def design_matrix(n: int, k: int, t: int) -> BMVector:
    """M(n,k,t): excess_sum(s) / (C(n-k,k-s) C(k,s)) on A_{k-s} for s = 0..t, and
    0 elsewhere; the A_{k-t} coefficient vanishes too, as lambda_t = 1."""
    if not 0 <= t < k:
        raise ValueError(f"need 0 <= t < k, got t={t}, k={k}")
    params = SchemeParams(n, k)
    if k > n - k:
        raise ValueError(f"out of regime: C({n - k},{k}) = 0 (need k <= n-k)")
    return BMVector(params, tuple(Fraction(a, b) for a, b in _m_numerators(binom_at_int(n), k, t)))


def _m_numerators(binom_at, k, t) -> list:
    """M's coefficients on A_0..A_k as (numerator, denominator) pairs over the
    provider: g_(k-r) over E C(k,r) C(nu-k,r) for r = k-t..k, and 0 over the
    provider's 1 below."""
    g = _excess_numerators(binom_at, k, t)[2]
    scaled = _m_constants(k, t)[3]
    one = binom_at(0, 0)
    return [(0 * one, one)] * (k - t) + [
        (g[k - r], binom_at(-k, r) * scaled[r]) for r in range(k - t, k + 1)]


def _excess_numerators(binom_at, k, t):
    """(E, l, g) over the provider, in ring operations only, for i, s = 0..t:
    E = lcm of the C(k-i, t-i), which is free of nu, l_i = E lambda_i =
    C(nu-i, t-i) E / C(k-i, t-i) and g_s = E excess_sum(s), the binomial
    inversion of C(k, i) (l_i - l_t), as lambda_t = 1.  Over a provider
    scaled by a constant, l and g scale with it."""
    e, quotients, inversion, _ = _m_constants(k, t)
    lam = [binom_at(-i, t - i) * q for i, q in enumerate(quotients)]
    excess = [x - lam[t] for x in lam]
    zero = 0 * lam[t]
    return e, lam, [sum((c * excess[i] for i, c in row), zero) for row in inversion]


@functools.lru_cache(maxsize=4096)
def _m_constants(k, t):
    """The integers of M that are free of nu, once per (k, t): E, the
    quotients E / C(k-i, t-i), for each s the terms (i, c) of g_s with c =
    (-1)^(i-s) C(i, s) C(k, i), the coefficients of
    ``johnson.binomial_inversion`` times C(k, i), for s <= i < t (as
    l_t - l_t = 0), and E C(k, r) for r = 0..k."""
    e = math.lcm(*(binom(k - i, t - i) for i in range(t + 1)))
    return (e, tuple(e // binom(k - i, t - i) for i in range(t + 1)),
            tuple(tuple((i, (-1) ** (i - s) * math.comb(i, s) * math.comb(k, i))
                        for i in range(s, t)) for s in range(t + 1)),
            tuple(e * binom(k, r) for r in range(k + 1)))


class DesignProjectionReport(Report):
    """Relation between a Steiner design's projection and M(n,k,t).

    Checks trace = |D|, entry sum = |D|^2, and the coefficientwise identity
    projection = (|D| / C(n,k)) * (I + M).
    """

    n: int
    k: int
    t: int
    size: int
    projection: tuple[Fraction, ...]
    scaled_identity_plus_m: tuple[Fraction, ...]
    trace_ok: bool
    elsm_ok: bool
    relation_ok: bool
    verified: bool


def design_projection_report(design: Design) -> DesignProjectionReport:
    if design.lam != 1:
        raise ValueError("projection identity applies to Steiner (lambda = 1) designs")
    fam = design.family
    params = SchemeParams(fam.n, fam.k)
    proj = project_family(fam)
    m = design_matrix(fam.n, fam.k, design.t)
    scale = Fraction(fam.size, params.order)
    rhs = BMVector(params, tuple(plus_identity(m.coeffs))).scale(scale)
    trace_ok = trace(proj) == fam.size
    elsm_ok = entry_sum(proj) == fam.size * fam.size
    relation_ok = proj.coeffs == rhs.coeffs
    return DesignProjectionReport(
        n=fam.n,
        k=fam.k,
        t=design.t,
        size=fam.size,
        projection=proj.coeffs,
        scaled_identity_plus_m=rhs.coeffs,
        trace_ok=trace_ok,
        elsm_ok=elsm_ok,
        relation_ok=relation_ok,
        verified=trace_ok and elsm_ok and relation_ok,
    )


# admissible refuses t > MAX_TABLE_K or n >= MAX_TABLE_N, which keeps its
# 2t binomials below 2**4096 (at most about 1 ms a size);
# admissible_range refuses more than MAX_ADMISSIBLE_SIZES sizes
MAX_ADMISSIBLE_SIZES = 1000


def admissible(n: int, k: int, t: int) -> bool:
    """Divisibility conditions: C(k-i, t-i) | C(n-i, t-i) for i = 0..t-1.

    t > MAX_TABLE_K or n >= MAX_TABLE_N are refused with SizeBudgetError.
    """
    if not 0 <= t <= k <= n:
        raise ValueError(f"need 0 <= t <= k <= n, got t={t}, k={k}, n={n}")
    refuse_above(t, MAX_TABLE_K, f"t of admissibility at n = {n} under the table bound")
    refuse_above(n, MAX_TABLE_N - 1, f"n of admissibility at t = {t} under the table bound")
    return all(
        binom(n - i, t - i) % binom(k - i, t - i) == 0 for i in range(t)
    )


def admissible_range(k: int, t: int, n_max: int) -> list[int]:
    """Admissible ground-set sizes in (k, n_max]; n = k is degenerate.

    A range of more than MAX_ADMISSIBLE_SIZES sizes raises SizeBudgetError.
    """
    refuse_above(n_max - k, MAX_ADMISSIBLE_SIZES, f"sizes in ({k}, {n_max}]")
    return [n for n in range(k + 1, n_max + 1) if admissible(n, k, t)]


# ---------------------------------------------------------------------------
# Exact-cover search (Algorithm X)


# rows * columns up to which _exact_cover may take the packed kernel, whose
# row ints then take about 4 MiB at most.  (21,5,2) and (25,5,2), whose row
# ints would take 4.0 and 14.1 MB and whose columns have 969 and 1771 rows,
# take the list kernel.
MAX_PACKED_CELLS = 1 << 22


def _exact_cover(num_columns: int, rows: list[tuple[int, ...]], budget: int):
    """Knuth's Algorithm X: (status, chosen rows, nodes).

    The column with the fewest live rows is chosen, ties to the lowest
    index, and its rows are tried in ascending order, so the first solution
    is a deterministic function of the input.  ``nodes`` counts row
    expansions, including the first one past the budget.  The column index
    is built in one pass of appends; the instance then goes to one of two
    kernels that make the same choices, so the same rows and node counts:
    ``_packed_cover`` when every column has fewer than 255 rows and rows *
    columns is at most MAX_PACKED_CELLS, ``_list_cover`` otherwise.
    """
    col_rows = [[] for _ in range(num_columns)]
    append = [rs.append for rs in col_rows]
    for r, cols in enumerate(rows):
        for c in cols:
            append[c](r)
    if (len(rows) * num_columns <= MAX_PACKED_CELLS
            and max(map(len, col_rows), default=0) < 255):
        return _packed_cover(rows, col_rows, budget)
    return _list_cover(rows, col_rows, budget)


def _packed_cover(rows, col_rows, budget):
    """Algorithm X with every column's live-row count in one byte of one int.

    Byte c of ``counts`` is the number of live rows through column c, or 255
    while c is covered.  Each row has an int with a 1 in the byte of each of
    its columns, so killing it is one subtraction.  A level covers its
    columns as one net delta, their live rows' ints less 255 in each covered
    byte, and undoes itself with that delta and the ``live`` flags alone.
    The choice reads the bytes once per node: a 0 is a dead end, else the
    first byte of the least value, found by ``find`` for 1, 2, ... in turn,
    is the column the minimum would choose, and all 255 is a cover.
    """
    num_columns = len(col_rows)
    unit = bytearray(num_columns)
    ints = []
    for cols in rows:
        for c in cols:
            unit[c] = 1
        ints.append(int.from_bytes(unit, "little"))
        for c in cols:
            unit[c] = 0
    counts = int.from_bytes(bytes(map(len, col_rows)), "little")
    live = [True] * len(rows)
    nodes = 0
    # one level per chosen column: [column, its candidate rows, the delta that
    # covers it, 255 in its byte, index of the next candidate, the rows the
    # current candidate killed, the delta that covers its other columns]
    stack = []
    while True:
        sizes = counts.to_bytes(num_columns, "little")
        if sizes.find(0) < 0:  # else a dead end: backtrack without a choice
            for fewest in range(1, 255):  # the first column of the fewest rows
                c = sizes.find(fewest)
                if c >= 0:
                    break
            else:  # every column is covered
                return "found", [level[1][level[4] - 1] for level in stack], nodes
            candidates = [r for r in col_rows[c] if live[r]]
            for r in candidates:
                live[r] = False
            full = 255 << (c << 3)
            delta = sum(map(ints.__getitem__, candidates)) - full
            counts -= delta
            stack.append([c, candidates, delta, full, 0, (), 0])
        while stack:  # advance to the next untried candidate, backtracking
            level = stack[-1]
            c, candidates, cdelta, full, i, killed, delta = level
            counts += delta
            for r in killed:
                live[r] = True
            if i == len(candidates):
                counts += cdelta
                for r in candidates:
                    live[r] = True
                stack.pop()
                continue
            nodes += 1
            if nodes > budget:
                return "budget-exhausted", None, nodes
            r = candidates[i]
            delta = full - 255 * ints[r]  # less 255 in the bytes of r's columns but c
            killed = []
            for j in rows[r]:
                if j != c:
                    for x in col_rows[j]:
                        if live[x]:
                            live[x] = False
                            killed.append(x)
                            delta += ints[x]
            counts -= delta
            level[4:] = i + 1, killed, delta
            break
        else:
            return "not-found", None, nodes


def _list_cover(rows, col_rows, budget):
    """Algorithm X over plain lists, for columns of any number of rows.

    A covered column carries ``covered`` on top of its size, so it never
    wins the minimum.  The byte map ``low`` holds each column's size capped
    at 2, or 3 while it is covered, kept exact by cover and uncover (an
    uncovered column restarts at 0 and the rows revived through it count it
    back up), so the choice is a memchr over it: a 0 is a dead end, the
    first 1 is the column the minimum would choose, no 0, 1 or 2 means every
    column is covered, and only otherwise is the minimum taken over
    ``sizes``.  Each of these answers is the minimum's, so the choices and
    node counts are too.
    """
    sizes = list(map(len, col_rows))
    low = bytearray(min(size, 2) for size in sizes)
    live = [True] * len(rows)
    covered = len(rows) + 1

    def cover(cols, skip=-1):
        """Cover the columns but ``skip`` and return the live rows through
        them, now dead."""
        killed = []
        for c in cols:
            if c == skip:
                continue
            sizes[c] += covered
            low[c] = 3
            for r in col_rows[c]:
                if live[r]:
                    live[r] = False
                    killed.append(r)
                    for j in rows[r]:
                        s = sizes[j] - 1
                        sizes[j] = s
                        if s < 2:
                            low[j] = s
        return killed

    def uncover(cols, killed, skip=-1):
        for c in cols:
            if c == skip:
                continue
            sizes[c] -= covered  # to 0: cover killed every live row through c
            low[c] = 0
        for r in killed:
            live[r] = True
            for j in rows[r]:
                s = sizes[j] + 1
                sizes[j] = s
                if s < 3:
                    low[j] = s

    nodes = 0
    # one level per chosen column: [column, its candidate rows, index of the
    # next candidate, the current candidate's columns, the rows they killed]
    stack = []
    while True:
        if low.find(0) < 0:  # else a dead end: backtrack without a choice
            c = low.find(1)
            if c < 0:
                if low.find(2) < 0:
                    return "found", [level[1][level[2] - 1] for level in stack], nodes
                c = sizes.index(min(sizes))
            stack.append([c, cover((c,)), 0, (), ()])
        while stack:  # advance to the next untried candidate, backtracking
            level = stack[-1]
            c, candidates, i, cols, killed = level
            uncover(cols, killed, c)
            if i == len(candidates):
                uncover((c,), candidates)
                stack.pop()
                continue
            nodes += 1
            if nodes > budget:
                return "budget-exhausted", None, nodes
            cols = rows[candidates[i]]
            level[2:] = i + 1, cols, cover(cols, c)
            break
        else:
            return "not-found", None, nodes


class SearchOutcome(Record):
    """Result of a Steiner-system search: found / not-found / budget-exhausted."""

    status: str
    design: Design | None
    nodes: int


DEFAULT_SEARCH_BUDGET = 5_000_000

# search_design refuses more than MAX_SEARCH_ENTRIES row entries
# C(n,k) * C(k,t) before it enumerates a subset.  Measured peak RSS near
# the bound: 41 MB at (28,5,2) up to the first node, 81 MB at
# (1000,2,1), and 160 MB at (71,4,4), whose design is all 971 635 of its
# 4-subsets, held as tuples in a Family and taken with lambda = 1 uncounted.
MAX_SEARCH_ENTRIES = 1_000_000


def search_design(n: int, k: int, t: int,
                  budget: int = DEFAULT_SEARCH_BUDGET) -> SearchOutcome:
    """Search for a t-(n,k,1) design by exact cover over the t-subsets.

    Columns are the t-subsets (colex indexed), rows the k-subsets, each row
    covering its C(k,t) t-subsets.  The traversal is deterministic, so the
    returned design is reproducible; the budget counts row expansions and
    distinguishes an exhausted search space ("not-found") from an exhausted
    budget.  For k = t the one design, every k-subset, is taken without a
    search, with the outcome and node count the search would report.  More
    than MAX_SEARCH_ENTRIES row entries C(n,k) * C(k,t) are refused with
    SizeBudgetError, and for t < k so are more than MAX_SEARCH_ENTRIES
    entries C(n,t) * t of the column index.
    """
    if not 0 < t <= k <= n:
        raise ValueError(f"need 0 < t <= k <= n, got t={t}, k={k}, n={n}")
    refuse_above(binom(n, k) * binom(k, t), MAX_SEARCH_ENTRIES,
                 f"row entries C({n},{k}) * C({k},{t}) under the search bound")
    if k == t:
        # each row covers only its own column, so Algorithm X expands the
        # rows one by one in colex order and takes them all
        nodes = binom(n, k)
        if nodes > budget:
            return SearchOutcome("budget-exhausted", None, max(budget, 0) + 1)
        # every t-subset is one block, so lambda = 1 with no count to take
        design = Design(Family(n, k, tuple(colex_tuples(n, k))), t, 1)
        return SearchOutcome("found", design, nodes)
    # the column index holds C(n,t) t-tuples, which the row bound does not
    # bound when t is near n: C(200,199) * C(199,198) is 39 800 row entries
    # over 19 900 tuples of 198 points
    num_columns = binom(n, t)
    refuse_above(num_columns * t, MAX_SEARCH_ENTRIES,
                 f"t-subset index entries C({n},{t}) * {t} under the search bound")
    # rows and columns in colex order, built from the decreasing tuples
    # that ``combinations`` yields in reverse colex order from the
    # decreasing ground set: position i of a walk is colex rank C(n,k)-1-i
    t_index = {sub: num_columns - 1 - i
               for i, sub in enumerate(combinations(range(n, 0, -1), t))}
    column = t_index.__getitem__
    rows = [tuple(map(column, combinations(block, t)))
            for block in combinations(range(n, 0, -1), k)]
    rows.reverse()
    status, chosen, nodes = _exact_cover(num_columns, rows, budget)
    del rows
    if status != "found":
        return SearchOutcome(status, None, nodes)
    # only the chosen blocks are built as subsets, by a second walk
    picked = bytearray(binom(n, k))
    for r in chosen:
        picked[-1 - r] = 1
    blocks = [b[::-1] for b in compress(combinations(range(n, 0, -1), k), picked)]
    blocks.reverse()
    design = as_design(Family(n, k, tuple(blocks)), t)  # colex tuples are sorted
    if design.lam != 1:
        raise RuntimeError("search produced a family that is not a Steiner system")
    return SearchOutcome("found", design, nodes)
