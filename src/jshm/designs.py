"""t-designs: verification, the block-count formulas, projection identity,
exact-cover search for small Steiner systems, and divisibility admissibility.

A t-(n,k,lambda) design is a family of k-subsets ("blocks") covering every
t-subset of points exactly lambda times.  For lambda = 1 (Steiner systems)
the classical counting formulas give the number of blocks through any i-set,

    block_count(n,k,t,i) = C(n-i, k-i) / C(n-t, k-t),

and the projection of the design's pair matrix onto the Bose-Mesner algebra
is (|D| / C(n,k)) * (I + M(n,k,t)), where the matrix M is assembled from the
alternating excess sums below.  M is well defined whether or not a design
exists.  Each formula is written once over a binomial provider, numeric
(``exact.binom_at_size(n)``) or symbolic in nu (``exact.binom_rf``).

The search is Knuth's Algorithm X (*Dancing Links*, 2000) over plain lists:
live-row flags and per-column live counts stand in for the linked nodes,
with the same column choice and row order, so found designs and node
counts are those of the classical linked version.  Every enumeration here
(search rows, verified t-subsets, admissible sizes) is refused with
``SizeBudgetError`` above a fixed bound before it starts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from .exact import RationalFunction, Report, binom, binom_at_size, binom_rf, to_json
from .johnson import (
    MAX_ENUMERATED_SUBSETS,
    MAX_TABLE_K,
    MAX_TABLE_N,
    BMVector,
    SchemeParams,
    SizeBudgetError,
    entry_sum,
    plus_identity,
    trace,
)
from .projection import project_family
from .subsets import Family, colex_tuples, family_to_dict, make_family


class NotADesignError(ValueError):
    """A family failed design verification; carries a witness t-subset."""

    def __init__(self, witness: tuple[int, ...], count: int, expected: int | None):
        self.witness = witness
        self.count = count
        self.expected = expected
        detail = f"covered {count} times"
        if expected is not None:
            detail += f", expected {expected}"
        super().__init__(f"subset {list(witness)} {detail}")


@dataclass(frozen=True)
class Design(Report):
    """A verified t-(n,k,lambda) design; ``lam`` is None only in the
    document of a family that failed verification."""

    family: Family
    t: int
    lam: int | None

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

    Each block's C(k,t) t-subsets are counted once, then the C(n,t)
    t-subsets are looked up in ``combinations`` order: O(|F| C(k,t) + C(n,t)).
    lambda is the count of {1..t}, and the witness is the first t-subset
    whose count differs from it.  The walk over the C(n,t) t-subsets is
    refused with SizeBudgetError above ``johnson.MAX_ENUMERATED_SUBSETS``.
    At t = 0 the only t-subset is the empty set, in every block, so
    lambda = |F| and the ground set, of any size, is not walked.
    """
    if not 0 <= t <= fam.k:
        raise ValueError(f"strength t={t} out of range [0, {fam.k}]")
    if t == 0:
        return fam.size
    if binom(fam.n, t) > MAX_ENUMERATED_SUBSETS:
        raise SizeBudgetError(f"C({fam.n},{t}) = {binom(fam.n, t)} t-subsets exceed "
                              f"the enumeration cap {MAX_ENUMERATED_SUBSETS}")
    counts = Counter(chain.from_iterable(combinations(m, t) for m in fam.members))
    subs = combinations(range(1, fam.n + 1), t)
    lam = counts[next(subs)]  # t <= n, so {1..t} exists
    for sub in subs:
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
    """lambda_i = C(n-i, k-i) / C(n-t, k-t), blocks through a fixed i-set."""
    _check_formula_params(n, k, t, i, "i")
    return _block_count(binom_at_size(n), k, t, i)


def excess_sum(n: int, k: int, t: int, s: int) -> Fraction:
    """Alternating sum over i of C(i,s) C(k,i) (lambda_i - 1), i = s..t."""
    _check_formula_params(n, k, t, s, "s")
    return _excess_sums(binom_at_size(n), k, t)[s]


def _check_formula_params(n, k, t, idx, name):
    if not 0 <= t <= k <= n:
        raise ValueError(f"need 0 <= t <= k <= n, got t={t}, k={k}, n={n}")
    if not 0 <= idx <= t:
        raise ValueError(f"index {name}={idx} out of range [0, {t}]")


def design_matrix(n: int, k: int, t: int) -> BMVector:
    """M(n,k,t): coefficient excess_sum(s) / (C(n-k,k-s) C(k,s)) on A_{k-s}.

    Supported on the classes A_{k-t}..A_k only (and the A_{k-t} coefficient
    itself vanishes because lambda_t = 1 kills the s = t excess).
    """
    if not 0 <= t < k:
        raise ValueError(f"need 0 <= t < k, got t={t}, k={k}")
    params = SchemeParams(n, k)
    if k > n - k:
        raise ValueError(f"out of regime: C({n - k},{k}) = 0 (need k <= n-k)")
    return BMVector(params, tuple(_design_coeffs(binom_at_size(n), k, t)))


def design_matrix_symbolic(k: int, t: int) -> list[RationalFunction]:
    """Coefficients of M(nu,k,t) on A_0..A_k as rational functions of nu."""
    if not 0 <= t < k:
        raise ValueError(f"need 0 <= t < k, got t={t}, k={k}")
    return _design_coeffs(binom_rf, k, t)


def _block_count(binom_at, k, t, i):
    return binom_at(-i, k - i) / binom_at(-t, k - t)


def _excess_sums(binom_at, k, t):
    excess = [_block_count(binom_at, k, t, i) - 1 for i in range(t + 1)]
    return [sum((-1) ** (i - s) * binom(i, s) * binom(k, i) * excess[i]
                for i in range(s, t + 1)) for s in range(t + 1)]


def _design_coeffs(binom_at, k, t):
    coeffs = [0 * binom_at(0, 0)] * (k + 1)  # zeros of the provider's type
    for s, gamma in enumerate(_excess_sums(binom_at, k, t)):
        coeffs[k - s] = gamma / (binom_at(-k, k - s) * binom(k, s))
    return coeffs


@dataclass(frozen=True)
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

    t > MAX_TABLE_K or n >= MAX_TABLE_N raise SizeBudgetError.
    """
    if not 0 <= t <= k <= n:
        raise ValueError(f"need 0 <= t <= k <= n, got t={t}, k={k}, n={n}")
    if t > MAX_TABLE_K or n >= MAX_TABLE_N:
        raise SizeBudgetError(f"admissibility at t = {t}, n = {n} exceeds the "
                              f"bound t <= {MAX_TABLE_K}, n < 2**64")
    return all(
        binom(n - i, t - i) % binom(k - i, t - i) == 0 for i in range(t)
    )


def admissible_range(k: int, t: int, n_max: int) -> list[int]:
    """Admissible ground-set sizes in (k, n_max]; n = k is degenerate.

    A range of more than MAX_ADMISSIBLE_SIZES sizes raises SizeBudgetError.
    """
    if n_max - k > MAX_ADMISSIBLE_SIZES:
        raise SizeBudgetError(f"range of {n_max - k} sizes exceeds the bound "
                              f"{MAX_ADMISSIBLE_SIZES}")
    return [n for n in range(k + 1, n_max + 1) if admissible(n, k, t)]


# ---------------------------------------------------------------------------
# Exact-cover search (Algorithm X)


def _exact_cover(num_columns: int, rows: list[list[int]], budget: int):
    """Knuth's Algorithm X over plain lists: (status, chosen rows, nodes).

    The column with the fewest live rows is chosen, ties to the lowest
    index, and its rows are tried in ascending order, so the first solution
    is a deterministic function of the input.  ``nodes`` counts row
    expansions, including the first one past the budget.  A covered column
    carries ``covered`` on top of its size, so it never wins the minimum,
    and a minimum of at least ``covered`` means every column is covered.
    """
    col_rows = [[] for _ in range(num_columns)]
    for r, cols in enumerate(rows):
        for c in cols:
            col_rows[c].append(r)
    sizes = [len(rs) for rs in col_rows]
    live = [True] * len(rows)
    covered = len(rows) + 1

    def cover(cols):
        """Cover the columns and return the live rows through them, now dead."""
        killed = []
        for c in cols:
            sizes[c] += covered
            for r in col_rows[c]:
                if live[r]:
                    live[r] = False
                    killed.append(r)
                    for j in rows[r]:
                        sizes[j] -= 1
        return killed

    def uncover(cols, killed):
        for c in cols:
            sizes[c] -= covered
        for r in killed:
            live[r] = True
            for j in rows[r]:
                sizes[j] += 1

    nodes = 0
    # one level per chosen column: [[column], its candidate rows, index of the
    # next candidate, the other columns of the current one, the rows they killed]
    stack = []
    while True:
        fewest = min(sizes)
        if fewest >= covered:
            return "found", [level[1][level[2] - 1] for level in stack], nodes
        if fewest:
            chosen = [sizes.index(fewest)]
            stack.append([chosen, cover(chosen), 0, [], []])
        while stack:  # advance to the next untried candidate, backtracking
            level = stack[-1]
            chosen, candidates, i, others, killed = level
            uncover(others, killed)
            if i == len(candidates):
                uncover(chosen, candidates)
                stack.pop()
                continue
            nodes += 1
            if nodes > budget:
                return "budget-exhausted", None, nodes
            others = [j for j in rows[candidates[i]] if j != chosen[0]]
            level[2:] = i + 1, others, cover(others)
            break
        else:
            return "not-found", None, nodes


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a Steiner-system search: found / not-found / budget-exhausted."""

    status: str
    design: Design | None
    nodes: int


DEFAULT_SEARCH_BUDGET = 5_000_000

# search_design refuses more than MAX_SEARCH_ENTRIES row entries
# C(n,k) * C(k,t) before it enumerates a subset.  Measured peak RSS near
# the bound: 57 MB at (28,5,2), 128 MB at (1000,2,1), and 480 MB at
# (71,4,4), since for k = t every row is a column of its own.
MAX_SEARCH_ENTRIES = 1_000_000


def search_design(n: int, k: int, t: int,
                  budget: int = DEFAULT_SEARCH_BUDGET) -> SearchOutcome:
    """Search for a t-(n,k,1) design by exact cover over the t-subsets.

    Columns are the t-subsets (colex indexed), rows the k-subsets, each row
    covering its C(k,t) t-subsets.  The traversal is deterministic, so the
    returned design is reproducible; the budget counts row expansions and
    distinguishes an exhausted search space ("not-found") from an exhausted
    budget.  More than MAX_SEARCH_ENTRIES row entries raise SizeBudgetError.
    """
    if not 0 < t <= k <= n:
        raise ValueError(f"need 0 < t <= k <= n, got t={t}, k={k}, n={n}")
    entries = binom(n, k) * binom(k, t)
    if entries > MAX_SEARCH_ENTRIES:
        raise SizeBudgetError(f"C({n},{k}) * C({k},{t}) = {entries} row entries "
                              f"exceed the search bound {MAX_SEARCH_ENTRIES}")
    t_index = {sub: i for i, sub in enumerate(colex_tuples(n, t))}
    k_subsets = colex_tuples(n, k)
    rows = [[t_index[sub] for sub in combinations(block, t)] for block in k_subsets]
    status, chosen, nodes = _exact_cover(len(t_index), rows, budget)
    if status != "found":
        return SearchOutcome(status, None, nodes)
    blocks = [k_subsets[r] for r in sorted(chosen)]
    design = as_design(make_family(n, k, blocks), t)
    if design.lam != 1:
        raise RuntimeError("search produced a family that is not a Steiner system")
    return SearchOutcome("found", design, nodes)
