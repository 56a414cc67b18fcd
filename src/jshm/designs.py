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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exact import RationalFunction, binom, binom_at_size, binom_rf, rat_to_str
from .johnson import (
    BMVector,
    SchemeParams,
    check_table_bound,
    entry_sum,
    plus_identity,
    trace,
)
from .projection import project_family
from .subsets import Family, KSubset, colex_rank, family_to_dict, make_family


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
class Design:
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

    def to_dict(self) -> dict:
        doc = family_to_dict(self.family)
        doc["t"] = self.t
        doc["lambda"] = self.lam
        return doc


def verify_design(fam: Family, t: int) -> int:
    """Return the common cover count lambda, or raise with a witness subset."""
    if not 0 <= t <= fam.k:
        raise ValueError(f"strength t={t} out of range [0, {fam.k}]")
    masks = [m.mask for m in fam.members]
    lam = None
    for sub in combinations(range(1, fam.n + 1), t):
        sm = 0
        for e in sub:
            sm |= 1 << (e - 1)
        count = sum(1 for bm in masks if bm & sm == sm)
        if lam is None:
            lam = count
        elif count != lam:
            raise NotADesignError(sub, count, lam)
    return lam if lam is not None else 0


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
    check_table_bound(params)
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
class DesignProjectionReport:
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
    entry_sum_ok: bool
    relation_ok: bool

    @property
    def verified(self) -> bool:
        return self.trace_ok and self.entry_sum_ok and self.relation_ok

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "t": self.t,
            "size": self.size,
            "projection": [rat_to_str(c) for c in self.projection],
            "scaled_identity_plus_m": [rat_to_str(c) for c in self.scaled_identity_plus_m],
            "trace_ok": self.trace_ok,
            "elsm_ok": self.entry_sum_ok,
            "relation_ok": self.relation_ok,
            "verified": self.verified,
        }


def design_projection_report(design: Design) -> DesignProjectionReport:
    if design.lam != 1:
        raise ValueError("projection identity applies to Steiner (lambda = 1) designs")
    fam = design.family
    params = SchemeParams(fam.n, fam.k)
    proj = project_family(fam)
    m = design_matrix(fam.n, fam.k, design.t)
    scale = Fraction(fam.size, params.order)
    rhs = BMVector(params, tuple(plus_identity(m.coeffs))).scale(scale)
    return DesignProjectionReport(
        n=fam.n,
        k=fam.k,
        t=design.t,
        size=fam.size,
        projection=proj.coeffs,
        scaled_identity_plus_m=rhs.coeffs,
        trace_ok=trace(proj) == fam.size,
        entry_sum_ok=entry_sum(proj) == fam.size * fam.size,
        relation_ok=proj.coeffs == rhs.coeffs,
    )


def admissible(n: int, k: int, t: int) -> bool:
    """Divisibility conditions: C(k-i, t-i) | C(n-i, t-i) for i = 0..t-1."""
    if not 0 <= t <= k <= n:
        raise ValueError(f"need 0 <= t <= k <= n, got t={t}, k={k}, n={n}")
    return all(
        binom(n - i, t - i) % binom(k - i, t - i) == 0 for i in range(t)
    )


def admissible_range(k: int, t: int, n_max: int) -> list[int]:
    """Admissible ground-set sizes in (k, n_max]; n = k is degenerate."""
    return [n for n in range(k + 1, n_max + 1) if admissible(n, k, t)]


# ---------------------------------------------------------------------------
# Exact-cover search (dancing links)


class _Column:
    __slots__ = ("index", "size", "left", "right", "up", "down")

    def __init__(self, index: int):
        self.index = index
        self.size = 0
        self.left = self.right = self
        self.up = self.down = self


class _Node:
    __slots__ = ("row", "column", "left", "right", "up", "down")

    def __init__(self, row: int, column: _Column):
        self.row = row
        self.column = column
        self.left = self.right = self
        self.up = self.down = self


class _BudgetExhausted(Exception):
    pass


class _DancingLinks:
    """Knuth's Algorithm X on doubly linked sparse columns.

    Column choice is fewest-candidates with ties broken by the leftmost
    (lowest-index) column, and rows are tried in insertion order, so the
    first solution found is a deterministic function of the input.
    """

    def __init__(self, num_columns: int, rows: list[list[int]]):
        self.root = _Column(-1)
        self.columns = []
        prev = self.root
        for idx in range(num_columns):
            col = _Column(idx)
            col.left, col.right = prev, self.root
            prev.right = col
            self.root.left = col
            self.columns.append(col)
            prev = col
        for row_id, row_cols in enumerate(rows):
            first = None
            for c in row_cols:
                col = self.columns[c]
                node = _Node(row_id, col)
                node.up, node.down = col.up, col
                col.up.down = node
                col.up = node
                col.size += 1
                if first is None:
                    first = node
                else:
                    node.left, node.right = first.left, first
                    first.left.right = node
                    first.left = node
        self.nodes = 0
        self.budget = 0
        self.solution: list[int] = []

    def _cover(self, col: _Column):
        col.right.left = col.left
        col.left.right = col.right
        i = col.down
        while i is not col:
            j = i.right
            while j is not i:
                j.down.up = j.up
                j.up.down = j.down
                j.column.size -= 1
                j = j.right
            i = i.down

    def _uncover(self, col: _Column):
        i = col.up
        while i is not col:
            j = i.left
            while j is not i:
                j.column.size += 1
                j.down.up = j
                j.up.down = j
                j = j.left
            i = i.up
        col.right.left = col
        col.left.right = col

    def _search(self) -> bool:
        if self.root.right is self.root:
            return True
        col = self.root.right
        best = col
        while col is not self.root:
            if col.size < best.size:
                best = col
            col = col.right
        if best.size == 0:
            return False
        self._cover(best)
        row_node = best.down
        while row_node is not best:
            self.nodes += 1
            if self.nodes > self.budget:
                raise _BudgetExhausted
            self.solution.append(row_node.row)
            j = row_node.right
            while j is not row_node:
                self._cover(j.column)
                j = j.right
            if self._search():
                return True
            j = row_node.left
            while j is not row_node:
                self._uncover(j.column)
                j = j.left
            self.solution.pop()
            row_node = row_node.down
        self._uncover(best)
        return False

    def solve(self, budget: int) -> bool:
        self.budget = budget
        return self._search()


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a Steiner-system search: found / not-found / budget-exhausted."""

    status: str
    design: Design | None
    nodes: int


DEFAULT_SEARCH_BUDGET = 5_000_000


def search_design(n: int, k: int, t: int,
                  budget: int = DEFAULT_SEARCH_BUDGET) -> SearchOutcome:
    """Search for a t-(n,k,1) design by exact cover over the t-subsets.

    Columns are the t-subsets (colex indexed), rows the k-subsets, each row
    covering its C(k,t) t-subsets.  The traversal is deterministic, so the
    returned design is reproducible; the budget counts row expansions and
    distinguishes an exhausted search space ("not-found") from an exhausted
    budget.
    """
    if not 0 < t <= k <= n:
        raise ValueError(f"need 0 < t <= k <= n, got t={t}, k={k}, n={n}")
    t_index = {
        sub: colex_rank(KSubset(n, sub))
        for sub in combinations(range(1, n + 1), t)
    }
    k_subsets = sorted(combinations(range(1, n + 1), k), key=lambda s: s[::-1])
    rows = [
        sorted(t_index[sub] for sub in combinations(block, t))
        for block in k_subsets
    ]
    dlx = _DancingLinks(len(t_index), rows)
    try:
        found = dlx.solve(budget)
    except _BudgetExhausted:
        return SearchOutcome("budget-exhausted", None, dlx.nodes)
    if not found:
        return SearchOutcome("not-found", None, dlx.nodes)
    blocks = sorted((k_subsets[r] for r in dlx.solution), key=lambda s: s[::-1])
    design = as_design(make_family(n, k, blocks), t)
    if design.lam != 1:
        raise RuntimeError("search produced a family that is not a Steiner system")
    return SearchOutcome("found", design, dlx.nodes)
