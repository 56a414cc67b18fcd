"""The Bose-Mesner algebra of the Johnson scheme J(n,k).

The scheme's classes are the 01-matrices A_0..A_k indexed by k-subsets of
{1..n}, where A_r has a 1 in entry (S, T) exactly when |S intersect T| =
k - r (equivalently, S and T are at distance r in the Johnson graph; A_0 is
the identity and the A_r sum to the all-ones matrix).  An algebra element
is stored as its coefficient vector on this basis (:class:`BMVector`);
dense materialization exists only as an oracle path.

The exact eigenvalue table is built from the three-term product recurrence
of the scheme, with every intersection number counted directly, and the
construction aborts if any of the classical identities fails, so a passing
construction is itself a consistency certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import Polynomial, binom
from .subsets import KSubset, all_ksubsets

DEFAULT_DENSE_BUDGET = 5000

# colex_masks refuses larger C(n,k); admits C(25,8) = 1 081 575 (~350 MB peak)
MAX_ENUMERATED_SUBSETS = 2_000_000


class SizeBudgetError(RuntimeError):
    """Work refused: a dense order or an enumeration exceeds its budget."""


class SelfCheckError(RuntimeError):
    """A construction-time identity failed, signalling a formula bug."""


@dataclass(frozen=True)
class SchemeParams:
    """Parameters (n, k) of the Johnson scheme J(n,k)."""

    n: int
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")

    @property
    def order(self) -> int:
        """Number of k-subsets, i.e. the matrix order C(n,k)."""
        return binom(self.n, self.k)

    @property
    def num_classes(self) -> int:
        return self.k + 1


def class_size(params: SchemeParams, r: int) -> int:
    """Number of ones of A_r: C(n,k) * C(k,r) * C(n-k,r).

    This equals the inner product of A_r with itself, since the classes are
    01-matrices with disjoint supports.
    """
    return params.order * binom(params.k, r) * binom(params.n - params.k, r)


@dataclass(frozen=True)
class BMVector:
    """Element sum(c_r * A_r) of the Bose-Mesner algebra.

    Coefficients are exact scalars: Fraction for numeric work, or any type
    with field arithmetic (rational functions) for symbolic sweeps.
    """

    params: SchemeParams
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.params.num_classes:
            raise ValueError(
                f"expected {self.params.num_classes} coefficients, "
                f"got {len(self.coeffs)}"
            )

    def __add__(self, other: "BMVector") -> "BMVector":
        _check_params(self, other)
        return BMVector(self.params, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "BMVector") -> "BMVector":
        _check_params(self, other)
        return BMVector(self.params, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c) -> "BMVector":
        return BMVector(self.params, tuple(a * c for a in self.coeffs))


def _check_params(u: BMVector, v: BMVector):
    if u.params != v.params:
        raise ValueError(f"parameter mismatch: {u.params} vs {v.params}")


def basis_vector(params: SchemeParams, r: int) -> BMVector:
    """The class A_r as a coefficient vector."""
    if not 0 <= r <= params.k:
        raise ValueError(f"class index {r} out of range [0, {params.k}]")
    return BMVector(
        params, tuple(Fraction(1 if i == r else 0) for i in range(params.num_classes))
    )


def identity_vector(params: SchemeParams) -> BMVector:
    return basis_vector(params, 0)


def plus_identity(coeffs) -> list:
    """Coefficients of X + I from those of X (any scalar type; I is A_0)."""
    return [coeffs[0] + 1, *coeffs[1:]]


def all_ones_vector(params: SchemeParams) -> BMVector:
    """J = sum of all classes."""
    return BMVector(params, tuple(Fraction(1) for _ in range(params.num_classes)))


def entry(v: BMVector, s: KSubset, t: KSubset) -> object:
    """Matrix entry (S, T) of v, namely c_{k - |S intersect T|}."""
    p = v.params
    if s.n != p.n or s.k != p.k or t.n != p.n or t.k != p.k:
        raise ValueError("subset does not match scheme parameters")
    r = p.k - (s.mask & t.mask).bit_count()
    return v.coeffs[r]


@lru_cache(maxsize=None)
def colex_masks(n: int, k: int) -> tuple[int, ...]:
    """Bitmasks of all k-subsets in colex order (cached; sweeps reuse it)."""
    if binom(n, k) > MAX_ENUMERATED_SUBSETS:
        raise SizeBudgetError(f"C({n},{k}) = {binom(n, k)} subsets exceed the "
                              f"enumeration cap {MAX_ENUMERATED_SUBSETS}")
    return tuple(s.mask for s in all_ksubsets(n, k))


def dense(v: BMVector, max_order: int = DEFAULT_DENSE_BUDGET) -> list[list]:
    """Materialize v as a square array in colex order (oracle path only)."""
    p = v.params
    if p.order > max_order:
        raise SizeBudgetError(f"order {p.order} exceeds dense budget {max_order}")
    masks = colex_masks(p.n, p.k)
    c = v.coeffs
    k = p.k
    return [[c[k - (a & b).bit_count()] for b in masks] for a in masks]


def schur(u: BMVector, v: BMVector) -> BMVector:
    """Entrywise product; coefficientwise because the classes are disjoint 01s."""
    _check_params(u, v)
    return BMVector(u.params, tuple(a * b for a, b in zip(u.coeffs, v.coeffs)))


def inner(u: BMVector, v: BMVector):
    """Standard matrix inner product: sum of u_r * v_r * |A_r|."""
    _check_params(u, v)
    return sum(
        a * b * class_size(u.params, r) for r, (a, b) in enumerate(zip(u.coeffs, v.coeffs))
    )


def trace(v: BMVector):
    return v.coeffs[0] * v.params.order


def entry_sum(v: BMVector):
    """Sum of all matrix entries (inner product with the all-ones matrix)."""
    return sum(c * class_size(v.params, r) for r, c in enumerate(v.coeffs))


def inclusion_matrix(i: int, params: SchemeParams,
                     max_order: int = DEFAULT_DENSE_BUDGET) -> list[list[int]]:
    """01 matrix, rows = i-subsets, cols = k-subsets, 1 when row is contained.

    Rows and columns are in colex order; each row sums to C(n-i, k-i).
    """
    return _subset_pair_matrix(i, params, max_order, contained=True)


def disjointness_matrix(i: int, params: SchemeParams,
                        max_order: int = DEFAULT_DENSE_BUDGET) -> list[list[int]]:
    """01 matrix, rows = i-subsets, cols = k-subsets, 1 when disjoint."""
    return _subset_pair_matrix(i, params, max_order, contained=False)


def _subset_pair_matrix(i, params, max_order, contained):
    if not 0 <= i <= params.k:
        raise ValueError(f"row subset size {i} out of range [0, {params.k}]")
    if params.order > max_order or binom(params.n, i) > max_order:
        raise SizeBudgetError("matrix dimensions exceed dense budget")
    if i == 0:
        return [[1] * params.order]
    rows = colex_masks(params.n, i)
    cols = colex_masks(params.n, params.k)
    if contained:
        return [[1 if a & b == a else 0 for b in cols] for a in rows]
    return [[1 if a & b == 0 else 0 for b in cols] for a in rows]


def wilson_basis_vector(i: int, params: SchemeParams) -> BMVector:
    """The k-subset-indexed product of the inclusion and disjointness matrices.

    Entry (S, T) counts the i-subsets of S avoiding T, which depends only on
    |S minus T|, so the coefficient on A_r is C(r, i).  Wilson's matrix is
    written in this basis.
    """
    if not 0 <= i <= params.k:
        raise ValueError(f"basis index {i} out of range [0, {params.k}]")
    return BMVector(
        params, tuple(Fraction(binom(r, i)) for r in range(params.num_classes))
    )


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


def _product_table_with_first_class(params: SchemeParams) -> list[list[int]]:
    """tri[r][j] = p_{1,j}(r), the expansion of A_1 * A_j on the basis."""
    k = params.k
    masks = colex_masks(params.n, k)
    tri = [[0] * (k + 1) for _ in range(k + 1)]
    for r in range(k + 1):
        alpha, beta = _distance_pair(params, r)
        row = tri[r]
        for g in masks:
            if k - (g & alpha).bit_count() == 1:
                row[k - (g & beta).bit_count()] += 1
    return tri


@dataclass(frozen=True)
class EigenSystem:
    """Exact eigenvalue table of J(n,k).

    ``P[j][i]`` is the eigenvalue of A_i on the j-th common eigenspace,
    ``theta1`` is column i = 1, and ``m[j]`` the eigenspace dimension.
    """

    params: SchemeParams
    theta1: tuple[Fraction, ...]
    P: tuple[tuple[Fraction, ...], ...]
    m: tuple[int, ...]


@lru_cache(maxsize=None)
def eigensystem(params: SchemeParams) -> EigenSystem:
    """Build and self-verify the eigenvalue table of J(n,k).

    Requires k <= n-k (for larger k some classes are empty and the table
    below does not apply).  The A_1 eigenvalues (k-j)(n-k-j) - j are checked
    against the characteristic polynomial of the tridiagonal product table,
    the other columns come from the three-term recurrence, and the row-sum,
    trace and dimension identities are all asserted before returning.
    """
    n, k = params.n, params.k
    if k > n - k:
        raise ValueError(f"eigensystem requires k <= n-k, got k={k}, n={n}")

    tri = _product_table_with_first_class(params)
    for r in range(k + 1):
        for j in range(k + 1):
            if abs(r - j) > 1 and tri[r][j] != 0:
                raise SelfCheckError(f"product table not tridiagonal at ({r},{j})")

    theta1 = tuple(Fraction((k - j) * (n - k - j) - j) for j in range(k + 1))
    if len(set(theta1)) != k + 1:
        raise SelfCheckError("A_1 eigenvalues are not distinct")

    # char poly of the tridiagonal table via the principal-minor recurrence
    x = Polynomial.variable()
    f_prev, f = Polynomial.const(1), x - tri[0][0]
    for r in range(1, k + 1):
        f_prev, f = f, (x - tri[r][r]) * f - tri[r - 1][r] * tri[r][r - 1] * f_prev
    for th in theta1:
        if f.evaluate(th) != 0:
            raise SelfCheckError(f"{th} is not an eigenvalue of the product table")

    # remaining columns by the recurrence theta * P[j][i] = sum_r tri[r][i] P[j][r]
    table = []
    for j in range(k + 1):
        row = [Fraction(1), theta1[j]]
        for i in range(1, k):
            up = tri[i + 1][i]
            if up == 0:
                raise SelfCheckError(f"vanishing recurrence coefficient at i={i}")
            nxt = ((theta1[j] - tri[i][i]) * row[i] - tri[i - 1][i] * row[i - 1]) / up
            row.append(nxt)
        table.append(tuple(row))

    m = tuple(binom(n, j) - binom(n, j - 1) for j in range(k + 1))

    order = params.order
    if sum(m) != order:
        raise SelfCheckError("eigenspace dimensions do not sum to the order")
    for j in range(k + 1):
        want = order if j == 0 else 0
        if sum(table[j]) != want:
            raise SelfCheckError(f"row {j} of the eigenvalue table sums wrongly")
    for i in range(1, k + 1):
        if sum(m[j] * table[j][i] for j in range(k + 1)) != 0:
            raise SelfCheckError(f"class {i} has nonzero trace")

    return EigenSystem(params, theta1, tuple(table), m)


def eigenvalues(v: BMVector) -> tuple[Fraction, ...]:
    """Exact eigenvalues theta_0..theta_k of v, one per eigenspace."""
    es = eigensystem(v.params)
    return tuple(
        sum(c * es.P[j][i] for i, c in enumerate(v.coeffs))
        for j in range(v.params.num_classes)
    )


@dataclass(frozen=True)
class PSDReport:
    """Exact positive-semidefiniteness verdict for an algebra element."""

    psd: bool
    min_eigenvalue: Fraction
    argmin: int
    spectrum: tuple[Fraction, ...]


def psd_report(v: BMVector) -> PSDReport:
    spectrum = eigenvalues(v)
    argmin = min(range(len(spectrum)), key=lambda j: (spectrum[j], j))
    mn = spectrum[argmin]
    return PSDReport(psd=mn >= 0, min_eigenvalue=mn, argmin=argmin, spectrum=spectrum)


def mat_transpose(mat: list[list]) -> list[list]:
    return [list(row) for row in zip(*mat)]


def mat_mul(a: list[list], b: list[list]) -> list[list]:
    if not a or not b or len(a[0]) != len(b):
        raise ValueError("incompatible matrix shapes")
    bt = mat_transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]
