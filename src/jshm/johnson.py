"""The Bose-Mesner algebra of the Johnson scheme J(n,k).

The scheme's classes are the 01-matrices A_0..A_k indexed by k-subsets of
{1..n}, where A_r has a 1 in entry (S, T) exactly when |S intersect T| =
k - r (equivalently, S and T are at distance r in the Johnson graph; A_0 is
the identity and the A_r sum to the all-ones matrix).  An algebra element
is stored as its coefficient vector on this basis (:class:`BMVector`);
dense materialization exists only as an oracle path.

Every spectrum comes from Wilson's lemma, written once over a binomial
provider ``binom_at(shift, b)`` = C(nu + shift, b): W_a, the vector with
C(r, a) on A_r, has eigenvalue (-1)^j C(k-j, a-j) C(nu-a-j, k-j) on the
eigenspace V_j, so the spectrum of an element in the W basis costs O(k^2),
at a size or over Q(nu), enumerating no subset.  At a size the arithmetic
is in integers: an element is brought to one common denominator, and
``w_to_a`` is the change of basis back from W to A.  The eigenvalue table
aborts if a classical identity fails.  The tests' references, the Eberlein
polynomials and counted intersection numbers, are in :mod:`jshm.oracles`.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exact import Record, binom, binom_at_int
from .subsets import SizeBudgetError, colex_tuples, refuse_above, subset_mask

# dense and the dense oracles (inclusion and disjointness matrices,
# brute_projection, max_family) refuse orders above this fixed budget
DEFAULT_DENSE_BUDGET = 5000

# SchemeParams refuses k > MAX_TABLE_K or n >= MAX_TABLE_N, which bounds
# every algebra element: the table costs O(k^3) products of integers of up
# to k*log2(n) bits, a projection grows about as k^2.7, and at n < 2**64
# every entry stays far below the int-to-str digit limit of the JSON output
MAX_TABLE_K = 64
MAX_TABLE_N = 2**64


class SelfCheckError(RuntimeError):
    """A construction-time identity failed, signalling a formula bug."""


class SchemeParams(Record):
    """Parameters (n, k) of the Johnson scheme J(n,k), within the table bound."""

    n: int
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        refuse_above(self.k, MAX_TABLE_K, f"k of J({self.n},{self.k}) under the table bound")
        refuse_above(self.n, MAX_TABLE_N - 1, f"n of J({self.n},{self.k}) under the table bound")

    @property
    def order(self) -> int:
        """Number of k-subsets, i.e. the matrix order C(n,k)."""
        return binom(self.n, self.k)

    @property
    def num_classes(self) -> int:
        return self.k + 1


def valency(params: SchemeParams, r: int) -> int:
    """Number of ones in each row of A_r: C(k,r) * C(n-k,r)."""
    return binom(params.k, r) * binom(params.n - params.k, r)


def class_size(params: SchemeParams, r: int) -> int:
    """Number of ones of A_r: C(n,k) * C(k,r) * C(n-k,r).

    This equals the inner product of A_r with itself, since the classes are
    01-matrices with disjoint supports.
    """
    return params.order * valency(params, r)


class BMVector(Record):
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


def plus_identity(coeffs) -> list:
    """Coefficients of X + I from those of X (any scalar type; I is A_0)."""
    return [coeffs[0] + 1, *coeffs[1:]]


def all_ones_vector(params: SchemeParams) -> BMVector:
    """J = sum of all classes."""
    return BMVector(params, tuple(Fraction(1) for _ in range(params.num_classes)))


def colex_masks(n: int, k: int) -> tuple[int, ...]:
    """Bitmasks of all k-subsets in colex order; more than
    ``subsets.MAX_ENUMERATED_SUBSETS`` are refused in ``colex_tuples``."""
    return tuple(subset_mask(c) for c in colex_tuples(n, k))


def dense(v: BMVector) -> list[list]:
    """Materialize v as a square array in colex order (oracle path only)."""
    p = v.params
    refuse_above(p.order, DEFAULT_DENSE_BUDGET, f"order of J({p.n},{p.k}) under the dense budget")
    masks = colex_masks(p.n, p.k)
    c = v.coeffs
    k = p.k
    return [[c[k - (a & b).bit_count()] for b in masks] for a in masks]


def schur(u: BMVector, v: BMVector) -> BMVector:
    """Entrywise product; coefficientwise because the classes are disjoint 01s."""
    _check_params(u, v)
    return BMVector(u.params, tuple(a * b for a, b in zip(u.coeffs, v.coeffs)))


def trace(v: BMVector):
    return v.coeffs[0] * v.params.order


def row_sum(v: BMVector):
    """Sum of the entries of any one row of v: sum_r c_r times A_r's valency."""
    return sum(c * valency(v.params, r) for r, c in enumerate(v.coeffs))


def entry_sum(v: BMVector):
    """Sum of all matrix entries (inner product with the all-ones matrix)."""
    return v.params.order * row_sum(v)


@functools.lru_cache(maxsize=None)
def _pascal(k: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..k of Pascal's triangle, C(r, a) at [r][a], sharing the rows
    below k; k above MAX_TABLE_K is refused, which bounds this memo and
    that of ``_lemma_factors``."""
    refuse_above(k, MAX_TABLE_K, "k of a binomial table under the table bound")
    return (_pascal(k - 1) if k > 0 else ()) + (tuple(math.comb(k, a) for a in range(k + 1)),)


@functools.lru_cache(maxsize=None)
def _lemma_factors(k: int) -> tuple[tuple[int, ...], ...]:
    """(-1)^j C(k-j, a-j) at [a][j] for 0 <= a, j <= k: W_a's eigenvalue on
    V_j over C(nu-a-j, k-j), zero for j > a."""
    rows = _pascal(k)
    return tuple(tuple((-1) ** j * rows[k - j][a - j] if j <= a else 0 for j in range(k + 1))
                 for a in range(k + 1))


def w_to_a(w) -> list:
    """Coefficients c_r = sum_{a <= r} C(r, a) w_a on A_0..A_k of
    sum_a w_a W_a, over any scalar type (a zero takes the type of w_k): the
    inverse of the change of basis in ``eigenvalues``.  W_a, the product of
    the transposed inclusion and the disjointness matrices of a-subsets
    against k-subsets, counts in entry (S, T) the a-subsets of S avoiding T,
    so it has C(r, a) on A_r; Wilson's matrix is written in this basis."""
    zero = 0 * w[-1]
    terms = [(a, x) for a, x in enumerate(w) if x != 0]
    return [sum((row[a] * x for a, x in terms if a <= r), zero)
            for r, row in enumerate(_pascal(len(w) - 1))]


def binomial_inversion(x) -> list:
    """y_j = sum_{i >= j} (-1)^(i-j) C(i, j) x_i for j = 0..len(x)-1, over
    any scalar type: the "exactly j" counts y from the "at least" counts
    x_i = sum_{j >= i} C(j, i) y_j."""
    return [sum((-1) ** (i - j) * math.comb(i, j) * x[i] for i in range(j, len(x)))
            for j in range(len(x))]


def multiplicities(n: int, k: int) -> tuple[int, ...]:
    """Dimensions m_j = C(n,j) - C(n,j-1) of the eigenspaces V_0..V_k of J(n,k)."""
    return tuple(binom(n, j) - binom(n, j - 1) for j in range(k + 1))


def lemma_eigenvalue(binom_at, k: int, a: int, j: int):
    """Eigenvalue of W_a (``w_to_a`` of the unit vector e_a) on V_j by Wilson's
    lemma: (-1)^j C(k-j, a-j) C(nu-a-j, k-j), over the binomial provider."""
    return _lemma_factors(k)[a][j] * binom_at(-a - j, k - j)


def lemma_spectrum(binom_at, w, top: int) -> tuple:
    """theta_0..theta_top of sum_a w_a W_a, k = len(w) - 1: theta_j sums
    w_a times W_a's eigenvalue on V_j over the nonzero w_a, a >= j."""
    theta = [0 * binom_at(0, 0)] * (top + 1)  # zeros of the provider's type
    for a, c in enumerate(w):
        if c != 0:
            for j in range(min(a, top) + 1):
                theta[j] += c * lemma_eigenvalue(binom_at, len(w) - 1, a, j)
    return tuple(theta)


class EigenSystem(Record):
    """Exact eigenvalue table of J(n,k).

    ``P[j][i]`` is the eigenvalue of A_i on the j-th common eigenspace,
    and ``m[j]`` the eigenspace dimension.
    """

    params: SchemeParams
    P: tuple[tuple[Fraction, ...], ...]
    m: tuple[int, ...]


def eigensystem(params: SchemeParams) -> EigenSystem:
    """Build and self-verify the eigenvalue table of J(n,k), k <= n-k, in
    integers: A_i = sum_a (-1)^(a-i) C(a, i) W_a, so row j is the binomial
    inversion of the eigenvalues of W_0..W_k on V_j from Wilson's lemma (0
    for a < j).  The eigenspace dimensions must sum to C(n,k), row j must sum
    to C(n,k) if j = 0 and to 0 otherwise, every class but A_0 must have zero
    trace, and column 1 must equal (k-j)(n-k-j) - j."""
    n, k = params.n, params.k
    if k > n - k:
        raise ValueError(f"eigensystem requires k <= n-k, got k={k}, n={n}")
    binom_at = binom_at_int(n)
    table = [binomial_inversion([lemma_eigenvalue(binom_at, k, a, j) for a in range(k + 1)])
             for j in range(k + 1)]
    m = multiplicities(n, k)
    order = params.order
    if sum(m) != order:
        raise SelfCheckError("eigenspace dimensions do not sum to the order")
    for j in range(k + 1):
        if sum(table[j]) != (order if j == 0 else 0):
            raise SelfCheckError(f"row {j} of the eigenvalue table sums wrongly")
        if table[j][1] != (k - j) * (n - k - j) - j:
            raise SelfCheckError(f"A_1 eigenvalue on eigenspace {j} is wrong")
    for i in range(1, k + 1):
        if sum(m[j] * table[j][i] for j in range(k + 1)) != 0:
            raise SelfCheckError(f"class {i} has nonzero trace")
    return EigenSystem(params, tuple(tuple(map(Fraction, row)) for row in table), m)


def eigenvalues(v: BMVector) -> tuple[Fraction, ...]:
    """Exact eigenvalues of v on V_0..V_s, s = min(k, n-k), whose dimensions
    are ``multiplicities(n, s)``: over D, the lcm of the coefficients'
    denominators, v has integer coefficients c_r, and Wilson's lemma at size
    n on v in the W basis, w_a = sum_{r <= a} (-1)^(a-r) C(a, r) c_r (W_a is
    0 for a > s), gives each eigenvalue as an integer over D."""
    n, k = v.params.n, v.params.k
    den = math.lcm(*(x.denominator for x in v.coeffs))
    c = [x.numerator * (den // x.denominator) for x in v.coeffs]
    w = [sum((-1) ** (a - r) * binom(a, r) * c[r] for r in range(a + 1))
         for a in range(k + 1)]
    return tuple(Fraction(x, den)
                 for x in lemma_spectrum(binom_at_int(n), w, min(k, n - k)))


class PSDReport(Record):
    """Exact positive-semidefiniteness verdict for an algebra element."""

    psd: bool
    min_eigenvalue: Fraction
    argmin: int
    spectrum: tuple[Fraction, ...]


def psd_verdict(spectrum: tuple[Fraction, ...]) -> PSDReport:
    """The verdict on a spectrum theta_0..theta_k: its minimum, ties to the
    lowest eigenspace."""
    argmin = min(range(len(spectrum)), key=lambda j: (spectrum[j], j))
    mn = spectrum[argmin]
    return PSDReport(psd=mn >= 0, min_eigenvalue=mn, argmin=argmin, spectrum=spectrum)


def psd_report(v: BMVector) -> PSDReport:
    return psd_verdict(eigenvalues(v))
