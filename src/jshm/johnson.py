"""The Bose-Mesner algebra of the Johnson scheme J(n,k).

The scheme's classes are the 01-matrices A_0..A_k indexed by k-subsets of
{1..n}, where A_r has a 1 in entry (S, T) exactly when |S intersect T| =
k - r (equivalently, S and T are at distance r in the Johnson graph; A_0 is
the identity and the A_r sum to the all-ones matrix).  An algebra element
is stored as its coefficient vector on this basis (:class:`BMVector`);
dense materialization exists only as an oracle path.

The exact eigenvalue table is the closed form of Delsarte's Eberlein
polynomials, built without enumerating any subset, and the construction
aborts if any of the classical identities (dimension sum, row sums, zero
class traces, the A_1 eigenvalues) fails, so a passing construction is
itself a consistency check.  Counted intersection numbers live in
:mod:`jshm.oracles` as the reference the tests hold the table against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import binom
from .subsets import MAX_ENUMERATED_SUBSETS, SizeBudgetError, colex_tuples, subset_mask

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


@dataclass(frozen=True)
class SchemeParams:
    """Parameters (n, k) of the Johnson scheme J(n,k), within the table bound."""

    n: int
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.k > MAX_TABLE_K or self.n >= MAX_TABLE_N:
            raise SizeBudgetError(f"J({self.n},{self.k}) exceeds "
                                  f"the table bound k <= {MAX_TABLE_K}, n < 2**64")

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


# up to 2*10**6 masks each: the memo keeps the few a dense oracle reuses
@lru_cache(maxsize=4)
def colex_masks(n: int, k: int) -> tuple[int, ...]:
    """Bitmasks of all k-subsets in colex order (cached; sweeps reuse it)."""
    if binom(n, k) > MAX_ENUMERATED_SUBSETS:
        raise SizeBudgetError(f"C({n},{k}) = {binom(n, k)} subsets exceed the "
                              f"enumeration cap {MAX_ENUMERATED_SUBSETS}")
    return tuple(subset_mask(c) for c in colex_tuples(n, k))


def dense(v: BMVector) -> list[list]:
    """Materialize v as a square array in colex order (oracle path only)."""
    p = v.params
    if p.order > DEFAULT_DENSE_BUDGET:
        raise SizeBudgetError(f"order {p.order} exceeds dense budget "
                              f"{DEFAULT_DENSE_BUDGET}")
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


def entry_sum(v: BMVector):
    """Sum of all matrix entries (inner product with the all-ones matrix)."""
    return sum(c * class_size(v.params, r) for r, c in enumerate(v.coeffs))


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


# a table within the bound holds at most about 1.1 MB
@lru_cache(maxsize=32)
def eigensystem(params: SchemeParams) -> EigenSystem:
    """Build and self-verify the eigenvalue table of J(n,k).

    Requires k <= n-k (for larger k some classes are empty and the table
    below does not apply).  Entry P[j][i] is the Eberlein polynomial
    sum_h (-1)^h C(j,h) C(k-j,i-h) C(n-k-j,i-h), evaluated in integers at
    O(k^3) cost; nothing is enumerated.  Before returning, the eigenspace
    dimensions must sum to C(n,k), each row must sum to C(n,k) on the
    trivial eigenspace and 0 elsewhere, every class but A_0 must have zero
    trace, and column 1 must equal (k-j)(n-k-j) - j.  The table bound is
    checked by SchemeParams.
    """
    n, k = params.n, params.k
    if k > n - k:
        raise ValueError(f"eigensystem requires k <= n-k, got k={k}, n={n}")

    table = []
    for j in range(k + 1):
        w = [binom(k - j, a) * binom(n - k - j, a) for a in range(k + 1)]
        table.append([sum((-1) ** h * binom(j, h) * w[i - h] for h in range(min(i, j) + 1))
                      for i in range(k + 1)])

    m = tuple(binom(n, j) - binom(n, j - 1) for j in range(k + 1))

    order = params.order
    if sum(m) != order:
        raise SelfCheckError("eigenspace dimensions do not sum to the order")
    for j in range(k + 1):
        want = order if j == 0 else 0
        if sum(table[j]) != want:
            raise SelfCheckError(f"row {j} of the eigenvalue table sums wrongly")
        if table[j][1] != (k - j) * (n - k - j) - j:
            raise SelfCheckError(f"A_1 eigenvalue on eigenspace {j} is wrong")
    for i in range(1, k + 1):
        if sum(m[j] * table[j][i] for j in range(k + 1)) != 0:
            raise SelfCheckError(f"class {i} has nonzero trace")

    P = tuple(tuple(Fraction(x) for x in row) for row in table)
    return EigenSystem(params, tuple(row[1] for row in P), P, m)


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
