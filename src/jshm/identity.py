"""The central identity: the design-projection matrix versus Wilson's matrix.

For fixed (k, t) both sides are assembled as coefficient vectors on
A_0..A_k whose entries are rational functions of the ground-set size nu,
and compared coefficientwise.  Coefficient equality is strictly stronger
than equality of every eigenvalue (eigenvalues are linear in the
coefficients), and it is decidable: the differences h_r reduce to canonical
form, so "equal" means every h_r is the zero rational function.

A pointwise comparator re-derives the verdict from exact evaluations at
integer ground-set sizes: once both sides agree at more points than the
degree of the cleared numerators (2k+1 suffices), polynomial vanishing
forces symbolic equality.  Both routes share one transcription of M and
Omega, so this tests the binomial providers; the formulas themselves are
checked by :func:`design_witness_check`, M = Omega and perfbench/checks.py.

Each symbolic side is built once per (k, t, variant) and kept for the life
of the process: the six side pairs of one (k, t) and the pointwise
cross-check share M(nu,k,t) and Omega(nu,k,t).  Every caller still gets a
fresh list.  Comparisons are refused above k = MAX_SYMBOLIC_K, which also
bounds that memo.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .designs import (
    admissible,
    design_matrix,
    design_matrix_symbolic,
    design_projection_report,
    search_design,
    DEFAULT_SEARCH_BUDGET,
)
from .exact import PoleError, RationalFunction, Report, to_json
from .johnson import (
    MAX_TABLE_N,
    BMVector,
    SchemeParams,
    SelfCheckError,
    SizeBudgetError,
    plus_identity,
)
from .wilson import wilson_matrix, wilson_matrix_symbolic

# side -> (builder, Wilson variant, adds I on A_0)
_SIDES = {
    "m": ("m", None, False),
    "m_plus_i": ("m", None, True),
    "omega_literal": ("omega", "literal", False),
    "omega_corrected": ("omega", "corrected", False),
    "nabla_corrected": ("omega", "corrected", True),
}
LHS_CHOICES = tuple(name for name, row in _SIDES.items() if row[0] == "m")
RHS_CHOICES = tuple(name for name, row in _SIDES.items() if row[0] == "omega")

_WITNESS_SCAN_LIMIT = 200

# The symbolic sides (and so compare_symbolic and compare_pointwise) refuse
# k > MAX_SYMBOLIC_K: rational-function cost grows steeply with k, and the
# worst admitted comparison, k = 24 at t near 17, takes about 1.1 s cold
# against 2.2-2.7 s at k = 28.  compare_pointwise also refuses more than
# MAX_POINTWISE_POINTS sizes (each costs up to 4 ms at k = 24) and
# n_to >= MAX_TABLE_N, the bound of the numeric sides.
MAX_SYMBOLIC_K = 24
MAX_POINTWISE_POINTS = 1000


def _side_coeffs(name: str, n: int | None, k: int, t: int) -> list:
    """One side at ground-set size n, or in nu when n is None."""
    if name not in _SIDES:
        raise ValueError(f"unknown side {name!r}")
    builder, variant, adds_identity = _SIDES[name]
    if n is None:
        coeffs = _symbolic_coeffs(builder, variant, k, t)
    elif builder == "m":
        coeffs = design_matrix(n, k, t).coeffs
    else:
        coeffs = wilson_matrix(n, k, t, variant).coeffs
    return plus_identity(coeffs) if adds_identity else list(coeffs)


def _check_symbolic_bound(k: int) -> None:
    if k > MAX_SYMBOLIC_K:
        raise SizeBudgetError(f"symbolic comparison at k = {k} exceeds the bound "
                              f"k <= {MAX_SYMBOLIC_K}")


@functools.lru_cache(maxsize=None)
def _symbolic_coeffs(builder: str, variant: str | None, k: int,
                     t: int) -> tuple[RationalFunction, ...]:
    """M(nu,k,t) or Omega(nu,k,t), built once per (builder, variant, k, t).

    Entries are immutable, and callers get a fresh list from
    :func:`_side_coeffs`, so sharing the tuple is safe.  The bound on k
    also bounds the memo.
    """
    _check_symbolic_bound(k)
    if builder == "m":
        return tuple(design_matrix_symbolic(k, t))
    return tuple(wilson_matrix_symbolic(k, t, variant))


def symbolic_side(name: str, k: int, t: int) -> list[RationalFunction]:
    """Coefficients on A_0..A_k of one side, as rational functions of nu."""
    return _side_coeffs(name, None, k, t)


def numeric_side(name: str, n: int, k: int, t: int) -> BMVector:
    """One side evaluated at a concrete ground-set size."""
    coeffs = tuple(_side_coeffs(name, n, k, t))
    return BMVector(SchemeParams(n, k), coeffs)


@dataclass(frozen=True)
class IdentityReport(Report):
    """Outcome of a symbolic coefficient comparison."""

    k: int
    t: int
    lhs: str
    rhs: str
    h: tuple[RationalFunction, ...]
    equal: bool
    witness: tuple[int, int, Fraction] | None  # (r, n, h_r(n))

    def to_dict(self) -> dict:  # the witness field stays a tuple: perfbench/checks.py unpacks it
        witness = None
        if self.witness is not None:
            r, n, value = self.witness
            witness = {"r": r, "n": n, "value": value}
        return to_json({**vars(self), "witness": witness})


def _validate_sides(k: int, t: int, lhs: str, rhs: str):
    if not 1 <= t < k:
        raise ValueError(f"need 1 <= t < k, got t={t}, k={k}")
    if lhs not in LHS_CHOICES:
        raise ValueError(f"lhs must be one of {LHS_CHOICES}, got {lhs!r}")
    if rhs not in RHS_CHOICES:
        raise ValueError(f"rhs must be one of {RHS_CHOICES}, got {rhs!r}")


def compare_symbolic(k: int, t: int, lhs: str = "m",
                     rhs: str = "omega_corrected") -> IdentityReport:
    """Subtract the two sides coefficientwise and reduce.

    Since the classes A_r are linearly independent, vanishing of every
    difference h_r is equivalent to equality of the matrices for every
    ground-set size (away from the finitely many denominator roots).
    """
    _validate_sides(k, t, lhs, rhs)
    left = symbolic_side(lhs, k, t)
    right = symbolic_side(rhs, k, t)
    h = tuple(a - b for a, b in zip(left, right))
    for r, f in enumerate(h):
        if f.num.degree > 2 * k:
            raise SelfCheckError(
                f"difference at class {r} has numerator degree {f.num.degree} > 2k"
            )
    witness = None
    for r, f in enumerate(h):
        if not f.is_zero():
            witness = (r,) + _sample_nonzero(f, k)
            break
    return IdentityReport(
        k=k, t=t, lhs=lhs, rhs=rhs, h=h, equal=witness is None, witness=witness
    )


def _sample_nonzero(f: RationalFunction, k: int) -> tuple[int, Fraction]:
    """First integer n >= 2k+1 that is not a pole and where f(n) != 0."""
    for n in range(2 * k + 1, 2 * k + 1 + _WITNESS_SCAN_LIMIT):
        try:
            value = f.evaluate(n)
        except PoleError:
            continue
        if value != 0:
            return n, value
    raise SelfCheckError("no witness point found for a nonzero rational function")


@dataclass(frozen=True)
class PointwiseReport(Report):
    """Outcome of exact evaluation of both sides over an integer range."""

    k: int
    t: int
    lhs: str
    rhs: str
    n_from: int
    n_to: int
    points_checked: int
    points_equal: int
    first_failure: tuple[int, int, Fraction, Fraction] | None  # (n, r, lhs, rhs)
    equal: bool
    threshold: int

    def to_dict(self) -> dict:  # perfbench/workloads.py reads the "skipped_poles" key
        failure = None
        if self.first_failure is not None:
            n, r, a, b = self.first_failure
            failure = {"n": n, "r": r, "lhs": a, "rhs": b}
        # n >= 2k has no poles, so none is skipped
        return to_json({**vars(self), "first_failure": failure, "skipped_poles": []})


def compare_pointwise(k: int, t: int, lhs: str, rhs: str,
                      n_from: int, n_to: int) -> PointwiseReport:
    """Evaluate both sides exactly at each n in [n_from, n_to] and compare.

    The range must start at 2k (below that the coefficient formulas hit
    poles or empty classes) and contain at least 2k+1 integers; agreement at
    2k+1 pole-free points exceeds the cleared-numerator degree bound and so
    certifies the identity.  The verdict is cross-checked against
    :func:`compare_symbolic` and a disagreement aborts loudly.  Before any
    point is evaluated, k above MAX_SYMBOLIC_K, more than
    MAX_POINTWISE_POINTS sizes and n_to >= 2**64 raise SizeBudgetError.
    """
    _validate_sides(k, t, lhs, rhs)
    if n_from < 2 * k:
        raise ValueError(f"n_from must be at least 2k = {2 * k}, got {n_from}")
    if n_to - n_from + 1 < 2 * k + 1:
        raise ValueError(f"range must contain at least 2k+1 = {2 * k + 1} integers")
    _check_symbolic_bound(k)
    if n_to - n_from + 1 > MAX_POINTWISE_POINTS:
        raise SizeBudgetError(f"range of {n_to - n_from + 1} sizes exceeds the bound "
                              f"of {MAX_POINTWISE_POINTS} points")
    if n_to >= MAX_TABLE_N:
        raise SizeBudgetError(f"n_to = {n_to} exceeds the bound n < 2**64")

    threshold = 2 * k + 1
    equal_count = 0
    first_failure = None
    for n in range(n_from, n_to + 1):
        left = numeric_side(lhs, n, k, t)
        right = numeric_side(rhs, n, k, t)
        if left.coeffs == right.coeffs:
            equal_count += 1
        elif first_failure is None:
            r = next(i for i, (a, b) in enumerate(zip(left.coeffs, right.coeffs)) if a != b)
            first_failure = (n, r, left.coeffs[r], right.coeffs[r])

    equal = first_failure is None and equal_count >= threshold
    symbolic = compare_symbolic(k, t, lhs, rhs)
    if first_failure is None and equal_count >= threshold and not symbolic.equal:
        raise SelfCheckError("pointwise equality contradicts the symbolic comparison")
    if first_failure is not None and symbolic.equal:
        raise SelfCheckError("pointwise failure contradicts the symbolic comparison")
    return PointwiseReport(
        k=k, t=t, lhs=lhs, rhs=rhs, n_from=n_from, n_to=n_to,
        points_checked=n_to - n_from + 1, points_equal=equal_count,
        first_failure=first_failure,
        equal=equal, threshold=threshold,
    )


@dataclass(frozen=True)
class WitnessPoint(Report):
    n: int
    status: str  # verified | failed | inadmissible | not-found | unverified
    detail: str
    nodes: int | None


@dataclass(frozen=True)
class WitnessReport(Report):
    """The identity verified through explicitly found Steiner systems."""

    k: int
    t: int
    points: tuple[WitnessPoint, ...]

    @property
    def all_conclusive_verified(self) -> bool:
        return all(p.status != "failed" for p in self.points) and any(
            p.status == "verified" for p in self.points
        )


def design_witness_check(k: int, t: int, ns: list[int],
                         budget: int = DEFAULT_SEARCH_BUDGET) -> WitnessReport:
    """At each requested ground-set size: search for a t-(n,k,1) design and,
    where one is found, confirm that its rescaled projection minus the
    identity equals both the design matrix and the corrected Wilson matrix.

    Inadmissible sizes are skipped with a reason; budget exhaustion marks a
    point unverified, never failed.
    """
    if not 1 <= t < k:
        raise ValueError(f"need 1 <= t < k, got t={t}, k={k}")
    points = []
    for n in ns:
        if n < 2 * k:
            points.append(WitnessPoint(n, "inadmissible",
                                       f"n = {n} below 2k = {2 * k}", None))
            continue
        if not admissible(n, k, t):
            points.append(WitnessPoint(n, "inadmissible",
                                       "divisibility conditions fail", None))
            continue
        outcome = search_design(n, k, t, budget)
        if outcome.status == "budget-exhausted":
            points.append(WitnessPoint(n, "unverified",
                                       "search budget exhausted", outcome.nodes))
            continue
        if outcome.status == "not-found":
            points.append(WitnessPoint(n, "not-found",
                                       "exhaustive search found no design",
                                       outcome.nodes))
            continue
        design = outcome.design
        proj = design_projection_report(design)
        if not proj.verified:
            points.append(WitnessPoint(n, "failed",
                                       "design projection identity failed",
                                       outcome.nodes))
        elif numeric_side("m", n, k, t) != numeric_side("omega_corrected", n, k, t):
            points.append(WitnessPoint(n, "failed",
                                       "design matrix differs from the corrected "
                                       "Wilson matrix", outcome.nodes))
        else:
            points.append(WitnessPoint(
                n, "verified",
                f"{design.size}-block design found; projection, design matrix "
                "and Wilson matrix all agree", outcome.nodes))
    return WitnessReport(k=k, t=t, points=tuple(points))
