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
forces symbolic equality.  Both routes read M and Omega, each written once
over a binomial provider, as (numerator, denominator) pairs: integers over
``exact.binom_at_int(n)``, compared by cross-multiplication, and integer
polynomials over ``qnu.binom_zpoly(k)``, which this module alone
reduces, once per coefficient.  So this tests the two evaluations; the
formulas themselves are checked by :func:`design_witness_check`, M = Omega
and perfbench/checks.py.

Each symbolic formula is built once per (k, t, variant) and kept for the
life of the process, and so is each difference M - Omega, one per variant:
the six side pairs of one (k, t) and the pointwise cross-check read it and
differ only by the I on A_0.  Every caller still gets a fresh list.
Comparisons are refused above k = MAX_SYMBOLIC_K, which also bounds both
memos.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .designs import (
    _m_numerators,
    admissible,
    design_matrix,
    design_projection_report,
    search_design,
    DEFAULT_SEARCH_BUDGET,
)
from .exact import Report, binom_at_int
from .johnson import MAX_TABLE_N, SelfCheckError, plus_identity, w_to_a
from .qnu import PoleError, RationalFunction, _reduced, binom_zpoly
from .subsets import SizeBudgetError, refuse_above
from .wilson import _omega_numerators, wilson_matrix

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

# The symbolic sides (and so compare_symbolic and compare_pointwise) refuse
# k > MAX_SYMBOLIC_K: rational-function cost grows steeply with k.  On a
# 2-vCPU x86-64 host the worst admitted comparison, M against the corrected
# Omega at k = 24, takes 0.016-0.018 s of CPU time cold in a fresh process,
# against 0.024-0.025 s at k = 28.
# compare_pointwise also refuses more than MAX_POINTWISE_POINTS sizes (each
# costs up to 0.8 ms at k = 24 near 2**64, so 1000 take 0.45-0.8 s) and
# n_to >= MAX_TABLE_N, the bound of the numeric sides.
MAX_SYMBOLIC_K = 24
MAX_POINTWISE_POINTS = 1000


def _formula_pairs(builder: str, variant: str | None, binom_at, k: int, t: int) -> list:
    """M's or Omega's coefficients on A_0..A_k as (numerator, denominator)
    pairs over the binomial provider."""
    if builder == "m":
        return _m_numerators(binom_at, k, t)
    den, w = _omega_numerators(binom_at, k, t, variant)
    return [(c, den) for c in w_to_a(w)]


@functools.lru_cache(maxsize=None)
def _symbolic_coeffs(builder: str, variant: str | None, k: int,
                     t: int) -> tuple[RationalFunction, ...]:
    """M(nu,k,t) or Omega(nu,k,t), built once per (builder, variant, k, t)
    over ``binom_zpoly(k)`` and reduced once per coefficient.

    Entries are immutable, and callers get a fresh list from
    :func:`symbolic_side`, so sharing the tuple is safe.  The bound on k
    also bounds the memo.
    """
    refuse_above(k, MAX_SYMBOLIC_K, "k of a symbolic comparison")
    low, high = (0, k - 1) if builder == "m" else (1, k)
    if not low <= t <= high:
        raise ValueError(f"need {low} <= t <= {high}, got t={t}, k={k}")
    return tuple(_reduced(list(a), b)
                 for a, b in _formula_pairs(builder, variant, binom_zpoly(k), k, t))


def symbolic_side(name: str, k: int, t: int) -> list[RationalFunction]:
    """Coefficients on A_0..A_k of one side, as rational functions of nu."""
    if name not in _SIDES:
        raise ValueError(f"unknown side {name!r}")
    builder, variant, adds_identity = _SIDES[name]
    coeffs = _symbolic_coeffs(builder, variant, k, t)
    return plus_identity(coeffs) if adds_identity else list(coeffs)


def _side_numerators(name: str, n: int, k: int, t: int) -> list[tuple[int, int]]:
    """One side's coefficients at size n as integer (numerator, denominator)
    pairs; adding I adds the denominator on A_0."""
    builder, variant, adds_identity = _SIDES[name]
    pairs = _formula_pairs(builder, variant, binom_at_int(n), k, t)
    if adds_identity:
        a, b = pairs[0]
        pairs[0] = (a + b, b)
    return pairs


class SymbolicWitness(NamedTuple):
    """The first class r whose difference h_r is nonzero, and h_r(n) at the
    first n >= 2k+1 where it is defined and nonzero."""

    r: int
    n: int
    value: Fraction


class IdentityReport(Report):
    """Outcome of a symbolic coefficient comparison."""

    k: int
    t: int
    lhs: str
    rhs: str
    h: tuple[RationalFunction, ...]
    equal: bool
    witness: SymbolicWitness | None


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
    ground-set size (away from the finitely many denominator roots).  The
    differences are M - Omega of the right-hand side's variant
    (:func:`_difference`, once per (k, t, variant)), plus 1 on A_0 when only
    the left-hand side adds I and minus 1 when only the right-hand side does.
    """
    _validate_sides(k, t, lhs, rhs)
    _, _, left_i = _SIDES[lhs]
    _, variant, right_i = _SIDES[rhs]
    h = _difference(k, t, variant)
    if left_i != right_i:
        h = (h[0] + (left_i - right_i), *h[1:])
    witness = next((SymbolicWitness(r, *_sample_nonzero(f, k))
                    for r, f in enumerate(h) if not f.is_zero()), None)
    return IdentityReport(
        k=k, t=t, lhs=lhs, rhs=rhs, h=h, equal=witness is None, witness=witness
    )


@functools.lru_cache(maxsize=None)
def _difference(k: int, t: int, variant: str) -> tuple[RationalFunction, ...]:
    """M(nu,k,t) - Omega(nu,k,t) coefficientwise, once per (k, t, variant),
    which the six side pairs of one (k, t) and the pointwise cross-check
    share; k is bounded by MAX_SYMBOLIC_K, and so is this memo.  Neither
    side has an A_0 part for t < k, and each difference must have a
    numerator of degree at most 2k."""
    h = tuple(a - b for a, b in zip(_symbolic_coeffs("m", None, k, t),
                                    _symbolic_coeffs("omega", variant, k, t)))
    for r, f in enumerate(h):
        degree = len(f.num) - 1
        if degree > 2 * k:
            raise SelfCheckError(
                f"difference at class {r} has numerator degree {degree} > 2k"
            )
    return h


def _sample_nonzero(f: RationalFunction, k: int) -> tuple[int, Fraction]:
    """First integer n >= 2k+1 that is not a pole and where f(n) != 0; a nonzero
    f has at most deg num zeros and deg den poles, so one of the first
    deg num + deg den + 1 sizes is a witness."""
    deg_num, deg_den = len(f.num) - 1, len(f.den) - 1
    for n in range(2 * k + 1, 2 * k + 2 + deg_num + deg_den):
        try:
            value = f.evaluate(n)
        except PoleError:
            continue
        if value != 0:
            return n, value
    raise SelfCheckError("no witness point found for a nonzero rational function")


class PointwiseFailure(NamedTuple):
    """The first size n where the sides differ, the first class r where they
    differ there, and the two sides' coefficients on A_r."""

    n: int
    r: int
    lhs: Fraction
    rhs: Fraction


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
    first_failure: PointwiseFailure | None
    equal: bool
    threshold: int
    skipped_poles: tuple[int, ...]  # n >= 2k has no poles, so none is skipped


def compare_pointwise(k: int, t: int, lhs: str, rhs: str,
                      n_from: int, n_to: int) -> PointwiseReport:
    """Evaluate both sides exactly at each n in [n_from, n_to] and compare.

    The range must start at 2k (below that the coefficient formulas hit
    poles or empty classes) and contain at least 2k+1 integers; agreement at
    2k+1 pole-free points exceeds the cleared-numerator degree bound and so
    certifies the identity.  At each size each side is integer numerators
    over denominators (:func:`_side_numerators`), and the sides agree on A_r
    when the cross products agree.  The verdict is cross-checked against
    :func:`compare_symbolic` and a disagreement aborts loudly.  Before any
    point is evaluated, k above MAX_SYMBOLIC_K, more than
    MAX_POINTWISE_POINTS sizes and n_to >= 2**64 are refused with SizeBudgetError.
    """
    _validate_sides(k, t, lhs, rhs)
    if n_from < 2 * k:
        raise ValueError(f"n_from must be at least 2k = {2 * k}, got {n_from}")
    if n_to - n_from + 1 < 2 * k + 1:
        raise ValueError(f"range must contain at least 2k+1 = {2 * k + 1} integers")
    refuse_above(k, MAX_SYMBOLIC_K, "k of a symbolic comparison")
    refuse_above(n_to - n_from + 1, MAX_POINTWISE_POINTS, f"points in [{n_from}, {n_to}]")
    refuse_above(n_to, MAX_TABLE_N - 1, "n_to under the table bound")

    threshold = 2 * k + 1
    equal_count = 0
    first_failure = None
    for n in range(n_from, n_to + 1):
        pairs = list(zip(_side_numerators(lhs, n, k, t), _side_numerators(rhs, n, k, t)))
        r = next((r for r, ((a, b), (c, d)) in enumerate(pairs) if a * d != c * b), None)
        if r is None:
            equal_count += 1
        elif first_failure is None:
            (a, b), (c, d) = pairs[r]
            first_failure = PointwiseFailure(n, r, Fraction(a, b), Fraction(c, d))

    # the range holds at least 2k+1 = threshold sizes, so no failure means
    # equal_count >= threshold
    equal = first_failure is None
    if equal != compare_symbolic(k, t, lhs, rhs).equal:
        raise SelfCheckError("pointwise verdict contradicts the symbolic comparison")
    return PointwiseReport(
        k=k, t=t, lhs=lhs, rhs=rhs, n_from=n_from, n_to=n_to,
        points_checked=n_to - n_from + 1, points_equal=equal_count,
        first_failure=first_failure,
        equal=equal, threshold=threshold, skipped_poles=(),
    )


class WitnessPoint(Report):
    n: int
    status: str  # verified | failed | inadmissible | not-found | unverified
    detail: str
    nodes: int | None


class WitnessReport(Report):
    """The identity verified through explicitly found Steiner systems."""

    k: int
    t: int
    points: tuple[WitnessPoint, ...]


def design_witness_check(k: int, t: int, ns: list[int],
                         budget: int = DEFAULT_SEARCH_BUDGET) -> WitnessReport:
    """At each requested ground-set size: search for a t-(n,k,1) design and,
    where one is found, confirm that its rescaled projection minus the
    identity equals both the design matrix and the corrected Wilson matrix.

    Inadmissible sizes are skipped with a reason; budget exhaustion marks a
    point unverified, never failed, and so does a size bound that refuses
    the point (SizeBudgetError), with its message as the detail.
    """
    if not 1 <= t < k:
        raise ValueError(f"need 1 <= t < k, got t={t}, k={k}")
    points = []
    for n in ns:
        try:
            points.append(_witness_point(n, k, t, budget))
        except SizeBudgetError as exc:
            points.append(WitnessPoint(n, "unverified", str(exc), None))
    return WitnessReport(k=k, t=t, points=tuple(points))


def _witness_point(n: int, k: int, t: int, budget: int) -> WitnessPoint:
    if n < 2 * k:
        return WitnessPoint(n, "inadmissible", f"n = {n} below 2k = {2 * k}", None)
    if not admissible(n, k, t):
        return WitnessPoint(n, "inadmissible", "divisibility conditions fail", None)
    outcome = search_design(n, k, t, budget)
    if outcome.status == "budget-exhausted":
        return WitnessPoint(n, "unverified", "search budget exhausted", outcome.nodes)
    if outcome.status == "not-found":
        return WitnessPoint(n, "not-found", "exhaustive search found no design",
                            outcome.nodes)
    if not design_projection_report(outcome.design).verified:
        return WitnessPoint(n, "failed", "design projection identity failed",
                            outcome.nodes)
    if design_matrix(n, k, t) != wilson_matrix(n, k, t, "corrected"):
        return WitnessPoint(n, "failed", "design matrix differs from the corrected "
                            "Wilson matrix", outcome.nodes)
    return WitnessPoint(n, "verified", f"{outcome.design.size}-block design found; "
                        "projection, design matrix and Wilson matrix all agree",
                        outcome.nodes)
