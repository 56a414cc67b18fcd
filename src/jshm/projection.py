"""Orthogonal projection onto the Bose-Mesner algebra.

For a family F with characteristic vector x, the projection of the rank-one
matrix x x^T is determined by the pair distribution of F (Delsarte's inner
distribution): the coefficient on A_r is the number d_r of ordered member
pairs meeting in k - r points, divided by the number of ones of A_r.  The
same projection computed from a dense matrix is retained as an independent
oracle path.

The pair distribution is counted through shared subsets.  With c(U) the
number of members containing U, N_i = sum over i-sets U of c(U)^2 counts the
ordered pairs (S, T) with an i-subset of S and T, so N_i = sum_j C(j,i) e_j,
where e_j is the number of ordered pairs meeting in j points.  Binomial
inversion gives e_j = sum_{i >= j} (-1)^(i-j) C(i,j) N_i exactly, and
d_r = e_{k-r}.  This costs O(|F| 2^k) against O(|F|^2) for the walk over
member pairs, so the counts are used when 2^k <= |F| and the walk otherwise.

The projection preserves both the trace and the sum of entries (take the
defining orthogonality against I and against the all-ones matrix), so a
family projects to trace |F| and entry sum |F|^2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from .exact import Report, binom, to_json
from .johnson import (
    BMVector,
    SchemeParams,
    colex_masks,
    class_size,
    entry_sum,
    trace,
)
from .subsets import Family, subset_mask


@dataclass(frozen=True)
class PairDistribution:
    """d_r = number of ordered pairs (S, T) in F x F with |S inter T| = k - r."""

    counts: tuple[int, ...]


def pair_distribution(fam: Family) -> PairDistribution:
    """Exact ordered-pair counts, diagonal included (d_0 >= |F|).

    Walks the member pairs when 2^k > |F|, and otherwise inverts the
    shared-subset counts N_i (module docstring).
    """
    k = fam.k
    if 2 ** k > fam.size:
        counts = [0] * (k + 1)
        masks = [subset_mask(m) for m in fam.members]
        for a in masks:
            for b in masks:
                counts[k - (a & b).bit_count()] += 1
        return PairDistribution(tuple(counts))
    shared = []  # N_i = sum of c(U)^2 over the i-sets U
    for i in range(k + 1):
        through = Counter(chain.from_iterable(combinations(b, i) for b in fam.members))
        shared.append(sum(c * c for c in through.values()))
    meets = [sum((-1) ** (i - j) * binom(i, j) * shared[i] for i in range(j, k + 1))
             for j in range(k + 1)]
    return PairDistribution(tuple(reversed(meets)))


def project_family(fam: Family) -> BMVector:
    """Projection of the family's pair matrix onto the algebra."""
    params = SchemeParams(fam.n, fam.k)
    d = pair_distribution(fam).counts
    return BMVector(
        params, tuple(_per_one(Fraction(d[r]), params, r) for r in range(fam.k + 1))
    )


def project_dense(mat: list[list], params: SchemeParams) -> BMVector:
    """Projection of an arbitrary exact square matrix (oracle path).

    The coefficient on A_r is the sum of the entries of ``mat`` lying on the
    support of A_r, divided by the number of ones of A_r.  Matrices already
    in the algebra are fixed points.
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
    return BMVector(
        params, tuple(_per_one(sums[r], params, r) for r in range(k + 1))
    )


def _per_one(total: Fraction, params: SchemeParams, r: int) -> Fraction:
    """Coefficient on A_r of a matrix whose entries on A_r sum to ``total``.

    When 2k > n, the classes r > n - k are empty: no pair lies on them, so
    ``total`` is 0, and the coefficient is taken to be 0 as well.
    """
    size = class_size(params, r)
    return total / size if size else Fraction(0)


@dataclass(frozen=True)
class FamilyLemmaReport(Report):
    """Diagnostic check of the projection of a t-intersecting family.

    When the family is t-intersecting its projection must be supported on
    A_0..A_{k-t} with trace |F| and entry sum |F|^2; a family that is not
    t-intersecting is reported (with a violating pair) rather than rejected.
    """

    t: int
    t_intersecting: bool
    violating_pair: tuple[tuple[int, ...], tuple[int, ...]] | None
    support_ok: bool
    trace: Fraction
    entry_sum: Fraction
    trace_ok: bool
    entry_sum_ok: bool
    coeffs: tuple[Fraction, ...]

    @property
    def verified(self) -> bool:
        return self.t_intersecting and self.support_ok and self.trace_ok and self.entry_sum_ok

    def to_dict(self) -> dict:  # verified and bound_from_design read fields left out here
        return to_json({
            "t_intersecting": self.t_intersecting,
            "support_ok": self.support_ok,
            "trace": self.trace,
            "elsm": self.entry_sum,
            "coeffs": self.coeffs,
        })


def family_lemma_report(fam: Family, t: int) -> FamilyLemmaReport:
    if not 0 <= t <= fam.k:
        raise ValueError(f"strength t={t} out of range [0, {fam.k}]")
    proj = project_family(fam)
    # distinct members meet in fewer than t points exactly when some d_r
    # with r > k - t is nonzero, so only a failed support check needs a walk
    support_ok = all(proj.coeffs[r] == 0 for r in range(fam.k - t + 1, fam.k + 1))
    violating = None if support_ok else _first_violating_pair(fam.members, t)
    tr = trace(proj)
    es = entry_sum(proj)
    return FamilyLemmaReport(
        t=t,
        t_intersecting=violating is None,
        violating_pair=violating,
        support_ok=support_ok,
        trace=tr,
        entry_sum=es,
        trace_ok=tr == fam.size,
        entry_sum_ok=es == fam.size * fam.size,
        coeffs=proj.coeffs,
    )


def _first_violating_pair(members, t):
    """The first member pair, in member order, meeting in fewer than t points."""
    masks = [subset_mask(m) for m in members]
    for idx, a in enumerate(masks):
        for j in range(idx + 1, len(masks)):
            if (a & masks[j]).bit_count() < t:
                return members[idx], members[j]
