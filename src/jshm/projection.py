"""Orthogonal projection onto the Bose-Mesner algebra.

For a family F with characteristic vector x, the projection of the rank-one
matrix x x^T is determined by the pair distribution of F (Delsarte's inner
distribution): the coefficient on A_r is the number d_r of ordered member
pairs meeting in k - r points, divided by the number of ones of A_r.  Its
reference, the same projection computed from a dense matrix, is
``oracles.project_dense``.

The pair distribution is counted through shared subsets.  With c(U) the
number of members containing U, N_i = sum over i-sets U of c(U)^2 counts the
ordered pairs (S, T) with an i-subset of S and T, so N_i = sum_j C(j,i) e_j,
where e_j is the number of ordered pairs meeting in j points.  Binomial
inversion (``johnson.binomial_inversion``) gives e_j = sum_{i >= j} (-1)^(i-j)
C(i,j) N_i exactly, and d_r = e_{k-r}.  This costs O(|F| 2^k) against
O(|F|^2) for the walk over member pairs, so the counts are used when
2^k <= |F| and the walk otherwise.

The projection preserves both the trace and the sum of entries (take the
defining orthogonality against I and against the all-ones matrix), so a
family projects to trace |F| and entry sum |F|^2.  A family is t-intersecting
exactly when d_r = 0 for every r > k - t, so the lemma's report reads the
one count; only :func:`first_violating_pair` walks member pairs, to name one.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations

from .exact import Record, Report
from .johnson import (
    BMVector,
    SchemeParams,
    SelfCheckError,
    binomial_inversion,
    class_size,
    entry_sum,
    trace,
)
from .subsets import MAX_COUNT_WORK, Family, refuse_above, subset_mask


class PairDistribution(Record):
    """d_r = number of ordered pairs (S, T) in F x F with |S inter T| = k - r."""

    counts: tuple[int, ...]


def pair_distribution(fam: Family) -> PairDistribution:
    """Exact ordered-pair counts, diagonal included (d_0 >= |F|).

    Walks the member pairs when 2^k > |F|, and otherwise inverts the
    shared-subset counts N_i (module docstring).  More than MAX_COUNT_WORK
    units of work, |F| min(|F|, 2^k), are refused with SizeBudgetError before counting.
    """
    k = fam.k
    refuse_above(fam.size * min(fam.size, 2 ** k), MAX_COUNT_WORK,
                 "pair counts of a family under the count bound")
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
    return PairDistribution(tuple(reversed(binomial_inversion(shared))))


def project_family(fam: Family) -> BMVector:
    """Projection of the family's pair matrix onto the algebra."""
    params = SchemeParams(fam.n, fam.k)
    d = pair_distribution(fam).counts
    return BMVector(
        params, tuple(_per_one(Fraction(d[r]), params, r) for r in range(fam.k + 1))
    )


def _per_one(total: Fraction, params: SchemeParams, r: int) -> Fraction:
    """Coefficient on A_r of a matrix whose entries on A_r sum to ``total``.

    When 2k > n, the classes r > n - k are empty: no pair lies on them, so
    ``total`` is 0, and the coefficient is taken to be 0 as well.
    """
    size = class_size(params, r)
    return total / size if size else Fraction(0)


class FamilyLemmaReport(Report):
    """The projection of a family, read for the t-intersecting lemma.

    ``t_intersecting`` and ``support_ok`` are one fact, read off the pair
    count (module docstring); ``elsm`` is the entry sum.
    """

    t_intersecting: bool
    support_ok: bool
    trace: Fraction
    elsm: Fraction
    coeffs: tuple[Fraction, ...]


def family_lemma_report(fam: Family, t: int) -> FamilyLemmaReport:
    """A projection missing trace |F| or entry sum |F|^2 raises SelfCheckError."""
    if not 0 <= t <= fam.k:
        raise ValueError(f"strength t={t} out of range [0, {fam.k}]")
    proj = project_family(fam)
    tr = trace(proj)
    es = entry_sum(proj)
    if tr != fam.size or es != fam.size * fam.size:
        raise SelfCheckError("the family projection misses its trace or entry sum")
    support_ok = all(proj.coeffs[r] == 0 for r in range(fam.k - t + 1, fam.k + 1))
    return FamilyLemmaReport(t_intersecting=support_ok, support_ok=support_ok,
                             trace=tr, elsm=es, coeffs=proj.coeffs)


def first_violating_pair(fam: Family, t: int):
    """The first member pair, in member order, meeting in fewer than t points,
    or None; more than MAX_COUNT_WORK pairs compared, summed per member, are refused."""
    members = fam.members
    masks = [subset_mask(m) for m in members]
    compared = 0
    for idx, a in enumerate(masks):
        for j in range(idx + 1, len(masks)):
            if (a & masks[j]).bit_count() < t:
                return members[idx], members[j]
        compared += len(masks) - idx - 1
        refuse_above(compared, MAX_COUNT_WORK,
                     "pairs walked for a violating pair under the count bound")
    return None
