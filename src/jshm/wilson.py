"""Wilson's certificate matrix and the Erdos-Ko-Rado bound machinery.

The certificate matrix is I + Omega(n,k,t), where Omega is an alternating
combination of the basis vectors counting contained-and-avoiding subsets.
Two variants of Omega are implemented side by side:

* ``literal``: the denominator C(n-k-t+1, k-t) is constant across the sum,
  exactly as the formula is sometimes printed;
* ``corrected``: the denominator C(n-k-t+i, k-t) varies with the summation
  index.

Only the corrected variant agrees with the design-projection matrix (the
identity module demonstrates the mismatch of the literal one mechanically),
so ``corrected`` is the default everywhere.  Omega is written once, over a
binomial provider, for both its numeric and its symbolic form.

A certificate for (n,k,t) verifies, with exact arithmetic throughout: the
matrix is positive semidefinite, its off-diagonal support avoids A_1..
A_{k-t}, and its entry-sum/trace ratio is C(n,t)/C(k,t); by the clique-
coclique bound these force every t-intersecting family to have size at most
C(n-t,k-t).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .exact import RationalFunction, Report, binom, binom_at_size, binom_rf, rat_to_str
from .johnson import (
    BMVector,
    SchemeParams,
    entry_sum,
    plus_identity,
    psd_report,
    schur,
    trace,
)
from .subsets import Family

if TYPE_CHECKING:
    from .designs import Design

VARIANTS = ("literal", "corrected")


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")


def wilson_matrix(n: int, k: int, t: int, variant: str = "corrected") -> BMVector:
    """Omega(n,k,t): alternating sum of scaled contained/avoiding vectors."""
    _check_variant(variant)
    if not 1 <= t <= k <= n - k:
        raise ValueError(f"need 1 <= t <= k <= n-k, got t={t}, k={k}, n={n}")
    return BMVector(SchemeParams(n, k), tuple(_omega_coeffs(binom_at_size(n), k, t, variant)))


def certificate_matrix(n: int, k: int, t: int, variant: str = "corrected") -> BMVector:
    """I + Omega(n,k,t)."""
    omega = wilson_matrix(n, k, t, variant)
    return BMVector(omega.params, tuple(plus_identity(omega.coeffs)))


def wilson_matrix_symbolic(k: int, t: int, variant: str = "corrected") -> list[RationalFunction]:
    """Coefficients of Omega(nu,k,t) on A_0..A_k as rational functions of nu."""
    _check_variant(variant)
    if not 1 <= t <= k:
        raise ValueError(f"need 1 <= t <= k, got t={t}, k={k}")
    return _omega_coeffs(binom_rf, k, t, variant)


def _omega_coeffs(binom_at, k, t, variant):
    """Sum over i < t of (-1)^(t-1-i) C(k-1-i, k-t) / C(nu-k-t+d, k-t) times
    the vector with C(r, k-i) on A_r; d is 1 (literal) or i (corrected).
    Beyond t-1 the numerator C(k-1-i, k-t) vanishes, so the sum stops there."""
    coeffs = [0 * binom_at(0, 0)] * (k + 1)  # zeros of the provider's type
    for i in range(t):
        den = binom_at(-k - t + (1 if variant == "literal" else i), k - t)
        sign_num = (-1) ** (t - 1 - i) * binom(k - 1 - i, k - t)
        for r in range(k - i, k + 1):  # C(r, k-i) vanishes below r = k-i
            coeffs[r] = coeffs[r] + sign_num * binom(r, k - i) / den
    return coeffs


def support_ok(v: BMVector, t: int) -> bool:
    """True when coefficients on A_1..A_{k-t} vanish (A_0 is permitted,
    the certificate matrix carries the identity on purpose)."""
    return all(v.coeffs[r] == 0 for r in range(1, v.params.k - t + 1))


def sum_trace_ratio(v: BMVector) -> Fraction:
    tr = trace(v)
    if tr == 0:
        raise ZeroDivisionError("ratio undefined: zero trace")
    return entry_sum(v) / tr


@dataclass(frozen=True)
class CliqueCocliqueReport(Report):
    """The clique-coclique inequality for two algebra elements.

    Premises: both positive semidefinite, and their entrywise product is a
    multiple of the identity.  When a premise fails the conclusion is
    reported as not applicable, never silently asserted.
    """

    psd_first: bool
    psd_second: bool
    schur_multiple_of_identity: bool
    schur_gamma: Fraction | None
    applicable: bool
    product: Fraction | None
    order: int
    holds: bool | None
    tight: bool | None


def clique_coclique(u: BMVector, v: BMVector) -> CliqueCocliqueReport:
    """Check the premises and evaluate (elsm/tr)(u) * (elsm/tr)(v) <= C(n,k)."""
    prod = schur(u, v)
    schur_ok = all(c == 0 for c in prod.coeffs[1:])
    gamma = prod.coeffs[0] if schur_ok else None
    psd_u = psd_report(u).psd
    psd_v = psd_report(v).psd
    applicable = psd_u and psd_v and schur_ok and trace(u) != 0 and trace(v) != 0
    order = u.params.order
    if applicable:
        product = sum_trace_ratio(u) * sum_trace_ratio(v)
        holds = product <= order
        tight = product == order
    else:
        product = holds = tight = None
    return CliqueCocliqueReport(
        psd_first=psd_u,
        psd_second=psd_v,
        schur_multiple_of_identity=schur_ok,
        schur_gamma=gamma,
        applicable=applicable,
        product=product,
        order=order,
        holds=holds,
        tight=tight,
    )


@dataclass(frozen=True)
class EKRCertificate(Report):
    """Exact certificate that t-intersecting families in J(n,k) have size
    at most C(n-t, k-t)."""

    n: int
    k: int
    t: int
    variant: str
    coeffs: tuple[Fraction, ...]  # of I + Omega on A_0..A_k
    spectrum: tuple[Fraction, ...]
    psd: bool
    min_eigenvalue: Fraction
    support_ok: bool
    ratio: Fraction
    ratio_ok: bool
    bound: int
    regime_ok: bool
    valid: bool
    notes: tuple[str, ...]


def ekr_certificate(n: int, k: int, t: int, variant: str = "corrected") -> EKRCertificate:
    """Build the certificate matrix and verify all certificate conditions.

    The regime requirement is n >= (t+1)(k-t+1); below the threshold the
    bound is false and the certificate duly fails (the minimum eigenvalue
    goes negative), which is reported rather than raised.
    """
    if not 1 <= t < k:
        raise ValueError(f"need 1 <= t < k, got t={t}, k={k}")
    if k > n - k:
        raise ValueError(f"need k <= n-k, got k={k}, n={n}")
    # SchemeParams refuses the table bound before any big-integer work
    nabla = certificate_matrix(n, k, t, variant)
    rep = psd_report(nabla)
    sup = support_ok(nabla, t)
    ratio = sum_trace_ratio(nabla)
    target = Fraction(binom(n, t), binom(k, t))
    ratio_ok = ratio == target
    bound = binom(n - t, k - t)
    regime_ok = n >= (t + 1) * (k - t + 1)
    valid = rep.psd and sup and ratio_ok and regime_ok
    notes = [
        "ratio target is C(n,t)/C(k,t) = C(n,k)/C(n-t,k-t) = "
        f"{rat_to_str(target)}; the variant C(n,t)/C(n-t,k-t) = "
        f"{rat_to_str(Fraction(binom(n, t), binom(n - t, k - t)))} "
        "does not reproduce the bound C(n-t,k-t) and is listed only for comparison",
    ]
    if not regime_ok:
        notes.append(
            f"out of regime: n = {n} < (t+1)(k-t+1) = {(t + 1) * (k - t + 1)}"
            + (
                f"; PSD fails with eigenvalue {rat_to_str(rep.min_eigenvalue)}"
                f" on eigenspace {rep.argmin}"
                if not rep.psd
                else ""
            )
        )
    return EKRCertificate(
        n=n,
        k=k,
        t=t,
        variant=variant,
        coeffs=nabla.coeffs,
        spectrum=rep.spectrum,
        psd=rep.psd,
        min_eigenvalue=rep.min_eigenvalue,
        support_ok=sup,
        ratio=ratio,
        ratio_ok=ratio_ok,
        bound=bound,
        regime_ok=regime_ok,
        valid=valid,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class DesignBoundReport(Report):
    """The intersecting-family bound derived from an explicit Steiner design."""

    n: int
    k: int
    t: int
    premises_ok: bool
    detail: str
    clique_coclique: CliqueCocliqueReport | None
    bound: int
    family_size: int
    within_bound: bool | None
    tight: bool | None


def bound_from_design(design: Design, fam: Family) -> DesignBoundReport:
    """Bound |F| <= C(n-t,k-t) via the scaled projection of a Steiner design.

    The design projection, rescaled by C(n,k)/|D|, plays the certificate
    matrix's role; the family projection supplies the other side of the
    clique-coclique inequality.
    """
    # imported here so that the certificate commands load no design code
    from .projection import family_lemma_report, project_family

    n, k, t = design.n, design.k, design.t
    bound = binom(n - t, k - t)

    def refused(detail):
        return DesignBoundReport(n, k, t, False, detail, None, bound, fam.size, None, None)

    if fam.n != n or fam.k != k:
        return refused("family parameters do not match the design")
    if design.lam != 1:
        return refused("design is not a Steiner system")
    lemma = family_lemma_report(fam, t)
    if not lemma.t_intersecting:
        a, b = lemma.violating_pair
        return refused(f"family is not {t}-intersecting: blocks {list(a)} and {list(b)} "
                       "meet in too few points")
    params = SchemeParams(n, k)
    fam_side = BMVector(params, lemma.coeffs)  # the lemma projected the family
    design_side = project_family(design.family).scale(Fraction(params.order, design.size))
    clique = clique_coclique(fam_side, design_side)
    return DesignBoundReport(
        n=n,
        k=k,
        t=t,
        premises_ok=clique.applicable,
        detail="ok" if clique.applicable else "clique-coclique premises failed",
        clique_coclique=clique,
        bound=bound,
        family_size=fam.size,
        within_bound=fam.size <= bound,
        tight=fam.size == bound,
    )
