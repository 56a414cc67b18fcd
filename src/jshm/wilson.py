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
so ``corrected`` is the default everywhere.  Omega's terms are written once
(``_omega_terms``) and put over one common denominator once
(``_omega_numerators``), in ring operations over a binomial provider, and
taken to the A basis by ``johnson.w_to_a``: over ``exact.binom_at_int(n)``
at a size, and over ``qnu.binom_zpoly(k)`` in Z[nu], which
:mod:`jshm.identity` reduces once per coefficient.  The integers of that
denominator that do not depend on nu are computed once per (k, t, variant)
(``_omega_constants``).

A certificate for (n,k,t) verifies, with exact arithmetic throughout: the
matrix is positive semidefinite, its off-diagonal support avoids A_1..
A_{k-t}, and its entry-sum/trace ratio is C(n,t)/C(k,t); by the clique-
coclique bound these force every t-intersecting family to have size at most
C(n-t,k-t).

A certificate is one integer vector over one denominator: over D > 0, a
common multiple of Omega's term denominators, Omega's W coefficients are
integers w_a, which give the numerators of I + Omega on A_0..A_k
(``johnson.w_to_a``), its spectrum (``johnson.lemma_spectrum``, Wilson's
lemma: k+1 integers) and its entry-sum/trace ratio, so every verdict is a
sign or a cross-multiplication of integers, and Fractions appear only in
the document.  Two self-checks
raise SelfCheckError: the spectrum must give the trace C(n,k) of I + Omega,
and theta_0 must equal the entry-sum/trace ratio from the class valencies.
The tests hold the spectrum against ``oracles.eberlein_table``, the
coefficients against the symbolic Omega, and that against its terms summed
over ``qnu.binom_rf``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .exact import Report, binom, binom_at_int, rat_to_str
from .johnson import (
    BMVector,
    SchemeParams,
    SelfCheckError,
    lemma_spectrum,
    multiplicities,
    plus_identity,
    psd_report,
    psd_verdict,
    row_sum,
    schur,
    trace,
    w_to_a,
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
    params = SchemeParams(n, k)  # refuses the table bound before any big-integer work
    den, w = _omega_numerators(binom_at_int(n), k, t, variant)
    return BMVector(params, tuple(Fraction(c, den) for c in w_to_a(w)))


def certificate_matrix(n: int, k: int, t: int, variant: str = "corrected") -> BMVector:
    """I + Omega(n,k,t)."""
    omega = wilson_matrix(n, k, t, variant)
    return BMVector(omega.params, tuple(plus_identity(omega.coeffs)))


def _omega_terms(k, t, variant):
    """Omega's terms, one (s, h, a) for each i < t: the term is s / C(nu+h, k-t)
    times W_a, the vector with C(r, a) on A_r, where s = (-1)^(t-1-i) C(k-1-i,
    k-t), a = k-i and h = -k-t+d, d being 1 (literal) or i (corrected).
    Beyond t-1 the numerator C(k-1-i, k-t) vanishes, so the sum stops there."""
    for i in range(t):
        yield ((-1) ** (t - 1 - i) * binom(k - 1 - i, k - t),
               -k - t + (1 if variant == "literal" else i), k - i)


def _omega_numerators(binom_at, k, t, variant):
    """(D, w) over the provider, in ring operations only: w_a = s D / C(nu+h,
    k-t) are the W coefficients of D * Omega(nu,k,t).

    Term i's C(nu+h, k-t) has the roots -h..-h+k-t-1, and -h falls with i
    (corrected) or is fixed (literal), so the roots make one run lo..hi of L
    integers, from the last term's first root to the first term's last.
    D = L! C(nu-lo, L) C(nu, 0), the product of nu - m over the run, is a
    common multiple (the lcm in Z[nu] for t < k), and w_a = s (k-t)! A! B!
    C(nu-lo, A) C(nu+h-(k-t), B), A and B counting the run's roots below and
    above the term's: two provider values each, so a provider scaled by a
    constant gives the same ratios.  At a size n >= 2k, D > 0.  The integers
    free of nu come from :func:`_omega_constants`.
    """
    lo, length, scale, terms = _omega_constants(k, t, variant)
    den = binom_at(-lo, length) * binom_at(0, 0) * scale
    w = [0] * (k + 1)
    for a, below, above, shift, c in terms:
        w[a] = binom_at(-lo, below) * binom_at(shift, above) * c
    return den, w


@functools.lru_cache(maxsize=4096)
def _omega_constants(k, t, variant):
    """The integers of :func:`_omega_numerators` that are free of nu, once per
    (k, t, variant): lo, L, L! and, for each term, (a, A, B, h - (k-t),
    s (k-t)! A! B!)."""
    terms = list(_omega_terms(k, t, variant))
    lo, hi = -terms[-1][1], -terms[0][1] + k - t - 1
    fact = math.factorial
    out = []
    for s, h, a in terms:
        below, above = -h - lo, hi - (k - t - 1 - h)
        out.append((a, below, above, h - (k - t), s * fact(k - t) * fact(below) * fact(above)))
    return lo, hi - lo + 1, fact(hi - lo + 1), tuple(out)


def support_ok(v: BMVector, t: int) -> bool:
    """True when coefficients on A_1..A_{k-t} vanish (A_0 is permitted,
    the certificate matrix carries the identity on purpose)."""
    return all(v.coeffs[r] == 0 for r in range(1, v.params.k - t + 1))


def sum_trace_ratio(v: BMVector) -> Fraction:
    """Entry sum over trace, which is the row sum over the diagonal entry c_0."""
    if v.coeffs[0] == 0:
        raise ZeroDivisionError("ratio undefined: zero trace")
    return row_sum(v) / v.coeffs[0]


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
    _check_variant(variant)
    params = SchemeParams(n, k)  # refuses the table bound before any big-integer work
    binom_at = binom_at_int(n)
    den, w = _omega_numerators(binom_at, k, t, variant)
    nums = w_to_a(w)
    nums[0] += den  # I; Omega has no A_0 part
    nabla = BMVector(params, tuple(nums))  # D * (I + Omega)
    spectrum = [den + x for x in lemma_spectrum(binom_at, w, k)]
    if sum(m * x for m, x in zip(multiplicities(n, k), spectrum)) != trace(nabla):
        raise SelfCheckError(f"the spectrum of I + Omega({n},{k},{t}) misses its trace")
    row = row_sum(nabla)  # D times the entry-sum/trace ratio, as c_0 = D
    if spectrum[0] != row:
        raise SelfCheckError(f"theta_0 of I + Omega({n},{k},{t}) is not its "
                             "entry-sum/trace ratio")
    rep = psd_verdict(spectrum)
    sup = support_ok(nabla, t)
    ratio_ok = row * binom(k, t) == den * binom(n, t)
    bound = binom(n - t, k - t)
    regime_ok = n >= (t + 1) * (k - t + 1)
    valid = rep.psd and sup and ratio_ok and regime_ok
    # the document's rationals
    spectrum = tuple(Fraction(x, den) for x in spectrum)
    min_eigenvalue = spectrum[rep.argmin]
    target = Fraction(binom(n, t), binom(k, t))
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
                f"; PSD fails with eigenvalue {rat_to_str(min_eigenvalue)}"
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
        coeffs=tuple(Fraction(c, den) for c in nums),
        spectrum=spectrum,
        psd=rep.psd,
        min_eigenvalue=min_eigenvalue,
        support_ok=sup,
        ratio=Fraction(row, den),
        ratio_ok=ratio_ok,
        bound=bound,
        regime_ok=regime_ok,
        valid=valid,
        notes=tuple(notes),
    )


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
    from .projection import family_lemma_report, first_violating_pair, project_family

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
        a, b = first_violating_pair(fam, t)
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
