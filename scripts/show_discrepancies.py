#!/usr/bin/env python3
"""Re-run the mechanical demonstrations behind DISCREPANCIES.md.

Each section prints the competing readings of one formula and the exact
computation that separates them.  Everything here is redundant with the
test suite; the script exists so the comparisons can be eyeballed without
reading test code.
"""

from fractions import Fraction

from jshm.designs import search_design
from jshm.exact import binom, rat_to_str
from jshm.identity import compare_symbolic
from jshm.johnson import entry_sum
from jshm.projection import project_family
from jshm.qnu import rf_to_str
from jshm.wilson import certificate_matrix, ekr_certificate, sum_trace_ratio, wilson_matrix


def show(title: str) -> None:
    print(f"\n=== {title} ===")


def main() -> None:
    show("D1: Wilson matrix denominator (constant vs index-dependent)")
    lit = wilson_matrix(7, 3, 2, "literal")
    cor = wilson_matrix(7, 3, 2, "corrected")
    print("  literal   Omega(7,3,2):", [rat_to_str(c) for c in lit.coeffs])
    print("  corrected Omega(7,3,2):", [rat_to_str(c) for c in cor.coeffs])
    rep = compare_symbolic(3, 2, "m", "omega_literal")
    r, n, value = rep.witness
    print(f"  symbolic difference on class {r}: {rf_to_str(rep.h[r])}, "
          f"value {rat_to_str(value)} at n = {n}")
    print("  corrected variant:",
          "equal" if compare_symbolic(3, 2, "m", "omega_corrected").equal
          else "NOT equal")

    show("D2: entry-sum/trace ratio target")
    ratio = sum_trace_ratio(certificate_matrix(7, 3, 2))
    print(f"  ratio(I + Omega(7,3,2))      = {rat_to_str(ratio)}")
    print(f"  C(n,t)/C(k,t)   = C(7,2)/C(3,2) = {rat_to_str(Fraction(binom(7, 2), binom(3, 2)))}  <- matches")
    print(f"  C(n,t)/C(n-t,k-t) = C(7,2)/C(5,1) = {rat_to_str(Fraction(binom(7, 2), binom(5, 1)))}  <- does not")

    show("D3: entry sum of a design projection")
    fano = search_design(7, 3, 2).design
    proj = project_family(fano.family)
    print(f"  design size       : {fano.size}")
    print(f"  entry sum of proj : {rat_to_str(entry_sum(proj))} (= size^2, not size)")

    show("D4: regime inequality direction")
    below = ekr_certificate(8, 4, 2)
    boundary = ekr_certificate(6, 3, 2)
    print(f"  (8,4,2), n below threshold 9 : min eigenvalue "
          f"{rat_to_str(below.min_eigenvalue)} -> PSD fails")
    print(f"  (6,3,2), n at threshold 6    : min eigenvalue "
          f"{rat_to_str(boundary.min_eigenvalue)} -> valid, bound {boundary.bound}")

    show("D5: identity shift (M = Omega, not Omega + I)")
    for lhs, rhs in [("m", "omega_corrected"), ("m_plus_i", "nabla_corrected"),
                     ("m_plus_i", "omega_corrected"), ("m", "nabla_corrected")]:
        rep = compare_symbolic(3, 2, lhs, rhs)
        verdict = "equal" if rep.equal else f"NOT equal (witness class {rep.witness.r})"
        print(f"  {lhs:>8} vs {rhs:<16}: {verdict}")


if __name__ == "__main__":
    main()
