"""Output checks made apart from the program.

Nothing here imports jshm.  Every expected value is either computed from
the benchmark's own transcription of a formula (Eberlein polynomials, the
design matrix M(n,k,t), the Wilson matrix Omega(n,k,t), the
Ahlswede-Khachatrian maximum) or is a property the method must have (a
Steiner system covers each t-subset once, a projection keeps trace |F| and
entry sum |F|^2).  No check compares against a stored copy of earlier
output.  A failed check raises :class:`CheckFailure`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb


class CheckFailure(AssertionError):
    """A program output disagrees with the benchmark's own expectation."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def C(a: int, b: int) -> int:
    """Binomial coefficient, zero outside 0 <= b <= a."""
    if a < 0 or b < 0 or b > a:
        return 0
    return comb(a, b)


# ---------------------------------------------------------------------------
# The Johnson scheme J(n,k)


def eberlein(n: int, k: int, j: int, i: int) -> int:
    """Eigenvalue of the distance-i class A_i on the j-th eigenspace."""
    return sum(
        (-1) ** h * C(j, h) * C(k - j, i - h) * C(n - k - j, i - h)
        for h in range(i + 1)
    )


def class_size(n: int, k: int, r: int) -> int:
    """Number of ones of A_r."""
    return C(n, k) * C(k, r) * C(n - k, r)


def spectrum(n: int, k: int, coeffs) -> list[Fraction]:
    """Eigenvalue of sum(c_i A_i) on each eigenspace j = 0..k."""
    return [
        sum(Fraction(c) * eberlein(n, k, j, i) for i, c in enumerate(coeffs))
        for j in range(k + 1)
    ]


def multiplicities(n: int, k: int) -> list[int]:
    return [C(n, j) - C(n, j - 1) for j in range(k + 1)]


def trace_and_entry_sum(n: int, k: int, coeffs) -> tuple[Fraction, Fraction]:
    tr = Fraction(coeffs[0]) * C(n, k)
    es = sum(Fraction(c) * class_size(n, k, r) for r, c in enumerate(coeffs))
    return tr, es


# ---------------------------------------------------------------------------
# The two sides of the central identity, transcribed independently


def design_matrix(n: int, k: int, t: int) -> list[Fraction]:
    """M(n,k,t) from the intersection numbers of a Steiner t-design.

    Two distinct blocks of a t-(n,k,1) design meet in fewer than t points.
    Counting (block, i-subset) incidences gives
    sum_j C(j,i) x_j = C(k,i) (lambda_i - 1), lambda_i = C(n-i,k-i)/C(n-t,k-t),
    and Moebius inversion gives x_s; M carries x_s / (C(k,s) C(n-k,k-s)) on
    the class A_{k-s}.
    """
    lam = [Fraction(C(n - i, k - i), C(n - t, k - t)) for i in range(t + 1)]
    coeffs = [Fraction(0)] * (k + 1)
    for s in range(t + 1):
        x_s = sum(
            (-1) ** (i - s) * C(i, s) * C(k, i) * (lam[i] - 1)
            for i in range(s, t + 1)
        )
        coeffs[k - s] = x_s / (C(k, s) * C(n - k, k - s))
    return coeffs


def wilson_matrix(n: int, k: int, t: int, variant: str) -> list[Fraction]:
    """Omega(n,k,t): sum over i < t of (-1)^(t-1-i) C(k-1-i,k-t)/den_i times
    the vector whose A_r coefficient is C(r, k-i).

    den_i is C(n-k-t+i, k-t) ("corrected") or C(n-k-t+1, k-t) ("literal").
    """
    coeffs = [Fraction(0)] * (k + 1)
    for i in range(t):
        shift = i if variant == "corrected" else 1
        weight = Fraction((-1) ** (t - 1 - i) * C(k - 1 - i, k - t),
                          C(n - k - t + shift, k - t))
        for r in range(k + 1):
            coeffs[r] += weight * C(r, k - i)
    return coeffs


def side(name: str, n: int, k: int, t: int) -> list[Fraction]:
    """One named side of the identity at ground-set size n."""
    if name in ("m", "m_plus_i"):
        coeffs = design_matrix(n, k, t)
    elif name in ("omega_literal", "omega_corrected", "nabla_corrected"):
        coeffs = wilson_matrix(n, k, t,
                               "literal" if name == "omega_literal" else "corrected")
    else:
        raise CheckFailure(f"unknown side {name!r}")
    if name in ("m_plus_i", "nabla_corrected"):
        coeffs[0] += 1
    return coeffs


def difference(lhs: str, rhs: str, n: int, k: int, t: int) -> list[Fraction]:
    return [a - b for a, b in zip(side(lhs, n, k, t), side(rhs, n, k, t))]


EQUAL_PAIRS = {("m", "omega_corrected"), ("m_plus_i", "nabla_corrected")}


# ---------------------------------------------------------------------------
# Certificates


def check_certificate(n: int, k: int, t: int, coeffs, spec, valid: bool,
                      bound: int, ratio) -> None:
    """Wilson's certificate conditions, checked from its coefficients."""
    coeffs = [Fraction(c) for c in coeffs]
    expect(len(coeffs) == k + 1, f"({n},{k},{t}): {len(coeffs)} coefficients")
    expect(all(c == 0 for c in coeffs[1:k - t + 1]),
           f"({n},{k},{t}): nonzero coefficient on A_1..A_{k - t}")
    own = spectrum(n, k, coeffs)
    expect([Fraction(x) for x in spec] == own,
           f"({n},{k},{t}): spectrum differs from the Eberlein evaluation")
    in_regime = n >= (t + 1) * (k - t + 1)
    expect(bool(valid) == in_regime,
           f"({n},{k},{t}): valid={valid}, regime says {in_regime}")
    expect(bound == C(n - t, k - t), f"({n},{k},{t}): bound {bound}")
    target = Fraction(C(n, t), C(k, t))
    expect(Fraction(ratio) == target, f"({n},{k},{t}): ratio {ratio} != {target}")
    tr, es = trace_and_entry_sum(n, k, coeffs)
    expect(es / tr == target, f"({n},{k},{t}): entry sum / trace != {target}")
    if in_regime:
        expect(min(own) >= 0, f"({n},{k},{t}): in regime but not PSD")


# ---------------------------------------------------------------------------
# Identity reports


def sample_points(k: int) -> range:
    """2k+1 integers, enough to decide an identity of cleared degree <= 2k."""
    return range(2 * k + 1, 4 * k + 2)


def check_symbolic(k: int, t: int, lhs: str, rhs: str, equal: bool,
                   h_values, witness) -> None:
    """``h_values[n]`` are the program's h_r evaluated at n, for each sample
    n (None when only the verdict and witness are known); ``witness`` is
    (r, n, value) or None."""
    tag = f"({k},{t}) {lhs} vs {rhs}"
    own = {n: difference(lhs, rhs, n, k, t) for n in sample_points(k)}
    own_equal = all(x == 0 for diff in own.values() for x in diff)
    expect(own_equal == ((lhs, rhs) in EQUAL_PAIRS),
           f"{tag}: own transcription disagrees with the expected identity")
    expect(bool(equal) == own_equal, f"{tag}: verdict {equal}, own {own_equal}")
    for n, diff in own.items():
        expect(h_values is None or [Fraction(x) for x in h_values[n]] == diff,
               f"{tag}: h differs from own transcription at n = {n}")
    if own_equal:
        expect(witness is None, f"{tag}: witness for an equal pair")
        return
    expect(witness is not None, f"{tag}: no witness for an unequal pair")
    r, n, value = witness
    zero_before = all(own[m][q] == 0 for m in own for q in range(r))
    expect(zero_before and any(own[m][r] != 0 for m in own),
           f"{tag}: witness class {r} is not the first nonzero class")
    first_n = next(m for m in range(2 * k + 1, n + 1)
                   if difference(lhs, rhs, m, k, t)[r] != 0)
    expect(first_n == n, f"{tag}: witness at n = {n}, first nonzero at {first_n}")
    expect(Fraction(value) == difference(lhs, rhs, n, k, t)[r],
           f"{tag}: witness value {value}")


def check_pointwise(k: int, t: int, lhs: str, rhs: str, n_from: int, n_to: int,
                    equal: bool, checked: int, points_equal: int, skipped,
                    first_failure) -> None:
    tag = f"({k},{t}) pointwise {lhs} vs {rhs} on [{n_from},{n_to}]"
    own = {n: difference(lhs, rhs, n, k, t) for n in range(n_from, n_to + 1)}
    unequal = [n for n, diff in own.items() if any(diff)]
    expect(list(skipped) == [], f"{tag}: skipped {list(skipped)}")
    expect(checked == len(own), f"{tag}: checked {checked} of {len(own)}")
    expect(points_equal == len(own) - len(unequal), f"{tag}: {points_equal} equal")
    if unequal:
        n = unequal[0]
        r = next(q for q, x in enumerate(own[n]) if x != 0)
        expect(first_failure is not None and tuple(first_failure[:2]) == (n, r),
               f"{tag}: first failure {first_failure}, own ({n},{r})")
        expect(Fraction(first_failure[2]) == side(lhs, n, k, t)[r]
               and Fraction(first_failure[3]) == side(rhs, n, k, t)[r],
               f"{tag}: first failure values")
    else:
        expect(first_failure is None, f"{tag}: failure {first_failure}")
    expect(bool(equal) == (not unequal and len(own) >= 2 * k + 1),
           f"{tag}: verdict {equal}")


# ---------------------------------------------------------------------------
# Designs, families and oracles


def admissible(n: int, k: int, t: int) -> bool:
    """Divisibility conditions for a t-(n,k,1) design: C(k-i,t-i) | C(n-i,t-i)."""
    return all(C(n - i, t - i) % C(k - i, t - i) == 0 for i in range(t))


def check_steiner(n: int, k: int, t: int, blocks) -> None:
    """Every t-subset of {1..n} lies in exactly one block."""
    tag = f"S({t},{k},{n})"
    counts = Counter()
    for b in blocks:
        expect(len(b) == k and len(set(b)) == k and all(1 <= e <= n for e in b),
               f"{tag}: malformed block {b}")
        counts.update(combinations(sorted(b), t))
    expect(len(counts) == C(n, t), f"{tag}: {len(counts)} of {C(n, t)} t-subsets covered")
    expect(max(counts.values()) == 1, f"{tag}: a t-subset is covered twice")
    expect(len(blocks) == C(n, t) // C(k, t), f"{tag}: {len(blocks)} blocks")


def check_design_projection(n: int, k: int, t: int, size: int, projection) -> None:
    """A Steiner design projects to (|D| / C(n,k)) (I + M(n,k,t))."""
    coeffs = [Fraction(c) for c in projection]
    tr, es = trace_and_entry_sum(n, k, coeffs)
    expect(tr == size and es == size * size,
           f"S({t},{k},{n}): projection trace {tr}, entry sum {es}")
    m = design_matrix(n, k, t)
    m[0] += 1
    scale = Fraction(size, C(n, k))
    expect(coeffs == [scale * c for c in m],
           f"S({t},{k},{n}): projection is not (|D|/C(n,k)) (I + M)")


def ak_maximum(n: int, k: int, t: int) -> int:
    """Ahlswede-Khachatrian: the largest t-intersecting family in J(n,k) is
    max over r of |{A : |A meet [t+2r]| >= t+r}|."""
    best = 0
    r = 0
    while t + 2 * r <= n:
        size = sum(C(t + 2 * r, i) * C(n - t - 2 * r, k - i)
                   for i in range(t + r, k + 1))
        best = max(best, size)
        r += 1
    return best


def check_max_family(n: int, k: int, t: int, size: int, optimal: bool, blocks) -> None:
    tag = f"max_family({n},{k},{t})"
    expect(optimal, f"{tag}: search did not complete")
    want = ak_maximum(n, k, t)
    if n >= (t + 1) * (k - t + 1):
        expect(want == C(n - t, k - t), f"{tag}: AK maximum {want} in regime")
    expect(size == want, f"{tag}: size {size}, AK maximum {want}")
    check_t_intersecting(n, k, t, blocks)
    expect(len(blocks) == size, f"{tag}: {len(blocks)} blocks for size {size}")


def check_t_intersecting(n: int, k: int, t: int, blocks) -> None:
    sets = [frozenset(b) for b in blocks]
    expect(len(set(sets)) == len(sets), "duplicate blocks")
    for b in sets:
        expect(len(b) == k and all(1 <= e <= n for e in b), f"malformed block {sorted(b)}")
    for a, b in combinations(sets, 2):
        expect(len(a & b) >= t, f"blocks {sorted(a)}, {sorted(b)} meet in < {t} points")


def check_star_projection(n: int, k: int, t: int, size: int, coeffs) -> None:
    """The ordered pair counts of a t-star are |F| C(k-t,r) C(n-k,r)."""
    expect(size == C(n - t, k - t), f"star({n},{k},{t}): {size} members")
    for r, c in enumerate(coeffs):
        pairs = Fraction(c) * class_size(n, k, r)
        expect(pairs == size * C(k - t, r) * C(n - k, r),
               f"star({n},{k},{t}): {pairs} pairs at distance {r}")


def check_projection_sums(n: int, k: int, size: int, coeffs) -> None:
    tr, es = trace_and_entry_sum(n, k, coeffs)
    expect(tr == size, f"projection in J({n},{k}): trace {tr}, |F| = {size}")
    expect(es == size * size, f"projection in J({n},{k}): entry sum {es}, |F|^2 = {size * size}")


def check_float_spectrum(n: int, k: int, coeffs, values, tol: float = 1e-8) -> None:
    """Sorted float eigenvalues match the Eberlein values with multiplicity."""
    want = []
    for theta, mult in zip(spectrum(n, k, coeffs), multiplicities(n, k)):
        want += [float(theta)] * mult
    want.sort(reverse=True)
    expect(len(values) == len(want), f"J({n},{k}): {len(values)} eigenvalues")
    worst = max(abs(a - b) for a, b in zip(values, want))
    expect(worst <= tol, f"J({n},{k}): float spectrum off by {worst}")
