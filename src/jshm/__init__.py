"""Exact verification of the Erdos-Ko-Rado certificate matrix in the
Johnson scheme, its derivation from Steiner-design projections, and
brute-force oracles corroborating every exact path."""

from .exact import (
    NU,
    PoleError,
    Polynomial,
    Rational,
    RationalFunction,
    binom,
    binom_poly,
    rat_from_str,
    rat_to_str,
)
from .johnson import (
    BMVector,
    EigenSystem,
    SchemeParams,
    SelfCheckError,
    SizeBudgetError,
    eigensystem,
    eigenvalues,
    psd_report,
)
from .subsets import Family, load_family, make_family, star_family

__version__ = "0.1.0"

__all__ = [
    "NU",
    "BMVector",
    "EigenSystem",
    "Family",
    "PoleError",
    "Polynomial",
    "Rational",
    "RationalFunction",
    "SchemeParams",
    "SelfCheckError",
    "SizeBudgetError",
    "binom",
    "binom_poly",
    "eigensystem",
    "eigenvalues",
    "load_family",
    "make_family",
    "psd_report",
    "rat_from_str",
    "rat_to_str",
    "star_family",
]
