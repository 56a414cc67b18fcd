"""Exact verification of the Erdos-Ko-Rado certificate matrix in the
Johnson scheme, its derivation from Steiner-design projections, and
brute-force oracles corroborating every exact path."""

__version__ = "0.1.0"
