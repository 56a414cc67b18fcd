"""Command-line front door.

Machine-readable JSON goes to standard output (keys sorted, rationals as
"p/q" strings, byte-identical across repeated invocations); short human
summaries go to standard error.  Exit codes: 0 success or verified, 1
verification failed on valid input, 2 invalid input, 3 budget exhausted.
The JSHM_BUDGET environment variable sets the default search budget in
node expansions; a negative budget, from it or from --budget, is invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import johnson
from .exact import rat_from_str, rat_to_str, to_json
from .johnson import SchemeParams, SizeBudgetError
from .subsets import family_to_dict, load_family

# Each command imports the modules it runs when it is called, so start-up
# compiles only those and the exact, johnson and subsets imported above (Q(nu)
# arithmetic, in qnu, only the identity commands load), and main builds the
# parsers of that command alone.
# The --variant choices, equal to wilson.VARIANTS (a test pins them), are
# spelled out so that building the parser does not import wilson.
VARIANTS = ("literal", "corrected")

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _emit(payload: dict, summary: str) -> None:
    sys.stdout.write(json.dumps(to_json(payload), sort_keys=True, indent=2) + "\n")
    if summary:
        sys.stderr.write(summary + "\n")


def _default_budget(args, default: int) -> int:
    """--budget, else JSHM_BUDGET, else the command's own default."""
    budget = args.budget
    if budget is None:
        env = os.environ.get("JSHM_BUDGET")
        if env is None:
            return default
        try:
            budget = int(env)
        except ValueError as exc:
            raise ValueError(f"JSHM_BUDGET must be an integer, got {env!r}") from exc
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    return budget


def _cmd_scheme(args) -> int:
    es = johnson.eigensystem(SchemeParams(args.n, args.k))
    payload = {"n": args.n, "k": args.k, "theta1": tuple(row[1] for row in es.P),
               "P": es.P, "m": es.m}
    _emit(payload, f"eigenvalue table of J({args.n},{args.k}): "
                   f"{args.k + 1} eigenspaces, order {es.params.order}")
    return EXIT_OK


def _cmd_wilson_omega(args) -> int:
    from . import wilson
    v = wilson.wilson_matrix(args.n, args.k, args.t, args.variant)
    payload = {"n": args.n, "k": args.k, "coeffs": v.coeffs}
    _emit(payload, f"Wilson matrix ({args.variant}) for "
                   f"(n,k,t)=({args.n},{args.k},{args.t})")
    return EXIT_OK


def _cmd_wilson_certify(args) -> int:
    from . import wilson
    cert = wilson.ekr_certificate(args.n, args.k, args.t, args.variant)
    _emit(cert.to_dict(),
          f"certificate {'valid' if cert.valid else 'INVALID'}: "
          f"bound {cert.bound}, min eigenvalue {rat_to_str(cert.min_eigenvalue)}")
    return EXIT_OK if cert.valid else EXIT_FAILED


def _cmd_project(args) -> int:
    from . import projection
    fam = load_family(args.file)
    report = projection.family_lemma_report(fam, args.t)
    _emit(report.to_dict(),
          f"family of {fam.size} blocks: "
          f"{'verified' if report.t_intersecting else 'not verified'} at t={args.t}")
    return EXIT_OK if report.t_intersecting else EXIT_FAILED


def _cmd_design_verify(args) -> int:
    from . import designs
    fam = load_family(args.file)
    try:
        design = designs.as_design(fam, args.t)
    except designs.NotADesignError as exc:
        payload = {**family_to_dict(fam), "t": args.t, "lambda": None, "witness": {
            "subset": exc.witness, "count": exc.count, "expected": exc.expected}}
        _emit(payload, f"not a {args.t}-design: {exc}")
        return EXIT_FAILED
    _emit(design.to_dict(), f"verified {args.t}-({fam.n},{fam.k},{design.lam}) design")
    return EXIT_OK


def _cmd_design_search(args) -> int:
    from . import designs
    outcome = designs.search_design(args.n, args.k, args.t,
                                    _default_budget(args, designs.DEFAULT_SEARCH_BUDGET))
    if outcome.status == "found":
        payload = outcome.design.to_dict()
        payload["nodes"] = outcome.nodes
        _emit(payload, f"found {outcome.design.size}-block "
                       f"{args.t}-({args.n},{args.k},1) design "
                       f"({outcome.nodes} nodes)")
        return EXIT_OK
    payload = {"n": args.n, "k": args.k, "t": args.t, "found": False,
               "exhausted": outcome.status == "not-found", "nodes": outcome.nodes}
    if outcome.status == "not-found":
        _emit(payload, "search space exhausted: no such design")
        return EXIT_FAILED
    _emit(payload, f"budget exhausted after {outcome.nodes} nodes")
    return EXIT_BUDGET


def _cmd_design_admissible(args) -> int:
    from . import designs
    if (args.n is None) == (args.n_max is None):
        raise ValueError("provide exactly one of --n and --n-max")
    if args.n is not None:
        payload = {"k": args.k, "t": args.t, "n": args.n,
                   "admissible": designs.admissible(args.n, args.k, args.t)}
        _emit(payload, f"divisibility conditions "
                       f"{'hold' if payload['admissible'] else 'fail'}")
    else:
        ns = designs.admissible_range(args.k, args.t, args.n_max)
        payload = {"k": args.k, "t": args.t, "n_max": args.n_max,
                   "admissible": ns}
        _emit(payload, f"{len(ns)} admissible sizes up to {args.n_max}")
    return EXIT_OK


_LHS_FLAGS = {"m": "m", "m-plus-i": "m_plus_i"}
_RHS_FLAGS = {"literal": "omega_literal", "corrected": "omega_corrected",
              "nabla": "nabla_corrected"}


def _cmd_identity_prove(args) -> int:
    from . import identity
    report = identity.compare_symbolic(
        args.k, args.t, _LHS_FLAGS[args.lhs], _RHS_FLAGS[args.rhs]
    )
    _emit(report.to_dict(),
          f"symbolic comparison {report.lhs} vs {report.rhs}: "
          f"{'equal' if report.equal else 'NOT equal'}")
    return EXIT_OK if report.equal else EXIT_FAILED


def _cmd_identity_pointwise(args) -> int:
    from . import identity
    report = identity.compare_pointwise(
        args.k, args.t, _LHS_FLAGS[args.lhs], _RHS_FLAGS[args.rhs],
        args.n_from, args.n_to,
    )
    _emit(report.to_dict(),
          f"pointwise comparison on [{args.n_from},{args.n_to}]: "
          f"{report.points_equal}/{report.points_checked} equal, "
          f"verdict {'equal' if report.equal else 'not equal'}")
    return EXIT_OK if report.equal else EXIT_FAILED


def _cmd_identity_witness(args) -> int:
    from . import designs, identity
    report = identity.design_witness_check(
        args.k, args.t, args.n, _default_budget(args, designs.DEFAULT_SEARCH_BUDGET))
    statuses = [p.status for p in report.points]
    _emit(report.to_dict(), "witness statuses: " + ", ".join(
        f"n={p.n}:{p.status}" for p in report.points))
    if "failed" in statuses:
        return EXIT_FAILED
    if "unverified" in statuses:
        return EXIT_BUDGET
    return EXIT_OK if "verified" in statuses else EXIT_FAILED


def _cmd_oracle_max_family(args) -> int:
    from . import oracles
    result = oracles.max_family(args.n, args.k, args.t,
                                _default_budget(args, oracles.DEFAULT_CLIQUE_BUDGET))
    _emit(result.to_dict(),
          f"max {args.t}-intersecting family in J({args.n},{args.k}): "
          f"size {result.size} ({'optimal' if result.optimal else 'budget hit'})")
    return EXIT_OK if result.optimal else EXIT_BUDGET


def _cmd_oracle_spectrum(args) -> int:
    from . import oracles
    params = SchemeParams(args.n, args.k)
    coeffs = tuple(rat_from_str(c) for c in args.coeffs.split(","))
    v = johnson.BMVector(params, coeffs)
    spectrum = oracles.float_spectrum(johnson.dense(v))
    payload = {"n": args.n, "k": args.k, "coeffs": coeffs, "spectrum": spectrum}
    _emit(payload, f"float spectrum of a {params.order}x{params.order} matrix")
    return EXIT_OK


# Each flag that several commands share, declared once.
_SHARED = {
    "--n": {"type": int, "required": True},
    "--k": {"type": int, "required": True},
    "--t": {"type": int, "required": True},
    "--budget": {"type": int, "default": None},
    "--variant": {"choices": VARIANTS, "default": "corrected"},
    "--lhs": {"choices": sorted(_LHS_FLAGS), "default": "m"},
    "--rhs": {"choices": sorted(_RHS_FLAGS), "default": "corrected"},
    "--file": {"required": True},
}

_GROUPS = {
    "wilson": "Wilson matrix and EKR certificates",
    "design": "verify, search, admissibility",
    "identity": "design matrix vs Wilson matrix",
    "oracle": "brute-force oracles",
}

# One row per command, in help order: its words, handler, help, shared flags
# and own flags.  A parser takes its shared flags first, so identity witness,
# whose --budget follows its own --n, lists --budget as an own flag.
_COMMANDS = (
    ("scheme", _cmd_scheme, "exact eigenvalue table of J(n,k)", "--n --k", ()),
    ("wilson omega", _cmd_wilson_omega, "coefficients of the Wilson matrix",
     "--n --k --t --variant", ()),
    ("wilson certify", _cmd_wilson_certify, "build and verify an EKR certificate",
     "--n --k --t --variant", ()),
    ("project", _cmd_project, "project a family file onto the algebra", "--file --t", ()),
    ("design verify", _cmd_design_verify, "verify a family file as a t-design",
     "--file --t", ()),
    ("design search", _cmd_design_search, "exact-cover search for a t-(n,k,1) design",
     "--n --k --t --budget", ()),
    ("design admissible", _cmd_design_admissible, "divisibility admissibility", "--k --t",
     (("--n", {"type": int, "default": None}), ("--n-max", {"type": int, "default": None}))),
    ("identity prove", _cmd_identity_prove, "symbolic coefficient comparison",
     "--k --t --lhs --rhs", ()),
    ("identity pointwise", _cmd_identity_pointwise, "exact comparison over an integer range",
     "--k --t --lhs --rhs", (("--n-from", {"type": int, "required": True}),
                             ("--n-to", {"type": int, "required": True}))),
    ("identity witness", _cmd_identity_witness, "verify through explicitly found designs",
     "--k --t", (("--n", {"type": int, "action": "append", "required": True,
                          "help": "ground-set size to test (repeatable)"}),
                 ("--budget", _SHARED["--budget"]))),
    ("oracle max-family", _cmd_oracle_max_family, "exact maximum t-intersecting family",
     "--n --k --t --budget", ()),
    ("oracle spectrum", _cmd_oracle_spectrum, "float spectrum of an algebra element",
     "--n --k", (("--coeffs", {"required": True,
                               "help": "comma-separated rationals c_0..c_k"}),)),
)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every row of _COMMANDS, or of the row whose words are
    ``only`` alone: the top level, its group and its own parser."""
    parser = argparse.ArgumentParser(
        prog="jshm",
        description="Exact certificates in the Johnson scheme: Wilson matrix, "
                    "design projections, intersecting-family bounds.",
    )
    # keyed by group, "" for the top level
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for words, func, help_text, shared, own in _COMMANDS:
        if only is not None and words != only:
            continue
        group, _, name = words.rpartition(" ")
        if group not in subparsers:
            subparsers[group] = subparsers[""].add_parser(
                group, help=_GROUPS[group]).add_subparsers(dest="subcommand", required=True)
        p = subparsers[group].add_parser(name, help=help_text)
        for flag in shared.split():
            p.add_argument(flag, **_SHARED[flag])
        for flag, spec in own:
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, byte for byte, from the one
    branch whose words begin argv; with no such row, or any argument left
    over, the whole tree parses again and writes argparse's own help or
    error."""
    words = next((words for words, *_ in _COMMANDS
                  if argv[:words.count(" ") + 1] == words.split()), None)
    if words is not None:
        args, rest = build_parser(words).parse_known_args(argv)
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except SizeBudgetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except (ValueError, ZeroDivisionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
