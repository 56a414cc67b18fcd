"""The operations of each workload, with the check for each output.

An operation is one call into jshm (or one CLI command) and a check of its
output against ``checks``.  Every round of a workload runs the same list of
operations in the same order; ``--seed`` only draws the random families
and the relabelled design files, so the amount of work does not depend on
it.  Operations look jshm functions up through their module at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import selectors
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import jshm.cli
from jshm import designs, identity, johnson, oracles, projection, subsets, wilson

import checks
from checks import expect

# Grids.  Ranges are inclusive; see README.md for the reasons behind each.
CERTIFY_K = range(2, 8)
CERTIFY_N_MAX = 20
IDENTITY_K = range(2, 8)
SEARCHES = [(21, 5, 2), (25, 5, 2), (14, 4, 3), (9, 3, 2), (10, 4, 3),
            (13, 4, 2), (15, 3, 2), (19, 3, 2)]
MAX_FAMILIES = [(12, 4, 2), (11, 5, 3), (10, 4, 2), (9, 4, 2), (8, 4, 2)]
STARS = [(20, 5, 2), (18, 6, 3), (16, 4, 1)]
RANDOM_FAMILIES = [(16, 5, 400), (14, 4, 300), (12, 6, 350), (15, 5, 370), (13, 5, 380)]
BRUTE_FAMILIES = [(10, 4, 60), (10, 3, 40), (8, 3, 20)]
SPECTRA = [(10, 4), (10, 3), (9, 4), (8, 3)]

CHILD_TIMEOUT_S = 60
FAULT_TIMEOUT_S = 30
FAULT_MEMORY_BYTES = 512 * 2**20


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` is timed, ``check`` is not."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    known_fault: bool = False
    search: tuple[int, int, int] | None = None


def _fractions(strings) -> list[Fraction]:
    return [Fraction(s) for s in strings]


# ---------------------------------------------------------------------------
# certify


def _check_certificate_doc(n, k, t, doc) -> None:
    checks.check_certificate(n, k, t, _fractions(doc["coeffs"]),
                             _fractions(doc["spectrum"]), doc["valid"],
                             doc["bound"], Fraction(doc["ratio"]))


def certify_ops(seed: int, workdir: str) -> list[Op]:
    ops = []
    for k in CERTIFY_K:
        for n in range(2 * k, CERTIFY_N_MAX + 1):
            for t in range(1, k):
                ops.append(Op(
                    f"ekr_certificate({n},{k},{t})",
                    lambda n=n, k=k, t=t: wilson.ekr_certificate(n, k, t),
                    lambda cert, n=n, k=k, t=t: _check_certificate_doc(n, k, t, cert.to_dict()),
                ))
    return ops


# ---------------------------------------------------------------------------
# identity


def _check_symbolic(k, t, lhs, rhs, report) -> None:
    h_values = {n: [f.evaluate(n) for f in report.h] for n in checks.sample_points(k)}
    checks.check_symbolic(k, t, lhs, rhs, report.equal, h_values, report.witness)


def _check_pointwise_doc(k, t, lhs, rhs, n_from, n_to, doc) -> None:
    failure = doc["first_failure"]
    if failure is not None:
        failure = (failure["n"], failure["r"], failure["lhs"], failure["rhs"])
    checks.check_pointwise(k, t, lhs, rhs, n_from, n_to, doc["equal"],
                           doc["points_checked"], doc["points_equal"],
                           doc["skipped_poles"], failure)


def identity_ops(seed: int, workdir: str) -> list[Op]:
    ops = []
    for k in IDENTITY_K:
        for t in range(1, k):
            for lhs in ("m", "m_plus_i"):
                for rhs in ("omega_literal", "omega_corrected", "nabla_corrected"):
                    ops.append(Op(
                        f"compare_symbolic({k},{t},{lhs},{rhs})",
                        lambda k=k, t=t, lhs=lhs, rhs=rhs:
                            identity.compare_symbolic(k, t, lhs, rhs),
                        lambda rep, k=k, t=t, lhs=lhs, rhs=rhs:
                            _check_symbolic(k, t, lhs, rhs, rep),
                    ))
            # odd t takes the equal pair, even t the unequal one, so both
            # verdicts of the pointwise route are checked
            rhs = "omega_corrected" if t % 2 else "omega_literal"
            lo, hi = 2 * k, 4 * k + 2
            ops.append(Op(
                f"compare_pointwise({k},{t},m,{rhs},{lo},{hi})",
                lambda k=k, t=t, rhs=rhs, lo=lo, hi=hi:
                    identity.compare_pointwise(k, t, "m", rhs, lo, hi),
                lambda rep, k=k, t=t, rhs=rhs, lo=lo, hi=hi:
                    _check_pointwise_doc(k, t, "m", rhs, lo, hi, rep.to_dict()),
            ))
    return ops


# ---------------------------------------------------------------------------
# combinatorial


def _search(n, k, t):
    outcome = designs.search_design(n, k, t)
    report = None
    if outcome.status == "found":
        report = designs.design_projection_report(outcome.design)
    return outcome, report


def _check_search(n, k, t, result) -> None:
    outcome, report = result
    expect(outcome.status == "found", f"S({t},{k},{n}): search {outcome.status}")
    doc = outcome.design.to_dict()
    expect(doc["lambda"] == 1, f"S({t},{k},{n}): lambda {doc['lambda']}")
    checks.check_steiner(n, k, t, doc["blocks"])
    rep = report.to_dict()
    expect(rep["verified"], f"S({t},{k},{n}): projection report not verified")
    checks.check_design_projection(n, k, t, rep["size"], _fractions(rep["projection"]))


def _check_max_family(n, k, t, result) -> None:
    doc = result.to_dict()
    checks.check_max_family(n, k, t, doc["size"], doc["optimal"], doc["blocks"])


def _check_star(n, k, t, report) -> None:
    doc = report.to_dict()
    coeffs = _fractions(doc["coeffs"])
    expect(doc["t_intersecting"] and doc["support_ok"], f"star({n},{k},{t}): lemma report")
    size = Fraction(doc["trace"])
    expect(size.denominator == 1, f"star({n},{k},{t}): trace {size}")
    checks.check_star_projection(n, k, t, int(size), coeffs)
    checks.check_projection_sums(n, k, int(size), coeffs)
    expect(Fraction(doc["elsm"]) == size * size, f"star({n},{k},{t}): elsm {doc['elsm']}")


def _random_blocks(rng: random.Random, n: int, k: int, size: int) -> list[list[int]]:
    pool = list(combinations(range(1, n + 1), k))
    return [list(b) for b in sorted(rng.sample(pool, size))]


def _random_coeffs(rng: random.Random, k: int) -> list[int]:
    return [rng.randint(-3, 3) for _ in range(k + 1)]


def _dense_spectrum(n, k, coeffs):
    v = johnson.BMVector(johnson.SchemeParams(n, k), tuple(Fraction(c) for c in coeffs))
    return oracles.float_spectrum(johnson.dense(v))


def combinatorial_ops(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n, k, t in SEARCHES:
        ops.append(Op(f"search_design({n},{k},{t})",
                      lambda n=n, k=k, t=t: _search(n, k, t),
                      lambda res, n=n, k=k, t=t: _check_search(n, k, t, res),
                      search=(n, k, t)))
    for n, k, t in MAX_FAMILIES:
        ops.append(Op(f"max_family({n},{k},{t})",
                      lambda n=n, k=k, t=t: oracles.max_family(n, k, t),
                      lambda res, n=n, k=k, t=t: _check_max_family(n, k, t, res)))
    for n, k, t in STARS:
        core = sorted(rng.sample(range(1, n + 1), t))
        ops.append(Op(f"family_lemma_report(star({n},{k},{core}),{t})",
                      lambda n=n, k=k, t=t, core=core: projection.family_lemma_report(
                          subsets.star_family(n, k, core), t),
                      lambda rep, n=n, k=k, t=t: _check_star(n, k, t, rep)))
    for n, k, size in RANDOM_FAMILIES:
        blocks = _random_blocks(rng, n, k, size)
        ops.append(Op(f"project_family(random({n},{k},{size}))",
                      lambda n=n, k=k, blocks=blocks: projection.project_family(
                          subsets.make_family(n, k, blocks)),
                      lambda v, n=n, k=k, size=size: checks.check_projection_sums(
                          n, k, size, v.coeffs)))
    for n, k, size in BRUTE_FAMILIES:
        blocks = _random_blocks(rng, n, k, size)
        ops.append(Op(f"brute_projection(random({n},{k},{size}))",
                      lambda n=n, k=k, blocks=blocks: oracles.brute_projection(
                          subsets.make_family(n, k, blocks)),
                      lambda v, n=n, k=k, size=size: checks.check_projection_sums(
                          n, k, size, v.coeffs)))
    for n, k in SPECTRA:
        coeffs = _random_coeffs(rng, k)
        ops.append(Op(f"float_spectrum({n},{k},{coeffs})",
                      lambda n=n, k=k, coeffs=coeffs: _dense_spectrum(n, k, coeffs),
                      lambda vals, n=n, k=k, coeffs=coeffs: checks.check_float_spectrum(
                          n, k, coeffs, vals)))
    return ops


# ---------------------------------------------------------------------------
# cli


@dataclass(frozen=True)
class CommandResult:
    code: int | None  # None: killed at the deadline
    stdout: str
    stderr: str
    maxrss_kb: int | None


def run_child(argv: list[str], timeout: float, limits=()) -> CommandResult:
    """Run ``python -m jshm argv`` and collect its output and peak RSS.

    The pipes are drained with a selector and the child is reaped with
    ``os.wait4``, which returns that child's own resource usage.  ``limits``
    are (resource, value) pairs set in the child before it starts.
    """
    def set_limits():
        for res, value in limits:
            resource.setrlimit(res, (value, value))

    proc = subprocess.Popen([sys.executable, "-m", "jshm", *argv],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE,
                            preexec_fn=set_limits if limits else None)
    chunks = {proc.stdout: [], proc.stderr: []}
    end = time.monotonic() + timeout
    killed = False
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                remaining = end - time.monotonic()
                if remaining <= 0:
                    killed = True
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    finally:
        if killed or sys.exc_info()[0] is not None:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return CommandResult(None if killed else proc.returncode,
                         b"".join(chunks[proc.stdout]).decode(),
                         b"".join(chunks[proc.stderr]).decode(),
                         usage.ru_maxrss)


def run_in_process(argv: list[str]) -> CommandResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = jshm.cli.main(argv)
    return CommandResult(code, out.getvalue(), err.getvalue(), None)


def _fano_blocks(rng: random.Random) -> list[list[int]]:
    """The Fano plane {i, i+1, i+3} mod 7 with its points relabelled."""
    perm = list(range(1, 8))
    rng.shuffle(perm)
    return [sorted(perm[(i + d) % 7] for d in (0, 1, 3)) for i in range(7)]


def _star_subfamily(rng: random.Random, n: int, k: int, t: int, size: int):
    core = rng.sample(range(1, n + 1), t)
    rest = [e for e in range(1, n + 1) if e not in core]
    extras = rng.sample(list(combinations(rest, k - t)), size)
    return [sorted(core + list(x)) for x in extras]


class CommandFailed(Exception):
    """A command ended with another exit code than the one documented."""


def _json_checker(expected_code: int, check_doc: Callable[[dict], None]):
    def check(res: CommandResult) -> None:
        if res.code != expected_code:
            tail = res.stderr.strip().splitlines()[-1:] or [""]
            raise CommandFailed(f"exit {res.code}, expected {expected_code}: {tail[0][:200]}")
        check_doc(json.loads(res.stdout))
    return check


def _check_scheme(n, k, doc) -> None:
    P = [_fractions(row) for row in doc["P"]]
    expect(P == [[checks.eberlein(n, k, j, i) for i in range(k + 1)] for j in range(k + 1)],
           f"scheme({n},{k}): P differs from the Eberlein table")
    expect(doc["m"] == checks.multiplicities(n, k), f"scheme({n},{k}): multiplicities")
    expect(_fractions(doc["theta1"]) == [row[1] for row in P], f"scheme({n},{k}): theta1")


def _check_prove_doc(k, t, lhs, rhs, doc) -> None:
    w = doc["witness"]
    witness = None if w is None else (w["r"], w["n"], Fraction(w["value"]))
    checks.check_symbolic(k, t, lhs, rhs, doc["equal"], None, witness)


def _check_witness_doc(ns, doc) -> None:
    statuses = {p["n"]: p["status"] for p in doc["points"]}
    expect(statuses == {n: "verified" for n in ns}, f"witness statuses {statuses}")


def _check_project_doc(n, k, size, doc) -> None:
    expect(doc["t_intersecting"] and doc["support_ok"], "project: lemma report")
    checks.check_projection_sums(n, k, size, _fractions(doc["coeffs"]))
    expect(Fraction(doc["trace"]) == size and Fraction(doc["elsm"]) == size * size,
           "project: trace/elsm fields")


def _check_design_doc(n, k, t, doc) -> None:
    expect((doc["n"], doc["k"], doc["t"], doc["lambda"]) == (n, k, t, 1),
           f"design doc {doc['n']},{doc['k']},{doc['t']},{doc['lambda']}")
    checks.check_steiner(n, k, t, doc["blocks"])


FAULT_COMMAND = ["wilson", "certify", "--n", "60", "--k", "10", "--t", "2"]


def cli_ops(seed: int, workdir: str, in_process: bool = False) -> list[Op]:
    """The README commands, one operation each, plus the known fault.

    ``in_process`` runs the README commands through ``jshm.cli.main`` in
    this process (the traced run); the known fault always runs as a child
    with a deadline and an address-space cap, since uncapped it would take
    the whole machine's memory.
    """
    rng = random.Random(seed)
    family_path = os.path.join(workdir, "family.json")
    design_path = os.path.join(workdir, "design.json")
    family = _star_subfamily(rng, 9, 3, 2, 5)
    fano = _fano_blocks(rng)
    with open(family_path, "w", encoding="utf-8") as fh:
        json.dump({"n": 9, "k": 3, "blocks": family}, fh)
    with open(design_path, "w", encoding="utf-8") as fh:
        json.dump({"n": 7, "k": 3, "blocks": fano}, fh)

    commands = [
        (["scheme", "--n", "5", "--k", "2"], 0, lambda d: _check_scheme(5, 2, d)),
        (["wilson", "omega", "--n", "7", "--k", "3", "--t", "2", "--variant", "literal"], 0,
         lambda d: expect(_fractions(d["coeffs"]) == checks.wilson_matrix(7, 3, 2, "literal"),
                          "omega literal coefficients")),
        (["wilson", "certify", "--n", "7", "--k", "3", "--t", "2"], 0,
         lambda d: _check_certificate_doc(7, 3, 2, d)),
        (["project", "--file", family_path, "--t", "2"], 0,
         lambda d: _check_project_doc(9, 3, len(family), d)),
        (["design", "verify", "--file", design_path, "--t", "2"], 0,
         lambda d: _check_design_doc(7, 3, 2, d)),
        (["design", "search", "--n", "9", "--k", "3", "--t", "2"], 0,
         lambda d: _check_design_doc(9, 3, 2, d)),
        (["design", "admissible", "--k", "3", "--t", "2", "--n-max", "20"], 0,
         lambda d: expect(d["admissible"] == [n for n in range(4, 21) if checks.admissible(n, 3, 2)],
                          f"admissible {d['admissible']}")),
        (["identity", "prove", "--k", "3", "--t", "2", "--rhs", "literal"], 1,
         lambda d: _check_prove_doc(3, 2, "m", "omega_literal", d)),
        (["identity", "pointwise", "--k", "3", "--t", "2", "--n-from", "7", "--n-to", "20"], 0,
         lambda d: _check_pointwise_doc(3, 2, "m", "omega_corrected", 7, 20, d)),
        (["identity", "witness", "--k", "3", "--t", "2", "--n", "7", "--n", "9"], 0,
         lambda d: _check_witness_doc([7, 9], d)),
        (["oracle", "max-family", "--n", "7", "--k", "3", "--t", "2"], 0,
         lambda d: checks.check_max_family(7, 3, 2, d["size"], d["optimal"], d["blocks"])),
        (["oracle", "spectrum", "--n", "5", "--k", "2", "--coeffs", "0,0,1"], 0,
         lambda d: checks.check_float_spectrum(5, 2, [0, 0, 1], d["spectrum"])),
    ]
    ops = []
    for argv, code, check_doc in commands:
        if in_process:
            run = lambda argv=argv: run_in_process(argv)
        else:
            run = lambda argv=argv: run_child(argv, CHILD_TIMEOUT_S)
        ops.append(Op("jshm " + " ".join(argv), run, _json_checker(code, check_doc)))
    limits = ((resource.RLIMIT_AS, FAULT_MEMORY_BYTES),
              (resource.RLIMIT_CPU, FAULT_TIMEOUT_S))
    ops.append(Op("jshm " + " ".join(FAULT_COMMAND),
                  lambda: run_child(FAULT_COMMAND, FAULT_TIMEOUT_S, limits),
                  _json_checker(0, lambda d: _check_certificate_doc(60, 10, 2, d)),
                  known_fault=True))
    return ops


WORKLOADS = {
    "certify": certify_ops,
    "identity": identity_ops,
    "combinatorial": combinatorial_ops,
    "cli": cli_ops,
}
