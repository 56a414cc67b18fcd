"""Fuzz the CLI in-process: every argument vector and every family document
ends in a documented exit code, never in another exception.

Commands run through ``cli.main`` with generated argument vectors: known
and unknown subcommands, small integers, malformed tokens, and flags that
are missing, repeated or left without a value.  Integers stay at most 10
and budgets at most 1000, with ``JSHM_BUDGET`` at 1000 for commands whose
``--budget`` is missing, so every case is small.  ``project`` and ``design
verify`` also read generated family documents, valid or with one fault.
``main`` parses with the parser branch of the command that argv names, and
with the whole tree otherwise; every argument vector gets the same bytes
and exit code from both.
"""

import argparse
import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jshm import cli

from conftest import FANO_BLOCKS
from test_cli import PINNED, README_ARGV, pinned_output

MALFORMED = ["", "x", "1.5", "1e3", "0x10", "-", "--", "--n", " 3", "-0",
             "99999999999999999999999"]
WILD_INT = st.one_of(st.integers(-2, 10).map(str), st.sampled_from(MALFORMED))
WILD = {
    "--variant": st.sampled_from(["bogus", "", "Literal"]),
    "--lhs": st.sampled_from(["bogus", "m_plus_i"]),
    "--rhs": st.sampled_from(["bogus", "omega_literal"]),
    "--budget": st.one_of(st.integers(-2, 1000).map(str), st.sampled_from(MALFORMED)),
    "--coeffs": st.one_of(
        st.sampled_from(["1/0", "0,1/0,1", "1,,2", "1/2/3", "nan", "inf", "1e400",
                         "1e999999999", "0,1e999_999_999,0"]),
        st.lists(st.sampled_from(["0", "1", "-1", "1/2", "1/0", "x", "", " 2"]),
                 max_size=12).map(",".join)),
}
# coefficients beyond the float range, or whose matrix has eigenvalues there
HUGE_COEFFS = ["1e400", "-1e400", "1e308", "-1e308", "1e-400", "0", "1"]
FILE_DOCS = {
    "family.json": {"n": 9, "k": 3, "blocks": [[1, 2, 3], [1, 2, 4], [1, 2, 5]]},
    "fano.json": {"n": 7, "k": 3, "blocks": FANO_BLOCKS},
    "wide.json": {"n": 7, "k": 4, "blocks": [[1, 2, 3, 4], [1, 2, 3, 5]]},
    "empty.json": {"n": 6, "k": 2, "blocks": []},
    "out_of_range.json": {"n": 5, "k": 2, "blocks": [[1, 6]]},
    "wrong_size.json": {"n": 5, "k": 2, "blocks": [[1, 2, 3]]},
    "repeated.json": {"n": 5, "k": 2, "blocks": [[1, 2], [1, 2]]},
    "unsorted.json": {"n": 5, "k": 2, "blocks": [[2, 1]]},
    "zero_k.json": {"n": 3, "k": 0, "blocks": []},
    "strings.json": {"n": "7", "k": 3, "blocks": [["a", "b", "c"]]},
    "list.json": [1, 2, 3],
}
RAW_FILES = {"not_json.json": "{\"n\": 7,", "blank.json": ""}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, doc in FILE_DOCS.items():
        (root / name).write_text(json.dumps(doc), encoding="utf-8")
    for name, text in RAW_FILES.items():
        (root / name).write_text(text, encoding="utf-8")
    return [str(root / name) for name in [*FILE_DOCS, *RAW_FILES]] + [
        str(root / "missing.json"), str(root), ""]


COMMANDS = [
    (("scheme",), ["--n", "--k"]),
    (("wilson", "omega"), ["--n", "--k", "--t", "--variant"]),
    (("wilson", "certify"), ["--n", "--k", "--t", "--variant"]),
    (("project",), ["--file", "--t"]),
    (("design", "verify"), ["--file", "--t"]),
    (("design", "search"), ["--n", "--k", "--t", "--budget"]),
    (("design", "admissible"), ["--k", "--t", "--n"]),
    (("design", "admissible"), ["--k", "--t", "--n-max"]),
    (("identity", "prove"), ["--k", "--t", "--lhs", "--rhs"]),
    (("identity", "pointwise"), ["--k", "--t", "--lhs", "--rhs", "--n-from", "--n-to"]),
    (("identity", "witness"), ["--k", "--t", "--n", "--budget"]),
    (("oracle", "max-family"), ["--n", "--k", "--t", "--budget"]),
    (("oracle", "spectrum"), ["--n", "--k", "--coeffs"]),
]


def strict_json(text):
    """Parse JSON, refusing the NaN and Infinity that json.dumps can write."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _rarely(odds):
    # sampled_from draws uniformly; integers would favour their bounds
    return st.sampled_from([True] + [False] * (odds - 1))


@st.composite
def argvs(draw, paths, command, flags, clean=False):
    """A command with plausible values for its flags (1 <= t < k <= n/2,
    n <= 10), then, unless ``clean``, mangled: now and then a wild value, a
    missing or repeated flag, a flag without its value, a wrong subcommand,
    an extra token."""
    n = draw(st.integers(4, 10))
    k = draw(st.integers(2, n // 2))
    t = draw(st.integers(1, k - 1))
    plausible = {
        "--n": st.just(n), "--k": st.just(k), "--t": st.just(t), "--n-max": st.just(n),
        "--n-from": st.just(n), "--n-to": st.integers(n, 10),
        "--variant": st.sampled_from(["literal", "corrected"]),
        "--lhs": st.sampled_from(["m", "m-plus-i"]),
        "--rhs": st.sampled_from(["literal", "corrected", "nabla"]),
        "--budget": st.integers(0, 1000),
        # the program parses these, not argparse: a third are of the wrong
        # form and a third are beyond the float range
        "--coeffs": st.one_of(*[st.lists(st.sampled_from(entries), min_size=k + 1,
                                         max_size=k + 1).map(",".join)
                                for entries in (["0", "1", "-2", "1/3"], HUGE_COEFFS)],
                              WILD["--coeffs"]),
        "--file": st.sampled_from(paths),
    }
    head = list(command)
    mangle = "none" if clean else draw(st.sampled_from(["none"] * 18 + ["drop", "unknown"]))
    if mangle == "drop":
        head = head[:-1]
    elif mangle == "unknown":
        head[-1] = draw(st.sampled_from(["bogus", "", "-x", command[-1].upper()]))
    tokens = []
    for name in flags:
        for _ in range(1 if clean else draw(st.sampled_from([1] * 20 + [0, 2]))):
            if not clean and draw(_rarely(40)):
                tokens.append([name])
                continue
            wild = not clean and draw(_rarely(10))
            value = draw(WILD.get(name, WILD_INT) if wild else plausible[name])
            tokens.append([name, str(value)])
    if not clean and draw(_rarely(10)):
        tokens.append([draw(st.sampled_from(["--bogus", "-h", "7", "--n="]))])
    return head + [token for group in draw(st.permutations(tokens)) for token in group]


def run_main(argv, whole_tree=False):
    """(exit code, stdout, stderr) of ``cli.main(argv)``, argparse's exits
    included; ``whole_tree`` makes main parse every argv with the whole
    tree's ``parse_args``."""
    build = cli.build_parser
    tree = (mock.patch.object(cli, "_parse_args", lambda argv: build().parse_args(argv))
            if whole_tree else contextlib.nullcontext())
    out, err = io.StringIO(), io.StringIO()
    with tree, mock.patch.dict(os.environ, {"JSHM_BUDGET": "1000", "COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command,flags", COMMANDS, ids=["-".join(c) for c, _ in COMMANDS])
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_argument_vector_ends_in_a_documented_exit(files, command, flags, data):
    argv = data.draw(argvs(files, command, flags), label="argv")
    code, out, err = run_main(argv)  # argparse exits 2 for a usage error, 0 for -h
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err
    if code in (0, 1) and out and "-h" not in argv:
        strict_json(out)


@pytest.mark.parametrize("command,flags", COMMANDS, ids=["-".join(c) for c, _ in COMMANDS])
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_branch_parses_as_the_whole_tree(files, command, flags, data):
    # half the vectors are clean, so valid commands are run as well as help
    # and usage errors
    clean = data.draw(st.booleans(), label="clean")
    argv = data.draw(argvs(files, command, flags, clean), label="argv")
    assert run_main(argv) == run_main(argv, whole_tree=True), argv


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["wilson"], ["wilson", "-h"], ["-h", "scheme"],
    ["--n", "5", "scheme"], ["scheme"], ["scheme", "-h"], ["scheme", "--n", "5"],
    ["scheme", "--n", "5", "--k", "2", "extra"], ["scheme", "--n", "5", "--k", "2", "--"],
    ["scheme", "--n", "x", "--k", "2", "--bogus"], ["wilson", "omega", "certify"],
    ["identity", "witness", "--k", "3", "--t", "2", "--n", "7", "--n"],
    ["oracle", "spectrum", "--n", "5", "--k", "2", "--coeffs", "-1,0,1"],
], ids=" ".join)
def test_edge_vectors_parse_as_the_whole_tree(argv):
    assert run_main(argv) == run_main(argv, whole_tree=True)


@pytest.mark.parametrize("argv", README_ARGV)
def test_a_command_builds_only_its_parsers(argv, tmp_path, monkeypatch):
    # the top level, its group (if any) and its own: 2 or 3 of the 17
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert pinned_output(argv, tmp_path) == PINNED[argv]
    words = next(row[0] for row in cli._COMMANDS if argv.startswith(row[0] + " "))
    assert len(built) == len(words.split()) + 1


NOT_INT = st.sampled_from([1.0, "1", True, False, None, [1]])
DOCUMENT_FAULTS = ["not-object", "missing-key", "not-int", "blocks-not-list",
                   "n-not-positive", "k-above-n", "huge-n"]
BLOCK_FAULTS = ["nested", "ragged", "out-of-range", "bad-element", "repeated-element",
                "repeated-block"]


@st.composite
def family_docs(draw, fault):
    """A family document (n <= 12, at most 30 blocks in any order) given the
    named fault, and a strength t from -1 to k + 1."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n))
    block = st.permutations(range(1, n + 1)).map(lambda p: p[:k])
    blocks = draw(st.lists(block, min_size=fault in BLOCK_FAULTS, max_size=30,
                           unique_by=lambda b: tuple(sorted(b))))
    doc = {"n": n, "k": k, "blocks": blocks}
    t = draw(st.integers(-1, k + 1))
    if fault == "not-object":
        return draw(st.sampled_from([[], [doc], 7, "x", None])), t
    if fault == "missing-key":
        del doc[draw(st.sampled_from(["n", "k", "blocks"]))]
    elif fault == "not-int":
        doc[draw(st.sampled_from(["n", "k"]))] = draw(NOT_INT)
    elif fault == "blocks-not-list":
        doc["blocks"] = draw(st.sampled_from([{"a": 1}, "x", 3, None]))
    elif fault == "n-not-positive":
        doc["n"] = draw(st.integers(-3, 0))
    elif fault == "k-above-n":
        doc["k"] = n + draw(st.integers(1, 3))
    elif fault == "huge-n":
        doc["n"] = 10**30
    elif fault in BLOCK_FAULTS:
        b = blocks[draw(st.integers(0, len(blocks) - 1))]
        i = draw(st.integers(0, k - 1))
        if fault == "nested":
            b[i] = [b[i]]
        elif fault == "ragged" and draw(st.booleans()):
            b.append(b[0])
        elif fault == "ragged":
            b.pop()
        elif fault == "out-of-range":
            b[i] = draw(st.sampled_from([0, -1, n + 1, 10**30]))
        elif fault == "bad-element":
            b[i] = draw(NOT_INT)
        elif fault == "repeated-element":
            b[i] = b[i - 1] if k > 1 else 0
        else:
            blocks.append(b[::-1])
    return doc, t


@pytest.mark.parametrize("fault", ["none", *DOCUMENT_FAULTS, *BLOCK_FAULTS])
@pytest.mark.parametrize("command", [["project"], ["design", "verify"]], ids="-".join)
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_family_document_ends_in_a_documented_exit(tmp_path_factory, command,
                                                         fault, data):
    doc, t = data.draw(family_docs(fault), label="document, t")
    path = tmp_path_factory.getbasetemp() / "fuzz_family.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*command, "--file", str(path), "--t", str(t)])
    assert code in (0, 1, 2, 3), (doc, t, code)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        strict_json(out.getvalue())
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
