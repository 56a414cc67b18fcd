"""Start-up: each CLI command loads only the jshm modules it runs, and no
command loads ``dataclasses``; and the structure of the source: one raise of
``SizeBudgetError``, and one definition of each object."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jshm
from jshm import cli, wilson

from conftest import FANO_BLOCKS

SOURCE = Path(jshm.__file__).parent


def _module_level_imports(body):
    """The jshm modules a module imports when it is loaded: its top-level
    ``from .`` imports, also inside top-level ``if`` blocks other than
    ``if TYPE_CHECKING``, but not those inside functions."""
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.If) and not (
                isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
            yield from _module_level_imports(node.body + node.orelse)


@pytest.mark.parametrize("module,forbidden", [
    ("cli", {"designs", "identity", "oracles", "projection", "wilson"}),
    ("wilson", {"designs", "projection"}),
    ("oracles", {"designs", "projection"}),
])
def test_no_module_level_import(module, forbidden):
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    assert not set(_module_level_imports(tree.body)) & forbidden


def _imported_modules(tree):
    """Every jshm module a module imports anywhere, functions included:
    relative imports, ``from jshm import x``, ``from jshm.x import ...``
    and ``import jshm.x``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1:
                module = f"jshm.{module}".rstrip(".")
            if module == "jshm":
                yield from (alias.name for alias in node.names)
            elif module.startswith("jshm."):
                yield module[len("jshm."):]
        elif isinstance(node, ast.Import):
            yield from (alias.name[len("jshm."):] for alias in node.names
                        if alias.name.startswith("jshm."))


def test_oracles_never_on_the_main_route():
    # the brute-force references, the Eberlein table among them, are
    # imported by the oracle commands of cli and by nothing else; cli's
    # imports sit inside functions, so finding them shows the walk enters
    # function bodies
    importers = sorted(path.stem for path in SOURCE.glob("*.py")
                       if "oracles" in set(_imported_modules(
                           ast.parse(path.read_text(encoding="utf-8")))))
    assert importers == ["cli"]


def test_q_nu_only_on_the_identity_route():
    # the rational functions are imported by identity, and by exact.to_json
    # inside the function, for a value that is nothing else
    importers = sorted(path.stem for path in SOURCE.glob("*.py")
                       if "qnu" in set(_imported_modules(
                           ast.parse(path.read_text(encoding="utf-8")))))
    assert importers == ["exact", "identity"]


def _raises_in(body, scope, name):
    """(scope, line) of each ``raise name(...)`` or ``raise name``, scoped by
    the function that holds it."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises_in(node.body, node.name, name)
            continue
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == name:
                yield scope, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from _raises_in([child], scope, name)


def test_one_size_budget_refusal():
    # every bound is refused through subsets.refuse_above, one message form;
    # and the search reads its blocks back from its walk, not by unranking
    raises, functions = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        raises += [(path.stem, scope)
                   for scope, _ in _raises_in(tree.body, None, "SizeBudgetError")]
        functions |= {node.name for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert raises == [("subsets", "refuse_above")]
    assert not [name for name in functions if "unrank" in name]


def _names(tree):
    """Every identifier a module's code names, comments and strings aside:
    definitions, imported names, variables and attributes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _definitions(tree):
    """The names a module binds by def, class or assignment, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def test_one_definition_per_object():
    # W_a is built only by johnson.w_to_a and I only as basis_vector(p, 0);
    # the dense projection, and the colex masks that dense paths walk, live
    # beside the other oracles
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    assert {m for m, tree in trees.items() if "colex_masks" in set(_names(tree))} == {
        "johnson", "oracles"}
    defined = {m: set(_definitions(tree)) for m, tree in trees.items()}
    assert [m for m, names in defined.items() if "project_dense" in names] == ["oracles"]
    assert not [m for m, names in defined.items()
                if names & {"wilson_basis_vector", "identity_vector"}]
    # each side is reduced over Z[nu] only by identity, from the one
    # transcription of each formula over a binomial provider
    assert not [m for m, names in defined.items()
                if names & {"_omega_numerators_symbolic", "wilson_matrix_symbolic",
                            "design_matrix_symbolic", "numeric_side"}]


@pytest.mark.parametrize("module", ["designs", "wilson"])
def test_formulas_name_nothing_of_q_nu(module):
    # M and Omega are written in ring operations over a binomial provider,
    # so neither module names a rational function, its reduction or a Z[nu]
    # provider
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    assert not set(_names(tree)) & {"RationalFunction", "_reduced", "_pdivmod",
                                    "_linear_product", "binom_rf", "binom_zpoly"}


def test_variant_choices_match_wilson():
    assert cli.VARIANTS == wilson.VARIANTS


BASE = {"cli", "exact", "johnson", "subsets"}
DESIGN = BASE | {"designs", "projection"}

# The README commands of each command family and the jshm modules each loads.
FAMILIES = {
    "scheme": (BASE, [["scheme", "--n", "5", "--k", "2"]]),
    "wilson": (BASE | {"wilson"}, [
        ["wilson", "omega", "--n", "7", "--k", "3", "--t", "2", "--variant", "literal"],
        ["wilson", "certify", "--n", "7", "--k", "3", "--t", "2"],
    ]),
    "project": (BASE | {"projection"}, [["project", "--file", "{family}", "--t", "2"]]),
    "design": (DESIGN, [
        ["design", "verify", "--file", "{design}", "--t", "2"],
        ["design", "search", "--n", "9", "--k", "3", "--t", "2"],
        ["design", "admissible", "--k", "3", "--t", "2", "--n-max", "20"],
    ]),
    "oracle": (BASE | {"oracles"}, [
        ["oracle", "max-family", "--n", "7", "--k", "3", "--t", "2"],
        ["oracle", "spectrum", "--n", "5", "--k", "2", "--coeffs", "0,0,1"],
    ]),
    "identity": (DESIGN | {"identity", "qnu", "wilson"}, [
        ["identity", "prove", "--k", "3", "--t", "2", "--rhs", "literal"],
        ["identity", "pointwise", "--k", "3", "--t", "2", "--n-from", "7", "--n-to", "20"],
        ["identity", "witness", "--k", "3", "--t", "2", "--n", "7", "--n", "9"],
    ]),
}

# Runs each command through cli.main in turn and prints, after each, its
# exit code, the jshm modules loaded so far and whether dataclasses is.
CHILD = """
import contextlib, io, json, sys
from jshm import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    print(json.dumps([code, sorted(m[5:] for m in sys.modules if m.startswith("jshm.")),
                      "dataclasses" in sys.modules]))
"""


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_command_loads_only_its_modules(family, tmp_path):
    expected, commands = FAMILIES[family]
    files = {"family": tmp_path / "family.json", "design": tmp_path / "design.json"}
    files["family"].write_text(json.dumps(
        {"n": 9, "k": 3, "blocks": [[1, 2, 3], [1, 2, 4], [1, 2, 5]]}), encoding="utf-8")
    files["design"].write_text(json.dumps(
        {"n": 7, "k": 3, "blocks": FANO_BLOCKS}), encoding="utf-8")
    argvs = [[arg.format(**files) for arg in argv] for argv in commands]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
    )
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(lines) == len(argvs)
    for argv, (code, loaded, dataclasses_loaded) in zip(argvs, lines):
        assert code in (0, 1), argv
        assert set(loaded) == expected, argv
        assert not dataclasses_loaded, argv  # records are exact.Record
