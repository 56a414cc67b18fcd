import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import jshm
from jshm import identity, projection
from jshm.cli import main
from jshm.designs import SearchOutcome, verify_design
from jshm.subsets import family_from_dict, family_to_dict

from conftest import FANO_BLOCKS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.out


def write_family(tmp_path, n, k, blocks, name="family.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "k": k, "blocks": blocks}),
                    encoding="utf-8")
    return str(path)


class TestScheme:
    def test_petersen_table(self, capsys):
        code, payload, _ = run_cli(capsys, "scheme", "--n", "5", "--k", "2")
        assert code == 0
        assert payload["P"] == [["1", "6", "3"], ["1", "1", "-2"], ["1", "-2", "1"]]
        assert payload["theta1"] == ["6", "1", "-2"]
        assert payload["m"] == [1, 4, 5]

    def test_multiplicities_7_3(self, capsys):
        code, payload, _ = run_cli(capsys, "scheme", "--n", "7", "--k", "3")
        assert code == 0
        assert payload["m"] == [1, 6, 14, 14]

    def test_rejects_large_k(self, capsys):
        code, payload, _ = run_cli(capsys, "scheme", "--n", "3", "--k", "2")
        assert code == 2
        assert payload is None


class TestWilson:
    def test_omega_corrected(self, capsys):
        code, payload, _ = run_cli(capsys, "wilson", "omega",
                                   "--n", "7", "--k", "3", "--t", "2")
        assert code == 0
        assert payload == {"n": 7, "k": 3, "coeffs": ["0", "0", "1/3", "0"]}

    def test_omega_literal(self, capsys):
        code, payload, _ = run_cli(capsys, "wilson", "omega",
                                   "--n", "7", "--k", "3", "--t", "2",
                                   "--variant", "literal")
        assert code == 0
        assert payload["coeffs"] == ["0", "0", "1/3", "1/3"]

    def test_certify_valid(self, capsys):
        code, payload, _ = run_cli(capsys, "wilson", "certify",
                                   "--n", "7", "--k", "3", "--t", "2")
        assert code == 0
        assert payload["valid"] is True
        assert payload["bound"] == 5
        assert payload["ratio"] == "7"

    def test_certify_below_regime_fails(self, capsys):
        code, payload, _ = run_cli(capsys, "wilson", "certify",
                                   "--n", "8", "--k", "4", "--t", "2")
        assert code == 1
        assert payload["valid"] is False
        assert payload["regime_ok"] is False

    def test_certify_invalid_params(self, capsys):
        code, _, _ = run_cli(capsys, "wilson", "certify",
                             "--n", "5", "--k", "3", "--t", "1")
        assert code == 2

    def test_certify_past_the_enumeration_cap(self, capsys):
        # C(60,10) ~ 7.5e10 subsets, but the closed-form table enumerates none
        code, payload, _ = run_cli(capsys, "wilson", "certify",
                                   "--n", "60", "--k", "10", "--t", "2")
        assert code == 0
        assert payload["valid"] is True
        assert payload["bound"] == 1916797311
        assert payload["min_eigenvalue"] == "0"

    def test_certify_refuses_huge_enumeration(self, capsys):
        # above the table bound, the dense budget or the enumeration cap:
        # refused before the work starts, exit 3 with nothing on stdout
        for argv in (
            ["wilson", "certify", "--n", "1000", "--k", "65", "--t", "2"],
            ["wilson", "certify", "--n", str(2**64), "--k", "3", "--t", "2"],
            ["oracle", "max-family", "--n", "60", "--k", "10", "--t", "2"],
            ["oracle", "spectrum", "--n", "60", "--k", "10",
             "--coeffs", ",".join(["1"] * 11)],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 3, argv
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert "exceeds the bound" in captured.err, argv
            assert "Traceback" not in captured.err


class TestProject:
    def test_star_verifies(self, capsys, tmp_path):
        path = write_family(tmp_path, 7, 3,
                            [[1, 2, x] for x in range(3, 8)])
        code, payload, _ = run_cli(capsys, "project", "--file", path, "--t", "2")
        assert code == 0
        assert payload["t_intersecting"] is True
        assert payload["support_ok"] is True
        assert payload["trace"] == "5"
        assert payload["elsm"] == "25"

    def test_non_intersecting_family(self, capsys, tmp_path):
        path = write_family(tmp_path, 7, 3, [[1, 2, 3], [4, 5, 6]])
        code, payload, _ = run_cli(capsys, "project", "--file", path, "--t", "1")
        assert code == 1
        assert payload["t_intersecting"] is False

    def test_more_than_half_the_points(self, capsys, tmp_path):
        # 2k > n: the classes beyond n - k are empty, not a division by zero
        path = write_family(tmp_path, 7, 4, [[1, 2, 3, 4], [1, 2, 3, 5]])
        code, payload, _ = run_cli(capsys, "project", "--file", path, "--t", "3")
        assert code == 0
        assert payload["coeffs"] == ["2/35", "1/210", "0", "0", "0"]
        assert payload["trace"] == "2" and payload["elsm"] == "4"
        code, payload, _ = run_cli(capsys, "project", "--file", path, "--t", "4")
        assert code == 1 and payload["support_ok"] is False

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        # JSON booleans must not pass as the integers 0 and 1
        for text in ["{not json",
                     '{"n": true, "k": true, "blocks": [[true]]}',
                     '{"n": 7, "k": true, "blocks": [[1]]}',
                     '{"n": 7, "k": 1, "blocks": [[true]]}']:
            path.write_text(text, encoding="utf-8")
            for command in (["project"], ["design", "verify"]):
                code, _, out = run_cli(capsys, *command, "--file", str(path), "--t", "1")
                assert (code, out) == (2, ""), (text, command)

    def test_nesting_too_deep_to_decode(self, tmp_path):
        # the decoder recurses once per level, so this is invalid input, not
        # a crash with the "verification failed" exit code
        src = os.path.dirname(os.path.dirname(jshm.__file__))
        depth = 100_000
        for name, text in [("bare", "[" * depth),
                           ("blocks", '{"n": 5, "k": 2, "blocks": ' + "[" * depth + "}")]:
            path = tmp_path / f"{name}.json"
            path.write_text(text, encoding="utf-8")
            for command in (["project"], ["design", "verify"]):
                proc = subprocess.run(
                    [sys.executable, "-m", "jshm", *command, "--file", str(path), "--t", "1"],
                    capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                )
                assert (proc.returncode, proc.stdout) == (2, ""), (name, command)
                assert "Traceback" not in proc.stderr
                assert proc.stderr.count("\n") == 1 and "nested too deeply" in proc.stderr

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "project", "--file", "/nonexistent.json",
                             "--t", "1")
        assert code == 2

    def test_beyond_the_table_bound(self, capsys, tmp_path):
        # a projection's cost grows about as k^2.7, so k above the table
        # bound is refused before the pair distribution is counted
        path = write_family(tmp_path, 10**30, 65, [list(range(1, 66))])
        start = time.perf_counter()
        code, _, out = run_cli(capsys, "project", "--file", path, "--t", "1")
        assert (code, out) == (3, "")
        assert time.perf_counter() - start < 0.5

    def test_count_bound(self, capsys, monkeypatch, tmp_path):
        # five blocks of the walk, 25 units: refused below, before counting
        path = write_family(tmp_path, 7, 3, [[1, 2, x] for x in range(3, 8)])
        monkeypatch.setattr(projection, "MAX_COUNT_WORK", 24)
        code = main(["project", "--file", path, "--t", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "count bound" in captured.err and "exceeds the bound" in captured.err

    def test_answer_needs_no_pair_walk(self, capsys, monkeypatch, tmp_path):
        # the counts take 240 units; naming the first violating pair would
        # walk 434 pairs, which project does not do
        blocks = [[1, 4, c] for c in range(2, 31) if c != 4] + [[1, 2, 3], [4, 5, 6]]
        path = write_family(tmp_path, 30, 3, blocks)
        monkeypatch.setattr(projection, "MAX_COUNT_WORK", 433)
        code = main(["project", "--file", path, "--t", "1"])
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)
        assert payload["t_intersecting"] is False and payload["support_ok"] is False
        assert payload["trace"] == "30" and payload["elsm"] == "900"
        assert captured.err == "family of 30 blocks: not verified at t=1\n"


class TestWitnessStatuses:
    """The statuses of identity witness that no real search reaches at small n."""

    def witness(self, capsys, *ns):
        argv = ["identity", "witness", "--k", "3", "--t", "2"]
        for n in ns:
            argv += ["--n", str(n)]
        code, payload, _ = run_cli(capsys, *argv)
        return code, [(p["n"], p["status"], p["detail"], p["nodes"])
                      for p in payload["points"]]

    def test_every_point_not_found(self, capsys, monkeypatch):
        monkeypatch.setattr(identity, "search_design",
                            lambda n, k, t, budget: SearchOutcome("not-found", None, 17))
        code, points = self.witness(capsys, 7, 9)
        assert code == 1
        assert points == [(n, "not-found", "exhaustive search found no design", 17)
                          for n in (7, 9)]

    def test_failed_projection_beside_unverified(self, capsys, monkeypatch):
        search = identity.search_design
        monkeypatch.setattr(identity, "search_design", lambda n, k, t, budget: (
            search(n, k, t, budget) if n == 7
            else SearchOutcome("budget-exhausted", None, budget)))
        monkeypatch.setattr(identity, "design_projection_report",
                            lambda design: SimpleNamespace(verified=False))
        code, points = self.witness(capsys, 7, 9)
        assert code == 1
        assert points[0][:3] == (7, "failed", "design projection identity failed")
        assert points[1][:3] == (9, "unverified", "search budget exhausted")

    def test_failed_matrices(self, capsys, monkeypatch):
        side = identity.numeric_side
        monkeypatch.setattr(identity, "numeric_side", lambda name, n, k, t: (
            side("omega_literal", n, k, t) if name == "m" else side(name, n, k, t)))
        code, points = self.witness(capsys, 7)
        assert code == 1
        assert points[0][:3] == (
            7, "failed", "design matrix differs from the corrected Wilson matrix")


class TestDesign:
    def test_verify_fano(self, capsys, tmp_path):
        path = write_family(tmp_path, 7, 3, FANO_BLOCKS)
        code, payload, _ = run_cli(capsys, "design", "verify",
                                   "--file", path, "--t", "2")
        assert code == 0
        assert payload["lambda"] == 1
        assert payload["t"] == 2

    def test_verify_failure_has_witness(self, capsys, tmp_path):
        path = write_family(tmp_path, 7, 3, FANO_BLOCKS[1:])
        code, payload, _ = run_cli(capsys, "design", "verify",
                                   "--file", path, "--t", "2")
        assert code == 1
        assert payload["lambda"] is None
        assert len(payload["witness"]["subset"]) == 2

    def test_search_finds_fano_parameters(self, capsys):
        code, payload, _ = run_cli(capsys, "design", "search",
                                   "--n", "7", "--k", "3", "--t", "2")
        assert code == 0
        assert len(payload["blocks"]) == 7
        assert payload["lambda"] == 1
        # output re-verifies through the documented family format
        fam = family_from_dict({k: payload[k] for k in ("n", "k", "blocks")})
        assert verify_design(fam, 2) == 1

    def test_search_budget_exhausted(self, capsys):
        code, payload, _ = run_cli(capsys, "design", "search",
                                   "--n", "9", "--k", "3", "--t", "2",
                                   "--budget", "2")
        assert code == 3
        assert payload["found"] is False and payload["exhausted"] is False

    def test_search_exhaustive_absence(self, capsys):
        code, payload, _ = run_cli(capsys, "design", "search",
                                   "--n", "8", "--k", "3", "--t", "2")
        assert code == 1
        assert payload["found"] is False and payload["exhausted"] is True

    def test_admissible_single(self, capsys):
        code, payload, _ = run_cli(capsys, "design", "admissible",
                                   "--k", "3", "--t", "2", "--n", "8")
        assert code == 0
        assert payload["admissible"] is False

    def test_admissible_range(self, capsys):
        code, payload, _ = run_cli(capsys, "design", "admissible",
                                   "--k", "3", "--t", "2", "--n-max", "20")
        assert code == 0
        assert payload["admissible"] == [7, 9, 13, 15, 19]

    def test_admissible_flag_validation(self, capsys):
        code, _, _ = run_cli(capsys, "design", "admissible",
                             "--k", "3", "--t", "2")
        assert code == 2

    def test_unbounded_inputs_are_refused(self, capsys, tmp_path):
        # the search ran out of memory enumerating rows, and the other three
        # ran without bound; now each exits 3 at once
        path = write_family(tmp_path, 3000, 1500, [list(range(1, 1501))])
        for argv in (
            ["design", "search", "--n", "60", "--k", "10", "--t", "2"],
            ["design", "admissible", "--k", "3", "--t", "2",
             "--n-max", "10000000000"],
            ["design", "admissible", "--k", "1000000", "--t", "999999",
             "--n", "10000000"],
            ["design", "verify", "--file", path, "--t", "3"],
        ):
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
            captured = capsys.readouterr()
            assert code == 3, argv
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert "exceeds the bound" in captured.err, argv
            assert "Traceback" not in captured.err
            assert elapsed < 0.5, argv

    def test_verify_huge_ground_set(self, capsys, tmp_path):
        # at t = 0 the ground set of 10**30 points was built as a tuple and
        # raised OverflowError; at t = 1 its C(n,1) points were refused, and
        # now the walk stops at the first point covered once, not twice
        path = write_family(tmp_path, 10**30, 2, [[1, 2], [1, 3]])
        code, payload, _ = run_cli(capsys, "design", "verify", "--file", path, "--t", "0")
        assert code == 0 and payload["lambda"] == 2
        code, payload, _ = run_cli(capsys, "design", "verify", "--file", path, "--t", "1")
        assert code == 1 and payload["lambda"] is None
        assert payload["witness"] == {"subset": [2], "count": 1, "expected": 2}


class TestIdentity:
    def test_prove_corrected(self, capsys):
        code, payload, _ = run_cli(capsys, "identity", "prove",
                                   "--k", "3", "--t", "2")
        assert code == 0
        assert payload["equal"] is True
        assert payload["rhs"] == "omega_corrected"

    def test_prove_literal_fails_with_witness(self, capsys):
        code, payload, _ = run_cli(capsys, "identity", "prove",
                                   "--k", "3", "--t", "2", "--rhs", "literal")
        assert code == 1
        assert payload["equal"] is False
        assert payload["witness"]["r"] == 3
        assert payload["witness"]["n"] == 7
        assert payload["witness"]["value"] == "-1/3"

    def test_prove_nabla_with_shifted_lhs(self, capsys):
        code, payload, _ = run_cli(capsys, "identity", "prove",
                                   "--k", "3", "--t", "2",
                                   "--lhs", "m-plus-i", "--rhs", "nabla")
        assert code == 0
        assert payload["equal"] is True

    def test_pointwise(self, capsys):
        code, payload, _ = run_cli(capsys, "identity", "pointwise",
                                   "--k", "3", "--t", "2",
                                   "--n-from", "7", "--n-to", "20")
        assert code == 0
        assert payload["points_equal"] == 14

    def test_witness(self, capsys):
        code, payload, _ = run_cli(capsys, "identity", "witness",
                                   "--k", "3", "--t", "2",
                                   "--n", "7", "--n", "8", "--n", "9")
        assert code == 0
        statuses = {p["n"]: p["status"] for p in payload["points"]}
        assert statuses == {7: "verified", 8: "inadmissible", 9: "verified"}

    def test_witness_budget(self, capsys):
        code, payload, _ = run_cli(capsys, "identity", "witness",
                                   "--k", "3", "--t", "2", "--n", "9",
                                   "--budget", "2")
        assert code == 3
        assert payload["points"][0]["status"] == "unverified"

    def test_unbounded_inputs_are_refused(self, capsys):
        # each of these used to run without bound; now exit 3 at once
        for argv in (
            ["identity", "prove", "--k", "60", "--t", "30"],
            ["identity", "pointwise", "--k", "3", "--t", "2",
             "--n-from", "7", "--n-to", "100000000"],
            ["wilson", "omega", "--n", "10000000", "--k", "1000000",
             "--t", "999999"],
        ):
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
            captured = capsys.readouterr()
            assert code == 3, argv
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert "exceeds the bound" in captured.err, argv
            assert "Traceback" not in captured.err
            assert elapsed < 0.5, argv


class TestOracle:
    def test_max_family(self, capsys):
        code, payload, _ = run_cli(capsys, "oracle", "max-family",
                                   "--n", "6", "--k", "3", "--t", "2")
        assert code == 0
        assert payload["size"] == 4 and payload["optimal"] is True

    def test_max_family_budget(self, capsys):
        code, payload, _ = run_cli(capsys, "oracle", "max-family",
                                   "--n", "8", "--k", "3", "--t", "1",
                                   "--budget", "3")
        assert code == 3
        assert payload["optimal"] is False

    def test_max_family_deeper_than_the_recursion_limit(self, capsys):
        # every pair of 11-subsets of 15 points meets in at least 7, so the
        # whole vertex set is one clique of 1365 > sys.getrecursionlimit()
        code, payload, _ = run_cli(capsys, "oracle", "max-family",
                                   "--n", "15", "--k", "11", "--t", "7")
        assert code == 0
        assert payload["size"] == len(payload["blocks"]) == 1365
        assert payload["nodes"] == 1365 and payload["optimal"] is True

    def test_spectrum(self, capsys):
        code, payload, _ = run_cli(capsys, "oracle", "spectrum",
                                   "--n", "5", "--k", "2",
                                   "--coeffs", "0,0,1")
        assert code == 0
        assert payload["spectrum"][0] == pytest.approx(3.0, abs=1e-8)

    @pytest.mark.parametrize("coeffs", ["0,1/0,1", "0,x,1", "0,1", ""])
    def test_spectrum_malformed_coefficients(self, capsys, coeffs):
        code, payload, _ = run_cli(capsys, "oracle", "spectrum", "--n", "5", "--k", "2",
                                   "--coeffs", coeffs)
        assert code == 2 and payload is None

    @pytest.mark.parametrize("coeffs", ["1e400,0,0", "1e308,1e308,1e308"])
    def test_spectrum_beyond_the_float_range(self, capsys, coeffs):
        # the first died with an OverflowError, the second printed Infinity
        code = main(["oracle", "spectrum", "--n", "5", "--k", "2", "--coeffs", coeffs])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "finite float" in captured.err

    @pytest.mark.parametrize("coeffs", ["1e999999999,0,0", "0,-1E+999_999_999,0",
                                        "0,0,1e-999999999"])
    def test_spectrum_huge_exponent(self, capsys, coeffs):
        # Fraction alone would build the integer 10**999999999, about 415 MB
        start = time.perf_counter()
        code = main(["oracle", "spectrum", "--n", "5", "--k", "2", "--coeffs", coeffs])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "decimal exponent" in captured.err


class TestDeterminismAndEnv:
    @pytest.mark.parametrize("argv", [
        ("scheme", "--n", "7", "--k", "3"),
        ("wilson", "certify", "--n", "7", "--k", "3", "--t", "2"),
        ("design", "search", "--n", "9", "--k", "3", "--t", "2"),
        ("oracle", "max-family", "--n", "7", "--k", "3", "--t", "2"),
        ("identity", "prove", "--k", "4", "--t", "2"),
    ])
    def test_byte_identical_output(self, capsys, argv):
        code1, _, out1 = run_cli(capsys, *argv)
        code2, _, out2 = run_cli(capsys, *argv)
        assert code1 == code2
        assert out1 == out2

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("JSHM_BUDGET", "2")
        code, payload, _ = run_cli(capsys, "design", "search",
                                   "--n", "9", "--k", "3", "--t", "2")
        assert code == 3

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("JSHM_BUDGET", "2")
        code, _, _ = run_cli(capsys, "design", "search",
                             "--n", "9", "--k", "3", "--t", "2",
                             "--budget", "100000")
        assert code == 0

    def test_bad_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("JSHM_BUDGET", "soon")
        code, _, _ = run_cli(capsys, "design", "search",
                             "--n", "9", "--k", "3", "--t", "2")
        assert code == 2

    def test_negative_budget_is_invalid(self, capsys, monkeypatch):
        # a negative budget used to run one node and exit 3, "budget exhausted"
        search = ["design", "search", "--n", "9", "--k", "3", "--t", "2"]
        for argv in (search,
                     ["identity", "witness", "--k", "3", "--t", "2", "--n", "7"],
                     ["oracle", "max-family", "--n", "7", "--k", "3", "--t", "2"]):
            for budget in ("-1", "-5"):
                monkeypatch.delenv("JSHM_BUDGET", raising=False)
                flagged = main(argv + ["--budget", budget])
                from_flag = capsys.readouterr()
                monkeypatch.setenv("JSHM_BUDGET", budget)
                from_env = main(argv)
                for code, captured in ((flagged, from_flag),
                                       (from_env, capsys.readouterr())):
                    assert code == 2, (argv, budget)
                    assert captured.out == ""
                    assert captured.err.startswith("error: ")
                    assert "Traceback" not in captured.err
        # budget 0 stays valid: the search stops at its first node
        monkeypatch.delenv("JSHM_BUDGET")
        code, payload, _ = run_cli(capsys, *search, "--budget", "0")
        assert code == 3 and payload["nodes"] == 1

    def test_family_roundtrip_through_documented_format(self, capsys, tmp_path):
        code, payload, _ = run_cli(capsys, "design", "search",
                                   "--n", "7", "--k", "3", "--t", "2")
        fam = family_from_dict({k: payload[k] for k in ("n", "k", "blocks")})
        assert family_to_dict(fam) == {k: payload[k] for k in ("n", "k", "blocks")}


def test_import_does_not_load_numpy():
    # numpy is deferred to the float oracle, so CLI start-up does not pay for it
    src = os.path.dirname(os.path.dirname(jshm.__file__))
    subprocess.run(
        [sys.executable, "-c", "import jshm.cli, sys; assert 'numpy' not in sys.modules"],
        check=True, env={**os.environ, "PYTHONPATH": src},
    )


# Outputs pinned as they were before a block became a plain sorted tuple:
# each argv maps to its exit code, the first 16 hex digits of the sha256 of
# its stdout, and the first line of its stderr.  "@name" stands for a file
# holding PINNED_DOCS[name].  The README commands read @family and @design.
PINNED_DOCS = {
    "family": {"n": 7, "k": 3, "blocks": [[1, 2, x] for x in range(3, 8)]},
    "design": {"n": 7, "k": 3, "blocks": FANO_BLOCKS},
    "apart": {"n": 7, "k": 3, "blocks": [[1, 2, 3], [4, 5, 6]]},
    "wide": {"n": 7, "k": 4, "blocks": [[1, 2, 3, 4], [1, 2, 3, 5]]},
    "unsorted": {"n": 7, "k": 3, "blocks": [[3, 2, 1], [7, 1, 5], [6, 4, 1]]},
    "empty": {"n": 6, "k": 2, "blocks": []},
    "out_of_range": {"n": 5, "k": 2, "blocks": [[1, 2], [1, 6]]},
    "zero_element": {"n": 5, "k": 2, "blocks": [[0, 1]]},
    "repeated_element": {"n": 5, "k": 3, "blocks": [[1, 1, 2]]},
    "repeated_block": {"n": 5, "k": 2, "blocks": [[1, 2], [2, 3], [2, 1]]},
    "wrong_size": {"n": 5, "k": 2, "blocks": [[1, 2], [1, 2, 3]]},
    "zero_n": {"n": 0, "k": 2, "blocks": [[1, 2]]},
    "zero_k": {"n": 3, "k": 0, "blocks": [[]]},
    "zero_k_no_blocks": {"n": 3, "k": 0, "blocks": []},
    "k_above_n": {"n": 3, "k": 4, "blocks": [[1, 2, 3, 4]]},
    "k_above_n_no_blocks": {"n": 3, "k": 4, "blocks": []},
    "bool_element": {"n": 5, "k": 2, "blocks": [[1, True]]},
    "not_object": [[1, 2]],
    "missing_key": {"n": 5, "blocks": [[1, 2]]},
}
README_ARGV = [
    "scheme --n 5 --k 2",
    "wilson omega --n 7 --k 3 --t 2 --variant literal",
    "wilson certify --n 7 --k 3 --t 2",
    "project --file @family --t 2",
    "design verify --file @design --t 2",
    "design search --n 9 --k 3 --t 2",
    "design admissible --k 3 --t 2 --n-max 20",
    "identity prove --k 3 --t 2 --rhs literal",
    "identity pointwise --k 3 --t 2 --n-from 7 --n-to 20",
    "identity witness --k 3 --t 2 --n 7 --n 9",
    "oracle max-family --n 7 --k 3 --t 2",
    "oracle spectrum --n 5 --k 2 --coeffs 0,0,1",
]
# the failing exits of identity pointwise, and of identity witness when no
# point is verified, which no README command reaches
FAILED_ARGV = ["identity pointwise --k 3 --t 2 --rhs literal --n-from 7 --n-to 20",
               "identity witness --k 3 --t 2 --n 8 --n 10"]
# an instance where max_family recalls finished subtrees, whole and with
# the budget running out inside the search
TABLE_ARGV = ["oracle max-family --n 10 --k 4 --t 2",
              "oracle max-family --n 10 --k 4 --t 2 --budget 2000"]
FILE_ARGV = [f"{command} --file @{name} --t {t}"
             for name in PINNED_DOCS for command in ("project", "design verify")
             for t in range(4)]
PINNED = {
    "design admissible --k 3 --t 2 --n-max 20":
        (0, "fc8b66cf47a924fc", "5 admissible sizes up to 20"),
    "design search --n 9 --k 3 --t 2":
        (0, "39203613928c9754", "found 12-block 2-(9,3,1) design (12 nodes)"),
    "design verify --file @apart --t 0":
        (0, "32fa360dd81e5832", "verified 0-(7,3,2) design"),
    "design verify --file @apart --t 1":
        (1, "da6ac2dac3f52d5a", "not a 1-design: subset [7] covered 0 times, expected 1"),
    "design verify --file @apart --t 2":
        (1, "f7b6b6306ef6d0b8", "not a 2-design: subset [1, 4] covered 0 times, expected 1"),
    "design verify --file @apart --t 3":
        (1, "f0c7a274cbf974e5", "not a 3-design: subset [1, 2, 4] covered 0 times, expected 1"),
    "design verify --file @bool_element --t 0":
        (2, "e3b0c44298fc1c14", "error: block must be a list of integers: [1, True]"),
    "design verify --file @bool_element --t 1":
        (2, "e3b0c44298fc1c14", "error: block must be a list of integers: [1, True]"),
    "design verify --file @bool_element --t 2":
        (2, "e3b0c44298fc1c14", "error: block must be a list of integers: [1, True]"),
    "design verify --file @bool_element --t 3":
        (2, "e3b0c44298fc1c14", "error: block must be a list of integers: [1, True]"),
    "design verify --file @design --t 0":
        (0, "9a03084c7cfa70a2", "verified 0-(7,3,7) design"),
    "design verify --file @design --t 1":
        (0, "5f43a5ae1af20dae", "verified 1-(7,3,3) design"),
    "design verify --file @design --t 2":
        (0, "ba972523ae161d42", "verified 2-(7,3,1) design"),
    "design verify --file @design --t 3":
        (1, "05fec7fa9fcdcd0e", "not a 3-design: subset [1, 2, 4] covered 0 times, expected 1"),
    "design verify --file @empty --t 0":
        (0, "74148e406cb26acb", "verified 0-(6,2,0) design"),
    "design verify --file @empty --t 1":
        (0, "808598a89e99f15d", "verified 1-(6,2,0) design"),
    "design verify --file @empty --t 2":
        (0, "799b4827ce99b7ef", "verified 2-(6,2,0) design"),
    "design verify --file @empty --t 3":
        (2, "e3b0c44298fc1c14", "error: strength t=3 out of range [0, 2]"),
    "design verify --file @family --t 0":
        (0, "d45556d1ebe89c76", "verified 0-(7,3,5) design"),
    "design verify --file @family --t 1":
        (1, "eba3352b00c34c11", "not a 1-design: subset [3] covered 1 times, expected 5"),
    "design verify --file @family --t 2":
        (1, "d26563f568f5d2c6", "not a 2-design: subset [1, 3] covered 1 times, expected 5"),
    "design verify --file @family --t 3":
        (1, "92a59ef6c9f9d3d5", "not a 3-design: subset [1, 3, 4] covered 0 times, expected 1"),
    "design verify --file @k_above_n --t 0":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 3]: (1, 2, 3, 4)"),
    "design verify --file @k_above_n --t 1":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 3]: (1, 2, 3, 4)"),
    "design verify --file @k_above_n --t 2":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 3]: (1, 2, 3, 4)"),
    "design verify --file @k_above_n --t 3":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 3]: (1, 2, 3, 4)"),
    "design verify --file @k_above_n_no_blocks --t 0":
        (2, "e3b0c44298fc1c14", "error: need 1 <= k <= n, got k=4, n=3"),
    "design verify --file @k_above_n_no_blocks --t 1":
        (2, "e3b0c44298fc1c14", "error: need 1 <= k <= n, got k=4, n=3"),
    "design verify --file @k_above_n_no_blocks --t 2":
        (2, "e3b0c44298fc1c14", "error: need 1 <= k <= n, got k=4, n=3"),
    "design verify --file @k_above_n_no_blocks --t 3":
        (2, "e3b0c44298fc1c14", "error: need 1 <= k <= n, got k=4, n=3"),
    "design verify --file @missing_key --t 0":
        (2, "e3b0c44298fc1c14", "error: family document missing key 'k'"),
    "design verify --file @missing_key --t 1":
        (2, "e3b0c44298fc1c14", "error: family document missing key 'k'"),
    "design verify --file @missing_key --t 2":
        (2, "e3b0c44298fc1c14", "error: family document missing key 'k'"),
    "design verify --file @missing_key --t 3":
        (2, "e3b0c44298fc1c14", "error: family document missing key 'k'"),
    "design verify --file @not_object --t 0":
        (2, "e3b0c44298fc1c14", "error: family document must be a JSON object"),
    "design verify --file @not_object --t 1":
        (2, "e3b0c44298fc1c14", "error: family document must be a JSON object"),
    "design verify --file @not_object --t 2":
        (2, "e3b0c44298fc1c14", "error: family document must be a JSON object"),
    "design verify --file @not_object --t 3":
        (2, "e3b0c44298fc1c14", "error: family document must be a JSON object"),
    "design verify --file @out_of_range --t 0":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 5]: (1, 6)"),
    "design verify --file @out_of_range --t 1":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 5]: (1, 6)"),
    "design verify --file @out_of_range --t 2":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 5]: (1, 6)"),
    "design verify --file @out_of_range --t 3":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 5]: (1, 6)"),
    "design verify --file @repeated_block --t 0":
        (2, "e3b0c44298fc1c14", "error: duplicate block [1, 2]"),
    "design verify --file @repeated_block --t 1":
        (2, "e3b0c44298fc1c14", "error: duplicate block [1, 2]"),
    "design verify --file @repeated_block --t 2":
        (2, "e3b0c44298fc1c14", "error: duplicate block [1, 2]"),
    "design verify --file @repeated_block --t 3":
        (2, "e3b0c44298fc1c14", "error: duplicate block [1, 2]"),
    "design verify --file @repeated_element --t 0":
        (2, "e3b0c44298fc1c14", "error: duplicate element in block [1, 1, 2]"),
    "design verify --file @repeated_element --t 1":
        (2, "e3b0c44298fc1c14", "error: duplicate element in block [1, 1, 2]"),
    "design verify --file @repeated_element --t 2":
        (2, "e3b0c44298fc1c14", "error: duplicate element in block [1, 1, 2]"),
    "design verify --file @repeated_element --t 3":
        (2, "e3b0c44298fc1c14", "error: duplicate element in block [1, 1, 2]"),
    "design verify --file @unsorted --t 0":
        (0, "325e42f38a293a3e", "verified 0-(7,3,3) design"),
    "design verify --file @unsorted --t 1":
        (1, "16ba9d04e113c97f", "not a 1-design: subset [2] covered 1 times, expected 3"),
    "design verify --file @unsorted --t 2":
        (1, "a868ccaa400c8a8e", "not a 2-design: subset [2, 4] covered 0 times, expected 1"),
    "design verify --file @unsorted --t 3":
        (1, "1c5813fcc97981a0", "not a 3-design: subset [1, 2, 4] covered 0 times, expected 1"),
    "design verify --file @wide --t 0":
        (0, "955f750a5dda7d3f", "verified 0-(7,4,2) design"),
    "design verify --file @wide --t 1":
        (1, "cde9b723a6ecbf5f", "not a 1-design: subset [4] covered 1 times, expected 2"),
    "design verify --file @wide --t 2":
        (1, "6028eab2824d4851", "not a 2-design: subset [1, 4] covered 1 times, expected 2"),
    "design verify --file @wide --t 3":
        (1, "181ab287258ccb81", "not a 3-design: subset [1, 2, 4] covered 1 times, expected 2"),
    "design verify --file @wrong_size --t 0":
        (2, "e3b0c44298fc1c14", "error: block [1, 2, 3] has size 3, expected 2"),
    "design verify --file @wrong_size --t 1":
        (2, "e3b0c44298fc1c14", "error: block [1, 2, 3] has size 3, expected 2"),
    "design verify --file @wrong_size --t 2":
        (2, "e3b0c44298fc1c14", "error: block [1, 2, 3] has size 3, expected 2"),
    "design verify --file @wrong_size --t 3":
        (2, "e3b0c44298fc1c14", "error: block [1, 2, 3] has size 3, expected 2"),
    "design verify --file @zero_element --t 0":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 5]: (0, 1)"),
    "design verify --file @zero_element --t 1":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 5]: (0, 1)"),
    "design verify --file @zero_element --t 2":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 5]: (0, 1)"),
    "design verify --file @zero_element --t 3":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 5]: (0, 1)"),
    "design verify --file @zero_k --t 0":
        (2, "e3b0c44298fc1c14", "error: empty subset"),
    "design verify --file @zero_k --t 1":
        (2, "e3b0c44298fc1c14", "error: empty subset"),
    "design verify --file @zero_k --t 2":
        (2, "e3b0c44298fc1c14", "error: empty subset"),
    "design verify --file @zero_k --t 3":
        (2, "e3b0c44298fc1c14", "error: empty subset"),
    "design verify --file @zero_k_no_blocks --t 0":
        (2, "e3b0c44298fc1c14", "error: need 1 <= k <= n, got k=0, n=3"),
    "design verify --file @zero_k_no_blocks --t 1":
        (2, "e3b0c44298fc1c14", "error: need 1 <= k <= n, got k=0, n=3"),
    "design verify --file @zero_k_no_blocks --t 2":
        (2, "e3b0c44298fc1c14", "error: need 1 <= k <= n, got k=0, n=3"),
    "design verify --file @zero_k_no_blocks --t 3":
        (2, "e3b0c44298fc1c14", "error: need 1 <= k <= n, got k=0, n=3"),
    "design verify --file @zero_n --t 0":
        (2, "e3b0c44298fc1c14", "error: ground-set size must be positive, got 0"),
    "design verify --file @zero_n --t 1":
        (2, "e3b0c44298fc1c14", "error: ground-set size must be positive, got 0"),
    "design verify --file @zero_n --t 2":
        (2, "e3b0c44298fc1c14", "error: ground-set size must be positive, got 0"),
    "design verify --file @zero_n --t 3":
        (2, "e3b0c44298fc1c14", "error: ground-set size must be positive, got 0"),
    "identity pointwise --k 3 --t 2 --n-from 7 --n-to 20":
        (0, "ac3b632087c41566", "pointwise comparison on [7,20]: 14/14 equal, verdict equal"),
    "identity pointwise --k 3 --t 2 --rhs literal --n-from 7 --n-to 20":
        (1, "99560b7950145435", "pointwise comparison on [7,20]: 0/14 equal, verdict not equal"),
    "identity prove --k 3 --t 2 --rhs literal":
        (1, "a2be536d9a7c4831", "symbolic comparison m vs omega_literal: NOT equal"),
    "identity witness --k 3 --t 2 --n 7 --n 9":
        (0, "a4ac70f694c802e5", "witness statuses: n=7:verified, n=9:verified"),
    "identity witness --k 3 --t 2 --n 8 --n 10":
        (1, "0c1e2d84e9ad0e43", "witness statuses: n=8:inadmissible, n=10:inadmissible"),
    "oracle max-family --n 7 --k 3 --t 2":
        (0, "5689e03fd3ea53ad", "max 2-intersecting family in J(7,3): size 5 (optimal)"),
    "oracle max-family --n 10 --k 4 --t 2":
        (0, "29a765538dd8b14f", "max 2-intersecting family in J(10,4): size 28 (optimal)"),
    "oracle max-family --n 10 --k 4 --t 2 --budget 2000":
        (3, "88164429ec14cbfa", "max 2-intersecting family in J(10,4): size 28 (budget hit)"),
    "oracle spectrum --n 5 --k 2 --coeffs 0,0,1":
        (0, "8413e572b97d5876", "float spectrum of a 10x10 matrix"),
    "project --file @apart --t 0":
        (0, "f58a854b0ecd94d4", "family of 2 blocks: verified at t=0"),
    "project --file @apart --t 1":
        (1, "4c2bdb780590175b", "family of 2 blocks: not verified at t=1"),
    "project --file @apart --t 2":
        (1, "4c2bdb780590175b", "family of 2 blocks: not verified at t=2"),
    "project --file @apart --t 3":
        (1, "4c2bdb780590175b", "family of 2 blocks: not verified at t=3"),
    "project --file @bool_element --t 0":
        (2, "e3b0c44298fc1c14", "error: block must be a list of integers: [1, True]"),
    "project --file @bool_element --t 1":
        (2, "e3b0c44298fc1c14", "error: block must be a list of integers: [1, True]"),
    "project --file @bool_element --t 2":
        (2, "e3b0c44298fc1c14", "error: block must be a list of integers: [1, True]"),
    "project --file @bool_element --t 3":
        (2, "e3b0c44298fc1c14", "error: block must be a list of integers: [1, True]"),
    "project --file @design --t 0":
        (0, "9ece2f8caf0f4569", "family of 7 blocks: verified at t=0"),
    "project --file @design --t 1":
        (0, "9ece2f8caf0f4569", "family of 7 blocks: verified at t=1"),
    "project --file @design --t 2":
        (1, "f79624a5d3f31b05", "family of 7 blocks: not verified at t=2"),
    "project --file @design --t 3":
        (1, "f79624a5d3f31b05", "family of 7 blocks: not verified at t=3"),
    "project --file @empty --t 0":
        (0, "55247be1ddd15bd5", "family of 0 blocks: verified at t=0"),
    "project --file @empty --t 1":
        (0, "55247be1ddd15bd5", "family of 0 blocks: verified at t=1"),
    "project --file @empty --t 2":
        (0, "55247be1ddd15bd5", "family of 0 blocks: verified at t=2"),
    "project --file @empty --t 3":
        (2, "e3b0c44298fc1c14", "error: strength t=3 out of range [0, 2]"),
    "project --file @family --t 0":
        (0, "e3a5cbc828da1eb7", "family of 5 blocks: verified at t=0"),
    "project --file @family --t 1":
        (0, "e3a5cbc828da1eb7", "family of 5 blocks: verified at t=1"),
    "project --file @family --t 2":
        (0, "e3a5cbc828da1eb7", "family of 5 blocks: verified at t=2"),
    "project --file @family --t 3":
        (1, "3958e4f92c940064", "family of 5 blocks: not verified at t=3"),
    "project --file @k_above_n --t 0":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 3]: (1, 2, 3, 4)"),
    "project --file @k_above_n --t 1":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 3]: (1, 2, 3, 4)"),
    "project --file @k_above_n --t 2":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 3]: (1, 2, 3, 4)"),
    "project --file @k_above_n --t 3":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 3]: (1, 2, 3, 4)"),
    "project --file @k_above_n_no_blocks --t 0":
        (2, "e3b0c44298fc1c14", "error: need 1 <= k <= n, got k=4, n=3"),
    "project --file @k_above_n_no_blocks --t 1":
        (2, "e3b0c44298fc1c14", "error: need 1 <= k <= n, got k=4, n=3"),
    "project --file @k_above_n_no_blocks --t 2":
        (2, "e3b0c44298fc1c14", "error: need 1 <= k <= n, got k=4, n=3"),
    "project --file @k_above_n_no_blocks --t 3":
        (2, "e3b0c44298fc1c14", "error: need 1 <= k <= n, got k=4, n=3"),
    "project --file @missing_key --t 0":
        (2, "e3b0c44298fc1c14", "error: family document missing key 'k'"),
    "project --file @missing_key --t 1":
        (2, "e3b0c44298fc1c14", "error: family document missing key 'k'"),
    "project --file @missing_key --t 2":
        (2, "e3b0c44298fc1c14", "error: family document missing key 'k'"),
    "project --file @missing_key --t 3":
        (2, "e3b0c44298fc1c14", "error: family document missing key 'k'"),
    "project --file @not_object --t 0":
        (2, "e3b0c44298fc1c14", "error: family document must be a JSON object"),
    "project --file @not_object --t 1":
        (2, "e3b0c44298fc1c14", "error: family document must be a JSON object"),
    "project --file @not_object --t 2":
        (2, "e3b0c44298fc1c14", "error: family document must be a JSON object"),
    "project --file @not_object --t 3":
        (2, "e3b0c44298fc1c14", "error: family document must be a JSON object"),
    "project --file @out_of_range --t 0":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 5]: (1, 6)"),
    "project --file @out_of_range --t 1":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 5]: (1, 6)"),
    "project --file @out_of_range --t 2":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 5]: (1, 6)"),
    "project --file @out_of_range --t 3":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 5]: (1, 6)"),
    "project --file @repeated_block --t 0":
        (2, "e3b0c44298fc1c14", "error: duplicate block [1, 2]"),
    "project --file @repeated_block --t 1":
        (2, "e3b0c44298fc1c14", "error: duplicate block [1, 2]"),
    "project --file @repeated_block --t 2":
        (2, "e3b0c44298fc1c14", "error: duplicate block [1, 2]"),
    "project --file @repeated_block --t 3":
        (2, "e3b0c44298fc1c14", "error: duplicate block [1, 2]"),
    "project --file @repeated_element --t 0":
        (2, "e3b0c44298fc1c14", "error: duplicate element in block [1, 1, 2]"),
    "project --file @repeated_element --t 1":
        (2, "e3b0c44298fc1c14", "error: duplicate element in block [1, 1, 2]"),
    "project --file @repeated_element --t 2":
        (2, "e3b0c44298fc1c14", "error: duplicate element in block [1, 1, 2]"),
    "project --file @repeated_element --t 3":
        (2, "e3b0c44298fc1c14", "error: duplicate element in block [1, 1, 2]"),
    "project --file @unsorted --t 0":
        (0, "1b527fb0a09cce61", "family of 3 blocks: verified at t=0"),
    "project --file @unsorted --t 1":
        (0, "1b527fb0a09cce61", "family of 3 blocks: verified at t=1"),
    "project --file @unsorted --t 2":
        (1, "05e1133160b80811", "family of 3 blocks: not verified at t=2"),
    "project --file @unsorted --t 3":
        (1, "05e1133160b80811", "family of 3 blocks: not verified at t=3"),
    "project --file @wide --t 0":
        (0, "c4ea474cec95a10b", "family of 2 blocks: verified at t=0"),
    "project --file @wide --t 1":
        (0, "c4ea474cec95a10b", "family of 2 blocks: verified at t=1"),
    "project --file @wide --t 2":
        (0, "c4ea474cec95a10b", "family of 2 blocks: verified at t=2"),
    "project --file @wide --t 3":
        (0, "c4ea474cec95a10b", "family of 2 blocks: verified at t=3"),
    "project --file @wrong_size --t 0":
        (2, "e3b0c44298fc1c14", "error: block [1, 2, 3] has size 3, expected 2"),
    "project --file @wrong_size --t 1":
        (2, "e3b0c44298fc1c14", "error: block [1, 2, 3] has size 3, expected 2"),
    "project --file @wrong_size --t 2":
        (2, "e3b0c44298fc1c14", "error: block [1, 2, 3] has size 3, expected 2"),
    "project --file @wrong_size --t 3":
        (2, "e3b0c44298fc1c14", "error: block [1, 2, 3] has size 3, expected 2"),
    "project --file @zero_element --t 0":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 5]: (0, 1)"),
    "project --file @zero_element --t 1":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 5]: (0, 1)"),
    "project --file @zero_element --t 2":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 5]: (0, 1)"),
    "project --file @zero_element --t 3":
        (2, "e3b0c44298fc1c14", "error: element out of range [1, 5]: (0, 1)"),
    "project --file @zero_k --t 0":
        (2, "e3b0c44298fc1c14", "error: empty subset"),
    "project --file @zero_k --t 1":
        (2, "e3b0c44298fc1c14", "error: empty subset"),
    "project --file @zero_k --t 2":
        (2, "e3b0c44298fc1c14", "error: empty subset"),
    "project --file @zero_k --t 3":
        (2, "e3b0c44298fc1c14", "error: empty subset"),
    "project --file @zero_k_no_blocks --t 0":
        (2, "e3b0c44298fc1c14", "error: need 1 <= k <= n, got k=0, n=3"),
    "project --file @zero_k_no_blocks --t 1":
        (2, "e3b0c44298fc1c14", "error: need 1 <= k <= n, got k=0, n=3"),
    "project --file @zero_k_no_blocks --t 2":
        (2, "e3b0c44298fc1c14", "error: need 1 <= k <= n, got k=0, n=3"),
    "project --file @zero_k_no_blocks --t 3":
        (2, "e3b0c44298fc1c14", "error: need 1 <= k <= n, got k=0, n=3"),
    "project --file @zero_n --t 0":
        (2, "e3b0c44298fc1c14", "error: ground-set size must be positive, got 0"),
    "project --file @zero_n --t 1":
        (2, "e3b0c44298fc1c14", "error: ground-set size must be positive, got 0"),
    "project --file @zero_n --t 2":
        (2, "e3b0c44298fc1c14", "error: ground-set size must be positive, got 0"),
    "project --file @zero_n --t 3":
        (2, "e3b0c44298fc1c14", "error: ground-set size must be positive, got 0"),
    "scheme --n 5 --k 2":
        (0, "61ced2eb74653290", "eigenvalue table of J(5,2): 3 eigenspaces, order 10"),
    "wilson certify --n 7 --k 3 --t 2":
        (0, "5aaeb99ddffcc18f", "certificate valid: bound 5, min eigenvalue 0"),
    "wilson omega --n 7 --k 3 --t 2 --variant literal":
        (0, "9270b8b79fcf69e7", "Wilson matrix (literal) for (n,k,t)=(7,3,2)"),
}


def pinned_output(argv: str, tmp_path) -> tuple[int, str, str]:
    """Run argv through main; return (exit code, stdout digest, stderr line)."""
    args = []
    for token in argv.split():
        if token.startswith("@"):
            path = tmp_path / f"{token[1:]}.json"
            path.write_text(json.dumps(PINNED_DOCS[token[1:]]), encoding="utf-8")
            token = str(path)
        args.append(token)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()[:16]
    return code, digest, (err.getvalue().splitlines() or [""])[0]


def test_pinned_table_covers_the_readme_and_the_documents():
    assert set(PINNED) == set(README_ARGV + FAILED_ARGV + TABLE_ARGV + FILE_ARGV)


@pytest.mark.parametrize("argv", sorted(PINNED))
def test_pinned_output(argv, tmp_path):
    assert pinned_output(argv, tmp_path) == PINNED[argv]


# The first 16 hex digits of the sha256 of each parser's -h output at 80
# columns, keyed by its usage prefix: all 17 parsers, pinned while each
# command still declared every one of its flags itself.
HELP = {
    "jshm": "36d26c83f9e809cc",
    "jshm scheme": "f11196a760a5b4a7",
    "jshm wilson": "3290634301145055",
    "jshm wilson omega": "1484dfc8a3db9915",
    "jshm wilson certify": "b3f5b0ace5f7ddaf",
    "jshm project": "ac27994367a487ff",
    "jshm design": "70e5cf2e4a58ba71",
    "jshm design verify": "aba6ef145f6e7652",
    "jshm design search": "61174af5b6ef2d63",
    "jshm design admissible": "a9f58686f097f7fd",
    "jshm identity": "fd5efd48926a7089",
    "jshm identity prove": "daf1dd2899069215",
    "jshm identity pointwise": "44ae54082fd88c27",
    "jshm identity witness": "2ad68254216ece42",
    "jshm oracle": "823229e60cf99194",
    "jshm oracle max-family": "7339d10a675b78a8",
    "jshm oracle spectrum": "481640175d197612",
}


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(command.split()[1:] + ["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == HELP[command]
