import json
import os
import subprocess
import sys
import time

import pytest

import jshm
from jshm.cli import main
from jshm.designs import verify_design
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
             "--coeffs", ",".join(["1"] * 11), "--max-order", "100000000000"],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 3, argv
            assert captured.out == ""
            assert captured.err.startswith("error: ")
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

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "project", "--file", "/nonexistent.json",
                             "--t", "1")
        assert code == 2


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
        path = write_family(tmp_path, 3000, 3, [])
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
            assert "Traceback" not in captured.err
            assert elapsed < 0.5, argv


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
