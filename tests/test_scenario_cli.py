import json

import numpy as np
import pytest
from click.testing import CliRunner

from opalg.cli import main
from opalg.corpus import a4_algebra, a4_swap_unitary, schur_projection_p
from opalg.linalg import direct_sum
from opalg.scenario import (ScenarioError, expect_matches, load_scenario,
                            run_check, run_scenario)
from opalg.serialize import mat_to_json


def _mat(rows):
    return mat_to_json(np.array(rows, dtype=complex))


def t2_scenario():
    e11 = [[1, 0], [0, 0]]
    e22 = [[0, 0], [0, 1]]
    e12 = [[0, 1], [0, 0]]

    def diag_img(a):
        a = np.array(a, dtype=complex)
        return np.block([[a, np.zeros((2, 2))],
                         [np.zeros((2, 2)), np.diag(np.diag(a))]])

    return {
        "ambients": {"M2": [2], "M2pC2": [2, 2]},
        "algebras": {"T2": {"ambient": "M2",
                            "basis": [_mat(e11), _mat(e22), _mat(e12)]}},
        "covers": {
            "inc": {"algebra": "T2", "ambient": "M2",
                    "j": [_mat(e11), _mat(e22), _mat(e12)]},
            "diag": {"algebra": "T2", "ambient": "M2pC2",
                     "j": [mat_to_json(diag_img(m))
                           for m in (e11, e22, e12)]},
        },
        "group": {"table": [[0, 1], [1, 0]]},
        "systems": {"sign": {"algebra": "T2",
                             "action": {"type": "ad",
                                        "unitaries": [_mat([[1, 0], [0, 1]]),
                                                      _mat([[1, 0],
                                                            [0, -1]])]}}},
        "checks": [
            {"op": "structure", "cover": "diag",
             "expect": {"dim": 6, "blocks": [2, 1, 1]}},
            {"op": "shilov", "cover": "diag",
             "expect": {"shilov_block_dims": [1, 1], "essential": False}},
            {"op": "envelope", "cover": "diag",
             "expect": {"dim": 4, "blocks": [2]}},
            {"op": "order", "upper": "diag", "lower": "inc",
             "expect": {"verdict": "Morphism"}},
            {"op": "admissible", "system": "sign", "cover": "diag",
             "expect": {"verdict": "Admissible"}},
            {"op": "crossed", "system": "sign", "expect": {"dim": 6}},
        ],
    }


def a4_swap_over_schur_scenario():
    """The A4 swap system with a crossed check over the A4 Schur cover,
    which admits no extension of the swap action."""
    basis = list(a4_algebra().span.basis)
    p = schur_projection_p()
    return {
        "ambients": {"M4": [4], "M4pM4": [4, 4]},
        "algebras": {"A4": {"ambient": "M4",
                            "basis": [mat_to_json(b) for b in basis]}},
        "covers": {"schur": {"algebra": "A4", "ambient": "M4pM4",
                             "j": [mat_to_json(direct_sum(b, p * b))
                                   for b in basis]}},
        "group": {"table": [[0, 1], [1, 0]]},
        "systems": {"swap": {"algebra": "A4",
                             "action": {"type": "ad", "unitaries": [
                                 mat_to_json(np.eye(4, dtype=complex)),
                                 mat_to_json(a4_swap_unitary())]}}},
        "checks": [{"op": "crossed", "system": "swap", "cover": "schur"}],
    }


def swap_inc_images(raw):
    j = raw["covers"]["inc"]["j"]
    j[0], j[2] = j[2], j[0]


def inc_into_wrong_ambient(raw):
    raw["covers"]["inc"]["ambient"] = "M2pC2"


def sign_not_multiplicative(raw):
    basis = raw["algebras"]["T2"]["basis"]
    raw["systems"]["sign"]["action"] = {
        "type": "matrices", "images": [basis, [basis[1], basis[0], basis[2]]]}


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(t2_scenario()))
    return str(path)


class TestScenario:
    def test_run_scenario_all_pass(self):
        report = run_scenario(t2_scenario())
        assert report["all_pass"]
        assert not report["inconclusive"]
        assert len(report["checks"]) == 6

    def test_failed_expectation(self):
        raw = t2_scenario()
        raw["checks"] = [{"op": "structure", "cover": "diag",
                          "expect": {"dim": 7}}]
        report = run_scenario(raw)
        assert not report["all_pass"]

    def test_unknown_cover(self):
        sc = load_scenario(t2_scenario())
        with pytest.raises(ScenarioError):
            sc.cover("nope")

    def test_unknown_op(self):
        sc = load_scenario(t2_scenario())
        with pytest.raises(ScenarioError):
            run_check(sc, {"op": "frobnicate"})

    def test_bad_ambient(self):
        with pytest.raises(ScenarioError):
            load_scenario({"ambients": {"bad": [0]}})

    def test_wrong_image_count(self):
        raw = t2_scenario()
        raw["covers"]["inc"]["j"] = raw["covers"]["inc"]["j"][:2]
        sc = load_scenario(raw)
        with pytest.raises(ScenarioError):
            sc.cover("inc")

    def test_partial_op(self):
        raw = t2_scenario()
        raw["checks"] = [{"op": "partial", "system": "sign",
                          "cover": "diag",
                          "expect": {"verified": True,
                                     "subalgebra_dim": 6}}]
        report = run_scenario(raw)
        assert report["all_pass"]


class TestExpectMatches:
    def test_nested_and_tolerant(self):
        assert expect_matches({"a": [1, 2.0000004]}, {"a": [1, 2], "b": 3})
        assert not expect_matches({"a": [1, 3]}, {"a": [1, 2]})
        assert not expect_matches({"missing": 1}, {})

    def test_bool_is_not_number(self):
        assert not expect_matches(True, 1)
        assert expect_matches(True, True)


class TestCli:
    def test_run_all_pass(self, scenario_file):
        res = CliRunner().invoke(main, ["run", scenario_file])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["all_pass"]

    def test_run_text_format(self, scenario_file):
        res = CliRunner().invoke(main,
                                 ["run", scenario_file, "--format", "text"])
        assert res.exit_code == 0
        assert "PASS" in res.output

    def test_failing_expect_exits_1(self, tmp_path):
        raw = t2_scenario()
        raw["checks"] = [{"op": "structure", "cover": "diag",
                          "expect": {"dim": 7}}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        res = CliRunner().invoke(main, ["run", str(path)])
        assert res.exit_code == 1

    def test_malformed_json_exits_3(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        res = CliRunner().invoke(main, ["run", str(path)])
        assert res.exit_code == 3

    def test_unknown_op_exits_3(self, tmp_path):
        raw = t2_scenario()
        raw["checks"] = [{"op": "frobnicate"}]
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(raw))
        res = CliRunner().invoke(main, ["run", str(path)])
        assert res.exit_code == 3

    @pytest.mark.parametrize("spoil", [swap_inc_images,
                                       inc_into_wrong_ambient,
                                       sign_not_multiplicative])
    def test_malformed_object_exits_3(self, tmp_path, spoil):
        raw = t2_scenario()
        spoil(raw)
        path = tmp_path / "spoilt.json"
        path.write_text(json.dumps(raw))
        res = CliRunner().invoke(main, ["run", str(path)])
        assert res.exit_code == 3

    def test_check_cover_reports_rejection(self, tmp_path):
        raw = t2_scenario()
        swap_inc_images(raw)
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(raw))
        res = CliRunner().invoke(main, ["check-cover", str(path),
                                        "--cover", "inc"])
        assert res.exit_code == 0
        result = json.loads(res.output)["checks"][0]["result"]
        assert result["verdict"] == "NotHomomorphism"

    def test_check_cover_detail_is_plain_text(self, tmp_path):
        # The diagonal compression of T2 into C (+) C kills E12.
        raw = t2_scenario()
        raw["ambients"]["C2"] = [1, 1]
        raw["covers"]["compress"] = {
            "algebra": "T2", "ambient": "C2",
            "j": [_mat(np.diag(np.diag(m))) for m in
                  ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 0]])]}
        path = tmp_path / "compress.json"
        path.write_text(json.dumps(raw))
        res = CliRunner().invoke(main, ["check-cover", str(path),
                                        "--cover", "compress"])
        assert res.exit_code == 0
        result = json.loads(res.output)["checks"][0]["result"]
        assert result["verdict"] == "NotCompletelyIsometric"
        assert isinstance(result["detail"], str)
        assert "array(" not in result["detail"]
        cert = result["certificate"]
        assert cert["type"] == "falsifier"
        assert cert["norm_image"] < cert["norm_x"]

    def test_op_error_is_reported_not_raised(self, tmp_path):
        path = tmp_path / "a4.json"
        path.write_text(json.dumps(a4_swap_over_schur_scenario()))
        res = CliRunner().invoke(main, ["run", str(path)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        report = json.loads(res.output)
        entry = report["checks"][0]
        assert entry["status"] == "error"
        assert entry["error"] == "NotAdmissibleCover"
        assert isinstance(entry["detail"], str)
        assert entry["pass"] is False
        assert not report["all_pass"]

    def test_single_check_command(self, scenario_file):
        res = CliRunner().invoke(main, ["structure", scenario_file,
                                        "--cover", "diag"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["checks"][0]["result"]["dim"] == 6

    def test_order_command(self, scenario_file):
        res = CliRunner().invoke(main, ["order", scenario_file,
                                        "--upper", "diag",
                                        "--lower", "inc"])
        assert res.exit_code == 0

    def test_join_command(self, scenario_file):
        res = CliRunner().invoke(main, ["join", scenario_file,
                                        "--covers", "diag,inc"])
        assert res.exit_code == 0

    def test_starved_solver_exits_2(self, scenario_file):
        # With a one-iteration feasibility budget the complete-isometry
        # check of the cover cannot conclude.
        res = CliRunner().invoke(main, ["structure", scenario_file,
                                        "--cover", "diag",
                                        "--max-iter", "1"])
        assert res.exit_code == 2

    def test_starved_paper_suite_exits_2(self):
        res = CliRunner().invoke(main, ["paper-suite", "--max-iter", "1"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
