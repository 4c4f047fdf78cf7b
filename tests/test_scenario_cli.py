import json

import numpy as np
import pytest
from click.testing import CliRunner

import opalg
from opalg import corpus, scenario
from opalg.cli import main
from opalg.corpus import a4_algebra, a4_swap_unitary, schur_projection_p
from opalg.covers import CoverError, envelope, inclusion_cover
from opalg.dynamics import trivial_system
from opalg.linalg import direct_sum
from opalg.scenario import (ScenarioError, expect_matches, load_scenario,
                            run_check, run_scenario)
from opalg.serialize import mat_to_json
from opalg.suite import paper_suite


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


def algebra_is_a_number(raw):
    raw["algebras"]["A"] = 5


def check_is_a_number(raw):
    raw["checks"] = [5]


def checked_cover_is_a_number(raw):
    raw["covers"]["c"] = 1
    raw["checks"].append({"op": "structure", "cover": "c"})


def system_is_a_number(raw):
    raw["systems"]["s"] = 3


def action_is_a_list(raw):
    raw["systems"]["sign"]["action"] = [1]


def covers_section_is_a_list(raw):
    raw["covers"] = [1]


def join_covers_is_a_number(raw):
    raw["checks"].append({"op": "join", "covers": 5})


def join_covers_is_empty(raw):
    raw["checks"].append({"op": "join", "covers": []})


def meet_covers_is_a_number(raw):
    raw["checks"].append({"op": "meet", "covers": 5})


def structure_cover_is_a_list(raw):
    raw["checks"].append({"op": "structure", "cover": ["diag"]})


def admissible_system_is_an_object(raw):
    raw["checks"].append({"op": "admissible", "system": {}, "cover": "diag"})


def with_derived_objects(raw):
    """Add the covers derived from diag and inc, and the trivial action."""
    raw["covers"].update({
        "t2inc": {"inclusion": "T2"}, "env": {"envelope": "diag"},
        "v": {"join": ["diag", "inc"]}, "w": {"meet": ["diag", "inc"]}})
    raw["systems"]["triv"] = {"algebra": "T2", "action": {"type": "trivial"}}
    return raw


def derived_cover_cycle(raw):
    raw["covers"].update({"a": {"join": ["diag", "b"]},
                          "b": {"envelope": "a"}})
    raw["checks"].append({"op": "structure", "cover": "a"})


def derived_from_unknown_cover(raw):
    raw["covers"]["e"] = {"envelope": "nope"}
    raw["checks"].append({"op": "structure", "cover": "e"})


def meet_of_three_covers(raw):
    raw["covers"]["m"] = {"meet": ["diag", "inc", "diag"]}
    raw["checks"].append({"op": "structure", "cover": "m"})


def derived_two_ways(raw):
    raw["covers"]["x"] = {"join": ["diag"], "envelope": "diag"}
    raw["checks"].append({"op": "structure", "cover": "x"})


def crossed_equivalent_of_one_system(raw):
    raw["checks"].append({"op": "crossed-equivalent", "systems": ["sign"]})


def moduli_of_the_wrong_size(raw):
    raw["checks"].append({"op": "inner", "system": "sign",
                          "moduli": [_mat(np.eye(3))] * 2})


def with_diagonal_algebra(raw):
    """Add D, the diagonal of M2, and its inclusion cover dinc."""
    units = [_mat([[1, 0], [0, 0]]), _mat([[0, 0], [0, 1]])]
    raw["algebras"]["D"] = {"ambient": "M2", "basis": units}
    raw["covers"]["dinc"] = {"algebra": "D", "ambient": "M2", "j": units}
    return raw


MIXED_ALGEBRA_COMMANDS = [
    ["admissible", "--system", "sign", "--cover", "dinc"],
    ["inner", "--system", "sign", "--cover", "dinc"],
    ["crossed", "--system", "sign", "--cover", "dinc"],
    ["partial", "--system", "sign", "--cover", "dinc"],
    ["join", "--covers", "diag,dinc"],
    ["meet", "--covers", "diag,dinc"],
    ["order", "--upper", "diag", "--lower", "dinc"],
]


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


class TestDerivedObjects:
    def test_each_derived_cover_is_built_once(self):
        sc = load_scenario(with_derived_objects(t2_scenario()))
        assert sc.cover("t2inc") is inclusion_cover(sc.algebra("T2"))
        assert sc.cover("env") is envelope(sc.cover("diag"))
        assert sc.cover("v") is sc.cover("v")
        assert sc.cover("v").name == "v"
        assert sc.system("triv") is trivial_system(sc.algebra("T2"), sc.group)

    def test_derived_covers_run_as_checks(self):
        raw = with_derived_objects(t2_scenario())
        raw["checks"] = [
            {"op": "structure", "cover": c, "expect": want}
            for c, want in (("t2inc", {"dim": 4, "blocks": [2]}),
                            ("env", {"dim": 4, "blocks": [2]}),
                            ("v", {"dim": 6, "blocks": [2, 1, 1]}),
                            ("w", {"dim": 4, "blocks": [2]}))]
        raw["checks"].append({"op": "order", "upper": "env",
                              "lower": "t2inc",
                              "expect": {"verdict": "Morphism",
                                         "kernel_blocks": []}})
        report = run_scenario(raw)
        assert report["all_pass"], report

    def test_a_cycle_is_refused(self):
        raw = t2_scenario()
        derived_cover_cycle(raw)
        with pytest.raises(ScenarioError, match="derived from itself"):
            load_scenario(raw).cover("a")


    def test_a_failed_derivation_is_a_failed_check(self, monkeypatch):
        """A derived cover is built from valid covers, so a CoverError
        while deriving it is the library's failure: run_check reports it
        as an error entry, where a given cover failing its own validation
        is bad input."""
        def failing(*covers, name=None):
            raise CoverError("join does not project onto its factors")

        monkeypatch.setattr(scenario, "meet", failing)
        raw = with_derived_objects(t2_scenario())
        raw["checks"] = [{"op": "structure", "cover": "w"}]
        entry = run_scenario(raw)["checks"][0]
        assert entry["status"] == "error"
        assert entry["error"] == "CoverError"
        assert entry["pass"] is False
        with pytest.raises(CoverError):
            load_scenario(raw).cover("w")


class TestNewOps:
    @pytest.fixture()
    def sc(self):
        return load_scenario(with_derived_objects(t2_scenario()))

    def test_correspondence(self, sc):
        entry = run_check(sc, {"op": "correspondence", "system": "sign",
                               "upper": "diag", "lower": "inc"})
        assert entry["result"] == {"upper": "Admissible", "morphism": True,
                                   "lower_admissible": True,
                                   "kernel_invariant": True}
        # inc is not above diag: no morphism, so nothing to correspond
        entry = run_check(sc, {"op": "correspondence", "system": "sign",
                               "upper": "inc", "lower": "diag"})
        assert entry["result"] == {"upper": "Admissible", "morphism": False}

    def test_trivialization(self, sc):
        entry = run_check(sc, {"op": "trivialization", "system": "sign",
                               "cover": "diag"})
        assert entry["result"] == {"dim": 6, "iota_dim": 6}

    def test_crossed_equivalent(self, sc):
        def equivalent(a, b):
            return run_check(sc, {"op": "crossed-equivalent",
                                  "systems": [a, b]})["result"]["equivalent"]

        assert equivalent("sign", "sign")
        assert not equivalent("sign", "triv")

    def test_inner_compares_moduli_only_when_asked(self, sc):
        check = {"op": "inner", "system": "sign"}
        assert "moduli_match" not in run_check(sc, check)["result"]
        eye, swap = _mat(np.eye(2)), _mat([[0, 1], [1, 0]])
        for moduli, match in (([eye, eye], True), ([eye, swap], False)):
            result = run_check(sc, dict(check, moduli=moduli))["result"]
            assert result["moduli_match"] is match

    def test_crossed_checks_members_only_when_asked(self, sc):
        check = {"op": "crossed", "system": "triv"}
        assert "members_contained" not in run_check(sc, check)["result"]
        units = [np.array(m, dtype=complex) for m in (
            [[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 0]])]
        swap = np.array([[0, 1], [1, 0]])
        tensor = [mat_to_json(np.kron(p, a)) for p in (np.eye(2), swap)
                  for a in units]
        outside = mat_to_json(np.kron(np.eye(2), units[2].T))
        for members, inside in ((tensor, True), ([outside], False)):
            result = run_check(sc, dict(check, members=members))["result"]
            assert result["members_contained"] is inside

    def test_a_check_name_reaches_the_report_not_the_op(self, sc):
        entry = run_check(sc, {"op": "structure", "cover": "diag",
                               "name": "diag-structure"})
        assert entry["name"] == "diag-structure"
        assert entry["args"] == {"cover": "diag"}
        assert entry["pass"]


class TestPaperScenario:
    def test_opalg_run_reports_the_paper_suite(self, tmp_path):
        path = tmp_path / "paper.json"
        path.write_text(json.dumps(corpus.paper_scenario()))
        res = CliRunner().invoke(main, ["run", str(path)])
        assert res.exit_code == 0
        suite = json.loads(paper_suite()["verdict_text"])
        assert json.loads(res.output)["checks"] == suite["checks"]
        names = [e["name"] for e in suite["checks"]]
        assert len(names) == len(set(names))

    def test_the_package_re_exports_paper_suite(self):
        assert opalg.paper_suite is paper_suite


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

    def test_missing_argument_exits_3(self, tmp_path):
        raw = t2_scenario()
        raw["checks"].append({"op": "admissible", "system": "sign"})
        with pytest.raises(ScenarioError, match="'admissible'.*'cover'"):
            run_check(load_scenario(raw), raw["checks"][-1])
        path = tmp_path / "short.json"
        path.write_text(json.dumps(raw))
        res = CliRunner().invoke(main, ["run", str(path)])
        assert res.exit_code == 3

    @pytest.mark.parametrize("spoil", [swap_inc_images,
                                       inc_into_wrong_ambient,
                                       sign_not_multiplicative,
                                       algebra_is_a_number,
                                       check_is_a_number,
                                       checked_cover_is_a_number,
                                       system_is_a_number,
                                       action_is_a_list,
                                       covers_section_is_a_list,
                                       join_covers_is_a_number,
                                       join_covers_is_empty,
                                       meet_covers_is_a_number,
                                       structure_cover_is_a_list,
                                       admissible_system_is_an_object,
                                       derived_cover_cycle,
                                       derived_from_unknown_cover,
                                       meet_of_three_covers,
                                       derived_two_ways,
                                       crossed_equivalent_of_one_system,
                                       moduli_of_the_wrong_size])
    def test_malformed_object_exits_3(self, tmp_path, spoil):
        raw = t2_scenario()
        spoil(raw)
        path = tmp_path / "spoilt.json"
        path.write_text(json.dumps(raw))
        res = CliRunner().invoke(main, ["run", str(path)])
        assert res.exit_code == 3

    def test_an_empty_join_names_its_argument(self):
        raw = t2_scenario()
        join_covers_is_empty(raw)
        with pytest.raises(ScenarioError, match="'join'.*'covers'.*non-empty"):
            run_check(load_scenario(raw), raw["checks"][-1])

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

    @pytest.mark.parametrize("command", MIXED_ALGEBRA_COMMANDS,
                             ids=lambda c: c[0])
    def test_mixed_algebras_exit_3(self, tmp_path, command):
        """An op pairing objects of two algebras is malformed input, not a
        traceback from deep inside the library."""
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(with_diagonal_algebra(t2_scenario())))
        res = CliRunner().invoke(main, [command[0], str(path), *command[1:]])
        assert res.exit_code == 3
        assert isinstance(res.exception, SystemExit)
        assert "different algebras" in json.loads(res.stderr)["error"]
        assert "Traceback" not in res.output

    def test_one_algebra_ops_still_run(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(with_diagonal_algebra(t2_scenario())))
        res = CliRunner().invoke(main, ["join", str(path),
                                        "--covers", "diag,inc"])
        assert res.exit_code == 0

    @pytest.mark.parametrize("command", [
        ["run", "SCENARIO", "--seed", "-1"],
        ["structure", "SCENARIO", "--cover", "diag", "--seed", "-2"],
        ["paper-suite", "--seed", "-3"],
    ], ids=lambda c: c[0])
    def test_negative_seed_exits_3(self, scenario_file, command):
        command = [scenario_file if c == "SCENARIO" else c for c in command]
        res = CliRunner().invoke(main, command)
        assert res.exit_code == 3
        assert isinstance(res.exception, SystemExit)
        assert "seed" in json.loads(res.stderr)["error"]
        assert res.stdout == ""

    def test_starved_solver_exits_2(self, scenario_file):
        # With no feasibility iterations the complete-isometry check of the
        # cover cannot conclude.
        res = CliRunner().invoke(main, ["structure", scenario_file,
                                        "--cover", "diag",
                                        "--max-iter", "0"])
        assert res.exit_code == 2

    def test_starved_paper_suite_exits_2(self):
        res = CliRunner().invoke(main, ["paper-suite", "--max-iter", "1"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
