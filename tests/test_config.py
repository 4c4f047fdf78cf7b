"""The run configuration: the seed and the Choi solver's budget reach the
oracles through one RunConfig, a CLI run leaves it as it found it, and no
tolerance or tuning keyword comes back into the library."""

import ast
import json
import pathlib
import re
import runpy

import numpy as np
import pytest
from click.testing import CliRunner

import opalg
from opalg import corpus, linalg
from opalg.cb import CC, LinearMap, cc_check, falsifier_search
from opalg.cli import main
from opalg.corpus import t2_algebra
from opalg.linalg import Ambient, RunConfig, current, orthonormal_span, using
from opalg.suite import paper_suite

EXAMPLE = pathlib.Path(__file__).parents[1] / "scripts" / \
    "make_example_scenario.py"


def example_file(tmp_path):
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(runpy.run_path(str(EXAMPLE))["build"]()))
    return str(path)


def random_map(seed):
    rng = np.random.default_rng(seed)
    amb = Ambient((3,))

    def rand():
        return rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

    dom = orthonormal_span(amb, [rand() for _ in range(2)])
    return LinearMap(dom=dom, cod=amb,
                     images=np.array([3 * rand() for _ in dom.basis]))


def test_falsifier_reads_the_configured_seed():
    phi = random_map(11)
    with using(seed=5):
        ratio, _ = falsifier_search(phi)
        assert ratio == falsifier_search(phi)[0]
    assert ratio != falsifier_search(phi)[0]


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_a_bad_seed_is_refused_before_any_work(seed, monkeypatch):
    def refuse():
        raise AssertionError("the corpus was touched")

    monkeypatch.setattr(corpus, "clear_caches", refuse)
    with pytest.raises(ValueError, match="seed"):
        with using(seed=seed):
            pass
    with pytest.raises(ValueError, match="seed"):
        paper_suite(seed=seed)
    assert current() == RunConfig()


@pytest.mark.parametrize("max_iter", [-1, 1.5, "3"])
def test_a_bad_max_iter_is_refused_before_any_work(max_iter, tmp_path,
                                                   monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the scenario was run")

    with pytest.raises(ValueError, match="max_iter"):
        with using(max_iter=max_iter):
            pass
    assert current() == RunConfig()
    assert RunConfig(max_iter=0).max_iter == 0
    if isinstance(max_iter, int):  # the CLI parses --max-iter as an int
        monkeypatch.setattr("opalg.cli.run_scenario", refuse)
        res = CliRunner().invoke(main, ["run", example_file(tmp_path),
                                        "--max-iter", str(max_iter)])
        assert res.exit_code == 3
        assert "max_iter" in res.output


def test_cli_budget_does_not_outlive_the_command(tmp_path):
    res = CliRunner().invoke(main, ["structure", example_file(tmp_path),
                                    "--cover", "diag", "--max-iter", "0"])
    assert res.exit_code == 2
    assert current() == RunConfig()
    assert current().max_iter == 50000
    span = t2_algebra().span
    identity = LinearMap(dom=span, cod=span.ambient, images=span.basis)
    assert cc_check(identity).verdict == CC


def test_outputs_do_not_depend_on_the_product_budget(tmp_path, monkeypatch):
    """The suite's verdict text and `opalg run`'s output are byte-identical
    with the checks' products stacked one basis row at a time and at the
    default budget: the budget changes only how a check is evaluated."""
    path = example_file(tmp_path)

    def outputs():
        run = CliRunner().invoke(main, ["run", path])
        assert run.exit_code == 0
        return paper_suite()["verdict_text"].encode(), run.output.encode()

    default = outputs()
    monkeypatch.setattr(linalg, "PRODUCT_BUDGET", 1)
    assert outputs() == default


def test_run_reports_the_seed_it_used(tmp_path):
    res = CliRunner().invoke(main, ["run", example_file(tmp_path),
                                    "--seed", "3"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["seed"] == 3
    assert report["all_pass"]


KNOB = re.compile(r"tol|seed|max_iter|restarts|iters|level|margin|gap|stall")


def test_run_settings_are_the_only_tuning_keywords():
    found = set()
    for path in sorted(pathlib.Path(opalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            pos = a.posonlyargs + a.args
            keywords = pos[len(pos) - len(a.defaults):] + a.kwonlyargs
            found |= {(path.stem, node.name, p.arg) for p in keywords
                      if KNOB.search(p.arg)}
    assert found == {("suite", "paper_suite", "seed")}
