"""Command-line front end.

Every subcommand except `paper-suite` takes a scenario JSON file plus the
names of the objects to operate on, runs a single check, and prints a
report.  Exit codes: 0 all checks pass, 1 a check failed, 2 a verdict was
inconclusive, 3 malformed input.
"""

from __future__ import annotations

import sys

import click

from . import __version__
from .cb import Undecided
from .linalg import MEMBER_TOL, RunConfig, using
from .scenario import ScenarioError, load_scenario, run_check, run_scenario
from .serialize import dumps
from .suite import paper_suite

EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_INPUT = 0, 1, 2, 3


def _common(fn):
    fn = click.option("--seed", type=int, default=RunConfig().seed,
                      show_default=True,
                      help="seed for the randomized searches")(fn)
    fn = click.option("--max-iter", type=int, default=RunConfig().max_iter,
                      show_default=True,
                      help="iteration cap for the feasibility solver")(fn)
    fn = click.option("--format", "fmt",
                      type=click.Choice(["json", "text"]), default="json",
                      show_default=True, help="report rendering")(fn)
    return fn


def _render(report, fmt):
    if fmt == "json":
        click.echo(dumps(report, indent=2))
        return
    for entry in report.get("checks", []):
        status = "PASS" if entry.get("pass") else (
            "INCONCLUSIVE" if entry.get("status") == "inconclusive"
            else "FAIL")
        name = entry.get("name") or entry.get("op")
        click.echo(f"{status:12s} {name}")
        result = entry.get("result") or entry.get("data") or {}
        for k in sorted(result, key=str):
            click.echo(f"    {k}: {result[k]}")
    click.echo(f"all_pass: {report.get('all_pass')}")


def _exit_code(report):
    if report.get("inconclusive"):
        return EXIT_INCONCLUSIVE
    return EXIT_PASS if report.get("all_pass") else EXIT_FAIL


def _build_report(seed, max_iter, make_report):
    """Build a report inside the run configuration; exit 3 on malformed
    input and 2 when a verdict the report needs is inconclusive."""
    try:
        with using(seed=seed, max_iter=max_iter):
            return make_report()
    except ScenarioError as exc:
        click.echo(dumps({"error": str(exc)}, indent=2), err=True)
        sys.exit(EXIT_INPUT)
    except Undecided as exc:
        click.echo(dumps({"inconclusive": str(exc)}, indent=2), err=True)
        sys.exit(EXIT_INCONCLUSIVE)


def _report_and_exit(seed, max_iter, fmt, make_report):
    """Build a report, print it and exit with its code."""
    report = _build_report(seed, max_iter, make_report)
    _render(report, fmt)
    sys.exit(_exit_code(report))


def _single(scenario, check, seed, max_iter, fmt):
    def make_report():
        entry = run_check(load_scenario(scenario), check)
        return {"seed": seed, "tol": MEMBER_TOL, "checks": [entry],
                "all_pass": entry["pass"],
                "inconclusive": entry["status"] == "inconclusive"}

    _report_and_exit(seed, max_iter, fmt, make_report)


@click.group()
@click.version_option(__version__)
def main():
    """Workbench for C*-covers of matrix operator algebras: structure,
    envelopes, group actions, crossed products and partial-action
    recovery."""


@main.command("run")
@click.argument("scenario", type=click.Path(exists=True))
@_common
def run_cmd(scenario, seed, max_iter, fmt):
    """Run every check listed in a scenario file."""
    _report_and_exit(seed, max_iter, fmt, lambda: run_scenario(scenario))


def _named_command(op, params):
    """Factory for single-check subcommands."""

    @click.argument("scenario", type=click.Path(exists=True))
    @_common
    def cmd(scenario, seed, max_iter, fmt, **kwargs):
        check = {"op": op}
        for key, value in kwargs.items():
            if key == "covers":
                value = [c.strip() for c in value.split(",") if c.strip()]
            if value is not None:
                check[key] = value
        _single(scenario, check, seed, max_iter, fmt)

    for name, required, help_ in reversed(params):
        cmd = click.option(f"--{name}", required=required, help=help_)(cmd)
    cmd.__doc__ = f"Run the {op} check on objects from a scenario file."
    return cmd


main.command("check-cover")(_named_command(
    "check-cover", [("cover", True, "cover name")]))
main.command("structure")(_named_command(
    "structure", [("cover", True, "cover name")]))
main.command("shilov")(_named_command(
    "shilov", [("cover", True, "cover name")]))
main.command("envelope")(_named_command(
    "envelope", [("cover", True, "cover name")]))
main.command("order")(_named_command(
    "order", [("upper", True, "upper cover"), ("lower", True, "lower cover")]))
main.command("admissible")(_named_command(
    "admissible", [("system", True, "system name"),
                   ("cover", True, "cover name")]))
main.command("inner")(_named_command(
    "inner", [("system", True, "system name"),
              ("cover", False, "cover name (omit: in the algebra itself)")]))
main.command("crossed")(_named_command(
    "crossed", [("system", True, "system name"),
                ("cover", False, "cover name (omit: over the envelope)")]))
main.command("partial")(_named_command(
    "partial", [("system", True, "system name"),
                ("cover", True, "cover name")]))
main.command("join")(_named_command(
    "join", [("covers", True, "comma-separated cover names")]))
main.command("meet")(_named_command(
    "meet", [("covers", True, "comma-separated pair of cover names")]))


@main.command("paper-suite")
@_common
def paper_suite_cmd(seed, max_iter, fmt):
    """Run the golden example corpus."""
    report = _build_report(seed, max_iter, lambda: paper_suite(seed=seed))
    if fmt == "json":
        click.echo(report["verdict_text"])
    else:
        _render({"checks": report["verdicts"]["checks"],
                 "all_pass": report["all_pass"]}, "text")
    sys.exit(EXIT_PASS if report["all_pass"] else EXIT_FAIL)


if __name__ == "__main__":
    main()
