"""Command-line front end.

Every subcommand except `paper-suite` takes a scenario JSON file plus the
names of the objects to operate on, runs a single check, and prints a
report.  Exit codes: 0 all checks pass, 1 a check failed, 2 a verdict was
inconclusive, 3 malformed input.
"""

from __future__ import annotations

import sys

import click

from . import __version__, cb
from .cb import Undecided
from .scenario import ScenarioError, load_scenario, run_check, run_scenario
from .serialize import dumps
from .suite import paper_suite

EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_INPUT = 0, 1, 2, 3


def _common(fn):
    fn = click.option("--tol", type=float, default=1e-8,
                      show_default=True, help="membership tolerance")(fn)
    fn = click.option("--seed", type=int, default=0, show_default=True,
                      help="seed for randomized searches")(fn)
    fn = click.option("--max-iter", type=int, default=None,
                      help="iteration cap for the feasibility solver")(fn)
    fn = click.option("--format", "fmt",
                      type=click.Choice(["json", "text"]), default="json",
                      show_default=True, help="report rendering")(fn)
    return fn


def _apply_budgets(max_iter):
    if max_iter is not None:
        cb.MAX_ITER = max_iter


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


def _single(scenario, check, tol, seed, max_iter, fmt):
    _apply_budgets(max_iter)
    try:
        sc = load_scenario(scenario, tol=tol, seed=seed)
        entry = run_check(sc, check)
    except ScenarioError as exc:
        click.echo(dumps({"error": str(exc)}, indent=2), err=True)
        sys.exit(EXIT_INPUT)
    except Undecided as exc:
        click.echo(dumps({"inconclusive": str(exc)}, indent=2), err=True)
        sys.exit(EXIT_INCONCLUSIVE)
    report = {"seed": seed, "tol": tol, "checks": [entry],
              "all_pass": entry["pass"],
              "inconclusive": entry["status"] == "inconclusive"}
    _render(report, fmt)
    sys.exit(_exit_code(report))


@click.group()
@click.version_option(__version__)
def main():
    """Workbench for C*-covers of matrix operator algebras: structure,
    envelopes, group actions, crossed products and partial-action
    recovery."""


@main.command("run")
@click.argument("scenario", type=click.Path(exists=True))
@_common
def run_cmd(scenario, tol, seed, max_iter, fmt):
    """Run every check listed in a scenario file."""
    _apply_budgets(max_iter)
    try:
        report = run_scenario(scenario, tol=tol, seed=seed)
    except ScenarioError as exc:
        click.echo(dumps({"error": str(exc)}, indent=2), err=True)
        sys.exit(EXIT_INPUT)
    except Undecided as exc:
        click.echo(dumps({"inconclusive": str(exc)}, indent=2), err=True)
        sys.exit(EXIT_INCONCLUSIVE)
    _render(report, fmt)
    sys.exit(_exit_code(report))


def _named_command(op, params):
    """Factory for single-check subcommands."""

    @click.argument("scenario", type=click.Path(exists=True))
    @_common
    def cmd(scenario, tol, seed, max_iter, fmt, **kwargs):
        check = {"op": op}
        for key, value in kwargs.items():
            if value is not None:
                check[key] = value
        _single(scenario, check, tol, seed, max_iter, fmt)

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


@main.command("join")
@click.argument("scenario", type=click.Path(exists=True))
@click.option("--covers", required=True,
              help="comma-separated cover names")
@_common
def join_cmd(scenario, covers, tol, seed, max_iter, fmt):
    """Join of named covers."""
    names = [c.strip() for c in covers.split(",") if c.strip()]
    _single(scenario, {"op": "join", "covers": names},
            tol, seed, max_iter, fmt)


@main.command("meet")
@click.argument("scenario", type=click.Path(exists=True))
@click.option("--covers", required=True,
              help="comma-separated pair of cover names")
@_common
def meet_cmd(scenario, covers, tol, seed, max_iter, fmt):
    """Meet of two named covers."""
    names = [c.strip() for c in covers.split(",") if c.strip()]
    _single(scenario, {"op": "meet", "covers": names},
            tol, seed, max_iter, fmt)


@main.command("paper-suite")
@_common
def paper_suite_cmd(tol, seed, max_iter, fmt):
    """Run the golden example corpus."""
    _apply_budgets(max_iter)
    report = paper_suite(seed=seed, tol=tol)
    if fmt == "json":
        click.echo(report["verdict_text"])
    else:
        _render({"checks": report["verdicts"]["checks"],
                 "all_pass": report["all_pass"]}, "text")
    sys.exit(EXIT_PASS if report["all_pass"] else EXIT_FAIL)


if __name__ == "__main__":
    main()
