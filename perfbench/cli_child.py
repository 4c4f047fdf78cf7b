"""Traced `opalg` command line, run as a child process by the cli-scenario
workload.

Usage: python perfbench/cli_child.py TRACE_OUT [opalg arguments...]

Times the import of ``opalg.cli`` as the span ``cli.import``, runs the
command with the layer tracer installed, writes the aggregated trace as JSON
to TRACE_OUT and exits with the command's exit code.
"""

import json
import sys

from tracer import Tracer, installed


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        from opalg import cli
    code = 0
    with installed(tracer), tracer.running():
        try:
            cli.main(argv, prog_name="opalg")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    with open(out, "w") as fh:
        json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
