#!/usr/bin/env python3
"""Print the two golden digests of the library: the sha256 of
`paper_suite()["verdict_text"]` and of the output of `opalg run` on the
example scenario that make_example_scenario.py builds.

BLAS and OpenMP are pinned to one thread before numpy loads, so the
digests do not move with the thread count's summation order.

The checkout's `src` goes first on sys.path, so the digests are those of
the checkout the script sits in, installed or not.

Usage: python scripts/golden_digests.py
"""

import os
import pathlib
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import hashlib  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402

from click.testing import CliRunner  # noqa: E402

from make_example_scenario import build  # noqa: E402
from opalg.cli import main as opalg_main  # noqa: E402
from opalg.suite import paper_suite  # noqa: E402


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_digest():
    """sha256 of `opalg run` stdout on the example scenario."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "t2.json"
        path.write_text(json.dumps(build(), indent=2) + "\n")
        result = CliRunner().invoke(opalg_main, ["run", str(path)])
    if result.exit_code != 0:
        raise SystemExit(f"opalg run exited {result.exit_code}:\n"
                         f"{result.output}")
    return sha256(result.output)


if __name__ == "__main__":
    print(f"verdict_text  {sha256(paper_suite()['verdict_text'])}")
    print(f"opalg run     {run_digest()}")
