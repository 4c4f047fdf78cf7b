#!/usr/bin/env python3
"""Emit the paper scenario as JSON: A4 with the swap action, T2 with the
sign action, their covers, and the golden checks with their frozen
expectations (`corpus.paper_scenario`, the checks `opalg paper-suite`
runs).

Usage: python scripts/make_paper_scenario.py > paper.json
       opalg run paper.json
"""

import json
import sys

from opalg.corpus import paper_scenario

if __name__ == "__main__":
    json.dump(paper_scenario(), sys.stdout, indent=2)
    print()
