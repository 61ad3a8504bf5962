"""Summarise a pytest JUnit report: outcome counts, total time, slowest tests.

Usage::

    python -m pytest -q --junitxml=tier1.xml
    python3 benchmarks/tier1_durations.py tier1.xml [--markdown]

Prints one JSON object: the counts of tests, failures, errors and skips, the
suite's total seconds, the 25 slowest test ids (``classname::name``, as in
the suite's own reports) with their seconds, and the host that runs this
script (``nproc`` and the Python version).  ``--markdown`` prints the same
as two tables, e.g. for a CI job summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import xml.etree.ElementTree as ElementTree

SLOWEST = 25


def summarise(path: str) -> dict:
    root = ElementTree.parse(path).getroot()
    cases = list(root.iter("testcase"))
    times = sorted(
        ((f"{c.get('classname')}::{c.get('name')}", float(c.get("time", 0))) for c in cases),
        key=lambda item: -item[1],
    )
    outcomes = {"failures": "failure", "errors": "error", "skipped": "skipped"}
    return {
        "tests": len(cases),
        **{
            key: sum(1 for case in cases if case.find(tag) is not None)
            for key, tag in outcomes.items()
        },
        "total_s": round(sum(float(s.get("time", 0)) for s in root.iter("testsuite")), 3),
        "slowest": [{"id": test, "seconds": seconds} for test, seconds in times[:SLOWEST]],
        "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
    }


def markdown(summary: dict) -> str:
    counts = ("tests", "failures", "errors", "skipped", "total_s")
    lines = ["| " + " | ".join(counts) + " |", "|" + "---|" * len(counts)]
    lines.append("| " + " | ".join(str(summary[key]) for key in counts) + " |")
    lines += ["", "| slowest test | s |", "|---|---|"]
    lines += [f"| `{row['id']}` | {row['seconds']:.2f} |" for row in summary["slowest"]]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("junit_xml")
    parser.add_argument("--markdown", action="store_true", help="print tables, not JSON")
    args = parser.parse_args(argv)
    summary = summarise(args.junit_xml)
    print(markdown(summary) if args.markdown else json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
