"""benchmarks/tier1_durations.py on a hand-written JUnit report."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "tier1_durations.py"

REPORT = """<?xml version="1.0" encoding="utf-8"?>
<testsuites>
  <testsuite name="pytest" errors="1" failures="1" skipped="1" tests="30" time="41.5">
    {passed}
    <testcase classname="tests.test_b.TestB" name="test_fails" time="7.25">
      <failure message="assert 1 == 2">trace</failure>
    </testcase>
    <testcase classname="tests.test_b" name="test_errors[x]" time="0.5">
      <error message="fixture failed">trace</error>
    </testcase>
    <testcase classname="tests.test_c" name="test_skipped" time="0.0">
      <skipped message="no IPv6" />
    </testcase>
  </testsuite>
</testsuites>
"""


def _run(tmp_path: Path, *flags: str) -> str:
    passed = "\n".join(
        f'<testcase classname="tests.test_a" name="test_{i}" time="{i / 10}" />'
        for i in range(27)
    )
    report = tmp_path / "tier1.xml"
    report.write_text(REPORT.format(passed=passed))
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(report), *flags],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout


def test_json_counts_total_and_the_25_slowest(tmp_path):
    summary = json.loads(_run(tmp_path))
    assert (summary["tests"], summary["failures"], summary["errors"], summary["skipped"]) == (
        30, 1, 1, 1,
    )
    assert summary["total_s"] == 41.5
    slowest = summary["slowest"]
    assert len(slowest) == 25
    assert slowest[0] == {"id": "tests.test_b.TestB::test_fails", "seconds": 7.25}
    assert slowest[1] == {"id": "tests.test_a::test_26", "seconds": 2.6}
    assert [row["seconds"] for row in slowest] == sorted(
        (row["seconds"] for row in slowest), reverse=True
    )
    assert set(summary["host"]) == {"nproc", "python"}


def test_markdown_prints_the_same_as_tables(tmp_path):
    lines = _run(tmp_path, "--markdown").splitlines()
    assert lines[:3] == [
        "| tests | failures | errors | skipped | total_s |",
        "|---|---|---|---|---|",
        "| 30 | 1 | 1 | 1 | 41.5 |",
    ]
    assert lines[4:7] == [
        "| slowest test | s |",
        "|---|---|",
        "| `tests.test_b.TestB::test_fails` | 7.25 |",
    ]
    assert len(lines) == 6 + 25
