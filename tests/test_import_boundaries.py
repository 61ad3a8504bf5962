"""The algorithm packages import none of the infrastructure packages."""

from __future__ import annotations

import json
import os
import subprocess
import sys

INFRASTRUCTURE = (
    "repro.analysis",
    "repro.distributed",
    "repro.orchestration",
    "repro.service",
    "repro.observability",
)


def test_algorithms_load_no_infrastructure():
    # A fresh interpreter: this test process has imported everything already.
    code = (
        "import json, sys\n"
        "import repro.eptas, repro.exact, repro.baselines, repro.solvers\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    loaded = json.loads(done.stdout)
    offending = [
        name
        for name in loaded
        if any(name == package or name.startswith(package + ".") for package in INFRASTRUCTURE)
    ]
    assert offending == []
