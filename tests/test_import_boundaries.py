"""The algorithm packages import none of the infrastructure packages, and no
module of the program imports networkx, which is only a dev dependency: tests
cross-check the flow solver against it."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

INFRASTRUCTURE = (
    "repro.analysis",
    "repro.distributed",
    "repro.orchestration",
    "repro.service",
    "repro.observability",
)


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter (this test process has imported
    everything already) and return its standard output."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return done.stdout


def _loaded_by_the_algorithms() -> list[str]:
    return json.loads(
        _fresh(
            "import json, sys\n"
            "import repro.eptas, repro.exact, repro.baselines, repro.solvers\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
    )


def test_algorithms_load_no_infrastructure():
    loaded = _loaded_by_the_algorithms()
    offending = [
        name
        for name in loaded
        if any(name == package or name.startswith(package + ".") for package in INFRASTRUCTURE)
    ]
    assert offending == []


def test_algorithms_load_without_networkx():
    # networkx is a dev dependency, so loading the algorithms must not load it.
    loaded = _loaded_by_the_algorithms()
    assert [name for name in loaded if name.split(".")[0] == "networkx"] == []


def test_no_module_imports_networkx():
    # Every import statement counts, inside functions and TYPE_CHECKING
    # blocks too, so an import that runs only when called is also caught.
    root = Path(repro.__file__).parent
    offending = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "networkx" for module in modules):
                offending.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offending == []


def test_eptas_runs_with_networkx_blocked():
    out = _fresh(
        "import sys\n"
        "sys.modules['networkx'] = None  # any import of it now raises\n"
        "from repro.eptas import eptas_schedule\n"
        "from repro.generators import uniform_random_instance\n"
        "instance = uniform_random_instance(num_jobs=12, num_machines=3, num_bags=4, seed=0).instance\n"
        "result = eptas_schedule(instance, 0.5)\n"
        "result.schedule.validate(require_complete=True)\n"
        "print(result.makespan > 0)\n"
    )
    assert out.strip() == "True"
