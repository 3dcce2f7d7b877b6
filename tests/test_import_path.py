"""Importing the simulator loads neither the serving plane nor the experiments.

``python -m repro``, the benchmark's set-up and every worker process
import :mod:`repro.experiments.parallel`.  That import must stay
simulation-only: no stdlib HTTP/TLS stack, no serving plane, alerts,
history or report modules, no QoS control plane (``repro.qos``, loaded
only when a run attaches a controller), and no experiment module until
the runner asks the registry for one.  The check runs in a fresh interpreter,
because the test session itself has imported everything.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

OFF_THE_PATH = {
    "http.server", "http.client", "urllib.request", "ssl",
    "repro.telemetry.server", "repro.telemetry.federation",
    "repro.telemetry.alerts", "repro.telemetry.history",
    "repro.telemetry.report", "repro.qos",
}
#: The only ``repro.experiments`` modules a simulation may load (the
#: runner, charts and every experiment module stay out).
SIMULATION_EXPERIMENTS = {
    "repro.experiments", "repro.experiments.base",
    "repro.experiments.parallel",
}


def test_simulation_import_path_stays_off_the_serving_plane():
    src = str(Path(repro.__file__).resolve().parents[1])
    code = ("import json, sys\n"
            "import repro.experiments.parallel, repro.system.cmp, "
            "repro.workloads\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    experiments = {name for name in loaded
                   if name.startswith("repro.experiments")}
    assert "repro.experiments.parallel" in experiments
    assert sorted(loaded & OFF_THE_PATH) == []
    assert sorted(experiments - SIMULATION_EXPERIMENTS) == []


def test_telemetry_package_re_exports_nothing():
    init = Path(repro.__file__).parent / "telemetry" / "__init__.py"
    tree = ast.parse(init.read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))]
