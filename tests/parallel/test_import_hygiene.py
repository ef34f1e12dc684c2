"""Guard: sweep workers must never import heavyweight optional deps.

A spawned worker imports ``repro.parallel.tasks`` plus whatever the task
touches.  If that transitively pulled matplotlib & co, every worker in
every sweep would pay the import (and memory) tax — so the import graph
is pinned down here, and :func:`repro.parallel.executor._pool_point`
enforces the same rule at runtime inside real pool workers.
"""

import os
import pathlib
import subprocess
import sys

import repro
from repro.parallel import HEAVY_MODULES

CHECK_SNIPPET = """
import sys
import repro.parallel            # executor + tasks: the worker surface
import repro.serving.runner      # what run_experiment_point executes
import repro.faults.experiment   # what a fault-sweep worker executes
heavy = [name for name in {heavy!r} if name in sys.modules]
assert not heavy, f"worker surface imported heavy modules: {{heavy}}"
print("clean")
"""


def test_worker_import_surface_stays_lean():
    """Importing everything a pool worker imports must not load any
    heavyweight optional dependency (fresh interpreter, like spawn)."""
    # The child needs the same import path pytest gave us; pytest's
    # ``pythonpath`` ini option does not propagate to subprocesses.
    package_root = str(pathlib.Path(repro.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHECK_SNIPPET.format(heavy=HEAVY_MODULES)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "clean"


def test_parallel_package_has_no_static_heavy_imports():
    """No module under repro.parallel may even mention a heavy import."""
    import repro.parallel

    package_dir = pathlib.Path(repro.parallel.__file__).parent
    for path in package_dir.glob("*.py"):
        source = path.read_text()
        for name in HEAVY_MODULES:
            assert f"import {name}" not in source, (
                f"{path.name} imports {name}; plotting/analysis belongs "
                "in the parent process, not in sweep workers"
            )


def test_heavy_module_list_covers_matplotlib():
    assert "matplotlib" in HEAVY_MODULES
