"""Guard: ``repro.cluster`` keeps the pool-worker import rule.

Process-mode shards run :func:`repro.cluster.shards.run_shard_point`
inside ``repro.parallel`` pool workers, so the whole cluster package is
worker surface and must honour the same ``HEAVY_MODULES`` rule the
parallel package pins for itself (``tests/parallel/test_import_hygiene``).
"""

import os
import pathlib
import subprocess
import sys

import repro
from repro.parallel import HEAVY_MODULES

CHECK_SNIPPET = """
import sys
import repro.cluster             # config/records/runner: the API surface
import repro.cluster.shards      # what run_shard_point executes
heavy = [name for name in {heavy!r} if name in sys.modules]
assert not heavy, f"cluster worker surface imported heavy modules: {{heavy}}"
print("clean")
"""


def test_cluster_import_surface_stays_lean():
    """Importing everything a cluster pool worker imports must not load
    any heavyweight optional dependency (fresh interpreter, like spawn)."""
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


def test_cluster_package_has_no_static_heavy_imports():
    """No module under repro.cluster may even mention a heavy import."""
    import repro.cluster

    package_dir = pathlib.Path(repro.cluster.__file__).parent
    for path in package_dir.glob("*.py"):
        source = path.read_text()
        for name in HEAVY_MODULES:
            assert f"import {name}" not in source, (
                f"{path.name} imports {name}; plotting/analysis belongs "
                "in the parent process, not in shard workers"
            )
