"""Clock hygiene: policy code never touches a clock or event queue.

The whole point of the execution kernel is that everything above it —
``repro.core``, ``repro.serving``, ``repro.apps``, ``repro.brokers``,
``repro.faults``, ``repro.hardware``, ``repro.telemetry``, ``repro.live``
— runs identically under virtual time and the wall clock.  That only
holds if policy modules obtain time and scheduling exclusively through
the :class:`~repro.kernel.ExecutionBackend` protocol.  This test is the
always-on enforcement of the ban (the ruff ``TID251`` configuration in
``pyproject.toml`` is the same gate for editors and CI lint, but ruff
is an optional tool; this scanner runs wherever pytest runs).

Banned outside ``repro.sim`` / ``repro.kernel``:

- ``heapq`` imports — event queues are the kernel's;
- ``time.time()`` / ``time.monotonic()`` — read ``env.now``;
- ``asyncio.sleep()`` — yield ``env.timeout(...)``;
- assigning to an attribute named ``now`` (``x.now = ...``,
  ``x.now += ...``) — ``Environment.now`` is a plain attribute, and only
  the kernel's dispatch loops (and ``AsyncioBackend.touch``) move it.

``time.perf_counter`` stays allowed: benchmarking how long the
*simulator* takes is measurement of the tool, not policy time.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Tuple

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Path prefixes (relative to src/repro) exempt from the ban.  Keep in
#: sync with the TID251 per-file-ignores in pyproject.toml.
EXEMPT_PREFIXES = ("sim/", "kernel/")
#: Files (relative to src/repro) exempt from the heapq ban only.
HEAPQ_EXEMPT_FILES = {
    # heapq as a k-way-merge data structure over arrival streams — not
    # an event queue.
    "workload/source.py",
}

BANNED_FROM_IMPORTS = {
    ("time", "time"),
    ("time", "monotonic"),
    ("asyncio", "sleep"),
}
BANNED_ATTRIBUTES = {"time.time", "time.monotonic", "asyncio.sleep"}


def _policy_files() -> List[Path]:
    files = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith(EXEMPT_PREFIXES):
            continue
        files.append(path)
    return files


def _violations(path: Path, heapq_allowed: bool = False) -> List[Tuple[int, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if not heapq_allowed and (
                        alias.name == "heapq" or alias.name.startswith("heapq.")):
                    found.append((node.lineno, "import heapq"))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "heapq" and not heapq_allowed:
                found.append((node.lineno, "from heapq import ..."))
            for alias in node.names:
                if (node.module, alias.name) in BANNED_FROM_IMPORTS:
                    found.append(
                        (node.lineno, f"from {node.module} import {alias.name}")
                    )
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            dotted = f"{node.value.id}.{node.attr}"
            if dotted in BANNED_ATTRIBUTES:
                found.append((node.lineno, dotted))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for part in ast.walk(target):
                    if (isinstance(part, ast.Attribute) and part.attr == "now"
                            and isinstance(part.ctx, ast.Store)):
                        found.append((node.lineno, "assignment to .now"))
    return found


def test_scanner_covers_the_tree():
    files = _policy_files()
    assert len(files) > 40, "scanner found suspiciously few policy modules"
    covered = {f.relative_to(SRC).parts[0] for f in files}
    for package in ("core", "serving", "apps", "brokers", "live", "telemetry"):
        assert package in covered


def test_scanner_detects_each_banned_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import heapq\n"
        "from heapq import heappush\n"
        "from time import monotonic\n"
        "import time\n"
        "import asyncio\n"
        "t = time.time()\n"
        "m = time.monotonic()\n"
        "async def f():\n"
        "    await asyncio.sleep(1)\n"
        "env.now = 1.0\n"
        "env.now += 1.0\n"
        "env.now: float = 1.0\n"
        "other, env.now = 1.0, 2.0\n"
        "times[env.now] = env.now\n"
    )
    found = _violations(bad)
    assert {kind for _, kind in found} == {
        "import heapq",
        "from heapq import ...",
        "from time import monotonic",
        "time.time",
        "time.monotonic",
        "asyncio.sleep",
        "assignment to .now",
    }
    # Four writes; reading ``env.now`` (even inside a target) is fine.
    assert [line for line, kind in found if kind == "assignment to .now"] == [
        10, 11, 12, 13]


def test_heapq_exemption_covers_heapq_only(tmp_path):
    merge = tmp_path / "merge.py"
    merge.write_text("import heapq\nfrom heapq import merge\nsource.now = 0.0\n")
    assert _violations(merge, heapq_allowed=True) == [(3, "assignment to .now")]


def test_policy_code_is_clock_clean():
    offenders = []
    for path in _policy_files():
        heapq_allowed = path.relative_to(SRC).as_posix() in HEAPQ_EXEMPT_FILES
        for lineno, kind in _violations(path, heapq_allowed):
            offenders.append(f"{path.relative_to(SRC)}:{lineno}: {kind}")
    assert not offenders, (
        "policy code must get time/scheduling from repro.kernel, found:\n  "
        + "\n  ".join(offenders)
    )
