"""Fire-and-forget processes start with ``spawn``, not ``process``.

``Environment.process`` returns the process so that someone can wait on
it, and its exit is scheduled as an event whether or not anyone does.
``Environment.spawn`` returns nothing and schedules no exit on success,
so a run that starts its fire-and-forget processes with it dispatches
fewer events with the same result.  This scanner fails on any
``.process(...)`` call under ``src/repro`` whose result is discarded, or
is stored and never read: such a call should be ``.spawn(...)``.  Ruff
has no rule for this, so the scan runs wherever pytest runs.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _unused_processes(source: str) -> List[int]:
    """Line numbers of ``.process(...)`` calls whose result nobody reads."""
    tree = ast.parse(source)
    parents: Dict[ast.AST, ast.AST] = {}
    functions: Dict[ast.AST, ast.AST] = {}

    def link(node: ast.AST, function: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            parents[child] = node
            functions[child] = function
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            link(child, child if inner else function)

    link(tree, tree)
    # Attributes read anywhere in the module (self._job read by another
    # method counts as a use).
    read_attributes = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }

    def name_read(name: str, scope: ast.AST) -> bool:
        return any(
            isinstance(node, ast.Name) and node.id == name
            and isinstance(node.ctx, ast.Load)
            for node in ast.walk(scope)
        )

    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "process"):
            continue
        parent = parents[node]
        if isinstance(parent, ast.Expr):
            found.append(node.lineno)
        elif isinstance(parent, (ast.Assign, ast.AnnAssign)) and parent.value is node:
            targets = parent.targets if isinstance(parent, ast.Assign) else [parent.target]
            used = False
            for target in targets:
                if isinstance(target, ast.Name):
                    used = used or name_read(target.id, functions[node])
                elif isinstance(target, ast.Attribute):
                    used = used or target.attr in read_attributes
                else:
                    used = True  # unpacking or subscripts: assume read
            if not used:
                found.append(node.lineno)
    return sorted(found)


def test_scanner_finds_discarded_and_unread_processes():
    source = (
        "def f(env):\n"
        "    env.process(a())\n"                    # 2: discarded
        "    unused = env.process(b())\n"           # 3: stored, never read
        "    done = env.process(c())\n"
        "    yield done\n"
        "    jobs = [env.process(d()) for _ in ()]\n"
        "    yield env.all_of(jobs)\n"
        "    yield env.process(e())\n"
        "class A:\n"
        "    def __init__(self, env):\n"
        "        self._kept = env.process(f())\n"
        "        self._dropped = env.process(g())\n"  # 12: never read
        "    def join(self):\n"
        "        return self._kept\n"
    )
    assert _unused_processes(source) == [2, 3, 12]


def test_fire_and_forget_processes_use_spawn():
    offenders = [
        f"{path.relative_to(SRC).as_posix()}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _unused_processes(path.read_text())
    ]
    assert not offenders, (
        "a process whose result nobody reads should start with env.spawn(...), "
        "which schedules no exit event:\n  " + "\n  ".join(offenders)
    )
