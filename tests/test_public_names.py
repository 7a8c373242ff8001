"""Every public module-level name of the package is reached from outside the
tests: from another line of `src/wendnet`, from the benchmark's
`perfbench/*.py`, or from `pyproject.toml` (the console script).  A public
name that only tests call is a second way into math the engine reaches
another way, and goes."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wendnet"


def _public_definitions(path):
    """(name, line) of each public function, class and constant that the
    module at `path` defines at its top level."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno


def test_every_public_name_is_reached_outside_the_tests():
    sources = {path: path.read_text(encoding="utf-8").splitlines()
               for path in sorted(PACKAGE.glob("*.py"))}
    outside = "\n".join([path.read_text(encoding="utf-8")
                         for path in sorted((ROOT / "perfbench").glob("*.py"))]
                        + [(ROOT / "pyproject.toml").read_text(encoding="utf-8")])
    unreached = []
    for path in sources:
        for name, lineno in _public_definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            # every src line but the definition's own, then the outside files
            reached = word.search(outside) or any(
                word.search(line) for other, lines in sources.items()
                for i, line in enumerate(lines, 1) if (other, i) != (path, lineno))
            if not reached:
                unreached.append(f"{path.name}:{lineno} {name}")
    assert unreached == []
