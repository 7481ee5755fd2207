#!/usr/bin/env python3
"""Count the package's source lines and the values a user can set, and
print them as JSON.

    python3 scripts/count_settable.py

The counts come from an AST walk over ``src/zslkit/*.py``:

- ``source_lines``: lines of all the files together (``cat *.py | wc -l``);
- ``cli_flags``: calls to ``add_argument``;
- ``public_parameters``: parameters, other than ``self`` and ``cls``, of
  every function whose name does not start with ``_``, nested ones too;
- ``dataclass_fields``: annotated fields of classes decorated with
  ``@dataclass``;
- ``settable``: the sum of the last three.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def count(directory: Path) -> dict[str, int]:
    counts = dict(source_lines=0, cli_flags=0, public_parameters=0, dataclass_fields=0)
    for path in sorted(directory.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        counts["source_lines"] += text.count("\n")
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "add_argument":
                    counts["cli_flags"] += 1
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    a = node.args
                    params = a.posonlyargs + a.args + a.kwonlyargs
                    params += [p for p in (a.vararg, a.kwarg) if p is not None]
                    counts["public_parameters"] += sum(
                        p.arg not in ("self", "cls") for p in params
                    )
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                counts["dataclass_fields"] += sum(
                    isinstance(stmt, ast.AnnAssign) for stmt in node.body
                )
    counts["settable"] = (
        counts["cli_flags"] + counts["public_parameters"] + counts["dataclass_fields"]
    )
    return counts


def main() -> None:
    print(json.dumps(count(ROOT / "src" / "zslkit"), indent=2))


if __name__ == "__main__":
    main()
