"""Every module-level function and class of the package is used.

A definition that no other line of src/, tests/, perfbench/ or demos/
names is a helper that nothing calls, and goes.  The search is by whole
word over the text of those files, with each definition's own lines
(decorators, signature and body) left out of its own module.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qhcodes"


def _definitions(path: Path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, start, node.end_lineno


def test_every_module_level_definition_is_named_elsewhere():
    texts = {p: p.read_text() for d in ("src", "tests", "perfbench", "demos")
             for p in sorted((ROOT / d).rglob("*.py"))}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = texts[path].splitlines()
        for name, start, end in _definitions(path):
            rest = "\n".join(lines[:start - 1] + lines[end:])
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(t) for t in [rest, *(t for p, t in texts.items()
                                                        if p != path)]):
                unused.append(f"{path.name}:{start} {name}")
    assert unused == []
