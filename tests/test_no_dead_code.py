"""Every module-level function, class and constant of the package, and
every method of its classes, is used.

A definition that no other line of src/, tests/, perfbench/ or demos/
names is a helper or a table that nothing reads, and goes.  The search
is by whole word over the text of those files, with each definition's
own lines (decorators, signature and body, or the assignment) left out
of its own module.  Dunder names, which Python calls itself, are not
searched.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qhcodes"


def _span(node):
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _definitions(path: Path):
    """(name, first line, last line) of each module-level def, class and
    constant, and of each method of a module-level class."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, _span(node), node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, _span(item), item.end_lineno
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node.lineno, node.end_lineno


def test_every_module_level_definition_is_named_elsewhere():
    texts = {p: p.read_text() for d in ("src", "tests", "perfbench", "demos")
             for p in sorted((ROOT / d).rglob("*.py"))}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = texts[path].splitlines()
        for name, start, end in _definitions(path):
            if name.startswith("__") and name.endswith("__"):
                continue
            rest = "\n".join(lines[:start - 1] + lines[end:])
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(t) for t in [rest, *(t for p, t in texts.items()
                                                        if p != path)]):
                unused.append(f"{path.name}:{start} {name}")
    assert unused == []
