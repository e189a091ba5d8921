"""Every public name of the library has a caller outside the tests.

A name in a module's ``__all__`` must be used on some line of ``src/gpswf``
other than its own definition, its ``__all__`` entry and ``__init__``.
Otherwise perfbench must name it, or the README must list it in its "Python
API" section.  Sources are read with ``ast``; reference oracles live in
``tests/oracles.py``, not in the library.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gpswf"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _exports(tree):
    """The module's ``__all__`` list and the line span of each top-level
    definition."""
    names, spans = [], {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            spans[node.name] = (node.lineno, node.end_lineno)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    spans[target.id] = (node.lineno, node.end_lineno)
                    if target.id == "__all__":
                        names = ast.literal_eval(node.value)
    return names, spans


def _references(tree):
    """(name, line) of every name read and every attribute taken."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _perfbench_names():
    """Names, attributes and the dotted words of string literals (layer names
    such as ``"specfun.ln_beta"``) in perfbench's sources."""
    out = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        out.update(name for name, _ in _references(tree))
        out.update(word for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   for word in re.findall(r"\w+", node.value))
    return out


def _readme_api():
    """``module.name`` entries in backticks in the README's Python API section."""
    text = (ROOT / "README.md").read_text()
    match = re.search(r"^## Python API\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    return set(re.findall(r"`(\w+\.\w+)", match.group(1))) if match else set()


def test_every_public_name_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    uses = defaultdict(list)  # name -> (module, line) of each reference
    for stem, tree in trees.items():
        for name, line in _references(tree):
            uses[name].append((stem, line))
    listed = {entry.split(".")[1] for entry in _readme_api()}
    outside = _perfbench_names() | listed
    unused = []
    for stem, tree in trees.items():
        names, spans = _exports(tree)
        for name in names:
            assert name in spans, f"{stem}.__all__ names undefined {name}"
            lo, hi = spans[name]
            used = any(not (other == stem and lo <= line <= hi)
                       for other, line in uses[name])
            if not (used or name in outside):
                unused.append(f"{stem}.{name}")
    assert not unused, f"public names without a caller: {unused}"


def test_readme_api_entries_exist():
    entries = _readme_api()
    assert entries
    for entry in sorted(entries):
        module, name = entry.split(".")
        tree = ast.parse((SRC / f"{module}.py").read_text())
        assert name in _exports(tree)[1], entry
