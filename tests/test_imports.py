"""Every import in src/, tests/ and scripts/ is used, and every public name and
public class member in src/hmsurf has a reader outside the tests.

A name counts as used when the module reads it, lists it in `__all__`, or
names it inside a string annotation such as "EllipticCounts | None".
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported(tree):
    """(name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs \
                    + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(node):
    """Names read in an expression, looking inside string annotations."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _names(ast.parse(sub.value, mode="eval"))


def _used(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        used.update(_names(annotation))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree) if name not in used)


def test_checker_sees_all_string_annotations_and_unused():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from a import B, C, D, E\n"
        "__all__ = ['B']\n"
        "def f(x: 'C | None') -> 'list[D]':\n"
        "    return system\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "E")]


def test_no_unused_imports():
    found = []
    for folder in ("src", "tests", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for line, name in unused_imports(path.read_text(encoding="utf-8")):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)



def _defined(node):
    """Names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _reads(node):
    """Names a statement reads: loaded names, attribute names, imported names
    and names inside string annotations."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    for annotation in _annotations(node):
        out.update(_names(annotation))
    return out


def unreferenced(modules, callers=(), roots=()):
    """Public module-level names in `modules` (module name -> source) that no
    other top-level statement of theirs, no `callers` source and no entry
    point in `roots` reads.  A definition's own body does not count, and
    names match by name alone."""
    statements = [(mod, node, _reads(node))
                  for mod, source in modules.items() for node in ast.parse(source).body]
    outside = set(roots).union(*(_reads(ast.parse(source)) for source in callers))
    return sorted(
        f"{mod}.{name}" for mod, node, _ in statements for name in _defined(node)
        if not name.startswith("_") and name not in outside
        and not any(name in reads for _, other, reads in statements if other is not node))


def test_unreferenced_checker_on_synthetic_source():
    modules = {
        "a": "import b\nLIMIT = 3\n_hidden = 1\ndef run():\n    return b.helper(LIMIT)\n"
             "def dead(n):\n    return dead(n - 1)\nclass Shape:\n    pass\n",
        "b": "def helper(x: 'Shape | None'):\n    return x\ndef scripted():\n    pass\n"
             "def orphan():\n    pass\n",
    }
    script = "from b import scripted\nscripted()\n"
    assert unreferenced(modules, [script], {"run"}) == ["a.dead", "b.orphan"]
    assert unreferenced(modules, [script]) == ["a.dead", "a.run", "b.orphan"]


def _attribute_reads(tree):
    return Counter(sub.attr for sub in ast.walk(tree)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _members(cls):
    """(name, node) for the methods, properties, class-body attributes and
    annotated class-body fields a class body defines."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def unread_members(modules, callers=()):
    """Public members (methods, properties, class-body attributes, annotated
    class-body fields) of the top-level classes in `modules` whose name no `modules` or
    `callers` source reads as an attribute outside the member's own body.
    Names match by name alone, so a member that shares its name with an
    attribute read elsewhere escapes."""
    trees = {mod: ast.parse(source) for mod, source in modules.items()}
    reads = Counter()
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        reads.update(_attribute_reads(tree))
    return sorted(
        f"{mod}.{cls.name}.{name}"
        for mod, tree in trees.items() for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for name, node in _members(cls)
        if not name.startswith("_") and reads[name] == _attribute_reads(node)[name])


def test_unread_methods_checker_on_synthetic_source():
    modules = {
        "a": "class Form:\n"
             "    def used(self):\n        return self.helper()\n"
             "    def helper(self):\n        return 1\n"
             "    def scripted(self):\n        pass\n"
             "    def recursive(self, n):\n        return self.recursive(n - 1)\n"
             "    def orphan(self):\n        pass\n"
             "    def _private(self):\n        pass\n"
             "    @property\n    def shown(self):\n        return 1\n"
             "    def __str__(self):\n        return ''\n"
             "def orphan():\n    pass\n",
        "b": "from a import Form\nprint(Form().used(), Form().shown)\n",
    }
    script = "from a import Form\nForm().scripted()\n"
    assert unread_members(modules, [script]) == ["a.Form.orphan", "a.Form.recursive"]
    assert unread_members(modules) == ["a.Form.orphan", "a.Form.recursive",
                                       "a.Form.scripted"]


def test_unread_attributes_checker_on_synthetic_source():
    modules = {
        "a": "from dataclasses import dataclass\n"
             "@dataclass\nclass Row:\n"
             "    D: int\n    tag: str = 'x'\n    shown: int = 0\n    _cache: int = 0\n"
             "class Error(ValueError):\n    code = 'e'\n    kind = 'k'\n    __slots__ = ()\n"
             "def make():\n    return Row(D=1, tag='y')\n",
        "b": "from a import Row, Error\nprint(Row(D=2).D, Error.kind)\n",
    }
    script = "from a import Row\nprint(Row(D=3).shown)\n"
    assert unread_members(modules, [script]) == ["a.Error.code", "a.Row.tag"]
    assert unread_members(modules) == ["a.Error.code", "a.Row.shown", "a.Row.tag"]


def test_every_public_name_has_a_runtime_reader():
    # only the CLI entry point, scripts/ and src/ itself count as readers; the
    # package __init__ just re-exports
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in (ROOT / "src" / "hmsurf").glob("*.py")
               if path.stem != "__init__"}
    scripts = [path.read_text(encoding="utf-8")
               for path in (ROOT / "scripts").rglob("*.py")]
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    entry = pyproject.split("[project.scripts]", 1)[1].split("\n[")[0]
    roots = set(re.findall(r':(\w+)"', entry))
    assert roots == {"main"}
    found = unreferenced(modules, scripts, roots) + unread_members(modules, scripts)
    assert not found, "public names nothing outside the tests reads:\n" + "\n".join(found)


def test_cli_import_loads_no_dataclasses():
    # every cold run imports the CLI; `dataclasses` would load `inspect`, `ast`,
    # `dis` and `tokenize`, and each @dataclass execs generated source
    code = "import sys, hmsurf.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n", done.stdout
