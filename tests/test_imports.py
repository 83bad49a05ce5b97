"""Every name a module imports is used in that module, and importing the
CLI loads no module it does not need."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import bfk

PACKAGE = Path(bfk.__file__).resolve().parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_modules_use_every_name_they_import():
    # __init__.py imports names to re-export them, so it is left out
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    unused = [u for p in modules for u in _unused_imports(p)]
    assert unused == []


def _code_in_readme() -> set[str]:
    """Identifiers inside the README's code blocks and inline code."""
    text = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def _names_in(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_definition_is_reached():
    # a top-level public function or class must be named by another
    # definition or by module-level code in the package, or by the README;
    # re-exports in __init__.py and uses in tests do not count
    nodes = [(p.name, node)
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"
             for node in ast.parse(p.read_text(encoding="utf-8")).body]
    names = [_names_in(node) for _, node in nodes]
    count = Counter(n for ns in names for n in ns)
    readme = _code_in_readme()
    unreached = [f"{mod}:{node.lineno} {node.name}"
                 for (mod, node), own in zip(nodes, names)
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("_")
                 and count[node.name] == (node.name in own)
                 and node.name not in readme]
    assert not unreached, "unreached: " + ", ".join(unreached)


def test_cli_import_adds_neither_hashlib_nor_numpy_random():
    # hashlib maps OpenSSL's libcrypto, a few MB of RSS, into the process;
    # only the seeded appendix engines need it, and their numpy.random
    # loads it anyway.  Modules numpy itself loads are left out, so the
    # test holds on a numpy that imports either of them.
    code = ("import sys, numpy; before = set(sys.modules); import bfk.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    added = set(subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, env=env, check=True).stdout.split())
    assert {"bfk", "bfk.cli"} <= added
    assert not added & {"hashlib", "_hashlib", "numpy.random"}
