"""Every name a module imports is used in that module, each CLI command
loads no module it does not need, and the README's library tour runs as
written."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bfk

PACKAGE = Path(bfk.__file__).resolve().parent


def _child_env() -> dict:
    """Environment for a child Python that imports the same bfk."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))


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
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    unused = [u for p in modules for u in _unused_imports(p)]
    assert unused == []


def _code_in_readme() -> set[str]:
    """Identifiers inside the README's code blocks and inline code."""
    text = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound_in(scope) -> set[str]:
    """Parameters and assigned names of one function, its nested
    functions left out."""
    args = scope.args
    out = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
           + [a for a in (args.vararg, args.kwarg) if a]}
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        sub = todo.pop()
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        if not isinstance(sub, _SCOPES):
            todo.extend(ast.iter_child_nodes(sub))
    return out


def _names_in(node, shadowed: frozenset = frozenset()) -> set[str]:
    """Attribute names and module-level names a node reads; a name a
    parameter or local variable of an enclosing function shadows is no
    read of the module-level one."""
    if isinstance(node, _SCOPES):
        shadowed = shadowed | _bound_in(node)
    out = set()
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, ast.Name) and sub.id not in shadowed:
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        out |= _names_in(sub, shadowed)
    return out


def _identifiers_in_perfbench() -> set[str]:
    """Identifiers in perfbench/*.py, also inside strings: the tracer names
    what it wraps as "module.Class.method"."""
    return {name for p in sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
            for name in re.findall(r"[A-Za-z_]\w*", p.read_text(encoding="utf-8"))}


def test_every_public_definition_is_reached():
    # a top-level public function or class, and a public method of a public
    # class, must be named by another definition or by module-level code in
    # the package, by the README's code or by perfbench/*.py; uses in tests
    # do not count, and neither do a method's uses of its own name
    nodes = [(p.name, node)
             for p in sorted(PACKAGE.glob("*.py"))
             for node in ast.parse(p.read_text(encoding="utf-8")).body]
    names = [_names_in(node) for _, node in nodes]
    count = Counter(n for ns in names for n in ns)
    outside = _code_in_readme() | _identifiers_in_perfbench()
    unreached = [f"{mod}:{node.lineno} {node.name}"
                 for (mod, node), own in zip(nodes, names)
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("_")
                 and count[node.name] == (node.name in own)
                 and node.name not in outside]
    for (mod, node), own in zip(nodes, names):
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        members = [(sub, _names_in(sub)) for sub in node.body]
        for sub, _ in members:
            if (isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                    and count[sub.name] == (sub.name in own)
                    and not any(sub.name in ns for other, ns in members if other is not sub)
                    and sub.name not in outside):
                unreached.append(f"{mod}:{sub.lineno} {node.name}.{sub.name}")
    assert not unreached, "unreached: " + ", ".join(unreached)


def test_cli_import_adds_neither_hashlib_nor_numpy_random():
    # hashlib maps OpenSSL's libcrypto, a few MB of RSS, into the process,
    # and no command needs it.  Modules numpy itself loads are left out, so
    # the test holds on a numpy that imports either of them.
    code = ("import sys, numpy; before = set(sys.modules); import bfk.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    added = set(subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, env=_child_env(), check=True).stdout.split())
    assert {"bfk", "bfk.cli"} <= added
    assert not added & {"hashlib", "_hashlib", "numpy.random"}


def test_seeded_appendix_maps_no_openssl():
    # a serial seeded run draws through the sampler alone: numpy's generator
    # module and the OpenSSL-backed hash module stay unloaded
    code = ("import contextlib, io, sys\n"
            "from bfk import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['verify', 'appendix', '--p', '3',"
            " '--max-order', '27', '--seed', '3'])\n"
            "print(code, *sorted({'numpy.random', 'hashlib', '_hashlib',"
            " 'bfk.sampling'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "bfk.sampling"]


# runs one CLI command as `python -m bfk.cli` does, then prints its exit
# code and the numpy, dataclasses, inspect and bfk modules it loaded
_CLI_MODULES = """
import contextlib, io, runpy, sys
before = set(sys.modules)
sys.argv[0] = "bfk"
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("bfk.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(m for m in set(sys.modules) - before
                    if m in ("numpy", "dataclasses", "inspect") or m.startswith("bfk.")))
"""


@pytest.mark.parametrize("args,code,loaded,absent", [
    (("catalog",), 0, {"bfk.claims"}, {"numpy"}),
    (("catalog", "--p", "2"), 1, {"bfk.claims"}, {"numpy"}),
    (("--help",), 0, {"bfk.claims"}, {"numpy"}),
    (("limit", "--group", "xsp:3", "--class", "X3", "--functor", "Kdual"), 0,
     {"numpy", "bfk.limits"}, {"bfk.campaigns", "bfk.transfers"}),
])
def test_each_command_imports_only_what_it_runs(args, code, loaded, absent):
    proc = subprocess.run([sys.executable, "-c", _CLI_MODULES, *args],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    got, *modules = proc.stdout.split()
    assert int(got) == code, args
    assert loaded <= set(modules), args
    assert not absent & set(modules), args


def test_catalog_loads_neither_dataclasses_nor_inspect():
    # Claim and RunConfig are named tuples: dataclasses, and inspect
    # through it, took 9.4 ms of the 15 ms of importing bfk.claims
    proc = subprocess.run([sys.executable, "-c", _CLI_MODULES, "catalog"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.split()
    assert code == "0" and "bfk.claims" in modules
    assert not {"dataclasses", "inspect"} & set(modules)


def test_readme_library_tour_runs():
    text = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    tour = text.split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, flags=re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
