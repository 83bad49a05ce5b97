import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import bfk


def child_env() -> dict:
    """Environment for a child Python that imports the same bfk as the
    tests."""
    # The directory holding the bfk package this process imported: the
    # checkout's src under PYTHONPATH=src, or site-packages after an install.
    root = str(Path(bfk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (root, env.get("PYTHONPATH"))))
    return env


def run_cli(*args, cwd=None):
    """Run the CLI of the same bfk as the tests, from any directory."""
    return subprocess.run(
        [sys.executable, "-m", "bfk.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=child_env())


def test_catalog_lists_the_default_fourteen_groups(tmp_path):
    proc = run_cli("catalog", "--p", "3", cwd=str(tmp_path))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["format"] == "bfk-catalog"
    assert len(doc["groups"]) == 14
    assert doc["groups"][0] == {"order": 1, "descriptor": "cyclic:1"}
    assert {"order": 27, "descriptor": "xsp:3"} in doc["groups"]


def test_catalog_csv_has_header_and_rows():
    proc = run_cli("catalog", "--max-order", "9", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "order,descriptor"
    assert len(lines) == 5


def test_verify_below_scoped_bound_exits_three():
    proc = run_cli("verify", "induction", "--max-order", "9")
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    schema = json.loads(
        (resources.files("bfk") / "schemas" / "report.schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert any(r["status"] == "skipped" for r in doc["rows"])


def test_verify_exact_small_bound_exits_zero(tmp_path):
    proc = run_cli("verify", "exact", "--max-order", "27", cwd=str(tmp_path))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert all(r["status"] == "verified" for r in doc["rows"])


def test_verify_appendix_small_bound_exits_zero():
    proc = run_cli("verify", "appendix", "--max-order", "9")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert all(r["status"] == "verified" for r in doc["rows"])


def test_probe_command_reports_counit_data():
    proc = run_cli("probe", "m", "--max-order", "9")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    claims = {r["claim"] for r in doc["rows"]}
    assert claims == {"counit-surjective", "counit-kernel-finite"}


def test_limit_command_emits_basis_payload(tmp_path):
    args = ("limit", "--group", "xsp:3", "--class", "X3", "--functor", "Kdual")
    proc = run_cli(*args)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["format"] == "bfk-limit-basis"
    assert doc["total"] == 10
    assert doc["rank"] == 5
    assert len(doc["basis"]) == 5
    assert all(len(row) == 10 for row in doc["basis"])
    # --cache-dir is still accepted, and ignored: no cache is written
    unused = tmp_path / "cache"
    again = run_cli(*args, "--cache-dir", str(unused))
    assert again.returncode == 0
    assert again.stdout == proc.stdout
    assert not unused.exists()


def test_limit_command_csv_rows_match_rank():
    proc = run_cli("limit", "--group", "xsp:3", "--class", "X3",
                   "--functor", "Kdual", "--format", "csv")
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 5


def test_bad_descriptor_exits_one_with_message():
    proc = run_cli("limit", "--group", "nonsense:7", "--class", "E",
                   "--functor", "B")
    assert proc.returncode == 1
    assert "bfk:" in proc.stderr


def _xsp3_group_file(path: Path) -> Path:
    from bfk.groups import extraspecial_group
    rows = [" ".join(map(str, row)) for row in extraspecial_group(3).table.tolist()]
    path.write_text("\n".join(["p 3", "order 27", *rows]) + "\n")
    return path


def test_limit_reads_a_group_file(tmp_path):
    path = _xsp3_group_file(tmp_path / "x27.grp")
    args = ("--class", "X3", "--functor", "Kdual")
    from_file = run_cli("limit", "--group", str(path), *args)
    by_name = run_cli("limit", "--group", "xsp:3", *args)
    assert from_file.returncode == by_name.returncode == 0
    assert json.loads(from_file.stdout)["basis"] == json.loads(by_name.stdout)["basis"]
    assert "group file" in run_cli("limit", "--help").stdout


def test_malformed_group_file_exits_one_with_message(tmp_path):
    path = _xsp3_group_file(tmp_path / "x27.grp")
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    proc = run_cli("limit", "--group", str(path), "--class", "X3",
                   "--functor", "Kdual")
    assert proc.returncode == 1
    assert proc.stderr.startswith("bfk: ") and "expected 27 table rows" in proc.stderr


def test_bad_prime_exits_one():
    proc = run_cli("catalog", "--p", "2")
    assert proc.returncode == 1
    assert "odd prime" in proc.stderr


# runs one CLI command in process, then reports whether numpy.ma and the
# process pool module were loaded
_LOADS_NUMPY_MA = """
import contextlib, io, sys
from bfk.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules, "concurrent.futures.process" in sys.modules)
"""


def test_probe_and_limit_do_not_import_numpy_ma():
    # a plain np.unique imports numpy.ma, about 10 ms per process; the
    # process pool behind --jobs costs about 16 ms to import
    bare = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
        capture_output=True, text=True, env=child_env())
    numpy_alone_loads_ma = bare.stdout.strip() != "False"
    for args in (("probe", "m", "--p", "3", "--max-order", "27", "--jobs", "1"),
                 ("limit", "--group", "xsp:3", "--class", "X3",
                  "--functor", "Kdual", "--jobs", "1")):
        proc = subprocess.run([sys.executable, "-c", _LOADS_NUMPY_MA, *args],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        code, loads_ma, loads_pool = proc.stdout.split()
        assert (code, loads_pool) == ("0", "False"), args
        if not numpy_alone_loads_ma:
            assert loads_ma == "False", args
