"""Repository-level checks: the demos run, the package keeps its
invariants under ``python -O``, ``generate | verify`` works through real
OS pipes, ``generate`` stops quietly when its reader closes the pipe,
every private helper is used, the README names only code that exists, and
``tools/code_lines.py`` counts code lines."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cutdown

from refdata import CUT_N6_L46

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(demo)], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_no_bare_assert_in_package():
    # asserts vanish under python -O; the package raises instead
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted((SRC / "cutdown").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("n, k, L, mode, fmt", [
    (6, 2, 46, "counter", ()), (3, 4, 50, "counter", ()),
    (2, 12, 100, "counter", ("--format", "csv")),
    (3, 4, 50, "successor", ()),
    # crosses the engine's and the CLI's 8192-symbol block ends
    (7, 4, 4 ** 7 - 3, "counter", ()), (7, 4, 4 ** 7 - 3, "successor", ()),
    # four 64 KiB blocks of verify's input and a part of a fifth
    (9, 4, 4 ** 9 - 5, "counter", ())],
    ids=["n6-k2", "n3-k4", "n2-k12-csv", "n3-k4-successor", "n7-k4",
         "n7-k4-successor", "n9-k4"])
def test_generate_pipes_into_verify(n, k, L, mode, fmt):
    # two python -O processes joined by an OS pipe, as a shell runs them:
    # what stdout writes (bytes for digits, text for csv) is what stdin reads
    cli = [sys.executable, "-O", "-m", "cutdown.cli"]
    size = ["--n", str(n), "--k", str(k), "--len", str(L)]
    with subprocess.Popen([*cli, "generate", *size, "--mode", mode, *fmt],
                          env=_env(), stdout=subprocess.PIPE) as gen:
        ver = subprocess.run([*cli, "verify", "--json", *size],
                             env=_env(), stdin=gen.stdout,
                             capture_output=True, timeout=60)
    assert gen.returncode == 0
    assert ver.returncode == 0, ver.stderr
    assert json.loads(ver.stdout) == {"ok": True, "length": L,
                                      "first_duplicate": None,
                                      "out_of_range_symbol": None}
    if (n, k, L) == (6, 2, 46):
        done = subprocess.run([*cli, "generate", *size], env=_env(),
                              capture_output=True, timeout=60)
        assert done.stdout == (CUT_N6_L46 + "\n").encode()


def test_generate_into_a_closed_pipe_exits_0_quietly():
    # a reader that stops early, as `cutdown generate ... | head -c 10`
    # does, is no error: no traceback and no "error:" line
    cli = [sys.executable, "-m", "cutdown.cli"]
    with subprocess.Popen([*cli, "generate", "--n", "22", "--len", "4000000"],
                          env=_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as gen:
        assert gen.stdout.read(10) == b"0" * 10
        gen.stdout.close()
        err = gen.stderr.read()
        assert gen.wait(timeout=60) == 0
    assert err == b""


def test_every_private_helper_is_used():
    # a module-level _name (function, class or constant) that no code in
    # the package refers to is dead code
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "cutdown").glob("*.py"))]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined.update(t.id for t in targets
                               if isinstance(t, ast.Name))
    private = {name for name in defined
               if name.startswith("_") and not name.startswith("__")}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    assert private
    assert sorted(private - used) == []


def _exists(name, modules):
    # cutdown, one of its modules, or an attribute of one; a dotted name
    # resolves from its first part
    head, *rest = name.split(".")
    owners = [modules[head]] if head in modules else list(modules.values())
    path = rest if head in modules else [head, *rest]
    for obj in owners:
        for part in path:
            if not hasattr(obj, part):
                break
            obj = getattr(obj, part)
        else:
            return True
    return False


def test_import_loads_no_cli_or_spool_modules():
    # every process that imports cutdown pays for what that loads; the CLI
    # and verify's spool import theirs when they run.  Modules the
    # interpreter loads at start-up (site loads tempfile on some systems)
    # do not count.
    probe = ("import sys; before = set(sys.modules); import cutdown; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", probe], env=_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "cutdown.engine" in added
    assert added & {"pickle", "tempfile", "argparse", "json"} == set()
    # the records are named tuples: no dataclasses, and so no inspect
    assert added & {"dataclasses", "inspect"} == set()


@pytest.mark.parametrize("section", ["How it works", "Module map"])
def test_readme_names_exist(section):
    # every backticked Python name in the section must name live code
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", body))
    modules = {info.name: importlib.import_module(f"cutdown.{info.name}")
               for info in pkgutil.iter_modules(cutdown.__path__)}
    modules["cutdown"] = cutdown
    assert names
    assert sorted(n for n in names if not _exists(n, modules)) == []


_FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment

# a comment line


def f(x):
    """Docstring."""
    "a string " "statement"
    text = """a string
in an expression"""
    return (x +
            1)
'''


def test_code_lines_counts_code_only(tmp_path):
    # import, def, the two lines of the assignment and of the return: no
    # docstring, string statement, comment or blank line
    (tmp_path / "fixture.py").write_text(_FIXTURE, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n',
                                       encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    counts = [line.split(maxsplit=1) for line in done.stdout.splitlines()]
    assert counts == [["0", str(tmp_path / "empty.py")],
                      ["6", str(tmp_path / "fixture.py")], ["6", "total"]]
