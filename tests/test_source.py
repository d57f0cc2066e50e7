"""Source-level properties of the package: no library ``assert``, a
reference module that stands apart from the package it checks, and demo
scripts that run."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import semifuzz as sf

PACKAGE = Path(sf.__file__).parent
REFERENCE = PACKAGE / "reference.py"
ROOT = Path(__file__).resolve().parent.parent


def test_no_library_asserts():
    # python -O strips asserts, so no library invariant may rest on one
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_reference_imports_only_the_standard_library():
    imported = []
    for node in ast.walk(ast.parse(REFERENCE.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in reference.py"
            imported.append(node.module)
    assert imported
    assert all(name.split(".")[0] in sys.stdlib_module_names for name in imported), imported


def test_reference_loads_by_path_without_the_package():
    script = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('reference', {str(REFERENCE)!r})\n"
        "ref = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(ref)\n"
        "assert ref.divisor_set([[0, 0], [0, 0]], 0) == {0, 1}\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'semifuzz'))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=REFERENCE.parent.parent,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_demos_run():
    # the README sends users to these scripts; run each as they would, all at once
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    procs = {demo.name: subprocess.Popen([sys.executable, str(demo)], env=env, cwd=ROOT,
                                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                         text=True)
             for demo in demos}
    failed = {}
    for name, proc in procs.items():
        _, err = proc.communicate(timeout=120)
        if proc.returncode != 0:
            failed[name] = err
    assert failed == {}


def load_codelines():
    spec = importlib.util.spec_from_file_location("codelines", ROOT / "tools" / "codelines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CODELINES_SNIPPET = '''"""Module docstring,
over two lines."""

import os


def join(x):
    """Function docstring."""
    # a comment line
    return os.path.join(  # a trailing comment
        x,
        "y")
'''


def test_code_line_rule(tmp_path, capsys):
    codelines = load_codelines()
    # import, def, and the three lines of the call
    assert codelines.code_lines(CODELINES_SNIPPET) == 5
    path = tmp_path / "snippet.py"
    path.write_text(CODELINES_SNIPPET)
    assert codelines.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out.split() == ["5", "snippet.py", "5", "snippet.py", "10", "total"]
    # a directory stands for its *.py files, in sorted order
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text(CODELINES_SNIPPET)
    assert codelines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["1", "a.py", "5", "snippet.py", "6", "total"]


def test_every_traced_name_resolves_on_the_library(monkeypatch):
    # the traced benchmark run getattrs each of these names with no
    # default, so a library rename must show here first
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {name: importlib.import_module(f"semifuzz.{name}")
               for name in (*tracing.FUNCTIONS, "cli")}
    missing = [f"{short}.{name}" for short, names in tracing.FUNCTIONS.items()
               for name in names if not callable(getattr(modules[short], name, None))]
    missing += [f"enumeration.{name}" for name in tracing.GENERATORS
                if not callable(getattr(modules["enumeration"], name, None))]
    missing += [f"Semigroup.{name}" for name in tracing.METHODS
                if name not in vars(modules["semigroups"].Semigroup)]
    assert callable(modules["verification"].verify_theorem) and callable(modules["cli"].main)
    assert missing == []
