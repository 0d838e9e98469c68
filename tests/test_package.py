"""The package root: modules are the API, and ``import lry`` loads none."""

import ast
import glob
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(code):
    """Run ``code`` in a fresh interpreter that finds lry under ``src``."""
    src = os.path.join(ROOT, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )


def test_import_lry_loads_no_submodule():
    proc = run_python(
        "import sys, lry\n"
        "print(lry.__version__)\n"
        "print(sorted(m for m in sys.modules if m.startswith('lry.')))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "[]"


def test_any_module_can_be_imported_first():
    # Imports run one way, from model up to cli, so any entry point works.
    for name in ("model", "strategy", "targets", "protocol", "grid", "oracle", "cli"):
        proc = run_python(
            f"import lry.{name}\n"
            "from lry import model\n"
            "print(model.two_gap_profile().win_table.a.left_total)\n"
        )
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout == "(0, 0, 1, 2, 3, 3, 5, 6, 6, 7, 8)\n", name


def test_no_command_loads_strategy(tmp_path):
    # ``strategy`` holds only names that bench/traced.py wraps; every
    # command, the oracle's allocation search included, runs without it.
    profile = tmp_path / "profile.json"
    profile.write_text('{"n": 2, "segments_a": ["1/3", "2/5"]}', encoding="utf-8")
    proc = run_python(
        "import io, sys\n"
        "from lry import cli\n"
        f"for argv in (['simulate', '--input', {str(profile)!r}], ['example-2gap'],\n"
        "             ['verify', '--count', '20'], ['geodelta', '--delta', '3'],\n"
        "             ['oracle', '--count', '3']):\n"
        "    assert cli.main(argv, io.StringIO()) == 0, argv\n"
        "print('lry.strategy' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_readme_library_snippet_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    library = readme[readme.index("## Library") :]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    proc = run_python(snippet)
    assert proc.returncode == 0, proc.stderr


def lry_imports():
    """Each module of ``src/lry`` with the ``lry`` modules it imports, read
    from its ``from .x import`` and ``from . import x`` statements."""
    paths = glob.glob(os.path.join(ROOT, "src", "lry", "*.py"))
    modules = {os.path.basename(path)[:-3]: path for path in paths}
    graph = {}
    for name, path in modules.items():
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        graph[name] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                graph[name].update(n for n in names if n in modules)
    return graph


def test_imports_are_acyclic_and_model_imports_no_lry_module():
    graph = lry_imports()
    assert graph["model"] == set()
    done = set()
    while len(done) < len(graph):
        ready = {name for name, deps in graph.items() if name not in done and deps <= done}
        assert ready, f"import cycle among {sorted(set(graph) - done)}"
        done |= ready
