"""The package root: modules are the API, and ``import lry`` loads none."""

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
    # model binds strategy at its end, and strategy imports model.
    for name in ("model", "strategy", "targets", "protocol", "grid", "oracle", "cli"):
        proc = run_python(
            f"import lry.{name}\n"
            "from lry import model\n"
            "print(model.two_gap_profile().win_table.a.left_total)\n"
        )
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout == "(0, 0, 1, 2, 3, 3, 5, 6, 6, 7, 8)\n", name


def test_readme_library_snippet_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    library = readme[readme.index("## Library") :]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    proc = run_python(snippet)
    assert proc.returncode == 0, proc.stderr
