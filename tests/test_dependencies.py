"""The package runs on the Python standard library alone."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def test_importing_the_package_loads_no_numpy():
    code = (
        "import sys\n"
        "import repro, repro.lab, repro.service, repro.paper, repro.cli\n"
        "print('numpy' in sys.modules, end='')\n"
    )
    out = subprocess.run(
        [sys.executable, "-B", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout == "False"


def test_importing_the_package_loads_no_event_loop_or_executor():
    """The service runs on plain threads: no asyncio, no concurrent.futures."""
    code = (
        "import sys\n"
        "import repro, repro.lab, repro.service, repro.paper, repro.cli\n"
        "print([m for m in ('asyncio', 'concurrent.futures') if m in sys.modules], end='')\n"
    )
    out = subprocess.run(
        [sys.executable, "-B", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout == "[]"


def _imported_packages(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("directory", ["src", "tests", "examples", "benchmarks"])
def test_no_module_imports_numpy(directory):
    offenders = [
        str(path.relative_to(ROOT))
        for path in sorted((ROOT / directory).rglob("*.py"))
        if "numpy" in set(_imported_packages(path))
    ]
    assert offenders == []


def test_no_package_module_imports_asyncio():
    offenders = [
        str(path.relative_to(ROOT))
        for path in sorted((ROOT / "src").rglob("*.py"))
        if "asyncio" in set(_imported_packages(path))
    ]
    assert offenders == []


def test_setup_py_declares_the_package_name_and_version():
    import repro

    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.split() == ["repro", repro.__version__]
