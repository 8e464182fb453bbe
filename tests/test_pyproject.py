"""The pytest settings of pyproject.toml."""

import ast
import os
import pathlib
import re
import subprocess
import sys

_ROOT = pathlib.Path(__file__).resolve().parent.parent

_TWO_TESTS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_one_failure(tmp_path):
    # with every warning an error, a failing @given test must end as one
    # failure, not abort the session before the next test runs
    path = tmp_path / "test_two.py"
    path.write_text(_TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(_ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "INTERNALERROR" not in out


def test_suite_collects_without_pythonpath():
    # a bare `python -m pytest` from a checkout finds the package in src/
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "--collect-only", "-q", "tests/test_params.py"],
        cwd=_ROOT, env=env, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 0, out
    assert "tests/test_params.py::" in out, out


def test_test_extra_declares_every_test_import():
    # `pip install .[test]` must be enough to collect the suite: every
    # third-party module a test file imports is a declared dependency
    text = (_ROOT / "pyproject.toml").read_text()
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
                for block in re.findall(r"^(?:dependencies|test) = \[(.*?)\]",
                                        text, re.M | re.S)
                for req in re.findall(r'"([^"]+)"', block)}
    local = {"helpers", "vlandau", "reference", "workloads"}  # perfbench/
    imported = set()
    for path in (_ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local
    assert third_party and third_party <= declared, third_party - declared
