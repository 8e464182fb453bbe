"""The pytest settings of pyproject.toml."""

import pathlib
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
