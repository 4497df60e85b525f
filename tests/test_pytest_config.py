"""The repo's pytest configuration survives a failing hypothesis test.

``pyproject.toml`` turns every DeprecationWarning into an error.  When
an ``@given`` test fails, hypothesis imports libcst to print a patch
hint, and libcst's import of ``mypy_extensions.TypedDict`` warns; as an
error inside pytest's report hook that would stop the run with an
INTERNALERROR and drop every later result.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(value):
    assert value < 0


def test_passes():
    assert True
'''


def test_failing_given_test_is_reported_and_later_tests_run(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
