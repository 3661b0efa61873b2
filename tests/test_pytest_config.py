"""The repository's pytest configuration: one failing test leaves the rest
of the session running and reported."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_EXAMPLE_THEN_A_PASS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_a_failing_hypothesis_example_does_not_abort_the_session(tmp_path):
    # Reporting a failing example can import modules that warn on import; with
    # warnings as errors that aborted the session with exit 3 (INTERNALERROR).
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_two.py").write_text(FAILING_EXAMPLE_THEN_A_PASS)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "tests/test_two.py::test_after PASSED" in proc.stdout, proc.stdout
