"""The repo's pytest settings: under them a failing Hypothesis property
reports its falsifying example, and the session goes on to the next test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROPERTIES = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_a_failing_property_reports_its_example_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_properties.py").write_text(PROPERTIES)
    command = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
               "-p", "no:cacheprovider", "-rA", "test_properties.py"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out
    assert "PASSED test_properties.py::test_passes" in out and "1 failed, 1 passed" in out
