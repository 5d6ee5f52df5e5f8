"""The repository's pytest settings report a failing property test in full."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_every_integer_is_small(x):
    assert x < 10
'''


def test_a_failing_hypothesis_test_reports_its_name_and_example(tmp_path):
    # Warnings are errors, yet hypothesis's reporting must not become an
    # INTERNALERROR that hides the failing test. The run's cwd is tmp_path,
    # so hypothesis's example database lands there.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "test_every_integer_is_small" in out and "Falsifying example" in out
    assert "INTERNALERROR" not in out
