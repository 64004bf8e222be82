"""The suite's own pytest settings."""

import subprocess
import sys
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    # on failure hypothesis writes a patch, which imports libcst, whose
    # import warns; under filterwarnings = error that warning used to end
    # the run in an INTERNALERROR that hid the falsifying example
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(_PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out and "1 failed" in out
    assert proc.returncode == 1
