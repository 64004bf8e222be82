"""The suite's own pytest settings, and the source-size tool CI runs."""

import importlib.util
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PYPROJECT = _ROOT / "pyproject.toml"


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


def test_source_size_counts_each_line_once_by_kind(capsys):
    spec = importlib.util.spec_from_file_location("source_size", _ROOT / "tools" / "source_size.py")
    source_size = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(source_size)
    module = (
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment line\n"
        "def f(x):  # a trailing comment is on a statement line\n"
        '    """One line."""\n'
        "    return (x +\n"
        "            1)\n"
    )
    assert source_size.count(module) == {"statement": 3, "docstring": 3, "comment": 1, "blank": 1}
    src = _ROOT / "src" / "stalesim"
    assert source_size.main([str(src)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows[-1][0] == "total"
    for row in rows:
        assert int(row[1]) == sum(map(int, row[2:]))
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py"))
    assert sum(int(row[1]) for row in rows[:-1]) == int(rows[-1][1]) == lines
