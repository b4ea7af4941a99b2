"""The suite's pytest configuration lets every test be reported.

``filterwarnings = ["error"]`` in ``pyproject.toml`` turns each warning
into an error. When a hypothesis property fails, the hypothesis plugin's
report hook imports ``mypy_extensions.TypedDict``, which warns that it is
deprecated; as an error, that warning stops the session with a pytest
INTERNALERROR and the tests after it go unreported. The configuration
ignores that one warning.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_plain_passes():
    pass
'''


def test_failing_property_does_not_stop_the_session(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in done.stdout, out
