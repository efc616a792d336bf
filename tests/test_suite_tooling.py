"""The suite's own tooling: one failing property test is reported as a
failure and the session runs on, under the suite's ``error`` warning
filter."""

import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING_FIRST = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_a_failing_property(x):
    assert x < 5


def test_a_later_test():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_session(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n")
    (tmp_path / "test_order.py").write_text(FAILING_FIRST)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           str(tmp_path)], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout[-2000:]
