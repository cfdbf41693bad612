"""The repository's pytest settings: every warning is an error, yet a failing
Hypothesis test is reported as one failure and the run goes on."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # Hypothesis's failure report warns inside a pytest hook; turned into an
    # error there, the warning ended the run as an INTERNALERROR.
    (tmp_path / "test_pair.py").write_text(PAIR, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), f"--rootdir={tmp_path}", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert (run.returncode, "1 failed, 1 passed" in run.stdout) == (1, True), \
        run.stdout + run.stderr
