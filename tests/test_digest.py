"""The suite's tooling: the bitwise-comparison tool ``tests/digest.py`` runs
and prints its format, and the pytest configuration lets a failing test fail
alone."""

import os
import re
import subprocess
import sys

from paracap import gradcheck

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
LINE = re.compile(r"^(param|train_log|greedy|checkpoint|gradcheck) (.* )?[0-9a-f]{64}$")


def test_digest_prints_one_hash_per_line():
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tests", "digest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert [line for line in lines if not LINE.match(line)] == []
    assert sum(line.startswith("checkpoint ") for line in lines) == 1
    assert ([line.split()[1] for line in lines if line.startswith("gradcheck ")]
            == [name for name, _ in gradcheck._primitive_cases()])


HYPOTHESIS_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # hypothesis's failure report imports a module that warns as it loads;
    # the configuration's warnings-as-errors must not turn that into INTERNALERROR
    (tmp_path / "test_one.py").write_text(HYPOTHESIS_TESTS)
    done = subprocess.run([sys.executable, "-m", "pytest", "-c",
                           os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
                           "test_one.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout[-2000:]
