"""The bitwise-comparison tool ``tests/digest.py`` runs and prints its format."""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
LINE = re.compile(r"^(param|train_log|greedy|checkpoint) (.* )?[0-9a-f]{64}$")


def test_digest_prints_one_hash_per_line():
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tests", "digest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert [line for line in lines if not LINE.match(line)] == []
    assert sum(line.startswith("checkpoint ") for line in lines) == 1
