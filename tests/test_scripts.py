"""The survey scripts run against the public API and print one line per datum."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zipcalc

SRC = Path(zipcalc.__file__).resolve().parent.parent
SCRIPTS = SRC.parent / "scripts"


@pytest.mark.parametrize(
    "argv, prefixes",
    [
        (["survey_zoo.py"], [f"{name} " for name in zipcalc.build_small_zoo()]),
        (["survey_witt.py", "--pairs", "2:2,2:3"], ["p=2 n=2:", "p=2 n=3:"]),
    ],
    ids=["survey_zoo", "survey_witt"],
)
def test_survey_script_prints_one_line_per_datum(argv, prefixes):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = done.stdout.splitlines()
    assert len(out) == len(prefixes)
    assert all(line.startswith(prefix) for line, prefix in zip(out, prefixes))
