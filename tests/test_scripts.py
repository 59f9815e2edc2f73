"""The survey script runs against the public API and prints one line per datum."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zipcalc

SRC = Path(zipcalc.__file__).resolve().parent.parent
SURVEY = SRC.parent / "scripts" / "survey.py"
ZOO = list(zipcalc.build_small_zoo())
FIELDS = ("|E|=", "|G|=", "fine=", "coarse=", "|E_inf|=", "|G_inf|=", "stationary_index=", "twisted_index=",
          "sizes=", "forest_depth=", "leaves=", "[build ", "classes ")


def survey(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, str(SURVEY), *args], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize(
    "args, witt",
    [
        ([], []),
        (["--witt", "2:2,2:3"], ["witt-p2-n2", "witt-p2-n3"]),
        (["--witt"], ["witt-p2-n2", "witt-p2-n3", "witt-p3-n2"]),
    ],
    ids=["zoo", "witt", "witt-default"],
)
def test_survey_script_prints_one_line_per_datum(args, witt):
    done = survey(*args)
    assert done.returncode == 0, done.stderr
    out = done.stdout.splitlines()
    assert [line.split(" ", 1)[0] for line in out] == ZOO + witt
    assert all(field in line for line in out for field in FIELDS)
    # the |W_J\W| = 2 coarse classes of every Witt model
    assert all(" coarse=2 " in line for line in out[len(ZOO):])
    assert all("twisted_index=- " in line for line in out[:len(ZOO)])


def test_survey_script_refuses_a_bad_witt_pair():
    done = survey("--witt", "4:2")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.endswith("error: argument --witt: invalid witt_configs value: '4:2'\n")
