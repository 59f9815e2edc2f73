"""What a CLI job loads before it has a datum, how it exits, the lazy
package exports, the built-in digest, and the immutable value types that
replaced dataclasses."""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import zipcalc
from zipcalc import (
    CheckResult,
    RefinementTrace,
    WittZipConfig,
    ZipClass,
    refine_to_stationary,
)
from zipcalc.cli import EXIT_CONFIG, EXIT_OK, EXIT_RESOURCE, Job, main
from zipcalc.groups import DoubleCoset
from zipcalc.reports import members_digest

SRC = Path(zipcalc.__file__).resolve().parent.parent
CONFIGS = SRC.parent / "configs"

# Run in a fresh interpreter: prints which modules the job loaded beyond
# those present at start, and which lazy layers have run their body.
PROBE = """
import json, sys
started = set(sys.modules)
import zipcalc.cli as cli
from pathlib import Path
if sys.argv[1] == "load":
    cli.load_job(Path(sys.argv[2]))
else:
    cli.main(["--config", sys.argv[2], "--command", sys.argv[1], "--out", sys.argv[3]])
markers = {"equivalence": "zip_classes", "forest": "build_forest", "verify": "run_verification",
           "reports": "members_digest"}
ran = [name for name, marker in markers.items()
       if marker in object.__getattribute__(sys.modules["zipcalc." + name], "__dict__")]
print(json.dumps({"loaded": sorted(set(sys.modules) - started), "ran": ran}))
"""

HEAVY = {"dataclasses", "inspect", "hashlib", "_hashlib"}


def probe(tmp_path, mode):
    config = tmp_path / "witt22.json"
    config.write_text(json.dumps({"preset": {"kind": "witt", "p": 2, "n": 2}}), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, mode, str(config), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_building_a_datum_loads_no_dataclasses_openssl_or_analysis_layer(tmp_path):
    result = probe(tmp_path, "load")
    assert not HEAVY & set(result["loaded"])
    zipcalc_modules = {m for m in result["loaded"] if m.startswith("zipcalc")}
    assert zipcalc_modules == {
        "zipcalc", "zipcalc.cli", "zipcalc.groups", "zipcalc.zipdata", "zipcalc.zoo",
        "zipcalc.equivalence", "zipcalc.forest", "zipcalc.verify", "zipcalc.reports",
    }
    assert result["ran"] == []


def test_refine_command_runs_only_the_report_layer(tmp_path):
    result = probe(tmp_path, "refine")
    assert not HEAVY & set(result["loaded"])
    assert result["ran"] == ["reports"]


# -- exit: main freezes the collector at interpreter exit ---------------------------


def fresh(args, tmp_path):
    """Run a fresh interpreter from tmp_path, stdout and stderr to pipes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


TRANSCRIPTS = {
    "classes": (lambda tmp: ["--config", str(CONFIGS / "witt-p2-n2.json"), "--command", "classes"], EXIT_OK),
    "zoo": (lambda tmp: ["--command", "zoo"], EXIT_OK),
    "config-error": (
        lambda tmp: ["--config", write_json(tmp / "bad.json", {"preset": {"kind": "nope"}}), "--command", "classes"],
        EXIT_CONFIG,
    ),
    "max-order": (
        lambda tmp: ["--config", write_json(tmp / "witt33.json", {"preset": {"kind": "witt", "p": 3, "n": 3}}),
                     "--command", "classes"],
        EXIT_RESOURCE,
    ),
}


@pytest.mark.parametrize("case", TRANSCRIPTS)
def test_fresh_process_transcript_equals_in_process_main(tmp_path, case):
    # a pipe makes the fresh process's stdout block-buffered, so its reports
    # are still in the buffer when the exit hook runs
    make_argv, expected = TRANSCRIPTS[case]
    argv = make_argv(tmp_path)
    done = fresh(["-m", "zipcalc.cli", *argv], tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == expected
    assert (done.returncode, done.stdout, done.stderr) == (code, out.getvalue(), err.getvalue())


def test_main_leaves_the_in_process_collector_alone(tmp_path):
    frozen = gc.get_freeze_count()
    argv = ["--config", str(CONFIGS / "witt-p2-n2.json"), "--command", "classes", "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == EXIT_OK
        with pytest.raises(SystemExit):  # argparse's exit, after the hook is registered
            main(["--command", "no-such-command"])
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


# Counts the exit hook's runs and reads the collector at exit.  Registered
# before main, the probe runs after main's hook: atexit callbacks run last
# in, first out.
EXIT_PROBE = """
import atexit, gc, sys
freeze, runs = gc.freeze, []
gc.freeze = lambda: runs.append(freeze())
atexit.register(lambda: print("at exit: hook runs", len(runs), "frozen", gc.get_freeze_count() > 0))
from zipcalc.cli import main
code = main(sys.argv[1:])
try:
    main(["--command", "no-such-command"])
except SystemExit:
    pass
print("after main: frozen", gc.get_freeze_count() > 0, "enabled", gc.isenabled())
sys.exit(code)
"""


def test_a_fresh_interpreter_that_ran_main_twice_freezes_once_at_exit(tmp_path):
    argv = ["--config", str(CONFIGS / "witt-p2-n2.json"), "--command", "refine", "--out", str(tmp_path / "out")]
    done = fresh(["-c", EXIT_PROBE, *argv], tmp_path)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.splitlines()[-2:] == [
        "after main: frozen False enabled True",
        "at exit: hook runs 1 frozen True",
    ]


# every name the package exports
EXPORTS = (
    "CayleyTableGroup FiniteGroup Homomorphism InputError InvariantViolation MatrixGroup "
    "PermutationGroup Subgroup closure "
    "double_cosets hom_from_generator_images inclusion_hom trivial_hom "
    "RefinementTrace ZipDatum e_infinity_characterization_check is_tau_surjective refine "
    "refine_to_stationary twist twist_refine_identity_check "
    "ClassReport ZipClass coarsening_check fine_orbits groupoid_equivalence_check "
    "refinement_bijection_check torsor_check zip_classes "
    "RepForest build_forest classify forest_to_dot limit_bijection_check "
    "WittZipConfig build_small_zoo build_witt_zip zoo_entry CheckResult "
    "run_verification __version__"
).split()


def test_every_package_export_still_imports():
    for name in EXPORTS:
        scope = {}
        exec(f"from zipcalc import {name}", scope)
        assert scope[name] is getattr(zipcalc, name), name


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError):
        zipcalc.no_such_name  # noqa: B018


class Verbatim:
    """A stand-in group whose elements are their own text."""

    @staticmethod
    def format_element(a):
        return a


@given(st.frozensets(st.text(max_size=12), max_size=12))
def test_members_digest_equals_hashlib_sha256(members):
    text = ",".join(sorted(members))
    assert members_digest(Verbatim, members) == hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- the immutable value types, against frozen dataclass twins ---------------------


def twin(cls):
    """A frozen dataclass with cls's fields and defaults."""
    specs = []
    for name in cls._fields:
        kwargs = {}
        if name in cls._field_defaults:
            kwargs["default"] = cls._field_defaults[name]
        specs.append((name, object, dataclasses.field(**kwargs)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


SAMPLES = [
    (Job, ("witt", None, 3), ("witt", None, 4)),
    (ZipClass, (1, frozenset({1, 2}), None), (1, frozenset({1}), None)),
    (DoubleCoset, (0, frozenset({0, 1}), {0: (0, 0), 1: (1, 0)}),
     (1, frozenset({0, 1}), {1: (0, 0), 0: (1, 0)})),
    (RefinementTrace, ((1, 2),), ((1,),)),
    (CheckResult, ("torsor", True), ("torsor", False, "x")),
    (WittZipConfig, (2, 2), (3, 2)),
]


@pytest.mark.parametrize("cls, args, other", SAMPLES, ids=[s[0].__name__ for s in SAMPLES])
def test_value_type_matches_frozen_dataclass(cls, args, other):
    Twin = twin(cls)
    a, b, c = cls(*args), cls(*args), cls(*other)
    ta, tc = Twin(*args), Twin(*other)
    assert repr(a) == repr(ta)
    assert (a == b, a == c) == (True, ta == tc)
    assert a != ta  # a different class never compares equal
    try:
        expected = hash(ta)
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected
    with pytest.raises(AttributeError):
        setattr(a, cls._fields[0], "changed")
    with pytest.raises(AttributeError):
        delattr(a, cls._fields[0])
    keywords = cls(**dict(zip(cls._fields, args)))
    assert keywords == a
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args[:-1])  # the last sample argument has no default


def test_refinement_trace_caches_its_subgroups(witt22):
    trace = refine_to_stationary(witt22[0])
    assert trace.e_infinity is trace.e_infinity
    assert trace.stages is trace.stages
    with pytest.raises(AttributeError):
        trace.data = ()
