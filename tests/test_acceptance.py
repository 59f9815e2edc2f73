"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion records a PASS/FAIL line that pytest prints in the terminal
summary, then asserts.  Exact criteria use set equality; timed criteria use a
wall-clock bound.
"""

from __future__ import annotations

import json
import time

import pytest

from conftest import ACCEPTANCE_LINES
from zipcalc import (
    WittZipConfig,
    build_forest,
    build_witt_zip,
    coarsening_check,
    double_cosets,
    e_infinity_characterization_check,
    fine_orbits,
    limit_bijection_check,
    refine,
    refine_to_stationary,
    refinement_bijection_check,
    torsor_check,
    twist,
)
from zipcalc.cli import EXIT_OK, main as cli_main


def record(num: int, description: str, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    ACCEPTANCE_LINES.append(f"{'PASS' if ok else 'FAIL'}  criterion {num:2d}: {description}{tail}")
    assert ok, f"criterion {num}: {description}{tail}"


def witt_config_file(tmp_path, p, n):
    path = tmp_path / f"witt-p{p}-n{n}.json"
    path.write_text(json.dumps({"name": f"witt-p{p}-n{n}", "preset": {"kind": "witt", "p": p, "n": n}}))
    return path


def lower_left_shape(group, divisor):
    return frozenset(m for m in group if m[2] % divisor == 0)


def test_criterion_1_witt_class_count(tmp_path, capsys):
    ok = True
    details = []
    for p, n in ((2, 2), (2, 3)):
        cfg = witt_config_file(tmp_path, p, n)
        out_dir = tmp_path / f"out-{p}-{n}"
        started = time.monotonic()
        code = cli_main(["--config", str(cfg), "--command", "classes", "--out", str(out_dir)])
        elapsed = time.monotonic() - started
        capsys.readouterr()
        doc = json.loads((out_dir / "classes.json").read_text())
        ok = ok and code == EXIT_OK and doc["class_count"] == 2 and elapsed < 10.0
        z, x = build_witt_zip(WittZipConfig(p, n))
        dec = double_cosets(z.G, z.tau.image(), z.sigma.image())
        witnesses = {dec.rep_of[z.G.parse_element(c["witness"])] for c in doc["classes"]}
        ok = ok and witnesses == {dec.rep_of[z.G.identity], dec.rep_of[x]}
        details.append(f"p={p} n={n}: {doc['class_count']} classes in {elapsed:.1f}s")
    record(1, "Witt class count is 2 with representatives in the identity and antidiagonal cosets", ok, "; ".join(details))


def test_criterion_2_witt_refinement_shapes(witt23, witt33):
    ok = True
    for (z, _), p in ((witt23, 2), (witt33, 3)):
        n = 3
        trace = refine_to_stationary(z)
        for i, (e_i, g_i) in enumerate(trace.stages):
            ok = ok and e_i.members == lower_left_shape(z.E, min(p ** (i + 1), p**n))
            ok = ok and g_i.members == lower_left_shape(z.G, min(p**i, p ** (n - 1)))
        ok = ok and trace.e_infinity.members == lower_left_shape(z.E, p**n)
        ok = ok and trace.g_infinity.members == lower_left_shape(z.G, p ** (n - 1))
    record(2, "Witt refinement stages match the divisibility shapes and stabilize upper-triangular", ok)


def test_criterion_3_twisted_witt_stabilization(witt23, witt33):
    ok = True
    for (z, x), p in ((witt23, 2), (witt33, 3)):
        shape_e = lower_left_shape(z.E, p)
        shape_g = lower_left_shape(z.G, p)
        d = twist(z, x)
        trace = refine_to_stationary(d)
        for e_i, g_i in trace.stages[1:]:
            ok = ok and e_i.members == shape_e and g_i.members == shape_g
        ok = ok and trace.e_infinity.members == shape_e
        ok = ok and trace.g_infinity.members == shape_g
        # iterate two steps beyond stationarity: the shapes persist
        for _ in range(2):
            d = refine(d)
            ok = ok and d.E.element_set == shape_e and d.G.element_set == shape_g
    record(3, "twisted Witt data stabilize at lower-left divisible by p from step 1 on", ok)


def test_criterion_4_refinement_invariance(acceptance_data):
    ok = True
    bad = []
    for name, z in acceptance_data:
        trace = refine_to_stationary(z)
        refined = refine_to_stationary(refine(z))
        good = (
            trace.e_infinity.members == refined.e_infinity.members
            and trace.g_infinity.members == refined.g_infinity.members
        )
        ok = ok and good
        if not good:
            bad.append(name)
    record(4, "stationary subgroups are invariant under refinement", ok, ",".join(bad) or f"{len(acceptance_data)} data")


def test_criterion_5_one_step_bijection(acceptance_data, acceptance_classes):
    ok = True
    checked = 0
    for name, z in acceptance_data:
        coarse = acceptance_classes[name]
        dec = double_cosets(z.G, z.tau.image(), z.sigma.image())
        for rep in dec.representatives():
            ok = ok and refinement_bijection_check(z, rep, coarse=coarse)
            checked += 1
    record(5, "refined-twist classes map bijectively onto the classes inside each double coset", ok, f"{checked} representatives")


def test_criterion_6_e_infinity_characterization(acceptance_data):
    ok = True
    for name, z in acceptance_data:
        ok = ok and e_infinity_characterization_check(z, refine_to_stationary(z))
    record(6, "stationary E equals the double-coset characterization scan", ok, f"{len(acceptance_data)} data")


def test_criterion_7_torsor_property(acceptance_data, acceptance_classes):
    ok = True
    checked = 0
    for name, z in acceptance_data:
        report = acceptance_classes[name]
        for c in report.classes:
            ok = ok and torsor_check(z, c.witness, report=report)
            checked += 1
    record(7, "class maps are torsors: all fibers free transitive of size |E_inf^x|", ok, f"{checked} witnesses")


def test_criterion_8_forest_limit(acceptance_data, acceptance_classes):
    ok = True
    for name, z in acceptance_data:
        forest = build_forest(z)
        ok = ok and limit_bijection_check(forest, acceptance_classes[name])
    record(8, "stable forest paths classify the carrier: counts and invariance match the oracle", ok, f"{len(acceptance_data)} data")


def test_criterion_9_coarsening(acceptance_data, acceptance_classes):
    ok = True
    for name, z in acceptance_data:
        ok = ok and coarsening_check(fine_orbits(z), acceptance_classes[name])
    record(9, "every fine orbit lies inside one coarse class", ok, f"{len(acceptance_data)} data")


def test_criterion_10_determinism(tmp_path, capsys):
    cfg = witt_config_file(tmp_path, 2, 2)
    cfg23 = witt_config_file(tmp_path, 2, 3)
    ok = True
    for config, command, filenames in (
        (cfg, "classes", ("classes.json",)),
        (cfg23, "classes", ("classes.json",)),
        (cfg, "forest", ("forest.json", "forest.dot")),
    ):
        outs = []
        for i in range(2):
            out_dir = tmp_path / f"det-{config.stem}-{command}-{i}"
            code = cli_main(["--config", str(config), "--command", command, "--out", str(out_dir)])
            capsys.readouterr()
            ok = ok and code == EXIT_OK
            outs.append(out_dir)
        for filename in filenames:
            ok = ok and (outs[0] / filename).read_bytes() == (outs[1] / filename).read_bytes()
    record(10, "repeated classes and forest runs emit byte-identical reports", ok)
