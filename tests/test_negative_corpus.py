"""Each cross-check behind verify returns False on a bad input.

A check that no input can make fail passes every test as `return True`.  The
bad inputs here are a forged coarse report, the trace of another twist, zip
data whose tables were corrupted past their homomorphism certificate, a
mutant twist, and a refinement trace cut one stage early.  The groupoid
check's corrupted data are in test_equivalence, where its verdicts are
compared with a naive oracle.
"""

from __future__ import annotations

import random

import pytest

import oracles
from conftest import forged_hom
from zipcalc import (
    ClassReport,
    InputError,
    Subgroup,
    ZipClass,
    ZipDatum,
    build_forest,
    closure,
    coarsening_check,
    double_cosets,
    e_infinity_characterization_check,
    fine_orbits,
    groupoid_equivalence_check,
    limit_bijection_check,
    refine_to_stationary,
    refinement_bijection_check,
    torsor_check,
    twist,
    twist_refine_identity_check,
    zip_classes,
)
from zipcalc.groups import Partition


@pytest.fixture(scope="module")
def forged(witt22):
    """witt-p2-n2, its fine orbits, its coarse report, and that report with
    one member, whose fine orbit has two or more elements, moved from the
    larger class into the other."""
    z, _ = witt22
    report, fine = zip_classes(z), fine_orbits(z)
    target, source = sorted(report.classes, key=lambda c: c.size)
    assert report.class_count == 2
    m = min(y for y in source.members - {source.witness} if fine.part_of(y).size >= 2)
    moved = {target.witness: target.members | {m}, source.witness: source.members - {m}}
    parts = {w: ZipClass(w, moved[w], c.trace) for w, c in report.parts.items()}
    rep_of = {**report.rep_of, m: target.witness}
    return z, fine, report, ClassReport(z, report.relation, Partition(parts, rep_of))


def roots(z):
    return double_cosets(z.G, z.tau_image, z.sigma_image).representatives()


def test_coarsening_check_fails_on_a_forged_report(forged):
    z, fine, report, bad = forged
    assert coarsening_check(fine, report)
    assert not coarsening_check(fine, bad)


def test_refinement_bijection_check_fails_on_a_forged_report(forged):
    z, _, report, bad = forged
    assert all(refinement_bijection_check(z, r, coarse=report) for r in roots(z))
    assert not all(refinement_bijection_check(z, r, coarse=bad) for r in roots(z))


def test_torsor_check_fails_on_a_forged_report(forged):
    z, _, report, bad = forged
    assert all(torsor_check(z, r, report=report) for r in roots(z))
    assert not all(torsor_check(z, r, report=bad) for r in roots(z))


def test_limit_bijection_check_fails_on_a_forged_report(forged):
    z, _, report, bad = forged
    forest = build_forest(z)
    assert limit_bijection_check(forest, report)
    assert not limit_bijection_check(forest, bad)


def reclassed(report, parts):
    """A forged report of report's datum whose classes are parts, witness -> members."""
    classes = {w: ZipClass(w, frozenset(members), None) for w, members in parts.items()}
    rep_of = {m: w for w, c in classes.items() for m in c.members}
    return ClassReport(report.datum, report.relation, Partition(classes, rep_of))


def test_limit_bijection_check_fails_on_a_report_missing_a_class(witt22):
    # classification is constant on the one class left; only the count of
    # stable paths, two, tells the report is short
    z, _ = witt22
    report = zip_classes(z)
    first = report.classes[0]
    assert not limit_bijection_check(build_forest(z), reclassed(report, {first.witness: first.members}))


def test_limit_bijection_check_fails_on_a_class_split_in_two(witt22):
    # a class split into its witness and the rest, the other class dropped:
    # two classes for two stable paths, each constant on its class, but
    # both classify to one path
    z, _ = witt22
    report = zip_classes(z)
    first = report.classes[0]
    second = min(first.members - {first.witness})
    parts = {first.witness: {first.witness}, second: first.members - {first.witness}}
    assert not limit_bijection_check(build_forest(z), reclassed(report, parts))


def test_refinement_bijection_check_fails_on_two_classes_merged(zoo):
    # both classes in the double coset of (0 2 1) merged into one: that
    # class is the only one meeting the coset, and the two refined classes
    # both map into it
    z = zoo["s3-reflection-pair"]
    report, x = zip_classes(z), (0, 2, 1)
    coset = z.double_quotient.part_of(x).members
    inside = [c for c in report.classes if c.members & coset]
    assert len(inside) == 2
    parts = {c.witness: c.members for c in report.classes if c not in inside}
    parts[inside[0].witness] = inside[0].members | inside[1].members
    assert refinement_bijection_check(z, x, coarse=report)
    assert not refinement_bijection_check(z, x, coarse=reclassed(report, parts))


def test_e_infinity_characterization_fails_on_another_twists_trace(zoo):
    z = zoo["s4-cycle-pair"]
    e_inf = refine_to_stationary(z).e_infinity.members
    others = [t for t in (refine_to_stationary(twist(z, x)) for x in z.G) if t.e_infinity.members != e_inf]
    assert others
    assert not any(e_infinity_characterization_check(z, t) for t in others)


def corrupted_datum(rng, s4, subgroups):
    """E a proper subgroup of S4, tau its inclusion and sigma a conjugation,
    with one table entry of each replaced by a random element."""
    E = rng.choice(subgroups)
    c = rng.choice(s4.elements)
    tables = [{a: a for a in E}, oracles.naive_conjugation_table(s4, c, E)]
    for table in tables:
        table[rng.choice(E.elements)] = rng.choice(s4.elements)
    tau, sigma = (forged_hom(E, s4, table) for table in tables)
    return ZipDatum(E, s4, tau, sigma)


def test_twist_refine_identity_check_matches_the_tables_on_corrupted_data(s4):
    """Off a homomorphism the identities fail, and the verdicts follow the
    refined E of each twist read off the tables.  A derived datum's own
    homomorphism check may refuse a draw; only verdicts are compared."""
    proper = {closure(s4, [a, b]).members for a in s4 for b in s4} - {s4.element_set}
    subgroups = [Subgroup(s4, m).as_group() for m in sorted(proper, key=sorted)]
    rng = random.Random(0)
    verdicts = {"plain": [], "witnesses": []}
    for _ in range(200):
        z = corrupted_datum(rng, s4, subgroups)
        E, G = z.E, z.G
        x = rng.choice(G.elements)
        y = rng.choice(z.tau_image.elements)
        try:
            ok = twist_refine_identity_check(z, x, y)
        except InputError:
            pass
        else:
            assert ok == (oracles.naive_refined_e(z, G.mul(y, x)) == oracles.naive_refined_e(z, x))
            verdicts["plain"].append(ok)
        e, et = rng.choice(E.elements), rng.choice(E.elements)
        y = G.mul(G.mul(z.tau.table[e], x), z.sigma.table[et])
        try:
            ok = twist_refine_identity_check(z, x, y, witnesses=(e, et))
        except InputError:
            continue
        et_inv = E.inv(et)
        conjugated = frozenset(E.mul(E.mul(et_inv, h), et) for h in oracles.naive_refined_e(z, x))
        assert ok == (oracles.naive_refined_e(z, y) == conjugated)
        verdicts["witnesses"].append(ok)
    for mode, seen in verdicts.items():
        assert False in seen and True in seen, mode


def witnessed_y(z, x, e, et):
    """y = tau(e) * x * sigma(et)."""
    return z.G.mul(z.G.mul(z.tau.table[e], x), z.sigma.table[et])


# witt-p2-n2 draws on which each check rejects the twist_by_inverse mutant:
# the antidiagonal x, and the witness pairs of the two witnessed checks
X = (0, 1, 1, 0)
E_ID, ET = (1, 0, 0, 1), (3, 3, 2, 3)
E_G, ET_G = (3, 2, 0, 1), (3, 2, 2, 1)
MUTANT_DRAWS = {
    "torsor": lambda z: torsor_check(z, (0, 1, 1, 1), report=zip_classes(z)),
    "twist-refine": lambda z: twist_refine_identity_check(z, X, (1, 1, 0, 1)),
    "twisted-subgroup": lambda z: twist_refine_identity_check(z, X, witnessed_y(z, X, E_ID, ET), witnesses=(E_ID, ET)),
    "groupoid": lambda z: groupoid_equivalence_check(z, X, witnessed_y(z, X, E_G, ET_G), E_G, ET_G),
}


@pytest.mark.parametrize("check", sorted(MUTANT_DRAWS))
def test_check_rejects_a_twist_by_the_inverse(witt22, check, request):
    z, _ = witt22
    assert MUTANT_DRAWS[check](z)
    request.getfixturevalue("twist_by_inverse")
    assert not MUTANT_DRAWS[check](z)


def test_torsor_check_rejects_a_trace_cut_early(witt22, request):
    """At the identity of witt-p2-n2 the stationary pairs of the cut trace
    do not act inside its G_inf, against the classes of the uncut run."""
    z, _ = witt22
    x, report = z.G.identity, zip_classes(z)
    assert torsor_check(z, x, report=report)
    request.getfixturevalue("trace_cut_early")
    assert refine_to_stationary(z).stationary_index >= 1
    assert not torsor_check(z, x, report=report)
