from __future__ import annotations

import itertools
import random
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import forged_hom
from zipcalc import (
    FiniteGroup,
    Homomorphism,
    InputError,
    MatrixGroup,
    WittZipConfig,
    ZipDatum,
    build_forest,
    build_witt_zip,
    closure,
    coarsening_check,
    double_cosets,
    fine_orbits,
    groupoid_equivalence_check,
    inclusion_hom,
    refine,
    refine_to_stationary,
    refinement_bijection_check,
    run_verification,
    torsor_check,
    twist,
    twist_refine_identity_check,
    zip_classes,
)
from zipcalc.groups import Partition
from zipcalc.reports import class_report_document, infinity_document, trace_document


# -- fine orbits -----------------------------------------------------------------


def test_fine_orbits_trivial_e(zoo):
    report = fine_orbits(zoo["trivial-e"])
    assert report.class_count == 6
    assert all(c.size == 1 for c in report.classes)


def test_fine_orbits_fix_identity_when_tau_equals_sigma(zoo):
    report = fine_orbits(zoo["s3-reflection-pair"])
    identity_class = report.part_of(zoo["s3-reflection-pair"].G.identity)
    assert identity_class.members == frozenset([zoo["s3-reflection-pair"].G.identity])


def test_fine_orbits_borel_conjugation(zoo):
    z = zoo["gl2f2-borel"]
    report = fine_orbits(z)
    assert report.class_count == 4
    assert sorted((w, m) for w, m in oracles.naive_fine_orbits(z)) == sorted(
        (c.witness, c.members) for c in report.classes
    )


def test_fine_orbits_match_naive_on_zoo(zoo):
    for name, z in zoo.items():
        report = fine_orbits(z)
        assert sorted((c.witness, c.members) for c in report.classes) == oracles.naive_fine_orbits(z), name


# -- coarse classes -----------------------------------------------------------------


def test_zip_classes_tau_surjective_single_class(zoo):
    report = zip_classes(zoo["tau-surjective"])
    assert report.class_count == 1


def test_zip_classes_trivial_e_all_singletons(zoo):
    report = zip_classes(zoo["trivial-e"])
    assert report.class_count == 6
    assert all(c.size == 1 for c in report.classes)


def test_zip_classes_witt_two_classes(witt22):
    z, x = witt22
    report = zip_classes(z)
    assert report.class_count == 2
    dec = double_cosets(z.G, z.tau.image(), z.sigma.image())
    witnesses = {dec.rep_of[c.witness] for c in report.classes}
    assert witnesses == {dec.rep_of[z.G.identity], dec.rep_of[x]}


def test_zip_classes_match_naive_on_small_zoo(zoo):
    for name in ("trivial-e", "tau-surjective", "s3-reflection-pair", "s3-mixed", "gl2f2-borel"):
        z = zoo[name]
        report = zip_classes(z)
        assert sorted((c.witness, c.members) for c in report.classes) == oracles.naive_zip_classes(z), name


def test_gl3f2_unitriangular_inclusion_datum():
    # the one datum over 3x3 matrices: G = GL3(F2), E its upper unitriangular
    # subgroup (order 8, from E12 and E23), tau = sigma the inclusion
    G = MatrixGroup.from_generators(3, 2, [(0, 1, 0, 0, 0, 1, 1, 0, 0), (1, 1, 0, 0, 1, 0, 0, 0, 1)])
    E = MatrixGroup.from_generators(3, 2, [(1, 1, 0, 0, 1, 0, 0, 0, 1), (1, 0, 0, 0, 1, 1, 0, 0, 1)])
    assert (G.order, E.order) == (168, 8)
    z = ZipDatum(E, G, inclusion_hom(E, G), inclusion_hom(E, G))
    coarse, fine = zip_classes(z), fine_orbits(z)
    assert coarse.class_count == 21 and all(c.size == 8 for c in coarse.classes)
    assert fine.class_count == 27
    assert sorted((c.witness, c.members) for c in coarse.classes) == oracles.naive_zip_classes(z)
    assert sorted((c.witness, c.members) for c in fine.classes) == oracles.naive_fine_orbits(z)
    assert len(build_forest(z).leaves) == 21
    checks = run_verification(z)
    assert len(checks) == 9 and all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_zip_class_witnesses_are_key_minimal(acceptance_classes):
    for name, report in acceptance_classes.items():
        for c in report.classes:
            assert c.witness == min(c.members), name


def test_zip_classes_member_witnesses_reproduce_members(zoo, witt22):
    for name, z in [*zoo.items(), ("witt-p2-n2", witt22[0])]:
        G = z.G
        for report in (fine_orbits(z), zip_classes(z)):
            for c in report.classes:
                allowed = c.trace.g_infinity.members if c.trace is not None else {G.identity}
                for y in c.members:
                    assert oracles.naive_class_witness(z, c.witness, allowed, y) is not None, (name, report.relation)


def test_witness_conjugation_identity(witt22):
    # E_inf^y = e * E_inf^x * e^-1 along a class matches a fresh refinement run
    z, _ = witt22
    report = zip_classes(z)
    for c in report.classes:
        for y in sorted(c.members)[:4]:
            e, _ = oracles.naive_class_witness(z, c.witness, c.trace.g_infinity.members, y)
            einf_y = oracles.naive_conjugate(z.E, c.trace.e_infinity.members, e)
            trace = refine_to_stationary(twist(z, y))
            assert einf_y == trace.e_infinity.members
            assert frozenset(z.tau.table[a] for a in einf_y) == trace.g_infinity.members


def test_zip_classes_deterministic_under_input_shuffle():
    import random

    z1, _ = build_witt_zip(WittZipConfig(2, 2))
    carrier = list(z1.E.elements)
    random.Random(7).shuffle(carrier)
    E = MatrixGroup(2, 4, carrier)
    G = MatrixGroup.general_linear(2, 2)
    items = [(e, tuple(v % 2 for v in e)) for e in carrier]
    tau = Homomorphism(E, G, dict(items))
    sigma_items = [(e, ((e[0]) % 2, (2 * e[1]) % 2, (e[2] // 2) % 2, e[3] % 2)) for e in carrier]
    random.Random(11).shuffle(sigma_items)
    sigma = Homomorphism(E, G, dict(sigma_items))
    z2 = ZipDatum(E, G, tau, sigma)
    r1 = zip_classes(z1)
    r2 = zip_classes(z2)
    assert [(c.witness, c.members) for c in r1.classes] == [(c.witness, c.members) for c in r2.classes]


# -- the partition contract ------------------------------------------------------

PARTITIONS = {
    "double-cosets": lambda z: double_cosets(z.G, z.tau_image, z.sigma_image),
    "fine-orbits": fine_orbits,
    "zip-classes": zip_classes,
}


@pytest.mark.parametrize("kind", sorted(PARTITIONS))
def test_partition_contract(zoo, witt22, kind):
    for name, z in [*zoo.items(), ("witt-p2-n2", witt22[0])]:
        partition = PARTITIONS[kind](z)
        assert isinstance(partition, Partition), name
        reps = partition.representatives()
        assert reps == tuple(partition.parts) == tuple(sorted(reps)), name
        assert len(partition) == len(reps), name
        assert list(partition) == list(partition.parts.values()), name
        assert set(partition.rep_of.values()) == set(reps), name
        for y in z.G:
            part = partition.part_of(y)
            assert y in part.members, name
            assert part is partition.parts[partition.rep_of[y]], name
        with pytest.raises(InputError):
            partition.part_of(None)


# -- coarsening ------------------------------------------------------------------


def test_coarsening_trivial_cases(zoo):
    for name in ("trivial-e", "tau-surjective"):
        z = zoo[name]
        assert coarsening_check(fine_orbits(z), zip_classes(z))


def test_coarsening_witt(witt22):
    z, _ = witt22
    assert coarsening_check(fine_orbits(z), zip_classes(z))


def test_coarsening_rejects_mismatched_reports(zoo):
    fine = fine_orbits(zoo["trivial-e"])
    coarse = zip_classes(zoo["tau-surjective"])
    with pytest.raises(InputError):
        coarsening_check(fine, coarse)


def test_checks_refuse_a_report_of_another_datum(zoo):
    z = zoo["s3-reflection-pair"]
    other = zip_classes(zoo["trivial-e"])
    for x in z.G.elements:
        with pytest.raises(InputError):
            torsor_check(z, x, report=other)
        with pytest.raises(InputError):
            refinement_bijection_check(z, x, coarse=other)


def test_strict_coarsening_exists_somewhere(zoo):
    # at least one corpus datum separates the two relations
    strict = [
        name
        for name, z in zoo.items()
        if fine_orbits(z).class_count > zip_classes(z).class_count
    ]
    assert strict


# -- refinement bijection --------------------------------------------------------


def test_refinement_bijection_identity_tau_surjective(zoo):
    z = zoo["tau-surjective"]
    assert refinement_bijection_check(z, z.G.identity, coarse=zip_classes(z))


def test_refinement_bijection_witt(witt22):
    z, x = witt22
    report = zip_classes(z)
    assert refinement_bijection_check(z, x, coarse=report)
    assert refinement_bijection_check(z, z.G.identity, coarse=report)


def test_refinement_bijection_all_zoo_roots(zoo):
    for name, z in zoo.items():
        report = zip_classes(z)
        dec = double_cosets(z.G, z.tau.image(), z.sigma.image())
        for r in dec.representatives():
            assert refinement_bijection_check(z, r, coarse=report), name


# -- torsor ------------------------------------------------------------------------


def test_torsor_trivial_e(zoo):
    z = zoo["trivial-e"]
    report = zip_classes(z)
    assert torsor_check(z, z.G.identity, report=report)
    assert torsor_check(z, (1, 2, 0), report=report)


def test_torsor_witt_identity_fiber_size(witt22):
    z, _ = witt22
    trace = refine_to_stationary(z)
    assert trace.e_infinity.order == 16
    assert torsor_check(z, z.G.identity, report=zip_classes(z))


def test_torsor_s3_data(zoo):
    for name in ("s3-reflection-pair", "s3-mixed"):
        z = zoo[name]
        report = zip_classes(z)
        for x in z.G.elements:
            assert torsor_check(z, x, report=report), name


def test_torsor_matches_naive_full_domain(zoo, witt22, witt23):
    # every x of the zoo and of witt-p2-n2; witt-p2-n3 at its forest roots
    # and class witnesses
    for name, z in [*zoo.items(), ("witt-p2-n2", witt22[0]), ("witt-p2-n3", witt23[0])]:
        report = zip_classes(z)
        xs = z.G.elements
        if name == "witt-p2-n3":
            xs = sorted({*build_forest(z).root_decomposition.representatives(), *report.parts})
        for x in xs:
            assert torsor_check(z, x, report=report) == oracles.naive_torsor_check(z, x), (name, x)


def test_torsor_with_report_members(witt22):
    z, x = witt22
    report = zip_classes(z)
    for c in report.classes:
        assert torsor_check(z, c.witness, report=report)


def test_torsor_count_rejects_a_twist_by_the_inverse(witt22, request):
    # at this x of witt-p2-n2 the inverse twist's stationary pairs pass part
    # (1) and its image is the class of x, so the count alone rejects it
    z, _ = witt22
    x, report = (1, 1, 1, 0), zip_classes(z)
    assert torsor_check(z, x, report=report)
    request.getfixturevalue("twist_by_inverse")
    assert not torsor_check(z, x, report=report)


# -- groupoid equivalence --------------------------------------------------------


def test_groupoid_identity_functor(witt22):
    z, x = witt22
    e = z.E.identity
    assert groupoid_equivalence_check(z, x, x, e, e)


def test_groupoid_witt_random_witnesses(witt22):
    z, x = witt22
    G = z.G
    for e, et in [(z.E.elements[5], z.E.elements[9]), (z.E.elements[17], z.E.elements[2])]:
        y = G.mul(G.mul(z.tau.table[e], x), z.sigma.table[et])
        assert groupoid_equivalence_check(z, x, y, e, et)


def test_groupoid_trivial_e_discrete(zoo):
    z = zoo["trivial-e"]
    e = z.E.identity
    for x in z.G.elements[:3]:
        assert groupoid_equivalence_check(z, x, x, e, e)


def test_groupoid_rejects_bad_witnesses(witt22):
    z, x = witt22
    e = z.E.identity
    y = z.G.mul(x, x)
    if y != x:
        with pytest.raises(InputError, match="sigma"):
            groupoid_equivalence_check(z, x, y, e, e)


@settings(max_examples=60)
@given(st.data())
def test_groupoid_check_matches_naive_oracle(s3, s4, data):
    # tau the inclusion of E keeps every action inside G_1 = E: all of G for
    # E = G = S3 or S4, and the dihedral subgroup of S4, so that the probes
    # are the generators of a proper subgroup; a corrupted sigma entry half
    # the time makes both verdicts occur
    d4 = closure(s4, [(1, 2, 3, 0), (0, 3, 2, 1)]).as_group()
    E, G = data.draw(st.sampled_from([(s3, s3), (s4, s4), (d4, s4)]))
    source, element = st.sampled_from(E.elements), st.sampled_from(G.elements)
    c = data.draw(element)
    table = oracles.naive_conjugation_table(G, c, E)
    if data.draw(st.booleans()):
        table[data.draw(source)] = data.draw(element)
    z = ZipDatum(E, G, inclusion_hom(E, G), forged_hom(E, G, table))
    x, e, et = data.draw(element), data.draw(source), data.draw(source)
    y = G.mul(G.mul(z.tau.table[e], x), z.sigma.table[et])
    expected = oracles.naive_groupoid_equivalence_check(z, x, y, e, et)
    assert groupoid_equivalence_check(z, x, y, e, et) == expected


def test_naive_groupoid_oracle_fails_an_action_that_leaves_g1(s4):
    # tau forged to send one transposition to 1: its image, S4 less that
    # transposition, is no subgroup, and the action of E_1 leaves it
    table = {a: a for a in s4}
    table[(1, 0, 2, 3)] = s4.identity
    z = ZipDatum(s4, s4, forged_hom(s4, s4, table), inclusion_hom(s4, s4))
    e = s4.identity
    assert oracles.naive_groupoid_equivalence_check(z, e, e, e, e) is False


def test_groupoid_generator_probes_decide_a_forged_tau(s3):
    # tau swaps two transpositions and sigma sends one 3-cycle to 1: the
    # pair map is a bijection and the equation holds at g = 1, so only the
    # probes at the generators of G_1 reject these witnesses
    tau_table = {a: a for a in s3}
    tau_table[(0, 2, 1)], tau_table[(2, 1, 0)] = (2, 1, 0), (0, 2, 1)
    sigma_table = {a: a for a in s3}
    sigma_table[(2, 0, 1)] = s3.identity
    z = ZipDatum(s3, s3, forged_hom(s3, s3, tau_table), forged_hom(s3, s3, sigma_table))
    x, e, et = (0, 1, 2), (1, 2, 0), (2, 0, 1)
    y = s3.mul(s3.mul(z.tau.table[e], x), z.sigma.table[et])
    assert groupoid_equivalence_check(z, x, y, e, et) is False
    assert oracles.naive_groupoid_equivalence_check(z, x, y, e, et) is False


def test_groupoid_check_matches_naive_oracle_on_zip_data(zoo, witt22, witt23):
    # at every forest root, with seeded witness draws
    data = [*zoo.items(), ("witt-p2-n2", witt22[0]), ("witt-p2-n3", witt23[0])]
    rng = random.Random(0)
    for name, z in data:
        G, E = z.G, z.E
        for x in build_forest(z).root_decomposition.representatives():
            for _ in range(3):
                e, et = rng.choice(E.elements), rng.choice(E.elements)
                y = G.mul(G.mul(z.tau.table[e], x), z.sigma.table[et])
                expected = oracles.naive_groupoid_equivalence_check(z, x, y, e, et)
                assert groupoid_equivalence_check(z, x, y, e, et) == expected, (name, x, e, et)


def test_witnessed_checks_see_a_witness_only_through_its_fiber(zoo, witt22):
    # verify draws each witness as the key-minimal element of a root fiber:
    # on zip data every e, et in E give the verdicts of those minima, since
    # a fiber is a coset of ker tau ∩ ker sigma
    substitutions = 0
    for name, z in [*zoo.items(), ("witt-p2-n2", witt22[0])]:
        G, E, tau, sigma = z.G, z.E, z.tau.table, z.sigma.table
        first = {}
        for e in E.elements:
            first.setdefault((tau[e], sigma[e]), e)
        minimal = {e: first[tau[e], sigma[e]] for e in E}
        for x in G:
            verdicts = {}
            for e, et in itertools.product(E.elements, repeat=2):
                y = G.mul(G.mul(tau[e], x), sigma[et])
                got = (
                    twist_refine_identity_check(z, x, y, witnesses=(e, et)),
                    groupoid_equivalence_check(z, x, y, e, et),
                )
                key = (minimal[e], minimal[et])
                substitutions += key != (e, et)
                assert verdicts.setdefault(key, got) == got, (name, x, e, et)
    assert substitutions == 6048


# -- verify stays on root pairs ----------------------------------------------------


@pytest.fixture
def e_member_builds(monkeypatch):
    """Counts the builds of ZipDatum._e_members, the set of a datum's E."""
    builds = []
    members = ZipDatum._e_members.func

    def counted(self):
        builds.append(self)
        return members(self)

    prop = cached_property(counted)
    prop.__set_name__(ZipDatum, "_e_members")
    monkeypatch.setattr(ZipDatum, "_e_members", prop)
    return builds


def test_verify_and_classes_build_no_subset_of_e(e_member_builds):
    # a fresh datum, so that no cached member set from another test hides a build
    z, x = build_witt_zip(WittZipConfig(2, 3))
    assert all(r.passed for r in run_verification(z))
    assert all(r.passed for r in run_verification(twist(z, x)))
    zip_classes(z)
    # a derived datum's E is a proper subset of the root's: the twist by
    # (1,1,0,1) refines to half of its pairs
    assert all(r.passed for r in run_verification(refine(twist(z, (1, 1, 0, 1)))))
    assert e_member_builds == []
    # the counter sees the builds a report makes
    refine_to_stationary(twist(z, x)).e_infinity
    assert len(e_member_builds) == 1


def test_repr_of_a_refined_twist_builds_no_subset_of_e(e_member_builds):
    z, _ = build_witt_zip(WittZipConfig(2, 3))
    # the twist by (1,1,0,1) refines to half of its pairs, so its E is a
    # proper subset of the root's
    d = refine(twist(z, (1, 1, 0, 1)))
    assert repr(d) == "<ZipDatum |P|=32 |G|=32>"
    assert e_member_builds == []
    # the counter sees the build that |E| makes
    assert d.E.order == 256
    assert len(e_member_builds) == 1


@pytest.fixture
def group_builds(monkeypatch):
    """Counts the constructions of FiniteGroup, in every backend."""
    builds = []
    init = FiniteGroup.__init__

    def counted(self, *args):
        builds.append(type(self))
        init(self, *args)

    monkeypatch.setattr(FiniteGroup, "__init__", counted)
    return builds


def test_reports_on_a_refined_twist_build_no_group(group_builds):
    # a derived datum's E-level report data are read on the root's E, so the
    # reports build no E of their own
    z, _ = build_witt_zip(WittZipConfig(2, 3))
    # the twist by (1,1,0,1) refines to half of its pairs, so its E is a
    # proper subset of the root's
    d = refine(twist(z, (1, 1, 0, 1)))
    trace, report = refine_to_stationary(d), zip_classes(d)
    built = len(group_builds)
    trace_document("d", d, trace)
    infinity_document("d", d, trace)
    class_report_document("d", report)
    assert len(group_builds) == built
    # the counter sees the construction that d.E makes
    assert d.E.order == 256
    assert len(group_builds) == built + 1


def test_twisted_verify_builds_no_sigma_table(witt23, monkeypatch):
    # a derived datum holds no map on E: once the root exists, verify,
    # twisted or not, and zip_classes construct no Homomorphism
    z, x = witt23
    builds = []
    hom_init = Homomorphism.__init__

    def counted(self, *args):
        builds.append(args)
        hom_init(self, *args)

    monkeypatch.setattr(Homomorphism, "__init__", counted)
    assert all(r.passed for r in run_verification(twist(z, x)))
    assert all(r.passed for r in run_verification(z))
    zip_classes(twist(z, x))
    assert builds == []
    # the counter sees a construction
    Homomorphism(z.E, z.G, z.tau.table)
    assert len(builds) == 1


# -- partition sanity across the corpus -------------------------------------------


def test_reports_partition_carrier(acceptance_classes, acceptance_data):
    data = dict(acceptance_data)
    for name, report in acceptance_classes.items():
        z = data[name]
        union = set()
        total = 0
        for c in report.classes:
            union |= c.members
            total += c.size
        assert union == set(z.G.element_set), name
        assert total == z.G.order, name
