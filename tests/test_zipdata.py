from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import same_carriers_and_tables
from zipcalc import (
    Homomorphism,
    InputError,
    MatrixGroup,
    RefinementTrace,
    ZipDatum,
    build_forest,
    e_infinity_characterization_check,
    inclusion_hom,
    is_tau_surjective,
    refine,
    refine_to_stationary,
    trivial_hom,
    twist,
    twist_refine_identity_check,
)


def defined_twist(z, x) -> dict:
    """e -> (tau(e), x*sigma(e)*x^-1) on the E of the root z, read off its
    certified tables."""
    conjugate = oracles.naive_conjugation_table(z.G, x, z.G)
    return {e: (z.tau.table[e], conjugate[z.sigma.table[e]]) for e in z.E.elements}


def defined_refine(pairs: dict) -> dict:
    """The pairs of one refinement step: those whose second coordinate is a
    first coordinate, that is e in sigma^-1(tau(E))."""
    tau_image = {a for a, _ in pairs.values()}
    return {e: p for e, p in pairs.items() if p[1] in tau_image}


def pairs_of(d) -> dict:
    """e -> d.pair_of(e) on the E of the datum d."""
    return {e: d.pair_of(e) for e in d.E.elements}


def test_zip_datum_rejects_mismatched_homs(s3, gl2f2):
    with pytest.raises(InputError):
        ZipDatum(s3, s3, inclusion_hom(s3, s3), trivial_hom(gl2f2, gl2f2))


# -- refine ---------------------------------------------------------------------


def test_refine_tau_surjective_is_identity(zoo):
    z = zoo["tau-surjective"]
    assert same_carriers_and_tables(refine(z), z)


def test_refine_trivial_e(zoo):
    z = zoo["trivial-e"]
    z1 = refine(z)
    assert z1.E.element_set == frozenset([z.E.identity])
    assert z1.G.element_set == frozenset([z.G.identity])


def test_refine_witt_shapes(witt23):
    z, _ = witt23
    z1 = refine(z)
    assert z1.E.element_set == frozenset(e for e in z.E if e[2] % 4 == 0)
    assert z1.G.element_set == frozenset(g for g in z.G if g[2] % 2 == 0)


# -- twist ----------------------------------------------------------------------


def test_twist_by_identity(witt22):
    z, _ = witt22
    assert same_carriers_and_tables(twist(z, z.G.identity), z)


def test_twist_then_untwist(witt22):
    z, x = witt22
    assert pairs_of(twist(z, x)) == defined_twist(z, x)
    assert same_carriers_and_tables(twist(twist(z, x), z.G.inv(x)), z)


def test_twist_rejects_outside_element(zoo):
    z = zoo["s3-reflection-pair"]
    with pytest.raises(InputError):
        twist(z, (0, 1, 1, 0))


@given(st.data())
def test_twist_composes_like_conjugation(witt22, data):
    z, _ = witt22
    G = z.G
    x = G.elements[data.draw(st.integers(0, G.order - 1))]
    y = G.elements[data.draw(st.integers(0, G.order - 1))]
    assert pairs_of(twist(twist(z, x), y)) == defined_twist(z, G.mul(y, x))
    assert same_carriers_and_tables(twist(twist(z, x), y), twist(z, G.mul(y, x)))
    assert same_carriers_and_tables(twist(twist(z, x), G.inv(x)), z)


def test_twists_share_the_refined_carrier(zoo):
    # twisting keeps first coordinates, so every twist refines to one G_1 group
    for name, z in zoo.items():
        G1 = refine(z).G
        for x in z.G.elements:
            assert refine(twist(z, x)).G is G1, (name, x)


def test_twist_witt_antidiagonal_formula(witt23):
    z, x = witt23
    zx = twist(z, x)
    p, m = 2, 4
    for e in z.E.elements[::37]:
        a, b, c, d = e
        assert zx.pair_of(e) == (z.tau.table[e], (d % m, (c // p) % m, (p * b) % m, a % m))


# -- the pair core ------------------------------------------------------------------


def test_pair_images_match_hom_images(acceptance_data):
    for name, z in acceptance_data[:-1]:
        x = z.G.elements[-1]
        tables = defined_twist(z, z.G.identity)
        assert set(tables.values()) == set(z.action_pairs), name
        for d, pairs in ((z, tables), (twist(z, x), defined_twist(z, x)), (refine(z), defined_refine(tables))):
            assert d.tau_image.members == {a for a, _ in pairs.values()}, name
            assert d.sigma_image.members == {b for _, b in pairs.values()}, name


def test_derived_e_level_attributes(witt22):
    # a derived datum builds its E on first use, and holds no map on it and
    # no datum but its root
    z, x = witt22
    zx = twist(z, x)
    z1 = refine(zx)
    assert zx.E is z.E
    expected = defined_refine(defined_twist(z, x))
    assert z1.E.elements == tuple(sorted(expected))
    for e in z.E.elements:
        assert z1.pair_of(e) == expected.get(e)
    for d in (zx, z1):
        assert not any(hasattr(d, name) for name in ("tau", "sigma", "_hom", "sigma_witnesses", "_parent"))
        assert d._root is z


def test_pair_tables_iterate_in_witness_order(zoo, witt22, witt23):
    # the order fixes only verify's witness draws and the witnesses of
    # ZipDatum._conjugation_onto; the forest's transport tables need no order
    def witness_order(d):
        return [d._root._fibers[r][0] for r in d._pairs]

    for name, z in [*zoo.items(), ("witt-p2-n2", witt22[0]), ("witt-p2-n3", witt23[0])]:
        data = [*refine_to_stationary(z).data]
        for x in z.G.elements:
            data += refine_to_stationary(twist(z, x)).data
        data += [node.datum for gen in build_forest(z).generations for node in gen]
        for d in data:
            mins = witness_order(d)
            assert all(a < b for a, b in zip(mins, mins[1:])), name


def test_refinement_matches_naive_chain_for_every_twist(zoo, witt22, witt23):
    data = list(zoo.values()) + [witt22[0], witt23[0]]
    for z in data:
        for x in z.G.elements:
            trace = refine_to_stationary(twist(z, x))
            stages, einf, ginf = oracles.naive_refinement_chain(z, x)
            assert [(e.members, g.members) for e, g in trace.stages] == stages
            assert trace.e_infinity.members == einf
            assert trace.g_infinity.members == ginf


def test_twisted_refinement_stays_on_pairs(witt23, monkeypatch):
    # no E-sized table and no product in E: only the twist's conjugations
    z, _ = witt23
    counts = {"hom": 0, "E": 0, "G": 0}
    hom_init = Homomorphism.__init__
    mul = MatrixGroup.mul

    def counting_init(self, *args, **kwargs):
        counts["hom"] += 1
        hom_init(self, *args, **kwargs)

    def counting_mul(self, a, b):
        counts["E" if self.modulus == z.E.modulus else "G"] += 1
        return mul(self, a, b)

    pair_count = len(z.action_pairs)
    assert (pair_count, z.E.order) == (64, 512)
    monkeypatch.setattr(Homomorphism, "__init__", counting_init)
    monkeypatch.setattr(MatrixGroup, "mul", counting_mul)
    for x in z.G.elements:
        counts.update(hom=0, E=0, G=0)
        refine_to_stationary(twist(z, x))
        assert counts["hom"] == 0 and counts["E"] == 0
        assert counts["G"] <= 2 * pair_count


# -- refinement to stationarity ----------------------------------------------------


def test_trace_tau_surjective(zoo):
    z = zoo["tau-surjective"]
    trace = refine_to_stationary(z)
    assert trace.stationary_index == 0
    assert trace.e_infinity.members == z.E.element_set
    assert trace.g_infinity.members == z.G.element_set


def test_trace_witt_shapes(witt23):
    z, _ = witt23
    trace = refine_to_stationary(z)
    assert trace.stationary_index == 2
    for i, (e_i, g_i) in enumerate(trace.stages):
        assert e_i.members == frozenset(e for e in z.E if e[2] % min(2 ** (i + 1), 8) == 0)
        assert g_i.members == frozenset(g for g in z.G if g[2] % min(2**i, 4) == 0)
    assert trace.e_infinity.members == frozenset(e for e in z.E if e[2] == 0)
    assert trace.g_infinity.members == frozenset(g for g in z.G if g[2] == 0)


def test_trace_twisted_witt_stabilizes_immediately(witt23):
    z, x = witt23
    shape_e = frozenset(e for e in z.E if e[2] % 2 == 0)
    shape_g = frozenset(g for g in z.G if g[2] % 2 == 0)
    d = twist(z, x)
    trace = refine_to_stationary(d)
    assert trace.e_infinity.members == shape_e == z.E.element_set
    assert trace.g_infinity.members == shape_g
    # the stages repeat the same shapes from index 1 on
    for _ in range(2):
        d = refine(d)
        assert d.E.element_set == shape_e
        assert d.G.element_set == shape_g


def test_trace_chains_decrease_and_sigma_contained(acceptance_data):
    for _, z in acceptance_data:
        trace = refine_to_stationary(z)
        for (e_a, g_a), (e_b, g_b) in zip(trace.stages, trace.stages[1:]):
            assert e_b.members <= e_a.members
            assert g_b.members <= g_a.members
        einf = trace.e_infinity.members
        for e_i, _ in trace.stages:
            assert einf <= e_i.members
        # sigma maps the stationary subgroup into its tau-image
        assert frozenset(z.sigma.table[e] for e in einf) <= frozenset(z.tau.table[e] for e in einf)
        # intersections along the (eventually constant) chains
        inter_e = z.E.element_set
        inter_g = z.G.element_set
        for e_i, g_i in trace.stages:
            inter_e &= e_i.members
            inter_g &= g_i.members
        assert inter_e == einf
        assert inter_g & trace.g_infinity.members == trace.g_infinity.members


def test_refinement_invariance_small(zoo):
    for z in zoo.values():
        trace = refine_to_stationary(z)
        refined = refine_to_stationary(refine(z))
        assert trace.e_infinity.members == refined.e_infinity.members
        assert trace.g_infinity.members == refined.g_infinity.members


def test_stationary_e_matches_lattice_search(zoo):
    for name in ("trivial-e", "s3-reflection-pair", "s3-mixed", "c2cube-projection", "gl2f2-borel"):
        z = zoo[name]
        trace = refine_to_stationary(z)
        assert trace.e_infinity.members == oracles.lattice_e_infinity(z), name


def test_twist_refine_order_same_g_component(zoo):
    # for x in tau(E), refining after twisting and twisting after refining
    # agree on both components: tau(E) is a subgroup holding x, so
    # x * sigma(e) * x^-1 lies in it exactly when sigma(e) does
    for z in zoo.values():
        for x in z.tau.image().elements:
            a = refine(twist(z, x))
            b = twist(refine(z), x)
            assert a.G.element_set == b.G.element_set
            assert a.E.element_set == b.E.element_set


# -- stationary characterization ------------------------------------------------


def test_characterization_trivial_e(zoo):
    z = zoo["trivial-e"]
    assert e_infinity_characterization_check(z, refine_to_stationary(z))


def test_characterization_witt(witt22):
    z, _ = witt22
    assert e_infinity_characterization_check(z, refine_to_stationary(z))


def test_characterization_random_permutation_data(s4):
    from zipcalc import closure, Homomorphism

    sub = closure(s4, [(1, 0, 2, 3), (0, 2, 1, 3)]).as_group()
    incl = inclusion_hom(sub, s4)
    conj = Homomorphism(sub, s4, oracles.naive_conjugation_table(s4, (3, 0, 1, 2), sub))
    for tau, sigma in [(incl, conj), (conj, incl), (incl, trivial_hom(sub, s4))]:
        z = ZipDatum(sub, s4, tau, sigma)
        assert e_infinity_characterization_check(z, refine_to_stationary(z))


def test_characterization_refuses_a_trace_over_another_root(zoo):
    # root pairs name fibers of their own root only, even over equal tables
    z = zoo["s3-mixed"]
    other = ZipDatum(z.E, z.G, z.tau, z.sigma)
    assert e_infinity_characterization_check(z, refine_to_stationary(z))
    with pytest.raises(InputError, match="another root"):
        e_infinity_characterization_check(z, refine_to_stationary(other))


def test_characterization_matches_naive_oracle(zoo, witt22, witt23, witt32):
    # the true trace and one cut a stage early, which some of the data reject
    data = [*zoo.items(), ("witt-p2-n2", witt22[0]), ("witt-p2-n3", witt23[0]), ("witt-p3-n2", witt32[0])]
    verdicts = set()
    for name, z in data:
        trace = refine_to_stationary(z)
        for t in (trace, RefinementTrace(trace.data[:-1] or trace.data)):
            verdict = e_infinity_characterization_check(z, t)
            assert verdict == oracles.naive_e_infinity_characterization(z, t), name
            verdicts.add(verdict)
    assert verdicts == {True, False}


# -- twist/refine identities -------------------------------------------------------


def test_twist_identity_check_trivial(witt22):
    z, _ = witt22
    assert twist_refine_identity_check(z, z.G.identity, z.G.identity)


def test_twist_identity_check_requires_y_in_image(zoo):
    z = zoo["s3-mixed"]
    outside = next(g for g in z.G if g not in z.tau.image().members)
    with pytest.raises(InputError, match="image of tau"):
        twist_refine_identity_check(z, z.G.identity, outside)


@given(st.data())
def test_twist_identity_part_one_witt(witt22, data):
    z, x = witt22
    tau_image = z.tau.image().elements
    y = tau_image[data.draw(st.integers(0, len(tau_image) - 1))]
    assert twist_refine_identity_check(z, x, y)


@given(st.data())
def test_twist_identity_part_two_s3(zoo, data):
    z = zoo["s3-mixed"]
    e = z.E.elements[data.draw(st.integers(0, z.E.order - 1))]
    et = z.E.elements[data.draw(st.integers(0, z.E.order - 1))]
    x = z.G.elements[data.draw(st.integers(0, z.G.order - 1))]
    y = z.G.mul(z.G.mul(z.tau.table[e], x), z.sigma.table[et])
    assert twist_refine_identity_check(z, x, y, witnesses=(e, et))


def test_twist_identity_part_two_bad_witness(witt22):
    z, x = witt22
    e0 = z.E.identity
    bad_y = z.G.mul(x, x)
    if bad_y != z.G.mul(z.G.mul(z.tau.table[e0], x), z.sigma.table[e0]):
        with pytest.raises(InputError, match="tau\\(e\\)"):
            twist_refine_identity_check(z, x, bad_y, witnesses=(e0, e0))


def test_is_tau_surjective(zoo):
    assert is_tau_surjective(zoo["tau-surjective"])
    assert not is_tau_surjective(zoo["s3-mixed"])


def test_stationary_datum_has_surjective_restriction(acceptance_data):
    for _, z in acceptance_data:
        trace = refine_to_stationary(z)
        assert is_tau_surjective(refine(trace.stationary_datum))
