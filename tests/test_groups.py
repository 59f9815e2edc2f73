from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from zipcalc import groups, zoo
from zipcalc import (
    CayleyTableGroup,
    Homomorphism,
    InputError,
    MatrixGroup,
    PermutationGroup,
    Subgroup,
    closure,
    double_cosets,
    hom_from_generator_images,
    inclusion_hom,
    trivial_hom,
)


def conjugation_hom(group, x):
    """The inner automorphism a -> x * a * x^-1, given by its rule."""
    x_inv = group.inv(x)
    return groups._rule_hom(group, group, lambda a: (group.mul(group.mul(x, a), x_inv),))


def xor_table(bits):
    size = 1 << bits
    return [[i ^ j for j in range(size)] for i in range(size)]


@pytest.fixture(scope="module")
def c2cube():
    return CayleyTableGroup(xor_table(3))


# -- backends -----------------------------------------------------------------


def test_symmetric_group_carrier(s3):
    assert s3.order == 6
    assert s3.element_set == frozenset(itertools.permutations(range(3)))
    assert s3.identity == (0, 1, 2)


def test_group_laws_all_backends(s3, gl2f2, c2cube):
    for group in (s3, gl2f2, c2cube):
        index = {a: i for i, a in enumerate(group.elements)}
        table = [[index[group.mul(a, b)] for b in group.elements] for a in group.elements]
        assert oracles.naive_is_group_table(table)


def test_gl2f2_matches_brute_force(gl2f2):
    assert gl2f2.order == 6
    assert gl2f2.element_set == frozenset(oracles.brute_force_gl2_carrier(2))


FROM_GENERATORS = {
    "s4": (PermutationGroup, (4,), [(1, 0, 2, 3), (1, 2, 3, 0)], 24),
    "gl2f2": (MatrixGroup, (2, 2), [(1, 1, 0, 1), (0, 1, 1, 0)], 6),
    "gl3f2": (MatrixGroup, (3, 2), [(0, 1, 0, 0, 0, 1, 1, 0, 0), (1, 1, 0, 0, 1, 0, 0, 0, 1)], 168),
}


@pytest.mark.parametrize("name", FROM_GENERATORS)
def test_from_generators_carrier_is_the_naive_closure(name):
    cls, space, gens, order = FROM_GENERATORS[name]
    group = cls.from_generators(*space, gens)
    assert group.order == order
    assert group.element_set == oracles.naive_closure(group, gens)


def test_permutation_mul_applies_right_factor_first(s3):
    a = (1, 2, 0)
    b = (1, 0, 2)
    assert s3.mul(a, b) == tuple(a[b[i]] for i in range(3))
    assert s3.mul(a, s3.inv(a)) == s3.identity


def test_matrix_inverse_matches_identity():
    g = MatrixGroup.general_linear(2, 8)
    for a in g.elements[:40]:
        assert g.mul(a, g.inv(a)) == g.identity


def test_matrix_3x3_inverse():
    g = MatrixGroup.from_generators(3, 2, [(0, 1, 0, 0, 0, 1, 1, 0, 0), (1, 1, 0, 0, 1, 0, 0, 0, 1)])
    MatrixGroup(3, 2, g.elements)  # certifies the carrier as a subgroup of GL3(F2)
    for a in g.elements:
        assert g.mul(a, g.inv(a)) == g.identity


@settings(max_examples=400)
@given(st.data())
def test_matrix_det_and_inverse_match_cofactor_oracle(data):
    size = data.draw(st.integers(1, 5), label="size")
    modulus = data.draw(st.integers(2, 12), label="modulus")
    a = tuple(data.draw(st.lists(st.integers(0, modulus - 1), min_size=size * size, max_size=size * size)))
    g = MatrixGroup(size, modulus, [tuple(int(i == j) for i in range(size) for j in range(size))])
    rows = [list(a[i * size : (i + 1) * size]) for i in range(size)]
    assert g.det(a) == oracles.cofactor_det(rows) % modulus
    inverse = oracles.cofactor_inverse_mod(rows, modulus)
    if inverse is not None:
        assert g.inv(a) == tuple(v for row in inverse for v in row)


@settings(max_examples=400)
@given(st.data())
def test_matrix_mul_matches_naive_oracle(data):
    size = data.draw(st.integers(1, 5), label="size")
    modulus = data.draw(st.integers(2, 12), label="modulus")
    entries = st.lists(st.integers(0, modulus - 1), min_size=size * size, max_size=size * size)
    a, b = tuple(data.draw(entries, label="a")), tuple(data.draw(entries, label="b"))
    g = MatrixGroup(size, modulus, [tuple(int(i == j) for i in range(size) for j in range(size))])
    assert g.mul(a, b) == oracles.naive_matmul_mod(a, b, size, modulus)


@given(st.data())
def test_matrix_group_algebra(data):
    g = MatrixGroup.general_linear(2, 6)
    pick = lambda: g.elements[data.draw(st.integers(0, g.order - 1))]
    a, b, c = pick(), pick(), pick()
    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
    assert g.mul(a, g.inv(a)) == g.identity
    assert g.inv(g.mul(a, b)) == g.mul(g.inv(b), g.inv(a))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MatrixGroup(2, 2, [(1, 0, 0, 1), (0, 0, 0, 0)]), "matrix [0,0,0,0] is not invertible mod 2"),
        (lambda: MatrixGroup(2, 2, [(1, 0, 0, 1), (1, 0, 0)]), "matrix (1, 0, 0) needs 4 entries"),
        (lambda: MatrixGroup(2, 2, [(1, 0, 0, 1), (1, 0, 0, 2)]), "matrix (1, 0, 0, 2) has an entry outside 0..1"),
        (lambda: MatrixGroup(2, 2, [(1, 0, 0, 1), (1, 0, "x", 1)]), "matrix must be a list of integers"),
        (lambda: PermutationGroup(3, [(0, 1, 2), (0, "a", 1)]), "permutation must be a list of integers"),
        (lambda: PermutationGroup(3, [(0, 1, 2), (0, 0, 1)]), "(0, 0, 1) is not a permutation of 0..2"),
    ],
)
def test_explicit_carrier_errors_name_the_element_kind(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value).startswith(message)
    assert "generator" not in str(info.value)


def test_cayley_rejects_bad_table():
    with pytest.raises(InputError):
        CayleyTableGroup([[0, 1], [0, 1]])
    with pytest.raises(InputError):
        CayleyTableGroup([[0, 1], [1]])


def test_cayley_rejects_nonassociative_table():
    # a Latin square with identity that is not a group
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InputError):
        CayleyTableGroup(table)


def test_format_parse_roundtrip(s3, gl2f2, c2cube):
    for group in (s3, gl2f2, c2cube):
        for a in group.elements:
            assert group.parse_element(group.format_element(a)) == a


def test_permutation_cycle_notation(s3):
    assert s3.format_element((0, 1, 2)) == "()"
    assert s3.format_element((1, 0, 2)) == "(0 1)"
    assert s3.format_element((1, 2, 0)) == "(0 1 2)"
    assert s3.parse_element("(0 1)(2)") == (1, 0, 2)
    for text in ("(0 7)", "(0 x)", "(0 1) (2)", "((0 1))"):
        with pytest.raises(InputError):
            s3.parse_element(text)
    # cycles of one literal are disjoint; composing cycles that share a point
    # would read "(0 1)(0 1)" as (0 1), not as the identity it multiplies to
    for text in ("(0 1)(0 1)", "(0 1 2)(0 2 1)", "(0 1)(1 2)", "(0)(0)"):
        with pytest.raises(InputError, match="repeated point in cycle"):
            s3.parse_element(text)


LITERAL_TEXT = st.one_of(st.text(), st.text(alphabet="()[], -0123x\t"))


@given(LITERAL_TEXT)
def test_parse_element_returns_member_or_input_error(s3, gl2f2, c2cube, text):
    for group in (s3, gl2f2, c2cube):
        try:
            a = group.parse_element(text)
        except InputError:
            continue
        assert a in group


def test_restricted_group_shares_operations(s3):
    sub = closure(s3, [(1, 0, 2)]).as_group()
    assert sub.order == 2
    assert sub.space() == s3.space()
    assert sub.mul((1, 0, 2), (1, 0, 2)) == s3.identity


# -- closure ------------------------------------------------------------------


def test_closure_empty_generating_set(s3):
    assert closure(s3, []).members == frozenset([s3.identity])


def test_closure_s3_generators(s3):
    sub = closure(s3, [(1, 0, 2), (1, 2, 0)])
    assert sub.members == s3.element_set
    assert sub.members == oracles.naive_closure(s3, [(1, 0, 2), (1, 2, 0)])


def test_closure_full_carrier_gl2f2(gl2f2):
    assert closure(gl2f2, gl2f2.elements).order == 6


def test_closure_rejects_outside_element(s3):
    with pytest.raises(InputError):
        closure(s3, [(0, 1, 2, 3)])


@given(st.data())
def test_closure_is_a_subgroup(s4, data):
    k = data.draw(st.integers(min_value=0, max_value=3))
    gens = [s4.elements[data.draw(st.integers(0, s4.order - 1))] for _ in range(k)]
    sub = closure(s4, gens)
    PermutationGroup(4, sub.members)  # the explicit carrier certifies closure
    assert set(gens) <= sub.members
    assert sub.members == oracles.naive_closure(s4, gens)


# -- image / preimage ----------------------------------------------------------


def test_image_identity_hom(s3):
    h = inclusion_hom(s3, s3)
    assert h.image().members == s3.element_set
    sub = closure(s3, [(1, 2, 0)])
    assert inclusion_hom(sub.as_group(), s3).image().members == sub.members


def test_image_of_trivial_subgroup(s3, gl2f2):
    trivial = closure(s3, [])
    assert trivial.members == frozenset([s3.identity])
    h = trivial_hom(trivial.as_group(), gl2f2)
    assert h.image().members == frozenset([gl2f2.identity])


def test_preimage_of_full_target(s3):
    h = trivial_hom(s3, s3)
    assert h.preimage(Subgroup(s3, s3.element_set)).members == s3.element_set


def test_preimage_identity_hom(s3):
    h = inclusion_hom(s3, s3)
    sub = closure(s3, [(1, 0, 2)])
    assert h.preimage(sub).members == sub.members


def test_witt_image_and_preimage_shapes(witt23):
    z, _ = witt23
    tau_image = z.tau.image()
    assert tau_image.members == frozenset(g for g in z.G if g[2] % 2 == 0)
    pre = z.sigma.preimage(tau_image)
    assert pre.members == frozenset(e for e in z.E if e[2] % 4 == 0)


@given(st.data())
def test_image_preimage_monotone(s4, data):
    x = (1, 2, 3, 0)
    h = conjugation_hom(s4, x)
    small = closure(s4, [s4.elements[data.draw(st.integers(0, s4.order - 1))]])
    big_gen = s4.elements[data.draw(st.integers(0, s4.order - 1))]
    big = closure(s4, list(small.members) + [big_gen])
    assert h.preimage(small).members <= h.preimage(big).members
    # h is conjugation by x, so the image of a subgroup is its conjugate
    small_image = Subgroup(s4, oracles.naive_conjugate(s4, small.members, x))
    assert h.preimage(small_image).members >= small.members


# -- homomorphisms --------------------------------------------------------------


def test_hom_rejects_partial_table(s3):
    with pytest.raises(InputError):
        Homomorphism(s3, s3, {s3.identity: s3.identity})


def test_hom_rejects_non_multiplicative_table(s3):
    table = {a: a for a in s3}
    table[(1, 0, 2)] = (1, 2, 0)
    # the pair is searched for after the graph certificate fails: the
    # key-first a for the first generator s with f(a*s) != f(a)*f(s)
    with pytest.raises(InputError) as failure:
        Homomorphism(s3, s3, table)
    assert str(failure.value) == "map is not multiplicative at ((0 1), (1 2))"


def test_hom_takes_no_switch_past_its_certificate(s3):
    table = {a: a for a in s3}
    table[(1, 0, 2)] = (1, 2, 0)
    with pytest.raises(TypeError):
        Homomorphism(s3, s3, table, check=False)


def test_constructed_homs_pass_the_naive_oracle(zoo):
    """On each zoo datum's E inside G: the inclusion, the trivial map, a
    conjugation of G and the conjugated inclusion given by generator images."""
    for name, z in zoo.items():
        E, G = z.E, z.G
        x = G.elements[-1]
        images = list(oracles.naive_conjugation_table(G, x, E.generators).values())
        for source, h in [
            (E, inclusion_hom(E, G)),
            (E, trivial_hom(E, G)),
            (G, conjugation_hom(G, x)),
            (E, hom_from_generator_images(E, G, E.generators, images)),
        ]:
            assert oracles.naive_is_homomorphism(source, G, h.table), name


def test_hom_from_generator_images(s3):
    h = hom_from_generator_images(s3, s3, [(1, 0, 2), (1, 2, 0)], [(1, 0, 2), (1, 2, 0)])
    assert h.table == inclusion_hom(s3, s3).table


def test_hom_from_generator_images_runs_one_closure(s3, monkeypatch):
    # the graph closure is the certificate: no extension walk before it and
    # no table certificate after it
    mulclose = groups._mulclose
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mulclose(*args, **kwargs)

    monkeypatch.setattr(groups, "_mulclose", counted)
    h = hom_from_generator_images(s3, s3, [(1, 0, 2), (1, 2, 0)], [(1, 0, 2), (1, 2, 0)])
    assert len(calls) == 1
    assert h.table == {a: a for a in s3}


def rule_homs(witt22, s4):
    """(name, builder, source, naive image) for each map given by a rule:
    the inclusion and trivial maps of a C4 into S4, a conjugation of S4,
    and the two Witt presets on witt-p2-n2's E and G."""
    z, _ = witt22
    E, G = z.E, z.G
    sub = closure(s4, [(1, 2, 3, 0)]).as_group()
    x = (1, 0, 3, 2)
    conjugate = oracles.naive_conjugation_table(s4, x, s4)
    # lift to Z, conjugate by diag(2, 1) exactly, reduce one level
    lifted_sigma = lambda e: tuple(v % 2 for v in (e[0], 2 * e[1], e[2] // 2, e[3]))
    return [
        ("inclusion", lambda: inclusion_hom(sub, s4), sub, lambda a: a),
        ("trivial", lambda: trivial_hom(sub, s4), sub, lambda a: s4.identity),
        ("conjugation", lambda: conjugation_hom(s4, x), s4, conjugate.__getitem__),
        ("witt-tau", lambda: zoo.witt_hom(E, G), E, lambda e: tuple(v % 2 for v in e)),
        ("witt-sigma", lambda: zoo.witt_hom(E, G, 2), E, lifted_sigma),
    ]


def test_rule_homs_run_one_closure_and_match_their_rule(witt22, s4, monkeypatch):
    # the graph closure is the whole certificate: the rule is not tabulated
    # over the source first, and no table certificate follows
    mulclose = groups._mulclose
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mulclose(*args, **kwargs)

    cases = rule_homs(witt22, s4)
    for _, _, source, _ in cases:
        source.generators  # the certificate reads them; their own closure is not its
    monkeypatch.setattr(groups, "_mulclose", counted)
    for name, build, source, naive in cases:
        calls.clear()
        h = build()
        assert len(calls) == 1, name
        assert h.table == {a: naive(a) for a in source.elements}, name


def test_a_rule_is_read_once_at_each_element(s4):
    # at the identity, at each generator and at each product the closure
    # tests; the closure does not test the generators again
    read = []

    def rule(a):
        read.append(a)
        return (a,)

    groups._rule_hom(s4, s4, rule)
    assert sorted(read) == list(s4.elements)


def test_rule_hom_tables_hold_the_groups_own_elements(witt22, s4):
    # keys and values are the element values the source and target already
    # hold, not copies the closure made, so a rule-built table retains no
    # more memory than a tabulation of the rule over the source would; a
    # table hom keeps the closure's table, not the copies it was given
    z, _ = witt22
    copied = Homomorphism(z.E, z.G, {tuple(list(e)): tuple(list(z.tau.table[e])) for e in z.E})
    homs = [build() for _, build, _, _ in rule_homs(witt22, s4)] + [z.tau, z.sigma, copied]
    for h in homs:
        keys = dict(zip(h.source.elements, h.source.elements))
        values = dict(zip(h.target.elements, h.target.elements))
        assert all(a is keys[a] and b is values[b] for a, b in h.table.items()), h


def test_hom_keeps_its_own_copy_of_the_table(s3):
    d = {a: a for a in s3}
    h = Homomorphism(s3, s3, d)
    d[(1, 0, 2)] = (1, 2, 0)
    del d[s3.identity]
    assert h.table == {a: a for a in s3}


def test_a_rule_hom_names_the_key_first_failing_pair(s4):
    # the identity on 1 and s = (0 1 2 3), trivial elsewhere: f(s*s) = 1 but
    # f(s)*f(s) = s^2; the pair is searched for only once the closure fails
    sub = closure(s4, [(1, 2, 3, 0)]).as_group()
    with pytest.raises(InputError, match=r"^map is not multiplicative at \(\(0 1 2 3\), \(0 1 2 3\)\)$"):
        groups._rule_hom(sub, s4, lambda a: (a if a in ((0, 1, 2, 3), (1, 2, 3, 0)) else s4.identity,))


def test_a_target_that_is_no_group_is_an_input_error(s3):
    # as_group() restricts any member set; this one is not closed, and the
    # images of the two generators of C2 x C2 multiply to a 3-cycle outside it
    target = Subgroup(s3, [(0, 1, 2), (1, 0, 2), (0, 2, 1)]).as_group()
    v4 = CayleyTableGroup(xor_table(2))
    with pytest.raises(InputError, match=r"^map is not multiplicative at \(2, 1\)$"):
        Homomorphism(v4, target, {0: (0, 1, 2), 1: (1, 0, 2), 2: (0, 2, 1), 3: (0, 1, 2)})
    with pytest.raises(InputError):
        hom_from_generator_images(v4, target, [1, 2], [(1, 0, 2), (0, 2, 1)])


def test_hom_from_generator_images_inconsistent(s3):
    # sending an involution to a 3-cycle cannot extend to a homomorphism
    with pytest.raises(InputError):
        hom_from_generator_images(s3, s3, [(1, 0, 2)], [(1, 2, 0)])


# -- double cosets ---------------------------------------------------------------


def test_double_cosets_full_subgroups(s3):
    full = Subgroup(s3, s3.element_set)
    dec = double_cosets(s3, full, full)
    assert len(dec) == 1
    assert dec.representatives()[0] == s3.identity


def test_double_cosets_trivial_subgroups(s3):
    dec = double_cosets(s3, closure(s3, []), closure(s3, []))
    assert len(dec) == 6
    assert all(c.members == frozenset([c.representative]) for c in dec)


def test_borel_double_cosets(gl2f2):
    borel = closure(gl2f2, [(1, 1, 0, 1)])
    dec = double_cosets(gl2f2, borel, borel)
    assert sorted(len(c.members) for c in dec) == [2, 4]
    naive = oracles.naive_double_cosets(gl2f2, borel.elements, borel.elements)
    assert naive == sorted((c.representative, c.members) for c in dec)


def test_witt_double_cosets_two_classes(witt22):
    z, x = witt22
    dec = double_cosets(z.G, z.tau.image(), z.sigma.image())
    assert len(dec) == 2
    assert dec.rep_of[z.G.identity] != dec.rep_of[x]


@given(st.data())
def test_double_cosets_partition(s4, data):
    left = closure(s4, [s4.elements[data.draw(st.integers(0, s4.order - 1))]])
    right = closure(s4, [s4.elements[data.draw(st.integers(0, s4.order - 1))]])
    dec = double_cosets(s4, left, right)
    union = set()
    total = 0
    for coset in dec:
        assert coset.representative == min(coset.members)
        union |= coset.members
        total += len(coset.members)
    assert union == set(s4.element_set)
    assert total == s4.order
    assert oracles.naive_double_cosets(s4, left.elements, right.elements) == sorted(
        (c.representative, c.members) for c in dec
    )


def test_explicit_carrier_catches_non_subgroup(s3):
    with pytest.raises(InputError):
        PermutationGroup(3, [s3.identity, (1, 2, 0)])
