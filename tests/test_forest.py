from __future__ import annotations

import pytest

import oracles
import zipcalc.forest
from zipcalc import (
    Homomorphism,
    InputError,
    InvariantViolation,
    MatrixGroup,
    WittZipConfig,
    ZipDatum,
    build_forest,
    build_witt_zip,
    classify,
    closure,
    forest_to_dot,
    inclusion_hom,
    limit_bijection_check,
    refine,
    refinement_bijection_check,
    trivial_hom,
    twist,
    zip_classes,
    zoo_entry,
)


def test_forest_tau_surjective_single_stable_root(zoo):
    z = zoo["tau-surjective"]
    forest = build_forest(z)
    assert len(forest.roots) == 1
    assert forest.roots[0].stable
    assert forest.stationary_generation == 0


def test_forest_trivial_e_all_roots_stable(zoo):
    z = zoo["trivial-e"]
    forest = build_forest(z)
    assert len(forest.roots) == z.G.order
    assert all(node.stable for node in forest.roots)
    assert forest.stationary_generation == 0


def test_forest_witt22_two_stable_roots(witt22):
    z, x = witt22
    forest = build_forest(z)
    assert len(forest.roots) == 2
    assert forest.stationary_generation == 0
    assert {forest.root_decomposition.rep_of[z.G.identity], forest.root_decomposition.rep_of[x]} == {
        n.element for n in forest.roots
    }


def test_forest_witt23_generations_stay_two_wide(witt23):
    z, _ = witt23
    forest = build_forest(z)
    assert len(forest.roots) == 2
    assert all(len(gen) == 2 for gen in forest.generations)
    assert all(node.stable for node in forest.leaves)


def test_forest_accumulated_products(witt23):
    z, _ = witt23
    forest = build_forest(z)
    for gen in forest.generations[1:]:
        for node in gen:
            assert node.accumulated == z.G.mul(node.element, node.parent.accumulated)


def test_forest_stability_is_hereditary(witt23, zoo):
    for forest in (build_forest(witt23[0]), build_forest(zoo["s3-mixed"])):
        for gen in forest.generations:
            for node in gen:
                if node.stable:
                    assert all(c.stable and c.element == forest.datum.G.identity for c in node.children.values())


def test_node_data_equal_their_definition_from_the_root(zoo, witt22, witt23, witt32):
    # build_forest derives each node's datum from its parent's; by definition
    # it is the input twisted by the node's accumulated product, the product
    # of its path's elements, and refined generation + 1 times
    z23, antidiagonal = witt23
    data = {f"zoo:{name}": z for name, z in zoo.items()}
    data.update({"witt-p2-n2": witt22[0], "witt-p2-n3": z23, "witt-p3-n2": witt32[0],
                 "witt-p2-n4": build_witt_zip(WittZipConfig(2, 4))[0],
                 "witt-p2-n3 twisted by the antidiagonal": twist(z23, antidiagonal)})
    for name, z in data.items():
        forest = build_forest(z)
        for node in (forest.top, *(node for gen in forest.generations for node in gen)):
            if node is not forest.top:
                parent = node.parent or forest.top
                assert node.accumulated == z.G.mul(node.element, parent.accumulated), name
            defined = twist(z, node.accumulated)
            for _ in range(node.generation + 1):
                defined = refine(defined)
            where = (name, node.path_elements())
            assert node.datum._pairs == defined._pairs, where
            assert node.datum.G.element_set == defined.G.element_set, where
        assert forest.root_decomposition is z.double_quotient, name
        coarse = zip_classes(z)
        for root in forest.roots:
            assert refinement_bijection_check(z, root.element, coarse=coarse), (name, root.element)


@pytest.mark.parametrize("entry", ["s3-mixed", "s4-cycle-pair"])
def test_a_child_datum_that_does_not_shrink_is_an_error(monkeypatch, entry):
    # without refinement an unstable node's children keep its carrier; the
    # first unstable node below the top is named at once, not after the
    # forest has grown generation by generation
    monkeypatch.setattr(zipcalc.forest, "refine", lambda d: d)
    with pytest.raises(InvariantViolation, match=r"^forest node [^/ ]+: a child datum's carrier did not shrink$"):
        build_forest(zoo_entry(entry))


def test_classify_identity_path(zoo):
    z = zoo["s3-mixed"]
    forest = build_forest(z)
    path = classify(forest, z.G.identity)
    assert path[0] == forest.root_decomposition.rep_of[z.G.identity]
    assert reconstruct_path(forest, path) in zip_classes(z).part_of(z.G.identity).members


def test_classify_witt_antidiagonal(witt22):
    z, x = witt22
    forest = build_forest(z)
    path = classify(forest, x)
    assert path == (forest.root_decomposition.rep_of[x],)
    assert reconstruct_path(forest, path) == forest.root_decomposition.rep_of[x]


def test_classify_rejects_outside_element(witt22):
    z, _ = witt22
    forest = build_forest(z)
    with pytest.raises(InputError):
        classify(forest, (9, 9, 9, 9))


def test_reconstruct_round_trips_on_leaf_paths(witt23, zoo):
    for z in (witt23[0], zoo["s3-reflection-pair"], zoo["c2cube-projection"]):
        forest = build_forest(z)
        for leaf in forest.leaves:
            entries = leaf.path_elements()
            y = reconstruct_path(forest, entries)
            assert classify(forest, y) == entries
            assert reconstruct_path(forest, classify(forest, y)) == y


def reconstruct_path(forest, entries):
    """The product r_N * ... * r_0 of a path's entries: an element of the
    class the path classifies, whose own path it is."""
    G = forest.datum.G
    out = entries[0]
    for r in entries[1:]:
        out = G.mul(r, out)
    return out


def test_classify_lands_in_same_class(witt23):
    z, _ = witt23
    forest = build_forest(z)
    report = zip_classes(z)
    for x in z.G.elements[::7]:
        y = reconstruct_path(forest, classify(forest, x))
        assert report.rep_of[y] == report.rep_of[x]


def test_classify_matches_brute_force_witnesses(zoo, witt22, witt23, s4):
    # the transport tables record one choice of witnesses, the oracle takes
    # the key-first ones: the paths agree, as any witnesses give one class.
    # A table that reverses one of its products still gives every path on
    # the zoo and Witt data, but not on E = Sym{1,2,3} in S4 with sigma a
    # conjugation
    E = closure(s4, [(0, 1, 3, 2), (0, 2, 3, 1)]).as_group()
    incl = inclusion_hom(E, s4)
    conjugations = [ZipDatum(E, s4, incl, Homomorphism(E, s4, oracles.naive_conjugation_table(s4, c, E)))
                    for c in s4]
    for z in [*zoo.values(), witt22[0], witt23[0], *conjugations]:
        forest = build_forest(z)
        naive = oracles.naive_classifier(forest)
        for x in z.G.elements:
            assert classify(forest, x) == naive(x), x


def test_a_second_limit_check_multiplies_nothing(witt23, monkeypatch):
    # classification reads each node datum's transport table, built on the
    # first pass; the second pass only looks elements up
    z, _ = witt23
    forest, report = build_forest(z), zip_classes(z)
    assert limit_bijection_check(forest, report)
    calls = []
    mul = MatrixGroup.mul
    monkeypatch.setattr(MatrixGroup, "mul", lambda self, a, b: calls.append(a) or mul(self, a, b))
    assert limit_bijection_check(forest, report)
    assert len(calls) == 0


def test_limit_bijection_small_corpus(zoo):
    for name, z in zoo.items():
        forest = build_forest(z)
        report = zip_classes(z)
        assert limit_bijection_check(forest, report), name


def test_limit_bijection_witt(witt22, witt23):
    for z, _ in (witt22, witt23):
        assert limit_bijection_check(build_forest(z), zip_classes(z))


def test_limit_bijection_random_permutation_data(s4):
    sub = closure(s4, [(1, 2, 3, 0)]).as_group()
    incl = inclusion_hom(sub, s4)
    conj = Homomorphism(sub, s4, oracles.naive_conjugation_table(s4, (1, 0, 3, 2), sub))
    for tau, sigma in [(incl, conj), (incl, trivial_hom(sub, s4))]:
        z = ZipDatum(sub, s4, tau, sigma)
        assert limit_bijection_check(build_forest(z), zip_classes(z))


def test_per_root_path_counts_match_class_counts(witt23, zoo):
    # classes meeting a root's double coset correspond to the leaves below it
    for z in (witt23[0], zoo["s3-mixed"], zoo["gl2f2-borel"]):
        forest = build_forest(z)
        report = zip_classes(z)
        for root in forest.roots:
            coset = forest.root_decomposition.part_of(root.element).members
            class_count = sum(1 for c in report.classes if c.members & coset)
            leaves_below = [leaf for leaf in forest.leaves if leaf.path_elements()[0] == root.element]
            assert len(leaves_below) == class_count


def test_forest_dot_output(witt22):
    z, _ = witt22
    forest = build_forest(z)
    dot = forest_to_dot(forest)
    assert dot.startswith("digraph representative_forest {")
    assert "rank=min" in dot
    assert dot.count("stable") >= len(forest.leaves)
    for node in forest.roots:
        assert z.G.format_element(node.element) in dot
    assert forest_to_dot(build_forest(z)) == dot


def test_identity_rep_flags_record_nonminimal_carriers(witt22, zoo):
    # permutation-backed stable nodes have the identity as carrier minimum,
    # matrix-backed ones usually do not
    z, _ = witt22
    assert isinstance(build_forest(z).identity_rep_flags, tuple)
    forest = build_forest(zoo["s3-mixed"])
    assert forest.identity_rep_flags == ()


def test_identity_flags_on_a_stable_matrix_root(gl2f2):
    # E = <[0,1,1,0]> in GL2(F2): the root [0,1,1,0] is stable at once, and
    # it and its identity child carry data whose carrier minimum is not 1
    E = closure(gl2f2, [(0, 1, 1, 0)]).as_group()
    incl = inclusion_hom(E, gl2f2)
    z = ZipDatum(E, gl2f2, incl, incl)
    forest = build_forest(z)
    fmt = gl2f2.format_element
    assert (len(forest.generations), len(forest.roots), len(forest.leaves)) == (2, 2, 3)
    assert [node.path_id(fmt) for node in forest.identity_rep_flags] == ["[0,1,1,0]", "[0,1,1,0]/[1,0,0,1]"]
    stable_root = forest.roots[0]
    assert stable_root.stable and not forest.roots[1].stable
    assert list(stable_root.children) == [gl2f2.identity]
    assert stable_root.children[gl2f2.identity].stable
    assert limit_bijection_check(forest, zip_classes(z))
