"""The exact law certificates against brute-force oracles.

Each construction-time check works over a greedy generating set; the
oracles in `oracles.py` check every pair or triple.  The certificate must
reject exactly when the oracle does.
"""

from __future__ import annotations

import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from zipcalc import (
    CayleyTableGroup,
    Homomorphism,
    InputError,
    MatrixGroup,
    PermutationGroup,
    Subgroup,
    closure,
    hom_from_generator_images,
)


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def xor_table(bits):
    size = 1 << bits
    return [[i ^ j for j in range(size)] for i in range(size)]


def s3_table():
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[i] for i in b)] for b in perms] for a in perms]


# a Latin square with identity that is not associative
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

BASE_TABLES = [cyclic_table(4), cyclic_table(6), xor_table(2), xor_table(3), s3_table(), LOOP5]


@pytest.fixture(scope="module")
def groups(s3, s4, gl2f2):
    return {
        "s3": s3,
        "s4": s4,
        "gl2f2": gl2f2,
        "z4": CayleyTableGroup(cyclic_table(4)),
        "z6": CayleyTableGroup(cyclic_table(6)),
        "c2c2": CayleyTableGroup(xor_table(2)),
    }


HOM_PAIRS = [
    ("s3", "s3"),
    ("s3", "gl2f2"),
    ("gl2f2", "s3"),
    ("s4", "s3"),
    ("s4", "s4"),
    ("z6", "s3"),
    ("z4", "z4"),
    ("c2c2", "gl2f2"),
]


def pick(data, seq):
    return seq[data.draw(st.integers(0, len(seq) - 1))]


@given(st.data())
def test_hom_certificate_matches_oracle(groups, data):
    source_name, target_name = pick(data, HOM_PAIRS)
    E, G = groups[source_name], groups[target_name]
    base = data.draw(st.sampled_from(["generator-images", "random", "trivial"]))
    if base == "generator-images":
        images = [pick(data, G.elements) for _ in E.generators]
        try:
            table = dict(hom_from_generator_images(E, G, E.generators, images).table)
        except InputError:
            table = {a: G.identity for a in E}
    elif base == "random":
        table = {a: pick(data, G.elements) for a in E}
    else:
        table = {a: G.identity for a in E}
    for _ in range(data.draw(st.integers(0, 2))):
        table[pick(data, E.elements)] = pick(data, G.elements)
    expected = oracles.naive_is_homomorphism(E, G, table) and table[E.identity] == G.identity
    if expected:
        Homomorphism(E, G, table)
    else:
        with pytest.raises(InputError):
            Homomorphism(E, G, table)


@given(st.data())
def test_generator_images_match_oracle(groups, data):
    source_name, target_name = pick(data, HOM_PAIRS)
    E, G = groups[source_name], groups[target_name]
    kind = data.draw(st.sampled_from(["consistent", "inconsistent", "non-generating"]))
    if kind == "non-generating":
        generators = [pick(data, E.elements) for _ in range(data.draw(st.integers(0, 1)))]
    else:
        extra = [pick(data, E.elements) for _ in range(data.draw(st.integers(0, 2)))]
        generators = data.draw(st.permutations([*E.generators, *extra]))
    # images of a homomorphism: trivial, inner (when E is G), or a guess
    # that is one only sometimes
    base = data.draw(st.sampled_from(["trivial", "inner", "random"] if E is G else ["trivial", "random"]))
    if base == "trivial":
        images = [G.identity for _ in generators]
    elif base == "inner":
        t = pick(data, G.elements)
        images = [G.mul(G.mul(t, g), G.inv(t)) for g in generators]
    else:
        images = [pick(data, G.elements) for _ in generators]
    if kind == "inconsistent" and generators:
        images[data.draw(st.integers(0, len(images) - 1))] = pick(data, G.elements)
    verdict, table = oracles.naive_hom_from_generator_images(E, G, generators, images)
    if verdict == "hom":
        assert hom_from_generator_images(E, G, generators, images).table == table
    else:
        message = "inconsistent" if verdict == "inconsistent" else "do not generate"
        with pytest.raises(InputError, match=message):
            hom_from_generator_images(E, G, generators, images)


def random_subset(data, group):
    gens = [pick(data, group.elements) for _ in range(data.draw(st.integers(0, 2)))]
    members = set(closure(group, gens).members)
    for _ in range(data.draw(st.integers(0, 2))):
        x = pick(data, group.elements)
        if data.draw(st.booleans()):
            members.add(x)
        else:
            members.discard(x)
    return frozenset(members)


@given(st.data())
def test_subgroup_certificate_matches_oracle(groups, data):
    group = groups[data.draw(st.sampled_from(["s3", "s4", "gl2f2", "z6"]))]
    members = random_subset(data, group)
    # the greedy generating set of a subset is its closure certificate
    if oracles.naive_is_subgroup(group, members):
        Subgroup(group, members).generating_set
    else:
        with pytest.raises(InputError):
            Subgroup(group, members).generating_set


def ambient_shaped_tuple(data, group):
    """A tuple shaped like an element of the group's ambient Sym(n) or
    GL_n(Z/m), entries drawn from 0..n or 0..m: often not a permutation, a
    singular matrix, or a matrix with an entry out of range."""
    if group.backend == "permutation":
        width, top = group.degree, group.degree
    else:
        width, top = group.size**2, group.modulus
    return tuple(data.draw(st.lists(st.integers(0, top), min_size=width, max_size=width)))


@given(st.data())
def test_carrier_certificate_matches_oracle(groups, data):
    ambient = groups[data.draw(st.sampled_from(["s3", "s4", "gl2f2"]))]
    members = set(random_subset(data, ambient))
    if data.draw(st.booleans()):
        members.add(ambient_shaped_tuple(data, ambient))
    if ambient.backend == "permutation":
        build = lambda: PermutationGroup(ambient.degree, members)
    else:
        build = lambda: MatrixGroup(ambient.size, ambient.modulus, members)
    if members <= ambient.element_set and oracles.naive_is_subgroup(ambient, members):
        build()
        Subgroup(ambient, members).generating_set
    else:
        with pytest.raises(InputError):
            build()
        with pytest.raises(InputError):
            Subgroup(ambient, members).generating_set


@given(st.data())
def test_associativity_certificate_matches_oracle(data):
    table = [list(row) for row in pick(data, BASE_TABLES)]
    n = len(table)
    for _ in range(data.draw(st.integers(0, 2))):
        table[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] = data.draw(
            st.integers(0, n - 1)
        )
    if oracles.naive_is_group_table(table):
        CayleyTableGroup(table)
    else:
        with pytest.raises(InputError):
            CayleyTableGroup(table)


def test_loop_rejected_by_battery_and_constructor():
    # identity and inverses are in place, so Light's test must find the failure
    assert not oracles.naive_is_group_table(LOOP5)
    with pytest.raises(InputError, match="not associative"):
        CayleyTableGroup(LOOP5)


def test_oracles_import_nothing_from_zipcalc():
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    modules = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    modules += [node.module or "." for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] in ("zipcalc", "")]


def test_generators_generate(groups):
    for group in groups.values():
        assert len(group.generators) <= group.order.bit_length()
        assert oracles.naive_closure(group, group.generators) == group.element_set
