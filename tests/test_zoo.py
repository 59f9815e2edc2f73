from __future__ import annotations

import json

import pytest

import oracles
from conftest import same_carriers_and_tables
from zipcalc import (
    InputError,
    InvariantViolation,
    MatrixGroup,
    WittZipConfig,
    build_small_zoo,
    build_witt_zip,
    double_cosets,
    zip_classes,
    zoo_entry,
)
from zipcalc import cli, zoo


def test_config_rejects_composite_p():
    with pytest.raises(InputError):
        WittZipConfig(4, 2)
    with pytest.raises(InputError):
        WittZipConfig(1, 2)


def test_config_primality_is_fast_on_large_p():
    assert WittZipConfig(10**18 + 3, 2).p == 10**18 + 3
    with pytest.raises(InputError, match="prime"):
        WittZipConfig(3215031751, 2)  # a strong pseudoprime to the bases 2, 3, 5 and 7
    with pytest.raises(InputError, match="too large"):
        WittZipConfig(2**89 - 1, 2)


def test_config_rejects_small_level():
    with pytest.raises(InputError):
        WittZipConfig(2, 1)


def test_config_validates_keyword_arguments():
    assert WittZipConfig(p=3, n=2) == WittZipConfig(3, 2)
    with pytest.raises(InputError, match="prime"):
        WittZipConfig(p=4, n=2)
    with pytest.raises(InputError, match="at least 2"):
        WittZipConfig(n=1, p=2)


def test_witt22_orders(witt22):
    z, x = witt22
    assert z.G.order == 6
    # invertible over Z/4 with even lower-left, counted by enumeration
    expected = oracles.brute_force_gl2_carrier(4, 2)
    assert z.E.order == len(expected) == 32
    assert z.E.element_set == frozenset(expected)
    assert x == (0, 1, 1, 0)
    assert x in z.G


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_witt_closed_form_orders(p, n):
    config = WittZipConfig(p, n)
    z, _ = build_witt_zip(config)
    assert (config.e_order, config.g_order) == (z.E.order, z.G.order)
    # E is generated, not swept: it must still be the whole congruence subgroup
    assert z.E.element_set == frozenset(oracles.brute_force_gl2_carrier(p**n, p))


def test_witt_e_order_is_checked_against_the_closed_form(monkeypatch):
    monkeypatch.setattr(WittZipConfig, "e_order", property(lambda self: 31))
    with pytest.raises(InvariantViolation, match="Witt E has order 32, expected 31"):
        build_witt_zip(WittZipConfig(2, 2))


@pytest.mark.parametrize(
    "formula, entry, match",
    [
        # [7,7,6,7], the last element of E on witt-p2-n3, is no generator of
        # E: the graph closure reaches it as a product and tests it
        pytest.param("witt_tau", (7, 7, 6, 7), None, id="witt_tau"),
        pytest.param("witt_sigma", (7, 7, 6, 7), None, id="witt_sigma"),
        # the closure starts from the identity point and never tests it, so
        # the build tests it first
        pytest.param("witt_tau", (1, 0, 0, 1), "send 1 to 1", id="witt_tau-at-identity"),
        pytest.param("witt_sigma", (1, 0, 0, 1), "send 1 to 1", id="witt_sigma-at-identity"),
    ],
)
def test_a_wrong_witt_formula_fails_the_build(monkeypatch, tmp_path, capsys, formula, entry, match):
    right = getattr(zoo, formula)
    G = MatrixGroup.general_linear(2, 4)

    def wrong(e, *args):
        value = right(e, *args)
        return next(g for g in G.elements if g != value) if e == entry else value

    monkeypatch.setattr(zoo, formula, wrong)
    with pytest.raises(InputError, match=match):
        build_witt_zip(WittZipConfig(2, 3))
    config = tmp_path / "witt23.json"
    config.write_text(json.dumps({"preset": {"kind": "witt", "p": 2, "n": 3}}), encoding="utf-8")
    assert cli.main(["--config", str(config), "--command", "classes"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {config}.preset: ")


def test_witt_build_makes_at_most_four_products_per_element(monkeypatch):
    # one closure of the triples (e, tau(e), sigma(e)) makes about three
    # matrix products per element of E, and the table checks make none
    config = WittZipConfig(2, 4)
    mul = MatrixGroup.mul
    calls = 0

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return mul(self, a, b)

    monkeypatch.setattr(MatrixGroup, "mul", counted)
    build_witt_zip(config)
    assert calls <= 4 * config.e_order == 32768


def test_witt_sigma_fixes_identity(witt22, witt23):
    for z, _ in (witt22, witt23):
        assert z.sigma.table[z.E.identity] == z.G.identity


def test_witt_sigma_agrees_with_lifted_conjugation(witt23):
    # lift entries to Z, conjugate by diag(p, 1) exactly, reduce one level
    z, _ = witt23
    p, m = 2, 4
    for e in z.E.elements[::29]:
        a, b, c, d = e
        lifted = (a, p * b, c // p, d)
        assert z.sigma.table[e] == tuple(v % m for v in lifted)


def test_witt_groups_satisfy_laws(witt22):
    z, _ = witt22
    for group in (z.E, z.G):
        # the explicit constructor certifies the carrier inside its GL_2(Z/m)
        MatrixGroup(group.size, group.modulus, group.elements)


def test_witt_twisted_stabilization_across_levels():
    from zipcalc import refine_to_stationary, twist

    for p, n in ((2, 2), (2, 3), (3, 2)):
        z, x = build_witt_zip(WittZipConfig(p, n))
        trace = refine_to_stationary(twist(z, x))
        shape_e = frozenset(e for e in z.E if e[2] % p == 0)
        shape_g = frozenset(g for g in z.G if g[2] % p == 0)
        assert trace.e_infinity.members == shape_e, (p, n)
        assert trace.g_infinity.members == shape_g, (p, n)


def test_zoo_names_and_determinism():
    a = build_small_zoo()
    b = build_small_zoo()
    assert list(a) == list(b)
    assert set(a) == {
        "trivial-e",
        "tau-surjective",
        "s3-reflection-pair",
        "s3-mixed",
        "s4-cycle-pair",
        "c2cube-projection",
        "gl2f2-borel",
    }
    for name in a:
        assert a[name].E.elements == b[name].E.elements
        assert a[name].tau.table == b[name].tau.table


def test_zoo_entry_equals_the_zoo_datum():
    zoo = build_small_zoo()
    for name, datum in zoo.items():
        assert same_carriers_and_tables(zoo_entry(name), datum), name


def test_zoo_entry_lookup():
    assert zoo_entry("trivial-e").E.order == 1
    with pytest.raises(InputError, match="unknown zoo entry"):
        zoo_entry("nope")


def test_zoo_backends_cover_all_three(zoo):
    backends = {z.E.backend for z in zoo.values()} | {z.G.backend for z in zoo.values()}
    assert backends == {"permutation", "matrix", "cayley"}


def test_trivial_e_class_count(zoo):
    z = zoo["trivial-e"]
    assert zip_classes(z).class_count == z.G.order


def test_tau_surjective_one_class(zoo):
    assert zip_classes(zoo["tau-surjective"]).class_count == 1


def test_c2cube_projection_has_proper_image(zoo):
    z = zoo["c2cube-projection"]
    assert z.sigma.image().order == 4
    assert z.tau.image().order == 8


@pytest.mark.parametrize("p, n", [(2, 4), (3, 2), (5, 2)])
def test_witt_family_has_two_classes_in_the_identity_and_antidiagonal_cosets(p, n):
    # the class-count shape the acceptance suite asserts on witt-p2-n2 and witt-p2-n3
    z, x = build_witt_zip(WittZipConfig(p, n))
    report = zip_classes(z)
    assert report.class_count == 2
    dec = double_cosets(z.G, z.tau.image(), z.sigma.image())
    assert {dec.rep_of[c.witness] for c in report.classes} == {dec.rep_of[z.G.identity], dec.rep_of[x]}
