from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zipcalc import cli, groups
from zipcalc.cli import COMMANDS, EXIT_CHECK, EXIT_CONFIG, EXIT_OK, EXIT_RESOURCE, load_job, main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.fixture()
def witt22_config(tmp_path):
    return write_config(tmp_path, "witt22.json", {"name": "witt-p2-n2", "preset": {"kind": "witt", "p": 2, "n": 2}})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- config loading ----------------------------------------------------------------


def test_explicit_group_and_hom_specs(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "s3.json",
        {
            "name": "s3-pair",
            "groups": {
                "E": {"backend": "permutation", "degree": 3, "generators": [[1, 0, 2]]},
                "G": {"backend": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
            },
            "tau": {"type": "inclusion"},
            "sigma": {"type": "trivial"},
        },
    )
    code, out, _ = run(capsys, "--config", str(cfg), "--command", "classes")
    assert code == EXIT_OK
    assert "classes:" in out


def test_cayley_group_and_table_hom(tmp_path, capsys):
    xor = [[i ^ j for j in range(4)] for i in range(4)]
    cfg = write_config(
        tmp_path,
        "c2c2.json",
        {
            "groups": {
                "E": {"backend": "cayley", "table": xor},
                "G": {"backend": "cayley", "table": xor},
            },
            "tau": {"type": "identity"},
            "sigma": {"type": "table", "entries": [["0", "0"], ["1", "1"], ["2", "0"], ["3", "1"]]},
        },
    )
    code, out, _ = run(capsys, "--config", str(cfg), "--command", "infinity")
    assert code == EXIT_OK


def test_identity_hom_between_different_cayley_tables_exits_two(tmp_path, capsys):
    xor = [[i ^ j for j in range(4)] for i in range(4)]
    cyclic = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    cfg = write_config(
        tmp_path,
        "tables.json",
        {
            "groups": {"E": {"backend": "cayley", "table": cyclic}, "G": {"backend": "cayley", "table": xor}},
            "tau": {"type": "identity"},
            "sigma": {"type": "trivial"},
        },
    )
    code, _, err = run(capsys, "--config", str(cfg), "--command", "classes")
    assert code == EXIT_CONFIG
    assert err == f"config error: {cfg}.tau: identity hom needs E and G with the same carrier\n"


def test_generator_images_hom(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "genimg.json",
        {
            "groups": {
                "E": {"backend": "permutation", "degree": 3, "generators": [[1, 2, 0]]},
                "G": {"backend": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
            },
            "tau": {"type": "generator-images", "generators": ["(0 1 2)"], "images": ["(0 2 1)"]},
            "sigma": {"type": "inclusion"},
        },
    )
    code, _, _ = run(capsys, "--config", str(cfg), "--command", "refine")
    assert code == EXIT_OK


def test_matrix_group_spec_with_witt_preset_homs(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "wittlike.json",
        {
            "groups": {
                "E": {
                    "backend": "matrix",
                    "size": 2,
                    "modulus": 4,
                    "generators": [[1, 0, 0, 3], [1, 0, 2, 1], [1, 1, 0, 1]],
                },
                "G": {"backend": "matrix", "size": 2, "modulus": 2, "generators": [[1, 1, 0, 1], [0, 1, 1, 0]]},
            },
            "tau": {"type": "preset", "name": "witt-tau"},
            "sigma": {"type": "preset", "name": "witt-sigma", "p": 2},
        },
    )
    code, out, _ = run(capsys, "--config", str(cfg), "--command", "classes")
    assert code == EXIT_OK


GL2_Z3 = {"backend": "matrix", "size": 2, "modulus": 3, "generators": [[1, 1, 0, 1], [1, 0, 1, 1], [2, 0, 0, 1]]}


@pytest.mark.parametrize(
    "generators, message",
    [
        # [1,2,0,1] has order 2 over Z/4 and order 3 once reduced mod 3
        ([[1, 2, 0, 1]], "map is not multiplicative at ([1,2,0,1], [1,2,0,1])"),
        # [1,0,0,3] reduces to the singular [1,0,0,0] mod 3
        ([[1, 0, 0, 3], [1, 0, 2, 1], [1, 1, 0, 1]], "homomorphism image outside the target carrier"),
    ],
    ids=["not-multiplicative", "image-outside-target"],
)
def test_witt_tau_preset_failures_name_the_fault(tmp_path, capsys, generators, message):
    cfg = write_config(
        tmp_path,
        "tau.json",
        {
            "groups": {"E": {"backend": "matrix", "size": 2, "modulus": 4, "generators": generators}, "G": GL2_Z3},
            "tau": {"type": "preset", "name": "witt-tau"},
            "sigma": {"type": "trivial"},
        },
    )
    code, out, err = run(capsys, "--config", str(cfg), "--command", "classes")
    assert (code, out, err) == (EXIT_CONFIG, "", f"config error: {cfg}.tau: {message}\n")


def test_explicit_witt_presets_match_the_witt_preset_kind(tmp_path, capsys):
    # witt-p2-n3's E, generated by the unipotents and diagonal units of
    # (Z/8)^* = <3, 5>, and its G = GL2(Z/4)
    e_gens = [[1, 1, 0, 1], [1, 0, 2, 1], [3, 0, 0, 1], [5, 0, 0, 1], [1, 0, 0, 3], [1, 0, 0, 5]]
    g_gens = [[1, 1, 0, 1], [1, 0, 1, 1], [3, 0, 0, 1]]
    explicit = write_config(
        tmp_path,
        "explicit.json",
        {
            "groups": {
                "E": {"backend": "matrix", "size": 2, "modulus": 8, "generators": e_gens},
                "G": {"backend": "matrix", "size": 2, "modulus": 4, "generators": g_gens},
            },
            "tau": {"type": "preset", "name": "witt-tau"},
            "sigma": {"type": "preset", "name": "witt-sigma", "p": 2},
        },
    )
    preset = write_config(tmp_path, "preset.json", {"preset": {"kind": "witt", "p": 2, "n": 3}})
    docs = []
    for cfg in (explicit, preset):
        code, _, _ = run(capsys, "--config", str(cfg), "--command", "classes", "--out", str(tmp_path / cfg.stem))
        assert code == EXIT_OK
        docs.append(json.loads((tmp_path / cfg.stem / "classes.json").read_text())["classes"])
    # sizes, E_inf digests, G_inf lists, members and witnesses alike
    assert docs[0] == docs[1]
    assert [c["size"] for c in docs[0]] == [32, 64]


def test_zoo_preset_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "zoo.json", {"preset": {"kind": "zoo", "entry": "s3-mixed"}})
    code, out, _ = run(capsys, "--config", str(cfg), "--command", "orbits")
    assert code == EXIT_OK


# -- error paths -----------------------------------------------------------------


@pytest.mark.parametrize(
    "data",
    [b"{nope", b"[" * 200000, b'{"seed": ' + b"1" * 5000 + b"}", '{"name": "\u00e9"}'.encode("latin-1")],
    ids=["syntax", "nested-too-deep", "integer-over-digit-limit", "not-utf-8"],
)
def test_invalid_json_names_config_path(tmp_path, capsys, data):
    path = tmp_path / "broken.json"
    path.write_bytes(data)
    code, _, err = run(capsys, "--config", str(path), "--command", "classes")
    assert code == EXIT_CONFIG
    assert err.startswith(f"config error: {path}: invalid JSON: ")


def test_bad_element_literal_names_field(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "badelem.json",
        {
            "groups": {
                "E": {"backend": "permutation", "degree": 3, "generators": [[1, 0, 2]]},
                "G": {"backend": "permutation", "degree": 3, "generators": [[1, 0, 2]]},
            },
            "tau": {"type": "inclusion"},
            "sigma": {"type": "table", "entries": [["()", "(0 9)"]]},
        },
    )
    code, _, err = run(capsys, "--config", str(cfg), "--command", "classes")
    assert code == EXIT_CONFIG
    assert "sigma" in err


def test_invalid_hom_spec(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "badhom.json",
        {
            "groups": {
                "E": {"backend": "permutation", "degree": 3, "generators": [[1, 0, 2]]},
                "G": {"backend": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
            },
            "tau": {"type": "inclusion"},
            "sigma": {"type": "generator-images", "generators": ["(0 1)"], "images": ["(0 1 2)"]},
        },
    )
    code, _, err = run(capsys, "--config", str(cfg), "--command", "classes")
    assert code == EXIT_CONFIG
    assert "badhom.json" in err


def test_unknown_command_exits_two(witt22_config, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(witt22_config), "--command", "frobnicate"])
    assert exc.value.code == 2


def test_missing_config_for_non_zoo(capsys):
    code, _, err = run(capsys, "--command", "classes")
    assert code == EXIT_CONFIG
    assert "--config" in err


def test_command_and_out_from_config(tmp_path, capsys):
    out_dir = tmp_path / "from-config"
    cfg = write_config(
        tmp_path,
        "selfcontained.json",
        {
            "name": "witt-p2-n2",
            "preset": {"kind": "witt", "p": 2, "n": 2},
            "command": "classes",
            "out": str(out_dir),
        },
    )
    code, _, _ = run(capsys, "--config", str(cfg))
    assert code == EXIT_OK
    assert (out_dir / "classes.json").exists()


def test_unknown_command_in_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "badcmd.json",
        {"preset": {"kind": "witt", "p": 2, "n": 2}, "command": "frobnicate"},
    )
    code, _, err = run(capsys, "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert "badcmd.json" in err and "frobnicate" in err


def test_no_command_anywhere(witt22_config, capsys):
    code, _, err = run(capsys, "--config", str(witt22_config))
    assert code == EXIT_CONFIG
    assert "no command" in err


def test_max_order_limit(witt22_config, capsys):
    code, _, err = run(capsys, "--config", str(witt22_config), "--command", "classes", "--max-order", "5")
    assert code == EXIT_RESOURCE
    assert "resource limit" in err


def test_bad_twist_literal(witt22_config, capsys):
    # the literal came from the flag, not from the config's twist (null)
    code, out, err = run(capsys, "--config", str(witt22_config), "--command", "classes", "--twist", "[9,9,9]")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "config error: --twist: matrix literal '[9,9,9]' needs 4 entries\n"


def test_boolean_twist_is_not_an_element_literal(tmp_path, capsys):
    # JSON true loads as a bool, which is an int, but names no element
    cfg = write_config(tmp_path, "booltwist.json", {"twist": True, "preset": {"kind": "witt", "p": 2, "n": 2}})
    code, out, err = run(capsys, "--config", str(cfg), "--command", "classes")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"config error: {cfg}.twist: twist must be an element literal\n"


PERM3 = {"backend": "permutation", "degree": 3, "generators": [[1, 0, 2]]}
PERM4 = {"backend": "permutation", "degree": 4, "generators": [[1, 0, 2, 3], [0, 1, 3, 2]]}
GL2F2 = {"backend": "matrix", "size": 2, "modulus": 2, "generators": [[1, 1, 0, 1], [0, 1, 1, 0]]}
XOR4 = {"backend": "cayley", "table": [[i ^ j for j in range(4)] for i in range(4)]}


@pytest.mark.parametrize(
    "payload, path",
    [
        pytest.param(
            {"groups": {"E": PERM3, "G": PERM3}, "tau": {"type": "inclusion"},
             "sigma": {"type": "table", "entries": [["()", "()"], [True, "(0 1)"]]}},
            "sigma.entries[1][0]",
            id="table-entry",
        ),
        pytest.param(
            {"groups": {"E": XOR4, "G": XOR4}, "tau": {"type": "identity"},
             "sigma": {"type": "generator-images", "generators": [True, 2], "images": [1, 2]}},
            "sigma.generators[0]",
            id="cayley-generator",
        ),
        pytest.param(
            {"groups": {"E": GL2F2, "G": GL2F2}, "tau": {"type": "identity"}, "sigma": {"type": "identity"},
             "twist": [True, 1, 0, 1]},
            "twist",
            id="boolean-in-a-list-literal",
        ),
        pytest.param(
            {"groups": {"E": GL2F2, "G": GL2F2}, "tau": {"type": "identity"},
             "sigma": {"type": "table", "entries": [[[1, 0, 0, 1], [None, 0, 0, 1]]]}},
            "sigma.entries[0][1]",
            id="null-in-a-list-literal",
        ),
        pytest.param(
            {"groups": {"E": GL2F2, "G": GL2F2}, "tau": {"type": "identity"}, "sigma": {"type": "identity"},
             "twist": [[1, 0], [0, 1]]},
            "twist",
            id="nested-list-literal",
        ),
    ],
)
def test_element_literal_of_other_json_values_is_refused_at_its_path(tmp_path, capsys, payload, path):
    # the message must not quote a Python spelling such as 'True' or 'None',
    # which the config never wrote
    cfg = write_config(tmp_path, "badliteral.json", payload)
    code, out, err = run(capsys, "--config", str(cfg), "--command", "classes")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"config error: {cfg}.{path}: an element literal is a string, an integer or a list of integers\n"


def test_integer_element_literals_read_as_their_strings(tmp_path, capsys):
    def spelled(lit):
        return {
            "name": "xor4",
            "groups": {"E": XOR4, "G": XOR4},
            "tau": {"type": "table", "entries": [[lit(e), lit(e & 1)] for e in range(4)]},
            "sigma": {"type": "generator-images", "generators": [lit(1), lit(2)], "images": [lit(2), lit(0)]},
            "twist": lit(3),
        }

    written = []
    for lit in (int, str):
        cfg = write_config(tmp_path, f"xor4-{lit.__name__}.json", spelled(lit))
        out_dir = tmp_path / lit.__name__
        for command in COMMANDS[:-1]:
            code, _, err = run(capsys, "--config", str(cfg), "--command", command, "--out", str(out_dir))
            assert (code, err) == (EXIT_OK, ""), command
        written.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert len(written[0]) == 7
    assert written[0] == written[1]


def _table_sigma(literal):
    return {"type": "table", "entries": [["()", "()"], [literal, "()"]]}


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(
            {"groups": {"E": PERM3, "G": PERM3}, "tau": {"type": "inclusion"}, "sigma": _table_sigma("(0 x)")},
            id="non-integer-cycle-point",
        ),
        pytest.param(
            {"groups": {"E": PERM4, "G": PERM4}, "tau": {"type": "inclusion"}, "sigma": _table_sigma("(0 1) (2 3)")},
            id="spaced-cycles",
        ),
        pytest.param(
            {"groups": {"E": PERM3, "G": PERM3}, "tau": {"type": "inclusion"}, "sigma": {"type": "trivial"},
             "twist": "(0 x)"},
            id="non-integer-twist",
        ),
        pytest.param(
            {"groups": {"E": {"backend": "matrix", "size": 2, "modulus": 0, "generators": [[1, 0, 0, 1]]}, "G": PERM3},
             "tau": {"type": "trivial"}, "sigma": {"type": "trivial"}},
            id="matrix-modulus-zero",
        ),
        pytest.param(
            {"groups": {"E": {"backend": "permutation", "degree": 3, "generators": [[1, "a", 2]]}, "G": PERM3},
             "tau": {"type": "trivial"}, "sigma": {"type": "trivial"}},
            id="permutation-generator-string",
        ),
        pytest.param(
            {"groups": {"E": {"backend": "permutation", "degree": 3, "generators": [[1.0, 0, 2]]}, "G": PERM3},
             "tau": {"type": "trivial"}, "sigma": {"type": "trivial"}},
            id="permutation-generator-float",
        ),
        pytest.param(
            {"groups": {"E": PERM3, "G": {"backend": "matrix", "size": 2, "modulus": 2, "generators": [[1, 0, "x", 1]]}},
             "tau": {"type": "trivial"}, "sigma": {"type": "trivial"}},
            id="matrix-generator-string",
        ),
        pytest.param(
            {"groups": {"E": PERM3, "G": {"backend": "matrix", "size": 2, "modulus": 2, "generators": [7]}},
             "tau": {"type": "trivial"}, "sigma": {"type": "trivial"}},
            id="matrix-generator-not-a-list",
        ),
        pytest.param(
            {"groups": {"E": GL2F2, "G": GL2F2}, "tau": {"type": "identity"}, "sigma": {"type": "identity"},
             "twist": "[3,0,0,1]"},
            id="matrix-twist-entry-out-of-range",
        ),
        pytest.param(
            {"groups": {"E": PERM3, "G": {"backend": "matrix", "size": 2, "modulus": 2, "generators": [[3, 0, 0, 1]]}},
             "tau": {"type": "trivial"}, "sigma": {"type": "trivial"}},
            id="matrix-generator-entry-out-of-range",
        ),
        pytest.param(
            {"groups": {"E": {"backend": "cayley", "table": [[0, 1], [1, "z"]]}, "G": PERM3},
             "tau": {"type": "trivial"}, "sigma": {"type": "trivial"}},
            id="cayley-entry-string",
        ),
        pytest.param(
            {"groups": {"E": {"backend": "cayley", "table": [[0, 1], [1, 0.5]]}, "G": PERM3},
             "tau": {"type": "trivial"}, "sigma": {"type": "trivial"}},
            id="cayley-entry-float",
        ),
        pytest.param(
            {"groups": {"E": {"backend": "permutation", "degree": -3, "generators": []},
                        "G": {"backend": "permutation", "degree": -3, "generators": []}},
             "tau": {"type": "trivial"}, "sigma": {"type": "trivial"}},
            id="permutation-degree-negative",
        ),
        pytest.param(
            {"name": [1, {"a": 2}], "preset": {"kind": "zoo", "entry": "s3-mixed"}},
            id="name-not-a-string",
        ),
        pytest.param(
            {"seed": True, "preset": {"kind": "zoo", "entry": "s3-mixed"}},
            id="seed-boolean",
        ),
        pytest.param(
            {"groups": {"E": {"backend": "permutation", "degree": True, "generators": []},
                        "G": {"backend": "permutation", "degree": True, "generators": []}},
             "tau": {"type": "trivial"}, "sigma": {"type": "trivial"}},
            id="permutation-degree-boolean",
        ),
        pytest.param(
            {"groups": {"E": {"backend": "permutation", "degree": 3, "generators": [[True, False, 2]]}, "G": PERM3},
             "tau": {"type": "trivial"}, "sigma": {"type": "trivial"}},
            id="permutation-generator-boolean",
        ),
        pytest.param(
            {"groups": {"E": {"backend": "cayley", "table": [[0, True], [True, 0]]}, "G": PERM3},
             "tau": {"type": "trivial"}, "sigma": {"type": "trivial"}},
            id="cayley-entry-boolean",
        ),
    ],
)
def test_parse_failures_exit_two_naming_the_config(tmp_path, capsys, payload):
    cfg = write_config(tmp_path, "unparsable.json", payload)
    code, _, err = run(capsys, "--config", str(cfg), "--command", "classes")
    assert code == EXIT_CONFIG
    assert err.startswith(f"config error: {cfg}")


@pytest.mark.parametrize(
    "group, path, message",
    [
        pytest.param(
            {"backend": "permutation", "degree": 3, "generators": [[1, 0, 2], [True, False, 2]]},
            "generators[1]",
            "permutation must be a list of integers, got [True, False, 2]",
            id="permutation-generator",
        ),
        pytest.param(
            {"backend": "matrix", "size": 2, "modulus": 2, "generators": [[1, 1, 0, 1], [0, 0, 0, 0]]},
            "generators[1]",
            "matrix [0,0,0,0] is not invertible mod 2",
            id="matrix-generator",
        ),
        pytest.param(
            {"backend": "cayley", "table": [[0, 1], [1, "z"]]},
            "table[1]",
            "Cayley table row 1 must be a list of integers, got [1, 'z']",
            id="cayley-row",
        ),
        pytest.param(
            {"backend": "cayley", "table": [[0, 1], [1, 0, 2]]},
            "table[1]",
            "Cayley table row 1 has length 3, expected 2",
            id="cayley-row-length",
        ),
    ],
)
def test_bad_generator_or_row_is_named_by_its_path(tmp_path, capsys, group, path, message):
    payload = {"groups": {"E": group, "G": PERM3}, "tau": {"type": "trivial"}, "sigma": {"type": "trivial"}}
    cfg = write_config(tmp_path, "badgroup.json", payload)
    code, _, err = run(capsys, "--config", str(cfg), "--command", "classes")
    assert code == EXIT_CONFIG
    assert err == f"config error: {cfg}.groups.E.{path}: {message}\n"


C2 = {"backend": "cayley", "table": [[0, 1], [1, 0]]}


@pytest.mark.parametrize(
    "entries, path, message",
    [
        pytest.param([[0, 0], [1, 1], [1, 0]], "entries[2][0]", "source element 1 is listed twice", id="source-twice"),
        pytest.param([[0, 0], [0, 0], [1, 1]], "entries[1][0]", "source element 0 is listed twice",
                     id="source-twice-same-image"),
        pytest.param([[0, 0], [1]], "entries[1]", "expected [element, image]", id="entry-not-a-pair"),
    ],
)
def test_bad_table_hom_entry_is_named_by_its_path(tmp_path, capsys, entries, path, message):
    payload = {"groups": {"E": C2, "G": C2}, "tau": {"type": "table", "entries": entries}, "sigma": {"type": "trivial"}}
    cfg = write_config(tmp_path, "badtable.json", payload)
    code, out, err = run(capsys, "--config", str(cfg), "--command", "classes")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"config error: {cfg}.tau.{path}: {message}\n"


def test_max_order_refuses_witt_preset_before_building(tmp_path, capsys, monkeypatch):
    def unreachable(config):
        raise AssertionError("build_witt_zip ran despite --max-order")

    monkeypatch.setattr("zipcalc.cli.build_witt_zip", unreachable)
    cfg = write_config(tmp_path, "witt72.json", {"preset": {"kind": "witt", "p": 7, "n": 2}})
    code, _, err = run(capsys, "--config", str(cfg), "--command", "classes", "--max-order", "100")
    assert code == EXIT_RESOURCE
    assert err == "resource limit: carrier of order 605052 exceeds --max-order 100\n"


def test_max_order_refuses_zoo_preset_before_the_missing_command(tmp_path, capsys):
    # a datum error comes before the missing command, for a zoo preset as
    # for a Witt preset or explicit groups; with a command, the transcript
    # tests pin the same refusal
    cfg = write_config(tmp_path, "s4.json", {"preset": {"kind": "zoo", "entry": "s4-cycle-pair"}})
    code, out, err = run(capsys, "--config", str(cfg), "--max-order", "5")
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err == "resource limit: carrier of order 24 exceeds --max-order 5\n"


S8_GENERATORS = [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]]


def test_max_order_refuses_explicit_group_while_closing(tmp_path, capsys, monkeypatch):
    from zipcalc.groups import FiniteGroup, PermutationGroup

    carriers, products = [], []
    init, mul = FiniteGroup.__init__, PermutationGroup.mul

    def counting_init(self, elements, *args, **kwargs):
        elements = list(elements)
        carriers.append(len(elements))
        init(self, elements, *args, **kwargs)

    def counting_mul(self, a, b):
        products.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    monkeypatch.setattr(PermutationGroup, "mul", counting_mul)
    s8 = {"backend": "permutation", "degree": 8, "generators": S8_GENERATORS}
    cfg = write_config(tmp_path, "s8.json", {"groups": {"E": s8, "G": s8}, "tau": {"type": "identity"},
                                             "sigma": {"type": "identity"}})
    code, _, err = run(capsys, "--config", str(cfg), "--command", "classes", "--max-order", "100")
    assert code == EXIT_RESOURCE
    # <(0 1)> has order 2, so the closure is refused when its 51st coset would
    # take it from 100 elements to 102
    assert err == f"resource limit: {cfg}.groups.E: carrier order at least 102 exceeds --max-order 100\n"
    assert max(carriers, default=0) <= 100
    assert len(products) < 1000  # S8 has 40320 elements


@pytest.mark.parametrize("value", ["-5", "0", "abc"])
def test_max_order_below_one_is_a_usage_error(witt22_config, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(witt22_config), "--command", "classes", "--max-order", value])
    assert exc.value.code == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"zipcalc: error: argument --max-order: expected an integer of at least 1, got '{value}'\n")


def test_max_order_bounds_element_size_and_table_order(tmp_path, capsys):
    for name, group in (
        ("wide", {"backend": "permutation", "degree": 10**12, "generators": []}),
        ("big-matrix", {"backend": "matrix", "size": 10**6, "modulus": 2, "generators": []}),
        ("table", {"backend": "cayley", "table": [[0]] * 101}),
    ):
        cfg = write_config(tmp_path, f"{name}.json", {"groups": {"E": group, "G": group},
                                                      "tau": {"type": "trivial"}, "sigma": {"type": "trivial"}})
        code, _, err = run(capsys, "--config", str(cfg), "--command", "classes", "--max-order", "100")
        assert code == EXIT_RESOURCE, name
        assert err.startswith(f"resource limit: {cfg}.groups.E: "), name


def test_matrix_size_above_the_bound_exits_two_before_any_multiply(tmp_path, capsys, monkeypatch):
    # the multiply is generated source with size^3 terms, so the size is
    # refused before any is generated, whatever --max-order allows
    monkeypatch.setattr(groups, "_matmul", lambda size, modulus: pytest.fail(f"multiply generated at size {size}"))
    group = {"backend": "matrix", "size": 17, "modulus": 2, "generators": []}
    cfg = write_config(tmp_path, "size17.json", {"groups": {"E": group, "G": group}, "tau": {"type": "trivial"},
                                                 "sigma": {"type": "trivial"}})
    code, out, err = run(capsys, "--config", str(cfg), "--command", "classes")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"config error: {cfg}.groups.E: matrix size 17 exceeds the backend's bound 16\n"


def test_one_by_one_matrix_groups(tmp_path, capsys):
    units = {"backend": "matrix", "size": 1, "modulus": 5, "generators": [[2]]}
    cfg = write_config(tmp_path, "units.json", {"groups": {"E": units, "G": units}, "tau": {"type": "identity"},
                                                "sigma": {"type": "trivial"}})
    code, out, _ = run(capsys, "--config", str(cfg), "--command", "classes")
    assert code == EXIT_OK
    assert '"class_count": 1' in out  # tau is onto, so one class


def _dense_involution(n, m):
    """I - 2*u*v^T with v.u = 1 mod m: a matrix with few zero entries whose
    square is the identity."""
    u = [i % (m - 1) + 1 for i in range(n)]
    v = [1] * (n - 1) + [(1 - sum(u[:-1])) * pow(u[-1], -1, m) % m]
    return [((i == j) - 2 * u[i] * v[j]) % m for i in range(n) for j in range(n)]


@pytest.mark.parametrize("singular, expected", [(False, EXIT_OK), (True, EXIT_CONFIG)], ids=["involution", "singular"])
def test_dense_10x10_matrix_generator_is_settled_fast(tmp_path, capsys, singular, expected):
    a = _dense_involution(10, 7)
    if singular:
        a[90:] = [(x + y) % 7 for x, y in zip(a[:10], a[10:20])]
    group = {"backend": "matrix", "size": 10, "modulus": 7, "generators": [a]}
    cfg = write_config(tmp_path, "dense.json", {"groups": {"E": group, "G": group}, "tau": {"type": "identity"},
                                                "sigma": {"type": "identity"}})
    started = time.perf_counter()
    code, _, err = run(capsys, "--config", str(cfg), "--command", "classes", "--max-order", "141")
    assert time.perf_counter() - started < 1.0
    assert code == expected, err


@pytest.mark.parametrize("under", [False, True], ids=["existing-file", "path-under-a-file"])
def test_unwritable_out_path_exits_two_naming_it(witt22_config, tmp_path, capsys, under):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory\n", encoding="utf-8")
    out_dir = blocker / "reports" if under else blocker
    code, out, err = run(capsys, "--config", str(witt22_config), "--command", "refine", "--out", str(out_dir))
    assert code == EXIT_CONFIG
    assert err.startswith(f"config error: {out_dir}: cannot write reports: ")
    assert out == ""


def test_load_job_without_a_limit(witt22_config):
    # perfbench/runner.py's setup mode calls load_job with the path alone
    assert load_job(witt22_config).datum.E.order == 32


@pytest.mark.parametrize("command, builder", [("classes", "load_job"), ("zoo", "build_small_zoo")])
def test_main_builds_the_datum_once_through_the_module_global(witt22_config, tmp_path, capsys, monkeypatch,
                                                              command, builder):
    # perfbench/runner.py ends setup_s when cli.load_job, or cli.build_small_zoo
    # for the zoo command, returns: it rebinds both module globals
    calls = {"load_job": 0, "build_small_zoo": 0}
    for name in calls:
        def counted(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    argv = ["--command", command, "--out", str(tmp_path / "out")]
    if command == "classes":
        argv += ["--config", str(witt22_config)]
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert calls == {name: int(name == builder) for name in calls}


# -- whole-config fuzz --------------------------------------------------------------

SMALL = st.integers(-2, 9)
SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=6))
ANY_JSON = st.recursive(
    SCALAR,
    lambda kids: st.one_of(st.lists(kids, max_size=3), st.dictionaries(st.text(max_size=5), kids, max_size=3)),
    max_leaves=6,
)


def mixed(strategy):
    """Mostly values of the real grammar, one in ten any JSON value."""
    return st.sampled_from(range(10)).flatmap(lambda i: strategy if i else ANY_JSON)


ELEMENT = mixed(st.one_of(st.text(alphabet="()[], 0123456789", max_size=10), st.lists(SMALL, max_size=4), SMALL))
PERMUTATION = st.integers(1, 4).flatmap(lambda d: st.permutations(list(range(d))))
XOR_TABLE = st.integers(0, 2).map(lambda k: [[i ^ j for j in range(1 << k)] for i in range(1 << k)])
GROUP = mixed(
    st.one_of(
        st.fixed_dictionaries({"backend": st.just("permutation"), "degree": mixed(st.integers(0, 4)),
                               "generators": mixed(st.lists(mixed(PERMUTATION), max_size=2))}),
        st.fixed_dictionaries({"backend": st.just("matrix"), "size": mixed(st.integers(0, 2)),
                               "modulus": mixed(st.integers(-1, 4)),
                               "generators": mixed(st.lists(mixed(st.lists(SMALL, max_size=4)), max_size=2))}),
        st.fixed_dictionaries({"backend": st.just("cayley"),
                               "table": mixed(st.one_of(XOR_TABLE, st.lists(st.lists(SMALL, max_size=3), max_size=3)))}),
    )
)
HOM = mixed(
    st.one_of(
        st.fixed_dictionaries({"type": st.sampled_from(["identity", "inclusion", "trivial"])}),
        st.fixed_dictionaries({"type": st.just("table"),
                               "entries": mixed(st.lists(mixed(st.lists(ELEMENT, min_size=2, max_size=2)), max_size=4))}),
        st.fixed_dictionaries({"type": st.just("generator-images"), "generators": mixed(st.lists(ELEMENT, max_size=2)),
                               "images": mixed(st.lists(ELEMENT, max_size=2))}),
        st.fixed_dictionaries({"type": st.just("preset"), "name": mixed(st.sampled_from(["witt-sigma", "witt-tau"])),
                               "p": mixed(st.integers(0, 3))}),
    )
)
PRESET = mixed(
    st.one_of(
        st.fixed_dictionaries({"kind": st.just("witt"), "p": mixed(st.integers(-1, 7)), "n": mixed(st.integers(-1, 3))}),
        st.fixed_dictionaries({"kind": st.just("zoo"),
                               "entry": mixed(st.sampled_from(["trivial-e", "s3-mixed", "gl2f2-borel", "nope"]))}),
    )
)
COMMON = {
    "name": mixed(st.text(max_size=5)),
    "seed": mixed(SMALL),
    "twist": ELEMENT,
    "out": mixed(st.text(max_size=5)),
}
CONFIG = st.one_of(
    st.fixed_dictionaries({"command": mixed(st.sampled_from(COMMANDS)), "preset": PRESET}, optional=COMMON),
    st.fixed_dictionaries(
        {"command": mixed(st.sampled_from(COMMANDS)), "groups": mixed(st.fixed_dictionaries({"E": GROUP, "G": GROUP})),
         "tau": HOM, "sigma": HOM},
        optional=COMMON,
    ),
    st.fixed_dictionaries({}, optional={**COMMON, "command": ANY_JSON, "preset": PRESET, "groups": ANY_JSON}),
)


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(st.one_of(CONFIG, CONFIG, CONFIG, ANY_JSON))
def test_any_config_exits_with_a_documented_code(capsys, config):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "fuzz.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = main(["--config", str(path), "--out", str(Path(scratch) / "out"), "--max-order", "40"])
        capsys.readouterr()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_CHECK, EXIT_RESOURCE)


# -- command outputs ----------------------------------------------------------------


def test_classes_report_document(witt22_config, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "--config", str(witt22_config), "--command", "classes", "--out", str(out_dir))
    assert code == EXIT_OK
    doc = json.loads((out_dir / "classes.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["class_count"] == 2
    assert doc["relation"] == "zip-coarse"
    assert all(entry["members"] == sorted(entry["members"]) for entry in doc["classes"])


def test_orbits_and_infinity_and_refine(witt22_config, tmp_path, capsys):
    for command, filename, key in (
        ("orbits", "orbits.json", "class_count"),
        ("infinity", "infinity.json", "e_infinity"),
        ("refine", "trace.json", "stationary_index"),
    ):
        out_dir = tmp_path / command
        code, _, _ = run(capsys, "--config", str(witt22_config), "--command", command, "--out", str(out_dir))
        assert code == EXIT_OK
        doc = json.loads((out_dir / filename).read_text())
        assert key in doc


def test_forest_outputs_json_and_dot(witt22_config, tmp_path, capsys):
    out_dir = tmp_path / "forest"
    code, _, _ = run(capsys, "--config", str(witt22_config), "--command", "forest", "--out", str(out_dir))
    assert code == EXIT_OK
    doc = json.loads((out_dir / "forest.json").read_text())
    assert doc["kind"] == "forest"
    assert doc["leaf_count"] == 2
    dot = (out_dir / "forest.dot").read_text()
    assert dot.startswith("digraph")


def test_twist_flag_changes_the_datum(witt22_config, tmp_path, capsys):
    out_plain = tmp_path / "plain"
    out_twisted = tmp_path / "twisted"
    run(capsys, "--config", str(witt22_config), "--command", "infinity", "--out", str(out_plain))
    run(capsys, "--config", str(witt22_config), "--command", "infinity", "--out", str(out_twisted), "--twist", "[0,1,1,0]")
    plain = json.loads((out_plain / "infinity.json").read_text())
    twisted = json.loads((out_twisted / "infinity.json").read_text())
    assert plain["e_infinity"]["order"] == 16
    assert twisted["e_infinity"]["order"] == 32


def test_verify_command_passes_on_witt(witt22_config, tmp_path, capsys):
    out_dir = tmp_path / "verify"
    code, out, _ = run(capsys, "--config", str(witt22_config), "--command", "verify", "--out", str(out_dir))
    assert code == EXIT_OK
    assert "FAIL" not in out
    doc = json.loads((out_dir / "verify.json").read_text())
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == 9


def test_verify_catches_a_reversed_transport_on_a_shipped_config(capsys, request):
    # E = Sym{0,1,2} < S4, tau and sigma the inclusion: the built-in data
    # classify right under the mutant, so only this config shows it to verify
    config = str(Path(__file__).resolve().parent.parent / "configs" / "s3-in-s4.json")
    code, out, _ = run(capsys, "--config", config, "--command", "verify")
    assert code == EXIT_OK
    assert sum(line.startswith("PASS  ") for line in out.splitlines()) == 9
    request.getfixturevalue("transport_reversed")
    code, out, _ = run(capsys, "--config", config, "--command", "verify")
    assert code == EXIT_CHECK
    assert "FAIL  forest-limit  [leaves=4 classes=4]" in out.splitlines()
    assert out.count("FAIL") == 1


def test_verify_exit_code_reflects_failures(witt22_config, tmp_path, capsys, monkeypatch):
    from zipcalc.verify import CheckResult

    monkeypatch.setattr("zipcalc.verify.run_verification", lambda z, seed=0: [CheckResult("doomed", False)])
    code, out, _ = run(capsys, "--config", str(witt22_config), "--command", "verify")
    assert code == EXIT_CHECK
    assert "FAIL" in out


def test_zoo_command_refuses_twist(tmp_path, capsys):
    code, out, err = run(capsys, "--command", "zoo", "--twist", "(0 1)", "--out", str(tmp_path / "zoo"))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("config error: --twist: ")
    assert not (tmp_path / "zoo").exists()


def test_zoo_command_refuses_a_config_twist(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "zootwist.json",
        {"command": "zoo", "twist": "garbage", "preset": {"kind": "zoo", "entry": "s3-mixed"}},
    )
    code, out, err = run(capsys, "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"config error: {cfg}.twist: the zoo command runs the built-in data untwisted\n"


def test_zoo_command_all_checks_pass(tmp_path, capsys):
    out_dir = tmp_path / "zoo"
    code, out, _ = run(capsys, "--command", "zoo", "--out", str(out_dir))
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert out.count("PASS") == 7 * 9
    docs = sorted(out_dir.glob("verify-*.json"))
    assert len(docs) == 7
    assert all(json.loads(d.read_text())["all_passed"] for d in docs)


def test_zoo_command_reads_no_datum_from_the_config(tmp_path, capsys):
    # witt-p3-n3 is past the default --max-order, so building it would exit 4
    witt33 = write_config(tmp_path, "witt33.json", {"command": "zoo", "preset": {"kind": "witt", "p": 3, "n": 3}})
    seed_only = write_config(tmp_path, "seed.json", {"seed": 0})
    code, _, err = run(capsys, "--config", str(witt33), "--out", str(tmp_path / "a"))
    assert (code, err) == (EXIT_OK, "")
    code, _, _ = run(capsys, "--config", str(seed_only), "--command", "zoo", "--out", str(tmp_path / "b"))
    assert code == EXIT_OK
    docs = {d.name: d.read_bytes() for d in (tmp_path / "a").glob("verify-*.json")}
    assert len(docs) == 7
    assert docs == {d.name: d.read_bytes() for d in (tmp_path / "b").glob("verify-*.json")}


def test_determinism_byte_identical_reports(witt22_config, tmp_path, capsys):
    dirs = [tmp_path / f"run{i}" for i in range(2)]
    for d in dirs:
        run(capsys, "--config", str(witt22_config), "--command", "classes", "--out", str(d))
        run(capsys, "--config", str(witt22_config), "--command", "forest", "--out", str(d))
    for filename in ("classes.json", "forest.json", "forest.dot"):
        assert (dirs[0] / filename).read_bytes() == (dirs[1] / filename).read_bytes()


def test_refine_digests_each_stage_once(capsys, monkeypatch):
    from zipcalc import reports

    digest = reports.members_digest
    calls = []

    def counting(group, members):
        calls.append(len(members))
        return digest(group, members)

    monkeypatch.setattr(reports, "members_digest", counting)
    config = Path(__file__).resolve().parent.parent / "configs" / "witt-p2-n3.json"
    code, out, _ = run(capsys, "--config", str(config), "--command", "refine")
    assert code == EXIT_OK
    stages = json.loads(out[out.index("{"):])["stages"]
    # one digest per stage subgroup, plus G_inf: the last stage's E is E_inf
    assert len(calls) == 2 * len(stages) + 1 == 7


def test_witt_tau_preset_needs_matrix_groups(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "permtau.json",
        {"groups": {"E": PERM3, "G": PERM3}, "tau": {"type": "preset", "name": "witt-tau"}, "sigma": {"type": "trivial"}},
    )
    code, _, err = run(capsys, "--config", str(cfg), "--command", "classes")
    assert code == EXIT_CONFIG
    assert err == f"config error: {cfg}.tau: witt presets need matrix groups\n"


def _refused_config(tmp_path, payload):
    """The config path of a refusal case: none, a directory, or a file holding payload."""
    if payload == "missing":
        return tmp_path / "absent.json"
    if payload == "directory":
        return tmp_path
    return write_config(tmp_path, "refused.json", payload)


def _explicit(**fields):
    return {"groups": {"E": PERM3, "G": PERM3}, "tau": {"type": "trivial"}, "sigma": {"type": "trivial"}, **fields}


Z4_UNIPOTENTS = {"backend": "matrix", "size": 2, "modulus": 4, "generators": [[1, 1, 0, 1], [1, 0, 1, 1]]}
S3 = {"backend": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
S4 = {"backend": "permutation", "degree": 4, "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]}


@pytest.mark.parametrize(
    "payload, path, message",
    [
        pytest.param("missing", "", "cannot read config: ", id="missing-file"),
        pytest.param("directory", "", "cannot read config: ", id="directory"),
        pytest.param(_explicit(groups={"E": {"backend": "quaternion"}, "G": PERM3}), ".groups.E.backend",
                     "unknown backend 'quaternion'", id="unknown-backend"),
        pytest.param(_explicit(tau={"type": "surjection"}), ".tau.type", "unknown hom type 'surjection'",
                     id="unknown-hom-type"),
        pytest.param(_explicit(tau={"type": "preset", "name": "witt-rho"}), ".tau.name",
                     "unknown hom preset 'witt-rho'", id="unknown-hom-preset"),
        pytest.param({"preset": {"kind": "zoo", "entry": "s3-mixed"}, "out": 5}, ".out",
                     "out must be a directory path string", id="out-not-a-string"),
        pytest.param({"preset": [1]}, ".preset", "preset must be an object", id="preset-not-an-object"),
        pytest.param(_explicit(sigma={"type": "preset", "name": "witt-sigma", "p": 2}), ".sigma",
                     "witt presets need matrix groups", id="witt-sigma-on-permutations"),
        pytest.param(_explicit(groups={"E": Z4_UNIPOTENTS, "G": GL2F2},
                               sigma={"type": "preset", "name": "witt-sigma", "p": 3}), ".sigma",
                     "witt presets need 2x2 groups with E modulus = p * G modulus", id="witt-sigma-moduli"),
        pytest.param(_explicit(groups={"E": Z4_UNIPOTENTS, "G": GL2F2},
                               sigma={"type": "preset", "name": "witt-sigma", "p": 2}), ".sigma",
                     "witt-sigma needs lower-left entries divisible by p", id="witt-sigma-lower-left"),
        pytest.param(_explicit(tau={"type": "generator-images", "generators": ["(0 1)"], "images": []}), ".tau",
                     "generator and image lists differ in length", id="generator-images-lengths"),
        pytest.param(_explicit(groups={"E": S3, "G": S4}, tau={"type": "inclusion"}), ".tau",
                     "inclusion needs a sub-carrier of the ambient group", id="inclusion-s3-into-s4"),
        pytest.param(_explicit(twist="(1 2)"), ".twist", "permutation '(1 2)' is not in this group",
                     id="twist-permutation-outside"),
        pytest.param(_explicit(twist="(0 1 0)"), ".twist", "repeated point in cycle '(0 1 0)'",
                     id="twist-repeated-point"),
        pytest.param(_explicit(twist="(0 1)(1 2)"), ".twist", "repeated point in cycle '(0 1)(1 2)'",
                     id="twist-cycles-share-a-point"),
        pytest.param(_explicit(groups={"E": Z4_UNIPOTENTS, "G": Z4_UNIPOTENTS}, twist=[1, 0, 0, 3]), ".twist",
                     "matrix '[1,0,0,3]' is not in this group", id="twist-matrix-outside"),
        pytest.param(_explicit(groups={"E": C2, "G": C2}, twist=5), ".twist", "index 5 is not in this group",
                     id="twist-index-outside"),
    ],
)
def test_config_refusals_exit_two_with_their_message(tmp_path, capsys, payload, path, message):
    cfg = _refused_config(tmp_path, payload)
    code, out, err = run(capsys, "--config", str(cfg), "--command", "classes")
    assert (code, out) == (EXIT_CONFIG, "")
    expected = f"config error: {cfg}{path}: {message}"
    if message.endswith(": "):  # the OS error text follows
        assert err.startswith(expected) and err.count("\n") == 1
    else:
        assert err == expected + "\n"
