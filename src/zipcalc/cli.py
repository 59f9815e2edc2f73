"""Batch front end: load a zip datum from a JSON config, run a command, emit
canonical reports.

Exit codes: 0 success, 2 config error, 3 check failure, 4 resource limit.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys
from collections import namedtuple
from pathlib import Path

# The analysis and report layers are lazy modules (see __init__): each one
# loads when a command first uses it, so they are called through the module.
from . import equivalence, forest, reports, verify
from .groups import (
    CayleyTableGroup,
    FiniteGroup,
    Homomorphism,
    InputError,
    MatrixGroup,
    PermutationGroup,
    ResourceLimitExceeded,
    hom_from_generator_images,
    inclusion_hom,
    trivial_hom,
)
from .zipdata import ZipDatum, refine_to_stationary, twist
from .zoo import WittZipConfig, build_small_zoo, build_witt_zip, witt_hom, zoo_entry

COMMANDS = ("refine", "infinity", "orbits", "classes", "forest", "verify", "zoo")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_RESOURCE = 4


class ConfigError(ValueError):
    """A config file problem; the message names the failing config path.
    Not an InputError, so a builder's ``except InputError``, which turns a
    library error into a config error, lets it through."""


class Job(namedtuple("Job", "name datum seed")):
    """A loaded config: its name, datum and seed."""

    __slots__ = ()


def _fail(where: str, message: str):
    raise ConfigError(f"{where}: {message}")


def _get(cfg: dict, where: str, key: str, kind):
    if key not in cfg:
        _fail(where, f"missing required key {key!r}")
    value = cfg[key]
    # JSON true and false load as bool, a subclass of int
    if not isinstance(value, kind) or isinstance(value, bool):
        _fail(f"{where}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _build_group(spec, where: str, max_order: int | None = None) -> FiniteGroup:
    """Build a group spec.  With max_order, a closure or table with more
    elements, or elements with more entries, is refused before it is built."""
    if not isinstance(spec, dict):
        _fail(where, "group spec must be an object")
    backend = _get(spec, where, "backend", str)

    def check(count, what):
        if max_order is not None and count > max_order:
            raise ResourceLimitExceeded(f"{what} {count}")

    try:
        if backend == "permutation":
            degree = _get(spec, where, "degree", int)
            generators = _get(spec, where, "generators", list)
            check(degree, "element size")
            return PermutationGroup.from_generators(degree, generators, max_order)
        if backend == "matrix":
            size = _get(spec, where, "size", int)
            modulus = _get(spec, where, "modulus", int)
            generators = _get(spec, where, "generators", list)
            check(size * size, "element size")
            return MatrixGroup.from_generators(size, modulus, generators, max_order)
        if backend == "cayley":
            table = _get(spec, where, "table", list)
            check(len(table), "carrier order")
            return CayleyTableGroup(table)
    except ResourceLimitExceeded as exc:
        raise ResourceLimitExceeded(f"{where}: {exc} exceeds --max-order {max_order}") from None
    except InputError as exc:
        _fail(f"{where}.{exc.at}" if exc.at else where, str(exc))
    _fail(f"{where}.backend", f"unknown backend {backend!r}")


def _is_int(value) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_element(group: FiniteGroup, literal, where: str):
    """An element from a string, an integer (a Cayley index) or a list of
    integers (matrix entries); any other JSON value is refused, not parsed
    from a Python spelling ('True', 'None') that the config never wrote."""
    if isinstance(literal, list) and all(map(_is_int, literal)):
        literal = "[" + ",".join(map(str, literal)) + "]"
    elif _is_int(literal):
        literal = str(literal)
    elif not isinstance(literal, str):
        _fail(where, "an element literal is a string, an integer or a list of integers")
    try:
        return group.parse_element(literal)
    except InputError as exc:
        _fail(where, str(exc))


def _build_hom(spec: dict, E: FiniteGroup, G: FiniteGroup, where: str) -> Homomorphism:
    """The homomorphism E -> G that a hom spec describes; _get has already
    checked that the spec is an object.  Every branch returns a map with
    source E and target G, so ZipDatum(E, G, tau, sigma) accepts any two."""
    kind = _get(spec, where, "type", str)
    try:
        if kind == "identity":
            if E.space() != G.space() or E.element_set != G.element_set:
                _fail(where, "identity hom needs E and G with the same carrier")
            return inclusion_hom(E, G)
        if kind == "inclusion":
            return inclusion_hom(E, G)
        if kind == "trivial":
            return trivial_hom(E, G)
        if kind == "table":
            entries = _get(spec, where, "entries", list)
            table = {}
            for i, pair in enumerate(entries):
                if not isinstance(pair, list) or len(pair) != 2:
                    _fail(f"{where}.entries[{i}]", "expected [element, image]")
                src = _parse_element(E, pair[0], f"{where}.entries[{i}][0]")
                if src in table:
                    _fail(f"{where}.entries[{i}][0]", f"source element {E.format_element(src)} is listed twice")
                img = _parse_element(G, pair[1], f"{where}.entries[{i}][1]")
                table[src] = img
            return Homomorphism(E, G, table)
        if kind == "generator-images":
            generators = [
                _parse_element(E, lit, f"{where}.generators[{i}]")
                for i, lit in enumerate(_get(spec, where, "generators", list))
            ]
            images = [
                _parse_element(G, lit, f"{where}.images[{i}]")
                for i, lit in enumerate(_get(spec, where, "images", list))
            ]
            return hom_from_generator_images(E, G, generators, images)
        if kind == "preset":
            name = _get(spec, where, "name", str)
            if name == "witt-sigma":
                return witt_hom(E, G, _get(spec, where, "p", int))
            if name == "witt-tau":
                return witt_hom(E, G)
            _fail(f"{where}.name", f"unknown hom preset {name!r}")
    except InputError as exc:
        _fail(where, str(exc))
    _fail(f"{where}.type", f"unknown hom type {kind!r}")


def _read_config(config_path: Path) -> tuple:
    """A config's JSON object and the fields every command reads, each
    checked: (cfg, twist literal, seed, command, output directory)."""
    where = str(config_path)
    try:
        data = config_path.read_bytes()
    except OSError as exc:
        _fail(where, f"cannot read config: {exc}")
    try:
        cfg = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors, and so is an
        # integer literal past CPython's digit limit; nesting too deep raises
        # RecursionError
        _fail(where, f"invalid JSON: {exc}")
    if not isinstance(cfg, dict):
        _fail(where, "config must be a JSON object")
    seed = cfg.get("seed", 0)
    if not _is_int(seed):
        _fail(f"{where}.seed", "seed must be an integer")
    twist_literal = cfg.get("twist")
    if twist_literal is not None and not (isinstance(twist_literal, (str, list)) or _is_int(twist_literal)):
        _fail(f"{where}.twist", "twist must be an element literal")
    command = cfg.get("command")
    if command is not None and command not in COMMANDS:
        _fail(f"{where}.command", f"unknown command {command!r}; known: {', '.join(COMMANDS)}")
    out = cfg.get("out")
    if out is not None and not isinstance(out, str):
        _fail(f"{where}.out", "out must be a directory path string")
    return cfg, twist_literal, seed, command, Path(out) if out is not None else None


def _build_datum(cfg: dict, where: str, max_order: int | None) -> ZipDatum:
    preset = cfg.get("preset")
    if preset is not None:
        if not isinstance(preset, dict):
            _fail(f"{where}.preset", "preset must be an object")
        kind = _get(preset, f"{where}.preset", "kind", str)
        if kind == "witt":
            p = _get(preset, f"{where}.preset", "p", int)
            n = _get(preset, f"{where}.preset", "n", int)
            try:
                config = WittZipConfig(p, n)
                _enforce_max_order(max(config.e_order, config.g_order), max_order)
                return build_witt_zip(config)[0]
            except InputError as exc:
                _fail(f"{where}.preset", str(exc))
        if kind == "zoo":
            entry = _get(preset, f"{where}.preset", "entry", str)
            try:
                z = zoo_entry(entry)
            except InputError as exc:
                _fail(f"{where}.preset.entry", str(exc))
            _enforce_max_order(max(z.E.order, z.G.order), max_order)
            return z
        _fail(f"{where}.preset.kind", f"unknown preset kind {kind!r}")

    groups = _get(cfg, where, "groups", dict)
    if "E" not in groups or "G" not in groups:
        _fail(f"{where}.groups", "both E and G group specs are required")
    E = _build_group(groups["E"], f"{where}.groups.E", max_order)
    G = _build_group(groups["G"], f"{where}.groups.G", max_order)
    tau = _build_hom(_get(cfg, where, "tau", dict), E, G, f"{where}.tau")
    sigma = _build_hom(_get(cfg, where, "sigma", dict), E, G, f"{where}.sigma")
    return ZipDatum(E, G, tau, sigma)


def load_job(config_path: Path, max_order: int | None = None) -> Job:
    """Parse a config into a job.  With max_order, a Witt preset whose
    closed-form carrier order exceeds it, or a group spec whose closure
    would, is refused before anything that large is enumerated, and a zoo
    preset, of at most 24 elements, once it is built."""
    cfg, _, seed, _, _ = _read_config(config_path)
    where = str(config_path)
    name = cfg.get("name")
    if name is not None and not isinstance(name, str):
        _fail(f"{where}.name", "name must be a string")
    return Job(name or config_path.stem, _build_datum(cfg, where, max_order), seed)


def _emit(out_dir: Path | None, files: dict, stdout_lines: list):
    """Print the summary lines, then the reports: to stdout, or as files in
    out_dir.  A dict report is written as canonical JSON, a string as it is.
    Files are written before anything is printed, so a directory that cannot
    be written is a config error with nothing on stdout."""
    texts = {
        filename: content if isinstance(content, str) else reports.dumps_canonical(content)
        for filename, content in sorted(files.items())
    }
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for filename, text in texts.items():
                (out_dir / filename).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"{out_dir}: cannot write reports: {exc.strerror or exc}") from None
    for line in stdout_lines:
        print(line)
    for filename, text in texts.items():
        if out_dir is None:
            sys.stdout.write(text)
        else:
            print(f"wrote {out_dir / filename}")


def _check_lines(doc: dict, prefix: str = "") -> list:
    """One PASS/FAIL line per check of a verification report."""
    return [
        f"{'PASS' if c['passed'] else 'FAIL'}  {prefix}{c['name']}" + (f"  [{c['detail']}]" if c["detail"] else "")
        for c in doc["checks"]
    ]


def _outputs(name: str, z: ZipDatum, command: str, seed: int) -> tuple:
    """The report files, summary lines and verdict of one command on z.  The
    summary lines are read from the reports, so each figure is computed once."""
    if command == "refine":
        doc = reports.trace_document(name, z, refine_to_stationary(z))
        lines = [
            f"stage {s['index']}: |E_{s['index']}|={s['e_order']} digest={s['e_digest']}"
            f" |G_{s['index']}|={s['g_order']} digest={s['g_digest']}"
            for s in doc["stages"]
        ]
        lines.append(
            f"stationary at index {doc['stationary_index']}:"
            f" |E_inf|={doc['e_infinity']['order']} |G_inf|={doc['g_infinity']['order']}"
        )
        return {"trace.json": doc}, lines, True
    if command == "infinity":
        doc = reports.infinity_document(name, z, refine_to_stationary(z))
        lines = [f"E_inf: order {doc['e_infinity']['order']}", f"G_inf: order {doc['g_infinity']['order']}"]
        return {"infinity.json": doc}, lines, True
    if command == "orbits":
        doc = reports.class_report_document(name, equivalence.fine_orbits(z))
        return {"orbits.json": doc}, [f"fine orbits: {doc['class_count']}"], True
    if command == "classes":
        doc = reports.class_report_document(name, equivalence.zip_classes(z))
        return {"classes.json": doc}, [f"classes: {doc['class_count']}"], True
    if command == "forest":
        rep_forest = forest.build_forest(z)
        doc = reports.forest_document(name, rep_forest)
        lines = [f"forest: {doc['root_count']} roots, {doc['leaf_count']} stable paths"]
        return {"forest.json": doc, "forest.dot": forest.forest_to_dot(rep_forest)}, lines, True
    doc = reports.verification_document(name, z, verify.run_verification(z, seed=seed))
    return {"verify.json": doc}, _check_lines(doc), doc["all_passed"]


def _enforce_max_order(biggest: int, max_order: int | None):
    if max_order is not None and biggest > max_order:
        raise ResourceLimitExceeded(
            f"carrier of order {biggest} exceeds --max-order {max_order}"
        )


def _max_order(text: str) -> int:
    """--max-order's type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zipcalc",
        description="Refinement calculus for zip data over finite groups.",
    )
    parser.add_argument("--config", type=Path, help="JSON config describing the zip datum")
    parser.add_argument("--command", choices=COMMANDS, help="job to run; falls back to the config's command field")
    parser.add_argument("--out", type=Path, help="directory for report files")
    parser.add_argument("--twist", help="element literal in G; overrides the config twist")
    parser.add_argument(
        "--max-order",
        type=_max_order,
        default=20000,
        help="refuse carriers larger than this (default 20000)",
    )
    return parser


def main(argv=None) -> int:
    # Freeze the collector at exit, so that CPython's final collection skips
    # every live object instead of walking memory the OS takes back anyway.
    # Registered here, not at import, so that a program that only imports
    # zipcalc keeps its own exit; unregistered first, so that repeated calls
    # leave one callback.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        config = _read_config(args.config) if args.config is not None else (None, None, 0, None, None)
        _, twist_literal, seed, command, out_dir = config
        command, out_dir = args.command or command, args.out or out_dir
        if args.twist is not None:
            literal, where = args.twist, "--twist"
        else:
            literal, where = twist_literal, f"{args.config}.twist"
        if command == "zoo":
            if literal is not None:
                raise ConfigError(f"{where}: the zoo command runs the built-in data untwisted")
            files, lines, passed = {}, [], True
            for entry, datum in build_small_zoo().items():
                _enforce_max_order(max(datum.E.order, datum.G.order), args.max_order)
                docs, _, ok = _outputs(entry, datum, "verify", seed)
                files[f"verify-{entry}.json"] = docs["verify.json"]
                lines += _check_lines(docs["verify.json"], f"{entry}: ")
                passed = passed and ok
        else:
            # a config that names no command is loaded too, so that its datum
            # errors come before the missing command
            job = load_job(args.config, args.max_order) if args.config is not None else None
            if command is None:
                raise ConfigError('no command given: pass --command or set "command" in the config')
            if job is None:
                raise ConfigError(f"--config is required for the {command} command")
            z = job.datum
            if literal is not None:
                z = twist(z, _parse_element(z.G, literal, where))
            files, lines, passed = _outputs(job.name, z, command, job.seed)
        _emit(out_dir, files, lines)
        return EXIT_OK if passed else EXIT_CHECK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
