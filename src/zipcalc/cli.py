"""Batch front end: load a zip datum from a JSON config, run a command, emit
canonical reports.

Exit codes: 0 success, 2 config error, 3 check failure, 4 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
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
    Record,
    ResourceLimitExceeded,
    hom_from_generator_images,
    identity_hom,
    inclusion_hom,
    trivial_hom,
)
from .zipdata import ZipDatum, refine_to_stationary, twist
from .zoo import WittZipConfig, build_small_zoo, build_witt_zip, witt_sigma_table, zoo_entry

COMMANDS = ("refine", "infinity", "orbits", "classes", "forest", "verify", "zoo")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_RESOURCE = 4


class ConfigError(InputError):
    """A config file problem; the message names the failing config path."""


class Job(Record):
    """A loaded config: its name, datum, twist literal, seed, and the
    command and output directory it names, if any."""

    __slots__ = _fields = ("name", "datum", "twist_literal", "seed", "command", "out")
    _defaults = {"command": None, "out": None}


def _fail(where: str, message: str):
    raise ConfigError(f"{where}: {message}")


def _get(cfg: dict, where: str, key: str, kind=None, required=True, default=None):
    if key not in cfg:
        if required:
            _fail(where, f"missing required key {key!r}")
        return default
    value = cfg[key]
    if kind is not None and not isinstance(value, kind):
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
    except ConfigError:
        raise
    except ResourceLimitExceeded as exc:
        raise ResourceLimitExceeded(f"{where}: {exc} exceeds --max-order {max_order}") from None
    except InputError as exc:
        _fail(where, str(exc))
    _fail(f"{where}.backend", f"unknown backend {backend!r}")


def _parse_element(group: FiniteGroup, literal, where: str):
    try:
        if isinstance(literal, str):
            return group.parse_element(literal)
        if isinstance(literal, list):
            return group.parse_element("[" + ",".join(str(v) for v in literal) + "]")
        if isinstance(literal, int):
            return group.parse_element(str(literal))
    except InputError as exc:
        _fail(where, str(exc))
    _fail(where, f"cannot interpret element literal {literal!r}")


def _build_hom(spec, E: FiniteGroup, G: FiniteGroup, where: str) -> Homomorphism:
    if not isinstance(spec, dict):
        _fail(where, "hom spec must be an object")
    kind = _get(spec, where, "type", str)
    try:
        if kind == "identity":
            if E.space() != G.space() or E.element_set != G.element_set:
                _fail(where, "identity hom needs E and G with the same carrier")
            if E is G:
                return identity_hom(E)
            return Homomorphism(E, G, {a: a for a in E}, check=False)
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
                p = _get(spec, where, "p", int)
                return Homomorphism(E, G, witt_sigma_table(E, G, p))
            if name == "witt-tau":
                if not (isinstance(E, MatrixGroup) and isinstance(G, MatrixGroup)):
                    _fail(where, "witt presets need matrix groups")
                m = G.modulus
                return Homomorphism(E, G, {e: tuple(v % m for v in e) for e in E})
            _fail(f"{where}.name", f"unknown hom preset {name!r}")
    except ConfigError:
        raise
    except InputError as exc:
        _fail(where, str(exc))
    _fail(f"{where}.type", f"unknown hom type {kind!r}")


def load_job(config_path: Path, max_order: int | None = None) -> Job:
    """Parse a config into a job.  With max_order, a preset whose closed-form
    carrier order exceeds it, or a group spec whose closure would, is refused
    before anything that large is enumerated."""
    where = str(config_path)
    try:
        text = config_path.read_text(encoding="utf-8")
    except OSError as exc:
        _fail(where, f"cannot read config: {exc}")
    try:
        cfg = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError, and so is an integer literal past
        # CPython's digit limit; nesting too deep raises RecursionError
        _fail(where, f"invalid JSON: {exc}")
    if not isinstance(cfg, dict):
        _fail(where, "config must be a JSON object")

    name = cfg.get("name") or config_path.stem
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int):
        _fail(f"{where}.seed", "seed must be an integer")
    twist_literal = cfg.get("twist")
    if twist_literal is not None and not isinstance(twist_literal, (str, list, int)):
        _fail(f"{where}.twist", "twist must be an element literal")
    command = cfg.get("command")
    if command is not None and command not in COMMANDS:
        _fail(f"{where}.command", f"unknown command {command!r}; known: {', '.join(COMMANDS)}")
    out = cfg.get("out")
    if out is not None and not isinstance(out, str):
        _fail(f"{where}.out", "out must be a directory path string")
    out_path = Path(out) if out is not None else None

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
                if max_order is not None:
                    _enforce_max_order(max(config.e_order, config.g_order), max_order)
                datum, _ = build_witt_zip(config)
            except InputError as exc:
                _fail(f"{where}.preset", str(exc))
            return Job(name, datum, twist_literal, seed, command, out_path)
        if kind == "zoo":
            entry = _get(preset, f"{where}.preset", "entry", str)
            try:
                datum = zoo_entry(entry)
            except InputError as exc:
                _fail(f"{where}.preset.entry", str(exc))
            return Job(name, datum, twist_literal, seed, command, out_path)
        _fail(f"{where}.preset.kind", f"unknown preset kind {kind!r}")

    groups = _get(cfg, where, "groups", dict)
    if "E" not in groups or "G" not in groups:
        _fail(f"{where}.groups", "both E and G group specs are required")
    E = _build_group(groups["E"], f"{where}.groups.E", max_order)
    G = _build_group(groups["G"], f"{where}.groups.G", max_order)
    tau = _build_hom(_get(cfg, where, "tau", dict), E, G, f"{where}.tau")
    sigma = _build_hom(_get(cfg, where, "sigma", dict), E, G, f"{where}.sigma")
    try:
        datum = ZipDatum(E, G, tau, sigma)
    except InputError as exc:
        _fail(where, str(exc))
    return Job(name, datum, twist_literal, seed, command, out_path)


def _emit(out_dir: Path | None, files: dict, stdout_lines: list):
    """Print the summary lines, then the reports: to stdout, or as files in
    out_dir.  Files are written before anything is printed, so a directory
    that cannot be written is a config error with nothing on stdout."""
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for filename, content in sorted(files.items()):
                (out_dir / filename).write_text(content, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"{out_dir}: cannot write reports: {exc.strerror or exc}") from None
    for line in stdout_lines:
        print(line)
    if out_dir is None:
        for _, content in sorted(files.items()):
            sys.stdout.write(content)
    else:
        for filename in sorted(files):
            print(f"wrote {out_dir / filename}")


def _run_command(job: Job, command: str, out_dir: Path | None) -> int:
    z = job.datum
    name = job.name
    if command == "refine":
        trace = refine_to_stationary(z)
        lines = []
        for i, (e_i, g_i) in enumerate(trace.stages):
            lines.append(
                f"stage {i}: |E_{i}|={e_i.order} digest={reports.members_digest(z.E, e_i.members)}"
                f" |G_{i}|={g_i.order} digest={reports.members_digest(z.G, g_i.members)}"
            )
        lines.append(
            f"stationary at index {trace.stationary_index}:"
            f" |E_inf|={trace.e_infinity.order} |G_inf|={trace.g_infinity.order}"
        )
        doc = reports.trace_document(name, z, trace)
        _emit(out_dir, {"trace.json": reports.dumps_canonical(doc)}, lines)
        return EXIT_OK
    if command == "infinity":
        trace = refine_to_stationary(z)
        doc = reports.infinity_document(name, z, trace)
        lines = [
            f"E_inf: order {trace.e_infinity.order}",
            f"G_inf: order {trace.g_infinity.order}",
        ]
        _emit(out_dir, {"infinity.json": reports.dumps_canonical(doc)}, lines)
        return EXIT_OK
    if command == "orbits":
        report = equivalence.fine_orbits(z)
        doc = reports.class_report_document(name, report)
        _emit(out_dir, {"orbits.json": reports.dumps_canonical(doc)}, [f"fine orbits: {report.class_count}"])
        return EXIT_OK
    if command == "classes":
        report = equivalence.zip_classes(z)
        doc = reports.class_report_document(name, report)
        _emit(out_dir, {"classes.json": reports.dumps_canonical(doc)}, [f"classes: {report.class_count}"])
        return EXIT_OK
    if command == "forest":
        rep_forest = forest.build_forest(z)
        doc = reports.forest_document(name, rep_forest)
        files = {
            "forest.json": reports.dumps_canonical(doc),
            "forest.dot": forest.forest_to_dot(rep_forest),
        }
        lines = [f"forest: {len(rep_forest.roots)} roots, {len(rep_forest.leaves)} stable paths"]
        _emit(out_dir, files, lines)
        return EXIT_OK
    if command == "verify":
        results = verify.run_verification(z, seed=job.seed)
        lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name}" + (f"  [{r.detail}]" if r.detail else "") for r in results]
        doc = reports.verification_document(name, z, results)
        _emit(out_dir, {"verify.json": reports.dumps_canonical(doc)}, lines)
        return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK
    raise ConfigError(f"unknown command {command!r}")


def _run_zoo(out_dir: Path | None, seed: int, max_order: int) -> int:
    all_ok = True
    files = {}
    lines = []
    for entry_name, datum in build_small_zoo().items():
        _enforce_max_order(max(datum.E.order, datum.G.order), max_order)
        results = verify.run_verification(datum, seed=seed)
        for r in results:
            lines.append(
                f"{'PASS' if r.passed else 'FAIL'}  {entry_name}: {r.name}"
                + (f"  [{r.detail}]" if r.detail else "")
            )
        all_ok = all_ok and all(r.passed for r in results)
        doc = reports.verification_document(entry_name, datum, results)
        files[f"verify-{entry_name}.json"] = reports.dumps_canonical(doc)
    _emit(out_dir, files, lines)
    return EXIT_OK if all_ok else EXIT_CHECK


def _enforce_max_order(biggest: int, max_order: int):
    if biggest > max_order:
        raise ResourceLimitExceeded(
            f"carrier of order {biggest} exceeds --max-order {max_order}"
        )


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
        type=int,
        default=20000,
        help="refuse carriers larger than this (default 20000)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        job = load_job(args.config, args.max_order) if args.config is not None else None
        command = args.command or (job.command if job else None)
        if command is None:
            raise ConfigError('no command given: pass --command or set "command" in the config')
        out_dir = args.out if args.out is not None else (job.out if job else None)
        if command == "zoo":
            return _run_zoo(out_dir, job.seed if job else 0, args.max_order)
        if job is None:
            raise ConfigError(f"--config is required for the {command} command")
        _enforce_max_order(max(job.datum.E.order, job.datum.G.order), args.max_order)
        literal = args.twist if args.twist is not None else job.twist_literal
        if literal is not None:
            x = _parse_element(job.datum.G, literal, f"{args.config}.twist")
            job = Job(job.name, twist(job.datum, x), None, job.seed)
        return _run_command(job, command, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
