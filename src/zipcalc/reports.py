"""Canonical JSON report documents.

Every report is a single JSON object with a schema_version field; member
lists are sorted by element key and serialization uses sorted keys, so a
given input produces byte-identical output on every run.
"""

from __future__ import annotations

import json

# CPython's built-in sha256 first: hashlib would load OpenSSL for one digest
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

SCHEMA_VERSION = 1


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def members_digest(group, members) -> str:
    """The digest of the members' text in key order; given a subgroup's
    cached ``elements``, already in that order, the sort is one linear pass."""
    text = ",".join(map(group.format_element, sorted(members)))
    return sha256(text.encode("utf-8")).hexdigest()[:16]


def _datum_descriptor(name: str, z: ZipDatum) -> dict:
    return {
        "name": name,
        "e_backend": z._root.E.backend,
        "e_order": len(z._e_members),
        "g_backend": z.G.backend,
        "g_order": z.G.order,
    }


def class_report_document(name: str, report: ClassReport) -> dict:
    z = report.datum
    fmt = z.G.format_element
    classes = []
    for c in report.classes:
        entry = {
            "witness": fmt(c.witness),
            "size": c.size,
            "members": [fmt(m) for m in sorted(c.members)],
        }
        if c.trace is not None:
            entry["e_infinity_order"] = c.trace.e_infinity.order
            entry["e_infinity_digest"] = members_digest(z._root.E, c.trace.e_infinity.elements)
            entry["g_infinity_order"] = c.trace.g_infinity.order
            entry["g_infinity"] = [fmt(m) for m in c.trace.g_infinity.elements]
        classes.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "class-report",
        "relation": report.relation,
        "datum": _datum_descriptor(name, z),
        "class_count": report.class_count,
        "classes": classes,
    }


def _subgroup_entry(group, sub, with_members: bool) -> dict:
    entry = {"order": sub.order, "digest": members_digest(group, sub.elements)}
    if with_members:
        entry["members"] = [group.format_element(m) for m in sub.elements]
    return entry


def _stationary_document(kind: str, name: str, z: ZipDatum, trace: RefinementTrace, with_members: bool) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "datum": _datum_descriptor(name, z),
        "stationary_index": trace.stationary_index,
        "e_infinity": _subgroup_entry(z._root.E, trace.e_infinity, with_members),
        "g_infinity": _subgroup_entry(z.G, trace.g_infinity, with_members),
    }


def trace_document(name: str, z: ZipDatum, trace: RefinementTrace) -> dict:
    doc = _stationary_document("refinement-trace", name, z, trace, False)
    e_infinity_digest = doc["e_infinity"]["digest"]  # the last stage's E is trace.e_infinity
    doc["stages"] = [
        {
            "index": i,
            "e_order": e_i.order,
            "e_digest": e_infinity_digest if e_i is trace.e_infinity else members_digest(z._root.E, e_i.elements),
            "g_order": g_i.order,
            "g_digest": members_digest(z.G, g_i.elements),
        }
        for i, (e_i, g_i) in enumerate(trace.stages)
    ]
    return doc


def infinity_document(name: str, z: ZipDatum, trace: RefinementTrace) -> dict:
    return _stationary_document("stationary-subgroups", name, z, trace, True)


def forest_document(name: str, forest: RepForest) -> dict:
    z = forest.datum
    fmt = z.G.format_element
    generations = []
    for gen in forest.generations:
        generations.append(
            [
                {
                    "element": fmt(node.element),
                    "path": node.path_id(fmt),
                    "parent": node.parent.path_id(fmt) if node.parent is not None else None,
                    "accumulated": fmt(node.accumulated),
                    "stable": node.stable,
                }
                for node in gen
            ]
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "forest",
        "datum": _datum_descriptor(name, z),
        "stationary_generation": forest.stationary_generation,
        "root_count": len(forest.roots),
        "leaf_count": len(forest.leaves),
        "generations": generations,
        "identity_rep_flags": [node.path_id(fmt) for node in forest.identity_rep_flags],
    }


def verification_document(name: str, z: ZipDatum, results) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "verification",
        "datum": _datum_descriptor(name, z),
        "all_passed": all(r.passed for r in results),
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
