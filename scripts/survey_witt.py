#!/usr/bin/env python3
"""Sweep the truncated Witt models: sizes, refinement depth, classes, timing."""

from __future__ import annotations

import argparse
import time

from zipcalc import (
    WittZipConfig,
    build_forest,
    build_witt_zip,
    refine_to_stationary,
    twist,
    zip_classes,
)


def run(p, n):
    started = time.monotonic()
    datum, x = build_witt_zip(WittZipConfig(p, n))
    built = time.monotonic() - started

    trace = refine_to_stationary(datum)
    twisted = refine_to_stationary(twist(datum, x))

    started = time.monotonic()
    report = zip_classes(datum)
    classed = time.monotonic() - started

    forest = build_forest(datum)
    print(
        f"p={p} n={n}: |E|={datum.E.order} |G|={datum.G.order} "
        f"stationary_index={trace.stationary_index} twisted_index={twisted.stationary_index} "
        f"classes={report.class_count} sizes={[c.size for c in report.classes]} "
        f"forest_depth={forest.stationary_generation} leaves={len(forest.leaves)} "
        f"[build {built:.1f}s, classes {classed:.1f}s]"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", default="2:2,2:3,3:2", help="comma-separated p:n pairs")
    args = parser.parse_args()
    for pair in args.pairs.split(","):
        p, n = (int(v) for v in pair.split(":"))
        run(p, n)


if __name__ == "__main__":
    main()
