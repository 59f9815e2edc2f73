#!/usr/bin/env python3
"""One line per datum, the zoo's and with --witt the truncated Witt models':
fine and coarse counts (strict where the coarse relation is strictly
coarser), the stationary subgroups and index (on Witt lines also that of the
twist by the antidiagonal), class sizes, forest shape and timings."""

from __future__ import annotations

import argparse
import time

from zipcalc import (WittZipConfig, build_forest, build_small_zoo, build_witt_zip, fine_orbits,
                     refine_to_stationary, twist, zip_classes, zoo_entry)


def survey(name, build):
    """Print the line of the datum that build() returns with its twist element or None."""
    started = time.monotonic()
    datum, x = build()
    built = time.monotonic() - started
    trace = refine_to_stationary(datum)
    twisted = "-" if x is None else refine_to_stationary(twist(datum, x)).stationary_index
    started = time.monotonic()
    coarse = zip_classes(datum)
    classed = time.monotonic() - started
    fine = fine_orbits(datum)
    forest = build_forest(datum)
    strict = "strict" if fine.class_count > coarse.class_count else "equal"
    print(
        f"{name:18s} |E|={datum.E.order:<6d} |G|={datum.G.order:<5d} "
        f"fine={fine.class_count:<4d} coarse={coarse.class_count:<3d} ({strict}) "
        f"|E_inf|={trace.e_infinity.order:<6d} |G_inf|={trace.g_infinity.order:<5d} "
        f"stationary_index={trace.stationary_index} twisted_index={twisted} "
        f"sizes={[c.size for c in coarse.classes]} "
        f"forest_depth={forest.stationary_generation} leaves={len(forest.leaves)} "
        f"[build {built:.3f}s, classes {classed:.3f}s]"
    )


def witt_configs(text):
    """--witt's type: comma-separated p:n pairs."""
    return [WittZipConfig(*(int(v) for v in pair.split(":"))) for pair in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--witt", nargs="?", type=witt_configs, const="2:2,2:3,3:2", default=[], metavar="P:N[,P:N...]",
        help="also survey these Witt models (bare: 2:2,2:3,3:2)",
    )
    args = parser.parse_args()
    # the zoo's names in its order; each datum is built again, alone, to be timed
    for name in build_small_zoo():
        survey(name, lambda name=name: (zoo_entry(name), None))
    for config in args.witt:
        survey(f"witt-p{config.p}-n{config.n}", lambda config=config: build_witt_zip(config))


if __name__ == "__main__":
    main()
