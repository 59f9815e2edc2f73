"""Pinned CLI transcripts: the sha256 of (exit code, stdout, stderr) of every
command on the shipped configs and a zoo-preset config, with and without a
twist, and of the zoo command and its --max-order refusals.

Reports go to stdout (no --out), so a hash covers the summary lines and the
report bytes together.  Temporary and config directories are replaced by
placeholders before hashing.  To re-record after a deliberate output change,
run ``PYTHONPATH=src python tests/test_cli_transcripts.py`` from the repo
root and paste its output over ``EXPECTED``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from zipcalc.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DATUM_COMMANDS = ("refine", "infinity", "orbits", "classes", "forest", "verify")

# config name -> (file under configs/, or a payload written to a temp file; twist literal)
SOURCES = {
    "witt-p2-n2": ("witt-p2-n2.json", "[0,1,1,0]"),
    "witt-p2-n3": ("witt-p2-n3.json", "[0,1,1,0]"),
    "s3-mixed": ("s3-mixed.json", "(0 1)"),
    "s4-cycle-pair": ({"name": "s4-cycle-pair", "preset": {"kind": "zoo", "entry": "s4-cycle-pair"}}, "(0 1)"),
    "witt-p7-n2": ({"preset": {"kind": "witt", "p": 7, "n": 2}}, None),
}


def _cases() -> dict:
    """case id -> (config name or None, extra argv)"""
    cases = {}
    for name in ("witt-p2-n2", "witt-p2-n3", "s3-mixed", "s4-cycle-pair"):
        literal = SOURCES[name][1]
        for command in DATUM_COMMANDS:
            cases[f"{name}-{command}"] = (name, ["--command", command])
            cases[f"{name}-{command}-twisted"] = (name, ["--command", command, "--twist", literal])
    cases["zoo"] = (None, ["--command", "zoo"])
    cases["zoo-max-order"] = (None, ["--command", "zoo", "--max-order", "10"])
    cases["s4-cycle-pair-max-order"] = ("s4-cycle-pair", ["--command", "classes", "--max-order", "10"])
    cases["witt-p7-n2-max-order"] = ("witt-p7-n2", ["--command", "classes"])
    return cases


CASES = _cases()


def transcript_hash(case: str, tmp: Path) -> str:
    name, extra = CASES[case]
    argv = list(extra)
    if name is not None:
        source = SOURCES[name][0]
        if isinstance(source, dict):
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(source), encoding="utf-8")
        else:
            path = CONFIGS / source
        argv = ["--config", str(path)] + argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    text = text.replace(str(tmp), "<tmp>").replace(str(CONFIGS), "<configs>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


EXPECTED = {
    "s3-mixed-classes": "ffd4344ab33a008b89944be6c0de609ddb3dc915a7eddc1ee54cbf5ae1bd0933",
    "s3-mixed-classes-twisted": "ffd4344ab33a008b89944be6c0de609ddb3dc915a7eddc1ee54cbf5ae1bd0933",
    "s3-mixed-forest": "410e89966604dcb5785c40fdd2d5d8c9cf319cc16d3310ff47d62784638456d5",
    "s3-mixed-forest-twisted": "410e89966604dcb5785c40fdd2d5d8c9cf319cc16d3310ff47d62784638456d5",
    "s3-mixed-infinity": "9209f8415b63c8f6cf41945a0c5f7850b0626bd746f5645f497f534020bb1ea9",
    "s3-mixed-infinity-twisted": "9209f8415b63c8f6cf41945a0c5f7850b0626bd746f5645f497f534020bb1ea9",
    "s3-mixed-orbits": "491a157e8d2b37a1385830e006bb6443e05e7387ade424f491d7f9e0d9f276bf",
    "s3-mixed-orbits-twisted": "491a157e8d2b37a1385830e006bb6443e05e7387ade424f491d7f9e0d9f276bf",
    "s3-mixed-refine": "d4eeee7bf2fbb8c2f56f9a3ef9ad9a20fe823e91f7ad3d6506041b5589a7bbdd",
    "s3-mixed-refine-twisted": "d4eeee7bf2fbb8c2f56f9a3ef9ad9a20fe823e91f7ad3d6506041b5589a7bbdd",
    "s3-mixed-verify": "8ec706e2c283ee8032cf796ac6029a5f9a6c23b290168facd5e8869625d3f0c7",
    "s3-mixed-verify-twisted": "8ec706e2c283ee8032cf796ac6029a5f9a6c23b290168facd5e8869625d3f0c7",
    "s4-cycle-pair-classes": "99f7d5772390d0d5c93f981589c7df21f3b5bc62785ee4f6ffbd6a7b89a98c35",
    "s4-cycle-pair-classes-twisted": "3f22a15a7f3b2401a25080bcfe5cc7c0d0ff0db77605cfd351f07e14b444d05d",
    "s4-cycle-pair-forest": "9b9cb7e82c58b91a538def9604bb831407515d8a1a8b8d1486c0317d2ff1b7d0",
    "s4-cycle-pair-forest-twisted": "d2d5ee7a87198d252d0d5c2a89f52d824604804aa6898048c225d292a063b5f3",
    "s4-cycle-pair-infinity": "9e06562e0bf03de6babfa7fe6604da751f35d4ad5dcf76d158c0e0d640f77674",
    "s4-cycle-pair-infinity-twisted": "2f3214b6aca54801006065a6b58efe0e918fd380e18b7219a71e2750d1fe345e",
    "s4-cycle-pair-max-order": "69d17ad9ea880a00b2b67fc464617a74bbe852c925cf977afc88c13e656ff0e2",
    "s4-cycle-pair-orbits": "a9c160a970df2a7c8fa416088b7325e34c15f3062b041b4a3ea24336f4acf7e7",
    "s4-cycle-pair-orbits-twisted": "18756c9c8c9ba2aaa8c0ed359ac0ad732dd1c3ba7522a6196013ebdcd45e1e9f",
    "s4-cycle-pair-refine": "ea7d26f74e2ab99fc5dbcd546dc522df9911b563ba932101baf41ba6f13ce607",
    "s4-cycle-pair-refine-twisted": "efbd4aa888222286356224236f74c0686436f144fe2e370a058d7a716affdad3",
    "s4-cycle-pair-verify": "af1b13df8dca7a43477fa4c72eceefc3bb68a5e31bffa0c40254f5ea8543d64a",
    "s4-cycle-pair-verify-twisted": "dc05fbcbeaf8f75280a8dc90a0f9ed22d35c991d572db36ebb424b7d3d0de699",
    "witt-p2-n2-classes": "cd9602514aa9c8e9ccf38ba568f62ee269ea71d99e0c080e4c08bbc4c7f36585",
    "witt-p2-n2-classes-twisted": "ff67ffd6ea3a852cdea44aded42be0dbd5e76ca77182bc72cc599244ac776a12",
    "witt-p2-n2-forest": "0b08ad812ff76d4d530e2f2ec21e3ea51337c2a7c882eaa513df15c089f685fd",
    "witt-p2-n2-forest-twisted": "c78f01f80fda130fd26a9ba9a0225ec106be1ee0daecb4f923f112ca9b08566e",
    "witt-p2-n2-infinity": "e72d5a8d35cf225d87aaf57a72e8263ce5d54a363953010e03eecc077a5c37f3",
    "witt-p2-n2-infinity-twisted": "c37bac52f30e7695dbc9c0e307e19bd59a0945340bb62bf47921e35018d25512",
    "witt-p2-n2-orbits": "59b9e30e3b59d2d7a0020595fc7a4ee00d7cb4e6f83734cd755750eed98daf88",
    "witt-p2-n2-orbits-twisted": "b2aff6f896ba551df4d0d480006cd6909aab336c98a853297977f1b87b06a5f3",
    "witt-p2-n2-refine": "b52e5c55ed82915a2da32f3a684f9f009e57442d2276955a9ccaa4b61ffa8c04",
    "witt-p2-n2-refine-twisted": "4fde0981ef1ef3f9c08566d69ddd0b16a29806692cf95fdfd0a40d8b40fae3d1",
    "witt-p2-n2-verify": "9add3b3bb5ff642b672bfe65ac13468704e60b27dafe3f00e0702ca87714a066",
    "witt-p2-n2-verify-twisted": "a4e8c1b25644529d667c8c7b89f7abe2cb5e0d60662fd0c5faafcffdf2fe3338",
    "witt-p2-n3-classes": "5e8daae450dcd9f9bfbcf9c0819b08151f712378ee3c04b56f1e2ece01a3ae2a",
    "witt-p2-n3-classes-twisted": "e2e9ab91fb94ef0d0bbd3eb09eefa81f080efc2b9766687575a0e5db2fa95691",
    "witt-p2-n3-forest": "cea580a668492e658363fa9c2b1243d9b153b6b53b75f3408408a65820e21226",
    "witt-p2-n3-forest-twisted": "7ac40ebeea5bc03e27444a9f91a6eda127140f192617374bb9b3b8b4b58647f3",
    "witt-p2-n3-infinity": "c304980fe25a01a68a85f400fc6ec8d4c3983ba97635bac588d2dc9c5ff307ab",
    "witt-p2-n3-infinity-twisted": "ae5279a1bc61a50a7b46b1dcf1bd9aef6df341aea5fc3daefcdf96367dff61e7",
    "witt-p2-n3-orbits": "18618a1a2e9e1d4c5e3acbb06e69c8a43a38ffaa9ced819d085ed2985127f518",
    "witt-p2-n3-orbits-twisted": "5acc6e40932b083fb43667c31f4aa9ecfb243be3de832eb0899245d7dfa62d29",
    "witt-p2-n3-refine": "ca53f70c5d8c776b7d308d71f23d594e26f0a824ded81d32187b55ea179ae134",
    "witt-p2-n3-refine-twisted": "72a469c131b676f9f060d040e578e43fbfc1a9b46d2d2c1ba6fbd20da3d5b468",
    "witt-p2-n3-verify": "f50a2ccf1b9614a4a1be8362aa98495df9200bfb1de5b9e6727a463dd82d5f05",
    "witt-p2-n3-verify-twisted": "a76d511858d23167a8cd33a8fb446865c6f0aba233ebf05cc408e3d122c3321f",
    "witt-p7-n2-max-order": "1e2abe0c6dd80bb2c77bc9c10ac7c78a422ab18cc2546cbe1dc1292554c26bcf",
    "zoo": "effa7b8253dd0820488693db8cf088bcdd3251ef2f960a4224bdca9bad9e319f",
    "zoo-max-order": "69d17ad9ea880a00b2b67fc464617a74bbe852c925cf977afc88c13e656ff0e2",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_transcript_is_unchanged(case, tmp_path):
    assert transcript_hash(case, tmp_path) == EXPECTED[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        hashes = {case: transcript_hash(case, Path(scratch)) for case in sorted(CASES)}
    sys.stdout.write("".join(f'    "{case}": "{digest}",\n' for case, digest in hashes.items()))
