"""Golden SHA-256 pins of seeded CLI outputs whose bytes must never drift.

Every case is an integer-disorder exact sweep, a solution count or list,
or a tuple-search certificate: outputs that are decided by exact
comparisons and therefore stay byte-identical across changes to the
cube-scan kernel.  The pins were recorded before the row-major scan
kernel replaced the candidate-major one.
"""

import hashlib
import json
import os

import pytest

from disclab.cli import main


def _experiment(tmp_path, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return ["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]


CASES = {
    "exact-rademacher-6x15": (
        "experiment", {"kind": "exact", "rows": 6, "cols": 15, "disorder": "rademacher",
                       "seeds": "0..3"}),
    "exact-rademacher-8x17": (
        "experiment", {"kind": "exact", "rows": 8, "cols": 17, "disorder": "rademacher",
                       "seeds": [11, 12]}),
    "exact-bernoulli-5x14": (
        "experiment", {"kind": "exact", "rows": 5, "cols": 14, "disorder": "bernoulli",
                       "p": 0.3, "seeds": "0..2"}),
    "exact-bernoulli-4x16": (
        "experiment", {"kind": "exact", "rows": 4, "cols": 16, "disorder": "bernoulli",
                       "p": 0.5, "seeds": [7, 8]}),
    "sbp-count-4x16": (
        "experiment", {"kind": "sbp-count", "rows": 4, "cols": 16, "disorder": "gaussian",
                       "kappa": 0.5, "seeds": "0..3"}),
    "sbp-list-3x12": (
        "cli", ["sbp", "--rows", "3", "--cols", "12", "--seed", "5", "--kappa", "0.6",
                "--list"]),
    "disc-rademacher-7x16": (
        "cli", ["disc", "--rows", "7", "--cols", "16", "--disorder", "rademacher",
                "--seed", "21"]),
    "xi-disc-found": (
        "cli", ["landscape", "xi-disc", "--rows", "4", "--cols", "15", "--disorder",
                "rademacher", "--seed", "3", "--k", "4", "--m", "2", "--cu", "1.0"]),
    "xi-disc-exhaust": (
        "cli", ["landscape", "xi-disc", "--rows", "4", "--cols", "13", "--disorder",
                "rademacher", "--seed", "4", "--k", "4", "--m", "3",
                "--cu", repr(1.0 / 24.0)]),
    "xi-disc-m3": (
        "cli", ["landscape", "xi-disc", "--rows", "3", "--cols", "14", "--disorder",
                "rademacher", "--seed", "9", "--k", "5", "--m", "3", "--cu", "1.2"]),
    "xi-sbp-found": (
        "cli", ["landscape", "xi-sbp", "--rows", "4", "--cols", "15", "--seed", "6",
                "--k", "4", "--m", "2", "--kappa", "1.0"]),
    "xi-sbp-tight": (
        "cli", ["landscape", "xi-sbp", "--rows", "3", "--cols", "14", "--seed", "8",
                "--k", "6", "--m", "3", "--kappa", "0.3"]),
    "ogp-pair": (
        "cli", ["landscape", "ogp", "--rows", "3", "--cols", "12", "--seed", "2",
                "--m", "2", "--beta", "0.75", "--eta", "0.25", "--K", "1.0",
                "--grid", "4"]),
    "ogp-triple": (
        "cli", ["landscape", "ogp", "--rows", "2", "--cols", "10", "--seed", "5",
                "--m", "3", "--beta", "0.6", "--eta", "0.4", "--K", "1.0",
                "--grid", "3"]),
}

GOLDEN = {
    "disc-rademacher-7x16":
        "566a636fb4d1ebad1b5cabb705ecf9ef3ff1deaa377ea316a05db2b02dddf72d",
    "exact-bernoulli-4x16":
        "3a6ca2ce4bfac953630c46334d57400c2c263eb5add968a5825faf9b1ac3f031",
    "exact-bernoulli-5x14":
        "2b24f424241344493cce8d7f82f4181613d8798e6c3420a920dfab8f541eb31c",
    "exact-rademacher-6x15":
        "367bc35ce1c9530631324ec25a542bb7d343bd1f120acfde21cac77fd263c2df",
    "exact-rademacher-8x17":
        "5b065652780746daf5803699bd98d77b5bc8b47b08b45bd510fcd7619c03a8da",
    "ogp-pair":
        "7b9cb6c2fd4d0adfe87ab1653809cc6bf527ac5778cf88de582a2cfbbdff6544",
    "ogp-triple":
        "e8ec30bda9322c1950e3ed414880f2199afa7396658ae6161e76539a990c18fd",
    "sbp-count-4x16":
        "50c912a8e83171d575bba572ae50b4e444f37f885c4a0c2e021f63b6fba517d2",
    "sbp-list-3x12":
        "604f1e926f4d2947887824d3ed5760df69863f5608feb9a5fa65ffa2b326ff65",
    "xi-disc-exhaust":
        "4ffa708954cf07d7662ecb0336febf6e62bc3c99754167cb4c7a27e11d3d45a4",
    "xi-disc-found":
        "f90741120517d25c0f69ccdb5cc4c9895d238e017351d480d0962b20f9697353",
    "xi-disc-m3":
        "9ebbb241f95b8a470cdb1360b8deaa61f300f216bf545cb0466f5dfb1ebea86e",
    "xi-sbp-found":
        "0a46ed2f9df1bcb3394e32bb96ecf4970a391aa398a98b0ab4db66a7536e664b",
    "xi-sbp-tight":
        "8474f0c62ec1ced8478b806032f0136fc53c008f845ba8b751f9b5bd762fd7b3",
}


def _digest(root) -> str:
    h = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name == "config.json":
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output_bytes(case, tmp_path):
    how, spec = CASES[case]
    if how == "experiment":
        argv = _experiment(tmp_path, spec)
    else:
        argv = spec + ["--out", str(tmp_path / "out.json")]
    assert main(argv) == 0
    assert _digest(tmp_path) == GOLDEN[case]
