"""Golden SHA-256 pins of seeded CLI outputs whose bytes must never drift.

The first fourteen cases are integer-disorder exact sweeps, solution
counts or lists, and tuple-search certificates: outputs that are decided
by exact comparisons and therefore stay byte-identical across changes to
the cube-scan kernel.  Those pins were recorded before the row-major scan
kernel replaced the candidate-major one.

The ``online-*`` and ``stability-*`` cases pin the seeded sign vectors and
reports of all three online algorithms on both disorders, and the
stability probe at 8x256 with 37 trials, which spans more than one chunk
of the probe's batch and ends in a ragged one.  They were recorded before
the online step loop was batched.

The remaining cases cover every other CLI output: the experiment
``online`` kind with and without ``kappa``, a manifest whose one task
errors, ``disc`` on gaussian, ``sbp --sigma``, ``gen`` with both bodies,
the histogram CSV and every ``theory`` topic.  None of them reaches scipy
quadrature.  They were recorded before the CLI and the sweeps shared one
task per subcommand and before results were serialized by one walker.

The ``exact-gaussian-*``, ``sbp-count-gaussian-4x22`` and ``xi-sbp-4x19-*``
cases pin gaussian scans at the benchmark's shapes: exact minima at 8x21
and 8x22, a solution count at 4x22 with kappa 0.25, and shared-prefix
searches at 4x19 that find a certificate (kappa 1) or exhaust the space
(kappa 0.01).  They were recorded while the cube scan still ran in
float64 and int64, before it moved to the narrowest exact scan dtype.

The ``experiment-*-max-n`` and ``experiment-online-defaults`` /
``-every-key`` cases pin the sweep configs no other case covers: ``exact``
and ``sbp-count`` with ``max_n``, an ``online`` sweep that leaves ``alg``
and ``disorder`` to their defaults, and one that sets every key an
``online`` sweep reads, in manifest order.  They were recorded before the
sweep config became one table of keys per kind.
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

for _alg in ("greedy", "potential", "random"):
    for _disorder in ("gaussian", "rademacher"):
        CASES[f"online-{_alg}-{_disorder}"] = (
            "cli", ["online", "--alg", _alg, "--rows", "32", "--cols", "1024",
                    "--disorder", _disorder, "--seeds", "0..3"])
    for _rho in ("0.999", "0.5"):
        CASES[f"stability-{_alg}-{_rho}"] = (
            "cli", ["landscape", "stability", "--alg", _alg, "--rho", _rho, "--rows", "8",
                    "--cols", "256", "--trials", "37", "--threshold", "4.0", "--seed", "4"])

CASES.update({
    "experiment-online-potential": (
        "experiment", {"kind": "online", "alg": "potential", "lam": 0.5, "rows": 8,
                       "cols": 64, "disorder": "rademacher", "seeds": "0..2"}),
    "experiment-online-kappa": (
        "experiment", {"kind": "online", "alg": "greedy", "rows": 6, "cols": 40,
                       "disorder": "gaussian", "kappa": 0.6, "seeds": "0..3"}),
    "experiment-exact-error": (
        "experiment", {"kind": "exact", "rows": 2, "cols": 40, "disorder": "gaussian",
                       "seeds": [1]}),
    "disc-gaussian-5x14": (
        "cli", ["disc", "--rows", "5", "--cols", "14", "--seed", "3"]),
    "sbp-sigma": (
        "cli", ["sbp", "--rows", "3", "--cols", "8", "--seed", "2", "--kappa", "1.0",
                "--sigma", "+-+--++-"]),
    "gen-csv": (
        "cli", ["gen", "--rows", "3", "--cols", "7", "--disorder", "bernoulli",
                "--p", "0.3", "--seed", "4", "--body", "csv"]),
    "gen-raw": (
        "cli", ["gen", "--rows", "3", "--cols", "7", "--seed", "4", "--body", "raw"]),
    "histogram-4x12": (
        "cli", ["landscape", "histogram", "--rows", "4", "--cols", "12", "--seed", "3",
                "--kappa", "1.0", "--bins", "9"]),
    "theory-alpha-c": ("cli", ["theory", "alpha-c", "--kappa", "0.5"]),
    "theory-psi-sbp": (
        "cli", ["theory", "psi-sbp", "--delta", "0.04", "--m", "100", "--alpha", "0.04",
                "--kappa", "0.1"]),
    "theory-ogp-params": ("cli", ["theory", "ogp-params", "--C1", "1", "--c2", "0.5"]),
    "theory-cov-eta-vec": (
        "cli", ["theory", "cov", "--m", "3", "--beta", "0.9", "--eta", "0.02",
                "--eta-vec", "0.01,0.02,0"]),
    "theory-box-bound-mc": (
        "cli", ["theory", "box-bound", "--m", "3", "--beta", "0.8", "--eta", "0.1",
                "--K", "1", "--n", "4", "--samples", "20000", "--seed", "7"]),
    "theory-be-bound-p": (
        "cli", ["theory", "be-bound", "--length", "1.0", "--rows", "144", "--p", "0.3"]),
    "theory-expected-count-prefix": (
        "cli", ["theory", "expected-count", "--n", "12", "--rows", "3", "--m", "2",
                "--k", "12", "--kappa", "1.0"]),
    "theory-expected-count-equidistant": (
        "cli", ["theory", "expected-count", "--n", "12", "--rows", "3", "--m", "3",
                "--hamming-delta", "6", "--K", "2.0"]),
    "theory-stable-constants": (
        "cli", ["theory", "stable-constants", "--eta", "0.4", "--L", "1", "--m", "2"]),
})
CASES.update({
    "exact-gaussian-8x21": (
        "experiment", {"kind": "exact", "rows": 8, "cols": 21, "disorder": "gaussian",
                       "seeds": [31, 32]}),
    "exact-gaussian-8x22": (
        "experiment", {"kind": "exact", "rows": 8, "cols": 22, "disorder": "gaussian",
                       "seeds": [41, 42]}),
    "sbp-count-gaussian-4x22": (
        "experiment", {"kind": "sbp-count", "rows": 4, "cols": 22, "disorder": "gaussian",
                       "kappa": 0.25, "seeds": [51, 52]}),
    "xi-sbp-4x19-found": (
        "cli", ["landscape", "xi-sbp", "--rows", "4", "--cols", "19", "--seed", "61",
                "--k", "4", "--m", "2", "--kappa", "1.0"]),
    "xi-sbp-4x19-exhaust": (
        "cli", ["landscape", "xi-sbp", "--rows", "4", "--cols", "19", "--seed", "62",
                "--k", "4", "--m", "2", "--kappa", "0.01"]),
})
CASES.update({
    "experiment-exact-max-n": (
        "experiment", {"kind": "exact", "rows": 5, "cols": 16, "disorder": "rademacher",
                       "max_n": 16, "seeds": [3, 4]}),
    "experiment-sbp-count-max-n": (
        "experiment", {"kind": "sbp-count", "rows": 3, "cols": 12, "kappa": 0.5,
                       "max_n": 12, "seeds": "0..1"}),
    "experiment-online-defaults": (
        "experiment", {"kind": "online", "rows": 4, "cols": 32, "seeds": "0..1"}),
    "experiment-online-every-key": (
        "experiment", {"kind": "online", "rows": 4, "cols": 32, "disorder": "bernoulli",
                       "p": 0.3, "alg": "potential", "lam": 0.7, "kappa": 1.0,
                       "seeds": [5, 6]}),
})
for _factor in ("m", "m-1"):
    CASES[f"theory-psi-disc-{_factor}"] = (
        "cli", ["theory", "psi-disc", "--m", "16", "--beta", "0.9583", "--eta", "0.0013",
                "--c", "0.0625", "--n", "1024", "--rows", "256", "--K", "1",
                "--entropy-factor", _factor])

GOLDEN = {
    "disc-gaussian-5x14":
        "9f61bd16e3ca2b5108241bc0fa2992fb7f716cc8bb5d6e9a3df632c4aff1c666",
    "disc-rademacher-7x16":
        "566a636fb4d1ebad1b5cabb705ecf9ef3ff1deaa377ea316a05db2b02dddf72d",
    "exact-bernoulli-4x16":
        "3a6ca2ce4bfac953630c46334d57400c2c263eb5add968a5825faf9b1ac3f031",
    "exact-bernoulli-5x14":
        "2b24f424241344493cce8d7f82f4181613d8798e6c3420a920dfab8f541eb31c",
    "exact-gaussian-8x21":
        "86a4a8a0aef1cd6bd48ac7bc47fd7098acdaaba6d8f3b7c020117ff899e3d31f",
    "exact-gaussian-8x22":
        "89c9374f46db13d61a3215bffbfa27c997fbac91cad19a37e68f70b2e98ba691",
    "exact-rademacher-6x15":
        "367bc35ce1c9530631324ec25a542bb7d343bd1f120acfde21cac77fd263c2df",
    "exact-rademacher-8x17":
        "5b065652780746daf5803699bd98d77b5bc8b47b08b45bd510fcd7619c03a8da",
    "experiment-exact-error":
        "ab8652a7898f936fa08c4395ca0cebbb77b0adc730d84fa0264f5ab07911fa33",
    "experiment-exact-max-n":
        "46fa59ecd675ecaf202b06aee33bd357e93cf4a47bc06e51ba4b237de07460be",
    "experiment-online-defaults":
        "bb851057cbd223ad8d46116dea536824055331e1939052ecd07eb994db0d19f2",
    "experiment-online-every-key":
        "c73c36563569ec05e6d324d295e8a3441d9a1416ef90c8d7bb4ea80e04e34064",
    "experiment-online-kappa":
        "fc05473ee90aa6979bbbd4b42af3f74811229f677339b4245496105e07a6d7ea",
    "experiment-online-potential":
        "1d7d9b4b99e3a827de50ca1e33bec917eaa3d5f1090443669a61ebcbd659c8b7",
    "experiment-sbp-count-max-n":
        "eedcfd2248ec3f62681bb373d8f18f454f5462e000fbdfb87e6ac6c448a81949",
    "gen-csv":
        "dc611547a40a8273fb3babf5a1d94b32688e818ebf2ea58a233bcdadfda7187c",
    "gen-raw":
        "38eccce6feef4f8581d21c619decee08e808da5292bade76e64a60b55d0362dc",
    "histogram-4x12":
        "f8d3b4c436e358c3b7470b8479acdc0959fc01359923e621b29bebaabab64342",
    "ogp-pair":
        "7b9cb6c2fd4d0adfe87ab1653809cc6bf527ac5778cf88de582a2cfbbdff6544",
    "ogp-triple":
        "e8ec30bda9322c1950e3ed414880f2199afa7396658ae6161e76539a990c18fd",
    "online-greedy-gaussian":
        "639907a51bf3511e701fd5b3b4fd4ecf1160fbfb1960ddcfc66a92d68be386fc",
    "online-greedy-rademacher":
        "c6e6bac82b6299742ae6b3a5dd9fe5a03fd3b28d1e57fecd24eeed3fb199e4f1",
    "online-potential-gaussian":
        "e5c254bad3e96ce950cde0ab7085a8b69c4054eefd09f3c98d60b95abd5b173b",
    "online-potential-rademacher":
        "d7a1a79647bc5459a2fc618a94fc79a57bce204bfbecd8f5bccc0bfd0efb998a",
    "online-random-gaussian":
        "36cbce65202a2bc4e16f117a670ab8f6471b60316160fb34e799af79adc1263d",
    "online-random-rademacher":
        "0bb59ec70c5ee8c29e0a81361f6281faec16b5677fa4708b22d744ea5fd7c16b",
    "sbp-count-4x16":
        "50c912a8e83171d575bba572ae50b4e444f37f885c4a0c2e021f63b6fba517d2",
    "sbp-count-gaussian-4x22":
        "565cf75e457c511ffddc3993cac5c908e82add4baf859d5529e5ac98b08c104e",
    "sbp-list-3x12":
        "604f1e926f4d2947887824d3ed5760df69863f5608feb9a5fa65ffa2b326ff65",
    "sbp-sigma":
        "a886f8b9f244d90110e5d374d19005db37312fa5d4ae9036631d8f35b7bfdbc0",
    "stability-greedy-0.5":
        "af6e5f6a022c2908df47f836e65396ba4770e1dec0b96e378bbb92b54efefeae",
    "stability-greedy-0.999":
        "5ac06e200b1970fa2ca60f5158b17ca24c1a561cd178ecbda686aca79b854f77",
    "stability-potential-0.5":
        "c5a088a9f187ee46ef74c308d9d3d36b9bed460b84546d0992357e23a85e19d6",
    "stability-potential-0.999":
        "5605698b3130bba6c47f9bfd84c382e8b1a62292c1c7dc452a06dab2db1ebe7b",
    "stability-random-0.5":
        "233ac390ab98298dcd0e6f711fe2e8ec5a44ec25614121527402d50cb8b3d225",
    "stability-random-0.999":
        "71975fd871798dcce219565e9d14af276e6801d67b93b816842a20dd3d990402",
    "theory-alpha-c":
        "71ef63bbd80c2d3daf008a4a577a3f1f9065db069759696515db0a9ab9ca8a44",
    "theory-be-bound-p":
        "cd02779ff43e17633e17c67adb6de97a6a43b6e417d61e6bf37c17c55dfc16f4",
    "theory-box-bound-mc":
        "b9c50cd90dadfbc2a86cce59dbcc483a475001570a5ae773b6b70812d56944d0",
    "theory-cov-eta-vec":
        "8695cb3532b0103538e0e72e65caf5c8efd67614308fd5096612a5820ca695d1",
    "theory-expected-count-equidistant":
        "dcec5a1bcbd16ba624de8f14a6d67d54fc09c01b33183820b5390fd307a0e198",
    "theory-expected-count-prefix":
        "0393ae302472ca085d96915bede4dd51a2ccec2c50996545610266edde393b3f",
    "theory-ogp-params":
        "d12ad537721f6354609ed54b280279bbf66d4fe43d8dc76f1d2bdac7b67c5881",
    "theory-psi-disc-m":
        "7faca5e6be15e0808ebff116d2dfc6f8d88b7119858e5931f9e762e147c25a3c",
    "theory-psi-disc-m-1":
        "4c0f8e7b6588690709b618cbf704d082b45ecc773a60ed33a6cdf04b1bd4527b",
    "theory-psi-sbp":
        "3661f61efd6c9e9dbe8387dd5f6b2a6bf095658ff2614813010cce33df55c6c1",
    "theory-stable-constants":
        "2a42a8dce160beda3c18ec96ff51bc99179f6bffe2d9a28cfcb7929445ae6ed6",
    "xi-disc-exhaust":
        "4ffa708954cf07d7662ecb0336febf6e62bc3c99754167cb4c7a27e11d3d45a4",
    "xi-disc-found":
        "f90741120517d25c0f69ccdb5cc4c9895d238e017351d480d0962b20f9697353",
    "xi-disc-m3":
        "9ebbb241f95b8a470cdb1360b8deaa61f300f216bf545cb0466f5dfb1ebea86e",
    "xi-sbp-4x19-exhaust":
        "4ffa708954cf07d7662ecb0336febf6e62bc3c99754167cb4c7a27e11d3d45a4",
    "xi-sbp-4x19-found":
        "d7442af68fe78da49c1068d2747c3f323ccbf9dc5c66d1ddb32434a61a9222db",
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
