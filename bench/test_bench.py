"""Tests of the benchmark's reference code and output checks.

Run from the root of a checkout:  python3 -m pytest bench/test_bench.py -q

Each check must pass on disclab's real output and reject the same output
corrupted in one place: a flipped witness sign, a count off by one, or a
wrong hash.  Where a corruption would also break an easier consistency
check (row sums, overlaps, the manifest hash), those are recomputed, so
the test shows that the harder check catches it by itself.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import disclab.cli  # noqa: E402
import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("counter,key,want", reference.KNOWN_ANSWERS)
def test_philox_known_answers(counter, key, want):
    assert reference.philox(counter, key) == want


@pytest.mark.parametrize("disorder", ["gaussian", "rademacher"])
def test_reference_entries_match_disclab(disorder):
    from disclab.instances import generate

    got = np.asarray(generate(3, 7, disorder, 2**40 + 5).entries, dtype=np.float64)
    want = reference.instance_entries(3, 7, disorder, 2**40 + 5).astype(np.float64)
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_all_values_is_brute_force():
    rng = np.random.default_rng(0)
    entries = rng.integers(-3, 4, size=(3, 7))
    signs = reference.lex_signs(np.arange(1 << 7), 7)
    assert np.array_equal(reference.all_values(entries),
                          np.abs(signs @ entries.T).max(axis=1))
    assert np.array_equal(reference.all_values(entries, first_plus=True),
                          np.abs(signs @ entries.T).max(axis=1)[: 1 << 6])


def test_gray_index_inverts_the_walk():
    n = 6
    i = np.arange(1 << (n - 1))
    g = i ^ (i >> 1)
    lex = np.zeros_like(g)
    for b in range(n - 1):                      # Gray bit b is coordinate b+2
        lex |= ((g >> b) & 1) << (n - 2 - b)
    assert np.array_equal(reference.gray_index(lex, n), i)


def test_import_times_parse():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:         5 |          5 |       scipy.special._x",
        "import time:         7 |         12 |     scipy.special",
        "import time:         3 |          3 |     numpy",
        "import time:        50 |        100 |   disclab.theory",
        "import time:         1 |        101 | disclab",
    ])
    assert tracing.import_times(log) == (101e-6, 42e-6)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every task of seed 5's rounds, run once: {label: (task, blobs)}."""
    done = {}
    for workload in workloads.WORKLOADS:
        scratch = tmp_path_factory.mktemp(workload)
        for task in workloads.build_round(workload, 5, str(scratch)):
            assert disclab.cli.main(task.argv) == 0
            done[task.label] = (task, [Path(p).read_bytes() for p in task.outputs])
    return done


def test_every_output_passes(outputs):
    for label, (task, blobs) in outputs.items():
        assert checks.check(task, blobs) == [], label


def _json(blob):
    return json.loads(blob)


def _dump(obj):
    return json.dumps(obj).encode()


def _flip(s, i):
    return s[:i] + ("-" if s[i] == "+" else "+") + s[i + 1:]


def _rehash(blobs, k, new):
    """Replace output file k of a sweep and update its manifest hash."""
    manifest = _json(blobs[0])
    manifest["tasks"][k - 1]["sha256"] = hashlib.sha256(new).hexdigest()
    out = list(blobs)
    out[0], out[k] = _dump(manifest), new
    return out


def _resign(payload, entries, sigma):
    """A payload for witness sigma whose value and row sums are consistent."""
    sums = reference.row_sums(entries, [1 if c == "+" else -1 for c in sigma])
    kind = int if entries.dtype.kind == "i" else float
    return dict(payload, sigma=sigma, argmin=sigma, value=kind(np.abs(sums).max()),
                row_sums=[kind(v) for v in sums])


def test_wrong_hash_is_rejected(outputs):
    task, blobs = outputs["exact/rademacher-8x21"]
    manifest = _json(blobs[0])
    manifest["tasks"][0]["sha256"] = "0" * 64
    assert any("SHA-256" in e for e in checks.check(task, [_dump(manifest)] + blobs[1:]))


@pytest.mark.parametrize("label", ["exact/gaussian-8x21", "exact/rademacher-8x21"])
def test_flipped_exact_witness_is_rejected(outputs, label):
    task, blobs = outputs[label]
    cfg = task.params["config"]
    payload = _json(blobs[1])
    entries = reference.instance_entries(cfg["rows"], cfg["cols"], cfg["disorder"],
                                         payload["seed"])
    bad = _resign(payload, entries, _flip(payload["argmin"], 5))
    del bad["sigma"]
    errors = checks.check(task, _rehash(blobs, 1, _dump(bad)))
    assert errors and not any("SHA-256" in e for e in errors)


def test_sbp_count_off_by_one_is_rejected(outputs):
    task, blobs = outputs["sbp-count/gaussian-4x22"]
    for delta in (1, -1):
        payload = _json(blobs[1])
        payload["count"] += delta
        assert checks.check(task, _rehash(blobs, 1, _dump(payload)))


@pytest.mark.parametrize("alg", ["greedy", "potential", "random"])
@pytest.mark.parametrize("disorder", ["gaussian", "rademacher"])
def test_flipped_online_sign_is_rejected(outputs, alg, disorder):
    from disclab.instances import generate

    task, blobs = outputs[f"online/{alg}-{disorder}"]
    payload = _json(blobs[0])
    res = payload["results"][0]
    entries = np.asarray(generate(32, 1024, disorder, res["seed"]).entries)
    # flip a late sign, so the prefix property alone cannot catch it
    bad = _resign(res, entries, _flip(res["sigma"], 1000))
    del bad["argmin"]
    payload["results"][0] = bad
    assert checks.check(task, [_dump(payload)])


def test_stability_distance_off_by_one_is_rejected(outputs):
    task, blobs = outputs["stability/greedy-16x512"]
    payload = _json(blobs[0])
    payload["d_hamming"][3] += 1
    assert checks.check(task, [_dump(payload)])


@pytest.mark.parametrize("label", ["xi-sbp/found", "xi-disc/found", "ogp/3x16"])
def test_flipped_tuple_witness_is_rejected(outputs, label):
    task, blobs = outputs[label]
    payload = _json(blobs[0])
    assert payload["found"]
    if label.startswith("ogp"):
        base, fresh = checks.ogp_instances(task.params)
        instances = [checks.interpolate(base, f, tau)
                     for f, tau in zip(fresh, payload["tau_or_delta"]["angles"])]
    else:
        instances = checks.xi_members(task.params)
    members = list(payload["members"])
    members[1] = _flip(members[1], len(members[1]) - 1)
    n = len(members[0])
    codes = [reference.sign_code(s) for s in members]
    payload["members"] = members
    payload["overlaps"] = [1.0 - 2.0 * bin(codes[0] ^ codes[1]).count("1") / n]
    payload["disc_values"] = [float(np.abs(reference.row_sums(e, checks.sign_array(s))).max())
                              for e, s in zip(instances, members)]
    assert checks.check(task, [_dump(payload)])


@pytest.mark.parametrize("label", ["xi-sbp/found", "xi-disc/found", "ogp/3x16"])
def test_missed_tuple_is_rejected(outputs, label):
    task, _ = outputs[label]
    assert checks.check(task, [_dump({"found": False})])


def test_histogram_count_off_by_one_is_rejected(outputs):
    task, blobs = outputs["histogram/4x14"]
    lines = blobs[0].decode().splitlines()
    lo, hi, count = lines[5].split(",")
    lines[5] = f"{lo},{hi},{int(count) + 1}"
    assert checks.check(task, [("\n".join(lines) + "\n").encode()])


def test_box_estimate_off_by_five_errors_is_rejected(outputs):
    task, blobs = outputs["box-bound/m3"]
    payload = _json(blobs[0])
    payload["mc_estimate"] += 5 * payload["mc_std_error"]
    payload["mc_std_error"] = (payload["mc_estimate"] * (1 - payload["mc_estimate"])
                               / task.params["samples"]) ** 0.5
    assert checks.check(task, [_dump(payload)])


def test_tracer_restores_functions_and_reports_missing(monkeypatch):
    import disclab.experiment
    import disclab.instances

    original = disclab.instances.generate
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + [("disclab.instances", "no_such_fn", "x", None)])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert disclab.experiment.generate is not original
        disclab.experiment.generate(2, 3, "gaussian", 1)
    finally:
        tracer.uninstall()
    assert disclab.experiment.generate is original
    assert disclab.instances.generate is original
    assert tracer.missing == ["disclab.instances.no_such_fn"]
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["instances.entries_per_s"] > 0
    assert metrics["philox.calls"] == 1
    assert metrics["landscape.xi.search_s"] is None
