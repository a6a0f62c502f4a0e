import math

import numpy as np
import pytest

from disclab import (CapacityError, GreedyOnline, OgpWindow, ParameterError,
                     RandomSigningOnline, UnsupportedDisorderError, enumerate_below, generate,
                     interpolate, overlap_histogram, resample_suffix,
                     search_ogp_tuples, search_xi_disc, search_xi_sbp,
                     stability_probe, verify_certificate)
from disclab import discrepancy, landscape
from disclab.discrepancy import disc_value, signs_from_codes
from disclab.cli import main
from disclab.philox import derive_seed
from oracles import (all_sign_vectors, naive_ogp_exists, naive_solution_set, naive_xi_exists,
                     naive_xi_first, pairwise_overlaps)


# -- histograms ---------------------------------------------------------------

def test_histogram_identical_vectors():
    v = np.ones((2, 10), dtype=np.int8)
    h = overlap_histogram(v, bins=4)
    assert h.counts.sum() == 1 and h.counts[-1] == 1    # overlap 1, last bin


def test_histogram_antipodal_pair():
    v = np.array([[1] * 8, [-1] * 8], dtype=np.int8)
    h = overlap_histogram(v, bins=4)
    assert h.counts[0] == 1 and h.counts.sum() == 1     # overlap -1, first bin


def test_histogram_full_cube_binomial():
    n, bins = 12, 13
    codes = np.arange(2 ** n, dtype=np.uint64)
    bits = (codes[:, None] >> np.arange(n - 1, -1, -1, dtype=np.uint64)[None, :]) & np.uint64(1)
    sols = (1 - 2 * bits.astype(np.int8))
    h = overlap_histogram(sols, bins=bins)
    assert int(h.counts.sum()) == (2 ** n) * (2 ** n - 1) // 2
    # expected: distance k > 0 occurs C(n,k) 2^n / 2 times at overlap 1-2k/n
    vals = np.array([1.0 - 2.0 * k / n for k in range(1, n + 1)])
    weights = np.array([math.comb(n, k) * 2 ** n / 2 for k in range(1, n + 1)])
    want, _ = np.histogram(vals, bins=bins, range=(-1.0, 1.0), weights=weights)
    assert np.array_equal(h.counts, want.astype(np.int64))


@pytest.mark.parametrize("block_entries", [1, 37, 1 << 20])
def test_histogram_counts_match_pairwise_reference(block_entries, monkeypatch):
    monkeypatch.setattr(landscape, "_HISTOGRAM_ENTRIES", block_entries)
    rng = np.random.default_rng(block_entries)
    for _ in range(12):
        s, n, bins = int(rng.integers(2, 150)), int(rng.integers(1, 24)), int(rng.integers(1, 30))
        sols = rng.choice([-1, 1], size=(s, n)).astype(np.int8)
        h = overlap_histogram(sols, bins=bins)
        want, edges = np.histogram(pairwise_overlaps(sols), bins=bins, range=(-1.0, 1.0))
        assert np.array_equal(h.counts, want) and h.counts.dtype == want.dtype
        assert np.array_equal(h.bin_edges, edges)


def test_cli_histogram_large_solution_set(tmp_path):
    # 51,472 solutions: 1.3e9 pairs, counted without materializing them
    out = tmp_path / "hist.csv"
    assert main(["landscape", "histogram", "--rows", "4", "--cols", "18", "--seed", "3",
                 "--kappa", "1.0", "--out", str(out)]) == 0
    counts = [int(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
    assert sum(counts) == 51472 * 51471 // 2


def test_histogram_validation():
    with pytest.raises(ParameterError):
        overlap_histogram(np.ones((1, 5), dtype=np.int8), bins=3)
    with pytest.raises(ParameterError):
        overlap_histogram(np.ones((3, 5), dtype=np.int8), bins=0)


def test_overlap_equals_hamming_identity():
    rng = np.random.default_rng(2)
    sols = rng.choice([-1, 1], size=(20, 13)).astype(np.int8)
    got = pairwise_overlaps(sols)
    idx = 0
    for i in range(20):
        for j in range(i + 1, 20):
            d = int(np.count_nonzero(sols[i] != sols[j]))
            assert got[idx] == 1.0 - 2.0 * d / 13       # bitwise-identical formula
            idx += 1


# -- prefix-locked searches ---------------------------------------------------

def _ensemble(seed, rows, n, k, m, disorder="gaussian", p=None):
    base = generate(rows, n, disorder, seed, p)
    seeds = [derive_seed(seed, i, 9) for i in range(m - 1)]
    return resample_suffix(base, k, m, seeds)


def test_xi_sbp_extremes():
    members = _ensemble(5, 3, 10, 3, 2)
    huge = search_xi_sbp(members, 3, 100.0)
    assert huge is not None
    assert np.array_equal(huge.members[0], np.ones(10, dtype=np.int8))
    assert search_xi_sbp(members, 3, 1e-9) is None


def test_xi_sbp_matches_naive():
    rng = np.random.default_rng(14)
    found = 0
    for trial in range(10):
        n = int(rng.integers(6, 12))
        k = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        rows = int(rng.integers(2, 5))
        members = _ensemble(int(rng.integers(2 ** 62)), rows, n, k, m)
        kappa = float(rng.uniform(0.3, 1.1))
        cert = search_xi_sbp(members, k, kappa)
        want = naive_xi_exists(members, k, kappa * math.sqrt(n))
        assert (cert is not None) == want
        if cert is not None:
            found += 1
            assert verify_certificate(cert, members)
            for i in range(1, m):
                assert np.array_equal(cert.members[0][: n - k], cert.members[i][: n - k])
    assert found > 0


def test_xi_sbp_spec_scale_instance():
    # n=16, k=4, m=2, M=4 existence agrees with the naive oracle
    members = _ensemble(1234, 4, 16, 4, 2)
    cert = search_xi_sbp(members, 4, 1.0)
    want = naive_xi_exists(members, 4, math.sqrt(16))
    assert (cert is not None) == want


def test_xi_sbp_validation():
    members = _ensemble(5, 2, 8, 2, 2)
    with pytest.raises(CapacityError):
        search_xi_sbp(members, 2, 1.0, max_n=6)
    with pytest.raises(ParameterError):
        search_xi_sbp(members, 2, 0.0)
    with pytest.raises(UnsupportedDisorderError):
        search_xi_disc(members, 2, 1.0)
    bad = [members[0], generate(2, 8, "gaussian", 999)]
    with pytest.raises(ParameterError):
        search_xi_sbp(bad, 2, 1.0)


def test_xi_disc_parity_empty():
    # odd n makes every rademacher row sum odd, so threshold < 1 forbids all
    members = _ensemble(8, 3, 9, 3, 2, disorder="rademacher")
    assert search_xi_disc(members, 3, 1.0 / 24.0) is None


def test_xi_disc_huge_threshold():
    members = _ensemble(8, 3, 9, 3, 2, disorder="rademacher")
    cert = search_xi_disc(members, 3, 10.0)
    assert cert is not None and verify_certificate(cert, members)


def test_xi_disc_matches_naive():
    rng = np.random.default_rng(15)
    for trial in range(8):
        rows = int(rng.integers(2, 5))
        n = int(rng.integers(rows + 2, 13))
        members = _ensemble(int(rng.integers(2 ** 62)), rows, n, rows, 2,
                            disorder="rademacher")
        cu = float(rng.uniform(0.2, 1.6))
        cert = search_xi_disc(members, rows, cu)
        want = naive_xi_exists(members, rows, cu * math.sqrt(rows))
        assert (cert is not None) == want
    # spec-scale case: M=4, n=14, m=2
    members = _ensemble(271, 4, 14, 4, 2, disorder="rademacher")
    cert = search_xi_disc(members, 4, 1.0)
    want = naive_xi_exists(members, 4, 1.0 * math.sqrt(4))
    assert (cert is not None) == want
    members = _ensemble(77, 3, 10, 3, 2, disorder="bernoulli", p=0.4)
    cert = search_xi_disc(members, 3, 2.0)
    want = naive_xi_exists(members, 3, 2.0 * math.sqrt(3))
    assert (cert is not None) == want


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("disorder", ["gaussian", "rademacher", "bernoulli"])
def test_shared_prefix_search_returns_the_first_tuple_at_every_block_size(
        disorder, m, monkeypatch):
    # the budget is set so that a block holds 2^c prefixes for each c in
    # 0..n-k; thresholds sit between distinct norms of the first member
    # (gaussian) or on and between integers, and one lies below every norm
    rows = 3
    for n in (1, 2, 5, 9, 12):
        for k in range(1, n + 1):
            members = _ensemble(1000 * n + 10 * k + m, rows, n, k, m, disorder,
                                p=0.5 if disorder == "bernoulli" else None)
            work = [mem.entries for mem in members]
            dtype = discrepancy.scan_precision(np.concatenate(work), 0)[0]
            sums = all_sign_vectors(n) @ np.asarray(members[0].entries, dtype=np.float64).T
            norms = np.unique(np.abs(sums).max(axis=1))
            if disorder == "gaussian":
                picks = [0, len(norms) // 100, len(norms) // 3]
                thresholds = [(norms[i] + norms[min(i + 1, len(norms) - 1)]) / 2 for i in picks]
            else:
                thresholds = [norms[0], norms[0] + 0.5, norms[len(norms) // 3]]
            thresholds.append(norms[0] / 2)
            for threshold in thresholds:
                want = naive_xi_first(members, k, threshold)
                for c in range(n - k + 1):
                    monkeypatch.setattr(discrepancy, "_BLOCK_BYTES",
                                        rows * dtype.itemsize << (c + k))
                    assert landscape._search_shared_prefix(members, k, threshold) == want


@pytest.mark.parametrize("m", [2, 3])
def test_shared_prefix_search_decides_thresholds_at_a_norm_on_the_direct_product(m):
    # a chain of thresholds, each the value of the last hit (which must be
    # found again) and then one ulp below it (which must exclude that hit):
    # the float32 scan cannot tell these apart, the direct product can
    for seed in range(4):
        members = _ensemble(300 + seed, 3, 10, 3, m)
        threshold, hits = 10.0, 0
        while hits < 12:
            hit = landscape._search_shared_prefix(members, 3, threshold)
            if hit is None:
                break
            sigma = signs_from_codes([(hit[0] << 3) | s for s in hit[1]], 10, "lex")
            value = max(disc_value(mem, sigma[i]).value for i, mem in enumerate(members))
            assert value <= threshold
            assert landscape._search_shared_prefix(members, 3, value) == hit
            threshold, hits = np.nextafter(value, 0.0), hits + 1
        assert hits >= 3


# -- overlap-window searches --------------------------------------------------

def test_ogp_degenerate_window_identical_members():
    base = generate(2, 6, "gaussian", 1)
    fresh = [generate(2, 6, "gaussian", s) for s in (2, 3)]
    cert = search_ogp_tuples(base, fresh, [0.0], (1.0, 1.0, 100.0, 2))
    assert cert is not None
    assert np.array_equal(cert.members[0], cert.members[1])


def test_ogp_tiny_threshold_empty():
    base = generate(2, 6, "gaussian", 4)
    fresh = [generate(2, 6, "gaussian", s) for s in (5, 6)]
    assert search_ogp_tuples(base, fresh, [0.0, 0.5], (0.0, 1.0, 1e-9, 2)) is None


def test_ogp_parity_window():
    # window pinned at overlap 1 - 2/n (Hamming distance exactly 1)
    n = 7
    base = generate(2, n, "gaussian", 9)
    fresh = [generate(2, n, "gaussian", s) for s in (10, 11)]
    target = 1.0 - 2.0 / n
    cert = search_ogp_tuples(base, fresh, [0.0], (target, target, 50.0, 2))
    want = naive_ogp_exists(base, fresh, [0.0], target, target, 50.0, 2)
    assert (cert is not None) == want
    if cert is not None:
        d = int(np.count_nonzero(cert.members[0] != cert.members[1]))
        assert d == 1


def test_ogp_matches_naive_random_windows():
    rng = np.random.default_rng(16)
    found = 0
    for trial in range(8):
        n = int(rng.integers(5, 9))
        rows = int(rng.integers(2, 4))
        m = 2 if trial % 2 == 0 else 3
        base = generate(rows, n, "gaussian", int(rng.integers(2 ** 62)))
        fresh = [generate(rows, n, "gaussian", int(rng.integers(2 ** 62)))
                 for _ in range(m)]
        angles = [0.0, math.pi / 6, math.pi / 3]
        K = 0.5 * float(rng.uniform(0.8, 2.0)) * math.sqrt(n)
        beta = float(rng.uniform(0.3, 0.9))
        eta = float(rng.uniform(0.05, beta - 0.01))
        cert = search_ogp_tuples(base, fresh, angles, (beta - eta, beta, K, m))
        want = naive_ogp_exists(base, fresh, angles, beta - eta, beta, K, m)
        assert (cert is not None) == want
        if cert is not None:
            found += 1
            taus = cert.tau_or_delta["angles"]
            insts = [interpolate(base, fresh[i], taus[i]) for i in range(m)]
            assert verify_certificate(cert, insts, window=(beta - eta, beta))
    assert found > 0


def test_ogp_window_type_and_validation():
    with pytest.raises(ParameterError):
        OgpWindow(beta=1.2, eta=0.1, bound=1.0, m=2)
    with pytest.raises(ParameterError):
        OgpWindow(beta=0.5, eta=0.6, bound=1.0, m=2)
    with pytest.raises(ParameterError):
        OgpWindow(beta=0.5, eta=0.2, bound=1.0, m=1)
    w = OgpWindow(beta=0.5, eta=0.2, bound=3.0, m=2)
    assert w.interval == (0.3, 0.5)
    base = generate(2, 6, "gaussian", 1)
    fresh = [generate(2, 6, "gaussian", s) for s in (2, 3)]
    with pytest.raises(ParameterError):
        search_ogp_tuples(base, fresh, [], w)
    with pytest.raises(CapacityError):
        search_ogp_tuples(generate(2, 20, "gaussian", 1),
                          [generate(2, 20, "gaussian", s) for s in (2, 3)],
                          [0.0], w)


@pytest.mark.parametrize("x", [math.inf, math.nan, 0.0, -2.0])
def test_tuple_searches_refuse_a_threshold_outside_zero_to_infinity(x):
    # an infinite threshold used to give a certificate with "threshold": Infinity
    gauss = resample_suffix(generate(2, 8, "gaussian", 1), 2, 2, [5])
    rad = resample_suffix(generate(2, 8, "rademacher", 1), 2, 2, [5])
    base = generate(2, 6, "gaussian", 1)
    fresh = [generate(2, 6, "gaussian", s) for s in (2, 3)]
    with pytest.raises(ParameterError, match="kappa must be positive and finite"):
        search_xi_sbp(gauss, 2, x)
    with pytest.raises(ParameterError, match="c_u must be positive and finite"):
        search_xi_disc(rad, 2, x)
    with pytest.raises(ParameterError, match="bound must be positive and finite"):
        OgpWindow(beta=0.5, eta=0.2, bound=x, m=2)
    with pytest.raises(ParameterError, match="threshold must be positive and finite"):
        search_ogp_tuples(base, fresh, [0.0], (0.0, 1.0, x, 2))


# -- stability probe ----------------------------------------------------------

def test_stability_deterministic_identical_inputs():
    rep = stability_probe(GreedyOnline(), 1.0, 20, 32, 4, threshold=10.0, seed=1)
    assert rep.d_hamming.max() == 0
    assert rep.quantiles["q100"] == 0.0
    assert rep.fit_L == 0.0


def test_stability_random_signing_independent():
    rep = stability_probe(RandomSigningOnline(), 0.0, 1000, 64, 3,
                          threshold=1e9, seed=2)
    mean = float(rep.d_hamming.mean())
    se = float(rep.d_hamming.std()) / math.sqrt(rep.trials)
    assert abs(mean - 32.0) <= 3 * se
    assert rep.success_rate == 1.0


def test_stability_greedy_report_structure():
    rep = stability_probe(GreedyOnline(), math.cos(math.pi / 200), 30, 512, 16,
                          threshold=3.0 * math.sqrt(16), seed=3)
    q = [rep.quantiles[k] for k in ("q000", "q025", "q050", "q075", "q100")]
    assert all(b >= a for a, b in zip(q, q[1:]))
    assert rep.frobenius.min() > 0
    assert 0.0 <= rep.success_rate <= 1.0


def test_stability_validation():
    with pytest.raises(ParameterError):
        stability_probe(GreedyOnline(), 1.5, 5, 8, 2, threshold=1.0)
    with pytest.raises(ParameterError):
        stability_probe(GreedyOnline(), 0.5, 0, 8, 2, threshold=1.0)
    for threshold in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="threshold must be finite"):
            stability_probe(GreedyOnline(), 0.5, 3, 8, 2, threshold=threshold)


def test_stability_probe_refuses_a_float_seed():
    # derive_seed used to truncate it, so seed=1.7 ran as seed=1
    with pytest.raises(ParameterError, match="seeds must be integers"):
        stability_probe(GreedyOnline(), 0.9, 3, 20, 2, 3.0, seed=1.7)


def test_integer_scans_decide_no_candidate_twice(monkeypatch):
    # an integer norm is compared exactly, so no candidate goes to the
    # direct product, at an integer threshold or between two integers
    def refuse(*args, **kwargs):
        raise AssertionError("an integer scan re-decided a candidate")

    monkeypatch.setattr(discrepancy, "_direct_value", refuse)
    monkeypatch.setattr(landscape, "_direct_value", refuse)
    inst = generate(4, 12, "rademacher", 23)
    for t in (2, 2.5):
        want = naive_solution_set(inst.entries, t)
        assert want and {tuple(int(v) for v in r) for r in enumerate_below(inst, t)} == want
    members = _ensemble(31, 3, 10, 3, 2, disorder="rademacher")
    cert = search_xi_disc(members, 3, 2.0)
    assert cert is not None and verify_certificate(cert, members)
