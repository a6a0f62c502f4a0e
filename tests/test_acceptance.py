"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is pinned here; all randomness is counter-seeded, so each
criterion is a deterministic check.  Statistical criteria state their
comparison (3 standard errors unless noted) next to the assert.
"""

import math

import numpy as np
from scipy import stats

import disclab as dl
from disclab import philox
from disclab.instances import generate_batch
from oracles import naive_exact_value, naive_ogp_exists, naive_xi_exists


def check(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# 1 -------------------------------------------------------------------------

def test_criterion_01_alpha_c_identities():
    k_half = float(stats.norm.ppf(0.75))        # P[|Z| <= k] = 1/2
    k_quarter = float(stats.norm.ppf(0.625))    # P[|Z| <= k] = 1/4
    e1 = abs(dl.alpha_c(k_half) - 1.0)
    e2 = abs(dl.alpha_c(k_quarter) - 0.5)
    e3 = abs(dl.alpha_c(1.0) - 1.8157)
    check(1, e1 < 1e-12 and e2 < 1e-12 and e3 < 1e-3,
          f"alpha_c identity errors {e1:.2e}, {e2:.2e}; alpha_c(1) off by {e3:.2e}")


# 2 -------------------------------------------------------------------------

def test_criterion_02_upsilon_anchor():
    worst = 0.0
    for i in range(1, 51):
        k = 0.24 * i / 50
        val = dl.upsilon((2 * k) ** 2, 4 * k * k, k)
        ref = -k * k * (2 * math.log2(2 * math.pi) - 4)
        worst = max(worst, abs(val - ref) / abs(ref))
    check(2, worst <= 1e-10, f"worst relative error {worst:.2e} over 50 kappas")


# 3 -------------------------------------------------------------------------

def test_criterion_03_ogp_exponent_negativity():
    p = dl.find_ogp_params(1.0, 0.5)
    worst = -math.inf
    count = 0
    for log_m in range(8, 21):
        M = 2 ** log_m
        for c in np.linspace(0.5, 1.0, 10):
            n = c * M * log_m
            val = dl.psi_disc(p.m, p.beta, p.eta, p.c, n, M, 1.0).value
            worst = max(worst, val)
            count += 1
    check(3, worst < 0.0,
          f"max exponent {worst:.1f} over {count} grid points "
          f"(m*={p.m}, beta*={p.beta:.6f})")


# 4 -------------------------------------------------------------------------

def test_criterion_04_determinant_bound():
    rng = np.random.default_rng(0xD4)
    violations = 0
    for trial in range(1000):
        m = 2 + trial % 7
        beta = float(rng.uniform(0.5, 0.95))
        eta = (1.0 - beta) / (2 * m)
        vec = tuple(float(x) for x in rng.uniform(0.0, eta, m * (m - 1) // 2))
        rep = dl.covariance_analysis(dl.CovarianceSpec(m, beta, eta, vec))
        if not (rep.pd and rep.det >= rep.det_lower_bound):
            violations += 1
    check(4, violations == 0, f"{violations} violations in 1000 admissible draws")


# 5 -------------------------------------------------------------------------

def test_criterion_05_box_probability_bound():
    rng = np.random.default_rng(0xB0)
    failures = []
    for trial in range(50):
        m = 1 + trial % 4
        beta = float(rng.uniform(0.3, 0.9))
        eta_max = (1.0 - beta) / (2 * m)
        vec = [float(x) for x in rng.uniform(0.0, eta_max, m * (m - 1) // 2)]
        hw = float(rng.uniform(0.3, 1.5))
        bound = dl.gaussian_box_bound(m, beta, vec if vec else 0.0, K=hw, n=1.0)
        cov = dl.build_covariance(m, beta, vec)
        est = dl.mc_box_probability(cov, hw, 1_000_000, seed=0xB0 + trial)
        if est.estimate > bound + 3 * est.std_error:
            failures.append((trial, est.estimate, bound))
    check(5, not failures, f"{len(failures)} of 50 specs exceeded bound + 3 SE")


# 6 -------------------------------------------------------------------------

def test_criterion_06_berry_esseen_constants():
    exact_ok = True
    for M in (100, 144, 400, 2304):
        i_rad = 2.0 * math.sqrt(M) / 24.0
        exact_ok &= dl.berry_esseen_bound(i_rad, M) == 0.25
        i_bern = 2.0 * math.sqrt(0.25) * math.sqrt(M) / 24.0
        exact_ok &= dl.berry_esseen_bound(i_bern, M, p=0.5) == 0.25
        # p where sqrt(p - p^2) is inexact: one ulp of slack in the product
        for p in (0.25, 0.3):
            i_p = 2.0 * math.sqrt(p - p * p) * math.sqrt(M) / 24.0
            exact_ok &= abs(dl.berry_esseen_bound(i_p, M, p=p) - 0.25) < 1e-15

    M, trials = 100, 100_000
    t_idx = np.arange(trials, dtype=np.uint64)[:, None]
    s_idx = np.arange(M, dtype=np.uint64)[None, :]
    rng = np.random.default_rng(0xBE)
    worst = 0.0
    # rademacher summands with random fixed signs
    eps = philox.signs(77, np.arange(M, dtype=np.uint64), 0, 8)
    sums = philox.signs(78, t_idx, s_idx, 9) @ eps
    length = 2.0 * math.sqrt(M) / 24.0
    bound = dl.berry_esseen_bound(length, M)
    for _ in range(25):
        c = float(rng.uniform(-2 * math.sqrt(M), 2 * math.sqrt(M)))
        emp = float(np.mean((sums >= c - length / 2) & (sums <= c + length / 2)))
        worst = max(worst, emp - bound)
    # bernoulli summands
    p = 0.5
    sums_b = philox.bernoullis(79, p, t_idx, s_idx, 10) @ eps
    length_b = 2.0 * math.sqrt(p - p * p) * math.sqrt(M) / 24.0
    bound_b = dl.berry_esseen_bound(length_b, M, p=p)
    center_b = float(p * eps.sum())
    for _ in range(25):
        c = center_b + float(rng.uniform(-math.sqrt(M), math.sqrt(M)))
        emp = float(np.mean((sums_b >= c - length_b / 2) & (sums_b <= c + length_b / 2)))
        worst = max(worst, emp - bound_b)
    check(6, exact_ok and worst <= 0.0,
          f"bound hits 1/4 exactly: {exact_ok}; worst empirical excess {worst:.2e}")


# 7 -------------------------------------------------------------------------

def test_criterion_07_first_moment_exactness():
    n, M, kappa, seeds = 14, 4, 1.0, 2000
    counts = np.empty(seeds)
    for i in range(seeds):
        inst = dl.generate(M, n, "gaussian", philox.derive_seed(0x51, i, 0))
        counts[i] = dl.enumerate_solutions(inst, kappa).shape[0]
    mean_s = counts.mean()
    se_s = counts.std() / math.sqrt(seeds)
    want_s = 2 ** n * dl.prob_abs_z_le(kappa) ** M
    dev_s = abs(mean_s - want_s)

    k, m = 4, 2
    thr = kappa * math.sqrt(n)
    weights = 1 << np.arange(n - k - 1, -1, -1, dtype=np.uint64)
    xi = np.empty(seeds)
    for i in range(seeds):
        base = dl.generate(M, n, "gaussian", philox.derive_seed(0x52, i, 0))
        members = dl.resample_suffix(base, k, m, [philox.derive_seed(0x52, i, 1)])
        per_prefix = []
        for mem in members:
            sols = dl.enumerate_below(mem, thr)
            pref = ((sols[:, : n - k] < 0).astype(np.uint64) @ weights).astype(np.int64)
            per_prefix.append(np.bincount(pref, minlength=1 << (n - k)))
        xi[i] = float(per_prefix[0] @ per_prefix[1])
    mean_x = xi.mean()
    se_x = xi.std() / math.sqrt(seeds)
    want_x = dl.expected_xi_count(n, M, k, m, kappa)
    dev_x = abs(mean_x - want_x)
    check(7, dev_s <= 3 * se_s and dev_x <= 3 * se_x,
          f"|S|: {mean_s:.1f} vs {want_s:.1f} (3SE={3 * se_s:.1f}); "
          f"|Xi|: {mean_x:.1f} vs {want_x:.1f} (3SE={3 * se_x:.1f})")


# 8 -------------------------------------------------------------------------

def test_criterion_08_exact_solver_oracle_equivalence():
    rng = np.random.default_rng(0x08)
    bad = 0
    for trial in range(200):
        n = int(rng.integers(2, 15))
        m = int(rng.integers(1, 7))
        kind = ("gaussian", "rademacher", "bernoulli")[trial % 3]
        inst = dl.generate(m, n, kind, int(rng.integers(2 ** 62)),
                           p=0.35 if kind == "bernoulli" else None)
        got = dl.exact_discrepancy(inst).value
        want = naive_exact_value(inst.entries)
        if kind == "gaussian":
            ok = abs(got - want) <= 1e-12 * max(1.0, abs(want))
        else:
            ok = got == want
        bad += not ok
    check(8, bad == 0, f"{bad} mismatches out of 200 instances (n <= 14)")


# 9 -------------------------------------------------------------------------

def test_criterion_09_online_contract():
    n, m_rows = 40, 6
    violations = 0
    for name in ("greedy", "potential", "random"):
        alg = dl.make_algorithm(name)
        pair = 0
        for t_i in range(20):
            t = 2 + t_i * 2                      # split points 2, 4, ..., 40
            for _ in range(50):
                seed = philox.derive_seed(0x91, t, pair)
                pair += 1
                base = dl.generate(m_rows, n, "gaussian", seed)
                if t == n:
                    other = base
                else:
                    other = dl.resample_suffix(base, n - t, 2,
                                               [philox.derive_seed(0x92, t, pair)])[1]
                a = dl.run_online(alg, base, omega=7)
                b = dl.run_online(alg, other, omega=7)
                violations += not np.array_equal(a.sigma[:t], b.sigma[:t])

    stream = dl.generate(1, 10_000, "rademacher", 0x93)
    res = dl.run_online(dl.GreedyOnline(), stream)
    walk = np.cumsum(res.sigma.astype(np.int64) * stream.entries[0])
    peak = int(np.max(np.abs(walk)))
    check(9, violations == 0 and peak <= 1,
          f"{violations} prefix violations in 3000 pairs; greedy M=1 peak {peak}")


# 10 ------------------------------------------------------------------------

def test_criterion_10_online_vs_random_baseline():
    m_rows, n, seeds = 32, 1024, 200
    alg = dl.PotentialOnline()                   # lambda defaults to 1/sqrt(M)
    pot = np.empty(seeds)
    rnd = np.empty(seeds)
    for i in range(seeds):
        inst = dl.generate(m_rows, n, "rademacher", philox.derive_seed(0xA0, i, 0))
        pot[i] = dl.run_online(alg, inst).value
        sigma = dl.run_online(dl.RandomSigningOnline(), inst,
                              philox.derive_seed(0xA0, i, 1)).sigma.astype(np.int64)
        rnd[i] = np.abs(inst.entries @ sigma).max()
    med_p, med_r = float(np.median(pot)), float(np.median(rnd))
    check(10, med_p <= med_r,
          f"potential median {med_p:.1f} <= random median {med_r:.1f} "
          f"(200 paired seeds, M=32, n=1024)")


# 11 ------------------------------------------------------------------------

def test_criterion_11_jensen_amplification():
    n, m_rows, k, m, kappa, ensembles = 24, 6, 4, 3, 0.56, 10_000
    base_seeds = np.array([philox.derive_seed(31415, e, 0) for e in range(ensembles)],
                          dtype=np.uint64)
    base = generate_batch(m_rows, n, "gaussian", base_seeds)
    thr = kappa * math.sqrt(n)
    succ = []
    for i in range(m):
        if i == 0:
            ent = base
        else:
            ms = np.array([philox.derive_seed(31415, e, i) for e in range(ensembles)],
                          dtype=np.uint64)
            ent = base.copy()
            ent[:, :, n - k:] = generate_batch(m_rows, k, "gaussian", ms,
                                               col_offset=n - k)
        _, sums = dl.run_online_batch(dl.GreedyOnline(), ent, (0,) * len(ent))
        succ.append(np.abs(sums).max(axis=1) <= thr)
    succ = np.stack(succ)
    p_single = float(succ[0].mean())
    p_joint = float(succ.all(axis=0).mean())
    # conservative SE: binomial SE of the joint plus delta-method SE of single^3
    se = (math.sqrt(p_joint * (1 - p_joint) / ensembles)
          + 3 * p_single ** 2 * math.sqrt(p_single * (1 - p_single) / ensembles))
    check(11, p_joint >= p_single ** 3 - 3 * se,
          f"joint {p_joint:.4f} >= single^3 {p_single ** 3:.4f} - 3SE {3 * se:.4f} "
          f"(single {p_single:.4f}, 10^4 ensembles)")


# 12 ------------------------------------------------------------------------

def test_criterion_12_landscape_vs_naive():
    mismatches = 0
    total = 0

    xi_sbp_configs = [
        (10, 3, 2, 3, 0.70), (11, 2, 3, 2, 0.90), (12, 4, 2, 4, 1.00),
        (9, 3, 3, 3, 0.50), (12, 1, 2, 2, 0.60), (8, 4, 2, 2, 0.40),
    ]
    for i, (n, k, m, rows, kappa) in enumerate(xi_sbp_configs):
        base = dl.generate(rows, n, "gaussian", philox.derive_seed(0xC0, i, 0))
        members = dl.resample_suffix(
            base, k, m, [philox.derive_seed(0xC0, i, j + 1) for j in range(m - 1)])
        cert = dl.search_xi_sbp(members, k, kappa)
        want = naive_xi_exists(members, k, kappa * math.sqrt(n))
        mismatches += (cert is not None) != want
        total += 1

    xi_disc_configs = [
        ("rademacher", None, 10, 3, 1.0 / 24.0), ("rademacher", None, 12, 4, 1.0),
        ("rademacher", None, 9, 3, 0.8), ("bernoulli", 0.4, 10, 3, 0.5),
        ("bernoulli", 0.5, 11, 2, 1.2),
    ]
    for i, (kind, p, n, rows, cu) in enumerate(xi_disc_configs):
        base = dl.generate(rows, n, kind, philox.derive_seed(0xC1, i, 0), p=p)
        members = dl.resample_suffix(base, rows, 2, [philox.derive_seed(0xC1, i, 1)])
        cert = dl.search_xi_disc(members, rows, cu)
        want = naive_xi_exists(members, rows, cu * math.sqrt(rows))
        mismatches += (cert is not None) != want
        total += 1

    ogp_configs = [
        (8, 2, 2, 0.75, 0.25, 0.9), (7, 2, 3, 0.60, 0.30, 1.1),
        (8, 3, 2, 0.50, 0.20, 0.7), (6, 2, 2, 0.90, 0.40, 1.4),
    ]
    angles = [0.0, math.pi / 6, math.pi / 3]
    for i, (n, rows, m, beta, eta, kf) in enumerate(ogp_configs):
        base = dl.generate(rows, n, "gaussian", philox.derive_seed(0xC2, i, 0))
        fresh = [dl.generate(rows, n, "gaussian", philox.derive_seed(0xC2, i, j + 1))
                 for j in range(m)]
        K = kf * math.sqrt(n)
        cert = dl.search_ogp_tuples(base, fresh, angles, (beta - eta, beta, K, m))
        want = naive_ogp_exists(base, fresh, angles, beta - eta, beta, K, m)
        mismatches += (cert is not None) != want
        total += 1
        if cert is not None:
            taus = cert.tau_or_delta["angles"]
            insts = [dl.interpolate(base, fresh[j], taus[j]) for j in range(m)]
            mismatches += not dl.verify_certificate(cert, insts,
                                                    window=(beta - eta, beta))
    check(12, mismatches == 0,
          f"{mismatches} oracle disagreements over {total} configured searches")


# 13 ------------------------------------------------------------------------

def test_criterion_13_stable_constant_arithmetic():
    cases = [(0.4, 1.0, 2), (0.25, 3.0, 5), (0.9, 0.5, 16), (0.05, 2.0, 3)]
    ok = True
    for eta, L, m in cases:
        sc = dl.stable_constants(eta, L, m)
        ok &= sc.C == eta * eta / 1600.0
        ok &= sc.Q == 4800.0 * L * math.pi / (eta * eta)
        ref = (4.0 * m) * (sc.Q * math.log2(sc.Q))
        ok &= abs(sc.log2_log2_T - ref) <= 1e-12 * abs(ref)
    sc = dl.stable_constants(0.4, 1.0, 2)
    ok &= abs(sc.C - 0.0001) < 1e-18
    ok &= abs(dl.stable_constants(0.3, 2.0, 2).Q
              - 2 * dl.stable_constants(0.3, 1.0, 2).Q) < 1e-9
    check(13, ok, "C, Q exact; log2 log2 T matches 4 m Q log2 Q to 1e-12 relative")
