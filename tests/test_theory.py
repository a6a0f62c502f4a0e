import math

import numpy as np
import pytest
from scipy import stats

from disclab import philox, theory
from disclab.theory import correlate
from disclab import (CovarianceSpec, ParameterError, alpha_c, berry_esseen_bound,
                     binary_entropy, box_probability_quadrature, build_covariance,
                     covariance_analysis, equicorrelated_box_probability,
                     expected_tuple_count_general, expected_xi_count,
                     find_ogp_params, gaussian_box_bound, mc_box_probability,
                     prob_abs_z_le, psi_disc, psi_sbp, stable_constants, upsilon)
from oracles import full_draw_box_probability


# -- critical density ---------------------------------------------------------

def test_alpha_c_half_and_quarter():
    assert abs(alpha_c(stats.norm.ppf(0.75)) - 1.0) < 1e-12
    assert abs(alpha_c(stats.norm.ppf(0.625)) - 0.5) < 1e-12


def test_alpha_c_at_one():
    assert abs(prob_abs_z_le(1.0) - 0.682689) < 1e-6
    assert abs(alpha_c(1.0) - 1.8157) < 1e-3


def test_alpha_c_strictly_increasing():
    grid = np.linspace(0.05, 4.0, 100)
    vals = [alpha_c(float(k)) for k in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_alpha_c_validation():
    with pytest.raises(ParameterError):
        alpha_c(0.0)


# -- binary entropy -----------------------------------------------------------

def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.11) - 0.49998) < 1e-4
    assert binary_entropy(0.3) == binary_entropy(0.7)


def test_binary_entropy_validation():
    with pytest.raises(ParameterError):
        binary_entropy(-0.1)
    with pytest.raises(ParameterError):
        binary_entropy(1.1)


# -- prefix-locked tuple exponent --------------------------------------------

def test_psi_sbp_m1_collapse():
    d, a, k = 0.04, 0.6, 0.12
    r = psi_sbp(d, 1, a, k)
    want = 1 + d - (a / 2) * math.log2(2 * math.pi) + a * math.log2(2 * k)
    assert abs(r.value - want) < 1e-12
    assert abs(math.fsum(r.terms.values()) - r.value) == 0.0


def test_psi_sbp_negative_at_large_m():
    k = 0.1
    r = psi_sbp((2 * k) ** 2, 100, 4 * k * k, k)
    assert r.value < 0 and r.verdict == "negative"


def test_psi_sbp_validation():
    with pytest.raises(ParameterError):
        psi_sbp(0.6, 2, 1.0, 0.1)
    with pytest.raises(ParameterError):
        psi_sbp(0.0, 2, 1.0, 0.1)
    with pytest.raises(ParameterError):
        psi_sbp(0.1, 0, 1.0, 0.1)


def test_upsilon_two_term_reduction():
    # at delta = (2 kappa)^2 the box and delta log terms cancel
    for k, a in ((0.1, 0.3), (0.05, 1.0), (0.2, 0.02)):
        d = (2 * k) ** 2
        full = upsilon(d, a, k)
        reduced = d - (a / 2) * math.log2(2 * math.pi)
        assert abs(full - reduced) <= 1e-12 * max(1e-6, abs(reduced))


def test_upsilon_cancellation_and_anchor():
    for i in range(1, 51):
        k = 0.24 * i / 50
        u = upsilon((2 * k) ** 2, 4 * k * k, k)
        ref = -k * k * (2 * math.log2(2 * math.pi) - 4)
        assert abs(u - ref) <= 1e-10 * abs(ref)
    assert abs(upsilon(0.04, 0.04, 0.1) - (-0.013029)) <= 1e-6


# -- overlap-window tuple exponent and parameters -----------------------------

def test_psi_disc_zeroed_terms():
    beta, eta, n, m, M = 0.8, 0.1, 100.0, 3, 5
    K = math.sqrt(math.pi * (1 - beta) / 4)      # makes the box term vanish
    r = psi_disc(m, beta, eta, 0.0, n, M, K)
    want = n + m * n * binary_entropy((1 - beta + eta) / 2) - (M * m / 2) * math.log2(n)
    assert abs(r.value - want) < 1e-9


def test_psi_disc_monotone_in_c_and_K():
    base = psi_disc(4, 0.7, 0.05, 0.1, 500, 16, 1.0).value
    assert psi_disc(4, 0.7, 0.05, 0.2, 500, 16, 1.0).value > base
    assert psi_disc(4, 0.7, 0.05, 0.1, 500, 16, 2.0).value > base


def test_psi_disc_entropy_factor_variants():
    a = psi_disc(4, 0.7, 0.05, 0.1, 500, 16, 1.0, entropy_factor="m")
    b = psi_disc(4, 0.7, 0.05, 0.1, 500, 16, 1.0, entropy_factor="m-1")
    gap = 500 * binary_entropy((1 - 0.7 + 0.05) / 2)
    assert abs((a.value - b.value) - gap) < 1e-9
    with pytest.raises(ParameterError):
        psi_disc(4, 0.7, 0.05, 0.1, 500, 16, 1.0, entropy_factor="mm")


def test_find_ogp_params_anchors():
    p = find_ogp_params(1.0, 0.5)
    assert p.m == 16
    assert abs(binary_entropy(1.0 - p.beta) - 0.25) < 1e-11
    assert abs((1.0 - p.beta) - 0.0415) < 1e-3
    assert p.c == 1.0 / 16.0
    assert p.eta == (1.0 - p.beta) / (2 * p.m)
    assert p.eta < (1.0 - p.beta) / p.m          # keeps the covariance PD
    assert find_ogp_params(0.01, 0.001).m == 2
    with pytest.raises(ParameterError):
        find_ogp_params(0.5, 0.5)
    # 16 C1 used to overflow inside math.ceil, an OverflowError
    with pytest.raises(ParameterError, match="16 C1 overflows float64"):
        find_ogp_params(1e308, 0.5)


def test_psi_disc_validation():
    for eta, beta in ((0.5, 0.5), (0.6, 0.5)):
        with pytest.raises(ParameterError, match="need 0 < eta < beta < 1"):
            psi_disc(4, beta, eta, 0.1, 500, 16, 1.0)
    with pytest.raises(ParameterError, match="tuple size m must be >= 2, got 1"):
        psi_disc(1, 0.7, 0.05, 0.1, 500, 16, 1.0)


def test_psi_disc_negative_on_construction_grid():
    p = find_ogp_params(1.0, 0.5)
    for log_m in range(8, 21):
        M = 2 ** log_m
        for c in np.linspace(0.5, 1.0, 10):
            n = c * M * log_m
            for factor in ("m", "m-1"):
                r = psi_disc(p.m, p.beta, p.eta, p.c, n, M, 1.0, entropy_factor=factor)
                assert r.value < 0, (M, c, factor)


# -- covariance analysis ------------------------------------------------------

def test_covariance_two_by_two():
    r = covariance_analysis(CovarianceSpec(2, 0.6, 0.0))
    assert r.pd and abs(r.det - (1 - 0.36)) < 1e-12


def test_covariance_rank_one_determinant():
    for m in range(2, 9):
        beta = 0.7
        r = covariance_analysis(CovarianceSpec(m, beta, 0.0))
        want = (1 - beta) ** (m - 1) * (1 - beta + beta * m)
        assert abs(r.det - want) < 1e-9 * want


def test_covariance_random_admissible_bound():
    rng = np.random.default_rng(19)
    for trial in range(100):
        m = int(rng.integers(2, 9))
        beta = float(rng.uniform(0.5, 0.95))
        eta = (1 - beta) / (2 * m)
        vec = tuple(float(x) for x in rng.uniform(0, eta, m * (m - 1) // 2))
        rep = covariance_analysis(CovarianceSpec(m, beta, eta, vec))
        assert rep.pd
        assert rep.det >= rep.det_lower_bound
        assert rep.det_lower_bound == ((1 - beta) / 2) ** m


def test_covariance_spec_validation():
    with pytest.raises(ParameterError):
        CovarianceSpec(2, 1.5, 0.0)
    with pytest.raises(ParameterError):
        CovarianceSpec(2, 0.5, 0.1, (0.2,))
    with pytest.raises(ParameterError):
        CovarianceSpec(3, 0.5, 0.1, (0.05,))
    with pytest.raises(ParameterError, match="eta must be nonnegative"):
        CovarianceSpec(2, 0.5, -0.1)


# -- box bounds and probabilities ---------------------------------------------

def test_gaussian_box_bound_m1():
    b = gaussian_box_bound(1, 0.5, 0.0, K=2.0, n=16.0)
    assert abs(b - (2 * math.pi) ** -0.5 * 1.0) < 1e-15


def test_gaussian_box_bound_homogeneity():
    b1 = gaussian_box_bound(3, 0.8, 0.0, K=0.7, n=9.0)
    b2 = gaussian_box_bound(3, 0.8, 0.0, K=1.4, n=9.0)
    assert abs(b2 - 8 * b1) < 1e-12 * b2


def test_gaussian_box_bound_nonpd_error():
    with pytest.raises(ParameterError):
        gaussian_box_bound(3, 0.99, -0.5, K=1.0, n=1.0)   # off-diag > 1


@pytest.mark.parametrize("K, n", [(1.0, 0.0), (1.0, -4.0), (-1.0, 4.0), (0.0, 4.0),
                                  (math.nan, 4.0), (1.0, math.nan), (math.inf, 4.0),
                                  (1.0, math.inf)])
def test_gaussian_box_bound_refuses_bad_K_and_n(K, n):
    with pytest.raises(ParameterError, match="K and n must be positive and finite"):
        gaussian_box_bound(2, 0.5, 0.0, K=K, n=n)


def test_mc_box_trivial_and_m1():
    est = mc_box_probability(np.eye(2), 50.0, 10_000, seed=1)
    assert est.estimate == 1.0 and est.std_error == 0.0
    est = mc_box_probability(np.eye(1), 1.0, 200_000, seed=2)
    assert abs(est.estimate - 0.682689) <= 3 * est.std_error


def test_mc_box_perfectly_coupled():
    # singular PSD covariance: coordinates perfectly coupled, so the box
    # probability equals the m=1 value
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    est = mc_box_probability(cov, 1.0, 100_000, seed=3)
    assert abs(est.estimate - prob_abs_z_le(1.0)) <= 3 * est.std_error
    assert abs(equicorrelated_box_probability(2, 1.0, 1.0)
               - prob_abs_z_le(1.0)) < 1e-14
    with pytest.raises(ParameterError):
        mc_box_probability(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0, 10_000, seed=3)


@pytest.mark.parametrize("m", [3, 5, 8, 13])
def test_correlate_sample_does_not_depend_on_chunk_size(m):
    # a one-sample BLAS product can differ from the same row of a large one
    chol = np.linalg.cholesky(CovarianceSpec(m, 0.6, 0).materialize())
    idx = np.arange(1 << 14, dtype=np.uint64)[None, :]
    z = philox.gaussians(5, idx, np.arange(m, dtype=np.uint64)[:, None], 4)
    full = correlate(chol, z)
    for col in (0, 1, (1 << 14) - 1):
        assert np.array_equal(correlate(chol, z[:, col:col + 1])[:, 0], full[:, col])
    assert np.allclose(full, chol @ z, rtol=1e-14, atol=1e-14)


def test_mc_box_validation():
    with pytest.raises(ParameterError):
        mc_box_probability(np.eye(2), 1.0, 5000, seed=1)
    for cov in (np.zeros((0, 0)), np.ones((2, 3)), np.ones(3)):
        with pytest.raises(ParameterError, match="square"):
            mc_box_probability(cov, 1.0, 10_000, seed=1)


def _random_pd(m, seed):
    a = np.random.default_rng(seed).standard_normal((m, m))
    return a @ a.T / m + 0.05 * np.eye(m)


_RANK_2 = np.random.default_rng(7).standard_normal((4, 2))
MC_COVARIANCES = {
    **{f"pd-m{m}": _random_pd(m, 100 + m) for m in range(1, 7)},
    "equicorrelated-m3": build_covariance(3, 0.8, [0.0] * 3),
    "all-ones-m3": np.ones((3, 3)),                # eigh factor, rank 1
    "rank-2-m4": _RANK_2 @ _RANK_2.T,              # eigh factor, rank-deficient
    "zero-row-1": np.diag([1.0, 0.0, 2.0]),        # factor row 1 is all zero
    "zero-row-0": np.diag([0.0, 1.0, 0.5]),        # factor row 0 is all zero
}


@pytest.mark.parametrize("name", sorted(MC_COVARIANCES))
@pytest.mark.parametrize("half_width", [0.05, 0.5, 1.3, 50.0])
def test_mc_box_equals_full_draw_oracle(name, half_width):
    # the row-by-row draw counts exactly the hits of drawing every coordinate
    cov = MC_COVARIANCES[name]
    for samples in (10_007, theory._MC_CHUNK + 4321):
        seed = 1000 * len(name) + samples
        est = mc_box_probability(cov, half_width, samples, seed)
        assert est.estimate == full_draw_box_probability(cov, half_width, samples, seed)


def test_mc_box_draws_coordinates_only_inside_the_box(monkeypatch):
    drawn, gaussians = [], philox.gaussians
    def counting(*args):
        z = gaussians(*args)
        drawn.append(z.size)
        return z
    monkeypatch.setattr(philox, "gaussians", counting)
    cov, samples = build_covariance(3, 0.8, [0.0] * 3), 100_000
    narrow = mc_box_probability(cov, 0.5, samples, seed=5)
    assert sum(drawn) < 2 * samples                # about 1.6 per sample, against 3
    drawn.clear()
    wide = mc_box_probability(cov, 50.0, samples, seed=5)
    assert sum(drawn) == 3 * samples and wide.estimate == 1.0
    drawn.clear()
    mc_box_probability(np.ones((3, 3)), 0.5, samples, seed=5)
    assert sum(drawn) == 3 * samples               # a dense factor draws all up front
    monkeypatch.undo()
    assert narrow.estimate == full_draw_box_probability(cov, 0.5, samples, 5)


def test_equicorrelated_quadrature_vs_mc():
    for m, rho in [(2, 5.0 / 7.0), (3, 0.4), (4, 0.85)]:
        q = equicorrelated_box_probability(m, rho, 1.0)
        cov = build_covariance(m, rho, [0.0] * (m * (m - 1) // 2))
        est = mc_box_probability(cov, 1.0, 400_000, seed=m)
        assert abs(q - est.estimate) <= 4 * est.std_error, (m, rho)


def test_equicorrelated_box_probability_validation():
    with pytest.raises(ParameterError, match="m must be >= 1, got 0"):
        equicorrelated_box_probability(0, 0.5, 1.0)
    for rho in (-0.1, 1.5):
        with pytest.raises(ParameterError, match="equicorrelation must lie in"):
            equicorrelated_box_probability(2, rho, 1.0)
    assert equicorrelated_box_probability(2, 0.5, 0.0) == 0.0
    assert equicorrelated_box_probability(2, 0.5, -1.0) == 0.0


def test_quadrature_refuses_a_non_pd_covariance_and_m_above_3():
    with pytest.raises(ParameterError, match="not positive definite"):
        box_probability_quadrature(np.ones((2, 2)), 1.0)
    with pytest.raises(ParameterError, match="supports m <= 3, got m=4"):
        box_probability_quadrature(np.eye(4), 1.0)


def test_general_quadrature_matches_equicorrelated():
    for m, rho in [(2, 0.3), (3, 0.6)]:
        cov = build_covariance(m, rho, [0.0] * (m * (m - 1) // 2))
        a = box_probability_quadrature(cov, 0.8)
        b = equicorrelated_box_probability(m, rho, 0.8)
        assert abs(a - b) < 1e-8


def test_mc_below_analytic_bound():
    cov = build_covariance(3, 0.8, [0.0, 0.0, 0.0])
    bound = gaussian_box_bound(3, 0.8, 0.0, K=1.0, n=4.0)
    est = mc_box_probability(cov, 0.5, 200_000, seed=9)
    assert est.estimate <= bound + 3 * est.std_error


# -- anti-concentration -------------------------------------------------------

def test_berry_esseen_exact_quarter():
    M = 144
    i_rad = 2.0 * math.sqrt(M) / 24.0
    assert berry_esseen_bound(i_rad, M) == 0.25
    p = 0.5
    i_bern = 2.0 * math.sqrt(p - p * p) * math.sqrt(M) / 24.0
    assert berry_esseen_bound(i_bern, M, p=p) == 0.25


def test_berry_esseen_validation():
    with pytest.raises(ParameterError):
        berry_esseen_bound(1.0, 0)
    with pytest.raises(ParameterError):
        berry_esseen_bound(1.0, 10, p=1.0)
    with pytest.raises(ParameterError):
        berry_esseen_bound(-1.0, 10)


def test_berry_esseen_one_sided_empirical_small():
    # scaled-down version of the acceptance check
    m_summands, trials = 100, 20_000
    from disclab import philox
    eps = philox.signs(5, np.arange(m_summands, dtype=np.uint64), 0, 8)
    z = philox.signs(6, np.arange(trials, dtype=np.uint64)[:, None],
                     np.arange(m_summands, dtype=np.uint64)[None, :], 9)
    sums = z @ eps
    length = 2.0 * math.sqrt(m_summands) / 24.0
    bound = berry_esseen_bound(length, m_summands)
    rng = np.random.default_rng(3)
    for _ in range(20):
        center = float(rng.uniform(-2 * math.sqrt(m_summands), 2 * math.sqrt(m_summands)))
        emp = float(np.mean((sums >= center - length / 2) & (sums <= center + length / 2)))
        assert emp <= bound


# -- expected tuple counts ----------------------------------------------------

def test_expected_xi_count_identities():
    v = expected_xi_count(10, 3, 4, 1, 1.0)
    assert abs(v - 2 ** 10 * prob_abs_z_le(1.0) ** 3) < 1e-9
    v = expected_xi_count(10, 3, 4, 2, 60.0)
    assert abs(v - 2 ** 14) < 1e-6
    with pytest.raises(ParameterError):
        expected_xi_count(10, 3, 11, 2, 1.0)
    for m, M in ((0, 3), (2, 0)):
        with pytest.raises(ParameterError, match="need m >= 1 and M >= 1"):
            expected_xi_count(10, M, 4, m, 1.0)


def test_expected_tuple_count_degenerate():
    r = expected_tuple_count_general(14, 3, 2, 0, 2.0)
    want = 2 ** 14 * prob_abs_z_le(2.0 / math.sqrt(14)) ** 3
    assert abs(r.value - want) < 1e-6 * want


def test_expected_tuple_count_k_huge_counting_only():
    r = expected_tuple_count_general(12, 3, 2, 4, 1000.0)
    assert abs(r.log2_value - r.log2_counting) < 1e-9


def test_expected_tuple_count_vs_bruteforce():
    # exact ordered-pair count at distance delta is 2^n C(n, delta); the
    # entropy counting term exceeds it by a Stirling factor <= n
    n, M, m, delta, K = 14, 3, 2, 4, 2.0
    est = expected_tuple_count_general(n, M, m, delta, K)
    rho = 1.0 - 2.0 * delta / n
    p_row = equicorrelated_box_probability(2, rho, K / math.sqrt(n))
    exact = 2 ** n * math.comb(n, delta) * p_row ** M
    assert exact <= est.value <= exact * n
    assert est.kind == "upper_bound_estimate"


def test_expected_tuple_count_nonpd_error():
    with pytest.raises(ParameterError):
        expected_tuple_count_general(10, 2, 5, 9, 3.0)


def test_expected_tuple_count_refuses_a_distance_above_n():
    with pytest.raises(ParameterError, match="hamming distance must lie in"):
        expected_tuple_count_general(10, 2, 2, 11, 3.0)


def test_expected_tuple_count_monte_carlo_fallback_is_within_correct_bounds():
    # m > 3 at a negative overlap draws _MC_SAMPLES samples; here rho = -1/8
    # and the half-width is 1/4.  Any correct estimate of the row probability
    # P4 lies within 4 SE of [P3 P(|Z| <= 1/4), P3], P3 the box probability of
    # the first three coordinates: the lower end by the Gaussian correlation
    # inequality (Royen 2014), the upper end because the 4-d box event
    # implies the 3-d one.
    n, M, m, delta, K = 16, 2, 4, 9, 1.0
    rho, hw = 1.0 - 2.0 * delta / n, K / math.sqrt(n)
    assert (rho, hw) == (-0.125, 0.25)
    est = expected_tuple_count_general(n, M, m, delta, K)
    p = est.row_probability
    se = math.sqrt(p * (1.0 - p) / theory._MC_SAMPLES)
    p3 = box_probability_quadrature(build_covariance(3, rho, 0.0), hw)
    assert p3 * prob_abs_z_le(hw) - 4 * se <= p <= p3 + 4 * se
    assert expected_tuple_count_general(n, M, m, delta, K) == est


# -- stability constants ------------------------------------------------------

def test_stable_constants_formulas():
    sc = stable_constants(0.4, 1.0, 2)
    assert sc.C == 0.4 ** 2 / 1600.0
    assert abs(sc.C - 0.0001) < 1e-18
    q = 4800.0 * math.pi / 0.4 ** 2
    assert sc.Q == q
    assert abs(sc.log2_log2_T - 8 * q * math.log2(q)) <= 1e-12 * sc.log2_log2_T


def test_stable_constants_linear_in_L():
    a = stable_constants(0.3, 1.0, 2)
    b = stable_constants(0.3, 2.0, 2)
    assert abs(b.Q - 2 * a.Q) < 1e-9 * a.Q


def test_stable_constants_validation():
    with pytest.raises(ParameterError):
        stable_constants(0.0, 1.0, 2)
    with pytest.raises(ParameterError):
        stable_constants(0.5, 0.0, 2)
    with pytest.raises(ParameterError):
        stable_constants(0.5, 1.0, 1)


def test_mc_box_refuses_a_float_seed():
    with pytest.raises(ParameterError, match="seeds must be integers"):
        mc_box_probability(np.eye(2), 0.5, 20_000, seed=1.7)


def test_both_box_estimators_refuse_a_malformed_covariance():
    # the quadrature used to fail inside numpy (a broadcast ValueError, an IndexError)
    for cov in (np.ones((2, 3)), np.zeros((0, 0))):
        with pytest.raises(ParameterError, match="nonempty square matrix"):
            box_probability_quadrature(cov, 1.0)
        with pytest.raises(ParameterError, match="nonempty square matrix"):
            mc_box_probability(cov, 1.0, 10_000, seed=1)
    # both used to estimate P = 0 for a matrix with a NaN entry
    for bad in (math.nan, math.inf):
        cov = np.array([[1.0, bad], [bad, 1.0]])
        with pytest.raises(ParameterError, match="finite"):
            box_probability_quadrature(cov, 1.0)
        with pytest.raises(ParameterError, match="finite"):
            mc_box_probability(cov, 1.0, 10_000, seed=1)


@pytest.mark.parametrize("m", range(1, 7))
def test_build_covariance_one_eta_equals_its_vector(m):
    npairs = m * (m - 1) // 2
    for beta, eta in [(0.8, 0.0), (0.9583, 0.0013), (0.6, 0.1 / 3), (0.5, -0.25)]:
        one = build_covariance(m, beta, eta)
        assert one.tobytes() == build_covariance(m, beta, [eta] * npairs).tobytes()


def test_build_covariance_refuses_a_non_finite_eta_vector():
    # it used to put +inf off the diagonal
    with pytest.raises(ParameterError, match="finite"):
        build_covariance(3, 0.5, [0.1, -math.inf, 0.1])


_QUADRATURE_COVS = {
    "m1": [[1.0]],
    "m1_scaled": [[2.5]],
    "m2_pos": [[1.0, 0.6], [0.6, 1.0]],
    "m2_neg": [[1.0, -0.45], [-0.45, 1.0]],
    "m3_pos": [[1.0, 0.5, 0.3], [0.5, 1.0, 0.4], [0.3, 0.4, 1.0]],
    "m3_neg": [[1.0, -0.3, 0.2], [-0.3, 1.0, -0.4], [0.2, -0.4, 1.0]],
    "m3_scaled": [[2.0, -0.5, 0.3], [-0.5, 1.5, 0.2], [0.3, 0.2, 0.8]],
}
# box_probability_quadrature's values when m = 1, 2 and 3 had a code path
# each; the one conditioning recursion must reproduce them to the last bit
_QUADRATURE_PINS = {
    ("m1", 0.3): 0.23582284437790518,
    ("m1", 0.8): 0.5762892028332067,
    ("m1", 1.5): 0.8663855974622838,
    ("m1_scaled", 0.3): 0.15048450763496518,
    ("m1_scaled", 0.8): 0.3871183765867634,
    ("m1_scaled", 1.5): 0.6572182888520886,
    ("m2_pos", 0.3): 0.06839597071689746,
    ("m2_pos", 0.8): 0.3785948636084146,
    ("m2_pos", 1.5): 0.7784411932273598,
    ("m2_neg", 0.3): 0.06181630411780233,
    ("m2_neg", 0.8): 0.35612800130573197,
    ("m2_neg", 1.5): 0.7660759240091969,
    ("m3_pos", 0.3): 0.01640739816541489,
    ("m3_pos", 0.8): 0.2223767759993597,
    ("m3_pos", 1.5): 0.6804823224471586,
    ("m3_neg", 0.3): 0.014937637393575821,
    ("m3_neg", 0.8): 0.2090690432985737,
    ("m3_neg", 1.5): 0.6682250138740016,
    ("m3_scaled", 0.3): 0.009479515793206661,
    ("m3_scaled", 0.8): 0.1412676360043646,
    ("m3_scaled", 1.5): 0.5174236809224347,
}


@pytest.mark.parametrize("name,half_width", sorted(_QUADRATURE_PINS))
def test_quadrature_values_are_pinned(name, half_width):
    cov = np.array(_QUADRATURE_COVS[name])
    assert box_probability_quadrature(cov, half_width) == _QUADRATURE_PINS[name, half_width]


def test_negative_overlap_row_probability_is_pinned():
    # m = 3 at rho = -1/3 goes through the quadrature
    est = expected_tuple_count_general(12, 3, 3, 8, 2.0)
    assert est.row_probability == 0.10057898106886454
