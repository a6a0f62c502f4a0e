"""Closed-form exponents, bounds, and parameter constructions.

Everything here is exact arithmetic on the first-moment machinery for
tuple counts of low-discrepancy / perceptron solutions: base-2 counting
exponents, Gaussian box-probability bounds, equicorrelated covariance
analysis, Berry-Esseen anti-concentration constants, and the parameter
recipes that make the exponents negative.  No sampling happens in this
module except for the explicitly Monte Carlo verification oracle
``mc_box_probability``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import philox
from .errors import ParameterError

_LOG2_2PI = math.log2(2.0 * math.pi)
_PD_TOL = 1e-12
# samples per Monte Carlo chunk.  A chunk keeps at most m float64 draws per
# sample still inside the box, 256 KiB per coordinate, and twice that while
# a row's draws are appended; Philox adds its fixed tile buffers.  So the
# estimator's memory does not grow with the sample count.  At m = 3, 2^16
# was about 15% faster, but an estimate's traced peak was 2.27 MB against
# 1.86 MB for the old full draw of 2^14-sample chunks; 2^15 gives 1.57 MB.
_MC_CHUNK = 1 << 15
# the Monte Carlo fallback of expected_tuple_count_general
_MC_SAMPLES, _MC_SEED = 1_000_000, 0x5EED


def prob_abs_z_le(kappa: float) -> float:
    """P[|Z| <= kappa] for standard normal Z, via erf (abs error ~1e-16)."""
    return math.erf(kappa / math.sqrt(2.0))


def alpha_c(kappa: float) -> float:
    """Critical constraint density -1 / log2 P[|Z| <= kappa]."""
    if not (kappa > 0 and prob_abs_z_le(kappa) < 1.0):
        raise ParameterError(f"kappa must be positive with P[|Z| <= kappa] < 1, got {kappa}")
    return -1.0 / math.log2(prob_abs_z_le(kappa))


def binary_entropy(p: float) -> float:
    """h_b(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"entropy argument must lie in [0,1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _hb_inverse_lower(target: float) -> float:
    """The root x in (0, 1/2] of h_b(x) = target, for a target in (0, 1]
    (h_b is increasing there)."""
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ExponentReport:
    """A base-2 exponent with its additive breakdown.

    ``scale`` records whether ``value`` is per unit n ("per_n") or an
    absolute exponent ("absolute").  ``value`` is the exact sum of
    ``terms`` (fsum), and ``verdict`` is its sign.
    """

    value: float
    terms: dict[str, float]
    params: dict[str, float]
    verdict: str
    scale: str


def _finite(what: str, compute) -> float:
    """compute(), refused when its float64 arithmetic overflows: Python's
    OverflowError or ZeroDivisionError, or a value that is not finite."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise ParameterError(f"{what} overflows float64")
    return value


def _report(terms: dict[str, float], params: dict, scale: str) -> ExponentReport:
    bad = [name for name, t in terms.items() if not math.isfinite(t)]
    if bad:
        raise ParameterError(f"exponent terms {', '.join(bad)} overflow float64")
    value = _finite("the exponent", lambda: math.fsum(terms.values()))
    verdict = "negative" if value < 0 else "nonnegative"
    return ExponentReport(value=value, terms=terms, params=params,
                          verdict=verdict, scale=scale)


def _member_terms(w: int, delta: float, alpha: float, kappa: float) -> dict[str, float]:
    """The terms of the prefix-locked exponent that come once per tuple
    member, taken w times: a free suffix, the per-row normalization and
    box volume, and one small eigenvalue delta of the correlation matrix."""
    if not 0.0 < delta < 0.5:
        raise ParameterError(f"delta must lie in (0, 1/2), got {delta}")
    if not 0 < alpha < math.inf:
        raise ParameterError(f"alpha must be positive and finite, got {alpha}")
    if not 0 < kappa < math.inf:
        raise ParameterError(f"kappa must be positive and finite, got {kappa}")
    return {
        "suffixes": w * delta,
        "normalization": -(alpha * w / 2.0) * _LOG2_2PI,
        "box_volume": alpha * w * math.log2(2.0 * kappa),
        "small_eigenvalues": -(alpha * w / 2.0) * math.log2(delta),
    }


def psi_sbp(delta: float, m: int, alpha: float, kappa: float) -> ExponentReport:
    """Per-n exponent of the expected count of prefix-locked solution m-tuples.

    Counting term: 1 + m*delta (choices of the shared prefix and the m
    free suffixes, per unit n).  Probability terms: the per-row bound for
    the equicorrelated Gaussian vector with off-diagonal 1-delta, whose
    spectrum is {delta (m-1 times), delta + (1-delta)m}.
    """
    if m < 1:
        raise ParameterError(f"tuple size m must be >= 1, got {m}")
    per_m = _member_terms(m, delta, alpha, kappa)
    terms = {
        "counting": 1.0 + per_m["suffixes"],
        "normalization": per_m["normalization"],
        "box_volume": per_m["box_volume"],
        "small_eigenvalues": _member_terms(m - 1, delta, alpha, kappa)["small_eigenvalues"],
        "top_eigenvalue": -(alpha / 2.0) * math.log2(delta + (1.0 - delta) * m),
    }
    params = {"delta": delta, "m": m, "alpha": alpha, "kappa": kappa}
    return _report(terms, params, "per_n")


def upsilon(delta: float, alpha: float, kappa: float) -> float:
    """The m-free part of the prefix-locked exponent (per tuple member): the
    exact sum of ``psi_sbp``'s terms for one member, so psi_sbp's value is
    1 + m * upsilon + (alpha/2) log2(delta) + its top-eigenvalue term."""
    return math.fsum(_member_terms(1, delta, alpha, kappa).values())


def psi_disc(m: int, beta: float, eta: float, c: float, n: float, M: float,
             K: float, entropy_factor: str = "m") -> ExponentReport:
    """Absolute exponent of the expected count of overlap-window m-tuples
    of discrepancy-K solutions over an angle grid of log2-size c*n.

    ``entropy_factor`` selects the weight of the overlap-entropy term:
    "m" (default) or "m-1" (the pure tuple-counting weight; one factor
    less because the first vector is already counted by the n term).
    """
    if not 0.0 < eta < beta < 1.0:
        raise ParameterError(f"need 0 < eta < beta < 1, got eta={eta}, beta={beta}")
    if m < 2:
        raise ParameterError(f"tuple size m must be >= 2, got {m}")
    if not (0 < n < math.inf and 0 < M < math.inf and 0 < K < math.inf):
        raise ParameterError(f"need n, M and K positive and finite, got {n}, {M}, {K}")
    if not math.isfinite(c):
        raise ParameterError(f"angle-grid exponent c must be finite, got {c}")
    if entropy_factor not in ("m", "m-1"):
        raise ParameterError(f"entropy_factor must be 'm' or 'm-1', got {entropy_factor!r}")
    mu = m if entropy_factor == "m" else m - 1
    box = 4.0 * K * K / (math.pi * (1.0 - beta))
    if box == 0.0:
        raise ParameterError(f"the box_bound term underflows float64: "
                             f"4K^2/(pi(1-beta)) is 0 at K={K}")
    terms = {
        "first_vector": float(n),
        "overlap_entropy": mu * n * binary_entropy((1.0 - beta + eta) / 2.0),
        "angle_grid": c * m * n,
        "box_bound": (m * M / 2.0) * math.log2(box),
        "scaling": -(M * m / 2.0) * math.log2(n),
    }
    params = {"m": m, "beta": beta, "eta": eta, "c": c, "n": n, "M": M, "K": K,
              "entropy_factor": entropy_factor}
    return _report(terms, params, "absolute")


@dataclass(frozen=True)
class OgpParams:
    m: int
    beta: float
    eta: float
    c: float


def find_ogp_params(C1: float, c2: float) -> OgpParams:
    """Tuple-size / overlap-window parameters that force psi_disc < 0
    throughout c2 * M log2 M <= n <= C1 * M log2 M.

    m = max(2, ceil(16 C1)); beta > 1/2 solves
    h_b(1 - beta) = min(1/(4 C1), 1/2) by bisection; eta = (1-beta)/(2m)
    (which keeps every admissible covariance positive definite) and
    c = 1/m.
    """
    if not (math.inf > C1 > c2 > 0):
        raise ParameterError(f"need C1 > c2 > 0 and C1 finite, got C1={C1}, c2={c2}")
    m = max(2, math.ceil(_finite("the tuple size 16 C1", lambda: 16.0 * C1)))
    target = min(1.0 / (4.0 * C1), 0.5)
    x = _hb_inverse_lower(target)          # x = 1 - beta, in (0, 1/2]
    beta = 1.0 - x
    return OgpParams(m=m, beta=beta, eta=x / (2.0 * m), c=1.0 / m)


# ---------------------------------------------------------------------------
# Covariance analysis for overlap-window tuples
# ---------------------------------------------------------------------------

def build_covariance(m: int, beta: float, eta: Union[float, Sequence[float]]) -> np.ndarray:
    """Unit-diagonal symmetric m x m matrix with off-diagonals beta - eta_ij:
    the one way a covariance is built, and the one check of m, beta and eta.

    ``eta`` is one value for every pair, or the upper triangle row-major:
    (1,2), (1,3), ..., (m-1,m).
    """
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    npairs = m * (m - 1) // 2
    vec = np.asarray(eta, dtype=np.float64)
    if vec.shape not in ((), (npairs,)):
        raise ParameterError(f"eta must be one value or {npairs} for m={m}, "
                             f"got shape {vec.shape}")
    if not (math.isfinite(beta) and np.isfinite(vec).all()):
        raise ParameterError(f"beta and eta must be finite, got beta={beta}, eta={eta}")
    cov = np.eye(m)
    iu = np.triu_indices(m, k=1)
    cov[iu] = beta - vec
    cov[(iu[1], iu[0])] = beta - vec
    return cov


@dataclass(frozen=True)
class CovarianceSpec:
    """Overlap covariance description: off-diagonal beta - eta_ij with
    0 <= eta_ij <= eta."""

    m: int
    beta: float
    eta: float
    eta_vec: tuple[float, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "eta_vec", tuple(float(e) for e in self.eta_vec))
        self.materialize()              # checks m and the length of eta_vec
        if not 0.0 < self.beta < 1.0:
            raise ParameterError(f"beta must lie in (0,1), got {self.beta}")
        if not self.eta >= 0.0:
            raise ParameterError(f"eta must be nonnegative, got {self.eta}")
        if any(not 0.0 <= e <= self.eta for e in self.eta_vec):
            raise ParameterError("every eta_ij must lie in [0, eta]")

    def materialize(self) -> np.ndarray:
        """The covariance; an empty ``eta_vec`` means every eta_ij is 0."""
        return build_covariance(self.m, self.beta, self.eta_vec or 0.0)


@dataclass(frozen=True)
class CovarianceReport:
    pd: bool
    det: float
    det_lower_bound: float            # ((1-beta)/2)^m, valid when eta <= (1-beta)/(2m)
    eigenvalues: np.ndarray


def covariance_analysis(spec: CovarianceSpec) -> CovarianceReport:
    cov = spec.materialize()
    eigs = np.linalg.eigvalsh(cov)
    det = float(np.linalg.det(cov))
    bound = ((1.0 - spec.beta) / 2.0) ** spec.m
    return CovarianceReport(pd=bool(eigs[0] > _PD_TOL), det=det,
                            det_lower_bound=bound, eigenvalues=eigs)


def gaussian_box_bound(m: int, beta: float, eta: Union[float, Sequence[float]],
                       K: float, n: float) -> float:
    """Analytic upper bound (2pi)^(-m/2) det(Sigma)^(-1/2) (2K/sqrt(n))^m
    on P[max_i |Z_i| <= K/sqrt(n)] for Z ~ N(0, Sigma(eta)).

    Correlation scalings between 0 and 1 only increase the box
    probability, so evaluating the bound at the unscaled covariance
    covers every angle choice.
    """
    if not (0 < K < math.inf and 0 < n < math.inf):
        raise ParameterError(f"K and n must be positive and finite, got K={K}, n={n}")
    eigs = np.linalg.eigvalsh(build_covariance(m, beta, eta))
    if eigs[0] <= _PD_TOL:
        raise ParameterError("covariance is not positive definite")
    det = float(np.prod(eigs))
    return _finite("the box bound", lambda: float(
        (2.0 * math.pi) ** (-m / 2.0) * det ** -0.5 * (2.0 * K / math.sqrt(n)) ** m))


# ---------------------------------------------------------------------------
# Box probabilities: Monte Carlo oracle and deterministic quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    samples: int


def correlate(chol: np.ndarray, z: np.ndarray) -> np.ndarray:
    """chol @ z for (d, k) samples z, summed over j = 0, 1, ... in that order
    for every sample, so a sample's result does not depend on k.  A BLAS
    product does not promise that: it computes a one-sample product with
    another kernel, which can differ in the last ulp.

    z may hold fewer rows than chol has columns; the columns past its d rows
    are skipped and must be zero.  A skipped term is 0 * z_j = +-0, which
    can change the sign of a zero sum but never its absolute value.
    """
    x = np.zeros((len(chol),) + z.shape[1:])
    term = np.empty(z.shape[1:])
    for i, row in enumerate(chol):
        for j, c in enumerate(row[:len(z)]):
            x[i] += np.multiply(z[j], c, out=term)
    return x


def _covariance_matrix(covariance) -> np.ndarray:
    """A ``CovarianceSpec`` or array-like as a float64 matrix, which must be
    nonempty, square and finite: the one input check of both box estimators."""
    if isinstance(covariance, CovarianceSpec):
        covariance = covariance.materialize()
    cov = np.asarray(covariance, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] < 1:
        raise ParameterError(f"covariance must be a nonempty square matrix, "
                             f"got shape {cov.shape}")
    if not np.isfinite(cov).all():
        raise ParameterError("covariance entries must be finite")
    return cov


def mc_box_probability(covariance, half_width: float, samples: int,
                       seed: int) -> McEstimate:
    """Monte Carlo estimate of P[max_i |Z_i| <= half_width], Z ~ N(0, cov).

    Z = L z for a factor L of cov and standard normal z.  Draw z_j of
    sample s is Philox block (s, j, 4), so a draw does not depend on which
    other draws are made.  Samples go in chunks of ``_MC_CHUNK``, and a
    chunk's coordinates are decided row by row: Z_i is ``correlate`` of L's
    row i with z_0..z_reach[i], drawn only for the samples still inside the
    box, and a sample leaves at its first |Z_i| > half_width.  The Cholesky
    factor is lower triangular, so a narrow box draws few coordinates per
    sample; a dense factor (the eigenvalue one) draws all m up front.

    The estimate equals that of drawing all m coordinates of every sample
    and counting: each Z_i a sample reaches is the same fixed-order sum,
    and the terms it skips are exact zeros.  It therefore does not depend
    on the chunk size either.  A chunk holds at most m float64 draws per
    sample (see ``_MC_CHUNK``).  Degenerate (singular but PSD) covariances
    such as perfectly coupled coordinates are accepted via an eigenvalue
    factorization; indefinite input is an error.
    """
    cov = _covariance_matrix(covariance)
    if samples < 10_000:
        raise ParameterError(f"need at least 1e4 samples, got {samples}")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        w, v = np.linalg.eigh(cov)
        if w.min() < -_PD_TOL:
            raise ParameterError("covariance is not positive semidefinite") from exc
        chol = v * np.sqrt(np.clip(w, 0.0, None))
    # reach[i] is the largest column rows 0..i use (-1 if none): once Z_i is
    # decided, the chunk holds z_0..z_reach[i] of every sample still inside
    last = [np.flatnonzero(row)[-1] if row.any() else -1 for row in chol]
    reach = np.maximum.accumulate(last)
    dim = np.arange(cov.shape[0], dtype=np.uint64)[:, None]
    hits = 0
    for start in range(0, samples, _MC_CHUNK):
        idx = np.arange(start, min(samples, start + _MC_CHUNK), dtype=np.uint64)
        z = np.empty((0, idx.size))
        for i, row in enumerate(chol):
            if reach[i] >= len(z):
                z = np.concatenate(
                    [z, philox.gaussians(seed, idx[None, :], dim[len(z):reach[i] + 1], 4)])
            x = correlate(row[None, :], z)[0]
            # the indices of the samples inside: a take is several times
            # faster than a boolean mask on a random pattern, and a row that
            # every sample survives (a wide box) needs no copy at all
            keep = np.flatnonzero(np.abs(x, out=x) <= half_width)
            if keep.size < idx.size:
                idx, z = idx.take(keep), z.take(keep, axis=1)
            if not idx.size:
                break
        hits += idx.size
    p = hits / samples
    se = math.sqrt(p * (1.0 - p) / samples)
    return McEstimate(estimate=p, std_error=se, samples=samples)


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _interval_prob(lo: float, hi: float) -> float:
    return max(0.0, _phi(hi) - _phi(lo))


def equicorrelated_box_probability(m: int, rho: float, half_width: float) -> float:
    """P[max_i |Z_i| <= half_width] for unit-variance equicorrelated Z
    with off-diagonal rho in [0, 1], by one-dimensional quadrature.

    Z_i = sqrt(rho) W + sqrt(1-rho) V_i with a shared W, so conditioning
    on W reduces the box to a product of univariate intervals.
    """
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if not 0.0 <= rho <= 1.0:
        raise ParameterError(f"equicorrelation must lie in [0,1], got {rho}")
    if half_width <= 0:
        return 0.0
    single = _interval_prob(-half_width, half_width)
    if m == 1 or rho == 1.0:
        return single
    if rho == 0.0:
        return single ** m
    from scipy import integrate    # lazy: importing scipy dominates CLI start-up

    sr, sv = math.sqrt(rho), math.sqrt(1.0 - rho)

    def integrand(w):
        return (math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)
                * _interval_prob((-half_width - sr * w) / sv,
                                 (half_width - sr * w) / sv) ** m)

    val, _ = integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12,
                            limit=200)
    return min(1.0, max(0.0, val))


def _rectangle(corr: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """P[lo <= Z <= hi] for unit normals Z with correlation matrix ``corr``:
    Z_1 is integrated out over [lo_1, hi_1], and given Z_1 = z the others
    are unit normals again on the box (lo - r z)/s .. (hi - r z)/s, with r
    = corr[0, 1:], s = sqrt(1 - r^2) and correlation
    (corr[1:, 1:] - r r^T)/(s s^T)."""
    if len(lo) == 1:
        return _interval_prob(lo[0], hi[0])
    from scipy import integrate

    r = corr[0, 1:]
    s = np.sqrt(np.maximum(1e-300, 1.0 - r * r))
    cond = (corr[1:, 1:] - np.outer(r, r)) / np.outer(s, s)

    def integrand(z):
        return (math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
                * _rectangle(cond, (lo[1:] - r * z) / s, (hi[1:] - r * z) / s))

    # with three coordinates left each point of this integral is a whole
    # inner one, hence the looser tolerance; both settings are those the
    # values pinned in the tests were computed with, to the last bit
    epsabs, epsrel, limit = (1e-12, 1e-11, 200) if len(lo) == 2 else (1e-10, 1e-9, 100)
    val, _ = integrate.quad(integrand, lo[0], hi[0], epsabs=epsabs, epsrel=epsrel,
                            limit=limit)
    return val


def box_probability_quadrature(covariance, half_width: float) -> float:
    """Deterministic box probability for m <= 3 and a general covariance."""
    cov = _covariance_matrix(covariance)
    m = cov.shape[0]
    sd = np.sqrt(np.diag(cov))
    t = half_width / sd                       # per-dimension half widths
    corr = cov / np.outer(sd, sd)
    eigs = np.linalg.eigvalsh(corr)
    if eigs[0] <= _PD_TOL:
        raise ParameterError("covariance is not positive definite")
    if m > 3:
        raise ParameterError(f"deterministic quadrature supports m <= 3, got m={m}")
    return _rectangle(corr, -t, t)


# ---------------------------------------------------------------------------
# Anti-concentration and expected tuple counts
# ---------------------------------------------------------------------------

def berry_esseen_bound(interval_length: float, M: int,
                       p: Optional[float] = None) -> float:
    """Upper bound on P[signed sum of M binary variables lands in a fixed
    interval I]: 3|I|/sqrt(M) for Rademacher summands, 3|I|/sqrt(M(p-p^2))
    for Bernoulli(p).  Valid once |I| grows with M; may exceed 1.
    """
    if M < 1:
        raise ParameterError(f"M must be >= 1, got {M}")
    if not 0 <= interval_length < math.inf:
        raise ParameterError(f"interval length must be finite and nonnegative, "
                             f"got {interval_length}")
    if p is None:
        return 3.0 * interval_length / math.sqrt(M)
    if not 0.0 < p < 1.0:
        raise ParameterError(f"Bernoulli p must lie in (0,1), got {p}")
    return 3.0 * interval_length / math.sqrt(M * (p - p * p))


def expected_xi_count(n: int, M: int, k: int, m: int, kappa: float) -> float:
    """Exact E[#{prefix-locked satisfying m-tuples}] for the suffix-resampled
    gaussian ensemble: 2^(n + k(m-1)) * P_box^M.

    Every tuple sharing the first n-k coordinates has per-row overlap
    vector with the same equicorrelated covariance (off-diagonal 1 - k/n),
    so the first moment is the exact product of the tuple count and the
    common row probability.
    """
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if m < 1 or M < 1:
        raise ParameterError(f"need m >= 1 and M >= 1, got m={m}, M={M}")
    if not 0 < kappa < math.inf:
        raise ParameterError(f"kappa must be positive and finite, got {kappa}")
    rho = 1.0 - k / n
    p_box = equicorrelated_box_probability(m, rho, kappa)
    if p_box == 0.0:                          # underflow: no tuple survives M rows
        return 0.0
    log2_count = n + k * (m - 1)
    return _finite("the expected count", lambda: 2.0 ** (log2_count + M * math.log2(p_box)))


@dataclass(frozen=True)
class TupleCountEstimate:
    """First-moment value for equidistant tuples at fixed Hamming distance.

    The counting factor is the entropy upper bound exp2(n + n(m-1)
    h_b(delta/n)); the probability factor is exact for the equicorrelated
    overlap pattern.  The product is therefore an upper-bound-style
    estimate, not an exact expectation.
    """

    value: float
    log2_value: float
    log2_counting: float
    row_probability: float
    kind: str = "upper_bound_estimate"


def expected_tuple_count_general(n: int, M: int, m: int, hamming_delta: int,
                                 K: float) -> TupleCountEstimate:
    """First-moment estimate for m-tuples at pairwise Hamming distance
    ``hamming_delta`` with every member of discrepancy at most K.

    The pairwise overlap is 1 - 2 delta/n; negative overlaps with m > 3
    fall back to the Monte Carlo oracle (``_MC_SAMPLES`` draws of seed
    ``_MC_SEED``, so the estimate is deterministic).
    """
    if min(n, m, M) < 1:
        raise ParameterError(f"need n, m and M >= 1, got n={n}, m={m}, M={M}")
    if not 0 <= hamming_delta <= n:
        raise ParameterError(f"hamming distance must lie in [0, n], got {hamming_delta}")
    if not 0 < K < math.inf:
        raise ParameterError(f"K must be positive and finite, got {K}")
    rho = 1.0 - 2.0 * hamming_delta / n
    hw = K / math.sqrt(n)
    if hamming_delta == 0 or m == 1 or (rho == -1.0 and m == 2):
        # perfectly coupled coordinates: the box event is a single interval
        p_row = _interval_prob(-hw, hw)
    else:
        top, small = 1.0 + (m - 1) * rho, 1.0 - rho
        if min(top, small) <= _PD_TOL:
            raise ParameterError(
                f"equicorrelated covariance with off-diagonal {rho} is not positive "
                f"definite for m={m} (needs 1 + (m-1)rho > 0)")
        if rho >= 0.0:
            p_row = equicorrelated_box_probability(m, rho, hw)
        elif m <= 3:
            p_row = box_probability_quadrature(build_covariance(m, rho, 0.0), hw)
        else:
            p_row = mc_box_probability(build_covariance(m, rho, 0.0), hw,
                                       _MC_SAMPLES, _MC_SEED).estimate
    log2_counting = n + n * (m - 1) * binary_entropy(hamming_delta / n)
    log2_value = log2_counting + (M * math.log2(p_row) if p_row > 0 else -math.inf)
    value = _finite("the expected count", lambda: 2.0 ** log2_value)
    return TupleCountEstimate(value=value, log2_value=log2_value,
                              log2_counting=log2_counting, row_probability=p_row)


@dataclass(frozen=True)
class StableConstants:
    """Constants of the stability barrier; T is reported as log2 log2 T
    because it is a double exponential."""

    C: float
    Q: float
    log2_log2_T: float


def stable_constants(eta: float, L: float, m: int) -> StableConstants:
    """C = eta^2/1600, Q = 4800 L pi / eta^2, log2 log2 T = 4 m Q log2 Q."""
    if not 0.0 < eta < 1.0:
        raise ParameterError(f"eta must lie in (0,1), got {eta}")
    if not 0 < L < math.inf:
        raise ParameterError(f"L must be positive and finite, got {L}")
    if m < 2:
        raise ParameterError(f"m must be >= 2, got {m}")
    Q = _finite("Q", lambda: 4800.0 * L * math.pi / (eta * eta))
    return StableConstants(C=eta * eta / 1600.0, Q=Q, log2_log2_T=_finite(
        "log2 log2 T", lambda: 4.0 * m * Q * math.log2(Q)))
