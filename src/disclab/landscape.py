"""Empirical solution-space geometry: overlap statistics, exhaustive
searches for forbidden solution tuples over correlated ensembles, and an
input-stability probe for algorithms.

At desk scale the forbidden tuple sets may well be non-empty; searches
therefore return a witness certificate (or None), never an emptiness
claim.

"First certificate" means first in the "lex" code order of
``discrepancy._code_layout`` (prefix first, then member suffixes /
members in turn).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .discrepancy import (codes_from_signs, disc_value, enumerate_below,
                          first_shared_prefix, sbp_threshold, signs_from_codes)
from .errors import CapacityError, ParameterError, UnsupportedDisorderError
from .instances import Instance, _check_dims, interpolate, stability_trial
from .online import run_online_batch

XI_MAX_N = 22
OGP_MAX_N_PAIR = 18
OGP_MAX_N_TRIPLE = 14

# gram entries per row block of the overlap histogram's pair count
_HISTOGRAM_ENTRIES = 1 << 20
# int64 entries (32 MB) of the largest cube the histogram's Walsh-Hadamard
# pair count may transform
_TRANSFORM_ENTRIES = 1 << 22
# the transform's fixed cost (codes, weight table, Krawtchouk sums) in pairs
_TRANSFORM_SETUP_PAIRS = 1 << 14
# float64 entries (1 MB) of one stability-probe batch of instance pairs
_PROBE_ENTRIES = 1 << 17


# ---------------------------------------------------------------------------
# Overlap histogram
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Histogram:
    bin_edges: np.ndarray       # length bins+1, spanning [-1, 1]
    counts: np.ndarray          # length bins


def _distance_counts(solutions: np.ndarray) -> np.ndarray:
    """Number of unordered pairs of rows of the +-1 matrix ``solutions`` at
    each Hamming distance 0..n; a repeated row pairs at distance 0.

    Two exact paths, picked by cost (s rows of length n):
    - the Walsh-Hadamard transform of the rows' code multiplicities
      (``_transform_counts``), O(n 2^n + s) time, runs when its 2^n int64
      entries fit _TRANSFORM_ENTRIES (32 MB) and its n 2^n butterfly
      entries plus _TRANSFORM_SETUP_PAIRS are fewer than the s(s-1)/2
      pairs.  It holds 13 bytes per cube entry with the weight table, and
      8 ceil(n/8) + 16 bytes per row while it builds the codes: 55 MB
      traced for the 947,052 solutions at 4x22, set by the cube;
    - otherwise the rows are paired (``_pair_counts``), O(s^2 n) time and
      blocks of _HISTOGRAM_ENTRIES float32 gram entries (about 10 MB).
    A butterfly entry costs 3-5 ns, a pair 4-8 ns and the transform's
    set-up about 2^14 pairs (2-core x86_64, one BLAS thread).

    The transform is exact in int64 while 2^n sum(f^2) < 2^63 (Parseval),
    f the multiplicity of each row.  A set of distinct rows has
    sum(f^2) = s <= 2^n, which meets this for n <= 31, so every solution
    set up to ENUMERATE_MAX_N does; a multiset that does not is paired.
    """
    sols = np.asarray(solutions)
    s, n = sols.shape
    if 1 << n <= _TRANSFORM_ENTRIES and (n << n) + _TRANSFORM_SETUP_PAIRS < s * (s - 1) // 2:
        f = np.bincount(codes_from_signs(sols, "lex").view(np.int64), minlength=1 << n)
        if int(f @ f) << n < 1 << 63:
            return _transform_counts(f, n, s)
    return _pair_counts(sols)


def _transform_counts(f: np.ndarray, n: int, s: int) -> np.ndarray:
    """Unordered pair counts by distance from f, the multiplicities of the
    2^n lex codes of s rows; f is overwritten.

    With F the Walsh-Hadamard transform of f and W(w) the sum of F(S)^2
    over |S| = w, the ordered pairs at distance d number
    2^-n sum_w K_d(w) W(w), K_d the Krawtchouk polynomials (MacWilliams &
    Sloane 1977); s of the pairs at distance 0 are a row with itself.
    """
    h = 1
    while h < f.size:                  # n in-place butterfly passes
        pair = f.reshape(-1, 2, h)
        a, b = pair[:, 0], pair[:, 1]
        a += b
        b *= -2
        b += a                         # a - b
        h *= 2
    f *= f
    spectrum = np.zeros(n + 1, dtype=np.int64)
    np.add.at(spectrum, np.bitwise_count(np.arange(f.size, dtype=np.uint32)), f)
    weights, kraw = spectrum.tolist(), _krawtchouk(n)
    ordered = [sum(x * kraw[w][d] for w, x in enumerate(weights)) >> n for d in range(n + 1)]
    ordered[0] -= s
    return np.array(ordered, dtype=np.int64) // 2


def _krawtchouk(n: int) -> list:
    """kraw[w][d] = K_d(w), the coefficient of z^d in P_w = (1 - z)^w (1 + z)^(n-w),
    in Python ints; (1 + z) P_{w+1} = (1 - z) P_w gives P_{w+1} from P_w."""
    kraw = [[math.comb(n, d) for d in range(n + 1)]]
    for _ in range(n):
        prev, poly = kraw[-1], [1]
        for d in range(1, n + 1):
            poly.append(prev[d] - prev[d - 1] - poly[d - 1])
        kraw.append(poly)
    return kraw


def _pair_counts(solutions: np.ndarray) -> np.ndarray:
    """``_distance_counts`` by pairing every two rows.

    Row blocks of at most _HISTOGRAM_ENTRIES gram entries are paired with
    themselves and every later row; a block's square counts each inner
    pair twice plus its diagonal at distance 0.
    """
    sols = np.asarray(solutions, dtype=np.float32)    # +-1 inner products stay exact
    s, n = sols.shape
    counts = np.zeros(n + 1, dtype=np.int64)
    rows = max(1, _HISTOGRAM_ENTRIES // s)
    for start in range(0, s, rows):
        block = sols[start:start + rows]
        square = _block_distances(block, block, n)
        square[0] -= block.shape[0]                   # the diagonal
        counts += square // 2 + _block_distances(block, sols[start + rows:], n)
    return counts


def _block_distances(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    gram = a @ b.T
    np.subtract(n, gram, out=gram)
    gram *= 0.5
    return np.bincount(gram.astype(np.intp).ravel(), minlength=n + 1)


def overlap_histogram(solutions, bins: int) -> Histogram:
    """Histogram over [-1, 1] of the overlaps 1 - 2d/n of every unordered
    pair of rows of ``solutions``, an (s, n) matrix of +-1 entries with
    s >= 2 and n >= 1 (a repeated row pairs at overlap 1).

    The pairs are counted by distance, not listed: by the Walsh-Hadamard
    transform of the set or by pairing rows, whichever ``_distance_counts``
    finds cheaper; both give the same counts.
    """
    sols = np.asarray(solutions)
    if sols.ndim != 2 or sols.shape[0] < 2 or sols.shape[1] < 1:
        raise ParameterError("need at least 2 solutions of equal length n >= 1")
    if sols.dtype.kind not in "iuf" or not (np.abs(sols) == 1).all():
        raise ParameterError("solution entries must be +1 or -1")
    if bins < 1:
        raise ParameterError(f"bins must be >= 1, got {bins}")
    n = sols.shape[1]
    # each of the n+1 distinct overlaps 1 - 2d/n lands in one bin, weighted
    # by its pair count
    counts, edges = np.histogram(1.0 - 2.0 * np.arange(n + 1) / n, bins=bins,
                                 range=(-1.0, 1.0), weights=_distance_counts(sols))
    return Histogram(bin_edges=edges, counts=counts.astype(np.int64))


# ---------------------------------------------------------------------------
# Tuple certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TupleCertificate:
    """Witness that a searched tuple set is non-empty.

    ``overlaps`` lists the pairs (1,2), (1,3), ..., (m-1,m) row-major;
    each equals 1 - 2 d_H / n for the corresponding member pair.  ``found``
    is always True; it tells a certificate from the ``{"found": false}``
    of a search that returns None.
    """

    found: bool = field(default=True, init=False)
    members: np.ndarray          # (m, n) int8 sign vectors
    overlaps: np.ndarray         # (m(m-1)/2,)
    disc_values: np.ndarray      # per-member ||M_i sigma_i||_inf
    tau_or_delta: dict
    threshold: float


def _certificate(codes, instances: Sequence[Instance], tau_or_delta: dict,
                 threshold: float) -> TupleCertificate:
    """The certificate whose member i has "lex" code codes[i], valued on instances[i]."""
    sigma = signs_from_codes(codes, instances[0].cols, "lex")
    i, j = np.triu_indices(len(sigma), 1)             # pairs row-major
    d = np.count_nonzero(sigma[i] != sigma[j], axis=1)
    disc = [disc_value(inst, s).value for inst, s in zip(instances, sigma)]
    return TupleCertificate(members=sigma, overlaps=1.0 - 2.0 * d / sigma.shape[1],
                            disc_values=np.array(disc, dtype=float),
                            tau_or_delta=tau_or_delta, threshold=float(threshold))


def verify_certificate(cert: TupleCertificate, instances: Sequence[Instance],
                       window: Optional[tuple[float, float]] = None) -> bool:
    """Recompute overlaps and discrepancies directly from the members,
    through routes independent of the search engine's tables."""
    m, n = cert.members.shape
    if len(instances) != m:
        return False
    for i, inst in enumerate(instances):
        sums = np.asarray(inst.entries, dtype=np.float64) @ cert.members[i].astype(np.float64)
        val = float(np.max(np.abs(sums)))
        if val > cert.threshold + 1e-9 * max(1.0, cert.threshold):
            return False
        if abs(val - float(cert.disc_values[i])) > 1e-9 * max(1.0, val):
            return False
    sig = cert.members.astype(np.int32)
    gram = (sig @ sig.T)[np.triu_indices(m, 1)]
    overlaps = 1.0 - 2.0 * ((n - gram) // 2) / n
    if not np.array_equal(overlaps, np.asarray(cert.overlaps, dtype=float)):
        return False
    if window is not None:
        lo, hi = window
        if np.any(overlaps < lo) or np.any(overlaps > hi):
            return False
    return True


# ---------------------------------------------------------------------------
# Shared-prefix searches (suffix-resampled ensembles)
# ---------------------------------------------------------------------------

def _first_member(members: Sequence[Instance]) -> Instance:
    """The first member of an ensemble, which must have at least 2."""
    if len(members) < 2:
        raise ParameterError("need at least 2 ensemble members")
    return members[0]


def _shared_prefix_certificate(members: Sequence[Instance], k: int, threshold: float,
                               max_n: Optional[int]) -> Optional[TupleCertificate]:
    n = members[0].cols
    max_n = XI_MAX_N if max_n is None else max_n
    if n > max_n:
        raise CapacityError(f"tuple search for n={n} exceeds max_n={max_n}")
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}")
    for mem in members[1:]:
        if mem.shape != members[0].shape or mem.disorder != members[0].disorder:
            raise ParameterError("ensemble members must share shape and disorder")
        if not np.array_equal(mem.entries[:, : n - k], members[0].entries[:, : n - k]):
            raise ParameterError(f"members do not share the first n-k={n - k} columns")
    hit = first_shared_prefix(members, k, threshold)
    if hit is None:
        return None
    p, suffixes = hit
    return _certificate([(p << k) | s for s in suffixes], members,
                        {"mode": "suffix_resample", "k": k}, threshold)


def search_xi_sbp(members: Sequence[Instance], k: int, kappa: float,
                  max_n: Optional[int] = None) -> Optional[TupleCertificate]:
    """First m-tuple of perceptron solutions agreeing on the shared prefix
    of a suffix-resampled gaussian ensemble, or None.  ``n`` may be at most
    ``max_n`` (None: ``XI_MAX_N``).

    Exhausts the 2^(n-k) common prefixes crossed with per-member suffix
    completions; threshold kappa * sqrt(n), inclusive.
    """
    threshold = sbp_threshold(_first_member(members), kappa)
    return _shared_prefix_certificate(members, k, threshold, max_n)


def search_xi_disc(members: Sequence[Instance], k: int, c_u: float,
                   max_n: Optional[int] = None) -> Optional[TupleCertificate]:
    """Shared-prefix tuple search at discrepancy threshold c_u * sqrt(M)
    for integer (rademacher / bernoulli) disorder; comparisons are exact
    integer arithmetic against the float threshold.  ``max_n`` is as in
    ``search_xi_sbp``."""
    first = _first_member(members)
    if first.disorder == "gaussian":
        raise UnsupportedDisorderError("discrepancy tuple search needs integer disorder")
    if not 0 < c_u < math.inf:
        raise ParameterError(f"c_u must be positive and finite, got {c_u}")
    return _shared_prefix_certificate(members, k, c_u * math.sqrt(first.rows), max_n)


# ---------------------------------------------------------------------------
# Overlap-window tuples over interpolated ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OgpWindow:
    """Forbidden-overlap window [beta - eta, beta] with tuple size m.

    ``bound`` is the absolute discrepancy threshold K.
    """

    beta: float
    eta: float
    bound: float
    m: int

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ParameterError(f"beta must lie in (0,1), got {self.beta}")
        if not 0.0 < self.eta < self.beta:
            raise ParameterError(f"eta must lie in (0, beta), got {self.eta}")
        if self.m < 2:
            raise ParameterError(f"tuple size m must be >= 2, got {self.m}")
        if not 0 < self.bound < math.inf:
            raise ParameterError(f"bound must be positive and finite, got {self.bound}")

    @property
    def interval(self) -> tuple[float, float]:
        return self.beta - self.eta, self.beta


def _window_filter(codes: np.ndarray, ref_code: np.uint64, n: int,
                   lo: float, hi: float) -> np.ndarray:
    d = np.bitwise_count(codes ^ ref_code).astype(np.float64)
    o = 1.0 - 2.0 * d / n
    return codes[(o >= lo) & (o <= hi)]


def search_ogp_tuples(base: Instance, fresh: Sequence[Instance], angles: Sequence[float],
                      window: tuple, max_n: Optional[int] = None) -> Optional[TupleCertificate]:
    """First m-tuple (lexicographic) of solutions of the interpolated
    instances cos(tau_i) * base + sin(tau_i) * fresh_i whose pairwise
    overlaps all land in the window.

    ``window`` is (lo, hi, bound, m): the overlap interval [lo, hi], which
    may be degenerate, the positive finite discrepancy bound and the tuple
    size (an ``OgpWindow`` w gives ``(*w.interval, w.bound, w.m)``).  Each
    member's candidate set is the union over the angle grid of its solution
    sets; member i's recorded angle is the first grid angle at which
    ``disc_value`` of its sign vector is at most the bound.
    """
    lo, hi, threshold, m = window
    threshold = float(threshold)
    if not 0 < threshold < math.inf:
        raise ParameterError(f"threshold must be positive and finite, got {threshold}")
    if m < 2:
        raise ParameterError(f"tuple size m must be >= 2, got {m}")
    if len(fresh) != m:
        raise ParameterError(f"need {m} fresh instances, got {len(fresh)}")
    if len(angles) == 0:
        raise ParameterError("angle grid must be nonempty")
    n = base.cols
    cap = max_n if max_n is not None else (OGP_MAX_N_PAIR if m == 2 else OGP_MAX_N_TRIPLE)
    if n > cap:
        raise CapacityError(f"tuple search for n={n} exceeds max_n={cap}")

    # each member's sorted codes, the union of its solution sets over the grid:
    # one sort, since np.unique hashes integers first from numpy 2.3 on (slower)
    member_codes = []
    for i in range(m):
        per_angle = []
        for tau in angles:
            inst = interpolate(base, fresh[i], tau)
            per_angle.append(codes_from_signs(enumerate_below(inst, threshold, max_n=n), "lex"))
        codes = np.sort(np.concatenate(per_angle))
        first = np.ones(codes.size, dtype=bool)      # the first of each run of equal codes
        first[1:] = codes[1:] != codes[:-1]
        member_codes.append(codes[first])

    chosen: list[int] = []

    def extend(depth: int) -> bool:
        if depth == m:
            return True
        cands = member_codes[depth]
        for prev in chosen:
            cands = _window_filter(cands, np.uint64(prev), n, lo, hi)
            if cands.size == 0:
                return False
        for code in cands:
            chosen.append(int(code))
            if extend(depth + 1):
                return True
            chosen.pop()
        return False

    if not extend(0):
        return None
    sigma = signs_from_codes(chosen, n, "lex")
    taus = [next(tau for tau in angles
                 if disc_value(interpolate(base, fresh[i], tau), sigma[i]).value <= threshold)
            for i in range(m)]
    return _certificate(chosen, [interpolate(base, fresh[i], taus[i]) for i in range(m)],
                        {"mode": "interpolate", "angles": taus}, threshold)


def default_angle_grid(Q: int) -> np.ndarray:
    """The grid {j pi / (2Q) : 0 <= j <= Q}."""
    if Q < 1:
        raise ParameterError(f"grid resolution must be >= 1, got {Q}")
    return np.arange(Q + 1) * (math.pi / (2 * Q))


# ---------------------------------------------------------------------------
# Stability probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    rho: float
    trials: int
    n: int
    rows: int
    threshold: float
    success_rate: float            # P[disc <= threshold] on the base instance
    success_rate_perturbed: float
    quantiles: dict[str, float]    # d_H quantiles at 0, .25, .5, .75, 1
    fit_f: float                   # least-squares d_H ~ fit_f + fit_L * frobenius
    fit_L: float
    d_hamming: np.ndarray          # per-trial output distance
    frobenius: np.ndarray          # per-trial ||M - Mbar||_F


def stability_probe(alg, rho: float, trials: int, n: int, rows: int,
                    threshold: float, seed: int = 0) -> StabilityReport:
    """Distribution of output Hamming distance over rho-correlated gaussian
    instance pairs, with the algorithm's auxiliary randomness shared
    within each pair.

    The correlation is realized by interpolation with cos(tau) = rho; the
    per-trial pair is (M, cos(tau) M + sin(tau) M') for an independent M'.
    Trials run through ``run_online_batch`` in chunks, base and perturbed
    instances side by side in one (2k, rows, n) array of at most
    _PROBE_ENTRIES = 2^17 entries (one pair if a pair alone is larger), so
    memory does not grow with the trial count.
    """
    if not 0.0 <= rho <= 1.0:
        raise ParameterError(f"rho must lie in [0,1], got {rho}")
    _check_dims(rows, n)
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if not math.isfinite(threshold):
        raise ParameterError(f"threshold must be finite, got {threshold}")
    tau = math.acos(rho)
    d_h = np.empty(trials, dtype=np.int64)
    fro = np.empty(trials, dtype=np.float64)
    ok = np.empty((trials, 2), dtype=bool)        # base, perturbed
    chunk = min(trials, max(1, _PROBE_ENTRIES // (2 * rows * n)))
    pairs = np.empty((chunk, 2, rows, n))
    omegas = np.empty((chunk, 2), dtype=np.uint64)
    for start in range(0, trials, chunk):
        k = min(chunk, trials - start)
        for j, t in enumerate(range(start, start + k)):
            base, pert, omegas[j] = stability_trial(rows, n, tau, seed, t)
            pairs[j, 0], pairs[j, 1] = base.entries, pert.entries
            fro[t] = float(np.linalg.norm(base.entries - pert.entries))
        signs, sums = run_online_batch(alg, pairs[:k].reshape(2 * k, rows, n),
                                       omegas[:k].reshape(2 * k))
        signs = signs.reshape(k, 2, n)
        d_h[start:start + k] = np.count_nonzero(signs[:, 0] != signs[:, 1], axis=1)
        ok[start:start + k] = (np.max(np.abs(sums), axis=1) <= threshold).reshape(k, 2)
    qs = np.quantile(d_h, [0.0, 0.25, 0.5, 0.75, 1.0])
    quantiles = {f"q{int(q * 100):03d}": float(v)
                 for q, v in zip((0.0, 0.25, 0.5, 0.75, 1.0), qs)}
    if float(np.std(fro)) < 1e-12:
        fit_l, fit_f = 0.0, float(np.mean(d_h))
    else:
        fit_l, fit_f = np.polyfit(fro, d_h.astype(float), 1)
    return StabilityReport(rho=rho, trials=trials, n=n, rows=rows,
                           threshold=threshold, d_hamming=d_h, frobenius=fro,
                           success_rate=float(np.mean(ok[:, 0])),
                           success_rate_perturbed=float(np.mean(ok[:, 1])),
                           quantiles=quantiles, fit_f=float(fit_f), fit_L=float(fit_l))
