"""Empirical solution-space geometry: overlap statistics, exhaustive
searches for forbidden solution tuples over correlated ensembles, and an
input-stability probe for algorithms.

At desk scale the forbidden tuple sets may well be non-empty; searches
therefore return a witness certificate (or None), never an emptiness
claim.

Lexicographic code convention used by the searches: a sign vector maps to
the integer whose bit (n-1-j) is 0 for sigma(j) = +1 and 1 for -1, with
coordinate 1 most significant; ascending codes order Sigma_n
lexicographically with +1 < -1.  "First certificate" always means first
in this order (prefix first, then member suffixes / members in turn).
``signs_from_codes`` and ``codes_from_signs`` with order "lex" convert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import philox
from .discrepancy import (_block_bits, _direct_value, _suffix_table, aligned_empty,
                          codes_from_signs, disc_value, enumerate_below, max_abs_rows,
                          scan_bounds, scan_precision, signs_from_codes)
from .errors import CapacityError, ParameterError, UnsupportedDisorderError
from .instances import Instance, _check_dims, generate, interpolate
from .online import run_online_batch

XI_MAX_N = 22
OGP_MAX_N_PAIR = 18
OGP_MAX_N_TRIPLE = 14

# gram entries per row block of the overlap histogram's pair count
_HISTOGRAM_ENTRIES = 1 << 20
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
    """Number of unordered solution pairs at each Hamming distance 0..n.

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
    sols = np.asarray(solutions)
    if sols.ndim != 2 or sols.shape[0] < 2:
        raise ParameterError("need at least 2 solutions of equal length")
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


def _overlap_vector(members: np.ndarray) -> np.ndarray:
    i, j = np.triu_indices(members.shape[0], 1)       # pairs row-major
    d = np.count_nonzero(members[i] != members[j], axis=1)
    return 1.0 - 2.0 * d / members.shape[1]


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

def _shared_prefix_certificate(members: Sequence[Instance], k: int, threshold: float,
                               max_n: Optional[int]) -> Optional[TupleCertificate]:
    n = members[0].cols
    max_n = XI_MAX_N if max_n is None else max_n
    if n > max_n:
        raise CapacityError(f"tuple search for n={n} exceeds max_n={max_n}")
    if len(members) < 2:
        raise ParameterError("need at least 2 ensemble members")
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}")
    for mem in members[1:]:
        if mem.shape != members[0].shape or mem.disorder != members[0].disorder:
            raise ParameterError("ensemble members must share shape and disorder")
        if not np.array_equal(mem.entries[:, : n - k], members[0].entries[:, : n - k]):
            raise ParameterError(f"members do not share the first n-k={n - k} columns")
    hit = _search_shared_prefix(members, k, threshold)
    if hit is None:
        return None
    p, suffixes = hit
    sigma = signs_from_codes([(p << k) | s for s in suffixes], n, "lex")
    disc = np.array([disc_value(mem, sigma[i]).value for i, mem in enumerate(members)],
                    dtype=float)
    return TupleCertificate(members=sigma, overlaps=_overlap_vector(sigma),
                            disc_values=disc,
                            tau_or_delta={"mode": "suffix_resample", "k": k},
                            threshold=float(threshold))


def _search_shared_prefix(members: Sequence[Instance], k: int,
                          threshold: float) -> Optional[tuple[int, list[int]]]:
    """First (prefix, per-member suffix) in lex order with every member
    satisfying ||M_i sigma_i||_inf <= threshold, or None.

    A blocked scan as in ``_GrayScan``: a block is the 2^c prefixes sharing
    their high n-k-c columns, c + k the largest exponent that keeps an
    (M, 2^(c+k)) scan array within ``_BLOCK_BYTES`` (0 <= c <= n-k).  Lex
    tables (``_suffix_table``): each member's over its k suffix columns then
    the c low prefix columns, one broadcast add of its suffix table and the
    shared low-prefix table; and a shared one over the high columns, which
    plus a member's all-plus row sums is its head for each block.  Entry
    (s, p) of a member's (2^k, 2^c) block norms is low prefix p with suffix
    s; a prefix survives when every member has a norm <= the filter bound
    in its column, and survivors are decided in order from those norms.
    """
    n_pref = members[0].cols - k
    work = [mem.entries for mem in members]
    dtype, slack = scan_precision(np.concatenate(work), 0)
    hi, lo = scan_bounds(dtype, threshold, slack)
    m_rows = members[0].rows
    c = min(max(_block_bits(m_rows, dtype) - k, 0), n_pref)
    shape = (m_rows, 1 << k, 1 << c)
    # float tables are summed in float64; the integer scan dtype holds every entry
    wide = np.dtype(np.float64) if dtype.kind == "f" else dtype
    high = _suffix_table(work[0][:, :n_pref - c], wide, "lex")
    heads = [(w.sum(axis=1)[:, None] + high).astype(dtype) for w in work]
    low = _suffix_table(work[0][:, n_pref - c:n_pref], wide, "lex")[:, None, :]
    tables = [np.add(_suffix_table(w[:, n_pref:], wide, "lex")[:, :, None], low,
                     out=aligned_empty(shape, dtype), casting="same_kind") for w in work]
    buf = aligned_empty(shape, dtype)
    norms = [aligned_empty(shape[1:], dtype) for _ in work]

    def first_suffix(mem, col, prefix):
        # the first suffix of ``prefix`` that ``mem`` admits, or None
        return next((int(r) for r in (col <= hi).nonzero()[0] if col[r] < lo
                     or _direct_value(mem, (prefix << k) | int(r), "lex") <= threshold), None)

    for h in range(high.shape[1]):
        ok = np.ones(1 << c, dtype=bool)
        for head, table, vals in zip(heads, tables, norms):
            max_abs_rows(head[:, h, None, None], table, buf, vals)
            ok &= np.logical_or.reduce(vals <= hi, axis=0)
            if not ok.any():
                break
        for p in ok.nonzero()[0]:
            prefix = (h << c) | int(p)
            suffixes = [first_suffix(mem, vals[:, p], prefix) for mem, vals in zip(members, norms)]
            if None not in suffixes:
                return prefix, suffixes
    return None


def search_xi_sbp(members: Sequence[Instance], k: int, kappa: float,
                  max_n: Optional[int] = None) -> Optional[TupleCertificate]:
    """First m-tuple of perceptron solutions agreeing on the shared prefix
    of a suffix-resampled gaussian ensemble, or None.  ``n`` may be at most
    ``max_n`` (None: ``XI_MAX_N``).

    Exhausts the 2^(n-k) common prefixes crossed with per-member suffix
    completions; threshold kappa * sqrt(n), inclusive.
    """
    if members[0].disorder != "gaussian":
        raise UnsupportedDisorderError("perceptron tuple search needs gaussian disorder")
    if not 0 < kappa < math.inf:
        raise ParameterError(f"kappa must be positive and finite, got {kappa}")
    return _shared_prefix_certificate(members, k, kappa * math.sqrt(members[0].cols), max_n)


def search_xi_disc(members: Sequence[Instance], k: int, c_u: float,
                   max_n: Optional[int] = None) -> Optional[TupleCertificate]:
    """Shared-prefix tuple search at discrepancy threshold c_u * sqrt(M)
    for integer (rademacher / bernoulli) disorder; comparisons are exact
    integer arithmetic against the float threshold.  ``max_n`` is as in
    ``search_xi_sbp``."""
    if members[0].disorder == "gaussian":
        raise UnsupportedDisorderError("discrepancy tuple search needs integer disorder")
    if not 0 < c_u < math.inf:
        raise ParameterError(f"c_u must be positive and finite, got {c_u}")
    return _shared_prefix_certificate(members, k, c_u * math.sqrt(members[0].rows), max_n)


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
                      window, max_n: Optional[int] = None) -> Optional[TupleCertificate]:
    """First m-tuple (lexicographic) of solutions of the interpolated
    instances cos(tau_i) * base + sin(tau_i) * fresh_i whose pairwise
    overlaps all land in the window.

    ``window`` is an OgpWindow, or a raw (lo, hi, bound, m) tuple for
    degenerate windows outside the OgpWindow invariants (its bound, too,
    must be positive and finite).  Each member's
    candidate set is the union over the angle grid of its solution sets;
    the recorded angle is the first witness in grid order.
    """
    if isinstance(window, OgpWindow):
        lo, hi = window.interval
        m = window.m
        threshold = window.bound
    else:
        lo, hi, threshold, m = window
        threshold = float(threshold)
        if not 0 < threshold < math.inf:
            raise ParameterError(f"threshold must be positive and finite, got {threshold}")
    if len(fresh) != m:
        raise ParameterError(f"need {m} fresh instances, got {len(fresh)}")
    if len(angles) == 0:
        raise ParameterError("angle grid must be nonempty")
    n = base.cols
    cap = max_n if max_n is not None else (OGP_MAX_N_PAIR if m == 2 else OGP_MAX_N_TRIPLE)
    if n > cap:
        raise CapacityError(f"tuple search for n={n} exceeds max_n={cap}")

    # each member's sorted codes, and for each the first angle it solves:
    # np.unique's first occurrence in grid order
    member_codes, first_angles = [], []
    for i in range(m):
        per_angle = [codes_from_signs(enumerate_below(interpolate(base, fresh[i], tau),
                                                      threshold, max_n=n), "lex")
                     for tau in angles]
        codes, first = np.unique(np.concatenate(per_angle), return_index=True)
        angle_of = np.repeat(np.arange(len(angles)), [len(c) for c in per_angle])
        member_codes.append(codes)
        first_angles.append(angle_of[first])

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
    taus = [angles[first_angles[i][np.searchsorted(member_codes[i], chosen[i])]]
            for i in range(m)]
    disc = np.array([disc_value(interpolate(base, fresh[i], taus[i]), sigma[i]).value
                     for i in range(m)], dtype=float)
    return TupleCertificate(members=sigma, overlaps=_overlap_vector(sigma),
                            disc_values=disc,
                            tau_or_delta={"mode": "interpolate", "angles": list(taus)},
                            threshold=float(threshold))


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
            base = generate(rows, n, "gaussian", philox.derive_seed(seed, t, 0))
            freshen = generate(rows, n, "gaussian", philox.derive_seed(seed, t, 1))
            pert = interpolate(base, freshen, tau)
            pairs[j, 0] = base.entries
            pairs[j, 1] = pert.entries
            omegas[j] = philox.derive_seed(seed, t, 2)
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
