"""Reference computations for the benchmark's output checks.

Nothing here imports disclab.  Each function recomputes a quantity from
its definition, by a route that shares no code with the program:

* a pure-Python Philox4x32-10 (pinned by the Random123 known-answer
  vectors in ``KNOWN_ANSWERS``), the entry maps built on it, and a replay
  of the column-hash-keyed ``random`` online signing;
* chunked brute force over every sign vector, for exact minima, solution
  sets, SBP counts and the existence of shared-prefix and overlap-window
  tuples;
* a replay of greedy online signing and a check of every potential step;
* pairwise Hamming-distance counts of a solution set;
* Gaussian box probabilities from ``scipy.stats.multivariate_normal``;
* SHA-256 of an output file's bytes.

Sign-vector codes are lexicographic: coordinate j of an n-vector is bit
n-1-j of its code, and a set bit means sign -1.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

MASK32 = 0xFFFFFFFF

# (counter, key) -> output, from Salmon et al., "Parallel Random Numbers:
# As Easy as 1, 2, 3" (SC'11), Random123 kat_vectors for philox4x32-10.
KNOWN_ANSWERS = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((MASK32,) * 4, (MASK32, MASK32), (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]

# disclab's per-family stream tags (third counter word of an entry)
STREAM_TAG = {"gaussian": 0, "rademacher": 1}


# ---------------------------------------------------------------------------
# Philox4x32-10 and the entry maps built on it
# ---------------------------------------------------------------------------

def philox(counter, key):
    """Philox4x32-10 on plain integers: 4-word counter, 2-word key."""
    x0, x1, x2, x3 = (w & MASK32 for w in counter)
    k0, k1 = key[0] & MASK32, key[1] & MASK32
    for _ in range(10):
        p0 = 0xD2511F53 * x0
        p1 = 0xCD9E8D57 * x2
        x0, x1, x2, x3 = (((p1 >> 32) ^ x1 ^ k0) & MASK32, p1 & MASK32,
                          ((p0 >> 32) ^ x3 ^ k1) & MASK32, p0 & MASK32)
        k0 = (k0 + 0x9E3779B9) & MASK32
        k1 = (k1 + 0xBB67AE85) & MASK32
    return x0, x1, x2, x3


def key_of(seed: int):
    return seed & MASK32, seed >> 32


def derive_seed(seed: int, a: int, b: int = 0) -> int:
    """disclab's sub-stream seed: words 0 and 1 of block (a, b, 7, 0)."""
    o = philox((a, b, 7, 0), key_of(seed))
    return (o[0] << 32) | o[1]


def _unit_open(hi: int, lo: int) -> float:
    return ((((hi << 32) | lo) >> 11) + 0.5) * 2.0 ** -53


def entry(seed: int, disorder: str, row: int, col: int):
    """Entry (row, col) of a generated gaussian or rademacher instance."""
    o = philox((row, col, STREAM_TAG[disorder], 0), key_of(seed))
    if disorder == "gaussian":   # Box-Muller on two open-interval uniforms
        u1, u2 = _unit_open(o[0], o[1]), _unit_open(o[2], o[3])
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return 1 - 2 * (o[0] & 1)


def instance_entries(rows: int, cols: int, disorder: str, seed: int) -> np.ndarray:
    """A whole instance, entry by entry (use for small instances)."""
    vals = [[entry(seed, disorder, i, j) for j in range(cols)] for i in range(rows)]
    return np.array(vals, dtype=np.float64 if disorder == "gaussian" else np.int64)


def entry_mismatches(entries: np.ndarray, disorder: str, seed: int,
                     samples: int, rng) -> list:
    """Positions among ``samples`` random ones where ``entries`` differs
    from the definition; gaussian entries compare to 1e-12 relative."""
    rows, cols = entries.shape
    bad = []
    for _ in range(samples):
        i, j = rng.randrange(rows), rng.randrange(cols)
        want = entry(seed, disorder, i, j)
        got = entries[i, j]
        if disorder == "gaussian":
            ok = abs(got - want) <= 1e-12 * max(1.0, abs(want))
        else:
            ok = int(got) == want
        if not ok:
            bad.append((i, j))
    return bad


# ---------------------------------------------------------------------------
# Brute force over sign vectors
# ---------------------------------------------------------------------------

def lex_signs(codes, width: int) -> np.ndarray:
    """(len(codes), width) +-1 matrix of lexicographic codes."""
    codes = np.asarray(codes, dtype=np.int64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return 1 - 2 * ((codes[:, None] >> shifts[None, :]) & 1)


def sign_code(s: str) -> int:
    """Lexicographic code of a '+-' string."""
    return int(s.replace("+", "0").replace("-", "1"), 2) if s else 0


def _signed_sums(cols: np.ndarray) -> np.ndarray:
    """(2^w, M): cols @ sigma for every sign vector sigma, lexicographic."""
    w = cols.shape[1]
    return lex_signs(np.arange(1 << w), w).astype(cols.dtype) @ cols.T


def all_values(entries: np.ndarray, first_plus: bool = False) -> np.ndarray:
    """max_i |(M sigma)_i| for every sigma, indexed by lexicographic code.

    Every vector is evaluated: the columns are split into a leading and a
    trailing block, each block's 2^w signed sums are tabulated, and every
    (leading, trailing) pair is added.  With ``first_plus`` only the
    2^(n-1) vectors with sigma_1 = +1 (codes below 2^(n-1)) are returned.
    """
    m, n = entries.shape
    low = n // 2
    lead, trail = _signed_sums(entries[:, : n - low]), _signed_sums(entries[:, n - low:])
    if first_plus:
        lead = lead[: max(1, lead.shape[0] // 2)]
    out = np.empty(lead.shape[0] * trail.shape[0], dtype=entries.dtype)
    step = max(1, (1 << 20) // (trail.shape[0] * m))
    width = trail.shape[0]
    for start in range(0, lead.shape[0], step):
        block = lead[start:start + step]
        vals = np.abs(block[:, None, :] + trail[None, :, :]).max(axis=2)
        out[start * width:(start + block.shape[0]) * width] = vals.ravel()
    return out


def tolerance(disorder: str, threshold: float) -> float:
    """Slack for deciding a gaussian threshold; integer sums are exact."""
    return 1e-9 * max(1.0, abs(threshold)) if disorder == "gaussian" else 0.0


def below(values: np.ndarray, threshold: float, tol: float):
    """(strict, loose) membership masks: values <= threshold -/+ tol.

    A program whose row sums drift by less than ``tol`` may decide any
    vector in loose & ~strict either way; every other vector is decided.
    """
    return values <= threshold - tol, values <= threshold + tol


def gray_index(codes_lex: np.ndarray, n: int) -> np.ndarray:
    """Position in disclab's halved Gray walk of sigma_1 = +1 vectors.

    The walk visits Gray code g = i ^ (i >> 1) at step i, and bit b of g
    is coordinate b+2 (bit set = sign -1): the reverse of the low n-1
    lexicographic bits.
    """
    codes = np.asarray(codes_lex, dtype=np.int64)
    g = np.zeros_like(codes)
    for b in range(n - 1):
        g |= ((codes >> (n - 2 - b)) & 1) << b
    i = g.copy()
    shift = 1
    while shift < n:
        i ^= i >> shift
        shift <<= 1
    return i


def hamming_counts(codes: np.ndarray, n: int) -> np.ndarray:
    """counts[d] = number of unordered pairs at Hamming distance d."""
    codes = np.asarray(codes, dtype=np.uint64)
    counts = np.zeros(n + 1, dtype=np.int64)
    for i in range(codes.shape[0] - 1):
        d = np.bitwise_count(codes[i + 1:] ^ codes[i])
        counts += np.bincount(d, minlength=n + 1)
    return counts


def window_pairs(codes_a: np.ndarray, codes_b: np.ndarray, n: int,
                 lo: float, hi: float) -> np.ndarray:
    """(len(a), len(b)) mask of pairs whose overlap 1 - 2d/n is in [lo, hi]."""
    a = np.asarray(codes_a, dtype=np.uint64)[:, None]
    b = np.asarray(codes_b, dtype=np.uint64)[None, :]
    o = 1.0 - 2.0 * np.bitwise_count(a ^ b).astype(np.float64) / n
    return (o >= lo) & (o <= hi)


# ---------------------------------------------------------------------------
# Online signing
# ---------------------------------------------------------------------------

def greedy_signs(entries: np.ndarray):
    """Greedy online signs (minimize the max-norm of the new sums, ties +1)
    and the final sums, accumulated column by column."""
    m, n = entries.shape
    partial = np.zeros(m, dtype=entries.dtype)
    out = np.empty(n, dtype=np.int64)
    for t in range(n):
        col = entries[:, t]
        s = 1 if np.abs(partial + col).max() <= np.abs(partial - col).max() else -1
        out[t] = s
        partial = partial + col if s == 1 else partial - col
    return out, partial


def potential_violations(entries: np.ndarray, sigma: np.ndarray, lam: float) -> list:
    """Steps where sigma's sign does not minimize sum_i cosh(lam * w_i),
    up to 1e-9 relative (exact ties go to +1 in the program)."""
    m, n = entries.shape
    partial = np.zeros(m)
    bad = []
    for t in range(n):
        col = entries[:, t]
        phi = []
        for s in (1, -1):
            a = lam * (partial + s * col)
            phi.append(np.logaddexp.reduce(np.concatenate([a, -a])))
        chosen, other = (phi[0], phi[1]) if sigma[t] == 1 else (phi[1], phi[0])
        if chosen > other + 1e-9 * max(1.0, abs(other)):
            bad.append(t)
        partial = partial + sigma[t] * col
    return bad


def random_signs(entries: np.ndarray, omega: int) -> np.ndarray:
    """The 'random' online signs: step t draws Philox block
    (t, lo, hi, 3) under key omega, where (lo, hi) are the 32-bit halves
    of the 8-byte BLAKE2b digest of the column's little-endian bytes."""
    dtype = "<f8" if entries.dtype.kind == "f" else "<i8"
    key = key_of(omega)
    out = np.empty(entries.shape[1], dtype=np.int64)
    for t in range(entries.shape[1]):
        raw = np.ascontiguousarray(entries[:, t], dtype=dtype).tobytes()
        v = int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "little")
        out[t] = 1 - 2 * (philox((t, v & MASK32, v >> 32, 3), key)[0] & 1)
    return out


def row_sums(entries: np.ndarray, sigma) -> np.ndarray:
    """Direct product M sigma (exact for integer entries)."""
    return entries @ np.asarray(sigma, dtype=entries.dtype)


# ---------------------------------------------------------------------------
# Gaussian box probability and file hashes
# ---------------------------------------------------------------------------

def box_probability(cov: np.ndarray, half_width: float) -> float:
    """P[max_i |Z_i| <= half_width] for Z ~ N(0, cov), by scipy's
    multivariate normal CDF over the box."""
    from scipy.stats import multivariate_normal

    m = cov.shape[0]
    upper = np.full(m, half_width)
    return float(multivariate_normal(mean=np.zeros(m), cov=cov).cdf(
        upper, lower_limit=-upper))


def equicorrelated(m: int, rho: float) -> np.ndarray:
    """Unit-diagonal covariance with every off-diagonal equal to rho."""
    cov = np.full((m, m), rho)
    np.fill_diagonal(cov, 1.0)
    return cov


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
