"""Independent reference implementations used as test oracles.

Everything here recomputes from scratch (plain loops or one full-space
matrix product) and never touches the incremental / prefix-sharing code
paths it is checking.
"""

import hashlib
import itertools
import math

import numpy as np


def naive_disc_value(entries, sigma):
    """Plain double-loop evaluation of max_i |<row_i, sigma>|."""
    m, n = entries.shape
    best = 0
    for i in range(m):
        s = 0
        for j in range(n):
            s += entries[i][j] * sigma[j]
        best = max(best, abs(s))
    return best


def all_sign_vectors(n, dtype=np.float64):
    """All 2^n sign vectors, lexicographic (+1 before -1, coord 1 major)."""
    codes = np.arange(1 << n, dtype=np.uint64)
    bits = (codes[:, None] >> np.arange(n - 1, -1, -1, dtype=np.uint64)[None, :]) & np.uint64(1)
    return (1 - 2 * bits.astype(np.int64)).astype(dtype)


def pairwise_overlaps(solutions):
    """Normalized overlaps 1 - 2 d_H / n for all unordered pairs, in row order."""
    sols = np.asarray(solutions, dtype=np.int32)
    s, n = sols.shape
    out = []
    for start in range(0, s, 2048):
        block = sols[start:start + 2048]
        gram = block @ sols.T                     # integer inner products
        d = (n - gram) // 2
        for i in range(block.shape[0]):
            row = d[i, start + i + 1:]
            out.append(1.0 - 2.0 * row / n)
    return np.concatenate(out) if out else np.empty(0)


def naive_exact_value(entries):
    """Minimum of the max-norm over all 2^n sign vectors, full recompute."""
    entries = np.asarray(entries)
    sigma = all_sign_vectors(entries.shape[1], dtype=entries.dtype)
    vals = np.abs(sigma @ entries.T).max(axis=1)
    return vals.min()


def gray_first_minimizer(entries):
    """First minimizer of the max-norm in the exact solver's walk order.

    sigma(1) = +1; candidate i = 0, 1, ... visits g = i XOR (i >> 1), and
    bit b of g sets column b+2 to -1.  One full-space recompute.
    """
    entries = np.asarray(entries)
    n = entries.shape[1]
    g = np.arange(1 << (n - 1), dtype=np.int64)
    g ^= g >> 1
    sigma = np.ones((g.shape[0], n), dtype=entries.dtype)
    for b in range(n - 1):
        sigma[((g >> b) & 1) == 1, b + 1] = -1
    vals = np.abs(sigma @ entries.T).max(axis=1)
    return sigma[int(np.argmin(vals))]


def gray_suffix_table(entries, q):
    """The exact solver's (M, 2^q) suffix table from its definition: column r
    sums -2 * M[:, j+1] over the set bits j of gray(r) = r XOR (r >> 1), in
    the entries' own dtype, low bits first."""
    entries = np.asarray(entries)
    table = np.zeros((entries.shape[0], 1 << q), dtype=entries.dtype)
    for r in range(1 << q):
        g = r ^ (r >> 1)
        for j in range(q):
            if (g >> j) & 1:
                table[:, r] += -2 * entries[:, j + 1]
    return table


def naive_solution_set(entries, threshold):
    """Frozen set of sign tuples with max-norm <= threshold."""
    entries = np.asarray(entries)
    sigma = all_sign_vectors(entries.shape[1], dtype=entries.dtype)
    vals = np.abs(sigma @ entries.T).max(axis=1)
    return {tuple(int(x) for x in row) for row in sigma[vals <= threshold]}


def naive_xi_exists(members, k, threshold):
    """Product-space check: some prefix admits per-member suffix completions."""
    n = members[0].cols
    sat = []
    for mem in members:
        ent = np.asarray(mem.entries, dtype=np.float64)
        sigma = all_sign_vectors(n)
        ok = (np.abs(sigma @ ent.T) <= threshold).all(axis=1)
        sat.append(ok.reshape(1 << (n - k), 1 << k))
    per_prefix = np.ones(1 << (n - k), dtype=bool)
    for ok in sat:
        per_prefix &= ok.any(axis=1)
    return bool(per_prefix.any())


def naive_ogp_exists(base, fresh, angles, lo, hi, threshold, m):
    """Brute-force tuple scan over per-member solution-set unions."""
    n = base.cols
    sets = []
    for i in range(m):
        found = set()
        for tau in angles:
            w = math.cos(tau) * base.entries + math.sin(tau) * fresh[i].entries
            for bits in itertools.product((1, -1), repeat=n):
                s = np.array(bits, dtype=float)
                if np.max(np.abs(w @ s)) <= threshold:
                    found.add(bits)
        sets.append(sorted(found))
    for tup in itertools.product(*sets):
        ok = True
        for i in range(m):
            for j in range(i + 1, m):
                d = sum(a != b for a, b in zip(tup[i], tup[j]))
                o = 1.0 - 2.0 * d / n
                if not lo <= o <= hi:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def potential_sign(lam, partial, column):
    """One PotentialOnline decision as two separate log-sum-cosh values of
    1-d arrays (the single-instance formula); ties go to +1."""
    def log_sum_cosh(a):
        m = float(np.max(np.abs(a)))
        return m + float(np.log(np.sum(np.exp(a - m) + np.exp(-a - m)))) - math.log(2.0)
    plus = log_sum_cosh(lam * (partial + column))
    minus = log_sum_cosh(lam * (partial - column))
    return 1 if plus <= minus else -1


def random_signs(entries, omega):
    """RandomSigningOnline's signs by its per-column definition: sign t is
    the low bit of word 0 of the scalar Philox block (t, lo, hi, 3) under
    key omega, with (lo, hi) the 32-bit halves of the little-endian 8-byte
    BLAKE2b digest of column t's bytes (entries as int64 or float64)."""
    from disclab import philox
    entries = np.asarray(entries)
    key = (int(omega) & 0xFFFFFFFF, int(omega) >> 32)
    out = []
    for t in range(entries.shape[1]):
        raw = np.ascontiguousarray(entries[:, t]).tobytes()
        v = int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "little")
        word = philox.philox4x32_scalar((t, v & 0xFFFFFFFF, v >> 32, 3), key)[0]
        out.append(1 - 2 * (word & 1))
    return np.array(out, dtype=np.int8)


def full_draw_box_probability(covariance, half_width, samples, seed, chunk=1 << 14):
    """Monte Carlo P[max_i |Z_i| <= half_width] that draws all m coordinates
    of every sample, correlates them, then counts the samples inside the
    box.  Factor and draws as in ``theory.mc_box_probability``."""
    from disclab import philox
    from disclab.theory import correlate
    cov = np.asarray(covariance, dtype=np.float64)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        chol = v * np.sqrt(np.clip(w, 0.0, None))
    dim = np.arange(cov.shape[0], dtype=np.uint64)[:, None]
    hits = 0
    for start in range(0, samples, chunk):
        idx = np.arange(start, min(samples, start + chunk), dtype=np.uint64)[None, :]
        x = np.abs(correlate(chol, philox.gaussians(seed, idx, dim, 4)))
        hits += int(np.count_nonzero(x.max(axis=0) <= half_width))
    return hits / samples


def online_signs(entries, rule, lam=None):
    """Greedy or potential signs of one (M, n) instance replayed from the
    definition, one column at a time: sign t compares the two updated sums
    partial +- column t (ties go to +1), then ``partial += s * column``.
    Greedy compares max |.|; potential decides by ``potential_sign`` at lam,
    1/sqrt(M) when lam is None.  Entries run as float64 or int64."""
    entries = np.asarray(entries)
    entries = entries.astype(np.float64 if entries.dtype.kind == "f" else np.int64)
    rows, n = entries.shape
    if lam is None:
        lam = 1.0 / np.sqrt(rows)
    partial = np.zeros(rows, dtype=entries.dtype)
    out = []
    for t in range(n):
        column = entries[:, t]
        if rule == "greedy":
            plus = np.max(np.abs(partial + column)) <= np.max(np.abs(partial - column))
            s = 1 if plus else -1
        elif rule == "potential":
            s = potential_sign(lam, partial, column)
        else:
            raise ValueError(f"no online oracle for {rule!r}")
        partial += s * column
        out.append(s)
    return np.array(out, dtype=np.int8)
