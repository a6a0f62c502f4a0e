"""Discrepancy evaluation and exact minimization over sign vectors.

The exact solver fixes sigma(1) = +1 (global sign flips preserve the
max-row-sum norm) and walks the remaining 2^(n-1) sign vectors in
binary-reflected Gray-code order, so consecutive candidates differ in one
coordinate and the row-sum vector is updated at O(M) cost per step.

Enumeration convention (documented so ties are reproducible): free
coordinates are columns 2..n; bit b of the Gray code corresponds to
column b+2, bit value 1 meaning sign -1.  Candidate index i visits code
g = i XOR (i >> 1) for i = 0, 1, ...; the walk starts at the all-plus
vector and flips column 2 most often.  The argmin reported is the first
minimizer in this order.  ``signs_from_codes`` / ``codes_from_signs``
convert between sign vectors and these "gray" codes, or the searches'
"lex" codes.

For speed the walk is blocked.  The low q Gray bits are expanded into a
suffix table stored row-major as an (M, 2^q) array, one column per
within-block candidate, in two contiguous copies: table order for even
blocks, and column-reversed for odd blocks, which relies on the
reflection identity gray(2^q-1-r) = gray(r) XOR 2^(q-1), so the global
visiting order is preserved exactly.  Each block adds the high-bit row
sums to every column of its table in one preallocated (M, 2^q) buffer and
reduces max |.| over the M rows (``max_abs_rows``), giving the 2^q
candidates' norms in walk order.

Gaussian row sums accumulate rounding along the walk, so every reported
value and row-sum vector is recomputed by ``disc_value`` from the
witness, and candidates whose scanned norm lies within a rounding bound
of a decision (the running minimum, or an enumeration threshold) are
decided on that direct product.  Integer disorders scan exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import CapacityError, ParameterError, UnsupportedDisorderError
from .instances import Instance

EXACT_MAX_N = 30
ENUMERATE_MAX_N = 26

_BLOCK_BITS = 12

SIGN_ORDERS = ("gray", "lex")


def as_sign_vector(sigma, n: int | None = None) -> np.ndarray:
    """Validate and return a +-1 vector as int8."""
    arr = np.asarray(sigma)
    if arr.ndim != 1:
        raise ParameterError(f"sign vector must be 1-d, got shape {arr.shape}")
    if not np.all(np.abs(arr) == 1):
        raise ParameterError("sign vector coordinates must be exactly -1 or +1")
    if n is not None and arr.shape[0] != n:
        raise ParameterError(f"sign vector has length {arr.shape[0]}, expected {n}")
    return arr.astype(np.int8)


def sign_string(sigma) -> str:
    return "".join("+" if s > 0 else "-" for s in np.asarray(sigma))


def parse_sign_string(s: str) -> np.ndarray:
    if not s or any(ch not in "+-" for ch in s):
        raise ParameterError(f"sign string must be nonempty over '+-', got {s!r}")
    return np.array([1 if ch == "+" else -1 for ch in s], dtype=np.int8)


def _code_bits(n: int, order: str) -> tuple[np.ndarray, int]:
    """(bit position of each coded coordinate, index of the first coded one).

    "gray": the exact solver's walk codes; sigma(1) = +1 is implied and bit
    b holds coordinate b+2.  "lex": bit n-j holds coordinate j, so ascending
    codes order the cube lexicographically with +1 < -1.  A set bit means -1.
    """
    if order == "gray":
        return np.arange(n - 1, dtype=np.uint64), 1
    if order == "lex":
        return np.arange(n - 1, -1, -1, dtype=np.uint64), 0
    raise ParameterError(f"unknown sign-code order {order!r}, expected one of {SIGN_ORDERS}")


def signs_from_codes(codes, n: int, order: str) -> np.ndarray:
    """uint64 codes -> (len(codes), n) int8 sign matrix in the given order."""
    shifts, first = _code_bits(n, order)
    codes = np.asarray(codes, dtype=np.uint64)
    out = np.ones((codes.shape[0], n), dtype=np.int8)
    bits = (codes[:, None] >> shifts[None, :]) & np.uint64(1)
    out[:, first:] = 1 - 2 * bits.astype(np.int8)
    return out


def codes_from_signs(signs, order: str) -> np.ndarray:
    """Inverse of ``signs_from_codes``: (count, n) signs -> uint64 codes.

    In "gray" order coordinate 1 carries no bit; it is +1 for every vector
    the exact walk visits.
    """
    signs = np.asarray(signs)
    shifts, first = _code_bits(signs.shape[1], order)
    bits = (signs[:, first:] < 0).astype(np.uint64)
    return bits @ (np.uint64(1) << shifts)


@dataclass(frozen=True)
class DiscrepancyResult:
    value: Union[int, float]        # max_i |row_sums_i|
    argmin: np.ndarray              # sign vector achieving value
    row_sums: np.ndarray            # M * sigma for that vector


def _work_entries(inst: Instance) -> np.ndarray:
    # int64 keeps rademacher/bernoulli arithmetic exact
    if inst.disorder == "gaussian":
        return np.asarray(inst.entries, dtype=np.float64)
    return np.asarray(inst.entries, dtype=np.int64)


def _native_value(x):
    return float(x) if isinstance(x, (float, np.floating)) else int(x)


def disc_value(inst: Instance, sigma) -> DiscrepancyResult:
    """Row sums M*sigma and their max absolute value for one sign vector."""
    sig = as_sign_vector(sigma, inst.cols)
    entries = _work_entries(inst)
    row_sums = entries @ sig.astype(entries.dtype)
    value = _native_value(np.max(np.abs(row_sums)))
    return DiscrepancyResult(value=value, argmin=sig, row_sums=row_sums)


def aligned_empty(shape, dtype) -> np.ndarray:
    """An uninitialized array whose data starts on a 64-byte boundary.  numpy
    aligns to 16 bytes only, and on a 2-core Xeon ``max_abs_rows`` into an
    8 x 2^12 float64 buffer off a cache line took 44-49 us, aligned 36-39."""
    dtype = np.dtype(dtype)
    size = int(np.prod(shape)) * dtype.itemsize
    raw = np.empty(size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + size].view(dtype).reshape(shape)


def max_abs_rows(a, b, buf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = max over axis 0 of |a + b|, evaluated in the preallocated buf.

    The cube-scan kernel: ``a`` and ``b`` broadcast to buf's shape, whose
    leading axis holds the M rows, so the reduction is an elementwise
    maximum of contiguous per-row slabs.
    """
    np.add(a, b, out=buf)
    np.abs(buf, out=buf)
    return np.maximum.reduce(buf, axis=0, out=out)


class _GrayScan:
    """Blocked halved Gray-code walk yielding per-candidate norms."""

    def __init__(self, entries: np.ndarray):
        m, n = entries.shape
        self.entries = entries
        self.q = q = min(_BLOCK_BITS, n - 1)
        b = 1 << q
        self.n_blocks = 1 << (n - 1 - q)
        r = np.arange(b, dtype=np.uint64)
        gray = r ^ (r >> np.uint64(1))
        bits = (signs_from_codes(gray, q + 1, "gray")[:, 1:] < 0).astype(entries.dtype)
        suffix = bits @ (-2 * entries[:, 1:1 + q]).T             # (b, M)
        self.low = (gray, gray ^ np.uint64(b >> 1))
        # gray(b-1-r) = gray(r) ^ (b>>1): odd blocks read the table reversed
        self.tables = (np.ascontiguousarray(suffix.T),
                       np.ascontiguousarray(suffix.T[:, ::-1]))  # (M, b) each
        self.base = entries.sum(axis=1)
        self.slack = self._slack(entries, self.n_blocks)

    @staticmethod
    def _slack(entries: np.ndarray, steps: int) -> float:
        """Bound on |scanned norm - disc_value norm| of any candidate.

        Every partial signed row sum is at most S = max_i sum_j |M_ij| in
        absolute value, so each rounded addition errs by at most eps*S/2:
        at most ``steps`` along the walk, fewer than 2n in the table entry
        and the final add, and fewer than n in the direct product.  The
        factor 4 absorbs the second-order terms.  Integers scan exactly.
        """
        if entries.dtype != np.float64:
            return 0
        s = float(np.abs(entries).sum(axis=1).max())
        return 4.0 * (steps + 3 * entries.shape[1]) * float(np.finfo(np.float64).eps) * s

    def blocks(self):
        """Yield (parity, gray_high, norms of shape (2^q,)) per block.

        norms[r] is ||M sigma||_inf of the block's r-th candidate in walk
        order; the array is reused by the next block.
        """
        m = self.entries.shape[0]
        b = 1 << self.q
        buf = aligned_empty((m, b), self.entries.dtype)
        vals = aligned_empty(b, self.entries.dtype)
        cur = self.base.copy()
        gray_high = 0
        for j in range(self.n_blocks):
            if j:
                bit = (j & -j).bit_length() - 1
                col = self.entries[:, 1 + self.q + bit]
                if (gray_high >> bit) & 1:
                    cur += 2 * col
                    gray_high ^= 1 << bit
                else:
                    cur -= 2 * col
                    gray_high |= 1 << bit
            par = j & 1
            yield par, gray_high, max_abs_rows(cur[:, None], self.tables[par], buf, vals)

    def codes(self, parity: int, gray_high: int, rs) -> np.ndarray:
        """Walk codes of within-block candidate positions ``rs``."""
        return np.uint64(gray_high << self.q) | self.low[parity][rs]


def _direct_value(inst: Instance, code) -> Union[int, float]:
    return disc_value(inst, signs_from_codes([code], inst.cols, "gray")[0]).value


def exact_discrepancy(inst: Instance, max_n: Optional[int] = None) -> DiscrepancyResult:
    """Global minimum of max_i |(M sigma)_i| over all sign vectors, for n up
    to ``max_n`` (None: ``EXACT_MAX_N``).

    The minimum is decided on direct products: candidates whose scanned
    norm is within the scan's rounding bound of the running minimum are
    re-evaluated by ``disc_value``, and the first minimizer in walk order
    wins.  The value and row sums reported are ``disc_value`` of it.
    """
    n = inst.cols
    max_n = EXACT_MAX_N if max_n is None else max_n
    if n > max_n:
        raise CapacityError(f"exact solve for n={n} exceeds max_n={max_n}")
    scan = _GrayScan(_work_entries(inst))
    slack = scan.slack
    best = np.inf
    best_code = np.uint64(0)
    for par, gh, vals in scan.blocks():
        r = int(np.argmin(vals))
        if not vals[r] < best + slack:
            continue
        if not slack:
            best, best_code = vals[r], scan.codes(par, gh, r)
            continue
        near = np.flatnonzero((vals <= vals[r] + 2 * slack) & (vals < best + slack))
        for code in scan.codes(par, gh, near):
            value = _direct_value(inst, code)
            if value < best:
                best, best_code = value, code
    argmin = signs_from_codes([best_code], n, "gray")[0]
    return disc_value(inst, argmin)


def enumerate_below(inst: Instance, threshold: float,
                    max_n: Optional[int] = None) -> np.ndarray:
    """All sign vectors with max_i |(M sigma)_i| <= threshold (inclusive),
    for n up to ``max_n`` (None: ``ENUMERATE_MAX_N``).

    Membership is that of ``disc_value``: a candidate whose scanned norm is
    within the scan's rounding bound of the threshold is re-decided on the
    direct product.  Returns a (count, n) int8 matrix, closed under global
    flip: first the solutions with sigma(1) = +1 in walk order, then their
    negations in the same order.
    """
    n = inst.cols
    max_n = ENUMERATE_MAX_N if max_n is None else max_n
    if n > max_n:
        raise CapacityError(f"enumeration for n={n} exceeds max_n={max_n}")
    scan = _GrayScan(_work_entries(inst))
    slack = scan.slack
    found = []
    for par, gh, vals in scan.blocks():
        hits = np.flatnonzero(vals <= threshold + slack)
        if not hits.size:
            continue
        codes = scan.codes(par, gh, hits)
        if slack:
            keep = vals[hits] <= threshold - slack
            for i in np.flatnonzero(~keep):
                keep[i] = _direct_value(inst, codes[i]) <= threshold
            codes = codes[keep]
        found.append(codes)
    if not found:
        return np.empty((0, n), dtype=np.int8)
    half = signs_from_codes(np.concatenate(found), n, "gray")
    return np.concatenate([half, -half], axis=0)


def sbp_membership(inst: Instance, sigma, kappa: float) -> bool:
    """max_i |<row_i, sigma>| <= kappa * sqrt(n), inclusive, no epsilon."""
    if inst.disorder != "gaussian":
        raise UnsupportedDisorderError(
            f"perceptron membership is defined for gaussian disorder, got {inst.disorder!r}")
    if not kappa > 0:
        raise ParameterError(f"kappa must be positive, got {kappa}")
    res = disc_value(inst, sigma)
    return bool(res.value <= kappa * np.sqrt(inst.cols))


def enumerate_solutions(inst: Instance, kappa: float,
                        max_n: Optional[int] = None) -> np.ndarray:
    """The full solution set {sigma : ||M sigma||_inf <= kappa sqrt(n)}."""
    if not kappa > 0:
        raise ParameterError(f"kappa must be positive, got {kappa}")
    return enumerate_below(inst, kappa * np.sqrt(inst.cols), max_n=max_n)
