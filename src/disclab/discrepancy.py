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

For speed the walk is blocked.  A block is 2^q candidates, with q the
largest value for which an (M, 2^q) array of the scan dtype fits in
``_BLOCK_BYTES`` = 2^18 bytes (at least 0, at most n - 1), so the fixed
cost of a block's few ufunc calls is spread over as many candidates as
fit in cache whatever M and the dtype are.  The low q Gray bits are
expanded once into a suffix table stored row-major as an (M, 2^q) array,
column r holding the change of the row sums when the set bits of gray(r)
flip.  It is built by reflection doubling, T_{j+1} = [T_j, reverse(T_j)
- 2 M[:, j+1]], in O(M 2^q) subtractions (``_suffix_table``).  Each block
adds the high-bit row sums to every column of the table in one
preallocated (M, 2^q) buffer and reduces max |.| over the M rows
(``max_abs_rows``), giving the 2^q candidates' norms in table order.  An
even block visits them in that order.  An odd block visits them
reversed, by the reflection identity gray(2^q-1-r) = gray(r) XOR 2^(q-1),
so it yields the norms reversed and the global visiting order is
preserved exactly.  The walk code of a block's r-th candidate is computed
from its position: the high bits above gray(r) XOR parity * 2^(q-1).

Scan dtype (``scan_precision``).  Let S = max_i sum_j |M_ij|; every row
sum, prefix or suffix sum of a candidate is at most S in absolute value,
and a table entry at most 2S.  Integer entries are scanned in the
narrowest of int8, int16, int32 and int64 that holds 3S, so the scan is
exact, and an instance with 3S beyond int64 is refused with a
``ParameterError``; values are reported in int64.  Float entries are scanned
in float32 (float64 if 3S overflows it).  Integer tables are built in the
scan dtype, which holds every entry; float tables are summed in float64
and cast once.  The high-bit running sums stay wide (int64 or float64) and
are cast once per block, so the drift along the walk is one float64
rounding per block, and each block adds one float32 rounding of its own
that does not carry over.

Re-decision.  Every reported value and row-sum vector is ``disc_value``
of the witness, and a candidate whose scanned norm lies within the
scan's slack of a decision (the running minimum, or an enumeration
threshold) is decided on that direct product.  Integer scans have slack
0.  For floats, let u be the scan dtype's unit roundoff (eps/2), w that
of float64, and t the scan dtype's smallest subnormal, which bounds the
absolute error of a rounding in the subnormal range.  Against the exact
row sum, the wide running sum errs by at most (steps + n) w S (n - 1
additions for the start, one per block), the wide table entry by
2q w S, and the direct product ``disc_value`` by n w S.  The table bound
has room to spare: a doubled entry is -2 times a sequential float64 sum
of at most q of the M_ij, low bits first (doubling is exact), whose
partial sums are at most S, so it errs by at most 2(q - 1) w S.  The two casts and the narrow addition add
at most u S + 2u S + u S.  |.| and max over rows are 1-Lipschitz, so

    |scanned norm - disc_value norm| <= (4u + (steps + 4n) w) S + (steps + 4n + 4) t,

up to second-order terms, which the slack 2 * (right-hand side) absorbs
with room for the float64 rounding of ``best + slack`` and
``threshold +- slack``.  The shared-prefix searches take steps = 0:
their prefix and suffix sums are products of n - k and k terms.

The decisions that use the slack s: the exact solver skips a block whose
least scanned norm exceeds best + s (every direct norm there exceeds
best), and otherwise re-decides every candidate whose scanned norm is at
most best + s and at most the block's least + 2s (any other has a direct
norm above best or above the least candidate's), keeping the first strict
improvement in walk order.  Enumerations and searches take a candidate
scanned at most threshold + s, accept it when scanned below threshold - s
and re-decide it otherwise.

Those bounds are Python floats, and under NumPy 2 (NEP 50) comparing a
float32 array with a Python float rounds the float to float32 first.
Rounding to nearest is monotone, so for float32 v and real x:
``v <= x`` implies ``v <= fl(x)`` (a filter written ``v <= x`` loses no
candidate), and ``v < fl(x)`` implies ``v <= x`` (an acceptance written
``v < x`` accepts no candidate beyond x).  Every candidate filter is
therefore written with ``<=`` and every acceptance without re-decision
with ``<``; the slack never has to absorb the rounding of the bound
itself.  Bounds beyond the scan dtype's range are clamped to it
(``scan_bounds``).  An integer scan takes floor(T) as its filter and
floor(T) + 1 as its acceptance bound: an integer norm v has v <= floor(T)
exactly when v <= T, so every candidate is accepted and none re-decided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import CapacityError, ParameterError, UnsupportedDisorderError
from .instances import Instance

EXACT_MAX_N = 30
ENUMERATE_MAX_N = 26
_INT64_MAX = int(np.iinfo(np.int64).max)

_BLOCK_BYTES = 1 << 18

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


def _max_row_l1(entries: np.ndarray) -> int:
    """S = max_i sum_j |M_ij| of integer-valued entries, exactly.  A float64
    sum of integers that comes out below 2^53 is exact (every partial sum is
    smaller); a larger one is redone in Python integers."""
    s = float(np.abs(entries, dtype=np.float64).sum(axis=1).max())
    if s < 2.0 ** 53:
        return int(s)
    return max(sum(abs(int(x)) for x in row) for row in np.asarray(entries).tolist())


def _work_entries(inst: Instance) -> np.ndarray:
    # int64 keeps rademacher/bernoulli arithmetic exact while S fits in it:
    # no row sum, nor any partial sum of one, exceeds S in absolute value
    if inst.disorder == "gaussian":
        return np.asarray(inst.entries, dtype=np.float64)
    entries = np.asarray(inst.entries)
    # n * max |M_ij| bounds S with no temporary the size of the entries
    if entries.size and entries.shape[-1] * max(-float(entries.min()),
                                                 float(entries.max())) >= 2.0 ** 62:
        s = _max_row_l1(entries)
        if s > _INT64_MAX:
            raise ParameterError(f"integer row sums may leave int64: the largest row l1 "
                                 f"norm is {s}, above {_INT64_MAX}")
    return np.asarray(entries, dtype=np.int64)


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


def scan_precision(entries: np.ndarray, steps: int) -> tuple[np.dtype, float]:
    """(scan dtype, slack) of a cube scan over int64 or float64 ``entries``
    whose wide running sums take ``steps`` additions; the module docstring
    states the dtype rule and proves the slack bound."""
    if entries.dtype.kind in "iu":
        s = _max_row_l1(entries)
        for dtype in (np.int8, np.int16, np.int32, np.int64):
            if 3 * s <= np.iinfo(dtype).max:
                return np.dtype(dtype), 0
        raise ParameterError(f"an integer cube scan needs 3 S within int64, but S = {s}")
    s = float(np.abs(entries).sum(axis=1, dtype=np.float64).max())   # no int64 wrap
    dtype = np.dtype(np.float32 if 3 * s <= float(np.finfo(np.float32).max) else np.float64)
    eps, tiny = float(np.finfo(dtype).eps), float(np.finfo(dtype).smallest_subnormal)
    terms = steps + 4 * entries.shape[1]
    bound = (2 * eps + terms * float(np.finfo(np.float64).eps) / 2) * s + (terms + 4) * tiny
    return dtype, 2.0 * bound


def scan_bounds(dtype: np.dtype, threshold: float, slack: float) -> tuple:
    """(hi, lo): a norm scanned in ``dtype`` is a candidate when <= hi and
    accepted without re-decision when < lo.  Integer scans take (floor(T),
    floor(T) + 1), which decide exactly; float scans take T + slack and
    T - slack, each clamped to the dtype's range so that NEP 50's cast of
    the bound to the dtype cannot overflow."""
    if dtype.kind in "iu":
        top = math.floor(threshold) if math.isfinite(threshold) else threshold
        return top, top + 1
    top = float(np.finfo(dtype).max)
    return tuple(min(max(float(x), -top), top) for x in (threshold + slack, threshold - slack))


def _suffix_table(entries: np.ndarray, q: int, dtype: np.dtype) -> np.ndarray:
    """The (M, 2^q) suffix table: column r sums -2 M[:, j+1] over the set
    bits j of gray(r), so that adding it to the row sums of a candidate with
    the low q bits clear flips those columns.

    Built by reflection doubling, T_{j+1} = [T_j, reverse(T_j) - 2 M[:, j+1]]:
    q vector additions of M 2^j entries each, and no matmul.  Integer tables
    are built in ``dtype``, which holds every entry (|entry| <= 2S <= 3S).
    Float tables are summed in float64 in a half-width array, and the last
    doubling writes both halves cast to ``dtype``, so the float64 copy takes
    no more bytes than a float32 table.
    """
    m, b = entries.shape[0], 1 << q
    table = aligned_empty((m, b), dtype)
    wide = table if dtype.kind in "iu" else np.empty((m, max(b >> 1, 1)), np.float64)
    step = (-2 * entries[:, 1:1 + q]).astype(wide.dtype)
    table[:, 0] = wide[:, 0] = 0
    for j in range(q):
        h = 1 << j
        dst = table if j == q - 1 else wide
        if dst is not wide:
            dst[:, :h] = wide[:, :h]
        np.add(wide[:, h - 1::-1], step[:, j, None], out=dst[:, h:2 * h])
    return table


class _GrayScan:
    """Blocked halved Gray-code walk yielding per-candidate norms in the
    scan dtype of ``scan_precision``."""

    def __init__(self, entries: np.ndarray):
        m, n = entries.shape
        self.entries = entries
        self.dtype = scan_precision(entries, 0)[0]
        fit = _BLOCK_BYTES // (m * self.dtype.itemsize)
        self.q = q = min(max(fit.bit_length() - 1, 0), n - 1)
        self.n_blocks = 1 << (n - 1 - q)
        self.slack = scan_precision(entries, self.n_blocks)[1]
        self.table = _suffix_table(entries, q, self.dtype)
        self.base = entries.sum(axis=1)

    def blocks(self):
        """Yield (parity, gray_high, norms of shape (2^q,)) per block.

        norms[r] is ||M sigma||_inf of the block's r-th candidate in walk
        order, in the scan dtype; the array is reused by the next block.
        An odd block visits table column b-1-r at its step r, since
        gray(b-1-r) = gray(r) XOR (b>>1), so its norms are read reversed.
        """
        m = self.entries.shape[0]
        b = 1 << self.q
        buf = aligned_empty((m, b), self.dtype)
        vals = aligned_empty(b, self.dtype)
        walk = (vals, vals[::-1])
        cur = self.base.copy()                  # wide high-bit row sums
        head = np.empty((m, 1), dtype=self.dtype)
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
            head[:, 0] = cur
            max_abs_rows(head, self.table, buf, vals)
            yield j & 1, gray_high, walk[j & 1]

    def codes(self, parity: int, gray_high: int, rs) -> np.ndarray:
        """Walk codes of within-block candidate positions ``rs``:
        gray(r) XOR parity (b>>1) in the low q bits, gray_high above."""
        r = np.asarray(rs, dtype=np.uint64)
        low = r ^ (r >> np.uint64(1)) ^ np.uint64(parity * ((1 << self.q) >> 1))
        return np.uint64(gray_high << self.q) | low


def _direct_value(inst: Instance, code, order: str = "gray") -> Union[int, float]:
    return disc_value(inst, signs_from_codes([code], inst.cols, order)[0]).value


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
        r = int(vals.argmin())
        if not slack:
            if vals[r] < best:
                best, best_code = vals[r], scan.codes(par, gh, r)
            continue
        if not vals[r] <= best + slack:
            continue
        near = np.flatnonzero((vals <= float(vals[r]) + 2 * slack) & (vals <= best + slack))
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
    hi, lo = scan_bounds(scan.dtype, threshold, scan.slack)
    found = []
    for par, gh, vals in scan.blocks():
        hits = (vals <= hi).nonzero()[0]
        if not hits.size:
            continue
        codes = scan.codes(par, gh, hits)
        keep = vals[hits] < lo
        if not keep.all():
            for i in (~keep).nonzero()[0]:
                keep[i] = _direct_value(inst, codes[i]) <= threshold
            codes = codes[keep]
        found.append(codes)
    del scan            # free its table before the sign matrix is built
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
