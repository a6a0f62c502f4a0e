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
``_BLOCK_BYTES`` = 2^18 bytes (``_block_bits``; at most n - 1), so the
fixed cost of a block's few ufunc calls is spread over as many candidates
as fit in cache whatever M and the dtype are.  The low q Gray bits are
expanded once into an (M, 2^q) table, column r holding the change of the
row sums when the set bits of gray(r) flip (``_suffix_table``, "gray"
order).  Block j adds the row sums of high code gray(j) to every column of
the table in one preallocated (M, 2^q) buffer and reduces max |.| over the
M rows (``max_abs_rows``), giving the 2^q candidates' norms in table
order: column c is the candidate with walk code gray(j) * 2^q + gray(c),
in every block.  One query, ``_GrayScan.below``, hands every caller the
codes and norms of a block's candidates scanned at most a bound, in walk
order.  An even block walks its columns upward and an odd one downward,
by the reflection identity gray(2^q-1-r) = gray(r) XOR 2^(q-1), so the
global visiting order is preserved exactly.  The shared-prefix searches
in ``landscape`` scan blocks the same way on "lex" tables.

Scan dtype (``scan_precision``).  Let S = max_i sum_j |M_ij|; every row
sum, prefix or suffix sum of a candidate is at most S in absolute value,
and a table entry at most 2S.  Integer entries are scanned in the
narrowest of int8, int16, int32 and int64 that holds 3S, so the scan is
exact (3S beyond int64 is a ``ParameterError``); values are reported in
int64.  Float entries are scanned in float32 (float64 if 3S overflows
it).  Integer tables are built in the scan dtype; float tables are summed
in float64 and cast once.  The high-bit running sums stay wide and are
cast once per block, so the walk drifts by one float64 rounding per
block, and each block adds one float32 rounding that does not carry over.

Re-decision.  Every reported value and row-sum vector is ``disc_value``
of the witness, and a candidate whose scanned norm lies within the
scan's slack of a decision (the running minimum, or an enumeration
threshold) is decided on that direct product.  Integer scans have slack
0.  For floats, let u be the scan dtype's unit roundoff (eps/2), w that
of float64, and t the scan dtype's smallest subnormal, which bounds the
absolute error of a rounding in the subnormal range.  A doubled table
entry over q columns is -2 times a sequential float64 sum of at most q
of the M_ij (doubling is exact) with partial sums at most S, so it errs
by at most 2(q - 1) w S; the float64 sum of two such entries over
disjoint columns, q in all, by 2q w S.  A scanned row sum is a wide head
plus a wide table entry, each cast once, added in the scan dtype.  The
exact scan's head is its running sum (n - 1 additions for the start, one
per block), erring by (steps + n) w S, and its table covers at most
n - 1 columns.  A search's head is the all-plus row sums (n - 1
additions) plus a high-table entry over q_h columns in one more
addition, (n + 2 q_h) w S, its member table covers the other n - q_h
columns, and it takes steps = 0.  With the direct product ``disc_value``
(n w S) the float64 errors total at most (steps + 4n) w S either way.
The two casts and the narrow addition add at most u S + 2u S + u S.
|.| and max over rows are 1-Lipschitz, so

    |scanned norm - disc_value norm| <= (4u + (steps + 4n) w) S + (steps + 4n + 4) t,

up to second-order terms, which the slack 2 * (right-hand side) absorbs
with room for the float64 rounding of ``best + slack`` and
``threshold +- slack``.

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
from .instances import Instance, _max_row_l1

EXACT_MAX_N = 30
ENUMERATE_MAX_N = 26

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


_SIGN_CHARS = np.frombuffer(b"-+", dtype=np.uint8)


def sign_string(sigma) -> str:
    """'+' for each coordinate > 0 and '-' for any other, in one table lookup."""
    return _SIGN_CHARS.take(np.asarray(sigma) > 0).tobytes().decode("ascii")


def parse_sign_string(s: str) -> np.ndarray:
    if not s or any(ch not in "+-" for ch in s):
        raise ParameterError(f"sign string must be nonempty over '+-', got {s!r}")
    return np.array([1 if ch == "+" else -1 for ch in s], dtype=np.int8)


def _code_layout(n: int, order: str) -> tuple[np.uint64, str, str]:
    """(shift, byte order, bit order) such that the first n bits of
    ``code << shift``, as 8 bytes in that byte order unpacked in that bit
    order, are coordinates 1..n left to right (a set bit means -1).

    "gray": the exact solver's walk codes; sigma(1) = +1 is implied and bit
    b holds coordinate b+2.  "lex": bit n-j holds coordinate j, so ascending
    codes order the cube lexicographically with +1 < -1.
    """
    if order == "gray":
        return np.uint64(1), "<u8", "little"
    if order == "lex":
        return np.uint64(64 - n), ">u8", "big"
    raise ParameterError(f"unknown sign-code order {order!r}, expected one of {SIGN_ORDERS}")


def signs_from_codes(codes, n: int, order: str) -> np.ndarray:
    """uint64 codes -> (len(codes), n) int8 sign matrix in the given order.

    The codes' bytes are unpacked straight into the result, so besides it
    the call holds O(len(codes)) memory."""
    shift, byteorder, bitorder = _code_layout(n, order)
    raw = (np.asarray(codes, dtype=np.uint64) << shift).astype(byteorder, copy=False)
    out = np.unpackbits(raw.view(np.uint8).reshape(-1, 8), axis=1, count=n,
                        bitorder=bitorder).view(np.int8)
    out *= -2
    out += 1
    return out


def codes_from_signs(signs, order: str) -> np.ndarray:
    """Inverse of ``signs_from_codes``: (count, n) signs -> uint64 codes.

    In "gray" order coordinate 1 carries no bit; it is +1 for every vector
    the exact walk visits.
    """
    signs = np.asarray(signs)
    count, n = signs.shape
    shift, byteorder, bitorder = _code_layout(n, order)
    bits = np.zeros((count, 64), dtype=bool)      # one flat pack is far cheaper than per row
    np.less(signs, 0, out=bits[:, :n])
    packed = np.packbits(bits.reshape(-1), bitorder=bitorder).view(byteorder)
    return packed.astype(np.uint64) >> shift


@dataclass(frozen=True)
class DiscrepancyResult:
    value: Union[int, float]        # max_i |row_sums_i|
    argmin: np.ndarray              # sign vector achieving value
    row_sums: np.ndarray            # M * sigma for that vector


def _native_value(x):
    return float(x) if isinstance(x, (float, np.floating)) else int(x)


def disc_value(inst: Instance, sigma) -> DiscrepancyResult:
    """Row sums M*sigma and their max absolute value for one sign vector."""
    sig = as_sign_vector(sigma, inst.cols)
    row_sums = inst.entries @ sig.astype(inst.entries.dtype)
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


def _suffix_table(cols: np.ndarray, dtype: np.dtype, order: str) -> np.ndarray:
    """The (M, 2^q) table of the q columns ``cols``: entry r sums -2 times
    the columns of the set bits of r's code, the change of the row sums when
    they flip.  "gray": the code is gray(r), bit j holds column j, and
    T_{j+1} = [T_j, reverse(T_j) - 2 c_j].  "lex": the code is r, bit j
    holds column q-1-j, and T_{j+1} = [T_j, T_j - 2 c_{q-1-j}].  Integer
    tables are built in ``dtype``, which must hold every entry; float ones
    are summed in float64 in a half-width array and the last doubling
    writes both halves cast to ``dtype``.
    """
    m, q = cols.shape
    b = 1 << q
    table = aligned_empty((m, b), dtype)
    wide = table if dtype.kind in "iu" else np.empty((m, max(b >> 1, 1)), np.float64)
    step = (-2 * (cols if order == "gray" else cols[:, ::-1])).astype(wide.dtype)
    table[:, 0] = wide[:, 0] = 0
    for j in range(q):
        h = 1 << j
        dst = table if j == q - 1 else wide
        if dst is not wide:
            dst[:, :h] = wide[:, :h]
        src = wide[:, h - 1::-1] if order == "gray" else wide[:, :h]
        np.add(src, step[:, j, None], out=dst[:, h:2 * h])
    return table


def _block_bits(rows: int, dtype: np.dtype) -> int:
    """The largest q for which (rows, 2^q) of ``dtype`` fits ``_BLOCK_BYTES``, or 0."""
    return max((_BLOCK_BYTES // (rows * dtype.itemsize)).bit_length() - 1, 0)


class _GrayScan:
    """Blocked halved Gray-code walk yielding per-candidate norms in the
    scan dtype of ``scan_precision``."""

    def __init__(self, entries: np.ndarray):
        m, n = entries.shape
        self.entries = entries
        self.dtype = scan_precision(entries, 0)[0]
        self.q = q = min(_block_bits(m, self.dtype), n - 1)
        self.n_blocks = 1 << (n - 1 - q)
        self.slack = scan_precision(entries, self.n_blocks)[1]
        self.table = _suffix_table(entries[:, 1:1 + q], self.dtype, "gray")
        self.base = entries.sum(axis=1)

    def blocks(self):
        """Yield (j, norms of shape (2^q,)) per block j.

        norms[c] is ||M sigma||_inf, in the scan dtype, of the candidate with
        high code gray(j) and low code gray(c): table order, the same in
        every block.  The array is reused by the next block; ``below`` reads
        it in walk order.
        """
        m = self.entries.shape[0]
        buf = aligned_empty((m, 1 << self.q), self.dtype)
        norms = aligned_empty(1 << self.q, self.dtype)
        cur = self.base.copy()                  # wide high-bit row sums
        head = np.empty((m, 1), dtype=self.dtype)
        for j in range(self.n_blocks):
            if j:
                bit = (j & -j).bit_length() - 1
                step = -2 if ((j ^ (j >> 1)) >> bit) & 1 else 2     # -2 if gray(j) sets it
                cur += step * self.entries[:, 1 + self.q + bit]
            head[:, 0] = cur
            max_abs_rows(head, self.table, buf, norms)
            yield j, norms

    def below(self, j, norms, bound) -> tuple[np.ndarray, np.ndarray]:
        """(walk codes, scanned norms) of block j's candidates scanned at
        most ``bound``, in walk order.  An odd block walks its table columns
        downward, since its step r visits low code gray(r) XOR (b>>1) =
        gray(b-1-r)."""
        c = np.flatnonzero(norms <= bound)
        if j & 1:
            c = c[::-1]
        low = c.astype(np.uint64)
        return np.uint64((j ^ (j >> 1)) << self.q) | (low ^ (low >> np.uint64(1))), norms[c]


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
    scan = _GrayScan(inst.entries)
    slack = scan.slack
    best = np.inf
    best_code = np.uint64(0)
    for j, norms in scan.blocks():
        v = norms.min()
        if not slack:
            if v < best:
                best, best_code = v, scan.below(j, norms, v)[0][0]
            continue
        if not v <= best + slack:
            continue
        for code in scan.below(j, norms, min(float(v) + 2 * slack, best + slack))[0]:
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
    scan = _GrayScan(inst.entries)
    hi, lo = scan_bounds(scan.dtype, threshold, scan.slack)
    found = []
    for j, norms in scan.blocks():
        codes, scanned = scan.below(j, norms, hi)
        keep = scanned < lo
        if not keep.all():
            for i in (~keep).nonzero()[0]:
                keep[i] = _direct_value(inst, codes[i]) <= threshold
            codes = codes[keep]
        found.append(codes)
    del scan            # free its table before the sign matrix is built
    half = signs_from_codes(np.concatenate(found), n, "gray")
    return np.concatenate([half, -half], axis=0)


def sbp_membership(inst: Instance, sigma, kappa: float) -> bool:
    """max_i |<row_i, sigma>| <= kappa * sqrt(n), inclusive, no epsilon."""
    if inst.disorder != "gaussian":
        raise UnsupportedDisorderError(
            f"perceptron membership is defined for gaussian disorder, got {inst.disorder!r}")
    if not 0 < kappa < math.inf:
        raise ParameterError(f"kappa must be positive and finite, got {kappa}")
    res = disc_value(inst, sigma)
    return bool(res.value <= kappa * np.sqrt(inst.cols))


def enumerate_solutions(inst: Instance, kappa: float,
                        max_n: Optional[int] = None) -> np.ndarray:
    """The full solution set {sigma : ||M sigma||_inf <= kappa sqrt(n)}."""
    if not 0 < kappa < math.inf:
        raise ParameterError(f"kappa must be positive and finite, got {kappa}")
    return enumerate_below(inst, kappa * np.sqrt(inst.cols), max_n=max_n)
