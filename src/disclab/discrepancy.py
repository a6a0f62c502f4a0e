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

For speed every search runs on one blocked scan, ``_CubeScan``: in
"gray" order it walks one instance as above, in "lex" order the shared
prefixes of an ensemble whose members share their first n - k columns,
each prefix with every "lex" completion of a member's last k (gray order
has k = 0).  A block is 2^c consecutive prefixes, c the largest value for
which an (M, 2^(k+c)) array of the scan dtype fits in ``_BLOCK_BYTES`` =
2^18 bytes (``_block_bits``), at most the shared free columns, so a
block's few ufunc calls are spread over as many candidates as fit in cache
whatever M and the dtype are.  Each member's table is one ``_suffix_table``
over its k suffix columns then the c low shared columns, an (M, 2^k, 2^c)
array whose entry (s, p) is the change of the row sums when the columns of
suffix code s and low code p flip (gray(p) in gray order).  A block's
head is the all-plus row sums plus a running sum, stepped by -2 (+2)
times each column whose bit the block code (gray(j) for block j in gray
order, j in lex order) sets (clears).  That step depends only on the
lowest set bit b of j and whether the code sets it (lex codes also clear
the bits below), so the scan keeps one step per case: O(M n) memory and
one addition per block.  Block j adds the head to every table column in
one preallocated buffer and reduces max |.| over the M rows
(``_CubeScan.norms``), giving its candidates' norms in table order.  In
gray order column p is walk code gray(j) * 2^c + gray(p), and
``_CubeScan.below`` hands the exact solver and ``enumerate_below`` the codes and norms of a
block's candidates scanned at most a bound, in walk order: an even block
walks its columns upward and an odd one downward, by the reflection
identity gray(2^c-1-p) = gray(p) XOR 2^(c-1).  ``first_shared_prefix``
reads a lex block's prefixes upward.

Scan dtype (``scan_precision``).  Let S = max_i sum_j |M_ij|; every row
sum, prefix or suffix sum of a candidate is at most S in absolute value,
and a table entry at most 2S.  Integer entries are scanned in the
narrowest of int8, int16, int32 and int64 that holds 3S, so the scan is
exact (3S beyond int64 is a ``ParameterError``); values are reported in
int64.  Float entries are scanned in float32 (float64 if 3S overflows
it).  Integer tables are built in the scan dtype; float tables are summed
in float64 and cast once.  The running sums stay wide and are cast once
per block, so the walk drifts by a few float64 roundings per block,
and each block adds one float32 rounding that does not carry over.

Re-decision.  Every reported value and row-sum vector is ``disc_value``
of the witness, and a candidate whose scanned norm lies within the
scan's slack of a decision (the running minimum, or an enumeration
threshold) is decided on that direct product.  Integer scans have slack
0.  For floats, let u be the scan dtype's unit roundoff (eps/2), w that
of float64, and t the scan dtype's smallest subnormal, which bounds the
absolute error of a rounding in the subnormal range.  A doubled table
entry over q <= n columns is -2 times a sequential float64 sum of at most
q of the M_ij (doubling is exact) with partial sums at most S, so it errs
by at most 2(n - 1) w S.  A scanned row sum is a head plus a table entry,
each cast once, added in the scan dtype.  A head is n - 1 additions for
the all-plus row sums and one per block, each result a row sum of a sign
vector (at most w S each).  A gray step is exact; a lex step over bit b
is a float64 sum of b + 1 flipped columns with partial sums at most 2S
(at most 2b w S), and b averages below 1 over the blocks.  So a head errs
by (steps + n) w S, with steps the number of blocks in gray order and
three times it in lex order.  With the direct product ``disc_value``
(n w S) the float64 errors total at most (steps + 4n) w S.  The two casts
and the narrow addition add at most u S + 2u S + u S.  |.| and max over
rows are 1-Lipschitz, so

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
and re-decide it otherwise (``_admit``).

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
from typing import Optional, Sequence, Union

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
    width = -(-n // 8)                            # packed bytes per row
    bits = np.zeros((count, 8 * width), dtype=bool)   # one flat pack is far cheaper than per row
    np.less(signs, 0, out=bits[:, :n])
    raw = np.zeros((count, 8), dtype=np.uint8)
    raw[:, :width] = np.packbits(bits.reshape(-1), bitorder=bitorder).reshape(count, width)
    codes = raw.view(byteorder)[:, 0].astype(np.uint64)
    codes >>= shift
    return codes


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
    aligns to 16 bytes only, and on a 2-core Xeon the scan's add-abs-max in an
    8 x 2^12 float64 buffer off a cache line took 44-49 us, aligned 36-39."""
    dtype = np.dtype(dtype)
    size = math.prod(shape if isinstance(shape, tuple) else (shape,)) * dtype.itemsize
    raw = np.empty(size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + size].view(dtype).reshape(shape)


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


class _CubeScan:
    """The module docstring's blocked scan of the ``members``' entries, with
    norms in the scan dtype of ``scan_precision``."""

    def __init__(self, members: Sequence[np.ndarray], order: str, k: int = 0):
        m, n = members[0].shape
        entries = np.concatenate(members)
        self.dtype = scan_precision(entries, 0)[0]
        self.gray = order == "gray"
        shared = n - 1 if self.gray else n - k         # free columns the members share
        self.c = c = min(max(_block_bits(m, self.dtype) - k, 0), shared)
        self.n_blocks = 1 << (shared - c)
        self.slack = scan_precision(entries, self.n_blocks * (1 if self.gray else 3))[1]
        if self.gray:   # bit b of the walk code holds column b + 1
            cols, high = slice(1, 1 + c), slice(1 + c, n)
        else:   # bit b holds column n - 1 - b, and table entry (s, p) is code (s << c) | p
            cols, high = np.r_[shared:n, shared - c:shared], np.arange(shared - c)[::-1]
        self.tables = [_suffix_table(w[:, cols], self.dtype, order) for w in members]
        # steps[1, b] (steps[0, b]): the running sums' change on entering a block
        # whose lowest set bit b the code sets (clears), and lex codes clear below b
        self.steps = np.multiply.outer([2, -2], members[0].T[high])
        if not self.gray:
            self.steps[1, 1:] += np.cumsum(self.steps[0, :-1], axis=0)
        self.base = entries.sum(axis=1).reshape(len(members), m)     # all-plus row sums
        self.heads = np.empty(self.base.shape + (1,), self.dtype)
        self.buf = aligned_empty((m, 1 << (k + c)), self.dtype)
        outs = [aligned_empty(1 << (k + c), self.dtype) for _ in members]
        self.kernels = [(head, table, out, out.reshape(1 << k, 1 << c))
                        for head, table, out in zip(self.heads, self.tables, outs)]

    def blocks(self):
        """Yield each block j with the heads stepped to it, for ``norms``."""
        cur = self.base.copy()                  # wide running row sums
        heads = self.heads[:, :, 0]
        for j in range(self.n_blocks):
            if j:
                b = (j & -j).bit_length() - 1
                code = j ^ (j >> 1) if self.gray else j
                np.add(cur, self.steps[code >> b & 1, b], out=cur)
            heads[...] = cur
            yield j

    def norms(self, i: int) -> np.ndarray:
        """Member i's (2^k, 2^c) norms in this block, entry (s, p) for suffix
        code s and low code p; the array is reused by the next block."""
        head, table, out, norms = self.kernels[i]
        np.add(head, table, out=self.buf)     # the rows are contiguous slabs of buf:
        np.abs(self.buf, out=self.buf)        # max over them is an elementwise maximum
        np.maximum.reduce(self.buf, axis=0, out=out)
        return norms

    def below(self, j, norms, bound) -> tuple[np.ndarray, np.ndarray]:
        """(walk codes, scanned norms) of gray block j's candidates whose norms,
        a row in table order, are at most ``bound``, in walk order: an odd
        block's step r visits gray(r) XOR 2^(c-1) = gray(2^c-1-r), downward."""
        c = np.flatnonzero(norms <= bound)
        if j & 1:
            c = c[::-1]
        low = c.astype(np.uint64)
        return np.uint64((j ^ (j >> 1)) << self.c) | (low ^ (low >> np.uint64(1))), norms[c]


def _direct_value(inst: Instance, code, order: str = "gray") -> Union[int, float]:
    return disc_value(inst, signs_from_codes([code], inst.cols, order)[0]).value


def _admit(inst: Instance, codes, scanned: np.ndarray, lo, threshold: float,
           order: str) -> np.ndarray:
    """Which of these candidates, each scanned at most hi (``scan_bounds``),
    meet ``threshold``: those scanned below ``lo``, and those whose direct value does."""
    keep = scanned < lo
    for i in np.flatnonzero(~keep):
        keep[i] = _direct_value(inst, codes[i], order) <= threshold
    return keep


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
    scan = _CubeScan([inst.entries], "gray")
    slack = scan.slack
    best = np.inf
    best_code = np.uint64(0)
    for j in scan.blocks():
        norms = scan.norms(0)[0]            # k = 0: one row of 2^c candidates
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
    scan = _CubeScan([inst.entries], "gray")
    hi, lo = scan_bounds(scan.dtype, threshold, scan.slack)
    found = []
    for j in scan.blocks():
        codes, scanned = scan.below(j, scan.norms(0)[0], hi)
        found.append(codes[_admit(inst, codes, scanned, lo, threshold, "gray")])
    del scan            # free its table before the sign matrix is built
    half = signs_from_codes(np.concatenate(found), n, "gray")
    return np.concatenate([half, -half], axis=0)


def first_shared_prefix(members: Sequence[Instance], k: int,
                        threshold: float) -> Optional[tuple[int, list[int]]]:
    """First (prefix, per-member suffixes) in lex order with every member
    satisfying ||M_i sigma_i||_inf <= threshold, or None.  The members share
    their shape and first n-k columns; sigma_i has the "lex" code
    (prefix << k) | suffixes[i], and membership is that of ``disc_value``.

    The "lex" ``_CubeScan`` of the members: a prefix of a block survives
    when every member has a norm <= the filter bound in its column, and
    survivors are decided in order by ``_admit``.
    """
    scan = _CubeScan([mem.entries for mem in members], "lex", k)
    hi, lo = scan_bounds(scan.dtype, threshold, scan.slack)
    for h in scan.blocks():
        ok = np.ones(1 << scan.c, dtype=bool)
        norms = []
        for i in range(len(members)):
            norms.append(scan.norms(i))
            ok &= np.logical_or.reduce(norms[i] <= hi, axis=0)
            if not ok.any():
                break
        for p in ok.nonzero()[0]:
            prefix = (h << scan.c) | int(p)
            suffixes = []
            for mem, vals in zip(members, norms):
                col = vals[:, p]
                r = np.flatnonzero(col <= hi)
                r = r[_admit(mem, (prefix << k) | r, col[r], lo, threshold, "lex")]
                if not r.size:
                    break
                suffixes.append(int(r[0]))
            else:
                return prefix, suffixes
    return None


def sbp_threshold(inst: Instance, kappa: float) -> float:
    """The perceptron bound kappa * sqrt(n) of ``inst``: the one check that
    the disorder is gaussian and kappa lies in (0, inf)."""
    if inst.disorder != "gaussian":
        raise UnsupportedDisorderError(
            f"perceptron membership is defined for gaussian disorder, got {inst.disorder!r}")
    if not 0 < kappa < math.inf:
        raise ParameterError(f"kappa must be positive and finite, got {kappa}")
    return kappa * math.sqrt(inst.cols)


def sbp_membership(inst: Instance, sigma, kappa: float) -> bool:
    """max_i |<row_i, sigma>| <= kappa * sqrt(n), inclusive, no epsilon."""
    threshold = sbp_threshold(inst, kappa)
    return bool(disc_value(inst, sigma).value <= threshold)


def enumerate_solutions(inst: Instance, kappa: float,
                        max_n: Optional[int] = None) -> np.ndarray:
    """The solution set {sigma : ||M sigma||_inf <= kappa sqrt(n)} of a gaussian instance."""
    return enumerate_below(inst, sbp_threshold(inst, kappa), max_n=max_n)
