"""Online column-signing algorithms and the harness that runs them.

An online algorithm assigns the sign of coordinate t after seeing columns
1..t only.  ``run_online_batch`` runs B instances of one shape side by
side and is the only loop that feeds columns; ``run_online`` is its case
B = 1.  ``alg.start(rows, omegas)`` gets the row count M and one auxiliary
seed per instance and returns the scratch state.  An algorithm follows
one of two protocols, looked up in this order:

Block protocol.  An algorithm that keeps what it needs in its scratch
state defines ``alg.sign_block(scratch, t0, columns)``: it gets a block's
read-only (k, B, M) columns t0..t0+k-1, each (M,) column contiguous, and
returns the (k, B) signs; the harness keeps no running sums.  The signer
sees the whole block, so that sign t reads columns 1..t only is a
contract, not a structural guarantee; the prefix tests, run across block
boundaries, check it.  Any online rule fits this protocol: a signer that
keeps its own running sums in its scratch state can walk its block
column by column.

Score protocol.  An algorithm that picks the sign minimizing a score of
the updated sums defines ``alg.score(scratch, candidates)``: it gets the
read-only (2, B, M) candidate sums, row 0 = partial + column and row 1 =
partial - column, and returns (2, B) scores.  The sign is +1 where
score[0] <= score[1] (ties go to +1), so a score must compare exactly in
its own dtype: greedy on an integer instance keeps int64 norms.  Once per
column block, before any of its columns, the harness scores the widest
sums the block can reach (the row l1 norms so far, widened by the rounding
of a float sum); a score that overflows float64 or is NaN there, such as
potential's at a lambda too large for the entries, raises
``ParameterError``.  An algorithm with neither method raises
``ContractViolationError``.

One loop serves both protocols.  It copies each column block once into
the first half of a (k, 2, B, M) +-column buffer; a block signer gets that
half.  For a score algorithm the loop negates it into the second half, and
per column one add writes both candidates into a (2, B, M) buffer, and the
chosen row becomes the running sums, bit for bit ``partial + s * column``:
at B = 1 the loop alternates two buffers and copies nothing, at B > 1 a
masked copy selects the row.  Column t+1 has not been handed over when
sign t is decided, so a score algorithm reads columns 1..t only by
construction.

Every sign must be exactly -1 or +1.  A block signer's output is checked
as its block arrives, read as float64 so that 1.5 is not truncated to 1;
a wrong shape, type or value is a ``ContractViolationError`` that names
the algorithm and the step.

Shipped algorithms:

* greedy    -- (score) the max-norm of the updated sums;
* potential -- (score) log sum_i cosh(lambda * w_i) of the updated sums, a
  softmax-style surrogate for the max-norm;
* random    -- (block) a column-hash-keyed coin flip; it ignores the
  geometry but is a deterministic function of (aux seed, t, column t).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import philox
from .discrepancy import _native_value
from .errors import ContractViolationError, ParameterError
from .instances import Instance, _working_entries

_LOG2 = float(np.log(2.0))
# last counter word of the random signer's Philox blocks
_RANDOM_TAG = 3
# A column block holds at most _COLUMN_BLOCK entries and _BLOCK_COLUMNS
# instance columns (the column loop's +-column pairs twice that).  A strided
# column view makes every ufunc of a score about twice as slow at B = 1.  The
# column cap bounds a block signer's temporaries: random keeps about 100
# bytes per instance column.
_COLUMN_BLOCK = 1 << 13
_BLOCK_COLUMNS = 1 << 9
_SIGN_BYTES = np.array([-1, 1], dtype=np.int8)


@dataclass(frozen=True)
class OnlineResult:
    value: Union[int, float]        # max_i |row_sums_i|
    sigma: np.ndarray               # chosen signs, int8
    row_sums: np.ndarray            # final M * sigma


def _max_abs(a: np.ndarray) -> np.ndarray:
    # np.maximum.reduce skips np.max's Python wrapper, most of a greedy decision
    return np.maximum.reduce(np.abs(a), -1)


class GreedyOnline:
    """Sign minimizing ||partial + s * column||_inf; ties -> +1."""

    name = "greedy"

    def start(self, rows: int, omegas=(0,)):
        return None

    def score(self, scratch, candidates):
        return _max_abs(candidates)


class PotentialOnline:
    """Sign minimizing Phi(w) = sum_i cosh(lambda * w_i); ties -> +1.

    With lam=None the scale defaults to 1/sqrt(M) at run start.  Phi is
    compared through log Phi = m + log sum_i (e^(a_i - m) + e^(-a_i - m))
    - log 2 with a = lambda * w and m = max_i |a_i|, which is stable for
    large |a|.
    """

    name = "potential"

    def __init__(self, lam: float | None = None):
        if lam is not None and not 0 < lam < math.inf:
            raise ParameterError(f"lambda must be positive and finite, got {lam}")
        self.lam = lam

    def start(self, rows: int, omegas=(0,)):
        return self.lam if self.lam is not None else 1.0 / np.sqrt(rows)

    def score(self, lam, candidates):
        # a and -a stacked, so one exp serves both; max(a, -a) is |a| up to
        # the sign of a zero, which no later score can see
        e = np.empty((2,) + candidates.shape)
        np.multiply(candidates, lam, out=e[0])
        np.negative(e[0], out=e[1])
        m = np.maximum.reduce(e, axis=(0, -1))
        np.subtract(e, m[..., None], out=e)
        np.exp(e, out=e)
        total = np.add.reduce(np.add(e[0], e[1], out=e[0]), -1)
        return m + np.log(total) - _LOG2


class RandomSigningOnline:
    """Uniform signs keyed by (aux seed, step index, hash of the new column).

    Sign t is the low bit of word 0 of the Philox block with counter
    (t, lo, hi, 3) under the instance's aux seed, where (lo, hi) are the
    32-bit words of the 8-byte BLAKE2b digest of column t's bytes as the
    harness holds them (int64 or float64), read little-endian.  Mixing the
    column hash into the counter makes the output sensitive to the
    instance (independent instances get independent signs) while keeping
    it a deterministic function of the columns seen so far.  A block takes
    one ``philox.signs`` call, each instance under the key of its own seed.
    """

    name = "random"

    def start(self, rows: int, omegas=(0,)):
        return omegas

    def sign_block(self, seeds, t0, columns):
        k, b, m = columns.shape
        counters = np.full((k, b, 4), _RANDOM_TAG, dtype=np.uint64)
        counters[..., 0] = np.arange(t0, t0 + k)[:, None]
        digests = np.fromiter((hashlib.blake2b(col, digest_size=8).digest()
                               for col in columns.reshape(k * b, m)), dtype="S8", count=k * b)
        counters[..., 1:3] = digests.view("<u4").reshape(k, b, 2)
        return philox.signs(seeds, *np.moveaxis(counters, -1, 0))


ALGORITHMS = ("greedy", "potential", "random")


def make_algorithm(name: str, lam: float | None = None):
    """The named online algorithm; only ``potential`` takes ``lam``."""
    if name not in ALGORITHMS:
        raise ParameterError(f"unknown online algorithm {name!r}, expected one of {ALGORITHMS}")
    if name == "potential":
        return PotentialOnline(lam)
    if lam is not None:
        raise ParameterError(f"only the potential algorithm takes lambda, "
                             f"got lambda={lam!r} for {name!r}")
    return GreedyOnline() if name == "greedy" else RandomSigningOnline()


def _block_width(b: int, m: int) -> int:
    """Columns per block for B instances of M rows (the last may be shorter)."""
    return max(1, min(_COLUMN_BLOCK // max(1, b * m), _BLOCK_COLUMNS // max(1, b)))


def _check_reach(alg, scratch, widest: np.ndarray, t: int) -> None:
    """Refuse a score algorithm whose score of ``widest``, the (2, B, M)
    widest sums the next columns can reach, overflows float64 or is NaN:
    its decisions there would be noise."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            finite = not np.isnan(alg.score(scratch, widest)).any()
    except FloatingPointError:
        finite = False
    if not finite:
        raise ParameterError(
            f"online algorithm {alg.name!r} cannot score row sums up to "
            f"{float(widest.max()):.6g} (columns from step {t} on): its parameters "
            f"overflow float64 on these entries")


def _column_signs(alg, scratch, work: np.ndarray) -> np.ndarray:
    """(B, n) int8 signs of ``alg`` on ``work``: the one column loop (see
    the module docstring)."""
    b, m, n = work.shape
    sign_block = getattr(alg, "sign_block", None)
    score = None if sign_block else getattr(alg, "score", None)
    if not (sign_block or score):
        raise ContractViolationError(
            f"online algorithm {alg.name!r} defines neither sign_block (block protocol) "
            f"nor score (score protocol)")
    per = max(1, min(n, _block_width(b, m)))
    pairs = np.empty((per, 2, b, m), dtype=work.dtype)      # a block's +-columns
    pairs_view = pairs.view()               # what algorithms see is read-only
    pairs_view.setflags(write=False)
    bufs = np.zeros((2, 2, b, m), dtype=work.dtype)         # two candidate buffers
    bufs_view = bufs.view()
    bufs_view.setflags(write=False)
    outs, cands = tuple(bufs), tuple(bufs_view)
    rows = tuple(tuple(c) for c in cands)
    selects = tuple((o[1], o[0]) for o in outs)
    plus = np.empty((n, b), dtype=bool)     # the signs, True for +1
    plus_cols = plus[:, :, None]
    # float64 bound on every |partial +- column| of the columns fed so far:
    # the row l1 norms, widened for the rounding of a sum of n float terms
    reach = np.zeros((b, m))
    widen = 1.0 + (n + 2) * 2.0 ** -50
    widest = np.empty((2, b, m))
    widest_view = widest.view()
    widest_view.setflags(write=False)
    partial = rows[1][0]                    # zeros
    i = 0                                   # the buffer the next add writes
    for t0 in range(0, n, per):
        k = min(per, n - t0)
        plus_block, minus_block = pairs[:k, 0], pairs[:k, 1]
        np.copyto(plus_block, work[:, :, t0:t0 + k].transpose(2, 0, 1))
        if sign_block:
            s = sign_block(scratch, t0, pairs_view[:k, 0])
            try:
                if np.shape(s) != (k, b):
                    raise ValueError(f"shape {np.shape(s)}")
                s = np.asarray(s, dtype=np.float64)     # int8 would truncate 1.5 to 1
            except (TypeError, ValueError, OverflowError) as exc:
                raise ContractViolationError(
                    f"online sign_block returned {exc}, expected a ({k}, {b}) array of -1 "
                    f"and +1 (algorithm {alg.name!r}, step {t0})") from exc
            bad = np.abs(s) != 1
            if bad.any():
                t, i = np.argwhere(bad)[0]
                raise ContractViolationError(
                    f"online sign_block returned {float(s[t, i])!r}, expected -1 or +1 "
                    f"(algorithm {alg.name!r}, step {t0 + t}, batch row {i})")
            np.greater(s, 0, out=plus[t0:t0 + k])
            continue
        reach += np.add.reduce(np.abs(plus_block, out=minus_block), 0, np.float64)
        np.multiply(reach, widen, out=widest)
        _check_reach(alg, scratch, widest_view, t0)
        np.negative(plus_block, out=minus_block)
        for t, pair in enumerate(pairs_view[:k], t0):
            np.add(partial, pair, out=outs[i])
            s = score(scratch, cands[i])
            if b == 1:
                won = plus[t, 0] = s[0, 0] <= s[1, 0]
                partial = rows[i][0 if won else 1]
            else:
                np.less_equal(s[0], s[1], out=plus[t])
                dst, src = selects[i]
                np.copyto(dst, src, where=plus_cols[t])
                partial = rows[i][1]
            i ^= 1
    return _SIGN_BYTES.take(plus.T)


def run_online_batch(alg, entries: np.ndarray, omegas) -> tuple[np.ndarray, np.ndarray]:
    """Run ``alg`` on B instances at once; the only loop that feeds columns.

    ``entries`` has shape (B, M, n) and must be finite; it is guarded as an
    ``Instance``'s entries are, floats run in float64 and integers in int64.
    ``omegas`` holds one aux seed per instance.  Returns
    (signs (B, n) int8, row sums (B, M)), where the row sums are the direct
    products ``entries[i] @ signs[i]``, not the drifted running sums.
    Column t of instance i sees columns 1..t of instance i only.
    """
    entries = np.asarray(entries)
    if entries.ndim != 3:
        raise ParameterError(f"entries must have shape (B, M, n), got {entries.shape}")
    work = _working_entries(entries, integer=entries.dtype.kind != "f")
    return _run_columns(alg, work, omegas)


def _run_columns(alg, work: np.ndarray, omegas) -> tuple[np.ndarray, np.ndarray]:
    """``run_online_batch`` on entries that ``_working_entries`` returned."""
    b, m, n = work.shape
    if len(omegas) != b:
        raise ParameterError(f"need one omega per instance: {len(omegas)} for {b}")
    sigma = _column_signs(alg, alg.start(m, omegas), work)
    sums = np.empty((b, m), dtype=work.dtype)
    for i in range(b):
        sums[i] = work[i] @ sigma[i].astype(work.dtype)
    return sigma, sums


def run_online(alg, inst: Instance, omega: int = 0) -> OnlineResult:
    """Feed columns left to right; coordinate t sees columns 1..t only."""
    sigma, sums = _run_columns(alg, inst.entries[None], (omega,))
    return OnlineResult(sigma=sigma[0], row_sums=sums[0],
                        value=_native_value(np.max(np.abs(sums[0]))))

