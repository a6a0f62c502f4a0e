"""Online column-signing algorithms and the harness that runs them.

An online algorithm assigns the sign of coordinate t after seeing columns
1..t only.  ``run_online_batch`` runs B instances of one shape side by
side and is the only loop that feeds columns; ``run_online`` is its case
B = 1.  It copies the columns, a block at a time, into a contiguous
read-only (k, B, M) buffer.  ``alg.start(rows, omegas)`` gets the row
count M and one auxiliary seed per instance and returns the scratch state.

Step protocol.  ``alg.step(scratch, partial_sums, column)`` is called for
each column t in order, with read-only (B, M) views of the running signed
sums and of column t, and returns B signs or one scalar sign that
broadcasts.  Steps reduce over axis -1, so a (M,) call is the
single-instance case.  Column t+1 has not been handed over yet, so a step
reads columns 1..t only by construction.

Block protocol.  An algorithm whose sign t depends only on its scratch
state, t and column t may define ``alg.sign_block(scratch, t0, columns)``
instead: it gets a block's (k, B, M) columns t0..t0+k-1 and returns the
(k, B) signs, and the harness keeps no running sums.  The signer sees the
whole block, so that sign t reads column t only is a contract, not a
structural guarantee; the prefix tests, run across block boundaries,
check it.

Every sign must be exactly -1 or +1.  Raw outputs are kept in a float64
buffer, which cannot truncate 1.5 to 1, and checked once per run; an
output of the wrong shape or type fails at once.  Either way the
``ContractViolationError`` names the algorithm and the step.

Shipped algorithms:

* greedy    -- (step) pick the sign minimizing the max-norm of the
  updated sums;
* potential -- (step) pick the sign minimizing sum_i cosh(lambda * w_i), a
  softmax-style surrogate for the max-norm (ties go to +1 in both);
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
from .discrepancy import _native_value, _work_entries
from .errors import ContractViolationError, ParameterError
from .instances import Instance

_LOG2 = float(np.log(2.0))
# last counter word of the random signer's Philox blocks
_RANDOM_TAG = 3
# A column block holds at most _COLUMN_BLOCK entries and _BLOCK_COLUMNS
# instance columns.  A strided column view makes every ufunc of a step about
# twice as slow at B = 1.  The column cap bounds a block signer's
# temporaries: random keeps about 100 bytes per instance column.
_COLUMN_BLOCK = 1 << 13
_BLOCK_COLUMNS = 1 << 9
_PLUS_MINUS = np.array([-1, 1])


@dataclass(frozen=True)
class OnlineResult:
    value: Union[int, float]        # max_i |row_sums_i|
    sigma: np.ndarray               # chosen signs, int8
    row_sums: np.ndarray            # final M * sigma


def _max_abs(a: np.ndarray) -> np.ndarray:
    # np.maximum.reduce skips np.max's Python wrapper, most of a greedy decision
    return np.maximum.reduce(np.abs(a), -1)


def _signs_of(plus_wins: np.ndarray) -> np.ndarray:
    # +1 where True, -1 elsewhere; a take is cheaper than np.where here
    return _PLUS_MINUS.take(plus_wins)


class GreedyOnline:
    """Sign minimizing ||partial + s * column||_inf; ties -> +1."""

    name = "greedy"

    def start(self, rows: int, omegas=(0,)):
        return None

    def step(self, scratch, partial_sums, column):
        plus = _max_abs(partial_sums + column)
        minus = _max_abs(partial_sums - column)
        return _signs_of(plus <= minus)


class PotentialOnline:
    """Sign minimizing Phi(w) = sum_i cosh(lambda * w_i); ties -> +1.

    With lam=None the scale defaults to 1/sqrt(M) at run start.  Phi is
    compared through log Phi = m + log sum_i (e^(a_i - m) + e^(-a_i - m))
    - log 2 with m = max_i |a_i|, which is stable for large |a|.
    """

    name = "potential"

    def __init__(self, lam: float | None = None):
        if lam is not None and not 0 < lam < math.inf:
            raise ParameterError(f"lambda must be positive and finite, got {lam}")
        self.lam = lam

    def start(self, rows: int, omegas=(0,)):
        return self.lam if self.lam is not None else 1.0 / np.sqrt(rows)

    def step(self, scratch, partial_sums, column):
        lam = scratch
        # +column and -column as one (2, ..., M) array, reduced over its last axis
        a = lam * np.array((partial_sums + column, partial_sums - column))
        m = _max_abs(a)
        mb = m[..., None]
        log_phi = m + np.log(np.add.reduce(np.exp(a - mb) + np.exp(-a - mb), -1)) - _LOG2
        return _signs_of(log_phi[0] <= log_phi[1])


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


def _check_steps(alg, steps: np.ndarray) -> None:
    """Reject any raw step output (n, B) that is not exactly -1 or +1."""
    bad = np.abs(steps) != 1
    if bad.any():
        t, i = np.argwhere(bad)[0]
        raise ContractViolationError(
            f"online step returned {float(steps[t, i])!r}, expected -1 or +1 "
            f"(algorithm {alg.name!r}, step {t}, batch row {i})")


def _block_width(b: int, m: int) -> int:
    """Columns per block for B instances of M rows (the last may be shorter)."""
    return max(1, min(_COLUMN_BLOCK // max(1, b * m), _BLOCK_COLUMNS // max(1, b)))


def _column_steps(alg, per: int, b: int, m: int, dtype):
    """The ``sign_block`` of a step algorithm: feed the block's columns to
    ``alg.step`` one at a time, keeping the running signed sums."""
    partial = np.zeros((b, m), dtype=dtype)
    partial_view = partial.view()
    partial_view.setflags(write=False)
    raw = np.empty((per, b), dtype=np.float64)
    signs = raw if dtype == np.float64 else np.empty((per, b), dtype=dtype)
    sign_cols = signs[:, :, None]
    step = alg.step

    def sign_block(scratch, t0, columns):
        nonlocal partial                  # += is in place, and cheaper than np.add(out=)
        for j, col in enumerate(columns):
            s = step(scratch, partial_view, col)
            try:
                raw[j] = s
                if signs is not raw:
                    signs[j] = s
            except (TypeError, ValueError, OverflowError) as exc:
                raise ContractViolationError(
                    f"online step returned {s!r}, expected -1 or +1 for each of {b} "
                    f"instances (algorithm {alg.name!r}, step {t0 + j})") from exc
            partial += sign_cols[j] * col
        return raw[:len(columns)]

    return sign_block


def run_online_batch(alg, entries: np.ndarray, omegas) -> tuple[np.ndarray, np.ndarray]:
    """Run ``alg`` on B instances at once; the only loop that feeds columns.

    ``entries`` has shape (B, M, n), float (run in float64) or integer
    (run in int64); ``omegas`` holds one aux seed per instance.  Returns
    (signs (B, n) int8, row sums (B, M)), where the row sums are the direct
    products ``entries[i] @ signs[i]``, not the drifted running sums.
    Column t of instance i sees columns 1..t of instance i only.
    """
    work = np.asarray(entries)
    if work.ndim != 3:
        raise ParameterError(f"entries must have shape (B, M, n), got {work.shape}")
    if work.dtype.kind == "f":
        work = work.astype(np.float64, copy=False)
    elif work.dtype.kind in "biu":
        work = work.astype(np.int64, copy=False)
    else:
        raise ParameterError(f"entries must be real numbers, got dtype {work.dtype}")
    b, m, n = work.shape
    if len(omegas) != b:
        raise ParameterError(f"need one omega per instance: {len(omegas)} for {b}")
    steps = np.empty((n, b), dtype=np.float64)
    per = max(1, min(n, _block_width(b, m)))
    block = np.empty((per, b, m), dtype=work.dtype)
    block_view = block.view()              # what algorithms see is read-only
    block_view.setflags(write=False)
    scratch = alg.start(m, omegas)
    sign_block = getattr(alg, "sign_block", None) or _column_steps(alg, per, b, m, work.dtype)
    for t0 in range(0, n, per):
        k = min(per, n - t0)
        np.copyto(block[:k], work[:, :, t0:t0 + k].transpose(2, 0, 1))
        s = sign_block(scratch, t0, block_view[:k])
        try:
            if np.shape(s) != (k, b):
                raise ValueError(f"shape {np.shape(s)}")
            steps[t0:t0 + k] = s
        except (TypeError, ValueError, OverflowError) as exc:
            raise ContractViolationError(
                f"online sign_block returned {exc}, expected a ({k}, {b}) array of -1 "
                f"and +1 (algorithm {alg.name!r}, step {t0})") from exc
    _check_steps(alg, steps)
    sigma = np.ascontiguousarray(steps.T, dtype=np.int8)
    sums = np.empty((b, m), dtype=work.dtype)
    for i in range(b):
        sums[i] = work[i] @ sigma[i].astype(work.dtype)
    return sigma, sums


def run_online(alg, inst: Instance, omega: int = 0) -> OnlineResult:
    """Feed columns left to right; coordinate t sees columns 1..t only."""
    sigma, sums = run_online_batch(alg, _work_entries(inst)[None], (omega,))
    return OnlineResult(sigma=sigma[0], row_sums=sums[0],
                        value=_native_value(np.max(np.abs(sums[0]))))


def random_signing(inst: Instance, seed: int) -> np.ndarray:
    """Sign vector (int8) of RandomSigningOnline run on ``inst`` with aux seed ``seed``."""
    return run_online(RandomSigningOnline(), inst, seed).sigma


def run_greedy_batch(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy over a batch of instances: ``run_online_batch`` with
    GreedyOnline.  ``entries`` has shape (B, M, n); returns (signs (B, n)
    int8, row sums ``entries[i] @ signs[i]`` (B, M))."""
    return run_online_batch(GreedyOnline(), entries, (0,) * len(entries))
