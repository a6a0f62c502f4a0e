"""Online column-signing algorithms and the harness that runs them.

An online algorithm assigns the sign of coordinate t after seeing columns
1..t only.  The harness enforces this structurally: it feeds one column
at a time and the step function receives nothing but its own scratch
state, the running signed column sums, and the new column.

Step protocol.  ``run_online_batch`` runs B instances of one shape side by
side and is the only loop that feeds columns; ``run_online`` is its case
B = 1.  ``alg.start(rows, omegas)`` gets the row count M and one auxiliary
seed per instance, and returns the scratch state.  At step t,
``alg.step(scratch, partial_sums, column)`` gets read-only (B, M) views
of the running sums and of column t of every instance, and returns B
signs, or one scalar sign that broadcasts to all B.  Steps reduce over
axis -1, so a (M,) call is the single-instance case.  The contract (every
sign exactly -1 or +1) is checked once per run, not once per step: the
raw step outputs are kept in a float64 buffer, which cannot truncate 1.5
to 1, and after the last column anything else raises
``ContractViolationError`` naming the first bad step and batch row.

Shipped steps:

* greedy    -- pick the sign minimizing the max-norm of the updated sums;
* potential -- pick the sign minimizing sum_i cosh(lambda * w_i), a
  softmax-style surrogate for the max-norm (ties go to +1 in both);
* random    -- a column-hash-keyed coin flip; it ignores the geometry but
  is still a deterministic function of (aux seed, columns seen so far).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import philox
from .discrepancy import _native_value, _work_entries
from .errors import ContractViolationError, ParameterError
from .instances import Instance

_LOG2 = float(np.log(2.0))
# last counter word of the random step's Philox blocks
_RANDOM_TAG = 3
# entries of the harness's buffer of contiguous (B, M) columns; a strided
# column view makes every ufunc of a step about twice as slow at B = 1
_COLUMN_BLOCK = 1 << 14
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
        if lam is not None and not lam > 0:
            raise ParameterError(f"lambda must be positive, got {lam}")
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


def _random_counter(t: int, column: np.ndarray) -> tuple[int, int, int, int]:
    """Philox counter (t, lo, hi, 3) of the random step at time t, with
    (lo, hi) the 32-bit words of a BLAKE2b hash of the column's bytes."""
    h = hashlib.blake2b(np.ascontiguousarray(column).tobytes(), digest_size=8).digest()
    v = int.from_bytes(h, "little")
    return t, v & 0xFFFFFFFF, v >> 32, _RANDOM_TAG


class RandomSigningOnline:
    """Uniform signs keyed by (aux seed, step index, hash of the new column).

    Mixing the column hash into the counter makes the output sensitive to
    the instance (independent instances get independent signs) while
    remaining a deterministic function of the columns seen so far.  Each
    instance of a batch uses the key of its own aux seed.
    """

    name = "random"

    def start(self, rows: int, omegas=(0,)):
        keys = [tuple(int(k) for k in philox.split_key(o)) for o in omegas]
        return {"keys": keys, "rows": rows, "t": 0}

    def step(self, scratch, partial_sums, column):
        keys, t = scratch["keys"], scratch["t"]
        scratch["t"] = t + 1
        cols = np.reshape(column, (len(keys), scratch["rows"]))
        # the low bit of word 0, as philox.signs folds it
        return [1 - 2 * (philox.philox4x32_scalar(_random_counter(t, c), key)[0] & 1)
                for key, c in zip(keys, cols)]


ALGORITHMS = ("greedy", "potential", "random")


def make_algorithm(name: str, lam: float | None = None):
    if name == "greedy":
        return GreedyOnline()
    if name == "potential":
        return PotentialOnline(lam)
    if name == "random":
        return RandomSigningOnline()
    raise ParameterError(f"unknown online algorithm {name!r}, expected one of {ALGORITHMS}")


def _check_steps(alg, steps: np.ndarray) -> None:
    """Reject any raw step output (n, B) that is not exactly -1 or +1."""
    bad = np.abs(steps) != 1
    if bad.any():
        t, i = np.argwhere(bad)[0]
        raise ContractViolationError(
            f"online step returned {float(steps[t, i])!r}, expected -1 or +1 "
            f"(algorithm {alg.name!r}, step {t}, batch row {i})")


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
    partial = np.zeros((b, m), dtype=work.dtype)
    partial_view = partial.view()
    partial_view.setflags(write=False)
    steps = np.empty((n, b), dtype=np.float64)
    signs = steps if work.dtype == np.float64 else np.empty((n, b), dtype=work.dtype)
    sign_cols = signs[:, :, None]
    per = max(1, min(n, _COLUMN_BLOCK // max(1, b * m)))
    block = np.empty((per, b, m), dtype=work.dtype)
    block_view = block.view()              # what steps see is read-only
    block_view.setflags(write=False)
    scratch = alg.start(m, omegas)
    step = alg.step
    for t0 in range(0, n, per):
        k = min(per, n - t0)
        np.copyto(block[:k], work[:, :, t0:t0 + k].transpose(2, 0, 1))
        for t, col in enumerate(block_view[:k], t0):
            s = step(scratch, partial_view, col)
            try:
                steps[t] = s
                if signs is not steps:
                    signs[t] = s
            except (TypeError, ValueError, OverflowError) as exc:
                raise ContractViolationError(
                    f"online step returned {s!r}, expected -1 or +1 for each of {b} "
                    f"instances (algorithm {alg.name!r}, step {t})") from exc
            partial += sign_cols[t] * col
    _check_steps(alg, steps)
    sigma = np.ascontiguousarray(steps.T, dtype=np.int8)
    sums = np.empty_like(partial)
    for i in range(b):
        sums[i] = work[i] @ sigma[i].astype(work.dtype)
    return sigma, sums


def run_online(alg, inst: Instance, omega: int = 0) -> OnlineResult:
    """Feed columns left to right; coordinate t sees columns 1..t only."""
    sigma, sums = run_online_batch(alg, _work_entries(inst)[None], (omega,))
    return OnlineResult(sigma=sigma[0], row_sums=sums[0],
                        value=_native_value(np.max(np.abs(sums[0]))))


def random_signing(inst: Instance, seed: int) -> np.ndarray:
    """Sign vector of the 'random' online algorithm on this instance.

    The random step ignores the partial sums, so all n columns are signed
    in one vectorized Philox call; sign-for-sign identical to feeding
    RandomSigningOnline through run_online with omega=seed.
    """
    entries = _work_entries(inst)          # the harness hashes these bytes too
    counters = np.array([_random_counter(t, entries[:, t]) for t in range(inst.cols)],
                        dtype=np.uint64)
    return philox.signs(seed, *counters.T).astype(np.int8)


def run_greedy_batch(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy over a batch of instances: ``run_online_batch`` with
    GreedyOnline.  ``entries`` has shape (B, M, n); returns (signs (B, n)
    int8, row sums ``entries[i] @ signs[i]`` (B, M))."""
    return run_online_batch(GreedyOnline(), entries, (0,) * len(entries))
