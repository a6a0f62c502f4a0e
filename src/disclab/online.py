"""Online column-signing algorithms and the harness that runs them.

An online algorithm assigns the sign of coordinate t after seeing columns
1..t only.  The harness enforces this structurally: it feeds one column
at a time and the step function receives nothing but its own scratch
state, the running signed column sum, and the new column.

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
from .discrepancy import disc_value
from .errors import ContractViolationError, ParameterError
from .instances import Instance

_LOG2 = float(np.log(2.0))


@dataclass(frozen=True)
class OnlineResult:
    sigma: np.ndarray               # chosen signs, int8
    row_sums: np.ndarray            # final M * sigma
    value: Union[int, float]        # max_i |row_sums_i|


class GreedyOnline:
    """Sign minimizing ||partial + s * column||_inf; ties -> +1."""

    name = "greedy"

    def start(self, rows: int, omega: int = 0):
        return None

    def step(self, scratch, partial_sums, column) -> int:
        plus = np.max(np.abs(partial_sums + column))
        minus = np.max(np.abs(partial_sums - column))
        return 1 if plus <= minus else -1


def _log_sum_cosh(a: np.ndarray) -> float:
    # log sum_i cosh(a_i), stable for large |a|
    m = float(np.max(np.abs(a)))
    return m + float(np.log(np.sum(np.exp(a - m) + np.exp(-a - m)))) - _LOG2


class PotentialOnline:
    """Sign minimizing Phi(w) = sum_i cosh(lambda * w_i); ties -> +1.

    With lam=None the scale defaults to 1/sqrt(M) at run start.
    """

    name = "potential"

    def __init__(self, lam: float | None = None):
        if lam is not None and not lam > 0:
            raise ParameterError(f"lambda must be positive, got {lam}")
        self.lam = lam

    def start(self, rows: int, omega: int = 0):
        return self.lam if self.lam is not None else 1.0 / np.sqrt(rows)

    def step(self, scratch, partial_sums, column) -> int:
        lam = scratch
        plus = _log_sum_cosh(lam * (partial_sums + column))
        minus = _log_sum_cosh(lam * (partial_sums - column))
        return 1 if plus <= minus else -1


def _column_words(column: np.ndarray) -> tuple[int, int]:
    h = hashlib.blake2b(np.ascontiguousarray(column).tobytes(), digest_size=8).digest()
    v = int.from_bytes(h, "little")
    return v & 0xFFFFFFFF, v >> 32


class RandomSigningOnline:
    """Uniform signs keyed by (aux seed, step index, hash of the new column).

    Mixing the column hash into the counter makes the output sensitive to
    the instance (independent instances get independent signs) while
    remaining a deterministic function of the columns seen so far.
    """

    name = "random"

    def start(self, rows: int, omega: int = 0):
        return {"omega": int(omega), "t": 0}

    def step(self, scratch, partial_sums, column) -> int:
        lo, hi = _column_words(column)
        s = int(philox.signs(scratch["omega"], scratch["t"], lo, hi, 3))
        scratch["t"] += 1
        return s


ALGORITHMS = ("greedy", "potential", "random")


def make_algorithm(name: str, lam: float | None = None):
    if name == "greedy":
        return GreedyOnline()
    if name == "potential":
        return PotentialOnline(lam)
    if name == "random":
        return RandomSigningOnline()
    raise ParameterError(f"unknown online algorithm {name!r}, expected one of {ALGORITHMS}")


def run_online(alg, inst: Instance, omega: int = 0) -> OnlineResult:
    """Feed columns left to right; coordinate t sees columns 1..t only."""
    entries = inst.entries
    if inst.disorder == "gaussian":
        work = np.asarray(entries, dtype=np.float64)
    else:
        work = np.asarray(entries, dtype=np.int64)
    m, n = work.shape
    partial = np.zeros(m, dtype=work.dtype)
    sigma = np.empty(n, dtype=np.int8)
    scratch = alg.start(m, omega)
    view = partial.view()
    view.setflags(write=False)
    for t in range(n):
        col = work[:, t]
        s = alg.step(scratch, view, col)
        if s != 1 and s != -1:
            raise ContractViolationError(
                f"online step returned {s!r}, expected -1 or +1 (algorithm {alg.name!r}, step {t})")
        s = int(s)
        sigma[t] = s
        partial += s * col
    # report the direct product of the chosen signs, not the drifted running sums
    final = disc_value(inst, sigma)
    return OnlineResult(sigma=sigma, row_sums=final.row_sums, value=final.value)


def random_signing(inst: Instance, seed: int) -> np.ndarray:
    """Sign vector of the 'random' online algorithm on this instance.

    Vectorized but sign-for-sign identical to feeding RandomSigningOnline
    through run_online with omega=seed.
    """
    entries = inst.entries
    n = inst.cols
    lo = np.empty(n, dtype=np.uint64)
    hi = np.empty(n, dtype=np.uint64)
    for t in range(n):
        a, b = _column_words(entries[:, t])
        lo[t], hi[t] = a, b
    return philox.signs(seed, np.arange(n, dtype=np.uint64), lo, hi, 3).astype(np.int8)


def run_greedy_batch(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized greedy over a batch of instances.

    ``entries`` has shape (B, M, n); returns (signs (B, n) int8,
    final row sums (B, M)).  Decision-for-decision identical to running
    GreedyOnline on each instance (same tie rule); row sums are the
    direct product ``entries[i] @ signs[i]`` of each instance.
    """
    b, m, n = entries.shape
    partial = np.zeros((b, m), dtype=entries.dtype)
    signs = np.empty((b, n), dtype=np.int8)
    for t in range(n):
        col = entries[:, :, t]
        plus = np.max(np.abs(partial + col), axis=1)
        minus = np.max(np.abs(partial - col), axis=1)
        s = np.where(plus <= minus, 1, -1).astype(np.int8)
        signs[:, t] = s
        partial += s[:, None] * col
    # report the direct products of the chosen signs, not the drifted running sums
    sums = np.empty_like(partial)
    for i in range(b):
        sums[i] = entries[i] @ signs[i].astype(entries.dtype)
    return signs, sums
