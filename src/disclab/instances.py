"""Random instance generation and correlated ensembles.

An instance is an M x n matrix with one of three disorder families:
gaussian N(0,1), rademacher {-1,+1}, or bernoulli(p) {0,1}.  Entry (i, j)
of a generated instance is ``philox(key=seed, counter=(i, j, tag, 0))``
pushed through the family's transform, so generation is deterministic,
coordinate-parallel, and independent of evaluation order.

``_draw`` is the one draw path: it maps a seed or an array of seeds, the
disorder, p, a shape and a column offset to Philox.  ``generate`` (one
seed), ``generate_batch`` (many seeds) and ``resample_suffix`` (the
members' last k columns, in one batched call) all go through it.
Building an ``Instance`` is the one check of an instance: its dims,
disorder, p and shape, then ``_working_entries``, the one rule for the
entries' dtype and values.  ``generate``, a file header and an experiment
config check dims, disorder and p before they draw or read; Philox checks
the seeds.

Correlated ensembles come in two flavours:

* suffix resampling -- members share the first n-k columns of a base
  instance exactly and redraw the last k columns from per-member seeds;
* angular interpolation -- cos(tau) * base + sin(tau) * fresh, defined
  for gaussian disorder only (it preserves the N(0,1) marginals).

Three recipes fix the derived seeds (``philox.derive_seed``) of the
ensembles the ``landscape`` commands run, so a library call rebuilds them:
``suffix_ensemble`` (xi-sbp, xi-disc), ``ogp_ensemble`` (ogp) and
``stability_trial`` (one trial of ``landscape.stability_probe``).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import philox
from .errors import InstanceFormatError, ParameterError, UnsupportedDisorderError

DISORDERS = ("gaussian", "rademacher", "bernoulli")

# stream tags keep the per-family bit streams disjoint for one seed
_STREAM_TAG = {"gaussian": 0, "rademacher": 1, "bernoulli": 2}


@dataclass(frozen=True)
class Instance:
    """A realized random matrix plus the description that produced it.

    ``entries`` is held read-only in float64 (gaussian) or int64; a writable
    input is copied first, so later writes to it leave the instance as built.

    ``seed`` is None for derived instances (interpolations), whose entries
    are functions of their parents rather than of a single seed.  For
    suffix-resampled ensemble members ``seed`` is the member seed; only
    the resampled columns are determined by it.
    """

    rows: int
    cols: int
    disorder: str
    seed: Optional[int]
    entries: np.ndarray = field(repr=False)
    p: Optional[float] = None

    def __post_init__(self):
        _check_dims(self.rows, self.cols)
        _check_disorder(self.disorder, self.p)
        if np.shape(self.entries) != (self.rows, self.cols):
            raise ParameterError(f"entries have shape {np.shape(self.entries)}, "
                                 f"expected ({self.rows}, {self.cols})")
        entries = _working_entries(self.entries, integer=self.disorder != "gaussian")
        if entries.flags.writeable:
            if np.may_share_memory(entries, self.entries):
                entries = entries.copy()
            entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols


def _check_dims(rows, cols) -> None:
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1
               for v in (rows, cols)):
        raise ParameterError(f"rows and cols must be positive integers, "
                             f"got {rows!r} and {cols!r}")


def _check_disorder(disorder, p) -> None:
    if disorder not in DISORDERS:
        raise ParameterError(f"unknown disorder {disorder!r}, expected one of {DISORDERS}")
    if disorder == "bernoulli":
        if not (isinstance(p, numbers.Real) and not isinstance(p, bool) and 0.0 < p < 1.0):
            raise ParameterError(f"bernoulli disorder needs p in (0,1), got {p!r}")
    elif p is not None:
        raise ParameterError(f"p is only meaningful for bernoulli disorder, got p={p!r}")


def _max_row_l1(entries: np.ndarray) -> int:
    """S = max_i sum_j |M_ij| of integer-valued entries, exactly.  A float64
    sum of integers that comes out below 2^53 is exact (every partial sum is
    smaller); a larger one is redone in Python integers."""
    s = float(np.abs(entries, dtype=np.float64).sum(axis=1).max())
    if s < 2.0 ** 53:
        return int(s)
    return max(sum(abs(int(x)) for x in row) for row in np.asarray(entries).tolist())


def _working_entries(entries, integer: bool) -> np.ndarray:
    """``entries`` in float64, or with ``integer`` in int64.  A
    ``ParameterError`` if the dtype is not a real number, a float entry is
    NaN, infinite or, with ``integer``, not whole, or an integer row l1 norm
    (over the last axis), which bounds every partial row sum, leaves int64."""
    entries = np.asarray(entries)
    if entries.dtype.kind not in "biuf":
        raise ParameterError(f"entries must be real numbers, got dtype {entries.dtype}")
    if entries.dtype.kind == "f":
        ok = np.isfinite(entries)
        if integer:
            ok &= entries == np.trunc(entries)
        if not ok.all():
            at = tuple(int(i) for i in np.argwhere(~ok)[0])
            raise ParameterError(f"entries must be {'whole' if integer else 'finite'} "
                                 f"numbers, got {entries[at]} at {at}")
    if not integer:
        return entries.astype(np.float64, copy=False)
    # n * max |M_ij| bounds S with no temporary the size of the entries
    if entries.size and entries.shape[-1] * max(-float(entries.min()),
                                                float(entries.max())) >= 2.0 ** 62:
        s = _max_row_l1(entries.reshape(-1, entries.shape[-1]))
        if s >= 2 ** 63:
            raise ParameterError(f"integer row sums may leave int64: the largest row l1 "
                                 f"norm is {s}, above {2 ** 63 - 1}")
    return entries.astype(np.int64, copy=False)


def _draw(key, disorder: str, p: Optional[float], rows: int, cols: int,
          col_offset: int = 0) -> np.ndarray:
    """Entries (i, col_offset + j) for i < rows, j < cols: the one draw path.

    ``key`` is a seed, giving (rows, cols), or a (B, 1, 1) array of seeds,
    giving (B, rows, cols).
    """
    r = np.arange(rows, dtype=np.uint64)[:, None]
    c = np.arange(col_offset, col_offset + cols, dtype=np.uint64)[None, :]
    tag = _STREAM_TAG[disorder]
    if disorder == "gaussian":
        return philox.gaussians(key, r, c, tag)
    if disorder == "rademacher":
        return philox.signs(key, r, c, tag)
    return philox.bernoullis(key, p, r, c, tag)


def generate(rows: int, cols: int, disorder: str, seed: int,
             p: Optional[float] = None) -> Instance:
    """Generate a fresh instance; identical arguments give identical entries."""
    _check_dims(rows, cols)
    _check_disorder(disorder, p)
    return Instance(rows, cols, disorder, seed, _draw(seed, disorder, p, rows, cols), p)


def generate_batch(rows: int, cols: int, disorder: str, seeds,
                   p: Optional[float] = None, col_offset: int = 0) -> np.ndarray:
    """Entries for many seeds at once: (len(seeds), rows, cols).

    Equals np.stack([generate(rows, cols, disorder, s, p).entries for s
    in seeds]) entry for entry; ``col_offset`` shifts the column counter,
    so the batch holds columns col_offset.. of each seed's instance.
    """
    _check_dims(rows, cols)
    _check_disorder(disorder, p)
    keys = np.asarray(seeds, dtype=object)
    if keys.ndim != 1:
        raise ParameterError(f"seeds must be a 1-d sequence, got {seeds!r}")
    keys = keys[:, None, None]
    return _draw(keys, disorder, p, rows, cols, col_offset)


def resample_suffix(base: Instance, k: int, m: int,
                    seeds: Sequence[int]) -> list[Instance]:
    """m correlated copies of ``base`` sharing the first n-k columns.

    The first member is ``base`` itself; members 2..m redraw the last k
    columns (global column indices n-k..n-1) from the corresponding entry
    of ``seeds`` (length m-1), keeping the base disorder.
    """
    n = base.cols
    if not 1 <= k <= n:
        raise ParameterError(f"resample width k={k} must satisfy 1 <= k <= n={n}")
    if m < 2:
        raise ParameterError(f"ensemble size m={m} must be >= 2")
    if len(seeds) != m - 1:
        raise ParameterError(f"need {m - 1} member seeds for m={m}, got {len(seeds)}")
    suffixes = generate_batch(base.rows, k, base.disorder, seeds, base.p, col_offset=n - k)
    members = [base]
    for s, suffix in zip(seeds, suffixes):
        entries = np.concatenate([base.entries[:, : n - k], suffix], axis=1)
        members.append(Instance(base.rows, n, base.disorder, int(s), entries, base.p))
    return members


def interpolate(base: Instance, fresh: Instance, tau: float) -> Instance:
    """cos(tau) * base + sin(tau) * fresh, entrywise (gaussian only).

    The endpoint angles 0 and pi/2 (the float math.pi/2) reproduce base
    and fresh exactly; float cos(pi/2) is otherwise a stray 6e-17.
    """
    if base.disorder != "gaussian" or fresh.disorder != "gaussian":
        raise UnsupportedDisorderError(
            "interpolation is defined for gaussian disorder only, got "
            f"{base.disorder!r} and {fresh.disorder!r}")
    if base.shape != fresh.shape:
        raise ParameterError(f"shape mismatch: {base.shape} vs {fresh.shape}")
    if not 0.0 <= tau <= np.pi / 2:
        raise ParameterError(f"interpolation angle must lie in [0, pi/2], got {tau}")
    if tau == np.pi / 2:
        c, s = 0.0, 1.0
    else:
        c, s = np.cos(tau), np.sin(tau)
    return Instance(base.rows, base.cols, "gaussian", None, c * base.entries + s * fresh.entries)


def suffix_ensemble(base: Instance, k: int, m: int, seed: int) -> list[Instance]:
    """``resample_suffix`` with member i >= 1 drawn from derive_seed(seed, i, 1)."""
    return resample_suffix(base, k, m, [philox.derive_seed(seed, i, 1) for i in range(1, m)])


def ogp_ensemble(rows: int, cols: int, m: int, seed: int) -> tuple[Instance, list[Instance]]:
    """The gaussian base of ``seed`` and partner i = 0..m-1 of derive_seed(seed, i, 2)."""
    return generate(rows, cols, "gaussian", seed), [
        generate(rows, cols, "gaussian", philox.derive_seed(seed, i, 2)) for i in range(m)]


def stability_trial(rows: int, cols: int, tau: float, seed: int,
                    t: int) -> tuple[Instance, Instance, int]:
    """Trial t: base derive_seed(seed, t, 0), at tau toward (seed, t, 1), aux (seed, t, 2)."""
    base = generate(rows, cols, "gaussian", philox.derive_seed(seed, t, 0))
    fresh = generate(rows, cols, "gaussian", philox.derive_seed(seed, t, 1))
    return base, interpolate(base, fresh, tau), philox.derive_seed(seed, t, 2)


# ---------------------------------------------------------------------------
# Instance files: one JSON header line, then a CSV or raw float64-LE body.
# ---------------------------------------------------------------------------

def save_instance(inst: Instance, path, body: str = "csv") -> None:
    if body not in ("csv", "raw"):
        raise ParameterError(f"body format must be 'csv' or 'raw', got {body!r}")
    header = {"rows": inst.rows, "cols": inst.cols, "disorder": inst.disorder}
    if inst.p is not None:
        header["p"] = inst.p
    header["seed"] = inst.seed
    header["body"] = body
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        if body == "raw":
            fh.write(np.ascontiguousarray(inst.entries, dtype="<f8").tobytes())
        else:
            fmt = ".17g" if inst.disorder == "gaussian" else "d"
            for row in inst.entries:
                fh.write(",".join(format(v, fmt) for v in row).encode("ascii") + b"\n")


_HEADER_KEYS = ("rows", "cols", "disorder", "body")
# the only values an integer family's file may hold
_FILE_VALUES = {"rademacher": (-1, 1), "bernoulli": (0, 1)}


def _read_header(fh, path) -> dict:
    try:
        header = json.loads(fh.readline().decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InstanceFormatError(f"{path}: first line is not a JSON header ({exc})") from None
    if not isinstance(header, dict):
        raise InstanceFormatError(f"{path}: header is not a JSON object")
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise InstanceFormatError(f"{path}: header lacks {', '.join(missing)}")
    try:
        _check_dims(header["rows"], header["cols"])
        _check_disorder(header["disorder"], header.get("p"))
    except ParameterError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from None
    if header["body"] not in ("csv", "raw"):
        raise InstanceFormatError(f"{path}: body must be 'csv' or 'raw', "
                                  f"got {header['body']!r}")
    return header


def _parse_csv(body: bytes, rows: int, cols: int, path) -> np.ndarray:
    try:
        lines = body.decode("ascii").strip().splitlines()
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"{path}: csv body is not ascii ({exc})") from None
    if len(lines) != rows:
        raise InstanceFormatError(f"{path}: csv body has {len(lines)} rows, header says {rows}")
    out = np.empty((rows, cols), dtype=np.float64)
    for i, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) != cols:
            raise InstanceFormatError(f"{path}: csv row {i} has {len(fields)} values, "
                                      f"header says {cols}")
        try:
            out[i] = [float(v) for v in fields]
        except (ValueError, OverflowError) as exc:
            raise InstanceFormatError(f"{path}: csv row {i}: {exc}") from None
    return out


def load_instance(path) -> Instance:
    """Read an instance file; any defect raises InstanceFormatError."""
    try:
        with open(path, "rb") as fh:
            header = _read_header(fh, path)
            body = fh.read()
    except OSError as exc:
        raise InstanceFormatError(f"cannot read instance file {path}: "
                                  f"{exc.strerror or exc}") from None
    rows, cols = header["rows"], header["cols"]
    values = _FILE_VALUES.get(header["disorder"])
    if header["body"] == "raw":
        need = rows * cols * 8
        if len(body) != need:
            raise InstanceFormatError(f"{path}: raw body holds {len(body)} bytes, "
                                      f"{rows}x{cols} float64 entries need {need}")
        entries = np.frombuffer(body, dtype="<f8").reshape(rows, cols)
    else:
        entries = _parse_csv(body, rows, cols, path)
    # a resampled ensemble mixes the file's prefix with fresh draws of the
    # family, so an integer family's file holds its values and no others
    if values is not None:
        bad = np.argwhere(~np.isin(entries, values))
        if bad.size:
            i, j = bad[0]
            raise InstanceFormatError(f"{path}: {header['disorder']} entry ({i}, {j}) is "
                                      f"{entries[i, j]}, expected one of {values}")
    try:
        return Instance(rows, cols, header["disorder"], header.get("seed"), entries,
                        header.get("p"))
    except ParameterError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from None
