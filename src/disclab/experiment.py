"""Declarative experiment sweeps with reproducible manifests.

A config (JSON file or dict) names an experiment kind, the instance
parameters rows, cols, disorder and p, a seed range, and the keys its
kind reads.  ``_KINDS`` is the one table of kinds: each row gives the
kind's per-seed payload and, in manifest order, the keys it reads with
their defaults.  ``parse_config`` checks a config against that table;
``run_experiment`` parses before writing a single byte, executes the
per-seed tasks, and emits a manifest listing each output file with its
SHA-256 hash.  Because all generation and all solvers are counter-seeded
and the JSON writer is canonical, re-running a manifest's config
reproduces byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from types import SimpleNamespace
from typing import Optional

from .discrepancy import enumerate_solutions, exact_discrepancy
from .errors import ParameterError
from .instances import _check_dims, _check_disorder, generate
from .online import make_algorithm, run_online
from .philox import _is_word
from .reports import emit_report


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_seed_range(spec) -> list[int]:
    """Accept [a, b, ...] lists of distinct seeds or an inclusive "A..B"
    string with B >= A.  Every seed must be an integer in [0, 2^64)."""
    if isinstance(spec, str):
        lo, _, hi = spec.partition("..")
        try:
            seeds = range(int(lo), int(hi) + 1)
        except ValueError:
            raise ParameterError(f"seed range must look like 'A..B', got {spec!r}") from None
        if not seeds:
            raise ParameterError(f"seed range {spec!r} ends before it starts")
        ends = (seeds[0], seeds[-1])
    elif isinstance(spec, (list, tuple)):
        seeds = ends = spec
    else:
        raise ParameterError(f"seeds must be an 'A..B' string or a list of integers, "
                             f"got {spec!r}")
    if not all(_is_word(s, 64) for s in ends):
        raise ParameterError(f"seeds must be integers in [0, 2^64), got {spec!r}")
    if seeds is spec and len(set(spec)) < len(spec):    # a range never repeats
        raise ParameterError(f"seeds must not repeat, got {spec!r}")
    return list(seeds)


# The per-instance payloads of ``disclab online``, ``disc`` and ``sbp``, which
# the sweep kinds share.  ``params`` is the parsed arguments or a namespace of
# a parsed sweep config; both name alg, lam, kappa, max_n where the payload
# reads them.  The online algorithm's auxiliary seed is the instance's seed.
# A payload holds its result's fields as they are; the writer turns the arrays
# among them into sign strings and lists.

def online_payload(params, inst) -> dict:
    res = run_online(make_algorithm(params.alg, params.lam), inst, omega=inst.seed)
    return {"alg": params.alg, **vars(res)}


def exact_payload(params, inst) -> dict:
    return dict(vars(exact_discrepancy(inst, max_n=params.max_n)))


def count_payload(params, inst, listed: bool = False) -> dict:
    """The solution count at ``params.kappa``, and the solutions when
    ``listed`` (``sbp --list``), of a gaussian instance."""
    sols = enumerate_solutions(inst, params.kappa, max_n=params.max_n)
    payload = {"kappa": params.kappa, "count": int(sols.shape[0])}
    if listed:
        payload["solutions"] = sols
    return payload


def _online_sweep_payload(params, inst) -> dict:
    """``online_payload``, and with kappa whether value <= kappa * sqrt(cols)."""
    payload = online_payload(params, inst)
    if params.kappa is not None:
        payload["satisfies"] = bool(payload["value"] <= params.kappa * math.sqrt(inst.cols))
    return payload


# kind -> (per-seed payload, {key: default}): the keys the kind reads besides
# rows, cols, disorder, p and seeds, in manifest order
_KINDS = {
    "online": (_online_sweep_payload, {"alg": "greedy", "lam": None, "kappa": None}),
    "exact": (exact_payload, {"max_n": None}),
    "sbp-count": (count_payload, {"kappa": None, "max_n": None}),
}


def parse_config(raw) -> dict:
    """Check a sweep config; return it with every default filled in, its
    keys in manifest order and ``out_dir`` last.  Any defect raises
    ParameterError."""
    if not isinstance(raw, dict):
        raise ParameterError(f"experiment config must be a JSON object, "
                             f"got {type(raw).__name__}")
    read = {key for _, defaults in _KINDS.values() for key in defaults}
    unknown = sorted(set(raw) - read - {"kind", "rows", "cols", "disorder", "p",
                                         "seeds", "out_dir"})
    if unknown:
        raise ParameterError(f"unknown experiment config keys: {', '.join(unknown)}")
    missing = [k for k in ("kind", "rows", "cols") if k not in raw]
    if missing:
        raise ParameterError(f"experiment config lacks {', '.join(missing)}")
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ParameterError(f"unknown experiment kind {kind!r}, expected {tuple(_KINDS)}")
    defaults = _KINDS[kind][1]
    unused = [k for k in raw if k in read and k not in defaults]
    if unused:
        raise ParameterError(f"experiment kind {kind!r} does not use {', '.join(unused)}")
    cfg = {"kind": kind, "rows": raw["rows"], "cols": raw["cols"],
           "disorder": raw.get("disorder", "gaussian"), "p": raw.get("p"),
           **{k: raw.get(k, default) for k, default in defaults.items()},
           "seeds": parse_seed_range(raw.get("seeds", [])),
           "out_dir": raw.get("out_dir", ".")}
    for name in ("lam", "kappa", "max_n"):
        value = cfg.get(name)
        if value is None or _is_int(value):
            continue
        if name == "max_n":
            raise ParameterError(f"experiment {name} must be an integer, got {value!r}")
        if not isinstance(value, float):
            raise ParameterError(f"experiment {name} must be a number, got {value!r}")
    if cfg.get("kappa") is not None and not 0 < cfg["kappa"] < math.inf:
        raise ParameterError(f"experiment kappa must be positive and finite, "
                             f"got {cfg['kappa']!r}")
    if not isinstance(cfg["out_dir"], str):
        raise ParameterError(f"experiment out_dir must be a string, got {cfg['out_dir']!r}")
    _check_dims(cfg["rows"], cfg["cols"])
    _check_disorder(cfg["disorder"], cfg["p"])
    if kind == "online":
        make_algorithm(cfg["alg"], cfg["lam"])
    if kind == "sbp-count":
        if cfg["disorder"] != "gaussian":
            raise ParameterError("sbp-count needs gaussian disorder")
        if cfg["kappa"] is None:
            raise ParameterError("sbp-count needs kappa")
    return cfg


def run_experiment(config: dict, out_dir: Optional[str] = None) -> dict:
    """Run all seeds of a config; write per-seed files plus manifest.json.

    The config is parsed before any file is written.  Returns the
    manifest.  Per-task failures are recorded in the manifest with their
    message and do not abort the sweep.
    """
    cfg = parse_config(config)
    payload_of = _KINDS[cfg["kind"]][0]
    params = SimpleNamespace(**cfg)
    target = out_dir or params.out_dir
    os.makedirs(target, exist_ok=True)
    tasks = []
    for seed in params.seeds:
        name = f"{params.kind}_{seed}.json"
        try:
            inst = generate(params.rows, params.cols, params.disorder, seed, params.p)
            text = emit_report({"seed": seed, **payload_of(params, inst)},
                               os.path.join(target, name))
            tasks.append({"seed": seed, "status": "ok", "file": name,
                          "sha256": hashlib.sha256(text.encode("ascii")).hexdigest()})
        except Exception as exc:   # per-task isolation, recorded not raised
            tasks.append({"seed": seed, "status": f"error: {exc}", "file": None,
                          "sha256": None})
    manifest = {"config": {k: v for k, v in cfg.items() if k != "out_dir" and v is not None},
                "tasks": tasks}
    emit_report(manifest, os.path.join(target, "manifest.json"))
    return manifest


def load_config(path: str) -> dict:
    """Read a JSON sweep config; a missing, unreadable or non-JSON file
    raises ParameterError.  ``run_experiment`` checks what it holds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:       # missing, unreadable or not JSON
        raise ParameterError(f"cannot read experiment config {path}: "
                             f"{getattr(exc, 'strerror', None) or exc}") from None
