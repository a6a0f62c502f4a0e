"""Declarative experiment sweeps with reproducible manifests.

A config (JSON file or dict) names an experiment kind, its instance and
algorithm parameters, and a seed range.  ``run_experiment`` validates
everything before writing a single byte, executes the per-seed tasks,
and emits a manifest listing each output file with its SHA-256 hash.
Because all generation and all solvers are counter-seeded and the JSON
writer is canonical, re-running a manifest's config reproduces
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Optional

from .discrepancy import enumerate_solutions, exact_discrepancy, sign_string
from .errors import ParameterError
from .instances import _check_dims, _check_disorder, generate
from .online import ALGORITHMS, make_algorithm, run_online
from .reports import emit_report, render_json, to_payload

KINDS = ("online", "exact", "sbp-count")
# config keys that a kind would silently ignore
_UNUSED_KEYS = {"exact": ("alg", "lam", "kappa"), "sbp-count": ("alg", "lam")}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_seed_range(spec) -> list[int]:
    """Accept [a, b, ...] lists of integers or an inclusive "A..B" string."""
    if isinstance(spec, str):
        lo, _, hi = spec.partition("..")
        try:
            return list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise ParameterError(f"seed range must look like 'A..B', got {spec!r}") from None
    if isinstance(spec, (list, tuple)) and all(_is_int(s) for s in spec):
        return list(spec)
    raise ParameterError(f"seeds must be an 'A..B' string or a list of integers, "
                         f"got {spec!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    rows: int
    cols: int
    seeds: tuple[int, ...]
    disorder: str = "gaussian"
    p: Optional[float] = None
    alg: str = "greedy"
    lam: Optional[float] = None
    kappa: Optional[float] = None
    max_n: Optional[int] = None
    out_dir: str = "."

    def __post_init__(self):
        for name in ("max_n", "lam", "kappa"):
            value = getattr(self, name)
            if value is None:
                continue
            if name == "max_n" and not _is_int(value):
                raise ParameterError(f"experiment {name} must be an integer, got {value!r}")
            if not (_is_int(value) or isinstance(value, float)):
                raise ParameterError(f"experiment {name} must be a number, got {value!r}")
        if not isinstance(self.out_dir, str):
            raise ParameterError(f"experiment out_dir must be a string, got {self.out_dir!r}")
        if self.kind not in KINDS:
            raise ParameterError(f"unknown experiment kind {self.kind!r}, expected {KINDS}")
        _check_dims(self.rows, self.cols)
        _check_disorder(self.disorder, self.p)
        if self.kind == "online" and self.alg not in ALGORITHMS:
            raise ParameterError(f"unknown algorithm {self.alg!r}")
        if self.kind == "sbp-count":
            if self.disorder != "gaussian":
                raise ParameterError("sbp-count needs gaussian disorder")
            if self.kappa is None or not self.kappa > 0:
                raise ParameterError("sbp-count needs kappa > 0")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ParameterError(f"experiment config must be a JSON object, "
                                 f"got {type(raw).__name__}")
        raw = dict(raw)
        seeds = tuple(parse_seed_range(raw.pop("seeds", [])))
        unknown = sorted(set(raw) - set(cls.__dataclass_fields__))
        if unknown:
            raise ParameterError(f"unknown experiment config keys: {', '.join(unknown)}")
        missing = [k for k in ("kind", "rows", "cols") if k not in raw]
        if missing:
            raise ParameterError(f"experiment config lacks {', '.join(missing)}")
        unused = [k for k in _UNUSED_KEYS.get(raw["kind"], ()) if k in raw]
        if unused:
            raise ParameterError(f"experiment kind {raw['kind']!r} does not use "
                                 f"{', '.join(unused)}")
        return cls(seeds=seeds, **raw)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "rows": self.rows, "cols": self.cols,
               "disorder": self.disorder}
        if self.p is not None:
            out["p"] = self.p
        if self.kind == "online":
            out["alg"] = self.alg
            if self.lam is not None:
                out["lam"] = self.lam
        if self.kappa is not None:
            out["kappa"] = self.kappa
        if self.max_n is not None:
            out["max_n"] = self.max_n
        out["seeds"] = list(self.seeds)
        return out


# The per-instance payloads of ``disclab online``, ``disc`` and ``sbp``, which
# are also the sweep kinds online, exact and sbp-count.  ``params`` is the
# parsed arguments or an ExperimentConfig; both name alg, lam, kappa, max_n.
# The online algorithm's auxiliary seed is the instance's seed.

def online_payload(params, inst) -> dict:
    res = run_online(make_algorithm(params.alg, params.lam), inst, omega=inst.seed)
    return {"alg": params.alg, **to_payload(res)}


def exact_payload(params, inst) -> dict:
    return to_payload(exact_discrepancy(inst, max_n=params.max_n))


def count_payload(params, inst, listed: bool = False) -> dict:
    """The solution count at ``params.kappa``, and the solutions when
    ``listed`` (``sbp --list``)."""
    sols = enumerate_solutions(inst, params.kappa, max_n=params.max_n)
    payload = {"kappa": params.kappa, "count": int(sols.shape[0])}
    if listed:
        payload["solutions"] = [sign_string(s) for s in sols]
    return payload


_PAYLOADS = {"online": online_payload, "exact": exact_payload, "sbp-count": count_payload}


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def run_experiment(config, out_dir: Optional[str] = None) -> dict:
    """Run all seeds of a config; write per-seed files plus manifest.json.

    Returns the manifest.  Per-task failures are recorded in the manifest
    with their message and do not abort the sweep.
    """
    if isinstance(config, dict):
        config = ExperimentConfig.from_dict(config)
    target = out_dir or config.out_dir
    os.makedirs(target, exist_ok=True)
    tasks = []
    for seed in config.seeds:
        name = f"{config.kind}_{seed}.json"
        path = os.path.join(target, name)
        try:
            inst = generate(config.rows, config.cols, config.disorder, seed, config.p)
            payload = {"seed": seed, **_PAYLOADS[config.kind](config, inst)}
            if config.kind == "online" and config.kappa is not None:
                threshold = config.kappa * math.sqrt(config.cols)
                payload["satisfies"] = bool(payload["value"] <= threshold)
            emit_report(payload, "json", path)
            tasks.append({"seed": seed, "status": "ok", "file": name,
                          "sha256": _sha256(path)})
        except Exception as exc:   # per-task isolation, recorded not raised
            tasks.append({"seed": seed, "status": f"error: {exc}", "file": None,
                          "sha256": None})
    manifest = {"config": config.to_dict(), "tasks": tasks}
    with open(os.path.join(target, "manifest.json"), "w", encoding="ascii") as fh:
        fh.write(render_json(manifest) + "\n")
    return manifest


def load_config(path: str) -> ExperimentConfig:
    """Read a JSON sweep config; any defect raises ParameterError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:       # missing, unreadable or not JSON
        raise ParameterError(f"cannot read experiment config {path}: "
                             f"{getattr(exc, 'strerror', None) or exc}") from None
    return ExperimentConfig.from_dict(raw)
