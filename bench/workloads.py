"""The benchmark's workloads: one round of README commands per workload.

A round is a fixed list of tasks, each one ``disclab`` command line.  All
of a round's inputs (disclab seeds, thresholds, sweep configs) are drawn
from the benchmark seed, so one seed always gives the same round.  Runs
repeat whole rounds, so every run attempts the same mix of commands.

The machine this was tuned on runs in phases at 55-100% of its peak
speed, so each kind of task has fast and slow times.  The rounds are
built so that the median and the tail percentile of task time fall
inside the times of one kind of task, not on the border between two
kinds, and the tail falls near the top of its kind's times, where it
reads the slow phases in every run, not in some runs only.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

import reference

WORKLOADS = ("exact", "online", "landscape")


@dataclass
class Task:
    label: str                 # kind of task; tasks of one kind cost alike
    argv: list                 # arguments of disclab.cli.main
    outputs: list              # files the command writes, read back after it
    check: str                 # name of the checker in checks.py
    params: dict               # what the checker needs to recompute the output


def _seed(rng) -> int:
    return rng.randrange(1 << 32)


def _experiment(tdir, label, config):
    """An ``experiment`` sweep; the manifest is listed first."""
    cfg_path = os.path.join(tdir, "config.json")
    with open(cfg_path, "w", encoding="ascii") as fh:
        json.dump(config, fh)
    out = os.path.join(tdir, "out")
    files = ["manifest.json"] + [f"{config['kind']}_{s}.json" for s in config["seeds"]]
    return Task(label, ["experiment", "--config", cfg_path, "--out-dir", out],
                [os.path.join(out, f) for f in files], "experiment", {"config": config})


def exact_round(rng, tdirs):
    """Exact minima (M=8) and an SBP count (M=4): the Gray-code scan."""
    specs = [("exact", "gaussian", 8, 22, None), ("exact", "rademacher", 8, 22, None),
             ("exact", "gaussian", 8, 21, None), ("exact", "rademacher", 8, 21, None),
             ("sbp-count", "gaussian", 4, 22, 0.25)]
    tasks = []
    for tdir, (kind, disorder, rows, cols, kappa) in zip(tdirs, specs):
        config = {"kind": kind, "rows": rows, "cols": cols, "disorder": disorder,
                  "seeds": [_seed(rng)]}
        if kappa is not None:
            config["kappa"] = kappa
        tasks.append(_experiment(tdir, f"{kind}/{disorder}-{rows}x{cols}", config))
    return tasks


def online_round(rng, tdirs):
    """Online signing at M=32, n=1024, and a stability probe."""
    tasks = []
    specs = [(alg, disorder) for alg in ("greedy", "potential", "random")
             for disorder in ("gaussian", "rademacher")]
    for tdir, (alg, disorder) in zip(tdirs, specs):
        seed = _seed(rng)
        out = os.path.join(tdir, "online.json")
        argv = ["online", "--alg", alg, "--rows", "32", "--cols", "1024",
                "--disorder", disorder, "--seeds", f"{seed}..{seed}", "--out", out]
        tasks.append(Task(f"online/{alg}-{disorder}", argv, [out], "online",
                          {"alg": alg, "disorder": disorder, "rows": 32, "cols": 1024,
                           "seeds": [seed]}))
    seed = _seed(rng)
    out = os.path.join(tdirs[6], "stability.json")
    params = {"alg": "greedy", "rho": 0.999, "rows": 16, "cols": 512, "trials": 10,
              "threshold": 12.0, "seed": seed}
    argv = ["landscape", "stability", "--alg", "greedy", "--rho", repr(params["rho"]),
            "--rows", "16", "--cols", "512", "--trials", "10",
            "--threshold", repr(params["threshold"]), "--seed", str(seed), "--out", out]
    tasks.append(Task("stability/greedy-16x512", argv, [out], "stability", params))
    return tasks


HISTOGRAM_SOLUTIONS = 2500
MC_SAMPLES = 1 << 18     # one chunk of the estimator


def histogram_kappa(rows: int, cols: int, seed: int, count: int) -> float:
    """The kappa at which the gaussian instance has exactly ``count``
    solutions (``count`` even, the set is closed under sign flip).

    The threshold is set midway between two consecutive distinct values of
    ||M sigma||_inf, so float rounding cannot move a vector across it.
    The solution count, which sets the histogram's quadratic cost and
    memory, is then the same on every seed.
    """
    entries = reference.instance_entries(rows, cols, "gaussian", seed)
    vals = np.sort(reference.all_values(entries))
    k = count
    while vals[k] - vals[k - 1] <= 1e-6 * vals[k]:   # a near-tie: take the next pair
        k += 2
    return float((vals[k - 1] + vals[k]) / 2.0 / math.sqrt(cols))


def landscape_round(rng, tdirs):
    """Tuple searches, an OGP search, an overlap histogram and a Monte
    Carlo box probability."""
    tasks = []

    def add(label, argv, check, params):
        tdir = tdirs[len(tasks)]
        out = os.path.join(tdir, "out.csv" if check == "histogram" else "out.json")
        tasks.append(Task(label, argv + ["--out", out], [out], check, params))

    # xi-sbp: kappa = 1 finds a witness; kappa = 0.01 exhausts the space
    for kappa, what in ((1.0, "found"), (0.01, "exhaust")):
        seed = _seed(rng)
        add(f"xi-sbp/{what}",
            ["landscape", "xi-sbp", "--rows", "4", "--cols", "19", "--seed", str(seed),
             "--k", "4", "--m", "2", "--kappa", repr(kappa)],
            "xi", {"mode": "xi-sbp", "rows": 4, "cols": 19, "disorder": "gaussian",
                   "seed": seed, "k": 4, "m": 2, "kappa": kappa})
    # xi-disc: c_u = 1 finds a witness; at c_u = 1/24 the bound is below 1
    # and n odd makes every row sum odd, so the space is exhausted
    for cu, what in ((1.0, "found"), (1.0 / 24.0, "exhaust")):
        seed = _seed(rng)
        add(f"xi-disc/{what}",
            ["landscape", "xi-disc", "--rows", "4", "--cols", "19",
             "--disorder", "rademacher", "--seed", str(seed), "--k", "4", "--m", "2",
             "--cu", repr(cu)],
            "xi", {"mode": "xi-disc", "rows": 4, "cols": 19, "disorder": "rademacher",
                   "seed": seed, "k": 4, "m": 2, "cu": cu})
    seed = _seed(rng)
    add("ogp/3x16",
        ["landscape", "ogp", "--rows", "3", "--cols", "16", "--seed", str(seed),
         "--m", "2", "--beta", "0.75", "--eta", "0.25", "--K", "1.0", "--grid", "8"],
        "ogp", {"rows": 3, "cols": 16, "seed": seed, "m": 2, "beta": 0.75, "eta": 0.25,
                "K": 1.0, "grid": 8})
    seed = _seed(rng)
    kappa = histogram_kappa(4, 14, seed, HISTOGRAM_SOLUTIONS)
    add("histogram/4x14",
        ["landscape", "histogram", "--rows", "4", "--cols", "14", "--seed", str(seed),
         "--kappa", repr(kappa), "--bins", "13"],
        "histogram", {"rows": 4, "cols": 14, "seed": seed, "kappa": kappa, "bins": 13})
    for _ in range(2):
        seed = _seed(rng)
        add("box-bound/m3",
            ["theory", "box-bound", "--m", "3", "--beta", "0.8", "--eta", "0", "--K", "1",
             "--n", "4", "--samples", str(MC_SAMPLES), "--seed", str(seed)],
            "box", {"m": 3, "beta": 0.8, "eta": 0.0, "K": 1.0, "n": 4.0,
                    "samples": MC_SAMPLES, "seed": seed})
    return tasks


ROUNDS = {"exact": (exact_round, 5), "online": (online_round, 7),
          "landscape": (landscape_round, 8)}

# task_tail_s percentile.  A run times at least tail_min_tasks() tasks, so
# that ten lie beyond it; a 35 s run times about 210-240 exact, 450-570
# online and 240-260 landscape tasks.
TAIL_PERCENTILE = {"exact": 95, "online": 97, "landscape": 95}


def tail_min_tasks(workload: str) -> int:
    return -(-1000 // (100 - TAIL_PERCENTILE[workload]))


def build_round(workload: str, seed: int, scratch: str) -> list:
    """The workload's round for this benchmark seed; task i works in
    ``scratch``/t<i>, where its sweep config (if any) is written."""
    make, size = ROUNDS[workload]
    tdirs = [os.path.join(scratch, f"t{i}") for i in range(size)]
    for d in tdirs:
        os.makedirs(d, exist_ok=True)
    return make(random.Random(f"{workload}/{seed}"), tdirs)
